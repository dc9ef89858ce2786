"""Numeric tolerance profiles.

The profile is selected through the IFSPROJ_TOLERANCE_PROFILE environment
variable ("default" or "strict") and read lazily so tests can switch it.
"""

import os
from dataclasses import dataclass

ENV_VAR = "IFSPROJ_TOLERANCE_PROFILE"


@dataclass(frozen=True)
class ToleranceProfile:
    name: str
    tau_num: float
    tau_orth: float
    tau_dim: float


PROFILES = {
    "default": ToleranceProfile("default", 1e-9, 1e-9, 1e-10),
    "strict": ToleranceProfile("strict", 1e-12, 1e-12, 1e-12),
}

# Tolerances that do not vary with the profile.
TAU_ANGLE = 1e-9
TAU_SEP_FACTOR = 1e-12  # ball separation threshold, relative to diameter


def active_profile() -> ToleranceProfile:
    name = os.environ.get(ENV_VAR, "default")
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown {ENV_VAR} {name!r}; expected one of {sorted(PROFILES)}"
        ) from None


def tau_num() -> float:
    return active_profile().tau_num


def tau_orth() -> float:
    return active_profile().tau_orth


def tau_dim() -> float:
    return active_profile().tau_dim

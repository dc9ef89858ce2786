"""Attractor sampling, box counting, and covering-sum upper bounds.

Box dimension is a valid numerical proxy for the Hausdorff dimension of a
self-similar set, which justifies all estimators here as desk-scale checks
of the exact dimension statements.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tolerances
from .geometry import DimensionMismatchError, GeometryError, LinearMap, SSIFS, attractor_bounding_ball


class SamplingMethod(enum.Enum):
    DETERMINISTIC_DEPTH = "deterministic_depth"
    CHAOS_GAME = "chaos_game"


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    seed: int
    method: SamplingMethod
    source_hash: str
    depth: int | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def ifs_digest(ifs: SSIFS) -> str:
    h = hashlib.sha256()
    for s in ifs:
        h.update(np.float64(s.ratio).tobytes())
        h.update(np.ascontiguousarray(s.rotation, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(s.translation, dtype=np.float64).tobytes())
    return h.hexdigest()


def sample_attractor(
    ifs: SSIFS,
    n: int,
    seed: int = 0,
    method: SamplingMethod = SamplingMethod.DETERMINISTIC_DEPTH,
) -> PointCloud:
    """Sample the attractor.

    Deterministic mode enumerates the depth-k images of the first map's fixed
    point, for the smallest k with m^k >= n.  The chaos game iterates
    uniformly chosen maps from the fixed point (the start lies on the
    attractor, so a burn-in of 100 steps is kept only for contract parity).
    """
    if n < 1:
        raise GeometryError("need n >= 1")
    digest = ifs_digest(ifs)
    m = len(ifs)
    x0 = ifs[0].fixed_point()
    if method is SamplingMethod.DETERMINISTIC_DEPTH:
        depth = 0
        while m**depth < n:
            depth += 1
        points = x0[None]
        for _ in range(depth):
            points = np.concatenate([s(points) for s in ifs])
        return PointCloud(points, seed, method, digest, depth)

    rng = np.random.default_rng(seed)
    # Explicit uniform p: rng.choice draws a different stream without it.
    weights = np.full(m, 1.0 / m)
    burn_in = 100
    # Many parallel chains keep the sequential chaos game vectorized; block
    # assignment is fixed, so the output is reproducible for a fixed seed.
    chains = min(n, 1024)
    steps = burn_in + -(-n // chains)
    choices = rng.choice(m, size=(steps, chains), p=weights)
    x = np.tile(x0, (chains, 1))
    collected = []
    for row in choices:
        for i, s in enumerate(ifs):
            mask = row == i
            if mask.any():
                x[mask] = s(x[mask])
        collected.append(x.copy())
    points = np.concatenate(collected[burn_in:])[:n]
    return PointCloud(points, seed, SamplingMethod.CHAOS_GAME, digest)


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    intercept: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    r_squared: float


def box_count(points: np.ndarray, scale: float) -> int:
    """Occupied origin-anchored grid boxes of side ``scale``."""
    if scale <= 0:
        raise GeometryError("scale must be positive")
    quantized = np.floor(np.atleast_2d(points) / scale).astype(np.int64)
    if quantized.shape[1] == 1:
        return int(np.unique(quantized[:, 0]).size)
    # Row-wise unique via a contiguous byte view; much faster than axis=0.
    rows = np.ascontiguousarray(quantized).view(
        np.dtype((np.void, quantized.dtype.itemsize * quantized.shape[1]))
    )
    return int(np.unique(rows).size)


def default_scales(cloud: PointCloud, coarse: int = 3, fine: int = 10) -> list[float]:
    """Dyadic ladder 2^-coarse .. 2^-fine relative to the cloud diameter."""
    diam = cloud.diameter()
    if diam == 0.0:
        diam = 1.0
    return [diam * 2.0**-k for k in range(coarse, fine + 1)]


def _fit(log_inv_scale: np.ndarray, log_counts: np.ndarray):
    slope, intercept = np.polyfit(log_inv_scale, log_counts, 1)
    predicted = slope * log_inv_scale + intercept
    ss_res = float(np.sum((log_counts - predicted) ** 2))
    ss_tot = float(np.sum((log_counts - log_counts.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def box_dim(cloud: PointCloud, scales) -> BoxDimEstimate:
    """Least-squares box-counting slope over the given scale ladder.

    The two coarsest scales are dropped when the initial fit has r^2 < 0.99
    (lattice transients).
    """
    scales = sorted((float(s) for s in scales), reverse=True)
    if len(scales) < 2:
        raise GeometryError("need at least two scales")
    if len(cloud) < 100:
        raise GeometryError("need at least 100 points")
    counts = [box_count(cloud.points, s) for s in scales]
    if len(set(counts)) == 1:
        if counts[0] == 1:
            return BoxDimEstimate(0.0, 0.0, tuple(scales), tuple(counts), 1.0)
        raise GeometryError("degenerate fit: all box counts equal")
    log_inv = np.log(1.0 / np.array(scales))
    log_n = np.log(np.array(counts, dtype=float))
    slope, intercept, r2 = _fit(log_inv, log_n)
    if r2 < 0.99 and len(scales) > 4:
        slope, intercept, r2 = _fit(log_inv[2:], log_n[2:])
    return BoxDimEstimate(slope, intercept, tuple(scales), tuple(counts), r2)


def project_cloud(cloud: PointCloud, linear_map: LinearMap) -> PointCloud:
    if linear_map.domain_dim != cloud.ambient_dim:
        raise DimensionMismatchError(
            f"cannot apply a map on R^{linear_map.domain_dim} to a cloud in R^{cloud.ambient_dim}"
        )
    return replace(cloud, points=linear_map(cloud.points))


def covering_sum_upper_bound(cloud: PointCloud, t: float, scale: float) -> float:
    """Grid-cover upper bound on the t-dimensional Hausdorff content."""
    if scale <= 0 or t <= 0:
        raise GeometryError("scale and t must be positive")
    count = box_count(cloud.points, scale)
    d = cloud.ambient_dim
    return count * (scale * math.sqrt(d)) ** t


def cloud_in_ball(cloud: PointCloud, center, radius: float) -> bool:
    center = np.asarray(center, dtype=float)
    dist = np.linalg.norm(cloud.points - center[None], axis=1)
    return bool((dist <= radius * (1.0 + tolerances.tau_num()) + tolerances.tau_num()).all())


def verify_cloud(ifs: SSIFS, cloud: PointCloud) -> bool:
    """Every sampled point must lie in the certified bounding ball."""
    center, radius = attractor_bounding_ball(ifs)
    return cloud_in_ball(cloud, center, radius)

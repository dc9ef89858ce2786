"""Workloads of the ifsproj CLI benchmark.

A workload is the list of CLI commands of one pass, each with its expected
exit code and the checks its ``--json`` report must pass.  Inputs are the
shipped fixture corpus; the seed moves only the projection-sweep directions
and the chaos-game seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
# A gain claimed at DEFAULT_SEED must also be shown at this seed.
HOLDOUT_SEED = 2

SIMDIM_FIXTURES = (
    "sierpinski_half",
    "cantor_third",
    "c4_rotation",
    "irrational_rotation_planar",
    "example_7_2_r4",
    "example_7_4_line",
    "example_7_5_plane",
    "cantor_pair_r2",
    "degenerate_single_fixed_point",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``ifsproj <verb...> --input <fixture> <options...> --json``."""

    group: str
    verb: tuple[str, ...]
    fixture: str
    options: tuple[str, ...] = ()
    exit_code: int = 0
    focus: bool = False

    def argv(self, fixture_dir) -> list[str]:
        path = str(fixture_dir / f"{self.fixture}.json")
        return [*self.verb, "--input", path, *self.options, "--json"]

    @property
    def label(self) -> str:
        return " ".join([*self.verb, self.fixture, *self.options])

    def option(self, name: str, default=None):
        """Value of ``--name value`` or ``--name=value`` among the options."""
        for i, opt in enumerate(self.options):
            if opt == name:
                return self.options[i + 1]
            if opt.startswith(name + "="):
                return opt[len(name) + 1 :]
        return default


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    focus: str
    commands: tuple[Command, ...]


def sweep_offset(seed: int) -> float:
    """The direction offset u in [0, 1) of the projection sweep."""
    return random.Random(seed).random()


def _finite_words() -> tuple[Command, ...]:
    cmds = [
        Command(
            "simdim",
            ("simdim",),
            name,
            exit_code=3 if name == "degenerate_single_fixed_point" else 0,
        )
        for name in SIMDIM_FIXTURES
    ]
    cmds += [
        Command("project_gdifs", ("project-gdifs",), name, ("--direction", "1,0"))
        for name in ("c4_rotation", "example_7_5_plane")
    ]
    cmds += [
        Command("dimdrop", ("dimdrop",), name, ("--l", "1"), focus=True)
        for name in ("sierpinski_half", "c4_rotation", "example_7_5_plane")
    ]
    ssc = ("estimate", "ssc-approx")
    cmds += [
        Command("ssc_approx", ssc, "sierpinski_half", ("--epsilon", "0.3")),
        Command(
            "ssc_approx", ssc, "example_7_4_line", ("--epsilon", "0.4", "--t", "0.9125")
        ),
    ]
    return tuple(cmds)


def _projection_sweep(seed: int) -> tuple[Command, ...]:
    fixture = "irrational_rotation_planar"
    project = ("estimate", "project-boxdim")
    sample = ("--n", "1000000", "--scales", "5..13")
    u = sweep_offset(seed)
    cmds = [Command("boxdim", ("estimate", "boxdim"), "sierpinski_half", ("--n", "1000000"))]
    for k in range(8):
        theta = (k + u) * math.pi / 8.0
        # "--direction=" keeps argparse from reading a negative component as a flag.
        direction = f"--direction={math.cos(theta)!r},{math.sin(theta)!r}"
        cmds.append(Command("project_boxdim", project, fixture, (*sample, direction), focus=True))
    cmds.append(
        Command(
            "project_boxdim",
            project,
            fixture,
            (*sample, "--method", "chaos", "--direction", "1,0", "--seed", str(seed)),
            focus=True,
        )
    )
    cmds.append(
        Command(
            "collapse_sweep",
            ("estimate", "collapse-sweep"),
            fixture,
            ("--t", "0.8", "--scales", "4..10"),
        )
    )
    return tuple(cmds)


def _cylinders() -> tuple[Command, ...]:
    verb = ("estimate", "cylinders")
    return (
        Command(
            "cylinders",
            verb,
            "irrational_rotation_planar",
            ("--angle", "0.5", "--delta", "0.2", "--t", "0.8", "--mass-target", "0.9"),
            focus=True,
        ),
        Command(
            "cylinders",
            verb,
            "c4_rotation",
            ("--angle", "1.5707963267948966", "--delta", "0.2", "--mass-target", "0.9"),
        ),
    )


WHY = {
    "finite-words": "finite groups and exact constructions without sampling: "
    "word enumeration, the graph-directed solver and finite closures",
    "projection-sweep": "only the estimation layer: deterministic and chaos sampling, "
    "then 1-D and 2-D dyadic box counting over a direction sweep",
    "cylinders": "one command, two costs: the infinite closure (irrational) "
    "and the disjointness certificate (c4)",
}

FOCUS = {
    "finite-words": "the dimdrop commands",
    "projection-sweep": "the project-boxdim commands",
    "cylinders": "the cylinders command on irrational_rotation_planar",
}


def workload(name: str, seed: int) -> Workload:
    commands = {
        "finite-words": _finite_words,
        "projection-sweep": lambda: _projection_sweep(seed),
        "cylinders": _cylinders,
    }[name]()
    return Workload(name, WHY[name], FOCUS[name], commands)


WORKLOADS = tuple(WHY)


def check(cmd: Command, report: dict, meta: dict) -> list[str]:
    """Problems with a command's report, judged against the fixture metadata."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    expected = meta.get("expected_sim_dim")
    if cmd.group == "simdim" and expected is not None:
        err = abs(report["similarity_dim"] - expected)
        need(err <= 1e-9, f"similarity_dim off expected_sim_dim by {err:.3e}")
    elif cmd.group == "project_gdifs":
        need(report["row_sum_max_error"] < 1e-9, "row_sum_max_error >= 1e-9")
        err = abs(report["gdifs_sim_dim"] - report["source_sim_dim"])
        need(err <= 1e-8, f"gdifs_sim_dim off source_sim_dim by {err:.3e}")
    elif cmd.group == "dimdrop":
        need(report["s_reduced"] < report["s_original"], "s_reduced >= s_original")
        if cmd.fixture == "sierpinski_half":
            err = abs(report["s_reduced"] - 1.0)
            need(err <= 1e-9, f"s_reduced off 1 by {err:.3e}")
    elif cmd.group == "ssc_approx":
        floor = report["exponent_t"] - float(cmd.option("--epsilon"))
        need(report["subsystem_sim_dim"] >= floor, "subsystem dimension below t - epsilon")
    elif cmd.group == "boxdim":
        err = abs(report["slope"] - expected)
        need(err <= 0.05, f"2-D slope off expected_sim_dim by {err:.3f}")
    elif cmd.group == "project_boxdim":
        slope = report["slope"]
        need(0.70 <= slope <= 0.90, f"projected slope {slope:.4f} outside [0.70, 0.90]")
    elif cmd.group == "collapse_sweep":
        sums = report["covering_sums"]
        need(len(sums) == 7, "expected one covering sum per scale 4..10")
        need(all(math.isfinite(s) and s > 0 for s in sums), "covering sum not positive")
    elif cmd.group == "cylinders":
        need(report["mass"] <= 1.0, f"cylinder mass {report['mass']} exceeds 1")
        if cmd.fixture == "irrational_rotation_planar":
            need(not report["partial"], "irrational selection is partial")
            need(report["mass"] >= 0.9, f"irrational mass {report['mass']} below 0.9")
    return problems


def slope_error(cmd: Command, report: dict, meta: dict) -> float | None:
    """|slope - expected_sim_dim| of a box-counting command, else None."""
    if cmd.group in ("boxdim", "project_boxdim") and "slope" in report:
        return abs(report["slope"] - meta["expected_sim_dim"])
    return None

"""Built-in fixture corpus.

Each builder returns an IfsDocument dictionary; the JSON files shipped with
the package under ``fixtures/`` are generated from these builders and can be
regenerated with ``write_all``.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .documents import ifs_from_document, ifs_to_document
from .geometry import SSIFS
from .groups import planar_rotation

SIERPINSKI_CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]


def _homothety_fixing(r, point):
    """Translation of x -> r x + v with fixed point ``point``."""
    return [(1.0 - r) * c for c in point]


def sierpinski_half() -> dict:
    translations = [_homothety_fixing(0.5, c) for c in SIERPINSKI_CORNERS]
    metadata = {
        "name": "sierpinski_half",
        "expected_sim_dim": math.log(3) / math.log(2),
        "osc_certified": True,
    }
    return ifs_to_document([0.5] * 3, [np.eye(2)] * 3, translations, metadata)


def cantor_third() -> dict:
    metadata = {
        "name": "cantor_third",
        "expected_sim_dim": math.log(2) / math.log(3),
        "osc_certified": True,
    }
    return ifs_to_document([1.0 / 3.0] * 2, [[[1.0]]] * 2, [[0.0], [2.0 / 3.0]], metadata)


def c4_rotation() -> dict:
    # Rotation parts I, rot(90°), rot(180°) generate C4 with two independent
    # cycle steps, so the projection graph stays strongly connected after
    # any single edge deletion.
    rotations = [np.eye(2), planar_rotation(math.pi / 2.0), planar_rotation(math.pi)]
    metadata = {"name": "c4_rotation", "expected_sim_dim": math.log(3) / math.log(2)}
    return ifs_to_document([0.5] * 3, rotations, [[0.0, 0.0], [0.5, 0.0], [0.25, 0.5]], metadata)


def irrational_rotation_planar() -> dict:
    # Three maps with similarity dimension exactly 0.8 (r = 3^(-1/0.8)).
    # Two distinct infinite-order rotations keep the rotation group dense
    # while avoiding repeated rotations among short words, which would
    # create exact overlaps in line projections and bias box-count slopes.
    # Twice the first rotation angle is exactly 0.5, so a two-letter word
    # realizes rot(0.5) exactly.  Translations keep the system strongly
    # separated, so the Hausdorff dimension equals 0.8.
    r = 3.0 ** (-1.25)
    angles = [0.0, 0.25, 0.41]
    fixed_points = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)]
    rotations = [planar_rotation(angle) for angle in angles]
    translations = [(np.eye(2) - r * o) @ np.array(fp) for o, fp in zip(rotations, fixed_points)]
    metadata = {
        "name": "irrational_rotation_planar",
        "expected_sim_dim": 0.8,
        "osc_certified": True,
        "rotation_angles": angles,
    }
    return ifs_to_document([r] * 3, rotations, translations, metadata)


def example_7_2_r4() -> dict:
    # Product construction in R^4: T(x, y) = (T1 x, y) with T1 an
    # infinite-order planar rotation; the second plane carries a Sierpinski
    # triangle, the first a strongly separated triangle of fixed points.
    r = 0.3
    t1 = planar_rotation(1.0)
    rot = np.eye(4)
    rot[:2, :2] = t1
    plane1_fp = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)]
    translations = [
        np.concatenate([(np.eye(2) - r * t1) @ np.array(fp1), (1.0 - r) * np.array(corner)])
        for fp1, corner in zip(plane1_fp, SIERPINSKI_CORNERS)
    ]
    metadata = {
        "name": "example_7_2_r4",
        "expected_sim_dim": math.log(3) / math.log(1.0 / r),
        "osc_certified": True,
    }
    return ifs_to_document([r] * 3, [rot] * 3, translations, metadata)


def example_7_4_line() -> dict:
    # Four maps on the line with exact overlaps; the attractor is a union of
    # two shifted copies of the standard r-Cantor set with three pieces, so
    # its dimension is log 3 / log(1/r) while the similarity dimension of the
    # four-map system is larger.
    r = 0.3
    g = (1.0 - 3.0 * r) / 2.0
    shift = r * (r + g)
    translations = [[0.0], [shift], [r + g], [r + g + shift]]
    metadata = {
        "name": "example_7_4_line",
        "parent_dim": math.log(3) / math.log(1.0 / r),
        "osc_certified": False,
    }
    return ifs_to_document([r] * 4, [[[1.0]]] * 4, translations, metadata)


def example_7_5_plane() -> dict:
    # Four planar maps sharing a finite-order rotation (angle pi/4, order 8),
    # with exact overlaps between the shifted pairs.
    r = 0.3
    g = 1.0 - 3.0 * r
    rot = planar_rotation(math.pi / 4.0)
    width = g + 2.0 * r
    shifted = r * (rot @ np.array([width, 0.0]))
    translations = [[-width, 0.0], [shifted[0] - width, shifted[1]], [0.0, 0.0], shifted]
    metadata = {"name": "example_7_5_plane", "rotation_order": 8}
    return ifs_to_document([r] * 4, [rot] * 4, translations, metadata)


def cantor_pair_r2() -> dict:
    metadata = {
        "name": "cantor_pair_r2",
        "expected_sim_dim": math.log(2) / math.log(3),
        "osc_certified": True,
    }
    translations = [[0.0, 0.0], [2.0 / 3.0, 2.0 / 3.0]]
    return ifs_to_document([1.0 / 3.0] * 2, [np.eye(2)] * 2, translations, metadata)


def degenerate_single_fixed_point() -> dict:
    # Both maps fix 0, so this document cannot be an SSIFS.
    metadata = {"name": "degenerate_single_fixed_point"}
    return ifs_to_document([0.5, 1.0 / 3.0], [[[1.0]]] * 2, [[0.0], [0.0]], metadata)


BUILDERS = {
    "sierpinski_half": sierpinski_half,
    "cantor_third": cantor_third,
    "c4_rotation": c4_rotation,
    "irrational_rotation_planar": irrational_rotation_planar,
    "example_7_2_r4": example_7_2_r4,
    "example_7_4_line": example_7_4_line,
    "example_7_5_plane": example_7_5_plane,
    "cantor_pair_r2": cantor_pair_r2,
    "degenerate_single_fixed_point": degenerate_single_fixed_point,
}


def fixture_document(name: str) -> dict:
    try:
        return BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(BUILDERS)}") from None


def fixture_ifs(name: str) -> SSIFS:
    return ifs_from_document(fixture_document(name))


def fixture_path(name: str) -> Path:
    """Path of the shipped fixture JSON."""
    if name not in BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(BUILDERS)}")
    return Path(resources.files("ifsproj") / "fixtures" / f"{name}.json")


def write_all(directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in BUILDERS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(builder(), indent=2) + "\n")
        written.append(path)
    return written

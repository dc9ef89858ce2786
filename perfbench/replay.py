"""Traced replay of a workload as direct calls into the ifsproj modules.

Each CLI command is replayed as the public calls its handler makes, one span
per call.  A composite call (``find_dimension_drop``, ``box_dim``, ...) is
followed by replays of its main inner steps on the same inputs, recorded as
its children, so that each layer's share can be read by subtraction: a
span's self time is its duration minus the durations of its children.
Nothing inside the package is instrumented.

Each replay returns the report fields the CLI prints for the same command,
so the same checks apply and the counts can be compared with the untraced
pass.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ifsproj import tolerances
from ifsproj.constructions import (
    build_projection_gdifs,
    find_dimension_drop,
    select_disjoint_cylinders,
    ssc_subsystem,
    verify_pairwise_disjoint,
)
from ifsproj.dimension import sim_dim_gdifs, sim_dim_ssifs, sim_dim_words
from ifsproj.documents import load_ifs
from ifsproj.estimation import (
    SamplingMethod,
    box_count,
    box_dim,
    covering_sum_upper_bound,
    default_scales,
    project_cloud,
    sample_attractor,
)
from ifsproj.geometry import (
    DegenerateSystemError,
    LinearMap,
    attractor_bounding_ball,
    cylinder_ball,
)
from ifsproj.groups import group_closure, planar_rotation

LAYERS = ("documents", "groups", "dimension", "geometry", "constructions", "estimation")

TIME_METRICS = (
    "documents.load_ifs_s",
    "groups.closure_finite_s",
    "groups.closure_infinite_s",
    "dimension.gdifs_solve_s",
    "dimension.ssifs_solve_s",
    "geometry.iterate_s",
    "geometry.cylinder_balls_s",
    "constructions.projection_gdifs_s",
    "constructions.dimension_drop_s",
    "constructions.ssc_s",
    "constructions.cylinders_s",
    "constructions.disjoint_certificate_s",
    "estimation.sample_deterministic_s",
    "estimation.sample_chaos_s",
    "estimation.project_s",
    "estimation.box_count_1d_s",
    "estimation.box_count_2d_s",
)

COUNT_METRICS = (
    "groups.closure_elements",
    "dimension.solver_iterations",
    "dimension.gdifs_edges",
    "geometry.words",
    "constructions.cylinder_words",
    "estimation.points",
    "estimation.boxes",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent, command, workload, run."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self.command: dict | None = None

    def _open(self, name: str, parent: dict | None, metric: str | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "metric": metric,
            "parent": None if parent is None else parent["id"],
            "command": None if self.command is None else self.command["name"],
            "workload": self.workload,
            "run": self.run_id,
            "replayed": False,
            "counts": {},
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        return span

    def begin_command(self, label: str) -> None:
        self.command = self._open(label, None)
        self.command["command"] = label

    def end_command(self) -> None:
        self.command["end_ns"] = time.perf_counter_ns()
        self.command = None

    def call(self, name, fn, *args, child_of: dict | None = None, metric=None, **kwargs):
        """Run ``fn`` in a span; returns (result, span).

        ``child_of`` marks the call as a replayed inner step of that span.
        """
        span = self._open(name, child_of or self.command, metric)
        span["replayed"] = child_of is not None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end_ns"] = time.perf_counter_ns()
        return result, span


def _duration(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def _closure(t: Tracer, gens, child_of=None):
    group, span = t.call("groups.group_closure", group_closure, gens, child_of=child_of)
    span["metric"] = "groups.closure_finite_s" if group.is_finite else "groups.closure_infinite_s"
    span["counts"]["groups.closure_elements"] = group.witness_count
    return group


def _ssifs_solve(t: Tracer, ifs, child_of=None):
    report, span = t.call(
        "dimension.sim_dim_ssifs", sim_dim_ssifs, ifs, child_of=child_of,
        metric="dimension.ssifs_solve_s",
    )
    span["counts"]["dimension.solver_iterations"] = report.iterations
    return report


def _gdifs_solve(t: Tracer, g, child_of=None):
    report, span = t.call(
        "dimension.sim_dim_gdifs", sim_dim_gdifs, g, child_of=child_of,
        metric="dimension.gdifs_solve_s",
    )
    span["counts"]["dimension.solver_iterations"] = report.iterations
    span["counts"]["dimension.gdifs_edges"] = len(g.edges)
    return report


def _projection(t: Tracer, ifs, linear_map, child_of=None):
    result, span = t.call(
        "constructions.build_projection_gdifs", build_projection_gdifs, ifs, linear_map,
        child_of=child_of, metric="constructions.projection_gdifs_s",
    )
    _closure(t, [s.rotation for s in ifs], child_of=span)
    _ssifs_solve(t, ifs, child_of=span)
    return result


def _sample(t: Tracer, ifs, cmd):
    chaos = cmd.option("--method") == "chaos"
    method = SamplingMethod.CHAOS_GAME if chaos else SamplingMethod.DETERMINISTIC_DEPTH
    cloud, span = t.call(
        "estimation.sample_attractor", sample_attractor, ifs, int(cmd.option("--n", 10**6)),
        seed=int(cmd.option("--seed", 0)), method=method,
        metric="estimation.sample_chaos_s" if chaos else "estimation.sample_deterministic_s",
    )
    span["counts"]["estimation.points"] = len(cloud)
    return cloud


def _box_count(t: Tracer, points, scale, child_of):
    count, span = t.call(
        "estimation.box_count", box_count, points, scale, child_of=child_of,
        metric=f"estimation.box_count_{points.shape[1]}d_s",
    )
    span["counts"]["estimation.boxes"] = count
    return count


def _direction(cmd) -> LinearMap:
    vec = np.array([float(x) for x in cmd.option("--direction").split(",")])
    return LinearMap((vec / np.linalg.norm(vec))[None, :])


def _ladder(spec: str, diameter: float) -> list[float]:
    coarse, fine = (int(k) for k in spec.split(".."))
    return [diameter * 2.0**-k for k in range(coarse, fine + 1)]


def _box_dim_report(t: Tracer, cloud, scales) -> dict:
    est, span = t.call("estimation.box_dim", box_dim, cloud, scales)
    counts = [_box_count(t, cloud.points, s, span) for s in est.scales]
    if counts != list(est.counts):
        raise AssertionError("box_dim counts differ from direct box_count calls")
    return {"points": len(cloud), "slope": est.slope, "counts": list(est.counts)}


def replay_simdim(t, cmd, ifs, meta):
    report = _ssifs_solve(t, ifs)
    return {"similarity_dim": report.value, "iterations": report.iterations}


def replay_project_gdifs(t, cmd, ifs, meta):
    result = _projection(t, ifs, _direction(cmd))
    g = result.gdifs
    gd = _gdifs_solve(t, g)
    row_sums = g.transition_matrix(result.source_dim).sum(axis=1)
    return {
        "vertices": g.vertex_count,
        "edges": len(g.edges),
        "source_sim_dim": result.source_dim,
        "gdifs_sim_dim": gd.value,
        "row_sum_max_error": float(np.abs(row_sums - 1.0).max()),
    }


def replay_dimdrop(t, cmd, ifs, meta):
    drop, span = t.call(
        "constructions.find_dimension_drop", find_dimension_drop, ifs, int(cmd.option("--l")),
        metric="constructions.dimension_drop_s",
    )
    _closure(t, [s.rotation for s in ifs], child_of=span)
    level = None
    for depth in range(1, len(drop.overlap_witness.word_a) + 1):
        level, it = t.call(
            "geometry.SSIFS.iterate", ifs.iterate, depth, child_of=span,
            metric="geometry.iterate_s",
        )
        it["counts"]["geometry.words"] = len(level)
    _projection(t, level, LinearMap.projection_onto(drop.subspace), child_of=span)
    _ssifs_solve(t, ifs, child_of=span)
    _gdifs_solve(t, drop.dropped_gdifs, child_of=span)
    return {
        "s_original": drop.s_original,
        "s_reduced": drop.s_reduced,
        "witness_word_a": list(drop.overlap_witness.word_a.indices),
        "witness_word_b": list(drop.overlap_witness.word_b.indices),
    }


def replay_ssc_approx(t, cmd, ifs, meta):
    exponent = cmd.option("--t")
    sub, span = t.call(
        "constructions.ssc_subsystem", ssc_subsystem, ifs, float(cmd.option("--epsilon")),
        t=None if exponent is None else float(exponent),
        osc_certified=bool(meta.get("osc_certified")), seed=int(cmd.option("--seed", 0)),
        metric="constructions.ssc_s",
    )
    _ssifs_solve(t, ifs, child_of=span)
    words, ws = t.call(
        "dimension.sim_dim_words", sim_dim_words, ifs, sub.words, child_of=span,
        metric="dimension.ssifs_solve_s",
    )
    ws["counts"]["dimension.solver_iterations"] = words.iterations
    return {
        "exponent_t": sub.exponent,
        "word_count": len(sub.words),
        "subsystem_sim_dim": sub.sim_dim.value,
        "trivial_fallback": sub.trivial_fallback,
    }


def replay_boxdim(t, cmd, ifs, meta):
    cloud = _sample(t, ifs, cmd)
    scales, _ = t.call("estimation.default_scales", default_scales, cloud)
    return _box_dim_report(t, cloud, scales)


def replay_project_boxdim(t, cmd, ifs, meta):
    cloud = _sample(t, ifs, cmd)
    projected, _ = t.call(
        "estimation.project_cloud", project_cloud, cloud, _direction(cmd),
        metric="estimation.project_s",
    )
    return _box_dim_report(t, projected, _ladder(cmd.option("--scales"), cloud.diameter()))


def replay_collapse_sweep(t, cmd, ifs, meta):
    cloud = _sample(t, ifs, cmd)
    projected, _ = t.call(
        "estimation.project_cloud", project_cloud, cloud,
        LinearMap.coordinate_projection(ifs.ambient_dim, 1), metric="estimation.project_s",
    )
    exponent = float(cmd.option("--t"))
    sums = []
    for scale in _ladder(cmd.option("--scales"), cloud.diameter()):
        total, span = t.call(
            "estimation.covering_sum_upper_bound", covering_sum_upper_bound,
            projected, exponent, scale,
        )
        _box_count(t, projected.points, scale, span)
        sums.append(total)
    return {"exponent_t": exponent, "covering_sums": sums}


def replay_cylinders(t, cmd, ifs, meta):
    target = planar_rotation(float(cmd.option("--angle")))
    exponent = cmd.option("--t")
    exponent = _ssifs_solve(t, ifs).value if exponent is None else float(exponent)
    sel, span = t.call(
        "constructions.select_disjoint_cylinders", select_disjoint_cylinders, ifs, target,
        delta=float(cmd.option("--delta")), t=exponent,
        mass_target=float(cmd.option("--mass-target")), depth_cap=12,
        metric="constructions.cylinders_s",
    )
    span["counts"]["constructions.cylinder_words"] = len(sel.words)
    _closure(t, [s.rotation for s in ifs], child_of=span)
    (center, radius), _ = t.call(
        "geometry.attractor_bounding_ball", attractor_bounding_ball, ifs, child_of=span
    )
    # Fresh words, so no composed map is cached from the selection.
    for word in [ifs.word(w.indices) for w in sel.words]:
        t.call(
            "geometry.cylinder_ball", cylinder_ball, word, center, radius, child_of=span,
            metric="geometry.cylinder_balls_s",
        )
    separation = tolerances.TAU_SEP_FACTOR * 2.0 * radius
    dropped, _ = t.call(
        "constructions.verify_pairwise_disjoint", verify_pairwise_disjoint, sel.words,
        center, radius, separation, child_of=span,
        metric="constructions.disjoint_certificate_s",
    )
    if dropped:
        raise AssertionError(f"selected cylinders {sorted(dropped)} fail the certificate")
    return {"mass": sel.mass, "word_count": len(sel.words), "partial": sel.partial}


REPLAYS = {
    "simdim": replay_simdim,
    "project_gdifs": replay_project_gdifs,
    "dimdrop": replay_dimdrop,
    "ssc_approx": replay_ssc_approx,
    "boxdim": replay_boxdim,
    "project_boxdim": replay_project_boxdim,
    "collapse_sweep": replay_collapse_sweep,
    "cylinders": replay_cylinders,
}


def replay(t: Tracer, cmd, fixture_dir: Path, meta: dict) -> tuple[int, dict]:
    """Replay one command; returns (exit code the CLI would give, report)."""
    t.begin_command(cmd.label)
    try:
        try:
            ifs, _ = t.call(
                "documents.load_ifs", load_ifs, fixture_dir / f"{cmd.fixture}.json",
                metric="documents.load_ifs_s",
            )
        except DegenerateSystemError:
            return 3, {}
        return 0, REPLAYS[cmd.group](t, cmd, ifs, meta)
    finally:
        t.end_command()


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced pass.

    Time metrics sum the span durations carrying that metric; counts sum
    the counts recorded on the spans; ``<layer>.self_s`` sums, over the
    spans of a layer, duration minus the durations of replayed children.
    """
    values = {name: 0.0 for name in TIME_METRICS}
    values.update({name: 0 for name in COUNT_METRICS})
    values.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    children: dict[int, float] = {}
    for span in spans:
        if span["replayed"]:
            children[span["parent"]] = children.get(span["parent"], 0.0) + _duration(span)
    for span in spans:
        if span["parent"] is None:
            continue
        if span["metric"] is not None:
            values[span["metric"]] += _duration(span)
        for name, count in span["counts"].items():
            values[name] += count
        layer = span["name"].split(".")[0]
        values[f"{layer}.self_s"] += _duration(span) - children.get(span["id"], 0.0)
    return values


def traced_wall(spans: list[dict]) -> float:
    """Command spans minus the replayed inner steps they contain."""
    commands = sum(_duration(s) for s in spans if s["parent"] is None)
    return commands - sum(_duration(s) for s in spans if s["replayed"])

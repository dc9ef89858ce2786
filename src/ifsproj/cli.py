"""Command line front end.

Exit codes: 0 ok, 2 bad or unreadable input document, 3 degenerate system,
4 structural hypothesis violation (infinite group, not strongly connected),
5 numeric failure, 6 I/O error (an output file or directory cannot be
written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, tolerances
from .constructions import (
    HypothesisViolationError,
    build_projection_gdifs,
    find_dimension_drop,
    select_disjoint_cylinders,
    ssc_subsystem,
)
from .dimension import GdifsStructureError, sim_dim_gdifs, sim_dim_ssifs
from .documents import (
    SchemaError,
    gdifs_to_document,
    load_ifs,
    write_pgm,
    write_points_csv,
    write_scale_count_csv,
)
from .estimation import (
    SamplingMethod,
    box_count,
    box_dim,
    covering_sum_upper_bound,
    default_scales,
    project_cloud,
    sample_attractor,
)
from .geometry import DegenerateSystemError, GeometryError, LinearMap, NumericFailureError
from .groups import planar_rotation

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_HYPOTHESIS = 4
EXIT_NUMERIC = 5
EXIT_IO = 6


def _report_header(args, ifs=None) -> dict:
    profile = tolerances.active_profile()
    header = {
        "tool": "ifsproj",
        "version": __version__,
        "tolerances": {
            "profile": profile.name,
            "tau_num": profile.tau_num,
            "tau_orth": profile.tau_orth,
            "tau_dim": profile.tau_dim,
        },
    }
    if getattr(args, "input", None):
        header["input"] = str(args.input)
    if ifs is not None and ifs.name:
        header["fixture"] = ifs.name
    if getattr(args, "seed", None) is not None:
        header["seed"] = args.seed
    return header


def _emit(args, report: dict) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {value}")


def _parse_scales(spec: str, diameter: float) -> list[float]:
    """Parse "a..b" into the dyadic ladder 2^-a .. 2^-b of the diameter."""
    try:
        a, b = spec.split("..")
        coarse, fine = int(a), int(b)
    except ValueError:
        raise SchemaError(f"bad --scales {spec!r}; expected e.g. 3..10") from None
    if coarse > fine:
        coarse, fine = fine, coarse
    return [diameter * 2.0**-k for k in range(coarse, fine + 1)]


def _linear_map_for(args, d: int) -> LinearMap:
    if getattr(args, "direction", None):
        vec = np.array([float(x) for x in args.direction.split(",")])
        if vec.shape[0] != d:
            raise SchemaError(f"--direction needs {d} components")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise SchemaError("--direction must be nonzero")
        return LinearMap((vec / norm)[None, :])
    l = args.l if getattr(args, "l", None) else 1
    if not 1 <= l <= d:
        raise SchemaError(f"--l must lie in 1..{d}")
    return LinearMap.coordinate_projection(d, l)


def cmd_simdim(args) -> int:
    ifs = load_ifs(args.input)
    report = sim_dim_ssifs(ifs)
    out = _report_header(args, ifs)
    out.update(
        {
            "similarity_dim": report.value,
            "residual": report.residual,
            "iterations": report.iterations,
            "method": report.method.value,
        }
    )
    _emit(args, out)
    return EXIT_OK


def cmd_project_gdifs(args) -> int:
    ifs = load_ifs(args.input)
    result = build_projection_gdifs(ifs, _linear_map_for(args, ifs.ambient_dim))
    g = result.gdifs
    gd_report = sim_dim_gdifs(g)
    a = g.transition_matrix(result.source_dim)
    row_sum_err = float(np.abs(a.sum(axis=1) - 1.0).max())
    out = _report_header(args, ifs)
    out.update(
        {
            "vertices": g.vertex_count,
            "edges": len(g.edges),
            "strongly_connected": True,
            "source_sim_dim": result.source_dim,
            "gdifs_sim_dim": gd_report.value,
            "row_sum_max_error": row_sum_err,
        }
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "projection_gdifs.json"
        path.write_text(json.dumps(gdifs_to_document(g), indent=2) + "\n")
        out["gdifs_document"] = str(path)
    _emit(args, out)
    return EXIT_OK


def cmd_dimdrop(args) -> int:
    ifs = load_ifs(args.input)
    l = args.l if args.l else ifs.ambient_dim - 1
    result = find_dimension_drop(ifs, l)
    out = _report_header(args, ifs)
    out.update(
        {
            "subspace_basis": [list(map(float, col)) for col in result.subspace.basis.T],
            "s_original": result.s_original,
            "s_reduced": result.s_reduced,
            "witness_word_a": list(result.overlap_witness.word_a.indices),
            "witness_word_b": list(result.overlap_witness.word_b.indices),
            "closure_reason": result.group.reason,
            "closure_size": result.group.witness_count,
        }
    )
    _emit(args, out)
    return EXIT_OK


def _estimate_boxdim(args, ifs, out):
    cloud = sample_attractor(ifs, args.n, seed=args.seed, method=_method(args))
    scales = (
        _parse_scales(args.scales, cloud.diameter()) if args.scales else default_scales(cloud)
    )
    est = box_dim(cloud, scales)
    out.update(
        {
            "points": len(cloud),
            "slope": est.slope,
            "r_squared": est.r_squared,
            "scales": list(est.scales),
            "counts": list(est.counts),
        }
    )
    _write_cloud_outputs(args, cloud, est, out)
    return EXIT_OK


def _estimate_project_boxdim(args, ifs, out):
    cloud = sample_attractor(ifs, args.n, seed=args.seed, method=_method(args))
    projected = project_cloud(cloud, _linear_map_for(args, ifs.ambient_dim))
    scales = (
        _parse_scales(args.scales, cloud.diameter())
        if args.scales
        else default_scales(projected)
    )
    est = box_dim(projected, scales)
    out.update(
        {
            "points": len(projected),
            "projected_dim": projected.ambient_dim,
            "slope": est.slope,
            "r_squared": est.r_squared,
            "scales": list(est.scales),
            "counts": list(est.counts),
        }
    )
    _write_cloud_outputs(args, projected, est, out)
    return EXIT_OK


def _estimate_collapse_sweep(args, ifs, out):
    cloud = sample_attractor(ifs, args.n, seed=args.seed, method=_method(args))
    projected = project_cloud(cloud, _linear_map_for(args, ifs.ambient_dim))
    t = args.t if args.t is not None else sim_dim_ssifs(ifs).value
    diam = cloud.diameter()
    scales = _parse_scales(args.scales or "4..10", diam)
    sums = [covering_sum_upper_bound(projected, t, s) for s in scales]
    out.update(
        {
            "exponent_t": t,
            "scales": scales,
            "covering_sums": sums,
            "monotone_decreasing": all(a >= b for a, b in zip(sums, sums[1:])),
        }
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        counts = [box_count(projected.points, s) for s in scales]
        path = out_dir / "collapse_sweep.csv"
        write_scale_count_csv(path, scales, counts)
        out["csv"] = str(path)
    return EXIT_OK


def _estimate_ssc_approx(args, ifs, out):
    osc = bool(
        (json.loads(Path(args.input).read_text()).get("metadata") or {}).get(
            "osc_certified"
        )
    )
    subsystem = ssc_subsystem(
        ifs, args.epsilon, t=args.t, osc_certified=osc, seed=args.seed
    )
    out.update(
        {
            "epsilon": args.epsilon,
            "exponent_t": subsystem.exponent,
            "word_count": len(subsystem.words),
            "subsystem_sim_dim": subsystem.sim_dim.value,
            "trivial_fallback": subsystem.trivial_fallback,
            "words": [list(w.indices) for w in subsystem.words[:50]],
        }
    )
    return EXIT_OK


def _estimate_cylinders(args, ifs, out):
    d = ifs.ambient_dim
    if args.angle is not None:
        if d != 2:
            raise SchemaError("--angle targets need a planar system")
        target = planar_rotation(args.angle)
    else:
        target = np.eye(d)
    t = args.t if args.t is not None else sim_dim_ssifs(ifs).value
    selection = select_disjoint_cylinders(
        ifs,
        target,
        delta=args.delta,
        t=t,
        mass_target=args.mass_target,
        depth_cap=args.depth_cap,
    )
    out.update(
        {
            "delta": selection.delta,
            "exponent_t": selection.exponent,
            "mass": selection.mass,
            "word_count": len(selection.words),
            "partial": selection.partial,
            "depth_cap": selection.depth_cap,
            "closure_reason": selection.group.reason,
            "closure_size": selection.group.witness_count,
        }
    )
    return EXIT_OK


def _method(args) -> SamplingMethod:
    return (
        SamplingMethod.CHAOS_GAME
        if args.method == "chaos"
        else SamplingMethod.DETERMINISTIC_DEPTH
    )


def _write_cloud_outputs(args, cloud, est, out) -> None:
    if not args.out:
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "scale_counts.csv"
    write_scale_count_csv(csv_path, est.scales, est.counts)
    out["csv"] = str(csv_path)
    points_path = out_dir / "points.csv"
    write_points_csv(points_path, cloud.points[:100000])
    out["points_csv"] = str(points_path)
    if cloud.ambient_dim == 2:
        pgm_path = out_dir / "cloud.pgm"
        write_pgm(pgm_path, cloud.points)
        out["pgm"] = str(pgm_path)


ESTIMATE_MODES = {
    "boxdim": _estimate_boxdim,
    "project-boxdim": _estimate_project_boxdim,
    "collapse-sweep": _estimate_collapse_sweep,
    "ssc-approx": _estimate_ssc_approx,
    "cylinders": _estimate_cylinders,
}


def cmd_estimate(args) -> int:
    ifs = load_ifs(args.input)
    out = _report_header(args, ifs)
    out["mode"] = args.mode
    code = ESTIMATE_MODES[args.mode](args, ifs, out)
    _emit(args, out)
    return code


def cmd_fixtures(args) -> int:
    from .fixtures import write_all

    written = write_all(args.out or "fixtures")
    report = _report_header(args)
    report["written"] = [str(p) for p in written]
    _emit(args, report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsproj",
        description="Self-similar and graph-directed IFS constructions and estimators",
    )
    parser.add_argument("--version", action="version", version=f"ifsproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="IfsDocument JSON path")
        p.add_argument("--l", type=int, default=None, help="projection dimension")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scales", default=None, help="dyadic ladder a..b (of the diameter)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", default=None, help="directory for emitted files")

    p = sub.add_parser("simdim", help="similarity dimension of an SS-IFS")
    common(p)
    p.set_defaults(func=cmd_simdim)

    p = sub.add_parser("project-gdifs", help="graph-directed system of a linear image")
    common(p)
    p.add_argument("--direction", default=None, help="projection direction x1,..,xd")
    p.set_defaults(func=cmd_project_gdifs)

    p = sub.add_parser("dimdrop", help="projection subspace with a strict dimension drop")
    common(p)
    p.set_defaults(func=cmd_dimdrop)

    p = sub.add_parser("estimate", help="sampling-based estimators")
    p.add_argument("mode", choices=sorted(ESTIMATE_MODES))
    common(p)
    p.add_argument("--n", type=int, default=10**6, help="sample size")
    p.add_argument("--method", choices=["deterministic", "chaos"], default="deterministic")
    p.add_argument("--direction", default=None, help="projection direction x1,..,xd")
    p.add_argument("--t", type=float, default=None, help="dimension exponent override")
    p.add_argument("--epsilon", type=float, default=0.3, help="ssc-approx dimension slack")
    p.add_argument("--delta", type=float, default=0.2, help="cylinders rotation tolerance")
    p.add_argument("--angle", type=float, default=None, help="cylinders target rotation angle")
    p.add_argument("--mass-target", type=float, default=0.9, dest="mass_target")
    p.add_argument("--depth-cap", type=int, default=12, dest="depth_cap")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fixtures", help="write the fixture corpus")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DegenerateSystemError as exc:
        print(f"degenerate system: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (HypothesisViolationError, GdifsStructureError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NumericFailureError, GeometryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

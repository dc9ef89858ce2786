"""Command line front end.

Each command, and each mode of ``estimate``, has its own parser that
declares only the options its handler reads; any other option exits 2.
``main`` loads the input document, runs the handler, which returns its
report fields, and emits them after the one report header.  The exit codes
are the table in the README's CLI section.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    document_metadata,
    gdifs_to_document,
    ifs_from_document,
    load_document,
    write_pgm,
    write_points_csv,
    write_scale_count_csv,
)
from .estimation import (
    SamplingMethod,
    box_dim,
    covering_sums,
    default_scales,
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

# Largest --n: ten times the largest sample that any benchmark workload,
# README example or test draws, and far below what exhausts memory.
MAX_SAMPLE_SIZE = 10**7


def _report_header(args, ifs, profile: tolerances.ToleranceProfile) -> dict:
    """The fields that open every report: the tool, version and tolerances,
    then the input and fixture of a command that takes --input, the seed of
    one that takes --seed and the mode of an estimate."""
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
    if ifs is not None:
        header["input"] = str(args.input)
        if ifs.name:
            header["fixture"] = ifs.name
    for key in ("seed", "mode"):
        if key in args:
            header[key] = getattr(args, key)
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
    """Parse "a..b" into the dyadic ladder 2^-a .. 2^-b of the diameter.

    Both ends are checked before the ladder is built, so a ladder that
    leaves the positive finite floats fails at once, however long it is.
    """
    try:
        a, b = spec.split("..")
        coarse, fine = int(a), int(b)
    except ValueError:
        raise SchemaError(f"bad --scales {spec!r}; expected e.g. 3..10") from None
    if coarse > fine:
        coarse, fine = fine, coarse
    try:
        ends = [diameter * 2.0**-k for k in (coarse, fine)]
    except OverflowError:  # 2.0**k for k above 1023
        ends = [math.inf]
    if not all(0.0 < s < math.inf for s in ends):
        raise NumericFailureError(
            f"--scales {spec!r} of diameter {diameter:g} reaches a scale "
            "that is zero or not finite"
        )
    return [diameter * 2.0**-k for k in range(coarse, fine + 1)]


def _projection_dim(args, largest: int, default: int) -> int:
    if args.l is None:
        return default
    if not 1 <= args.l <= largest:
        raise SchemaError(f"--l must lie in 1..{largest}")
    return args.l


def _linear_map_for(args, d: int) -> LinearMap:
    if args.direction is not None:
        if args.l is not None:
            raise SchemaError("--direction and --l exclude each other")
        try:
            vec = np.array([float(x) for x in args.direction.split(",")])
        except ValueError:
            raise SchemaError(f"bad --direction {args.direction!r}; expected x1,..,xd") from None
        if vec.shape[0] != d:
            raise SchemaError(f"--direction needs {d} components")
        norm = np.linalg.norm(vec)
        if norm == 0 or not np.isfinite(vec).all():
            raise SchemaError("--direction must be finite and nonzero")
        return LinearMap((vec / norm)[None, :])
    return LinearMap.coordinate_projection(d, _projection_dim(args, d, 1))


def _box_scales(args, cloud) -> list[float]:
    """The --scales ladder of the diameter of the sample before any
    projection, else the default ladder of the counted cloud."""
    if args.scales is None:
        return default_scales(cloud)
    return _parse_scales(args.scales, cloud.sample_diameter())


def _sample(args, ifs, linear_map=None):
    method = (
        SamplingMethod.CHAOS_GAME
        if args.method == "chaos"
        else SamplingMethod.DETERMINISTIC_DEPTH
    )
    return sample_attractor(ifs, args.n, seed=args.seed, method=method, linear_map=linear_map)


def _out_dir(args) -> Path:
    """The --out directory, created if it is missing."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# Each handler takes the parsed arguments, the input system and the input
# document's metadata (None for fixtures), and returns its report fields
# in report order.


def cmd_simdim(args, ifs, metadata) -> dict:
    report = sim_dim_ssifs(ifs)
    return {
        "similarity_dim": report.value,
        "residual": report.residual,
        "iterations": report.iterations,
        "method": report.method.value,
    }


def cmd_project_gdifs(args, ifs, metadata) -> dict:
    result = build_projection_gdifs(ifs, _linear_map_for(args, ifs.ambient_dim))
    g = result.gdifs
    gd_report = sim_dim_gdifs(g)
    a = g.transition_matrix(result.source_dim)
    row_sum_err = float(np.abs(a.sum(axis=1) - 1.0).max())
    fields = {
        "vertices": g.vertex_count,
        "edges": len(g.source),
        "strongly_connected": True,
        "source_sim_dim": result.source_dim,
        "gdifs_sim_dim": gd_report.value,
        "row_sum_max_error": row_sum_err,
    }
    if args.out:
        path = _out_dir(args) / "projection_gdifs.json"
        path.write_text(json.dumps(gdifs_to_document(g), indent=2) + "\n")
        fields["gdifs_document"] = str(path)
    return fields


def cmd_dimdrop(args, ifs, metadata) -> dict:
    d = ifs.ambient_dim
    result = find_dimension_drop(ifs, _projection_dim(args, d - 1, d - 1))
    return {
        "subspace_basis": [list(map(float, col)) for col in result.subspace.basis.T],
        "s_original": result.s_original,
        "s_reduced": result.s_reduced,
        "witness_word_a": list(result.overlap_witness.word_a.indices),
        "witness_word_b": list(result.overlap_witness.word_b.indices),
        "closure_reason": result.group.reason,
        "closure_size": result.group.witness_count,
    }


def _box_dim_fields(args, counted, scales) -> dict:
    est = box_dim(counted, scales)
    fields = {
        "slope": est.slope,
        "r_squared": est.r_squared,
        "scales": list(est.scales),
        "counts": list(est.counts),
    }
    if args.out:
        out_dir = _out_dir(args)
        csv_path = out_dir / "scale_counts.csv"
        write_scale_count_csv(csv_path, est.scales, est.counts)
        fields["csv"] = str(csv_path)
        points_path = out_dir / "points.csv"
        write_points_csv(points_path, counted.points[:100000])
        fields["points_csv"] = str(points_path)
        if counted.ambient_dim == 2:
            pgm_path = out_dir / "cloud.pgm"
            write_pgm(pgm_path, counted.points, bounds=counted._bounds)
            fields["pgm"] = str(pgm_path)
    return fields


def cmd_boxdim(args, ifs, metadata) -> dict:
    cloud = _sample(args, ifs)
    return {"points": len(cloud), **_box_dim_fields(args, cloud, _box_scales(args, cloud))}


def cmd_project_boxdim(args, ifs, metadata) -> dict:
    projected = _sample(args, ifs, _linear_map_for(args, ifs.ambient_dim))
    return {
        "points": len(projected),
        "projected_dim": projected.ambient_dim,
        **_box_dim_fields(args, projected, _box_scales(args, projected)),
    }


def cmd_collapse_sweep(args, ifs, metadata) -> dict:
    projected = _sample(args, ifs, _linear_map_for(args, ifs.ambient_dim))
    t = args.t if args.t is not None else sim_dim_ssifs(ifs).value
    scales = _parse_scales(args.scales, projected.sample_diameter())
    counts, sums = covering_sums(projected, t, scales)
    fields = {
        "exponent_t": t,
        "scales": scales,
        "covering_sums": sums,
        "monotone_decreasing": all(a >= b for a, b in zip(sums, sums[1:])),
    }
    if args.out:
        path = _out_dir(args) / "collapse_sweep.csv"
        write_scale_count_csv(path, scales, counts)
        fields["csv"] = str(path)
    return fields


def cmd_ssc_approx(args, ifs, metadata) -> dict:
    osc = bool(metadata.get("osc_certified"))
    subsystem = ssc_subsystem(ifs, args.epsilon, t=args.t, osc_certified=osc, seed=args.seed)
    return {
        "epsilon": args.epsilon,
        "exponent_t": subsystem.exponent,
        "word_count": len(subsystem.words),
        "subsystem_sim_dim": subsystem.sim_dim.value,
        "trivial_fallback": subsystem.trivial_fallback,
        "words": [list(w.indices) for w in subsystem.words[:50]],
    }


def cmd_cylinders(args, ifs, metadata) -> dict:
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
    return {
        "delta": selection.delta,
        "exponent_t": selection.exponent,
        "mass": selection.mass,
        "word_count": len(selection.words),
        "partial": selection.partial,
        "dropped_words": selection.dropped_words,
        "depth_cap": selection.depth_cap,
        "closure_reason": selection.group.reason,
        "closure_size": selection.group.witness_count,
    }


def cmd_fixtures(args, ifs, metadata) -> dict:
    from .fixtures import write_all

    return {"written": [str(p) for p in write_all(args.out)]}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line (and exit 2)."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _directory(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def _sample_size(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not 1 <= n <= MAX_SAMPLE_SIZE:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_SAMPLE_SIZE}, got {n}")
    return n


# The argparse keywords of every option.  Each command declares, by flag,
# only the options its handler reads.
_OPTIONS = {
    "--input": dict(required=True, help="IfsDocument JSON path"),
    "--l": dict(type=int, help="projection dimension"),
    "--direction": dict(help="projection direction x1,..,xd"),
    "--n": dict(type=_sample_size, default=10**6, help="sample size"),
    "--seed": dict(type=_seed, default=0),
    "--method": dict(choices=["deterministic", "chaos"], default="deterministic"),
    "--scales": dict(
        help="dyadic ladder a..b: 2^-a .. 2^-b of the diameter of the sample, before any "
        "projection (unset: 3..10 of the diameter of the counted cloud, which for "
        "project-boxdim is the projected one)"
    ),
    "--t": dict(type=float, help="dimension exponent override"),
    "--epsilon": dict(type=float, default=0.3, help="dimension slack"),
    "--delta": dict(type=float, default=0.2, help="rotation tolerance"),
    "--angle": dict(type=float, help="target rotation angle"),
    "--mass-target": dict(type=float, default=0.9, help="mass the selection should reach"),
    "--depth-cap": dict(type=int, default=12, help="longest word searched"),
    "--out": dict(type=_directory, help="directory for emitted files"),
    "--json": dict(action="store_true", help="machine-readable output"),
}
_SAMPLING = ("--n", "--seed", "--method")
_PROJECTION = ("--l", "--direction")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifsproj",
        description="Self-similar and graph-directed IFS constructions and estimators",
    )
    parser.add_argument("--version", action="version", version=f"ifsproj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, func, help, *flags, **defaults):
        p = group.add_parser(name, help=help)
        for flag in (*flags, "--json"):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func, **defaults)

    command(sub, "simdim", cmd_simdim, "similarity dimension of an SS-IFS", "--input")
    command(
        sub, "project-gdifs", cmd_project_gdifs, "graph-directed system of a linear image",
        "--input", *_PROJECTION, "--out",
    )
    command(
        sub, "dimdrop", cmd_dimdrop, "projection subspace with a strict dimension drop",
        "--input", "--l",
    )
    estimate = sub.add_parser("estimate", help="sampling-based estimators")
    modes = estimate.add_subparsers(dest="mode", required=True)
    command(
        modes, "boxdim", cmd_boxdim, "box dimension of a sample",
        "--input", *_SAMPLING, "--scales", "--out",
    )
    command(
        modes, "project-boxdim", cmd_project_boxdim, "box dimension of a projected sample",
        "--input", *_SAMPLING, *_PROJECTION, "--scales", "--out",
    )
    command(
        modes, "collapse-sweep", cmd_collapse_sweep, "covering sums of a projected sample",
        "--input", *_SAMPLING, *_PROJECTION, "--t", "--scales", "--out", scales="4..10",
    )
    command(
        modes, "ssc-approx", cmd_ssc_approx, "strongly separated subsystem",
        "--input", "--epsilon", "--t", "--seed",
    )
    command(
        modes, "cylinders", cmd_cylinders, "disjoint cylinders with a rotation target",
        "--input", "--angle", "--delta", "--t", "--mass-target", "--depth-cap",
    )
    command(sub, "fixtures", cmd_fixtures, "write the fixture corpus", "--out", out="fixtures")
    return parser


@functools.cache
def _process_parser() -> argparse.ArgumentParser:
    """The parser that main reuses: building it takes longer than a small
    command runs, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _process_parser().parse_args(argv)
    try:
        profile = tolerances.active_profile()
    except ValueError as exc:
        print(f"ifsproj: error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        ifs = metadata = None
        if "input" in args:
            doc = load_document(args.input)
            ifs, metadata = ifs_from_document(doc), document_metadata(doc)
        fields = args.func(args, ifs, metadata)
        _emit(args, {**_report_header(args, ifs, profile), **fields})
        return EXIT_OK
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

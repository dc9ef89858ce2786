"""Benchmark of the ifsproj command line over three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload finite-words --seed 1 --seconds 20 --trace 0

The commands of a workload are issued in-process through
``ifsproj.cli.main([..., "--json"])``, one at a time (a closed loop with one
client).  A pass runs every command once; passes repeat until ``--seconds``
have elapsed and each timing is the median over passes.  Every exit code
and JSON report is checked.  With ``--trace 1`` the run makes one untraced
pass and then replays the workload as direct, traced calls into the modules
(see ``replay.py``) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the provenance, the per-command timings and, when traced, the spans is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc), fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    HOLDOUT_SEED,
    WORKLOADS,
    check,
    slope_error,
    sweep_offset,
    workload,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

# Start a fresh interpreter, import the CLI and write the fixture corpus.
SETUP_SCRIPT = """
import contextlib, io, sys
from ifsproj.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["fixtures", "--out", sys.argv[1], "--json"])
sys.exit(code)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(work: Path) -> list[float]:
    """Wall time of process start, imports and ``ifsproj fixtures --out``."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    samples = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(work / f"setup-{i}")],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        samples.append(time.perf_counter() - start)
    return samples


def run_command(main, cmd, fixture_dir: Path, meta: dict) -> dict:
    """Run one CLI command in-process; returns its timing, report and problems."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cmd.argv(fixture_dir))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    result = {"command": cmd.label, "group": cmd.group, "seconds": elapsed, "exit_code": code}
    problems = []
    if code != cmd.exit_code:
        stderr = err.getvalue().strip()[-300:]
        problems.append(f"exit code {code}, expected {cmd.exit_code}: {stderr}")
    elif code == 0:
        try:
            report = json.loads(out.getvalue())
            problems += check(cmd, report, meta[cmd.fixture])
            result["report"] = report
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
    result["problems"] = problems
    return result


def run_pass(main, wl, fixture_dir: Path, meta: dict) -> dict:
    gc.collect()
    results = [run_command(main, cmd, fixture_dir, meta) for cmd in wl.commands]
    groups: dict[str, float] = {}
    for cmd, r in zip(wl.commands, results):
        groups[cmd.group] = groups.get(cmd.group, 0.0) + r["seconds"]
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "focus_s": sum(r["seconds"] for cmd, r in zip(wl.commands, results) if cmd.focus),
        "groups_s": groups,
        "commands": results,
    }


def quality(wl, pass_: dict, meta: dict) -> dict:
    """failed_ratio, and slope_err / cylinder_mass where the workload has them."""
    commands = list(zip(wl.commands, pass_["commands"]))
    failed = sum(bool(r["problems"]) for _, r in commands)
    values = {"failed_ratio": failed / len(commands)}
    errors = [
        slope_error(cmd, r["report"], meta[cmd.fixture])
        for cmd, r in commands
        if "report" in r
    ]
    errors = [e for e in errors if e is not None]
    if errors:
        values["slope_err"] = max(errors)
    masses = [
        r["report"]["mass"] for cmd, r in commands if cmd.group == "cylinders" and "report" in r
    ]
    if masses:
        values["cylinder_mass"] = sum(masses)
    return values


def traced_pass(wl, fixture_dir: Path, meta: dict, untraced: dict, run_id: str):
    """Replay the workload with tracing; returns (tracer, problems per command)."""
    import replay  # imports ifsproj, so only once SRC is on sys.path

    tracer = replay.Tracer(wl.name, run_id)
    gc.collect()
    problems = []
    for cmd, cli in zip(wl.commands, untraced["commands"]):
        try:
            code, report = replay.replay(tracer, cmd, fixture_dir, meta[cmd.fixture])
        except Exception:
            problems.append((cmd.label, [traceback.format_exc(limit=3)]))
            continue
        found = []
        if code != cmd.exit_code:
            found.append(f"replay exit code {code}, expected {cmd.exit_code}")
        elif code == 0:
            found += check(cmd, report, meta[cmd.fixture])
            cli_report = cli.get("report", {})
            found += [
                f"replay {key}={report[key]!r} differs from the CLI {cli_report[key]!r}"
                for key in sorted(report.keys() & cli_report.keys())
                if report[key] != cli_report[key]
            ]
        if found:
            problems.append((cmd.label, found))
    return tracer, problems


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, wl) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "workload": wl.name,
        "why": wl.why,
        "focus": wl.focus,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "sweep_offset_u": sweep_offset(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [cmd.label for cmd in wl.commands],
    }


def measure(args, wl, work: Path) -> dict:
    """Set up, run the passes and, when traced, the replay; returns the record."""
    setup = measure_setup(work)
    from ifsproj.cli import main as cli_main

    fixture_dir = work / "fixtures"
    with contextlib.redirect_stdout(io.StringIO()):
        if cli_main(["fixtures", "--out", str(fixture_dir), "--json"]) != 0:
            raise RuntimeError("ifsproj fixtures failed")
    meta = {
        path.stem: json.loads(path.read_text()).get("metadata") or {}
        for path in fixture_dir.glob("*.json")
    }

    start = time.perf_counter()
    passes = [run_pass(cli_main, wl, fixture_dir, meta)]
    # Read after the first pass, so the figure does not depend on how many fit.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli_main, wl, fixture_dir, meta))
    problems = [
        (r["command"], r["problems"]) for p in passes for r in p["commands"] if r["problems"]
    ]
    record = {
        "provenance": provenance(args, wl),
        "setup_samples_s": setup,
        "attempted": sum(len(p["commands"]) for p in passes),
        "passes": passes,
    }
    if args.trace:
        import replay  # imports ifsproj, so only once SRC is on sys.path

        run_id = f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
        tracer, replay_problems = traced_pass(wl, fixture_dir, meta, passes[0], run_id)
        problems += replay_problems
        record["attempted"] += len(wl.commands)
        layers = replay.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = replay.traced_wall(tracer.spans) - passes[0]["wall_s"]
        record["metrics"] = {
            name: _metric(value, "count" if name in replay.COUNT_METRICS else "s")
            for name, value in layers.items()
        }
        record["spans"] = tracer.spans
    else:
        record["metrics"] = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "focus_s": _metric(statistics.median(p["focus_s"] for p in passes), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        record["report"] = {
            f"{group}_s": _metric(statistics.median(p["groups_s"][group] for p in passes), "s")
            for group in passes[0]["groups_s"]
        }
        for name, value in quality(wl, passes[-1], meta).items():
            record["report"][name] = _metric(value, "1")
    record["problems"] = problems
    return record


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ifsproj" / "cli.py").is_file():
        print(f"no ifsproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workload(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        record = measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    path = OUT / f"{wl.name}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    problems = record["problems"]
    for label, found in problems:
        print(f"FAILED {label}: {'; '.join(found)}")
    passes = len(record["passes"])
    print(f"{wl.name} seed {args.seed}: {passes} passes, results in {path.relative_to(ROOT)}")
    for name, m in {**record["metrics"], **record.get("report", {})}.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": len(problems),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

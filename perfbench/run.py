"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload highdim --seed 0 --seconds 50 --trace 0

Runs whole passes over the workload's solver runs for about `--seconds`
seconds, checks every run's output, and prints each metric with its unit.
The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, which holds the end-to-end metrics with `--trace 0` and
the per-layer metrics with `--trace 1`.  A traced run alternates
untraced and traced passes, so it also yields trace.overhead_frac and
checks that tracing leaves every result unchanged.

A full report (environment, every metric, result rows, digests) goes to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json, and a traced run's
spans to perfbench/out/<workload>-seed<seed>-spans.csv.  The exit code
is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import hermiteopt
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import hermiteopt from {ROOT / 'src'}: {exc}")
if not Path(hermiteopt.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: hermiteopt was imported from {hermiteopt.__file__}, not {ROOT / 'src'}")

import numpy as np  # noqa: E402
from hermiteopt.bench import RESULT_COLUMNS  # noqa: E402

from measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Pass,
    end_to_end,
    format_row,
    outcome,
    per_layer,
    results_digest,
    run_passes,
)
from workloads import WORKLOADS  # noqa: E402

OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
# set-up is timed this many times before the passes and as many after;
# the median is reported
SETUP_PROBES = 6


def measure_setup(workload: str, seed: int) -> list[float]:
    """Times from starting a fresh interpreter until it has built the
    workload's specs, one per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
    return times


def environment(load_at_start: tuple[float, float, float]) -> dict:
    """What the timings depend on, as observed in this process."""
    env: dict = {
        "git_sha": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(load_at_start),
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        env["git_sha"] = sha.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        env["blas"] = None
    try:
        status = Path("/proc/self/status").read_text()
        env["process_threads"] = int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        env["process_threads"] = None
    return env


def reference_digest(workload: str, seed: int) -> str | None:
    references = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return references.get(workload, {}).get(str(seed))


def check_repeats(passes: list[Pass]) -> None:
    """Every pass, traced or not, must reproduce the first pass's rows."""
    first = [format_row(r.row) for r in passes[0].runs]
    for p in passes[1:]:
        for run, expected in zip(p.runs, first):
            if format_row(run.row) != expected:
                mode = "traced" if p.traced else "untraced"
                run.problems.append(f"{mode} repeat changed the result row")


def write_spans(path: Path, passes: list[Pass]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "name", "start", "end", "parent", "run", "error"))
        for p in passes:
            writer.writerows(p.spans)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # probes on both sides of the passes, so that setup_s samples the
    # machine's speed over the whole run and not just its first seconds
    setup_probes = measure_setup(args.workload, args.seed)
    jobs = WORKLOADS[args.workload](args.seed)
    untraced, traced = run_passes(jobs, args.seconds, bool(args.trace))
    setup_probes += measure_setup(args.workload, args.seed)
    passes = untraced + traced
    check_repeats(passes)

    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.problems]
    digest = results_digest(r.row for r in untraced[0].runs)
    reference = reference_digest(args.workload, args.seed)
    match = None if reference is None else reference == digest

    gated = {"setup_s": statistics.median(setup_probes), **end_to_end(untraced)}
    gated["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        **outcome(untraced),
        "failed_frac": len(failed) / len(runs),
        "passes": len(untraced),
        "traced_passes": len(traced),
    }
    units = {
        **END_TO_END,
        **PER_LAYER,
        "iterations": "count",
        "solved_frac": "ratio",
        "yield_final": "ratio",
        "failed_frac": "ratio",
        "passes": "count",
        "traced_passes": "count",
    }
    if args.trace:
        reported, extra = per_layer(untraced, traced), {**gated, **info}
    else:
        reported, extra = gated, info

    for name, value in {**extra, **reported}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<44} {shown:>14} {units[name]}")
    print(f"{'results_digest':<44} {digest}")
    print(f"{'results_match':<44} {'no reference' if match is None else match}")
    for run in failed:
        case = run.job.case
        print(f"FAILED {case.problem} {case.kind.value} mask={case.mask} seed={case.seed}: "
              + "; ".join(run.problems))

    env = environment(load_at_start)
    print(f"{'environment':<44} {json.dumps(env)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in {**extra, **reported}.items()},
        "setup_probes_s": setup_probes,
        "pass_wall_s": {
            "untraced": [sum(r.wall for r in p.runs) for p in untraced],
            "traced": [sum(r.wall for r in p.runs) for p in traced],
        },
        "results_digest": digest,
        "results_match": match,
        "columns": list(RESULT_COLUMNS),
        "rows": [format_row(r.row) for r in untraced[0].runs],
        "failures": [{"case": repr(r.job.case), "problems": r.problems} for r in failed],
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.csv", traced)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

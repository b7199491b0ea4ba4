"""Run workload jobs through `hermiteopt.bench`, timed, traced and checked.

Each job runs through `hermiteopt.bench._run_case`, so its spec, config
and result row are exactly those of `hermiteopt run`.  The call into
`hermiteopt.run` is intercepted to wrap the spec's oracle callables and
time the solve.  An untraced pass times only `driver.step_iteration`,
`driver.evaluate` (to count successful returns) and the oracles; a
traced pass adds a span at every layer boundary `hermiteopt.driver` crosses.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np
from hermiteopt import bench, driver
from hermiteopt.basis import MonomialBasis
from hermiteopt.poisedness import Region
from hermiteopt.problem import TrainingSet

from probes import Recorder, Span, self_times
from workloads import Job

# names `hermiteopt.driver` looks up as module globals on every call, so replacing
# them in `hermiteopt.driver` reaches every call site
UNTRACED_SPANS = {
    "step_iteration": "driver.step_iteration",
    "evaluate": "problem.evaluate",
}
TRACED_SPANS = {
    **UNTRACED_SPANS,
    "initialize": "driver.initialize",
    "assemble_full_interp": "models.assemble",
    "assemble_min_frob": "models.assemble",
    "assemble_hermite_ls": "models.assemble",
    "assemble_hermite_bobyqa": "models.assemble",
    "apply_scaling": "models.apply_scaling",
    "solve_system": "models.solve_system",
    "lagrange_family": "poisedness.lagrange_family",
    "estimate_lambda": "poisedness.estimate_lambda",
    "propose_geometry_point": "poisedness.propose_geometry_point",
    "select_outgoing": "poisedness.select_outgoing",
    "solve_subproblem": "subproblem.solve_subproblem",
}
METHOD_SPANS = (
    (Region, "sample", "poisedness.region_sample"),
    (TrainingSet, "replace", "problem.training_set_replace"),
    (MonomialBasis, "value_row", "basis.value_row"),
    (MonomialBasis, "derivative_row", "basis.derivative_row"),
)
# ObjectiveSpec field -> span name
ORACLES = {
    "value": "oracle.value",
    "derivative": "oracle.derivative",
    "second_derivative": "oracle.second",
}
LAMBDA_THRESHOLD = driver.SolverConfig().lambda_threshold

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "iter_ms.p50": "ms",
    "iter_ms.p99": "ms",
    "solver_ms_per_eval": "ms",
    "evaluations": "count",
    "peak_rss_mb": "MB",
}
_TIMED_LAYERS = (
    "poisedness.estimate_lambda",
    "poisedness.propose_geometry_point",
    "poisedness.region_sample",
    "poisedness.lagrange_family",
    "poisedness.select_outgoing",
    "models.assemble",
    "models.apply_scaling",
    "models.solve_system",
    "subproblem.solve_subproblem",
    "problem.training_set_replace",
    "problem.evaluate",
)
PER_LAYER = {
    **{f"{name}.{part}": unit for name in _TIMED_LAYERS for part, unit in (("calls", "count"), ("self_s", "s"))},
    "poisedness.lambda_over_threshold_frac": "ratio",
    "models.rank_deficient_frac": "ratio",
    "basis.value_row.calls": "count",
    "basis.derivative_row.calls": "count",
    "driver.step_iteration.self_s": "s",
    **{f"{name}.{part}": unit for name in ORACLES.values() for part, unit in (("calls", "count"), ("s", "s"))},
    "oracle.derivative_calls_per_eval": "count/eval",
    "trace.overhead_frac": "ratio",
}


@dataclass
class JobRun:
    """One solver run of a pass, with what the output checks found."""

    job: Job
    row: dict | None  # bench.RESULT_COLUMNS row; None when the run raised
    wall: float
    cpu: float
    oracle_s: float
    evaluations: int
    iterations: int
    latencies: list[float]
    problems: list[str]


@dataclass
class Pass:
    """Every job of a workload, run once."""

    traced: bool
    runs: list[JobRun]
    spans: list[Span]
    lambda_over_threshold: int


def format_row(row: dict | None) -> list[str]:
    """A result row as `hermiteopt run` writes it to CSV."""
    if row is None:
        return ["<raised>"]
    return [bench._fmt(row[c]) for c in bench.RESULT_COLUMNS]


def results_digest(rows) -> str:
    """SHA-256 of the results CSV `hermiteopt run` would write for the rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(bench.RESULT_COLUMNS)
    writer.writerows(format_row(row) for row in rows)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


class _SolveProbe:
    """Stands in for `hermiteopt.bench.run`: wraps the spec's oracles,
    times the real solve and keeps what the checks need."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.solve = rec.wrap("driver.run", driver.run)
        self.reset()

    def reset(self) -> None:
        self.spec = self.result = None
        self.wall = self.cpu = 0.0

    def __call__(self, spec, x0, config):
        oracles = {
            attr: self.rec.wrap(name, getattr(spec, attr))
            for attr, name in ORACLES.items()
            if getattr(spec, attr) is not None
        }
        self.spec = replace(spec, **oracles)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            self.result = self.solve(self.spec, x0, config)
        finally:
            self.wall = time.perf_counter() - wall0
            self.cpu = time.process_time() - cpu0
        return self.result


def check_run(job: Job, entry, spec, result, evaluate_returns: int) -> list[str]:
    """Output checks for one finished run; an empty list means it passed."""
    problems = []
    if result.evaluations > job.plan.budget:
        problems.append(f"{result.evaluations} evaluations exceed the budget {job.plan.budget}")
    if evaluate_returns != result.evaluations:
        problems.append(
            f"evaluate returned {evaluate_returns} times for {result.evaluations} billed evaluations"
        )
    if result.x_best is None or not spec.bounds.contains(result.x_best):
        problems.append(f"x_best {result.x_best} lies outside the bounds")
    elif entry.f_ref is not None and job.plan.noise == "none":
        f_true = entry.reference_value(result.x_best)
        if result.f_best != f_true:
            problems.append(f"f_best {result.f_best!r} differs from f(x_best) {f_true!r}")
    return problems


def _run_job(job: Job, entry, rec: Recorder, probe: _SolveProbe) -> JobRun:
    probe.reset()
    rec.take()
    row, problems = None, []
    try:
        row = bench._run_case(job.case, job.plan, entry)
    except Exception as exc:  # a failing run is counted, and the workload goes on
        traceback.print_exc()
        problems.append(f"raised {type(exc).__name__}: {exc}")
    durations, errors = rec.take()
    result = probe.result
    evaluations = iterations = 0
    if result is not None:
        evaluations, iterations = result.evaluations, result.iterations
        returns = len(durations.get("problem.evaluate", ())) - errors["problem.evaluate"]
        problems += check_run(job, entry, probe.spec, result, returns)
    return JobRun(
        job=job,
        row=row,
        wall=probe.wall,
        cpu=probe.cpu,
        oracle_s=sum(sum(durations.get(name, ())) for name in ORACLES.values()),
        evaluations=evaluations,
        iterations=iterations,
        latencies=durations.get("driver.step_iteration", []),
        problems=problems,
    )


def run_pass(jobs: list[Job], traced: bool, first_run_id: int = 0) -> Pass:
    """Run every job once; all wrappers are removed again on return."""
    cases = bench.registry()
    over = 0

    def count_over(estimate) -> None:
        nonlocal over
        over += estimate.lam > LAMBDA_THRESHOLD

    with Recorder(spans=traced) as rec:
        for attr, name in (TRACED_SPANS if traced else UNTRACED_SPANS).items():
            rec.patch(driver, attr, name, count_over if attr == "estimate_lambda" else None)
        if traced:
            for owner, attr, name in METHOD_SPANS:
                rec.patch(owner, attr, name)
        probe = _SolveProbe(rec)
        rec.substitute(bench, "run", probe)
        runs = []
        for k, job in enumerate(jobs):
            rec.run = first_run_id + k
            runs.append(_run_job(job, cases[job.case.problem], rec, probe))
    return Pass(traced, runs, rec.spans, over)


def _joined(passes: list[Pass]) -> Pass:
    return Pass(
        traced=passes[0].traced,
        runs=[r for p in passes for r in p.runs],
        spans=[s for p in passes for s in p.spans],
        lambda_over_threshold=sum(p.lambda_over_threshold for p in passes),
    )


def run_passes(jobs: list[Job], seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, each paired with a traced one when `trace`, until
    another round would overrun `seconds`; at least one round runs.

    A traced round runs every job untraced and then traced, so that a
    drift in machine speed falls on both sides of trace.overhead_frac.
    """
    untraced: list[Pass] = []
    traced: list[Pass] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_id = (len(untraced) + len(traced)) * len(jobs)
        if trace:
            pairs = [
                (run_pass([job], False, run_id + 2 * k), run_pass([job], True, run_id + 2 * k + 1))
                for k, job in enumerate(jobs)
            ]
            untraced.append(_joined([plain for plain, _ in pairs]))
            traced.append(_joined([spanned for _, spanned in pairs]))
        else:
            untraced.append(run_pass(jobs, False, run_id))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - start + statistics.median(rounds) > seconds:
            return untraced, traced


def _sum_of_medians(passes: list[Pass], value) -> float:
    """Per job, the median over passes; summed over jobs."""
    return sum(
        statistics.median(value(p.runs[k]) for p in passes) for k in range(len(passes[0].runs))
    )


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics of untraced passes, except setup_s and peak_rss_mb.

    iter_ms.p50 is the mean over runs of each run's median iteration
    latency.  The pooled median is not used: pooled latencies are
    multimodal (one mode per kind of model), the pooled median can sit
    in a gap between modes, and a small change in how many iterations
    fall on either side then moves it by 20-30%.  iter_ms.p99 pools
    every iteration of every pass.
    """
    evaluations = sum(r.evaluations for r in passes[0].runs)
    per_run = [[x for p in passes for x in p.runs[k].latencies] for k in range(len(passes[0].runs))]
    pooled = [x for latencies in per_run for x in latencies]
    run_medians = [statistics.median(latencies) for latencies in per_run if latencies]
    solver_s = _sum_of_medians(passes, lambda r: r.wall - r.oracle_s)
    return {
        "wall_s": _sum_of_medians(passes, lambda r: r.wall),
        "cpu_s": _sum_of_medians(passes, lambda r: r.cpu),
        "iter_ms.p50": 1e3 * statistics.fmean(run_medians) if run_medians else 0.0,
        "iter_ms.p99": 1e3 * float(np.percentile(pooled, 99)) if pooled else 0.0,
        "solver_ms_per_eval": 1e3 * solver_s / max(evaluations, 1),
        "evaluations": evaluations,
    }


def outcome(passes: list[Pass]) -> dict[str, float | int | None]:
    """Counts and solution quality of the first pass (every pass repeats it)."""
    runs = passes[0].runs
    rows = [r.row for r in runs if r.row is not None]
    solved = [row["success"] for row in rows if row["success"] is not None]
    yields = [-row["f_final"] for row in rows if row["problem"].startswith("yield-")]
    return {
        "iterations": sum(r.iterations for r in runs),
        "solved_frac": statistics.fmean(solved) if solved else None,
        "yield_final": statistics.fmean(yields) if yields else None,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-pass layer counts and self times, averaged over traced passes."""
    spans = [s for p in traced for s in p.spans]
    totals = self_times(spans)
    n = len(traced)
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        layer, _, part = name.rpartition(".")
        calls, seconds = totals.get(layer, (0, 0.0))
        if part == "calls":
            metrics[name] = calls / n
        elif part in ("self_s", "s"):
            metrics[name] = seconds / n
    lambda_calls = totals.get("poisedness.estimate_lambda", (0, 0.0))[0]
    metrics["poisedness.lambda_over_threshold_frac"] = (
        sum(p.lambda_over_threshold for p in traced) / lambda_calls if lambda_calls else 0.0
    )
    solves = [s for s in spans if s.name == "models.solve_system"]
    metrics["models.rank_deficient_frac"] = (
        sum(s.error == "RankDeficient" for s in solves) / len(solves) if solves else 0.0
    )
    evaluations = sum(r.evaluations for p in traced for r in p.runs)
    metrics["oracle.derivative_calls_per_eval"] = (
        totals.get("oracle.derivative", (0, 0.0))[0] / evaluations if evaluations else 0.0
    )
    metrics["trace.overhead_frac"] = (
        _sum_of_medians(traced, lambda r: r.wall) / _sum_of_medians(untraced, lambda r: r.wall) - 1.0
    )
    return metrics

"""Benchmark harness: solver x problem x availability grids to CSV.

A plan expands into individual runs (one per problem, kind, derivative
mask and seed).  Results are written as CSV with a fixed column order
and 17-significant-digit floats so that identical plans reproduce
byte-identical files.

Each registry name is one `BenchCase` record, and `run_inputs` maps a
case of a plan to its spec and `SolverConfig` for `run_plan` and the
CLI's ``trace`` alike.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .driver import PURPOSES, RunResult, SolverConfig, TraceRow, run
from .models import HERMITE_KINDS, ModelKind
from .problem import ObjectiveSpec
from .testbed import (
    NOISE_AMPLITUDES,
    PROBLEMS,
    TestProblem,
    add_noise,
    mask_availability,
    model_error_diagnostic,
    second_order_closure,
)
from .yields import MEAN_DIRECTIONS, START_POINT, YIELD_MODES, yield_objective

RESULT_COLUMNS = (
    "problem",
    "n",
    "kind",
    "kd",
    "mask",
    "seed",
    "noise",
    "evaluations",
    "f_final",
    "x_gap",
    "success",
)

SUMMARY_COLUMNS = (
    "problem",
    "n",
    "noise",
    "kind",
    "kd",
    "runs",
    "mean_evaluations",
    "success_rate",
    "delta_vs_bobyqa_pct",
)

TRACE_COLUMNS = tuple("model_error" if f.name == "model" else f.name for f in fields(TraceRow))

# relative f-gap against the reference optimum that counts as success
SUCCESS_RTOL = 1e-6

# all direction subsets are enumerated up to this count, then sampled
MAX_ENUMERATED_MASKS = 10
SAMPLED_MASKS = 3


@dataclass(frozen=True)
class BenchCase:
    """A registry entry: ``make_spec(mask, noise, seed, second_order)`` builds
    one run's objective, ``reference_value(x)`` is the noiseless one, and
    ``mask`` holds a yield case's fixed directions (None for test problems)."""

    name: str
    dimension: int
    x_start: np.ndarray
    make_spec: Callable[[tuple[int, ...], str, int, bool], ObjectiveSpec]
    reference_value: Callable[[np.ndarray], float]
    mask: tuple[int, ...] | None = None
    x_ref: np.ndarray | None = None
    f_ref: float | None = None

    def fixed_mask(self, kind: ModelKind) -> tuple[int, ...] | None:
        """The mask of every run of this case with ``kind``; None when the
        plan chooses it.  Derivative-free kinds declare no direction."""
        if self.mask is not None:
            return self.mask
        return None if kind in HERMITE_KINDS else ()


def _problem_spec(problem, mask, noise, seed, second_order) -> ObjectiveSpec:
    pairs = second_order_closure(mask) if second_order else ()
    spec = mask_availability(problem, mask, pairs)
    amplitude = NOISE_AMPLITUDES[noise]
    if amplitude > 0:
        spec = add_noise(spec, amplitude, seed)
    return spec


def registry() -> dict[str, BenchCase]:
    cases = {
        name: BenchCase(
            name=name,
            dimension=problem.dimension,
            x_start=problem.x_start,
            make_spec=partial(_problem_spec, problem),
            reference_value=problem.value,
            x_ref=problem.x_opt,
            f_ref=problem.f_opt,
        )
        for name, problem in PROBLEMS.items()
    }
    reference = yield_objective("nonoise", 0)
    for mode in YIELD_MODES:
        cases[f"yield-{mode}"] = BenchCase(
            name=f"yield-{mode}",
            dimension=reference.dimension,
            x_start=START_POINT,
            # availability and noise are intrinsic to the yield mode
            make_spec=lambda mask, noise, seed, second_order, mode=mode: yield_objective(mode, seed),
            reference_value=reference.value,
            mask=MEAN_DIRECTIONS,
        )
    return cases


@dataclass(frozen=True)
class ExperimentPlan:
    problems: tuple[str, ...]
    kinds: tuple[ModelKind, ...]
    kd_values: tuple[int, ...] = (1,)
    noise: str = "none"
    seeds: tuple[int, ...] = (0,)
    budget: int = 500
    weighting: bool = False
    second_order: bool = False


@dataclass(frozen=True)
class PlanCase:
    problem: str
    kind: ModelKind
    mask: tuple[int, ...]
    seed: int

    @property
    def kd(self) -> int:
        return len(self.mask)


def _masks_for(n: int, kd: int, sample_seed: int) -> list[tuple[int, ...]]:
    """Direction subsets for a given count: enumerated while small, three
    seed-deterministic draws otherwise."""
    total = math.comb(n, kd)
    if total <= MAX_ENUMERATED_MASKS:
        return [tuple(c) for c in combinations(range(1, n + 1), kd)]
    rng = np.random.default_rng([sample_seed, n, kd])
    masks: list[tuple[int, ...]] = []
    while len(masks) < SAMPLED_MASKS:
        pick = tuple(sorted(rng.choice(np.arange(1, n + 1), size=kd, replace=False).tolist()))
        if pick not in masks:
            masks.append(pick)
    return masks


def expand_plan(plan: ExperimentPlan) -> list[PlanCase]:
    """Validate the plan and enumerate every run, before anything executes."""
    cases = registry()
    for name in plan.problems:
        if name not in cases:
            raise ValueError(f"unknown problem {name!r}")
    if plan.noise not in NOISE_AMPLITUDES:
        raise ValueError(f"unknown noise mode {plan.noise!r}")
    for kd in plan.kd_values:
        if kd < 0:
            raise ValueError("kd must be nonnegative")

    expanded: list[PlanCase] = []
    sample_seed = plan.seeds[0] if plan.seeds else 0
    for name in plan.problems:
        entry = cases[name]
        for kind in plan.kinds:
            fixed = entry.fixed_mask(kind)
            if fixed is not None:
                mask_set = [fixed]
            else:
                mask_set = [
                    mask
                    for kd in plan.kd_values
                    if 0 < kd <= entry.dimension
                    for mask in _masks_for(entry.dimension, kd, sample_seed)
                ] or [()]
            for mask in mask_set:
                for seed in plan.seeds:
                    expanded.append(PlanCase(problem=name, kind=kind, mask=mask, seed=seed))
    return expanded


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str | Path, columns: tuple[str, ...], rows) -> None:
    """One header line, then each row's ``columns`` through `_fmt`."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def run_inputs(
    case: PlanCase, plan: ExperimentPlan, entry: BenchCase
) -> tuple[ObjectiveSpec, SolverConfig]:
    """The spec and solver config of one run of a plan."""
    spec = entry.make_spec(case.mask, plan.noise, case.seed, plan.second_order)
    config = SolverConfig(
        kind=case.kind,
        max_evaluations=plan.budget,
        weighting=plan.weighting,
    )
    return spec, config


def _run_case(case: PlanCase, plan: ExperimentPlan, entry: BenchCase) -> dict:
    spec, config = run_inputs(case, plan, entry)
    result = run(spec, entry.x_start, config)
    f_final = entry.reference_value(result.x_best)
    x_gap = None
    success = None
    if entry.x_ref is not None:
        x_gap = float(np.linalg.norm(result.x_best - entry.x_ref))
    if entry.f_ref is not None:
        success = int(f_final <= entry.f_ref + SUCCESS_RTOL * max(1.0, abs(entry.f_ref)))
    return {
        "problem": case.problem,
        "n": entry.dimension,
        "kind": case.kind.value,
        "kd": case.kd,
        "mask": "|".join(str(i) for i in case.mask),
        "seed": case.seed,
        # a yield case adds no plan noise; its mode is in its name
        "noise": plan.noise if entry.mask is None else "none",
        "evaluations": result.evaluations,
        "f_final": f_final,
        "x_gap": x_gap,
        "success": success,
    }


def _run_planned(case: PlanCase, plan: ExperimentPlan) -> dict:
    """One run of a plan; module-level so worker processes can import it."""
    return _run_case(case, plan, registry()[case.problem])


def run_plan(
    plan: ExperimentPlan,
    out_path: str | Path,
    workers: int = 1,
) -> list[dict]:
    """Execute every run of the plan and write the results CSV.

    Runs are CPU-bound numpy work, so ``workers > 1`` spreads them over
    that many spawned processes; a script that does so must guard its
    entry point with ``if __name__ == "__main__":``.  Each run holds its
    process's OpenBLAS to one thread (see `driver.run`), so the workers
    do not compete with BLAS threads for the cores.  Rows are ordered by
    plan index regardless of worker scheduling, so a fixed plan and seeds
    reproduce the file byte for byte.
    """
    expanded = expand_plan(plan)
    if workers > 1 and expanded:
        # imported here: multiprocessing adds about 1 MB and some import
        # time to every process that loads the package
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(min(workers, len(expanded)), mp_context=spawn) as pool:
            rows = list(pool.map(_run_planned, expanded, [plan] * len(expanded)))
    else:
        rows = [_run_planned(c, plan) for c in expanded]
    _write_csv(out_path, RESULT_COLUMNS, rows)
    return rows


def _read_results(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(RESULT_COLUMNS) - set(reader.fieldnames):
            raise ValueError(f"{path} lacks the expected result columns")
        rows = list(reader)
    for row in rows:
        # DictReader pads a short row with None and files a long row's
        # surplus fields under the key None
        if None in row or None in row.values():
            raise ValueError(f"{path} has a row whose field count differs from its header")
        try:
            row["n"] = int(row["n"])
            row["kd"] = int(row["kd"])
            row["evaluations"] = int(row["evaluations"])
        except ValueError as exc:
            raise ValueError(f"bad numeric field in {path}: {exc}") from exc
    return rows


def summarize(results_path: str | Path, out_path: str | Path) -> list[dict]:
    """Group mean evaluation counts by (problem, noise, kind, kd), with
    percentage deltas against the bobyqa group of the same problem and
    noise."""
    groups: dict[tuple, list[dict]] = {}
    for row in _read_results(results_path):
        key = (row["n"], row["problem"], row["noise"], row["kind"], row["kd"])
        groups.setdefault(key, []).append(row)

    out_rows = []
    baseline: dict[tuple[str, str], float] = {}
    # bobyqa sorts first among the kinds of one problem and noise
    for (n, problem, noise, kind, kd), members in sorted(groups.items()):
        mean_evals = float(np.mean([m["evaluations"] for m in members]))
        flagged = [m["success"] for m in members if m["success"] != ""]
        success_rate = (
            float(np.mean([int(s) for s in flagged])) if flagged else None
        )
        if kind == ModelKind.BOBYQA.value:
            baseline[problem, noise] = mean_evals
        base = baseline.get((problem, noise))
        out_rows.append(
            {
                "problem": problem,
                "n": n,
                "noise": noise,
                "kind": kind,
                "kd": kd,
                "runs": len(members),
                "mean_evaluations": mean_evals,
                "success_rate": success_rate,
                "delta_vs_bobyqa_pct": 100.0 * (mean_evals - base) / base if base else None,
            }
        )
    _write_csv(out_path, SUMMARY_COLUMNS, out_rows)
    return out_rows


def trace_export(result: RunResult, path: str | Path, problem: TestProblem | None = None) -> None:
    """Per-iteration trace as CSV, suitable for external plotting; a
    field the iteration did not compute is an empty cell.  The
    ``model_error`` column holds each row's ``model_error_diagnostic``
    against ``problem``, and is empty without one.  A run with no trial
    step raises, naming its reason and evaluations per purpose."""
    if not result.trace:
        purposes = [purpose for purpose, _ in result.evaluation_log]
        spent = ", ".join(f"{p} {purposes.count(p)}" for p in PURPOSES)
        raise ValueError(
            f"run produced an empty trace: no trial step before {result.reason.value} "
            f"after {result.evaluations} evaluations ({spent})"
        )
    rows = [
        {**vars(row), "model_error": None if problem is None else model_error_diagnostic(row.model, problem)}
        for row in result.trace
    ]
    _write_csv(path, TRACE_COLUMNS, rows)

"""Benchmark harness: solver x problem x availability grids to CSV.

A plan expands into individual runs (one per problem, kind, derivative
mask and seed).  Results are written as CSV with a fixed column order
and 17-significant-digit floats so that identical plans reproduce
byte-identical files.  An optional JSON mirror carries the same rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .driver import RunResult, SolverConfig, run
from .exceptions import MalformedInput, UnknownProblem
from .models import HERMITE_KINDS, ModelKind
from .problem import ObjectiveSpec
from .testbed import (
    NOISE_AMPLITUDES,
    PROBLEMS,
    add_noise,
    mask_availability,
    second_order_closure,
)
from .yields import START_POINT, YIELD_MODES, yield_objective

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
    "n",
    "kind",
    "kd",
    "runs",
    "mean_evaluations",
    "success_rate",
    "delta_vs_bobyqa_pct",
)

# relative f-gap against the reference optimum that counts as success
SUCCESS_RTOL = 1e-6

# all direction subsets are enumerated up to this count, then sampled
MAX_ENUMERATED_MASKS = 10
SAMPLED_MASKS = 3


@dataclass(frozen=True)
class BenchCase:
    """A registry entry the harness can run."""

    name: str
    dimension: int
    x_start: np.ndarray
    maskable: bool
    x_ref: np.ndarray | None = None
    f_ref: float | None = None

    def make_spec(self, mask, noise: str, seed: int, second_order: bool) -> ObjectiveSpec:
        raise NotImplementedError

    def reference_value(self, x) -> float | None:
        return None


@dataclass(frozen=True)
class _TestProblemCase(BenchCase):
    def make_spec(self, mask, noise, seed, second_order):
        problem = PROBLEMS[self.name]
        pairs = second_order_closure(mask) if second_order else ()
        spec = mask_availability(problem, mask, pairs)
        amplitude = NOISE_AMPLITUDES[noise]
        if amplitude > 0:
            spec = add_noise(spec, amplitude, seed)
        return spec

    def reference_value(self, x):
        return PROBLEMS[self.name].value(x)


@dataclass(frozen=True)
class _YieldCase(BenchCase):
    mode: str = "nonoise"

    def make_spec(self, mask, noise, seed, second_order):
        # availability and noise are intrinsic to the yield mode
        return yield_objective(self.mode, seed)

    def reference_value(self, x):
        return yield_objective("nonoise", 0).value(np.asarray(x, dtype=float))


def registry() -> dict[str, BenchCase]:
    cases: dict[str, BenchCase] = {}
    for name, problem in PROBLEMS.items():
        cases[name] = _TestProblemCase(
            name=name,
            dimension=problem.dimension,
            x_start=problem.x_start,
            maskable=True,
            x_ref=problem.x_opt,
            f_ref=problem.f_opt,
        )
    for mode in YIELD_MODES:
        name = f"yield-{mode}"
        cases[name] = _YieldCase(
            name=name,
            dimension=4,
            x_start=START_POINT,
            maskable=False,
            mode=mode,
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
    index: int
    problem: str
    kind: ModelKind
    kd: int
    mask: tuple[int, ...]
    seed: int


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
            raise UnknownProblem(f"unknown problem {name!r}")
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
            if not entry.maskable:
                mask_set = [(1, 2)]  # yield cases fix their availability
                kd_of = {(1, 2): 2}
            elif kind not in HERMITE_KINDS:
                mask_set = [()]
                kd_of = {(): 0}
            else:
                mask_set = []
                kd_of = {}
                for kd in plan.kd_values:
                    if kd == 0 or kd > entry.dimension:
                        continue
                    for mask in _masks_for(entry.dimension, kd, sample_seed):
                        mask_set.append(mask)
                        kd_of[mask] = kd
                if not mask_set:
                    mask_set = [()]
                    kd_of = {(): 0}
            for mask in mask_set:
                for seed in plan.seeds:
                    expanded.append(
                        PlanCase(
                            index=len(expanded),
                            problem=name,
                            kind=kind,
                            kd=kd_of[mask],
                            mask=mask,
                            seed=seed,
                        )
                    )
    return expanded


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def _run_case(case: PlanCase, plan: ExperimentPlan, entry: BenchCase) -> dict:
    spec = entry.make_spec(case.mask, plan.noise, case.seed, plan.second_order)
    config = SolverConfig(
        kind=case.kind,
        max_evaluations=plan.budget,
        weighting=plan.weighting,
        second_order=plan.second_order,
    )
    result = run(spec, entry.x_start, config)
    f_final = entry.reference_value(result.x_best)
    if f_final is None:
        f_final = result.f_best
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
        "noise": plan.noise,
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
    json_mirror: bool = False,
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

    out_path = Path(out_path)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in RESULT_COLUMNS])
    if json_mirror:
        mirror = out_path.with_suffix(out_path.suffix + ".json")
        payload = [{c: _fmt(row[c]) for c in RESULT_COLUMNS} for row in rows]
        mirror.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def _read_results(path: str | Path) -> list[dict]:
    try:
        with Path(path).open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(RESULT_COLUMNS) - set(reader.fieldnames):
                raise MalformedInput(f"{path} lacks the expected result columns")
            rows = list(reader)
    except OSError as exc:
        raise MalformedInput(str(exc)) from exc
    for row in rows:
        try:
            row["n"] = int(row["n"])
            row["kd"] = int(row["kd"])
            row["evaluations"] = int(row["evaluations"])
        except ValueError as exc:
            raise MalformedInput(f"bad numeric field in {path}: {exc}") from exc
    return rows


def summarize(results_path: str | Path, out_path: str | Path) -> list[dict]:
    """Group mean evaluation counts by (n, kind, kd) with percentage deltas
    against the plain BOBYQA baseline of the same dimension."""
    rows = _read_results(results_path)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["n"], row["kind"], row["kd"]), []).append(row)

    baseline: dict[int, float] = {}
    for (n, kind, _), members in groups.items():
        if kind == ModelKind.BOBYQA.value:
            baseline[n] = float(np.mean([m["evaluations"] for m in members]))

    out_rows = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2])):
        n, kind, kd = key
        members = groups[key]
        mean_evals = float(np.mean([m["evaluations"] for m in members]))
        flagged = [m["success"] for m in members if m["success"] != ""]
        success_rate = (
            float(np.mean([int(s) for s in flagged])) if flagged else None
        )
        delta = None
        if n in baseline and baseline[n] > 0:
            delta = 100.0 * (mean_evals - baseline[n]) / baseline[n]
        out_rows.append(
            {
                "n": n,
                "kind": kind,
                "kd": kd,
                "runs": len(members),
                "mean_evaluations": mean_evals,
                "success_rate": success_rate,
                "delta_vs_bobyqa_pct": delta,
            }
        )

    with Path(out_path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in out_rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])
    return out_rows


def trace_export(result: RunResult, path: str | Path) -> None:
    """Per-iteration trace as CSV, suitable for external plotting."""
    if not result.trace:
        raise ValueError("run produced an empty trace")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ("iteration", "evaluations", "radius", "f_best", "accepted", "model_error")
        )
        for row in result.trace:
            writer.writerow(
                [
                    row.iteration,
                    row.evaluations,
                    _fmt(row.radius),
                    _fmt(row.f_best),
                    int(row.accepted),
                    _fmt(row.model_error),
                ]
            )

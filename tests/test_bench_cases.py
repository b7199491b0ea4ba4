"""The benchmark case record against the case classes it replaced.

`RefBenchCase`, `_RefTestProblemCase`, `_RefYieldCase`, `reference_registry`
and `reference_expand_plan` are the harness's earlier case classes and
plan expansion, kept verbatim apart from their names and the dropped
`PlanCase.index`.  Every registry entry must describe the same run: the
same fields, the same specs (availability and every oracle output, bit
for bit, sign bits included) and the same reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hermiteopt import bench, cli
from hermiteopt.bench import ExperimentPlan, _masks_for, expand_plan, registry
from hermiteopt.cli import main
from hermiteopt.models import HERMITE_KINDS, ModelKind
from hermiteopt.problem import ObjectiveSpec
from hermiteopt.testbed import (
    NOISE_AMPLITUDES,
    PROBLEMS,
    add_noise,
    mask_availability,
    second_order_closure,
)
from hermiteopt.yields import START_POINT, YIELD_MODES, yield_objective


@dataclass(frozen=True)
class RefBenchCase:
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
class _RefTestProblemCase(RefBenchCase):
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
class _RefYieldCase(RefBenchCase):
    mode: str = "nonoise"

    def make_spec(self, mask, noise, seed, second_order):
        return yield_objective(self.mode, seed)

    def reference_value(self, x):
        return yield_objective("nonoise", 0).value(np.asarray(x, dtype=float))


def reference_registry() -> dict[str, RefBenchCase]:
    cases: dict[str, RefBenchCase] = {}
    for name, problem in PROBLEMS.items():
        cases[name] = _RefTestProblemCase(
            name=name,
            dimension=problem.dimension,
            x_start=problem.x_start,
            maskable=True,
            x_ref=problem.x_opt,
            f_ref=problem.f_opt,
        )
    for mode in YIELD_MODES:
        name = f"yield-{mode}"
        cases[name] = _RefYieldCase(
            name=name,
            dimension=4,
            x_start=START_POINT,
            maskable=False,
            mode=mode,
        )
    return cases


def reference_expand_plan(plan: ExperimentPlan) -> list[tuple]:
    """(problem, kind, mask, seed) of every run, in plan order."""
    cases = reference_registry()
    expanded = []
    sample_seed = plan.seeds[0] if plan.seeds else 0
    for name in plan.problems:
        entry = cases[name]
        for kind in plan.kinds:
            if not entry.maskable:
                mask_set = [(1, 2)]
            elif kind not in HERMITE_KINDS:
                mask_set = [()]
            else:
                mask_set = [
                    mask
                    for kd in plan.kd_values
                    if 0 < kd <= entry.dimension
                    for mask in _masks_for(entry.dimension, kd, sample_seed)
                ] or [()]
            for mask in mask_set:
                for seed in plan.seeds:
                    expanded.append((name, kind, mask, seed))
    return expanded


def bits(value) -> bytes:
    """The float64 bytes of a value or array, sign bits and NaN payloads included."""
    return np.asarray(value, dtype=np.float64).tobytes()


def optional_bits(value):
    return None if value is None else bits(value)


def seeded_points(spec: ObjectiveSpec, seed: int, count: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    lo, hi = spec.bounds.lower, spec.bounds.upper
    return [lo + (hi - lo) * rng.random(spec.dimension) for _ in range(count)]


def oracle_outputs(spec: ObjectiveSpec, points) -> list[bytes]:
    """Every oracle's output at each point, in `evaluate`'s call order."""
    out = []
    for x in points:
        out.append(bits(spec.value(x)))
        for oracle in (spec.derivative, spec.second_derivative):
            out.append(None if oracle is None else bits(oracle(x)))
    return out


def masks_to_try(n: int) -> list[tuple[int, ...]]:
    """No direction, the first, all, and a seeded half."""
    rng = np.random.default_rng(n)
    drawn = tuple(sorted(rng.choice(np.arange(1, n + 1), size=max(1, n // 2), replace=False).tolist()))
    return sorted({(), (1,), tuple(range(1, n + 1)), drawn})


NAMES = list(reference_registry())


def test_registry_names_and_order():
    assert list(registry()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_case_fields_are_bit_identical(name):
    new, ref = registry()[name], reference_registry()[name]
    assert (new.name, new.dimension) == (ref.name, ref.dimension)
    assert bits(new.x_start) == bits(ref.x_start)
    assert optional_bits(new.x_ref) == optional_bits(ref.x_ref)
    assert optional_bits(new.f_ref) == optional_bits(ref.f_ref)


@pytest.mark.parametrize("name", NAMES)
def test_specs_are_bit_identical(name):
    new, ref = registry()[name], reference_registry()[name]
    for mask in masks_to_try(ref.dimension):
        for noise in NOISE_AMPLITUDES:
            for second_order in (False, True):
                for seed in range(3):
                    # fresh specs on both sides, called in the same order,
                    # so noisy and resampled oracles draw the same numbers
                    a = new.make_spec(mask, noise, seed, second_order)
                    b = ref.make_spec(mask, noise, seed, second_order)
                    context = (mask, noise, second_order, seed)
                    assert a.availability == b.availability, context
                    assert (a.dimension, a.name) == (b.dimension, b.name), context
                    assert bits(a.bounds.lower) == bits(b.bounds.lower), context
                    assert bits(a.bounds.upper) == bits(b.bounds.upper), context
                    points = seeded_points(b, seed)
                    assert oracle_outputs(a, points) == oracle_outputs(b, points), context


@pytest.mark.parametrize("name", NAMES)
def test_reference_values_are_bit_identical(name):
    new, ref = registry()[name], reference_registry()[name]
    spec = ref.make_spec((), "none", 0, False)
    points = seeded_points(spec, 7, count=4)
    # repeats and the start point: the yield reference objective is now
    # built once per registry and keeps the last point's estimate
    points += [points[0], points[0], new.x_start, points[1]]
    for x in points:
        assert bits(new.reference_value(x)) == bits(ref.reference_value(x))


def test_expand_plan_matches_the_reference_on_mixed_plans():
    plan = ExperimentPlan(
        problems=("sphere3", "yield-nonoise", "rosenbrock10", "yield-highnoise", "trid4"),
        kinds=tuple(ModelKind),
        kd_values=(0, 1, 2, 5),
        seeds=(1, 0),
    )
    expanded = [(c.problem, c.kind, c.mask, c.seed) for c in expand_plan(plan)]
    assert expanded == reference_expand_plan(plan)
    assert any(c[0].startswith("yield-") for c in expanded)


@pytest.mark.parametrize("mode", list(YIELD_MODES))
def test_yield_mask_is_the_objectives_availability(mode):
    entry = registry()[f"yield-{mode}"]
    assert entry.mask == yield_objective(mode).availability.directions
    assert entry.make_spec(entry.mask, "none", 0, False).availability.directions == entry.mask


def test_test_problems_leave_the_mask_to_the_plan():
    assert all(registry()[name].mask is None for name in PROBLEMS)


@pytest.mark.parametrize(
    "problem, kind, flags",
    [
        ("rosenbrock2", "hermite-ls", ["--kd", "1"]),
        ("yield-nonoise", "bobyqa", []),
        # derivative-free kinds declare no direction in either command
        ("rosenbrock2", "bobyqa", []),
        ("trid4", "full-interp", ["--kd", "2", "--noise", "low"]),
    ],
)
def test_trace_and_run_agree(tmp_path, monkeypatch, problem, kind, flags):
    results = {"run": [], "trace": []}

    def recording(key, solve):
        def wrapped(spec, x0, config):
            result = solve(spec, x0, config)
            results[key].append((spec.availability.directions, result))
            return result

        return wrapped

    monkeypatch.setattr(bench, "run", recording("run", bench.run))
    monkeypatch.setattr(cli, "run", recording("trace", cli.run))
    common = ["--problems", problem, "--kinds", kind, *flags, "--seed", "0", "--budget", "100"]
    assert main(["run", *common, "--out", str(tmp_path / "run.csv")]) == 0
    assert main(["trace", *common, "--out", str(tmp_path / "trace.csv")]) == 0
    (directions, traced), = results["trace"]
    # run draws every mask of kd directions; trace takes 1..kd
    ran = dict(results["run"]).get(directions)
    assert ran is not None, (directions, [d for d, _ in results["run"]])
    assert (traced.evaluations, traced.reason) == (ran.evaluations, ran.reason)
    assert bits(traced.f_best) == bits(ran.f_best)
    assert bits(traced.x_best) == bits(ran.x_best)
    assert math.isfinite(traced.f_best)

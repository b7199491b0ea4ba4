import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from util import availability, build_training_set, random_quadratic, row_tags

from hermiteopt import _blas, driver
from hermiteopt.bench import ExperimentPlan, _run_case, expand_plan, registry

from hermiteopt.driver import (
    PURPOSES,
    Evaluator,
    ModelKind,
    SolverConfig,
    TerminationReason,
    _null_basis,
    _null_space_scores,
    default_point_count,
    initial_points,
    initialize,
    model_error_diagnostic,
    resolve_model,
    run,
)
from hermiteopt.exceptions import OutOfBounds, RankDeficient
from hermiteopt.models import (
    RANK_TOLERANCE,
    QuadraticModel,
    apply_scaling,
    assemble_full_interp,
    assemble_hermite_ls,
)
from hermiteopt.poisedness import PoisednessEstimate, column_bounds, estimate_lambda, lagrange_family
from hermiteopt.problem import (
    Bounds,
    ObjectiveSpec,
    TaylorReference,
    TrainingSet,
    rows_equal,
)
from hermiteopt.testbed import get_problem, mask_availability, rosenbrock


def spec_for(name, mask=()):
    problem = get_problem(name)
    return problem, mask_availability(problem, set(mask))


class TestInitialization:
    def test_coordinate_cross_pattern(self):
        x0 = np.array([0.0, 0.0])
        pts = initial_points(x0, 0.1, Bounds.unbounded(2), 5)
        expected = [
            [0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1],
        ]
        assert np.allclose(pts, expected)

    def test_blocked_positive_step_flips_to_double_negative(self):
        bounds = Bounds(np.array([-10.0, -10.0]), np.array([1.0, 10.0]))
        x0 = np.array([1.0, 0.0])  # on the upper bound in coordinate 1
        pts = initial_points(x0, 0.1, bounds, 5)
        assert np.allclose(pts[1], [1.0 - 0.2, 0.0])
        for p in pts:
            assert bounds.contains(p)

    def test_diagonal_point_beyond_cross(self):
        x0 = np.zeros(2)
        pts = initial_points(x0, 0.1, Bounds.unbounded(2), 6)
        assert np.allclose(pts[5], [0.1 / np.sqrt(2), 0.1 / np.sqrt(2)])

    def test_all_points_distinct_and_feasible(self):
        bounds = Bounds(np.array([-0.05, -0.3, 0.0]), np.array([0.05, 0.3, 0.4]))
        x0 = np.array([0.0, 0.0, 0.2])
        pts = initial_points(x0, 0.1, bounds, 10)
        assert len(pts) == 10
        for i, p in enumerate(pts):
            assert bounds.contains(p)
            for q in pts[:i]:
                assert np.max(np.abs(p - q)) > 1e-12

    def test_initialize_evaluates_and_bills(self):
        problem, spec = spec_for("sphere2")
        ev = Evaluator(spec, 100)
        config = SolverConfig(kind=ModelKind.BOBYQA)
        state = initialize(spec, problem.x_start, config, ev)
        assert state.ts.size == 5
        assert ev.used == 5
        assert state.radius == pytest.approx(0.1 * max(1.0, np.max(np.abs(problem.x_start))))

    def test_out_of_bounds_start(self):
        problem, spec = spec_for("sphere2")
        with pytest.raises(OutOfBounds):
            initialize(
                spec,
                np.array([50.0, 0.0]),
                SolverConfig(),
                Evaluator(spec, 10),
            )

    NARROW = Bounds(np.array([5.0, 0.0]), np.array([13.0, 0.5]))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_default_radius_fits_the_narrowest_width(self, kind):
        # 0.1 max(1, |x0|_inf) = 0.9 is capped at half of the 0.5 width, so
        # every coordinate step of the initial set is a plain +-0.25 step
        problem = rosenbrock(2)
        spec = dataclasses.replace(mask_availability(problem, {1}), bounds=self.NARROW)
        x0 = np.array([9.0, 0.25])
        config = SolverConfig(kind=kind, max_evaluations=60)
        state = initialize(spec, x0, config, Evaluator(spec, 60))
        assert state.radius == state.initial_radius == 0.25
        cross = {tuple(x0)} | {tuple(x0 + 0.25 * sign * e) for e in np.eye(2) for sign in (1, -1)}
        head = {tuple(p) for p in state.ts.points[:5]}
        assert len(head) == min(5, state.ts.size) and head <= cross
        result = run(spec, x0, config)
        assert result.reason is not TerminationReason.ORACLE_ERROR
        assert self.NARROW.contains(result.x_best) and result.f_best < problem.value(x0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_fixed_variable_rejected_before_any_evaluation(self, kind):
        problem = rosenbrock(3)
        calls = []
        box = Bounds(np.array([-2.0, 0.5, -2.0]), np.array([2.0, 0.5, 2.0]))
        spec = dataclasses.replace(
            mask_availability(problem, {1}), bounds=box, value=lambda x: calls.append(x) or problem.value(x)
        )
        with pytest.raises(ValueError, match="lower == upper at 1-based index 2$"):
            run(spec, np.array([0.0, 0.5, 0.0]), SolverConfig(kind=kind))
        assert calls == []

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_box_narrower_than_twice_min_radius_rejected_before_any_evaluation(self, kind):
        # x2 in 1 +- 5e-10 caps the default radius at 5e-10, not above the
        # 1e-8 minimum, so the first rejected trial would end the run at x0
        problem = rosenbrock(2)
        base = mask_availability(problem, {1})
        calls = []
        box = Bounds(np.array([-5.0, 1.0 - 5e-10]), np.array([10.0, 1.0 + 5e-10]))
        spec = dataclasses.replace(
            base,
            bounds=box,
            value=lambda x: calls.append(x) or problem.value(x),
            derivative=lambda x: calls.append(x) or base.derivative(x),
        )
        message = "at 1-based index 2: default initial radius 5e-10 does not exceed the minimum radius 1e-08$"
        with pytest.raises(ValueError, match=message):
            run(spec, np.array([-1.2, 1.0]), SolverConfig(kind=kind))
        assert calls == []


class TestTraceRowPerTrial:
    """Every billed trial keeps its trace row, also when the budget runs
    out in the geometry step that follows it."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("name", ["rosenbrock2", "zakharov3", "trid4", "beale2"])
    def test_trial_count_equals_trace_length(self, name, kind):
        problem, spec = spec_for(name, mask=(1,))
        for budget in range(30, 88, 3):
            result = run(spec, problem.x_start, SolverConfig(kind=kind, max_evaluations=budget))
            trials = sum(purpose == "trial" for purpose, _ in result.evaluation_log)
            assert trials == len(result.trace), budget
            evaluations = [row.evaluations for row in result.trace]
            assert all(a < b for a, b in zip(evaluations, evaluations[1:]))
            assert all(e <= result.evaluations for e in evaluations)


class TestPredictedDecrease:
    def test_decrease_below_value_resolution_rejects_without_billing(self):
        # every model decrease here is far below 1e-15 * 1e12, so each
        # iteration shrinks the radius without a trial evaluation
        spec = ObjectiveSpec(
            dimension=2,
            value=lambda x: 1e12 + 1e-4 * float(x @ x),
            bounds=Bounds(np.full(2, -2.0), np.full(2, 2.0)),
        )
        config = SolverConfig(kind=ModelKind.FULL_INTERP, max_evaluations=50)
        result = run(spec, np.array([1.0, 1.0]), config)
        assert result.reason is TerminationReason.RADIUS_BELOW_MIN
        assert [purpose for purpose, _ in result.evaluation_log] == ["init"] * 6
        assert result.evaluations == 6 and result.iterations == 24
        assert result.trace == []


class TestRunBehavior:
    def test_budget_equals_point_count_terminates_immediately(self):
        problem, spec = spec_for("sphere2")
        config = SolverConfig(kind=ModelKind.BOBYQA, max_evaluations=5)
        result = run(spec, problem.x_start, config)
        assert result.reason is TerminationReason.BUDGET_EXHAUSTED
        assert result.evaluations == 5
        # f_best is the smallest of the initial cross values
        assert result.f_best == pytest.approx(
            min(problem.value(p) for p in initial_points(
                problem.x_start, 0.1, problem.bounds, 5
            ))
        )

    def test_one_dimensional_default_kind_interpolates(self):
        # the default bobyqa set at n = 1 has q1 = 3 points, where the
        # min-Frobenius model is the quadratic interpolant
        spec = ObjectiveSpec(
            dimension=1,
            value=lambda x: float((x[0] - 0.3) ** 2),
            bounds=Bounds(np.array([-2.0]), np.array([2.0])),
        )
        result = run(spec, np.array([1.0]))
        assert result.reason is TerminationReason.STEP_SIZE_TINY
        assert result.f_best < 1e-20
        assert result.x_best == pytest.approx([0.3])

    def test_budget_below_point_count_rejected(self):
        problem, spec = spec_for("sphere2")
        with pytest.raises(ValueError):
            run(spec, problem.x_start, SolverConfig(max_evaluations=3))

    def test_f_best_monotone_and_feasible(self):
        problem = get_problem("rosenbrock2")
        seen = []

        def watching(x):
            seen.append(np.array(x))
            return problem.value(x)

        import dataclasses

        spec = mask_availability(problem, {2})
        spec = dataclasses.replace(spec, value=watching)
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=150))
        assert result.evaluations == len(seen)
        for x in seen:
            assert problem.bounds.contains(x)
        best = [t.f_best for t in result.trace]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))

    @pytest.mark.parametrize("shape", [(1,), (1, 2), (3,)])
    def test_start_point_of_the_wrong_shape_rejected_before_any_call(self, shape):
        problem, spec, calls = oracle_spec("value", 0, None)
        x0 = np.resize(problem.x_start, shape)
        with pytest.raises(ValueError, match=r"shape \(.*\), expected \(2,\)"):
            run(spec, x0, SolverConfig(kind=ModelKind.HERMITE_LS))
        assert calls == []

    @pytest.mark.parametrize("kind", [ModelKind.HERMITE_LS, ModelKind.BOBYQA])
    def test_trace_names_the_replaced_index_and_the_sigma_ratio(self, kind, monkeypatch):
        problem, spec, calls = oracle_spec("value", 0, None)
        replacements = []
        replace = TrainingSet.replace

        def logged(ts, index, incoming):
            replacements.append((index, incoming.point.tobytes()))
            return replace(ts, index, incoming)

        monkeypatch.setattr(TrainingSet, "replace", logged)
        result = run(spec, problem.x_start, SolverConfig(kind=kind, max_evaluations=120))
        trials = [x for x, (purpose, _) in zip(calls, result.evaluation_log) if purpose == "trial"]
        assert len(trials) == len(result.trace)
        for row, trial in zip(result.trace, trials):
            assert RANK_TOLERANCE < row.sigma_ratio <= 1.0
            if row.replaced is None:
                continue
            assert row.accepted
            assert (row.replaced, trial.tobytes()) in replacements
        assert any(row.replaced is not None for row in result.trace)
        assert all(row.replaced is None for row in result.trace if not row.accepted)

    def test_trace_evaluations_strictly_increasing(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=120))
        evs = [t.evaluations for t in result.trace]
        assert all(b > a for a, b in zip(evs, evs[1:]))

    def test_rejected_step_shrinks_radius(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=120))
        rows = result.trace
        for prev, cur in zip(rows, rows[1:]):
            if not cur.accepted:
                assert cur.radius <= prev.radius * 0.5 + 1e-15

    def test_deterministic_reruns(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        cfg = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=100)
        a = run(spec, problem.x_start, cfg)
        b = run(spec, problem.x_start, cfg)
        assert a.evaluations == b.evaluations
        assert a.f_best == b.f_best
        assert np.array_equal(a.x_best, b.x_best)
        assert [t.radius for t in a.trace] == [t.radius for t in b.trace]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_first_trial_accepted_on_quadratic(self, kind):
        # a poised set on an exactly quadratic objective gives a perfect
        # model, so the very first trial is accepted with ratio about one
        problem = get_problem("sphere2")
        mask = {1} if kind in (ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA) else set()
        spec = mask_availability(problem, mask)
        result = run(spec, problem.x_start, SolverConfig(kind=kind, max_evaluations=60))
        assert result.trace[0].accepted

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_sphere_converges_fast(self, kind):
        for n in (2, 3, 5):
            problem = get_problem(f"sphere{n}")
            mask = {1} if kind in (ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA) else set()
            spec = mask_availability(problem, mask)
            result = run(spec, problem.x_start, SolverConfig(kind=kind, max_evaluations=500))
            within = [t.f_best for t in result.trace if t.iteration <= 30]
            assert min(within) <= 1e-8

    def test_rosenbrock_partial_derivative_convergence(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=500))
        assert abs(result.f_best) < 1e-8
        assert np.linalg.norm(result.x_best - problem.x_opt) < 1e-4


class TestDiagnostic:
    def test_exact_taylor_gives_zero(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = np.array([0.5, -1.0])
        center = np.array([0.2, 0.1])

        def fn(x):
            d = x - center
            return 3.0 + g @ d + 0.5 * d @ H @ d

        ref = TaylorReference(
            value=fn,
            gradient=lambda x: g + H @ (x - center),
            hessian=lambda x: H,
        )
        model = QuadraticModel(center=center, c=3.0, g=g, H=H)
        err = model_error_diagnostic(model, ref, center, halfwidth=0.01)
        assert err <= 1e-14

    def test_constant_offset_integrates_to_volume(self):
        center = np.zeros(2)
        eps = 0.3
        ref = TaylorReference(
            value=lambda x: 0.0,
            gradient=lambda x: np.zeros(2),
            hessian=lambda x: np.zeros((2, 2)),
        )
        model = QuadraticModel(center=center, c=eps, g=np.zeros(2), H=np.zeros((2, 2)))
        delta = 0.01
        err = model_error_diagnostic(model, ref, center, halfwidth=delta)
        assert err == pytest.approx(eps**2 * (2 * delta) ** 2, rel=1e-12)

    @staticmethod
    def gauss_legendre(model, ref, center, h):
        """The squared error integrated by the 3-point Gauss-Legendre tensor
        rule, exact for the degree-4 integrand."""
        nodes, weights = np.polynomial.legendre.leggauss(3)
        n = center.size
        grid = np.stack(np.meshgrid(*[nodes] * n, indexing="ij"), -1).reshape(-1, n)
        w = np.prod(np.stack(np.meshgrid(*[weights] * n, indexing="ij"), -1).reshape(-1, n), axis=1)
        D = h * grid
        H0 = ref.hessian(center)
        taylor = ref.value(center) + D @ ref.gradient(center) + 0.5 * np.einsum("ij,jk,ik->i", D, H0, D)
        diff = model.value_at(center + D) - taylor
        return float(np.sum(w * diff**2) * h**n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_gauss_legendre(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(50):
            center = rng.normal(size=n)
            A, B = rng.normal(size=(2, n, n))
            model = QuadraticModel(center + 0.3 * rng.normal(size=n), rng.normal(), rng.normal(size=n), A + A.T)
            f0, g0, H0 = rng.normal(), rng.normal(size=n), B + B.T
            ref = TaylorReference(lambda x: f0, lambda x: g0, lambda x: H0)
            h = 10.0 ** rng.uniform(-4, 0)
            expected = self.gauss_legendre(model, ref, center, h)
            assert model_error_diagnostic(model, ref, center, h) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "build, kind, mask, budget",
        [
            (lambda: get_problem("rosenbrock10"), ModelKind.HERMITE_LS, {1, 2, 3}, 120),
            # hermite-ls bills no trial at n = 20 (ROADMAP direction 2)
            (lambda: rosenbrock(20), ModelKind.BOBYQA, set(), 120),
        ],
    )
    def test_diagnostic_runs_in_high_dimensions(self, build, kind, mask, budget):
        problem = build()
        spec = mask_availability(problem, mask)
        config = SolverConfig(kind=kind, max_evaluations=budget, model_error_diagnostic=True)
        result = run(spec, problem.x_start, config)
        assert result.trace
        assert all(np.isfinite(row.model_error) and row.model_error >= 0.0 for row in result.trace)

    def test_trace_carries_model_error(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        cfg = SolverConfig(
            kind=ModelKind.HERMITE_LS, max_evaluations=60, model_error_diagnostic=True
        )
        result = run(spec, problem.x_start, cfg)
        errs = [t.model_error for t in result.trace]
        assert all(np.isfinite(e) for e in errs)
        cfg_off = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=60)
        result_off = run(spec, problem.x_start, cfg_off)
        assert all(np.isnan(t.model_error) for t in result_off.trace)


class TestEvaluationPurposes:
    @staticmethod
    def check_log(spec, config, result):
        log = result.evaluation_log
        assert len(log) == result.evaluations
        purposes = [purpose for purpose, _ in log]
        assert set(purposes) <= set(PURPOSES)
        init = resolve_model(spec, config)[1]
        assert purposes[:init] == ["init"] * init and "init" not in purposes[init:]
        best = [value for _, value in log]
        assert all(b <= a for a, b in zip(best, best[1:]))
        assert best[-1] == result.f_best
        # every trace row's best value is the log's after that many evaluations
        for row in result.trace:
            assert log[row.evaluations - 1][1] == row.f_best
        return purposes

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_log_has_one_entry_per_evaluation(self, kind):
        problem, spec = spec_for("rosenbrock5", mask=(1, 3))
        config = SolverConfig(kind=kind, max_evaluations=200)
        result = run(spec, problem.x_start, config)
        purposes = self.check_log(spec, config, result)
        assert {"trial", "geometry"} <= set(purposes)

    @pytest.mark.parametrize(
        "name, kind, mask, budget",
        [
            ("zakharov10", ModelKind.HERMITE_BOBYQA, (2, 3, 4, 7, 8), 500),
            ("trid4", ModelKind.HERMITE_LS, (1, 2), 150),
        ],
    )
    def test_rank_repairs_are_logged(self, name, kind, mask, budget):
        problem, spec = spec_for(name, mask=mask)
        config = SolverConfig(kind=kind, max_evaluations=budget)
        result = run(spec, problem.x_start, config)
        assert "repair" in self.check_log(spec, config, result)

    def test_budget_cut_leaves_no_entry_for_the_refused_call(self):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        config = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=12)
        result = run(spec, problem.x_start, config)
        assert result.reason is TerminationReason.BUDGET_EXHAUSTED
        self.check_log(spec, config, result)


class TestNonFiniteValues:
    @staticmethod
    def poisoned(bad, at):
        """rosenbrock2, with the derivative in direction 2 known, whose
        ``at``-th objective call (counted from 1) returns ``bad``."""
        problem = get_problem("rosenbrock2")
        calls = []

        def value(x):
            calls.append(np.array(x))
            return bad if len(calls) == at else problem.value(x)

        return problem, dataclasses.replace(mask_availability(problem, {2}), value=value), calls

    @pytest.mark.parametrize("kind", [ModelKind.HERMITE_LS, ModelKind.BOBYQA])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("at", [3, 20])  # 3 lies inside the initial set
    def test_run_stops_with_the_best_finite_point(self, kind, bad, at):
        problem, spec, calls = self.poisoned(bad, at)
        config = SolverConfig(kind=kind, max_evaluations=100)
        assert resolve_model(spec, config)[1] > 3
        result = run(spec, problem.x_start, config)
        assert result.reason is TerminationReason.NONFINITE_VALUE
        # the bad value is billed and logged, and nothing is evaluated after it
        assert result.evaluations == len(calls) == len(result.evaluation_log) == at
        f_best, i_best = min((problem.value(x), i) for i, x in enumerate(calls[:-1]))
        assert result.f_best == f_best
        assert np.array_equal(result.x_best, calls[i_best])
        best = [value for _, value in result.evaluation_log]
        assert all(np.isfinite(best)) and best[-1] == f_best
        assert all(b <= a for a, b in zip(best, best[1:]))
        purposes = [purpose for purpose, _ in result.evaluation_log]
        init = min(at, resolve_model(spec, config)[1])
        assert purposes[:init] == ["init"] * init and "init" not in purposes[init:]
        assert all(row.evaluations < at for row in result.trace)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_first_value_non_finite_leaves_no_best_point(self, bad):
        problem, spec, calls = self.poisoned(bad, 1)
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS))
        assert result.reason is TerminationReason.NONFINITE_VALUE
        assert result.evaluations == len(calls) == 1 and result.iterations == 0
        assert result.x_best is None and result.f_best == float("inf")
        assert result.evaluation_log == [("init", float("inf"))]

    @staticmethod
    def run_poisoned_entry(which, kind, bad, at, second_order=False):
        """rosenbrock2 with direction 2 and pairs (1, 2), (2, 2) known, whose
        ``which`` oracle returns ``bad`` in its last entry on its ``at``-th
        call; every point the value oracle saw is recorded."""
        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2}, {(1, 2), (2, 2)})
        good, calls, count = getattr(spec, which), [], [0]

        def value(x):
            calls.append(np.array(x))
            return problem.value(x)

        def oracle(x):
            count[0] += 1
            entries = np.array(good(x), dtype=float)
            if count[0] == at:
                entries[-1] = bad
            return entries

        spec = dataclasses.replace(spec, value=value, **{which: oracle})
        config = SolverConfig(kind=kind, second_order=second_order, max_evaluations=300)
        return problem, run(spec, problem.x_start, config), calls, count[0]

    @pytest.mark.parametrize("kind", [ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    # 3 lies inside the initial set; before derivative entries were checked,
    # 3 and 20 escaped as OutOfBounds and 8 and 12 ended the run normally
    @pytest.mark.parametrize("at", [3, 8, 12, 20])
    def test_non_finite_derivative_entry_ends_the_run(self, kind, bad, at):
        problem, result, calls, oracle_calls = self.run_poisoned_entry("derivative", kind, bad, at)
        self.check_poisoned_entry(problem, result, calls, oracle_calls, at)

    @pytest.mark.parametrize("at", [3, 12])
    def test_non_finite_second_derivative_entry_ends_the_run(self, at):
        problem, result, calls, oracle_calls = self.run_poisoned_entry(
            "second_derivative", ModelKind.HERMITE_LS, float("nan"), at, second_order=True
        )
        self.check_poisoned_entry(problem, result, calls, oracle_calls, at)

    @staticmethod
    def check_poisoned_entry(problem, result, calls, oracle_calls, at):
        assert result.reason is TerminationReason.NONFINITE_VALUE
        # billed and logged, and nothing is evaluated after it
        assert result.evaluations == len(calls) == oracle_calls == len(result.evaluation_log) == at
        # its finite value never becomes the best
        f_best, i_best = min((problem.value(x), i) for i, x in enumerate(calls[:-1]))
        assert result.f_best == f_best and np.isfinite(result.f_best)
        assert np.array_equal(result.x_best, calls[i_best]) and np.all(np.isfinite(result.x_best))
        assert result.evaluation_log[-1][1] == f_best


class TestUnreadSecondOrder:
    """Only hermite-ls with second order on reads second-order rows; every
    other run leaves the declared pairs' oracle uncalled."""

    @staticmethod
    def counted_run(kind, second_order, pairs, bad_at=None):
        """rosenbrock2 with direction 2 and ``pairs`` known; the second-order
        oracle's ``bad_at``-th call returns NaN in its last entry."""
        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2}, pairs)
        good, count = spec.second_derivative, [0]

        def oracle(x):
            count[0] += 1
            entries = np.array(good(x), dtype=float)
            if count[0] == bad_at:
                entries[-1] = np.nan
            return entries

        spec = dataclasses.replace(spec, second_derivative=oracle)
        config = SolverConfig(kind=kind, second_order=second_order, max_evaluations=150)
        return run(spec, problem.x_start, config), count[0]

    @staticmethod
    def reads(kind, second_order):
        return kind is ModelKind.HERMITE_LS and second_order

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("second_order", [False, True])
    def test_called_once_per_evaluation_exactly_when_read(self, kind, second_order):
        result, calls = self.counted_run(kind, second_order, {(1, 2), (2, 2)})
        assert result.reason is not TerminationReason.NONFINITE_VALUE
        assert calls == (result.evaluations if self.reads(kind, second_order) else 0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("second_order", [False, True])
    def test_nan_in_an_unread_entry_changes_nothing(self, kind, second_order):
        result, calls = self.counted_run(kind, second_order, {(1, 2), (2, 2)}, bad_at=10)
        if self.reads(kind, second_order):
            assert result.reason is TerminationReason.NONFINITE_VALUE
            assert result.evaluations == calls == 10
        else:
            # the run is the one without declared pairs
            plain, _ = self.counted_run(kind, second_order, ())
            assert calls == 0 and result.evaluations > 10
            assert result.reason is plain.reason and result.evaluations == plain.evaluations
            assert result.f_best == plain.f_best and result.evaluation_log == plain.evaluation_log


def oracle_spec(which, at, exc):
    """rosenbrock2 with the derivative in direction 2 known, whose ``which``
    callable raises ``exc`` on its ``at``-th call (counted from 1); every
    point the value oracle saw is recorded."""
    problem = get_problem("rosenbrock2")
    spec = mask_availability(problem, {2})
    calls, counts = [], {"value": 0, "derivative": 0}

    def counted(name, fn):
        def oracle(*args):
            counts[name] += 1
            if name == "value":
                calls.append(np.array(args[0]))
            if name == which and counts[name] == at:
                raise exc
            return fn(*args)

        return oracle

    spec = dataclasses.replace(
        spec, value=counted("value", spec.value), derivative=counted("derivative", spec.derivative)
    )
    return problem, spec, calls


class TestOracleErrors:
    @pytest.mark.parametrize("kind", [ModelKind.HERMITE_LS, ModelKind.BOBYQA])
    @pytest.mark.parametrize("which", ["value", "derivative"])
    @pytest.mark.parametrize("at", [3, 20])  # 3 lies inside the initial set
    def test_run_stops_with_the_best_point_and_the_exception(self, kind, which, at):
        exc = RuntimeError("simulator crashed")
        problem, spec, calls = oracle_spec(which, at, exc)
        config = SolverConfig(kind=kind, max_evaluations=100)
        result = run(spec, problem.x_start, config)
        assert result.reason is TerminationReason.ORACLE_ERROR
        assert result.error is exc
        # the failed call is billed and logged, and nothing is evaluated after it
        assert result.evaluations == len(calls) == len(result.evaluation_log) == at
        f_best, i_best = min((problem.value(x), i) for i, x in enumerate(calls[:-1]))
        assert result.f_best == f_best
        assert np.array_equal(result.x_best, calls[i_best])
        assert result.evaluation_log[-1][1] == f_best
        purposes = [purpose for purpose, _ in result.evaluation_log]
        init = min(at, resolve_model(spec, config)[1])
        assert purposes[:init] == ["init"] * init and "init" not in purposes[init:]
        assert all(row.evaluations < at for row in result.trace)

    def test_first_call_raising_leaves_no_best_point(self):
        problem, spec, calls = oracle_spec("value", 1, ValueError("bad input"))
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS))
        assert result.reason is TerminationReason.ORACLE_ERROR
        assert isinstance(result.error, ValueError)
        assert result.evaluations == 1 and result.iterations == 0
        assert result.x_best is None and result.evaluation_log == [("init", float("inf"))]

    @pytest.mark.parametrize("which", ["derivative", "second_derivative"])
    @pytest.mark.parametrize("returned", ["longer", "shorter", "scalar"])
    def test_wrong_length_oracle_return_ends_the_run_billed(self, which, returned):
        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {1, 2}, {(1, 2), (2, 2)})
        good, count = getattr(spec, which), [0]

        def oracle(x):
            count[0] += 1
            entries = good(x)
            if count[0] < 7:
                return entries
            return {"longer": np.append(entries, 1.0), "shorter": entries[:1], "scalar": 1.0}[returned]

        spec = dataclasses.replace(spec, **{which: oracle})
        config = SolverConfig(kind=ModelKind.HERMITE_LS, second_order=True, max_evaluations=100)
        result = run(spec, problem.x_start, config)
        assert result.reason is TerminationReason.ORACLE_ERROR
        assert isinstance(result.error, ValueError) and "expected (2,)" in str(result.error)
        assert result.evaluations == len(result.evaluation_log) == count[0] == 7

    def test_solver_exceptions_pass_through_unbilled(self):
        problem, spec, calls = oracle_spec("value", 0, None)
        evaluator = Evaluator(spec, 1)
        with pytest.raises(OutOfBounds):
            evaluator(problem.bounds.upper + 1.0, "trial")
        evaluator(problem.x_start, "init")
        # the limit is checked before the box, and refuses before any call
        for x in (problem.x_start, problem.bounds.upper + 1.0):
            with pytest.raises(driver._Stop) as stop:
                evaluator(x, "trial")
            assert stop.value.reason is TerminationReason.BUDGET_EXHAUSTED and stop.value.__cause__ is None
        assert len(calls) == evaluator.used == len(evaluator.log) == 1


class TestLambdaCertificate:
    """The driver skips ``estimate_lambda`` when the largest Lagrange
    column bound is within the threshold; the skipped estimate could not
    have exceeded it."""

    @staticmethod
    def cases(name):
        if name == "lowdim":
            plan = ExperimentPlan(
                problems=("trid4", "qing5"),
                kinds=(ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA),
                noise="low",
                budget=300,
            )
            return plan, expand_plan(plan)
        problem, kind, kd = name
        plan = ExperimentPlan(problems=(problem,), kinds=(kind,), kd_values=(kd,), budget=500)
        return plan, expand_plan(plan)[:1]

    @pytest.mark.parametrize(
        "name",
        [("rosenbrock10", ModelKind.HERMITE_LS, 3), ("zakharov10", ModelKind.HERMITE_BOBYQA, 5), "lowdim"],
    )
    def test_skipped_estimates_stay_within_the_threshold(self, name, monkeypatch):
        threshold = SolverConfig().lambda_threshold
        tops, skipped, ran = [], [], []

        def bounds(family, region):
            result = column_bounds(family, region)
            tops.append(float(np.max(result)))
            if tops[-1] <= threshold:
                lam = estimate_lambda(family, region).lam
                assert lam <= tops[-1]
                skipped.append(lam)
            return result

        def estimate(family, region):
            result = estimate_lambda(family, region)
            assert result.lam <= tops[-1]
            ran.append(result.lam)
            return result

        monkeypatch.setattr(driver, "column_bounds", bounds)
        monkeypatch.setattr(driver, "estimate_lambda", estimate)
        plan, cases = self.cases(name)
        entries = registry()
        for case in cases:
            _run_case(case, plan, entries[case.problem])
        assert len(tops) == len(skipped) + len(ran) and skipped

    def test_nan_family_is_never_certified(self, monkeypatch):
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        config = SolverConfig(kind=ModelKind.HERMITE_LS)
        evaluator = Evaluator(spec, 50)
        state = initialize(spec, problem.x_start, config, evaluator)

        def poisoned(sys):
            family = lagrange_family(sys)
            coeffs = family.coeffs.copy()
            coeffs[0, 1] = np.nan
            return dataclasses.replace(family, coeffs=coeffs)

        estimates = []
        monkeypatch.setattr(driver, "lagrange_family", poisoned)
        monkeypatch.setattr(
            driver, "estimate_lambda", lambda family, region: estimates.append(1) or PoisednessEstimate(0.0)
        )
        _, lam, lam_bound = driver._propose_geometry(state, spec, config, state.radius)
        assert estimates == [1] and lam == 0.0 and np.isnan(lam_bound)


class TestProposers:
    """The rank repair and the geometry step propose on a crafted state,
    with no evaluator, and leave the training set as it was."""

    CROSS = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (-0.1, 0.0), (0.0, -0.1), (0.07, 0.07)]
    LINE = [(0.0, 0.0), (0.02, 0.0), (0.04, 0.0), (0.06, 0.0), (0.08, 0.0), (0.1, 0.0)]

    @staticmethod
    def state(points, radius=0.1):
        """A full-interp state of sphere2 on ``points``; the origin, first,
        is the incumbent."""
        problem, spec = spec_for("sphere2")
        ts = build_training_set(points, problem.value)
        state = driver.IterationState(0, ts, radius, np.zeros((2, 2)), radius, ModelKind.FULL_INTERP)
        return spec, state

    def test_rank_deficient_set_gets_no_geometry_point(self):
        spec, state = self.state(self.LINE)
        ts = state.ts
        proposal, lam, lam_bound = driver._propose_geometry(state, spec, SolverConfig(), state.radius)
        assert proposal is None and np.isnan(lam) and np.isnan(lam_bound)
        assert state.ts is ts

    def test_stale_set_proposes_for_the_farthest_point(self):
        far = 5
        points = list(self.CROSS)
        points[far] = (1.0, 0.5)  # beyond STALE_FACTOR radii
        spec, state = self.state(points)
        ts = state.ts
        proposal, lam, lam_bound = driver._propose_geometry(state, spec, SolverConfig(), state.radius)
        index, point = proposal
        assert index == far and np.isnan(lam) and np.isnan(lam_bound)
        assert np.linalg.norm(point) <= state.radius * (1 + 1e-12)
        assert not np.any(rows_equal(ts.points, point))
        assert state.ts is ts

    def test_repair_proposes_a_distinct_point_for_a_non_incumbent(self):
        spec, state = self.state(self.LINE)
        ts = state.ts
        sys = apply_scaling(driver._assemble(state, spec), state.radius)
        index, point = driver._propose_repair(state, spec, sys)
        assert index != ts.incumbent_index and point[1] != 0.0
        assert not np.any(rows_equal(ts.points, point)) and spec.bounds.contains(point)
        assert state.ts is ts

    def test_repair_proposes_nothing_when_every_index_is_skipped(self):
        spec, state = self.state(self.LINE)
        sys = apply_scaling(driver._assemble(state, spec), state.radius)
        skip = set(range(state.ts.size)) - {state.ts.incumbent_index}
        assert driver._propose_repair(state, spec, sys, skip=skip) is None


class TestReachableStates:
    def test_training_set_invariants_along_a_run(self):
        # every training set the loop reaches keeps its points feasible,
        # pairwise distinct and the incumbent at the argmin
        from hermiteopt.driver import initialize, step_iteration
        from hermiteopt.problem import points_equal

        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2})
        config = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=120)
        evaluator = Evaluator(spec, config.max_evaluations)
        state = initialize(spec, problem.x_start, config, evaluator)
        trace = []

        def check(ts):
            values = [r.value for r in ts.records]
            assert ts.incumbent_index == int(np.argmin(values))
            for i, a in enumerate(ts.records):
                assert problem.bounds.contains(a.point)
                for b in ts.records[i + 1:]:
                    assert not points_equal(a.point, b.point)

        check(state.ts)
        for _ in range(200):
            try:
                reason = step_iteration(state, spec, config, evaluator, trace)
            except Exception:
                break
            check(state.ts)
            if reason:
                break


class TestAssemblySpans:
    """perfbench's ``models.assemble`` and ``models.apply_scaling`` spans
    replace the four ``assemble_*`` names and ``apply_scaling`` as module
    globals of ``hermiteopt.driver``; a system built any other way would
    escape them."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_every_solved_system_passes_through_the_patched_names(self, kind, monkeypatch):
        seen = {"assembled": [], "scaled": [], "weighted": []}

        def wrap(name, into, source=None):
            real = getattr(driver, name)

            def wrapper(sys, *args, **kwargs):
                if source is not None:
                    assert any(sys is s for s in seen[source]), f"{name} got an unseen system"
                out = real(sys, *args, **kwargs)
                seen[into].append(out)
                return out

            monkeypatch.setattr(driver, name, wrapper)

        for name in ("assemble_full_interp", "assemble_min_frob", "assemble_hermite_ls", "assemble_hermite_bobyqa"):
            wrap(name, "assembled")
        wrap("apply_scaling", "scaled", "assembled")
        wrap("apply_weighting", "weighted", "scaled")
        consumed = []
        for name in ("solve_system", "lagrange_family"):
            real = getattr(driver, name)
            monkeypatch.setattr(driver, name, lambda sys, real=real: consumed.append(sys) or real(sys))

        problem, spec = spec_for("rosenbrock5", mask=(1, 3))
        result = run(spec, problem.x_start, SolverConfig(kind=kind, weighting=True, max_evaluations=120))
        assert result.trace and consumed
        built = seen["scaled"] + seen["weighted"]
        assert all(any(sys is s for s in built) for sys in consumed)
        assert len(seen["assembled"]) == len(seen["scaled"])
        assert bool(seen["weighted"]) == (kind in (ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA))


class TestEvaluateHook:
    """perfbench counts the returns of ``driver.evaluate``, a module global
    of ``hermiteopt.driver``, against billed evaluations: the driver calls
    it once per billed evaluation and never for a refused one."""

    @staticmethod
    def counted(monkeypatch):
        counts = {"calls": 0, "returns": 0}
        real = driver.evaluate

        def wrapper(spec, x):
            counts["calls"] += 1
            rec = real(spec, x)
            counts["returns"] += 1
            return rec

        monkeypatch.setattr(driver, "evaluate", wrapper)
        return counts

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_budget_exhausted_run_calls_it_once_per_billed_evaluation(self, kind, monkeypatch):
        counts = self.counted(monkeypatch)
        problem, spec = spec_for("rosenbrock2", mask=(2,))
        result = run(spec, problem.x_start, SolverConfig(kind=kind, max_evaluations=12))
        assert result.reason is TerminationReason.BUDGET_EXHAUSTED
        assert counts["calls"] == counts["returns"] == result.evaluations == 12

    @pytest.mark.parametrize("at", [3, 20])
    def test_nonfinite_run_returns_once_per_billed_evaluation(self, at, monkeypatch):
        counts = self.counted(monkeypatch)
        problem, spec, _ = TestNonFiniteValues.poisoned(float("nan"), at)
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=100))
        assert result.reason is TerminationReason.NONFINITE_VALUE
        assert counts["calls"] == counts["returns"] == result.evaluations == at


class TestStepFallbacks:
    """``step_iteration``'s fallbacks on an accepted trial, reached by
    replacing ``hermiteopt.driver`` module globals, as perfbench does."""

    @staticmethod
    def start():
        problem, spec = spec_for("sphere2")
        config = SolverConfig(kind=ModelKind.FULL_INTERP, max_evaluations=50)
        evaluator = Evaluator(spec, config.max_evaluations)
        return spec, config, evaluator, initialize(spec, problem.x_start, config, evaluator)

    def test_rank_deficient_family_replaces_the_farthest_point(self, monkeypatch):
        spec, config, evaluator, state = self.start()
        far = driver._farthest_index(state.ts)
        x_opt = state.ts.incumbent_record.point
        sys = apply_scaling(driver._assemble(state, spec), state.radius)
        step = driver.solve_subproblem(driver.solve_system(sys), x_opt, state.radius, spec.bounds)
        trial = spec.bounds.clip(x_opt + step)
        # the family's own choice differs, so the fallback is what decides
        assert driver.select_outgoing(lagrange_family(sys), trial) != far

        def rank_deficient(sys):
            raise RankDeficient("patched")

        monkeypatch.setattr(driver, "lagrange_family", rank_deficient)
        trace = []
        assert driver.step_iteration(state, spec, config, evaluator, trace) is None
        row = trace[-1]
        assert row.accepted and row.repairs == 0 and row.replaced == far
        assert np.array_equal(state.ts.records[far].point, trial)

    def test_trial_on_a_retained_point_leaves_the_set_unchanged(self, monkeypatch):
        spec, config, evaluator, state = self.start()
        ts = state.ts
        x_opt, f_opt = ts.incumbent_record.point, ts.incumbent_record.value
        others = [i for i in range(ts.size) if i != ts.incumbent_index]
        twin, outgoing = others[0], others[1]
        step = ts.records[twin].point - x_opt
        assert np.all(rows_equal(ts.points, x_opt + step) == (np.arange(ts.size) == twin))
        # after the initial set the oracle reads 1 lower, so the trial on
        # the retained point decreases the value, and the model predicts a
        # decrease of 1 along the step
        value, driver_solve = spec.value, driver.solve_system

        def shifted(x):
            return value(x) - 1.0 if evaluator.used >= ts.size else value(x)

        def solve(sys):
            driver_solve(sys)  # caches the factorization the trace row reads
            return QuadraticModel(x_opt, f_opt, -step / float(step @ step), np.zeros((2, 2)))

        monkeypatch.setattr(spec, "value", shifted)
        monkeypatch.setattr(driver, "solve_system", solve)
        monkeypatch.setattr(driver, "solve_subproblem", lambda *args: step)
        monkeypatch.setattr(driver, "select_outgoing", lambda family, y: outgoing)
        trace = []
        driver.step_iteration(state, spec, config, evaluator, trace)
        row = trace[-1]
        assert row.accepted and row.replaced is None
        assert state.ts is ts and evaluator.used == ts.size + 1
        assert evaluator.log[-1] == ("trial", evaluator.best_value) and evaluator.best_value < f_opt


class TestRankRepairScores:
    @staticmethod
    def reference_score(sys, null, cand, delta):
        """One candidate's score, its rows built on their own; the batched
        scoring must reproduce it bit for bit."""
        z = cand - sys.shift
        axes = sorted({tag[2] - 1 for tag in row_tags(sys.blocks) if tag[0] == "grad"})
        rows = np.vstack(
            [
                sys.basis.value_row(z) * sys.col_scale,
                sys.basis.derivative_rows(z, axes) * sys.col_scale * delta,
            ]
        )
        score = 0.0
        for row in rows:
            norm = float(np.linalg.norm(row))
            if norm > 0:
                score += float(np.linalg.norm(null @ (row / norm)) ** 2)
        return score

    @pytest.mark.parametrize("directions", [(), (2,), (1, 3), (1, 2, 3, 4)])
    def test_scores_equal_per_candidate_loop(self, directions):
        n = 4
        rng = np.random.default_rng(90 + len(directions))
        for _ in range(10):
            _, _, _, fn, grad = random_quadratic(n, rng)
            count = 15 if not directions else 9
            points = rng.normal(size=(count, n)) * 10.0 ** rng.uniform(-2, 1)
            points[:, -1] = 0.0  # points on a hyperplane leave a null space
            ts = build_training_set(points, fn, grad, directions)
            if directions:
                sys = assemble_hermite_ls(ts, availability(directions))
            else:
                sys = assemble_full_interp(ts)
            delta = float(10.0 ** rng.uniform(-3, 1))
            sys = apply_scaling(sys, delta)
            null = _null_basis(sys)
            moves = rng.normal(size=(30, n)) * delta * 10.0 ** rng.uniform(-3, 0, size=(30, 1))
            candidates = np.vstack([sys.shift, sys.shift + moves])
            expected = [self.reference_score(sys, null, c, delta) for c in candidates]
            assert _null_space_scores(sys, null, candidates, delta) == expected

    @staticmethod
    def repair_system(n, rng, trial):
        """A scaled full-interp or hermite-ls system on a seeded set, and
        the rank repair's ± candidates around its incumbent."""
        q1 = (n + 1) * (n + 2) // 2
        directions = ()
        if trial % 3:
            k_d = int(rng.integers(1, n + 1))
            directions = tuple(sorted(int(d) for d in rng.choice(np.arange(1, n + 1), k_d, replace=False)))
        count = q1 if not directions else max(n + 2, -(-q1 // (1 + len(directions))) + 1)
        _, _, _, fn, grad = random_quadratic(n, rng)
        points = rng.normal(size=(count, n)) * 10.0 ** rng.uniform(-2, 1)
        if trial % 2 == 0:
            points[:, -1] = 0.0  # points on a hyperplane leave a null space
        ts = build_training_set(points, fn, grad, directions)
        if directions:
            sys = assemble_hermite_ls(ts, availability(directions))
        else:
            sys = assemble_full_interp(ts)
        delta = float(10.0 ** rng.uniform(-3, 1))
        sys = apply_scaling(sys, delta)
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        steps = np.vstack([v, -v, driver._pair_directions(n)])
        return sys, ts.incumbent_record.point + delta * steps, delta

    @pytest.mark.parametrize("n", range(2, 11))
    def test_certified_pick_equals_the_loop_argmax(self, n):
        rng = np.random.default_rng(300 + n)
        rescored = []
        for trial in range(6):
            sys, candidates, delta = self.repair_system(n, rng, trial)
            null = _null_basis(sys)
            loop = np.array(_null_space_scores(sys, null, candidates, delta))
            stacked, bound = driver._stacked_scores(null, *driver._candidate_rows(sys, candidates, delta))
            assert 0 < bound < 1e-9
            assert np.all(np.abs(stacked - loop) <= bound)
            assert driver._best_candidate(sys, null, candidates, delta) == int(np.argmax(loop))
            rescored.append(np.count_nonzero(stacked >= np.max(stacked) - 2 * bound))
        # ± candidates tie exactly on the hyperplane sets, so ties are re-scored
        assert max(rescored) > 1

    def test_rows_out_of_range_fall_back_to_the_loop(self):
        rng = np.random.default_rng(320)
        sys, candidates, delta = self.repair_system(3, rng, 0)
        null = _null_basis(sys)
        for far in (1e75, np.nan):
            moved = candidates.copy()
            moved[5] = sys.shift + far * delta
            assert driver._stacked_scores(null, *driver._candidate_rows(sys, moved, delta)) is None
            loop = _null_space_scores(sys, null, moved, delta)
            assert driver._best_candidate(sys, null, moved, delta) == int(np.argmax(loop))


def reference_repair_candidates(n: int, direction: np.ndarray):
    """The rank repair's candidate directions as a generator built them."""
    yield direction
    yield -direction
    root2 = np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            off = np.zeros(n)
            off[i] = off[j] = 1.0 / root2
            yield off
            yield -off
            flipped = off.copy()
            flipped[j] = -flipped[j]
            yield flipped
            yield -flipped


def batch_first_distinct(x_opt, delta, directions, bounds, points):
    """The Frobenius kinds' repair pick as a batch over every direction
    chose it."""
    for scale in (1.0, 0.5, 0.25):
        candidates = bounds.clip(x_opt + scale * delta * directions)
        candidates = candidates[~np.any(rows_equal(points, candidates), axis=1)]
        if len(candidates):
            return candidates[0]
    return None


class TestRepairDirections:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_first_distinct_equals_the_batch_filter(self, n):
        rng = np.random.default_rng(330 + n)
        picks = set()
        for trial in range(40):
            x_opt = rng.normal(size=n)
            delta = float(10.0 ** rng.uniform(-4, 0))
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            directions = np.vstack([v, -v, driver._pair_directions(n)])
            # faces within two radii, some through x_opt, clip many candidates onto one point
            lower = x_opt - delta * rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
            upper = x_opt + delta * rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
            bounds = Bounds(lower, upper)
            every = [bounds.clip(x_opt + s * delta * directions) for s in (1.0, 0.5, 0.25)]
            # the set holds the incumbent and a seeded share of the candidates
            pool = np.vstack(every)
            share = (0.0, 0.5, 0.9, 1.0)[trial % 4]
            points = np.vstack([x_opt, pool[rng.random(len(pool)) < share]])
            lazy = driver._first_distinct(x_opt, delta, directions, bounds, points)
            batch = batch_first_distinct(x_opt, delta, directions, bounds, points)
            if batch is None:
                assert lazy is None
                picks.add("none")
            else:
                assert lazy.tobytes() == batch.tobytes()
                picks.add("first" if batch.tobytes() == every[0][0].tobytes() else "later")
        assert picks == {"none", "first", "later"}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_table_equals_the_generator_bit_for_bit(self, n):
        direction = np.random.default_rng(n).normal(size=n)
        direction[0] = 0.0  # a zero entry keeps its sign under negation
        expected = np.array(list(reference_repair_candidates(n, direction)))
        stacked = np.vstack([direction, -direction, driver._pair_directions(n)])
        assert stacked.shape == expected.shape == (2 + 2 * n * (n - 1), n)
        assert stacked.tobytes() == expected.tobytes()

    def test_table_is_built_once_per_dimension_and_read_only(self):
        table = driver._pair_directions(7)
        assert driver._pair_directions(7) is table
        assert not table.flags.writeable


class TestConfigValidation:
    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            SolverConfig(initial_radius=1e-9, min_radius=1e-8)

    def test_lambda_threshold_is_a_constant(self):
        assert len(dataclasses.fields(SolverConfig)) == 8
        assert SolverConfig().lambda_threshold == SolverConfig.lambda_threshold == driver.LAMBDA_THRESHOLD == 100.0
        with pytest.raises(TypeError):
            SolverConfig(lambda_threshold=1.0)


def test_default_point_counts_match_formulas():
    # full interpolation: complete quadratic count
    assert default_point_count(ModelKind.FULL_INTERP, 3) == 10
    # Frobenius kinds: 2n+1
    assert default_point_count(ModelKind.BOBYQA, 5) == 11
    assert default_point_count(ModelKind.HERMITE_BOBYQA, 5, (1,)) == 11
    # Hermite least squares: max(2n+1-kd, ceil(q1/(1+kd))) when structure allows
    assert default_point_count(ModelKind.HERMITE_LS, 2, (1, 2)) == 3
    assert default_point_count(ModelKind.HERMITE_LS, 3, (1, 2)) == 5
    # with no derivatives it degenerates to the square interpolation count
    assert default_point_count(ModelKind.HERMITE_LS, 2, ()) == 6


OPENBLAS = _blas.find_openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS entry points not found")


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, the count before it restored after."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


def _counting_spec(get, seen, fail_after=None):
    problem = get_problem("rosenbrock2")

    def value(x):
        if fail_after is not None and len(seen) >= fail_after:
            raise RuntimeError("oracle failed")
        seen.append(get())
        return problem.value(x)

    return problem, dataclasses.replace(mask_availability(problem, {2}), value=value)


@needs_openblas
class TestOneBlasThread:
    def test_oracle_sees_one_thread_and_count_is_restored(self, two_blas_threads):
        seen = []
        problem, spec = _counting_spec(two_blas_threads, seen)
        run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=40))
        assert len(seen) == 40 and set(seen) == {1}
        assert two_blas_threads() == 2

    def test_count_restored_after_oracle_raises(self, two_blas_threads):
        seen = []
        problem, spec = _counting_spec(two_blas_threads, seen, fail_after=7)
        result = run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=40))
        assert result.reason is TerminationReason.ORACLE_ERROR
        assert isinstance(result.error, RuntimeError) and str(result.error) == "oracle failed"
        assert set(seen) == {1}
        assert two_blas_threads() == 2

    def test_concurrent_runs_restore_the_original_count(self, two_blas_threads):
        # more threads than cores and a short switch interval, so that the
        # holds of different runs interleave
        seen = []
        problem, spec = _counting_spec(two_blas_threads, seen)
        config = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=30)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(run(spec, problem.x_start, config)))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [r.evaluations for r in results] == [30] * 4
        assert set(seen) == {1}
        assert two_blas_threads() == 2


def test_run_without_blas_entry_points_gives_the_same_result(monkeypatch):
    problem, spec = spec_for("rosenbrock10", mask=(2, 5, 9))
    config = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=150)
    held = run(spec, problem.x_start, config)
    monkeypatch.setattr(_blas, "one_blas_thread", _blas.ThreadLimit(lambda: None))
    free = run(spec, problem.x_start, config)
    assert np.array_equal(held.x_best, free.x_best)
    assert (held.f_best, held.evaluations, held.iterations, held.reason) == (
        free.f_best, free.evaluations, free.iterations, free.reason,
    )
    assert repr(held.trace) == repr(free.trace)


class TestThreadLimit:
    """The hold's bookkeeping, on a fake BLAS."""

    def fake(self, count=3):
        calls = []
        state = {"count": count}

        def set_(k):
            calls.append(k)
            state["count"] = k

        return _blas.ThreadLimit(lambda: (lambda: state["count"], set_)), calls, state

    def test_nested_holds_set_once_and_restore_once(self):
        limit, calls, state = self.fake()
        with limit:
            with limit:
                assert state["count"] == 1
            assert state["count"] == 1
        assert calls == [1, 3]

    def test_restores_after_exception(self):
        limit, calls, state = self.fake()
        with pytest.raises(KeyError):
            with limit:
                raise KeyError("x")
        assert calls == [1, 3] and state["count"] == 3

    def test_lookup_runs_once_on_first_hold(self):
        lookups = []
        limit = _blas.ThreadLimit(lambda: lookups.append(1))
        assert lookups == []
        for _ in range(3):
            with limit:
                pass
        assert lookups == [1]


def test_import_skips_blas_lookup_and_lookup_loads_nothing():
    code = """
from pathlib import Path
import hermiteopt, hermiteopt._blas as b
assert not b.one_blas_thread._looked_up
maps = Path("/proc/self/maps")
def loaded():
    if not maps.exists():
        return set()
    return {line.split()[-1] for line in maps.read_text().splitlines() if "/" in line}
before = loaded()
b.find_openblas()
assert loaded() == before
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)

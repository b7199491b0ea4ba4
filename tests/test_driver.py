import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from util import availability, build_training_set, random_quadratic

from hermiteopt import _blas

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
    predicted_decrease,
    resolved_point_count,
    run,
)
from hermiteopt.exceptions import DegenerateModelDecrease, OutOfBounds
from hermiteopt.models import (
    QuadraticModel,
    apply_scaling,
    assemble_full_interp,
    assemble_hermite_ls,
)
from hermiteopt.problem import Bounds, EvaluationBudget, ObjectiveSpec, TaylorReference
from hermiteopt.testbed import get_problem, mask_availability


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
        budget = EvaluationBudget(100)
        ev = Evaluator(spec, budget)
        config = SolverConfig(kind=ModelKind.BOBYQA)
        state = initialize(spec, problem.x_start, config, ev)
        assert state.ts.size == 5
        assert budget.evaluations_used == 5
        assert state.radius == pytest.approx(0.1 * max(1.0, np.max(np.abs(problem.x_start))))

    def test_out_of_bounds_start(self):
        problem, spec = spec_for("sphere2")
        with pytest.raises(OutOfBounds):
            initialize(
                spec,
                np.array([50.0, 0.0]),
                SolverConfig(),
                Evaluator(spec, EvaluationBudget(10)),
            )


class TestPredictedDecrease:
    def test_degenerate_decrease(self):
        assert predicted_decrease(10.0, 10.0, 4.0) == 6.0
        with pytest.raises(DegenerateModelDecrease):
            predicted_decrease(1.0, 1.0, 1.0 - 1e-20)


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
        init = resolved_point_count(spec, config)
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
        assert resolved_point_count(spec, config) > 3
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
        init = min(at, resolved_point_count(spec, config))
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


class TestReachableStates:
    def test_training_set_invariants_along_a_run(self):
        # every training set the loop reaches keeps its points feasible,
        # pairwise distinct and the incumbent at the argmin
        from hermiteopt.driver import initialize, step_iteration
        from hermiteopt.problem import EvaluationBudget, points_equal

        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2})
        config = SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=120)
        budget = EvaluationBudget(config.max_evaluations)
        evaluator = Evaluator(spec, budget)
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


class TestRankRepairScores:
    @staticmethod
    def reference_score(sys, null, cand, delta):
        """One candidate's score, its rows built on their own; the batched
        scoring must reproduce it bit for bit."""
        z = cand - sys.shift
        axes = sorted({tag[2] - 1 for tag in sys.row_tags if tag[0] == "grad"})
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


class TestConfigValidation:
    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            SolverConfig(initial_radius=1e-9, min_radius=1e-8)


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
        with pytest.raises(RuntimeError, match="oracle failed"):
            run(spec, problem.x_start, SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=40))
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

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiteopt.driver import Evaluator, TerminationReason, _Stop
from hermiteopt.exceptions import DuplicatePoint, OutOfBounds
from hermiteopt.problem import (
    Bounds,
    DerivativeAvailability,
    EvaluationRecord,
    ObjectiveSpec,
    TrainingSet,
    evaluate,
    points_equal,
    rows_equal,
)
from hermiteopt.testbed import mask_availability, rosenbrock


def make_spec(n=2, mask=(1, 2)):
    return mask_availability(rosenbrock(n), set(mask))


def record(point, value):
    return EvaluationRecord(point=np.asarray(point, dtype=float), value=value)


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_contains_and_clip(self):
        b = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert b.contains(np.array([0.5, -1.0]))
        assert not b.contains(np.array([1.5, 0.0]))
        assert np.array_equal(b.clip(np.array([2.0, -3.0])), np.array([1.0, -1.0]))


class TestAvailability:
    def test_range_check(self):
        av = DerivativeAvailability(first_order=frozenset({3}))
        with pytest.raises(ValueError):
            av.validate(2)

    def test_pair_order(self):
        with pytest.raises(ValueError):
            DerivativeAvailability(second_order=frozenset({(2, 1)}))

    def test_directions_sorted(self):
        av = DerivativeAvailability(first_order=frozenset({3, 1}))
        assert av.directions == (1, 3)
        assert av.k_d == 2


class TestEvaluate:
    def test_rosenbrock_start_value(self):
        # f(1.2, 2) = 31.4 at the standard start
        spec = make_spec()
        rec = evaluate(spec, np.array([1.2, 2.0]))
        assert rec.value == pytest.approx(31.4, abs=1e-12)

    def test_optimum_record(self):
        spec = make_spec(mask=(2,))
        rec = evaluate(spec, np.array([1.0, 1.0]))
        assert rec.value == pytest.approx(0.0, abs=1e-14)
        assert rec.gradient[2] == pytest.approx(0.0, abs=1e-14)
        assert 1 not in rec.gradient

    def test_deterministic_repeat(self):
        spec = make_spec()
        x = np.array([0.3, -0.7])
        a = evaluate(spec, x)
        b = evaluate(spec, x)
        assert a.value == b.value
        assert a.gradient == b.gradient

    def test_out_of_bounds(self):
        spec = make_spec()
        with pytest.raises(OutOfBounds):
            evaluate(spec, np.array([100.0, 0.0]))

    def test_budget_exhausted(self):
        # evaluate counts nothing; the Evaluator refuses at its limit,
        # before any oracle call, and bills and logs nothing for it
        problem = rosenbrock(2)
        calls = []
        spec = dataclasses.replace(make_spec(), value=lambda x: calls.append(x) or problem.value(x))
        for _ in range(3):
            evaluate(spec, np.array([0.0, 0.0]))
        evaluator = Evaluator(spec, 1)
        evaluator(np.array([0.0, 0.0]), "init")
        with pytest.raises(_Stop) as stop:
            evaluator(np.array([1.0, 0.0]), "trial")
        assert stop.value.reason is TerminationReason.BUDGET_EXHAUSTED and stop.value.__cause__ is None
        assert len(calls) == 4 and evaluator.used == len(evaluator.log) == 1

    def test_billing_counts_value_calls_exactly(self):
        # the counting wrapper sees one value call per billed evaluation
        problem = rosenbrock(2)
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return problem.value(x)

        spec = ObjectiveSpec(
            dimension=2,
            value=counted,
            bounds=problem.bounds,
            availability=DerivativeAvailability(first_order=frozenset({1, 2})),
            derivative=problem.gradient,
        )
        evaluator = Evaluator(spec, 7)
        rng = np.random.default_rng(0)
        for _ in range(7):
            evaluator(rng.uniform(-1, 1, size=2), "trial")
        assert calls["n"] == 7 == evaluator.used

    @pytest.mark.parametrize("mask, pairs, expected", [
        ((), (), ["value"]),
        ((2,), (), ["value", "derivative"]),
        ((1, 2), ((1, 2),), ["value", "derivative", "second"]),
    ])
    def test_one_call_per_order_in_order(self, mask, pairs, expected):
        spec = mask_availability(rosenbrock(2), set(mask), pairs)
        calls = []

        def logged(name, fn):
            def oracle(x):
                calls.append(name)
                return fn(x)

            return oracle

        spec.value = logged("value", spec.value)
        spec.derivative = logged("derivative", spec.derivative)
        spec.second_derivative = logged("second", spec.second_derivative)
        evaluate(spec, np.array([0.5, 0.25]))
        assert calls == expected

    @pytest.mark.parametrize("entries", [[1.0], [1.0, 2.0, 3.0], [[1.0], [2.0]], 4.0])
    def test_wrong_shape_derivatives_rejected_after_billing(self, entries):
        spec = make_spec(mask=(1, 2))
        spec.derivative = lambda x: entries
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            evaluate(spec, np.array([0.0, 0.0]))
        evaluator = Evaluator(spec, 1)
        with pytest.raises(_Stop) as stop:
            evaluator(np.array([0.0, 0.0]), "init")
        assert stop.value.reason is TerminationReason.ORACLE_ERROR
        assert isinstance(stop.value.__cause__, ValueError) and evaluator.used == len(evaluator.log) == 1


class TestTrainingSet:
    def test_incumbent_argmin(self):
        ts = TrainingSet.from_records(
            [record([0, 0], 3.0), record([1, 0], 1.0), record([0, 1], 2.0)]
        )
        assert ts.incumbent_index == 1
        best = ts.incumbent_record
        assert best.value == 1.0
        assert np.array_equal(best.point, [1.0, 0.0])

    def test_tie_breaks_earliest(self):
        ts = TrainingSet.from_records([record([0, 0], 1.0), record([1, 0], 1.0)])
        assert ts.incumbent_index == 0

    def test_empty_set(self):
        with pytest.raises(ValueError, match="needs at least one record"):
            TrainingSet.from_records([])

    def test_duplicate_rejected_at_build(self):
        with pytest.raises(DuplicatePoint):
            TrainingSet.from_records([record([0, 0], 1.0), record([0, 0], 2.0)])

    def test_replace_updates_incumbent(self):
        ts = TrainingSet.from_records(
            [record([0, 0], 3.0), record([1, 0], 1.0), record([0, 1], 2.0)]
        )
        better = record([2, 2], 0.5)
        ts2 = ts.replace(0, better)
        assert ts2.incumbent_index == 0
        assert ts2.size == ts.size
        worse = record([3, 3], 9.0)
        ts3 = ts.replace(2, worse)
        assert ts3.incumbent_index == 1

    def test_replace_duplicate_rejected(self):
        ts = TrainingSet.from_records([record([0, 0], 1.0), record([1, 0], 2.0)])
        with pytest.raises(DuplicatePoint):
            ts.replace(1, record([0, 0], 5.0))

    def test_replace_bad_index(self):
        ts = TrainingSet.from_records([record([0, 0], 1.0)])
        with pytest.raises(IndexError):
            ts.replace(5, record([1, 1], 0.0))

    def test_incumbent_recomputed_below_current(self):
        # recompute argmin by scan after a replacement lowers a value
        rng = np.random.default_rng(3)
        records = [record(rng.uniform(size=2), v) for v in (4.0, 2.0, 3.0)]
        ts = TrainingSet.from_records(records)
        ts = ts.replace(2, record([9, 9], 0.25))
        values = [r.value for r in ts.records]
        assert ts.incumbent_index == int(np.argmin(values))


def test_points_equal_tolerance():
    a = np.array([1.0, 1.0])
    assert points_equal(a, a + 1e-16)
    assert not points_equal(a, a + 1e-10)
    big = np.array([1e8, 0.0])
    assert points_equal(big, big + np.array([0.0, 1e-7]))


@st.composite
def near_point_sets(draw):
    """A few points of one dimension, some placed next to an earlier one
    at multiples of the 1e-14 relative threshold (both sides of it, and
    on it), at magnitudes up to 1e12."""
    n = draw(st.integers(1, 4))
    magnitude = 10.0 ** draw(st.integers(-3, 12))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(coords, min_size=n, max_size=n))) * magnitude
    points = [base]
    for _ in range(draw(st.integers(1, 5))):
        src = points[draw(st.integers(0, len(points) - 1))]
        if draw(st.booleans()):
            points.append(np.array(draw(st.lists(coords, min_size=n, max_size=n))) * magnitude)
            continue
        scale = max(1.0, float(np.max(np.abs(src))))
        factor = draw(st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0]))
        step = np.zeros(n)
        step[draw(st.integers(0, n - 1))] = factor * 1e-14 * scale * draw(st.sampled_from([-1.0, 1.0]))
        moved = src + step
        if draw(st.booleans()):  # one ulp either way of the nominal offset
            moved = np.nextafter(moved, draw(st.sampled_from([-np.inf, np.inf])))
        points.append(moved)
    return np.array(points)


class TestArrayDuplicateCheck:
    @settings(max_examples=300, deadline=None)
    @given(near_point_sets())
    def test_agrees_with_pairwise_points_equal(self, P):
        m = len(P)
        pairwise = np.array([[points_equal(P[a], P[b]) for b in range(m)] for a in range(m)])
        for b in range(m):
            assert np.array_equal(rows_equal(P, P[b]), pairwise[:, b])
        assert np.array_equal(rows_equal(P, P), pairwise.T)  # a stack of points at once

        dupes = [(a, b) for a in range(m) for b in range(a + 1, m) if pairwise[a, b]]
        records = [record(p, float(k)) for k, p in enumerate(P)]
        if dupes:
            with pytest.raises(DuplicatePoint, match=f"records {dupes[0][0]} and {dupes[0][1]} "):
                TrainingSet.from_records(records)
            return
        ts = TrainingSet.from_records(records)
        for out in range(m):
            for c in range(m):
                incoming = record(P[c], -1.0)
                if any(pairwise[i, c] for i in range(m) if i != out):
                    with pytest.raises(DuplicatePoint):
                        ts.replace(out, incoming)
                else:
                    assert ts.replace(out, incoming).size == m

    def test_threshold_is_strict(self):
        x = np.array([1e6, 0.0])
        tol = 1e-14 * 1e6
        for off in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
            y = np.array([1e6, off])
            assert points_equal(x, y) == (off < tol) == rows_equal(y[None], x)[0]
            assert points_equal(y, x) == rows_equal(x[None], y)[0]

    def test_points_are_cached_and_read_only(self):
        ts = TrainingSet.from_records([record([0, 0], 1.0), record([1, 0], 2.0)])
        assert ts.points is ts.points
        assert not ts.points.flags.writeable
        with pytest.raises(ValueError):
            ts.points[0, 0] = 5.0
        assert np.array_equal(ts.replace(1, record([0, 2], 0.5)).points, [[0.0, 0.0], [0.0, 2.0]])

import dataclasses

import numpy as np
import pytest

from hermiteopt.driver import Evaluator
from hermiteopt.problem import evaluate
from hermiteopt.yields import (
    BOUNDS,
    DECAY,
    R_GRID,
    SIGMA,
    START_POINT,
    START_YIELD,
    SamplingMode,
    THRESHOLD,
    YieldProblem,
    surrogate_response,
    yield_estimate,
    yield_gradient_means,
    yield_objective,
)


class TestEstimator:
    def test_range_grid(self):
        assert len(R_GRID) == 11
        assert R_GRID[0] == pytest.approx(2 * np.pi * 6.5)
        assert R_GRID[-1] == pytest.approx(2 * np.pi * 7.5)
        steps = np.diff(R_GRID)
        assert np.allclose(steps, steps[0])

    def test_start_yield_calibration(self):
        yp = YieldProblem(n_mc=2500, seed=0)
        assert yield_estimate(yp, START_POINT) == pytest.approx(START_YIELD, abs=0.03)

    def test_spread_is_the_calibrated_constant(self):
        # DECAY is calibrated from SIGMA, so the spread is no field
        assert "sigma" not in {f.name for f in dataclasses.fields(YieldProblem)}
        expected = SIGMA * np.random.default_rng(9).standard_normal((4, 2))
        assert np.array_equal(YieldProblem(n_mc=4, seed=9).samples(np.zeros(2)), expected)

    def test_estimate_in_unit_interval(self):
        rng = np.random.default_rng(0)
        yp = YieldProblem(n_mc=200, seed=1)
        for _ in range(20):
            x = rng.uniform(BOUNDS.lower, BOUNDS.upper)
            assert 0.0 <= yield_estimate(yp, x) <= 1.0

    def test_all_safe_when_response_low(self):
        # pushing the means far from the response bump makes everything safe
        yp = YieldProblem(n_mc=500, seed=2)
        x = np.array([13.0, 9.0, 0.0, 0.0])  # means far from the moved bump
        assert yield_estimate(yp, x) == 1.0

    def test_none_safe_when_every_draw_lands_in_the_bump(self):
        # the calibrated radius around the bump center (9, 5) is unsafe
        yp = YieldProblem(n_mc=5, seed=28)
        radius = SIGMA * np.sqrt(-2.0 * np.log(START_YIELD))
        assert np.all(np.linalg.norm(yp.samples(START_POINT[:2]) - [9.0, 5.0], axis=1) < radius)
        assert yield_estimate(yp, START_POINT) == 0.0

    def test_fixed_shifted_deterministic(self):
        yp = YieldProblem(n_mc=1000, seed=4)
        x = np.array([9.5, 5.5, 1.0, 1.0])
        assert yield_estimate(yp, x) == yield_estimate(yp, x)

    def test_resampled_draws_fresh(self):
        yp = YieldProblem(n_mc=400, seed=5, sampling=SamplingMode.RESAMPLED)
        x = np.array([9.5, 5.5, 1.0, 1.0])
        values = {yield_estimate(yp, x) for _ in range(10)}
        assert len(values) > 1

    def test_surrogate_threshold_structure(self):
        # far from the bump the ripple alone keeps the response below the
        # threshold at every grid frequency
        far = surrogate_response(R_GRID, 100.0, 100.0, 1.0, 1.0)
        assert np.all(far <= THRESHOLD)
        close = surrogate_response(R_GRID, 9.0, 5.0, 1.0, 1.0)
        assert np.any(close > THRESHOLD)


def _full_grid_mask(samples, d):
    response = surrogate_response(
        R_GRID[None, :], samples[:, 0, None], samples[:, 1, None], d[0], d[1]
    )
    return np.all(response <= THRESHOLD, axis=1)


class TestWorstFrequencyMask:
    def test_matches_full_grid_on_seeded_designs(self):
        rng = np.random.default_rng(20)
        span = BOUNDS.upper - BOUNDS.lower
        all_safe = none_safe = mixed = 0
        for k in range(3200):
            n_mc = 1 if k % 8 == 0 else int(rng.integers(2, 200))
            spread = 1e-12 if k % 5 == 0 else float(rng.uniform(0.05, 2.0))
            if k % 2:
                # the box and a box-width beyond it on every side
                x = rng.uniform(BOUNDS.lower - span, BOUNDS.upper + span)
            else:
                # means near the moved bump, where the threshold is crossed
                d = rng.uniform(BOUNDS.lower[2:] - 1.0, BOUNDS.upper[2:] + 1.0)
                center = np.array([9.0 + 2.0 * (d[0] - 1.0), 5.0 + 2.0 * (d[1] - 1.0)])
                x = np.concatenate([center + rng.normal(0.0, 1.0, 2), d])
            samples = x[:2] + spread * np.random.default_rng(k).standard_normal((n_mc, 2))
            mask = YieldProblem(n_mc=1).safe_mask(samples, x[2:])
            expected = _full_grid_mask(samples, x[2:])
            assert mask.shape == expected.shape == (n_mc,)
            assert np.array_equal(mask, expected), (k, x, spread)
            all_safe += bool(mask.all())
            none_safe += not mask.any()
            mixed += 0 < mask.sum() < n_mc
        assert all_safe and none_safe and mixed

    def test_matches_full_grid_at_the_threshold_radius(self):
        # distances a few ulps either side of the radius where the worst
        # frequency meets the threshold exactly
        rho_sq = -DECAY * np.log((THRESHOLD + 30.0 - 0.4 * np.max(np.sin(R_GRID))) / 8.0)
        radius = np.sqrt(rho_sq) * (1.0 + 1e-16 * np.arange(-4000, 4001))
        angle = np.linspace(0.0, 2.0 * np.pi, radius.size)
        d = np.array([1.0, 1.0])
        samples = np.column_stack([9.0 + radius * np.cos(angle), 5.0 + radius * np.sin(angle)])
        mask = YieldProblem(n_mc=1).safe_mask(samples, d)
        assert np.array_equal(mask, _full_grid_mask(samples, d))
        assert 0 < mask.sum() < mask.size

    def test_non_finite_inputs_match_full_grid(self):
        inf, nan = np.inf, np.nan
        samples = np.array(
            [[nan, 5.0], [9.0, nan], [inf, 5.0], [-inf, 5.0], [inf, inf], [9.0, 5.0], [40.0, 5.0]]
        )
        yp = YieldProblem(n_mc=1)
        for d in ([1.0, 1.0], [inf, 1.0], [-inf, 1.0], [nan, 1.0], [1.0, inf]):
            d = np.array(d)
            with np.errstate(invalid="ignore"):
                expected = _full_grid_mask(samples, d)
                assert np.array_equal(yp.safe_mask(samples, d), expected)


class TestGradient:
    def test_matches_finite_differences_fixed_sample(self):
        # verified seed/point/step combinations; the fixed-sample
        # estimator is a staircase, so the step must average enough flips
        cases = [
            (0, np.array([10.0, 5.5, 1.0, 1.0]), 0.2),
            (1, np.array([8.3, 5.2, 0.8, 1.1]), 0.2),
        ]
        for seed, x, h in cases:
            yp = YieldProblem(n_mc=2500, seed=seed)
            g = yield_gradient_means(yp, x)
            for j in range(2):
                e = np.zeros(4)
                e[j] = h
                fd = (yield_estimate(yp, x + e) - yield_estimate(yp, x - e)) / (2 * h)
                assert abs(g[j] - fd) <= 2e-2

    def test_zero_when_nothing_safe(self):
        yp = YieldProblem(n_mc=5, seed=28)  # every draw is unsafe, as above
        g = yield_gradient_means(yp, START_POINT)
        assert np.array_equal(g, np.zeros(2))

    def test_near_zero_at_symmetric_start(self):
        yp = YieldProblem(n_mc=2500, seed=7)
        g = yield_gradient_means(yp, START_POINT)
        assert np.linalg.norm(g) < 0.05

    def test_gradient_consumes_no_budget(self):
        spec = yield_objective("nonoise", seed=8)
        evaluator = Evaluator(spec, 1)
        rec = evaluator(START_POINT, "init")
        assert evaluator.used == 1
        assert set(rec.gradient) == {1, 2}


class TestObjectiveSpec:
    def test_nonoise_bitwise_deterministic(self):
        spec = yield_objective("nonoise", seed=9)
        x = np.array([9.2, 5.1, 1.1, 0.9])
        assert spec.value(x) == spec.value(x)

    def test_highnoise_sample_count(self):
        spec = yield_objective("highnoise", seed=10)
        # 100 samples quantize the estimate to hundredths
        v = -spec.value(START_POINT)
        assert round(v * 100) == pytest.approx(v * 100, abs=1e-9)

    def test_lownoise_draws_fresh(self):
        spec = yield_objective("lownoise", seed=11)
        x = np.array([9.2, 5.1, 1.1, 0.9])
        assert len({spec.value(x) for _ in range(8)}) > 1

    def test_minimization_sign(self):
        spec = yield_objective("nonoise", seed=13)
        yp = YieldProblem(n_mc=2500, seed=13)
        x = np.array([9.4, 5.2, 1.0, 1.0])
        assert spec.value(x) == pytest.approx(-yield_estimate(yp, x))

    def test_nonoise_interleaved_points_match_a_fresh_spec(self):
        x1 = np.array([9.6, 5.3, 1.1, 0.9])
        x2 = np.array([10.2, 4.7, 0.8, 1.2])
        spec = yield_objective("nonoise", seed=14)
        for x in (x1, x2, x1, x1):
            got = (spec.value(x), *spec.derivative(x))
            fresh = yield_objective("nonoise", seed=14)
            # derivatives first: a fresh spec has no value to reuse
            d1, d2 = fresh.derivative(x)
            assert got == (fresh.value(x), d1, d2)
            g = yield_gradient_means(YieldProblem(n_mc=2500, seed=14), x)
            assert got[1:] == (-float(g[0]), -float(g[1]))

    @pytest.mark.parametrize("mode, estimates", [("nonoise", 1), ("lownoise", 3)])
    def test_estimates_per_evaluation(self, monkeypatch, mode, estimates):
        calls = []
        full = YieldProblem.safe_mask

        def counting(self, samples, d):
            calls.append(len(samples))
            return full(self, samples, d)

        monkeypatch.setattr(YieldProblem, "safe_mask", counting)
        spec = yield_objective(mode, seed=15)
        evaluate(spec, START_POINT)
        # one estimate per point in fixed-shifted mode; resampled modes
        # still estimate once per oracle call, 1 + k_d times
        assert calls == [2500] * estimates

    def test_lownoise_draws_once_per_oracle_call_in_order(self):
        spec = yield_objective("lownoise", seed=16)
        yp = YieldProblem(n_mc=2500, sampling=SamplingMode.RESAMPLED, seed=16)
        x = np.array([9.3, 5.4, 1.0, 1.1])
        for _ in range(2):
            rec = evaluate(spec, x)
            assert rec.value == -yield_estimate(yp, x)
            assert rec.gradient[1] == -float(yield_gradient_means(yp, x)[0])
            assert rec.gradient[2] == -float(yield_gradient_means(yp, x)[1])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            yield_objective("extreme", seed=0)

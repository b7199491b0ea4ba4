import numpy as np
import pytest

from hermiteopt.problem import evaluate
from hermiteopt.testbed import (
    PROBLEMS,
    add_noise,
    get_problem,
    mask_availability,
    second_order_closure,
)


def finite_diff_gradient(fn, x, h=1e-6):
    n = x.size
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def finite_diff_hessian(grad, x, h=1e-6):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


class TestSuiteIntegrity:
    def test_suite_size_and_dimensions(self):
        names = sorted(PROBLEMS)
        assert len(names) >= 10
        dims = {PROBLEMS[name].dimension for name in names}
        assert {2, 3, 4, 5, 10} <= dims

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_reference_optimum(self, name):
        problem = PROBLEMS[name]
        assert problem.bounds.contains(problem.x_opt)
        assert problem.bounds.contains(problem.x_start)
        assert problem.value(problem.x_opt) == pytest.approx(problem.f_opt, abs=1e-10)
        # the optimum really is stationary
        assert np.linalg.norm(problem.gradient(problem.x_opt)) < 1e-8

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_gradient_matches_finite_differences(self, name):
        problem = PROBLEMS[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        n = problem.dimension
        lo = np.maximum(problem.bounds.lower, -3.0)
        hi = np.minimum(problem.bounds.upper, 3.0)
        points = 100 if n <= 5 else 25
        for _ in range(points):
            x = rng.uniform(lo + 1e-3, hi - 1e-3)
            fd = finite_diff_gradient(problem.value, x)
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(problem.gradient(x) - fd) < 1e-6 * scale

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_hessian_matches_finite_differences(self, name):
        problem = PROBLEMS[name]
        rng = np.random.default_rng(hash(name) % 2**31)
        n = problem.dimension
        lo = np.maximum(problem.bounds.lower, -3.0)
        hi = np.minimum(problem.bounds.upper, 3.0)
        points = 20 if n <= 5 else 5
        for _ in range(points):
            x = rng.uniform(lo + 1e-3, hi - 1e-3)
            fd = finite_diff_hessian(problem.gradient, x)
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(problem.hessian(x) - fd) < 1e-6 * scale

    def test_rosenbrock_paper_values(self):
        problem = get_problem("rosenbrock2")
        assert problem.value(np.array([1.2, 2.0])) == pytest.approx(31.4)
        assert np.allclose(problem.gradient(np.array([1.0, 1.0])), 0.0)
        g = problem.gradient(np.array([0.3, -0.7]))
        expected = np.array(
            [-400 * 0.3 * (-0.7 - 0.09) - 2 * (1 - 0.3), 200 * (-0.7 - 0.09)]
        )
        assert np.allclose(g, expected)

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem 'nope'; known: "):
            get_problem("nope")


class TestMasking:
    def test_only_masked_directions_available(self):
        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2})
        x = np.array([0.5, 0.5])
        assert spec.derivative(x).tolist() == [problem.gradient(x)[1]]
        rec = evaluate(spec, x)
        assert rec.gradient == {2: problem.gradient(x)[1]} and rec.second == {}

    def test_entries_follow_directions_and_pairs_in_order(self):
        problem = get_problem("rosenbrock5")
        spec = mask_availability(problem, {4, 1}, {(3, 4), (1, 4), (1, 1)})
        x = np.array([0.3, -0.2, 0.9, 1.1, 0.4])
        g, H = problem.gradient(x), problem.hessian(x)
        assert spec.derivative(x).tolist() == [g[0], g[3]]
        assert spec.second_derivative(x).tolist() == [H[0, 0], H[0, 3], H[2, 3]]
        rec = evaluate(spec, x)
        assert list(rec.gradient) == [1, 4] and list(rec.second) == [(1, 1), (1, 4), (3, 4)]

    def test_empty_mask_is_derivative_free(self):
        problem = get_problem("sphere2")
        spec = mask_availability(problem, set())
        assert spec.availability.k_d == 0
        rec = evaluate(spec, problem.x_start)
        assert rec.gradient == {}

    def test_full_second_order_mask(self):
        problem = get_problem("rosenbrock2")
        pairs = second_order_closure({1, 2})
        assert set(pairs) == {(1, 1), (1, 2), (2, 2)}
        spec = mask_availability(problem, {1, 2}, pairs)
        x = np.array([0.4, 0.2])
        H = problem.hessian(x)
        assert spec.second_derivative(x)[1] == H[0, 1]
        rec = evaluate(spec, x)
        assert set(rec.second) == set(pairs)

    def test_second_order_closure_subsets(self):
        assert second_order_closure({2}) == ((2, 2),)
        assert second_order_closure({1, 3}) == ((1, 1), (1, 3), (3, 3))


class TestNoise:
    def test_zero_amplitude_identity(self):
        problem = get_problem("sphere2")
        spec = add_noise(mask_availability(problem, {1}), 0.0, seed=1)
        x = np.array([0.7, -0.3])
        for _ in range(3):
            assert spec.value(x) == problem.value(x)
            assert spec.derivative(x).tolist() == [problem.gradient(x)[0]]

    def test_multiplicative_bound(self):
        problem = get_problem("sphere2")
        spec = add_noise(mask_availability(problem, set()), 1e-2, seed=2)
        x = np.array([1.0, 1.0])  # f = 2
        for _ in range(200):
            v = spec.value(x)
            assert 2.0 * 0.99 <= v <= 2.0 * 1.01

    def test_fresh_draw_per_call(self):
        problem = get_problem("sphere2")
        spec = add_noise(mask_availability(problem, set()), 1e-2, seed=3)
        x = np.array([1.0, 1.0])
        values = {spec.value(x) for _ in range(10)}
        assert len(values) > 1

    def test_zero_mean_statistics(self):
        # empirical mean within three standard errors of the clean value
        problem = get_problem("sphere2")
        amplitude = 1e-2
        spec = add_noise(mask_availability(problem, set()), amplitude, seed=4)
        x = np.array([1.0, 1.0])
        clean = problem.value(x)
        samples = np.array([spec.value(x) for _ in range(100_000)])
        sigma = clean * amplitude / np.sqrt(3.0)  # std of uniform(-a, a) times f
        stderr = sigma / np.sqrt(len(samples))
        assert abs(np.mean(samples) - clean) < 3 * stderr

    def test_seeded_reproducibility(self):
        problem = get_problem("sphere2")
        x = np.array([0.5, 0.25])
        a = add_noise(mask_availability(problem, {1, 2}), 1e-2, seed=7)
        b = add_noise(mask_availability(problem, {1, 2}), 1e-2, seed=7)
        seq_a = [a.value(x), *a.derivative(x)]
        seq_b = [b.value(x), *b.derivative(x)]
        assert seq_a == seq_b

    def test_derivative_noise_independent_of_value_noise(self):
        problem = get_problem("sphere2")
        spec = add_noise(mask_availability(problem, {1}), 1e-2, seed=8)
        x = np.array([1.0, 0.5])
        ratios_v = [spec.value(x) / problem.value(x) for _ in range(50)]
        ratios_g = [spec.derivative(x)[0] / problem.gradient(x)[0] for _ in range(50)]
        assert np.std(ratios_v) > 0 and np.std(ratios_g) > 0
        assert not np.allclose(ratios_v, ratios_g)

    @pytest.mark.parametrize("second_order", [False, True])
    def test_one_draw_per_component_in_order(self, second_order):
        # an oracle call draws its components at once; the stream is the
        # one a scalar draw per component, value first, would give
        problem, amplitude = get_problem("rosenbrock5"), 1e-2
        pairs = second_order_closure({1, 3, 4}) if second_order else ()
        spec = add_noise(mask_availability(problem, {1, 3, 4}, pairs), amplitude, seed=9)
        rng = np.random.default_rng(9)
        x = np.array([0.3, -0.2, 0.9, 1.1, 0.4])
        g, H = problem.gradient(x), problem.hessian(x)
        for _ in range(3):
            rec = evaluate(spec, x)
            assert rec.value == problem.value(x) * (1.0 + rng.uniform(-amplitude, amplitude))
            assert rec.gradient == {
                i: g[i - 1] * (1.0 + rng.uniform(-amplitude, amplitude)) for i in (1, 3, 4)
            }
            assert rec.second == {
                (i, j): H[i - 1, j - 1] * (1.0 + rng.uniform(-amplitude, amplitude))
                for i, j in pairs
            }

    def test_negative_amplitude_rejected(self):
        problem = get_problem("sphere2")
        with pytest.raises(ValueError):
            add_noise(mask_availability(problem, set()), -0.1, seed=0)

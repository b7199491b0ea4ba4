import numpy as np
import pytest

from hermiteopt.models import QuadraticModel
from hermiteopt.problem import Bounds
from hermiteopt.subproblem import (
    cauchy_decrease_bound,
    projected_gradient,
    solve_subproblem,
)


def make_model(g, H, center=None):
    g = np.asarray(g, dtype=float)
    n = g.size
    return QuadraticModel(
        center=np.zeros(n) if center is None else np.asarray(center, float),
        c=0.0,
        g=g,
        H=np.asarray(H, dtype=float),
    )


def model_decrease(model, center, step):
    return model.value(center) - model.value(center + step)


def wide_bounds(n):
    return Bounds(np.full(n, -100.0), np.full(n, 100.0))


class TestBasicCases:
    def test_affine_steps_to_ball_boundary(self):
        g = np.array([3.0, -4.0])
        model = make_model(g, np.zeros((2, 2)))
        step = solve_subproblem(model, np.zeros(2), 2.0, wide_bounds(2))
        assert np.allclose(step, -2.0 * g / np.linalg.norm(g), atol=1e-10)

    def test_zero_gradient_zero_step(self):
        model = make_model(np.zeros(2), np.eye(2))
        step = solve_subproblem(model, np.zeros(2), 1.0, wide_bounds(2))
        assert np.allclose(step, 0.0)

    def test_interior_newton_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            H = A @ A.T + 0.5 * np.eye(3)
            g = rng.normal(size=3) * 0.1
            newton = -np.linalg.solve(H, g)
            if np.linalg.norm(newton) >= 0.95:
                continue
            model = make_model(g, H)
            step = solve_subproblem(model, np.zeros(3), 1.0, wide_bounds(3))
            assert np.linalg.norm(step - newton) < 1e-6

    def test_respects_ball(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 4
            A = rng.normal(size=(n, n))
            model = make_model(rng.normal(size=n), A + A.T)
            delta = float(rng.uniform(0.1, 2.0))
            step = solve_subproblem(model, np.zeros(n), delta, wide_bounds(n))
            assert np.linalg.norm(step) <= delta * (1 + 1e-12)

    def test_respects_box(self):
        rng = np.random.default_rng(2)
        bounds = Bounds(np.array([-0.3, -0.1]), np.array([0.2, 0.5]))
        center = np.array([0.0, 0.0])
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            model = make_model(rng.normal(size=2) * 3, A + A.T)
            step = solve_subproblem(model, center, 1.0, bounds)
            assert bounds.contains(center + step)

    def test_center_on_bound_blocked_direction(self):
        # gradient pushes through the active upper bound: that component
        # must stay put, the free one moves
        bounds = Bounds(np.array([-1.0, -1.0]), np.array([0.0, 1.0]))
        center = np.array([0.0, 0.0])
        model = make_model(np.array([-1.0, -1.0]), np.zeros((2, 2)))
        step = solve_subproblem(model, center, 0.5, bounds)
        assert step[0] <= 1e-12
        assert step[1] > 0.4


class TestCauchyDecrease:
    @pytest.mark.parametrize("seed", range(10))
    def test_achieves_cauchy_fraction_interior(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        A = rng.normal(size=(n, n))
        H = A + A.T  # possibly indefinite
        g = rng.normal(size=n)
        model = make_model(g, H)
        delta = float(rng.uniform(0.05, 1.5))
        bounds = wide_bounds(n)
        step = solve_subproblem(model, np.zeros(n), delta, bounds)
        bound = cauchy_decrease_bound(
            g, H, delta, bounds.lower, bounds.upper
        )
        assert model_decrease(model, np.zeros(n), step) >= bound - 1e-12

    def test_decrease_never_negative(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            model = make_model(rng.normal(size=n), A + A.T)
            lo = -rng.uniform(0.01, 1.0, size=n)
            hi = rng.uniform(0.01, 1.0, size=n)
            bounds = Bounds(lo, hi)
            delta = float(rng.uniform(0.05, 2.0))
            step = solve_subproblem(model, np.zeros(n), delta, bounds)
            assert model_decrease(model, np.zeros(n), step) >= -1e-14


class TestAgainstGridOracle:
    @staticmethod
    def grid_best(g, H, lo, hi, delta, per_axis=101):
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(2)]
        X, Y = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= delta]
        if not len(pts):
            return 0.0
        return float(np.min(pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, H, pts)))

    def test_matches_dense_grid_convex_2d(self):
        # convex case: the solver must essentially reach the global
        # constrained minimum found by a dense feasible grid
        rng = np.random.default_rng(3)
        for _ in range(15):
            A = rng.normal(size=(2, 2))
            H = A @ A.T + 0.3 * np.eye(2)
            g = rng.normal(size=2)
            model = make_model(g, H)
            lo = -rng.uniform(0.2, 1.0, size=2)
            hi = rng.uniform(0.2, 1.0, size=2)
            bounds = Bounds(lo, hi)
            delta = float(rng.uniform(0.3, 1.2))
            step = solve_subproblem(model, np.zeros(2), delta, bounds)
            achieved = float(g @ step + 0.5 * step @ H @ step)
            assert achieved <= self.grid_best(g, H, lo, hi, delta) + 5e-3

    def test_indefinite_cases_not_far_from_grid(self):
        # indefinite case: no global guarantee, but the step should
        # capture a sizeable share of the best grid decrease
        rng = np.random.default_rng(4)
        for _ in range(15):
            A = rng.normal(size=(2, 2))
            H = A + A.T
            g = rng.normal(size=2)
            model = make_model(g, H)
            lo = -rng.uniform(0.2, 1.0, size=2)
            hi = rng.uniform(0.2, 1.0, size=2)
            bounds = Bounds(lo, hi)
            delta = float(rng.uniform(0.3, 1.2))
            step = solve_subproblem(model, np.zeros(2), delta, bounds)
            achieved = float(g @ step + 0.5 * step @ H @ step)
            best = self.grid_best(g, H, lo, hi, delta)
            assert achieved <= 0.5 * best + 1e-9


def test_projected_gradient_masks_blocked_components():
    g = np.array([1.0, -1.0, 2.0])
    lo = np.array([0.0, -1.0, -1.0])   # component 0 at lower bound
    hi = np.array([1.0, 0.0, 1.0])     # component 1 at upper bound
    pg = projected_gradient(g, lo, hi)
    assert pg[0] == 0.0  # wants to decrease but sits at lower bound
    assert pg[1] == 0.0  # wants to increase but sits at upper bound
    assert pg[2] == 2.0


def oracle_cases(count=420, seed=2024):
    """Seeded subproblems over n = 2..10: definite, indefinite, singular
    and zero Hessians; centers on bound faces and infinite bounds;
    radii from 1e-9 to 1e2; model centers away from the step center."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 2 + k % 9
        shape = (k // 9) % 4
        A = rng.normal(size=(n, n))
        if shape == 0:
            H = A @ A.T + 0.1 * np.eye(n)
        elif shape == 1:
            H = A + A.T
        elif shape == 2:
            B = rng.normal(size=(n, max(1, n // 2)))
            H = (B @ B.T) * rng.choice([-1.0, 1.0])
        else:
            H = np.zeros((n, n))
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 2)
        center = rng.uniform(-1.0, 1.0, n)
        lo = center - rng.uniform(0.0, 2.0, n)
        hi = center + rng.uniform(0.0, 2.0, n)
        on_face = rng.random(n) < 0.3
        lower_face = rng.random(n) < 0.5
        lo[on_face & lower_face] = center[on_face & lower_face]
        hi[on_face & ~lower_face] = center[on_face & ~lower_face]
        lo[rng.random(n) < 0.1] = -np.inf
        hi[rng.random(n) < 0.1] = np.inf
        delta = float(10.0 ** rng.uniform(-9, 2))
        model_center = center + (rng.normal(size=n) * delta if k % 3 == 0 else 0.0)
        model = QuadraticModel(center=model_center, c=0.0, g=g, H=H)
        yield model, center, delta, Bounds(lo, hi)


class TestAgainstReference:
    def test_bitwise_equal_to_reference(self, monkeypatch):
        polished = []
        original = _ref_boundary_polish

        def counting(*args):
            polished.append(1)
            return original(*args)

        monkeypatch.setitem(globals(), "_ref_boundary_polish", counting)
        cases = 0
        for model, center, delta, bounds in oracle_cases():
            step = solve_subproblem(model, center, delta, bounds)
            expected = _ref_solve_subproblem(model, center, delta, bounds)
            assert np.array_equal(step, expected)
            cases += 1
        assert cases >= 300
        # the boundary polish, the rewrite's main target, runs on most cases
        assert len(polished) >= cases // 2


# --- reference: the subproblem path as it stood before the boundary
# --- polish kept its per-point work and norms became sqrt(v . v); kept
# --- verbatim (helpers renamed) as a bitwise oracle for the rewrite


def _ref_ball_step(s: np.ndarray, d: np.ndarray, delta: float) -> float:
    """Largest tau >= 0 with ||s + tau d|| <= delta (s inside the ball)."""
    a = float(d @ d)
    if a == 0.0:
        return np.inf
    b = 2.0 * float(s @ d)
    c = float(s @ s) - delta**2
    disc = max(b * b - 4.0 * a * c, 0.0)
    return max((-b + np.sqrt(disc)) / (2.0 * a), 0.0)


def _ref_box_step(s: np.ndarray, d: np.ndarray, step_lo: np.ndarray, step_hi: np.ndarray) -> float:
    tau = np.inf
    for i in range(s.size):
        if d[i] > 0:
            tau = min(tau, max((step_hi[i] - s[i]) / d[i], 0.0))
        elif d[i] < 0:
            tau = min(tau, max((step_lo[i] - s[i]) / d[i], 0.0))
    return tau


def _ref_cauchy_path(g, H, delta, step_lo, step_hi) -> np.ndarray:
    """First local minimizer of the model along the projected-gradient path."""
    n = g.size
    t_break = np.full(n, np.inf)
    up = g < 0
    down = g > 0
    with np.errstate(invalid="ignore"):
        t_break[up] = step_hi[up] / (-g[up])
        t_break[down] = step_lo[down] / (-g[down])
    t_break = np.where(np.isnan(t_break), np.inf, t_break)

    s = np.zeros(n)
    t_cur = 0.0
    finite = np.unique(t_break[np.isfinite(t_break)])
    ends = np.concatenate([finite[finite > 1e-16], [np.inf]])
    for t_next in ends:
        d = np.where(t_break > t_cur * (1 + 1e-15) + 1e-300, -g, 0.0)
        d[t_break <= t_cur] = 0.0
        if not np.any(d):
            break
        slope = float((g + H @ s) @ d)
        if slope >= 0.0:
            break
        curv = float(d @ H @ d)
        tau_ball = _ref_ball_step(s, d, delta)
        tau_max = min(t_next - t_cur, tau_ball)
        if curv > 0.0:
            tau_star = -slope / curv
            if tau_star <= tau_max:
                return s + tau_star * d
        s = s + tau_max * d
        if tau_ball <= t_next - t_cur:
            return s
        t_cur = t_next
    return s


def _ref_max_feasible_step(s, d, delta, step_lo, step_hi) -> tuple[float, bool]:
    tau_box = _ref_box_step(s, d, step_lo, step_hi)
    tau_ball = _ref_ball_step(s, d, delta)
    if tau_ball <= tau_box:
        return tau_ball, True
    return tau_box, False


def _ref_cg_refine(g, H, delta, step_lo, step_hi, s0, rounds: int = 4) -> np.ndarray:
    n = g.size
    s = np.array(s0, dtype=float)
    gnorm = max(1.0, float(np.linalg.norm(g)))
    for _ in range(rounds):
        grad_s = g + H @ s
        atol = 1e-11 * np.maximum(1.0, np.abs(s))
        pinned = ((s <= step_lo + atol) & (grad_s > 0)) | (
            (s >= step_hi - atol) & (grad_s < 0)
        )
        r = np.where(pinned, 0.0, -grad_s)
        if float(np.linalg.norm(r)) <= 1e-13 * gnorm:
            break
        p = r.copy()
        rr = float(r @ r)
        ball_hit = False
        box_hit = False
        for _ in range(4 * n):
            Hp = H @ p
            Hp[pinned] = 0.0
            curv = float(p @ Hp)
            if curv <= 1e-14 * float(p @ p):
                tau, ball_hit = _ref_max_feasible_step(s, p, delta, step_lo, step_hi)
                if np.isfinite(tau) and tau > 0:
                    s = s + tau * p
                box_hit = not ball_hit
                break
            alpha = rr / curv
            tau, at_ball = _ref_max_feasible_step(s, p, delta, step_lo, step_hi)
            if alpha >= tau:
                s = s + tau * p
                ball_hit = at_ball
                box_hit = not at_ball
                break
            s = s + alpha * p
            r = r - alpha * Hp
            r[pinned] = 0.0
            rr_new = float(r @ r)
            if np.sqrt(rr_new) <= 1e-13 * gnorm:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        if ball_hit or not box_hit:
            break
    return s


def _ref_boundary_polish(g, H, delta, step_lo, step_hi, s, iters: int = 25) -> np.ndarray:
    """Tangential descent along the ball boundary; truncated conjugate
    gradients stop at the first boundary hit, which can sit well away
    from the constrained minimizer."""

    def q(v):
        return float(g @ v + 0.5 * v @ H @ v)

    cur = np.array(s, dtype=float)
    best = cur.copy()
    best_q = q(cur)
    rel_step = 0.5
    for _ in range(iters):
        norm = float(np.linalg.norm(cur))
        if norm < 1e-15:
            break
        outward = cur / norm
        grad = g + H @ cur
        tang = grad - (grad @ outward) * outward
        tn = float(np.linalg.norm(tang))
        if tn <= 1e-14 * max(1.0, float(np.linalg.norm(grad))):
            break
        cand = cur - rel_step * delta * tang / tn
        cn = float(np.linalg.norm(cand))
        if cn > 0:
            cand = cand * (delta / cn)
        cand = np.minimum(step_hi, np.maximum(step_lo, cand))
        cn = float(np.linalg.norm(cand))
        if cn > delta:
            cand = cand * (delta / cn)
        if q(cand) < q(cur) - 1e-16:
            cur = cand
            if q(cur) < best_q:
                best, best_q = cur.copy(), q(cur)
        else:
            rel_step *= 0.5
            if rel_step < 1e-6:
                break
    return best


def _ref_solve_subproblem(
    model: QuadraticModel,
    center: np.ndarray,
    delta: float,
    bounds: Bounds,
) -> np.ndarray:
    """Step s minimizing the model over {||s|| <= delta} within the box.

    The zero step is returned when the projected gradient vanishes.  The
    result is feasible to machine precision and achieves at least the
    Cauchy-point decrease.
    """
    center = np.asarray(center, dtype=float)
    g = model.gradient(center)
    H = model.H
    step_lo = np.minimum(bounds.lower - center, 0.0)
    step_hi = np.maximum(bounds.upper - center, 0.0)

    s_cauchy = _ref_cauchy_path(g, H, delta, step_lo, step_hi)
    s_cg = _ref_cg_refine(g, H, delta, step_lo, step_hi, s_cauchy)

    def finalize(v: np.ndarray) -> np.ndarray:
        v = np.minimum(step_hi, np.maximum(step_lo, v))
        norm = float(np.linalg.norm(v))
        if norm > delta:
            v = v * (delta / norm)
        return v

    def q(v: np.ndarray) -> float:
        return float(g @ v + 0.5 * v @ H @ v)

    candidates = [finalize(s_cg), finalize(s_cauchy), np.zeros(center.size)]
    if float(np.linalg.norm(s_cg)) >= delta * (1 - 1e-9):
        candidates.append(
            finalize(_ref_boundary_polish(g, H, delta, step_lo, step_hi, candidates[0]))
        )
    return min(candidates, key=q)

"""Bound-constrained trust-region subproblem.

Minimizes a quadratic model over the intersection of a Euclidean ball
with the box constraints.  The solver walks the projected-gradient path
to a generalized Cauchy point, then refines with conjugate-gradient
iterations restricted to the free variables, truncating at whichever of
the ball or the box is hit first.  Everything is deterministic and the
returned step never does worse than the Cauchy point.

Vector norms are taken as ``sqrt(v . v)``, the formula numpy's
``linalg.norm`` uses for a real 1-D array, so they round identically at a
fraction of the call cost.  Products use ``ndarray.dot``, which calls the
same BLAS routines as ``@`` with less dispatch per call.
"""

from __future__ import annotations

import math

import numpy as np

from .models import QuadraticModel
from .problem import Bounds

CG_ROUNDS = 4  # conjugate-gradient restarts, each re-pinning the active bounds
BOUNDARY_POLISH_TRIES = 25  # tries of the tangential boundary polish


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v.dot(v)))


def _model_change(g: np.ndarray, H: np.ndarray, v: np.ndarray) -> float:
    """Change g.v + v.H.v/2 of the model from the center to step ``v``."""
    return float(g.dot(v) + (0.5 * v).dot(H).dot(v))


def _clip_shrink(v: np.ndarray, step_lo, step_hi, delta: float) -> np.ndarray:
    """``v`` clipped to the box, then scaled back into the ball."""
    v = np.minimum(step_hi, np.maximum(step_lo, v))
    norm = _norm(v)
    if norm > delta:
        v = v * (delta / norm)
    return v


def projected_gradient(g: np.ndarray, step_lo: np.ndarray, step_hi: np.ndarray) -> np.ndarray:
    """Gradient with components blocked by an active bound zeroed out."""
    blocked = ((g > 0) & (step_lo >= -1e-15)) | ((g < 0) & (step_hi <= 1e-15))
    return np.where(blocked, 0.0, g)


def cauchy_decrease_bound(g, H, delta, step_lo, step_hi) -> float:
    """Model decrease guaranteed when the box does not crowd the center."""
    pg = projected_gradient(g, step_lo, step_hi)
    norm_pg = _norm(pg)
    norm_h = float(np.linalg.norm(H, 2)) if norm_pg > 0 else 0.0
    return 0.5 * norm_pg * min(delta, norm_pg / (1.0 + norm_h))


def _ball_step(s: np.ndarray, d: np.ndarray, delta: float) -> float:
    """Largest tau >= 0 with ||s + tau d|| <= delta (s inside the ball)."""
    a = float(d.dot(d))
    if a == 0.0:
        return np.inf
    b = 2.0 * float(s.dot(d))
    c = float(s.dot(s)) - delta**2
    disc = max(b * b - 4.0 * a * c, 0.0)
    return max((-b + math.sqrt(disc)) / (2.0 * a), 0.0)


def _box_step(s: np.ndarray, d: np.ndarray, step_lo: np.ndarray, step_hi: np.ndarray) -> float:
    tau = np.inf
    for i in range(s.size):
        if d[i] > 0:
            tau = min(tau, max((step_hi[i] - s[i]) / d[i], 0.0))
        elif d[i] < 0:
            tau = min(tau, max((step_lo[i] - s[i]) / d[i], 0.0))
    return tau


def _cauchy_path(g, H, delta, step_lo, step_hi) -> np.ndarray:
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
        if not np.any(d):
            break
        slope = float((g + H.dot(s)).dot(d))
        if slope >= 0.0:
            break
        curv = float(d.dot(H).dot(d))
        tau_ball = _ball_step(s, d, delta)
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


def _max_feasible_step(s, d, delta, step_lo, step_hi) -> tuple[float, bool]:
    tau_box = _box_step(s, d, step_lo, step_hi)
    tau_ball = _ball_step(s, d, delta)
    if tau_ball <= tau_box:
        return tau_ball, True
    return tau_box, False


def _cg_refine(g, H, delta, step_lo, step_hi, s0) -> np.ndarray:
    n = g.size
    s = np.array(s0, dtype=float)
    gnorm = max(1.0, _norm(g))
    for _ in range(CG_ROUNDS):
        grad_s = g + H.dot(s)
        atol = 1e-11 * np.maximum(1.0, np.abs(s))
        pinned = ((s <= step_lo + atol) & (grad_s > 0)) | (
            (s >= step_hi - atol) & (grad_s < 0)
        )
        r = np.where(pinned, 0.0, -grad_s)
        if _norm(r) <= 1e-13 * gnorm:
            break
        p = r.copy()
        rr = float(r.dot(r))
        ball_hit = False
        box_hit = False
        for _ in range(4 * n):
            Hp = H.dot(p)
            Hp[pinned] = 0.0
            curv = float(p.dot(Hp))
            if curv <= 1e-14 * float(p.dot(p)):
                tau, ball_hit = _max_feasible_step(s, p, delta, step_lo, step_hi)
                if np.isfinite(tau) and tau > 0:
                    s = s + tau * p
                box_hit = not ball_hit
                break
            alpha = rr / curv
            tau, at_ball = _max_feasible_step(s, p, delta, step_lo, step_hi)
            if alpha >= tau:
                s = s + tau * p
                ball_hit = at_ball
                box_hit = not at_ball
                break
            s = s + alpha * p
            r = r - alpha * Hp
            r[pinned] = 0.0
            rr_new = float(r.dot(r))
            if math.sqrt(rr_new) <= 1e-13 * gnorm:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        if ball_hit or not box_hit:
            break
    return s


def _boundary_polish(g, H, delta, step_lo, step_hi, s) -> np.ndarray:
    """Tangential descent along the ball boundary; truncated conjugate
    gradients stop at the first boundary hit, which can sit well away
    from the constrained minimizer.

    Only accepted tries move ``cur``, and each lowers the model, so the
    last point is the best one.  The tangent and the stop test depend on
    ``cur`` alone and are recomputed only when it moves."""

    cur = np.array(s, dtype=float)
    q_cur = _model_change(g, H, cur)
    rel_step = 0.5
    moved = True
    for _ in range(BOUNDARY_POLISH_TRIES):
        if moved:
            norm = _norm(cur)
            if norm < 1e-15:
                break
            outward = cur / norm
            grad = g + H.dot(cur)
            tang = grad - grad.dot(outward) * outward
            tn = _norm(tang)
            if tn <= 1e-14 * max(1.0, _norm(grad)):
                break
        cand = cur - rel_step * delta * tang / tn
        cn = _norm(cand)
        if cn > 0:
            cand = cand * (delta / cn)
        cand = _clip_shrink(cand, step_lo, step_hi, delta)
        q_cand = _model_change(g, H, cand)
        moved = q_cand < q_cur - 1e-16
        if moved:
            cur, q_cur = cand, q_cand
        else:
            rel_step *= 0.5
            if rel_step < 1e-6:
                break
    return cur


def solve_subproblem(
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

    s_cauchy = _cauchy_path(g, H, delta, step_lo, step_hi)
    s_cg = _cg_refine(g, H, delta, step_lo, step_hi, s_cauchy)

    candidates = [
        _clip_shrink(s_cg, step_lo, step_hi, delta),
        _clip_shrink(s_cauchy, step_lo, step_hi, delta),
        np.zeros(center.size),
    ]
    if _norm(s_cg) >= delta * (1 - 1e-9):
        polished = _boundary_polish(g, H, delta, step_lo, step_hi, candidates[0])
        # a shrunk vector can round one ulp over delta: clip and shrink again
        candidates.append(_clip_shrink(polished, step_lo, step_hi, delta))
    return min(candidates, key=lambda v: _model_change(g, H, v))

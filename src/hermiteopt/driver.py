"""Trust-region driver: initialization, iteration loop and termination.

Each iteration builds a quadratic model of the configured kind from the
current training set (scaled, optionally weighted), minimizes it over the
trust ball intersected with the box, and accepts or rejects the trial
point by the ratio of actual to predicted decrease.  Accepted points
replace the training point whose Lagrange polynomial is largest at the
trial; rejected steps shrink the radius and may trigger a geometry
improvement evaluation when the poisedness estimate is poor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _blas
from .exceptions import (
    BudgetExhausted,
    DegenerateModelDecrease,
    DuplicatePoint,
    NonFiniteValue,
    OutOfBounds,
    RankDeficient,
)
from .models import (
    FROBENIUS_KINDS,
    HERMITE_KINDS,
    ModelKind,
    QuadraticModel,
    WeightScheme,
    apply_scaling,
    apply_weighting,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
    solve_system,
)
from .poisedness import (
    Region,
    estimate_lambda,
    lagrange_family,
    propose_geometry_point,
    select_outgoing,
)
from .problem import (
    EvaluationBudget,
    ObjectiveSpec,
    TaylorReference,
    TrainingSet,
    evaluate,
    incumbent,
    rows_equal,
)
from .subproblem import solve_subproblem


class TerminationReason(Enum):
    RADIUS_BELOW_MIN = "radius-below-min"
    BUDGET_EXHAUSTED = "budget-exhausted"
    STEP_SIZE_TINY = "step-size-tiny"
    NONFINITE_VALUE = "nonfinite-value"


# Powell's trust-region constants: a trial is accepted at ratio >= ETA1;
# at ratio >= ETA2 the radius grows by GAMMA_INC, capped at
# MAX_RADIUS_FACTOR times the initial radius; a rejection shrinks it by
# GAMMA_DEC
ETA1 = 0.05
ETA2 = 0.7
GAMMA_DEC = 0.5
GAMMA_INC = 2.0
MAX_RADIUS_FACTOR = 1e3
# a set whose farthest point lies beyond STALE_FACTOR radii is stale
STALE_FACTOR = 8.0
# a subproblem step shorter than this ends the run
STEP_TINY = 1e-14
# singular values below NULL_RTOL * s[0] span a system's null space
NULL_RTOL = 1e-10


@dataclass
class SolverConfig:
    """What a caller chooses; the trust-region constants are fixed above."""

    kind: ModelKind = ModelKind.BOBYQA
    initial_radius: float | None = None
    min_radius: float = 1e-8
    max_evaluations: int = 500
    weighting: bool = False
    second_order: bool = False
    lambda_threshold: float = 100.0
    model_error_diagnostic: bool = False
    diagnostic_halfwidth: float = 0.01

    def __post_init__(self):
        if self.initial_radius is not None and self.initial_radius <= self.min_radius:
            raise ValueError("initial radius must exceed the minimum radius")


@dataclass
class TraceRow:
    iteration: int
    evaluations: int
    radius: float
    f_best: float
    accepted: bool
    model_error: float = float("nan")


# why an evaluation was billed: the initial set, a trust-region trial,
# a geometry improvement or a rank repair
PURPOSES = ("init", "trial", "geometry", "repair")


@dataclass
class RunResult:
    """The best point found and how the run got there.

    ``x_best`` and ``f_best`` are the best finite evaluation; ``x_best`` is
    None (and ``f_best`` inf) when no evaluation returned a finite value.
    ``evaluation_log`` holds one ``(purpose, best value so far)`` entry per
    billed evaluation, in billing order; purposes are those of
    ``PURPOSES``.
    """

    x_best: np.ndarray
    f_best: float
    evaluations: int
    iterations: int
    reason: TerminationReason
    trace: list[TraceRow] = field(default_factory=list)
    evaluation_log: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class IterationState:
    iteration: int
    ts: TrainingSet
    radius: float
    h_prev: np.ndarray
    initial_radius: float


class Evaluator:
    """Bills evaluations, tracks the best recorded value and logs each
    evaluation's purpose with the best value after it.

    A non-finite value is billed and logged but never becomes the best;
    it then raises NonFiniteValue, which ends the run.
    """

    def __init__(self, spec: ObjectiveSpec, budget: EvaluationBudget):
        self.spec = spec
        self.budget = budget
        self.best_value = math.inf
        self.best_point: np.ndarray | None = None
        self.log: list[tuple[str, float]] = []

    def __call__(self, x: np.ndarray, purpose: str):
        rec = evaluate(self.spec, x, self.budget)
        finite = math.isfinite(rec.value)
        if finite and rec.value < self.best_value:
            self.best_value = rec.value
            self.best_point = rec.point
        self.log.append((purpose, self.best_value))
        if not finite:
            raise NonFiniteValue(f"objective value {rec.value} at {rec.point}")
        return rec

    @property
    def used(self) -> int:
        return self.budget.evaluations_used


def _unreachable_columns(n: int, directions, pairs) -> int:
    """Count basis columns no derivative row can touch: linear columns of
    unknown directions and pair columns with both indices unknown (minus
    any pair supplied directly by second-order rows)."""
    known = set(directions)
    count = n - len(known)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i not in known and j not in known and (i, j) not in set(pairs):
                count += 1
    return count


def default_point_count(
    kind: ModelKind,
    n: int,
    directions=(),
    pairs=(),
    second_order: bool = False,
) -> int:
    """Training-set size of a run.

    Full interpolation needs the complete quadratic count and the
    Frobenius kinds default to 2n+1.  Hermite least squares starts from
    max(2n+1-k_d, ceil(q1/(rows per point))) and is floored at one more
    than the number of basis columns the derivative rows cannot reach,
    since value rows alone must determine those; below that floor the
    regression is rank deficient for every point geometry.
    """
    q1 = (n + 1) * (n + 2) // 2
    if kind is ModelKind.FULL_INTERP:
        return q1
    if kind in FROBENIUS_KINDS:
        return 2 * n + 1
    k_d = len(directions)
    pairs = tuple(pairs) if second_order else ()
    if k_d == 0 and not pairs:
        return q1  # no derivative rows: the driver runs full interpolation
    per_point = 1 + k_d + len(pairs)
    p1 = max(2 * n + 1 - k_d, math.ceil(q1 / per_point), 2)
    structural = 1 + _unreachable_columns(n, directions, pairs)
    if structural >= p1:
        # at the bare structural minimum every point replacement re-breaks
        # the rank; a small margin keeps the value-row block overdetermined
        p1 = structural + math.ceil((n - k_d) / 2)
    return min(p1, q1)


def resolved_point_count(spec: ObjectiveSpec, config: SolverConfig) -> int:
    avail = spec.availability
    return default_point_count(
        config.kind,
        spec.dimension,
        avail.directions,
        avail.pairs,
        config.second_order,
    )


def predicted_decrease(f_old: float, m_old: float, m_new: float) -> float:
    """Model-predicted decrease; raises DegenerateModelDecrease when it is
    below the resolution of the objective value."""
    decrease = m_old - m_new
    if decrease <= 1e-15 * max(1.0, abs(f_old)):
        raise DegenerateModelDecrease(
            f"model decrease {decrease:.3e} is below resolution"
        )
    return decrease


def _is_distinct(point: np.ndarray, points: np.ndarray) -> bool:
    return not np.any(rows_equal(points, point))


def _coordinate_point(x0, delta, axis, sign, bounds, existing):
    lo, hi = bounds.lower[axis], bounds.upper[axis]
    base = x0[axis]
    # a blocked step flips to a double step on the other side, then the
    # chain falls back to shorter steps until one fits the box
    offsets = [
        sign * delta,
        -sign * 2.0 * delta,
        sign * 0.5 * delta,
        -sign * delta,
        sign * 0.25 * delta,
        -sign * 0.5 * delta,
        (hi - base) * 0.5 if sign > 0 else (lo - base) * 0.5,
        (lo - base) * 0.5 if sign > 0 else (hi - base) * 0.5,
    ]
    for off in offsets:
        value = base + off
        if not lo <= value <= hi or not np.isfinite(value):
            continue
        cand = x0.copy()
        cand[axis] = value
        if _is_distinct(cand, np.array(existing)):
            return cand
    raise ValueError(f"cannot place a distinct initial point along axis {axis}")


def _diagonal_point(x0, delta, i, j, bounds, existing):
    off = np.zeros(x0.size)
    off[i] = off[j] = delta / math.sqrt(2.0)
    for direction in (off, -off, off * 0.5, -off * 0.5):
        cand = bounds.clip(x0 + direction)
        if _is_distinct(cand, np.array(existing)):
            return cand
    raise ValueError("cannot place a distinct diagonal initial point")


def initial_points(
    x0: np.ndarray,
    delta: float,
    bounds,
    p1: int,
    known_axes=(),
) -> list[np.ndarray]:
    """Coordinate-cross pattern: x0, positive steps, negative steps, then
    scaled diagonal points, truncated to p1 points.

    Diagonal pairs between unknown-derivative axes come first: those are
    the cross terms no derivative row informs, so they are the ones worth
    spending value rows on.
    """
    n = x0.size
    known = set(known_axes)
    pts = [x0.copy()]
    for axis in range(n):
        if len(pts) >= p1:
            break
        pts.append(_coordinate_point(x0, delta, axis, +1, bounds, pts))
    # when negatives are truncated, unknown axes go first: value rows are
    # the only source of curvature information along those
    for axis in sorted(range(n), key=lambda a: (a in known, a)):
        if len(pts) >= p1:
            break
        pts.append(_coordinate_point(x0, delta, axis, -1, bounds, pts))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda ij: (len(known & set(ij)), ij))
    for i, j in pairs:
        if len(pts) >= p1:
            break
        pts.append(_diagonal_point(x0, delta, i, j, bounds, pts))
    if len(pts) < p1:
        raise ValueError(f"cannot build {p1} initial points in dimension {n}")
    return pts[:p1]


def initialize(
    spec: ObjectiveSpec,
    x0: np.ndarray,
    config: SolverConfig,
    evaluator: Evaluator,
) -> IterationState:
    x0 = np.asarray(x0, dtype=float)
    if not spec.bounds.contains(x0):
        raise OutOfBounds("starting point violates bounds")
    p1 = resolved_point_count(spec, config)
    delta0 = config.initial_radius
    if delta0 is None:
        delta0 = 0.1 * max(1.0, float(np.max(np.abs(x0))))
    known_axes = tuple(d - 1 for d in spec.availability.directions)
    records = [
        evaluator(p, "init")
        for p in initial_points(x0, delta0, spec.bounds, p1, known_axes)
    ]
    n = spec.dimension
    return IterationState(
        iteration=0,
        ts=TrainingSet.from_records(records),
        radius=delta0,
        h_prev=np.zeros((n, n)),
        initial_radius=delta0,
    )


def _assemble(ts: TrainingSet, spec: ObjectiveSpec, config: SolverConfig, state: IterationState):
    avail = spec.availability
    kind = config.kind
    second = config.second_order and bool(avail.pairs)
    if kind is ModelKind.HERMITE_LS and avail.k_d == 0 and not second:
        kind = ModelKind.FULL_INTERP
    if kind is ModelKind.HERMITE_BOBYQA and avail.k_d == 0:
        kind = ModelKind.BOBYQA
    n = ts.dimension
    if kind is ModelKind.BOBYQA and ts.size == (n + 1) * (n + 2) // 2:
        # q1 poised points leave the Hessian no freedom: the
        # min-Frobenius model is the interpolant (the default set at n = 1)
        kind = ModelKind.FULL_INTERP
    if kind is ModelKind.FULL_INTERP:
        return assemble_full_interp(ts)
    if kind is ModelKind.BOBYQA:
        return assemble_min_frob(ts, state.h_prev)
    if kind is ModelKind.HERMITE_LS:
        return assemble_hermite_ls(ts, avail, include_second_order=second)
    return assemble_hermite_bobyqa(ts, avail, state.h_prev)


def _farthest_index(ts: TrainingSet) -> int:
    d = np.linalg.norm(ts.points - ts.incumbent_record.point, axis=1)
    return int(np.argmax(d))


def _repair_candidates(n: int, direction: np.ndarray):
    """Repair directions: the least-covered direction of the point cloud
    first, then diagonal pair directions, which fill the cross-term
    columns a coordinate cross leaves empty."""
    yield direction
    yield -direction
    root2 = math.sqrt(2.0)
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


def _null_basis(sys) -> np.ndarray:
    _, s, Vt = sys.svd
    null = Vt[s <= max(NULL_RTOL * s[0], np.finfo(float).tiny)]
    return null if null.size else Vt[-1:]


def _null_space_scores(sys, null: np.ndarray, candidates: np.ndarray, delta: float) -> list[float]:
    """How strongly the rows each candidate point would contribute overlap
    the null space of the (scaled) system; larger lifts the rank more.
    The rows of all candidates are built at once; each row keeps its own
    norm and matrix-vector product, summed in row order, so a score does
    not depend on the other candidates."""
    Z = candidates - sys.shift
    axes = sorted({tag[2] - 1 for tag in sys.row_tags if tag[0] == "grad"})
    values = sys.basis.value_rows(Z) * sys.col_scale
    derivatives = sys.basis.derivative_rows(Z, axes) * sys.col_scale * delta
    derivatives = derivatives.reshape(len(Z), len(axes), values.shape[1])
    scores = []
    for value, rows in zip(values, derivatives):
        score = 0.0
        for row in (value, *rows):
            norm = float(np.linalg.norm(row))
            if norm > 0:
                score += float(np.linalg.norm(null @ (row / norm)) ** 2)
        scores.append(score)
    return scores


def _redundancy_order(sys, point_count: int, incumbent_index: int):
    """Training indices sorted from most to least redundant, judged by the
    total leverage of each point's rows in the non-null row space."""
    U, s, _ = sys.svd
    keep = s > NULL_RTOL * s[0]
    leverage_rows = np.sum(U[:, keep] ** 2, axis=1)
    totals = np.zeros(point_count)
    for r, tag in enumerate(sys.row_tags):
        if tag[0] == "mfn":
            continue
        totals[tag[1]] += leverage_rows[r]
    order = np.argsort(totals, kind="stable")
    return [int(i) for i in order if i != incumbent_index]


def _repair_rank_deficiency(ts, spec, evaluator, delta, sys_scaled, skip=()):
    """Swap one point for a fresh geometry point near the incumbent.

    A rank-deficient system has no Lagrange polynomials, so the repair
    point comes from candidate directions instead of a polynomial
    extremizer; the candidate whose rows best cover the system's null
    space wins.  A stale set (points far outside the trust ball, which
    wrecks the scaled system's conditioning) loses its farthest point;
    otherwise the most redundant point goes, keeping the information the
    set does have.  Returns the updated set and the replaced index, or
    (ts, None) when no distinct feasible candidate exists.
    """
    x_opt = ts.incumbent_record.point
    D = ts.points - x_opt
    _, _, Vt = np.linalg.svd(D, full_matrices=True)
    dist = np.linalg.norm(D, axis=1)
    if float(np.max(dist)) > STALE_FACTOR * delta:
        order = [int(i) for i in np.argsort(-dist) if i != ts.incumbent_index]
    else:
        order = _redundancy_order(sys_scaled, ts.size, ts.incumbent_index)
    target = next((i for i in order if i not in skip), None)
    if target is None:
        return ts, None
    directions = np.array(list(_repair_candidates(ts.dimension, Vt[-1])))
    for scale in (1.0, 0.5, 0.25):
        candidates = spec.bounds.clip(x_opt + scale * delta * directions)
        candidates = candidates[~np.any(rows_equal(ts.points, candidates), axis=1)]
        if len(candidates):
            break
    else:
        return ts, None
    if sys_scaled.kind in (ModelKind.FULL_INTERP, ModelKind.HERMITE_LS):
        null = _null_basis(sys_scaled)
        scores = _null_space_scores(sys_scaled, null, candidates, delta)
        pick = candidates[int(np.argmax(scores))]
    else:
        pick = candidates[0]
    return ts.replace(target, evaluator(pick, "repair")), target


def model_error_diagnostic(
    model: QuadraticModel,
    reference: TaylorReference,
    center: np.ndarray,
    halfwidth: float = 0.01,
    per_axis: int = 11,
) -> float:
    """Squared L2 distance between the model and the second-order Taylor
    expansion of the reference function, over the box center +- halfwidth,
    approximated with a midpoint tensor grid."""
    center = np.asarray(center, dtype=float)
    n = center.size
    if per_axis**n > 2_000_000:
        raise ValueError("diagnostic grid too large for this dimension")
    h = 2.0 * halfwidth / per_axis
    axes = [center[i] - halfwidth + h * (np.arange(per_axis) + 0.5) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    f0 = reference.value(center)
    g0 = np.asarray(reference.gradient(center), dtype=float)
    H0 = np.asarray(reference.hessian(center), dtype=float)
    D = pts - center
    taylor = f0 + D @ g0 + 0.5 * np.einsum("ij,jk,ik->i", D, H0, D)
    diff = model.value_at(pts) - taylor
    return float(np.sum(diff**2) * h**n)


def _improve_geometry_if_poor(state, spec, config, evaluator, delta, sys_now=None):
    """One geometry-improvement evaluation when the set is badly poised on
    the current ball or has gone stale (points far outside it).

    Works from the current training set, which may already contain the
    just-accepted trial point.  ``sys_now`` is the unweighted scaled
    system of that set for radius ``delta`` when the caller still has it;
    the family ignores the previous Hessian and the right-hand side, so a
    system assembled before ``state.h_prev`` changed serves as well.
    """
    try:
        x_opt = state.ts.incumbent_record.point
        if sys_now is None:
            sys_now = apply_scaling(_assemble(state.ts, spec, config, state), delta)
        family = lagrange_family(sys_now)
        far = _farthest_index(state.ts)
        far_dist = float(np.linalg.norm(state.ts.records[far].point - x_opt))
        region = Region(x_opt, max(state.radius, config.min_radius), spec.bounds)
        stale = far_dist > STALE_FACTOR * delta
        if stale or estimate_lambda(family, region).lam > config.lambda_threshold:
            proposal = propose_geometry_point(family, far, region)
            if _is_distinct(proposal, state.ts.points):
                state.ts = state.ts.replace(far, evaluator(proposal, "geometry"))
    except RankDeficient:
        pass


def _set_radius(state: IterationState, radius: float, config: SolverConfig) -> TerminationReason | None:
    """Adopt the next radius; the run stops once it falls below the minimum."""
    state.radius = radius
    return TerminationReason.RADIUS_BELOW_MIN if radius < config.min_radius else None


def step_iteration(
    state: IterationState,
    spec: ObjectiveSpec,
    config: SolverConfig,
    evaluator: Evaluator,
    trace: list[TraceRow],
) -> TerminationReason | None:
    """Advance one trust-region iteration; returns a termination reason
    when the run should stop, else None."""
    state.iteration += 1
    delta = state.radius

    sys_scaled = None
    model = None
    repaired: set[int] = set()
    max_repairs = spec.dimension + 2
    for attempt in range(max_repairs + 1):
        sys_scaled = apply_scaling(_assemble(state.ts, spec, config, state), delta)
        solvable = sys_scaled
        if config.weighting and solvable.kind in HERMITE_KINDS:
            solvable = apply_weighting(solvable, WeightScheme(), state.ts)
        try:
            model = solve_system(solvable)
            break
        except RankDeficient:
            if attempt == max_repairs:
                break
            state.ts, replaced = _repair_rank_deficiency(
                state.ts,
                spec,
                evaluator,
                delta,
                sys_scaled,
                skip=repaired,
            )
            if replaced is None:
                break
            repaired.add(replaced)
    if model is None:
        # geometry repair failed to restore rank; shrink and try again
        return _set_radius(state, GAMMA_DEC * delta, config)

    if config.kind in FROBENIUS_KINDS:
        state.h_prev = model.H

    diag_value = float("nan")
    x_opt, f_opt = incumbent(state.ts)
    if config.model_error_diagnostic and spec.taylor_reference is not None:
        diag_value = model_error_diagnostic(
            model, spec.taylor_reference, x_opt, config.diagnostic_halfwidth
        )

    step = solve_subproblem(model, x_opt, delta, spec.bounds)
    step_norm = math.sqrt(float(step.dot(step)))
    if step_norm < STEP_TINY:
        return TerminationReason.STEP_SIZE_TINY

    try:
        decrease = predicted_decrease(f_opt, model.value(x_opt), model.value(x_opt + step))
    except DegenerateModelDecrease:
        # reject without spending the budget
        return _set_radius(state, GAMMA_DEC * delta, config)

    trial = spec.bounds.clip(x_opt + step)
    rec = evaluator(trial, "trial")
    r = (f_opt - rec.value) / decrease
    accepted = r >= ETA1
    # grow only when the step actually used the radius, otherwise the
    # radius runs away on tiny near-convergence steps
    if not accepted:
        radius = GAMMA_DEC * delta
    elif r >= ETA2 and step_norm >= 0.5 * delta:
        radius = min(GAMMA_INC * delta, MAX_RADIUS_FACTOR * state.initial_radius)
    else:
        radius = delta
    stop = _set_radius(state, radius, config)

    if accepted:
        try:
            outgoing = select_outgoing(lagrange_family(sys_scaled), trial)
        except RankDeficient:
            outgoing = _farthest_index(state.ts)
        try:
            state.ts = state.ts.replace(outgoing, rec)
        except DuplicatePoint:
            pass
        # a crawl of tiny accepted steps never rejects, so it would never
        # reach the geometry check below; bad geometry sustains exactly
        # that pattern by freezing the model transverse to the crawl
        if step_norm < 0.1 * delta:
            _improve_geometry_if_poor(state, spec, config, evaluator, delta)
    # a trial that changed nothing means the function is flat at this
    # resolution; fresh geometry points would all repeat that value
    elif rec.value != f_opt:
        # the training set is unchanged, so this iteration's system and
        # its factorization still describe it
        _improve_geometry_if_poor(state, spec, config, evaluator, delta, sys_scaled)

    trace.append(
        TraceRow(
            iteration=state.iteration,
            evaluations=evaluator.used,
            radius=state.radius,
            f_best=evaluator.best_value,
            accepted=accepted,
            model_error=diag_value,
        )
    )
    return stop


def run(spec: ObjectiveSpec, x0: np.ndarray, config: SolverConfig | None = None) -> RunResult:
    """Minimize the objective from x0 under the given configuration.

    numpy's OpenBLAS, when found, runs on one thread until the call
    returns or raises, oracle calls included; the caller's thread count
    is restored afterwards.
    """
    config = config or SolverConfig()
    p1 = resolved_point_count(spec, config)
    if config.max_evaluations < p1:
        raise ValueError(
            f"budget {config.max_evaluations} cannot cover the {p1} initialization points"
        )
    budget = EvaluationBudget(config.max_evaluations)
    evaluator = Evaluator(spec, budget)
    trace: list[TraceRow] = []
    reason = None
    state = None
    with _blas.one_blas_thread:
        try:
            state = initialize(spec, x0, config, evaluator)
            while reason is None:
                reason = step_iteration(state, spec, config, evaluator, trace)
        except BudgetExhausted:
            reason = TerminationReason.BUDGET_EXHAUSTED
        except NonFiniteValue:
            reason = TerminationReason.NONFINITE_VALUE
    return RunResult(
        x_best=evaluator.best_point,
        f_best=evaluator.best_value,
        evaluations=evaluator.used,
        iterations=state.iteration if state is not None else 0,
        reason=reason,
        trace=trace,
        evaluation_log=evaluator.log,
    )

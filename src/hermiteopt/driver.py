"""Trust-region driver: initialization, iteration loop and termination.

Each iteration builds a quadratic model of the configured kind from the
current training set (scaled, optionally weighted), minimizes it over the
trust ball intersected with the box, and accepts or rejects the trial
point by the ratio of actual to predicted decrease.  Accepted points
replace the training point whose Lagrange polynomial is largest at the
trial; rejected steps shrink the radius and may trigger a geometry
improvement evaluation when the poisedness estimate is poor.

Only ``initialize`` and ``step_iteration`` bill evaluations, through the
``Evaluator``, which alone counts them against the budget and calls
``evaluate`` once per billed evaluation; the rank repair and the geometry
step only propose a point and the index it replaces.  An evaluation that
ends the run raises ``_Stop``, caught in ``run``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import _blas
from .exceptions import DuplicatePoint, HermiteOptError, OutOfBounds, RankDeficient
from .models import (
    FROBENIUS_KINDS,
    HERMITE_KINDS,
    ModelKind,
    QuadraticModel,
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
    column_bounds,
    estimate_lambda,
    lagrange_family,
    propose_geometry_point,
    select_outgoing,
)
from .problem import ObjectiveSpec, TrainingSet, evaluate, rows_equal
from .subproblem import solve_subproblem


class TerminationReason(Enum):
    RADIUS_BELOW_MIN = "radius-below-min"
    BUDGET_EXHAUSTED = "budget-exhausted"
    STEP_SIZE_TINY = "step-size-tiny"
    NONFINITE_VALUE = "nonfinite-value"
    ORACLE_ERROR = "oracle-error"


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
# step lengths, in radii, a rank repair tries until a candidate is distinct
REPAIR_SCALES = (1.0, 0.5, 0.25)
# a poisedness estimate above this triggers a geometry step
LAMBDA_THRESHOLD = 100.0


@dataclass
class SolverConfig:
    """What a caller chooses; the trust-region constants are fixed above."""

    kind: ModelKind = ModelKind.BOBYQA
    initial_radius: float | None = None
    min_radius: float = 1e-8
    max_evaluations: int = 500
    weighting: bool = False
    lambda_threshold: ClassVar[float] = LAMBDA_THRESHOLD  # read-only

    def __post_init__(self):
        if self.initial_radius is not None and self.initial_radius <= self.min_radius:
            raise ValueError("initial radius must exceed the minimum radius")


@dataclass
class TraceRow:
    """One iteration that reached its trial evaluation.

    ``model`` is the quadratic the step minimized, centred on the
    iteration's incumbent, ``ratio`` actual over predicted decrease,
    ``repairs`` the rank repairs billed before the model solved,
    ``sigma_ratio`` the smallest over the largest singular value of the
    system the model was solved from, ``replaced`` the training index the
    trial replaced (None when rejected or a duplicate), ``lam`` the
    poisedness estimate when one ran and ``lam_bound`` the largest Lagrange
    column bound when the poisedness test ran; float fields an iteration did
    not compute are NaN.
    """

    iteration: int
    evaluations: int
    radius: float
    f_best: float
    accepted: bool
    model: QuadraticModel
    ratio: float = float("nan")
    step_norm: float = float("nan")
    predicted_decrease: float = float("nan")
    repairs: int = 0
    sigma_ratio: float = float("nan")
    replaced: int | None = None
    lam: float = float("nan")
    lam_bound: float = float("nan")


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
    ``PURPOSES``.  ``error`` is the exception an oracle raised when that
    ended the run (``ORACLE_ERROR``), else None.
    """

    x_best: np.ndarray
    f_best: float
    evaluations: int
    iterations: int
    reason: TerminationReason
    trace: list[TraceRow] = field(default_factory=list)
    evaluation_log: list[tuple[str, float]] = field(default_factory=list)
    error: Exception | None = None


@dataclass
class IterationState:
    """``kind`` is the system the run assembles (``resolve_model``)."""

    iteration: int
    ts: TrainingSet
    radius: float
    h_prev: np.ndarray
    initial_radius: float
    kind: ModelKind


class _Stop(HermiteOptError):
    """Ends a run from inside ``Evaluator``; an oracle's exception is the cause."""

    def __init__(self, reason: TerminationReason):
        self.reason = reason


class Evaluator:
    """The run's one budget owner: bills evaluations, tracks the best
    recorded value and logs each evaluation's purpose with the best value
    after it.

    Each way an evaluation ends the run raises ``_Stop`` with its reason.
    At ``max_evaluations`` it refuses before any oracle call
    (``BUDGET_EXHAUSTED``; unbilled, unlogged).  A call that reaches an
    oracle is billed and logged, also when it ends the run: a non-finite
    value or derivative entry (``NONFINITE_VALUE``; never the best) or a
    raising callable (``ORACLE_ERROR``).  The solver's own ``OutOfBounds``
    passes through unbilled.
    """

    def __init__(self, spec: ObjectiveSpec, max_evaluations: int):
        self.spec = spec
        self.max_evaluations = max_evaluations
        self.used = 0
        self.best_value = math.inf
        self.best_point: np.ndarray | None = None
        self.log: list[tuple[str, float]] = []

    def __call__(self, x: np.ndarray, purpose: str):
        if self.used >= self.max_evaluations:
            raise _Stop(TerminationReason.BUDGET_EXHAUSTED)
        try:
            rec = evaluate(self.spec, x)
        except OutOfBounds:
            raise
        except Exception as exc:
            self.used += 1
            self.log.append((purpose, self.best_value))
            raise _Stop(TerminationReason.ORACLE_ERROR) from exc
        self.used += 1
        entries = (rec.value, *rec.gradient.values(), *rec.second.values())
        finite = all(map(math.isfinite, entries))
        if finite and rec.value < self.best_value:
            self.best_value = rec.value
            self.best_point = rec.point
        self.log.append((purpose, self.best_value))
        if not finite:
            raise _Stop(TerminationReason.NONFINITE_VALUE)
        return rec


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


def default_point_count(kind: ModelKind, n: int, directions=(), pairs=()) -> int:
    """Training-set size of a run.

    Full interpolation needs the complete quadratic count and the
    Frobenius kinds default to 2n+1.  Hermite least squares starts from
    max(2n+1-k_d, ceil(q1/(1+k_d+k_2))), with k_2 the pairs it is given,
    and is floored at one more than the number of basis columns the
    derivative rows cannot reach, since value rows alone must determine
    those; below that floor the regression is rank deficient for every
    point geometry.
    """
    q1 = (n + 1) * (n + 2) // 2
    if kind is ModelKind.FULL_INTERP:
        return q1
    if kind in FROBENIUS_KINDS:
        return 2 * n + 1
    k_d = len(directions)
    per_point = 1 + k_d + len(pairs)
    p1 = max(2 * n + 1 - k_d, math.ceil(q1 / per_point), 2)
    structural = 1 + _unreachable_columns(n, directions, pairs)
    if structural >= p1:
        # at the bare structural minimum every point replacement re-breaks
        # the rank; a small margin keeps the value-row block overdetermined
        p1 = structural + math.ceil((n - k_d) / 2)
    return min(p1, q1)


def resolve_model(spec: ObjectiveSpec, config: SolverConfig) -> tuple[ModelKind, int]:
    """The system a run assembles and its training-set size.

    Hermite least squares with no derivative rows is full interpolation,
    and Hermite BOBYQA with no known direction is BOBYQA.  BOBYQA on
    (n+1)(n+2)/2 points (its 2n+1 default at n = 1) leaves the Hessian no
    freedom, so its min-Frobenius model is the interpolant.
    """
    avail, kind, n = spec.availability, config.kind, spec.dimension
    if kind is ModelKind.HERMITE_LS and avail.k_d == 0 and not avail.pairs:
        kind = ModelKind.FULL_INTERP
    if kind is ModelKind.HERMITE_BOBYQA and avail.k_d == 0:
        kind = ModelKind.BOBYQA
    p1 = default_point_count(kind, n, avail.directions, avail.pairs)
    if kind is ModelKind.BOBYQA and p1 == (n + 1) * (n + 2) // 2:
        kind = ModelKind.FULL_INTERP
    return kind, p1


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
    """Resolve the run's model (once per run) and evaluate its initial set.

    A fixed variable, a start outside the box, a budget below the initial
    set or a default radius not above ``min_radius`` raises before anything
    is evaluated.  The default initial radius, 0.1 max(1, |x0|_inf), is
    capped at half the narrowest box width, as BOBYQA requires of its
    initial radius.
    """
    x0 = np.asarray(x0, dtype=float)
    lower, upper = spec.bounds.lower, spec.bounds.upper
    fixed = np.flatnonzero(lower == upper)
    if fixed.size:
        names = ", ".join(str(i + 1) for i in fixed)
        raise ValueError(f"fixed variables are not supported: lower == upper at 1-based index {names}")
    if not spec.bounds.contains(x0):
        raise OutOfBounds("starting point violates bounds")
    kind, p1 = resolve_model(spec, config)
    if config.max_evaluations < p1:
        raise ValueError(
            f"budget {config.max_evaluations} cannot cover the {p1} initialization points"
        )
    delta0 = config.initial_radius
    if delta0 is None:
        narrowest = int(np.argmin(upper - lower))
        delta0 = min(0.1 * max(1.0, float(np.max(np.abs(x0)))), 0.5 * float(upper[narrowest] - lower[narrowest]))
        if delta0 <= config.min_radius:
            raise ValueError(
                f"box too narrow at 1-based index {narrowest + 1}: default initial radius "
                f"{delta0:.3g} does not exceed the minimum radius {config.min_radius:.3g}"
            )
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
        kind=kind,
    )


def _assemble(state: IterationState, spec: ObjectiveSpec):
    """The unscaled system of the run's kind on the current set."""
    ts, kind, avail = state.ts, state.kind, spec.availability
    if kind is ModelKind.FULL_INTERP:
        return assemble_full_interp(ts)
    if kind is ModelKind.BOBYQA:
        return assemble_min_frob(ts, state.h_prev)
    if kind is ModelKind.HERMITE_LS:
        return assemble_hermite_ls(ts, avail)
    return assemble_hermite_bobyqa(ts, avail, state.h_prev)


def _farthest_index(ts: TrainingSet) -> int:
    d = np.linalg.norm(ts.points - ts.incumbent_record.point, axis=1)
    return int(np.argmax(d))


@lru_cache(maxsize=64)
def _pair_directions(n: int) -> np.ndarray:
    """Diagonal pair directions, which fill the cross-term columns a
    coordinate cross leaves empty: for each pair i < j in order, e_i + e_j,
    its negative, e_i - e_j and its negative, over sqrt(2).  Negated
    zeros keep their sign.  Shared by every repair, so read-only."""
    i, j = np.triu_indices(n, 1)
    rows = np.arange(i.size)
    off = np.zeros((i.size, n))
    off[rows, i] = off[rows, j] = 1.0 / math.sqrt(2.0)
    flipped = off.copy()
    flipped[rows, j] = -off[rows, j]
    table = np.stack([off, -off, flipped, -flipped], axis=1).reshape(-1, n)
    table.flags.writeable = False
    return table


def _null_basis(sys) -> np.ndarray:
    _, s, Vt = sys.svd
    null = Vt[s <= max(NULL_RTOL * s[0], np.finfo(float).tiny)]
    return null if null.size else Vt[-1:]


def _candidate_rows(sys, candidates: np.ndarray, delta: float):
    """The scaled value row and derivative rows each candidate point would
    add to the system: ``(C, cols)`` and ``(C, directions, cols)``."""
    Z = candidates - sys.shift
    axes = [d - 1 for b in sys.blocks if b.name == "grad" for d in b.labels]
    values = sys.basis.value_rows(Z) * sys.col_scale
    derivatives = sys.basis.derivative_rows(Z, axes) * sys.col_scale * delta
    return values, derivatives.reshape(len(Z), len(axes), values.shape[1])


def _row_score(null: np.ndarray, value: np.ndarray, rows: np.ndarray) -> float:
    """One candidate's score: the squared norm of each nonzero row's unit
    vector projected on the null basis, summed in row order."""
    score = 0.0
    for row in (value, *rows):
        norm = float(np.linalg.norm(row))
        if norm > 0:
            score += float(np.linalg.norm(null @ (row / norm)) ** 2)
    return score


def _null_space_scores(sys, null: np.ndarray, candidates: np.ndarray, delta: float) -> list[float]:
    """How strongly the rows each candidate point would contribute overlap
    the null space of the (scaled) system; larger lifts the rank more.
    The rows of all candidates are built at once; each row keeps its own
    norm and matrix-vector product, summed in row order, so a score does
    not depend on the other candidates."""
    values, derivatives = _candidate_rows(sys, candidates, delta)
    return [_row_score(null, v, d) for v, d in zip(values, derivatives)]


def _stacked_scores(null: np.ndarray, values: np.ndarray, derivatives: np.ndarray):
    """``_row_score`` of every candidate from one stacked product, and a
    bound on each stacked score's distance from the loop's; None when the
    bound does not hold.

    A row ``a`` of ``q`` entries adds ``t = |N a|^2 / |a|^2`` for the ``k
    x q`` null basis ``N``.  ``|N|_2^2 <= beta``, where ``beta`` bounds ``1
    + |N N^T - I|_F`` past the rounding of ``N N^T``, so ``0 <= t <=
    beta``.  Either scorer rounds ``|a|`` by ``(q/2 + 1) u`` and ``a /
    |a|`` by ``(q/2 + 2) u`` entrywise (``u`` the unit roundoff), the
    product with ``N`` by ``sqrt(k) q u sqrt(beta)`` in 2-norm and the
    squared norm by ``(k + 3) u``, so a term errs from ``t`` by about
    ``beta u (2 sqrt(k) q + q + k + 7)`` at most, and a candidate's sum of
    ``r`` terms by ``r`` of those plus ``r^2 u beta`` for the additions.
    ``r beta eps ((sqrt(k) + 1)(q + 3) + k + r + 4)`` (``eps = 2u``)
    covers that with room for every second-order term, and twice it
    bounds the distance between the two scorers.  The analysis needs no
    overflow and no underflow beyond ``q + k`` subnormal units per term,
    which row norms in ``[1e-140, 1e140]`` (or exactly 0: a row whose
    squares all underflow, which both scorers skip) guarantee; other
    rows, NaN included, return None.
    """
    count, r, q = len(values), 1 + derivatives.shape[1], values.shape[1]
    k = null.shape[0]
    rows = np.concatenate([values[:, None], derivatives], axis=1).reshape(-1, q)
    norms = np.linalg.norm(rows, axis=1)
    gram = null @ null.T
    eps = np.finfo(float).eps
    beta = 1.0 + 2.0 * (np.linalg.norm(gram - np.eye(k)) + q * eps * np.trace(gram))
    in_range = (norms == 0.0) | ((norms >= 1e-140) & (norms <= 1e140))
    if not (np.all(in_range) and math.isfinite(beta)):
        return None
    proj = (rows / np.where(norms > 0.0, norms, 1.0)[:, None]) @ null.T
    scores = np.einsum("ij,ij->i", proj, proj).reshape(count, r).sum(axis=1)
    return scores, 2 * r * beta * eps * ((math.sqrt(k) + 1) * (q + 3) + k + r + 4)


def _best_candidate(sys, null: np.ndarray, candidates: np.ndarray, delta: float) -> int:
    """``argmax(_null_space_scores(sys, null, candidates, delta))``, with
    the loop run only on the candidates the stacked scores cannot rule
    out.  A loop score lies within ``bound`` of its stacked score (see
    ``_stacked_scores``), so a candidate whose stacked score trails the
    top one by more than ``2 bound`` scores below it in the loop too; the
    slack in ``bound`` absorbs the rounding of that comparison.  Without a
    bound every candidate is a contender."""
    values, derivatives = _candidate_rows(sys, candidates, delta)
    stacked = _stacked_scores(null, values, derivatives)
    if stacked is None:
        contenders = np.arange(len(values))
    else:
        scores, bound = stacked
        contenders = np.flatnonzero(scores >= np.max(scores) - 2 * bound)
    exact = [_row_score(null, values[c], derivatives[c]) for c in contenders]
    return int(contenders[int(np.argmax(exact))])


def _first_distinct(x_opt, delta, directions, bounds, points) -> np.ndarray | None:
    """The first repair candidate, over ``REPAIR_SCALES`` in turn and
    ``directions`` in order, that equals no point of ``points``; None when
    there is none.  Clipping and ``rows_equal`` work row by row, so each
    candidate is bit for bit the row a batch over all directions gives."""
    for scale in REPAIR_SCALES:
        for d in directions:
            y = bounds.clip(x_opt + scale * delta * d)
            if _is_distinct(y, points):
                return y
    return None


def _point_leverage(sys, point_count: int) -> np.ndarray:
    """Total leverage of each training point's rows in the non-null row
    space, summed in row order; a point's redundancy grows with it."""
    U, s, _ = sys.svd
    keep = s > NULL_RTOL * s[0]
    leverage_rows = np.sum(U[:, keep] ** 2, axis=1)
    # mfn rows belong to no point: they fill a spare last bin
    points = [np.full(b.rows, point_count) if b.points is None else b.points for b in sys.blocks]
    totals = np.bincount(np.concatenate(points), weights=leverage_rows, minlength=point_count + 1)
    return totals[:point_count]


def _propose_repair(state, spec, sys_scaled, skip=()):
    """A fresh geometry point near the incumbent, and the training index
    it should replace.

    A rank-deficient system has no Lagrange polynomials, so the repair
    point comes from candidate directions (the least-covered direction
    of the point cloud, then ``_pair_directions``) instead of a
    polynomial extremizer.  The Frobenius kinds take the first distinct
    candidate; for the regression kinds the candidate whose rows best
    cover the system's null space wins (``_best_candidate``).  A stale
    set (points far outside the trust ball, which wrecks the scaled
    system's conditioning) loses its farthest point; otherwise the most
    redundant point goes; ``skip`` holds indices no longer to be
    replaced.  Returns ``(index, point)``, or None when no index is left
    or no distinct feasible candidate exists.
    """
    ts, delta = state.ts, state.radius
    x_opt = ts.incumbent_record.point
    D = ts.points - x_opt
    _, _, Vt = np.linalg.svd(D, full_matrices=True)
    dist = np.linalg.norm(D, axis=1)
    if float(np.max(dist)) > STALE_FACTOR * delta:
        order = np.argsort(-dist)
    else:
        order = np.argsort(_point_leverage(sys_scaled, ts.size), kind="stable")
    target = next((int(i) for i in order if i != ts.incumbent_index and i not in skip), None)
    if target is None:
        return None
    directions = np.vstack([Vt[-1], -Vt[-1], _pair_directions(ts.dimension)])
    if state.kind in FROBENIUS_KINDS:
        pick = _first_distinct(x_opt, delta, directions, spec.bounds, ts.points)
        return None if pick is None else (target, pick)
    for scale in REPAIR_SCALES:
        candidates = spec.bounds.clip(x_opt + scale * delta * directions)
        candidates = candidates[~np.any(rows_equal(ts.points, candidates), axis=1)]
        if len(candidates):
            best = _best_candidate(sys_scaled, _null_basis(sys_scaled), candidates, delta)
            return target, candidates[best]
    return None


def _propose_geometry(state, spec, config, delta, sys_now=None):
    """A geometry-improvement point when the set is badly poised on the
    current ball or has gone stale (points far outside it).

    Works from the current training set, which may already contain the
    just-accepted trial point.  ``sys_now`` is the unweighted scaled
    system of that set for radius ``delta`` when the caller still has it;
    the family ignores the previous Hessian and the right-hand side, so a
    system assembled before ``state.h_prev`` changed serves as well.

    A set whose Lagrange column bounds all lie within the threshold is
    well poised without an estimate: the estimate never exceeds the
    largest bound.  Returns ``(proposal, lam, lam_bound)``: ``proposal``
    is the farthest point's index and the distinct point to evaluate in
    its place, or None; the estimate and that bound are NaN when not
    computed.
    """
    lam = lam_bound = math.nan
    try:
        x_opt = state.ts.incumbent_record.point
        if sys_now is None:
            sys_now = apply_scaling(_assemble(state, spec), delta)
        family = lagrange_family(sys_now)
        far = _farthest_index(state.ts)
        far_dist = float(np.linalg.norm(state.ts.records[far].point - x_opt))
        region = Region(x_opt, max(state.radius, config.min_radius), spec.bounds)
        stale = far_dist > STALE_FACTOR * delta
        if not stale:
            lam_bound = float(np.max(column_bounds(family, region)))
            # written so that a NaN bound certifies nothing
            if not lam_bound <= LAMBDA_THRESHOLD:
                lam = estimate_lambda(family, region).lam
        if stale or lam > LAMBDA_THRESHOLD:
            point = propose_geometry_point(family, far, region)
            if _is_distinct(point, state.ts.points):
                return (far, point), lam, lam_bound
    except RankDeficient:
        pass
    return None, lam, lam_bound


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
        sys_scaled = apply_scaling(_assemble(state, spec), delta)
        solvable = sys_scaled
        if config.weighting and state.kind in HERMITE_KINDS:
            solvable = apply_weighting(solvable, state.ts)
        try:
            model = solve_system(solvable)
            break
        except RankDeficient:
            if attempt == max_repairs:
                break
            proposal = _propose_repair(state, spec, sys_scaled, skip=repaired)
            if proposal is None:
                break
            target, point = proposal
            state.ts = state.ts.replace(target, evaluator(point, "repair"))
            repaired.add(target)
    if model is None:
        # geometry repair failed to restore rank; shrink and try again
        return _set_radius(state, GAMMA_DEC * delta, config)

    if state.kind in FROBENIUS_KINDS:
        state.h_prev = model.H
    # the solve cached this factorization, so reading it costs nothing
    s = solvable.svd[1]
    sigma_ratio = float(s[-1] / s[0])

    incumbent = state.ts.incumbent_record
    x_opt, f_opt = incumbent.point, incumbent.value
    step = solve_subproblem(model, x_opt, delta, spec.bounds)
    step_norm = math.sqrt(float(step.dot(step)))
    if step_norm < STEP_TINY:
        return TerminationReason.STEP_SIZE_TINY

    decrease = model.value(x_opt) - model.value(x_opt + step)
    if decrease <= 1e-15 * max(1.0, abs(f_opt)):
        # below the resolution of the objective value: reject without
        # spending the budget
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

    replaced = None
    if accepted:
        try:
            outgoing = select_outgoing(lagrange_family(sys_scaled), trial)
        except RankDeficient:
            outgoing = _farthest_index(state.ts)
        try:
            state.ts = state.ts.replace(outgoing, rec)
            replaced = outgoing
        except DuplicatePoint:
            pass
    # the row goes in before the geometry step, whose evaluation may end
    # the run, so every billed trial keeps its row
    row = TraceRow(
        iteration=state.iteration,
        evaluations=evaluator.used,
        radius=state.radius,
        f_best=evaluator.best_value,
        accepted=accepted,
        model=model,
        ratio=r,
        step_norm=step_norm,
        predicted_decrease=decrease,
        repairs=len(repaired),
        sigma_ratio=sigma_ratio,
        replaced=replaced,
    )
    trace.append(row)
    # a crawl of tiny accepted steps never rejects, so it would never
    # reach the geometry check below; bad geometry sustains exactly
    # that pattern by freezing the model transverse to the crawl
    if accepted and step_norm < 0.1 * delta:
        proposal, lam, lam_bound = _propose_geometry(state, spec, config, delta)
    # a trial that changed nothing means the function is flat at this
    # resolution; fresh geometry points would all repeat that value
    elif not accepted and rec.value != f_opt:
        # the training set is unchanged, so this iteration's system and
        # its factorization still describe it
        proposal, lam, lam_bound = _propose_geometry(state, spec, config, delta, sys_scaled)
    else:
        return stop
    if proposal is not None:
        far, point = proposal
        try:
            state.ts = state.ts.replace(far, evaluator(point, "geometry"))
        finally:
            row.evaluations, row.f_best = evaluator.used, evaluator.best_value
    row.lam, row.lam_bound = lam, lam_bound
    return stop


def run(spec: ObjectiveSpec, x0: np.ndarray, config: SolverConfig | None = None) -> RunResult:
    """Minimize the objective from x0 under the given configuration.

    numpy's OpenBLAS, when found, runs on one thread until the call
    returns or raises, oracle calls included; the caller's thread count
    is restored afterwards.  Only hermite-ls reads second-order rows,
    and it reads every pair its spec declares; every other run leaves
    ``second_derivative`` uncalled.
    """
    config = config or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"start point has shape {x0.shape}, expected ({spec.dimension},)")
    if spec.availability.pairs and config.kind is not ModelKind.HERMITE_LS:
        avail = dataclasses.replace(spec.availability, second_order=frozenset())
        spec = dataclasses.replace(spec, availability=avail)
    evaluator = Evaluator(spec, config.max_evaluations)
    trace: list[TraceRow] = []
    reason = None
    state = None
    error = None
    with _blas.one_blas_thread:
        try:
            state = initialize(spec, x0, config, evaluator)
            while reason is None:
                reason = step_iteration(state, spec, config, evaluator, trace)
        except _Stop as stop:
            reason, error = stop.reason, stop.__cause__
    return RunResult(
        x_best=evaluator.best_point,
        f_best=evaluator.best_value,
        evaluations=evaluator.used,
        iterations=state.iteration if state is not None else 0,
        reason=reason,
        trace=trace,
        evaluation_log=evaluator.log,
        error=error,
    )

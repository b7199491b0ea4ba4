"""Assembly and solution of the quadratic model-building systems.

Four system kinds come from two builders.  ``_regression_system`` fits
the basis coefficients: full quadratic interpolation (square, value rows
only) and Hermite least squares (plus derivative rows and optional
second-order rows).  ``_frobenius_system`` parameterizes the Hessian as
an update of the previous one: BOBYQA's min-Frobenius-norm system, and
Hermite BOBYQA with gradient-matching rows appended.  The four
``assemble_*`` entry points check their inputs and call their builder;
systems with more rows than columns are solved by least squares.

All systems work in coordinates shifted by the incumbent; the constant
coefficient is pinned to the incumbent value and never enters a system.

Rows come in blocks (``RowBlock``): ``value``, then ``mfn`` for the
Frobenius kinds, then ``grad`` and ``hess`` for the Hermite kinds.
Scaling for trust radius delta multiplies each block and column group by
delta to a fixed exponent, as if the points were divided by delta: regression
kinds take -1, -2 on linear and quadratic columns and 0, 1, 2 on value,
grad and hess rows; Frobenius kinds take -2, 1 on point and gradient
columns and -2, 1, -1 on value, mfn and grad rows.  Distance weights
apply to every Hermite least-squares block and to Hermite BOBYQA's grad.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .basis import MonomialBasis
from .exceptions import RankDeficient
from .problem import TrainingSet

# relative singular-value cutoff below which a system counts as rank deficient
RANK_TOLERANCE = 1e-12
# exponential distance-weighting scale of the regression rows
WEIGHT_SCALE = 5.0


class ModelKind(Enum):
    FULL_INTERP = "full-interp"
    BOBYQA = "bobyqa"
    HERMITE_LS = "hermite-ls"
    HERMITE_BOBYQA = "hermite-bobyqa"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        """The kind whose value is ``text``, ignoring case and surrounding
        whitespace."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            known = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown model kind {text!r}; known: {known}") from None


# kinds whose rows admit distance weighting, and kinds whose Hessian is
# parameterized as an update of the previous one
HERMITE_KINDS = (ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA)
FROBENIUS_KINDS = (ModelKind.BOBYQA, ModelKind.HERMITE_BOBYQA)


@dataclass(frozen=True)
class QuadraticModel:
    """Local quadratic ``c + g.(x-center) + (x-center).H.(x-center)/2``."""

    center: np.ndarray
    c: float
    g: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))

    def value(self, x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - self.center
        return float(self.c + self.g @ d + 0.5 * d @ self.H @ d)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        d = np.asarray(x, dtype=float) - self.center
        return self.g + self.H @ d

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of points (rows)."""
        D = np.atleast_2d(points) - self.center
        return self.c + D @ self.g + 0.5 * np.einsum("ij,jk,ik->i", D, self.H, D)


def distance_weights(ts: TrainingSet) -> np.ndarray:
    """Exponential distance weights of the training points.

    The weight of a point at distance d from the incumbent is
    ``exp(s - s*d/dmax) / exp(s)`` with ``s = WEIGHT_SCALE`` and dmax the
    largest distance in the set, so the nearest point carries the
    largest weight.
    """
    d = np.linalg.norm(ts.points - ts.incumbent_record.point, axis=1)
    dmax = float(np.max(d))
    if dmax == 0.0:
        return np.ones(ts.size)
    return np.exp(WEIGHT_SCALE - WEIGHT_SCALE * d / dmax) / np.exp(WEIGHT_SCALE)


@dataclass(frozen=True)
class RowBlock:
    """Consecutive system rows scaled by ``delta**exponent`` and, when
    ``weighted``, by their points' distance weights.

    ``points`` holds each row's training index (None for ``mfn``).  A
    derivative block is point-major: each point owns one row per entry
    of ``labels``, its 1-based directions (``grad``) or pairs (``hess``);
    ``mfn`` rows are labelled by their 1-based axes.
    """

    name: str
    points: np.ndarray | None
    exponent: int
    weighted: bool
    labels: tuple = ()

    @property
    def rows(self) -> int:
        return len(self.labels) if self.points is None else len(self.points)


@lru_cache(maxsize=256)
def _repeat(values: tuple, counts: tuple) -> np.ndarray:
    """``np.repeat(values, counts)``, built once per pattern and shared by
    every system, so read-only."""
    out = np.repeat(values, counts)
    out.flags.writeable = False
    return out


def _derivative_block(name: str, size: int, labels, exponent: int) -> RowBlock:
    """Weighted point-major block over all ``size`` training points."""
    points = _repeat(tuple(range(size)), (len(labels),) * size)
    return RowBlock(name, points, exponent, True, tuple(labels))


@dataclass
class AssembledSystem:
    """A model-building linear system plus everything needed to undo it.

    ``blocks`` partition the rows in order; the value block comes first
    and lists every training index but the incumbent's.  Column ``k``
    scales by ``delta**col_exponents[k]``.  For the Frobenius kinds
    ``shifted_points`` and ``h_prev`` feed the Hessian recovery; for the
    others the coefficient vector maps directly onto gradient and packed
    Hessian entries.
    """

    kind: ModelKind
    matrix: np.ndarray
    rhs: np.ndarray
    shift: np.ndarray
    f_opt: float
    blocks: tuple[RowBlock, ...]
    col_exponents: np.ndarray
    basis: MonomialBasis
    shifted_points: np.ndarray | None = None
    h_prev: np.ndarray | None = None
    col_scale: np.ndarray | None = None
    row_scale: np.ndarray | None = None

    @property
    def scaled(self) -> bool:
        return self.col_scale is not None

    @property
    def value_block(self) -> RowBlock:
        return self.blocks[0]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD of ``matrix``, computed once and shared by the solve,
        the Lagrange family and the rank repair."""
        return np.linalg.svd(self.matrix, full_matrices=False)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def _shifted_non_incumbent(ts: TrainingSet):
    shift = ts.incumbent_record.point
    order = [i for i in range(ts.size) if i != ts.incumbent_index]
    D = ts.points[order] - shift
    f_opt = ts.incumbent_record.value
    value_rhs = np.array([ts.records[i].value - f_opt for i in order])
    return shift, np.array(order), D, f_opt, value_rhs


def _derivative_entries(ts: TrainingSet, labels, second: bool = False) -> np.ndarray:
    """Known derivative entries of every record, one row per point and
    one column per label; raises ValueError for a missing one."""
    rows = []
    for i, rec in enumerate(ts.records):
        known = rec.second if second else rec.gradient
        try:
            rows.append([known[label] for label in labels])
        except KeyError as exc:
            what = "second derivative for pair" if second else "derivative for direction"
            raise ValueError(f"record {i} lacks the {what} {exc.args[0]}") from None
    return np.array(rows, dtype=float).reshape(ts.size, len(labels))


def _check_symmetric(H: np.ndarray, n: int) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError("previous Hessian has wrong shape")
    if np.max(np.abs(H - H.T)) > 1e-8 * max(1.0, np.max(np.abs(H))):
        raise ValueError("previous Hessian must be symmetric")
    return 0.5 * (H + H.T)


def _regression_system(ts: TrainingSet, kind: ModelKind, directions, pairs) -> AssembledSystem:
    """Value rows, then for Hermite least squares the derivative and
    second-order rows ``assemble_hermite_ls`` describes."""
    basis = MonomialBasis(ts.dimension)
    hermite = kind is ModelKind.HERMITE_LS
    shift, order, D, f_opt, value_rhs = _shifted_non_incumbent(ts)
    rhs = [value_rhs]
    blocks = [RowBlock("value", order, 0, hermite)]
    parts = [basis.value_rows(D)]
    if hermite:
        rhs.append(_derivative_entries(ts, directions).ravel())
        blocks.append(_derivative_block("grad", ts.size, directions, 1))
        parts.append(basis.derivative_rows(ts.points - shift, [d - 1 for d in directions]))
    if pairs:
        rhs.append(_derivative_entries(ts, pairs, second=True).ravel())
        blocks.append(_derivative_block("hess", ts.size, pairs, 2))
        hess_rows = [basis.second_derivative_row((a - 1, b - 1)) for a, b in pairs]
        parts.append(np.tile(hess_rows, (ts.size, 1)))
    matrix = np.vstack(parts)
    if matrix.shape[0] < basis.q1 - 1:
        raise ValueError(f"{matrix.shape[0]} rows cannot determine {basis.q1 - 1} coefficients")
    return AssembledSystem(
        kind=kind,
        matrix=matrix,
        rhs=np.concatenate(rhs),
        shift=shift,
        f_opt=f_opt,
        blocks=tuple(blocks),
        col_exponents=_repeat((-1, -2), (basis.n, basis.n_quadratic)),
        basis=basis,
    )


def _frobenius_system(ts: TrainingSet, h_prev: np.ndarray, directions) -> AssembledSystem:
    """Value rows and ``mfn`` rows for a symmetric ``h_prev``, then one
    gradient-matching row per known direction of each point, point-major."""
    n = ts.dimension
    shift, order, D, f_opt, value_rhs = _shifted_non_incumbent(ts)
    p = len(order)
    axes = np.array([d - 1 for d in directions], dtype=int)
    matrix = np.zeros((p + n + ts.size * axes.size, p + n))
    gram = D @ D.T
    matrix[:p, :p] = 0.5 * gram**2
    matrix[:p, p:] = D
    matrix[p : p + n, :p] = D.T
    correction = 0.5 * np.einsum("ij,jk,ik->i", D, h_prev, D)
    rhs = [value_rhs - correction, np.zeros(n)]
    blocks = [
        RowBlock("value", order, -2, False),
        RowBlock("mfn", None, 1, False, tuple(range(1, n + 1))),
    ]
    if directions:
        # D @ d_j and h_prev @ d_j for every point j as stacked matrix-vector
        # products, which numpy runs one GEMV per point; one GEMM over all
        # points would round differently
        P = (ts.points - shift)[:, :, None]
        inner = (D[None] @ P)[:, None, :, 0]
        # row (j, l): sum_i v_i (C^i d_j)_l + g_l, with (C^i d_j)_l = D[i, l] (d_i . d_j)
        grad_rows = matrix[p + n :].reshape(ts.size, axes.size, p + n)
        grad_rows[:, :, :p] = D.T[axes][None] * inner
        grad_rows[:, np.arange(axes.size), p + axes] = 1.0
        rhs.append((_derivative_entries(ts, directions) - (h_prev[None] @ P)[:, axes, 0]).ravel())
        blocks.append(_derivative_block("grad", ts.size, directions, -1))
    return AssembledSystem(
        kind=ModelKind.HERMITE_BOBYQA if directions else ModelKind.BOBYQA,
        matrix=matrix,
        rhs=np.concatenate(rhs),
        shift=shift,
        f_opt=f_opt,
        blocks=tuple(blocks),
        # point columns, then the n gradient columns
        col_exponents=_repeat((-2, 1), (p, n)),
        basis=MonomialBasis(n),
        shifted_points=D,
        h_prev=h_prev,
    )


def assemble_full_interp(ts: TrainingSet) -> AssembledSystem:
    """Square interpolation system on a set of (n+1)(n+2)/2 points."""
    q1 = MonomialBasis(ts.dimension).q1
    if ts.size != q1:
        raise ValueError(f"full interpolation needs {q1} points, got {ts.size}")
    return _regression_system(ts, ModelKind.FULL_INTERP, (), ())


def assemble_min_frob(ts: TrainingSet, h_prev: np.ndarray) -> AssembledSystem:
    """BOBYQA block system: interpolation plus minimal Hessian change.

    The Hessian is parameterized as ``h_prev`` plus a combination of
    rank-one terms on the shifted points, and the trailing block forces
    the combination weights to have zero first moment.
    """
    n = ts.dimension
    q1 = MonomialBasis(n).q1
    if not n + 2 <= ts.size < q1:
        raise ValueError(f"min-Frobenius kind needs n+2 <= p1 < {q1}, got {ts.size}")
    return _frobenius_system(ts, _check_symmetric(h_prev, n), ())


def assemble_hermite_ls(ts: TrainingSet, availability) -> AssembledSystem:
    """Hermite least-squares system: value rows for the non-incumbent
    points, then derivative rows for every point in point-major order
    (all known directions of the first point, then the next point, ...).

    Second-order rows are appended per point for every available pair;
    a run that does not read them drops the pairs from its availability.
    Right-hand sides carry differenced values but raw derivative values.
    """
    directions, pairs = availability.directions, availability.pairs
    if not directions and not pairs:
        raise ValueError("Hermite least squares needs derivative availability")
    return _regression_system(ts, ModelKind.HERMITE_LS, directions, pairs)


def assemble_hermite_bobyqa(ts: TrainingSet, availability, h_prev: np.ndarray) -> AssembledSystem:
    """Min-Frobenius system with gradient-matching rows appended.

    Each known direction l of each training point contributes the row

        sum_i v_i d_i[l] (d_i . d_j) + g_l = df/dx_l(y_j) - (h_prev d_j)_l

    built from the rank-one terms of the Hessian parameterization; the
    stacked system is solved in the least-squares sense.  Only these rows
    take distance weights: the min-Frobenius rows couple all points.
    """
    n = ts.dimension
    directions = availability.directions
    if not directions:
        raise ValueError("Hermite BOBYQA needs first-order availability")
    if ts.size < n + 2:
        raise ValueError(f"Hermite BOBYQA needs at least n+2 points, got {ts.size}")
    return _frobenius_system(ts, _check_symmetric(h_prev, n), directions)


def _scaling_vectors(sys: AssembledSystem, delta: float):
    # delta**e for e = -2..2, each from the expression that keeps the
    # scaled systems bit for bit; a vector power rounds differently
    powers = np.array([1.0 / delta**2, 1.0 / delta, 1.0, delta, delta**2])
    blocks = sys.blocks
    row_exponents = _repeat(tuple(b.exponent for b in blocks), tuple(b.rows for b in blocks))
    return powers[row_exponents + 2], powers[sys.col_exponents + 2]


def apply_scaling(sys: AssembledSystem, delta: float) -> AssembledSystem:
    """Precondition the system for trust radius ``delta``.

    Point entries are effectively scaled by 1/delta: each row block and
    column group is multiplied by delta to its exponent.  The solution
    is mapped back by the stored column scaling after the solve.
    """
    if delta <= 0:
        raise ValueError("trust radius must be positive")
    if sys.scaled:
        raise ValueError("system is already scaled")
    left, right = _scaling_vectors(sys, delta)
    return dc_replace(
        sys,
        matrix=left[:, None] * sys.matrix * right[None, :],
        rhs=left * sys.rhs,
        col_scale=right,
        row_scale=left,
    )


def apply_weighting(sys: AssembledSystem, ts: TrainingSet) -> AssembledSystem:
    """Multiply the rows of every weighted block (and their right-hand
    sides) by their points' ``distance_weights``; other rows keep weight
    one.

    Only the Hermite kinds have weighted blocks.
    """
    if not any(b.weighted for b in sys.blocks):
        raise ValueError(f"weighting does not apply to {sys.kind.value}")
    w = distance_weights(ts)
    row_w = np.concatenate([w[b.points] if b.weighted else np.ones(b.rows) for b in sys.blocks])
    return dc_replace(
        sys,
        matrix=row_w[:, None] * sys.matrix,
        rhs=row_w * sys.rhs,
    )


def require_full_rank(shape: tuple[int, int], s: np.ndarray) -> None:
    """Raise RankDeficient unless a matrix of ``shape`` with singular
    values ``s`` has full column rank within the tolerance."""
    if s.size == 0 or s[0] == 0.0:
        raise RankDeficient("system matrix is zero")
    if shape[0] < shape[1] or s[-1] <= RANK_TOLERANCE * s[0]:
        raise RankDeficient(
            f"column rank below tolerance (sigma ratio {s[-1] / s[0]:.2e})"
        )


def solve_raw(matrix: np.ndarray, rhs: np.ndarray, factors=None) -> np.ndarray:
    """SVD least-squares solve with a hard rank check.

    ``factors`` is the thin SVD of ``matrix`` when the caller has it.
    Raises RankDeficient when the column rank falls below the tolerance;
    callers treat that as a geometry failure rather than silently taking
    a minimum-norm solution.
    """
    U, s, Vt = np.linalg.svd(matrix, full_matrices=False) if factors is None else factors
    require_full_rank(matrix.shape, s)
    return Vt.T @ ((U.T @ rhs) / s)


def recover_model(sys: AssembledSystem, coefficients: np.ndarray) -> QuadraticModel:
    """Map a solution vector back onto (c, g, H) per the system kind."""
    n = sys.basis.n
    if sys.kind in (ModelKind.FULL_INTERP, ModelKind.HERMITE_LS):
        g = coefficients[:n]
        H = sys.basis.unpack_hessian(coefficients[n:])
    else:
        p = sys.value_block.rows
        vq = coefficients[:p]
        g = coefficients[p : p + n]
        H = sys.h_prev + sys.shifted_points.T @ (vq[:, None] * sys.shifted_points)
    H = 0.5 * (H + H.T)
    return QuadraticModel(center=sys.shift, c=sys.f_opt, g=np.array(g), H=H)


def solve_system(sys: AssembledSystem) -> QuadraticModel:
    """Solve the (possibly scaled and weighted) system and recover the model."""
    w = solve_raw(sys.matrix, sys.rhs, sys.svd)
    v = sys.col_scale * w if sys.scaled else w
    return recover_model(sys, v)

"""Assembly and solution of the quadratic model-building systems.

Four system kinds are supported:

* full quadratic interpolation (square, value rows only),
* the min-Frobenius-norm update system used by BOBYQA,
* Hermite least squares (value rows plus derivative rows, solved by
  least squares, optionally with second-order rows),
* Hermite BOBYQA (the min-Frobenius system with gradient-matching rows
  appended, solved by least squares).

All systems work in coordinates shifted by the incumbent; the constant
coefficient is pinned to the incumbent value and never enters a system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from functools import cached_property

import numpy as np

from .basis import MonomialBasis
from .exceptions import (
    KindMismatch,
    MissingDerivative,
    RankDeficient,
    Underdetermined,
    WrongSetSize,
)
from .problem import TrainingSet

# relative singular-value cutoff below which a system counts as rank deficient
RANK_TOLERANCE = 1e-12


class ModelKind(Enum):
    FULL_INTERP = "full-interp"
    BOBYQA = "bobyqa"
    HERMITE_LS = "hermite-ls"
    HERMITE_BOBYQA = "hermite-bobyqa"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        text = text.strip().lower()
        aliases = {
            "full": cls.FULL_INTERP,
            "full-interp": cls.FULL_INTERP,
            "fullinterp": cls.FULL_INTERP,
            "bobyqa": cls.BOBYQA,
            "min-frob": cls.BOBYQA,
            "minfrob": cls.BOBYQA,
            "hermite-ls": cls.HERMITE_LS,
            "hermitels": cls.HERMITE_LS,
            "hermite-bobyqa": cls.HERMITE_BOBYQA,
            "hermitebobyqa": cls.HERMITE_BOBYQA,
        }
        if text not in aliases:
            raise ValueError(f"unknown model kind {text!r}")
        return aliases[text]


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


@dataclass(frozen=True)
class WeightScheme:
    """Exponential distance weighting for the regression rows.

    The weight of a training point at distance d from the incumbent is
    ``exp(s - s*d/dmax) / exp(s)`` with dmax the largest distance in the
    set, so the nearest point carries the largest weight.
    """

    enabled: bool = True
    scale: float = 5.0

    def weights(self, ts: TrainingSet) -> np.ndarray:
        d = np.linalg.norm(ts.points - ts.incumbent_record.point, axis=1)
        dmax = float(np.max(d))
        if dmax == 0.0:
            return np.ones(ts.size)
        return np.exp(self.scale - self.scale * d / dmax) / np.exp(self.scale)


# Row tags record what each system row encodes:
#   ("value", i)        interpolation condition at training index i
#   ("grad", i, l)      first derivative condition at index i, direction l (1-based)
#   ("hess", i, (a,b))  second derivative condition at index i, pair (a,b) (1-based)
#   ("mfn", l)          min-Frobenius stationarity constraint row, axis l


@dataclass
class AssembledSystem:
    """A model-building linear system plus everything needed to undo it.

    ``row_tags`` give the provenance of every row; ``value_order`` lists the
    training indices behind the value rows (the incumbent never owns one).
    For the Frobenius kinds ``shifted_points`` and ``h_prev`` feed the
    Hessian recovery; for the others the coefficient vector maps directly
    onto gradient and packed Hessian entries.
    """

    kind: ModelKind
    matrix: np.ndarray
    rhs: np.ndarray
    shift: np.ndarray
    f_opt: float
    row_tags: tuple
    value_order: tuple[int, ...]
    point_count: int
    dimension: int
    basis: MonomialBasis
    shifted_points: np.ndarray | None = None
    h_prev: np.ndarray | None = None
    trust_radius: float | None = None
    col_scale: np.ndarray | None = None
    row_scale: np.ndarray | None = None
    weighted: bool = False

    @property
    def scaled(self) -> bool:
        return self.col_scale is not None

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
    order = tuple(i for i in range(ts.size) if i != ts.incumbent_index)
    D = ts.points[list(order)] - shift
    return shift, order, D


def _check_symmetric(H: np.ndarray, n: int) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError("previous Hessian has wrong shape")
    if np.max(np.abs(H - H.T)) > 1e-8 * max(1.0, np.max(np.abs(H))):
        raise ValueError("previous Hessian must be symmetric")
    return 0.5 * (H + H.T)


def assemble_full_interp(ts: TrainingSet) -> AssembledSystem:
    """Square interpolation system on a set of (n+1)(n+2)/2 points."""
    n = ts.dimension
    basis = MonomialBasis(n)
    if ts.size != basis.q1:
        raise WrongSetSize(
            f"full interpolation needs {basis.q1} points, got {ts.size}"
        )
    shift, order, D = _shifted_non_incumbent(ts)
    f_opt = ts.incumbent_record.value
    matrix = basis.value_rows(D)
    rhs = np.array([ts.records[i].value - f_opt for i in order])
    tags = tuple(("value", i) for i in order)
    return AssembledSystem(
        kind=ModelKind.FULL_INTERP,
        matrix=matrix,
        rhs=rhs,
        shift=shift,
        f_opt=f_opt,
        row_tags=tags,
        value_order=order,
        point_count=ts.size,
        dimension=n,
        basis=basis,
    )


def _min_frob_blocks(ts: TrainingSet, h_prev: np.ndarray):
    shift, order, D = _shifted_non_incumbent(ts)
    p = len(order)
    n = ts.dimension
    gram = D @ D.T
    A = 0.5 * gram**2
    matrix = np.zeros((p + n, p + n))
    matrix[:p, :p] = A
    matrix[:p, p:] = D
    matrix[p:, :p] = D.T
    f_opt = ts.incumbent_record.value
    correction = 0.5 * np.einsum("ij,jk,ik->i", D, h_prev, D)
    rhs = np.concatenate(
        [np.array([ts.records[i].value - f_opt for i in order]) - correction, np.zeros(n)]
    )
    tags = tuple(("value", i) for i in order) + tuple(("mfn", l) for l in range(1, n + 1))
    return shift, order, D, matrix, rhs, tags, f_opt


def assemble_min_frob(ts: TrainingSet, h_prev: np.ndarray) -> AssembledSystem:
    """BOBYQA block system: interpolation plus minimal Hessian change.

    The Hessian is parameterized as ``h_prev`` plus a combination of
    rank-one terms on the shifted points, and the trailing block forces
    the combination weights to have zero first moment.
    """
    n = ts.dimension
    basis = MonomialBasis(n)
    if not n + 2 <= ts.size < basis.q1:
        raise WrongSetSize(
            f"min-Frobenius kind needs n+2 <= p1 < {basis.q1}, got {ts.size}"
        )
    h_prev = _check_symmetric(h_prev, n)
    shift, order, D, matrix, rhs, tags, f_opt = _min_frob_blocks(ts, h_prev)
    return AssembledSystem(
        kind=ModelKind.BOBYQA,
        matrix=matrix,
        rhs=rhs,
        shift=shift,
        f_opt=f_opt,
        row_tags=tags,
        value_order=order,
        point_count=ts.size,
        dimension=n,
        basis=basis,
        shifted_points=D,
        h_prev=h_prev,
    )


def _require_gradient_entry(record, direction: int, index: int) -> float:
    try:
        return record.gradient[direction]
    except KeyError:
        raise MissingDerivative(
            f"record {index} lacks the derivative for direction {direction}"
        ) from None


def assemble_hermite_ls(
    ts: TrainingSet,
    availability,
    include_second_order: bool = False,
) -> AssembledSystem:
    """Hermite least-squares system: value rows for the non-incumbent
    points, then derivative rows for every point in point-major order
    (all known directions of the first point, then the next point, ...).

    Second-order rows, when enabled, are appended per point for every
    available pair.  Right-hand sides carry differenced values but raw
    derivative values.
    """
    n = ts.dimension
    basis = MonomialBasis(n)
    directions = availability.directions
    pairs = availability.pairs if include_second_order else ()
    if not directions and not pairs:
        raise ValueError("Hermite least squares needs derivative availability")
    shift, order, D = _shifted_non_incumbent(ts)
    f_opt = ts.incumbent_record.value

    rhs = [ts.records[i].value - f_opt for i in order]
    tags = [("value", i) for i in order]
    for i, rec in enumerate(ts.records):
        for direction in directions:
            rhs.append(_require_gradient_entry(rec, direction, i))
            tags.append(("grad", i, direction))
    for i, rec in enumerate(ts.records):
        for pair in pairs:
            if pair not in rec.second:
                raise MissingDerivative(
                    f"record {i} lacks the second derivative for pair {pair}"
                )
            rhs.append(rec.second[pair])
            tags.append(("hess", i, pair))

    blocks = [
        basis.value_rows(D),
        basis.derivative_rows(ts.points - shift, [d - 1 for d in directions]),
    ]
    if pairs:
        hess = [basis.second_derivative_row((a - 1, b - 1)) for a, b in pairs]
        blocks.append(np.tile(hess, (ts.size, 1)))
    matrix = np.vstack(blocks)
    if matrix.shape[0] < basis.q1 - 1:
        raise Underdetermined(
            f"{matrix.shape[0]} rows cannot determine {basis.q1 - 1} coefficients"
        )
    return AssembledSystem(
        kind=ModelKind.HERMITE_LS,
        matrix=matrix,
        rhs=np.array(rhs),
        shift=shift,
        f_opt=f_opt,
        row_tags=tuple(tags),
        value_order=order,
        point_count=ts.size,
        dimension=n,
        basis=basis,
    )


def assemble_hermite_bobyqa(ts: TrainingSet, availability, h_prev: np.ndarray) -> AssembledSystem:
    """Min-Frobenius system with gradient-matching rows appended.

    Each known direction l of each training point contributes the row

        sum_i v_i d_i[l] (d_i . d_j) + g_l = df/dx_l(y_j) - (h_prev d_j)_l

    built from the rank-one terms of the Hessian parameterization; the
    stacked system is solved in the least-squares sense.
    """
    n = ts.dimension
    basis = MonomialBasis(n)
    directions = availability.directions
    if not directions:
        raise ValueError("Hermite BOBYQA needs first-order availability")
    if ts.size < n + 2:
        raise WrongSetSize(f"Hermite BOBYQA needs at least n+2 points, got {ts.size}")
    h_prev = _check_symmetric(h_prev, n)
    shift, order, D, base_matrix, base_rhs, base_tags, f_opt = _min_frob_blocks(ts, h_prev)
    p = len(order)

    axes = np.array([d - 1 for d in directions])
    # D @ d_j and h_prev @ d_j for every point j as stacked matrix-vector
    # products, which numpy runs one GEMV per point; one GEMM over all
    # points would round differently
    P = (ts.points - shift)[:, :, None]
    inner = (D[None] @ P)[:, None, :, 0]
    correction = (h_prev[None] @ P)[:, axes, 0]
    # row (j, l): sum_i v_i (C^i d_j)_l + g_l, with (C^i d_j)_l = D[i, l] (d_i . d_j)
    grad_rows = np.zeros((ts.size, axes.size, p + n))
    grad_rows[:, :, :p] = D.T[axes][None] * inner
    grad_rows[:, np.arange(axes.size), p + axes] = 1.0
    entries = [
        [_require_gradient_entry(rec, direction, j) for direction in directions]
        for j, rec in enumerate(ts.records)
    ]
    rhs = (np.array(entries) - correction).ravel()
    tags = tuple(("grad", j, direction) for j in range(ts.size) for direction in directions)

    matrix = np.vstack([base_matrix, grad_rows.reshape(-1, p + n)])
    return AssembledSystem(
        kind=ModelKind.HERMITE_BOBYQA,
        matrix=matrix,
        rhs=np.concatenate([base_rhs, rhs]),
        shift=shift,
        f_opt=f_opt,
        row_tags=base_tags + tags,
        value_order=order,
        point_count=ts.size,
        dimension=n,
        basis=basis,
        shifted_points=D,
        h_prev=h_prev,
    )


def _scaling_vectors(sys: AssembledSystem, delta: float):
    n = sys.dimension
    p = len(sys.value_order)
    if sys.kind in (ModelKind.FULL_INTERP, ModelKind.HERMITE_LS):
        # columns: n linear then q1-1-n quadratic
        right = np.concatenate(
            [np.full(n, 1.0 / delta), np.full(sys.basis.n_quadratic, 1.0 / delta**2)]
        )
        left = np.ones(sys.rows)
        for r, tag in enumerate(sys.row_tags):
            if tag[0] == "grad":
                left[r] = delta
            elif tag[0] == "hess":
                # keeps second-order rows on the scale of the scaled points
                left[r] = delta**2
        return left, right
    diag = np.concatenate([np.full(p, 1.0 / delta**2), np.full(n, delta)])
    if sys.kind is ModelKind.BOBYQA:
        return diag.copy(), diag
    # Hermite BOBYQA: extra 1/delta on every appended gradient row
    n_grad = sys.rows - (p + n)
    left = np.concatenate([diag, np.full(n_grad, 1.0 / delta)])
    return left, diag


def apply_scaling(sys: AssembledSystem, delta: float) -> AssembledSystem:
    """Precondition the system for trust radius ``delta``.

    Point entries are effectively scaled by 1/delta: linear columns pick
    up 1/delta, quadratic columns 1/delta^2, and row scalings restore the
    derivative rows to unit magnitude.  The solution is mapped back by
    the stored column scaling after the solve.
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
        trust_radius=delta,
        col_scale=right,
        row_scale=left,
    )


def apply_weighting(sys: AssembledSystem, scheme: WeightScheme, ts: TrainingSet) -> AssembledSystem:
    """Multiply each row (and its right-hand side) by its point's weight.

    Only the regression kinds admit weighting; for Hermite BOBYQA the
    min-Frobenius block keeps weight one because those rows couple all
    points at once.
    """
    if sys.kind not in HERMITE_KINDS:
        raise KindMismatch(f"weighting does not apply to {sys.kind.value}")
    if not scheme.enabled:
        return sys
    w = scheme.weights(ts)
    row_w = np.ones(sys.rows)
    for r, tag in enumerate(sys.row_tags):
        if sys.kind is ModelKind.HERMITE_BOBYQA and tag[0] != "grad":
            continue
        row_w[r] = w[tag[1]]
    return dc_replace(
        sys,
        matrix=row_w[:, None] * sys.matrix,
        rhs=row_w * sys.rhs,
        weighted=True,
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
    n = sys.dimension
    if sys.kind in (ModelKind.FULL_INTERP, ModelKind.HERMITE_LS):
        g = coefficients[:n]
        H = sys.basis.unpack_hessian(coefficients[n:])
    else:
        p = len(sys.value_order)
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

"""Lagrange polynomials, poisedness estimates and geometry improvement.

For interpolation systems the Lagrange polynomial of a point is one at
that point and zero at the others.  For regression and min-Frobenius
systems the analogous polynomials come from solving the system against
unit right-hand sides (least squares or exact, matching how the model
itself is solved), and the incumbent's polynomial is the complement
``1 - sum(others)`` so that constants are reproduced.

A family is held in matrix form: one column of basis coefficients per
polynomial plus a vector of constants, built from a single
pseudo-inverse.  Evaluating every polynomial over a sample of points is
then one matrix product against the sample's basis rows, and
``QuadraticModel`` objects are made only for the columns a caller uses.

The poisedness constant of a family over a region is estimated as the
maximum absolute polynomial value over a deterministic sample of the
region, refined by a few steps of projected ascent.  It is a lower bound
on the true constant.

A choice among columns (``estimate_lambda``, ``select_outgoing``) is the
first argmax of the values the one matrix product gives, so ties go to
the lowest index and a NaN column wins.

A choice of a row of the sample (the seed of ``propose_geometry_point``)
screens first and settles second.  Each screened value carries a
rigorous bound on how far it can sit from ``QuadraticModel.value_at``'s
value.  A row that beats every other row by more than both bounds is the
exact first argmax; when none does, ``value_at`` runs over the whole
sample.  It is never re-run on a subset, because its ``einsum`` can round
a row differently depending on the rows around it (seen at n = 2).

A further scheme skips work that cannot change a choice.
``column_bounds`` bounds every column's |value| over a region from its
coefficient norms alone (proof in its docstring).  When no bound exceeds
the driver's poisedness threshold, no estimate could either, so the set
is certified well poised without a scan.  ``estimate_lambda`` screens its
first block of rows with every column and then drops the columns whose
bound lies clearly below the best value seen, since none of them can be
the largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import MonomialBasis
from .models import (
    FROBENIUS_KINDS,
    AssembledSystem,
    QuadraticModel,
    RowBlock,
    require_full_rank,
)
from .problem import Bounds

LAMBDA_SAMPLE_CAP = 10_000
# projected-ascent steps after the sample scan of an estimate or proposal
POLISH_STEPS = 5
# sample rows per matrix product; keeps the value block near 0.5 MB
GEMM_BLOCK = 512
# relative margin of ``column_bounds`` over every rounding it must absorb
BOUND_RTOL = 1e-6
# numpy sums rows shorter than this left to right (longer ones pairwise)
SUM_IN_ORDER = 8
# unit-ball draws shifted and tested per step of the ball sample's walk
BALL_BLOCK = 1024


@lru_cache(maxsize=8)
def _unit_ball_draws(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-seed uniform sample of the unit ball: unit directions and
    radial factors ``u**(1/n)``.  Shared by every caller, so read-only."""
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((count, n))
    directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radial = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    directions.flags.writeable = False
    radial.flags.writeable = False
    return directions, radial


def _ball_test_always_passes(center: np.ndarray, radius: float) -> bool:
    """Whether no ball draw can fail the ball sample's norm test (see
    ``Region._draw``)."""
    return bool(1e-100 <= radius <= 1e100 and np.linalg.norm(center) <= 1e6 * radius)


@dataclass(frozen=True)
class Region:
    """Intersection of a trust ball with the box constraints."""

    center: np.ndarray
    radius: float
    bounds: Bounds

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.maximum(self.center - self.radius, self.bounds.lower)
        hi = np.minimum(self.center + self.radius, self.bounds.upper)
        lo.flags.writeable = False
        hi.flags.writeable = False
        return lo, hi

    def contains(self, x: np.ndarray) -> bool:
        """Whether ``x`` lies in the region, up to a slack of 1e-12."""
        lo, hi = self.box
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            return False
        return float(np.linalg.norm(x - self.center)) <= self.radius * (1 + 1e-12)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Feasible retraction: clip into the box, then shrink into the ball."""
        lo, hi = self.box
        y = np.minimum(hi, np.maximum(lo, x))
        d = y - self.center
        norm = math.sqrt(float(d.dot(d)))
        if norm > self.radius:
            y = self.center + d * (self.radius / norm)
        return y

    def sample(self, per_axis: int | None = None) -> np.ndarray:
        """Deterministic sample of the region, always containing the center.

        A tensor grid of ``per_axis`` points per dimension is used while it
        fits under ``LAMBDA_SAMPLE_CAP``; otherwise a fixed-seed uniform
        sample of the ball-box intersection stands in.  The default sample
        is drawn once per region and shared by every caller, so samples
        are read-only.

        The ball sample skips its ball test when no bound face cuts the
        ball, the radius lies in [1e-100, 1e100] and ``|center| <= 1e6 *
        radius``: there rounding cannot push a draw past the test's
        ``1e-9`` relative slack, so every draw would pass and the first
        ``LAMBDA_SAMPLE_CAP`` draws are the sample (proof in ``_draw``).
        Other regions walk the draws and test each one.
        """
        if per_axis is None:
            return self._default_sample
        return self._draw(per_axis)

    @cached_property
    def _default_sample(self) -> np.ndarray:
        return self._draw(None)

    def _draw(self, per_axis: int | None) -> np.ndarray:
        """The sample behind ``sample``.

        The ball sample's test ``|fl(c + t) - c| <= reach``, with ``t =
        r * rho * d`` for a draw and ``reach = r (1 + 1e-9)``, cannot fail
        when ``1e-100 <= r <= 1e100`` and ``|c| <= 1e6 r`` (2-norms, unit
        roundoff ``u = 2**-53``).  Every draw has ``|d_i| <= 1``, ``|d| <=
        1 + (n/2 + 2) u`` (a normalized row) and ``rho <= 1``.  Rounding
        ``r rho``, each product, the sum ``c + t`` and the difference with
        ``c`` moves each entry by at most ``u (|c_i| + 4 |t_i|)`` to first
        order, and the squares, row sum and square root of the norm add
        ``(n/2 + 1) u`` relatively, so the computed norm is at most ``r (1
        + (2n + 10) u) + 2u |c|``; ``reach`` is at least ``r (1 + 1e-9 -
        3u)``.  The test thus passes while ``|c| / r`` is below about
        ``4.5e6 - n``, and the ``1e6`` cut (whose own computed norm errs by
        ``(n/2 + 2) u``) leaves more than a 2x margin up to n = 2e6.  The
        radius range keeps every square clear of overflow and every
        underflow's absolute error far below ``u r``.  A non-finite center
        or radius fails the cut and walks.
        """
        n, cap = self.center.size, LAMBDA_SAMPLE_CAP
        lo, hi = self.box
        if per_axis is None:
            per_axis = max(3, min(2 * n + 1, int(cap ** (1.0 / n))))
            if per_axis % 2 == 0:
                per_axis -= 1
        reach = self.radius * (1 + 1e-9)
        if per_axis**n <= cap:
            # the box test is a product over axes, so it runs per axis
            # before the grid is formed; the grid keeps its ij order
            axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(n)]
            axes = [a[(a >= lo[i]) & (a <= hi[i])] for i, a in enumerate(axes)]
            if n < SUM_IN_ORDER:
                # squared distances summed axis by axis on the grid's
                # shape, the order numpy sums a row this short in, so
                # the test is the row-norm test without forming the grid
                sq = np.zeros(())
                for a, c in zip(axes, self.center):
                    d = a - c
                    sq = sq[..., None] + d * d
                inside = np.nonzero(np.sqrt(sq) <= reach)
                pts = np.column_stack([a[k] for a, k in zip(axes, inside)])
            else:
                mesh = np.meshgrid(*axes, indexing="ij")
                pts = np.stack([m.ravel() for m in mesh], axis=1)
                pts = pts[np.linalg.norm(pts - self.center, axis=1) <= reach]
        else:
            # high dimensions: a tensor grid cannot fit under the cap, so
            # sample the ball directly (uniform via normal directions and
            # a radial power law) and keep what lands in the box.  The
            # draws are walked in order until ``cap`` are kept.  Only the
            # faces the bounds set are tested: every direction entry is
            # at most 1 in size and every radial factor at most 1, and
            # rounding is monotone, so no draw crosses a face at
            # ``center -+ radius``.
            directions, radial = _unit_ball_draws(n, 2 * cap)
            low = np.flatnonzero(lo > self.center - self.radius)
            high = np.flatnonzero(hi < self.center + self.radius)
            if not (low.size or high.size) and _ball_test_always_passes(self.center, self.radius):
                # every draw would be kept, so the first ``cap`` are the
                # sample, rounded as the walk rounds them
                pts = np.empty((cap + 1, n))
                pts[0] = self.center
                np.multiply(directions[:cap], self.radius * radial[:cap], out=pts[1:])
                pts[1:] += self.center
                pts.flags.writeable = False
                return pts
            kept, count = [], 0
            for start in range(0, len(directions), BALL_BLOCK):
                stop = start + BALL_BLOCK
                block = self.center + directions[start:stop] * (self.radius * radial[start:stop])
                keep = np.linalg.norm(block - self.center, axis=1) <= reach
                for i in low:
                    keep &= block[:, i] >= lo[i]
                for i in high:
                    keep &= block[:, i] <= hi[i]
                if not keep.all():
                    block = block[keep]
                kept.append(block)
                count += len(block)
                if count >= cap:
                    break
            pts = np.concatenate(kept)
        pts = np.vstack([self.center, pts[:cap]])
        pts.flags.writeable = False
        return pts


@dataclass(frozen=True)
class PoisednessEstimate:
    lam: float


@dataclass(frozen=True)
class LagrangeFamily:
    """Lagrange polynomials as the columns of one coefficient matrix.

    Polynomial ``j`` is ``constants[j] + coeffs[:, j] . phi(x - center)``,
    with ``phi`` the basis row without the constant (linear block, then
    the packed Hessian).  The first columns belong to the training
    points, aligned with training indices; the rest belong to the rows
    of the derivative blocks ``row_blocks``, in system order.
    """

    center: np.ndarray
    coeffs: np.ndarray
    constants: np.ndarray
    incumbent_index: int
    row_blocks: tuple[RowBlock, ...] = ()

    @property
    def point_count(self) -> int:
        return self.coeffs.shape[1] - sum(b.rows for b in self.row_blocks)

    @cached_property
    def basis(self) -> MonomialBasis:
        return MonomialBasis(self.center.size)

    def polynomial(self, j: int) -> QuadraticModel:
        """Column ``j`` as a model object."""
        n = self.center.size
        col = self.coeffs[:, j]
        return QuadraticModel(
            center=self.center,
            c=float(self.constants[j]),
            g=col[:n],
            H=self.basis.unpack_hessian(col[n:]),
        )

    @property
    def point_polys(self) -> tuple[QuadraticModel, ...]:
        return tuple(self.polynomial(j) for j in range(self.point_count))

    @property
    def row_polys(self) -> tuple[tuple[tuple, QuadraticModel], ...]:
        """``((name, i, direction or pair), polynomial)`` per derivative row."""
        labels = [
            (b.name, int(i), b.labels[k % len(b.labels)])
            for b in self.row_blocks
            for k, i in enumerate(b.points)
        ]
        first = self.point_count
        return tuple((label, self.polynomial(first + k)) for k, label in enumerate(labels))

    def values(self, points: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Values of the chosen columns at every point (points x columns),
        as one matrix product; agrees with ``polynomial(j).value_at`` up
        to rounding."""
        phi = self.basis.value_rows(np.atleast_2d(points) - self.center)
        return phi @ self.coeffs[:, columns] + self.constants[columns]


def lagrange_family(sys: AssembledSystem) -> LagrangeFamily:
    """Solve the system against every data-row unit vector.

    All solves come from one pseudo-inverse; a scaled system's own SVD is
    used, so the model solve and the family factor it once.  On an
    unscaled system the columns are equilibrated first, which leaves
    exact and least-squares solutions unchanged but keeps the rank check
    meaningful.  On a scaled system the stored row and column scalings
    map the unit vectors in and the coefficients back out; for square
    kinds the polynomials agree with the unscaled solve exactly, for
    regression kinds they belong to the same row-weighted fit the model
    itself uses.
    """
    M = sys.matrix
    if sys.scaled:
        col_norm = 1.0 / sys.col_scale
        U, s, Vt = sys.svd
    else:
        col_norm = np.max(np.abs(M), axis=0)
        col_norm[col_norm == 0.0] = 1.0
        U, s, Vt = np.linalg.svd(M / col_norm, full_matrices=False)
    require_full_rank(M.shape, s)
    pinv = Vt.T @ ((U.T / s[:, None]))  # cols x rows
    coeff = pinv / col_norm[:, None]
    if sys.scaled:
        coeff = coeff * sys.row_scale[None, :]

    n = sys.basis.n
    value = sys.value_block
    p = value.rows
    if sys.kind in FROBENIUS_KINDS:
        # Hessians of every column at once from the rank-one parameterization
        D = sys.shifted_points
        H = D.T[None] @ (coeff[:p].T[:, :, None] * D[None])
        H = 0.5 * (H + H.transpose(0, 2, 1))
        coeff = np.vstack([coeff[p : p + n], sys.basis.pack_hessian(H.transpose(1, 2, 0))])

    # every kind lists its value rows first and its derivative rows last;
    # the incumbent owns no value row
    count = p + 1
    row_blocks = tuple(b for b in sys.blocks if b.name in ("grad", "hess"))
    derivative_rows = sum(b.rows for b in row_blocks)
    coeffs = np.empty((coeff.shape[0], count + derivative_rows))
    coeffs[:, value.points] = coeff[:, :p]
    coeffs[:, count:] = coeff[:, sys.rows - derivative_rows :]

    # the incumbent polynomial is the complement, which reproduces
    # constants; summed point by point in value-row order, from zero, by
    # one sequential accumulation (a reduction would sum pairwise)
    # the one index the value rows skip: 0 + 1 + ... + p less theirs
    incumbent = count * p // 2 - int(np.sum(value.points))
    terms = np.hstack([np.zeros((coeff.shape[0], 1)), coeff[:, :p]])
    coeffs[:, incumbent] = -np.add.accumulate(terms, axis=1)[:, -1]
    constants = np.zeros(coeffs.shape[1])
    constants[incumbent] = 1.0
    return LagrangeFamily(
        center=sys.shift,
        coeffs=coeffs,
        constants=constants,
        incumbent_index=incumbent,
        row_blocks=row_blocks,
    )


def column_bounds(family: LagrangeFamily, region: Region) -> np.ndarray:
    """Upper bound on ``|l_j|`` over the region for every column ``j``.

    Column ``j`` is ``c + g.d + d.H.d / 2`` with ``d = x - family.center``,
    so ``|l_j(x)| <= |c| + |g| |d| + |H|_2 |d|^2 / 2`` (Cauchy-Schwarz),
    and ``|H|_2 <= |H|_F``, the root of the squared diagonal entries of
    the packed quadratic block plus twice its squared off-diagonal ones.
    Every point the estimate visits has ``|d| <= |x - region.center| +
    |region.center - family.center|``: sample points pass the ball test
    at ``radius (1 + 1e-9)`` (the one-pass ball sample provably would,
    see ``Region._draw``) and polish points are projected into the ball,
    which rounds them at most a few unit roundoffs past it.  ``rho =
    (radius + offset) (1 + BOUND_RTOL)`` therefore covers ``|d|``.

    A computed value, from the GEMM screen or from ``value_at`` and
    ``value``, errs from the exact one by at most about ``(n*n + 2n + 4)
    u`` (``u`` the unit roundoff) of ``|c| + |g|.|d| + |d|.|H|.|d| / 2``
    taken entrywise, which is at most the bound's exact value, since
    ``|d|.|H|.|d| <= |H|_F |d|^2``.  The final ``(1 + BOUND_RTOL)``
    factor absorbs that error and the rounding of the bound itself while
    n is below about 1e4.  So no computed value exceeds its column's
    bound.  A NaN coefficient gives a NaN bound, which callers must never
    read as small.
    """
    n = family.center.size
    offset = float(np.linalg.norm(region.center - family.center))
    rho = (region.radius + offset) * (1 + BOUND_RTOL)
    lin, quad = family.coeffs[:n], family.coeffs[n:]
    weights = 2.0 - family.basis.pack_hessian(np.eye(n))
    g_norm = np.sqrt(np.sum(lin * lin, axis=0))
    h_frob = np.sqrt(weights @ (quad * quad))
    return (np.abs(family.constants) + g_norm * rho + 0.5 * h_frob * rho * rho) * (1 + BOUND_RTOL)


def _polish_abs(poly: QuadraticModel, x0: np.ndarray, region: Region) -> tuple[np.ndarray, float]:
    """``POLISH_STEPS`` steps of projected ascent on |poly| from a seed
    point; deterministic."""
    x = np.array(x0, dtype=float)
    cur = poly.value(x)
    best = abs(cur)
    step = region.radius / 4.0
    for _ in range(POLISH_STEPS):
        grad = poly.gradient(x)
        sign = 1.0 if cur >= 0 else -1.0
        norm = math.sqrt(float(grad.dot(grad)))
        if norm == 0.0:
            break
        cand = region.project(x + step * sign * grad / norm)
        val = poly.value(cand)
        if abs(val) > best:
            x, cur, best = cand, val, abs(val)
        else:
            step *= 0.5
    return x, best


def estimate_lambda(family: LagrangeFamily, region: Region) -> PoisednessEstimate:
    """Lower bound on the poisedness constant over the region, from its
    default sample and ``POLISH_STEPS`` steps of polish.

    The largest |value| of each column comes from blocked matrix
    products.  The first column with the largest of them is evaluated
    exactly over the sample, and its first maximizing point seeds the
    polish.  Ties go to the lowest index; a NaN column yields NaN.

    The first block screens every column.  The rest screen only the
    columns whose ``column_bounds`` entry is not below the best value so
    far by more than ``BOUND_RTOL``: a dropped column's computed values
    stay below that best, so it is never the largest, and the same
    column wins.  The point columns sum to one everywhere, so the best
    value is at least about one over their count, far from underflow.  A
    NaN bound or best value drops nothing.
    """
    pts = region.sample()
    block = family.values(pts[:GEMM_BLOCK])
    screened = np.max(np.abs(block, out=block), axis=0)
    if len(pts) > GEMM_BLOCK:
        below = column_bounds(family, region) < np.max(screened) * (1 - BOUND_RTOL)
        kept = np.flatnonzero(~below)
        top = screened[kept]
        for start in range(GEMM_BLOCK, len(pts), GEMM_BLOCK):
            block = family.values(pts[start : start + GEMM_BLOCK], kept)
            np.abs(block, out=block)
            np.maximum(top, np.max(block, axis=0), out=top)
        screened[kept] = top
    poly = family.polynomial(int(np.argmax(screened)))
    vals = np.abs(poly.value_at(pts))
    k = int(np.argmax(vals))
    _, val = _polish_abs(poly, pts[k], region)
    return PoisednessEstimate(lam=max(float(vals[k]), val))


def select_outgoing(family: LagrangeFamily, y_add: np.ndarray) -> int:
    """Index of the point whose Lagrange polynomial is largest (in absolute
    value) at the candidate point, by the family's matrix product; the
    incumbent is protected.  Ties go to the lowest index; a NaN column
    wins."""
    vals = np.abs(family.values(y_add, slice(0, family.point_count))[0])
    vals[family.incumbent_index] = -np.inf
    return int(np.argmax(vals))


def propose_geometry_point(family: LagrangeFamily, index: int, region: Region) -> np.ndarray:
    """Point extremizing |l_index| over the region (seed from the default
    sample, then ``POLISH_STEPS`` steps of ascent)."""
    poly = family.polynomial(index)
    pts = region.sample()
    seed = pts[_first_argmax_abs(poly, pts)]
    x, _ = _polish_abs(poly, seed, region)
    return region.project(x)


def _first_argmax_abs(poly: QuadraticModel, pts: np.ndarray) -> int:
    """``argmax(|poly.value_at(pts)|)``, bit for bit.

    The screen forms the quadratic term as row sums of ``(D @ H) * D``.
    It and ``value_at`` each round row ``k`` by at most about
    ``n*n + 2n + 2`` unit roundoffs of ``|c| + |D_k| |g| + |D_k|^2 |H|_F``
    plus the quadratic term; ``bound`` takes ``4 (n*n + n + 4) eps`` of
    that, which also covers the rounding of the bound and of the
    comparison, and ``tiny`` covers underflow.  A NaN or an overflow
    makes the comparison false, and ``value_at`` decides.
    """
    D = pts - poly.center
    lin = poly.c + D @ poly.g
    quad = np.einsum("ij,ij->i", D @ poly.H, D)
    screen = np.abs(lin + 0.5 * quad)
    k = int(np.argmax(screen))
    n = D.shape[1]
    finfo = np.finfo(float)
    sq = np.einsum("ij,ij->i", D, D)
    scale = abs(poly.c) + np.sqrt(sq) * np.linalg.norm(poly.g) + sq * np.linalg.norm(poly.H)
    bound = 4 * (n * n + n + 4) * finfo.eps * (scale + np.abs(quad)) + finfo.tiny
    rivals = screen + bound
    rivals[k] = -np.inf
    if screen[k] - bound[k] > np.max(rivals):
        return k
    return int(np.argmax(np.abs(poly.value_at(pts))))


# --- unreduced representation used for the interpolation-vs-regression
# --- poisedness comparison


def phi_matrix(points: np.ndarray, center: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Full basis rows (constant included) at shifted points."""
    rows = basis.value_rows(np.atleast_2d(points) - center)
    return np.hstack([np.ones((rows.shape[0], 1)), rows])


def derivative_phi_matrix(
    points: np.ndarray,
    directions,
    center: np.ndarray,
    basis: MonomialBasis,
) -> np.ndarray:
    """Full-basis derivative rows, point-major over the given 1-based
    directions; the constant column differentiates to zero."""
    rows = basis.derivative_rows(np.atleast_2d(points) - center, [d - 1 for d in directions])
    return np.hstack([np.zeros((rows.shape[0], 1)), rows])


def lambda_from_matrix(matrix: np.ndarray, phi_grid: np.ndarray) -> float:
    """Poisedness estimate of the family defined by a full-basis system.

    Solves the system against the identity (exactly when square, least
    squares otherwise) and maximizes the stacked polynomial values over
    the supplied grid of basis rows.
    """
    m, q1 = matrix.shape
    if m == q1:
        coeff = np.linalg.solve(matrix, np.eye(m))
    else:
        coeff, *_ = np.linalg.lstsq(matrix, np.eye(m), rcond=None)
    values = phi_grid @ coeff  # grid x rows
    return float(np.max(np.abs(values)))


def theorem1_check(
    interp_matrix: np.ndarray,
    augmented_matrix: np.ndarray,
    phi_grid: np.ndarray,
) -> tuple[float, float]:
    """Poisedness of a square interpolation system and of the same system
    augmented with extra rows, over a shared grid.

    Appending rows can only relax the poisedness constant, so the second
    estimate should not exceed the first beyond grid tolerance.
    """
    k = interp_matrix.shape[0]
    if augmented_matrix.shape[0] < k or not np.array_equal(augmented_matrix[:k], interp_matrix):
        raise ValueError("augmented system must contain the interpolation rows first")
    lam_interp = lambda_from_matrix(interp_matrix, phi_grid)
    lam_regress = lambda_from_matrix(augmented_matrix, phi_grid)
    return lam_interp, lam_regress

"""The four ``assemble_*`` entry points against the four separate bodies
they had before both regression kinds and both min-Frobenius kinds were
each built by one builder: every system field bit for bit, sign bits
included, and the same exception on every error path."""

from dataclasses import replace as dc_replace

import numpy as np
import pytest
from util import availability, build_training_set, random_quadratic

from hermiteopt.basis import MonomialBasis
from hermiteopt.driver import default_point_count
from hermiteopt.models import (
    AssembledSystem,
    ModelKind,
    RowBlock,
    _check_symmetric,
    _derivative_block,
    _derivative_entries,
    _repeat,
    _shifted_non_incumbent,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
)


def reference_full_interp(ts):
    basis = MonomialBasis(ts.dimension)
    if ts.size != basis.q1:
        raise ValueError(f"full interpolation needs {basis.q1} points, got {ts.size}")
    shift, order, D, f_opt, rhs = _shifted_non_incumbent(ts)
    return AssembledSystem(
        kind=ModelKind.FULL_INTERP,
        matrix=basis.value_rows(D),
        rhs=rhs,
        shift=shift,
        f_opt=f_opt,
        blocks=(RowBlock("value", order, 0, False),),
        col_exponents=_repeat((-1, -2), (basis.n, basis.n_quadratic)),
        basis=basis,
    )


def reference_min_frob_system(ts, h_prev):
    n = ts.dimension
    shift, order, D, f_opt, value_rhs = _shifted_non_incumbent(ts)
    p = len(order)
    gram = D @ D.T
    matrix = np.zeros((p + n, p + n))
    matrix[:p, :p] = 0.5 * gram**2
    matrix[:p, p:] = D
    matrix[p:, :p] = D.T
    correction = 0.5 * np.einsum("ij,jk,ik->i", D, h_prev, D)
    return AssembledSystem(
        kind=ModelKind.BOBYQA,
        matrix=matrix,
        rhs=np.concatenate([value_rhs - correction, np.zeros(n)]),
        shift=shift,
        f_opt=f_opt,
        blocks=(
            RowBlock("value", order, -2, False),
            RowBlock("mfn", None, 1, False, tuple(range(1, n + 1))),
        ),
        col_exponents=_repeat((-2, 1), (p, n)),
        basis=MonomialBasis(n),
        shifted_points=D,
        h_prev=h_prev,
    )


def reference_min_frob(ts, h_prev):
    n = ts.dimension
    q1 = MonomialBasis(n).q1
    if not n + 2 <= ts.size < q1:
        raise ValueError(f"min-Frobenius kind needs n+2 <= p1 < {q1}, got {ts.size}")
    return reference_min_frob_system(ts, _check_symmetric(h_prev, n))


def reference_hermite_ls(ts, avail):
    n = ts.dimension
    basis = MonomialBasis(n)
    directions, pairs = avail.directions, avail.pairs
    if not directions and not pairs:
        raise ValueError("Hermite least squares needs derivative availability")
    shift, order, D, f_opt, value_rhs = _shifted_non_incumbent(ts)
    rhs = [value_rhs, _derivative_entries(ts, directions).ravel()]
    blocks = [
        RowBlock("value", order, 0, True),
        _derivative_block("grad", ts.size, directions, 1),
    ]
    parts = [
        basis.value_rows(D),
        basis.derivative_rows(ts.points - shift, [d - 1 for d in directions]),
    ]
    if pairs:
        rhs.append(_derivative_entries(ts, pairs, second=True).ravel())
        blocks.append(_derivative_block("hess", ts.size, pairs, 2))
        hess_rows = [basis.second_derivative_row((a - 1, b - 1)) for a, b in pairs]
        parts.append(np.tile(hess_rows, (ts.size, 1)))
    matrix = np.vstack(parts)
    if matrix.shape[0] < basis.q1 - 1:
        raise ValueError(f"{matrix.shape[0]} rows cannot determine {basis.q1 - 1} coefficients")
    return AssembledSystem(
        kind=ModelKind.HERMITE_LS,
        matrix=matrix,
        rhs=np.concatenate(rhs),
        shift=shift,
        f_opt=f_opt,
        blocks=tuple(blocks),
        col_exponents=_repeat((-1, -2), (basis.n, basis.n_quadratic)),
        basis=basis,
    )


def reference_hermite_bobyqa(ts, avail, h_prev):
    n = ts.dimension
    directions = avail.directions
    if not directions:
        raise ValueError("Hermite BOBYQA needs first-order availability")
    if ts.size < n + 2:
        raise ValueError(f"Hermite BOBYQA needs at least n+2 points, got {ts.size}")
    base = reference_min_frob_system(ts, _check_symmetric(h_prev, n))
    shift, D = base.shift, base.shifted_points
    p = len(D)
    axes = np.array([d - 1 for d in directions])
    P = (ts.points - shift)[:, :, None]
    inner = (D[None] @ P)[:, None, :, 0]
    correction = (base.h_prev[None] @ P)[:, axes, 0]
    grad_rows = np.zeros((ts.size, axes.size, p + n))
    grad_rows[:, :, :p] = D.T[axes][None] * inner
    grad_rows[:, np.arange(axes.size), p + axes] = 1.0
    rhs = (_derivative_entries(ts, directions) - correction).ravel()
    return dc_replace(
        base,
        kind=ModelKind.HERMITE_BOBYQA,
        matrix=np.vstack([base.matrix, grad_rows.reshape(-1, p + n)]),
        rhs=np.concatenate([base.rhs, rhs]),
        blocks=base.blocks + (_derivative_block("grad", ts.size, directions, -1),),
    )


def assert_same_array(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_system(sys, ref):
    assert sys.kind is ref.kind
    assert sys.f_opt == ref.f_opt and sys.basis.n == ref.basis.n
    for field in ("matrix", "rhs", "shift", "col_exponents", "shifted_points", "h_prev"):
        assert_same_array(getattr(sys, field), getattr(ref, field))
    assert len(sys.blocks) == len(ref.blocks)
    for block, expected in zip(sys.blocks, ref.blocks):
        assert (block.name, block.exponent, block.weighted, block.labels) == (
            expected.name,
            expected.exponent,
            expected.weighted,
            expected.labels,
        )
        assert_same_array(block.points, expected.points)
    assert sys.col_scale is None and sys.row_scale is None


def assert_same_outcome(build, reference):
    """Both calls raise the same exception with the same message, or both
    return the same system."""
    try:
        ref = reference()
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            build()
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    assert_same_system(build(), ref)


def seeded_set(n, count, seed, directions=(), pairs=()):
    """``count`` random points in a box of random size, with the values,
    first partials along ``directions`` and second partials for ``pairs``
    of a random quadratic; one point sits on a negated-zero coordinate."""
    rng = np.random.default_rng(seed)
    _, _, H, fn, grad = random_quadratic(n, rng)
    points = rng.uniform(-1.0, 1.0, size=(count, n)) * 10.0 ** rng.uniform(-3, 2)
    points[-1, 0] = -0.0
    return build_training_set(points, fn, grad, directions, lambda x: H, pairs), rng


def symmetric(n, rng):
    A = rng.normal(size=(n, n))
    return A + A.T


DIMENSIONS = range(1, 7)


class TestRegressionKinds:
    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("seed", range(3))
    def test_full_interp(self, n, seed):
        ts, _ = seeded_set(n, MonomialBasis(n).q1, 10 * n + seed)
        assert_same_outcome(lambda: assemble_full_interp(ts), lambda: reference_full_interp(ts))

    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("with_pairs", [False, True])
    def test_hermite_ls(self, n, with_pairs):
        for k_d in range(n + 1):
            directions = tuple(range(1, k_d + 1))
            pairs = ((1, 1), (1, n)) if with_pairs else ()
            pairs = tuple(sorted(set(pairs)))
            if not directions and not pairs:
                continue
            count = default_point_count(ModelKind.HERMITE_LS, n, directions, pairs)
            ts, _ = seeded_set(n, count, 100 * n + k_d, directions, pairs)
            avail = availability(directions, pairs)
            assert_same_outcome(lambda: assemble_hermite_ls(ts, avail), lambda: reference_hermite_ls(ts, avail))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_underdetermined(self, n):
        ts, _ = seeded_set(n, 2, 200 + n, (1,))
        avail = availability((1,))
        with pytest.raises(ValueError, match="rows cannot determine"):
            reference_hermite_ls(ts, avail)
        assert_same_outcome(lambda: assemble_hermite_ls(ts, avail), lambda: reference_hermite_ls(ts, avail))

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_wrong_set_size(self, n):
        q1 = MonomialBasis(n).q1
        for count in (q1 - 1, q1 + 1):
            ts, _ = seeded_set(n, count, 300 + n)
            with pytest.raises(ValueError, match="full interpolation needs"):
                reference_full_interp(ts)
            assert_same_outcome(lambda: assemble_full_interp(ts), lambda: reference_full_interp(ts))

    def test_empty_availability(self):
        ts, _ = seeded_set(3, 7, 400, (1,))
        with pytest.raises(ValueError, match="needs derivative availability"):
            reference_hermite_ls(ts, availability())
        assert_same_outcome(
            lambda: assemble_hermite_ls(ts, availability()), lambda: reference_hermite_ls(ts, availability())
        )

    def test_missing_derivative(self):
        ts, _ = seeded_set(3, 7, 401, (1,))
        avail = availability((1, 2))
        with pytest.raises(ValueError, match="lacks the derivative for direction"):
            reference_hermite_ls(ts, avail)
        assert_same_outcome(lambda: assemble_hermite_ls(ts, avail), lambda: reference_hermite_ls(ts, avail))


class TestFrobeniusKinds:
    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_min_frob(self, n):
        q1 = MonomialBasis(n).q1
        for count in sorted({n + 2, 2 * n + 1, q1 - 1}):
            ts, rng = seeded_set(n, count, 500 + 10 * n + count)
            h_prev = symmetric(n, rng)
            assert_same_outcome(lambda: assemble_min_frob(ts, h_prev), lambda: reference_min_frob(ts, h_prev))

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_hermite_bobyqa_with_every_number_of_known_directions(self, n):
        for k_d in range(1, n + 1):
            directions = tuple(range(n, n - k_d, -1))
            ts, rng = seeded_set(n, 2 * n + 1, 600 + 10 * n + k_d, directions)
            h_prev = symmetric(n, rng)
            avail = availability(directions)
            assert_same_outcome(
                lambda: assemble_hermite_bobyqa(ts, avail, h_prev),
                lambda: reference_hermite_bobyqa(ts, avail, h_prev),
            )

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_wrong_set_size(self, n):
        q1 = MonomialBasis(n).q1
        for count in (n + 1, q1):
            ts, rng = seeded_set(n, count, 700 + n, (1,))
            h_prev = symmetric(n, rng)
            with pytest.raises(ValueError, match="min-Frobenius kind needs"):
                reference_min_frob(ts, h_prev)
            assert_same_outcome(lambda: assemble_min_frob(ts, h_prev), lambda: reference_min_frob(ts, h_prev))
        ts, rng = seeded_set(n, n + 1, 710 + n, (1,))
        with pytest.raises(ValueError, match=r"Hermite BOBYQA needs at least n\+2 points"):
            reference_hermite_bobyqa(ts, availability((1,)), np.zeros((n, n)))
        assert_same_outcome(
            lambda: assemble_hermite_bobyqa(ts, availability((1,)), np.zeros((n, n))),
            lambda: reference_hermite_bobyqa(ts, availability((1,)), np.zeros((n, n))),
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_non_symmetric_and_misshapen_h_prev(self, n):
        ts, rng = seeded_set(n, 2 * n + 1, 800 + n, (1,))
        skew = symmetric(n, rng)
        skew[0, 1] += 1.0
        for h_prev, message in ((skew, "must be symmetric"), (np.zeros((n + 1, n + 1)), "wrong shape")):
            with pytest.raises(ValueError, match=message):
                reference_min_frob(ts, h_prev)
            assert_same_outcome(lambda: assemble_min_frob(ts, h_prev), lambda: reference_min_frob(ts, h_prev))
            assert_same_outcome(
                lambda: assemble_hermite_bobyqa(ts, availability((1,)), h_prev),
                lambda: reference_hermite_bobyqa(ts, availability((1,)), h_prev),
            )

    def test_empty_availability(self):
        ts, rng = seeded_set(3, 7, 900, (1,))
        h_prev = symmetric(3, rng)
        for avail in (availability(), availability((), ((1, 1),))):
            with pytest.raises(ValueError, match="needs first-order availability"):
                reference_hermite_bobyqa(ts, avail, h_prev)
            assert_same_outcome(
                lambda: assemble_hermite_bobyqa(ts, avail, h_prev),
                lambda: reference_hermite_bobyqa(ts, avail, h_prev),
            )

    def test_missing_derivative(self):
        ts, rng = seeded_set(3, 7, 901, (1,))
        avail = availability((1, 3))
        h_prev = symmetric(3, rng)
        with pytest.raises(ValueError, match="lacks the derivative for direction"):
            reference_hermite_bobyqa(ts, avail, h_prev)
        assert_same_outcome(
            lambda: assemble_hermite_bobyqa(ts, avail, h_prev),
            lambda: reference_hermite_bobyqa(ts, avail, h_prev),
        )

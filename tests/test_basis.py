import numpy as np
import pytest

from hermiteopt.basis import MonomialBasis


def fd_row(basis, z, axis, h=1e-5):
    zp = z.copy()
    zm = z.copy()
    zp[axis] += h
    zm[axis] -= h
    return (basis.value_row(zp) - basis.value_row(zm)) / (2 * h)


def test_value_row_shifted_origin():
    basis = MonomialBasis(2)
    assert np.allclose(basis.value_row(np.zeros(2)), 0.0)


def test_value_row_hand_evaluated_2d():
    basis = MonomialBasis(2)
    row = basis.value_row(np.array([1.0, 2.0]))
    # order (x1, x2, x1^2/2, x1 x2, x2^2/2)
    assert np.allclose(row, [1.0, 2.0, 0.5, 2.0, 2.0])


def test_value_row_hand_evaluated_1d():
    basis = MonomialBasis(1)
    assert np.allclose(basis.value_row(np.array([3.0])), [3.0, 4.5])


def test_derivative_row_at_origin():
    basis = MonomialBasis(2)
    row = basis.derivative_row(np.zeros(2), 0)
    assert np.allclose(row, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_derivative_row_hand_evaluated():
    basis = MonomialBasis(2)
    row = basis.derivative_row(np.array([1.0, 2.0]), 0)
    assert np.allclose(row, [1.0, 0.0, 1.0, 2.0, 0.0])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_derivative_rows_match_finite_differences(n):
    basis = MonomialBasis(n)
    rng = np.random.default_rng(42)
    for _ in range(10):
        z = rng.uniform(-2, 2, size=n)
        for axis in range(n):
            assert np.allclose(
                basis.derivative_row(z, axis), fd_row(basis, z, axis), atol=1e-8
            )


def test_second_derivative_identity_block():
    basis = MonomialBasis(2)
    assert np.allclose(basis.second_derivative_row((0, 0)), [0, 0, 1, 0, 0])
    assert np.allclose(basis.second_derivative_row((0, 1)), [0, 0, 0, 1, 0])
    assert np.allclose(basis.second_derivative_row((1, 1)), [0, 0, 0, 0, 1])


def test_second_derivative_rows_point_independent():
    basis = MonomialBasis(3)
    for pair in [(0, 0), (0, 2), (1, 2)]:
        row = basis.second_derivative_row(pair)
        assert np.count_nonzero(row) == 1
        # rows cannot depend on any evaluation point by construction
        assert row[basis.n + basis.pair_index(*pair)] == 1.0


@pytest.mark.parametrize("n", [2, 4])
def test_hessian_pack_roundtrip(n):
    rng = np.random.default_rng(7)
    A = rng.normal(size=(n, n))
    H = A + A.T
    basis = MonomialBasis(n)
    assert np.allclose(basis.unpack_hessian(basis.pack_hessian(H)), H)


def test_quadratic_reconstruction_from_rows():
    # c + g.z + z.H.z/2 must equal c + row(z) @ [g, packed H]
    n = 3
    rng = np.random.default_rng(11)
    basis = MonomialBasis(n)
    g = rng.normal(size=n)
    A = rng.normal(size=(n, n))
    H = A + A.T
    coeffs = np.concatenate([g, basis.pack_hessian(H)])
    for _ in range(20):
        z = rng.uniform(-3, 3, size=n)
        direct = g @ z + 0.5 * z @ H @ z
        assert basis.value_row(z) @ coeffs == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_derivative_rows_equal_stacked_derivative_row_bitwise(n):
    basis = MonomialBasis(n)
    rng = np.random.default_rng(n)
    Z = rng.normal(size=(6, n)) * 10.0 ** rng.uniform(-8, 8, size=(6, 1))
    Z[0] = 0.0
    Z[1, 0] = -0.0  # signed zeros survive the vectorized form too
    for axes in (list(range(n)), [n - 1], list(rng.permutation(n)[: max(1, n // 2)]), []):
        rows = basis.derivative_rows(Z, axes)
        stacked = [basis.derivative_row(z, a) for z in Z for a in axes]
        expected = np.array(stacked) if stacked else np.zeros((0, basis.size - 1))
        assert rows.shape == expected.shape
        assert np.array_equal(rows, expected)
        assert np.array_equal(np.signbit(rows), np.signbit(expected))
    # a single point may come as a vector
    assert np.array_equal(basis.derivative_rows(Z[2], [0]), basis.derivative_row(Z[2], 0)[None])


def test_cached_pair_indices_are_shared_and_read_only():
    a, b = MonomialBasis(4), MonomialBasis(4)
    assert a._ii is b._ii and a._jj is b._jj and a._diag is b._diag
    for arr in (a._ii, a._jj, a._diag):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    ii, jj = np.triu_indices(4)
    assert np.array_equal(a._ii, ii) and np.array_equal(a._jj, jj)
    assert np.array_equal(a._diag, ii == jj)


def one_point_value_row(basis, z):
    """The one-point form ``value_row`` had before it delegated to
    ``value_rows``: the reference for the test below."""
    z = np.asarray(z, dtype=float)
    quad = z[basis._ii] * z[basis._jj]
    quad[basis._diag] *= 0.5
    return np.concatenate([z, quad])


def one_point_derivative_row(basis, z, axis):
    """The one-point form ``derivative_row`` had before it delegated to
    ``derivative_rows``."""
    z = np.asarray(z, dtype=float)
    lin = np.zeros(basis.n)
    lin[axis] = 1.0
    quad = (basis._ii == axis) * z[basis._jj] + (basis._jj == axis) * z[basis._ii]
    quad[basis._diag] *= 0.5
    return np.concatenate([lin, quad])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_single_rows_match_their_one_point_forms_bitwise(n):
    basis = MonomialBasis(n)
    rng = np.random.default_rng(100 + n)
    Z = rng.normal(size=(40, n)) * 10.0 ** rng.uniform(-8, 8, size=(40, n))
    Z[0] = 0.0
    Z[1] = -0.0
    for z in Z:
        expected = one_point_value_row(basis, z)
        assert np.array_equal(basis.value_row(z), expected)
        assert np.array_equal(np.signbit(basis.value_row(z)), np.signbit(expected))
        for axis in range(n):
            expected = one_point_derivative_row(basis, z, axis)
            assert np.array_equal(basis.derivative_row(z, axis), expected)
            assert np.array_equal(np.signbit(basis.derivative_row(z, axis)), np.signbit(expected))


def fancy_index_derivative_rows(basis, Z, axes):
    """``derivative_rows`` as it indexed the pair columns with
    ``Z[:, None, jj]``, which lays the point axis out fastest so the final
    reshape copies: the reference for the test below."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    axes = np.asarray(axes, dtype=int)
    ii, jj = basis._ii, basis._jj
    quad = (ii == axes[:, None]) * Z[:, None, jj] + (jj == axes[:, None]) * Z[:, None, ii]
    quad[..., basis._diag] *= 0.5
    lin = np.broadcast_to(np.eye(basis.n)[axes], (Z.shape[0], axes.size, basis.n))
    return np.concatenate([lin, quad], axis=2).reshape(-1, basis.q1 - 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_derivative_rows_match_the_fancy_index_form_and_reshape_in_place(n, monkeypatch):
    basis = MonomialBasis(n)
    rng = np.random.default_rng(200 + n)
    Z = rng.normal(size=(30, n)) * 10.0 ** rng.uniform(-8, 8, size=(30, n))
    Z[0] = 0.0
    Z[1] = -0.0
    concatenated = []
    concatenate = np.concatenate

    def recording_concatenate(*args, **kwargs):
        concatenated.append(concatenate(*args, **kwargs))
        return concatenated[-1]

    monkeypatch.setattr(np, "concatenate", recording_concatenate)
    for axes in (list(range(n)), [n - 1], list(rng.permutation(n)[: max(1, n // 2)])):
        concatenated.clear()
        rows = basis.derivative_rows(Z, axes)
        expected = fancy_index_derivative_rows(basis, Z, axes)
        assert np.array_equal(rows, expected)
        assert np.array_equal(np.signbit(rows), np.signbit(expected))
        # the point-major blocks are C-ordered, so the rows are a view of them
        blocks = concatenated[0]
        assert blocks.flags.c_contiguous and rows.flags.c_contiguous
        assert np.shares_memory(rows, blocks)

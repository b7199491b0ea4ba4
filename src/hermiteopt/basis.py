"""Quadratic monomial basis and its derivative rows.

The basis is ordered as: constant, the n linear monomials, then the
quadratic block in lexicographic pair order with a factor 1/2 on squares,

    {1, x_1, ..., x_n, x_1^2/2, x_1 x_2, ..., x_{n-1} x_n, x_n^2/2}.

With this convention a quadratic ``c + g.x + x.H.x/2`` has coefficient
``g_l`` on the linear monomial ``x_l`` and coefficient ``H_ij`` on the
quadratic monomial for the pair ``(i, j)``, so packing and unpacking the
Hessian is index bookkeeping only.

Axis arguments in this module are 0-based; the 1-based direction labels of
the problem layer are converted by the assembly code.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair order (0,0), (0,1), ..., (0,n-1), (1,1), ...
    as row and column index arrays plus the mask of squares; shared by
    every basis of dimension ``n``, so read-only."""
    ii, jj = np.triu_indices(n)
    diag = ii == jj
    for a in (ii, jj, diag):
        a.flags.writeable = False
    return ii, jj, diag


class MonomialBasis:
    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.n = int(dimension)
        self.q1 = (self.n + 1) * (self.n + 2) // 2
        self._ii, self._jj, self._diag = _pair_indices(self.n)

    @property
    def size(self) -> int:
        """Number of basis functions including the constant."""
        return self.q1

    @property
    def n_quadratic(self) -> int:
        return self.q1 - 1 - self.n

    def pair_index(self, i: int, j: int) -> int:
        """Column offset of pair ``(i, j)`` within the quadratic block."""
        if not 0 <= i <= j < self.n:
            raise ValueError("pair must satisfy 0 <= i <= j < n")
        return i * self.n - i * (i - 1) // 2 + (j - i)

    def value_row(self, z: np.ndarray) -> np.ndarray:
        """Basis values at a shifted point, constant excluded."""
        return self.value_rows(z)[0]

    def value_rows(self, Z: np.ndarray) -> np.ndarray:
        """``value_row`` of every row of ``Z``, stacked."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        quad = Z[:, self._ii] * Z[:, self._jj]
        quad[:, self._diag] *= 0.5
        return np.hstack([Z, quad])

    def derivative_row(self, z: np.ndarray, axis: int) -> np.ndarray:
        """First partial derivative of every basis function along ``axis``."""
        return self.derivative_rows(z, [axis])[0]

    def derivative_rows(self, Z: np.ndarray, axes) -> np.ndarray:
        """``derivative_row`` of every row of ``Z`` along every axis in
        ``axes``, point-major (all axes of the first point, then the
        next point, ...)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        axes = np.asarray(axes, dtype=int)
        shape = (Z.shape[0], axes.size)
        ii, jj = self._ii, self._jj
        # ``take`` keeps every block C-ordered, so the final reshape is a view
        Zi, Zj = Z.take(ii, axis=1)[:, None], Z.take(jj, axis=1)[:, None]
        quad = (ii == axes[:, None]) * Zj + (jj == axes[:, None]) * Zi
        # the 1/2 on squares turns the doubled diagonal term back into z_axis
        quad[..., self._diag] *= 0.5
        lin = np.broadcast_to(np.eye(self.n)[axes], shape + (self.n,))
        return np.concatenate([lin, quad], axis=2).reshape(-1, self.q1 - 1)

    def second_derivative_row(self, pair: tuple[int, int]) -> np.ndarray:
        """Second derivative row for ``pair``; constant in the point.

        For this basis the quadratic block of second derivatives is the
        identity: the row is zero except for a single 1 on the quadratic
        column belonging to ``pair``.
        """
        i, j = pair
        row = np.zeros(self.q1 - 1)
        row[self.n + self.pair_index(i, j)] = 1.0
        return row

    def pack_hessian(self, H: np.ndarray) -> np.ndarray:
        """Hessian to quadratic-block coefficients (upper triangle by rows)."""
        return np.asarray(H, dtype=float)[self._ii, self._jj]

    def unpack_hessian(self, coeffs: np.ndarray) -> np.ndarray:
        """Quadratic-block coefficients back to a symmetric Hessian."""
        H = np.zeros((self.n, self.n))
        H[self._ii, self._jj] = coeffs
        H[self._jj, self._ii] = coeffs
        return H

"""Shared helpers and independent oracles for the test suite."""

import numpy as np

from hermiteopt.problem import DerivativeAvailability, EvaluationRecord, TrainingSet


def random_quadratic(n, rng, scale=2.0):
    """A random quadratic with its exact value and gradient callables."""
    c = float(rng.normal())
    g = rng.normal(size=n) * scale
    A = rng.normal(size=(n, n))
    H = (A + A.T) * scale

    def fn(x):
        d = np.asarray(x, dtype=float)
        return float(c + g @ d + 0.5 * d @ H @ d)

    def grad(x):
        return g + H @ np.asarray(x, dtype=float)

    return c, g, H, fn, grad


def build_training_set(points, fn, grad=None, directions=(), hess=None, pairs=()):
    """Training set with values and the requested derivative entries."""
    records = []
    for p in points:
        p = np.asarray(p, dtype=float)
        gradient = {}
        if grad is not None:
            gvec = np.asarray(grad(p), dtype=float)
            gradient = {d: float(gvec[d - 1]) for d in directions}
        second = {}
        if hess is not None:
            hmat = np.asarray(hess(p), dtype=float)
            second = {pr: float(hmat[pr[0] - 1, pr[1] - 1]) for pr in pairs}
        records.append(
            EvaluationRecord(point=p, value=float(fn(p)), gradient=gradient, second=second)
        )
    return TrainingSet.from_records(records)


def availability(directions=(), pairs=()):
    return DerivativeAvailability(
        first_order=frozenset(directions), second_order=frozenset(pairs)
    )


def poised_points(n, count, rng, spread=1.0, min_sigma=1e-2, max_tries=500):
    """Random points whose shifted interpolation system is well conditioned.

    Resamples until the full-basis matrix at the points has a healthy
    smallest singular value, so downstream solves are unambiguous.
    """
    from hermiteopt.basis import MonomialBasis
    from hermiteopt.poisedness import phi_matrix

    basis = MonomialBasis(n)
    for _ in range(max_tries):
        pts = rng.uniform(-spread, spread, size=(count, n))
        M = phi_matrix(pts, np.zeros(n), basis)
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] > min_sigma * s[0]:
            return pts
    raise RuntimeError("could not draw a poised set")


def kkt_min_frobenius(points, values, incumbent_index, h_prev):
    """Independent oracle: solve min ||H - H_prev||_F^2 subject to the
    interpolation conditions directly, via the KKT system on (g, vech H).

    Unknowns: g (n entries) and the upper-triangle entries of H.  The
    objective is sum_ii dH_ii^2 + 2 sum_{i<j} dH_ij^2; constraints are
    g.d_k + d_k.H.d_k/2 = f_k - f_opt for every non-incumbent point.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    x_opt = points[incumbent_index]
    f_opt = values[incumbent_index]
    D = np.delete(points, incumbent_index, axis=0) - x_opt
    b = np.delete(np.asarray(values, dtype=float), incumbent_index) - f_opt
    p = D.shape[0]

    iu, ju = np.triu_indices(n)
    m = iu.size  # distinct Hessian entries
    # quadratic form weights: diagonal entries count once, off-diagonals twice
    w = np.where(iu == ju, 2.0, 4.0)  # second derivative of objective wrt entry

    # constraint coefficients: d.H.d/2 = sum_entries coeff * H_entry
    C = np.zeros((p, m))
    for k in range(p):
        d = D[k]
        C[k] = np.where(iu == ju, 0.5 * d[iu] * d[ju], d[iu] * d[ju])

    # KKT: [diag(w) 0 C^T; 0 0 D^T(eliminated); C D 0] over (h, g, mu)
    size = m + n + p
    K = np.zeros((size, size))
    rhs = np.zeros(size)
    K[:m, :m] = np.diag(w)
    K[:m, m + n :] = -C.T
    K[m : m + n, m + n :] = -D.T
    K[m + n :, :m] = C
    K[m + n :, m : m + n] = D
    hp = np.asarray(h_prev, dtype=float)
    rhs[:m] = w * hp[iu, ju]
    rhs[m + n :] = b
    sol = np.linalg.solve(K, rhs)
    H = np.zeros((n, n))
    H[iu, ju] = sol[:m]
    H[ju, iu] = sol[:m]
    g = sol[m : m + n]
    return g, H


def row_tags(blocks):
    """Per-row provenance tags expanded from a system's row blocks:
    ``("value", i)``, ``("grad", i, l)``, ``("hess", i, (a, b))`` and
    ``("mfn", l)``, with ``i`` a training index and directions 1-based."""
    tags = []
    for b in blocks:
        if b.name == "mfn":
            tags += [("mfn", l) for l in b.labels]
        elif b.name == "value":
            tags += [("value", int(i)) for i in b.points]
        else:
            tags += [(b.name, int(i), b.labels[k % len(b.labels)]) for k, i in enumerate(b.points)]
    return tuple(tags)


class TaggedSystem:
    """A system seen through the per-row fields it had before row blocks
    (``row_tags``, ``value_order``, ``point_count``, ``dimension``), for
    the reference implementations written against them."""

    def __init__(self, sys):
        self._sys = sys
        self.row_tags = row_tags(sys.blocks)
        self.value_order = tuple(int(i) for i in sys.value_block.points)
        self.point_count = len(self.value_order) + 1
        self.dimension = sys.basis.n

    def __getattr__(self, name):
        return getattr(self._sys, name)

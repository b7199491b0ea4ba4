"""Row blocks against the per-row tag code they replaced, bit for bit.

The ``reference_*`` functions are the row-tag implementations of
scaling, weighting, the rank repair's leverage order and the Lagrange
family, copied verbatim except that they read a ``TaggedSystem`` and
return arrays instead of systems or families.  Every comparison is
``np.array_equal``: the block code must not move a single bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from util import TaggedSystem, availability, build_training_set, random_quadratic, row_tags

from hermiteopt import driver
from hermiteopt.driver import NULL_RTOL, default_point_count
from hermiteopt.exceptions import RankDeficient
from hermiteopt.models import (
    FROBENIUS_KINDS,
    HERMITE_KINDS,
    ModelKind,
    apply_scaling,
    apply_weighting,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
    distance_weights,
    require_full_rank,
)
from hermiteopt.poisedness import lagrange_family


def reference_scaling_vectors(sys, delta: float):
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


def reference_apply_weighting(sys, ts):
    if sys.kind not in HERMITE_KINDS:
        raise ValueError(f"weighting does not apply to {sys.kind.value}")
    w = distance_weights(ts)
    row_w = np.ones(sys.rows)
    for r, tag in enumerate(sys.row_tags):
        if sys.kind is ModelKind.HERMITE_BOBYQA and tag[0] != "grad":
            continue
        row_w[r] = w[tag[1]]
    return row_w[:, None] * sys.matrix, row_w * sys.rhs


def reference_redundancy_order(sys, point_count: int, incumbent_index: int):
    U, s, _ = sys.svd
    keep = s > NULL_RTOL * s[0]
    leverage_rows = np.sum(U[:, keep] ** 2, axis=1)
    totals = np.zeros(point_count)
    for r, tag in enumerate(sys.row_tags):
        if tag[0] == "mfn":
            continue
        totals[tag[1]] += leverage_rows[r]
    order = np.argsort(totals, kind="stable")
    return [int(i) for i in order if i != incumbent_index], totals


def reference_lagrange_family(sys):
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

    n = sys.dimension
    if sys.kind in FROBENIUS_KINDS:
        # Hessians of every column at once from the rank-one parameterization
        p = len(sys.value_order)
        D = sys.shifted_points
        H = D.T[None] @ (coeff[:p].T[:, :, None] * D[None])
        H = 0.5 * (H + H.transpose(0, 2, 1))
        coeff = np.vstack([coeff[p : p + n], sys.basis.pack_hessian(H.transpose(1, 2, 0))])

    tags = sys.row_tags
    point_rows = [r for r, tag in enumerate(tags) if tag[0] == "value"]
    derivative_rows = [r for r, tag in enumerate(tags) if tag[0] in ("grad", "hess")]
    count = sys.point_count
    coeffs = np.empty((coeff.shape[0], count + len(derivative_rows)))
    coeffs[:, [tags[r][1] for r in point_rows]] = coeff[:, point_rows]
    coeffs[:, count:] = coeff[:, derivative_rows]

    # the incumbent polynomial is the complement, which reproduces
    # constants; summed point by point in training order
    incumbent = next(i for i in range(count) if i not in sys.value_order)
    total = np.zeros(coeff.shape[0])
    for i in sys.value_order:
        total = total + coeffs[:, i]
    coeffs[:, incumbent] = -total
    constants = np.zeros(coeffs.shape[1])
    constants[incumbent] = 1.0
    return SimpleNamespace(
        coeffs=coeffs,
        constants=constants,
        incumbent_index=incumbent,
        row_tags=tuple(tags[r] for r in derivative_rows),
    )


def build_system(kind, n, directions, pairs, seed):
    """A system of ``kind`` on a random set of the driver's default size,
    with values and derivatives of a random quadratic."""
    rng = np.random.default_rng(seed)
    _, _, H, fn, grad = random_quadratic(n, rng)
    count = default_point_count(kind, n, directions, pairs, bool(pairs))
    pts = rng.uniform(-1.0, 1.0, size=(count, n)) * rng.uniform(0.1, 10.0)
    ts = build_training_set(pts, fn, grad, directions, lambda x: H, pairs)
    h_prev = np.diag(rng.normal(size=n))
    sys = {
        ModelKind.FULL_INTERP: lambda: assemble_full_interp(ts),
        ModelKind.BOBYQA: lambda: assemble_min_frob(ts, h_prev),
        ModelKind.HERMITE_LS: lambda: assemble_hermite_ls(ts, availability(directions, pairs)),
        ModelKind.HERMITE_BOBYQA: lambda: assemble_hermite_bobyqa(ts, availability(directions), h_prev),
    }[kind]()
    return ts, sys


def check_against_references(ts, sys, delta, weighting):
    tagged = TaggedSystem(sys)
    left, right = reference_scaling_vectors(tagged, delta)
    scaled = apply_scaling(sys, delta)
    assert np.array_equal(scaled.row_scale, left)
    assert np.array_equal(scaled.col_scale, right)
    assert np.array_equal(scaled.matrix, left[:, None] * sys.matrix * right[None, :])
    assert np.array_equal(scaled.rhs, left * sys.rhs)

    if weighting and sys.kind in HERMITE_KINDS:
        matrix, rhs = reference_apply_weighting(TaggedSystem(scaled), ts)
        weighted = apply_weighting(scaled, ts)
        assert np.array_equal(weighted.matrix, matrix)
        assert np.array_equal(weighted.rhs, rhs)
    elif weighting:
        with pytest.raises(ValueError, match="weighting does not apply to"):
            apply_weighting(scaled, ts)

    order, totals = reference_redundancy_order(TaggedSystem(scaled), ts.size, ts.incumbent_index)
    leverage = driver._point_leverage(scaled, ts.size)
    assert np.array_equal(leverage, totals)
    # the repair's pick order, as the rank repair derives it
    assert [int(i) for i in np.argsort(leverage, kind="stable") if i != ts.incumbent_index] == order

    for system in (sys, scaled):
        try:
            expected = reference_lagrange_family(TaggedSystem(system))
        except RankDeficient:
            with pytest.raises(RankDeficient):
                lagrange_family(system)
            continue
        family = lagrange_family(system)
        assert np.array_equal(family.coeffs, expected.coeffs)
        assert np.array_equal(np.signbit(family.coeffs), np.signbit(expected.coeffs))
        assert np.array_equal(family.constants, expected.constants)
        assert family.incumbent_index == expected.incumbent_index
        assert tuple(tag for tag, _ in family.row_polys) == expected.row_tags


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    n = draw(st.integers(2, 4))
    axes = list(range(1, n + 1))
    directions = ()
    if kind in HERMITE_KINDS:
        directions = tuple(sorted(draw(st.sets(st.sampled_from(axes), min_size=1))))
    pairs = ()
    if kind is ModelKind.HERMITE_LS and draw(st.booleans()):
        every = [(a, b) for a in axes for b in axes if a <= b]
        pairs = tuple(sorted(draw(st.sets(st.sampled_from(every), min_size=1, max_size=3))))
    return kind, n, directions, pairs, draw(st.integers(0, 2**32 - 1))


class TestIncumbentComplement:
    @settings(max_examples=60, deadline=None)
    @given(systems(), st.floats(-8.0, 2.0).map(lambda e: 10.0**e), st.booleans())
    def test_accumulation_matches_the_point_loop(self, case, delta, scaled):
        # the complement column is minus the point columns summed one by
        # one in value-row order from zero, bit for bit and sign for sign
        _, sys = build_system(*case)
        if scaled:
            sys = apply_scaling(sys, delta)
        try:
            family = lagrange_family(sys)
        except RankDeficient:
            return
        total = np.zeros(family.coeffs.shape[0])
        for i in sys.value_block.points.tolist():
            total = total + family.coeffs[:, i]
        column = family.coeffs[:, family.incumbent_index]
        assert np.array_equal(column, -total)
        assert np.array_equal(np.signbit(column), np.signbit(-total))


class TestAgainstRowTags:
    @settings(max_examples=200, deadline=None)
    @given(
        systems(),
        st.floats(-8.0, 2.0).map(lambda e: 10.0**e),
        st.booleans(),
    )
    def test_random_systems(self, case, delta, weighting):
        kind, n, directions, pairs, seed = case
        ts, sys = build_system(kind, n, directions, pairs, seed)
        check_against_references(ts, sys, delta, weighting)

    @pytest.mark.parametrize(
        "kind, directions, pairs",
        [
            (ModelKind.FULL_INTERP, (), ()),
            (ModelKind.BOBYQA, (), ()),
            (ModelKind.HERMITE_LS, (1, 3), ()),
            (ModelKind.HERMITE_LS, (2,), ((1, 1), (1, 3), (2, 3))),
            (ModelKind.HERMITE_LS, (), ((1, 2), (3, 3))),
            (ModelKind.HERMITE_BOBYQA, (1, 2, 3), ()),
        ],
    )
    def test_scaling_over_many_radii(self, kind, directions, pairs):
        # a vector power in place of the reference's scalar expressions
        # differs in the last bit on about a quarter of these radii
        ts, sys = build_system(kind, 3, directions, pairs, 7)
        tagged = TaggedSystem(sys)
        for delta in 10.0 ** np.random.default_rng(8).uniform(-8.0, 2.0, size=300):
            scaled = apply_scaling(sys, float(delta))
            left, right = reference_scaling_vectors(tagged, float(delta))
            assert np.array_equal(scaled.row_scale, left)
            assert np.array_equal(scaled.col_scale, right)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_block_layout(self, kind):
        directions = (1, 3) if kind in HERMITE_KINDS else ()
        pairs = ((1, 2),) if kind is ModelKind.HERMITE_LS else ()
        ts, sys = build_system(kind, 3, directions, pairs, 11)
        names = {
            ModelKind.FULL_INTERP: ["value"],
            ModelKind.BOBYQA: ["value", "mfn"],
            ModelKind.HERMITE_LS: ["value", "grad", "hess"],
            ModelKind.HERMITE_BOBYQA: ["value", "mfn", "grad"],
        }[kind]
        assert [b.name for b in sys.blocks] == names
        assert sum(b.rows for b in sys.blocks) == sys.rows
        assert len(row_tags(sys.blocks)) == sys.rows
        assert len(sys.col_exponents) == sys.cols
        value = sys.value_block
        assert list(value.points) == [i for i in range(ts.size) if i != ts.incumbent_index]

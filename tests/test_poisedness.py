import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import availability, build_training_set, poised_points, random_quadratic

from hermiteopt.basis import MonomialBasis
from hermiteopt.models import (
    QuadraticModel,
    apply_scaling,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
    solve_raw,
)
from hermiteopt.poisedness import (
    BALL_BLOCK,
    SUM_IN_ORDER,
    LagrangeFamily,
    Region,
    _ball_test_always_passes,
    _first_argmax_abs,
    _polish_abs,
    _unit_ball_draws,
    derivative_phi_matrix,
    estimate_lambda,
    lagrange_family,
    lambda_from_matrix,
    phi_matrix,
    propose_geometry_point,
    select_outgoing,
    theorem1_check,
)
from hermiteopt.problem import Bounds


def full_interp_family(n, rng, count=None):
    q1 = (n + 1) * (n + 2) // 2
    pts = poised_points(n, count or q1, rng)
    ts = build_training_set(pts, lambda x: float(x @ x))
    return ts, lagrange_family(assemble_full_interp(ts))


class TestDeltaProperty:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_interp_delta(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            ts, family = full_interp_family(n, rng)
            for i, poly in enumerate(family.point_polys):
                for j, rec in enumerate(ts.records):
                    expected = 1.0 if i == j else 0.0
                    assert poly.value(rec.point) == pytest.approx(expected, abs=1e-8)

    def test_min_frob_delta(self):
        rng = np.random.default_rng(5)
        pts = poised_points(2, 5, rng)
        ts = build_training_set(pts, lambda x: float(x @ x))
        family = lagrange_family(assemble_min_frob(ts, np.zeros((2, 2))))
        for i, poly in enumerate(family.point_polys):
            for j, rec in enumerate(ts.records):
                expected = 1.0 if i == j else 0.0
                assert poly.value(rec.point) == pytest.approx(expected, abs=1e-8)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(6)
        ts, family = full_interp_family(2, rng)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            total = sum(p.value(x) for p in family.point_polys)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestLagrange1D:
    def setup_method(self):
        pts = [[0.0], [1.0], [2.0]]
        self.ts = build_training_set(pts, lambda x: float(x[0] ** 2))
        self.family = lagrange_family(assemble_full_interp(self.ts))

    def test_first_polynomial_values(self):
        # l0 is one at its own point and zero at the others
        vals = [self.family.point_polys[0].value(np.array([t])) for t in (0.0, 1.0, 2.0)]
        assert np.allclose(vals, [1.0, 0.0, 0.0], atol=1e-10)

    def test_lambda_on_interval(self):
        # closed-form oracle: the three quadratic Lagrange polynomials on
        # {0,1,2} all stay within [-1, 1] on [0, 2], so the constant is 1
        def l0(t):
            return (t - 1) * (t - 2) / 2

        def l1(t):
            return -t * (t - 2)

        def l2(t):
            return t * (t - 1) / 2

        grid = np.linspace(0.0, 2.0, 4001)
        oracle = max(np.max(np.abs(f(grid))) for f in (l0, l1, l2))
        assert oracle == pytest.approx(1.0, abs=1e-12)

        region = Region(np.array([1.0]), 1.0, Bounds(np.array([0.0]), np.array([2.0])))
        est = estimate_lambda(self.family, region, per_axis=81)
        assert est.lam == pytest.approx(oracle, abs=1e-6)

    def test_grid_refinement_monotone(self):
        region = Region(np.array([1.0]), 1.0, Bounds(np.array([0.0]), np.array([2.0])))
        coarse = estimate_lambda(self.family, region, per_axis=5, polish_steps=0)
        fine = estimate_lambda(self.family, region, per_axis=9, polish_steps=0)
        finer = estimate_lambda(self.family, region, per_axis=17, polish_steps=0)
        assert coarse.lam <= fine.lam + 1e-15
        assert fine.lam <= finer.lam + 1e-15


def test_single_constant_polynomial_lambda_is_one():
    # a single point with the constant-only basis has l == 1 everywhere
    matrix = np.array([[1.0]])
    grid = np.ones((50, 1))
    assert lambda_from_matrix(matrix, grid) == pytest.approx(1.0)


class TestSelectOutgoing:
    def test_existing_point_selects_itself(self):
        rng = np.random.default_rng(7)
        ts, family = full_interp_family(2, rng)
        for j, rec in enumerate(ts.records):
            if j == ts.incumbent_index:
                continue
            assert select_outgoing(family, rec.point) == j

    def test_tie_breaks_lowest_index(self):
        # three identical constant polynomials: coefficient columns all zero
        center = np.zeros(2)
        family = LagrangeFamily(
            center=center,
            coeffs=np.zeros((5, 3)),
            constants=np.full(3, 0.5),
            incumbent_index=2,
        )
        assert select_outgoing(family, np.array([3.0, 3.0])) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        ts, family = full_interp_family(2, rng)
        for _ in range(20):
            y = rng.uniform(-1.5, 1.5, size=2)
            vals = np.array([abs(p.value(y)) for p in family.point_polys])
            vals[family.incumbent_index] = -np.inf
            assert select_outgoing(family, y) == int(np.argmax(vals))

    def test_incumbent_never_selected(self):
        rng = np.random.default_rng(9)
        ts, family = full_interp_family(2, rng)
        assert (
            select_outgoing(family, ts.incumbent_record.point)
            != family.incumbent_index
        )


class TestProposeGeometry:
    def test_affine_polynomial_reaches_boundary(self):
        # one polynomial, l(x) = x_1: its coefficient column is e_1
        center = np.zeros(2)
        family = LagrangeFamily(
            center=center,
            coeffs=np.array([[1.0], [0.0], [0.0], [0.0], [0.0]]),
            constants=np.zeros(1),
            incumbent_index=1,
        )
        region = Region(center, 1.0, Bounds.unbounded(2))
        proposal = propose_geometry_point(family, 0, region, per_axis=21)
        assert abs(proposal[0]) == pytest.approx(1.0, abs=1e-6)

    def test_proposal_feasible(self):
        rng = np.random.default_rng(10)
        ts, family = full_interp_family(2, rng)
        region = Region(
            ts.incumbent_record.point,
            0.5,
            Bounds(np.array([-0.8, -0.8]), np.array([0.8, 0.8])),
        )
        for i in range(ts.size):
            if i == family.incumbent_index:
                continue
            proposal = propose_geometry_point(family, i, region)
            assert region.contains(proposal, tol=1e-12)

    def test_improvement_sweep_does_not_worsen_lambda(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ts, family = full_interp_family(2, rng)
            region = Region(ts.incumbent_record.point, 1.0, Bounds.unbounded(2))
            before = estimate_lambda(family, region, per_axis=15, polish_steps=0)
            # replace the worst non-incumbent polynomial by its extremizer
            grid = region.sample(15)
            worst, worst_val = None, -1.0
            for i, poly in enumerate(family.point_polys):
                if i == family.incumbent_index:
                    continue
                val = float(np.max(np.abs(poly.value_at(grid))))
                if val > worst_val:
                    worst, worst_val = i, val
            proposal = propose_geometry_point(family, worst, region, per_axis=15)
            try:
                ts2 = ts.replace(worst, ts.records[worst].__class__(
                    point=proposal, value=float(proposal @ proposal)
                ))
            except Exception:
                continue
            family2 = lagrange_family(assemble_full_interp(ts2))
            after = estimate_lambda(family2, region, per_axis=15, polish_steps=0)
            assert after.lam <= before.lam + 1e-6

    @staticmethod
    def reference_polish(poly, x0, region, steps):
        """The polish with every value and norm recomputed per try."""
        x = np.array(x0, dtype=float)
        best = abs(poly.value(x))
        step = region.radius / 4.0
        for _ in range(steps):
            grad = poly.gradient(x)
            sign = 1.0 if poly.value(x) >= 0 else -1.0
            norm = float(np.linalg.norm(grad))
            if norm == 0.0:
                break
            y = np.clip(x + step * sign * grad / norm, *region.box)
            d = y - region.center
            if float(np.linalg.norm(d)) > region.radius:
                y = region.center + d * (region.radius / float(np.linalg.norm(d)))
            val = abs(poly.value(y))
            if val > best:
                x, best = y, val
            else:
                step *= 0.5
        return x, best

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_polish_matches_reference(self, n):
        rng = np.random.default_rng(60 + n)
        for k in range(40):
            c, g, H, _, _ = random_quadratic(n, rng)
            if k % 8 == 0:
                g, H = np.zeros(n), np.zeros((n, n))  # no gradient: no move
            center = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 2)
            radius = float(10.0 ** rng.uniform(-6, 0))
            reach = rng.uniform(0.1, 2.0, (2, n)) * radius
            region = Region(center, radius, Bounds(center - reach[0], center + reach[1]))
            x0 = region.project(center + rng.normal(size=n) * radius)
            peak = center + rng.normal(size=n) * radius
            if k % 8 == 4:
                # a small cap near x0: the first try overshoots it and
                # lands where the value has the other sign
                c, g, peak = 1e-3, np.zeros(n), x0 + 1e-3 * radius * rng.normal(size=n)
                H = -(np.eye(n) + H @ H.T) / radius**2
            poly = QuadraticModel(center=peak, c=c, g=g, H=H)
            x, best = _polish_abs(poly, x0, region, 8)
            ref_x, ref_best = self.reference_polish(poly, x0, region, 8)
            assert np.array_equal(x, ref_x) and best == ref_best


class TestRegressionFamilies:
    def test_least_squares_residual_matches_lstsq(self):
        rng = np.random.default_rng(12)
        pts = poised_points(2, 4, rng)
        c, g, H, fn, grad = random_quadratic(2, rng)
        ts = build_training_set(pts, fn, grad, (1, 2))
        sys = assemble_hermite_ls(ts, availability((1, 2)))
        family = lagrange_family(sys)
        basis = sys.basis
        # check each data row's solve against numpy lstsq
        for r, tag in enumerate(sys.row_tags):
            e = np.zeros(sys.rows)
            e[r] = 1.0
            ref, *_ = np.linalg.lstsq(sys.matrix, e, rcond=None)
            res_ref = np.linalg.norm(sys.matrix @ ref - e)
            if tag[0] == "value":
                poly = family.point_polys[tag[1]]
            else:
                poly = dict(
                    (t, p) for t, p in family.row_polys
                )[tag]
            coeff = np.concatenate([poly.g, basis.pack_hessian(poly.H)])
            res = np.linalg.norm(sys.matrix @ coeff - e)
            assert res == pytest.approx(res_ref, abs=1e-9)

    def test_hermite_reconstruction_identity(self):
        # square Hermite system (three points, one known direction): the
        # interpolant equals the sum of values and derivative data times
        # their Lagrange-type polynomials
        rng = np.random.default_rng(13)
        solved = 0
        for trial in range(10):
            pts = poised_points(2, 3, rng)

            def fn(x):
                return float(np.sin(x[0]) + 0.5 * x[1] ** 2 + x[0] * x[1])

            def grad(x):
                return np.array([np.cos(x[0]) + x[1], x[1] + x[0]])

            ts = build_training_set(pts, fn, grad, (1,))
            sys = assemble_hermite_ls(ts, availability((1,)))
            assert sys.matrix.shape == (5, 5)
            try:
                coeff = solve_raw(sys.matrix, sys.rhs)
            except Exception:
                continue
            solved += 1
            family = lagrange_family(sys)
            basis = sys.basis
            direct = QuadraticModel(
                center=sys.shift,
                c=sys.f_opt,
                g=coeff[:2],
                H=basis.unpack_hessian(coeff[2:]),
            )
            row_poly = dict(family.row_polys)
            for _ in range(100):
                x = ts.incumbent_record.point + rng.uniform(-1, 1, size=2)
                total = sum(
                    rec.value * family.point_polys[i].value(x)
                    for i, rec in enumerate(ts.records)
                )
                for i, rec in enumerate(ts.records):
                    total += rec.gradient[1] * row_poly[("grad", i, 1)].value(x)
                assert total == pytest.approx(direct.value(x), abs=1e-8)
        assert solved >= 8


def all_polys(family):
    return family.point_polys + tuple(p for _, p in family.row_polys)


class TestMatrixForm:
    """Columns of the coefficient matrix against the polynomials they
    materialize as."""

    def systems(self):
        rng = np.random.default_rng(40)
        n = 3
        c, g, H, fn, grad = random_quadratic(n, rng)

        def hess(x):
            return H

        full = build_training_set(poised_points(n, 10, rng), fn)
        frob = build_training_set(poised_points(n, 7, rng), fn, grad, (1, 3))
        second = build_training_set(
            poised_points(n, 5, rng), fn, grad, (2,), hess, ((1, 1), (1, 3))
        )
        h_prev = np.eye(n)
        return {
            "full-interp": assemble_full_interp(full),
            "bobyqa": assemble_min_frob(frob, h_prev),
            "hermite-ls": assemble_hermite_ls(
                second, availability((2,), ((1, 1), (1, 3))), include_second_order=True
            ),
            "hermite-bobyqa": assemble_hermite_bobyqa(frob, availability((1, 3)), h_prev),
        }

    @pytest.mark.parametrize("kind", ["full-interp", "bobyqa", "hermite-ls", "hermite-bobyqa"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_columns_match_polynomials(self, kind, scaled):
        sys = self.systems()[kind]
        if scaled:
            sys = apply_scaling(sys, 0.3)
        family = lagrange_family(sys)
        polys = all_polys(family)
        tags = [tag[0] for tag, _ in family.row_polys]
        if kind == "hermite-ls":
            assert "hess" in tags and "grad" in tags
        if kind == "hermite-bobyqa":
            assert tags and set(tags) == {"grad"}
        assert family.coeffs.shape[1] == len(polys) == family.point_count + len(tags)
        rng = np.random.default_rng(41)
        pts = sys.shift + rng.uniform(-1.0, 1.0, size=(300, sys.dimension))
        exact = np.column_stack([p.value_at(pts) for p in polys])
        np.testing.assert_allclose(family.values(pts), exact, rtol=1e-12, atol=0)


def symmetric_family(points, directions=(), delta=None):
    """Lagrange family of a point set with mirror symmetry; the origin is
    the incumbent, so polynomials of mirrored points tie exactly."""
    ts = build_training_set(points, lambda x: float(x @ x), lambda x: 2 * x, directions)
    if directions:
        sys = assemble_hermite_ls(ts, availability(directions))
    else:
        sys = assemble_full_interp(ts)
    return lagrange_family(sys if delta is None else apply_scaling(sys, delta))


class TestExactTies:
    """Symmetric sets on symmetric grids hold exact ties, where the one
    matrix product and the per-polynomial evaluation can disagree in the
    last bit.  Every choice must be the per-polynomial one: first
    polynomial, then first point, with a strictly larger value."""

    CROSS = [[0.0, 0.0], [1.3, 0.0], [-1.3, 0.0], [0.0, 0.5], [0.0, -0.5]]
    CORNERS = [[0.0, 0.0], [0.9, 0.8], [-0.9, 0.8], [0.9, -0.8], [-0.9, -0.8]]
    CASES = [
        (CROSS, (2,), 1.0, 1.5),
        (CROSS, (2,), None, 1.0),
        (CORNERS, (1,), 1.0, 0.8),
        (CORNERS, (1,), None, 1.0),
        ([[0.0, 0.0], [0.3, 0.5], [-0.3, 0.5], [0.3, -0.5], [-0.3, -0.5]], (1,), None, 1.5),
        ([[0.0, 0.0], [1.3, 0.0], [-1.3, 0.0], [0.0, 1.0], [0.0, -1.0], [1.3, 1.0]], (), None, 1.0),
        ([[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.5], [0.0, -0.5], [0.3, 0.5]], (), 0.5, 1.5),
    ]

    @pytest.mark.parametrize("points, directions, delta, radius", CASES)
    @pytest.mark.parametrize("per_axis", [5, 9, 21])
    def test_estimate_lambda_matches_brute_force(self, points, directions, delta, radius, per_axis):
        family = symmetric_family(points, directions, delta)
        region = Region(np.zeros(2), radius, Bounds.unbounded(2))
        pts = region.sample(per_axis)
        lam, best = 0.0, None
        for poly in all_polys(family):
            vals = np.abs(poly.value_at(pts))
            k = int(np.argmax(vals))
            if vals[k] > lam:
                lam, best = float(vals[k]), (poly, pts[k])
        assert estimate_lambda(family, region, per_axis, polish_steps=0).lam == lam
        polished = max(lam, _polish_abs(best[0], best[1], region, 5)[1])
        assert estimate_lambda(family, region, per_axis).lam == polished

    @pytest.mark.parametrize("points, directions, delta, radius", CASES)
    def test_select_outgoing_matches_brute_force(self, points, directions, delta, radius):
        family = symmetric_family(points, directions, delta)
        for y in Region(np.zeros(2), 1.5, Bounds.unbounded(2)).sample(41):
            vals = np.array([abs(p.value(y)) for p in family.point_polys])
            vals[family.incumbent_index] = -np.inf
            assert select_outgoing(family, y) == int(np.argmax(vals))

    @pytest.mark.parametrize("points, directions, delta, radius", CASES)
    @pytest.mark.parametrize("per_axis", [9, 21])
    def test_proposal_matches_brute_force(self, points, directions, delta, radius, per_axis):
        family = symmetric_family(points, directions, delta)
        region = Region(np.zeros(2), radius, Bounds.unbounded(2))
        pts = region.sample(per_axis)
        for index, poly in enumerate(family.point_polys):
            seed = pts[int(np.argmax(np.abs(poly.value_at(pts))))]
            expected = region.project(_polish_abs(poly, seed, region, 5)[0])
            proposal = propose_geometry_point(family, index, region, per_axis)
            assert np.array_equal(proposal, expected)

    @staticmethod
    def seed_cases(n, rng):
        """Quadratics and samples for the proposal seed: grid samples up
        to 4-D and ball samples above, zero Hessians, large constants,
        tiny radii, mirrored samples whose values tie exactly, rows a few
        ulps from the largest one, and a NaN row."""
        variants = ("plain", "zero-H", "large-c", "tiny", "mirrored", "near", "nan")
        for variant in variants:
            c, g, H, _, _ = random_quadratic(n, rng)
            center = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 3)
            radius = 1e-7 if variant == "tiny" else float(rng.uniform(0.1, 2.0))
            if variant == "zero-H":
                H = np.zeros((n, n))
            if variant == "large-c":
                c = 1e9 * c
            if variant in ("mirrored", "near"):
                # about the origin, so mirrored rows are exact negations
                center, g = np.zeros(n), np.zeros(n)
            lower = center - rng.uniform(0.2, 3.0, n) * radius
            region = Region(center, radius, Bounds(lower, center + 3 * radius))
            pts = region.sample(7) if n <= 4 else region.sample(2 * n + 1, cap=2000)
            poly = QuadraticModel(center=center, c=0.0 if variant == "near" else c, g=g, H=H)
            if variant == "mirrored":
                pts = np.vstack([pts, -pts])
            if variant == "near":
                top = pts[int(np.argmax(np.abs(poly.value_at(pts))))]
                ulps = rng.integers(-2, 3, size=(200, n)) * np.finfo(float).eps
                pts = np.vstack([pts, top * (1.0 + ulps)])
            if variant == "nan":
                pts = np.array(pts)
                pts[rng.integers(len(pts))] = np.nan
            yield poly, pts

    @pytest.mark.parametrize("n", range(2, 13))
    def test_seed_row_matches_brute_force(self, n, monkeypatch):
        calls = []
        value_at = QuadraticModel.value_at

        def counted(poly, points):
            calls.append(len(points))
            return value_at(poly, points)

        monkeypatch.setattr(QuadraticModel, "value_at", counted)
        rng = np.random.default_rng(70 + n)
        certified = 0
        for _ in range(4):
            for poly, pts in self.seed_cases(n, rng):
                expected = int(np.argmax(np.abs(value_at(poly, pts))))
                calls.clear()
                assert _first_argmax_abs(poly, pts) == expected
                assert calls in ([], [len(pts)])  # never a subset of rows
                certified += not calls
        assert 0 < certified < 28  # both the screen and the fallback decide

    def test_ball_proposal_is_certified(self, monkeypatch):
        # a random 10-D family on a ball sample needs no exact evaluation;
        # a seed helper that always fell back to value_at would fail here
        rng = np.random.default_rng(80)
        q = MonomialBasis(10).size - 1
        family = LagrangeFamily(
            center=rng.normal(size=10) * 0.1,
            coeffs=rng.normal(size=(q, 40)),
            constants=rng.normal(size=40),
            incumbent_index=0,
        )
        region = Region(np.full(10, 0.1), 0.8, Bounds(np.full(10, -0.5), np.full(10, 2.0)))
        pts = region.sample()
        expected = []
        for index in range(0, 40, 7):
            poly = family.polynomial(index)
            seed = pts[int(np.argmax(np.abs(poly.value_at(pts))))]
            expected.append(region.project(_polish_abs(poly, seed, region, 5)[0]))

        def refuse(poly, points):
            raise AssertionError("value_at called")

        monkeypatch.setattr(QuadraticModel, "value_at", refuse)
        for k, index in enumerate(range(0, 40, 7)):
            assert np.array_equal(propose_geometry_point(family, index, region), expected[k])


class TestRegionSample:
    @staticmethod
    def fresh_draws(region, cap):
        """Every one of the ``2 * cap`` draws and whether it is kept, from
        a fresh generator, with the box and ball tests on all of them."""
        n = region.center.size
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((2 * cap, n))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = region.radius * rng.uniform(0.0, 1.0, size=(2 * cap, 1)) ** (1.0 / n)
        pts = region.center + directions * radii
        lo, hi = region.box
        keep = (
            np.all(pts >= lo, axis=1)
            & np.all(pts <= hi, axis=1)
            & (np.linalg.norm(pts - region.center, axis=1) <= region.radius * (1 + 1e-9))
        )
        return pts, keep

    @classmethod
    def fresh_draw(cls, region, cap):
        pts, keep = cls.fresh_draws(region, cap)
        return np.vstack([region.center, pts[keep][:cap]])

    @staticmethod
    def region_with_faces(n, faces, rng):
        """A region whose bounds cut the ball on the named side(s); "tiny"
        is a 1e-8 ball around a center of magnitude 1e3, cut on both."""
        center = rng.normal(size=n)
        radius = float(rng.uniform(0.2, 1.0))
        if faces == "tiny":
            center, radius = center * 1e3, 1e-8
        lo, hi = center - 2 * radius, center + 2 * radius
        cut = rng.choice(n, size=3, replace=False)
        if faces in ("lower", "both", "tiny"):
            lo[cut[:2]] = center[cut[:2]] - rng.uniform(0.0, 0.4, 2) * radius
        if faces in ("upper", "both", "tiny"):
            hi[cut[1:]] = center[cut[1:]] + rng.uniform(0.0, 0.4, 2) * radius
        if faces == "none":
            lo[cut[0]], hi[cut[1]] = -np.inf, np.inf
        return Region(center, radius, Bounds(lo, hi))

    @pytest.mark.parametrize("n, cap", [(6, 500), (10, 10_000)])
    def test_cached_ball_sample_equals_fresh_draw(self, n, cap):
        rng = np.random.default_rng(n)
        for _ in range(3):
            center = rng.normal(size=n)
            bounds = Bounds(center - rng.uniform(0.1, 1.0, n), center + rng.uniform(0.1, 1.0, n))
            region = Region(center, float(rng.uniform(0.2, 1.0)), bounds)
            pts = region.sample(cap=cap)
            assert len(pts) < (2 * n + 1) ** n  # the ball branch, not a grid
            assert np.array_equal(pts, self.fresh_draw(region, cap))

    @pytest.mark.parametrize("n", [6, 9, 10, 12])
    def test_ball_walk_equals_fresh_draw_at_every_end(self, n):
        # the walk stops in the block holding the cap-th kept draw, or
        # runs to the last block; each position must occur
        rng = np.random.default_rng(n)
        ends = set()
        for cap in (600, 3000, 10_000):
            if 3**n <= cap:
                continue  # a grid, not ball draws
            blocks = -(-2 * cap // BALL_BLOCK)
            for faces in ("none", "lower", "upper", "both", "tiny"):
                region = self.region_with_faces(n, faces, rng)
                pts = region.sample(cap=cap)
                assert np.array_equal(pts, self.fresh_draw(region, cap))
                hits = np.flatnonzero(self.fresh_draws(region, cap)[1])
                end = hits[cap - 1] // BALL_BLOCK if len(hits) >= cap else blocks - 1
                ends.add("first" if end == 0 else "last" if end == blocks - 1 else "middle")
        # in 6-D a cap of 729 is a grid already, so its walks span two blocks
        assert ends == ({"first", "last"} if n == 6 else {"first", "middle", "last"})

    @pytest.mark.parametrize("n", range(9, 21))
    def test_unit_ball_draws_stay_inside_unit_faces(self, n):
        # the ball walk skips the faces at center -+ radius on this premise
        directions, radial = _unit_ball_draws(n, 20_000)
        assert np.max(np.abs(directions)) <= 1.0
        assert np.max(radial) <= 1.0

    def test_cache_is_read_only(self):
        region = Region(np.zeros(10), 1.0, Bounds.unbounded(10))
        first = region.sample()
        for draw in _unit_ball_draws(10, 20_000):
            assert not draw.flags.writeable
            with pytest.raises(ValueError):
                draw[0] = 0.0
        with pytest.raises(ValueError):
            first[:] = 7.0
        assert np.array_equal(region.sample(), self.fresh_draw(region, 10_000))

    @staticmethod
    def full_grid(region, per_axis):
        """The tensor grid box- and ball-filtered as a whole, the order the
        per-axis clipping must reproduce."""
        n = region.center.size
        lo, hi = region.box
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = (
            np.all(pts >= lo, axis=1)
            & np.all(pts <= hi, axis=1)
            & (np.linalg.norm(pts - region.center, axis=1) <= region.radius * (1 + 1e-9))
        )
        return np.vstack([region.center, pts[keep]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_axis_clipped_grid_equals_full_grid(self, n):
        rng = np.random.default_rng(10 + n)
        clipped = 0
        for k in range(12):
            center = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-2, 2)
            radius = float(10.0 ** rng.uniform(-6, 1))
            lo = center - rng.uniform(0.0, 2.0, n) * radius
            hi = center + rng.uniform(0.0, 2.0, n) * radius
            face = rng.random(n) < 0.2
            lo[face] = center[face] if k % 4 == 0 else -np.inf
            region = Region(center, radius, Bounds(lo, hi))
            blo, bhi = region.box
            clipped += bool(np.any(blo > center - radius) or np.any(bhi < center + radius))
            for per_axis in (None, 3, 4, 7):
                pts = region.sample(per_axis)
                if per_axis is None:
                    per_axis = max(3, min(2 * n + 1, int(10_000 ** (1.0 / n))))
                    per_axis -= per_axis % 2 == 0
                if per_axis**n <= 10_000:  # grids only; larger ones are ball draws
                    assert np.array_equal(pts, self.full_grid(region, per_axis))
        assert clipped >= 6  # most boxes are cut by the bounds

    @pytest.mark.parametrize("n", range(1, SUM_IN_ORDER))
    def test_row_norms_sum_left_to_right(self, n):
        # the grid's ball test relies on this order to match the row norm
        rng = np.random.default_rng(n)
        X = rng.normal(size=(20_000, n)) * 10.0 ** rng.uniform(-8, 8, size=(20_000, n))
        total = np.zeros(len(X))
        for k in range(n):
            total = total + X[:, k] * X[:, k]
        assert np.array_equal(np.linalg.norm(X, axis=1), np.sqrt(total))

    def test_default_sample_is_memoized_and_read_only(self):
        bounds = Bounds(np.array([-1.0, -0.2, -1.0]), np.array([1.0, 1.0, 0.1]))
        region = Region(np.zeros(3), 0.5, bounds)
        first = region.sample()
        assert region.sample() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert np.array_equal(first, Region(np.zeros(3), 0.5, bounds).sample())
        # other arguments draw afresh, also read-only
        other = region.sample(5)
        assert other is not region.sample(5)
        assert not other.flags.writeable


class TestOnePassBallSample:
    """Face-free regions within the ``1e6`` center-to-radius cut skip the
    ball test; every other ball region walks the draws and tests them."""

    @staticmethod
    def face_free_region(n, ratio, radius, seed, margin):
        """A region whose center lies ``ratio`` radii from the origin, in a
        box that is unbounded or whose faces lie ``margin`` radii past the
        ball."""
        direction = np.random.default_rng(seed).normal(size=n)
        center = direction * (ratio * radius / np.linalg.norm(direction))
        if margin is None:
            return Region(center, radius, Bounds.unbounded(n))
        return Region(center, radius, Bounds(center - margin * radius, center + margin * radius))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(9, 20),
        log_ratio=st.floats(0.0, 6.0),
        log_radius=st.floats(-8.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
        margin=st.one_of(st.none(), st.floats(1.0, 10.0)),
        cap=st.sampled_from([1000, 10_000]),
    )
    def test_face_free_sample_equals_fresh_draw(self, n, log_ratio, log_radius, seed, margin, cap):
        # 1 - 1e-9 keeps rounding of the center's norm under the cut
        ratio = 10.0**log_ratio * (1 - 1e-9)
        region = self.face_free_region(n, ratio, 10.0**log_radius, seed, margin)
        assert _ball_test_always_passes(region.center, region.radius)
        pts = region.sample(cap=cap)
        assert not pts.flags.writeable
        assert np.array_equal(pts, TestRegionSample.fresh_draw(region, cap))
        dist = np.linalg.norm(pts - region.center, axis=1)
        assert np.all(dist <= region.radius * (1 + 1e-9))
        # the proof's margin: rounding stays under half the test's slack
        assert np.all(dist <= region.radius * (1 + 0.5e-9))

    @pytest.mark.parametrize("n", [9, 10, 16, 20])
    def test_regions_at_the_cut_and_the_default_sample(self, n):
        for ratio in (1.0, 1e3, 1e6 * (1 - 1e-9)):
            region = self.face_free_region(n, ratio, 1e-3, n, None)
            assert _ball_test_always_passes(region.center, region.radius)
            assert np.array_equal(region.sample(), TestRegionSample.fresh_draw(region, 10_000))

    @pytest.mark.parametrize("n", [9, 10, 20])
    def test_regions_past_the_cut_walk(self, n):
        for ratio in (1e6 * (1 + 1e-6), 2e6, 1e8):
            region = self.face_free_region(n, ratio, 0.5, n, None)
            assert not _ball_test_always_passes(region.center, region.radius)
            assert np.array_equal(region.sample(cap=3000), TestRegionSample.fresh_draw(region, 3000))

    @pytest.mark.parametrize("faces", ["lower", "upper", "both", "tiny"])
    def test_regions_with_a_face_walk(self, faces):
        rng = np.random.default_rng(len(faces))
        for n in (9, 10, 14):
            region = TestRegionSample.region_with_faces(n, faces, rng)
            lo, hi = region.box
            assert np.any(lo > region.center - region.radius) or np.any(hi < region.center + region.radius)
            assert np.array_equal(region.sample(cap=3000), TestRegionSample.fresh_draw(region, 3000))

    @pytest.mark.parametrize(
        "center, radius",
        [
            (np.full(10, np.nan), 1.0),
            (np.r_[np.inf, np.zeros(9)], 1.0),
            (np.zeros(10), np.nan),
            (np.zeros(10), np.inf),
            (np.zeros(10), 1e-120),
            (np.zeros(10), 1e120),
        ],
    )
    def test_non_finite_and_extreme_regions_walk(self, center, radius):
        region = Region(center, radius, Bounds.unbounded(10))
        assert not _ball_test_always_passes(region.center, region.radius)
        with np.errstate(invalid="ignore"):
            pts = region.sample(cap=2000)
            expected = TestRegionSample.fresh_draw(region, 2000)
        assert np.array_equal(pts, expected, equal_nan=True)


class TestTheorem1:
    def grid(self, n, center, radius, basis, per_axis=9):
        region = Region(center, radius, Bounds.unbounded(n))
        return phi_matrix(region.sample(per_axis), center, basis)

    def test_zero_augmentation_equal(self):
        rng = np.random.default_rng(14)
        basis = MonomialBasis(2)
        pts = poised_points(2, 6, rng)
        center = pts.mean(axis=0)
        M = phi_matrix(pts, center, basis)
        grid = self.grid(2, center, 1.5, basis)
        lam_i, lam_r = theorem1_check(M, M, grid)
        assert lam_i == pytest.approx(lam_r, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_augmented_lambda_never_larger(self, n):
        rng = np.random.default_rng(n + 20)
        basis = MonomialBasis(n)
        q1 = basis.q1
        for trial in range(15):
            pts = poised_points(n, q1, rng)
            center = pts.mean(axis=0)
            kd = int(rng.integers(1, n + 1))
            M = phi_matrix(pts, center, basis)
            extra = derivative_phi_matrix(pts, range(1, kd + 1), center, basis)
            augmented = np.vstack([M, extra])
            grid = self.grid(n, center, 1.2, basis)
            lam_i, lam_r = theorem1_check(M, augmented, grid)
            assert lam_r <= lam_i + 1e-6

    def test_duplicate_row_does_not_increase(self):
        rng = np.random.default_rng(30)
        basis = MonomialBasis(2)
        for trial in range(10):
            pts = poised_points(2, 6, rng)
            center = pts.mean(axis=0)
            M = phi_matrix(pts, center, basis)
            augmented = np.vstack([M, M[2:3]])
            grid = self.grid(2, center, 1.2, basis)
            lam_i, lam_r = theorem1_check(M, augmented, grid)
            assert lam_r <= lam_i + 1e-9

    def test_prefix_mismatch_rejected(self):
        basis = MonomialBasis(2)
        rng = np.random.default_rng(31)
        pts = poised_points(2, 6, rng)
        M = phi_matrix(pts, np.zeros(2), basis)
        with pytest.raises(ValueError):
            theorem1_check(M, M[::-1], self.grid(2, np.zeros(2), 1.0, basis))

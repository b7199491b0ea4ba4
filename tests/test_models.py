import numpy as np
import pytest
from util import availability, build_training_set, kkt_min_frobenius, poised_points, random_quadratic, row_tags

from hermiteopt.basis import MonomialBasis
from hermiteopt.exceptions import RankDeficient
from hermiteopt.models import (
    ModelKind,
    WEIGHT_SCALE,
    QuadraticModel,
    _derivative_entries,
    _shifted_non_incumbent,
    apply_scaling,
    apply_weighting,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
    distance_weights,
    solve_system,
)
from hermiteopt.driver import default_point_count


def quad_set(n, count, rng, directions=(), pairs=(), h_shift=0.0):
    c, g, H, fn, grad = random_quadratic(n, rng)
    pts = poised_points(n, count, rng)
    hess = (lambda x: H) if pairs else None
    ts = build_training_set(pts, fn, grad, directions, hess=hess, pairs=pairs)
    return ts, (c, g, H, fn, grad)


class TestFullInterp:
    def test_dimensions(self):
        rng = np.random.default_rng(0)
        ts, _ = quad_set(2, 6, rng)
        sys = assemble_full_interp(ts)
        assert sys.matrix.shape == (5, 5)

    def test_wrong_size(self):
        rng = np.random.default_rng(1)
        ts, _ = quad_set(2, 5, rng)
        with pytest.raises(ValueError, match="full interpolation needs"):
            assemble_full_interp(ts)

    def test_exact_on_simple_quadratic(self):
        # f(x) = x.x has Hessian 2I and gradient 2x at the incumbent
        rng = np.random.default_rng(2)
        pts = poised_points(2, 6, rng)
        ts = build_training_set(pts, lambda x: float(x @ x))
        model = solve_system(assemble_full_interp(ts))
        x_opt = ts.incumbent_record.point
        assert np.allclose(model.H, 2 * np.eye(2), atol=1e-10)
        assert np.allclose(model.g, 2 * x_opt, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_on_random_quadratics(self, n):
        rng = np.random.default_rng(n)
        q1 = (n + 1) * (n + 2) // 2
        for _ in range(5):
            ts, (c, g, H, fn, grad) = quad_set(n, q1, rng)
            model = solve_system(assemble_full_interp(ts))
            x_opt = ts.incumbent_record.point
            assert np.linalg.norm(model.H - H) <= 1e-8 * np.linalg.norm(H)
            g_ref = grad(x_opt)
            assert np.linalg.norm(model.g - g_ref) <= 1e-8 * np.linalg.norm(g_ref)


class TestMinFrob:
    def test_dimensions(self):
        rng = np.random.default_rng(3)
        ts, _ = quad_set(2, 5, rng)
        sys = assemble_min_frob(ts, np.zeros((2, 2)))
        assert sys.matrix.shape == (6, 6)

    def test_gram_block_psd(self):
        rng = np.random.default_rng(4)
        ts, _ = quad_set(3, 6, rng)
        sys = assemble_min_frob(ts, np.zeros((3, 3)))
        A = sys.matrix[:5, :5]
        assert np.allclose(A, A.T)
        assert np.min(np.linalg.eigvalsh(A)) > -1e-10

    def test_size_bounds(self):
        rng = np.random.default_rng(5)
        ts, _ = quad_set(2, 6, rng)
        with pytest.raises(ValueError, match="min-Frobenius kind needs"):
            assemble_min_frob(ts, np.zeros((2, 2)))

    def test_asymmetric_h_prev_rejected(self):
        rng = np.random.default_rng(6)
        ts, _ = quad_set(2, 5, rng)
        with pytest.raises(ValueError):
            assemble_min_frob(ts, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_interpolation_conditions_hold(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            ts, (c, g, H, fn, grad) = quad_set(2, 5, rng)
            A = rng.normal(size=(2, 2))
            h_prev = A + A.T
            model = solve_system(assemble_min_frob(ts, h_prev))
            for rec in ts.records:
                assert model.value(rec.point) == pytest.approx(rec.value, abs=1e-8)

    def test_matches_kkt_oracle(self):
        # the block system must agree with a direct KKT solve of the
        # Frobenius-minimal update
        rng = np.random.default_rng(8)
        for trial in range(10):
            ts, (c, g, H, fn, grad) = quad_set(2, 5, rng)
            A = rng.normal(size=(2, 2))
            h_prev = A + A.T
            model = solve_system(assemble_min_frob(ts, h_prev))
            g_ref, H_ref = kkt_min_frobenius(
                ts.points, ts.values, ts.incumbent_index, h_prev
            )
            assert np.linalg.norm(model.H - H_ref) < 1e-6
            assert np.allclose(model.g, g_ref, atol=1e-6)

    def test_exact_with_true_h_prev(self):
        rng = np.random.default_rng(9)
        ts, (c, g, H, fn, grad) = quad_set(3, 7, rng)
        model = solve_system(assemble_min_frob(ts, H))
        x_opt = ts.incumbent_record.point
        assert np.allclose(model.H, H, atol=1e-8)
        assert np.allclose(model.g, grad(x_opt), atol=1e-8)


def reference_hermite_ls(ts, avail, include_second_order):
    """``assemble_hermite_ls`` as it was with its second-order flag: the
    matrix, right-hand side and (name, labels) of each derivative block."""
    basis = MonomialBasis(ts.dimension)
    directions = avail.directions
    pairs = avail.pairs if include_second_order else ()
    shift, _, D, _, value_rhs = _shifted_non_incumbent(ts)
    rhs = [value_rhs, _derivative_entries(ts, directions).ravel()]
    blocks = [("grad", directions)]
    parts = [
        basis.value_rows(D),
        basis.derivative_rows(ts.points - shift, [d - 1 for d in directions]),
    ]
    if pairs:
        rhs.append(_derivative_entries(ts, pairs, second=True).ravel())
        blocks.append(("hess", pairs))
        hess_rows = [basis.second_derivative_row((a - 1, b - 1)) for a, b in pairs]
        parts.append(np.tile(hess_rows, (ts.size, 1)))
    return np.vstack(parts), np.concatenate(rhs), blocks


class TestModelKind:
    def test_parse_takes_the_four_values(self):
        for kind in ModelKind:
            assert ModelKind.parse(f" {kind.value.upper()}\t") is kind
        assert ModelKind.parse(" Hermite-LS ") is ModelKind.HERMITE_LS

    @pytest.mark.parametrize("text", ["min-frob", "full", "hermitels", "hermite_ls", ""])
    def test_other_spellings_name_the_four(self, text):
        with pytest.raises(ValueError) as exc:
            ModelKind.parse(text)
        assert all(kind.value in str(exc.value) for kind in ModelKind)


class TestHermiteLS:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pairs_decide_the_second_order_rows(self, n):
        # the system equals the old flag-on one with pairs and the old
        # flag-off one once the pairs are dropped, as `run` drops them
        rng = np.random.default_rng(60 + n)
        all_pairs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        for _ in range(5):
            k_d = int(rng.integers(1, n + 1))
            directions = tuple(sorted(int(d) for d in rng.choice(np.arange(1, n + 1), k_d, replace=False)))
            picked = rng.choice(len(all_pairs), int(rng.integers(1, len(all_pairs) + 1)), replace=False)
            pairs = tuple(all_pairs[i] for i in sorted(picked))
            ts, _ = quad_set(n, 2 * n + 1, rng, directions, pairs)
            declared = availability(directions, pairs)
            for avail, flag in ((declared, True), (availability(directions), False)):
                sys = assemble_hermite_ls(ts, avail)
                matrix, rhs, blocks = reference_hermite_ls(ts, declared, flag)
                assert sys.matrix.tobytes() == matrix.tobytes()
                assert sys.rhs.tobytes() == rhs.tobytes()
                assert [(b.name, b.labels) for b in sys.blocks[1:]] == blocks

    def test_square_hermite_counts(self):
        # n=2 with both derivatives known: two points make the system square
        rng = np.random.default_rng(10)
        ts, _ = quad_set(2, 2, rng, directions=(1, 2))
        sys = assemble_hermite_ls(ts, availability((1, 2)))
        assert sys.matrix.shape == (5, 5)

    def test_default_point_count_formula(self):
        assert default_point_count(ModelKind.HERMITE_LS, 3, (1, 2)) == 5
        assert default_point_count(ModelKind.HERMITE_LS, 2, (2,)) == 4
        assert default_point_count(ModelKind.FULL_INTERP, 2) == 6
        assert default_point_count(ModelKind.BOBYQA, 4) == 9

    def test_default_point_count_structural_floor(self):
        # with one known direction in n=5, value rows alone must pin the
        # 14 unknown-direction coefficients, plus the anti-churn margin
        assert default_point_count(ModelKind.HERMITE_LS, 5, (1,)) == 15 + 2

    def test_row_layout_point_major(self):
        rng = np.random.default_rng(11)
        ts, _ = quad_set(2, 3, rng, directions=(1, 2))
        sys = assemble_hermite_ls(ts, availability((1, 2)))
        tags = row_tags(sys.blocks)
        assert [t[0] for t in tags[:2]] == ["value", "value"]
        grads = tags[2:]
        # all directions of one point before the next point
        assert [t[2] for t in grads] == [1, 2, 1, 2, 1, 2]

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(12)
        ts, _ = quad_set(3, 2, rng, directions=(1,))
        with pytest.raises(ValueError, match="rows cannot determine"):
            assemble_hermite_ls(ts, availability((1,)))

    def test_missing_derivative(self):
        rng = np.random.default_rng(13)
        ts, _ = quad_set(2, 4, rng, directions=(1,))
        with pytest.raises(ValueError, match="lacks the derivative for direction"):
            assemble_hermite_ls(ts, availability((1, 2)))

    def test_overdetermined_consistent_recovers_exactly(self):
        rng = np.random.default_rng(14)
        for n in (2, 3):
            dirs = tuple(range(1, n + 1))
            ts, (c, g, H, fn, grad) = quad_set(n, 2 * n + 2, rng, directions=dirs)
            sys = assemble_hermite_ls(ts, availability(dirs))
            model = solve_system(sys)
            x_opt = ts.incumbent_record.point
            assert np.allclose(model.H, H, rtol=1e-9, atol=1e-9)
            assert np.allclose(model.g, grad(x_opt), rtol=1e-9, atol=1e-9)
            residual = sys.matrix @ np.concatenate(
                [model.g, sys.basis.pack_hessian(model.H)]
            ) - sys.rhs
            assert np.linalg.norm(residual) < 1e-9

    def test_second_order_rows_appended(self):
        rng = np.random.default_rng(15)
        pairs = ((1, 1), (1, 2), (2, 2))
        ts, (c, g, H, fn, grad) = quad_set(2, 3, rng, directions=(1,), pairs=pairs)
        sys = assemble_hermite_ls(ts, availability((1,), pairs))
        assert sys.matrix.shape == (2 + 3 * 1 + 3 * 3, 5)
        hess_rows = [t for t in row_tags(sys.blocks) if t[0] == "hess"]
        assert len(hess_rows) == 9
        model = solve_system(sys)
        assert np.allclose(model.H, H, atol=1e-9)


class TestHermiteBobyqa:
    def test_row_counts(self):
        rng = np.random.default_rng(16)
        ts, _ = quad_set(2, 5, rng, directions=(1, 2))
        sys = assemble_hermite_bobyqa(ts, availability((1, 2)), np.zeros((2, 2)))
        assert sys.matrix.shape == (4 + 2 + 5 * 2, 6)

    def test_rank_one_identity(self):
        # C^i (y^j - x) = d_i (d_i . (y^j - x)) by the outer-product identity
        rng = np.random.default_rng(17)
        d_i = rng.normal(size=3)
        v = rng.normal(size=3)
        C = np.outer(d_i, d_i)
        assert np.linalg.matrix_rank(C) == 1
        assert np.allclose(C @ v, d_i * (d_i @ v))

    def test_gradient_rows_structure(self):
        rng = np.random.default_rng(18)
        ts, (c, g, H, fn, grad) = quad_set(2, 5, rng, directions=(1, 2))
        sys = assemble_hermite_bobyqa(ts, availability((1, 2)), np.zeros((2, 2)))
        x_opt = ts.incumbent_record.point
        D = sys.shifted_points
        row = sys.matrix[6]  # first gradient row: point 0 in value order? no: j=0 storage
        tag = row_tags(sys.blocks)[6]
        assert tag[0] == "grad"
        j, direction = tag[1], tag[2]
        dj = ts.records[j].point - x_opt
        expected = np.concatenate([(D * (D @ dj)[:, None])[:, direction - 1], np.eye(2)[direction - 1]])
        assert np.allclose(row, expected)

    def test_full_gradient_match_on_quadratic(self):
        # with every direction known and the true Hessian as the previous
        # one, the recovered model reproduces the gradient at every point
        rng = np.random.default_rng(19)
        ts, (c, g, H, fn, grad) = quad_set(2, 5, rng, directions=(1, 2))
        model = solve_system(assemble_hermite_bobyqa(ts, availability((1, 2)), H))
        for rec in ts.records:
            assert np.allclose(model.gradient(rec.point), grad(rec.point), atol=1e-6)

    def test_too_few_points(self):
        rng = np.random.default_rng(20)
        ts, _ = quad_set(3, 4, rng, directions=(1,))
        with pytest.raises(ValueError, match=r"Hermite BOBYQA needs at least n\+2 points"):
            assemble_hermite_bobyqa(ts, availability((1,)), np.zeros((3, 3)))

    def test_missing_derivative(self):
        rng = np.random.default_rng(21)
        ts, _ = quad_set(2, 5, rng, directions=(1,))
        with pytest.raises(ValueError, match="lacks the derivative for direction"):
            assemble_hermite_bobyqa(ts, availability((1, 2)), np.zeros((2, 2)))


class TestScaling:
    def test_full_interp_unchanged_at_unit_radius(self):
        rng = np.random.default_rng(22)
        ts, _ = quad_set(2, 6, rng)
        sys = assemble_full_interp(ts)
        scaled = apply_scaling(sys, 1.0)
        assert np.array_equal(scaled.matrix, sys.matrix)
        assert np.array_equal(scaled.rhs, sys.rhs)

    def test_min_frob_left_diagonal_example(self):
        # n=2, p=4, delta=0.5 gives 1/delta^2 = 4 on point rows and 0.5 after
        rng = np.random.default_rng(23)
        ts, _ = quad_set(2, 5, rng)
        sys = assemble_min_frob(ts, np.zeros((2, 2)))
        scaled = apply_scaling(sys, 0.5)
        assert np.allclose(scaled.row_scale, [4, 4, 4, 4, 0.5, 0.5])
        assert np.allclose(scaled.col_scale, [4, 4, 4, 4, 0.5, 0.5])

    def test_hermite_ls_scaling_vectors(self):
        rng = np.random.default_rng(24)
        ts, _ = quad_set(2, 4, rng, directions=(2,))
        sys = assemble_hermite_ls(ts, availability((2,)))
        scaled = apply_scaling(sys, 0.5)
        assert np.allclose(scaled.col_scale, [2, 2, 4, 4, 4])
        assert np.allclose(scaled.row_scale, [1, 1, 1, 0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("delta", [0.1, 1.0, 7.5])
    def test_roundtrip_square_kinds(self, delta):
        rng = np.random.default_rng(25)
        ts, _ = quad_set(2, 6, rng)
        sys = assemble_full_interp(ts)
        direct = solve_system(sys)
        scaled = solve_system(apply_scaling(sys, delta))
        assert np.allclose(direct.g, scaled.g, atol=1e-10)
        assert np.allclose(direct.H, scaled.H, atol=1e-10)

        ts5, _ = quad_set(2, 5, rng)
        sysb = assemble_min_frob(ts5, np.zeros((2, 2)))
        direct = solve_system(sysb)
        scaled = solve_system(apply_scaling(sysb, delta))
        assert np.allclose(direct.g, scaled.g, atol=1e-9)
        assert np.allclose(direct.H, scaled.H, atol=1e-9)

    @pytest.mark.parametrize("delta", [0.2, 2.0])
    def test_roundtrip_consistent_hermite(self, delta):
        # consistent (quadratic) data: row weighting cannot move the solution
        rng = np.random.default_rng(26)
        ts, _ = quad_set(2, 4, rng, directions=(1, 2))
        sys = assemble_hermite_ls(ts, availability((1, 2)))
        direct = solve_system(sys)
        scaled = solve_system(apply_scaling(sys, delta))
        assert np.allclose(direct.g, scaled.g, atol=1e-8)
        assert np.allclose(direct.H, scaled.H, atol=1e-8)

    def test_double_scaling_rejected(self):
        rng = np.random.default_rng(27)
        ts, _ = quad_set(2, 6, rng)
        scaled = apply_scaling(assemble_full_interp(ts), 0.5)
        with pytest.raises(ValueError):
            apply_scaling(scaled, 0.5)


class TestWeighting:
    def test_kind_mismatch(self):
        rng = np.random.default_rng(28)
        ts, _ = quad_set(2, 6, rng)
        with pytest.raises(ValueError, match="weighting does not apply to"):
            apply_weighting(assemble_full_interp(ts), ts)

    def test_weight_values(self):
        rng = np.random.default_rng(29)
        ts, _ = quad_set(2, 4, rng, directions=(1,))
        assert WEIGHT_SCALE == 5.0
        w = distance_weights(ts)
        assert w[ts.incumbent_index] == pytest.approx(1.0)
        d = np.linalg.norm(ts.points - ts.incumbent_record.point, axis=1)
        assert w[np.argmax(d)] == pytest.approx(np.exp(-5.0), rel=1e-12)
        assert np.all((w > 0) & (w <= 1))

    def test_equidistant_points_share_one_weight(self):
        # every non-incumbent point at the same distance gets the same
        # weight exp(-s), so those rows are rescaled by a common factor
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        ts = build_training_set(
            pts, lambda x: float(x @ x), lambda x: 2 * np.asarray(x), (1,)
        )
        assert ts.incumbent_index == 0
        w = distance_weights(ts)
        assert np.allclose(w[1:], np.exp(-5.0))
        assert w[0] == pytest.approx(1.0)

    def test_hermite_bobyqa_block_rows_unweighted(self):
        rng = np.random.default_rng(30)
        ts, _ = quad_set(2, 5, rng, directions=(1,))
        sys = assemble_hermite_bobyqa(ts, availability((1,)), np.zeros((2, 2)))
        weighted = apply_weighting(sys, ts)
        p_n = 4 + 2
        assert np.array_equal(weighted.matrix[:p_n], sys.matrix[:p_n])
        assert not np.array_equal(weighted.matrix[p_n:], sys.matrix[p_n:])


class TestSolve:
    def test_square_solve_residual(self):
        rng = np.random.default_rng(32)
        ts, _ = quad_set(2, 6, rng)
        sys = assemble_full_interp(ts)
        model = solve_system(sys)
        v = np.concatenate([model.g, sys.basis.pack_hessian(model.H)])
        assert np.linalg.norm(sys.matrix @ v - sys.rhs) <= 1e-10 * max(
            1.0, np.linalg.norm(sys.rhs)
        )

    def test_near_duplicate_point_rank_deficient(self):
        # two points closer than the rank tolerance admits
        base = np.array([0.3, 0.4])
        pts = [
            [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
            base, base + 1e-13,
        ]
        ts = build_training_set(pts, lambda x: float(x @ x))
        with pytest.raises(RankDeficient):
            solve_system(assemble_full_interp(ts))

    def test_model_value_gradient(self):
        rng = np.random.default_rng(33)
        A = rng.normal(size=(3, 3))
        model = QuadraticModel(
            center=rng.normal(size=3), c=1.5, g=rng.normal(size=3), H=A + A.T
        )
        assert model.value(model.center) == pytest.approx(1.5)
        assert np.allclose(model.gradient(model.center), model.g)
        for _ in range(5):
            x = rng.normal(size=3)
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd[i] = (model.value(x + e) - model.value(x - e)) / 2e-6
            assert np.allclose(model.gradient(x), fd, rtol=1e-7, atol=1e-7)

    def test_affine_model_constant_gradient(self):
        model = QuadraticModel(
            center=np.zeros(2), c=0.0, g=np.array([1.0, -2.0]), H=np.zeros((2, 2))
        )
        for x in ([0, 0], [3, 4], [-1, 7]):
            assert np.allclose(model.gradient(np.asarray(x, float)), [1.0, -2.0])


class TestKindEquivalence:
    """``resolve_model`` picks the system a run assembles, and ``_assemble``
    builds exactly that system."""

    @staticmethod
    def resolved_system(kind, ts, h_prev):
        from hermiteopt.driver import IterationState, SolverConfig, _assemble, resolve_model
        from hermiteopt.problem import Bounds, ObjectiveSpec

        spec = ObjectiveSpec(
            dimension=ts.dimension,
            value=lambda x: 0.0,
            bounds=Bounds.unbounded(ts.dimension),
            availability=availability(),
        )
        resolved, count = resolve_model(spec, SolverConfig(kind=kind))
        assert count == ts.size
        return _assemble(IterationState(0, ts, 0.1, h_prev, 0.1, resolved), spec)

    def test_hermite_ls_with_no_derivatives_routes_to_full_interp(self):
        rng = np.random.default_rng(34)
        ts, _ = quad_set(2, 6, rng)
        sys = self.resolved_system(ModelKind.HERMITE_LS, ts, np.zeros((2, 2)))
        ref = assemble_full_interp(ts)
        assert sys.kind is ModelKind.FULL_INTERP
        assert np.array_equal(sys.matrix, ref.matrix)
        assert np.array_equal(sys.rhs, ref.rhs)

    def test_hermite_bobyqa_with_no_derivatives_routes_to_min_frob(self):
        rng = np.random.default_rng(35)
        ts, _ = quad_set(2, 5, rng)
        h_prev = np.zeros((2, 2))
        sys = self.resolved_system(ModelKind.HERMITE_BOBYQA, ts, h_prev)
        ref = assemble_min_frob(ts, h_prev)
        assert sys.kind is ModelKind.BOBYQA
        assert np.array_equal(sys.matrix, ref.matrix)
        assert np.array_equal(sys.rhs, ref.rhs)

    @pytest.mark.parametrize("kind", [ModelKind.BOBYQA, ModelKind.HERMITE_BOBYQA])
    def test_min_frob_on_q1_points_routes_to_full_interp(self, kind):
        # at n = 1 the 2n+1 default set is the full quadratic count
        ts = build_training_set([[0.0], [0.5], [-0.25]], lambda x: float(x @ x))
        sys = self.resolved_system(kind, ts, np.zeros((1, 1)))
        ref = assemble_full_interp(ts)
        assert sys.kind is ModelKind.FULL_INTERP
        assert np.array_equal(sys.matrix, ref.matrix)
        assert np.array_equal(sys.rhs, ref.rhs)


def test_hermite_derivative_rows_match_value_row_differences():
    # derivative rows must be the directional derivatives of value rows
    rng = np.random.default_rng(36)
    ts, _ = quad_set(2, 4, rng, directions=(1, 2))
    sys = assemble_hermite_ls(ts, availability((1, 2)))
    basis = sys.basis
    h = 1e-5
    for r, tag in enumerate(row_tags(sys.blocks)):
        if tag[0] != "grad":
            continue
        _, i, direction = tag
        z = ts.records[i].point - sys.shift
        e = np.zeros(2)
        e[direction - 1] = h
        fd = (basis.value_row(z + e) - basis.value_row(z - e)) / (2 * h)
        assert np.allclose(sys.matrix[r], fd, atol=1e-6)


class TestVectorizedAssembly:
    """The block-built systems equal the row-by-row construction bitwise."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hermite_ls_rows(self, n):
        rng = np.random.default_rng(40 + n)
        directions = tuple(range(1, n + 1, 2))
        pairs = ((1, 1), (1, n))
        ts, _ = quad_set(n, 2 * n + 1, rng, directions, pairs)
        sys = assemble_hermite_ls(ts, availability(directions, pairs))
        basis, shift = sys.basis, sys.shift
        rows = [basis.value_row(ts.records[i].point - shift) for i in sys.value_block.points]
        rows += [
            basis.derivative_row(rec.point - shift, d - 1) for rec in ts.records for d in directions
        ]
        rows += [basis.second_derivative_row((a - 1, b - 1)) for _ in ts.records for a, b in pairs]
        assert np.array_equal(sys.matrix, np.array(rows))

        full, _ = quad_set(n, basis.q1, rng)
        sys = assemble_full_interp(full)
        rows = [basis.value_row(full.records[i].point - sys.shift) for i in sys.value_block.points]
        assert np.array_equal(sys.matrix, np.array(rows))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_hermite_bobyqa_gradient_block(self, n):
        rng = np.random.default_rng(50 + n)
        directions = tuple(range(1, n + 1, 2))
        ts, _ = quad_set(n, 2 * n + 1, rng, directions)
        A = rng.normal(size=(n, n))
        h_prev = A + A.T
        sys = assemble_hermite_bobyqa(ts, availability(directions), h_prev)
        # the per-point, per-direction construction the block form replaced
        shift, D = sys.shift, sys.shifted_points
        p = sys.value_block.rows
        rows, rhs = [], []
        for j, rec in enumerate(ts.records):
            dj = rec.point - shift
            inner = D @ dj
            block = D * inner[:, None]
            correction = h_prev @ dj
            for direction in directions:
                row = np.zeros(p + n)
                row[:p] = block[:, direction - 1]
                row[p + direction - 1] = 1.0
                rows.append(row)
                rhs.append(rec.gradient[direction] - correction[direction - 1])
        assert np.array_equal(sys.matrix[p + n :], np.array(rows))
        assert np.array_equal(sys.rhs[p + n :], np.array(rhs))
        assert row_tags(sys.blocks)[p + n :] == tuple(
            ("grad", j, d) for j in range(ts.size) for d in directions
        )

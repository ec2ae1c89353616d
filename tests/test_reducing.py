import numpy as np
import pytest

from matweight import linalg, reducing, weights
from matweight.geometry import CubeWindow, DyadicCube
from matweight.quad import QuadSpec
from matweight.reducing import (CubeNorm, build_family, cube_norm, dual_reduce,
                                identity_family, integrability_probe,
                                mvee_centered, reduce_operator, unit_directions,
                                verify_reducing)
from matweight.weights import (ConjugatedBlockWeight, ConstantWeight,
                               PowerLogWeight, ap_constant, cube_average,
                               cube_average_matrix_norm, identity_weight)


def conjugated_block():
    return ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                 PowerLogWeight(1, 1, 0.3))


class TestCubeNorm:
    def test_identity(self):
        assert cube_norm(identity_weight(1, 2), 2.0, DyadicCube(1, (0,)),
                         [1.0, 0.0]) == pytest.approx(1.0)

    def test_constant_four(self):
        W = ConstantWeight(1, 4.0 * np.eye(2))
        assert cube_norm(W, 2.0, DyadicCube(1, (0,)), [1.0, 0.0]) == pytest.approx(2.0)

    def test_power_log_integral(self):
        val = cube_norm(PowerLogWeight(1, 1, -0.5), 1.0, DyadicCube(0, (0,)), [1.0])
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_homogeneous(self):
        norm = CubeNorm(conjugated_block(), 1.5, DyadicCube(1, (0,)))
        z = np.array([0.3 + 0.4j, -1.0])
        assert norm(2.7 * z) == pytest.approx(2.7 * norm(z), rel=1e-10)


class TestMvee:
    def test_cross_points_give_circle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        E = mvee_centered(pts)
        assert np.allclose(E, np.eye(2), atol=1e-6)

    def test_axis_scaled(self):
        pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
        E = mvee_centered(pts)
        assert np.allclose(E, np.diag([0.25, 4.0]), atol=1e-5)

    @pytest.mark.parametrize("c", [1.0, 2.5, 0.3 - 0.4j])
    def test_unitary_rows_give_identity_over_abs_c_squared(self, c):
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))[:, None]
        for rows in (c * U, c * phases * U):
            assert np.allclose(mvee_centered(rows), np.eye(3) / abs(c) ** 2, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_circled_fit_is_real_fit_of_quarter_turns(self, m):
        # the real MVEE of {z_k, i z_k} in R^(2m) is J-invariant, hence the
        # circled ellipsoid of the z_k
        rng = np.random.default_rng(m)
        Z = rng.standard_normal((12, m)) + 1j * rng.standard_normal((12, m))
        Z *= rng.uniform(0.1, 10.0, (12, 1))
        H = mvee_centered(Z)
        R = np.concatenate([Z, 1j * Z])
        E = mvee_centered(np.concatenate([R.real, R.imag], axis=1))
        assert np.allclose(H, E[:m, :m] + 1j * E[m:, :m], rtol=1e-6, atol=0.0)
        scores = np.einsum("ni,ij,nj->n", Z.conj(), H, Z).real
        assert scores.max() <= 1.0 + 1e-8
        phased = Z * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (12, 1)))
        assert np.allclose(mvee_centered(phased), H, rtol=1e-6, atol=0.0)

    def test_family_fits_reach_tolerance(self, monkeypatch):
        fits = []
        fit = reducing.mvee_centered

        def recorded(points):
            fits.append((points, fit(points)))
            return fits[-1][1]

        monkeypatch.setattr(reducing, "mvee_centered", recorded)
        monkeypatch.setattr(reducing, "_family_cache", {})
        build_family(conjugated_block(), 1.5, CubeWindow(1, 1, 3), method="mvee", K=64)
        assert len(fits) == 14
        for P, H in fits:
            assert np.einsum("ni,ij,nj->n", P.conj(), H, P).real.max() - 1.0 <= 1e-8


class TestReduce:
    def test_constant_any_p(self):
        W = ConstantWeight(1, 8.0 * np.eye(2))
        for p, method in ((2.0, "exact_p2"), (3.0, "mvee"), (0.5, "mvee")):
            A = reduce_operator(W, p, DyadicCube(1, (0,)), method=method, K=64)
            target = 8.0 ** (1.0 / p)
            assert np.allclose(A, target * np.eye(2), rtol=1e-6, atol=1e-5 * target)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0])
    def test_constant_complex_matrix_any_p(self, p):
        # the boundary of a constant weight's ball is the ellipsoid of
        # M^(1/p); cond(M^(1/p)) is at most 3.3 here, where the K sampled
        # directions still hold its John points
        M = linalg.random_psd(np.random.default_rng(0), 2, cond_max=np.sqrt(20.0))
        A = reduce_operator(ConstantWeight(1, M), p, DyadicCube(1, (0,)), method="mvee", K=256)
        target = linalg.matrix_power(M, 1.0 / p)
        assert linalg.op_norm(A - target) <= 1e-6 * linalg.op_norm(target)

    def test_mvee_matches_exact_at_p2(self):
        W = conjugated_block()
        Q = DyadicCube(1, (0,))
        A_exact = reduce_operator(W, 2.0, Q, method="exact_p2")
        A_mvee = reduce_operator(W, 2.0, Q, method="mvee", K=256)
        rel = linalg.op_norm(A_mvee - A_exact) / linalg.op_norm(A_exact)
        assert rel <= 0.05

    def test_scaling_equivariance(self):
        Q = DyadicCube(1, (0,))
        for p in (1.0, 2.0):
            A1 = reduce_operator(ConstantWeight(1, 3.0 * np.eye(2)), p, Q, K=64)
            A2 = reduce_operator(ConstantWeight(1, 6.0 * np.eye(2)), p, Q, K=64)
            assert np.allclose(A2, 2.0 ** (1.0 / p) * A1, rtol=1e-6)

    def test_power_weight_scale_law(self):
        # |A_Q z|^p tracks (|c_Q| + l(Q))^(-d) |z|^p on cubes abutting zero
        d, p = 0.5, 2.0
        W = PowerLogWeight(1, 2, -d)
        ratios = []
        for j in (1, 3, 5):
            Q = DyadicCube(j, (0,))
            A = reduce_operator(W, p, Q)
            val = float(np.linalg.norm(A @ np.array([1.0, 0.0]))) ** p
            ratios.append(val / (abs(Q.center[0]) + Q.side) ** -d)
        assert max(ratios) / min(ratios) <= 1.1

    def test_exact_p2_requires_p2(self):
        with pytest.raises(ValueError):
            reduce_operator(identity_weight(1, 1), 1.5, DyadicCube(1, (0,)),
                            method="exact_p2")


class TestDualReduce:
    def test_identity(self):
        A = dual_reduce(identity_weight(1, 2), 2.0, DyadicCube(1, (0,)))
        assert np.allclose(A, np.eye(2), atol=1e-9)

    def test_constant(self):
        W = ConstantWeight(1, 9.0 * np.eye(2))
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, 2.0, Q)
        At = dual_reduce(W, 2.0, Q)
        assert np.allclose(At, np.eye(2) / 3.0, atol=1e-9)
        assert linalg.op_norm(A @ At) == pytest.approx(1.0, rel=1e-9)

    def test_inverse_vs_dual_directions(self):
        # |A_Q^(-1) z| ~ |A~_Q z| within a two-sided factor 3 over directions
        W = conjugated_block()
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, 2.0, Q)
        At = dual_reduce(W, 2.0, Q)
        dirs = unit_directions(2, 64)
        r1 = np.linalg.norm(dirs @ np.linalg.inv(A).T, axis=1)
        r2 = np.linalg.norm(dirs @ At.T, axis=1)
        ratio = r1 / r2
        assert ratio.max() <= 3.0 and (1.0 / ratio).max() <= 3.0


class TestVerifyReducing:
    def test_scalar_exact(self):
        W = PowerLogWeight(1, 1, -0.5)
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, 2.0, Q, method="exact_p2")
        lo, hi = verify_reducing(A, W, 2.0, Q)
        assert 1 - 1e-6 <= lo and hi <= 1 + 1e-6

    def test_identity_family_bracket(self):
        win = CubeWindow(1, 1, 3)
        fam = identity_family(win, 2)
        assert fam.worst_bracket() == (1.0, 1.0)

    def test_exact_p2_direction_bracket_matrix_weight(self):
        # vector-route bracket is at quadrature tolerance even for m = 2
        W = conjugated_block()
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, 2.0, Q, method="exact_p2")
        lo, hi = verify_reducing(A, W, 2.0, Q, include_matrices=False)
        assert 1 - 1e-3 <= lo and hi <= 1 + 1e-3

    def test_mvee_john_bracket(self):
        W = PowerLogWeight(1, 2, -0.5)
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, 1.0, Q, method="mvee", K=128)
        lo, hi = verify_reducing(A, W, 1.0, Q, K=128)
        assert 0.2 <= lo and hi <= 5.0

    def test_calibrated_brackets_straddle_one(self):
        W = conjugated_block()
        win = CubeWindow(1, 1, 3)
        fam = build_family(W, 1.5, win, method="mvee", K=64)
        lo, hi = fam.worst_bracket()
        assert lo <= 1.0 + 1e-9 <= hi + 2e-9


class TestDualityProduct:
    @pytest.mark.parametrize("weight", [PowerLogWeight(1, 1, -0.5),
                                        PowerLogWeight(1, 1, 0.5)])
    def test_product_tracks_ap_constant(self, weight):
        p = 2.0
        win = CubeWindow(1, 1, 3)
        sup_prod = 0.0
        for Q in win.cubes():
            A = reduce_operator(weight, p, Q)
            At = dual_reduce(weight, p, Q)
            sup_prod = max(sup_prod, float(linalg.op_norm(A @ At)))
        ap = ap_constant(weight, p, win).value
        ratio = sup_prod / ap ** (1.0 / p)
        assert np.isfinite(sup_prod)
        assert 0.1 <= ratio <= 10.0


class TestSmallPInverse:
    def test_inverse_matches_ess_sup(self):
        # p <= 1: |A_Q^(-1) z| ~ node-sup of |W^(-1/p) z|
        from matweight.quad import box_nodes

        W = PowerLogWeight(1, 2, -0.5)
        p = 1.0
        Q = DyadicCube(1, (0,))
        A = reduce_operator(W, p, Q, method="mvee", K=128)
        Ainv = np.linalg.inv(A)
        X, _ = box_nodes(Q.box(), 4, 20, 1, W.singular_points)
        Wneg = W.power_at(X, -1.0 / p)
        dirs = unit_directions(2, 64)
        lhs = np.linalg.norm(dirs @ Ainv.T, axis=1)
        rhs = np.abs(np.einsum("nij,kj->nki", Wneg, dirs))
        rhs = np.linalg.norm(np.einsum("nij,kj->nki", Wneg, dirs), axis=2).max(axis=0)
        ratio = lhs / rhs
        assert ratio.max() <= 4.0 and (1.0 / ratio).max() <= 4.0


class TestProbe:
    def test_identity_table(self):
        win = CubeWindow(1, 1, 2)
        fam = identity_family(win, 2)
        tab = integrability_probe(identity_weight(1, 2), 2.0, fam, win,
                                  [0.5, 1.0, 2.0])
        for row in tab.rows:
            assert row.forward == pytest.approx(1.0, abs=1e-9)
            assert row.backward == pytest.approx(1.0, abs=1e-9)

    def test_small_p_sup_form_tracks_ap(self):
        W = PowerLogWeight(1, 1, -0.5)
        p = 0.5
        win = CubeWindow(1, 1, 3)
        fam = build_family(W, p, win, method="mvee", K=32)
        tab = integrability_probe(W, p, fam, win, [0.5, 1.0])
        ap = ap_constant(W, p, win).value
        ratio = tab.sup_form / ap ** (1.0 / p)
        assert 0.1 <= ratio <= 10.0

    def test_p2_row_finite_and_large_r_divergent(self):
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 3)
        fam = build_family(W, 2.0, win, method="exact_p2")
        tab = integrability_probe(W, 2.0, fam, win, [2.0, 4.0, 6.0])
        rows = {row.r: row for row in tab.rows}
        assert rows[2.0].forward_ok and rows[2.0].backward_ok
        assert not rows[4.0].backward_ok  # w^(-r/2) integrability fails at r = 4
        assert tab.stable_r == pytest.approx(2.0)


class TestFamily:
    def test_cache_returns_same_object(self):
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 3)
        f1 = build_family(W, 2.0, win)
        f2 = build_family(W, 2.0, win)
        assert f1 is f2

    def test_cache_keyed_on_qspec_and_diag_K(self):
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 2)
        fams = [build_family(W, 2.0, win, qspec=QuadSpec(rel_tol=1e-2)),
                build_family(W, 2.0, win, qspec=QuadSpec(rel_tol=1e-8)),
                build_family(W, 2.0, win)]
        assert len({id(f) for f in fams}) == 3

    def test_level_field_and_points(self):
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 3)
        fam = build_family(W, 2.0, win)
        Q = win.cubes_at_level(2)[1]
        A = fam.matrix(Q)
        pts = Q.center[None, :]
        assert np.allclose(fam.at_points(2, pts)[0], A)
        assert np.allclose(fam.inverse_at_points(2, pts)[0], np.linalg.inv(A))


class TestOnePass:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("method, p, per_cube", [("mvee", 1.5, 1), ("exact_p2", 2.0, 2)])
    def test_cube_averages_per_cube(self, monkeypatch, m, method, p, per_cube):
        # the fit, the calibration and the bracket read one cube average;
        # exact_p2 adds avg_Q W
        calls = []
        average_box = weights.average_box

        def counted(*args, **kwargs):
            calls.append(args)
            return average_box(*args, **kwargs)

        monkeypatch.setattr(weights, "average_box", counted)
        monkeypatch.setattr(reducing, "_family_cache", {})
        W = conjugated_block() if m == 2 else PowerLogWeight(1, 1, -0.4)
        win = CubeWindow(1, 1, 2)
        fam = build_family(W, p, win, method=method, K=32)
        assert fam.m == m
        assert len(calls) == per_cube * win.num_cubes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unit_directions_prefix_stable(self, m):
        big = unit_directions(m, 300)
        for K in (1, 16, 64, 256):
            assert np.array_equal(unit_directions(m, K), big[:K + m])

    @pytest.mark.parametrize("method, p", [("mvee", 1.5), ("exact_p2", 2.0)])
    def test_family_bracket_is_verify_reducing(self, method, p):
        W = conjugated_block()
        win = CubeWindow(1, 1, 2)
        fam = build_family(W, p, win, method=method, K=64)
        for Q in win.cubes():
            assert np.allclose(fam.bracket(Q), verify_reducing(fam.matrix(Q), W, p, Q),
                               rtol=1e-12, atol=0.0)

    def test_verify_reducing_matches_reference(self):
        # directions from one cube average, each test matrix from its own
        W = conjugated_block()
        Q = DyadicCube(1, (0,))
        p = 1.5
        A = reduce_operator(W, p, Q, method="mvee", K=64)
        dirs = unit_directions(2, 64)
        res = cube_average(W, Q, 1.0 / p, p, lambda Ws: np.linalg.norm(
            np.einsum("nij,kj->nki", Ws, dirs), axis=2) ** p)
        ratios = list(np.linalg.norm(dirs @ A.T, axis=1) / res.value ** (1.0 / p))
        mats = [np.eye(2)]
        for i in range(2):
            for k in range(2):
                M = np.zeros((2, 2))
                M[i, k] = 1.0
                mats.append(M)
        for M in mats:
            ratios.append(float(linalg.op_norm(A @ M)) / cube_average_matrix_norm(W, p, Q, M))
        lo, hi = verify_reducing(A, W, p, Q)
        assert lo == pytest.approx(min(ratios), rel=1e-3)
        assert hi == pytest.approx(max(ratios), rel=1e-3)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matweight import container, linalg, reducing, weights
from matweight.dyadic import gamma_field, grid_points
from matweight.errors import CoverageError, FitError
from matweight.geometry import CubeWindow, DyadicCube, cube_box, dilated_boxes
from matweight.quad import QuadSpec
from matweight.reducing import (CubeNorm, build_family, dual_reduce,
                                identity_family, integrability_probe,
                                mvee_centered, reduce_operator, unit_directions,
                                verify_reducing)
from matweight.weights import (ConjugatedBlockWeight, ConstantWeight,
                               GridSampledWeight, MatrixWeight, PowerLogWeight, ap_constant,
                               cube_average, cube_average_matrix_norm,
                               identity_weight)


def conjugated_block():
    return ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                 PowerLogWeight(1, 1, 0.3))


def sampled_block():
    """The conjugated block sampled at the 16 cell midpoints of cube_box(1)."""
    box = cube_box(1)
    return GridSampledWeight(box, conjugated_block().power_at(grid_points(box, 4), 1.0))


def scores(P, H):
    return np.einsum("ni,ij,nj->n", P.conj(), H, P).real


def cloud(m, N, real, shape, seed):
    """N points in R^m or C^m: scattered, on one ellipsoid, or N - 1
    scattered points and one at 1 - 1e-5 of their optimal ellipsoid."""
    rng = np.random.default_rng(seed)

    def draw(n):
        Z = rng.standard_normal((n, m))
        return Z if real else Z + 1j * rng.standard_normal((n, m))

    if shape == "ellipsoid":
        U = draw(N)
        return U / np.linalg.norm(U, axis=1, keepdims=True) @ draw(m)
    if shape == "scattered":
        return draw(N) * rng.uniform(0.1, 10.0, (N, 1))
    P = draw(N - 1) * rng.uniform(0.1, 10.0, (N - 1, 1))
    z = draw(1)
    z *= (1.0 - 1e-5) / np.sqrt(scores(z, mvee_centered(P)))[:, None]
    return np.concatenate([P, z])


# the first-order step loop, the reference the interior-point fit is tested
# against: Khachiyan steps toward the largest score and Wolfe-Atwood away
# steps off the smallest score on the support
_STEP_TOL = 1e-8
_STEP_REFRESH = 256  # steps between full recomputations of X^(-1)


def _scores(P, u):
    """X(u)^(-1) and the scores z_i* X(u)^(-1) z_i, X(u) = sum u_i z_i z_i*."""
    Xinv = np.linalg.inv(P.T @ (P.conj() * u[:, None]))
    return Xinv, np.einsum("ni,ij,nj->n", P.conj(), Xinv, P).real


def _away_steps(P, u, cap):
    """At most cap Khachiyan or Wolfe-Atwood away steps from the weights u;
    returns the new weights and the violation of the last ones scored."""
    Pc = P.conj()
    d = P.shape[1]
    u = u.copy()
    viol = np.inf
    for it in range(cap):
        if it % _STEP_REFRESH == 0:
            Xinv, M = _scores(P, u)
        j = int(np.argmax(M))
        k = int(np.argmin(np.where(u > 0.0, M, np.inf)))
        up, down = M[j] / d - 1.0, 1.0 - M[k] / d
        viol = max(up, down)
        if viol < _STEP_TOL:
            break
        if up >= down:  # Khachiyan step toward z_j
            beta = (M[j] - d) / (d * (M[j] - 1.0))
        else:  # away step off z_k, clipped where u_k reaches 0
            # (the volume grows all the way to the clip when M_k <= 1)
            j, drop = k, -u[k] / (1.0 - u[k])
            beta = max((M[k] - d) / (d * (M[k] - 1.0)), drop) if M[k] > 1.0 else drop
        u *= 1.0 - beta
        u[j] = 0.0 if up < down and beta == drop else u[j] + beta  # no rounding residue
        if beta == 1.0:  # only at d = 1, where all weight on one point is optimal
            viol = 0.0
            break
        # Sherman-Morrison update of Xinv and the scores M
        v = Xinv @ P[j]
        denom = (1.0 - beta) + beta * M[j]
        Xinv = (Xinv - (beta / denom) * np.outer(v, v.conj())) / (1.0 - beta)
        M = (M - (beta / denom) * np.abs(Pc @ v) ** 2) / (1.0 - beta)
    return u, viol


class UnitarilyConjugated(MatrixWeight):
    """U W(x) U* for a constant unitary U."""

    def __init__(self, weight, U):
        self.weight, self.U = weight, U
        self.n, self.m, self.singular_points = weight.n, weight.m, weight.singular_points

    def power_at(self, X, alpha):
        return self.U @ self.weight.power_at(X, alpha) @ self.U.conj().T

    def norm_exponent(self, point, alpha):
        return self.weight.norm_exponent(point, alpha)

    def local_power(self, point, alpha):
        return self.weight.local_power(point, alpha)


class TestCubeNorm:
    def test_identity(self):
        assert CubeNorm(identity_weight(1, 2), 2.0, DyadicCube(1, (0,)))(
            [1.0, 0.0]) == pytest.approx(1.0)

    def test_constant_four(self):
        W = ConstantWeight(1, 4.0 * np.eye(2))
        assert CubeNorm(W, 2.0, DyadicCube(1, (0,)))([1.0, 0.0]) == pytest.approx(2.0)

    def test_power_log_integral(self):
        val = CubeNorm(PowerLogWeight(1, 1, -0.5), 1.0, DyadicCube(0, (0,)))([1.0])
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_homogeneous(self):
        norm = CubeNorm(conjugated_block(), 1.5, DyadicCube(1, (0,)))
        z = np.array([0.3 + 0.4j, -1.0])
        assert norm(2.7 * z) == pytest.approx(2.7 * norm(z), rel=1e-10)


    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
    def test_constant_norms_on_the_least_eigenvector(self, m, p):
        # cond(M^(1/p)) = 1000 with random eigenvectors, and M's least eigenvector
        # among the directions: |M^(1/p) z| there is 1000 times below the
        # factor's entries, so z* M^(2/p) z would lose about 1e-11 to cancellation
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        M = linalg.hermitize((q * np.geomspace(1.0, 1e-3, m) ** p) @ np.conj(q.T))
        dirs = np.concatenate([unit_directions(m, 16), np.linalg.eigh(M)[1][:, :1].T])
        got = CubeNorm(ConstantWeight(1, M), p, DyadicCube(1, (0,))).bundle(dirs)
        ref = np.linalg.norm(dirs @ linalg.matrix_power(M, 1.0 / p).T, axis=1)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

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
        stacks = []
        fits = reducing._mvee_fits

        def recorded(stack):
            stacks.append((stack, fits(stack)))
            return stacks[-1][1]

        monkeypatch.setattr(reducing, "_mvee_fits", recorded)
        for weight in (conjugated_block(), sampled_block()):
            build_family(weight, 1.5, CubeWindow(1, 1, 3), method="mvee", K=64)
        assert [len(P) for P, _ in stacks] == [14, 14]
        for P, H in stacks:
            for z, E in zip(P, H):
                assert scores(z, E).max() <= 1.0 + 1e-10

    def test_iteration_cap_raises(self, monkeypatch):
        # 16 points within 1e-3 of the unit circle are not fitted in 2 iterations
        monkeypatch.setattr(reducing, "_MVEE_MAX_ITER", 2)
        th = 2.0 * np.pi * np.arange(16) / 16
        radius = 1.0 + 1e-3 * np.random.default_rng(0).uniform(-1.0, 1.0, (16, 1))
        with pytest.raises(FitError, match="not converged after 2 iterations"):
            mvee_centered(np.stack([np.cos(th), np.sin(th)], axis=1) * radius)

    @pytest.mark.parametrize("points", [
        [[1.0, 0.0]],
        [[1, 0], [2, 0], [3, 0]],
        np.zeros((3, 2)),
        [[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.0, 1j * np.inf], [1.0, 1.0]],
    ])
    def test_points_that_do_not_span_or_are_not_finite_raise(self, points):
        with pytest.raises(FitError, match="non-finite points|do not span 2 dimensions"):
            mvee_centered(points)

    @pytest.mark.parametrize("stretch", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_elongated_clouds_score_within_rounding(self, stretch):
        # H = T^(-*) G T^(-1) and the scores round at about eps cond(P)^2:
        # a cloud stretched by 1e6 reads 1 + 3e-5 from rounding alone
        eps = np.finfo(float).eps
        for seed in range(20):
            m, rng = 2 + seed % 2, np.random.default_rng(seed)
            P = cloud(m, 40, seed % 4 < 2, ("scattered", "ellipsoid", "near")[seed % 3], seed)
            Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            P = P @ (Q * np.r_[stretch, np.ones(m - 1)]) @ Q.T
            s = np.linalg.svd(P, compute_uv=False)
            assert scores(P, mvee_centered(P)).max() <= 1.0 + m ** 2 * eps * (s[0] / s[-1]) ** 2

    def test_clouds_on_one_ellipsoid_fit_in_20_iterations(self, monkeypatch):
        monkeypatch.setattr(reducing, "_MVEE_MAX_ITER", 20)
        for seed in range(40):
            N = int(np.random.default_rng(seed).integers(4, 81))
            P = cloud(3, N, False, "ellipsoid", seed)
            assert scores(P, mvee_centered(P)).max() <= 1.0 + 1e-10

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(mN=st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 80))),
           real=st.booleans(), shape=st.sampled_from(["scattered", "ellipsoid", "near"]),
           seed=st.integers(0, 2 ** 16))
    @example(mN=(2, 5), real=False, shape="near", seed=0)  # a fifth point in C^2
    @example(mN=(2, 66), real=False, shape="ellipsoid", seed=1)
    @example(mN=(3, 40), real=False, shape="near", seed=2)
    @example(mN=(3, 80), real=True, shape="scattered", seed=3)
    # fewer points than coordinates, one of them almost on the ellipsoid
    @example(mN=(3, 4), real=True, shape="near", seed=1035)
    @example(mN=(3, 4), real=False, shape="near", seed=1057)
    @example(mN=(3, 5), real=True, shape="near", seed=11)
    def test_fit_is_the_step_loop_optimum(self, mN, real, shape, seed):
        P = cloud(*mN, real, shape, seed)
        H = mvee_centered(P)
        assert scores(P, H).max() <= 1.0 + 1e-10
        # the step loop alone, run to a violation of 1e-8
        u, viol = np.full(len(P), 1.0 / len(P)), np.inf
        for _ in range(10):
            if viol < _STEP_TOL:
                break
            u, viol = _away_steps(P, u, 100_000)
        assert viol < _STEP_TOL
        ref = _scores(P, u)[0] / P.shape[1]
        assert abs(np.linalg.slogdet(H)[1] - np.linalg.slogdet(ref)[1]) <= 1e-7

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(mN=st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 80))),
           real=st.booleans(), shape=st.sampled_from(["scattered", "ellipsoid", "near"]),
           seed=st.integers(0, 2 ** 16))
    def test_fit_turns_with_the_points(self, mN, real, shape, seed):
        # the ellipsoid of the points U z_i is U H U*
        P = cloud(*mN, real, shape, seed)
        rng = np.random.default_rng(seed + 1)
        Z = rng.standard_normal((2, mN[0], mN[0]))
        U = np.linalg.qr(Z[0] if real else Z[0] + 1j * Z[1])[0]
        H = mvee_centered(P)
        ref = U @ H @ U.conj().T
        assert linalg.op_norm(mvee_centered(P @ U.T) - ref) <= 1e-8 * linalg.op_norm(ref)


def first_unstopped(stack, cap):
    """The index of the first cloud of the stack whose fit has not stopped
    within cap iterations, or None when every fit stops."""
    saved, reducing._MVEE_MAX_ITER = reducing._MVEE_MAX_ITER, cap
    try:
        reducing._mvee_fits(stack)
    except FitError as exc:
        assert "not converged" in str(exc)
        return exc.cloud
    finally:
        reducing._MVEE_MAX_ITER = saved
    return None


def assert_stacked_fits_are_the_one_cloud_fits(P):
    """Each fit of the stack P is its one-cloud fit, in as many iterations;
    returns the iteration counts."""
    H = reducing._mvee_fits(P)
    its = []
    for i, (z, E) in enumerate(zip(P, H)):
        ref = mvee_centered(z)
        assert linalg.op_norm(E - ref) <= 1e-12 * linalg.op_norm(ref)
        its.append(next(k for k in range(1, 61) if first_unstopped(z[None], k) is None))
        rolled = np.roll(P, -i, axis=0)  # cloud i first, among all the others
        assert first_unstopped(rolled, its[-1] - 1) == 0
        assert first_unstopped(rolled, its[-1]) != 0
    return its


class TestStackedMvee:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(mN=st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 60))),
           real=st.booleans(),
           clouds=st.lists(st.tuples(st.sampled_from(["scattered", "ellipsoid", "near"]),
                                     st.integers(0, 2 ** 16)), min_size=1, max_size=5))
    @example(mN=(2, 66), real=False, clouds=[("scattered", 0), ("ellipsoid", 1), ("near", 2)])
    @example(mN=(3, 4), real=True, clouds=[("near", 1035), ("scattered", 5)])
    def test_each_fit_is_its_one_cloud_fit(self, mN, real, clouds):
        P = np.stack([cloud(*mN, real, shape, seed) for shape, seed in clouds])
        assert_stacked_fits_are_the_one_cloud_fits(P)

    def test_clouds_that_stop_at_different_iterations(self):
        P = np.stack([cloud(2, 66, False, shape, seed)
                      for seed, shape in enumerate(["scattered", "ellipsoid", "near"] * 2)])
        assert len(set(assert_stacked_fits_are_the_one_cloud_fits(P))) >= 3

    @pytest.mark.parametrize("bad, match", [(np.nan, "fit of non-finite points"),
                                            (0.0, "fit of points that do not span 2")])
    def test_first_cloud_that_cannot_be_fitted_is_named(self, bad, match):
        P = np.stack([cloud(2, 10, False, "scattered", seed) for seed in range(4)])
        P[2:, :, 1] = bad  # clouds 2 and 3
        with pytest.raises(FitError, match=match) as err:
            reducing._mvee_fits(P)
        assert err.value.cloud == 2

    def test_family_fit_failure_names_its_box_and_p(self, monkeypatch):
        W, window = conjugated_block(), CubeWindow(1, 1, 3)
        stacks, fits = [], reducing._mvee_fits
        monkeypatch.setattr(reducing, "_mvee_fits", lambda P: stacks.append(P) or fits(P))
        build_family(W, 1.5, window, method="mvee", K=64)
        its = [next(k for k in range(1, 61) if first_unstopped(z[None], k) is None)
               for z in stacks[0]]
        i = next(i for i, k in enumerate(its) if k > its[0])  # the first to outlast cloud 0
        box = dilated_boxes(window.batch(), [1.0])[i, 0].tolist()
        monkeypatch.setattr(reducing, "_MVEE_MAX_ITER", its[0])
        with pytest.raises(FitError) as err:
            build_family(W, 1.5, window, method="mvee", K=64)
        assert str(err.value) == (f"box {box} at p = 1.5: ellipsoid fit "
                                  f"not converged after {its[0]} iterations")
        assert err.value.__cause__.cloud == i


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

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(j=st.integers(0, 4), k=st.integers(-2, 1), seed=st.integers(0, 2 ** 16))
    def test_unitary_equivariance(self, j, k, seed):
        # A_Q(U W U*) = U A_Q(W) U* on cubes at, next to and away from the singular point
        Z = np.random.default_rng(seed).standard_normal((2, 2, 2))
        U = np.linalg.qr(Z[0] + 1j * Z[1])[0]
        W, Q = conjugated_block(), DyadicCube(j, (k,))
        A = reduce_operator(UnitarilyConjugated(W, U), 2.0, Q, method="exact_p2")
        ref = U @ reduce_operator(W, 2.0, Q, method="exact_p2") @ U.conj().T
        assert linalg.op_norm(A - ref) <= 1e-10 * linalg.op_norm(ref)

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
        X, _, _ = box_nodes(Q.box(), 4, 20, 1, W.singular_points)
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
    def test_level_field_and_points(self):
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 3)
        fam = build_family(W, 2.0, win)
        Q = win.cubes_at_level(2)[1]
        A = fam.matrix(Q)
        pts = Q.center[None, :]
        assert np.allclose(fam.level_field(2)[1], A)
        assert np.allclose(fam.inverse_at_points(2, pts)[0], np.linalg.inv(A))

    def test_level_outside_window_raises_coverage_error(self):
        fam = identity_family(CubeWindow(1, 1, 3), 2)
        with pytest.raises(CoverageError, match="no level 5"):
            fam.inverse_at_points(5, [[0.1]])
        with pytest.raises(CoverageError, match="no level 5"):
            gamma_field(identity_weight(1, 2), fam, 2.0, 5)

    def test_matrices_are_read_only(self, tmp_path):
        fam = build_family(PowerLogWeight(1, 1, -0.5), 2.0, CubeWindow(1, 1, 3))
        path = tmp_path / "family.json"
        container.save_family_json(path, fam)
        back = container.load_family_json(path)
        for f in (fam, back):
            for a in list(f.mats.values()) + list(f.inv.values()):
                with pytest.raises(ValueError):
                    a[0] = 0.0
        assert all(np.allclose(back.mats[j], fam.mats[j]) for j in fam.mats)

    def test_given_arrays_are_locked_and_views_copied(self):
        win = CubeWindow(1, 1, 2)
        base = np.ones((6, 1, 1)) * np.eye(2, dtype=complex)
        given = {1: 2.0 * np.ones((2, 1, 1)) * np.eye(2, dtype=complex), 2: base[2:]}
        fam = reducing.ReducingFamily(win, 2.0, "identity", given, {})
        assert fam.mats[1] is given[1] and not fam.mats[1].flags.writeable
        base[2] = 7.0  # the caller's base stays writable, the family does not see it
        assert fam.mats[2][0, 0, 0] == 1.0 and not fam.mats[2].flags.writeable
        # the inverses and m come from the operators, one inv per level
        assert fam.m == 2
        assert all(np.array_equal(fam.inv[j], np.linalg.inv(fam.mats[j])) for j in win.levels())
        assert not any(a.flags.writeable for a in fam.inv.values())


class TestOnePass:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("method, p, batches", [("mvee", 1.5, 1), ("exact_p2", 2.0, 2)])
    def test_cube_averages_per_cube(self, monkeypatch, m, method, p, batches):
        # the fits, the calibrations and the brackets of the whole window read
        # one batch of cube averages; exact_p2 adds one batch of avg_Q W
        calls = []
        average_boxes = weights.average_boxes

        def counted(*args, **kwargs):
            calls.append(args)
            return average_boxes(*args, **kwargs)

        monkeypatch.setattr(weights, "average_boxes", counted)
        W = conjugated_block() if m == 2 else PowerLogWeight(1, 1, -0.4)
        win = CubeWindow(1, 1, 2)
        fam = build_family(W, p, win, method=method, K=32)
        assert fam.m == m
        assert [len(args[1]) for args in calls] == batches * [win.num_cubes()]

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

    @pytest.mark.parametrize("weight, p, method, window", [
        (PowerLogWeight(1, 1, -0.4), 1.5, "mvee", CubeWindow(1, 1, 2)),
        (PowerLogWeight(1, 1, -0.4), 2.0, "exact_p2", CubeWindow(1, 1, 2)),
        (conjugated_block(), 1.5, "mvee", CubeWindow(1, 1, 2)),
        (conjugated_block(), 2.0, "exact_p2", CubeWindow(1, 1, 2)),
        (PowerLogWeight(2, 1, -0.8), 1.5, "mvee", CubeWindow(2, 1, 2)),
        (ConjugatedBlockWeight(PowerLogWeight(2, 1, -0.8), PowerLogWeight(2, 1, 0.5)), 2.0,
         "exact_p2", CubeWindow(2, 1, 2))])
    def test_family_is_the_one_box_reduce_on_each_cube(self, weight, p, method, window):
        # one batch over the window gives each cube exactly what the cube alone gets
        fam = build_family(weight, p, window, method=method, K=64)
        assert fam.m == weight.m
        for Q in window.cubes():
            A = reduce_operator(weight, p, Q, method=method, K=64)
            assert np.array_equal(fam.matrix(Q), A)
            assert fam.bracket(Q) == verify_reducing(A, weight, p, Q)

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

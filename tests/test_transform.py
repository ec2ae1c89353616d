import gc
import math
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matweight import spaces, transform
from matweight.errors import CoverageError, ResolutionError, ScaleRangeError
from matweight.geometry import Box, CubeWindow, DyadicCube, cube_box
from matweight.reducing import build_family, identity_family
from matweight.spaces import CoefficientField, SpaceParams, seq_norm, seq_norm_from_cube_scalars
from matweight.transform import (BandLimitedFunction, _weighted_conv_fields, analyze,
                                 build_filters, bump_profile, convolve_scale,
                                 finfty_function_norm, function_norm, lifting,
                                 peetre_sup, random_band_limited,
                                 schwartz_seminorm, synthesize)
from matweight.weights import ConjugatedBlockWeight, PowerLogWeight, identity_weight


@pytest.fixture(scope="module")
def flt():
    return build_filters(cube_box(1), 12)


@pytest.fixture(scope="module")
def win(flt):
    return CubeWindow(1, flt.j_min, flt.j_max, flt.box)


class TestFilters:
    def test_calderon_partition(self, flt):
        assert flt.calderon_defect() <= 1e-12

    def test_annulus_support_exact(self, flt):
        ts = np.concatenate([np.linspace(1e-3, 0.5, 300),
                             np.linspace(2.0, 10.0, 300)])
        assert np.max(np.abs(bump_profile(ts, flt.smoothness))) == 0.0

    def test_lower_bound_positive(self, flt):
        assert flt.annulus_lower_bound("phi") > 0.0
        assert flt.annulus_lower_bound("psi") > 0.0

    def test_small_grid_rejected(self):
        with pytest.raises(ResolutionError):
            build_filters(cube_box(1), 2)


class TestConvolve:
    def test_disjoint_spectrum_kills(self, flt):
        rng = np.random.default_rng(0)
        # spectrum inside level-8 annulus only; convolving at level 4 sees zero
        f = random_band_limited(flt, 1, rng, band=(2.0 ** 7.5, 2.0 ** 8.0))
        out = convolve_scale(f, flt, 4)
        assert out.sup_norm() <= 1e-12 * f.sup_norm()

    def test_parseval_bound(self, flt):
        rng = np.random.default_rng(1)
        f = random_band_limited(flt, 2, rng)
        for j in (5, 7):
            conv = convolve_scale(f, flt, j)
            # Parseval: the L2 norm is |box|^(1/2) times the coefficients' l2 norm
            assert np.linalg.norm(conv.coeffs) <= np.linalg.norm(f.coeffs) * (1.0 + 1e-12)

    def test_pure_mode_multiplier(self, flt):
        N = flt.N
        k0 = 40  # xi = 2 pi 40, in the level-7 annulus
        coeffs = np.zeros((1, N), dtype=complex)
        coeffs[0, k0] = 1.0
        mode = BandLimitedFunction(flt, coeffs)
        conv = convolve_scale(mode, flt, 7)
        expected = bump_profile(np.array([2 * np.pi * k0 / 2.0 ** 7]),
                                flt.smoothness)[0]
        vals = conv.values()[0]
        direct = expected * mode.values()[0]
        assert np.max(np.abs(vals - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_out_of_range_scale(self, flt):
        rng = np.random.default_rng(2)
        f = random_band_limited(flt, 1, rng)
        with pytest.raises(ScaleRangeError):
            convolve_scale(f, flt, flt.j_max + 1)


class TestTransformPair:
    def test_zero_roundtrip(self, flt, win):
        f = BandLimitedFunction(flt, np.zeros((1, flt.N), dtype=complex))
        t = analyze(f, flt, win)
        assert all(np.all(v == 0) for v in t.values.values())
        g = synthesize(t, flt)
        assert g.sup_norm() == 0.0

    def test_linearity(self, flt, win):
        rng = np.random.default_rng(3)
        f, g = (random_band_limited(flt, 2, rng) for _ in range(2))
        ta, tb = analyze(f, flt, win), analyze(g, flt, win)
        tab = analyze(f + g, flt, win)
        worst = max(np.max(np.abs(tab.values[j] - ta.values[j] - tb.values[j]))
                    for j in win.levels())
        scale = max(np.max(np.abs(ta.values[j])) for j in win.levels())
        assert worst <= 1e-12 * scale

    def test_atom_against_direct_sum(self, flt):
        # synthesized single atom vs the plain frequency-sum formula
        win = CubeWindow(1, 5, 7, flt.box)
        Q0 = DyadicCube(6, (-3,))
        from matweight.spaces import CoefficientField

        t = CoefficientField(win, 1).set_cube(Q0, [1.0])
        atom = synthesize(t, flt)
        vals = atom.values()[0]
        N = flt.N
        pts = flt.box.lo_arr[0] + (np.arange(N) + 0.5) * 2.0 ** -flt.grid_level
        k = (np.fft.fftfreq(N) * N).astype(int)
        xi = 2 * np.pi * k
        psih = flt.psi_hat(Q0.j)
        direct = np.zeros(N, dtype=complex)
        for i in range(N):
            if psih[i] != 0.0:
                direct += psih[i] * np.exp(1j * xi[i] * (pts - Q0.lower[0]))
        direct *= Q0.volume ** 0.5
        assert np.max(np.abs(vals - direct)) <= 1e-10 * np.max(np.abs(direct))

    def test_reconstruction_1d(self, flt, win):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_band_limited(flt, 2, rng)
            g = synthesize(analyze(f, flt, win), flt)
            assert (g + f.scaled(-1)).sup_norm() <= 1e-8 * f.sup_norm()

    def test_reconstruction_2d(self):
        flt2 = build_filters(cube_box(2), 7)
        win2 = CubeWindow(2, flt2.j_min, flt2.j_max, flt2.box)
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = random_band_limited(flt2, 2, rng)
            g = synthesize(analyze(f, flt2, win2), flt2)
            assert (g + f.scaled(-1)).sup_norm() <= 1e-8 * f.sup_norm()

    @pytest.mark.parametrize("n, level", [(1, 10), (2, 6)])
    def test_synthesize_leaves_its_input_alone(self, n, level):
        # an m = 1 level array moved to (1, M, ..., M) is C-contiguous already
        flt_n = build_filters(cube_box(n), level)
        window = CubeWindow(n, flt_n.j_min, flt_n.j_max, flt_n.box)
        rng = np.random.default_rng(8)
        for t in (analyze(random_band_limited(flt_n, 1, rng), flt_n, window),
                  CoefficientField.random(window, 1, rng),
                  CoefficientField(window, 1).set_cube(DyadicCube(flt_n.j_min + 1, (0,) * n), [1.0])):
            before = {j: v.copy() for j, v in t.values.items()}
            first = synthesize(t, flt_n).coeffs
            assert all(np.array_equal(t.values[j], before[j]) for j in before)
            for v in t.values.values():
                v.flags.writeable = False
            assert np.array_equal(synthesize(t, flt_n).coeffs, first)

    def test_band_invariant_respected(self, flt):
        rng = np.random.default_rng(6)
        f = random_band_limited(flt, 1, rng)
        assert f.band == flt.safe_band
        assert f.band_defect() <= 1e-12
        assert f.zero_mean_defect() <= 1e-12
        g = convolve_scale(f.scaled(2.0) + f, flt, 6)
        assert g.band_defect() <= 1e-12

    def test_analyze_depends_only_on_support(self, flt, win):
        # perturbing the analysis multipliers off the spectrum changes nothing
        rng = np.random.default_rng(7)
        f = random_band_limited(flt, 1, rng, band=(2.0 ** 5, 2.0 ** 7))
        t_ref = analyze(f, flt, win)
        flt2 = build_filters(cube_box(1), 12)
        for j in win.levels():
            a = flt2.annulus(j)
            r = flt2.xi_norm.ravel()[a.idx]
            off = (r < 2.0 ** 5) | (r > 2.0 ** 7)
            flt2._annuli[j] = a._replace(phi=a.phi + np.where(off, 0.3 * np.sin(1.0 + r), 0.0))
        t_pert = analyze(f, flt2, win)
        worst = max(np.max(np.abs(t_ref.values[j] - t_pert.values[j]))
                    for j in win.levels())
        scale = max(np.max(np.abs(t_ref.values[j])) for j in win.levels())
        assert worst <= 1e-12 * scale


class TestFunctionNorms:
    def test_zero(self, flt):
        f = BandLimitedFunction(flt, np.zeros((2, flt.N), dtype=complex))
        window = CubeWindow(1, 4, 8, flt.box)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        assert function_norm(f, flt, params, None, window=window).value == 0.0

    def test_weight_vs_family_identity(self, flt):
        rng = np.random.default_rng(8)
        window = CubeWindow(1, 4, 8, flt.box)
        fam = identity_family(window, 2)
        params = SpaceParams(0.1, 0.2, 1.5, 2.0, "F")
        for _ in range(5):
            f = random_band_limited(flt, 2, rng)
            v1 = function_norm(f, flt, params, identity_weight(1, 2), window=window).value
            v2 = function_norm(f, flt, params, fam, window=window).value
            v3 = function_norm(f, flt, params, None, window=window).value
            assert v1 == pytest.approx(v3, rel=1e-12)
            assert v2 == pytest.approx(v3, rel=1e-12)

    def test_three_norm_equivalence(self, flt):
        # weight route, averaged route, and the cube-sup route stay comparable
        W = PowerLogWeight(1, 1, -0.5)
        window = CubeWindow(1, 4, 8, flt.box)
        fam = build_family(W, 2.0, window, method="exact_p2")
        params = SpaceParams(0.0, 0.25, 2.0, 2.0, "F")
        rng = np.random.default_rng(9)
        trips = []
        for _ in range(20):
            f = random_band_limited(flt, 1, rng)
            vw = function_norm(f, flt, params, W, window=window).value
            va = function_norm(f, flt, params, fam, window=window).value
            ps = peetre_sup(f, flt, fam, window)
            vp = seq_norm_from_cube_scalars(ps, params, window).value
            trips.append((vw, va, vp))
        trips = np.array(trips)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            r = trips[:, a] / trips[:, b]
            assert r.max() / r.min() <= 50.0
        # the cube-sup route dominates the averaged route pointwise
        assert np.all(trips[:, 2] >= trips[:, 1] * (1 - 1e-12))

    def test_supercritical_function_identity_one_sided(self, flt):
        # at (tau, q) = (1/p, inf) the four-parameter norm is dominated by the
        # shifted sup-type norm with constant one; sampled fields are not
        # level-constant, so the reverse holds only up to a stable factor
        window = CubeWindow(1, 4, 8, flt.box)
        fam = identity_family(window, 1)
        p = 2.0
        params = SpaceParams(0.3, 1.0 / p, p, math.inf, "F")
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(20):
            f = random_band_limited(flt, 1, rng)
            v_a = function_norm(f, flt, params, fam, window=window).value
            v_inf = finfty_function_norm(f, flt, 0.3, math.inf, fam, window=window).value
            assert v_a <= v_inf * (1 + 1e-12)
            ratios.append(v_a / v_inf)
        assert min(ratios) >= 0.2

    def test_finfty_definitional_identity_functions(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(11)
        q = 2.0
        for _ in range(5):
            f = random_band_limited(flt, 1, rng)
            v_inf = finfty_function_norm(f, flt, 0.1, q, None, window=window).value
            v_crit = function_norm(f, flt, SpaceParams(0.1, 1.0 / q, q, q, "F"),
                                   None, window=window).value
            assert v_inf == pytest.approx(v_crit, rel=1e-12)


class TestPeetre:
    def test_zero(self, flt):
        window = CubeWindow(1, 4, 7, flt.box)
        fam = identity_family(window, 1)
        f = BandLimitedFunction(flt, np.zeros((1, flt.N), dtype=complex))
        ps = peetre_sup(f, flt, fam, window)
        assert all(np.all(v == 0) for v in ps.values())

    def test_dominates_function_norm(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        fam = identity_family(window, 2)
        params = SpaceParams(0.1, 0.3, 1.5, 2.0, "B")
        rng = np.random.default_rng(12)
        ratios = []
        for _ in range(20):
            f = random_band_limited(flt, 2, rng)
            va = function_norm(f, flt, params, fam, window=window).value
            ps = peetre_sup(f, flt, fam, window)
            vp = seq_norm_from_cube_scalars(ps, params, window).value
            assert vp >= va * (1 - 1e-12)
            ratios.append(vp / va)
        assert max(ratios) <= 50.0


class TestLifting:
    def test_zero_exponent_identity(self, flt):
        rng = np.random.default_rng(13)
        f = random_band_limited(flt, 1, rng)
        g = lifting(f, 0.0)
        assert (g + f.scaled(-1)).sup_norm() <= 1e-12 * f.sup_norm()

    def test_roundtrip(self, flt):
        rng = np.random.default_rng(14)
        f = random_band_limited(flt, 2, rng)
        g = lifting(lifting(f, 0.7), -0.7)
        assert (g + f.scaled(-1)).sup_norm() <= 1e-10 * f.sup_norm()

    def test_nonzero_mean_rejected(self, flt):
        coeffs = np.zeros((1, flt.N), dtype=complex)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            lifting(BandLimitedFunction(flt, coeffs), 1.0)

    def test_norm_shift_equivalence(self, flt):
        # lifting by sigma matches the s -> s - sigma norm within a stable factor
        W = PowerLogWeight(1, 1, -0.4)
        window = CubeWindow(1, 4, 8, flt.box)
        sigma = 0.6
        params = SpaceParams(0.2, 0.25, 2.0, 2.0, "F")
        shifted = SpaceParams(0.2 - sigma, 0.25, 2.0, 2.0, "F")
        rng = np.random.default_rng(15)
        ratios = []
        for _ in range(20):
            f = random_band_limited(flt, 1, rng)
            v = function_norm(f, flt, params, W, window=window).value
            vl = function_norm(lifting(f, sigma), flt, shifted, W, window=window).value
            ratios.append(v / vl)
        assert max(ratios) / min(ratios) <= 50.0


class TestSeminorm:
    def test_matches_direct_grid_max_at_zero_order(self, flt):
        j_ref = flt.j_max - 2
        base = flt.phi_hat(j_ref)
        vals = np.fft.ifftn(base * flt._phase_mid) * flt.N
        pts = flt.box.lo_arr[0] + (np.arange(flt.N) + 0.5) * 2.0 ** -flt.grid_level
        direct = np.max(np.abs(vals) * (1 + 2.0 ** j_ref * np.abs(pts))) * 2.0 ** -j_ref
        assert schwartz_seminorm(flt, 0) == pytest.approx(float(direct), rel=1e-12)

    def test_monotone_in_order(self, flt):
        s = [schwartz_seminorm(flt, M) for M in (0, 1, 2)]
        assert s[0] <= s[1] <= s[2]

    def test_smoother_profile_smaller_seminorm(self):
        rough = build_filters(cube_box(1), 12, smoothness=3)
        smooth = build_filters(cube_box(1), 12, smoothness=8)
        assert schwartz_seminorm(smooth, 2) < schwartz_seminorm(rough, 2)


class TestPackageErrors:
    def test_adding_another_dimension_is_rejected(self, flt):
        rng = np.random.default_rng(16)
        f, g = random_band_limited(flt, 1, rng), random_band_limited(flt, 2, rng)
        for a, b in ((f, g), (g, f)):
            with pytest.raises(CoverageError):
                a + b

    def test_adding_another_grid_is_rejected(self, flt):
        other = build_filters(cube_box(1), 11)
        rng = np.random.default_rng(17)
        with pytest.raises(ResolutionError):
            random_band_limited(flt, 1, rng) + random_band_limited(other, 1, rng)

    def test_filters_on_another_grid_are_rejected(self, flt):
        other = build_filters(cube_box(1), 11)
        f = random_band_limited(other, 1, np.random.default_rng(18))
        window = CubeWindow(1, 4, 8, flt.box)
        fam = identity_family(window, 1)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        calls = (lambda: function_norm(f, flt, params, None, window=window),
                 lambda: finfty_function_norm(f, flt, 0.1, 2.0, None, window=window),
                 lambda: peetre_sup(f, flt, fam, window),
                 lambda: analyze(f, flt, window))
        for call in calls:
            with pytest.raises(ResolutionError):
                call()

    def test_filters_on_the_same_grid_are_accepted(self, flt):
        # another filter pair on the same grid reads the same coefficients
        rough = build_filters(cube_box(1), 12, smoothness=3)
        f = random_band_limited(flt, 1, np.random.default_rng(19))
        window = CubeWindow(1, 4, 8, flt.box)
        t = analyze(f, rough, window)
        assert synthesize(t, rough).m == 1

    def test_a_family_of_another_m_is_rejected(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(28)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        for m, fam_m in ((1, 2), (2, 1)):
            f = random_band_limited(flt, m, rng)
            t = CoefficientField.random(window, m, rng)
            fam = identity_family(window, fam_m)
            for call in (lambda: seq_norm(t, params, fam),
                         lambda: function_norm(f, flt, params, fam, window=window)):
                with pytest.raises(CoverageError):
                    call()

    def test_a_family_without_a_window_level_is_rejected(self):
        flt = build_filters(cube_box(1), 10)  # default window: levels 4-8
        fam = identity_family(CubeWindow(1, 4, 6, flt.box), 1)
        rng = np.random.default_rng(29)
        f = random_band_limited(flt, 1, rng)
        t = CoefficientField.random(CubeWindow(1, 3, 6, flt.box), 1, rng)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        with pytest.raises(CoverageError, match="level 7"):
            function_norm(f, flt, params, fam)
        with pytest.raises(CoverageError, match="level 3"):
            seq_norm(t, params, fam)

    def test_a_family_on_another_box_is_rejected(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        fam = identity_family(CubeWindow(1, 4, 8, Box((0.0,), (0.5,))), 1)
        rng = np.random.default_rng(34)
        f, t = random_band_limited(flt, 1, rng), CoefficientField.random(window, 1, rng)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        for call in (lambda: seq_norm(t, params, fam),
                     lambda: function_norm(f, flt, params, fam, window=window),
                     lambda: peetre_sup(f, flt, fam, window)):
            with pytest.raises(CoverageError):
                call()

    def test_window_on_another_box_is_rejected(self, flt):
        f = random_band_limited(flt, 1, np.random.default_rng(20))
        half = CubeWindow(1, 3, 5, Box((-0.5,), (0.0,)))
        fam = identity_family(half, 1)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        calls = (lambda: analyze(f, flt, half),
                 lambda: synthesize(CoefficientField(half, 1), flt),
                 lambda: function_norm(f, flt, params, None, window=half),
                 lambda: finfty_function_norm(f, flt, 0.1, 2.0, None, window=half),
                 lambda: peetre_sup(f, flt, fam, half))
        for call in calls:
            with pytest.raises(CoverageError):
                call()


PROPS = settings(max_examples=10, derandomize=True, deadline=None)

# grid level per dimension for the property tests
PROP_GRIDS = {1: 10, 2: 6}


@pytest.fixture(scope="module")
def prop_filters():
    return {n: build_filters(cube_box(n), level) for n, level in PROP_GRIDS.items()}


# grid levels per dimension for the annulus property, on boxes of side 1 and 2
ANNULUS_GRIDS = {1: (8, 10), 2: (5, 6)}


@pytest.fixture(scope="module")
def annulus_filters():
    return {(n, level, half): build_filters(cube_box(n, half), level)
            for n, levels in ANNULUS_GRIDS.items() for level in levels for half in (0.5, 1.0)}


def _dense_phi(flt, j):
    return bump_profile(flt.xi_norm / 2.0 ** j, flt.smoothness)


def _dense_psi(flt, j):
    denom = np.zeros_like(flt.xi_norm)
    for i in range(flt.j_min - 2, flt.j_max + 3):
        denom += bump_profile(flt.xi_norm / 2.0 ** i, flt.smoothness) ** 2
    phi = _dense_phi(flt, j)
    out = np.zeros_like(phi)
    mask = phi != 0.0
    out[mask] = phi[mask] / denom[mask]
    return out


def _corner_phase(flt):
    return np.exp(1j * sum(flt.xi[i] * flt.box.lo_arr[i] for i in range(flt.n)))


def _dense_analyze(f, flt, window):
    """Analysis on the whole grid: multiply by phi_hat_j, fold the spectrum
    onto the level's M^n lattice by a strided sum, inverse FFT."""
    n, values = flt.n, {}
    for j in window.levels():
        stride = 2 ** (flt.grid_level - j)
        M = flt.N // stride
        F = (f.coeffs * _dense_phi(flt, j)) * _corner_phase(flt)
        if stride > 1:
            F = F.reshape((f.m,) + (stride, M) * n).sum(axis=tuple(range(1, 2 * n, 2)))
        np.fft.ifftn(F, axes=tuple(range(1, n + 1)), out=F)
        F *= M ** n
        F *= 2.0 ** (-j * n / 2.0)
        values[j] = np.moveaxis(F, 0, -1)
    return values


def _dense_synthesize(t, flt):
    """Synthesis on the whole grid: each level's M^n-point spectrum repeated
    over the grid, times psi_hat_j."""
    n, side = flt.n, float(flt.box.sides[0])
    out = np.zeros((t.m,) + flt.xi_norm.shape, dtype=complex)
    for j in t.window.levels():
        stride = 2 ** (flt.grid_level - j)
        M = flt.N // stride
        F = np.moveaxis(t.values[j], -1, 0).copy()
        np.fft.fftn(F, axes=tuple(range(1, n + 1)), out=F)
        F = F.reshape((t.m,) + (1, M) * n)
        mult = (_dense_psi(flt, j) * np.conj(_corner_phase(flt))).reshape((stride, M) * n)
        mult *= 2.0 ** (-j * n / 2.0) / side ** n
        blocks = out.reshape((t.m,) + (stride, M) * n)
        for i in range(t.m):
            blocks[i] += F[i] * mult
    return out


class TestTransformProperties:
    @PROPS
    @given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_analysis_then_synthesis_is_exact(self, prop_filters, n, m, seed):
        flt = prop_filters[n]
        window = CubeWindow(n, flt.j_min, flt.j_max, flt.box)
        f = random_band_limited(flt, m, np.random.default_rng(seed))
        g = synthesize(analyze(f, flt, window), flt)
        assert g.m == m
        assert (g + f.scaled(-1.0)).sup_norm() <= 1e-12 * f.sup_norm()

    @PROPS
    @given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), finer=st.booleans(),
           half_side=st.sampled_from([0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1),
           full_band=st.booleans())
    def test_annulus_paths_equal_the_dense_formulas(self, annulus_filters, n, m, finer,
                                                    half_side, seed, full_band):
        flt = annulus_filters[n, ANNULUS_GRIDS[n][finer], half_side]
        window = CubeWindow(n, flt.j_min, flt.j_max, flt.box)
        rng = np.random.default_rng(seed)
        if full_band:  # every frequency of the grid, so every alias class is hit
            shape = (m,) + (flt.N,) * n
            f = BandLimitedFunction(flt, rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
        else:
            f = random_band_limited(flt, m, rng)
        for j in window.levels():
            assert np.array_equal(flt.phi_hat(j), _dense_phi(flt, j))
            assert np.array_equal(flt.psi_hat(j), _dense_psi(flt, j))
            fold = flt.annulus(j).fold
            assert np.unique(fold).size == fold.size  # one to one
        # equal as floats: at most the sign of an exact zero differs
        t, want = analyze(f, flt, window), _dense_analyze(f, flt, window)
        assert all(np.array_equal(t.values[j], want[j]) for j in window.levels())
        assert np.array_equal(synthesize(t, flt).coeffs, _dense_synthesize(t, flt))
        for j in window.levels():
            dense = BandLimitedFunction(flt, f.coeffs * _dense_phi(flt, j)).values()
            assert np.array_equal(convolve_scale(f, flt, j).values(), dense)
        # Poisson summation: the folded analysis is the full-grid inverse FFT
        # of phi_j f at the corners, read at the level's stride
        for j in window.levels():
            full = np.fft.ifftn(f.coeffs * _dense_phi(flt, j) * _corner_phase(flt),
                                axes=tuple(range(1, n + 1))) * flt.N ** n
            stride = 2 ** (flt.grid_level - j)
            strided = full[(slice(None),) + (slice(0, None, stride),) * n]
            got = np.moveaxis(t.values[j], -1, 0) * 2.0 ** (j * n / 2.0)
            assert np.max(np.abs(got - strided)) <= 1e-14 * max(np.max(np.abs(strided)), 1e-300)

    @PROPS
    @given(s=st.floats(-1.0, 1.0), tau=st.floats(0.0, 1.0), p=st.floats(0.5, 4.0),
           q=st.one_of(st.floats(0.5, 4.0), st.just(math.inf)), with_family=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_embedding_chain(self, flt, chain_family, s, tau, p, q, with_family, seed):
        window = chain_family.window
        fam = chain_family if with_family else None
        rng = np.random.default_rng(seed)
        f = random_band_limited(flt, 1, rng)
        t = CoefficientField.random(window, 1, rng)
        chain = (SpaceParams(s, tau, p, max(p, q), "B"), SpaceParams(s, tau, p, q, "F"),
                 SpaceParams(s, tau, p, min(p, q), "B"))
        for norm in (lambda prm: function_norm(f, flt, prm, fam, window=window),
                     lambda prm: seq_norm(t, prm, fam)):
            hi, mid, lo = (norm(prm).value for prm in chain)
            assert hi <= mid * (1 + 1e-12) and mid <= lo * (1 + 1e-12)


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("on_annulus", [True, False])
    @pytest.mark.parametrize("n, level", [(1, 10), (2, 6)])
    def test_one_gives_the_whole_grid_result(self, n, level, value, on_annulus):
        # phi_hat_j is 0 off its annulus and 0 times inf or nan is nan, so on
        # the whole grid one such coefficient makes its component nan at every
        # level, wherever it sits; the annulus paths must not drop it
        flt = build_filters(cube_box(n), level)
        window = CubeWindow(n, flt.j_min, flt.j_max, flt.box)
        coeffs = np.array(random_band_limited(flt, 2, np.random.default_rng(40)).coeffs)
        # the zero frequency is on no annulus
        pos = flt.annulus(flt.j_min + 2).idx[0] if on_annulus else 0
        coeffs.reshape(2, -1)[0, pos] = value
        f = BandLimitedFunction(flt, coeffs)
        assert not f.finite
        with np.errstate(invalid="ignore"):
            t, want = analyze(f, flt, window), _dense_analyze(f, flt, window)
            for j in window.levels():
                assert np.array_equal(t.values[j], want[j], equal_nan=True)
                assert np.isnan(t.values[j][..., 0]).all()
                assert np.isfinite(t.values[j][..., 1]).all()
            assert np.array_equal(synthesize(t, flt).coeffs, _dense_synthesize(t, flt),
                                  equal_nan=True)
            for j in window.levels():
                dense = BandLimitedFunction(flt, f.coeffs * _dense_phi(flt, j)).values()
                assert np.array_equal(convolve_scale(f, flt, j).values(), dense, equal_nan=True)
            norm_win = CubeWindow(n, *flt.safe_levels(), flt.box)
            norms = [function_norm(f, flt, SpaceParams(0.1, 0.2, 2.0, 2.0, kind), None,
                                   window=norm_win).value for kind in "BF"]
            norms.append(finfty_function_norm(f, flt, 0.1, 2.0, None, window=norm_win).value)
        assert all(math.isnan(v) for v in norms)

    def test_finite_coefficients_are_found_finite(self, flt):
        assert random_band_limited(flt, 2, np.random.default_rng(41)).finite


@pytest.fixture(scope="module")
def chain_family(flt):
    return build_family(PowerLogWeight(1, 1, -0.5), 2.0, CubeWindow(1, 4, 7, flt.box),
                        method="exact_p2")


def _fresh_fields(f, flt, window):
    return {j: convolve_scale(f, flt, j).values() for j in window.levels()}


def _kept_conv_fields(f, flt, window):
    """The convolution fields the filters keep for f after one norm."""
    _weighted_conv_fields(f, flt, window, None, 0.0)
    return flt._kept[f][1]


@pytest.fixture
def conv_calls(monkeypatch):
    """Counts the convolve_scale calls made through the module."""
    calls = []
    orig = transform.convolve_scale

    def counted(*args, **kwargs):
        calls.append(args[2])
        return orig(*args, **kwargs)

    monkeypatch.setattr(transform, "convolve_scale", counted)
    return calls


class TestConvolutionSlot:
    def test_hit_is_bitwise_a_fresh_computation(self, flt, conv_calls):
        window = CubeWindow(1, 4, 8, flt.box)
        f = random_band_limited(flt, 2, np.random.default_rng(21))
        first = _kept_conv_fields(f, flt, window)
        again = _kept_conv_fields(f, flt, window)
        assert again is first and len(conv_calls) == 5
        fresh = _fresh_fields(f, flt, window)
        assert all(np.array_equal(again[j], fresh[j]) for j in window.levels())

    def test_another_function_filters_or_levels_miss(self, flt, conv_calls):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(22)
        f = random_band_limited(flt, 1, rng)
        twin = BandLimitedFunction(flt, f.coeffs.copy())
        rough = build_filters(cube_box(1), 12, smoothness=3)
        for g, pair, win in ((twin, flt, window), (f, rough, window),
                             (f, flt, CubeWindow(1, 4, 7, flt.box))):
            base = _kept_conv_fields(f, flt, window)  # the filters now keep f's fields
            before = len(conv_calls)
            got = _kept_conv_fields(g, pair, win)
            assert len(conv_calls) == before + len(win.levels())
            fresh = _fresh_fields(g, pair, win)
            assert all(np.array_equal(got[j], fresh[j]) for j in win.levels())
        assert not np.array_equal(_kept_conv_fields(f, rough, window)[6], base[6])

    def test_coefficients_and_fields_are_read_only(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(23)
        given_array = rng.standard_normal((1, flt.N)) + 1j * rng.standard_normal((1, flt.N))
        f = BandLimitedFunction(flt, given_array)
        assert f.coeffs is given_array  # not copied
        for arr in (f.coeffs, given_array):
            with pytest.raises(ValueError):
                arr[0, 3] = 1.0
        with pytest.raises(FrozenInstanceError):
            f.coeffs = given_array.copy()
        fields = _kept_conv_fields(f, flt, window)
        for v in fields.values():
            with pytest.raises(ValueError):
                v[0, 0] = 0.0

    def test_view_is_copied(self, flt):
        rng = np.random.default_rng(24)
        base = rng.standard_normal((2, flt.N)) + 1j * rng.standard_normal((2, flt.N))
        f = BandLimitedFunction(flt, base[:1])
        base[0, 3] = 7.0  # the caller's array stays writable, the function does not see it
        assert f.coeffs[0, 3] != 7.0

    def test_slot_forgets_a_deleted_function(self, flt, conv_calls):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(25)
        f = random_band_limited(flt, 1, rng)
        field = weakref.ref(_kept_conv_fields(f, flt, window)[4])
        function_norm(f, flt, SpaceParams(0.1, 0.2, 2.0, 2.0, "F"), None, window=window)
        assert list(flt._kept) == [f]
        (length,) = (weakref.ref(lengths[4]) for _, lengths in flt._kept[f][2].values())
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None and field() is None and length() is None
        assert len(flt._kept) == 0
        g = random_band_limited(flt, 1, rng)
        before = len(conv_calls)
        _kept_conv_fields(g, flt, window)
        assert len(conv_calls) == before + 5

    def test_a_second_function_evicts_the_first_ones_lengths(self, flt):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(31)
        f, g = random_band_limited(flt, 2, rng), random_band_limited(flt, 2, rng)
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        function_norm(f, flt, params, PowerLogWeight(1, 2, -0.4), window=window)
        (old,) = (weakref.ref(lengths[4]) for _, lengths in flt._kept[f][2].values())
        function_norm(g, flt, params, None, window=window)
        assert old() is None and f.coeffs is not None  # f lives on, its lengths do not
        assert list(flt._kept) == [g] and len(flt._kept[g][2]) == 1

    def test_one_weighting_pass_per_weighting(self, flt, monkeypatch):
        passes = []
        orig = spaces._weighted_lengths
        monkeypatch.setattr(spaces, "_weighted_lengths", lambda vecs, weighting, *args:
                            passes.append(type(weighting).__name__) or orig(vecs, weighting, *args))
        window = CubeWindow(1, 4, 7, flt.box)
        weight = PowerLogWeight(1, 2, -0.4)
        fam = build_family(weight, 2.0, window, method="exact_p2")
        f = random_band_limited(flt, 2, np.random.default_rng(32))
        for prm in (SpaceParams(0.0, 0.0, 2.0, 2.0, "F"), SpaceParams(0.2, 0.3, 2.0, 1.5, "B"),
                    SpaceParams(-0.1, 0.5, 2.0, math.inf, "F")):
            for w in (weight, fam, None):
                function_norm(f, flt, prm, w, window=window)
            finfty_function_norm(f, flt, prm.s, prm.q, fam, window=window)
        peetre_sup(f, flt, fam, window)
        assert passes == ["PowerLogWeight", "ReducingFamily", "NoneType"]
        finfty_function_norm(f, flt, 0.0, 2.0, weight, p_weight=1.5, window=window)
        assert passes[3:] == ["PowerLogWeight"]  # another p_weight is another weighting

    def test_a_changed_weight_or_family_level_is_normed_afresh(self, flt):
        window = CubeWindow(1, 4, 7, flt.box)
        weight = PowerLogWeight(1, 2, -0.4)
        fam = build_family(weight, 2.0, window, method="exact_p2")
        f = random_band_limited(flt, 2, np.random.default_rng(33))
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        before = [function_norm(f, flt, params, w, window=window).value for w in (weight, fam)]
        weight.a = 0.3
        fam.mats[5] = 2.0 * fam.mats[5]
        after = [function_norm(f, flt, params, w, window=window).value for w in (weight, fam)]
        flt._kept.clear()
        cold = [function_norm(f, flt, params, w, window=window).value
                for w in (PowerLogWeight(1, 2, 0.3), fam)]
        assert after == cold and after[0] != before[0] and after[1] != before[1]

    def test_old_fields_die_before_new_ones_are_computed(self, flt, monkeypatch):
        window = CubeWindow(1, 4, 8, flt.box)
        rng = np.random.default_rng(27)
        f, g = random_band_limited(flt, 1, rng), random_band_limited(flt, 1, rng)
        old = weakref.ref(_kept_conv_fields(f, flt, window)[4])
        assert old() is not None
        orig = transform.convolve_scale

        def checked(*args, **kwargs):
            assert old() is None
            return orig(*args, **kwargs)

        monkeypatch.setattr(transform, "convolve_scale", checked)
        _kept_conv_fields(g, flt, window)
        assert f.coeffs is not None  # f stays alive throughout


@pytest.mark.parametrize("n,level,levels", [(1, 10, (4, 7)), (2, 6, (2, 3))])
@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_function_norms_scale_without_over_or_underflow(n, level, levels, scale):
    flt = build_filters(cube_box(n), level)
    window = CubeWindow(n, *levels, flt.box)
    weight = PowerLogWeight(n, 2, -0.4)
    fam = build_family(weight, 2.0, window, method="exact_p2")
    f = random_band_limited(flt, 2, np.random.default_rng(34))
    params = SpaceParams(0.2, 0.3, 2.0, 1.5, "B")
    for w in (None, fam, weight):
        want = function_norm(f, flt, params, w, window=window).value
        got = function_norm(f.scaled(scale), flt, params, w, window=window).value
        assert got / scale == pytest.approx(want, rel=1e-12, abs=0)
    sup, want = (peetre_sup(g, flt, fam, window) for g in (f.scaled(scale), f))
    assert all(np.allclose(sup[j] / scale, want[j], rtol=1e-12, atol=0) for j in want)


def test_one_convolution_pass_per_2d_draw(conv_calls, monkeypatch):
    """One 2-D draw of the norms_fft benchmark job: the reconstruction, the
    Peetre sup and the W and A norms at three parameter tuples. The
    convolution fields are computed once, and the FFT count stays at one per
    analysis level, one per synthesis level and one per field or sup norm."""
    ffts = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        orig = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _orig=orig, **k: ffts.append(1) or _orig(*a, **k))
    flt = build_filters(cube_box(2), 8)
    weight = PowerLogWeight(2, 2, -0.4)
    window = CubeWindow(2, 2, 3, flt.box)
    full = CubeWindow(2, flt.j_min, flt.j_max, flt.box)
    fam = build_family(weight, 2.0, window, method="exact_p2")
    rng = np.random.default_rng(26)
    f = random_band_limited(flt, 2, rng, band=flt.safe_band)
    ffts.clear()
    g = synthesize(analyze(f, flt, full), flt)
    assert (g + f.scaled(-1.0)).sup_norm() <= 1e-8 * f.sup_norm()
    peetre_sup(f, flt, fam, window)
    for prm in (SpaceParams(0.0, 0.0, 2.0, 2.0, "F"), SpaceParams(0.2, 0.3, 2.0, 1.5, "B"),
                SpaceParams(-0.1, 0.5, 2.0, math.inf, "F")):
        function_norm(f, flt, prm, weight, window=window)
        function_norm(f, flt, prm, fam, window=window)
    assert sorted(conv_calls) == list(window.levels())
    assert len(ffts) == 2 * len(full.levels()) + 2 + len(window.levels())


# grid level and window levels per dimension for the length cache property
CACHE_GRIDS = {1: (10, (4, 7)), 2: (6, (2, 3))}


@pytest.fixture(scope="module")
def cache_setups():
    out = {}
    for n, (level, (lo, hi)) in CACHE_GRIDS.items():
        flt = build_filters(cube_box(n), level)
        window = CubeWindow(n, lo, hi, flt.box)
        weight = (ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3))
                  if n == 1 else PowerLogWeight(2, 2, -0.4))
        fam = build_family(weight, 2.0, window, method="exact_p2")
        out[n] = flt, window, {"weight": weight, "family": fam, "none": None}
    return out


_calls = st.lists(st.tuples(st.sampled_from(["norm", "finfty", "peetre"]),
                            st.sampled_from(["weight", "family", "none"]),
                            st.sampled_from([1.5, 2.0]), st.floats(-0.5, 0.5),
                            st.integers(0, 1)), min_size=1, max_size=8)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.sampled_from([1, 2]), calls=_calls, seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, calls=[("norm", "weight", 1.5, 0.1, 0), ("finfty", "weight", 2.0, -0.2, 0),
                     ("peetre", "family", 2.0, 0.0, 1), ("norm", "family", 2.0, 0.3, 1),
                     ("norm", "weight", 1.5, 0.0, 0)], seed=0)
def test_cached_lengths_give_the_cold_values(cache_setups, n, calls, seed):
    """Interleaved norms of two functions under every weighting, p_weight and
    s equal, bit for bit, the same norms each computed with nothing kept."""
    flt, window, weightings = cache_setups[n]
    rng = np.random.default_rng(seed)
    fs = [random_band_limited(flt, 2, rng) for _ in range(2)]

    def value(kind, name, p_weight, s, i):
        w = weightings[name]
        if kind == "norm":
            prm = SpaceParams(s, 0.2, 2.0, 1.5, "B")
            return function_norm(fs[i], flt, prm, w, p_weight, window).value
        if kind == "finfty":
            return finfty_function_norm(fs[i], flt, s, 2.0, w, p_weight, window).value
        return peetre_sup(fs[i], flt, None if name == "weight" else w, window)

    warm = [value(*call) for call in calls]
    for call, got in zip(calls, warm):
        flt._kept.clear()
        cold = value(*call)
        if isinstance(cold, dict):
            assert cold.keys() == got.keys()
            assert all(np.array_equal(cold[j], got[j]) for j in cold)
        else:
            assert np.array_equal(cold, got)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matweight import spaces
from matweight.errors import CoverageError
from matweight.geometry import Box, CubeWindow, DyadicCube
from matweight.reducing import build_family, identity_family
from matweight.spaces import (CoefficientField, SpaceParams, classify,
                              cube_scalar_sequence, finfty_norm,
                              left_half_mask, maximal_sequence, seq_norm,
                              seq_norm_from_cube_scalars)
from matweight.weights import PowerLogWeight, identity_weight

WIN = CubeWindow(1, 1, 6)


@pytest.fixture(scope="module")
def fam():
    return identity_family(WIN, 2)


@pytest.fixture(scope="module")
def families(fam):
    return fam, build_family(PowerLogWeight(1, 2, -0.4), 2.0, CubeWindow(1, 2, 6),
                             method="exact_p2")


class TestAtoms:
    @pytest.mark.parametrize("kind,s,tau,p,q", [
        ("B", 0.3, 0.1, 2.0, 3.0),
        ("F", 0.0, 0.25, 0.5, 1.0),
        ("B", -0.2, 0.4, 1.0, math.inf),
    ])
    def test_closed_form(self, fam, kind, s, tau, p, q):
        Q0 = DyadicCube(3, (2,))
        t = CoefficientField.atom(WIN, 2, Q0, [0.0, 1.0])
        res = seq_norm(t, SpaceParams(s, tau, p, q, kind), fam)
        expected = 2.0 ** (Q0.j * s) * Q0.volume ** (1.0 / p - 0.5 - tau)
        assert res.value == pytest.approx(expected, rel=1e-12)
        # for tau > 0 the supremum must sit on the atom's own cube
        assert res.argmax_level == Q0.j

    def test_finfty_atom(self, fam):
        Q0 = DyadicCube(4, (3,))
        s = 0.2
        t = CoefficientField.atom(WIN, 2, Q0, [1.0, 0.0])
        val = finfty_norm(t, s, math.inf, fam).value
        expected = 2.0 ** (Q0.j * (s + 0.5))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_zero_field(self, fam):
        t = CoefficientField(WIN, 2)
        assert seq_norm(t, SpaceParams(0, 0, 2, 2, "F"), fam).value == 0.0
        assert finfty_norm(t, 0.0, 2.0, fam).value == 0.0


class TestWeightings:
    def test_three_routes_agree_for_identity(self, fam):
        rng = np.random.default_rng(0)
        t = CoefficientField.random(WIN, 2, rng)
        params = SpaceParams(0.2, 0.15, 1.5, 2.5, "F")
        v_none = seq_norm(t, params, None).value
        v_fam = seq_norm(t, params, fam).value
        v_w = seq_norm(t, params, identity_weight(1, 2)).value
        assert v_fam == pytest.approx(v_none, rel=1e-12)
        assert v_w == pytest.approx(v_none, rel=1e-12)

    def test_weight_vs_family_ratio_stable(self):
        # the W-route and the averaged route are equivalent norms
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 5)
        family = build_family(W, 2.0, win, method="exact_p2")
        params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(100):
            t = CoefficientField.random(win, 1, rng)
            vw = seq_norm(t, params, W).value
            va = seq_norm(t, params, family).value
            ratios.append(vw / va)
        spread = max(ratios) / min(ratios)
        assert spread <= 50.0


class TestChainsAndIdentities:
    def test_embedding_chain_zero_violations(self, fam):
        rng = np.random.default_rng(2)
        for s, tau, p, q in [(0.0, 0.0, 2.0, 2.0), (0.1, 0.3, 0.7, 2.2),
                             (0.2, 0.5, 3.0, 0.6)]:
            for _ in range(100):
                t = CoefficientField.random(WIN, 2, rng)
                hi = seq_norm(t, SpaceParams(s, tau, p, max(p, q), "B"), fam).value
                mid = seq_norm(t, SpaceParams(s, tau, p, q, "F"), fam).value
                lo = seq_norm(t, SpaceParams(s, tau, p, min(p, q), "B"), fam).value
                assert hi <= mid * (1 + 1e-12) <= lo * (1 + 1e-12) ** 2

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["B", "F"])
    def test_supercritical_equality_exact(self, fam, p, kind):
        rng = np.random.default_rng(3)
        params = SpaceParams(0.3, 1.0 / p, p, math.inf, kind)
        for _ in range(20):
            t = CoefficientField.random(WIN, 2, rng)
            a_val = seq_norm(t, params, fam).value
            f_val = finfty_norm(t, 0.3, math.inf, fam).value
            assert a_val == pytest.approx(f_val, rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 2.0, 7.0])
    def test_lf_definitional_identity(self, fam, q):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = CoefficientField.random(WIN, 2, rng)
            v_inf = finfty_norm(t, 0.1, q, fam).value
            v_crit = seq_norm(t, SpaceParams(0.1, 1.0 / q, q, q, "F"), fam).value
            assert v_inf == pytest.approx(v_crit, rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 2.0, 7.0])
    def test_lf_definitional_identity_with_a_matrix_weight(self, q):
        window = CubeWindow(1, 2, 4)
        weight = PowerLogWeight(1, 2, -0.4)
        rng = np.random.default_rng(16)
        for _ in range(5):
            t = CoefficientField.random(window, 2, rng)
            v_inf = finfty_norm(t, 0.1, q, weight).value
            v_crit = seq_norm(t, SpaceParams(0.1, 1.0 / q, q, q, "F"), weight, p_weight=2.0).value
            assert v_inf == pytest.approx(v_crit, rel=1e-12)

    def test_b_equals_f_at_equal_exponents(self, fam):
        rng = np.random.default_rng(5)
        t = CoefficientField.random(WIN, 2, rng)
        for p in (0.5, 1.7):
            vb = seq_norm(t, SpaceParams(0.1, 0.2, p, p, "B"), fam).value
            vf = seq_norm(t, SpaceParams(0.1, 0.2, p, p, "F"), fam).value
            assert vb == pytest.approx(vf, rel=1e-12)

    def test_sup_scale_vs_critical_tau_ratio_bounded(self, fam):
        rng = np.random.default_rng(6)
        ratios = []
        q = 2.0
        for _ in range(50):
            t = CoefficientField.random(WIN, 2, rng)
            v_inf = finfty_norm(t, 0.1, q, fam).value
            v_crit = seq_norm(t, SpaceParams(0.1, 0.5, 2.0, q, "F"), fam).value
            ratios.append(v_inf / v_crit)
        assert max(ratios) / min(ratios) <= 50.0

    @pytest.mark.parametrize("which", [0, 1])
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(s=st.floats(-0.5, 0.5), p=st.floats(0.5, 4.0), tau_gap=st.floats(-1.0, 1.0),
           q=st.floats(0.5, 6.0),
           kind=st.sampled_from(["B", "F"]), seed=st.integers(0, 2 ** 16))
    def test_identities_property(self, families, which, s, p, tau_gap, q, kind, seed):
        fam = families[which]
        t = CoefficientField.random(fam.window, 2, np.random.default_rng(seed))
        n = fam.window.n
        tau = max(0.0, 1.0 / p + tau_gap)
        if tau > 1.0 / p:
            # two-sided supercritical bound against the p = infinity F-norm
            gap = n * q * (tau - 1.0 / p)
            upper = (-1.0 / math.expm1(-gap * math.log(2.0))) ** (1.0 / q)
            a_val = seq_norm(t, SpaceParams(s, tau, p, q, kind), fam).value
            f_val = finfty_norm(t, s + n * (tau - 1.0 / p), math.inf, fam).value
            assert f_val <= a_val * (1 + 1e-10)
            assert a_val <= upper * f_val * (1 + 1e-10)
        vb = seq_norm(t, SpaceParams(s, tau, p, p, "B"), fam).value
        vf = seq_norm(t, SpaceParams(s, tau, p, p, "F"), fam).value
        assert vf == pytest.approx(vb, rel=1e-12)
        # at p = q = infinity the B and F aggregations are the same supremum
        vb = seq_norm(t, SpaceParams(s, 0.0, math.inf, math.inf, "B"), fam).value
        assert finfty_norm(t, s, math.inf, fam).value == pytest.approx(vb, rel=1e-12)


class TestNormAxioms:
    def test_homogeneity(self, fam):
        rng = np.random.default_rng(8)
        t = CoefficientField.random(WIN, 2, rng)
        params = SpaceParams(0.1, 0.3, 0.8, 1.5, "F")
        v = seq_norm(t, params, fam).value
        v3 = seq_norm(t.scaled(3.5), params, fam).value
        assert v3 == pytest.approx(3.5 * v, rel=1e-12)

    def test_quasi_triangle(self, fam):
        rng = np.random.default_rng(9)
        for s, tau, p, q in [(0.0, 0.2, 2.0, 2.0), (0.1, 0.3, 0.6, 1.4),
                             (0.0, 0.0, 1.5, 0.7)]:
            params = SpaceParams(s, tau, p, q, "F")
            kappa = min(1.0, p, q)
            for _ in range(20):
                t = CoefficientField.random(WIN, 2, rng)
                u = CoefficientField.random(WIN, 2, rng)
                lhs = seq_norm(t + u, params, fam).value ** kappa
                rhs = (seq_norm(t, params, fam).value ** kappa
                       + seq_norm(u, params, fam).value ** kappa)
                assert lhs <= rhs * (1 + 1e-9)

    def test_a_nan_coefficient_gives_nan(self):
        # with one level-3 entry nan the norms read 6.6473 (B and F) and 15.27
        # when the largest length is taken by Python's max, which drops a nan
        # compared against another level's maximum
        t = CoefficientField.random(CubeWindow(1, 2, 4), 2, np.random.default_rng(1))
        t = t.set_cube(DyadicCube(3, (1,)), [math.nan, 0.0])
        norms = [seq_norm(t, SpaceParams(0.1, 0.2, 2.0, 2.0, kind)).value for kind in "BF"]
        norms.append(finfty_norm(t, 0.1, 2.0).value)
        assert all(math.isnan(v) for v in norms)

    def test_an_inf_coefficient_gives_inf(self):
        t = CoefficientField.random(CubeWindow(1, 2, 4), 2, np.random.default_rng(1))
        t = t.set_cube(DyadicCube(3, (1,)), [math.inf, 0.0])
        norms = [seq_norm(t, SpaceParams(0.1, 0.2, 2.0, 2.0, kind)).value for kind in "BF"]
        norms.append(finfty_norm(t, 0.1, 2.0).value)
        assert norms == [math.inf] * 3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_a_nan_field_gives_nan_and_an_inf_gives_inf(self, value, level):
        # whichever level holds it, before or after the largest finite one
        win = CubeWindow(1, 2, 4)
        fields = {j: np.full(16, 2.0 - j) for j in win.levels()}
        fields[level][5] = value
        norms = [spaces.la_tau_norm(fields, SpaceParams(0.1, 0.2, 2.0, q, kind), win, 4).value
                 for kind in "BF" for q in (2.0, math.inf)]
        norms += [spaces.finfty_norm_fields(fields, q, win, 4).value for q in (2.0, math.inf)]
        if math.isnan(value):
            assert all(math.isnan(v) for v in norms)
        else:
            assert norms == [math.inf] * 6

    def test_adding_another_dimension_is_rejected(self):
        rng = np.random.default_rng(12)
        t, u = CoefficientField.random(WIN, 1, rng), CoefficientField.random(WIN, 2, rng)
        for a, b in ((t, u), (u, t)):
            with pytest.raises(CoverageError):
                a + b

    def test_adding_another_window_is_rejected(self):
        rng = np.random.default_rng(13)
        t = CoefficientField.random(WIN, 2, rng)
        shifted = CubeWindow(1, 1, 6, Box((1.0,), (2.0,)))  # same cube counts as WIN
        for other in (CubeWindow(1, 2, 6), CubeWindow(1, 1, 7), shifted):
            u = CoefficientField.random(other, 2, rng)
            for a, b in ((t, u), (u, t)):
                with pytest.raises(CoverageError):
                    a + b

    def test_window_monotonicity(self):
        rng = np.random.default_rng(10)
        small = CubeWindow(1, 2, 4)
        big = CubeWindow(1, 1, 5)
        fam_small = identity_family(small, 1)
        fam_big = identity_family(big, 1)
        params = SpaceParams(0.1, 0.4, 1.2, 2.0, "B")
        for _ in range(20):
            t_small = CoefficientField.random(small, 1, rng)
            t_big = CoefficientField(big, 1, {j: t_small.values[j] for j in small.levels()})
            v_small = seq_norm(t_small, params, fam_small).value
            v_big = seq_norm(t_big, params, fam_big).value
            assert v_big >= v_small * (1 - 1e-12)

    def test_selected_set_robustness(self, fam):
        # halving every cube's indicator changes the F-norm by a stable factor
        rng = np.random.default_rng(11)
        params = SpaceParams(0.1, 0.2, 2.0, 1.5, "F")
        grid_level = WIN.j_max + 1
        mask = left_half_mask(WIN, grid_level)
        ratios = []
        for _ in range(30):
            t = CoefficientField.random(WIN, 2, rng)
            full = seq_norm(t, params, fam, grid_level=grid_level).value
            half = seq_norm(t, params, fam, grid_level=grid_level,
                            selected_mask=mask).value
            ratios.append(half / full)
        assert all(0.05 <= r <= 1.0 + 1e-12 for r in ratios)
        assert max(ratios) / min(ratios) <= 4.0


class _Undescribed(PowerLogWeight):
    """A weight without a descriptor, whose lengths are never kept."""

    def descriptor(self):
        raise NotImplementedError


class TestFieldLengths:
    def test_a_field_never_changes(self):
        values = {3: np.ones((8, 2), dtype=complex)}
        t = CoefficientField.random(WIN, 2, np.random.default_rng(40))
        u = CoefficientField(WIN, 2, values)
        assert u.values[3] is values[3]  # locked in place, not copied
        for field in (t, u, t + u, t.scaled(2.0), t.set_cube(DyadicCube(3, (2,)), [1.0, 0.0])):
            for v in field.values.values():
                with pytest.raises(ValueError):
                    v[...] = 0.0
        atom = u.set_cube(DyadicCube(3, (2,)), [5.0, 0.0])
        assert u.cube_value(DyadicCube(3, (2,)))[0] == 1.0
        assert atom.cube_value(DyadicCube(3, (2,)))[0] == 5.0

    def test_a_level_cannot_be_replaced_under_its_kept_lengths(self):
        t = CoefficientField.random(WIN, 2, np.random.default_rng(43))
        params = SpaceParams(0.2, 0.3, 2.0, 1.5, "B")
        seq_norm(t, params)
        with pytest.raises(TypeError):
            t.values[4] = np.zeros_like(t.values[4])
        assert seq_norm(t, params).value == seq_norm(CoefficientField(WIN, 2, t.values),
                                                     params).value

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    def test_norms_scale_without_over_or_underflow(self, families, scale):
        """|Q|^(-1/2) |A_Q t_Q| squares no raw component, so every norm of a
        scaled field is the scaled norm, with no overflow warning."""
        fam = families[1]
        t = CoefficientField.random(fam.window, 2, np.random.default_rng(44))
        params = SpaceParams(0.2, 0.3, 2.0, 1.5, "F")
        for w in (None, fam, PowerLogWeight(1, 2, -0.4)):
            want = seq_norm(t, params, w).value
            assert seq_norm(t.scaled(scale), params, w).value / scale == pytest.approx(
                want, rel=1e-12, abs=0)
        want = finfty_norm(t, 0.1, 2.0, fam).value
        assert finfty_norm(t.scaled(scale), 0.1, 2.0, fam).value / scale == pytest.approx(
            want, rel=1e-12, abs=0)

    def test_kept_lengths_give_a_fresh_fields_values(self, families):
        """Norms of one field under interleaved weightings, p_weight values
        (through seq_norm) and grid levels equal, bit for bit, those of a
        fresh field with no kept lengths, also on a second pass that reads
        every kept entry and after the weights change."""
        window = families[1].window
        weight = PowerLogWeight(1, 2, -0.4)
        weightings = [(families[1], None, None), (identity_family(window, 2), None, None),
                      (None, None, None), (weight, 1.5, None), (weight, 2.0, None),
                      (weight, 1.5, window.j_max + 3), (weight, 2.0, window.j_max + 3),
                      (_Undescribed(1, 2, -0.4), 2.0, None), (families[1], None, window.j_max + 1)]
        params = [SpaceParams(0.2, 0.3, 2.0, 1.5, "B"), SpaceParams(-0.1, 0.5, 2.0, math.inf, "F")]

        def values(field, w, p_weight, grid_level):
            out = [seq_norm(field, prm, w, p_weight, grid_level).value for prm in params]
            out.append(finfty_norm(field, 0.1, 2.0, w, grid_level).value)
            return out

        t = CoefficientField.random(window, 2, np.random.default_rng(41))
        for rerun in range(3):
            if rerun == 2:
                weight.a = weightings[7][0].a = 0.3
            for w in weightings:
                got = values(t, *w)
                want = values(CoefficientField(window, 2, t.values), *w)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_one_weighting_pass_for_a_norms_job(self, families, monkeypatch):
        """The sequence norms of one norms_fft benchmark job: the embedding
        chain at three parameter tuples, the critical F-norm and the
        F-infinity norm of one field under one family."""
        passes = []
        orig = spaces._weighted_lengths
        monkeypatch.setattr(spaces, "_weighted_lengths",
                            lambda *args: passes.append(1) or orig(*args))
        fam = families[1]
        t = CoefficientField.random(fam.window, 2, np.random.default_rng(42))
        for prm in (SpaceParams(0.0, 0.0, 2.0, 2.0, "F"), SpaceParams(0.2, 0.3, 2.0, 1.5, "B"),
                    SpaceParams(-0.1, 0.5, 2.0, math.inf, "F")):
            for q, kind in ((max(prm.p, prm.q), "B"), (prm.q, "F"), (min(prm.p, prm.q), "B")):
                seq_norm(t, SpaceParams(prm.s, prm.tau, prm.p, q, kind), fam)
        seq_norm(t, SpaceParams(0.1, 0.5, 2.0, 2.0, "F"), fam)
        finfty_norm(t, 0.1, 2.0, fam)
        assert len(passes) == 1


class TestMaximalSequence:
    def test_single_atom_formula(self, fam):
        Q0 = DyadicCube(3, (2,))
        t = CoefficientField.atom(WIN, 2, Q0, [1.0, 0.0])
        seq = cube_scalar_sequence(t, fam)
        lam = 3.0
        star = maximal_sequence(seq, WIN, 1.0, lam)
        own = star[3][WIN.index(Q0)]
        nbr = star[3][WIN.index(DyadicCube(3, (3,)))]
        assert own == pytest.approx(1.0)
        assert nbr == pytest.approx((1.0 + 1.0) ** -lam)

    def test_large_lambda_recovers_values(self, fam):
        rng = np.random.default_rng(12)
        t = CoefficientField.random(WIN, 2, rng)
        seq = cube_scalar_sequence(t, fam)
        star = maximal_sequence(seq, WIN, 1.0, 500.0)
        for j in WIN.levels():
            assert np.allclose(star[j], np.abs(seq[j]), rtol=1e-8)

    def test_dominates_values_and_infinite_r(self, fam):
        rng = np.random.default_rng(13)
        t = CoefficientField.random(WIN, 2, rng)
        seq = cube_scalar_sequence(t, fam)
        star = maximal_sequence(seq, WIN, 1.0, 2.0)
        star_inf = maximal_sequence(seq, WIN, math.inf, 2.0)
        for j in WIN.levels():
            assert np.all(star[j] >= np.abs(seq[j]) - 1e-12)
            assert np.all(star_inf[j] >= np.abs(seq[j]) - 1e-12)

    def test_norm_equivalence_statistics(self, fam):
        # replacing |t_Q| by the lambda-weighted same-scale aggregation keeps
        # the norm within a stable two-sided factor
        rng = np.random.default_rng(14)
        params = SpaceParams(0.0, 0.2, 2.0, 2.0, "F")
        lam = 2.0
        ratios = []
        for _ in range(30):
            t = CoefficientField.random(WIN, 2, rng)
            seq = cube_scalar_sequence(t, fam)
            star = maximal_sequence(seq, WIN, min(params.p, params.q), lam)
            v_plain = seq_norm_from_cube_scalars(seq, params, WIN).value
            v_star = seq_norm_from_cube_scalars(star, params, WIN).value
            ratios.append(v_star / v_plain)
        assert all(1.0 - 1e-12 <= r <= 10.0 for r in ratios)
        assert max(ratios) / min(ratios) <= 4.0


class TestClassify:
    def test_examples(self):
        assert classify(SpaceParams(0, 1.0, 2.0, 2.0, "F")).cls == "supercritical"
        assert classify(SpaceParams(0, 0.5, 2.0, 3.0, "F")).cls == "critical"
        assert classify(SpaceParams(0, 0.0, 2.0, 2.0, "B")).cls == "subcritical"

    def test_boundary_cases(self):
        assert classify(SpaceParams(0, 0.5, 2.0, math.inf, "B")).cls == "supercritical"
        assert classify(SpaceParams(0, 0.5, 2.0, 3.0, "B")).cls == "subcritical"
        assert classify(SpaceParams(0, 0.0, math.inf, 3.0, "B")).cls == "subcritical"
        assert classify(SpaceParams(0, 0.0, math.inf, math.inf, "B")).cls == "supercritical"

    def test_b_f_coincide_at_infinity_marker(self, fam):
        # LB(inf, inf) and LF(inf, inf) aggregations are the same supremum
        rng = np.random.default_rng(15)
        t = CoefficientField.random(WIN, 2, rng)
        vb = seq_norm(t, SpaceParams(0.1, 0.0, math.inf, math.inf, "B"), fam).value
        vf = finfty_norm(t, 0.1, math.inf, fam).value
        assert vb == pytest.approx(vf, rel=1e-12)

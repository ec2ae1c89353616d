"""Planar (n = 2) coverage of the main pipelines."""

import math

import numpy as np
import pytest

import matweight.apdim as apdim
from matweight.geometry import CubeWindow, DyadicCube
from matweight.quad import QuadSpec
from matweight.reducing import identity_family, reduce_operator, verify_reducing
from matweight.spaces import (CoefficientField, SpaceParams,
                              cube_scalar_sequence, finfty_norm,
                              maximal_sequence, seq_norm)
from matweight.weights import PowerLogWeight, ap_constant


def test_ap_constant_plane():
    W = PowerLogWeight(2, 2, -0.8)  # integrable: a > -n
    win = CubeWindow(2, 1, 3)
    ap = ap_constant(W, 2.0, win, qspec=QuadSpec(base_depth=2, grade_depth=16))
    assert np.isfinite(ap.value) and ap.value >= 1.0 - 1e-6


def test_reduce_scalar_weight_is_exact():
    W = PowerLogWeight(2, 2, -0.8)
    Q = CubeWindow(2, 1, 3).cubes_at_level(1)[0]
    A = reduce_operator(W, 2.0, Q)
    lo, hi = verify_reducing(A, W, 2.0, Q, include_matrices=False)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_atom_closed_form_plane():
    win = CubeWindow(2, 1, 4)
    fam = identity_family(win, 2)
    Q0 = DyadicCube(2, (1, -2))
    t = CoefficientField(win, 2).set_cube(Q0, [1.0, 1.0j])
    params = SpaceParams(0.3, 0.2, 1.5, 2.0, "F")
    val = seq_norm(t, params, fam).value
    expect = (2.0 ** (Q0.j * 0.3) * np.sqrt(2.0)
              * Q0.volume ** (1 / 1.5 - 0.5 - 0.2))
    assert val == pytest.approx(expect, rel=1e-12)


def test_supercritical_equality_plane():
    win = CubeWindow(2, 1, 4)
    fam = identity_family(win, 2)
    rng = np.random.default_rng(0)
    t = CoefficientField.random(win, 2, rng)
    for p in (0.5, 2.0):
        va = seq_norm(t, SpaceParams(0.1, 1.0 / p, p, math.inf, "B"), fam).value
        vf = finfty_norm(t, 0.1, math.inf, fam).value
        assert va == pytest.approx(vf, rel=1e-12)


def test_maximal_sequence_plane():
    win = CubeWindow(2, 1, 4)
    fam = identity_family(win, 2)
    rng = np.random.default_rng(1)
    t = CoefficientField.random(win, 2, rng)
    seq = cube_scalar_sequence(t, fam)
    star = maximal_sequence(seq, win, 1.0, 5.0)
    for j in win.levels():
        assert np.all(star[j] >= seq[j] - 1e-12)


def test_dimension_probe_plane():
    # coarse windowed probe still sees most of the growth exponent
    cfg = apdim.ApDimConfig(i_max=3, domain_half=8.0, window_levels=(0, 0),
                            abut_levels=(0, 4), base_depth=3, grade_depth=10)
    vals, i_eff, _ = apdim.a_sequence(PowerLogWeight(2, 1, -0.8), 2.0, config=cfg)
    d, _, _ = apdim.fit_growth(vals, 1)
    assert 0.4 <= d <= 1.0

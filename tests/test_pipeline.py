"""Cross-module pipelines: grid-sampled weights end to end, general-p duals."""

import numpy as np
import pytest

from matweight import linalg
from matweight.dyadic import grid_points
from matweight.geometry import CubeWindow, DyadicCube, cube_box
from matweight.quad import QuadSpec
from matweight.reducing import (build_family, dual_reduce, integrability_probe,
                                reduce_operator)
from matweight.spaces import CoefficientField, SpaceParams, seq_norm
from matweight.weights import (ConjugatedBlockWeight, GridSampledWeight,
                               PowerLogWeight, ap_constant)


@pytest.fixture(scope="module")
def analytic():
    return ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                 PowerLogWeight(1, 1, 0.3))


@pytest.fixture(scope="module")
def sampled(analytic):
    box = cube_box(1)
    pts = grid_points(box, 8)
    samples = analytic.power_at(pts, 1.0).reshape(256, 2, 2)
    return GridSampledWeight(box, samples)


def test_sampled_ap_close_to_analytic(analytic, sampled):
    win = CubeWindow(1, 1, 3)
    ap_s = ap_constant(sampled, 2.0, win, qspec=QuadSpec(base_depth=3, grade_depth=12)).value
    ap_a = ap_constant(analytic, 2.0, win, qspec=QuadSpec(base_depth=3, grade_depth=20)).value
    assert ap_s == pytest.approx(ap_a, rel=0.25)


def test_sampled_family_brackets(sampled):
    win = CubeWindow(1, 1, 3)
    fam = build_family(sampled, 2.0, win, method="exact_p2")
    lo, hi = fam.worst_bracket()
    assert 0.1 <= lo <= hi <= 10.0


def test_sampled_seq_norm_close_to_analytic(analytic, sampled):
    win = CubeWindow(1, 1, 3)
    rng = np.random.default_rng(0)
    params = SpaceParams(0.1, 0.2, 2.0, 2.0, "F")
    for _ in range(5):
        t = CoefficientField.random(win, 2, rng)
        v_s = seq_norm(t, params, sampled).value
        v_a = seq_norm(t, params, analytic).value
        assert v_s == pytest.approx(v_a, rel=0.1)


def test_dual_reduce_general_p(analytic):
    Q = DyadicCube(1, (0,))
    A = reduce_operator(analytic, 1.5, Q, method="mvee", K=96)
    At = dual_reduce(analytic, 1.5, Q, method="mvee", K=96)
    prod = float(linalg.op_norm(A @ At))
    assert 0.3 <= prod <= 10.0


def test_matrix_weight_probe_stability(analytic):
    # both branch exponents keep ||A W^(-1/p)||^r and ||W^(1/p) A^(-1)||^r
    # integrable for r <= 4 here
    win = CubeWindow(1, 1, 2)
    fam = build_family(analytic, 2.0, win, method="exact_p2")
    tab = integrability_probe(analytic, 2.0, fam, win, [1.0, 2.0, 4.0])
    assert all(row.forward_ok and row.backward_ok for row in tab.rows)
    assert tab.stable_r == pytest.approx(4.0)

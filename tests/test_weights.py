import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matweight import linalg, weights
from matweight.errors import (IntegrabilityError, InvalidExponentError,
                              InvalidVariantError, InvalidWeightError, SingularityError)
from matweight.geometry import Box, CubeWindow, DyadicCube, cube_box, dilated_boxes
from matweight.quad import QuadSpec, average_box, box_nodes
from matweight.reducing import CubeNorm, unit_directions
from matweight.weights import (ConjugatedBlockWeight, ConstantWeight,
                               GridSampledWeight, PowerLogWeight, ProductPowerWeight,
                               ap_constant, cube_average,
                               cube_average_matrix_norm, dual_weight,
                               identity_weight, two_singularity,
                               weight_from_descriptor)


def conjugated_block():
    return ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                 PowerLogWeight(1, 1, 0.3))


class TestEvaluate:
    def test_power_log_trivial(self):
        W = PowerLogWeight(1, 2, 0.0, 0.0)
        assert np.allclose(W.evaluate([0.37]), np.eye(2))

    def test_power_log_at_four(self):
        W = PowerLogWeight(1, 2, -0.5)
        assert np.allclose(W.evaluate([4.0]), 0.5 * np.eye(2))

    def test_two_singularity_formula(self):
        W = two_singularity(0.4, 0.3, 2.0)
        x = 0.1
        expected = abs(x) ** -0.4 * abs(x - 0.25) ** ((2.0 - 1.0) * 0.3)
        assert W.evaluate([x])[0, 0].real == pytest.approx(expected)

    def test_singular_point_raises(self):
        W = PowerLogWeight(1, 1, -0.5)
        with pytest.raises(SingularityError):
            W.evaluate([0.0])

    def test_conjugated_block_noncommuting(self):
        W = conjugated_block()
        A = W.evaluate([0.1])
        B = W.evaluate([0.3])
        assert np.max(np.abs(A @ B - B @ A)) > 1e-6

    def test_descriptor_roundtrip(self):
        for W in (PowerLogWeight(1, 2, -0.3, 1.0), two_singularity(0.2, 0.1, 3.0),
                  conjugated_block()):
            W2 = weight_from_descriptor(W.descriptor())
            x = np.array([0.17])
            assert np.allclose(W.evaluate(x), W2.evaluate(x))


# each kind's descriptor with its required keys only
_MINIMAL_DESCRIPTORS = [
    {"kind": "power_log", "a": -0.3},
    {"kind": "product_power", "centers": [0.0, 0.25], "exponents": [-0.4, 0.3]},
    {"kind": "two_singularity", "d": 0.4, "dtilde": 0.3, "p": 2.0},
    {"kind": "constant", "matrix": [[[2.0, 0.0], [0.5, 0.5]], [[0.5, -0.5], [1.0, 0.0]]]},
    {"kind": "conjugated_block", "branch1": {"kind": "power_log", "a": -0.4},
     "branch2": {"kind": "power_log", "a": 0.3}},
]


@pytest.mark.parametrize("desc", _MINIMAL_DESCRIPTORS, ids=lambda d: d["kind"])
def test_descriptor_without_a_required_key_names_the_kind_and_the_key(desc):
    weight_from_descriptor(desc)
    for key in desc:
        partial = {k: v for k, v in desc.items() if k != key}
        kind = desc["kind"] if key != "kind" else "descriptor"
        with pytest.raises(InvalidWeightError, match=f"weight {kind} needs the key '{key}'"):
            weight_from_descriptor(partial)


def _norm_profiles(X, a, b, centres, exps):
    """The PowerLogWeight and ProductPowerWeight profiles with every distance
    from np.linalg.norm."""
    r = np.linalg.norm(X, axis=1)
    power_log = r ** a if a != 0.0 else np.ones_like(r)
    if b != 0.0:
        power_log = power_log * np.log(2.0 + r) ** b
    product = np.ones(len(X))
    for c, e in zip(centres, exps):
        product = product * np.linalg.norm(X - np.asarray(c), axis=1) ** e
    return power_log, product


# signed magnitudes from 1e-150 to 1e150
OFFSETS = st.builds(lambda m, k, s: s * m * 10.0 ** k, st.floats(1.0, 9.99),
                    st.integers(-150, 149), st.sampled_from((-1.0, 1.0)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.sampled_from((1, 2)), a=st.floats(-0.9, 0.9), b=st.sampled_from((0.0, 1.5)),
       exps=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
       centre=st.sampled_from((0.0, 0.25, -3.0)), offsets=st.lists(OFFSETS, min_size=1))
def test_profiles_equal_the_norm_formula(n, a, b, exps, centre, offsets):
    # in 1-D |x - c| is np.abs, bit for bit the norm's sqrt(fl(x^2)) where
    # 1e-150 <= |x - c| <= 1e150; in 2-D it is the norm itself
    D = np.array([offsets, offsets[::-1]]).T[:, :n]
    centres = ((0.0,) * n, (centre,) * n)
    X = np.asarray(centres[1]) + D
    r = np.linalg.norm(X - np.array(centres)[:, None], axis=2)
    X = X[np.all((1e-150 <= r) & (r <= 1e150), axis=0)]
    power_log, product = _norm_profiles(X, a, b, centres, exps)
    assert np.array_equal(PowerLogWeight(n, 1, a, b).scalar_profile(X), power_log)
    assert np.array_equal(ProductPowerWeight(n, 1, centres, exps).scalar_profile(X), product)


def test_distance_below_1e_150_is_exact_where_the_norm_is_not():
    x = np.array([[1e-160]])
    assert weights._distance(x)[0] == 1e-160 != np.linalg.norm(x, axis=1)[0]


class TestCubeAverage:
    def test_identity(self):
        val = cube_average_matrix_norm(identity_weight(1, 2), 2.0, DyadicCube(1, (0,)))
        assert val == pytest.approx(1.0)

    def test_constant_two(self):
        W = ConstantWeight(1, 2.0 * np.eye(2))
        val = cube_average_matrix_norm(W, 2.0, DyadicCube(1, (0,)))
        assert val == pytest.approx(np.sqrt(2.0))

    def test_power_log_exact_integral(self):
        # (avg over [0,1) of |x|^(-1/2))^(1/1) = 2
        val = cube_average_matrix_norm(PowerLogWeight(1, 1, -0.5), 1.0,
                                       DyadicCube(0, (0,)))
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_shrinking_cube_tracks_closed_form(self):
        # avg over cubes near the origin behaves like (|c_Q| + l(Q))^a:
        # the comparison constant stays fixed as the cube shrinks
        a, p = -0.5, 2.0
        W = PowerLogWeight(1, 1, a)
        ratios = []
        for j in (2, 4, 6, 8):
            Q = DyadicCube(j, (0,))
            val = cube_average_matrix_norm(W, p, Q) ** p
            envelope = (abs(Q.center[0]) + Q.side) ** a
            ratios.append(val / envelope)
        assert all(0.25 <= r <= 4.0 for r in ratios)
        assert max(ratios) / min(ratios) <= 1.05

    def test_divergent_raises(self):
        with pytest.raises(IntegrabilityError):
            cube_average_matrix_norm(PowerLogWeight(1, 1, -1.2), 1.0,
                                     DyadicCube(1, (0,)))


PROPERTY = settings(max_examples=8, derandomize=True, deadline=None)
cubes = st.builds(DyadicCube, st.integers(0, 4), st.tuples(st.integers(-2, 1)))
cubes_at_zero = st.builds(DyadicCube, st.integers(0, 4), st.sampled_from([(-1,), (0,)]))


def random_matrix(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def rel_err(x, y):
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))) / np.max(np.abs(y)))


class TestCubeAverageLayer:
    """The scalar fast path, homogeneity and the integrability pre-check."""

    @PROPERTY
    @given(a=st.floats(-0.8, 0.8), p=st.floats(0.5, 4.0), Q=cubes,
           seed=st.integers(0, 2 ** 16))
    def test_scalar_path_matches_matrix_path(self, a, p, Q, seed):
        # w I flagged scalar against the same w I built as a rotated block
        scalar = PowerLogWeight(1, 2, a)
        block = ConjugatedBlockWeight(PowerLogWeight(1, 1, a), PowerLogWeight(1, 1, a))
        assert scalar.is_scalar() and not block.is_scalar()
        dirs = unit_directions(2, 16)
        assert rel_err(CubeNorm(scalar, p, Q).bundle(dirs),
                       CubeNorm(block, p, Q).bundle(dirs)) <= 1e-10
        M = random_matrix(seed)
        assert rel_err(cube_average_matrix_norm(scalar, p, Q, M),
                       cube_average_matrix_norm(block, p, Q, M)) <= 1e-10
        avg = [cube_average(W, Q, 1.0, 1.0, lambda mats: mats).value
               for W in (scalar, block)]
        assert rel_err(*avg) <= 1e-10

    @PROPERTY
    @given(p=st.floats(0.5, 4.0), c=st.floats(1e-3, 1e3), Q=cubes,
           seed=st.integers(0, 2 ** 16))
    def test_matrix_norm_homogeneous(self, p, c, Q, seed):
        M = random_matrix(seed)
        for W in (conjugated_block(), PowerLogWeight(1, 2, -0.4)):
            assert cube_average_matrix_norm(W, p, Q, c * M) == pytest.approx(
                c * cube_average_matrix_norm(W, p, Q, M), rel=1e-10)

    @PROPERTY
    @given(t=st.floats(-3.0, -1.0), alpha=st.floats(0.25, 2.0), power=st.floats(0.5, 4.0),
           sign=st.sampled_from([-1.0, 1.0]), Q=cubes_at_zero)
    def test_non_integrable_raises_before_quadrature(self, t, alpha, power, sign, Q):
        # ||W^alpha||^power = |x|^t near 0
        W = PowerLogWeight(1, 1, t / (sign * alpha * power))

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "average_boxes", no_quadrature)
            with pytest.raises(IntegrabilityError):
                cube_average(W, Q, sign * alpha, power, lambda mats: mats[:, 0, 0] ** power)

    @PROPERTY
    @given(t=st.floats(-0.8, 2.0), alpha=st.floats(0.25, 2.0), power=st.floats(0.5, 4.0),
           sign=st.sampled_from([-1.0, 1.0]), Q=cubes_at_zero)
    def test_integrable_gives_finite_positive(self, t, alpha, power, sign, Q):
        W = PowerLogWeight(1, 1, t / (sign * alpha * power))
        res = cube_average(W, Q, sign * alpha, power, lambda mats: mats[:, 0, 0] ** power)
        assert np.isfinite(res.value) and res.value > 0

    def test_scalar_center_is_broadcast_in_2d(self):
        # x0 = 0.25 in n = 2 is the point (0.25, 0.25), as in the profile; the
        # box holds x = 0.25 but lies away from that point, so |x - x0|^-2.5
        # (not integrable in 2-D) is smooth on it
        W = two_singularity(0.4, 1.0, 2.0, x0=0.25, n=2)
        box = Box((0.125, 1.0), (0.5, 2.0))
        res = cube_average(W, box, -1.0, 2.5, lambda mats: mats[:, 0, 0] ** 2.5)
        g = (np.arange(256) + 0.5) / 256
        X = np.stack([a.ravel() for a in np.meshgrid(0.125 + 0.375 * g, 1.0 + g)], axis=1)
        assert res.converged
        assert res.value == pytest.approx(np.mean(W.scalar_profile(X) ** -2.5), rel=1e-4)

    def test_scalar_center_exponent_is_broadcast(self):
        W = ProductPowerWeight(2, 1, ((0.25,),), (-1.0,))
        assert W.norm_exponent((0.25, 0.25), 2.0) == -2.0
        assert W.norm_exponent((0.25, 0.0), 2.0) == 0.0


class TestApConstant:
    def test_identity_all_variants(self):
        win = CubeWindow(1, 1, 3)
        assert ap_constant(identity_weight(1, 2), 2.0, win).value == pytest.approx(1.0)
        std = ap_constant(identity_weight(1, 2), 0.5, win, "standard")
        star = ap_constant(identity_weight(1, 2), 0.5, win, "star")
        assert std.value == pytest.approx(1.0)
        assert star.value == pytest.approx(1.0)

    def test_star_needs_small_p(self):
        with pytest.raises(InvalidVariantError):
            ap_constant(identity_weight(1, 1), 2.0, CubeWindow(1, 1, 2), "star")
        with pytest.raises(InvalidExponentError):
            ap_constant(identity_weight(1, 1), -1.0, CubeWindow(1, 1, 2))

    def test_power_weight_finite_and_stable(self):
        # |x|^(1/2) is A_2 on the line; refinement changes the value little
        W = PowerLogWeight(1, 1, 0.5)
        win = CubeWindow(1, 1, 4)
        coarse = ap_constant(W, 2.0, win, qspec=QuadSpec(base_depth=3, grade_depth=20))
        fine = ap_constant(W, 2.0, win, qspec=QuadSpec(base_depth=4, grade_depth=36))
        assert np.isfinite(fine.value)
        assert abs(fine.value - coarse.value) <= 0.05 * fine.value

    @pytest.mark.parametrize("a", [-0.7, -0.5, 0.3, 0.8])
    def test_power_weight_closed_form(self, a):
        # cubes at the singular point attain [|x|^a]_A2 = 1/((1+a)(1-a))
        ap = ap_constant(PowerLogWeight(1, 1, a), 2.0, CubeWindow(1, 1, 4))
        assert ap.converged
        assert ap.value == pytest.approx(1.0 / (1.0 - a * a), abs=1e-6)

    def test_standard_below_star(self):
        W = conjugated_block()
        win = CubeWindow(1, 1, 3)
        std = ap_constant(W, 0.5, win, "standard", qspec=QuadSpec(base_depth=3, grade_depth=16))
        star = ap_constant(W, 0.5, win, "star", qspec=QuadSpec(base_depth=3, grade_depth=16))
        assert std.value <= star.value * (1 + 1e-12)

    def test_window_monotonicity(self):
        W = PowerLogWeight(1, 1, 0.5)
        small = ap_constant(W, 2.0, CubeWindow(1, 1, 3))
        large = ap_constant(W, 2.0, CubeWindow(1, 1, 4))
        assert large.value >= small.value - 1e-12

    def test_inclusion_in_larger_class(self):
        # finite at p implies finite (and computed stable) at q > p
        W = PowerLogWeight(1, 1, -0.5)
        win = CubeWindow(1, 1, 3)
        for p in (2.0, 3.0):
            val = ap_constant(W, p, win)
            assert np.isfinite(val.value) and val.value >= 1.0 - 1e-6


@st.composite
def _ap_cases(draw, kind):
    """A scalar, conjugated-block or constant-matrix weight, a p on either
    side of 1, and a shuffled list of (Q, Q) and (Q, 2Q) pairs with repeats."""
    exponent = st.sampled_from((-0.8, -0.45, 0.3, 0.7))
    if kind == "scalar":
        weight = PowerLogWeight(1, 1, draw(exponent))
    elif kind == "conjugated":
        weight = ConjugatedBlockWeight(PowerLogWeight(1, 1, draw(exponent)),
                                       PowerLogWeight(1, 1, draw(exponent)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        weight = ConstantWeight(1, linalg.random_psd(rng, 2, cond_max=20.0))
    pairs = dilated_boxes(CubeWindow(1, 1, 2).batch(), [1.0, 2.0])
    order = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=12))
    return weight, draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))), pairs[order]


@pytest.mark.parametrize("kind", ["scalar", "conjugated", "constant"])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_ap_constant_and_ap_pairs_properties(kind, data):
    # [W]_Ap >= 1, the window sup never falls as the window grows, a pair's
    # value does not depend on the batch it comes in, and a constant weight's
    # pairs are products W^(1/p) W^(-1/p) = I, of norm 1 at every p (on a grid
    # of step 1/8 in [1/4, 4])
    weight, p, pairs = data.draw(_ap_cases(kind))
    try:
        small, large = (ap_constant(weight, p, CubeWindow(1, 1, j)) for j in (2, 3))
    except IntegrabilityError:
        return
    assert small.value >= 1.0 - 1e-12 and large.value >= small.value
    qspec = QuadSpec(base_depth=3, grade_depth=24)
    batch = weights.ap_pairs(weight, p, pairs[:, 0], pairs[:, 1], qspec)
    one = [weights.ap_pairs(weight, p, pair[:1], pair[1:], qspec)[0] for pair in pairs]
    assert np.array_equal(batch, one)
    if kind == "constant":
        for q in np.arange(2, 33) / 8:
            values = weights.ap_pairs(weight, q, pairs[:, 0], pairs[:, 1], qspec)
            np.testing.assert_allclose(values, 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0])
def test_ill_conditioned_constant_weight_pairs_are_one(m, p):
    # cond(M) = 1e4 with random eigenvectors. The computed factors M^(1/p) and
    # M^(-1/p) multiply to I only within about eps cond(M)^(1/p): below 1e-13
    # for p >= 1.5, near 1e-8 at p = 0.5. A Gram form lambda_max(X Y^2 X)
    # would lose eps cond(M)^(2/p) instead, 2e-12 at p = 2 and O(1) at p = 0.5.
    rng = np.random.default_rng(m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    M = linalg.hermitize((q * np.geomspace(1.0, 1e-4, m)) @ np.conj(q.T))
    assert np.linalg.cond(M) >= 1e4 * (1 - 1e-9)
    pairs = dilated_boxes(CubeWindow(1, 1, 2).batch(), [1.0, 2.0])
    values = weights.ap_pairs(ConstantWeight(1, M), p, pairs[:, 0], pairs[:, 1],
                              QuadSpec(base_depth=3, grade_depth=24))
    np.testing.assert_allclose(values, 1.0, rtol=0, atol=1e-13 if p >= 1.5 else 1e-7)


@pytest.mark.parametrize("n", [1, 2])
def test_sup_nodes_of_a_batch_are_the_one_box_order_1_nodes(n):
    # boxes with the singular points at corners, inside, outside, and twice
    W = ProductPowerWeight(n, 1, (np.zeros(n), np.full(n, 0.25)), (-0.5, 0.3))
    boxes = np.array([[np.full(n, a), np.full(n, a + s)] for a in (-1.0, -0.25, 0.0, 0.5)
                      for s in (0.25, 0.75, 2.0)] + [[np.zeros(n), np.full(n, 0.25)]] * 2)
    qspec = QuadSpec(base_depth=3, grade_depth=24).for_dim(n)
    nodes = weights.sup_nodes(W, boxes, qspec)
    assert len(nodes) == len(boxes)
    for b, (X, v) in zip(boxes, nodes):
        Xb, vb, _ = box_nodes(Box(tuple(b[0]), tuple(b[1])), qspec.base_depth,
                              qspec.grade_depth // 2, 1, W.singular_points)
        assert np.array_equal(X, Xb) and np.array_equal(v, vb / vb.sum())


class TestDualWeight:
    def test_identity(self):
        D = dual_weight(identity_weight(1, 2), 2.0)
        assert np.allclose(D.evaluate([0.2]), np.eye(2))

    def test_power_log_exponents(self):
        D = dual_weight(PowerLogWeight(1, 1, 0.6, 0.0), 3.0)
        assert D.a == pytest.approx(-0.3)

    def test_two_singularity_dual_formula(self):
        p = 2.0
        W = two_singularity(0.4, 0.3, p)
        D = dual_weight(W, p)
        x = 0.05
        expected = abs(x) ** (0.4 / (p - 1.0)) * abs(x - 0.25) ** -0.3
        assert D.evaluate([x])[0, 0].real == pytest.approx(expected)

    def test_involution(self):
        p = 2.5
        pprime = p / (p - 1.0)
        for W in (PowerLogWeight(1, 1, -0.5, 2.0), two_singularity(0.3, 0.2, p),
                  conjugated_block()):
            back = dual_weight(dual_weight(W, p), pprime)
            x = np.array([0.11])
            assert np.max(np.abs(back.evaluate(x) - W.evaluate(x))) <= 1e-10

    def test_small_p_rejected(self):
        with pytest.raises(InvalidExponentError):
            dual_weight(identity_weight(1, 1), 1.0)


def ball_average(a, b, x0, r):
    """(avg over the 1-D ball [x0 - r, x0 + r] of |x|^a log(2+|x|)^b, the
    paper's comparand (|x0|+r)^a log(2+|x0|+r)^b)."""
    res = average_box(PowerLogWeight(1, 1, a, b).scalar_profile, Box((x0 - r,), (x0 + r,)),
                      singular_points=[(0.0,)] if a != 0.0 else [])
    t = abs(x0) + r
    return float(res.value), t ** a * np.log(2.0 + t) ** b


class TestBallAverage:
    def test_trivial(self):
        val, env = ball_average(0.0, 0.0, 3.0, 0.5)
        assert val == pytest.approx(1.0) and env == pytest.approx(1.0)

    def test_exact_antiderivative(self):
        val, env = ball_average(-0.5, 0.0, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-4)
        assert env == pytest.approx(1.0)

    def test_offset_oracle(self):
        val, env = ball_average(-0.5, 0.0, 4.0, 1.0)
        assert val == pytest.approx(np.sqrt(5) - np.sqrt(3), rel=1e-4)

    @pytest.mark.parametrize("a,b", [(-0.5, 0.0), (0.75, 0.0), (-0.5, -1.0)])
    def test_ratio_bracket_over_sweep(self, a, b):
        ratios = []
        for x0 in np.logspace(-3, 3, 5):
            for r in np.logspace(-3, 3, 5):
                val, env = ball_average(a, b, x0, r)
                ratios.append(val / env)
        assert 0.05 <= min(ratios) and max(ratios) <= 10.0


class TestGridSampled:
    def test_piecewise_constant_eval(self):
        box = cube_box(1)
        samples = np.stack([np.eye(2) * (i + 1.0) for i in range(4)])
        W = GridSampledWeight(box, samples)
        assert np.allclose(W.evaluate([-0.4]), np.eye(2))
        assert np.allclose(W.evaluate([0.4]), 4.0 * np.eye(2))

    def test_power_and_dual(self):
        box = cube_box(1)
        samples = np.stack([np.eye(2) * 4.0, np.eye(2) * 9.0])
        W = GridSampledWeight(box, samples)
        assert np.allclose(W.power_at(np.array([[0.3]]), 0.5)[0], 3.0 * np.eye(2))
        D = W.dual(2.0)
        assert np.allclose(D.evaluate([0.3]), np.eye(2) / 9.0)

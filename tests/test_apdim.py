import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matweight import apdim, linalg, weights
from matweight.apdim import (ApDimConfig, ApDimensions, _filter_base_cubes, a_sequence,
                             a_sequence_via_reducing, abutting_cubes,
                             admissible_m, default_base_cubes, doubling_exponent,
                             estimate_dimensions, fit_growth,
                             growth_envelope_check, reverse_holder_probe,
                             swapped_slope)
from matweight.errors import CoverageError, IntegrabilityError, OutOfDomainError, ResolutionError
from matweight.geometry import (Box, CubeWindow, DyadicCube, batch_cube, box_corners, cube_box,
                                dilate, dilated_boxes)
from matweight.quad import QuadSpec
from matweight.reducing import CubeNorm, build_family, identity_family, unit_directions
from matweight.weights import (ConjugatedBlockWeight, ConstantWeight, GridSampledWeight,
                               PowerLogWeight, cube_average, dual_weight, identity_weight,
                               sup_nodes, two_singularity)

SMALL = ApDimConfig(i_max=4, domain_half=32.0, window_levels=(-1, 0),
                    abut_levels=(-1, 8))
MATRIX_CFG = ApDimConfig(i_max=6, domain_half=32.0, window_levels=(-1, 0),
                         abut_levels=(0, 10), base_depth=4, grade_depth=16)


def test_identity_sequence_is_one():
    vals, i_eff, cubes = a_sequence(identity_weight(1, 2), 2.0, config=SMALL)
    assert np.allclose(vals, 1.0, atol=1e-9)
    d, beta, _ = fit_growth(vals, 1)
    assert abs(d) <= 0.05


def test_slope_never_meaningfully_negative():
    for weight in (identity_weight(1, 1), PowerLogWeight(1, 1, 0.5)):
        vals, i_eff, _ = a_sequence(weight, 2.0, config=SMALL)
        d, _, _ = fit_growth(vals, 1)
        assert d >= -0.05


def test_monotone_in_p():
    # order q > p never increases the growth: d_q <= d_p + 0.1
    W = PowerLogWeight(1, 1, -0.5)
    cfg = ApDimConfig(i_max=6, domain_half=64.0, window_levels=(-1, 0),
                      abut_levels=(-1, 10))
    v2, i2, _ = a_sequence(W, 2.0, config=cfg)
    v3, i3, _ = a_sequence(W, 3.0, config=cfg)
    d2, _, _ = fit_growth(v2)
    d3, _, _ = fit_growth(v3)
    assert d3 <= d2 + 0.1


def test_matrix_sequence_prechecks_integrability():
    # ||W^(1/2)||^2 ~ |x|^(-1.2) near 0 is not integrable
    W = ConjugatedBlockWeight(PowerLogWeight(1, 1, -1.2), PowerLogWeight(1, 1, 0.3))
    with pytest.raises(IntegrabilityError):
        a_sequence(W, 2.0, config=SMALL)


def _cubes(batch):
    return [batch_cube(batch, i) for i in range(len(batch[0]))]


@pytest.mark.parametrize("point", [[0.0], [0.3], [-1.0], [0.25, -0.375], [0.1, 0.0], [0.0, 2.0]])
def test_abutting_cubes_are_the_cubes_whose_closure_holds_the_point(point):
    # by level, then the first axis slowest; cubes past the domain are left out
    domain = cube_box(len(point), 2.0)
    ref = []
    for j in range(-3, 6):
        side = 2.0 ** -j
        near = [range(int(np.floor(x / side)) - 1, int(np.floor(x / side)) + 1) for x in point]
        for k in itertools.product(*near):
            Q = DyadicCube(j, k)
            if (np.all((Q.lower <= point) & (point <= Q.lower + side))
                    and domain.contains_box(Q.box())):
                ref.append(Q)
    batch = abutting_cubes(point, (-3, 5), domain)
    assert batch[0].dtype.kind == batch[1].dtype.kind == "i"
    assert _cubes(batch) == ref


@pytest.mark.parametrize("weight", [two_singularity(0.4, 0.3, 2.0), PowerLogWeight(2, 1, -0.8)])
def test_default_base_cubes_list_each_cube_once_where_it_first_comes(weight):
    domain = SMALL.domain(weight.n)
    cubes = CubeWindow(weight.n, *SMALL.window_levels, domain).cubes()
    for s in weight.singular_points:
        cubes += _cubes(abutting_cubes(s, SMALL.abut_levels, domain))
    assert _cubes(default_base_cubes(weight, SMALL, domain)) == list(dict.fromkeys(cubes))
    assert len(set(cubes)) < len(cubes)


def test_batch_paths_build_only_the_cubes_they_return(monkeypatch):
    # a-sequences, families and window sweeps carry cubes as index arrays;
    # a DyadicCube is built only for a witness
    built, init = [], DyadicCube.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DyadicCube, "__init__", counted)
    a_sequence(PowerLogWeight(1, 1, -0.45), 2.0)
    W = ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3))
    win = CubeWindow(1, 1, 3)
    fam = build_family(W, 1.5, win, "mvee", K=64)
    doubling_exponent(W, 1.5, win)
    reverse_holder_probe(identity_weight(1, 2), 2.0, win, [2.0])
    assert built == []
    _, witness, _ = growth_envelope_check(fam, ApDimensions(0.5, 0.5, 0.5, 1))
    assert len(built) == len(witness) == 2
    ap = weights.ap_constant(W, 2.0, win)
    assert len(built) == 3 and ap.witness in win.cubes()


def test_two_routes_agree():
    # direct integrals vs reducing-operator products, uniformly over i
    W = PowerLogWeight(1, 1, -0.5)
    cfg = ApDimConfig(i_max=4, domain_half=32.0, window_levels=(0, 0),
                      abut_levels=(1, 4))
    cubes = abutting_cubes([0.0], (1, 4), cfg.domain(1))
    direct, i_eff, _ = a_sequence(W, 2.0, base_cubes=cubes, i_max=4, config=cfg)
    via_ops, _, _ = a_sequence_via_reducing(W, 2.0, cubes, 4, config=cfg)
    ratio = via_ops / direct
    assert ratio.max() <= 10.0 and ratio.min() >= 0.1
    assert ratio.max() / ratio.min() <= 4.0


def test_duality_relation_nontrivial_p():
    # p = 3: the swapped-route exponent matches (p-1) * dtilde
    p = 3.0
    W = two_singularity(0.3, 0.25, p)
    cfg = ApDimConfig(i_max=6, domain_half=64.0, window_levels=(-1, 0),
                      abut_levels=(-1, 12))
    dims, _ = estimate_dimensions(W, p, cfg)
    d2, _ = swapped_slope(W, p, cfg)
    assert abs(d2 - (p - 1.0) * dims.dtilde) <= 0.15


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0])
def test_matrix_swapped_route_matches_scalar(p):
    # w I through the matrix kernel is the scalar route's quantity for w
    w = PowerLogWeight(1, 1, -0.4)
    d2_matrix, _ = swapped_slope(ConjugatedBlockWeight(w, w), p, MATRIX_CFG)
    d2_scalar, _ = swapped_slope(w, p, MATRIX_CFG)
    assert d2_matrix == pytest.approx(d2_scalar, abs=0.02)


def test_fit_growth_on_synthetic_data():
    a = 2.0 ** (0.37 * np.arange(9)) * 3.0
    d, beta, _ = fit_growth(a)
    assert d == pytest.approx(0.37, abs=1e-6) and abs(beta) <= 1e-6


def test_fit_growth_splits_log_factor():
    ii = np.arange(9)
    a = 2.0 ** (0.5 * ii) * (ii + 1.0)
    d, beta, _ = fit_growth(a)
    assert d == pytest.approx(0.5, abs=1e-6)
    assert beta == pytest.approx(1.0, abs=1e-5)


class TestAdmissibleM:
    def test_trivial_case(self):
        dims = ApDimensions(0.0, 0.0, 0.0, 1)
        assert admissible_m(0.0, 0.0, 2.0, dims, 1, "general") == 1

    def test_arithmetic_case(self):
        dims = ApDimensions(0.4, 0.3, 0.35, 1)
        assert admissible_m(0.0, 0.0, 2.0, dims, 1, "general") == 1

    def test_infinity_variant(self):
        dims = ApDimensions(0.0, 0.0, 0.0, 1)
        assert admissible_m(1.0, 0.0, 2.0, dims, 1, "infinity") == 2


class TestGrowthEnvelope:
    def test_identity_below_envelope(self):
        win = CubeWindow(1, 1, 4)
        fam = identity_family(win, 2)
        ratio, witness, pairs = growth_envelope_check(
            fam, ApDimensions(0.0, 0.0, 0.0, 1))
        assert ratio <= 1.0 + 1e-12
        assert pairs == win.num_cubes() ** 2

    def test_power_weight_tracks_formula(self):
        # ||A_Q A_R^(-1)||^p ~ ((|c_R|+l(R)) / (|c_Q|+l(Q)))^d across the window
        d, p = 0.5, 2.0
        W = PowerLogWeight(1, 1, -d)
        win = CubeWindow(1, 1, 4)
        fam = build_family(W, p, win, method="exact_p2")
        from matweight import linalg

        cubes = win.cubes()
        worst_lo, worst_hi = np.inf, 0.0
        for Q in cubes[::3]:
            for R in cubes[::3]:
                val = float(linalg.op_norm(fam.matrix(Q) @ fam.inverse(R))) ** p
                ref = ((abs(R.center[0]) + R.side) / (abs(Q.center[0]) + Q.side)) ** d
                worst_lo = min(worst_lo, val / ref)
                worst_hi = max(worst_hi, val / ref)
        assert worst_hi <= 10.0 and worst_lo >= 0.1


class TestDoubling:
    def test_identity_exact(self):
        win = CubeWindow(1, 1, 4)
        beta = doubling_exponent(identity_weight(1, 2), 2.0, win)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_negative_power(self):
        win = CubeWindow(1, 1, 4)
        beta = doubling_exponent(PowerLogWeight(1, 1, -0.5), 2.0, win)
        assert 1.0 - 1e-9 <= beta <= 1.6

    def test_positive_power_upper(self):
        win = CubeWindow(1, 1, 4)
        beta = doubling_exponent(PowerLogWeight(1, 1, 0.5), 2.0, win)
        assert beta <= 1.5 + 1e-6


class TestReverseHolder:
    def test_identity_all_stable(self):
        win = CubeWindow(1, 1, 2)
        r_hat, table = reverse_holder_probe(identity_weight(1, 2), 2.0, win,
                                            [1.25, 1.5, 2.0])
        assert r_hat == pytest.approx(2.0)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in table.values())

    def test_inverse_sqrt_at_p1(self):
        # w = |x|^(-1/2), p = 1: w^r integrable only for r < 2
        win = CubeWindow(1, 1, 3)
        r_grid = [1.25, 1.5, 1.75, 1.9, 2.0]
        r_hat, table = reverse_holder_probe(PowerLogWeight(1, 1, -0.5), 1.0,
                                            win, r_grid)
        assert 1.5 <= r_hat < 2.0
        assert np.isnan(table[2.0])

    def test_consistent_with_dimension(self):
        # n / r_hat bounds the growth exponent from above (up to slack)
        win = CubeWindow(1, 1, 3)
        for weight, p, d_ref in ((PowerLogWeight(1, 1, -0.5), 2.0, 0.5),
                                 (PowerLogWeight(1, 1, 0.5), 2.0, 0.0)):
            r_hat, _ = reverse_holder_probe(weight, p, win,
                                            [1.1, 1.25, 1.5, 1.75, 2.0])
            assert 1.0 / r_hat >= d_ref - 0.1


PROBE_WEIGHTS = [(PowerLogWeight(1, 1, -0.5), 2.0), (PowerLogWeight(1, 1, 0.5), 2.0),
                 (two_singularity(0.4, 0.3, 2.0), 2.0),
                 (ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3)),
                  1.5),
                 (PowerLogWeight(2, 2, -0.5), 2.0)]


@pytest.mark.parametrize("weight, p", PROBE_WEIGHTS)
def test_doubling_exponent_is_the_max_over_its_cubes(weight, p):
    # the batch against one CubeNorm pass per cube and per double
    win = CubeWindow(weight.n, 1, 3 if weight.n == 1 else 2)
    dirs = unit_directions(weight.m, 16)
    best = -np.inf
    for Q in win.cubes():
        big = dilate(Q, 2.0)
        if win.box.contains_box(big):
            small_mass = CubeNorm(weight, p, Q).bundle(dirs) ** p * Q.volume
            big_mass = CubeNorm(weight, p, big).bundle(dirs) ** p * big.volume
            best = max(best, float(np.max(np.log2(big_mass / small_mass))))
    assert doubling_exponent(weight, p, win) == best


@pytest.mark.parametrize("weight, p", PROBE_WEIGHTS)
def test_reverse_holder_table_is_the_max_over_its_cubes(weight, p):
    # the batches against one pair of cube averages per cube and test matrix;
    # an entry is nan when one of them diverges or does not converge
    win = CubeWindow(weight.n, 1, 3 if weight.n == 1 else 2)
    r_grid = [1.25, 2.0, 2.45, 4.0]  # 2.45: conjugated-block averages that do not converge
    qspec = QuadSpec(rel_tol=5e-3)
    eye = np.eye(weight.m)
    mats = [eye] + ([] if weight.is_scalar() else [np.diag(e) for e in eye])

    def average(Q, M, s):
        try:
            res = cube_average(weight, Q, 1.0 / p, s,
                               lambda Ws: linalg.op_norm(Ws @ M) ** s, qspec)
        except IntegrabilityError:
            return None
        return float(res.value) if res.converged else None

    _, table = reverse_holder_probe(weight, p, win, r_grid)
    assert list(table) == r_grid
    for r in r_grid:
        ratios = [(average(Q, M, p * r), average(Q, M, p)) for Q in win.cubes() for M in mats]
        if any(None in pair for pair in ratios):
            assert np.isnan(table[r])
        else:
            assert table[r] == max(h ** (1.0 / r) / b for h, b in ratios)


def test_base_cube_filter_reduces_imax():
    W = PowerLogWeight(1, 1, -0.5)
    cfg = ApDimConfig(i_max=12, domain_half=4.0, window_levels=(1, 2),
                      abut_levels=(1, 4))
    with pytest.warns(UserWarning):
        vals, i_eff, cubes = a_sequence(W, 2.0, config=cfg)
    assert i_eff < 12 and len(vals) == i_eff + 1
    with pytest.raises(OutOfDomainError):
        a_sequence(W, 2.0, base_cubes=(np.array([-3]), np.array([[0]])), config=cfg)


def test_a_sequence_over_its_box_budget_runs_no_quadrature(monkeypatch):
    # the 1-D default takes 286 cubes at 9 dilations each
    def no_integrand(self, X):
        raise AssertionError("the integrand ran")

    monkeypatch.setattr(PowerLogWeight, "scalar_profile", no_integrand)
    monkeypatch.setattr(apdim, "_MAX_BOXES", 2573)
    with pytest.raises(ResolutionError, match="needs 2574 boxes, over the budget of 2573; "
                       "lower apdim domain_half, window_levels, abut_levels or i_max"):
        a_sequence(PowerLogWeight(1, 1, -0.5), 2.0)


@pytest.mark.parametrize("route", [estimate_dimensions, swapped_slope])
def test_growth_fit_after_imax_shrinks_below_fit_skip(route):
    # i_max 12 shrinks to 6 on this domain, leaving no a_i at i >= fit_skip = 8
    cfg = ApDimConfig(i_max=12, fit_skip=8, domain_half=4.0, window_levels=(1, 2),
                      abut_levels=(1, 4))
    with (pytest.warns(UserWarning),
          pytest.raises(OutOfDomainError, match="fit_skip = 8.*i_max is 6")):
        route(PowerLogWeight(1, 1, -0.5), 2.0, config=cfg)


def _reference_pair(p, FX, wx, FY, wy, star=False):
    """The two-cube A_p quantity of one pair by its definition, given the
    (N, m, m) factors FX = W^(1/p)(X) and FY = W^(-1/p)(Y) on node sets with
    probability weights wx, wy: F = ||FX(x) FY(y)||^s with s = p for p <= 1
    (sup over y of the x-average; star averages the x-wise sup instead) and
    s = p' otherwise (x-average of the y-average to the power p/p')."""
    s = p if p <= 1.0 else p / (p - 1.0)
    F = linalg.op_norm(np.einsum("xij,yjk->xyik", FX, FY)) ** s
    if p > 1.0:
        return float(wx @ (F @ wy) ** (p / s))
    if star:
        return float(wx @ np.max(F, axis=1))
    return float(np.max(wx @ F))


def _reference_a_sequence(weight, p, config, swapped):
    """a_i by the definition, pair by pair: max over the base cubes Q of the
    two-cube quantity on (Q, 2^i Q), each term its own one-box average (or,
    for matrix weights, the kernel on each pair's own node factors)."""
    domain = config.domain(weight.n)
    batch, i_eff = _filter_base_cubes(default_base_cubes(weight, config, domain),
                                      config.i_max, domain)
    cubes = _cubes(batch)
    qspec = QuadSpec(base_depth=config.base_depth, grade_depth=config.grade_depth)

    def avg(box, alpha):
        return float(cube_average(weight, box, alpha, 1.0, lambda mats: mats[:, 0, 0].real,
                                  qspec).value)

    def factor(box, alpha):
        (X, v), = sup_nodes(weight, box_corners(box), qspec)
        return weight.power_at(X, alpha), v

    vals = np.zeros(i_eff + 1)
    for Q in cubes:
        for i in range(i_eff + 1):
            x, y = (dilate(Q, 2.0 ** i), Q.box()) if swapped else (Q.box(), dilate(Q, 2.0 ** i))
            if weight.is_scalar():
                q = avg(x, 1.0) * avg(y, -1.0 / (p - 1.0)) ** (p - 1.0)
            else:
                q = _reference_pair(p, *factor(x, 1.0 / p), *factor(y, -1.0 / p))
            vals[i] = max(vals[i], q)
    return vals


PLANE_CFG = ApDimConfig(i_max=3, domain_half=8.0, window_levels=(0, 0), abut_levels=(0, 4),
                        base_depth=3, grade_depth=10)


@pytest.mark.parametrize("weight, config", [
    (PowerLogWeight(1, 1, -0.5), SMALL),
    (two_singularity(0.4, 0.3, 2.0), SMALL),
    (dual_weight(two_singularity(0.4, 0.3, 2.0), 2.0), SMALL),
    (PowerLogWeight(2, 1, -0.8), PLANE_CFG),
    (ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3)),
     ApDimConfig(i_max=3, domain_half=8.0, window_levels=(0, 0), abut_levels=(0, 3),
                 base_depth=3, grade_depth=12))])
@pytest.mark.parametrize("swapped", [False, True])
def test_a_sequence_is_the_max_over_its_pairs(weight, config, swapped):
    vals, _, _ = a_sequence(weight, 2.0, config=config, swapped=swapped)
    ref = _reference_a_sequence(weight, 2.0, config, swapped)
    assert np.allclose(vals, ref, rtol=1e-14, atol=0.0)


KERNEL_QSPEC = QuadSpec(base_depth=3, grade_depth=24)
KERNEL_BOXES = dilated_boxes(CubeWindow(1, 1, 2).batch(), [1.0, 2.0, 4.0]).reshape(-1, 2, 1)


def _conjugated():
    return ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3))


def _kernel_pairs():
    """Four x-boxes, each with four partner y-boxes, one pair listed twice."""
    ix, iy = np.repeat(np.arange(0, 12, 3), 4), np.arange(16) + 2
    ix, iy = np.r_[ix, ix[:1]], np.r_[iy, iy[:1]]
    return KERNEL_BOXES[ix], KERNEL_BOXES[iy]


@st.composite
def _kernel_cases(draw):
    """A complex, non-commuting grid-sampled weight with m in {2, 3} or a
    constant m = 3 weight; p on the grid of step 1/8 in [1/2, 3], both
    variants at p <= 1; and pairs of boxes with repeats on either side."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    m = draw(st.sampled_from((2, 3, 0)))
    if m:
        samples = np.stack([linalg.random_psd(rng, m, cond_max=30.0) for _ in range(6)])
        weight = GridSampledWeight(Box((-3.0,), (3.0,)), samples)
    else:
        weight = ConstantWeight(1, linalg.random_psd(rng, 3, cond_max=20.0))
    p = draw(st.sampled_from(np.arange(4, 25) / 8))
    index = st.integers(0, len(KERNEL_BOXES) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=16))
    ix, iy = np.array(pairs).T
    return weight, p, p <= 1.0 and draw(st.booleans()), KERNEL_BOXES[ix], KERNEL_BOXES[iy]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(case=_kernel_cases())
def test_matrix_kernel_matches_the_pairwise_definition(case):
    weight, p, star, bx, by = case

    def factor(box, alpha):
        (X, v), = sup_nodes(weight, box[None], KERNEL_QSPEC)
        return weight.power_at(X, alpha), v

    values = weights.ap_pairs(weight, p, bx, by, KERNEL_QSPEC, star=star)
    ref = [_reference_pair(p, *factor(x, 1.0 / p), *factor(y, -1.0 / p), star)
           for x, y in zip(bx, by)]
    np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p, star", [(0.5, False), (0.5, True), (2.0, False)])
def test_split_product_blocks_equal_the_unsplit_ones(monkeypatch, p, star):
    pairs = (_kernel_pairs(), _kernel_pairs()[::-1])  # blocks by x-box, then by y-box
    whole = [weights.ap_pairs(_conjugated(), p, bx, by, KERNEL_QSPEC, star=star)
             for bx, by in pairs]
    for budget in (1, 700):
        monkeypatch.setattr(weights, "_BLOCK_PAIRS", budget)
        for (bx, by), unsplit in zip(pairs, whole):
            split = weights.ap_pairs(_conjugated(), p, bx, by, KERNEL_QSPEC, star=star)
            assert np.array_equal(split, unsplit)


def test_one_norm_power_per_product_block(monkeypatch):
    blocks = []

    def counted(re, im, s):
        blocks.append(re.shape[2:])
        return norm_power(re, im, s)

    norm_power = linalg.norm_power
    monkeypatch.setattr(linalg, "norm_power", counted)
    bx, by = _kernel_pairs()
    weights.ap_pairs(_conjugated(), 2.0, bx, by, KERNEL_QSPEC)
    assert len(blocks) == 4 < len(bx)  # one block per distinct x-box
    blocks.clear()
    weights.ap_pairs(_conjugated(), 2.0, by, bx, KERNEL_QSPEC)
    assert len(blocks) == 4  # swapped: one block per distinct y-box
    monkeypatch.setattr(weights, "_BLOCK_PAIRS", 1)
    blocks.clear()
    weights.ap_pairs(_conjugated(), 2.0, bx, by, KERNEL_QSPEC)
    assert len(blocks) == 16  # one block per distinct pair


@pytest.mark.parametrize("weight", [PowerLogWeight(1, 1, -0.4), _conjugated()])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_ap_pairs_rejects_batches_of_different_lengths(weight, p):
    with pytest.raises(CoverageError):
        weights.ap_pairs(weight, p, KERNEL_BOXES[:2], KERNEL_BOXES[:1], KERNEL_QSPEC)


@pytest.mark.parametrize("weight", [PowerLogWeight(1, 1, -0.4), _conjugated()])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_ap_pairs_of_an_empty_batch_is_empty(weight, p):
    empty = weights.ap_pairs(weight, p, KERNEL_BOXES[:0], KERNEL_BOXES[:0], KERNEL_QSPEC)
    assert empty.shape == (0,)

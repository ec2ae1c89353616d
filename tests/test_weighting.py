"""The one weighting path against a direct loop over cubes and grid nodes.

Each reducing family here has a different random positive definite A_Q on
every cube, so any mix-up between a cube and the grid cells it owns (a
transposed block, a swapped axis, a wrong upsampling order) changes the
result.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matweight.dyadic import grid_points, grid_shape
from matweight.errors import InvalidExponentError
from matweight.geometry import CubeWindow, DyadicCube, cube_box
from matweight.reducing import ReducingFamily
from matweight.spaces import (CoefficientField, SpaceParams, cube_scalar_sequence,
                              seq_norm, weighted_fields)
from matweight.transform import BandLimitedFunction, build_filters, convolve_scale, peetre_sup
from matweight.weights import (ConjugatedBlockWeight, GridSampledWeight, PowerLogWeight,
                               identity_weight)

ORACLE = settings(max_examples=8, derandomize=True, deadline=None)

# (grid level of the filters, window levels) per dimension
GRIDS = {1: (6, (2, 5)), 2: (5, (2, 4))}

params_st = st.builds(SpaceParams, st.floats(-0.5, 0.5), st.floats(0.0, 0.6),
                      st.sampled_from([1.0, 2.0, 3.0]),
                      st.sampled_from([1.5, 2.0, math.inf]), st.sampled_from(["B", "F"]))


def _window(n):
    level, (j_min, j_max) = GRIDS[n]
    return CubeWindow(n, j_min, j_max, cube_box(n))


def _random_family(window, m, rng):
    mats, brackets = {}, {}
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        B = rng.standard_normal(counts + (m, m)) + 1j * rng.standard_normal(counts + (m, m))
        mats[j] = B @ np.conj(np.swapaxes(B, -1, -2)) + 0.1 * np.eye(m)
        brackets[j] = (np.ones(counts), np.ones(counts))
    return ReducingFamily(window, 2.0, "random", mats, brackets)


def _inside(X, Q):
    return np.all((X >= Q.lower) & (X < Q.lower + Q.side), axis=1)


def _oracle_seq_norm(t, params, factors, grid_level):
    """sup_P |P|^(-tau) ||{g_j}||_{LA(P^)} straight from the definition, with
    g_j(x) = 2^(js) |Q|^(-1/2) |M(x, Q) t_Q| for the level-j cube Q holding x;
    factors(X, cubes) returns the matrices M(x, Q) node by node."""
    window = t.window
    X = grid_points(window.box, grid_level)
    p, q = params.p, params.q
    g = {}
    for j in window.levels():
        cubes = [DyadicCube(j, tuple(int(v) for v in k)) for k in np.floor(X * 2.0 ** j)]
        vecs = np.einsum("nij,nj->ni", factors(X, cubes),
                         np.array([t.values[Q.j][window.index(Q)] for Q in cubes]))
        g[j] = 2.0 ** (j * params.s) * 2.0 ** (j * window.n / 2.0) * np.linalg.norm(vecs, axis=1)
    cellvol = 2.0 ** (-grid_level * window.n)
    best = 0.0
    for P in window.cubes():
        inside = _inside(X, P)
        G = np.array([g[j][inside] for j in window.levels() if j >= P.j])
        if params.kind == "B":
            masses = (np.sum(G ** p, axis=1) * cellvol) ** (1.0 / p)
            agg = masses.max() if math.isinf(q) else np.sum(masses ** q) ** (1.0 / q)
        else:
            inner = G.max(axis=0) if math.isinf(q) else np.sum(G ** q, axis=0) ** (1.0 / q)
            agg = (np.sum(inner ** p) * cellvol) ** (1.0 / p)
        best = max(best, P.volume ** (-params.tau) * agg)
    return best


class TestWeightingOracle:
    @ORACLE
    @given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, m=3, seed=0)
    @example(n=1, m=1, seed=1)
    def test_peetre_sup(self, n, m, seed):
        rng = np.random.default_rng(seed)
        level, _ = GRIDS[n]
        flt = build_filters(cube_box(n), level)
        window = _window(n)
        fam = _random_family(window, m, rng)
        shape = (m,) + (flt.N,) * n
        f = BandLimitedFunction(flt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got = peetre_sup(f, flt, fam, window)
        X = grid_points(flt.box, level)
        for j in window.levels():
            v = convolve_scale(f, flt, j).values().reshape(m, -1)
            for Q in window.cubes_at_level(j):
                applied = fam.matrix(Q) @ v[:, _inside(X, Q)]
                want = Q.volume ** 0.5 * np.linalg.norm(applied, axis=0).max()
                np.testing.assert_allclose(got[j][window.index(Q)], want, rtol=1e-12, atol=0)

    @ORACLE
    @given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, m=3, seed=0)
    @example(n=1, m=1, seed=1)
    def test_cube_scalar_sequence(self, n, m, seed):
        rng = np.random.default_rng(seed)
        window = _window(n)
        fam = _random_family(window, m, rng)
        t = CoefficientField.random(window, m, rng)
        got = cube_scalar_sequence(t, fam)
        for Q in window.cubes():
            want = np.linalg.norm(fam.matrix(Q) @ t.values[Q.j][window.index(Q)])
            np.testing.assert_allclose(got[Q.j][window.index(Q)], want, rtol=1e-12, atol=0)

    @ORACLE
    @given(n=st.sampled_from([1, 2]), params=params_st, a=st.floats(-0.6, 0.6),
           b=st.floats(-0.6, 0.6), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, params=SpaceParams(0.2, 0.3, 2.0, 1.5, "F"), a=-0.4, b=0.3, seed=0)
    @example(n=1, params=SpaceParams(-0.1, 0.5, 3.0, math.inf, "B"), a=0.5, b=-0.2, seed=1)
    def test_seq_norm_conjugated_weight(self, n, params, a, b, seed):
        rng = np.random.default_rng(seed)
        weight = ConjugatedBlockWeight(PowerLogWeight(n, 1, a), PowerLogWeight(n, 1, b))
        t = CoefficientField.random(_window(n), 2, rng)
        got = seq_norm(t, params, weight).value
        want = _oracle_seq_norm(t, params,
                                lambda X, cubes: weight.power_at(X, 1.0 / params.p),
                                t.window.j_max + 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @ORACLE
    @given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), params=params_st,
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, m=3, params=SpaceParams(0.2, 0.3, 2.0, 1.5, "F"), seed=0)
    @example(n=1, m=1, params=SpaceParams(-0.1, 0.5, 1.0, math.inf, "B"), seed=1)
    def test_seq_norm_family(self, n, m, params, seed):
        rng = np.random.default_rng(seed)
        window = _window(n)
        fam = _random_family(window, m, rng)
        t = CoefficientField.random(window, m, rng)
        got = seq_norm(t, params, fam).value
        want = _oracle_seq_norm(t, params, lambda X, cubes: np.array([fam.matrix(Q) for Q in cubes]),
                                window.j_max)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_matrix_weight_without_exponent_is_rejected():
    # W^(1/p) needs an exponent p_weight
    t = CoefficientField.random(_window(1), 2, np.random.default_rng(0))
    vecs = {j: np.moveaxis(v, -1, 0) for j, v in t.values.items()}
    with pytest.raises(InvalidExponentError):
        weighted_fields(vecs, identity_weight(1, 2), 0.1, t.window.box, t.window.j_max)


@ORACLE
@given(n=st.sampled_from([1, 2]), m=st.sampled_from([1, 2, 3]), real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, m=2, real=True, seed=0)
@example(n=2, m=3, real=False, seed=0)
def test_matrix_weight_fields_equal_the_pointwise_einsum(n, m, real, seed):
    """A matrix weight goes through the per-cube product with one cube per grid
    cell. For a real W^(1/p) the pointwise einsum it replaced gives the same
    fields bit for bit; for a complex one, einsum's complex products round
    differently."""
    rng = np.random.default_rng(seed)
    window = _window(n)
    grid_level = window.j_max + 2
    B = rng.standard_normal((4,) * n + (m, m))
    if not real:
        B = B + 1j * rng.standard_normal(B.shape)
    weight = GridSampledWeight(window.box, B @ np.conj(np.swapaxes(B, -1, -2)) + 0.1 * np.eye(m))
    vecs = {j: rng.standard_normal((m,) + tuple(window.counts_at_level(j)))
            + 1j * rng.standard_normal((m,) + tuple(window.counts_at_level(j)))
            for j in window.levels()}
    got = weighted_fields(vecs, weight, 0.3, window.box, grid_level, 1.5)
    shape = grid_shape(window.box, grid_level)
    wpow = weight.power_at(grid_points(window.box, grid_level), 1.0 / 1.5)
    if real:
        wpow = wpow.real  # power_at returns complex for a sampled weight
    for j, v in vecs.items():
        for ax in range(1, n + 1):
            v = np.repeat(v, shape[0] // v.shape[ax], axis=ax)
        applied = np.einsum("nij,nj->ni", wpow, v.reshape(m, -1).T)
        want = 2.0 ** (j * 0.3) * np.linalg.norm(applied, axis=1).reshape(shape)
        if real:
            assert np.array_equal(got[j], want)
        else:
            np.testing.assert_allclose(got[j], want, rtol=1e-14, atol=0)

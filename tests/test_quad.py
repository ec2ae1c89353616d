import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matweight import linalg, quad, weights
from matweight.apdim import ApDimConfig, a_sequence
from matweight.errors import IntegrabilityError, ResolutionError
from matweight.geometry import Box, batch_cube, cube_box, dilate
from matweight.quad import QuadSpec, average_box, average_boxes, box_nodes
from matweight.reducing import _cube_norms, unit_directions
from matweight.weights import PowerLogWeight, ProductPowerWeight, cube_average, cube_averages


def test_constant_average_exact():
    res = average_box(lambda x: np.ones(len(x)), Box((0.0,), (1.0,)))
    assert res.value == pytest.approx(1.0, abs=0)
    assert res.converged


def test_inverse_sqrt_singularity():
    # exact antiderivative: avg over [0, 1] of t^(-1/2) = 2
    res = average_box(lambda x: np.abs(x[:, 0]) ** -0.5, Box((0.0,), (1.0,)),
                      singular_points=[(0.0,)])
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=2e-4)


def test_interior_singularity():
    # int_{-1}^{1} |t|^(-1/2) dt = 4, so the average is 2
    res = average_box(lambda x: np.abs(x[:, 0]) ** -0.5, Box((-1.0,), (1.0,)),
                      singular_points=[(0.0,)])
    assert res.value == pytest.approx(2.0, rel=2e-4)


def test_power_divergence_raises():
    with pytest.raises(IntegrabilityError):
        average_box(lambda x: np.abs(x[:, 0]) ** -1.5, Box((0.0,), (1.0,)),
                    singular_points=[(0.0,)])


def test_first_round_over_budget_raises_resolution_error():
    with pytest.raises(ResolutionError, match="10"):
        average_box(lambda x: np.ones(len(x)), cube_box(1), QuadSpec(max_nodes=10))


def test_log_divergence_never_converges():
    res = average_box(lambda x: np.abs(x[:, 0]) ** -1.0, Box((0.0,), (1.0,)),
                      singular_points=[(0.0,)])
    assert not res.converged


def test_ball_average_offset_oracle():
    # the 1-D ball B(4, 1) is the box (3, 5): avg of t^(-1/2) = sqrt(5) - sqrt(3)
    res = average_box(lambda x: np.abs(x[:, 0]) ** -0.5, Box((3.0,), (5.0,)))
    assert res.value == pytest.approx(np.sqrt(5) - np.sqrt(3), rel=1e-5)


def test_matrix_valued_average():
    def fn(x):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = x[:, 0]
        out[:, 1, 1] = 1.0
        return out

    res = average_box(fn, Box((0.0,), (1.0,)))
    assert np.allclose(res.value, np.diag([0.5, 1.0]), atol=1e-9)


# ---------------------------------------------------------------------------
# closed-form oracles for the hp rule


def _power_average(e, lo, hi):
    """avg over [lo, hi] of |x|^e, in closed form."""
    F = lambda x: math.copysign(abs(x) ** (e + 1.0), x) / (e + 1.0)  # noqa: E731
    return (F(hi) - F(lo)) / (hi - lo)


def _scalar_average(weight, box, spec=None):
    return cube_average(weight, box, 1.0, 1.0, lambda mats: mats[:, 0, 0].real, spec)


ORACLE = settings(max_examples=25, derandomize=True, deadline=None)
TIGHT = QuadSpec(rel_tol=1e-9)


@st.composite
def _power_boxes(draw):
    """A box of side 2^-14..2^10 with the singular point 0 at a corner, in
    the interior or outside it (at least a quarter side away)."""
    side = 2.0 ** draw(st.integers(-14, 10))
    where = draw(st.sampled_from(("lo", "hi", "inside", "outside")))
    if where == "lo":
        lo = 0.0
    elif where == "hi":
        lo = -side
    elif where == "inside":
        lo = -side * draw(st.floats(0.01, 0.99))
    else:
        lo = side * draw(st.floats(0.25, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
        lo = lo if lo > 0.0 else lo - side
    return lo, lo + side


@ORACLE
@given(e=st.floats(-0.95, 1.0), box=_power_boxes())
@example(e=-0.5, box=(-512.0, 0.25))
@example(e=-0.9, box=(-0.5, 0.5))
@example(e=-0.9, box=(-512.0, 0.25))
def test_power_average_matches_closed_form(e, box):
    lo, hi = box
    res = _scalar_average(PowerLogWeight(1, 1, e), Box((lo,), (hi,)), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(_power_average(e, lo, hi), rel=1e-8)


@pytest.mark.parametrize("e, lo, hi", [(-0.5, -512.0, 0.25), (-0.9, -0.5, 0.5),
                                       (-0.9, -512.0, 0.25)])
def test_steep_power_averages_converge_at_the_default_spec(e, lo, hi):
    res = _scalar_average(PowerLogWeight(1, 1, e), Box((lo,), (hi,)))
    assert res.converged and res.rounds == 2
    assert res.value == pytest.approx(_power_average(e, lo, hi), rel=1e-6)


def _reference_integral(fn, lo, hi, sing, exps, points=20):
    """int_lo^hi fn by composite Gauss-Legendre, independent of quad: the
    interval is split at the singular points and at the midpoints between,
    each half next to a singular point s is graded geometrically toward it
    until the cells reach 1e-13 max(1, |s|), and the last cell [s, s + d]
    adds its leading term fn(s + d) (|x - s| / d)^e integrated exactly."""
    t, w = np.polynomial.legendre.leggauss(points)
    t, w = 0.5 * (t + 1.0), 0.5 * w

    def gl(a, b):
        x = a + (b - a) * t
        return (b - a) * float(w @ fn(x[:, None]))

    cuts = sorted({lo, hi, *(s for s in sing if lo < s < hi)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        for s, far in ((a, mid), (b, mid)):
            e = dict(zip(sing, exps)).get(s)
            if e is None:
                total += gl(min(s, far), max(s, far))
                continue
            levels = max(1, int(math.log2(abs(far - s) / (1e-13 * max(1.0, abs(s))))))
            edges = s + (far - s) * 0.5 ** np.arange(levels + 1)
            total += sum(gl(min(u, v), max(u, v)) for u, v in zip(edges[:-1], edges[1:]))
            d = abs(edges[-1] - s)
            g = float(fn(np.array([[edges[-1]]]))[0]) / d ** e
            total += g * d ** (e + 1.0) / (e + 1.0)
    return total


@ORACLE
@given(e1=st.floats(-0.9, 0.8), e2=st.floats(-0.9, 0.8), gap=st.floats(0.05, 1.0),
       left=st.floats(0.0, 1.0), right=st.floats(0.0, 1.0),
       scale=st.sampled_from((2.0 ** -10, 1.0, 2.0 ** 8)))
def test_two_point_product_average_matches_reference(e1, e2, gap, left, right, scale):
    c1, c2 = 0.3 * scale, (0.3 + gap) * scale
    lo, hi = c1 - left * gap * scale, c2 + right * gap * scale
    W = ProductPowerWeight(1, 1, ((c1,), (c2,)), (e1, e2))
    res = _scalar_average(W, Box((lo,), (hi,)), TIGHT)
    ref = _reference_integral(W.scalar_profile, lo, hi, (c1, c2), (e1, e2)) / (hi - lo)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("a", [-0.7, 0.4])
def test_a_sequence_matches_closed_form(a):
    """p = 2: a_i = max over the base cubes Q of avg_Q w * avg_{2^i Q} w^-1."""
    config = ApDimConfig(i_max=6, abut_levels=(-2, 6))
    vals, i_eff, batch = a_sequence(PowerLogWeight(1, 1, a), 2.0, config=config)
    cubes = [batch_cube(batch, c) for c in range(len(batch[0]))]
    for i in range(i_eff + 1):
        exact = max(_power_average(a, Q.lower[0] * 1.0, Q.lower[0] + Q.side)
                    * _power_average(-a, dilate(Q, 2.0 ** i).lo[0], dilate(Q, 2.0 ** i).hi[0])
                    for Q in cubes)
        assert vals[i] == pytest.approx(exact, rel=1e-6)


def test_one_point_rule_is_the_midpoint_rule():
    X, v, _ = box_nodes(Box((0.0,), (1.0,)), 2, 8, 1)
    assert np.array_equal(X[:, 0], [0.125, 0.375, 0.625, 0.875]) and np.all(v == 0.25)


# ---------------------------------------------------------------------------
# batches of boxes: one refine loop over many boxes equals the one-box calls

SINGULAR = {1: [(0.0,), (0.25,)], 2: [(0.0, 0.0), (0.25, 0.25)]}


@st.composite
def _batches(draw):
    """Boxes of one dimension with the singular points at corners, inside or
    outside them, some exponents unknown, chunk bounds for any integrand and
    for a scalar one small enough to split a round into several integrand
    calls or large enough for one, and an integrand of 1 value per node (as
    an (N,) or (N, 1) array, and scalar) or of 3."""
    n = draw(st.sampled_from((1, 2)))
    corner = st.sampled_from((-1.0, -0.25, 0.0, 0.25, 0.5))
    sides = st.sampled_from((0.25, 0.75, 2.0))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = [draw(corner) for _ in range(n)]
        boxes.append([lo, [a + draw(sides) for a in lo]])
    known = st.sampled_from(([-0.5, 0.3], [np.nan, np.nan]))
    exps = [draw(known) for _ in boxes] if n == 1 else None
    chunk, values = (draw(st.sampled_from((64, 2 ** 15))) for _ in range(2))
    return n, np.array(boxes), exps, chunk, values, draw(st.sampled_from((0, 1, 3)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(batch=_batches())
def test_batched_averages_equal_one_box_averages(batch):
    n, boxes, exps, chunk, values, cols = batch
    W = ProductPowerWeight(n, 1, SINGULAR[n], (-0.5, 0.3))

    def fn(X):  # cols 0: an (N,) array
        w = W.scalar_profile(X)
        return np.stack([w, w * X[:, 0], np.ones(len(X))][:cols], axis=1) if cols else w

    spec = QuadSpec(max_rounds=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "CHUNK_NODES", chunk)
        mp.setattr(quad, "CHUNK_VALUES", values)
        batched = average_boxes(fn, boxes, spec, SINGULAR[n], exponents=exps, scalar=cols < 3)
    for k, box in enumerate(boxes):
        one = average_box(fn, Box(tuple(box[0]), tuple(box[1])), spec, SINGULAR[n],
                          exponents=None if exps is None else exps[k])
        assert np.array_equal(batched[k].value, one.value)
        assert (batched[k].converged, batched[k].rounds) == (one.converged, one.rounds)
    for pos, X, v, sizes, tails in quad._box_chunks(boxes, SINGULAR[n], exps)(3, 20, 2,
                                                                         np.arange(len(boxes))):
        assert len(X) == len(v) == sizes.sum()
        for k, end, size, t in zip(pos, np.cumsum(sizes), sizes, tails):
            box = Box(tuple(boxes[k, 0]), tuple(boxes[k, 1]))
            Xk, vk, tk = box_nodes(box, 3, 20, 2, SINGULAR[n], None if exps is None else exps[k])
            assert np.array_equal(X[end - size:end], Xk)
            assert np.array_equal(v[end - size:end], vk) and t == tk


def test_one_box_over_budget_in_a_batch_raises():
    # plain boxes need 48 nodes in the first round (and stop unconverged
    # before the 128 of the second), the one at 0 more
    boxes = [[[1.0], [2.0]], [[0.0], [1.0]], [[3.0], [4.0]]]
    fn = lambda X: np.abs(X[:, 0]) ** -0.5  # noqa: E731
    plain = average_boxes(fn, boxes[::2], QuadSpec(max_nodes=60), [(0.0,)])
    assert np.all(plain.rounds == 1) and not plain.converged.any()
    with pytest.raises(ResolutionError, match="budget of 60"):
        average_boxes(fn, boxes, QuadSpec(max_nodes=60), [(0.0,)])


def test_non_integrable_box_in_a_batch_raises_before_quadrature(monkeypatch):
    W = PowerLogWeight(1, 1, -1.5)
    boxes = [[[1.0], [2.0]], [[-1.0], [1.0]], [[3.0], [4.0]]]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(weights, "average_boxes", no_quadrature)
    with pytest.raises(IntegrabilityError):
        cube_averages(W, boxes, 1.0, 1.0, lambda mats: mats[:, 0, 0].real)


def _spy_layouts(monkeypatch):
    """The list each quad._layouts call appends its (owner, pieces, corners) to."""
    laid, layouts = [], quad._layouts
    monkeypatch.setattr(quad, "_layouts", lambda *args: laid.append(layouts(*args)) or laid[-1])
    return laid


@pytest.mark.parametrize("n", [1, 2])
def test_singular_boxes_are_laid_out_once_per_batch(monkeypatch, n):
    # boxes at, around and away from the singular points, three rounds each
    laid = _spy_layouts(monkeypatch)
    boxes = [[np.full(n, a), np.full(n, a + s)] for a in (-1.0, 0.0, 0.5, 2.0) for s in (0.5, 2.0)]
    res = average_boxes(lambda X: np.abs(X[:, 0]) ** -0.5, boxes,
                        QuadSpec(rel_tol=1e-12, max_rounds=3), SINGULAR[n])
    singular = [k for k, (lo, hi) in enumerate(boxes)
                if any(np.all((lo <= s) & (s <= hi)) for s in np.array(SINGULAR[n]))]
    (owner, _, _), = laid
    assert res.rounds[singular].min() == 3 and np.unique(owner).tolist() == singular


@pytest.mark.parametrize("boxes, points, owner, pieces, corners", [
    # a point inside, the same point again, one at a corner of two boxes, one off them
    ([[[3.0], [4.0]], [[0.0], [1.0]], [[-1.0], [0.0]]], [(0.5,), (0.0,), (0.5,), (2.0,)],
     [1, 1, 2], [[0.0, 0.5], [0.5, 1.0], [-1.0, 0.0]],
     [[0, 0, -1], [0, 1, 1], [1, 0, 1], [2, 1, -1]]),
    # points at a corner, on a face and inside, the last two sharing x, the last
    # one listed twice, one off the box; pieces split x at 0.5 and y at 0.25
    ([[[0.0, 0.0], [1.0, 1.0]]], [(0.0, 0.0), (0.5, 0.0), (0.5, 0.25), (0.5, 0.25), (2.0, 2.0)],
     [0, 0, 0, 0],
     [[0.0, 0.0, 0.5, 0.25], [0.0, 0.25, 0.5, 1.0], [0.5, 0.0, 1.0, 0.25], [0.5, 0.25, 1.0, 1.0]],
     [[0, 0, 1, 1], [0, 1, -1, 1], [0, 2, -1, -1], [1, 2, -1, 1], [2, 1, 1, 1], [2, 2, 1, -1],
      [3, 2, 1, 1]]),
])
def test_layout_of_hand_written_boxes(monkeypatch, boxes, points, owner, pieces, corners):
    # corner rows are (piece, point, direction per axis), one per piece corner at
    # a point, from the first point listed there
    laid = _spy_layouts(monkeypatch)
    quad._box_chunks(np.array(boxes), points, None)
    (got_owner, got_pieces, got_corners), = laid
    assert got_owner.tolist() == owner and got_pieces.tolist() == pieces
    assert got_corners.tolist() == corners


@pytest.mark.parametrize("n, chunk", [(1, 2 ** 15), (1, 100), (2, 100)])
def test_integrand_calls_stay_within_the_chunk_bound(monkeypatch, n, chunk):
    # the bound is CHUNK_NODES nodes, or CHUNK_VALUES for an integrand known
    # to be scalar; 2-D boxes at a singular corner need more than 400 nodes
    # per round on their own: only such a box may reach the integrand above
    # the bound
    monkeypatch.setattr(quad, "CHUNK_NODES", chunk)
    monkeypatch.setattr(quad, "CHUNK_VALUES", 4 * chunk)
    rng = np.random.default_rng(0)
    lo = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], (400 if n == 1 else 40, n))
    boxes = np.stack([lo, lo + rng.choice([0.5, 1.0], (len(lo), 1))], axis=1)
    W = PowerLogWeight(n, 1, -0.5)
    spec = QuadSpec().for_dim(n)
    one_box = {len(box_nodes(Box(tuple(b[0]), tuple(b[1])), *quad._round_params(spec, rnd),
                             W.singular_points)[1]) for b in boxes for rnd in range(3)}
    calls = {}
    for scalar in (False, True):
        seen = calls[scalar] = []
        res = average_boxes(lambda X: seen.append(len(X)) or W.scalar_profile(X), boxes, spec,
                            W.singular_points, scalar=scalar)
        bound = 4 * chunk if scalar else chunk
        assert len(seen) > 1 and res.converged.all()
        assert all(c <= bound or c in one_box for c in seen)
        assert max(seen) > bound or n == 1
    # in 1-D the scalar bound merges boxes into larger chunks
    assert n > 1 or any(c > chunk and c not in one_box for c in calls[True])


@pytest.mark.parametrize("reducer", ["cube norms", "op_norm"])
def test_matrix_weight_cube_averages_keep_the_node_bound(reducer):
    # the reducing cube norms' integrand is 66 values wide, an op_norm
    # average's 1; a matrix weight's integrand is never the scalar one, so
    # either chunks at most CHUNK_NODES nodes, though a round needs several
    W = weights.ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3))
    seen, power_at = [], W.power_at
    W.power_at = lambda X, alpha: seen.append(len(X)) or power_at(X, alpha)
    boxes = np.stack([np.arange(-60.0, 60.0), np.arange(-59.0, 61.0)], axis=1)[:, :, None]
    spec = QuadSpec(max_rounds=2)
    if reducer == "op_norm":
        cube_averages(W, boxes, 1 / 1.5, 1.5, lambda mats: linalg.op_norm(mats) ** 1.5, spec)
    else:
        _cube_norms(W, 1.5, boxes, unit_directions(2, 64), qspec=spec)
    assert max(seen) <= quad.CHUNK_NODES < sum(seen[:2])


def test_integrand_calls_and_gauss_jacobi_lookups_of_one_a_sequence(monkeypatch):
    # one default scalar a-sequence: 882 301 nodes in 222 integrand calls
    # with 4 096-node chunks, in 59 with the value budget; each _build looks
    # up one Gauss-Jacobi rule per distinct exponent among its corners (69
    # lookups in all, against one per corner: 6 706)
    W = weights.two_singularity(0.4, 0.3, 2.0)
    calls, lookups, builds, profile = [], [], [], W.scalar_profile
    W.scalar_profile = lambda X: calls.append(len(X)) or profile(X)
    build, gauss_jacobi, gauss_legendre, inner = (quad._build, quad._gauss_jacobi,
                                                  quad._gauss_legendre, [])

    def uncounted_legendre(*args):  # its Gauss-Jacobi lookups are not _build's own
        inner.append(args)
        try:
            return gauss_legendre(*args)
        finally:
            inner.pop()

    def counted_jacobi(*args):
        if not inner:
            lookups.append(args)
        return gauss_jacobi(*args)

    def counted_build(*args):
        es, before = args[5], len(lookups)
        out = build(*args)
        builds.append((len(lookups) - before, np.unique(es[~np.isnan(es)]).size))
        return out

    monkeypatch.setattr(quad, "_build", counted_build)
    monkeypatch.setattr(quad, "_gauss_legendre", uncounted_legendre)
    monkeypatch.setattr(quad, "_gauss_jacobi", counted_jacobi)
    a_sequence(W, 2.0)
    assert len(calls) <= 64
    assert builds and all(got == distinct for got, distinct in builds)

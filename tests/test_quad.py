from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matweight import quad
from matweight.errors import IntegrabilityError, ResolutionError
from matweight.geometry import Box, cube_box
from matweight.quad import QuadSpec, average_ball, average_box, integrate_box


def test_constant_average_exact():
    res = average_box(lambda x: np.ones(len(x)), Box((0.0,), (1.0,)))
    assert res.value == pytest.approx(1.0, abs=0)
    assert res.converged


def test_inverse_sqrt_singularity():
    # exact antiderivative: int_0^1 t^(-1/2) dt = 2
    res = integrate_box(lambda x: np.abs(x[:, 0]) ** -0.5, Box((0.0,), (1.0,)),
                        singular_points=[(0.0,)])
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=2e-4)


def test_interior_singularity():
    # int_{-1}^{1} |t|^(-1/2) dt = 4
    res = integrate_box(lambda x: np.abs(x[:, 0]) ** -0.5, Box((-1.0,), (1.0,)),
                        singular_points=[(0.0,)])
    assert res.value == pytest.approx(4.0, rel=2e-4)


def test_power_divergence_raises():
    with pytest.raises(IntegrabilityError):
        integrate_box(lambda x: np.abs(x[:, 0]) ** -1.5, Box((0.0,), (1.0,)),
                      singular_points=[(0.0,)])


def test_first_round_over_budget_raises_resolution_error():
    with pytest.raises(ResolutionError, match="10"):
        average_box(lambda x: np.ones(len(x)), cube_box(1), QuadSpec(max_nodes=10))


def test_log_divergence_never_converges():
    res = integrate_box(lambda x: np.abs(x[:, 0]) ** -1.0, Box((0.0,), (1.0,)),
                        singular_points=[(0.0,)])
    assert not res.converged


def test_ball_average_offset_oracle():
    # avg over (3, 5) of t^(-1/2) = sqrt(5) - sqrt(3)
    res = average_ball(lambda x: np.abs(x[:, 0]) ** -0.5, (4.0,), 1.0)
    assert res.value == pytest.approx(np.sqrt(5) - np.sqrt(3), rel=1e-5)


def test_ball_average_2d_constant():
    res = average_ball(lambda x: np.ones(len(x)), (0.0, 0.0), 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_ball_average_2d_singular():
    # avg over the unit disc of |x|^(-1) = 2
    res = average_ball(lambda x: np.linalg.norm(x, axis=1) ** -1.0, (0.0, 0.0), 1.0,
                       singular_points=[(0.0, 0.0)])
    assert res.value == pytest.approx(2.0, rel=5e-3)


def test_matrix_valued_average():
    def fn(x):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = x[:, 0]
        out[:, 1, 1] = 1.0
        return out

    res = average_box(fn, Box((0.0,), (1.0,)))
    assert np.allclose(res.value, np.diag([0.5, 1.0]), atol=1e-9)


# ---------------------------------------------------------------------------
# graded mesh against the per-level numpy splitting it replaced

def _reference_grade_toward(lo, widths, sing, grade_depth, fp_floor):
    """Level-by-level chain splitting on numpy arrays (the frozen reference)."""

    def split(lo, widths):
        n = lo.shape[1]
        half = 0.5 * widths
        outs = []
        for off in range(2 ** n):
            bits = np.array([(off >> i) & 1 for i in range(n)], dtype=float)
            outs.append(lo + bits * half)
        return np.concatenate(outs, axis=0), np.tile(half, (2 ** n, 1))

    def contains(lo, widths, point, margin=1e-12):
        scaled = margin * np.maximum(widths, 1e-30)
        return np.all((point >= lo - scaled) & (point <= lo + widths + scaled), axis=1)

    n = lo.shape[1]
    out_lo = [np.empty((0, n))]
    out_w = [np.empty((0, n))]
    flagged = np.zeros(lo.shape[0], dtype=bool)
    for s in sing:
        flagged |= contains(lo, widths, s)
    out_lo.append(lo[~flagged])
    out_w.append(widths[~flagged])
    cur_lo, cur_w = lo[flagged], widths[flagged]
    for _ in range(grade_depth):
        if cur_lo.shape[0] == 0 or float(np.max(cur_w)) < fp_floor:
            break
        child_lo, child_w = split(cur_lo, cur_w)
        fl = np.zeros(child_lo.shape[0], dtype=bool)
        for s in sing:
            fl |= contains(child_lo, child_w, s)
        out_lo.append(child_lo[~fl])
        out_w.append(child_w[~fl])
        cur_lo, cur_w = child_lo[fl], child_w[fl]
    out_lo.append(cur_lo)
    out_w.append(cur_w)
    return (np.concatenate(out_lo, axis=0), np.concatenate(out_w, axis=0),
            cur_lo.shape[0])


def _bitwise_equal(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _against_reference(build):
    with mock.patch.object(quad, "_grade_toward", _reference_grade_toward):
        ref = build()
    _bitwise_equal(build(), ref)


# a singular point's position per axis, as a fraction of the box side:
# a corner, an interior dyadic lattice plane, or a generic point
_fraction = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.builds(lambda k, lev: k / 2 ** lev, st.integers(1, 7), st.integers(3, 9)),
    st.floats(0.0, 1.0),
)


@st.composite
def _box_cases(draw):
    n = draw(st.sampled_from((1, 2)))
    side = 2.0 ** draw(st.integers(-9, 6))
    shift = draw(st.sampled_from((0.0, 0.3)))
    lo = tuple(side * draw(st.integers(-4, 3)) + shift for _ in range(n))
    box = Box(lo, tuple(v + side for v in lo))
    sing = [tuple(v + side * draw(_fraction) for v in lo)
            for _ in range(draw(st.integers(1, 2)))]
    return box, sing


MESH_PROPERTY = settings(max_examples=20, derandomize=True, deadline=None)


class TestGradedMesh:
    @MESH_PROPERTY
    @given(case=_box_cases(), base_depth=st.integers(1, 3),
           grade_depth=st.sampled_from((16, 40, 64, 88)), emit_depth=st.integers(0, 2))
    @example(case=(Box((0.0,), (1.0,)), [(0.0,)]), base_depth=3, grade_depth=88,
             emit_depth=2)
    @example(case=(Box((-1.0, -1.0), (1.0, 1.0)), [(0.0, 0.0), (0.25, -1.0)]),
             base_depth=2, grade_depth=88, emit_depth=1)
    @example(case=(Box((-512.0, 0.0), (512.0, 1024.0)), [(0.1234567, 3.0 / 64)]),
             base_depth=3, grade_depth=64, emit_depth=0)
    def test_box_nodes_match_reference(self, case, base_depth, grade_depth, emit_depth):
        box, sing = case
        _against_reference(lambda: quad.box_nodes(box, base_depth, grade_depth, emit_depth,
                                                  sing, with_tail=True))

    @MESH_PROPERTY
    @given(case=_box_cases(), base_depth=st.integers(1, 3),
           grade_depth=st.sampled_from((16, 48, 88)), emit_depth=st.integers(0, 1),
           boundary_depth=st.integers(2, 5))
    @example(case=(Box((-1.0, -1.0), (1.0, 1.0)), [(0.0, 0.0), (0.5, 0.0)]),
             base_depth=2, grade_depth=88, emit_depth=1, boundary_depth=5)
    def test_ball_nodes_match_reference(self, case, base_depth, grade_depth, emit_depth,
                                        boundary_depth):
        box, sing = case
        center, radius = box.center, 0.5 * float(box.sides[0])
        _against_reference(lambda: quad.ball_nodes(center, radius, base_depth, grade_depth,
                                                   emit_depth, sing, boundary_depth))

    def test_grading_stops_at_fp_floor(self):
        lo, widths = quad._uniform_cells(Box((0.0,), (1.0,)), 3)
        glo, gw, tail = quad._grade_toward(lo, widths, [np.array([0.0])], 88, 1e-12)
        assert tail == 1 and glo[-1, 0] == 0.0
        assert 0.5e-12 <= gw[-1, 0] < 1e-12

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matweight.errors import CoverageError, ResolutionError
from matweight.geometry import (Box, CubeWindow, DyadicCube, batch_cube, cube_box, dilate,
                                dilated_boxes)
from matweight.reducing import build_family
from matweight.spaces import CoefficientField
from matweight.weights import PowerLogWeight


def test_unit_dilation_is_identity():
    Q = DyadicCube(0, (0,))
    box = dilate(Q, 1.0)
    assert np.allclose(box.lo_arr, Q.lower) and np.allclose(box.hi_arr, Q.lower + 1)


def test_double_interval():
    Q = DyadicCube(2, (1,))
    box = dilate(Q, 2.0)
    assert box.sides[0] == pytest.approx(2 * 2.0 ** -2)
    assert box.center[0] == pytest.approx(Q.center[0])


def test_window_levels_partition():
    win = CubeWindow(2, 1, 3)
    for j in win.levels():
        cubes = win.cubes_at_level(j)
        assert len(cubes) == 2 ** (2 * j)
        assert sum(Q.volume for Q in cubes) == pytest.approx(win.box.volume)
        rng = np.random.default_rng(j)
        for _ in range(20):
            x = win.box.lo_arr + rng.random(2) * win.box.sides
            assert sum(Q.contains_point(x) for Q in cubes) == 1


def test_out_of_domain_raises_and_clips():
    domain = cube_box(1)
    Q = DyadicCube(1, (0,))
    assert not domain.contains_box(dilate(Q, 8.0))
    assert domain.contains_box(dilate(Q, 1.0))


def test_misaligned_window_rejected():
    with pytest.raises(ResolutionError):
        CubeWindow(1, 0, 2, cube_box(1))  # level-0 cubes exceed the unit box


def test_negative_levels_on_large_domain():
    win = CubeWindow(1, -3, -2, cube_box(1, 16.0))
    cubes = win.cubes_at_level(-3)
    assert len(cubes) == 4 and cubes[0].side == 8.0


@pytest.mark.parametrize("Q", [DyadicCube(1, (-2,)), DyadicCube(1, (1,)),
                               DyadicCube(0, (0,)), DyadicCube(4, (0,))])
def test_cube_outside_window_raises_coverage_error(Q):
    # CubeWindow(1, 1, 3) holds the level-1 cubes k = -1, 0 of [-1/2, 1/2)
    win = CubeWindow(1, 1, 3)
    family = build_family(PowerLogWeight(1, 1, -0.5), 2.0, win)
    with pytest.raises(CoverageError):
        family.matrix(Q)
    with pytest.raises(CoverageError):
        CoefficientField(win, 1).set_cube(Q, [1.0])


@st.composite
def _windows(draw):
    """A window of one to three levels on a box of one to three level-j_min
    cubes per axis, anywhere near the origin."""
    n, j_min, span = draw(st.integers(1, 2)), draw(st.integers(-2, 2)), draw(st.integers(0, 2))
    k0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    size = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    h = 2.0 ** -j_min
    return CubeWindow(n, j_min, j_min + span,
                      Box(tuple(h * k for k in k0), tuple(h * (k + c) for k, c in zip(k0, size))))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(win=_windows())
def test_cell_index_agrees_with_cube_index(win):
    for Q in win.cubes():
        flat = np.ravel_multi_index(win.index(Q), tuple(win.counts_at_level(Q.j)))
        assert win.cell_index(Q.j, Q.center)[0] == flat
        assert win.cubes_at_level(Q.j)[flat] == Q


@settings(max_examples=30, derandomize=True, deadline=None)
@given(win=_windows())
def test_batch_lists_the_cubes_and_gives_the_boxes_of_dilate(win):
    # batch() and batch(j) in cubes() order, each box bitwise dilate's
    cubes = win.cubes()
    batch = win.batch()
    assert batch[0].shape == (len(cubes),) and batch[1].shape == (len(cubes), win.n)
    assert [batch_cube(batch, i) for i in range(len(cubes))] == cubes
    for j in win.levels():
        level = win.batch(j)
        assert [batch_cube(level, i) for i in range(len(level[0]))] == win.cubes_at_level(j)
    lams = [0.5, 1.0, 2.0, 8.0]
    boxes = dilated_boxes(batch, lams)
    assert boxes.shape == (len(cubes), len(lams), 2, win.n)
    for Q, row in zip(cubes, boxes):
        for lam, (lo, hi) in zip(lams, row):
            box = dilate(Q, lam)
            assert np.array_equal(lo, box.lo_arr) and np.array_equal(hi, box.hi_arr)

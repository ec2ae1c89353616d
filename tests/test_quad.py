import numpy as np
import pytest

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

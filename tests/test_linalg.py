import numpy as np
import pytest

from matweight import linalg
from matweight.errors import DegenerateMatrixError


def test_matrix_power_identity():
    assert np.allclose(linalg.matrix_power(np.eye(2), 0.5), np.eye(2))


def test_matrix_power_diagonal():
    got = linalg.matrix_power(np.diag([4.0, 9.0]), 0.5)
    assert np.allclose(got, np.diag([2.0, 3.0]))


def test_matrix_power_cube_root_composes():
    # oracle: composing the third root three times via plain matmul
    rng = np.random.default_rng(0)
    for _ in range(20):
        P = linalg.random_psd(rng, 3, cond_max=1e6)
        R = linalg.matrix_power(P, 1.0 / 3.0)
        back = R @ R @ R
        assert np.max(np.abs(back - P)) <= 1e-10 * linalg.op_norm(P)


def test_matrix_power_additive_exponents():
    rng = np.random.default_rng(1)
    for _ in range(20):
        P = linalg.random_psd(rng, 2, cond_max=1e6)
        a, b = rng.uniform(-1.5, 1.5, size=2)
        lhs = linalg.matrix_power(P, a) @ linalg.matrix_power(P, b)
        rhs = linalg.matrix_power(P, a + b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * linalg.op_norm(rhs)


def test_matrix_power_one_is_identity_map():
    rng = np.random.default_rng(2)
    P = linalg.random_psd(rng, 3)
    assert np.max(np.abs(linalg.matrix_power(P, 1.0) - P)) <= 1e-12 * linalg.op_norm(P)


def test_matrix_power_degenerate_raises():
    with pytest.raises(DegenerateMatrixError):
        linalg.matrix_power(np.diag([1.0, 0.0]), 0.5)


def test_op_norm_identity_and_diagonal():
    assert linalg.op_norm(np.eye(3)) == pytest.approx(1.0)
    assert linalg.op_norm(np.diag([2.0, 3.0])) == pytest.approx(3.0)


def test_op_norm_exchange_identity_psd():
    # ||AB|| = ||BA|| for nonnegative definite pairs
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        A = linalg.random_psd(rng, m, cond_max=1e4)
        B = linalg.random_psd(rng, m, cond_max=1e4)
        nab = linalg.op_norm(A @ B)
        nba = linalg.op_norm(B @ A)
        worst = max(worst, abs(nab - nba) / max(nab, 1e-300))
    assert worst <= 1e-12


def _with_singular_values(rng, s, shape, real):
    """U diag(s) V* for random unitary (orthogonal when real) U, V of batch shape."""
    def unitary():
        z = rng.standard_normal(shape + (2, 2))
        return np.linalg.qr(z if real else z + 1j * rng.standard_normal(shape + (2, 2)))[0]
    return (unitary() * np.asarray(s)) @ np.conj(np.swapaxes(unitary(), -1, -2))


@pytest.mark.parametrize("shape", [(), (3, 4)])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("ratio", [1.0, 1 - 1e-12, 1 - 1e-8, 0.5, 0.0])
def test_op_norm_2x2_matches_svd(ratio, scale, real, shape):
    # s2/s1 from isotropic (where a cancelling closed form loses ~1e-8) to rank 1
    rng = np.random.default_rng(5)
    A = _with_singular_values(rng, [scale, scale * ratio], shape, real)
    got = linalg.op_norm(A)
    ref = np.linalg.svd(A, compute_uv=False)[..., 0]
    assert np.shape(got) == shape
    np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0)


def test_op_norm_2x2_rank_one_and_zero():
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal((2, 3, 4, 2)) + 1j * rng.standard_normal((2, 3, 4, 2))
    A = u[..., :, None] * np.conj(v[..., None, :])
    ref = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    np.testing.assert_allclose(linalg.op_norm(A), ref, rtol=4e-15, atol=0)
    assert linalg.op_norm(np.zeros((2, 2))) == 0.0
    assert np.array_equal(linalg.op_norm(np.zeros((3, 4, 2, 2))), np.zeros((3, 4)))


@pytest.mark.parametrize("m", [1, 3])
def test_op_norm_other_sizes_match_svd(m):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
    ref = np.linalg.svd(A, compute_uv=False)[..., 0]
    got = linalg.op_norm(A)
    if m == 3:
        assert np.array_equal(got, ref)
    np.testing.assert_allclose(got, ref, rtol=4e-15, atol=0)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(4)
    for _ in range(100):
        A = linalg.hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        B = linalg.hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert linalg.op_norm(A @ B) <= linalg.op_norm(A) * linalg.op_norm(B) + 1e-12



@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_coords_rebuild_the_matrix(d):
    rng = np.random.default_rng(d)
    A = np.stack([linalg.hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                  for _ in range(5)])
    E = linalg.hermitian_basis(d)
    assert E.shape == (d * d, d, d) and np.array_equal(E, np.conj(np.swapaxes(E, -1, -2)))
    c = linalg.hermitian_coords(A)
    assert c.shape == (5, d * d) and c.dtype == float
    assert np.array_equal(np.einsum("na,aij->nij", c, E), A)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
def test_norm_power_matches_svd(m, s):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 7, m, m)) + 1j * rng.standard_normal((6, 7, m, m))
    planes = np.moveaxis(A, (-2, -1), (0, 1))
    got = linalg.norm_power(planes.real, planes.imag, s)
    ref = np.linalg.svd(A, compute_uv=False)[..., 0] ** s
    assert got.shape == (6, 7)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("q", [1, 4, 9])
def test_matmul_entries_do_not_depend_on_the_shape(q):
    # one row, a column count off a multiple of 8 and either memory order, in
    # products large enough for the blocked BLAS path, against one product
    rng = np.random.default_rng(q)
    a, b = rng.standard_normal((1500, q)), rng.standard_normal((q, 2003))
    whole = linalg.matmul(a, b)
    np.testing.assert_allclose(whole, a @ b, rtol=0, atol=1e-13)
    for r0, r1, c0, c1 in [(0, 1, 0, 2003), (7, 1500, 3, 2001), (700, 701, 5, 1006),
                           (1, 1499, 0, 1997), (300, 1300, 999, 2003)]:
        part = linalg.matmul(a[r0:r1], b[:, c0:c1])
        assert np.array_equal(part, whole[r0:r1, c0:c1])
        assert np.array_equal(linalg.matmul(np.asfortranarray(a[r0:r1]), b[:, c0:c1].T.copy().T),
                              part)

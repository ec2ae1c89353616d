"""Small Hermitian-matrix kernel: fractional powers, operator norms, definiteness.

All matrices here are tiny (m <= 4); batched inputs use the leading axes.
Powers and definiteness go through dense eigendecompositions. Operator
norms of 1 x 1 and 2 x 2 matrices are closed-form; larger ones use the SVD.
"""

import numpy as np

from .errors import DegenerateMatrixError

# Relative eigenvalue floor: lambda_min must exceed REL_EIG_TOL * lambda_max
# before a fractional/negative power is taken.
REL_EIG_TOL = 1e-12


def read_only(a, dtype=None):
    """a as a read-only array, so that a cache keyed on its identity stays
    valid: an array is locked in place, a view is copied, since writes
    through its base would bypass the flag."""
    a = np.asarray(a, dtype=dtype)
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


def hermitize(a):
    """Symmetrize a (..., m, m) array: 0.5*(A + A*)."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def op_norm(a):
    """Largest singular value of a (possibly batched) matrix.

    For positive semidefinite input this equals the largest eigenvalue.
    A 1 x 1 matrix gives |a|. A 2 x 2 matrix A, scaled by its largest entry
    modulus, gives sqrt((alpha + gamma)/2 + hypot((alpha - gamma)/2, beta))
    from its Gram matrix A*A = [[alpha, b], [conj(b), gamma]], beta = |b|:
    every term is a sum of squares, so nothing cancels. Any other shape
    takes the SVD.
    """
    a = np.asarray(a)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a.astype(complex), compute_uv=False)[..., 0]
    scale = np.max(np.abs(a), axis=(-2, -1))
    b = a / np.where(scale > 0, scale, 1.0)[..., None, None]
    sq = (b * np.conj(b)).real
    alpha = sq[..., 0, 0] + sq[..., 1, 0]
    gamma = sq[..., 0, 1] + sq[..., 1, 1]
    beta = np.abs(np.conj(b[..., 0, 0]) * b[..., 0, 1] + np.conj(b[..., 1, 0]) * b[..., 1, 1])
    return scale * np.sqrt(0.5 * (alpha + gamma) + np.hypot(0.5 * (alpha - gamma), beta))


def matrix_power(p, alpha, tol=None):
    """U diag(lambda_i^alpha) U* for a positive definite (..., m, m) array.

    The result is independent of the eigenvector choice. Raises
    DegenerateMatrixError when an eigenvalue sits at or below the tolerance
    (default 1e-12 relative to the largest eigenvalue of each matrix).
    """
    p = hermitize(p)
    lam, u = np.linalg.eigh(p)
    if tol is None:
        floor = REL_EIG_TOL * lam[..., -1]
    else:
        floor = np.broadcast_to(np.asarray(tol, dtype=float), lam[..., -1].shape)
    if np.any(lam[..., 0] <= floor):
        worst = float(np.min(lam[..., 0]))
        raise DegenerateMatrixError(
            f"matrix power {alpha}: eigenvalue {worst:.3e} at or below tolerance"
        )
    powed = lam ** alpha
    return hermitize(np.einsum("...ij,...j,...kj->...ik", u, powed, np.conj(u)))


def random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return hermitize(scale * a)


def random_psd(rng, m, cond_max=1e6):
    """Random positive definite matrix with condition number <= cond_max."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, _ = np.linalg.qr(a)
    lam_exp = rng.uniform(0.0, np.log(cond_max), size=m)
    lam = np.exp(lam_exp - lam_exp.max())
    return hermitize((q * lam) @ np.conj(q.T))

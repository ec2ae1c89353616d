"""Small Hermitian-matrix kernel: fractional powers, operator norms, coordinates.

All matrices here are tiny (m <= 4); batched inputs use the leading axes,
except in norm_power, which takes the real and imaginary parts of a batch
(or the real part alone, for real matrices) with the matrix axes first, one
plane per entry. Powers go through dense eigendecompositions. Operator norms
of 1 x 1 and 2 x 2 matrices are closed-form; larger ones use the SVD. A
Hermitian matrix has m^2 real coordinates in hermitian_basis, read off by
hermitian_coords, and a real symmetric one m(m+1)/2, its upper triangle, so a
product with a batch of them is one real matrix product.
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
    A 1 x 1 matrix gives |a|. A 2 x 2 matrix, scaled by its largest entry
    modulus, takes the closed form of norm_power. Any other shape takes the
    SVD.
    """
    a = np.asarray(a)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a.astype(complex), compute_uv=False)[..., 0]
    scale = np.max(np.abs(a), axis=(-2, -1))
    b = np.moveaxis(a / np.where(scale > 0, scale, 1.0)[..., None, None], (-2, -1), (0, 1))
    return scale * np.sqrt(norm_power(b.real, b.imag, 2.0))


def norm_power(re, im, s):
    """||A||^s of the matrices A = re + i im, given as real (m, m, ...)
    arrays with the matrix axes first, so each entry is one plane; im=None
    for real A drops the terms that would be exact zeros, with the value of
    im = 0 bit for bit.

    For m = 2 it is lambda_max(A*A)^(s/2), with A*A = [[alpha, b], [conj(b),
    gamma]] and lambda_max = (alpha + gamma)/2 + sqrt(((alpha - gamma)/2)^2 +
    |b|^2): every term is a sum of squares, so nothing cancels, and s = 2
    takes no power. The squares under the root are quartic in the entries,
    so they stay finite and normal for entries between about 1e-75 and 1e75
    (op_norm scales its input to a largest entry modulus of 1). Other m
    rebuild A and take op_norm(A) ** s.
    """
    if re.shape[:2] != (2, 2):
        A = re if im is None else re + 1j * im
        return op_norm(np.moveaxis(A, (0, 1), (-2, -1))) ** s
    (r00, r01), (r10, r11) = re
    if im is None:
        alpha, gamma = r00 * r00 + r10 * r10, r01 * r01 + r11 * r11
        b_re = r00 * r01 + r10 * r11
    else:
        (i00, i01), (i10, i11) = im
        alpha = (r00 * r00 + i00 * i00) + (r10 * r10 + i10 * i10)
        gamma = (r01 * r01 + i01 * i01) + (r11 * r11 + i11 * i11)
        b_re = (r00 * r01 + i00 * i01) + (r10 * r11 + i10 * i11)
        b_im = (r00 * i01 - i00 * r01) + (r10 * i11 - i10 * r11)
    h = 0.5 * (alpha - gamma)
    q = h * h + b_re * b_re
    lam = 0.5 * (alpha + gamma) + np.sqrt(q if im is None else q + b_im * b_im)
    return lam if s == 2.0 else lam ** (0.5 * s)


def hermitian_basis(d, real=False):
    """A basis (D, d, d) of the real space of Hermitian (D = d^2) or, with
    real=True, real symmetric (D = d(d+1)/2, a real array) d x d matrices,
    orthogonal under <A, B> = Re tr(A* B). Row by row, each diagonal unit is
    followed by the pairs above it: E_kl + E_lk, then i (E_kl - E_lk) unless
    real."""
    E = []
    for k in range(d):
        for l in range(k, d):
            E.append(np.zeros((d, d), float if real else complex))
            E[-1][k, l] = E[-1][l, k] = 1.0
            if l > k and not real:
                E.append(np.zeros((d, d), complex))
                E[-1][k, l], E[-1][l, k] = 1j, -1j
    return np.array(E)


def hermitian_coords(a):
    """The real coordinates (..., d^2) of Hermitian (..., d, d) matrices in
    hermitian_basis(d), read off the upper triangle without arithmetic: the
    diagonal entries' real parts, the off-diagonal entries' real and
    imaginary parts."""
    a = np.asarray(a)
    k, l = np.triu_indices(a.shape[-1])
    parts = np.stack([a[..., k, l].real, a[..., k, l].imag], axis=-1)
    keep = np.flatnonzero(np.stack([np.ones(len(k), bool), k != l], axis=-1))
    return parts.reshape(parts.shape[:-2] + (-1,))[..., keep]


def matmul(a, b):
    """a @ b for real (r, q) and (q, c) arrays, each entry the same dot
    product whatever r and c: OpenBLAS takes a one-row product to gemv and
    the last c % 8 columns of a large product to other kernels, whose
    rounding can differ, so a is padded to two rows and b to a multiple of 8
    columns with zeros, and the padding is cut off the result."""
    r, c = len(a), b.shape[1]
    if r == 1:
        a = np.pad(a, ((0, 1), (0, 0)))
    if c % 8:
        b = np.pad(b, ((0, 0), (0, -c % 8)))
    return (a @ b)[:r, :c]


def matrix_power(p, alpha):
    """U diag(lambda_i^alpha) U* for a positive definite (..., m, m) array.

    The result is independent of the eigenvector choice. Raises
    DegenerateMatrixError when an eigenvalue sits at or below REL_EIG_TOL
    times the largest eigenvalue of its matrix.
    """
    p = hermitize(p)
    lam, u = np.linalg.eigh(p)
    if np.any(lam[..., 0] <= REL_EIG_TOL * lam[..., -1]):
        worst = float(np.min(lam[..., 0]))
        raise DegenerateMatrixError(
            f"matrix power {alpha}: eigenvalue {worst:.3e} at or below tolerance"
        )
    powed = lam ** alpha
    return hermitize(np.einsum("...ij,...j,...kj->...ik", u, powed, np.conj(u)))


def random_psd(rng, m, cond_max=1e6):
    """Random positive definite matrix with condition number <= cond_max."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, _ = np.linalg.qr(a)
    lam_exp = rng.uniform(0.0, np.log(cond_max), size=m)
    lam = np.exp(lam_exp - lam_exp.max())
    return hermitize((q * lam) @ np.conj(q.T))

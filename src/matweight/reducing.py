"""Reducing operators: one positive definite matrix per cube whose ellipsoid
norm is two-sided equivalent to the L^p cube-average norm of the weight.

At p = 2 the unit ball of z -> (avg |W^(1/2/... )z|^2)^(1/2) is exactly an
ellipsoid and the operator is (avg_Q W)^(1/2). For general p the operator is
fitted: the ball is circled (invariant under z -> e^(i theta) z), so its
boundary samples in C^m are enclosed by the minimum-volume circled ellipsoid
{z : z*Hz <= 1}, fitted by Khachiyan and Wolfe-Atwood away steps, and the
operator is H^(1/2). Every constructed operator carries an empirical
equivalence bracket.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import FitError, IntegrabilityError
from .quad import QuadSpec, box_nodes
from .weights import _as_box, cube_average, dual_weight


# ---------------------------------------------------------------------------
# direction sampling

def _kronecker_sequence(count, dim):
    """Low-discrepancy points in [0,1)^dim (additive golden-like recurrence)."""
    x = 2.0
    for _ in range(40):
        x = (1.0 + x) ** (1.0 / (dim + 1.0))
    alpha = x ** -(1.0 + np.arange(dim))
    i = np.arange(1, count + 1)[:, None]
    return np.mod(0.5 + i * alpha[None, :], 1.0)


def unit_directions(m, K):
    """K quasi-uniform unit vectors in C^m (deterministic), plus the basis."""
    if m == 1:
        return np.ones((1, 1), dtype=complex)
    u = _kronecker_sequence(K, 2 * m)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    # Box-Muller pairs -> quasi-gaussian coordinates -> normalize
    r = np.sqrt(-2.0 * np.log(u[:, :m]))
    th = 2.0 * np.pi * u[:, m:]
    g = np.concatenate([r * np.cos(th), r * np.sin(th)], axis=1)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    z = g[:, :m] + 1j * g[:, m:]
    z = np.concatenate([np.eye(m, dtype=complex), z], axis=0)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# cube quasi-norms

_DIAG_K = 64  # sampled directions, beyond the basis, of the calibration and the brackets


def _cube_norms(weight, p, region, dirs, identity=False, qspec=None):
    """One cube average giving rho_Q(z) = (avg |W^(1/p) z|^p)^(1/p) for each
    row z of dirs and, with identity=True, (avg ||W^(1/p)||^p)^(1/p)."""

    def reducer(Ws):
        vals = np.linalg.norm(Ws @ dirs.T, axis=1)
        if identity:
            vals = np.concatenate([vals, linalg.op_norm(Ws)[:, None]], axis=1)
        return vals ** p

    res = cube_average(weight, region, 1.0 / p, p, reducer, qspec, name="cube norm")
    vals = np.asarray(res.value) ** (1.0 / p)
    return vals[:len(dirs)], vals[len(dirs):]


class CubeNorm:
    """z -> (avg over Q of |W^(1/p)(x) z|^p dx)^(1/p), batched over directions."""

    def __init__(self, weight, p, region, qspec=None):
        self.weight = weight
        self.p = float(p)
        self.box = _as_box(region)
        self.qspec = qspec

    def bundle(self, dirs):
        """Values on a (K, m) array of directions in one quadrature pass."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=complex))
        return _cube_norms(self.weight, self.p, self.box, dirs, qspec=self.qspec)[0]

    def __call__(self, z):
        return float(self.bundle(np.asarray(z, dtype=complex)[None, :])[0])


def cube_norm(weight, p, region, z, qspec=None):
    return CubeNorm(weight, p, region, qspec)(z)


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid (origin-centered)

_MVEE_TOL = 1e-8
# near-degenerate clouds (a fifth point almost on the optimal ellipsoid in
# C^2) need many away steps: of 840 fits of conjugated block weights at
# p = 1.5 the median took about 1 000 steps and the slowest 24 424
_MVEE_MAX_ITER = 100_000
_MVEE_FAIL = 0.05
_MVEE_REFRESH = 256  # steps between full recomputations of X^(-1)


def mvee_centered(points):
    """Origin-centered minimum-volume enclosing ellipsoid {z : z*Hz <= 1}.

    The rows of points are real (the ellipsoid of the symmetric set +-z_i)
    or complex (the circled ellipsoid of the set e^(i theta) z_i). Weights u
    on the points give X = sum u_i z_i z_i* and scores z_i* X^(-1) z_i, d =
    the column count; each step moves weight toward the largest score
    (Khachiyan) or away from the smallest score on the support
    (Wolfe-Atwood), whichever is further from d, and the fit stops when
    every score on the support is within _MVEE_TOL of d and none exceeds it
    by more. Returns H = X^(-1) / d; raises FitError if the violation after
    _MVEE_MAX_ITER steps is above _MVEE_FAIL.
    """
    P = np.asarray(points)
    Pc = P.conj()
    N, d = P.shape
    u = np.full(N, 1.0 / N)
    viol = np.inf
    for it in range(_MVEE_MAX_ITER):
        if it % _MVEE_REFRESH == 0:
            Xinv = np.linalg.inv(P.T @ (Pc * u[:, None]))
            M = np.einsum("ni,ij,nj->n", Pc, Xinv, P).real
        j = int(np.argmax(M))
        k = int(np.argmin(np.where(u > 0.0, M, np.inf)))
        up, down = M[j] / d - 1.0, 1.0 - M[k] / d
        viol = max(up, down)
        if viol < _MVEE_TOL:
            break
        if up >= down:  # Khachiyan step toward z_j
            beta = (M[j] - d) / (d * (M[j] - 1.0))
        else:  # away step off z_k, clipped where u_k reaches 0
            # (the volume grows all the way to the clip when M_k <= 1)
            j, drop = k, -u[k] / (1.0 - u[k])
            beta = max((M[k] - d) / (d * (M[k] - 1.0)), drop) if M[k] > 1.0 else drop
        u *= 1.0 - beta
        u[j] = 0.0 if up < down and beta == drop else u[j] + beta  # no rounding residue
        if beta == 1.0:  # only at d = 1, where all weight on one point is optimal
            viol = 0.0
            break
        # Sherman-Morrison update of Xinv and the scores M
        v = Xinv @ P[j]
        denom = (1.0 - beta) + beta * M[j]
        Xinv = (Xinv - (beta / denom) * np.outer(v, v.conj())) / (1.0 - beta)
        M = (M - (beta / denom) * np.abs(Pc @ v) ** 2) / (1.0 - beta)
    if viol > _MVEE_FAIL:
        raise FitError(f"ellipsoid fit stalled at violation {viol:.2e}")
    return np.linalg.inv(P.T @ (Pc * u[:, None])) / d


# ---------------------------------------------------------------------------
# reducing operators

def _bracket(A, dirs, rho, den=()):
    """[lo, hi] of |Az| / rho_Q(z) over the rows z of dirs and, given den =
    (avg ||W^(1/p)||^p)^(1/p), of the identity's ||A|| / den."""
    ratios = np.linalg.norm(dirs @ A.T, axis=1) / rho
    if len(den):
        ratios = np.append(ratios, linalg.op_norm(A) / den)
    return float(ratios.min()), float(ratios.max())


def _reduce(weight, p, region, method, K, qspec):
    """The calibrated operator A_Q and its bracket.

    One cube average gives rho_Q on unit_directions(m, max(K, _DIAG_K)) and
    the test-matrix norms; exact_p2 adds one for avg_Q W. The MVEE fit
    reads the first K + m directions (unit_directions is prefix-stable),
    the calibration centres |Az| / rho_Q(z) over the first _DIAG_K + m
    geometrically at 1, and the bracket covers those directions and the
    identity (the matrix units would repeat the basis-direction ratios).
    """
    if method == "auto":
        method = "exact_p2" if p == 2.0 else "mvee"
    if method not in ("exact_p2", "mvee"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact_p2" and p != 2.0:
        raise ValueError("exact_p2 construction requires p = 2")
    m = weight.m
    dirs = unit_directions(m, max(K, _DIAG_K))
    rho, den = _cube_norms(weight, p, region, dirs, True, qspec)
    if method == "exact_p2":
        avg = cube_average(weight, region, 1.0, 1.0, lambda Ws: Ws, qspec,
                           name="matrix average")
        A = linalg.matrix_power(avg.value, 0.5)
    else:
        A = linalg.matrix_power(mvee_centered(dirs[:K + m] / rho[:K + m, None]), 0.5)
    diag = _DIAG_K + m
    lo, hi = _bracket(A, dirs[:diag], rho[:diag])
    A = A / np.sqrt(lo * hi)
    return A, _bracket(A, dirs[:diag], rho[:diag], den)


def reduce_operator(weight, p, region, method="auto", K=256, qspec=None):
    """A positive definite matrix A with |Az| equivalent to the cube norm.

    method 'exact_p2' requires p = 2 and returns (avg_Q W)^(1/2); 'mvee'
    fits the quasi-norm ball for any p. The result is rescaled so its
    equivalence bracket is geometrically centered at 1.
    """
    return _reduce(weight, p, region, method, K, qspec)[0]


def dual_reduce(weight, p, region, method="auto", K=256, qspec=None):
    """Reducing operator of order p' for the dual weight W^(-1/(p-1))."""
    pprime = p / (p - 1.0)
    return reduce_operator(dual_weight(weight, p), pprime, region, method, K, qspec)


def verify_reducing(A, weight, p, region, K=64, qspec=None, include_matrices=True):
    """Bracket [r_lo, r_hi] of |Az| / rho_Q(z) over sampled directions and,
    with include_matrices=True, of the identity's ||A|| / (avg ||W^(1/p)||^p)^(1/p)."""
    dirs = unit_directions(weight.m, max(K, _DIAG_K))
    rho, den = _cube_norms(weight, p, region, dirs, include_matrices, qspec)
    return _bracket(np.asarray(A, dtype=complex), dirs, rho, den)


# ---------------------------------------------------------------------------
# families over a window

@dataclass
class ReducingFamily:
    """One reducing operator per window cube, with per-cube brackets."""

    window: object
    p: float
    method: str
    mats: dict       # level -> array (counts..., m, m)
    inv: dict        # level -> array (counts..., m, m)
    brackets: dict   # level -> (lo array, hi array)
    m: int

    def matrix(self, Q):
        return self.mats[Q.j][self.window.index(Q)]

    def inverse(self, Q):
        return self.inv[Q.j][self.window.index(Q)]

    def bracket(self, Q):
        lo, hi = self.brackets[Q.j]
        return float(lo[self.window.index(Q)]), float(hi[self.window.index(Q)])

    def level_field(self, j):
        """A_j = sum_Q A_Q 1_Q as a (counts..., m, m) array."""
        return self.mats[j]

    def _cell_index(self, j, X):
        X = np.atleast_2d(X)
        k_lo, k_hi = self.window._level_index_ranges(j)
        shape = tuple(k_hi - k_lo)
        rel = X * 2.0 ** j - k_lo
        idx = np.clip(np.floor(rel).astype(int), 0, np.asarray(shape) - 1)
        return np.ravel_multi_index(tuple(idx.T), shape)

    def at_points(self, j, X):
        flat = self.mats[j].reshape(-1, self.m, self.m)
        return flat[self._cell_index(j, X)]

    def inverse_at_points(self, j, X):
        flat = self.inv[j].reshape(-1, self.m, self.m)
        return flat[self._cell_index(j, X)]

    def worst_bracket(self):
        lo = min(float(l.min()) for l, _ in self.brackets.values())
        hi = max(float(h.max()) for _, h in self.brackets.values())
        return lo, hi


_family_cache = {}


def family_cache_key(weight, p, window, method, K, qspec):
    payload = json.dumps({
        "weight": weight.descriptor(), "p": p, "window": window.descriptor(),
        "method": method, "K": K,
        "qspec": asdict(qspec or QuadSpec()),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def build_family(weight, p, window, method="auto", K=256, qspec=None):
    """Construct reducing operators for every cube of the window; each cube's
    bracket covers _DIAG_K + m directions and the identity, from the same
    cube average as its operator."""
    key = family_cache_key(weight, p, window, method, K, qspec)
    if key in _family_cache:
        return _family_cache[key]
    mats, invs, brackets = {}, {}, {}
    m = weight.m
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        A = np.zeros(counts + (m, m), dtype=complex)
        lo_arr = np.zeros(counts)
        hi_arr = np.zeros(counts)
        for Q in window.cubes_at_level(j):
            idx = window.index(Q)
            A[idx], (lo_arr[idx], hi_arr[idx]) = _reduce(weight, p, Q, method, K, qspec)
        mats[j] = A
        invs[j] = np.linalg.inv(A)
        brackets[j] = (lo_arr, hi_arr)
    fam = ReducingFamily(window, float(p), method, mats, invs, brackets, m)
    _family_cache[key] = fam
    return fam


def identity_family(window, m, p=2.0):
    mats, invs, brackets = {}, {}, {}
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        eye = np.broadcast_to(np.eye(m, dtype=complex), counts + (m, m)).copy()
        mats[j] = eye
        invs[j] = eye.copy()
        brackets[j] = (np.ones(counts), np.ones(counts))
    return ReducingFamily(window, float(p), "identity", mats, invs, brackets, m)


# ---------------------------------------------------------------------------
# integrability probe

@dataclass
class ProbeRow:
    r: float
    forward: float      # sup_Q (avg ||A_Q W^(-1/p)||^r)^(1/r), may be nan
    backward: float     # sup_Q (avg ||W^(1/p) A_Q^(-1)||^r)^(1/r)
    forward_ok: bool
    backward_ok: bool


@dataclass
class ProbeTable:
    rows: list
    sup_form: float     # p <= 1: sup_Q ess-sup ||A_Q W^(-1/p)|| (node max)
    stable_r: float


def integrability_probe(weight, p, family, window, r_grid):
    """Per-r table of sup-over-cubes averaged norms of A_Q W^(-1/p) and
    W^(1/p) A_Q^(-1); divergent entries are marked, not fatal.

    Entries use the 0.5% quadrature standard of the reverse-Holder probe;
    an entry is finite iff its integrability pre-check passes and its cube
    average converges.
    """
    qspec = QuadSpec(rel_tol=5e-3)

    def entry(A, alpha, r, Q):
        """(avg over Q of ||A W^alpha(x)||^r dx)^(1/r), or None if divergent."""
        try:
            res = cube_average(weight, Q, alpha, r,
                               lambda mats: linalg.op_norm(A @ mats) ** r, qspec,
                               name="probe entry")
        except IntegrabilityError:
            return None
        return float(res.value) ** (1.0 / r) if res.converged else None

    rows = []
    cubes = window.cubes()
    for r in r_grid:
        fwd = [entry(family.matrix(Q), -1.0 / p, r, Q) for Q in cubes]
        # ||W^(1/p) A^(-1)|| = ||A^(-1) W^(1/p)|| for these Hermitian factors
        bwd = [entry(family.inverse(Q), 1.0 / p, r, Q) for Q in cubes]
        fwd_ok, bwd_ok = None not in fwd, None not in bwd
        rows.append(ProbeRow(float(r), max(fwd) if fwd_ok else float("nan"),
                             max(bwd) if bwd_ok else float("nan"), fwd_ok, bwd_ok))
    sup_form = 0.0
    if p <= 1.0:
        for Q in cubes:
            A = family.matrix(Q)
            X, _ = box_nodes(Q.box(), 3, 16, 1, weight.singular_points)
            F = linalg.op_norm(np.einsum("ij,njk->nik", A, weight.power_at(X, -1.0 / p)))
            sup_form = max(sup_form, float(F.max()))
    stable = [row.r for row in rows if row.forward_ok and row.backward_ok]
    return ProbeTable(rows, sup_form, max(stable) if stable else float("nan"))

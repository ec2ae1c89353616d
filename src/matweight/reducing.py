"""Reducing operators: one positive definite matrix per cube whose ellipsoid
norm is two-sided equivalent to the L^p cube-average norm of the weight.

At p = 2 the unit ball of z -> (avg |W^(1/2/... )z|^2)^(1/2) is exactly an
ellipsoid and the operator is (avg_Q W)^(1/2). For general p the operator is
fitted: the ball is circled (invariant under z -> e^(i theta) z), so its
boundary samples in C^m are enclosed by the minimum-volume circled ellipsoid
{z : z*Hz <= 1} and the operator is H^(1/2). The ellipsoid is fitted by a few
Khachiyan and Wolfe-Atwood away steps, then a log-barrier Newton path whose
centred points name a candidate support, solved exactly by Newton on its
optimality conditions; the away steps continue only if no candidate passes.
Every constructed operator carries an empirical equivalence bracket.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CoverageError, DegenerateMatrixError, FitError, IntegrabilityError
from .geometry import box_corners, dilated_boxes
from .quad import PROBE_SPEC
from .weights import cube_average, cube_averages, dual_weight, sup_nodes


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


def _cube_norms(weight, p, boxes, dirs, identity=False, qspec=None):
    """One batch of cube averages over boxes ((B, 2, n) corners) giving per box
    rho_Q(z) = (avg |W^(1/p) z|^p)^(1/p) on each row z of dirs and, with
    identity=True, (avg ||W^(1/p)||^p)^(1/p) (else None).

    W^(1/p) = sum_k w_k E_k over its Hermitian coordinates, so the real and
    imaginary parts of W^(1/p) z for every direction come from one real
    product of the coordinates with the parts of every E_k z."""
    m, K = weight.m, len(dirs)
    EZ = np.einsum("kab,jb->kaj", linalg.hermitian_basis(m), dirs)
    parts = np.concatenate([EZ.real, EZ.imag], axis=1).reshape(m * m, 2 * m * K)
    # node rows per product: 256 KB of product, which the allocator reuses
    # (1 MB blocks were returned to the system and faulted in again)
    rows = max(1, 2 ** 15 // parts.shape[1])

    def reducer(Ws):
        w, sq = linalg.hermitian_coords(Ws), np.empty((len(Ws), K + identity))
        for k in range(0, len(Ws), rows):
            P = linalg.matmul(w[k:k + rows], parts)
            np.square(P, out=P).reshape(-1, 2 * m, K).sum(axis=1, out=sq[k:k + rows, :K])
        if identity:
            planes = np.moveaxis(Ws, 0, -1)
            sq[:, K] = linalg.norm_power(planes.real, planes.imag, 2.0)
        return sq if p == 2.0 else sq ** (0.5 * p)

    res = cube_averages(weight, boxes, 1.0 / p, p, reducer, qspec, name="cube norm")
    vals = np.asarray(res.value) ** (1.0 / p)
    return vals[:, :K], vals[:, K] if identity else None


class CubeNorm:
    """z -> (avg over Q of |W^(1/p)(x) z|^p dx)^(1/p), batched over directions."""

    def __init__(self, weight, p, region):
        self.weight = weight
        self.p = float(p)
        self.corners = box_corners(region)

    def bundle(self, dirs):
        """Values on a (K, m) array of directions in one quadrature pass."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=complex))
        return _cube_norms(self.weight, self.p, self.corners, dirs)[0][0]

    def __call__(self, z):
        return float(self.bundle(np.asarray(z, dtype=complex)[None, :])[0])


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid (origin-centered)

_MVEE_TOL = 1e-8
_MVEE_PRESTEPS = 32  # first-order steps before the barrier path
# the fallback's cap. The step loop alone zig-zags on near-degenerate clouds
# (a point almost on the optimal ellipsoid): over 90 matrix_weight fits it
# took a median of 718 steps and at most 12 214, and one random cloud in R^3
# with a point at 1 - 1e-5 of the ellipsoid needs about 170 000
_MVEE_MAX_ITER = 100_000
_MVEE_FAIL = 0.05
_MVEE_REFRESH = 256  # steps between full recomputations of X^(-1)
_CENTRED = 1e-6  # squared Newton decrement that ends a centring


def _scores(P, u):
    """X(u)^(-1) and the scores z_i* X(u)^(-1) z_i, X(u) = sum u_i z_i z_i*."""
    Xinv = np.linalg.inv(P.T @ (P.conj() * u[:, None]))
    return Xinv, np.einsum("ni,ij,nj->n", P.conj(), Xinv, P).real


def _away_steps(P, u, cap):
    """At most cap Khachiyan or Wolfe-Atwood away steps from the weights u;
    returns the new weights and the violation of the last ones scored."""
    Pc = P.conj()
    d = P.shape[1]
    u = u.copy()
    viol = np.inf
    for it in range(cap):
        if it % _MVEE_REFRESH == 0:
            Xinv, M = _scores(P, u)
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
    return u, viol


def _barrier(C, E, t, h):
    """t (-log det H) - sum log(1 - s_i) at H = sum h_a E_a, s = C h; inf
    where some s_i >= 1 or H is not positive definite."""
    s = C @ h
    if s.max() >= 1.0:
        return np.inf
    try:
        L = np.linalg.cholesky(np.einsum("a,aij->ij", h, E))
    except np.linalg.LinAlgError:
        return np.inf
    return -2.0 * t * np.log(L.diagonal().real).sum() - np.log1p(-s).sum()


def _centre(C, E, t, h):
    """Damped Newton on _barrier from the strictly feasible h; returns the
    centred h, or None if the line search stalls."""
    f = _barrier(C, E, t, h)
    for _ in range(50):
        A = np.linalg.inv(np.einsum("a,aij->ij", h, E)) @ E
        r = 1.0 / (1.0 - C @ h)
        g = C.T @ r - t * np.trace(A, axis1=1, axis2=2).real
        hess = (C * r[:, None] ** 2).T @ C + t * np.einsum("akl,blk->ab", A, A).real
        dh = -np.linalg.solve(hess, g)
        dec = -(g @ dh)  # the squared Newton decrement
        if dec < _CENTRED:
            return h
        a = 1.0
        while True:
            fn = _barrier(C, E, t, h + a * dh)
            # below decrement 0.1 the full step of a self-concordant function
            # is safe, while at large t f's rounding can exceed its decrease
            if fn <= f - 0.25 * a * dec or (dec < 0.1 and fn < np.inf):
                break
            a *= 0.5
            if a < 1e-10:
                return None
        h, f = h + a * dh, fn
    return None


def _support_fit(P, S, u):
    """Newton on z_i* X(u)^(-1) z_i = d over the points S (an index array)
    from the weights u > 0 on them; the Jacobian is -|G|^2, G = Z_S X^(-1)
    Z_S*. A weight that would drop to 0 ends the step there and leaves the
    support. Returns the (N,) weights, or None."""
    d = P.shape[1]
    for _ in range(30):
        Z = P[S]
        G = Z.conj() @ np.linalg.inv(Z.T @ (Z.conj() * u[:, None])) @ Z.T
        F = G.diagonal().real - d
        if np.abs(F).max() < 1e-2 * _MVEE_TOL * d:
            w = np.zeros(len(P))
            w[S] = u
            return w
        try:
            du = np.linalg.solve(np.abs(G) ** 2, F)
        except np.linalg.LinAlgError:
            return None
        with np.errstate(divide="ignore"):
            ratio = np.where(du < 0.0, -u / du, np.inf)
        k = int(np.argmin(ratio))
        if ratio[k] >= 1.0:
            u = u + du
        else:
            u, S = np.delete(u + ratio[k] * du, k), np.delete(S, k)
            if len(S) < d:
                return None
    return None


def _newton_finish(P, u):
    """Weights passing the violation test, found by the log-barrier path
    from the ellipsoid of the weights u and an exact solve on the support
    it points to; None if a centring stalls or no candidate support passes
    by t = 1e10 N."""
    N, d = P.shape
    E = linalg.hermitian_basis(d, not np.iscomplexobj(P))
    C = np.einsum("ni,aij,nj->na", P.conj(), E, P).real  # s_i = z_i* H z_i = (C h)_i
    Xinv, M = _scores(P, u)
    h = np.einsum("aij,ij->a", E.conj(), Xinv).real / np.einsum("aij,aij->a", E.conj(), E).real
    h *= 0.5 / M.max()
    t, tried = 100.0 * N, None
    while t <= 1e10 * N:
        h = _centre(C, E, t, h)
        if h is None:
            return None
        # on the central path X = sum u_i z_i z_i*, u_i = 1 / (t d (1 - s_i)), is H^(-1) / d
        s = C @ h
        S = np.sort(np.argsort(s)[-len(E):])
        if tried is None or not np.array_equal(S, tried):
            tried = S
            w = _support_fit(P, S, 1.0 / (t * d * (1.0 - s[S])))
            if w is not None:
                M = _scores(P, w)[1]
                if max(M.max() / d - 1.0, 1.0 - M[w > 0.0].min() / d) < _MVEE_TOL:
                    return w
        t *= 8.0
    return None


def mvee_centered(points):
    """Origin-centered minimum-volume enclosing ellipsoid {z : z*Hz <= 1}.

    The rows of points are real (the ellipsoid of the symmetric set +-z_i)
    or complex (the circled ellipsoid of the set e^(i theta) z_i). Weights u
    on the points give X = sum u_i z_i z_i* and scores z_i* X^(-1) z_i, d =
    the column count; u is optimal when every score on the support is d
    and none exceeds it, and a fit passes when it is within _MVEE_TOL of
    that. The fit has three phases:

    1. at most _MVEE_PRESTEPS first-order steps, each moving weight toward
       the largest score (Khachiyan) or away from the smallest score on the
       support (Wolfe-Atwood), whichever is further from d; this ends
       clouds sampled evenly on one ellipsoid, such as the K = 256 fits at
       p = 2;
    2. a log-barrier Newton path on the D real coordinates of H (D = d^2,
       or d(d+1)/2 for real points), minimising t (-log det H) - sum
       log(1 - z_i*Hz_i) with t from 100 N growing 8-fold per centring;
    3. at each centred point, the D highest-scoring points as a candidate
       support whenever that set changes, solved exactly by Newton on its
       scores; the first candidate that passes over all points is the fit.

    If no candidate passes by t = 1e10 N, the step loop of phase 1 goes on
    from its weights for up to _MVEE_MAX_ITER steps. Returns H = X^(-1) / d;
    raises FitError if the violation is then above _MVEE_FAIL, and warns if
    it is above _MVEE_TOL.
    """
    P = np.asarray(points)
    N, d = P.shape
    u0, viol = _away_steps(P, np.full(N, 1.0 / N), _MVEE_PRESTEPS)
    u = u0 if viol < _MVEE_TOL else _newton_finish(P, u0)
    if u is None:
        u, viol = _away_steps(P, u0, _MVEE_MAX_ITER)
        if viol > _MVEE_FAIL:
            raise FitError(f"ellipsoid fit stalled at violation {viol:.2e}")
        if viol >= _MVEE_TOL:
            warnings.warn(f"ellipsoid fit ended at violation {viol:.2e}, above {_MVEE_TOL:.0e}")
    return _scores(P, u)[0] / d


# ---------------------------------------------------------------------------
# reducing operators

def _bracket(A, dirs, rho, den=None):
    """Per operator of the batch A, [lo, hi] of |Az| / rho_Q(z) over the rows z of
    dirs and, given den = (avg ||W^(1/p)||^p)^(1/p), of the identity's ||A|| / den."""
    ratios = np.linalg.norm(dirs @ np.swapaxes(A, -1, -2), axis=-1) / rho
    if den is not None:
        ratios = np.concatenate([ratios, (linalg.op_norm(A) / den)[:, None]], axis=1)
    return ratios.min(axis=1), ratios.max(axis=1)


def _reduce(weight, p, boxes, method, K):
    """The calibrated operators A_Q (B, m, m) of the boxes ((B, 2, n) lower
    and upper corners) and their brackets, (B,) arrays lo and hi.

    One batch of cube averages gives rho_Q on unit_directions(m, max(K,
    _DIAG_K)) and the identity norms; exact_p2 adds one for avg_Q W. Each
    box's MVEE fit reads the first K + m directions (unit_directions is
    prefix-stable), the calibration centres |Az| / rho_Q(z) over the first
    _DIAG_K + m geometrically at 1, and the bracket covers those directions
    and the identity (the matrix units would repeat the basis ratios).
    """
    if method == "auto":
        method = "exact_p2" if p == 2.0 else "mvee"
    if method not in ("exact_p2", "mvee"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact_p2" and p != 2.0:
        raise ValueError("exact_p2 construction requires p = 2")
    m = weight.m
    dirs = unit_directions(m, max(K, _DIAG_K))
    rho, den = _cube_norms(weight, p, boxes, dirs, True)
    if method == "exact_p2":
        H = cube_averages(weight, boxes, 1.0, 1.0, lambda Ws: Ws, name="matrix average").value
    else:
        H = np.array([mvee_centered(dirs[:K + m] / r[:K + m, None]) for r in rho])
    A = linalg.matrix_power(H, 0.5)
    diag = _DIAG_K + m
    lo, hi = _bracket(A, dirs[:diag], rho[:, :diag])
    A = A / np.sqrt(lo * hi)[:, None, None]
    return (A, *_bracket(A, dirs[:diag], rho[:, :diag], den))


def reduce_operator(weight, p, region, method="auto", K=256):
    """A positive definite matrix A with |Az| equivalent to the cube norm.

    method 'exact_p2' requires p = 2 and returns (avg_Q W)^(1/2); 'mvee'
    fits the quasi-norm ball for any p. The result is rescaled so its
    equivalence bracket is geometrically centered at 1.
    """
    return _reduce(weight, p, box_corners(region), method, K)[0][0]


def dual_reduce(weight, p, region, method="auto", K=256):
    """Reducing operator of order p' for the dual weight W^(-1/(p-1))."""
    pprime = p / (p - 1.0)
    return reduce_operator(dual_weight(weight, p), pprime, region, method, K)


def verify_reducing(A, weight, p, region, K=64, include_matrices=True):
    """Bracket [r_lo, r_hi] of |Az| / rho_Q(z) over sampled directions and,
    with include_matrices=True, of the identity's ||A|| / (avg ||W^(1/p)||^p)^(1/p)."""
    dirs = unit_directions(weight.m, max(K, _DIAG_K))
    rho, den = _cube_norms(weight, p, box_corners(region), dirs, include_matrices)
    lo, hi = _bracket(np.asarray(A, dtype=complex)[None], dirs, rho, den)
    return float(lo[0]), float(hi[0])


# ---------------------------------------------------------------------------
# families over a window

@dataclass
class ReducingFamily:
    """One reducing operator per window cube, with per-cube brackets; the
    inverses and m follow from the operators."""

    window: object
    p: float
    method: str
    mats: dict       # level -> array (counts..., m, m)
    brackets: dict   # level -> (lo array, hi array)
    inv: dict = field(init=False)  # level -> array (counts..., m, m)
    m: int = field(init=False)

    def __post_init__(self):
        # read-only, as the function norms keep lengths keyed on the mats' identity
        self.mats = {j: linalg.read_only(a) for j, a in self.mats.items()}
        self.m = next(iter(self.mats.values())).shape[-1]
        self.inv = {}
        for j, a in self.mats.items():
            try:
                self.inv[j] = linalg.read_only(np.linalg.inv(a))
            except np.linalg.LinAlgError:
                raise DegenerateMatrixError(f"singular matrix at level {j}") from None

    def matrix(self, Q):
        idx = self.window.index(Q)
        return self.mats[Q.j][idx]

    def inverse(self, Q):
        idx = self.window.index(Q)
        return self.inv[Q.j][idx]

    def bracket(self, Q):
        idx = self.window.index(Q)
        return tuple(float(b[idx]) for b in self.brackets[Q.j])

    def level_field(self, j):
        """A_j = sum_Q A_Q 1_Q as a (counts..., m, m) array."""
        if j not in self.mats:
            raise CoverageError(f"the reducing family has no level {j}")
        return self.mats[j]

    def inverse_at_points(self, j, X):
        self.level_field(j)  # CoverageError for a level the family lacks
        return self.inv[j].reshape(-1, self.m, self.m)[self.window.cell_index(j, X)]

    def worst_bracket(self):
        lo = min(float(l.min()) for l, _ in self.brackets.values())
        hi = max(float(h.max()) for _, h in self.brackets.values())
        return lo, hi


def build_family(weight, p, window, method="auto", K=256):
    """Construct reducing operators for every cube of the window from one
    _reduce batch, split by level; each cube's bracket covers _DIAG_K + m
    directions and the identity, from the same cube average as its operator."""
    batch = window.batch()  # by level, each in C order as counts
    A, lo, hi = _reduce(weight, p, dilated_boxes(batch, [1.0])[:, 0], method, K)
    mats, brackets = {}, {}
    for j in window.levels():
        counts, at = tuple(window.counts_at_level(j)), batch[0] == j
        mats[j] = A[at].reshape(counts + A.shape[1:])
        brackets[j] = (lo[at].reshape(counts), hi[at].reshape(counts))
    return ReducingFamily(window, float(p), method, mats, brackets)


def identity_family(window, m):
    mats, brackets = {}, {}
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        mats[j] = np.broadcast_to(np.eye(m, dtype=complex), counts + (m, m)).copy()
        brackets[j] = (np.ones(counts), np.ones(counts))
    return ReducingFamily(window, 2.0, "identity", mats, brackets)


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

    Entries use the probes' 0.5% quadrature standard, quad.PROBE_SPEC; an
    entry is finite iff its integrability pre-check passes and its cube
    average converges.
    """

    def entry(A, alpha, r, Q):
        """(avg over Q of ||A W^alpha(x)||^r dx)^(1/r), or None if divergent."""
        try:
            res = cube_average(weight, Q, alpha, r,
                               lambda mats: linalg.op_norm(A @ mats) ** r, PROBE_SPEC,
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
        boxes = dilated_boxes(window.batch(), [1.0])[:, 0]
        for Q, (X, _) in zip(cubes, sup_nodes(weight, boxes, PROBE_SPEC)):
            F = linalg.op_norm(np.einsum("ij,njk->nik", family.matrix(Q),
                                         weight.power_at(X, -1.0 / p)))
            sup_form = max(sup_form, float(F.max()))
    stable = [row.r for row in rows if row.forward_ok and row.backward_ok]
    return ProbeTable(rows, sup_form, max(stable) if stable else float("nan"))

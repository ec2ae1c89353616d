"""Reducing operators: one positive definite matrix per cube whose ellipsoid
norm is two-sided equivalent to the L^p cube-average norm of the weight.

At p = 2 the unit ball of z -> (avg |W^(1/2/... )z|^2)^(1/2) is exactly an
ellipsoid and the operator is (avg_Q W)^(1/2). For general p the operator is
fitted: the ball is circled (invariant under z -> e^(i theta) z), so its
boundary samples in C^m are enclosed by the minimum-volume circled ellipsoid
{z : z*Hz <= 1} and the operator is H^(1/2). The ellipsoid is fitted by one
primal-dual interior-point method whose iterates all enclose the samples; it
stops at a duality gap of 1e-10 per dimension, or raises FitError.
Every constructed operator carries an empirical equivalence bracket.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (CoverageError, DegenerateMatrixError, FitError, IntegrabilityError,
                     InvalidExponentError, InvalidVariantError)
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

_MVEE_TOL = 1e-10  # per dimension, on u.w and on the duality gap
_MVEE_MAX_ITER = 60


def _boundary_step(w, dw, u, du):
    """Per row, the largest a <= 1 keeping w + a dw and u + a du >= 0, as a column."""
    x, dx = np.concatenate([w, u], axis=1), np.concatenate([dw, du], axis=1)
    ratio = np.divide(x, -dx, out=np.full_like(x, np.inf), where=dx < 0.0)
    return np.minimum(1.0, ratio.min(axis=1))[:, None]


def mvee_centered(points):
    """Origin-centered minimum-volume enclosing ellipsoid {z : z*Hz <= 1}.

    The rows z_i of points are real (the ellipsoid of the symmetric set
    +-z_i) or complex (the circled ellipsoid of the set e^(i theta) z_i)
    and must span R^d or C^d, d = the column count. The fit runs on the
    whitened points y_i = T^(-1) z_i, sum y_i y_i* = I, for the ellipsoid
    {y : y*Gy <= 1}, H = T^(-*) G T^(-1), so that it does not depend on how
    elongated the cloud is. It is one Mehrotra predictor-corrector
    interior-point method (Sun and Freund 2004) on the D real coordinates h
    of G in linalg.hermitian_basis (D = d^2, or d(d+1)/2 for real points):
    it minimises -log det G over the slacks w_i = 1 - y_i*Gy_i > 0 with
    multipliers u_i > 0, from G = I scaled to a largest score of 0.9 and
    the constant u with sum u_i y_i y_i* = G^(-1). It stops when u.w and
    the duality gap -log det G - (log det X + d - sum u_i), X = sum u_i
    y_i y_i*, are both at most _MVEE_TOL d. Every iterate is strictly
    feasible, so G encloses every y_i, and its log det is within the gap of
    the optimum. The scores z_i*Hz_i round at about eps cond(P)^2, cond(P)
    the ratio of the extreme singular values of points; measured, not
    proven: max z_i*Hz_i <= 1 + 1.11 eps cond(P)^2 over 9 000 stretched
    clouds. Raises FitError for non-finite points, points that do not span,
    and a fit not stopped after _MVEE_MAX_ITER iterations.
    """
    return _mvee_fits(np.asarray(points)[None])[0]


def _mvee_fits(P):
    """mvee_centered of each cloud of a (B, N, d) stack, each in its own iterations."""
    B, N, d = P.shape
    if (bad := ~np.isfinite(P).all(axis=(1, 2))).any():  # FitError.cloud: the first bad cloud
        raise FitError("ellipsoid fit of non-finite points", bad.argmax())
    # P = Y S V*, so T = conj(V) S, whose inverse is S^(-1) V^T
    Y, S, Vh = np.linalg.svd(P, full_matrices=False)
    if (bad := (N < d) | (S[:, -1] <= S[:, 0] * N * np.finfo(float).eps)).any():
        raise FitError(f"ellipsoid fit of points that do not span {d} dimensions", bad.argmax())
    E = linalg.hermitian_basis(d, not np.iscomplexobj(P))
    # y_i*Gy_i = (C h)_i; contiguous, so that a cloud's products are the same in any stack
    C = np.ascontiguousarray(np.einsum("bni,aij,bnj->bna", Y.conj(), E, Y).real)
    c = 0.9 / np.einsum("bni,bni->bn", Y.conj(), Y).real.max(axis=1)
    h, u = c[:, None] * np.einsum("aii->a", E).real, np.repeat(1.0 / c[:, None], N, axis=1)
    lam, Ti = np.repeat(c[:, None], d, axis=1), Vh.conj() / S[..., None]  # lam: G's eigenvalues
    G, at = np.empty((B, d, d), E.dtype), np.arange(B)  # at: the running clouds' indices
    for _ in range(_MVEE_MAX_ITER):
        w = 1.0 - np.einsum("bna,ba->bn", C, h)
        X = np.swapaxes(Y, 1, 2) @ (Y.conj() * u[..., None])
        uw = (u * w).sum(axis=1)
        gap = -np.log(lam).sum(axis=1) - np.linalg.slogdet(X)[1] - d + u.sum(axis=1)
        done = (uw <= _MVEE_TOL * d) & (gap <= _MVEE_TOL * d)
        G[at[done]] = np.einsum("ba,aij->bij", h[done], E)
        at, Y, C, h, u, w, uw = (x[~done] for x in (at, Y, C, h, u, w, uw))
        if not len(at):
            return np.swapaxes(Ti, 1, 2).conj() @ G @ Ti
        # the Newton matrix Hs + C^T diag(u/w) C, Hs the Hessian of -log det G,
        # is R^T R from a QR of square-root rows sorted by decreasing norm:
        # row-sorted Householder QR keeps Hs beside the huge u/w of the
        # touching points, where solving the formed matrix stalls
        A = np.linalg.solve(np.einsum("ba,aij->bij", h, E)[:, None], E[None])
        Rs = np.swapaxes(np.linalg.cholesky(np.einsum("bakl,bclk->bac", A, A).real), 1, 2)
        rows = np.concatenate([Rs, np.sqrt(u / w)[..., None] * C], axis=1)
        order = np.argsort(-np.linalg.norm(rows, axis=2), axis=1)[..., None]
        Ri = np.linalg.inv(np.linalg.qr(np.take_along_axis(rows, order, axis=1), mode="r"))
        g = np.trace(A, axis1=2, axis2=3).real  # -grad log det G

        def direction(r):
            """(dh, dw, du) of the Newton step toward u_i w_i = r_i."""
            v = np.einsum("bji,bj->bi", Ri, g - np.einsum("bna,bn->ba", C, r / w))
            dh = np.einsum("bij,bj->bi", Ri, v)
            dw = -np.einsum("bna,ba->bn", C, dh)
            return dh, dw, r / w - u - u / w * dw

        mu = uw[:, None] / N
        _, dw, du = direction(np.zeros_like(u))  # the predictor
        a = _boundary_step(w, dw, u, du)
        sigma = (((w + a * dw) * (u + a * du)).sum(axis=1, keepdims=True) / N / mu) ** 3
        dh, dw, du = direction(sigma * mu - dw * du)
        if (bad := ~np.isfinite(dh).all(axis=1)).any():
            raise FitError("ellipsoid fit step is not finite", at[bad.argmax()])
        a = 0.99 * _boundary_step(w, dw, u, du)
        while True:  # halve each step until its G is positive definite and encloses every point
            lam = np.linalg.eigvalsh(np.einsum("ba,aij->bij", h + a * dh, E))
            bad = ~(lam[:, 0] > 0.0) | ~(np.einsum("bna,ba->bn", C, h + a * dh).max(axis=1) < 1.0)
            if not bad.any():
                break
            a[bad] *= 0.5
        h, u = h + a * dh, u + a * du
    raise FitError(f"ellipsoid fit not converged after {_MVEE_MAX_ITER} iterations", at[0])


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
    _DIAG_K)) and the identity norms; exact_p2 adds one for avg_Q W. The
    MVEE fits, one batch, read the first K + m directions (unit_directions
    is prefix-stable), the calibration centres |Az| / rho_Q(z) over the first
    _DIAG_K + m geometrically at 1, and the bracket covers those directions
    and the identity (the matrix units would repeat the basis ratios).
    """
    if method == "auto":
        method = "exact_p2" if p == 2.0 else "mvee"
    if method not in ("exact_p2", "mvee"):
        raise InvalidVariantError(f"unknown method {method!r}")
    if method == "exact_p2" and p != 2.0:
        raise InvalidExponentError("exact_p2 construction requires p = 2")
    m = weight.m
    dirs = unit_directions(m, max(K, _DIAG_K))
    rho, den = _cube_norms(weight, p, boxes, dirs, True)
    if method == "exact_p2":
        H = cube_averages(weight, boxes, 1.0, 1.0, lambda Ws: Ws, name="matrix average").value
    else:
        try:
            H = _mvee_fits(dirs[:K + m] / rho[:, :K + m, None])
        except FitError as exc:
            raise FitError(f"box {boxes[exc.cloud].tolist()} at p = {p}: {exc}") from exc
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

"""Matrix-weight families and their A_p machinery.

A weight here is an evaluable map x -> positive definite m x m Hermitian
matrix with a finite list of singular points where it may blow up or lose
invertibility. Analytic kinds know their local power exponents, which lets
cube averages pre-check integrability before any quadrature runs.

ap_pairs is the one two-cube A_p quantity, over a batch of box pairs:
[W]_Ap (ap_constant) and the growth sequence a_i (apdim.a_sequence) are its
suprema over cube pairs. A matrix weight takes one real matrix product per
distinct x-box, on Hermitian coordinates (real symmetric ones where W is real).
"""

import hashlib
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import (
    CoverageError,
    IntegrabilityError,
    InvalidExponentError,
    InvalidVariantError,
    InvalidWeightError,
    SingularityError,
)
from .geometry import Box, DyadicCube, batch_cube, box_corners, cell_index, dilated_boxes
from .quad import CHUNK_NODES, QuadSpec, _as_point, _box_chunks, average_boxes


class MatrixWeight:
    """Base class; subclasses set n, m, singular_points and sampling methods."""

    def is_scalar(self):
        """True when W(x) = w(x) I_m with a scalar profile w."""
        return False

    def scalar_profile(self, X):
        """w(x) on a batch of points for scalar kinds, else None."""
        return None

    def power_at(self, X, alpha):
        """W(x)^alpha as an (N, m, m) array over points X of shape (N, n)."""
        raise NotImplementedError

    def norm_exponent(self, point, alpha):
        """Local power exponent of ||W^alpha|| at a singular point (0 if smooth)."""
        return 0.0

    def local_power(self, point, alpha):
        """e if W^alpha is |x - point|^e times a smooth matrix near the point."""
        return self.norm_exponent(point, alpha) if self.is_scalar() else None

    def dual(self, p):
        """The order-p' companion weight W^(-1/(p-1)); requires p > 1."""
        if p <= 1:
            raise InvalidExponentError("dual weight requires p > 1")
        return self._dual_impl(p)

    def _dual_impl(self, p):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def _check_points(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        for s in self.singular_points:
            hit = np.all(np.abs(X - np.asarray(s)) <= 1e-14 * max(1.0, float(np.abs(np.asarray(s)).max(initial=0.0))), axis=1)
            if np.any(hit):
                raise SingularityError(f"evaluation at singular point {s}")
        return X

    def evaluate(self, x):
        """W(x) at a single point, guarding against singular-point hits."""
        X = self._check_points(np.asarray(x, dtype=float).reshape(1, -1))
        return self.power_at(X, 1.0)[0]


def _distance(D):
    """Row norms of an (N, n) array; for n = 1 np.linalg.norm's bit for bit where
    1e-150 <= |x| <= 1e150 (below, its x^2 is subnormal or 0 and loses bits)."""
    return np.abs(D[:, 0]) if D.shape[1] == 1 else np.linalg.norm(D, axis=1)


def _check(ok, what, value):
    if not ok:
        raise InvalidWeightError(f"weight {what}, got {value!r}")


def _check_sizes(**sizes):
    for key, value in sizes.items():  # n and m
        _check(isinstance(value, numbers.Integral) and not isinstance(value, bool)
               and value >= 1, f"{key} must be an integer >= 1", value)


def _reals(key, value, what="a number", fits=lambda shape: shape == ()):
    """value as a float array: real numbers, not booleans, of a shape that fits, all finite."""
    arr = np.asarray(value, dtype=object)  # a ragged list keeps lists as entries
    _check(fits(arr.shape) and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                                   for x in arr.flat), f"{key} must be {what}", value)
    try:
        arr = arr.astype(float)
    except OverflowError:  # an integer past the float range is not finite either
        arr = np.array(np.inf)
    _check(np.isfinite(arr).all(), f"{key} must be finite", value)
    return arr


def _eigh_definite(key, mats, ndim):
    """eigh of mats, ndim axes of finite m x m matrices, each Hermitian to 1e-12 of its largest
    entry and positive definite (lambda_min > REL_EIG_TOL lambda_max), else an error naming it."""
    _check(mats.ndim == ndim and 0 < mats.shape[-1] == mats.shape[-2] and mats.size,
           f"{key} must have {ndim} axes, the last two of one length", mats.shape)
    flat = mats.reshape(-1, *mats.shape[-2:])
    size = np.abs(flat).max(axis=(1, 2))
    asym = np.abs(flat - np.conj(np.swapaxes(flat, 1, 2))).max(axis=(1, 2))
    for what, ok in (("finite", np.isfinite(size)), ("Hermitian", asym <= 1e-12 * size)):
        _check(ok.all(), f"{key} must be {what}", flat[np.argmin(ok)].tolist())
    lam, u = np.linalg.eigh(linalg.hermitize(flat))
    ok = lam[:, 0] > linalg.REL_EIG_TOL * lam[:, -1]
    _check(ok.all(), f"{key} must be positive definite", flat[np.argmin(ok)].tolist())
    return lam, u


def _power_log_profile(X, a, b):
    r = _distance(X)
    out = np.ones_like(r)
    if a != 0.0:
        out = r ** a
    if b != 0.0:
        out = out * np.log(2.0 + r) ** b
    return out


@dataclass
class PowerLogWeight(MatrixWeight):
    """w(x) = |x|^a [log(2+|x|)]^b times the identity."""

    n: int
    m: int
    a: float
    b: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _check_sizes(n=self.n, m=self.m)
        _reals("a", self.a)
        _reals("b", self.b)
        _check(_reals("scale", self.scale) > 0.0, "scale must be positive", self.scale)
        self.singular_points = [np.zeros(self.n)] if self.a != 0.0 else []

    def is_scalar(self):
        return True

    def scalar_profile(self, X):
        return self.scale * _power_log_profile(np.atleast_2d(X), self.a, self.b)

    def power_at(self, X, alpha):
        w = self.scalar_profile(X) ** alpha
        return w[:, None, None] * np.eye(self.m)[None]

    def norm_exponent(self, point, alpha):
        if self.a != 0.0 and max(map(abs, np.ravel(point))) <= 1e-8:  # np.allclose(point, 0)
            return alpha * self.a
        return 0.0

    def _dual_impl(self, p):
        c = -1.0 / (p - 1.0)
        return PowerLogWeight(self.n, self.m, c * self.a, c * self.b, self.scale ** c)

    def descriptor(self):
        return {"kind": "power_log", "n": self.n, "m": self.m,
                "a": self.a, "b": self.b, "scale": self.scale}


@dataclass
class ProductPowerWeight(MatrixWeight):
    """w(x) = prod_i |x - c_i|^(a_i) times the identity."""

    n: int
    m: int
    centers: tuple
    exponents: tuple
    scale: float = 1.0

    def __post_init__(self):
        _check_sizes(n=self.n, m=self.m)
        _check(_reals("scale", self.scale) > 0.0, "scale must be positive", self.scale)
        self.exponents = tuple(_reals("exponents", self.exponents, "a list of numbers",
                                      lambda shape: len(shape) == 1).tolist())
        _check(isinstance(self.centers, (list, tuple, np.ndarray)) and len(self.centers)
               == len(self.exponents), "centers must be one point per exponent", self.centers)
        point = f"a number or a list of 1 or n = {self.n} numbers"  # one is broadcast
        self.centers = tuple(tuple(_reals("center", c, point, lambda shape: shape in (
            (), (1,), (self.n,))).ravel().tolist()) for c in self.centers)
        self.singular_points = [np.asarray(c) for c, a in zip(self.centers, self.exponents) if a != 0.0]

    def is_scalar(self):
        return True

    def scalar_profile(self, X):
        X = np.atleast_2d(X)
        out = np.full(X.shape[0], self.scale)
        for c, a in zip(self.centers, self.exponents):
            if a != 0.0:
                out = out * _distance(X - np.asarray(c)) ** a
        return out

    def power_at(self, X, alpha):
        w = self.scalar_profile(X) ** alpha
        return w[:, None, None] * np.eye(self.m)[None]

    def norm_exponent(self, point, alpha):
        x = _as_point(point, self.n)
        for c, a in zip(self.centers, self.exponents):
            # np.allclose(point, c) without its per-call overhead
            if a != 0.0 and all(abs(u - v) <= 1e-8 + 1e-5 * abs(v)
                                for u, v in zip(x, _as_point(c, self.n))):
                return alpha * a
        return 0.0

    def _dual_impl(self, p):
        c = -1.0 / (p - 1.0)
        return ProductPowerWeight(self.n, self.m, self.centers,
                                  tuple(c * a for a in self.exponents), self.scale ** c)

    def descriptor(self):
        return {"kind": "product_power", "n": self.n, "m": self.m,
                "centers": [list(c) for c in self.centers],
                "exponents": list(self.exponents), "scale": self.scale}


def two_singularity(d, dtilde, p, x0=None, n=1, m=1):
    """|x|^(-d) |x-x0|^((p-1) dtilde) I_m; x0 defaults to 0.25 e_1.

    Its order-p dual is |x|^(d/(p-1)) |x-x0|^(-dtilde) I_m; it requires p > 1.
    """
    _reals("d", d)
    _reals("dtilde", dtilde)
    _check(_reals("p", p) > 1.0, "p must be > 1", p)
    _check_sizes(n=n)
    if x0 is None:
        x0 = np.zeros(n)
        x0[0] = 0.25
    return ProductPowerWeight(n, m, (tuple(np.zeros(n)), x0), (-d, (p - 1.0) * dtilde))


@dataclass
class ConstantWeight(MatrixWeight):
    """A fixed positive definite matrix."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_sizes(n=self.n)
        matrix = np.asarray(self.matrix, dtype=complex)
        _eigh_definite("matrix", matrix, 2)
        self.matrix = linalg.hermitize(matrix)
        self.m = self.matrix.shape[0]
        self.singular_points = []

    def is_scalar(self):
        off = self.matrix - self.matrix[0, 0] * np.eye(self.m)
        return bool(np.max(np.abs(off)) == 0.0)

    def scalar_profile(self, X):
        if not self.is_scalar():
            return None
        return np.full(np.atleast_2d(X).shape[0], float(np.real(self.matrix[0, 0])))

    def power_at(self, X, alpha):
        powed = linalg.matrix_power(self.matrix, alpha)
        return np.broadcast_to(powed, (np.atleast_2d(X).shape[0],) + powed.shape).copy()

    def _dual_impl(self, p):
        return ConstantWeight(self.n, linalg.matrix_power(self.matrix, -1.0 / (p - 1.0)))

    def descriptor(self):
        return {"kind": "constant", "n": self.n, "m": self.m,
                "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix]}


def identity_weight(n, m):
    return ConstantWeight(n, np.eye(m))


@dataclass
class ConjugatedBlockWeight(MatrixWeight):
    """U(x) diag(w1, w2) U(x)^T with U a rotation by angle 2 pi x_1.

    A genuinely non-commuting m=2 family built from two scalar branches;
    the pointwise rotation makes W(x) and W(y) fail to commute.
    """

    branch1: MatrixWeight
    branch2: MatrixWeight

    def __post_init__(self):
        b1, b2 = self.branch1, self.branch2
        _check(b1.is_scalar() and b2.is_scalar() and b1.n == b2.n,
               "branches must be scalar weights of one n",
               [(type(b).__name__, b.n) for b in (b1, b2)])
        self.n = b1.n
        self.m = 2
        seen = {}
        for s in list(self.branch1.singular_points) + list(self.branch2.singular_points):
            seen[tuple(np.asarray(s).tolist())] = np.asarray(s)
        self.singular_points = list(seen.values())

    def power_at(self, X, alpha):
        X = np.atleast_2d(X)
        w1 = self.branch1.scalar_profile(X) ** alpha
        w2 = self.branch2.scalar_profile(X) ** alpha
        th = 2.0 * np.pi * X[:, 0]
        c, s = np.cos(th), np.sin(th)
        out = np.empty((X.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = c * c * w1 + s * s * w2
        out[:, 1, 1] = s * s * w1 + c * c * w2
        out[:, 0, 1] = c * s * (w1 - w2)
        out[:, 1, 0] = out[:, 0, 1]
        return out

    def norm_exponent(self, point, alpha):
        return min(self.branch1.norm_exponent(point, alpha),
                   self.branch2.norm_exponent(point, alpha))

    def local_power(self, point, alpha):
        e1, e2 = (b.norm_exponent(point, alpha) for b in (self.branch1, self.branch2))
        return e1 if e1 == e2 else None

    def _dual_impl(self, p):
        return ConjugatedBlockWeight(self.branch1.dual(p), self.branch2.dual(p))

    def descriptor(self):
        return {"kind": "conjugated_block",
                "branch1": self.branch1.descriptor(),
                "branch2": self.branch2.descriptor()}


@dataclass
class GridSampledWeight(MatrixWeight):
    """Matrix weight given by samples on a uniform grid over a box.

    Evaluation uses the sample of the containing grid cell, so the weight is
    piecewise constant; all samples must be positive definite.
    """

    box: Box
    samples: np.ndarray  # shape (N_1, ..., N_n, m, m)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        self.n = self.box.n
        self._lam, self._u = _eigh_definite("samples", self.samples, self.n + 2)
        self.m = self.samples.shape[-1]
        self.singular_points = []

    def power_at(self, X, alpha):
        shape = self.samples.shape[: self.n]
        cells = cell_index(self.box.lo_arr, self.box.sides / shape, shape, X)
        lam_a = self._lam[cells] ** alpha
        uu = self._u[cells]
        return np.einsum("nij,nj,nkj->nik", uu, lam_a, np.conj(uu))

    def _dual_impl(self, p):
        lam, u = self._lam, self._u
        powed = np.einsum("nij,nj,nkj->nik", u, lam ** (-1.0 / (p - 1.0)), np.conj(u))
        return GridSampledWeight(self.box, powed.reshape(self.samples.shape))

    def descriptor(self):
        h = hashlib.sha256(np.ascontiguousarray(self.samples).tobytes()).hexdigest()[:16]
        return {"kind": "grid_sampled", "n": self.n, "m": self.m,
                "box_lo": list(self.box.lo), "box_hi": list(self.box.hi),
                "grid_shape": list(self.samples.shape[: self.n]), "sha": h}


# ---------------------------------------------------------------------------
# cube averages and A_p characteristics


def _precheck_integrability(weight, boxes, alpha, p_eff):
    """Raise if a singular point on a closed box of boxes ((B, 2, n) lower and
    upper corners) makes ||W^alpha||^p_eff non-integrable; return per box its
    local exponents at the singular points (0 off the box), all NaN if W^alpha
    is not |x - s|^e times a smooth matrix at a point on it."""
    n = boxes.shape[2]
    pts = np.array([_as_point(s, n) for s in weight.singular_points]).reshape(-1, n)
    on = np.all((boxes[:, :1, :] - 1e-12 <= pts) & (pts <= boxes[:, 1:, :] + 1e-12), axis=2)
    exps = np.zeros(on.shape)
    for k, s in enumerate(weight.singular_points):
        if not on[:, k].any():
            continue
        if p_eff * weight.norm_exponent(s, alpha) <= -weight.n:
            raise IntegrabilityError(
                f"||W^{alpha}||^{p_eff} has a non-integrable singularity at {s}")
        e = weight.local_power(s, alpha)
        exps[on[:, k], k] = np.nan if e is None else p_eff * e
    exps[np.isnan(exps).any(axis=1)] = np.nan
    return exps


def cube_averages(weight, boxes, alpha, power, reducer, qspec=None, name="cube average"):
    """avg over each box ((B, 2, n) lower and upper corners) of
    reducer(W^alpha(x)) dx, refined together, as a batch QuadResult.

    reducer maps an (N, m, m) batch to (N, ...) values and must be
    homogeneous of degree `power`. Integrability of ||W^alpha||^power is
    checked on every box before any quadrature runs, and the local exponents
    it finds give the quadrature its Gauss-Jacobi end cells; a scalar weight
    w I needs only the scalar average of w^(alpha power), scaled by reducer(I).
    """
    boxes = np.asarray(boxes, dtype=float)
    exps = _precheck_integrability(weight, boxes, alpha, power)
    if not weight.is_scalar():
        return average_boxes(lambda X: reducer(weight.power_at(X, alpha)), boxes, qspec,
                             weight.singular_points, name=name, exponents=exps)
    e = alpha * power
    res = average_boxes(lambda X: weight.scalar_profile(X) ** e, boxes, qspec,
                        weight.singular_points, name=name, exponents=exps, scalar=True)
    c = np.asarray(reducer(np.eye(weight.m)[None])[0])
    res.value = res.value.reshape(res.value.shape + (1,) * c.ndim) * c
    return res


def cube_average(weight, region, alpha, power, reducer, qspec=None, name="cube average"):
    """avg over a cube or box Q of reducer(W^alpha(x)) dx, as a QuadResult:
    the one-box case of cube_averages."""
    return cube_averages(weight, box_corners(region), alpha, power, reducer, qspec, name)[0]


def cube_average_matrix_norm(weight, p, region, M=None):
    """(avg over Q of ||W^(1/p)(x) M||^p dx)^(1/p) for a cube or box Q."""
    M = np.asarray(np.eye(weight.m) if M is None else M, dtype=complex)
    res = cube_average(weight, region, 1.0 / p, p,
                       lambda mats: linalg.op_norm(mats @ M) ** p)
    return float(res.value) ** (1.0 / p)


@dataclass
class ApCharacteristic:
    """Windowed A_p characteristic: a supremum over the window's cubes."""

    p: float
    value: float
    witness: DyadicCube = None
    converged: bool = True


def sup_nodes(weight, boxes, qspec):
    """The node rule of the pairwise kernel and of every essential supremum:
    order-1 nodes of the hp rule at (base_depth, grade_depth // 2) on each of
    boxes ((B, 2, n) lower and upper corners), from one batch, as a list of
    (nodes, probability weights) per box."""
    boxes = np.asarray(boxes, dtype=float)
    out = [None] * len(boxes)
    chunks = _box_chunks(boxes, weight.singular_points, None)
    for pos, X, v, sizes, _ in chunks(qspec.base_depth, qspec.grade_depth // 2, 1,
                                      np.arange(len(boxes))):
        for k, a, z in zip(pos, np.cumsum(sizes) - sizes, np.cumsum(sizes)):
            out[k] = X[a:z], v[a:z] / v[a:z].sum()
    return out


# node pairs per product block: m^2 real planes of 8 bytes per part, real and imaginary
# (one part for a real weight), 1 MB for both parts at m = 2
_BLOCK_PAIRS = 4 * CHUNK_NODES


def ap_pairs(weight, p, boxes_x, boxes_y, qspec, star=False):
    """The two-cube A_p quantity of each box pair (X_k, Y_k), boxes_x and
    boxes_y (K, 2, n) arrays of lower and upper corners: W^(1/p) averaged
    over X_k against W^(-1/p) over Y_k. With F(x, y) = ||W^(1/p)(x)
    W^(-1/p)(y)||, it is avg_x (avg_y F^p')^(p/p') for p > 1 and ess sup_y
    avg_x F^p for p <= 1 (star: avg_x ess sup_y F^p).

    Each side's distinct boxes are computed once, and essential suprema are
    extrema over sup_nodes. A scalar weight w I factorises: avg_x w (avg_y
    w^(-1/(p-1)))^(p-1) for p > 1, from one batch of cube averages at qspec
    per exponent, and avg_x w / min_y w for p <= 1, where star changes
    nothing. A matrix weight takes its node rules from one sup_nodes call
    over the distinct boxes of both sides, and is evaluated once per side.
    W^(-1/p)(y) = sum_k y_k E_k over its D = m^2 Hermitian coordinates, and
    each x-node keeps the real and imaginary parts of W^(1/p)(x) E_k, so the
    parts of every entry of W^(1/p)(x) W^(-1/p)(y) come from one real matrix
    product. Where every sample of both sides is real, the imaginary parts
    are exact zeros: the kernel then takes the D = m(m+1)/2 real symmetric
    coordinates and the real part alone, with the same value bit for bit. Pairs are
    grouped by x-box: each distinct x-box forms one product block against
    the nodes of all its y-boxes (split past _BLOCK_PAIRS node pairs). Every
    pair reduces over y in its own reduceat segment, and linalg.matmul
    computes each entry of a block as the same dot product whatever the
    block's shape, so a pair's value does not depend on its batch.
    """
    if len(boxes_x) != len(boxes_y):
        raise CoverageError(f"{len(boxes_x)} x-boxes against {len(boxes_y)} y-boxes")
    if not len(boxes_x):
        return np.zeros(0)
    (ux, ix), (uy, iy) = _distinct(boxes_x), _distinct(boxes_y)
    if weight.is_scalar():
        def avg(boxes, alpha):
            return cube_averages(weight, boxes, alpha, 1.0, lambda mats: mats[:, 0, 0].real,
                                 qspec, name="cross average").value

        if p > 1.0:
            return avg(ux, 1.0)[ix] * avg(uy, -1.0 / (p - 1.0))[iy] ** (p - 1.0)
        inf_y = [np.min(weight.scalar_profile(X)) for X, _ in sup_nodes(weight, uy, qspec)]
        return avg(ux, 1.0)[ix] / np.array(inf_y)[iy]
    _precheck_integrability(weight, ux, 1.0 / p, p)
    if p > 1.0:
        _precheck_integrability(weight, uy, -1.0 / p, p / (p - 1.0))

    u, iu = _distinct(np.concatenate([ux, uy]))
    rules = sup_nodes(weight, u, qspec)  # one rule per distinct box of either side

    def nodes(at):  # nodes, node weights, first nodes, node counts
        sets = [rules[k] for k in at]
        sizes = np.array([len(X) for X, _ in sets])
        return (*map(np.concatenate, zip(*sets)), np.cumsum(sizes) - sizes, sizes)

    m = weight.m
    (X, wx, ox, nx), (Y, wy, oy, ny) = nodes(iu[:len(ux)]), nodes(iu[len(ux):])
    WX, WY = weight.power_at(X, 1.0 / p), weight.power_at(Y, -1.0 / p)
    # a real W needs only the real plane, on the D = m(m+1)/2 real symmetric coordinates
    real = not (WX.imag.any() or WY.imag.any())
    basis = linalg.hermitian_basis(m, real)
    D, E = len(basis), basis.transpose(1, 0, 2).reshape(m, -1)
    # parts of W^(1/p)(x) E_k as (part, row, column, x, k), exact: E_k's entries are 0, +-1, +-i
    G = ((WX.real if real else WX).reshape(-1, m) @ E).reshape(len(X), m, D, m)
    CX = np.stack([G] if real else [G.real, G.imag]).transpose(0, 2, 4, 1, 3)
    CX = CX.reshape(-1, len(X), D)
    k, l = np.triu_indices(m)
    CY = (WY.real[:, k, l] if real else linalg.hermitian_coords(WY)).T
    # pairs sorted by x-box; each x-box is one block against the nodes of its y-boxes
    pairs, inv = _distinct(np.stack([iy, ix], axis=1))
    py, px = pairs.T
    counts = ny[py]
    first = np.cumsum(counts) - counts  # each pair's first y-node, over all pairs
    at = np.repeat(oy[py] - first, counts) + np.arange(first[-1] + counts[-1])
    # node pairs ahead of each pair in its x-box's block, counted in budgets
    key = nx[px] * (first - first[np.searchsorted(px, px)]) // _BLOCK_PAIRS
    cuts = np.flatnonzero(np.r_[True, (px[1:] != px[:-1]) | (key[1:] != key[:-1]), True])
    s, out = (p if p <= 1.0 else p / (p - 1.0)), np.empty(len(pairs))
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = np.arange(ox[px[a]], ox[px[a]] + nx[px[a]])
        ys, yseg = at[first[a]:first[b - 1] + counts[b - 1]], first[a:b] - first[a]
        # one product, (part, row, column, x) by y, then each entry's one or two planes
        R = linalg.matmul(CX[:, xs].reshape(-1, D), CY[:, ys]).reshape(-1, m, m, len(xs), len(ys))
        F = linalg.norm_power(R[0], R[1] if len(R) == 2 else None, s)  # (x, y)
        if p > 1.0:
            H = np.add.reduceat(F * wy[ys], yseg, axis=1) ** (p / s) * wx[xs, None]
        else:
            H = (np.maximum.reduceat(F, yseg, axis=1) if star else F) * wx[xs, None]
        V = np.add.reduceat(H, [0])[0]  # the x-average of every pair of the block
        out[a:b] = np.maximum.reduceat(V, yseg) if p <= 1.0 and not star else V
    return out[inv]


def _distinct(boxes):
    """Distinct rows of a (K, ...) array, sorted on the last column first, and each row's index."""
    keys = boxes.reshape(len(boxes), -1)
    at = np.lexsort(keys.T)
    first = np.r_[True, np.any(keys[at[1:]] != keys[at[:-1]], axis=1)]
    inv = np.empty(len(keys), dtype=int)
    inv[at] = np.cumsum(first) - 1
    return boxes[at[first]], inv


def ap_constant(weight, p, window, variant="standard", qspec=None):
    """Windowed [W]_Ap (or the starred variant for p <= 1): the sup over the
    window's cubes Q of the two-cube quantity on (Q, Q), at qspec and at its
    next refinement round (base_depth + 1, grade_depth + grade_step), flagged
    not converged where the two differ by more than 5%. The default qspec
    gives the matrix kernel the depth pairs (3, 12) and (4, 20): 20 and 36
    nodes per side on a 1-D cube at a singular point.
    """
    if p <= 0:
        raise InvalidExponentError("p must be positive")
    if variant not in ("standard", "star"):
        raise InvalidVariantError(f"unknown variant {variant!r}")
    if variant == "star" and p > 1.0:
        raise InvalidVariantError("star variant is defined only for p <= 1")
    qspec = qspec or QuadSpec(base_depth=3, grade_depth=24)
    finer = replace(qspec, base_depth=qspec.base_depth + 1,
                    grade_depth=qspec.grade_depth + qspec.grade_step)
    batch = window.batch()
    boxes = dilated_boxes(batch, [1.0])[:, 0]
    coarse, fine = (ap_pairs(weight, p, boxes, boxes, spec, star=variant == "star")
                    for spec in (qspec, finer))
    k = int(np.argmax(fine))
    converged = not np.any(np.abs(fine - coarse) > 0.05 * np.abs(fine))
    return ApCharacteristic(p, float(fine[k]), batch_cube(batch, k), converged)


def dual_weight(weight, p):
    """W^(-1/(p-1)), computed analytically for the analytic weight kinds."""
    return weight.dual(p)


def weight_from_descriptor(desc):
    """The weight of a `descriptor()`, or of a two_singularity's arguments by name;
    n and m are 1 where not given. InvalidWeightError for an ill-defined weight or a
    missing key, naming the kind and the key."""
    def need(key):
        _check(key in desc, f"{desc.get('kind', 'descriptor')} needs the key {key!r}", desc)
        return desc[key]

    kind, n, m = need("kind"), desc.get("n", 1), desc.get("m", 1)
    if kind == "power_log":
        return PowerLogWeight(n, m, need("a"), desc.get("b", 0.0), desc.get("scale", 1.0))
    if kind == "product_power":
        return ProductPowerWeight(n, m, need("centers"), need("exponents"),
                                  desc.get("scale", 1.0))
    if kind == "two_singularity":
        return two_singularity(need("d"), need("dtilde"), need("p"), desc.get("x0"), n, m)
    if kind == "constant":
        pairs = _reals("matrix", need("matrix"), "an m x m list of [re, im] pairs",
                       lambda shape: len(shape) == 3 and shape[1:] == (shape[0], 2))
        return ConstantWeight(n, pairs.view(complex)[..., 0])  # complex(re, im), exactly
    if kind == "conjugated_block":
        return ConjugatedBlockWeight(weight_from_descriptor(need("branch1")),
                                     weight_from_descriptor(need("branch2")))
    raise InvalidWeightError(f"unknown weight kind {kind!r}")

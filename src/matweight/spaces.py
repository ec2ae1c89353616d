"""Sequence-space norms over a cube window.

The engine evaluates sup_P |P|^(-tau) ||{f_j}||_{LA(P^)} where P runs over
the window cubes, P^ pairs P with levels j >= j_P, and the inner aggregation
is l^q of L^p (B-kind) or L^p of l^q (F-kind). Per-level fields live on a
common uniform grid, so all L^p masses over lattice cubes are exact block
sums; q = infinity and p = infinity take explicit supremum paths. Tiny
values are handled by rescaling with the global maximum, never by raw
powers that could underflow. One function, weighted_fields, makes those
scalar fields from vector fields under every weighting (none, a matrix
weight, a reducing family), for sequences and functions alike.
"""

from dataclasses import dataclass

import numpy as np

from .dyadic import block_reduce, grid_points, grid_shape
from .errors import CoverageError, InvalidExponentError
from .weights import MatrixWeight


@dataclass(frozen=True)
class SpaceParams:
    """(s, tau, p, q) with kind 'B' or 'F'; p or q may be math.inf."""

    s: float
    tau: float
    p: float
    q: float
    kind: str = "B"

    def __post_init__(self):
        if self.kind not in ("B", "F"):
            raise ValueError("kind must be 'B' or 'F'")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if not (self.p > 0 and self.q > 0):
            raise ValueError("p and q must be positive")
        if self.kind == "F" and np.isinf(self.p):
            raise ValueError("F-kind with p = infinity uses the dedicated path")


@dataclass(frozen=True)
class Criticality:
    cls: str  # subcritical | critical | supercritical


def classify(params):
    """Criticality per the tau = 1/p boundary."""
    inv_p = 0.0 if np.isinf(params.p) else 1.0 / params.p
    if params.tau > inv_p or (params.tau == inv_p and np.isinf(params.q)):
        return Criticality("supercritical")
    if params.tau == inv_p and params.q < np.inf and params.kind == "F":
        return Criticality("critical")
    return Criticality("subcritical")


# ---------------------------------------------------------------------------
# coefficient fields

class CoefficientField:
    """One complex m-vector per window cube, stored per level as arrays."""

    def __init__(self, window, m, values=None):
        self.window = window
        self.m = m
        self.values = {}
        for j in window.levels():
            counts = tuple(window.counts_at_level(j))
            if values is not None and j in values:
                arr = np.asarray(values[j], dtype=complex)
                if arr.shape != counts + (m,):
                    raise ValueError(f"level {j} values shape {arr.shape}")
                self.values[j] = arr
            else:
                self.values[j] = np.zeros(counts + (m,), dtype=complex)

    def set_cube(self, Q, vec):
        self.values[Q.j][self.window.index(Q)] = np.asarray(vec, dtype=complex)

    def cube_value(self, Q):
        return self.values[Q.j][self.window.index(Q)]

    def copy(self):
        return CoefficientField(self.window, self.m,
                                {j: v.copy() for j, v in self.values.items()})

    def __add__(self, other):
        out = self.copy()
        for j in out.values:
            out.values[j] = out.values[j] + other.values[j]
        return out

    def scaled(self, c):
        return CoefficientField(self.window, self.m,
                                {j: c * v for j, v in self.values.items()})

    @staticmethod
    def random(window, m, rng, scale=1.0):
        vals = {}
        for j in window.levels():
            counts = tuple(window.counts_at_level(j))
            vals[j] = scale * (rng.standard_normal(counts + (m,))
                               + 1j * rng.standard_normal(counts + (m,)))
        return CoefficientField(window, m, vals)

    @staticmethod
    def atom(window, m, Q, vec):
        t = CoefficientField(window, m)
        t.set_cube(Q, vec)
        return t


# ---------------------------------------------------------------------------
# the LA^tau engine

@dataclass
class NormResult:
    value: float
    argmax_level: int = None
    argmax_index: tuple = None

    def __float__(self):
        return self.value


def _levels_and_scale(fields, window):
    """Window levels present in fields and the global maximum used to
    rescale them, plus the trivial result when there is nothing to rescale."""
    levels = sorted(j for j in fields if window.j_min <= j <= window.j_max)
    if not levels:
        return levels, 0.0, NormResult(0.0)
    scale = max((float(np.max(f)) if f.size else 0.0) for f in fields.values())
    if scale == 0.0 or not np.isfinite(scale):
        return levels, scale, NormResult(0.0 if scale == 0.0 else float("inf"))
    return levels, scale, None


def _running_lq(fields, levels, scale, q, window):
    """Per window level lP: sum over levels j >= lP of (f_j / scale)^q on the
    grid (the pointwise max at q = inf); levels with no data at or above
    them are left out."""
    run, out = None, {}
    for lP in reversed(window.levels()):
        if lP in levels:
            f = fields[lP] / scale
            if np.isinf(q):
                run = f if run is None else np.maximum(run, f)
            else:
                run = f ** q if run is None else run + f ** q
        if run is not None:
            out[lP] = run
    return out


def _sup_over_cubes(window, scale, vals_at):
    """NormResult of the max over window levels lP of the per-cube array
    vals_at(lP) (None skips the level), rescaled by scale."""
    best, arg = -np.inf, (None, None)
    for lP in window.levels():
        vals = vals_at(lP)
        if vals is None:
            continue
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[idx] > best:
            best, arg = float(vals[idx]), (lP, idx)
    return NormResult(best * scale, *arg)


def la_tau_norm(fields, params, window, grid_level):
    """sup_P |P|^(-tau) ||{f_j}||_{LA(P^)} over the window cubes.

    fields: dict level -> scalar ndarray on the level-`grid_level` grid of
    the window box (nonnegative). Returns NormResult.
    """
    levels, scale, trivial = _levels_and_scale(fields, window)
    if trivial is not None:
        return trivial
    n = window.n
    cellvol = 2.0 ** (-grid_level * n)
    p, q, tau = params.p, params.q, params.tau

    def mass(g, lP):
        """Per level-lP cube L^p average of g (the max at p = inf)."""
        factor = 2 ** (grid_level - lP)
        if np.isinf(p):
            return block_reduce(g, n, factor, np.maximum)
        return (block_reduce(g ** p, n, factor) * cellvol / 2.0 ** (-lP * n)) ** (1.0 / p)

    if params.kind == "B":
        def vals_at(lP):
            stack = [mass(fields[j] / scale, lP) for j in levels if j >= lP]
            if not stack:
                return None
            stack = np.stack(stack)  # (levels >= lP, cubes at lP)
            agg = stack.max(axis=0) if np.isinf(q) else (stack ** q).sum(axis=0) ** (1.0 / q)
            return (2.0 ** (-lP * n)) ** (1.0 / p - tau) * agg
    else:
        agg = _running_lq(fields, levels, scale, q, window)

        def vals_at(lP):
            if lP not in agg:
                return None
            g = agg[lP] if np.isinf(q) else agg[lP] ** (1.0 / q)
            return (2.0 ** (-lP * n)) ** (1.0 / p - tau) * mass(g, lP)
    return _sup_over_cubes(window, scale, vals_at)


def finfty_norm_fields(fields, q, window, grid_level):
    """sup_P (avg over P of sum_{j >= j_P} |f_j|^q)^(1/q); q = inf by sup."""
    levels, scale, trivial = _levels_and_scale(fields, window)
    if trivial is not None:
        return trivial
    n = window.n
    cellvol = 2.0 ** (-grid_level * n)
    agg = _running_lq(fields, levels, scale, q, window)

    def vals_at(lP):
        if lP not in agg:
            return None
        factor = 2 ** (grid_level - lP)
        if np.isinf(q):
            return block_reduce(agg[lP], n, factor, np.maximum)
        return (block_reduce(agg[lP], n, factor) * cellvol / 2.0 ** (-lP * n)) ** (1.0 / q)
    return _sup_over_cubes(window, scale, vals_at)


# ---------------------------------------------------------------------------
# weightings

def _upsample(values, factor, n):
    """Repeat every cell of the trailing n axes factor times along each axis."""
    if factor == 1:
        return values
    for ax in range(-n, 0):
        values = np.repeat(values, factor, axis=ax)
    return values


def _apply_per_cube(A, v, n):
    """A_Q v on the cells of every cube Q: A is (counts..., m, m) and v is an
    (m, *cells) field with the same number of cells per cube on every axis."""
    counts = A.shape[:n]
    f = v.shape[1] // counts[0]
    blocks = v.reshape(v.shape[:1] + sum(((c, f) for c in counts), ()))
    A = A.reshape(sum(((c, 1) for c in counts), ()) + A.shape[n:])
    m = v.shape[0]
    # m^2 broadcast products: a broadcast einsum is about twice as slow in 2-D
    return np.stack([sum(A[..., i, j] * blocks[j] for j in range(m))
                     for i in range(m)]).reshape(v.shape)


def weighted_fields(vecs, weighting, s, box, grid_level, p_weight=None):
    """Per level j, 2^(js) |weighting v_j| on the level-`grid_level` grid of box.

    vecs: dict level j -> (m, *cells) vector field, constant on the cells of
    one lattice level between j and grid_level. weighting is None (Euclidean
    length), a ReducingFamily (|A_Q v| on the cells of each level-j cube Q) or
    a MatrixWeight (|W^(1/p_weight)(x) v(x)|, W sampled once at the grid
    midpoints). Only a matrix weight needs the vectors upsampled; the other
    weightings upsample the lengths.
    """
    n = box.n
    shape = grid_shape(box, grid_level)
    if isinstance(weighting, MatrixWeight):
        if p_weight is None:
            raise InvalidExponentError("a matrix weight needs the exponent p_weight")
        wpow = weighting.power_at(grid_points(box, grid_level), 1.0 / p_weight)
    fields = {}
    for j, v in vecs.items():
        factor = shape[0] // v.shape[1]
        if isinstance(weighting, MatrixWeight):
            if weighting.m != v.shape[0]:
                raise CoverageError("weight dimension does not match the field")
            flat = _upsample(v, factor, n).reshape(v.shape[0], -1).T  # (N, m)
            g = np.linalg.norm(np.einsum("nij,nj->ni", wpow, flat), axis=1).reshape(shape)
        else:
            if weighting is not None:
                v = _apply_per_cube(weighting.level_field(j), v, n)
            g = _upsample(np.linalg.norm(v, axis=0), factor, n)
        fields[j] = 2.0 ** (j * s) * g
    return fields


def _normalized_vectors(t):
    """Level j -> the field of |Q|^(-1/2) t_Q, shape (m, *counts)."""
    return {j: np.moveaxis(v, -1, 0) * 2.0 ** (j * t.window.n / 2.0)
            for j, v in t.values.items()}


def seq_norm(t, params, weighting=None, p_weight=None, grid_level=None,
             selected_mask=None):
    """Sequence-space norm of a coefficient field.

    weighting: None (unweighted Euclidean length), a ReducingFamily (the
    averaging norm |A_j t_j|), or a MatrixWeight (the |W^(1/p) t_j| norm;
    p_weight defaults to params.p). The grid level defaults to the window's
    finest level (+2 when a matrix weight must be resolved).
    """
    window = t.window
    if grid_level is None:
        grid_level = window.j_max + (2 if isinstance(weighting, MatrixWeight) else 0)
    fields = weighted_fields(_normalized_vectors(t), weighting, params.s, window.box, grid_level,
                             p_weight if p_weight is not None else params.p)
    if selected_mask is not None:
        fields = {j: g * selected_mask(j) for j, g in fields.items()}
    return la_tau_norm(fields, params, window, grid_level)


def finfty_norm(t, s, q, weighting=None, grid_level=None):
    """The p = infinity Triebel-Lizorkin sequence norm over the window."""
    window = t.window
    grid_level = grid_level if grid_level is not None else window.j_max
    fields = weighted_fields(_normalized_vectors(t), weighting, s, window.box, grid_level)
    return finfty_norm_fields(fields, q, window, grid_level)


def left_half_mask(window, grid_level):
    """Mask selecting the left half (first axis) of every level-j cube."""

    def mask(j):
        shape = grid_shape(window.box, grid_level)
        factor = 2 ** (grid_level - j)
        coord = np.arange(shape[0]) % factor
        m1 = (coord < factor // 2).astype(float) if factor > 1 else np.ones(shape[0])
        full = m1.reshape((-1,) + (1,) * (window.n - 1))
        return np.broadcast_to(full, shape)

    return mask


# ---------------------------------------------------------------------------
# same-scale maximal sequence

def maximal_sequence(seq, window, r, lam):
    """(t*)_Q = [sum over same-level R of |t_R|^r / (1 + l(R)^-1 |x_R - x_Q|)^lam]^(1/r).

    seq: dict level -> nonnegative array over the window's level slice.
    r = inf takes sup over R of |t_R| (1 + distance)^(-lam).
    """
    out = {}
    n = window.n
    for j, arr in seq.items():
        counts = tuple(window.counts_at_level(j))
        vals = np.abs(np.asarray(arr, dtype=float)).reshape(-1)
        k_lo, k_hi = window._level_index_ranges(j)
        grids = np.meshgrid(*[np.arange(a, b) for a, b in zip(k_lo, k_hi)],
                            indexing="ij")
        pos = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
        # l(R)^-1 |x_R - x_Q| = |k_R - k_Q| in index units
        N = pos.shape[0]
        res = np.empty(N)
        chunk = max(1, 2 ** 22 // max(N, 1))
        for lo in range(0, N, chunk):
            hi = min(N, lo + chunk)
            dist = np.linalg.norm(pos[None, lo:hi, :] - pos[:, None, :], axis=-1)
            w = (1.0 + dist) ** (-lam)
            if np.isinf(r):
                res[lo:hi] = np.max(vals[:, None] * w, axis=0)
            else:
                res[lo:hi] = (vals[:, None] ** r * w).sum(axis=0) ** (1.0 / r)
        out[j] = res.reshape(counts)
    return out


def cube_scalar_sequence(t, family=None):
    """Per-cube scalars |A_Q t_Q| (or |t_Q| without a family) as level arrays."""
    box = t.window.box
    return {j: weighted_fields({j: np.moveaxis(v, -1, 0)}, family, 0.0, box, j)[j]
            for j, v in t.values.items()}


def seq_norm_from_cube_scalars(seq, params, window):
    """Norm of a scalar per-cube sequence (the unweighted a-norm)."""
    return seq_norm(CoefficientField(window, 1, {j: np.asarray(a)[..., None]
                                                 for j, a in seq.items()}), params)


# ---------------------------------------------------------------------------
# identity and embedding checks

def identity_checks(t, params, family=None, rtol=1e-10):
    """Numerically checkable identities for the given parameters.

    Returns {name: {"applicable": bool, "passed": bool or None, ...}}.
    """
    window = t.window
    report = {}
    inv_p = 1.0 / params.p

    nb_hi = seq_norm(t, SpaceParams(params.s, params.tau, params.p,
                                    max(params.p, params.q), "B"), family).value
    nf = seq_norm(t, SpaceParams(params.s, params.tau, params.p, params.q, "F"),
                  family).value
    nb_lo = seq_norm(t, SpaceParams(params.s, params.tau, params.p,
                                    min(params.p, params.q), "B"), family).value
    chain_ok = nb_hi <= nf * (1 + rtol) and nf <= nb_lo * (1 + rtol)
    report["embedding_chain"] = {
        "applicable": True, "passed": bool(chain_ok),
        "values": (nb_hi, nf, nb_lo),
    }

    if params.tau == inv_p and np.isinf(params.q):
        a_val = seq_norm(t, params, family).value
        s_shift = params.s + window.n * (params.tau - inv_p)
        f_val = finfty_norm(t, s_shift, np.inf, family).value
        err = abs(a_val - f_val) / max(a_val, 1e-300)
        report["supercritical_equality"] = {
            "applicable": True, "passed": bool(err <= 1e-12), "rel_err": err,
            "values": (a_val, f_val),
        }
    else:
        report["supercritical_equality"] = {"applicable": False, "passed": None,
                                            "reason": "(tau, q) != (1/p, inf)"}

    if params.tau > inv_p and not np.isinf(params.q):
        a_val = seq_norm(t, params, family).value
        s_shift = params.s + window.n * (params.tau - inv_p)
        f_val = finfty_norm(t, s_shift, np.inf, family).value
        gap = window.n * params.q * (params.tau - inv_p)
        upper = (1.0 / (1.0 - 2.0 ** (-gap))) ** (1.0 / params.q)
        ok = (f_val <= a_val * (1 + rtol)) and (a_val <= upper * f_val * (1 + rtol))
        report["supercritical_two_sided"] = {
            "applicable": True, "passed": bool(ok),
            "upper_constant": upper, "values": (a_val, f_val),
        }
    else:
        report["supercritical_two_sided"] = {"applicable": False, "passed": None,
                                             "reason": "needs tau > 1/p, q < inf"}

    if params.kind == "F" and not np.isinf(params.q):
        f_inf = finfty_norm(t, params.s, params.q, family).value
        crit = seq_norm(t, SpaceParams(params.s, 1.0 / params.q, params.q,
                                       params.q, "F"), family).value
        err = abs(f_inf - crit) / max(f_inf, 1e-300)
        report["finfty_definitional"] = {
            "applicable": True, "passed": bool(err <= 1e-12), "rel_err": err,
        }
    else:
        report["finfty_definitional"] = {"applicable": False, "passed": None,
                                         "reason": "needs F-kind with finite q"}

    nb = seq_norm(t, SpaceParams(params.s, params.tau, params.p, params.p, "B"),
                  family).value
    nf2 = seq_norm(t, SpaceParams(params.s, params.tau, params.p, params.p, "F"),
                   family).value
    err = abs(nb - nf2) / max(nb, 1e-300)
    report["b_equals_f_at_p"] = {"applicable": True, "passed": bool(err <= 1e-12),
                                 "rel_err": err}

    # at the p = infinity marker the B and F aggregations with q = infinity
    # are the same supremum
    vb = seq_norm(t, SpaceParams(params.s, 0.0, np.inf, np.inf, "B"), family).value
    vf = finfty_norm(t, params.s, np.inf, family).value
    err = abs(vb - vf) / max(vb, 1e-300)
    report["b_f_coincide_at_infinity"] = {"applicable": True,
                                          "passed": bool(err <= 1e-12),
                                          "rel_err": err}
    return report

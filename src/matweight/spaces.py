"""Sequence-space norms over a cube window.

The engine evaluates sup_P |P|^(-tau) ||{f_j}||_{LA(P^)} where P runs over
the window cubes, P^ pairs P with levels j >= j_P, and the inner aggregation
is l^q of L^p (B-kind) or L^p of l^q (F-kind). Per-level fields live on a
common uniform grid, so all L^p masses over lattice cubes are exact block
sums; q = infinity and p = infinity take explicit supremum paths. Tiny
values are handled by rescaling with the global maximum, never by raw
powers that could underflow. One function, weighted_fields, makes those
scalar fields from vector fields under every weighting (none, a matrix
weight, a reducing family), for sequences and functions alike. The
smoothness s only multiplies level j by 2^(js), so kept_fields keeps the
unscaled lengths per weighting of vectors that never change: a
CoefficientField's own, and a FilterPair's of the last function it convolved.
A matrix weight's grid samples are kept for the last few weights.
"""

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dyadic import block_reduce, grid_points, grid_shape
from .errors import (CoverageError, InvalidArgumentError, InvalidExponentError,
                     InvalidVariantError)
from .linalg import read_only
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
            raise InvalidVariantError("kind must be 'B' or 'F'")
        if self.tau < 0:
            raise InvalidExponentError("tau must be nonnegative")
        if not (self.p > 0 and self.q > 0):
            raise InvalidExponentError("p and q must be positive")
        if self.kind == "F" and np.isinf(self.p):
            raise InvalidVariantError("F-kind with p = infinity uses the dedicated path")


def classify(params):
    """'subcritical', 'critical' or 'supercritical', per the tau = 1/p boundary."""
    inv_p = 0.0 if np.isinf(params.p) else 1.0 / params.p
    if params.tau > inv_p or (params.tau == inv_p and np.isinf(params.q)):
        return "supercritical"
    if params.tau == inv_p and params.q < np.inf and params.kind == "F":
        return "critical"
    return "subcritical"


# ---------------------------------------------------------------------------
# coefficient fields

class CoefficientField:
    """One complex m-vector per window cube, stored per level as read-only arrays.

    A field never changes once built: values is a read-only mapping of arrays
    locked in place or copied (linalg.read_only), and set_cube, scaled and +
    build new fields. So the field keeps the unscaled lengths |A_Q t_Q| of
    every weighting it is normed under (kept_fields), and its sequence norms
    after the first pay no weighting pass.
    """

    def __init__(self, window, m, values=None):
        self.window = window
        self.m = m
        levels = {}
        for j in window.levels():
            counts = tuple(window.counts_at_level(j))
            if values is not None and j in values:
                arr = np.asarray(values[j], dtype=complex)
                if arr.shape != counts + (m,):
                    raise InvalidArgumentError(f"level {j} values shape {arr.shape}")
            else:
                arr = np.zeros(counts + (m,), dtype=complex)
            levels[j] = read_only(arr)
        self.values = MappingProxyType(levels)
        self._kept_lengths = {}

    def set_cube(self, Q, vec):
        """A new field equal to this one except t_Q = vec."""
        idx = self.window.index(Q)
        level = self.values[Q.j].copy()
        level[idx] = np.asarray(vec, dtype=complex)
        return CoefficientField(self.window, self.m, {**self.values, Q.j: level})

    def __add__(self, other):
        if other.m != self.m:
            raise CoverageError(f"cannot add an m = {other.m} field to an m = {self.m} one")
        a, b = self.window, other.window
        if (a.j_min, a.j_max, a.box) != (b.j_min, b.j_max, b.box):
            raise CoverageError("cannot add fields on different cube windows")
        return CoefficientField(a, self.m,
                                {j: v + other.values[j] for j, v in self.values.items()})

    def scaled(self, c):
        return CoefficientField(self.window, self.m,
                                {j: c * v for j, v in self.values.items()})

    @staticmethod
    def random(window, m, rng):
        vals = {}
        for j in window.levels():
            counts = tuple(window.counts_at_level(j))
            vals[j] = rng.standard_normal(counts + (m,)) + 1j * rng.standard_normal(counts + (m,))
        return CoefficientField(window, m, vals)


# ---------------------------------------------------------------------------
# the LA^tau engine

@dataclass
class NormResult:
    value: float
    argmax_level: int = None

    def __float__(self):
        return self.value


def _levels_and_scale(fields, window):
    """Window levels present in fields and the global maximum used to
    rescale them, plus the trivial result when there is nothing to rescale."""
    levels = sorted(j for j in fields if window.j_min <= j <= window.j_max)
    if not levels:
        return levels, 0.0, NormResult(0.0)
    # np.max, unlike Python's max, keeps a nan whatever the order of the levels
    scale = float(np.max([np.max(f, initial=0.0) for f in fields.values()]))
    if scale == 0.0 or not np.isfinite(scale):
        return levels, scale, NormResult(scale)
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
    best, arg = -np.inf, None
    for lP in window.levels():
        vals = vals_at(lP)
        if vals is None:
            continue
        top = vals.max()
        if top > best:
            best, arg = float(top), lP
    return NormResult(best * scale, arg)


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

    def power(g):
        return g if np.isinf(p) else g ** p

    def mass(gp, lP):
        """Per level-lP cube L^p average of g from gp = power(g) (the max at p = inf)."""
        factor = 2 ** (grid_level - lP)
        if np.isinf(p):
            return block_reduce(gp, n, factor, np.maximum)
        return (block_reduce(gp, n, factor) * cellvol / 2.0 ** (-lP * n)) ** (1.0 / p)

    if params.kind == "B":
        # each level's power is formed once and serves every window level lP <= j
        masses = {lP: [] for lP in window.levels()}
        for j in levels:
            gp = power(fields[j] / scale)
            for lP in masses:
                if lP <= j:
                    masses[lP].append(mass(gp, lP))

        def vals_at(lP):
            if not masses[lP]:
                return None
            stack = np.stack(masses[lP])  # (levels >= lP, cubes at lP)
            agg = stack.max(axis=0) if np.isinf(q) else (stack ** q).sum(axis=0) ** (1.0 / q)
            return (2.0 ** (-lP * n)) ** (1.0 / p - tau) * agg
    else:
        agg = _running_lq(fields, levels, scale, q, window)

        def vals_at(lP):
            if lP not in agg:
                return None
            g = agg[lP] if np.isinf(q) else agg[lP] ** (1.0 / q)
            return (2.0 ** (-lP * n)) ** (1.0 / p - tau) * mass(power(g), lP)
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


def _lengths(v, A=None, n=None):
    """|A_Q v| on the cells of every cube Q: v is an (m, *cells) field and A is
    None (the identity), (counts...) scalars or (counts..., m, m) matrices, with
    the same number of cells per cube on every axis. Bit for bit
    np.linalg.norm(A_Q v, axis=0), whose sum over axis 0 adds the components'
    (w* w).real in turn, but without stacking the A_Q v."""
    m, cells = v.shape[0], v.shape[1:]
    if A is not None:
        counts = A.shape[:n]
        f = cells[0] // counts[0]
        v = v.reshape((m,) + sum(((c, f) for c in counts), ()))
        A = A.reshape(sum(((c, 1) for c in counts), ()) + A.shape[n:])
    total = 0.0
    for i in range(m):
        if A is None or A.ndim == 2 * n:
            w = v[i] if A is None else A * v[i]
        else:
            # m^2 broadcast products: a broadcast einsum is about twice as slow in 2-D
            w = A[..., i, 0] * v[0]
            for k in range(1, m):
                w += A[..., i, k] * v[k]
        total = total + (w.conj() * w).real
    return np.sqrt(total).reshape(cells)


def _rescaled_lengths(v, A, n, g):
    """g = _lengths(v, A, n) after a floating-point error, perhaps a signal
    handler's: each length non-finite, or outside [2^-500, 2^500] from a
    finite nonzero vector, is redone on the vectors scaled per cell by a power
    of two. A length in that range is accurate even if some of its squares
    underflowed, and a vector with an inf entry keeps its inf length."""
    if 2.0 ** -500 <= g.min() and g.max() <= 2.0 ** 500:
        return g
    with np.errstate(all="ignore"):
        top = np.abs(v).max(axis=0)
        e = np.frexp(top)[1].clip(-1000, 1000)
        redo = np.ldexp(_lengths(v * np.ldexp(1.0, -e), A, n), e)
        return np.where((top > 0) & (top < np.inf) & ~((g >= 2.0 ** -500) & (g <= 2.0 ** 500)),
                        redo, g)


def _weighting_key(weighting, levels, p_weight):
    """(key, arrays whose ids the key holds): all of a weighting that changes
    its lengths, or None for a weight without a descriptor."""
    if weighting is None:
        return ("euclidean",), None
    if isinstance(weighting, MatrixWeight):
        try:
            return ("weight", repr(weighting.descriptor()), p_weight), None
        except NotImplementedError:
            return None, None
    mats = tuple(weighting.level_field(j) for j in levels)  # read-only arrays
    return ("family",) + tuple(map(id, mats)), mats


# W^(1/p_weight) on the grid midpoints of the last few described weights,
# keyed as in _weight_samples; a new key evicts the oldest
_SAMPLES, _SAMPLES_KEPT = {}, 4


def _weight_samples(weighting, box, grid_level, p_weight):
    """Read-only W^(1/p_weight) at the level-grid_level midpoints of box, one
    cube per grid cell. A weight with a descriptor is sampled once per
    (type, descriptor, p_weight, box, grid level) while that key is among the
    last _SAMPLES_KEPT; a weight without one is sampled on every call."""
    key = _weighting_key(weighting, (), p_weight)[0]
    if key is not None:
        key += (type(weighting), tuple(box.lo), tuple(box.hi), grid_level)
    wpow = _SAMPLES.get(key)
    if wpow is None:
        X = grid_points(box, grid_level)
        wpow = (weighting.scalar_profile(X) ** (1.0 / p_weight) if weighting.is_scalar()
                else weighting.power_at(X, 1.0 / p_weight))
        wpow = read_only(wpow.reshape(grid_shape(box, grid_level) + wpow.shape[1:]))
        if key is not None:
            if len(_SAMPLES) >= _SAMPLES_KEPT:
                del _SAMPLES[next(iter(_SAMPLES))]
            _SAMPLES[key] = wpow
    return wpow


def _weighted_lengths(vecs, weighting, box, grid_level, p_weight):
    n = box.n
    shape = grid_shape(box, grid_level)
    matrix = isinstance(weighting, MatrixWeight)
    if matrix:
        if p_weight is None:
            raise InvalidExponentError("a matrix weight needs the exponent p_weight")
        wpow = _weight_samples(weighting, box, grid_level, p_weight)
    elif weighting is not None and weighting.window.box != box:
        raise CoverageError("the reducing family lives on another box than the field")
    lengths, faults = {}, []
    # a floating-point error is reported to faults, neither raised nor warned
    with np.errstate(all="call", call=lambda *_: faults.append(1)):
        for j, v in vecs.items():
            if weighting is not None and weighting.m != v.shape[0]:
                raise CoverageError(f"an m = {weighting.m} weighting does not match the field")
            factor = shape[0] // v.shape[1]
            if matrix:
                v, A, factor = _upsample(v, factor, n), wpow, 1
            else:
                A = None if weighting is None else weighting.level_field(j)
            g = _lengths(v, A, n)
            if faults:
                g = _rescaled_lengths(v, A, n, g)
                faults.clear()
            lengths[j] = _upsample(g, factor, n)
    return lengths


def _scaled(lengths, s):
    return {j: 2.0 ** (j * s) * g for j, g in lengths.items()}


def weighted_fields(vecs, weighting, s, box, grid_level, p_weight=None):
    """Per level j, 2^(js) |weighting v_j| on the level-`grid_level` grid of box.

    vecs: dict level j -> (m, *cells) vector field, constant on the cells of
    one lattice level between j and grid_level. weighting is None (Euclidean
    length), a ReducingFamily (|A_Q v| on the cells of each level-j cube Q) or
    a MatrixWeight (|W^(1/p_weight)(x) v(x)|, W sampled once at the grid
    midpoints). Only a matrix weight needs the vectors upsampled; the other
    weightings upsample the lengths. One kernel, _lengths, makes them all. A
    scalar weight (is_scalar()) skips the m x m product for scalar_profile(x)
    ^(1/p_weight) v(x): for PowerLogWeight and ProductPowerWeight that is bit
    for bit the same, as their off-diagonal products only add exact zeros.
    """
    return _scaled(_weighted_lengths(vecs, weighting, box, grid_level, p_weight), s)


def kept_fields(kept, window, vecs, weighting, s, grid_level, p_weight):
    """weighted_fields of the never-changing vectors vecs() makes on the window's
    levels, with their unscaled lengths kept in the dict kept per _weighting_key
    and grid: calls that differ only in s share one weighting pass."""
    key, keep = _weighting_key(weighting, tuple(window.levels()), p_weight)
    if key is None:
        return weighted_fields(vecs(), weighting, s, window.box, grid_level, p_weight)
    key += (grid_level,)
    if key not in kept:
        kept[key] = keep, _weighted_lengths(vecs(), weighting, window.box, grid_level, p_weight)
    return _scaled(kept[key][1], s)


def _sequence_fields(t, weighting, s, grid_level, p_weight):
    """weighted_fields of |Q|^(-1/2) t_Q, through the lengths the field keeps.
    The real and imaginary parts are scaled apart: a complex product would
    turn an inf entry into inf + nan j."""
    return kept_fields(t._kept_lengths, t.window,
                       lambda: {j: np.moveaxis((np.ascontiguousarray(v).view(float)
                                                * 2.0 ** (j * t.window.n / 2.0)).view(complex),
                                               -1, 0)
                                for j, v in t.values.items()},
                       weighting, s, grid_level, p_weight)


def _default_grid_level(window, weighting, grid_level):
    """grid_level, by default the window's finest level (+2 when a matrix
    weight must be resolved)."""
    if grid_level is not None:
        return grid_level
    return window.j_max + (2 if isinstance(weighting, MatrixWeight) else 0)


def seq_norm(t, params, weighting=None, p_weight=None, grid_level=None,
             selected_mask=None):
    """Sequence-space norm of a coefficient field.

    weighting: None (unweighted Euclidean length), a ReducingFamily (the
    averaging norm |A_j t_j|), or a MatrixWeight (the |W^(1/p) t_j| norm;
    p_weight defaults to params.p). The grid level defaults to the window's
    finest level (+2 when a matrix weight must be resolved). The unscaled
    lengths come from the field's own cache, so norms of one field that
    differ only in (s, tau, p, q) pay one weighting pass per weighting,
    p_weight and grid level.
    """
    grid_level = _default_grid_level(t.window, weighting, grid_level)
    fields = _sequence_fields(t, weighting, params.s, grid_level,
                              p_weight if p_weight is not None else params.p)
    if selected_mask is not None:
        fields = {j: g * selected_mask(j) for j, g in fields.items()}
    return la_tau_norm(fields, params, t.window, grid_level)


def finfty_norm(t, s, q, weighting=None, grid_level=None):
    """The p = infinity Triebel-Lizorkin sequence norm over the window.

    Weightings, grid level and the field's kept lengths as in seq_norm; a
    matrix weight enters as W^(1/2), as in transform.finfty_function_norm.
    """
    grid_level = _default_grid_level(t.window, weighting, grid_level)
    fields = _sequence_fields(t, weighting, s, grid_level, 2.0)
    return finfty_norm_fields(fields, q, t.window, grid_level)


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
        pos = window.batch(j)[1].astype(float)
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
    return {j: _weighted_lengths({j: np.moveaxis(v, -1, 0)}, family, box, j, None)[j]
            for j, v in t.values.items()}


def seq_norm_from_cube_scalars(seq, params, window):
    """Norm of a scalar per-cube sequence (the unweighted a-norm)."""
    return seq_norm(CoefficientField(window, 1, {j: np.asarray(a)[..., None]
                                                 for j, a in seq.items()}), params)

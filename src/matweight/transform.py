"""Band-limited filter banks and the analysis/synthesis transform pair.

Everything lives on a periodic uniform grid over the working box. A filter
pair consists of a radial bump supported on the annulus 1/2 <= |xi| <= 2 and
its companion normalized so the telescoping products sum to one; with both
spectra inside the grid's safe band, analysis followed by synthesis is exact
to rounding, which is the discrete counterpart of the reproducing identity.
Each filter level is stored as its annulus only, the grid frequencies where
phi_hat_j != 0, so analysis, synthesis and the per-scale convolutions touch
those and no others. Level j is sampled on the M^n corner lattice, M = N /
2^(grid_level - j), where frequency k folds onto k mod M; the annulus |xi| <
2^(j+1) < pi 2^j lies inside that lattice's band, so its fold is one-to-one.
Function norms and the Peetre-type cube sup weight the per-scale
convolutions, which the filters keep for the last function, once per weighting.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .dyadic import block_reduce, grid_points, grid_shape
from .errors import CoverageError, InvalidArgumentError, ResolutionError, ScaleRangeError
from .geometry import CubeWindow
from .linalg import read_only
from .spaces import CoefficientField, finfty_norm_fields, kept_fields, la_tau_norm

# 0 times an inf or nan coefficient, which phi_hat_j makes off its annulus
_NAN = complex(np.nan, np.nan)


def bump_profile(t, k):
    """C^(k-1) radial bump on [1/2, 2]: cos(pi/2 log2 t)^k, peak 1 at t = 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = (t > 0.5) & (t < 2.0)
    out[mask] = np.cos(0.5 * np.pi * np.log2(t[mask])) ** k
    return out


def psi_profile(t, k):
    """Scale-invariant synthesis profile bump(t) / sum_{i=-2..2} bump(t / 2^i)^2,
    0 off the bump's support."""
    prof = bump_profile(t, k)
    denom = sum(bump_profile(t / 2.0 ** i, k) ** 2 for i in (-2, -1, 0, 1, 2))
    return np.where(prof > 0, prof / np.where(denom > 0, denom, 1.0), 0.0)


class Annulus(NamedTuple):
    """One filter level on the flat grid indices idx where phi_hat_j != 0."""

    idx: np.ndarray  # flat grid indices, ascending
    phi: np.ndarray  # phi_hat_j there
    psi: np.ndarray  # psi_hat_j there
    fold: np.ndarray  # the level-j lattice index each one folds onto
    phase: np.ndarray  # exp(i xi . box corner), taking coefficients to the corners
    synth: np.ndarray  # psi_hat_j conj(phase) 2^(-jn/2) / side^n


def filter_scales(box, grid_level):
    """(N, j_min, j_max) of a filter pair on a cubic box: N grid points per
    axis at grid_level and the scales whose annuli the grid holds. Raises
    ResolutionError unless N is a power of two >= 8 that holds one annulus."""
    if len(set(box.sides)) != 1:
        raise InvalidArgumentError("filter grids require a cubic box")
    side = float(box.sides[0])
    N = grid_shape(box, grid_level)[0]
    if N < 8 or (N & (N - 1)) != 0:
        raise ResolutionError("grid size per axis must be a power of two >= 8")
    j_min = int(np.ceil(np.log2(2.0 * np.pi / side) - 1.0 + 1e-12))
    j_max = int(np.floor(np.log2(np.pi * N / side) + 1e-12)) - 1
    if j_max < j_min:
        raise ResolutionError("grid too small to hold one full annulus")
    return N, j_min, j_max


class FilterPair:
    """Frequency samples of a Littlewood-Paley analysis/synthesis pair.

    Level j, for j_min <= j <= j_max, is kept as its Annulus: phi_hat_j,
    psi_hat_j = phi_hat_j / sum_i |phi_hat_i|^2 and the fold onto the level-j
    lattice, on the grid frequencies where phi_hat_j != 0 and nowhere else.
    phi_hat(j) and psi_hat(j) build the full grids on request.
    """

    def __init__(self, box, grid_level, smoothness=6):
        self.N, self.j_min, self.j_max = filter_scales(box, grid_level)
        self.box = box
        self.grid_level = grid_level
        self.smoothness = smoothness
        self.n = box.n
        side = float(box.sides[0])
        k = np.fft.fftfreq(self.N) * self.N
        grids = np.meshgrid(*[2.0 * np.pi * k / side] * self.n, indexing="ij")
        self.xi = np.stack(grids, axis=0)  # (n, *grid)
        self.xi_norm = np.sqrt(sum(g ** 2 for g in grids))
        # phases mapping fft coefficients to physical positions
        lo = box.lo_arr
        h = 2.0 ** (-grid_level)
        self._phase_mid = np.exp(1j * sum(self.xi[i] * (lo[i] + 0.5 * h)
                                          for i in range(self.n)))
        self._annuli = {j: self._annulus(j, side) for j in range(self.j_min, self.j_max + 1)}
        self._kept = weakref.WeakKeyDictionary()  # see _weighted_conv_fields

    def _annulus(self, j, side):
        """Level j's Annulus, with the values the whole-grid formulas give there."""
        r = self.xi_norm.ravel()
        phi = bump_profile(r / 2.0 ** j, self.smoothness)
        idx = np.flatnonzero(phi)
        phi, r = phi[idx], r[idx]
        # only levels j - 1, j, j + 1 overlap the annulus; the others add exact zeros
        denom = sum(bump_profile(r / 2.0 ** i, self.smoothness) ** 2 for i in (j - 1, j, j + 1))
        psi = phi / denom
        xi = self.xi.reshape(self.n, -1)[:, idx]
        phase = np.exp(1j * sum(xi[i] * self.box.lo_arr[i] for i in range(self.n)))
        synth = psi * np.conj(phase)
        synth *= 2.0 ** (-j * self.n / 2.0) / side ** self.n
        fold = self._fold(idx, j)
        return Annulus(*(read_only(a) for a in (idx, phi, psi, fold, phase, synth)))

    def _fold(self, flat, j):
        """Level-j lattice index of flat grid indices: k and k + M agree on
        the lattice 2^-j Z^n (Poisson summation), so k folds onto k mod M."""
        M = self.N >> (self.grid_level - j)
        k = np.unravel_index(flat, (self.N,) * self.n)
        return np.ravel_multi_index(tuple(a % M for a in k), (M,) * self.n)

    def annulus(self, j):
        """Level j's Annulus; ScaleRangeError outside [j_min, j_max]."""
        if not (self.j_min <= j <= self.j_max):
            raise ScaleRangeError(f"scale {j} outside [{self.j_min}, {self.j_max}]")
        return self._annuli[j]

    @property
    def safe_band(self):
        """Annulus of frequencies covered by every contributing scale."""
        return (2.0 ** (self.j_min + 1), 2.0 ** (self.j_max - 1))

    def safe_levels(self):
        """Scales whose full annulus sits inside the safe band."""
        return (self.j_min + 2, self.j_max - 2)

    def _on_grid(self, idx, vals):
        out = np.zeros(self.xi_norm.size)
        out[idx] = vals
        return out.reshape(self.xi_norm.shape)

    def phi_hat(self, j):
        a = self.annulus(j)
        return self._on_grid(a.idx, a.phi)

    def psi_hat(self, j):
        a = self.annulus(j)
        return self._on_grid(a.idx, a.psi)

    def calderon_defect(self):
        """max over safe-band frequencies of |sum_j conj(phi^)psi^ - 1|."""
        total = np.zeros(self.xi_norm.size)
        for a in self._annuli.values():
            total[a.idx] += a.phi * a.psi
        lo, hi = self.safe_band
        mask = ((self.xi_norm >= lo) & (self.xi_norm <= hi)).ravel()
        return float(np.max(np.abs(total[mask] - 1.0)))

    def annulus_lower_bound(self, which="phi"):
        """min |profile| over 3/5 <= |xi|/2^j <= 5/3 (scale-invariant)."""
        ts = np.linspace(0.6, 5.0 / 3.0, 2001)
        profile = psi_profile if which == "psi" else bump_profile
        return float(np.min(profile(ts, self.smoothness)))

    def descriptor(self):
        return {"grid_level": self.grid_level, "smoothness": self.smoothness,
                "box_lo": list(self.box.lo), "box_hi": list(self.box.hi),
                "j_min": self.j_min, "j_max": self.j_max}


def build_filters(box, grid_level, smoothness=6):
    return FilterPair(box, grid_level, smoothness)


def _check_grid(filters, f, window=None):
    """Raise unless f's coefficients live on the filters' grid and the window
    on the filters' box."""
    if (f.filters.box, f.filters.grid_level) != (filters.box, filters.grid_level):
        raise ResolutionError("the function lives on another grid than the filters")
    if window is not None and window.box != filters.box:
        raise CoverageError("the window's box is not the filters' box")


@dataclass(frozen=True, eq=False)
class BandLimitedFunction:
    """Vector-valued periodic function as fft coefficients on the filter grid."""

    filters: FilterPair
    coeffs: np.ndarray  # (m, *grid) with f(x) = sum_k C_k exp(i xi_k x)

    def __post_init__(self):
        coeffs = read_only(self.coeffs, complex)
        object.__setattr__(self, "coeffs", coeffs[None] if coeffs.ndim == self.filters.n else coeffs)
        object.__setattr__(self, "m", self.coeffs.shape[0])

    @cached_property
    def finite(self):
        """Whether every coefficient is finite, found once per function. Only
        then may the annulus paths skip the coefficients off an annulus: there
        phi_hat_j is 0, and 0 times inf or nan is nan."""
        return bool(np.isfinite(self.coeffs).all())

    def values(self):
        """Samples at the grid cell midpoints, shape (m, *grid)."""
        F = self.coeffs * self.filters._phase_mid
        np.fft.ifftn(F, axes=tuple(range(1, self.filters.n + 1)), out=F)
        F *= self.filters.N ** self.filters.n
        return F

    def zero_mean_defect(self):
        zero = (0,) * self.filters.n
        peak = float(np.max(np.abs(self.coeffs)))
        return float(np.max(np.abs(self.coeffs[(slice(None),) + zero]))) / max(peak, 1e-300)

    def sup_norm(self):
        return float(np.max(np.abs(self.values())))

    def __add__(self, other):
        _check_grid(self.filters, other)
        if other.m != self.m:
            raise CoverageError(f"cannot add an m = {other.m} function to an m = {self.m} one")
        return BandLimitedFunction(self.filters, self.coeffs + other.coeffs)

    def scaled(self, c):
        return BandLimitedFunction(self.filters, c * self.coeffs)


def random_band_limited(filters, m, rng, band=None):
    """Random coefficients supported on the (default: safe) annulus."""
    lo, hi = band if band is not None else filters.safe_band
    mask = (filters.xi_norm >= lo) & (filters.xi_norm <= hi)
    shape = (m,) + filters.xi_norm.shape
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
    return BandLimitedFunction(filters, coeffs)


def _nonfinite_off(f, a):
    """(component, flat grid index) of f's non-finite coefficients off the annulus a."""
    bad = ~np.isfinite(f.coeffs.reshape(f.m, -1))
    bad[:, a.idx] = False
    return np.nonzero(bad)


def convolve_scale(f, filters, j):
    """phi_j * f by frequency multiplication on phi_j's annulus; exact on the
    periodic grid."""
    a = filters.annulus(j)
    C = f.coeffs.reshape(f.m, -1)
    out = np.zeros(f.coeffs.shape, dtype=complex)
    flat = out.reshape(f.m, -1)
    for row, c in zip(flat, C):  # row by row: 1-D take and put beat 2-D fancy indexing
        row.put(a.idx, c.take(a.idx) * a.phi)
    if not f.finite:
        flat[_nonfinite_off(f, a)] = _NAN
    return BandLimitedFunction(filters, out)


def analyze(f, filters, window):
    """Coefficients <f, phi_Q> = |Q|^(1/2) (conj-reflected phi)_j * f at x_Q.

    Level j samples phi_j * f at the lattice corners 2^-j k: the annulus is
    folded onto the M^n lattice frequencies, one to one, and one M^n-point
    inverse FFT follows. phi_hat is real, so the conjugate-reflected filter
    has the same multipliers.
    """
    _check_grid(filters, f, window)
    if window.j_max > filters.grid_level:
        raise ResolutionError("window finer than the grid")
    if window.j_min < filters.j_min or window.j_max > filters.j_max:
        raise ScaleRangeError("window scales outside the resolvable range")
    n, m = filters.n, f.m
    C = f.coeffs.reshape(m, -1)
    values = {}
    for j in window.levels():
        a = filters.annulus(j)
        M = filters.N >> (filters.grid_level - j)
        lat = np.zeros((m,) + (M,) * n, dtype=complex)
        flat = lat.reshape(m, -1)
        for row, c in zip(flat, C):
            row.put(a.fold, (c.take(a.idx) * a.phi) * a.phase)
        if not f.finite:
            rows, cols = _nonfinite_off(f, a)
            flat[rows, filters._fold(cols, j)] = _NAN
        np.fft.ifftn(lat, axes=tuple(range(1, n + 1)), out=lat)
        lat *= M ** n
        lat *= 2.0 ** (-j * n / 2.0)
        values[j] = np.moveaxis(lat, 0, -1)
    return CoefficientField(window, m, values)


def synthesize(t, filters):
    """sum_Q t_Q psi_Q accumulated scale by scale in frequency space. The
    level-j coefficients sit on an M^n sub-lattice of the grid, so their
    spectrum is the M^n-point one repeated 2^(grid_level - j) times per axis;
    psi_j reads it only on its annulus, through the fold."""
    window = t.window
    if window.box != filters.box:
        raise CoverageError("the window's box is not the filters' box")
    if window.j_min < filters.j_min or window.j_max > filters.j_max:
        raise ScaleRangeError("window scales outside the resolvable range")
    n = filters.n
    out = np.zeros((t.m,) + filters.xi_norm.shape, dtype=complex)
    flat = out.reshape(t.m, -1)
    for j in window.levels():
        a = filters.annulus(j)
        F = np.moveaxis(t.values[j], -1, 0).copy()  # (m, M, ..., M), never t's own array
        np.fft.fftn(F, axes=tuple(range(1, n + 1)), out=F)
        F = F.reshape(t.m, -1)
        for row, g in zip(flat, F):
            row.put(a.idx, row.take(a.idx) + g.take(a.fold) * a.synth)
        if not np.isfinite(F.sum()):  # an inf or nan entry, or only an overflowing sum
            bad = ~np.isfinite(F)[:, filters._fold(np.arange(flat.shape[1]), j)]
            bad[:, a.idx] = False
            flat[bad] = _NAN
    return BandLimitedFunction(filters, out)


def _weighted_conv_fields(f, filters, window, weighting, s, p_weight=None):
    """Per level j, 2^(js) |weighting (phi_j * f)| at the grid midpoints.

    The filters keep the last function's read-only convolution fields and
    their lengths (spaces.kept_fields) in a weak one-entry map keyed on the
    frozen function, so its norms and Peetre sup share one convolution pass
    and one weighting pass per weighting. The entry dies with the function.
    """
    _check_grid(filters, f, window)
    levels = tuple(window.levels())
    kept = filters._kept.get(f)
    if kept is None or kept[0] != levels:
        filters._kept.clear()  # the old fields die before the new ones are computed
        fields = {j: read_only(convolve_scale(f, filters, j).values()) for j in levels}
        kept = filters._kept[f] = levels, fields, {}
    return kept_fields(kept[2], window, lambda: kept[1], weighting, s, filters.grid_level,
                       p_weight)


def function_norm(f, filters, params, weighting=None, p_weight=None, window=None):
    """Function-space norm from the per-scale convolution fields.

    weighting is a MatrixWeight (pointwise |W^(1/p) .|), a ReducingFamily
    (piecewise-constant |A_j .|), or None for the plain Euclidean length.
    """
    window = window or CubeWindow(filters.n, *filters.safe_levels(), filters.box)
    fields = _weighted_conv_fields(f, filters, window, weighting, params.s,
                                   p_weight if p_weight is not None else params.p)
    return la_tau_norm(fields, params, window, filters.grid_level)


def finfty_function_norm(f, filters, s, q, weighting=None, p_weight=2.0, window=None):
    window = window or CubeWindow(filters.n, *filters.safe_levels(), filters.box)
    fields = _weighted_conv_fields(f, filters, window, weighting, s, p_weight)
    return finfty_norm_fields(fields, q, window, filters.grid_level)


def peetre_sup(f, filters, family, window):
    """Per-cube |Q|^(1/2) sup over grid nodes in Q of |A_Q (phi_j * f)(y)|."""
    fields = _weighted_conv_fields(f, filters, window, family, 0.0)
    return {j: 2.0 ** (-j * window.n / 2.0)
            * block_reduce(g, window.n, 2 ** (filters.grid_level - j), np.maximum)
            for j, g in fields.items()}


def lifting(f, sigma):
    """Frequency multiplier |xi|^sigma; requires a zero mean."""
    if f.zero_mean_defect() > 1e-12:
        raise InvalidArgumentError("lifting requires a vanishing zero-frequency coefficient")
    flt = f.filters
    mult = np.zeros_like(flt.xi_norm)
    nz = flt.xi_norm > 0
    mult[nz] = flt.xi_norm[nz] ** sigma
    return BandLimitedFunction(flt, f.coeffs * mult)


def schwartz_seminorm(filters, M):
    """sup_{|gamma| <= M} sup_x |d^gamma phi(x)| (1 + |x|)^(n + M + |gamma|).

    The unit-annulus filter is only resolvable after rescaling, so the
    samples come from the level-j_ref copy, j_ref = j_max - 2 (the widest
    decay window the grid resolves), and are scaled back; the supremum
    covers |x| up to 2^j_ref times half the period (the decay visible
    within one period of the surrogate).
    """
    n = filters.n
    side = float(filters.box.sides[0])
    j_ref = filters.j_max - 2
    base = filters.phi_hat(j_ref) / side ** n  # coefficients of the periodized level-j filter
    pts = grid_points(filters.box, filters.grid_level, flat=False)
    radii = 2.0 ** j_ref * np.linalg.norm(pts, axis=-1)
    best = 0.0
    ntot = filters.N ** n
    for gamma in product(range(M + 1), repeat=n):
        tot = sum(gamma)
        if tot > M:
            continue
        mult = np.ones_like(filters.xi_norm, dtype=complex)
        for ax, g in enumerate(gamma):
            if g:
                mult = mult * (1j * filters.xi[ax]) ** g
        vals = np.fft.ifftn(base * mult * filters._phase_mid,
                            axes=tuple(range(n))) * ntot
        scale = 2.0 ** (-j_ref * (n + tot))
        weight = (1.0 + radii) ** (n + M + tot)
        best = max(best, float(np.max(np.abs(vals) * weight)) * scale)
    return best

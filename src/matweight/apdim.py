"""A_p-dimension estimation and growth diagnostics.

The central object is the sequence a_i of windowed suprema of two-cube
averaging quantities; its tail slope on a log2 scale estimates the critical
growth exponent d. Any finite cube family makes a_i a certified lower bound
of the full supremum, so slopes are compared against closed-form targets
rather than claimed as limits.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import IntegrabilityError
from .geometry import CubeWindow, DyadicCube, cube_box, double
from .quad import QuadSpec, box_nodes
from .weights import _ap_factor, _ap_kernel, _graded_mesh, cube_average, dual_weight


@dataclass
class ApDimensions:
    """Estimated growth exponents (d, dtilde, delta = d/p + dtilde/p')."""

    d: float
    dtilde: float
    delta: float
    n: int = 1
    flags: list = field(default_factory=list)


@dataclass
class DimensionEstimate:
    i_values: np.ndarray
    a_values: np.ndarray
    slope: float
    log_coeff: float
    fit_window: tuple
    residual: float
    i_max_used: int
    num_base_cubes: int


@dataclass
class ApDimConfig:
    i_max: int = 8
    domain_half: float = 512.0
    window_levels: tuple = (-2, -1)
    abut_levels: tuple = (-2, 14)
    base_depth: int = 4
    grade_depth: int = 24
    sup_depth: int = 3
    sup_grade: int = 16
    fit_skip: int = 2

    def domain(self, n):
        return cube_box(n, self.domain_half)


def abutting_cubes(point, levels, domain):
    """All lattice cubes whose closure contains the point, per level."""
    from itertools import product

    point = np.atleast_1d(np.asarray(point, dtype=float))
    n = point.size
    out = []
    for j in range(levels[0], levels[1] + 1):
        scale = 2.0 ** j
        cand = []
        for i in range(n):
            v = point[i] * scale
            r = np.rint(v)
            if abs(v - r) < 1e-9:
                cand.append([int(r) - 1, int(r)])  # point on a lattice plane
            else:
                cand.append([int(np.floor(v))])
        for combo in product(*cand):
            Q = DyadicCube(j, tuple(combo))
            if domain.contains_box(Q.box()):
                out.append(Q)
    return list(dict.fromkeys(out))


def default_base_cubes(weight, config):
    """Window cubes plus cubes abutting each singular point."""
    n = weight.n
    domain = config.domain(n)
    win = CubeWindow(n, config.window_levels[0], config.window_levels[1], domain)
    cubes = win.cubes()
    for s in weight.singular_points:
        cubes.extend(abutting_cubes(s, config.abut_levels, domain))
    return list(dict.fromkeys(cubes)), domain


def _fits(Q, i, domain):
    from .errors import OutOfDomainError

    try:
        double(Q, i, domain=domain, clip=False)
        return True
    except OutOfDomainError:
        return False


def _filter_base_cubes(cubes, i_max, domain):
    """Keep cubes whose 2^i_max-dilation stays inside; shrink i_max if none fit."""
    i_eff = i_max
    while i_eff > 0:
        kept = [Q for Q in cubes if _fits(Q, i_eff, domain)]
        if kept:
            if i_eff < i_max:
                warnings.warn(f"i_max reduced from {i_max} to {i_eff} to fit the domain")
            return kept, i_eff
        i_eff -= 1
    raise ValueError("no base cube fits the working domain even at i = 1")


def _scalar_avg(weight, box, power, qspec):
    """avg over the box of w^power for a scalar weight w I."""
    return float(cube_average(weight, box, power, 1.0, lambda mats: mats[:, 0, 0].real,
                              qspec, name="cross average").value)


def _cross_quantity_scalar(weight, p, box_small, box_big, swapped, config, cache):
    """The two-cube A_p quantity for scalar-kind weights."""
    qspec = QuadSpec(base_depth=config.base_depth, grade_depth=config.grade_depth)

    def avg(box, power):
        """The cached avg over the box of w^power."""
        key = (power, box.lo, box.hi)
        if key not in cache:
            cache[key] = _scalar_avg(weight, box, power, qspec)
        return cache[key]

    if p <= 1.0:
        sup_box, avg_box_ = (box_small, box_big) if swapped else (box_big, box_small)
        Y, _ = box_nodes(sup_box, config.sup_depth, config.sup_grade, 0,
                         weight.singular_points)
        wmin = float(np.min(weight.scalar_profile(Y)))
        return avg(avg_box_, 1.0) / wmin
    outer, inner = (box_big, box_small) if swapped else (box_small, box_big)
    return avg(outer, 1.0) * avg(inner, -1.0 / (p - 1.0)) ** (p - 1.0)


def a_sequence(weight, p, base_cubes=None, i_max=None, config=None, swapped=False):
    """Windowed a_i, i = 0..i_max: sup over base cubes of the two-cube quantity.

    Returns (a_values, i_max_used, cubes_used). Integrability failures
    propagate as IntegrabilityError.
    """
    config = config or ApDimConfig()
    i_max = i_max if i_max is not None else config.i_max
    if base_cubes is None:
        base_cubes, domain = default_base_cubes(weight, config)
    else:
        domain = config.domain(weight.n)
    cubes, i_eff = _filter_base_cubes(base_cubes, i_max, domain)
    vals = np.zeros(i_eff + 1)
    cache = {}
    sing, gd = weight.singular_points, config.grade_depth // 2
    for Q in cubes:
        box_small = Q.box()
        if not weight.is_scalar():
            X, wx = _graded_mesh(box_small, config.base_depth, gd, 0, sing)
            FX = _ap_factor(weight, X, 1.0 / p)
        for i in range(i_eff + 1):
            box_big = double(Q, i)
            if weight.is_scalar():
                q = _cross_quantity_scalar(weight, p, box_small, box_big, swapped,
                                           config, cache)
            else:
                Y, wy = _graded_mesh(box_big, config.base_depth, gd, 0, sing)
                q = _ap_kernel(p, FX, wx, _ap_factor(weight, Y, -1.0 / p), wy,
                               swapped=swapped)
            vals[i] = max(vals[i], q)
    return vals, i_eff, cubes


def a_sequence_via_reducing(weight, p, base_cubes, i_max, config=None, qspec=None):
    """Alternative route: a_i as sup over cubes of ||A_Q A_(2^i Q)^(-1)||^p."""
    from .reducing import reduce_operator

    config = config or ApDimConfig()
    domain = config.domain(weight.n)
    cubes, i_eff = _filter_base_cubes(base_cubes, i_max, domain)
    vals = np.zeros(i_eff + 1)
    for Q in cubes:
        AQ = reduce_operator(weight, p, Q, qspec=qspec)
        for i in range(i_eff + 1):
            Abig = reduce_operator(weight, p, double(Q, i), qspec=qspec)
            val = float(linalg.op_norm(AQ @ np.linalg.inv(Abig))) ** p
            vals[i] = max(vals[i], val)
    return vals, i_eff, cubes


def tail_slope(a_values, i_max=None):
    """Least-squares slope of log2 a_i on the tail window [ceil(i_max/2), i_max]."""
    i_max = i_max if i_max is not None else len(a_values) - 1
    i0 = int(np.ceil(i_max / 2.0))
    ii = np.arange(i0, i_max + 1)
    logs = np.log2(a_values[i0: i_max + 1])
    coef = np.polyfit(ii, logs, 1)
    resid = float(np.max(np.abs(np.polyval(coef, ii) - logs)))
    return float(coef[0]), (i0, i_max), resid


def fit_growth(a_values, i_skip=2):
    """Fit log2 a_i = d i + beta log2(i+1) + c over i >= i_skip.

    The extra regressor matches the poly-log growth the closed-form weight
    family exhibits, so d is not inflated when the critical dimension is
    approached but not attained (beta then measures the log perturbation).
    """
    ii = np.arange(i_skip, len(a_values))
    logs = np.log2(a_values[i_skip:])
    X = np.stack([ii, np.log2(ii + 1.0), np.ones_like(ii, dtype=float)], axis=1)
    coef, *_ = np.linalg.lstsq(X, logs, rcond=None)
    if coef[1] < 0.0 or coef[0] < 0.0:
        # the regressors are nearly collinear; a negative piece means the
        # split is fit noise, so fall back to the plain power law
        lin = np.polyfit(ii, logs, 1)
        coef = np.array([lin[0], 0.0, lin[1]])
    resid = float(np.max(np.abs(X @ coef - logs)))
    return float(coef[0]), float(coef[1]), resid


def estimate_dimensions(weight, p, config=None):
    """Estimate (d, dtilde, delta) from tail slopes of the a-sequences.

    For p > 1 dtilde comes from the dual weight's sequence at p'; for
    p <= 1 it is 0 by definition. Estimates are clamped to [0, n) with a
    diagnostics flag when the raw slope leaves the range by more than 0.05.
    """
    config = config or ApDimConfig()
    n = weight.n
    vals, i_eff, cubes = a_sequence(weight, p, config=config)
    slope, beta, resid = fit_growth(vals, config.fit_skip)
    est_d = DimensionEstimate(np.arange(i_eff + 1), vals, slope, beta,
                              (config.fit_skip, i_eff), resid, i_eff, len(cubes))
    flags = []

    def clamp(x, label):
        if x < -0.05 or x > n + 0.05:
            flags.append(f"{label} estimate {x:.3f} outside [0, n)")
        return min(max(x, 0.0), n - 1e-9)

    d = clamp(slope, "d")
    if p > 1.0:
        dual = dual_weight(weight, p)
        pprime = p / (p - 1.0)
        dvals, di_eff, dcubes = a_sequence(dual, pprime, config=config)
        dslope, dbeta, dresid = fit_growth(dvals, config.fit_skip)
        est_dt = DimensionEstimate(np.arange(di_eff + 1), dvals, dslope, dbeta,
                                   (config.fit_skip, di_eff), dresid, di_eff,
                                   len(dcubes))
        dtilde = clamp(dslope, "dtilde")
    else:
        est_dt = None
        dtilde = 0.0
    pprime = p / (p - 1.0) if p > 1.0 else np.inf
    delta = d / p + (dtilde / pprime if np.isfinite(pprime) else 0.0)
    dims = ApDimensions(d, dtilde, delta, n, flags)
    return dims, {"direct": est_d, "dual": est_dt}


def swapped_slope(weight, p, config=None):
    """Growth exponent d2 of the sequence with the roles of Q and 2^i Q exchanged."""
    config = config or ApDimConfig()
    vals, i_eff, _ = a_sequence(weight, p, config=config, swapped=True)
    slope, _, _ = fit_growth(vals, config.fit_skip)
    return slope, vals


def growth_envelope_check(family, dims, window=None):
    """Max over cube pairs of ||A_Q A_R^(-1)|| / envelope(Q, R).

    Returns (max_ratio, witness pair, number of pairs).
    """
    window = window or family.window
    cubes = window.cubes()
    mats = np.stack([family.matrix(Q) for Q in cubes])
    invs = np.stack([family.inverse(Q) for Q in cubes])
    prods = np.einsum("qij,rjk->qrik", mats, invs)
    norms = linalg.op_norm(prods)
    p = family.p
    sides = np.array([Q.side for Q in cubes])
    corners = np.array([Q.lower for Q in cubes])
    pprime = p / (p - 1.0) if p > 1.0 else np.inf
    dt_term = dims.dtilde / pprime if np.isfinite(pprime) else 0.0
    ratio_sides = sides[None, :] / sides[:, None]  # l(R)/l(Q)
    size = np.maximum(ratio_sides ** (dims.d / p), (1.0 / ratio_sides) ** dt_term)
    dist = np.linalg.norm(corners[:, None, :] - corners[None, :, :], axis=-1)
    dist = dist / np.maximum(sides[:, None], sides[None, :])
    env = size * (1.0 + dist) ** dims.delta
    ratios = norms / env
    idx = np.unravel_index(np.argmax(ratios), ratios.shape)
    return float(ratios[idx]), (cubes[idx[0]], cubes[idx[1]]), norms.size


def doubling_exponent(weight, p, window, K=16, qspec=None):
    """Least beta with int_{2Q} |W^(1/p) z|^p <= 2^beta int_Q |W^(1/p) z|^p,
    maximized over window cubes with 2Q inside the domain and sampled z."""
    from .reducing import CubeNorm, unit_directions

    n = weight.n
    dirs = unit_directions(weight.m, K)
    best = -np.inf
    for Q in window.cubes():
        try:
            big = double(Q, 1, domain=window.box, clip=False)
        except Exception:
            continue
        rho_small = CubeNorm(weight, p, Q, qspec).bundle(dirs) ** p * Q.volume
        rho_big = CubeNorm(weight, p, big, qspec).bundle(dirs) ** p * big.volume
        best = max(best, float(np.max(np.log2(rho_big / rho_small))))
    if not np.isfinite(best):
        raise ValueError("no window cube has its double inside the domain")
    return best


def reverse_holder_probe(weight, p, window, r_grid, ratio_cap=8.0, qspec=None):
    """Largest r with sup_Q (avg ||W^(1/p) M||^(pr))^(1/r) / avg ||W^(1/p) M||^p
    finite, stable, and below the cap; M runs over the identity and the
    coordinate projectors. Returns (r_hat, per-r table of sup ratios).

    Near the integrability edge the integrand resists refinement, so the
    probe runs at a 0.5% quadrature standard; entries that still fail to
    stabilize are reported as nan (unstable), which is the probe's signal.
    """
    qspec = qspec or QuadSpec(rel_tol=5e-3)
    m = weight.m
    mats = [np.eye(m, dtype=complex)]
    if not weight.is_scalar():
        for i in range(m):
            M = np.zeros((m, m), dtype=complex)
            M[i, i] = 1.0
            mats.append(M)

    def average(Q, M, s):
        """avg over Q of ||W^(1/p)(x) M||^s."""
        return cube_average(weight, Q, 1.0 / p, s, lambda Ws: linalg.op_norm(Ws @ M) ** s,
                            qspec, name="rh average")

    table = {}
    for r in r_grid:
        worst = 0.0
        ok = True
        for Q in window.cubes():
            for M in mats:
                try:
                    base, high = average(Q, M, p), average(Q, M, p * r)
                    ok = base.converged and high.converged
                except IntegrabilityError:
                    ok = False
                if not ok:
                    break
                worst = max(worst, float(high.value) ** (1.0 / r) / float(base.value))
            if not ok:
                break
        table[float(r)] = worst if ok else float("nan")
    stable = [r for r, v in table.items() if np.isfinite(v) and v <= ratio_cap]
    r_hat = max(stable) if stable else float("nan")
    return r_hat, table


def admissible_m(s, tau, p, dims, n, variant="general"):
    """Least integer strictly above the decay threshold for the given regime.

    variant 'general' uses max{n/p + dtilde/p' - (s + n tau),
    s + n tau - (n - d)/p, delta}; variant 'infinity' uses
    max{d/p + s, dtilde/p' - s, delta}.
    """
    pprime = p / (p - 1.0) if p > 1.0 else np.inf
    dt_term = dims.dtilde / pprime if np.isfinite(pprime) else 0.0
    if variant == "general":
        bound = max(n / p + dt_term - (s + n * tau),
                    s + n * tau - (n - dims.d) / p,
                    dims.delta)
    elif variant == "infinity":
        bound = max(dims.d / p + s, dt_term - s, dims.delta)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return int(np.floor(bound)) + 1

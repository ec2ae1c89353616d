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
from .errors import IntegrabilityError, OutOfDomainError, ResolutionError
from .geometry import CubeWindow, batch_cube, cube_box, dilated_boxes, mesh
from .quad import PROBE_SPEC, QuadSpec
from .reducing import _cube_norms, _reduce, unit_directions
from .weights import ap_pairs, cube_averages, dual_weight

# reverse_holder_probe's cap on a stable sup ratio
_RH_CAP = 8.0
# a_sequence's cap on its boxes (cube and dilation pairs): 29 064 2-D boxes
# took 6.7 s on one CPU, the 1-D default takes 2 574, and the 2-D default's
# 590 364 ran for over 3 minutes at 640 MB before the run was stopped
_MAX_BOXES = 100_000


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
    fit_skip: int = 2

    def domain(self, n):
        return cube_box(n, self.domain_half)


def abutting_cubes(point, levels, domain):
    """The cubes inside the domain whose closure contains the point, at levels
    levels[0]..levels[1], as a batch: by level, then the first axis slowest."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    j = np.arange(levels[0], levels[1] + 1)
    v = np.ldexp(point, j[:, None])  # point * 2.0 ** j, exactly
    on = np.abs(v - np.rint(v)) < 1e-9  # the point on a lattice plane: both sides
    low = np.where(on, np.rint(v) - 1, np.floor(v)).astype(int)
    step = mesh(*[[0, 1]] * point.size)
    take = np.all(step <= on[:, None, :], axis=2)  # (level, step)
    batch = np.repeat(j, take.sum(axis=1)), (low[:, None, :] + step)[take]
    inside = domain.contains_boxes(dilated_boxes(batch, [1.0])[:, 0])
    return batch[0][inside], batch[1][inside]


def default_base_cubes(weight, config, domain):
    """Window cubes plus cubes abutting each singular point, each once, as a batch."""
    parts = [CubeWindow(weight.n, *config.window_levels, domain).batch()]
    parts += [abutting_cubes(s, config.abut_levels, domain) for s in weight.singular_points]
    j, k = (np.concatenate(a) for a in zip(*parts))
    first = np.unique(np.column_stack([j, k]), axis=0, return_index=True)[1]
    keep = np.sort(first)
    return j[keep], k[keep]


def _filter_base_cubes(batch, i_max, domain):
    """Keep cubes whose 2^i_max-dilation stays inside; shrink i_max if none fit."""
    i_eff = i_max
    while i_eff > 0:
        ok = domain.contains_boxes(dilated_boxes(batch, [2.0 ** i_eff])[:, 0])
        if ok.any():
            if i_eff < i_max:
                warnings.warn(f"i_max reduced from {i_max} to {i_eff} to fit the domain")
            return (batch[0][ok], batch[1][ok]), i_eff
        i_eff -= 1
    raise OutOfDomainError("no base cube fits the working domain even at i = 1")


def a_sequence(weight, p, base_cubes=None, i_max=None, config=None, swapped=False):
    """Windowed a_i, i = 0..i_max: sup over the base cubes Q (a batch) of the
    two-cube quantity weights.ap_pairs(Q, 2^i Q); swapped exchanges the two
    cubes. All pairs go to ap_pairs in one call, ordered cube by cube.

    Scalar weights take their cube averages at (config.base_depth,
    config.grade_depth); matrix weights and essential suprema use the order-1
    node rule at (config.base_depth, config.grade_depth // 2). Returns
    (a_values, i_max_used, the batch of cubes used). Integrability failures
    propagate as IntegrabilityError; more than _MAX_BOXES boxes raise
    ResolutionError before any quadrature runs.
    """
    config = config or ApDimConfig()
    i_max = i_max if i_max is not None else config.i_max
    domain = config.domain(weight.n)
    if base_cubes is None:
        base_cubes = default_base_cubes(weight, config, domain)
    cubes, i_eff = _filter_base_cubes(base_cubes, i_max, domain)
    count = len(cubes[0]) * (i_eff + 1)
    if count > _MAX_BOXES:
        raise ResolutionError(
            f"the a-sequence needs {count} boxes, over the budget of {_MAX_BOXES}; lower "
            "apdim domain_half, window_levels, abut_levels or i_max")
    qspec = QuadSpec(base_depth=config.base_depth, grade_depth=config.grade_depth)
    boxes = dilated_boxes(cubes, 2.0 ** np.arange(i_eff + 1))  # (cube, i, corner, axis)
    small = np.broadcast_to(boxes[:, :1], boxes.shape).reshape(-1, 2, weight.n)
    big = boxes.reshape(-1, 2, weight.n)
    q = ap_pairs(weight, p, *((big, small) if swapped else (small, big)), qspec)
    return np.max(q.reshape(len(boxes), -1), axis=0, initial=0.0), i_eff, cubes


def a_sequence_via_reducing(weight, p, base_cubes, i_max, config=None):
    """Alternative route: a_i as sup over the base cubes (a batch) of
    ||A_Q A_(2^i Q)^(-1)||^p, from one batch of reducing operators over every
    cube and dilation."""
    domain = (config or ApDimConfig()).domain(weight.n)
    cubes, i_eff = _filter_base_cubes(base_cubes, i_max, domain)
    boxes = dilated_boxes(cubes, 2.0 ** np.arange(i_eff + 1))  # (cube, i, corner, axis)
    A = _reduce(weight, p, boxes.reshape(-1, 2, weight.n), "auto", 256)[0]
    A = A.reshape(len(boxes), i_eff + 1, weight.m, weight.m)
    vals = linalg.op_norm(A[:, :1] @ np.linalg.inv(A)) ** p
    return np.max(vals, axis=0), i_eff, cubes


def fit_growth(a_values, i_skip=2):
    """Fit log2 a_i = d i + beta log2(i+1) + c over i >= i_skip.

    The extra regressor matches the poly-log growth the closed-form weight
    family exhibits, so d is not inflated when the critical dimension is
    approached but not attained (beta then measures the log perturbation).
    Raises OutOfDomainError when fewer than three a_i remain, as when i_max
    was reduced to fit the domain.
    """
    if len(a_values) - i_skip < 3:
        raise OutOfDomainError(
            f"the growth fit needs three a_i at i >= fit_skip = {i_skip}, but i_max is "
            f"{len(a_values) - 1} after fitting the domain")
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
    flags = []

    def clamp(x, label):
        if x < -0.05 or x > n + 0.05:
            flags.append(f"{label} estimate {x:.3f} outside [0, n)")
        return min(max(x, 0.0), n - 1e-9)

    est_d = _estimate(weight, p, config)
    d = clamp(est_d.slope, "d")
    est_dt, dtilde, dt_term = None, 0.0, 0.0
    if p > 1.0:
        pprime = p / (p - 1.0)
        est_dt = _estimate(dual_weight(weight, p), pprime, config)
        dtilde = clamp(est_dt.slope, "dtilde")
        dt_term = dtilde / pprime
    dims = ApDimensions(d, dtilde, d / p + dt_term, n, flags)
    return dims, {"direct": est_d, "dual": est_dt}


def _estimate(weight, p, config):
    """The DimensionEstimate of the weight's a-sequence at p."""
    vals, i_eff, cubes = a_sequence(weight, p, config=config)
    slope, beta, resid = fit_growth(vals, config.fit_skip)
    return DimensionEstimate(np.arange(i_eff + 1), vals, slope, beta,
                             (config.fit_skip, i_eff), resid, i_eff, len(cubes[0]))


def swapped_slope(weight, p, config=None):
    """Growth exponent d2 of the sequence with the roles of Q and 2^i Q exchanged."""
    config = config or ApDimConfig()
    vals, i_eff, _ = a_sequence(weight, p, config=config, swapped=True)
    slope, _, _ = fit_growth(vals, config.fit_skip)
    return slope, vals


def growth_envelope_check(family, dims):
    """Max over pairs of the family's cubes of ||A_Q A_R^(-1)|| / envelope(Q, R).

    Returns (max_ratio, witness pair, number of pairs).
    """
    batch, levels = family.window.batch(), family.window.levels()
    mats, invs = (np.concatenate([a[j].reshape(-1, family.m, family.m) for j in levels])
                  for a in (family.mats, family.inv))
    prods = np.einsum("qij,rjk->qrik", mats, invs)
    norms = linalg.op_norm(prods)
    p = family.p
    sides = np.ldexp(1.0, -batch[0])
    corners = sides[:, None] * batch[1]
    pprime = p / (p - 1.0) if p > 1.0 else np.inf
    dt_term = dims.dtilde / pprime if np.isfinite(pprime) else 0.0
    ratio_sides = sides[None, :] / sides[:, None]  # l(R)/l(Q)
    size = np.maximum(ratio_sides ** (dims.d / p), (1.0 / ratio_sides) ** dt_term)
    dist = np.linalg.norm(corners[:, None, :] - corners[None, :, :], axis=-1)
    dist = dist / np.maximum(sides[:, None], sides[None, :])
    env = size * (1.0 + dist) ** dims.delta
    ratios = norms / env
    idx = np.unravel_index(np.argmax(ratios), ratios.shape)
    return float(ratios[idx]), (batch_cube(batch, idx[0]), batch_cube(batch, idx[1])), norms.size


def doubling_exponent(weight, p, window):
    """Least beta with int_{2Q} |W^(1/p) z|^p <= 2^beta int_Q |W^(1/p) z|^p,
    maximized over window cubes with 2Q inside the domain and sampled z,
    from one batch of cube norms over every such Q and 2Q."""
    boxes = dilated_boxes(window.batch(), [1.0, 2.0])  # (cube, Q or 2Q, corner, axis)
    boxes = boxes[window.box.contains_boxes(boxes[:, 1])]
    if not len(boxes):
        raise OutOfDomainError("no window cube has its double inside the domain")
    dirs = unit_directions(weight.m, 16)
    rho = _cube_norms(weight, p, boxes.reshape(-1, 2, weight.n), dirs)[0]
    vol = np.prod(boxes[:, :, 1] - boxes[:, :, 0], axis=2)
    mass = rho.reshape(len(boxes), 2, -1) ** p * vol[:, :, None]
    return float(np.max(np.log2(mass[:, 1] / mass[:, 0])))


def reverse_holder_probe(weight, p, window, r_grid):
    """Largest r with sup_Q (avg ||W^(1/p) M||^(pr))^(1/r) / avg ||W^(1/p) M||^p
    finite, stable, and at most _RH_CAP; M runs over the identity and the
    coordinate projectors. Returns (r_hat, per-r table of sup ratios).

    Near the integrability edge the integrand resists refinement, so the
    probe runs at quad.PROBE_SPEC, a 0.5% standard; entries that still fail
    to stabilize are reported as nan (unstable), which is the probe's signal.
    Per M, one batch over the window's cubes gives the base averages and
    one more each r; an entry is nan if any of its averages fails.
    """
    eye = np.eye(weight.m, dtype=complex)
    mats = [eye] + ([] if weight.is_scalar() else [np.diag(e) for e in eye])
    boxes = dilated_boxes(window.batch(), [1.0])[:, 0]

    def average(M, s):
        """avg over each cube of ||W^(1/p)(x) M||^s, or None if one fails."""
        try:
            res = cube_averages(weight, boxes, 1.0 / p, s,
                                lambda Ws: linalg.op_norm(Ws @ M) ** s, PROBE_SPEC,
                                name="rh average")
        except IntegrabilityError:
            return None
        return res.value if res.converged.all() else None

    bases = [average(M, p) for M in mats]
    table = {}
    for r in r_grid:
        worst = 0.0
        for M, base in zip(mats, bases):
            high = None if base is None else average(M, p * r)
            if high is None:
                worst = float("nan")
                break
            # libm pow on Python floats, as the per-cube formula h^(1/r) / b takes it;
            # numpy's vectorised pow can differ from it in the last bit
            worst = max(worst, float(np.max(high.astype(object) ** (1.0 / r) / base)))
        table[float(r)] = worst
    stable = [r for r, v in table.items() if np.isfinite(v) and v <= _RH_CAP]
    return (max(stable) if stable else float("nan")), table


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

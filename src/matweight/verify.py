"""Tiered verification suite: every acceptance check as a callable criterion.

Tiers: 'exact' holds machine-precision identities, 'paper' the closed-form
growth targets from the literature at their stated tolerances, 'ratio' the
equivalence-constant brackets. The CLI drives this module; the pytest
acceptance suite calls the same criterion functions one by one.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import apdim, linalg
from .geometry import CubeWindow, DyadicCube, cube_box
from .reducing import build_family, identity_family, reduce_operator
from .spaces import (CoefficientField, SpaceParams, finfty_norm, seq_norm,
                     seq_norm_from_cube_scalars)
from .transform import (BandLimitedFunction, analyze, build_filters, bump_profile,
                        finfty_function_norm, function_norm, peetre_sup,
                        random_band_limited, synthesize)
from .weights import (ConjugatedBlockWeight, PowerLogWeight, identity_weight,
                      two_singularity)


@dataclass
class CriterionResult:
    name: str
    tier: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0


class Context:
    """Shared caches so criteria can reuse expensive estimates."""

    def __init__(self, seed=7):
        self.seed = seed
        self._dims = {}
        self._filters = {}

    def rng(self, salt=0):
        return np.random.default_rng(self.seed + 1000 * salt)

    def filters(self, n, level):
        key = (n, level)
        if key not in self._filters:
            self._filters[key] = build_filters(cube_box(n), level)
        return self._filters[key]

    def dims(self, label):
        if label not in self._dims:
            weight, p, config = _DIM_TARGETS[label]
            self._dims[label] = apdim.estimate_dimensions(weight, p, config)
        return self._dims[label]


_MATRIX_CFG = apdim.ApDimConfig(i_max=6, domain_half=32.0, window_levels=(-1, 0),
                                abut_levels=(0, 10), base_depth=4, grade_depth=16)

_DIM_TARGETS = {
    "power_neg": (PowerLogWeight(1, 1, -0.5), 2.0, apdim.ApDimConfig()),
    "power_pos": (PowerLogWeight(1, 1, 0.5), 2.0, apdim.ApDimConfig()),
    "two_sing": (two_singularity(0.4, 0.3, 2.0), 2.0, apdim.ApDimConfig()),
    "conjugated": (ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                         PowerLogWeight(1, 1, 0.3)),
                   2.0, _MATRIX_CFG),
}


def _envelope_weights():
    return {
        "power_neg": PowerLogWeight(1, 1, -0.5),
        "two_sing": two_singularity(0.4, 0.3, 2.0),
        "conjugated": ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                            PowerLogWeight(1, 1, 0.3)),
    }


# ---------------------------------------------------------------------------
# criteria

def crit_filter_identity(ctx):
    t0 = time.time()
    flt = build_filters(cube_box(1), 12)
    defect = flt.calderon_defect()
    elapsed = time.time() - t0
    ts = np.concatenate([np.linspace(0.01, 0.499, 200), np.linspace(2.001, 8.0, 200)])
    outside = float(np.max(np.abs(bump_profile(ts, flt.smoothness))))
    lower = flt.annulus_lower_bound()
    passed = defect <= 1e-12 and elapsed < 1.0 and outside == 0.0 and lower > 0.0
    return {"passed": passed, "calderon_defect": defect,
            "build_under_1s": elapsed < 1.0,
            "support_leak": outside, "annulus_lower_bound": lower}


def crit_reconstruction(ctx):
    worst = 0.0
    for n, level, draws, salt in ((1, 12, 25, 1), (2, 8, 25, 2)):
        flt = ctx.filters(n, level)
        window = CubeWindow(n, flt.j_min, flt.j_max, flt.box)
        rng = ctx.rng(salt)
        for _ in range(draws):
            f = random_band_limited(flt, 2, rng)
            g = synthesize(analyze(f, flt, window), flt)
            err = (g + f.scaled(-1.0)).sup_norm() / f.sup_norm()
            worst = max(worst, err)
    return {"passed": worst <= 1e-8, "max_rel_sup_err": worst}


_CHAIN_TUPLES = [
    (0.0, 0.0, 2.0, 2.0),
    (0.1, 0.25, 1.5, 3.0),
    (-0.2, 0.4, 0.7, 1.2),
    (0.3, 0.5, 2.5, 0.8),
    (0.0, 0.1, 1.0, math.inf),
]


def crit_embedding_chain(ctx):
    window = CubeWindow(1, 2, 6)
    fam = identity_family(window, 2)
    flt = ctx.filters(1, 10)
    fwin = CubeWindow(1, 4, 8, flt.box)
    rng = ctx.rng(3)
    violations = 0
    draws = 0
    slack = 1e-12
    for s, tau, p, q in _CHAIN_TUPLES:
        pf = SpaceParams(s, tau, p, q, "F")
        pb_hi = SpaceParams(s, tau, p, max(p, q), "B")
        pb_lo = SpaceParams(s, tau, p, min(p, q), "B")
        for _ in range(180):
            t = CoefficientField.random(window, 2, rng)
            hi = seq_norm(t, pb_hi, fam).value
            mid = seq_norm(t, pf, fam).value
            lo = seq_norm(t, pb_lo, fam).value
            draws += 1
            if not (hi <= mid * (1 + slack) and mid <= lo * (1 + slack)):
                violations += 1
        for _ in range(20):
            f = random_band_limited(flt, 2, rng)
            hi = function_norm(f, flt, pb_hi, None, window=fwin).value
            mid = function_norm(f, flt, pf, None, window=fwin).value
            lo = function_norm(f, flt, pb_lo, None, window=fwin).value
            draws += 1
            if not (hi <= mid * (1 + slack) and mid <= lo * (1 + slack)):
                violations += 1
    return {"passed": violations == 0, "violations": violations, "draws": draws}


def crit_supercritical_equality(ctx):
    window = CubeWindow(1, 2, 6)
    weight = PowerLogWeight(1, 2, -0.4)
    rng = ctx.rng(4)
    worst = 0.0
    for p in (0.5, 1.0, 2.0):
        fam = build_family(weight, p, window, method="auto", K=64)
        for kind in ("B", "F"):
            params = SpaceParams(0.3, 1.0 / p, p, math.inf, kind)
            for _ in range(20):
                t = CoefficientField.random(window, 2, rng)
                a_val = seq_norm(t, params, fam).value
                f_val = finfty_norm(t, 0.3, math.inf, fam).value
                worst = max(worst, abs(a_val - f_val) / max(a_val, 1e-300))
    return {"passed": worst <= 1e-12, "max_rel_err": worst}


def crit_lf_identity(ctx):
    window = CubeWindow(1, 2, 6)
    fam = identity_family(window, 2)
    rng = ctx.rng(5)
    worst = 0.0
    for q in (0.5, 2.0, 7.0):
        for _ in range(25):
            t = CoefficientField.random(window, 2, rng)
            v_inf = finfty_norm(t, 0.1, q, fam).value
            v_crit = seq_norm(t, SpaceParams(0.1, 1.0 / q, q, q, "F"), fam).value
            worst = max(worst, abs(v_inf - v_crit) / max(v_inf, 1e-300))
    flt = ctx.filters(1, 10)
    fwin = CubeWindow(1, 4, 8, flt.box)
    for q in (0.5, 2.0):
        for _ in range(5):
            f = random_band_limited(flt, 1, ctx.rng(6))
            v_inf = finfty_function_norm(f, flt, 0.1, q, None, window=fwin).value
            v_crit = function_norm(f, flt, SpaceParams(0.1, 1.0 / q, q, q, "F"),
                                   None, window=fwin).value
            worst = max(worst, abs(v_inf - v_crit) / max(v_inf, 1e-300))
    return {"passed": worst <= 1e-12, "max_rel_err": worst}


def crit_dimension_recovery(ctx):
    results = {}
    seconds = []
    t0 = time.time()
    d_neg = ctx.dims("power_neg")[0].d
    seconds.append(time.time() - t0)
    results["power_neg"] = {"d": d_neg, "target": (0.4, 0.6)}
    t0 = time.time()
    d_pos = ctx.dims("power_pos")[0].d
    seconds.append(time.time() - t0)
    results["power_pos"] = {"d": d_pos, "target": (-0.05, 0.1)}
    t0 = time.time()
    vals, i_eff, _ = apdim.a_sequence(PowerLogWeight(1, 1, -0.5), 1.0,
                                      config=apdim.ApDimConfig())
    d_p1 = apdim.fit_growth(vals)[0]
    seconds.append(time.time() - t0)
    results["power_neg_p1"] = {"d": d_p1, "target": (0.4, 0.6)}
    under_budget = all(s < 120.0 for s in seconds)
    ok = (0.4 <= d_neg <= 0.6 and -0.05 <= d_pos <= 0.1 and 0.4 <= d_p1 <= 0.6
          and under_budget)
    return {"passed": ok, "each_under_120s": under_budget, **results}


def crit_log_perturbation(ctx):
    weight = PowerLogWeight(1, 1, -0.5, -1.0)
    vals, i_eff, _ = apdim.a_sequence(weight, 2.0, config=apdim.ApDimConfig())
    d_hat, beta = apdim.fit_growth(vals)
    normalized = vals * 2.0 ** (-d_hat * np.arange(i_eff + 1))
    ratio = float(normalized[8] / normalized[2])
    return {"passed": ratio >= 1.5, "ratio_i2_to_i8": ratio, "d_hat": d_hat,
            "log_coeff": beta}


def crit_duality_dimension(ctx):
    dims = ctx.dims("two_sing")[0]
    d2 = apdim.swapped_slope(two_singularity(0.4, 0.3, 2.0), 2.0, apdim.ApDimConfig())
    gap = abs(d2 - (2.0 - 1.0) * dims.dtilde)
    ok = abs(dims.d - 0.4) <= 0.1 and abs(dims.dtilde - 0.3) <= 0.1 and gap <= 0.15
    return {"passed": ok, "d": dims.d, "dtilde": dims.dtilde, "d2": d2,
            "dual_route_gap": gap}


def crit_growth_envelope(ctx):
    window = CubeWindow(1, 1, 5)
    results = {}
    ok = True
    for label, weight in _envelope_weights().items():
        dims = ctx.dims(label)[0]
        fam = build_family(weight, 2.0, window, method="exact_p2")
        padded = apdim.ApDimensions(dims.d + 0.1, dims.dtilde + 0.1,
                                    dims.delta + 0.2, dims.n)
        ratio, witness, pairs = apdim.growth_envelope_check(fam, padded)
        results[label] = {"max_ratio": ratio, "pairs": pairs,
                          "witness": (str(witness[0]), str(witness[1]))}
        ok = ok and ratio <= 10.0 and pairs >= 500
        if dims.d >= 0.35:
            lowered = apdim.ApDimensions(dims.d + 0.1 - 0.3, dims.dtilde + 0.1,
                                         dims.delta + 0.2, dims.n)
            seq = []
            for j_hi in (3, 4, 5):  # the window itself at j_hi = 5
                sub = window.with_levels(1, j_hi)
                subfam = fam if j_hi == 5 else build_family(weight, 2.0, sub, method="exact_p2")
                r, _, _ = apdim.growth_envelope_check(subfam, lowered)
                seq.append(r)
            results[label]["lowered_sequence"] = seq
            ok = ok and seq[0] < seq[1] < seq[2]
    return {"passed": ok, **results}


def crit_reducing_validation(ctx):
    cb = ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4), PowerLogWeight(1, 1, 0.3))
    Q = DyadicCube(1, (0,))
    A_exact = reduce_operator(cb, 2.0, Q, method="exact_p2")
    A_mvee = reduce_operator(cb, 2.0, Q, method="mvee", K=256)
    rel = float(linalg.op_norm(A_mvee - A_exact) / linalg.op_norm(A_exact))

    window = CubeWindow(1, 1, 3)
    brackets = {}
    for label, weight, p, method in (
        ("power_p2", PowerLogWeight(1, 1, -0.5), 2.0, "exact_p2"),
        ("power_p1", PowerLogWeight(1, 1, -0.5), 1.0, "mvee"),
        ("conjugated_p2", cb, 2.0, "exact_p2"),
        ("conjugated_p32", cb, 1.5, "mvee"),
    ):
        fam = build_family(weight, p, window, method=method, K=64)
        brackets[label] = fam.worst_bracket()
    brackets_ok = all(0.1 <= lo and hi <= 10.0 for lo, hi in brackets.values())

    rng = ctx.rng(7)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        A = linalg.random_psd(rng, m, cond_max=1e4)
        B = linalg.random_psd(rng, m, cond_max=1e4)
        nab = float(linalg.op_norm(A @ B))
        nba = float(linalg.op_norm(B @ A))
        worst = max(worst, abs(nab - nba) / max(nab, 1e-300))
    ok = rel <= 0.05 and brackets_ok and worst <= 1e-12
    return {"passed": ok, "mvee_vs_exact_rel_err": rel, "family_brackets": brackets,
            "exchange_identity_worst": worst}


_RATIO_TUPLES = [
    SpaceParams(0.0, 0.0, 2.0, 2.0, "F"),
    SpaceParams(0.2, 0.3, 2.0, 1.5, "B"),
    SpaceParams(-0.1, 0.5, 2.0, math.inf, "F"),
]


def _embed_coeffs(coeffs, flt_small, flt_big):
    """Place small-grid fft coefficients into the larger grid by wavenumber."""
    n = flt_small.n
    Ns, Nb = flt_small.N, flt_big.N
    out = np.zeros(coeffs.shape[:1] + (Nb,) * n, dtype=complex)
    idx_small = (np.fft.fftfreq(Ns) * Ns).astype(int)
    src = np.ix_(range(coeffs.shape[0]), *[range(Ns)] * n)
    dst = np.ix_(range(coeffs.shape[0]), *[idx_small % Nb] * n)
    out[dst] = coeffs[src]
    return out


def _ratio_suite_for(ctx, weight, levels):
    out = {}
    flt0 = ctx.filters(1, 10)
    # both grids cover cube_box(1), so one window and one family serve them
    window = CubeWindow(1, levels[0], levels[1], flt0.box)
    fam = build_family(weight, 2.0, window, method="exact_p2")
    for glevel in (10, 11):
        flt = ctx.filters(1, glevel)
        rng = ctx.rng(8)  # same seed for both grids: same spectral draws
        per_tuple = {}
        for ti, params in enumerate(_RATIO_TUPLES):
            trips = []
            for _ in range(100):
                f0 = random_band_limited(flt0, weight.m, rng, band=flt0.safe_band)
                f = (BandLimitedFunction(flt, _embed_coeffs(f0.coeffs, flt0, flt))
                     if glevel != 10 else f0)
                vw = function_norm(f, flt, params, weight, window=window).value
                va = function_norm(f, flt, params, fam, window=window).value
                ps = peetre_sup(f, flt, fam, window)
                vp = seq_norm_from_cube_scalars(ps, params, window).value
                trips.append((vw, va, vp))
            trips = np.array(trips)
            stats = {}
            for (a, b, lbl) in ((0, 1, "W_vs_A"), (0, 2, "W_vs_peetre"),
                                (1, 2, "A_vs_peetre")):
                r = trips[:, a] / trips[:, b]
                stats[lbl] = {"min": float(r.min()), "max": float(r.max()),
                              "spread": float(r.max() / r.min())}
            per_tuple[ti] = stats
        out[glevel] = per_tuple
    return out


def crit_ratio_suites(ctx):
    weights = {
        "scalar_power": PowerLogWeight(1, 2, -0.4),
        "conjugated": ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                            PowerLogWeight(1, 1, 0.3)),
        "two_sing": two_singularity(0.3, 0.25, 2.0, n=1, m=1),
    }
    ok = True
    report = {}
    for label, weight in weights.items():
        suite = _ratio_suite_for(ctx, weight, (4, 8))
        report[label] = suite
        for ti in range(len(_RATIO_TUPLES)):
            for lbl in ("W_vs_A", "W_vs_peetre", "A_vs_peetre"):
                s10 = suite[10][ti][lbl]
                s11 = suite[11][ti][lbl]
                ok = ok and s10["spread"] <= 50.0 and s11["spread"] <= 50.0
                drift = abs(s11["spread"] - s10["spread"]) / s10["spread"]
                ok = ok and drift < 0.2
    return {"passed": ok, "suites": report}


def crit_doubling(ctx):
    window = CubeWindow(1, 1, 4)
    results = {}
    beta_id = apdim.doubling_exponent(identity_weight(1, 2), 2.0, window)
    results["identity"] = beta_id
    ok = abs(beta_id - 1.0) <= 1e-9
    for label, weight, p in (
        ("power_neg", PowerLogWeight(1, 1, -0.5), 2.0),
        ("power_pos", PowerLogWeight(1, 1, 0.5), 2.0),
        ("two_sing", two_singularity(0.4, 0.3, 2.0), 2.0),
        ("conjugated", ConjugatedBlockWeight(PowerLogWeight(1, 1, -0.4),
                                             PowerLogWeight(1, 1, 0.3)), 2.0),
    ):
        beta = apdim.doubling_exponent(weight, p, window)
        results[label] = beta
        ok = ok and beta >= 1.0 - 0.05
    for label in ("power_neg", "power_pos"):
        d_hat = ctx.dims(label)[0].d
        ok = ok and d_hat < results[label]
        results[label + "_d_hat"] = d_hat
    return {"passed": ok, **results}


def crit_determinism(ctx):
    def small_report(seed):
        cfgsmall = apdim.ApDimConfig(i_max=4, domain_half=16.0,
                                     window_levels=(-1, 0), abut_levels=(-1, 4))
        vals, i_eff, cubes = apdim.a_sequence(PowerLogWeight(1, 1, -0.5), 2.0,
                                              config=cfgsmall)
        rng = np.random.default_rng(seed)
        window = CubeWindow(1, 2, 5)
        t = CoefficientField.random(window, 2, rng)
        nval = seq_norm(t, SpaceParams(0.0, 0.25, 2.0, 2.0, "F"),
                        identity_family(window, 2)).value
        return json.dumps({"a": list(vals), "norm": nval}, sort_keys=True)

    r1 = small_report(ctx.seed)
    r2 = small_report(ctx.seed)
    return {"passed": r1 == r2, "bytes": len(r1)}


CRITERIA = {
    "filter_identity": ("exact", crit_filter_identity),
    "reconstruction": ("exact", crit_reconstruction),
    "embedding_chain": ("exact", crit_embedding_chain),
    "supercritical_equality": ("exact", crit_supercritical_equality),
    "lf_identity": ("exact", crit_lf_identity),
    "dimension_recovery": ("paper", crit_dimension_recovery),
    "log_perturbation": ("paper", crit_log_perturbation),
    "duality_dimension": ("paper", crit_duality_dimension),
    "growth_envelope": ("ratio", crit_growth_envelope),
    "reducing_validation": ("ratio", crit_reducing_validation),
    "ratio_suites": ("ratio", crit_ratio_suites),
    "doubling": ("paper", crit_doubling),
    "determinism": ("exact", crit_determinism),
}


def run_criterion(name, ctx=None):
    if name not in CRITERIA:
        raise KeyError(f"unknown criterion {name!r}")
    ctx = ctx or Context()
    tier, fn = CRITERIA[name]
    t0 = time.time()
    details = fn(ctx)
    passed = bool(details.pop("passed"))
    return CriterionResult(name, tier, passed, details, time.time() - t0)


def run_suite(tier="all", seed=7, names=None):
    ctx = Context(seed)
    results = []
    for name, (t, _) in CRITERIA.items():
        if names is not None and name not in names:
            continue
        if tier != "all" and t != tier:
            continue
        results.append(run_criterion(name, ctx))
    return results

"""The benchmark's workloads: seeded inputs, jobs and their correctness gates.

Each workload has a set-up (everything a user pays before the first job) and
a fixed job list per batch. Batch b of seed s draws its inputs from
numpy.random.default_rng([s, b]), so the same seed gives the same inputs and
two batches of one run never share an input. A job returns a short detail
string and raises GateError when its result misses the acceptance tolerance;
a package error (MatweightError) is caught by the worker and counts as a
failure too.
"""

import math
import os

import numpy as np

from matweight import apdim, container, linalg, reducing, spaces, transform, weights
from matweight.geometry import CubeWindow, DyadicCube, cube_box


class GateError(Exception):
    """A job's result is outside the acceptance tolerance."""


def gate(ok, detail):
    if not ok:
        raise GateError(detail)
    return detail


# ---------------------------------------------------------------------------
# dimension_scalar: graded-mesh quadrature inside apdim.a_sequence

def _slope(weight, p, swapped=False):
    vals, _, _ = apdim.a_sequence(weight, p, config=apdim.ApDimConfig(), swapped=swapped)
    return apdim.fit_growth(vals)[0]


def _power_direct(a):
    d = _slope(weights.PowerLogWeight(1, 1, a), 2.0)
    return gate(abs(d + a) <= 0.1, f"d={d:.4f} target {-a:.4f} +-0.1")


def _power_dual(a):
    # the p = 2 dual of |x|^a is |x|^(-a): its sequence does not grow
    d = _slope(weights.dual_weight(weights.PowerLogWeight(1, 1, a), 2.0), 2.0)
    return gate(-0.05 <= d <= 0.1, f"d={d:.4f} bracket [-0.05, 0.1]")


def _two_sing(kind, found):
    w = weights.two_singularity(0.4, 0.3, 2.0)
    if kind == "direct":
        d = _slope(w, 2.0)
        return gate(abs(d - 0.4) <= 0.1, f"d={d:.4f} target 0.4 +-0.1")
    if kind == "dual":
        d = found["dtilde"] = _slope(weights.dual_weight(w, 2.0), 2.0)
        return gate(abs(d - 0.3) <= 0.1, f"dtilde={d:.4f} target 0.3 +-0.1")
    d2 = _slope(w, 2.0, swapped=True)
    dtilde = found.get("dtilde", 0.3)  # closed form if the dual job failed
    gap = abs(d2 - (2.0 - 1.0) * dtilde)
    return gate(gap <= 0.15, f"d2={d2:.4f} dual route gap {gap:.4f} <= 0.15")


def dimension_scalar_batch(state, rng):
    a = float(rng.uniform(-0.6, -0.3))
    found = {}
    return [
        (f"power_direct a={a:.6f}", lambda: _power_direct(a)),
        (f"power_dual a={a:.6f}", lambda: _power_dual(a)),
        ("two_sing_direct d=0.4 dtilde=0.3", lambda: _two_sing("direct", found)),
        ("two_sing_dual d=0.4 dtilde=0.3", lambda: _two_sing("dual", found)),
        ("two_sing_swapped d=0.4 dtilde=0.3", lambda: _two_sing("swapped", found)),
    ]


# ---------------------------------------------------------------------------
# matrix_weight: reducing operators (MVEE, exact), A_p kernel, containers

# the acceptance suite's matrix ApDimConfig, spelled out so the benchmark does
# not depend on a private name
MATRIX_CFG = apdim.ApDimConfig(i_max=6, domain_half=32.0, window_levels=(-1, 0),
                               abut_levels=(0, 10), base_depth=4, grade_depth=16)


def _brackets_ok(fam):
    lo, hi = fam.worst_bracket()
    return gate(0.1 <= lo <= hi <= 10.0, f"bracket [{lo:.4f}, {hi:.4f}] within [0.1, 10]")


def _same_family(a, b):
    return (a.window.descriptor() == b.window.descriptor() and a.p == b.p
            and a.method == b.method and a.m == b.m
            and all(np.array_equal(a.mats[j], b.mats[j])
                    and np.array_equal(a.brackets[j][0], b.brackets[j][0])
                    and np.array_equal(a.brackets[j][1], b.brackets[j][1])
                    for j in a.window.levels()))


def _mvee_family(cb, path):
    fam = reducing.build_family(cb, 1.5, CubeWindow(1, 1, 3), method="mvee", K=64)
    detail = _brackets_ok(fam)
    try:
        container.save_family_json(path, fam)
        back = container.load_family_json(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return gate(_same_family(fam, back), detail + "; json round trip exact")


def _exact_family(cb):
    fam = reducing.build_family(cb, 2.0, CubeWindow(1, 1, 3), method="exact_p2", K=64)
    return _brackets_ok(fam)


def _mvee_vs_exact(cb):
    Q = DyadicCube(1, (0,))
    A_exact = reducing.reduce_operator(cb, 2.0, Q, method="exact_p2")
    A_mvee = reducing.reduce_operator(cb, 2.0, Q, method="mvee", K=256)
    rel = float(linalg.op_norm(A_mvee - A_exact) / linalg.op_norm(A_exact))
    return gate(rel <= 0.05, f"rel err {rel:.3e} <= 0.05")


def _ap_constant(cb):
    ap = weights.ap_constant(cb, 2.0, CubeWindow(1, 1, 4))
    return gate(ap.converged and ap.value >= 1.0,
                f"[W]_A2={ap.value:.4f} converged={ap.converged}")


def _dimensions(cb, a1, a2):
    dims, _ = apdim.estimate_dimensions(cb, 2.0, MATRIX_CFG)
    return gate(abs(dims.d + a1) <= 0.1 and abs(dims.dtilde - a2) <= 0.1 and not dims.flags,
                f"d={dims.d:.4f} target {-a1:.4f}, dtilde={dims.dtilde:.4f} "
                f"target {a2:.4f}, +-0.1")


def matrix_weight_batch(state, rng):
    a1 = float(rng.uniform(-0.45, -0.35))
    a2 = float(rng.uniform(0.25, 0.35))
    cb = weights.ConjugatedBlockWeight(weights.PowerLogWeight(1, 1, a1),
                                       weights.PowerLogWeight(1, 1, a2))
    path = os.path.join(state["tmp"], f"family-{os.getpid()}.json")
    tag = f"a1={a1:.6f} a2={a2:.6f}"
    return [
        (f"mvee_family_p1.5 {tag}", lambda: _mvee_family(cb, path)),
        (f"exact_family_p2 {tag}", lambda: _exact_family(cb)),
        (f"mvee_vs_exact_p2 {tag}", lambda: _mvee_vs_exact(cb)),
        (f"ap_constant_p2 {tag}", lambda: _ap_constant(cb)),
        (f"estimate_dimensions {tag}", lambda: _dimensions(cb, a1, a2)),
    ]


# ---------------------------------------------------------------------------
# norms_fft: phi-transform pair and the LA^tau engine

# the ratio-suite SpaceParams of the acceptance suite
RATIO_PARAMS = [
    spaces.SpaceParams(0.0, 0.0, 2.0, 2.0, "F"),
    spaces.SpaceParams(0.2, 0.3, 2.0, 1.5, "B"),
    spaces.SpaceParams(-0.1, 0.5, 2.0, math.inf, "F"),
]
JOBS_1D, JOBS_2D = 14, 2


def _norm_grid(n, level, weight, levels):
    flt = transform.build_filters(cube_box(n), level)
    for j in range(flt.j_min, flt.j_max + 1):
        flt.phi_hat(j)
    win = CubeWindow(n, levels[0], levels[1], flt.box)
    fam = reducing.build_family(weight, 2.0, win, method="exact_p2")
    return {"flt": flt, "weight": weight, "win": win, "fam": fam,
            "full": CubeWindow(n, flt.j_min, flt.j_max, flt.box)}


def _positive(v):
    return math.isfinite(v) and v > 0.0


def _norm_job(g, f, t):
    flt, weight, win, fam = g["flt"], g["weight"], g["win"], g["fam"]
    g_back = transform.synthesize(transform.analyze(f, flt, g["full"]), flt)
    err = (g_back + f.scaled(-1.0)).sup_norm() / f.sup_norm()
    gate(err <= 1e-8, f"reconstruction err {err:.2e} > 1e-8")
    peetre = transform.peetre_sup(f, flt, fam, win)
    for prm in RATIO_PARAMS:
        vals = (transform.function_norm(f, flt, prm, weight, window=win).value,
                transform.function_norm(f, flt, prm, fam, window=win).value,
                spaces.seq_norm_from_cube_scalars(peetre, prm, win).value)
        gate(all(_positive(v) for v in vals), f"norm not finite positive: {vals}")
        hi, mid, lo = (spaces.seq_norm(t, spaces.SpaceParams(prm.s, prm.tau, prm.p, q, kind),
                                       fam).value
                       for q, kind in ((max(prm.p, prm.q), "B"), (prm.q, "F"),
                                       (min(prm.p, prm.q), "B")))
        gate(hi <= mid * (1 + 1e-12) and mid <= lo * (1 + 1e-12),
             f"embedding chain broken at {prm}: {hi} {mid} {lo}")
    # F-infinity definitional identity (acceptance lf_identity), q = 2
    v_inf = spaces.finfty_norm(t, 0.1, 2.0, fam).value
    v_crit = spaces.seq_norm(t, spaces.SpaceParams(0.1, 0.5, 2.0, 2.0, "F"), fam).value
    rel = abs(v_inf - v_crit) / max(v_inf, 1e-300)
    return gate(rel <= 1e-12, f"reconstruction {err:.1e}, chain ok, F-inf identity {rel:.1e}")


def norms_fft_setup(seed):
    grids = {
        1: _norm_grid(1, 10, weights.ConjugatedBlockWeight(weights.PowerLogWeight(1, 1, -0.4),
                                                          weights.PowerLogWeight(1, 1, 0.3)),
                      (4, 6)),
        2: _norm_grid(2, 8, weights.PowerLogWeight(2, 2, -0.4), (2, 3)),
    }
    # warm-up: first calls fill numpy's FFT plan cache; inputs not reused
    rng = np.random.default_rng([seed, 2 ** 31])
    for job in _norm_jobs(grids, rng, 1, 1):
        job[1]()
    return {"grids": grids}


def _norm_jobs(grids, rng, n1, n2):
    jobs = []
    for n, count in ((1, n1), (2, n2)):
        g = grids[n]
        for i in range(count):
            f = transform.random_band_limited(g["flt"], 2, rng, band=g["flt"].safe_band)
            t = spaces.CoefficientField.random(g["win"], 2, rng)
            jobs.append((f"{n}d_draw{i}", lambda g=g, f=f, t=t: _norm_job(g, f, t)))
    return jobs


def norms_fft_batch(state, rng):
    return _norm_jobs(state["grids"], rng, JOBS_1D, JOBS_2D)


WORKLOADS = {
    "dimension_scalar": (None, dimension_scalar_batch),
    "matrix_weight": (None, matrix_weight_batch),
    "norms_fft": (norms_fft_setup, norms_fft_batch),
}

"""Outside-in span tracer for matweight's layers.

install() rebinds each traced entry point at every module binding the
package's call sites use (for example `box_nodes` in quad, apdim, reducing
and weights), plus the integrand methods of the weight classes and
CubeNorm.bundle. Nothing in the package changes on disk. A span is
[name, start, end, parent index, job id, raw counts]; spans stay in memory
and the per-layer metrics are derived once the run has ended. A call nested
directly inside a span of the same name (PowerLogWeight.power_at calling
scalar_profile) belongs to the outer span.
"""

import contextlib
import functools
import os
import sys
import time

import numpy as np

from matweight import (apdim, container, linalg, quad, reducing, spaces, transform,
                       weights)

_perf = time.perf_counter

# integrand methods of the weight classes (the base-class stubs do no work)
_INTEGRAND_CLASSES = (weights.PowerLogWeight, weights.ProductPowerWeight,
                      weights.ConstantWeight, weights.ConjugatedBlockWeight,
                      weights.GridSampledWeight)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.fft_calls = 0

    def wrap(self, name, fn, counts=None, dim_arg=None):
        """A traced version of fn. counts(args, out) keeps raw counts cheaply;
        dim_arg(args) gives the object whose `n` splits the name by dimension."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            full = f"{name}.{dim_arg(args).n}d" if dim_arg else name
            rec = [full, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name, job):
        """A harness span: one job, or the set-up (job id -1)."""
        rec = [name, _perf(), 0.0, -1, job, None]
        self.job = job
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = _perf()
            self.stack.pop()
            self.job = None


def _rebind(orig, traced):
    """Replace orig by traced at every matweight module binding."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "matweight":
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, traced)


def _mesh_counts(args, out):
    box, bd, gd, ed = args[:4]
    sing = args[4] if len(args) > 4 else ()
    return (box, bd, gd, ed, sing, out[0].shape[0])


def _mesh_key(box, bd, gd, ed, sing):
    """Geometry of a box_nodes call in unit-cube coordinates.

    Two calls with equal keys build the same mesh up to an affine map: same
    depths, same relative singular positions, and the same grading depth
    once the fp_floor cut-off (absolute coordinates) is applied.
    """
    lo, sides = box.lo_arr, box.sides
    rel = []
    for s in sing:
        s = np.asarray(s, dtype=float)
        margin = 1e-12 * np.maximum(sides, 1e-30)
        if np.all((s >= lo - margin) & (s <= lo + sides + margin)):
            rel.append(tuple(np.round((s - lo) / sides, 9).tolist()))
    eff = 0
    if rel:
        width = float(np.max(sides)) / 2 ** bd
        floor = 1e-12 * max(1.0, float(np.max(np.abs(box.lo_arr))),
                            float(np.max(np.abs(box.hi_arr))))
        while eff < gd and width >= floor:
            eff += 1
            width /= 2.0
    return (box.n, bd, ed, eff, tuple(sorted(rel)))


def install(tracer):
    """Wrap every traced entry point; returns the tracer."""
    t = tracer
    fns = [
        ("quad.box_nodes", quad, "box_nodes", _mesh_counts, None),
        ("quad.average_box", quad, "average_box",
         lambda a, out: (out.rounds, out.converged), None),
        ("weights.ap_constant", weights, "ap_constant", None, None),
        ("linalg.op_norm", linalg, "op_norm", None, None),
        ("linalg.matrix_power", linalg, "matrix_power", None, None),
        ("apdim.a_sequence", apdim, "a_sequence", None, None),
        ("reducing.mvee_centered", reducing, "mvee_centered",
         lambda a, out: (a[0], out), None),
        ("reducing.verify_reducing", reducing, "verify_reducing", None, None),
        ("reducing.build_family", reducing, "build_family",
         lambda a, out: out.window.num_cubes(), None),
        ("container.save", container, "save_family_json",
         lambda a, out: os.path.getsize(a[0]), None),
        ("container.load", container, "load_family_json", None, None),
        ("spaces.la_tau_norm", spaces, "la_tau_norm", None, lambda a: a[2]),
        ("spaces.finfty_norm_fields", spaces, "finfty_norm_fields", None, lambda a: a[2]),
        ("spaces.seq_norm", spaces, "seq_norm", None, lambda a: a[0].window),
        ("transform.convolve_scale", transform, "convolve_scale", None, None),
        ("transform.analyze", transform, "analyze", None, lambda a: a[1]),
        ("transform.synthesize", transform, "synthesize", None, lambda a: a[1]),
        ("transform.function_norm", transform, "function_norm", None, lambda a: a[1]),
        ("transform.peetre_sup", transform, "peetre_sup", None, lambda a: a[1]),
    ]
    for name, mod, attr, counts, dim_arg in fns:
        orig = getattr(mod, attr)
        _rebind(orig, t.wrap(name, orig, counts, dim_arg))

    orig = reducing.CubeNorm.bundle
    reducing.CubeNorm.bundle = t.wrap("reducing.CubeNorm.bundle", orig)
    points = lambda a, out: np.atleast_2d(a[1]).shape[0]  # noqa: E731
    for cls in _INTEGRAND_CLASSES:
        for attr in ("scalar_profile", "power_at"):
            if attr in vars(cls):
                setattr(cls, attr, t.wrap("weights.integrand", vars(cls)[attr], points))

    for attr in ("fft", "ifft", "fftn", "ifftn"):
        orig = getattr(np.fft, attr)

        def counted(*args, _orig=orig, **kwargs):
            if t.job is not None and t.job >= 0:
                t.fft_calls += 1
            return _orig(*args, **kwargs)

        setattr(np.fft, attr, counted)
    return t


# ---------------------------------------------------------------------------
# per-layer metrics

def _self_times(spans):
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    return self_s


def _inside(spans, i, parents):
    """True when an ancestor of span i is one of the given span indices."""
    p = spans[i][3]
    while p >= 0:
        if p in parents:
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer, n_jobs, traced_wall):
    """Per-layer metrics over the timed phase (job ids >= 0).

    reducing.quadratures_per_cube covers every family built in the process,
    set-up included, since a ratio per cube does not depend on the phase.
    """
    spans = tracer.spans
    self_s = _self_times(spans)
    m = {}

    def add(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    by = {}
    for i, s in enumerate(spans):
        if s[4] is not None and s[4] >= 0:
            by.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def self_sum(name):
        return float(sum(self_s[i] for i in by.get(name, ())))

    def counts(name):
        """Raw counts of the calls that returned (a call that raised has none)."""
        return [spans[i][5] for i in by.get(name, ()) if spans[i][5] is not None]

    mesh = counts("quad.box_nodes")
    add("quad.box_nodes.calls", calls("quad.box_nodes"), "count")
    add("quad.box_nodes.distinct", len({_mesh_key(*c[:5]) for c in mesh}), "count")
    add("quad.box_nodes.nodes", int(sum(c[5] for c in mesh)), "count")
    add("quad.box_nodes.self_s", self_sum("quad.box_nodes"), "s")

    quads = counts("quad.average_box")
    add("quad.average_box.calls", calls("quad.average_box"), "count")
    add("quad.average_box.rounds", int(sum(r for r, _ in quads)), "count")
    add("quad.average_box.nonconverged", int(sum(not c for _, c in quads)), "count")
    add("quad.average_box.self_s", self_sum("quad.average_box"), "s")

    add("weights.integrand.calls", calls("weights.integrand"), "count")
    add("weights.integrand.points", int(sum(counts("weights.integrand"))), "count")
    add("weights.integrand.self_s", self_sum("weights.integrand"), "s")
    add("weights.ap_constant.self_s", self_sum("weights.ap_constant"), "s")

    add("linalg.op_norm.calls", calls("linalg.op_norm"), "count")
    add("linalg.op_norm.self_s", self_sum("linalg.op_norm"), "s")
    add("linalg.matrix_power.self_s", self_sum("linalg.matrix_power"), "s")

    add("apdim.a_sequence.calls", calls("apdim.a_sequence"), "count")
    add("apdim.a_sequence.self_s", self_sum("apdim.a_sequence"), "s")

    fits = counts("reducing.mvee_centered")
    viol = [float(np.max(np.einsum("ni,ij,nj->n", P, E, P))) - 1.0 for P, E in fits]
    add("reducing.mvee_centered.calls", calls("reducing.mvee_centered"), "count")
    add("reducing.mvee_centered.points", int(sum(P.shape[0] for P, _ in fits)), "count")
    add("reducing.mvee_centered.self_s", self_sum("reducing.mvee_centered"), "s")
    add("reducing.mvee_centered.max_violation", max(viol, default=0.0), "frac")
    add("reducing.mvee_centered.at_tol", int(sum(v < 1e-8 for v in viol)), "count")
    add("reducing.CubeNorm.bundle.calls", calls("reducing.CubeNorm.bundle"), "count")
    add("reducing.CubeNorm.bundle.self_s", self_sum("reducing.CubeNorm.bundle"), "s")
    add("reducing.verify_reducing.calls", calls("reducing.verify_reducing"), "count")
    add("reducing.verify_reducing.self_s", self_sum("reducing.verify_reducing"), "s")
    families = {i for i, s in enumerate(spans)
                if s[0] == "reducing.build_family" and s[5] is not None}
    cubes = sum(spans[i][5] for i in families)
    fam_quads = sum(1 for i, s in enumerate(spans)
                    if s[0] == "quad.average_box" and _inside(spans, i, families))
    add("reducing.quadratures_per_cube", fam_quads / cubes if cubes else 0.0, "count")

    add("container.bytes_written", int(sum(counts("container.save"))), "bytes")
    add("container.self_s", self_sum("container.save") + self_sum("container.load"), "s")

    for d in ("1d", "2d"):
        for layer in ("la_tau_norm", "finfty_norm_fields"):
            add(f"spaces.{layer}.calls.{d}", calls(f"spaces.{layer}.{d}"), "count")
            add(f"spaces.{layer}.self_s.{d}", self_sum(f"spaces.{layer}.{d}"), "s")
        add(f"spaces.seq_norm.self_s.{d}", self_sum(f"spaces.seq_norm.{d}"), "s")
        for layer in ("analyze", "synthesize", "function_norm", "peetre_sup"):
            add(f"transform.{layer}.self_s.{d}", self_sum(f"transform.{layer}.{d}"), "s")
    add("transform.convolve_scale.calls", calls("transform.convolve_scale"), "count")
    add("transform.ffts_per_job", tracer.fft_calls / n_jobs, "count")

    job_self = self_sum("job")
    timed_self = sum(self_s[i] for idx in by.values() for i in idx)
    add("job.self_s", job_self, "s")
    add("trace.accounted_frac", timed_self / traced_wall, "frac")
    return m


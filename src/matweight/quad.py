"""Cube and ball averages by graded dyadic midpoint quadrature.

Integrands are smooth away from a finite set of singular points, so the mesh
is a tensor midpoint rule refined dyadically toward each singular point.
Between rounds the base and grading depths grow; the loop stops when the
relative change of the integral drops below the requested tolerance.
Midpoints never coincide with singular points (a coinciding node is offset
by a fixed fraction of its cell, the convention used for grid sampling too).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrabilityError, ResolutionError
from .geometry import Box


@dataclass(frozen=True)
class QuadSpec:
    """Controls for the graded midpoint rule.

    base_depth: uniform dyadic splits per axis on the smooth part.
    grade_depth: extra dyadic halvings chained toward each singular point.
    emit_depth: uniform sub-splits inside every emitted cell.
    Per refinement round, base/emit grow by one and the grading by
    grade_step; rel_tol is the stopping threshold on the relative change.
    """

    rel_tol: float = 1e-4
    base_depth: int = 4
    grade_depth: int = 32
    emit_depth: int = 2
    grade_step: int = 16
    max_rounds: int = 5
    max_nodes: int = 500_000

    def for_dim(self, n):
        """Shrink per-axis depths in higher dimension to keep node counts sane."""
        if n <= 1:
            return self
        return QuadSpec(
            rel_tol=self.rel_tol,
            base_depth=min(self.base_depth, 3),
            grade_depth=self.grade_depth,
            emit_depth=min(self.emit_depth, 1),
            grade_step=self.grade_step,
            max_rounds=self.max_rounds,
            max_nodes=self.max_nodes,
        )


@dataclass
class QuadResult:
    value: object
    converged: bool
    rounds: int
    nodes: int
    history: list = field(default_factory=list)


def _split_cells(lo, widths):
    """Split each (lo, widths) cell into 2^n half-size children."""
    n = lo.shape[1]
    half = 0.5 * widths
    outs = []
    for off in range(2 ** n):
        bits = np.array([(off >> i) & 1 for i in range(n)], dtype=float)
        outs.append(lo + bits * half)
    return np.concatenate(outs, axis=0), np.tile(half, (2 ** n, 1))


def _contains(lo, widths, point, margin=1e-12):
    scaled = margin * np.maximum(widths, 1e-30)
    return np.all((point >= lo - scaled) & (point <= lo + widths + scaled), axis=1)


def _emit_subgrid(lo, widths, emit_depth, n):
    e = 2 ** emit_depth
    if e > 1:
        offs = (np.arange(e) + 0.5) / e
        grids = np.meshgrid(*([offs] * n), indexing="ij")
        offs_nd = np.stack([g.ravel() for g in grids], axis=-1)  # (e^n, n)
        mids = (lo[:, None, :] + widths[:, None, :] * offs_nd[None, :, :]).reshape(-1, n)
        vols = np.repeat(np.prod(widths, axis=1) / e ** n, e ** n)
    else:
        mids = lo + 0.5 * widths
        vols = np.prod(widths, axis=1)
    return mids, vols


def _grade_toward(lo, widths, sing, grade_depth, fp_floor):
    """Chain-split cells toward singular points; deepest cells come last.

    Halving stops at fp_floor so midpoints stay representable away from the
    singular points. Returns (lo, widths, tail_cell_count).
    """
    n = lo.shape[1]
    out_lo = [np.empty((0, n))]
    out_w = [np.empty((0, n))]
    flagged = np.zeros(lo.shape[0], dtype=bool)
    for s in sing:
        flagged |= _contains(lo, widths, s)
    out_lo.append(lo[~flagged])
    out_w.append(widths[~flagged])
    cur_lo, cur_w = lo[flagged], widths[flagged]
    for _ in range(grade_depth):
        if cur_lo.shape[0] == 0 or float(np.max(cur_w)) < fp_floor:
            break
        child_lo, child_w = _split_cells(cur_lo, cur_w)
        fl = np.zeros(child_lo.shape[0], dtype=bool)
        for s in sing:
            fl |= _contains(child_lo, child_w, s)
        out_lo.append(child_lo[~fl])
        out_w.append(child_w[~fl])
        cur_lo, cur_w = child_lo[fl], child_w[fl]
    out_lo.append(cur_lo)
    out_w.append(cur_w)
    return (np.concatenate(out_lo, axis=0), np.concatenate(out_w, axis=0),
            cur_lo.shape[0])


def box_nodes(box, base_depth, grade_depth, emit_depth, singular_points=(),
              with_tail=False):
    """Midpoints and volumes of the graded mesh on a box.

    Uniform 2^base_depth cells per axis; cells touching a singular point are
    chained through grade_depth further halvings; every emitted cell carries
    a 2^(emit_depth n) uniform midpoint subgrid. With with_tail=True the
    count of trailing nodes belonging to the deepest (untrusted) singular
    cells is returned as well.
    """
    n = box.n
    m = 2 ** base_depth
    edges = [np.linspace(box.lo[i], box.hi[i], m + 1) for i in range(n)]
    grids = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    lo = np.stack([g.ravel() for g in grids], axis=-1)
    widths = np.tile(box.sides / m, (lo.shape[0], 1))

    sing = [np.asarray(s, dtype=float) for s in singular_points]
    sing = [s for s in sing if _contains(np.array([box.lo_arr]), np.array([box.sides]), s)[0]]

    tail_cells = 0
    if sing:
        scale_fp = max(1.0, float(np.max(np.abs(box.lo_arr))), float(np.max(np.abs(box.hi_arr))))
        lo, widths, tail_cells = _grade_toward(lo, widths, sing, grade_depth,
                                               fp_floor=1e-12 * scale_fp)

    mids, vols = _emit_subgrid(lo, widths, emit_depth, n)

    # offset any midpoint that still landed on a singular point
    for s in sing:
        hit = np.all(np.abs(mids - s) <= 1e-13 * np.maximum(np.max(np.abs(mids), axis=0), 1.0), axis=1)
        if np.any(hit):
            step = (vols[hit] ** (1.0 / n))[:, None] * 0.37
            mids[hit] = mids[hit] + step
    if with_tail:
        return mids, vols, tail_cells * 2 ** (emit_depth * n)
    return mids, vols


def _round_params(spec, rnd):
    return (
        spec.base_depth + rnd,
        spec.grade_depth + rnd * spec.grade_step,
        spec.emit_depth + rnd,
    )


def _refine_loop(node_fn, fn, spec, name):
    value = None
    history = []
    nodes = 0
    converged = False
    for rnd in range(spec.max_rounds):
        out = node_fn(*_round_params(spec, rnd))
        mids, vols = out[0], out[1]
        n_tail = out[2] if len(out) > 2 else 0
        if mids.shape[0] > spec.max_nodes:
            if not history:
                raise ResolutionError(f"{name}: the first round needs {mids.shape[0]} "
                                      f"nodes, over the budget of {spec.max_nodes}")
            break
        nodes = mids.shape[0]
        vals = np.asarray(fn(mids))
        new = np.tensordot(vols, vals, axes=(0, 0))
        history.append(new)
        scale = max(float(np.sum(np.abs(new))), 1e-300)
        # contribution of the deepest singular cells: their midpoint estimate
        # is untrusted, so it must be negligible before we call it converged
        tail = 0.0
        if n_tail:
            tail = float(np.sum(np.abs(
                np.tensordot(vols[-n_tail:], vals[-n_tail:], axes=(0, 0)))))
        if value is not None:
            change = float(np.sum(np.abs(new - value)))
            value = new
            if change <= spec.rel_tol * scale and tail <= 10.0 * spec.rel_tol * scale:
                converged = True
                break
        else:
            value = new
    if not converged and len(history) >= 3:
        mags = [float(np.sum(np.abs(h))) for h in history]
        d1 = float(np.sum(np.abs(history[-1] - history[-2])))
        d0 = float(np.sum(np.abs(history[-2] - history[-3])))
        scale = max(mags[-1], 1e-300)
        growing = mags[-1] > 1.05 * mags[-3]
        if d0 > 0 and d1 / d0 >= 0.75 and growing and d1 > spec.rel_tol * scale:
            raise IntegrabilityError(f"{name}: divergent refinement (ratio {d1 / d0:.2f})")
    return QuadResult(value, converged, len(history), nodes, history)


def integrate_box(fn, box, spec=None, singular_points=(), name="box integral"):
    """Integral of fn over a box; fn maps (N, n) points to (N, ...) values."""
    spec = (spec or QuadSpec()).for_dim(box.n)

    def node_fn(bd, gd, ed):
        return box_nodes(box, bd, gd, ed, singular_points, with_tail=True)

    return _refine_loop(node_fn, fn, spec, name)


def average_box(fn, box, spec=None, singular_points=(), name="box average"):
    res = integrate_box(fn, box, spec, singular_points, name)
    res.value = res.value / box.volume
    return res


def ball_nodes(center, radius, base_depth, grade_depth, emit_depth,
               singular_points=(), boundary_depth=10):
    """Graded mesh on a Euclidean ball (extra dyadic refinement at the sphere)."""
    center = np.asarray(center, dtype=float)
    n = center.size
    bbox = Box(tuple(center - radius), tuple(center + radius))
    if n == 1:
        return box_nodes(bbox, base_depth, grade_depth, emit_depth, singular_points,
                         with_tail=True)

    m = 2 ** base_depth
    edges = [np.linspace(bbox.lo[i], bbox.hi[i], m + 1) for i in range(n)]
    grids = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    lo = np.stack([g.ravel() for g in grids], axis=-1)
    widths = np.tile(bbox.sides / m, (lo.shape[0], 1))

    def classify(lo_a, w_a):
        # squared distance range from the center over each cell
        nearest = np.clip(center, lo_a, lo_a + w_a)
        dmin2 = np.sum((nearest - center) ** 2, axis=1)
        farthest = np.where(center < lo_a + 0.5 * w_a, lo_a + w_a, lo_a)
        dmax2 = np.sum((farthest - center) ** 2, axis=1)
        inside = dmax2 <= radius ** 2
        outside = dmin2 >= radius ** 2
        return inside, outside

    inside_lo, inside_w = [], []
    cur_lo, cur_w = lo, widths
    for _ in range(boundary_depth):
        ins, outs = classify(cur_lo, cur_w)
        inside_lo.append(cur_lo[ins])
        inside_w.append(cur_w[ins])
        strad = ~(ins | outs)
        if not np.any(strad) or int(np.sum(strad)) > 20_000:
            cur_lo, cur_w = cur_lo[strad], cur_w[strad]
            break
        cur_lo, cur_w = _split_cells(cur_lo[strad], cur_w[strad])
    if cur_lo.shape[0]:
        mid_in = np.sum((cur_lo + 0.5 * cur_w - center) ** 2, axis=1) <= radius ** 2
        inside_lo.append(cur_lo[mid_in])
        inside_w.append(cur_w[mid_in])
    lo = np.concatenate(inside_lo, axis=0)
    widths = np.concatenate(inside_w, axis=0)

    sing = [np.asarray(s, dtype=float) for s in singular_points]
    tail_cells = 0
    if sing:
        scale_fp = max(1.0, float(np.max(np.abs(bbox.lo_arr))), float(np.max(np.abs(bbox.hi_arr))))
        lo, widths, tail_cells = _grade_toward(lo, widths, sing, grade_depth,
                                               fp_floor=1e-12 * scale_fp)

    mids, vols = _emit_subgrid(lo, widths, emit_depth, n)
    for s in sing:
        hit = np.all(np.abs(mids - s) <= 1e-13, axis=1)
        if np.any(hit):
            mids[hit] = mids[hit] + (vols[hit] ** (1.0 / n))[:, None] * 0.37
    return mids, vols, tail_cells * 2 ** (emit_depth * n)


def integrate_ball(fn, center, radius, spec=None, singular_points=(), name="ball integral"):
    center = np.asarray(center, dtype=float)
    spec = (spec or QuadSpec()).for_dim(center.size)
    bdepth = 10 if center.size == 1 else max(2, 13 - spec.base_depth)

    def node_fn(bd, gd, ed):
        return ball_nodes(center, radius, bd, gd, ed, singular_points, boundary_depth=bdepth)

    return _refine_loop(node_fn, fn, spec, name)


def average_ball(fn, center, radius, spec=None, singular_points=(), name="ball average"):
    """Average over the ball; normalized by the mesh measure so constants are exact."""
    center = np.asarray(center, dtype=float)
    spec = (spec or QuadSpec()).for_dim(center.size)
    bdepth = 10 if center.size == 1 else max(2, 13 - spec.base_depth)

    def node_fn(bd, gd, ed):
        mids, vols, n_tail = ball_nodes(center, radius, bd, gd, ed, singular_points,
                                        boundary_depth=bdepth)
        return mids, vols / vols.sum(), n_tail

    return _refine_loop(node_fn, fn, spec, name)

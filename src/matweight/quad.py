"""Box averages by an hp Gauss rule for point singularities.

A box is split at its singular points, so each is a corner of the pieces
around it; every piece gets 2^base_depth uniform cells per axis, and each
cell at a singular corner is graded toward it geometrically (ratio 1/2,
2^n - 1 cells per level). Every cell carries a tensor Gauss-Legendre rule of
`order` points per axis (order 1 is the midpoint rule). The innermost cells
are an untrusted tail that must be negligible before a result converges. In
1-D, given the local exponent e at each singular point s, the grading stops
within a quarter of the distance to the next singular point (or to 1) and
that cell gets a Gauss-Jacobi rule for |x - s|^e, which leaves no tail.
Rounds refine the rule until the relative change drops below the tolerance.
Many boxes refine together: one array pass per batch lays out every box with
a singular point on it (its pieces and singular corners), and each round
derives its cells from that layout, evaluates the integrand on the nodes of
every box still refining, a chunk at a time (at most CHUNK_NODES nodes, or
CHUNK_VALUES for an integrand known to be scalar), and sums each chunk in one
reduction per 32 integrand columns.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import IntegrabilityError, ResolutionError
from .geometry import box_corners, mesh

CHUNK_NODES = 2 ** 12  # integrand nodes per call: 32 KB per coordinate array
CHUNK_VALUES = 2 ** 14  # integrand nodes per call if fn is scalar: one value per node


@dataclass(frozen=True)
class QuadSpec:
    """Controls for the hp Gauss rule.

    base_depth: uniform dyadic splits per axis of each piece of the box.
    grade_depth: geometric levels toward each singular corner, down to a
        floating-point floor, where no Gauss-Jacobi end cell applies.
    order: Gauss-Legendre points per axis and cell, and Gauss-Jacobi points.
    Per refinement round, base_depth and order grow by one and grade_depth
    by grade_step; rel_tol is the stopping threshold on the relative change.
    """

    rel_tol: float = 1e-4
    base_depth: int = 4
    grade_depth: int = 32
    order: int = 3
    grade_step: int = 16
    max_rounds: int = 5
    max_nodes: int = 500_000

    def for_dim(self, n):
        """Shrink per-axis depths in higher dimension to keep node counts sane."""
        return self if n <= 1 else replace(self, base_depth=min(self.base_depth, 3),
                                           order=min(self.order, 2))


@dataclass
class QuadResult:
    """A region's value, convergence flag, rounds and last round's node count;
    for a batch of regions, arrays with one entry per region, and result[k]
    is region k's QuadResult."""

    value: object
    converged: bool
    rounds: int
    nodes: int

    def __getitem__(self, k):
        return QuadResult(self.value[k], bool(self.converged[k]), int(self.rounds[k]),
                          int(self.nodes[k]))


@lru_cache(maxsize=512)
def _gauss_jacobi(e, order):
    """Gauss rule for int_0^1 t^e g(t) dt (e > -1) by Golub & Welsch from the
    Jacobi matrix of P^(0, e), as nodes t_j and weights w_j t_j^-e, which
    apply to the integrand t^e g(t) itself (e = 0: Gauss-Legendre)."""
    k = np.arange(1, order, dtype=float)
    s = 2.0 * k + e
    diag = np.concatenate(([e / (e + 2.0)], e * e / (s * (s + 2.0))))
    off = 2.0 * k * (k + e) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    t = 0.5 * (x + 1.0)
    return t, v[0] ** 2 / (e + 1.0) * t ** -e


@lru_cache(maxsize=None)
def _gauss_legendre(order, n):
    """Tensor Gauss-Legendre rule on [0, 1]^n: nodes (order^n, n), weights summing to 1."""
    t, w = _gauss_jacobi(0.0, order)
    return mesh(*[t] * n), mesh(*[w / w.sum()] * n).prod(axis=1)


def _layouts(lo, hi, pad, P, on):
    """The round-independent layout of every box (corners lo, hi) with a point
    of P on it (on[b]): each axis splits at the box's distinct point coordinates
    inside it (pad from its ends); per piece, in itertools.product order, owner
    gets b, pieces its lower and upper corner, and corners a row (piece, point,
    direction per axis) per corner at a point, from the first point there."""
    sb = np.flatnonzero(on.any(axis=1))
    lo, hi, pad, on = lo[sb], hi[sb], pad[sb], on[sb]
    inner = on[:, :, None] & (lo[:, None] + pad[:, None] < P) & (P < hi[:, None] - pad[:, None])
    cut = np.sort(np.where(inner, P, np.inf), axis=1)  # (boxes, points, axes)
    cut[:, 1:][cut[:, 1:] == cut[:, :-1]] = np.inf
    axes = np.sort(np.concatenate([lo[:, None], hi[:, None], cut], axis=1), axis=1)
    radix = np.isfinite(cut).sum(axis=1) + 1  # pieces per axis
    # the mixed-radix digits of each piece's rank in its box, the last axis fastest
    box = np.repeat(np.arange(len(sb)), radix.prod(axis=1))
    stride = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1] // radix
    digit = (np.arange(len(box)) - np.searchsorted(box, box))[:, None] // stride[box] % radix[box]
    corner = axes[box[:, None, None], digit[:, None] + np.arange(2)[:, None], np.arange(P.shape[1])]
    near = np.abs(P - corner[:, :, None]) <= pad[box][:, None, None]  # (pieces, 2, points, axes)
    sign = np.where(near[:, 0], 1, np.where(near[:, 1], -1, 0))
    hit = np.nonzero(on[box] & np.all(sign != 0, axis=2))  # (pieces, points), row-major
    rows = np.column_stack([*hit, sign[hit]])
    first = np.unique(np.delete(rows, 1, axis=1), axis=0, return_index=True)[1]
    return sb[box], corner.reshape(len(box), 2 * P.shape[1]), rows[np.sort(first)]


@lru_cache(maxsize=None)
def _unit_grid(depth, n):
    """Lower corners of the 2^depth-per-axis uniform grid, in cell widths."""
    return mesh(*[np.arange(2.0 ** depth)] * n)


def _uniform(lo, widths, depth):
    """The 2^depth-per-axis uniform subcells of every (lo, widths) cell."""
    grid, w = _unit_grid(depth, lo.shape[1]), widths / 2 ** depth
    return ((lo[:, None] + grid * w[:, None]).reshape(-1, lo.shape[1]),
            np.repeat(w, len(grid), axis=0))


def _emit(lo, widths, order):
    """Tensor Gauss-Legendre nodes and weights on every (lo, widths) cell."""
    t, w = _gauss_legendre(order, lo.shape[1])
    nodes = (lo[:, None, :] + widths[:, None, :] * t[None]).reshape(-1, lo.shape[1])
    return nodes, (widths.prod(axis=1)[:, None] * w[None]).ravel()


def _as_point(s, n):
    """A singular point as a list of n floats; a 1-point is broadcast, as numpy does."""
    return (np.ravel(s).tolist() * n)[:n]


def _build(pb, rows, piece, sign, Ls, es, depth, order):
    """Nodes, weights and tail node counts of consecutive laid-out boxes in one
    pass, box after box; in each box, the uniform cells, the chains, the tail
    cells and the Gauss-Jacobi end cells. The pieces have boxes pb, counted
    from 0, and rows (lower corner, upper corner); the corners have pieces
    (indices into rows), directions, chain lengths and exponents."""
    n, m, cb = rows.shape[1] // 2, 2 ** depth, pb[piece]
    p_lo, p_hi = rows[:, :n], rows[:, n:]
    u_lo, u_w = _uniform(p_lo, p_hi - p_lo, depth)
    keep = np.ones(len(u_lo), dtype=bool)
    keep[piece * m ** n + ((sign < 0) * (m - 1) * m ** np.arange(n)[::-1]).sum(axis=1)] = False
    C, W = np.where(sign > 0, p_lo[piece], p_hi[piece]), (p_hi - p_lo)[piece] / m
    # chain level l of a corner: 2^n - 1 cells of width 2^-l w next to it
    rep = np.repeat(np.arange(len(Ls)), Ls)
    lev = 0.5 ** (np.arange(rep.size) - np.repeat(np.cumsum(Ls) - Ls, Ls) + 1.0)[:, None] * W[rep]
    offs = _unit_grid(1, n)[1:] * sign[:, None] + np.minimum(sign, 0.0)[:, None]
    IW = W * 0.5 ** Ls[:, None]
    tail = np.isnan(es)  # no exponent: the innermost cell is an untrusted tail
    X, v = _emit(np.concatenate([u_lo[keep],
                                 (C[rep][:, None] + offs[rep] * lev[:, None]).reshape(-1, n),
                                 (C + np.minimum(sign, 0.0) * IW)[tail]]),
                 np.concatenate([u_w[keep], np.repeat(lev, 2 ** n - 1, axis=0), IW[tail]]),
                 order)
    key = np.repeat(np.concatenate([np.repeat(pb, m ** n)[keep] * 4,
                                    np.repeat(cb[rep], 2 ** n - 1) * 4 + 1, cb[tail] * 4 + 2]),
                    order ** n)
    jac = ~tail
    if jac.any():  # one rule per distinct exponent
        ue, inv = np.unique(es[jac], return_inverse=True)
        T, WT = (np.array(r)[inv] for r in zip(*[_gauss_jacobi(e, order) for e in ue.tolist()]))
        g, h = sign[jac, 0], IW[jac, 0]
        X = np.concatenate([X, (C[jac, 0][:, None] + (g * h)[:, None] * T).reshape(-1, 1)])
        v = np.concatenate([v, (h[:, None] * WT).ravel()])
        key = np.concatenate([key, np.repeat(cb[jac] * 4 + 3, order)])
    at = np.lexsort((key,))  # stable
    return X[at], v[at], np.bincount(cb[tail], minlength=pb[-1] + 1) * order ** n


def box_nodes(box, base_depth, grade_depth, order, singular_points=(), exponents=None):
    """Nodes, weights and tail node count of the hp rule on a box (see _layouts
    and _build); exponents (parallel to singular_points) are the integrand's
    local exponents. The one-box case of _box_chunks."""
    chunks = _box_chunks(box_corners(box), singular_points,
                         None if exponents is None else [exponents])
    (_, X, v, _, tails), = chunks(base_depth, grade_depth, order, np.arange(1))
    return X, v, int(tails[0])


def _round_params(spec, rnd):
    return spec.base_depth + rnd, spec.grade_depth + rnd * spec.grade_step, spec.order + rnd


def _refine_loop(chunks, fn, spec, name, count=1):
    """Refine `count` regions together: each round builds the nodes of every
    region still active, and each region stops on its own once its relative
    change drops below rel_tol with a negligible tail. chunks(bd, gd, order,
    idx) yields (positions in idx, nodes, weights, node counts, tail counts)
    for the regions idx, whole regions within _box_chunks' budget per piece
    (a single region may exceed it); fn sees one piece at a time, and one
    reduction per 32 of its columns sums it. Returns a batch QuadResult."""
    active = np.arange(count)
    rounds, nodes = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    hist = None  # the last three rounds' values per region, newest first
    for rnd in range(spec.max_rounds):
        if not active.size:
            break
        new, tail = None, np.zeros(active.size)
        ran = np.ones(active.size, dtype=bool)
        for pos, X, v, sizes, tails in chunks(*_round_params(spec, rnd), active):
            over = sizes > spec.max_nodes
            if over.any():
                if rnd == 0:
                    raise ResolutionError(f"{name}: the first round needs {sizes[over][0]} "
                                          f"nodes, over the budget of {spec.max_nodes}")
                ran[pos[over]] = False  # stops at its last round's value
                keep = np.repeat(~over, sizes)
                X, v, pos, sizes, tails = X[keep], v[keep], pos[~over], sizes[~over], tails[~over]
                if not pos.size:
                    continue
            vals = np.asarray(fn(X))
            V = vals.reshape(len(v), -1)
            if hist is None:
                shape, hist = vals.shape[1:], np.zeros((3, count, V.shape[1]), dtype=V.dtype)
            if new is None:
                new = np.zeros((active.size, V.shape[1]), dtype=hist.dtype)
            # numpy sums an unpadded segment as in a one-box batch; the innermost
            # singular cells' share is untrusted and must be negligible to converge
            ends, t = np.cumsum(sizes), tails > 0
            cuts = np.stack([ends[t] - tails[t], ends[t]], axis=1).ravel()
            cuts = cuts[cuts < len(v)]
            for c in range(0, V.shape[1], 32):  # 32 columns at a time bound the weighted copy
                vV = v[:, None] * V[:, c:c + 32]
                new[pos, c:c + 32] = np.add.reduceat(vV, ends - sizes, axis=0)
                tail[pos[t]] += np.abs(np.add.reduceat(vV, cuts, axis=0)[::2]).sum(axis=1)
            nodes[active[pos]] = sizes
            del X, v, vals, V  # free this chunk before the next one is built
        if new is None:
            break
        idx, new, tail = active[ran], new[ran], tail[ran]
        rounds[idx] += 1
        hist[1:, idx] = hist[:2, idx]
        hist[0, idx] = new
        active = idx
        if rnd:
            scale = np.maximum(np.sum(np.abs(new), axis=1), 1e-300)
            change = np.sum(np.abs(new - hist[1, idx]), axis=1)
            done = (change <= spec.rel_tol * scale) & (tail <= 10.0 * spec.rel_tol * scale)
            converged[idx[done]] = True
            active = idx[~done]
    # an unconverged region whose last three rounds grow like a non-integrable
    # singularity, rather than settle slowly, diverges
    h = hist[:, ~converged & (rounds >= 3)]
    mag0, mag2 = np.sum(np.abs(h[0]), axis=1), np.sum(np.abs(h[2]), axis=1)
    d1, d0 = np.sum(np.abs(h[0] - h[1]), axis=1), np.sum(np.abs(h[1] - h[2]), axis=1)
    ratio = d1 / np.where(d0 > 0, d0, 1.0)
    bad = ((d0 > 0) & (ratio >= 0.75) & (mag0 > 1.05 * mag2)
           & (d1 > spec.rel_tol * np.maximum(mag0, 1e-300)))
    if bad.any():
        raise IntegrabilityError(f"{name}: divergent refinement (ratio {ratio[bad][0]:.2f})")
    return QuadResult(hist[0].reshape((count,) + shape), converged, rounds, nodes)


def _box_chunks(boxes, singular_points, exponents, scalar=False):
    """The chunks of _refine_loop over boxes ((B, 2, n) lower and upper
    corners) with local exponents at the singular points (B, S; None or NaN:
    unknown). Boxes with no singular point on them take their nodes from one
    broadcast of the uniform rule. The others are laid out together, once
    (_layouts); each round derives their cells from that layout and builds
    them together, at most CHUNK_NODES nodes at a time (CHUNK_VALUES if the
    integrand is scalar) unless one box alone exceeds it."""
    budget = CHUNK_VALUES if scalar else CHUNK_NODES
    lo, hi, n = boxes[:, 0], boxes[:, 1], boxes.shape[2]
    pts = [_as_point(s, n) for s in singular_points]
    P, pad = np.reshape(pts, (-1, n)), 1e-12 * (hi - lo)
    on = np.all((lo[:, None] - pad[:, None] <= P) & (P <= hi[:, None] + pad[:, None]), axis=2)
    reach = np.array([min([1.0] + [abs(s[0] - t[0]) for t in pts if t[0] != s[0]]) for s in pts])
    exps = (np.full(on.shape, np.nan) if exponents is None or n > 1
            else np.asarray(exponents, dtype=float))
    floor = 1e-12 * np.maximum(1.0, np.abs(boxes).max(axis=(1, 2)))  # cells resolve above it
    owner, pieces, corners = _layouts(lo, hi, pad, P, on)

    def chunks(bd, gd, order, idx):
        singular, size = on[idx].any(axis=1), (2 ** bd * order) ** n
        plain, step = np.flatnonzero(~singular), max(1, budget // size)
        for first in range(0, plain.size, step):
            pos = plain[first:first + step]
            b = idx[pos]
            yield (pos, *_emit(*_uniform(lo[b], hi[b] - lo[b], bd), order),
                   np.full(pos.size, size), np.zeros(pos.size, dtype=int))
        pos = np.flatnonzero(singular)
        if not pos.size:
            return
        # the chain length of each of the round's corners, in box order
        sel, depth, q = idx[pos], max(bd, 1), order ** n
        act = np.zeros(len(boxes), dtype=bool)
        act[sel] = True
        ci = np.flatnonzero(act[owner[corners[:, 0]]])
        (cp, pt), box = corners[ci, :2].T, owner[corners[ci, 0]]
        e, W = exps[box, pt], (pieces[cp, n:] - pieces[cp, :n]) / 2 ** depth
        # halvings down to the floor, or given the exponent, to a quarter of the reach
        L = np.floor(np.log2(np.maximum(W.max(axis=1) / floor[box], 0.5))) + 1
        jac = ~np.isnan(e)
        cap = np.where(jac, np.ceil(np.log2(np.maximum(4.0 * W[:, 0] / reach[pt], 1.0))), gd)
        L = np.minimum(L, cap).astype(int)
        sizes = np.bincount(box, (L * (2 ** n - 1) - 1) * q + np.where(jac, order, q), len(boxes))
        sizes = (np.bincount(owner, minlength=len(boxes)) * 2 ** (depth * n) * q
                 + sizes.astype(int))[sel]
        cuts, total = [0], 0
        for k, s in enumerate(sizes.tolist()):
            if k > cuts[-1] and total + s > budget:
                cuts.append(k)
            total = s if cuts[-1] == k else total + s
        cuts.append(len(sel))
        # each chunk's pieces and corners, boxes and pieces numbered from 0
        pi, ends = np.flatnonzero(act[owner]), np.append(sel, len(boxes))[cuts]
        pc, kc = np.searchsorted(owner[pi], ends), np.searchsorted(box, ends)
        del act, cp, pt, box, e, W, jac, cap  # the chunks need only L of these
        for k, (a, z) in enumerate(zip(cuts, cuts[1:])):
            ps, rows = pi[pc[k]:pc[k + 1]], corners[ci[kc[k]:kc[k + 1]]]
            X, v, tails = _build(np.searchsorted(sel[a:z], owner[ps]), pieces[ps],
                                 np.searchsorted(ps, rows[:, 0]), rows[:, 2:], L[kc[k]:kc[k + 1]],
                                 exps[owner[rows[:, 0]], rows[:, 1]], depth, order)
            yield pos[a:z], X, v, sizes[a:z], tails

    return chunks


def average_boxes(fn, boxes, spec=None, singular_points=(), name="box average",
                  exponents=None, scalar=False):
    """Averages of fn over boxes ((B, 2, n) lower and upper corners), refined
    together; fn maps (N, n) points to (N, ...) values (one per point if
    scalar, which allows larger chunks) and has, on box b, the local exponents
    exponents[b] (optional, NaN: unknown) at the singular points. Returns a
    batch QuadResult."""
    boxes = np.asarray(boxes, dtype=float)
    spec = (spec or QuadSpec()).for_dim(boxes.shape[2])
    res = _refine_loop(_box_chunks(boxes, singular_points, exponents, scalar), fn, spec, name,
                       len(boxes))
    vol = np.prod(boxes[:, 1] - boxes[:, 0], axis=1)
    res.value = res.value / vol.reshape(vol.shape + (1,) * (res.value.ndim - 1))
    return res


def average_box(fn, box, spec=None, singular_points=(), name="box average", exponents=None):
    return average_boxes(fn, box_corners(box), spec, singular_points, name,
                         None if exponents is None else [exponents])[0]

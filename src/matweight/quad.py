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
A piece is an axis-scaled copy of the unit cube, so its rule is the affine
image of a template, the unit cube's nodes and weights for the depth, the
order and, per singular corner, the corner, its chain length and whether it
ends in a tail, built once per such key and cached. A template takes its
uniform cells as runs of one cached grid per depth, order and dimension,
and its Gauss-Jacobi end cells are images of their exponents' cached rules.
Nodes are kept as offsets from the corner they are graded toward, so that
their distance to a singular point keeps its relative precision.
Rounds refine the rule until the relative change drops below the tolerance.
Many boxes refine together: one array pass per batch lays out every box with
a singular point on it (its pieces and singular corners); each round gives
every piece the integer code of its template and builds the nodes of every
box still refining by one gather from the round's templates per chunk (at
most CHUNK_NODES nodes, or CHUNK_VALUES for an integrand known to be scalar),
evaluates the integrand on them and sums each chunk in one reduction per 32
integrand columns.
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


# the probes' quadrature standard: near the integrability edge the integrand
# resists refinement, so apdim.reverse_holder_probe and
# reducing.integrability_probe stop at a 0.5% relative change
PROBE_SPEC = QuadSpec(rel_tol=5e-3)


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


@lru_cache(maxsize=32)
def _grid(depth, order, n):
    """The uniform rule on the unit cube: the tensor Gauss-Legendre nodes of
    its 2^depth-per-axis cells, cell after cell, and their weights."""
    t, w = _gauss_legendre(order, n)
    m = 2 ** depth
    out = (((mesh(*[np.arange(m, dtype=float)] * n)[:, None] + t) / m).reshape(-1, n),
           np.tile(w / m ** n, m ** n))
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _template(depth, order, n, corners):
    """The node rule of a piece mapped to the unit cube, but for its uniform
    cells, which it takes from _grid, and its Gauss-Jacobi end cells: offsets
    (N, n) from the piece's anchors in units of its sides, weights (N,) in
    units of its volume, and its parts as rows (first node, node count,
    anchor, tail flag, own flag: the first node is in these arrays, not in
    _grid's), the body's before the tail's. A corner or an anchor is a number
    whose bit n - 1 - a is set at the upper end of axis a (0: the lower
    corner). corners holds, in corner order, a (corner, chain length L, tail)
    triple per singular corner of the piece. The body is the runs of uniform
    cells between the cells at the corners (anchor 0), then, anchored at each
    corner, its chain of L levels of 2^n - 1 cells halving toward it; the tail
    is the innermost cell of each corner with a tail (the others' innermost
    cell gets a Gauss-Jacobi rule). The arrays are shared."""
    t, w = _gauss_legendre(order, n)
    m, q, bit = 2 ** depth, order ** n, 2 ** np.arange(n - 1, -1, -1)
    up = [(c & bit) > 0 for c, _, _ in corners]
    cut = [-1] + sorted(int(u @ ((m - 1) * m ** np.arange(n - 1, -1, -1))) for u in up)
    parts = [(q * (a + 1), q * (b - a - 1), 0, 0, 0) for a, b in zip(cut, cut[1:] + [m ** n])
             if b > a + 1]
    nodes, tails = [], []
    for (c, L, tail), u in zip(corners, up):
        s = np.where(u, -1.0, 1.0)  # toward the inside
        lev = 0.5 ** np.arange(1.0, L + 1.0) / m
        offs = mesh(*[[0.0, 1.0]] * n)[1:] * s + np.minimum(s, 0.0)
        nodes.append(((offs[:, None] + t) * lev[:, None, None, None],
                      np.repeat(lev[:, None] ** n * w, 2 ** n - 1, axis=0), c, 0))
        if tail:
            inner = 0.5 ** L / m
            tails.append(((np.minimum(s, 0.0) + t) * inner, w * inner ** n, c, 1))
    nodes += tails
    first = np.cumsum([0] + [p[1].size for p in nodes])
    out = (np.concatenate([p[0].reshape(-1, n) for p in nodes] + [np.zeros((0, n))]),
           np.concatenate([p[1].ravel() for p in nodes] + [np.zeros(0)]),
           np.array(parts + [(f, p[1].size, p[2], p[3], 1) for f, p in zip(first, nodes)],
                    dtype=int).reshape(-1, 5))
    for a in out:
        a.flags.writeable = False
    return out


def _as_point(s, n):
    """A singular point as a list of n floats; a 1-point is broadcast, as numpy does."""
    return (np.ravel(s).tolist() * n)[:n]


def box_nodes(box, base_depth, grade_depth, order, singular_points=(), exponents=None):
    """Nodes, weights and tail node count of the hp rule on a box (see _layouts
    and _template); exponents (parallel to singular_points) are the integrand's
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


def _ranges(starts, counts):
    """The concatenated integer ranges [starts[k], starts[k] + counts[k])."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _box_chunks(boxes, singular_points, exponents, scalar=False):
    """The chunks of _refine_loop over boxes ((B, 2, n) lower and upper
    corners) with local exponents at the singular points (B, S; None or NaN:
    unknown). Boxes with no singular point on them take their nodes from one
    broadcast of the grid (_grid). The others are laid out together, once
    (_layouts); each round gives every piece a key code for its template
    (_template) and builds the nodes of whole boxes from the round's grid,
    templates and end-cell rules by one gather, at most CHUNK_NODES nodes at
    a time (CHUNK_VALUES if the integrand is scalar) unless one box alone
    exceeds it."""
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
    bit = 2 ** np.arange(n - 1, -1, -1)
    number, width = (corners[:, 2:] < 0) @ bit, pieces[:, n:] - pieces[:, :n]
    vol = np.prod(width, axis=1)

    def chunks(bd, gd, order, idx):
        singular = on[idx].any(axis=1)
        D, u = _grid(bd, order, n)
        plain, step = np.flatnonzero(~singular), max(1, budget // len(u))
        for first in range(0, plain.size, step):
            pos = plain[first:first + step]
            b = idx[pos]
            yield (pos, (lo[b][:, None] + (hi[b] - lo[b])[:, None] * D).reshape(-1, n),
                   (np.prod(hi[b] - lo[b], axis=1)[:, None] * u).ravel(),
                   np.full(pos.size, len(u)), np.zeros(pos.size, dtype=int))
        pos = np.flatnonzero(singular)
        if not pos.size:
            return
        # the chain length of each of the round's corners, in box order
        sel, depth = idx[pos], max(bd, 1)
        act = np.zeros(len(boxes), dtype=bool)
        act[sel] = True
        pi, ci = np.flatnonzero(act[owner]), np.flatnonzero(act[owner[corners[:, 0]]])
        (cp, pt), box = corners[ci, :2].T, owner[corners[ci, 0]]
        e, W = exps[box, pt], width[cp] / 2 ** depth
        # halvings down to the floor, or given the exponent, to a quarter of the reach
        L = np.floor(np.log2(np.maximum(W.max(axis=1) / floor[box], 0.5))) + 1
        cap = np.where(np.isnan(e), gd, np.ceil(np.log2(np.maximum(4.0 * W[:, 0] / reach[pt],
                                                                      1.0))))
        L = np.minimum(L, cap).astype(int)
        # a piece's template key: per corner number, 0 or 1 + (tail, chain length) code
        row, jac, Lr = np.searchsorted(pi, cp), ~np.isnan(e), int(L.max(initial=0)) + 1
        K = np.zeros((pi.size, 2 ** n), dtype=np.int64)
        K[row, number[ci]] = ~jac * Lr + L + 1
        code, radix = np.zeros(pi.size, dtype=np.int64), K.max() + 1
        for col in K.T:  # renumbered per corner number, so codes stay below pi.size
            code = np.unique(code * radix + col, return_inverse=True)[1]
        rep = np.empty(code.max() + 1, dtype=int)
        rep[code] = np.arange(pi.size)
        temps = [_template(depth, order, n, tuple((k, c % Lr, c >= Lr) for k, c in
                                                  enumerate((K[r] - 1).tolist()) if c >= 0))
                 for r in rep.tolist()]
        ue, eid = np.unique(e[jac], return_inverse=True)
        rules = [_gauss_jacobi(x, order) for x in ue.tolist()]
        grid = _grid(depth, order, n)
        TD = np.concatenate([grid[0]] + [t[0] for t in temps] + [r[0][:, None] for r in rules])
        Tu = np.concatenate([grid[1]] + [t[1] for t in temps] + [r[1] for r in rules])
        own, count = np.array([(len(t[1]), len(t[2])) for t in temps]).T
        # the parts as rows (node count, anchor, tail flag) and their first nodes in TD
        parts = np.concatenate([t[2] for t in temps])
        head = parts[:, 0] + parts[:, 4] * np.repeat(len(grid[1]) + np.cumsum(own) - own, count)
        parts = parts[:, 1:4]
        size, tail = (np.bincount(np.repeat(np.arange(count.size), count), parts[:, 0] * f,
                                  count.size) for f in (1, parts[:, 2]))
        first = np.cumsum(count) - count
        # the end cells as parts (node count, anchor, tail flag) of their pieces,
        # with their rules' first nodes and their scales
        jr, jparts = row[jac], np.column_stack([np.full(eid.size, order), number[ci[jac]],
                                                np.zeros(eid.size, dtype=int)])
        jhead = len(Tu) - order * (len(ue) - eid)
        jscale = np.where(jparts[:, 1] > 0, -1.0, 1.0) * 0.5 ** (depth + L[jac])
        lb = np.searchsorted(sel, owner[pi])  # each piece's box among sel
        sizes = (np.bincount(lb, size[code], sel.size)
                 + order * np.bincount(lb[jr], minlength=sel.size)).astype(int)
        tails = np.bincount(lb, tail[code], sel.size).astype(int)
        ends = np.concatenate([[0], np.cumsum(sizes)])
        # the chunks need only the pieces' codes and boxes, the parts and the end cells
        del act, ci, cp, pt, box, e, W, L, cap, row, jac, K, rep, temps, rules, eid
        a = 0
        while a < sel.size:  # whole boxes while they fit the budget
            z = max(a + 1, int(np.searchsorted(ends, ends[a] + budget, "right")) - 1)
            pa, pz = np.searchsorted(lb, [a, z])
            ja, jz = np.searchsorted(jr, [pa, pz])
            c = code[pa:pz]
            tp = _ranges(first[c], count[c])
            # the chunk's parts: its pieces' templates', then their end cells; a box's tails last
            local = np.concatenate([np.repeat(np.arange(pa, pz), count[c]), jr[ja:jz]])
            rows = np.concatenate([parts[tp], jparts[ja:jz]])
            o = np.argsort(lb[local] * 2 + rows[:, 2], kind="stable")
            piece, (span, anchor) = pi[local[o]], rows[o, :2].T
            scale = np.concatenate([np.ones(tp.size), jscale[ja:jz]])[o]
            at = _ranges(np.concatenate([head[tp], jhead[ja:jz]])[o], span)
            X, v = TD.take(at, axis=0), Tu.take(at)  # scaled and shifted in place
            del at  # not held while the integrand runs
            X *= np.repeat(width[piece] * scale[:, None], span, axis=0)
            X += np.repeat(np.where(anchor[:, None] & bit, pieces[piece, n:], pieces[piece, :n]),
                           span, axis=0)
            v *= np.repeat(vol[piece] * np.abs(scale), span)
            yield pos[a:z], X, v, sizes[a:z], tails[a:z]
            del X, v  # the caller is done with them: freed before the next chunk is built
            a = z

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


def average_box(fn, box, spec=None, singular_points=(), exponents=None):
    return average_boxes(fn, box_corners(box), spec, singular_points,
                         exponents=None if exponents is None else [exponents])[0]

"""Cube and ball averages by an hp Gauss rule for point singularities.

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
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import IntegrabilityError, ResolutionError
from .geometry import Box, mesh


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
    value: object
    converged: bool
    rounds: int
    nodes: int
    history: list = field(default_factory=list)


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


@lru_cache(maxsize=None)
def _child_offsets(n, sign):
    """Lower corners of one level's 2^n - 1 chain cells, in units of the level
    width from the singular corner of a cell that extends along sign."""
    return _unit_grid(1, n)[1:] * sign + np.minimum(sign, 0.0)


def _cells(lo, hi, points, depth):
    """Split the box [lo, hi] (float lists) at the points on it and give each
    piece 2^depth uniform cells per axis: lower corners, widths, and the cells
    at a point as (cell index, point index, direction, corner, widths)."""
    n, m = len(lo), 2 ** depth
    pads = [1e-12 * (b - a) for a, b in zip(lo, hi)]
    axes = [[a, *sorted({s[i] for s in points if a + d < s[i] < b - d}), b]
            for i, (a, b, d) in enumerate(zip(lo, hi, pads))]
    pieces = list(product(*[list(zip(c[:-1], c[1:])) for c in axes]))
    corners, seen = [], set()
    for p, piece in enumerate(pieces):
        for k, s in enumerate(points):
            sign = tuple(1.0 if abs(x - a) <= d else -1.0 if abs(x - b) <= d else 0.0
                         for x, (a, b), d in zip(s, piece, pads))
            cell = p * m ** n + sum((m - 1) * m ** (n - 1 - i) for i, g in enumerate(sign)
                                    if g < 0)
            if 0.0 not in sign and cell not in seen:
                seen.add(cell)
                corner = [a if g > 0 else b for g, (a, b) in zip(sign, piece)]
                corners.append((cell, k, sign, corner, [(b - a) / m for a, b in piece]))
    return (*_uniform(np.array([[a for a, _ in piece] for piece in pieces]),
                      np.array([[b - a for a, b in piece] for piece in pieces]), depth), corners)


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


def _graded_nodes(lo, widths, corners, order, grade_depth, floor, jacobi=None):
    """Nodes, weights and tail node count of the cells with each corner cell
    replaced by its chain: one geometric sequence of at most grade_depth
    halvings, or, given jacobi ((exponent, reach) per point, 1-D), down to a
    quarter of reach and a Gauss-Jacobi end cell; never below floor."""
    n = lo.shape[1]
    if not corners:
        return (*_emit(lo, widths, order), 0)
    keep = np.ones(lo.shape[0], dtype=bool)
    cells_lo, cells_w, inner_lo, inner_w = [None], [None], [], []
    for cell, k, sign, c, w in corners:
        keep[cell] = False
        L = 0 if max(w) < floor else int(math.log2(max(w) / floor)) + 1
        L = min(L, grade_depth if jacobi is None
                else max(math.ceil(math.log2(4.0 * w[0] / jacobi[k][1])), 0))
        if L:
            lev = 0.5 ** np.arange(1.0, L + 1)[:, None] * w  # (L, n) level widths
            cells_lo.append((c + _child_offsets(n, sign) * lev[:, None]).reshape(-1, n))
            cells_w.append(np.repeat(lev, 2 ** n - 1, axis=0))
        inner_w.append([v * 0.5 ** L for v in w])
        inner_lo.append([x + min(g, 0.0) * v for x, g, v in zip(c, sign, inner_w[-1])])
    cells_lo[0], cells_w[0] = lo[keep], widths[keep]
    if jacobi is None:
        mids, vols = _emit(np.concatenate(cells_lo + [np.array(inner_lo)]),
                           np.concatenate(cells_w + [np.array(inner_w)]), order)
        return mids, vols, len(corners) * order ** n
    mids, vols = _emit(np.concatenate(cells_lo), np.concatenate(cells_w), order)
    xs, vs = [mids[:, 0]], [vols]
    for (_, k, (g,), (c,), _), (h,) in zip(corners, inner_w):
        t, wt = _gauss_jacobi(jacobi[k][0], order)
        xs.append(c + g * h * t)
        vs.append(h * wt)
    return np.concatenate(xs)[:, None], np.concatenate(vs), 0


def _as_point(s, n):
    """A singular point as a list of n floats; a 1-point is broadcast, as numpy does."""
    return (np.ravel(s).tolist() * n)[:n]


def box_nodes(box, base_depth, grade_depth, order, singular_points=(), exponents=None):
    """Nodes, weights and tail node count of the hp rule on a box; exponents
    (parallel to singular_points) are the integrand's local exponents, which
    give 1-D chains Gauss-Jacobi end cells."""
    lo, hi = [float(v) for v in box.lo], [float(v) for v in box.hi]
    pts = [_as_point(s, box.n) for s in singular_points]
    on = [k for k, s in enumerate(pts)
          if all(a - 1e-12 * (b - a) <= x <= b + 1e-12 * (b - a) for x, a, b in zip(s, lo, hi))]
    sing = [pts[k] for k in on]
    cells = _cells(lo, hi, sing, max(base_depth, 1) if sing else base_depth)
    jacobi = None
    if box.n == 1 and exponents is not None:
        # reach: the distance to the nearest other singular point, or 1
        jacobi = [(float(exponents[k]),
                   min([1.0] + [abs(pts[k][0] - t[0]) for t in pts if t[0] != pts[k][0]]))
                  for k in on]
    floor = 1e-12 * max(1.0, *map(abs, lo), *map(abs, hi))  # cells resolve points above it
    return _graded_nodes(*cells, order, grade_depth, floor, jacobi)


def _round_params(spec, rnd):
    return (
        spec.base_depth + rnd,
        spec.grade_depth + rnd * spec.grade_step,
        spec.order + rnd,
    )


def _refine_loop(node_fn, fn, spec, name):
    value = None
    history = []
    nodes = 0
    converged = False
    for rnd in range(spec.max_rounds):
        mids, vols, n_tail = node_fn(*_round_params(spec, rnd))
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
        # contribution of the innermost singular cells: their estimate is
        # untrusted, so it must be negligible before we call it converged
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


def integrate_box(fn, box, spec=None, singular_points=(), name="box integral",
                  exponents=None):
    """Integral of fn over a box; fn maps (N, n) points to (N, ...) values and
    has the local exponents `exponents` (optional) at the singular points."""
    spec = (spec or QuadSpec()).for_dim(box.n)

    def node_fn(bd, gd, order):
        return box_nodes(box, bd, gd, order, singular_points, exponents)

    return _refine_loop(node_fn, fn, spec, name)


def average_box(fn, box, spec=None, singular_points=(), name="box average", exponents=None):
    res = integrate_box(fn, box, spec, singular_points, name, exponents)
    res.value = res.value / box.volume
    return res


def average_ball(fn, center, radius, spec=None, singular_points=(), name="ball average"):
    """Average over the ball. In 1-D the ball is a box; in 2-D the nodes are
    c + r rho (cos 2 pi theta, sin 2 pi theta) from two 1-D rules on [0, 1],
    rho graded toward 0 and the radius of each singular point in the closed
    disc, theta toward the angle of each one off the centre, with weights
    w_rho w_theta rho normalized to sum 1, so constants are exact."""
    c = np.asarray(center, dtype=float)
    if c.size == 1:
        return average_box(fn, Box((c[0] - radius,), (c[0] + radius,)), spec,
                           singular_points, name)
    if c.size != 2:
        raise ResolutionError(f"{name}: ball averages support n <= 2, not n = {c.size}")
    polar = [(math.hypot(x, y) / radius, math.atan2(y, x) / (2.0 * math.pi))
             for x, y in (np.asarray(_as_point(s, 2)) - c for s in singular_points)]
    radii = [(0.0,)] + [(q,) for q, _ in polar if q <= 1.0 + 1e-12]
    # an angle in [-1/2, 1/2] and its image one period up: those on [0, 1]
    angles = [(t + k,) for q, t in polar if 1e-12 < q <= 1.0 + 1e-12 for k in (0, 1)]
    unit = Box((0.0,), (1.0,))

    def node_fn(bd, gd, order):
        rho, w_rho, tail = box_nodes(unit, bd, gd, order, radii)
        theta, w_theta, _ = box_nodes(unit, bd, gd, order, angles)
        rho, theta = mesh(rho[:, 0], 2.0 * math.pi * theta[:, 0]).T  # radius-major
        w = mesh(w_rho, w_theta).prod(axis=1) * rho
        X = c + radius * rho[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return X, w / w.sum(), tail * len(w_theta)

    return _refine_loop(node_fn, fn, (spec or QuadSpec()).for_dim(2), name)

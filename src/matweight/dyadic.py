"""Grid-sampled fields on the dyadic lattice: E_j, the grid maximal operator,
and weight-vs-reducing-operator comparison fields.

A GridFunction samples a field at the midpoints of the level-L lattice cells
of its box (midpoints never sit on dyadic singular points, the same
convention the quadrature uses). Values are treated as piecewise constant on
the cells, so L^p sums over lattice cubes are exact block sums.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ResolutionError
from .geometry import Box, mesh


def grid_shape(box, level):
    counts = box.sides * 2.0 ** level
    counts_r = np.rint(counts)
    if np.any(np.abs(counts - counts_r) > 1e-9) or np.any(counts_r < 1):
        raise ResolutionError(f"box is not lattice-aligned at level {level}")
    return tuple(int(c) for c in counts_r)


def grid_points(box, level, flat=True):
    """Cell-midpoint sample points of the level-`level` lattice inside the box."""
    shape = grid_shape(box, level)
    h = 2.0 ** (-level)
    axes = [box.lo[i] + h * (np.arange(shape[i]) + 0.5) for i in range(box.n)]
    pts = mesh(*axes)
    return pts if flat else pts.reshape(shape + (box.n,))


@dataclass
class GridFunction:
    """Samples on the uniform level-L lattice of a box.

    values has shape grid_shape for scalar fields or (m,) + grid_shape for
    vector fields.
    """

    box: Box
    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        shape = grid_shape(self.box, self.level)
        if self.values.shape == shape:
            self.m = 1
            self.vector = False
        elif self.values.shape[1:] == shape:
            self.m = self.values.shape[0]
            self.vector = True
        else:
            raise ValueError(f"values shape {self.values.shape} does not match grid {shape}")

    @property
    def n(self):
        return self.box.n

    @property
    def shape(self):
        return grid_shape(self.box, self.level)

    @property
    def cell_volume(self):
        return 2.0 ** (-self.level * self.n)

    def scalar_abs(self):
        """Pointwise Euclidean length for vector fields, |values| for scalar."""
        if self.vector:
            vals = np.sqrt(np.sum(np.abs(self.values) ** 2, axis=0))
        else:
            vals = np.abs(self.values)
        return self.copy_with(vals)

    def integral(self):
        return np.sum(self.values, axis=tuple(range(-self.n, 0))) * self.cell_volume

    def copy_with(self, values):
        return GridFunction(self.box, self.level, values)


def constant_field(box, level, value=1.0):
    return GridFunction(box, level, np.full(grid_shape(box, level), value, dtype=float))


def block_reduce(values, n, factor, ufunc=np.add):
    """Reduce factor^n blocks of the trailing n axes with a ufunc (np.add sums,
    np.maximum takes block maxima)."""
    lead = values.shape[: values.ndim - n]
    new = []
    for s in values.shape[values.ndim - n:]:
        new.extend([s // factor, factor])
    axes = tuple(values.ndim - n + 1 + 2 * i for i in range(n))
    return ufunc.reduce(values.reshape(lead + tuple(new)), axis=axes)


def expectation_field(f, j):
    """E_j(f): replace f by its average on each level-j lattice cube."""
    if j > f.level:
        raise ResolutionError(f"level {j} finer than grid level {f.level}")
    factor = 2 ** (f.level - j)
    expanded = block_reduce(f.values, f.n, factor) / factor ** f.n
    for ax in range(-f.n, 0):
        expanded = np.repeat(expanded, factor, axis=ax)
    return f.copy_with(expanded)


def _sliding_box_sum(values, a, axis):
    """Sum of values over the index window [i-a, i+a] along one axis, clipped."""
    c = np.cumsum(values, axis=axis)
    pad_shape = list(values.shape)
    pad_shape[axis] = 1
    c = np.concatenate([np.zeros(pad_shape, dtype=values.dtype), c], axis=axis)
    sz = values.shape[axis]
    hi = np.minimum(np.arange(sz) + a + 1, sz)
    lo = np.maximum(np.arange(sz) - a, 0)
    return np.take(c, hi, axis=axis) - np.take(c, lo, axis=axis), hi - lo


def hl_maximal(f):
    """Grid Hardy-Littlewood maximal function over centered dyadic boxes.

    At each node the supremum runs over boxes of half-width 2^t cells,
    t = 0..L+log2(side), clipped to the domain. The t=0 box is the cell
    itself, so M(f) >= |f| pointwise.
    """
    g = f.scalar_abs()
    vals = g.values
    n = f.n
    best = vals.copy()
    for t in range(int(np.ceil(np.log2(max(vals.shape)))) + 1):
        a = 2 ** t - 1 if t > 0 else 0
        if t > 0 and a >= max(vals.shape):
            a = max(vals.shape)
        s = vals
        counts = np.ones((), dtype=float)
        for ax in range(n):
            s, c = _sliding_box_sum(s, a, axis=ax)
            dims = [1] * n
            dims[ax] = vals.shape[ax]
            counts = counts * c.astype(float).reshape(dims)
        avg = s / counts
        best = np.maximum(best, avg)
    return f.copy_with(best)


def gamma_field(weight, family, p, j, level=None):
    """Grid field x -> ||W^(1/p)(x) A_Q(x)^(-1)|| with Q the level-j cube at x
    of the family's window box."""
    box = family.window.box
    level = level if level is not None else max(j + 2, family.window.j_max)
    if j > level:
        raise ResolutionError("gamma field needs grid at least as fine as level j")
    pts = grid_points(box, level)
    wpow = weight.power_at(pts, 1.0 / p)
    inv = family.inverse_at_points(j, pts)
    vals = linalg.op_norm(wpow @ inv)
    return GridFunction(box, level, vals.reshape(grid_shape(box, level)))

"""Dyadic cubes, axis-aligned boxes, and finite cube windows.

The lattice cube at level j and index k is prod_i 2^-j [k_i, k_i+1); its
lower corner is 2^-j k and its edge length 2^-j. Levels may be negative
when the working domain is larger than the unit box. A CubeWindow is the
finite truncation of the lattice used by all supremum-type quantities.

A DyadicCube names one cube. A set of cubes is a batch (j, k): a (C,) array
of levels and a (C, n) array of indices; dilated_boxes turns a batch into
corners.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidArgumentError, ResolutionError


def mesh(*axes):
    """All combinations of one entry per axis, as rows ('ij' order)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def cell_index(lo, width, shape, X):
    """Flat (C-order) index of the cell holding each point of X in the grid of
    `shape` cells of edge `width` from the corner lo; points outside the grid
    go to its nearest cell."""
    idx = np.floor((np.atleast_2d(X) - lo) / width).astype(int)
    return np.ravel_multi_index(tuple(np.clip(idx, 0, np.asarray(shape) - 1).T), tuple(shape))


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box prod_i [lo_i, hi_i)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InvalidArgumentError("lo/hi dimension mismatch")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise InvalidArgumentError("empty box")

    @property
    def n(self):
        return len(self.lo)

    @property
    def lo_arr(self):
        return np.asarray(self.lo, dtype=float)

    @property
    def hi_arr(self):
        return np.asarray(self.hi, dtype=float)

    @property
    def sides(self):
        return self.hi_arr - self.lo_arr

    @property
    def volume(self):
        return float(np.prod(self.sides))

    @property
    def center(self):
        return 0.5 * (self.lo_arr + self.hi_arr)

    def contains_point(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo_arr) and np.all(x < self.hi_arr))

    def contains_box(self, other):
        return bool(self.contains_boxes(box_corners(other))[0])

    def contains_boxes(self, boxes):
        """contains_box for each of boxes ((B, 2, n) lower and upper corners),
        to within 1e-12."""
        lo, hi = self.lo_arr - 1e-12, self.hi_arr + 1e-12
        return np.all((boxes[:, 0] >= lo) & (boxes[:, 1] <= hi), axis=1)


def cube_box(n, half_side=0.5):
    """Centered working domain [-half_side, half_side)^n."""
    return Box((-half_side,) * n, (half_side,) * n)


@dataclass(frozen=True)
class DyadicCube:
    """Lattice cube prod_i 2^-j [k_i, k_i+1)."""

    j: int
    k: tuple

    @property
    def n(self):
        return len(self.k)

    @property
    def side(self):
        return 2.0 ** (-self.j)

    @property
    def volume(self):
        return self.side ** self.n

    @property
    def lower(self):
        """Lower corner x_Q = 2^-j k."""
        return self.side * np.asarray(self.k, dtype=float)

    @property
    def center(self):
        return self.lower + 0.5 * self.side

    def box(self):
        lo = self.lower
        return Box(tuple(lo), tuple(lo + self.side))

    def contains_point(self, x):
        return self.box().contains_point(x)


def box_corners(region):
    """A cube or box as a one-box batch: its (1, 2, n) lower and upper corners."""
    box = region.box() if isinstance(region, DyadicCube) else region
    return np.array([[box.lo, box.hi]], dtype=float)


def dilate(Q, lam):
    """Box with the center of Q and edge lam*l(Q)."""
    if lam <= 0:
        raise InvalidArgumentError("dilation factor must be positive")
    c = Q.center
    h = 0.5 * lam * Q.side
    return Box(tuple(c - h), tuple(c + h))


def batch_cube(batch, i):
    """Cube i of the batch (j, k) as a DyadicCube."""
    return DyadicCube(int(batch[0][i]), tuple(int(v) for v in batch[1][i]))


def dilated_boxes(batch, lams):
    """The boxes dilate(Q, lam) for every cube Q of the batch (j, k) and factor
    lam, computed as dilate does, as a (C, len(lams), 2, n) array of lower and
    upper corners."""
    j, k = batch
    side = np.ldexp(1.0, -np.asarray(j))[:, None, None]  # 2.0 ** -j, exactly
    c = side * np.asarray(k, dtype=float)[:, None, :] + 0.5 * side
    h = 0.5 * np.asarray(lams, dtype=float)[None, :, None] * side
    return np.stack([c - h, c + h], axis=2)


class CubeWindow:
    """All lattice cubes of levels j_min..j_max inside a dyadic base box.

    Each level slice must tile the base box exactly; this requires the box
    corners to be lattice-aligned at level j_min.
    """

    def __init__(self, n, j_min, j_max, box=None):
        if j_min > j_max:
            raise InvalidArgumentError("j_min must not exceed j_max")
        self.n = n
        self.j_min = j_min
        self.j_max = j_max
        self.box = box if box is not None else cube_box(n)
        if self.box.n != n:
            raise InvalidArgumentError("box dimension mismatch")
        self._ranges = {j: self._level_index_ranges(j) for j in self.levels()}

    def _level_index_ranges(self, j):
        """(k_lo, counts) of the level-j slice; the box must be aligned at j."""
        scale = 2.0 ** j
        k_lo = self.box.lo_arr * scale
        k_hi = self.box.hi_arr * scale
        k_lo_r = np.rint(k_lo)
        k_hi_r = np.rint(k_hi)
        if np.any(np.abs(k_lo - k_lo_r) > 1e-9) or np.any(np.abs(k_hi - k_hi_r) > 1e-9):
            raise ResolutionError(f"base box is not lattice-aligned at level {j}")
        if np.any(k_hi_r - k_lo_r < 1):
            raise ResolutionError(f"level {j} cubes are larger than the base box")
        return k_lo_r.astype(int), (k_hi_r - k_lo_r).astype(int)

    def _level(self, j):
        if j not in self._ranges:
            raise CoverageError(f"level {j} outside window [{self.j_min}, {self.j_max}]")
        return self._ranges[j]

    def index(self, Q):
        """Array index of the cube Q within its level slice."""
        k_lo, counts = self._level(Q.j)
        idx = tuple(int(ki - lo) for ki, lo in zip(Q.k, k_lo))
        if len(idx) != self.n or not all(0 <= i < c for i, c in zip(idx, counts)):
            raise CoverageError(f"cube {Q} lies outside the window")
        return idx

    def cell_index(self, j, X):
        """Flat index within the level-j slice of the cube holding each point of X."""
        k_lo, counts = self._level(j)
        return cell_index(k_lo * 2.0 ** -j, 2.0 ** -j, counts, X)

    def counts_at_level(self, j):
        return self._level(j)[1]

    def batch(self, j=None):
        """The cubes of level j, or of every level, as a batch (j, k) in
        cubes() order: by level, then C order as counts_at_level."""
        levels = self.levels() if j is None else [j]
        ks = [mesh(*[np.arange(a, a + c) for a, c in zip(*self._level(i))]) for i in levels]
        return np.repeat(levels, [len(k) for k in ks]), np.concatenate(ks)

    def cubes_at_level(self, j):
        batch = self.batch(j)
        return [batch_cube(batch, i) for i in range(len(batch[0]))]

    def cubes(self):
        return [Q for j in self.levels() for Q in self.cubes_at_level(j)]

    def levels(self):
        return list(range(self.j_min, self.j_max + 1))

    def num_cubes(self):
        return sum(int(np.prod(self.counts_at_level(j))) for j in self.levels())

    def with_levels(self, j_min, j_max):
        return CubeWindow(self.n, j_min, j_max, self.box)

    def descriptor(self):
        return {
            "n": self.n,
            "j_min": self.j_min,
            "j_max": self.j_max,
            "box_lo": list(self.box.lo),
            "box_hi": list(self.box.hi),
        }

"""Dyadic cube arithmetic: the window, the cube value type, box distance
and the resolution parser.

All cubes live in a square world window subdivided in powers of two, so
every cube of every experiment embeds in one dyadic tree and sidelength
comparisons between cubes are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_DIM = 2
SQRT_N = math.sqrt(N_DIM)
# The one batch size of every chunked pass: at most this many items at once,
# whatever the input's size. An item is an oracle point or a graph edge
# (`qhyper`, `cigar`), a ring probe (`whitney`: EVAL_BUDGET // 20 cubes), a
# cell-box distance (`extension`'s frontier fill), a (point, edge) or (edge,
# edge) pair (`domains`), a band cell of a grid pass (`bmo`, `extension`) or a
# text row, square or grid value (`cli`, `svgout`). A batch's transients take
# about 100 B a point (98 B on disk(1), 130 B on cusp(4) under tracemalloc)
# and 89 B a ring probe, so a 2 MiB cap at 128 B an item gives 16,384. A text
# pass peaks higher: 434 B a row of the 7-column cube table, 529 B an SVG
# square, 73 B a grid-file value.
EVAL_BUDGET = (2 << 20) // 128


@dataclass(frozen=True)
class Window:
    """Square world window [x0, x0+size] x [y0, y0+size]."""

    origin: tuple[float, float]
    size: float

    def __post_init__(self):
        # normalize numpy scalars so equality, hashing and repr stay plain
        object.__setattr__(self, "origin",
                           (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "size", float(self.size))
        if not self.size > 0:
            raise ValueError(f"window size must be positive, got {self.size}")

    def cell_size(self, level: int) -> float:
        return self.size * 2.0 ** (-level)

    def cell_sizes(self, levels: np.ndarray) -> np.ndarray:
        """`cell_size` of each entry of an integer array of levels, bit for bit."""
        top = int(levels.max(initial=0))
        return np.array([self.cell_size(lvl) for lvl in range(top + 1)])[levels]

    def cell_of_point(self, p, level: int) -> tuple[int, int]:
        """Index of the level-`level` cell containing p (clamped to the window)."""
        n = 1 << level
        s = self.cell_size(level)
        i = int(np.floor((p[0] - self.origin[0]) / s))
        j = int(np.floor((p[1] - self.origin[1]) / s))
        return (min(max(i, 0), n - 1), min(max(j, 0), n - 1))

    def contains_point(self, p) -> bool:
        x0, y0 = self.origin
        return x0 <= p[0] <= x0 + self.size and y0 <= p[1] <= y0 + self.size


@dataclass(frozen=True)
class DyadicCube:
    """Closed dyadic cube: level plus integer coordinates in a window."""

    level: int
    coords: tuple[int, int]
    window: Window

    def __post_init__(self):
        n = 1 << self.level
        if self.level < 0:
            raise ValueError("cube level must be >= 0")
        for c in self.coords:
            if not (0 <= c < n):
                raise ValueError(f"coords {self.coords} outside level-{self.level} grid")

    @property
    def side(self) -> float:
        return self.window.cell_size(self.level)

    @property
    def lower(self) -> np.ndarray:
        s = self.side
        return np.array([self.window.origin[0] + self.coords[0] * s,
                         self.window.origin[1] + self.coords[1] * s])

    @property
    def center(self) -> np.ndarray:
        return self.lower + 0.5 * self.side

    def sort_key(self):
        return (self.level, self.coords[0], self.coords[1])


def box_distance(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Euclidean distance between the closed boxes [lo1, hi1] and [lo2, hi2]
    (0 where they touch): per axis the larger of the two one-sided gaps,
    floored at 0, then the hypotenuse. Corners are arrays of shape (..., 2)
    that broadcast against each other; a point is the box with lo == hi."""
    lo1, hi1, lo2, hi2 = (np.asarray(a, dtype=float) for a in (lo1, hi1, lo2, hi2))
    gx = np.maximum(0.0, np.maximum(lo2[..., 0] - hi1[..., 0], lo1[..., 0] - hi2[..., 0]))
    gy = np.maximum(0.0, np.maximum(lo2[..., 1] - hi1[..., 1], lo1[..., 1] - hi2[..., 1]))
    return np.hypot(gx, gy)


def resolution_level(resolution: float) -> int:
    """The k of a resolution 1/2^k; ValueError for any other value."""
    finite = 0 < resolution < math.inf
    level = round(-math.log2(resolution)) if finite else -1
    if level < 0 or abs(math.ldexp(resolution, level) - 1.0) > 1e-12:
        raise ValueError(f"resolution must be a dyadic fraction 1/2^k, got {resolution}")
    return level


def level_cell_centers(window: Window, level: int, ij: np.ndarray) -> np.ndarray:
    """Centers of level-`level` cells with integer coords `ij` of shape (M, 2)."""
    s = window.cell_size(level)
    return np.asarray(window.origin) + (ij + 0.5) * s


def grid_centers(window: Window, level: int, rows: slice = slice(None)) -> np.ndarray:
    """Centers of the level-`level` cells in a range of cell rows (every
    row by default) as an (m n, 2) array in (i, j) order:
    `level_cell_centers` of those rows of the index grid, bit for bit."""
    n = 1 << level
    s = window.cell_size(level)
    i = np.arange(n)[rows]
    centers = np.empty((len(i), n, 2))
    centers[..., 0] = (window.origin[0] + (i + 0.5) * s)[:, None]
    centers[..., 1] = window.origin[1] + (np.arange(n) + 0.5) * s
    return centers.reshape(-1, 2)

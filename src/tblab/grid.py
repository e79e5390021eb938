"""Uniform midpoint grids, sampled functions, cubes, dyadic families, Lp norms.

Sample points are cell centers, so indicators of cubes whose edges align
with cell edges are represented exactly and dyadic tilings are exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .util import csv_table

GENERATION_CAP = 1 << 20
MIN_POINTS = 8              # grid points per axis, at least


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by center and side length."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "side", float(self.side))
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def diam(self) -> float:
        return float(np.sqrt(self.d) * self.side)

    @property
    def volume(self) -> float:
        return self.side ** self.d

    def lo(self) -> np.ndarray:
        return np.asarray(self.center) - self.side / 2.0

    def hi(self) -> np.ndarray:
        return np.asarray(self.center) + self.side / 2.0

    def contains_point(self, p) -> bool:
        """Half-open membership [lo, hi) per axis."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return bool(np.all(p >= self.lo()) and np.all(p < self.hi()))

    def gap_to(self, other: "Cube") -> float:
        """Euclidean distance between the two closed cubes."""
        a = np.maximum(self.lo() - np.asarray(other.hi()), 0.0)
        b = np.maximum(np.asarray(other.lo()) - self.hi(), 0.0)
        return float(np.sqrt(np.sum(np.maximum(a, b) ** 2)))


def cube1(center: float, side: float) -> Cube:
    return Cube((float(center),), side)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-center grid over a box in R^d, d in {1, 2}."""

    box: Cube
    n: int

    def __post_init__(self):
        if self.box.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.box.d}")
        if self.n < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} points per axis, got {self.n}")

    @property
    def d(self) -> int:
        return self.box.d

    @property
    def h(self) -> float:
        return self.box.side / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def point_count(self) -> int:
        return self.n ** self.d

    def axis(self, i: int = 0) -> np.ndarray:
        c = self.box.center[i]
        lo = c - self.box.side / 2.0
        return lo + (np.arange(self.n) + 0.5) * self.h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*map(self.axis, range(self.d)), indexing="ij")

    def index_of(self, point) -> tuple[int, ...]:
        """Index of the grid point equal to `point` (must lie on the grid)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for i in range(self.d):
            ax = self.axis(i)
            j = int(np.argmin(np.abs(ax - p[i])))
            if abs(ax[j] - p[i]) > 1e-9 * max(1.0, self.box.side):
                raise ValueError(f"{tuple(p)} is not a grid point (axis {i})")
            idx.append(j)
        return tuple(idx)

    def nearest_index(self, point) -> tuple[int, ...]:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return tuple(int(np.argmin(np.abs(self.axis(i) - p[i]))) for i in range(self.d))


def make_grid(d: int, box: Cube, n: int) -> Grid:
    """Midpoint-rule grid covering `box` with n points per axis."""
    if d != box.d:
        raise ValueError(f"box dimension {box.d} does not match d={d}")
    return Grid(box=box, n=int(n))


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a grid, optionally carrying the closed form used."""

    grid: Grid
    values: np.ndarray
    rule: object = field(default=None, compare=False)
    name: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError(f"value shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            pt = tuple(self.grid.axis(i)[bad[i]] for i in range(self.grid.d))
            raise ValueError(f"non-finite sample at grid point {pt}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


def cell_spans(g: Grid, centers: np.ndarray, side: float):
    """First index and count per axis, (m, d) each, of the cells centred in each
    half-open cube of the given centres and side (searchsorted on the cell centres)."""
    tol = 1e-12 * g.box.side
    starts = np.empty(centers.shape, dtype=np.intp)
    ends = np.empty(centers.shape, dtype=np.intp)
    for ax in range(g.d):
        starts[:, ax] = np.searchsorted(g.axis(ax), centers[:, ax] - side / 2.0 - tol)
        ends[:, ax] = np.searchsorted(g.axis(ax), centers[:, ax] + side / 2.0 - tol)
    return starts, np.maximum(ends - starts, 0)


def cell_blocks(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (rows, blocks) once per distinct block shape among the (m, d) start
    indices and lengths: the rows of that shape and values[start:start+length]
    per axis for each of them, gathered at once into a (rows, *shape) array."""
    d = values.ndim
    _, first, inverse = np.unique(lengths @ (np.max(lengths) + 1) ** np.arange(d),
                                  return_index=True, return_inverse=True)
    for s, shape in enumerate(lengths[first].tolist()):
        rows = np.nonzero(inverse == s)[0]
        idx = tuple(starts[rows, ax].reshape((-1,) + (1,) * d) +
                    np.arange(L).reshape((1,) + tuple(L if a == ax else 1 for a in range(d)))
                    for ax, L in enumerate(shape))
        yield rows, values[idx]


def sample(rule, grid: Grid, name: str = "", on_nonfinite: str = "error") -> SampledFunction:
    """Evaluate a closed-form rule at all grid points.

    `rule` is vectorized: rule(x) in d=1, rule(x, y) in d=2. With
    on_nonfinite="mask", non-finite samples (isolated singularities hit by
    the lattice) are replaced by 0 instead of raising.
    """
    vals = np.asarray(rule(*grid.meshgrid()), dtype=complex)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        if on_nonfinite == "mask":
            vals = np.where(np.isfinite(vals), vals, 0.0)
        else:
            bad = np.argwhere(~np.isfinite(vals))[0]
            pt = tuple(grid.axis(i)[bad[i]] for i in range(grid.d))
            raise ValueError(f"rule produced non-finite value at {pt}")
    return SampledFunction(grid=grid, values=vals, rule=rule, name=name)


def lp_norm(f: SampledFunction, p) -> float:
    """Midpoint-rule (int |f|^p)^(1/p); exact max over samples for p=inf."""
    a = np.abs(f.values)
    if p == np.inf or p == "inf":
        return float(np.max(a))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    cell = f.grid.h ** f.grid.d
    return float(np.sum(a ** p) * cell) ** (1.0 / p)


@dataclass(frozen=True)
class DyadicFamily:
    """Dyadic generations over a root box: generation k has side root/2^k.

    Only the root and the generation range are stored: a pass reads generation
    k as `centers(k)` and `side(k)`. `generations` (k -> list of `Cube`) and
    `all_cubes()` are read-only views, built on first access in product order
    and kept, so every read returns the same `Cube` objects.
    """

    root: Cube
    k_min: int
    k_max: int

    @cached_property
    def generations(self) -> dict:
        return {k: [Cube(c, self.side(k)) for c in self.centers(k).tolist()]
                for k in range(self.k_min, self.k_max + 1)}

    def all_cubes(self):
        for k in range(self.k_min, self.k_max + 1):
            yield from self.generations[k]

    def side(self, k: int) -> float:
        return self.root.side / (1 << k)

    def axis_centers(self, k: int, ax: int) -> np.ndarray:
        """Centres, (2^k,), of generation k's cubes along axis ax."""
        return self.root.lo()[ax] + (np.arange(1 << k) + 0.5) * self.side(k)

    def centers(self, k: int) -> np.ndarray:
        """Centres, (2^(kd), d), of generation k's cubes in product order."""
        axes = [self.axis_centers(k, ax) for ax in range(self.root.d)]
        return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def dyadic_family(root: Cube, k_min: int, k_max: int) -> DyadicFamily:
    """Exact dyadic tilings of `root` for generations k_min..k_max."""
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    if k_min < 0:
        raise ValueError("k_min must be >= 0")
    total = sum((1 << k) ** root.d for k in range(k_min, k_max + 1))
    if total > GENERATION_CAP:
        raise ValueError(f"family would contain {total} cubes, cap is {GENERATION_CAP}")
    return DyadicFamily(root=root, k_min=k_min, k_max=k_max)


# --- CSV interchange: header x[,y],re,im, lexicographic row order ---

def save_sampled_csv(f: SampledFunction, path) -> None:
    cols = [c.ravel() for c in f.grid.meshgrid()] + [f.values.real.ravel(),
                                                     f.values.imag.ravel()]
    rows = csv_table(list("xy"[:f.grid.d]) + ["re", "im"], zip(*cols))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def load_sampled_csv(path, name: str = "") -> SampledFunction:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("CSV has no header")
    header, body = rows[0], rows[1:]
    d = len(header) - 2
    if d < 1 or header != list("xy"[:d]) + ["re", "im"]:
        raise ValueError(f"unrecognized CSV header {header}")
    if not body:
        raise ValueError("CSV has no data rows")
    data = []
    for i, r in enumerate(body):
        if len(r) != len(header):
            raise ValueError(f"CSV data row {i + 1} has {len(r)} cells, the header "
                             f"{len(header)}")
        data.append([])
        for c, col in zip(r, header):
            try:
                data[-1].append(float(c))
            except ValueError:
                raise ValueError(f"{path}: CSV data row {i + 1}, column {col}: {c!r} is "
                                 f"not a number") from None
    data = np.asarray(data)
    axes = [np.unique(data[:, i]) for i in range(d)]
    n = len(axes[0])
    if any(len(a) != n for a in axes[1:]):
        raise ValueError("CSV grid is not square")
    if n < MIN_POINTS:
        raise ValueError(f"CSV grid has {n} points per axis, need at least {MIN_POINTS}")
    hx = axes[0][1] - axes[0][0]
    if not all(np.allclose(np.diff(a), hx, rtol=0, atol=1e-9 * abs(hx)) for a in axes):
        raise ValueError("grid in CSV is not uniform")
    grid = Grid(box=Cube(tuple((a[0] + a[-1]) / 2.0 for a in axes), n * hx), n=n)
    # row k must name the k-th grid point in x-major order, as save_sampled_csv writes
    want = np.stack([c.ravel() for c in grid.meshgrid()], axis=1)
    k = min(len(data), len(want))
    bad = np.nonzero(np.any(np.abs(data[:k, :d] - want[:k]) > 1e-9 * grid.h, axis=1))[0]
    if len(bad):
        i = bad[0]
        raise ValueError(f"CSV data row {i + 1} is at {tuple(map(float, data[i, :d]))}, not "
                         f"at the grid point {tuple(map(float, want[i]))} of its position "
                         f"in x-major order")
    if len(data) != len(want):
        raise ValueError(f"CSV data row {k + 1}: the {n}^{d} grid has {len(want)} points, "
                         f"the file {len(data)} rows")
    vals = data[:, d] + 1j * data[:, d + 1]
    return SampledFunction(grid=grid, values=vals.reshape(grid.shape), name=name)

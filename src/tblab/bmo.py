"""Mean-oscillation functionals and BMO seminorm estimation over cube families.

The uncountable sup over all cubes is approximated by a dyadic family
together with its shifted copies; a half-shift is included alongside the
thirds so that cubes symmetric about dyadic edges (the witnesses for jump
functions) are present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cube, DyadicFamily, SampledFunction, cell_blocks, cell_spans
from .util import csv_table

MIN_CELLS = 4
SHIFTS = (1.0 / 3.0, 0.5, 2.0 / 3.0)
WEISZFELD_ITERS = 320


def _oscillations(f: SampledFunction, centers: np.ndarray, side: float):
    """Per cube of the given centres and side: (cells, mean oscillation, best-constant
    oscillation, best constant); the last three are NaN under MIN_CELLS cells.

    The cubes with the same cell-block shape are reduced together along axis 1
    of one (cubes, cells) gather. Only cubes with complex samples refine the
    median start one at a time, by _geometric_median.
    """
    starts, lengths = cell_spans(f.grid, centers, side)
    cells = np.prod(lengths, axis=1)
    mo, bo = np.full(len(centers), np.nan), np.full(len(centers), np.nan)
    best = np.full(len(centers), np.nan, dtype=complex)
    for rows, V in cell_blocks(f.values, starts, lengths):
        V = V.reshape(len(rows), -1)
        if V.shape[1] < MIN_CELLS:
            continue
        avg = V.mean(axis=1)
        mo[rows] = np.abs(V - avg[:, None]).mean(axis=1)
        c = np.empty(len(rows), dtype=complex)
        c.real, c.imag = np.median(V.real, axis=1), np.median(V.imag, axis=1)
        bo[rows] = np.abs(V - c[:, None]).mean(axis=1)
        for i in np.nonzero(np.any(V.imag, axis=1))[0]:
            # the median start and the cube average stay candidates
            start, vals = complex(c[i]), V[i]
            c[i] = min((start, _geometric_median(vals, start), complex(avg[i])),
                       key=lambda x: _abs_dev(vals, x))
            bo[rows[i]] = _abs_dev(vals, c[i])
        best[rows] = c
    return cells, mo, bo, best


def _one_cube(f: SampledFunction, Q: Cube):
    cells, mo, bo, best = _oscillations(f, np.asarray([Q.center]), Q.side)
    if cells[0] < MIN_CELLS:
        raise ValueError(
            f"cube (center {Q.center}, side {Q.side}) holds {cells[0]} grid cells; "
            f"need >= {MIN_CELLS}")
    return float(mo[0]), float(bo[0]), complex(best[0])


def mean_oscillation(f: SampledFunction, Q: Cube) -> float:
    """(1/|Q|) int_Q |f - avg_Q f|, midpoint rule over the >= MIN_CELLS cell
    centres in the half-open cube."""
    return _one_cube(f, Q)[0]


def _abs_dev(vals: np.ndarray, c: complex) -> float:
    return float(np.mean(np.abs(vals - c)))


def _geometric_median(vals: np.ndarray, c: complex) -> complex:
    """argmin of c -> mean|vals - c|, from c, by Weiszfeld's iteration.

    At a sample the Vardi-Zhang step is taken, or the sample is returned if
    optimal. Elsewhere a Newton step and the nearest sample compete with the
    Weiszfeld step, which alone crawls where the minimum is flat (between two
    equal clusters) or on a sample. Stops when no candidate lowers the mean.
    """
    dev = _abs_dev(vals, c)
    for _ in range(WEISZFELD_ITERS):
        dist = np.abs(vals - c)
        w, x = 1.0 / dist[dist > 0.0], vals[dist > 0.0]
        u = (x - c) * w                     # unit vectors from c to the samples
        pull, eta = complex(np.sum(u)), vals.size - w.size   # eta samples sit on c
        if eta and abs(pull) <= eta:
            return c
        t = complex(np.dot(w, x) / np.sum(w))
        steps = [t + eta / abs(pull) * (c - t) if eta else t]
        if not eta:
            steps.append(complex(vals[np.argmin(dist)]))
            # the Hessian sum w (I - u u^T) of the mean, as [[a, b], [b, e]]
            a, b, e = np.dot(w, u.imag ** 2), -np.dot(w, u.real * u.imag), np.dot(w, u.real ** 2)
            if a * e > b * b:
                steps.append(c + complex(e * pull.real - b * pull.imag,
                                         a * pull.imag - b * pull.real) / (a * e - b * b))
        devs = [_abs_dev(vals, s) for s in steps]
        if min(devs) >= dev:
            return c
        c, dev = steps[int(np.argmin(devs))], min(devs)
    return c


def best_constant_oscillation(f: SampledFunction, Q: Cube, return_witness: bool = False):
    """inf over constants c of (1/|Q|) int_Q |f - c|.

    For real samples the median is the exact minimiser. For complex ones
    the geometric median is refined from median(Re) + i median(Im); that
    start and the cube average are kept as candidates, so the value never
    exceeds the mean oscillation.
    """
    _, v, best = _one_cube(f, Q)
    if return_witness:
        return v, best
    return v


@dataclass(frozen=True)
class CubeOscillation:
    cube: Cube
    mean_osc: float
    best_const_osc: float

    @property
    def sandwich_ok(self) -> bool:
        # best <= mean <= 2 best, with roundoff slack
        return (self.best_const_osc <= self.mean_osc + 1e-12 and
                self.mean_osc <= 2.0 * self.best_const_osc + 1e-12)


@dataclass(frozen=True)
class OscillationReport:
    """The kept cubes of a bmo_seminorm scan as columns, generation by generation
    in scan order: centres (m, d), sides, mean and best-constant oscillations.

    `sup_*` are the column maxima and `witness_*` the cubes at their first
    argmax, the first maximum in scan order. `witness_*` and `entries`, one
    CubeOscillation per kept cube, are read-only views built on each access.
    """

    centers: np.ndarray
    sides: np.ndarray
    mean_osc: np.ndarray
    best_const_osc: np.ndarray
    n_skipped: int

    @property
    def sup_mean(self) -> float:
        return float(np.max(self.mean_osc))

    @property
    def sup_best(self) -> float:
        return float(np.max(self.best_const_osc))

    @property
    def witness_mean(self) -> Cube:
        i = np.argmax(self.mean_osc)
        return Cube(self.centers[i], self.sides[i])

    @property
    def witness_best(self) -> Cube:
        i = np.argmax(self.best_const_osc)
        return Cube(self.centers[i], self.sides[i])

    @property
    def entries(self) -> list:
        return [CubeOscillation(cube=Cube(c, s), mean_osc=a, best_const_osc=b)
                for c, s, a, b in zip(self.centers.tolist(), self.sides.tolist(),
                                      self.mean_osc.tolist(), self.best_const_osc.tolist())]

    @property
    def sandwich_ok(self) -> bool:
        # CubeOscillation.sandwich_ok on every kept cube
        mo, bo = self.mean_osc, self.best_const_osc
        return bool(np.all((bo <= mo + 1e-12) & (mo <= 2.0 * bo + 1e-12)))

    def csv_rows(self):
        return csv_table(["cube_center", "cube_side", "mean_osc", "best_const_osc"],
                         zip(map(tuple, self.centers.tolist()), self.sides.tolist(),
                             self.mean_osc.tolist(), self.best_const_osc.tolist()))


def _generation_centers(family: DyadicFamily, k: int) -> np.ndarray:
    """Centres, (m, d), of generation k's dyadic cubes, then of each per-axis
    shifted copy of them that stays in the root box."""
    lo, hi, d = family.root.lo(), family.root.hi(), family.root.d
    if d == 1:
        shift_vecs = [(s,) for s in SHIFTS]
    else:
        shift_vecs = [(s, 0.0) for s in SHIFTS] + [(0.0, s) for s in SHIFTS] + \
                     [(s, t) for s in SHIFTS for t in SHIFTS]
    side = family.side(k)
    base = family.centers(k)
    out = [base]
    for vec in shift_vecs:
        c = base + np.asarray(vec) * side
        out.append(c[np.all((c - side / 2.0 >= lo - 1e-12) &
                            (c + side / 2.0 <= hi + 1e-12), axis=1)])
    return np.concatenate(out)


def bmo_seminorm(f: SampledFunction, family: DyadicFamily) -> OscillationReport:
    """sup of the oscillation functionals over dyadic + shifted dyadic cubes.

    Each generation, shifted copies included, is one _oscillations pass.
    Cubes too small for the grid (< 4 cells) are skipped and counted.
    """
    cols, skipped = [], 0
    for k in range(family.k_min, family.k_max + 1):
        side = family.side(k)
        centers = _generation_centers(family, k)
        cells, mo, bo, _ = _oscillations(f, centers, side)
        kept = cells >= MIN_CELLS
        skipped += int(np.count_nonzero(~kept))
        cols.append((centers[kept], np.full(len(mo[kept]), side), mo[kept], bo[kept]))
    centers, sides, mo, bo = (np.concatenate(c) for c in zip(*cols))
    if not len(sides):
        raise ValueError("no cube in the family holds enough grid cells")
    return OscillationReport(centers=centers, sides=sides, mean_osc=mo, best_const_osc=bo,
                             n_skipped=skipped)

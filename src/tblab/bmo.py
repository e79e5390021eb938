"""Mean-oscillation functionals and BMO seminorm estimation over cube families.

The uncountable sup over all cubes is approximated by a dyadic family
together with its shifted copies; a half-shift is included alongside the
thirds so that cubes symmetric about dyadic edges (the witnesses for jump
functions) are present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cube, DyadicFamily, SampledFunction
from .util import csv_table

MIN_CELLS = 4
SHIFTS = (1.0 / 3.0, 0.5, 2.0 / 3.0)
WEISZFELD_ITERS = 320


def _cells_in_cube(f: SampledFunction, Q: Cube) -> np.ndarray:
    """Flat values of the cells centred in the half-open cube (>= MIN_CELLS)."""
    g = f.grid
    sel = []
    for ax in range(g.d):
        lo = Q.center[ax] - Q.side / 2.0
        hi = Q.center[ax] + Q.side / 2.0
        i0, i1 = np.searchsorted(g.axis(ax), (lo - 1e-12 * g.box.side,
                                              hi - 1e-12 * g.box.side))
        sel.append(slice(i0, max(i0, i1)))
    vals = f.values[tuple(sel)].ravel()
    if vals.size < MIN_CELLS:
        raise ValueError(
            f"cube (center {Q.center}, side {Q.side}) holds {vals.size} grid cells; "
            f"need >= {MIN_CELLS}")
    return vals


def mean_oscillation(f: SampledFunction, Q: Cube) -> float:
    """(1/|Q|) int_Q |f - avg_Q f|, midpoint rule over cell centers."""
    vals = _cells_in_cube(f, Q)
    avg = np.mean(vals)
    return float(np.mean(np.abs(vals - avg)))


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
    vals = _cells_in_cube(f, Q)
    best = complex(np.median(vals.real), np.median(vals.imag))
    if np.any(vals.imag):
        best = min((best, _geometric_median(vals, best), complex(np.mean(vals))),
                   key=lambda c: _abs_dev(vals, c))
    v = _abs_dev(vals, best)
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
    entries: list
    sup_mean: float
    sup_best: float
    witness_mean: Cube
    witness_best: Cube
    n_skipped: int

    @property
    def sandwich_ok(self) -> bool:
        return all(e.sandwich_ok for e in self.entries)

    def csv_rows(self):
        return csv_table(["cube_center", "cube_side", "mean_osc", "best_const_osc"],
                         ((e.cube.center, e.cube.side, e.mean_osc, e.best_const_osc)
                          for e in self.entries))


def _shifted_cubes(family: DyadicFamily):
    """Dyadic cubes plus per-axis shifted copies that stay in the root box."""
    lo, hi, d = family.root.lo(), family.root.hi(), family.root.d
    if d == 1:
        shift_vecs = [(s,) for s in SHIFTS]
    else:
        shift_vecs = [(s, 0.0) for s in SHIFTS] + [(0.0, s) for s in SHIFTS] + \
                     [(s, t) for s in SHIFTS for t in SHIFTS]
    out = []
    for k in range(family.k_min, family.k_max + 1):
        side = family.side(k)
        base = family.generations[k]
        out.extend(base)
        for vec in shift_vecs:
            for Q in base:
                c = tuple(Q.center[i] + vec[i] * side for i in range(d))
                if all(c[i] - side / 2.0 >= lo[i] - 1e-12 and
                       c[i] + side / 2.0 <= hi[i] + 1e-12 for i in range(d)):
                    out.append(Cube(c, side))
    return out


def bmo_seminorm(f: SampledFunction, family: DyadicFamily) -> OscillationReport:
    """sup of the oscillation functionals over dyadic + shifted dyadic cubes.

    Cubes too small for the grid (< 4 cells) are skipped and counted.
    """
    cubes = _shifted_cubes(family)
    if not cubes:
        raise ValueError("empty cube family")
    entries = []
    skipped = 0
    for Q in cubes:
        try:
            mo = mean_oscillation(f, Q)
            bo = best_constant_oscillation(f, Q)
        except ValueError:
            skipped += 1
            continue
        entries.append(CubeOscillation(cube=Q, mean_osc=mo, best_const_osc=bo))
    if not entries:
        raise ValueError("no cube in the family holds enough grid cells")
    e_mean = max(entries, key=lambda e: e.mean_osc)
    e_best = max(entries, key=lambda e: e.best_const_osc)
    return OscillationReport(entries=entries,
                             sup_mean=e_mean.mean_osc, sup_best=e_best.best_const_osc,
                             witness_mean=e_mean.cube, witness_best=e_best.cube,
                             n_skipped=skipped)

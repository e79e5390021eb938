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
from .util import fmt_float

MIN_CELLS = 4
SHIFTS = (1.0 / 3.0, 0.5, 2.0 / 3.0)


def _cells_in_cube(f: SampledFunction, Q: Cube) -> np.ndarray:
    """Flat value array of cells whose centers lie in the half-open cube."""
    g = f.grid
    sel = None
    for ax in range(g.d):
        a = g.axis(ax)
        lo = Q.center[ax] - Q.side / 2.0
        hi = Q.center[ax] + Q.side / 2.0
        m = (a >= lo - 1e-12 * g.box.side) & (a < hi - 1e-12 * g.box.side)
        sel = m if sel is None else np.logical_and.outer(sel, m)
    return f.values[sel]


def mean_oscillation(f: SampledFunction, Q: Cube) -> float:
    """(1/|Q|) int_Q |f - avg_Q f|, midpoint rule over cell centers."""
    vals = _cells_in_cube(f, Q)
    if vals.size < MIN_CELLS:
        raise ValueError(
            f"cube (center {Q.center}, side {Q.side}) holds {vals.size} grid cells; "
            f"need >= {MIN_CELLS}")
    avg = np.mean(vals)
    return float(np.mean(np.abs(vals - avg)))


def _abs_dev(vals: np.ndarray, c: complex) -> float:
    return float(np.mean(np.abs(vals - c)))


def _ternary_refine(vals: np.ndarray, c0: complex, span: float, rounds: int = 40) -> complex:
    """Coordinate ternary search on c -> mean|vals - c| around c0."""
    c = c0
    for axis in (1.0, 1.0j, 1.0, 1.0j):
        lo, hi = -span, span
        for _ in range(rounds):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if _abs_dev(vals, c + axis * m1) <= _abs_dev(vals, c + axis * m2):
                hi = m2
            else:
                lo = m1
        c = c + axis * (lo + hi) / 2.0
    return c


def best_constant_oscillation(f: SampledFunction, Q: Cube, return_witness: bool = False):
    """inf over constants c of (1/|Q|) int_Q |f - c|.

    Initialized at median(Re) + i median(Im) (exact for real samples),
    refined by ternary search in each of Re c, Im c; the cube average is
    kept as a fallback candidate so the value never exceeds the mean
    oscillation.
    """
    vals = _cells_in_cube(f, Q)
    if vals.size < MIN_CELLS:
        raise ValueError(
            f"cube (center {Q.center}, side {Q.side}) holds {vals.size} grid cells; "
            f"need >= {MIN_CELLS}")
    med = complex(np.median(vals.real), np.median(vals.imag))
    span = float(np.max(np.abs(vals - med))) + 1e-30
    cand = [med, _ternary_refine(vals, med, span)]
    avg = complex(np.mean(vals))
    cand.append(avg)
    best = min(cand, key=lambda c: _abs_dev(vals, c))
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
        rows = [["cube_center", "cube_side", "mean_osc", "best_const_osc"]]
        for e in self.entries:
            rows.append([";".join(fmt_float(c) for c in e.cube.center),
                         fmt_float(e.cube.side),
                         fmt_float(e.mean_osc), fmt_float(e.best_const_osc)])
        return rows


def _shifted_cubes(family: DyadicFamily, shifts=SHIFTS):
    """Dyadic cubes plus per-axis shifted copies that stay in the root box."""
    root = family.root
    lo = root.lo()
    hi = root.hi()
    d = root.d
    out = []
    for k in range(family.k_min, family.k_max + 1):
        side = family.side(k)
        base = family.generations[k]
        out.extend(base)
        shift_vecs = []
        if d == 1:
            shift_vecs = [(s,) for s in shifts]
        else:
            shift_vecs = [(s, 0.0) for s in shifts] + [(0.0, s) for s in shifts] + \
                         [(s, t) for s in shifts for t in shifts]
        for vec in shift_vecs:
            for Q in base:
                c = tuple(Q.center[i] + vec[i] * side for i in range(d))
                if all(c[i] - side / 2.0 >= lo[i] - 1e-12 and
                       c[i] + side / 2.0 <= hi[i] + 1e-12 for i in range(d)):
                    out.append(Cube(c, side))
    return out


def bmo_seminorm(f: SampledFunction, family: DyadicFamily,
                 shifts=SHIFTS) -> OscillationReport:
    """sup of the oscillation functionals over dyadic + shifted dyadic cubes.

    Cubes too small for the grid (< 4 cells) are skipped and counted.
    """
    cubes = _shifted_cubes(family, shifts)
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

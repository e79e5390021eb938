"""Operator-level experiments: bump testing conditions, weak boundedness,
direct bounds, uniform-BMO sweeps, far-field constancy, decompositions,
and the log-log exponent fits that turn "<= C R^q" into a verdict.

Scaling sweeps run per-row on scale-matched grids by default (n fixed,
box = box_cfg * R) so every row has the same relative resolution and the
same support margin; kernels with an intrinsic scale (the truncated
commutator) and the designed-failure control are measured on a fixed grid
instead (their KernelModel carries grid_mode="fixed").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import bumps
from .bmo import bmo_seminorm
from .grid import Cube, Grid, SampledFunction, cube1, dyadic_family, lp_norm, sample
from .kernels import KernelModel, transpose_kernel
from .quadrature import Plan, PvPolicy, _triple_pairing, apply_linear_field, pairing, plan
from .util import csv_table

DEFAULT_SLOPE_TOL = 0.07
DEFAULT_UNIFORMITY = 2.0
LINEAR_SCALES = tuple(2.0 ** k for k in range(-3, 4))
BILINEAR_SCALES = tuple(2.0 ** k for k in range(-2, 3))
CENTER_FRACTIONS = (0.0, 0.125, -0.125)   # in units of the box side
DIRECT_BOUND_TOL = 0.03                   # relative slack of the direct bound
DECOMP_DEV_CAP = 1.0                      # common cap of the decomposition pieces
PASSING = frozenset({"PASS", "PASS-degenerate"})  # the verdicts that pass


# --- b-functions -----------------------------------------------------------

@dataclass(frozen=True)
class BFunc:
    """Closed-form multiplier b, resamplable on any row grid."""
    name: str
    rule: object                 # vectorized callable or None (constant one)
    certificate: object = None   # optional ParaAccretivityCertificate

    def sampled(self, grid: Grid) -> SampledFunction:
        if self.rule is None:
            return sample(lambda *cs: np.ones_like(np.asarray(cs[0], dtype=float), dtype=complex),
                          grid, name=self.name)
        return sample(self.rule, grid, name=self.name)

    def with_certificate(self, cert) -> "BFunc":
        return replace(self, certificate=cert)


def builtin_b(spec: str) -> BFunc:
    """Builtins: one | accretive-lipschitz(lam) | exp-ix | sign-sin."""
    s = spec.strip()
    if s == "one":
        return BFunc(name="one", rule=None)
    if s.startswith("accretive-lipschitz"):
        lam = 0.3
        if "(" in s:
            lam = float(s[s.index("(") + 1:s.rindex(")")])
        def rule(x, _l=lam):
            return 1.0 + 1j * _l * np.tanh(np.asarray(x, dtype=float))
        return BFunc(name=f"accretive-lipschitz({lam})", rule=rule)
    if s == "exp-ix":
        return BFunc(name="exp-ix", rule=lambda x: np.exp(1j * np.asarray(x, dtype=float)))
    if s == "sign-sin":
        return BFunc(name="sign-sin",
                     rule=lambda x: np.sign(np.sin(np.asarray(x, dtype=float))) + 0.0j)
    raise ValueError(f"unknown builtin b-function {spec!r}")


B_ONE = builtin_b("one")


# --- sweep configuration ---------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    n: int = 512
    box_side: float = 16.0

    def row_grid(self, mode: str, R: float) -> Grid:
        side = self.box_side * R if mode == "scaled" else self.box_side
        return Grid(box=cube1(0.0, side), n=self.n)


# default grids and cubes of the experiments that do not run on GridSpec()
BILINEAR_GRID = GridSpec(n=128, box_side=8.0)
BMO_SWEEP_GRID = GridSpec(n=512, box_side=32.0)
FAR_FIELD_GRID = GridSpec(n=1024, box_side=64.0)
DECOMP_GRID = GridSpec(n=512, box_side=64.0)
FAR_FIELD_CUBE = Cube((0.0,), 0.25)
DECOMP_CUBE = Cube((0.0,), 0.5)


@dataclass(frozen=True)
class SweepRow:
    section: str
    center: float
    R: float
    value: float
    pv_flagged: bool = False
    margin_flagged: bool = False


@dataclass(frozen=True)
class GroupFit:
    section: str
    center: float
    slope: float | None
    intercept: float | None
    constant: float
    unif: float
    n_rows: int
    n_zero: int
    target: float
    slope_tol: float
    uniformity_factor: float

    @property
    def degenerate(self) -> bool:
        return self.slope is None

    @property
    def passed(self) -> bool:
        if self.degenerate:
            return True
        return (abs(self.slope - self.target) <= self.slope_tol
                and self.unif <= self.uniformity_factor)


def exponent_fit(pairs, target: float, slope_tol: float = DEFAULT_SLOPE_TOL,
                 uniformity_factor: float = DEFAULT_UNIFORMITY,
                 section: str = "", center: float = 0.0) -> GroupFit:
    """OLS on (log2 R, log2 value); constant = max value / R^target.

    Zero rows are excluded and counted; an all-zero group is PASS-degenerate.
    """
    pairs = list(pairs)
    if len(pairs) < 5:
        raise ValueError(f"need >= 5 rows for a fit, got {len(pairs)}")
    Rs = np.asarray([p[0] for p in pairs], dtype=float)
    vals = np.asarray([p[1] for p in pairs], dtype=float)
    tiny = 1e-14 * max(1.0, float(np.max(vals)) if len(vals) else 1.0)
    nz = vals > tiny
    slope = intercept = None
    constant, unif = 0.0, 1.0
    if np.sum(nz) >= 2:
        lr = np.log2(Rs[nz])
        lv = np.log2(vals[nz])
        A = np.vstack([lr, np.ones_like(lr)]).T
        coef, *_ = np.linalg.lstsq(A, lv, rcond=None)
        consts = vals[nz] / Rs[nz] ** target
        slope, intercept = float(coef[0]), float(coef[1])
        constant, unif = float(np.max(consts)), float(np.max(consts) / np.min(consts))
    return GroupFit(section=section, center=center, slope=slope, intercept=intercept,
                    constant=constant, unif=unif, n_rows=len(pairs),
                    n_zero=int(np.sum(~nz)), target=target, slope_tol=slope_tol,
                    uniformity_factor=uniformity_factor)


@dataclass(frozen=True)
class ScalingReport:
    experiment: str
    kernel: str
    b_names: tuple
    M: int
    target: float
    rows: list
    fits: list

    @property
    def verdict(self) -> str:
        if not self.fits:
            return "FAIL"                    # no group had enough rows to test
        if all(f.degenerate for f in self.fits):
            return "PASS-degenerate"
        return "PASS" if all(f.passed for f in self.fits) else "FAIL"

    @property
    def slope(self) -> float | None:
        ss = [f.slope for f in self.fits if not f.degenerate]
        return float(np.mean(ss)) if ss else None

    @property
    def constant(self) -> float:
        return max((f.constant for f in self.fits), default=0.0)

    def fit_for(self, section: str = "", center: float | None = None) -> GroupFit:
        for f in self.fits:
            if f.section == section and (center is None or f.center == center):
                return f
        raise KeyError((section, center))

    @property
    def file(self) -> str:
        return f"{self.experiment}.csv"

    @property
    def summary(self) -> str:
        slope = "n/a" if self.slope is None else f"{self.slope:.4f}"
        constant = "" if self.experiment == "wbp" else f" constant={self.constant:.6g}"
        return f"{self.experiment} [{self.kernel}] slope={slope}{constant} verdict: {self.verdict}"

    def csv_rows(self):
        head = ["experiment", "kernel", "b0", "b1", "b2", "M", "section", "x0", "R",
                "value", "target_exp", "fitted_slope", "constant", "pv_flag",
                "margin_flag", "verdict"]
        b0, b1, b2 = (tuple(self.b_names) + ("", "", ""))[:3]
        slope, constant, verdict = self.slope, self.constant, self.verdict
        return csv_table(head, ((self.experiment, self.kernel, b0, b1, b2, self.M,
                                 r.section, r.center, r.R, r.value, self.target, slope,
                                 constant, r.pv_flagged, r.margin_flagged, verdict)
                                for r in self.rows))


def _bump_field(grid: Grid, M: int, x0: float, R: float) -> SampledFunction:
    return bumps.BumpRule("standard-mollifier", bumps.c_norm(M, 1), (x0,), R).sample(
        grid, f"phi[{x0},{R}]")


def _plateau(grid: Grid, x0: float, R: float) -> np.ndarray:
    """The plateau cutoff phi^{x0,R} on the grid, unchecked: phi_Q (radius 6 diam Q)
    may cross a box that far_field_constancy accepts (8Q inside the box)."""
    return bumps.BumpRule("plateau", 1.0, (x0,), R)(grid.axis(0)).astype(complex)


def _weighted(b: SampledFunction, *factors) -> SampledFunction:
    """b times the factor arrays, multiplied left to right, on b's grid."""
    values = b.values
    for f in factors:
        values = values * f
    return SampledFunction(grid=b.grid, values=values)


def _escapes(grid: Grid, x0: float, R: float) -> bool:
    return abs(x0) + R > grid.box.side / 2.0 + 1e-12


def _margin_flag(grid: Grid, x0: float, R: float) -> bool:
    return abs(x0) + R > 0.9 * grid.box.side / 2.0


def _l2(fr) -> float:
    return lp_norm(fr.field, 2)


def _check_scales(scales) -> tuple:
    """The scales as a tuple; an empty list or a scale that is not positive and
    finite is rejected before any computation."""
    scales = tuple(scales)
    if not scales or not all(np.isfinite(R) and R > 0 for R in scales):
        raise ValueError(f"scales must be positive and finite, at least one; got {scales}")
    return scales


def _check_limits(slope_tol: float = 0.0, uniformity_factor: float = 1.0,
                  norm: float = 1.0) -> None:
    """Reject, before any computation, a slope tolerance below 0, a uniformity
    factor below 1 (no max/min is below 1, so no sweep could pass) and a norm
    that is not positive and finite."""
    if not slope_tol >= 0:
        raise ValueError(f"slope_tol must be >= 0, got {slope_tol}")
    if not uniformity_factor >= 1:
        raise ValueError(f"uniformity_factor must be >= 1, got {uniformity_factor}")
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"the operator norm must be positive and finite, got {norm}")


def _sweep(row, kernels, grid_of, groups, scales, policy: PvPolicy, reduce,
           points=None):
    """The shape of every sweep: row jobs, their plans, their rows, a reducer.

    The jobs (group, R) of groups x scales run serially, job (group, R) on the
    row grid grid_of(group, R). Each distinct row grid g, in order of first use,
    gets one plan per kernel of `kernels` (under policy, at the grid indices
    points, every point when None); row(g, plans, group, R) then runs for every
    job on g, and g's plans are dropped before the next grid. A row returns what
    the reducer reads, or None when its support escapes the grid; escaped rows
    are dropped, and no group or a group left with no row is an error. A group
    is a (section, center) pair. reduce gets the (group, R, row) triples kept,
    group-major, and returns the sweep's report.
    """
    scales = _check_scales(scales)
    if not groups:
        raise ValueError("a sweep needs at least one group of rows, got none")
    jobs = [(group, R) for group in groups for R in scales]
    grids = [grid_of(*job) for job in jobs]
    done = {}
    for g in dict.fromkeys(grids):
        plans = [plan(ker, g, policy, points) for ker in kernels]
        done.update((i, row(g, plans, *jobs[i])) for i, gi in enumerate(grids) if gi == g)
        del plans                        # drop this grid's plans before the next
    kept = [(group, R, done[i]) for i, (group, R) in enumerate(jobs) if done[i] is not None]
    for section, center in groups:
        if all(group != (section, center) for group, _, _ in kept):
            raise ValueError(f"every row of section {section!r} at centre {center:g} "
                             f"escapes its grid")
    return reduce(kept)


def _fit_reducer(names, b_names, M: int, target: float, slope_tol: float,
                 uniformity_factor: float):
    """The reducer of the testing conditions: a row is a (value, pv flag) pair
    per (experiment, kernel name) pair of names and its margin flag; each name
    gets a ScalingReport, and each group with at least 5 of its rows a fit
    against R^target."""
    _check_limits(slope_tol, uniformity_factor)

    def reduce(kept) -> list:
        reports = []
        for pos, (experiment, kernel) in enumerate(names):
            rows = [SweepRow(group[0], group[1], R, *values[pos], margin)
                    for group, R, (values, margin) in kept]
            fits = []
            for section, center in dict.fromkeys(group for group, _, _ in kept):
                sel = [(r.R, r.value) for r in rows
                       if (r.section, r.center) == (section, center)]
                if len(sel) >= 5:
                    fits.append(exponent_fit(sel, target, slope_tol, uniformity_factor,
                                             section=section, center=center))
            reports.append(ScalingReport(experiment=experiment, kernel=kernel,
                                         b_names=b_names, M=M, target=target,
                                         rows=rows, fits=fits))
        return reports
    return reduce


def _spread(vals) -> float:
    """max / min of the values; inf when the least is not positive."""
    return max(vals) / min(vals) if min(vals) > 0 else float("inf")


def _uniformity_verdict(vals, factor: float) -> str:
    """PASS-degenerate when every value is zero, else PASS iff max/min <= factor."""
    if max(vals) == 0:
        return "PASS-degenerate"
    return "PASS" if _spread(vals) <= factor else "FAIL"


@dataclass(frozen=True)
class TableReport:
    """A table with a verdict: the CSV file it is written to, its column names,
    its rows (one tuple of values in column order each), its verdict and its
    lines of summary.txt (one for a sweep)."""
    file: str
    columns: tuple
    rows: list
    verdict: str
    summary: str

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def spread(self, name: str) -> float:
        """max / min of the column; inf when its least value is not positive."""
        return _spread(self.column(name))

    def csv_rows(self):
        return csv_table(self.columns, self.rows)


def _table_reducer(file: str, columns, verdict, head):
    """A reducer to one TableReport with the columns R, *columns: a row is its
    values after R; verdict(rows) reduces the rows, and the summary line is
    head(rows) followed by the verdict."""
    def reduce(kept) -> TableReport:
        rows = [(R, *values) for _, R, values in kept]
        v = verdict(rows)
        return TableReport(file, ("R", *columns), rows, v, f"{head(rows)} verdict: {v}")
    return reduce


def _uniformity_reducer(file: str, columns, factor: float, head):
    """The table reducer whose verdict is the uniformity of its first column
    after R within factor; head gets that column's values."""
    _check_limits(uniformity_factor=factor)
    return _table_reducer(file, columns,
                          lambda rows: _uniformity_verdict([r[1] for r in rows], factor),
                          lambda rows: head([r[1] for r in rows]))


def _bound_reducer(file: str, columns, ok, head: str):
    """The table reducer that passes iff ok(*row) holds for every row."""
    return _table_reducer(file, columns,
                          lambda rows: "PASS" if all(ok(*r) for r in rows) else "FAIL",
                          lambda rows: head)


# --- Stein testing conditions ----------------------------------------------

def _stein_sweep(K: KernelModel, b0: BFunc, b1: BFunc, experiments, reduce, M: int,
                 scales, center_fracs, grid: GridSpec, policy: PvPolicy, slope_tol: float,
                 uniformity_factor: float) -> list:
    """The linear testing conditions on the plans of T and T*.

    The bump sits at center fraction x box side; reduce(T(b1 phi), T*(b0 phi))
    lists the (value, pv flag) of each report named in experiments.
    """
    if K.arity != "linear":
        raise ValueError("needs a linear kernel")
    Kt = transpose_kernel(K)

    def row(g, plans, group, R):
        x0 = group[1] * g.box.side
        if _escapes(g, x0, R):
            return None                      # support escapes a fixed grid
        phi = _bump_field(g, M, x0, R).values
        T, Tt = plans
        return (reduce(T(_weighted(b1.sampled(g), phi)), Tt(_weighted(b0.sampled(g), phi))),
                _margin_flag(g, x0, R))

    return _sweep(row, (K, Kt), lambda group, R: grid.row_grid(K.grid_mode, R),
                  [("", frac) for frac in center_fracs], scales, policy,
                  _fit_reducer(list(zip(experiments, (K.name, Kt.name))),
                               (b0.name, b1.name), M, K.d / 2.0, slope_tol,
                               uniformity_factor))


def stein_t1_test(K: KernelModel, M: int = 2,
                  scales=LINEAR_SCALES, center_fracs=CENTER_FRACTIONS,
                  grid: GridSpec = GridSpec(), policy: PvPolicy = PvPolicy(),
                  slope_tol: float = DEFAULT_SLOPE_TOL,
                  uniformity_factor: float = DEFAULT_UNIFORMITY) -> ScalingReport:
    """||T(phi^{x0,R})||_2 + ||T*(phi^{x0,R})||_2 against the target R^(d/2)."""
    return _stein_sweep(K, B_ONE, B_ONE, ["stein-t1"], lambda fr1, fr2: [
        (_l2(fr1) + _l2(fr2), fr1.n_flagged > 0 or fr2.n_flagged > 0)], M, scales,
        center_fracs, grid, policy, slope_tol, uniformity_factor)[0]


@dataclass(frozen=True)
class TbTestResult:
    on_b1: ScalingReport          # T tested against b1-weighted bumps
    transpose_on_b0: ScalingReport

    @property
    def verdict(self) -> str:
        vs = {self.on_b1.verdict, self.transpose_on_b0.verdict}
        return "PASS" if vs <= PASSING else "FAIL"


def stein_tb_test(K: KernelModel, b0: BFunc, b1: BFunc, M: int = 2,
                  scales=LINEAR_SCALES, center_fracs=CENTER_FRACTIONS,
                  grid: GridSpec = GridSpec(), policy: PvPolicy = PvPolicy(),
                  slope_tol: float = DEFAULT_SLOPE_TOL,
                  uniformity_factor: float = DEFAULT_UNIFORMITY) -> TbTestResult:
    """Testing conditions on b1 (for T) and b0 (for T*), fitted to d/2 per center."""
    for b in (b0, b1):
        if b.certificate is None and b.name != "one":
            warnings.warn(f"b-function {b.name!r} carries no para-accretivity "
                          f"certificate", stacklevel=2)
    return TbTestResult(*_stein_sweep(
        K, b0, b1, ["stein-tb-on-b1", "stein-tb-transpose"], lambda fr1, fr2: [
            (_l2(fr), fr.n_flagged > 0) for fr in (fr1, fr2)], M, scales, center_fracs,
        grid, policy, slope_tol, uniformity_factor))


@dataclass(frozen=True)
class BilinearTbResult:
    direct: ScalingReport
    transpose1: ScalingReport
    transpose2: ScalingReport

    @property
    def verdict(self) -> str:
        vs = {self.direct.verdict, self.transpose1.verdict, self.transpose2.verdict}
        return "PASS" if vs <= PASSING else "FAIL"

    @property
    def reports(self):
        return (self.direct, self.transpose1, self.transpose2)


def stein_bilinear_tb_test(K: KernelModel, b0: BFunc, b1: BFunc, b2: BFunc,
                           M: int = 2, scales=BILINEAR_SCALES,
                           grid: GridSpec = BILINEAR_GRID,
                           policy: PvPolicy = PvPolicy(),
                           slope_tol: float = DEFAULT_SLOPE_TOL,
                           uniformity_factor: float = DEFAULT_UNIFORMITY) -> BilinearTbResult:
    """The three bilinear testing conditions, equal and offset centers."""
    if K.arity != "bilinear":
        raise ValueError("needs a bilinear kernel")
    K1 = transpose_kernel(K, 1)
    K2 = transpose_kernel(K, 2)

    def row(g, plans, group, R):
        xa, xb = -group[1] * R / 2.0, group[1] * R / 2.0
        if _escapes(g, max(abs(xa), abs(xb)), R):
            return None
        pha = _bump_field(g, M, xa, R).values
        phb = _bump_field(g, M, xb, R).values
        s0, s1, s2 = (b.sampled(g) for b in (b0, b1, b2))
        w1a, w2b = _weighted(s1, pha), _weighted(s2, phb)
        args = ((w1a, w2b), (_weighted(s0, pha), w2b), (w1a, _weighted(s0, phb)))
        frs = [T(*fs) for T, fs in zip(plans, args)]
        return ([(_l2(fr), fr.n_flagged > 0) for fr in frs],
                _margin_flag(g, max(abs(xa), abs(xb)), R))

    names = [("bilinear-tb-direct", K.name), ("bilinear-tb-transpose1", K1.name),
             ("bilinear-tb-transpose2", K2.name)]
    return BilinearTbResult(*_sweep(row, (K, K1, K2),
                                    lambda group, R: grid.row_grid(K.grid_mode, R),
                                    [("equal", 0.0), ("offset", 1.0)], scales, policy,
                                    _fit_reducer(names, (b0.name, b1.name, b2.name), M,
                                                 K.d / 2.0, slope_tol, uniformity_factor)))


def weak_boundedness_test(K: KernelModel, b0: BFunc = B_ONE, b1: BFunc = B_ONE,
                          b2: BFunc = B_ONE, M: int = 2, scales=None,
                          offsets=(0.0, 1.0, 4.0),
                          grid: GridSpec | None = None, policy: PvPolicy = PvPolicy(),
                          slope_tol: float = DEFAULT_SLOPE_TOL,
                          uniformity_factor: float = DEFAULT_UNIFORMITY) -> ScalingReport:
    """|<M_b0 T (M_b1 phi1), phi2>| (or the bilinear triple) against R^d.

    Equal-center and offset-center rows are separate sections; the remark
    that equal centers suffice is recorded as a comparison, not assumed.
    The scales and grid default to BILINEAR_SCALES and BILINEAR_GRID for a
    bilinear kernel, to LINEAR_SCALES and GridSpec() otherwise. A row grid is
    widened to hold the offset bumps; a row whose bumps still escape it (a
    fixed grid) is dropped.
    """
    bil = K.arity == "bilinear"
    if scales is None:
        scales = BILINEAR_SCALES if bil else LINEAR_SCALES
    if grid is None:
        grid = BILINEAR_GRID if bil else GridSpec()

    def grid_of(group, R):
        g, x2 = grid.row_grid(K.grid_mode, R), group[1] * R
        if abs(x2) + R > g.box.side / 2.0:     # keep the pairing bump inside
            g = Grid(box=cube1(0.0, g.box.side + 2 * abs(x2)), n=g.n)
        return g

    def row(g, plans, group, R):
        x2 = group[1] * R
        if _escapes(g, x2, R):
            return None                      # the bumps at 0 and +-x2 escape a fixed grid
        ph1 = _bump_field(g, M, 0.0, R)
        ph2 = _bump_field(g, M, x2, R)
        if bil:
            val, n_flagged = _triple_pairing(K, _bump_field(g, M, -x2, R), ph1, ph2,
                                             b0.sampled(g), b1.sampled(g), b2.sampled(g),
                                             policy, *plans)
        else:
            fr = plans[0](_weighted(b1.sampled(g), ph1.values))
            val = pairing(fr.field, _weighted(b0.sampled(g), ph2.values))
            n_flagged = fr.n_flagged
        return [(abs(val), n_flagged > 0)], _margin_flag(g, x2, R)

    names = (b0.name, b1.name, b2.name) if bil else (b0.name, b1.name)
    # a bilinear kernel without a lattice profile sums dense points per row
    return _sweep(row, () if bil and K.lattice is None else (K,), grid_of,
                  [(f"offset{off:g}", off) for off in offsets], scales, policy,
                  _fit_reducer([("wbp", K.name)], names, M, float(K.d), slope_tol,
                               uniformity_factor))[0]


# --- direct (necessity-direction) bound ------------------------------------

def direct_bound_check(K: KernelModel, b1: BFunc, op_norm: float | None = None,
                       b2: BFunc | None = None, bilinear_norm: float | None = None,
                       M: int = 2, scales=LINEAR_SCALES,
                       grid: GridSpec = GridSpec(),
                       policy: PvPolicy = PvPolicy()) -> TableReport:
    """measured <= norm * prod ||b||_inf * bump-norm product * (1 + DIRECT_BOUND_TOL)
    per row, on the plan of T per row grid; a row whose bump escapes a fixed
    grid is dropped."""
    linear = K.arity == "linear"
    if linear and op_norm is None:
        raise ValueError("missing operator norm estimate for the linear bound")
    if not linear and bilinear_norm is None:
        raise ValueError("missing bilinear operator norm estimate")
    if not linear and b2 is None:
        raise ValueError("bilinear direct bound needs b2")
    _check_limits(norm=op_norm if linear else bilinear_norm)

    def row(g, plans, group, R):
        if _escapes(g, 0.0, R):
            return None                      # support escapes a fixed grid
        phi = _bump_field(g, M, 0.0, R)
        b1s = b1.sampled(g)
        f1 = _weighted(b1s, phi.values)
        if linear:
            fr = plans[0](f1)
            bound = (op_norm * float(np.max(np.abs(b1s.values))) * lp_norm(phi, 2)
                     * (1 + DIRECT_BOUND_TOL))
        else:
            b2s = b2.sampled(g)
            fr = plans[0](f1, _weighted(b2s, phi.values))
            bound = (bilinear_norm * float(np.max(np.abs(b1s.values)))
                     * float(np.max(np.abs(b2s.values)))
                     * lp_norm(phi, 4) ** 2 * (1 + DIRECT_BOUND_TOL))
        return _l2(fr), bound

    return _sweep(row, (K,), lambda group, R: grid.row_grid(K.grid_mode, R),
                  [("", 0.0)], scales, policy,
                  _bound_reducer("direct_bound.csv", ("measured", "bound"),
                                 lambda R, measured, bound: measured <= bound,
                                 f"direct-bound [{K.name}]"))


# --- localization and far-field quantities ----------------------------------

def _localize(grid: GridSpec, Q: Cube, R: float):
    """The fixed grid, r = 6 diam Q, the cells of Q, its center cell, the points
    a localized check reads (the cells and the center cell) and phi_Q. A box
    that does not contain phi_R at the largest scale R or 8Q, and a cube that
    holds no cell of the grid, are rejected before any field."""
    box = f"the box is [{-grid.box_side / 2.0:g}, {grid.box_side / 2.0:g}]"
    if R > grid.box_side / 2.0:
        raise ValueError(f"grid box must contain the largest bump support: R = {R:g}, {box}")
    if abs(Q.center[0]) + 4.0 * Q.side > grid.box_side / 2.0:
        raise ValueError(f"grid box must contain 8Q: Q has center {Q.center[0]:g} and "
                         f"side {Q.side:g}, {box}")
    g = grid.row_grid("fixed", 1.0)
    r = 6.0 * Q.diam
    x0, ax = Q.center[0], g.axis(0)
    qsel = np.nonzero((ax >= x0 - Q.side / 2.0) & (ax < x0 + Q.side / 2.0))[0]
    if not len(qsel):
        raise ValueError(f"the cube Q (center {x0:g}, side {Q.side:g}) holds no cell of "
                         f"the grid on [{g.box.lo()[0]:g}, {g.box.hi()[0]:g}] "
                         f"(n = {g.n}, h = {g.h:g})")
    i0 = int(np.argmin(np.abs(ax - x0)))
    pts = np.concatenate([qsel, [i0]]) if i0 not in qsel else qsel
    return g, r, qsel, i0, pts, _plateau(g, x0, r)


def _split_fields(T: Plan, bs, phiQ: np.ndarray, phiR: np.ndarray):
    """The plan T (at the points read) of every near (b phi_Q phi_R) / far
    (b (1 - phi_Q) phi_R) choice per argument b phi_R, first argument fastest
    ((near1, near2), (far1, near2), (near1, far2), (far1, far2) when bilinear),
    and of the unsplit ones."""
    splits = [(_weighted(b, phiQ, phiR), _weighted(b, 1.0 - phiQ, phiR)) for b in bs]
    pieces = [T(*args[::-1]) for args in product(*reversed(splits))]
    return pieces, T(*(_weighted(b, phiR) for b in bs))


def _center_dev(v: np.ndarray, qsel: np.ndarray, i0: int) -> float:
    """max over the cells of Q of |v - v(center cell)|."""
    return float(np.max(np.abs(v[qsel] - v[i0])))


def uniform_bmo_sweep(K: KernelModel, b1: BFunc = B_ONE, R_list=(1.0, 2.0, 4.0, 8.0),
                      grid: GridSpec = BMO_SWEEP_GRID,
                      policy: PvPolicy = PvPolicy(), k_max: int = 7,
                      uniformity_factor: float = DEFAULT_UNIFORMITY) -> TableReport:
    """||T(b1 phi_R)||_BMO over R; phi_R is the plateau cutoff at scale R."""
    R_list = _check_scales(R_list)
    if grid.box_side < 4.0 * max(R_list):
        raise ValueError("grid box must be at least 4x the largest scale")
    g = grid.row_grid("fixed", 1.0)
    fam = dyadic_family(g.box, 0, k_max)

    def row(g, plans, group, R):
        fr = plans[0](_weighted(b1.sampled(g), _plateau(g, 0.0, R)))
        return bmo_seminorm(fr.field, fam).sup_mean, fr.n_flagged > 0

    return _sweep(row, (K,), lambda group, R: g, [("", 0.0)], R_list, policy,
                  _uniformity_reducer("bmo_sweep.csv", ("bmo", "pv_flag"), uniformity_factor,
                                      lambda bmo: f"sweep-bmo [{K.name}] "
                                                  f"max/min={_spread(bmo):.4f}"))


def far_field_constancy(K: KernelModel, b1: BFunc = B_ONE,
                        Q: Cube = FAR_FIELD_CUBE, R_list=(4.0, 8.0, 16.0),
                        grid: GridSpec = FAR_FIELD_GRID,
                        policy: PvPolicy = PvPolicy(),
                        uniformity_factor: float = DEFAULT_UNIFORMITY) -> TableReport:
    """sup over Q of |T(b1 (1 - phi_Q) phi_R) - c_{Q,R}|, c at the center cell.

    Also records the splitting defect max_Q |T(b1 phi_R) - T(b1 phi_Q phi_R)
    - T(b1 (1-phi_Q) phi_R)| (zero up to roundoff by linearity).
    """
    R_list = _check_scales(R_list)
    if grid.box_side < 4.0 * max(R_list):
        raise ValueError("grid box must be at least 4x the largest scale")
    g, _, qsel, i0, pts, phiQ = _localize(grid, Q, max(R_list))
    b1s = b1.sampled(g)

    def row(g, plans, group, R):
        (loc, far), full = _split_fields(plans[0], (b1s,), phiQ, _plateau(g, 0.0, R))
        v_far = far.field.values
        split = float(np.max(np.abs(full.field.values[qsel] - loc.field.values[qsel]
                                    - v_far[qsel])))
        c = complex(v_far[i0])
        return _center_dev(v_far, qsel, i0), c.real, c.imag, split

    return _sweep(row, (K,), lambda group, R: g, [("", 0.0)], R_list, policy,
                  _uniformity_reducer("far_field.csv", ("sup_dev", "c_re", "c_im", "split_defect"),
                                      uniformity_factor,
                                      lambda dev: f"far-field [{K.name}] Q=(center "
                                                  f"{Q.center[0]}, side {Q.side}) "
                                                  f"max/min={_spread(dev):.4f} "
                                                  f"abs_bound={max(dev):.6g}"),
                  pts)


@dataclass(frozen=True)
class LocalPieceResult:
    R: float
    r: float
    case: str                   # "R<=r" or "R>r"
    value: float                # (1/|Q|) int_Q |T(b1 phi_Q phi_R)|
    rewrite_defect: float       # composite-vs-product closed-form mismatch
    composite_certificate: object
    scale: float                # scale of the composite bump: min(R, r)
    l2: float                   # ||T(b1 phi_Q phi_R)||_2 over the whole grid
    pv_flagged: bool


def local_piece_check(K: KernelModel, b1: BFunc, Q: Cube, R: float,
                      grid: GridSpec = GridSpec(n=1536, box_side=96.0),
                      policy: PvPolicy = PvPolicy()) -> LocalPieceResult:
    """Local average of |T(b1 phi_Q phi_R)| over Q plus the rewrite identity.

    The product phi_Q(x) phi_R(x) equals a single translate-dilate of a
    composite profile ([psi1 phi] at scale R when R <= r, [phi psi2] at scale
    r otherwise); the identity is exact algebra and is verified to roundoff,
    and the composite passes order-0 bump certification. Also records the
    composite's scale min(R, r) and ||T(b1 phi_Q phi_R)||_2, the two sides of
    the testing condition that bounds the average through Cauchy-Schwarz on Q.
    """
    _check_scales((R,))
    g, r, qsel, _, _, phiQ = _localize(grid, Q, R)
    x0, ax = Q.center[0], g.axis(0)
    prod = phiQ * _plateau(g, 0.0, R)
    plateau = bumps.PROFILES["plateau"]
    # the composite is at the smaller scale s about c_s, its other factor at S about c_S
    if R <= r:
        case, (s, c_s), (S, c_S) = "R<=r", (R, 0.0), (r, x0)
    else:
        case, (s, c_s), (S, c_S) = "R>r", (r, x0), (R, 0.0)

    def comp_profile(t):
        t = np.asarray(t, dtype=float)
        return plateau(np.abs(t)) * plateau(np.abs((s / S) * t + (c_s - c_S) / S))

    composite = comp_profile((ax - c_s) / s)
    defect = float(np.max(np.abs(prod - composite)))
    # order-0 certification of the composite unit profile
    cg = Grid(box=cube1(0.0, 4.0), n=512)
    t = cg.axis(0)
    comp_sf = SampledFunction(grid=cg, values=np.asarray(comp_profile(t), dtype=complex))
    cert = bumps.verify_bump(comp_sf, 0)
    b1s = b1.sampled(g)
    fr = apply_linear_field(K, _weighted(b1s, prod), policy)
    value = float(np.mean(np.abs(fr.field.values[qsel])))
    return LocalPieceResult(R=R, r=r, case=case, value=value, rewrite_defect=defect,
                            composite_certificate=cert, scale=s,
                            l2=lp_norm(fr.field, 2), pv_flagged=fr.n_flagged > 0)


def bilinear_decomposition_check(K: KernelModel, b1: BFunc = B_ONE, b2: BFunc = B_ONE,
                                 Q: Cube = DECOMP_CUBE, R_list=None,
                                 grid: GridSpec = DECOMP_GRID,
                                 policy: PvPolicy = PvPolicy()) -> TableReport:
    """Four-piece split of T(b1 phi_R, b2 phi_R) by near/far plateau factors.

    Checks the exact sum identity on Q and that the local average of |I| and
    the far-piece deviations from their center constants stay under a common
    cap, uniformly over the R list. A Q outside the support of phi_R at the
    largest R is rejected: there phi_Q phi_R is at most a tail, zero once the
    supports part, and the check would pass vacuously.
    """
    if K.arity != "bilinear":
        raise ValueError("needs a bilinear kernel")
    r = 6.0 * Q.diam
    R_list = _check_scales((r / 4.0, r, 4.0 * r) if R_list is None else R_list)
    g, _, qsel, i0, pts, phiQ = _localize(grid, Q, max(R_list))
    if abs(Q.center[0]) - Q.side / 2.0 >= max(R_list):
        raise ValueError(f"the cube Q (center {Q.center[0]:g}, side {Q.side:g}) lies outside "
                         f"the support of phi_R at the largest scale R = {max(R_list):g}")
    s1, s2 = b1.sampled(g), b2.sampled(g)

    def row(g, plans, group, R):
        split, direct = _split_fields(plans[0], (s1, s2), phiQ, _plateau(g, 0.0, R))
        pieces = [fr.field.values for fr in split]
        direct = direct.field.values
        total = pieces[0] + pieces[1] + pieces[2] + pieces[3]
        sum_defect = float(np.max(np.abs((total - direct)[qsel])))
        sum_ok = bool(sum_defect <= policy.tol_pv *
                      (1.0 + float(np.max(np.abs(direct[qsel])))))
        avg_I = float(np.mean(np.abs(pieces[0][qsel])))
        return (avg_I, *(_center_dev(p, qsel, i0) for p in pieces[1:]), sum_defect, sum_ok)

    def ok(R, avg_I, dev_II, dev_III, dev_IV, sum_defect, sum_ok):
        return sum_ok and max(avg_I, dev_II, dev_III, dev_IV) <= DECOMP_DEV_CAP

    return _sweep(row, (K,), lambda group, R: g, [("", 0.0)], R_list, policy,
                  _bound_reducer("bilinear_decomp.csv",
                                 ("avg_I", "dev_II", "dev_III", "dev_IV", "sum_defect",
                                  "sum_ok"), ok, f"bilinear-decomp [{K.name}]"),
                  pts)

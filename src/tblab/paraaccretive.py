"""Para-accretivity certification and the constructive cube/kernel equivalence.

The subcube search maximizes |int_W b| / |Q| over dyadic descendants of Q
down to a depth J together with every grid-aligned sliding window of those
dyadic side lengths (prefix sums make each width a vector scan). A finite
sample certifies the constant over the tested family only; certificates say
which family that was.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import bumps
from .grid import Cube, DyadicFamily, Grid, SampledFunction, cell_blocks, cell_spans
from .util import csv_table

CDF_NODES = 1 << 14          # mollifier CDF table on [-1, 1]
L1_ERROR_NODES = 1 << 13     # lattice of the mollification error
H_INIT = 1.0                 # first mollifier width tried; halved until it suffices
MIN_CELLS_PER_EPS = 4        # grid cells the narrowest mollifier must span
SK_ALPHA_ORDER = 1.0         # Holder order of the checklist's x-regularity
SK_TOL = 1e-2                # checklist tolerance on symmetry and pairing


# --- mollifier: the order-1 normalized bump, mass-normalized kernel ---

@lru_cache(maxsize=None)
def mollifier_alpha(d: int = 1) -> float:
    """alpha with int phi = alpha^(-1) for the order-1 normalized bump."""
    return 1.0 / (bumps.c_norm(1, d) * bumps.profile_integral("standard-mollifier", d))


@lru_cache(maxsize=None)
def _mollifier_cdf_table():
    t = np.linspace(-1.0, 1.0, CDF_NODES)
    v = bumps.PROFILES["standard-mollifier"](np.abs(t))
    cdf = np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) / 2.0 * (t[1] - t[0]))])
    cdf /= cdf[-1]
    return t, cdf


def mollifier_cdf(s) -> np.ndarray:
    """P(s) = (int phi)^{-1} int_{-inf}^{s} phi; exactly 0/1 beyond |s|>=1."""
    t, cdf = _mollifier_cdf_table()
    return np.interp(np.asarray(s, dtype=float), t, cdf, left=0.0, right=1.0)


@lru_cache(maxsize=None)
def mollification_l1_error(h: float, d: int = 1) -> float:
    """int |1_{Q0} * phi_h - 1_{Q0}| on the unit-cube model, fine lattice."""
    if d != 1:
        raise ValueError(f"the mollification error is implemented for d=1, got d={d}")
    y = np.linspace(-0.5 - h - 0.05, 0.5 + h + 0.05, L1_ERROR_NODES)
    conv = mollifier_cdf((y + 0.5) / h) - mollifier_cdf((y - 0.5) / h)
    ind = ((y >= -0.5) & (y < 0.5)).astype(float)
    return float(np.sum(np.abs(conv - ind)) * (y[1] - y[0]))


# --- subcube scans ---

def _subcube_scans(b: SampledFunction, centers: np.ndarray, side: float, J: int):
    """Per cube of the given centres and side: the best ratio |int_W b| / |Q| over
    the grid-aligned windows W of side side / 2^j, j <= J, with W's first cell
    index per axis and its width in cells; the ratio is -1 where no window fits.

    The cubes with the same cell-block shape share one gather, one prefix sum
    along the block axes and one argmax per row at each depth; the first window
    in C order wins a tie within a depth, the shallowest depth a tie across them.
    """
    g, d, h = b.grid, b.grid.d, b.grid.h
    # the cubes' edges must lie on cell edges, to 1e-6 of a cell
    g_lo = np.asarray(g.box.center) - g.box.side / 2.0
    edges = np.concatenate([centers - side / 2.0 - g_lo, centers + side / 2.0 - g_lo],
                           axis=1) / h
    bad = np.nonzero(np.any(np.abs(edges - np.round(edges)) > 1e-6, axis=1))[0]
    if len(bad):
        raise ValueError(f"cube (center {tuple(centers[bad[0]].tolist())}, side {side}) "
                         f"is not aligned with grid cells")
    starts, lengths = cell_spans(g, centers, side)
    ratio = np.full(len(centers), -1.0)
    corner = np.zeros(centers.shape, dtype=np.intp)
    width = np.zeros(len(centers), dtype=np.intp)
    for rows, v in cell_blocks(b.values, starts, lengths):
        v = v * h ** d
        for ax in range(1, d + 1):
            v = np.cumsum(v, axis=ax)
        S = np.zeros((len(rows),) + tuple(m + 1 for m in v.shape[1:]), dtype=complex)
        S[(slice(None),) + (slice(1, None),) * d] = v
        for j in range(J + 1):
            w = round(side / (1 << j) / h)
            if w < 1 or w > min(v.shape[1:]):
                continue
            if d == 1:
                sums = S[:, w:] - S[:, :-w]
            else:
                sums = S[:, w:, w:] - S[:, :-w, w:] - S[:, w:, :-w] + S[:, :-w, :-w]
            amps = np.abs(sums).reshape(len(rows), -1)
            a = np.argmax(amps, axis=1)
            r = amps[np.arange(len(rows)), a] / side ** d
            up = r > ratio[rows]
            ratio[rows[up]], width[rows[up]] = r[up], w
            corner[rows[up]] = starts[rows[up]] + np.stack(
                np.unravel_index(a[up], sums.shape[1:]), axis=1)
    return ratio, corner, width


def _windows(g: Grid, corner: np.ndarray, width: np.ndarray):
    """Centres, (m, d), and sides, (m,), of the windows with the given first cell
    indices and widths in cells: lo + i h + w h / 2 per axis, and w h."""
    lo = np.asarray(g.box.center) - g.box.side / 2.0
    return lo + corner * g.h + (width * g.h / 2.0)[:, None], width * g.h


def subcube_scan(b: SampledFunction, Q: Cube, J: int):
    """(best ratio, witness cube): max over grid-aligned windows of dyadic side.

    ratio = |int_W b| / |Q| computed by midpoint prefix sums.
    """
    if J < 0:
        raise ValueError("depth J must be >= 0")
    ratio, corner, width = _subcube_scans(b, np.asarray([Q.center]), Q.side, J)
    (c,), (s,) = _windows(b.grid, corner, width)
    return float(ratio[0]), Cube(c, s) if width[0] else None


@dataclass(frozen=True)
class ParaAccretivityCertificate:
    """The family's cubes as columns, generation by generation in product order:
    centres (m, d) and sides, their witness windows' centres (m, d) and sides,
    and the ratios. `witnesses`, (cube, witness cube, ratio) per cube, is a
    read-only view built on each access."""

    c0: float
    J: int
    b_sup: float
    b_inf: float                 # ess-inf |b| over samples, reported not enforced
    family_note: str
    centers: np.ndarray
    sides: np.ndarray
    witness_centers: np.ndarray
    witness_sides: np.ndarray
    ratios: np.ndarray

    @property
    def c1(self) -> float:
        # implied witness side ratio (c0 / ||b||_inf)^(1/d)
        return float((self.c0 / self.b_sup) ** (1.0 / self.centers.shape[1]))

    def _columns(self):
        return zip(self.centers.tolist(), self.sides.tolist(), self.witness_centers.tolist(),
                   self.witness_sides.tolist(), self.ratios.tolist())

    @property
    def witnesses(self) -> list:
        return [(Cube(c, s), Cube(wc, ws), r) for c, s, wc, ws, r in self._columns()]

    def csv_rows(self):
        return csv_table(["cube_center", "cube_side", "witness_center", "witness_side",
                          "ratio"],
                         ((tuple(c), s, tuple(wc), ws, r)
                          for c, s, wc, ws, r in self._columns()))


def check_para_accretive(b: SampledFunction, family: DyadicFamily,
                         J: int = 3) -> ParaAccretivityCertificate:
    """Certify the cube condition over the family: c0 = min over Q of the subcube
    maximum; each generation is one _subcube_scans pass."""
    if J < 0:
        raise ValueError("depth J must be >= 0")
    cols = []
    for k in range(family.k_min, family.k_max + 1):
        centers, side = family.centers(k), family.side(k)
        ratio, corner, width = _subcube_scans(b, centers, side, J)
        if not np.all(width):
            raise ValueError(f"cube side {side} holds no whole grid cell")
        cols.append((centers, np.full(len(centers), side), *_windows(b.grid, corner, width),
                     ratio))
    centers, sides, w_centers, w_sides, ratios = (np.concatenate(c) for c in zip(*cols))
    mags = np.abs(b.values)
    return ParaAccretivityCertificate(
        c0=float(np.min(ratios)), J=J,
        b_sup=float(np.max(mags)), b_inf=float(np.min(mags)),
        family_note=(f"dyadic generations {family.k_min}..{family.k_max} of root "
                     f"side {family.root.side}; certified over this family only"),
        centers=centers, sides=sides, witness_centers=w_centers, witness_sides=w_sides,
        ratios=ratios)


@dataclass(frozen=True)
class ConditionBCertificate:
    """Per generation k, in product order: `picks[k]`, each cube's witness index
    (-1 where none is within N side), and `gaps[k]`, its gap (inf where none).
    `witnesses`, k -> list of (Q, witness cube or None, gap or nan), is a
    read-only view built on each access from the family's `generations`."""

    eps: float
    N: float
    valid: bool
    picks: dict
    gaps: dict
    first_failure: tuple | None
    family: DyadicFamily

    @property
    def witnesses(self) -> dict:
        out = {}
        for k, pick in self.picks.items():
            gen = self.family.generations[k]
            out[k] = [(Q, gen[j], g) if j >= 0 else (Q, None, float("nan"))
                      for Q, j, g in zip(gen, pick.tolist(), self.gaps[k].tolist())]
        return out

    def generation_ok(self, k: int) -> bool:
        return bool(np.all(self.picks[k] >= 0))


def _nearest_good(family: DyadicFamily, k: int, good: np.ndarray, N: float):
    """Per cube of generation k, in product order: the index of its nearest cube
    with good set, by gap, then centre distance, then index, and that gap; (-1,
    inf) where no such cube is within N * side.

    On a dyadic tiling the gap, the centre distance and the index order between
    two cubes depend only on their integer index offset o: in units of the side,
    gap^2 = sum max(|o| - 1, 0)^2 and distance^2 = sum o^2. The offsets within
    gap N * side are sorted once by those keys and then by flat offset, and each
    cube takes the first offset whose neighbour is in the tiling and good. The
    gap is then taken from the picked pair's coordinates, as Cube.gap_to does.
    """
    d, M, side = family.root.d, 1 << k, family.side(k)
    r = min(M - 1, int(N + 1e-12 / side + 1e-6) + 1)
    o = np.stack(np.unravel_index(np.arange((2 * r + 1) ** d), (2 * r + 1,) * d), axis=1) - r
    g2 = np.sum(np.maximum(np.abs(o) - 1, 0) ** 2, axis=1)
    keep = side * np.sqrt(g2) <= N * side + 1e-12
    o, g2 = o[keep], g2[keep]
    flat = o @ M ** np.arange(d - 1, -1, -1)
    order = np.lexsort((flat, np.sum(o * o, axis=1), g2))
    pick = np.full(M ** d, -1)
    todo = np.arange(M ** d)
    idx = np.stack(np.unravel_index(todo, (M,) * d), axis=1)
    for step, df in zip(o[order], flat[order]):
        if not len(todo):
            break
        j, nb = todo + df, idx + step
        hit = np.all((nb >= 0) & (nb < M), axis=1)
        hit[hit] = good[j[hit]]
        pick[todo[hit]] = j[hit]
        todo, idx = todo[~hit], idx[~hit]
    centers = family.centers(k)
    lo, hi = centers - side / 2.0, centers + side / 2.0
    i = np.nonzero(pick >= 0)[0]
    t = np.maximum(np.maximum(lo[i] - hi[pick[i]], 0.0), np.maximum(lo[pick[i]] - hi[i], 0.0))
    gap = np.full(M ** d, np.inf)
    gap[i] = np.sqrt(np.sum(t ** 2, axis=1))
    return pick, gap


def check_condition_B(b: SampledFunction, family: DyadicFamily, N: float = 10.0,
                      eps: float = 0.5) -> ConditionBCertificate:
    """Prop-A.2(B) scan: same-generation cube within gap N*side, |avg| >= eps."""
    if N < 10:
        raise ValueError("search radius must satisfy N >= 10")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must satisfy 0 < eps < inf, got {eps}")
    picks, gaps = {}, {}
    first_failure = None
    for k in range(family.k_min, family.k_max + 1):
        # depth 0 scans the cube itself: |int_Q b| / |Q| = |avg_Q b|
        ratio, _, _ = _subcube_scans(b, family.centers(k), family.side(k), 0)
        picks[k], gaps[k] = _nearest_good(family, k, ratio >= eps, N)
        if first_failure is None and np.any(picks[k] < 0):
            i = np.argmax(picks[k] < 0)
            first_failure = (k, Cube(family.centers(k)[i], family.side(k)))
    return ConditionBCertificate(eps=float(eps), N=float(N), valid=first_failure is None,
                                 picks=picks, gaps=gaps, first_failure=first_failure,
                                 family=family)


@dataclass(frozen=True)
class ConvertedConstant:
    bound: float                 # eps / (20 N)^d
    k: int
    Q1: Cube
    Q2: Cube
    measured_ratio: float        # |int_{Q2} b| / |Q| actually achieved


def b_to_def3_constant(cert: ConditionBCertificate, Q: Cube,
                       b: SampledFunction) -> ConvertedConstant:
    """Convert a dyadic-neighbour certificate into a subcube-average lower bound on Q.

    Picks the generation with 10 N side_k <= side(Q) <= 20 N side_k, the
    generation cube containing Q's center (per axis the first with lo <= x < hi,
    as Cube.contains_point tests, so the first in product order), and its
    certificate witness.
    """
    fam = cert.family
    N = cert.N
    k_sel = next((k for k in range(fam.k_min, fam.k_max + 1)
                  if 10.0 * N * fam.side(k) <= Q.side + 1e-12
                  and Q.side <= 20.0 * N * fam.side(k) + 1e-12), None)
    if k_sel is None:
        raise ValueError(
            f"no certified generation satisfies 10N*2^-k <= {Q.side} <= 20N*2^-k")
    if not cert.generation_ok(k_sel):
        raise ValueError(f"certificate has failures at generation {k_sel}")
    side = fam.side(k_sel)
    idx = []
    for x, a in zip(Q.center, (fam.axis_centers(k_sel, ax) for ax in range(Q.d))):
        hit = np.nonzero((x >= a - side / 2.0) & (x < a + side / 2.0))[0]
        if not len(hit):
            raise ValueError("no generation cube contains the center of Q")
        idx.append(hit[0])
    i = np.ravel_multi_index(idx, (1 << k_sel,) * Q.d)
    centers = fam.centers(k_sel)
    Q1, W = Cube(centers[i], side), Cube(centers[cert.picks[k_sel][i]], side)
    # geometry from the side-length relation: the witness sits inside Q
    for ax in range(Q.d):
        if not (W.center[ax] - W.side / 2.0 >= Q.center[ax] - Q.side / 2.0 - 1e-9 and
                W.center[ax] + W.side / 2.0 <= Q.center[ax] + Q.side / 2.0 + 1e-9):
            raise AssertionError("witness cube escapes Q; the side-length selection is off")
    ratio, _ = subcube_scan(b, W, 0)
    measured = ratio * W.volume / Q.volume   # rescale the |avg| to 1/|Q|
    return ConvertedConstant(bound=float(cert.eps / (20.0 * N) ** Q.d),
                             k=k_sel, Q1=Q1, Q2=W, measured_ratio=float(measured))


# --- the u_k construction ---

@dataclass(frozen=True)
class UkFamily:
    k: int
    grid: Grid
    lattice: np.ndarray          # evaluation points x (d=1) or (m, 2) array
    witnesses: list              # per x: the selected subcube
    ells: np.ndarray             # per x: side of the witness
    h_mol: float                 # mollifier half-width parameter h <= 1
    alpha: float
    c0: float
    b_sup: float
    rows: np.ndarray             # (len(lattice), n) sampled u_k(x, .) for d=1

    @property
    def c1(self) -> float:
        return float((self.c0 / self.b_sup) ** (1.0 / self.grid.d))

    @property
    def support_radius_bound(self) -> float:
        return (1.0 + np.sqrt(self.grid.d)) * 2.0 ** (-self.k)


def select_mollifier_h(c0: float, b_sup: float, d: int = 1) -> float:
    """Halve from H_INIT until int|1_{Q0}*phi_h - 1_{Q0}| <= c0 / (2 ||b||)."""
    threshold = c0 / (2.0 * b_sup)
    h = H_INIT
    for _ in range(60):
        if mollification_l1_error(h, d) <= threshold:
            return h
        h /= 2.0
    raise ValueError("mollifier width underflow; threshold unattainable")


def build_uk(b: SampledFunction, k: int, J: int = 3, lattice_divisor: int = 1) -> UkFamily:
    """Construct u_k(x, y) = 2^{kd} (1_{W(x)} * phi_{h ell_x})(y) on the grid.

    x runs over the dyadic lattice of spacing 2^-k (divided by
    lattice_divisor when denser sampling in x is wanted, e.g. to probe the
    symmetry checklist); W(x) is the best subcube of the side-2^-k cube at
    x. Mollifier width must resolve the grid; if h*ell underflows, the
    error says to refine the grid.
    """
    g = b.grid
    if g.d != 1:
        raise ValueError("the sampled u_k family is implemented for d=1 grids")
    if J < 0:
        raise ValueError("depth J must be >= 0")
    side = 2.0 ** (-k)
    w_cells = round(side / g.h)
    if abs(side / g.h - w_cells) > 1e-9 or w_cells < 4:
        raise ValueError(f"cube side 2^-{k} must span >= 4 whole grid cells")
    if lattice_divisor < 1 or w_cells % (2 * lattice_divisor) != 0:
        raise ValueError("lattice divisor must keep cube edges on grid cells")
    lo = g.box.center[0] - g.box.side / 2.0
    step = side / lattice_divisor
    n_steps = int(round(g.box.side / step))
    margin = (1.0 + np.sqrt(g.d)) * side
    x = lo + (np.arange(n_steps) + 0.5) * step
    lattice = x[np.abs(x - g.box.center[0]) + margin <= g.box.side / 2.0 + 1e-12]
    if not len(lattice):
        raise ValueError("no lattice point has support clearance; enlarge the box")
    ratios, corner, width = _subcube_scans(b, lattice[:, None], side, J)
    centers, ells = _windows(g, corner, width)
    c0 = float(np.min(ratios))
    b_sup = float(np.max(np.abs(b.values)))
    # witnesses achieving ratio >= c0 are at least c1 2^-k wide
    c1 = (c0 / b_sup) ** (1.0 / g.d)
    if np.min(ells) < c1 * side * (1.0 - 1e-9):
        raise AssertionError("witness narrower than the volume bound allows")
    h_mol = select_mollifier_h(c0, b_sup, g.d)
    eps_min = h_mol * np.min(ells)
    if eps_min < MIN_CELLS_PER_EPS * g.h:
        raise ValueError(
            f"mollifier width {eps_min:.3g} under-resolves the grid "
            f"(h_grid={g.h:.3g}); use a finer grid")
    # one row per witness W, mollified at width h_mol |W|
    y = g.axis(0)
    lo, hi = centers - ells[:, None] / 2.0, centers + ells[:, None] / 2.0
    epsm = h_mol * ells[:, None]
    rows = (2.0 ** k) * (mollifier_cdf((y - lo) / epsm) - mollifier_cdf((y - hi) / epsm))
    return UkFamily(k=k, grid=g, lattice=lattice,
                    witnesses=[Cube(c, s) for c, s in zip(centers.tolist(), ells.tolist())],
                    ells=ells, h_mol=h_mol, alpha=mollifier_alpha(g.d),
                    c0=c0, b_sup=b_sup, rows=rows)


@dataclass(frozen=True)
class UkCheck:
    x: float
    sup: float
    sup_bound: float
    support_ok: bool
    worst_tail: float            # largest |u| sampled beyond the support radius
    lip: float
    lip_bound: float
    pairing: complex
    pairing_lo: float
    pairing_hi: float

    @property
    def size_ok(self) -> bool:
        return self.sup <= self.sup_bound * (1 + 1e-9)

    @property
    def lip_ok(self) -> bool:
        return self.lip <= self.lip_bound * (1 + 1e-9)

    @property
    def pairing_ok(self) -> bool:
        m = abs(self.pairing)
        return self.pairing_lo * (1 - 1e-3) <= m <= self.pairing_hi * (1 + 1e-3)

    @property
    def all_ok(self) -> bool:
        return self.size_ok and self.support_ok and self.lip_ok and self.pairing_ok


@dataclass(frozen=True)
class UkVerification:
    checks: list
    alpha: float
    c0: float
    c1: float
    b_sup: float

    @property
    def all_ok(self) -> bool:
        return all(c.all_ok for c in self.checks)


def verify_uk(fam: UkFamily, b: SampledFunction) -> UkVerification:
    """Check the four kernel-family bounds on every lattice row."""
    g = fam.grid
    if b.grid != g:
        raise ValueError("family was built on a different grid")
    d = g.d
    k = fam.k
    alpha = fam.alpha
    c1 = fam.c1
    sup_bound = alpha * fam.h_mol ** (-d) * 2.0 ** (k * d)
    lip_bound = alpha / c1 * fam.h_mol ** (-d - 1) * 2.0 ** (k * (d + 1))
    absrows = np.abs(fam.rows)
    outside = np.abs(fam.lattice[:, None] - g.axis(0)) >= fam.support_radius_bound - 1e-12
    tails = np.max(np.where(outside, absrows, 0.0), axis=1)
    lips = np.max(np.abs(np.diff(fam.rows, axis=1)), axis=1) / g.h
    pairings = np.sum(fam.rows * b.values, axis=1) * g.h ** d
    checks = [UkCheck(x=float(x), sup=float(sup), sup_bound=float(sup_bound),
                      support_ok=bool(tail == 0.0), worst_tail=float(tail),
                      lip=float(lip), lip_bound=float(lip_bound), pairing=complex(p),
                      pairing_lo=fam.c0 / 2.0, pairing_hi=fam.b_sup)
              for x, sup, tail, lip, p in zip(fam.lattice, np.max(absrows, axis=1), tails,
                                              lips, pairings)]
    return UkVerification(checks=checks, alpha=alpha, c0=fam.c0, c1=c1,
                          b_sup=fam.b_sup)


# --- Def-A.1 checklist for externally supplied two-point families ---

@dataclass(frozen=True)
class SkReport:
    C_size: float
    C_support: float
    C_lipschitz_x: float
    symmetry_defect: float       # max |s(x,y) - s(y,x)| over lattice pairs
    pairing_defect: float        # max |int s(x,.) b - 1|

    @property
    def smallest_admissible_C(self) -> float:
        return max(self.C_size, self.C_support, self.C_lipschitz_x)

    @property
    def symmetric_ok(self) -> bool:
        return self.symmetry_defect <= SK_TOL

    @property
    def pairing_ok(self) -> bool:
        return self.pairing_defect <= SK_TOL


def make_sk_from_uk(fam: UkFamily, b: SampledFunction) -> UkFamily:
    """u_k renormalized row-by-row so that int s(x, y) b(y) dy = 1."""
    rows = fam.rows.astype(complex)
    p = np.sum(rows * b.values, axis=1) * fam.grid.h ** fam.grid.d
    return replace(fam, rows=rows / p[:, None])


def verify_sk_checklist(s: UkFamily, b: SampledFunction) -> SkReport:
    """Numerical checks of the symmetric-family definition on sampled rows,
    with the constants scaled by the family's own generation s.k."""
    g, k = s.grid, s.k
    d = g.d
    y = g.axis(0)
    rows = np.asarray(s.rows)
    absrows = np.abs(rows)
    sup = float(np.max(absrows))
    C_size = sup / 2.0 ** (k * d)
    supp = np.max(np.where(absrows > 0, np.abs(y - s.lattice[:, None]), 0.0))
    C_support = supp * 2.0 ** k
    # Lipschitz in the first argument across adjacent lattice rows
    dx = np.abs(np.diff(s.lattice))
    jumps = np.max(np.abs(np.diff(rows, axis=0)), axis=1)
    C_lip = np.max(jumps[dx > 0] / dx[dx > 0] / 2.0 ** (k * (d + SK_ALPHA_ORDER)),
                   initial=0.0)
    # symmetry: S[a, c] = s(x_a, x_c), each row interpolated in y at the lattice
    S = np.asarray([np.interp(s.lattice, y, r) for r in rows])
    sym = np.max(np.abs(S - S.T))
    pair = np.max(np.abs(np.sum(rows * b.values, axis=1) * g.h ** d - 1.0), initial=0.0)
    return SkReport(C_size=float(C_size), C_support=float(C_support),
                    C_lipschitz_x=float(C_lip),
                    symmetry_defect=float(sym) / max(sup, 1e-300),
                    pairing_defect=float(pair))

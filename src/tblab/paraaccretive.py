"""Para-accretivity certification and the constructive cube/kernel equivalence.

The subcube search maximizes |int_W b| / |Q| over dyadic descendants of Q
down to a depth J together with every grid-aligned sliding window of those
dyadic side lengths (prefix sums make each width a vector scan). A finite
sample certifies the constant over the tested family only; certificates say
which family that was.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bumps
from .grid import Cube, DyadicFamily, Grid, SampledFunction
from .util import fmt_float


# --- mollifier: the order-1 normalized bump, mass-normalized kernel ---

@lru_cache(maxsize=None)
def mollifier_alpha(d: int = 1) -> float:
    """alpha with int phi = alpha^(-1) for the order-1 normalized bump."""
    return 1.0 / (bumps.c_norm(1, d) * bumps.profile_integral("standard-mollifier", d))


@lru_cache(maxsize=None)
def _mollifier_cdf_table(n: int = 1 << 14):
    t = np.linspace(-1.0, 1.0, n)
    v = bumps.PROFILES["standard-mollifier"](np.abs(t))
    cdf = np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) / 2.0 * (t[1] - t[0]))])
    cdf /= cdf[-1]
    return t, cdf


def mollifier_cdf(s) -> np.ndarray:
    """P(s) = (int phi)^{-1} int_{-inf}^{s} phi; exactly 0/1 beyond |s|>=1."""
    t, cdf = _mollifier_cdf_table()
    return np.interp(np.asarray(s, dtype=float), t, cdf, left=0.0, right=1.0)


@lru_cache(maxsize=None)
def mollification_l1_error(h: float, d: int = 1, n: int = 1 << 13) -> float:
    """int |1_{Q0} * phi_h - 1_{Q0}| on the unit-cube model, fine lattice."""
    if d != 1:
        raise ValueError(f"the mollification error is implemented for d=1, got d={d}")
    y = np.linspace(-0.5 - h - 0.05, 0.5 + h + 0.05, n)
    conv = mollifier_cdf((y + 0.5) / h) - mollifier_cdf((y - 0.5) / h)
    ind = ((y >= -0.5) & (y < 0.5)).astype(float)
    return float(np.sum(np.abs(conv - ind)) * (y[1] - y[0]))


# --- subcube scans ---

def _cell_span(g: Grid, Q: Cube):
    """Half-open cell index range [i0, i1) per axis; Q must be cell-aligned."""
    spans = []
    for ax in range(g.d):
        lo = Q.center[ax] - Q.side / 2.0
        hi = Q.center[ax] + Q.side / 2.0
        g_lo = g.box.center[ax] - g.box.side / 2.0
        a = (lo - g_lo) / g.h
        b = (hi - g_lo) / g.h
        ia, ib = round(a), round(b)
        if abs(a - ia) > 1e-6 or abs(b - ib) > 1e-6:
            raise ValueError(
                f"cube (center {Q.center}, side {Q.side}) is not aligned with grid cells")
        spans.append((max(0, int(ia)), min(g.n, max(0, int(ib)))))
    return spans


def subcube_scan(b: SampledFunction, Q: Cube, J: int):
    """(best ratio, witness cube): max over grid-aligned windows of dyadic side.

    ratio = |int_W b| / |Q| computed by midpoint prefix sums.
    """
    g, d, h = b.grid, b.grid.d, b.grid.h
    if J < 0:
        raise ValueError("depth J must be >= 0")
    spans = _cell_span(g, Q)
    volQ = Q.volume
    best = (-1.0, None)
    v = b.values[tuple(slice(i0, i1) for i0, i1 in spans)] * h ** d
    S = np.zeros(tuple(m + 1 for m in v.shape), dtype=complex)
    for ax in range(d):
        v = np.cumsum(v, axis=ax)
    S[(slice(1, None),) * d] = v
    for j in range(J + 1):
        w = round(Q.side / (1 << j) / h)
        if w < 1 or w > min(v.shape):
            continue
        if d == 1:
            sums = S[w:] - S[:-w]
        else:
            sums = S[w:, w:] - S[:-w, w:] - S[w:, :-w] + S[:-w, :-w]
        amps = np.abs(sums)
        a = np.unravel_index(int(np.argmax(amps)), amps.shape)
        if amps[a] / volQ > best[0]:
            lo = [g.box.center[ax] - g.box.side / 2.0 + (spans[ax][0] + a[ax]) * h
                  for ax in range(d)]
            best = (float(amps[a]) / volQ, Cube(tuple(x + w * h / 2.0 for x in lo), w * h))
    return best


@dataclass(frozen=True)
class ParaAccretivityCertificate:
    c0: float
    witnesses: list              # (cube, witness cube, ratio)
    J: int
    b_sup: float
    b_inf: float                 # ess-inf |b| over samples, reported not enforced
    family_note: str

    @property
    def c1(self) -> float:
        # implied witness side ratio (c0 / ||b||_inf)^(1/d)
        d = self.witnesses[0][0].d if self.witnesses else 1
        return float((self.c0 / self.b_sup) ** (1.0 / d))

    def csv_rows(self):
        rows = [["cube_center", "cube_side", "witness_center", "witness_side", "ratio"]]
        for Q, W, r in self.witnesses:
            rows.append([";".join(fmt_float(c) for c in Q.center), fmt_float(Q.side),
                         ";".join(fmt_float(c) for c in W.center), fmt_float(W.side),
                         fmt_float(r)])
        return rows


def check_para_accretive(b: SampledFunction, family: DyadicFamily,
                         J: int = 3) -> ParaAccretivityCertificate:
    """Certify the cube condition over the family: c0 = min over Q of the subcube maximum."""
    cubes = list(family.all_cubes())
    if not cubes:
        raise ValueError("empty family")
    per_cube = []
    for Q in cubes:
        ratio, W = subcube_scan(b, Q, J)
        if W is None:
            raise ValueError(f"cube side {Q.side} holds no whole grid cell")
        per_cube.append((Q, W, ratio))
    c0 = min(r for _, _, r in per_cube)
    mags = np.abs(b.values)
    return ParaAccretivityCertificate(
        c0=float(c0), witnesses=per_cube, J=J,
        b_sup=float(np.max(mags)), b_inf=float(np.min(mags)),
        family_note=(f"dyadic generations {family.k_min}..{family.k_max} of root "
                     f"side {family.root.side}; certified over this family only"))


@dataclass(frozen=True)
class ConditionBCertificate:
    eps: float
    N: float
    valid: bool
    witnesses: dict              # k -> list of (Q, witness cube or None, gap)
    first_failure: tuple | None
    family: DyadicFamily

    def generation_ok(self, k: int) -> bool:
        return all(W is not None for _, W, _ in self.witnesses[k])


def check_condition_B(b: SampledFunction, family: DyadicFamily, N: float = 10.0,
                      eps: float = 0.5) -> ConditionBCertificate:
    """Prop-A.2(B) scan: same-generation cube within gap N*side, |avg| >= eps."""
    if N < 10:
        raise ValueError("search radius must satisfy N >= 10")
    witnesses = {}
    first_failure = None
    valid = True
    for k in range(family.k_min, family.k_max + 1):
        gen = family.generations[k]
        side = family.side(k)
        # depth 0 scans the cube itself: |int_Q b| / |Q| = |avg_Q b|
        good = np.nonzero([subcube_scan(b, Q, 0)[0] >= eps for Q in gen])[0]
        centers = np.asarray([Q.center for Q in gen])
        half = np.asarray([Q.side for Q in gen])[:, None] / 2.0
        lo, hi = (centers - half).T, (centers + half).T      # one row per axis
        lo_good, hi_good = lo[:, good], hi[:, good]
        rows = []
        for i, Q in enumerate(gen):
            # Cube.gap_to from Q to every cube with a large average, one row at a time
            gaps = np.sqrt(sum(np.maximum(np.maximum(lo[ax, i] - hi_good[ax], 0.0),
                                          np.maximum(lo_good[ax] - hi[ax, i], 0.0)) ** 2
                               for ax in range(len(lo))))
            gap = gaps.min(initial=np.inf)
            if gap <= N * side + 1e-12:
                # adjacent cubes share gap 0; break ties by center distance, then index
                pick = min(good[gaps == gap],
                           key=lambda j: np.linalg.norm(centers[i] - centers[j]))
                rows.append((Q, gen[pick], float(gap)))
            else:
                rows.append((Q, None, float("nan")))
                valid = False
                if first_failure is None:
                    first_failure = (k, Q)
        witnesses[k] = rows
    return ConditionBCertificate(eps=float(eps), N=float(N), valid=valid,
                                 witnesses=witnesses, first_failure=first_failure,
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
    generation cube containing Q's center, and its certificate witness.
    """
    fam = cert.family
    N = cert.N
    k_sel = None
    for k in range(fam.k_min, fam.k_max + 1):
        side = fam.side(k)
        if 10.0 * N * side <= Q.side + 1e-12 and Q.side <= 20.0 * N * side + 1e-12:
            k_sel = k
            break
    if k_sel is None:
        raise ValueError(
            f"no certified generation satisfies 10N*2^-k <= {Q.side} <= 20N*2^-k")
    if not cert.generation_ok(k_sel):
        raise ValueError(f"certificate has failures at generation {k_sel}")
    rows = cert.witnesses[k_sel]
    Q1 = None
    for cand, _, _ in rows:
        if cand.contains_point(Q.center):
            Q1 = cand
            break
    if Q1 is None:
        raise ValueError("no generation cube contains the center of Q")
    W = next(w for q, w, _ in rows if q is Q1)
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


def select_mollifier_h(c0: float, b_sup: float, d: int = 1,
                       h_init: float = 1.0) -> float:
    """Halve from h_init until int|1_{Q0}*phi_h - 1_{Q0}| <= c0 / (2 ||b||)."""
    threshold = c0 / (2.0 * b_sup)
    h = float(h_init)
    for _ in range(60):
        if mollification_l1_error(h, d) <= threshold:
            return h
        h /= 2.0
    raise ValueError("mollifier width underflow; threshold unattainable")


def build_uk(b: SampledFunction, k: int, cert: ParaAccretivityCertificate | None = None,
             J: int = 3, h_init: float = 1.0, min_cells_per_eps: int = 4,
             lattice_divisor: int = 1) -> UkFamily:
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
    lattice, witnesses, ells, ratios = [], [], [], []
    for m in range(n_steps):
        x = lo + (m + 0.5) * step
        if abs(x - g.box.center[0]) + margin > g.box.side / 2.0 + 1e-12:
            continue
        Q = Cube((x,), side)
        ratio, W = subcube_scan(b, Q, J)
        lattice.append(x)
        witnesses.append(W)
        ells.append(W.side)
        ratios.append(ratio)
    if not lattice:
        raise ValueError("no lattice point has support clearance; enlarge the box")
    c0 = cert.c0 if cert is not None else float(min(ratios))
    if min(ratios) < c0 - 1e-9:
        raise ValueError("certificate constant not met on the evaluation lattice")
    b_sup = cert.b_sup if cert is not None else float(np.max(np.abs(b.values)))
    # witnesses achieving ratio >= c0 are at least c1 2^-k wide
    c1 = (c0 / b_sup) ** (1.0 / g.d)
    if min(ells) < c1 * side * (1.0 - 1e-9):
        raise AssertionError("witness narrower than the volume bound allows")
    h_mol = select_mollifier_h(c0, b_sup, g.d, h_init)
    eps_min = h_mol * min(ells)
    if eps_min < min_cells_per_eps * g.h:
        raise ValueError(
            f"mollifier width {eps_min:.3g} under-resolves the grid "
            f"(h_grid={g.h:.3g}); use a finer grid")
    y = g.axis(0)
    rows = np.zeros((len(lattice), g.n))
    for idx, W in enumerate(witnesses):
        epsm = h_mol * W.side
        wlo = W.center[0] - W.side / 2.0
        whi = W.center[0] + W.side / 2.0
        conv = mollifier_cdf((y - wlo) / epsm) - mollifier_cdf((y - whi) / epsm)
        rows[idx] = (2.0 ** k) * conv
    return UkFamily(k=k, grid=g, lattice=np.asarray(lattice), witnesses=witnesses,
                    ells=np.asarray(ells), h_mol=h_mol, alpha=mollifier_alpha(g.d),
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

    def failing(self):
        return [c for c in self.checks if not c.all_ok]


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
    radius = fam.support_radius_bound
    y = g.axis(0)
    checks = []
    for idx in range(len(fam.lattice)):
        x = float(fam.lattice[idx])
        row = fam.rows[idx]
        outside = np.abs(x - y) >= radius - 1e-12
        tail = float(np.max(np.abs(row[outside]))) if np.any(outside) else 0.0
        lip = float(np.max(np.abs(np.diff(row)))) / g.h
        p = complex(np.sum(row * b.values) * g.h ** d)
        checks.append(UkCheck(
            x=x, sup=float(np.max(np.abs(row))), sup_bound=float(sup_bound),
            support_ok=bool(tail == 0.0), worst_tail=tail,
            lip=lip, lip_bound=float(lip_bound),
            pairing=p, pairing_lo=fam.c0 / 2.0, pairing_hi=fam.b_sup))
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
    tol: float

    @property
    def smallest_admissible_C(self) -> float:
        return max(self.C_size, self.C_support, self.C_lipschitz_x)

    @property
    def symmetric_ok(self) -> bool:
        return self.symmetry_defect <= self.tol

    @property
    def pairing_ok(self) -> bool:
        return self.pairing_defect <= self.tol


def make_sk_from_uk(fam: UkFamily, b: SampledFunction) -> UkFamily:
    """u_k renormalized row-by-row so that int s(x, y) b(y) dy = 1."""
    g = fam.grid
    rows = fam.rows.astype(complex).copy()
    for i in range(rows.shape[0]):
        p = np.sum(rows[i] * b.values) * g.h ** g.d
        rows[i] = rows[i] / p
    out = UkFamily(k=fam.k, grid=g, lattice=fam.lattice, witnesses=fam.witnesses,
                   ells=fam.ells, h_mol=fam.h_mol, alpha=fam.alpha, c0=fam.c0,
                   b_sup=fam.b_sup, rows=rows)
    return out


def verify_sk_checklist(s: UkFamily, b: SampledFunction, k: int,
                        alpha_order: float = 1.0, tol: float = 1e-2) -> SkReport:
    """Numerical checks of the symmetric-family definition on sampled rows."""
    g = s.grid
    d = g.d
    y = g.axis(0)
    rows = np.asarray(s.rows)
    sup = float(np.max(np.abs(rows)))
    C_size = sup / 2.0 ** (k * d)
    supp = 0.0
    for i, x in enumerate(s.lattice):
        nz = np.abs(rows[i]) > 0
        if np.any(nz):
            supp = max(supp, float(np.max(np.abs(y[nz] - x))))
    C_support = supp * 2.0 ** k
    # Lipschitz in the first argument across adjacent lattice rows
    C_lip = 0.0
    for i in range(len(s.lattice) - 1):
        dx = abs(float(s.lattice[i + 1] - s.lattice[i]))
        if dx > 0:
            slope = float(np.max(np.abs(rows[i + 1] - rows[i]))) / dx
            C_lip = max(C_lip, slope / 2.0 ** (k * (d + alpha_order)))
    # symmetry: compare s(x_a, x_b) with s(x_b, x_a), rows interpolated in y
    def row_at(i, target):
        r = rows[i]
        return complex(np.interp(target, y, r.real), np.interp(target, y, r.imag)) \
            if np.iscomplexobj(r) else float(np.interp(target, y, r))
    sym = 0.0
    for a in range(len(s.lattice)):
        for bb in range(a + 1, len(s.lattice)):
            sym = max(sym, abs(row_at(a, s.lattice[bb]) - row_at(bb, s.lattice[a])))
    pair = 0.0
    for i in range(len(s.lattice)):
        p = np.sum(rows[i] * b.values) * g.h ** d
        pair = max(pair, abs(p - 1.0))
    return SkReport(C_size=float(C_size), C_support=float(C_support),
                    C_lipschitz_x=float(C_lip),
                    symmetry_defect=float(sym) / max(sup, 1e-300),
                    pairing_defect=float(pair), tol=tol)

"""Principal-value evaluation of linear and bilinear singular operators.

Scheme per evaluation point x (a grid point):

    sum over cells beyond the excision      K f            (midpoint rule)
  + sum over excised cells (except x's)     K (f - f(x))   (cancellation-
                                                            respecting part)
  + singular-cell odd term (d=1)            a1 f'(x) h

where a1 estimates the odd 1/u coefficient of the kernel at x from its two
neighbouring samples. For kernels with the Calderon-Zygmund cancellation the
excised-zone terms restore first-order accuracy; for kernels without it
(e.g. 1/|x-y|) the scheme leaves the divergence visible and the eps vs eps/2
convergence check flags it.

Bilinear excision uses the distance |x-y| + |x-z| to the diagonal x=y=z.

Points, subsets of grid indices and whole fields take one path, linear or
bilinear by the number of functions: validate the kernel's arity, the shared
grid and d=1 (before any index lookup); sum the whole structure or the dense
kernel rows; set the eps vs eps/2 convergence flags. Whole fields of kernels
with a lattice structure (KernelModel.lattice) are lattice sums by FFT
convolution: O(n log n) for a linear field, O(n^2 log n) for a bilinear one.
Whole linear fields of Cauchy kernels on a curve (KernelModel.curve) take the
same full off-diagonal sum from a multipole treecode, O(n p log n) with p set
so the far-field truncation is below 2^-53; both share the near-zone terms
read from K.rule on the 2 c_eps off-diagonals. Other kernels, points and
subsets of points sum their kernel rows directly, BLOCK rows at a time, O(n)
(linear) or O(n^2) (bilinear) per point; these dense rows are also the test
oracle. Memory stays O(BLOCK n) either way. Triple pairings of a kernel with
a lattice profile read the whole lattice field, whatever the support of the
outer factor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SampledFunction
from .kernels import KernelModel


@dataclass(frozen=True)
class PvPolicy:
    c_eps: int = 2              # excision radius in cells; eps = c_eps * h >= h
    convergence_check: bool = True
    tol_pv: float = 1e-2

    def __post_init__(self):
        if self.c_eps < 1:
            raise ValueError("excision must cover the singular cell: c_eps >= 1")
        if not 0 < self.tol_pv < np.inf:
            raise ValueError(f"tol_pv must be positive and finite, got {self.tol_pv}")


@dataclass(frozen=True)
class PvValue:
    value: complex
    refined: complex | None    # the eps/2 estimate, when the check ran
    converged: bool

    def __complex__(self):
        return complex(self.value)


@dataclass(frozen=True)
class FieldResult:
    field: SampledFunction
    converged: np.ndarray
    policy: PvPolicy

    @property
    def n_flagged(self) -> int:
        return int(np.sum(~self.converged))


def _grid_indices(points, n: int) -> np.ndarray:
    """A points= request as an index array; ValueError naming the first entry
    that is not an integer grid index in [0, n), before any computation."""
    rows = []
    for p in points:
        try:
            i = operator.index(p)
        except TypeError:
            i = -1
        if not 0 <= i < n:
            raise ValueError(f"points must be integer grid indices in [0, {n}): got {p}")
        rows.append(i)
    return np.array(rows, dtype=int)


BLOCK = 64          # rows per block of dense or FFT work: O(BLOCK * n) memory


def _profile(p, *uv) -> np.ndarray:
    """Real profile samples, non-finite ones set to zero."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.asarray(p(*uv))
    if np.iscomplexobj(v):
        raise ValueError("lattice profiles must be real")
    v = np.array(v, dtype=float)
    v[~np.isfinite(v)] = 0.0
    return v


def _convolve(P: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """sum_j P[..., i - j + n - 1] s_j for i < n, per row of the offset lattice P.

    Re s and Im s are transformed apart: real data gives an exactly real result.
    """
    L = 1 << (2 * n - 2).bit_length()       # >= 2n - 1: no wrap-around into the outputs
    S = np.fft.rfft(np.stack([s.real, s.imag]), L)
    c = np.fft.irfft(np.fft.rfft(P, L)[..., None, :] * S, L)[..., n - 1:2 * n - 1]
    return c[..., 0, :] + 1j * c[..., 1, :]


def _linear_tail(f, rows, h, base, near_mass, a1, ring_mass):
    """values = base - f near_mass + a1 f' h at the rows, and value(c_eps//2) - value(c_eps):
    value(c) depends on c only through the near-zone kernel mass, so that is f
    times the mass of the ring between the two excisions (empty at c_eps = 1)."""
    fp = np.zeros_like(f)
    fp[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    return base - f[rows] * near_mass + a1 * fp[rows] * h, f[rows] * ring_mass


def _linear_dense_rows(K: KernelModel, f: np.ndarray, grid: Grid, c_eps: int,
                       rows: np.ndarray):
    """(values, delta) at the given rows, from their rows of the kernel matrix."""
    n, h = grid.n, grid.h
    x = grid.axis(0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        M = np.asarray(K.rule(x[rows, None], x[None, :]), dtype=complex)
    off = np.abs(rows[:, None] - np.arange(n)[None, :])
    M[off == 0] = 0.0
    M[~np.isfinite(M)] = 0.0
    base = (M * f[None, :]).sum(axis=1) * h
    near_mass = np.where(off <= c_eps, M, 0.0 + 0.0j).sum(axis=1) * h
    a1 = np.zeros(len(rows), dtype=complex)
    k = np.nonzero((rows >= 1) & (rows <= n - 2))[0]
    a1[k] = 0.5 * h * (M[k, rows[k] + 1] - M[k, rows[k] - 1])
    ring = (off > max(1, c_eps // 2)) & (off <= c_eps)
    ring_mass = np.where(ring, M, 0.0 + 0.0j).sum(axis=1) * h
    return _linear_tail(f, rows, h, base, near_mass, a1, ring_mass)


def _lattice_sum(lattice, f: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """sum_{j != i} K(x_i, x_j) f_j at every point: one FFT convolution per lattice term."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    tables = {}             # one profile table per distinct profile, for this call only
    for left, p, right in lattice:
        if id(p) not in tables:
            tables[id(p)] = _profile(p, np.arange(1 - n, n) * h)
            tables[id(p)][n - 1] = 0.0
        t = _convolve(tables[id(p)], f if right is None else right(x) * f, n)
        out += t if left is None else left(x) * t
    return out


LEAF = 32           # treecode leaves hold LEAF to 2 LEAF - 1 points (one leaf when n < LEAF)
_EPS_LOG = 53 * np.log(2.0)     # multipole order p: rho^p <= 2^-53


def _curve_sum(curve, f: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """sum_{j != i} left(x_i) right(x_j) f_j / (z_i - z_j) at every point by a treecode.

    A binary tree on the grid index has 2^L leaves of equal size; n is padded
    with zero-weight points continued past the box end, so no z repeats. Each
    leaf sums itself and its two neighbours directly. On every level, each box
    takes its interaction list (the children of its parent's neighbours that
    are not adjacent to it: at most 3 boxes) from their outgoing moments
    a_k = sum_j w_j ((z_j - c) / R)^k about centre c with radius R. The order p
    of a level comes from its measured worst ratio rho = R / |z_t - c|, so that
    rho^p <= 2^-53. O(n p log n) work, no translation of expansions.
    """
    left, z, right = curve
    n = len(x)
    L = (max(n // LEAF, 1)).bit_length() - 1
    m = 1 << L
    N = m * -(-n // m)
    zz = np.asarray(z(np.concatenate([x, x[-1] + h * np.arange(1, N - n + 1)])), dtype=complex)
    w = np.zeros(N, dtype=complex)
    w[:n] = f if right is None else right(x) * f

    # near field: 1/(z_i - z_j) is antisymmetric, so each block pair is one reciprocal
    Z, W = zz.reshape(m, -1, 1), w.reshape(m, -1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = 1.0 / (Z - Z.transpose(0, 2, 1))
    d = np.arange(Z.shape[1])
    G[:, d, d] = 0.0
    out = G @ W
    G = 1.0 / (Z[1:] - Z[:-1].transpose(0, 2, 1))      # leaf b + 1 against leaf b
    out[1:] += G @ W[:-1]
    out[:-1] -= G.transpose(0, 2, 1) @ W[1:]
    out = out.ravel()

    for level in range(2, L + 1):
        mb = 1 << level
        Z, W = zz.reshape(mb, -1), w.reshape(mb, -1)
        c = Z.mean(axis=1)
        R = np.abs(Z - c[:, None]).max(axis=1)
        b = np.arange(mb)[:, None]
        src = b + np.where(b % 2 == 0, [[-2, 2, 3]], [[-3, -2, 2]])
        ok = (src >= 0) & (src < mb)
        src = np.where(ok, src, b)      # a placeholder, masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            V = np.where(ok[:, :, None], 1.0 / (Z[:, None, :] - c[src][:, :, None]), 0.0)
        U = R[src][:, :, None] * V      # |U| <= rho
        rho = np.abs(U).max()
        if rho >= 1.0:
            raise ValueError(f"curve too steep for the treecode: far-field ratio {rho:.3f} >= 1")
        p = max(1, int(np.ceil(_EPS_LOG / -np.log(rho))))
        D = (Z - c[:, None]) / R[:, None]
        a = np.empty((mb, p), dtype=complex)
        P = W.copy()
        for k in range(p):
            a[:, k] = P.sum(axis=1)
            P *= D
        A = a[src][:, :, :, None]
        acc = np.empty_like(U)
        acc[...] = A[:, :, p - 1]
        for k in range(p - 2, -1, -1):
            acc *= U
            acc += A[:, :, k]
        out += (acc * V).sum(axis=1).ravel()
    out = out[:n]
    return out if left is None else left(x) * out


def _linear_whole_field(K: KernelModel, f: np.ndarray, grid: Grid, c_eps: int):
    """(values, delta) at every point of a kernel with a lattice or curve structure.

    The full off-diagonal sum comes from the structure; the near-zone terms
    read K.rule on the 2 c_eps off-diagonals only.
    """
    n, h = grid.n, grid.h
    x = grid.axis(0)
    base = _lattice_sum(K.lattice, f, x, h) if K.lattice is not None else \
        _curve_sum(K.curve, f, x, h)
    ks = np.concatenate([np.arange(-c_eps, 0), np.arange(1, c_eps + 1)])
    j = np.arange(n)[:, None] + ks[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        band = np.asarray(K.rule(x[:, None], x[np.clip(j, 0, n - 1)]), dtype=complex)
    band[(j < 0) | (j >= n) | ~np.isfinite(band)] = 0.0
    a1 = np.zeros(n, dtype=complex)
    a1[1:-1] = 0.5 * h * (band[1:-1, c_eps] - band[1:-1, c_eps - 1])
    ring_mass = band[:, np.abs(ks) > max(1, c_eps // 2)].sum(axis=1) * h
    return _linear_tail(f, slice(None), h, base * h, band.sum(axis=1) * h, a1, ring_mass)


def _bilinear_point(K: KernelModel, fv: np.ndarray, gv: np.ndarray,
                    grid: Grid, i: int, c_eps: int):
    """(value, delta) at grid point i from its n x n kernel slice.

    S <= eps needs |x_i - x_j| <= eps in both slots, so the excised set and
    the ring lie in the (2 c_eps + 1)^2 window around (i, i); row-major order
    in the window is their order in the slice, so every sum keeps its order.
    """
    x = grid.axis(0)
    h = grid.h
    xi = x[i]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Kv = np.asarray(K.rule(xi, x[:, None], x[None, :]), dtype=complex)
    Kv[~np.isfinite(Kv)] = 0.0
    au = np.abs(xi - x)
    S = au[:, None] + au[None, :]
    eps = c_eps * h
    FG = np.outer(fv, gv)
    val = (Kv * FG)[S > eps].sum() * h * h
    w = slice(max(0, i - c_eps), i + c_eps + 1)
    Kw, Sw = Kv[w, w], S[w, w]
    near = (Sw <= eps) & (Sw > 0)
    val += (Kw[near] * (FG[w, w][near] - fv[i] * gv[i])).sum() * h * h
    ring = (Sw > max(1, c_eps // 2) * h) & (Sw <= eps)
    dv = fv[i] * gv[i] * Kw[ring].sum() * h * h
    return complex(val), complex(dv)


def _bilinear_lattice_field(K: KernelModel, fv: np.ndarray, gv: np.ndarray,
                            grid: Grid, c_eps: int):
    """(values, delta) at every point from the profile P(x - y, x - z).

    The whole lattice sum is taken BLOCK kernel-lattice rows p = i - j at a
    time: each row convolves P(p h, .) with g by FFT and is weighted by f
    shifted by p. The excised set and the ring are then classified by the
    same float test as _bilinear_point over the O(c_eps^2) candidate offsets.
    """
    n, h = grid.n, grid.h
    x = grid.axis(0)
    i = np.arange(n)
    q = np.arange(1 - n, n) * h
    full = np.zeros(n, dtype=complex)
    for s in range(1 - n, n, BLOCK):
        p = np.arange(s, min(s + BLOCK, n))
        P = _profile(K.lattice, p[:, None] * h, q[None, :])
        P[p == 0, n - 1] = 0.0
        j = i[None, :] - p[:, None]
        fs = np.where((j >= 0) & (j < n), fv[np.clip(j, 0, n - 1)], 0.0)
        full += (fs * _convolve(P, gv, n)).sum(axis=0)
    off = np.arange(-c_eps, c_eps + 1)
    a, b = (o.ravel()[:, None] for o in np.meshgrid(off, off))
    ja, jb = i - a, i - b
    S = np.abs(x - x[np.clip(ja, 0, n - 1)]) + np.abs(x - x[np.clip(jb, 0, n - 1)])
    S[(ja < 0) | (ja >= n) | (jb < 0) | (jb >= n)] = np.inf
    Pc = _profile(K.lattice, a * h, b * h)
    fg = fv * gv
    values = (full - fg * np.where((S > 0) & (S <= c_eps * h), Pc, 0.0).sum(axis=0)) * h * h
    ring = np.where((S > max(1, c_eps // 2) * h) & (S <= c_eps * h), Pc, 0.0).sum(axis=0)
    return values, fg * ring * h * h


def _bilinear_dense_rows(K: KernelModel, fv: np.ndarray, gv: np.ndarray, grid: Grid,
                         c_eps: int, rows: np.ndarray):
    """(values, delta) at the given rows, one n x n kernel slice per row."""
    return np.array([_bilinear_point(K, fv, gv, grid, int(i), c_eps) for i in rows]).T


def _pv(K: KernelModel, fs: tuple, policy: PvPolicy, points=None, x=None):
    """T(*fs), linear or bilinear by len(fs): a FieldResult at every grid point or
    at the grid indices points (zero and unflagged elsewhere), or a PvValue at
    the grid point x. Checks arity, grid and d before any index lookup.

    A whole field of a kernel with a lattice or curve structure is summed from
    that structure; other kernels and subsets read their kernel rows in blocks.
    """
    arity = ("linear", "bilinear")[len(fs) - 1]
    if K.arity != arity:
        raise ValueError(f"kernel {K.name} is not {arity}")
    grid = fs[0].grid
    if any(f.grid != grid for f in fs[1:]):
        raise ValueError("f and g must share a grid")
    if grid.d != 1:
        raise ValueError(f"{arity} PV quadrature is implemented for d=1 grids")
    if x is not None:
        points = [grid.index_of(x)[0]]
    vs = [f.values for f in fs]
    if points is None and (K.lattice is not None or K.curve is not None):
        whole = _linear_whole_field if arity == "linear" else _bilinear_lattice_field
        values, delta = whole(K, *vs, grid, policy.c_eps)
    else:
        dense = _linear_dense_rows if arity == "linear" else _bilinear_dense_rows
        rows = np.arange(grid.n) if points is None else _grid_indices(points, grid.n)
        values = np.zeros(grid.n, dtype=complex)
        delta = np.zeros(grid.n, dtype=complex)
        for s in range(0, len(rows), BLOCK):
            r = rows[s:s + BLOCK]
            values[r], delta[r] = dense(K, *vs, grid, policy.c_eps, r)
    conv = np.abs(delta) <= policy.tol_pv * (1.0 + np.abs(values)) \
        if policy.convergence_check else np.ones(grid.n, dtype=bool)
    if x is None:
        name = f"T[{K.name}]({','.join(f.name for f in fs)})"
        return FieldResult(field=SampledFunction(grid=grid, values=values, name=name),
                           converged=conv, policy=policy)
    i = points[0]
    v = complex(values[i])
    return PvValue(value=v, refined=v + complex(delta[i]) if policy.convergence_check else None,
                   converged=bool(conv[i]))


def apply_linear(K: KernelModel, f: SampledFunction, x, policy: PvPolicy = PvPolicy()) -> PvValue:
    """PV value of T(f)(x) = int K(x, y) f(y) dy at a grid point x; reads one kernel row."""
    return _pv(K, (f,), policy, x=x)


def apply_linear_field(K: KernelModel, f: SampledFunction,
                       policy: PvPolicy = PvPolicy(), points=None) -> FieldResult:
    """T(f) at every grid point, or at a subset of grid indices (zero and unflagged elsewhere).

    A whole field of a kernel with a lattice or curve structure costs O(n log n)
    or O(n p log n); other kernels and subsets cost O(n) per point.
    """
    return _pv(K, (f,), policy, points)


def apply_bilinear(K: KernelModel, f: SampledFunction, g: SampledFunction, x,
                   policy: PvPolicy = PvPolicy()) -> PvValue:
    """PV value of T(f, g)(x) with excision |x-y| + |x-z| > eps.

    The excision metric matches the bilinear diagonal {x=y=z}; excising the
    two one-dimensional diagonals separately would be wrong.
    """
    return _pv(K, (f, g), policy, x=x)


def apply_bilinear_field(K: KernelModel, f: SampledFunction, g: SampledFunction,
                         policy: PvPolicy = PvPolicy(),
                         points=None) -> FieldResult:
    """T(f, g) at every grid point, or at a subset of grid indices (zero and unflagged elsewhere).

    A whole field of a kernel with a lattice profile costs O(n^2 log n) in
    O(BLOCK n) memory; other kernels and subsets cost O(n^2) per point.
    """
    return _pv(K, (f, g), policy, points)


def pairing(u: SampledFunction, v: SampledFunction) -> complex:
    """Bilinear dual bracket int u v (no conjugation), midpoint rule."""
    if u.grid != v.grid:
        raise ValueError("pairing requires a common grid")
    cell = u.grid.h ** u.grid.d
    return complex(np.sum(u.values * v.values) * cell)


def triple_pairing(K: KernelModel, f0: SampledFunction, f1: SampledFunction,
                   f2: SampledFunction, b0: SampledFunction, b1: SampledFunction,
                   b2: SampledFunction, policy: PvPolicy = PvPolicy()) -> complex:
    """Excised triple sum of K(x,y,z) b0(x) f0(x) b1(y) f1(y) b2(z) f2(z)."""
    return _triple_pairing(K, f0, f1, f2, b0, b1, b2, policy)[0]


def _triple_pairing(K, f0, f1, f2, b0, b1, b2, policy) -> tuple[complex, int]:
    """triple_pairing and the number of PV-flagged points of the inner field on supp b0 f0."""
    if K.arity != "bilinear":
        raise ValueError(f"kernel {K.name} is not bilinear")
    gr = f0.grid
    for other in (f1, f2, b0, b1, b2):
        if other.grid != gr:
            raise ValueError("all six functions must share a grid")
    w0 = b0.values * f0.values
    w1 = SampledFunction(grid=gr, values=b1.values * f1.values)
    w2 = SampledFunction(grid=gr, values=b2.values * f2.values)
    support = np.nonzero(np.abs(w0) > 0)[0]
    if len(support) == 0:
        return 0.0 + 0.0j, 0
    # a whole lattice field costs less than the dense points of any sizeable support
    fr = apply_bilinear_field(K, w1, w2, policy=policy,
                              points=None if K.lattice is not None else support)
    return complex(np.sum(w0 * fr.field.values) * gr.h), int(np.sum(~fr.converged[support]))

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

Every evaluation is an operator plan applied to the functions. plan(K, grid,
policy, points) does the work that depends only on the kernel, the grid and
the policy: the lattice profile tables, the treecode geometry, the band
K.rule values with the a1, near and ring masses, and for explicit linear
points each point's kernel row; the cells a bilinear point reads depend on
the supports of f and g, so its plan holds its rows only. Applying it,
plan(f) or plan(f, g), does the work that depends on the functions and
sets the eps vs eps/2 convergence flags; a
bilinear point's sum is np.sum's pairwise sum of its products, formed
_SUM_LEAF at a time, so applying builds no n x n temporary. A plan is
immutable and its arrays are read-only, so no application changes it; its
caller owns it and nothing is cached, so it lives as long as the caller
keeps it. plans(kernels, grid, policy, points) builds several kernels' plans
on one grid together: within that one call they share one lattice profile
table per profile (a linear transpose's Transposed profile reads its
source's table reversed), one sheared spectrum per bilinear source profile
(K, K*1 and K*2 hold one) and one treecode geometry per curve z, and plan()
is its one-kernel case. A sweep makes one plans() call per row grid, over the
kernels of every experiment with rows there (T and T* of a Stein sweep, and
T again for the wbp rows of a report), and applies them to its rows;
apply_linear_field and friends build a plan and apply it once,
per BLOCK rows (linear) or per point (bilinear) when points are given, so a
one-shot call holds O(BLOCK n) or O(|supp f| |hull supp g|) at a time.
Every bilinear point, one-shot or of a plan, is summed on one path: it
reads K.rule once on the rows of supp f and the columns of the hull of
supp g that its inputs need, and at its excised cells (_chunked).
plan() states what each kind of plan holds and its size.

Whole fields of kernels with a lattice structure (KernelModel.lattice) are
lattice sums by FFT convolution. A linear field costs O(n log n). A bilinear
plan holds the 2D spectrum of its source profile's table, sheared so that
the diagonal x = y = z lies along one axis: it is built in O(n^2 log n) and
applied in O(n^2), trading O(n^2) memory for O(n^2) applications. A plan
contracts it along the axis of the slot its output takes in the source
kernel: the columns for the kernel itself, the rows or the diagonals for a
transpose (a bilinear Transposed profile names its source and the
permutation of (x, y, z) it applies). Whole
linear fields of Cauchy kernels on a curve (KernelModel.curve) take the same
full off-diagonal sum from a multipole treecode, O(n p log n) with p set so
the far-field truncation is below 2^-53; both linear paths share the
near-zone terms read from K.rule on the 2 c_eps off-diagonals. Other
kernels, points and subsets of points sum their kernel rows directly, O(n)
(linear) or O(|supp f| n) (bilinear) per point: a bilinear point skips the
rows y where f(y) = 0, whose products are exact zeros, and reads K.rule
only on supp f x the hull of supp g and at its excised cells,
with every bit of its value kept; these dense rows are also the test
oracle. Triple pairings build no plan: for a lattice kernel they read one
profile table over the offsets between the supports, for a kernel with only
a rule they sum K.rule over the index hulls of the supports (triple_pairing
states both costs).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, SampledFunction
from .kernels import KernelModel, Transposed


def _as_index(v) -> int | None:
    """v as a Python int when it is an integer (a bool is not), else None."""
    try:
        return None if isinstance(v, (bool, np.bool_)) else operator.index(v)
    except TypeError:
        return None


@dataclass(frozen=True)
class PvPolicy:
    c_eps: int = 2              # excision radius in cells; eps = c_eps * h >= h
    tol_pv: float = 1e-2

    def __post_init__(self):
        if _as_index(self.c_eps) is None:
            raise ValueError(f"c_eps must be an integer, got {self.c_eps!r}")
        if self.c_eps < 1:
            raise ValueError("excision must cover the singular cell: c_eps >= 1")
        if not 0 < self.tol_pv < np.inf:
            raise ValueError(f"tol_pv must be positive and finite, got {self.tol_pv}")

    @property
    def c_refined(self) -> int:
        """The refined excision radius in cells, eps/2 rounded down and at least one
        cell; the eps vs eps/2 check compares the values at the two radii."""
        return max(1, self.c_eps // 2)


@dataclass(frozen=True)
class PvValue:
    value: complex
    refined: complex           # the eps/2 estimate
    converged: bool

    def __complex__(self):
        return complex(self.value)


@dataclass(frozen=True)
class FieldResult:
    field: SampledFunction
    converged: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(np.sum(~self.converged))


def _grid_indices(points, n: int) -> np.ndarray:
    """A points= request as an index array; ValueError naming the first entry
    that is not an integer grid index in [0, n) (a bool is not), before any
    computation."""
    rows = []
    for p in points:
        i = _as_index(p)
        if i is None or not 0 <= i < n:
            raise ValueError(f"points must be integer grid indices in [0, {n}): got {p}")
        rows.append(i)
    return np.array(rows, dtype=int)


def _check_grid(K: KernelModel, grid: Grid) -> None:
    if grid.d != 1:
        raise ValueError(f"{K.arity} PV quadrature is implemented for d=1 grids")


def _check_functions(K: KernelModel, fs: tuple) -> Grid:
    """The grid of fs, after checking that K takes len(fs) functions and that
    they share one d = 1 grid."""
    arity = ("linear", "bilinear")[len(fs) - 1] if len(fs) in (1, 2) else f"{len(fs)}-linear"
    if K.arity != arity:
        raise ValueError(f"kernel {K.name} is not {arity}")
    grid = fs[0].grid
    if any(f.grid != grid for f in fs[1:]):
        raise ValueError("f and g must share a grid")
    _check_grid(K, grid)
    return grid


BLOCK = 64          # rows per block of dense or FFT work: O(BLOCK * n) memory


def _arrays(parts):
    """The numpy arrays in a plan's parts: nested dicts and tuples of arrays and scalars."""
    if isinstance(parts, np.ndarray):
        yield parts
    elif isinstance(parts, (dict, tuple)):
        for p in parts.values() if isinstance(parts, dict) else parts:
            yield from _arrays(p)


@dataclass(frozen=True, eq=False)
class Plan:
    """The kernel-side work of T on one grid under one policy, done once.

    plan(f) (linear) or plan(f, g) (bilinear) is the FieldResult that
    apply_linear_field / apply_bilinear_field return for the same kernel,
    policy and points, bit for bit. rows are the planned grid indices, or None
    for the whole field; the field is zero and unflagged off the rows. The
    arrays in parts are read-only, so no application changes a plan, and the
    plans of one plans() call may share some; its caller owns it, and nothing
    is cached anywhere else.
    """
    kernel: KernelModel
    grid: Grid
    policy: PvPolicy
    rows: np.ndarray | None
    parts: dict = field(repr=False)
    sums: object = field(repr=False)    # sums(plan, values of fs, values, delta) fills the rows

    @property
    def nbytes(self) -> int:
        """Bytes held by the plan's arrays (an array shared by two terms counts once)."""
        return sum(a.nbytes for a in {id(a): a for a in _arrays(self.parts)}.values())

    def __call__(self, *fs: SampledFunction) -> FieldResult:
        if _check_functions(self.kernel, fs) != self.grid:
            raise ValueError("the functions are not on the plan's grid")
        values = np.zeros(self.grid.n, dtype=complex)
        delta = np.zeros(self.grid.n, dtype=complex)
        self.sums(self, [f.values for f in fs], values, delta)
        return _result(self.kernel, fs, self.policy, values, delta)


def plan(K: KernelModel, grid: Grid, policy: PvPolicy = PvPolicy(), points=None) -> Plan:
    """The plan of T on grid at every point, or at the grid indices points:
    plans((K,), grid, policy, points)[0].

    What it holds, by case (n grid points, 16 bytes per complex):
    - explicit points, linear: each point's scrubbed kernel row and its near,
      a1 and ring masses, 16 n + 48 bytes per point;
    - explicit points, bilinear: nothing but the rows, with no K.rule read,
      as the cells a point reads depend on its inputs; each apply reads and
      sums one point's hull block at a time, as a whole field without a
      structure does (below);
    - a whole linear field with a lattice structure: the spectrum of one
      profile table per distinct profile and each term's factors on the grid;
      with a curve structure, the treecode's geometry (near-field reciprocals
      and per level the moments' shifts and ratios), O(n log n); in both cases
      the band K.rule values as the near, a1 and ring masses;
    - a whole bilinear field with a lattice profile: the sheared 2D spectrum
      of the (2n - 1)^2 table of its source profile (its own, or the one its
      Transposed profile names), 16 L (L/2 + 1) bytes with L the smallest
      2^a 3^b >= 2n - 1, built in O(n^2 log n) and held by reference, so the
      plans of K, K*1 and K*2 from one plans() call hold one copy; and its own
      near and ring weights of every point, 16 n bytes; applying it costs
      O(n^2) and holds O(L) and a _SLICE_BYTES block more;
    - a whole field of a kernel without a structure: nothing; each apply plans
      and sums BLOCK rows (linear), or reads and sums one point's hull block
      (bilinear: O(|supp f| |hull supp g|) kernel reads and memory and
      O(|supp f| n) products per point, _chunked) at a time.
    Checks d = 1 and the points before any kernel evaluation.
    """
    return plans((K,), grid, policy, points)[0]


def plans(kernels, grid: Grid, policy: PvPolicy = PvPolicy(), points=None) -> list:
    """The plans of the kernels on one grid under one policy, in order: each is
    bit for bit the plan() of its kernel and holds what plan() states, but
    they are built together, sharing read-only work within this one call.

    Whole fields with a structure share:
    - one linear lattice profile table per distinct profile, evaluated once;
      a Transposed profile (a linear transpose's) reads its source's table
      reversed, exactly, as arange(1 - n, n) h is antisymmetric. A plan holds
      the spectra of its tables, so tables are not held past the build;
    - one sheared spectrum per bilinear source profile, held by every plan
      that reads it: K, K*1, K*2 and any composed transpose of K hold one
      copy, and each contracts it along its own output slot; and one
      excision window, from which each plan sums its own profile's near and
      ring weights;
    - one treecode geometry per curve z (the near-field reciprocals and the
      levels), held by every plan of that z: T and T* hold one copy.
    Nothing outlives the call: the next call makes its own tables, spectra
    and geometry. Checks d = 1 and the points before any kernel evaluation.
    """
    kernels = tuple(kernels)
    for K in kernels:
        _check_grid(K, grid)
    rows = None if points is None else _grid_indices(points, grid.n)
    shared = {}
    return [_plan(K, grid, policy, rows, shared) for K in kernels]


def _plan(K: KernelModel, grid: Grid, policy: PvPolicy, rows, shared: dict) -> Plan:
    """K's plan; a whole field with a structure reads and fills shared, the
    tables, spectra, window and geometry of the plans built with it."""
    linear = K.arity == "linear"
    if linear and rows is not None:
        parts, sums = _linear_rows(K, grid, policy, rows), _linear_rows_sums
    elif linear and (K.lattice is not None or K.curve is not None):
        parts, sums = _linear_structure(K, grid, policy, shared), _linear_structure_sums
    elif not linear and K.lattice is not None and rows is None:
        parts, sums = _bilinear_lattice(K, grid, policy, shared), _bilinear_lattice_sums
    else:
        parts, sums = {}, _dense_field_sums
    for a in _arrays((rows, parts)):
        a.setflags(write=False)
    return Plan(kernel=K, grid=grid, policy=policy, rows=rows, parts=parts, sums=sums)


def _chunked(K: KernelModel, grid: Grid, policy: PvPolicy, rows: np.ndarray, vs,
             values: np.ndarray, delta: np.ndarray) -> None:
    """The rows' sums, each build applied once and freed before the next: one
    plan per BLOCK rows (linear), O(BLOCK n) memory at a time, or one hull
    block per bilinear point (_slice_sums). When f and g are finite a point
    reads K.rule once on supp f x hull supp g and at its excised cells, and
    is summed only over the subtrees that meet supp f:
    O(|supp f| |hull supp g|) kernel reads and memory and O(|supp f| n)
    products per point, rounded out to whole leaves, with every value bit
    for bit that of a full slice. Such a block depends on f and g, so it is
    no Plan: a bilinear plan of points or of a field without a structure
    holds nothing and reads its blocks here on every application."""
    if K.arity == "bilinear":
        _slice_sums(K, grid, policy, rows, vs, values, delta)
        return
    for s in range(0, len(rows), BLOCK):
        p = _plan(K, grid, policy, rows[s:s + BLOCK], {})
        p.sums(p, vs, values, delta)
        del p       # freed before the next one is built: one at a time


def _dense_field_sums(p: Plan, vs, values, delta) -> None:
    rows = np.arange(p.grid.n) if p.rows is None else p.rows
    _chunked(p.kernel, p.grid, p.policy, rows, vs, values, delta)


def _result(K: KernelModel, fs: tuple, policy: PvPolicy, values: np.ndarray,
            delta: np.ndarray) -> FieldResult:
    """The field of the values, flagged where the eps vs eps/2 change delta is large."""
    name = f"T[{K.name}]({','.join(f.name for f in fs)})"
    return FieldResult(field=SampledFunction(grid=fs[0].grid, values=values, name=name),
                       converged=_converged(policy, values, delta))


def _converged(policy: PvPolicy, values, delta) -> np.ndarray:
    """The eps vs eps/2 check: converged where |delta| <= tol_pv (1 + |value|)."""
    return np.abs(delta) <= policy.tol_pv * (1.0 + np.abs(values))


def _sample(rule, *args, dtype=None) -> np.ndarray:
    """rule(*args) as a new array (of dtype when given), non-finite values set
    to zero: every kernel and profile sample of a plan is read through here."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.array(rule(*args), dtype=dtype)
    v[~np.isfinite(v)] = 0.0
    return v


def _profile(p, *uv) -> np.ndarray:
    """Real profile samples, non-finite ones set to zero."""
    v = _sample(p, *uv)
    if np.iscomplexobj(v):
        raise ValueError("lattice profiles must be real")
    return v.astype(float, copy=False)


def _spectrum(P: np.ndarray, n: int) -> np.ndarray:
    """rfft of each row of an offset-lattice table P, at a length >= 2n - 1 so
    that the convolution does not wrap around into the outputs."""
    return np.fft.rfft(P, 1 << (2 * n - 2).bit_length())


def _convolve(FP: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_j P[..., i - j + n - 1] s_j for i < n = len(s), per row of the table
    whose spectrum (from _spectrum) is FP.

    Re s and Im s are transformed apart: real data gives an exactly real result.
    """
    n, L = len(s), 2 * (FP.shape[-1] - 1)
    S = np.fft.rfft(np.stack([s.real, s.imag]), L)
    c = np.fft.irfft(FP[..., None, :] * S, L)[..., n - 1:2 * n - 1]
    return c[..., 0, :] + 1j * c[..., 1, :]


def _linear_tail(f, rows, h, base, near_mass, a1, ring_mass):
    """values = base - f near_mass + a1 f' h at the rows, and value(c_refined) - value(c_eps):
    value(c) depends on c only through the near-zone kernel mass, so that is f
    times the mass of the ring between the two excisions (empty at c_eps = 1)."""
    fp = np.zeros_like(f)
    fp[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    return base - f[rows] * near_mass + a1 * fp[rows] * h, f[rows] * ring_mass


def _linear_rows(K: KernelModel, grid: Grid, policy: PvPolicy, rows: np.ndarray) -> dict:
    """Per block of BLOCK rows: the rows of the kernel matrix, zero on the
    diagonal and where not finite, and their near, a1 and ring masses. The rule
    is called once per block, as the rows of a block are summed together."""
    n, h, c_eps = grid.n, grid.h, policy.c_eps
    x = grid.axis(0)
    blocks = []
    for s in range(0, len(rows), BLOCK):
        r = rows[s:s + BLOCK]
        M = _sample(K.rule, x[r, None], x[None, :], dtype=complex)
        off = np.abs(r[:, None] - np.arange(n)[None, :])
        M[off == 0] = 0.0
        near_mass = np.where(off <= c_eps, M, 0.0 + 0.0j).sum(axis=1) * h
        a1 = np.zeros(len(r), dtype=complex)
        k = np.nonzero((r >= 1) & (r <= n - 2))[0]
        a1[k] = 0.5 * h * (M[k, r[k] + 1] - M[k, r[k] - 1])
        ring = (off > policy.c_refined) & (off <= c_eps)
        ring_mass = np.where(ring, M, 0.0 + 0.0j).sum(axis=1) * h
        blocks.append((M, near_mass, a1, ring_mass))
    return {"blocks": tuple(blocks)}


def _linear_rows_sums(p: Plan, vs, values, delta) -> None:
    (f,) = vs
    h = p.grid.h
    for s, (M, near_mass, a1, ring_mass) in zip(range(0, len(p.rows), BLOCK),
                                                p.parts["blocks"]):
        r = p.rows[s:s + BLOCK]
        base = (M * f[None, :]).sum(axis=1) * h
        values[r], delta[r] = _linear_tail(f, r, h, base, near_mass, a1, ring_mass)


def _factor(g, x):
    """A left or right factor on the grid; None stands for a factor of one."""
    return None if g is None else g(x)


def _lattice_plan(lattice, x: np.ndarray, h: float, shared: dict) -> dict:
    """One profile table per distinct profile, as its spectrum, and each term's
    factors on the grid; the table is zero at offset 0 (the j = i cell). A
    profile's table is made once per shared, and a Transposed profile's is
    its source's reversed: offset k is -(offset 2n - 2 - k), exactly."""
    n = len(x)

    def table(p):
        if isinstance(p, Transposed):
            return table(p.source)[::-1]
        if ("table", id(p)) not in shared:
            shared["table", id(p)] = t = _profile(p, np.arange(1 - n, n) * h)
            t[n - 1] = 0.0
        return shared["table", id(p)]

    spectra, terms = {}, []
    for left, p, right in lattice:
        if id(p) not in spectra:
            spectra[id(p)] = _spectrum(table(p), n)
        terms.append((_factor(left, x), spectra[id(p)], _factor(right, x)))
    return {"terms": tuple(terms)}


def _lattice_sum(parts: dict, f: np.ndarray) -> np.ndarray:
    """sum_{j != i} K(x_i, x_j) f_j at every point: one FFT convolution per lattice term."""
    n = len(f)
    out = np.zeros(n, dtype=complex)
    for left, FP, right in parts["terms"]:
        t = _convolve(FP, f if right is None else right * f)
        out += t if left is None else left * t
    return out


LEAF = 32           # treecode leaves hold LEAF to 2 LEAF - 1 points (one leaf when n < LEAF)
_EPS_LOG = 53 * np.log(2.0)     # multipole order p: rho^p <= 2^-53


def _curve_plan(curve, x: np.ndarray, h: float, shared: dict) -> dict:
    """The treecode's geometry for sum_{j != i} left(x_i) right(x_j) f_j / (z_i - z_j),
    made once per z and shared, and the factors on the grid."""
    left, z, right = curve
    if ("curve", id(z)) not in shared:
        shared["curve", id(z)] = _treecode_geometry(z, x, h)
    return dict(shared["curve", id(z)], left=_factor(left, x), right=_factor(right, x))


def _treecode_geometry(z, x: np.ndarray, h: float) -> dict:
    """The treecode's geometry for sums over 1 / (z_i - z_j).

    A binary tree on the grid index has 2^L leaves of equal size; n is padded
    with zero-weight points continued past the box end, so no z repeats. Each
    leaf sums itself and its two neighbours directly. On every level, each box
    takes its interaction list (the children of its parent's neighbours that
    are not adjacent to it: at most 3 boxes) from their outgoing moments
    a_k = sum_j w_j ((z_j - c) / R)^k about centre c with radius R. The order p
    of a level comes from its measured worst ratio rho = R / |z_t - c|, so that
    rho^p <= 2^-53. O(n p log n) work, no translation of expansions.

    Held: the near-field reciprocals of each leaf with itself and with the
    next leaf, and per level the source boxes, V = 1 / (z_t - c), U = R V,
    the scaled offsets (z - c) / R and p.
    """
    n = len(x)
    L = (max(n // LEAF, 1)).bit_length() - 1
    m = 1 << L
    N = m * -(-n // m)
    zz = np.asarray(z(np.concatenate([x, x[-1] + h * np.arange(1, N - n + 1)])), dtype=complex)
    # near field: 1/(z_i - z_j) is antisymmetric, so each block pair is one reciprocal
    Z = zz.reshape(m, -1, 1)
    G = Z - Z.transpose(0, 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, G, out=G)
    d = np.arange(Z.shape[1])
    G[:, d, d] = 0.0
    G1 = Z[1:] - Z[:-1].transpose(0, 2, 1)      # leaf b + 1 against leaf b
    np.divide(1.0, G1, out=G1)
    levels = []
    for level in range(2, L + 1):
        mb = 1 << level
        Z = zz.reshape(mb, -1)
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
        levels.append((src, V, U, (Z - c[:, None]) / R[:, None], p))
    return {"near": (G, G1), "levels": tuple(levels)}


def _curve_sum(parts: dict, f: np.ndarray) -> np.ndarray:
    """sum_{j != i} left(x_i) right(x_j) f_j / (z_i - z_j) at every point by the treecode."""
    G, G1 = parts["near"]
    m, n = len(G), len(f)
    w = np.zeros(m * G.shape[1], dtype=complex)
    w[:n] = f if parts["right"] is None else parts["right"] * f
    W = w.reshape(m, -1, 1)
    out = G @ W
    out[1:] += G1 @ W[:-1]
    out[:-1] -= G1.transpose(0, 2, 1) @ W[1:]
    out = out.ravel()
    work = np.empty(3 * len(w), dtype=complex)      # each level's U and V hold 3 boxes per box
    for src, V, U, D, p in parts["levels"]:
        W = w.reshape(len(V), -1)
        a = np.empty((len(V), p), dtype=complex)
        P = W.copy()
        for k in range(p):
            a[:, k] = P.sum(axis=1)
            P *= D
        A = a[src][:, :, :, None]
        acc = work.reshape(U.shape)
        acc[...] = A[:, :, p - 1]
        for k in range(p - 2, -1, -1):
            acc *= U
            acc += A[:, :, k]
        out += np.multiply(acc, V, out=acc).sum(axis=1).ravel()
    out = out[:n]
    return out if parts["left"] is None else parts["left"] * out


def _linear_structure(K: KernelModel, grid: Grid, policy: PvPolicy, shared: dict) -> dict:
    """The lattice tables or the treecode geometry of the full off-diagonal sum
    (shared with the plans built with it), and the near, a1 and ring masses
    read from K.rule on the 2 c_eps off-diagonals."""
    n, h, c_eps = grid.n, grid.h, policy.c_eps
    x = grid.axis(0)
    parts = _lattice_plan(K.lattice, x, h, shared) if K.lattice is not None else \
        _curve_plan(K.curve, x, h, shared)
    ks = np.concatenate([np.arange(-c_eps, 0), np.arange(1, c_eps + 1)])
    j = np.arange(n)[:, None] + ks[None, :]
    band = _sample(K.rule, x[:, None], x[np.clip(j, 0, n - 1)], dtype=complex)
    band[(j < 0) | (j >= n)] = 0.0
    a1 = np.zeros(n, dtype=complex)
    a1[1:-1] = 0.5 * h * (band[1:-1, c_eps] - band[1:-1, c_eps - 1])
    return dict(parts, near_mass=band.sum(axis=1) * h, a1=a1,
                ring_mass=band[:, np.abs(ks) > policy.c_refined].sum(axis=1) * h)


def _linear_structure_sums(p: Plan, vs, values, delta) -> None:
    (f,) = vs
    P = p.parts
    base = _lattice_sum(P, f) if "terms" in P else _curve_sum(P, f)
    values[:], delta[:] = _linear_tail(f, slice(None), p.grid.h, base * p.grid.h,
                                       P["near_mass"], P["a1"], P["ring_mass"])


# A bilinear point's rule temporaries, made per block of rows, and the blocks of
# a bilinear lattice plan's table and contraction stay well under malloc's
# default 128 KB mmap threshold, so that their cost does not depend on how far
# the allocator has raised it; a point's sum buffers are made once per apply,
# its hull block once per point and the block's rows once per leaf.
_SLICE_BYTES = 1 << 16      # bytes per temporary of the bilinear rule and lattice blocks
_SUM_LEAF = 3 << 12         # complex products per np.sum call: 16 calls per point at n = 384


def _excision_window(x: np.ndarray, rows: np.ndarray, c_eps: int):
    """The bilinear excision of every bilinear plan: per row i, the (2 c_eps + 1)^2
    window cells (j, k) = (i + p, i + q), |p|, |q| <= c_eps, row-major, and
    S = |x_i - x_j| + |x_i - x_k| there (inf off the grid). A cell is excised
    where S <= eps = c_eps h, and in the ring where also S > c_refined h. S <= eps
    needs |x_i - x_j| <= eps in both slots, so the window holds every excised
    cell, in their order in the n x n slice."""
    n = len(x)
    off = np.arange(-c_eps, c_eps + 1)
    j = rows[:, None] + np.repeat(off, len(off))
    k = rows[:, None] + np.tile(off, len(off))
    xi = x[rows, None]
    S = np.abs(xi - x[np.clip(j, 0, n - 1)]) + np.abs(xi - x[np.clip(k, 0, n - 1)])
    S[(j < 0) | (j >= n) | (k < 0) | (k >= n)] = np.inf
    return j, k, S


def _window_masses(V: np.ndarray, S: np.ndarray, policy: PvPolicy, h: float):
    """Per row, the sums of the window's kernel values V over the excised
    cells other than the point's own, 0 < S <= eps, and over the ring,
    c_refined h < S <= eps (_excision_window)."""
    eps = policy.c_eps * h
    return (np.where((S > 0) & (S <= eps), V, 0.0).sum(axis=1),
            np.where((S > policy.c_refined * h) & (S <= eps), V, 0.0).sum(axis=1))


def _window_profile(P, c_eps: int, h: float) -> np.ndarray:
    """The profile at the offsets (x_i - x_j, x_i - x_k) of the excision window's
    cells (_excision_window), one row that every point of a lattice kernel
    shares."""
    off = np.arange(-c_eps, c_eps + 1)
    return _profile(P, -np.repeat(off, len(off))[None] * h, -np.tile(off, len(off))[None] * h)


def _pairwise_sum(part, start: int, count: int, live=None) -> complex:
    """part(start, count).sum() over the whole range in np.sum's order, holding
    at most _SUM_LEAF values at a time. np.sum adds a contiguous complex array
    pairwise: a run of more than 64 values splits after half of its 2 count
    doubles, rounded down to a multiple of 8, and a run of at most _SUM_LEAF
    values is summed by np.sum itself (test_pairwise_sum_is_np_sum and the
    slice oracle tests check the order).

    A range where live(start, count) is false must hold only zeros, of either
    sign; it is 0j, and part is not called for it. np.sum adds from +0, so it
    sums zeros to +0 and never returns -0: 0j is the range's own sum, and the
    total keeps every bit."""
    if live is not None and not live(start, count):
        return 0j
    if count <= _SUM_LEAF:
        return part(start, count).sum()
    half = (count - count % 8) // 2
    return _pairwise_sum(part, start, half, live) + \
        _pairwise_sum(part, start + half, count - half, live)


def _live_rows(vs):
    """The rows y with f_y != 0, when f and g are all finite, else None. Each
    cell (y, z) of another row then has the exact product 0 with any finite
    kernel value, so a bilinear point may skip those rows; a NaN or inf must
    reach the sums as before, so nothing is skipped when one is present."""
    fv, gv = vs
    return fv != 0 if np.isfinite(fv).all() and np.isfinite(gv).all() else None


def _rule_block(K: KernelModel, x: np.ndarray, i, ys: np.ndarray, cols: slice) -> np.ndarray:
    """K.rule at (x_i, x_y, x_z) for y in ys and z in cols, zero where not
    finite and float64 while the rule returns real values, read in blocks of
    rows whose float temporaries stay under _SLICE_BYTES: a bilinear point's
    hull block (_slice_sums)."""
    width = cols.stop - cols.start
    B = np.zeros((len(ys), width))
    step = max(1, _SLICE_BYTES // (8 * max(1, width)))
    for r0 in range(0, len(ys) if width else 0, step):
        Kb = _sample(K.rule, x[i], x[ys[r0:r0 + step], None], x[None, cols])
        if np.iscomplexobj(Kb) and not np.iscomplexobj(B):
            B = B.astype(complex)       # a rule whose values are complex
        B[r0:r0 + step] = Kb
    return B


def _slice_sums(K: KernelModel, grid: Grid, policy: PvPolicy, rows, vs, values,
                delta) -> None:
    """Per point i of rows, (K * np.outer(f, g))[S > eps].sum() over its whole
    slice, element for element and in the same order, from _SUM_LEAF products
    at a time, plus the terms of its excised cells, S <= eps, from one
    _excision_window of all the rows, whose row-major order is their order in
    the slice.

    A point reads K.rule once at its excised cells and once into one block B
    (_rule_block) on the live rows ys, supp f, and the columns cols, the index
    hull of supp g, or on every row and column when live is None
    (_live_rows). The f(y) g(z) under a leaf are the whole rows y0:y1 of
    np.outer(f, g) that it touches, formed by one broadcast product into a
    reused buffer, multiplied by those rows of the slice, B on them and zero
    elsewhere, and compacted to the leaf's cells beyond the excision. With f
    and g finite the product at a cell off B is 0 times a zero: a zero as in
    the full slice, maybe of the other sign, which np.sum, adding from +0,
    sums to the same bits (_pairwise_sum). The f(y) g(z) and product buffers
    stay allocated across the points of one application; a point's block is
    freed before the next point's is read, and its rows are made per leaf.

    With live, a subtree of the pairwise sum whose cells lie only in rows with
    f_y == 0 holds only exact zeros, and _pairwise_sum takes it as 0j without
    forming its products: a point costs O(|supp f| n), rounded out to whole
    leaves, with the value of the full sum bit for bit. The rows that a
    subtree touches are counted from a prefix count of the live rows, made
    once per application."""
    fv, gv = vs
    x, n, h = grid.axis(0), grid.n, grid.h
    live = _live_rows(vs)
    ys, H = (np.arange(n),) * 2 if live is None else (np.flatnonzero(live), _hull(gv != 0))
    cols = slice(H[0], H[-1] + 1) if len(H) else slice(0, 0)
    nz = None if live is None else np.concatenate([[0], np.cumsum(live)])
    FG = np.empty((0, n), dtype=complex)     # the rows of f (x) g under one leaf
    prod = np.empty(min(_SUM_LEAF, n * n), dtype=complex)
    for i, j, k, S in zip(rows, *_excision_window(x, rows, policy.c_eps)):
        at = S <= policy.c_eps * h
        cut, S = (j * n + k)[at], S[at]
        Kcut = _sample(K.rule, x[i], x[j[at]], x[k[at]], dtype=complex)
        B = _rule_block(K, x, i, ys, cols)
        if len(FG) < (m := -(-(len(prod) + len(cut)) // n) + 1):    # the rows a leaf spans
            FG = np.empty((m, n), dtype=complex)
        before = cut - np.arange(len(cut))      # far cells before each excised cell

        def flat(o0, count):
            """The far cells o0:o0 + count as the flat cells lo:hi less cut[a:b]."""
            a, b = before.searchsorted((o0, o0 + count - 1), side="right").tolist()
            return a, b, o0 + a, o0 + count + b

        def products(o0, count):
            """The products at the far cells o0:o0 + count, the flat cells
            lo:hi less cut[a:b], compacted into prod by one small mask over
            the span of the excised cells when there are any."""
            if count == 0:          # every cell of a small grid is excised
                return prod[:0]
            a, b, lo, hi = flat(o0, count)
            y0, y1 = lo // n, -(-hi // n)
            p0, p1 = ys.searchsorted((y0, y1)).tolist()
            T = np.zeros((y1 - y0, n), dtype=B.dtype)
            T[ys[p0:p1] - y0, cols] = B[p0:p1]
            t = np.multiply(fv[y0:y1, None], gv, out=FG[:y1 - y0])
            t = np.multiply(T, t, out=t).ravel()[lo - y0 * n:]
            if a == b:
                return t[:count]
            s, e = cut[a] - lo, cut[b - 1] - lo + 1
            keep = np.ones(e - s, dtype=bool)
            keep[cut[a:b] - lo - s] = False
            prod[:s] = t[:s]
            prod[e - (b - a):count] = t[e:hi - lo]
            np.compress(keep, t[s:e], out=prod[s:e - (b - a)])
            return prod[:count]

        def meets_f(o0, count):
            _, _, lo, hi = flat(o0, count)
            return nz[-(-hi // n)] > nz[lo // n]

        fgi = fv[i] * gv[i]
        val = _pairwise_sum(products, 0, n * n - len(cut),
                            None if nz is None else meets_f) * h * h
        near = cut[S > 0]
        val += (Kcut[S > 0] * (fv[near // n] * gv[near % n] - fgi)).sum() * h * h
        values[i], delta[i] = val, fgi * Kcut[S > policy.c_refined * h].sum() * h * h
        del B           # freed before the next point's block is read


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b >= m."""
    best, p3 = 1 << (m - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-m // p3) - 1).bit_length())
        p3 *= 3
    return best


def _sheared_spectrum(P, n: int, h: float) -> np.ndarray:
    """The sheared 2D spectrum Q of the profile table of P.

    The table T(a, b) = P((a - n + 1) h, (b - n + 1) h), a, b < 2n - 1, zero at
    a = b = n - 1 and zero-padded to L x L, is sheared to q(r, t) = T((r + t)
    mod L, t) and held as Q = fft2(q) over the columns t = 0..L/2 of rfft;
    then Q[w, s] = T^(w, s - w). q is made and transformed a few rows at a
    time, and Q along w a few columns at a time, in place: each temporary
    stays under _SLICE_BYTES, so the L x L real table is never held.
    """
    m = 2 * n - 1
    L = _fft_length(m)
    u = np.arange(1 - n, n) * h
    # row r of q reads T's rows (r + t) mod L: windows of the doubled row offsets
    rows_u = sliding_window_view(np.concatenate([u, np.zeros(L - m)] * 2), m)
    inside = sliding_window_view(np.arange(2 * L) % L < m, m)
    Q = np.empty((L, L // 2 + 1), dtype=complex)
    step = max(1, _SLICE_BYTES // (8 * L))
    for r0 in range(0, L, step):
        r1 = min(r0 + step, L)
        q = _profile(P, rows_u[r0:r1], u)
        q[~inside[r0:r1]] = 0.0
        if r0 == 0:
            q[0, n - 1] = 0.0       # T(n - 1, n - 1), the cell j = k = i
        Q[r0:r1] = np.fft.rfft(q, L)
    step = max(1, _SLICE_BYTES // (16 * L))
    for c0 in range(0, L // 2 + 1, step):
        Q[:, c0:c0 + step] = np.fft.fft(Q[:, c0:c0 + step], axis=0)
    return Q


def _bilinear_lattice(K: KernelModel, grid: Grid, policy: PvPolicy, shared: dict) -> dict:
    """The sheared spectrum Q of the source profile (_sheared_spectrum: K's own
    profile, or the one its Transposed marker names), made once per shared
    and held by every plan that reads it; the permutation of the source
    kernel's arguments that K applies; and K's own weights, its profile
    summed over the excised offsets and over the ring, per point. The
    excised set and the ring are those of a dense point (_excision_window),
    whose window is made once per shared."""
    n, h = grid.n, grid.h
    P = K.lattice
    source, perm = (P.source, P.perm) if isinstance(P, Transposed) else (P, (0, 1, 2))
    if "window" not in shared:
        shared["window"] = _excision_window(grid.axis(0), np.arange(n), policy.c_eps)
    if ("spectrum", id(source)) not in shared:
        shared["spectrum", id(source)] = _sheared_spectrum(source, n, h)
    near, ring = _window_masses(_window_profile(P, policy.c_eps, h), shared["window"][2],
                                policy, h)
    return {"Q": shared["spectrum", id(source)], "perm": perm, "near": near, "ring": ring}


def _bilinear_lattice_sums(p: Plan, vs, values, delta) -> None:
    """The whole lattice sum of the source kernel with its output on slot
    perm.index(0) and f, g on slots perm.index(1), perm.index(2), less f g
    times the plan's near weight.

    Re and Im of f and g are paired apart (_SLOT_SUMS), so each pair is real
    data and gives an exactly real sum.
    """
    n, h = p.grid.n, p.grid.h
    perm = p.parts["perm"]
    ins = [None] * 3
    ins[perm.index(1)], ins[perm.index(2)] = (np.stack([v.real, v.imag]) for v in vs)
    c = _SLOT_SUMS[perm.index(0)](p.parts["Q"], ins, n)
    full = (c[0, 0] - c[1, 1]) + 1j * (c[0, 1] + c[1, 0])
    fg = vs[0] * vs[1]
    values[:] = (full - fg * p.parts["near"]) * h * h
    delta[:] = fg * p.parts["ring"] * h * h


# The source kernel's trilinear sum is, with F1, F2 the length-L spectra of the
# inputs on slots 1 and 2 and Psi0(s) = sum_i f0_i e^{2 pi i s (i + n - 1) / L},
#     L^-2 sum_{w, s} Qf[w, s] F1(w) F2(s - w) Psi0(s),
# Qf the full L x L spectrum, Qf[w, s] = conj(Q[-w, -s]) as the table is real.
# A slot's sum is that sum without its own input's factor: columns s (slot 0),
# rows w (slot 1) or diagonals s - w (slot 2). The zero padding to L >= 2n - 1
# keeps every circular sum alias-free. Each slot sum takes its products from
# a few rows of Q at a time, into a buffer of about _SLICE_BYTES.

def _shifted(G: np.ndarray, cols: int) -> np.ndarray:
    """W[k, w, s] = G_k((s - w) mod L) for s < cols: a view of the doubled spectra."""
    L = G.shape[1]
    return sliding_window_view(np.concatenate([G, G], axis=1), cols, axis=1)[:, L:0:-1]


def _psi(f0: np.ndarray, n: int, L: int) -> np.ndarray:
    """Psi0 at s = 0..L/2, for each row of f0."""
    b = np.zeros((len(f0), L))
    b[:, n - 1:2 * n - 1] = f0
    return np.conj(np.fft.rfft(b))


def _edges(L: int) -> np.ndarray:
    """The columns of Q that are their own mirror -s mod L: 0, and L/2 for even L."""
    return np.array([0] if L % 2 else [0, L // 2])


def _mirror(L: int) -> np.ndarray:
    """-w mod L for w <= L/2."""
    return -np.arange(L // 2 + 1) % L


def _from_half(X: np.ndarray, Xi_mirror: np.ndarray, n: int, L: int) -> np.ndarray:
    """The outputs j < n of L^-2 sum_w H(w) e^{-2 pi i w j / L}, given a slot's
    sum X(w) over the columns s <= L/2 of Q and, at -w (_mirror), its sum Xi
    over the inner columns (bar _edges). The columns past L/2 mirror the
    inner ones: they add conj(Xi(-w)) to H(w). H is Hermitian, so the outputs
    are real, and only w <= L/2 is needed."""
    return np.fft.irfft(np.conj(X[..., :L // 2 + 1]) + Xi_mirror, L)[..., :n] / L


def _slot0_sums(Q, ins, n):
    """full_i = irfft(H)[i + n - 1] / L for H(s) = sum_w F1(w) Q[w, s] F2(s - w):
    the columns, one pair (F2_k, F1_j) per H[k, j]."""
    L, cols = Q.shape
    F, G = (np.fft.fft(v, L) for v in ins[1:])
    W = _shifted(G, cols)
    H = np.zeros((2, 2, cols), dtype=complex)
    step = max(1, _SLICE_BYTES // (32 * cols))
    QW = np.empty((2, step, cols), dtype=complex)
    for w0 in range(0, L, step):
        w1 = min(w0 + step, L)
        np.multiply(Q[w0:w1], W[:, w0:w1], out=QW[:, :w1 - w0])
        H += F[:, w0:w1] @ QW[:, :w1 - w0]
    return np.fft.irfft(H, L)[..., n - 1:2 * n - 1] / L


def _slot1_sums(Q, ins, n):
    """The rows: X(w) = sum_s Q[w, s] F2(s - w) Psi0(s), per pair (F2_k, Psi0_j),
    and its inner part from Psi0 zeroed on the edges: one narrow product."""
    L, cols = Q.shape
    psi = _psi(ins[0], n, L)
    inner = psi.copy()
    inner[:, _edges(L)] = 0.0
    both = np.concatenate([psi, inner]).T
    W = _shifted(np.fft.fft(ins[2], L), cols)
    X = np.empty((2, L, 4), dtype=complex)
    step = max(1, _SLICE_BYTES // (32 * cols))
    QW = np.empty((2, step, cols), dtype=complex)
    for w0 in range(0, L, step):
        w1 = min(w0 + step, L)
        np.multiply(Q[w0:w1], W[:, w0:w1], out=QW[:, :w1 - w0])
        np.matmul(QW[:, :w1 - w0], both, out=X[:, w0:w1])
    X = X.transpose(0, 2, 1)
    return _from_half(X[:, :2], X[:, 2:, _mirror(L)], n, L)


def _slot2_sums(Q, ins, n):
    """The diagonals: X(v) = sum_s Q[s - v, s] F1(s - v) Psi0(s), per pair
    (Psi0_j, F1_k). The products with Psi0_j of a block of rows are written
    into Z, row r shifted left by r, so that each column of Z is one diagonal."""
    L, cols = Q.shape
    psi, F = _psi(ins[0], n, L), np.fft.fft(ins[1], L)
    step = max(1, _SLICE_BYTES // (16 * (cols + _SLICE_BYTES // (16 * cols))))
    M = cols + step
    Z = np.zeros(step * M, dtype=complex)
    # Zs[r, s] is Z[r, s - r + step - 1], of the diagonal s - r
    Zs = Z[step - 1:step - 1 + step * (M - 1)].reshape(step, M - 1)[:, :cols]
    Z = Z.reshape(step, M)
    X = np.zeros((2, 2, 3 * L), dtype=complex)     # diagonal v at v mod L
    ZF = np.empty((2, M), dtype=complex)
    for w0 in range(0, L, step):
        w1 = min(w0 + step, L)
        span = slice((1 - step - w0) % L, (1 - step - w0) % L + M)
        for j in range(2):
            np.multiply(Q[w0:w1], psi[j], out=Zs[:w1 - w0])
            np.add(X[j, :, span], np.matmul(F[:, w0:w1], Z[:w1 - w0], out=ZF),
                   out=X[j, :, span])
    X = X.reshape(2, 2, 3, L).sum(axis=2)
    e, m = _edges(L), _mirror(L)
    r = (e - m[:, None]) % L            # the rows s - v of the edge columns, v = -w
    edges = ((Q[r, e] * F[:, r]) @ psi[:, e].T).transpose(2, 0, 1)
    return _from_half(X, X[..., m] - edges, n, L)


_SLOT_SUMS = (_slot0_sums, _slot1_sums, _slot2_sums)


def _pv(K: KernelModel, fs: tuple, policy: PvPolicy, points=None, x=None):
    """T(*fs), linear or bilinear by len(fs): a FieldResult at every grid point or
    at the grid indices points (zero and unflagged elsewhere), or a PvValue at
    the grid point x. Checks arity, grid and d before any index lookup.

    A whole field is one plan applied once; points are built and summed
    BLOCK rows (linear) or one hull block (bilinear) at a time (_chunked).
    """
    grid = _check_functions(K, fs)
    if points is None and x is None:
        return plan(K, grid, policy)(*fs)
    rows = _grid_indices(points if x is None else [grid.index_of(x)[0]], grid.n)
    values = np.zeros(grid.n, dtype=complex)
    delta = np.zeros(grid.n, dtype=complex)
    _chunked(K, grid, policy, rows, [f.values for f in fs], values, delta)
    fr = _result(K, fs, policy, values, delta)
    if x is None:
        return fr
    i = rows[0]
    v = complex(values[i])
    return PvValue(value=v, refined=v + complex(delta[i]), converged=bool(fr.converged[i]))


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
    two one-dimensional diagonals separately would be wrong. It costs
    O(|supp f| n): K.rule is read once on supp f x the index hull of supp g,
    into one block of 8 |supp f| |hull supp g| bytes (16 for a complex
    rule), and at the excised cells, and the products are formed on the
    leaves that meet supp f, with the value of the whole slice bit for bit.
    """
    return _pv(K, (f, g), policy, x=x)


def apply_bilinear_field(K: KernelModel, f: SampledFunction, g: SampledFunction,
                         policy: PvPolicy = PvPolicy(),
                         points=None) -> FieldResult:
    """T(f, g) at every grid point, or at a subset of grid indices (zero and unflagged elsewhere).

    A whole field of a kernel with a lattice profile costs O(n^2 log n) in
    O(n^2) memory; other kernels and subsets cost O(|supp f| n) per point
    (apply_bilinear), in O(|supp f| |hull supp g|) memory, a point at a time.
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
    """Excised triple sum of K(x,y,z) b0(x) f0(x) b1(y) f1(y) b2(z) f2(z).

    Summed on the supports, with no plan. With S0 = supp b0 f0 and H1, H2 the
    index hulls of supp b1 f1 and supp b2 f2:
    - a kernel with a lattice profile P (K, K*1, K*2 and every composed
      transpose) reads P once on the |A| |B| offsets a in S0 - H1,
      b in S0 - H2 (|A| = span S0 + |H1|) and on the (2 c_eps + 1)^2 window
      offsets, never K.rule, and sums each point of S0 from that table by
      real matrix products: O(|A| |B|) profile reads and O(|S0| |A| |B|)
      multiply-adds, in the table's 8 |A| |B| bytes and
      O(n + |S0| c_eps^2 + _SLICE_BYTES) more;
    - a kernel with only a rule reads K.rule on |S0| |H1| |H2| + |S0|
      (2 c_eps + 1)^2 cells, in O(n + |S0| c_eps^2 + _SLICE_BYTES) memory.
    On the scale-matched grids of bilinear weak boundedness (box 8R) the
    supports are n/4 or n/8 points, so a lattice row reads O(n^2) profile
    offsets, about L^2 / 16 for the L x L table of a whole-field plan, and
    holds up to 2 n^2 bytes against its 16 L (L/2 + 1) (L the smallest
    2^a 3^b >= 2n - 1).
    """
    return _triple_pairing(K, f0, f1, f2, b0, b1, b2, policy)[0]


def _triple_pairing(K, f0, f1, f2, b0, b1, b2, policy) -> tuple[complex, int]:
    """triple_pairing and the number of PV-flagged points of the inner field on S0.

    With w = b f per slot, each i in S0 takes inner_i, the sum of
    K(x_i, x_j, x_k) w1_j w2_k over j in H1, k in H2, (j, k) != (i, i): from
    one profile table over the offset hulls for a lattice kernel
    (_table_sums), else from K.rule on the hulls (_hull_sums); and the near
    and ring kernel masses of its excision window over the whole grid
    (_excision_window), read from the profile at the window's offsets or
    from K.rule at its cells. value_i = (inner_i - w1_i w2_i near_i) h^2 is
    the dense slice sum term for term, and delta_i = w1_i w2_i ring_i h^2.
    Arity, the shared grid and d = 1 are checked before any kernel evaluation.
    """
    if K.arity != "bilinear":
        raise ValueError(f"kernel {K.name} is not bilinear")
    gr = f0.grid
    if any(other.grid != gr for other in (f1, f2, b0, b1, b2)):
        raise ValueError("all six functions must share a grid")
    _check_grid(K, gr)
    w0, w1, w2 = (b.values * f.values for b, f in ((b0, f0), (b1, f1), (b2, f2)))
    S0 = np.nonzero(np.abs(w0) > 0)[0]
    H1, H2 = (_hull(np.abs(w) > 0) for w in (w1, w2))
    if not (len(S0) and len(H1) and len(H2)):
        return 0.0 + 0.0j, 0
    x, h, c_eps = gr.axis(0), gr.h, policy.c_eps
    jw, kw, S = _excision_window(x, S0, c_eps)
    if K.lattice is not None:
        inner = _table_sums(K.lattice, h, S0, w1, w2, H1, H2)
        Kw = _window_profile(K.lattice, c_eps, h)
    else:
        inner = _hull_sums(K.rule, x, S0, w1, w2, H1, H2)
        Kw = _sample(K.rule, x[S0, None], x[np.clip(jw, 0, gr.n - 1)],
                     x[np.clip(kw, 0, gr.n - 1)])
    near, ring = _window_masses(Kw, S, policy, h)
    fg = w1[S0] * w2[S0]
    value = (inner - fg * near) * h * h
    converged = _converged(policy, value, fg * ring * h * h)
    return complex(np.sum(w0[S0] * value) * h), int(np.sum(~converged))


def _hull(support: np.ndarray) -> np.ndarray:
    """The indices from the first True of support to its last (empty when none)."""
    nz = np.flatnonzero(support)
    return np.arange(nz[0], nz[-1] + 1) if len(nz) else nz


def _table_sums(P, h: float, S0, w1, w2, H1, H2) -> np.ndarray:
    """inner_i = sum_{a, b} Tab[a, b] w1_{i - a} w2_{i - b} at each i of S0, with
    Tab[a, b] = P(a h, b h) over the offsets a in S0 - H1, b in S0 - H2 and zero
    at (0, 0), the cell j = k = i.

    The offsets run down from S0[-1] - H[0], so that the w values a point
    reads are one window of w on its hull, padded by the span of S0 on each
    side. The table is read in row blocks and the points are summed a block
    at a time, one real product of the stacked Re and Im of their w1 windows
    with the table and one row-wise product with their w2 windows: every
    temporary stays under _SLICE_BYTES, and only the table, |A| |B| floats,
    exceeds it."""
    span = S0[-1] - S0[0]
    offsets, windows = [], []
    for w, H in ((w1, H1), (w2, H2)):
        wp = np.zeros(2 * span + len(H), dtype=complex)
        wp[span:span + len(H)] = w[H]
        offsets.append(S0[-1] - H[0] - np.arange(span + len(H)))
        windows.append(sliding_window_view(wp, span + len(H)))
    a, b = offsets
    Tab = np.empty((len(a), len(b)))
    step = max(1, _SLICE_BYTES // (8 * len(b)))
    for r0 in range(0, len(a), step):
        Tab[r0:r0 + step] = _profile(P, a[r0:r0 + step, None] * h, b * h)
    Tab[np.ix_(a == 0, b == 0)] = 0.0
    inner = np.empty(len(S0), dtype=complex)
    step = max(1, _SLICE_BYTES // (16 * max(len(a), len(b))))
    for r0 in range(0, len(S0), step):
        d = S0[r0:r0 + step] - S0[0]
        W1 = windows[0][d]
        M = np.concatenate([W1.real, W1.imag]) @ Tab
        inner[r0:r0 + step] = ((M[:len(d)] + 1j * M[len(d):]) * windows[1][d]).sum(axis=1)
    return inner


def _hull_sums(rule, x: np.ndarray, S0, w1, w2, H1, H2) -> np.ndarray:
    """inner_i = sum K(x_i, x_j, x_k) w1_j w2_k over j in H1, k in H2,
    (j, k) != (i, i), at each i of S0, from rule on |S0| |H1| |H2| cells read
    in blocks of (i, j) whose floats stay under _SLICE_BYTES."""
    W2 = np.stack([w2[H2].real, w2[H2].imag], axis=1)      # a real rule keeps a real product
    cols = min(len(H1), max(1, _SLICE_BYTES // (8 * len(H2))))
    rows = max(1, _SLICE_BYTES // (8 * cols * len(H2)))
    inner = np.zeros(len(S0), dtype=complex)
    for r0 in range(0, len(S0), rows):
        i = S0[r0:r0 + rows]
        for c0 in range(0, len(H1), cols):
            j = H1[c0:c0 + cols]
            Kb = _sample(rule, x[i, None, None], x[None, j, None], x[H2])
            at = np.nonzero((i >= j[0]) & (i <= j[-1]) & (i >= H2[0]) & (i <= H2[-1]))[0]
            Kb[at, i[at] - j[0], i[at] - H2[0]] = 0.0      # the cell (j, k) = (i, i)
            t = Kb @ W2
            inner[r0:r0 + rows] += (t[..., 0] + 1j * t[..., 1]) @ w1[j]
    return inner

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
K.rule values with the a1, near and ring masses, and for explicit points
each point's kernel row (linear) or its n x n slice beyond the excision,
compacted (bilinear). Applying it, plan(f) or plan(f, g), does the work that
depends on the functions and sets the eps vs eps/2 convergence flags; a
bilinear point's sum is np.sum's pairwise sum of its products, formed
_SUM_LEAF at a time, so applying builds no n x n temporary. A plan is
immutable and its arrays are read-only, so no application changes it; its
caller owns it and nothing is cached, so it lives as long as the caller
keeps it. A sweep builds a row grid's plans once and applies them to its
rows; apply_linear_field and friends build a plan and apply it once,
per BLOCK rows (linear) or per point (bilinear) when points are given, so a
one-shot call holds O(BLOCK n) or O(n^2) at a time. plan() states what each
kind of plan holds and its size.

Whole fields of kernels with a lattice structure (KernelModel.lattice) are
lattice sums by FFT convolution. A linear field costs O(n log n). A bilinear
plan holds the 2D spectrum of its profile table, sheared so that the
diagonal x = y = z lies along one axis: it is built in O(n^2 log n) and
applied in O(n^2), trading O(n^2) memory for O(n^2) applications. Whole
linear fields of Cauchy kernels on a curve (KernelModel.curve) take the same
full off-diagonal sum from a multipole treecode, O(n p log n) with p set so
the far-field truncation is below 2^-53; both linear paths share the
near-zone terms read from K.rule on the 2 c_eps off-diagonals. Other
kernels, points and subsets of points sum their kernel rows directly, O(n)
(linear) or O(n^2) (bilinear) per point; these dense rows are also the test
oracle. Triple pairings of a kernel with a lattice profile read the whole
lattice field, whatever the support of the outer factor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, SampledFunction
from .kernels import KernelModel


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
    arrays in parts are read-only, so no application changes a plan; its
    caller owns it, and nothing is cached anywhere else.
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
    """The plan of T on grid at every point, or at the grid indices points.

    What it holds, by case (n grid points, 16 bytes per complex):
    - explicit points, linear: each point's scrubbed kernel row and its near,
      a1 and ring masses, 16 n + 48 bytes per point;
    - explicit points, bilinear: each point's scrubbed kernel values beyond
      the excision, compacted, and the flat indices and values of its k <=
      (2 c_eps + 1)^2 excised cells, 8 n^2 + 16 k - 16 bytes per point for a
      real rule and 16 n^2 + 8 k - 16 for a complex one; applying it holds
      O(_SUM_LEAF + n) more, whatever the number of points;
    - a whole linear field with a lattice structure: the spectrum of one
      profile table per distinct profile and each term's factors on the grid;
      with a curve structure, the treecode's geometry (near-field reciprocals
      and per level the moments' shifts and ratios), O(n log n); in both cases
      the band K.rule values as the near, a1 and ring masses;
    - a whole bilinear field with a lattice profile: the sheared 2D spectrum
      of the (2n - 1)^2 profile table, 16 L (L/2 + 1) bytes with L the
      smallest 2^a 3^b >= 2n - 1, built in O(n^2 log n), and the near and ring
      weights of every point, 16 n bytes; applying it costs O(n^2) and holds
      O(L) and a _SLICE_BYTES block more;
    - a whole field of a kernel without a structure: nothing; each apply plans
      and sums BLOCK rows (linear) or one slice (bilinear) at a time.
    Checks d = 1 and the points before any kernel evaluation.
    """
    _check_grid(K, grid)
    return _plan(K, grid, policy, None if points is None else _grid_indices(points, grid.n))


def _plan(K: KernelModel, grid: Grid, policy: PvPolicy, rows) -> Plan:
    linear = K.arity == "linear"
    if rows is not None:
        build, sums = (_linear_rows, _linear_rows_sums) if linear else \
            (_bilinear_slices, _bilinear_slices_sums)
    elif linear and (K.lattice is not None or K.curve is not None):
        build, sums = _linear_structure, _linear_structure_sums
    elif not linear and K.lattice is not None:
        build, sums = _bilinear_lattice, _bilinear_lattice_sums
    else:
        build, sums = None, _dense_field_sums
    parts = {} if build is None else build(K, grid, policy, rows)
    for a in _arrays((rows, parts)):
        a.setflags(write=False)
    return Plan(kernel=K, grid=grid, policy=policy, rows=rows, parts=parts, sums=sums)


def _chunked(K: KernelModel, grid: Grid, policy: PvPolicy, rows: np.ndarray, vs,
             values: np.ndarray, delta: np.ndarray) -> None:
    """The rows' sums from one plan per BLOCK rows (linear) or per row (bilinear),
    each applied once: O(BLOCK n) or O(n^2) memory at a time."""
    step = BLOCK if K.arity == "linear" else 1
    for s in range(0, len(rows), step):
        p = _plan(K, grid, policy, rows[s:s + step])
        p.sums(p, vs, values, delta)
        del p       # freed before the next plan is built: one plan at a time


def _dense_field_sums(p: Plan, vs, values, delta) -> None:
    _chunked(p.kernel, p.grid, p.policy, np.arange(p.grid.n), vs, values, delta)


def _result(K: KernelModel, fs: tuple, policy: PvPolicy, values: np.ndarray,
            delta: np.ndarray) -> FieldResult:
    """The field of the values, flagged where the eps vs eps/2 change delta is large."""
    name = f"T[{K.name}]({','.join(f.name for f in fs)})"
    return FieldResult(field=SampledFunction(grid=fs[0].grid, values=values, name=name),
                       converged=np.abs(delta) <= policy.tol_pv * (1.0 + np.abs(values)))


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


def _lattice_plan(lattice, x: np.ndarray, h: float) -> dict:
    """One profile table per distinct profile, as its spectrum, and each term's
    factors on the grid; the table is zero at offset 0 (the j = i cell)."""
    n = len(x)
    spectra, terms = {}, []
    for left, p, right in lattice:
        if id(p) not in spectra:
            table = _profile(p, np.arange(1 - n, n) * h)
            table[n - 1] = 0.0
            spectra[id(p)] = _spectrum(table, n)
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


def _curve_plan(curve, x: np.ndarray, h: float) -> dict:
    """The treecode's geometry for sum_{j != i} left(x_i) right(x_j) f_j / (z_i - z_j).

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
    left, z, right = curve
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
    return {"near": (G, G1), "levels": tuple(levels),
            "left": _factor(left, x), "right": _factor(right, x)}


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


def _linear_structure(K: KernelModel, grid: Grid, policy: PvPolicy, rows) -> dict:
    """The lattice tables or the treecode geometry of the full off-diagonal sum,
    and the near, a1 and ring masses read from K.rule on the 2 c_eps off-diagonals."""
    n, h, c_eps = grid.n, grid.h, policy.c_eps
    x = grid.axis(0)
    parts = _lattice_plan(K.lattice, x, h) if K.lattice is not None else \
        _curve_plan(K.curve, x, h)
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
# the allocator has raised it; a point's sum buffers are made once per apply.
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


def _pairwise_sum(part, start: int, count: int) -> complex:
    """part(start, count).sum() over the whole range in np.sum's order, holding
    at most _SUM_LEAF values at a time. np.sum adds a contiguous complex array
    pairwise: a run of more than 64 values splits after half of its 2 count
    doubles, rounded down to a multiple of 8, and a run of at most _SUM_LEAF
    values is summed by np.sum itself (the slice oracle tests check the order)."""
    if count <= _SUM_LEAF:
        return part(start, count).sum()
    half = (count - count % 8) // 2
    return _pairwise_sum(part, start, half) + _pairwise_sum(part, start + half, count - half)


def _bilinear_slices(K: KernelModel, grid: Grid, policy: PvPolicy, rows: np.ndarray) -> dict:
    """Per point i: the kernel values of its n x n slice beyond the excision,
    S > eps (_excision_window), compacted in row-major order and zero where
    not finite; the sorted flat indices of the excised cells; and the excised
    cells' kernel values other than (i, i), with the kernel sum over the ring.
    The values beyond the excision are float64 while the rule returns real
    values: np.multiply casts them to complex with imaginary part +0, so
    every product is that of the complex values.

    The excised cells' row-major order is their order in the slice, so every
    sum keeps its order. The rule is called on blocks of rows whose float
    temporaries stay under _SLICE_BYTES; a block is compacted by a mask only
    when it holds excised cells.
    """
    x, h, n = grid.axis(0), grid.h, grid.n
    eps = policy.c_eps * h
    step = max(1, _SLICE_BYTES // (8 * n))
    points = []
    for i, j, k, S in zip(rows, *_excision_window(x, rows, policy.c_eps)):
        cut, Scut = (j * n + k)[S <= eps], S[S <= eps]
        far = None
        Kcut = np.empty(len(cut), dtype=complex)
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            lo, hi = r0 * n, r1 * n
            Kb = _sample(K.rule, x[i], x[r0:r1, None], x[None, :]).ravel()
            if far is None:
                far = np.empty(n * n - len(cut), complex if np.iscomplexobj(Kb) else float)
            elif np.iscomplexobj(Kb) and not np.iscomplexobj(far):
                far = far.astype(complex)       # a rule whose values turn complex
            a, b = cut.searchsorted((lo, hi)).tolist()
            Kcut[a:b] = Kb[cut[a:b] - lo]
            far[lo - a:hi - b] = Kb if a == b else np.delete(Kb, cut[a:b] - lo)
        points.append((far, cut, Kcut[Scut > 0], Kcut[Scut > policy.c_refined * h].sum()))
    return {"points": tuple(points)}


def _bilinear_slices_sums(p: Plan, vs, values, delta) -> None:
    """Per point, (K * np.outer(f, g))[S > eps].sum() over its whole slice,
    element for element and in the same order, from _SUM_LEAF products at a
    time. The f(y) g(z) under a leaf are the whole rows of np.outer(f, g)
    that it touches, formed by one broadcast product into a reused buffer.
    The buffers stay allocated across the points of one application."""
    fv, gv = vs
    n, h = p.grid.n, p.grid.h
    points = p.parts["points"]
    leaf = min(_SUM_LEAF, max((len(far) for far, _, _, _ in points), default=0))
    span = leaf + max((len(cut) for _, cut, _, _ in points), default=0)    # flat cells of one leaf
    FG = np.empty((-(-span // n) + 1, n), dtype=complex)     # the rows of f (x) g under one leaf
    prod = np.empty(leaf, dtype=complex)
    for i, (far, cut, Knear, ring_sum) in zip(p.rows, points):
        before = cut - np.arange(len(cut))      # far cells before each excised cell

        def products(o0, count):
            if count == 0:          # every cell of a small grid is excised
                return prod[:0]
            # the far cells o0:o0 + count are the flat cells lo:hi less cut[a:b]
            a, b = before.searchsorted((o0, o0 + count - 1), side="right").tolist()
            lo, hi = o0 + a, o0 + count + b
            y0, y1 = lo // n, -(-hi // n)
            t = np.multiply(fv[y0:y1, None], gv, out=FG[:y1 - y0]).ravel()[lo - y0 * n:]
            if a < b:       # one small mask over the span of the leaf's excised cells
                s, e = cut[a] - lo, cut[b - 1] - lo + 1
                keep = np.ones(e - s, dtype=bool)
                keep[cut[a:b] - lo - s] = False
                prod[:s] = t[:s]
                prod[e - (b - a):count] = t[e:hi - lo]
                np.compress(keep, t[s:e], out=prod[s:e - (b - a)])
                t = prod
            return np.multiply(far[o0:o0 + count], t[:count], out=prod[:count])

        fgi = fv[i] * gv[i]
        val = _pairwise_sum(products, 0, len(far)) * h * h
        near = cut[cut != i * n + i]
        val += (Knear * (fv[near // n] * gv[near % n] - fgi)).sum() * h * h
        values[i], delta[i] = val, fgi * ring_sum * h * h


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b >= m."""
    best, p3 = 1 << (m - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-m // p3) - 1).bit_length())
        p3 *= 3
    return best


def _bilinear_lattice(K: KernelModel, grid: Grid, policy: PvPolicy, rows) -> dict:
    """The sheared 2D spectrum of the profile table, and the weights sum P over
    the excised offsets and over the ring, per point.

    The table T(a, b) = P((a - n + 1) h, (b - n + 1) h), a, b < 2n - 1, zero at
    a = b = n - 1 and zero-padded to L x L, is sheared to q(r, t) = T((r + t)
    mod L, t) and held as Q = fft2(q) over the columns t = 0..L/2 of rfft;
    then Q[w, s] = T^(w, s - w). q is made and transformed a few rows at a
    time, and Q along w a few columns at a time, in place: each temporary
    stays under _SLICE_BYTES, so the L x L real table is never held.
    The excised set and the ring are those of a dense point (_excision_window).
    """
    n, h, eps = grid.n, grid.h, policy.c_eps * grid.h
    j, k, S = _excision_window(grid.axis(0), np.arange(n), policy.c_eps)
    Pc = _profile(K.lattice, -j[:1] * h, -k[:1] * h)      # the offsets of row 0
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
        q = _profile(K.lattice, rows_u[r0:r1], u)
        q[~inside[r0:r1]] = 0.0
        if r0 == 0:
            q[0, n - 1] = 0.0       # T(n - 1, n - 1), the cell j = k = i
        Q[r0:r1] = np.fft.rfft(q, L)
    step = max(1, _SLICE_BYTES // (16 * L))
    for c0 in range(0, L // 2 + 1, step):
        Q[:, c0:c0 + step] = np.fft.fft(Q[:, c0:c0 + step], axis=0)
    return {"Q": Q,
            "near": np.where((S > 0) & (S <= eps), Pc, 0.0).sum(axis=1),
            "ring": np.where((S > policy.c_refined * h) & (S <= eps), Pc, 0.0).sum(axis=1)}


def _bilinear_lattice_sums(p: Plan, vs, values, delta) -> None:
    """The whole lattice sum full_i = sum_{a, b} T(a, b) f_{i+n-1-a} g_{i+n-1-b},
    the diagonal of a 2D convolution: with F, G the length-L spectra,
    full_i = irfft(H)[i + n - 1] / L for H(s) = sum_w F(w) Q[w, s] G(s - w).

    Re and Im of f and g are paired apart, so each H is that of real data and
    real data gives an exactly real field. The contraction takes a few rows w
    of Q at a time, into one buffer of _SLICE_BYTES.
    """
    fv, gv = vs
    n, h = p.grid.n, p.grid.h
    Q = p.parts["Q"]
    L, cols = Q.shape
    F = np.fft.fft(np.stack([fv.real, fv.imag]), L)
    G = np.fft.fft(np.stack([gv.real, gv.imag]), L)
    # W[k, w, s] = G_k((s - w) mod L) = G_k[L - w + s]: a view of the doubled spectra
    W = sliding_window_view(np.concatenate([G, G], axis=1), cols, axis=1)[:, L:0:-1]
    H = np.zeros((2, 2, cols), dtype=complex)      # H[k, j] pairs G_k with F_j
    step = max(1, _SLICE_BYTES // (32 * cols))
    QW = np.empty((2, step, cols), dtype=complex)
    for w0 in range(0, L, step):
        w1 = min(w0 + step, L)
        np.multiply(Q[w0:w1], W[:, w0:w1], out=QW[:, :w1 - w0])
        H += F[:, w0:w1] @ QW[:, :w1 - w0]
    c = np.fft.irfft(H, L)[..., n - 1:2 * n - 1] / L
    full = (c[0, 0] - c[1, 1]) + 1j * (c[0, 1] + c[1, 0])
    fg = fv * gv
    values[:] = (full - fg * p.parts["near"]) * h * h
    delta[:] = fg * p.parts["ring"] * h * h


def _pv(K: KernelModel, fs: tuple, policy: PvPolicy, points=None, x=None):
    """T(*fs), linear or bilinear by len(fs): a FieldResult at every grid point or
    at the grid indices points (zero and unflagged elsewhere), or a PvValue at
    the grid point x. Checks arity, grid and d before any index lookup.

    A whole field is one plan applied once; points are planned and applied
    BLOCK rows (linear) or one slice (bilinear) at a time.
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
    two one-dimensional diagonals separately would be wrong.
    """
    return _pv(K, (f, g), policy, x=x)


def apply_bilinear_field(K: KernelModel, f: SampledFunction, g: SampledFunction,
                         policy: PvPolicy = PvPolicy(),
                         points=None) -> FieldResult:
    """T(f, g) at every grid point, or at a subset of grid indices (zero and unflagged elsewhere).

    A whole field of a kernel with a lattice profile costs O(n^2 log n) in
    O(n^2) memory; other kernels and subsets cost O(n^2) per point.
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


def _triple_pairing(K, f0, f1, f2, b0, b1, b2, policy,
                    T: Plan | None = None) -> tuple[complex, int]:
    """triple_pairing and the number of PV-flagged points of the inner field on supp b0 f0.

    The inner field of a kernel with a lattice profile is the whole field of
    T, K's whole-field plan on the functions' grid (built here when not
    given): it costs less than the dense points of any sizeable support.
    Other kernels sum dense points on the support.
    """
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
    if K.lattice is None:
        fr = apply_bilinear_field(K, w1, w2, policy=policy, points=support)
    else:
        fr = (T or plan(K, gr, policy))(w1, w2)
    return complex(np.sum(w0 * fr.field.values) * gr.h), int(np.sum(~fr.converged[support]))

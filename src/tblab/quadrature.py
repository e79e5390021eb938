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

Kernel rule conventions: d=1 rules take coordinate arrays (x, y) or
(x, y, z); d=2 rules take the components (x0, x1, y0, y1) respectively
(x0, x1, y0, y1, z0, z1), all broadcastable.
"""

from __future__ import annotations

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
        if self.tol_pv <= 0:
            raise ValueError("tol_pv must be positive")


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


def _require_linear(K: KernelModel):
    if K.arity != "linear":
        raise ValueError(f"kernel {K.name} is not linear")


def _require_bilinear(K: KernelModel):
    if K.arity != "bilinear":
        raise ValueError(f"kernel {K.name} is not bilinear")


def _kernel_matrix_1d(K: KernelModel, grid: Grid) -> np.ndarray:
    x = grid.axis(0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        M = np.asarray(K.rule(x[:, None], x[None, :]), dtype=complex)
    np.fill_diagonal(M, 0.0)
    M[~np.isfinite(M)] = 0.0
    return M


def _field_values_1d(K: KernelModel, f: np.ndarray, grid: Grid, c_eps: int):
    """Per-point values plus the change to the c_eps//2 excision.

    value(c) depends on c only through the near-zone kernel mass, so the
    eps/2 re-run is the same matrix with a different ring sum.
    """
    n = grid.n
    h = grid.h
    M = _kernel_matrix_1d(K, grid)
    off = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    base = (M * f[None, :]).sum(axis=1) * h
    near_mass = np.where(off <= c_eps, M, 0.0 + 0.0j).sum(axis=1) * h
    fp = np.zeros_like(f)
    fp[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    up = np.diagonal(M, 1)      # M[i, i+1]
    dn = np.diagonal(M, -1)     # M[i, i-1] at row i = index+1
    a1 = np.zeros(n, dtype=complex)
    a1[1:-1] = 0.5 * h * (up[1:] - dn[:-1])
    values = base - f * near_mass + a1 * fp * h
    c_half = max(1, c_eps // 2)
    if c_half == c_eps:
        delta = np.zeros(n, dtype=complex)
    else:
        ring_mass = np.where((off > c_half) & (off <= c_eps), M, 0.0 + 0.0j).sum(axis=1) * h
        delta = f * ring_mass       # value(c_half) - value(c_eps)
    return values, delta


def apply_linear(K: KernelModel, f: SampledFunction, x, policy: PvPolicy = PvPolicy()) -> PvValue:
    """PV value of T(f)(x) = int K(x, y) f(y) dy at a grid point x."""
    _require_linear(K)
    g = f.grid
    if g.d != 1:
        raise ValueError("linear PV quadrature is implemented for d=1 grids")
    i = g.index_of(x)[0]
    values, delta = _field_values_1d(K, f.values, g, policy.c_eps)
    v = complex(values[i])
    if not policy.convergence_check:
        return PvValue(value=v, refined=None, converged=True)
    dv = complex(delta[i])
    ok = abs(dv) <= policy.tol_pv * (1.0 + abs(v))
    return PvValue(value=v, refined=v + dv, converged=bool(ok))


def apply_linear_field(K: KernelModel, f: SampledFunction,
                       policy: PvPolicy = PvPolicy()) -> FieldResult:
    """T(f) at every grid point; O(n^2) kernel evaluations, fully vectorized."""
    _require_linear(K)
    g = f.grid
    if g.d != 1:
        raise ValueError("linear PV quadrature is implemented for d=1 grids")
    values, delta = _field_values_1d(K, f.values, g, policy.c_eps)
    if policy.convergence_check:
        conv = np.abs(delta) <= policy.tol_pv * (1.0 + np.abs(values))
    else:
        conv = np.ones(g.n, dtype=bool)
    out = SampledFunction(grid=g, values=values, name=f"T[{K.name}]({f.name})")
    return FieldResult(field=out, converged=conv, policy=policy)


def _bilinear_point(K: KernelModel, fv: np.ndarray, gv: np.ndarray,
                    grid: Grid, i: int, c_eps: int):
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
    far = S > eps
    val = (Kv[far] * FG[far]).sum() * h * h
    near = (~far) & (S > 0)
    val += (Kv[near] * (FG[near] - fv[i] * gv[i])).sum() * h * h
    c_half = max(1, c_eps // 2)
    if c_half == c_eps:
        dv = 0.0 + 0.0j
    else:
        ring = (S > c_half * h) & (S <= eps)
        dv = fv[i] * gv[i] * Kv[ring].sum() * h * h
    return complex(val), complex(dv)


def apply_bilinear(K: KernelModel, f: SampledFunction, g: SampledFunction, x,
                   policy: PvPolicy = PvPolicy()) -> PvValue:
    """PV value of T(f, g)(x) with excision |x-y| + |x-z| > eps.

    The excision metric matches the bilinear diagonal {x=y=z}; excising the
    two one-dimensional diagonals separately would be wrong.
    """
    _require_bilinear(K)
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")
    gr = f.grid
    if gr.d != 1:
        raise ValueError("bilinear PV quadrature is implemented for d=1 grids")
    i = gr.index_of(x)[0]
    v, dv = _bilinear_point(K, f.values, g.values, gr, i, policy.c_eps)
    if not policy.convergence_check:
        return PvValue(value=v, refined=None, converged=True)
    ok = abs(dv) <= policy.tol_pv * (1.0 + abs(v))
    return PvValue(value=v, refined=v + dv, converged=bool(ok))


def apply_bilinear_field(K: KernelModel, f: SampledFunction, g: SampledFunction,
                         policy: PvPolicy = PvPolicy(),
                         points=None) -> FieldResult:
    """T(f, g) at every grid point, or at a subset of grid indices."""
    _require_bilinear(K)
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")
    gr = f.grid
    if gr.d != 1:
        raise ValueError("bilinear PV quadrature is implemented for d=1 grids")
    idxs = np.arange(gr.n) if points is None else np.asarray(points, dtype=int)
    vals = np.zeros(gr.n, dtype=complex)
    deltas = np.zeros(gr.n, dtype=complex)
    for i in idxs:
        vals[i], deltas[i] = _bilinear_point(K, f.values, g.values, gr, int(i), policy.c_eps)
    if policy.convergence_check:
        conv = np.abs(deltas) <= policy.tol_pv * (1.0 + np.abs(vals))
    else:
        conv = np.ones(gr.n, dtype=bool)
    out = SampledFunction(grid=gr, values=vals, name=f"T[{K.name}]({f.name},{g.name})")
    return FieldResult(field=out, converged=conv, policy=policy)


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
    """triple_pairing and the number of PV-flagged points of the inner field."""
    _require_bilinear(K)
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
    fr = apply_bilinear_field(K, w1, w2, policy=policy, points=support)
    return complex(np.sum(w0 * fr.field.values) * gr.h), fr.n_flagged

"""Kernel models, the operator gallery, transposes, and size/regularity certification.

All gallery kernels are d=1. Evaluation rules are vectorized over numpy
arrays and defined off the diagonal; certification samples log-uniform d=1
separations spanning several decades with a fixed seed, and rejects d != 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

GALLERY_NAMES = ("hilbert", "cauchy-lipschitz", "commutator", "bilinear-homog",
                 "positive-control")


@dataclass(frozen=True)
class KernelModel:
    """A d = 1 kernel: its rule, claimed constants, sweep grid mode, optional
    lattice or curve structure for whole fields, and its exact transpose
    parity (K(y, x) = parity K(x, y); declared by hilbert and cauchy-lipschitz
    as -1 and by positive-control as +1)."""
    name: str
    arity: str                  # "linear" | "bilinear"
    d: int
    delta: float                # claimed Holder regularity order
    size_constant: float        # claimed size constant
    rule: object = field(compare=False)   # rule(x, y) or rule(x, y, z)
    # grid of the scaling sweeps: homogeneous singular kernels are measured on
    # scale-matched grids; the commutator has an intrinsic scale and the positive
    # control needs a fixed lattice to expose divergence, so both are "fixed"
    grid_mode: str = "scaled"
    params: dict = field(default_factory=dict)
    # Translation structure on the grid lattice, or None. Linear: a tuple of
    # (left, profile, right) terms, K(x, y) = sum left(x) profile(x - y) right(y),
    # with None for a factor of one. Bilinear: a profile P, K(x, y, z) =
    # P(x - y, x - z). Profiles are real; quadrature builds whole fields by FFT.
    # A kernel declares at most one of lattice and curve.
    lattice: object = field(default=None, compare=False)
    # Cauchy structure on a curve in C, or None (linear kernels only): a triple
    # (left, z, right), K(x, y) = left(x) right(y) / (z(x) - z(y)), with None
    # for a factor of one; quadrature sums whole fields by a multipole treecode.
    curve: object = field(default=None, compare=False)
    # Exact transpose parity: K(y, x) = parity K(x, y), and the plan of the
    # transpose gives parity times the plan of K, bit for bit in floating point;
    # 0 where no such identity is declared (every bilinear kernel). The harness
    # then reads T* f as parity T f and plans K alone.
    parity: int = 0

    def __post_init__(self):
        if self.arity not in ("linear", "bilinear"):
            raise ValueError(f"bad arity {self.arity}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.curve is not None and (self.arity != "linear" or self.lattice is not None):
            raise ValueError("a curve structure needs a linear kernel without a lattice")
        if isinstance(self.parity, bool) or self.parity not in (-1, 0, 1):
            raise ValueError(f"parity must be -1, 0 or 1, got {self.parity!r}")
        if self.parity and self.arity != "linear":
            raise ValueError("a transpose parity needs a linear kernel")


@dataclass(frozen=True)
class KernelCertificate:
    kernel: str
    condition: str              # "size" | "regularity"
    delta: float | None
    constant: float
    samples: int
    seed: int
    witness: tuple


def _logcosh(x):
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _cos_sin_of_product(u, t):
    """cos and sin of the outer product u t with the rounding error e of
    a = fl(u t) restored: e is exact by Veltkamp's split (Dekker's two-product),
    and cos(a + e) = cos a - e sin a to first order."""
    a = u * t
    uh, th = u * 134217729.0, t * 134217729.0           # 2^27 + 1
    uh, th = uh - (uh - u), th - (th - t)
    e = ((uh * th - a) + uh * (t - th) + (u - uh) * th) + (u - uh) * (t - th)
    c, s = np.cos(a), np.sin(a)
    return c - e * s, s + e * c


class _CommutatorEvenKernel:
    """k(u) = (1/pi) int_0^inf sqrt(mu^2+xi^2) exp(-(xi/lam)^2) cos(u xi) dxi.

    Fixed Simpson rule on xi_m = m dxi, summed by node index m = qB + r with
    B ~ sqrt(#nodes): cos(u xi_m) = cos(u qB dxi) cos(u r dxi) - sin(..) sin(..),
    so a distinct |u| costs two trig tables of ~B columns and a matrix product
    with the weights C[q, r] = c_{qB+r}. Nothing is kept between calls.
    """

    U_BLOCK = 64            # distinct |u| per product: O(U_BLOCK B) memory, under
                            # the mmap threshold, so no fresh pages per call
    PANELS = 1 << 15        # Simpson needs an even panel count

    def __init__(self, lam: float, mu: float):
        n = self.PANELS
        dxi = 8.0 * lam / n
        xi = np.arange(n + 1) * dxi
        w = np.where(np.arange(n + 1) % 2, 4.0, 2.0)     # Simpson: 1 4 2 4 ... 2 4 1
        w[0] = w[-1] = 1.0
        c = np.sqrt(mu ** 2 + xi ** 2) * np.exp(-(xi / lam) ** 2) * (w * dxi / 3.0)
        B = int(np.ceil(np.sqrt(n + 1)))
        Q = -(-(n + 1) // B)
        self._Ct = np.pad(c, (0, Q * B - (n + 1))).reshape(Q, B).T.copy()
        self._r = np.arange(B) * dxi
        self._qB = np.arange(0, Q * B, B) * dxi

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        us, inv = np.unique(np.round(u.ravel(), 12), return_inverse=True)
        out = np.empty(len(us))
        for s in range(0, len(us), self.U_BLOCK):
            seg = us[s:s + self.U_BLOCK, None]
            cr, sr = _cos_sin_of_product(seg, self._r)
            cq, sq = _cos_sin_of_product(seg, self._qB)
            out[s:s + self.U_BLOCK] = (cq * (cr @ self._Ct) - sq * (sr @ self._Ct)).sum(axis=1)
        return (out / np.pi)[inv].reshape(u.shape)


def _bilinear_homog(u, v):
    """uv / (u^2 + v^2)^2, zero at the origin."""
    u, v = np.asarray(u), np.asarray(v)
    s2 = u * u + v * v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(s2 > 0, u * v / s2 ** 2, 0.0)


def _difference_kernel(name, profile, size_constant, parity,
                       grid_mode="scaled") -> KernelModel:
    """K(x, y) = profile(x - y), with profile(-u) = parity profile(u) exactly."""
    def rule(x, y):
        return profile(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return KernelModel(name=name, arity="linear", d=1, delta=1.0,
                       size_constant=size_constant, rule=rule,
                       grid_mode=grid_mode, lattice=((None, profile, None),), parity=parity)


def _no_other_params(name: str, params: dict) -> None:
    """Rejects the params left after a gallery operator took its own."""
    if params:
        raise ValueError(f"unknown {name} params {sorted(params)}")


def gallery(name: str, **params) -> KernelModel:
    """Concrete operators: hilbert, cauchy-lipschitz(lam), commutator(...),
    bilinear-homog, positive-control; any other parameter is rejected."""
    if name == "hilbert":
        _no_other_params(name, params)
        return _difference_kernel(name, lambda u: 1.0 / (np.pi * u), 1.0 / np.pi, -1)

    if name == "cauchy-lipschitz":
        lam = float(params.pop("lam", 0.3))
        lip_bound = float(params.pop("lip_bound", 0.5))
        _no_other_params(name, params)
        # sup |A'| = |lam| sup |tanh| = |lam| exactly
        if abs(lam) > lip_bound + 1e-9:
            raise ValueError(f"Lipschitz constant of A is {abs(lam):.4f}, exceeds bound {lip_bound}")
        def A(x):
            return lam * _logcosh(x)
        def z(x):
            x = np.asarray(x, dtype=float)
            return x + 1j * A(x)
        def rule(x, y, _z=z):
            return 1.0 / (_z(x) - _z(y))
        # the treecode's far-field ratio is at most sqrt(1 + lam^2) / 3 <= 0.48
        # for |lam| <= 1; steeper graphs keep the dense rows. 1/(z(y) - z(x))
        # is -1/(z(x) - z(y)) exactly: negation commutes with rounding
        return KernelModel(name="cauchy-lipschitz", arity="linear", d=1, delta=1.0,
                           size_constant=1.0, rule=rule, params={"lam": lam},
                           curve=(None, z, None) if abs(lam) <= 1.0 else None, parity=-1)

    if name == "commutator":
        lam_trunc = float(params.pop("lam_trunc", 64.0))
        mu = float(params.pop("mu", 1.0 / 64.0))
        a_amp = float(params.pop("a_amp", 0.1))
        m_amp = float(params.pop("m_amp", 0.05))
        _no_other_params(name, params)
        keven = _CommutatorEvenKernel(lam_trunc, mu)
        def a(x):
            x = np.asarray(x, dtype=float)
            return x - a_amp * np.cos(x)
        def m(x):
            return 1.0 + m_amp * np.sin(3.0 * np.asarray(x, dtype=float))
        def rule(x, y, _a=a, _m=m, _k=keven):
            x = np.asarray(x, dtype=float); y = np.asarray(y, dtype=float)
            return (_a(y) - _a(x)) * _m(x) * _k(x - y)
        # m(x) k(x - y) a(y) - m(x) a(x) k(x - y)
        return KernelModel(name="commutator", arity="linear", d=1, delta=1.0,
                           size_constant=(1.0 + a_amp) * (1.0 + m_amp), rule=rule,
                           grid_mode="fixed",
                           params={"lam_trunc": lam_trunc, "mu": mu,
                                   "a_amp": a_amp, "m_amp": m_amp},
                           lattice=((m, keven, a), (lambda x: -m(x) * a(x), keven, None)))

    if name == "bilinear-homog":
        _no_other_params(name, params)
        def rule(x, y, z):
            x = np.asarray(x, dtype=float)
            return _bilinear_homog(x - np.asarray(y, dtype=float), x - np.asarray(z, dtype=float))
        # size constant in the (|x-y| + |x-z|)^2 metric check_size measures
        return KernelModel(name="bilinear-homog", arity="bilinear", d=1, delta=1.0,
                           size_constant=1.0, rule=rule, lattice=_bilinear_homog)

    if name == "positive-control":
        _no_other_params(name, params)
        return _difference_kernel(name, lambda u: 1.0 / np.abs(u), 1.0, 1, grid_mode="fixed")

    raise ValueError(f"unknown gallery operator {name!r}; known: {GALLERY_NAMES}")


@dataclass(frozen=True, eq=False)
class Transposed:
    """The lattice profile of a transpose: source's kernel with its arguments
    permuted, K'(x_0, .., x_d) = K(x_perm[0], .., x_perm[d]). Marked so that
    quadrature reads it from its source's work with no table of its own: a
    linear transpose's (perm (1, 0)) table is its source's reversed, and a
    bilinear transpose's whole field is contracted from its source's spectrum."""
    source: object
    perm: tuple

    def __call__(self, *offsets):
        # offset m is x_0 - x_m: with x_0 = 0, x_m = -offset m
        x = (0, *(-u for u in offsets))
        return self.source(*(x[self.perm[0]] - x[m] for m in self.perm[1:]))


def _transposed(p, swap: tuple):
    """The profile of the transpose by the argument permutation swap of a kernel
    with profile p: a Transposed of p's source, or the source itself when the
    composed permutation is the identity."""
    source, perm = (p.source, p.perm) if isinstance(p, Transposed) else (p, range(len(swap)))
    perm = tuple(swap[m] for m in perm)
    return source if perm == tuple(range(len(perm))) else Transposed(source, perm)


def transpose_kernel(K: KernelModel, which: int = 1) -> KernelModel:
    """Argument-swapped kernel: K*(x,y)=K(y,x); K*1(x,y,z)=K(y,x,z); K*2=K(z,y,x).

    A transpose's lattice profiles are Transposed markers naming K's source
    profiles, one per distinct profile, so terms that share a profile keep
    sharing its table. Markers compose: the transpose of a transpose has K's
    own profiles back, and K*1*2 is the 3-cycle K(y, z, x) of K's profile. A
    linear transpose's curve keeps K's z.
    """
    r, lat = K.rule, K.lattice
    if K.arity == "linear":
        if which != 1:
            raise ValueError("linear kernels have a single transpose")
        if lat is not None:
            refl = {id(p): _transposed(p, (1, 0)) for _, p, _ in lat}
            lat = tuple((right, refl[id(p)], left) for left, p, right in lat)
        cur = K.curve
        if cur is not None:
            # left(y) right(x) / (z(y) - z(x)) = -right(x) left(y) / (z(x) - z(y))
            left, z, right = cur
            cur = ((lambda x: -1.0) if right is None else (lambda x, _g=right: -_g(x)),
                   z, left)
        return replace(K, name=K.name + "*", rule=lambda x, y, _r=r: _r(y, x),
                       lattice=lat, curve=cur)
    if which == 1:
        # K(y, x, z) = P(y - x, y - z) = P(-u, v - u)
        return replace(K, name=K.name + "*1", rule=lambda x, y, z, _r=r: _r(y, x, z),
                       lattice=None if lat is None else _transposed(lat, (1, 0, 2)))
    if which == 2:
        # K(z, y, x) = P(z - y, z - x) = P(u - v, -v)
        return replace(K, name=K.name + "*2", rule=lambda x, y, z, _r=r: _r(z, y, x),
                       lattice=None if lat is None else _transposed(lat, (2, 1, 0)))
    raise ValueError("which must be 1 or 2")


# --- certification samplers ---

def _sep_samples(rng, n, d, base_span=8.0, r_lo=1e-3, r_hi=10.0):
    x = rng.uniform(-base_span, base_span, size=(n, d))
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=n))
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return x, r, u


def _separated_points(K: KernelModel, rng, n: int):
    """x, the separations and one sampled point per further kernel argument:
    one _sep_samples draw for a linear kernel, two for a bilinear one."""
    if K.d != 1:
        raise ValueError(f"certification samples d=1 separations; kernel {K.name} has d={K.d}")
    draws = [_sep_samples(rng, n, K.d) for _ in range(1 if K.arity == "linear" else 2)]
    x = draws[0][0][:, 0]
    return x, [r for _, r, _ in draws], [x + r * u[:, 0] for _, r, u in draws]


def check_size(K: KernelModel, n_samples: int = 10_000, seed: int = 1234) -> KernelCertificate:
    """sup over samples of |K| * separation^d (linear) or ^(2d) (bilinear)."""
    x, rs, pts = _separated_points(K, np.random.default_rng(seed), n_samples)
    stat = np.abs(np.asarray(K.rule(x, *pts))) * sum(rs) ** (len(rs) * K.d)
    bad = ~np.isfinite(stat)
    if np.any(bad):
        warnings.warn(f"{int(np.sum(bad))} sample(s) hit the diagonal; dropped",
                      stacklevel=2)
        stat = np.where(bad, 0.0, stat)
    i = int(np.argmax(stat))
    return KernelCertificate(kernel=K.name, condition="size", delta=None,
                             constant=float(stat[i]), samples=n_samples, seed=seed,
                             witness=(float(x[i]), float(rs[0][i])))


def check_regularity(K: KernelModel, delta: float | None = None,
                     n_samples: int = 10_000, seed: int = 1234) -> KernelCertificate:
    """Measured Holder-quotient constant at order delta.

    Linear: sup of (|K(x,y)-K(x',y)| + |K(y,x)-K(y,x')|) |x-y|^(d+delta) / |x-x'|^delta
    over admissible |x-x'| < |x-y|/2. Bilinear: the analogous quotient with
    (|x-y|+|x-z|)^(2d+delta), maximized over K, K*1, K*2.
    """
    if delta is None:
        delta = K.delta
    rng = np.random.default_rng(seed)
    x, rs, pts = _separated_points(K, rng, n_samples)
    w = rng.normal(size=(n_samples, K.d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s = rng.uniform(0.01, 0.999, size=n_samples) * np.max(rs, axis=0) / 2.0
    xp = x + s * w[:, 0]
    sep = sum(rs) ** (len(rs) * K.d + delta)
    if K.arity == "linear":
        # K(x,y), K(x',y), K(y,x), K(y,x') in one call: a rule that works per
        # distinct separation sees each |x - y| and |x' - y| once
        (y,) = pts
        k = np.asarray(K.rule(np.concatenate([x, xp, y, y]),
                              np.concatenate([y, y, x, xp]))).reshape(4, n_samples)
        stats = [(np.abs(k[0] - k[1]) + np.abs(k[2] - k[3])) * sep / s ** delta]
    else:
        stats = [np.abs(np.asarray(rule(x, *pts)) - np.asarray(rule(xp, *pts))) * sep / s ** delta
                 for rule in (K.rule, transpose_kernel(K, 1).rule, transpose_kernel(K, 2).rule)]
    stat = max((np.where(np.isfinite(t), t, 0.0) for t in stats), key=np.max)
    i = int(np.argmax(stat))
    return KernelCertificate(kernel=K.name, condition="regularity", delta=delta,
                             constant=float(stat[i]), samples=n_samples, seed=seed,
                             witness=(float(x[i]), float(xp[i]), *(float(p[i]) for p in pts)))

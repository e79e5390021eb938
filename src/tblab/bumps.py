"""Normalized bump construction and finite-difference certification.

Two radial profiles:
  standard-mollifier  exp(-1/(1-r^2)) on r<1, scaled so that all derivatives
                      up to the requested order have sup <= 1;
  plateau             C^inf cutoff, 1 on r<=1/2, supported in r<1 (order 0:
                      any function dropping 1 -> 0 over width 1/2 has slope
                      >= 2, so no plateau profile can be normalized at order 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .grid import Grid, SampledFunction, sample

TOL_FD = 1e-2          # certification slack on measured derivative sups
MIN_PER_UNIT = 64      # coarsest grid allowed to certify a unit bump

_DENSE_N = 1 << 21     # dense maximization lattice for c_norm
_DENSE_BLOCK = 1 << 16  # samples per block of the dense lattices: O(block) temporaries


def _mollifier(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m = r < 1.0
    out[m] = np.exp(-1.0 / (1.0 - r[m] ** 2))
    return out


def _smoothstep(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _plateau(r):
    return _smoothstep(2.0 * (1.0 - np.asarray(r, dtype=float)))


PROFILES = {"standard-mollifier": _mollifier, "plateau": _plateau}


def _mollifier_deriv_polys(m_max: int):
    """psi^(m) = P_m(x) / (1-x^2)^(2m) * psi via the recurrence
    P_{m+1} = (1-x^2)^2 P' + (4 m x (1-x^2) - 2 x) P, P_0 = 1."""
    P = np.polynomial.Polynomial
    one_minus = P([1.0, 0.0, -1.0])
    polys = [P([1.0])]
    for m in range(m_max):
        p = polys[-1]
        polys.append(one_minus ** 2 * p.deriv() + (4 * m * P([0.0, 1.0]) * one_minus - P([0.0, 2.0])) * p)
    return polys


def _psi(m: int, r: np.ndarray) -> np.ndarray:
    """psi^(m)(r) for 0 <= r < 1, in log form so that no factor overflows."""
    one = 1.0 - r * r
    p = _mollifier_deriv_polys(m)[m](r)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return (np.exp(np.log(np.maximum(np.abs(p), 1e-300)) - 2 * m * np.log(one) - 1.0 / one)
                * np.sign(p))


@lru_cache(maxsize=None)
def _mollifier_radial_sup(m: int) -> float:
    """sup over r of |psi^(m)(r)| by dense sampling of the exact derivative, a
    block of samples at a time (a max is exact in any order)."""
    r = np.linspace(0.0, 1.0 - 1e-7, _DENSE_N)
    return float(max(np.max(np.abs(_psi(m, r[s:s + _DENSE_BLOCK])))
                     for s in range(0, _DENSE_N, _DENSE_BLOCK)))


@lru_cache(maxsize=None)
def deriv_sup(profile: str, m: int, d: int) -> float:
    """sup over R^d of |d^alpha profile| maximized over |alpha| = m."""
    if profile == "plateau":
        if m == 0:
            return 1.0
        raise ValueError("plateau profile is certified at order 0 only")
    if profile != "standard-mollifier":
        raise ValueError(f"unknown profile {profile!r}")
    if d == 1 and m > 6:
        raise ValueError("order capped at 6")
    if d != 1 and m > 2:
        raise ValueError("d=2 bump orders above 2 are not supported")
    if d == 1 or m < 2:
        # radial sups: |psi|, and |grad| = |psi'(r)| reached on an axis
        return _mollifier_radial_sup(m)
    # order 2: partial_xx = psi'' c^2 + (psi'/r) s^2, partial_xy = (psi''-psi'/r)cs
    r = np.linspace(1e-6, 1.0 - 1e-7, _DENSE_N // 4)
    psi2 = _psi(2, r)
    over_r = _psi(1, r) / r
    pxx = np.maximum(np.abs(psi2), np.abs(over_r))
    pxy = np.abs(psi2 - over_r) / 2.0
    return float(max(pxx.max(), pxy.max()))


@lru_cache(maxsize=None)
def c_norm(M: int, d: int, profile: str = "standard-mollifier") -> float:
    """Amplitude making every derivative up to order M have sup <= 1."""
    if M < 0:
        raise ValueError("order must be >= 0")
    sups = [deriv_sup(profile, m, d) for m in range(M + 1)]
    return 1.0 / max(sups)


@lru_cache(maxsize=None)
def profile_integral(profile: str, d: int) -> float:
    """int profile(|x|) dx over R^d by fine midpoint quadrature. The samples are
    computed a block at a time into one array and summed by one np.sum, in the
    order of the whole lattice."""
    f = PROFILES[profile]
    n = 1 << 22
    samples = np.empty(n)
    for s in range(0, n, _DENSE_BLOCK):
        r = (np.arange(s, s + _DENSE_BLOCK) + 0.5) / n
        samples[s:s + _DENSE_BLOCK] = f(r) if d == 1 else f(r) * r
    w = 1.0 / n
    if d == 1:
        return float(2.0 * np.sum(samples) * w)
    return float(2.0 * np.pi * np.sum(samples) * w)


@dataclass(frozen=True)
class BumpSpec:
    order: int
    profile: str
    c_norm: float


@dataclass(frozen=True)
class BumpCertificate:
    order: int
    sups: dict                 # multi-index -> measured FD sup
    support_radius: float

    @property
    def worst(self) -> float:
        return max(self.sups.values())

    @property
    def passed(self) -> bool:
        return self.worst <= 1.0 + TOL_FD

    @property
    def margin(self) -> float:
        return 1.0 + TOL_FD - self.worst


class BumpRule:
    """Closed form c * profile(|x - x0| / R); vectorized, resamplable."""

    def __init__(self, profile: str, amplitude: float, x0=(0.0,), R: float = 1.0):
        self.profile = profile
        self.amplitude = float(amplitude)
        self.x0 = tuple(float(c) for c in x0)
        self.R = float(R)

    def __call__(self, *coords):
        if len(coords) != len(self.x0):
            raise ValueError(f"rule is {len(self.x0)}-dimensional, got "
                             f"{len(coords)} coordinate arrays")
        r2 = np.zeros_like(np.asarray(coords[0], dtype=float))
        for c, c0 in zip(coords, self.x0):
            r2 = r2 + (np.asarray(c, dtype=float) - c0) ** 2
        return self.amplitude * PROFILES[self.profile](np.sqrt(r2) / self.R)

    def translated_dilated(self, x0, R: float) -> "BumpRule":
        new_center = tuple(float(a) + R * b for a, b in zip(x0, self.x0))
        return BumpRule(self.profile, self.amplitude, new_center, R * self.R)

    def sample(self, grid: Grid, name: str = "") -> SampledFunction:
        """The rule on `grid`, whose box must contain the support ball B(x0, R)."""
        for i in range(grid.d):
            if abs(self.x0[i] - grid.box.center[i]) + self.R > grid.box.side / 2.0 + 1e-12:
                raise ValueError(
                    f"support ball B({self.x0}, {self.R}) escapes the grid box on axis {i}")
        return sample(self, grid, name=name)


def standard_bump(M: int, grid: Grid, profile: str = "standard-mollifier"):
    """Certifiable normalized bump of order M sampled on `grid`.

    Returns (SampledFunction, BumpSpec). The amplitude is chosen from dense
    maximization of the profile's exact derivatives, then verify_bump can
    re-check it with grid finite differences.
    """
    if 1.0 / grid.h < MIN_PER_UNIT:
        raise ValueError(
            f"grid too coarse to certify: {1.0 / grid.h:.1f} points per unit "
            f"length, need >= {MIN_PER_UNIT}")
    c = c_norm(M, grid.d, profile)
    sf = BumpRule(profile, c, x0=(0.0,) * grid.d).sample(grid, f"{profile}-M{M}")
    return sf, BumpSpec(order=M, profile=profile, c_norm=c)


def plateau_bump(grid: Grid):
    """Order-0 certified plateau cutoff (1 on r<=1/2, supported in r<1)."""
    return standard_bump(0, grid, profile="plateau")


def translate_dilate(f: SampledFunction, x0, R: float, grid: Grid | None = None) -> SampledFunction:
    """Exact resampling of the bump's closed form at ((x - x0) / R)."""
    if R <= 0:
        raise ValueError("scale R must be positive")
    if not isinstance(f.rule, BumpRule):
        raise ValueError("translate_dilate needs the closed-form BumpRule of a bump")
    g = grid if grid is not None else f.grid
    x0 = tuple(float(c) for c in np.atleast_1d(x0))
    if len(x0) != g.d:
        raise ValueError(f"center has dimension {len(x0)}, grid is d={g.d}")
    return f.rule.translated_dilated(x0, R).sample(g, f.name)


def _central_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = np.zeros_like(values)
    v = np.moveaxis(values, axis, 0)
    np.moveaxis(out, axis, 0)[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    return out


def verify_bump(f: SampledFunction, M: int) -> BumpCertificate:
    """Measure sup |d^alpha f| for |alpha| <= M with central differences.

    The function must vanish on the outermost cell ring (support in the grid
    interior), otherwise the stencils would see the cutoff.
    """
    g = f.grid
    vals = f.values
    mag = np.abs(vals)
    edge = ~np.pad(np.ones((g.n - 2,) * g.d, dtype=bool), 1)    # the outermost cell ring
    if np.any(mag[edge] > 0):
        bad = np.argwhere(mag * edge > 0)[0]
        pt = tuple(g.axis(i)[bad[i]] for i in range(g.d))
        raise ValueError(f"support touches the grid boundary at {pt}")

    center = getattr(f.rule, "x0", None) or (0.0,) * g.d
    r = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(g.meshgrid(), center)))
    support_radius = float(np.max(r, where=mag > 0, initial=0.0))

    sups = {}
    for alpha in product(range(M + 1), repeat=g.d):
        if sum(alpha) > M:
            continue
        cur = vals.real if f.is_real else vals
        for ax, m in enumerate(alpha):
            for _ in range(m):
                cur = _central_diff(cur, g.h, ax)
        sups[alpha] = float(np.max(np.abs(cur)))
    return BumpCertificate(order=M, sups=sups, support_radius=support_radius)

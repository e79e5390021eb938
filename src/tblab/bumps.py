"""Normalized bump construction and finite-difference certification.

Two radial profiles:
  standard-mollifier  exp(-1/(1-r^2)) on r<1, scaled so that all derivatives
                      up to the requested order have sup <= 1;
  plateau             C^inf cutoff, 1 on r<=1/2, supported in r<1 (order 0:
                      any function dropping 1 -> 0 over width 1/2 has slope
                      >= 2, so no plateau profile can be normalized at order 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .grid import Grid, SampledFunction, sample

TOL_FD = 1e-2          # certification slack on measured derivative sups
MIN_PER_UNIT = 64      # coarsest grid allowed to certify a unit bump


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


def _check_profile(profile: str, d: int) -> None:
    """ValueError naming an unknown profile or a dimension other than 1 and 2."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known: {', '.join(PROFILES)}")
    if d not in (1, 2):
        raise ValueError(f"bump constants are implemented for d = 1 and 2, got d = {d}")


_P = np.polynomial.Polynomial
_ONE_MINUS = _P([1.0, 0.0, -1.0])       # 1 - r^2


def _radial_deriv(N, k: int):
    """D with d/dr [N (1-r^2)^-k psi] = D (1-r^2)^-(k+2) psi, psi = exp(-1/(1-r^2))."""
    return _ONE_MINUS ** 2 * N.deriv() + (2 * k * _P([0.0, 1.0]) * _ONE_MINUS - _P([0.0, 2.0])) * N


def _mollifier_deriv_polys(m_max: int):
    """psi^(m) = P_m(x) / (1-x^2)^(2m) * psi via the recurrence
    P_{m+1} = (1-x^2)^2 P' + (4 m x (1-x^2) - 2 x) P, P_0 = 1."""
    polys = [_P([1.0])]
    for m in range(m_max):
        polys.append(_radial_deriv(polys[-1], 2 * m))
    return polys


def _radial_abs(N, k: int, r: float) -> float:
    """|N(r)| (1-r^2)^-k psi(r) at one 0 <= r < 1: N(r) and 1 - r^2 exact in
    rationals, each rounded once, and the rest in log form so that no factor
    overflows. Its relative error is about 1e-14 for the orders used here."""
    q = Fraction(r)
    p = abs(sum(Fraction(c) * q ** j for j, c in enumerate(N.coef)))
    if p == 0:
        return 0.0
    one = 1 - q * q
    return math.exp(math.log(p) - k * math.log(one) - 1.0 / float(one))


_SUP_MARGIN = 1e-13     # above _radial_abs's error: a sup is an upper bound, so c_norm normalizes


def _radial_sup(N, k: int) -> float:
    """sup over 0 <= r < 1 of |N (1-r^2)^-k psi|, rounded up by _SUP_MARGIN: the
    larger of its value at r = 0 and at its critical points, the real roots in
    (0, 1) of _radial_deriv, each refined by four Newton steps."""
    D = _radial_deriv(N, k)
    roots = D.roots()
    r = roots.real[(np.abs(roots.imag) < 1e-9) & (roots.real > 0.0) & (roots.real < 1.0)]
    dD = D.deriv()
    for _ in range(4):
        r = r - D(r) / dD(r)
    return max(_radial_abs(N, k, float(c)) for c in [0.0, *r]) * (1.0 + _SUP_MARGIN)


@lru_cache(maxsize=None)
def _mollifier_radial_sup(m: int) -> float:
    """sup over r of |psi^(m)(r)|; its critical points are the roots of P_{m+1}."""
    return _radial_sup(_mollifier_deriv_polys(m)[m], 2 * m)


@lru_cache(maxsize=None)
def deriv_sup(profile: str, m: int, d: int) -> float:
    """sup over R^d of |d^alpha profile| maximized over |alpha| = m."""
    _check_profile(profile, d)
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if profile == "plateau":
        if m == 0:
            return 1.0
        raise ValueError("plateau profile is certified at order 0 only")
    if d == 1 and m > 6:
        raise ValueError("order capped at 6")
    if d == 2 and m > 2:
        raise ValueError("d=2 bump orders above 2 are not supported")
    if d == 1 or m < 2:
        # radial sups: |psi|, and |grad| = |psi'(r)| reached on an axis
        return _mollifier_radial_sup(m)
    # order 2: partial_xx = psi'' c^2 + (psi'/r) s^2 peaks at c = 1 or s = 1, and
    # partial_xy = (psi'' - psi'/r) c s at c s = 1/2; psi'/r = -2 (1-r^2)^-2 psi
    p2 = _mollifier_deriv_polys(2)[2]
    return max(_mollifier_radial_sup(2), _radial_sup(_P([-2.0]), 2),
               _radial_sup((p2 + 2.0 * _ONE_MINUS ** 2) / 2.0, 4))


@lru_cache(maxsize=None)
def c_norm(M: int, d: int, profile: str = "standard-mollifier") -> float:
    """Amplitude making every derivative up to order M have sup <= 1."""
    _check_profile(profile, d)
    if M < 0:
        raise ValueError("order must be >= 0")
    sups = [deriv_sup(profile, m, d) for m in range(M + 1)]
    return 1.0 / max(sups)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_U_PANELS = np.concatenate([[0.0], np.linspace(0.25, 1.0, 17)])     # u = 1/4 is the plateau's edge


@lru_cache(maxsize=None)
def profile_integral(profile: str, d: int) -> float:
    """int profile(|x|) dx over R^d.

    d = 1: 2 int_0^1 f(r) dr by the 256-point midpoint rule, exact to roundoff
    as both profiles are flat at r = 1 and even at r = 0. d = 2:
    2 pi int_0^1 f(r) r dr = pi int_0^1 f(sqrt u) du by Gauss-Legendre on panels
    of u: [0, 1/4] and 16 equal panels on [1/4, 1], as the plateau ends at
    u = 1/4 (r = 1/2).
    """
    _check_profile(profile, d)
    f = PROFILES[profile]
    if d == 1:
        return float(2.0 * np.sum(f((np.arange(256) + 0.5) / 256)) / 256)
    a, b = _U_PANELS[:-1, None], _U_PANELS[1:, None]
    u = (a + b) / 2.0 + (b - a) / 2.0 * _GL_NODES
    return float(np.pi * np.sum((b - a) / 2.0 * _GL_WEIGHTS * f(np.sqrt(u))))


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

    Returns (SampledFunction, BumpSpec). The amplitude is 1 over the largest
    exact derivative sup, each found at the critical points of its closed
    form, then verify_bump can re-check it with grid finite differences.
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

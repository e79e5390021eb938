from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from tblab.grid import SampledFunction, cube1, make_grid
from tblab.kernels import (KernelModel, _bilinear_homog, _sep_samples, check_regularity,
                           check_size, gallery, transpose_kernel, _CommutatorEvenKernel)
from tblab.quadrature import PvPolicy, apply_bilinear_field, plan


def test_hilbert_pointwise():
    K = gallery("hilbert")
    assert K.rule(1.0, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert K.rule(0.0, 2.0) == pytest.approx(-1.0 / (2.0 * np.pi), rel=1e-14)


def test_cauchy_reduces_to_pi_hilbert_when_flat():
    Kc = gallery("cauchy-lipschitz", lam=0.0)
    Kh = gallery("hilbert")
    x = np.linspace(-3, 3, 11)
    y = x[::-1] + 0.1
    np.testing.assert_allclose(Kc.rule(x, y), np.pi * Kh.rule(x, y), rtol=1e-13)


def test_bilinear_homog_pointwise():
    K = gallery("bilinear-homog")
    # u = v = 1 at (x,y,z) = (1, 0, 0)
    assert K.rule(1.0, 0.0, 0.0) == pytest.approx(0.25, rel=1e-14)


def _bilinear_homog_masked(u, v):
    """The masked form of the bilinear-homog profile, kept as its oracle."""
    s2 = u * u + v * v
    out = np.zeros(np.broadcast(u, v).shape)
    nz = s2 > 0
    uu = np.broadcast_to(u, out.shape)[nz]
    vv = np.broadcast_to(v, out.shape)[nz]
    out[nz] = uu * vv / (uu * uu + vv * vv) ** 2
    return out


@pytest.mark.parametrize("n,box", [(127, 8.0), (384, 64.0)])
def test_bilinear_homog_profile_is_bit_identical_to_masked_form(n, box, rng):
    # lattice offsets in broadcast (n, 1) x (1, n) form hold the origin and
    # both axes; random pairs hold the axes and the origin explicitly
    h = box / n
    q = np.arange(1 - n, n) * h
    u = np.concatenate([rng.uniform(-3, 3, 200), [0.0, 0.0, 1.5, -0.0, 2.0 ** -600]])
    v = np.concatenate([rng.uniform(-3, 3, 200), [0.0, 2.5, 0.0, 0.0, 0.0]])
    for a, b in ((q[:, None], q[None, :]), (u, v), (u[:, None], v[None, :]),
                 (0.0, q), (q, 0.0)):
        got, want = _bilinear_homog(a, b), _bilinear_homog_masked(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))    # signed zeros too
    assert _bilinear_homog(0.0, 0.0) == 0.0 and _bilinear_homog(1.0, 1.0) == 0.25


def test_gallery_unknown_name():
    with pytest.raises(ValueError, match="unknown gallery"):
        gallery("riesz")


@pytest.mark.parametrize("name,taken", [("hilbert", {}), ("positive-control", {}),
                                        ("bilinear-homog", {}),
                                        ("cauchy-lipschitz", {"lam": 0.2}),
                                        ("commutator", {"mu": 0.5})])
def test_gallery_rejects_unknown_params(name, taken):
    # hilbert, positive-control and bilinear-homog used to drop every parameter
    with pytest.raises(ValueError, match=rf"unknown {name} params \['bogus', 'lam_x'\]"):
        gallery(name, **taken, lam_x=0.5, bogus=3)
    assert gallery(name, **taken).name == name


def test_cauchy_lipschitz_bound_enforced():
    with pytest.raises(ValueError, match="Lipschitz"):
        gallery("cauchy-lipschitz", lam=0.8, lip_bound=0.5)
    gallery("cauchy-lipschitz", lam=0.45, lip_bound=0.5)   # inside the bound


def test_hilbert_transpose_is_negative():
    K = gallery("hilbert")
    Kt = transpose_kernel(K)
    x = np.linspace(-2, 2, 9)
    y = x + 0.7
    np.testing.assert_allclose(Kt.rule(x, y), -K.rule(x, y), rtol=0, atol=1e-15)


def test_bilinear_transpose_involution_and_swap(rng):
    # transposes compose: K*1*1 and K*2*2 have K's own profile back, so their
    # plans are K's bit for bit; the 3-cycles K*1*2 = K(y, z, x) and K*2*1 =
    # K(z, x, y), and K*1*2*1 = K(x, z, y), read K's spectrum through the
    # other slots and input orders, and match the dense oracle
    K = gallery("bilinear-homog")
    K1 = transpose_kernel(K, 1)
    K11 = transpose_kernel(K1, 1)
    K2 = transpose_kernel(K, 2)
    K22 = transpose_kernel(K2, 2)
    K12, K21 = transpose_kernel(K1, 2), transpose_kernel(K2, 1)
    K121 = transpose_kernel(K12, 1)
    pts = rng.uniform(-3, 3, size=(50, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    np.testing.assert_allclose(K11.rule(x, y, z), K.rule(x, y, z), atol=1e-15)
    np.testing.assert_allclose(K2.rule(x, y, z), K.rule(z, y, x), atol=1e-15)
    np.testing.assert_allclose(K1.rule(x, y, z), K.rule(y, x, z), atol=1e-15)
    np.testing.assert_allclose(K12.rule(x, y, z), K.rule(y, z, x), atol=1e-15)
    np.testing.assert_allclose(K21.rule(x, y, z), K.rule(z, x, y), atol=1e-15)
    np.testing.assert_allclose(K121.rule(x, y, z), K.rule(x, z, y), atol=1e-15)
    assert K11.lattice is K.lattice and K22.lattice is K.lattice
    for k in (K12, K21, K121):
        # the marker's profile is the permuted kernel's, P(x_0 - x_1, x_0 - x_2)
        np.testing.assert_allclose(k.lattice(x - y, x - z), k.rule(x, y, z), rtol=1e-12)
    for n in (96, 127):
        g = make_grid(1, cube1(0.0, 8.0), n)
        u = g.axis(0) / 2.0
        f = SampledFunction(grid=g, values=np.exp(-u * u) * (1.0 + 0.3j * np.tanh(u)))
        h = SampledFunction(grid=g, values=np.exp(-(u - 0.3) ** 2) + 0.1j * u * np.exp(-u * u))
        for c_eps in (1, 2, 4):
            policy = PvPolicy(c_eps=c_eps)
            T = plan(K, g, policy)(f, h)
            for k in (K11, K22):
                Tk = plan(k, g, policy)(f, h)
                assert np.array_equal(Tk.field.values, T.field.values)
                assert np.array_equal(Tk.converged, T.converged)
            for k in (K12, K21, K121):
                fast = plan(k, g, policy)(f, h)
                dense = apply_bilinear_field(replace(k, lattice=None), f, h, policy)
                scale = np.max(np.abs(dense.field.values))
                assert np.max(np.abs(fast.field.values - dense.field.values)) <= 1e-12 * scale
                assert np.array_equal(fast.converged, dense.converged)


def test_hilbert_antisymmetry_exact(rng):
    K = gallery("hilbert")
    x = rng.uniform(-5, 5, 200)
    y = x + np.exp(rng.uniform(np.log(1e-3), np.log(3), 200))
    np.testing.assert_array_equal(K.rule(x, y), -K.rule(y, x))


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_bilinear_homogeneity(t, rng):
    K = gallery("bilinear-homog")
    u = rng.uniform(-2, 2, 100)
    v = rng.uniform(-2, 2, 100)
    lhs = K.rule(0.0, -t * u, -t * v)          # kernel at (t u, t v)
    rhs = K.rule(0.0, -u, -v) * t ** (-2.0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_check_size_hilbert_exact_constant():
    cert = check_size(gallery("hilbert"))
    assert cert.constant == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_check_size_cauchy_bounded_by_one():
    # |denominator| >= |x - y| analytically
    cert = check_size(gallery("cauchy-lipschitz", lam=0.3))
    assert cert.constant <= 1.0 + 1e-12
    assert cert.constant >= 1.0 / np.sqrt(1.0 + 0.09) - 1e-6


def test_check_size_bilinear_am_gm():
    # |uv| <= (u^2 + v^2)/2 gives |K| (|u|+|v|)^2 <= 1/2... with the cross
    # term: (|u|+|v|)^2 <= 2(u^2+v^2), so the sampled constant is <= 1
    cert = check_size(gallery("bilinear-homog"))
    assert cert.constant <= 1.0 + 1e-12
    assert cert.constant >= 0.4


def test_check_regularity_hilbert_constant_window():
    # summing both regularity difference terms doubles the single-term bound:
    # admissible sup approaches 4/pi, never drops below the 2/pi limit value
    cert = check_regularity(gallery("hilbert"), delta=1.0)
    assert 2.0 / np.pi - 1e-3 <= cert.constant <= 4.0 / np.pi + 1e-9


def _four_call_regularity(K, n_samples=10_000, seed=1234):
    """check_regularity (linear, delta = 1) with one rule call per term, the
    K(x,y), K(x',y), K(y,x), K(y,x') form: the reference for the one-call form."""
    rng = np.random.default_rng(seed)
    x, r, u = _sep_samples(rng, n_samples, 1)
    x, y = x[:, 0], x[:, 0] + r * u[:, 0]
    w = rng.normal(size=(n_samples, 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s = rng.uniform(0.01, 0.999, size=n_samples) * r / 2.0
    xp = x + s * w[:, 0]
    t1 = np.abs(np.asarray(K.rule(x, y)) - np.asarray(K.rule(xp, y)))
    t2 = np.abs(np.asarray(K.rule(y, x)) - np.asarray(K.rule(y, xp)))
    stat = (t1 + t2) * r ** 2 / s
    i = int(np.argmax(np.where(np.isfinite(stat), stat, 0.0)))
    return float(stat[i]), (float(x[i]), float(xp[i]), float(y[i]))


@pytest.mark.parametrize("name", ["hilbert", "cauchy-lipschitz", "commutator",
                                  "positive-control"])
def test_check_regularity_matches_four_call_form(name):
    K = gallery(name)
    cert = check_regularity(K, delta=1.0)
    constant, witness = _four_call_regularity(K)
    assert cert.constant == pytest.approx(constant, rel=1e-12)
    np.testing.assert_allclose(cert.witness, witness, rtol=1e-12)


def test_check_regularity_positive_control_finite():
    cert = check_regularity(gallery("positive-control"), delta=1.0)
    assert np.isfinite(cert.constant)
    assert cert.constant <= 4.0 / np.pi * np.pi + 1.0   # same scale as hilbert's


def test_check_size_monotone_in_samples():
    K = gallery("hilbert")
    small = check_size(K, n_samples=1000, seed=7)
    big = check_size(K, n_samples=20000, seed=7)
    assert big.constant >= small.constant - 1e-15


def test_certificates_deterministic():
    K = gallery("cauchy-lipschitz")
    a = check_size(K, seed=99)
    b = check_size(K, seed=99)
    assert a == b


def test_bilinear_regularity_covers_transposes():
    # on the default draws the quotients of K, K*1 and K*2 peak at 12.27,
    # 35.74 and 36.42: the constant is their max, above K's alone
    K = gallery("bilinear-homog")
    peaks = [float(np.max(t)) for t in _two_draw_quotients(K, 1.0, 10_000, 1234)[1]]
    constant = check_regularity(K, delta=1.0).constant
    assert constant == max(peaks)
    assert constant > peaks[0]


def _two_draw_points(n_samples, seed):
    """The generator after the draws and (x, r1, r2, y, z): y from one
    _sep_samples draw, z from a second."""
    rng = np.random.default_rng(seed)
    x, r1, u1 = _sep_samples(rng, n_samples, 1)
    _, r2, u2 = _sep_samples(rng, n_samples, 1)
    return rng, (x[:, 0], r1, r2, (x + r1[:, None] * u1)[:, 0], (x + r2[:, None] * u2)[:, 0])


def _two_draw_quotients(K, delta, n_samples, seed):
    """The witness points (x, x', y, z) and the regularity quotients of K, K*1
    and K*2 on them, one rule at a time, in the two-draw form."""
    rng, (x, r1, r2, y, z) = _two_draw_points(n_samples, seed)
    w = rng.normal(size=(n_samples, 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    s = rng.uniform(0.01, 0.999, size=n_samples) * np.maximum(r1, r2) / 2.0
    xp = x + (s[:, None] * w)[:, 0]
    stats = []
    for rule in (K.rule, transpose_kernel(K, 1).rule, transpose_kernel(K, 2).rule):
        t = np.abs(np.asarray(rule(x, y, z)) - np.asarray(rule(xp, y, z)))
        stat = t * (r1 + r2) ** (2 + delta) / s ** delta
        stats.append(np.where(np.isfinite(stat), stat, 0.0))
    return (x, xp, y, z), stats


def _two_draw_bilinear(K, delta, n_samples, seed):
    """check_size and check_regularity of a bilinear kernel in the two-draw
    form, the regularity quotient maximized over K, K*1, K*2 one rule at a
    time: the reference for the separation sampler both arities share."""
    _, (x, r1, r2, y, z) = _two_draw_points(n_samples, seed)
    stat = np.abs(np.asarray(K.rule(x, y, z))) * (r1 + r2) ** 2
    stat = np.where(np.isfinite(stat), stat, 0.0)
    i = int(np.argmax(stat))
    size = (float(stat[i]), (float(x[i]), float(r1[i])))
    pts, stats = _two_draw_quotients(K, delta, n_samples, seed)
    best = None
    for stat in stats:
        if best is None or np.max(stat) > best[0]:
            i = int(np.argmax(stat))
            best = (float(stat[i]), tuple(float(p[i]) for p in pts))
    return size, best


def _skew_bilinear():
    # no symmetry between K, K*1 and K*2, and no lattice structure
    return KernelModel(name="skew", arity="bilinear", d=1, delta=1.0, size_constant=1.0,
                       rule=lambda x, y, z: (2.0 * y - x + 0.5 * z) /
                       (np.abs(x - y) + np.abs(x - z)) ** 3)


@pytest.mark.parametrize("kernel", ["bilinear-homog", "skew"])
@pytest.mark.parametrize("seed", [1234, 7])
@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_bilinear_certificates_match_two_draw_form(kernel, seed, delta):
    K = gallery(kernel) if kernel != "skew" else _skew_bilinear()
    size, reg = _two_draw_bilinear(K, delta, 2000, seed)
    cs = check_size(K, n_samples=2000, seed=seed)
    cr = check_regularity(K, delta=delta, n_samples=2000, seed=seed)
    assert (cs.constant, cs.witness) == size
    assert (cr.constant, cr.witness) == reg


# --- the commutator kernel's factored Fourier quadrature ---

def test_commutator_quadrature_matches_dawson_closed_form():
    # for the mu=0 symbol |xi| exp(-(xi/lam)^2) the kernel is
    # (lam^2 / 2 pi) (1 - lam u dawsn(lam u / 2)); checks the quadrature
    # machinery against an independent special-function route
    lam = 64.0
    k = _CommutatorEvenKernel(lam, 0.0)
    u = np.array([0.01, 0.05, 0.1, 0.3, 1.0, 3.0])
    expected = lam ** 2 / (2 * np.pi) * (1.0 - lam * u * dawsn(lam * u / 2.0))
    np.testing.assert_allclose(k(u), expected, rtol=1e-6)


def test_commutator_quadrature_matches_scipy_quad():
    lam, mu = 64.0, 1.0 / 64.0
    k = _CommutatorEvenKernel(lam, mu)
    for u in (0.05, 0.4, 1.3):
        ref, _ = quad(lambda xi: np.sqrt(mu ** 2 + xi ** 2)
                      * np.exp(-(xi / lam) ** 2) * np.cos(u * xi) / np.pi,
                      0, 8 * lam, limit=400)
        assert float(k(np.array([u]))[0]) == pytest.approx(ref, rel=1e-5)


def test_commutator_kernel_asymptote():
    # -1/(pi u^2) in the window 1/lam << u << 1/mu
    K = gallery("commutator")
    k = K.lattice[0][1]
    for u in (0.5, 1.0, 2.0):
        assert float(k(np.array([u]))[0]) == pytest.approx(
            -1.0 / (np.pi * u * u), rel=2e-2)


def test_commutator_kernel_structure():
    K = gallery("commutator")
    # K(x, y) = (a(y) - a(x)) m(x) k(x - y): vanishing a-increment kills it
    x = np.array([0.3])
    assert abs(complex(K.rule(x, x + 1e-9)[0])) < 1e-6
    cert = check_size(K)
    assert np.isfinite(cert.constant)


def _direct_simpson_sum(u, dtype=np.float64, lam=64.0, mu=1.0 / 64.0, n=1 << 15):
    """The commutator kernel's Simpson rule summed node by node in blocks of
    cos(outer(u, xi)), in the given float type: the reference for the factored sum."""
    dxi = dtype(8.0 * lam / n)
    xi = np.arange(n + 1).astype(dtype) * dxi
    w = np.full(n + 1, 2.0, dtype=dtype)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    sw = np.sqrt(dtype(mu) ** 2 + xi ** 2) * np.exp(-(xi / dtype(lam)) ** 2) * (w * dxi / 3.0)
    u = np.asarray(u, dtype=dtype)
    out = np.empty(len(u), dtype=dtype)
    for s in range(0, len(u), 32):
        out[s:s + 32] = (np.cos(np.outer(u[s:s + 32], xi)) * sw).sum(axis=1) / np.pi
    return out


def _lattice_offsets(n, box):
    return np.arange(1 - n, n) * make_grid(1, cube1(0.0, box), n).h


@pytest.mark.parametrize("u", [
    _lattice_offsets(256, 24.0),
    _lattice_offsets(384, 64.0),
    np.exp(np.random.default_rng(7).uniform(np.log(1e-3), np.log(10.0), 150)),
], ids=["lattice-256-box24", "lattice-384-box64", "log-uniform-150"])
def test_commutator_kernel_matches_direct_simpson_sum(u):
    # the kernel evaluates at the distinct np.round(|u|, 12), as the oracle does here
    k = gallery("commutator").lattice[0][1]
    ref = _direct_simpson_sum(np.round(np.abs(u), 12))
    assert np.max(np.abs(k(u) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_commutator_kernel_near_extended_precision_sum():
    # the same rule summed in long double; the direct float64 sum is off by
    # 3.8e-15 of max|k| at these offsets, the factored sum with compensated
    # trig arguments by under 1e-16
    u = np.round(_lattice_offsets(384, 64.0)[383:], 12)
    ref = _direct_simpson_sum(u, dtype=np.longdouble)
    err = np.abs(gallery("commutator").lattice[0][1](u) - ref)
    assert float(np.max(err) / np.max(np.abs(ref))) <= 3e-16


@pytest.mark.parametrize("name,mode", [("hilbert", "scaled"), ("cauchy-lipschitz", "scaled"),
                                       ("bilinear-homog", "scaled"), ("commutator", "fixed"),
                                       ("positive-control", "fixed")])
def test_gallery_grid_modes_carry_over_to_transposes(name, mode):
    # the commutator has an intrinsic scale and the positive control needs a
    # fixed lattice to show its divergence; the others run on scale-matched grids
    K = gallery(name)
    which = (1,) if K.arity == "linear" else (1, 2)
    assert [k.grid_mode for k in [K] + [transpose_kernel(K, w) for w in which]] == \
        [mode] * (len(which) + 1)


def test_transpose_arity_checks():
    with pytest.raises(ValueError):
        transpose_kernel(gallery("hilbert"), 2)
    with pytest.raises(ValueError):
        transpose_kernel(gallery("bilinear-homog"), 3)


@pytest.mark.parametrize("name", ["hilbert", "commutator", "positive-control"])
def test_linear_lattice_reproduces_rule(name, rng):
    K = gallery(name)
    x, y = rng.uniform(-3, 3, size=(2, 40))
    for k in (K, transpose_kernel(K)):
        lat = sum((1.0 if left is None else left(x)) * p(x - y) *
                  (1.0 if right is None else right(y)) for left, p, right in k.lattice)
        np.testing.assert_allclose(lat, k.rule(x, y), rtol=1e-12, atol=1e-12)


def test_bilinear_lattice_reproduces_rule(rng):
    K = gallery("bilinear-homog")
    x, y, z = rng.uniform(-3, 3, size=(3, 40))
    for k in (K, transpose_kernel(K, 1), transpose_kernel(K, 2)):
        np.testing.assert_allclose(k.lattice(x - y, x - z), k.rule(x, y, z),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_curve_reproduces_rule(lam, rng):
    K = gallery("cauchy-lipschitz", lam=lam, lip_bound=1.0)
    assert K.lattice is None
    x, y = rng.uniform(-3, 3, size=(2, 40))
    for k in (K, transpose_kernel(K)):
        left, z, right = k.curve
        cur = ((1.0 if left is None else left(x)) * (1.0 if right is None else right(y))
               / (z(x) - z(y)))
        np.testing.assert_allclose(cur, k.rule(x, y), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("check", [check_size, check_regularity])
@pytest.mark.parametrize("arity", ["linear", "bilinear"])
def test_certification_rejects_d2_kernels_before_sampling(check, arity):
    # the samplers read 1-D slices only: a d=2 kernel would be certified wrongly
    calls = []
    K = KernelModel(name="riesz-like", arity=arity, d=2, delta=1.0, size_constant=1.0,
                    rule=lambda *args: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match="d=1 separations; kernel riesz-like has d=2"):
        check(K, n_samples=10)
    assert calls == []


@pytest.mark.parametrize("name,params,parity", [
    ("hilbert", {}, -1), ("cauchy-lipschitz", {"lam": 0.3}, -1),
    ("cauchy-lipschitz", {"lam": 1.5, "lip_bound": 2.0}, -1), ("commutator", {}, 0),
    ("bilinear-homog", {}, 0), ("positive-control", {}, 1)])
def test_gallery_parities_and_their_transposes(name, params, parity):
    # K(y, x) = parity K(x, y) holds for the rule, and K* keeps the parity
    K = gallery(name, **params)
    assert K.parity == parity
    if K.arity == "linear":
        assert transpose_kernel(K).parity == parity
    if parity:
        x, y = np.linspace(-3.0, 2.0, 7), np.linspace(2.5, -1.7, 7)
        assert np.array_equal(K.rule(y, x), parity * K.rule(x, y))


@pytest.mark.parametrize("arity,parity", [("linear", 2), ("linear", -2), ("linear", 0.5),
                                          ("linear", True), ("bilinear", 1),
                                          ("bilinear", -1)])
def test_kernel_model_rejects_a_bad_parity(arity, parity):
    with pytest.raises(ValueError, match="parity"):
        KernelModel(name="k", arity=arity, d=1, delta=1.0, size_constant=1.0,
                    rule=lambda *xs: 0.0, parity=parity)

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblab import quadrature
from tblab.bumps import standard_bump, translate_dilate
from tblab.grid import Cube, SampledFunction, cube1, lp_norm, make_grid, sample
from tblab.harness import (B_ONE, DECOMP_CUBE, GridSpec, _bump_field, _localize,
                           bilinear_decomposition_check, stein_bilinear_tb_test, stein_t1_test)
from tblab.kernels import GALLERY_NAMES, KernelModel, gallery, transpose_kernel
from tblab.quadrature import (_SLICE_BYTES, _SUM_LEAF, PvPolicy, _arrays, _triple_pairing,
                              apply_bilinear, apply_bilinear_field, apply_linear,
                              apply_linear_field, pairing, plan, plans,
                              triple_pairing)

H = gallery("hilbert")

# frozen values for T(phi, phi) of the bilinear-homog kernel at the grid
# point nearest x = 0.5 (box 8, c_eps = 2), from an independent pre-build
# double-quadrature sweep; convergence is O(h) toward ~1.216e-3
BILINEAR_AT_HALF = {128: 0.00110174, 256: 0.00115976, 512: 0.00118776}


def _indicator_grid():
    # box [-4, 4], 512 cells: indicator edges at +-1 are cell edges
    return make_grid(1, cube1(0.0, 8.0), 512)


def test_hilbert_of_indicator_matches_antiderivative():
    g = _indicator_grid()
    f = sample(lambda x: ((x > -1) & (x < 1)).astype(float), g)
    i = g.nearest_index(2.0)[0]
    x = g.axis(0)[i]
    got = apply_linear(H, f, x)
    expected = np.log((x + 1.0) / (x - 1.0)) / np.pi   # ln(3)/pi at x=2
    assert complex(got).real == pytest.approx(expected, rel=1e-3)
    assert got.converged


def test_zero_function_gives_zero():
    g = _indicator_grid()
    z = sample(lambda x: 0.0 * x, g)
    assert complex(apply_linear(H, z, g.axis(0)[10])) == 0.0
    fr = apply_linear_field(H, z)
    assert np.all(fr.field.values == 0.0)


def test_even_function_at_center_is_zero():
    # odd n puts 0 on the grid; symmetric excision of the odd kernel
    # cancels an even function exactly
    g = make_grid(1, cube1(0.0, 8.0), 255)
    f = sample(lambda x: np.exp(-x * x), g)
    v = apply_linear(H, f, 0.0)
    assert abs(complex(v)) < 1e-14


def test_field_of_centered_bump_is_odd():
    g = make_grid(1, cube1(0.0, 8.0), 255)
    f = sample(lambda x: np.exp(-2 * x * x), g)
    fr = apply_linear_field(H, f)
    v = fr.field.values
    np.testing.assert_allclose(v, -v[::-1], atol=1e-13)


def test_hilbert_isometry_within_three_percent():
    # box >= 8x support, n = 512: tail truncation accounted in the tolerance
    g = make_grid(1, cube1(0.0, 16.0), 512)
    phi, _ = standard_bump(2, make_grid(1, cube1(0.0, 4.0), 512))
    f = translate_dilate(phi, (0.0,), 1.0, grid=g)
    fr = apply_linear_field(H, f)
    assert lp_norm(fr.field, 2) == pytest.approx(lp_norm(f, 2), rel=0.03)


def test_pv_stability_under_excision_halving():
    g = make_grid(1, cube1(0.0, 8.0), 512)
    f = sample(lambda x: np.exp(-x * x), g)
    x = g.axis(0)[200]
    v2 = apply_linear(H, f, x, PvPolicy(c_eps=2))
    assert v2.converged
    v4 = apply_linear(H, f, x, PvPolicy(c_eps=4))
    assert abs(complex(v4) - complex(v2)) <= 1e-2 * (1 + abs(complex(v2)))


def test_positive_control_flagged_nonconvergent():
    g = make_grid(1, cube1(0.0, 8.0), 512)
    f = sample(lambda x: np.exp(-x * x), g)
    K = gallery("positive-control")
    v = apply_linear(K, f, g.axis(0)[256])
    assert not v.converged
    assert isinstance(v.refined, complex) and v.refined != v.value
    # the default policy flags the field too, and a converged value still
    # carries its eps/2 estimate
    assert apply_linear_field(K, f).n_flagged > 0
    assert isinstance(apply_linear(H, f, g.axis(0)[256]).refined, complex)


def test_policy_validation():
    with pytest.raises(ValueError):
        PvPolicy(c_eps=0)
    with pytest.raises(ValueError):
        PvPolicy(tol_pv=-1.0)


@pytest.mark.parametrize("c_eps", [2.5, 2.0, True, np.True_, "2", None])
def test_policy_rejects_c_eps_that_is_not_an_integer(c_eps):
    # 2.5 and 2.0 used to raise a bare IndexError on use, True a broadcasting
    # error, and points= with 2.5 to return a value
    with pytest.raises(ValueError, match="c_eps must be an integer"):
        PvPolicy(c_eps=c_eps)


def test_policy_takes_a_numpy_integer_c_eps():
    g = make_grid(1, cube1(0.0, 16.0), 128)
    f = _smooth(g, 5)
    want = apply_linear_field(H, f, PvPolicy(c_eps=2))
    got = apply_linear_field(H, f, PvPolicy(c_eps=np.int64(2)))
    assert np.array_equal(got.field.values, want.field.values)
    assert np.array_equal(got.converged, want.converged)


def test_dilation_covariance_hilbert():
    # matched grids: same n per unit support
    vals = {}
    for R in (0.5, 1.0, 2.0):
        g = make_grid(1, cube1(0.0, 16.0 * R), 1024)
        phi, _ = standard_bump(2, make_grid(1, cube1(0.0, 4.0), 512))
        f = translate_dilate(phi, (0.0,), R, grid=g)
        vals[R] = lp_norm(apply_linear_field(H, f).field, 2)
    assert vals[2.0] == pytest.approx(np.sqrt(2.0) * vals[1.0], rel=0.02)
    assert vals[0.5] == pytest.approx(np.sqrt(0.5) * vals[1.0], rel=0.02)


# --- bilinear ---------------------------------------------------------------

def test_bilinear_zero_inputs():
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), 128)
    z = sample(lambda x: 0.0 * x, g)
    f = sample(lambda x: np.exp(-x * x), g)
    assert complex(apply_bilinear(K, z, f, g.axis(0)[60])) == 0.0
    assert complex(apply_bilinear(K, f, z, g.axis(0)[60])) == 0.0


def test_bilinear_even_even_vanishes_at_center():
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), 255)
    f = sample(lambda x: np.exp(-x * x), g)
    v = apply_bilinear(K, f, f, 0.0)
    assert abs(complex(v)) < 1e-14


@pytest.mark.parametrize("n", [128, 256, 512])
def test_bilinear_frozen_refinement_values(n):
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), n)
    phi, _ = standard_bump(2, make_grid(1, cube1(0.0, 4.0), 512))
    f = translate_dilate(phi, (0.0,), 1.0, grid=g)
    i = g.nearest_index(0.5)[0]
    v = apply_bilinear(K, f, f, g.axis(0)[i])
    assert complex(v).real == pytest.approx(BILINEAR_AT_HALF[n], rel=1e-4)


def test_pairing_examples():
    g = make_grid(1, cube1(0.0, 8.0), 512)
    ind = sample(lambda x: ((x > 0) & (x < 1)).astype(float), g)
    assert complex(pairing(ind, ind)).real == pytest.approx(1.0, abs=1e-12)


def test_pairing_symmetric(rng):
    g = make_grid(1, cube1(0.0, 8.0), 64)
    ur = SampledFunction(grid=g, values=rng.normal(size=64) + 0j)
    vr = SampledFunction(grid=g, values=rng.normal(size=64) + 0j)
    assert pairing(ur, vr) == pairing(vr, ur)        # real case: bit-exact
    u = SampledFunction(grid=g, values=rng.normal(size=64) + 1j * rng.normal(size=64))
    v = SampledFunction(grid=g, values=rng.normal(size=64) + 1j * rng.normal(size=64))
    # complex elementwise products commute only up to the fused-multiply-add
    # rounding inside numpy's complex kernel
    assert pairing(u, v) == pytest.approx(pairing(v, u), rel=1e-12, abs=1e-12)


def test_pairing_grid_mismatch():
    a = sample(lambda x: x, make_grid(1, cube1(0.0, 8.0), 64))
    b = sample(lambda x: x, make_grid(1, cube1(0.0, 8.0), 128))
    with pytest.raises(ValueError):
        pairing(a, b)


def test_hilbert_bump_self_pairing_vanishes():
    g = make_grid(1, cube1(0.0, 8.0), 511)
    phi, _ = standard_bump(2, make_grid(1, cube1(0.0, 4.0), 512))
    f = translate_dilate(phi, (0.0,), 1.0, grid=g)
    hf = apply_linear_field(H, f).field
    assert abs(pairing(hf, f)) < 1e-6


def test_triple_pairing_zero_factor():
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), 128)
    one = sample(lambda x: np.ones_like(x), g)
    z = sample(lambda x: 0.0 * x, g)
    f = sample(lambda x: np.exp(-x * x), g)
    assert triple_pairing(K, z, f, f, one, one, one) == 0.0


def test_triple_pairing_reduces_to_field_pairing():
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), 128)
    one = sample(lambda x: np.ones_like(x), g)
    f0 = sample(lambda x: np.exp(-((x - 0.5) ** 2)), g)
    f1 = sample(lambda x: np.exp(-x * x), g)
    f2 = sample(lambda x: np.exp(-2 * x * x), g)
    lhs = triple_pairing(K, f0, f1, f2, one, one, one)
    fr = apply_bilinear_field(K, f1, f2)
    rhs = pairing(fr.field, f0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_triple_pairing_all_even_vanishes():
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), 255)
    one = sample(lambda x: np.ones_like(x), g)
    f = sample(lambda x: np.exp(-x * x), g)
    # the x-integrand <T(f,f)(x), f(x)> is odd under x -> -x at each fixed
    # pair distance only for the field's odd part; at the center the field
    # vanishes and the even field pairs against even f symmetrically, so the
    # lattice sum reduces to roundoff only for the imaginary part; assert
    # the exact symmetry actually guaranteed: T(f,f)(0) = 0
    v = apply_bilinear(K, f, f, 0.0)
    assert abs(complex(v)) < 1e-14


def test_transpose_duality_on_disjoint_supports():
    g = make_grid(1, cube1(0.0, 16.0), 1024)
    phi, _ = standard_bump(2, make_grid(1, cube1(0.0, 4.0), 512))
    f = translate_dilate(phi, (-3.0,), 1.0, grid=g)
    h = translate_dilate(phi, (3.0,), 1.0, grid=g)
    Ht = transpose_kernel(H)
    lhs = pairing(apply_linear_field(H, f).field, h)
    rhs = pairing(f, apply_linear_field(Ht, h).field)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bilinear_grid_mismatch():
    K = gallery("bilinear-homog")
    a = sample(lambda x: x, make_grid(1, cube1(0.0, 8.0), 64))
    b = sample(lambda x: x, make_grid(1, cube1(0.0, 8.0), 128))
    with pytest.raises(ValueError):
        apply_bilinear(K, a, b, 0.0)


def test_arity_enforced():
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f = sample(lambda x: np.exp(-x * x), g)
    with pytest.raises(ValueError):
        apply_linear(gallery("bilinear-homog"), f, g.axis(0)[32])
    with pytest.raises(ValueError):
        apply_bilinear(H, f, f, g.axis(0)[32])


@pytest.mark.parametrize("call", ["linear", "linear_field", "bilinear", "bilinear_field"])
def test_d2_grid_rejected_before_index_lookup(call):
    # a scalar x on a d=2 grid would raise IndexError in index_of
    g = make_grid(2, Cube((0.0, 0.0), 8.0), 16)
    f = sample(lambda x, y: np.exp(-x * x - y * y), g)
    B = gallery("bilinear-homog")
    arity = "linear" if call.startswith("linear") else "bilinear"
    with pytest.raises(ValueError, match=f"{arity} PV quadrature is implemented for d=1"):
        {"linear": lambda: apply_linear(H, f, 0.0),
         "linear_field": lambda: apply_linear_field(H, f),
         "bilinear": lambda: apply_bilinear(B, f, f, 0.0),
         "bilinear_field": lambda: apply_bilinear_field(B, f, f)}[call]()


def test_c_eps_one_has_no_ring_on_every_path():
    # the ring (max(1, c_eps // 2), c_eps] between the two excisions is empty:
    # delta is 0, so a point refines to its own value and nothing is flagged,
    # also for the divergent positive control
    g = make_grid(1, cube1(0.0, 16.0), 255)
    f, h = _smooth(g, 15), _smooth(g, 16)
    x = g.axis(0)[100]
    policy = PvPolicy(c_eps=1)
    B = gallery("bilinear-homog")
    fields = [apply_linear_field(K, f, policy, points=pts)
              for K in (H, gallery("cauchy-lipschitz"), gallery("positive-control"))
              for pts in (None, [0, 100, 254])]
    fields += [apply_bilinear_field(B, f, h, policy, points=pts) for pts in (None, [0, 100])]
    assert H.lattice is not None and gallery("cauchy-lipschitz").curve is not None
    assert all(fr.converged.all() for fr in fields)
    points = [apply_linear(K, f, x, policy) for K in (H, gallery("positive-control"))]
    points.append(apply_bilinear(B, f, h, x, policy))
    assert all(pv.refined == pv.value and pv.converged for pv in points)


# --- lattice fast paths against the dense rows ---------------------------------
#
# The oracle is the same kernel with its lattice removed, which runs the dense
# arithmetic. On n = 127, box 8 and on n = 384, box 64 (h = 1/6) the float test
# S > eps and the integer test |p| + |q| > c_eps disagree on the excised set
# (336 and 1528 (i, j, k) triples at c_eps = 2); on power-of-two h they agree.

def _smooth(g, seed):
    rng = np.random.default_rng(seed)
    x = g.axis(0)
    w = x / (g.box.side / 8.0)
    noise = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    return SampledFunction(grid=g, values=np.exp(-w * w) * (1.0 + 0.3j * np.tanh(w))
                           + 0.1 * np.exp(-w * w / 2.0) * noise)


def _dense(K):
    return dataclasses.replace(K, lattice=None, curve=None)


def _assert_matches_oracle(fast, dense):
    scale = np.max(np.abs(dense.field.values))
    assert np.max(np.abs(fast.field.values - dense.field.values)) <= 1e-12 * scale
    np.testing.assert_array_equal(fast.converged, dense.converged)


LINEAR_ORACLE = [(name, t) for name in ("hilbert", "cauchy-lipschitz", "commutator",
                                        "positive-control") for t in (False, True)]


@pytest.mark.parametrize("name,transposed", LINEAR_ORACLE)
@pytest.mark.parametrize("n,box", [(255, 16.0), (384, 64.0), (1000, 64.0)])
def test_linear_field_matches_dense_oracle(name, transposed, n, box):
    # the treecode pads n = 255 to 4 leaves of 64 and n = 1000 to 16 leaves of 63
    K = gallery(name)
    K = transpose_kernel(K) if transposed else K
    f = _smooth(make_grid(1, cube1(0.0, box), n), 1)
    for c_eps in (1, 2, 4):
        policy = PvPolicy(c_eps=c_eps)
        _assert_matches_oracle(apply_linear_field(K, f, policy),
                               apply_linear_field(_dense(K), f, policy))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n,box", [(255, 16.0), (384, 64.0), (1000, 64.0)])
def test_cauchy_treecode_matches_dense_oracle_across_slopes(lam, n, box):
    # |lam| = 1 is the steepest graph with a curve structure: ratio <= sqrt(2)/3
    K = gallery("cauchy-lipschitz", lam=lam, lip_bound=1.0)
    assert K.curve is not None
    f = _smooth(make_grid(1, cube1(0.0, box), n), 1)
    for k in (K, transpose_kernel(K)):
        for c_eps in (1, 2, 4):
            policy = PvPolicy(c_eps=c_eps)
            _assert_matches_oracle(apply_linear_field(k, f, policy),
                                   apply_linear_field(_dense(k), f, policy))


def test_steep_cauchy_keeps_dense_rows():
    assert gallery("cauchy-lipschitz", lam=1.5, lip_bound=2.0).curve is None


@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_flat_cauchy_treecode_is_pi_hilbert_lattice(c_eps):
    # lam = 0: 1/(x - y) summed by the treecode against pi/(pi (x - y)) by FFT
    f = _smooth(make_grid(1, cube1(0.0, 64.0), 1000), 9)
    policy = PvPolicy(c_eps=c_eps)
    cauchy = apply_linear_field(gallery("cauchy-lipschitz", lam=0.0), f, policy)
    hilbert = apply_linear_field(gallery("hilbert"), f, policy)
    scale = np.max(np.abs(cauchy.field.values))
    assert np.max(np.abs(cauchy.field.values - np.pi * hilbert.field.values)) <= 1e-12 * scale
    np.testing.assert_array_equal(cauchy.converged, hilbert.converged)


@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_whole_cauchy_field_reads_no_dense_rows(c_eps):
    K = gallery("cauchy-lipschitz")
    evals = []

    def counting(x, y):
        out = K.rule(x, y)
        evals.append(np.size(out))
        return out

    n = 4096
    f = _smooth(make_grid(1, cube1(0.0, 64.0), n), 6)
    apply_linear_field(dataclasses.replace(K, rule=counting), f, PvPolicy(c_eps=c_eps))
    assert sum(evals) <= 2 * c_eps * n


@pytest.mark.parametrize("field", ["linear", "bilinear"])
@pytest.mark.parametrize("bad", [-1, 64, 2.5, True, np.False_])
def test_points_must_be_grid_indices(field, bad):
    # -1 used to read a wrapped row as converged; 2.5 was truncated to 2;
    # True and False were read as the indices 1 and 0
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f = sample(lambda x: np.exp(-x * x) + 0j, g)
    with pytest.raises(ValueError, match=re.escape(f"got {bad}")):
        if field == "linear":
            apply_linear_field(H, f, points=[0, bad])
        else:
            apply_bilinear_field(gallery("bilinear-homog"), f, f, points=[0, bad])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_bilinear_field_matches_dense_oracle(which):
    # the lattice plan's FFT length is 256 at n = 127 and 192 = 2^6 3 at n = 96
    K = gallery("bilinear-homog")
    K = transpose_kernel(K, which) if which else K
    for n, seed in ((127, 2), (96, 6)):
        g = make_grid(1, cube1(0.0, 8.0), n)
        f, h = _smooth(g, seed), _smooth(g, seed + 1)
        for c_eps in (1, 2, 4):
            policy = PvPolicy(c_eps=c_eps)
            _assert_matches_oracle(apply_bilinear_field(K, f, h, policy),
                                   apply_bilinear_field(_dense(K), f, h, policy))
    g = make_grid(1, cube1(0.0, 64.0), 384)
    f, h = _smooth(g, 4), _smooth(g, 5)
    _assert_matches_oracle(apply_bilinear_field(K, f, h), apply_bilinear_field(_dense(K), f, h))


def _bilinear_point_masked(K, fv, gv, grid, i, c_eps):
    """The dense bilinear point masked on the whole n x n slice, kept as its oracle."""
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


@pytest.mark.parametrize("n", [127, 384])
@pytest.mark.parametrize("box", [8.0, 64.0])
@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_bilinear_point_is_bit_identical_to_masked_oracle(n, box, c_eps):
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, box), n)
    f, h = _smooth(g, 10), _smooth(g, 11)
    pts = [0, 1, c_eps, n // 2, n - 2, n - 1]
    for i in pts:
        got = plan(K, g, PvPolicy(c_eps=c_eps), [i])(f, h).field.values[i]
        want = _bilinear_point_masked(K, f.values, h.values, g, i, c_eps)
        assert got == want[0]
        pv = apply_bilinear(K, f, h, g.axis(0)[i], PvPolicy(c_eps=c_eps))
        assert (pv.value, pv.refined) == (want[0], want[0] + want[1])
    fr = apply_bilinear_field(K, f, h, PvPolicy(c_eps=c_eps), points=pts)
    want = [_bilinear_point_masked(K, f.values, h.values, g, i, c_eps)[0] for i in pts]
    assert np.array_equal(fr.field.values[pts], np.array(want))


@pytest.mark.parametrize("c_eps", [1, 2])
def test_bilinear_point_zeroes_non_finite_values_as_the_oracle_does(c_eps):
    # 1 / ((x - y)(x - z)) is infinite on row and column i of the slice, in
    # excised cells and beyond the excision
    K = dataclasses.replace(gallery("bilinear-homog"), rule=lambda x, y, z: 1.0 / ((x - y) * (x - z)))
    g = make_grid(1, cube1(0.0, 8.0), 127)
    f, h = _smooth(g, 14), _smooth(g, 15)
    pts = [0, 3, 63, 126]
    fr = apply_bilinear_field(K, f, h, PvPolicy(c_eps=c_eps), points=pts)
    want = [_bilinear_point_masked(K, f.values, h.values, g, i, c_eps) for i in pts]
    assert np.array_equal(fr.field.values[pts], np.array([v for v, _ in want]))
    assert all(np.isfinite(v) for v, _ in want)


@pytest.mark.parametrize("c_eps", [7, 8, 16])
def test_bilinear_point_on_a_wholly_excised_slice_is_bit_identical(c_eps):
    # on a small grid the excision can cover every cell of a slice
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 4.0), 9)
    f, h = _smooth(g, 12), _smooth(g, 13)
    fr = apply_bilinear_field(K, f, h, PvPolicy(c_eps=c_eps), points=range(9))
    want = [_bilinear_point_masked(K, f.values, h.values, g, i, c_eps)[0] for i in range(9)]
    assert np.array_equal(fr.field.values, np.array(want))


def _bits(v):
    return np.ascontiguousarray(v, dtype=complex).view(np.int64)


@pytest.mark.parametrize("count", [1, 8, 64, 65, _SUM_LEAF, _SUM_LEAF + 1, 2 * _SUM_LEAF + 9,
                                   10 ** 5])
def test_pairwise_sum_is_np_sum(count):
    # the point sums rest on np.sum's pairwise order, which numpy does not
    # document: a numpy release that changes it fails here first
    rng = np.random.default_rng(count)
    a = rng.normal(size=count) + 1j * rng.normal(size=count)
    whole = a.sum()
    got = quadrature._pairwise_sum(lambda s, c: a[s:s + c], 0, count)
    assert np.array_equal(_bits(got), _bits(whole))
    # np.sum adds from +0, so zeros of either sign sum to +0, never to -0
    assert np.array_equal(_bits(np.full(count, complex(-0.0, -0.0)).sum()), _bits(0j))
    # ranges of zeros of either sign are skipped without being read, as 0j
    for lo, hi in ((0, count // 3), (count // 2, count), (0, count)):
        b = a.copy()
        b[lo:hi] = rng.choice([0.0, -0.0], hi - lo) + 1j * rng.choice([0.0, -0.0], hi - lo)
        read = []

        def part(s, c):
            read.append((s, c))
            return b[s:s + c]

        got = quadrature._pairwise_sum(part, 0, count, lambda s, c: np.any(b[s:s + c] != 0))
        assert got == b.sum()
        assert np.array_equal(_bits(got), _bits(b.sum()))
        assert sum(c for _, c in read) <= count - (hi - lo) + 2 * _SUM_LEAF
        assert read or (lo, hi) == (0, count)
    assert read == []
    assert quadrature._pairwise_sum(part, 0, 0) == 0j


def _complex_rule(x, y, z):
    """A complex transcendental kernel, 0 / 0 (not finite) on the diagonal."""
    u, v = np.asarray(x, dtype=float) - y, np.asarray(x, dtype=float) - z
    return np.exp(1j * u) * np.sin(v) / (u * u + v * v)


def _compact_inputs(g, c_eps, case):
    """(f, g, points, kernel) of one compactly supported case; f vanishes on
    most rows, so the one-shot points and the sums skip them."""
    n, x = g.n, g.axis(0)
    K = gallery("bilinear-homog")
    bump = np.where(np.abs(x + g.box.side / 8) < g.box.side / 6, np.cos(x) + 0.5j, 0.0)
    other = _smooth(g, 40).values
    pts = [0, c_eps, n // 2, n - 1]
    f, h = bump, other
    if case == "f-zero":
        f = np.zeros(n, dtype=complex)
    elif case == "g-zero":
        h = np.zeros(n, dtype=complex)
    elif case in ("first-row", "last-row"):
        f = np.zeros(n, dtype=complex)
        f[0 if case == "first-row" else n - 1] = 1.5 - 0.5j
    elif case == "excision-rows":
        f = np.zeros(n, dtype=complex)
        f[n // 2 - c_eps:n // 2 + c_eps + 1] = np.arange(1, 2 * c_eps + 2) - 1j
        pts = [n // 2]
    elif case == "signed-zero":
        # -0 real and imaginary parts off the supports, and a negative real g
        f = np.where(bump != 0, bump, complex(-0.0, -0.0))
        h = np.where(np.abs(x) < 1.0, -np.exp(-x * x), -0.0) + 0j
    elif case in ("g-interval", "complex-rule-g-interval"):
        h = np.where(np.abs(x - g.box.side / 8) < g.box.side / 10, other, 0.0)
    elif case == "g-column":
        h = np.zeros(n, dtype=complex)
        h[n // 3] = 0.5 - 2.0j
    elif case == "g-off-excision":
        # g vanishes on the point's excision columns and on every column left of them
        h = np.where(np.arange(n) > n // 2 + c_eps, other, 0.0)
        pts = [n // 2]
    elif case == "f-two-intervals":
        # a gap of more rows than one leaf holds, so that at n = 384 some
        # leaves are skipped and others are partly live
        gap = -(-_SUM_LEAF // n) + 1
        w = (n - gap) // 3
        rows = np.arange(n) - w // 2
        f = np.where((rows >= 0) & (rows < 2 * w + gap) & ((rows < w) | (rows >= w + gap)),
                     np.cos(x) + 0.5j, 0.0)
    elif case == "g-gap":
        # an interior gap: the hull of supp g is wider than supp g
        d = np.abs(x - g.box.side / 8)
        h = np.where((d < g.box.side / 10) & (d > g.box.side / 40), other, 0.0)
    if case.startswith("complex-rule"):
        K = dataclasses.replace(K, name="complex-rule", rule=_complex_rule, lattice=None)
    return SampledFunction(grid=g, values=f), SampledFunction(grid=g, values=h), pts, K


@pytest.mark.parametrize("case", ["f-zero", "g-zero", "first-row", "last-row", "excision-rows",
                                  "signed-zero", "complex-rule", "g-interval", "g-column",
                                  "g-off-excision", "complex-rule-g-interval", "f-two-intervals",
                                  "g-gap"])
@pytest.mark.parametrize("n", [127, 384])
@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_bilinear_point_skipping_zero_rows_is_bit_identical(case, n, c_eps):
    # the points skip the rows where f vanishes (its subtrees of the pairwise
    # sum, and in one-shot calls its kernel reads) and, in one-shot calls,
    # the columns off the hull of supp g, yet every bit of every value and of
    # its eps/2 estimate is the masked oracle's
    g = make_grid(1, cube1(0.0, 8.0), n)
    f, h, pts, K = _compact_inputs(g, c_eps, case)
    policy = PvPolicy(c_eps=c_eps)
    want = np.array([_bilinear_point_masked(K, f.values, h.values, g, i, c_eps) for i in pts])
    for fr in (plan(K, g, policy, pts)(f, h), apply_bilinear_field(K, f, h, policy, points=pts)):
        assert np.array_equal(fr.field.values[pts], want[:, 0])
        assert np.array_equal(_bits(fr.field.values[pts]), _bits(want[:, 0]))
    for i, (value, dv) in zip(pts, want):
        pv = apply_bilinear(K, f, h, g.axis(0)[i], policy)
        assert (pv.value, pv.refined) == (value, value + dv)
        assert np.array_equal(_bits([pv.value, pv.refined]), _bits([value, value + dv]))


@pytest.mark.parametrize("case", ["first-row", "f-zero"])
@pytest.mark.parametrize("where", ["plan", "one-shot"])
@pytest.mark.parametrize("c_eps", [1, 2])
def test_bilinear_point_with_a_nan_input_skips_nothing(case, where, c_eps):
    # SampledFunction rejects NaN, so the raw sums take it: a NaN in g reaches
    # every cell (y, z) with g_z = NaN, also in rows where f vanishes (0 NaN is
    # NaN), and the value and the flag stay the full slice's
    n = 127
    g = make_grid(1, cube1(0.0, 8.0), n)
    f, h, pts, K = _compact_inputs(g, c_eps, case)
    gv = h.values.copy()
    gv[n // 3] = np.nan
    values, delta = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    if where == "plan":
        T = plan(K, g, PvPolicy(c_eps=c_eps), pts)
        T.sums(T, [f.values, gv], values, delta)
    else:
        quadrature._chunked(K, g, PvPolicy(c_eps=c_eps), np.array(pts), [f.values, gv],
                            values, delta)
    want = np.array([_bilinear_point_masked(K, f.values, gv, g, i, c_eps) for i in pts])
    assert np.all(np.isnan(values[pts]))
    assert np.array_equal(_bits(values[pts]), _bits(want[:, 0]))
    assert not np.any(quadrature._converged(PvPolicy(c_eps=c_eps), values, delta)[pts])


def test_point_plan_sums_read_the_leaves_that_meet_supp_f(monkeypatch):
    # a point plan holds no slice; applying it forms the far products of the
    # leaves that meet supp f only, each leaf's rows from the point's hull block
    n, c_eps, i = 384, 2, 150
    g = make_grid(1, cube1(0.0, 8.0), n)
    f, other, _, K = _compact_inputs(g, c_eps, "signed-zero")
    support = np.nonzero(f.values)[0]
    formed = []

    def counting(part, start, count, live=None, _sum=quadrature._pairwise_sum):
        def forming(s, c):
            formed.append(c)
            return part(s, c)
        return _sum(part if part.__name__ == "forming" else forming, start, count, live)

    T = plan(K, g, PvPolicy(c_eps=c_eps), [i])
    monkeypatch.setattr(quadrature, "_pairwise_sum", counting)
    got = T(f, other).field.values[i]
    monkeypatch.undo()
    au = np.abs(g.axis(0)[i] - g.axis(0))
    cut = np.count_nonzero(au[:, None] + au[None, :] <= c_eps * g.h)     # the excised cells
    read = sum(formed)
    assert len(support) * n - cut <= read <= len(support) * n + 2 * _SUM_LEAF < n * n - cut
    want = _bilinear_point_masked(K, f.values, other.values, g, i, c_eps)[0]
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("case", ["signed-zero", "g-interval", "g-column", "g-off-excision",
                                  "f-two-intervals", "g-gap"])
@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_one_shot_point_reads_supp_f_by_the_hull_of_supp_g_and_its_excision(case, c_eps):
    # a one-shot point reads K.rule once on each cell of supp f x hull supp g
    # and of its excision, and nowhere else, in calls of at most
    # _SLICE_BYTES / 8 cells, yet every bit of every value is the full slice's
    K = gallery("bilinear-homog")
    n = 384
    g = make_grid(1, cube1(0.0, 8.0), n)
    x, dx = g.axis(0), g.h
    reads, sizes = {}, []

    def counting(xi, y, z):
        at = [np.rint((t - x[0]) / dx).astype(int).ravel() for t in np.broadcast_arrays(xi, y, z)]
        sizes.append(len(at[0]))
        reads.setdefault(int(at[0][0]), []).extend(zip(at[1].tolist(), at[2].tolist()))
        return K.rule(xi, y, z)

    f, other, pts, _ = _compact_inputs(g, c_eps, case)
    support, hull = np.nonzero(f.values)[0], quadrature._hull(other.values != 0)
    assert 0 < len(support) * len(hull) < 2 * n * n // 3
    got = apply_bilinear_field(dataclasses.replace(K, rule=counting), f, other,
                               PvPolicy(c_eps=c_eps), points=pts)
    for i in pts:
        au = np.abs(x[i] - x)
        excised = set(map(tuple, np.argwhere(au[:, None] + au[None, :] <= c_eps * dx).tolist()))
        assert len(reads[i]) == len(support) * len(hull) + len(excised)
        assert set(reads[i]) == {(j, k) for j in support.tolist() for k in hull.tolist()} | excised
    assert sorted(reads) == sorted(pts) and max(sizes) <= _SLICE_BYTES // 8
    want = [_bilinear_point_masked(K, f.values, other.values, g, i, c_eps)[0] for i in pts]
    assert np.array_equal(_bits(got.field.values[pts]), _bits(want))


@pytest.mark.parametrize("points", [None, [256, 512, 768]])
def test_one_shot_point_memory_is_its_hull_block(points):
    # one apply_bilinear holds its block of 8 |supp f| |hull g| bytes (1.2 MB
    # here), a few leaf buffers and rule temporaries, never an n x n slice
    # (8.4 MB at n = 1024); a subset field, one-shot or from a plan(points=),
    # holds one point's block at a time
    n, m = 1024, 3 * 1024 // 8
    g = make_grid(1, cube1(0.0, 8.0), n)
    x, at = g.axis(0), np.arange(n)
    f = SampledFunction(grid=g, values=np.where((at >= n // 8) & (at < n // 8 + m),
                                                np.cos(x) + 0.5j, 0.0))
    h = SampledFunction(grid=g, values=np.where((at >= n // 2) & (at < n // 2 + m),
                                                np.exp(-x * x) + 0j, 0.0))
    K = gallery("bilinear-homog")
    if points is None:
        calls = [lambda: apply_bilinear(K, f, h, x[n // 2])]
    else:
        T = plan(K, g, PvPolicy(), points)
        calls = [lambda: apply_bilinear_field(K, f, h, points=points), lambda: T(f, h)]
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * m * m < peak <= 8 * m * m + 4 * 16 * _SUM_LEAF + 8 * _SLICE_BYTES + 64 * n


def test_whole_commutator_field_reads_each_profile_once():
    # the commutator's two lattice terms share one profile; so do those of K*
    K = gallery("commutator")
    keven = K.lattice[0][1]
    assert all(p is keven for _, p, _ in K.lattice)
    calls = []

    def counting(u):
        calls.append(np.size(u))
        return keven(u)

    K = dataclasses.replace(K, lattice=tuple((left, counting, right)
                                             for left, _, right in K.lattice))
    f = _smooth(make_grid(1, cube1(0.0, 24.0), 256), 12)
    for k in (K, transpose_kernel(K)):
        calls.clear()
        fr = apply_linear_field(k, f)
        assert calls == [2 * 256 - 1]
        _assert_matches_oracle(fr, apply_linear_field(_dense(k), f))


def _bilinear_positive(u, v):
    return 1.0 / (u * u + v * v)


# a lattice profile without cancellation: its PV diverges and is flagged
# wherever the inner product f1 f2 is not small, also outside the outer support
POSITIVE_BILINEAR = KernelModel(
    name="bilinear-positive", arity="bilinear", d=1, delta=1.0, size_constant=1.0,
    rule=lambda x, y, z: _bilinear_positive(np.asarray(x) - y, np.asarray(x) - z),
    lattice=_bilinear_positive)


def _on(g, intervals, f):
    """f on the union of the (lo, hi) intervals, as box fractions, zero elsewhere."""
    t, side = g.axis(0), g.box.side
    inside = np.any([(t > lo * side) & (t < hi * side) for lo, hi in intervals], axis=0)
    return SampledFunction(grid=g, values=np.where(inside, f(t), 0.0))


def _triple_inputs(g):
    """(f0, f1, f2) per case: smooth inner factors, f1 on two disjoint
    intervals (its hull holds zeros), f1 disjoint from supp f0, and supp f0 at
    the grid's left edge (its excision windows clipped)."""
    outer = lambda t: np.cos(t) + 0.5j
    f0 = _on(g, [(1 / 32, 3 / 32)], outer)
    f1, f2 = _smooth(g, 13), _smooth(g, 14)
    return {"smooth": (f0, f1, f2),
            "split": (f0, _on(g, [(-3 / 8, -1 / 4), (1 / 16, 1 / 8)], outer), f2),
            "disjoint": (f0, _on(g, [(-7 / 16, -1 / 4)], outer), f2),
            "edge": (_on(g, [(-1.0, -7 / 16)], outer), f1, f2)}


def _tilted(u, v):
    """bilinear-homog times 1 + u / (1 + u^2): no symmetry under (u, v) -> (-u, -v)."""
    u, v = np.asarray(u), np.asarray(v)
    return u * v / (u * u + v * v) ** 2 * (1.0 + u / (1.0 + u * u))


# a lattice profile that is not even, so a sign slip in the excision
# window's offsets moves its near and ring weights
TILTED_BILINEAR = KernelModel(
    name="bilinear-tilted", arity="bilinear", d=1, delta=1.0, size_constant=1.0,
    rule=lambda x, y, z: _tilted(np.asarray(x) - y, np.asarray(x) - z), lattice=_tilted)


def _finite_on_the_diagonal(K):
    """K with K(x, x, x) = 1 in its rule and its profile: every path must
    still skip the cell j = k = i."""
    def rule(x, y, z):
        x = np.asarray(x)
        return np.where((x == y) & (x == z), 1.0, K.rule(x, y, z))

    def profile(u, v):
        return np.where((u == 0) & (v == 0), 1.0, K.lattice(u, v))
    return dataclasses.replace(K, name=K.name + "-diagonal", rule=rule, lattice=profile)


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("kernel", ["bilinear-homog", "bilinear-positive", "finite-diagonal",
                                    "bilinear-homog-rule", "bilinear-positive-rule",
                                    "finite-diagonal-rule", "bilinear-tilted",
                                    "bilinear-tilted-rule"])
def test_triple_pairing_matches_dense_subset_oracle(kernel, which):
    # the oracle is h sum over S0 of w0 T(w1, w2), T from the dense slices at
    # S0 and from the whole lattice field; n_flagged counts their flags on S0.
    # A lattice kernel's pairing reads one profile table, a "-rule" kernel
    # (the same kernel with lattice=None) sums K.rule over the hulls
    K = {"bilinear-homog": gallery("bilinear-homog"), "bilinear-positive": POSITIVE_BILINEAR,
         "finite-diagonal": _finite_on_the_diagonal(gallery("bilinear-homog")),
         "bilinear-tilted": TILTED_BILINEAR}[
        kernel.removesuffix("-rule")]
    K = transpose_kernel(K, which) if which else K
    paired = dataclasses.replace(K, lattice=None) if kernel.endswith("-rule") else K
    for n, box in ((127, 8.0), (384, 64.0)):
        g = make_grid(1, cube1(0.0, box), n)
        one = sample(lambda t: np.ones_like(t) + 0j, g)
        acc = sample(lambda t: 1.0 + 0.3j * np.tanh(t), g)
        cases = _triple_inputs(g)
        for case, (f0, f1, f2) in cases.items() if n == 127 else [("smooth", cases["smooth"])]:
            support = np.nonzero(np.abs(f0.values) > 0)[0]
            assert 0 < len(support) < n // 8
            w1 = SampledFunction(grid=g, values=acc.values * f1.values)
            for c_eps in (1, 2, 4):
                policy = PvPolicy(c_eps=c_eps)
                got, n_flagged = _triple_pairing(paired, f0, f1, f2, one, acc, one, policy)
                slices = apply_bilinear_field(K, w1, f2, policy, points=support)
                whole = apply_bilinear_field(K, w1, f2, policy)
                scale = g.h * np.sum(np.abs(f0.values * slices.field.values))
                for fr in (slices, whole):
                    want = g.h * np.sum(f0.values[support] * fr.field.values[support])
                    assert abs(got - want) <= 1e-12 * scale, (case, c_eps)
                    assert n_flagged == np.sum(~fr.converged[support]), (case, c_eps)
                if kernel.startswith("bilinear-positive") and case == "smooth" and c_eps > 1:
                    # flagged outside the support too: a count over the whole
                    # field would differ from the pairing's
                    assert 0 < n_flagged < whole.n_flagged


def _probe_triple(n=384):
    """The benchmark's triple pairing inputs: box 8, supports of 24, 144 and
    144 points at n = 384."""
    g = make_grid(1, cube1(0.0, 8.0), n)
    one = sample(lambda t: np.ones_like(t) + 0j, g)
    acc = sample(lambda t: 1.0 + 0.3j * np.tanh(t), g)
    f0 = _on(g, [(-1 / 32, 1 / 32)], lambda t: np.cos(t) + 0j)
    f1 = _on(g, [(-1 / 4, 1 / 8)], lambda t: np.exp(-t * t) + 0j)
    f2 = _on(g, [(-1 / 8, 1 / 4)], lambda t: np.exp(-t * t) + 0.5j)
    return f0, f1, f2, one, acc, one


@pytest.mark.parametrize("c_eps", [1, 2, 4])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_triple_pairing_reads_the_supports_and_builds_no_plan(monkeypatch, which, c_eps):
    # a lattice kernel (K, K*1, K*2) reads its profile on the |A| |B| offsets
    # a in S0 - H1, b in S0 - H2 and on the (2 c_eps + 1)^2 window offsets, and
    # never calls K.rule; with lattice=None, K.rule sees |S0| |H1| |H2| cells
    # of the hulls and (2 c_eps + 1)^2 window cells per point of S0. Neither
    # builds a plan
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    def never(*args):
        raise AssertionError("K.rule was called")

    monkeypatch.setattr(quadrature, "plans", no_plan)
    K = gallery("bilinear-homog")
    K = transpose_kernel(K, which) if which else K
    cells = []

    def counting(f):
        def read(*args):
            out = f(*args)
            cells.append(np.size(out))
            return out
        return read

    fs = _probe_triple()
    f0, f1, f2, _, acc, _ = fs
    sizes = [np.count_nonzero(np.abs(w) > 0) for w in (f0.values, acc.values * f1.values, f2.values)]
    assert sizes == [24, 144, 144]
    policy = PvPolicy(c_eps=c_eps)
    window = (2 * c_eps + 1) ** 2
    table = dataclasses.replace(K, rule=never, lattice=counting(K.lattice))
    hulls = dataclasses.replace(K, rule=counting(K.rule), lattice=None)
    for Kc, plain, want in ((table, K, 167 * 167 + window),
                            (hulls, dataclasses.replace(K, lattice=None),
                             24 * 144 * 144 + 24 * window)):
        cells.clear()
        got = _triple_pairing(Kc, *fs, policy)
        assert sum(cells) == want
        assert max(cells) <= _SLICE_BYTES // 8
        assert got == _triple_pairing(plain, *fs, policy)
        # a zero inner factor gives 0 with no kernel evaluation
        cells.clear()
        zero = SampledFunction(grid=f1.grid, values=np.zeros(f1.grid.n, dtype=complex))
        assert _triple_pairing(Kc, f0, zero, f2, *fs[3:], policy) == (0.0, 0)
        assert _triple_pairing(Kc, f0, f1, f2, *fs[3:5], zero, policy) == (0.0, 0)
        assert cells == []


def test_triple_pairing_memory_follows_the_supports():
    # the whole-field plan held a 4.7 MB spectrum at this configuration
    fs = _probe_triple()
    K = gallery("bilinear-homog")
    triple_pairing(K, *fs)
    tracemalloc.start()
    try:
        triple_pairing(K, *fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("which", [0, 1, 2])
def test_triple_pairing_memory_is_the_table_and_a_few_blocks(which):
    # a scale-matched wbp row (box 8R, offset 1) at n = 1024: the bumps hold
    # 256 points each, so the table is 511 x 511 floats (2.1 MB); everything
    # else the pairing holds stays within a few _SLICE_BYTES
    K = gallery("bilinear-homog")
    K = transpose_kernel(K, which) if which else K
    g = make_grid(1, cube1(0.0, 8.0), 1024)
    one = sample(lambda t: np.ones_like(t) + 0j, g)
    fs = [_bump_field(g, 2, c, 1.0) for c in (-1.0, 0.0, 1.0)]
    sup = [np.nonzero(f.values)[0] for f in fs]
    assert [len(s) for s in sup] == [256, 256, 256]
    span = sup[0][-1] - sup[0][0]
    table = 8 * (span + len(sup[1])) * (span + len(sup[2]))
    assert table == 8 * 511 * 511
    triple_pairing(K, *fs, one, one, one)
    tracemalloc.start()
    try:
        triple_pairing(K, *fs, one, one, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table < peak < table + 16 * _SLICE_BYTES


def test_triple_pairing_checks_before_any_kernel_evaluation():
    def never(*args):
        raise AssertionError("the kernel was evaluated")

    B = dataclasses.replace(gallery("bilinear-homog"), rule=never, lattice=never)
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f = sample(lambda t: np.exp(-t * t) + 0j, g)
    with pytest.raises(ValueError, match="is not bilinear"):
        triple_pairing(H, f, f, f, f, f, f)
    other = sample(lambda t: np.exp(-t * t) + 0j, make_grid(1, cube1(0.0, 8.0), 65))
    with pytest.raises(ValueError, match="all six functions must share a grid"):
        triple_pairing(B, f, f, f, f, f, other)
    g2 = make_grid(2, Cube((0.0, 0.0), 8.0), 16)
    f2 = sample(lambda x, y: np.exp(-x * x - y * y) + 0j, g2)
    with pytest.raises(ValueError, match="bilinear PV quadrature is implemented for d=1"):
        triple_pairing(B, f2, f2, f2, f2, f2, f2)


def test_point_reads_one_kernel_row():
    K = gallery("hilbert")
    evals = []

    def counting(x, y):
        out = K.rule(x, y)
        evals.append(np.size(out))
        return out

    f = _smooth(make_grid(1, cube1(0.0, 64.0), 4096), 6)
    pv = apply_linear(dataclasses.replace(K, rule=counting), f, f.grid.axis(0)[1234])
    assert sum(evals) <= 4096
    dense = apply_linear_field(_dense(K), f)
    assert complex(pv.value) == dense.field.values[1234]        # bit-identical
    assert pv.converged == dense.converged[1234]


@pytest.mark.parametrize("name", ["hilbert", "cauchy-lipschitz"])
def test_linear_subset_field(name):
    K = gallery(name)
    f = _smooth(make_grid(1, cube1(0.0, 16.0), 255), 7)
    pts = [0, 3, 100, 254]
    sub = apply_linear_field(K, f, points=pts)
    dense = apply_linear_field(_dense(K), f)
    rest = np.setdiff1d(np.arange(255), pts)
    np.testing.assert_array_equal(sub.field.values[pts], dense.field.values[pts])
    np.testing.assert_array_equal(sub.converged[pts], dense.converged[pts])
    assert np.all(sub.field.values[rest] == 0.0) and np.all(sub.converged[rest])
    for i in pts:
        assert complex(apply_linear(K, f, f.grid.axis(0)[i]).value) == dense.field.values[i]


def test_real_data_gives_exactly_real_fields():
    g = make_grid(1, cube1(0.0, 16.0), 255)
    f = sample(lambda x: np.exp(-x * x), g)
    for name in ("hilbert", "commutator", "positive-control"):
        assert np.all(apply_linear_field(gallery(name), f).field.values.imag == 0.0)
    assert np.all(apply_bilinear_field(gallery("bilinear-homog"), f, f).field.values.imag == 0.0)


@pytest.mark.parametrize("case", [("hilbert", 4096), ("cauchy-lipschitz", 4096),
                                  ("bilinear-homog", 512)])
def test_field_memory_is_blocked(case):
    # the n x n kernel matrix alone would be 268 MB at n = 4096
    name, n = case
    K = gallery(name)
    f = _smooth(make_grid(1, cube1(0.0, 64.0), n), 8)
    tracemalloc.start()
    try:
        if K.arity == "linear":
            apply_linear_field(K, f)
        else:
            apply_bilinear_field(K, f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# --- operator plans --------------------------------------------------------------

def _family(name):
    """The kernel, its transposes and the dense versions of all of them."""
    K = gallery(name)
    ks = [K, transpose_kernel(K)] if K.arity == "linear" else \
        [K, transpose_kernel(K, 1), transpose_kernel(K, 2)]
    return ks + [_dense(k) for k in ks]


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_plan_is_bit_identical_to_apply(name):
    # one plan applied to several inputs against a fresh apply_* per input;
    # 130 linear points span three blocks of a point plan; the bilinear
    # lattice plan's FFT length at n = 96 is 192, not a power of two
    linear = gallery(name).arity == "linear"
    n = 255 if linear else 96
    g = make_grid(1, cube1(0.0, 16.0), n)
    ins = [_smooth(g, s) for s in (20, 21, 22)]
    pairs = [(f,) for f in ins] if linear else list(zip(ins, ins[1:] + ins[:1]))
    apply = apply_linear_field if linear else apply_bilinear_field
    for K in _family(name):
        for c_eps in (1, 2, 4):
            policy = PvPolicy(c_eps=c_eps)
            for pts in (None, [n - 1, 0, 1, 33, 33] + (list(range(2, 252, 2)) if linear else [])):
                T = plan(K, g, policy, pts)
                for fs in pairs:
                    got, want = T(*fs), apply(K, *fs, policy, points=pts)
                    assert np.array_equal(got.field.values, want.field.values)
                    assert np.array_equal(got.converged, want.converged)
                    assert got.field.name == want.field.name


def test_commutator_sweep_evaluates_two_profile_tables():
    # fixed grid mode: one table per sweep, read reversed for T*, not two per scale
    K = gallery("commutator")
    keven = K.lattice[0][1]
    calls = []

    def counting(u):
        calls.append(np.size(u))
        return keven(u)

    Kc = dataclasses.replace(K, lattice=tuple((left, counting, right)
                                              for left, _, right in K.lattice))
    grid = GridSpec(n=256, box_side=24.0)
    rep = stein_t1_test(Kc, grid=grid, center_fracs=(0.0,))
    assert K.grid_mode == "fixed" and len(rep.rows) == 7
    assert calls == [2 * 256 - 1]
    assert rep.rows == stein_t1_test(K, grid=grid, center_fracs=(0.0,)).rows


def _opaque_transpose(K):
    """K* with the reflection of each lattice profile as an opaque closure, so that
    its plan evaluates the reflected profile itself, not its source's table reversed."""
    Kt = transpose_kernel(K)
    if K.lattice is None:
        return Kt
    refl = {id(p): (lambda u, _p=p: _p(-u)) for _, p, _ in K.lattice}
    return dataclasses.replace(Kt, lattice=tuple((right, refl[id(p)], left)
                                                 for left, p, right in K.lattice))


@pytest.mark.parametrize("name,params", [
    ("hilbert", {}), ("positive-control", {}), ("commutator", {}),
    ("cauchy-lipschitz", dict(lam=0.0)), ("cauchy-lipschitz", dict(lam=0.3)),
    ("cauchy-lipschitz", dict(lam=1.0, lip_bound=1.0))])
@pytest.mark.parametrize("n", [255, 384, 1000])
@pytest.mark.parametrize("box", [16.0, 64.0])
def test_shared_plans_are_bit_identical_to_separate_plans(name, params, n, box):
    # T* from T's table read reversed, or from T's treecode geometry, against a
    # plan of K* built alone with an opaque reflection (a geometry of its own);
    # h = box / n is not a power of two
    K = gallery(name, **params)
    g = make_grid(1, cube1(0.0, box), n)
    fs = [_smooth(g, s) for s in (30, 31)]
    for c_eps in (1, 2, 4):
        policy = PvPolicy(c_eps=c_eps)
        T, Tt = plans((K, transpose_kernel(K)), g, policy)
        for got, alone in ((T, plan(K, g, policy)), (Tt, plan(_opaque_transpose(K), g, policy))):
            for f in fs:
                a, b = got(f), alone(f)
                assert np.array_equal(a.field.values, b.field.values)
                assert np.array_equal(a.converged, b.converged)


@pytest.mark.parametrize("name", ["hilbert", "commutator", "cauchy-lipschitz"])
def test_shared_plans_build_one_table_or_geometry(monkeypatch, name):
    # T, T* and T** on one grid: one profile evaluation per distinct profile, or
    # one treecode geometry; T** reads its profile's own table, unreversed
    K = gallery(name)
    Kt = transpose_kernel(K)
    Ktt = transpose_kernel(Kt)
    if K.lattice is not None:
        assert [p for _, p, _ in Ktt.lattice] == [p for _, p, _ in K.lattice]
    made = []
    for target in ("_profile", "_treecode_geometry"):
        def counting(*args, _f=getattr(quadrature, target)):
            made.append(args[0])
            return _f(*args)
        monkeypatch.setattr(quadrature, target, counting)
    g = make_grid(1, cube1(0.0, 16.0), 255)
    got = plans((K, Kt, Ktt), g)
    source = K.lattice[0][1] if K.lattice is not None else K.curve[1]
    assert made == [source]
    # nothing outlives the call: a second call builds its own
    plan(Kt, g)
    assert made == [source] * 2
    monkeypatch.undo()
    f = _smooth(g, 5)
    assert np.array_equal(got[2](f).field.values, got[0](f).field.values)


def test_decomposition_reads_each_point_on_its_supports(monkeypatch):
    # the point plan at the cells read holds no slice: each application of it
    # (a split field of one R) reads K.rule at each point once on each cell of
    # supp f x hull supp g and of the point's excision, and nowhere else
    K = gallery("bilinear-homog")
    grid = GridSpec(n=384, box_side=64.0)
    g, pts = grid.row_grid("fixed", 1.0), _localize(grid, DECOMP_CUBE, 12.0)[4]
    n, x, dx = g.n, g.axis(0), g.h
    applications = []

    def counting(xi, y, z):
        at = [np.rint((t - x[0]) / dx).astype(int).ravel() for t in np.broadcast_arrays(xi, y, z)]
        applications[-1][1].setdefault(int(at[0][0]), []).append(at[1] * n + at[2])
        return K.rule(xi, y, z)

    def recording(K, grid, policy, rows, vs, *out, _sums=quadrature._slice_sums):
        applications.append((vs, {}))
        _sums(K, grid, policy, rows, vs, *out)

    monkeypatch.setattr(quadrature, "_slice_sums", recording)
    rep = bilinear_decomposition_check(dataclasses.replace(K, rule=counting), grid=grid)
    monkeypatch.undo()
    assert len(rep.rows) == 3 and len(pts) == 3 and len(applications) >= 3
    for (fv, gv), reads in applications:
        support, hull = np.flatnonzero(fv), quadrature._hull(gv != 0)
        assert sorted(reads) == sorted(pts)
        for i in pts:
            au = np.abs(x[i] - x)
            excised = np.flatnonzero((au[:, None] + au[None, :] <= 2 * dx).ravel())
            cells = np.concatenate(reads[i])
            assert len(cells) == len(support) * len(hull) + len(excised)
            assert np.array_equal(np.unique(cells),
                                  np.union1d((support[:, None] * n + hull).ravel(), excised))
    assert rep.rows == bilinear_decomposition_check(K, grid=grid).rows


def test_decomposition_holds_one_hull_block_at_a_time():
    # no n x n slice per point (8 MB each at n = 1024): the check's peak is a
    # point's hull block, its leaf buffers and the fields
    K = gallery("bilinear-homog")
    grid = GridSpec(n=1024, box_side=64.0)
    bilinear_decomposition_check(K, grid=grid)
    tracemalloc.start()
    try:
        bilinear_decomposition_check(K, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("name", ["bilinear-homog", "complex-rule"])
def test_bilinear_point_plan_reads_no_kernel_until_applied(name):
    # a bilinear point plan does not depend on its inputs' supports, so it
    # reads nothing: each application reads its own hull blocks
    K = gallery("bilinear-homog")
    if name == "complex-rule":
        K = dataclasses.replace(K, name=name, rule=_complex_rule, lattice=None)
    calls = []

    def counting(*args):
        calls.append(args)
        return K.rule(*args)

    g = make_grid(1, cube1(0.0, 8.0), 127)
    T = plan(dataclasses.replace(K, rule=counting), g, PvPolicy(), [0, 63, 126])
    assert calls == [] and T.nbytes == 0
    f, h = _smooth(g, 50), _smooth(g, 51)
    got = T(f, h).field.values
    assert calls
    assert np.array_equal(got, apply_bilinear_field(K, f, h, points=[0, 63, 126]).field.values)


@pytest.mark.parametrize("name,pts", [("hilbert", None), ("cauchy-lipschitz", None),
                                      ("commutator", [3, 100]), ("bilinear-homog", None),
                                      ("bilinear-homog", [3, 100])])
def test_plan_is_read_only_and_checks_its_inputs(name, pts):
    K = gallery(name)
    g = make_grid(1, cube1(0.0, 16.0), 127)
    T = plan(K, g, PvPolicy(), pts)
    # a bilinear point plan holds its rows only
    arrays = list(_arrays((T.rows, T.parts)))
    assert arrays and T.nbytes <= sum(a.nbytes for a in arrays)
    assert (T.nbytes == 0) == (K.arity == "bilinear" and pts is not None)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][...] = 0.0

    def no_sums(*args):
        raise AssertionError("summed before the inputs were checked")

    T = dataclasses.replace(T, sums=no_sums)
    f = _smooth(g, 1)
    other = _smooth(make_grid(1, cube1(0.0, 16.0), 128), 1)
    with pytest.raises(ValueError, match="not on the plan's grid"):
        T(other) if K.arity == "linear" else T(other, other)
    if K.arity == "bilinear":
        with pytest.raises(ValueError, match="must share a grid"):
            T(f, other)
    with pytest.raises(ValueError, match=f"is not {'bilinear' if K.arity == 'linear' else 'linear'}"):
        T(f, f) if K.arity == "linear" else T(f)
    with pytest.raises(ValueError, match="is not 3-linear"):
        T(f, f, f)


def test_plan_rejects_bad_grids_and_points_before_any_kernel_evaluation():
    K = gallery("hilbert")

    def no_rule(*args):
        raise AssertionError("the kernel was evaluated")

    K = dataclasses.replace(K, rule=no_rule)
    with pytest.raises(ValueError, match="linear PV quadrature is implemented for d=1"):
        plan(K, make_grid(2, Cube((0.0, 0.0), 8.0), 16))
    with pytest.raises(ValueError, match="got True"):
        plan(K, make_grid(1, cube1(0.0, 8.0), 64), points=[3, True])


@pytest.mark.parametrize("name", ["hilbert", "bilinear-homog"])
def test_plan_of_no_points_applies_to_a_zero_field(name):
    K = gallery(name)
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f = _smooth(g, 2)
    fr = plan(K, g, PvPolicy(), [])(*[f] * (1 if K.arity == "linear" else 2))
    assert not fr.field.values.any() and fr.converged.all()


@pytest.mark.parametrize("name,bytes_per_point", [
    ("hilbert", lambda n, c: 16 * n + 48),
    ("bilinear-homog", lambda n, c: 0),
    ("bilinear-homog-complex", lambda n, c: 0)])
def test_point_plan_size_is_as_stated(name, bytes_per_point):
    # the sizes plan() states: 16 n + 48 bytes per linear point, and none
    # per bilinear point, of a real or a complex rule, as a bilinear point
    # plan holds its rows only; the heap left after building holds little
    # more (the rows and the containers)
    K = gallery(name.removesuffix("-complex"))
    if name.endswith("-complex"):
        K = dataclasses.replace(K, rule=lambda x, y, z, _r=K.rule: (1 + 1j) * _r(x, y, z))
    n, pts = 384, [0, 5, 190, 191, 383]
    g = make_grid(1, cube1(0.0, 64.0), n)
    stated = len(pts) * bytes_per_point(n, 2)
    tracemalloc.start()
    try:
        T = plan(K, g, PvPolicy(), pts)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stated * 0.9 <= T.nbytes <= stated
    assert T.nbytes <= held <= T.nbytes + 8 * len(pts) + 20_000


@pytest.mark.parametrize("n,L", [(64, 128), (96, 192), (128, 256), (384, 768)])
def test_bilinear_lattice_plan_size_is_as_stated(n, L):
    # 16 L (L/2 + 1) bytes of spectrum, L the smallest 2^a 3^b >= 2n - 1, and
    # 16 n of near and ring weights; building it holds temporaries of a few
    # _SLICE_BYTES, never the 8 L^2 bytes of the real table (4.7 MB at n = 384)
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), n)
    tracemalloc.start()
    try:
        T = plan(K, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.nbytes == 16 * L * (L // 2 + 1) + 16 * n
    assert peak < T.nbytes + 16 * _SLICE_BYTES


@pytest.mark.parametrize("which", [0, 1, 2])
def test_bilinear_lattice_apply_holds_blocks_not_tables(which):
    # each slot's contraction holds O(L) vectors and blocks of about
    # _SLICE_BYTES, never an L x L or n x n array (4.7 MB and 2.4 MB here)
    K = gallery("bilinear-homog")
    K = transpose_kernel(K, which) if which else K
    n, L = 384, 768
    g = make_grid(1, cube1(0.0, 8.0), n)
    T = plan(K, g)
    f, h = _smooth(g, 32), _smooth(g, 33)
    T(f, h)
    tracemalloc.start()
    try:
        T(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * L + 2 * _SLICE_BYTES


def test_bilinear_stein_sweep_builds_one_spectrum_per_row_grid(monkeypatch):
    # K, K*1 and K*2 read one sheared spectrum per row grid, K's: 5 for 5
    # scales, not 15; the plans of one grid hold one Q (16 L (L/2 + 1) bytes)
    # and each its own near and ring weights, 33.6 MB at n = 1024, not 101 MB
    K = gallery("bilinear-homog")
    made = []

    def counting(P, n, h, _f=quadrature._sheared_spectrum):
        made.append(P)
        return _f(P, n, h)

    monkeypatch.setattr(quadrature, "_sheared_spectrum", counting)
    rep = stein_bilinear_tb_test(K, B_ONE, B_ONE, B_ONE, grid=GridSpec(n=64, box_side=8.0))
    assert len(rep.direct.rows) == 10 and made == [K.lattice] * 5
    n, L = 1024, 2048
    g = make_grid(1, cube1(0.0, 8.0), n)
    ps = plans((K, transpose_kernel(K, 1), transpose_kernel(K, 2)), g)
    assert made == [K.lattice] * 6
    held = {id(a): a for p in ps for a in _arrays(p.parts)}
    assert sum(a.nbytes for a in held.values()) == 16 * L * (L // 2 + 1) + 3 * 16 * n


def _opaque_bilinear_transpose(K, which):
    """K*1 or K*2 with its profile as an opaque closure, so that its plan builds
    and contracts a spectrum of its own profile table."""
    P = K.lattice
    own = (lambda u, v: P(-u, v - u)) if which == 1 else (lambda u, v: P(u - v, -v))
    return dataclasses.replace(transpose_kernel(K, which), lattice=own)


@pytest.mark.parametrize("n", [64, 96, 120, 256])
def test_bilinear_transposes_from_the_source_spectrum_match_their_own(n):
    # L = 128, 192, 243 (odd) and 512, h = 8 / n not a power of two for 96
    # and 120; a transpose keeps its own near and ring weights, so only the
    # rounding of the full sum moves
    K = gallery("bilinear-homog")
    g = make_grid(1, cube1(0.0, 8.0), n)
    f, h = _smooth(g, 40), _smooth(g, 41)
    for c_eps in (1, 2, 4):
        policy = PvPolicy(c_eps=c_eps)
        _, T1, T2 = plans((K, transpose_kernel(K, 1), transpose_kernel(K, 2)), g, policy)
        for which, T in ((1, T1), (2, T2)):
            got, own = T(f, h), plan(_opaque_bilinear_transpose(K, which), g, policy)(f, h)
            scale = np.max(np.abs(own.field.values))
            assert np.max(np.abs(got.field.values - own.field.values)) <= 1e-13 * scale
            assert np.array_equal(got.converged, own.converged)


@pytest.mark.parametrize("c_eps", [1, 2, 4])
def test_bilinear_duality_defect_is_the_transposes_near_weights(c_eps):
    # the full sums of T, T*1 and T*2 are exact transposes of one another, so
    # <T(h, g), f> - <T*1(f, g), h> = dx^3 sum f g h (N*1 - N), with N, N*1 the
    # plans' near weights, and likewise for <T*2(h, f), g>; the defect is
    # 0.3748 at c_eps = 1, as the weights of the transposes are their own
    K = gallery("bilinear-homog")
    grid = make_grid(1, cube1(0.0, 8.0), 256)
    f = sample(lambda x: np.exp(-x * x) + 0j, grid)
    g = sample(lambda x: np.exp(-(x - 0.3) ** 2) + 0j, grid)
    h = sample(lambda x: np.exp(-(x + 0.2) ** 2 / 0.5) + 0j, grid)
    T, T1, T2 = plans((K, transpose_kernel(K, 1), transpose_kernel(K, 2)), grid,
                      PvPolicy(c_eps=c_eps))
    direct = pairing(T(h, g).field, f)
    for Tw, paired in ((T1, pairing(T1(f, g).field, h)), (T2, pairing(T2(h, f).field, g))):
        defect = grid.h ** 3 * np.sum(f.values * g.values * h.values
                                      * (Tw.parts["near"] - T.parts["near"]))
        assert abs(defect) > 0.1
        assert abs((direct - paired) - defect) <= 1e-12 * abs(defect)


@pytest.mark.parametrize("k", [1, 8])
def test_bilinear_point_plan_applies_in_one_slice_of_memory(k):
    # applying a plan of k points holds at most one n x n complex array at a
    # time, whatever k: each point's hull block is freed before the next
    K = gallery("bilinear-homog")
    n = 384
    g = make_grid(1, cube1(0.0, 64.0), n)
    T = plan(K, g, PvPolicy(), list(range(100, 100 + 23 * k, 23)))
    f, h = _smooth(g, 30), _smooth(g, 31)
    T(f, h)
    tracemalloc.start()
    try:
        T(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n + 256 * 1024


# --- properties ------------------------------------------------------------------

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)
coefs = st.floats(-2.0, 2.0, allow_nan=False)
centers = st.floats(-2.0, 2.0, allow_nan=False)


def _gauss(g, a, c, w=1.0):
    return sample(lambda x: a * np.exp(-((x - c) / w) ** 2) + 0j, g)


@PROPERTY
@given(name=st.sampled_from(["hilbert", "commutator", "positive-control"]),
       a=coefs, b=coefs, c1=centers, c2=centers)
def test_linear_field_is_linear(name, a, b, c1, c2):
    K = gallery(name)
    g = make_grid(1, cube1(0.0, 16.0), 255)
    f, h = _gauss(g, 1.0, c1), _gauss(g, 1.0j, c2)
    lhs = apply_linear_field(K, SampledFunction(grid=g, values=a * f.values + b * h.values))
    Tf, Th = apply_linear_field(K, f).field.values, apply_linear_field(K, h).field.values
    rhs = a * Tf + b * Th
    scale = (abs(a) * np.max(np.abs(Tf)) + abs(b) * np.max(np.abs(Th)))
    assert np.max(np.abs(lhs.field.values - rhs)) <= 1e-12 * scale


@PROPERTY
@given(a=coefs, c1=centers, c2=centers, which=st.sampled_from([0, 1, 2]))
def test_bilinear_field_is_linear_in_each_slot(a, c1, c2, which):
    K = gallery("bilinear-homog")
    K = transpose_kernel(K, which) if which else K
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f, h, k = _gauss(g, 1.0, c1), _gauss(g, 1.0, c2), _gauss(g, 1.0j, 0.0, 0.5)
    fk = SampledFunction(grid=g, values=f.values + a * k.values)
    lhs = apply_bilinear_field(K, fk, h).field.values
    A, B = apply_bilinear_field(K, f, h).field.values, apply_bilinear_field(K, k, h).field.values
    scale = np.max(np.abs(A)) + abs(a) * np.max(np.abs(B))
    assert np.max(np.abs(lhs - (A + a * B))) <= 1e-12 * scale


@PROPERTY
@given(k=st.integers(-2, 2), c=st.floats(-0.5, 0.5, allow_nan=False))
def test_scale_equivariance_on_matched_grids(k, c):
    # K(lam x, lam y) = K(x, y) / lam (hilbert) and K(lam .) = K / lam^2
    # (bilinear-homog): on the grid dilated by lam = 2^k the field of the
    # dilated function is the same array
    lam = 2.0 ** k
    base, dil = make_grid(1, cube1(0.0, 8.0), 128), make_grid(1, cube1(0.0, 8.0 * lam), 128)
    f = _gauss(base, 1.0, c)
    fl = SampledFunction(grid=dil, values=f.values)
    H0 = apply_linear_field(H, f).field.values
    np.testing.assert_allclose(apply_linear_field(H, fl).field.values, H0,
                               rtol=0, atol=1e-12 * np.max(np.abs(H0)))
    K = gallery("bilinear-homog")
    B0 = apply_bilinear_field(K, f, f).field.values
    np.testing.assert_allclose(apply_bilinear_field(K, fl, fl).field.values, B0,
                               rtol=0, atol=1e-12 * np.max(np.abs(B0)))


@PROPERTY
@given(name=st.sampled_from(["hilbert", "positive-control"]), c1=centers, c2=centers,
       w=st.floats(0.5, 2.0))
def test_transpose_duality(name, c1, c2, w):
    # <T f, g> = <f, T* g> holds for the discrete scheme; for commutator and
    # cauchy-lipschitz it holds only to O(h), so they are not asserted here
    K = gallery(name)
    g = make_grid(1, cube1(0.0, 32.0), 512)
    f, h = _gauss(g, 1.0, c1, w), _gauss(g, 1.0 + 0.5j, c2)
    Tf = apply_linear_field(K, f).field
    Tth = apply_linear_field(transpose_kernel(K), h).field
    scale = lp_norm(Tf, 2) * lp_norm(h, 2) + lp_norm(f, 2) * lp_norm(Tth, 2)
    assert abs(pairing(Tf, h) - pairing(f, Tth)) <= 1e-12 * scale


@pytest.mark.parametrize("name,params", [
    ("hilbert", {}), ("positive-control", {}), ("cauchy-lipschitz", {"lam": 0.3}),
    ("cauchy-lipschitz", {"lam": 1.0, "lip_bound": 1.0}),
    # lam > 1 sums dense rows, not the treecode
    ("cauchy-lipschitz", {"lam": 1.5, "lip_bound": 2.0})],
    ids=["hilbert", "positive-control", "cauchy-lipschitz-0.3", "cauchy-lipschitz-1",
         "cauchy-lipschitz-1.5-dense"])
@pytest.mark.parametrize("n", [64, 255, 768, 1000])
def test_declared_parity_is_bit_exact(name, params, n, rng):
    # the harness reads T* f as parity T f: a separately built plan of K*
    # gives exactly that, values and PV flags, on whole fields and at points
    K = gallery(name, **params)
    Kt = transpose_kernel(K)
    assert K.parity in (-1, 1)
    for box, c_eps in [(box, c) for box in (3.0, 16.0, 64.0) for c in (1, 2, 4)]:
        g = make_grid(1, cube1(0.0, box), n)
        f = SampledFunction(grid=g, values=rng.normal(size=n) + 1j * rng.normal(size=n))
        pts = np.sort(rng.choice(n, size=17, replace=False))
        for points in (None, pts):
            policy = PvPolicy(c_eps=c_eps)
            fr = plan(K, g, policy, points)(f)
            frt = plan(Kt, g, policy, points)(f)
            assert np.array_equal(frt.field.values, K.parity * fr.field.values), \
                (box, c_eps, points is None)
            assert np.array_equal(frt.converged, fr.converged)

import tracemalloc

import numpy as np
import pytest

from tblab import bumps, harness
from tblab.bumps import (BumpRule, c_norm, deriv_sup, plateau_bump,
                         profile_integral, standard_bump, translate_dilate,
                         verify_bump)
from tblab.grid import cube1, lp_norm, make_grid, sample

# sup |psi^(m)| for psi = exp(-1/(1-x^2)), from 40-digit mpmath
# differentiation with local argmax refinement (independent of the
# in-package polynomial recurrence)
DERIV_SUPS = [0.3678794412, 0.7984297518, 7.7497049417,
              186.399921319, 8315.8900702]
PSI_INT_1D = 0.443993816168     # Richardson-refined midpoint quadrature
PSI_INT_2D = 0.4665123932


@pytest.mark.parametrize("m", range(5))
def test_derivative_sups_match_reference(m):
    assert deriv_sup("standard-mollifier", m, 1) == pytest.approx(
        DERIV_SUPS[m], rel=1e-6)


def test_c_norm_order_zero_is_e():
    assert c_norm(0, 1) == pytest.approx(np.e, rel=1e-9)
    assert c_norm(0, 2) == pytest.approx(np.e, rel=1e-9)


def test_c_norm_order_two_frozen():
    assert c_norm(2, 1) == pytest.approx(0.1290371708, rel=1e-6)
    # the radial maximum sits on an axis, so d=2 matches d=1 up to order 2
    assert c_norm(2, 2) == pytest.approx(c_norm(2, 1), rel=1e-6)


def test_profile_integral_frozen():
    assert profile_integral("standard-mollifier", 1) == pytest.approx(
        PSI_INT_1D, rel=1e-8)
    assert profile_integral("standard-mollifier", 2) == pytest.approx(
        PSI_INT_2D, rel=1e-6)


def _profile_integral_unblocked(profile, d):
    f = bumps.PROFILES[profile]
    n = 1 << 22
    r = (np.arange(n) + 0.5) / n
    w = 1.0 / n
    if d == 1:
        return float(2.0 * np.sum(f(r)) * w)
    return float(2.0 * np.pi * np.sum(f(r) * r) * w)


@pytest.mark.parametrize("profile", ["standard-mollifier", "plateau"])
@pytest.mark.parametrize("d", [1, 2])
def test_blocked_profile_integral_is_the_unblocked_sum(profile, d):
    assert profile_integral(profile, d).hex() == _profile_integral_unblocked(profile, d).hex()


@pytest.mark.parametrize("m", range(7))
def test_blocked_radial_sup_is_the_unblocked_max(m):
    r = np.linspace(0.0, 1.0 - 1e-7, bumps._DENSE_N)
    want = float(np.max(np.abs(bumps._psi(m, r))))
    assert bumps._mollifier_radial_sup(m).hex() == want.hex()


def test_dense_lattices_are_blocked():
    # the unblocked sum peaked at 138 MB of traced heap, the unblocked sup at 101 MB;
    # what stays is the 32 MB sample array and the 16 MB lattice
    for fn, args, bound in ((bumps.profile_integral.__wrapped__, ("standard-mollifier", 1), 40e6),
                            (bumps.profile_integral.__wrapped__, ("plateau", 2), 40e6),
                            (bumps._mollifier_radial_sup.__wrapped__, (4,), 24e6)):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (fn.__name__, args, peak)


def test_standard_bump_zero_outside_ball(unit_grid):
    phi, spec = standard_bump(0, unit_grid)
    x = unit_grid.axis(0)
    assert np.all(phi.values[np.abs(x) >= 1.0] == 0.0)
    assert spec.c_norm == pytest.approx(np.e, rel=1e-9)
    # cell centers straddle the peak; the miss is O(h^2)
    assert np.max(np.abs(phi.values)) == pytest.approx(1.0, rel=1e-4)


def test_standard_bump_rejects_coarse_grid():
    g = make_grid(1, cube1(0.0, 16.0), 512)   # 32 points per unit
    with pytest.raises(ValueError, match="coarse"):
        standard_bump(0, g)


def test_standard_bump_needs_unit_ball():
    g = make_grid(1, cube1(0.0, 1.0), 128)
    with pytest.raises(ValueError, match="escapes"):
        standard_bump(0, g)


def test_translate_dilate_identity(unit_grid):
    phi, _ = standard_bump(2, unit_grid)
    same = translate_dilate(phi, (0.0,), 1.0)
    np.testing.assert_allclose(same.values, phi.values, atol=0)


def test_translate_dilate_preserves_sup(unit_grid):
    phi, _ = standard_bump(2, unit_grid)
    g = make_grid(1, cube1(0.0, 16.0), 2048)
    for x0, R in ((0.5, 2.0), (-3.0, 0.5), (2.0, 4.0)):
        moved = translate_dilate(phi, (x0,), R, grid=g)
        # composition with a bijection cannot change the sup; sampling can
        # only miss the peak by O(h^2)
        assert np.max(np.abs(moved.values)) == pytest.approx(
            np.max(np.abs(phi.values)), rel=1e-3)


@pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_translate_dilate_l2_scaling(R, unit_grid):
    phi, _ = standard_bump(2, unit_grid)
    g = make_grid(1, cube1(0.0, 16.0), 4096)
    moved = translate_dilate(phi, (0.0,), R, grid=g)
    assert lp_norm(moved, 2) == pytest.approx(
        np.sqrt(R) * lp_norm(phi, 2), rel=1e-3)


def test_translate_dilate_group_action(unit_grid):
    phi, _ = standard_bump(2, unit_grid)
    g = make_grid(1, cube1(0.0, 32.0), 4096)
    step1 = translate_dilate(phi, (1.0,), 2.0, grid=g)
    step2 = translate_dilate(step1, (0.5,), 3.0, grid=g)
    direct = translate_dilate(phi, (0.5 + 3.0 * 1.0,), 6.0, grid=g)
    np.testing.assert_allclose(step2.values, direct.values, atol=1e-12)


def test_translate_dilate_support_escape(unit_grid):
    phi, _ = standard_bump(2, unit_grid)
    with pytest.raises(ValueError, match="escapes"):
        translate_dilate(phi, (1.5,), 1.0)


def test_translate_dilate_needs_rule(unit_grid):
    f = sample(lambda x: np.exp(-x * x), unit_grid)
    object.__setattr__(f, "rule", None)
    with pytest.raises(ValueError, match="closed-form"):
        translate_dilate(f, (0.0,), 2.0)


@pytest.mark.parametrize("M,x0,R,side,n", [(2, 0.0, 1.0, 16.0, 512), (0, 3.0, 2.5, 24.0, 256),
                                          (4, -5.0, 8.0, 64.0, 768)])
def test_harness_bump_is_the_translate_dilate(M, x0, R, side, n, unit_grid):
    g = make_grid(1, cube1(0.0, side), n)
    moved = translate_dilate(standard_bump(M, unit_grid)[0], (x0,), R, grid=g)
    assert np.array_equal(harness._bump_field(g, M, x0, R).values, moved.values)
    with pytest.raises(ValueError, match="closed-form BumpRule"):
        translate_dilate(sample(lambda x: np.exp(-x * x), unit_grid), (0.0,), 2.0)


@pytest.mark.parametrize("M", [0, 1, 2, 3, 4])
def test_verify_bump_passes_for_certified_orders(M, unit_grid):
    phi, _ = standard_bump(M, unit_grid)
    cert = verify_bump(phi, M)
    assert cert.passed
    assert cert.support_radius <= 1.0


def test_verify_bump_rejects_doubled_bump(unit_grid):
    phi, _ = standard_bump(0, unit_grid)
    from tblab.grid import SampledFunction
    doubled = SampledFunction(grid=unit_grid, values=2.0 * phi.values, rule=phi.rule)
    cert = verify_bump(doubled, 0)
    assert not cert.passed


@pytest.mark.parametrize("R", [1.0, 2.0, 4.0])
def test_verify_bump_derivative_sup_scales(R, unit_grid):
    # chain rule: sup |d^a phi((.-x0)/R)| = R^-|a| sup |d^a phi|
    phi, _ = standard_bump(2, unit_grid)
    base = verify_bump(phi, 2)
    g = make_grid(1, cube1(0.0, 4.0 * R), int(512))
    moved = translate_dilate(phi, (0.0,), R, grid=g)
    cert = verify_bump(moved, 2)
    for m in range(3):
        assert cert.sups[(m,)] == pytest.approx(
            base.sups[(m,)] / R ** m, rel=2e-2)


def test_verify_bump_reports_boundary_violation():
    g = make_grid(1, cube1(0.0, 1.5), 96)
    from tblab.grid import SampledFunction
    vals = np.ones(96, dtype=complex)
    f = SampledFunction(grid=g, values=vals)
    with pytest.raises(ValueError, match="boundary"):
        verify_bump(f, 0)


def test_plateau_bump_certified_order_zero(unit_grid):
    phi, spec = plateau_bump(unit_grid)
    assert spec.profile == "plateau"
    cert = verify_bump(phi, 0)
    assert cert.passed
    x = unit_grid.axis(0)
    inner = np.abs(x) <= 0.5
    np.testing.assert_allclose(phi.values[inner].real, 1.0, atol=1e-12)
    assert np.all(phi.values[np.abs(x) >= 1.0] == 0.0)


def test_plateau_not_certifiable_beyond_order_zero():
    with pytest.raises(ValueError):
        deriv_sup("plateau", 1, 1)


def test_verify_bump_2d(grid2d):
    phi, _ = standard_bump(2, grid2d)
    cert = verify_bump(phi, 2)
    assert cert.passed
    assert set(cert.sups) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_bump_rule_vectorized_2d():
    rule = BumpRule("standard-mollifier", 1.0, (0.0, 0.0), 1.0)
    x = np.linspace(-1, 1, 5)
    vals = rule(x[:, None], x[None, :])
    assert vals.shape == (5, 5)
    assert vals[2, 2] == pytest.approx(np.exp(-1.0))

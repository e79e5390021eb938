import warnings
from dataclasses import replace

import numpy as np
import pytest

from tblab.grid import Cube, SampledFunction, cube1, lp_norm, make_grid
from tblab.bumps import BumpRule, standard_bump
from tblab.harness import (BILINEAR_GRID, BILINEAR_SCALES, DECOMP_CUBE, DECOMP_GRID,
                           FAR_FIELD_CUBE, FAR_FIELD_GRID, LINEAR_SCALES, BFunc, GridSpec,
                           bilinear_decomposition_check, builtin_b, direct_bound_check,
                           exponent_fit,
                           far_field_constancy, local_piece_check,
                           stein_bilinear_tb_test, stein_t1_test, stein_tb_test,
                           _Applied, uniform_bmo_sweep, weak_boundedness_test)
from tblab.kernels import KernelModel, gallery
from tblab.quadrature import PvPolicy, apply_bilinear_field, apply_linear_field, plans

ONE = builtin_b("one")
SMALL = GridSpec(n=256, box_side=16.0)


def zero_kernel():
    return KernelModel(name="zero", arity="linear", d=1, delta=1.0,
                       size_constant=0.0, rule=lambda x, y: 0.0 * (x + y),
                       grid_mode="scaled")


def test_exponent_fit_exact_power_laws():
    rows = [(2.0 ** k, 3.0 * 2.0 ** (k / 2.0)) for k in range(-3, 4)]
    fit = exponent_fit(rows, target=0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.constant == pytest.approx(3.0, rel=1e-12)
    assert fit.unif == pytest.approx(1.0, rel=1e-12)
    linear = [(2.0 ** k, 2.0 ** k) for k in range(-3, 4)]
    assert exponent_fit(linear, target=1.0).slope == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_needs_rows():
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0)] * 4, target=0.5)


def test_exponent_fit_all_zero_degenerate():
    fit = exponent_fit([(2.0 ** k, 0.0) for k in range(5)], target=0.5)
    assert fit.degenerate
    assert fit.passed


def test_stein_t1_hilbert_ratios():
    rep = stein_t1_test(gallery("hilbert"), grid=SMALL, slope_tol=0.05)
    assert rep.verdict == "PASS"
    g_cert = make_grid(1, cube1(0.0, 4.0), 512)
    phi, _ = standard_bump(2, g_cert)
    target = 2.0 * lp_norm(phi, 2)
    for r in rep.rows:
        assert r.value / np.sqrt(r.R) == pytest.approx(target, rel=0.03)
    assert rep.slope == pytest.approx(0.5, abs=0.05)


def test_stein_t1_zero_kernel_degenerate():
    rep = stein_t1_test(zero_kernel(), grid=SMALL)
    assert rep.verdict == "PASS-degenerate"
    assert all(r.value == 0.0 for r in rep.rows)
    assert rep.constant == 0.0


def test_report_without_fits_fails(monkeypatch):
    # four scales leave every center short of a fit: nothing would be tested, so
    # the sweep is rejected before any plan (it used to read FAIL with no fit)
    _forbid_fields(monkeypatch)
    with pytest.raises(ValueError, match="at 4 of its 4 scales; an exponent fit needs 5"):
        stein_t1_test(gallery("positive-control"), scales=(0.5, 1.0, 2.0, 4.0), grid=SMALL)


def test_stein_tb_with_one_reduces_to_half_t1():
    K = gallery("hilbert")
    t1 = stein_t1_test(K, grid=SMALL)
    tb = stein_tb_test(K, ONE, ONE, grid=SMALL)
    for r1, rb in zip(t1.rows, tb.on_b1.rows):
        # the t1 statistic adds ||T phi|| and ||T* phi||, equal for hilbert
        assert rb.value == pytest.approx(r1.value / 2.0, rel=1e-12)


def test_b_scaling_multiplies_values_exactly():
    # replacing b1 by 2 b1 doubles every measured norm (linearity)
    K = gallery("hilbert")
    double = BFunc(name="double", rule=lambda x: 2.0 * np.ones_like(np.asarray(x)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = stein_tb_test(K, ONE, ONE, grid=SMALL)
        scaled = stein_tb_test(K, double, double, grid=SMALL)
    for rb, rs in zip(base.on_b1.rows, scaled.on_b1.rows):
        assert rs.value == pytest.approx(2.0 * rb.value, rel=1e-13)


def test_transpose_coherence():
    from tblab.kernels import transpose_kernel
    K = gallery("hilbert")
    a = stein_t1_test(K, grid=SMALL)
    b = stein_t1_test(transpose_kernel(K), grid=SMALL)
    for ra, rb in zip(a.rows, b.rows):
        assert rb.value == pytest.approx(ra.value, rel=1e-12)


def test_wbp_hilbert_equal_center_vanishes_offset_scales():
    rep = weak_boundedness_test(gallery("hilbert"), grid=SMALL)
    eq = rep.fit_for("offset0")
    assert eq.degenerate            # antisymmetric kernel, equal arguments
    off1 = rep.fit_for("offset1")
    assert off1.slope == pytest.approx(1.0, abs=0.07)
    assert rep.verdict in ("PASS", "PASS-degenerate")


def test_wbp_bilinear_offsets():
    rep = weak_boundedness_test(gallery("bilinear-homog"), ONE, ONE, ONE,
                                scales=tuple(2.0 ** k for k in range(-2, 3)))
    for off in (1.0, 4.0):
        fit = rep.fit_for(f"offset{off:g}")
        assert fit.slope == pytest.approx(1.0, abs=0.07)


def test_wbp_bilinear_scale_matched_rows_are_exact_multiples():
    # bilinear-homog is homogeneous of degree -2 and its grids are scale-matched
    # (box 8R, n fixed), so doubling R doubles each triple pairing exactly: any
    # summation whose order depended on R would break this
    rep = weak_boundedness_test(gallery("bilinear-homog"))
    assert gallery("bilinear-homog").grid_mode == "scaled"
    for off in (0.0, 1.0, 4.0):
        rows = sorted((r for r in rep.rows if r.section == f"offset{off:g}"), key=lambda r: r.R)
        assert [r.R for r in rows] == list(BILINEAR_SCALES)
        for small, big in zip(rows, rows[1:]):
            assert big.R == 2 * small.R and big.value == 2 * small.value


@pytest.mark.parametrize("name,scales", [("bilinear-homog", BILINEAR_SCALES),
                                         ("hilbert", LINEAR_SCALES)])
def test_wbp_default_scales_follow_the_arity(name, scales):
    rep = weak_boundedness_test(gallery(name), offsets=(1.0,), grid=GridSpec(n=32))
    assert tuple(r.R for r in rep.rows) == scales


def test_wbp_bilinear_keeps_an_explicit_grid():
    # an explicit n > 256 grid used to be replaced by BILINEAR_GRID
    K = gallery("bilinear-homog")
    args = dict(scales=BILINEAR_SCALES, offsets=(1.0,))
    default = weak_boundedness_test(K, ONE, ONE, ONE, **args)
    assert weak_boundedness_test(K, ONE, ONE, ONE, grid=BILINEAR_GRID, **args).rows == default.rows
    fine = weak_boundedness_test(K, ONE, ONE, ONE, grid=GridSpec(n=384, box_side=8.0), **args)
    assert [r.value for r in fine.rows] != [r.value for r in default.rows]


def test_wbp_plans_a_fixed_grid_once(monkeypatch):
    # 7 scales x 2 offsets on the fixed commutator grid: one profile table for
    # the shared grid and one for the only widened row (offset 1, R = 8)
    K = gallery("commutator")
    keven = K.lattice[0][1]
    calls = []

    def counting(u):
        calls.append(np.size(u))
        return keven(u)

    K = replace(K, lattice=tuple((left, counting, right) for left, _, right in K.lattice))
    args = dict(offsets=(0.0, 1.0), grid=GridSpec(n=256, box_side=24.0))
    rep = weak_boundedness_test(K, **args)
    assert len(rep.rows) == 14
    assert calls == [2 * 256 - 1] * 2
    # bit for bit the rows of one apply_linear_field per row
    monkeypatch.setattr("tblab.harness.plans", lambda ks, g, policy, points: [
        lambda f, K=K: apply_linear_field(K, f, policy, points) for K in ks])
    assert weak_boundedness_test(K, **args).rows == rep.rows


def test_scale_matched_sweep_plans_each_row_grid_once():
    # one profile table per row grid, read reversed for T*: 7 grids, 7 tables
    K = gallery("hilbert")
    profile = K.lattice[0][1]
    reach = []

    def counting(u):
        assert np.size(u) == 2 * 128 - 1
        reach.append(float(np.max(np.abs(u))))
        return profile(u)

    grid = GridSpec(n=128, box_side=16.0)
    rep = stein_t1_test(replace(K, lattice=((None, counting, None),)), grid=grid,
                        center_fracs=(0.0,))
    assert K.grid_mode == "scaled" and len(rep.rows) == 7
    assert len(reach) == len(set(reach)) == 7
    assert rep.rows == stein_t1_test(K, grid=grid, center_fracs=(0.0,)).rows


@pytest.mark.parametrize("test,sides", [
    # three centres share each scale's grid; hilbert's T* is -T exactly, so
    # T alone once per scale
    (lambda: stein_t1_test(gallery("hilbert"), grid=GridSpec(n=128)),
     [16.0 * R for R in LINEAR_SCALES]),
    # every row widens its grid 8R by 2 x 4R; K once per widened grid
    (lambda: weak_boundedness_test(gallery("hilbert"), offsets=(4.0,),
                                   grid=GridSpec(n=64, box_side=8.0)),
     [16.0 * R for R in LINEAR_SCALES]),
    # equal and offset centres share each scale's grid: K, K*1 and K*2 once per scale
    (lambda: stein_bilinear_tb_test(gallery("bilinear-homog"), ONE, ONE, ONE,
                                    grid=GridSpec(n=32, box_side=8.0)),
     [8.0 * R for R in BILINEAR_SCALES for _ in range(3)]),
    # bilinear wbp rows sum their triple pairings on the bumps' supports: no plan
    (lambda: weak_boundedness_test(gallery("bilinear-homog")), []),
    # one row per scale-matched grid: K once per scale
    (lambda: direct_bound_check(gallery("hilbert"), ONE, op_norm=1.0, grid=GridSpec(n=64)),
     [16.0 * R for R in LINEAR_SCALES]),
    # every row on the fixed grid: K once
    (lambda: direct_bound_check(gallery("positive-control"), ONE, op_norm=1.0,
                                grid=GridSpec(n=64)), [16.0])],
    ids=["stein-3-centres", "wbp-widened", "stein-bilinear", "wbp-bilinear",
         "direct-bound", "direct-bound-fixed"])
def test_sweep_plans_each_distinct_row_grid_once(monkeypatch, test, sides):
    built = []

    def counting(kernels, g, policy, points):
        kernels = list(kernels)
        built.extend((K.name, g) for K in kernels)
        return plans(kernels, g, policy, points)

    monkeypatch.setattr("tblab.harness.plans", counting)
    test()
    assert [g.box.side for _, g in built] == sides
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("test", [
    lambda: stein_t1_test(gallery("hilbert"), center_fracs=()),
    lambda: stein_tb_test(gallery("hilbert"), ONE, ONE, center_fracs=()),
    lambda: weak_boundedness_test(gallery("hilbert"), offsets=()),
    lambda: weak_boundedness_test(gallery("bilinear-homog"), offsets=())],
    ids=["stein-t1", "stein-tb", "wbp-linear", "wbp-bilinear"])
def test_sweep_with_no_group_is_rejected_before_any_plan(monkeypatch, test):
    # an empty centre or offset list used to give a report with no row and FAIL
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    with pytest.raises(ValueError, match="at least one group"):
        test()


def test_direct_bound_hilbert_saturates():
    rep = direct_bound_check(gallery("hilbert"), ONE, op_norm=1.0, grid=SMALL)
    assert rep.verdict == "PASS"
    for R, measured, bound in rep.rows:
        # Plancherel: the bound is saturated up to tail + quadrature loss
        assert measured >= bound / 1.03 * 0.94


def test_direct_bound_scales_with_b():
    half = BFunc(name="half", rule=lambda x: 0.5 * np.ones_like(np.asarray(x)))
    a = direct_bound_check(gallery("hilbert"), ONE, op_norm=1.0, grid=SMALL)
    b = direct_bound_check(gallery("hilbert"), half, op_norm=1.0, grid=SMALL)
    for ma, mb in zip(a.column("measured"), b.column("measured")):
        assert mb == pytest.approx(ma / 2.0, rel=1e-13)


def test_direct_bound_violation_detected():
    # claiming an operator norm below the truth must FAIL with a witness row
    rep = direct_bound_check(gallery("hilbert"), ONE, op_norm=0.5, grid=SMALL)
    assert rep.verdict == "FAIL"
    assert any(measured > bound for R, measured, bound in rep.rows)


@pytest.mark.parametrize("K,args", [
    ("hilbert", dict(op_norm=1.0, grid=SMALL)),
    ("positive-control", dict(op_norm=1.0, grid=SMALL)),
    ("bilinear-homog", dict(b2=ONE, bilinear_norm=1.0, scales=BILINEAR_SCALES,
                            grid=GridSpec(n=64, box_side=8.0)))])
def test_direct_bound_rows_equal_one_shot_rows(monkeypatch, K, args):
    # the rows on the sweep's plans are bit for bit those of one apply_*_field per row
    K = gallery(K)
    rep = direct_bound_check(K, ONE, **args)
    apply = apply_linear_field if K.arity == "linear" else apply_bilinear_field
    monkeypatch.setattr("tblab.harness.plans", lambda ks, g, policy, points: [
        lambda *fs, K=K: apply(K, *fs, policy, points) for K in ks])
    assert direct_bound_check(K, ONE, **args).rows == rep.rows


@pytest.mark.parametrize("rows_R,kept", [
    (lambda K, **kw: [r[0] for r in direct_bound_check(K, ONE, op_norm=1.0, **kw).rows],
     [0.5, 1.0, 2.0, 4.0, 8.0]),
    (lambda K, **kw: [r.R for r in weak_boundedness_test(K, offsets=(0.0, 0.5), **kw).rows],
     [0.5, 1.0, 2.0, 4.0, 8.0] * 2)],
    ids=["direct-bound", "wbp"])
def test_fixed_grid_sweeps_drop_rows_that_escape(rows_R, kept):
    # on box 16 the bump of radius 16 escapes (and the offset-0.5 row's widened
    # box 32 does not hold its bump at 8); these sweeps used to raise 'support
    # ball ... escapes the grid box' after the first four rows
    assert rows_R(gallery("positive-control"), scales=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                  grid=GridSpec(n=128, box_side=16.0)) == kept


@pytest.mark.parametrize("sweep", [weak_boundedness_test, stein_t1_test])
def test_groups_short_of_a_fit_rejected_before_any_plan(monkeypatch, sweep):
    # R = 16 escapes box 16, so each group keeps 4 rows; both sweeps used to
    # plan all 5 grids and print 'slope=n/a ... verdict: FAIL' with no fit
    _forbid_fields(monkeypatch)
    with pytest.raises(ValueError, match="centre 0 fits its grid at 4 of its 5 scales; "
                                         "an exponent fit needs 5"):
        sweep(gallery("positive-control"), scales=(1.0, 2.0, 4.0, 8.0, 16.0),
              grid=GridSpec(n=128, box_side=16.0))


def test_stein_group_with_no_row_rejected_before_any_plan(monkeypatch):
    # every bump at centre 0.6 x box side escapes; the sweep used to plan and
    # compute the rows of centre 0 first
    _forbid_fields(monkeypatch)
    with pytest.raises(ValueError, match="section '' at centre 0.6 escapes its grid"):
        stein_t1_test(gallery("hilbert"), center_fracs=(0.0, 0.6),
                      scales=(0.5, 1.0, 2.0, 4.0, 8.0), grid=GridSpec(n=64))


def test_direct_bound_requires_norm():
    with pytest.raises(ValueError, match="norm"):
        direct_bound_check(gallery("hilbert"), ONE)


def test_direct_bound_bilinear():
    rep = direct_bound_check(gallery("bilinear-homog"), ONE, b2=ONE,
                             bilinear_norm=1.0,
                             scales=tuple(2.0 ** k for k in range(-2, 3)),
                             grid=GridSpec(n=128, box_side=8.0))
    assert rep.verdict == "PASS"


def test_uniform_bmo_sweep_hilbert():
    rep = uniform_bmo_sweep(gallery("hilbert"), R_list=(1.0, 2.0, 4.0),
                            grid=GridSpec(n=256, box_side=16.0), k_max=5)
    assert rep.verdict == "PASS"
    assert rep.spread("bmo") <= 1.1


def test_uniform_bmo_sweep_positive_control_fails():
    rep = uniform_bmo_sweep(gallery("positive-control"), R_list=(1.0, 2.0, 4.0),
                            grid=GridSpec(n=256, box_side=16.0), k_max=5)
    assert rep.verdict == "FAIL"
    vals = rep.column("bmo")
    assert vals[-1] > 2.0 * vals[0]


def test_far_field_constancy_hilbert():
    rep = far_field_constancy(gallery("hilbert"), grid=GridSpec(n=512, box_side=64.0))
    assert rep.verdict == "PASS"
    assert rep.spread("sup_dev") <= 2.0
    for split_defect in rep.column("split_defect"):
        assert split_defect <= 1e-12           # linearity of the quadrature


def test_far_field_dev_zero_at_reference_point():
    # c_{Q,R} is the far-field value at the grid point nearest the center,
    # so the deviation at that point vanishes identically
    K = gallery("hilbert")
    Q = Cube((0.0,), 0.25)
    rep = far_field_constancy(K, Q=Q, grid=GridSpec(n=512, box_side=64.0))
    g = make_grid(1, cube1(0.0, 64.0), 512)
    i0 = int(np.argmin(np.abs(g.axis(0))))
    phiQ = BumpRule("plateau", 1.0, (0.0,), 6.0 * Q.side)(g.axis(0))
    for R, _, c_re, c_im, _ in rep.rows:
        far = (1.0 - phiQ) * BumpRule("plateau", 1.0, (0.0,), R)(g.axis(0))
        fr = apply_linear_field(K, SampledFunction(grid=g, values=far.astype(complex)),
                                PvPolicy(), points=[i0])
        c_QR = complex(c_re, c_im)
        assert c_QR == pytest.approx(complex(fr.field.values[i0]), rel=1e-12, abs=0.0)
        assert c_QR != 0.0


def test_zero_kernel_is_uniform_degenerate_in_both_sweeps():
    # far-field used to read sup_dev [0, 0, 0], ratio inf and FAIL on a zero
    # kernel, where sweep-bmo read PASS-degenerate
    K = zero_kernel()
    ff = far_field_constancy(K, grid=GridSpec(n=256, box_side=64.0))
    assert ff.column("sup_dev") == [0.0, 0.0, 0.0]
    assert ff.verdict == "PASS-degenerate"
    bmo = uniform_bmo_sweep(K, R_list=(1.0, 2.0, 4.0), grid=GridSpec(n=128, box_side=32.0),
                            k_max=4)
    assert bmo.column("bmo") == [0.0, 0.0, 0.0]
    assert bmo.verdict == "PASS-degenerate"


def test_far_field_box_preconditions():
    with pytest.raises(ValueError, match="4x"):
        far_field_constancy(gallery("hilbert"), R_list=(32.0,),
                            grid=GridSpec(n=512, box_side=64.0))


@pytest.mark.parametrize("center", [31.8, -31.8, 31.2])
def test_far_field_rejects_8q_outside_the_box(monkeypatch, center):
    # 8Q of Q = (31.8, 0.25) spans 30.8 to 32.8 on the box [-32, 32]; the check
    # box >= 8 Q.side used to pass it, and the run read FAIL at max/min 4.66
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    with pytest.raises(ValueError, match="grid box must contain 8Q"):
        far_field_constancy(gallery("hilbert"), Q=Cube((center,), 0.25))


@pytest.mark.parametrize("check", [
    lambda Q, grid: far_field_constancy(gallery("hilbert"), Q=Q, grid=grid),
    lambda Q, grid: bilinear_decomposition_check(gallery("bilinear-homog"), Q=Q, grid=grid),
    lambda Q, grid: local_piece_check(gallery("hilbert"), ONE, Q, 1.0, grid=grid)],
    ids=["far-field", "bilinear-decomp", "local-piece"])
@pytest.mark.parametrize("Q", [Cube((0.0,), 0.1), Cube((0.3,), 0.05)])
def test_localized_checks_reject_a_cube_without_a_cell(monkeypatch, check, Q):
    # h = 0.25: cells centred at +-0.125, +-0.375; neither cube holds one
    def no_plan(*args, **kwargs):
        raise AssertionError("a field was computed")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    monkeypatch.setattr("tblab.harness.apply_linear_field", no_plan)
    with pytest.raises(ValueError, match=r"holds no cell of the grid on \[-32, 32\]"):
        check(Q, GridSpec(n=256, box_side=64.0))


@pytest.mark.parametrize("check,center,message", [
    (lambda Q: bilinear_decomposition_check(gallery("bilinear-homog"), Q=Q,
                                            grid=GridSpec(n=256, box_side=64.0)),
     31.5, "grid box must contain 8Q"),
    (lambda Q: bilinear_decomposition_check(gallery("bilinear-homog"), Q=Q,
                                            grid=GridSpec(n=256, box_side=64.0)),
     20.0, r"lies outside the support of phi_R at the largest scale R = 12"),
    (lambda Q: local_piece_check(gallery("hilbert"), ONE, Q, 1.0,
                                 grid=GridSpec(n=256, box_side=64.0)),
     31.5, "grid box must contain 8Q")],
    ids=["bilinear-decomp-8Q", "bilinear-decomp-outside", "local-piece-8Q"])
def test_localized_checks_reject_a_vacuous_cube_before_any_field(monkeypatch, check, center,
                                                                  message):
    # the decomposition read a vacuous PASS (avg_I, dev_II and dev_III 0) at both
    # centres, and the local piece a value from a phi_Q cut by the box edge
    def no_plan(*args, **kwargs):
        raise AssertionError("a field was computed")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    monkeypatch.setattr("tblab.harness.apply_linear_field", no_plan)
    with pytest.raises(ValueError, match=message):
        check(Cube((center,), 0.5))


def test_local_piece_rejects_phi_r_wider_than_the_box(monkeypatch):
    # R = 80 on box 96 used to return 0.0404 from a truncated cutoff; R = 48 fits
    assert local_piece_check(gallery("hilbert"), ONE, Cube((0.0,), 1.0), 48.0,
                             grid=GridSpec(n=384, box_side=96.0)).value > 0

    def no_plan(*args, **kwargs):
        raise AssertionError("a field was computed")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    monkeypatch.setattr("tblab.harness.apply_linear_field", no_plan)
    with pytest.raises(ValueError, match=r"R = 80, the box is \[-48, 48\]"):
        local_piece_check(gallery("hilbert"), ONE, Cube((0.0,), 1.0), 80.0)


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_local_piece_rewrite_identity(ratio):
    # the product phi_Q phi_R equals the composite translate-dilate exactly
    Q = Cube((0.0,), 1.0)
    r = 6.0 * Q.diam
    lp = local_piece_check(gallery("hilbert"), ONE, Q, ratio * r,
                           grid=GridSpec(n=768, box_side=96.0))
    assert lp.rewrite_defect <= 1e-12
    assert lp.composite_certificate.passed
    assert lp.case == ("R<=r" if ratio <= 1 else "R>r")
    assert lp.scale == min(ratio * r, r)
    assert lp.value <= lp.l2 / Q.side ** 0.5     # Cauchy-Schwarz on Q


def test_local_piece_values_recorded():
    Q = Cube((0.0,), 1.0)
    vals = [local_piece_check(gallery("hilbert"), ONE, Q, R,
                              grid=GridSpec(n=768, box_side=96.0)).value
            for R in (1.5, 6.0, 24.0)]
    assert all(v > 0 for v in vals)
    assert max(vals) <= 1.0     # the substantive content: averages uniformly O(1)


def test_local_piece_estimate_fails_positive_control():
    # the acceptance-09b criterion must be able to fail: 1/|x-y| has size
    # without cancellation, so it breaks two of its clauses (no PV flags,
    # averages at most 1)
    Q = Cube((0.0,), 1.0)
    r = 6.0 * Q.diam
    vals = [local_piece_check(gallery("positive-control"), ONE, Q, R,
                              grid=GridSpec(n=768, box_side=96.0))
            for R in (r / 4.0, r, 4.0 * r)]
    assert all(v.pv_flagged for v in vals)
    assert max(v.value for v in vals) > 1.0


def test_bilinear_decomposition_sum_identity():
    rep = bilinear_decomposition_check(gallery("bilinear-homog"),
                                       grid=GridSpec(n=256, box_side=64.0))
    assert rep.verdict == "PASS"
    assert all(rep.column("sum_ok"))
    assert max(rep.column("sum_defect")) <= 1e-12


def test_bilinear_decomposition_zero_b():
    zero = BFunc(name="zero", rule=lambda x: 0.0 * np.asarray(x))
    rep = bilinear_decomposition_check(gallery("bilinear-homog"), zero, ONE,
                                       grid=GridSpec(n=256, box_side=64.0))
    assert rep.column("avg_I") == rep.column("dev_II") == [0.0, 0.0, 0.0]


def _split_oracle_setup(grid, Q):
    """The localization of the far-field and decomposition checks, written out."""
    g = grid.row_grid("fixed", 1.0)
    ax, x0 = g.axis(0), Q.center[0]
    qsel = np.nonzero((ax >= x0 - Q.side / 2.0) & (ax < x0 + Q.side / 2.0))[0]
    i0 = int(np.argmin(np.abs(ax - x0)))
    pts = np.concatenate([qsel, [i0]]) if i0 not in qsel else qsel

    def plateau(c, R):
        return BumpRule("plateau", 1.0, (c,), R)(ax).astype(complex)

    def weighted(b, *factors):
        values = b.values
        for f in factors:
            values = values * f
        return SampledFunction(grid=g, values=values)

    return g, qsel, i0, pts, plateau(x0, 6.0 * Q.diam), plateau, weighted


def _far_field_oracle(K, b1, Q, R_list, grid, policy=PvPolicy()):
    g, qsel, i0, pts, phiQ, plateau, weighted = _split_oracle_setup(grid, Q)
    b1s = b1.sampled(g)
    rows = []
    for R in R_list:
        phiR = plateau(0.0, R)
        fr_far = apply_linear_field(K, weighted(b1s, 1.0 - phiQ, phiR), policy, pts)
        fr_loc = apply_linear_field(K, weighted(b1s, phiQ, phiR), policy, pts)
        fr_full = apply_linear_field(K, weighted(b1s, phiR), policy, pts)
        cQR = complex(fr_far.field.values[i0])
        dev = float(np.max(np.abs(fr_far.field.values[qsel] - cQR)))
        split = float(np.max(np.abs(fr_full.field.values[qsel]
                                    - fr_loc.field.values[qsel]
                                    - fr_far.field.values[qsel])))
        rows.append((R, dev, cQR.real, cQR.imag, split))
    return rows


def _decomposition_oracle(K, b1, b2, Q, R_list, grid, policy=PvPolicy()):
    g, qsel, i0, pts, phiQ, plateau, weighted = _split_oracle_setup(grid, Q)
    s1, s2 = b1.sampled(g), b2.sampled(g)
    rows = []
    for R in R_list:
        phiR = plateau(0.0, R)
        near1, far1 = weighted(s1, phiQ, phiR), weighted(s1, 1.0 - phiQ, phiR)
        near2, far2 = weighted(s2, phiQ, phiR), weighted(s2, 1.0 - phiQ, phiR)
        pieces = [apply_bilinear_field(K, fa, fb, policy, points=pts).field.values
                  for fa, fb in ((near1, near2), (far1, near2), (near1, far2), (far1, far2))]
        direct = apply_bilinear_field(K, weighted(s1, phiR), weighted(s2, phiR), policy,
                                      points=pts).field.values
        total = pieces[0] + pieces[1] + pieces[2] + pieces[3]
        sum_defect = float(np.max(np.abs((total - direct)[qsel])))
        sum_ok = bool(sum_defect <= policy.tol_pv *
                      (1.0 + float(np.max(np.abs(direct[qsel])))))
        devs = [float(np.max(np.abs(p[qsel] - p[i0]))) for p in pieces[1:]]
        rows.append((R, float(np.mean(np.abs(pieces[0][qsel]))), *devs, sum_defect, sum_ok))
    return rows


@pytest.mark.parametrize("K,b1,Q,R_list,grid", [
    ("hilbert", "one", FAR_FIELD_CUBE, (4.0, 8.0, 16.0), FAR_FIELD_GRID),
    ("cauchy-lipschitz", "accretive-lipschitz(0.3)", Cube((0.5,), 0.5), (2.0, 4.0, 8.0),
     GridSpec(n=512, box_side=48.0)),
])
def test_far_field_rows_match_the_written_out_split(K, b1, Q, R_list, grid):
    # every field, the roundoff-level split_defect included, is bit-identical
    # to three explicit apply_linear_field calls per R
    K, b1 = gallery(K), builtin_b(b1)
    rep = far_field_constancy(K, b1, Q=Q, R_list=R_list, grid=grid)
    assert rep.rows == _far_field_oracle(K, b1, Q, R_list, grid)


@pytest.mark.parametrize("b1,b2,Q,grid", [
    ("one", "one", DECOMP_CUBE, DECOMP_GRID),
    ("accretive-lipschitz(0.3)", "exp-ix", Cube((0.25,), 0.5), GridSpec(n=256, box_side=48.0)),
])
def test_decomposition_rows_match_the_written_out_split(b1, b2, Q, grid):
    # every field, the roundoff-level sum_defect included, is bit-identical to
    # five explicit apply_bilinear_field calls per R
    K, b1, b2 = gallery("bilinear-homog"), builtin_b(b1), builtin_b(b2)
    r = 6.0 * Q.diam
    rep = bilinear_decomposition_check(K, b1, b2, Q=Q, grid=grid)
    assert rep.rows == _decomposition_oracle(K, b1, b2, Q, (r / 4.0, r, 4.0 * r), grid)


def test_scale_equivariance_of_pipeline():
    # homogeneous kernel on grids matched by rescaling: doubling every scale
    # and the box (same n) reproduces each row up to the exact R^(1/2) factor
    K = replace(gallery("hilbert"), grid_mode="fixed")
    a = stein_t1_test(K, scales=(0.125, 0.25, 0.5, 1.0, 2.0),
                      grid=GridSpec(n=256, box_side=16.0))
    b = stein_t1_test(K, scales=(0.25, 0.5, 1.0, 2.0, 4.0),
                      grid=GridSpec(n=256, box_side=32.0))
    va = {(r.center, r.R): r.value for r in a.rows}
    vb = {(r.center, r.R): r.value for r in b.rows}
    for (c, R), v in va.items():
        assert vb[(c, 2.0 * R)] == pytest.approx(np.sqrt(2.0) * v, rel=0.02)


def test_verdict_monotone_in_scale_list():
    # enlarging the sweep can only keep or worsen the uniformity ratio
    K = gallery("positive-control")
    short = stein_t1_test(K, scales=tuple(2.0 ** k for k in range(-2, 3)),
                          grid=SMALL)
    full = stein_t1_test(K, scales=tuple(2.0 ** k for k in range(-3, 4)),
                         grid=SMALL)
    for fs, ff in zip(short.fits, full.fits):
        assert ff.unif >= fs.unif - 1e-12


def test_stein_bilinear_structure():
    res = stein_bilinear_tb_test(gallery("bilinear-homog"), ONE, ONE, ONE,
                                 grid=GridSpec(n=128, box_side=8.0))
    assert res.verdict == "PASS"
    assert {r.experiment for r in res.reports} == {
        "bilinear-tb-direct", "bilinear-tb-transpose1", "bilinear-tb-transpose2"}
    for rep in res.reports:
        for f in rep.fits:
            assert f.slope == pytest.approx(0.5, abs=0.07)


def test_bilinear_transpose_consistency_on_disjoint_supports():
    # <T(f, g), h> = <T*1(h, g), f>: the first-transpose report of K
    # matches the direct report of K*1 by construction
    from tblab.kernels import transpose_kernel
    K = gallery("bilinear-homog")
    K1 = transpose_kernel(K, 1)
    a = stein_bilinear_tb_test(K, ONE, ONE, ONE, grid=GridSpec(n=128, box_side=8.0))
    b = stein_bilinear_tb_test(K1, ONE, ONE, ONE, grid=GridSpec(n=128, box_side=8.0))
    for ra, rb in zip(a.transpose1.rows, b.direct.rows):
        assert rb.value == pytest.approx(ra.value, rel=1e-12)


def test_report_csv_schema():
    rep = stein_t1_test(zero_kernel(), grid=SMALL)
    rows = rep.csv_rows()
    assert rows[0][:6] == ["experiment", "kernel", "b0", "b1", "b2", "M"]
    assert rows[0][-1] == "verdict"
    assert len(rows) == len(rep.rows) + 1


def test_margin_flags_near_box_edge():
    rep = stein_t1_test(gallery("positive-control"), grid=SMALL)
    flagged = [r for r in rep.rows if r.margin_flagged]
    # fixed box 16: the R=8 bump at the center reaches the boundary
    assert any(r.R == 8.0 for r in flagged)


def _forbid_fields(monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the input was rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    monkeypatch.setattr("tblab.harness.plans", no_field)


@pytest.mark.parametrize("scales", [(), (1.0, -2.0), (0.0, 1.0), (1.0, float("nan")),
                                    (float("inf"),), (0.5, 1.0, 2.0, 4.0, 8.0, 1.0)])
def test_scale_lists_rejected_before_any_field(monkeypatch, scales):
    _forbid_fields(monkeypatch)
    K, Kb = gallery("hilbert"), gallery("bilinear-homog")
    runs = [lambda: stein_t1_test(K, scales=scales, grid=SMALL),
            lambda: stein_tb_test(K, ONE, ONE, scales=scales, grid=SMALL),
            lambda: stein_bilinear_tb_test(Kb, ONE, ONE, ONE, scales=scales),
            lambda: weak_boundedness_test(K, scales=scales, grid=SMALL),
            lambda: direct_bound_check(K, ONE, op_norm=1.0, scales=scales, grid=SMALL),
            lambda: uniform_bmo_sweep(K, R_list=scales),
            lambda: far_field_constancy(K, R_list=scales),
            lambda: bilinear_decomposition_check(Kb, R_list=scales)]
    runs += [lambda R=R: local_piece_check(K, ONE, Cube((0.0,), 1.0), R)
             for R in scales if not (np.isfinite(R) and R > 0)]
    for run in runs:
        with pytest.raises(ValueError, match="scales"):
            run()


def test_repeated_groups_rejected_before_any_field(monkeypatch):
    # a repeated centre or offset used to write duplicate rows into one fit
    _forbid_fields(monkeypatch)
    K, Kb = gallery("hilbert"), gallery("bilinear-homog")
    with pytest.raises(ValueError, match="section '' at centre 0.125 is repeated"):
        stein_t1_test(K, center_fracs=(0.0, 0.125, 0.125), grid=SMALL)
    with pytest.raises(ValueError, match="section 'offset1' at centre 1 is repeated"):
        weak_boundedness_test(Kb, offsets=(1.0, 0.0, 1.0))


def test_applied_plan_applies_each_distinct_input_once():
    g = make_grid(1, cube1(0.0, 8.0), 64)
    T, applied = plans([gallery("hilbert")], g)[0], []

    def counting(*fs):
        applied.append(fs)
        return T(*fs)
    A = _Applied(counting)
    f = SampledFunction(grid=g, values=np.exp(-g.axis(0) ** 2))
    fr = A(f)
    assert A(SampledFunction(grid=g, values=f.values.copy())) is fr and len(applied) == 1
    assert not fr.converged.flags.writeable and not fr.field.values.flags.writeable
    assert A(SampledFunction(grid=g, values=2.0 * f.values)) is not fr and len(applied) == 2
    # the same values on another grid are another input, which the plan rejects
    with pytest.raises(ValueError, match="plan's grid"):
        A(SampledFunction(grid=make_grid(1, cube1(0.0, 16.0), 64), values=f.values))


@pytest.mark.parametrize("bad,match", [
    (dict(slope_tol=-1.0), "slope_tol"), (dict(slope_tol=float("nan")), "slope_tol"),
    (dict(uniformity_factor=0.5), "uniformity_factor"),
    (dict(uniformity_factor=float("nan")), "uniformity_factor")])
def test_fit_limits_rejected_before_any_field(monkeypatch, bad, match):
    # uniformity_factor 0.5 used to read FAIL at max/min 1.0005 after every field
    _forbid_fields(monkeypatch)
    K, Kb = gallery("hilbert"), gallery("bilinear-homog")
    runs = [lambda: stein_t1_test(K, grid=SMALL, **bad),
            lambda: stein_tb_test(K, ONE, ONE, grid=SMALL, **bad),
            lambda: stein_bilinear_tb_test(Kb, ONE, ONE, ONE, **bad),
            lambda: weak_boundedness_test(K, grid=SMALL, **bad)]
    if "uniformity_factor" in bad:
        runs += [lambda: uniform_bmo_sweep(K, **bad), lambda: far_field_constancy(K, **bad)]
    for run in runs:
        with pytest.raises(ValueError, match=match):
            run()


@pytest.mark.parametrize("norm", [float("nan"), -1.0, 0.0, float("inf")])
def test_direct_bound_norms_rejected_before_any_field(monkeypatch, norm):
    # op_norm = nan used to compute all 7 fields and read FAIL with a witness
    _forbid_fields(monkeypatch)
    for run in (lambda: direct_bound_check(gallery("hilbert"), ONE, op_norm=norm),
                lambda: direct_bound_check(gallery("bilinear-homog"), ONE, b2=ONE,
                                           bilinear_norm=norm)):
        with pytest.raises(ValueError, match="operator norm must be positive and finite"):
            run()

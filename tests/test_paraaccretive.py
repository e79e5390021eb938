import numpy as np
import pytest

from tblab.grid import Cube, cube1, dyadic_family, make_grid, sample
from tblab.harness import builtin_b
from tblab.paraaccretive import (b_to_def3_constant, build_uk, check_condition_B,
                                 check_para_accretive, make_sk_from_uk,
                                 mollification_l1_error, mollifier_alpha,
                                 select_mollifier_h, subcube_scan,
                                 verify_sk_checklist, verify_uk)

# independent pre-build references:
#   alpha = 1 / int(order-1 bump) by Richardson-refined quadrature
#   E(h) = int |1_Q0 * phi_h - 1_Q0| on a fine auxiliary lattice (linear in h)
ALPHA_1D = 1.7982902526
E_TABLE = {1.0: 0.668908, 0.5: 0.334454, 0.25: 0.167227}


def _grid(n=512, side=8.0):
    return make_grid(1, cube1(0.0, side), n)


def _b(name, g):
    return builtin_b(name).sampled(g)


def test_alpha_frozen():
    assert mollifier_alpha(1) == pytest.approx(ALPHA_1D, rel=1e-7)


@pytest.mark.parametrize("h", sorted(E_TABLE))
def test_mollification_error_frozen(h):
    assert mollification_l1_error(h, 1) == pytest.approx(E_TABLE[h], rel=1e-4)


def test_mollification_error_is_one_dimensional():
    with pytest.raises(ValueError, match="d=2"):
        mollification_l1_error(0.5, 2)


def test_select_mollifier_h():
    # thresholds 0.5 (b == 1) and c0/(2 sup|b|) for the accretive builtin both
    # land on the first halving: E(1) = 0.669 > 0.5 >= E(0.5)
    assert select_mollifier_h(1.0, 1.0) == 0.5
    assert select_mollifier_h(1.0, np.sqrt(1.09)) == 0.5


def test_subcube_scan_constant():
    g = _grid()
    b = _b("one", g)
    ratio, W = subcube_scan(b, cube1(0.0, 2.0), J=3)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert W.side == pytest.approx(2.0)


@pytest.mark.parametrize("d", [1, 2])
def test_subcube_scan_cube_outside_grid_has_no_window(d):
    # a cube beyond the low edge of the grid holds no cell; its window must not
    # wrap around to cells at the far end
    g = make_grid(d, Cube((0.0,) * d, 4.0), 32)
    b = sample((lambda x: 1.0 + 0 * x) if d == 1 else (lambda x, y: 1.0 + 0 * x), g)
    assert subcube_scan(b, Cube((-2.75,) * d, 1.0), 1) == (-1.0, None)


def test_check_para_accretive_one():
    g = _grid()
    fam = dyadic_family(g.box, 0, 3)
    cert = check_para_accretive(_b("one", g), fam, J=3)
    assert cert.c0 == pytest.approx(1.0, abs=1e-12)
    assert cert.c1 == pytest.approx(1.0, abs=1e-12)
    for Q, W, r in cert.witnesses:
        assert W.center == Q.center and W.side == Q.side


def test_check_para_accretive_accretive_builtin():
    # Re avg = 1 pins the constant from below; |avg| <= sqrt(1 + lam^2)
    g = _grid()
    fam = dyadic_family(g.box, 0, 3)
    cert = check_para_accretive(_b("accretive-lipschitz(0.3)", g), fam, J=3)
    assert 1.0 - 1e-12 <= cert.c0 <= np.sqrt(1.09) + 1e-12
    assert cert.b_sup == pytest.approx(np.sqrt(1.09), rel=1e-4)


@pytest.mark.parametrize("L,n", [(16, 256), (32, 512), (64, 1024)])
def test_exp_ix_analytic_bound(L, n):
    # |int_I e^{ix}| = 2 |sin(len/2)| <= 2 for every interval
    g = make_grid(1, cube1(0.0, float(L)), n)
    fam = dyadic_family(g.box, 0, 0)
    cert = check_para_accretive(_b("exp-ix", g), fam, J=3)
    assert cert.c0 <= 2.0 / L + 1e-9
    best = max(2.0 * abs(np.sin(L / 2.0 ** (j + 1))) for j in range(4))
    assert cert.c0 == pytest.approx(best / L, rel=1e-3)


def test_exp_ix_certified_constant_decreases():
    vals = []
    for L, n in ((16, 256), (32, 512), (64, 1024)):
        g = make_grid(1, cube1(0.0, float(L)), n)
        cert = check_para_accretive(_b("exp-ix", g), dyadic_family(g.box, 0, 0), J=3)
        vals.append(cert.c0)
    assert vals[0] > vals[1] > vals[2]


def test_unimodular_invariance():
    g = _grid()
    fam = dyadic_family(g.box, 0, 2)
    from tblab.grid import SampledFunction
    # piecewise-constant b has exactly tied windows whose argmax is not
    # rotation-stable, so the witness-map check uses a tie-free profile
    b = sample(lambda x: np.exp(1j * x / 3.0) * (1.0 + 0.2 * np.sin(x)), g)
    rotated = SampledFunction(grid=g, values=np.exp(1j * 0.73) * b.values)
    c1 = check_para_accretive(b, fam, J=3)
    c2 = check_para_accretive(rotated, fam, J=3)
    assert c2.c0 == pytest.approx(c1.c0, rel=1e-12)
    for (q1, w1, r1), (q2, w2, r2) in zip(c1.witnesses, c2.witnesses):
        assert w1 == w2
        assert r2 == pytest.approx(r1, rel=1e-12)
    # the constant itself is rotation-invariant for the jump profile too
    bs = _b("sign-sin", g)
    rs = SampledFunction(grid=g, values=np.exp(1j * 0.73) * bs.values)
    assert check_para_accretive(rs, fam, J=3).c0 == pytest.approx(
        check_para_accretive(bs, fam, J=3).c0, rel=1e-12)


def test_monotone_in_depth():
    g = _grid()
    fam = dyadic_family(g.box, 0, 2)
    b = _b("sign-sin", g)
    prev = -1.0
    for J in (0, 1, 2, 3, 4):
        c = check_para_accretive(b, fam, J=J).c0
        assert c >= prev - 1e-15
        prev = c


def test_volume_bound_on_witnesses():
    g = _grid()
    fam = dyadic_family(g.box, 0, 3)
    for name in ("one", "accretive-lipschitz(0.3)", "sign-sin"):
        cert = check_para_accretive(_b(name, g), fam, J=3)
        for Q, W, r in cert.witnesses:
            # any witness achieving ratio >= c0 has volume >= (c0/||b||) |Q|
            if r >= cert.c0:
                assert W.volume >= (cert.c0 / cert.b_sup) * Q.volume - 1e-12


# --- condition (B) and the conversion ---

def test_condition_b_constant_function():
    g = _grid()
    fam = dyadic_family(g.box, 0, 7)
    cert = check_condition_B(_b("one", g), fam, N=10, eps=1.0)
    assert cert.valid
    for k, rows in cert.witnesses.items():
        for Q, W, gap in rows:
            assert W.center == Q.center and gap == 0.0


def test_condition_b_requires_big_N():
    g = _grid()
    fam = dyadic_family(g.box, 0, 2)
    with pytest.raises(ValueError, match="N >= 10"):
        check_condition_B(_b("one", g), fam, N=5, eps=1.0)


def test_condition_b_sign_sin_fine_generations():
    # cubes of side << pi: a constant-sign cube sits within a few side
    # lengths of any cube
    g = make_grid(1, cube1(0.0, 16.0), 1024)
    fam = dyadic_family(g.box, 5, 7)   # sides 1/2, 1/4, 1/8
    cert = check_condition_B(_b("sign-sin", g), fam, N=10, eps=0.9)
    assert cert.valid


def test_condition_b_exp_ix_fails_on_coarse_generations():
    # every same-size window of side >> 2 pi has average modulus <= 2/side
    g = make_grid(1, cube1(0.0, 64.0), 1024)
    fam = dyadic_family(g.box, 0, 1)   # sides 64 and 32
    cert = check_condition_B(_b("exp-ix", g), fam, N=10, eps=0.1)
    assert not cert.valid
    assert cert.first_failure is not None


def _scalar_condition_B(b, family, N, eps):
    """Oracle: the per-pair Cube.gap_to scan, (witnesses, valid, first_failure)."""
    witnesses, first_failure = {}, None
    for k in range(family.k_min, family.k_max + 1):
        gen = family.generations[k]
        avgs = np.asarray([subcube_scan(b, Q, 0)[0] for Q in gen])
        rows = []
        for Q in gen:
            gaps = np.asarray([Q.gap_to(o) for o in gen])
            cdist = np.asarray([np.linalg.norm(np.asarray(Q.center) - np.asarray(o.center))
                                for o in gen])
            ok = (avgs >= eps) & (gaps <= N * family.side(k) + 1e-12)
            if np.any(ok):
                cand = np.nonzero(ok)[0]
                pick = cand[int(np.lexsort((cdist[cand], gaps[cand]))[0])]
                rows.append((Q, gen[pick], float(gaps[pick])))
            else:
                rows.append((Q, None, float("nan")))
                first_failure = first_failure or (k, Q)
        witnesses[k] = rows
    return witnesses, first_failure is None, first_failure


def _assert_matches_scalar_scan(b, fam, N, eps):
    cert = check_condition_B(b, fam, N=N, eps=eps)
    witnesses, valid, first_failure = _scalar_condition_B(b, fam, N, eps)
    assert cert.valid == valid
    assert cert.first_failure == first_failure
    assert cert.witnesses.keys() == witnesses.keys()
    for k, rows in witnesses.items():
        for (Q, W, gap), (cQ, cW, cgap) in zip(rows, cert.witnesses[k], strict=True):
            assert cQ is Q and cW == W
            assert cgap == gap or (np.isnan(gap) and np.isnan(cgap))
    return cert


@pytest.mark.parametrize("name,eps,L,n", [("one", 1.0, 8.0, 512), ("sign-sin", 0.9, 16.0, 2048)])
def test_condition_b_matches_scalar_scan_acceptance_families(name, eps, L, n):
    # the two families of acceptance 07, generations 0..9
    g = make_grid(1, cube1(0.0, L), n)
    cert = _assert_matches_scalar_scan(_b(name, g), dyadic_family(g.box, 0, 9), 10, eps)
    assert name == "one" or not cert.valid


def test_condition_b_matches_scalar_scan_failures():
    g = make_grid(1, cube1(0.0, 64.0), 1024)
    cert = _assert_matches_scalar_scan(_b("exp-ix", g), dyadic_family(g.box, 0, 3), 10, 0.1)
    assert cert.first_failure is not None


def test_condition_b_matches_scalar_scan_2d():
    # symmetric sign pattern: many witnesses tie on gap and on center distance
    g = make_grid(2, Cube((0.0, 0.0), 8.0), 64)
    b = sample(lambda x, y: np.sign(np.sin(x) * np.sin(y)) + 0.0j, g)
    cert = _assert_matches_scalar_scan(b, dyadic_family(g.box, 0, 4), 10, 0.9)
    assert not cert.valid and cert.generation_ok(4)


def test_condition_b_memory_is_linear_in_generation_size():
    # d=2, k=6: 4096 cubes; an m x m float array alone would take 128 MB
    import tracemalloc
    g = make_grid(2, Cube((0.0, 0.0), 8.0), 128)
    b = sample(lambda x, y: np.sign(np.sin(x + 0.5 * y)) + 0.0j, g)
    fam = dyadic_family(g.box, 6, 6)
    tracemalloc.start()
    try:
        cert = check_condition_B(b, fam, N=10, eps=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.witnesses[6]) == 4096
    assert peak < 16 * 2 ** 20


def test_conversion_constant_matches_analytic_bound():
    g = _grid(512, 8.0)
    b = _b("one", g)
    fam = dyadic_family(g.box, 0, 9)
    cert = check_condition_B(b, fam, N=10, eps=1.0)
    conv = b_to_def3_constant(cert, g.box, b)
    assert conv.bound == pytest.approx(1.0 / 200.0, abs=1e-15)
    # side-length selection geometry: witness sits inside the big cube
    assert conv.Q2.center[0] - conv.Q2.side / 2 >= g.box.lo()[0] - 1e-12
    assert conv.Q2.center[0] + conv.Q2.side / 2 <= g.box.hi()[0] + 1e-12
    # direct certification dominates the converted lower bound
    direct = check_para_accretive(b, dyadic_family(g.box, 0, 2), J=3)
    assert conv.bound <= direct.c0 + 1e-12


def test_conversion_consistency_sign_sin():
    g = make_grid(1, cube1(0.0, 16.0), 2048)
    b = _b("sign-sin", g)
    fam = dyadic_family(g.box, 0, 9)
    cert = check_condition_B(b, fam, N=10, eps=0.9)
    conv = b_to_def3_constant(cert, g.box, b)
    direct = check_para_accretive(b, dyadic_family(g.box, 0, 2), J=3)
    assert conv.bound <= direct.c0 + 1e-12


def test_conversion_out_of_range_generation():
    g = _grid(128, 8.0)
    b = _b("one", g)
    fam = dyadic_family(g.box, 0, 2)
    cert = check_condition_B(b, fam, N=10, eps=1.0)
    with pytest.raises(ValueError, match="generation"):
        b_to_def3_constant(cert, g.box, b)


# --- the u_k construction ---

@pytest.mark.parametrize("k", [0, 1, 2])
def test_build_uk_one(k):
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, k)
    assert fam.h_mol == 0.5
    ver = verify_uk(fam, b)
    assert ver.all_ok
    for c in ver.checks:
        assert abs(c.pairing) == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_build_uk_accretive(k):
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("accretive-lipschitz(0.3)", g)
    fam = build_uk(b, k)
    ver = verify_uk(fam, b)
    assert ver.all_ok


def test_uk_support_exact_zero():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1)
    y = g.axis(0)
    for i, x in enumerate(fam.lattice):
        outside = np.abs(x - y) >= fam.support_radius_bound
        assert np.all(fam.rows[i][outside] == 0.0)


def test_uk_sup_bound_form():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    for k in (0, 1):
        fam = build_uk(b, k)
        bound = fam.alpha * fam.h_mol ** (-1) * 2.0 ** k
        assert np.max(np.abs(fam.rows)) <= bound * (1 + 1e-9)


def test_build_uk_needs_resolution():
    g = make_grid(1, cube1(0.0, 8.0), 64)
    b = _b("one", g)
    with pytest.raises(ValueError, match="finer grid|cells"):
        build_uk(b, 3)


def test_build_uk_deterministic():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("accretive-lipschitz(0.3)", g)
    f1 = build_uk(b, 1)
    f2 = build_uk(b, 1)
    np.testing.assert_array_equal(f1.rows, f2.rows)
    assert f1.h_mol == f2.h_mol


# --- the externally-supplied family checklist ---

def test_sk_checklist_renormalized_uk():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1, lattice_divisor=4)
    sk = make_sk_from_uk(fam, b)
    rep = verify_sk_checklist(sk, b, 1)
    assert rep.pairing_ok                      # (v) holds by construction
    assert rep.symmetric_ok                    # symmetric witnesses for b == 1
    assert rep.smallest_admissible_C >= 1.0


def test_sk_checklist_detects_asymmetry():
    # sign-sin selects one-sided witness windows near the sign changes, so
    # the mollified family is genuinely asymmetric
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("sign-sin", g)
    fam = build_uk(b, 1, lattice_divisor=4)
    sk = make_sk_from_uk(fam, b)
    rep = verify_sk_checklist(sk, b, 1)
    assert rep.pairing_ok
    assert not rep.symmetric_ok


def test_sk_checklist_zero_family_fails_pairing():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1)
    from dataclasses import replace
    zeroed = replace(fam, rows=np.zeros_like(fam.rows))
    rep = verify_sk_checklist(zeroed, b, 1)
    assert not rep.pairing_ok


def test_sk_support_constant_detects_radius():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1)
    rep = verify_sk_checklist(fam, b, 1)
    # all rows vanish beyond C_support * 2^-k by definition of the constant
    y = g.axis(0)
    for i, x in enumerate(fam.lattice):
        beyond = np.abs(x - y) >= rep.C_support * 2.0 ** (-1) + g.h
        assert np.all(np.abs(fam.rows[i][beyond]) == 0.0)

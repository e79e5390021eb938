from dataclasses import replace

import numpy as np
import pytest

from tblab.grid import Cube, SampledFunction, cube1, dyadic_family, make_grid, sample
from tblab.harness import builtin_b
from tblab.paraaccretive import (b_to_def3_constant, build_uk, check_condition_B,
                                 check_para_accretive, make_sk_from_uk,
                                 mollification_l1_error, mollifier_alpha,
                                 mollifier_cdf, select_mollifier_h, subcube_scan,
                                 verify_sk_checklist, verify_uk)
from tblab.util import csv_table

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


# --- oracle: the one-cube-at-a-time subcube scan ---

def _scalar_cell_span(g, Q):
    spans = []
    for ax in range(g.d):
        g_lo = g.box.center[ax] - g.box.side / 2.0
        a = (Q.center[ax] - Q.side / 2.0 - g_lo) / g.h
        b = (Q.center[ax] + Q.side / 2.0 - g_lo) / g.h
        ia, ib = round(a), round(b)
        if abs(a - ia) > 1e-6 or abs(b - ib) > 1e-6:
            raise ValueError("not aligned")
        spans.append((max(0, int(ia)), min(g.n, max(0, int(ib)))))
    return spans


def _scalar_subcube_scan(b, Q, J):
    """(ratio, window) of one cube: one prefix sum, one argmax per depth."""
    g, d, h = b.grid, b.grid.d, b.grid.h
    spans = _scalar_cell_span(g, Q)
    volQ = Q.volume
    best = (-1.0, None)
    v = b.values[tuple(slice(i0, i1) for i0, i1 in spans)] * h ** d
    S = np.zeros(tuple(m + 1 for m in v.shape), dtype=complex)
    for ax in range(d):
        v = np.cumsum(v, axis=ax)
    S[(slice(1, None),) * d] = v
    for j in range(J + 1):
        w = round(Q.side / (1 << j) / h)
        if w < 1 or w > min(v.shape):
            continue
        if d == 1:
            sums = S[w:] - S[:-w]
        else:
            sums = S[w:, w:] - S[:-w, w:] - S[w:, :-w] + S[:-w, :-w]
        amps = np.abs(sums)
        a = np.unravel_index(int(np.argmax(amps)), amps.shape)
        if amps[a] / volQ > best[0]:
            lo = [g.box.center[ax] - g.box.side / 2.0 + (spans[ax][0] + a[ax]) * h
                  for ax in range(d)]
            best = (float(amps[a]) / volQ, Cube(tuple(x + w * h / 2.0 for x in lo), w * h))
    return best


def _para_cases():
    rng = np.random.default_rng(14)
    g1 = make_grid(1, cube1(0.3, 6.0), 384)
    g2 = make_grid(2, Cube((0.3, -0.1), 6.0), 48)
    return {
        "1d-real": sample(lambda x: np.cos(2 * x) + 0.3, g1),
        "1d-complex": SampledFunction(grid=g1, values=rng.normal(size=384)
                                      + 1j * rng.normal(size=384)),
        "1d-tied": _b("sign-sin", g1),
        "2d-real": SampledFunction(grid=g2, values=rng.normal(size=g2.shape)),
        "2d-complex": sample(lambda x, y: np.exp(1j * (x + 2 * y)) * (1.2 + np.sin(x)), g2),
        "2d-tied": sample(lambda x, y: np.sign(np.sin(2 * x) * np.sin(y)) + 0j, g2),
    }


@pytest.mark.parametrize("J", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", ["1d-real", "1d-complex", "1d-tied", "2d-real",
                                  "2d-complex", "2d-tied"])
def test_para_certificate_equals_per_cube_oracle(name, J):
    b = _para_cases()[name]
    # the root overhangs the grid by 3 cells: its edge cubes are clipped
    root = Cube(tuple(c + 3 * b.grid.h for c in b.grid.box.center), b.grid.box.side)
    for fam in (dyadic_family(b.grid.box, 0, 4 if b.grid.d == 1 else 3),
                dyadic_family(root, 0, 3)):
        if fam.root == root and J == 0:
            # a clipped cube holds no window of its own side
            with pytest.raises(ValueError, match="no whole grid cell"):
                check_para_accretive(b, fam, J=J)
            assert _scalar_subcube_scan(b, root, 0) == (-1.0, None)
            continue
        cert = check_para_accretive(b, fam, J=J)
        want = [(Q, W, r) for Q in fam.all_cubes()
                for r, W in [_scalar_subcube_scan(b, Q, J)]]
        assert cert.witnesses == want
        assert cert.c0 == min(r for _, _, r in want)


@pytest.mark.parametrize("name", ["1d-complex", "2d-complex"])
def test_para_csv_rows_equal_rows_of_the_witnesses_view(name):
    b = _para_cases()[name]
    cert = check_para_accretive(b, dyadic_family(b.grid.box, 0, 3), J=2)
    assert cert.csv_rows() == csv_table(
        ["cube_center", "cube_side", "witness_center", "witness_side", "ratio"],
        ((Q.center, Q.side, W.center, W.side, r) for Q, W, r in cert.witnesses))
    assert len(cert.witnesses) == len(cert.ratios) and cert.witnesses[0][0].d == b.grid.d


@pytest.mark.parametrize("d", [1, 2])
def test_subcube_scan_equals_oracle_on_and_off_the_grid(d):
    g = make_grid(d, Cube((0.0,) * d, 4.0), 32)
    b = SampledFunction(grid=g, values=np.random.default_rng(d).normal(size=g.shape) + 0.2j)
    for s in (-2.75, -2.25, -1.75, 0.25, 1.75, 2.25, 2.75):
        Q = Cube((s,) + (0.25,) * (d - 1), 1.0)
        for J in range(4):
            assert subcube_scan(b, Q, J) == _scalar_subcube_scan(b, Q, J), (Q, J)
    with pytest.raises(ValueError, match="aligned"):
        subcube_scan(b, Cube((0.01,) * d, 1.0), 1)


@pytest.mark.parametrize("divisor", [1, 4])
def test_uk_witnesses_equal_per_cube_oracle(divisor):
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("accretive-lipschitz(0.3)", g)
    fam = build_uk(b, 1, J=3, lattice_divisor=divisor)
    assert fam.witnesses == [_scalar_subcube_scan(b, cube1(x, 0.5), 3)[1]
                             for x in fam.lattice]


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


def _scan_conversion(cert, Q, b):
    """Oracle: the selected generation's cube that holds Q's centre, by a
    contains_point scan of the witnesses view, its witness, and the one-cube
    scan of that witness rescaled to 1/|Q|."""
    fam, N = cert.family, cert.N
    k = next(k for k in range(fam.k_min, fam.k_max + 1)
             if 10.0 * N * fam.side(k) <= Q.side + 1e-12
             and Q.side <= 20.0 * N * fam.side(k) + 1e-12)
    Q1, W = next((q, w) for q, w, _ in cert.witnesses[k] if q.contains_point(Q.center))
    return k, Q1, W, subcube_scan(b, W, 0)[0] * W.volume / Q.volume


@pytest.mark.parametrize("name,eps,L,n", [("one", 1.0, 8.0, 512), ("sign-sin", 0.9, 16.0, 2048)])
def test_conversion_equals_contains_point_oracle_acceptance_families(name, eps, L, n):
    # the two families of acceptance 07; Q's centre falls on generation edges
    # (the half-open rule picks the upper cube) and inside cubes
    g = make_grid(1, cube1(0.0, L), n)
    b = _b(name, g)
    cert = check_condition_B(b, dyadic_family(g.box, 0, 9), N=10, eps=eps)
    cubes = list(dyadic_family(g.box, 0, 1).all_cubes())
    cubes += [cube1(x, L / 2) for x in np.linspace(-L / 4, L / 4, 13)]
    for Q in cubes:
        conv = b_to_def3_constant(cert, Q, b)
        assert (conv.k, conv.Q1, conv.Q2, conv.measured_ratio) == _scan_conversion(cert, Q, b)


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


def _all_pairs_condition_B(b, family, N, eps):
    """Oracle: each cube's gaps to every large-average cube of its generation as
    one vector, (witnesses, valid, first_failure)."""
    witnesses, first_failure = {}, None
    for k in range(family.k_min, family.k_max + 1):
        gen = family.generations[k]
        side = family.side(k)
        good = np.nonzero([_scalar_subcube_scan(b, Q, 0)[0] >= eps for Q in gen])[0]
        centers = np.asarray([Q.center for Q in gen])
        lo, hi = (centers - side / 2.0).T, (centers + side / 2.0).T
        rows = []
        for i, Q in enumerate(gen):
            gaps = np.sqrt(sum(np.maximum(np.maximum(lo[ax, i] - hi[ax, good], 0.0),
                                          np.maximum(lo[ax, good] - hi[ax, i], 0.0)) ** 2
                               for ax in range(len(lo))))
            gap = gaps.min(initial=np.inf)
            if gap <= N * side + 1e-12:
                pick = min(good[gaps == gap],
                           key=lambda j: np.linalg.norm(centers[i] - centers[j]))
                rows.append((Q, gen[pick], float(gap)))
            else:
                rows.append((Q, None, float("nan")))
                first_failure = first_failure or (k, Q)
        witnesses[k] = rows
    return witnesses, first_failure is None, first_failure


def _corner_b(g):
    # large averages only in one corner region and on a sparse random set, so
    # witnesses sit at every distance up to N side, with ties, and some fail
    x, y = g.meshgrid()
    spots = np.random.default_rng(g.n).random(g.shape) < 0.02
    return SampledFunction(grid=g, values=np.where((x > 2.0) & (y > 1.0) | spots, 1.0, 0.1)
                           + 0.05j * np.sin(3 * x * y))


@pytest.mark.parametrize("k,N", [(5, 10.0), (5, 12.5), (4, 10.0), (3, 10.0), (2, 11.0)])
def test_condition_b_windowed_search_equals_all_pairs_scan_2d(k, N):
    # k = 4, 5 (16, 32 cubes a side): a cube's offsets within N side reach
    # past the nearby box edges but not across the box; for k <= 3 N side
    # exceeds the box
    g = make_grid(2, Cube((0.0, 0.0), 8.0), 64)
    b = _corner_b(g)
    fam = dyadic_family(g.box, k, k)
    cert = check_condition_B(b, fam, N=N, eps=0.5)
    witnesses, valid, first_failure = _all_pairs_condition_B(b, fam, N, 0.5)
    assert (cert.valid, cert.first_failure) == (valid, first_failure)
    for (Q, W, gap), (cQ, cW, cgap) in zip(witnesses[k], cert.witnesses[k], strict=True):
        assert cQ is Q and cW == W
        assert cgap == gap or (np.isnan(gap) and np.isnan(cgap))
    gaps = [gap for _, W, gap in witnesses[k] if W is not None]
    assert min(gaps) == 0.0 and max(gaps) > 0.0
    assert k < 5 or not valid


def _offset_order_condition_B(b, family, N, eps):
    """Oracle: each cube's large-average cubes ranked by exact integer keys of
    their index offset o: first the gap^2 = sum max(|o| - 1, 0)^2 in units of
    the side, then the distance^2 = sum o^2, then the index; k -> list of
    (Q, witness or None)."""
    witnesses = {}
    for k in range(family.k_min, family.k_max + 1):
        gen, side, M = family.generations[k], family.side(k), 1 << k
        idx = np.stack(np.unravel_index(np.arange(len(gen)), (M,) * family.root.d), axis=1)
        good = np.nonzero([_scalar_subcube_scan(b, Q, 0)[0] >= eps for Q in gen])[0]
        rows = []
        for i, Q in enumerate(gen):
            o = idx[good] - idx[i]
            g2 = np.sum(np.maximum(np.abs(o) - 1, 0) ** 2, axis=1)
            ok = side * np.sqrt(g2) <= N * side + 1e-12
            keys = sorted(zip(g2[ok].tolist(), np.sum(o * o, axis=1)[ok].tolist(),
                              good[ok].tolist()))
            rows.append((Q, gen[keys[0][2]] if keys else None, keys[:2]))
        witnesses[k] = rows
    return witnesses


@pytest.mark.parametrize("root,n,k_max,b,eps", [
    (cube1(1.3, 7.3), 1024, 6, lambda x: np.sign(np.sin(3.0 * x)) + 0.0j, 0.9),
    (Cube((1.3, -0.7), 7.3), 64, 4, lambda x, y: np.sign(np.sin(x) * np.sin(y)) + 0.0j, 0.9),
], ids=["d1", "d2"])
def test_condition_b_on_a_non_dyadic_root_matches_offset_order(root, n, k_max, b, eps):
    # centres 1.3 + (i + 1/2) 7.3 / 2^k are not binary fractions, so the float
    # gaps of two cubes at one integer gap can differ by an ulp; the witness
    # must still follow the exact integer order, and its gap be Cube.gap_to
    g = make_grid(root.d, root, n)
    b = sample(b, g)
    fam = dyadic_family(root, 0, k_max)
    for N in (10.0, 11.0):
        cert = check_condition_B(b, fam, N=N, eps=eps)
        oracle = _offset_order_condition_B(b, fam, N, eps)
        ties = 0
        for k, rows in oracle.items():
            for (Q, W, keys), (cQ, cW, cgap) in zip(rows, cert.witnesses[k], strict=True):
                assert cQ is Q and cW == W
                assert cgap == Q.gap_to(W) if W is not None else np.isnan(cgap)
                ties += len(keys) == 2 and keys[0][:2] == keys[1][:2]
        assert ties > 0
        assert cert.valid == all(W is not None for rows in oracle.values()
                                 for _, W, _ in rows)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
def test_condition_b_rejects_a_vacuous_eps(eps):
    g = _grid(64)
    with pytest.raises(ValueError, match="eps"):
        check_condition_B(_b("one", g), dyadic_family(g.box, 0, 2), N=10, eps=eps)


def test_para_depth_is_checked_before_any_scan():
    # a cube off the grid cells would fail the scan; the depth fails first
    g = _grid(64)
    fam = dyadic_family(Cube((0.01,), 8.0), 0, 1)
    with pytest.raises(ValueError, match="depth J"):
        check_para_accretive(_b("one", g), fam, J=-1)
    with pytest.raises(ValueError, match="aligned"):
        check_para_accretive(_b("one", g), fam, J=0)


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
    rep = verify_sk_checklist(sk, b)
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
    rep = verify_sk_checklist(sk, b)
    assert rep.pairing_ok
    assert not rep.symmetric_ok


def test_sk_checklist_zero_family_fails_pairing():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1)
    from dataclasses import replace
    zeroed = replace(fam, rows=np.zeros_like(fam.rows))
    rep = verify_sk_checklist(zeroed, b)
    assert not rep.pairing_ok


def test_sk_support_constant_detects_radius():
    g = make_grid(1, cube1(0.0, 8.0), 2048)
    b = _b("one", g)
    fam = build_uk(b, 1)
    rep = verify_sk_checklist(fam, b)
    # all rows vanish beyond C_support * 2^-k by definition of the constant
    y = g.axis(0)
    for i, x in enumerate(fam.lattice):
        beyond = np.abs(x - y) >= rep.C_support * 2.0 ** (-1) + g.h
        assert np.all(np.abs(fam.rows[i][beyond]) == 0.0)


# --- row-loop references for the whole-array u_k / s_k code ---

def _loop_uk_rows(fam):
    """u_k rows one witness at a time."""
    y = fam.grid.axis(0)
    rows = np.zeros((len(fam.lattice), fam.grid.n))
    for idx, W in enumerate(fam.witnesses):
        epsm = fam.h_mol * W.side
        wlo = W.center[0] - W.side / 2.0
        whi = W.center[0] + W.side / 2.0
        rows[idx] = (2.0 ** fam.k) * (mollifier_cdf((y - wlo) / epsm)
                                      - mollifier_cdf((y - whi) / epsm))
    return rows


def _loop_uk_checks(fam, b):
    """(x, sup, worst tail, lip, pairing) of verify_uk, one row at a time."""
    g = fam.grid
    y = g.axis(0)
    out = []
    for x, row in zip(fam.lattice, fam.rows):
        outside = np.abs(float(x) - y) >= fam.support_radius_bound - 1e-12
        tail = float(np.max(np.abs(row[outside]))) if np.any(outside) else 0.0
        out.append((float(x), float(np.max(np.abs(row))), tail,
                    float(np.max(np.abs(np.diff(row)))) / g.h,
                    complex(np.sum(row * b.values) * g.h)))
    return out


def _loop_sk_rows(fam, b):
    rows = fam.rows.astype(complex).copy()
    for i in range(rows.shape[0]):
        rows[i] = rows[i] / (np.sum(rows[i] * b.values) * fam.grid.h)
    return rows


def _loop_sk_checklist(s, b, k):
    """The s_k checklist with the O(L^2) pair loop of scalar interpolations."""
    y = s.grid.axis(0)
    rows = np.asarray(s.rows)
    sup = float(np.max(np.abs(rows)))
    supp = 0.0
    for i, x in enumerate(s.lattice):
        nz = np.abs(rows[i]) > 0
        if np.any(nz):
            supp = max(supp, float(np.max(np.abs(y[nz] - x))))
    C_lip = 0.0
    for i in range(len(s.lattice) - 1):
        dx = abs(float(s.lattice[i + 1] - s.lattice[i]))
        if dx > 0:
            slope = float(np.max(np.abs(rows[i + 1] - rows[i]))) / dx
            C_lip = max(C_lip, slope / 2.0 ** (k * 2.0))

    def row_at(i, target):
        r = rows[i]
        return complex(np.interp(target, y, r.real), np.interp(target, y, r.imag)) \
            if np.iscomplexobj(r) else float(np.interp(target, y, r))
    sym = 0.0
    for a in range(len(s.lattice)):
        for c in range(a + 1, len(s.lattice)):
            sym = max(sym, abs(row_at(a, s.lattice[c]) - row_at(c, s.lattice[a])))
    pair = 0.0
    for i in range(len(s.lattice)):
        pair = max(pair, abs(np.sum(rows[i] * b.values) * s.grid.h - 1.0))
    return (sup / 2.0 ** k, supp * 2.0 ** k, C_lip, sym / max(sup, 1e-300), float(pair))


@pytest.mark.parametrize("name", ["one", "accretive-lipschitz(0.3)", "sign-sin", "exp-ix"])
@pytest.mark.parametrize("k,divisor", [(0, 1), (1, 4), (2, 1)])
def test_uk_family_matches_row_loops(name, k, divisor):
    g = make_grid(1, cube1(0.0, 8.0), 1024)
    b = _b(name, g)
    fam = build_uk(b, k, lattice_divisor=divisor)
    assert np.array_equal(fam.rows, _loop_uk_rows(fam))
    # rows that decay past the support radius give nonzero tails
    spread = replace(fam, rows=np.exp(-np.abs(fam.lattice[:, None] - g.axis(0))))
    for f in (fam, spread):
        checks = [(c.x, c.sup, c.worst_tail, c.lip, c.pairing) for c in verify_uk(f, b).checks]
        assert checks == _loop_uk_checks(f, b)
    sk = make_sk_from_uk(fam, b)
    assert np.array_equal(sk.rows, _loop_sk_rows(fam, b))
    for s in (fam, sk, spread):
        # the whole-array absolute values may round differently from scalar ones
        rep = verify_sk_checklist(s, b)
        np.testing.assert_array_max_ulp(
            np.array([rep.C_size, rep.C_support, rep.C_lipschitz_x, rep.symmetry_defect,
                      rep.pairing_defect]),
            np.array(_loop_sk_checklist(s, b, k)), maxulp=2)

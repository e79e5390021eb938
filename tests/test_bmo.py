import numpy as np
import pytest

from tblab.bmo import (MIN_CELLS, SHIFTS, CubeOscillation, _abs_dev, _geometric_median,
                       best_constant_oscillation, bmo_seminorm, mean_oscillation)
from tblab.grid import Cube, SampledFunction, cube1, dyadic_family, make_grid, sample
from tblab.harness import builtin_b
from tblab.util import csv_table

# log|x| BMO estimates over dyadic + shifted families on [-1, 1], frozen
# from an independent pre-build window scan
LOG_BMO = {256: 0.770670, 512: 0.776044, 1024: 0.776626}


def _grid(n=256, side=2.0):
    return make_grid(1, cube1(0.0, side), n)


def test_mean_oscillation_constant_zero():
    g = _grid()
    # dyadic-representable constant: the cell average is bit-exact
    f = sample(lambda x: 3.75 * np.ones_like(x), g)
    assert mean_oscillation(f, cube1(0.1, 0.5)) == 0.0
    # a non-representable constant costs at most an ulp of the mean
    f2 = sample(lambda x: 3.7 * np.ones_like(x), g)
    assert mean_oscillation(f2, cube1(0.1, 0.5)) <= 1e-14


def test_mean_oscillation_sign():
    g = _grid()
    f = sample(lambda x: np.sign(x), g)
    # symmetric cube: average 0 exactly on the midpoint lattice
    assert mean_oscillation(f, cube1(0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)
    # one-sided cube: constant
    assert mean_oscillation(f, cube1(0.25, 0.5)) == 0.0


def test_mean_oscillation_needs_cells():
    g = _grid(64)
    f = sample(lambda x: x, g)
    with pytest.raises(ValueError, match="cells"):
        mean_oscillation(f, cube1(0.0, 0.01))


def test_best_constant_constant_function():
    g = _grid()
    f = sample(lambda x: (2.0 - 1j) * np.ones_like(x), g)
    v, witness = best_constant_oscillation(f, cube1(0.0, 1.0), return_witness=True)
    assert v == 0.0
    assert witness == pytest.approx(2.0 - 1j, abs=1e-12)


def test_best_constant_sign():
    g = _grid()
    f = sample(lambda x: np.sign(x), g)
    assert best_constant_oscillation(f, cube1(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_best_constant_below_mean(seed):
    rng = np.random.default_rng(seed)
    g = _grid(128)
    vals = rng.normal(size=128) + 1j * rng.normal(size=128)
    f = SampledFunction(grid=g, values=vals)
    Q = cube1(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.3, 1.0)))
    try:
        mo = mean_oscillation(f, Q)
    except ValueError:
        return
    bo = best_constant_oscillation(f, Q)
    assert bo <= mo + 1e-12
    assert mo <= 2.0 * bo + 1e-12


def test_bmo_constant_zero():
    g = _grid()
    f = sample(lambda x: np.ones_like(x) * (4 + 2j), g)
    fam = dyadic_family(g.box, 0, 4)
    rep = bmo_seminorm(f, fam)
    assert rep.sup_mean == 0.0
    assert rep.sup_best == 0.0


def test_bmo_sign_is_one():
    g = _grid(256)
    f = sample(lambda x: np.sign(x), g)
    fam = dyadic_family(g.box, 0, 3)
    rep = bmo_seminorm(f, fam)
    # attained on the half-shifted symmetric cube; bounded by 1 analytically
    assert rep.sup_mean == pytest.approx(1.0, abs=0.02)
    assert rep.sup_mean <= 1.0 + 1e-12
    assert rep.sandwich_ok


def test_bmo_log_stability_under_refinement():
    vals = {}
    for n in (256, 512):
        g = _grid(n)
        f = sample(lambda x: np.log(np.abs(x)), g, on_nonfinite="mask")
        fam = dyadic_family(g.box, 0, 5)
        rep = bmo_seminorm(f, fam)
        vals[n] = rep.sup_mean
        assert rep.sup_mean == pytest.approx(LOG_BMO[n], rel=1e-4)
        assert rep.sandwich_ok
    assert abs(vals[512] - vals[256]) <= 0.1 * vals[256]


def test_bmo_translation_invariance_grid_aligned():
    g = _grid(256)
    fam = dyadic_family(g.box, 0, 3)
    # tau = 0.25 aligns with generation-3 cubes; supports stay inside
    f = sample(lambda x: np.sign(np.abs(x) - 0.25) * np.exp(-x * x), g)
    ft = sample(lambda x: np.sign(np.abs(x - 0.25) - 0.25) * np.exp(-(x - 0.25) ** 2), g)
    a = bmo_seminorm(f, fam).sup_mean
    b = bmo_seminorm(ft, fam).sup_mean
    assert b == pytest.approx(a, rel=5e-2)


def test_bmo_additive_invariance_exact():
    g = _grid(256)
    fam = dyadic_family(g.box, 0, 3)
    f = sample(lambda x: np.sin(3 * x) + 1j * np.cos(x), g)
    fc = SampledFunction(grid=g, values=f.values + (7.0 - 3.0j))
    a = bmo_seminorm(f, fam)
    b = bmo_seminorm(fc, fam)
    assert a.sup_mean == pytest.approx(b.sup_mean, abs=1e-12)


def test_bmo_dyadic_dilation_invariance():
    # f over family(root) equals f(2.) over family(root/2) exactly: the
    # per-cube sample multisets coincide on matched midpoint grids
    n = 256
    g_root = make_grid(1, cube1(0.0, 2.0), n)
    g_half = make_grid(1, cube1(0.0, 1.0), n)
    f = sample(lambda x: np.sin(5.0 * x) + x, g_root)
    f_compressed = sample(lambda y: np.sin(5.0 * 2.0 * y) + 2.0 * y, g_half)
    rep1 = bmo_seminorm(f, dyadic_family(g_root.box, 0, 3))
    rep2 = bmo_seminorm(f_compressed, dyadic_family(g_half.box, 0, 3))
    assert rep2.sup_mean == pytest.approx(rep1.sup_mean, abs=1e-13)


def test_sandwich_on_every_cube_of_reports(rng):
    g = _grid(256)
    fam = dyadic_family(g.box, 0, 4)
    vals = rng.normal(size=256) + 1j * rng.normal(size=256)
    f = SampledFunction(grid=g, values=vals)
    rep = bmo_seminorm(f, fam)
    assert rep.sandwich_ok
    assert all(e.best_const_osc <= e.mean_osc + 1e-12 for e in rep.entries)


def test_report_csv_columns():
    g = _grid(128)
    f = sample(lambda x: np.sign(x), g)
    rep = bmo_seminorm(f, dyadic_family(g.box, 0, 2))
    rows = rep.csv_rows()
    assert rows[0] == ["cube_center", "cube_side", "mean_osc", "best_const_osc"]
    assert len(rows) == len(rep.entries) + 1


@pytest.mark.parametrize("d", [1, 2])
def test_report_csv_rows_equal_rows_of_the_entries_view(d):
    g = make_grid(d, Cube((0.1,) * d, 3.0), 100 if d == 1 else 20)
    rng = np.random.default_rng(d)
    f = SampledFunction(grid=g, values=rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    rep = bmo_seminorm(f, dyadic_family(g.box, 0, 5 if d == 1 else 4))
    assert rep.n_skipped > 0
    assert rep.csv_rows() == csv_table(
        ["cube_center", "cube_side", "mean_osc", "best_const_osc"],
        ((e.cube.center, e.cube.side, e.mean_osc, e.best_const_osc) for e in rep.entries))
    assert len(rep.entries) == len(rep.sides) and rep.entries[0].cube.d == d


# --- oracles: the per-cube scan (one slice and one reduction per cube), per-axis
# mask selection, coordinate ternary search, brute force ---

def _shifted_cubes(family):
    """Dyadic cubes plus per-axis shifted copies that stay in the root box, in
    the report's order."""
    lo, hi, d = family.root.lo(), family.root.hi(), family.root.d
    if d == 1:
        shift_vecs = [(s,) for s in SHIFTS]
    else:
        shift_vecs = [(s, 0.0) for s in SHIFTS] + [(0.0, s) for s in SHIFTS] + \
                     [(s, t) for s in SHIFTS for t in SHIFTS]
    out = []
    for k in range(family.k_min, family.k_max + 1):
        side = family.side(k)
        base = family.generations[k]
        out.extend(base)
        for vec in shift_vecs:
            for Q in base:
                c = tuple(Q.center[i] + vec[i] * side for i in range(d))
                if all(c[i] - side / 2.0 >= lo[i] - 1e-12 and
                       c[i] + side / 2.0 <= hi[i] + 1e-12 for i in range(d)):
                    out.append(Cube(c, side))
    return out


def _cells_in_cube(f, Q):
    """Flat values of the cells centred in the half-open cube (>= MIN_CELLS)."""
    g = f.grid
    sel = []
    for ax in range(g.d):
        lo = Q.center[ax] - Q.side / 2.0
        hi = Q.center[ax] + Q.side / 2.0
        i0, i1 = np.searchsorted(g.axis(ax), (lo - 1e-12 * g.box.side,
                                              hi - 1e-12 * g.box.side))
        sel.append(slice(i0, max(i0, i1)))
    vals = f.values[tuple(sel)].ravel()
    if vals.size < MIN_CELLS:
        raise ValueError(f"cube holds {vals.size} grid cells")
    return vals


def _scalar_mean_oscillation(f, Q):
    vals = _cells_in_cube(f, Q)
    avg = np.mean(vals)
    return float(np.mean(np.abs(vals - avg)))


def _scalar_best_constant(f, Q):
    vals = _cells_in_cube(f, Q)
    best = complex(np.median(vals.real), np.median(vals.imag))
    if np.any(vals.imag):
        best = min((best, _geometric_median(vals, best), complex(np.mean(vals))),
                   key=lambda c: _abs_dev(vals, c))
    return _abs_dev(vals, best), best


def _scalar_report(f, family):
    """(entries, n_skipped) of the one-cube-at-a-time scan over the family."""
    entries, skipped = [], 0
    for Q in _shifted_cubes(family):
        try:
            mo = _scalar_mean_oscillation(f, Q)
            bo = _scalar_best_constant(f, Q)[0]
        except ValueError:
            skipped += 1
            continue
        entries.append(CubeOscillation(cube=Q, mean_osc=mo, best_const_osc=bo))
    return entries, skipped



def _mask_cells(f, Q):
    """Cells selected by one O(n) boolean mask per axis."""
    g = f.grid
    sel = None
    for ax in range(g.d):
        a = g.axis(ax)
        lo = Q.center[ax] - Q.side / 2.0
        hi = Q.center[ax] + Q.side / 2.0
        m = (a >= lo - 1e-12 * g.box.side) & (a < hi - 1e-12 * g.box.side)
        sel = m if sel is None else np.logical_and.outer(sel, m)
    return f.values[sel]


def _ternary_best_constant(vals):
    """Coordinate ternary search on (Re c, Im c) from the coordinate median."""
    def dev(c):
        return float(np.mean(np.abs(vals - c)))
    med = complex(np.median(vals.real), np.median(vals.imag))
    span = float(np.max(np.abs(vals - med))) + 1e-30
    c = med
    for axis in (1.0, 1.0j, 1.0, 1.0j):
        lo, hi = -span, span
        for _ in range(40):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if dev(c + axis * m1) <= dev(c + axis * m2):
                hi = m2
            else:
                lo = m1
        c = c + axis * (lo + hi) / 2.0
    return min(dev(x) for x in (med, c, complex(np.mean(vals))))


def _brute_force_best_constant(vals):
    """inf_c mean|vals - c|: Nelder-Mead from many starts, and every sample."""
    from scipy.optimize import minimize

    def dev(p):
        return float(np.mean(np.abs(vals - complex(p[0], p[1]))))
    best = min(dev((x.real, x.imag)) for x in vals)
    starts = [np.mean(vals), complex(np.median(vals.real), np.median(vals.imag))]
    for s in starts + list(vals[::64]):
        r = minimize(dev, [s.real, s.imag], method="Nelder-Mead",
                     options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 20000,
                              "maxfev": 40000})
        best = min(best, float(r.fun))
    return best


def _cube_zoo(g):
    """Dyadic and 1/3-, 1/2-, 2/3-shifted cubes down to one cell, plus cubes
    whose edges fall mid-cell."""
    cubes = _shifted_cubes(dyadic_family(g.box, 0, int(np.log2(g.n))))
    rng = np.random.default_rng(g.n + g.d)
    lo, side = g.box.lo(), g.box.side
    for _ in range(200):
        s = float(rng.uniform(0.5, 12.0)) * g.h
        cubes.append(Cube(tuple(lo + s / 2 + rng.uniform(0, side - s, size=g.d)), s))
    return cubes


@pytest.mark.parametrize("d,n,side", [(1, 256, 2.0), (1, 96, 3.0), (2, 32, 4.0), (2, 24, 3.0)])
def test_slice_selection_equals_mask_selection(d, n, side):
    center = (0.1,) * d
    g = make_grid(d, Cube(center, side), n)
    f = SampledFunction(grid=g, values=np.random.default_rng(n).normal(size=g.shape))
    cubes = _cube_zoo(g)
    small = 0
    for Q in cubes:
        want = _mask_cells(f, Q)
        if want.size < MIN_CELLS:
            small += 1
            with pytest.raises(ValueError, match="cells"):
                mean_oscillation(f, Q)
        else:
            assert np.array_equal(_cells_in_cube(f, Q), want), Q
            assert mean_oscillation(f, Q) == float(np.mean(np.abs(want - np.mean(want)))), Q
    assert small > 0
    rep = bmo_seminorm(f, dyadic_family(g.box, 0, int(np.log2(n))))
    fam_cubes = _shifted_cubes(dyadic_family(g.box, 0, int(np.log2(n))))
    assert rep.n_skipped == sum(_mask_cells(f, Q).size < MIN_CELLS for Q in fam_cubes)


@pytest.mark.parametrize("name", ["sign-sin", "log"])
def test_bmo_entries_match_mask_and_ternary_oracles(name):
    # real samples: the mean oscillation is bit-identical and the exact median
    # reproduces the ternary search's best constant
    if name == "sign-sin":
        g = make_grid(1, cube1(0.0, 16.0), 512)
        f = builtin_b("sign-sin").sampled(g)
    else:
        g = _grid(512)
        f = sample(lambda x: np.log(np.abs(x)), g, on_nonfinite="mask")
    rep = bmo_seminorm(f, dyadic_family(g.box, 0, 5))
    assert rep.entries
    for e in rep.entries:
        vals = _mask_cells(f, e.cube)
        assert e.mean_osc == float(np.mean(np.abs(vals - np.mean(vals))))
        assert e.best_const_osc == pytest.approx(_ternary_best_constant(vals), rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_best_constant_never_above_ternary_search(seed):
    rng = np.random.default_rng(seed)
    g = _grid(128)
    f = SampledFunction(grid=g, values=rng.normal(size=128) + 1j * rng.normal(size=128))
    for Q in _shifted_cubes(dyadic_family(g.box, 0, 4)):
        vals = _mask_cells(f, Q)
        assert best_constant_oscillation(f, Q) <= _ternary_best_constant(vals) * (1 + 1e-12)


def test_best_constant_on_clustered_complex_samples():
    # two to four tight complex clusters: the mean deviation is nearly flat
    # between them, where a coordinate search stops short of the infimum
    rng = np.random.default_rng(20240817)
    g = _grid(128)
    worst = 0.0
    for _ in range(12):
        k = int(rng.integers(2, 5))
        centers = rng.normal(size=k) + 1j * rng.normal(size=k)
        vals = centers[rng.integers(0, k, size=128)] + 1e-3 * (
            rng.normal(size=128) + 1j * rng.normal(size=128))
        f = SampledFunction(grid=g, values=vals)
        ref = _brute_force_best_constant(vals)
        got = best_constant_oscillation(f, g.box)
        worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-9


def test_best_constant_at_a_sample():
    # where the unit vectors from a sample to the others sum to at most 1 in
    # modulus (Kuhn's condition), that sample is the minimiser; an iteration
    # that only approaches it stops short
    rng = np.random.default_rng(7)
    g = _grid(16)
    hits = 0
    for _ in range(40):
        vals = rng.normal(size=16) + 1j * rng.normal(size=16)
        j = int(np.argmin(np.mean(np.abs(vals[:, None] - vals[None, :]), axis=0)))
        others = np.delete(vals, j) - vals[j]
        if abs(np.sum(others / np.abs(others))) > 1.0:
            continue
        hits += 1
        v, c = best_constant_oscillation(SampledFunction(grid=g, values=vals), g.box,
                                         return_witness=True)
        assert c == vals[j]
        assert v == float(np.mean(np.abs(vals - vals[j])))
    assert hits >= 5


def _oracle_cases():
    rng = np.random.default_rng(14)
    # from generation 3 on a cube side is no whole number of cells (n is no
    # multiple of 8), so the cubes of one generation hold different cell counts
    g1 = make_grid(1, cube1(0.1, 3.0), 100)
    g2 = make_grid(2, Cube((0.1, -0.2), 3.0), 20)
    gs = make_grid(1, cube1(0.0, 16.0), 512)
    return [
        ("1d-real", sample(lambda x: np.log(np.abs(x - 0.1)), g1, on_nonfinite="mask"), 0, 6),
        ("1d-complex", SampledFunction(grid=g1, values=rng.normal(size=100)
                                       + 1j * rng.normal(size=100)), 0, 6),
        ("1d-tied", builtin_b("sign-sin").sampled(gs), 0, 7),
        ("2d-real", SampledFunction(grid=g2, values=rng.normal(size=g2.shape)), 0, 4),
        ("2d-complex", SampledFunction(grid=g2, values=rng.normal(size=g2.shape)
                                       + 1j * rng.normal(size=g2.shape)), 0, 3),
        ("2d-tied", sample(lambda x, y: np.sign(np.sin(3 * x) * np.sin(2 * y)) + 0j, g2),
         0, 4),
    ]


@pytest.mark.parametrize("case", range(6))
def test_bmo_report_equals_per_cube_oracle(case):
    # every entry, skip count and witness equal the one-cube-at-a-time scan
    name, f, k_min, k_max = _oracle_cases()[case]
    fam = dyadic_family(f.grid.box, k_min, k_max)
    rep = bmo_seminorm(f, fam)
    entries, skipped = _scalar_report(f, fam)
    assert skipped > 0 or name in ("1d-tied", "2d-complex")
    assert rep.entries == entries
    assert rep.n_skipped == skipped
    assert rep.witness_mean == max(entries, key=lambda e: e.mean_osc).cube
    assert rep.witness_best == max(entries, key=lambda e: e.best_const_osc).cube
    assert (rep.sup_mean, rep.sup_best) == (max(e.mean_osc for e in entries),
                                            max(e.best_const_osc for e in entries))


@pytest.mark.parametrize("d", [1, 2])
def test_bmo_report_equals_oracle_on_cubes_partly_outside_the_grid(d):
    # a root box overhanging the grid: cubes hold fewer cells, or none
    g = make_grid(d, Cube((0.0,) * d, 4.0), 64 if d == 1 else 32)
    rng = np.random.default_rng(d)
    f = SampledFunction(grid=g, values=rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    fam = dyadic_family(Cube((1.3,) * d, 6.0), 0, 5 if d == 1 else 3)
    rep = bmo_seminorm(f, fam)
    entries, skipped = _scalar_report(f, fam)
    assert rep.entries == entries and rep.n_skipped == skipped > 0


@pytest.mark.parametrize("case", range(6))
def test_one_cube_functions_equal_oracle(case):
    _, f, _, _ = _oracle_cases()[case]
    g = f.grid
    # zoo cubes, cubes overhanging the grid, and cubes whose edges sit on cell
    # centres (where rounding decides, the 1e-12 box-side tolerance excludes)
    cubes = _cube_zoo(g)[::7] + [Cube(tuple(g.box.lo() + s), 8 * g.h)
                                 for s in (-3 * g.h, 0.5 * g.h, g.box.side - 2.5 * g.h)]
    cubes += [Cube(tuple(g.axis(ax)[i] - 2.5 * g.h for ax in range(g.d)), 5 * g.h)
              for i in range(5, g.n)]
    for Q in cubes:
        try:
            want = _scalar_mean_oscillation(f, Q), _scalar_best_constant(f, Q)
        except ValueError:
            with pytest.raises(ValueError, match="cells"):
                best_constant_oscillation(f, Q)
            continue
        assert mean_oscillation(f, Q) == want[0]
        assert best_constant_oscillation(f, Q, return_witness=True) == want[1]

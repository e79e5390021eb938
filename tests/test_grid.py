import re
from itertools import product

import numpy as np
import pytest

from tblab.grid import (Cube, SampledFunction, cell_spans, cube1, dyadic_family,
                        load_sampled_csv, lp_norm, make_grid, sample, save_sampled_csv)

# reference values for the standard bump profile, from Richardson-refined
# midpoint quadrature at n up to 2^16 (converged to all printed digits)
PSI_L2 = 0.364809704976
C2 = 0.1290371708      # amplitude of the order-2 certified bump


def psi(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = np.abs(x) < 1
    out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return out


def test_make_grid_midpoints():
    g = make_grid(1, cube1(0.0, 2.0), 8)
    np.testing.assert_allclose(g.axis(0), [-0.875, -0.625, -0.375, -0.125,
                                           0.125, 0.375, 0.625, 0.875])
    assert g.h == 0.25


def test_make_grid_2d_point_count():
    g = make_grid(2, Cube((0.0, 0.0), 2.0), 8)
    assert g.point_count == 64
    assert g.shape == (8, 8)


def test_make_grid_rejects_bad_dimension():
    with pytest.raises(ValueError):
        make_grid(3, Cube((0.0, 0.0, 0.0), 1.0), 8)
    with pytest.raises(ValueError):
        Cube((0.0,), -1.0)
    with pytest.raises(ValueError):
        make_grid(1, cube1(0.0, 2.0), 7)


def test_sample_constant_and_identity():
    g = make_grid(1, cube1(0.0, 2.0), 8)
    ones = sample(lambda x: np.ones_like(x), g)
    assert np.all(ones.values == 1.0)
    ident = sample(lambda x: x, g)
    np.testing.assert_array_equal(ident.values.real, g.axis(0))


def test_sample_bump_finite_everywhere(unit_grid):
    f = sample(lambda x: psi(x), unit_grid)
    assert np.all(np.isfinite(f.values))


def test_sample_nonfinite_reports_point():
    g = make_grid(1, cube1(0.0, 2.0), 8)
    with pytest.raises(ValueError, match="0.125"):
        sample(lambda x: np.where(x == 0.125, np.inf, 1.0), g)
    masked = sample(lambda x: np.where(x == 0.125, np.inf, 1.0), g,
                    on_nonfinite="mask")
    assert masked.values[g.index_of(0.125)[0]] == 0.0


def test_bad_point_messages_print_plain_floats():
    # numpy 2 scalars used to print as (np.float64(0.125),)
    g = make_grid(1, cube1(0.0, 2.0), 8)
    g2 = make_grid(2, Cube((0.0, 0.0), 2.0), 8)
    with pytest.raises(ValueError, match=r"rule produced non-finite value at \(0\.125,\)$"):
        sample(lambda x: np.where(x == 0.125, np.nan, 1.0), g)
    with pytest.raises(ValueError,
                       match=r"rule produced non-finite value at \(-0\.125, 0\.375\)$"):
        sample(lambda x, y: np.where((x == -0.125) & (y == 0.375), np.inf, 1.0), g2)
    bad = np.ones(8)
    bad[4] = np.nan
    with pytest.raises(ValueError, match=r"non-finite sample at grid point \(0\.125,\)$"):
        SampledFunction(grid=g, values=bad)
    with pytest.raises(ValueError, match=r"^\(0\.1,\) is not a grid point \(axis 0\)$"):
        g.index_of(0.1)


def test_lp_norm_indicators():
    g = make_grid(1, cube1(0.0, 4.0), 256)   # cell edges at multiples of 1/64
    ind = sample(lambda x: ((x > 0) & (x < 1)).astype(float), g)
    assert lp_norm(ind, 2) == pytest.approx(1.0, abs=1e-12)
    half = sample(lambda x: ((x > 0) & (x < 0.5)).astype(float), g)
    assert lp_norm(half, 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert lp_norm(half, np.inf) == 1.0


def test_lp_norm_standard_bump_frozen(unit_grid):
    from tblab.bumps import standard_bump
    phi, spec = standard_bump(2, unit_grid)
    assert lp_norm(phi, 2) == pytest.approx(C2 * PSI_L2, rel=2e-5)


def test_lp_norm_rejects_bad_p(unit_grid):
    f = sample(lambda x: psi(x), unit_grid)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


@pytest.mark.parametrize("j", [-2, -1, 0, 1, 2])
def test_dilation_covariance_of_l2(j):
    # ||f((.-x0)/R)||_2 = R^{d/p} ||f||_2 within 1e-3 relative
    R = 2.0 ** j
    g_base = make_grid(1, cube1(0.0, 4.0), 1024)
    g_scaled = make_grid(1, cube1(0.5, 4.0 * R), 1024)
    f = sample(lambda x: psi(x), g_base)
    fs = sample(lambda x: psi((x - 0.5) / R), g_scaled)
    assert lp_norm(fs, 2) == pytest.approx(np.sqrt(R) * lp_norm(f, 2), rel=1e-3)


@pytest.mark.parametrize("rule", [
    lambda x: np.exp(-x ** 2),
    lambda x: np.cos(x) ** 2,
    lambda x: 1.0 / (1.0 + x ** 2),
])
def test_refinement_convergence_second_order(rule):
    # doubling n changes the norm by O(h^2)
    vals = {}
    for n in (128, 256, 512):
        g = make_grid(1, cube1(0.0, 8.0), n)
        vals[n] = lp_norm(sample(rule, g), 2)
    d1 = abs(vals[256] - vals[128])
    d2 = abs(vals[512] - vals[256])
    # near-quadratic decay, allowing super-convergent cases to hit roundoff
    assert d2 <= max(d1 / 2.5, 1e-12)


def test_dyadic_family_generations():
    fam = dyadic_family(cube1(0.5, 1.0), 0, 1)
    assert [c.center[0] for c in fam.generations[0]] == [0.5]
    assert [c.center[0] for c in fam.generations[1]] == [0.25, 0.75]
    assert fam.generations[1][0].side == 0.5


def test_dyadic_family_2d_counts():
    fam = dyadic_family(Cube((0.0, 0.0), 2.0), 1, 1)
    assert len(fam.generations[1]) == 4


def test_dyadic_family_2d_centres_x_major():
    fam = dyadic_family(Cube((0.0, 0.0), 4.0), 1, 2)
    assert [c.center for c in fam.generations[1]] == [(-1.0, -1.0), (-1.0, 1.0),
                                                       (1.0, -1.0), (1.0, 1.0)]
    c = (-1.5, -0.5, 0.5, 1.5)
    assert [q.center for q in fam.generations[2]] == [(x, y) for x in c for y in c]


def test_dyadic_partition_volumes_exact():
    fam = dyadic_family(Cube((0.0, 0.0), 2.0), 0, 3)
    for k in range(1, 4):
        assert sum(c.volume for c in fam.generations[k]) == pytest.approx(
            fam.root.volume, abs=0)


@pytest.mark.parametrize("root", [cube1(0.5, 1.0), cube1(1.3, 7.3), Cube((0.0, 0.0), 4.0),
                                  Cube((1.3, -0.7), 7.3)])
def test_dyadic_family_centers_are_the_generation_centres(root):
    # bit for bit, and by the per-cube formula lo + (i + 1/2) side of each axis
    fam = dyadic_family(root, 0, 4)
    lo = root.lo()
    for k in range(5):
        c = fam.centers(k)
        assert c.shape == ((1 << k) ** root.d, root.d)
        assert c.tolist() == [list(Q.center) for Q in fam.generations[k]]
        assert c.tolist() == [[float(lo[ax] + (i + 0.5) * fam.side(k))
                               for ax, i in enumerate(idx)]
                              for idx in product(range(1 << k), repeat=root.d)]


def test_dyadic_family_cap():
    with pytest.raises(ValueError, match="cap"):
        dyadic_family(cube1(0.0, 1.0), 0, 25)


def test_csv_round_trip(tmp_path, unit_grid):
    f = sample(lambda x: psi(x) + 1j * np.sin(x), unit_grid)
    path = tmp_path / "f.csv"
    save_sampled_csv(f, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,re,im"
    g = load_sampled_csv(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_csv_round_trip_2d(tmp_path, grid2d):
    f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), grid2d)
    path = tmp_path / "f2.csv"
    save_sampled_csv(f, path)
    assert path.read_text().splitlines()[0] == "x,y,re,im"
    g = load_sampled_csv(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_csv_bytes_2d_x_major(tmp_path):
    # cell (i, j) of the 8x8 grid holds i - 1j * j; y varies fastest
    f = sample(lambda x, y: (x + 3.5) - 1j * (y + 3.5), make_grid(2, Cube((0.0, 0.0), 8.0), 8))
    path = tmp_path / "f.csv"
    save_sampled_csv(f, path)
    body = "".join(f"{-3.5 + i},{-3.5 + j},{i},{-j}\r\n" for i in range(8) for j in range(8))
    assert path.read_bytes() == ("x,y,re,im\r\n" + body).encode()
    assert path.read_bytes().startswith(b"x,y,re,im\r\n-3.5,-3.5,0,0\r\n-3.5,-2.5,0,-1\r\n")


def test_csv_rejects_nonuniform_y_axis(tmp_path):
    # x is uniform, y reads 0..6, 100: this used to load onto a uniform y axis
    # about y = 50, at coordinates the file never named
    ys = [0, 1, 2, 3, 4, 5, 6, 100]
    body = "".join(f"{x},{y},1,0\n" for x in range(8) for y in ys)
    path = tmp_path / "f.csv"
    path.write_text("x,y,re,im\n" + body)
    with pytest.raises(ValueError, match="not uniform"):
        load_sampled_csv(path)


def _csv_2d(path, rows):
    path.write_text("x,y,re,im\n" + "".join(f"{x},{y},{re},0\n" for x, y, re in rows))
    return path


def _x_major(n=8):
    return [(i + 0.5, j + 0.5, 10 * i + j) for i in range(n) for j in range(n)]


def test_csv_rejects_rows_out_of_x_major_order(tmp_path):
    # each used to load: a y-major file transposed, a row replaced by a copy
    # of another silently; a missing row failed in the reshape, naming no row
    y_major = sorted(_x_major(), key=lambda row: row[1])     # the same points, y slow
    with pytest.raises(ValueError, match=re.escape(
            "row 2 is at (1.5, 0.5), not at the grid point (0.5, 1.5)")):
        load_sampled_csv(_csv_2d(tmp_path / "t.csv", y_major))
    rows = _x_major()
    rows[5] = rows[6]
    with pytest.raises(ValueError, match=re.escape("row 6 is at (0.5, 6.5)")):
        load_sampled_csv(_csv_2d(tmp_path / "d.csv", rows))
    rows = _x_major()
    del rows[9]
    with pytest.raises(ValueError, match=re.escape("row 10 is at (1.5, 2.5)")):
        load_sampled_csv(_csv_2d(tmp_path / "m.csv", rows))
    with pytest.raises(ValueError, match=re.escape("row 64: the 8^2 grid has 64 points, "
                                                   "the file 63 rows")):
        load_sampled_csv(_csv_2d(tmp_path / "l.csv", _x_major()[:-1]))
    with pytest.raises(ValueError, match=re.escape("row 65: the 8^2 grid has 64 points, "
                                                   "the file 65 rows")):
        load_sampled_csv(_csv_2d(tmp_path / "e.csv", _x_major() + _x_major()[-1:]))
    g = load_sampled_csv(_csv_2d(tmp_path / "ok.csv", _x_major()))
    np.testing.assert_array_equal(g.values.real, 10 * np.arange(8)[:, None] + np.arange(8))


@pytest.mark.parametrize("text,message", [
    ("", "CSV has no header"),
    ("x,re,im\n", "CSV has no data rows"),
    ("x,re,im\n0.5,1,0\n", "CSV grid has 1 points per axis, need at least 8"),
    ("x,y,re,im\n0.5,0.5,1,0\n", "CSV grid has 1 points per axis, need at least 8"),
    ("x,re,im\n0.5,1,0\n1.5,1\n", "CSV data row 2 has 2 cells, the header 3"),
    ("x,re,im\n" + "".join(f"{i + 0.5},1,0\n" for i in range(8)) + "\n",
     "CSV data row 9 has 0 cells, the header 3"),
])
def test_csv_rejects_malformed_files(tmp_path, text, message):
    # the first four used to end in an IndexError, the last two in numpy's
    # inhomogeneous-shape error, naming no row
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sampled_csv(path)


def _rounded_spans(g, centers, side):
    """The cell spans of cell-aligned cubes from their rounded edges, clipped to
    the grid: the rule the subcube scans used, kept as the oracle of cell_spans."""
    g_lo = np.asarray(g.box.center) - g.box.side / 2.0
    ia = np.round((centers - side / 2.0 - g_lo) / g.h)
    ib = np.round((centers + side / 2.0 - g_lo) / g.h)
    starts = np.maximum(0, ia).astype(np.intp)
    ends = np.minimum(g.n, np.maximum(0, ib)).astype(np.intp)
    return starts, np.maximum(ends - starts, 0)


def test_cell_spans_match_rounded_edges_on_aligned_cubes():
    # cubes of w cells at random cell offsets, partly or wholly outside the box;
    # a start is only read where the span is not empty
    rng = np.random.default_rng(1584)
    for _ in range(1584):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(8, 2049))
        g = make_grid(d, Cube(tuple(rng.uniform(-4.0, 4.0, d)), rng.uniform(0.5, 64.0)), n)
        w = int(rng.integers(1, n + 1))
        first = rng.integers(-w - 3, n + 4, size=(16, d))
        g_lo = np.asarray(g.box.center) - g.box.side / 2.0
        centers = g_lo + (first + w / 2.0) * g.h
        starts, lengths = cell_spans(g, centers, w * g.h)
        want_starts, want_lengths = _rounded_spans(g, centers, w * g.h)
        np.testing.assert_array_equal(lengths, want_lengths)
        some = lengths > 0
        np.testing.assert_array_equal(starts[some], want_starts[some])
        assert np.all(lengths <= np.minimum(w, n))


def test_values_immutable(unit_grid):
    f = sample(lambda x: psi(x), unit_grid)
    with pytest.raises(ValueError):
        f.values[0] = 5.0

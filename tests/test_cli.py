import csv
import importlib.util
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from tblab.bmo import bmo_seminorm
from tblab import cli, harness, quadrature
from tblab.cli import ConfigError, ExperimentConfig, ingest_b, run
from tblab.grid import (Cube, Grid, cube1, dyadic_family, load_sampled_csv, make_grid, sample,
                        save_sampled_csv)
from tblab.harness import (GridSpec, builtin_b, exponent_fit, stein_bilinear_tb_test,
                           stein_tb_test, weak_boundedness_test)
from tblab.kernels import GALLERY_NAMES, gallery


def write_cfg(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return p


def _forbid_fields(monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the config was rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    monkeypatch.setattr("tblab.harness.plans", no_field)


def test_config_unknown_key(tmp_path):
    p = write_cfg(tmp_path, "bad.cfg", "kernel.nam = hilbert\n")
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.parse(p)


def test_config_duplicate_key(tmp_path):
    p = write_cfg(tmp_path, "dup.cfg", "grid.n = 64\ngrid.n = 128\n")
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig.parse(p)


def test_config_type_validation(tmp_path):
    p = write_cfg(tmp_path, "bad2.cfg", "grid.n = many\n")
    with pytest.raises(ConfigError, match="integer"):
        ExperimentConfig.parse(p)


def test_config_comments_and_defaults(tmp_path):
    p = write_cfg(tmp_path, "ok.cfg", "# comment\nkernel.name = hilbert\n")
    cfg = ExperimentConfig.parse(p)
    assert cfg.get("grid.n", 512) == 512
    assert cfg.kernel().name == "hilbert"


def test_config_grid_mode_overrides_kernel_default(tmp_path):
    p = write_cfg(tmp_path, "m.cfg", "kernel.name = hilbert\ngrid.mode = fixed\n")
    assert ExperimentConfig.parse(p).kernel().grid_mode == "fixed"
    assert gallery("hilbert").grid_mode == "scaled"


def test_run_unknown_subcommand(tmp_path):
    p = write_cfg(tmp_path, "ok.cfg", "kernel.name = hilbert\n")
    assert run("frobnicate", p) == 2


def test_run_bad_config_exit_2(tmp_path, capsys):
    p = write_cfg(tmp_path, "bad.cfg", "mystery = 1\n")
    assert run("stein", p, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("line", ["policy.convergence_check = false", "dimension = 1"])
def test_removed_keys_exit_2_before_any_file(tmp_path, capsys, line):
    # the convergence check always runs, and experiments take d from the kernel
    p = write_cfg(tmp_path, "r.cfg", f"kernel.name = hilbert\n{line}\n")
    out = tmp_path / "out"
    assert run("stein", p, out) == 2
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("", "CSV has no header"),
    ("x,re,im\n", "CSV has no data rows"),
    ("x,re,im\n0.5,1,0\n", "CSV grid has 1 points per axis, need at least 8"),
    ("x,re,im\n0.5,1,0\n1.5,1\n", "CSV data row 2 has 2 cells, the header 3"),
    ("x,y,re,im\n0.5,0.5,1,0\n0.5,1.5,1,0\n1.5,abc,1,0\n",
     "{path}: CSV data row 3, column y: 'abc' is not a number"),
])
def test_malformed_b_csv_exit_2_before_any_file(tmp_path, capsys, text, message):
    # the first three used to end in an uncaught IndexError with exit code 1,
    # the code of a FAIL verdict
    path = tmp_path / "b.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert run("bmo", write_cfg(tmp_path, "b.cfg", f"b1 = {path}\n"), out) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["bmo", "stein", "para-accretive"])
def test_too_small_grid_exit_2_before_the_output_directory(tmp_path, capsys, sub):
    # grid.n = 4 fails at run time; it used to leave an empty output directory
    # (only stein reads kernel.name)
    kernel = "kernel.name = hilbert\n" if sub == "stein" else ""
    p = write_cfg(tmp_path, "n.cfg", kernel + "grid.n = 4\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert "need at least 8 points per axis" in capsys.readouterr().err
    assert not out.exists()
    # an output directory that exists already is left as it was
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    assert run(sub, p, out) == 2
    assert [f.name for f in out.iterdir()] == ["keep.txt"]


def test_output_path_that_is_a_file_exit_2(tmp_path, capsys):
    # it used to end in a FileExistsError traceback, exit code 1 (a FAIL verdict)
    out = tmp_path / "out"
    out.write_text("kept")
    assert run("bmo", write_cfg(tmp_path, "b.cfg", "b1 = one\ngrid.n = 64\n"), out) == 2
    assert "File exists" in capsys.readouterr().err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("kernel", ["hilbert", "positive-control"])
def test_stein_centre_group_with_no_row_exit_2_before_any_file(tmp_path, capsys, kernel):
    # a centre whose bump escapes the grid at every scale used to leave a
    # header-only CSV and a FAIL verdict (exit 1)
    p = write_cfg(tmp_path, "c.cfg", f"kernel.name = {kernel}\ngrid.n = 64\n"
                                     f"centers = 0,0.6\nscales = 0.5,1,2,4,8\n")
    out = tmp_path / "out"
    assert run("stein", p, out) == 2
    assert "section '' at centre 0.6 escapes its grid" in capsys.readouterr().err
    assert not out.exists()


def test_wbp_groups_short_of_a_fit_exit_2_before_any_plan(tmp_path, capsys, monkeypatch):
    # R = 16 escapes box 16 and leaves each offset 4 rows; this used to plan 5
    # grids and exit 1 with 'slope=n/a verdict: FAIL', a verdict nothing measured
    _forbid_fields(monkeypatch)
    p = write_cfg(tmp_path, "w.cfg", "kernel.name = positive-control\ngrid.n = 128\n"
                                     "grid.box_side = 16\nscales = 1,2,4,8,16\n")
    out = tmp_path / "out"
    assert run("wbp", p, out) == 2
    assert ("section 'offset0' at centre 0 fits its grid at 4 of its 5 scales"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("sub,body,message", [
    ("stein", "kernel.name = hilbert\nb2 = sign-sin\n", "b2 does not apply to the linear kernel"),
    ("wbp", "kernel.name = hilbert\nb2 = sign-sin\n", "b2 does not apply to the linear kernel"),
    ("stein", "kernel.name = bilinear-homog\ncenters = 0.3\n",
     "centers does not apply to the bilinear kernel"),
    ("report", "kernel.name = bilinear-homog\ncenters = 0.3\n",
     "centers does not apply to the bilinear kernel")],
    ids=["stein-b2", "wbp-b2", "stein-centers", "report-centers"])
def test_keys_the_kernel_arity_ignores_exit_2_before_any_field(tmp_path, capsys, monkeypatch,
                                                               sub, body, message):
    # these used to run as if the key were absent (exit 0, an empty b2 column)
    _forbid_fields(monkeypatch)
    out = tmp_path / "out"
    assert run(sub, write_cfg(tmp_path, "k.cfg", body + "grid.n = 64\n"), out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,body", [("stein", "kernel.name = hilbert\ncenters =\n"),
                                      ("stein", "kernel.name = positive-control\ncenters =\n"),
                                      ("wbp", "kernel.name = hilbert\noffsets =\n"),
                                      ("wbp", "kernel.name = bilinear-homog\noffsets =\n")])
def test_empty_group_list_exit_2_before_any_file(tmp_path, capsys, sub, body):
    # an empty centre or offset list used to write a header-only CSV and the
    # summary line `slope=n/a constant=0 verdict: FAIL` (exit 1)
    p = write_cfg(tmp_path, "c.cfg", body + "grid.n = 64\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert "a sweep needs at least one group of rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel,key", [("hilbert", "lam"), ("positive-control", "mu"),
                                        ("bilinear-homog", "lam")])
def test_kernel_params_the_kernel_does_not_take_exit_2(tmp_path, capsys, kernel, key):
    # hilbert with kernel.params.lam = 0.5 used to run as if the key were absent
    p = write_cfg(tmp_path, "k.cfg", f"kernel.name = {kernel}\nkernel.params.{key} = 0.5\n")
    out = tmp_path / "out"
    assert run("wbp", p, out) == 2
    assert f"unknown {kernel} params ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["grid.box_side", "kernel.params.lam",
                                 "kernel.params.lip_bound", "kernel.params.lam_trunc",
                                 "kernel.params.mu", "kernel.params.a_amp",
                                 "kernel.params.m_amp", "policy.tol_pv", "fit.slope_tol",
                                 "fit.uniformity_factor", "para.N", "para.eps",
                                 "cube.center", "cube.side"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_float_key_exit_2(tmp_path, capsys, key, value):
    # a NaN tol_pv used to flag every row and exit 0, a NaN box side to fail
    # mid-computation without naming the key
    p = write_cfg(tmp_path, "nan.cfg", f"kernel.name = hilbert\n{key} = {value}\n")
    assert run("stein", p, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "summary.txt").exists()
    assert f"{key} must be a finite number" in capsys.readouterr().err


def test_stein_hilbert_exit_0(tmp_path):
    p = write_cfg(tmp_path, "h.cfg",
                  "kernel.name = hilbert\ngrid.n = 256\nfit.slope_tol = 0.05\n")
    out = tmp_path / "out"
    assert run("stein", p, out) == 0
    rows = (out / "stein-t1.csv").read_text().splitlines()
    # 7 scales x 3 centers plus the header
    assert len(rows) == 22
    assert rows[0].startswith("experiment,kernel,b0,b1,b2,M,")
    summary = (out / "summary.txt").read_text()
    assert "PASS" in summary


def test_stein_positive_control_exit_1(tmp_path):
    p = write_cfg(tmp_path, "pc.cfg", "kernel.name = positive-control\ngrid.n = 256\n")
    out = tmp_path / "out"
    assert run("stein", p, out) == 1
    assert (out / "stein-t1.csv").exists()   # files written despite FAIL


@pytest.mark.parametrize("body,expected,call,warning", [
    ("kernel.name = bilinear-homog\ngrid.n = 32\n",
     [("bilinear-tb-direct", "bilinear-homog"), ("bilinear-tb-transpose1", "bilinear-homog*1"),
      ("bilinear-tb-transpose2", "bilinear-homog*2")],
     lambda: stein_bilinear_tb_test(gallery("bilinear-homog"), *[builtin_b("one")] * 3,
                                    grid=GridSpec(n=32, box_side=8.0)).reports, None),
    ("kernel.name = cauchy-lipschitz\ngrid.n = 128\ncenters = 0\n"
     "b1 = accretive-lipschitz(0.3)\n",
     [("stein-tb-on-b1", "cauchy-lipschitz"), ("stein-tb-transpose", "cauchy-lipschitz*")],
     lambda: attrgetter("on_b1", "transpose_on_b0")(stein_tb_test(
         gallery("cauchy-lipschitz"), builtin_b("one"), builtin_b("accretive-lipschitz(0.3)"),
         center_fracs=(0.0,), grid=GridSpec(n=128))),
     "'accretive-lipschitz\\(0.3\\)' carries no para-accretivity certificate")],
    ids=["bilinear", "tb"])
def test_stein_bilinear_and_tb_branches(tmp_path, body, expected, call, warning):
    # a bilinear kernel, or a b other than one, writes one CSV and one summary
    # line per report of the library sweep with the config's grid and b's
    out = tmp_path / "out"
    rc = run("stein", write_cfg(tmp_path, "s.cfg", body), out)
    with pytest.warns(UserWarning, match=warning) if warning else nullcontext():
        reports = list(call())
    assert [(r.experiment, r.kernel) for r in reports] == expected
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.csv" for name, _ in expected] + ["summary.txt"])
    for r in reports:
        with open(out / f"{r.experiment}.csv", newline="") as fh:
            assert list(csv.reader(fh)) == r.csv_rows()
    lines = (out / "summary.txt").read_text().splitlines()
    assert [ln.split(" slope=")[0] for ln in lines] == [f"{e} [{k}]" for e, k in expected]
    assert [ln.split("verdict: ")[1] for ln in lines] == [r.verdict for r in reports]
    assert {r.verdict for r in reports} == {"PASS"} and rc == 0


@pytest.mark.parametrize("sub", ["stein", "wbp", "report"])
def test_fitted_sweeps_reject_short_scales(tmp_path, capsys, monkeypatch, sub):
    # four scales leave no group with a fit; stein used to exit 0 with
    # PASS-degenerate on the kernel built to fail
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the config was rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    monkeypatch.setattr("tblab.harness.plans", no_field)
    p = write_cfg(tmp_path, "s.cfg", "kernel.name = positive-control\ngrid.n = 256\n"
                                     "scales = 0.5,1,2,4\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert "scales" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,kernel,scales", [
    ("far-field", "hilbert", "4,-8"),
    ("bilinear-decomp", "bilinear-homog", "-1,2"),
    ("bilinear-decomp", "bilinear-homog", ""),
    ("sweep-bmo", "hilbert", "2,-4"),
    ("sweep-bmo", "hilbert", ""),
    ("stein", "positive-control", "-1,0.5,1,2,4"),
    ("stein", "hilbert", "0.25,0.5,1,2,-4"),
    ("wbp", "bilinear-homog", "0.5,1,2,4,nan"),
    ("report", "hilbert", "0.5,1,2,4,inf"),
])
def test_bad_scales_exit_2_before_any_file(tmp_path, capsys, monkeypatch, sub, kernel,
                                           scales):
    # these used to pass with a verdict, write a negative-R row, or fail deep
    # inside the computation (an empty max(), LAPACK, a negative cube side)
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the scales were rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    monkeypatch.setattr("tblab.harness.plans", no_field)
    p = write_cfg(tmp_path, "s.cfg", f"kernel.name = {kernel}\ngrid.n = 64\n"
                                     f"scales = {scales}\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert "scales" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,key,value", [("wbp", "offsets", "1,nan"),
                                           ("stein", "centers", "0,nan"),
                                           ("stein", "centers", "inf")])
def test_nonfinite_list_key_exit_2_before_any_file(tmp_path, capsys, monkeypatch, sub, key,
                                                   value):
    # these used to compute every row and then die formatting a NaN cell,
    # naming no key
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the config was rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    monkeypatch.setattr("tblab.harness.plans", no_field)
    p = write_cfg(tmp_path, "s.cfg", f"kernel.name = hilbert\ngrid.n = 64\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert f"{key} must be comma-separated finite numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_check_kernel_writes_certificates(tmp_path, name):
    p = write_cfg(tmp_path, "k.cfg", f"kernel.name = {name}\n")
    out = tmp_path / "out"
    assert run("check-kernel", p, out) == 0
    assert "verdict: PASS" in (out / "summary.txt").read_text()
    lines = (out / "kernel_checks.csv").read_text().splitlines()
    assert lines[0] == "kernel,condition,delta,constant,samples,seed"
    assert len(lines) == 3


def test_check_kernel_fails_an_understated_claim(tmp_path, monkeypatch):
    def halved(name, **params):
        K = gallery(name, **params)
        return replace(K, size_constant=K.size_constant / 2.0)

    # bilinear-homog measures 0.99999996 against its claim of 1.0
    p = write_cfg(tmp_path, "k.cfg", "kernel.name = bilinear-homog\n")
    assert run("check-kernel", p, tmp_path / "ok") == 0
    assert "(claimed 1)" in (tmp_path / "ok" / "summary.txt").read_text()
    monkeypatch.setattr("tblab.cli.gallery", halved)
    assert run("check-kernel", p, tmp_path / "half") == 1
    assert "verdict: FAIL" in (tmp_path / "half" / "summary.txt").read_text()


def test_bmo_subcommand(tmp_path):
    p = write_cfg(tmp_path, "b.cfg",
                  "b1 = sign-sin\ngrid.n = 256\ngrid.box_side = 2\nbmo.k_max = 3\n")
    out = tmp_path / "out"
    assert run("bmo", p, out) == 0
    assert (out / "bmo_report.csv").exists()



def test_bmo_summary_reports_skipped_cubes(tmp_path):
    # generation 5 of a 64-cell grid on [-1, 1] has 2-cell cubes: below MIN_CELLS
    p = write_cfg(tmp_path, "b.cfg",
                  "b1 = sign-sin\ngrid.n = 64\ngrid.box_side = 2\nbmo.k_max = 5\n")
    out = tmp_path / "out"
    assert run("bmo", p, out) == 0
    g = make_grid(1, cube1(0.0, 2.0), 64)
    rep = bmo_seminorm(builtin_b("sign-sin").sampled(g), dyadic_family(g.box, 0, 5))
    assert rep.n_skipped > 0
    line = (out / "summary.txt").read_text().splitlines()[0]
    assert line.endswith(f"cubes {len(rep.entries)}, skipped {rep.n_skipped} with < 4 cells")

def test_para_subcommand(tmp_path):
    p = write_cfg(tmp_path, "p.cfg",
                  "b1 = one\ngrid.n = 512\ngrid.box_side = 8\n")
    out = tmp_path / "out"
    assert run("para-accretive", p, out) == 0
    text = (out / "summary.txt").read_text()
    assert "c0=1" in text


@pytest.mark.parametrize("body,divisor", [("grid.n = 100\n", 128),
                                          ("grid.n = 384\nbmo.k_max = 8\n", 256)])
def test_para_grid_the_generations_cannot_tile_exit_2_before_any_scan(
        tmp_path, capsys, monkeypatch, body, divisor):
    # grid.n = 100 used to fail mid-scan on a cube "not aligned with grid cells"
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started before the config was rejected")

    monkeypatch.setattr("tblab.cli.check_para_accretive", no_scan)
    p = write_cfg(tmp_path, "p.cfg", "b1 = accretive-lipschitz(0.3)\ngrid.box_side = 8\n" + body)
    out = tmp_path / "out"
    assert run("para-accretive", p, out) == 2
    assert f"grid.n must be a multiple of {divisor}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("para.eps", "-1"), ("para.eps", "0"),
                                       ("para.N", "5"), ("para.J", "-1"),
                                       ("fit.slope_tol", "-1"),
                                       ("fit.uniformity_factor", "0.5")])
def test_para_ranges_exit_2_before_any_scan(tmp_path, capsys, monkeypatch, key, value):
    # para.eps = -1 used to certify a vacuous condition (B) and exit 0
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan started before the config was rejected")

    monkeypatch.setattr("tblab.cli.check_para_accretive", no_scan)
    monkeypatch.setattr("tblab.cli.check_condition_B", no_scan)
    p = write_cfg(tmp_path, "p.cfg", f"b1 = one\ngrid.n = 512\ngrid.box_side = 8\n"
                                     f"{key} = {value}\n")
    out = tmp_path / "out"
    assert run("para-accretive", p, out) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_uk_build_subcommand(tmp_path):
    p = write_cfg(tmp_path, "u.cfg", "b1 = one\nuk.k = 1\n")
    out = tmp_path / "out"
    assert run("uk-build", p, out) == 0
    lines = (out / "uk_report.csv").read_text().splitlines()
    assert lines[0].startswith("x,witness_center")


def test_wbp_subcommand(tmp_path):
    p = write_cfg(tmp_path, "w.cfg", "kernel.name = hilbert\ngrid.n = 256\n")
    out = tmp_path / "out"
    assert run("wbp", p, out) == 0
    assert (out / "wbp.csv").exists()


def test_wbp_bilinear_default_scales(tmp_path):
    # without `scales` the CLI sweeps a bilinear kernel over BILINEAR_SCALES,
    # not the library's seven linear scales
    p = write_cfg(tmp_path, "wb.cfg", "kernel.name = bilinear-homog\ngrid.n = 32\n")
    out = tmp_path / "out"
    assert run("wbp", p, out) in (0, 1)
    with open(out / "wbp.csv", newline="") as fh:
        sections = Counter(row["section"] for row in csv.DictReader(fh))
    assert sections == {"offset0": 5, "offset1": 5, "offset4": 5}


def test_sweep_bmo_subcommand(tmp_path):
    p = write_cfg(tmp_path, "s.cfg",
                  "kernel.name = hilbert\ngrid.n = 256\ngrid.box_side = 16\n"
                  "scales = 1,2,4\n")
    out = tmp_path / "out"
    assert run("sweep-bmo", p, out) == 0


def test_certificates_build_no_cube_per_scanned_cube(tmp_path, monkeypatch):
    # the generation passes keep their results as arrays: a run builds a few
    # Cube objects (the grid box, the conversion's pair), not one per scanned
    # cube, of which each of these runs scans over a hundred
    built = []
    post_init = Cube.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Cube, "__post_init__", counting)
    for sub, body in (("bmo", "b1 = sign-sin\ngrid.n = 512\ngrid.box_side = 16\n"
                              "bmo.k_max = 4\n"),
                      ("para-accretive", "b1 = sign-sin\ngrid.n = 512\ngrid.box_side = 16\n"
                                         "bmo.k_max = 7\npara.eps = 0.9\n"),
                      ("para-accretive", "b1 = one\ngrid.n = 512\ngrid.box_side = 8\n"
                                         "bmo.k_max = 7\n"),
                      ("sweep-bmo", "kernel.name = hilbert\ngrid.n = 128\n"
                                    "grid.box_side = 16\nscales = 2,4\n")):
        built.clear()
        p = write_cfg(tmp_path, f"{sub}.cfg", body)
        assert run(sub, p, tmp_path / f"out-{sub}-{len(body)}") == 0
        assert 0 < len(built) <= 8, (sub, len(built))


def test_far_field_subcommand(tmp_path):
    p = write_cfg(tmp_path, "ff.cfg",
                  "kernel.name = hilbert\ngrid.n = 512\ngrid.box_side = 64\n")
    out = tmp_path / "out"
    assert run("far-field", p, out) == 0


@pytest.mark.parametrize("sub,key,value,message", [
    ("far-field", "cube.center", "100", "grid box must contain 8Q"),
    ("far-field", "cube.side", "0.1", "holds no cell of the grid on [-32, 32]"),
    ("bilinear-decomp", "cube.center", "100", "grid box must contain 8Q"),
    ("bilinear-decomp", "cube.side", "0.1", "holds no cell of the grid on [-32, 32]")])
def test_cube_without_a_grid_cell_exit_2_before_any_plan(tmp_path, capsys, monkeypatch,
                                                         sub, key, value, message):
    # these used to build the plan and every field, then exit 2 with numpy's
    # "zero-size array to reduction operation maximum which has no identity"
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built before the cube was rejected")

    monkeypatch.setattr("tblab.harness.plans", no_plan)
    kernel = "hilbert" if sub == "far-field" else "bilinear-homog"
    p = write_cfg(tmp_path, "c.cfg", f"kernel.name = {kernel}\ngrid.n = 256\n"
                                     f"grid.box_side = 64\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bilinear_decomp_subcommand(tmp_path):
    p = write_cfg(tmp_path, "bd.cfg",
                  "kernel.name = bilinear-homog\ngrid.n = 256\ngrid.box_side = 64\n")
    out = tmp_path / "out"
    assert run("bilinear-decomp", p, out) == 0


def test_report_emits_svg(tmp_path):
    p = write_cfg(tmp_path, "r.cfg", "kernel.name = hilbert\ngrid.n = 256\n")
    out = tmp_path / "out"
    assert run("report", p, out) == 0
    assert (out / "stein-t1.svg").exists()
    svg = (out / "stein-t1.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg
    # summary.txt holds every stein line, then the wbp line, and the exit code
    # is the worse of the two; at equal centers cauchy-lipschitz passes stein
    # and fails wbp (stein reads centers but not offsets, wbp the other way round)
    body = "kernel.name = cauchy-lipschitz\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n"
    keys = {"stein": "centers = 0\n", "wbp": "offsets = 0\n",
            "report": "centers = 0\noffsets = 0\n"}
    for cfgs, expected in (({sub: p for sub in keys}, 0),
                           ({sub: write_cfg(tmp_path, f"m-{sub}.cfg", body + extra)
                             for sub, extra in keys.items()}, 1)):
        rcs, lines = {}, {}
        for sub in ("stein", "wbp", "report"):
            d = tmp_path / f"{cfgs[sub].stem}-{sub}"
            rcs[sub] = run(sub, cfgs[sub], d)
            lines[sub] = (d / "summary.txt").read_text().splitlines()
        assert rcs["report"] == max(rcs["stein"], rcs["wbp"]) == expected
        assert lines["report"] == lines["stein"] + lines["wbp"]


def test_ingest_builtins():
    assert ingest_b("one").name == "one"
    assert ingest_b("accretive-lipschitz(0.3)").name == "accretive-lipschitz(0.3)"
    g = make_grid(1, cube1(0.0, 8.0), 64)
    vals = ingest_b("exp-ix").sampled(g).values
    np.testing.assert_allclose(vals, np.exp(1j * g.axis(0)), rtol=1e-12)


def test_ingest_csv_round_trip(tmp_path):
    g = make_grid(1, cube1(0.0, 8.0), 64)
    f = sample(lambda x: np.cos(x) + 1j * x, g)
    path = tmp_path / "b.csv"
    save_sampled_csv(f, path)
    b = ingest_b(str(path))
    got = b.sampled(g)
    np.testing.assert_array_equal(got.values, f.values)
    other = make_grid(1, cube1(0.0, 8.0), 128)
    with pytest.raises(ValueError, match="grid"):
        b.sampled(other)


def test_csv_b_runs_bmo_on_its_own_grid(tmp_path):
    g = make_grid(1, cube1(0.0, 2.0), 256)
    path = tmp_path / "b.csv"
    save_sampled_csv(builtin_b("sign-sin").sampled(g), path)
    body = f"b1 = {path}\ngrid.box_side = 2\nbmo.k_max = 3\n"
    out = tmp_path / "out"
    assert run("bmo", write_cfg(tmp_path, "b.cfg", body + "grid.n = 256\n"), out) == 0
    assert (out / "bmo_report.csv").exists()
    # the samples carry no closed form, so any other grid is refused
    assert run("bmo", write_cfg(tmp_path, "c.cfg", body + "grid.n = 128\n"),
               tmp_path / "other") == 2


@pytest.mark.parametrize("sub,n", [("bmo", 100), ("para-accretive", 384)])
def test_csv_b_runs_on_the_grid_it_was_saved_from(tmp_path, capsys, sub, n):
    # box 8 at these n: the grid load_sampled_csv rebuilds from the rounded cell
    # centres has a side off by ~1e-14 and used to be refused as another grid
    # (n = 100 holds no generation-7 cube, so condition (B) runs at n = 384)
    g = Grid(cube1(0.0, 8.0), n)
    path = tmp_path / "b.csv"
    save_sampled_csv(builtin_b("accretive-lipschitz(0.3)").sampled(g), path)
    assert load_sampled_csv(path).grid != g

    def cfg(name, n, side):
        return write_cfg(tmp_path, name, f"b1 = {path}\ngrid.n = {n}\ngrid.box_side = {side}\n")

    assert run(sub, cfg("a.cfg", n, 8), tmp_path / "a") == 0
    capsys.readouterr()
    for name, other_n, side in (("b.cfg", 2 * n, 8), ("c.cfg", n, 8.5)):
        assert run(sub, cfg(name, other_n, side), tmp_path / name) == 2
        assert "can only be used on its own grid" in capsys.readouterr().err


def test_ingest_unknown():
    with pytest.raises(ConfigError):
        ingest_b("no-such-b")


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "tblab.cli", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("sub,cfg_body,csvs", [
    ("stein", "kernel.name = hilbert\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n",
     ["stein-t1.csv"]),
    ("stein", "kernel.name = bilinear-homog\ngrid.n = 64\nscales = 0.5,1,2,4,8\n",
     ["bilinear-tb-direct.csv", "bilinear-tb-transpose1.csv",
      "bilinear-tb-transpose2.csv"]),
    ("wbp", "kernel.name = hilbert\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n",
     ["wbp.csv"]),
    ("check-kernel", "kernel.name = cauchy-lipschitz\n", ["kernel_checks.csv"]),
    # fixed grid: the plans of T and T* are shared by every row
    ("stein", "kernel.name = commutator\ngrid.n = 256\ngrid.box_side = 24\n",
     ["stein-t1.csv"]),
    # one point plan shared by the split fields of every R
    ("far-field", "kernel.name = hilbert\ngrid.n = 1024\ngrid.box_side = 64\n",
     ["far_field.csv"]),
    ("para-accretive", "b1 = sign-sin\ngrid.n = 512\ngrid.box_side = 8\n",
     ["para_certificate.csv"]),
    ("sweep-bmo", "kernel.name = hilbert\ngrid.n = 256\ngrid.box_side = 16\n"
                  "scales = 1,2,4\n", ["bmo_sweep.csv"]),
    # sum_defect is a roundoff-level column of the dense bilinear point sums
    ("bilinear-decomp", "kernel.name = bilinear-homog\ngrid.n = 256\ngrid.box_side = 64\n",
     ["bilinear_decomp.csv"]),
])
def test_byte_identical_output_across_repeated_runs(tmp_path, sub, cfg_body, csvs):
    # two runs of one config in fresh interpreters write the same bytes
    cfg = write_cfg(tmp_path, "t.cfg", cfg_body)
    blobs = []
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        r = _run_cli([sub, "--config", str(cfg), "--out", str(out)])
        assert r.returncode in (0, 1), r.stderr
        blobs.append([(out / c).read_bytes() for c in csvs])
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("sub", ["stein", "report"])
@pytest.mark.parametrize("b0,b1", [("exp-ix", "exp-ix"), ("sign-sin", "exp-ix")])
def test_uncertified_b_is_one_plain_note(tmp_path, capsys, sub, b0, b1):
    # a b without a certificate used to print a raw UserWarning and its source line
    body = (f"kernel.name = hilbert\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n"
            f"b0 = {b0}\nb1 = {b1}\n")
    assert run(sub, write_cfg(tmp_path, "s.cfg", body), tmp_path / "out") in (0, 1)
    assert capsys.readouterr().err.splitlines() == [
        f"note: b-function {b!r} carries no para-accretivity certificate"
        for b in dict.fromkeys((b0, b1))]


@pytest.mark.parametrize("sub,key,value", [
    ("wbp", "centers", "0.3"), ("stein", "offsets", "1"), ("check-kernel", "grid.n", "64"),
    ("bmo", "kernel.name", "hilbert"), ("para-accretive", "uk.k", "1"),
    ("uk-build", "bmo.k_max", "3"), ("sweep-bmo", "bmo.k_max", "3"),
    ("far-field", "b2", "sign-sin"), ("bilinear-decomp", "offsets", "1"),
    ("report", "seed", "7")])
def test_key_a_subcommand_does_not_read_exit_2_before_any_field(tmp_path, capsys, monkeypatch,
                                                                sub, key, value):
    # wbp with centers = 0.3 and stein with offsets = 1 used to run on their
    # defaults and exit 0, as if the key were absent
    _forbid_fields(monkeypatch)
    body = "" if key == "kernel.name" or sub in ("bmo", "para-accretive", "uk-build") else \
        "kernel.name = hilbert\n"
    out = tmp_path / "out"
    assert run(sub, write_cfg(tmp_path, "k.cfg", f"{body}{key} = {value}\n"), out) == 2
    assert f"{sub} does not read {key!r}" in capsys.readouterr().err
    assert not out.exists()


def _benchmark_cli_items(monkeypatch) -> list:
    """The CLI items of every benchmark workload, as perfbench/workloads.py builds them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [item for w in workloads.WORKLOADS for item in workloads.build(w, 1)
            if isinstance(item, workloads.CliItem)]


def test_every_benchmark_config_reads_only_its_keys(monkeypatch):
    # each CLI item of the benchmark and its set-up override stay accepted
    items = _benchmark_cli_items(monkeypatch)
    assert items
    for item in items:
        for cfg in (item.cfg, dict(item.cfg, **item.tiny)):
            assert set(cfg) <= set(cli._READS[item.sub]), (item.name, cfg)


def _grids_planned(monkeypatch, cfg):
    """The row grids a report run plans on, once per plans() call, and the
    profile tables and treecode geometries it makes."""
    grids, made = [], []

    def counting_plans(kernels, g, policy, points, _f=harness.plans):
        grids.append(g)
        return _f(kernels, g, policy, points)
    monkeypatch.setattr(harness, "plans", counting_plans)
    for target in ("_profile", "_treecode_geometry"):
        def counting(*args, _f=getattr(quadrature, target)):
            made.append(args[0])
            return _f(*args)
        monkeypatch.setattr(quadrature, target, counting)
    assert run("report", cfg, cfg.parent / f"{cfg.stem}-out") in (0, 1)
    return grids, made


@pytest.mark.parametrize("kernel", ["hilbert", "cauchy-lipschitz"])
@pytest.mark.parametrize("body,n_grids", [
    ("", 7),
    ("grid.n = 768\ncenters = 0\noffsets = {offset}\nscales = 0.25,0.5,1,2,4\n{bs}", 5)],
    ids=["default", "benchmark"])
def test_report_plans_each_row_grid_once(tmp_path, monkeypatch, kernel, body, n_grids):
    # the Stein rows of T, T* and the wbp rows of T share one plans() call per
    # row grid: one profile table or treecode geometry per grid, 7 and not 21
    # at the default config
    bs = "b0 = accretive-lipschitz(0.3)\nb1 = accretive-lipschitz(0.3)\n"
    body = body.format(offset=1 if kernel == "hilbert" else 0,
                       bs=bs if kernel == "cauchy-lipschitz" else "")
    cfg = write_cfg(tmp_path, "r.cfg", f"kernel.name = {kernel}\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grids, made = _grids_planned(monkeypatch, cfg)
    assert len(grids) == len(set(grids)) == n_grids
    assert len(made) == n_grids


@pytest.mark.parametrize("name,applies", [
    # the Stein row's T(b1 phi) at centre 0 is T*(b0 phi) up to the sign and
    # the wbp row's T input: one application per row grid, where 3 were
    ("report.hilbert", 5), ("report.cauchy-lipschitz", 5), ("report.positive-control", 5),
    # 7 scales x 3 centres of Stein rows; every wbp row reuses a centre-0 field
    ("default-hilbert", 21)])
def test_report_applies_each_distinct_field_once(tmp_path, monkeypatch, name, applies):
    items = {item.name: item for item in _benchmark_cli_items(monkeypatch)}
    cfg = items[name].cfg if name in items else {"kernel.name": "hilbert"}
    applied = []

    def counting(self, *fs, _f=quadrature.Plan.__call__):
        applied.append(self.kernel.name)
        return _f(self, *fs)
    monkeypatch.setattr(quadrature.Plan, "__call__", counting)
    p = write_cfg(tmp_path, "r.cfg", "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("report", p, tmp_path / "out") in (0, 1)
    assert applied == [cfg["kernel.name"]] * applies


@pytest.mark.parametrize("sub,body,match", [
    ("stein", "scales = 0.25,0.5,1,1,2\n", "scale 1 is repeated"),
    ("report", "scales = 0.25,0.5,1,2,4,0.5\n", "scale 0.5 is repeated"),
    ("stein", "centers = 0,0\n", "section '' at centre 0 is repeated"),
    ("wbp", "offsets = 1,1\n", "section 'offset1' at centre 1 is repeated")])
def test_repeated_scales_and_groups_exit_2_before_any_file(tmp_path, capsys, monkeypatch,
                                                           sub, body, match):
    # these used to exit 0 with PASS, fitting duplicated rows as distinct points
    _forbid_fields(monkeypatch)
    p = write_cfg(tmp_path, "r.cfg", f"kernel.name = hilbert\ngrid.n = 128\n{body}")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body,oracle", [
    ("kernel.name = cauchy-lipschitz\nb0 = accretive-lipschitz(0.3)\n"
     "b1 = accretive-lipschitz(0.3)\ngrid.n = 128\ncenters = 0\noffsets = 0\n"
     "scales = 0.25,0.5,1,2,4\n",
     lambda K, b, one, scales: [
         *attrgetter("on_b1", "transpose_on_b0")(stein_tb_test(
             K, b, b, scales=scales, center_fracs=(0.0,), grid=GridSpec(n=128))),
         weak_boundedness_test(K, b, b, one, scales=scales, offsets=(0.0,),
                               grid=GridSpec(n=128))]),
    ("kernel.name = bilinear-homog\nb1 = accretive-lipschitz(0.3)\ngrid.n = 32\n",
     lambda K, b, one, scales: [
         *stein_bilinear_tb_test(K, one, b, one, grid=GridSpec(n=32, box_side=8.0)).reports,
         weak_boundedness_test(K, one, b, one, grid=GridSpec(n=32, box_side=8.0))])],
    ids=["tb-cauchy-lipschitz", "bilinear"])
def test_report_writes_the_bytes_of_stein_then_wbp(tmp_path, capsys, body, oracle):
    # one sweep of the Stein and wbp parts against the two sweeps it replaced,
    # stein then wbp, emitted as report emits them
    out = tmp_path / "out"
    rc = run("report", write_cfg(tmp_path, "r.cfg", body), out)
    notes = capsys.readouterr().err.splitlines()
    K = gallery(body.split("\n")[0].split(" = ")[1])
    b, one = builtin_b("accretive-lipschitz(0.3)"), builtin_b("one")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = oracle(K, b, one, (0.25, 0.5, 1.0, 2.0, 4.0))
    assert rc == cli._emit(tmp_path / "oracle", reports, svg=True)
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "oracle").iterdir()}
    assert len(written) == 2 * len(reports) + 1
    # the uncertified b of a linear T(b) is one note, as before
    assert notes == (["note: b-function 'accretive-lipschitz(0.3)' carries no "
                      "para-accretivity certificate"] if K.arity == "linear" else [])


def _uniformity(vals, factor=2.0):
    if max(vals) == 0:
        return "PASS-degenerate"
    return "PASS" if min(vals) > 0 and max(vals) / min(vals) <= factor else "FAIL"


def _fitted(rows):
    """The verdict of stein's per-centre fits against R^(1/2), from its CSV rows."""
    fits = [exponent_fit([(float(r["R"]), float(r["value"])) for r in rows if r["x0"] == x0],
                         float(rows[0]["target_exp"]), section="", center=float(x0))
            for x0 in dict.fromkeys(r["x0"] for r in rows)]
    if all(f.degenerate for f in fits):
        return "PASS-degenerate"
    return "PASS" if all(f.passed for f in fits) else "FAIL"


def _decomposed(rows):
    caps = all(max(float(r[c]) for c in ("avg_I", "dev_II", "dev_III", "dev_IV")) <= 1.0
               for r in rows)
    return "PASS" if caps and all(r["sum_ok"] == "1" for r in rows) else "FAIL"


@pytest.mark.parametrize("sub,body,file,header,verdict_of", [
    ("stein", "kernel.name = hilbert\ngrid.n = 256\n", "stein-t1.csv",
     "experiment,kernel,b0,b1,b2,M,section,x0,R,value,target_exp,fitted_slope,constant,"
     "pv_flag,margin_flag,verdict", _fitted),
    ("stein", "kernel.name = positive-control\ngrid.n = 256\n", "stein-t1.csv",
     "experiment,kernel,b0,b1,b2,M,section,x0,R,value,target_exp,fitted_slope,constant,"
     "pv_flag,margin_flag,verdict", _fitted),
    ("sweep-bmo", "kernel.name = hilbert\ngrid.n = 256\ngrid.box_side = 16\nscales = 1,2,4\n",
     "bmo_sweep.csv", "R,bmo,pv_flag", lambda rows: _uniformity([float(r["bmo"]) for r in rows])),
    ("sweep-bmo", "kernel.name = positive-control\ngrid.n = 256\ngrid.box_side = 16\n"
                  "scales = 1,2,4\n",
     "bmo_sweep.csv", "R,bmo,pv_flag", lambda rows: _uniformity([float(r["bmo"]) for r in rows])),
    ("far-field", "kernel.name = hilbert\ngrid.n = 512\ngrid.box_side = 64\n",
     "far_field.csv", "R,sup_dev,c_re,c_im,split_defect",
     lambda rows: _uniformity([float(r["sup_dev"]) for r in rows])),
    ("far-field", "kernel.name = cauchy-lipschitz\nb1 = accretive-lipschitz(0.3)\n"
                  "grid.n = 512\ngrid.box_side = 48\ncube.center = 0.5\ncube.side = 0.5\n"
                  "scales = 2,4,8\n",
     "far_field.csv", "R,sup_dev,c_re,c_im,split_defect",
     lambda rows: _uniformity([float(r["sup_dev"]) for r in rows])),
    ("bilinear-decomp", "kernel.name = bilinear-homog\ngrid.n = 256\ngrid.box_side = 64\n",
     "bilinear_decomp.csv", "R,avg_I,dev_II,dev_III,dev_IV,sum_defect,sum_ok", _decomposed),
], ids=["stein", "stein-fail", "sweep-bmo", "sweep-bmo-fail", "far-field", "far-field-fail",
        "bilinear-decomp"])
def test_summary_verdicts_reconstructible(tmp_path, sub, body, file, header, verdict_of):
    # the CSV's columns are pinned, and its rows alone give summary.txt's verdict
    out = tmp_path / "out"
    rc = run(sub, write_cfg(tmp_path, "h.cfg", body), out)
    lines = (out / file).read_text().splitlines()
    assert lines[0] == header
    with open(out / file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdict = verdict_of(rows)
    if "verdict" in rows[0]:
        assert {r["verdict"] for r in rows} == {verdict}
    assert (out / "summary.txt").read_text().splitlines()[-1].endswith(f"verdict: {verdict}")
    assert rc == (0 if verdict.startswith("PASS") else 1)

import csv
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from tblab.bmo import bmo_seminorm
from tblab.cli import ConfigError, ExperimentConfig, ingest_b, run
from tblab.grid import cube1, dyadic_family, make_grid, sample, save_sampled_csv
from tblab.harness import builtin_b
from tblab.kernels import gallery


def write_cfg(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return p


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
    assert cfg.get_int("grid.n", 512) == 512
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


@pytest.mark.parametrize("sub", ["stein", "wbp", "report"])
def test_fitted_sweeps_reject_short_scales(tmp_path, capsys, monkeypatch, sub):
    # four scales leave no group with a fit; stein used to exit 0 with
    # PASS-degenerate on the kernel built to fail
    def no_field(*args, **kwargs):
        raise AssertionError("a field was computed before the config was rejected")

    monkeypatch.setattr("tblab.harness.apply_linear_field", no_field)
    p = write_cfg(tmp_path, "s.cfg", "kernel.name = positive-control\ngrid.n = 256\n"
                                     "scales = 0.5,1,2,4\n")
    out = tmp_path / "out"
    assert run(sub, p, out) == 2
    assert "scales" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_check_kernel_writes_certificates(tmp_path):
    p = write_cfg(tmp_path, "k.cfg", "kernel.name = hilbert\n")
    out = tmp_path / "out"
    assert run("check-kernel", p, out) == 0
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


def test_far_field_subcommand(tmp_path):
    p = write_cfg(tmp_path, "ff.cfg",
                  "kernel.name = hilbert\ngrid.n = 512\ngrid.box_side = 64\n")
    out = tmp_path / "out"
    assert run("far-field", p, out) == 0


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
    # and fails wbp
    mixed = write_cfg(tmp_path, "m.cfg", "kernel.name = cauchy-lipschitz\ngrid.n = 128\n"
                                         "centers = 0\noffsets = 0\n"
                                         "scales = 0.25,0.5,1,2,4\n")
    for cfg, expected in ((p, 0), (mixed, 1)):
        rcs, lines = {}, {}
        for sub in ("stein", "wbp", "report"):
            d = tmp_path / f"{cfg.stem}-{sub}"
            rcs[sub] = run(sub, cfg, d)
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


def test_ingest_unknown():
    with pytest.raises(ConfigError):
        ingest_b("no-such-b")


def _run_cli(args, env):
    return subprocess.run([sys.executable, "-m", "tblab.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("sub,cfg_body,csvs", [
    ("stein", "kernel.name = hilbert\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n",
     ["stein-t1.csv"]),
    ("stein", "kernel.name = bilinear-homog\ngrid.n = 64\nscales = 0.5,1,2,4,8\n",
     ["bilinear-tb-direct.csv", "bilinear-tb-transpose1.csv",
      "bilinear-tb-transpose2.csv"]),
    ("wbp", "kernel.name = hilbert\ngrid.n = 128\nscales = 0.25,0.5,1,2,4\n",
     ["wbp.csv"]),
    ("check-kernel", "kernel.name = cauchy-lipschitz\n", ["kernel_checks.csv"]),
    ("para-accretive", "b1 = sign-sin\ngrid.n = 512\ngrid.box_side = 8\n",
     ["para_certificate.csv"]),
])
def test_byte_identical_output_across_thread_counts(tmp_path, sub, cfg_body, csvs):
    cfg = write_cfg(tmp_path, "t.cfg", cfg_body)
    blobs = {}
    for threads in ("1", "4"):
        env = dict(os.environ, TBLAB_THREADS=threads)
        out = tmp_path / f"out{threads}"
        r = _run_cli([sub, "--config", str(cfg), "--out", str(out)], env)
        assert r.returncode in (0, 1), r.stderr
        blobs[threads] = [(out / c).read_bytes() for c in csvs]
    assert blobs["1"] == blobs["4"]


def test_summary_verdicts_reconstructible(tmp_path):
    p = write_cfg(tmp_path, "h.cfg", "kernel.name = hilbert\ngrid.n = 256\n")
    out = tmp_path / "out"
    run("stein", p, out)
    csv_text = (out / "stein-t1.csv").read_text().splitlines()
    verdict_col = csv_text[0].split(",").index("verdict")
    verdicts = {row.split(",")[verdict_col] for row in csv_text[1:]}
    summary = (out / "summary.txt").read_text()
    assert all(v in summary for v in verdicts)

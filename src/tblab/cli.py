"""Config-driven experiment runner: `tblab <subcommand> --config <path>`.

Flat key=value config files, one experiment per file. Exit codes:
0 every verdict PASS; 1 at least one FAIL (files still written); 2 bad
configuration or runtime error. Every run is serial, and repeated runs of
one config write the same bytes.

Each subcommand runs its experiment and returns its reports (harness
ScalingReports or TableReports); one emitter writes their CSVs and
summaries. A config key that is not set leaves the library's default in
force, except for the defaults this module owns: the dyadic generations of
`bmo` (bmo.k_min 0, bmo.k_max 5) and `para-accretive` (bmo.k_max 3 for the
cube condition, at least 7 for condition (B)), uk.k 0 and the uk-build grid
(n=2048, box 8), b-functions `one` and output.dir `tblab-out`.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bmo import MIN_CELLS, bmo_seminorm
from .grid import Cube, Grid, SampledFunction, dyadic_family, load_sampled_csv
from .harness import (BILINEAR_GRID, BMO_SWEEP_GRID, DECOMP_CUBE,
                      DECOMP_GRID, FAR_FIELD_CUBE, FAR_FIELD_GRID, PASSING, BFunc, GridSpec,
                      TableReport, bilinear_decomposition_check, builtin_b,
                      far_field_constancy, stein_bilinear_tb_test, stein_t1_test,
                      stein_tb_test, uniform_bmo_sweep, weak_boundedness_test)
from .kernels import check_regularity, check_size, gallery
from .paraaccretive import (b_to_def3_constant, build_uk, check_condition_B,
                            check_para_accretive, verify_uk)
from .quadrature import PvPolicy
from .util import csv_table


def _finite(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


def _floats(text: str) -> tuple:
    return tuple(_finite(t) for t in text.split(",") if t.strip())


# every config key with the parser of its value
_KEYS = {
    "grid.n": int, "grid.box_side": _finite, "grid.mode": str,
    "bump.M": int, "kernel.name": str, "kernel.params.lam": _finite,
    "kernel.params.lip_bound": _finite, "kernel.params.lam_trunc": _finite,
    "kernel.params.mu": _finite, "kernel.params.a_amp": _finite, "kernel.params.m_amp": _finite,
    "b0": str, "b1": str, "b2": str, "scales": _floats, "centers": _floats,
    "offsets": _floats, "policy.c_eps": int, "policy.tol_pv": _finite, "fit.slope_tol": _finite,
    "fit.uniformity_factor": _finite, "bmo.k_min": int, "bmo.k_max": int, "para.J": int,
    "para.N": _finite, "para.eps": _finite, "uk.k": int, "cube.center": _finite,
    "cube.side": _finite, "seed": int, "output.dir": str,
}
_KINDS = {int: "an integer", _finite: "a finite number",
          _floats: "comma-separated finite numbers"}


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, path) -> "ExperimentConfig":
        raw = {}
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected key = value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _KEYS:
                raise ConfigError(f"line {ln}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {ln}: duplicate key {key!r}")
            raw[key] = val
        cfg = cls(raw=raw)
        cfg._validate()
        return cfg

    def _validate(self):
        for key in self.raw:
            self.get(key)
        mode = self.get("grid.mode", "")
        if mode and mode not in ("scaled", "fixed"):
            raise ConfigError(f"grid.mode must be scaled|fixed, got {mode!r}")
        # the para-accretive scans' and the fits' ranges, checked before any field
        for key, low, strict in (("para.J", 0, False), ("para.N", 10, False),
                                 ("para.eps", 0, True), ("fit.slope_tol", 0, False),
                                 ("fit.uniformity_factor", 1, False)):
            v = self.get(key)
            if v is not None and (v <= low if strict else v < low):
                raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, "
                                  f"got {self.raw[key]!r}")

    def get(self, key, default=None):
        """The parsed value of `key`, or `default` when the config does not set it."""
        if key not in self.raw:
            return default
        parse = _KEYS[key]
        try:
            return parse(self.raw[key])
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {_KINDS[parse]}, got {self.raw[key]!r}")

    def given(self, **params) -> dict:
        """Keyword arguments for the params whose config key is set."""
        return {param: self.get(key) for param, key in params.items() if key in self.raw}

    # assembled objects -----------------------------------------------------

    def grid_spec(self, default: GridSpec = GridSpec()) -> GridSpec:
        return GridSpec(n=self.get("grid.n", default.n),
                        box_side=self.get("grid.box_side", default.box_side))

    def fixed_grid(self, default: GridSpec = GridSpec()) -> Grid:
        return self.grid_spec(default).row_grid("fixed", 1.0)

    def cube(self, default: Cube) -> Cube:
        return Cube((self.get("cube.center", default.center[0]),),
                    self.get("cube.side", default.side))

    def policy(self) -> PvPolicy:
        return PvPolicy(**self.given(c_eps="policy.c_eps", tol_pv="policy.tol_pv"))

    def fit_args(self) -> dict:
        """The bump order, scales and fit tolerances the config sets."""
        args = self.given(M="bump.M", scales="scales", slope_tol="fit.slope_tol",
                          uniformity_factor="fit.uniformity_factor")
        scales = args.get("scales")
        if scales is not None and len(scales) < 5:
            raise ConfigError(f"scales needs at least 5 values for an exponent fit, "
                              f"got {len(scales)}")
        return args

    def kernel(self):
        name = self.get("kernel.name")
        if not name:
            raise ConfigError("kernel.name is required for this experiment")
        params = {key.split(".", 2)[2]: self.get(key) for key in self.raw
                  if key.startswith("kernel.params.")}
        try:
            K = gallery(name, **params)
        except ValueError as e:
            raise ConfigError(str(e))
        mode = self.get("grid.mode")
        return replace(K, grid_mode=mode) if mode else K

    def b_func(self, slot: str) -> BFunc:
        return ingest_b(self.get(slot, "one"))

    def out_dir(self, override=None) -> Path:
        return Path(override or self.get("output.dir", "tblab-out"))


@dataclass(frozen=True)
class _CsvBFunc(BFunc):
    """A b-function ingested from CSV: samples without a closed form."""
    samples: SampledFunction = field(default=None, compare=False)

    def sampled(self, grid: Grid) -> SampledFunction:
        """The samples on grid, whose points must be the CSV's to load_sampled_csv's
        tolerance (1e-9 h): the CSV's grid is rebuilt from rounded cell centres."""
        own = self.samples.grid
        if (grid.d, grid.n) != (own.d, own.n) or not all(
                np.allclose(grid.axis(i), own.axis(i), rtol=0, atol=1e-9 * own.h)
                for i in range(grid.d)):
            raise ValueError(
                f"b-function {self.name!r} was ingested from CSV without a closed "
                f"form; it can only be used on its own grid")
        return replace(self.samples, grid=grid)


def ingest_b(spec: str) -> BFunc:
    """Builtin name or path to a grid-core CSV (fixed-grid use only)."""
    s = spec.strip()
    try:
        return builtin_b(s)
    except ValueError:
        pass
    p = Path(s)
    if not p.exists():
        raise ConfigError(f"b-function {s!r} is neither a builtin nor a CSV path")
    return _CsvBFunc(name=p.stem, rule=None, samples=load_sampled_csv(p, name=p.stem))


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _svg_plot(rows, target: float, title: str) -> str:
    """Minimal static log2-log2 scatter with the target-slope reference line."""
    pts = [(np.log2(r.R), np.log2(r.value)) for r in rows if r.value > 0]
    width, height, pad = 480, 320, 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{pad}" y="16" font-size="12">{title}</text>']
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1
        if y1 == y0:
            y1 = y0 + 1

        def sx(x):
            return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

        xm = (x0 + x1) / 2.0
        ym = (y0 + y1) / 2.0
        parts.append(f'<line x1="{sx(x0):.2f}" y1="{sy(ym + target * (x0 - xm)):.2f}" '
                     f'x2="{sx(x1):.2f}" y2="{sy(ym + target * (x1 - xm)):.2f}" '
                     f'stroke="#888" stroke-dasharray="4 3"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f77b4"/>')
        parts.append(f'<text x="{pad}" y="{height - 8}" font-size="10">'
                     f'log2 R from {x0:.3g} to {x1:.3g}; reference slope {target:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _emit(out: Path, reports, svg: bool = False) -> int:
    """Write each report's CSV (and with svg its log-log plot) and summary.txt;
    return the exit code.

    A report is a harness ScalingReport or TableReport. The directory is made
    here, so an experiment that fails leaves none behind.
    """
    out.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        _write_csv(out / rep.file, rep.csv_rows())
        if svg:
            (out / f"{rep.experiment}.svg").write_text(
                _svg_plot(rep.rows, rep.target, f"{rep.experiment} on {rep.kernel}"))
    (out / "summary.txt").write_text("".join(f"{rep.summary}\n" for rep in reports))
    return 0 if all(rep.verdict in PASSING for rep in reports) else 1


def _table(file: str, table, verdict: str, lines) -> TableReport:
    """The report of a CSV table formatted by csv_table, header first."""
    return TableReport(file, tuple(table[0]), table[1:], verdict, "\n".join(lines))


# --- experiments: each returns its reports ------------------------------------

def _check_kernel(cfg: ExperimentConfig):
    K = cfg.kernel()
    seed = cfg.given(seed="seed")
    size = check_size(K, **seed)
    reg = check_regularity(K, **seed)
    rows = csv_table(["kernel", "condition", "delta", "constant", "samples", "seed"],
                  ((c.kernel, c.condition, c.delta, c.constant, c.samples, c.seed)
                   for c in (size, reg)))
    verdict = "PASS" if size.constant <= K.size_constant * (1.0 + 1e-9) else "FAIL"
    return [_table("kernel_checks.csv", rows, verdict,
                   [f"check-kernel {K.name}: size constant {size.constant:.6g} "
                    f"(claimed {K.size_constant:.6g}), "
                    f"regularity constant {reg.constant:.6g} at delta={reg.delta}",
                    f"verdict: {verdict}"])]


def _bmo(cfg: ExperimentConfig):
    g = cfg.fixed_grid()
    b = cfg.b_func("b1")
    fam = dyadic_family(g.box, cfg.get("bmo.k_min", 0), cfg.get("bmo.k_max", 5))
    rep = bmo_seminorm(b.sampled(g), fam)
    verdict = "PASS" if rep.sandwich_ok else "FAIL"
    return [_table("bmo_report.csv", rep.csv_rows(), verdict,
                   [f"bmo {b.name}: sup mean-osc {rep.sup_mean:.6g}, "
                    f"sup best-const {rep.sup_best:.6g}, cubes {len(rep.entries)}, "
                    f"skipped {rep.n_skipped} with < {MIN_CELLS} cells",
                    f"sandwich best<=mean<=2best: {verdict}",
                    f"verdict: {verdict}"])]


def _para(cfg: ExperimentConfig):
    g = cfg.fixed_grid()
    k_max = cfg.get("bmo.k_max", 3)
    k_B = max(k_max, 7)
    # the scanned cubes' edges must be cell edges (sub-cube windows are rounded
    # to whole cells): generation k <= k_B tiles the n cells by 2^k
    if g.n % (1 << k_B):
        raise ConfigError(f"grid.n must be a multiple of {1 << k_B}, got {g.n}: the "
                          f"dyadic generations scanned go down to {k_B}")
    b = cfg.b_func("b1")
    f = b.sampled(g)
    fam = dyadic_family(g.box, cfg.get("bmo.k_min", 0), k_max)
    cert = check_para_accretive(f, fam, **cfg.given(J="para.J"))
    lines = [f"para-accretive {b.name}: c0={cert.c0:.6g} J={cert.J} "
             f"b_sup={cert.b_sup:.6g} c1={cert.c1:.6g}"]
    verdicts = ["PASS"]
    famB = dyadic_family(g.box, cfg.get("bmo.k_min", 0), k_B)
    certB = check_condition_B(f, famB, **cfg.given(N="para.N", eps="para.eps"))
    lines.append(f"condition-B(eps={certB.eps}, N={certB.N}): "
                 f"{'holds on all generations' if certB.valid else 'fails'}")
    if certB.valid:
        conv = b_to_def3_constant(certB, g.box, f)
        ok = conv.bound <= cert.c0 + 1e-12
        lines.append(f"converted bound eps/(20N)^d = {conv.bound:.6g} "
                     f"<= certified c0 {cert.c0:.6g}: {'PASS' if ok else 'FAIL'}")
        verdicts.append("PASS" if ok else "FAIL")
    verdict = "PASS" if all(v == "PASS" for v in verdicts) else "FAIL"
    lines.append(f"verdict: {verdict}")
    return [_table("para_certificate.csv", cert.csv_rows(), verdict, lines)]


def _uk_build(cfg: ExperimentConfig):
    g = cfg.fixed_grid(GridSpec(n=2048, box_side=8.0))
    b = cfg.b_func("b1")
    f = b.sampled(g)
    k = cfg.get("uk.k", 0)
    fam = build_uk(f, k, **cfg.given(J="para.J"))
    ver = verify_uk(fam, f)
    rows = csv_table(["x", "witness_center", "witness_side", "sup", "sup_bound", "lip",
                   "lip_bound", "pairing_abs", "pairing_lo", "pairing_hi",
                   "support_ok", "all_ok"],
                  ((c.x, W.center[0], W.side, c.sup, c.sup_bound, c.lip, c.lip_bound,
                    abs(c.pairing), c.pairing_lo, c.pairing_hi, c.support_ok, c.all_ok)
                   for c, W in zip(ver.checks, fam.witnesses)))
    verdict = "PASS" if ver.all_ok else "FAIL"
    return [_table("uk_report.csv", rows, verdict,
                   [f"uk-build {b.name} k={k}: h={fam.h_mol} alpha={fam.alpha:.6g} "
                    f"c0={fam.c0:.6g} lattice={len(fam.lattice)}",
                    f"all four kernel-family bounds: {verdict}",
                    f"verdict: {verdict}"])]


def _stein_reports(cfg: ExperimentConfig) -> list:
    K = cfg.kernel()
    args = dict(cfg.fit_args(), policy=cfg.policy())
    if K.arity == "bilinear":
        res = stein_bilinear_tb_test(K, cfg.b_func("b0"), cfg.b_func("b1"),
                                     cfg.b_func("b2"), grid=cfg.grid_spec(BILINEAR_GRID),
                                     **args)
        return list(res.reports)
    args.update(grid=cfg.grid_spec(), **cfg.given(center_fracs="centers"))
    b0, b1 = cfg.b_func("b0"), cfg.b_func("b1")
    if b0.name == "one" and b1.name == "one":
        return [stein_t1_test(K, **args)]
    res = stein_tb_test(K, b0, b1, **args)
    return [res.on_b1, res.transpose_on_b0]


def _wbp_report(cfg: ExperimentConfig):
    K = cfg.kernel()
    bilinear = K.arity == "bilinear"
    return weak_boundedness_test(K, cfg.b_func("b0"), cfg.b_func("b1"), cfg.b_func("b2"),
                                 grid=cfg.grid_spec(BILINEAR_GRID if bilinear else GridSpec()),
                                 policy=cfg.policy(),
                                 **cfg.given(offsets="offsets"), **cfg.fit_args())


def _sweep_args(cfg: ExperimentConfig, grid: GridSpec, **params) -> dict:
    """The grid (default `grid`), the policy, and the scales and params whose
    config keys are set, as keyword arguments of an R-sweep."""
    return dict(grid=cfg.grid_spec(grid), policy=cfg.policy(),
                **cfg.given(R_list="scales", **params))


_RUNNERS = {
    "check-kernel": _check_kernel,
    "bmo": _bmo,
    "para-accretive": _para,
    "uk-build": _uk_build,
    "stein": _stein_reports,
    "wbp": lambda cfg: [_wbp_report(cfg)],
    "sweep-bmo": lambda cfg: [uniform_bmo_sweep(
        cfg.kernel(), cfg.b_func("b1"),
        **_sweep_args(cfg, BMO_SWEEP_GRID, uniformity_factor="fit.uniformity_factor"))],
    "far-field": lambda cfg: [far_field_constancy(
        cfg.kernel(), cfg.b_func("b1"), Q=cfg.cube(FAR_FIELD_CUBE),
        **_sweep_args(cfg, FAR_FIELD_GRID, uniformity_factor="fit.uniformity_factor"))],
    "bilinear-decomp": lambda cfg: [bilinear_decomposition_check(
        cfg.kernel(), cfg.b_func("b1"), cfg.b_func("b2"), Q=cfg.cube(DECOMP_CUBE),
        **_sweep_args(cfg, DECOMP_GRID))],
    "report": lambda cfg: _stein_reports(cfg) + [_wbp_report(cfg)],
}

SUBCOMMANDS = tuple(_RUNNERS)


def run(subcommand: str, config_path, out_dir=None) -> int:
    """Programmatic entry point mirroring the CLI contract."""
    if subcommand not in _RUNNERS:
        print(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}",
              file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.parse(config_path)
        out = cfg.out_dir(out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    # a library warning that the warning filters let through (such as a
    # b-function without a certificate) is one plain note per message,
    # without Python's source line
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _emit(out, _RUNNERS[subcommand](cfg), svg=subcommand == "report")
        except (ConfigError, ValueError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        finally:
            for note in dict.fromkeys(str(w.message) for w in caught):
                print(f"note: {note}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tblab",
                                 description="scaling experiments for singular integrals")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ns = ap.parse_args(argv)
    return run(ns.subcommand, ns.config, ns.out)


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven experiment runner: `tblab <subcommand> --config <path>`.

Flat key=value config files, one experiment per file. Exit codes:
0 every verdict PASS; 1 at least one FAIL (files still written); 2 bad
configuration or runtime error. TBLAB_THREADS caps worker threads; the
output bytes do not depend on it.

Each subcommand runs its experiment and returns (files, summary lines,
verdicts); one emitter writes them. A config key that is not set leaves the
library's default in force, so no library default is restated here.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bmo import MIN_CELLS, bmo_seminorm
from .grid import Cube, Grid, SampledFunction, dyadic_family, load_sampled_csv
from .harness import (BILINEAR_GRID, BILINEAR_SCALES, BMO_SWEEP_GRID, DECOMP_CUBE,
                      DECOMP_GRID, FAR_FIELD_CUBE, FAR_FIELD_GRID, BFunc, GridSpec,
                      bilinear_decomposition_check, builtin_b, far_field_constancy,
                      stein_bilinear_tb_test, stein_t1_test, stein_tb_test,
                      uniform_bmo_sweep, weak_boundedness_test)
from .kernels import check_regularity, check_size, gallery
from .paraaccretive import (b_to_def3_constant, build_uk, check_condition_B,
                            check_para_accretive, verify_uk)
from .quadrature import PvPolicy
from .util import fmt_float

def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _flag(text: str) -> bool:
    return {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}[text.lower()]


# every config key with the parser of its value
_KEYS = {
    "dimension": int, "grid.n": int, "grid.box_side": float, "grid.mode": str,
    "bump.M": int, "kernel.name": str, "kernel.params.lam": float,
    "kernel.params.lip_bound": float, "kernel.params.lam_trunc": float,
    "kernel.params.mu": float, "kernel.params.a_amp": float, "kernel.params.m_amp": float,
    "b0": str, "b1": str, "b2": str, "scales": _floats, "centers": _floats,
    "offsets": _floats, "policy.c_eps": int, "policy.tol_pv": float,
    "policy.convergence_check": _flag, "fit.slope_tol": float,
    "fit.uniformity_factor": float, "bmo.k_min": int, "bmo.k_max": int, "para.J": int,
    "para.N": float, "para.eps": float, "uk.k": int, "cube.center": float,
    "cube.side": float, "seed": int, "output.dir": str,
}
KNOWN_KEYS = set(_KEYS)
_KINDS = {int: "an integer", float: "a number", _floats: "comma-separated numbers",
          _flag: "a boolean"}


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
            if key not in KNOWN_KEYS:
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
        if self.get("dimension", 1) != 1:
            raise ConfigError("experiments run in dimension 1")
        mode = self.get("grid.mode", "")
        if mode and mode not in ("scaled", "fixed"):
            raise ConfigError(f"grid.mode must be scaled|fixed, got {mode!r}")

    def get(self, key, default=None):
        """The parsed value of `key`, or `default` when the config does not set it."""
        if key not in self.raw:
            return default
        parse = _KEYS[key]
        try:
            return parse(self.raw[key])
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {_KINDS[parse]}, got {self.raw[key]!r}")

    def get_int(self, key, default):
        return int(self.get(key, default))

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
        return PvPolicy(**self.given(c_eps="policy.c_eps", tol_pv="policy.tol_pv",
                                     convergence_check="policy.convergence_check"))

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
        d = Path(override or self.get("output.dir", "tblab-out"))
        d.mkdir(parents=True, exist_ok=True)
        return d


@dataclass(frozen=True)
class _CsvBFunc(BFunc):
    """A b-function ingested from CSV: samples without a closed form."""
    samples: SampledFunction = field(default=None, compare=False)

    def sampled(self, grid: Grid) -> SampledFunction:
        if grid != self.samples.grid:
            raise ValueError(
                f"b-function {self.name!r} was ingested from CSV without a closed "
                f"form; it can only be used on its own grid")
        return self.samples


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


def _table(header, rows) -> list:
    """CSV rows: the header, then the cells of each row. Numbers and flags are
    written by fmt_float, so a flag reads 1 or 0; None is an empty cell."""
    return [header] + [["" if v is None else v if isinstance(v, str) else fmt_float(v)
                        for v in row] for row in rows]


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


def _emit(out: Path, files: dict, lines, verdicts) -> int:
    """Write an experiment's files and summary.txt; return its exit code.

    A file's content is CSV rows, or text for an SVG plot.
    """
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content)
        else:
            _write_csv(out / name, content)
    (out / "summary.txt").write_text("".join(f"{ln}\n" for ln in lines))
    return 0 if all(v in ("PASS", "PASS-degenerate") for v in verdicts) else 1


# --- experiments: each returns (files, summary lines, verdicts) -------------

def _check_kernel(cfg: ExperimentConfig):
    K = cfg.kernel()
    seed = cfg.given(seed="seed")
    size = check_size(K, **seed)
    reg = check_regularity(K, **seed)
    rows = _table(["kernel", "condition", "delta", "constant", "samples", "seed"],
                  ((c.kernel, c.condition, c.delta, c.constant, c.samples, c.seed)
                   for c in (size, reg)))
    verdict = "PASS" if size.constant <= K.size_constant * (1.0 + 1e-9) else "FAIL"
    return ({"kernel_checks.csv": rows},
            [f"check-kernel {K.name}: size constant {size.constant:.6g} "
             f"(claimed {K.size_constant:.6g}), "
             f"regularity constant {reg.constant:.6g} at delta={reg.delta}",
             f"verdict: {verdict}"], [verdict])


def _bmo(cfg: ExperimentConfig):
    g = cfg.fixed_grid()
    b = cfg.b_func("b1")
    fam = dyadic_family(g.box, cfg.get("bmo.k_min", 0), cfg.get("bmo.k_max", 5))
    rep = bmo_seminorm(b.sampled(g), fam)
    verdict = "PASS" if rep.sandwich_ok else "FAIL"
    return ({"bmo_report.csv": rep.csv_rows()},
            [f"bmo {b.name}: sup mean-osc {rep.sup_mean:.6g}, "
             f"sup best-const {rep.sup_best:.6g}, cubes {len(rep.entries)}, "
             f"skipped {rep.n_skipped} with < {MIN_CELLS} cells",
             f"sandwich best<=mean<=2best: {verdict}",
             f"verdict: {verdict}"], [verdict])


def _para(cfg: ExperimentConfig):
    g = cfg.fixed_grid()
    b = cfg.b_func("b1")
    f = b.sampled(g)
    fam = dyadic_family(g.box, cfg.get("bmo.k_min", 0), cfg.get("bmo.k_max", 3))
    cert = check_para_accretive(f, fam, **cfg.given(J="para.J"))
    lines = [f"para-accretive {b.name}: c0={cert.c0:.6g} J={cert.J} "
             f"b_sup={cert.b_sup:.6g} c1={cert.c1:.6g}"]
    verdicts = ["PASS"]
    famB = dyadic_family(g.box, cfg.get("bmo.k_min", 0), max(cfg.get("bmo.k_max", 3), 7))
    certB = check_condition_B(f, famB, **cfg.given(N="para.N", eps="para.eps"))
    lines.append(f"condition-B(eps={certB.eps}, N={certB.N}): "
                 f"{'holds on all generations' if certB.valid else 'fails'}")
    if certB.valid:
        conv = b_to_def3_constant(certB, g.box, f)
        ok = conv.bound <= cert.c0 + 1e-12
        lines.append(f"converted bound eps/(20N)^d = {conv.bound:.6g} "
                     f"<= certified c0 {cert.c0:.6g}: {'PASS' if ok else 'FAIL'}")
        verdicts.append("PASS" if ok else "FAIL")
    lines.append(f"verdict: {'PASS' if all(v == 'PASS' for v in verdicts) else 'FAIL'}")
    return {"para_certificate.csv": cert.csv_rows()}, lines, verdicts


def _uk_build(cfg: ExperimentConfig):
    g = cfg.fixed_grid(GridSpec(n=2048, box_side=8.0))
    b = cfg.b_func("b1")
    f = b.sampled(g)
    k = cfg.get("uk.k", 0)
    fam = build_uk(f, k, **cfg.given(J="para.J"))
    ver = verify_uk(fam, f)
    rows = _table(["x", "witness_center", "witness_side", "sup", "sup_bound", "lip",
                   "lip_bound", "pairing_abs", "pairing_lo", "pairing_hi",
                   "support_ok", "all_ok"],
                  ((c.x, W.center[0], W.side, c.sup, c.sup_bound, c.lip, c.lip_bound,
                    abs(c.pairing), c.pairing_lo, c.pairing_hi, c.support_ok, c.all_ok)
                   for c, W in zip(ver.checks, fam.witnesses)))
    verdict = "PASS" if ver.all_ok else "FAIL"
    return ({"uk_report.csv": rows},
            [f"uk-build {b.name} k={k}: h={fam.h_mol} alpha={fam.alpha:.6g} "
             f"c0={fam.c0:.6g} lattice={len(fam.lattice)}",
             f"all four kernel-family bounds: {verdict}",
             f"verdict: {verdict}"], [verdict])


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
    args = cfg.fit_args()
    if K.arity == "bilinear":
        args.setdefault("scales", BILINEAR_SCALES)   # the library default is linear
    return weak_boundedness_test(K, cfg.b_func("b0"), cfg.b_func("b1"), cfg.b_func("b2"),
                                 grid=cfg.grid_spec(), policy=cfg.policy(),
                                 **cfg.given(offsets="offsets"), **args)


def _scaling(reports, svg: bool = False):
    """Files, summary lines and verdicts of scaling reports (stein, wbp, report)."""
    files, lines = {}, []
    for rep in reports:
        files[f"{rep.experiment}.csv"] = rep.csv_rows()
        if svg:
            files[f"{rep.experiment}.svg"] = _svg_plot(rep.rows, rep.target,
                                                       f"{rep.experiment} on {rep.kernel}")
        slope = "n/a" if rep.slope is None else f"{rep.slope:.4f}"
        constant = "" if rep.experiment == "wbp" else f" constant={rep.constant:.6g}"
        lines.append(f"{rep.experiment} [{rep.kernel}] slope={slope}{constant} "
                     f"verdict: {rep.verdict}")
    return files, lines, [rep.verdict for rep in reports]


def _sweep_bmo(cfg: ExperimentConfig):
    K = cfg.kernel()
    rep = uniform_bmo_sweep(K, cfg.b_func("b1"), grid=cfg.grid_spec(BMO_SWEEP_GRID),
                            policy=cfg.policy(),
                            **cfg.given(R_list="scales",
                                        uniformity_factor="fit.uniformity_factor"))
    rows = _table(["R", "bmo", "pv_flag"], ((r.R, r.bmo, r.pv_flagged) for r in rep.rows))
    return ({"bmo_sweep.csv": rows},
            [f"sweep-bmo [{K.name}] max/min={rep.ratio:.4f} verdict: {rep.verdict}"],
            [rep.verdict])


def _far_field(cfg: ExperimentConfig):
    K = cfg.kernel()
    Q = cfg.cube(FAR_FIELD_CUBE)
    rep = far_field_constancy(K, cfg.b_func("b1"), Q=Q, grid=cfg.grid_spec(FAR_FIELD_GRID),
                              policy=cfg.policy(),
                              **cfg.given(R_list="scales",
                                          uniformity_factor="fit.uniformity_factor"))
    rows = _table(["R", "sup_dev", "c_re", "c_im", "split_defect"],
                  ((r.R, r.sup_dev, r.c_QR.real, r.c_QR.imag, r.split_defect)
                   for r in rep.rows))
    return ({"far_field.csv": rows},
            [f"far-field [{K.name}] Q=(center {Q.center[0]}, side {Q.side}) "
             f"max/min={rep.ratio:.4f} abs_bound={rep.abs_bound:.6g} "
             f"verdict: {rep.verdict}"], [rep.verdict])


def _bilinear_decomp(cfg: ExperimentConfig):
    K = cfg.kernel()
    rep = bilinear_decomposition_check(K, cfg.b_func("b1"), cfg.b_func("b2"),
                                       Q=cfg.cube(DECOMP_CUBE),
                                       R_list=cfg.get("scales") or None,
                                       grid=cfg.grid_spec(DECOMP_GRID),
                                       policy=cfg.policy())
    rows = _table(["R", "avg_I", "dev_II", "dev_III", "dev_IV", "sum_defect", "sum_ok"],
                  ((r.R, r.avg_I, r.dev_II, r.dev_III, r.dev_IV, r.sum_defect, r.sum_ok)
                   for r in rep.rows))
    return ({"bilinear_decomp.csv": rows},
            [f"bilinear-decomp [{K.name}] verdict: {rep.verdict}"], [rep.verdict])


_RUNNERS = {
    "check-kernel": _check_kernel,
    "bmo": _bmo,
    "para-accretive": _para,
    "uk-build": _uk_build,
    "stein": lambda cfg: _scaling(_stein_reports(cfg)),
    "wbp": lambda cfg: _scaling([_wbp_report(cfg)]),
    "sweep-bmo": _sweep_bmo,
    "far-field": _far_field,
    "bilinear-decomp": _bilinear_decomp,
    "report": lambda cfg: _scaling(_stein_reports(cfg) + [_wbp_report(cfg)], svg=True),
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
    try:
        return _emit(out, *_RUNNERS[subcommand](cfg))
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


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

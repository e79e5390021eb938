"""The three benchmark workloads and the correctness gate behind `failed`.

A workload is a list of items. An item is one experiment: a CLI subcommand
run in-process through `tblab.cli.run`, or a probe through the public
library API. Every call into tblab goes through a module attribute looked up
at call time (`tb.quadrature.apply_linear`, never a name imported once), so
the tracer's patches see it.

Sizes are scaled so that one pass takes about 1.5 s at one thread, which
gives each item enough timed repeats in a run for a steady median; the layer
each workload stresses is listed in README.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fields", "probes", "certify")

# Relative tolerance for every number compared against the reference. A fast
# path that changes results at the 1e-12 level passes; a changed verdict or
# a drifted slope, constant or ratio does not.
RTOL = 1e-6
# Absolute slack, as a share of the largest magnitude in the same CSV column
# or value group, so that roundoff-level quantities (split defects) pass.
ATOL_SHARE = 1e-9
# The BMO best constant comes from a ternary search that may overestimate
# the infimum by up to 1.7%; an exact optimiser is a correction, not a fault.
COLUMN_RTOL = {"best_const_osc": 0.02}
# Single-point values must equal the whole-field value at the same index.
POINT_RTOL = 1e-9

SCALES5 = "0.25,0.5,1,2,4"
VERDICT = r"PASS-degenerate|PASS|FAIL|holds on all generations|fails"


@dataclass
class Outcome:
    """What one item run produced, and what it is compared on."""
    rows: int                       # CSV data rows written plus probe values returned
    seconds: float = 0.0            # time spent inside tblab calls
    csv_digest: dict = field(default_factory=dict)   # file -> sha256, for the thread check
    record: dict = field(default_factory=dict)       # compared against the reference
    problems: list = field(default_factory=list)     # self-consistency failures
    note: str = ""


# --- CLI items ----------------------------------------------------------------

@dataclass
class CliItem:
    name: str
    sub: str
    cfg: dict
    tiny: dict                      # overrides for the set-up run

    def run(self, tb, out: Path, tiny: bool = False) -> Outcome:
        cfg = dict(self.cfg, **self.tiny) if tiny else self.cfg
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        path = out.parent / f"{out.name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        t0 = time.perf_counter()
        rc = tb.cli.run(self.sub, str(path), str(out))
        seconds = time.perf_counter() - t0
        if tiny:
            return Outcome(rows=0, record={"rc": rc})
        tables, digest, rows = {}, {}, 0
        for csv_path in sorted(out.glob("*.csv")):
            data = csv_path.read_bytes()
            digest[csv_path.name] = hashlib.sha256(data).hexdigest()
            table = list(csv.reader(io.StringIO(data.decode())))
            tables[csv_path.name] = table
            rows += len(table) - 1
        summary = out / "summary.txt"
        text = summary.read_text() if summary.exists() else ""
        verdicts = re.findall(VERDICT, text)
        return Outcome(rows=rows, seconds=seconds, csv_digest=digest,
                       record={"rc": rc, "verdicts": verdicts, "tables": tables})


def _cli(name, sub, tiny=None, **cfg):
    return CliItem(name=name, sub=sub, cfg={k.replace("__", "."): v for k, v in cfg.items()},
                   tiny={k.replace("__", "."): v for k, v in (tiny or {}).items()})


# --- library probes -----------------------------------------------------------

@dataclass
class LibItem:
    name: str
    fn: object                      # fn(tb, points, tiny) -> Outcome
    points: tuple = ()

    def run(self, tb, out: Path, tiny: bool = False) -> Outcome:
        t0 = time.perf_counter()
        outcome = self.fn(tb, self.points, tiny)
        outcome.seconds = time.perf_counter() - t0
        return outcome


def _seeded_points(seed: int, tag: str, lo: int, hi: int, count: int) -> tuple:
    rng = random.Random(f"{seed}:{tag}")
    return tuple(sorted(rng.sample(range(lo, hi), count)))


def _bump(tb, center: float, radius: float):
    c = tb.bumps.c_norm(2, 1)
    return tb.bumps.BumpRule("standard-mollifier", c, (center,), radius)


def _accretive(np, x):
    return 1.0 + 0.3j * np.tanh(x)


def _close(a, b, scale, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL_SHARE * scale


LINEAR_PROBE_KERNELS = ("hilbert", "cauchy-lipschitz", "positive-control")
LINEAR_PROBE_N = 768
BILINEAR_PROBE_N = 384


def _probe_linear(tb, points, tiny):
    """apply_linear at seeded grid points against the whole field, per kernel."""
    import numpy as np
    n = 64 if tiny else LINEAR_PROBE_N
    g = tb.grid.Grid(box=tb.grid.cube1(0.0, 16.0), n=n)
    rule = _bump(tb, 0.0, 4.0)
    f = tb.grid.sample(lambda x: rule(x) * _accretive(np, x), g, name="probe")
    x = g.axis(0)
    pts = points if not tiny else (n // 2,)
    out = Outcome(rows=0)
    for kname in LINEAR_PROBE_KERNELS:
        K = tb.kernels.gallery(kname)
        fr = tb.quadrature.apply_linear_field(K, f)
        fv = fr.field.values
        scale = float(np.max(np.abs(fv)))
        for i in pts:
            pv = tb.quadrature.apply_linear(K, f, x[i])
            out.rows += 1
            if not _close(complex(pv.value), complex(fv[i]), scale, POINT_RTOL):
                out.problems.append(f"{kname}: point {i} value {complex(pv.value)} "
                                    f"!= field {complex(fv[i])}")
            if bool(pv.converged) != bool(fr.converged[i]):
                out.problems.append(f"{kname}: point {i} convergence flag differs")
        out.record[f"{kname}.l2"] = tb.grid.lp_norm(fr.field, 2)
        out.record[f"{kname}.n_flagged"] = fr.n_flagged
    return out


def _probe_bilinear(tb, points, tiny):
    """apply_bilinear at seeded points against the subset field, and one triple pairing."""
    import numpy as np
    n = 32 if tiny else BILINEAR_PROBE_N
    g = tb.grid.Grid(box=tb.grid.cube1(0.0, 8.0), n=n)
    x = g.axis(0)
    r1, r2, r0 = _bump(tb, -0.5, 1.5), _bump(tb, 0.5, 1.5), _bump(tb, 0.0, 0.25)
    f1 = tb.grid.sample(lambda t: r1(t) * _accretive(np, t), g, name="f1")
    f2 = tb.grid.sample(lambda t: r2(t) + 0j, g, name="f2")
    K = tb.kernels.gallery("bilinear-homog")
    pts = points if not tiny else (n // 2,)
    out = Outcome(rows=0)
    fr = tb.quadrature.apply_bilinear_field(K, f1, f2, points=list(pts))
    fv = fr.field.values
    scale = float(np.max(np.abs(fv)))
    for i in pts:
        pv = tb.quadrature.apply_bilinear(K, f1, f2, x[i])
        out.rows += 1
        if not _close(complex(pv.value), complex(fv[i]), scale, POINT_RTOL):
            out.problems.append(f"bilinear: point {i} value {complex(pv.value)} "
                                f"!= field {complex(fv[i])}")
    if tiny:
        return out
    f0 = tb.grid.sample(lambda t: r0(t) + 0j, g, name="f0")
    one = tb.grid.sample(lambda t: np.ones_like(t) + 0j, g, name="one")
    acc = tb.grid.sample(lambda t: _accretive(np, t), g, name="accretive")
    tp = complex(tb.quadrature.triple_pairing(K, f0, f1, f2, one, acc, one))
    out.rows += 1
    out.record["triple.re"] = tp.real
    out.record["triple.im"] = tp.imag
    return out


def _probe_local_piece(tb, points, tiny):
    """The 09b local-piece averages at r/4, r, 4r; the max/min ratio is reported."""
    Q = tb.grid.Cube((0.0,), 1.0)
    r = 6.0 * Q.diam
    gs = tb.harness.GridSpec(n=256, box_side=96.0) if tiny else \
        tb.harness.GridSpec(n=1536, box_side=96.0)
    K = tb.kernels.gallery("hilbert")
    one = tb.harness.builtin_b("one")
    vals = [tb.harness.local_piece_check(K, one, Q, R, grid=gs)
            for R in (r / 4.0, r, 4.0 * r)]
    out = Outcome(rows=len(vals))
    for tag, v in zip(("r/4", "r", "4r"), vals):
        out.record[f"value.{tag}"] = v.value
        out.record[f"defect.{tag}"] = v.rewrite_defect
        if not v.composite_certificate.passed:
            out.problems.append(f"composite certificate at R={tag} failed")
    ratio = max(v.value for v in vals) / min(v.value for v in vals)
    out.record["ratio"] = ratio
    out.note = f"09b local-piece max/min {ratio:.4f}"
    return out


CERTIFY_SAMPLES = 150


def _certify_commutator(tb, points, tiny):
    """Size and regularity certificates of the commutator through the library.

    The CLI's check-kernel fixes 10k samples, 9 s for this kernel; the
    library call takes the sample count, so the pass stays a few seconds.
    """
    K = tb.kernels.gallery("commutator")
    m = 20 if tiny else CERTIFY_SAMPLES
    size = tb.kernels.check_size(K, n_samples=m)
    reg = tb.kernels.check_regularity(K, n_samples=m)
    return Outcome(rows=2, record={"size": size.constant, "regularity": reg.constant})


# --- workload definitions -----------------------------------------------------

def build(workload: str, seed: int) -> list:
    """Items of a workload in definition order; probe points come from the seed."""
    if workload == "fields":
        # Equal-center pairings vanish for the odd Hilbert kernel, so its wbp
        # row uses offset 1; offset 0 keeps the known cauchy-lipschitz wbp FAIL.
        items = [
            _cli("report.hilbert", "report", {"grid__n": 64},
                 kernel__name="hilbert", grid__n=768, centers="0", offsets="1",
                 scales=SCALES5),
            _cli("report.cauchy-lipschitz", "report", {"grid__n": 64},
                 kernel__name="cauchy-lipschitz", b0="accretive-lipschitz(0.3)",
                 b1="accretive-lipschitz(0.3)", grid__n=768, centers="0",
                 offsets="0", scales=SCALES5),
            _cli("report.positive-control", "report", {"grid__n": 64},
                 kernel__name="positive-control", grid__n=768, centers="0",
                 offsets="0", scales=SCALES5),
            _cli("stein.commutator", "stein", {"grid__n": 64},
                 kernel__name="commutator", grid__n=256, grid__box_side=24,
                 centers="0", scales=SCALES5),
            _cli("stein.bilinear-homog", "stein", {"grid__n": 16},
                 kernel__name="bilinear-homog", grid__n=64, grid__box_side=8),
        ]
    elif workload == "probes":
        lin = _seeded_points(seed, "linear", LINEAR_PROBE_N // 4,
                             3 * LINEAR_PROBE_N // 4, 8)
        bil = _seeded_points(seed, "bilinear", BILINEAR_PROBE_N // 4,
                             3 * BILINEAR_PROBE_N // 4, 8)
        items = [
            _cli("bilinear-decomp", "bilinear-decomp", {"grid__n": 256},
                 kernel__name="bilinear-homog", grid__n=384, grid__box_side=64),
            _cli("wbp.bilinear-homog", "wbp", {"grid__n": 16},
                 kernel__name="bilinear-homog"),
            _cli("far-field.hilbert", "far-field", {"grid__n": 256},
                 kernel__name="hilbert", grid__n=768, grid__box_side=64),
            LibItem("local-piece.09b", _probe_local_piece),
            LibItem("apply_linear.points", _probe_linear, lin),
            LibItem("apply_bilinear.points", _probe_bilinear, bil),
        ]
    elif workload == "certify":
        items = [
            _cli("sweep-bmo.hilbert", "sweep-bmo", {"grid__n": 64, "scales": "2"},
                 kernel__name="hilbert", grid__n=128, grid__box_side=16, scales="2,4"),
            _cli("bmo.sign-sin", "bmo", {"bmo__k_max": 2},
                 b1="sign-sin", bmo__k_max=4),
            _cli("para-accretive.accretive", "para-accretive", {},
                 b1="accretive-lipschitz(0.3)", grid__box_side=8),
            _cli("para-accretive.sign-sin", "para-accretive",
                 {"grid__n": 256, "bmo__k_max": 2},
                 b1="sign-sin", grid__n=2048, bmo__k_max=7, para__eps=0.9),
        ]
        items += [_cli(f"uk-build.k{k}", "uk-build", {}, b1="accretive-lipschitz(0.3)",
                       uk__k=k) for k in (0, 1, 2)]
        items += [_cli(f"check-kernel.{k}", "check-kernel", {}, kernel__name=k)
                  for k in ("hilbert", "cauchy-lipschitz", "bilinear-homog",
                            "positive-control")]
        items.append(LibItem("check-kernel.commutator", _certify_commutator))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return items


def shuffled(items: list, seed: int) -> list:
    """The items in the seeded order a pass runs them in."""
    out = list(items)
    random.Random(f"{seed}:order").shuffle(out)
    return out


def kinds(items: list) -> list:
    """The first item of each kind: one CLI subcommand or one probe function each."""
    seen, out = set(), []
    for item in items:
        kind = item.sub if isinstance(item, CliItem) else item.fn
        if kind not in seen:
            seen.add(kind)
            out.append(item)
    return out


# --- the gate -----------------------------------------------------------------

def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _compare_tables(name, got, ref, problems):
    if len(got) != len(ref) or any(len(a) != len(b) for a, b in zip(got, ref)):
        problems.append(f"{name}: table shape differs from the reference")
        return
    header = ref[0]
    scale = [max((abs(float(r[j])) for r in ref[1:] if _is_number(r[j])), default=0.0)
             for j in range(len(header))]
    for i, (a_row, b_row) in enumerate(zip(got, ref)):
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            if i > 0 and _is_number(a) and _is_number(b):
                fa, fb = float(a), float(b)
                rtol = COLUMN_RTOL.get(header[j], RTOL)
                if math.isfinite(fa) and math.isfinite(fb) and _close(fa, fb, scale[j], rtol):
                    continue
            problems.append(f"{name} row {i} column {header[j]}: {a} != reference {b}")
            return


def check(item, outcome: Outcome, reference: dict) -> list:
    """Problems with an outcome: self-consistency failures plus reference drift."""
    problems = list(outcome.problems)
    ref = reference.get(item.name)
    if ref is None:
        return problems + ["no reference recorded"]
    got = outcome.record
    if isinstance(item, CliItem):
        if got["rc"] == 2:
            problems.append("exit code 2")
        elif got["rc"] != ref["rc"]:
            problems.append(f"exit code {got['rc']} != reference {ref['rc']}")
        if got["verdicts"] != ref["verdicts"]:
            problems.append(f"verdicts {got['verdicts']} != reference {ref['verdicts']}")
        if sorted(got["tables"]) != sorted(ref["tables"]):
            problems.append(f"CSV files {sorted(got['tables'])} != reference "
                            f"{sorted(ref['tables'])}")
        for fname in sorted(set(got["tables"]) & set(ref["tables"])):
            _compare_tables(f"{item.name}/{fname}", got["tables"][fname],
                            ref["tables"][fname], problems)
        return problems
    scale = max((abs(v) for v in ref.values()), default=0.0)
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not _close(float(have), float(want), scale, RTOL):
            problems.append(f"{key}: {have} != reference {want}")
    return problems

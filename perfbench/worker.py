"""One fresh interpreter per workload: set-up, timed passes, or the traced run.

    python3 perfbench/worker.py --mode timed --workload fields --seed 1 --seconds 30
    python3 perfbench/worker.py --mode record     # rewrite reference.json

run.py starts it with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1; the
worker sets TBLAB_THREADS itself before each pass. It prints one JSON object
as its last line of output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts from here, before tblab is imported

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import costmodel  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"
MIN_PAIRS = 2          # timed passes per thread count, at the least
MIN_TRACED = 2         # traced and untraced passes, at the least

# On a shared host the CPU speed drifts by up to 1.8x: it switches level every
# tenth of a second or so, and the mix of levels changes over seconds to
# minutes, in CPU time as much as in wall time. So a pass runs a fixed
# calibration unit before each item and after the last, and its item times are
# scaled by CALIBRATION_REF_S over the mean time of those units: scaled times
# are seconds at the speed at which the unit takes CALIBRATION_REF_S, about
# the unit's mean time on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207).
CALIBRATION_REF_S = 0.0075


@functools.cache
def _calibration_array():
    import numpy as np
    return np.random.default_rng(0).standard_normal(1 << 14) + 0j


def calibration_s(units: int = 3) -> float:
    """Mean time of the unit, a Python loop and a few small FFTs."""
    import numpy as np
    a = _calibration_array()
    t0 = time.perf_counter()
    for _ in range(units):
        acc = 0
        for i in range(40000):
            acc += i * i
        for _ in range(8):
            np.fft.ifft(np.fft.fft(a) * 0.5)
    return (time.perf_counter() - t0) / units


def import_tblab():
    sys.path.insert(0, str(SRC))
    import tblab
    for mod in LAYERS:
        __import__(f"tblab.{mod}")
    return tblab


class Pass:
    """Runs the items of a workload, times the calls into tblab and applies the gate."""

    def __init__(self, tb, items, seed: int, out: Path):
        self.tb, self.items, self.out = tb, items, out
        self.order = workloads.shuffled(items, seed)
        self.reference = json.loads(REFERENCE.read_text())
        self.times = {}            # (threads, item) -> [scaled seconds]
        self.raw_times = {}        # (threads, item) -> [seconds]
        self.rows = {}
        self.digests = {}          # item -> CSV digests of its first run
        self.notes = {}
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, threads: int, items=None):
        """One pass at `threads` in the seeded order; returns the time spent
        inside tblab, scaled to the calibration speed and as measured."""
        os.environ["TBLAB_THREADS"] = str(threads)
        cals, timed = [], []
        for item in self.order if items is None else items:
            cals.append(calibration_s())
            self.attempted += 1
            try:
                outcome = item.run(self.tb, self.out / item.name)
                problems = workloads.check(item, outcome, self.reference)
            except Exception:
                outcome, problems = None, [traceback.format_exc(limit=3).strip()]
            if outcome is not None:
                first = self.digests.setdefault(item.name, outcome.csv_digest)
                if outcome.csv_digest != first:
                    problems.append("CSV bytes differ from the first pass")
                self.rows[item.name] = outcome.rows
                if outcome.note:
                    self.notes[item.name] = outcome.note
            if problems:
                self.failed += 1
                self.problems.extend(f"{item.name} (threads={threads}): {p}" for p in problems)
                continue
            timed.append((item.name, outcome.seconds))
        cals.append(calibration_s())
        factor = CALIBRATION_REF_S / statistics.fmean(cals)
        for name, seconds in timed:
            self.times.setdefault((threads, name), []).append(seconds * factor)
            self.raw_times.setdefault((threads, name), []).append(seconds)
        raw = sum(seconds for _, seconds in timed)
        return raw * factor, raw

    def warm(self):
        """One untimed pass: the first full-size pass runs slower (lazy tables,
        first-touch memory); its outputs are the ones later passes must repeat.
        It runs in definition order, so the peak memory it reaches is the same
        for every seed."""
        self.run(1, self.items)
        self.times.clear()
        self.raw_times.clear()

    def item_medians(self, threads: int, raw: bool = False) -> dict:
        times = self.raw_times if raw else self.times
        return {name: statistics.median(v) for (t, name), v in times.items() if t == threads}

    def wall(self, threads: int, raw: bool = False) -> float:
        """Sum over items of each item's median time, scaled unless `raw`."""
        return sum(self.item_medians(threads, raw).values())

    def result(self, **extra) -> dict:
        return dict(attempted=self.attempted, failed=self.failed,
                    problems=self.problems[:20], notes=sorted(self.notes.values()), **extra)


def more(t0: float, done: int, least: int, seconds: float) -> bool:
    """Whether to start another round, so that the rounds end nearest to `seconds`."""
    if done < least:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + 0.5 * elapsed / done < seconds


def mode_setup(args, tb, out):
    """A tiny run of each kind of item, which builds every lazy table the workload
    uses; the time is scaled by a calibration right after it."""
    os.environ["TBLAB_THREADS"] = "1"
    for item in workloads.kinds(workloads.build(args.workload, args.seed)):
        item.run(tb, out / item.name, tiny=True)
    raw = time.perf_counter() - T_START
    return {"setup_s": raw * CALIBRATION_REF_S / calibration_s(units=10),
            "setup_raw_s": raw}


def mode_timed(args, tb, out):
    p = Pass(tb, workloads.build(args.workload, args.seed), args.seed, out)
    p.warm()
    # Read before any 2-thread pass: how far concurrent rows overlap in memory
    # varies from pass to pass, so a later peak would depend on the run length.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    pairs, walls = 0, {1: [], args.threads2: []}
    while more(t0, pairs, MIN_PAIRS, args.seconds):
        # Alternate which thread count goes first, so drift during a run hits both.
        for threads in ((1, args.threads2) if pairs % 2 == 0 else (args.threads2, 1)):
            walls[threads].append(p.run(threads)[0])
        pairs += 1
    wall1, rows = p.wall(1), sum(p.rows.values())
    return p.result(pairs=pairs, wall_s=wall1, wall_s_t2=p.wall(args.threads2), rows=rows,
                    rows_per_s=rows / wall1 if wall1 > 0 else 0.0,
                    peak_rss_mb=rss_mb, raw_wall_s=p.wall(1, raw=True),
                    raw_wall_s_t2=p.wall(args.threads2, raw=True),
                    items=p.item_medians(1), passes=walls)


def mode_traced(args, tb, out):
    p = Pass(tb, workloads.build(args.workload, args.seed), args.seed, out)
    p.warm()
    tracer = Tracer(tb)
    plain, traced, per_pass, shares = [], [], [], []
    t0 = time.perf_counter()
    while more(t0, len(traced), MIN_TRACED, args.seconds):
        plain.append(p.run(1)[0])
        tracer.install()
        tracer.begin_pass()
        try:
            scaled, raw = p.run(1)
        finally:
            tracer.uninstall()
        traced.append(scaled)
        m, s = tracer.end_pass(raw)     # spans are raw times
        per_pass.append(m)
        shares.append(s)
    # median_low keeps each value one that a pass measured, so counts stay whole.
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    os.environ["TBLAB_THREADS"] = "1"
    metrics.update(costmodel.measure(tb, dict(os.environ), str(SRC)))
    return p.result(metrics=metrics,
                    shares={k: statistics.median(s[k] for s in shares) for k in shares[0]},
                    absent=tracer.absent + sorted(tracer.absent_fields),
                    traced_wall_s=statistics.median(traced),
                    untraced_wall_s=statistics.median(plain))


def mode_record(args, tb, out):
    """Record every item's outputs at the current commit as the reference."""
    os.environ["TBLAB_THREADS"] = "1"
    reference = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.build(workload, 0):
            outcome = item.run(tb, out / item.name)
            if outcome.problems or outcome.record.get("rc") == 2:
                raise RuntimeError(f"{item.name} cannot be a reference: {outcome.problems}")
            reference[item.name] = outcome.record
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return {"recorded": len(reference)}


MODES = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced,
         "record": mode_record}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=sorted(MODES), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default="fields")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--threads2", type=int, default=2)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    tb = import_tblab()
    out = OUT / f"{args.mode}-{args.workload}-{os.getpid()}"
    try:
        result = MODES[args.mode](args, tb, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

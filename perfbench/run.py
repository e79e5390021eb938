"""tblab benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. `--trace 0` times untraced passes at one
and two threads and reports BENCHMARK.json's end_to_end metrics; `--trace 1`
reports its per_layer metrics from a traced run at one thread. End-to-end
times are scaled by a calibration unit run between items (see worker.py and
README.md), because the host's CPU speed drifts. The last line
of output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Exits 2 without a result when the checkout holds no tblab source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 5
WORKER_TIMEOUT = 170


class BenchError(Exception):
    pass


def _worker(mode, args, env, threads2=1):
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--threads2", str(threads2)]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=WORKER_TIMEOUT)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} {args.workload} exited with {res.returncode}")
    return json.loads(lines[-1])


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_one(args, spec) -> dict:
    nproc = os.cpu_count() or 1
    threads2 = min(2, nproc)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TBLAB_THREADS="1")
    threads = "1" if args.trace else f"1,{threads2}"
    print(f"{args.workload}: seed={args.seed} threads={threads} nproc={nproc} "
          f"python={platform.python_version()} numpy={_version('numpy')} "
          f"scipy={_version('scipy')} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        res = _worker("traced", args, env)
        values = res["metrics"]
        wanted = spec["per_layer"]
        print(f"{args.workload}: traced pass {res['traced_wall_s']:.4f} s, untraced "
              f"{res['untraced_wall_s']:.4f} s; absent names: {res['absent'] or 'none'}")
        shares = res["shares"]
        print(f"{args.workload}: self-time share of the traced pass: " +
              ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
        _design_check(args.workload, shares, values)
    else:
        setups = [_worker("setup", args, env) for _ in range(SETUP_RUNS)]
        res = _worker("timed", args, env, threads2)
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "wall_s": res["wall_s"],
                  "wall_s.t2": res["wall_s_t2"], "rows_per_s": res["rows_per_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
        print(f"{args.workload}: {res['pairs']} passes per thread count, "
              f"{res['rows']} rows per pass, set-up runs "
              f"{sorted(round(s['setup_s'], 4) for s in setups)} (as measured "
              f"{sorted(round(s['setup_raw_s'], 4) for s in setups)})")
        print(f"{args.workload}: wall as measured, without scaling: 1 thread "
              f"{res['raw_wall_s']:.4f} s, {threads2} threads {res['raw_wall_s_t2']:.4f} s")
        print(f"{args.workload}: scaled pass walls by thread count: " +
              "; ".join(f"{t}: " + " ".join(f"{w:.3f}" for w in ws)
                        for t, ws in res["passes"].items()))
        print(f"{args.workload}: median scaled s per item at 1 thread: " +
              ", ".join(f"{k} {v:.3f}" for k, v in sorted(res["items"].items())))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{args.workload} failed_frac {frac!r} ratio ({res['failed']}/{res['attempted']})")
    for note in res["notes"]:
        print(f"{args.workload}: {note}")
    for problem in res["problems"]:
        print(f"{args.workload}: FAILED {problem}")
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


# The traced run confirms what each workload is for (see README.md).
def _design_check(workload, shares, values):
    idle = [k for k in ("bmo.seminorm.calls", "paraaccretive.subcube_scan.calls",
                        "paraaccretive.condB.pairs") if values[k]]
    if workload == "fields":
        share = shares["quadrature"] + shares["kernels.rule"]
        checks = [("quadrature + kernels.rule self time > 1/2 of the pass", share > 0.5),
                  ("bmo and paraaccretive idle", not idle)]
    elif workload == "probes":
        share = shares["quadrature"] + shares["kernels.rule"]
        checks = [("bmo and paraaccretive idle", not idle)]
    else:
        share = shares["bmo"] + shares["paraaccretive"] + shares["kernels.certify"]
        checks = [("bmo + paraaccretive + kernels.certify > 1/2 of the pass", share > 0.5)]
    print(f"{workload}: design share {share:.3f}; " +
          "; ".join(f"{text}: {'yes' if ok else 'NO'}" for text, ok in checks))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tblab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tblab" / "__init__.py").is_file():
        print(f"perfbench: no tblab package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args, spec)))
            return 0
        results = {}
        for w in WORKLOADS:
            results[w] = run_one(argparse.Namespace(**dict(vars(args), workload=w)), spec)
        print(json.dumps(results))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

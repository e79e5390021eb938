"""Layer cost model: single-layer timings at several sizes and a fitted exponent.

Runs in the traced run only, never in the timed passes. The targets are
O(n log n) for a linear field and O(n^2 log n) for a bilinear one, against
today's O(n^2) and O(n^3); condition (B) is O(m^2) in the m cubes of a
generation today.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

# Sizes per kernel. The commutator's per-entry kernel cache makes a 4096-point
# matrix cost tens of seconds and a gigabyte, so it stops at 1536.
LINEAR_SIZES = {
    "hilbert": (512, 1536, 4096),
    "cauchy-lipschitz": (512, 1536, 4096),
    "positive-control": (512, 1536, 4096),
    "commutator": (512, 1024, 1536),
}
BILINEAR_SIZES = (128, 256, 512)
COND_B_GENERATIONS = (7, 8, 9)

COLD_SNIPPET = """
import json, time
from tblab import bumps
t0 = time.perf_counter(); bumps.c_norm(2, 1); t1 = time.perf_counter()
bumps.profile_integral("standard-mollifier", 1); t2 = time.perf_counter()
print(json.dumps({"c_norm": t1 - t0, "profile_integral": t2 - t1}))
"""


def _exponent(sizes, times) -> float:
    """Least-squares slope of log time against log size."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(tb, env, src) -> dict:
    """name -> value for every cost-model metric."""
    import numpy as np
    out = {}
    for name, sizes in LINEAR_SIZES.items():
        times = []
        for n in sizes:
            g = tb.grid.Grid(box=tb.grid.cube1(0.0, 24.0), n=n)
            f = tb.grid.sample(lambda x: np.exp(-x * x) * (1.0 + 0.3j * np.tanh(x)), g)
            K = tb.kernels.gallery(name)
            times.append(_timed(lambda: tb.quadrature.apply_linear_field(K, f)))
        out[f"quadrature.linear.{name}.n_exp"] = _exponent(sizes, times)
        out[f"quadrature.linear.{name}.n{sizes[-1]}_s"] = times[-1]

    Kb = tb.kernels.gallery("bilinear-homog")
    times = []
    for n in BILINEAR_SIZES:
        g = tb.grid.Grid(box=tb.grid.cube1(0.0, 8.0), n=n)
        f = tb.grid.sample(lambda x: np.exp(-x * x) + 0j, g)
        times.append(_timed(lambda: tb.quadrature.apply_bilinear_field(Kb, f, f)))
    out["quadrature.bilinear.n_exp"] = _exponent(BILINEAR_SIZES, times)
    out[f"quadrature.bilinear.n{BILINEAR_SIZES[-1]}_s"] = times[-1]

    g = tb.grid.Grid(box=tb.grid.cube1(0.0, 16.0), n=512)
    b = tb.harness.builtin_b("sign-sin").sampled(g)
    fam = tb.grid.dyadic_family(g.box, 0, 7)
    out["bmo.seminorm.n512_s"] = _timed(lambda: tb.bmo.bmo_seminorm(b, fam))

    g = tb.grid.Grid(box=tb.grid.cube1(0.0, 16.0), n=2048)
    b = tb.harness.builtin_b("sign-sin").sampled(g)
    times = []
    for k in COND_B_GENERATIONS:
        fam = tb.grid.dyadic_family(g.box, k, k)
        times.append(_timed(lambda: tb.paraaccretive.check_condition_B(b, fam, N=10.0,
                                                                        eps=0.9)))
    out["paraaccretive.condB.m_exp"] = _exponent([2 ** k for k in COND_B_GENERATIONS], times)
    out[f"paraaccretive.condB.gen{COND_B_GENERATIONS[-1]}_s"] = times[-1]

    # Cold lazy tables need an interpreter that has not built them yet.
    res = subprocess.run([sys.executable, "-c", COLD_SNIPPET], env=dict(env, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    cold = json.loads(res.stdout.strip().splitlines()[-1])
    out["bumps.c_norm.cold_s"] = cold["c_norm"]
    out["bumps.profile_integral.cold_s"] = cold["profile_integral"]
    return out


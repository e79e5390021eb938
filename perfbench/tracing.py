"""Per-layer tracing of tblab from outside the package.

Every public function of every layer module is wrapped, and the wrapper is
bound in each namespace that holds the function: `harness` imports
`apply_linear_field` and `pmap` by name, `cli` imports its `harness`,
`kernels`, `bmo` and `paraaccretive` names the same way, and the package
re-exports most of them, so patching only the defining module would miss
those calls. Kernel rules are wrapped on the models `gallery` returns, so
transposes built from them inherit the timer.

A span records its name, start, end and the span that caused it. Spans stay
in memory until `write_spans`. A layer's self time is the duration of its
spans minus the part covered by their child spans. `pmap` is counted but
opens no span: the work it runs belongs to its caller's layer.

A name listed in EXPECTED that the package no longer defines is reported as
absent and its metrics read 0, and so is a name whose arguments or results
no longer carry what a counter reads; the same tracer runs on older and
newer commits without crashing.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "harness", "util", "quadrature", "kernels", "bmo",
          "paraaccretive", "bumps", "grid")

# Names the per-layer metrics are computed from.
EXPECTED = ("cli.run", "cli.ExperimentConfig.parse", "harness.exponent_fit",
            "util.pmap", "quadrature.apply_linear_field",
            "quadrature.apply_bilinear_field", "quadrature.apply_linear",
            "quadrature.apply_bilinear", "kernels.gallery", "kernels.check_size",
            "kernels.check_regularity", "bmo.bmo_seminorm",
            "bmo.best_constant_oscillation", "paraaccretive.subcube_scan",
            "paraaccretive.check_condition_B", "paraaccretive.build_uk",
            "paraaccretive.verify_uk", "bumps.c_norm", "grid.sample")

CERTIFY = ("kernels.check_size", "kernels.check_regularity")
POINT = ("quadrature.apply_linear", "quadrature.apply_bilinear")
UK = ("paraaccretive.build_uk", "paraaccretive.verify_uk")
RULE = "kernels.rule"


def _rows_of(result) -> int:
    """Rows of a harness experiment result: reports hold rows, results hold reports."""
    if hasattr(result, "rows"):
        return len(result.rows)
    if hasattr(result, "reports"):
        return sum(_rows_of(r) for r in result.reports)
    if hasattr(result, "on_b1"):
        return _rows_of(result.on_b1) + _rows_of(result.transpose_on_b0)
    return 1 if hasattr(result, "value") else 0


def _bytes_under(path) -> int:
    p = Path(path)
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file()) if p.is_dir() else 0


class Tracer:
    """Wraps tblab's public functions while installed; aggregates one pass at a time."""

    def __init__(self, tb):
        self.tb = tb
        self.spans = []           # [id, parent id, name, start, end, child time, tag]
        self.counts = Counter()
        self.absent = []
        self.absent_fields = set()   # names whose arguments or results lack what a counter reads
        self._patches = []        # (owner, attribute, original value)
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._c_norm = None

    # --- wrapping ---------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.active = [], Counter()
        return loc.stack, loc.active

    def _wrap(self, fn, name, post=None, transparent=False):
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            stack, active = tracer._state()
            tag = tracer._tag(name, layer, active)
            if transparent:
                active[name] += 1
                try:
                    res = fn(*args, **kwargs)
                finally:
                    active[name] -= 1
            else:
                parent = stack[-1] if stack else None
                with tracer._lock:
                    sid = tracer._next_id
                    tracer._next_id += 1
                frame = [sid, parent[0] if parent else None, name, 0.0, 0.0, 0.0, tag]
                stack.append(frame)
                active[name] += 1
                active[layer] += 1
                t0 = time.perf_counter()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    active[name] -= 1
                    active[layer] -= 1
                    frame[3], frame[4] = t0, t1
                    if parent is not None:
                        parent[5] += t1 - t0
                    with tracer._lock:
                        tracer.spans.append(frame)
            if post is not None:
                try:
                    post(args, kwargs, res, tag)
                except (AttributeError, KeyError, TypeError):
                    tracer.absent_fields.add(name)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _tag(name, layer, active):
        """Context a span needs at entry: is it under a certificate or a harness call."""
        if name == RULE:
            return "certify" if any(active[c] for c in CERTIFY) else "lattice"
        if layer == "harness":
            return "inner" if active["harness"] else "top"
        return None

    def _binder(self, fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments

    def _hooks(self):
        """Per-name counters taken from arguments and results."""
        tb, c = self.tb, self.counts
        hooks = {}

        def hook(name, make):
            mod, _, attr = name.partition(".")
            fn = getattr(getattr(tb, mod, None), attr, None)
            if fn is not None:
                hooks[name] = make(self._binder(fn))

        def linear(bind):
            def post(a, k, res, tag):
                c["linear.points"] += bind(a, k)["f"].grid.n
                c["flagged"] += res.n_flagged
                c["evaluated"] += bind(a, k)["f"].grid.n
            return post

        def bilinear(bind):
            def post(a, k, res, tag):
                args = bind(a, k)
                pts = args.get("points")
                m = args["f"].grid.n if pts is None else len(pts)
                c["bilinear.points"] += m
                c["flagged"] += res.n_flagged
                c["evaluated"] += m
            return post

        def point(bind):
            def post(a, k, res, tag):
                c["flagged"] += 0 if res.converged else 1
                c["evaluated"] += 1
            return post

        def seminorm(bind):
            def post(a, k, res, tag):
                c["bmo.cubes"] += len(res.entries) + res.n_skipped
                c["bmo.skipped"] += res.n_skipped
            return post

        def cond_b(bind):
            def post(a, k, res, tag):
                fam = bind(a, k)["family"]
                c["condB.pairs"] += sum(len(fam.generations[g]) ** 2
                                        for g in range(fam.k_min, fam.k_max + 1))
            return post

        def harness_rows(a, k, res, tag):
            if tag == "top":
                c["harness.rows"] += _rows_of(res)

        def cli_run(bind):
            def post(a, k, res, tag):
                out = bind(a, k).get("out_dir")
                if out is not None:
                    c["cli.bytes"] += _bytes_under(out)
            return post

        hook("quadrature.apply_linear_field", linear)
        hook("quadrature.apply_bilinear_field", bilinear)
        hook("quadrature.apply_linear", point)
        hook("quadrature.apply_bilinear", point)
        hook("bmo.bmo_seminorm", seminorm)
        hook("paraaccretive.check_condition_B", cond_b)
        hook("cli.run", cli_run)
        return hooks, harness_rows

    def install(self):
        """Bind a wrapper for every public function in every namespace that holds it."""
        tb = self.tb
        modules = [getattr(tb, m, None) for m in LAYERS]
        namespaces = [tb] + [m for m in modules if m is not None]
        hooks, harness_rows = self._hooks()
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                post = hooks.get(name)
                if layer == "harness" and post is None:
                    post = harness_rows
                wrappers[id(obj)] = self._wrap(obj, name, post=post,
                                               transparent=(name == "util.pmap"))
                if name == "util.pmap":
                    wrappers[id(obj)] = self._wrap_pmap(wrappers[id(obj)])
                if name == "kernels.gallery":
                    wrappers[id(obj)] = self._wrap_gallery(wrappers[id(obj)])
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, w)
        cfg_cls = getattr(getattr(tb, "cli", None), "ExperimentConfig", None)
        parse = vars(cfg_cls).get("parse") if cfg_cls is not None else None
        if isinstance(parse, classmethod):
            self._patches.append((cfg_cls, "parse", parse))
            cfg_cls.parse = classmethod(self._wrap(parse.__func__,
                                                   "cli.ExperimentConfig.parse"))
        bumps = getattr(tb, "bumps", None)
        self._c_norm = next((orig for ns, attr, orig in self._patches
                             if ns is bumps and attr == "c_norm"), None)
        self.absent = [n for n in EXPECTED if not self._present(n)]

    def _present(self, dotted):
        mod, _, rest = dotted.partition(".")
        obj = getattr(self.tb, mod, None)
        for part in rest.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    def _wrap_pmap(self, wrapped):
        c, tracer = self.counts, self

        def pmap(fn, items, *args, **kwargs):
            items = list(items)
            _, active = tracer._state()
            c["pmap.calls"] += 1
            c["pmap.items"] += len(items)
            if active["util.pmap"]:
                c["pmap.nested"] += 1
            return wrapped(fn, items, *args, **kwargs)

        return pmap

    def _wrap_gallery(self, wrapped):
        tracer = self

        def evals(a, k, res, tag):
            if tag == "lattice":
                tracer.counts["rule.evals"] += int(getattr(res, "size", 1))

        def gallery(*args, **kwargs):
            K = wrapped(*args, **kwargs)
            # The model is fresh from the factory; swapping its rule touches no shared state.
            object.__setattr__(K, "rule", tracer._wrap(K.rule, RULE, post=evals))
            return K

        return gallery

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # --- one pass -----------------------------------------------------------

    def begin_pass(self):
        self.spans = []
        self.counts.clear()
        self._cache0 = self._c_norm.cache_info() if self._c_norm else None

    def end_pass(self, wall: float):
        """Per-layer metrics of the spans recorded since begin_pass, plus layer shares."""
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        layer_self = defaultdict(float)
        for sid, parent, name, t0, t1, child, tag in self.spans:
            if name == RULE and tag == "certify":
                continue          # inside check_size/check_regularity, part of certify_s
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child
            layer_self[name.split(".", 1)[0]] += t1 - t0 - child
        c = self.counts
        hit_ratio = 0.0
        if self._cache0 is not None:
            now = self._c_norm.cache_info()
            hits, misses = now.hits - self._cache0.hits, now.misses - self._cache0.misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        m = {
            "quadrature.linear.calls": calls["quadrature.apply_linear_field"],
            "quadrature.linear.points": c["linear.points"],
            "quadrature.linear.self_s": own["quadrature.apply_linear_field"],
            "quadrature.bilinear.calls": calls["quadrature.apply_bilinear_field"],
            "quadrature.bilinear.points": c["bilinear.points"],
            "quadrature.bilinear.self_s": own["quadrature.apply_bilinear_field"],
            "quadrature.point.calls": sum(calls[p] for p in POINT),
            "quadrature.point.self_s": sum(own[p] for p in POINT),
            "quadrature.flagged_ratio": c["flagged"] / c["evaluated"] if c["evaluated"] else 0.0,
            "kernels.rule.calls": calls[RULE],
            "kernels.rule.evals": c["rule.evals"],
            "kernels.rule_s": own[RULE],
            "kernels.certify_s": sum(incl[n] for n in CERTIFY),
            "kernels.gallery_s": incl["kernels.gallery"],
            "bmo.seminorm.calls": calls["bmo.bmo_seminorm"],
            "bmo.cubes": c["bmo.cubes"],
            "bmo.skipped_ratio": c["bmo.skipped"] / c["bmo.cubes"] if c["bmo.cubes"] else 0.0,
            "bmo.self_s": layer_self["bmo"],
            "bmo.best_const_s": incl["bmo.best_constant_oscillation"],
            "paraaccretive.subcube_scan.calls": calls["paraaccretive.subcube_scan"],
            "paraaccretive.subcube_scan_s": incl["paraaccretive.subcube_scan"],
            "paraaccretive.condB.pairs": c["condB.pairs"],
            "paraaccretive.condB.self_s": own["paraaccretive.check_condition_B"],
            "paraaccretive.uk_s": sum(incl[u] for u in UK),
            "util.pmap.calls": c["pmap.calls"],
            "util.pmap.items": c["pmap.items"],
            "util.pmap.nested_calls": c["pmap.nested"],
            "harness.self_s": layer_self["harness"],
            "harness.rows": c["harness.rows"],
            "harness.fit_s": incl["harness.exponent_fit"],
            "cli.self_s": layer_self["cli"],
            "cli.parse_s": incl["cli.ExperimentConfig.parse"],
            "cli.bytes_written": c["cli.bytes"],
            "bumps.self_s": layer_self["bumps"],
            "bumps.c_norm.hit_ratio": hit_ratio,
            "grid.self_s": layer_self["grid"],
            "grid.sample.calls": calls["grid.sample"],
        }
        shares = {layer: layer_self[layer] / wall for layer in LAYERS}
        shares["kernels.rule"] = own[RULE] / wall
        shares["kernels.certify"] = m["kernels.certify_s"] / wall
        return m, shares

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, child, tag in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")

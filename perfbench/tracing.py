"""Span tracing of one CLI command, and the per-layer arithmetic over spans.

Run as a script, this module replays one `variokrig` command in-process:

    python3 perfbench/tracing.py SPANS.json RUN_ID -- ARGV...

It imports `variokrig.cli` (timed), patches timing wrappers into every
`variokrig` module namespace that bound a wrapped function, calls
`variokrig.cli.main(ARGV)`, writes the spans and counters to SPANS.json and
exits with the command's status. Only the standard library is imported
before the program, so the import time is the program's own.

The program is not edited: spans come only from these wrappers. The
benchmark runs the program with its default single worker, so every call
nests on the main thread and one stack gives each span its parent.
"""

import functools
import itertools
import json
import math
import statistics
import sys
import time

# (module, attribute, span name). The span's layer is the text before the dot.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "ingest_csv", "cli.ingest"),
    ("models", "covariance_eval", "models.covariance_eval"),
    ("models", "variogram_eval", "models.variogram_eval"),
    ("_linalg", "chol_with_jitter", "linalg.chol"),
    ("_linalg", "spd_solve", "linalg.spd_solve"),
    ("krige", "neighborhood", "krige.neighborhood"),
    ("krige", "krige_map", "krige.map"),
    ("fit", "fit_family_batch", "fit.batch"),
    ("fit", "fit_variogram", "fit.call"),
    ("sim", "simulate_gaussian_field", "sim.field"),
    ("sim", "simulate_variograms", "sim.variograms"),
    ("empvario", "empirical_variogram", "empvario.estimate"),
    ("bayes", "density_map", "bayes.map"),
    ("bayes", "_conditional_moments", "bayes.draw_moment"),
    ("copula", "fit_copula_mle", "copula.fit"),
    ("copula", "joint_density_csv", "copula.joint_density"),
)

# Per-item span of `parallel_map` by the module that calls it.
ITEM_SPANS = {
    "variokrig.krige": "krige.point",
    "variokrig.bayes": "bayes.point",
    "variokrig.fit": "fit.fit",
    "variokrig.sim": "sim.item",
    "variokrig.copula": "copula.item",
}

LAYERS = ("cli", "models", "linalg", "krige", "fit", "sim", "empvario", "bayes", "copula", "util")


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent)
        self.counters = {}
        self._ids = itertools.count(1)
        self._stack = []  # ids of the open spans

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "import_s": import_s,
                       "spans": self.spans, "counters": self.counters}, fh)


def install(tracer, modules):
    """Patch the wrappers into every namespace in `modules` that bound the
    original function, so calls through any import path are timed."""
    pkg = {name.rpartition(".")[2]: mod for name, mod in modules.items()}
    hooks = {
        "linalg.chol": lambda res: tracer.count("linalg.jitter_nonzero", res[1] > 0.0),
        "fit.fit": lambda res: tracer.count("fit.converged", bool(res.converged)),
        "krige.point": lambda row: tracer.count("krige.status." + row.status),
    }
    for modname, attr, span in WRAPPED:
        original = getattr(pkg[modname], attr)
        wrapped = tracer.wrap(original, span, hooks.get(span))
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    # every objective closure the fit module builds is timed as one evaluation
    make_objective = pkg["fit"]._objective
    pkg["fit"]._objective = lambda *a, **kw: tracer.wrap(make_objective(*a, **kw), "fit.eval")

    cli = pkg["cli"]
    cli.OutputDir._write = tracer.wrap(cli.OutputDir._write, "cli.write")

    original_map = pkg["util"].parallel_map
    timed_map = tracer.wrap(original_map, "util.parallel_map")
    for name, mod in modules.items():
        if getattr(mod, "parallel_map", None) is not original_map or name not in ITEM_SPANS:
            continue

        def parallel_map(fn, items, n_threads=None, _item=ITEM_SPANS[name]):
            items = list(items)
            tracer.count("util.parallel_map_calls")
            tracer.count("util.parallel_map_items", len(items))
            return timed_map(tracer.wrap(fn, _item, hooks.get(_item)), items, n_threads)

        mod.parallel_map = parallel_map


def _child_main(argv):
    spans_path, run_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json RUN_ID -- ARGV...")
    start = time.perf_counter()
    import variokrig.cli  # noqa: F401  (timed: the import every command pays)

    import_s = time.perf_counter() - start
    modules = {n: m for n, m in sys.modules.items()
               if n == "variokrig" or n.startswith("variokrig.")}
    tracer = Tracer(int(run_id))
    install(tracer, modules)
    try:
        status = modules["variokrig.cli"].main(command)
    finally:
        tracer.count("krige.clamped_variances", modules["variokrig.krige"].clamped_variance_count())
        tracer.dump(spans_path, import_s)
    return status


# -- arithmetic over recorded spans (runs in the benchmark process) -----------------


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def self_times(spans):
    """Self time of every span: its duration minus its children's durations.

    `spans` holds (id, name, start, end, parent) with ids unique in the list.
    Returns {id: seconds}.
    """
    out = {sid: end - start for sid, _, start, end, _ in spans}
    for _, _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_self_times(spans):
    """{layer: seconds} summed over the self times of that layer's spans."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, name, *_ in spans:
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + own[sid]
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    Returns (None, 0.0) when even the 75th percentile has fewer beyond it.
    """
    vals = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(vals) - math.ceil(p / 100.0 * len(vals)) >= 10:
            return p, percentile(vals, p)
    return None, 0.0


def rep_metrics(processes):
    """Per-layer metrics of one traced repetition.

    `processes` holds the loaded SPANS.json dicts of its commands. Returns
    (metrics, notes): metrics maps name -> number; notes records which
    percentile each `.tail` is.
    """
    spans, counters, imports = [], {}, []
    for proc in processes:
        base = proc["run_id"] << 32  # ids repeat across processes
        for sid, name, start, end, parent in proc["spans"]:
            spans.append((base + sid, name, start, end, None if parent is None else base + parent))
        for key, n in proc["counters"].items():
            counters[key] = counters.get(key, 0) + n
        imports.append(proc["import_s"])

    durations = {}
    for _, name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)

    def calls(name):
        return len(durations.get(name, ()))

    def ms(name):
        return 1e3 * sum(durations.get(name, ()))

    def mean_us(name):
        return 1e6 * statistics.fmean(durations[name]) if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m, notes = {}, {}
    points = calls("krige.point") + calls("bayes.point")
    fits = calls("fit.fit")
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.ingest_ms"] = ms("cli.ingest")
    m["models.cov_eval_calls"] = calls("models.covariance_eval")
    m["models.cov_eval_ms"] = ms("models.covariance_eval")
    m["models.cov_evals_per_point"] = ratio(calls("models.covariance_eval"), points)
    m["models.variogram_eval_calls"] = calls("models.variogram_eval")
    m["models.variogram_eval_ms"] = ms("models.variogram_eval")
    m["linalg.chol_calls"] = calls("linalg.chol")
    m["linalg.chol_ms"] = ms("linalg.chol")
    m["linalg.chol_per_point"] = ratio(calls("linalg.chol"), points)
    m["linalg.jitter_nonzero"] = counters.get("linalg.jitter_nonzero", 0)
    m["krige.neighborhood_calls"] = calls("krige.neighborhood")
    m["krige.neighborhood_ms"] = ms("krige.neighborhood")
    for layer, span in (("krige", "krige.point"), ("fit", "fit.fit"), ("bayes", "bayes.point")):
        key = f"{layer}.fit_ms" if layer == "fit" else f"{layer}.point_ms"
        vals = [1e3 * d for d in durations.get(span, ())]
        m[key + ".p50"] = percentile(sorted(vals), 50.0) if vals else 0.0
        notes[key + ".tail"], m[key + ".tail"] = tail(vals)
    m["krige.status.ok"] = counters.get("krige.status.ok", 0)
    m["krige.status.too_few"] = counters.get("krige.status.too_few_neighbors", 0)
    m["krige.status.numeric"] = counters.get("krige.status.numeric_failure", 0)
    m["krige.clamped_variances"] = counters.get("krige.clamped_variances", 0)
    m["fit.fits"] = fits
    m["fit.calls"] = calls("fit.call")
    m["fit.evals"] = calls("fit.eval")
    m["fit.evals_per_fit"] = ratio(calls("fit.eval"), fits)
    m["fit.eval_us"] = mean_us("fit.eval")
    m["fit.converged_ratio"] = ratio(counters.get("fit.converged", 0), fits)
    m["sim.field_ms"] = ms("sim.field")
    m["sim.variograms_ms"] = ms("sim.variograms")
    m["empvario.calls"] = calls("empvario.estimate")
    m["empvario.ms"] = ms("empvario.estimate")
    m["bayes.draw_moment_us"] = mean_us("bayes.draw_moment")
    m["copula.fit_ms"] = ms("copula.fit")
    m["copula.joint_density_ms"] = ms("copula.joint_density")
    m["util.parallel_map_calls"] = counters.get("util.parallel_map_calls", 0)
    m["util.parallel_map_items"] = counters.get("util.parallel_map_items", 0)
    own = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * own[layer]
    return m, notes


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))

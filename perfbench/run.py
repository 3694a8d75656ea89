"""Benchmark of the variokrig CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is run from `src/`
exactly as a user runs it, one process per command. With `--trace 0` the
command sequence of the workload repeats for S seconds (at least twice) and
the end-to-end metrics are medians over the repetitions. With `--trace 1`
untraced and traced repetitions alternate for S seconds; the traced one
replays the same argv through `perfbench/tracing.py` and yields the
per-layer metrics.

Times are calibrated. The speed of a shared machine drifts by up to half
over minutes, which swamps any change worth detecting. So a reference
process, owned by the benchmark and doing the program's kind of work
(start Python, import numpy and scipy, run a fixed pure-Python loop), is
timed before the first repetition and after every one. A repetition's wall
and CPU times, and its set-up sample, are scaled by CAL_REF_S over the mean
of the two reference times around it: the end-to-end times are seconds on
a machine where the reference process takes CAL_REF_S. The record keeps
the raw times and every reference time beside them.

Child processes get one BLAS/OpenMP thread and no VARIOKRIG_THREADS (the
program's default of one worker): with default OpenBLAS threading a
300-point ordinary map took 6.3 to 9.7 s on a 2-core machine, against 4.15
to 4.37 s with one thread. This leaves the program's own BLAS default
unmeasured on purpose.

Output: a table and a record line (machine, digests, samples) on stdout,
the same record under `.bench_run/results/`, and as the last line the JSON
summary `{"correct", "attempted", "failed", "metrics"}`. The exit status is
0 whenever a summary was printed, 2 when the program sources are missing.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"
os.environ.pop("VARIOKRIG_THREADS", None)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import (ROOT, SRC, WORKLOADS, CheckError, child_env, output_digests,  # noqa: E402
                       step_counts)

WORK = os.path.join(ROOT, ".bench_run")
TRACER = os.path.join(ROOT, "perfbench", "tracing.py")

MIN_REPS = 2
MIN_SETUP = 5
CAL_REF_S = 1.0
REFERENCE = """
import numpy, scipy.linalg, scipy.optimize, scipy.special
acc = 0
for i in range(1_500_000):
    acc = (acc + i * i) % 1_000_003
"""

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "ok_frac": "ratio",
}

# layer predicted to have the largest self time, by step
PREDICTED_DOMINANT = {"posterior": "fit", "krige_global": "models", "density_local": "bayes"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ms", ".ms")) or "_ms." in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_per_point", "_per_fit", "_ratio")):
        return "ratio"
    return "count"


def spawn(argv, log):
    """Run one child; returns (wall_s, exit_code, cpu_s, peak_rss_mb)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, env=child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Calibration:
    """Wall times of the reference process, taken between repetitions."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        wall, code, _, _ = spawn(["-c", REFERENCE], subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"the reference process exited {code}")
        self.samples.append(wall)

    def next_scale(self):
        """Take a sample; the scale of the interval since the previous one."""
        self.sample()
        return CAL_REF_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def run_sequence(workload, seed, indir, outdir, logdir, traced=False):
    """One repetition of the workload's steps, each in its own process."""
    os.makedirs(outdir)
    rep = {"codes": [], "raw_wall": 0.0, "raw_cpu": 0.0, "rss": 0.0, "steps": {}, "spans": [],
           "ok": 0, "failed": 0, "few": 0, "attempted": 0}
    for k, (step, argv) in enumerate(zip(workload.steps, workload.argvs(seed, indir, outdir))):
        if traced:
            spans_path = os.path.join(logdir, f"spans{k}.json")
            argv = [TRACER, spans_path, str(k), "--"] + argv
        else:
            argv = ["-m", "variokrig"] + argv
        with open(os.path.join(logdir, f"stderr{k}.txt"), "w") as log:
            wall, code, cpu, rss = spawn(argv, log)
        rep["codes"].append(code)
        rep["raw_wall"] += wall
        rep["raw_cpu"] += cpu
        rep["rss"] = max(rep["rss"], rss)
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                rep["spans"].append(json.load(fh))
        ok, failed, few = step_counts(step, outdir, code)
        rep["attempted"] += step.n_items
        rep["failed"] += failed
        rep["steps"][step.name] = {"raw_wall_s": wall}
        if step.rows is not None:
            rep["ok"] += ok
            rep["few"] += few
            rep["steps"][step.name]["ok"] = ok
    rep["digests"] = output_digests(outdir)
    return rep


def calibrate(rep, scale):
    """Add the calibrated figures of a repetition: wall and CPU time, per step
    the wall and, for an item-producing step, its ok items per second."""
    rep["scale"] = scale
    rep["wall"] = rep["raw_wall"] * scale
    rep["cpu"] = rep["raw_cpu"] * scale
    rates = []
    for figures in rep["steps"].values():
        figures["wall_s"] = figures["raw_wall_s"] * scale
        if "ok" in figures:
            figures["items_per_s"] = figures["ok"] / figures["wall_s"]
            rates.append(figures["items_per_s"])
    # geometric mean, so that each step's rate weighs the same
    rep["items_per_s"] = math.exp(statistics.fmean(math.log(max(r, 1e-300)) for r in rates))
    return rep


def check_outputs(workload, seed, indir, outdir, reps):
    """Correctness of one repetition's files plus byte-identity across reps."""
    problems = []
    if any(c != 0 for rep in reps for c in rep["codes"]):
        problems.append("a command exited nonzero")
    else:
        try:
            workload.check(seed, indir, outdir, np.random.default_rng([seed, 2]))
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"output check failed: {exc}")
    if any(rep["digests"] != reps[0]["digests"] for rep in reps):
        problems.append("outputs differ between repetitions of one seed")
    return problems


def machine_record():
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "variokrig_threads": "unset",
        "calibration_ref_s": CAL_REF_S,
    }


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def step_medians(reps):
    """{step: {figure: median over reps}} of the per-step figures."""
    return {name: {key: statistics.median(rep["steps"][name][key] for rep in reps)
                   for key in figures}
            for name, figures in reps[0]["steps"].items()}


def keep_going(start, done, minimum, seconds):
    """Start another iteration while one of average length still ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed + elapsed / done <= seconds


def setup_sample(work):
    """Raw wall of a CLI process that only starts, imports and prints help."""
    with open(os.path.join(work, "setup.txt"), "w") as log:
        return spawn(["-m", "variokrig", "--help"], log)[0]


def plain_run(cal, workload, seed, seconds, work):
    # One set-up sample per repetition, so that set-up is sampled all
    # through the run and calibrated like its repetition.
    indir = os.path.join(work, "in")
    setup, reps = [], []
    start = time.perf_counter()
    while keep_going(start, len(reps), MIN_REPS, seconds):
        raw_setup = setup_sample(work)
        rep = run_sequence(workload, seed, indir, os.path.join(work, f"out{len(reps)}"), work)
        reps.append(calibrate(rep, cal.next_scale()))
        setup.append((raw_setup, raw_setup * rep["scale"]))
    if len(setup) < MIN_SETUP:
        raw = [setup_sample(work) for _ in range(MIN_SETUP - len(setup))]
        scale = cal.next_scale()
        setup += [(wall, wall * scale) for wall in raw]
    problems = check_outputs(workload, seed, indir, os.path.join(work, "out0"), reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "wall_s": median_of(reps, "wall"),
        "setup_s": statistics.median(s for _, s in setup),
        "cpu_s": median_of(reps, "cpu"),
        "peak_rss_mb": median_of(reps, "rss"),
        "items_per_s": median_of(reps, "items_per_s"),
        "ok_frac": 1.0 - failed / attempted,
    }
    samples = {name: len(reps) for name in metrics}
    samples["setup_s"] = len(setup)
    samples["ok_frac"] = attempted
    detail = {
        "samples": samples,
        "raw": {"wall_s": median_of(reps, "raw_wall"), "cpu_s": median_of(reps, "raw_cpu"),
                "setup_s": statistics.median(s for s, _ in setup)},
        "per_step": step_medians(reps),
        "setup_s": setup,
        "reps": [{k: r[k] for k in ("codes", "scale", "raw_wall", "wall", "raw_cpu", "cpu", "rss",
                                    "ok", "failed", "few", "steps")}
                 for r in reps],
        "digests": reps[0]["digests"],
    }
    return metrics, END_TO_END, detail, attempted, failed, problems


def traced_run(cal, workload, seed, seconds, work):
    indir = os.path.join(work, "in")
    pairs = []
    start = time.perf_counter()
    while keep_going(start, len(pairs), 1, seconds):
        k = len(pairs)
        plain = run_sequence(workload, seed, indir, os.path.join(work, f"out{k}"), work)
        logdir = os.path.join(work, f"trace{k}")
        os.makedirs(logdir)
        traced = run_sequence(workload, seed, indir, os.path.join(work, f"tout{k}"), logdir,
                              traced=True)
        calibrate(plain, cal.next_scale())
        pairs.append((plain, traced))
    reps = [rep for pair in pairs for rep in pair]
    problems = check_outputs(workload, seed, indir, os.path.join(work, "out0"), reps)
    per_rep = [tracing.rep_metrics(traced["spans"]) for _, traced in pairs]
    metrics = {name: statistics.median(m[name] for m, _ in per_rep) for name in per_rep[0][0]}
    metrics["trace.overhead_s"] = (statistics.median(t["raw_wall"] for _, t in pairs)
                                   - statistics.median(p["raw_wall"] for p, _ in pairs))
    # the same metrics per step, medians over the traced repetitions
    by_step = {}
    for _, traced in pairs:
        for proc in traced["spans"]:
            by_step.setdefault(workload.steps[proc["run_id"]].name, []).append(
                tracing.rep_metrics([proc])[0])
    per_step = {step: {name: statistics.median(m[name] for m in ms) for name in ms[0]}
                for step, ms in by_step.items()}
    for step, figures in step_medians([plain for plain, _ in pairs]).items():
        per_step.setdefault(step, {}).update(figures)
    dominant = {}
    for step, m in per_step.items():
        if "cli.self_ms" not in m:  # the step left no spans
            continue
        layer = max(tracing.LAYERS, key=lambda name: m[f"{name}.self_ms"])
        predicted = PREDICTED_DOMINANT.get(step)
        dominant[step] = {"layer": layer, "predicted": predicted,
                          "holds": None if predicted is None else layer == predicted}
    detail = {
        "samples": {name: len(pairs) for name in metrics},
        "tail_percentiles": {k: v for k, v in per_rep[0][1].items() if k.endswith(".tail")},
        "dominant_layer": dominant,
        "per_step": per_step,
        "digests": reps[0]["digests"],
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    units = {name: per_layer_unit(name) for name in metrics}
    return metrics, units, detail, attempted, failed, problems


def print_table(workload, metrics, units, detail, attempted, failed):
    print(f"workload {workload.name}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} n={detail['samples'][name]}")
    print(f"  {'fail_frac':<32} {failed / attempted:>14.6g} {'ratio':<6} n={attempted}")
    for step, figures in detail["per_step"].items():
        line = f"  step {step}: wall {figures['wall_s']:.4g} s (raw {figures['raw_wall_s']:.4g} s)"
        if "items_per_s" in figures:
            rate = "fits_per_s" if step == "posterior" else "points_per_s"
            line += f", {rate} {figures['items_per_s']:.6g}"
        for name in ("models.cov_evals_per_point", "linalg.chol_per_point", "fit.evals_per_fit"):
            if figures.get(name):
                line += f", {name} {figures[name]:.4g}"
        print(line)
    if "tail_percentiles" in detail:
        for key, p in detail["tail_percentiles"].items():
            print(f"  {key} is the p{p}" if p is not None else f"  {key}: too few samples, 0")
        for step, d in detail["dominant_layer"].items():
            verdict = "no prediction"
            if d["predicted"] is not None:
                holds = "holds" if d["holds"] else "does not hold"
                verdict = f"predicted {d['predicted']}: {holds}"
            print(f"  step {step}: largest self time in {d['layer']} ({verdict})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that `spawn` kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "variokrig", "cli.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    work = os.path.join(WORK, f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload.write_inputs(args.seed, os.path.join(work, "in"))
        cal = Calibration()
        run = traced_run if args.trace else plain_run
        metrics, units, detail, attempted, failed, problems = run(
            cal, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(detail, problems=problems, metrics=metrics, calibration_s=cal.samples)

    print_table(workload, metrics, units, detail, attempted, failed)
    for problem in problems:
        print(f"  INCORRECT: {problem}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

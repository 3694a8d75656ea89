"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q perfbench/test_perfbench.py

The output-check tests run the real CLI on small grids, from `src/`.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli(args, cwd):
    env = wl.child_env()
    proc = subprocess.run([sys.executable, "-m", "variokrig"] + args, env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("in")
    wl.WORKLOADS["maps"].write_inputs(5, str(d))
    return str(d)


def test_generator_is_deterministic_per_seed():
    a, b, c = wl.make_dataset(3), wl.make_dataset(3), wl.make_dataset(4)
    assert wl.dataset_csv(*a) == wl.dataset_csv(*b)
    assert wl.dataset_csv(*a) != wl.dataset_csv(*c)
    assert wl.draws_csv(wl.make_draws(3)) == wl.draws_csv(wl.make_draws(3))
    locs, values = a
    xmin, xmax, ymin, ymax = wl.REGION
    assert locs.shape == (wl.N_DATA, 2) and np.all(values > 0.0)
    assert np.all((locs[:, 0] >= xmin) & (locs[:, 0] <= xmax))
    assert np.all((locs[:, 1] >= ymin) & (locs[:, 1] <= ymax))


def test_draws_stay_in_the_box_and_off_half_integers():
    draws = wl.make_draws(9)
    assert np.all(draws > wl.NESTED_LOWER) and np.all(draws < wl.NESTED_UPPER)
    nus = draws[:, [3, 6]]
    assert np.all(np.abs(nus * 2.0 - np.round(nus * 2.0)) > 0.1)


def test_reference_matern_matches_the_exponential_form():
    h = np.linspace(0.0, 300.0, 31)
    p = [wl.NUGGET, wl.SILL, wl.RANGE, 0.5, 0.0, 1.0, 1.0]
    assert np.allclose(wl.nested_covariance(p, h), wl.exp_covariance(h), rtol=1e-12)


def _rewrite(path, column, index, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + index].split(",")
    col = header.index(column)
    cells[col] = repr(fn(float(cells[col])))
    lines[1 + index] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("method,radius", [("ordinary", None), ("bayes", 45.0)])
def test_perturbed_kriging_output_fails_the_check(tmp_path, inputs, method, radius):
    cli(wl.krige_argv(method, 6, 4, radius, "k")(5, inputs, str(tmp_path)), ROOT)
    out, path = str(tmp_path / "k"), tmp_path / "k" / "krige.csv"
    data = wl.make_dataset(5)
    r = math.inf if radius is None else radius

    def check():
        wl.check_krige(out, data, method, r, 24, np.random.default_rng(0), n_sample=24)

    check()
    rows = wl.read_rows(str(path))
    k = next(i for i, row in enumerate(rows) if row["status"] == "ok")
    for column in ("prediction", "sd"):
        original = rows[k][column]
        _rewrite(path, column, k, lambda v: v * (1.0 + 1e-6) + 1e-6)
        with pytest.raises(wl.CheckError):
            check()
        _rewrite(path, column, k, lambda v: float(original))
        check()


def test_perturbed_density_output_fails_the_check(tmp_path, inputs):
    cli(wl.density_argv(4, 3, 40.0, "d")(5, inputs, str(tmp_path)), ROOT)
    out, path = str(tmp_path / "d"), tmp_path / "d" / "density_map.csv"
    data, draws = wl.make_dataset(5), wl.make_draws(5)
    rows = wl.read_rows(str(path))
    ok = [i for i, row in enumerate(rows) if row["status"] == "ok"]
    assert ok

    def check():
        wl.check_density(out, data, draws, 40.0, 12, np.random.default_rng(0))

    check()
    k = wl.sample_rows(rows, 1, np.random.default_rng(0))[0]
    original = rows[k]["Median"]
    _rewrite(path, "Median", k, lambda v: v * math.exp(0.02))  # two grid steps
    with pytest.raises(wl.CheckError):
        check()
    _rewrite(path, "Median", k, lambda v: float(original))
    check()
    _rewrite(path, "qq075", ok[-1], lambda v: v / 1e3)  # breaks monotonicity
    with pytest.raises(wl.CheckError):
        check()


def test_perturbed_posterior_output_fails_the_check(tmp_path, inputs):
    out, sims = str(tmp_path / "p"), str(tmp_path / "s")
    common = ["--input", f"{inputs}/data.csv", "--log", "--model", wl.MODEL_TEXT, "--sims", "3",
              "--seed", "5", "--max-dist", "200", "--n-bins", "15"]
    cli(wl.variogram_argv(5, inputs, out), ROOT)
    cli(["posterior"] + common + ["--method", "ols", "--out", out], ROOT)
    cli(["simulate"] + common + ["--out", sims], ROOT)
    locs, values = wl.make_dataset(5)
    variogram, draws = tmp_path / "p" / "variogram.csv", tmp_path / "p" / "draws.csv"

    def check():
        wl.check_variogram(str(variogram), locs, np.log(values))
        wl.check_fits(str(draws), f"{sims}/variograms.csv", 3)

    check()
    k = next(i for i, row in enumerate(wl.read_rows(str(draws))) if row["converged"] == "true")
    # a fitted parameter sits at a minimum of the objective, so it needs a larger step
    for path, row, column, step in ((variogram, 4, "gamma_hat", 1e-6),
                                    (variogram, 4, "mean_pair_distance", 1e-6),
                                    (draws, k, "objective", 1e-6), (draws, k, "range1", 1e-2)):
        original = wl.read_rows(str(path))[row][column]
        _rewrite(path, column, row, lambda v: v * (1.0 + step))
        with pytest.raises(wl.CheckError):
            check()
        _rewrite(path, column, row, lambda v: float(original))
        check()


def test_failure_accounting(tmp_path):
    (tmp_path / "krige.csv").write_text(
        "x,y,prediction,sd,n_neighbors,status\n1.0,2.0,0.5,0.1,7,ok\n"
        "1.0,3.0,,,0,too_few_neighbors\n1.0,4.0,,,0,numeric_failure\n")
    (tmp_path / "draws.csv").write_text(
        "nugget,sill1,range1,nu1,sill2,range2,nu2,objective,converged\n"
        "0.1,1.0,50.0,0.7,1.0,150.0,1.2,0.01,true\n0,0,0,0,0,0,0,inf,false\n")
    grid = wl.Step("krige", None, rows="krige.csv", n_items=3)
    fits = wl.Step("posterior", None, rows="draws.csv", n_items=2)
    plain = wl.Step("copula-fit", None)
    assert wl.step_counts(grid, str(tmp_path), 0) == (1, 1, 1)
    assert wl.step_counts(grid, str(tmp_path), 2) == (0, 3, 0)
    assert wl.step_counts(fits, str(tmp_path), 0) == (1, 1, 0)
    assert wl.step_counts(plain, str(tmp_path), 0) == (1, 0, 0)
    assert wl.step_counts(plain, str(tmp_path), 1) == (0, 1, 0)
    missing = wl.Step("density", None, rows="density_map.csv", n_items=4)
    assert wl.step_counts(missing, str(tmp_path), 0) == (0, 4, 0)


def test_calibration_scales_times_and_rates():
    rep = {"raw_wall": 10.0, "raw_cpu": 8.0,
           "steps": {"a": {"raw_wall_s": 2.0, "ok": 40}, "b": {"raw_wall_s": 8.0, "ok": 10},
                     "c": {"raw_wall_s": 0.5}}}
    run.calibrate(rep, 0.5)
    assert (rep["wall"], rep["cpu"]) == (5.0, 4.0)
    assert rep["steps"]["a"]["items_per_s"] == 40.0 and rep["steps"]["b"]["items_per_s"] == 2.5
    assert rep["steps"]["c"] == {"raw_wall_s": 0.5, "wall_s": 0.25}
    assert rep["items_per_s"] == pytest.approx(10.0)  # geometric mean of 40 and 2.5


def test_self_time_on_a_hand_made_span_tree():
    spans = [
        (1, "cli.main", 0.0, 10.0, None),
        (2, "krige.map", 1.0, 4.0, 1),
        (3, "linalg.chol", 5.0, 8.0, 1),
        (4, "models.covariance_eval", 1.5, 2.0, 2),
        (5, "models.covariance_eval", 2.5, 3.0, 2),
        (6, "linalg.chol", 20.0, 21.0, None),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 0.5, 5: 0.5, 6: 1.0})
    layers = tracing.layer_self_times(spans)
    assert layers["cli"] == pytest.approx(4.0)
    assert layers["krige"] == pytest.approx(2.0)
    assert layers["linalg"] == pytest.approx(4.0)
    assert layers["models"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(11.0)  # the wall time the spans cover


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tracing.tail(list(range(40)))[0] == 75.0
    assert tracing.tail(list(range(300)))[0] == 95.0
    assert tracing.tail(list(range(7400)))[0] == 99.0
    assert tracing.tail(list(range(19))) == (None, 0.0)


def test_traced_run_emits_every_per_layer_metric(tmp_path, inputs):
    out = tmp_path / "out"
    commands = [
        ["variogram", "--input", f"{inputs}/data.csv", "--log", "--max-dist", "200",
         "--out", str(out)],
        ["posterior", "--input", f"{inputs}/data.csv", "--log", "--model", wl.MODEL_TEXT,
         "--sims", "3", "--seed", "1", "--max-dist", "200", "--out", str(out)],
        ["copula-fit", "--draws", f"{inputs}/draws.csv", "--out", str(out)],
        wl.krige_argv("ordinary", 3, 3, None, "k")(1, inputs, str(out)),
        wl.density_argv(3, 2, 40.0, "d")(1, inputs, str(out)),
    ]
    processes = []
    for k, argv in enumerate(commands):
        spans = tmp_path / f"spans{k}.json"
        proc = subprocess.run([sys.executable, run.TRACER, str(spans), str(k), "--"] + argv,
                              env=wl.child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        processes.append(json.loads(spans.read_text()))
    metrics, notes = tracing.rep_metrics(processes)
    metrics["trace.overhead_s"] = 0.0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == set(declared)
    assert all(run.per_layer_unit(name) == unit for name, unit in declared.items())
    for name in ("fit.fits", "fit.evals", "models.variogram_eval_calls", "krige.status.ok",
                 "linalg.chol_calls", "bayes.draw_moment_us", "copula.fit_ms", "sim.field_ms",
                 "empvario.calls", "krige.neighborhood_calls", "util.parallel_map_items"):
        assert metrics[name] > 0, name
    assert metrics["fit.fits"] == 3 and metrics["krige.status.ok"] == 9
    assert metrics["models.cov_evals_per_point"] > 0


def test_benchmark_file_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

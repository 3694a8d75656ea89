"""Workload definitions: seeded inputs, command sequences and output checks.

Inputs come from the benchmark's own numpy code, never from `variokrig
synth`, so a change to the program's simulator cannot change the inputs of
another workload. The constants below copy the program's synthetic-data
defaults (SYNTH_MODEL, SYNTH_MEAN, SYNTH_REGION, NESTED_LOWER/UPPER) so the
benchmark keeps its inputs fixed even if those defaults move.

The seed draws the measured values and the posterior draws; the station
locations and the simulation seed of `posterior` are fixed. The work of the
40 nested-Matern fits depends on both: over nine seeds it ranged from 43.6k
to 54.3k objective evaluations, a spread as wide as the benchmark's bounds.
With them fixed, every seed makes the program do the same work on other
values, as a fixed network of stations measures a new field.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
from scipy import linalg as sla
from scipy import special

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

N_DATA = 200
REGION = (-148.0, 149.0, -108.0, 109.0)
MODEL_TEXT = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
NUGGET, SILL, RANGE = 0.0661, 2.4523, 122.79
LOG_MEAN = 0.66
NESTED_LOWER = np.full(7, 0.001)
NESTED_UPPER = np.array([10.0, 18.0, 400.0, 40.0, 18.0, 400.0, 40.0])
N_DRAWS = 40
STATIONS_SEED = 0
POSTERIOR_SEED = 1
PRIOR_VAR = 10000.0
DENSITY_LOG_GRID = np.linspace(-5.0, 6.5, 1151)  # the CLI default, step 0.01

PARAM_NAMES = ("nugget", "sill1", "range1", "nu1", "sill2", "range2", "nu2")


def grid_args(nx, ny):
    return ["--grid", str(nx), str(ny)] + [repr(v) for v in REGION]


# -- seeded inputs -------------------------------------------------------------


def exp_covariance(h):
    """The Matern of MODEL_TEXT: at nu = 0.5 it is exp(-sqrt(2) h / range)."""
    return np.where(h == 0.0, NUGGET + SILL, SILL * np.exp(-math.sqrt(2.0) * h / RANGE))


def distances(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def make_dataset(seed):
    """n = 200 fixed stations on the region, lognormal values of the model field."""
    stations = np.random.default_rng(STATIONS_SEED)
    xmin, xmax, ymin, ymax = REGION
    locs = np.column_stack([stations.uniform(xmin, xmax, N_DATA),
                            stations.uniform(ymin, ymax, N_DATA)])
    L = np.linalg.cholesky(exp_covariance(distances(locs, locs)))
    values = np.exp(LOG_MEAN + L @ np.random.default_rng([seed, 0]).standard_normal(N_DATA))
    return locs, values


def make_draws(seed):
    """Nested-Matern draws inside the fit box, smoothness off half-integers."""
    rng = np.random.default_rng([seed, 1])
    lo = np.array([0.02, 0.8, 20.0, 0.6, 0.6, 90.0, 1.1])
    hi = np.array([0.15, 1.6, 70.0, 0.9, 1.2, 220.0, 1.4])
    return rng.uniform(lo, hi, size=(N_DRAWS, 7))


def dataset_csv(locs, values):
    lines = ["EASTING,NORTHING,VALUE"]
    lines += [f"{x!r},{y!r},{v!r}" for (x, y), v in zip(locs.tolist(), values.tolist())]
    return "\n".join(lines) + "\n"


def draws_csv(draws):
    lines = [",".join(PARAM_NAMES)]
    lines += [",".join(repr(v) for v in row) for row in draws.tolist()]
    return "\n".join(lines) + "\n"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- workloads -------------------------------------------------------------------


class Step:
    """One named CLI command of a workload.

    `argv(seed, indir, outdir)` builds its arguments. When `rows` is set it
    names the output CSV, relative to outdir, whose `n_items` rows are the
    step's work items; otherwise the whole command is one operation.
    """

    def __init__(self, name, argv, rows=None, n_items=1):
        self.name = name
        self.argv = argv
        self.rows = rows
        self.n_items = n_items


class Workload:
    """A named sequence of steps over seeded inputs, and the check of one
    repetition's outputs, `check(seed, indir, outdir, rng)`."""

    def __init__(self, name, steps, check):
        self.name = name
        self.steps = steps
        self.check = check

    def write_inputs(self, seed, indir):
        os.makedirs(indir, exist_ok=True)
        with open(os.path.join(indir, "data.csv"), "w") as fh:
            fh.write(dataset_csv(*make_dataset(seed)))
        with open(os.path.join(indir, "draws.csv"), "w") as fh:
            fh.write(draws_csv(make_draws(seed)))

    def argvs(self, seed, indir, outdir):
        return [step.argv(seed, indir, outdir) for step in self.steps]


def variogram_argv(seed, i, o):
    return ["variogram", "--input", f"{i}/data.csv", "--log", "--max-dist", "200",
            "--n-bins", "15", "--out", o]


def posterior_argv(seed, i, o):
    return ["posterior", "--input", f"{i}/data.csv", "--log", "--model", MODEL_TEXT,
            "--sims", str(N_DRAWS), "--seed", str(POSTERIOR_SEED), "--method", "ols",
            "--max-dist", "200", "--n-bins", "15", "--out", o]


def copula_argv(seed, i, o):
    return ["copula-fit", "--draws", f"{o}/draws.csv", "--out", o]


def krige_argv(method, nx, ny, radius, sub):
    def argv(seed, i, o):
        out = ["krige", "--input", f"{i}/data.csv", "--log", "--model", MODEL_TEXT,
               "--method", method] + grid_args(nx, ny) + ["--out", f"{o}/{sub}"]
        return out + (["--radius", repr(radius)] if radius is not None else [])

    return argv


def density_argv(nx, ny, radius, sub):
    def argv(seed, i, o):
        return ["density", "--input", f"{i}/data.csv", "--log", "--draws", f"{i}/draws.csv"
                ] + grid_args(nx, ny) + ["--radius", repr(radius), "--out", f"{o}/{sub}"]

    return argv


# -- output parsing and checks ------------------------------------------------------


class CheckError(Exception):
    pass


def run_cli(argv):
    """One command run to completion, outside any timed region."""
    proc = subprocess.run([sys.executable, "-m", "variokrig"] + argv, env=child_env(), cwd=ROOT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def step_counts(step, outdir, code):
    """(ok, failed, too_few) operations of one step of one repetition.

    A nonzero exit fails every item of the step; a non-converged fit or a
    numeric_failure row fails one; a too_few_neighbors row is documented
    behaviour and counts as neither.
    """
    if code != 0:
        return 0, step.n_items, 0
    if step.rows is None:
        return 1, 0, 0
    try:
        rows = read_rows(os.path.join(outdir, step.rows))
    except (OSError, IndexError):
        return 0, step.n_items, 0
    if len(rows) != step.n_items:
        return 0, step.n_items, 0
    if "converged" in rows[0]:
        ok = sum(r["converged"] == "true" for r in rows)
        return ok, len(rows) - ok, 0
    status = [r["status"] for r in rows]
    few = status.count("too_few_neighbors")
    ok = status.count("ok")
    return ok, len(status) - ok - few, few


def output_digests(outdir):
    """SHA-256 of every file a repetition wrote, by path under outdir."""
    out = {}
    for dirpath, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _rel_close(a, b, scale, tol=1e-8):
    return abs(a - b) <= tol * max(abs(a), abs(b), scale)


def sample_rows(rows, n, rng):
    ok = [k for k, r in enumerate(rows) if r["status"] == "ok"]
    if not ok:
        raise CheckError("no grid point with status ok")
    return [ok[k] for k in rng.choice(len(ok), size=min(n, len(ok)), replace=False)]


def _neighbours(x0, locs, z, radius):
    """Locations, values and distances of the data within radius of x0."""
    d0 = np.sqrt(((locs - x0) ** 2).sum(axis=1))
    keep = d0 <= radius
    return locs[keep], z[keep], d0[keep]


def bayes_moments(K, c0, c00, z):
    """Mean and variance of constant-trend Bayes kriging, prior N(0, PRIOR_VAR).

    Simple kriging plus the trend-uncertainty term, which avoids the
    cancellation of the augmented-matrix formula.
    """
    one = np.ones(len(z))
    cf = sla.cho_factor(K, lower=True)
    Kic0, Ki1, Kiz = (sla.cho_solve(cf, v) for v in (c0, one, z))
    r = 1.0 - one @ Kic0
    denom = 1.0 / PRIOR_VAR + one @ Ki1
    return c0 @ Kiz + r * (one @ Kiz) / denom, c00 - c0 @ Kic0 + r * r / denom


def reference_kriging(x0, locs, z, method, radius):
    """Independent dense solve of ordinary or Bayes (constant trend) kriging.

    Ordinary kriging solves the bordered system [[K, 1], [1', 0]].
    Returns (prediction, variance, n).
    """
    locs, z, d0 = _neighbours(x0, locs, z, radius)
    n = len(z)
    K = exp_covariance(distances(locs, locs))
    c0 = exp_covariance(d0)
    c00 = NUGGET + SILL
    if method == "ordinary":
        A = np.zeros((n + 1, n + 1))
        A[:n, :n], A[:n, n], A[n, :n] = K, 1.0, 1.0
        sol = np.linalg.solve(A, np.append(c0, 1.0))
        w, mu = sol[:n], sol[n]
        return float(w @ z), float(c00 - w @ c0 - mu), n
    pred, var = bayes_moments(K, c0, c00, z)
    return float(pred), float(var), n


def check_krige(outdir, inputs, method, radius, n_expected, rng, n_sample=12):
    locs, values = inputs
    z = np.log(values)
    rows = read_rows(os.path.join(outdir, "krige.csv"))
    if len(rows) != n_expected:
        raise CheckError(f"krige.csv has {len(rows)} rows, expected {n_expected}")
    for k in sample_rows(rows, n_sample, rng):
        row = rows[k]
        x0 = np.array([float(row["x"]), float(row["y"])])
        pred, var, n = reference_kriging(x0, locs, z, method, radius)
        sd = math.sqrt(max(var, 0.0))
        got_pred, got_sd = float(row["prediction"]), float(row["sd"])
        if int(row["n_neighbors"]) != n:
            raise CheckError(f"row {k}: {row['n_neighbors']} neighbours, reference {n}")
        # a prediction near zero is compared on the scale of its sd
        if not _rel_close(got_pred, pred, sd):
            raise CheckError(f"row {k}: prediction {got_pred!r}, reference {pred!r}")
        if not _rel_close(got_sd, sd, 0.0):
            raise CheckError(f"row {k}: sd {got_sd!r}, reference {sd!r}")


def matern(h, sill, range_, nu):
    """Matern covariance, in log space so that large nu and small lags stay finite."""
    u = 2.0 * math.sqrt(nu) * np.asarray(h, dtype=float) / range_
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logrho = (nu * np.log(u) + np.log(special.kve(nu, u)) - u
                  - (nu - 1.0) * math.log(2.0) - special.gammaln(nu))
        rho = np.minimum(np.exp(logrho), 1.0)
    return sill * np.where(u > 0.0, rho, 1.0)


def nested_covariance(p, h):
    nugget, s1, r1, n1, s2, r2, n2 = p
    return np.where(h == 0.0, nugget + s1 + s2, matern(h, s1, r1, n1) + matern(h, s2, r2, n2))


def reference_median(x0, locs, z, draws, radius):
    """Predictive median at x0 from an independent mixture computation.

    Per draw: constant-trend Bayes moments; the log-normal mixture is
    integrated by the trapezoid rule on the original scale and the median is
    the last grid value whose CDF stays below one half.
    """
    locs, z, d0 = _neighbours(x0, locs, z, radius)
    g = DENSITY_LOG_GRID
    dens = np.zeros_like(g)
    for p in draws:
        K = nested_covariance(p, distances(locs, locs))
        m, s2 = bayes_moments(K, nested_covariance(p, d0), p[0] + p[1] + p[4], z)
        dens += np.exp(-((g - m) ** 2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    y = np.exp(g)
    dens *= np.exp(-g)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[:-1] + dens[1:]) * np.diff(y))])
    cdf /= cdf[-1]
    return float(y[np.searchsorted(cdf, 0.5, side="right") - 1])


QUANTILE_COLUMNS = ("qq001", "qq005", "qq025", "Median", "qq075", "qq095", "qq099")


def check_density(outdir, inputs, draws, radius, n_expected, rng):
    locs, values = inputs
    rows = read_rows(os.path.join(outdir, "density_map.csv"))
    if len(rows) != n_expected:
        raise CheckError(f"density_map.csv has {len(rows)} rows, expected {n_expected}")
    for k, row in enumerate(rows):
        if row["status"] != "ok":
            continue
        q = [float(row[c]) for c in QUANTILE_COLUMNS]
        if not all(math.isfinite(v) for v in q) or any(b < a for a, b in zip(q, q[1:])):
            raise CheckError(f"row {k}: quantiles not finite and monotone: {q}")
    k = sample_rows(rows, 1, rng)[0]
    x0 = np.array([float(rows[k]["x"]), float(rows[k]["y"])])
    ref = reference_median(x0, locs, np.log(values), draws, radius)
    got = float(rows[k]["Median"])
    step = DENSITY_LOG_GRID[1] - DENSITY_LOG_GRID[0]
    if abs(math.log(got) - math.log(ref)) > step * (1.0 + 1e-9):
        raise CheckError(f"row {k}: median {got!r}, reference {ref!r}")


VARIOGRAM_EDGES = np.linspace(0.0, 200.0, 16)  # --max-dist 200 --n-bins 15


def matheron(locs, z, edges):
    """Independent Matheron estimate over the half-open bins [e_k, e_k+1).

    Rows of (lag centre, mean pair distance, gamma, pairs); an empty bin has
    None for the mean distance and gamma. Pairs at distance 0 are left out.
    """
    iu, ju = np.triu_indices(len(z), k=1)
    d = np.sqrt(((locs[iu] - locs[ju]) ** 2).sum(axis=1))
    hsd = 0.5 * (z[iu] - z[ju]) ** 2
    k = np.searchsorted(edges, d, side="right") - 1
    k[(d <= 0.0) | (d >= edges[-1])] = -1
    rows = []
    for b in range(len(edges) - 1):
        sel = k == b
        n = int(sel.sum())
        mean = (float(d[sel].mean()), float(hsd[sel].mean())) if n else (None, None)
        rows.append((0.5 * (edges[b] + edges[b + 1]),) + mean + (n,))
    return rows


def check_variogram(path, locs, z):
    rows = read_rows(path)
    expected = matheron(locs, z, VARIOGRAM_EDGES)
    if len(rows) != len(expected):
        raise CheckError(f"variogram.csv has {len(rows)} bins, expected {len(expected)}")
    for k, (row, (centre, dist, gamma, n)) in enumerate(zip(rows, expected)):
        if int(row["n_pairs"]) != n or not _rel_close(float(row["lag_center"]), centre, 0.0):
            raise CheckError(f"variogram bin {k}: {row}, reference {centre!r} with {n} pairs")
        if n and not (_rel_close(float(row["mean_pair_distance"]), dist, 0.0)
                      and _rel_close(float(row["gamma_hat"]), gamma, 0.0)):
            raise CheckError(f"variogram bin {k}: {row}, reference {dist!r}, {gamma!r}")


def ols_objective(p, h, g):
    """sum (g - gamma(h))^2 of the nested Matern p over bins at lags h > 0."""
    model = p[0] + p[1] + p[4] - matern(h, p[1], p[2], p[3]) - matern(h, p[4], p[5], p[6])
    resid = g - model
    return float(resid @ resid)


def nested_start(h, g):
    """The documented nested-Matern start heuristics, clipped into the box."""
    nugget = g[0] - (g[0] - g[1]) / (h[0] - h[1]) * h[0]
    sill1, sill2 = float(np.var(g, ddof=1)), float(np.percentile(g, 75))

    def range_below(threshold):
        below = h[g < threshold]
        return float(below.max()) if below.size else float(h.max())

    start = [nugget if nugget >= 0.0 else 0.01, sill1, range_below(sill1), 0.5,
             sill2, range_below(sill2), 0.5]
    return np.clip(start, NESTED_LOWER, NESTED_UPPER)


def read_table(path):
    """Columns of a simulated-variogram table: lag, dist, n, sim1..."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:] if ln])


def check_fits(draws_path, table_path, n_expected):
    """Every converged fit lies in the box, reproduces its OLS objective and
    is no worse than the start it was fitted from."""
    rows = read_rows(draws_path)
    if len(rows) != n_expected:
        raise CheckError(f"draws.csv has {len(rows)} rows, expected {n_expected}")
    table = read_table(table_path)
    if table.shape[1] != 3 + n_expected:
        raise CheckError(f"variogram table has {table.shape[1] - 3} simulations")
    for k, row in enumerate(rows):
        if row["converged"] != "true":
            continue
        p = np.array([float(row[c]) for c in PARAM_NAMES])
        if not (np.all(p >= NESTED_LOWER) and np.all(p <= NESTED_UPPER)):
            raise CheckError(f"draw {k} outside the fit bounds: {p}")
        keep = (table[:, 2] > 0) & np.isfinite(table[:, 3 + k])
        h, g = table[keep, 1], table[keep, 3 + k]
        got, ref = float(row["objective"]), ols_objective(p, h, g)
        if not _rel_close(got, ref, 0.0):
            raise CheckError(f"draw {k}: objective {got!r}, recomputed {ref!r}")
        start = ols_objective(nested_start(h, g), h, g)
        if ref > start * (1.0 + 1e-8):
            raise CheckError(f"draw {k}: objective {ref!r} above its start's {start!r}")


def check_copula(path):
    with open(path) as fh:
        fields = dict(ln.split("=", 1) for ln in fh.read().splitlines() if ln)
    expected = {"family", "theta", "theta_code", "loglik", "converged", "n_dropped", "unreliable"}
    if set(fields) != expected:
        raise CheckError(f"copula.txt keys {sorted(fields)}")
    for key in ("theta", "theta_code", "loglik"):
        float(fields[key])
    int(fields["n_dropped"])


KRIGE_GLOBAL_GRID = (20, 15)
KRIGE_LOCAL_GRID = (100, 74)
DENSITY_GRID = (20, 15)
KRIGE_LOCAL_RADIUS = 45.0
DENSITY_RADIUS = 40.0


def _check_posterior(seed, indir, outdir, rng):
    locs, values = make_dataset(seed)
    check_variogram(os.path.join(outdir, "variogram.csv"), locs, np.log(values))
    # the table the fits were made on, from the same model, seed and bins
    simdir = outdir + ".check"
    run_cli(["simulate", "--input", os.path.join(indir, "data.csv"), "--log", "--model", MODEL_TEXT,
             "--sims", str(N_DRAWS), "--seed", str(POSTERIOR_SEED), "--max-dist", "200",
             "--n-bins", "15", "--out", simdir])
    check_fits(os.path.join(outdir, "draws.csv"), os.path.join(simdir, "variograms.csv"),
               N_DRAWS)
    check_copula(os.path.join(outdir, "copula.txt"))


def _check_maps(seed, indir, outdir, rng):
    data = make_dataset(seed)
    check_krige(os.path.join(outdir, "krige_global"), data, "ordinary", math.inf,
                KRIGE_GLOBAL_GRID[0] * KRIGE_GLOBAL_GRID[1], rng)
    check_krige(os.path.join(outdir, "krige_local"), data, "bayes", KRIGE_LOCAL_RADIUS,
                KRIGE_LOCAL_GRID[0] * KRIGE_LOCAL_GRID[1], rng)
    check_density(os.path.join(outdir, "density_local"), data, make_draws(seed),
                  DENSITY_RADIUS, DENSITY_GRID[0] * DENSITY_GRID[1], rng)


def _cells(grid):
    return grid[0] * grid[1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("posterior_chain", [
            Step("variogram", variogram_argv),
            Step("posterior", posterior_argv, rows="draws.csv", n_items=N_DRAWS),
            Step("copula-fit", copula_argv),
        ], _check_posterior),
        Workload("maps", [
            Step("krige_global", krige_argv("ordinary", *KRIGE_GLOBAL_GRID, None,
                                            "krige_global"),
                 rows="krige_global/krige.csv", n_items=_cells(KRIGE_GLOBAL_GRID)),
            Step("krige_local", krige_argv("bayes", *KRIGE_LOCAL_GRID, KRIGE_LOCAL_RADIUS,
                                           "krige_local"),
                 rows="krige_local/krige.csv", n_items=_cells(KRIGE_LOCAL_GRID)),
            Step("density_local", density_argv(*DENSITY_GRID, DENSITY_RADIUS, "density_local"),
                 rows="density_local/density_map.csv", n_items=_cells(DENSITY_GRID)),
        ], _check_maps),
    )
}

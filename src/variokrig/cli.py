"""Command-line front end.

Subcommands: synth, variogram, fit, krige, simulate, posterior, density,
copula-fit. Every stochastic command requires an explicit --seed and is a
pure function of its inputs, so reruns reproduce outputs byte for byte.
All files land in the directory given by --out; on failure the partial
outputs of the failing command are removed and the exit status is 1 for
user errors, 2 for numeric failures. Every warning is one `warning:` line
on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import bayes, copula, empvario, fit, krige, models, sim
from .exceptions import DomainError, FormatError, NumericError, VariokrigError
from .util import FIT_METHODS, KRIGE_METHODS, MIN_NEIGHBORS, fmt_float

# Matern parameters of the synthetic generator standing in for the
# original (non-distributable) survey data; log-scale mean to match its
# reported location.
SYNTH_MODEL = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
SYNTH_MEAN = 0.66
SYNTH_REGION = (-148.0, 149.0, -108.0, 109.0)

ESTIMATORS = ("matheron", "cressie_hawkins", "huber")

_LOCATION_STREAM = np.uint64(2**63)


class UsageError(VariokrigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class OutputDir:
    """Tracks files written by one command so failures can clean up."""

    def __init__(self, path: str):
        self.path = path
        self.created: list[str] = []
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {path!r}: {exc}") from None

    def write_text(self, name: str, text: str) -> str:
        return self._write(name, text.encode("utf-8"))

    def write_bytes(self, name: str, blob: bytes) -> str:
        return self._write(name, blob)

    def _write(self, name: str, blob: bytes) -> str:
        if os.path.basename(name) != name:
            raise UsageError(f"output name {name!r} must be a bare file name")
        full = os.path.join(self.path, name)
        with open(full, "wb") as fh:
            fh.write(blob)
        self.created.append(full)
        return full

    def cleanup(self):
        for full in self.created:
            try:
                os.unlink(full)
            except OSError:
                pass


def _read_lines(path: str, flag: str) -> list[str]:
    """The stripped, non-blank lines of the UTF-8 text file given by `flag`.
    Every input file is read here, so an unreadable path is one user error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"argument {flag}: cannot read {path}: {exc}") from None


def ingest_csv(path: str, log_transform: bool = False,
               report_duplicates: bool = True) -> empvario.SpatialDataset:
    """Read an EASTING,NORTHING,VALUE table (case-insensitive header).

    Row order is preserved; duplicate locations are kept with a warning
    count on stderr, unless `report_duplicates` is False: maps and densities
    drop them from their neighbourhoods and warn about that themselves.
    --log takes natural logs and requires positive values.
    """
    lines = _read_lines(path, "--input")
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = [c.strip().upper() for c in lines[0].split(",")]
    try:
        cols = [header.index(k) for k in ("EASTING", "NORTHING", "VALUE")]
    except ValueError:
        raise FormatError(
            f"{path}: header must contain EASTING,NORTHING,VALUE, got {lines[0]!r}"
        ) from None
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise FormatError(f"{path}: row {i} has {len(cells)} cells, expected {len(header)}")
        try:
            rows.append([float(cells[c]) for c in cols])
        except ValueError:
            bad = next(c for c in cols if not _is_float(cells[c]))
            raise FormatError(
                f"{path}: non-numeric {header[bad]} on row {i}: {cells[bad]!r}"
            ) from None
        if not math.isfinite(rows[-1][2]):
            raise FormatError(f"{path}: non-finite VALUE on row {i}: {cells[cols[2]]!r}")
    if not rows:
        raise FormatError(f"{path}: empty dataset (header only)")
    arr = np.array(rows, dtype=float)
    locs, vals = arr[:, :2], arr[:, 2]
    # rows equal to their successor in sorted order: the count of
    # np.unique(locs, axis=0), whose first call would import numpy.ma
    ordered = locs[np.lexsort(locs.T[::-1])]
    duplicates = int(np.count_nonzero(np.all(ordered[1:] == ordered[:-1], axis=1)))
    if duplicates and report_duplicates:
        print(f"warning: {duplicates} duplicate locations kept", file=sys.stderr)
    if log_transform:
        if np.any(vals <= 0.0):
            raise DomainError("log transform requires strictly positive values")
        vals = np.log(vals)
    return empvario.SpatialDataset(locs, vals)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _dataset_csv(data: empvario.SpatialDataset) -> str:
    lines = ["EASTING,NORTHING,VALUE"]
    for (x, y), v in zip(data.locations, data.values):
        lines.append(f"{fmt_float(x)},{fmt_float(y)},{fmt_float(v)}")
    return "\n".join(lines) + "\n"


def _grid_from_args(args) -> np.ndarray:
    nx, ny, xmin, xmax, ymin, ymax = args.grid
    return sim.make_grid(xmin, xmax, ymin, ymax, nx, ny)


def _bin_edges(args, locations: np.ndarray) -> np.ndarray:
    """--n-bins equal bins from 0 to --max-dist, which defaults to half the
    diagonal of the locations' bounding box."""
    maxd = args.max_dist
    if maxd is None:
        span = locations.max(axis=0) - locations.min(axis=0)
        maxd = 0.5 * float(np.hypot(*span))
        if maxd == 0.0:
            raise UsageError("all locations coincide: give a positive --max-dist")
    return np.linspace(0.0, maxd, int(args.n_bins) + 1)


def _parse_emp_csv(path: str) -> empvario.EmpiricalVariogram:
    """Read the `variogram` command's table. A bin with no pairs or an empty
    distance or estimate cell is an empty bin; every other cell must be a
    finite number, and the pair count an integer >= 0."""
    lines = _read_lines(path, "--input")
    if not lines or lines[0] != "lag_center,mean_pair_distance,gamma_hat,n_pairs":
        raise FormatError(f"{path}: expected an empirical-variogram CSV header")
    bins = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        try:
            if len(cells) != 4:
                raise ValueError
            center, n_pairs = float(cells[0]), int(cells[3])
            empty = n_pairs == 0 or cells[1] == "" or cells[2] == ""
            dist, gamma = (0.0, 0.0) if empty else (float(cells[1]), float(cells[2]))
            if n_pairs < 0 or not all(map(math.isfinite, (center, dist, gamma))):
                raise ValueError
        except ValueError:
            raise FormatError(f"{path}: bad variogram row {i}: {ln!r}") from None
        if empty:
            bins.append(empvario.VariogramBin(center, None, None, 0))
        else:
            bins.append(empvario.VariogramBin(center, dist, gamma, n_pairs))
    if not bins:
        raise FormatError(f"{path}: no bins found")
    maxd = max(b.lag_center for b in bins)
    return empvario.EmpiricalVariogram(tuple(bins), "matheron", maxd)


def _read_draws(path: str) -> models.PosteriorDraws:
    return models.PosteriorDraws.from_csv("\n".join(_read_lines(path, "--draws")))


# -- subcommand implementations ------------------------------------------------


def _cmd_synth(args, out: OutputDir):
    spec = models.spec_from_text(args.model)
    rng = np.random.Generator(
        np.random.Philox(key=[np.uint64(args.seed), _LOCATION_STREAM])
    )
    xmin, xmax, ymin, ymax = args.region
    locs = np.column_stack(
        [rng.uniform(xmin, xmax, args.n), rng.uniform(ymin, ymax, args.n)]
    )
    batch = sim.simulate_gaussian_field(locs, spec, args.mean, 1, args.seed)
    values = np.exp(batch.realizations[:, 0])
    out.write_text("synth.csv", _dataset_csv(empvario.SpatialDataset(locs, values)))


def _cmd_variogram(args, out: OutputDir):
    data = ingest_csv(args.input, args.log)
    edges = _bin_edges(args, data.locations)
    direction = None
    if args.direction is not None:
        direction = empvario.Direction(
            math.radians(args.direction), math.radians(args.tolerance)
        )
    if args.cloud:
        cloud = empvario.variogram_cloud(data, float(edges[-1]))
        lines = ["distance,half_sq_diff"]
        lines += [f"{fmt_float(d)},{fmt_float(v)}" for d, v in cloud]
        out.write_text("cloud.csv", "\n".join(lines) + "\n")
        return
    if args.estimator == "huber":
        emp = empvario.huber_robust_variogram(data, edges, c=args.huber_c, direction=direction)
    else:
        emp = empvario.empirical_variogram(data, edges, args.estimator, direction)
    out.write_text("variogram.csv", emp.to_csv())


def _cmd_fit(args, out: OutputDir):
    emp = _parse_emp_csv(args.input)
    result = fit.fit_variogram(emp, args.family, args.method, args.bounds)
    out.write_text("fit.csv", fit.fit_results_to_csv([result], args.family))


def _cmd_krige(args, out: OutputDir):
    data = ingest_csv(args.input, args.log, report_duplicates=False)
    spec = models.spec_from_text(args.model)
    if args.at_data:
        grid = data.locations
    elif args.at is not None:
        grid = np.array([args.at])
    else:
        if args.grid is None:
            raise UsageError("krige needs --grid, --at or --at-data")
        grid = _grid_from_args(args)
    basis = None
    prior = None
    if args.method in ("universal", "bayes"):
        basis = krige.TrendBasis.linear(2) if args.basis == "linear" else krige.TrendBasis.constant()
    if args.method == "bayes":
        k = len(basis)
        prior = krige.BayesPrior(
            np.full(k, args.prior_mean), args.prior_var * np.eye(k)
        )
    radius = args.radius if args.radius is not None else math.inf
    rows = krige.krige_map(
        grid, args.method, data, spec, radius,
        min_neighbors=args.min_neighbors, mean=args.mean, basis=basis, prior=prior,
    )
    out.write_text("krige.csv", krige.krige_map_csv(rows))
    if args.pgm:
        if args.at is not None or args.at_data or args.grid is None:
            raise UsageError("--pgm needs a rectangular --grid")
        out.write_text("krige.pgm", _pgm(rows, *args.grid[:2]))


def _pgm(rows, nx: int, ny: int) -> str:
    """Grayscale map of the predictions, linear value-to-gray, missing = 0."""
    vals = np.full((nx, ny), np.nan)
    for idx, row in enumerate(rows):
        if row.result is not None:
            vals[idx // ny, idx % ny] = row.result.prediction
    finite = np.isfinite(vals)
    if np.any(finite):
        lo, hi = vals[finite].min(), vals[finite].max()
        span = hi - lo if hi > lo else 1.0
        gray = np.where(finite, 1.0 + 254.0 * (vals - lo) / span, 0.0)
    else:
        gray = np.zeros_like(vals)
    lines = [f"P2", f"{nx} {ny}", "255"]
    for j in range(ny - 1, -1, -1):  # north at the top
        lines.append(" ".join(str(int(round(gray[i, j]))) for i in range(nx)))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args, out: OutputDir):
    spec = models.spec_from_text(args.model)
    data = None
    if args.conditional:
        if not args.input:
            raise UsageError("--conditional requires --input data")
        data = ingest_csv(args.input, args.log)
        locs = data.locations if args.grid is None else _grid_from_args(args)
    elif args.input:
        locs = ingest_csv(args.input, args.log).locations
    else:
        if args.grid is None:
            raise UsageError("simulate needs --grid or --input")
        locs = _grid_from_args(args)
    edges = _bin_edges(args, locs)
    route = sim.kl_simulate if args.route == "kl" else sim.simulate_gaussian_field
    batch = sim.simulate_fields(locs, spec, args.mean, args.sims, args.seed, data, route)
    out.write_bytes("simbatch.bin", batch.to_binary())
    table = sim.VariogramTable.of_fields(locs, batch.realizations, edges)
    out.write_text("variograms.csv", table.to_csv())


def _cmd_posterior(args, out: OutputDir):
    data = ingest_csv(args.input, args.log)
    spec = models.spec_from_text(args.model)
    edges = _bin_edges(args, data.locations)
    table = sim.simulate_variograms(data.locations, spec, edges, args.sims, args.seed,
                                    data if args.conditional else None)
    family = "nested_matern" if args.family == "nested" else "matern"
    results = fit.fit_family_batch(table, family, method=args.method, seed=args.seed)
    out.write_text("draws.csv", fit.fit_results_to_csv(results, family))


def _cmd_density(args, out: OutputDir):
    log_data = ingest_csv(args.input, args.log, report_duplicates=False)
    draws = _read_draws(args.draws)
    grid_cfg = bayes.DensityGrid(args.grid_lo, args.grid_hi, args.grid_step, args.rule)
    if args.at is not None:
        pd = bayes.predictive_density_at(
            args.at, log_data, draws, args.prior_mean, args.prior_var, args.radius, grid_cfg
        )
        if pd is None:
            print("warning: too few neighbors at the requested point", file=sys.stderr)
            out.write_text("density.csv", "value,density,cdf\n")
            return
        out.write_text("density.csv", pd.to_csv())
        summary = ",".join(f"{k}={fmt_float(v)}" for k, v in sorted(pd.summary.items()))
        out.write_text("density_summary.txt", summary + "\n")
    else:
        if args.grid is None:
            raise UsageError("density needs --at or --grid")
        grid = _grid_from_args(args)
        rows = bayes.density_map(
            grid, log_data, draws, args.prior_mean, args.prior_var, args.radius, grid_cfg
        )
        out.write_text("density_map.csv", bayes.density_map_csv(rows))


def _cmd_copula_fit(args, out: OutputDir):
    draws = _read_draws(args.draws)
    result = copula.fit_copula_mle(draws)
    lines = [
        f"family={result.family}",
        f"theta={fmt_float(result.theta)}",
        f"theta_code={fmt_float(result.theta_code)}",
        f"loglik={fmt_float(result.loglik)}",
        f"converged={'true' if result.converged else 'false'}",
        f"n_dropped={result.n_dropped}",
        f"unreliable={'true' if result.unreliable else 'false'}",
    ]
    out.write_text("copula.txt", "\n".join(lines) + "\n")
    out.write_text("joint_density.csv", copula.joint_density_csv(draws, result))


# -- argument plumbing ----------------------------------------------------------


def _seed(text: str) -> int:
    """--seed: an integer in [0, 2**64), the range of a Philox key word."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {seed}")
    return seed


def _integer(text: str, least: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
    return n


def _count(text: str) -> int:
    """A count flag such as --n, --n-bins or --sims: an integer >= 1."""
    return _integer(text, 1)


def _min_neighbors(text: str) -> int:
    """--min-neighbors: an integer >= 0."""
    return _integer(text, 0)


def _finite(text: str) -> float:
    """A real-valued flag such as --mean: a finite number."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _nonnegative(text: str) -> float:
    """A flag such as --prior-var or --tolerance: a finite number >= 0."""
    x = _finite(text)
    if x < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return x


def _positive(text: str) -> float:
    """A flag such as --max-dist or --huber-c: a finite number > 0."""
    x = _finite(text)
    if x <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


class _GridAction(argparse.Action):
    """--grid NX NY XMIN XMAX YMIN YMAX: two counts, then four finite bounds."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            grid = [_count(v) for v in values[:2]] + [_finite(v) for v in values[2:]]
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, grid)


class _RegionAction(argparse.Action):
    """--region XMIN XMAX YMIN YMAX: four finite numbers, min < max on each axis."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            region = [_finite(v) for v in values]
        except argparse.ArgumentTypeError:
            region = None
        if region is None or not (region[0] < region[1] and region[2] < region[3]):
            raise argparse.ArgumentError(
                self, "expected four finite numbers with XMIN < XMAX and YMIN < YMAX, "
                f"got {' '.join(values)}")
        setattr(namespace, self.dest, region)


def _bounds(text: str) -> fit.FitBounds:
    """--bounds LO1,LO2,...:HI1,HI2,...: equal-length lists, each LO < HI."""
    lo_txt, _, hi_txt = text.partition(":")
    try:
        lo, hi = ([float(v) for v in part.split(",")] for part in (lo_txt, hi_txt))
        return fit.FitBounds(np.array(lo), np.array(hi))
    except (ValueError, DomainError):
        raise argparse.ArgumentTypeError(
            f"expected LO1,LO2,...:HI1,HI2,... with each LO < HI, got {text!r}") from None


def _location(text: str) -> list[float]:
    """--at: exactly two finite numbers X,Y."""
    try:
        xy = [float(v) for v in text.split(",")]
    except ValueError:
        xy = []
    if len(xy) != 2 or not all(math.isfinite(v) for v in xy):
        raise argparse.ArgumentTypeError(f"expected X,Y as two finite numbers, got {text!r}")
    return xy


def _add_common(p, seed_required=False):
    p.add_argument("--out", default=".", help="output directory")
    if seed_required:
        p.add_argument("--seed", type=_seed, required=True, help="RNG seed (mandatory)")


def _add_grid(p, required=False):
    p.add_argument(
        "--grid", nargs=6, metavar=("NX", "NY", "XMIN", "XMAX", "YMIN", "YMAX"),
        action=_GridAction, required=required, help="rectangular grid spec",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="variokrig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthetic lognormal dataset")
    _add_common(p, seed_required=True)
    p.add_argument("--n", type=_count, default=200)
    p.add_argument("--model", default=SYNTH_MODEL)
    p.add_argument("--mean", type=_finite, default=SYNTH_MEAN, help="log-scale mean")
    p.add_argument("--region", nargs=4, action=_RegionAction, default=list(SYNTH_REGION),
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("variogram", help="empirical variogram estimation")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--estimator", choices=ESTIMATORS, default="matheron")
    p.add_argument("--huber-c", type=_positive, default=2.0)
    p.add_argument("--max-dist", type=_positive, default=None)
    p.add_argument("--n-bins", type=_count, default=15)
    p.add_argument("--direction", type=_finite, default=None, help="degrees from east")
    p.add_argument("--tolerance", type=_nonnegative, default=22.5, help="degrees")
    p.add_argument("--cloud", action="store_true", help="emit the variogram cloud")
    p.set_defaults(func=_cmd_variogram)

    p = sub.add_parser("fit", help="fit a variogram model to a binned estimate")
    _add_common(p)
    p.add_argument("--input", required=True, help="empirical-variogram CSV")
    p.add_argument("--family", default="nested_matern")
    p.add_argument("--method", choices=FIT_METHODS, default="wls")
    p.add_argument("--bounds", type=_bounds, default=None, help="lo1,lo2,...:hi1,hi2,...")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("krige", help="kriging prediction map")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=KRIGE_METHODS, default="ordinary")
    _add_grid(p)
    p.add_argument("--at", type=_location, default=None, help="single location X,Y")
    p.add_argument("--at-data", action="store_true", help="predict at the data locations")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--min-neighbors", type=_min_neighbors, default=MIN_NEIGHBORS)
    p.add_argument("--mean", type=_finite, default=0.0, help="known mean (simple)")
    p.add_argument("--basis", choices=("constant", "linear"), default="constant")
    p.add_argument("--prior-mean", type=_finite, default=0.0)
    p.add_argument("--prior-var", type=_nonnegative, default=10000.0)
    p.add_argument("--pgm", action="store_true", help="grayscale heatmap")
    p.set_defaults(func=_cmd_krige)

    p = sub.add_parser("simulate", help="Gaussian field simulation + variogram table")
    _add_common(p, seed_required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--input", default=None)
    p.add_argument("--log", action="store_true")
    _add_grid(p)
    p.add_argument("--sims", type=_count, default=100)
    p.add_argument("--mean", type=_finite, default=0.0)
    p.add_argument("--route", choices=("cholesky", "kl"), default="cholesky")
    p.add_argument("--conditional", action="store_true")
    p.add_argument("--max-dist", type=_positive, default=None)
    p.add_argument("--n-bins", type=_count, default=15)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("posterior", help="simulate + estimate + batch-fit draws")
    _add_common(p, seed_required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--model", required=True)
    p.add_argument("--sims", type=_count, default=100)
    p.add_argument("--method", choices=FIT_METHODS, default="ols")
    p.add_argument("--family", choices=("nested", "matern"), default="nested")
    p.add_argument("--conditional", action="store_true")
    p.add_argument("--max-dist", type=_positive, default=None)
    p.add_argument("--n-bins", type=_count, default=15)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("density", help="predictive density at a point or grid")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--draws", required=True)
    p.add_argument("--at", type=_location, default=None, help="single location X,Y")
    _add_grid(p)
    p.add_argument("--radius", type=float, default=40.0)
    p.add_argument("--prior-mean", type=_finite, default=0.0)
    p.add_argument("--prior-var", type=_nonnegative, default=10000.0)
    p.add_argument("--grid-lo", type=_finite, default=-5.0)
    p.add_argument("--grid-hi", type=_finite, default=6.5)
    p.add_argument("--grid-step", type=_finite, default=0.01)
    p.add_argument("--rule", choices=("trapezoid", "forward"), default="trapezoid")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("copula-fit", help="dependence of the posterior draws")
    _add_common(p)
    p.add_argument("--draws", required=True)
    p.set_defaults(func=_cmd_copula_fit)

    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    out = None
    try:
        args = parser.parse_args(argv)
        out = OutputDir(args.out)
        args.func(args, out)
        return 0
    except (UsageError, FormatError, DomainError) as exc:
        if out is not None:
            out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        if out is not None:
            out.cleanup()
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        if out is not None:
            out.cleanup()
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

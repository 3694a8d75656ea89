import math
import os
import re

import numpy as np
import pytest

from variokrig.cli import main

SYNTH_NONUG = "kind=matern nugget=0.0 sill=2.4523 range=122.79 nu=0.5"


def run(*argv) -> int:
    return main(list(argv))


def read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def make_synth(tmp_path, name="a", seed=1, n=60):
    out = tmp_path / name
    code = run("synth", "--seed", str(seed), "--n", str(n), "--out", str(out))
    assert code == 0
    return out / "synth.csv"


# -- synth ------------------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    f1 = make_synth(tmp_path, "a", seed=1)
    f2 = make_synth(tmp_path, "b", seed=1)
    assert read(f1) == read(f2)
    f3 = make_synth(tmp_path, "c", seed=2)
    assert read(f1) != read(f3)


def test_synth_values_positive(tmp_path):
    path = make_synth(tmp_path)
    lines = read(path).strip().splitlines()
    assert lines[0] == "EASTING,NORTHING,VALUE"
    vals = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.all(vals > 0.0)
    assert len(vals) == 60


def test_synth_requires_seed(tmp_path, capsys):
    assert run("synth", "--out", str(tmp_path / "x")) == 1
    assert "seed" in capsys.readouterr().err


# -- ingestion errors ----------------------------------------------------------------


def test_header_only_file_rejected(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("EASTING,NORTHING,VALUE\n")
    code = run("variogram", "--input", str(src), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "empty dataset" in capsys.readouterr().err


def test_non_numeric_cell_cites_row(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    rows = ["EASTING,NORTHING,VALUE"]
    rows += [f"{i}.0,{i}.0,1.0" for i in range(1, 6)]
    rows.append("6.0,6.0,oops")
    src.write_text("\n".join(rows) + "\n")
    code = run("variogram", "--input", str(src), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert "row 7" in err and "VALUE" in err


def test_missing_column_rejected(tmp_path, capsys):
    src = tmp_path / "cols.csv"
    src.write_text("X,Y,VALUE\n1.0,2.0,3.0\n")
    assert run("variogram", "--input", str(src), "--out", str(tmp_path / "o")) == 1
    assert "EASTING" in capsys.readouterr().err


def test_header_case_insensitive_and_reordered(tmp_path):
    src = tmp_path / "ok.csv"
    src.write_text(
        "value,easting,northing\n"
        + "\n".join(f"{v}.5,{v}.0,0.0" for v in range(8))
        + "\n"
    )
    assert run("variogram", "--input", str(src), "--out", str(tmp_path / "o"),
               "--n-bins", "3") == 0


# -- variogram / fit ------------------------------------------------------------------


def test_variogram_then_fit_compose(tmp_path):
    data = make_synth(tmp_path, n=80)
    vdir = tmp_path / "v"
    assert run("variogram", "--input", str(data), "--log", "--out", str(vdir),
               "--max-dist", "200", "--n-bins", "12") == 0
    text = read(vdir / "variogram.csv")
    assert text.splitlines()[0] == "lag_center,mean_pair_distance,gamma_hat,n_pairs"
    fdir = tmp_path / "f"
    assert run("fit", "--input", str(vdir / "variogram.csv"), "--family", "matern",
               "--method", "wls", "--out", str(fdir)) == 0
    fit_text = read(fdir / "fit.csv")
    assert fit_text.splitlines()[0] == "nugget,sill,range,shape,objective,converged"


def test_variogram_cloud_output(tmp_path):
    data = make_synth(tmp_path, n=30)
    cdir = tmp_path / "c"
    assert run("variogram", "--input", str(data), "--out", str(cdir),
               "--max-dist", "100", "--cloud") == 0
    lines = read(cdir / "cloud.csv").strip().splitlines()
    assert lines[0] == "distance,half_sq_diff"
    assert len(lines) > 1


# -- krige -----------------------------------------------------------------------------


def test_krige_exactness_smoke(tmp_path):
    data = make_synth(tmp_path, n=40)
    kdir = tmp_path / "k"
    code = run(
        "krige", "--input", str(data), "--model", SYNTH_NONUG,
        "--method", "ordinary", "--at-data", "--out", str(kdir),
    )
    assert code == 0
    lines = read(kdir / "krige.csv").strip().splitlines()
    data_lines = read(data).strip().splitlines()[1:]
    assert lines[0] == "x,y,prediction,sd,n_neighbors,status"
    for out_line, in_line in zip(lines[1:], data_lines):
        cells = out_line.split(",")
        assert cells[-1] == "ok"
        assert float(cells[2]) == pytest.approx(float(in_line.split(",")[2]), abs=1e-6)


def test_krige_grid_and_pgm(tmp_path):
    data = make_synth(tmp_path, n=50)
    kdir = tmp_path / "k"
    code = run(
        "krige", "--input", str(data), "--log", "--model", SYNTH_NONUG.replace("nugget=0.0", "nugget=0.0661"),
        "--method", "bayes", "--grid", "5", "4", "-100", "100", "-80", "80",
        "--radius", "150", "--out", str(kdir), "--pgm",
    )
    assert code == 0
    lines = read(kdir / "krige.csv").strip().splitlines()
    assert len(lines) == 21
    pgm = read(kdir / "krige.pgm").splitlines()
    assert pgm[0] == "P2" and pgm[1] == "5 4"


def test_partial_output_removed_on_failure(tmp_path):
    data = make_synth(tmp_path, n=40)
    kdir = tmp_path / "k"
    code = run(
        "krige", "--input", str(data), "--model", SYNTH_NONUG,
        "--method", "ordinary", "--at", "0,0", "--pgm", "--out", str(kdir),
    )
    assert code == 1
    assert not (kdir / "krige.csv").exists()  # cleaned up


def test_bad_model_string_is_user_error(tmp_path, capsys):
    data = make_synth(tmp_path, n=10)
    assert run("krige", "--input", str(data), "--model", "kind=matern nugget=0",
               "--method", "ordinary", "--at", "0,0", "--out", str(tmp_path / "x")) == 1


# -- simulate --------------------------------------------------------------------------


def test_simulate_outputs(tmp_path):
    sdir = tmp_path / "s"
    code = run(
        "simulate", "--seed", "3", "--model", "kind=exponential nugget=0.0 sill=1.0 range=3.0",
        "--grid", "4", "4", "0", "10", "0", "10", "--sims", "5",
        "--max-dist", "9", "--n-bins", "4", "--out", str(sdir),
    )
    assert code == 0
    blob = (sdir / "simbatch.bin").read_bytes()
    assert blob[:4] == b"SIMB"
    assert len(blob) == 16 + 8 * 16 * 5
    table = read(sdir / "variograms.csv")
    assert table.splitlines()[0] == "lag,dist,n,sim1,sim2,sim3,sim4,sim5"


# -- posterior / density / copula-fit ---------------------------------------------------


def _pipeline(tmp_path, tag, threads=None, monkeypatch=None):
    if monkeypatch is not None and threads is not None:
        monkeypatch.setenv("VARIOKRIG_THREADS", str(threads))
    data = make_synth(tmp_path, f"{tag}-data", seed=5, n=45)
    pdir = tmp_path / f"{tag}-post"
    assert run(
        "posterior", "--input", str(data), "--log",
        "--model", "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5",
        "--sims", "12", "--seed", "5", "--max-dist", "220", "--n-bins", "10",
        "--out", str(pdir),
    ) == 0
    ddir = tmp_path / f"{tag}-dens"
    assert run(
        "density", "--input", str(data), "--log", "--draws", str(pdir / "draws.csv"),
        "--grid", "3", "3", "-100", "100", "-80", "80", "--radius", "200",
        "--out", str(ddir),
    ) == 0
    cdir = tmp_path / f"{tag}-cop"
    assert run("copula-fit", "--draws", str(pdir / "draws.csv"), "--out", str(cdir)) == 0
    return [pdir / "draws.csv", ddir / "density_map.csv", cdir / "copula.txt",
            cdir / "joint_density.csv"]


def test_pipeline_composes_and_is_deterministic(tmp_path, monkeypatch):
    first = _pipeline(tmp_path, "one")
    second = _pipeline(tmp_path, "two")
    for a, b in zip(first, second):
        assert read(a) == read(b)
    draws_text = read(first[0])
    assert draws_text.splitlines()[0] == (
        "nugget,sill1,range1,nu1,sill2,range2,nu2,objective,converged"
    )
    dens_lines = read(first[1]).strip().splitlines()
    assert dens_lines[0].startswith("x,y,Modal,Median,Mean")
    assert "theta=" in read(first[2])


def test_density_single_point_matches_closed_form(tmp_path):
    import variokrig as vk

    data_path = make_synth(tmp_path, n=30)
    draws_path = tmp_path / "draws.csv"
    draws_path.write_text(
        "nugget,sill,range,shape,objective,converged\n"
        "0.05,1.2,60.0,0.5,0.0,true\n"
    )
    ddir = tmp_path / "d"
    assert run(
        "density", "--input", str(data_path), "--log", "--draws", str(draws_path),
        "--at", "0,0", "--radius", "1000", "--prior-mean", "0.3", "--prior-var", "5.0",
        "--out", str(ddir),
    ) == 0
    lines = read(ddir / "density.csv").strip().splitlines()
    assert lines[0] == "value,density,cdf"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    # closed-form lognormal from the kriging moments
    data = vk.SpatialDataset(
        *(lambda arr: (arr[:, :2], np.log(arr[:, 2])))(
            np.array([[float(c) for c in ln.split(",")]
                      for ln in read(data_path).strip().splitlines()[1:]])
        )
    )
    spec = vk.CovarianceSpec("matern", 0.05, 1.2, 60.0, 0.5)
    bk = vk.bayes_kriging([0.0, 0.0], data, spec, vk.TrendBasis.constant(),
                          vk.BayesPrior.scalar(0.3, 5.0))
    m, s = bk.prediction, bk.sd
    y = rows[:, 0]
    expect = np.exp(-((np.log(y) - m) ** 2) / (2.0 * s**2)) / (y * s * math.sqrt(2.0 * math.pi))
    interior = (rows[:, 2] > 1e-3) & (rows[:, 2] < 1.0 - 1e-3)
    assert np.abs(rows[interior, 1] / expect[interior] - 1.0).max() < 1e-6


@pytest.mark.parametrize("command", ["krige", "density"])
def test_nan_radius_is_user_error(tmp_path, capsys, command):
    data_path = make_synth(tmp_path, n=20)
    capsys.readouterr()
    if command == "krige":
        extra = ["--model", SYNTH_NONUG, "--method", "ordinary"]
    else:
        draws_path = tmp_path / "draws.csv"
        draws_path.write_text("nugget,sill,range,shape\n0.05,1.2,60.0,0.5\n")
        extra = ["--log", "--draws", str(draws_path)]
    code = run(command, "--input", str(data_path), *extra, "--at", "0,0",
               "--radius", "nan", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_density_too_few_neighbors_writes_empty(tmp_path, capsys):
    data_path = make_synth(tmp_path, n=20)
    draws_path = tmp_path / "draws.csv"
    draws_path.write_text("nugget,sill,range,shape\n0.05,1.2,60.0,0.5\n")
    ddir = tmp_path / "d"
    assert run(
        "density", "--input", str(data_path), "--log", "--draws", str(draws_path),
        "--at", "5000,5000", "--radius", "10", "--out", str(ddir),
    ) == 0
    assert read(ddir / "density.csv") == "value,density,cdf\n"
    assert capsys.readouterr().err == "warning: too few neighbors at the requested point\n"


def test_all_outputs_inside_out_dir(tmp_path):
    before = set(os.listdir(tmp_path))
    make_synth(tmp_path, "only")
    after = set(os.listdir(tmp_path))
    assert after - before == {"only"}


def test_posterior_matern_family_feeds_density(tmp_path):
    data = make_synth(tmp_path, "m4", seed=9, n=40)
    pdir = tmp_path / "p4"
    assert run(
        "posterior", "--input", str(data), "--log",
        "--model", "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5",
        "--family", "matern", "--sims", "12", "--seed", "9",
        "--max-dist", "220", "--n-bins", "10", "--out", str(pdir),
    ) == 0
    header = read(pdir / "draws.csv").splitlines()[0]
    assert header == "nugget,sill,range,shape,objective,converged"
    ddir = tmp_path / "d4"
    assert run(
        "density", "--input", str(data), "--log", "--draws", str(pdir / "draws.csv"),
        "--at", "0,0", "--radius", "400", "--out", str(ddir),
    ) == 0
    assert read(ddir / "density.csv").startswith("value,density,cdf")


def test_simulate_kl_route(tmp_path):
    sdir = tmp_path / "kl"
    assert run(
        "simulate", "--seed", "4", "--model", "kind=exponential nugget=0.0 sill=1.0 range=3.0",
        "--grid", "3", "3", "0", "9", "0", "9", "--sims", "4", "--route", "kl",
        "--max-dist", "8", "--n-bins", "3", "--out", str(sdir),
    ) == 0
    assert (sdir / "simbatch.bin").exists()


@pytest.mark.parametrize("route,conditional", [
    ("cholesky", False), ("kl", False), ("cholesky", True), ("kl", True),
], ids=["cholesky", "kl", "cholesky-conditional", "kl-conditional"])
def test_simulate_table_is_the_table_of_the_written_fields(tmp_path, count_calls, route,
                                                           conditional):
    # one route call per command, and the table bins exactly the written
    # fields, conditioned or not
    from variokrig import SpatialDataset, empirical_variogram, make_grid
    from variokrig.sim import SimBatch

    extra = []
    if conditional:
        extra = ["--conditional", "--input", str(make_synth(tmp_path, seed=8, n=12)), "--log"]
    calls = {name: count_calls("variokrig.sim", name)
             for name in ("simulate_gaussian_field", "kl_simulate")}
    sdir = tmp_path / route
    assert run(
        "simulate", "--seed", "4", "--model", "kind=exponential nugget=0.0 sill=1.0 range=3.0",
        "--grid", "5", "5", "0", "9", "0", "9", "--sims", "4", "--route", route,
        "--max-dist", "8", "--n-bins", "3", *extra, "--out", str(sdir),
    ) == 0
    route_fn = "kl_simulate" if route == "kl" else "simulate_gaussian_field"
    assert {name: len(c) for name, c in calls.items()} == {
        name: int(name == route_fn) for name in calls}
    fields = SimBatch.read_binary((sdir / "simbatch.bin").read_bytes())
    grid = make_grid(0.0, 9.0, 0.0, 9.0, 5, 5)
    assert fields.shape == (25, 4)
    rows = read(sdir / "variograms.csv").splitlines()[1:]
    for j, field in enumerate(fields.T):
        emp = empirical_variogram(SpatialDataset(grid, field), np.linspace(0.0, 8.0, 4))
        assert [float(row.split(",")[3 + j]) for row in rows] == [b.gamma_hat for b in emp.bins]


@pytest.mark.parametrize("route", ["cholesky", "kl"])
def test_conditional_simulate_writes_fields_that_honor_the_data(tmp_path, route):
    # no nugget and every simulated location a data location: each written
    # field is the (log) data itself
    from variokrig.cli import ingest_csv
    from variokrig.sim import SimBatch

    data = make_synth(tmp_path, seed=6, n=30)
    sdir = tmp_path / "s"
    assert run("simulate", "--seed", "2", "--model", SYNTH_NONUG, "--input", str(data), "--log",
               "--conditional", "--sims", "3", "--route", route, "--out", str(sdir)) == 0
    fields = SimBatch.read_binary((sdir / "simbatch.bin").read_bytes())
    values = ingest_csv(str(data), log_transform=True).values
    assert fields.shape == (30, 3)
    assert np.abs(fields - values[:, None]).max() < 1e-8


def test_posterior_conditional_smoke(tmp_path):
    data = make_synth(tmp_path, "c5", seed=10, n=30)
    pdir = tmp_path / "pc"
    assert run(
        "posterior", "--input", str(data), "--log", "--conditional",
        "--model", "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5",
        "--family", "matern", "--sims", "4", "--seed", "3",
        "--max-dist", "220", "--n-bins", "8", "--out", str(pdir),
    ) == 0
    lines = read(pdir / "draws.csv").splitlines()
    assert lines[0] == "nugget,sill,range,shape,objective,converged"
    assert len(lines) == 5


def test_duplicate_locations_warned_on_ingest(tmp_path, capsys):
    src = tmp_path / "dup.csv"
    rows = ["EASTING,NORTHING,VALUE", "1.0,1.0,2.0", "1.0,1.0,3.0"]
    rows += [f"{i}.0,0.0,1.0" for i in range(2, 9)]
    src.write_text("\n".join(rows) + "\n")
    assert run("variogram", "--input", str(src), "--out", str(tmp_path / "o"),
               "--max-dist", "10", "--n-bins", "3") == 0
    assert "duplicate" in capsys.readouterr().err



def test_each_warning_is_one_line_and_a_duplicate_is_reported_once(tmp_path, capsys):
    # every warning reaches stderr as one `warning:` line, without a file
    # name or source line; a map or density drops a duplicated station from
    # its neighbourhoods and says so once, in place of the reader's "kept"
    data_path = make_synth(tmp_path, n=40)
    dup = tmp_path / "dup.csv"
    lines = read(data_path).splitlines()
    dup.write_text("\n".join(lines + [lines[1]]) + "\n")
    draws_path = tmp_path / "draws.csv"
    draws_path.write_text("nugget,sill,range,shape\n0.05,1.2,60.0,0.5\n0.1,1.0,80.0,0.5\n")
    model = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
    grid = ["--grid", "3", "3", "0", "100", "0", "80"]
    capsys.readouterr()
    for argv, expect in [
        (("krige", "--input", data_path, "--log", "--model", SYNTH_NONUG, "--method",
          "ordinary", "--at-data"),
         r"warning: ordinary kriging: \d+ negative variances clamped to 0"),
        (("density", "--input", dup, "--log", "--draws", draws_path, *grid, "--radius", "200"),
         r"warning: dropped 1 duplicate locations from the neighborhoods of the density map"),
        (("density", "--input", dup, "--log", "--draws", draws_path, "--at", "0,0",
          "--radius", "1000"),
         r"warning: dropped 1 duplicate locations from the neighborhood of the density"),
        (("krige", "--input", dup, "--log", "--model", model, "--method", "bayes", *grid),
         r"warning: dropped 1 duplicate locations from the kriging neighborhoods of the map"),
        (("variogram", "--input", dup, "--log"), r"warning: 1 duplicate locations kept"),
    ]:
        for _ in range(2):  # a second run in the same process warns again
            assert run(*map(str, argv), "--out", str(tmp_path / "o")) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and re.fullmatch(expect, err[0]), (argv[0], err)

def test_duplicate_location_count_is_numpy_unique_count(tmp_path, capsys):
    # 0.0 and -0.0 are one location, as np.unique counts them
    from variokrig.cli import ingest_csv

    rng = np.random.default_rng(11)
    for _ in range(20):
        locs = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), 2)).astype(float)
        zero = locs == 0.0
        locs[zero] *= rng.choice([1.0, -1.0], size=int(zero.sum()))
        src = tmp_path / "locs.csv"
        src.write_text("EASTING,NORTHING,VALUE\n"
                       + "".join(f"{x!r},{y!r},1.0\n" for x, y in locs.tolist()))
        ingest_csv(str(src))
        expected = len(locs) - np.unique(locs, axis=0).shape[0]
        assert capsys.readouterr().err == (
            f"warning: {expected} duplicate locations kept\n" if expected else "")


def test_completely_empty_file_rejected(tmp_path, capsys):
    src = tmp_path / "none.csv"
    src.write_text("")
    assert run("variogram", "--input", str(src), "--out", str(tmp_path / "o")) == 1
    assert "empty file" in capsys.readouterr().err


# Run by a fresh interpreter: the exit status of `variokrig ARGV`, whether
# it loaded numpy, whether scipy's compiled modules load alone here (the
# lockstep fits' L-BFGS-B routine and the special-function ufuncs), and the
# scipy modules loaded.
SCIPY_PROBE = """
import sys
from variokrig import cli, copula, fit, specfun
try:
    status = cli.main({argv!r}) if {argv!r} else 0
except SystemExit as exc:  # --help
    status = exc.code
numpy = "numpy" in sys.modules
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
direct = (fit._setulb() is not None
          and specfun._special().__name__ == "scipy.special._special_ufuncs"
          and copula._line_searches() is not None)
print(status, numpy, direct, *loaded)
"""


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # nor the optimizer, the interpolators or the KD-tree: no command imports
    # those packages, only the modules of them it runs, each loaded alone
    # (the packages load only on the fallbacks for older scipy); and no
    # worker pool or logging, since everything runs on the calling thread
    import subprocess
    import sys

    import variokrig

    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = ("numpy", "scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.spatial",
             "concurrent.futures", "logging")
    for module in ("variokrig", "variokrig.cli"):
        probe = f"import sys, {module}; print([m for m in {heavy!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module

    def probe(*argv):
        out = subprocess.run([sys.executable, "-c", SCIPY_PROBE.format(argv=list(argv))],
                             env=env, capture_output=True, text=True, check=True)
        status, numpy, direct, *loaded = out.stdout.splitlines()[-1].split()
        assert status == "0", out.stderr
        return numpy == "True", direct == "True", loaded

    # scipy loads where it is used: the import and the help load neither
    # numpy nor scipy, and a Matheron variogram needs numpy only
    for argv in ((), ("--help",)):
        assert probe(*argv)[::2] == (False, []), argv
    data = str(make_synth(tmp_path))
    argv = ("variogram", "--input", data, "--log", "--out", str(tmp_path / "v"))
    assert probe(*argv)[::2] == (True, [])
    # the fits of a posterior need scipy's special-function ufuncs and its
    # L-BFGS-B routine, not the scipy.special, scipy.optimize or scipy.linalg
    # packages; a map needs the ufuncs and LAPACK's dtrtrs
    _, direct, loaded = probe(
        "posterior", "--input", data, "--log", "--model", SYNTH_NONUG, "--sims", "4",
        "--seed", "1", "--out", str(tmp_path / "p"))
    import scipy

    assert direct or tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 17)
    if direct:
        assert "scipy.special._special_ufuncs" in loaded
        assert set(loaded) <= {"scipy.special._special_ufuncs", "scipy.optimize._lbfgsb"}, loaded
    maps = (("krige", "--input", data, "--log", "--model", SYNTH_NONUG, "--method", "ordinary",
             "--grid", "4", "3", "0", "100", "0", "80", "--out", str(tmp_path / "k")),
            ("density", "--input", data, "--log", "--draws", str(tmp_path / "p" / "draws.csv"),
             "--grid", "3", "3", "0", "100", "0", "80", "--radius", "200",
             "--out", str(tmp_path / "d")))
    for argv in maps:
        _, direct, loaded = probe(*argv)
        if direct:
            assert loaded == ["scipy.linalg._flapack", "scipy.special._special_ufuncs"], argv
    # the copula fit computes its PCHIP margins in numpy and runs BFGS over
    # scipy's Wolfe line searches, two pure-Python modules
    draws = tmp_path / "draws.csv"
    rows = 1.0 + 0.1 * np.random.default_rng(2).normal(size=(30, 4))
    draws.write_text("nugget,sill,range,nue\n"
                     + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
    _, direct, loaded = probe("copula-fit", "--draws", str(draws), "--out", str(tmp_path / "c"))
    if direct:
        assert loaded == ["scipy.optimize._dcsrch", "scipy.optimize._linesearch"], loaded


# Run by a fresh interpreter: `python -m variokrig ARGV` (with no ARGV, the
# import of variokrig.cli alone), then its exit status and whether numpy
# loaded.
NUMPY_PROBE = """
import runpy, sys
sys.argv = ["variokrig", *{argv!r}]
status = 0
try:
    if {argv!r}:
        runpy.run_module("variokrig", run_name="__main__")
    else:
        import variokrig.cli
except SystemExit as exc:
    status = exc.code
print(status, "numpy" in sys.modules)
"""


def test_parsing_help_and_usage_errors_load_no_numpy(tmp_path):
    # numpy loads once a command starts its work: the import, the help texts
    # and a usage error finish without it
    import subprocess
    import sys

    import variokrig

    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def probe(*argv):
        out = subprocess.run([sys.executable, "-c", NUMPY_PROBE.format(argv=list(argv))],
                             env=env, capture_output=True, text=True)
        status, numpy = out.stdout.splitlines()[-1].split()
        return int(status), numpy == "True", out.stderr.splitlines()

    data = str(make_synth(tmp_path))
    out = str(tmp_path / "o")
    assert probe() == (0, False, [])
    assert probe("--help") == (0, False, [])
    assert probe("density", "--help") == (0, False, [])
    status, numpy, err = probe("krige", "--method", "nope", "--input", data,
                               "--model", SYNTH_NONUG, "--at", "0,0", "--out", out)
    assert (status, numpy) == (1, False)
    assert len(err) == 1 and err[0].startswith("error: argument --method"), err
    assert not os.path.exists(out)
    # a command that computes loads it
    assert probe("variogram", "--input", data, "--log", "--out", out) == (0, True, [])


# The variokrig modules a command ran: the package registers the numerical
# modules unexecuted (`importlib.util.LazyLoader`), and a module counts as
# run once its class is a plain module again. Then whether numpy.random and
# numpy.ma loaded.
MODULE_PROBE = """
import sys, types
from variokrig import cli
try:
    status = cli.main({argv!r})
except SystemExit as exc:  # --help
    status = exc.code
ran = sorted(n.partition(".")[2] for n, m in sys.modules.items()
             if n.startswith("variokrig.") and type(m) is types.ModuleType)
print(status, "numpy.random" in sys.modules, "numpy.ma" in sys.modules, *ran)
"""


def test_each_command_runs_only_its_modules(tmp_path):
    import subprocess
    import sys

    import variokrig

    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def probe(*argv):
        out = subprocess.run([sys.executable, "-c", MODULE_PROBE.format(argv=list(argv))],
                             env=env, capture_output=True, text=True, check=True)
        status, rng, ma, *ran = out.stdout.splitlines()[-1].split()
        assert status == "0", out.stderr
        return rng == "True", ma == "True", set(ran)

    every = {"cli", "exceptions", "util"}
    numeric = every | {"models", "specfun"}
    data = str(make_synth(tmp_path))
    out = str(tmp_path / "o")
    grid = ("--grid", "3", "3", "0", "100", "0", "80")
    steps = [
        (("--help",), False, every),
        (("variogram", "--input", data, "--log", "--out", out),
         False, numeric | {"empvario"}),
        (("fit", "--input", str(tmp_path / "o" / "variogram.csv"), "--out", out),
         False, numeric | {"empvario", "fit"}),
        (("posterior", "--input", data, "--log", "--model", SYNTH_NONUG, "--sims", "12",
          "--seed", "1", "--out", out),  # copula-fit needs at least 10 draws
         True, numeric | {"_linalg", "empvario", "fit", "sim"}),
        (("copula-fit", "--draws", str(tmp_path / "o" / "draws.csv"), "--out", out),
         False, numeric | {"copula"}),
        (("krige", "--input", data, "--log", "--model", SYNTH_NONUG, *grid, "--out", out),
         False, numeric | {"_linalg", "empvario", "krige", "sim"}),
        (("density", "--input", data, "--log", "--draws", str(tmp_path / "o" / "draws.csv"),
          *grid, "--radius", "200", "--out", out),
         False, numeric | {"_linalg", "bayes", "empvario", "krige", "sim"}),
    ]
    # no command loads numpy.ma (np.percentile and np.median would)
    for argv, rng, ran in steps:
        assert probe(*argv) == (rng, False, ran), argv[0]


def test_copula_fit_on_a_strongly_dependent_table_prints_no_warning(tmp_path):
    # the fit probes thetas where the Frank density is not finite; each such
    # probe is a rejected step, not a numpy warning on stderr
    import subprocess
    import sys

    import variokrig

    rng = np.random.default_rng(32)
    z = rng.normal(size=(300, 1))
    rows = 5.0 + z + 0.01 * rng.normal(size=(300, 4))
    draws = tmp_path / "draws.csv"
    draws.write_text("nugget,sill,range,nue\n"
                     + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "variokrig", "copula-fit", "--draws", str(draws),
                          "--out", str(tmp_path / "c")], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert (tmp_path / "c" / "copula.txt").exists()


@pytest.mark.parametrize("center, spread, message", [
    (1e-200, 1e-201, "numeric failure: margin bandwidth 0.0 is not finite and positive"),
    (1e200, 1e199, "numeric failure: margin 1: cdf interpolant is not finite"),
    (1e10, 1e-5, "numeric failure: margin grid is not finite and strictly increasing"),
])
def test_copula_fit_on_extreme_scales_fails_in_one_line(tmp_path, center, spread, message):
    # at 1e-200 the spread of a column underflows to a zero bandwidth; at
    # 1e200 it overflows on the way, and the margin's interpolant overflows;
    # at 1e10 +- 1e-5 the margin's grid is finer than the floats there
    import subprocess
    import sys

    import variokrig

    noise = np.random.default_rng(3).normal(size=(40, 4))
    rows = 1.0 + 0.1 * noise
    rows[:, 0] = center + spread * noise[:, 0]
    draws = tmp_path / "draws.csv"
    draws.write_text("nugget,sill,range,nue\n"
                     + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "variokrig", "copula-fit", "--draws", str(draws),
                          "--out", str(tmp_path / "c")], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.splitlines() == [message]
    assert not (tmp_path / "c" / "copula.txt").exists()


def test_krige_map_with_blas_threads_unset_equals_one_thread(tmp_path):
    # the bytes of a map depend on the BLAS thread count, so the program runs
    # BLAS on one thread unless a thread variable says otherwise
    import subprocess
    import sys

    import variokrig

    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    unset["PYTHONPATH"] = os.pathsep.join(filter(None, [src, unset.get("PYTHONPATH")]))
    one = dict(unset, OPENBLAS_NUM_THREADS="1")

    def cli(env, *argv):
        subprocess.run([sys.executable, "-m", "variokrig", *argv], env=env,
                       capture_output=True, check=True)

    cli(one, "synth", "--seed", "421", "--n", "200", "--out", str(tmp_path / "in"))
    maps = []
    for tag, env in (("unset", unset), ("one", one)):
        cli(env, "krige", "--input", str(tmp_path / "in" / "synth.csv"), "--log",
            "--model", "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5",
            "--grid", "20", "15", "-148", "149", "-108", "109", "--out", str(tmp_path / tag))
        maps.append((tmp_path / tag / "krige.csv").read_bytes())
    assert maps[0] == maps[1]


def test_density_map_with_two_blas_threads_equals_one_thread(tmp_path):
    # a density stacks each size group's systems under many draws; on the
    # benchmark's 20 x 15 grid at radius 40 over 200 stations (sets of at
    # most a few dozen locations) a second BLAS thread changes no byte.
    # OpenBLAS factors a matrix of order 99 or more on several threads, and
    # then in other bits, which the README allows when a thread count is set
    import subprocess
    import sys

    import variokrig

    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli(threads, *argv):
        subprocess.run([sys.executable, "-m", "variokrig", *argv],
                       env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                       check=True)

    cli("1", "synth", "--seed", "422", "--n", "200", "--out", str(tmp_path / "in"))
    rng = np.random.default_rng(422)
    draws = rng.uniform([0.02, 0.8, 20.0, 0.6, 0.6, 90.0, 1.1],
                        [0.15, 1.6, 70.0, 0.9, 1.2, 220.0, 1.4], size=(12, 7))
    (tmp_path / "draws.csv").write_text(
        "nugget,sill1,range1,nu1,sill2,range2,nu2\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in draws.tolist()))
    maps = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        cli(threads, "density", "--input", str(tmp_path / "in" / "synth.csv"), "--log",
            "--draws", str(tmp_path / "draws.csv"), "--grid", "20", "15", "-148", "149",
            "-108", "109", "--radius", "40", "--out", str(out))
        maps.append((out / "density_map.csv").read_bytes())
    assert maps[0] == maps[1]
    assert maps[0].count(b",ok\n") > 100


# -- flag and cell validation ---------------------------------------------------------

GRID = ["--grid", "3", "3", "0", "10", "0", "10"]
EMP_CSV = ("lag_center,mean_pair_distance,gamma_hat,n_pairs\n"
           "5,4.5,0.4,12\n15,14.8,0.9,30\n25,,,0\n35,34.1,1.3,41\n45,44.9,1.5,38\n"
           "55,55.2,1.6,35\n")


@pytest.fixture
def inputs(tmp_path, capsys):
    data = make_synth(tmp_path, n=20)
    draws = tmp_path / "draws.csv"
    draws.write_text("nugget,sill,range,shape\n0.05,1.2,60.0,0.5\n")
    emp = tmp_path / "variogram.csv"
    emp.write_text(EMP_CSV)
    capsys.readouterr()
    return {"DATA": str(data), "DRAWS": str(draws), "EMP": str(emp), "DIR": str(tmp_path),
            "MISSING": str(tmp_path / "missing.csv")}


def assert_user_error(code, capsys, out):
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not out.exists() or not any(out.iterdir())
    return lines[0]


# the offending flag comes last, its offending value last of all
@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "-1"],
    ["synth", "--seed", str(2**64)],
    ["synth", "--seed", "1.5"],
    ["simulate", "--model", SYNTH_NONUG, *GRID, "--seed", "-1"],
    ["posterior", "--input", "DATA", "--model", SYNTH_NONUG, "--seed", "-1"],
    ["variogram", "--input", "DATA", "--n-bins", "-3"],
    ["variogram", "--input", "DATA", "--n-bins", "0"],
    ["simulate", "--seed", "1", "--model", SYNTH_NONUG, *GRID, "--n-bins", "0"],
    ["posterior", "--seed", "1", "--input", "DATA", "--model", SYNTH_NONUG, "--n-bins", "-1"],
    ["simulate", "--seed", "1", "--model", SYNTH_NONUG, *GRID, "--sims", "0"],
    ["posterior", "--seed", "1", "--input", "DATA", "--model", SYNTH_NONUG, "--sims", "-1"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, "--at", "1,2,3"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, "--at", "1"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, "--at", "nan,2"],
    ["density", "--input", "DATA", "--draws", "DRAWS", "--at", "1,inf"],
    ["density", "--input", "DATA", "--draws", "DRAWS", "--at", "a,b"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--grid-lo", "nan"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--grid-hi", "inf"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--grid-step", "nan"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--prior-var", "nan"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--prior-var", "-1"],
    ["density", "--input", "DATA", "--draws", "DRAWS", *GRID, "--prior-mean", "inf"],
    ["density", "--input", "DATA", "--draws", "DRAWS", "--grid", "3", "3", "0", "10", "0", "inf"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, "--grid", "3", "3", "-148", "149",
     "-108", "nan"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, *GRID, "--method", "simple",
     "--mean", "nan"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, *GRID, "--method", "bayes",
     "--prior-var", "-1"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, *GRID, "--method", "bayes",
     "--prior-mean", "nan"],
    ["simulate", "--seed", "1", "--model", SYNTH_NONUG, "--grid", "3", "3", "0", "10", "0",
     "nan"],
    ["simulate", "--seed", "1", "--model", SYNTH_NONUG, *GRID, "--mean", "inf"],
    ["synth", "--seed", "1", "--mean", "nan"],
    ["synth", "--seed", "1", "--n", "-5"],
    ["synth", "--seed", "1", "--region", "nan", "1", "0", "1"],
    ["synth", "--seed", "1", "--region", "5", "1", "0", "1"],
    ["synth", "--seed", "1", "--region", "0", "1", "0", "inf"],
    ["variogram", "--input", "DATA", "--estimator", "huber", "--huber-c", "nan"],
    ["variogram", "--input", "DATA", "--direction", "nan"],
    ["variogram", "--input", "DATA", "--direction", "30", "--tolerance", "-5"],
    ["variogram", "--input", "DATA", "--max-dist", "inf"],
    ["simulate", "--seed", "1", "--model", SYNTH_NONUG, *GRID, "--max-dist", "nan"],
    ["posterior", "--seed", "1", "--input", "DATA", "--model", SYNTH_NONUG, "--max-dist", "inf"],
    ["krige", "--input", "DATA", "--model", SYNTH_NONUG, *GRID, "--radius", "1",
     "--min-neighbors", "-1"],
    ["fit", "--input", "EMP", "--family", "matern", "--bounds", "1,2:x"],
    ["fit", "--input", "EMP", "--family", "matern", "--bounds", "0,0,0"],
    ["fit", "--input", "EMP", "--family", "matern", "--bounds", "0,0:1"],
    ["fit", "--input", "EMP", "--family", "matern", "--bounds", "0,0,0,0:1,1,nan,1"],
    ["fit", "--input", "EMP", "--family", "matern", "--bounds", "0,0,5,0:1,1,1,1"],
    ["density", "--input", "DATA", "--at", "0,0", "--draws", "DIR"],
    ["copula-fit", "--draws", "DIR"],
    ["copula-fit", "--draws", "MISSING"],
    ["fit", "--input", "DIR"],
    ["variogram", "--input", "DIR"],
    ["krige", "--model", SYNTH_NONUG, "--at", "0,0", "--input", "MISSING"],
])
def test_invalid_flag_is_one_line_user_error(tmp_path, capsys, inputs, argv):
    out = tmp_path / "o"
    argv = [inputs.get(a, a) for a in argv]
    line = assert_user_error(run(*argv, "--out", str(out)), capsys, out)
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    assert flag in line and argv[-1] in line


def test_density_grid_past_the_float_range_prints_its_count_in_e_notation(tmp_path, capsys,
                                                                          inputs):
    # 1.15e303 grid points: the count is read as a float, not as an integer
    # of some 300 digits
    out = tmp_path / "o"
    code = run("density", "--input", inputs["DATA"], "--draws", inputs["DRAWS"],
               "--at", "0,0", "--grid-step", "1e-300", "--out", str(out))
    line = assert_user_error(code, capsys, out)
    assert "density grid of 1.15e+301 points exceeds the cap" in line
    assert len(line) < 120


def test_too_fine_density_grid_is_one_line_user_error(tmp_path, capsys, inputs):
    # 11.5e9 grid points: refused by their count, before anything is allocated
    from variokrig.bayes import DensityGrid

    out = tmp_path / "o"
    code = run("density", "--input", inputs["DATA"], "--draws", inputs["DRAWS"],
               "--at", "0,0", "--grid-step", "1e-9", "--out", str(out))
    line = assert_user_error(code, capsys, out)
    assert "11500000001 points" in line and str(DensityGrid.MAX_POINTS) in line


def test_memory_error_is_one_line_user_error(tmp_path, capsys, monkeypatch):
    from variokrig import cli

    def exhausted(args, out):
        out.write_text("synth.csv", "partial\n")
        raise MemoryError("Unable to allocate 85.7 GiB")

    monkeypatch.setattr(cli, "_cmd_synth", exhausted)
    out = tmp_path / "o"
    line = assert_user_error(run("synth", "--seed", "1", "--out", str(out)), capsys, out)
    assert "out of memory" in line and "85.7 GiB" in line


def test_linalg_error_is_one_line_numeric_failure(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError raised by a command's work exits 2 like a
    # NumericError, and the files the command wrote are removed
    from variokrig import copula

    def singular(draws, result):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(copula, "joint_density_csv", singular)
    rows = 1.0 + 0.1 * np.random.default_rng(2).normal(size=(30, 4))
    draws = tmp_path / "draws.csv"
    draws.write_text("nugget,sill,range,nue\n"
                     + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
    out = tmp_path / "c"
    assert run("copula-fit", "--draws", str(draws), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["numeric failure: Singular matrix"]
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["variogram", "krige"])
def test_non_finite_value_cell_cites_row(tmp_path, capsys, value, command):
    src = tmp_path / "bad.csv"
    rows = ["EASTING,NORTHING,VALUE"]
    rows += [f"{i}.0,{i % 3}.0,1.{i}" for i in range(1, 6)]
    rows.insert(4, f"9.0,9.0,{value}")
    src.write_text("\n".join(rows) + "\n")
    extra = ["--model", SYNTH_NONUG, "--at", "0,0"] if command == "krige" else []
    out = tmp_path / "o"
    line = assert_user_error(run(command, "--input", str(src), *extra, "--out", str(out)),
                             capsys, out)
    assert "row 5" in line and "VALUE" in line


@pytest.mark.parametrize("row", [
    "15,14.8,oops,30", "15,x,0.9,30", "y,14.8,0.9,30", "15,14.8,0.9,3.5", "15,14.8,0.9,-2",
    "15,14.8,nan,30", "15,inf,0.9,30", "nan,,,0", "15,14.8,0.9", "15,14.8,0.9,30,1",
])
def test_bad_variogram_cell_cites_row(tmp_path, capsys, row):
    src = tmp_path / "emp.csv"
    lines = EMP_CSV.splitlines()
    lines[2] = row
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    line = assert_user_error(run("fit", "--input", str(src), "--family", "matern",
                                 "--out", str(out)), capsys, out)
    assert "row 3" in line and row in line


def test_fit_reads_bounds_and_empty_bins(tmp_path, inputs):
    from variokrig import FitBounds, fit_variogram
    from variokrig.cli import _parse_emp_csv
    from variokrig.fit import fit_results_to_csv

    emp = _parse_emp_csv(inputs["EMP"])
    assert [b.n_pairs for b in emp.bins] == [12, 30, 0, 41, 38, 35]
    assert emp.bins[2].gamma_hat is None and emp.bins[2].mean_pair_distance is None
    out = tmp_path / "f"
    assert run("fit", "--input", inputs["EMP"], "--family", "matern", "--method", "ols",
               "--bounds", "0,0.1,1,0.2:1,5,100,2", "--out", str(out)) == 0
    bounds = FitBounds(np.array([0.0, 0.1, 1.0, 0.2]), np.array([1.0, 5.0, 100.0, 2.0]))
    expect = fit_variogram(emp, "matern", "ols", bounds)
    assert read(out / "fit.csv") == fit_results_to_csv([expect], "matern")


@pytest.mark.parametrize("out", ["", "FILE", "FILE/sub"])
def test_uncreatable_out_dir_is_one_line_user_error(tmp_path, capsys, out):
    (tmp_path / "FILE").write_text("")
    out = str(tmp_path / out) if out else out
    assert run("synth", "--seed", "1", "--n", "5", "--out", out) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot create output directory")


@pytest.mark.parametrize("n_bins", ["3", "4", "5", "6"])
def test_posterior_with_fewer_bins_than_parameters_exits_1(tmp_path, capsys, n_bins):
    # fewer bins than the 7 nested-Matern parameters is one user error,
    # whether or not the start heuristic (4 bins) could run (4 to 6 bins
    # pin a rule that already held)
    data = str(make_synth(tmp_path, n=40, seed=3))
    capsys.readouterr()
    model = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
    out = tmp_path / "posterior"
    assert run("posterior", "--input", data, "--log", "--model", model, "--seed", "1",
               "--sims", "3", "--n-bins", n_bins, "--out", str(out)) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: nested_matern has 7 parameters")
    assert not (out / "draws.csv").exists()


# a nan or inf cell, key=value or word, in any case and with any sign
NON_FINITE = re.compile(r"(?<![a-z])[-+]?(nan|inf)(inity)?(?![a-z])", re.IGNORECASE)


def test_no_exit_0_output_holds_nan_or_inf(tmp_path, capsys):
    from variokrig.sim import SimBatch

    data = str(make_synth(tmp_path, n=40, seed=3))
    model = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
    grid = ["--grid", "4", "3", "-150", "150", "-100", "100"]
    post = ["posterior", "--input", data, "--log", "--model", model, "--seed", "1"]
    runs = {
        "synth": ["synth", "--seed", "2", "--n", "30"],
        "variogram": ["variogram", "--input", data, "--log"],
        "huber": ["variogram", "--input", data, "--log", "--estimator", "huber"],
        "cloud": ["variogram", "--input", data, "--log", "--cloud"],
        "direction": ["variogram", "--input", data, "--log", "--direction", "45",
                      "--n-bins", "6"],
        "fit": ["fit", "--input", str(tmp_path / "variogram" / "variogram.csv")],
        "fit-wls": ["fit", "--input", str(tmp_path / "variogram" / "variogram.csv"),
                    "--family", "spherical", "--method", "wls"],
        # a radius that leaves some grid points without neighbours
        "krige": ["krige", "--input", data, "--log", "--model", model, *grid,
                  "--radius", "40", "--pgm"],
        "krige-bayes": ["krige", "--input", data, "--log", "--model", model, "--method",
                        "bayes", "--at", "1.0,2.0"],
        "krige-universal": ["krige", "--input", data, "--log", "--model", model, "--method",
                            "universal", "--basis", "linear", "--at=-60.0,25.0"],
        # four points: five of the six bins hold no pair
        "simulate": ["simulate", "--model", model, "--grid", "2", "2", "0", "10", "0", "10",
                     "--sims", "3", "--seed", "1", "--max-dist", "15", "--n-bins", "6"],
        "simulate-kl": ["simulate", "--model", model, "--input", data, "--log",
                        "--conditional", "--route", "kl", "--sims", "3", "--seed", "1"],
        "posterior": [*post, "--sims", "12", "--n-bins", "8"],
        "posterior-matern": [*post, "--sims", "12", "--n-bins", "8", "--family", "matern"],
        "density": ["density", "--input", data, "--log", "--draws",
                    str(tmp_path / "posterior" / "draws.csv"), "--grid", "3", "3", "-100", "100",
                    "-80", "80", "--radius", "40"],
        "density-at": ["density", "--input", data, "--log", "--draws",
                       str(tmp_path / "posterior-matern" / "draws.csv"), "--at", "1.0,2.0",
                       "--radius", "200"],
        "copula-fit": ["copula-fit", "--draws", str(tmp_path / "posterior" / "draws.csv")],
    }
    assert {argv[0] for argv in runs.values()} == {
        "synth", "variogram", "fit", "krige", "simulate", "posterior", "density", "copula-fit"}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(*argv, "--out", str(out)) == 0, name
        assert not NON_FINITE.search(capsys.readouterr().out), name
        files = sorted(out.iterdir())
        assert files, name
        for path in files:
            if path.suffix == ".bin":
                assert np.all(np.isfinite(SimBatch.read_binary(path.read_bytes()))), path
            else:
                found = NON_FINITE.search(read(path))
                assert not found, (path, found)


# -- a lag or value that is not finite fails only its own points ---------------------

FAR_TABLE = "EASTING,NORTHING,VALUE\n" + "".join(
    f"-1e308,{y},{v}\n" for y, v in zip([0, 5, 9, 2, 7, 1], [1.0, 2.0, 1.5, 0.5, 1.2, 0.9]))
FAR_GRID = ["--grid", "2", "1", "0", "1.6e308", "-1", "10"]


@pytest.fixture
def far_inputs(tmp_path):
    data = tmp_path / "far.csv"
    data.write_text(FAR_TABLE)
    draws = tmp_path / "draws.csv"
    draws.write_text("nugget,sill,range,shape\n0.05,1.2,60.0,0.5\n0.1,1.0,10.0,1.5\n")
    return str(data), str(draws)


@pytest.mark.parametrize("command", ["ordinary", "bayes", "bayes-linear", "density",
                                     "bayes-huge-prior", "density-huge-prior"])
def test_map_points_with_overflowing_lags_are_numeric_failures(tmp_path, capsys, far_inputs,
                                                               command):
    data, draws = far_inputs
    out = tmp_path / "o"
    # a prior variance of 1e308 makes every system K + phi overflow its
    # trace: the jitter ladder fails it without a numpy warning
    prior = ["--prior-var", "1e308"] if command.endswith("-huge-prior") else []
    if command.startswith("density"):
        argv = ["density", "--input", data, "--draws", draws, "--radius", "inf", *prior]
        name = "density_map.csv"
    else:
        method = ["bayes", "--basis", "linear"] if command == "bayes-linear" else ["bayes"]
        method = ["ordinary"] if command == "ordinary" else method
        argv = ["krige", "--input", data, "--method", *method, "--model",
                "kind=exponential nugget=0.1 sill=1.0 range=10.0", *prior]
        name = "krige.csv"
    capsys.readouterr()
    assert run(*argv, *FAR_GRID, "--out", str(out)) == 0
    rows = read(out / name).strip().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",numeric_failure") for row in rows)
    # the overflowing coordinate differences, and a linear trend's terms at
    # those coordinates, print no numpy warning
    assert capsys.readouterr().err == ""
    if command == "density-huge-prior":
        # at the stations the lags are finite, and the failing systems are
        # one `numeric failure:` line
        argv = ["density", "--input", data, "--draws", draws, "--at=-1e308,3", "--radius",
                "inf", *prior, "--out", str(tmp_path / "at")]
        assert run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")


def test_density_at_a_point_with_overflowing_lags_exits_2(tmp_path, capsys, far_inputs):
    data, draws = far_inputs
    code = run("density", "--input", data, "--draws", draws, "--at=8e307,3", "--radius", "inf",
               "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("numeric failure:") for line in err) == 1


def test_map_whose_covariance_overflows_prints_no_numpy_warning(tmp_path, capsys):
    # every point's cross lags reach past 127, where h / range overflows:
    # each row reports the failure, and numpy's warnings would only repeat it
    data = tmp_path / "line.csv"
    data.write_text("EASTING,NORTHING,VALUE\n0,0,1.0\n100,0,2.0\n200,0,1.5\n300,0,0.5\n"
                    "0,100,1.2\n100,100,0.9\n")
    capsys.readouterr()
    assert run("krige", "--input", str(data), "--method", "ordinary", "--model",
               "kind=matern nugget=0.05 sill=1.0 range=1.0e-306 nu=0.5",
               "--grid", "3", "2", "0", "300", "0", "100", "--out", str(tmp_path / "o")) == 0
    rows = read(tmp_path / "o" / "krige.csv").strip().splitlines()[1:]
    assert len(rows) == 6 and all(row.endswith(",numeric_failure") for row in rows)
    assert capsys.readouterr().err == ""

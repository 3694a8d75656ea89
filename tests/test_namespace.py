"""The package namespace: the public names, their lazy resolution, and an
import of the package that loads no numpy."""

import os
import subprocess
import sys
import types

import pytest

import variokrig

PUBLIC = [
    "BayesPrior", "CopulaSpec", "CovarianceSpec", "DensityGrid", "Direction", "DomainError",
    "EmpiricalVariogram", "FitBounds", "FitResult", "FormatError", "KrigingResult",
    "NestedMaternSpec", "NumericError", "PosteriorDraws", "PredictiveDensity", "SimBatch",
    "SingularMatrixError", "SpatialDataset", "TrendBasis", "VariogramTable", "VariokrigError",
    "bayes", "bayes_kriging", "bessel_k", "bessel_k_scaled", "beta_posterior", "copula",
    "copula_cdf", "covariance_eval", "density_map", "empirical_variogram", "empvario",
    "exceptions", "fit", "fit_copula_mle", "fit_family_batch", "fit_nested_matern_batch",
    "fit_variogram", "frank_density", "gamma_fn", "generator", "generator_inverse", "gls_beta",
    "huber_correction", "huber_robust_variogram", "joint_density", "kl_simulate", "krige",
    "krige_map", "make_grid", "make_grid_inclusive", "marginal_cdf_from_draws", "matern_eval",
    "matern_spectral_density", "models", "neighborhood", "nested_matern_covariance",
    "nested_matern_variogram", "ordinary_kriging", "ordinary_weights", "predictive_density_at",
    "sim", "simple_kriging", "simple_weights", "simulate_fields", "simulate_gaussian_field",
    "simulate_variograms", "spec_from_text", "spec_to_text", "specfun",
    "start_values_nested_matern", "universal_kriging", "util", "validity_check",
    "variogram_cloud", "variogram_eval",
]


def test_all_lists_the_public_names():
    assert variokrig.__all__ == PUBLIC


def test_every_public_name_resolves_to_its_module_object():
    for name in PUBLIC:
        value = getattr(variokrig, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"variokrig.{name}"], name
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
        assert name in dir(variokrig)


def test_star_import_binds_the_explicitly_imported_objects():
    star = {}
    exec("from variokrig import *", star)
    for name in PUBLIC:
        one = {}
        exec(f"from variokrig import {name}", one)
        assert star[name] is one[name], name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        variokrig.no_such_name


# Whether `import variokrig` loaded numpy, the thread variable it set, and the
# thread count OpenBLAS then starts with (where numpy's bundled OpenBLAS
# exports its getter).
BLAS_PROBE = """
import ctypes, glob, os, sys
import variokrig
print("numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"))
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*"))
getters = [getattr(ctypes.CDLL(p), "scipy_openblas_get_num_threads64_", None) for p in libs]
print(*[get() for get in getters if get is not None])
"""


def test_package_import_loads_no_numpy_and_pins_blas_threads():
    src = os.path.dirname(os.path.dirname(variokrig.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    imported, threads = out.stdout.splitlines()
    assert imported == "False 1"
    assert all(n == "1" for n in threads.split())

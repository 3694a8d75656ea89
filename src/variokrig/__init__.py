"""variokrig: covariance models, variograms, kriging, Gaussian random-field
simulation, Bayesian predictive densities and parameter copulas.

Importing the package before numpy sets OPENBLAS_NUM_THREADS=1 unless one of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set: the bytes
of a result depend on the BLAS thread count, so they are pinned to one
thread unless the user chooses otherwise.

The numerical modules load on first use. Each is registered in sys.modules
and bound here as an `importlib.util.LazyLoader` module, which runs the
first time one of its attributes is read; the public names below resolve
through the module `__getattr__` (PEP 562). So a command runs only the
modules it uses: `variogram` runs `empvario`, `models` and `specfun`, and
no command but `posterior` and `fit` runs `fit`. `exceptions` and `util`,
which every command runs, load eagerly and import no numpy; neither does
`cli`, so the command line parses its arguments, prints its help and
reports usage errors before numpy loads.
"""

import importlib.util as _ilu
import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
    f"{lib}_NUM_THREADS" in _os.environ for lib in ("OPENBLAS", "OMP", "MKL")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import util
from .exceptions import (
    DomainError,
    FormatError,
    NumericError,
    SingularMatrixError,
    VariokrigError,
)

# module -> the public names it provides
_EXPORTS = {
    "bayes": (
        "DensityGrid",
        "PredictiveDensity",
        "beta_posterior",
        "density_map",
        "predictive_density_at",
    ),
    "copula": (
        "CopulaSpec",
        "copula_cdf",
        "fit_copula_mle",
        "frank_density",
        "generator",
        "generator_inverse",
        "joint_density",
        "marginal_cdf_from_draws",
    ),
    "empvario": (
        "Direction",
        "EmpiricalVariogram",
        "SpatialDataset",
        "empirical_variogram",
        "huber_correction",
        "huber_robust_variogram",
        "variogram_cloud",
    ),
    "fit": (
        "FitBounds",
        "FitResult",
        "fit_family_batch",
        "fit_nested_matern_batch",
        "fit_variogram",
        "start_values_nested_matern",
    ),
    "krige": (
        "BayesPrior",
        "KrigingResult",
        "TrendBasis",
        "bayes_kriging",
        "gls_beta",
        "krige_map",
        "neighborhood",
        "ordinary_kriging",
        "ordinary_weights",
        "simple_kriging",
        "simple_weights",
        "universal_kriging",
    ),
    "models": (
        "CovarianceSpec",
        "NestedMaternSpec",
        "PosteriorDraws",
        "covariance_eval",
        "matern_eval",
        "matern_spectral_density",
        "nested_matern_covariance",
        "nested_matern_variogram",
        "spec_from_text",
        "spec_to_text",
        "validity_check",
        "variogram_eval",
    ),
    "sim": (
        "SimBatch",
        "VariogramTable",
        "kl_simulate",
        "make_grid",
        "make_grid_inclusive",
        "simulate_fields",
        "simulate_gaussian_field",
        "simulate_variograms",
    ),
    "specfun": ("bessel_k", "bessel_k_scaled", "gamma_fn"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name):
    """Register the submodule `name` unexecuted; it runs on first attribute read."""
    spec = _ilu.find_spec(f"{__name__}.{name}")
    spec.loader = _ilu.LazyLoader(spec.loader)
    module = _ilu.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("_linalg", *_EXPORTS):
    globals()[_name] = _lazy(_name)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_OWNER[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted([
    "exceptions", "util",
    "DomainError", "FormatError", "NumericError", "SingularMatrixError", "VariokrigError",
    *_EXPORTS, *_OWNER,
])

"""variokrig: covariance models, variograms, kriging, Gaussian random-field
simulation, Bayesian predictive densities and parameter copulas.

Importing the package before numpy sets OPENBLAS_NUM_THREADS=1 unless one of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set: the bytes
of a result depend on the BLAS thread count, so they are pinned to one
thread unless the user chooses otherwise.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
    f"{lib}_NUM_THREADS" in _os.environ for lib in ("OPENBLAS", "OMP", "MKL")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .bayes import (
    DensityGrid,
    PosteriorDraws,
    PredictiveDensity,
    beta_posterior,
    density_map,
    predictive_density_at,
)
from .copula import (
    CopulaSpec,
    copula_cdf,
    fit_copula_mle,
    frank_density,
    generator,
    generator_inverse,
    joint_density,
    marginal_cdf_from_draws,
)
from .empvario import (
    Direction,
    EmpiricalVariogram,
    SpatialDataset,
    empirical_variogram,
    huber_correction,
    huber_robust_variogram,
    variogram_cloud,
)
from .exceptions import (
    DomainError,
    FormatError,
    NumericError,
    SingularMatrixError,
    VariokrigError,
)
from .fit import (
    FitBounds,
    FitResult,
    fit_family_batch,
    fit_nested_matern_batch,
    fit_variogram,
    start_values_nested_matern,
)
from .krige import (
    BayesPrior,
    KrigingResult,
    TrendBasis,
    bayes_kriging,
    gls_beta,
    krige_map,
    neighborhood,
    ordinary_kriging,
    ordinary_weights,
    simple_kriging,
    simple_weights,
    universal_kriging,
)
from .models import (
    CovarianceSpec,
    NestedMaternSpec,
    covariance_eval,
    matern_eval,
    matern_spectral_density,
    nested_matern_covariance,
    nested_matern_variogram,
    spec_from_text,
    spec_to_text,
    validity_check,
    variogram_eval,
)
from .sim import (
    SimBatch,
    VariogramTable,
    kl_simulate,
    make_grid,
    make_grid_inclusive,
    simulate_fields,
    simulate_gaussian_field,
    simulate_variograms,
)
from .specfun import bessel_k, bessel_k_scaled, gamma_fn

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

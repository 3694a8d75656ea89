"""variokrig: covariance models, variograms, kriging, Gaussian random-field
simulation, Bayesian predictive densities and parameter copulas."""

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
    simulate_gaussian_field,
    simulate_variograms,
)
from .specfun import bessel_k, bessel_k_scaled, gamma_fn

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

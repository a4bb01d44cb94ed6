"""Spectral-efficiency limits of dense and one-sparse random spreading.

Closed-form large-system rates for the ten supported scheme
combinations (dense / one-sparse spreading, with / without unit-mean
Rayleigh fading, matched-filter / MMSE / zero-forcing / optimum
detection),
energy-per-bit conversions, the moment combinatorics of the limiting
spectral laws, and a finite-size Monte Carlo laboratory that
cross-validates all of it.
"""

from .combinatorics import (
    EnsembleKind,
    MomentVector,
    carleman_bound_holds,
    exact_moments,
    lah,
    lsd_moment,
    moment_coefficients,
    narayana,
    stirling2,
)
from .ensemble_lab import (
    GramDiagonal,
    LsdMixture,
    McEstimate,
    SystemDraw,
    draw_system,
    empirical_lsd_cdf_distance,
    empirical_moments,
    empirical_opt_se,
    gram_diagonal,
    independence_diagnostic,
    mc_ds_fading_logdet,
    mc_sumf_rate,
)
from .errors import (
    BadBracketError,
    DegenerateRateError,
    DomainError,
    FactorizationError,
    FixedPointError,
    NomaLimitsError,
    NonConvergenceError,
    NoSolutionError,
    UnsupportedSchemeError,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    QuadResult,
    Tolerance,
    exp_integral_e1,
    exp_integral_en,
    exp_integral_en_scaled,
    find_root_bracketed,
    integrate_interval,
    integrate_semi_infinite,
    poisson_weighted_sum,
    reg_lower_gamma,
)
from .rates import (
    LN2,
    SUPPORTED_SCHEMES,
    ChannelPoint,
    Detector,
    Fading,
    MmseEfficiency,
    RateValue,
    SchemeSpec,
    Spreading,
    eta_from_gamma,
    eta_min,
    f_transform,
    gamma_from_eta,
    high_snr_slope,
    low_snr_slope,
    mmse_efficiency_ds_fading,
    mmse_se_ds_fading,
    mmse_se_ds_nofading,
    opt_se_ds_fading,
    opt_se_ds_nofading,
    opt_se_lds_fading,
    opt_se_lds_fading_alt,
    opt_se_lds_nofading,
    spectral_efficiency,
    sumf_rate_lds_fading,
    sumf_rate_lds_fading_unit_form,
    sumf_rate_lds_nofading,
)
from .verification import (
    CRITERIA,
    CheckResult,
    Criterion,
    VerifyReport,
    load_golden,
    run_criterion,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NomaLimitsError", "DomainError", "NonConvergenceError", "BadBracketError",
    "NoSolutionError", "DegenerateRateError", "UnsupportedSchemeError",
    "FixedPointError", "FactorizationError",
    # numerics
    "Tolerance", "DEFAULT_TOLERANCE", "QuadResult", "exp_integral_e1",
    "exp_integral_en", "exp_integral_en_scaled", "reg_lower_gamma",
    "integrate_interval", "integrate_semi_infinite", "poisson_weighted_sum",
    "find_root_bracketed",
    # combinatorics
    "EnsembleKind", "MomentVector", "lah", "stirling2", "narayana",
    "moment_coefficients", "lsd_moment", "exact_moments", "carleman_bound_holds",
    # rates
    "LN2", "ChannelPoint", "SchemeSpec", "Spreading", "Fading", "Detector",
    "RateValue", "MmseEfficiency", "SUPPORTED_SCHEMES", "spectral_efficiency",
    "sumf_rate_lds_fading", "sumf_rate_lds_fading_unit_form",
    "sumf_rate_lds_nofading", "opt_se_lds_nofading", "opt_se_lds_fading",
    "opt_se_lds_fading_alt", "f_transform", "opt_se_ds_nofading",
    "mmse_se_ds_nofading", "mmse_efficiency_ds_fading", "mmse_se_ds_fading",
    "opt_se_ds_fading", "eta_min", "low_snr_slope", "high_snr_slope",
    "eta_from_gamma", "gamma_from_eta",
    # ensemble lab
    "SystemDraw", "GramDiagonal", "LsdMixture", "McEstimate", "draw_system",
    "gram_diagonal", "empirical_moments", "empirical_opt_se",
    "empirical_lsd_cdf_distance", "mc_sumf_rate", "mc_ds_fading_logdet",
    "independence_diagnostic",
    # verification
    "CheckResult", "VerifyReport", "Criterion", "CRITERIA", "load_golden",
    "run_criterion", "run_suite",
]

"""Location-scale mixtures of elliptical distributions and stochastic orders.

The package builds distributions of the form

    Y = mu + alpha(Z) * X + beta(Z) * delta,

where X is a spherical elliptical vector with dispersion Sigma and radial
profile g, Z is a positive mixing variable, and alpha/beta are positive maps.
It decides whether two such vectors are comparable under thirteen integral
stochastic orders, and cross-validates the analytic verdicts with coupled
Monte Carlo estimates.
"""

from __future__ import annotations

from .cones import (
    ConeStatus,
    ConeVerdict,
    dual_pairing,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from .distributions import LseDistribution, MomentSummary, sample_coupled
from .empirical import (
    DominanceResult,
    McConfig,
    SurvivalCurve,
    coupled_pass,
    empirical_survival,
    stop_loss,
    stoploss_dominance,
    verify_cx,
    verify_icx,
    verify_orthant,
    verify_st,
)
from .errors import (
    DomainError,
    IncomparableFamiliesError,
    LsemixError,
    NonIntegrableError,
    ParameterError,
    ScenarioError,
    SingularTransformError,
    UnsupportedGeneratorError,
    UsageError,
)
from .generators import (
    DensityGenerator,
    GeneratorFamily,
    LimitRatioResult,
    assumption_profile,
    covariance_factor,
    eval_generator,
    limit_ratio,
    normalizing_constant,
    radial_profile_integral,
    radial_second_moment,
)
from .mixing import (
    AlphaBetaMap,
    AlphaKind,
    BetaKind,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
    MixingDistribution,
)
from .orders import (
    Clause,
    NecessaryStatus,
    OrderKind,
    OrderReport,
    SkipReason,
    SufficientStatus,
    Verdict,
    check_collective_risk,
    check_order,
    compare,
)
from .cli import ScenarioSpec, parse_scenario, run_check, serialize_scenario

__version__ = "0.1.0"

"""hyperwalk: geodesic random walks on constant-curvature spaces.

Simulates zero-drift (and biased) Markov chains on the hyperboloid model of
hyperbolic space and on Euclidean space, and classifies them as recurrent or
transient from Monte Carlo or closed-form bounds on their radial increment
moments.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    HyperwalkError,
    InvariantViolationError,
    OverflowGuardError,
    UsageError,
)
from .geometry import (
    CurvatureModel,
    asymptotic_increment,
    euclidean_radial_increment,
    radial_increment_exact,
)
from .increments import (
    BoxLaw,
    CustomLaw,
    EllipticLaw,
    HeavyTailLaw,
    IncrementLaw,
    InwardBiasedLaw,
    RadialProfile,
    elliptic_moments,
    heavytail_inward_offset,
    heavytail_outward_prob,
)
from .lamperti import (
    ClassificationReport,
    Estimate,
    MomentFunctions,
    Verdict,
    classify_constant_curvature,
    classify_elliptic_chain,
    classify_euclidean,
    classify_pinched,
    estimate_moment_functions,
    increment_moment_estimate,
    sandwich_coeff_max,
    sandwich_coeff_min,
    uniform_ellipticity_transience_check,
)
from .simulator import (
    EnsembleStats,
    TrajectoryRecord,
    WalkConfig,
    escape_probe,
    neighborhood_return_probe,
    run_ensemble,
    run_walk,
)

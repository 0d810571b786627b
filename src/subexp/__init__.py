"""Numerical laboratory for log-periodic heavy-tailed densities.

Implements a family of explicit counterexample constructions around the
density x^(-alpha-1) h(log x), where h is a periodic profile with a sharp
logarithmic dip: local window masses, convolutions, exponential tilts, and
ratio-trend probes that witness each construction's limit behaviour at desk
scale, including at probe points hundreds of orders of magnitude out.
"""

from .errors import (
    ContractViolationError,
    DivergentMomentError,
    ParameterError,
    ProbePreconditionError,
    QuadratureError,
)
from .scaledcore import (
    ModelParams,
    PeriodicProfile,
    ScaledSum,
    SequenceSpec,
    make_sequence,
    phi_log_value,
)
from .quadrature import QuadratureSpec, integrate_log
from .measures import (
    AtomSeries,
    KernelAC,
    MixtureDistribution,
    ParetoAC,
    PhiAC,
    PiecewiseLinearDensity,
    PointMass,
    Tilted,
    UniformAC,
    Weight,
    exp_moment,
    local_density,
    local_mass,
    normalizer_M,
    tail,
    tilt,
)
from .convolve import (
    ConvPlan,
    LogBracket,
    brute_force_conv_oracle,
    conv_local_mass,
    nfold_local_mass,
    phi_self_conv_at,
)
from .probes import (
    RatioSeries,
    Verdict,
    classify_limit,
    long_tail_probe,
    sandwich_probe,
    scaling_probe,
    sd_probe,
    tilt_identity_probe,
    truncated_tail_density,
    truncated_tail_local,
    uniformity_probe,
)
from .gallery import (
    GallerySpec,
    IntervalFamily,
    Report,
    build_mu,
    build_mu1,
    build_p1_p2,
    build_rho1_rho2,
    interval_family,
    lem32_report,
    prop11_report,
    thm11_report,
    thm12_report,
    tilt_report,
)

__version__ = "0.1.0"

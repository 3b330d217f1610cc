"""Pathwise calculus for paths of finite p-th variation.

A numerical engine for probability-free stochastic calculus: p-th
variation along partition hierarchies, order-p discrete and
occupation-density local times, compensated Riemann sums (Follmer
integrals of order p), Tanaka-Meyer identities, mollified integrals, and
the integration-along-ranks decomposition for systems of ranked paths.
"""

from .errors import (
    ConfigError,
    CoverageError,
    GenerationError,
    IngestionError,
    ParameterError,
    PathwiseError,
    ResolutionError,
)
from .paths import PathSpec, SampledPath, generate, range_anchors, running_extrema, write_path_csv
from .partitions import PartitionHierarchy, dyadic_hierarchy, lebesgue_hierarchy, oscillation
from .variation import (
    VariationConvergenceReport,
    VariationCurve,
    increment_power_sums,
    pth_variation,
    variation_convergence_report,
)
from .localtime import (
    BermanRatioReport,
    LocalTimeField,
    OccupationLocalTime,
    ProperOrderReport,
    SpaceGrid,
    UniformConvergenceReport,
    berman_ratio_check,
    discrete_local_time,
    discrete_local_time_curves,
    gaussian_moment,
    occupation_density_local_time,
    occupation_time_density,
    proper_order_report,
    uniform_convergence_report,
    weighted_occupation_local_time,
)
from .integrate import (
    ModifiedFollmerReport,
    Mollifier,
    MollifiedFunction,
    SmoothCallable,
    StieltjesMeasure,
    TestFunction,
    discrete_local_time_point,
    follmer_sum,
    measure_remainder_sum,
    modified_follmer_integral,
    mollify,
    stieltjes_pairing,
    tanaka_class,
    tanaka_meyer_sum,
)
from .tanaka import (
    CellIndicator,
    EXACT_THRESHOLD,
    IdentityReport,
    finite_n_identity,
    identity_suite,
    ito_residual,
    occupation_check,
    scaling_check,
    scaling_root_preset,
)
from .ranks import (
    CollisionLocalTime,
    RankDecomposition,
    RankSystem,
    SimplifiedCrossTerm,
    build_rank_system,
    collision_local_time,
    rank_decomposition,
    rank_decompositions,
    rank_sum_identity,
    simplified_cross_term,
)

__version__ = "0.1.0"

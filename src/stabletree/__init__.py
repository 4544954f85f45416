"""Stable random fields indexed by free groups: simulation and verification.

Subpackages by role: exact word algebra and tree combinatorics
(``free_group``), the boundary with its uniform measure and nonsingular
action (``boundary``), stable sampling and series machinery (``stable``),
ray subgraphs (``subgraphs``), the built-in field models and their maxima
(``fields``), the cluster Poisson limit (``limit_process``), statistics
and the experiment harness (``stats``, ``harness``, ``cli``).
"""

from .boundary import (
    BoundaryPoint,
    CylinderSet,
    act_on_boundary,
    act_on_cylinder,
    cylinder_measure,
    disjoint_translates_report,
    rn_derivative,
    sample_boundary,
    verify_weakly_wandering,
)
from .errors import (
    ConfigError,
    PathTooShortError,
    PrefixTooShortError,
    RankMismatchError,
    ResourceBudgetError,
    UnsupportedModelError,
)
from .fields import (
    BoundaryField,
    FieldSimulator,
    MixedMovingAverage,
    ParetoField,
    ShiftField,
    maxima_experiment,
    mma_point_mass,
    norming_constant_mc,
)
from .free_group import (
    Word,
    ball_size,
    busemann,
    confluent_length,
    distance,
    enumerate_ball,
    enumerate_sphere,
    format_word,
    generator,
    identity,
    inverse,
    multiply,
    parse_word,
    sphere_size,
    word,
)
from .limit_process import (
    PiecewiseConstant,
    PointMeasure,
    empirical_laplace,
    laplace_functional,
    maxima_constant,
    maxima_constant_comparison,
    maxima_constant_level_symmetric,
    sample_limit_point_process,
)
from .rng import substream
from .stable import (
    sample_sas,
    scaled_frechet_cdf,
    stable_tail_constant,
    stable_tail_constant_quadrature,
)
from .subgraphs import (
    RayPath,
    anchor_pmf,
    membership,
    sample_anchor,
    sample_ray_path,
    subgraph_sphere_count,
)

__version__ = "0.1.0"

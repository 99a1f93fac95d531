"""Generalized l^p solid-angle sums over real convex polytopes.

Damped Poisson-summation lattice sums over vertex tangent cones, independent
geometric oracles, and numeric verifiers for the reciprocity, Brion, and
Brianchon-Gram identities.
"""

from .angles import (
    SolidAngleEstimate,
    soft_indicator,
    solid_angle_exact_2d,
    solid_angle_exact_2d_l1,
    solid_angle_gaussian,
    solid_angle_mc,
)
from .errors import (
    BadEpsilon,
    BadIndex,
    ConvergenceDomain,
    DegenerateCone,
    DegenerateInput,
    DimensionMismatch,
    ImaginaryResidue,
    NonConvergent,
    NotPointed,
    PoleHit,
    ScheduleTooShort,
    SolidSumError,
    UnsupportedDimension,
)
from .geometry import (
    Cone,
    Face,
    Polytope,
    SimpleCone,
    dilate,
    faces,
    half_spaces,
    lattice_points,
    load_polytope,
    polytope_from_json,
    simple_cone,
    triangulate_cone,
    vertex_simple_cones,
    vertex_tangent_cone,
)
from .lattice import (
    DampedLevels,
    DampedSumResult,
    alpha_polytope_direct,
    damped_direct_sum,
    damped_transform_levels,
)
from .macdonald import (
    GramCheckResult,
    IdentityReport,
    MacdonaldEvaluation,
    brianchon_gram_check,
    conjecture_check,
    macdonald_sum,
    macdonald_volume,
    sqrt3_triangle,
    verify_brion,
    verify_cone_reciprocity,
    verify_macdonald,
)
from .numerics import Estimate, richardson_limit
from .oracle import OracleResult, discrete_volume, point_weight
from .transforms import (
    DampedSumConfig,
    cone_transform,
    mass_one_constant,
    phi,
    phi_hat,
    phi_hat_quadrature,
    pole_distance,
)

__version__ = "0.1.0"

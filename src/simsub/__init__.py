"""Exact similarity-submodule counting for golden-ratio and root-two modules."""

from .catalog import (
    CatalogEntry,
    SeriesName,
    catalog_entry,
    f_cubic,
    phi_c,
    riemann_zeta,
    sigma1,
    zeta_q_itau,
    zeta_q_tau,
    zeta_q_xi8,
    zeta_zi_sqrt2,
)
from .cubic import (
    AffineSimilarity,
    QuatTau,
    Rotation3,
    compose_affine,
    count_submodules_3d,
    den,
    enumerate_rotations,
    hnf_over_ztau,
    is_unit_similarity,
    quat_to_rotation,
    rotation_counts,
    similarity_index,
    verify_cubic,
    verify_rotation_counts,
)
from .dirichlet import (
    CoeffSeries,
    EulerFactor,
    check_multiplicative,
    convolve,
    dirichlet_inverse,
    dirichlet_polynomial,
    epsilon,
    expand_euler,
    scale_argument,
    shift,
    summatory,
)
from .lattice import (
    Ambient,
    EnumerationBudgetExceeded,
    MultiplierAction,
    OracleReport,
    Submodule,
    count_ideals,
    count_similarity_submodules,
    hnf_canonical,
    hnf_sublattices,
    is_invariant,
    is_principal,
    list_ideals,
    verify_series,
)
from .quadratic import (
    QuadInt,
    QuadRing,
    SQRT2,
    SplittingClass,
    TAU,
    canonical_associate,
    gcd,
    is_unit,
    norm_equation,
    splitting_class,
    unit_normal_form,
)
from .quartic import (
    ISQRT2,
    ITAU,
    QuarticInt,
    QuarticRing,
    UnitDecompositionError,
    abs_norm,
    quartic_unit_normal_form,
    regular_rep,
)

__version__ = "0.1.0"

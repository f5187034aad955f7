"""Exact tools for weighted orbit spaces of low-dimensional torus actions."""

from types import ModuleType as _ModuleType

from .biquotient import (
    ARC_SUPPORTS,
    VERTEX_SUPPORTS,
    WZ_TORUS,
    Z_CIRCLE,
    CircleActionParams,
    ExtensionOutcome,
    ExtensionStatus,
    IsotropyDiagram,
    T2ActionParams,
    T2Freeness,
    circle_arc_isotropy_orders,
    circle_bundle_total_space,
    circle_quotient_orbifold_orders,
    classify_t2_quotient,
    extend_circle_to_t2,
    induced_orbit_space,
    induced_stabilizer,
    is_free_circle,
    is_free_t2,
    mixed_t2_family,
    project_slope_to_residual,
    realize_dim4,
    realize_dim5,
    split_t2_family,
    subtorus_acts_freely,
    torus_weight_matrix,
    w2_class,
)
from .census import (
    CensusRow,
    census_csv,
    census_ndjson,
    primitive_weights,
    realization_payload,
    run_census,
)
from .classify import (
    CP2,
    CP2_MINUS_CP2,
    CP2_PLUS_CP2,
    S2XS2,
    S3TWISTS2,
    S3XS2,
    S4,
    S5,
    Dim5Params,
    ManifoldType,
    classify_dim4,
    classify_dim5,
    connected_sum_dim4,
    dim5_orbit_space,
    extract_dim5_params,
    in_canonical_position,
    pi1_dim5_exact,
)
from .errors import (
    IllegalOrbitSpaceError,
    NotFreeError,
    NotFreeSubtorusError,
    NotRealizableError,
    ParseError,
    RankMismatchError,
    TorusOrbitsError,
    UnsupportedRankError,
)
from .lattice import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    determinant,
    gcd_ext,
    hermite_normal_form,
    invert_unimodular,
    kernel_basis,
    quotient_group,
    smith_normal_form,
    unimodular_complete,
)
from .orbit_space import (
    LegalityReport,
    WeightedOrbitSpace,
    are_equivalent,
    canonical_form,
    canonicalize,
    format_weights,
    is_legal,
    normalize_weight,
    pair_is_legal,
    pi1_bound,
    require_legal,
)

# The submodules stay attributes of the package, but `import *` binds none.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

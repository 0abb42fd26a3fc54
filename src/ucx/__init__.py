"""ucx: exact-arithmetic toolkit for union-closed families on the Boolean cube."""

from .core import (
    BooleanFunction,
    CharacterSpec,
    DimensionError,
    SetFamily,
    dist,
    eval_character,
    family_to_function,
    function_to_family,
    inner_product,
    max_dimension,
)
from .extremal import (
    KSClassMember,
    NamedConstruction,
    build,
    dictator,
    example_f3,
    half_cube_missing,
    ks_distance,
    ks_enumerate,
    nearest_dictator,
    or_family,
    or_family_stats,
    parity,
)
from .families import (
    FamilyStats,
    PreconditionError,
    RootReport,
    is_simply_rooted,
    is_union_closed,
    lower_shadow,
    roots,
    stats,
    theorem2_quantities,
    thin_boundary_check,
    upper_shadow,
)
from .influence import (
    InfluenceProfile,
    balanced_distance_floor,
    corollary_lower_bound,
    influence_identity_check,
    profile,
)
from .spectral import (
    Spectrum,
    first_level_identity,
    level_weight,
    level_weights,
    mean_identity_check,
    naive_transform,
    transform,
)
from .verify import (
    SweepPlan,
    VerificationReport,
    conjecture2_margin,
    duality_check,
    enumerate_families,
    kotlov_check,
    positive_influence_cap_check,
    random_union_closed,
    run_sweep,
    shadow_lemma_check,
    union_closure,
)

__version__ = "0.1.0"

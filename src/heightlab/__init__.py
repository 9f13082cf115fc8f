"""heightlab: exact Weil heights, radical projective points, Northcott
field towers, and a dimension-1 CM moduli laboratory."""

__version__ = "0.1.0"

from .numcore import (
    BigFloat,
    ConstructionError,
    IntMatrix,
    IntPoly,
    PrecisionError,
    factorint,
    is_prime,
    next_prime,
    poly_roots,
    smith_normal_form,
)
from .heights import (
    AlgebraicNumber,
    HeightValue,
    LogCombination,
    height_value_compare,
    mahler_height,
    weighted_height,
    weil_height,
)
from .radicals import (
    ChainReport,
    ChainViolationError,
    NorthcottCensus,
    RadicalPoint,
    RadicalScalar,
    compositum_degree,
    lemma_chain_check,
    projective_height,
    projective_height_l2,
    projective_northcott_experiment,
    radical_degree,
    radical_height,
    weighted_projective_height,
)
from .towers import (
    LevelCertificate,
    TowerSpec,
    build_tower,
    certify_level,
    distinct_fields_check,
    remark_bound,
)
from .cmlab import (
    CMRecord,
    Discriminant,
    ReducedForm,
    class_number,
    cm_record,
    cm_scan,
    faltings_height_cm,
    finiteness_demo,
    fundamental_discriminants,
    hilbert_class_poly,
    j_height,
    j_invariant,
    modular_discriminant,
    reduced_forms,
    s_invariant,
    theta_height_estimate,
    theta_null_point,
    verify_decay,
    verify_theta_faltings,
)

"""Elliptic-curve subset-sum generator, equidistribution diagnostics, and
window-pair combinatorics."""

from types import ModuleType as _ModuleType

from .combinat import (
    BadPairCount,
    TransferMatrix,
    WindowPattern,
    alpha,
    bad_count_bracket,
    bad_pair_upper_bound,
    beta,
    brute_force_bad_count,
    brute_force_bad_wrt_first,
    is_s_good,
    spectral_radius,
    transfer_matrix,
    walk_count,
)
from .curve import (
    INFINITY,
    CurveParams,
    CurvePoint,
    WeightVector,
    add,
    enumerate_points,
    is_on_curve,
    negate,
    point_table,
    scalar_mul,
    validate_curve,
    x_coord,
)
from .discrepancy import (
    BoundInputs,
    DiscrepancyReport,
    discrepancy_bound_1d,
    discrepancy_bound_multi,
    elmahassni_bound,
    exact_extreme_1d,
    exact_extreme_multi,
    mc_box_lower_bound,
    nontrivial_exponent,
)
from .errors import ScaleGuardError, ValidationError
from .experiments import (
    ExperimentConfig,
    SweepRow,
    bound_crossover,
    discrepancy_sweep,
    sample_weight_vectors,
    slope_fit,
)
from .expsum import (
    ComplexSum,
    additive_character,
    avg_square_sum_over_weights,
    curve_x_char_sum,
    dirichlet_l1,
    koksma_szusz_rhs,
    orthogonality_sum,
)
from .generator import (
    GeneratorConfig,
    PointSet,
    ResidueWeights,
    ec_subset_sum,
    ec_subset_sum_stream,
    output_normalized,
    s_tuples,
    subset_sum_residue,
)
from .gf2 import (
    BinaryPoly,
    BitSequenceSource,
    LfsrSource,
    PeriodicSource,
    poly_is_irreducible,
    sequence_period,
    windows_distinct,
)

__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

"""Elliptic-curve subset-sum generator, equidistribution diagnostics, and
window-pair combinatorics.

The public names below load their defining module on first access (PEP 562),
so `import ecss` imports neither numpy nor any submodule.
"""

import importlib

# Each public name, by the module that defines it.
_EXPORTS = {
    "combinat": "BadPairCount TransferMatrix alpha bad_count_bracket bad_pair_count bad_pair_upper_bound "
                "beta brute_force_bad_count brute_force_bad_wrt_first spectral_radius transfer_matrix walk_count",
    "curve": "INFINITY CurveParams CurvePoint add enumerate_points is_on_curve negate point_table validate_curve "
             "x_coord",
    "discrepancy": "BoundInputs DiscrepancyReport PointSet discrepancy_bound_1d discrepancy_bound_multi "
                   "elmahassni_bound exact_extreme_1d exact_extreme_multi mc_box_lower_bound nontrivial_exponent",
    "errors": "ScaleGuardError ValidationError",
    "experiments": "ExperimentConfig SweepRow bound_crossover discrepancy_sweep sample_weight_vectors slope_fit",
    "expsum": "ComplexSum additive_character avg_square_sum_over_weights curve_x_char_sum dirichlet_l1 "
              "koksma_szusz_rhs orthogonality_sum",
    "generator": "GeneratorConfig ec_subset_sum ec_subset_sum_stream output_normalized s_tuples",
    "gf2": "BinaryPoly BitSequenceSource LfsrSource poly_is_irreducible sequence_period windows_distinct",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

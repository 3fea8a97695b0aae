"""Every integer argument of a public function follows errors.validate_int: a float or a bool is a ValidationError."""

import numpy as np
import pytest

from ecss import combinat, curve, discrepancy, errors, experiments, expsum, generator, gf2
from ecss.curve import INFINITY, CurveParams, CurvePoint
from ecss.errors import ValidationError

F5 = CurveParams(5, 1, 1)


def lfsr():
    return gf2.LfsrSource(gf2.BinaryPoly(0b111), (1, 0))


def f5_config():
    return generator.GeneratorConfig(source=lfsr(), weights=(CurvePoint(0, 1), CurvePoint(2, 1)), curve=F5)


# Each call takes the value under test in place of one integer argument, which its id names.
CALLS = {
    "additive_character m": lambda v: expsum.additive_character(v, 1),
    "dirichlet_l1 m": lambda v: expsum.dirichlet_l1(v, 2),
    "dirichlet_l1 M": lambda v: expsum.dirichlet_l1(5, v),
    "curve_x_char_sum a": lambda v: expsum.curve_x_char_sum(F5, v, INFINITY),
    "koksma_szusz_rhs L": lambda v: expsum.koksma_szusz_rhs(discrepancy.PointSet([[0.5]]), v),
    "avg_square_sum_over_weights r": lambda v: expsum.avg_square_sum_over_weights(F5, v, 1, 3, lfsr()),
    "avg_square_sum_over_weights a": lambda v: expsum.avg_square_sum_over_weights(F5, 2, v, 3, lfsr()),
    "avg_square_sum_over_weights N": lambda v: expsum.avg_square_sum_over_weights(F5, 2, 1, v, lfsr()),
    "max_char_ratio_all_curves p": lambda v: expsum.max_char_ratio_all_curves(v),
    "ec_subset_sum n": lambda v: generator.ec_subset_sum(f5_config(), v),
    "ec_subset_sum_stream count": lambda v: generator.ec_subset_sum_stream(f5_config(), v),
    "output_normalized count": lambda v: generator.output_normalized(f5_config(), v),
    "s_tuples s": lambda v: generator.s_tuples([0.1, 0.2, 0.3], v),
    "LfsrSource.bits count": lambda v: lfsr().bits(v),
    "windows_distinct r": lambda v: gf2.windows_distinct(lfsr(), v, 3),
    "windows_distinct tau": lambda v: gf2.windows_distinct(lfsr(), 2, v),
    "sample_weight_vectors r": lambda v: experiments.sample_weight_vectors(F5, v, 2, 0),
    "sample_weight_vectors count": lambda v: experiments.sample_weight_vectors(F5, 2, v, 0),
    "all_curve_orders p": lambda v: curve.all_curve_orders(v),
    "validate_pattern s": lambda v: combinat.validate_pattern(v, 1),
    "validate_pattern h": lambda v: combinat.validate_pattern(2, v),
    "exact_extreme_multi s": lambda v: discrepancy.exact_extreme_multi(np.full((3, 2), 0.5), v),
    "alpha s": lambda v: errors.alpha(v),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_float_and_bool_rejected(call, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        CALLS[call](value)

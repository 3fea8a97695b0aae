"""Every integer argument of a public function follows errors.validate_int: a float or a bool is a ValidationError,
and a numpy integer computes as the Python int it equals."""

import tracemalloc

import numpy as np
import pytest

from ecss import combinat, curve, discrepancy, errors, experiments, expsum, generator, gf2
from ecss.curve import INFINITY, CurveParams, CurvePoint
from ecss.errors import ScaleGuardError, ValidationError

F5 = CurveParams(5, 1, 1)


def lfsr():
    return gf2.LfsrSource(gf2.BinaryPoly(0b111), (1, 0))


def f5_config():
    return generator.GeneratorConfig(source=lfsr(), weights=(CurvePoint(0, 1), CurvePoint(2, 1)), curve=F5)


# Each call takes the value under test in place of one integer argument, which its id names, and a valid value.
CALLS = {
    "additive_character m": (lambda v: expsum.additive_character(v, 1), 5),
    "dirichlet_l1 m": (lambda v: expsum.dirichlet_l1(v, 2), 5),
    "dirichlet_l1 M": (lambda v: expsum.dirichlet_l1(5, v), 2),
    "curve_x_char_sum a": (lambda v: expsum.curve_x_char_sum(F5, v, INFINITY), 1),
    "koksma_szusz_rhs L": (lambda v: expsum.koksma_szusz_rhs(discrepancy.PointSet([[0.5]]), v), 2),
    "avg_square_sum_over_weights r": (lambda v: expsum.avg_square_sum_over_weights(F5, v, 1, 3, lfsr()), 2),
    "avg_square_sum_over_weights a": (lambda v: expsum.avg_square_sum_over_weights(F5, 2, v, 3, lfsr()), 1),
    "avg_square_sum_over_weights N": (lambda v: expsum.avg_square_sum_over_weights(F5, 2, 1, v, lfsr()), 3),
    "max_char_ratio_all_curves p": (lambda v: expsum.max_char_ratio_all_curves(v), 5),
    "ec_subset_sum n": (lambda v: generator.ec_subset_sum(f5_config(), v), 2),
    "ec_subset_sum_stream count": (lambda v: generator.ec_subset_sum_stream(f5_config(), v), 3),
    "output_normalized count": (lambda v: generator.output_normalized(f5_config(), v), 3),
    "s_tuples s": (lambda v: generator.s_tuples([0.1, 0.2, 0.3], v), 2),
    "LfsrSource.bits count": (lambda v: lfsr().bits(v), 5),
    "windows_distinct r": (lambda v: gf2.windows_distinct(lfsr(), v, 3), 2),
    "windows_distinct tau": (lambda v: gf2.windows_distinct(lfsr(), 2, v), 3),
    "sample_weight_vectors r": (lambda v: experiments.sample_weight_vectors(F5, v, 2, 0), 2),
    "sample_weight_vectors count": (lambda v: experiments.sample_weight_vectors(F5, 2, v, 0), 2),
    "all_curve_orders p": (lambda v: curve.all_curve_orders(v), 5),
    "validate_pattern s": (lambda v: combinat.validate_pattern(v, 1), 2),
    "validate_pattern h": (lambda v: combinat.validate_pattern(2, v), 1),
    "exact_extreme_multi s": (lambda v: discrepancy.exact_extreme_multi(np.full((3, 2), 0.5), v), 2),
    "alpha s": (lambda v: errors.alpha(v), 3),
}


def plain(value):
    """A result's types and values, arrays and PointSets by dtype and list, for an exact comparison."""
    if isinstance(value, discrepancy.PointSet):
        value = value.rows
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    return repr(value)


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_float_and_bool_rejected(call, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        CALLS[call][0](value)


@pytest.mark.parametrize("kind", [np.int64, np.uint8], ids=["int64", "uint8"])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_numpy_integer_computes_as_the_python_int(call, kind):
    fn, valid = CALLS[call]
    assert plain(fn(kind(valid))) == plain(fn(valid))


@pytest.mark.parametrize("call", [
    # (2L)^s * N wrapped to 0 in int64 and passed the 1e8 cap.
    lambda: expsum.koksma_szusz_rhs(discrepancy.PointSet(np.full((3, 4), 0.5)), np.int64(2**20)),
    # The automaton's work product overflowed int64 under a RuntimeWarning and passed its cap.
    lambda: combinat.bad_pair_count(np.int64(2**32), 1),
], ids=["koksma_szusz_rhs L", "bad_pair_count r"])
def test_numpy_integer_guard_products_do_not_wrap(call):
    tracemalloc.start()
    try:
        with pytest.raises(ScaleGuardError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_experiment_config_stores_python_numbers():
    config = experiments.ExperimentConfig(curve=CurveParams(101, 1, 1), poly=gf2.BinaryPoly(0b100101), r=np.int64(5),
                                          s=np.int64(1), n_grid=(np.int64(8), 4), samples=np.int64(2),
                                          delta=np.float32(0.1), seed=np.uint8(3))
    assert [type(getattr(config, name)) for name in ("r", "s", "samples", "seed", "delta")] == [int] * 4 + [float]
    row = experiments.discrepancy_sweep(config)[0]
    assert type(row.s) is int and type(row.thm_bound) is float and type(row.elma_bound) is float


def test_bound_inputs_store_python_numbers():
    inputs = discrepancy.BoundInputs(n=np.int64(10), p=np.int64(1009), r=np.uint8(10), tau=np.int64(1023),
                                     delta=np.float32(0.1), s=np.int64(2))
    assert [type(getattr(inputs, name)) for name in ("n", "p", "r", "tau", "s", "delta")] == [int] * 5 + [float]
    python = discrepancy.BoundInputs(n=10, p=1009, r=10, tau=1023, delta=float(np.float32(0.1)), s=2)
    for bound in (discrepancy.discrepancy_bound_1d, discrepancy.discrepancy_bound_multi, discrepancy.elmahassni_bound):
        assert type(bound(inputs)) is float and bound(inputs) == bound(python)

import tracemalloc

import numpy as np
import pytest

from ecss.errors import ScaleGuardError, ValidationError
from ecss.gf2 import (
    BinaryPoly,
    LfsrSource,
    default_init,
    poly_is_irreducible,
    sequence_period,
    windows_distinct,
)
from oracles import PeriodicSource


def all_polys(degree, constant_term=None):
    for mask in range(1 << degree, 1 << (degree + 1)):
        if constant_term is not None and (mask & 1) != constant_term:
            continue
        yield BinaryPoly(mask)


class TestBinaryPoly:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValidationError):
            BinaryPoly(1)
        with pytest.raises(ValidationError):
            BinaryPoly(0)

    def test_hex_round_trip(self):
        poly = BinaryPoly.from_hex("0x7")
        assert poly.degree == 2
        assert poly.to_hex() == "0x7"
        assert str(poly) == "X^2 + X + 1"

    def test_recurrence_taps(self):
        assert BinaryPoly(0b1011).recurrence_taps == 0b011

    @pytest.mark.parametrize("mask", [2.5, 19.0, "0x13", True, None])
    def test_rejects_non_integer_mask(self, mask):
        # A float or string mask was once accepted, and .degree then raised AttributeError.
        with pytest.raises(ValidationError, match="mask must be an integer"):
            BinaryPoly(mask)

    def test_numpy_mask_becomes_python_int(self):
        poly = BinaryPoly(np.int64(19))
        assert poly.degree == 4 and type(poly.mask) is int and poly == BinaryPoly(19)


class TestIrreducibility:
    def test_degree_one(self):
        assert poly_is_irreducible(BinaryPoly(0b11))  # X + 1
        assert poly_is_irreducible(BinaryPoly(0b10))  # X

    def test_known_small(self):
        assert poly_is_irreducible(BinaryPoly(0b111))  # X^2+X+1
        assert not poly_is_irreducible(BinaryPoly(0b101))  # (X+1)^2

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    def test_matches_trial_division(self, degree):
        # Oracle: trial division by every lower-degree polynomial.
        def divides(d, f):
            while f.bit_length() >= d.bit_length():
                f ^= d << (f.bit_length() - d.bit_length())
            return f == 0

        for poly in all_polys(degree):
            has_factor = any(
                divides(d, poly.mask)
                for low in range(1, degree)
                for d in range(1 << low, 1 << (low + 1))
            )
            assert poly_is_irreducible(poly) == (not has_factor)


class TestGenerateBits:
    def test_worked_trace(self):
        src = LfsrSource(BinaryPoly(0b111), (1, 0))
        assert src.bits(6) == [1, 0, 1, 1, 0, 1]

    def test_zero_state_is_fixed(self):
        src = LfsrSource(BinaryPoly(0b1011), (0, 0, 0))
        assert src.bits(7) == [0] * 7

    def test_constant_recurrence(self):
        src = LfsrSource(BinaryPoly(0b11), (1,))
        assert src.bits(3) == [1, 1, 1]

    def test_reads_are_repeatable(self):
        src = LfsrSource(BinaryPoly(0b1011), (1, 0, 1))
        first = src.bits(20)
        src.bits(5)
        assert src.bits(20) == first

    def test_negative_count_rejected(self):
        # bits(-1) once returned [].
        with pytest.raises(ValidationError, match="count must be >= 0, got -1"):
            LfsrSource(BinaryPoly(0b111), (1, 0)).bits(-1)

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LfsrSource(BinaryPoly(0b111), (1, 0, 1))

    @pytest.mark.parametrize("init", [(1.0, 0), (1, 0.0), (True, 0), ("1", 0), (2, 0), (np.float64(1), 0)])
    def test_non_bit_init_rejected(self, init):
        # (1.0, 0) once passed the 0/1 test and then raised TypeError from the bit shift.
        with pytest.raises(ValidationError, match="window bits must be 0 or 1"):
            LfsrSource(BinaryPoly(0b111), init)

    def test_non_poly_rejected(self):
        with pytest.raises(ValidationError, match="poly must be a BinaryPoly, got 7"):
            LfsrSource(0x7, (1, 0))

    def test_non_sequence_init_rejected(self):
        with pytest.raises(ValidationError, match="initial window must be a sequence of bits, got 10"):
            LfsrSource(BinaryPoly(7), 10)

    def test_numpy_init_bits(self):
        src = LfsrSource(BinaryPoly(0b111), (np.int64(1), 0))
        assert src.bits(4) == [1, 0, 1, 1] and all(type(b) is int for b in src.bits(4))

    def test_nonzero_state_stays_nonzero(self):
        # Invertible state map when the constant term is 1.
        for poly in all_polys(4, constant_term=1):
            stream = LfsrSource(poly, (1, 1, 0, 1)).bits(44)
            for n in range(1, 41):
                assert any(stream[n : n + 4])


class TestSequencePeriod:
    def test_worked_examples(self):
        assert sequence_period(BinaryPoly(0b111), (1, 0)) == 3
        assert sequence_period(BinaryPoly(0b11), (1,)) == 1
        assert sequence_period(BinaryPoly(0b1011), (1, 0, 0)) == 7

    def test_zero_init_rejected(self):
        with pytest.raises(ValidationError):
            sequence_period(BinaryPoly(0b111), (0, 0))

    def test_constant_term_required(self):
        with pytest.raises(ValidationError):
            sequence_period(BinaryPoly(0b110), (1, 0))

    def test_degree_guard(self):
        with pytest.raises(ScaleGuardError):
            sequence_period(BinaryPoly(1 << 25 | 1), (1,) + (0,) * 24)

    @pytest.mark.parametrize("init", [(1,), (1, 0, 0), (1, 2)])
    def test_init_checked_as_by_the_register(self, init):
        with pytest.raises(ValidationError) as from_period:
            sequence_period(BinaryPoly(0b111), init)
        with pytest.raises(ValidationError) as from_register:
            LfsrSource(BinaryPoly(0b111), init)
        assert str(from_period.value) == str(from_register.value)

    def test_default_init_is_the_unit_window(self):
        assert default_init(1) == (1,) and default_init(4) == (1, 0, 0, 0)

    @pytest.mark.parametrize("degree", range(2, 9))
    def test_irreducible_period_independent_of_init(self, degree):
        for poly in all_polys(degree, constant_term=1):
            if not poly_is_irreducible(poly):
                continue
            periods = {
                sequence_period(poly, tuple((init >> i) & 1 for i in range(degree)))
                for init in range(1, 1 << degree)
            }
            assert len(periods) == 1
            assert (2**degree - 1) % periods.pop() == 0

    def test_generate_bits_has_exactly_that_period(self):
        for poly in all_polys(5, constant_term=1):
            tau = sequence_period(poly, (1, 0, 0, 0, 0))
            bits = LfsrSource(poly, (1, 0, 0, 0, 0)).bits(3 * tau + 5)
            assert bits[tau:] == bits[:-tau]
            # no smaller shift works
            for smaller in range(1, tau):
                if bits[smaller : 2 * tau] != bits[: 2 * tau - smaller]:
                    break
            else:
                assert tau == 1


class TestWindowsDistinct:
    def test_worked_examples(self):
        assert windows_distinct(LfsrSource(BinaryPoly(0b111), (1, 0)), 2, 3)
        assert not windows_distinct(PeriodicSource((1,)), 2, 2)

    @pytest.mark.parametrize("r, tau", [(0, 1), (1, 0)])
    def test_rejects_empty_windows_and_periods(self, r, tau):
        with pytest.raises(ValidationError, match="window length must be >= 1" if r < 1 else "tau must be >= 1"):
            windows_distinct(LfsrSource(BinaryPoly(0b111), (1, 0)), r, tau)

    def test_all_two_to_the_r_windows_can_be_distinct(self):
        # u = 0011 repeated: from u(2) on, the 2-bit windows are 01, 11, 10, 00, so a fifth must repeat.
        assert windows_distinct(PeriodicSource((0, 0, 1, 1)), 2, 4)
        assert not windows_distinct(PeriodicSource((0, 0, 1, 1)), 2, 5)

    @pytest.mark.parametrize("r, tau, distinct", [(2, 10**12, False), (40, 10**12, None), (10**12, 1, None)])
    def test_huge_arguments_read_no_bit(self, r, tau, distinct):
        # More than 2^r windows repeat one; past the period walk's 2^24 windows of 24 bits it is a scale guard.
        class Unread(PeriodicSource):
            def bits(self, count):
                raise AssertionError(f"read {count} bits")

        tracemalloc.start()
        try:
            if distinct is None:
                with pytest.raises(ScaleGuardError, match="window bits"):
                    windows_distinct(Unread((1,)), r, tau)
            else:
                assert windows_distinct(Unread((1,)), r, tau) is distinct
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_maximal_period_registers(self, degree):
        init = (1,) + (0,) * (degree - 1)
        full = 2**degree - 1
        hit = 0
        for poly in all_polys(degree, constant_term=1):
            if not poly_is_irreducible(poly):
                continue
            if sequence_period(poly, init) != full:
                continue
            hit += 1
            assert windows_distinct(LfsrSource(poly, init), degree, full)
        assert hit > 0  # at least one primitive polynomial at every degree

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_the_period_walk_proves_the_windows_distinct(self, degree):
        # The windows of a register are its states, so one period of them never repeats: reducible
        # or not, whatever the nonzero start. ExperimentConfig and `ecss lfsr-info` rely on this.
        for poly in all_polys(degree, constant_term=1):
            for packed in range(1, 1 << degree):
                init = tuple((packed >> i) & 1 for i in range(degree))
                assert windows_distinct(LfsrSource(poly, init), degree, sequence_period(poly, init)), (poly, init)

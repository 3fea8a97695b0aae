import math

import numpy as np
import pytest

from ecss.combinat import (
    BadPairCount,
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
    which_h_dominates,
)
from ecss.errors import ScaleGuardError, ValidationError

ALPHA_TABLE = {2: 3.87298, 3: 3.97906, 4: 3.99609, 5: 3.99922, 6: 3.99984}
BETA_TABLE = {2: 3.73205, 3: 3.93947, 4: 3.98444, 5: 3.99615, 6: 3.99903}


def int_bits(value, r):
    return tuple((value >> i) & 1 for i in range(r))


class TestAlpha:
    def test_s_one(self):
        assert alpha(1) == 3.0

    @pytest.mark.parametrize("s,expected", sorted(ALPHA_TABLE.items()))
    def test_table(self, s, expected):
        assert abs(alpha(s) - expected) <= 1e-5

    def test_validation(self):
        with pytest.raises(ValidationError):
            alpha(0)


class TestIsSGood:
    def test_worked_examples(self):
        assert is_s_good((1, 0), (0, 1), 1)
        assert not is_s_good((1, 1), (0, 0), 1)

    def test_equal_vectors_are_bad(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = int(rng.integers(1, 9))
            x = tuple(int(b) for b in rng.integers(0, 2, size=r))
            assert not is_s_good(x, x, max(1, min(3, r)))

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            r = int(rng.integers(2, 9))
            s = int(rng.integers(1, min(r, 3) + 1))
            x = tuple(int(b) for b in rng.integers(0, 2, size=r))
            y = tuple(int(b) for b in rng.integers(0, 2, size=r))
            assert is_s_good(x, y, s) == is_s_good(y, x, s)

    def test_validation(self):
        with pytest.raises(ValidationError):
            is_s_good((1, 0), (0, 1, 1), 1)
        with pytest.raises(ValidationError):
            is_s_good((1,), (0,), 2)


class TestBruteForceCounts:
    def test_tiny_cases(self):
        assert brute_force_bad_count(1, 1).f == 4
        assert brute_force_bad_count(2, 1).f == 14

    @pytest.mark.parametrize("r", range(1, 13))
    def test_closed_form_s1(self, r):
        assert brute_force_bad_count(r, 1).f == 2 * 3**r - 2**r

    def test_matches_predicate_enumeration(self):
        # independent oracle: evaluate is_s_good on every pair directly
        for r, s in [(3, 1), (4, 2), (5, 3), (4, 1)]:
            expected = sum(
                not is_s_good(int_bits(x, r), int_bits(y, r), s)
                for x in range(1 << r)
                for y in range(1 << r)
            )
            assert brute_force_bad_count(r, s).f == expected

    def test_wrt_first_examples(self):
        assert brute_force_bad_wrt_first(2, 1, 1) == 9
        for r in range(1, 11):
            assert brute_force_bad_wrt_first(r, 1, 1) == 3**r
        for s in (1, 2, 3):
            for h in range(1, s + 1):
                assert brute_force_bad_wrt_first(s, s, h) == 4**s - 1

    def test_wrt_first_matches_predicate(self):
        def wrt_first_bad(x, y, r, s, h):
            target = tuple(1 if t == h - 1 else 0 for t in range(s))
            zero = (0,) * s
            return not any(
                x[i : i + s] == target and y[i : i + s] == zero for i in range(r - s + 1)
            )

        for r, s, h in [(4, 2, 1), (4, 2, 2), (5, 3, 2)]:
            expected = sum(
                wrt_first_bad(int_bits(x, r), int_bits(y, r), r, s, h)
                for x in range(1 << r)
                for y in range(1 << r)
            )
            assert brute_force_bad_wrt_first(r, s, h) == expected

    def test_per_h_members_bound_f(self):
        for r, s in [(6, 2), (7, 3)]:
            tally = brute_force_bad_count(r, s)
            for count in tally.per_h:
                assert tally.f >= count

    def test_monotone_in_s(self):
        for r in range(3, 11):
            f_values = [brute_force_bad_count(r, s).f for s in (1, 2, 3)]
            assert f_values[0] <= f_values[1] <= f_values[2]

    def test_f_at_most_total(self):
        for r, s in [(5, 1), (6, 2), (6, 3)]:
            assert brute_force_bad_count(r, s).f <= 4**r

    def test_guard(self):
        with pytest.raises(ScaleGuardError):
            brute_force_bad_count(14, 1)
        with pytest.raises(ScaleGuardError):
            brute_force_bad_wrt_first(14, 1, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            brute_force_bad_count(2, 3)
        with pytest.raises(ValidationError):
            brute_force_bad_wrt_first(4, 2, 3)


class TestLemmaBound:
    def test_examples(self):
        assert bad_pair_upper_bound(3, 1) == 54.0
        assert brute_force_bad_count(3, 1).f == 46
        assert bad_pair_upper_bound(1, 1) == 6.0

    def test_bounds_exact_counts(self):
        for s in (1, 2, 3):
            for r in range(s, 11):
                assert brute_force_bad_count(r, s).f <= bad_pair_upper_bound(r, s)


class TestTransferMatrix:
    def test_s1_complete_graph(self):
        tm = transfer_matrix(1, 1)
        assert tm.dim == 3
        assert tm.dense().tolist() == [[1, 1, 1]] * 3

    def test_dimension(self):
        assert transfer_matrix(2, 1).dim == 15
        assert transfer_matrix(3, 2).dim == 63

    def test_row_sums_at_most_four(self):
        for s, h in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            tm = transfer_matrix(s, h)
            assert all(len(succ) <= 4 for succ in tm.successors)
            assert tm.dense().max() <= 1

    def test_guard(self):
        with pytest.raises(ScaleGuardError):
            transfer_matrix(9, 1)

    def test_pattern_validation(self):
        with pytest.raises(ValidationError):
            WindowPattern(2, 3)


class TestWalkCount:
    def test_zero_steps_counts_states(self):
        for s, h in [(1, 1), (2, 2), (3, 1)]:
            assert walk_count(transfer_matrix(s, h), 0) == 4**s - 1

    def test_s1_powers_of_three(self):
        tm = transfer_matrix(1, 1)
        for r in range(1, 14):
            assert walk_count(tm, r - 1) == 3**r

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_cross_validates_brute_force(self, s):
        for h in range(1, s + 1):
            tm = transfer_matrix(s, h)
            for r in range(s, 13):
                assert walk_count(tm, r - s) == brute_force_bad_wrt_first(r, s, h)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            walk_count(transfer_matrix(1, 1), -1)


class TestSpectralRadius:
    def test_all_ones(self):
        est = spectral_radius(np.ones((3, 3)), 1e-10)
        assert est.converged and abs(est.value - 3.0) < 1e-9

    def test_weighted_two_cycle_falls_back(self):
        est = spectral_radius(np.array([[0.0, 2.0], [1.0, 0.0]]), 1e-12, max_iterations=200)
        assert est.method == "walk-ratio"
        assert abs(est.value - math.sqrt(2.0)) < 1e-6

    def test_matches_dense_eigensolver(self):
        for s, h in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            tm = transfer_matrix(s, h)
            top = max(abs(np.linalg.eigvals(tm.dense().astype(float))))
            est = spectral_radius(tm, 1e-10)
            assert abs(est.value - top) < 1e-7

    def test_validation(self):
        with pytest.raises(ValidationError):
            spectral_radius(np.ones((2, 3)), 1e-9)
        with pytest.raises(ValidationError):
            spectral_radius(np.ones((3, 3)), 0.0)
        with pytest.raises(ValidationError):
            spectral_radius(-np.ones((3, 3)), 1e-9)


class TestBeta:
    @pytest.mark.parametrize("s,expected", sorted(BETA_TABLE.items()))
    def test_table(self, s, expected):
        assert abs(beta(s) - expected) <= 1e-5

    def test_below_alpha(self):
        for s in range(2, 7):
            assert beta(s) < alpha(s) < 4.0

    def test_walk_counts_grow_like_beta(self):
        # growth of the exact per-pattern counts approaches the dominant eigenvalue
        tm = transfer_matrix(2, 1)
        ratio = walk_count(tm, 40) / walk_count(tm, 39)
        assert abs(ratio - spectral_radius(tm, 1e-12).value) < 1e-6


class TestDominantPatterns:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_reflection_invariance(self, s):
        dominant = which_h_dominates(s)
        assert dominant == tuple(sorted(s + 1 - h for h in dominant))

    def test_middle_patterns_dominate(self):
        assert which_h_dominates(2) == (1, 2)
        assert which_h_dominates(3) == (2,)

    def test_bracket_contains_exact_count(self):
        for s in (1, 2, 3):
            for r in range(s, 11):
                lower, upper = bad_count_bracket(r, s)
                f = brute_force_bad_count(r, s).f
                assert lower <= f <= upper


class TestBadPairCountType:
    def test_fields(self):
        tally = brute_force_bad_count(4, 2)
        assert isinstance(tally, BadPairCount)
        assert tally.r == 4 and tally.s == 2 and len(tally.per_h) == 2

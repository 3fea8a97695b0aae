import numpy as np
import pytest

from ecss import combinat
from ecss.combinat import (
    MAX_SPAN,
    MAX_POWER_ITERATIONS,
    MIN_TOLERANCE,
    BadPairCount,
    SpectralRadiusEstimate,
    TransferMatrix,
    alpha,
    bad_count_bracket,
    bad_pair_count,
    bad_pair_upper_bound,
    beta,
    brute_force_bad_count,
    brute_force_bad_wrt_first,
    dominant_patterns,
    pattern_radii,
    spectral_radius,
    transfer_matrix,
    walk_count,
)
from ecss.cli import main as cli_main
from ecss.errors import ScaleGuardError, ValidationError
from oracles import is_s_good

ALPHA_TABLE = {2: 3.87298, 3: 3.97906, 4: 3.99609, 5: 3.99922, 6: 3.99984}
BETA_TABLE = {2: 3.73205, 3: 3.93947, 4: 3.98444, 5: 3.99615, 6: 3.99903}


def int_bits(value, r):
    return tuple((value >> i) & 1 for i in range(r))


def scalar_successors(s, h):
    """The state-by-state successor loop that transfer_matrix replaced, kept as its oracle."""
    size = 1 << s
    forbidden = (1 << (h - 1) << s) | 0
    top = 1 << (s - 1)

    def index(state):
        return state - (1 if state > forbidden else 0)

    successors = []
    for state in range(size * size):
        if state == forbidden:
            continue
        v, w = state >> s, state & (size - 1)
        out = []
        for bx in (0, 1):
            nv = (v >> 1) | (bx * top)
            for by in (0, 1):
                nw = (w >> 1) | (by * top)
                nstate = (nv << s) | nw
                if nstate != forbidden:
                    out.append(index(nstate))
        successors.append(tuple(sorted(out)))
    return tuple(successors)


def gather_successors(tm):
    """Each row of the successor table with the pad slot dropped."""
    return tuple(tuple(j for j in row if j != tm.dim) for row in combinat._successor_gather(tm).tolist())


def dense(tm):
    """The 0/1 adjacency matrix spelled out from the successor table, for the dense eigensolver."""
    mat = np.zeros((tm.dim, tm.dim))
    for i, row in enumerate(gather_successors(tm)):
        mat[i, list(row)] = 1.0
    return mat


def gather_power_iteration(tm, tolerance):
    """The power iteration that gathered through the successor table, kept as the oracle of the matvec.

    Returns (value, residual, iterations) as spectral_radius did before it
    stopped reading the successor table.
    """
    pad = combinat._successor_gather(tm)
    x = np.ones(tm.dim)
    x /= np.linalg.norm(x)
    prev = rayleigh = None
    for iteration in range(MAX_POWER_ITERATIONS + 1):
        y = np.concatenate([x, [0.0]])[pad].sum(axis=1)
        if prev is not None and abs(rayleigh - prev) < tolerance:
            return rayleigh, float(np.max(np.abs(y - rayleigh * x))), iteration
        prev, rayleigh = rayleigh, float(x @ y)
        x = y / np.linalg.norm(y)
    raise AssertionError("the oracle did not settle")


def gather_walk_totals(tm, steps):
    """walk_count(tm, t) for t = 0..steps, by gathering Python ints through the successor table."""
    pad = combinat._successor_gather(tm)
    ext = np.ones(tm.dim + 1, dtype=object)
    ext[-1] = 0
    totals = [int(ext[:-1].sum())]
    for _ in range(steps):
        ext[:-1] = ext[pad].sum(axis=1)
        totals.append(int(ext[:-1].sum()))
    return totals


class TestAlpha:
    def test_s_one(self):
        assert alpha(1) == 3.0

    @pytest.mark.parametrize("s,expected", sorted(ALPHA_TABLE.items()))
    def test_table(self, s, expected):
        assert abs(alpha(s) - expected) <= 1e-5

    def test_validation(self):
        with pytest.raises(ValidationError):
            alpha(0)

    def test_float_overflow_is_validation_error(self):
        assert alpha(511) == (4.0**511 - 1.0) ** (1.0 / 511)  # the last s whose 4^s is a float
        for s in (512, 5000):
            with pytest.raises(ValidationError, match="overflows a float"):
                alpha(s)
        with pytest.raises(ValidationError, match="overflows a float"):
            bad_pair_upper_bound(5000, 2)


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

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_per_h_equals_wrt_first(self, s):  # the h -> per_h[h - 1] mapping
        for r in range(s, 9):
            tally = brute_force_bad_count(r, s)
            assert tally.per_h == tuple(brute_force_bad_wrt_first(r, s, h) for h in range(1, s + 1))

    def test_f_equals_predicate_count_over_all_pairs(self):
        for r in range(1, 6):
            for s in range(1, min(r, 3) + 1):
                expected = sum(
                    not is_s_good(int_bits(x, r), int_bits(y, r), s)
                    for x in range(1 << r)
                    for y in range(1 << r)
                )
                assert brute_force_bad_count(r, s).f == expected

    def test_counts_do_not_depend_on_block_size(self, monkeypatch):
        whole = [brute_force_bad_count(8, s) for s in (1, 2, 3)]
        wrt_first = brute_force_bad_wrt_first(8, 3, 2)
        monkeypatch.setattr(combinat, "_BLOCK", 1 << 10)  # 4 rows of x per block, 64 blocks
        assert [brute_force_bad_count(8, s) for s in (1, 2, 3)] == whole
        assert brute_force_bad_wrt_first(8, 3, 2) == wrt_first

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


# The largest r the automaton guard admits for each s; s = 6 is past it at every r.
AUTOMATON_EDGE = {1: 4464, 2: 1117, 3: 273, 4: 63, 5: 13}


class TestBadPairAutomaton:
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, s):
        for r in range(s, 11):
            assert bad_pair_count(r, s) == brute_force_bad_count(r, s)

    def test_closed_form_s1_at_r200(self):
        assert bad_pair_count(200, 1).f == 2 * 3**200 - 2**200

    def test_walk_counts_and_bracket_at_r40(self):
        tally = bad_pair_count(40, 3)
        assert tally.per_h == tuple(walk_count(transfer_matrix(3, h), 37) for h in (1, 2, 3))
        lower, upper = bad_count_bracket(40, 3)
        assert lower <= tally.f <= upper
        assert f"{tally.f:.4e}" == "1.1720e+24"

    @pytest.mark.parametrize("s, rs, tolerance", [(2, (40, 100, 200), 1e-5), (3, (100, 200, 272), 1e-3)])
    def test_growth_ratio_approaches_beta(self, s, rs, tolerance):
        # Measured gaps f(r+1)/f(r) - beta: 2.9e-2, 1.1e-3, 8.2e-6 at s = 2; 2.6e-2, 5.8e-3, 9.1e-4 at s = 3.
        target = beta(s, 1e-12)
        gaps = [bad_pair_count(r + 1, s).f / bad_pair_count(r, s).f - target for r in rs]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < tolerance

    def test_per_h_equals_walk_counts_at_the_worst_guard_edge(self):
        s, r = 5, AUTOMATON_EDGE[5]
        tally = bad_pair_count(r, s)
        assert tally.per_h == tuple(walk_count(transfer_matrix(s, h), r - s) for h in range(1, s + 1))
        lower, upper = bad_count_bracket(r, s)
        assert lower <= tally.f <= min(upper, 4**r)

    @pytest.mark.parametrize("s", sorted(AUTOMATON_EDGE))
    def test_guard_edge(self, s):
        combinat._check_automaton_guard(AUTOMATON_EDGE[s], s)
        with pytest.raises(ScaleGuardError):
            bad_pair_count(AUTOMATON_EDGE[s] + 1, s)

    @pytest.mark.parametrize("r, s", [(6, 6), (2**70, 2), (2**70, 2**70)])
    def test_guard_needs_no_table(self, r, s):
        with pytest.raises(ScaleGuardError):
            bad_pair_count(r, s)

    @pytest.mark.parametrize("r, s", [(2, 3), (1, 0), (0, 0), (-1, 1)])
    def test_validation(self, r, s):
        with pytest.raises(ValidationError):
            bad_pair_count(r, s)


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
        assert combinat._successor_gather(tm).tolist() == [[0, 1, 2, 3]] * 3  # three successors and the pad slot

    def test_dimension(self):
        assert transfer_matrix(2, 1).dim == 15
        assert transfer_matrix(3, 2).dim == 63

    def test_row_sums_at_most_four(self):
        for s, h in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            tm = transfer_matrix(s, h)
            assert all(len(set(succ)) == len(succ) <= 4 for succ in gather_successors(tm))

    @pytest.mark.parametrize("s", range(1, 7))
    def test_matches_scalar_loop(self, s):
        for h in range(1, s + 1):
            assert gather_successors(transfer_matrix(s, h)) == scalar_successors(s, h)

    def test_successor_gather_contract(self):
        for s, h in [(1, 1), (2, 2), (3, 1), (4, 3)]:
            tm = transfer_matrix(s, h)
            pad = combinat._successor_gather(tm)
            assert pad.shape == (tm.dim, 4) and pad.dtype == np.int64
            assert (np.diff(pad, axis=1) >= 0).all()
            assert ((pad >= 0) & (pad <= tm.dim)).all()
            expected = np.full((tm.dim, 4), tm.dim)
            for i, succ in enumerate(scalar_successors(s, h)):
                expected[i, : len(succ)] = succ
            assert np.array_equal(pad, expected)

    @pytest.mark.parametrize("s, h", [(1, 1), (3, 2), (5, 4)])
    def test_matrix_holds_only_s_and_h(self, s, h):
        tm = transfer_matrix(s, h)
        spectral_radius(tm)
        walk_count(tm, 5)
        combinat._successor_gather(tm)
        assert vars(tm) == {"s": s, "h": h}  # nothing is cached on the matrix

    def test_guard(self):
        with pytest.raises(ScaleGuardError):
            transfer_matrix(9, 1)
        with pytest.raises(ScaleGuardError):
            TransferMatrix(9, 1)

    @pytest.mark.parametrize("s, h, message", [
        (3, 9, "need 1 <= h <= s, got h=9, s=3"),  # walk_count once raised IndexError on it
        (0, 5, "s must be >= 1"),  # spectral_radius once raised ValueError on it
        (2.0, 1, "s must be an integer"),
        (2, 1.0, "h must be an integer"),
    ])
    def test_record_is_its_own_gate(self, s, h, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            TransferMatrix(s, h)
        with pytest.raises(ValidationError, match=f"^{message}"):
            transfer_matrix(s, h)

    def test_numpy_span_becomes_python_int(self):
        tm = TransferMatrix(np.int64(3), np.int64(2))
        assert tm == transfer_matrix(3, 2) and type(tm.s) is int and type(tm.h) is int

    def test_pattern_validation(self):
        for h in (0, 3):
            for check in (combinat.validate_pattern, transfer_matrix, lambda s, h: brute_force_bad_wrt_first(4, s, h)):
                with pytest.raises(ValidationError, match=f"need 1 <= h <= s, got h={h}, s=2"):
                    check(2, h)


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

    @pytest.mark.parametrize("s", range(1, 7))
    def test_matches_gather_walk(self, s):
        for h in range(1, s + 1):
            tm = transfer_matrix(s, h)
            assert [walk_count(tm, steps) for steps in range(21)] == gather_walk_totals(tm, 20)

    def test_counts_are_exact_beyond_int64(self):
        assert walk_count(transfer_matrix(1, 1), 60) == 3**61

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError):
            walk_count(transfer_matrix(1, 1), -1)


class TestSpectralRadius:
    def test_matches_dense_eigensolver(self):
        for s, h in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            tm = transfer_matrix(s, h)
            top = max(abs(np.linalg.eigvals(dense(tm))))
            est = spectral_radius(tm, 1e-10)
            assert abs(est.value - top) < 1e-7

    @pytest.mark.parametrize("tolerance", [1e-6, 1e-9, 1e-13])
    @pytest.mark.parametrize("s", range(1, MAX_SPAN + 1))
    def test_equals_gather_oracle_bit_for_bit(self, s, tolerance):
        for h in range(1, s + 1):
            tm = transfer_matrix(s, h)
            assert spectral_radius(tm, tolerance) == SpectralRadiusEstimate(*gather_power_iteration(tm, tolerance))

    def test_validation(self):
        with pytest.raises(ValidationError):
            spectral_radius(transfer_matrix(1, 1), 0.0)

    @pytest.mark.parametrize("tolerance", [1e-300, 1e-15, MIN_TOLERANCE / 2])
    def test_tolerance_below_floor_rejected(self, tolerance):
        with pytest.raises(ValidationError):
            spectral_radius(transfer_matrix(2, 1), tolerance)

    @pytest.mark.parametrize("s", range(1, MAX_SPAN + 1))
    def test_floor_tolerance_converges(self, s):
        # every matrix the library can build settles well inside the iteration cap
        for h in range(1, s + 1):
            est = spectral_radius(transfer_matrix(s, h), MIN_TOLERANCE)
            assert est.iterations <= 20

    def test_iteration_cap_is_a_scale_guard(self, monkeypatch, capsys):
        monkeypatch.setattr(combinat, "MAX_POWER_ITERATIONS", 1)
        with pytest.raises(ScaleGuardError):
            spectral_radius(transfer_matrix(2, 1), 1e-9)
        assert cli_main(["beta", "--s", "3"]) == 3
        assert capsys.readouterr().out == ""


class TestBeta:
    @pytest.mark.parametrize("s,expected", sorted(BETA_TABLE.items()))
    def test_table(self, s, expected):
        assert abs(beta(s) - expected) <= 1e-5

    def test_below_alpha(self):
        for s in range(2, 7):
            assert beta(s) < alpha(s) < 4.0

    def test_is_the_largest_pattern_radius(self):
        for s in (1, 3, 5):
            radii = pattern_radii(s)
            assert len(radii) == s
            assert beta(s) == max(radii)
            assert radii == tuple(spectral_radius(transfer_matrix(s, h), 1e-9).value
                                  for h in range(1, s + 1))

    def test_walk_counts_grow_like_beta(self):
        # growth of the exact per-pattern counts approaches the dominant eigenvalue
        tm = transfer_matrix(2, 1)
        ratio = walk_count(tm, 40) / walk_count(tm, 39)
        assert abs(ratio - spectral_radius(tm, 1e-12).value) < 1e-6


class TestDominantPatterns:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_reflection_invariance(self, s):
        dominant = dominant_patterns(pattern_radii(s))
        assert dominant == tuple(sorted(s + 1 - h for h in dominant))

    def test_middle_patterns_dominate(self):
        assert dominant_patterns(pattern_radii(2)) == (1, 2)
        assert dominant_patterns(pattern_radii(3)) == (2,)

    def test_dominant_patterns_reads_radii(self):
        assert dominant_patterns((3.0, 4.0, 4.0 - 1e-7, 2.0)) == (2, 3)
        assert dominant_patterns((3.0, 4.0, 4.0 - 1e-5)) == (2,)

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

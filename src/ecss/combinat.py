"""Window-pattern pair combinatorics: bad-pair counts, transfer matrices, growth rates.

A pair of r-bit vectors (x, y) is called s-good when for every basis index
h = 1..s both oriented occurrences of the window pattern (e_h, 0_s) show up:
some position i with x-window e_h against y-window 0_s, and some position j
with the roles reversed.  Pairs failing this are s-bad; their count f_s(r)
grows like a power of the dominant eigenvalue of a de Bruijn-product walk
matrix, and is bounded above by 2s 4^(s-1) alpha_s^r with
alpha_s = (4^s - 1)^(1/s).
"""

from __future__ import annotations

import math
from operator import add

from .errors import ScaleGuardError, ValidationError, alpha, finite_float, int_fields, record, validate_int

MAX_BRUTE_FORCE_PAIRS = 10**8  # 4^r <= 1e8, i.e. r <= 13
# 16^s automaton states x (r - s + 1) steps x 64-bit words of a count (about 2r bits); excludes s >= 6
MAX_AUTOMATON_WORK = 10**7
MAX_SPAN = 8  # transfer matrix dimension 4^s - 1 <= 65535
# Rayleigh-quotient stagnation cannot resolve differences much below float
# epsilon; a smaller tolerance would run every iteration.
MIN_TOLERANCE = 1e-13
MAX_POWER_ITERATIONS = 1000
TIE_GAP = 1e-6  # radii this close to the top count as dominant
_BLOCK = 1 << 17  # pair-matrix entries per block; small blocks keep the temporaries in cache


def _validate_r_s(r: int, s: int) -> tuple[int, int]:
    r, s = validate_int(r, "r"), validate_int(s, "s")
    if s < 1 or r < s:
        raise ValidationError("need r >= s >= 1")
    return r, s


@finite_float
def bad_pair_upper_bound(r: int, s: int) -> float:
    """Explicit upper bound 2s 4^(s-1) alpha_s^r on the number of s-bad pairs."""
    r, s = _validate_r_s(r, s)
    return 2.0 * s * 4.0 ** (s - 1) * alpha(s) ** r


def validate_pattern(s: int, h: int) -> None:
    """Reject a forbidden window pair (e_h, 0_s), basis vector against the zero window, unless 1 <= h <= s."""
    s, h = validate_int(s, "s"), validate_int(h, "h")
    if not 1 <= h <= s:
        raise ValidationError(f"need 1 <= h <= s, got h={h}, s={s}")


def _occurrence_masks(r: int, s: int):
    """Per-value position masks: for every v in [0, 2^r), which windows hit a pattern.

    Returns (zero_mask, basis_masks) where bit i of zero_mask[v] says the
    window of v at position i is all-zero, and basis_masks[h-1][v] likewise
    for the basis window e_h.
    """
    import numpy as np

    values = np.arange(1 << r, dtype=np.uint32)
    wmask = np.uint32((1 << s) - 1)
    zero = np.zeros(1 << r, dtype=np.uint32)
    basis = [np.zeros(1 << r, dtype=np.uint32) for _ in range(s)]
    for i in range(r - s + 1):
        w = (values >> np.uint32(i)) & wmask
        zero |= (w == 0).astype(np.uint32) << np.uint32(i)
        for h in range(1, s + 1):
            basis[h - 1] |= (w == np.uint32(1 << (h - 1))).astype(np.uint32) << np.uint32(i)
    return zero, basis


def _check_brute_force_guard(r: int, s: int) -> tuple[int, int]:
    r, s = _validate_r_s(r, s)
    if 2 * r >= MAX_BRUTE_FORCE_PAIRS.bit_length():  # 4^r > the cap, without building 4^r for a huge r
        raise ScaleGuardError(f"enumeration of 4^{r} pairs exceeds {MAX_BRUTE_FORCE_PAIRS}")
    return r, s


def brute_force_bad_wrt_first(r: int, s: int, h: int) -> int:
    """Exhaustive count of pairs with no position where x shows e_h against y's 0_s."""
    validate_pattern(s, h)
    return brute_force_bad_count(r, s).per_h[h - 1]


@record
class BadPairCount:
    """Exact bad-pair tally for vector length r and window span s."""

    r: int
    s: int
    f: int
    per_h: tuple[int, ...]  # pairs (s,h)-bad with respect to the first vector, h = 1..s


def brute_force_bad_count(r: int, s: int) -> BadPairCount:
    """Exhaustive enumeration of all 4^r pairs, counting the s-bad ones.

    The pair predicate is evaluated for every (x, y), vectorised in blocks of
    x; there is no combinatorial shortcut here, which is what makes this the
    oracle for the walk-counting route.  brute_force_bad_wrt_first reads
    its per-h counts from here.
    """
    import numpy as np

    r, s = _check_brute_force_guard(r, s)
    zero, basis = _occurrence_masks(r, s)
    size = 1 << r
    good_total = 0
    hit_totals = [0] * s  # pairs where x shows e_h against y's 0_s somewhere
    rows = max(1, _BLOCK >> r)
    for lo in range(0, size, rows):
        zx = zero[lo : lo + rows, None]
        for k, eh in enumerate(basis):
            hit = (eh[lo : lo + rows, None] & zero[None, :]) != 0
            hit_totals[k] += int(np.count_nonzero(hit))
            hit &= (zx & eh[None, :]) != 0  # both orientations of (e_h, 0_s)
            if k == 0:
                good = hit
            else:
                good &= hit
        good_total += int(np.count_nonzero(good))
    f = size * size - good_total
    per_h = tuple(size * size - hits for hits in hit_totals)
    return BadPairCount(r=r, s=s, f=f, per_h=per_h)


def _check_automaton_guard(r: int, s: int) -> tuple[int, int]:
    r, s = _validate_r_s(r, s)
    # 16^s alone is past the cap once 4s exceeds its bit length, so 16^s is built only for s <= 6
    if 4 * s > MAX_AUTOMATON_WORK.bit_length() or 16**s * (r - s + 1) * (2 * r // 64 + 1) > MAX_AUTOMATON_WORK:
        raise ScaleGuardError(f"bad-pair automaton at r = {r}, s = {s}: 16^s states x (r - s + 1) steps "
                              f"x (2r // 64 + 1) words exceeds {MAX_AUTOMATON_WORK}")
    return r, s


def bad_pair_count(r: int, s: int) -> BadPairCount:
    """Exact s-bad tally from one pass of a flag automaton, in Python ints.

    A state is the window pair (v, w) of x and y, packed v << s | w as in
    TransferMatrix, and 2s flags: flag h - 1 is set once x has shown e_h
    against y's 0_s, flag s + h - 1 once y has shown e_h against x's 0_s.
    Each step reads one fresh bit per stream, so a state has four successors
    and the flags only grow.  A state with every flag set stays s-good, so
    those fold into one counter that each step multiplies by 4, and
    f = 4^r - good.  per_h[h - 1] sums the final states with flag h - 1
    unset: the same integer as walk_count(transfer_matrix(s, h), r - s).

    The counts of each window pair are a list indexed by the flag set.  The
    four pairs that differ only in their oldest bits have the same four
    successors, so a step adds their lists once and hands the sum on; only
    the 2s pairs that set a flag move counts between flag sets.  The work is
    checked against MAX_AUTOMATON_WORK first; its slowest edge, s = 5 at
    r = 13, takes about 0.5 s and 11 MiB of allocations.
    """
    r, s = _check_automaton_guard(r, s)
    pairs = 1 << 2 * s  # window pairs, and flag sets of 2s flags
    full = pairs - 1
    top = 1 << (s - 1)
    mark = [0] * pairs  # the flag each window pair sets
    for h in range(s):
        mark[1 << h << s] = 1 << h  # (e_h, 0_s)
        mark[1 << h] = 1 << s + h  # (0_s, e_h)
    counts = [[int(flags == mark[pair]) for flags in range(pairs)] for pair in range(pairs)]
    good = 0
    for _ in range(r - s):
        good *= 4
        step = [None] * pairs
        for v in range(top):
            for w in range(top):
                low = v << s + 1 | w << 1  # the four predecessors: low plus their oldest bits
                merged = list(map(add, map(add, counts[low], counts[low | 1]),
                                  map(add, counts[low | 1 << s], counts[low | 1 << s | 1])))
                high = v << s | w
                for pair in (high, high | top, high | top << s, high | top << s | top):
                    bit = mark[pair]
                    if bit:
                        flagged = [c + merged[flags ^ bit] if flags & bit else 0
                                   for flags, c in enumerate(merged)]
                        good += flagged[full]
                        flagged[full] = 0
                        step[pair] = flagged
                    else:
                        step[pair] = merged  # shared, never mutated
        counts = step
    totals = [sum(column) for column in zip(*counts)]  # by flag set
    per_h = tuple(sum(c for flags, c in enumerate(totals) if not flags >> h & 1) for h in range(s))
    return BadPairCount(r=r, s=s, f=4**r - good, per_h=per_h)


@record
class TransferMatrix:
    """Walk matrix on pairs of s-bit windows with the vertex (e_h, 0_s) removed.

    States are pairs of windows of two bit streams read in lockstep; each
    state has at most four successors (one fresh bit per stream), so entries
    are 0/1.  Walks of length r - s are in bijection with length-r vector
    pairs avoiding the forbidden window pair, which is exactly the
    bad-with-respect-to-x count.

    The matrix is never stored: _matvec applies it to a vector over all 4^s
    window pairs by reshaping; _successor_gather builds its successor table.
    """

    s: int
    h: int

    def __post_init__(self):
        int_fields(self, "s", "h")
        if self.s < 1:
            raise ValidationError("s must be >= 1")
        if self.s > MAX_SPAN:
            raise ScaleGuardError(f"span capped at {MAX_SPAN} (dimension 4^s - 1)")
        validate_pattern(self.s, self.h)

    @property
    def dim(self) -> int:
        return 4**self.s - 1

    @property
    def forbidden(self) -> int:
        """Packed index v << s | w of the cut state (e_h, 0_s); state i > forbidden has index i - 1."""
        return 1 << (self.h - 1) << self.s  # e_h packed LSB-first: coordinate t of a window is bit t


def transfer_matrix(s: int, h: int) -> TransferMatrix:
    """The TransferMatrix of (s, h), which validates them; nothing of size 4^s is built."""
    return TransferMatrix(s=s, h=h)


def _matvec(full, s: int):
    """M x over all n^2 window pairs (n = 2^s), x given with 0 at the forbidden state.

    The successors of (v, w) are (v >> 1 | b top, w >> 1 | c top), so viewed
    as (2, n/2, 2, n/2) the four quarter blocks of x are the four successor
    sets, and (M x)(v, w) is their sum at (v >> 1, w >> 1).  The blocks are
    added in the increasing successor order of _successor_gather's rows,
    which is the order the floats were always summed in; a cut successor
    adds the 0 at its own place.  The result holds a value at the forbidden
    state too, which callers drop.  Works on float and on Python-int object
    arrays.
    """
    half = 1 << (s - 1)
    y = full.reshape(2, half, 2, half)
    z = y[0, :, 0] + y[0, :, 1] + y[1, :, 0] + y[1, :, 1]
    return z.repeat(2, 0).repeat(2, 1).ravel()


def walk_count(matrix: TransferMatrix, steps: int) -> int:
    """Total walks of the given length over all start states, in exact integers."""
    import numpy as np

    steps = validate_int(steps, "steps", 0)
    f = matrix.forbidden
    full = np.ones(matrix.dim + 1, dtype=object)  # Python ints: counts outgrow int64
    full[f] = 0
    for _ in range(steps):
        full = _matvec(full, matrix.s)
        full[f] = 0
    return int(full.sum())


@record
class SpectralRadiusEstimate:
    value: float
    residual: float
    iterations: int
    method: str = "power-iteration"


def _successor_gather(matrix: TransferMatrix):
    """The (dim, 4) table of each state's successors in increasing order, padded with dim at the cut state.

    It is built on each call, for the benchmark checker and the tests; no solve or count reads it.
    """
    import numpy as np

    s, dim, forbidden = matrix.s, matrix.dim, matrix.forbidden
    top = 1 << (s - 1)
    states = np.delete(np.arange(dim + 1, dtype=np.int64), forbidden)
    base = ((states >> s) >> 1 << s) | ((states & ((1 << s) - 1)) >> 1)
    nxt = base[:, None] + np.array([0, top, top << s, (top << s) | top], dtype=np.int64)
    index = np.where(nxt == forbidden, dim, nxt - (nxt > forbidden))
    index.sort(axis=1)  # the pad slot dim moves to the end of its row
    return index


def spectral_radius(matrix: TransferMatrix, tolerance: float = 1e-9) -> SpectralRadiusEstimate:
    """Dominant eigenvalue by power iteration from the all-ones vector.

    The iterate x lives on the dim states; each step places it in a vector
    over all 4^s window pairs with 0 at the forbidden one, applies _matvec
    and drops that entry again.  No successor table is built.  Stops when
    successive Rayleigh quotients differ by less than the tolerance, which
    must lie in [MIN_TOLERANCE, inf); every pattern for s <= MAX_SPAN stops
    within 20 steps at MIN_TOLERANCE.  Not stopping within
    MAX_POWER_ITERATIONS raises ScaleGuardError.
    """
    import numpy as np

    if not MIN_TOLERANCE <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= {MIN_TOLERANCE}, got {tolerance}")
    f = matrix.forbidden
    full = np.zeros(matrix.dim + 1)  # full[f] stays 0
    x = np.ones(matrix.dim)
    x /= np.linalg.norm(x)
    prev = rayleigh = None
    for iteration in range(MAX_POWER_ITERATIONS + 1):  # iteration = Rayleigh quotients taken so far
        full[:f] = x[:f]
        full[f + 1 :] = x[f:]
        mx = _matvec(full, matrix.s)
        y = np.concatenate([mx[:f], mx[f + 1 :]])
        if prev is not None and abs(rayleigh - prev) < tolerance:
            residual = float(np.max(np.abs(y - rayleigh * x)))
            return SpectralRadiusEstimate(rayleigh, residual, iteration)
        prev, rayleigh = rayleigh, float(x @ y)
        # every state keeps at least three successors, so y > 0 and its norm is nonzero
        x = y / np.linalg.norm(y)
    raise ScaleGuardError(f"power iteration did not settle to {tolerance} within {MAX_POWER_ITERATIONS} steps")


def pattern_radii(s: int, tolerance: float = 1e-9) -> tuple[float, ...]:
    """Dominant eigenvalue of the transfer matrix of each forbidden pattern, h = 1..s."""
    s = validate_int(s, "s", 1)
    return tuple(spectral_radius(transfer_matrix(s, h), tolerance).value for h in range(1, s + 1))


def beta(s: int, tolerance: float = 1e-9) -> float:
    """Observed growth base of the bad-pair count: the largest dominant
    eigenvalue over the s forbidden patterns."""
    return max(pattern_radii(s, tolerance))


def dominant_patterns(radii) -> tuple[int, ...]:
    """Basis indices h (1-based) whose radius in pattern_radii order is within TIE_GAP of the top.

    By the bit-reversal isomorphism the result is invariant under
    h <-> s + 1 - h, so ties across that reflection are expected.
    """
    top = max(radii)
    return tuple(h for h, rho in enumerate(radii, 1) if rho >= top - TIE_GAP)


def bad_count_bracket(r: int, s: int) -> tuple[int, int]:
    """Sandwich for f_s(r) from per-pattern walk counts: (max_h count_h, 2 sum_h count_h).

    Valid for any r >= s (no enumeration guard): each one-sided count is a
    lower bound, and the union over patterns and the two vector roles gives
    the upper bound.  bad_pair_count gives f_s(r) itself; the bracket checks it.
    """
    r, s = _validate_r_s(r, s)
    counts = [walk_count(transfer_matrix(s, h), r - s) for h in range(1, s + 1)]
    return max(counts), 2 * sum(counts)

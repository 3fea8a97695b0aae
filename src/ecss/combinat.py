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
from dataclasses import dataclass

import numpy as np

from .errors import ScaleGuardError, ValidationError

MAX_BRUTE_FORCE_PAIRS = 10**8  # 4^r <= 1e8, i.e. r <= 13
MAX_SPAN = 8  # transfer matrix dimension 4^s - 1 <= 65535
_CHUNK = 2048


def alpha(s: int) -> float:
    """Growth base (4^s - 1)^(1/s) of the explicit bad-pair upper bound."""
    if s < 1:
        raise ValidationError("s must be >= 1")
    return (4.0**s - 1.0) ** (1.0 / s)


def bad_pair_upper_bound(r: int, s: int) -> float:
    """Explicit upper bound 2s 4^(s-1) alpha_s^r on the number of s-bad pairs."""
    if s < 1 or r < s:
        raise ValidationError("need r >= s >= 1")
    return 2.0 * s * 4.0 ** (s - 1) * alpha(s) ** r


@dataclass(frozen=True)
class WindowPattern:
    """Forbidden window pair (e_h, 0_s): basis vector against the zero window."""

    s: int
    h: int

    def __post_init__(self):
        if not 1 <= self.h <= self.s:
            raise ValidationError(f"need 1 <= h <= s, got h={self.h}, s={self.s}")

    @property
    def basis_window(self) -> int:
        """e_h packed LSB-first: coordinate t of the window is bit t."""
        return 1 << (self.h - 1)


def _as_bits(vec) -> tuple[int, ...]:
    bits = tuple(int(b) for b in vec)
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("vectors must be 0/1 sequences")
    return bits


def is_s_good(x, y, s: int) -> bool:
    """True iff (x, y) contains both orientations of (e_h, 0_s) for every h = 1..s."""
    xb = _as_bits(x)
    yb = _as_bits(y)
    if len(xb) != len(yb):
        raise ValidationError("vectors must have equal length")
    r = len(xb)
    if s < 1 or r < s:
        raise ValidationError("need r >= s >= 1")
    for h in range(1, s + 1):
        target = tuple(1 if t == h - 1 else 0 for t in range(s))
        zero = (0,) * s
        fwd = any(
            xb[i : i + s] == target and yb[i : i + s] == zero for i in range(r - s + 1)
        )
        rev = any(
            xb[j : j + s] == zero and yb[j : j + s] == target for j in range(r - s + 1)
        )
        if not (fwd and rev):
            return False
    return True


def _occurrence_masks(r: int, s: int):
    """Per-value position masks: for every v in [0, 2^r), which windows hit a pattern.

    Returns (zero_mask, basis_masks) where bit i of zero_mask[v] says the
    window of v at position i is all-zero, and basis_masks[h-1][v] likewise
    for the basis window e_h.
    """
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


def _check_brute_force_guard(r: int, s: int) -> None:
    if s < 1 or r < s:
        raise ValidationError("need r >= s >= 1")
    if 4**r > MAX_BRUTE_FORCE_PAIRS:
        raise ScaleGuardError(f"enumeration of 4^{r} pairs exceeds {MAX_BRUTE_FORCE_PAIRS}")


def brute_force_bad_wrt_first(r: int, s: int, h: int) -> int:
    """Exhaustive count of pairs with no position where x shows e_h against y's 0_s."""
    _check_brute_force_guard(r, s)
    WindowPattern(s, h)
    zero, basis = _occurrence_masks(r, s)
    eh = basis[h - 1]
    total = 0
    for lo in range(0, 1 << r, _CHUNK):
        block = eh[lo : lo + _CHUNK, None] & zero[None, :]
        total += int(np.count_nonzero(block == 0))
    return total


@dataclass(frozen=True)
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
    oracle for the walk-counting route.
    """
    _check_brute_force_guard(r, s)
    zero, basis = _occurrence_masks(r, s)
    size = 1 << r
    good_total = 0
    for lo in range(0, size, _CHUNK):
        zx = zero[lo : lo + _CHUNK, None]
        good = np.ones((zx.shape[0], size), dtype=bool)
        for eh in basis:
            good &= (eh[lo : lo + _CHUNK, None] & zero[None, :]) != 0
            good &= (zx & eh[None, :]) != 0
        good_total += int(np.count_nonzero(good))
    f = size * size - good_total
    per_h = tuple(brute_force_bad_wrt_first(r, s, h) for h in range(1, s + 1))
    return BadPairCount(r=r, s=s, f=f, per_h=per_h)


@dataclass(frozen=True)
class TransferMatrix:
    """Walk matrix on pairs of s-bit windows with the vertex (e_h, 0_s) removed.

    States are pairs of windows of two bit streams read in lockstep; each
    state has at most four successors (one fresh bit per stream), so entries
    are 0/1.  Walks of length r - s are in bijection with length-r vector
    pairs avoiding the forbidden window pair, which is exactly the
    bad-with-respect-to-x count.
    """

    s: int
    h: int
    successors: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.successors)

    def dense(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i, succ in enumerate(self.successors):
            for j in succ:
                mat[i, j] += 1
        return mat


def transfer_matrix(s: int, h: int) -> TransferMatrix:
    """Adjacency structure of the pair-of-windows shift graph minus (e_h, 0_s)."""
    if s < 1:
        raise ValidationError("s must be >= 1")
    if s > MAX_SPAN:
        raise ScaleGuardError(f"span capped at {MAX_SPAN} (dimension 4^s - 1)")
    pattern = WindowPattern(s, h)
    size = 1 << s
    forbidden = (pattern.basis_window << s) | 0
    top = 1 << (s - 1)

    def index(state: int) -> int:
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
    return TransferMatrix(s=s, h=h, successors=tuple(successors))


def walk_count(matrix: TransferMatrix, steps: int) -> int:
    """Total walks of the given length over all start states, in exact integers."""
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    counts = [1] * matrix.dim
    for _ in range(steps):
        counts = [sum(counts[j] for j in succ) for succ in matrix.successors]
    return sum(counts)


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    value: float
    residual: float
    iterations: int
    method: str  # "power-iteration" or "walk-ratio"

    @property
    def converged(self) -> bool:
        return self.method == "power-iteration"


def _successor_gather(matrix: TransferMatrix):
    """Padded successor index array for vectorised matvec (pad slot holds 0)."""
    dim = matrix.dim
    pad = np.full((dim, 4), dim, dtype=np.int64)
    for i, succ in enumerate(matrix.successors):
        pad[i, : len(succ)] = succ
    return pad


def _matvec_factory(matrix):
    if isinstance(matrix, TransferMatrix):
        pad = _successor_gather(matrix)
        dim = matrix.dim

        def matvec(x):
            ext = np.concatenate([x, [0.0]])
            return ext[pad].sum(axis=1)

        return matvec, dim
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValidationError("matrix must be square")
    if dense.min() < 0:
        raise ValidationError("matrix must be nonnegative")
    return (lambda x: dense @ x), dense.shape[0]


def _walk_ratio_estimate(matvec, dim: int, burn: int = 64, window: int = 64):
    """Growth rate of total walk counts, robust to periodic spectra.

    Tracks log sum(M^k 1) with periodic renormalisation and averages the
    growth over a window, which smooths eigenvalue-modulus ties.
    """
    x = np.ones(dim)
    logs = 0.0
    log_at_burn = None
    for k in range(burn + window):
        if k == burn:
            log_at_burn = logs + math.log(x.sum())
        x = matvec(x)
        total = x.sum()
        if total == 0:
            return 0.0
        logs += math.log(total)
        x = x / total
    log_end = logs + math.log(x.sum())
    return math.exp((log_end - log_at_burn) / window)


def spectral_radius(matrix, tolerance: float = 1e-9, max_iterations: int = 10**5) -> SpectralRadiusEstimate:
    """Dominant eigenvalue by power iteration from the all-ones vector.

    Stops when successive Rayleigh quotients differ by less than the
    tolerance.  If the iteration cap is hit (reducible or periodic
    structure), falls back to the growth rate of total walk counts.
    """
    if not 0 < tolerance < math.inf:
        raise ValidationError("tolerance must be positive and finite")
    matvec, dim = _matvec_factory(matrix)
    x = np.ones(dim)
    x /= np.linalg.norm(x)
    prev = None
    for iteration in range(1, max_iterations + 1):
        y = matvec(x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return SpectralRadiusEstimate(0.0, 0.0, iteration, "power-iteration")
        rayleigh = float(x @ y)
        x = y / norm
        if prev is not None and abs(rayleigh - prev) < tolerance:
            residual = float(np.max(np.abs(matvec(x) - rayleigh * x)))
            return SpectralRadiusEstimate(rayleigh, residual, iteration, "power-iteration")
        prev = rayleigh
    value = _walk_ratio_estimate(matvec, dim)
    return SpectralRadiusEstimate(value, float("nan"), max_iterations, "walk-ratio")


def beta(s: int, tolerance: float = 1e-9) -> float:
    """Observed growth base of the bad-pair count: the largest dominant
    eigenvalue over the s forbidden patterns."""
    if s < 1:
        raise ValidationError("s must be >= 1")
    if s > MAX_SPAN:
        raise ScaleGuardError(f"span capped at {MAX_SPAN}")
    return max(spectral_radius(transfer_matrix(s, h), tolerance).value for h in range(1, s + 1))


def which_h_dominates(s: int, tolerance: float = 1e-9, tie_gap: float = 1e-6) -> tuple[int, ...]:
    """Basis indices h whose transfer matrix attains the maximal growth rate.

    By the bit-reversal isomorphism the result is invariant under
    h <-> s + 1 - h, so ties across that reflection are expected.
    """
    radii = {h: spectral_radius(transfer_matrix(s, h), tolerance).value for h in range(1, s + 1)}
    top = max(radii.values())
    return tuple(h for h, rho in sorted(radii.items()) if rho >= top - tie_gap)


def bad_count_bracket(r: int, s: int) -> tuple[int, int]:
    """Sandwich for f_s(r) from per-pattern walk counts: (max_h count_h, 2 sum_h count_h).

    Valid for any r >= s (no enumeration guard): each one-sided count is a
    lower bound, and the union over patterns and the two vector roles gives
    the upper bound.
    """
    if s < 1 or r < s:
        raise ValidationError("need r >= s >= 1")
    counts = [walk_count(transfer_matrix(s, h), r - s) for h in range(1, s + 1)]
    return max(counts), 2 * sum(counts)

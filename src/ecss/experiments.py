"""Average-case harness: discrepancy of the generator over random weight vectors."""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curve import INFINITY, CurveParams, CurvePoint, point_table
from .discrepancy import (
    DEFAULT_MC_TRIALS,
    EXACT,
    MC_LOWER_BOUND,
    BoundInputs,
    _exact_extreme,
    discrepancy_bound_1d,
    discrepancy_bound_multi,
    elmahassni_bound,
    exact_fits_guard,
    mc_box_lower_bound,
)
from .errors import ScaleGuardError, ValidationError, int_fields, validate_int, validate_positive_real, validate_type
from .gf2 import BinaryPoly, LfsrSource, default_init, poly_is_irreducible, sequence_period
from .generator import LANE_BUDGET, _lane_sums

MAX_SAMPLES = 10**5  # weight vectors per sweep, each a spawned RNG stream and r table rows up front


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description: curve, register, dimensions, N grid, sampling."""

    curve: CurveParams
    poly: BinaryPoly
    r: int
    s: int
    n_grid: tuple[int, ...]
    samples: int
    delta: float
    seed: int
    tau: int = field(init=False)  # the register period from the default window, default_init(r)

    def __post_init__(self):
        validate_type(self.curve, CurveParams, "curve")
        validate_type(self.poly, BinaryPoly, "poly")
        int_fields(self, "r", "s", "samples", minimum=1)
        grid = tuple(sorted(validate_int(n, "N grid entry", 1) for n in self.n_grid))
        if self.r != self.poly.degree:
            raise ValidationError(f"r = {self.r} does not match polynomial degree {self.poly.degree}")
        object.__setattr__(self, "delta", validate_positive_real(self.delta, "delta"))
        int_fields(self, "seed", minimum=0)
        # Degree-guarded, so first; its walk back to the start proves the tau windows (the states) distinct.
        object.__setattr__(self, "tau", sequence_period(self.poly, default_init(self.r)))
        if not poly_is_irreducible(self.poly):
            raise ValidationError("characteristic polynomial must be irreducible")
        if not grid:
            raise ValidationError("N grid must be nonempty")
        if grid[-1] > self.tau:
            raise ValidationError(f"N grid must lie within [1, {self.tau}]")
        object.__setattr__(self, "n_grid", grid)
        if self.r > math.isqrt(self.curve.p):
            warnings.warn(
                f"register order r = {self.r} exceeds sqrt(p) = {math.isqrt(self.curve.p)}; "
                "the average-case bounds assume r = O(sqrt(p))",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SweepRow:
    """Aggregated discrepancy statistics at one value of N."""

    n: int
    s: int
    mean: float
    median: float
    q90: float
    thm_bound: float
    elma_bound: float
    method: str


# numpy's SeedSequence hash constants and PCG64 multiplier; NEP 19 keeps both bit streams stable across releases.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hash_chain(value: int, mult: int, count: int) -> list[tuple[int, int]]:
    """count successive (constant, next constant) pairs of a SeedSequence hash constant, mod 2^32."""
    values = [value]
    for _ in range(count):
        values.append(values[-1] * mult & _M32)
    return list(zip(values, values[1:]))


_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 8)  # enough for generate_state(4, uint64)


def _hashmix(value: int, pair: tuple[int, int]) -> int:
    value = (value ^ pair[0]) * pair[1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _words(value: int) -> list[int]:
    """A nonnegative int as numpy's SeedSequence entropy: little-endian 32-bit words, [0] for 0."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _spawned_pools(entropy: list[int], count: int):
    """The 4-word pools of numpy's SeedSequence(entropy).spawn(count), in order, for count <= 2^32.

    A child's entropy is the run words, zero-padded to 4, then its spawn key i,
    hash-mixed in that order on one running constant; so the run words are
    mixed once, and each child mixes in only its key word.
    """
    words = entropy + [0] * (4 - len(entropy))
    chain = iter(_hash_chain(_INIT_A, _MULT_A, 4 * len(words) + 4))  # 4 + 12 + 4 per word past 4 + 4 for the key
    pool = [_hashmix(word, next(chain)) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(chain)))
    for word in words[4:]:
        pool = [_mix(x, _hashmix(word, next(chain))) for x in pool]
    keyed = list(zip(pool, chain))  # the last four constants mix the key, one word as i < 2^32
    for i in range(count):
        yield [_mix(x, _hashmix(i, pair)) for x, pair in keyed]


def _state_words(pool: list[int], n: int) -> list[int]:
    """numpy's SeedSequence.generate_state(n) from a pool, as n 32-bit words."""
    return [_hashmix(x, pair) for x, pair in zip(pool + pool, _STATE_CHAIN[:n])]


def _weight_rows(table_size: int, r: int, count: int, seed: int) -> np.ndarray:
    """Uniform independent draws of r rows of a point table, as a (count, r) int64 array.

    Each sample index gets its own spawned RNG stream, so the draw is
    independent of batching or execution order.  Row i is numpy's
    default_rng(SeedSequence(seed).spawn(count)[i]).integers(0, table_size, size=r),
    computed bit for bit in Python ints: PCG64 (XSL-RR 128/64) seeded by
    generate_state(4, uint64), and Lemire's bounded 32-bit draw with rejection
    on the low, then the high half of each 64-bit output.  NEP 19 fixes the
    first two across numpy releases but not Generator.integers, so owning the
    draw keeps the sampled weights fixed, and the sweep loads no numpy.random.
    """
    table_size = validate_int(table_size, "table size", 1)
    r = validate_int(r, "r", 1)
    count = validate_int(count, "count", 0)
    if count > MAX_SAMPLES:
        raise ScaleGuardError(f"{count} samples exceed the cap of {MAX_SAMPLES}")
    if table_size > _M32:  # numpy's 64-bit draw; point_table's MAX_ENUMERATION_P keeps tables far smaller
        raise ScaleGuardError(f"a table of {table_size} rows exceeds the 32-bit draw")
    threshold = (1 << 32) % table_size  # Lemire keeps a 32-bit u iff (u * table_size) mod 2^32 >= threshold
    flat = []
    for pool in _spawned_pools(_words(validate_int(seed, "seed", 0)), count):
        w = _state_words(pool, 8)  # generate_state(4, uint64) as little-endian halves: seed, then sequence
        inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _M128
        state = ((inc + (w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2])) * _PCG_MULT + inc) & _M128
        need = len(flat) + r
        while len(flat) < need:
            state = (state * _PCG_MULT + inc) & _M128
            # XSL-RR: the folded halves rotated right by the top 6 state bits, as the low 64 bits of out
            out = ((state >> 64 ^ state) & _M64) * ((1 << 64) + 1) >> (state >> 122)
            scaled = (out & _M32) * table_size  # next_uint32: the low half, then the buffered high half
            if scaled & _M32 >= threshold:
                flat.append(scaled >> 32)
            scaled = (out >> 32 & _M32) * table_size
            if scaled & _M32 >= threshold:
                flat.append(scaled >> 32)
        del flat[need:]  # the unread high half of the last output, if drawn
    return np.array(flat, dtype=np.int64).reshape(count, r)


def sample_weight_vectors(curve: CurveParams, r: int, count: int, seed: int) -> list[tuple[CurvePoint, ...]]:
    """Uniform independent draws from the r-fold point set, as tuples of points; reproducible per seed.

    These are the point_table rows discrepancy_sweep draws with the same seed.
    """
    table = point_table(curve)
    rows = _weight_rows(len(table), r, count, seed)
    return [tuple(CurvePoint(x, y) if i else INFINITY for i, (x, y) in zip(row, points))
            for row, points in zip(rows.tolist(), table[rows].tolist())]


def discrepancy_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run the harness: sample weight vectors, compute D(N) per sample, aggregate.

    Every sample shares one register, so the bits are generated once and the
    samples' outputs are computed in blocks of lanes; each block's D values
    are taken before the next block is summed.  Within exact_fits_guard one
    exact kernel call takes a block's samples at each N; past it, and always
    at s >= 4, each sample gets a Monte-Carlo lower bound.  The bounds are
    evaluated first, so an overflow stops the run before any sample is drawn.
    """
    inputs = [BoundInputs(n=n, p=config.curve.p, r=config.r, tau=config.tau, delta=config.delta,
                          s=config.s if config.s >= 2 else None) for n in config.n_grid]
    bound = discrepancy_bound_1d if config.s == 1 else discrepancy_bound_multi
    bounds = [(bound(i), elmahassni_bound(i)) for i in inputs]
    exact = [exact_fits_guard(n, config.s) for n in config.n_grid]
    table = point_table(config.curve)
    rows = _weight_rows(len(table), config.r, config.samples, config.seed)
    mc_seeds = [] if all(exact) else [  # numpy's SeedSequence((seed, 1)).spawn(samples)[i].generate_state(1)[0]
        _state_words(pool, 1)[0] for pool in _spawned_pools(_words(config.seed) + [1], config.samples)]
    count = config.n_grid[-1] + config.s - 1
    bits = LfsrSource(config.poly, default_init(config.r)).bits(count + config.r - 1)
    wx, wy, winf = table[rows, 0], table[rows, 1], rows == 0  # row 0, the identity, is stored as (0, 0)
    block = max(1, LANE_BUDGET // count)
    matrix = np.empty((config.samples, len(config.n_grid)))
    for start in range(0, config.samples, block):
        part = slice(start, start + block)
        outputs = _lane_sums(bits, wx[part], wy[part], winf[part], config.curve)[0] / config.curve.p
        values = matrix[part]  # a view: the block's rows
        for col, n in enumerate(config.n_grid):
            tuples = np.lib.stride_tricks.sliding_window_view(outputs[:, : n + config.s - 1], config.s, axis=1)
            if exact[col]:
                values[:, col] = _exact_extreme(tuples)
            else:
                for row, (sample, mc_seed) in enumerate(zip(tuples, mc_seeds[part])):
                    values[row, col] = mc_box_lower_bound(sample, DEFAULT_MC_TRIALS, mc_seed).value
    return [
        SweepRow(n, config.s, float(d.mean()), *_median_q90(d), thm, elma, EXACT if fits else MC_LOWER_BOUND)
        for n, d, (thm, elma), fits in zip(config.n_grid, matrix.T, bounds, exact)
    ]


def _median_q90(values: np.ndarray) -> tuple[float, float]:
    """np.median and np.quantile(values, 0.9) from one sorted copy, by numpy's own formulas.

    The first call of either numpy function imports numpy.ma, 11-15 ms of a fresh process.
    """
    d = np.sort(values).tolist()
    half = len(d) // 2
    median = d[half] if len(d) % 2 else (d[half - 1] + d[half]) / 2
    pos = (len(d) - 1) * 0.9  # the 'linear' method's virtual index, and its lerp
    k = math.floor(pos)
    a, b, t = d[k], d[min(k + 1, len(d) - 1)], pos - k
    return median, (b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def slope_fit(rows: list[SweepRow]) -> float:
    """Least-squares slope of log(mean D) against log N."""
    if len(rows) < 3:
        raise ValidationError("slope fit needs at least 3 rows")
    logs_n = np.log([row.n for row in rows])
    logs_d = np.log([row.mean for row in rows])
    return float(np.polyfit(logs_n, logs_d, 1)[0])


def bound_crossover(p: int, r: int, tau: int) -> int | None:
    """Smallest N in [1, tau] where the window-pair bound beats El Mahassni's.

    The difference is monotone in N (the 3^(r/2)/N term decays), so a binary
    search suffices.  None when no crossover happens within the period.
    Both bounds divide by delta, so the crossover does not depend on it.
    """

    def stronger(n: int) -> bool:
        inputs = BoundInputs(n=n, p=p, r=r, tau=tau, delta=1.0)
        return discrepancy_bound_1d(inputs) < elmahassni_bound(inputs)

    n = 1 + bisect.bisect_left(range(1, tau + 1), True, key=stronger)
    return n if n <= tau else None

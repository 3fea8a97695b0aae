"""Extreme discrepancy of unit-cube point sets, and the closed-form bound evaluators."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .combinat import alpha
from .curve import is_prime
from .errors import ScaleGuardError, ValidationError, finite_float, validate_seed
from .generator import PointSet

MAX_EXACT_MULTI_WORK = 10**8  # N^(2s)
EXACT_BLOCK_BUDGET = 2**14  # float64 elements (128 KiB) per block of batched slabs

EXACT = "exact"
MC_LOWER_BOUND = "monte-carlo-lower-bound"


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    s: int
    value: float
    method: str
    elapsed: float


def _as_rows(points) -> np.ndarray:
    if isinstance(points, PointSet):
        return points.rows
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValidationError("points must form a nonempty (N, s) array")
    if not np.isfinite(arr).all():
        raise ValidationError("coordinates must be finite")
    if arr.min() < 0.0 or arr.max() >= 1.0:
        raise ValidationError("coordinates must lie in [0, 1)")
    return arr


def exact_fits_guard(n: int, s: int) -> bool:
    """True iff an exact multi-dimensional scan of N points in dimension s is within budget."""
    return n ** (2 * s) <= MAX_EXACT_MULTI_WORK


def _scan_last_axis(cum: np.ndarray, vals: np.ndarray, widths: np.ndarray, n_total: int, closed: bool) -> float:
    """Best box along the last axis, one row of counts per fixed set of leading sides.

    Row k holds cum[k, j] points at candidates < j of the slab with leading
    volume widths[k].  Closed boxes give the excess max_{i <= j} count/N - volume,
    open boxes the deficit max_{i < j} volume - count/N.
    """
    share = cum / n_total
    wv = widths[:, None] * vals
    if closed:  # the closed box [vals[i], vals[j]] holds cum[j+1] - cum[i] points
        left = np.maximum.accumulate(wv - share[:, :-1], axis=-1)
        return float(np.max(share[:, 1:] - wv + left))
    # the open box (vals[i], vals[j]) holds cum[j] - cum[i+1] points
    left = np.maximum.accumulate(share[:, 1:-1] - wv[:, :-1], axis=-1)
    return float(np.max(wv[:, 1:] - share[:, 1:-1] + left))


def _sweep(cum: np.ndarray, cands: list, widths: np.ndarray, n_total: int, closed: bool) -> float:
    """Best closed (or open) box over a batch of cumulative count grids, grid k of width widths[k].

    cum[k] counts, per axis, the points at candidates below each index, so
    along the first axis the closed slab between candidates i <= j holds
    cum[k, j+1] - cum[k, i] points and the open one between i < j holds
    cum[k, j] - cum[k, i+1], still cumulative along the other axes.  Above the
    second-to-last axis the slabs join the batch, EXACT_BLOCK_BUDGET elements (or
    one slab) per block; the second-to-last axis is scanned one i at a time.
    """
    if cum.ndim == 2:
        return _scan_last_axis(cum, cands[0], widths, n_total, closed)
    xs, grid = cands[0], cum.shape[2:]
    shift = int(closed)  # a closed slab also holds the points at both end candidates
    best = 0.0
    if cum.ndim == 3:
        for i in range(len(xs) - 1 + shift):
            first = i + 1 - shift  # smallest admissible j
            slabs = cum[:, first + shift : len(xs) + shift] - cum[:, first, None]
            w = widths[:, None] * (xs[first:] - xs[i])
            best = max(best, _scan_last_axis(slabs.reshape(-1, grid[0]), cands[1], w.ravel(), n_total, closed))
        return best
    lo, hi = np.triu_indices(len(xs), k=1 - shift)
    step = max(1, EXACT_BLOCK_BUDGET // (len(cum) * math.prod(grid)))
    for k in range(0, len(lo), step):
        i, j = lo[k : k + step], hi[k : k + step]
        slabs = cum[:, j + shift] - cum[:, i + 1 - shift]
        w = widths[:, None] * (xs[j] - xs[i])
        best = max(best, _sweep(slabs.reshape((-1,) + grid), cands[1:], w.ravel(), n_total, closed))
    return best


def _exact_extreme(rows: np.ndarray) -> float:
    """Exact sup over half-open boxes [a, b) of |count/N - volume|, any number of axes.

    Per-axis box candidates are the point coordinates plus 0 and 1.  Face
    inclusion is resolved by evaluating the closed-box limit for the excess
    and the open-box limit for the deficit; their max over the candidate
    family equals the true sup over half-open boxes.  The tally is cumulated
    along every axis once, and the slabs of every leading axis but the
    second-to-last are scanned as one batch, in blocks of EXACT_BLOCK_BUDGET.
    """
    cands = []
    idx = []
    for col in rows.T:
        c, where = np.unique(np.concatenate([col, [0.0, 1.0]]), return_inverse=True)
        cands.append(c)
        idx.append(where[:-2] + 1)  # the appended 0 and 1 hold no point; index 0 is the zero pad
    cum = np.zeros([len(c) + 1 for c in cands])
    np.add.at(cum, tuple(idx), 1.0)
    for axis in range(cum.ndim):
        cum = np.cumsum(cum, axis=axis)
    return max(_sweep(cum[None], cands, np.array([1.0]), rows.shape[0], closed) for closed in (True, False))


def exact_extreme_1d(points) -> DiscrepancyReport:
    """Exact sup over intervals [a, b) of |count/N - (b - a)|, by one O(N log N) scan."""
    start = time.perf_counter()
    rows = _as_rows(points)
    if rows.shape[1] != 1:
        raise ValidationError("one-dimensional routine got multi-column points")
    value = _exact_extreme(rows)
    return DiscrepancyReport(rows.shape[0], 1, value, EXACT, time.perf_counter() - start)


def exact_extreme_multi(points, s: int) -> DiscrepancyReport:
    """Exact extreme discrepancy in dimension 2 or 3; guarded by N^(2s) <= 1e8."""
    start = time.perf_counter()
    if s not in (2, 3):
        raise ValidationError("exact multi-dimensional discrepancy supports s in {2, 3}")
    rows = _as_rows(points)
    if rows.shape[1] != s:
        raise ValidationError(f"points have {rows.shape[1]} columns, expected {s}")
    n_total = rows.shape[0]
    if not exact_fits_guard(n_total, s):
        raise ScaleGuardError(f"N^(2s) = {n_total ** (2 * s)} exceeds {MAX_EXACT_MULTI_WORK}")
    value = _exact_extreme(rows)
    return DiscrepancyReport(n_total, s, value, EXACT, time.perf_counter() - start)


def mc_box_lower_bound(points, trials: int, seed: int) -> DiscrepancyReport:
    """Monte-Carlo lower bound: max deviation over sampled half-open boxes.

    Half the face candidates snap to point coordinates, which is where the
    sup lives; every sampled box is a genuine box, so the result never
    exceeds the exact value.  Deterministic for a fixed seed.
    """
    start = time.perf_counter()
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    validate_seed(seed)
    rows = _as_rows(points)
    n_total, s = rows.shape
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = max(1, min(trials, 10**6 // max(1, n_total * s)))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        lo = rng.random((m, s))
        hi = rng.random((m, s))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        snap = rng.random((m, s)) < 0.5
        picks = rows[rng.integers(0, n_total, size=(m, s)), np.arange(s)[None, :]]
        lo = np.where(snap, np.minimum(picks, hi), lo)
        inside = (rows[None, :, :] >= lo[:, None, :]) & (rows[None, :, :] < hi[:, None, :])
        count = inside.all(axis=2).sum(axis=1)
        vol = np.prod(hi - lo, axis=1)
        best = max(best, float(np.max(np.abs(count / n_total - vol))))
        done += m
    return DiscrepancyReport(n_total, s, best, MC_LOWER_BOUND, time.perf_counter() - start)


@dataclass(frozen=True)
class BoundInputs:
    """Arguments of the closed-form discrepancy bounds."""

    n: int
    p: int
    r: int
    tau: int
    delta: float
    s: int | None = None

    def __post_init__(self):
        if not 1 <= self.n <= self.tau:
            raise ValidationError("need 1 <= N <= tau")
        if not 0 < self.delta < math.inf:
            raise ValidationError("delta must be positive and finite")
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        if not is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.s is not None and self.s < 1:
            raise ValidationError("s must be >= 1 when given")


@finite_float
def discrepancy_bound_1d(inputs: BoundInputs) -> float:
    """Average-case bound with the 3^(r/2) window-pair term; natural logs throughout."""
    n, p, r = inputs.n, inputs.p, inputs.r
    core = n**-0.5 + 3.0 ** (r / 2.0) / n * p**-0.25 + p**-0.5
    return core * math.log(inputs.tau) ** 2 * math.log(p) / inputs.delta


@finite_float
def discrepancy_bound_multi(inputs: BoundInputs) -> float:
    """s-dimensional bound with the alpha_s^(r/2) term; requires s >= 2."""
    if inputs.s is None or inputs.s < 2:
        raise ValidationError("multi-dimensional bound needs s >= 2")
    n, p, r, s = inputs.n, inputs.p, inputs.r, inputs.s
    lp = math.log(p)
    core = n**-0.5 * lp + p**-0.5 * lp + alpha(s) ** (r / 2.0) / n * lp**s
    return core * math.log(inputs.tau) ** 2 / inputs.delta


@finite_float
def elmahassni_bound(inputs: BoundInputs) -> float:
    """El Mahassni's earlier one-dimensional bound, for comparison."""
    n, p = inputs.n, inputs.p
    core = n**-0.5 + p**-0.25
    return core * math.log(inputs.tau) ** 2 * math.log(p) / inputs.delta


def nontrivial_exponent(s: int) -> float:
    """Exponent gamma_s = log(alpha_s) / (2 log 2); below 1 for every s."""
    if s < 1:
        raise ValidationError("s must be >= 1")
    return math.log(alpha(s)) / (2.0 * math.log(2.0))

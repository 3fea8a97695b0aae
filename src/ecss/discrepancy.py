"""Extreme discrepancy of unit-cube point sets, and the closed-form bound evaluators."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    MAX_PRIME_TEST, ScaleGuardError, ValidationError, alpha, finite_float, int_fields, is_prime, record,
    validate_int, validate_positive_real,
)

MAX_EXACT_MULTI_WORK = 10**8  # N^(2s)
EXACT_BLOCK_BUDGET = 2**14  # rows (128 KiB per float64 row vector) per block of the box scan
PRUNE_MARGIN = 2.0**-40  # the box scan drops a slab when its bound + PRUNE_MARGIN < its grid's floor

EXACT = "exact"
MC_LOWER_BOUND = "monte-carlo-lower-bound"


@record
class PointSet:
    """N points in the half-open unit cube [0, 1)^s, as a private read-only (N, s) copy; a 1-D input is one column."""

    rows: np.ndarray

    def __post_init__(self):
        try:
            rows = np.asarray(self.rows)
        except ValueError:
            raise ValidationError("points must form an (N, s) array, got ragged rows") from None
        if rows.dtype.kind not in "iuf":
            raise ValidationError(f"coordinates must be real numbers, got dtype {rows.dtype}")
        if rows.ndim == 1:
            rows = rows[:, None]
        if rows.ndim != 2:
            raise ValidationError(f"points must form an (N, s) array, got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise ValidationError("point set must be nonempty")
        validate_int(rows.shape[1], "dimension", 1)
        rows = np.array(rows, dtype=float, order="C")  # a private copy, so no later write reaches the checked rows
        if not np.isfinite(rows).all():
            raise ValidationError("coordinates must be finite")
        if rows.min() < 0.0 or rows.max() >= 1.0:
            raise ValidationError("coordinates must lie in [0, 1)")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __repr__(self):
        return "PointSet()"

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def s(self) -> int:
        return self.rows.shape[1]


@record
class DiscrepancyReport:
    n: int
    s: int
    value: float
    method: str


def _as_rows(points) -> np.ndarray:
    """The (N, s) rows of a PointSet, or of PointSet(points)."""
    return (points if isinstance(points, PointSet) else PointSet(points)).rows


def exact_fits_guard(n: int, s: int) -> bool:
    """True iff the exact kernel takes N points in dimension s: any N at s = 1, N^(2s) <= 1e8 at s = 2, 3."""
    return s == 1 or (s in (2, 3) and n ** (2 * s) <= MAX_EXACT_MULTI_WORK)


def exact_group_size(n: int, s: int) -> int:
    """Samples of N points per exact kernel call: as many as fit one EXACT_BLOCK_BUDGET-row block of _box_scan.

    A sample has at most c = N + 2 candidates per axis and so at most
    (c(c+1)/2)^(s-1) closed slab rows, for s = 2, 3; s = 1 has no scan.
    So a group of two or more fits one block, and _box_scan streams an s = 2 group as one.
    """
    return max(1, EXACT_BLOCK_BUDGET // ((n + 2) * (n + 3) // 2) ** (s - 1))


def _coarse_stride(c: int) -> int:
    """Stride of the box scan's coarse last-axis grid for c candidates, or 0 where the coarse stage does not pay."""
    return round(math.sqrt(c)) if c >= 40 else 0


def _box_scan(table: np.ndarray, cands: list, n_total: int, closed: bool, found: np.ndarray) -> None:
    """Raise found[b] to the best closed (or open) box of grid b, for s = 2 or 3.

    cands[a][b] are grid b's candidates on axis a.  table[l, b] is grid b's
    cumulative count cum at last-axis index l, as floats, and is only read.
    cum counts, per axis, the points at candidates below each index, so along
    an axis the closed slab between candidates i <= j holds cum[j+1] - cum[i]
    points and the open one between i < j holds cum[j] - cum[i+1].  A row is
    one slab on every leading axis.  Rows stream along the last axis, each
    carrying a running max `left` over its left faces and its `best` box.
    Blocks hold whole units, a grid (s = 2) or a grid's first-axis slab
    (s = 3).  An s = 2 group is one block, as exact_group_size sizes it; an
    s = 3 block holds at most EXACT_BLOCK_BUDGET rows unless one unit has more.

    found[b] is grid b's only floor.  A closed box's excess is at most the
    point share of a slab holding it, and an open box's deficit at most the
    slab's volume, so a unit's bound is its point share or first-axis width.
    Units are visited in decreasing order of bound and dropped when bound +
    PRUNE_MARGIN (2^-40) < floor.  Where _coarse_stride(c) = k > 0, a coarse
    stage then streams the block's rows over the last-axis indices 0, k, 2k,
    ..., c only: it brackets every box between coarse cells (Thiemard 2001)
    for a bound per row, and the closed pass raises found by the boxes with
    coarse faces.  Otherwise a row's bound is its point share or cross-section
    area.  Only the rows whose bound + PRUNE_MARGIN reaches the floor stream
    exactly, into found.  Every value found takes is a box of one row computed
    with the exact stream's float expressions, so found never passes the full
    scan's max, which passes its row's bound by a few ulps at most, far below
    the margin: that row always streams, and found ends as the same float.
    """
    shift = int(closed)  # a closed slab also holds the points at both end candidates
    grids = table.shape[1]
    *lead, pen, last = cands
    lo, hi = np.triu_indices(pen.shape[1], k=1 - shift)
    upper, runs = hi + shift, np.bincount(lo)  # the rows of one left index are consecutive
    lower = slice(1 - shift, len(runs) + 1 - shift)
    width = np.take(pen, hi, axis=1) - np.take(pen, lo, axis=1)  # C order, as the row vectors
    stride = _coarse_stride(last.shape[1])

    def shares(col, out=None):
        """Each row's point share below one last-axis index, from a block's counts there."""
        out = np.take(col, upper, axis=1, out=out, mode="clip")  # in range; "clip" fills out unbuffered
        out -= np.repeat(col[:, lower], runs, axis=1)
        out /= n_total
        return out

    def coarse(block, w, vals):
        """Each row's bound and each unit's floor from the cells [t, t') between consecutive coarse indices.

        With S[t] a row's point share below index t, a closed box [i, l]
        with i in cell a and l in cell b holds at most S[t_(b+1)] - S[t_a]
        and, when a < b, spans at least y[t_b] - y[t_(a+1) - 1], one cell in
        from each end.  An open box (i, l) spans at most y[t_(b+1) - 1] -
        y[t_a], grown to the cells' outer candidates, and holds at least the
        S[t_b] - S[t_(a+1)] of the cells between.  The closed floor's boxes
        run from a cell's first candidate to a later cell's last and are
        computed as the exact stream computes them; the open pass starts
        from the closed values and takes no floor of its own.
        """
        bound, inner, outer = (np.full(w.shape, -np.inf) for _ in range(3))
        floor = np.full(len(w), -np.inf)
        share, below, tail, tmp = np.empty(w.shape), np.zeros(w.shape), np.empty(w.shape), np.empty(w.shape)
        head = w * vals[0]  # w y at the cell's first candidate, and below is S there
        for t in (*range(stride, len(vals), stride), len(vals)):
            shares(block[t], out=share)
            np.multiply(w, vals[t - 1], out=tail)  # w y at the cell's last candidate
            if closed:
                np.maximum(bound, np.subtract(share, below, out=tmp), out=bound)  # a = b
                np.add(np.subtract(share, head, out=tmp), inner, out=tmp)  # a < b
                np.maximum(bound, tmp, out=bound)
                np.maximum(inner, np.subtract(tail, below, out=tmp), out=inner)
                np.maximum(outer, np.subtract(head, below, out=tmp), out=outer)
                np.add(np.subtract(share, tail, out=tmp), outer, out=tmp)
                np.maximum(floor, tmp.max(axis=1), out=floor)
            else:
                np.add(np.subtract(tail, below, out=tmp), inner, out=tmp)  # a < b
                np.maximum(bound, tmp, out=bound)
                np.maximum(bound, np.subtract(tail, head, out=tmp), out=bound)  # a = b
                np.maximum(inner, np.subtract(share, head, out=tmp), out=inner)
            if t < len(vals):
                np.multiply(w, vals[t], out=head)
            share, below = below, share
        return bound, floor

    def blocks():
        """Each block's grid per unit, its units' count table and their rows' areas."""
        if not lead:  # a grid's bound, 1, passes every floor, and exact_group_size fits the grids in one block
            yield np.arange(grids), table, width
            return
        step = max(1, EXACT_BLOCK_BUDGET // len(lo))
        i, j = np.triu_indices(lead[0].shape[1], k=1 - shift)
        unit_grid = np.repeat(np.arange(grids), len(i))
        i, j = np.tile(i, grids), np.tile(j, grids)
        unit_width = lead[0][unit_grid, j] - lead[0][unit_grid, i]
        if closed:  # the unit's point share: its counts below the top index of both later axes
            top = table[-1, :, :, -1]
            bound = (top[unit_grid, j + shift] - top[unit_grid, i + 1 - shift]) / n_total
        else:
            bound = unit_width
        rest = np.argsort(-bound, kind="stable")
        # The loop below raises found after each block, so the filter runs again before the next.
        while len(rest := rest[bound[rest] + PRUNE_MARGIN >= found[unit_grid[rest]]]):
            u, rest = rest[:step], rest[step:]
            b = unit_grid[u]
            block = table[:, b, j[u] + shift]
            block -= table[:, b, i[u] + 1 - shift]
            yield b, block, unit_width[u, None] * width[b]

    def stream(b, block, w):
        """Raise found by the block's coarse floors, then by its rows whose bound + PRUNE_MARGIN reaches it."""
        one_grid = (b == b[0]).all()
        vals = last[b[0]] if one_grid else last[b].T[:, :, None]  # one grid's candidates as scalars
        if stride:
            bound, unit_floor = coarse(block, w, vals)
            np.maximum.at(found, b, unit_floor)
        else:
            bound = shares(block[-1]) if closed else w
        # The kept rows of all units form one vector, unit by unit and in row order.
        unit, row = np.divmod(np.flatnonzero(bound + PRUNE_MARGIN >= found[b, None]), len(lo))
        w = w[unit, row]
        up = unit * block.shape[2] + upper[row]
        kept_runs = np.bincount(unit * len(runs) + lo[row], minlength=len(b) * len(runs))
        per_unit = np.bincount(unit, minlength=len(b))
        del bound, unit, row
        left, best = np.full(w.shape, -np.inf), np.full(w.shape, -np.inf)
        above, below, wv = np.empty(w.shape), np.zeros(w.shape), np.empty(w.shape)
        for l in range(last.shape[1]):
            col = block[l + 1]
            np.take(col, up, out=above, mode="clip")
            above -= np.repeat(col[:, lower], kept_runs)
            above /= n_total
            np.multiply(w, vals[l] if one_grid else np.repeat(vals[l], per_unit), out=wv)
            np.subtract(wv, below, out=below)  # below is not read again, so it takes the difference
            if closed:  # the closed box [vals[i], vals[l]] holds above - below_i points
                np.maximum(left, below, out=left)
                np.maximum(best, np.add(np.subtract(above, wv, out=wv), left, out=wv), out=best)
            else:  # the open box (vals[i], vals[l]) holds below - above_i points
                np.maximum(best, np.add(below, left, out=below), out=best)
                np.maximum(left, np.subtract(above, wv, out=wv), out=left)
            above, below = below, above
        np.maximum.at(found, np.repeat(b, per_unit), best)

    for block in blocks():
        stream(*block)


def _exact_extreme(samples: np.ndarray) -> np.ndarray:
    """Exact sup over half-open boxes [a, b) of |count/N - volume| of each (N, s) sample of a (B, N, s) batch.

    At s = 1 it is Niederreiter's max_t ((t+1)/N - v_t) + max_t (v_t - t/N) on each sorted sample v: the
    maxima fall at the last and first element of a run of ties, and the faces 0 and 1 add only 0.0, so this
    is the float of the candidate scan over distinct coordinates, bit for bit.
    """
    if samples.shape[2] == 1:
        v, share = np.sort(samples[:, :, 0], axis=1), np.arange(samples.shape[1] + 1) / samples.shape[1]
        return (share[1:] - v).max(axis=1) + (v - share[:-1]).max(axis=1)
    group = exact_group_size(*samples.shape[1:])  # callers keep to exact_fits_guard, so s = 2, 3
    return np.concatenate([_exact_group(samples[i : i + group]) for i in range(0, len(samples), group)])


def _exact_group(samples: np.ndarray) -> np.ndarray:
    """_exact_extreme of one group of samples, at s = 2 or 3.

    Per-axis box candidates are a sample's distinct coordinates plus 0 and 1.
    Face inclusion is resolved by evaluating the closed-box limit for the
    excess and the open-box limit for the deficit; their max over the
    candidate family equals the true sup over half-open boxes.  Each sample's
    candidates are padded with copies of 1.0 to the group's widest, and these
    hold no point: a box reaching a padded candidate repeats a box ending at
    the sample's own 1.0, and one starting there has volume and count 0, so
    no value changes.  The tally is cumulated along every axis once, and
    _box_scan streams the group's slab rows along the last axis, closed
    boxes first and then open ones from the closed values as floors.
    It skips every slab whose bound (point share for an excess, volume for a
    deficit) plus PRUNE_MARGIN = 2^-40 is below its grid's floor, which is a
    value the scan produced, so each sample's value is the full scan's float.
    """
    n_samples, n_total, s = samples.shape
    batch = np.arange(n_samples)[:, None]
    cands, flat = [], 0  # flat: each point's cell in a sample's count grid
    for axis in range(s):
        col = np.empty((n_samples, n_total + 2))
        col[:, :n_total] = samples[:, :, axis]
        col[:, n_total:] = 0.0, 1.0
        order = np.argsort(col, axis=1)
        ordered = np.take_along_axis(col, order, axis=1)
        rank = np.zeros(order.shape, dtype=np.int64)  # of each sorted value among the distinct ones
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=rank[:, 1:])
        c = np.ones((n_samples, rank[:, -1].max() + 1))
        c[batch, rank] = ordered
        where = np.empty_like(rank)
        where[batch, order] = rank
        cands.append(c)
        # The appended 0 and 1 hold no point; index 0 of each axis is the zero pad.
        flat = flat * (c.shape[1] + 1) + where[:, :-2] + 1
    shape = [n_samples] + [c.shape[1] + 1 for c in cands]
    cum = np.bincount((flat + batch * math.prod(shape[1:])).ravel(), minlength=math.prod(shape)).reshape(shape)
    for axis in range(1, cum.ndim):
        cum = np.cumsum(cum, axis=axis)
    table = np.moveaxis(cum, -1, 0).astype(float, order="C")  # table[l]: counts below last-axis candidate l
    del cum
    found = np.full(n_samples, -np.inf)
    for closed in (True, False):  # the open scan starts from the closed one's floors
        _box_scan(table, cands, n_total, closed, found)
    return found


def _exact_report(points, s: int) -> DiscrepancyReport:
    """The exact extreme discrepancy of points with s columns, within exact_fits_guard."""
    rows = _as_rows(points)
    if rows.shape[1] != s:
        raise ValidationError(f"points have {rows.shape[1]} columns, expected {s}")
    if not exact_fits_guard(len(rows), s):
        raise ScaleGuardError(f"N^(2s) = {len(rows) ** (2 * s)} exceeds {MAX_EXACT_MULTI_WORK}")
    return DiscrepancyReport(*rows.shape, float(_exact_extreme(rows[None])[0]), EXACT)


def exact_extreme_1d(points) -> DiscrepancyReport:
    """Exact sup over intervals [a, b) of |count/N - (b - a)|, by one O(N log N) scan."""
    return _exact_report(points, 1)


def exact_extreme_multi(points, s: int) -> DiscrepancyReport:
    """Exact extreme discrepancy in dimension 2 or 3, within exact_fits_guard."""
    s = validate_int(s, "s")
    if s not in (2, 3):
        raise ValidationError("exact multi-dimensional discrepancy supports s in {2, 3}")
    return _exact_report(points, s)


DEFAULT_MC_TRIALS = 4000  # boxes per mc_box_lower_bound call in the sweep and `ecss disc --method mc`
MAX_MC_TRIALS = 10**6  # bounds the chunk loop; each chunk already holds at most 10^6 box-point cells
# trials * N * s box-point comparisons, as MAX_KOKSMA_WORK bounds (2L)^s * N; 2.1-3.5 s at the edge
MAX_MC_WORK = 10**8


def mc_box_lower_bound(points, trials: int, seed: int) -> DiscrepancyReport:
    """Monte-Carlo lower bound: max deviation over sampled half-open boxes.

    Half the face candidates snap to point coordinates, which is where the
    sup lives; every sampled box is a genuine box, so the result never
    exceeds the exact value.  Deterministic for a fixed seed.
    """
    trials = validate_int(trials, "trials", 1)
    if trials > MAX_MC_TRIALS:
        raise ScaleGuardError(f"{trials} trials exceed the cap of {MAX_MC_TRIALS}")
    seed = validate_int(seed, "seed", 0)
    rows = _as_rows(points)
    n_total, s = rows.shape
    if trials * n_total * s > MAX_MC_WORK:
        raise ScaleGuardError(f"trials * N * s = {trials * n_total * s} exceeds {MAX_MC_WORK}")
    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = max(1, min(trials, 10**6 // (n_total * s)))
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
    return DiscrepancyReport(n_total, s, best, MC_LOWER_BOUND)


@record
class BoundInputs:
    """Arguments of the closed-form discrepancy bounds."""

    n: int
    p: int
    r: int
    tau: int
    delta: float
    s: int | None = None

    def __post_init__(self):
        int_fields(self, "n", "p", "r", "tau", *(() if self.s is None else ("s",)))
        if not 1 <= self.n <= self.tau:
            raise ValidationError("need 1 <= N <= tau")
        object.__setattr__(self, "delta", validate_positive_real(self.delta, "delta"))
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        if self.p >= MAX_PRIME_TEST:
            raise ScaleGuardError(f"p = {self.p} is past the primality test's exact range, p < {MAX_PRIME_TEST}")
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
    return math.log(alpha(s)) / (2.0 * math.log(2.0))

"""Average-case harness: discrepancy of the generator over random weight vectors."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curve import CurveParams, WeightVector, enumerate_points
from .discrepancy import (
    BoundInputs,
    discrepancy_bound_1d,
    discrepancy_bound_multi,
    elmahassni_bound,
    exact_extreme_1d,
    exact_extreme_multi,
    exact_fits_guard,
    mc_box_lower_bound,
)
from .errors import ValidationError
from .gf2 import BinaryPoly, LfsrSource, poly_is_irreducible, sequence_period, windows_distinct
from .generator import LANE_BUDGET, _lane_sums, _point_arrays, s_tuples

DEFAULT_MC_TRIALS = 4000


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
    init: tuple[int, ...] = ()

    def __post_init__(self):
        if self.r != self.poly.degree:
            raise ValidationError(f"r = {self.r} does not match polynomial degree {self.poly.degree}")
        if self.s < 1:
            raise ValidationError("s must be >= 1")
        if self.samples < 1:
            raise ValidationError("sample count must be >= 1")
        if not 0 < self.delta < math.inf:
            raise ValidationError("delta must be positive and finite")
        if not poly_is_irreducible(self.poly):
            raise ValidationError("characteristic polynomial must be irreducible")
        init = self.init if self.init else (1,) + (0,) * (self.r - 1)
        object.__setattr__(self, "init", tuple(init))
        tau = sequence_period(self.poly, self.init)
        object.__setattr__(self, "tau", tau)
        if not windows_distinct(LfsrSource(self.poly, self.init), self.r, tau):
            raise ValidationError("register windows repeat within one period")
        grid = tuple(sorted(int(n) for n in self.n_grid))
        if not grid:
            raise ValidationError("N grid must be nonempty")
        if grid[0] < 1 or grid[-1] > tau:
            raise ValidationError(f"N grid must lie within [1, {tau}]")
        object.__setattr__(self, "n_grid", grid)
        if self.r > math.isqrt(self.curve.p):
            warnings.warn(
                f"register order r = {self.r} exceeds sqrt(p) = {math.isqrt(self.curve.p)}; "
                "the average-case bounds assume r = O(sqrt(p))",
                stacklevel=2,
            )

    tau: int = 0  # filled in __post_init__


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


def sample_weight_vectors(curve: CurveParams, r: int, count: int, seed: int) -> list[WeightVector]:
    """Uniform independent draws from the r-fold point set; reproducible per seed.

    Each sample index gets its own spawned RNG stream, so the draw is
    independent of batching or execution order.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    if count < 0:
        raise ValidationError("count must be >= 0")
    points = enumerate_points(curve)
    streams = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in streams:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, len(points), size=r)
        out.append(WeightVector(tuple(points[i] for i in idx)))
    return out


def _sample_discrepancies(config: ExperimentConfig, outputs: np.ndarray, mc_seed: int):
    """D values for one sample's normalised outputs at every N in the grid, plus the method used."""
    values = []
    methods = []
    for n in config.n_grid:
        if config.s == 1:
            report = exact_extreme_1d(outputs[:n])
        else:
            window = s_tuples(outputs[: n + config.s - 1], config.s)
            if exact_fits_guard(n, config.s):
                report = exact_extreme_multi(window, config.s)
            else:
                report = mc_box_lower_bound(window, DEFAULT_MC_TRIALS, mc_seed)
        values.append(report.value)
        methods.append(report.method)
    return values, methods


def discrepancy_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run the harness: sample weight vectors, compute D(N) per sample, aggregate.

    Every sample shares one register, so the bits are generated once and the
    samples' outputs are computed in blocks of lanes; each block's D values
    are taken before the next block is summed.
    """
    weights = sample_weight_vectors(config.curve, config.r, config.samples, config.seed)
    mc_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence((config.seed, 1)).spawn(config.samples)]
    count = config.n_grid[-1] + config.s - 1
    bits = LfsrSource(config.poly, config.init).bits(count + config.r - 1)
    wx, wy, winf = _point_arrays(weights)
    block = max(1, LANE_BUDGET // count)
    results = []
    for start in range(0, config.samples, block):
        part = slice(start, start + block)
        x = _lane_sums(bits, wx[part], wy[part], winf[part], config.curve)[0]
        for outputs, mc_seed in zip(x / config.curve.p, mc_seeds[part]):
            results.append(_sample_discrepancies(config, outputs, mc_seed))

    matrix = np.asarray([values for values, _ in results])  # (samples, grid)
    rows = []
    for col, n in enumerate(config.n_grid):
        d = matrix[:, col]
        inputs = BoundInputs(n=n, p=config.curve.p, r=config.r, tau=config.tau,
                             delta=config.delta, s=config.s if config.s >= 2 else None)
        thm = discrepancy_bound_1d(inputs) if config.s == 1 else discrepancy_bound_multi(inputs)
        methods = {m[col] for _, m in results}
        rows.append(
            SweepRow(
                n=n,
                s=config.s,
                mean=float(d.mean()),
                median=float(np.median(d)),
                q90=float(np.quantile(d, 0.9)),
                thm_bound=thm,
                elma_bound=elmahassni_bound(inputs),
                method=methods.pop() if len(methods) == 1 else "mixed",
            )
        )
    return rows


def slope_fit(rows: list[SweepRow]) -> float:
    """Least-squares slope of log(mean D) against log N."""
    if len(rows) < 3:
        raise ValidationError("slope fit needs at least 3 rows")
    logs_n = np.log([row.n for row in rows])
    logs_d = np.log([row.mean for row in rows])
    return float(np.polyfit(logs_n, logs_d, 1)[0])


def bound_crossover(p: int, r: int, tau: int, delta: float = 1.0) -> int | None:
    """Smallest N in [1, tau] where the window-pair bound beats El Mahassni's.

    The difference is monotone in N (the 3^(r/2)/N term decays), so a binary
    search suffices.  None when no crossover happens within the period.
    """

    def stronger(n: int) -> bool:
        inputs = BoundInputs(n=n, p=p, r=r, tau=tau, delta=delta)
        return discrepancy_bound_1d(inputs) < elmahassni_bound(inputs)

    if not stronger(tau):
        return None
    lo, hi = 1, tau  # invariant: stronger(hi) is True
    while lo < hi:
        mid = (lo + hi) // 2
        if stronger(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo

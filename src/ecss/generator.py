"""Subset-sum generators: residue-ring and elliptic-curve variants, plus s-tuple windows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import CurveParams, CurvePoint, INFINITY, WeightVector, add, validate_weights, x_coord
from .errors import ValidationError
from .gf2 import BitSequenceSource, LfsrSource, packed_windows


@dataclass(frozen=True)
class ResidueWeights:
    """Weight vector z_0..z_{r-1} over the residue ring Z_m."""

    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValidationError("modulus must be >= 2")
        if len(self.values) < 1:
            raise ValidationError("weight vector needs at least one residue")
        object.__setattr__(self, "values", tuple(v % self.modulus for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GeneratorConfig:
    """Bit source plus weights; the curve is required for the point-valued variant."""

    source: BitSequenceSource
    weights: WeightVector | ResidueWeights
    curve: CurveParams | None = None

    def __post_init__(self):
        if isinstance(self.weights, WeightVector):
            if self.curve is None:
                raise ValidationError("curve weights need curve parameters")
            validate_weights(self.weights, self.curve)
        if isinstance(self.source, LfsrSource) and self.source.order != len(self.weights):
            raise ValidationError(
                f"weight length {len(self.weights)} does not match register order "
                f"{self.source.order}"
            )

    @property
    def r(self) -> int:
        return len(self.weights)


def subset_sum_residue(config: GeneratorConfig, ns) -> list[int]:
    """Residue outputs sum_{j<r} u(n+j) z_j mod m for each requested index n."""
    if not isinstance(config.weights, ResidueWeights):
        raise ValidationError("residue generator needs ResidueWeights")
    ns = list(ns)
    if not ns:
        return []
    if min(ns) < 1:
        raise ValidationError("indices start at 1")
    r = config.r
    z = config.weights.values
    m = config.weights.modulus
    stream = config.source.bits(max(ns) + r - 1)
    out = []
    for n in ns:
        window = stream[n - 1 : n - 1 + r]
        out.append(sum(u * w for u, w in zip(window, z)) % m)
    return out


def _sum_window(window: int, weights: WeightVector, curve: CurveParams) -> CurvePoint:
    acc = INFINITY
    j = 0
    while window:
        if window & 1:
            acc = add(acc, weights[j], curve)
        window >>= 1
        j += 1
    return acc


def ec_subset_sum(config: GeneratorConfig, n: int) -> CurvePoint:
    """Point output at index n: the group sum of the weights selected by the window."""
    if not isinstance(config.weights, WeightVector):
        raise ValidationError("curve generator needs a WeightVector")
    if n < 1:
        raise ValidationError("indices start at 1")
    window = next(packed_windows(config.source.bits(n + config.r - 1), config.r, start=n - 1))
    return _sum_window(window, config.weights, config.curve)


def ec_subset_sum_stream(config: GeneratorConfig, count: int) -> list[CurvePoint]:
    """Point outputs for n = 1..count in a single register pass.

    Each output still costs O(r) group additions: the sliding window reweights
    every term, so there is no cheaper incremental update.
    """
    if not isinstance(config.weights, WeightVector):
        raise ValidationError("curve generator needs a WeightVector")
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count == 0:
        return []
    stream = config.source.bits(count + config.r - 1)
    return [_sum_window(w, config.weights, config.curve) for w in packed_windows(stream, config.r)]


def output_normalized(config: GeneratorConfig, count: int) -> list[float]:
    """Normalised x-coordinates x(V(n))/p for n = 1..count; values in [0, 1)."""
    p = config.curve.p
    return [x_coord(point) / p for point in ec_subset_sum_stream(config, count)]


@dataclass(frozen=True)
class PointSet:
    """N points in the half-open unit cube [0, 1)^s, stored as an (N, s) array."""

    s: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(np.atleast_2d(np.asarray(self.rows, dtype=float)))
        if rows.ndim != 2 or rows.shape[1] != self.s:
            raise ValidationError(f"rows must be (N, {self.s}), got {rows.shape}")
        if rows.shape[0] < 1:
            raise ValidationError("point set must be nonempty")
        if self.s < 1:
            raise ValidationError("dimension must be >= 1")
        if not np.isfinite(rows).all():
            raise ValidationError("coordinates must be finite")
        if rows.size and (rows.min() < 0.0 or rows.max() >= 1.0):
            raise ValidationError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def s_tuples(seq, s: int) -> PointSet:
    """Overlapping windows (seq[n], ..., seq[n+s-1]) as rows of a PointSet."""
    if s < 1:
        raise ValidationError("dimension must be >= 1")
    arr = np.asarray(list(seq), dtype=float)
    if arr.ndim != 1:
        raise ValidationError("sequence must be one-dimensional")
    if len(arr) < s:
        raise ValidationError(f"sequence of length {len(arr)} is shorter than s = {s}")
    rows = np.lib.stride_tricks.sliding_window_view(arr, s).copy()
    return PointSet(s=s, rows=rows)

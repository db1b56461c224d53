"""Method-agnostic estimators used to cross-check dimension outputs:
chaos-game sampling, box-count regression, and cylinder-union length
bounds on the Lebesgue measure of the attractor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Cplifs, DEFAULT_BUDGET, invariant_interval, level_sweep
from .errors import InsufficientScales

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; the batch variant must agree with
    this reference bit for bit (state advances by a fixed odd constant, so
    the whole stream vectorizes)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


def splitmix64_batch(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed), vectorized."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_batch(seed: int, count: int) -> np.ndarray:
    return (splitmix64_batch(seed, count) >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Chaos-game samples, deterministic for a fixed seed."""

    samples: np.ndarray
    seed: int
    burn_in: int
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def to_csv(self) -> str:
        lines = ["index,x"]
        lines.extend(f"{i},{x:.17g}" for i, x in enumerate(self.samples))
        return "\n".join(lines) + "\n"


def chaos_game(
    F: Cplifs,
    count: int,
    seed: int = 0,
    burn_in: int = 100,
    weights: Sequence[float] | None = None,
) -> PointCloud:
    """Iterate x <- f_k(x) with k drawn by the seeded generator, keeping
    `count` samples after the burn-in."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if weights is None:
        w = np.full(F.m, 1.0 / F.m)
    else:
        w = np.asarray(weights, dtype=float)
        if len(w) != F.m or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative, one per map")
        w = w / w.sum()
    cum = np.cumsum(w)
    cum[-1] = 1.0
    us = uniform_batch(seed, burn_in + count)
    ks = np.searchsorted(cum, us, side="right")
    lo, hi = invariant_interval(F)
    x = 0.5 * (lo + hi)
    maps = F.maps
    out = np.empty(count)
    for i, k in enumerate(ks):
        x = maps[k](x)
        if i >= burn_in:
            out[i - burn_in] = x
    out.flags.writeable = False
    return PointCloud(samples=out, seed=seed, burn_in=burn_in, weights=tuple(w))


@dataclass(frozen=True, eq=False)
class BoxCountFit:
    """Least-squares slope of log N(eps) against log(1/eps)."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    raw_slope: float
    intercept: float
    residual: float
    ci95: tuple[float, float]


def default_box_scales(F: Cplifs) -> tuple[float, ...]:
    """Box sizes |J| 3^-j for j = 2..9 over the invariant interval J."""
    lo, hi = invariant_interval(F)
    width = max(hi - lo, 1e-9)
    return tuple(width * 3.0**-j for j in range(2, 10))


def box_dimension(cloud: PointCloud | np.ndarray, scales: Sequence[float]) -> BoxCountFit:
    """Box-count regression over the given scales; needs at least four of
    them spanning two decades."""
    xs = cloud.samples if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    eps = sorted(float(e) for e in scales)
    if len(eps) < 4 or eps[0] <= 0:
        raise InsufficientScales("need >= 4 positive scales")
    if eps[-1] / eps[0] < 100.0:
        raise InsufficientScales("scales must span at least two decades")
    counts = [int(np.unique(np.floor(xs / e)).size) for e in eps]
    logs = np.log(1.0 / np.array(eps))
    logn = np.log(np.array(counts, dtype=float))
    A = np.stack([logs, np.ones_like(logs)], axis=1)
    (slope, intercept), res, *_ = np.linalg.lstsq(A, logn, rcond=None)
    fitted = A @ np.array([slope, intercept])
    rss = float(np.sum((logn - fitted) ** 2))
    dof = max(len(eps) - 2, 1)
    sxx = float(np.sum((logs - logs.mean()) ** 2))
    se = math.sqrt(rss / dof / sxx) if sxx > 0 else math.inf
    clamped = min(1.0, max(0.0, float(slope)))
    return BoxCountFit(
        scales=tuple(eps),
        counts=tuple(counts),
        slope=clamped,
        raw_slope=float(slope),
        intercept=float(intercept),
        residual=rss,
        ci95=(float(slope) - 1.96 * se, float(slope) + 1.96 * se),
    )


def _union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    cmax = np.maximum.accumulate(hi)
    prev = np.concatenate(([-np.inf], cmax[:-1]))
    starts = np.flatnonzero(lo > prev)  # index 0 always starts a run
    ends = np.concatenate((starts[1:] - 1, [len(lo) - 1]))
    return float(np.sum(cmax[ends] - lo[starts]))


def lebesgue_upper_bound(
    F: Cplifs, n_max: int, budget: int = DEFAULT_BUDGET
) -> tuple[float, ...]:
    """Total length of the merged level-n cylinder union for n = 1..n_max;
    an upper bound for the attractor's measure, nonincreasing in n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sweep = level_sweep(F, n_max, budget)
    next(sweep)  # level 0, the invariant interval itself
    return tuple(_union_length(lo, hi) for lo, hi in sweep)


CONSISTENT_POSITIVE = "CONSISTENT_POSITIVE"
CONSISTENT_NULL = "CONSISTENT_NULL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class MeasureVerdict:
    """Finite-depth evidence about the attractor's Lebesgue measure; never
    a proof, and exceptional parameters can defeat the heuristic."""

    classification: str
    dim_estimate: float
    plateau: bool
    decaying: bool
    tail_changes: tuple[float, ...]
    plateau_tol: float
    window: int


def measure_evidence(
    bounds: Sequence[float],
    dim_estimate: float,
    plateau_tol: float = 1e-3,
    window: int = 3,
) -> MeasureVerdict:
    """Classify the bound sequence: a plateau with dimension estimate
    above 1 supports positive measure, geometric decay with estimate
    below 1 supports a null attractor."""
    b = [float(x) for x in bounds]
    if len(b) < window + 1:
        raise ValueError(f"need at least {window + 1} bound values")
    tail = b[-(window + 1):]
    changes = []
    for prev, cur in zip(tail, tail[1:]):
        changes.append((prev - cur) / prev if prev > 0 else 0.0)
    plateau = all(abs(c) < plateau_tol for c in changes)
    decaying = all(c >= plateau_tol for c in changes)
    if dim_estimate > 1.0 and plateau:
        cls = CONSISTENT_POSITIVE
    elif dim_estimate < 1.0 and decaying:
        cls = CONSISTENT_NULL
    else:
        cls = INCONCLUSIVE
    return MeasureVerdict(
        classification=cls,
        dim_estimate=dim_estimate,
        plateau=plateau,
        decaying=decaying,
        tail_changes=tuple(changes),
        plateau_tol=plateau_tol,
        window=window,
    )

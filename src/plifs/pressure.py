"""Level-n partition sums of cylinder lengths, their roots s_n, and the
natural-dimension estimate built from the root sequence."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Cplifs, DEFAULT_BUDGET, cylinder_arrays, level_sweep
from .errors import ConvergenceFailure, DegenerateAttractor


@dataclass(frozen=True)
class PressureProfile:
    """Root s_n of the level-n partition sum, plus run metadata."""

    level: int
    root: float
    word_count: int
    zero_count: int
    elapsed: float


@dataclass(frozen=True)
class NaturalDimEstimate:
    """The s_n sequence over a level range and its tail-window summary.

    The reported estimate is the maximum over the trailing window, a
    finite stand-in for the limit superior of the sequence.
    """

    levels: tuple[int, ...]
    roots: tuple[float, ...]
    estimate: float
    window: int
    spread: float


def _aggregate_lengths(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Collapse equal cylinder lengths to (log length, log multiplicity);
    piecewise systems repeat few distinct length products, which makes the
    partition sum cheap at deep levels."""
    pos = lens > 0.0
    zero = lens.size - int(np.count_nonzero(pos))
    lens = lens[pos]
    total = lens.size + zero
    if lens.size == 0:
        return np.empty(0), np.empty(0), zero, total
    u, c = np.unique(lens, return_counts=True)
    return np.log(u), np.log(c.astype(float)), zero, total


def _logsumexp(a: np.ndarray) -> float:
    mx = float(np.max(a))
    return mx + math.log(float(np.sum(np.exp(a - mx))))


def pressure_at(F: Cplifs, s: float, n: int, budget: int = DEFAULT_BUDGET) -> float:
    """(1/n) log sum over level-n words of |I_w|^s, in the log domain."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if n < 1:
        raise ValueError("level must be >= 1")
    lo, hi = cylinder_arrays(F, n, budget)
    logu, logc, _, _ = _aggregate_lengths(hi - lo)
    if logu.size == 0:
        raise DegenerateAttractor("all level-%d cylinders have zero length" % n)
    return _logsumexp(s * logu + logc) / n


#: Signed value of a tie that the caller counts as "root below s" (the
#: smallest negative float; ``g(s) or BELOW`` maps an exact 0 to it).
BELOW = -math.ulp(0.0)


def bisect_decreasing(g: Callable[[float], float], tol: float, what: str) -> float:
    """Root in [0, inf) of a decreasing function given by its signed values:
    ``g(s) >= 0`` means the root lies at or above s, and g(0) must be >= 0.

    Brackets by doubling from 1, then shrinks the bracket to width tol with
    Illinois (modified regula falsi) steps: the secant point of the two
    ends, with the stored value of an end that has not moved for two steps
    halved; the midpoint where the secant point leaves the bracket. Each
    point is kept tol/2 inside the bracket and, as in the ITP method
    (Oliveira and Takahashi, ACM Trans. Math. Softw. 47, 2020), near enough
    to the midpoint that the bracket reaches width tol within twice the
    steps of plain bisection. Returns the bracket's midpoint.
    """
    lo, glo = 0.0, g(0.0)
    if glo < 0.0:
        raise ConvergenceFailure(f"the {what} lies below 0")
    hi, ghi = 1.0, g(1.0)
    doublings = 0
    while ghi >= 0.0:
        lo, glo = hi, ghi
        hi *= 2.0
        doublings += 1
        if doublings > 64:
            raise ConvergenceFailure(f"no upper bracket for the {what}")
        ghi = g(hi)
    half = 0.5 * tol
    n = 2 * max(0, math.ceil(math.log2((hi - lo) / tol)))  # twice plain bisection's steps
    moved = 0  # end the last step moved: +1 lo, -1 hi
    j = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = hi - ghi * ((hi - lo) / (ghi - glo))
        # within r of the midpoint: the bracket is at most tol 2^(n - j) wide
        # after step j, so n steps reach tol whatever the secant points are
        r = max(0.0, half * 2.0 ** (n - j) - 0.5 * (hi - lo))
        s = min(max(s if lo <= s <= hi else mid, mid - r, lo + half), mid + r, hi - half)
        j += 1
        gs = g(s)
        if gs >= 0.0:
            lo, glo = s, gs
            if moved == 1:
                ghi *= 0.5
            moved = 1
        else:
            hi, ghi = s, gs
            if moved == -1:
                glo *= 0.5
            moved = -1
    return 0.5 * (lo + hi)


def _root_from_logs(logu: np.ndarray, logc: np.ndarray, tol: float = 1e-13) -> float:
    # G(s) = log sum |I_w|^s is strictly decreasing when every length < 1.
    if logu.size == 0:
        return 0.0  # every cylinder has zero length: the attractor is a point
    if float(np.max(logu)) >= 0.0:
        raise ConvergenceFailure(
            "a cylinder has length >= 1; the partition-sum root is not unique "
            "(conjugate the system into an interval of length <= 1)"
        )
    if logu.size == 1 and logc[0] == 0.0:
        return 0.0  # single positive cylinder: the sum is 1 only at s = 0
    # the root lies above s only where the sum exceeds 1: a tie counts as below
    return bisect_decreasing(
        lambda s: _logsumexp(s * logu + logc) or BELOW, tol, "partition-sum root"
    )


def solve_level_root(F: Cplifs, n: int, budget: int = DEFAULT_BUDGET) -> PressureProfile:
    """The unique s_n with sum over level-n words of |I_w|^{s_n} = 1,
    found by `bisect_decreasing` on a doubling bracket.

    A system whose cylinders all have zero length is a single point; its
    root is 0 by convention.
    """
    t0 = time.perf_counter()
    lo, hi = cylinder_arrays(F, n, budget)
    logu, logc, zero, count = _aggregate_lengths(hi - lo)
    root = _root_from_logs(logu, logc)
    return PressureProfile(level=n, root=root, word_count=count, zero_count=zero,
                           elapsed=time.perf_counter() - t0)


def natural_dimension(
    F: Cplifs,
    n_min: int,
    n_max: int,
    window: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> NaturalDimEstimate:
    """Solve s_n for n_min..n_max in one sweep of the cylinder arrays and
    summarize the tail window."""
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    if window < 1:
        raise ValueError("window must be >= 1")
    roots: list[float] = []
    for n, (lo, hi) in enumerate(level_sweep(F, n_max, budget)):
        if n >= n_min:
            logu, logc, _, _ = _aggregate_lengths(hi - lo)
            roots.append(_root_from_logs(logu, logc))
    levels = tuple(range(n_min, n_max + 1))
    tail = roots[-window:]
    return NaturalDimEstimate(
        levels=levels,
        roots=tuple(roots),
        estimate=max(tail),
        window=window,
        spread=max(tail) - min(tail),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    box_estimate: float
    dim_estimate: float
    margin: float
    tolerance: float


def upper_box_consistency(
    estimate: NaturalDimEstimate | float, box: float, tolerance: float = 0.05
) -> ConsistencyReport:
    """Flag a box-count estimate that exceeds the natural-dimension
    estimate by more than the statistical tolerance: the box dimension can
    never sit above the partition-sum root.  Consistent when
    ``box <= s + tolerance``."""
    s = estimate.estimate if isinstance(estimate, NaturalDimEstimate) else float(estimate)
    return ConsistencyReport(
        consistent=box <= s + tolerance,
        box_estimate=box,
        dim_estimate=s,
        margin=box - s,
        tolerance=tolerance,
    )

"""Level-n partition sums of cylinder lengths, their roots s_n, and the
natural-dimension estimate built from the root sequence."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Cplifs, DEFAULT_BUDGET, _run_starts, level_blocks
from .errors import ConvergenceFailure, DegenerateAttractor

WINDOW = 3  # last roots s_n that the natural estimate takes the maximum of
BOX_SLACK = 0.05  # how far upper_box_consistency lets the box value exceed s
_ROOT_TOL = 1e-13  # bracket width of each root s_n


@dataclass(frozen=True)
class PressureProfile:
    """Root s_n of the level-n partition sum, plus run metadata.

    ``zero_count`` counts the level's words whose carried length is 0,
    which only underflow or a one-point attractor makes: 0 of the
    4,194,304 at n = 22 on the paper example, where hi - lo gave
    1,353,880."""

    level: int
    root: float
    word_count: int
    zero_count: int
    elapsed: float


@dataclass(frozen=True)
class NaturalDimEstimate:
    """The s_n sequence over a level range and its tail-window summary.

    The reported estimate is the maximum over the last `WINDOW` roots, a
    finite stand-in for the limit superior of the sequence.
    """

    levels: tuple[int, ...]
    roots: tuple[float, ...]
    estimate: float
    spread: float


def _merge(u: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of u, each with the sum of the integer
    counts c of its copies: the values and counts of one sort of all of
    them, whatever their order and repeats; no sort where u already
    rises strictly, as one histogram does."""
    if (u[1:] > u[:-1]).all():
        return u, c
    order = np.argsort(u)
    u, c = u[order], c[order]
    first = _run_starts(u)
    return u[first], np.add.reduceat(c, first)


def _level_counts(u: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(log length, log multiplicity, zero count, word count) of a level
    whose carried lengths are u, each occurring c times: the `_merge` of
    the positive ones; lengths <= 0, which only underflow makes, are
    counted apart."""
    zeros = 0
    if u.min(initial=1.0) <= 0.0:
        zero = u <= 0.0
        zeros = int(c[zero].sum())
        u, c = u[~zero], c[~zero]
    u, c = _merge(u, c)
    return np.log(u), np.log(c.astype(float)), zeros, zeros + int(c.sum())


_LONG_CYLINDER = ("a cylinder has length >= 1; the partition-sum root is not unique "
                  "(conjugate the system into an interval of length <= 1)")


def _level_logs(
    F: Cplifs, n_min: int, n_max: int, budget: int, roots: bool = True
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """`_level_counts` of each level n_min..n_max, from one walk of
    `level_blocks`: its pool of distinct histograms, each entry's count
    times the number of blocks that share the histogram; the one level
    guard of the partition sums.

    For roots, a level-n_min length >= 1 raises the ConvergenceFailure
    that `_root_from_logs` would raise first, as soon as the walk yields
    the level, before any deeper level is imaged."""
    if n_min < 1:
        raise ValueError("level must be >= 1")
    if n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    out = []
    for level in level_blocks(F, n_min, n_max, budget):
        if roots and level.n == n_min and level.u.max() >= 1.0:
            raise ConvergenceFailure(_LONG_CYLINDER)
        out.append(_level_counts(level.u, level.c * level.weights()))
    return out


def _logsumexp(a: np.ndarray) -> float:
    mx = float(np.max(a))
    return mx + math.log(float(np.sum(np.exp(a - mx))))


def pressure_at(F: Cplifs, s: float, n: int, budget: int = DEFAULT_BUDGET) -> float:
    """(1/n) log sum over level-n words of |I_w|^s, in the log domain,
    from the histogram of the level's lengths that one walk of
    `level_blocks` gives."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s = {s} is not finite and >= 0")
    ((logu, logc, _, _),) = _level_logs(F, n, n, budget, roots=False)
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


def _root_from_logs(logu: np.ndarray, logc: np.ndarray) -> float:
    # G(s) = log sum |I_w|^s is strictly decreasing when every length < 1;
    # its root is bracketed to width _ROOT_TOL.
    if logu.size == 0:
        return 0.0  # every cylinder has zero length: the attractor is a point
    if float(np.max(logu)) >= 0.0:
        raise ConvergenceFailure(_LONG_CYLINDER)
    if logu.size == 1 and logc[0] == 0.0:
        return 0.0  # single positive cylinder: the sum is 1 only at s = 0
    # the root lies above s only where the sum exceeds 1: a tie counts as below
    return bisect_decreasing(
        lambda s: _logsumexp(s * logu + logc) or BELOW, _ROOT_TOL, "partition-sum root"
    )


def solve_level_root(F: Cplifs, n: int, budget: int = DEFAULT_BUDGET) -> PressureProfile:
    """The unique s_n with sum over level-n words of |I_w|^{s_n} = 1,
    found by `bisect_decreasing` on a doubling bracket.

    The partition sum is read off the histogram of the level's lengths
    that one walk of `level_blocks` gives.  A system whose cylinders all
    have zero length is a single point; its root is 0 by convention.
    """
    t0 = time.perf_counter()
    ((logu, logc, zero, count),) = _level_logs(F, n, n, budget)
    root = _root_from_logs(logu, logc)
    return PressureProfile(level=n, root=root, word_count=count, zero_count=zero,
                           elapsed=time.perf_counter() - t0)


def natural_dimension(
    F: Cplifs,
    n_min: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
) -> NaturalDimEstimate:
    """Solve s_n for n_min..n_max and summarize the last `WINDOW` roots.
    One walk of `level_blocks` gives every level's histogram of lengths,
    never holding a level of more than ``_CHUNK`` words."""
    logs = _level_logs(F, n_min, n_max, budget)
    roots = [_root_from_logs(logu, logc) for logu, logc, _, _ in logs]
    tail = roots[-WINDOW:]
    return NaturalDimEstimate(
        levels=tuple(range(n_min, n_max + 1)),
        roots=tuple(roots),
        estimate=max(tail),
        spread=max(tail) - min(tail),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    box_estimate: float
    dim_estimate: float
    margin: float


def upper_box_consistency(estimate: NaturalDimEstimate | float, box: float) -> ConsistencyReport:
    """Flag a box-count estimate that exceeds the natural-dimension
    estimate by more than the statistical slack: the box dimension can
    never sit above the partition-sum root.  Consistent when
    ``box <= s + BOX_SLACK``."""
    s = estimate.estimate if isinstance(estimate, NaturalDimEstimate) else float(estimate)
    return ConsistencyReport(
        consistent=box <= s + BOX_SLACK,
        box_estimate=box,
        dim_estimate=s,
        margin=box - s,
    )

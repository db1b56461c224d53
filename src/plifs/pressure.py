"""Level-n partition sums of cylinder lengths, their roots s_n, and the
natural-dimension estimate built from the root sequence."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import _CHUNK, Chunk, Cplifs, DEFAULT_BUDGET, cylinders, level_sweep
from .errors import ConvergenceFailure, DegenerateAttractor

WINDOW = 3  # last roots s_n that the natural estimate takes the maximum of
BOX_SLACK = 0.05  # how far upper_box_consistency lets the box value exceed s
_ROOT_TOL = 1e-13  # bracket width of each root s_n


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

    The reported estimate is the maximum over the last `WINDOW` roots, a
    finite stand-in for the limit superior of the sequence.
    """

    levels: tuple[int, ...]
    roots: tuple[float, ...]
    estimate: float
    spread: float


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values."""
    new = np.empty(values.size, bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def _histogram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and how often each occurs."""
    first = _run_starts(values)
    counts = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = values.size - first[-1:]
    return values[first], counts


def _merge_counts(us: list[np.ndarray], cs: list[np.ndarray]) -> None:
    """Merge histograms, each sorted distinct values us[i] with counts
    cs[i], into one in place: on return the lists hold only the sorted
    distinct values and their summed counts, the counts following the
    values' argsort.  Each input is dropped once it is joined."""
    if len(us) == 1:
        return
    u = np.concatenate(us)
    us.clear()
    order = np.argsort(u)
    u = u[order]
    c = np.concatenate(cs)
    cs.clear()
    c = c[order]
    del order
    first = _run_starts(u)
    us.append(u[first])
    cs.append(np.add.reduceat(c, first))


def _aggregate_lengths(level: Iterable[Chunk]) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Collapse the equal cylinder lengths hi - lo of a level's (lo, hi)
    chunks to (log length, log multiplicity), plus the zero-length and the
    total word counts; piecewise systems repeat few distinct length
    products, which makes the partition sum cheap at deep levels.

    Each chunk's lengths are sorted in place, the zeros (-0.0 among them)
    dropped as the sorted prefix up to ``searchsorted(0.0, "right")``, and
    each run of equal positive lengths counted.  The chunks' histograms
    merge into the level's, sorted distinct lengths with exact integer
    counts, once they hold at least 2 ``_CHUNK`` entries and as many as
    the level's: the values and counts are those of one sort of the whole
    level, and only the level's histogram and a few chunks' are held."""
    us, cs = [np.empty(0)], [np.empty(0, np.intp)]  # the level's histogram first
    held = total = 0  # entries of the chunks' histograms, words read
    room = 2 * _CHUNK  # held entries that start a merge
    for lo, hi in level:
        lens = hi - lo
        total += lens.size
        lens.sort()
        lens = lens[np.searchsorted(lens, 0.0, "right"):]
        u, c = _histogram(lens)
        us.append(u)
        cs.append(c)
        held += u.size
        if held >= room:
            _merge_counts(us, cs)
            held = 0
            room = max(room, us[0].size)
    _merge_counts(us, cs)
    (u,), (c,) = us, cs
    return np.log(u), np.log(c.astype(float)), total - int(c.sum()), total


def _logsumexp(a: np.ndarray) -> float:
    mx = float(np.max(a))
    return mx + math.log(float(np.sum(np.exp(a - mx))))


def pressure_at(F: Cplifs, s: float, n: int, budget: int = DEFAULT_BUDGET) -> float:
    """(1/n) log sum over level-n words of |I_w|^s, in the log domain."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if n < 1:
        raise ValueError("level must be >= 1")
    logu, logc, _, _ = _aggregate_lengths(cylinders(F, n, budget))
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
        raise ConvergenceFailure(
            "a cylinder has length >= 1; the partition-sum root is not unique "
            "(conjugate the system into an interval of length <= 1)"
        )
    if logu.size == 1 and logc[0] == 0.0:
        return 0.0  # single positive cylinder: the sum is 1 only at s = 0
    # the root lies above s only where the sum exceeds 1: a tie counts as below
    return bisect_decreasing(
        lambda s: _logsumexp(s * logu + logc) or BELOW, _ROOT_TOL, "partition-sum root"
    )


def solve_level_root(F: Cplifs, n: int, budget: int = DEFAULT_BUDGET) -> PressureProfile:
    """The unique s_n with sum over level-n words of |I_w|^{s_n} = 1,
    found by `bisect_decreasing` on a doubling bracket.

    A system whose cylinders all have zero length is a single point; its
    root is 0 by convention.
    """
    t0 = time.perf_counter()
    logu, logc, zero, count = _aggregate_lengths(cylinders(F, n, budget))
    root = _root_from_logs(logu, logc)
    return PressureProfile(level=n, root=root, word_count=count, zero_count=zero,
                           elapsed=time.perf_counter() - t0)


def natural_dimension(
    F: Cplifs,
    n_min: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
) -> NaturalDimEstimate:
    """Solve s_n for n_min..n_max in one sweep of the cylinder arrays and
    summarize the last `WINDOW` roots."""
    if not (1 <= n_min <= n_max):
        raise ValueError("need 1 <= n_min <= n_max")
    roots: list[float] = []
    for n, level in enumerate(level_sweep(F, n_max, budget)):
        if n >= n_min:
            logu, logc, _, _ = _aggregate_lengths(level)
            roots.append(_root_from_logs(logu, logc))
    levels = tuple(range(n_min, n_max + 1))
    tail = roots[-WINDOW:]
    return NaturalDimEstimate(
        levels=levels,
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

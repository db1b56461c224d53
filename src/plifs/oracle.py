"""Method-agnostic estimators used to cross-check dimension outputs:
chaos-game sampling, box-count regression, and cylinder-union length
bounds on the Lebesgue measure of the attractor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    _CHUNK, Cplifs, DEFAULT_BUDGET, Frontier, Level, PLMap, _check_budget, check_iosc,
    frontier_error, invariant_interval, level_blocks, level_sweep,
)
from .errors import AmbiguousContainment, BudgetExceeded, InsufficientScales

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_batch(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 generator from `seed`,
    vectorized; updated in place, so at most two arrays of `count` words
    are alive."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniform_batch(seed: int, count: int) -> np.ndarray:
    z = splitmix64_batch(seed, count)
    z >>= np.uint64(11)
    return z * 2.0**-53


# Steps per lockstep block at least, and the fewest blocks for which
# running them in lockstep beats the scalar loop (measured with r_max 1/3,
# 0.8 and 0.95: the two paths cost the same at 20-28 blocks).
_BLOCK = 256
_MIN_BLOCKS = 24


def _scalar_orbit(maps: Sequence[PLMap], codes: np.ndarray, x: float, out: np.ndarray) -> float:
    """x <- f_k(x) for each map code k in turn, each x written to out;
    returns the last x."""
    for i, k in enumerate(codes.tolist()):
        x = maps[k](x)
        out[i] = x
    return x


def _block_orbit(F: Cplifs, codes: np.ndarray, x0: float) -> np.ndarray | None:
    """The orbit of x0 under the maps coded by ``codes``, one value per
    code, bit for bit as `_scalar_orbit` gives it, in a buffer that may run
    past the last code.

    The orbit is cut into blocks run in lockstep.  Block b starts from x0
    and first replays the ``replay`` + 1 codes before its own, ``replay``
    being enough for the contraction to bring any start within 2^-64 of
    the orbit; block 0 is padded in front with the identity, so it starts
    on the orbit.  In floating point a replayed block can still end a
    rounding off the orbit, so each block's value after its last replayed
    code is compared, bit for bit and in block order, with the end of the
    block before it, and on a mismatch the block is recomputed by
    `_scalar_orbit` from that end.  By induction every block is then the
    sequential orbit.  None when there are too few blocks to pay for the
    replay.
    """
    r = F.max_ratio
    replay = math.ceil(64 * math.log(2) / -math.log(r)) if r > 0 else 1
    block = max(_BLOCK, 4 * replay)
    n, m, lead = codes.size, F.m, replay + 1
    blocks = -(-n // block)
    if blocks < _MIN_BLOCKS:
        return None
    # One table row per map and an identity row m (slope 1, intercept -0.0:
    # x * 1 + -0.0 is x exactly, signed zeros included).  A step looks up
    # row * stride + piece, the piece being the number of breaks <= x as
    # bisect_right counts it: pass j moves a step that has cleared breaks
    # 0..j-1 (and so sits at piece j) on past break j, so break j goes in
    # column row * stride + j of pass j and every other entry is +inf.
    stride = 1 + max(len(f.breaks) for f in F.maps)
    slope = np.ones((m + 1) * stride)
    icpt = np.full((m + 1) * stride, -0.0)
    brk = np.full((stride - 1, (m + 1) * stride), np.inf)
    for k, f in enumerate(F.maps):
        slope[k * stride:k * stride + f.pieces] = f.slopes
        icpt[k * stride:k * stride + f.pieces] = f._intercepts
        j = np.arange(len(f.breaks))
        brk[j, k * stride + j] = f.breaks
    base = np.full(blocks * block + lead, m, np.min_scalar_type((m + 1) * stride))
    base[lead:lead + n] = codes
    base *= stride
    orbit = np.empty(blocks * block)
    rows = orbit.reshape(blocks, block)
    x = np.full(blocks, x0)
    for t in range(lead + block):
        idx = base[t:t + blocks * block:block]  # step t of every block
        for col in brk:
            idx = idx + (col.take(idx) <= x)
        x = slope.take(idx) * x + icpt.take(idx)
        if t == replay:
            check = x.view(np.uint64)
        elif t > replay:
            rows[:, t - lead] = x
    bits = rows.view(np.uint64)
    for b in range(1, blocks):
        if check[b] != bits[b - 1, -1]:
            start = b * block
            _scalar_orbit(F.maps, codes[start:start + block], float(rows[b - 1, -1]), rows[b])
    return orbit


def chaos_game(
    F: Cplifs,
    count: int,
    seed: int = 0,
    burn_in: int = 100,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Iterate x <- f_k(x) from the middle of the invariant interval, with
    k drawn by the seeded generator; the read-only array of the `count`
    samples after the burn-in.  ValueError unless the weights, if given,
    are one per map, finite and nonnegative, with a finite positive sum.

    The map code of a uniform u is the number of entries of the cumulative
    weights ``cum[:-1]`` at or below u, counted one threshold at a time;
    that is the bisect_right index of u in ``cum``, because the cumsum of
    nonnegative weights is nondecreasing and ``cum[-1] = 1.0`` exceeds
    every u.  The orbit is run by `_block_orbit` where it has enough
    blocks, else step by step."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if weights is None:
        w = np.full(F.m, 1.0 / F.m)
    else:
        w = np.asarray(weights, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            total = w.sum()
        if len(w) != F.m or not ((0.0 <= w) & (w < math.inf)).all() or not 0.0 < total < math.inf:
            raise ValueError("weights must be one per map, finite and nonnegative, "
                             "with a finite positive sum")
        w = w / total
    cum = np.cumsum(w)
    cum[-1] = 1.0
    n = burn_in + count
    u = uniform_batch(seed, n)
    codes = np.zeros(n, np.min_scalar_type(F.m))
    for c in cum[:-1]:
        codes += u >= c
    del u
    lo, hi = invariant_interval(F)
    x0 = 0.5 * (lo + hi)
    orbit = _block_orbit(F, codes, x0)
    if orbit is None:
        orbit = np.empty(n)
        _scalar_orbit(F.maps, codes, x0, orbit)
    out = orbit[burn_in:n]
    out.flags.writeable = False
    return out


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


_FINEST = 9  # box sizes |J| 3^-j run over j = 2.._FINEST
# cap on a frontier round's candidates (a node times a piece): the round's
# nodes and the children made from them, 32 bytes each, stay within 128 MB
_ROUND_CAP = 2**21


def default_box_scales(F: Cplifs) -> tuple[float, ...]:
    """Box sizes |J| 3^-j for j = 2..9 over the invariant interval J."""
    lo, hi = invariant_interval(F)
    width = max(hi - lo, 1e-9)
    return tuple(width * 3.0**-j for j in range(2, _FINEST + 1))


def box_dimension(samples: np.ndarray, scales: Sequence[float]) -> BoxCountFit:
    """Box-count regression of the samples over the given scales; needs at
    least four finite positive scales spanning two decades, and a sample
    that is a number.

    N(e) counts the distinct floor(x / e), NaNs counted as one box as
    np.unique counts them.  The samples are sorted once and floored in
    full only at the finest scale; each coarser scale is counted on the
    first and last sample of each finest box, which is exact when no
    finest box spans more than two boxes of that scale (checked per scale;
    where it fails, that scale is counted on all samples)."""
    eps = sorted(float(e) for e in scales)
    if len(eps) < 4 or not all(0 < e < math.inf for e in eps):
        raise InsufficientScales("need >= 4 finite positive scales")
    if eps[-1] / eps[0] < 100.0:
        raise InsufficientScales("scales must span at least two decades")
    # x -> floor(x / e) is nondecreasing, so one sort serves every scale:
    # the boxes hit are the runs of equal floors.  The sort puts NaNs last.
    xs = np.sort(samples, axis=None)
    nans = int(np.isnan(xs).sum())
    xs = xs[: xs.size - nans]
    if not xs.size:
        raise ValueError("box counting needs a sample that is a number")
    f = np.floor(xs / eps[0])
    starts = np.flatnonzero(f[1:] != f[:-1]) + 1  # of every finest box but the first
    # the first and last sample of each finest box, in sorted order: at a
    # coarser scale the floors of a box's samples lie between those of its
    # ends, so where these differ by at most one (true also of +-inf) the
    # ends give the same runs as all the samples
    ends = np.empty(2 * starts.size + 2)
    ends[0], ends[-1] = xs[0], xs[-1]
    ends[2::2] = xs[starts]
    ends[1:-1:2] = xs[starts - 1]
    counts = [starts.size + 1]
    for e in eps[1:]:
        g = np.floor(ends / e)
        if not (g[1::2] <= g[::2] + 1.0).all():
            g = np.floor(xs / e)
        counts.append(1 + int(np.count_nonzero(g[1:] != g[:-1])))
    return _fit(eps, [c + (nans > 0) for c in counts])


def _fit(eps: Sequence[float], counts: Sequence[int]) -> BoxCountFit:
    """Least-squares line through (log 1/e, log N(e)), scales ascending."""
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


@dataclass(frozen=True, eq=False)
class FrontierBoxCount:
    """Box counts read off the refinement frontier at
    ``default_box_scales``, finest first.  ``lower`` counts the boxes of
    the attractor points f_w(p), p a map's fixed point or its image under
    a map; ``fit`` regresses the upper counts, which add the boxes that the
    leaves' images meet.  ``nodes`` counts the frontier nodes made."""

    lower: tuple[int, ...]
    fit: BoxCountFit
    nodes: int


def frontier_box_count(F: Cplifs, budget: int = DEFAULT_BUDGET) -> FrontierBoxCount:
    """Box counts of the attractor from ``core.Frontier``, refined round by
    round until no node is left.

    The grid at scale |J| 3^-j has its boxes centred on a + k |J| 3^-j,
    k = 0..3^j.  As 3^(9-j) is odd, each is the union of 3^(9-j) finest
    boxes, and finest box q lies in box (q + (3^(9-j) - 1) / 2) // 3^(9-j):
    every point's box is decided once, at the finest scale.  The edge rule:
    boxes are closed, and a computed value y stands for [y - r, y + r], r
    the rounding bound ``core.frontier_error`` (AmbiguousContainment unless
    r <= e / 8, e the finest scale).  So a value within r of an edge counts
    in both boxes, whichever side rounding put it on, and reflecting or
    rescaling the system leaves the counts as they are.

    Each round, every node marks the boxes of f_w(p) for the maps' fixed
    points p and their images under each map that its domain holds
    (``Frontier.attractor_images``): attractor points, whatever the maps.
    A node whose image meets only marked boxes is dropped: its descendants'
    images lie inside its own, so they would add no box to either count.
    Any other node whose image is no longer than r, or that has reached the
    depth N where no exact image is longer than 2^-53 |J|, is a leaf, as
    refining it can no longer change the boxes it meets, and they join the
    upper count.  The children of the rest make the next round, held as
    ``core._CHUNK``-node parts, and a round marks every part first.
    BudgetExceeded when the nodes made and the next round's candidates (a
    node times a piece) pass the budget, or the candidates pass
    ``_ROUND_CAP``."""
    a, b = invariant_interval(F)
    scales = default_box_scales(F)
    e, top = scales[-1], 3**_FINEST  # finest scale, last finest box
    # at depth N every exact image is at most 2^-53 |J| long; when J is one
    # point the root is the only node
    N = math.ceil(53 * math.log(2) / -math.log(F.max_ratio)) if b > a else 0
    r = frontier_error(F, N)
    if not r <= e / 8:
        raise AmbiguousContainment(f"rounding bound {r:.3g} is not within an eighth of "
                                   f"the finest box {e:.3g}")
    pieces, pad = sum(f.pieces for f in F.maps), r / e

    def box(y: np.ndarray, side: float) -> np.ndarray:
        """The finest box of y + side r: of y - r with side -1, the first
        that [y - r, y + r] meets, and of y + r with side 1, the last."""
        return np.clip(np.floor((y - a) / e + (0.5 + side * pad)), 0, top).astype(np.intp)

    marked, met = np.zeros(top + 1, bool), np.zeros(top + 1, bool)
    parts, nodes = [Frontier.root(F)], 1
    for depth in range(N + 1):
        if not parts:
            break
        for part in parts:
            y = part.attractor_images(F)
            marked[box(y, -1)] = marked[box(y, 1)] = True  # 2 r < e: at most two boxes
        done, grown, kids = None, 0, []
        for part in parts:
            lo, hi = part.image()
            q0, q1 = box(lo, -1), box(hi, 1)
            # a node is open while its image meets a box not marked; the probes
            # at both ends and the middle decide every range of up to three boxes
            open_ = ~(marked[q0] & marked[q1] & marked[(q0 + q1) // 2])
            unsure = ~open_ & (q1 - q0 > 2)
            if unsure.any():
                if done is None:
                    done = np.concatenate(([0], np.cumsum(marked)))
                u0, u1 = q0[unsure], q1[unsure]
                open_[unsure] = done[u1 + 1] - done[u0] <= u1 - u0
            # a leaf's widened image is shorter than 6 r < e: at most two boxes
            leaf = open_ & ((hi - lo <= r) | (depth == N))
            met[q0[leaf]] = met[q1[leaf]] = True
            grow = open_ & ~leaf
            grown += int(np.count_nonzero(grow)) * pieces
            if nodes + grown > budget:
                raise BudgetExceeded(nodes + grown, budget, "box frontier nodes")
            if grown > _ROUND_CAP:
                raise BudgetExceeded(grown, _ROUND_CAP, "box frontier round")
            kids += part.select(grow).children(F).parts()
        parts = kids
        nodes += sum(part.size for part in parts)

    def counts(hit: np.ndarray) -> list[int]:
        q = np.flatnonzero(hit)
        out = []
        for j in range(_FINEST, 1, -1):
            g = 3 ** (_FINEST - j)
            k = (q + (g - 1) // 2) // g
            out.append(1 + int(np.count_nonzero(k[1:] != k[:-1])))
        return out

    fit = _fit(sorted(scales), counts(marked | met))
    return FrontierBoxCount(lower=tuple(counts(marked)), fit=fit, nodes=nodes)


class _RunReader:
    """Scratch of the run reader for chunks of at most size intervals,
    allocated once per level and reused for each of them: the running
    maximum and the run starts, size + 1 entries each, and the run-open
    mask."""

    def __init__(self, size: int):
        self.acc, self.starts = np.empty(size + 1), np.empty(size + 1)
        self.opens = np.empty(size, bool)

    def ascending(self, lo: np.ndarray) -> bool:
        """Whether the entries of lo, at most size, are nondecreasing."""
        return bool(np.greater_equal(lo[1:], lo[:-1], out=self.opens[:lo.size - 1]).all())

    def close(
        self, lo: np.ndarray, hi: np.ndarray, first: float, cmax: float, out: np.ndarray
    ) -> tuple[int, float, float]:
        """Read the intervals lo, hi, at most size with lo nondecreasing,
        that follow intervals whose open run starts at ``first`` and whose
        largest hi is ``cmax``.  Writes into out[:k] the lengths of the k
        runs that they close, each the largest hi before the entry that
        opens the next run less the run's first lo; returns k, the first
        lo of the run left open and the largest hi.

        When the entries that open runs are the last k, as on pairwise
        disjoint intervals, the lengths are one subtraction; else the
        opening entries' lo and running maxima are gathered by index.  A
        gather costs as much as the rest of the read, about 50 us per 2^15
        entries on a 2-vCPU x86-64 VM, and ``np.compress(..., out=)``
        more: it builds the same index array, then copies ``out``."""
        acc = self.acc[:lo.size + 1]  # acc[j]: the largest hi before entry j
        acc[0] = cmax
        acc[1:] = hi
        # a tie keeps the later value's bits, so a rising acc is its own maximum
        if not (hi[0] >= cmax and self.ascending(hi)):
            np.maximum.accumulate(acc, out=acc)
        opens = np.greater(lo, acc[:-1], out=self.opens[:lo.size])  # each closes the run before it
        k = int(np.count_nonzero(opens))
        j = lo.size - k
        if not k:
            return 0, first, acc[-1]
        if opens[j:].all():
            out[0] = acc[j] - first
            np.subtract(acc[j + 1:-1], lo[j:-1], out=out[1:k])
            return k, lo[-1], acc[-1]
        at = np.flatnonzero(opens)
        starts = self.starts[:k + 1]
        starts[0] = first
        np.take(lo, at, out=starts[1:], mode="clip")
        np.take(acc, at, out=out[:k], mode="clip")
        out[:k] -= starts[:-1]
        return k, starts[-1], acc[-1]


def _union_length(level: Level) -> float:
    """Length of the union of a level's intervals [lo, hi]: the sum, over
    the runs of overlapping intervals in order of lo, of the run's largest
    hi less its first lo.

    While lo is nondecreasing, within each chunk and across chunk edges,
    one `_RunReader` reads the chunks in turn: the first lo of the open
    run and the largest hi so far carry from one chunk to the next, and
    each run's length is written to one array that a single ``np.sum``
    adds up, as for the whole level at once.  At the first chunk out of
    order the level is joined and stably sorted by lo, and its runs are
    read the same way."""
    reader = _RunReader(min(level.size, _CHUNK))
    runs = np.empty(level.size)
    count = 0
    first = cmax = None  # first lo of the open run, largest hi so far
    last_lo = -np.inf
    for lo, hi in level:
        if not (lo[0] >= last_lo and reader.ascending(lo)):
            del runs
            lo, hi = level.join()
            order = np.argsort(lo, kind="stable")
            lo, hi = lo[order], hi[order]
            del order
            return _union_length(Level(lo, hi))
        last_lo = lo[-1]
        if first is None:  # the level's first interval opens the first run
            first, cmax = lo[0], hi[0]
        k, first, cmax = reader.close(lo, hi, first, cmax, runs[count:])
        count += k
    runs[count] = cmax - first
    return float(np.sum(runs[:count + 1]))


def lebesgue_upper_bound(
    F: Cplifs, n_max: int, budget: int = DEFAULT_BUDGET
) -> tuple[float, ...]:
    """Total length of the merged level-n cylinder union for n = 1..n_max;
    an upper bound for the attractor's measure, nonincreasing in n.

    Each level of `level_sweep` is read by `_union_length`, except on the
    systems whose first-level cylinders are pairwise disjoint
    (`check_iosc`) and whose maps are all injective.  There the cylinders
    of each level are pairwise disjoint, so the union's length is the sum
    of their lengths, and a level is the ``math.fsum`` of c u over the
    histograms of its `level_blocks`: the carried lengths, not hi - lo,
    which cancels at depth.  The blocks' hulls, sorted by lo, must be
    interior-disjoint; a level whose hulls overlap is read again from the
    sweep.  The walk holds 24 m^b bytes per level past its base level b
    where a block is made word by word, where the sweep holds 16/m bytes
    per level-n_max word and 8 bytes per run."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_budget(F.m, n_max, budget)
    if not (check_iosc(F).ok and all(f.is_injective() for f in F.maps)):
        sweep = level_sweep(F, n_max, budget)
        next(sweep)  # level 0, the invariant interval itself
        return tuple(_union_length(level) for level in sweep)
    hulls = [[] for _ in range(n_max)]
    terms = [[] for _ in range(n_max)]  # c u of each block
    for n, hull, (u, c) in level_blocks(F, 1, n_max, budget):
        hulls[n - 1].append(hull)
        terms[n - 1].append(u * c)
    bounds, redo = [], []
    for n, (level, parts) in enumerate(zip(hulls, terms), 1):
        level.sort()
        if any(b[0] < a[1] for a, b in zip(level, level[1:])):
            redo.append(n)
        bounds.append(math.fsum(np.concatenate(parts).tolist()))
    if redo:
        for n, level in enumerate(level_sweep(F, redo[-1], budget)):
            if n in redo:
                bounds[n - 1] = _union_length(level)
    return tuple(bounds)


PLATEAU_TOL = 1e-3  # relative change below which a bound plateaus, at or above which it decays
_WINDOW = 3  # last changes of the bound sequence that measure_evidence reads

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


def check_plateau_tol(plateau_tol: float) -> None:
    """ValueError unless plateau_tol is finite and > 0."""
    if not 0.0 < plateau_tol < math.inf:
        raise ValueError(f"plateau tolerance {plateau_tol} is not finite and > 0")


def check_bound_count(count: int) -> None:
    """ValueError unless ``measure_evidence`` gets enough bound values."""
    if count < _WINDOW + 1:
        raise ValueError(f"need at least {_WINDOW + 1} bound values")


def measure_evidence(
    bounds: Sequence[float], dim_estimate: float, plateau_tol: float = PLATEAU_TOL
) -> MeasureVerdict:
    """Classify the last ``_WINDOW`` relative changes of the bound
    sequence: a plateau with dimension estimate above 1 supports positive
    measure, geometric decay with estimate below 1 supports a null
    attractor.  ValueError unless plateau_tol is finite and > 0 and there
    are at least ``_WINDOW`` + 1 bounds."""
    check_plateau_tol(plateau_tol)
    b = [float(x) for x in bounds]
    check_bound_count(len(b))
    tail = b[-(_WINDOW + 1):]
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
    )

"""Method-agnostic estimators used to cross-check dimension outputs:
chaos-game sampling, box-count regression, and cylinder-union length
bounds on the Lebesgue measure of the attractor."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Cplifs, DEFAULT_BUDGET, Level, PLMap, invariant_interval, level_sweep
from .errors import InsufficientScales
from .specfile import fmt

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
        lines.extend(f"{i},{fmt(x)}" for i, x in enumerate(self.samples))
        return "\n".join(lines) + "\n"


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
) -> PointCloud:
    """Iterate x <- f_k(x) from the middle of the invariant interval, with
    k drawn by the seeded generator, keeping `count` samples after the
    burn-in.

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
        if len(w) != F.m or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative, one per map")
        w = w / w.sum()
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
    them spanning two decades, and a sample that is a number.

    N(e) counts the distinct floor(x / e), NaNs counted as one box as
    np.unique counts them.  The samples are sorted once and floored in
    full only at the finest scale; each coarser scale is counted on the
    first and last sample of each finest box, which is exact when no
    finest box spans more than two boxes of that scale (checked per scale;
    where it fails, that scale is counted on all samples)."""
    xs = cloud.samples if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    eps = sorted(float(e) for e in scales)
    if len(eps) < 4 or eps[0] <= 0:
        raise InsufficientScales("need >= 4 positive scales")
    if eps[-1] / eps[0] < 100.0:
        raise InsufficientScales("scales must span at least two decades")
    # x -> floor(x / e) is nondecreasing, so one sort serves every scale:
    # the boxes hit are the runs of equal floors.  The sort puts NaNs last.
    xs = np.sort(xs, axis=None)
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
    counts = [c + (nans > 0) for c in counts]
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


def _union_length(level: Level) -> float:
    """Length of the union of a level's intervals [lo, hi]: the sum, over
    the runs of overlapping intervals in order of lo, of the run's largest
    hi less its first lo.

    While lo is nondecreasing, within each chunk and across chunk edges,
    the chunks are read in turn: the running maximum of hi and the first
    lo of the open run carry from one chunk to the next, and each run's
    length is written to one array that a single ``np.sum`` adds up, as
    for the whole level at once.  A chunk whose hi rises is its own
    running maximum, and when every entry after the first opens a run the
    lengths are one subtraction, with no index arrays.  At the first chunk
    out of order the level is joined and stably sorted by lo, and its
    runs are read the same way."""
    runs = np.empty(level.size)
    count = 0
    first = cmax = None  # first lo of the open run, largest hi so far
    last_lo = -np.inf
    for lo, hi in level:
        if not (lo[0] >= last_lo and (lo[1:] >= lo[:-1]).all()):
            del runs
            lo, hi = level.join()
            order = np.argsort(lo, kind="stable")
            lo, hi = lo[order], hi[order]
            del order
            return _union_length(Level(lo, hi))
        last_lo = lo[-1]
        if first is None:  # the level's first interval opens the first run
            first, cmax = lo[0], hi[0]
        acc = np.empty(lo.size + 1)  # acc[j]: the largest hi before entry j
        acc[0] = cmax
        acc[1:] = hi
        # a tie keeps the later value's bits, so a rising acc is its own maximum
        if not (hi[0] >= cmax and (hi[1:] >= hi[:-1]).all()):
            np.maximum.accumulate(acc, out=acc)
        opens = lo > acc[:-1]  # entries that open a run, each closing the run before it
        if opens[1:].all():  # runs open at entries k..
            k = 0 if opens[0] else 1
            seg = runs[count:count + lo.size - k]
            np.subtract(acc[k + 1:-1], lo[k:-1], out=seg[1:])
            seg[:1] = acc[k] - first
            if seg.size:
                first = lo[-1]
        else:
            starts = np.flatnonzero(opens)
            seg = runs[count:count + starts.size]
            np.take(acc, starts, out=seg)
            seg[:1] -= first
            seg[1:] -= lo[starts[:-1]]
            if starts.size:
                first = lo[starts[-1]]
        count += seg.size
        cmax = acc[-1]
    runs[count] = cmax - first
    return float(np.sum(runs[:count + 1]))


def lebesgue_upper_bound(
    F: Cplifs, n_max: int, budget: int = DEFAULT_BUDGET
) -> tuple[float, ...]:
    """Total length of the merged level-n cylinder union for n = 1..n_max;
    an upper bound for the attractor's measure, nonincreasing in n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sweep = level_sweep(F, n_max, budget)
    next(sweep)  # level 0, the invariant interval itself
    return tuple(_union_length(level) for level in sweep)


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


def measure_evidence(
    bounds: Sequence[float], dim_estimate: float, plateau_tol: float = PLATEAU_TOL
) -> MeasureVerdict:
    """Classify the last ``_WINDOW`` relative changes of the bound
    sequence: a plateau with dimension estimate above 1 supports positive
    measure, geometric decay with estimate below 1 supports a null
    attractor.  ValueError unless plateau_tol is finite and > 0."""
    check_plateau_tol(plateau_tol)
    b = [float(x) for x in bounds]
    if len(b) < _WINDOW + 1:
        raise ValueError(f"need at least {_WINDOW + 1} bound values")
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

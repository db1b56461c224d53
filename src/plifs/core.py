"""Continuous piecewise linear contractions of the real line and the
interval combinatorics built on top of them: smallest invariant interval,
cylinder intervals, separation and smallness checks, and breaking-point
diagnostics."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import AmbiguousContainment, BudgetExceeded, ConvergenceFailure, NonContractive

Interval = tuple[float, float]
Word = tuple[int, ...]

#: Hard cap on enumerated cylinder intervals unless overridden.
DEFAULT_BUDGET = 2**26

#: Base absolute tolerance for geometric predicates, scaled by the
#: invariant-interval length where appropriate.
GEOM_TOL = 1e-12


def word_str(w: Word) -> str:
    """Serialize a word as a 1-based digit string, e.g. (1, 2, 1) -> '121'."""
    return "".join(str(s) for s in w)


@dataclass(frozen=True)
class PLMap:
    """One continuous piecewise linear contraction.

    The map is determined by its breaking points, the slope on each
    linearity interval, and its value at zero.  Intercepts of the affine
    pieces are reconstructed from ``tau`` by continuity, so a PLMap cannot
    represent a discontinuous function.
    """

    breaks: tuple[float, ...]
    slopes: tuple[float, ...]
    tau: float
    _intercepts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        slopes = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "tau", float(self.tau))
        for what, vals in (("break", breaks), ("slope", slopes), ("tau", (self.tau,))):
            bad = [v for v in vals if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{what} {bad[0]} is not finite")
        if len(slopes) != len(breaks) + 1:
            raise ValueError(
                f"need {len(breaks) + 1} slopes for {len(breaks)} breaks, got {len(slopes)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breaking points must be strictly increasing")
        for s in slopes:
            if s == 0.0:
                raise ValueError("zero slope is not allowed")
            if abs(s) >= 1.0:
                raise NonContractive(f"slope {s} has |slope| >= 1")
        if any(s1 == s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("adjacent linearity intervals must have distinct slopes")
        object.__setattr__(self, "_intercepts", self._build_intercepts())

    @cached_property
    def _exact_intercepts(self) -> tuple[Fraction, ...]:
        """The intercepts in rational arithmetic: those of the exact map
        that the float parameters define, computed on first use."""
        return self._build_intercepts(Fraction)

    def _build_intercepts(self, num=float) -> tuple:
        # piece i covers (breaks[i-1], breaks[i]); anchor the piece holding 0
        # at tau and propagate continuity across the breaks both ways, in
        # the arithmetic of ``num`` (Fraction gives the exact intercepts).
        n = len(self.slopes)
        s, b = [num(x) for x in self.slopes], [num(x) for x in self.breaks]
        c = [num(0)] * n
        j = bisect_right(self.breaks, 0.0)
        c[j] = num(self.tau)
        for i in range(j, n - 1):
            c[i + 1] = c[i] + (s[i] - s[i + 1]) * b[i]
        for i in range(j - 1, -1, -1):
            c[i] = c[i + 1] + (s[i + 1] - s[i]) * b[i]
        return tuple(c)

    @property
    def pieces(self) -> int:
        return len(self.slopes)

    def piece_index(self, x: float) -> int:
        return bisect_right(self.breaks, x)

    def piece_domain(self, i: int) -> Interval:
        lo = self.breaks[i - 1] if i > 0 else -math.inf
        hi = self.breaks[i] if i < len(self.breaks) else math.inf
        return (lo, hi)

    def piece_affine(self, i: int) -> "AffineMap":
        return AffineMap(self.slopes[i], self._intercepts[i])

    def __call__(self, x: float) -> float:
        i = self.piece_index(x)
        return self.slopes[i] * x + self._intercepts[i]

    def is_injective(self) -> bool:
        return all(s > 0 for s in self.slopes) or all(s < 0 for s in self.slopes)

    @property
    def max_ratio(self) -> float:
        return max(abs(s) for s in self.slopes)

    @property
    def min_ratio(self) -> float:
        return min(abs(s) for s in self.slopes)

    def fixed_point(self) -> float:
        """The unique fixed point (the map is a global contraction): each
        piece's candidate c / (1 - s), chosen by ``_fixed_point`` with its
        domain padded by 1e-12 (1 + |x|)."""
        pieces = [(self.piece_domain(i), self.piece_affine(i)) for i in range(self.pieces)]
        return _fixed_point(pieces, self, lambda x: 1e-12 * (1.0 + abs(x)))


@dataclass(frozen=True)
class AffineMap:
    """A similarity x -> ratio*x + offset."""

    ratio: float
    offset: float

    def __call__(self, x: float) -> float:
        return self.ratio * x + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self o inner."""
        return AffineMap(self.ratio * inner.ratio, self.ratio * inner.offset + self.offset)

    def image(self, iv: Interval) -> Interval:
        a, b = self(iv[0]), self(iv[1])
        return (a, b) if a <= b else (b, a)


Branch = tuple[Interval, AffineMap]  # a domain and the similarity a composition equals there


@dataclass(frozen=True)
class Cplifs:
    """An ordered, nonempty list of piecewise linear contractions."""

    maps: tuple[PLMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValueError("a system needs at least one map")

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def type_vector(self) -> tuple[int, ...]:
        return tuple(len(f.breaks) for f in self.maps)

    @property
    def max_ratio(self) -> float:
        return max(f.max_ratio for f in self.maps)

    @property
    def min_ratio(self) -> float:
        return min(f.min_ratio for f in self.maps)

    def map(self, k: int) -> PLMap:
        """1-based map access, matching symbolic words."""
        return self.maps[k - 1]

    def breaking_points(self) -> tuple[tuple[int, float], ...]:
        """All (map_index, point) pairs, 1-based map indices."""
        return tuple((k, b) for k, f in enumerate(self.maps, 1) for b in f.breaks)

    def invariant_interval(self) -> Interval:
        return invariant_interval(self)

    def geom_tol(self) -> float:
        lo, hi = self.invariant_interval()
        return GEOM_TOL * max(1.0, hi - lo)


def image_interval(f: PLMap, iv: Interval) -> Interval:
    """Exact image f([a, b]): extrema occur at the endpoints or at
    breaking points interior to the interval."""
    a, b = iv
    if b < a:
        raise ValueError("empty interval")
    vals = [f(a), f(b)]
    vals.extend(f(c) for c in f.breaks if a < c < b)
    return (min(vals), max(vals))


@lru_cache(maxsize=512)
def invariant_interval(F: Cplifs) -> Interval:
    """Smallest compact interval J with f_k(J) contained in J for all k.

    Seeded with the hull of the maps' fixed points (which every invariant
    interval contains) and grown by the joint image until stable; the
    growth step preserves being a subset of any invariant interval, so the
    limit is the minimal one.
    """
    pts = [f.fixed_point() for f in F.maps]
    lo, hi = min(pts), max(pts)
    for _ in range(10000):
        nlo, nhi = lo, hi
        for f in F.maps:
            a, b = image_interval(f, (lo, hi))
            nlo, nhi = min(nlo, a), max(nhi, b)
        if nlo >= lo - 1e-14 and nhi <= hi + 1e-14:
            return (nlo, nhi)
        lo, hi = nlo, nhi
    raise ConvergenceFailure("invariant interval iteration did not stabilize")


# ---------------------------------------------------------------------------
# cylinder intervals


def word_index(w: Word, m: int) -> int:
    """Base-m index of a word over {1..m}, first symbol most significant;
    indices run in the lexicographic order of the words."""
    i = 0
    for k in w:
        i = i * m + k - 1
    return i


def index_word(i: int, m: int, n: int) -> Word:
    """The length-n word whose ``word_index`` is i."""
    w = [0] * n
    for j in range(n - 1, -1, -1):
        i, r = divmod(i, m)
        w[j] = r + 1
    return tuple(w)


def _check_budget(m: int, n: int, budget: int) -> int:
    count = m**n
    if count > budget:
        raise BudgetExceeded(count, budget)
    return count


def _image_into(
    f: PLMap, lo: np.ndarray, hi: np.ndarray, out_lo: np.ndarray, out_hi: np.ndarray
) -> None:
    """Write the images f([lo, hi]) of the intervals [lo, hi] (lo <= hi)
    into out_lo, out_hi, which must not overlap the inputs.

    Each endpoint gets the IEEE operations of ``PLMap.__call__``,
    slope * x + intercept on the piece ``bisect_right`` picks: piece 0
    first, then piece j over the entries at or past break j, breaks in
    increasing order.  The image is the min and max of the two endpoint
    values, folded with f(b) for each break b strictly inside [lo, hi].
    Scratch: one float and one bool array of the input's size.

    When the smallest lo and the largest hi lie in one piece, no break is
    inside any interval and monotone rounding keeps each pair of endpoint
    values in order, so they are written straight into out_lo, out_hi
    (swapped for a negative slope), the same bits with no scratch.  But
    min and max both give a tie the second value's bits, and two zeros of
    opposite signs tie; only a piece with intercept -0.0 yields -0.0, so
    such a piece takes the full path."""
    p = q = 0
    if f.breaks:
        p, q = bisect_right(f.breaks, lo.min()), bisect_right(f.breaks, hi.max())
    s, c = f.slopes, f._intercepts
    if p == q and (c[p] or math.copysign(1.0, c[p]) > 0):  # one piece, intercept not -0.0
        for x, y in ((lo, out_lo), (hi, out_hi)) if s[p] > 0 else ((hi, out_lo), (lo, out_hi)):
            np.multiply(x, s[p], out=y)
            np.add(y, c[p], out=y)
        return
    ya, mask = np.empty_like(lo), np.empty(lo.shape, bool)
    for x, y in ((lo, ya), (hi, out_hi)):
        np.multiply(x, s[0], out=y)
        np.add(y, c[0], out=y)
        for j, b in enumerate(f.breaks, 1):
            np.greater_equal(x, b, out=mask)
            np.multiply(x, s[j], out=y, where=mask)
            np.add(y, c[j], out=y, where=mask)
    np.minimum(ya, out_hi, out=out_lo)
    np.maximum(ya, out_hi, out=out_hi)
    for b in f.breaks:
        inside = np.less(lo, b, out=mask)
        inside &= hi > b
        if inside.any():
            fb = f(b)
            np.minimum(out_lo, fb, out=out_lo, where=inside)
            np.maximum(out_hi, fb, out=out_hi, where=inside)


#: Most words in one chunk of a level: 2^15 endpoint pairs, 512 KiB, sit
#: in cache with their scratch.  Over the six deep-sweep ops (2-vCPU
#: x86-64 VM, numpy 2.4) 2^15 to 2^17 ran about equally fast and 2^13
#: slower; of those, 2^15 holds the least memory in chunks.
_CHUNK = 2**15

Chunk = tuple[np.ndarray, np.ndarray]


class Level:
    """One level of cylinder intervals in lexicographic word order, read as
    a re-iterable sequence of (lo, hi) chunks of at most ``_CHUNK`` words;
    ``size`` is the number of words.

    With no maps the level is the arrays lo, hi: its chunks are views of
    them and ``join()`` returns them, uncopied.  With maps it is their
    images of the parent level lo, hi, map after map, each pass imaging the
    parent's ``_CHUNK``-word slices afresh; ``join()`` writes the images
    into one preallocated pair of arrays."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, maps: tuple[PLMap, ...] = ()):
        self.lo, self.hi, self.maps = lo, hi, maps
        self.size = lo.size * len(maps) if maps else lo.size

    def _slices(self) -> Iterator[Chunk]:
        for i in range(0, self.lo.size, _CHUNK):
            yield self.lo[i:i + _CHUNK], self.hi[i:i + _CHUNK]

    def __iter__(self) -> Iterator[Chunk]:
        if not self.maps:
            yield from self._slices()
            return
        for f in self.maps:
            for lo, hi in self._slices():
                out = np.empty_like(lo), np.empty_like(hi)
                _image_into(f, lo, hi, *out)
                yield out

    def join(self) -> Chunk:
        """The whole level as one pair of arrays."""
        if not self.maps:
            return self.lo, self.hi
        out_lo, out_hi = np.empty(self.size), np.empty(self.size)
        j = 0  # where the next slice's images start in the level
        for f in self.maps:
            for lo, hi in self._slices():
                _image_into(f, lo, hi, out_lo[j:j + lo.size], out_hi[j:j + lo.size])
                j += lo.size
        return out_lo, out_hi


def level_sweep(F: Cplifs, n_max: int, budget: int = DEFAULT_BUDGET) -> Iterator[Level]:
    """The level-n cylinder intervals as a `Level` for n = 0..n_max, each
    in lexicographic word order and built from the one before it; level 0
    is the invariant interval.  The budget is checked once, for level
    n_max, before the first level is built.

    A level is built when the consumer asks for it.  Levels below n_max
    are held as arrays (``Level(lo, hi)``), so their chunks are views; the
    sweep never writes them again, so a consumer may keep them but must not
    write them.  Level n_max is never allocated: it is
    ``Level(lo, hi, F.maps)`` over level n_max - 1, and each pass over its
    chunks computes them afresh.  So the peak while level n < n_max is
    built is level n - 1, level n and one chunk's scratch, 16/m + 16 bytes
    per level-n word and 320 KiB, and a pass over level n_max holds
    level n_max - 1 and one chunk with its scratch: 16/m bytes per
    level-n_max word."""
    if n_max < 0:
        raise ValueError("level must be >= 0")
    _check_budget(F.m, n_max, budget)
    a, b = invariant_interval(F)
    lo, hi = np.array([a]), np.array([b])
    yield Level(lo, hi)
    for _ in range(1, n_max):
        lo, hi = Level(lo, hi, F.maps).join()
        yield Level(lo, hi)
    if n_max:
        yield Level(lo, hi, F.maps)


Histogram = tuple[np.ndarray, np.ndarray]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values."""
    new = np.empty(values.size, bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def _histogram(values: np.ndarray) -> Histogram:
    """The distinct values of a sorted array and how often each occurs."""
    first = _run_starts(values)
    counts = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = values.size - first[-1:]
    return values[first], counts


def _carry_into(
    f: PLMap, lo: np.ndarray, hi: np.ndarray, length: np.ndarray,
    out_lo: np.ndarray, out_hi: np.ndarray, out: np.ndarray,
) -> None:
    """Write into out the carried lengths of the images f([lo, hi]) of
    intervals whose own carried lengths are ``length``; out_lo, out_hi hold
    the images, as `_image_into` writes them.

    An interval with no break of f strictly inside lies in one closed
    piece, the one ``bisect_left`` picks for its hi, and its image is
    |slope| times its length long: one multiply, exact but for its
    rounding, where hi - lo of the image would cancel.  An interval that a
    break cuts gets, for an injective f, the sum, over the pieces left to
    right, of |slope| times the length of its part in the piece; for a
    folded f, the image's max less its min."""
    a = [abs(s) for s in f.slopes]
    p = bisect_left(f.breaks, lo.min())
    if p == bisect_left(f.breaks, hi.max()):  # no break in [lo, hi)
        np.multiply(length, a[p], out=out)
        return
    np.multiply(length, np.take(a, np.searchsorted(f.breaks, hi)), out=out)
    cut = np.zeros(lo.shape, bool)
    for b in f.breaks:
        cut |= (lo < b) & (hi > b)
    at = np.flatnonzero(cut)
    if not at.size:
        return
    if not f.is_injective():
        out[at] = out_hi[at] - out_lo[at]
        return
    x, y, acc = lo[at], hi[at], np.zeros(at.size)
    for s, left, right in zip(a, (-math.inf, *f.breaks), (*f.breaks, math.inf)):
        acc += s * np.maximum(np.minimum(y, right) - np.maximum(x, left), 0.0)
    out[at] = acc


def carried_levels(
    F: Cplifs, n_max: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Levels 0..n_max of `level_sweep`, joined, each with a third array:
    the carried length of each cylinder, in word order.  Level 0 has
    b - a of the invariant interval [a, b]; each map's part of level n
    has `_carry_into` of level n - 1.  A carried length is within a few
    roundings per level of the exact cylinder's relative to its length,
    where hi - lo is off by the endpoints' rounding absolute."""
    for n, level in enumerate(level_sweep(F, n_max, budget)):
        lo, hi = level.join()
        if n:
            length = np.empty(lo.size)
            for k, f in enumerate(F.maps):
                part = slice(k * plo.size, (k + 1) * plo.size)
                _carry_into(f, plo, phi, plen, lo[part], hi[part], length[part])
        else:
            length = hi - lo
        yield lo, hi, length
        plo, phi, plen = lo, hi, length


class _Block:
    """One block of the walk at level n: its hull lo, hi, the histogram
    u, c of its carried lengths, and its word arrays (lo, hi, length) once
    made; else the map f and its piece p that make it from its parent."""

    __slots__ = ("n", "lo", "hi", "u", "c", "words", "parent", "f", "p")

    def __init__(self, n, lo, hi, hist, words=None, parent=None, f=None, p=None):
        self.n, self.lo, self.hi, (self.u, self.c) = n, lo, hi, hist
        self.words, self.parent, self.f, self.p = words, parent, f, p


class _Walk:
    """The walk's word arrays past the base level: one (lo, hi, length)
    buffer of size words per level, allocated when a block of that level
    is first made word by word."""

    def __init__(self, base: int, size: int, depth: int):
        self.base, self.size, self.buffers = base, size, [None] * depth

    def buffer(self, n: int) -> np.ndarray:
        i = n - self.base - 1
        if self.buffers[i] is None:
            self.buffers[i] = np.empty((3, self.size))
        return self.buffers[i]


def _words(block: _Block, walk: _Walk) -> tuple[np.ndarray, ...]:
    """The word arrays of a block: made from those of its nearest ancestor
    that has them, one map after another, into each level's buffer."""
    if block.words is None:
        lo, hi, length = _words(block.parent, walk)
        out = walk.buffer(block.n)
        _image_into(block.f, lo, hi, out[0], out[1])
        np.multiply(length, abs(block.f.slopes[block.p]), out=out[2])
        block.words = tuple(out)
    return block.words


def _child(f: PLMap, parent: _Block, walk: _Walk) -> _Block:
    """f's image of the block parent.

    When no break of f lies in [lo, hi) of the parent's hull, every
    interval of the block lies in one closed piece p and its length is
    |s_p| times its parent's: the child is the histogram scaled, with
    neighbours that round to equal merged, the bits that scaling each
    word's length gives.  Its hull is piece p's formula at the parent
    hull's ends, and f itself there (another piece at a break): each
    formula is monotone under rounding, so that encloses every word's
    image, and is it unless an end is a break.  Otherwise the child is
    made word by word from the parent's words, and its lengths sorted."""
    lo, hi = parent.lo, parent.hi
    p = bisect_left(f.breaks, lo)
    if p == bisect_left(f.breaks, hi):
        s, c = f.slopes[p], f._intercepts[p]
        ends = [s * lo + c, s * hi + c]
        if p < len(f.breaks) and f.breaks[p] == hi:
            ends.append(f(hi))
        u, counts = parent.u * abs(s), parent.c
        if (u[1:] == u[:-1]).any():
            first = _run_starts(u)
            u, counts = u[first], np.add.reduceat(counts, first)
        return _Block(parent.n + 1, min(ends), max(ends), (u, counts), parent=parent, f=f, p=p)
    lo, hi, length = _words(parent, walk)
    out_lo, out_hi, out = walk.buffer(parent.n + 1)
    _image_into(f, lo, hi, out_lo, out_hi)
    _carry_into(f, lo, hi, length, out_lo, out_hi, out)
    return _Block(parent.n + 1, float(out_lo.min()), float(out_hi.max()),
                  _histogram(np.sort(out)), words=(out_lo, out_hi, out))


Block = tuple[int, Interval, Histogram]


def level_blocks(
    F: Cplifs, n_min: int, n_max: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Block]:
    """The cylinders of levels n_min..n_max as (n, hull, histogram)
    blocks, each word of those levels in one block of its level: hull the
    least lo and largest hi of the block's intervals (or an enclosure of
    them), histogram the sorted distinct carried lengths u of its words
    and their integer counts c; for consumers, such as the partition sums
    and the bounds of separated systems, that need only the multiset of a
    level's lengths.  The budget is checked once, for level n_max, before
    any level is built.

    Levels up to the base level b, the deepest with m^b <= ``_CHUNK``
    words (or n_max), are `carried_levels`, one block each.  Past b the
    walk is depth first: a block of level n + 1 is one map's image of a
    block of level n, yielded before its own images are made, so a
    level's blocks come in depth-first, not word, order.  A block that
    lies in one closed piece of the map, as almost all do, is made from
    its parent's histogram alone (`_child`); only one that a break cuts
    is made word by word, from the word arrays of its nearest ancestor
    that has them, imaged map after map as the sweep images them, so
    every endpoint keeps the sweep's bits.  The histograms are those of
    the carried lengths, word by word, bit for bit.  The walk holds
    levels b - 1 and b, and 24 m^b bytes for each level past b where a
    block is made word by word; the histograms are never written."""
    if not 0 <= n_min <= n_max:
        raise ValueError("need 0 <= n_min <= n_max")
    _check_budget(F.m, n_max, budget)
    base = 0
    while base < n_max and F.m ** (base + 1) <= _CHUNK:
        base += 1
    for n, (lo, hi, length) in enumerate(carried_levels(F, base, budget)):
        if n >= n_min or n == base:
            hull, hist = (float(lo.min()), float(hi.max())), _histogram(np.sort(length))
        if n >= n_min:
            yield n, hull, hist
    if base < n_max:
        root = _Block(base, *hull, hist, words=(lo, hi, length))
        yield from _descend(F.maps, root, n_min, n_max, _Walk(base, lo.size, n_max - base))


def _descend(
    maps: tuple[PLMap, ...], root: _Block, n_min: int, n_max: int, walk: _Walk
) -> Iterator[Block]:
    """The blocks below the block root, depth first, down to level n_max:
    a stack of (block, index of its next map) pairs, the blocks of the
    current path.  A block refers only to its parent, so nothing forms a
    reference cycle that would keep the buffers until the cyclic
    collector ran."""
    stack = [(root, 0)]
    while stack:
        parent, k = stack.pop()
        if k == len(maps):
            continue
        stack.append((parent, k + 1))
        child = _child(maps[k], parent, walk)
        if child.n >= n_min:
            yield child.n, (child.lo, child.hi), (child.u, child.c)
        if child.n < n_max:
            stack.append((child, 0))


def cylinders(F: Cplifs, n: int, budget: int = DEFAULT_BUDGET) -> Level:
    """The level-n cylinder intervals I_w = f_{w_1} o ... o f_{w_n} (I^F):
    the last level of ``level_sweep(F, n)``, for n >= 1 never allocated
    whole.  The interval of word w is entry ``word_index(w, F.m)``."""
    for level in level_sweep(F, n, budget):
        pass
    return level


def cylinder_arrays(
    F: Cplifs, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of all level-n cylinder intervals in lexicographic
    word order (first symbol most significant): ``cylinders(F, n)``
    joined, each map's images of level n - 1 written chunk by chunk
    straight into one preallocated pair of arrays."""
    return cylinders(F, n, budget).join()


def cylinder_interval(F: Cplifs, w: Word) -> Interval:
    """Single cylinder interval by right-to-left fold (no enumeration)."""
    iv = invariant_interval(F)
    for k in w[::-1]:
        iv = image_interval(F.map(k), iv)
    return iv


# ---------------------------------------------------------------------------
# rounding-aware cylinders
#
# The exact system is the one the float parameters (breaks, slopes, tau)
# define; its intercepts are rationals that ``PLMap._intercepts`` rounds.


def _exact_image(f: PLMap, lo: Fraction, hi: Fraction):
    """f([lo, hi]) in rational arithmetic."""
    c = f._exact_intercepts

    def at(x):
        i = bisect_right(f.breaks, x)
        return Fraction(f.slopes[i]) * x + c[i]

    vals = [at(lo), at(hi)] + [at(Fraction(b)) for b in f.breaks if lo < b < hi]
    return min(vals), max(vals)


@lru_cache(maxsize=512)
def _invariant_interval_error(F: Cplifs) -> Fraction:
    """Bound on the distance of each computed endpoint of the invariant
    interval from the exact one: J is the fixed point of the joint image
    T(J) = hull of the f_k(J), a contraction with ratio r = F.max_ratio in
    the endpoints, so |J~ - J| <= |T(J~) - J~| / (1 - r)."""
    a, b = map(Fraction, invariant_interval(F))
    images = [_exact_image(f, a, b) for f in F.maps]
    d = max(abs(min(lo for lo, _ in images) - a), abs(max(hi for _, hi in images) - b))
    return d / (1 - Fraction(F.max_ratio))


def _intercept_error(F: Cplifs) -> Fraction:
    """The largest rounding of an intercept: |float - exact| over every
    piece of every map."""
    return max(abs(Fraction(x) - y)
               for f in F.maps for x, y in zip(f._intercepts, f._exact_intercepts))


def _up(x: Fraction) -> float:
    """The least float >= x."""
    y = float(x)
    return y if y >= x else math.nextafter(y, math.inf)


@lru_cache(maxsize=512)
def sweep_error(F: Cplifs) -> float:
    """Bound E on |computed - exact| for every endpoint ``level_sweep``
    yields, at every level.

    Level 0 is off by at most e0 (``_invariant_interval_error``). A step
    y = fl(fl(s x) + c~) is off by at most r e + c_err + u (|s x| + |y|),
    with r = F.max_ratio, c_err the largest intercept rounding, u = 2^-53
    and |x|, |y| <= M + e0 + E (M the larger endpoint modulus of the
    computed invariant interval). E solves E = r E + c_err + u (1 + r)
    (M + e0 + E) + (1 - r) e0, which keeps the bound at every level.
    """
    a, b = invariant_interval(F)
    u, r = Fraction(1, 2**53), Fraction(F.max_ratio)
    e0 = _invariant_interval_error(F)
    c_err = _intercept_error(F)
    M = Fraction(max(abs(a), abs(b)))
    den = 1 - r - u * (1 + r)  # not positive only for r within 2u of 1: no bound
    return _up((c_err + u * (1 + r) * (M + e0) + (1 - r) * e0) / den) if den > 0 else math.inf


def cylinder_enclosure(
    F: Cplifs, w: Word
) -> tuple[tuple[Fraction, Fraction] | None, tuple[Fraction, Fraction]]:
    """Rational intervals (inner, outer) with inner inside the exact
    cylinder I_w and I_w inside outer: f_w, in rational arithmetic, of the
    computed invariant interval shrunk and grown by its error bound; inner
    is None when the shrunk interval is empty."""
    e0 = _invariant_interval_error(F)
    a, b = map(Fraction, invariant_interval(F))
    inner, outer = ((a + e0, b - e0) if b - a >= 2 * e0 else None), (a - e0, b + e0)
    for k in reversed(w):
        f = F.map(k)
        outer = _exact_image(f, *outer)
        if inner is not None:
            inner = _exact_image(f, *inner)
    return inner, outer


# ---------------------------------------------------------------------------
# refinement frontier


@lru_cache(maxsize=512)
def _piece_table(F: Cplifs) -> tuple[np.ndarray, ...]:
    """Slope, intercept and domain clipped to the invariant interval of
    every linearity piece of every map, map by map and each map's pieces
    left to right."""
    a, b = invariant_interval(F)
    rows = [(f.slopes[i], f._intercepts[i], *f.piece_domain(i))
            for f in F.maps for i in range(f.pieces)]
    s, c, plo, phi = (np.array(col) for col in zip(*rows))
    return s, c, np.maximum(plo, a), np.minimum(phi, b)


@dataclass(frozen=True, eq=False)
class Frontier:
    """Branches of compositions f_w, one per entry: on the domain
    [dlo, dhi] inside the invariant interval J, f_w is the similarity
    x -> ratio x + offset.  The branches of all words of one length tile J
    (with zero-width domains at some cuts), so their images cover the
    level's cylinders."""

    dlo: np.ndarray
    dhi: np.ndarray
    ratio: np.ndarray
    offset: np.ndarray

    @classmethod
    def root(cls, F: Cplifs) -> "Frontier":
        """The empty word: J and the identity."""
        a, b = invariant_interval(F)
        return cls(np.array([a]), np.array([b]), np.ones(1), np.zeros(1))

    @property
    def size(self) -> int:
        return self.dlo.size

    def image(self) -> tuple[np.ndarray, np.ndarray]:
        """The images [lo, hi] of the domains."""
        ya, yb = self.ratio * self.dlo + self.offset, self.ratio * self.dhi + self.offset
        return np.minimum(ya, yb), np.maximum(ya, yb)

    def select(self, keep: np.ndarray) -> "Frontier":
        return Frontier(self.dlo[keep], self.dhi[keep], self.ratio[keep], self.offset[keep])

    def parts(self) -> list["Frontier"]:
        """Slices of at most ``_CHUNK`` nodes, in order."""
        return [self.select(slice(i, i + _CHUNK)) for i in range(0, self.size, _CHUNK)]

    def attractor_images(self, F: Cplifs) -> np.ndarray:
        """f_w(p) for each point p of ``_attractor_points`` and each node
        whose domain holds it: attractor points, at every depth."""
        p = _attractor_points(F)[0]
        node, k = np.nonzero((self.dlo[:, None] <= p) & (p <= self.dhi[:, None]))
        return self.ratio[node] * p[k] + self.offset[node]

    def children(self, F: Cplifs) -> "Frontier":
        """Every branch of every f_{wk}, node by node: for the branch
        (D, A) of f_w and each piece (P, B) of each f_k, the domain
        P ∩ B^-1(D) within J, when not empty, with the similarity A o B.
        Callers pass at most ``_CHUNK`` nodes (``parts``), so the scratch
        of a node times a piece stays bounded."""
        s, c, plo, phi = _piece_table(F)
        t0, t1 = (self.dlo[:, None] - c) / s, (self.dhi[:, None] - c) / s
        lo = np.maximum(np.minimum(t0, t1), plo)
        hi = np.minimum(np.maximum(t0, t1), phi)
        keep = lo <= hi
        node, piece = np.nonzero(keep)
        ratio = self.ratio[node]
        return Frontier(lo[keep], hi[keep], ratio * s[piece], ratio * c[piece] + self.offset[node])


@lru_cache(maxsize=512)
def _attractor_points(F: Cplifs) -> tuple[np.ndarray, Fraction]:
    """Each map's fixed point p_k and its images f_j(p_k), attractor points
    all, rounded and moved into the computed J, and the largest distance
    from the exact points.  p_k is the piece candidate c / (1 - s) of the
    exact map that lies in its piece's closed domain (one does: the map is
    a contraction)."""
    a, b = invariant_interval(F)
    fixed = [next(p for i, c in enumerate(f._exact_intercepts)
                  for p in [c / (1 - Fraction(f.slopes[i]))]
                  if f.piece_domain(i)[0] <= p <= f.piece_domain(i)[1])
             for f in F.maps]
    exact = sorted(set(fixed + [_exact_image(f, p, p)[0] for f in F.maps for p in fixed]))
    pts = [min(max(float(p), a), b) for p in exact]
    return np.array(pts), max(abs(Fraction(x) - p) for x, p in zip(pts, exact))


def frontier_error(F: Cplifs, depth: int) -> float:
    """Bound r on |computed - exact| for the values that a frontier node of
    depth <= ``depth`` gives: its image ends ``image()`` against the exact
    f_w at the exact ends of its domain, and ``attractor_images()``
    against the exact attractor points f_w(p).

    With u = 2^-53, N = depth, g = N u / (1 - N u) >= (1 + u)^N - 1,
    q = F.max_ratio, M the larger endpoint modulus of the computed J, C the
    largest float intercept modulus, c_err the largest intercept rounding
    and e0 the error of J's ends (``_invariant_interval_error``), in the
    exact arithmetic of ``sweep_error`` (no underflow assumed):
    a ratio, a product of N slopes, is within g |ratio| of the exact one;
    an offset fl(fl(ratio c) + offset) gains (1 + u)(g C + c_err +
    u (1 + g) C) q^(n-1) at level n and u B, B = (C + c_err) / (1 - q)
    bounding every exact offset, so it is within
    E_O = (1 + g) (((1 + u)(g C + c_err + u (1 + g) C)) / (1 - q) + N u B);
    a domain end is either a break, exact, or J's end, within e0, or
    fl(fl(d - c) / s), whose error times the ratio is the parent's plus
    (c_err + (2u + u^2)(M + C)) q^(n-1), so in image space it is within
    E_D = e0 + (c_err + (2u + u^2)(M + C)) / (1 - q); and
    fl(fl(ratio x) + offset) at a float x in J is within
    E_V = (1 + u)((g + u (1 + g)) M + E_O) + u (M + B) of ratio x + offset.
    An image end is then within E_V + E_D.  An attractor image is within
    E_V + 2 E_D + e_p, e_p the rounding of the point (f_w is
    1-Lipschitz): 2 E_D because a point of the computed domain outside the
    exact one lies within E_D / |ratio| of the cut that the node shares
    with its neighbour, where both similarities agree.  r is the larger."""
    a, b = invariant_interval(F)
    u, q, N = Fraction(1, 2**53), Fraction(F.max_ratio), depth
    g = N * u / (1 - N * u)
    M = Fraction(max(abs(a), abs(b)))
    C = Fraction(float(np.abs(_piece_table(F)[1]).max()))
    c_err, e0, e_p = _intercept_error(F), _invariant_interval_error(F), _attractor_points(F)[1]
    B = (C + c_err) / (1 - q)
    E_O = (1 + g) * ((1 + u) * (g * C + c_err + u * (1 + g) * C) / (1 - q) + N * u * B)
    E_D = e0 + (c_err + (2 * u + u * u) * (M + C)) / (1 - q)
    E_V = (1 + u) * ((g + u * (1 + g)) * M + E_O) + u * (M + B)
    return _up(E_V + 2 * E_D + e_p)


# ---------------------------------------------------------------------------
# structural conditions


@dataclass(frozen=True)
class IoscReport:
    """Pairwise disjointness verdict for the first-level cylinders."""

    ok: bool
    min_gap: float
    first_cylinders: tuple[Interval, ...]
    touching_pairs: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def check_iosc(F: Cplifs) -> IoscReport:
    """True iff the closed first-cylinder intervals are pairwise disjoint
    (shared endpoints count as overlap).  The reported gap is the smallest
    pairwise distance between cylinders."""
    iv = invariant_interval(F)
    cyl = tuple(image_interval(f, iv) for f in F.maps)
    min_gap = math.inf
    bad = []
    for i in range(len(cyl)):
        for j in range(i + 1, len(cyl)):
            (a1, b1), (a2, b2) = cyl[i], cyl[j]
            gap = max(a2 - b1, a1 - b2)
            min_gap = min(min_gap, gap)
            if gap <= 0.0:
                bad.append((i + 1, j + 1))
    return IoscReport(
        ok=not bad, min_gap=min_gap, first_cylinders=cyl, touching_pairs=tuple(bad)
    )


@dataclass(frozen=True)
class MapSmallness:
    map_index: int
    rho: float
    injective: bool
    bound: float
    ok: bool


@dataclass(frozen=True)
class SmallnessReport:
    ok: bool
    sum_rho: float
    sum_ok: bool
    per_map: tuple[MapSmallness, ...]

    def __bool__(self) -> bool:
        return self.ok

    def failing_clauses(self) -> tuple[str, ...]:
        out = []
        if not self.sum_ok:
            out.append("a")
        for e in self.per_map:
            if not e.ok:
                out.append(f"b-{'i' if e.injective else 'ii'}:map {e.map_index}")
        return tuple(out)


def check_small(F: Cplifs) -> SmallnessReport:
    """Smallness: the maximal ratios must sum below 1, and each map's
    maximal ratio must stay below 1/2 (injective map) or below
    (1 - rho_max)/2 (non-injective map)."""
    rhos = [f.max_ratio for f in F.maps]
    rho_max = max(rhos)
    sum_ok = sum(rhos) < 1.0
    per_map = []
    for k, f in enumerate(F.maps, 1):
        inj = f.is_injective()
        bound = 0.5 if inj else (1.0 - rho_max) / 2.0
        per_map.append(
            MapSmallness(map_index=k, rho=rhos[k - 1], injective=inj,
                         bound=bound, ok=rhos[k - 1] < bound)
        )
    ok = sum_ok and all(e.ok for e in per_map)
    return SmallnessReport(ok=ok, sum_rho=sum(rhos), sum_ok=sum_ok, per_map=tuple(per_map))


def generated_ifs(F: Cplifs) -> tuple[AffineMap, ...]:
    """The self-similar system of all affine pieces of all maps: map by
    map, and each map's pieces left to right."""
    return tuple(f.piece_affine(i) for f in F.maps for i in range(f.pieces))


# ---------------------------------------------------------------------------
# breaking-point diagnostics

CERTIFIED_OFF_ATTRACTOR = "CERTIFIED_OFF_ATTRACTOR"
UNDECIDED_AT_DEPTH = "UNDECIDED_AT_DEPTH"


@dataclass(frozen=True)
class BreakStatus:
    map_index: int
    point: float
    status: str
    depth: int
    witnesses: tuple[Word, ...]


def _containing_words(
    F: Cplifs, x: float, depth: int, budget: int, prefix: Word = ()
) -> list[Word]:
    """Words extending ``prefix`` by `depth` symbols whose cylinder,
    widened by ``F.geom_tol()``, contains x, found by descending only
    through containing prefixes (I_{w k} lies inside I_w).  An empty result
    certifies that x avoids the attractor piece of ``prefix``."""
    tol = F.geom_tol()
    a, b = cylinder_interval(F, prefix)
    frontier = [prefix] if a - tol <= x <= b + tol else []
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for k in range(1, F.m + 1):
                ww = w + (k,)
                a, b = cylinder_interval(F, ww)
                if a - tol <= x <= b + tol:
                    nxt.append(ww)
        if len(nxt) * F.m > budget:
            raise BudgetExceeded(len(nxt) * F.m, budget, "containment frontier")
        frontier = nxt
        if not frontier:
            break
    return frontier


def regularity_diagnostic(
    F: Cplifs, depth: int, budget: int = DEFAULT_BUDGET
) -> tuple[BreakStatus, ...]:
    """Per breaking point: certified off the attractor when it avoids the
    level-`depth` cylinder union (which contains the attractor), otherwise
    undecided, with the containing words as witnesses."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out = []
    for k, b in F.breaking_points():
        witnesses = _containing_words(F, b, depth, budget)
        status = UNDECIDED_AT_DEPTH if witnesses else CERTIFIED_OFF_ATTRACTOR
        out.append(
            BreakStatus(map_index=k, point=b, status=status, depth=depth,
                        witnesses=tuple(witnesses))
        )
    return tuple(out)


@dataclass(frozen=True)
class BreakCode:
    """A claimed symbolic address of a breaking point: the point is
    f_prefix(y) where y is the periodic point of f_period."""

    point: float
    prefix: Word
    period: Word

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")

    @property
    def purely_periodic(self) -> bool:
        return not self.prefix


@dataclass(frozen=True)
class CodeCheck:
    ok: bool
    code: BreakCode
    periodic_point: float
    residual_period: float
    residual_prefix: float
    containment_ok: bool

    def __bool__(self) -> bool:
        return self.ok


def _apply_word(F: Cplifs, w: Word, x: float) -> float:
    for k in w[::-1]:
        x = F.map(k)(x)
    return x


def _fixed_point(branches: list[Branch], f: Callable, pad: Callable) -> float:
    """The fixed point of the contraction f from the (domain, similarity)
    branches it agrees with: of the candidates offset / (1 - ratio) that lie
    in their domain widened by pad(y), the first with the least residual
    |f(y) - y|; of all candidates when rounding leaves none in its domain."""
    cands = [(sim.offset / (1.0 - sim.ratio), dom) for dom, sim in branches]
    kept = [y for y, (lo, hi) in cands if lo - pad(y) <= y <= hi + pad(y)]
    return min(kept or [y for y, _ in cands], key=lambda y: abs(f(y) - y))


def periodic_point(F: Cplifs, period: Word) -> float:
    """Fixed point of the composition f_{period} (a contraction), in closed
    form: ``_fixed_point`` over the branches of f_period on the invariant
    interval, each domain widened by ``F.geom_tol()``."""
    tol = F.geom_tol()
    branches = _branches(F, period, invariant_interval(F))
    return _fixed_point(branches, lambda y: _apply_word(F, period, y), lambda y: tol)


_CODE_TOL = 1e-9  # largest distance and residuals that verify_breaking_code accepts


def verify_breaking_code(F: Cplifs, b: float, prefix: Word, period: Word) -> CodeCheck:
    """Check, to ``_CODE_TOL``, that b is a breaking point and b = f_prefix(y)
    for the periodic point y of f_period (in closed form, so no step can
    fail to converge), and that b stays inside the cylinders
    I_{prefix . period^j}, j = 1..3."""
    if all(abs(b - p) > _CODE_TOL for _, p in F.breaking_points()):
        raise ValueError(f"{b} is not a breaking point of the system")
    code = BreakCode(point=b, prefix=tuple(prefix), period=tuple(period))
    y = periodic_point(F, code.period)
    res_period = abs(_apply_word(F, code.period, y) - y)
    res_prefix = abs(_apply_word(F, code.prefix, y) - b)
    contained = all(_containing_words(F, b, 0, DEFAULT_BUDGET, code.prefix + code.period * j)
                    for j in (1, 2, 3))
    ok = res_period <= _CODE_TOL and res_prefix <= _CODE_TOL and contained
    return CodeCheck(
        ok=ok, code=code, periodic_point=y, residual_period=res_period,
        residual_prefix=res_prefix, containment_ok=contained,
    )


def _branches(F: Cplifs, w: Word, iv: Interval) -> list[Branch]:
    """The branches of f_w on ``iv``: (domain, similarity) pairs whose
    domains tile iv in order, f_w agreeing with each on its domain up to
    tol = ``F.geom_tol()`` at the breaks.  Folds right to left, cutting the
    running interval [c0, c1] at the next map's breaks more than tol inside
    it.  With no cut, it takes that map's first piece whose right end,
    widened by tol, reaches c1 (its left end then lies within tol of c0 or
    below it).  Otherwise the domain is cut at the cuts' preimages, and
    each part takes the piece at its midpoint and folds on."""
    tol = F.geom_tol()
    out: list[Branch] = []
    stack = [(len(w), iv, AffineMap(1.0, 0.0), iv)]  # stages left, domain, map, image
    while stack:
        j, dom, total, cur = stack.pop()
        for j in range(j, 0, -1):
            f = F.map(w[j - 1])
            if cuts := [b for b in f.breaks if cur[0] + tol < b < cur[1] - tol]:
                break
            piece = f.piece_affine(bisect_left(f.breaks, cur[1] - tol))
            total, cur = piece.compose(total), piece.image(cur)
        else:
            out.append((dom, total))
            continue
        parts = list(zip([cur[0], *cuts], [*cuts, cur[1]]))
        xs = [min(max((b - total.offset) / total.ratio, dom[0]), dom[1]) for b in cuts]
        if total.ratio < 0:
            parts, xs = parts[::-1], xs[::-1]
        for d, part in reversed(list(zip(zip([dom[0], *xs], [*xs, dom[1]]), parts))):
            piece = f.piece_affine(f.piece_index(0.5 * (part[0] + part[1])))
            stack.append((j - 1, d, piece.compose(total), piece.image(part)))
    return out


def affine_restriction(F: Cplifs, w: Word, iv: Interval) -> AffineMap:
    """The similarity that f_w restricts to on ``iv``, its one branch
    (``_branches``); AmbiguousContainment when a stage's running interval
    has a break of the next map more than ``F.geom_tol()`` inside it, as
    then the composition is not affine there."""
    (_, total), *rest = _branches(F, w, iv)
    if rest:
        raise AmbiguousContainment(f"f_{word_str(w)} breaks inside [{iv[0]}, {iv[1]}]; not affine")
    return total

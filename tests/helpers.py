"""Shared system builders for the test suite."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

from plifs import Cplifs, PLMap
from plifs.core import _apply_word, invariant_interval
from plifs.errors import ConvergenceFailure
from plifs.oracle import uniform_batch


def paper_example() -> Cplifs:
    """Two maps, one breaking at 0.5 = f_1(1); the classic worked system."""
    return Cplifs((PLMap((0.5,), (0.8, 0.2), 0.0), PLMap((), (0.1,), 0.9)))


def cantor_pair() -> Cplifs:
    return Cplifs((PLMap((), (1 / 3,), 0.0), PLMap((), (1 / 3,), 2 / 3)))


def period_two() -> Cplifs:
    """The third map breaks at the fixed point of f_1 o f_2."""
    phi12 = 0.21 / 0.91
    return Cplifs(
        (
            PLMap((), (0.3,), 0.0),
            PLMap((), (0.3,), 0.7),
            PLMap((phi12,), (0.2, 0.25), 0.35),
        )
    )


def three_break_mixed_signs() -> Cplifs:
    """One map with three breaks, slopes of both signs, and a plain
    contraction; the orbit enters all four pieces of the first map."""
    return Cplifs(
        (
            PLMap((0.2, 0.5, 0.8), (0.4, -0.3, 0.5, -0.2), 0.1),
            PLMap((), (0.45,), 0.55),
        )
    )


def unit_cover() -> Cplifs:
    """Overlapping pair whose attractor is all of [0, 1]."""
    return Cplifs((PLMap((), (0.6,), 0.0), PLMap((), (0.6,), 0.4)))


def anchored_map(rng: random.Random, fixed_point: float, n_breaks: int,
                 lo: float = 0.05, hi: float = 0.9) -> PLMap:
    """Random increasing map with the given fixed point."""
    while True:
        slopes = [rng.uniform(lo, hi) for _ in range(n_breaks + 1)]
        if all(abs(a - b) > 1e-3 for a, b in zip(slopes, slopes[1:])):
            break
    breaks = sorted(rng.uniform(0.05, 0.95) for _ in range(n_breaks))
    while any(b - a < 1e-3 for a, b in zip(breaks, breaks[1:])):
        breaks = sorted(rng.uniform(0.05, 0.95) for _ in range(n_breaks))
    f0 = PLMap(tuple(breaks), tuple(slopes), 0.0)
    return PLMap(tuple(breaks), tuple(slopes), fixed_point - f0(fixed_point))


def random_increasing_system(rng: random.Random, m: int | None = None,
                             max_breaks: int = 2, span: bool = True) -> Cplifs:
    """Random injective increasing system; with span=True the extreme fixed
    points are 0 and 1, so the invariant interval is [0, 1]."""
    m = m or rng.randint(2, 3)
    fps = [rng.uniform(0.1, 0.9) for _ in range(m)]
    if span:
        fps[0], fps[-1] = 0.0, 1.0
    maps = tuple(anchored_map(rng, fp, rng.randint(0, max_breaks)) for fp in fps)
    return Cplifs(maps)


def random_plmap(rng: random.Random, max_breaks: int = 4) -> PLMap:
    """Random map with slopes of either sign (no structural constraints)."""
    n = rng.randint(0, max_breaks)
    while True:
        slopes = [rng.choice([-1, 1]) * rng.uniform(0.05, 0.95) for _ in range(n + 1)]
        if all(abs(a - b) > 1e-3 for a, b in zip(slopes, slopes[1:])):
            break
    breaks = []
    x = rng.uniform(-1.0, 0.0)
    for _ in range(n):
        x += rng.uniform(0.05, 0.5)
        breaks.append(x)
    return PLMap(tuple(breaks), tuple(slopes), rng.uniform(-0.5, 0.5))


def random_iosc_affine(rng: random.Random, m: int | None = None) -> Cplifs:
    """Affine increasing maps onto pairwise disjoint subintervals of [0, 1]."""
    m = m or rng.randint(2, 3)
    while True:
        points = sorted(rng.uniform(0.0, 1.0) for _ in range(2 * m))
        widths = [points[2 * i + 1] - points[2 * i] for i in range(m)]
        gaps = [points[2 * i] - points[2 * i - 1] for i in range(1, m)]
        if min(widths) > 0.02 and (not gaps or min(gaps) > 0.02):
            break
    maps = tuple(
        PLMap((), (widths[i],), points[2 * i]) for i in range(m)
    )
    return Cplifs(maps)


def gdifs_of_edges(nodes, edges):
    """A Gdifs from a sequence of GdifsNode records and one of GdifsEdge
    records."""
    from plifs.gdifs import Gdifs

    sides = {None: 0, "left": 1, "right": 2}
    return Gdifs([n.word for n in nodes], [sides[n.side] for n in nodes],
                 [n.hull[0] for n in nodes], [n.hull[1] for n in nodes],
                 [e.src for e in edges], [e.dst for e in edges],
                 [e.ratio for e in edges], [e.offset for e in edges])


def random_family_instance(rng: random.Random, m: int = 3):
    """Slope/fixed-point parameters for the fixed-point-breaking family
    that satisfy the disjointness requirement.

    The m - 2 fixed points lie in [0.25, 0.75], each 0.15 from the next,
    so at most 4 fit: m >= 7 raises ValueError.  For m <= 5 they are drawn
    and redrawn until they are spaced; m = 6 leaves them only 0.05 of
    slack, so its fixed points and slopes are drawn to fit."""
    from plifs.gdifs import build_fixed_point_family

    if m >= 7:
        raise ValueError(
            f"m = {m} needs {m - 2} fixed points in [0.25, 0.75] spaced 0.15 "
            "apart; at most 4 fit (m <= 6)"
        )
    while True:
        if m == 6:
            slopes, phis = _packed_family_parameters(rng)
        else:
            slopes = [rng.uniform(0.1, 0.35) for _ in range(2 * m - 2)]
            if any(abs(a - b) < 1e-3 for a, b in zip(slopes, slopes[1:])):
                continue
            phis = sorted(rng.uniform(0.25, 0.75) for _ in range(m - 2))
            if any(b - a < 0.15 for a, b in zip([0.0] + phis, phis + [1.0])):
                continue
        try:
            return build_fixed_point_family(tuple(slopes), tuple(phis))
        except Exception:
            continue


def code_batch() -> list[Cplifs]:
    """705 systems for comparing codes and periodic points: 300 of two or
    three `random_plmap` maps from Random(9), 300
    `random_increasing_system` draws from Random(5), 100 family instances
    from Random(0), then the paper example, the period-two system,
    `three_break_mixed_signs`, the Cantor pair and `unit_cover`."""
    rng = random.Random(9)
    out = [Cplifs(tuple(random_plmap(rng) for _ in range(rng.randint(2, 3))))
           for _ in range(300)]
    rng = random.Random(5)
    out += [random_increasing_system(rng) for _ in range(300)]
    rng = random.Random(0)
    out += [random_family_instance(rng).system for _ in range(100)]
    return out + [paper_example(), period_two(), three_break_mixed_signs(), cantor_pair(),
                  unit_cover()]


def _packed_family_parameters(rng: random.Random) -> tuple[list[float], list[float]]:
    """Parameters of a 6-map family: four fixed points in [0.25, 0.75],
    each 0.15 from the next (0.05 of slack shared out at random), and
    slopes that keep the first cylinders disjoint.  Between neighbouring
    anchors a < b (0, the fixed points, 1) the cylinder of a reaches
    right by its slope times 1 - a and that of b left by its slope times
    b; each reach is drawn between 0.1 and 0.3 times b - a (and each slope
    is capped at 0.35), with neighbouring slopes at least 1e-3 apart."""
    while True:
        slack = sorted(rng.uniform(0.0, 0.05) for _ in range(4))
        phis = [0.25 + 0.15 * i + x for i, x in enumerate(slack)]
        anchors = [0.0] + phis + [1.0]
        slopes = []
        for a, b in zip(anchors, anchors[1:]):
            slopes.append(min(0.35, rng.uniform(0.1, 0.3) * (b - a) / (1.0 - a)))
            slopes.append(min(0.35, rng.uniform(0.1, 0.3) * (b - a) / b))
        if all(abs(s - t) >= 1e-3 for s, t in zip(slopes, slopes[1:])):
            return slopes, phis


def conjugate(F: Cplifs, a: float, b: float) -> Cplifs:
    """The system of maps x -> a f((x - b)/a) + b (a > 0)."""
    maps = []
    for f in F.maps:
        breaks = tuple(a * x + b for x in f.breaks)
        tau = a * f((0.0 - b) / a) + b
        maps.append(PLMap(breaks, f.slopes, tau))
    return Cplifs(tuple(maps))


def reflect(F: Cplifs) -> Cplifs:
    """The system of maps x -> -f(-x): breaks negated in reverse order,
    and each map's slopes in reverse order."""
    return Cplifs(tuple(
        PLMap(tuple(-x for x in reversed(f.breaks)), tuple(reversed(f.slopes)), -f(0.0))
        for f in F.maps
    ))


def chaos_game(F: Cplifs, count: int, seed: int = 0, burn_in: int = 100,
               weights=None) -> np.ndarray:
    """Reference chaos game: one scalar map step per sample, the orbit that
    `plifs.oracle.chaos_game` must reproduce bit for bit."""
    if weights is None:
        w = np.full(F.m, 1.0 / F.m)
    else:
        w = np.asarray(weights, dtype=float)
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
    return out


# ---------------------------------------------------------------------------
# reference implementations: the scalar generator that
# `plifs.oracle.splitmix64_batch` must reproduce bit for bit


class SplitMix64:
    """Deterministic 64-bit generator, one output per call; its state
    advances by a fixed odd constant, so the batch variant vectorizes."""

    _MASK64 = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK64

    def next_uint64(self) -> int:
        mask = self._MASK64
        self._state = (self._state + 0x9E3779B97F4A7C15) & mask
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# reference implementations: the array code that `plifs.core.level_sweep`,
# the carried lengths of `plifs.core.carried_levels` and
# `plifs.core.level_blocks`, `plifs.oracle._union_length`,
# `plifs.gdifs._certify_side` and `plifs.gdifs.perron_root` (without its
# side-only mode) must reproduce bit for bit, the iteration that
# `plifs.core.periodic_point` must match within rounding, and the exact
# cylinder lengths that carried lengths and Lebesgue bounds are measured
# against


def reference_periodic_point(F: Cplifs, period) -> float:
    """Reference periodic point: f_period iterated from the middle of the
    invariant interval until a step moves less than 1e-16 (1 + |x|), or
    until rounding settles the iterates into a 2-cycle; ConvergenceFailure
    after 100,000 steps."""
    lo, hi = invariant_interval(F)
    x = 0.5 * (lo + hi)
    back = None  # the iterate two steps back: rounding can settle into a 2-cycle
    for _ in range(100000):
        nx = _apply_word(F, period, x)
        if abs(nx - x) < 1e-16 * (1.0 + abs(x)) or nx == back:
            return nx
        back, x = x, nx
    raise ConvergenceFailure("periodic point iteration did not converge")


def _reference_image(f: PLMap, lo: np.ndarray, hi: np.ndarray):
    def at(x):
        idx = np.searchsorted(np.asarray(f.breaks), x, side="right")
        return np.asarray(f.slopes)[idx] * x + np.asarray(f._intercepts)[idx]

    ya, yb = at(lo), at(hi)
    out_lo, out_hi = np.minimum(ya, yb), np.maximum(ya, yb)
    for b in f.breaks:
        inside = (lo < b) & (b < hi)
        if inside.any():
            fb = f(b)
            out_lo = np.where(inside, np.minimum(out_lo, fb), out_lo)
            out_hi = np.where(inside, np.maximum(out_hi, fb), out_hi)
    return out_lo, out_hi


def reference_level_sweep(F: Cplifs, n_max: int):
    """Reference level sweep: each map's images built apart, then
    concatenated in map order."""
    a, b = invariant_interval(F)
    lo, hi = np.array([a]), np.array([b])
    yield lo, hi
    for _ in range(n_max):
        parts = [_reference_image(f, lo, hi) for f in F.maps]
        lo = np.concatenate([p[0] for p in parts])
        hi = np.concatenate([p[1] for p in parts])
        yield lo, hi


def _reference_carry(f: PLMap, lo, hi, length, ilo, ihi) -> np.ndarray:
    """Reference carried lengths of the images f([lo, hi]) (ilo, ihi):
    |slope| times the parent's length on the closed piece that holds the
    interval, the left one where hi is a break; an interval that a break
    cuts gets the image's hi - lo (folded f) or, one by one, the sum over
    the pieces left to right of |slope| times its positive parts
    (injective f)."""
    slopes = np.abs(np.asarray(f.slopes))
    out = slopes[np.searchsorted(np.asarray(f.breaks), hi, side="left")] * length
    edges = [-math.inf, *f.breaks, math.inf]
    cut = np.zeros(lo.size, bool)
    for b in f.breaks:
        cut |= (lo < b) & (b < hi)
    if not f.is_injective():
        out[cut] = ihi[cut] - ilo[cut]
        return out
    for i in np.flatnonzero(cut):
        acc = 0.0
        for s, left, right in zip(f.slopes, edges, edges[1:]):
            part = min(float(hi[i]), right) - max(float(lo[i]), left)
            if part > 0:
                acc += abs(s) * part
        out[i] = acc
    return out


def reference_carried_levels(F: Cplifs, n_max: int):
    """Reference carried lengths: levels 0..n_max of `reference_level_sweep`
    as (lo, hi, length), level 0 of length b - a and each map's part of a
    level carried by `_reference_carry`, built apart and concatenated in
    map order."""
    a, b = invariant_interval(F)
    lo, hi, length = np.array([a]), np.array([b]), np.array([b - a])
    yield lo, hi, length
    for _ in range(n_max):
        parts = []
        for f in F.maps:
            ilo, ihi = _reference_image(f, lo, hi)
            parts.append((ilo, ihi, _reference_carry(f, lo, hi, length, ilo, ihi)))
        lo, hi, length = (np.concatenate(x) for x in zip(*parts))
        yield lo, hi, length


def reference_partition_sums(F: Cplifs, n_min: int, n_max: int) -> list:
    """Reference inputs of the partition sums, that `plifs.core.level_blocks`
    and `plifs.pressure._LengthCounts` must reproduce bit for bit: each
    level n_min..n_max of `reference_carried_levels`, its positive
    lengths counted by np.unique, as (log length, log multiplicity, zero
    count, word count)."""
    out = []
    for n, (_, _, lens) in enumerate(reference_carried_levels(F, n_max)):
        if n >= n_min:
            u, c = np.unique(lens[lens > 0], return_counts=True)
            out.append((np.log(u), np.log(c.astype(float)), lens.size - int(c.sum()), lens.size))
    return out


def exact_cylinders(F: Cplifs, n: int) -> list:
    """The exact level-n cylinders f_w(J), w in word order, as Fraction
    pairs: J the computed invariant interval, read exactly, and each map
    the exact one its float parameters define (`PLMap._exact_intercepts`)."""
    from plifs.core import _exact_image

    level = [tuple(map(Fraction, invariant_interval(F)))]
    for _ in range(n):
        level = [_exact_image(f, lo, hi) for f in F.maps for lo, hi in level]
    return level


def exact_cylinder_lengths(F: Cplifs, n: int) -> list:
    """|I_w| of the `exact_cylinders` of level n, in Fraction."""
    return [hi - lo for lo, hi in exact_cylinders(F, n)]


def exact_level_sums(F: Cplifs, n_max: int) -> list:
    """The sums of |I_w| over the `exact_cylinders` of levels 1..n_max, in
    Fraction, without enumerating the words.  T(w, r), the sum over
    words x of length r of |I_wx|, is |s| T(w', r) when the exact I_w'
    (w = k w') lies in one closed piece of f_k, of slope s, because then
    every I_w'x does; else it is the sum of T(wj, r - 1) over the maps j,
    down to r = 0, where it is |I_w| itself."""
    from plifs.core import _exact_image

    J = tuple(map(Fraction, invariant_interval(F)))

    @lru_cache(maxsize=None)
    def interval(w):
        return _exact_image(F.map(w[0]), *interval(w[1:])) if w else J

    @lru_cache(maxsize=None)
    def total(w, r):
        lo, hi = interval(w[1:])
        if r and w and not any(lo < b < hi for b in F.map(w[0]).breaks):
            f = F.map(w[0])
            return abs(Fraction(f.slopes[bisect_right(f.breaks, lo)])) * total(w[1:], r)
        if not r:
            lo, hi = interval(w)
            return hi - lo
        return sum(total(w + (j,), r - 1) for j in range(1, F.m + 1))

    return [total((), n) for n in range(1, n_max + 1)]


def reference_union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Reference union length: stable sort by lo, then the runs of
    overlapping intervals found by index arrays."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    cmax = np.maximum.accumulate(hi)
    prev = np.concatenate(([-np.inf], cmax[:-1]))
    starts = np.flatnonzero(lo > prev)  # index 0 always starts a run
    ends = np.concatenate((starts[1:] - 1, [len(lo) - 1]))
    return float(np.sum(cmax[ends] - lo[starts]))


def reference_certify_side(F: Cplifs, w, side: str, tgt, phi: float, depth: int) -> bool | None:
    """Reference side certification: each level of the reference sweep
    whole, pushed and clipped at once, with no budget."""
    from plifs.core import image_interval
    from plifs.gdifs import _push

    tol = F.geom_tol()
    a, b = lo, hi = tgt.hull
    for k in w[::-1]:
        lo, hi = image_interval(F.map(k), (lo, hi))
    deeper = iter(list(reference_level_sweep(F, depth))[1:])
    for d in range(depth + 1):
        if d:
            rlo, rhi = _push(F, tgt.word, *next(deeper))
            inside = (a + tol <= rlo) & (rhi <= b - tol)
            rlo, rhi = np.maximum(rlo, a), np.minimum(rhi, b)
            keep = rlo <= rhi
            if not keep.any():
                return False
            inside = inside[keep]
            rlo, rhi = _push(F, w, rlo[keep], rhi[keep])
            lo, hi = rlo.min(), rhi.max()
        below, above = hi <= phi + tol, lo >= phi - tol
        if below or above:
            return bool(below if side == "left" else above)
        if d and (rhi[inside] < phi - 2 * tol).any() and (rlo[inside] > phi + 2 * tol).any():
            return None
    return None


def reference_perron_root(M, cap: int | None = None, start: np.ndarray | None = None) -> float:
    """Reference Perron solve: power iteration on M + c Id until the
    Collatz-Wielandt bounds close to 1e-13 times max(1, rho), with the stall
    exit after 100 steps and the dense fallback (at any size); ``start`` is overwritten
    with the last iterate."""
    q = M.q
    if q == 1:
        return float(np.bincount(M.src, weights=M.w, minlength=1)[0])
    cap = max(200, 10 * q * q) if cap is None else cap
    v = np.ones(q) if start is None else start
    c = 0.25 * float(np.maximum.reduce(np.bincount(M.src, weights=M.w, minlength=q)))
    gaps = [math.inf] * 100
    for step in range(1, cap + 1):
        w = c * v + np.bincount(M.src, weights=M.w * v[M.dst], minlength=q)
        r = w / v
        lo, hi = float(np.minimum.reduce(r)) - c, float(np.maximum.reduce(r)) - c
        np.divide(w, np.maximum.reduce(w), out=v)
        gap = hi - lo
        if gap <= 1e-13 * max(1.0, hi):
            return 0.5 * (lo + hi)
        if gap * 1.01 > gaps[step % 100]:
            break
        gaps[step % 100] = gap
    return float(np.max(np.abs(np.linalg.eigvals(M.dense()))))


# ---------------------------------------------------------------------------
# reference implementations: the graph code that
# `plifs.gdifs.strongly_connected_components` must reproduce label for label,
# and `plifs.gdifs.build_fixed_point_family` edge for edge


def reference_scc(q: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each of the q nodes of the graph with edges
    src[e] -> dst[e]; labels count the components in the order of their
    smallest node index.

    Kosaraju with iterative passes over the forward and the reverse
    adjacency, each built once from the edge arrays.
    """

    def adjacency(a, b):
        order = np.argsort(a, kind="stable")
        return b[order].tolist(), np.searchsorted(a[order], np.arange(q + 1)).tolist()

    (fwd, fstart), (rev, rstart) = adjacency(src, dst), adjacency(dst, src)
    order: list[int] = []
    nxt = fstart[:-1]  # next forward edge of each node
    seen = [False] * q
    for start in range(q):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            v = stack[-1]
            e = nxt[v]
            if e < fstart[v + 1]:
                nxt[v] = e + 1
                w = fwd[e]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
            else:
                order.append(v)
                stack.pop()
    label = [-1] * q
    count = 0
    for start in reversed(order):
        if label[start] != -1:
            continue
        label[start] = count
        stack = [start]
        while stack:
            v = stack.pop()
            for w in rev[rstart[v] : rstart[v + 1]]:
                if label[w] == -1:
                    label[w] = count
                    stack.append(w)
        count += 1
    labels = np.array(label, dtype=np.intp)
    smallest = np.unique(labels, return_index=True)[1]  # smallest node of each label
    return np.argsort(np.argsort(smallest))[labels]


def reference_family_graph(fam):
    """The associated graph of a fixed-point-breaking family written down
    as the paper gives it: node 1 the first cylinder, nodes 2k-2 / 2k-1
    the halves of middle cylinder k cut at its fixed point, node 2m-2 the
    last cylinder, one edge per entry of the incidence matrix, each edge
    carrying the branch of its source node."""
    from plifs.core import check_iosc
    from plifs.gdifs import GdifsEdge, GdifsNode

    det, m, rho = fam.det, fam.det.m, fam.det.slopes
    full = (0.0,) + tuple(f.breaks[0] for f in fam.system.maps[1:-1]) + (1.0,)

    nodes = []
    offsets = []
    cyl = check_iosc(fam.system).first_cylinders
    nodes.append(GdifsNode(word=(1,), side=None, hull=cyl[0]))
    offsets.append(0.0)
    for k in range(2, m):
        phi = full[k - 1]
        lo, hi = cyl[k - 1]
        nodes.append(GdifsNode(word=(k,), side="left", hull=(lo, phi)))
        offsets.append(phi * (1.0 - rho[2 * k - 3]))
        nodes.append(GdifsNode(word=(k,), side="right", hull=(phi, hi)))
        offsets.append(phi * (1.0 - rho[2 * k - 2]))
    nodes.append(GdifsNode(word=(m,), side=None, hull=cyl[m - 1]))
    offsets.append(1.0 - rho[-1])

    src, dst = np.nonzero(det.incidence())
    ratio, offset = np.array(rho)[src], np.array(offsets)[src]
    return gdifs_of_edges(nodes, tuple(map(GdifsEdge, src.tolist(), dst.tolist(),
                                           ratio.tolist(), offset.tolist())))


def assert_family_graph_matches_reference(fam) -> None:
    """fam.graph equals `reference_family_graph(fam)`: nodes, endpoints and
    ratios bit for bit, and offsets, which lie in [0, 1], to within 2^-53
    (one unit in the last place on [1/2, 1)): the reference takes a right
    branch's offset as phi (1 - slope), the map's own intercept rounds
    differently."""
    ref = reference_family_graph(fam)
    g = fam.graph
    assert g.nodes == ref.nodes
    assert np.array_equal(g.src, ref.src) and np.array_equal(g.dst, ref.dst)
    assert np.array_equal(g.ratio, ref.ratio)
    assert np.all(np.abs(g.offset - ref.offset) <= 2.0**-53)

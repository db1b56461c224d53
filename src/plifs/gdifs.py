"""Graph-directed self-similar systems on the line.

Covers the spectral route to the dimension (the unique s where the
weighted adjacency matrix has dominant eigenvalue 1), the determinant
recursion for the family of maps breaking at their own fixed points, the
association of a graph system to a piecewise linear system whose breaking
points carry periodic codes, and the punctured approximation that drops
cylinders containing breaking points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    AffineMap,
    BreakCode,
    Cplifs,
    DEFAULT_BUDGET,
    GeneratedSimilarity,
    Interval,
    PLMap,
    Word,
    _containing_words,
    _image_into,
    affine_restriction,
    check_iosc,
    cylinder_arrays,
    cylinder_enclosure,
    image_interval,
    index_word,
    level_sweep,
    level_words,
    periodic_point,
    sweep_error,
    verify_breaking_code,
    word_index,
    word_str,
)
from .pressure import BELOW, BOX_SLACK, bisect_decreasing, natural_dimension, upper_box_consistency
from . import oracle
from .errors import (
    AmbiguousContainment,
    BudgetExceeded,
    ConvergenceFailure,
    EmptyGraph,
    IoscViolated,
    BadFixedPointOrder,
    NonPeriodicCode,
    NotApplicable,
    NotStronglyConnected,
    RootMismatch,
    UnverifiedCode,
)

# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class GdifsNode:
    """A graph-directed set: the cylinder word that defines it, which half
    of a cut cylinder it is (if any), and its interval hull."""

    word: Word
    side: str | None  # None, "left" or "right"
    hull: Interval

    @property
    def label(self) -> str:
        tag = self.side or "full"
        return f"{word_str(self.word) or '-'}:{tag}"


@dataclass(frozen=True)
class GdifsEdge:
    src: int
    dst: int
    ratio: float
    offset: float


@dataclass(frozen=True, eq=False)
class EdgeMatrix:
    """Nonnegative q x q matrix held as its entries: entry e adds w[e] at
    (src[e], dst[e]), so repeated pairs add."""

    q: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def at(self, s: float) -> "EdgeMatrix":
        """The matrix whose entries are these raised to the power s."""
        return EdgeMatrix(self.q, self.src, self.dst, self.w**s)

    def dense(self) -> np.ndarray:
        M = np.zeros((self.q, self.q))
        np.add.at(M, (self.src, self.dst), self.w)
        return M


@dataclass(frozen=True, eq=False)
class Gdifs:
    """A multigraph with one similarity per edge, held as edge arrays in the
    layout of EdgeMatrix: edge e runs from node src[e] to node dst[e] and
    carries x -> ratio[e] * x + offset[e]."""

    nodes: tuple[GdifsNode, ...]
    src: np.ndarray
    dst: np.ndarray
    ratio: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        for name, dtype in (("src", np.intp), ("dst", np.intp), ("ratio", float), ("offset", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not self.src.size == self.dst.size == self.ratio.size == self.offset.size:
            raise ValueError("edge arrays differ in length")
        q, size = len(self.nodes), np.abs(self.ratio)
        out = (self.src < 0) | (self.src >= q) | (self.dst < 0) | (self.dst >= q)
        bad = np.flatnonzero(out | ~((0.0 < size) & (size < 1.0)))
        if bad.size and out[bad[0]]:
            raise ValueError("edge endpoint out of range")
        if bad.size:
            raise ValueError(f"edge ratio {float(self.ratio[bad[0]])} not in (0, 1) in modulus")

    @property
    def q(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> tuple[GdifsEdge, ...]:
        """One record per edge, in array order; built on each access."""
        return tuple(map(GdifsEdge, self.src.tolist(), self.dst.tolist(),
                         self.ratio.tolist(), self.offset.tolist()))

    def spectral_matrix(self) -> EdgeMatrix:
        """The edges with weights |ratio|; ``.at(s)`` sums |r_e|^s over
        the edges from i to j."""
        return EdgeMatrix(self.q, self.src, self.dst, np.abs(self.ratio))

    def strongly_connected(self) -> bool:
        return self.q > 0 and not strongly_connected_components(self.q, self.src, self.dst).any()

    def export_text(self) -> str:
        """Deterministic plain-text listing: node header lines, then edges."""
        lines = []
        for i, node in enumerate(self.nodes):
            lo, hi = node.hull
            lines.append(
                f"node {i} word={word_str(node.word) or '-'} "
                f"side={node.side or 'full'} hull={lo:.17g},{hi:.17g}"
            )
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst, e.ratio, e.offset)):
            lines.append(
                f"edge {e.src} {e.dst} ratio={e.ratio:.17g} offset={e.offset:.17g}"
            )
        return "\n".join(lines) + "\n"


def strongly_connected_components(q: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Perron root and the dimension value


# Above this many nodes perron_root refuses the dense eigensolve fallback.
_DENSE_FALLBACK_NODES = 4096

# Closing gap of the Collatz-Wielandt bounds in perron_root, taken
# relative to max(1, upper bound on rho); the error band of a certified
# value near rho = 1: four times its half-gap there, leaving room for
# rounding; and the bracket width of the roots of alpha and q_root.
_PERRON_TOL = 1e-13
_PERRON_BAND = 2 * _PERRON_TOL
_ROOT_TOL = 1e-12

# perron_root ends a solve whose gap has shrunk by less than a factor
# _STALL_SHRINK over the last _STALL_STEPS steps: the bounds of a reducible
# matrix settle apart and would otherwise run the whole step cap.
_STALL_STEPS = 100
_STALL_SHRINK = 1.01


def perron_root(
    M: EdgeMatrix,
    cap: int | None = None,
    start: np.ndarray | None = None,
) -> float:
    """Dominant eigenvalue of a nonnegative irreducible matrix.

    Power iteration on M + c Id, c a quarter of the largest row sum (the
    shifted matrix is primitive whenever M is irreducible, and rho + c
    dominates every other eigenvalue's modulus by a margin even when rho is
    small), from ``start`` (a positive vector of length q, overwritten in
    place with the last iterate so the next solve can continue from it) or
    else from the all-ones vector. Returns only Collatz-Wielandt-certified
    values (the bounds min and max of (M + c Id)v / v, less c, closed to
    ``_PERRON_TOL`` times max(1, rho)) or, if they do not close within ``cap``
    steps or stop closing (``_STALL_STEPS``), the dense fallback: the
    eigensolve of M, refused with ConvergenceFailure above 4096 nodes
    rather than allocating q x q floats.
    """
    q = M.q
    if q == 1:
        return float(np.bincount(M.src, weights=M.w, minlength=1)[0])
    cap = max(200, 10 * q * q) if cap is None else cap
    v = np.ones(q) if start is None else start
    c = 0.25 * float(np.maximum.reduce(np.bincount(M.src, weights=M.w, minlength=q)))
    gaps = [math.inf] * _STALL_STEPS  # gap of each of the last _STALL_STEPS steps
    step = 0
    for step in range(1, cap + 1):
        w = c * v + np.bincount(M.src, weights=M.w * v[M.dst], minlength=q)
        r = w / v
        lo, hi = float(np.minimum.reduce(r)) - c, float(np.maximum.reduce(r)) - c
        np.divide(w, np.maximum.reduce(w), out=v)
        gap = hi - lo
        if gap <= _PERRON_TOL * max(1.0, hi):
            return 0.5 * (lo + hi)
        if gap * _STALL_SHRINK > gaps[step % _STALL_STEPS]:
            break
        gaps[step % _STALL_STEPS] = gap
    if q > _DENSE_FALLBACK_NODES:
        raise ConvergenceFailure(
            f"Perron bounds did not close in {step} steps on {q} nodes "
            f"(dense fallback limited to {_DENSE_FALLBACK_NODES} nodes)"
        )
    return float(np.max(np.abs(np.linalg.eigvals(M.dense()))))


def alpha(g: Gdifs) -> float:
    """The unique s with dominant eigenvalue 1, by `bisect_decreasing` on
    log rho(s), which is decreasing and convex in s, to width ``_ROOT_TOL``."""
    if not g.strongly_connected():
        raise NotStronglyConnected(f"{g.q} nodes, graph not strongly connected")
    return _spectral_root(g)


def _spectral_root(g: Gdifs) -> float:
    """`alpha` of a graph already known to be strongly connected."""
    sm = g.spectral_matrix()
    v = np.ones(g.q)  # warm start: each solve continues from the last eigenvector
    r0 = perron_root(sm.at(0.0), start=v)
    if r0 < 1.0 - 1e-12:
        raise ConvergenceFailure("spectral radius below 1 at s = 0")
    if r0 <= 1.0 + 1e-12:
        return 0.0
    return bisect_decreasing(
        lambda s: math.log(r0 if s == 0.0 else perron_root(sm.at(s), start=v)),
        _ROOT_TOL, "spectral root",
    )


# ---------------------------------------------------------------------------
# determinant recursion for the fixed-point-breaking family


@dataclass(frozen=True)
class DetRecursion:
    """Determinant function of the family whose middle maps break at their
    own fixed points, parameterized by the ordered slope list.

    Slope i (1-based) belongs to node i of the associated graph: node 1 is
    the first map, nodes 2k-2 / 2k-1 are the left / right branches of
    middle map k, node 2m-2 is the last map.
    """

    slopes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        if len(self.slopes) < 4 or len(self.slopes) % 2:
            raise ValueError("need an even number of slopes, at least 4")
        if any(not (0.0 < s < 1.0) for s in self.slopes):
            raise ValueError("slopes must lie in (0, 1)")

    @property
    def m(self) -> int:
        return len(self.slopes) // 2 + 1

    def incidence(self) -> np.ndarray:
        """0/1 connectivity: outer rows full, a left branch reaches the
        nodes up to itself, a right branch the nodes from itself on."""
        q = len(self.slopes)
        A = np.zeros((q, q), dtype=int)
        A[0, :] = 1
        A[q - 1, :] = 1
        for k in range(2, self.m):
            A[2 * k - 3, : 2 * k - 2] = 1  # left branch, 1-based row 2k-2
            A[2 * k - 2, 2 * k - 2 :] = 1  # right branch, 1-based row 2k-1
        return A

    def spectral(self, s: float) -> EdgeMatrix:
        """The incidence entries of row i weighted by slope i to the power s."""
        src, dst = np.nonzero(self.incidence())
        return EdgeMatrix(len(self.slopes), src, dst, np.array(self.slopes)[src] ** s)

    def matrix(self, s: float) -> np.ndarray:
        """The spectral matrix minus the identity; its determinant is the
        determinant function evaluated at s."""
        return self.spectral(s).dense() - np.eye(len(self.slopes))

    def q_and_minors(self, s: float) -> tuple[float, list[float]]:
        """Value of the determinant function together with the bordered
        minors of the current size, built bottom-up from the 2 x 2 block.

        Each growth step expands by the second row from below; a bordered
        minor erases one column and appends the top of the next size's
        last column.
        """
        u = [sl**s for sl in self.slopes]
        q = 1.0 - u[0] - u[1]
        minors = [u[0] * (1.0 - u[1]), -u[0] * u[1]]
        size = 2
        while size < len(self.slopes):
            w, v = u[size], u[size + 1]
            alt = sum((-1) ** (i + 1) * minors[i] for i in range(size))
            q_next = (1.0 - v - w) * q + v * alt
            next_minors = [(1.0 - v) * mi for mi in minors]
            next_minors.append(w * (1.0 - v) * q)
            next_minors.append(v * (alt - w * q))
            q, minors, size = q_next, next_minors, size + 2
        return q, minors


def q_recursion(d: DetRecursion, s: float) -> float:
    """Determinant function via the two-row recursion (no dense matrix)."""
    return d.q_and_minors(s)[0]


def q_root(d: DetRecursion) -> float:
    """The determinant root that coincides with the spectral crossing,
    bracketed to width ``_ROOT_TOL``.

    The determinant vanishes at s = 0 as well, so one root solve takes the
    signed value log rho(s) of the certified spectral radius and, where rho
    lies within the error band of a certified value (``_PERRON_BAND``) of
    1, -Q(s) instead. The sign of Q decides there: Q(s) = det(C(s) - Id) is
    the product of lambda - 1 over the eigenvalues of C(s), whose size
    2m - 2 is even. Above the crossing every eigenvalue has modulus below
    1, so the real factors are negative and even in number, and Q > 0.
    Just below it the Perron factor is positive and the other real
    eigenvalues are odd in number and all below 1, so Q < 0.
    """
    v = np.ones(len(d.slopes))  # warm start, as in alpha

    def g(s: float) -> float:
        r = perron_root(d.spectral(s), start=v)
        if abs(r - 1.0) > _PERRON_BAND:
            return math.log(r)
        return -q_recursion(d, s) or BELOW  # Q = 0 counts as below the root

    root = bisect_decreasing(g, _ROOT_TOL, "determinant root")
    if abs(perron_root(d.spectral(root)) - 1.0) > 1e-10:
        raise RootMismatch(
            f"determinant root {root} does not restore spectral radius 1"
        )
    return root


# ---------------------------------------------------------------------------
# the fixed-point-breaking family


@dataclass(frozen=True)
class FixedPointFamily:
    system: Cplifs
    graph: Gdifs
    det: DetRecursion


def build_fixed_point_family(
    slopes: Sequence[float], fixed_points: Sequence[float]
) -> FixedPointFamily:
    """Construct the m-map system whose middle maps break at their own
    fixed points, together with its associated graph.

    The first map fixes 0 with the first slope, the last fixes 1 with the
    final slope, and middle map k breaks at its fixed point with slopes
    number 2k-2 and 2k-1 (1-based).  First cylinders must be
    pairwise disjoint.
    """
    det = DetRecursion(tuple(slopes))
    m = det.m
    phis = tuple(float(p) for p in fixed_points)
    if len(phis) != m - 2:
        raise BadFixedPointOrder(f"need {m - 2} interior fixed points, got {len(phis)}")
    full = (0.0,) + phis + (1.0,)
    if any(b <= a for a, b in zip(full, full[1:])):
        raise BadFixedPointOrder("fixed points must satisfy 0 < phi_2 < ... < 1")

    rho = det.slopes
    maps = [PLMap(breaks=(), slopes=(rho[0],), tau=0.0)]
    for k in range(2, m):
        left, right = rho[2 * k - 3], rho[2 * k - 2]  # 1-based rho_{2k-2}, rho_{2k-1}
        phi = full[k - 1]
        maps.append(
            PLMap(breaks=(phi,), slopes=(left, right), tau=phi * (1.0 - left))
        )
    maps.append(PLMap(breaks=(), slopes=(rho[-1],), tau=1.0 - rho[-1]))
    system = Cplifs(maps=tuple(maps))

    iosc = check_iosc(system)
    if not iosc.ok:
        raise IoscViolated(
            f"first cylinders overlap (pairs {iosc.touching_pairs}); "
            "the family construction requires disjoint first cylinders"
        )

    nodes = []
    offsets = []
    cyl = iosc.first_cylinders
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
    graph = Gdifs(tuple(nodes), src, dst, np.array(rho)[src], np.array(offsets)[src])
    return FixedPointFamily(system=system, graph=graph, det=det)


def detect_fixed_point_family(F: Cplifs) -> DetRecursion | None:
    """Recognize a system of the fixed-point-breaking shape and pull out
    its ordered slope list; None when the shape does not match."""
    if F.m < 3:
        return None
    maps = F.maps
    if any(any(s <= 0 for s in f.slopes) for f in maps):
        return None
    if maps[0].breaks or maps[-1].breaks:
        return None
    if any(len(f.breaks) != 1 for f in maps[1:-1]):
        return None
    tol = F.geom_tol()
    if abs(maps[0].fixed_point() - 0.0) > tol or abs(maps[-1].fixed_point() - 1.0) > tol:
        return None
    phis = []
    for f in maps[1:-1]:
        if abs(f(f.breaks[0]) - f.breaks[0]) > tol:
            return None
        phis.append(f.breaks[0])
    if any(b <= a for a, b in zip([0.0] + phis, phis + [1.0])):
        return None
    if not check_iosc(F).ok:
        return None
    slopes = [maps[0].slopes[0]]
    for f in maps[1:-1]:
        slopes.extend(f.slopes)
    slopes.append(maps[-1].slopes[0])
    return DetRecursion(tuple(slopes))


# ---------------------------------------------------------------------------
# association from periodic breaking-point codes


def associate_from_periodic(
    F: Cplifs,
    codes: Sequence[BreakCode] = (),
    refine_depth: int = 12,
    budget: int = DEFAULT_BUDGET,
) -> Gdifs:
    """Associate a self-similar graph system with F, given verified
    periodic codes for the on-attractor breaking points.

    Nodes are the cylinders at the level P = lcm of the code periods; a
    cylinder whose interior holds a coded breaking point is cut at that
    point (the fixed point of its composition) into a left and a right
    half.  There is an edge (A, A') exactly when f_{word(A)} maps the
    piece A' into A.  For an uncut A this always holds; for a half it is
    one image-space test against the cut point (``_certify_side``): the
    images of ever finer covers of A' from the level sweep must all lie on
    A's side.  Folded maps need no special case.  AmbiguousContainment
    when no level up to ``refine_depth`` decides an edge.
    """
    tol = F.geom_tol()
    codes = tuple(codes)
    for c in codes:
        chk = verify_breaking_code(F, c.point, c.prefix, c.period)
        if not chk.ok:
            raise UnverifiedCode(
                f"code for {c.point} failed: period residual {chk.residual_period:.3g}, "
                f"prefix residual {chk.residual_prefix:.3g}, "
                f"containment {'ok' if chk.containment_ok else 'failed'}"
            )

    P = math.lcm(*(len(c.period) for c in codes))
    lo, hi = cylinder_arrays(F, P, budget)
    los, his = lo.tolist(), hi.tolist()

    # Cut words: level-P prefixes of purely periodic codes, when the coded
    # point is interior to the cylinder interval.  Every rotation of a code
    # is cut as well: the shift orbit of a coded breaking point consists of
    # periodic points whose cylinders would otherwise hide a slope change
    # of a composed edge map in their interior.
    cuts: dict[int, float] = {}  # keyed by word index
    for c in codes:
        if not c.purely_periodic:
            continue
        p = len(c.period)
        for r in range(p):
            rot = c.period[r:] + c.period[:r]
            phi = c.point if r == 0 else periodic_point(F, rot)
            w = rot * (P // p)
            i = word_index(w, F.m)
            if los[i] + tol < phi < his[i] - tol:
                prev = cuts.get(i)
                if prev is not None and abs(prev - phi) > tol:
                    raise AmbiguousContainment(
                        f"two distinct cut points for cylinder {word_str(w)}"
                    )
                cuts.setdefault(i, phi)

    # every other interval containment of a breaking point must either be
    # certified spurious or the construction does not apply
    for _, b in F.breaking_points():
        bcodes = [c for c in codes if abs(c.point - b) <= tol]
        for i in np.flatnonzero((lo + tol < b) & (b < hi - tol)).tolist():
            if i in cuts and abs(cuts[i] - b) <= tol:
                continue
            w = index_word(i, F.m, P)
            if any(
                c.purely_periodic and c.period * (P // len(c.period)) == w
                for c in bcodes
            ):
                continue
            if _containing_words(F, b, refine_depth, budget, w):
                if bcodes and all(not c.purely_periodic for c in bcodes):
                    raise NonPeriodicCode(
                        f"breaking point {b} sits inside cylinder {word_str(w)} and "
                        "carries only an eventually periodic code"
                    )
                if not bcodes:
                    raise UnverifiedCode(
                        f"breaking point {b} appears to lie on the attractor "
                        f"(cylinder {word_str(w)}) but has no code"
                    )
                raise AmbiguousContainment(
                    f"cannot certify that {b} avoids the piece of {word_str(w)} "
                    f"at refinement depth {refine_depth}"
                )

    nodes: list[GdifsNode] = []
    for i, w in enumerate(level_words(F.m, P)):
        if i in cuts:
            nodes.append(GdifsNode(word=w, side="left", hull=(los[i], cuts[i])))
            nodes.append(GdifsNode(word=w, side="right", hull=(cuts[i], his[i])))
        else:
            nodes.append(GdifsNode(word=w, side=None, hull=(los[i], his[i])))

    src, dst, ratio, offset = [], [], [], []
    for i, node in enumerate(nodes):
        phi = cuts.get(word_index(node.word, F.m))
        for j, tgt in enumerate(nodes):
            if node.side is not None:
                verdict = _certify_side(F, node.word, node.side, tgt, phi, refine_depth, budget)
                if verdict is None:
                    raise AmbiguousContainment(
                        f"edge {node.label} -> {tgt.label} undecidable at "
                        f"refinement depth {refine_depth}"
                    )
                if not verdict:
                    continue
            sim = affine_restriction(F, node.word, tgt.hull)
            src.append(i)
            dst.append(j)
            ratio.append(sim.ratio)
            offset.append(sim.offset)
    return Gdifs(tuple(nodes), src, dst, ratio, offset)


def _push(F: Cplifs, w: Word, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of the intervals [lo, hi] under f_w, folded right to left."""
    for k in w[::-1]:
        out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
        _image_into(F.map(k), lo, hi, out_lo, out_hi)
        lo, hi = out_lo, out_hi
    return lo, hi


def _certify_side(
    F: Cplifs,
    w: Word,
    side: str,
    tgt: GdifsNode,
    phi: float,
    depth: int,
    budget: int,
) -> bool | None:
    """Decide whether f_w maps the piece of tgt into the ``side`` half
    ("left" or "right") of the cylinder of w cut at phi.

    Level 0 covers the piece by tgt's hull; level d >= 1 by level d of the
    sweep pushed through f_{tgt.word} and clipped to the hull, empty rows
    dropped (none left: False).  With tol = ``F.geom_tol()``, a level is
    ``below`` when all its images under f_w lie at or below phi + tol and
    ``above`` when all lie at or above phi - tol.  The first level with
    either verdict decides: True when it is the half's own (below for
    left, above for right), else False.  None when no level up to
    ``depth`` decides.  The sweep stops at the deepest d with
    m**d <= budget; BudgetExceeded when the verdict is still open there,
    short of ``depth``.

    A row at least tol inside the hull keeps its subrows, unclipped, at
    every deeper level, and their images stay within rounding of its own.
    So once one such row maps below phi - 2 tol and another above
    phi + 2 tol, no deeper level decides, and the sweep ends there as it
    would at ``depth``.
    """
    tol = F.geom_tol()
    a, b = lo, hi = tgt.hull
    for k in w[::-1]:  # level 0: the image of the hull
        lo, hi = image_interval(F.map(k), (lo, hi))
    n_max = depth
    while n_max > 0 and F.m**n_max > budget:
        n_max -= 1
    deeper = itertools.islice(level_sweep(F, n_max, budget), 1, None)
    for d in range(n_max + 1):
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
            break
    if n_max < depth:
        raise BudgetExceeded(F.m ** (n_max + 1), budget, "certification sweep")
    return None


# ---------------------------------------------------------------------------
# punctured approximation


@dataclass(frozen=True)
class PuncturedLevel:
    level: int
    value: float
    kept: int
    dropped: tuple[Word, ...]
    scc_size: int
    whole_graph_strongly_connected: bool
    graph: Gdifs


def punctured_level(F: Cplifs, k: int, budget: int = DEFAULT_BUDGET) -> PuncturedLevel:
    """Drop the level-k cylinders that contain a breaking point, connect
    the rest by the one-step shift on words, and take the dimension of the
    largest strongly connected piece.

    Containment is that of the exact closed cylinder (the system the float
    parameters define). Cylinders whose computed endpoints lie farther than
    3 ``sweep_error`` from every breaking point are kept; each one nearer is
    decided on its rational enclosure (``cylinder_enclosure``), and a
    verdict that the enclosure cannot settle raises AmbiguousContainment.
    """
    if k < 2:
        raise ValueError("punctured approximation needs level k >= 2")
    if any(not f.is_injective() for f in F.maps):
        raise ValueError("punctured approximation requires injective maps")
    iosc = check_iosc(F)
    if not iosc.ok:
        raise IoscViolated("punctured approximation requires disjoint first cylinders")
    lo, hi = cylinder_arrays(F, k, budget)
    points = np.array(sorted({b for _, b in F.breaking_points()}))
    # 3E: E for the endpoint, E for rounding lo - pad and hi + pad, E spare
    pad = 3.0 * sweep_error(F)
    near = (lo[:, None] - pad <= points) & (points <= hi[:, None] + pad)
    drop = near.any(axis=1)  # the candidates, each decided below
    for i in np.flatnonzero(drop).tolist():
        word = index_word(i, F.m, k)
        inner, outer = cylinder_enclosure(F, word)
        bs = [Fraction(b) for b in points[near[i]].tolist()]
        drop[i] = inner is not None and any(inner[0] <= b <= inner[1] for b in bs)
        if not drop[i] and any(outer[0] <= b <= outer[1] for b in bs):
            raise AmbiguousContainment(
                f"rounding cannot settle whether level-{k} cylinder {word_str(word)} "
                f"contains a breaking point"
            )
    kept = np.flatnonzero(~drop)  # word indices, in lexicographic order
    if not kept.size:
        raise EmptyGraph(f"all level-{k} cylinders contain breaking points")

    # Edges w -> w' for the shift successors w' = (w % m^(k-1)) m + b that
    # are kept, in (src, dst) order, which fixes the summation order of the
    # Perron matvecs; f_{w[0]} is affine on a kept cylinder.
    m, tail = F.m, F.m ** (k - 1)
    node = np.full(lo.size, -1)  # node of each kept word, -1 if dropped
    node[kept] = np.arange(kept.size)
    succ = ((kept % tail) * m)[:, None] + np.arange(m)
    src, col = np.nonzero(node[succ] >= 0)
    w2 = succ[src, col]
    first = kept[src] // tail
    ratio, offset = np.empty(src.size), np.empty(src.size)
    for i, f in enumerate(F.maps):
        sel = first == i
        piece = np.searchsorted(f.breaks, lo[w2[sel]], side="right")
        bad = np.flatnonzero(piece != np.searchsorted(f.breaks, hi[w2[sel]], side="right"))
        if bad.size:
            raise AmbiguousContainment(
                f"map {i + 1} breaks inside kept cylinder "
                f"{word_str(index_word(int(w2[sel][bad[0]]), m, k))}"
            )
        ratio[sel] = np.asarray(f.slopes)[piece]
        offset[sel] = np.asarray(f._intercepts)[piece]
    dst = node[w2]

    labels = strongly_connected_components(kept.size, src, dst)
    inner = labels[src] == labels[dst]
    sizes = np.bincount(labels)
    # the largest component with an internal edge; argmax keeps the one
    # with the smallest node index on a tie
    sizes[np.bincount(labels[src[inner]], minlength=sizes.size) == 0] = 0
    best = int(np.argmax(sizes))
    if not sizes[best]:
        raise EmptyGraph(f"level-{k} punctured graph has no cycles")

    members = np.flatnonzero(labels == best)
    pos = np.full(kept.size, -1)  # node of the SCC graph, -1 outside it
    pos[members] = np.arange(members.size)
    on = inner & (labels[src] == best)
    words = kept[members]
    digits = words[:, None] // m ** np.arange(k - 1, -1, -1) % m + 1
    nodes = tuple(
        GdifsNode(word=tuple(d), side=None, hull=(a, b))
        for d, a, b in zip(digits.tolist(), lo[words].tolist(), hi[words].tolist())
    )
    graph = Gdifs(nodes, pos[src[on]], pos[dst[on]], ratio[on], offset[on])
    return PuncturedLevel(
        level=k,
        value=_spectral_root(graph),  # one SCC of the graph: no second pass
        kept=kept.size,
        dropped=tuple(index_word(w, m, k) for w in np.flatnonzero(drop).tolist()),
        scc_size=members.size,
        whole_graph_strongly_connected=sizes.size == 1,
        graph=graph,
    )


def punctured_dimension(F: Cplifs, k: int, budget: int = DEFAULT_BUDGET) -> float:
    return punctured_level(F, k, budget).value


# ---------------------------------------------------------------------------
# finite-depth separation diagnostic


@dataclass(frozen=True)
class EscReport:
    """Minimal distance between distinct n-fold compositions.

    A finite-depth diagnostic only: no finite level proves the exponential
    separation property.
    """

    level: int
    delta: float
    delta_root: float
    compositions: int


def esc_diagnostic(
    sims: Sequence[GeneratedSimilarity | AffineMap | tuple[float, float]],
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> EscReport:
    """Delta_n = min over distinct composition pairs of the similarity
    distance: infinite when the ratios differ, the offset gap otherwise."""
    if n < 1:
        raise ValueError("level must be >= 1")
    pairs = []
    for s in sims:
        if isinstance(s, (GeneratedSimilarity, AffineMap)):
            pairs.append((s.ratio, s.offset))
        else:
            r, t = s
            pairs.append((float(r), float(t)))
    M = len(pairs)
    if M == 0:
        raise ValueError("need at least one similarity")
    if M**n > budget:
        raise BudgetExceeded(M**n, budget, "compositions")
    base_r = np.array([r for r, _ in pairs])
    base_t = np.array([t for _, t in pairs])
    r = np.array([1.0])
    t = np.array([0.0])
    for _ in range(n):
        r, t = (
            np.concatenate([rk * r for rk in base_r]),
            np.concatenate([rk * t + tk for rk, tk in pairs]),
        )
    order = np.lexsort((t, r))
    r, t = r[order], t[order]
    same = np.isclose(r[1:], r[:-1], rtol=1e-12, atol=0.0)
    if not same.any():
        delta = math.inf
    else:
        delta = float(np.min(np.abs(t[1:] - t[:-1])[same]))
    root = delta ** (1.0 / n) if math.isfinite(delta) and delta > 0 else delta
    return EscReport(level=n, delta=delta, delta_root=root, compositions=int(M**n))


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class DimConfig:
    """Settings of the dimension methods in METHODS:

    n_min: lowest level n of the partition-sum roots s_n (natural).
    n_max: highest level n of the partition-sum roots s_n; the natural
        estimate is the maximum over the last ``pressure.WINDOW``.
    punctured_k: cylinder level k of the punctured approximation t_k.
    box_samples: chaos-game samples fed to the box count.
    seed: chaos-game sampling seed.
    codes: breaking-point codes for the gdifs route; None detects short ones.
    budget: cap on enumerated cylinder intervals.
    agreement_tol: largest |diff| accepted between natural, gdifs and determinant.
    """

    n_min: int = 6
    n_max: int = 11
    punctured_k: int = 6
    box_samples: int = 200_000
    seed: int = 20240801
    codes: tuple[BreakCode, ...] | None = None
    budget: int = DEFAULT_BUDGET
    agreement_tol: float = 5e-2


@dataclass(frozen=True)
class MethodEstimate:
    method: str
    value: float | None
    detail: str = ""
    error: str | None = None


@dataclass(frozen=True)
class DimReport:
    estimates: tuple[MethodEstimate, ...]
    flags: tuple[str, ...]
    consistent: bool

    def value(self, method: str) -> float | None:
        for e in self.estimates:
            if e.method == method:
                return e.value
        return None


def auto_codes(F: Cplifs) -> tuple[BreakCode, ...]:
    """Detect short codes for breaking points: a point fixed by its own
    map, or the one-step image of some map's fixed point."""
    tol = max(F.geom_tol(), 1e-11)
    out = []
    seen = set()
    for _, b in F.breaking_points():
        if b in seen:
            continue
        seen.add(b)
        found = None
        for k in range(1, F.m + 1):
            if abs(F.map(k)(b) - b) <= tol:
                found = BreakCode(point=b, prefix=(), period=(k,))
                break
        if found is None:
            for i in range(1, F.m + 1):
                for j in range(1, F.m + 1):
                    y = F.map(j).fixed_point()
                    if abs(F.map(i)(y) - b) <= tol:
                        found = BreakCode(point=b, prefix=(i,), period=(j,))
                        break
                if found:
                    break
        if found is not None and verify_breaking_code(F, found.point, found.prefix, found.period).ok:
            out.append(found)
    return tuple(out)


def _natural(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    est = natural_dimension(F, c.n_min, c.n_max, budget=c.budget)
    return est.estimate, f"s_n over n={c.n_min}..{c.n_max}, tail spread {est.spread:.2e}", est


def _gdifs(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    codes = c.codes if c.codes is not None else auto_codes(F)
    g = associate_from_periodic(F, codes, budget=c.budget)
    return alpha(g), f"{g.q} nodes, {g.src.size} edges, {len(codes)} codes", (g, codes)


def _punctured(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    pl = punctured_level(F, c.punctured_k, c.budget)
    detail = f"level {pl.level}, kept {pl.kept}, dropped {len(pl.dropped)}, scc {pl.scc_size}"
    return pl.value, detail, pl


def _determinant(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    det = detect_fixed_point_family(F)
    if det is None:
        raise NotApplicable("not a fixed-point-breaking family", "determinant")
    return q_root(det), f"slopes {det.slopes}", det


def _box(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    cloud = oracle.chaos_game(F, c.box_samples, seed=c.seed)
    fit = oracle.box_dimension(cloud, oracle.default_box_scales(F))
    return fit.slope, f"{c.box_samples} samples, residual {fit.residual:.2e}", fit


# Each method maps (F, config) to (value, report detail, solved object).
# The entries look their solvers up as module globals at call time, so a
# caller that rebinds them (tracing, say) sees every call.
METHODS = {
    "natural": _natural,
    "gdifs": _gdifs,
    "punctured": _punctured,
    "determinant": _determinant,
    "box": _box,
}


def dim_report(F: Cplifs, config: DimConfig = DimConfig()) -> DimReport:
    """Run every method of METHODS; per-method failures are recorded
    rather than raised."""
    estimates: list[MethodEstimate] = []
    values: dict[str, float] = {}
    for method, run in METHODS.items():
        try:
            value, detail, _ = run(F, config)
        except Exception as exc:
            error = exc.reason if isinstance(exc, NotApplicable) else f"{type(exc).__name__}: {exc}"
            estimates.append(MethodEstimate(method, None, error=error))
        else:
            values[method] = value
            estimates.append(MethodEstimate(method, value, detail=detail))

    flags: list[str] = []
    consistent = True
    dims = {
        m: values[m] if m == "natural" else min(1.0, values[m])
        for m in ("natural", "gdifs", "determinant")
        if m in values
    }
    for a, b in itertools.combinations(sorted(dims), 2):
        d = abs(dims[a] - dims[b])
        ok = d <= config.agreement_tol
        consistent &= ok
        flags.append(f"{a} vs {b}: |diff| = {d:.3e} ({'ok' if ok else 'DISAGREE'})")
    if "punctured" in values and "gdifs" in dims:
        p, g = values["punctured"], dims["gdifs"]
        ok = p <= g + 1e-6
        consistent &= ok
        flags.append(f"punctured <= gdifs: {p:.8f} <= {g:.8f} ({'ok' if ok else 'VIOLATED'})")
    if "box" in values and dims:
        box, ref = values["box"], min(1.0, max(dims.values()))
        rep = upper_box_consistency(ref, box)
        consistent &= rep.consistent
        flags.append(
            f"box <= min(1, dim) + {BOX_SLACK}: {box:.4f} vs {ref:.4f} "
            f"({'ok' if rep.consistent else 'VIOLATED'})"
        )
    return DimReport(estimates=tuple(estimates), flags=tuple(flags), consistent=consistent)

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
from typing import Callable, Sequence

import numpy as np

from .core import (
    AffineMap,
    BreakCode,
    Cplifs,
    DEFAULT_BUDGET,
    Interval,
    PLMap,
    Word,
    _contained,
    _image_into,
    affine_restriction,
    check_iosc,
    cylinder_arrays,
    cylinder_enclosure,
    index_word,
    level_sweep,
    periodic_point,
    regularity_diagnostic,
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
    PlifsError,
    RootMismatch,
    UnverifiedCode,
)
from .specfile import fmt

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
        return _label(self.word, self.side)


_SIDES = (None, "left", "right")  # GdifsNode.side of each code in Gdifs.sides


def _label(word: Word, side: str | None) -> str:
    return f"{word_str(word) or '-'}:{side or 'full'}"


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
    """A multigraph with one similarity per edge, held as arrays.  Node i is
    the cylinder of words[i] (a row of digits 1..m), whole (sides[i] = 0) or
    its left (1) or right (2) half, with hull [lo[i], hi[i]]; edge e, as in
    EdgeMatrix, runs from src[e] to dst[e] and carries ratio[e] x + offset[e]."""

    words: np.ndarray
    sides: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ratio: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        for name, dtype in (("words", np.intp), ("sides", np.intp), ("lo", float),
                            ("hi", float), ("src", np.intp), ("dst", np.intp),
                            ("ratio", float), ("offset", float)):
            a = np.array(getattr(self, name), dtype=dtype)  # a copy the caller cannot reach
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not len(self.words) == self.sides.size == self.lo.size == self.hi.size:
            raise ValueError("node arrays differ in length")
        if ((self.sides < 0) | (self.sides > 2)).any():
            raise ValueError("node side code not 0, 1 or 2")
        if not self.src.size == self.dst.size == self.ratio.size == self.offset.size:
            raise ValueError("edge arrays differ in length")
        q, size = self.q, np.abs(self.ratio)
        out = (self.src < 0) | (self.src >= q) | (self.dst < 0) | (self.dst >= q)
        bad = np.flatnonzero(out | ~((0.0 < size) & (size < 1.0)))
        if bad.size and out[bad[0]]:
            raise ValueError("edge endpoint out of range")
        if bad.size:
            raise ValueError(f"edge ratio {float(self.ratio[bad[0]])} not in (0, 1) in modulus")

    @property
    def q(self) -> int:
        return self.sides.size

    @property
    def nodes(self) -> tuple[GdifsNode, ...]:
        """One record per node, in array order; built on each access."""
        return tuple(map(GdifsNode, map(tuple, self.words.tolist()),
                         [_SIDES[s] for s in self.sides.tolist()],
                         zip(self.lo.tolist(), self.hi.tolist())))

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
                f"side={node.side or 'full'} hull={fmt(lo)},{fmt(hi)}"
            )
        for e in sorted(self.edges, key=lambda e: (e.src, e.dst, e.ratio, e.offset)):
            lines.append(
                f"edge {e.src} {e.dst} ratio={fmt(e.ratio)} offset={fmt(e.offset)}"
            )
        return "\n".join(lines) + "\n"


def strongly_connected_components(q: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each of the q nodes of the graph with edges
    src[e] -> dst[e]; labels count the components in the order of their
    smallest node index.

    Forward-backward reachability with trimming, each step one pass over
    the edges between live nodes: a live node with no live in-edge or no
    live out-edge is its own component and is trimmed, until none is left;
    then the component of the smallest live node is its forward reach
    intersected with its backward reach, and its nodes leave the live set.
    """
    src, dst = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    rep = np.arange(q)  # smallest node of each node's component
    live = np.ones(q, dtype=bool)

    def reach(v: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        seen = np.zeros(q, dtype=bool)
        seen[v] = True
        count = 1
        while True:
            seen[b[seen[a]]] = True
            count, last = int(np.count_nonzero(seen)), count
            if count == last:
                return seen

    while True:
        keep = live[src] & live[dst]
        src, dst = src[keep], dst[keep]
        has_out, has_in = np.zeros(q, dtype=bool), np.zeros(q, dtype=bool)
        has_out[src], has_in[dst] = True, True
        trim = live & ~(has_out & has_in)
        if trim.any():
            live &= ~trim  # trimmed nodes keep rep = themselves
            continue
        if not live.any():
            break
        v = int(np.argmax(live))
        comp = reach(v, src, dst) & reach(v, dst, src)
        rep[comp] = v
        live &= ~comp
    return np.unique(rep, return_inverse=True)[1]


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

# A side-only solve of perron_root ends once its bounds lie on one side of 1
# and their gap is at most _SIDE_RATIO times the distance of their midpoint
# from 1: a root solver reads the side, and the value only for its secant.
_SIDE_RATIO = 1e-2

# _root_rho clips the log entries of each warm start to this far below their
# maximum, so the start stays a positive vector of normal floats.
_LOG_FLOOR = -700.0


def perron_root(
    M: EdgeMatrix,
    cap: int | None = None,
    start: np.ndarray | None = None,
    side_only: bool = False,
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

    ``side_only`` is the mode of a root solve, which needs rho's side of 1
    and a rough value: the midpoint of the bounds is returned as soon as
    they lie on one side of 1 with a gap of at most ``_SIDE_RATIO`` times
    its distance from 1. A solve that does not get there ends as above.
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
        gap, mid = hi - lo, 0.5 * (lo + hi)
        if gap <= _PERRON_TOL * max(1.0, hi):
            return mid
        if side_only and (lo > 1.0 or hi < 1.0) and gap <= _SIDE_RATIO * abs(mid - 1.0):
            return mid
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


def _root_rho(M: EdgeMatrix) -> Callable[..., float]:
    """rho(s) of the matrices ``M.at(s)`` for a root solve: each call is
    one side-only `perron_root` solve, certified on its side of 1 (or
    closed to ``_PERRON_TOL`` near 1), or with ``side_only=False`` a solve
    closed to ``_PERRON_TOL``. The first solve starts from the
    all-ones vector, the second from the first's eigenvector, and each later
    one from the last two solves' eigenvectors extrapolated linearly in s in
    log space, its log entries clipped to ``_LOG_FLOOR`` below their
    maximum. The points s must be distinct, as `bisect_decreasing`'s are.
    """
    last: list[tuple[float, np.ndarray]] = []  # (s, log eigenvector), last two solves

    def rho(s: float, side_only: bool = True) -> float:
        if len(last) == 2:
            (s0, u0), (s1, u1) = last
            u = u1 + ((s - s1) / (s1 - s0)) * (u1 - u0)
            v = np.exp(np.maximum(u - np.max(u), _LOG_FLOOR))
        else:
            v = np.exp(last[0][1]) if last else np.ones(M.q)
        r = perron_root(M.at(s), start=v, side_only=side_only)
        # a last iterate may hold an underflowed 0, which the floor keeps finite
        last[:] = [*last[-1:], (s, np.log(np.maximum(v, np.finfo(float).tiny)))]
        return r

    return rho


def _spectral_root(g: Gdifs) -> float:
    """`alpha` of a graph already known to be strongly connected: the root
    of log rho(s), each rho(s) from a side-only solve (`_root_rho`)."""
    rho = _root_rho(g.spectral_matrix())
    r0 = rho(0.0)
    if r0 < 1.0 - 1e-12:
        raise ConvergenceFailure("spectral radius below 1 at s = 0")
    if r0 <= 1.0 + 1e-12:
        return 0.0
    return bisect_decreasing(
        lambda s: math.log(r0 if s == 0.0 else rho(s)), _ROOT_TOL, "spectral root"
    )


# ---------------------------------------------------------------------------
# determinant recursion for the fixed-point-breaking family


@dataclass(frozen=True)
class DetRecursion:
    """Determinant function of the family whose middle maps break at their
    own fixed points, parameterized by the ordered slope list.

    Slope i (1-based) belongs to the i-th node of the associated graph in
    hull order, numbered as in `build_fixed_point_family`.
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

    def spectral_matrix(self) -> EdgeMatrix:
        """The incidence edges weighted by the slope of their row, as in
        `Gdifs.spectral_matrix`; ``.at(s)`` is C(s)."""
        src, dst = np.nonzero(self.incidence())
        return EdgeMatrix(len(self.slopes), src, dst, np.array(self.slopes)[src])

    def matrix(self, s: float) -> np.ndarray:
        """C(s) minus the identity; its determinant is the determinant
        function evaluated at s."""
        return self.spectral_matrix().at(s).dense() - np.eye(len(self.slopes))


def q_recursion(d: DetRecursion, s: float) -> float:
    """Determinant function det(C(s) - Id) with no dense matrix, built
    bottom-up from the 2 x 2 block together with the bordered minors of
    the current size.

    Each growth step expands by the second row from below; a bordered
    minor erases one column and appends the top of the next size's last
    column.
    """
    u = [sl**s for sl in d.slopes]
    q = 1.0 - u[0] - u[1]
    minors = [u[0] * (1.0 - u[1]), -u[0] * u[1]]
    for size in range(2, len(u), 2):
        w, v = u[size], u[size + 1]
        alt = sum((-1) ** (i + 1) * minors[i] for i in range(size))
        minors = [(1.0 - v) * mi for mi in minors] + [w * (1.0 - v) * q, v * (alt - w * q)]
        q = (1.0 - v - w) * q + v * alt
    return q


def q_root(d: DetRecursion) -> float:
    """The determinant root that coincides with the spectral crossing,
    bracketed to width ``_ROOT_TOL``.

    The determinant vanishes at s = 0 as well, so one root solve takes the
    signed value log rho(s) of the certified spectral radius, each rho(s)
    from a side-only solve (`_root_rho`), and, where rho lies within the
    error band of a certified value (``_PERRON_BAND``) of 1, -Q(s) instead
    (a side-only solve returns such a rho only once its bounds have
    closed). The sign of Q decides there: Q(s) = det(C(s) - Id) is the
    product of lambda - 1 over the eigenvalues of C(s), whose size 2m - 2
    is even. Above the crossing every eigenvalue has modulus below 1, so
    the real factors are negative and even in number, and Q > 0. Just
    below it the Perron factor is positive and the other real eigenvalues
    are odd in number and all below 1, so Q < 0. The closing check is a
    full solve at the root, started like the root solves from their last
    eigenvectors, whose rho must lie within 1e-10 of 1.
    """
    rho = _root_rho(d.spectral_matrix())

    def g(s: float) -> float:
        r = rho(s)
        if abs(r - 1.0) > _PERRON_BAND:
            return math.log(r)
        return -q_recursion(d, s) or BELOW  # Q = 0 counts as below the root

    root = bisect_decreasing(g, _ROOT_TOL, "determinant root")
    if abs(rho(root, side_only=False) - 1.0) > 1e-10:
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
    final slope, and middle map k breaks at its fixed point phi_k with
    slopes number 2k-2 and 2k-1 (1-based).  First cylinders must be
    pairwise disjoint.  The graph is `associate_from_periodic` with the
    codes ``BreakCode(phi_k, (), (k,))``: node 1 is the first cylinder,
    nodes 2k-2 and 2k-1 the halves of cylinder k cut at phi_k, node 2m-2
    the last cylinder, and its edges are those of ``DetRecursion.incidence``.
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

    codes = tuple(BreakCode(phi, (), (k,)) for k, phi in enumerate(phis, 2))
    return FixedPointFamily(system, associate_from_periodic(system, codes), det)


def detect_fixed_point_family(
    F: Cplifs, budget: int = DEFAULT_BUDGET, graph: Gdifs | None = None
) -> DetRecursion | None:
    """The determinant recursion of F when its association is the graph of
    the fixed-point-breaking family, else None.  In hull order, the nodes of
    ``associate_from_periodic(F, auto_codes(F), budget)``, or of ``graph``
    where a caller has solved that association already, must have, each
    compared exactly:
    - disjoint hulls, but for the cut that two halves share;
    - one ratio on the edges from each node, its row ratio;
    - the maps' slopes as the multiset of the row ratios;
    - ``DetRecursion(row ratios).incidence()`` as the 0/1 edge matrix.
    None before any association unless m >= 3, two maps have no break and
    the others one, and every slope is positive; None when the association
    fails, but for BudgetExceeded, which is raised."""
    if F.m < 3:
        return None
    if sorted(len(f.breaks) for f in F.maps) != [0, 0] + [1] * (F.m - 2):
        return None
    slopes = sorted(s for f in F.maps for s in f.slopes)
    if slopes[0] <= 0:
        return None
    try:
        g = graph if graph is not None else associate_from_periodic(F, auto_codes(F), budget)
    except BudgetExceeded:
        raise
    except PlifsError:
        return None

    order = np.lexsort((g.hi, g.lo))  # node indices in hull order
    lo, hi, sides, words = g.lo[order], g.hi[order], g.sides[order], g.words[order]
    cut_halves = (sides[:-1] == 1) & (sides[1:] == 2) & (words[:-1] == words[1:]).all(axis=1)
    if not ((hi[:-1] < lo[1:]) | cut_halves).all():
        return None

    rank = np.argsort(order)  # hull-order place of each node
    src, dst = rank[g.src], rank[g.dst]
    ratios = np.full(g.q, np.nan)
    ratios[src] = g.ratio
    if (g.ratio != ratios[src]).any():
        return None
    if sorted(ratios.tolist()) != slopes:
        return None

    det = DetRecursion(tuple(ratios.tolist()))
    edges = np.zeros((g.q, g.q), dtype=int)
    np.add.at(edges, (src, dst), 1)
    if not np.array_equal(edges, det.incidence()):
        return None
    return det


# ---------------------------------------------------------------------------
# association from periodic breaking-point codes


def associate_from_periodic(
    F: Cplifs,
    codes: Sequence[BreakCode] = (),
    budget: int = DEFAULT_BUDGET,
) -> Gdifs:
    """Associate a self-similar graph system with F, given verified
    periodic codes for the on-attractor breaking points.

    Nodes are the cylinders at the level P = lcm of the code periods; a
    cylinder whose interior holds a coded breaking point is cut at that
    point (the fixed point of its composition) into a left and a right
    half.  There is an edge (A, A') exactly when f_{word(A)} maps the
    piece A' into A.  For an uncut A this always holds; for a half it is
    one image-space test against the cut point (``_certify_side``), made
    once per cut and A' for both halves: the images of ever finer covers
    of A' from the level sweep must all lie on A's side.  Folded maps need
    no special case.  AmbiguousContainment when no level up to
    ``_REFINE_DEPTH`` decides an edge.
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
            if lo[i] + tol < phi < hi[i] - tol:
                if abs(cuts.setdefault(i, phi) - phi) > tol:
                    raise AmbiguousContainment(
                        f"two distinct cut points for cylinder {word_str(w)}"
                    )

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
            if _contained(F, b, _REFINE_DEPTH, budget, w):
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
                    f"at refinement depth {_REFINE_DEPTH}"
                )

    # nodes in word order, the left half of a cut word before its right half
    ci = np.array(sorted(cuts), dtype=np.intp)
    word_of = np.insert(np.arange(lo.size), ci, ci)  # word index of each node
    left = ci + np.arange(ci.size)  # node of each cut word's left half
    sides, nlo, nhi = np.zeros(word_of.size, dtype=np.intp), lo[word_of], hi[word_of]
    sides[left], sides[left + 1] = 1, 2
    nhi[left] = nlo[left + 1] = [cuts[i] for i in ci.tolist()]
    words = word_of[:, None] // F.m ** np.arange(P - 1, -1, -1) % F.m + 1

    src, dst, ratio, offset, halves = [], [], [], [], {}
    nodes = list(zip(map(tuple, words.tolist()), sides.tolist(),
                     zip(nlo.tolist(), nhi.tolist()), word_of.tolist()))
    for i, (w, side, _, wi) in enumerate(nodes):
        for j, (tw, tside, hull, _) in enumerate(nodes):
            if side == 1:  # the left half comes first: one verdict for both halves
                if (got := _certify_side(F, w, tw, hull, cuts[wi], _REFINE_DEPTH, budget)) is None:
                    raise AmbiguousContainment(
                        f"edge {_label(w, 'left')} -> {_label(tw, _SIDES[tside])} undecidable at "
                        f"refinement depth {_REFINE_DEPTH}"
                    )
                halves[j] = got
            if side and side not in halves[j]:
                continue
            sim = affine_restriction(F, w, hull)
            src.append(i)
            dst.append(j)
            ratio.append(sim.ratio)
            offset.append(sim.offset)
    return Gdifs(words, sides, nlo, nhi, src, dst, ratio, offset)


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
    tw: Word,
    hull: Interval,
    phi: float,
    depth: int,
    budget: int,
) -> tuple[int, ...] | None:
    """The halves of the cylinder of w cut at phi that f_w maps the piece
    of I_tw within ``hull`` into, by their codes in ``Gdifs.sides``: 1 the
    left, 2 the right.

    Level d of the sweep, read whole, chunk by chunk, is pushed through f_tw
    and clipped to the hull, empty rows dropped (none left: ``()``); level 0
    is I_tw clipped, the hull itself for each node the association builds.
    With tol = ``F.geom_tol()``, a level is ``below`` when all its images
    under f_w lie at or below phi + tol and ``above`` when all lie at or
    above phi - tol.  The first level with either verdict decides: (1,)
    below, (2,) above, (1, 2) both.  None when no level up to ``depth``
    decides.  The sweep stops at the deepest d with m**d <= budget;
    BudgetExceeded when the verdict is still open there, short of ``depth``.

    A row at least tol inside the hull keeps its subrows, unclipped, at
    every deeper level, and their images stay within rounding of its own.
    So once one such row maps below phi - 2 tol and another above
    phi + 2 tol, no deeper level decides, and the sweep ends there as it
    would at ``depth``.
    """
    tol = F.geom_tol()
    a, b = hull
    n_max = depth
    while n_max > 0 and F.m**n_max > budget:
        n_max -= 1
    for level in level_sweep(F, n_max, budget):
        lo, hi = math.inf, -math.inf
        low = high = False  # an inside row maps below phi - 2 tol, one above phi + 2 tol
        for clo, chi in level:
            rlo, rhi = _push(F, tw, clo, chi)
            inside = (a + tol <= rlo) & (rhi <= b - tol)
            rlo, rhi = np.maximum(rlo, a), np.minimum(rhi, b)
            keep = rlo <= rhi
            if not keep.any():
                continue
            inside = inside[keep]
            rlo, rhi = _push(F, w, rlo[keep], rhi[keep])
            lo, hi = min(lo, rlo.min()), max(hi, rhi.max())
            low = low or (rhi[inside] < phi - 2 * tol).any()
            high = high or (rlo[inside] > phi + 2 * tol).any()
        if lo > hi:  # no row left
            return ()
        below, above = hi <= phi + tol, lo >= phi - tol
        if below or above:
            return (1,) * bool(below) + (2,) * bool(above)
        if low and high:
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
    graph = Gdifs(digits, np.zeros_like(words), lo[words], hi[words],
                  pos[src[on]], pos[dst[on]], ratio[on], offset[on])
    return PuncturedLevel(
        level=k,
        value=_spectral_root(graph),  # one SCC of the graph: no second pass
        kept=kept.size,
        dropped=tuple(index_word(w, m, k) for w in np.flatnonzero(drop).tolist()),
        scc_size=members.size,
        whole_graph_strongly_connected=sizes.size == 1,
        graph=graph,
    )


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


def esc_diagnostic(sims: Sequence[AffineMap], n: int, budget: int = DEFAULT_BUDGET) -> EscReport:
    """Delta_n = min over distinct composition pairs of the similarity
    distance: infinite when the ratios differ, the offset gap otherwise."""
    if n < 1:
        raise ValueError("level must be >= 1")
    M = len(sims)
    if M == 0:
        raise ValueError("need at least one similarity")
    if M**n > budget:
        raise BudgetExceeded(M**n, budget, "compositions")
    base_r = np.array([f.ratio for f in sims])
    r = np.array([1.0])
    t = np.array([0.0])
    for _ in range(n):
        r, t = (
            np.concatenate([rk * r for rk in base_r]),
            np.concatenate([f.ratio * t + f.offset for f in sims]),
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
    budget: cap on enumerated cylinder intervals and frontier nodes.
    agreement_tol: largest |diff| (finite, >= 0) accepted between natural, gdifs, determinant.
    """

    n_min: int = 6
    n_max: int = 11
    punctured_k: int = 6
    budget: int = DEFAULT_BUDGET
    agreement_tol: float = 5e-2

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")
        if self.punctured_k < 2:
            raise ValueError("punctured approximation needs level k >= 2")
        if not 0.0 <= self.agreement_tol < math.inf:
            raise ValueError(f"agreement tolerance {self.agreement_tol} is not finite and >= 0")


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


#: Length of the containment witnesses that ``auto_codes`` reads codes off:
#: |prefix| + |period| <= 12 / 3.
_CODE_DEPTH = 4

#: Deepest level at which ``associate_from_periodic`` decides a containment
#: or an edge of a cut cylinder.
_REFINE_DEPTH = 12


def auto_codes(F: Cplifs) -> tuple[BreakCode, ...]:
    """Codes for the breaking points, read off their containment witnesses.

    Every level-``_CODE_DEPTH`` word w whose cylinder holds a break offers
    each split (w[:a], w[a:t]) that w repeats to its end.  Candidates run
    by shorter t, then witness, then shorter prefix; the first whose
    cylinder I_{prefix . period^3} still holds the break and that passes
    ``verify_breaking_code`` is the break's code.
    """
    out = []
    witnesses = {st.point: st.witnesses for st in regularity_diagnostic(F, _CODE_DEPTH)}
    for b, words in witnesses.items():
        candidates = dict.fromkeys(
            (w[:a], w[a:t])
            for t in range(1, _CODE_DEPTH + 1)
            for w in words
            for a in range(t)
            if all(w[i] == w[i - (t - a)] for i in range(t, len(w)))
        )
        for prefix, period in candidates:
            if (
                _contained(F, b, 0, DEFAULT_BUDGET, prefix + period * 3)
                and verify_breaking_code(F, b, prefix, period).ok
            ):
                out.append(BreakCode(point=b, prefix=prefix, period=period))
                break
    return tuple(out)


def _natural(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    est = natural_dimension(F, c.n_min, c.n_max, budget=c.budget)
    return est.estimate, f"s_n over n={c.n_min}..{c.n_max}, tail spread {est.spread:.2e}", est


def _gdifs(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    codes = auto_codes(F)
    g = associate_from_periodic(F, codes, budget=c.budget)
    return alpha(g), f"{g.q} nodes, {g.src.size} edges, {len(codes)} codes", (g, codes)


def _punctured(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    pl = punctured_level(F, c.punctured_k, c.budget)
    detail = f"level {pl.level}, kept {pl.kept}, dropped {len(pl.dropped)}, scc {pl.scc_size}"
    return pl.value, detail, pl


def _determinant(F: Cplifs, c: DimConfig, graph: Gdifs | None = None) -> tuple[float, str, object]:
    det = detect_fixed_point_family(F, c.budget, graph)
    if det is None:
        raise NotApplicable("not a fixed-point-breaking family", "determinant")
    return q_root(det), f"slopes {det.slopes}", det


def _box(F: Cplifs, c: DimConfig) -> tuple[float, str, object]:
    box = oracle.frontier_box_count(F, c.budget)
    fit = box.fit
    gaps = [hi - lo for lo, hi in zip(box.lower, fit.counts)]
    exact = f"counts exact at {gaps.count(0)} scales"
    if any(gaps):
        exact = f"counts exact at {gaps.count(0)} of {len(gaps)} scales, largest gap {max(gaps)}"
    return fit.slope, f"frontier {box.nodes} nodes, {exact}, residual {fit.residual:.2e}", box


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
    rather than raised.  The determinant route reads the graph that the
    gdifs route associated, where it did, instead of associating again."""
    estimates: list[MethodEstimate] = []
    values: dict[str, float] = {}
    solved: dict[str, object] = {}
    for method, run in METHODS.items():
        shared = (solved["gdifs"][0],) if method == "determinant" and "gdifs" in solved else ()
        try:
            value, detail, solved[method] = run(F, config, *shared)
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

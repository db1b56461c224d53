import dataclasses
import hashlib
import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from plifs import BreakCode, Cplifs, PLMap
from plifs.core import (
    AffineMap,
    affine_restriction,
    cylinder_arrays,
    cylinder_interval,
    image_interval,
    level_sweep,
    periodic_point,
)
from plifs.errors import (
    AmbiguousContainment,
    BadFixedPointOrder,
    BudgetExceeded,
    ConvergenceFailure,
    EmptyGraph,
    IoscViolated,
    NonPeriodicCode,
    NotApplicable,
    NotStronglyConnected,
    UnverifiedCode,
)
from plifs.gdifs import (
    METHODS,
    DetRecursion,
    DimConfig,
    EdgeMatrix,
    Gdifs,
    GdifsEdge,
    GdifsNode,
    _certify_side,
    alpha,
    associate_from_periodic,
    auto_codes,
    build_fixed_point_family,
    detect_fixed_point_family,
    dim_report,
    esc_diagnostic,
    perron_root,
    punctured_level,
    q_recursion,
    q_root,
    strongly_connected_components,
)
from plifs import natural_dimension, solve_level_root, upper_box_consistency

from helpers import (
    assert_family_graph_matches_reference,
    cantor_pair,
    code_batch,
    conjugate,
    gdifs_of_edges,
    paper_example,
    period_two,
    random_family_instance,
    reference_certify_side,
    reflect,
    reference_perron_root,
    reference_periodic_point,
    reference_scc,
    three_break_mixed_signs,
)

LOG23 = math.log(2) / math.log(3)


def one_node(*ratios):
    return gdifs_of_edges(
        nodes=(GdifsNode((1,), None, (0.0, 1.0)),),
        edges=tuple(GdifsEdge(0, 0, r, 0.0) for r in ratios),
    )


# --- spectral radius and alpha -------------------------------------------------

def edges(A):
    """The nonzero entries of a dense square array as an EdgeMatrix."""
    src, dst = np.nonzero(A)
    return EdgeMatrix(A.shape[0], src, dst, A[src, dst])


def test_perron_small_matrices():
    assert perron_root(edges(np.array([[0.5]]))) == pytest.approx(0.5)
    # 2-cycle: periodic irreducible matrix, handled by the identity shift
    M = np.array([[0.0, 2.0], [8.0, 0.0]])
    assert perron_root(edges(M)) == pytest.approx(4.0, abs=1e-10)
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.uniform(0.0, 1.0, size=(5, 5)) + 0.01
        assert perron_root(edges(A)) == pytest.approx(
            max(abs(np.linalg.eigvals(A))), abs=1e-9
        )


def ring_with_chords(rng, q):
    """Irreducible sparse matrix: a ring plus random chords, some (src, dst)
    pairs listed twice."""
    src = np.concatenate([np.arange(q), rng.integers(0, q, 2 * q)])
    dst = np.concatenate([(np.arange(q) + 1) % q, rng.integers(0, q, 2 * q)])
    again = rng.integers(0, src.size, q // 2 + 1)
    src, dst = np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]])
    return EdgeMatrix(q, src, dst, rng.uniform(0.05, 1.0, src.size))


def test_perron_edge_matrix_properties():
    rng = np.random.default_rng(11)
    cases = [EdgeMatrix(2, np.array([0, 1]), np.array([1, 0]), np.array([2.0, 8.0]))]
    cases += [ring_with_chords(rng, q) for q in (3, 5, 8, 20, 50, 120)]
    for E in cases:
        dense = E.dense()
        ref = max(abs(np.linalg.eigvals(dense)))
        assert abs(perron_root(E) - ref) <= 1e-10
        assert abs(perron_root(edges(dense)) - ref) <= 1e-10
        v = rng.uniform(0.1, 10.0, E.q)
        before = v.copy()
        assert abs(perron_root(E, start=v) - perron_root(E, start=np.ones(E.q))) <= 1e-12
        assert np.all(v > 0.0) and not np.array_equal(v, before)


def test_perron_dense_fallback_guard():
    q = 5000
    ring = EdgeMatrix(q, np.arange(q), (np.arange(q) + 1) % q, np.linspace(0.5, 1.5, q))
    with pytest.raises(ConvergenceFailure):
        perron_root(ring, cap=1)
    # below the guard, an unconverged solve still falls back to the eigensolve
    A = np.random.default_rng(3).uniform(0.0, 1.0, size=(5, 5)) + 0.01
    assert perron_root(edges(A), cap=1) == max(abs(np.linalg.eigvals(A)))


def test_perron_stall_ends_reducible_solve():
    # two disjoint rings: the Collatz-Wielandt bounds settle at 0.5 and 0.6
    # and never close, where the default cap is 10 q^2 = 2.5e8 steps
    q, ring = 2500, np.arange(2500)
    pair = EdgeMatrix(2 * q, np.arange(2 * q), np.concatenate([(ring + 1) % q, q + (ring + 1) % q]),
                      np.repeat([0.5, 0.6], q))
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceFailure):
        perron_root(pair)
    assert time.perf_counter() - t0 < 1.0
    # below the dense guard a stalled solve takes the eigensolve fallback
    small = EdgeMatrix(4, np.arange(4), np.array([1, 0, 3, 2]), np.repeat([0.5, 0.6], 2))
    assert perron_root(small) == pytest.approx(0.6, abs=1e-15)


def count_perron_solves(monkeypatch) -> list:
    """Record the node count of every perron_root call the gdifs module makes."""
    calls = []

    def spy(M, *args, **kwargs):
        calls.append(M.q)
        return perron_root(M, *args, **kwargs)

    monkeypatch.setattr("plifs.gdifs.perron_root", spy)
    return calls


def test_root_solver_perron_solve_counts(monkeypatch):
    # plain bisection took 42 solves for each of these roots to 1e-12
    F = paper_example()
    g = associate_from_periodic(F, auto_codes(F))
    calls = count_perron_solves(monkeypatch)
    assert alpha(g) == pytest.approx(0.6030503229872011, abs=1e-12)
    assert len(calls) <= 16
    calls.clear()
    assert q_root(DetRecursion((0.25,) * 4)) == pytest.approx(math.log(3) / math.log(4), abs=1e-12)
    assert len(calls) <= 16
    calls.clear()
    assert punctured_level(F, 10).value == pytest.approx(0.6030479165017837, abs=1e-12)
    assert len(calls) <= 16


def perron_cases():
    """The matrices of test_perron_edge_matrix_properties."""
    rng = np.random.default_rng(11)
    cases = [EdgeMatrix(2, np.array([0, 1]), np.array([1, 0]), np.array([2.0, 8.0]))]
    return cases + [ring_with_chords(rng, q) for q in (3, 5, 8, 20, 50, 120)]


def test_perron_value_solve_is_the_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for E in perron_cases():
        ref = reference_perron_root(E)
        assert perron_root(E) == perron_root(E, side_only=False) == ref
        assert perron_root(E, cap=3) == reference_perron_root(E, cap=3)
        v = rng.uniform(0.1, 10.0, E.q)
        v_ref = v.copy()
        assert perron_root(E, start=v, side_only=False) == reference_perron_root(E, start=v_ref)
        assert np.array_equal(v, v_ref)


def side_only_cases():
    """(matrix, dense spectral radius): random irreducible matrices scaled
    to radii on both sides of 1, and the spectral matrices of the paper
    ladder k = 3..8 at 1e-3 and 1e-9 on either side of their root."""
    rng = np.random.default_rng(23)
    for q in (2, 3, 5, 8, 20, 50):
        E = ring_with_chords(rng, q)
        rho = max(abs(np.linalg.eigvals(E.dense())))
        for target in (0.3, 0.9, 1 - 1e-3, 1 - 1e-8, 1 + 1e-8, 1 + 1e-3, 1.1, 3.0):
            M = EdgeMatrix(q, E.src, E.dst, E.w * (target / rho))
            yield M, max(abs(np.linalg.eigvals(M.dense())))
    F = paper_example()
    for k in range(3, 9):
        pl = punctured_level(F, k)
        sm = pl.graph.spectral_matrix()
        for ds in (-1e-3, -1e-9, 1e-9, 1e-3):
            M = sm.at(pl.value + ds)
            yield M, max(abs(np.linalg.eigvals(M.dense())))


def test_side_only_solve_is_on_the_side_of_the_dense_radius(monkeypatch):
    from plifs.gdifs import _SIDE_RATIO

    fallbacks = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: fallbacks.append(A.shape) or eigvals(A))
    checked = early = 0
    for M, ref in side_only_cases():
        fallbacks.clear()
        r = perron_root(M, side_only=True)
        assert fallbacks == []  # certified by its own bounds
        if abs(ref - 1.0) <= 1e-10:
            continue
        checked += 1
        assert (r > 1.0) == (ref > 1.0)
        assert abs(r - ref) <= _SIDE_RATIO * abs(ref - 1.0) + 1e-14 * max(1.0, ref)
        early += abs(r - perron_root(M)) > 1e-12
    assert checked >= 60
    assert early >= checked // 3  # the mode ends solves before their bounds close


def test_root_solve_warm_starts_stay_positive_and_finite(monkeypatch):
    # ratios from 1e-3 to 0.9 and a root above 4: the bracket doubles to
    # s = 8, where the entries reach 1e-24 and the eigenvector spreads
    nodes = tuple(GdifsNode((i,), None, (0.0, 1.0)) for i in range(1, 5))
    ratios = {(0, 0): 0.9, (0, 1): 0.9, (1, 0): 0.9, (1, 1): 0.9, (1, 2): 1e-3,
              (2, 2): 0.85, (2, 3): 0.05, (3, 3): 0.5, (3, 0): 1e-3}
    g = gdifs_of_edges(nodes, tuple(GdifsEdge(i, j, r, 0.0) for (i, j), r in ratios.items()))
    starts, points, modes = [], [], []

    def spy(M, cap=None, start=None, side_only=False):
        starts.append(start.copy())
        points.append(math.log(M.w[0]) / math.log(g.ratio[0]))
        modes.append(side_only)
        return perron_root(M, cap, start, side_only)

    monkeypatch.setattr("plifs.gdifs.perron_root", spy)
    a = alpha(g)
    assert 4.0 < a < 8.0 and max(points) == pytest.approx(8.0)  # s from 0.9^s
    assert all(modes)
    assert all(np.all(np.isfinite(v)) and np.all(v > 0.0) for v in starts)
    assert min(v.min() for v in starts) < 1e-20  # the starts follow the spread
    sm = g.spectral_matrix()
    below, above = (max(abs(np.linalg.eigvals(sm.at(a + d).dense()))) for d in (-1e-9, 1e-9))
    assert below > 1.0 > above


def test_root_solve_start_is_clipped_to_the_log_floor(monkeypatch):
    # a far extrapolation (s = 0, 1, then 300) would push some start entries
    # below the smallest float; the clip keeps them at e^-700 of the largest
    from plifs.gdifs import _LOG_FLOOR, _root_rho

    rng = np.random.default_rng(5)
    E = ring_with_chords(rng, 12)
    E = EdgeMatrix(E.q, E.src, E.dst, np.geomspace(1e-3, 0.9, E.w.size))
    starts = []

    def spy(M, cap=None, start=None, side_only=False):
        starts.append(start.copy())
        return perron_root(M, cap, start, side_only)

    monkeypatch.setattr("plifs.gdifs.perron_root", spy)
    rho = _root_rho(E)
    values = [rho(s) for s in (0.0, 1.0, 300.0)]
    far = starts[-1]
    assert np.all(np.isfinite(far)) and np.all(far > 0.0)
    assert far.max() == 1.0 and far.min() == pytest.approx(math.exp(_LOG_FLOOR), rel=1e-12)
    for s, r in zip((0.0, 1.0, 300.0), values):
        ref = max(abs(np.linalg.eigvals(E.at(s).dense())))
        assert (r > 1.0) == (ref > 1.0)


def test_q_root_equals_alpha_on_random_families():
    rng = random.Random(2024)
    for _ in range(200):
        fam = random_family_instance(rng, m=rng.choice((3, 4)))
        assert abs(q_root(fam.det) - alpha(fam.graph)) <= 1e-10


def test_random_family_instance_sizes():
    # m - 2 fixed points 0.15 apart fit in [0.25, 0.75] only for m <= 6;
    # m = 6, with 0.05 of slack, is drawn to fit, so every size returns at once
    from plifs.core import check_iosc

    rng = random.Random(7)
    for m in (3, 4, 5, 6):
        t0 = time.perf_counter()
        fam = random_family_instance(rng, m)
        assert time.perf_counter() - t0 < 1.0
        assert fam.system.m == m and check_iosc(fam.system).ok
        phis = [f.breaks[0] for f in fam.system.maps[1:-1]]
        assert all(b - a >= 0.15 for a, b in zip([0.0] + phis, phis + [1.0]))
        assert abs(q_root(fam.det) - alpha(fam.graph)) <= 1e-10
    with pytest.raises(ValueError, match="spaced 0.15 apart"):
        random_family_instance(rng, 7)


def test_q_root_closing_check_starts_where_the_root_solves_end(monkeypatch):
    # the closing check is a full solve at the root; started from the root
    # solves' eigenvectors it needs a step or two, not a cold start's dozens
    rng = random.Random(31)
    bincount = np.bincount
    for _ in range(20):
        fam = random_family_instance(rng, m=rng.choice((3, 4)))
        modes, steps = [], []

        def spy(M, cap=None, start=None, side_only=False):
            modes.append(side_only)
            steps.append(-1)  # the row-sum bincount of the shift is no step
            return perron_root(M, cap, start, side_only)

        def count(*args, **kw):
            steps[-1] += 1
            return bincount(*args, **kw)

        with monkeypatch.context() as mp:
            mp.setattr("plifs.gdifs.perron_root", spy)
            mp.setattr(np, "bincount", count)
            root = q_root(fam.det)
        assert modes[-1] is False and all(modes[:-1])
        assert steps[-1] <= 2
        assert abs(root - alpha(fam.graph)) <= 1e-10


def test_moran_roots_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(72)
    with mpmath.workdps(40):
        for _ in range(40):
            r = [rng.uniform(0.02, 0.3) for _ in range(rng.randint(2, 3))]
            # maps onto disjoint pieces of [0, 1] whose extremes fix 0 and 1
            taus = [0.0] + [0.5 - ri / 2 for ri in r[1:-1]] + [1.0 - r[-1]]
            F = Cplifs(tuple(PLMap((), (ri,), t) for ri, t in zip(r, taus)))
            ref = mpmath.findroot(lambda s: sum(mpmath.mpf(ri) ** s for ri in r) - 1,
                                  (0, 1), solver="anderson")
            assert abs(alpha(one_node(*r)) - ref) <= 5e-13
            assert abs(solve_level_root(F, 3).root - ref) <= 5e-13


def test_alpha_one_node_two_loops():
    assert alpha(one_node(1 / 3, 1 / 3)) == pytest.approx(LOG23, abs=1e-10)


def test_alpha_one_node_m_loops():
    for m, r in ((3, 0.2), (5, 0.15)):
        g = one_node(*([r] * m))
        assert alpha(g) == pytest.approx(math.log(m) / math.log(1 / r), abs=1e-10)


def test_edge_matrix_at_adds_repeated_pairs_after_the_power():
    sm = one_node(1 / 3, 1 / 3).spectral_matrix()
    for s in (0.0, 0.5, LOG23, 2.0):
        assert np.array_equal(sm.at(s).dense(), [[2 * (1 / 3) ** s]])
    rng = random.Random(5)
    for m in (3, 4):
        d = DetRecursion(tuple(rng.uniform(0.05, 0.95) for _ in range(2 * m - 2)))
        for s in (0.0, 0.37, 1.5):
            rows = d.incidence() * np.array(d.slopes)[:, None] ** s
            assert np.array_equal(d.spectral_matrix().at(s).dense(), rows)


def test_alpha_family_all_quarter():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    d = DetRecursion((0.25,) * 4)
    assert q_root(d) == pytest.approx(math.log(3) / math.log(4), abs=1e-10)
    assert alpha(fam.graph) > 0
    # same value through the spectral route on the 4-node pattern
    A = d.incidence()
    nodes = tuple(GdifsNode((i,), None, (0.0, 1.0)) for i in range(1, 5))
    edges = tuple(
        GdifsEdge(i, j, 0.25, 0.0) for i in range(4) for j in range(4) if A[i, j]
    )
    assert alpha(gdifs_of_edges(nodes, edges)) == pytest.approx(
        math.log(3) / math.log(4), abs=1e-10
    )


def test_alpha_requires_strong_connectivity():
    g = gdifs_of_edges(
        nodes=(GdifsNode((1,), None, (0, 1)), GdifsNode((2,), None, (0, 1))),
        edges=(GdifsEdge(0, 1, 0.5, 0.0), GdifsEdge(1, 1, 0.5, 0.0)),
    )
    with pytest.raises(NotStronglyConnected):
        alpha(g)


def test_alpha_pure_cycle_is_zero():
    g = gdifs_of_edges(
        nodes=(GdifsNode((1,), None, (0, 1)), GdifsNode((2,), None, (0, 1))),
        edges=(GdifsEdge(0, 1, 0.5, 0.0), GdifsEdge(1, 0, 0.25, 0.0)),
    )
    assert alpha(g) == pytest.approx(0.0, abs=1e-12)


def test_alpha_of_a_node_without_edges_has_no_root():
    g = gdifs_of_edges(nodes=(GdifsNode((1,), None, (0.0, 1.0)),), edges=())
    with pytest.raises(ConvergenceFailure, match="spectral radius below 1 at s = 0"):
        alpha(g)


def test_spectral_monotone_decreasing(monkeypatch):
    fallbacks = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: fallbacks.append(A.shape) or eigvals(A))
    rng = random.Random(17)
    for _ in range(6):
        fam = random_family_instance(rng)
        sm = fam.graph.spectral_matrix()
        values = [perron_root(sm.at(0.15 * i)) for i in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))
    assert fallbacks == []  # all 72 solves certified; the identity shift left 4 uncertified


def test_scc_decomposition():
    src, dst = np.array([0, 1, 2, 2, 3]), np.array([1, 0, 0, 3, 3])
    labels = strongly_connected_components(4, src, dst)
    assert labels.tolist() == [0, 0, 1, 2]


def test_scc_labels_are_mutual_reachability():
    rng = random.Random(41)
    for _ in range(200):
        q = rng.randint(1, 12)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randint(0, 2 * q))]
        pairs += rng.sample(pairs, len(pairs) // 4)  # repeated pairs
        pairs += [(v, v) for v in range(q) if rng.random() < 0.1]  # self-loops
        rng.shuffle(pairs)
        src = np.array([a for a, _ in pairs], dtype=np.intp)
        dst = np.array([b for _, b in pairs], dtype=np.intp)
        reach = np.eye(q, dtype=bool)
        reach[src, dst] = True
        for k in range(q):  # Warshall's transitive closure
            reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
        labels = strongly_connected_components(q, src, dst)
        assert np.array_equal(labels[:, None] == labels[None, :], reach & reach.T)
        first = [labels.tolist().index(c) for c in range(labels.max() + 1)]
        assert first == sorted(first)  # counted in the order of the smallest node


def test_scc_matches_kosaraju_on_random_graphs():
    rng = random.Random(53)
    for _ in range(400):
        q = rng.randint(0, 60)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randint(0, 2 * q))]
        pairs += rng.sample(pairs, len(pairs) // 4)  # repeated pairs
        pairs += [(v, v) for v in range(q) if rng.random() < 0.1]  # self-loops
        rng.shuffle(pairs)  # nodes on no pair are isolated
        src = np.array([a for a, _ in pairs], dtype=np.intp)
        dst = np.array([b for _, b in pairs], dtype=np.intp)
        labels = strongly_connected_components(q, src, dst)
        assert labels.tolist() == reference_scc(q, src, dst).tolist()


@pytest.mark.parametrize(
    "system, ks",
    [("paper", range(3, 15)), ("period_two", range(3, 8)), ("family", range(3, 8))],
)
def test_scc_matches_kosaraju_on_punctured_graphs(monkeypatch, system, ks):
    F = {
        "paper": paper_example,
        "period_two": period_two,
        "family": lambda: build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system,
    }[system]()
    graphs = []

    def spy(q, src, dst):
        graphs.append((q, src, dst))
        return strongly_connected_components(q, src, dst)

    monkeypatch.setattr("plifs.gdifs.strongly_connected_components", spy)
    for k in ks:
        punctured_level(F, k)
    assert len(graphs) == len(ks)
    for q, src, dst in graphs:
        labels = strongly_connected_components(q, src, dst)
        assert labels.tolist() == reference_scc(q, src, dst).tolist()


def test_gdifs_arrays_are_read_only_copies():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    g = fam.graph
    a, nodes = alpha(g), g.nodes
    for name in ("words", "sides", "lo", "hi", "src", "dst", "ratio", "offset"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1.5
    assert alpha(g) == a and g.nodes == nodes
    words, sides = g.words[:2].copy(), np.array([1, 2])
    lo, hi = np.array([0.1, 0.5]), np.array([0.5, 0.9])
    src = np.array([0, 1])
    h = Gdifs(words, sides, lo, hi, src, [1, 0], [0.5, 0.5], [0.0, 0.0])
    src[:] = 0
    words[:], sides[:], lo[:], hi[:] = 3, 0, 0.0, 1.0
    assert h.src.tolist() == [0, 1] and h.strongly_connected()
    assert h.nodes == (GdifsNode((1,), "left", (0.1, 0.5)), GdifsNode((2,), "right", (0.5, 0.9)))


@pytest.mark.parametrize(
    "src, dst, ratio, message",
    [
        (2, 0, 0.5, "edge endpoint out of range"),
        (0, -1, 0.5, "edge endpoint out of range"),
        (0, 1, 0.0, "edge ratio 0.0 not in (0, 1) in modulus"),
        (1, 0, -1.0, "edge ratio -1.0 not in (0, 1) in modulus"),
        (1, 1, 1.5, "edge ratio 1.5 not in (0, 1) in modulus"),
    ],
)
def test_gdifs_rejects_bad_edges(src, dst, ratio, message):
    nodes = (GdifsNode((1,), None, (0, 1)), GdifsNode((2,), None, (0, 1)))
    with pytest.raises(ValueError) as err:
        gdifs_of_edges(nodes, (GdifsEdge(0, 1, 0.5, 0.0), GdifsEdge(src, dst, ratio, 0.0)))
    assert str(err.value) == message


def test_gdifs_rejects_edge_arrays_of_unequal_length():
    with pytest.raises(ValueError, match="edge arrays differ in length"):
        Gdifs([(1,)], [0], [0.0], [1.0], [0, 0], [0, 0], [0.5, 0.5], [0.0])
    # the node arrays words, sides, lo, hi of two nodes, each in turn cut to one
    for short in range(4):
        arrays = [[(1,), (2,)], [0, 0], [0.0, 0.5], [0.5, 1.0]]
        arrays[short] = arrays[short][:1]
        with pytest.raises(ValueError, match="node arrays differ in length"):
            Gdifs(*arrays, [0], [1], [0.5], [0.0])


@pytest.mark.parametrize("side", [-1, 3])
def test_gdifs_rejects_bad_side_codes(side):
    # a side code indexes (whole, left, right): -1 would read as a right half
    with pytest.raises(ValueError, match="node side code not 0, 1 or 2"):
        Gdifs([(1,), (1,)], [1, side], [0.0, 0.5], [0.5, 1.0], [0], [1], [0.5], [0.0])


def test_gdifs_of_edges_rebuilds_the_graph():
    graphs = [associate_from_periodic(period_two(), [BreakCode(0.21 / 0.91, (), (1, 2))]),
              punctured_level(paper_example(), 6).graph,
              build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).graph]
    for g in graphs:
        h = gdifs_of_edges(g.nodes, g.edges)
        for name in ("words", "sides", "lo", "hi", "src", "dst", "ratio", "offset"):
            a, b = getattr(g, name), getattr(h, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# --- determinant recursion -----------------------------------------------------

def test_q4_closed_form():
    d = DetRecursion((0.25, 0.2, 0.3, 0.25))
    for s in (0.3, 0.79, 1.4):
        u = [r**s for r in d.slopes]
        closed = 1 - sum(u) + u[0] * u[2] + u[1] * u[2] + u[1] * u[3]
        assert q_recursion(d, s) == pytest.approx(closed, abs=1e-14)


def test_q4_all_quarter_root():
    d = DetRecursion((0.25,) * 4)
    s = math.log(3) / math.log(4)
    assert q_recursion(d, s) == pytest.approx(0.0, abs=1e-14)


def test_q4_selfsimilar_factorization():
    # rho_2 = rho_3 = r: the determinant factors through the similarity sum
    rng = random.Random(23)
    for _ in range(50):
        r1, r, r4 = (rng.uniform(0.05, 0.6) for _ in range(3))
        d = DetRecursion((r1, r, r, r4))
        for _ in range(4):
            s = rng.uniform(0.0, 2.0)
            expect = (1 - r**s) * (1 - r1**s - r**s - r4**s)
            assert q_recursion(d, s) == pytest.approx(expect, abs=1e-12)


def test_m4_matrix_matches_displayed_pattern():
    rng = random.Random(29)
    u = [rng.uniform(0.1, 0.9) for _ in range(6)]
    d = DetRecursion(tuple(u))
    s = 0.5
    v = [x**s for x in u]
    rows = [
        [v[0]] * 6,
        [v[1], v[1], 0, 0, 0, 0],
        [0, 0, v[2], v[2], v[2], v[2]],
        [v[3], v[3], v[3], v[3], 0, 0],
        [0, 0, 0, 0, v[4], v[4]],
        [v[5]] * 6,
    ]
    M = np.array(rows) - np.eye(6)
    assert np.allclose(d.matrix(s), M, atol=0)
    assert q_recursion(d, s) == pytest.approx(float(np.linalg.det(M)), abs=1e-10)


def test_recursion_equals_dense_determinant():
    rng = random.Random(31)
    for m in (3, 4, 5):
        for _ in range(25):
            slopes = tuple(rng.uniform(0.05, 0.95) for _ in range(2 * m - 2))
            d = DetRecursion(slopes)
            for _ in range(4):
                s = rng.uniform(0.0, 2.0)
                dense = float(np.linalg.det(d.matrix(s)))
                assert abs(q_recursion(d, s) - dense) < 1e-9


def test_q_root_matches_alpha_and_similarity_case():
    rng = random.Random(37)
    # factorized case: root solves r1^s + r^s + r4^s = 1
    d = DetRecursion((0.3, 0.2, 0.2, 0.3))
    root = q_root(d)
    assert 2 * 0.3**root + 0.2**root == pytest.approx(1.0, abs=1e-12)
    for _ in range(5):
        fam = random_family_instance(rng)
        assert q_root(fam.det) == pytest.approx(alpha(fam.graph), abs=1e-10)


@pytest.mark.parametrize(
    "slopes, value",
    [  # random.Random(99) draws, slopes uniform in [0.02, 0.95], whose spectral
       # bisection midpoint lies more than 1e-12 from the root of Q
        ((0.9437741474765221, 0.03182966580602049, 0.4196351152079612, 0.89287054283359),
         8.41657),
        ((0.9272150025382511, 0.6731945977553419, 0.2355648177921235, 0.8609687217856247),
         6.82525),
        ((0.06450658481785755, 0.712053711388449, 0.8238233567924091, 0.04772220672030721,
          0.14542296468246485, 0.9324477740212791), 5.72296),
        ((0.8962485585626706, 0.8392746886159282, 0.5301780591431676, 0.21090205837269016,
          0.937001937830527, 0.4388996955926955, 0.7287358511548987, 0.8998306414702981),
         10.89974),
    ],
)
def test_q_root_high_alpha(slopes, value):
    d = DetRecursion(slopes)
    r = q_root(d)
    assert r == pytest.approx(value, abs=1e-5)
    assert q_recursion(d, r - 1e-12) < 0 < q_recursion(d, r + 1e-12)
    assert abs(perron_root(d.spectral_matrix().at(r)) - 1) <= 1e-10


# --- family builder --------------------------------------------------------------

def test_family_instance_shape():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    F, g = fam.system, fam.graph
    assert F.m == 3
    assert F.type_vector == (0, 1, 0)
    cyl = [tuple(round(x, 10) for x in iv) for iv in
           (n.hull for n in g.nodes)]
    assert g.q == 4
    expected_incidence = np.array(
        [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    )
    A = np.zeros((4, 4), dtype=int)
    for e in g.edges:
        A[e.src, e.dst] = 1
    assert (A == expected_incidence).all()
    assert (A == fam.det.incidence()).all()
    assert_family_graph_matches_reference(fam)


def test_family_m4_incidence():
    fam = build_fixed_point_family(
        (0.15, 0.1, 0.12, 0.2, 0.1, 0.15), (0.35, 0.7)
    )
    A = np.zeros((6, 6), dtype=int)
    for e in fam.graph.edges:
        A[e.src, e.dst] = 1
    assert (A == fam.det.incidence()).all()
    assert (A[1] == [1, 1, 0, 0, 0, 0]).all()
    assert (A[2] == [0, 0, 1, 1, 1, 1]).all()
    assert (A[3] == [1, 1, 1, 1, 0, 0]).all()
    assert (A[4] == [0, 0, 0, 0, 1, 1]).all()
    assert_family_graph_matches_reference(fam)


@pytest.mark.parametrize("m", range(3, 8))
def test_family_graph_matches_reference(m):
    rng = random.Random(m)
    done = 0
    while done < 12:
        slopes = [rng.uniform(0.02, 0.6 / m) for _ in range(2 * m - 2)]
        phis = sorted(rng.uniform(0.05, 0.95) for _ in range(m - 2))
        try:
            fam = build_fixed_point_family(tuple(slopes), tuple(phis))
        except (IoscViolated, BadFixedPointOrder, ValueError):
            continue
        assert_family_graph_matches_reference(fam)
        done += 1


def test_family_rejects_equal_adjacent_slopes():
    with pytest.raises(ValueError):
        build_fixed_point_family((0.25, 0.2, 0.2, 0.25), (0.5,))
    # the determinant function itself stays evaluable
    d = DetRecursion((0.25, 0.2, 0.2, 0.25))
    assert math.isfinite(q_recursion(d, 0.7))


def test_family_rejects_bad_fixed_points():
    with pytest.raises(BadFixedPointOrder):
        build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.0,))
    with pytest.raises(BadFixedPointOrder):
        build_fixed_point_family((0.25, 0.2, 0.3, 0.25), ())


def test_family_rejects_overlapping_cylinders():
    with pytest.raises(IoscViolated):
        build_fixed_point_family((0.45, 0.4, 0.45, 0.4), (0.5,))


# --- association ------------------------------------------------------------------

def test_associate_paper_example_level1():
    F = paper_example()
    g = associate_from_periodic(F, [BreakCode(0.5, (1,), (2,))])
    assert g.q == 2
    assert len(g.edges) == 4
    ratios = {(e.src, e.dst): abs(e.ratio) for e in g.edges}
    assert ratios == {
        (0, 0): pytest.approx(0.8),
        (0, 1): pytest.approx(0.2),
        (1, 0): pytest.approx(0.1),
        (1, 1): pytest.approx(0.1),
    }
    assert alpha(g) == pytest.approx(0.60304963, abs=1e-6)


def test_associate_rejects_unverified_code():
    with pytest.raises(UnverifiedCode):
        associate_from_periodic(paper_example(), [BreakCode(0.5, (), (1,))])


def test_associate_rejects_an_attractor_break_without_a_code():
    with pytest.raises(UnverifiedCode, match=r"appears to lie on the attractor \(cylinder 1\) "
                       "but has no code"):
        associate_from_periodic(period_two(), ())


def test_associate_family_matches_direct_graph():
    rng = random.Random(41)
    for _ in range(5):
        fam = random_family_instance(rng)
        assert_family_graph_matches_reference(fam)
        g = associate_from_periodic(fam.system, auto_codes(fam.system))
        assert g.q == fam.graph.q
        direct = {(e.src, e.dst): e.ratio for e in fam.graph.edges}
        assoc = {(e.src, e.dst): e.ratio for e in g.edges}
        assert set(direct) == set(assoc)
        for key, r in direct.items():
            assert assoc[key] == pytest.approx(r, abs=1e-12)
        assert alpha(g) == pytest.approx(alpha(fam.graph), abs=1e-11)


def test_associate_affine_no_breaks_full_graph():
    C = cantor_pair()
    g = associate_from_periodic(C, ())
    assert g.q == 2 and len(g.edges) == 4
    assert alpha(g) == pytest.approx(LOG23, abs=1e-10)


def test_associate_sanity_no_break_interior_to_nodes():
    # association invariant: node hulls never hide a breaking point inside
    rng = random.Random(43)
    for _ in range(5):
        fam = random_family_instance(rng)
        g = associate_from_periodic(fam.system, auto_codes(fam.system))
        points = [b for _, b in fam.system.breaking_points()]
        tol = fam.system.geom_tol()
        for node in g.nodes:
            lo, hi = node.hull
            for b in points:
                assert not (lo + tol < b < hi - tol)


def test_associate_period_two_code():
    # a genuine 2-periodic code; both the code cylinder and its rotation
    # get cut
    phi12 = 0.21 / 0.91
    F = period_two()
    g = associate_from_periodic(F, [BreakCode(phi12, (), (1, 2))])
    assert g.q == 11  # 9 level-2 cylinders, two of them cut
    cut_words = sorted({n.word for n in g.nodes if n.side is not None})
    assert cut_words == [(1, 2), (2, 1)]
    a = alpha(g)
    est = natural_dimension(F, 10, 14)
    assert abs(a - est.estimate) < 2e-3
    assert punctured_level(F, 6).value <= a + 1e-9


# sha256 of export_text(), taken before nodes were held as arrays: node order,
# words, sides, hulls and edges must not move
PERIOD_TWO_ASSOCIATION_SHA = "a5bc76eddf853aab79879f8b91dda02d642c17a520006d301007cec5aade4ec1"
PUNCTURED_6_SHA = {
    "paper": "be4833db331d95ff4050902a2c6c2fbdf7f6a029f49a5a221ab25c449cf365e2",
    "period-two": "e8874163e6b030d1c8da406ceb111a9226dcf0cfce23a7979dd01b475cac46d9",
}


def sha256_of_export(g) -> str:
    return hashlib.sha256(g.export_text().encode()).hexdigest()


def test_associate_period_two_export_is_pinned():
    g = associate_from_periodic(period_two(), [BreakCode(0.21 / 0.91, (), (1, 2))])
    assert (g.q, len(g.edges)) == (11, 99)
    assert sha256_of_export(g) == PERIOD_TWO_ASSOCIATION_SHA


@pytest.mark.parametrize("name, system", [("paper", paper_example), ("period-two", period_two)])
def test_punctured_level_6_export_is_pinned(name, system):
    assert sha256_of_export(punctured_level(system(), 6).graph) == PUNCTURED_6_SHA[name]


def test_associate_noninjective_without_cuts():
    # folded map whose fold point misses every cylinder: association works
    # and reproduces the similarity root
    F = Cplifs(
        (
            PLMap((0.5,), (0.3, -0.3), 0.0),
            PLMap((), (0.2,), 0.8),
        )
    )
    g = associate_from_periodic(F, ())
    assert g.q == 2 and len(g.edges) == 4
    a = alpha(g)
    assert 0.3**a + 0.2**a == pytest.approx(1.0, abs=1e-10)
    # the level-1 fold halves one cylinder, so s_n converges like 1/n
    est = natural_dimension(F, 6, 10)
    assert abs(a - est.estimate) < 2e-2


def test_associate_noninjective_cut_is_ambiguous():
    # tent map fixing 0 and breaking a third map there: the left/right
    # halves are not unions of whole map images, which the certification
    # detects rather than guessing edges
    F = Cplifs(
        (
            PLMap((0.5,), (0.4, -0.4), 0.0),
            PLMap((), (0.2,), 0.88),
            PLMap((0.0,), (0.25, 0.35), 0.45),
        )
    )
    code = BreakCode(0.0, (), (1,))
    with pytest.raises(AmbiguousContainment):
        associate_from_periodic(F, [code])


def folded_system(second):
    """A folded first map beside ``second`` and a plain contraction."""
    return Cplifs((PLMap((0.7,), (0.25, -0.25), 0.0), second, PLMap((), (0.2,), 0.8)))


@pytest.mark.parametrize(
    "second, incidence",
    [
        (PLMap((0.5,), (0.2, 0.3), 0.4), [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]),
        (PLMap((0.5,), (-0.2, -0.3), 0.6), [[1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]]),
    ],
    ids=["folded-up", "folded-down"],
)
def test_associate_folded_system_with_cut(second, incidence):
    # a folded first map beside a cut second map: the edge from a half to
    # its twin has an image touching the cut point, decided in image space
    F = folded_system(second)
    g = associate_from_periodic(F, auto_codes(F))
    assert [n.label for n in g.nodes] == ["1:full", "2:left", "2:right", "3:full"]
    A = np.zeros((g.q, g.q), dtype=int)
    for e in g.edges:
        A[e.src, e.dst] = 1
    assert A.tolist() == incidence
    roots = natural_dimension(F, 6, 12).roots
    assert abs(alpha(g) - (2 * roots[-1] - roots[0])) < 1e-3


def straddle_system():
    """f_2 fixes its break 0.5 and maps the piece of map 3 across it."""
    return Cplifs(
        (
            PLMap((), (0.2,), 0.0),
            PLMap((0.5,), (0.3, 0.4), 0.35),
            PLMap((), (0.1,), 0.425),
            PLMap((), (0.2,), 0.8),
        )
    )


def test_associate_straddling_target_is_flagged():
    # no half of cylinder 2 holds the image of the piece of map 3, so the
    # edge is flagged, not dropped, at depth 12 (next test)
    F = straddle_system()
    with pytest.raises(AmbiguousContainment, match="edge 2:left -> 3:full"):
        associate_from_periodic(F, auto_codes(F))


def test_associate_straddling_target_stops_at_level_two(monkeypatch):
    # at level 2 rows well inside the target map to both sides of the cut,
    # which no deeper level can undo: the default depth 12 raises there
    # instead of sweeping 4^12 rows
    widths = []

    def spy(F, n_max, budget):
        for level in level_sweep(F, n_max, budget):
            widths.append(level.size)
            yield level

    monkeypatch.setattr("plifs.gdifs.level_sweep", spy)
    F = straddle_system()
    with pytest.raises(AmbiguousContainment,
                       match="edge 2:left -> 3:full undecidable at refinement depth 12"):
        associate_from_periodic(F, auto_codes(F))
    assert max(widths) == 4**2


def test_certify_side_clips_rows_to_target_hull():
    # I_3 = [0.425, 0.525]; a target hull ending at 0.503 maps across the
    # cut at level 0, and at level 1 only I_34 = [0.505, 0.525] would, but
    # it lies outside the hull and is dropped
    F = straddle_system()
    verdict = [_certify_side(F, (2,), (3,), (0.425, 0.503), 0.5, d, 2**26) for d in (0, 1)]
    assert verdict == [None, (1,)]


def test_certify_side_refinement_levels_and_budget():
    F = Cplifs(
        (
            PLMap((0.6146003281235287,), (0.10594677462355959, -0.09004839701570087), 0.2477896578288665),
            PLMap((0.29295298171902795,), (0.13859379348594217, 0.08597144265047232), 0.25235151666957),
            PLMap((), (0.1467736051681643,), 0.8132466025944207),
        )
    )
    lo, hi = cylinder_arrays(F, 1)
    hull = (float(lo[0]), float(hi[0]))
    phi = 0.29295298171902795

    def verdict(depth, budget=2**26):
        return _certify_side(F, (2,), (1,), hull, phi, depth, budget)

    assert verdict(0) is None
    assert verdict(1) == (1,)
    assert verdict(12, budget=3) == (1,)  # the sweep stops at level 1, where it decides
    with pytest.raises(BudgetExceeded):
        verdict(12, budget=2)


def test_certify_side_over_chunks_matches_whole_levels(monkeypatch):
    # with 5-word chunks every level from 2 on spans several chunks, and
    # each verdict must be the one read off whole levels: a chunk that
    # shows rows on both sides of the cut must not end its level early
    monkeypatch.setattr("plifs.core._CHUNK", 5)
    rng = random.Random(1807)
    systems = [straddle_system()] + [random_family_instance(rng, 3).system for _ in range(3)]
    verdicts = set()
    for F in systems:
        lo, hi = cylinder_arrays(F, 1)
        for t in range(F.m):
            tgt = GdifsNode((t + 1,), None, (float(lo[t]), float(hi[t])))
            for w in [(j + 1,) for j in range(F.m)] + [(j + 1, t + 1) for j in range(F.m)]:
                a, b = tgt.hull
                for k in w[::-1]:
                    a, b = image_interval(F.map(k), (a, b))
                for phi in np.linspace(a, b, 13):
                    got = _certify_side(F, w, tgt.word, tgt.hull, float(phi), 5, 2**26)
                    for side, half in (("left", 1), ("right", 2)):
                        want = reference_certify_side(F, w, side, tgt, float(phi), 5)
                        assert (None if got is None else half in got) == want
                        verdicts.add(want)
    assert verdicts == {None, True, False}


def test_certify_side_target_in_a_gap_gives_no_half():
    # the hull (0.12, 0.2) lies in the gap (1/9, 2/9) between the level-2
    # cylinders of I_1: level 0 maps across phi, and from level 1 on no row
    # of I_1 meets the hull
    F = cantor_pair()
    phi = F.map(1)(0.16)
    verdict = [_certify_side(F, (1,), (1,), (0.12, 0.2), phi, d, 2**26) for d in range(4)]
    assert verdict == [None, (), (), ()]


def test_association_certifies_each_cut_once_per_target(monkeypatch):
    # period-two cuts the cylinders 12 and 21: 2 cut words times 11 targets,
    # one call for both halves of each
    calls = []

    def spy(*args):
        calls.append(args[1:4])  # w, tw and the target hull
        return _certify_side(*args)

    monkeypatch.setattr("plifs.gdifs._certify_side", spy)
    g = associate_from_periodic(period_two(), [BreakCode(0.21 / 0.91, (), (1, 2))])
    assert len(calls) == len(set(calls)) == 2 * g.q == 22


# --- codes read off the containment witnesses -------------------------------------

def negative_slope_system():
    """f_2 has slopes of one negative sign and breaks at its fixed point."""
    return Cplifs((PLMap((), (0.2,), 0.0), PLMap((0.9 / 1.7,), (-0.7, -0.6), 0.9)))


def eventually_periodic_system():
    """f_2 breaks at 0.15 = f_1(1/2), the image of f_3's fixed point."""
    return Cplifs(
        (
            PLMap((), (0.3,), 0.0),
            PLMap((0.15,), (0.25, 0.2), 0.7925),  # fixes 1
            PLMap((), (0.2,), 0.4),
        )
    )


PINNED_CODES = {
    "paper": (paper_example(), BreakCode(0.5, (1,), (2,))),
    "three-break": (three_break_mixed_signs(), BreakCode(0.2, (1,), (2,))),
    "folded-up": (folded_system(PLMap((0.5,), (0.2, 0.3), 0.4)), BreakCode(0.5, (), (2,))),
    "folded-down": (folded_system(PLMap((0.5,), (-0.2, -0.3), 0.6)), BreakCode(0.5, (), (2,))),
    "straddle": (straddle_system(), BreakCode(0.5, (), (2,))),
    "period-two": (period_two(), BreakCode(0.21 / 0.91, (), (1, 2))),
    "negative-slope": (negative_slope_system(), BreakCode(0.9 / 1.7, (), (2,))),
    "eventually-periodic": (eventually_periodic_system(), BreakCode(0.15, (1,), (3,))),
}


@pytest.mark.parametrize("F, code", list(PINNED_CODES.values()), ids=list(PINNED_CODES))
def test_auto_codes_pinned(F, code):
    # straddle: 0.5 has witnesses under maps 2 and 3; 2222 comes first
    assert auto_codes(F) == (code,)


def test_auto_codes_pinned_on_a_batch_slice():
    # sha256 of the codes of code_batch()[:100], the Random(9) systems,
    # taken when periodic points were still iterated; it includes system
    # 71, whose 343 code checks once spent 0.55 of 0.80 s iterating
    codes = repr([auto_codes(F) for F in code_batch()[:100]])
    assert hashlib.sha256(codes.encode()).hexdigest() == (
        "086f1c5303049ad25da62bf44c3b09b7cf2e9de9e2758d3b01918d5941837281"
    )


@pytest.mark.parametrize("index, point, cylinder", [
    (29, -0.2944472334667464, 1),
    (60, 0.18992328999722374, 2),
    (71, 0.05849474253876569, 1),
    (136, -0.22605128468028002, 2),
])
def test_interval_attractor_is_refused_at_the_first_containing_word(index, point, cylinder):
    # these attractors are intervals, so an uncoded break lies in a level-12
    # cylinder of its own level-P cylinder: the depth-first descent stops
    # at the first such word and raises the UnverifiedCode that enumerating
    # them all, breadth first, raised in 0.3 to 4.5 s
    F = code_batch()[index]
    with pytest.raises(UnverifiedCode) as raised:
        associate_from_periodic(F, auto_codes(F))
    assert str(raised.value) == (f"breaking point {point!r} appears to lie on the attractor "
                                 f"(cylinder {cylinder}) but has no code")


@pytest.mark.parametrize(
    "systems",
    [[F for F, _ in PINNED_CODES.values()], code_batch()[::14][:50]],
    ids=["pinned", "batch"],
)
def test_periodic_point_matches_reference_iteration(systems):
    # every word of length L with m**L <= 81
    for F in systems:
        words = [w for L in range(1, 5) if F.m**L <= 81
                 for w in itertools.product(range(1, F.m + 1), repeat=L)]
        for w in words:
            y, ref = periodic_point(F, w), reference_periodic_point(F, w)
            assert abs(y - ref) <= 1e-12 * (1.0 + abs(ref)), (F, w)


def test_periodic_point_of_period_two_rotation_is_pinned():
    # bit for bit as the iteration found it
    assert periodic_point(period_two(), (2, 1)) == float.fromhex("0x1.89d89d89d89d8p-1")


def test_auto_codes_period_two_alpha():
    F = period_two()
    explicit = associate_from_periodic(F, [BreakCode(0.21 / 0.91, (), (1, 2))])
    assert alpha(associate_from_periodic(F, auto_codes(F))) == alpha(explicit)


def test_auto_codes_negative_slope_gdifs_value():
    # f_2 breaks at its own fixed point, which iterating f_2 only reached
    # as a rounding 2-cycle; the closed form reads it off one branch
    value, _, _ = METHODS["gdifs"](negative_slope_system(), DimConfig())
    assert value == pytest.approx(0.7868740, abs=1e-7)


def test_associate_eventually_periodic_code_raises():
    F = eventually_periodic_system()
    with pytest.raises(NonPeriodicCode):
        associate_from_periodic(F, auto_codes(F))


# --- punctured approximation -----------------------------------------------------

def test_punctured_paper_first_and_last():
    F = paper_example()
    assert punctured_level(F, 3).value == pytest.approx(0.55122823, abs=1e-7)
    assert punctured_level(F, 8).value == pytest.approx(0.60301162, abs=1e-7)


@pytest.mark.parametrize("k", [5, 8])
def test_punctured_value_is_certified(k):
    pl = punctured_level(paper_example(), k)
    sm = pl.graph.spectral_matrix()

    def rho(s):
        return max(abs(np.linalg.eigvals(sm.at(s).dense())))

    assert rho(pl.value - 1e-11) >= 1.0 >= rho(pl.value + 1e-11)


@pytest.mark.parametrize(
    "system, ks",
    [
        ("paper", range(3, 9)),
        ("period_two", range(3, 7)),
        ("family", range(3, 7)),
        ("cantor", [4]),
    ],
)
def test_punctured_graph_is_the_shift_graph(system, ks):
    F = {
        "paper": paper_example,
        "period_two": period_two,
        "family": lambda: build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system,
        "cantor": cantor_pair,
    }[system]()
    for k in ks:
        g = punctured_level(F, k).graph
        assert all(n.hull == cylinder_interval(F, n.word) for n in g.nodes)
        node_of = {n.word: i for i, n in enumerate(g.nodes)}
        want = {}
        for i, n in enumerate(g.nodes):
            for b in range(1, F.m + 1):
                j = node_of.get(n.word[1:] + (b,))
                if j is not None:
                    sim = affine_restriction(F, n.word[:1], cylinder_interval(F, g.nodes[j].word))
                    want[(i, j)] = (sim.ratio, sim.offset)
        got = [((e.src, e.dst), (e.ratio, e.offset)) for e in g.edges]
        assert len(got) == len(want) and dict(got) == want


def test_punctured_level_labels_components_once(monkeypatch):
    # the graph handed to the spectral root is one strongly connected
    # component already; alpha's own check would label it a second time
    calls = []

    def spy(q, src, dst):
        calls.append(q)
        return strongly_connected_components(q, src, dst)

    monkeypatch.setattr("plifs.gdifs.strongly_connected_components", spy)
    pl = punctured_level(paper_example(), 8)
    assert calls == [pl.kept]
    assert pl.value == alpha(pl.graph)


def test_punctured_levels_beyond_dense_cap():
    # k = 13 has 8189 nodes, past the 4096 a dense matrix was limited to
    F = paper_example()
    t = [punctured_level(F, k).value for k in range(10, 14)]
    assert all(a <= b for a, b in zip(t, t[1:]))
    assert t[1] == pytest.approx(0.6030497227579872, abs=1e-12)
    assert t[2] == pytest.approx(0.6030501732734592, abs=1e-12)


def test_punctured_drop_is_exact_through_level_16():
    # the break 0.5 ends I_{1 2^(k-1)}, the only cylinder it lies in; a drop
    # test padded by 1e-12 also dropped I_{1 2^(k-2) 1}, which ends 1e-12
    # below 0.5 at k = 13, and so gave t_13 = t_12
    F = paper_example()
    a = alpha(associate_from_periodic(F, auto_codes(F)))
    levels = [punctured_level(F, k) for k in range(10, 17)]
    assert [pl.kept for pl in levels] == [2**k - 1 for k in range(10, 17)]
    t = [pl.value for pl in levels]
    assert t[3] > t[2]  # t_13 > t_12
    assert all(x < y for x, y in zip(t, t[1:])) and t[-1] < a
    # the error shrinks by a steady ratio near 1/4
    assert all(0.249 < (a - y) / (a - x) < 0.25 for x, y in zip(t, t[1:]))


def test_punctured_unsettled_containment_raises():
    # the exact invariant interval, near [1/14, 13/14], has no float
    # endpoint, so the computed one is off by about 1.4e-15; the break sits
    # on the float just below the exact upper end of I_11, closer to it than
    # that error, shrunk through f_1 f_1, can resolve
    s1, c1, s2, c2 = map(Fraction, (-0.3, 0.35, -0.3, 0.95))
    low = (s1 * c2 + c1) / (1 - s1 * s2)
    end = s1 * low + c1
    b = float(end) if float(end) < end else math.nextafter(float(end), -math.inf)
    F = Cplifs((PLMap((), (-0.3,), 0.35), PLMap((b,), (-0.3, -0.25), 0.95)))
    with pytest.raises(AmbiguousContainment, match="cylinder 11 "):
        punctured_level(F, 2)
    # two levels deeper the enclosure is 0.09 times as wide and settles it
    assert 0.0 < punctured_level(F, 4).value < 1.0


def test_punctured_paper_level_17_breaks_inside_a_kept_cylinder():
    # the binary paper system puts the break 0.5 of map 1 about 3.4e-17
    # inside I_1; at level 17 the kept cylinder 1 2^15 1 spans
    # [0.5 - 1.1e-16, 0.5] in floats, so the piece lookup of f_1 puts its
    # two ends in different pieces
    with pytest.raises(AmbiguousContainment, match="map 1 breaks inside kept cylinder "):
        punctured_level(paper_example(), 17)


def test_punctured_diagnostics():
    pl = punctured_level(paper_example(), 3)
    assert pl.kept == 7
    assert pl.dropped == ((1, 2, 2),)
    assert not pl.whole_graph_strongly_connected
    assert pl.scc_size == 5


def test_punctured_regular_system_equals_full_dimension():
    pl = punctured_level(cantor_pair(), 4)
    assert pl.dropped == ()
    assert pl.whole_graph_strongly_connected
    assert pl.value == pytest.approx(LOG23, abs=1e-10)


def test_punctured_requires_injective():
    F = Cplifs((PLMap((0.5,), (0.3, -0.3), 0.0), PLMap((), (0.2,), 0.8)))
    with pytest.raises(ValueError):
        punctured_level(F, 3).value


def test_punctured_empty_graph():
    F = Cplifs(
        (
            PLMap((), (0.45,), 0.0),
            PLMap((), (0.45,), 0.55),
        )
    )
    pl = punctured_level(F, 2)
    assert pl.dropped == ()
    # single map breaking at its own fixed point: the attractor is that
    # point, every cylinder contains it, everything gets dropped
    F2 = Cplifs((PLMap((0.5,), (0.4, 0.3), 0.3),))
    with pytest.raises(EmptyGraph):
        punctured_level(F2, 2)


# --- separation diagnostic --------------------------------------------------------

def test_esc_cantor():
    from plifs import generated_ifs

    sims = generated_ifs(cantor_pair())
    rep1 = esc_diagnostic(sims, 1)
    assert rep1.delta == pytest.approx(2 / 3, abs=1e-12)
    rep2 = esc_diagnostic(sims, 2)
    assert rep2.delta == pytest.approx(2 / 9, abs=1e-12)
    assert rep2.delta_root == pytest.approx(math.sqrt(2 / 9), abs=1e-12)


def test_esc_distinct_ratios_infinite_at_level_one():
    # the ratio-mismatch clause: distinct ratios make the distance infinite.
    # from level 2 on, permuted compositions share the same product ratio,
    # so the minimum is finite again.
    sims = [AffineMap(0.5, 0.0), AffineMap(0.3, 0.5)]
    rep = esc_diagnostic(sims, 1)
    assert rep.delta == math.inf
    assert esc_diagnostic(sims, 2).delta < math.inf


def test_esc_exact_overlap_zero():
    rep = esc_diagnostic([AffineMap(0.5, 0.0), AffineMap(0.5, 0.0)], 1)
    assert rep.delta == 0.0


def test_esc_rejects_level_zero_no_similarity_and_a_level_over_budget():
    sims = [AffineMap(0.5, 0.0), AffineMap(0.3, 0.5)]
    with pytest.raises(ValueError, match="level must be >= 1"):
        esc_diagnostic(sims, 0)
    with pytest.raises(ValueError, match="need at least one similarity"):
        esc_diagnostic([], 1)
    with pytest.raises(BudgetExceeded, match="compositions"):
        esc_diagnostic(sims, 5, budget=2**5 - 1)
    assert esc_diagnostic(sims, 5, budget=2**5).compositions == 2**5


# --- aggregate report ---------------------------------------------------------------

def test_dim_report_cantor_all_methods_agree():
    cfg = DimConfig(n_min=4, n_max=8, punctured_k=4)
    rep = dim_report(cantor_pair(), cfg)
    for method in ("natural", "gdifs", "punctured"):
        assert rep.value(method) == pytest.approx(LOG23, abs=1e-6), method
    assert rep.value("determinant") is None
    assert abs(rep.value("box") - LOG23) < 0.05
    assert rep.consistent


def test_dim_report_paper_example():
    cfg = DimConfig(n_min=6, n_max=11, punctured_k=8)
    rep = dim_report(paper_example(), cfg)
    assert rep.value("gdifs") == pytest.approx(0.60304963, abs=1e-6)
    assert rep.value("punctured") == pytest.approx(0.60301162, abs=1e-6)
    assert rep.value("natural") == pytest.approx(0.58918180, abs=1e-6)
    assert rep.consistent


def test_dim_report_family_three_way():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    cfg = DimConfig(n_min=8, n_max=12, punctured_k=5)
    rep = dim_report(fam.system, cfg)
    a = rep.value("gdifs")
    assert rep.value("determinant") == pytest.approx(a, abs=1e-9)
    assert abs(rep.value("natural") - a) < 1e-2
    assert rep.consistent


def test_dim_report_associates_a_family_once(monkeypatch):
    # the determinant route reads the gdifs route's graph within the call,
    # and gives the root it gives on its own association; run on its own,
    # the route associates
    from plifs import gdifs

    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    calls = []
    associate = gdifs.associate_from_periodic
    monkeypatch.setattr(gdifs, "associate_from_periodic",
                        lambda *args: calls.append(args) or associate(*args))
    rep = dim_report(fam.system, DimConfig(punctured_k=5))
    assert len(calls) == 1
    assert rep.value("determinant") == q_root(detect_fixed_point_family(fam.system))
    del calls[:]
    METHODS["determinant"](fam.system, DimConfig())
    assert len(calls) == 1


def test_fixed_settings_are_constants_not_parameters():
    # each solver, window and slack runs at one named module constant, so
    # neither the signature nor the result record carries it
    from plifs import core, oracle, pressure
    from plifs.gdifs import _root_rho, _spectral_root

    def params(fn):
        return list(inspect.signature(fn).parameters)

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert params(perron_root) == ["M", "cap", "start", "side_only"]
    assert params(alpha) == params(_spectral_root) == ["g"]
    assert params(q_root) == ["d"]
    assert params(_root_rho) == ["M"]
    assert params(associate_from_periodic) == ["F", "codes", "budget"]
    assert params(oracle.box_dimension) == ["samples", "scales"]
    assert params(esc_diagnostic) == ["sims", "n", "budget"]
    assert params(pressure._root_from_logs) == ["logu", "logc"]
    assert params(core.verify_breaking_code) == ["F", "b", "prefix", "period"]
    assert params(pressure.natural_dimension) == ["F", "n_min", "n_max", "budget"]
    assert params(pressure.upper_box_consistency) == ["estimate", "box"]
    assert params(oracle.measure_evidence) == ["bounds", "dim_estimate", "plateau_tol"]
    assert inspect.signature(oracle.measure_evidence).parameters["plateau_tol"].default \
        == oracle.PLATEAU_TOL
    assert names(pressure.NaturalDimEstimate) == ["levels", "roots", "estimate", "spread"]
    assert names(pressure.ConsistencyReport) == [
        "consistent", "box_estimate", "dim_estimate", "margin",
    ]
    assert names(oracle.MeasureVerdict) == [
        "classification", "dim_estimate", "plateau", "decaying", "tail_changes", "plateau_tol",
    ]
    assert (pressure.WINDOW, pressure.BOX_SLACK, oracle.PLATEAU_TOL) == (3, 0.05, 1e-3)


def test_dim_config_fields():
    assert [f.name for f in dataclasses.fields(DimConfig)] == [
        "n_min", "n_max", "punctured_k", "budget", "agreement_tol",
    ]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_min": 0}, "need 1 <= n_min <= n_max"),
        ({"n_min": 7, "n_max": 6}, "need 1 <= n_min <= n_max"),
        ({"punctured_k": 1}, "punctured approximation needs level k >= 2"),
    ],
)
def test_dim_config_rejects_bad_levels(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DimConfig(**kwargs)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_dim_config_rejects_agreement_tol_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="agreement tolerance .* is not finite and >= 0"):
        DimConfig(agreement_tol=tol)
    assert DimConfig(agreement_tol=0.0).agreement_tol == 0.0


def test_dim_report_box_flag_is_upper_box_consistency(monkeypatch):
    ref = 0.6

    def not_applicable(F, c):
        raise NotApplicable("stubbed out", "test")

    for method in METHODS:
        monkeypatch.setitem(METHODS, method, not_applicable)
    monkeypatch.setitem(METHODS, "natural", lambda F, c: (ref, "", None))
    edge = ref + 0.05
    verdicts = []
    for box in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
        monkeypatch.setitem(METHODS, "box", lambda F, c, box=box: (box, "", None))
        rep = dim_report(cantor_pair())
        ok = upper_box_consistency(ref, box).consistent
        assert rep.flags == (
            f"box <= min(1, dim) + 0.05: {box:.4f} vs {ref:.4f} ({'ok' if ok else 'VIOLATED'})",
        )
        assert rep.consistent == ok
        verdicts.append(ok)
    assert verdicts == [True, True, False]


def test_detect_fixed_point_family():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    det = detect_fixed_point_family(fam.system)
    assert det is not None
    assert det.slopes == (0.25, 0.2, 0.3, 0.25)
    assert detect_fixed_point_family(cantor_pair()) is None
    assert detect_fixed_point_family(paper_example()) is None


@pytest.mark.parametrize("index, f", [
    (0, PLMap((0.1,), (0.25, 0.2), 0.0)),  # the first map breaks (and fixes 0)
    (2, PLMap((0.9,), (0.25, 0.2), 0.755)),  # the last map breaks (and fixes 1)
    (1, PLMap((0.5, 0.7), (0.2, 0.3, 0.25), 0.4)),  # a middle map has two breaks
    (1, PLMap((0.5,), (0.2, 0.3), 0.45)),  # a middle break is not its fixed point
    (0, PLMap((), (0.5,), 0.0)),  # f_1(J) = [0, 0.5] overlaps f_2(J) = [0.4, 0.65]
], ids=["first-breaks", "last-breaks", "middle-two-breaks", "break-not-fixed",
        "first-cylinders-overlap"])
def test_detect_fixed_point_family_rejects_perturbed_shapes(index, f):
    maps = list(build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system.maps)
    F = Cplifs(tuple(maps))
    for G in (F, conjugate(F, 2.5, -1.0), reflect(F)):
        assert detect_fixed_point_family(G) is not None
    maps[index] = f
    F = Cplifs(tuple(maps))
    for G in (F, conjugate(F, 2.5, -1.0), reflect(F)):
        assert detect_fixed_point_family(G) is None


def _moved_families():
    """Three family instances for each m = 3..6, each as built, under
    x -> 2.5x - 1, under x -> 0.5x + 0.3, reflected, and with its maps
    reversed."""
    for m in range(3, 7):
        rng = random.Random(2700 + m)
        for i in range(3):
            fam = random_family_instance(rng, m)
            F = fam.system
            for how, G in (("built", F), ("2.5x-1", conjugate(F, 2.5, -1.0)),
                           ("0.5x+0.3", conjugate(F, 0.5, 0.3)), ("reflected", reflect(F)),
                           ("reversed", Cplifs(F.maps[::-1]))):
                yield pytest.param(fam, G, id=f"m{m}-{i}-{how}")


@pytest.mark.parametrize("fam, G", _moved_families())
def test_detect_fixed_point_family_is_coordinate_free(fam, G):
    # the family is its graph: no change of coordinates or order of the
    # maps hides it, and its determinant root is the graph's alpha
    det = detect_fixed_point_family(G)
    assert det is not None
    assert sorted(det.slopes) == sorted(fam.det.slopes)
    assert q_root(det) == pytest.approx(alpha(fam.graph), abs=1e-9)


def test_detect_fixed_point_family_passes_its_budget():
    F = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    with pytest.raises(BudgetExceeded):
        detect_fixed_point_family(F, budget=2)
    assert detect_fixed_point_family(F, budget=3) is not None


def test_export_text_of_the_paper_graph_is_unchanged():
    # the listing as written with the inline "{x:.17g}" format that
    # specfile.fmt now provides
    F = paper_example()
    assert associate_from_periodic(F, auto_codes(F)).export_text() == (
        "node 0 word=1 side=full hull=0,0.5\n"
        "node 1 word=2 side=full hull=0.90000000000000002,1\n"
        "edge 0 0 ratio=0.80000000000000004 offset=0\n"
        "edge 0 1 ratio=0.20000000000000001 offset=0.30000000000000004\n"
        "edge 1 0 ratio=0.10000000000000001 offset=0.90000000000000002\n"
        "edge 1 1 ratio=0.10000000000000001 offset=0.90000000000000002\n"
    )


def test_export_text_deterministic():
    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    text = fam.graph.export_text()
    assert text == fam.graph.export_text()
    assert text.count("\nedge ") + text.startswith("edge ") == 12
    assert "node 0 word=1 side=full" in text
    assert "node 1 word=2 side=left" in text

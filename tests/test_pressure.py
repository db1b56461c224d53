import math
import random
import tracemalloc

import numpy as np
import pytest

from plifs import (
    Cplifs,
    PLMap,
    natural_dimension,
    pressure_at,
    solve_level_root,
    upper_box_consistency,
)
from plifs.core import _CHUNK, Level, cylinder_arrays, cylinders
from plifs.errors import DegenerateAttractor
from plifs.gdifs import build_fixed_point_family
from plifs.pressure import _aggregate_lengths, bisect_decreasing

from helpers import cantor_pair, paper_example, random_increasing_system, unit_cover

LOG23 = math.log(2) / math.log(3)


# --- pressure_at -------------------------------------------------------------

def test_pressure_cantor_zero_at_dimension():
    C = cantor_pair()
    for n in (1, 4, 9):
        assert pressure_at(C, LOG23, n) == pytest.approx(0.0, abs=1e-12)


def test_pressure_at_zero_is_log_m():
    for F in (cantor_pair(), paper_example()):
        for n in (1, 3, 6):
            assert pressure_at(F, 0.0, n) == pytest.approx(math.log(F.m), abs=1e-12)


def test_pressure_cantor_s1_level1():
    assert pressure_at(cantor_pair(), 1.0, 1) == pytest.approx(math.log(2 / 3), abs=1e-12)


def test_pressure_strictly_decreasing_in_s():
    rng = random.Random(5)
    for _ in range(8):
        F = random_increasing_system(rng)
        n = rng.randint(1, 5)
        values = [pressure_at(F, s, n) for s in [0.04 * i for i in range(50)]]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_pressure_rejects_negative_s():
    with pytest.raises(ValueError):
        pressure_at(cantor_pair(), -0.1, 2)


def test_pressure_degenerate_point_attractor():
    F = Cplifs((PLMap((), (0.5,), 0.25),))
    with pytest.raises(DegenerateAttractor):
        pressure_at(F, 0.5, 2)


# --- solve_level_root ---------------------------------------------------------

def test_root_cantor_closed_form():
    for n in (1, 3, 7):
        prof = solve_level_root(cantor_pair(), n)
        assert prof.root == pytest.approx(LOG23, abs=1e-12)
        assert prof.word_count == 2**n


def test_root_paper_example_printed_values():
    assert solve_level_root(paper_example(), 6).root == pytest.approx(0.57913815, abs=1e-8)
    assert solve_level_root(paper_example(), 11).root == pytest.approx(0.58918180, abs=1e-8)


def test_root_consistency_with_pressure():
    rng = random.Random(6)
    for _ in range(6):
        F = random_increasing_system(rng)
        n = rng.randint(1, 6)
        s_n = solve_level_root(F, n).root
        assert pressure_at(F, s_n, n) == pytest.approx(0.0, abs=1e-10)


def test_root_single_map_is_zero():
    F = Cplifs((PLMap((), (0.5,), 0.25),))
    assert solve_level_root(F, 4).root == 0.0


@pytest.mark.parametrize("steep", [1e12, 1e100])
def test_root_solver_keeps_to_twice_the_bisection_count(steep):
    # a kink at the root, slope -1 left of it and -steep right of it: the
    # secant points hug the left end, and only the pull toward the midpoint
    # keeps the count within twice plain bisection's 42 evaluations for tol
    # 1e-12; without it the solve takes hundreds
    root, calls = 0.3712, []

    def g(s):
        calls.append(s)
        return root - s if s < root else -steep * (s - root)

    assert abs(bisect_decreasing(g, 1e-12, "kinked root") - root) <= 1e-12
    assert len(calls) <= 2 * 42


@pytest.mark.parametrize("band", [1e-9, 1e-3])
def test_root_solver_on_values_noisy_near_the_root(band):
    # within `band` of the root g takes random values of either sign
    rng = random.Random(8)
    root, calls = 0.3712, []

    def g(s):
        calls.append(s)
        if abs(s - root) < band:
            return rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 10.0)
        return root - s

    assert abs(bisect_decreasing(g, 1e-12, "noisy root") - root) <= band + 1e-12
    assert len(calls) <= 2 * 42


def test_root_solver_converges_superlinearly_on_a_convex_value():
    calls = []

    def g(s):
        calls.append(s)
        return math.log(2 * 0.3**s + 0.1**s)

    s = bisect_decreasing(g, 1e-13, "partition-sum root")
    assert 2 * 0.3**s + 0.1**s == pytest.approx(1.0, abs=1e-12)
    assert len(calls) <= 14  # plain bisection: 45


def test_squeeze_bound():
    # partition-sum value squeezed between the extreme-ratio lines, for
    # injective systems on an invariant interval of length 1
    rng = random.Random(9)
    for _ in range(12):
        F = random_increasing_system(rng, span=True)
        n = rng.randint(1, 6)
        s_n = solve_level_root(F, n).root
        lmin, lmax = math.log(F.min_ratio), math.log(F.max_ratio)
        for _ in range(6):
            s = max(0.0, s_n + rng.uniform(-0.5, 0.5))
            phi = pressure_at(F, s, n)
            t = s - s_n
            lo, hi = min(t * lmin, t * lmax), max(t * lmin, t * lmax)
            assert lo - 1e-9 <= phi <= hi + 1e-9


def test_affine_closed_form_all_levels_equal():
    rng = random.Random(10)
    for _ in range(6):
        ratios = [rng.uniform(0.1, 0.45) for _ in range(2)]
        taus = [0.0, 1.0 - ratios[1]]
        F = Cplifs(tuple(PLMap((), (r,), t) for r, t in zip(ratios, taus)))
        # closed form: sum r_k^s = 1
        lo, hi = 0.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sum(r**mid for r in ratios) > 1:
                lo = mid
            else:
                hi = mid
        closed = 0.5 * (lo + hi)
        for n in (1, 2, 5):
            assert solve_level_root(F, n).root == pytest.approx(closed, abs=1e-10)


# --- _aggregate_lengths ---------------------------------------------------------

def test_aggregate_lengths_equals_unique_reference():
    # any chunking of a level gives np.unique's distinct positive lengths
    # and counts on the joined level, with 0.0 and -0.0 counted as zero.
    # The last sizes span several chunks: few distinct lengths (merged
    # once, at the end), all distinct (merged once, then left for the
    # end), and each chunk a shuffle of one pool (merged again and again)
    rng = np.random.default_rng(17)

    def check(lo, hi, level):
        lens = hi - lo
        u, c = np.unique(lens[lens > 0], return_counts=True)
        logu, logc, zero, total = _aggregate_lengths(level)
        assert total == lens.size and zero == lens.size - int(c.sum())
        assert logu.tobytes() == np.log(u).tobytes()
        assert logc.tobytes() == np.log(c.astype(float)).tobytes()

    for size in (1, 2, 7, 1000, 4096, 3 * _CHUNK + 7):
        distinct = rng.uniform(1e-9, 0.5, size=rng.integers(1, 20))
        lens = rng.choice(np.concatenate([distinct, [0.0, -0.0]]), size=size)
        check(np.zeros(size), lens, Level(np.zeros(size), lens))
    lens = rng.permutation(np.concatenate([rng.uniform(1e-9, 0.5, 2 * _CHUNK), [0.0, -0.0]]))
    check(np.zeros(lens.size), lens, Level(np.zeros(lens.size), lens))
    pool = rng.uniform(1e-9, 0.5, _CHUNK)
    lens = np.concatenate([rng.permutation(pool) for _ in range(5)])
    check(np.zeros(lens.size), lens, Level(np.zeros(lens.size), lens))
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    for F, n in ((paper_example(), 10), (paper_example(), 17), (family, 11)):
        check(*cylinder_arrays(F, n), cylinders(F, n))


def test_all_zero_levels_across_chunks():
    # both maps fix 1/2, so every cylinder of the 4-chunk level 17 has
    # length 0 (+0.0 or -0.0): no distinct length, a degenerate pressure
    # and a root of 0
    F = Cplifs((PLMap((), (0.5,), 0.25), PLMap((), (-0.5,), 0.75)))
    lo, hi = cylinder_arrays(F, 17)
    assert not (hi - lo).any()
    logu, logc, zero, total = _aggregate_lengths(cylinders(F, 17))
    assert logu.size == logc.size == 0 and zero == total == 2**17
    with pytest.raises(DegenerateAttractor):
        pressure_at(F, 0.5, 17)
    prof = solve_level_root(F, 17)
    assert prof.root == 0.0 and prof.zero_count == prof.word_count == 2**17
    assert natural_dimension(F, 15, 17).roots == (0.0, 0.0, 0.0)


def test_aggregate_lengths_peak_bytes_per_word():
    # tracemalloc peak beyond the input, per word: 2.2 B with each chunk's
    # lengths sorted and counted apart; 10 B with the level's positive
    # lengths copied and sorted whole, 18.8 B with np.unique's own copy.
    # A stream of chunks whose lengths are all distinct within each chunk
    # (each a shuffle of one pool of _CHUNK lengths) takes 8.5 B: its
    # histograms merge as they come.  (When the whole level's lengths are
    # distinct, the result alone takes 16 B per word.)
    def per_word(level):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _aggregate_lengths(level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / level.size

    lo, hi = cylinder_arrays(paper_example(), 18)
    assert per_word(Level(lo, hi)) < 14.0
    pool = np.random.default_rng(5).uniform(1e-9, 0.5, _CHUNK)
    perms = np.random.default_rng(6)

    class Stream:  # a level of 16 chunks, each made as it is read
        size = 16 * _CHUNK

        def __iter__(self):
            for _ in range(16):
                yield np.zeros(_CHUNK), perms.permutation(pool)

    assert per_word(Stream()) < 14.0


# --- natural_dimension ---------------------------------------------------------

def test_natural_dimension_cantor_constant():
    est = natural_dimension(cantor_pair(), 1, 10)
    assert est.estimate == pytest.approx(LOG23, abs=1e-10)
    assert est.spread == pytest.approx(0.0, abs=1e-12)


def test_natural_dimension_paper_sequence():
    est = natural_dimension(paper_example(), 6, 11)
    printed = (0.57913815, 0.58216737, 0.58451333, 0.58638426, 0.58791145, 0.58918180)
    for got, want in zip(est.roots, printed):
        assert got == pytest.approx(want, abs=1e-7)
    assert est.estimate == pytest.approx(0.58918180, abs=1e-7)
    assert all(a < b for a, b in zip(est.roots, est.roots[1:]))


def test_natural_dimension_can_exceed_one():
    est = natural_dimension(unit_cover(), 1, 10)
    assert est.roots[0] == pytest.approx(math.log(2) / math.log(5 / 3), abs=1e-10)
    assert est.estimate > 1.0


def test_natural_dimension_matches_individual_roots():
    F = paper_example()
    est = natural_dimension(F, 2, 5)
    for n, r in zip(est.levels, est.roots):
        assert r == pytest.approx(solve_level_root(F, n).root, abs=1e-12)


# --- upper_box_consistency ------------------------------------------------------

def test_box_consistency_cases():
    est = natural_dimension(cantor_pair(), 1, 6)
    assert upper_box_consistency(est, 0.63).consistent
    assert upper_box_consistency(1.357, 1.0).consistent
    rep = upper_box_consistency(0.6, 0.9)
    assert not rep.consistent
    assert rep.margin == pytest.approx(0.3, abs=1e-12)

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plifs import (
    Cplifs,
    PLMap,
    check_iosc,
    check_small,
    cylinders,
    generated_ifs,
    image_interval,
    invariant_interval,
    lebesgue_upper_bound,
    natural_dimension,
    punctured_level,
    regularity_diagnostic,
    verify_breaking_code,
)
from plifs.core import (
    CERTIFIED_OFF_ATTRACTOR,
    UNDECIDED_AT_DEPTH,
    _CHUNK,
    Level,
    _containing_words,
    affine_restriction,
    cylinder_arrays,
    cylinder_enclosure,
    cylinder_interval,
    index_word,
    level_sweep,
    periodic_point,
    sweep_error,
    word_index,
    word_str,
)
from plifs.errors import AmbiguousContainment, BudgetExceeded, NonContractive

from helpers import (
    _reference_image,
    cantor_pair,
    conjugate,
    paper_example,
    random_family_instance,
    random_increasing_system,
    random_plmap,
    reference_level_sweep,
    three_break_mixed_signs,
)


# --- construction invariants -------------------------------------------------

def test_plmap_validation():
    with pytest.raises(ValueError):
        PLMap((0.5,), (0.8,), 0.0)  # wrong slope count
    with pytest.raises(ValueError):
        PLMap((0.5, 0.4), (0.1, 0.2, 0.3), 0.0)  # breaks not increasing
    with pytest.raises(NonContractive):
        PLMap((), (1.0,), 0.0)
    with pytest.raises(ValueError):
        PLMap((0.5,), (0.3, 0.3), 0.0)  # adjacent slopes equal
    with pytest.raises(ValueError):
        PLMap((0.5,), (0.3, 0.0), 0.0)  # zero slope


def test_continuity_at_breaks():
    rng = random.Random(11)
    for _ in range(200):
        f = random_plmap(rng)
        for b in f.breaks:
            i = f.breaks.index(b)
            left = f.slopes[i] * b + f._intercepts[i]
            right = f.slopes[i + 1] * b + f._intercepts[i + 1]
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


def test_tau_is_value_at_zero():
    rng = random.Random(12)
    for _ in range(100):
        f = random_plmap(rng)
        assert f(0.0) == pytest.approx(f.tau, abs=1e-12)


# --- map evaluation ----------------------------------------------------------

def test_eval_map_at_break():
    f = PLMap((0.5,), (0.8, 0.2), 0.0)
    assert f(0.5) == pytest.approx(0.4, abs=1e-15)


def test_eval_map_affine():
    f = PLMap((), (0.1,), 0.9)
    assert f(1.0) == pytest.approx(1.0, abs=1e-15)


def test_eval_map_tent():
    f = PLMap((0.5,), (0.6, -0.6), 0.0)
    assert f(1.0) == pytest.approx(0.0, abs=1e-15)


# --- image_interval ----------------------------------------------------------

def test_image_tent_extremum_at_break():
    f = PLMap((0.5,), (0.6, -0.6), 0.0)
    assert image_interval(f, (0.0, 1.0)) == pytest.approx((0.0, 0.3), abs=1e-15)


def test_image_monotone_endpoints():
    f = PLMap((0.5,), (0.8, 0.2), 0.0)
    assert image_interval(f, (0.0, 1.0)) == pytest.approx((0.0, 0.5), abs=1e-15)


def test_image_affine():
    f = PLMap((), (1 / 3,), 2 / 3)
    assert image_interval(f, (0.0, 1.0)) == pytest.approx((2 / 3, 1.0), abs=1e-15)


def test_image_matches_dense_grid():
    # pointwise-evaluation oracle: uniform grid refined by the break points
    # (a uniform grid alone undershoots extrema attained at a break)
    rng = random.Random(7)
    for _ in range(25):
        f = random_plmap(rng, max_breaks=4)
        a = rng.uniform(-2.0, 0.5)
        b = a + rng.uniform(0.1, 2.5)
        lo, hi = image_interval(f, (a, b))
        grid = np.concatenate(
            [np.linspace(a, b, 10001), [x for x in f.breaks if a < x < b]]
        )
        vals = np.array([f(x) for x in grid])
        assert abs(lo - vals.min()) <= 1e-9
        assert abs(hi - vals.max()) <= 1e-9


def test_image_arrays_match_scalar():
    rng = random.Random(8)
    from plifs.core import _image_into

    for _ in range(20):
        f = random_plmap(rng)
        lo = np.array([rng.uniform(-2, 1) for _ in range(50)])
        hi = lo + np.array([rng.uniform(0.01, 2) for _ in range(50)])
        alo, ahi = np.empty(50), np.empty(50)
        _image_into(f, lo, hi, alo, ahi)
        for i in range(50):
            assert (alo[i], ahi[i]) == image_interval(f, (lo[i], hi[i]))


def _one_piece_cases():
    """(map, lo, hi, whether the chunk lies in one piece) for
    `_image_into`: _CHUNK words, endpoints drawn around the break b = 0.5."""
    rng = np.random.default_rng(9)
    n, b = _CHUNK, 0.5
    up = PLMap((b,), (0.8, 0.2), 0.0)  # the paper example's first map
    down = PLMap((b,), (-0.6, 0.3), 0.7)  # folded: the slope below b is negative
    neg = PLMap((b,), (-0.4, -0.3), 0.9)
    zero_up, zero_down = PLMap((), (0.5,), -0.0), PLMap((), (-0.5,), -0.0)  # intercept -0.0

    def draw(a, c):
        lo = rng.uniform(a, c, n)
        hi = np.minimum(lo + rng.uniform(0.0, 0.05, n), c)
        hi[::7] = lo[::7]  # zero-length intervals
        return lo, hi

    below, above = draw(0.0, np.nextafter(b, 0.0)), draw(b, 1.0)
    above[0][:3] = above[1][:3] = b  # lo == b, and zero-length at b
    at_b = (below[0].copy(), below[1].copy())
    at_b[1][5] = b  # hi == b: b is in the next piece
    across = draw(0.0, 1.0)
    zeros = (np.zeros(n), np.zeros(n))  # +-0.0 endpoints, zero lengths and ties
    zeros[0][::2] = -0.0
    zeros[1][::3] = -0.0
    zeros[1][1::4] = rng.uniform(0.0, 1e-3, zeros[1][1::4].size)
    cases = []
    for name, f in (("up", up), ("down", down), ("neg", neg)):
        cases += [pytest.param(f, *below, True, id=f"{name}-below"),
                  pytest.param(f, *above, True, id=f"{name}-above"),
                  pytest.param(f, *at_b, False, id=f"{name}-hi_at_break"),
                  pytest.param(f, *across, False, id=f"{name}-across")]
    for name, f, one_piece in (("up", up, True), ("down", down, True),
                               ("zero_up", zero_up, False), ("zero_down", zero_down, False)):
        cases.append(pytest.param(f, *zeros, one_piece, id=f"{name}-signed_zeros"))
    return cases


@pytest.mark.parametrize("f, lo, hi, one_piece", _one_piece_cases())
def test_image_into_is_bit_identical_to_reference(f, lo, hi, one_piece):
    # a chunk wholly inside one piece is imaged with no scratch, one that
    # touches or straddles a break, or has a -0.0 intercept, on the full
    # path; both give the reference's bytes, signed zeros included
    from plifs.core import _image_into

    assert (lo <= hi).all() and lo.size == _CHUNK
    out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
    _image_into(f, lo, hi, out_lo, out_hi)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        _image_into(f, lo, hi, out_lo, out_hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref_lo, ref_hi = _reference_image(f, lo, hi)
    assert out_lo.tobytes() == ref_lo.tobytes() and out_hi.tobytes() == ref_hi.tobytes()
    assert (peak < 1024) == one_piece  # the full path peaks at about 10 B per word


# --- invariant interval ------------------------------------------------------

def test_invariant_interval_cantor():
    lo, hi = invariant_interval(cantor_pair())
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_invariant_interval_paper_example():
    F = paper_example()
    lo, hi = invariant_interval(F)
    assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-12)
    for f in F.maps:
        a, b = image_interval(f, (lo, hi))
        assert a >= lo - 1e-12 and b <= hi + 1e-12


def test_invariant_interval_single_map_point():
    F = Cplifs((PLMap((), (0.5,), 0.25),))
    lo, hi = invariant_interval(F)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_invariant_interval_minimality():
    rng = random.Random(21)
    for _ in range(20):
        F = random_increasing_system(rng, span=False)
        lo, hi = invariant_interval(F)
        if hi - lo < 1e-3:
            continue
        for cand in ((lo + 1e-6, hi), (lo, hi - 1e-6)):
            ok = True
            for f in F.maps:
                a, b = image_interval(f, cand)
                if a < cand[0] - 1e-9 or b > cand[1] + 1e-9:
                    ok = False
            assert not ok, "shrunk interval should no longer be invariant"


# --- cylinders ---------------------------------------------------------------

def words(m, n):
    """All words of length n over {1..m} in lexicographic order."""
    return itertools.product(range(1, m + 1), repeat=n)


def test_cantor_level2_cylinders():
    lo, hi = cylinder_arrays(cantor_pair(), 2)
    expected = {
        (1, 1): (0.0, 1 / 9),
        (1, 2): (2 / 9, 1 / 3),
        (2, 1): (2 / 3, 7 / 9),
        (2, 2): (8 / 9, 1.0),
    }
    assert lo.size == hi.size == 4
    for w, iv in expected.items():
        i = word_index(w, 2)
        assert (lo[i], hi[i]) == pytest.approx(iv, abs=1e-12)


def test_level1_cylinders_are_map_images(paper=paper_example()):
    lo, hi = cylinder_arrays(paper, 1)
    iv = invariant_interval(paper)
    for k, f in enumerate(paper.maps, 1):
        assert (lo[k - 1], hi[k - 1]) == pytest.approx(image_interval(f, iv), abs=1e-15)
    assert (lo[0], hi[0]) == pytest.approx((0.0, 0.5), abs=1e-12)
    assert (lo[1], hi[1]) == pytest.approx((0.9, 1.0), abs=1e-12)


def test_cylinder_nesting_and_shrinking():
    rng = random.Random(31)
    for _ in range(10):
        F = random_increasing_system(rng, m=rng.randint(2, 3), span=False)
        lo, hi = invariant_interval(F)
        width = hi - lo
        rho = F.max_ratio
        prev = cylinder_arrays(F, 1)
        for n in range(2, 9):
            cur = cylinder_arrays(F, n)
            for w in words(F.m, n):
                a, b = (x[word_index(w, F.m)] for x in cur)
                pa, pb = (x[word_index(w[:-1], F.m)] for x in prev)
                assert a >= pa - 1e-12 and b <= pb + 1e-12
                assert b - a <= rho**n * width + 1e-12
            prev = cur


def test_cylinder_budget():
    with pytest.raises(BudgetExceeded):
        cylinders(cantor_pair(), 10, budget=100)


def test_cylinder_arrays_match_dict():
    F = paper_example()
    lo, hi = cylinder_arrays(F, 5)
    jlo, jhi = cylinders(F, 5).join()
    for i, w in enumerate(words(F.m, 5)):
        assert word_index(w, F.m) == i
        assert (lo[i], hi[i]) == (jlo[i], jhi[i]) == cylinder_interval(F, w)


def test_cylinder_set_is_a_view_over_the_arrays():
    F = paper_example()
    level = cylinders(F, 3)
    lo, hi = cylinder_arrays(F, 3)
    assert level.size == lo.size == 8
    assert [index_word(i, 2, 3) for i in range(8)] == list(words(2, 3))
    i = word_index((2, 1, 2), 2)
    assert i == 0b101 and (lo[i], hi[i]) == cylinder_interval(F, (2, 1, 2))


def test_cylinders_join_to_cylinder_arrays_and_arrays_join_uncopied():
    # the lazy last level joins to the arrays byte for byte, on each of
    # two joins; a level held as arrays joins to those arrays themselves,
    # and its chunks are views of them
    for F, n in ((paper_example(), 17), (cantor_pair(), 3), (paper_example(), 0)):
        level, (lo, hi) = cylinders(F, n), cylinder_arrays(F, n)
        assert level.size == lo.size == F.m**n
        for _ in range(2):
            jlo, jhi = level.join()
            assert jlo.tobytes() == lo.tobytes() and jhi.tobytes() == hi.tobytes()
    lo, hi = cylinder_arrays(paper_example(), 17)
    held = Level(lo, hi)
    jlo, jhi = held.join()
    assert jlo is lo and jhi is hi and held.size == lo.size
    chunks = list(held)
    assert len(chunks) == 4
    assert all(np.shares_memory(c, lo) and np.shares_memory(d, hi) for c, d in chunks)


# --- level sweep and word indices --------------------------------------------

def test_level_sweep_matches_cylinder_arrays():
    rng = random.Random(47)
    for _ in range(6):
        F = random_increasing_system(rng, span=False)
        levels = [level.join() for level in level_sweep(F, 8)]
        assert len(levels) == 9
        for n, (lo, hi) in enumerate(levels):
            ref_lo, ref_hi = cylinder_arrays(F, n)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        # array position = word index, checked against the scalar fold
        for n in range(4):
            lo, hi = levels[n]
            for w in words(F.m, n):
                assert (lo[word_index(w, F.m)], hi[word_index(w, F.m)]) == cylinder_interval(F, w)


def test_level_sweep_is_bit_identical_to_reference():
    # the reference builds each map's images apart and concatenates them;
    # the sweep writes them in place and must give the same bytes, signed
    # zeros included (the last system keeps a -0.0 at every level)
    rng = random.Random(83)
    systems = [random_increasing_system(rng, span=False) for _ in range(30)]
    systems += [
        paper_example(),
        Cplifs((PLMap((0.4,), (0.6, -0.3), 0.0), PLMap((), (0.3,), 0.7))),  # folded
        Cplifs((PLMap((), (-0.3,), 0.35), PLMap((), (-0.3,), 0.95),
                PLMap((0.5,), (-0.2, -0.4), 0.6))),  # all decreasing
        three_break_mixed_signs(),
        Cplifs((PLMap((), (0.5,), -0.0), PLMap((), (0.4,), 0.6))),
    ]
    for F in systems:
        for level, (rlo, rhi) in zip(level_sweep(F, 8), reference_level_sweep(F, 8),
                                     strict=True):
            lo, hi = level.join()
            assert lo.tobytes() == rlo.tobytes() and hi.tobytes() == rhi.tobytes()
    assert np.signbit(cylinder_arrays(systems[-1], 8)[0][0])


def test_levels_across_chunk_edges_are_bit_identical_to_reference():
    # paper levels 17 and 18 hold 4 and 8 chunks, the family's level 11
    # (3^11 words) 6; every level comes in order in chunks of at most
    # _CHUNK words, the same chunks on each pass, and joins to the
    # reference level byte for byte
    from plifs.gdifs import build_fixed_point_family

    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    assert 3**11 > 5 * _CHUNK and 2**17 == 4 * _CHUNK
    for F, n_max in ((paper_example(), 18), (family, 11)):
        sweep = zip(level_sweep(F, n_max), reference_level_sweep(F, n_max), strict=True)
        for n, (level, (rlo, rhi)) in enumerate(sweep):
            chunks = list(level)
            assert all(0 < lo.size == hi.size <= _CHUNK for lo, hi in chunks)
            assert sum(lo.size for lo, _ in chunks) == level.size == F.m**n
            again = list(level)
            assert [c[0].tobytes() + c[1].tobytes() for c in again] == [
                c[0].tobytes() + c[1].tobytes() for c in chunks]
            lo, hi = level.join()
            assert lo.tobytes() == rlo.tobytes() and hi.tobytes() == rhi.tobytes()
        lo, hi = cylinder_arrays(F, n_max)
        assert lo.tobytes() == rlo.tobytes() and hi.tobytes() == rhi.tobytes()


def test_sweep_builds_levels_lazily_and_never_the_deepest(monkeypatch):
    # the budget is checked before any level is built; level n is built
    # when the consumer asks for it, from level n - 1; the deepest level's
    # chunks are computed on each pass over them, a chunk at a time, so a
    # pass holds a few chunks, not the level
    from plifs import core

    words = []
    image_into = core._image_into

    def spy(f, lo, *rest):
        words.append(lo.size)
        image_into(f, lo, *rest)

    monkeypatch.setattr(core, "_image_into", spy)
    with pytest.raises(BudgetExceeded):  # checked before level 0
        next(level_sweep(paper_example(), 18, budget=2**17))
    assert not words
    sweep = level_sweep(paper_example(), 18)
    for n in range(18):
        next(sweep)
        assert sum(words) == 2 ** (n + 1) - 2  # levels 1..n, in calls of at most _CHUNK words
    assert max(words) == _CHUNK
    deepest = next(sweep)
    assert sum(words) == 2**18 - 2 and deepest.size == 2**18
    for _ in range(2):
        del words[:]
        tracemalloc.start()
        try:
            for _ in deepest:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(words) == 2**18 and max(words) == _CHUNK
        assert peak < 3 * 16 * _CHUNK < 16 * 2**18 / 2


def test_sweep_peak_bytes_per_word():
    # tracemalloc peak per word of the deepest level: 25.3 B, 21.9 B and
    # 14.3 B with the deepest level read in chunks and never built and the
    # levels below it built a chunk at a time (23.1 B and 14.5 B for the
    # last two with those built a map at a time); 29 B, 34 B and 32.9 B
    # with it built whole, and 40 B and 88 B for the first two with per-map
    # images, a concatenated copy and index arrays.  The bounds on the last
    # two are the chunked figures plus 25%.
    from plifs.gdifs import build_fixed_point_family

    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    paper = paper_example()
    invariant_interval(family), invariant_interval(paper)  # fill the caches

    def per_word(call, words):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / words

    assert per_word(lambda: cylinder_arrays(paper, 18), 2**18) < 34.0
    assert per_word(lambda: lebesgue_upper_bound(family, 11), 3**11) < 27.4
    assert per_word(lambda: natural_dimension(paper, 6, 18), 2**18) < 17.9


def test_sweep_error_bounds_every_swept_endpoint():
    # the exact cylinder lies between its rational enclosures, so a swept
    # endpoint within sweep_error of the exact one lies within that bound
    # of the enclosure; the systems include folded maps and an invariant
    # interval, near [1/14, 13/14], that no float holds exactly
    rng = random.Random(61)
    systems = [paper_example(), random_increasing_system(rng, span=False),
               Cplifs((PLMap((), (-0.3,), 0.35), PLMap((), (-0.3,), 0.95)))]
    systems += [Cplifs((random_plmap(rng), random_plmap(rng))) for _ in range(3)]
    for F in systems:
        E = Fraction(sweep_error(F))
        assert 0 < E < 1e-13
        lo, hi = cylinder_arrays(F, 5)
        for i, w in enumerate(words(F.m, 5)):
            inner, outer = cylinder_enclosure(F, w)
            assert outer[0] - E <= Fraction(lo[i]) and Fraction(hi[i]) <= outer[1] + E
            if inner is not None:
                assert Fraction(lo[i]) <= inner[0] + E and Fraction(hi[i]) >= inner[1] - E


@pytest.mark.parametrize("m", [2, 3])
def test_word_index_round_trip_in_lexicographic_order(m):
    for n in range(5):
        for i, w in enumerate(words(m, n)):
            assert word_index(w, m) == i
            assert index_word(i, m, n) == w


def test_containing_words_from_prefix():
    F = paper_example()
    full = _containing_words(F, 0.5, 7, 10**6)
    assert full
    for prefix in [(1,), (1, 2), (2,)]:
        sub = _containing_words(F, 0.5, 7 - len(prefix), 10**6, prefix)
        assert sub == [w for w in full if w[: len(prefix)] == prefix]


@pytest.mark.parametrize("run", [
    lambda F: natural_dimension(F, 1, 10, budget=100),
    lambda F: lebesgue_upper_bound(F, 10, budget=100),
    lambda F: punctured_level(F, 10, budget=100),
], ids=["natural_dimension", "lebesgue_upper_bound", "punctured_level"])
def test_sweep_consumers_raise_budget_exceeded(run):
    with pytest.raises(BudgetExceeded):
        run(paper_example())


# --- IOSC --------------------------------------------------------------------

def test_iosc_cantor():
    rep = check_iosc(cantor_pair())
    assert rep.ok
    assert rep.min_gap == pytest.approx(1 / 3, abs=1e-12)


def test_iosc_touching_is_false():
    F = Cplifs((PLMap((), (0.5,), 0.0), PLMap((), (0.5,), 0.5)))
    rep = check_iosc(F)
    assert not rep.ok
    assert rep.touching_pairs == ((1, 2),)


def test_iosc_paper_example():
    rep = check_iosc(paper_example())
    assert rep.ok
    assert rep.min_gap == pytest.approx(0.4, abs=1e-12)


def test_iosc_symmetry_and_conjugation_invariance():
    rng = random.Random(41)
    for _ in range(15):
        F = random_increasing_system(rng, span=False)
        rep = check_iosc(F)
        perm = list(F.maps)
        rng.shuffle(perm)
        assert check_iosc(Cplifs(tuple(perm))).ok == rep.ok
        a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)
        rep2 = check_iosc(conjugate(F, a, b))
        assert rep2.ok == rep.ok
        if math.isfinite(rep.min_gap):
            assert rep2.min_gap == pytest.approx(a * rep.min_gap, rel=1e-9)


# --- smallness / injectivity -------------------------------------------------

def test_small_cantor():
    assert check_small(cantor_pair()).ok


def test_small_paper_example_fails_clause_b_i():
    rep = check_small(paper_example())
    assert not rep.ok
    assert rep.sum_ok  # 0.8 + 0.1 < 1
    assert rep.failing_clauses() == ("b-i:map 1",)


def test_small_tent_needs_stricter_bound():
    F = Cplifs((PLMap((0.5,), (0.6, -0.6), 0.0),))
    rep = check_small(F)
    assert not rep.ok
    entry = rep.per_map[0]
    assert not entry.injective
    assert entry.bound == pytest.approx((1 - 0.6) / 2, abs=1e-15)


@pytest.mark.parametrize(
    "slopes,expected",
    [((0.8, 0.2), True), ((0.6, -0.6), False), ((-0.3, -0.5), True)],
)
def test_is_injective(slopes, expected):
    breaks = (0.5,) if len(slopes) > 1 else ()
    assert PLMap(breaks, slopes, 0.0).is_injective() is expected


# --- regularity diagnostics --------------------------------------------------

def test_regularity_certified_off_attractor():
    F = Cplifs((PLMap((0.5,), (0.3, 0.34), 0.0), PLMap((), (1 / 3,), 2 / 3)))
    (status,) = regularity_diagnostic(F, 2)
    assert status.status == CERTIFIED_OFF_ATTRACTOR
    assert status.point == 0.5


def test_regularity_paper_example_undecided():
    for depth in (3, 6):
        (status,) = regularity_diagnostic(paper_example(), depth)
        assert status.status == UNDECIDED_AT_DEPTH
        assert status.witnesses == ((1,) + (2,) * (depth - 1),)


def test_regularity_no_breaks_empty():
    assert regularity_diagnostic(cantor_pair(), 4) == ()


@pytest.mark.parametrize("F", [paper_example(), cantor_pair()], ids=["paper", "cantor"])
def test_regularity_negative_depth_raises(F):
    with pytest.raises(ValueError, match="depth"):
        regularity_diagnostic(F, -1)


# --- breaking-point codes ----------------------------------------------------

def test_code_fixed_point_of_own_map():
    from plifs.gdifs import build_fixed_point_family

    fam = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))
    chk = verify_breaking_code(fam.system, 0.5, (), (2,))
    assert bool(chk) is True
    assert chk.residual_period <= 1e-12


def test_code_paper_example_eventually_periodic():
    chk = verify_breaking_code(paper_example(), 0.5, (1,), (2,))
    assert bool(chk) is True
    assert chk.periodic_point == pytest.approx(1.0, abs=1e-12)


def test_code_paper_example_wrong_period():
    chk = verify_breaking_code(paper_example(), 0.5, (), (1,))
    assert bool(chk) is False


def test_code_rejects_non_breaking_point():
    with pytest.raises(ValueError):
        verify_breaking_code(paper_example(), 0.25, (), (1,))


def test_periodic_point_settles_rounding_two_cycle():
    # iterating x -> 0.9 - 0.7x rounds into a 2-cycle of iterates wider
    # than a 1e-16 relative stop; the closed form has no iterates
    F = Cplifs((PLMap((), (-0.7,), 0.9),))
    assert periodic_point(F, (1,)) == pytest.approx(0.9 / 1.7, abs=1e-15)


@pytest.mark.parametrize("s", [1 - 1e-15, 1 - 2**-52, -1 + 1e-15, -1 + 2**-53])
@pytest.mark.parametrize("c", [0.3, -2.5e-16, 1e-300])
def test_fixed_point_near_unit_slope_is_the_closed_form(s, c):
    assert PLMap((), (s,), c).fixed_point() == c / (1.0 - s)


def test_fixed_point_of_family_middle_map_is_its_break():
    from plifs.gdifs import build_fixed_point_family

    rng = random.Random(3)
    families = [build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,))]
    families += [random_family_instance(rng, m) for m in (3, 4, 5, 6) for _ in range(5)]
    for fam in families:
        for f in fam.system.maps[1:-1]:
            assert abs(f.fixed_point() - f.breaks[0]) <= 1e-15


# --- affine restrictions and generated system --------------------------------

def test_affine_restriction_simple():
    F = paper_example()
    aff = affine_restriction(F, (1,), (0.9, 1.0))
    assert aff.ratio == pytest.approx(0.2, abs=1e-15)
    assert aff.offset == pytest.approx(0.3, abs=1e-15)
    aff2 = affine_restriction(F, (1, 2), (0.0, 0.5))
    assert aff2.ratio == pytest.approx(0.2 * 0.1, rel=1e-12)


def test_affine_restriction_rejects_straddling_break():
    F = paper_example()
    with pytest.raises(AmbiguousContainment):
        affine_restriction(F, (1,), (0.4, 0.6))


def test_generated_ifs_pieces():
    sims = generated_ifs(paper_example())
    assert [(s.map_index, s.piece_index) for s in sims] == [(1, 1), (1, 2), (2, 1)]
    assert sims[1].ratio == pytest.approx(0.2)
    assert sims[1].offset == pytest.approx(0.3)


def test_word_str():
    assert word_str((1, 2, 1)) == "121"
    assert word_str(()) == ""

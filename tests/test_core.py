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
    eval_map,
    generated_ifs,
    image_interval,
    invariant_interval,
    is_injective,
    lebesgue_upper_bound,
    natural_dimension,
    punctured_level,
    regularity_diagnostic,
    verify_breaking_code,
)
from plifs.core import (
    CERTIFIED_OFF_ATTRACTOR,
    UNDECIDED_AT_DEPTH,
    _containing_words,
    affine_restriction,
    cylinder_arrays,
    cylinder_enclosure,
    cylinder_interval,
    index_word,
    level_sweep,
    level_words,
    sweep_error,
    word_index,
    word_str,
)
from plifs.errors import AmbiguousContainment, BudgetExceeded, NonContractive

from helpers import (
    cantor_pair,
    conjugate,
    paper_example,
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


# --- eval_map ----------------------------------------------------------------

def test_eval_map_at_break():
    f = PLMap((0.5,), (0.8, 0.2), 0.0)
    assert eval_map(f, 0.5) == pytest.approx(0.4, abs=1e-15)


def test_eval_map_affine():
    f = PLMap((), (0.1,), 0.9)
    assert eval_map(f, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_eval_map_tent():
    f = PLMap((0.5,), (0.6, -0.6), 0.0)
    assert eval_map(f, 1.0) == pytest.approx(0.0, abs=1e-15)


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
            slo, shi = image_interval(f, (lo[i], hi[i]))
            assert alo[i] == pytest.approx(slo, abs=1e-14)
            assert ahi[i] == pytest.approx(shi, abs=1e-14)


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

def test_cantor_level2_cylinders():
    cyl = cylinders(cantor_pair(), 2)
    expected = {
        (1, 1): (0.0, 1 / 9),
        (1, 2): (2 / 9, 1 / 3),
        (2, 1): (2 / 3, 7 / 9),
        (2, 2): (8 / 9, 1.0),
    }
    assert len(cyl) == 4
    for w, iv in expected.items():
        assert cyl[w] == pytest.approx(iv, abs=1e-12)


def test_level1_cylinders_are_map_images(paper=paper_example()):
    cyl = cylinders(paper, 1)
    iv = invariant_interval(paper)
    for k, f in enumerate(paper.maps, 1):
        assert cyl[(k,)] == pytest.approx(image_interval(f, iv), abs=1e-15)
    assert cyl[(1,)] == pytest.approx((0.0, 0.5), abs=1e-12)
    assert cyl[(2,)] == pytest.approx((0.9, 1.0), abs=1e-12)


def test_cylinder_nesting_and_shrinking():
    rng = random.Random(31)
    for _ in range(10):
        F = random_increasing_system(rng, m=rng.randint(2, 3), span=False)
        lo, hi = invariant_interval(F)
        width = hi - lo
        rho = F.max_ratio
        prev = cylinders(F, 1)
        for n in range(2, 9):
            cur = cylinders(F, n)
            for w, (a, b) in cur.items():
                pa, pb = prev[w[:-1]]
                assert a >= pa - 1e-12 and b <= pb + 1e-12
                assert b - a <= rho**n * width + 1e-12
            prev = cur


def test_cylinder_budget():
    with pytest.raises(BudgetExceeded):
        cylinders(cantor_pair(), 10, budget=100)


def test_cylinder_arrays_match_dict():
    F = paper_example()
    lo, hi = cylinder_arrays(F, 5)
    cyl = cylinders(F, 5)
    for i, (w, (a, b)) in enumerate(cyl.items()):
        assert lo[i] == pytest.approx(a, abs=0.0)
        assert hi[i] == pytest.approx(b, abs=0.0)


def test_cylinder_set_is_a_view_over_the_arrays():
    F = paper_example()
    cyl = cylinders(F, 3)
    lo, hi = cylinder_arrays(F, 3)
    assert len(cyl) == 8
    assert [w for w, _ in cyl.items()] == list(level_words(2, 3))
    assert cyl[(2, 1, 2)] == (lo[5], hi[5])  # 212 -> index 0b101
    for bad in [(1, 2), (1, 2, 1, 1), (1, 2, 3), (0, 1, 1)]:
        with pytest.raises(KeyError):
            cyl[bad]


# --- level sweep and word indices --------------------------------------------

def test_level_sweep_matches_cylinder_arrays():
    rng = random.Random(47)
    for _ in range(6):
        F = random_increasing_system(rng, span=False)
        levels = list(level_sweep(F, 8))
        assert len(levels) == 9
        for n, (lo, hi) in enumerate(levels):
            ref_lo, ref_hi = cylinder_arrays(F, n)
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        # array position = word index, checked against the scalar fold
        for n in range(4):
            lo, hi = levels[n]
            for w in level_words(F.m, n):
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
        for (lo, hi), (rlo, rhi) in zip(level_sweep(F, 8), reference_level_sweep(F, 8),
                                        strict=True):
            assert lo.tobytes() == rlo.tobytes() and hi.tobytes() == rhi.tobytes()
    assert np.signbit(cylinder_arrays(systems[-1], 8)[0][0])


def test_sweep_peak_bytes_per_word():
    # tracemalloc peak per word of the deepest level, 28.5 B and 34 B with
    # levels built in place and a union without index arrays; 40 B and
    # 88 B with per-map images, a concatenated copy and index arrays
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
    assert per_word(lambda: lebesgue_upper_bound(family, 11), 3**11) < 48.0


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
        for i, w in enumerate(level_words(F.m, 5)):
            inner, outer = cylinder_enclosure(F, w)
            assert outer[0] - E <= Fraction(lo[i]) and Fraction(hi[i]) <= outer[1] + E
            if inner is not None:
                assert Fraction(lo[i]) <= inner[0] + E and Fraction(hi[i]) >= inner[1] - E


@pytest.mark.parametrize("m", [2, 3])
def test_word_index_round_trip_in_lexicographic_order(m):
    for n in range(5):
        for i, w in enumerate(level_words(m, n)):
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
    assert is_injective(PLMap(breaks, slopes, 0.0)) is expected


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

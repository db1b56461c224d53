import gc
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plifs import (
    Cplifs,
    PLMap,
    lebesgue_upper_bound,
    natural_dimension,
    pressure_at,
    solve_level_root,
    upper_box_consistency,
)
from plifs.core import (
    _CHUNK, Level, carried_levels, cylinder_arrays, cylinders, level_blocks, sweep_error,
    word_index,
)
from plifs.errors import BudgetExceeded, ConvergenceFailure, DegenerateAttractor, PlifsError
from plifs.gdifs import build_fixed_point_family
from plifs.pressure import _LengthCounts, _logsumexp, _root_from_logs, bisect_decreasing

from helpers import (
    cantor_pair,
    code_batch,
    conjugate,
    exact_cylinder_lengths,
    exact_cylinders,
    paper_example,
    period_two,
    random_family_instance,
    random_increasing_system,
    random_iosc_affine,
    reference_carried_levels,
    reference_partition_sums,
    three_break_mixed_signs,
    unit_cover,
)

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


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_pressure_rejects_non_finite_s(s):
    # before any level is built: a budget of 1 would raise BudgetExceeded.
    # nan used to give nan, inf a numpy RuntimeWarning
    with pytest.raises(ValueError, match="is not finite and >= 0"):
        pressure_at(cantor_pair(), s, 30, budget=1)


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


@pytest.mark.parametrize("F", [cantor_pair(), paper_example()], ids=["cantor", "paper"])
@pytest.mark.parametrize("n", [0, -1])
def test_root_rejects_level_below_one(F, n):
    # the guard the three partition sums share, before any level is built:
    # Cantor's level 0 used to give root 0.0, the paper example's (J of
    # length 1) ConvergenceFailure
    for call in (lambda: solve_level_root(F, n, budget=0),
                 lambda: pressure_at(F, 0.5, n, budget=0),
                 lambda: natural_dimension(F, n, 3, budget=0)):
        with pytest.raises(ValueError, match="level must be >= 1"):
            call()


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


# --- _LengthCounts -------------------------------------------------------------

def _aggregate_lengths(level):
    """`_LengthCounts.logs` of a level's chunks, fed in order, each as the
    histogram of its lengths hi - lo."""
    counts = _LengthCounts()
    for lo, hi in level:
        counts.add(*np.unique(hi - lo, return_counts=True))
    return counts.logs()


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


# --- the depth-first walk ------------------------------------------------------

def _past_base(m):
    """Two levels past the base level of `level_blocks`: the deepest level
    of at most _CHUNK words, plus 2."""
    n = 0
    while m ** (n + 1) <= _CHUNK:
        n += 1
    return n + 2


def _outcome(call):
    """A call's value, or the type and message of the PlifsError it raises."""
    try:
        return call()
    except PlifsError as e:
        return type(e), str(e)


def _identity_systems():
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    tent = Cplifs((PLMap((0.5,), (0.4, -0.4), 0.0), PLMap((), (0.2,), 0.88),
                   PLMap((0.0,), (0.25, 0.35), 0.45)))  # folded
    decreasing = Cplifs((PLMap((), (-0.5,), -0.0), PLMap((0.5,), (-0.3, -0.2), 0.9)))
    six = random_family_instance(random.Random(4), m=6).system
    systems = [paper_example(), cantor_pair(), family, period_two(), tent, decreasing,
               unit_cover(), six]
    return systems + code_batch()[::7][:40]


def test_partition_sums_are_bit_identical_to_the_word_ordered_reference():
    # the reference counts each level of the word-ordered sweep whole; the
    # walk counts blocks in depth-first order, past the base level too, and
    # gives the same roots, counts and sums, or raises the same error
    raised = 0
    for F in _identity_systems():
        n = _past_base(F.m)
        ref = reference_partition_sums(F, 1, n)
        want = _outcome(lambda: [_root_from_logs(u, c).hex() for u, c, _, _ in ref])
        got = _outcome(lambda: [r.hex() for r in natural_dimension(F, 1, n).roots])
        assert got == want
        raised += not isinstance(want, list)
        logu, logc, zero, count = ref[-1]
        want = _outcome(lambda: (_root_from_logs(logu, logc).hex(), count, zero))
        prof = _outcome(lambda: solve_level_root(F, n))
        got = prof if isinstance(prof, tuple) else (prof.root.hex(), prof.word_count,
                                                    prof.zero_count)
        assert got == want
        for s in (0.0, 0.7, 1.3):
            want = (_logsumexp(s * logu + logc) / n).hex() if logu.size else (
                DegenerateAttractor, f"all level-{n} cylinders have zero length")
            got = _outcome(lambda: pressure_at(F, s, n).hex())
            assert got == want
    assert 0 < raised < 48  # both outcomes are exercised


def _blocks_by_prefix(F, n_max):
    """The blocks of `level_blocks(F, 0, n_max)` as (n, start, hull,
    histogram): each block of level n past the base level b holds the
    words of one prefix of n - b symbols, the words start.. start + m^b of
    the level in word order.  Depth first, the first map applied is the
    outermost loop, so the prefix is the reversed path of map indices."""
    b = _past_base(F.m) - 2
    path = []
    for n, hull, hist in level_blocks(F, 0, n_max):
        if n <= b:
            yield n, 0, hull, hist
            continue
        if len(path) >= n - b:
            del path[n - b:]
            path[-1] += 1
        else:
            path.append(0)
        start = 0
        for k in reversed(path):
            start = start * F.m + k
        yield n, start * F.m**b, hull, hist


def test_level_blocks_hold_every_word_once():
    # each block is the words of one prefix, in word order a slice of the
    # level, and its histogram is np.unique of the slice's carried lengths
    # in the word-ordered reference, bit for bit; its hull encloses the
    # slice's intervals, and is their least lo and largest hi on the
    # paper example, the family and period-two; the blocks of a level hold
    # its m^n words once each
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    exact = [(paper_example(), 17), (family, 11), (period_two(), 11)]
    others = [(F, _past_base(F.m) - 1) for F in _identity_systems()[4:] + code_batch()[1::50]]
    for F, n in exact + others:
        levels = list(reference_carried_levels(F, n))
        seen = [np.zeros(F.m**k, bool) for k in range(n + 1)]
        for k, start, (lo, hi), (u, c) in _blocks_by_prefix(F, n):
            rlo, rhi, rlen = levels[k]
            size = min(rlo.size, F.m ** (_past_base(F.m) - 2))
            part = slice(start, start + size)
            assert not seen[k][part].any()
            seen[k][part] = True
            ru, rc = np.unique(rlen[part], return_counts=True)
            assert u.tobytes() == ru.tobytes() and np.array_equal(c, rc)
            assert lo <= rlo[part].min() and rhi[part].max() <= hi
            if (F, n) in exact:
                assert (lo, hi) == (rlo[part].min(), rhi[part].max())
        assert all(s.all() for s in seen)


def test_block_hull_encloses_its_words_where_it_ends_at_a_break():
    # a block whose hull ends at a break of the map lies in the closed
    # piece left of it, but its word at the break is imaged by the piece
    # right of it, as bisect_right picks: 0.3 * 0.7 + c_1 rounds above
    # 0.7 * 0.7, so the child's hull takes both values, and encloses the
    # images of the words
    from plifs.core import _Block, _Walk, _child, _image_into

    f = PLMap((0.7,), (0.7, 0.3), 0.0)
    assert f(0.7) > 0.7 * 0.7
    lo, hi = np.array([0.1, 0.2]), np.array([0.15, 0.7])
    parent = _Block(1, 0.1, 0.7, (np.array([0.05, 0.5]), np.array([1, 1])),
                    words=(lo, hi, hi - lo))
    child = _child(f, parent, _Walk(1, 2, 1))
    assert child.words is None and child.p == 0
    out_lo, out_hi = np.empty(2), np.empty(2)
    _image_into(f, lo, hi, out_lo, out_hi)
    assert child.lo == out_lo.min() and child.hi == out_hi.max() == f(0.7)


def test_carried_levels_are_bit_identical_to_the_word_ordered_reference():
    # the base levels of the walk carry each cylinder's length as the
    # reference does, word by word: the sweep's endpoints and the same
    # lengths, bit for bit, on injective, folded and decreasing systems
    for F in _identity_systems():
        n = 8 if F.m == 2 else 5
        for got, want in zip(carried_levels(F, n), reference_carried_levels(F, n), strict=True):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def _accuracy_systems():
    """The systems whose carried lengths are compared with the exact ones:
    the oracle tests' walked and swept systems, `code_batch()[565]`, the
    tent and the all-decreasing system, and `random_iosc_affine` draws."""
    rng = random.Random(31)
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    decreasing = Cplifs((PLMap((), (-0.3,), 0.3), PLMap((), (-0.3,), 1.0)))
    mixed = Cplifs((PLMap((), (0.3,), 0.0), PLMap((), (-0.3,), 1.0)))
    systems = [paper_example(), cantor_pair(), family, period_two(), decreasing, mixed,
               code_batch()[565], three_break_mixed_signs()] + _identity_systems()[4:6]
    return systems + [random_iosc_affine(rng) for _ in range(6)]


def test_carried_lengths_are_within_roundings_of_the_exact_lengths():
    # the exact cylinders are f_w(J), J read exactly and the maps those
    # their float parameters define.  A word whose cylinders, float and
    # exact, no break cuts at any level has its carried length within 2n
    # roundings (u = 2^-53) of the exact one, relative, where hi - lo was
    # off by up to 4e8 times that; a word that a break cuts somewhere,
    # where the length is read off the endpoints, is within sweep_error(F)
    # absolute.  The paper example's exact f_1 reaches 0.5 + 2.8e-17, so
    # its exact cylinders 1 2^k are cut by the break 0.5 that ends the
    # float ones: 1 1 2^6 is off by 1.3e-10 relative
    relative = absolute = 0
    for F in _accuracy_systems():
        N = 8 if F.m == 2 else 5
        err = Fraction(sweep_error(F))
        cut = [False]
        for n, (lo, hi, length) in enumerate(carried_levels(F, N)):
            exact = exact_cylinders(F, n)
            if n:
                cut = [c or any(a < b < z or x < b < y for b in f.breaks)
                       for f in F.maps
                       for c, (a, z), x, y in zip(cut, parents, plo.tolist(), phi.tolist())]
            for cut_here, (a, z), got in zip(cut, exact, length.tolist()):
                if cut_here:
                    absolute += 1
                    assert abs(Fraction(got) - (z - a)) <= err
                else:
                    relative += 1
                    assert abs(Fraction(got) - (z - a)) <= 2 * max(n, 1) * Fraction(1, 2**53) * (z - a)
            plo, phi, parents = lo, hi, exact
    assert relative > absolute > 0
    paper = exact_cylinder_lengths(paper_example(), 8)[word_index((1, 1) + (2,) * 6, 2)]
    got = next(itertools.islice(carried_levels(paper_example(), 8), 8, None))[2]
    assert 1e-10 < abs(Fraction(got[word_index((1, 1) + (2,) * 6, 2)]) / paper - 1) < 2e-10


def test_cantor_roots_and_bounds_lose_no_digits():
    # carried lengths keep every level of the Cantor pair to rounding: the
    # roots within 1e-12 of log 2 / log 3 (hi - lo lost 5.0e-12) and the
    # bounds within 1e-14 relative of (2/3)^n (hi - lo lost 1.7e-10)
    roots = natural_dimension(cantor_pair(), 1, 20).roots
    assert all(abs(r - LOG23) <= 1e-12 for r in roots)
    bounds = lebesgue_upper_bound(cantor_pair(), 20)
    assert all(abs(b - (2 / 3) ** n) <= 1e-14 * (2 / 3) ** n for n, b in enumerate(bounds, 1))


def test_roots_of_a_separated_system_rise_to_its_dimension():
    # code_batch()[565] is separated, with alpha = 0.2556 (its association
    # graph's root): its roots fell from 0.2549 at n = 12 to 0.178 at
    # n = 19 as hi - lo cancelled; carried, they rise towards alpha
    from plifs.gdifs import alpha, associate_from_periodic, auto_codes

    F = code_batch()[565]
    a = alpha(associate_from_periodic(F, auto_codes(F)))
    roots = natural_dimension(F, 6, 19).roots
    assert all(x <= y for x, y in zip(roots, roots[1:]))
    assert all(abs(r - a) <= 2e-3 for r in roots)


def test_walk_makes_word_by_word_only_the_blocks_a_break_cuts(monkeypatch):
    # past the base level b, a block whose hull lies in one closed piece of
    # the map is its parent's histogram scaled; only the blocks that a
    # break cuts, and their ancestors' words where those are not held, are
    # imaged, each once.  The Cantor pair has no break, the paper example's
    # break 0.5 ends I_1, so only f_1 of level b is cut, and the family's
    # middle map breaks at its fixed point, which cuts one block a level
    from plifs import core

    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    image_into, imaged = core._image_into, []

    def spy(f, lo, *rest):
        imaged.append(lo.size)
        image_into(f, lo, *rest)

    monkeypatch.setattr(core, "_image_into", spy)
    for F, n, cut in ((cantor_pair(), 20, 0), (paper_example(), 22, 1), (family, 14, 5)):
        b = _past_base(F.m) - 2
        del imaged[:]
        natural_dimension(F, 6, n)
        words = [size for size in imaged if size == F.m**b]
        assert len(words) == cut
        assert sorted(imaged)[:len(imaged) - cut] == sorted(
            size for k in range(b) for size in [F.m**k] * F.m)
        del imaged[:]
        list(level_blocks(F, 6, n))
        assert len([size for size in imaged if size == F.m**b]) == cut


def test_natural_dimension_peak_does_not_scale_with_the_level():
    # tracemalloc peak of natural_dimension(paper, 6, 20): 3.95 MB, the
    # base level 15, five levels' block buffers and the histograms, where
    # the word-ordered sweep, which held level 19 whole, peaked at 12.9 MB;
    # the bound is the 3.95 MB plus 25%
    F = paper_example()
    natural_dimension(F, 6, 20)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        natural_dimension(F, 6, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 4.94e6 < 16 * 2**20


def test_partition_sums_leave_no_garbage():
    # every block buffer is freed by reference counting when the walk
    # ends: a recursion through a closure that calls itself would be a
    # reference cycle holding them until the cyclic collector ran
    F = paper_example()
    natural_dimension(F, 6, 17)
    gc.collect()
    gc.disable()
    try:
        natural_dimension(F, 6, 18)
        solve_level_root(F, 17)
        pressure_at(F, 0.5, 17)
    finally:
        found = gc.collect()
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("call", [
    lambda F, n, budget: natural_dimension(F, 6, n, budget),
    lambda F, n, budget: solve_level_root(F, n, budget),
    lambda F, n, budget: pressure_at(F, 0.5, n, budget),
], ids=["natural_dimension", "solve_level_root", "pressure_at"])
def test_budget_counts_the_deepest_level_past_the_base(call, monkeypatch):
    # the budget still counts level-n words and is checked before any
    # level or block is made
    from plifs import core

    imaged = []
    monkeypatch.setattr(core, "_image_into", lambda *args: imaged.append(args))
    F, n = paper_example(), 17
    with pytest.raises(BudgetExceeded, match=f"{2**n} needed, budget is {2**n - 1}"):
        call(F, n, 2**n - 1)
    assert not imaged
    monkeypatch.undo()
    call(F, n, 2**n)


def test_long_cylinder_raises_before_deeper_levels_are_imaged(monkeypatch):
    # the paper example conjugated onto [0, 2] has a level-1 cylinder of
    # length 1: the root solvers raise from the level-n_min lengths as the
    # walk yields them, after level 1's two images, where the whole walk to
    # level 22, 284 images, came first before; pressure_at solves no root
    # and still reads such a level
    from plifs import core

    F = conjugate(paper_example(), 2.0, 0.0)
    imaged = []
    image_into = core._image_into
    monkeypatch.setattr(core, "_image_into", lambda *args: imaged.append(args) or image_into(*args))
    message = re.escape("a cylinder has length >= 1; the partition-sum root is not unique "
                        "(conjugate the system into an interval of length <= 1)")
    for call in (lambda: natural_dimension(F, 1, 22), lambda: solve_level_root(F, 1)):
        del imaged[:]
        with pytest.raises(ConvergenceFailure, match=message):
            call()
        assert len(imaged) == F.m
    assert math.isfinite(pressure_at(F, 0.5, 1))


# --- upper_box_consistency ------------------------------------------------------

def test_box_consistency_cases():
    est = natural_dimension(cantor_pair(), 1, 6)
    assert upper_box_consistency(est, 0.63).consistent
    assert upper_box_consistency(1.357, 1.0).consistent
    rep = upper_box_consistency(0.6, 0.9)
    assert not rep.consistent
    assert rep.margin == pytest.approx(0.3, abs=1e-12)

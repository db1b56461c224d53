import hashlib
import itertools
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from plifs import Cplifs, PLMap, natural_dimension, oracle
from plifs.core import _CHUNK, Frontier, Level, cylinder_arrays, frontier_error, sweep_error
from plifs.errors import BudgetExceeded, InsufficientScales
from plifs.gdifs import METHODS, DimConfig, build_fixed_point_family
from plifs.oracle import (
    CONSISTENT_NULL,
    CONSISTENT_POSITIVE,
    INCONCLUSIVE,
    _union_length,
    box_dimension,
    chaos_game,
    frontier_box_count,
    lebesgue_upper_bound,
    measure_evidence,
    splitmix64_batch,
    uniform_batch,
)

from helpers import (
    SplitMix64,
    cantor_pair,
    chaos_game as sequential_chaos_game,
    code_batch,
    exact_level_sums,
    paper_example,
    period_two,
    random_increasing_system,
    random_iosc_affine,
    reference_union_length,
    three_break_mixed_signs,
    unit_cover,
)

LOG23 = math.log(2) / math.log(3)

# Reference outputs of the 64-bit generator; the seed-0 stream is the
# published one for this mixer.
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_rng_reference_vectors():
    gen = SplitMix64(0)
    assert tuple(gen.next_uint64() for _ in range(5)) == SEED0_STREAM


def test_rng_batch_matches_scalar():
    for seed in (0, 1, 42, 0xDEADBEEF, 2**63 + 17):
        gen = SplitMix64(seed)
        scalar = [gen.next_uint64() for _ in range(100)]
        assert splitmix64_batch(seed, 100).tolist() == scalar


def test_rng_uniform_range():
    u = uniform_batch(9, 10000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.02


# --- chaos game ----------------------------------------------------------------

def test_chaos_cantor_avoids_middle_gap():
    cloud = chaos_game(cantor_pair(), 10000, seed=3)
    assert not ((cloud > 1 / 3) & (cloud < 2 / 3)).any()


def test_chaos_single_map_collapses_to_fixed_point():
    F = Cplifs((PLMap((), (0.5,), 0.25),))
    cloud = chaos_game(F, 500, seed=1)
    assert np.max(np.abs(cloud - 0.5)) <= 1e-12


def test_chaos_paper_example_in_first_cylinders():
    cloud = chaos_game(paper_example(), 100_000, seed=5)
    inside = ((cloud >= -1e-9) & (cloud <= 0.5 + 1e-9)) | (
        (cloud >= 0.9 - 1e-9) & (cloud <= 1 + 1e-9)
    )
    assert inside.all()


def test_chaos_deterministic_per_seed():
    a = chaos_game(cantor_pair(), 2000, seed=11)
    b = chaos_game(cantor_pair(), 2000, seed=11)
    c = chaos_game(cantor_pair(), 2000, seed=12)
    assert (a == b).all()
    assert not (a == c).all()


def test_chaos_samples_within_invariant_interval():
    rng = random.Random(13)
    for _ in range(5):
        F = random_increasing_system(rng, span=False)
        from plifs import invariant_interval

        lo, hi = invariant_interval(F)
        cloud = chaos_game(F, 5000, seed=rng.randrange(2**32))
        assert (cloud >= lo - 1e-9).all()
        assert (cloud <= hi + 1e-9).all()


def test_chaos_samples_lie_in_cylinder_union():
    F = paper_example()
    cloud = chaos_game(F, 20_000, seed=21)
    lo, hi = cylinder_arrays(F, 10)
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    idx = np.searchsorted(lo, cloud, side="right") - 1
    # a sample is covered if some cylinder starting at or before it reaches it
    covered = np.zeros(len(cloud), dtype=bool)
    cmax = np.maximum.accumulate(hi)
    valid = idx >= 0
    covered[valid] = cloud[valid] <= cmax[idx[valid]] + 1e-9
    assert covered.all()


def test_chaos_weighted_selection():
    F = cantor_pair()
    cloud = chaos_game(F, 20_000, seed=2, weights=(1.0, 0.0))
    # only the first map fires: everything collapses to its fixed point
    assert np.max(np.abs(cloud - 0.0)) <= 1e-12


# --- lockstep blocks against the sequential orbit -----------------------------

def middle_break_at_fixed_point():
    """A spec file of the dim-all benchmark: the middle map breaks at its
    own fixed point.  Replayed blocks left unchecked get one seed-7 sample
    wrong by 2.7e-20 here."""
    return Cplifs(
        (
            PLMap((), (0.19893934221801801,), 0.0),
            PLMap((0.36783916460954091,), (0.13269524048492778, 0.2227142839693026),
                  0.31902865820190296),
            PLMap((), (0.15886174843712994,), 0.84113825156287003),
        )
    )


def same_samples(F, count, **kw):
    fast = chaos_game(F, count, **kw)
    slow = sequential_chaos_game(F, count, **kw)
    return fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize(
    "system, count, seed",
    [
        (paper_example, 200_000, 5),
        (cantor_pair, 200_000, 3),
        (lambda: build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system, 200_000, 8),
        (period_two, 200_000, 9),
        (middle_break_at_fixed_point, 200_000, 7),
        # r_max 0.99: 4414-step replays, still blocks; 0.999: the scalar loop
        (lambda: Cplifs((PLMap((), (0.99,), 0.0), PLMap((0.5,), (0.5, 0.2), 0.4))), 450_000, 1),
        (lambda: Cplifs((PLMap((), (0.999,), 0.0), PLMap((), (0.5,), 0.5))), 30_000, 2),
        # maps with two and three breaks: every break row of the lookup table
        (lambda: random_increasing_system(random.Random(7), max_breaks=2), 200_000, 11),
        (three_break_mixed_signs, 200_000, 6),
    ],
    ids=["paper", "cantor", "family", "period_two", "middle_break", "r0.99", "r0.999",
         "two_breaks", "three_breaks"],
)
def test_chaos_samples_equal_sequential_orbit(system, count, seed):
    assert same_samples(system(), count, seed=seed)


def test_three_break_orbit_visits_every_piece():
    # guards the power of the "three_breaks" case above: a lookup that
    # stopped short of some break would only show on a piece the orbit enters
    F = three_break_mixed_signs()
    samples = sequential_chaos_game(F, 200_000, seed=6)
    pieces = np.searchsorted(F.maps[0].breaks, samples, side="right")
    assert set(pieces.tolist()) == {0, 1, 2, 3}


def test_chaos_edge_cases_equal_sequential_orbit():
    F = cantor_pair()
    assert same_samples(F, 20_000, seed=2, weights=(1.0, 0.0))
    assert same_samples(F, 100_000, seed=3, burn_in=0)
    assert same_samples(F, 1, seed=4)
    assert same_samples(paper_example(), 1, seed=4, burn_in=0)


@pytest.mark.parametrize("seed", [0, 4, 5, 101])
def test_chaos_block_repair_restores_the_orbit(monkeypatch, seed):
    # with 256-step blocks a replayed block of the Cantor orbit ends a
    # rounding off the sequential one for these seeds; the certificate
    # must catch it and recompute that block
    repaired = []
    scalar = oracle._scalar_orbit

    def spy(maps, codes, x, out):
        repaired.append(codes.size)
        return scalar(maps, codes, x, out)

    monkeypatch.setattr(oracle, "_scalar_orbit", spy)
    assert same_samples(cantor_pair(), 200_000, seed=seed)
    assert repaired and set(repaired) == {256}


def affine_maps(m):
    """m contractions onto consecutive subintervals of [0, 1]."""
    return Cplifs(tuple(PLMap((), (0.9 / m,), k / m) for k in range(m)))


# (0.2, 1/3, 0.3, 0.2, 0) normalised: the cumsum reaches 1.0000000000000002
# at its fourth entry, before the last is set to 1.0
OVERSHOOT = (0.2, 1 / 3, 0.3, 0.2, 0.0)


@pytest.mark.parametrize(
    "m, weights",
    [
        (3, (0.0, 1.0, 2.0)),
        (3, (1.0, 0.0, 2.0)),
        (3, (1.0, 2.0, 0.0)),
        (40, None),
        (40, tuple(float(k % 7) for k in range(40))),
        (5, OVERSHOOT),
    ],
    ids=["zero_first", "zero_middle", "zero_last", "40_maps", "40_maps_weighted", "overshoot"],
)
def test_chaos_map_codes_equal_searchsorted(m, weights):
    # the sequential reference picks each map by np.searchsorted
    assert same_samples(affine_maps(m), 20_000, seed=m, weights=weights)


def test_overshoot_weights_exceed_one_before_the_last_entry():
    w = np.array(OVERSHOOT)
    assert np.cumsum(w / w.sum())[:-1].max() > 1.0


def test_chaos_rejects_negative_burn_in():
    with pytest.raises(ValueError, match="burn_in"):
        chaos_game(cantor_pair(), 10, burn_in=-1)


def test_chaos_rejects_zero_count():
    with pytest.raises(ValueError, match="count"):
        chaos_game(cantor_pair(), 0)


@pytest.mark.parametrize(
    "weights",
    [(1.0,), (1.0, 1.0, 1.0), (-0.5, 1.0), (0.0, 0.0), (math.nan, 1.0), (math.inf, 1.0),
     (math.inf, -math.inf), (1e308, 1e308)],
    ids=["short", "long", "negative", "all_zero", "nan", "inf", "inf_minus_inf", "sum_overflows"],
)
def test_chaos_rejects_bad_weights(weights):
    # unchecked, a nan or inf weight picks one map for every sample, and an
    # overflowing sum only warns
    with pytest.raises(ValueError, match="weights must be one per map"):
        chaos_game(cantor_pair(), 10, weights=weights)


def test_point_cloud_csv_is_unchanged():
    # sha256 of the index,x rows of these samples written with "{x:.17g}"
    samples = chaos_game(paper_example(), 1000, seed=3)
    text = "".join(["index,x\n", *(f"{i},{x:.17g}\n" for i, x in enumerate(samples))])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "259f5987ad73ca015a63da70a5b71f75c80f0a2926803cd685efaf3ee183fc6f"
    )


# --- box counting ----------------------------------------------------------------

def test_box_dimension_cantor():
    cloud = chaos_game(cantor_pair(), 200_000, seed=4)
    fit = box_dimension(cloud, [3.0**-j for j in range(2, 9)])
    assert abs(fit.slope - LOG23) < 0.02
    assert all(a >= b for a, b in zip(fit.counts, fit.counts[1:]))


def test_box_dimension_full_interval():
    cloud = chaos_game(unit_cover(), 200_000, seed=6)
    fit = box_dimension(cloud, [3.0**-j for j in range(2, 9)])
    assert abs(fit.slope - 1.0) < 0.02


def test_box_dimension_single_point_slope_zero():
    fit = box_dimension(np.zeros(100), [10.0**-j for j in range(1, 6)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert set(fit.counts) == {1}


def box_counts_and_full_passes(monkeypatch, xs, scales):
    """box_dimension's counts, and how many times it floored all of xs."""
    sizes = []
    floor = np.floor

    def spy(x, *args, **kw):
        sizes.append(np.size(x))
        return floor(x, *args, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(np, "floor", spy)
        counts = box_dimension(xs, scales).counts
    return counts, sizes.count(np.size(xs))


def distinct_floors(xs, scales):
    return tuple(np.unique(np.floor(xs / e)).size for e in scales)


def test_box_counts_equal_distinct_floors(monkeypatch):
    rng = np.random.default_rng(8)
    scales = [3.0**-j for j in range(9, 1, -1)]
    clouds = [
        rng.normal(size=5000),
        np.round(rng.random(3000), 3),
        rng.random((40, 50)),
        np.array([np.nan, 0.3, np.nan, np.inf, -np.inf, -0.0, 0.0, 0.3, -0.2]),
    ]
    for xs in clouds:
        counts = box_dimension(xs, scales).counts
        assert counts == distinct_floors(xs, scales)
        assert all(type(c) is int for c in counts)
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    for F in (paper_example(), cantor_pair(), family, period_two()):
        xs = chaos_game(F, 100_000, seed=12)
        scales = sorted(oracle.default_box_scales(F))
        counts, full = box_counts_and_full_passes(monkeypatch, xs, scales)
        assert counts == distinct_floors(xs, scales)
        assert full == 1  # the finest scale only: every coarser one was certified


@pytest.mark.parametrize(
    "xs, scales",
    [
        # above 2^53 fl(x / 3) is a float 128 apart from the next and holds
        # up to two of these samples, 256 apart; at 30 the floors of such a
        # finest box's two ends can be adjacent floats 8 apart, more than
        # the certificate's one
        (1.6 * 2.0**60 + 256.0 * np.arange(2000), [3.0, 3.0 + 3 * 2.0**-51, 30.0, 300.0]),
        # x / 1e-8 overflows to inf for all but the first sample, so one
        # finest box spans 11 boxes at 1e-2
        (np.linspace(1e300, 1.7e308, 1000), [1e-8, 1e-6, 1e-4, 1e-2]),
    ],
    ids=["beyond_2^53", "overflow"],
)
def test_box_counts_fall_back_to_all_samples(monkeypatch, xs, scales):
    # the certificate fails at one coarser scale, which is then floored on
    # all samples like the finest
    with np.errstate(over="ignore"):
        counts, full = box_counts_and_full_passes(monkeypatch, xs, scales)
        assert counts == distinct_floors(xs, scales)
    assert full == 2


@pytest.mark.parametrize("xs", [np.array([]), np.full(5, np.nan)], ids=["empty", "all_nan"])
def test_box_dimension_needs_a_sample_that_is_a_number(xs):
    with pytest.raises(ValueError, match="sample that is a number"):
        box_dimension(xs, [10.0**-j for j in range(1, 6)])


def test_box_dimension_scale_validation():
    with pytest.raises(InsufficientScales):
        box_dimension(np.zeros(10), [0.1, 0.2, 0.3])
    with pytest.raises(InsufficientScales):
        box_dimension(np.zeros(10), [0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_box_dimension_rejects_a_scale_that_is_not_finite(capfd, bad):
    # unchecked, either reaches the least-squares fit, which fails in LAPACK
    # with "SVD did not converge" and writes its own lines to stderr
    F = cantor_pair()
    scales = [*oracle.default_box_scales(F), bad]
    with pytest.raises(InsufficientScales, match="finite positive scales"):
        box_dimension(chaos_game(F, 1000, seed=1), scales)
    assert capfd.readouterr().err == ""


# --- frontier box counts ---------------------------------------------------------

PAPER_ALPHA = 0.6030503229870102  # gdifs root of the paper example


def frontier_levels(F, n):
    """The frontier of every word of length 0..n, no node dropped."""
    node = Frontier.root(F)
    out = [node]
    for _ in range(n):
        node = node.children(F)
        out.append(node)
    return out


@pytest.mark.parametrize("system", [paper_example, period_two, three_break_mixed_signs,
                                    unit_cover])
def test_frontier_images_cover_each_level(system):
    # the branches of the words of length n image onto the level-n
    # cylinders: their union has the same length
    F = system()
    for n, node in enumerate(frontier_levels(F, 6)):
        lo, hi = node.image()
        assert (node.dlo <= node.dhi).all() and (lo <= hi).all()
        order = np.argsort(lo, kind="stable")
        length = reference_union_length(lo[order], hi[order])
        if n:
            assert length == pytest.approx(lebesgue_upper_bound(F, n)[-1], abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_frontier_error_bounds_the_cylinder_ends(seed):
    # with affine increasing maps each word has one branch, over all of J,
    # and its image is the cylinder that the level sweep gives
    F = random_iosc_affine(random.Random(seed))
    for n, node in enumerate(frontier_levels(F, 7)):
        lo, hi = node.image()
        clo, chi = cylinder_arrays(F, n) if n else (lo, hi)
        bound = frontier_error(F, n) + sweep_error(F)
        assert np.abs(lo - clo).max() <= bound and np.abs(hi - chi).max() <= bound


def test_frontier_cantor_counts_two_boxes_per_cylinder():
    # the Cantor cylinders of level j end on box centres: two boxes each
    box = frontier_box_count(cantor_pair())
    counts = tuple(2 * 2**j for j in range(9, 1, -1))
    assert box.lower == box.fit.counts == counts
    assert box.fit.slope == pytest.approx(LOG23, abs=1e-9)


def test_frontier_box_of_the_paper_example_is_near_alpha():
    F = paper_example()
    value, _, _ = METHODS["box"](F, DimConfig())
    assert abs(value - PAPER_ALPHA) < 0.02


def test_frontier_lower_equals_upper(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads as wl

    systems = [paper_example(), cantor_pair(), period_two()]
    systems += [F for _, F in wl.generated_systems(2101, 4)]
    for F in systems:
        box = frontier_box_count(F)
        assert box.lower == box.fit.counts


def test_frontier_unit_cover_counts_every_box_and_prunes():
    # the attractor is J = [0, 1], which meets the 3^j + 1 boxes centred on
    # k 3^-j; both maps cover every image, so without dropping the nodes
    # that meet only marked boxes each round would double the last
    box = frontier_box_count(unit_cover())
    counts = tuple(3**j + 1 for j in range(9, 1, -1))
    assert box.lower == box.fit.counts == counts
    assert box.nodes <= 35_000


@pytest.mark.parametrize("F", [
    Cplifs((PLMap((), (0.5,), 0.0),)),
    Cplifs((PLMap((), (0.5,), 0.25), PLMap((), (-0.3,), 0.65))),
])
def test_frontier_one_point_attractor_is_box_zero(F):
    box = frontier_box_count(F)
    assert box.lower == box.fit.counts == (1,) * 8
    assert box.fit.slope == 0.0 and box.nodes <= 3


def test_frontier_budget():
    with pytest.raises(BudgetExceeded, match="box frontier nodes"):
        frontier_box_count(paper_example(), budget=100)


def test_frontier_round_cap(monkeypatch):
    # a round's candidates are capped whatever the budget, so its arrays
    # stay bounded in bytes
    monkeypatch.setattr(oracle, "_ROUND_CAP", 100)
    with pytest.raises(BudgetExceeded, match="box frontier round"):
        frontier_box_count(paper_example())


def test_frontier_counts_do_not_depend_on_the_part_size(monkeypatch):
    # every value is computed per node, so 5-node parts give the counts and
    # node counts of 2^15-node parts, and no part grows past 5 nodes
    systems = [paper_example(), cantor_pair(), period_two()]
    whole = [frontier_box_count(F) for F in systems]
    sizes = []
    children = Frontier.children

    def spy(node, F):
        sizes.append(node.size)
        return children(node, F)

    monkeypatch.setattr("plifs.core._CHUNK", 5)
    monkeypatch.setattr(Frontier, "children", spy)
    for F, want in zip(systems, whole):
        got = frontier_box_count(F)
        assert (got.lower, got.fit.counts, got.nodes) == (want.lower, want.fit.counts, want.nodes)
    assert max(sizes) == 5


def folded_system():
    """f1 = 0.1 x and a tent f2 with its peak f2(0.5) = 1: J = [0, 1], but
    the attractor lies in [0, 0.875], as 0.5 is not on it."""
    return Cplifs((PLMap((), (0.1,), 0.0), PLMap((0.5,), (0.5, -0.5), 0.75)))


def test_frontier_counts_no_box_off_a_folded_attractor():
    # the end 1.0 of J is the image of a point off the attractor; its box
    # (the ninth at j = 2) holds no attractor point and is not counted
    F = folded_system()
    box = frontier_box_count(F)
    xs = chaos_game(F, 200_000, seed=1)
    assert xs.max() < 0.875 + 1e-12
    assert box.lower == box.fit.counts
    assert box.fit.counts[-1] == np.unique(np.floor(xs * 9 + 0.5)).size == 4


def exact_attractor_images(F, n):
    """f_w(p_k) in rational arithmetic for every word w of length n or
    n + 1 and every map's fixed point p_k (the piece candidate in its
    domain)."""
    def at(f, x):
        i = bisect_right(f.breaks, x)
        return Fraction(f.slopes[i]) * x + f._exact_intercepts[i]

    fixed = []
    for f in F.maps:
        for i, c in enumerate(f._exact_intercepts):
            p = c / (1 - Fraction(f.slopes[i]))
            lo, hi = f.piece_domain(i)
            if lo <= p <= hi:
                fixed.append(p)
                break
    points = []
    for w in itertools.chain(itertools.product(F.maps, repeat=n),
                             itertools.product(F.maps, repeat=n + 1)):
        for p in fixed:
            for f in reversed(w):
                p = at(f, p)
            points.append(float(p))
    return np.array(points)


@pytest.mark.parametrize("system", [paper_example, period_two, three_break_mixed_signs,
                                    folded_system])
def test_attractor_images_lie_within_the_bound_of_attractor_points(system):
    F = system()
    for n, node in enumerate(frontier_levels(F, 5)):
        marks = node.attractor_images(F)
        exact = np.sort(exact_attractor_images(F, n))
        i = np.clip(np.searchsorted(exact, marks), 1, exact.size - 1)
        gap = np.minimum(np.abs(marks - exact[i - 1]), np.abs(marks - exact[i]))
        assert marks.size >= F.m**n and gap.max() <= frontier_error(F, n)


def test_frontier_node_count_of_an_overlapping_system():
    # three maps with eleven pieces whose attractor is an interval: a work
    # count that guards the pruning of overlapping, many-piece systems
    box = frontier_box_count(code_batch()[136])
    assert box.lower == box.fit.counts
    assert box.nodes <= 450_000


# --- measure bounds ----------------------------------------------------------------

def test_lebesgue_cantor_closed_form():
    bounds = lebesgue_upper_bound(cantor_pair(), 12)
    for n, b in enumerate(bounds, 1):
        assert b == pytest.approx((2 / 3) ** n, rel=1e-12)


def test_lebesgue_unit_cover_constant_one():
    bounds = lebesgue_upper_bound(unit_cover(), 10)
    for b in bounds:
        assert b == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_paper_example_level1():
    assert lebesgue_upper_bound(paper_example(), 1)[0] == pytest.approx(0.6, abs=1e-12)


def test_lebesgue_nonincreasing():
    rng = random.Random(15)
    for _ in range(8):
        F = random_increasing_system(rng, span=False)
        bounds = lebesgue_upper_bound(F, 8)
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a + 1e-12


def test_lebesgue_bounds_are_the_union_of_each_level(monkeypatch):
    # the swept systems' bounds are the union of each level's intervals,
    # bit for bit; the walked systems' cylinders are pairwise disjoint, so
    # the union's length is the sum of the exact cylinders' lengths, and
    # the carried lengths give it within 1e-14 relative
    rng = random.Random(29)
    systems = [paper_example(), cantor_pair(), unit_cover()]
    systems += [random_increasing_system(rng, span=False) for _ in range(3)]
    routes = []
    for F in systems:
        bounds, walked = _lebesgue_route(F, 8, monkeypatch)
        routes.append(walked)
        assert len(bounds) == 8
        exact = exact_level_sums(F, 8) if walked else None
        for n in range(1, 9):
            if walked:
                assert abs(bounds[n - 1] - exact[n - 1]) <= 1e-14 * exact[n - 1]
            else:
                assert bounds[n - 1] == _union_length(Level(*cylinder_arrays(F, n)))
    assert routes[:3] == [True, True, False] and not all(routes[3:])


def test_union_length_is_bit_identical_to_reference(monkeypatch):
    # levels sorted by lo are read chunk by chunk, carrying the open run
    # across chunk edges; the others (a folded system's) are joined and
    # sorted first.  Both match the reference bit for bit.
    joined = []
    join = Level.join
    monkeypatch.setattr(Level, "join", lambda level: joined.append(level.size) or join(level))
    folded = Cplifs((PLMap((0.4,), (0.6, -0.3), 0.0), PLMap((), (-0.5,), 0.9)))
    cases = [cylinder_arrays(folded, n) for n in range(1, 9)]
    assert not all((lo[1:] >= lo[:-1]).all() for lo, _ in cases)
    cases += [cylinder_arrays(folded, 17)]  # four chunks, out of order in the first
    cases += [cylinder_arrays(paper_example(), 8), cylinder_arrays(paper_example(), 17)]
    cases += [cylinder_arrays(unit_cover(), 17)]  # one run across every chunk edge
    # sorted, four chunks: runs across the first and the last chunk edge
    lo = np.arange(3 * _CHUNK + 5, dtype=float)
    hi = lo + 0.5
    hi[_CHUNK - 1] = lo[_CHUNK + 2] + 0.25
    hi[3 * _CHUNK - 3] = lo[3 * _CHUNK + 1]
    cases += [(lo, hi)]
    assert reference_union_length(lo, hi) == 0.5 * lo.size + 1.5 + 2.0
    # disjoint, three chunks, each later one opening by joining the run
    # carried into it: past its first entry's hi (second chunk), and short
    # of it (third chunk)
    lo = 2.0 * np.arange(2 * _CHUNK + 3)
    hi = lo + 1.0
    hi[_CHUNK - 1] = lo[_CHUNK] + 0.5
    hi[2 * _CHUNK - 1] = lo[2 * _CHUNK] + 1.25
    cases += [(lo, hi)]
    assert reference_union_length(lo, hi) == lo.size + 1.0 + 1.25
    # sorted lo, hi nested and not rising: one entry covers the next three
    lo = np.arange(_CHUNK + 9, dtype=float)
    hi = lo + 0.5
    hi[10] = lo[10] + 3.75
    cases += [(lo, hi)]
    lo, hi = cylinder_arrays(paper_example(), 20)  # zero-length cylinders touch
    assert ((lo[1:] == hi[:-1]) & (lo[1:] == hi[1:])).any()
    cases += [(lo, hi)]
    lo, hi = cylinder_arrays(cantor_pair(), 17)  # four chunks, pairwise disjoint
    assert (lo[1:] > hi[:-1]).all() and lo.size == 4 * _CHUNK
    cases += [(lo, hi)]
    cases += [
        (np.array([0.0, 0.1, 0.2, 0.5]), np.array([1.0, 0.3, 0.4, 0.6])),  # nested
        (np.array([0.5, 0.0, 0.2, 0.7]), np.array([0.7, 0.2, 0.5, 0.9])),  # touching
        (np.array([0.3, 0.3, 0.1, 0.9, 0.9]), np.array([0.3, 0.6, 0.1, 0.9, 1.0])),  # zero length
        (np.array([0.25]), np.array([0.75])),
    ]
    for lo, hi in cases:
        del joined[:]
        got = _union_length(Level(lo, hi))
        assert got.hex() == reference_union_length(lo, hi).hex()
        assert joined == ([] if (lo[1:] >= lo[:-1]).all() else [lo.size])


def test_lebesgue_iosc_equals_plain_sum():
    F = cantor_pair()
    lo, hi = cylinder_arrays(F, 6)
    assert lebesgue_upper_bound(F, 6)[-1] == pytest.approx(float(np.sum(hi - lo)), rel=1e-12)


def _base_level(F):
    """The base level of `core.level_blocks`: the deepest with m^b <= _CHUNK."""
    return max(b for b in range(64) if F.m**b <= _CHUNK)


def _lebesgue_route(F, n, monkeypatch):
    """lebesgue_upper_bound(F, n), and whether it read the walk of `level_blocks`."""
    walks = []
    blocks = oracle.level_blocks
    monkeypatch.setattr(oracle, "level_blocks", lambda *args: walks.append(args) or blocks(*args))
    try:
        return lebesgue_upper_bound(F, n), bool(walks)
    finally:
        monkeypatch.undo()


def test_lebesgue_walk_bounds_equal_the_swept_unions(monkeypatch):
    # systems whose first-level cylinders are pairwise disjoint and whose
    # maps are injective read each level off the walk of level_blocks, as the
    # fsum of its carried lengths: within 1e-14 relative of the sum of the
    # exact cylinders' lengths, which is the union's length, as the
    # cylinders are pairwise disjoint (the union of the float intervals
    # was off by 1.3e-13 to 4.9e-10 relative at b + 2); the others keep
    # the word-ordered sweep, bit for bit.  The decreasing and the mixed
    # pair carry lengths through maps of negative slope
    rng = random.Random(30)
    family = build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system
    decreasing = Cplifs((PLMap((), (-0.3,), 0.3), PLMap((), (-0.3,), 1.0)))
    mixed = Cplifs((PLMap((), (0.3,), 0.0), PLMap((), (-0.3,), 1.0)))
    walked = [paper_example(), cantor_pair(), family, period_two(), decreasing, mixed]
    walked += [random_iosc_affine(rng) for _ in range(4)]
    batch = code_batch()
    swept = [unit_cover(), three_break_mixed_signs(), folded_system(), batch[0], batch[280]]
    for F, walks in [(F, True) for F in walked] + [(F, False) for F in swept]:
        b = _base_level(F)
        bounds, walked_here = _lebesgue_route(F, b + 2, monkeypatch)
        assert walked_here == walks
        exact = exact_level_sums(F, b + 2) if walks else None
        for n, got in enumerate(bounds, 1):
            if walks:
                assert abs(got - exact[n - 1]) <= 1e-14 * exact[n - 1]
            else:
                assert got.hex() == _union_length(Level(*cylinder_arrays(F, n))).hex()


def test_lebesgue_rereads_a_level_whose_block_hulls_overlap(monkeypatch):
    # a level past the base level (15 on the paper example) whose blocks'
    # hulls overlap is read again from the word-ordered sweep, here level
    # 16, whose first block is stretched over the second; the other levels
    # keep the walk's bounds, and a walk that passes its checks sweeps
    # nothing
    F, n = paper_example(), 18
    blocks, sweep = oracle.level_blocks, oracle.level_sweep
    swept = []
    monkeypatch.setattr(oracle, "level_sweep", lambda *args: swept.append(args[1]) or sweep(*args))
    want = lebesgue_upper_bound(F, n)
    assert swept == []

    def stretched(*args):
        for level in blocks(*args):
            if level.n == 16:
                hi = level.hi.copy()
                hi[0] += 1.0
                level = level._replace(hi=hi)
            yield level

    monkeypatch.setattr(oracle, "level_blocks", stretched)
    got = lebesgue_upper_bound(F, n)
    assert swept == [16]
    assert got[15] == _union_length(Level(*cylinder_arrays(F, 16)))
    assert got[:15] + got[16:] == want[:15] + want[16:]


def test_lebesgue_peak_does_not_scale_with_the_level():
    # tracemalloc peak of lebesgue_upper_bound(paper, 20): 4.57 MB, the
    # base level 15, five levels' block buffers and the run reader, where
    # the word-ordered sweep, which held level 19 whole and a run array
    # of level 20, peaked at 18.7 MB; the bound is the 4.57 MB plus 25%
    F = paper_example()
    lebesgue_upper_bound(F, 20)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lebesgue_upper_bound(F, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 5.71e6


def test_repeated_calls_take_no_fresh_pages():
    # allocation churn shows as page faults, not in any timing: with the
    # walk's buffers allocated a pair per level, each repeated
    # lebesgue_upper_bound(paper, 20) took 1,100 minor faults, and the
    # word-ordered sweep took 3,500.  A call is measured after two others:
    # the first call's buffers are mapped afresh, and freeing them moves
    # glibc's mmap threshold, so the second grows the heap once
    resource = pytest.importorskip("resource")
    F = paper_example()
    for call in (lambda: lebesgue_upper_bound(F, 20), lambda: natural_dimension(F, 6, 20)):
        call()
        call()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def _large_allocations(call, least=2**16):
    """How many lines of plifs code, as a call runs them, allocate at
    least ``least`` bytes: lines during which tracemalloc's traced memory
    rises that far above its value when the line began, whether the line
    keeps the memory or frees it again."""
    import sys

    package = str(Path(oracle.__file__).parent)
    count = start = 0

    def line(frame, event, arg):
        nonlocal count, start
        if event == "line":
            now, peak = tracemalloc.get_traced_memory()
            count += peak - start >= least
            tracemalloc.reset_peak()
            start = now
        return line

    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(package) else None)
    try:
        call()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return count


def test_repeated_calls_allocate_no_word_sized_array_per_block():
    # the page-fault test cannot see an allocation per block once glibc's
    # mmap threshold has risen.  Counted as lines that allocate 64 KiB or
    # more (a quarter of one word array of the base level 15), each
    # repeated call makes 16 such allocations on the paper example at
    # n = 20: the base levels' arrays and the one block a break cuts.  The
    # bound is one per level; one per block past the base level would be
    # 62 more
    F, n = paper_example(), 20
    for call in (lambda: lebesgue_upper_bound(F, n), lambda: natural_dimension(F, 6, n)):
        call()
        assert _large_allocations(call) <= n


# --- verdicts ----------------------------------------------------------------------

def test_measure_evidence_positive():
    bounds = lebesgue_upper_bound(unit_cover(), 8)
    s1 = natural_dimension(unit_cover(), 1, 4).estimate
    v = measure_evidence(bounds, s1)
    assert v.classification == CONSISTENT_POSITIVE
    assert v.plateau


def test_measure_evidence_null():
    bounds = lebesgue_upper_bound(cantor_pair(), 8)
    v = measure_evidence(bounds, LOG23)
    assert v.classification == CONSISTENT_NULL
    assert v.decaying


def test_measure_evidence_inconclusive():
    v = measure_evidence([1.0, 0.9, 0.8, 0.7], 1.5)
    assert v.classification == INCONCLUSIVE


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_measure_evidence_rejects_plateau_tol_not_finite_and_positive(tol):
    bounds = lebesgue_upper_bound(cantor_pair(), 8)
    with pytest.raises(ValueError, match="plateau tolerance .* is not finite and > 0"):
        measure_evidence(bounds, LOG23, plateau_tol=tol)
    assert measure_evidence(bounds, LOG23, plateau_tol=5e-324).plateau_tol == 5e-324

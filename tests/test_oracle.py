import hashlib
import math
import random

import numpy as np
import pytest

from plifs import Cplifs, PLMap, natural_dimension, oracle
from plifs.core import _CHUNK, Level, cylinder_arrays
from plifs.errors import InsufficientScales
from plifs.gdifs import build_fixed_point_family
from plifs.oracle import (
    CONSISTENT_NULL,
    CONSISTENT_POSITIVE,
    INCONCLUSIVE,
    PointCloud,
    _union_length,
    box_dimension,
    chaos_game,
    lebesgue_upper_bound,
    measure_evidence,
    splitmix64_batch,
    uniform_batch,
)

from helpers import (
    SplitMix64,
    cantor_pair,
    chaos_game as sequential_chaos_game,
    paper_example,
    period_two,
    random_increasing_system,
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
    assert not ((cloud.samples > 1 / 3) & (cloud.samples < 2 / 3)).any()


def test_chaos_single_map_collapses_to_fixed_point():
    F = Cplifs((PLMap((), (0.5,), 0.25),))
    cloud = chaos_game(F, 500, seed=1)
    assert np.max(np.abs(cloud.samples - 0.5)) <= 1e-12


def test_chaos_paper_example_in_first_cylinders():
    cloud = chaos_game(paper_example(), 100_000, seed=5)
    inside = ((cloud.samples >= -1e-9) & (cloud.samples <= 0.5 + 1e-9)) | (
        (cloud.samples >= 0.9 - 1e-9) & (cloud.samples <= 1 + 1e-9)
    )
    assert inside.all()


def test_chaos_deterministic_per_seed():
    a = chaos_game(cantor_pair(), 2000, seed=11)
    b = chaos_game(cantor_pair(), 2000, seed=11)
    c = chaos_game(cantor_pair(), 2000, seed=12)
    assert (a.samples == b.samples).all()
    assert not (a.samples == c.samples).all()


def test_chaos_samples_within_invariant_interval():
    rng = random.Random(13)
    for _ in range(5):
        F = random_increasing_system(rng, span=False)
        from plifs import invariant_interval

        lo, hi = invariant_interval(F)
        cloud = chaos_game(F, 5000, seed=rng.randrange(2**32))
        assert (cloud.samples >= lo - 1e-9).all()
        assert (cloud.samples <= hi + 1e-9).all()


def test_chaos_samples_lie_in_cylinder_union():
    F = paper_example()
    cloud = chaos_game(F, 20_000, seed=21)
    lo, hi = cylinder_arrays(F, 10)
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    idx = np.searchsorted(lo, cloud.samples, side="right") - 1
    # a sample is covered if some cylinder starting at or before it reaches it
    covered = np.zeros(len(cloud.samples), dtype=bool)
    cmax = np.maximum.accumulate(hi)
    valid = idx >= 0
    covered[valid] = cloud.samples[valid] <= cmax[idx[valid]] + 1e-9
    assert covered.all()


def test_chaos_weighted_selection():
    F = cantor_pair()
    cloud = chaos_game(F, 20_000, seed=2, weights=(1.0, 0.0))
    # only the first map fires: everything collapses to its fixed point
    assert np.max(np.abs(cloud.samples - 0.0)) <= 1e-12


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
    return fast.samples.tobytes() == slow.samples.tobytes() and fast.weights == slow.weights


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
    samples = sequential_chaos_game(F, 200_000, seed=6).samples
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


def test_point_cloud_csv_is_unchanged():
    # sha256 of the CSV text of this cloud as written with the inline
    # "{x:.17g}" format that specfile.fmt now provides
    text = chaos_game(paper_example(), 1000, seed=3).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "259f5987ad73ca015a63da70a5b71f75c80f0a2926803cd685efaf3ee183fc6f"
    )


def test_point_cloud_csv():
    cloud = PointCloud(samples=np.array([0.5, 1 / 3]), seed=0, burn_in=0, weights=(1.0,))
    text = cloud.to_csv()
    assert text.splitlines()[0] == "index,x"
    assert text.splitlines()[1] == "0,0.5"
    assert text.splitlines()[2] == "1,0.33333333333333331"


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
        xs = chaos_game(F, 100_000, seed=12).samples
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


def test_lebesgue_bounds_are_the_union_of_each_level():
    rng = random.Random(29)
    systems = [paper_example(), cantor_pair(), unit_cover()]
    systems += [random_increasing_system(rng, span=False) for _ in range(3)]
    for F in systems:
        bounds = lebesgue_upper_bound(F, 8)
        assert len(bounds) == 8
        for n in range(1, 9):
            assert bounds[n - 1] == _union_length(Level(*cylinder_arrays(F, n)))


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

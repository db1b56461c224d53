"""Property tests of `core._branches`, the fold under `affine_restriction`
and `periodic_point`: its domains tile the interval in order, each
branch's similarity is the composition there, and `affine_restriction`
is its one-branch case."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from plifs import Cplifs  # noqa: E402
from plifs.core import _apply_word, _branches, affine_restriction, invariant_interval  # noqa: E402
from plifs.errors import AmbiguousContainment  # noqa: E402

from helpers import random_increasing_system, random_plmap  # noqa: E402


@st.composite
def cases(draw):
    """A system (two `random_plmap` maps, or a `random_increasing_system`),
    a word of length 1..5 over it, and an interval: the invariant interval
    or a subinterval of it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        F = Cplifs((random_plmap(rng), random_plmap(rng)))
    else:
        F = random_increasing_system(rng)
    w = tuple(draw(st.lists(st.integers(1, F.m), min_size=1, max_size=5)))
    lo, hi = invariant_interval(F)
    u, v = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    iv = (lo, hi) if draw(st.booleans()) else (lo + u * (hi - lo), lo + v * (hi - lo))
    return F, w, iv


settings = hypothesis.settings(max_examples=200, deadline=None)


@settings
@hypothesis.given(cases())
def test_branch_domains_tile_the_interval_in_order(case):
    F, w, iv = case
    domains = [d for d, _ in _branches(F, w, iv)]
    assert domains[0][0] == iv[0] and domains[-1][1] == iv[1]
    assert all(a <= b for a, b in domains)
    assert all(d[1] == e[0] for d, e in zip(domains, domains[1:]))


@settings
@hypothesis.given(cases())
def test_branch_map_is_the_composition_at_its_midpoint(case):
    F, w, iv = case
    for (a, b), sim in _branches(F, w, iv):
        x = 0.5 * (a + b)
        assert abs(sim(x) - _apply_word(F, w, x)) <= 1e-12


@settings
@hypothesis.given(cases())
def test_affine_restriction_is_the_one_branch_case(case):
    F, w, iv = case
    branches = _branches(F, w, iv)
    if len(branches) > 1:
        with pytest.raises(AmbiguousContainment):
            affine_restriction(F, w, iv)
    else:
        sim = affine_restriction(F, w, iv)
        expect = branches[0][1]
        assert (sim.ratio.hex(), sim.offset.hex()) == (expect.ratio.hex(), expect.offset.hex())

"""Property tests of the frontier box counts (`oracle.frontier_box_count`):
the counts do not depend on the order of the maps, and reflecting or
rescaling a system leaves them as they are, the grid being anchored at
the invariant interval J with |J| = 3^j e_j."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from plifs import Cplifs  # noqa: E402
from plifs.oracle import frontier_box_count  # noqa: E402

from helpers import (  # noqa: E402
    cantor_pair,
    conjugate,
    paper_example,
    period_two,
    random_family_instance,
    random_iosc_affine,
    reflect,
)


def counts(F):
    box = frontier_box_count(F)
    return box.lower, box.fit.counts


@st.composite
def permuted(draw):
    """A `random_iosc_affine` or `random_family_instance` system and a
    permutation of its maps."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    F = random_iosc_affine(rng) if draw(st.booleans()) else random_family_instance(rng).system
    order = draw(st.permutations(range(F.m)))
    return F, Cplifs(tuple(F.maps[i] for i in order))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(permuted())
def test_permuting_the_maps_keeps_the_counts_bit_identical(case):
    F, G = case
    assert counts(G) == counts(F)
    assert frontier_box_count(G).nodes == frontier_box_count(F).nodes


@pytest.mark.parametrize("system", [paper_example, cantor_pair, period_two])
@pytest.mark.parametrize("change", [reflect, lambda F: conjugate(F, 2.5, -1.0)],
                         ids=["reflect", "conjugate"])
def test_reflection_and_conjugation_keep_the_counts(system, change):
    F = system()
    assert counts(change(F)) == counts(F)

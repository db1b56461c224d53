"""Property tests of the exact level sum (`oracle._weighted_fsum`): for
nonnegative floats with widely spread exponents, zeros and subnormals
among them, each taken an integer number of times, it is the correctly
rounded sum, ``math.fsum`` over the expanded list, bit for bit, on both
of its paths."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from plifs import oracle  # noqa: E402

# exponents from the subnormals to near the top of the range, many terms
# of one binade, whose parts pile up at the same exponents, and powers of
# two, whose sums can fall halfway between two floats: sums of at most 60
# terms, each taken at most 2^34 times, stay finite
terms = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.floats(min_value=0.0, max_value=1e250),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1080, 800)),
    st.floats(0.5, 1.0, exclude_max=True),
    st.builds(math.ldexp, st.just(1.0), st.integers(-1074, 800)),  # sums that tie
)


def level(weights):
    return st.lists(st.tuples(terms, weights), min_size=1, max_size=60).map(
        lambda pairs: (np.array([t for t, _ in pairs]), np.array([w for _, w in pairs], np.intp)))


def exact_sum(t, w):
    """`_weighted_fsum` by the exact sum by exponent, whatever the length
    of the expanded list."""
    with mock.patch.object(oracle, "_FSUM_TERMS", -1):
        return oracle._weighted_fsum(t, w)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(level(st.one_of(st.integers(0, 1000), st.just(1000))))
def test_weighted_sum_is_fsum_of_the_expanded_terms(case):
    t, w = case
    want = math.fsum(np.repeat(t, w).tolist())
    assert exact_sum(t, w).hex() == oracle._weighted_fsum(t, w).hex() == want.hex()


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(level(st.one_of(st.integers(0, 2**34), st.just(2**34))))
def test_weighted_sum_is_exact_for_weights_up_to_a_level_of_the_budget(case):
    # weights whose sum passes 2^35 cut the mantissas into more, narrower
    # parts; the reference is the exact sum in Fraction, rounded once
    t, w = case
    want = float(sum(Fraction(x) * int(k) for x, k in zip(t.tolist(), w.tolist())))
    assert exact_sum(t, w).hex() == want.hex()

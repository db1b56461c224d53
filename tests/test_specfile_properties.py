"""Property tests of the spec-file format: finite systems round-trip
through format_spec and parse_spec, and a non-finite parameter is
rejected on its own line."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from plifs import Cplifs, PLMap, format_spec, parse_spec  # noqa: E402
from plifs.errors import ParseError  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
slope = st.floats(min_value=-0.999, max_value=0.999).filter(lambda s: s != 0.0)


@st.composite
def plmaps(draw):
    breaks = sorted(draw(st.sets(finite, max_size=3)))
    slopes = draw(
        st.lists(slope, min_size=len(breaks) + 1, max_size=len(breaks) + 1).filter(
            lambda ss: all(a != b for a, b in zip(ss, ss[1:]))
        )
    )
    return PLMap(breaks=tuple(breaks), slopes=tuple(slopes), tau=draw(finite))


systems = st.lists(plmaps(), min_size=1, max_size=4).map(lambda maps: Cplifs(tuple(maps)))
settings = hypothesis.settings(max_examples=60, deadline=None)


@settings
@hypothesis.given(systems)
def test_format_then_parse_round_trips(F):
    text = format_spec(F)
    assert parse_spec(text) == F
    assert format_spec(parse_spec(text)) == text


@settings
@hypothesis.given(
    systems,
    st.data(),
    st.sampled_from(["nan", "inf", "-inf", "+inf", "NaN", "-Infinity"]),
)
def test_non_finite_value_is_rejected_on_its_line(F, data, bad):
    lines = format_spec(F).splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split()
    col = data.draw(st.integers(1, len(fields) - 1))  # tau=, slopes= or breaks=
    key, values = fields[col].split("=")
    values = values.split(",")
    values[data.draw(st.integers(0, len(values) - 1))] = bad
    fields[col] = f"{key}={','.join(values)}"
    lines[row] = " ".join(fields)
    # a comment line ahead of each map line moves the map lines to even numbers
    text = "".join(f"# map {i + 1}\n{line}\n" for i, line in enumerate(lines))
    with pytest.raises(ParseError, match="is not finite") as err:
        parse_spec(text)
    assert err.value.line_no == 2 * (row + 1)

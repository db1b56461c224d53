import math

import pytest

from plifs import PLMap, format_spec, parse_spec
from plifs.errors import NonContractive, ParseError

from helpers import paper_example


PAPER_TEXT = """\
# the worked two-map system
map tau=0 slopes=0.8,0.2 breaks=0.5

map tau=0.9 slopes=0.1
"""


def test_parse_paper_example():
    F = parse_spec(PAPER_TEXT)
    assert F.m == 2
    assert F.type_vector == (1, 0)
    assert F.maps[0].slopes == (0.8, 0.2)
    assert F.maps[0].breaks == (0.5,)
    assert F.maps[1].tau == 0.9


def test_parse_scientific_notation():
    F = parse_spec("map tau=9e-1 slopes=1.0e-1\n")
    assert F.maps[0].tau == 0.9
    assert F.maps[0].slopes == (0.1,)


def test_round_trip_is_field_identical():
    F = parse_spec(PAPER_TEXT)
    again = parse_spec(format_spec(F))
    assert again == F
    assert format_spec(again) == format_spec(F)


def test_round_trip_random_system():
    F = paper_example()
    assert parse_spec(format_spec(F)) == F


@pytest.mark.parametrize(
    "text,line",
    [
        ("madness tau=0 slopes=0.5\n", 1),
        ("map tau=0\n", 1),
        ("map tau=x slopes=0.5\n", 1),
        ("map tau=0 slopes=0.5,abc\n", 1),
        ("map tau=0 slopes=0.5 breaks=\n", 1),
        ("map tau=0 slopes=0.5 extra=1\n", 1),
        ("map tau=0 slopes=0.5 slopes=0.5\n", 1),
        ("map tau=0 slopes=0.5\nmap tau=0 slopes=0.5,0.5 breaks=0.5\n", 2),
        ("map tau=0 slopes=0.5,0.6 breaks=0.5,0.4\nmap tau=0 slopes=0.5\n", 1),
        ("map tau=0 slopes=1.2\n", 1),
        ("", None),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line_no == line


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "line",
    [
        "map tau={} slopes=0.8,0.2 breaks=0.5",
        "map tau=0 slopes=0.8,{} breaks=0.5",
        "map tau=0 slopes=0.8,0.2 breaks={}",
    ],
    ids=["tau", "slopes", "breaks"],
)
def test_non_finite_parameter_is_a_parse_error(line, bad):
    with pytest.raises(ParseError, match="is not finite") as err:
        parse_spec("# comment\nmap tau=0.9 slopes=0.1\n\n" + line.format(bad) + "\n")
    assert err.value.line_no == 4


def test_finite_expanding_slope_is_still_non_contractive():
    with pytest.raises(NonContractive):
        PLMap(breaks=(), slopes=(1.5,), tau=0.0)
    with pytest.raises(ValueError, match="slope inf is not finite"):
        PLMap(breaks=(), slopes=(math.inf,), tau=0.0)


def test_missing_slope_count_mismatch():
    with pytest.raises(ParseError):
        parse_spec("map tau=0 slopes=0.5 breaks=0.5\n")

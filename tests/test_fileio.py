"""Target-set file grammar."""

from fractions import Fraction as F

import pytest

from accumgraph.demos import demo_set
from accumgraph.fileio import ParseError, parse_target_text, serialize_target
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet, format_rational


def test_parse_basic_pieces():
    text = """
    # a comment line
    point 0.5 3
    box 0 1 -1 2      # trailing comment
    pline 0:0 1/2:1 1:0
    hyper 0 0 1 1
    """
    t = parse_target_text(text)
    assert t.pieces == (
        Point(F(1, 2), 3),
        Box(0, 1, -1, 2),
        PLine(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))),
        Hyper(0, 0, 1, 1),
    )


def test_parse_rational_and_decimal_numbers():
    t = parse_target_text("point 1/3 -0.25\n")
    assert t.pieces[0] == Point(F(1, 3), F(-1, 4))


def test_parse_rejects_x_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_target_text("box 0 2 0 1\n")
    assert err.value.line == 1


def test_parse_rejects_bad_pline_order():
    with pytest.raises(ParseError):
        parse_target_text("pline 1/2:0 1/4:1\n")


def test_parse_rejects_pole_inside():
    with pytest.raises(ParseError):
        parse_target_text("hyper 1/2 0 1 1\n")


def test_parse_rejects_malformed_number():
    with pytest.raises(ParseError) as err:
        parse_target_text("point abc 0\n")
    assert "abc" in str(err.value)
    assert err.value.column == 7


def test_parse_rejects_unknown_keyword():
    with pytest.raises(ParseError):
        parse_target_text("circle 0 0 1\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ParseError):
        parse_target_text("box 0 1 0\n")
    with pytest.raises(ParseError):
        parse_target_text("pline 0:0\n")


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_target_text("point 0 0\npoint 0 0\nbox 0 1 1 0\n")
    assert err.value.line == 3


def test_round_trip_demos():
    for name in ("constant", "square", "hyperbola"):
        t = demo_set(name)
        assert parse_target_text(serialize_target(t)) == t
    t = demo_set("sect6", 7)
    assert parse_target_text(serialize_target(t)) == t


def test_round_trip_mixed():
    t = TargetSet((
        Point(F(1, 3), F(-7, 5)),
        Box(F(1, 8), F(3, 8), F(-2), F(2)),
        PLine(((F(0), F(1)), (F(1), F(-1)))),
        Hyper(F(1), F(1, 2), F(1), F(-3, 2)),
    ))
    assert parse_target_text(serialize_target(t)) == t


def test_serialize_comments():
    text = serialize_target(demo_set("constant"), comments=("hello",))
    assert text.startswith("# hello\n")


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"

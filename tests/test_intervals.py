"""Exact interval-set algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph.geometry import Box, EmptySliceError, Point, TargetSet
from accumgraph.intervals import (
    Span,
    XSet,
    _make_span,
    rat,
    rational_sqrt,
    span_intersection,
)
from accumgraph.synthesis import backbone

# -- strategies -------------------------------------------------------------

rationals = st.builds(
    F,
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=1, max_value=48),
).map(lambda f: min(f, F(1)))


@st.composite
def spans(draw):
    a = draw(rationals)
    b = draw(rationals)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return Span(lo, hi)
    return Span(lo, hi, draw(st.booleans()), draw(st.booleans()))


xsets = st.lists(spans(), max_size=6).map(XSet)

probe_points = st.builds(
    F,
    st.integers(min_value=0, max_value=97),
    st.just(97),
)


# -- constructors and normalization ----------------------------------------


def test_span_validation():
    with pytest.raises(ValueError):
        Span(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        Span(F(1, 2), F(1, 2), lo_open=True)


def test_merge_touching_closed():
    s = XSet([Span(F(0), F(1, 2)), Span(F(1, 2), F(1))])
    assert s == XSet.interval(0, 1)


def test_no_merge_across_missing_point():
    s = XSet([Span(F(0), F(1, 2), hi_open=True), Span(F(1, 2), F(1), lo_open=True)])
    assert len(s.spans) == 2
    assert not s.contains(F(1, 2))


def test_merge_through_point():
    s = XSet([
        Span(F(0), F(1, 2), hi_open=True),
        Span(F(1, 2), F(1, 2)),
        Span(F(1, 2), F(1), lo_open=True),
    ])
    assert s == XSet.interval(0, 1)


def test_complement_of_half_open():
    s = XSet.interval(0, 1, lo_open=True)
    assert s.complement() == XSet.point(0)


def test_point_set_roundtrip():
    s = XSet.points([F(1, 3), F(2, 3), F(1, 3)])
    assert s.isolated_points() == [F(1, 3), F(2, 3)]
    assert not s.contains_interval()


# -- membership-level properties -------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets, probe_points)
def test_complement_membership(s, x):
    assert s.complement().contains(x) == (not s.contains(x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets, xsets, probe_points)
def test_union_intersection_membership(a, b, x):
    assert (a | b).contains(x) == (a.contains(x) or b.contains(x))
    assert (a & b).contains(x) == (a.contains(x) and b.contains(x))
    assert (a - b).contains(x) == (a.contains(x) and not b.contains(x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets, probe_points)
def test_contains_matches_point_intersection(s, x):
    """``contains``, a scan of the spans, agrees with meeting the one-point
    set, which goes through ``span_intersection`` instead, at span ends
    too."""
    for p in [x] + [e for span in s.spans for e in (span.lo, span.hi)]:
        assert s.contains(p) == bool(s & XSet.point(p))


def _gaps(s):
    """The gaps between 0, the spans of s and 1, as the former complement
    walked them."""
    gaps, cursor, cursor_open = [], F(0), False
    for span in s.spans:
        gaps.append(_make_span(cursor, span.lo, cursor_open, not span.lo_open))
        cursor, cursor_open = span.hi, not span.hi_open
    gaps.append(_make_span(cursor, F(1), cursor_open, False))
    return [gap for gap in gaps if gap is not None]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets)
def test_complement_needs_no_normalizing(s):
    """The gaps of a normalized set are normalized already: the complement,
    which skips the sort and merge, is the set those gaps normalize to."""
    assert s.complement().spans == XSet(_gaps(s)).spans


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets)
def test_double_complement(s):
    assert s.complement().complement() == s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets, xsets)
def test_de_morgan(a, b):
    assert (a | b).complement() == a.complement() & b.complement()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xsets)
def test_measure_additive_with_complement(s):
    def measure(x):
        return sum((span.width for span in x.spans), F(0))

    assert measure(s) + measure(s.complement()) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spans(), spans())
def test_span_intersection_matches_xset(a, b):
    got = span_intersection(a, b)
    expected = XSet([a]) & XSet([b])
    assert (XSet([got]) if got is not None else XSet.empty()) == expected


# Ends on a grid of eighths, so spans of two sets often share an end with
# the same or the other openness.
eighths = st.integers(0, 8).map(lambda k: F(k, 8))


@st.composite
def coarse_spans(draw):
    lo, hi = sorted([draw(eighths), draw(eighths)])
    if lo == hi:
        return Span(lo, hi)
    return Span(lo, hi, draw(st.booleans()), draw(st.booleans()))


coarse_xsets = st.lists(coarse_spans(), max_size=6).map(XSet)


def _reference_intersection(a, b):
    """The all-pairs rule: every pair of spans met, then normalized."""
    return XSet(got for s in a.spans for t in b.spans
                if (got := span_intersection(s, t)) is not None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coarse_xsets | xsets, coarse_xsets | xsets)
def test_intersection_matches_all_pairs(a, b):
    """The linear walk equals the all-pairs rule, is normalized as built,
    and so is the difference through it: on points, empty sets and equal
    ends with mixed openness."""
    got = a & b
    assert got == _reference_intersection(a, b)
    assert got.spans == XSet(got.spans).spans
    assert a - b == _reference_intersection(a, b.complement())


def test_distance_to_closure():
    s = XSet.interval(F(1, 4), F(1, 2), lo_open=True)
    assert s.distance_to(F(1, 4)) == 0  # closure distance
    assert s.distance_to(F(1, 8)) == F(1, 8)
    assert s.distance_to(F(3, 4)) == F(1, 4)
    assert XSet.empty().distance_to(F(1, 2)) is None


def test_widest_interval():
    s = XSet([Span(F(0), F(1, 8)), Span(F(1, 2), F(7, 8))])
    assert s.widest_interval() == Span(F(1, 2), F(7, 8))
    assert XSet.point(F(1, 2)).widest_interval() is None


# -- slice sets --------------------------------------------------------------


def test_slice_set_merge_and_queries():
    """Touching bands stay apart in ``bands_at``; their union is the slice."""
    t = TargetSet((Box(0, 1, 0, 1), Box(0, 1, 1, 2), Point(0, 3)))
    assert sorted(t.bands_at(0)) == [(F(0), F(1)), (F(1), F(2)), (F(3), F(3))]
    assert backbone(t, 0, True)[0] == 3
    assert t.distance_to((0, F(3, 2))) == 0.0
    assert t.distance_to((0, F(5, 2))) == 0.5


def test_slice_set_min_abs():
    # n_x = max(1, ceil(min |y|)) on a one-box target: min |y| is 2, 0 and 5.
    for y0, y1, n in ((-3, -2, 2), (-1, 2, 1), (5, 5, 5)):
        assert backbone(TargetSet((Box(0, 1, y0, y1),)), F(1, 2), False)[1] == n


def test_slice_set_clipped():
    t = TargetSet((Box(0, 1, -4, -2), Box(0, 1, 1, 3)))
    assert sorted(t.clipped(F(-3), F(2)).bands_at(0)) == [(F(-3), F(-2)), (F(1), F(2))]
    assert not t.clipped(F(10), F(11)).bands_at(0)


def test_slice_set_empty_queries():
    t = TargetSet((Point(0, 1),))
    assert not t.bands_at(1)
    for bounded in (True, False):
        with pytest.raises(EmptySliceError):
            backbone(t, 1, bounded)


def test_singleton_slice():
    t = TargetSet((Point(0, -12),))
    assert t.bands_at(0) == [(F(-12), F(-12))]
    assert backbone(t, 0, True)[0] == -12 and backbone(t, 0, False)[1] == 12


# -- rational square roots ---------------------------------------------------


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(4, 3)) is None
    with pytest.raises(ValueError):
        rational_sqrt(F(-1))


def test_rat_coercions():
    assert rat("1/3") == F(1, 3)
    assert rat("0.25") == F(1, 4)
    assert rat(2) == 2

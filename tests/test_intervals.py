"""Exact interval-set algebra, against the former Fraction rules."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph.geometry import Box, EmptySliceError, Point, TargetSet
from accumgraph.intervals import Span, XSet, rat, span_intersection
from accumgraph.synthesis import backbone

# -- strategies -------------------------------------------------------------

rationals = st.builds(
    F,
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=1, max_value=48),
).map(lambda f: min(f, F(1)))


# Ends on a grid of eighths, so spans of two sets often share an end with
# the same or the other openness.
eighths = st.integers(0, 8).map(lambda k: F(k, 8))


@st.composite
def spans(draw, ends=rationals):
    """Closed, open and half-open spans, and points (one end drawn twice)."""
    a = draw(ends)
    b = draw(st.just(a) | ends)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return Span(lo, hi)
    return Span(lo, hi, draw(st.booleans()), draw(st.booleans()))


xsets = st.lists(spans(), max_size=6).map(XSet)
coarse_xsets = st.lists(spans(eighths), max_size=6).map(XSet)

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


# -- the former Fraction rules ----------------------------------------------
#
# A span as the tuple (lo, hi, lo_open, hi_open) of Fractions and flags, and
# the rules that met, merged, normalized and complemented spans in that form
# before spans held integer ends.


def fraction_span(span):
    return span.lo, span.hi, span.lo_open, span.hi_open


def reference_make(lo, hi, lo_open, hi_open):
    if lo > hi or lo == hi and (lo_open or hi_open):
        return None
    return lo, hi, lo_open, hi_open


def reference_meet(a, b):
    """The former ``span_intersection``."""
    (alo, ahi, alo_open, ahi_open), (blo, bhi, blo_open, bhi_open) = a, b
    if blo > ahi or alo > bhi:
        return None
    if alo != blo:
        lo, lo_open = (alo, alo_open) if alo > blo else (blo, blo_open)
    else:
        lo, lo_open = alo, alo_open or blo_open
    if ahi != bhi:
        hi, hi_open = (ahi, ahi_open) if ahi < bhi else (bhi, bhi_open)
    else:
        hi, hi_open = ahi, ahi_open or bhi_open
    return reference_make(lo, hi, lo_open, hi_open)


def reference_merge(a, b):
    """The former ``_merge``: the union of a and b (a.lo <= b.lo) when it is
    one span, else None."""
    (alo, ahi, alo_open, ahi_open), (blo, bhi, blo_open, bhi_open) = a, b
    if blo > ahi or blo == ahi and ahi_open and blo_open:
        return None
    if bhi != ahi:
        hi, hi_open = (bhi, bhi_open) if bhi > ahi else (ahi, ahi_open)
    else:
        hi, hi_open = ahi, ahi_open and bhi_open
    return alo, hi, alo_open and blo_open if alo == blo else alo_open, hi_open


def reference_normalize(spans):
    """The former ``XSet.__init__``: sort by (lo, lo_open, hi, hi_open) and
    merge each span into the last while the union is one span."""
    merged = []
    for span in sorted(spans, key=lambda s: (s[0], s[2], s[1], s[3])):
        joined = merged and reference_merge(merged[-1], span)
        if joined:
            merged[-1] = joined
        else:
            merged.append(span)
    return merged


def reference_complement(spans):
    """The former complement walk over normalized spans: the gaps between 0,
    the spans and 1."""
    gaps, cursor, cursor_open = [], F(0), False
    for lo, hi, lo_open, hi_open in spans:
        gaps.append(reference_make(cursor, lo, cursor_open, not lo_open))
        cursor, cursor_open = hi, not hi_open
    gaps.append(reference_make(cursor, F(1), cursor_open, False))
    return [gap for gap in gaps if gap is not None]


def fraction_spans(s):
    return [fraction_span(span) for span in s.spans]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spans() | spans(eighths), spans() | spans(eighths))
def test_span_rules_match_the_fraction_rules(a, b):
    """Integer ends meet and merge as the Fraction rules did, on open,
    closed, half-open and point spans with shared ends; the printed form
    and the Fraction reads are the former ones."""
    meet = span_intersection(a, b)
    assert (meet and fraction_span(meet)) == reference_meet(fraction_span(a), fraction_span(b))
    first, second = sorted([fraction_span(a), fraction_span(b)])
    merged = reference_merge(first, second)
    assert fraction_spans(XSet([a, b])) == ([merged] if merged else [first, second])
    lo, hi, lo_open, hi_open = fraction_span(a)
    assert Span(lo, hi, lo_open, hi_open) == a and hash(Span(lo, hi, lo_open, hi_open)) == hash(a)
    assert pickle.loads(pickle.dumps(XSet([a]))) == copy.deepcopy(XSet([a])) == XSet([a])
    assert str(a) == (f"{{{lo}}}" if lo == hi else
                      f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
    assert a.width == hi - lo and a.is_point == (lo == hi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(spans() | spans(eighths), max_size=8), coarse_xsets | xsets)
def test_normalization_matches_the_fraction_rule(items, other):
    """XSet normalizes, unites and complements as the Fraction rules did."""
    s = XSet(items)
    assert fraction_spans(s) == reference_normalize([fraction_span(i) for i in items])
    assert fraction_spans(s | other) == reference_normalize(fraction_spans(s)
                                                            + fraction_spans(other))
    assert fraction_spans(s.complement()) == reference_normalize(
        reference_complement(fraction_spans(s)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xsets)
def test_complement_needs_no_normalizing(s):
    """The gaps of a normalized set are normalized already: the complement,
    which skips the sort and merge, is the set those gaps normalize to."""
    gaps = reference_complement(fraction_spans(s))
    assert fraction_spans(s.complement()) == gaps == reference_normalize(gaps)


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
    """``Span.gap``: the distance to the closure, as (num, den)."""
    s = Span(F(1, 4), F(1, 2), lo_open=True)
    for x, d in ((F(1, 4), 0), (F(1, 8), F(1, 8)), (F(3, 4), F(1, 4)), (F(1, 3), 0)):
        num, den = s.gap(x.numerator, x.denominator)
        assert den > 0 and F(num, den) == d


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


def test_rat_coercions():
    assert rat("1/3") == F(1, 3)
    assert rat("0.25") == F(1, 4)
    assert rat(2) == 2

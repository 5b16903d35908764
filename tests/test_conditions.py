"""Regime hypothesis checks and the target analysis behind them."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph.conditions import (
    Regime,
    TargetAnalysis,
    _bracket_irrational_roots,
    check_regime,
)
from accumgraph.demos import demo_set, sect6_pole_points
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet
from accumgraph.intervals import Span, XSet, rational_sqrt


# ---------------------------------------------------------------------------
# Empty-slice set
# ---------------------------------------------------------------------------


def test_empty_slice_set_full_square():
    assert TargetAnalysis(demo_set("square")).c_set.is_empty


def test_empty_slice_set_hyperbola():
    assert TargetAnalysis(demo_set("hyperbola")).c_set == XSet.point(0)


def test_empty_slice_set_short_box():
    c = TargetAnalysis(TargetSet((Box(0, F(1, 4), 0, 0),))).c_set
    assert c == XSet.interval(F(1, 4), 1, lo_open=True)
    assert c.widest_interval() == Span(F(1, 4), F(1), lo_open=True)


def test_empty_slice_set_sect6():
    depth = 4
    c = TargetAnalysis(demo_set("sect6", depth)).c_set
    assert c == XSet.points(sect6_pole_points(depth))


# ---------------------------------------------------------------------------
# Multiplicity sets
# ---------------------------------------------------------------------------


def test_multiplicity_full_square():
    data = TargetAnalysis(demo_set("square"))
    assert data.d_set == XSet.interval(0, 1)
    assert data.d_levels(2)[0] == XSet.interval(0, 1)


def test_multiplicity_single_pline():
    t = TargetSet((PLine(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))),))
    data = TargetAnalysis(t)
    assert data.d_set.is_empty
    assert all(dn.is_empty for dn in data.d_levels(4))


def test_multiplicity_box_and_point():
    t = TargetSet((Box(0, 1, 0, 0), Point(F(1, 2), 1)))
    data = TargetAnalysis(t)
    assert data.d_set == XSet.point(F(1, 2))
    assert data.d_levels(2)[0] == XSet.point(F(1, 2))


def merged_slice(target, x):
    """The slice at x as sorted, merged closed intervals."""
    out = []
    for a, b in sorted(target.bands_at(x)):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def is_multivalued(intervals):
    return len(intervals) > 1 or any(a < b for a, b in intervals)


def oracle_multiplicity_points(target, denominator=240):
    """Brute-force scan: x values with more than one distinct slice point."""
    out = []
    for i in range(denominator + 1):
        x = F(i, denominator)
        if is_multivalued(merged_slice(target, x)):
            out.append(x)
    return out


def test_multiplicity_matches_brute_force_scan():
    t = TargetSet((
        Box(0, 1, 0, 0),
        Point(F(1, 2), 1),
        PLine(((F(1, 4), F(0)), (F(3, 4), F(2)))),
        Hyper(F(0), F(1, 8), F(7, 8), F(1)),
    ))
    d = TargetAnalysis(t).d_set
    for x in (F(i, 240) for i in range(241)):
        expected = is_multivalued(merged_slice(t, x))
        # D may keep finitely many irrational coincidence points; rational
        # probes see the exact set.
        assert d.contains(x) == expected, f"x={x}"


def test_diameter_levels_nested_and_below_d():
    t = TargetSet((
        Box(0, 1, 0, 0),
        PLine(((F(0), F(0)), (F(1), F(2)))),
    ))
    data = TargetAnalysis(t)
    d_levels = data.d_levels(8)
    for prev, cur in zip(d_levels, d_levels[1:]):
        assert (prev - cur).is_empty
    for dn in d_levels:
        assert (dn - data.d_set).is_empty
    # diam(x) = 2x here, so D_n = {x : 2x >= 1/n} = [1/(2n), 1].
    for n in (1, 2, 4, 8):
        assert d_levels[n - 1] == XSet.interval(F(1, 2 * n), 1)
    assert data.d_set == XSet.interval(0, 1, lo_open=True)


def test_diameter_levels_irrational_boundary_inner():
    # Line y = x against the branch 3/(x - 2): the diameter threshold
    # equations have irrational roots, so the level sets are inner dyadic
    # approximations; every reported point must truly satisfy diam >= 1/n.
    t = TargetSet((
        PLine(((F(0), F(0)), (F(1), F(1)))),
        Hyper(F(2), F(0), F(1), F(3)),
    ))
    data = TargetAnalysis(t)
    for n in (1, 2, 3, 4):
        dn = data.d_levels(4)[n - 1]
        for span in dn.spans:
            for probe in {span.lo, span.hi, (span.lo + span.hi) / 2}:
                if dn.contains(probe):
                    values = merged_slice(t, probe)
                    assert values[-1][1] - values[0][0] >= F(1, n)
        assert (dn - data.d_set).is_empty


def bisection_brackets(a, b, c):
    """Inner stand-ins for the irrational roots of a x^2 + b x + c by
    bisection: widen w from 1 by doubling until a q(vertex -+ w) > 0, halve
    [vertex - w, vertex] and [vertex, vertex + w] 80 times each, and keep the
    cell ends on the unsatisfied side of each root."""
    def q(x):
        return (a * x + b) * x + c

    vertex = -b / (2 * a)
    w = F(1)
    while a * q(vertex - w) <= 0:
        w *= 2
    cells = []
    for lo, hi in ((vertex - w, vertex), (vertex, vertex + w)):
        for _ in range(80):
            mid = (lo + hi) / 2
            if (q(mid) > 0) == (q(lo) > 0):
                lo = mid
            else:
                hi = mid
        cells.append((lo, hi))
    (l1, u1), (l2, u2) = cells
    return (l1, u2) if a > 0 else (u1, l2)


def test_irrational_root_brackets_match_bisection():
    rng = random.Random(20151)
    checked = 0
    while checked < 200:
        scale = F(10) ** rng.randint(-4, 4)
        a, b, c = (F(rng.randint(-50, 50), rng.randint(1, 30)) * s
                   for s in (scale, 1, 1 / scale))
        disc = b * b - 4 * a * c
        if a == 0 or disc <= 0 or rational_sqrt(disc) is not None:
            continue
        vertex = -b / (2 * a)
        assert _bracket_irrational_roots(a, disc, vertex) == bisection_brackets(a, b, c), (a, b, c)
        checked += 1


_LINE_UP = PLine(((F(0), F(1)), (F(1), F(2))))
_INVERSE = Hyper(F(0), F(0), F(1), F(1))


@pytest.mark.parametrize("pieces", [
    (Hyper(0, 0, 1, 1), Hyper(0, F(1, 4), 1, F(1, 2))),
    (Hyper(1, 0, 1, -1), Hyper(1, F(1, 4), 1, F(-1, 3))),
    (Hyper(F(3, 2), 0, 1, -1), Hyper(F(3, 2), 0, 1, -2)),
    (Hyper(0, 0, F(1, 2), 1), Hyper(0, F(1, 4), 1, 1)),
    (Hyper(0, 0, 1, F(1, 4)), Hyper(1, 0, 1, F(-1, 4))),
    (Hyper(1, 0, 1, F(-1, 4)), Hyper(F(-1, 2), F(1, 3), 1, F(1, 2))),
    (_LINE_UP, _INVERSE),
    (_INVERSE, _LINE_UP),
    (PLine(((F(0), F(-1)), (F(1), F(-2)))), Hyper(1, 0, 1, F(1, 2))),
], ids=["same-pole-left", "same-pole-right", "same-pole-outside",
        "same-pole-equal-coef", "left-vs-right-pole", "right-vs-outside-pole",
        "line-vs-branch", "branch-vs-line", "line-vs-right-pole"])
def test_pair_numerator_matches_slices(pieces):
    # D and D_1..D_4 of two graphs, against slices at rational probes. The
    # probes are far from the irrational crossings, so the inner dyadic
    # approximation of D_n agrees with the slices there as well.
    t = TargetSet(pieces)
    data = TargetAnalysis(t)
    probes = {F(i, 60) for i in range(61)} | {F(i, 97) for i in range(98)}
    for x in sorted(probes):
        values = merged_slice(t, x)
        assert data.d_set.contains(x) == is_multivalued(values), f"x={x}"
        for n, dn in enumerate(data.d_levels(4), start=1):
            expected = is_multivalued(values) and values[-1][1] - values[0][0] >= F(1, n)
            assert dn.contains(x) == expected, f"x={x} n={n}"


def test_extended_multiplicity_hyper_plus_point():
    t = TargetSet((Hyper(0, 0, 1, 1), Point(0, 0)))
    assert TargetAnalysis(t).extended_d_set == XSet.point(0)


def test_extended_multiplicity_hyper_alone():
    assert TargetAnalysis(demo_set("hyperbola")).extended_d_set.is_empty


def test_extended_multiplicity_sect6_empty():
    t = demo_set("sect6", 5)
    ext = TargetAnalysis(t).extended_d_set
    assert ext.is_empty
    # Each pole point: no finite value, both arcs diverging down.
    for x in sect6_pole_points(5):
        assert not t.bands_at(x) and t.pole_signs(x) == {-1}


def test_extended_multiplicity_two_sided_pole():
    # Two arcs diverging in opposite directions above the same x.
    t = TargetSet((
        Hyper(F(1, 2), F(1, 4), F(1, 2), F(1)),
        Hyper(F(1, 2), F(1, 2), F(3, 4), F(1)),
    ))
    assert t.pole_signs(F(1, 2)) == {1, -1}
    assert TargetAnalysis(t).extended_d_set.contains(F(1, 2))


@pytest.mark.parametrize("pieces, signs, joins", [
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), 1), Hyper(F(1, 2), F(1, 2), F(3, 4), 1),
      Point(F(1, 2), 0)), {1, -1}, True),
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), 1), Hyper(F(1, 2), F(1, 2), F(3, 4), -1)), {-1}, False),
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), -1),), {1}, False),
    ((Hyper(F(1, 2), F(1, 2), F(3, 4), -1), PLine(((0, 0), (1, 0)))), {-1}, True),
], ids=["both-ways-and-a-point", "two-arcs-one-way", "one-arc-alone", "pole-on-a-band"])
def test_extended_multiplicity_at_a_pole(pieces, signs, joins):
    """A pole joins extended D when its finite values and its infinities
    make more than one element: two infinities, or one and a finite value."""
    t = TargetSet(pieces)
    assert t.pole_signs(F(1, 2)) == signs
    assert TargetAnalysis(t).extended_d_set.contains(F(1, 2)) == joins


def test_is_meager_cases():
    # A finite union of spans is meager (equivalently countable) exactly when
    # it contains no interval, i.e. when widest_interval() finds none; the
    # widest interval is the witness the multiplicity checks report.
    assert XSet.empty().widest_interval() is None
    assert XSet.points([F(1, 2), F(1, 3)]).widest_interval() is None
    assert XSet.interval(F(1, 4), F(1, 2)).widest_interval() == Span(F(1, 4), F(1, 2))


def test_meager_d_iff_all_levels_meager():
    for t in (
        demo_set("square"),
        TargetSet((Box(0, 1, 0, 0), Point(F(1, 2), 1))),
        TargetSet((PLine(((F(0), F(0)), (F(1), F(1)))), Box(0, F(1, 2), 0, 0))),
    ):
        data = TargetAnalysis(t)
        d_meager = data.d_set.widest_interval() is None
        levels_meager = all(dn.widest_interval() is None for dn in data.d_levels(16))
        assert d_meager == levels_meager


# ---------------------------------------------------------------------------
# Regime verdicts
# ---------------------------------------------------------------------------


def test_square_verdicts():
    sq = demo_set("square")
    assert check_regime(sq, Regime.B2_BOUNDED).passed
    assert check_regime(sq, Regime.B2).passed
    v = check_regime(sq, Regime.B1_BOUNDED)
    assert not v.passed
    failing = [c for c in v.checks if not c.passed]
    assert len(failing) == 1
    assert failing[0].name == "multiplicity_meager"
    assert failing[0].witness == Span(F(0), F(1))
    assert not check_regime(sq, Regime.B1).passed


def test_hyperbola_verdicts():
    h = demo_set("hyperbola")
    for regime in (Regime.B2_BOUNDED, Regime.B1_BOUNDED):
        v = check_regime(h, regime)
        assert not v.passed
        compact = [c for c in v.checks if c.name == "compact"][0]
        assert not compact.passed
    assert check_regime(h, Regime.B2).passed
    assert check_regime(h, Regime.B1).passed


def test_sect6_verdicts():
    t = demo_set("sect6", 3)
    assert check_regime(t, Regime.B2).passed
    assert check_regime(t, Regime.B1).passed


def test_constant_verdicts():
    t = demo_set("constant")
    for regime in Regime:
        assert check_regime(t, regime).passed


def test_verdict_report_lines():
    lines = check_regime(demo_set("square"), Regime.B1_BOUNDED).report_lines()
    assert lines[-1] == "REGIME b1-bounded FAIL"
    assert any(line.startswith("CHECK multiplicity_meager FAIL witness=") for line in lines)


def test_closed_check_always_reported():
    for regime in Regime:
        v = check_regime(demo_set("constant"), regime)
        assert v.checks[0].name == "closed" and v.checks[0].passed


# ---------------------------------------------------------------------------
# Structural properties on random piece sets
# ---------------------------------------------------------------------------

small_rat = st.builds(F, st.integers(0, 12), st.just(12))


@st.composite
def random_target(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["point", "box", "pline", "hyper"]))
        if kind == "point":
            pieces.append(Point(draw(small_rat), draw(st.integers(-3, 3))))
        elif kind == "box":
            a, b = sorted([draw(small_rat), draw(small_rat)])
            y0, y1 = sorted([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))])
            pieces.append(Box(a, b, y0, y1))
        elif kind == "pline":
            xs = sorted(draw(st.sets(small_rat, min_size=2, max_size=3)))
            pieces.append(PLine(tuple((x, F(draw(st.integers(-3, 3)))) for x in xs)))
        else:
            a, b = sorted([draw(small_rat), draw(small_rat)])
            if a == b:
                a, b = (a, a + F(1, 12)) if a < 1 else (a - F(1, 12), a)
            side = draw(st.sampled_from(["left", "right", "out"]))
            coef = F(draw(st.sampled_from([-1, 1, 2])))
            if side == "left":
                pieces.append(Hyper(a, a, b, coef))
            elif side == "right":
                pieces.append(Hyper(b, a, b, coef))
            else:
                p = a - F(1, 6) if a >= F(1, 6) else b + F(1, 6)
                pieces.append(Hyper(p, a, b, coef))
    return TargetSet(tuple(pieces))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_target())
def test_projection_partition(t):
    c_set = TargetAnalysis(t).c_set
    assert c_set | t.x_projection() == XSet.interval(0, 1)
    assert (c_set & t.x_projection()).is_empty


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_target())
def test_regime_monotonicity(t):
    if check_regime(t, Regime.B1_BOUNDED).passed:
        assert check_regime(t, Regime.B2_BOUNDED).passed
    if check_regime(t, Regime.B1).passed:
        assert check_regime(t, Regime.B2).passed
    if check_regime(t, Regime.B2_BOUNDED).passed:
        assert check_regime(t, Regime.B2).passed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_target())
def test_diameter_levels_structure(t):
    data = TargetAnalysis(t)
    d_levels = data.d_levels(6)
    for prev, cur in zip(d_levels, d_levels[1:]):
        assert (prev - cur).is_empty
    for dn in d_levels:
        assert (dn - data.d_set).is_empty

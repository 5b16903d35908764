"""Regime hypothesis checks and the target analysis behind them."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph.conditions import Regime, TargetAnalysis, _quad_ge_zero, _roots, check_regime
from accumgraph.demos import demo_set, sect6_pole_points
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet
from accumgraph.intervals import Span, XSet
from test_intervals import (eighths, fraction_span, fraction_spans, reference_complement,
                            reference_make, reference_meet, reference_normalize, spans)


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
    """The integer brackets of ``_roots``, on the coefficients over their
    common denominator, are the bisection's cells."""
    rng = random.Random(20151)
    checked = 0
    while checked < 200:
        scale = F(10) ** rng.randint(-4, 4)
        a, b, c = (F(rng.randint(-50, 50), rng.randint(1, 30)) * s
                   for s in (scale, 1, 1 / scale))
        m = math.lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = (int(v * m) for v in (a, b, c))
        disc = bi * bi - 4 * ai * ci
        if a == 0 or disc <= 0 or math.isqrt(disc) ** 2 == disc:
            continue
        got = tuple(F(num, den) for num, den, _ in _roots(ai, bi, disc))
        assert got == bisection_brackets(a, b, c), (a, b, c)
        checked += 1


# -- the former Fraction rule of the quadratic sign sets ----------------------


def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None if irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return F(rn, rd) if rn * rn == num and rd * rd == den else None


def reference_irrational_roots(a, disc, vertex):
    """The former Fraction brackets: the dyadic cells of pitch w/2^80 through
    the vertex, w the least power of two >= 1 above delta."""
    delta_sq = disc / (4 * a * a)
    w = F(1)
    while w * w <= delta_sq:
        w *= 2
    h = w / 2 ** 80
    m = math.isqrt(math.floor(delta_sq / (h * h)))
    cells = m + 1 if a > 0 else m
    return vertex - cells * h, vertex + cells * h


def reference_quad_ge_zero(a, b, c, dom):
    """The former ``_quad_ge_zero`` on Fraction coefficients and Fraction
    spans: the domain met with the closed intervals of [0, 1] where
    a x^2 + b x + c >= 0, or their inner stand-ins at irrational roots."""
    def closed(lo, hi):
        span = reference_make(max(lo, F(0)), min(hi, F(1)), False, False)
        return [m for m in [span and reference_meet(dom, span)] if m]

    if a == 0:
        if b == 0:
            return [dom] if c >= 0 else []
        return closed(-c / b, F(1)) if b > 0 else closed(F(0), -c / b)
    disc, vertex = b * b - 4 * a * c, -b / (2 * a)
    if disc <= 0:
        return [dom] if a > 0 else closed(vertex, vertex) if disc == 0 else []
    sq = rational_sqrt(disc)
    if sq is not None:
        r1, r2 = sorted([(-b - sq) / (2 * a), (-b + sq) / (2 * a)])
    else:
        r1, r2 = reference_irrational_roots(a, disc, vertex)
    if a > 0:
        return reference_normalize(closed(F(0), r1) + closed(r2, F(1)))
    return closed(r1, r2)


@st.composite
def quadratics(draw):
    """Integer coefficients: k (p x - q)(r x - s), with rational roots, often
    in [0, 1], a double one or a linear factor (r = 0), or any small a, b, c,
    mostly with irrational roots or none."""
    if draw(st.booleans()):
        k = draw(st.sampled_from([-3, -1, 1, 2]))
        p, r = draw(st.integers(1, 12)), draw(st.integers(0, 12))
        q, s = draw(st.integers(-2, 14)), draw(st.integers(-2, 14))
        return k * p * r, -k * (p * s + q * r), k * q * s
    return tuple(draw(st.integers(-40, 40)) for _ in range(3))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(quadratics(), spans() | spans(eighths))
def test_quad_sign_sets_match_the_fraction_rule(coefs, dom):
    """The integer sign sets with integer root ends are the former Fraction
    rule's sets: on rational, double and irrational roots, linear and
    constant forms, and open, closed and point domains."""
    a, b, c = coefs
    got = _quad_ge_zero(a, b, c, dom)
    assert fraction_spans(got) == reference_quad_ge_zero(F(a), F(b), F(c), fraction_span(dom))


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


def reference_band_shadow(band, lo, hi):
    """The x of the band's domain where it meets lo <= y <= hi, by the
    Fraction rule of the linear sign sets: the upper graph's y >= lo where
    (n1 - lo d1) x + n0 - lo d0 >= 0 (its denominator is positive), and the
    lower graph's y <= hi likewise."""
    lower, upper = band
    if lo is not None and hi is not None and lo > hi:
        return []
    dom = fraction_span(lower.dom)
    parts = [dom]
    for g, theta, sign in ((upper, lo, 1), (lower, hi, -1)):
        if theta is not None:
            cut = reference_quad_ge_zero(F(0), sign * (g.n1 - theta * g.d1),
                                         sign * (g.n0 - theta * g.d0), dom)
            parts = [m for p in parts for q in cut if (m := reference_meet(p, q))]
    return parts


band_bounds = st.none() | st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_target(), band_bounds, band_bounds)
def test_shadows_and_projections_match_the_fraction_rules(t, lo, hi):
    """Band shadows (so every U_k), x-projections and empty-slice sets of
    random targets, sorted and merged once over integer ends, are the sets
    the former Fraction rules normalize to."""
    shadow = reference_normalize([s for piece in t.pieces for band in piece.bands()
                                  for s in reference_band_shadow(band, lo, hi)])
    assert fraction_spans(t.shadow(lo, hi)) == shadow, (lo, hi)
    projection = reference_normalize([fraction_span(g.dom) for piece in t.pieces
                                      for g in piece.graphs()])
    assert fraction_spans(t.x_projection()) == projection
    assert fraction_spans(TargetAnalysis(t).c_set) == reference_complement(projection)


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

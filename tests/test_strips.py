"""Radius schedules and strip certificates."""

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import astuple, replace
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accumgraph
from accumgraph import conditions
from accumgraph.cli import EXIT_OK, main
from accumgraph.conditions import Regime, TargetAnalysis, check_regime
from accumgraph.demos import demo_c_order, demo_set, sect6_c_order
from accumgraph.fileio import parse_target_text
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet, band_cut
from accumgraph.intervals import Span, span_intersection
from accumgraph.strips import (
    _SHRINK,
    _WIDTH_TOL,
    EpsilonSchedule,
    ScheduleInfeasibleError,
    StripLevel,
    StripLevelReport,
    _own_chord_covers,
    _Radii,
    build_strip,
    build_strip_family,
    epsilon_schedule,
    verify_strips,
)
from accumgraph.synthesis import synthesize


def small_grid(m=256):
    return [F(i, m) for i in range(m + 1)]


def closure_distance(spans, x):
    """The distance from x to the closure of the spans, from their Fraction
    ends."""
    return min(max(s.lo - x, x - s.hi, F(0)) for s in spans)


# ---------------------------------------------------------------------------
# Schedule legality
# ---------------------------------------------------------------------------


def assert_schedule_legal(f, sched, sample_stride=37):
    """Size, monotonicity, separation and overlap conditions, by evaluation."""
    depth = sched.depth
    a_first = f.approx.a_enumeration[:depth]
    c_first = list(f.c_points)[:depth]
    unbounded = not f.regime.bounded
    for i in range(0, len(sched.columns), sample_stride):
        x = sched.columns[i]
        kind = sched.kinds[i]
        row = sched.eps[i]
        for n in range(1, depth + 1):
            e = row[n - 1]
            assert 0 < e <= F(1, n)
            if n > 1:
                assert e <= row[n - 2]
            # Shadow excludes the first n net and empty-slice points.
            for a in a_first[:n]:
                if a != x:
                    assert abs(x - a) >= e
            if unbounded:
                for c in c_first[:n]:
                    if c != x:
                        assert abs(x - c) >= e
            if kind == "B":
                _assert_overlap(f, x, e, n, sched)


def _assert_overlap(f, x, e, n, sched):
    """f0(r) - f0(x) < 1/n for sampled backbone r in the shadow (same level
    part in the unbounded regimes)."""
    _, fx, kx = f.column(x)
    for r in sched.columns:
        if abs(r - x) >= e:
            continue
        kind, fr, kr = f.column(r)
        if kind != "B" or kr != kx:
            continue
        assert fr - fx < F(1, n), (
            f"overlap violated at center {x}, r={r}, n={n}"
        )


def test_schedule_constant_graph():
    f = synthesize(demo_set("constant"), Regime.B1, depth=6)
    sched = epsilon_schedule(f, small_grid())
    assert_schedule_legal(f, sched, sample_stride=13)


def test_schedule_square():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=6)
    sched = epsilon_schedule(f, small_grid())
    assert_schedule_legal(f, sched, sample_stride=29)
    # The backbone is constant 1, so the overlap condition is vacuous and
    # radii at backbone centers are limited by the net separation only.
    for i, x in enumerate(sched.columns):
        if sched.kinds[i] == "B":
            assert sched.eps[i][0] > 0


def test_schedule_sect6_w_separation():
    depth = 6
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    sched = epsilon_schedule(f, small_grid())
    assert_schedule_legal(f, sched, sample_stride=17)
    # Backbone radii never reach a foreign enumerated level part: compare
    # against a direct minimal-distance scan over the enumeration.
    w_parts = f.analysis.w_parts(depth)
    for i, x in enumerate(sched.columns):
        if sched.kinds[i] != "B":
            continue
        for n in range(1, depth + 1):
            e = sched.eps[i][n - 1]
            for _, part in w_parts[:n]:
                if not part.contains(x):
                    assert closure_distance([part], x) >= e
    # Net centers stay off the diameter level sets in Baire-1 regimes.
    d_levels = TargetAnalysis(f.target).d_levels(depth)
    for i, x in enumerate(sched.columns):
        if sched.kinds[i] != "A":
            continue
        for n in range(1, depth + 1):
            e = sched.eps[i][n - 1]
            for dn in d_levels[:n]:
                if not dn.is_empty:
                    assert closure_distance(dn, x) >= e


@pytest.mark.parametrize("demo", ["sect6", "hyperbola"])
def test_pipeline_analyses_target_once(demo, monkeypatch):
    """Checks, synthesis, schedule and strip verification share one analysis:
    the component-pair list and every level set U_k are built once."""
    pair_builds = []
    u_builds = Counter()
    build_pairs = conditions._overlapping_pairs
    build_u = TargetSet.shadow

    def counted_pairs(comps):
        pair_builds.append(len(comps))
        return build_pairs(comps)

    def counted_u(target, lo, hi):  # U_k is the shadow of the band |y| <= k
        u_builds[hi] += 1
        return build_u(target, lo, hi)

    monkeypatch.setattr(conditions, "_overlapping_pairs", counted_pairs)
    monkeypatch.setattr(TargetSet, "shadow", counted_u)
    depth = 3
    f = synthesize(demo_set(demo, depth), Regime.B1, depth=depth)
    sched = epsilon_schedule(f, small_grid(16))
    assert verify_strips(build_strip_family(sched), f).passed
    assert len(pair_builds) == 1
    assert set(u_builds.values()) == {1}
    assert set(range(1, depth + 1)) <= set(u_builds)
    if demo == "hyperbola":
        # Backbone columns near the pole sit on levels beyond the net depth.
        assert max(u_builds) > depth


def test_schedule_makes_no_clipped_call(monkeypatch):
    """Overlap radii and level sets come from band shadows: neither the
    target nor any piece is clipped while synthesizing and scheduling."""
    def refuse(*args):
        raise AssertionError("band clipping on the schedule path")

    for cls in (TargetSet, Point, Box, PLine, Hyper):
        monkeypatch.setattr(cls, "clipped", refuse)
    for demo in ("sect6", "hyperbola"):
        f = synthesize(demo_set(demo, 4), Regime.B1, depth=4, c_order=demo_c_order(demo, 4))
        assert epsilon_schedule(f, small_grid(64)).eps


# ---------------------------------------------------------------------------
# The schedule against a reference
# ---------------------------------------------------------------------------


def reference_eps(f, centers):
    """The radii by the direct rule: at level n every term of levels 1..n,
    and the overlap term as the distance to the x-projection of the target
    clipped to the band, within the center's level part V_k (itself taken
    from clipped projections)."""
    depth = f.depth
    unbounded = not f.regime.bounded
    a_first = f.approx.a_enumeration[:depth]
    c_first = list(f.c_points)[:depth] if unbounded else []
    d_levels = f.analysis.d_levels(depth) if f.regime.baire1 else []
    w_parts = f.analysis.w_parts(depth)[:depth] if unbounded else []

    def u(k):
        return f.target.clipped(F(-k), F(k)).x_projection()

    rows = []
    for x in sorted({*centers, *f.a_values, *f.c_values}):
        kind, fx, k = f.column(x)
        row = []
        for n in range(1, depth + 1):
            terms = [F(1, n)] + row[-1:]
            terms += [abs(x - p) for p in a_first[:n] + c_first[:n] if p != x]
            if kind == "A":
                terms += [closure_distance(dn, x) for dn in d_levels[:n] if not dn.is_empty]
            if kind == "B":
                terms += [closure_distance([part], x) for _, part in w_parts[:n]
                          if not part.contains(x)]
                theta = fx + F(1, n)
                if unbounded:
                    v_k = u(k) - u(k - 1) if k > 1 else u(1)
                    bad = f.target.clipped(max(theta, F(-k)), F(k)).x_projection() & v_k
                else:
                    bad = f.target.clipped(theta, None).x_projection()
                if not bad.is_empty:
                    terms.append(closure_distance(bad, x))
            assert min(terms) > 0
            row.append(min(terms) * _SHRINK)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("demo", ["sect6", "hyperbola"])
def test_schedule_matches_reference_demos(demo):
    depth = 6
    f = synthesize(demo_set(demo, depth), Regime.B1, depth=depth,
                   c_order=demo_c_order(demo, depth))
    grid = small_grid(64)
    assert epsilon_schedule(f, grid).eps == reference_eps(f, grid)


# y = 10^400/(x + 10^400) on [0, 1]: every value is about 1, but the pole
# and the coefficient leave float range, and so does the float cut r = b/a
# of its overlap bounds.
_FAR_POLE = "hyper -1e400 0 1 1e400\n"


@pytest.mark.parametrize("regime", [Regime.B1, Regime.B2])
def test_far_pole_schedule_is_silent_and_matches_reference(regime):
    """strips on the far-pole arc writes nothing to stderr, numpy warnings
    included (a cut past float range reads as not sure), and its schedule
    equals the reference rule."""
    argv = ["strips", "-", "--regime", regime.value, "--depth", "6", "--grid", "128"]
    src = str(Path(accumgraph.__file__).parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-m", "accumgraph.cli", *argv], input=_FAR_POLE,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    f = synthesize(parse_target_text(_FAR_POLE), regime, depth=6)
    grid = small_grid(128)
    assert epsilon_schedule(f, grid).eps == reference_eps(f, grid)


def _graph_target(rng, poles_at_ends=False):
    """Graphs over consecutive x-ranges of [0, 1] (polylines and arcs with
    a left, right or outside pole, or at a span end only), plus points and
    vertical segments: the multi-valued set stays finite, so the Baire-1
    regimes can pass."""
    cuts = [F(i, 16) for i in sorted(rng.sample(range(1, 16), rng.randint(0, 3)))]
    ends = [F(0)] + cuts + [F(1)]
    y = lambda: F(rng.randint(-24, 24), 8)
    pieces = []
    for a, b in zip(ends, ends[1:]):
        kind = rng.choice(["pline", "arc"])
        if kind == "pline":
            inner = sorted({a + (b - a) * F(rng.randint(1, 7), 8) for _ in range(rng.randint(0, 2))})
            pieces.append(PLine(tuple((x, y()) for x in [a, *inner, b])))
        else:
            coef = rng.choice([-1, 1]) * F(rng.randint(1, 8), 8)
            pole = rng.choice([a, b] if poles_at_ends else [a, b, a - F(1, 16), b + F(1, 16)])
            pieces.append(Hyper(pole, a, b, coef))
    for _ in range(rng.randint(0, 2)):
        x = F(rng.randint(0, 16), 16)
        pieces.append(rng.choice([Point(x, y()), Box(x, x, *sorted([y(), y()]))]))
    return TargetSet(tuple(pieces))


def test_schedule_matches_reference_random_targets():
    """Random graph targets in the regime their boundedness allows, then
    unbounded ones whose arcs all have their pole at a span end, in both
    unbounded regimes: the overlap band is capped at k_x there, and the
    level parts V_k split into many spans."""
    rng = random.Random(20260607)
    cases = []
    while len(cases) < 20:
        target = _graph_target(rng)
        regime = Regime.B1 if target.excluded_poles else Regime.B1_BOUNDED
        if check_regime(target, regime).passed:
            cases.append((target, regime))
    rng = random.Random(20261018)
    while len(cases) < 32:
        target = _graph_target(rng, poles_at_ends=True)
        if target.excluded_poles:
            cases += [(target, r) for r in (Regime.B1, Regime.B2) if check_regime(target, r).passed]
    grid = small_grid(32)
    for target, regime in cases:
        f = synthesize(target, regime, depth=4)
        assert epsilon_schedule(f, grid).eps == reference_eps(f, grid), (target, regime)


# The tie cases: a base segment y = 0 on [0, 1], so f0 = 0 at the center
# 1/3 (no net point), with pieces whose overlap shadows lie at distance
# 1/16 from it, below every gap to a_1..a_3.
_BASE = PLine(((0, 0), (1, 0)))
_C, _D = F(1, 3), F(1, 16)
_TINY = F(1, 2 ** 60)


def _assert_radius(target, regime, x, level, radius):
    """The schedule equals the reference rule at every column, and the
    radius at backbone center x and the given level is the chosen term."""
    f = synthesize(target, regime, depth=3)
    assert f.column(x)[0] == "B"
    grid = sorted({*small_grid(64), x})
    sched = epsilon_schedule(f, grid)
    assert sched.eps == reference_eps(f, grid)
    assert sched.eps[sched.columns.index(x)][level - 1] == radius * _SHRINK


@pytest.mark.parametrize("near", [F(0), _TINY, -_TINY], ids=["tie", "farther", "nearer"])
@pytest.mark.parametrize("shape", ["boxes", "segments", "arcs"])
def test_filter_keeps_equidistant_shadows(shape, near):
    """One shadow on each side of the center at distance 1/16, the right
    one moved by 2^-60, below float resolution: the float bounds cannot
    tell them apart, so both are computed and the nearer gives the radius."""
    c, d = _C, _D
    if shape == "boxes":
        pieces = (Box(c - 2 * d, c - d, 0, 1), Box(c + d + near, c + 2 * d, 0, 1))
    elif shape == "segments":
        # y >= 1 up to c - d on the left and from c + d + near on the right.
        pieces = (PLine(((c - 2 * d, 2), (c - d, 1), (c - d / 2, 0))),
                  PLine(((c + d / 2, 0), (c + d + near, 1), (c + 2 * d, 2))))
    else:
        # Poles at the outer ends; y = 1 at c - d and at c + d + near.
        q = c + 2 * d + near
        pieces = (Hyper(c - 2 * d, c - 2 * d, c - d / 2, d), Hyper(q, c + d / 2, q, -d))
    regime = Regime.B2 if shape == "arcs" else Regime.B2_BOUNDED
    _assert_radius(TargetSet((_BASE, *pieces)), regime, c, 1, d + min(near, 0))


def test_filter_keeps_gap_equal_to_shadow_distance():
    """The gap to a_1 equals the overlap distance at level 1: the center is
    halfway between a_1 and the left end of a box's shadow."""
    e = F(2, 3)
    target = TargetSet((_BASE, Box(e, F(7, 8), 0, 1)))
    a_1 = synthesize(target, Regime.B2_BOUNDED, depth=3).approx.a_enumeration[0]
    assert a_1 < e
    x = (a_1 + e) / 2
    _assert_radius(target, Regime.B2_BOUNDED, x, 1, e - x)


@pytest.mark.parametrize("slope", [F(0), -_TINY], ids=["flat", "nearly-flat"])
@pytest.mark.parametrize("regime", [Regime.B2_BOUNDED, Regime.B2])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_filter_keeps_flat_shadow_at_band_edge(regime, level, slope):
    """A segment at height theta_n = f0 + 1/n (and, at n = 1 in the
    unbounded regime, at the cap k_x = 1 too) at x = 1/3 - 1/16, flat or
    falling by 2^-60: its float test is a tie, and for the falling one the
    float root of y = theta_n is off by far more than the shadow's width, so
    only its error bound keeps the shadow."""
    c, d, h = _C, _D, F(1, level)
    if slope:
        piece = PLine(((c - 2 * d, h - slope * d), (c - d / 2, h + slope * d / 2)))
    else:
        piece = PLine(((c - 2 * d, h), (c - d, h)))
    _assert_radius(TargetSet((_BASE, piece)), regime, c, level, d)


sixteenths = st.integers(0, 16).map(lambda k: F(k, 16))
heights = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 4]))


@st.composite
def overlap_cuts(draw):
    """A band of one piece on a grid of sixteenths, bounds of the overlap
    band (either may be None) and a span of a level part."""
    a, b = sorted(draw(st.lists(sixteenths, min_size=2, max_size=2, unique=True)))
    kind = draw(st.sampled_from(["segment", "arc", "box", "point"]))
    if kind == "segment":
        piece = PLine(((a, draw(heights)), (b, draw(heights))))
    elif kind == "arc":
        piece = Hyper(draw(st.sampled_from([a, b])), a, b, draw(st.sampled_from([F(-1, 4), F(1)])))
    elif kind == "box":
        piece = Box(a, b, *sorted([draw(heights), draw(heights)]))
    else:
        piece = Point(a, draw(heights))
    lo, hi = sorted([draw(sixteenths), draw(sixteenths)])
    span = Span(lo, hi) if lo == hi else Span(lo, hi, draw(st.booleans()), draw(st.booleans()))
    bound = st.none() | heights
    return piece.bands()[0], draw(bound), draw(bound), span


@settings(max_examples=300, deadline=None, derandomize=True)
@given(overlap_cuts())
def test_cut_within_a_span_matches_span_algebra(case):
    """The integer cut of a band within a span of a level part, as the
    overlap terms take it, equals the band shadow met with the span by
    ``span_intersection``: on shared ends with mixed openness, degenerate
    spans and open pole ends."""
    band, lo, hi, span = case
    shadow = band_cut(band, lo, hi)
    meet = span_intersection(shadow, span) if shadow else None
    assert band_cut(band, lo, hi, span) == meet, case


@pytest.mark.parametrize("regime", [Regime.B1_BOUNDED, Regime.B1])
def test_overlap_cut_at_distance_zero_is_infeasible(regime):
    """f0 given far below the graph at a backbone center puts the center's
    own graph point in its overlap band: the cut holds x, at distance 0."""
    f = synthesize(TargetSet((_BASE,)), regime, depth=3)
    kind, _, kx = f.column(_C)
    assert kind == "B"
    fx = F(-5)
    radii = _Radii(f, kx)
    bounds, terms = next(radii.lower_bounds(kind, kx, [_C], [fx]))
    with pytest.raises(ScheduleInfeasibleError, match="overlap condition unsatisfiable"):
        radii.row(_C, kind, fx, kx, bounds, terms)


def test_schedule_completes_columns():
    f = synthesize(demo_set("constant"), Regime.B2, depth=4)
    sched = epsilon_schedule(f, [F(0), F(1, 2), F(1)])
    cols = set(sched.columns)
    assert set(f.a_values) <= cols
    assert {F(0), F(1, 2), F(1)} <= cols


# ---------------------------------------------------------------------------
# Chord geometry
# ---------------------------------------------------------------------------


def test_chord_formula_single_ball():
    # One center at (1/2, 0) with radius 1/4: the chord at the center is the
    # full diameter and at offset 1/8 has half-width sqrt(3/64).
    f = synthesize(demo_set("constant"), Regime.B2_BOUNDED, depth=1)
    center = F(1, 2)
    offset = F(5, 8)
    sched = EpsilonSchedule(
        depth=1,
        columns=(center, offset),
        kinds=("B", "B"),
        values=(f(center), f(offset)),
        eps=((F(1, 4),), (F(1, 1000000),)),
        sep_index={},
    )
    level = build_strip(sched, 1, np.array([float(x) for x in sched.columns]),
                        np.array([float(f.evaluate(x)) for x in sched.columns]))
    assert level.lo[0] == pytest.approx(-0.25)
    assert level.hi[0] == pytest.approx(0.25)
    hw = math.sqrt(1 / 16 - 1 / 64)
    assert level.lo[1] == pytest.approx(-hw)
    assert level.hi[1] == pytest.approx(hw)
    assert level.chords[1] == 2  # the big ball plus the column's own


def reference_build_strip(sched, n, col_floats, f_floats):
    """The per-ball strip level: a loop over the balls, one window each."""
    m = len(sched.columns)
    lo = np.full(m, np.inf)
    hi = np.full(m, -np.inf)
    cnt = np.zeros(m, dtype=np.int64)
    for i in range(m):
        e = float(sched.eps[i][n - 1])
        xc = col_floats[i]
        fc = f_floats[i]
        left = int(np.searchsorted(col_floats, xc - e, side="right"))
        right = int(np.searchsorted(col_floats, xc + e, side="left"))
        if left < right:
            dx = col_floats[left:right] - xc
            hw = np.sqrt(np.maximum(e * e - dx * dx, 0.0))
            np.minimum(lo[left:right], fc - hw, out=lo[left:right])
            np.maximum(hi[left:right], fc + hw, out=hi[left:right])
            cnt[left:right] += 1
        if not (left <= i < right):
            # Own column fell out through float rounding of a tiny radius.
            lo[i] = min(lo[i], fc - e)
            hi[i] = max(hi[i], fc + e)
            cnt[i] += 1
    return StripLevel(n, lo, hi, cnt)


def assert_levels_match_reference(sched):
    """Every level of the blocked build equals the per-ball one, bit for bit."""
    family = build_strip_family(sched)
    for level in family.levels:
        ref = reference_build_strip(sched, level.n, family.col_floats, family.f_floats)
        for got, want in zip((level.lo, level.hi, level.chords), (ref.lo, ref.hi, ref.chords)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


_BUILD_DEMOS = [("constant", Regime.B1, False), ("constant", Regime.B1_BOUNDED, False),
                ("hyperbola", Regime.B1, False), ("hyperbola", Regime.B1, True),
                ("sect6", Regime.B1, False), ("sect6", Regime.B1, True)]


@pytest.mark.parametrize("demo,regime,signed", _BUILD_DEMOS,
                         ids=[f"{d}-{r.value}{'-signed' if s else ''}" for d, r, s in _BUILD_DEMOS])
def test_build_strip_matches_reference_on_demos(demo, regime, signed):
    f = synthesize(demo_set(demo, 6), regime, depth=6, signed=signed,
                   c_order=demo_c_order(demo, 6))
    assert_levels_match_reference(epsilon_schedule(f, small_grid()))


# Radii that leave every window empty or drop the ball's own column
# (1e-20 is below half a float step of x in [1/4, 1]; 0.6 * 2^-54 rounds
# x - e down but x + e back onto x at x = 1/2, where the float step
# doubles), that are tiny but keep it (1e-12), that reach past [0, 1], and
# that land columns of a 1/16 grid exactly on a window's open ends.
_HALF_STEP = F(3, 5 << 54)
_RADII = [F(1, 10**20), _HALF_STEP, F(1, 10**12), F(1, 16), F(3, 16), F(1, 4), F(3, 2), F(5)]


@st.composite
def _schedules(draw):
    """Schedules of two levels on random sorted columns, with equal
    neighbouring radii drawn often, built directly without synthesis."""
    denom = draw(st.sampled_from([16, 1000, 1 << 40]))
    xs = draw(st.lists(st.integers(0, denom), min_size=1, max_size=150, unique=True))
    columns = tuple(sorted(F(x, denom) for x in xs))
    radius = st.one_of(st.sampled_from(_RADII),
                       st.fractions(min_value=F(1, 10**6), max_value=2, max_denominator=10**6))
    eps = tuple(draw(st.tuples(radius, radius)) for _ in columns)
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=1000),
                      st.just(F(10**30)))
    values = tuple(draw(value) for _ in columns)
    return EpsilonSchedule(2, columns, ("B",) * len(columns), values, eps, {})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_schedules())
def test_build_strip_matches_reference_on_random_schedules(sched):
    assert_levels_match_reference(sched)


def test_tiny_radii_cover_only_their_own_column():
    """Balls below a float step cover their own column alone, as in the
    reference: at 0 inside the window [0, 1), at 1/4, 3/4 and 1 through an
    empty window [i + 1, i), and at 1/2 through the empty window [i, i)."""
    columns = tuple(F(i, 4) for i in range(5))
    eps = ((F(1, 10**20),),) * 2 + ((_HALF_STEP,),) + ((F(1, 10**20),),) * 2
    sched = EpsilonSchedule(1, columns, ("B",) * 5, (F(1),) * 5, eps, {})
    assert_levels_match_reference(sched)
    level = build_strip_family(sched).levels[0]
    assert np.all(level.chords == 1) and np.all(level.lo == 1.0) and np.all(level.hi == 1.0)


def test_sect6_c_column_single_chord():
    depth = 6
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    sched = epsilon_schedule(f, small_grid())
    family = build_strip_family(sched)
    col_index = {x: i for i, x in enumerate(sched.columns)}
    for k, c in enumerate(f.c_points, start=1):
        i = col_index[c]
        for level in family.levels:
            if level.n >= k:
                assert level.chords[i] == 1, f"c_{k} at level {level.n}"
                width = level.hi[i] - level.lo[i]
                assert width <= 2 / level.n + 1e-9


def test_sect6_signed_column_zero_collapses():
    depth = 10
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   signed=True, c_order=sect6_c_order(depth))
    sched = epsilon_schedule(f, small_grid(128))
    family = build_strip_family(sched)
    i = list(sched.columns).index(F(0))
    last = family.levels[-1]
    assert last.hi[i] - last.lo[i] <= 2 / depth + 1e-9
    assert last.lo[i] < float(f(F(0))) < last.hi[i]


def test_constant_all_columns_collapse():
    f = synthesize(demo_set("constant"), Regime.B1_BOUNDED, depth=8)
    sched = epsilon_schedule(f, small_grid())
    family = build_strip_family(sched)
    for level in family.levels:
        widths = level.hi - level.lo
        assert widths.max() <= 2 / level.n + 1e-9


def test_family_nesting_and_coverage_square():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=8)
    sched = epsilon_schedule(f, small_grid())
    family = build_strip_family(sched)
    report = verify_strips(family, f)
    assert report.passed
    # The multi-valued column 1/2 keeps a wide strip but stays nested.
    i = list(sched.columns).index(F(1, 2))
    prev = None
    for level in family.levels:
        assert level.lo[i] < float(f(F(1, 2))) < level.hi[i]
        if prev is not None:
            assert level.lo[i] >= prev.lo[i] and level.hi[i] <= prev.hi[i]
        prev = level


def test_report_lines_format():
    f = synthesize(demo_set("constant"), Regime.B2, depth=3)
    sched = epsilon_schedule(f, small_grid(64))
    family = build_strip_family(sched)
    report = verify_strips(family, f)
    lines = report.lines()
    assert lines[0].startswith("STRIP n=1 nesting=OK coverage=OK max_width_A=")
    assert lines[-1] == "STRIPS PASS"


# The backbone is 10^30 on [0, 1/2): every radius is at most 1, below half
# an ulp of 10^30, so each float chord f +- hw there rounds onto f.
_LARGE_BACKBONE = "box 0 1 1000000000000000000000000000000 1000000000000000000000000000001\nhyper 1 1/2 1 -1\n"


def test_coverage_holds_at_large_backbone_values():
    with mock.patch("sys.stdin", io.StringIO(_LARGE_BACKBONE)), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["strips", "-", "--regime", "b2", "--depth", "3", "--grid", "16"])
    assert code == EXIT_OK, out.getvalue()
    assert "coverage=FAIL" not in out.getvalue()


def _two_balls(value, eps):
    """A one-level family of two far-apart balls of radius eps, both at
    height ``value``: each column is covered by its own chord alone."""
    f = synthesize(TargetSet((Box(0, 1, value, value + 1),)), Regime.B2_BOUNDED, depth=1)
    sched = EpsilonSchedule(depth=1, columns=(F(1, 4), F(3, 4)), kinds=("B", "B"),
                            values=(F(value), F(value)), eps=((eps,), (eps,)), sep_index={})
    return f, build_strip_family(sched)


def _without_chord(family, i, lo=math.inf, hi=-math.inf):
    """The family with column i's cross-section replaced by (lo, hi)."""
    level = family.levels[0]
    los, his = level.lo.copy(), level.hi.copy()
    los[i], his[i] = lo, hi
    return replace(family, levels=(replace(level, lo=los, hi=his),))


@pytest.mark.parametrize("value", [0, 10**30], ids=["small", "large"])
def test_coverage_fails_without_a_columns_chord(value):
    f, family = _two_balls(value, F(1, 100))
    assert verify_strips(family, f).levels[0].coverage_ok
    assert not verify_strips(_without_chord(family, 0), f).levels[0].coverage_ok


def test_coverage_of_a_rounded_chord_reads_the_exact_radius():
    # At 10^30 the chord rounds onto f: a positive radius covers it, a zero
    # radius does not. At 0 nothing rounds, so an end on f is a FAIL.
    f, family = _two_balls(10**30, F(1, 100))
    assert family.levels[0].lo[0] == family.f_floats[0]
    assert verify_strips(family, f).levels[0].coverage_ok
    f, family = _two_balls(10**30, F(0))
    assert not verify_strips(family, f).levels[0].coverage_ok
    f, family = _two_balls(0, F(1, 100))
    assert not verify_strips(_without_chord(family, 1, lo=0.0, hi=0.01), f).levels[0].coverage_ok


# ---------------------------------------------------------------------------
# Strip verification against a reference
# ---------------------------------------------------------------------------


def reference_verify_strips(family, f):
    """The per-column strip checks: a loop over the columns of each level.
    Returns the level reports and the overall verdict."""
    sched = family.schedule
    cols = family.col_floats
    fv = family.f_floats
    kinds = np.array(sched.kinds)
    m = len(cols)

    d_set = f.analysis.d_set
    backbone_checked = np.array([
        kinds[i] == "B" and not d_set.contains(sched.columns[i])
        for i in range(m)
    ])

    reports = []
    prev = None
    all_ok = True
    for level in family.levels:
        n = level.n
        nesting_ok = True
        if prev is not None:
            nesting_ok = bool(
                np.all(level.lo >= prev.lo) and np.all(level.hi <= prev.hi)
            )
        inside = (level.lo < fv) & (fv < level.hi)
        coverage_ok = all(_own_chord_covers(sched.eps[i][n - 1], fv[i], level.lo[i], level.hi[i])
                          for i in np.flatnonzero(~inside))
        widths = level.hi - level.lo
        bound = 2.0 / n + _WIDTH_TOL

        def class_stats(kind):
            sel = [
                i for i in range(m)
                if kinds[i] == kind and sched.sep_index.get(i, 10 ** 9) <= n
            ]
            if not sel:
                return 0.0, True, True
            w = float(widths[sel].max())
            single = bool(np.all(level.chords[sel] == 1))
            return w, w <= bound, single

        max_a, a_ok, a_single = class_stats("A")
        max_c, c_ok, c_single = class_stats("C")

        # Backbone residual: width within 2/n plus twice the spread of
        # center values within the maximal shadow 1/n.
        backbone_ok = True
        max_b = 0.0
        reach = 1.0 / n
        idxs = np.nonzero(backbone_checked)[0]
        for i in idxs:
            left = int(np.searchsorted(cols, cols[i] - reach, side="right"))
            right = int(np.searchsorted(cols, cols[i] + reach, side="left"))
            window = fv[left:right]
            osc = float(window.max() - window.min()) if window.size else 0.0
            w = float(widths[i])
            max_b = max(max_b, w)
            if w > 2.0 / n + 2.0 * osc + _WIDTH_TOL:
                backbone_ok = False
        single_ok = a_single and c_single
        level_ok = (nesting_ok and coverage_ok and a_ok and c_ok
                    and single_ok and backbone_ok)
        all_ok = all_ok and level_ok
        reports.append(StripLevelReport(
            n=n,
            nesting_ok=nesting_ok,
            coverage_ok=coverage_ok,
            max_width_a=max_a,
            max_width_c=max_c,
            max_width_backbone=max_b,
            a_width_ok=a_ok,
            c_width_ok=c_ok,
            single_chord_ok=single_ok,
            backbone_bound_ok=backbone_ok,
        ))
        prev = level
    return tuple(reports), all_ok


def _fields(levels):
    """Each level report's fields with their types, floats by their bits."""
    return [[(type(v), v.hex() if isinstance(v, float) else v) for v in astuple(lvl)]
            for lvl in levels]


def assert_matches_reference(family, f):
    report = verify_strips(family, f)
    levels, passed = reference_verify_strips(family, f)
    assert _fields(report.levels) == _fields(levels)
    assert report.passed is passed
    return report


_REFERENCE_DEMOS = [("constant", Regime.B1, False), ("square", Regime.B2_BOUNDED, False),
                    ("square", Regime.B2, False), ("hyperbola", Regime.B1, False),
                    ("sect6", Regime.B1, False), ("sect6", Regime.B1, True),
                    ("sect6", Regime.B2, False)]


def _demo_family(demo, regime, signed, depth=6):
    f = synthesize(demo_set(demo, depth), regime, depth=depth, signed=signed,
                   c_order=demo_c_order(demo, depth))
    return f, build_strip_family(epsilon_schedule(f, small_grid(128)))


@pytest.mark.parametrize("demo,regime,signed", _REFERENCE_DEMOS,
                         ids=[f"{d}-{r.value}{'-signed' if s else ''}" for d, r, s in _REFERENCE_DEMOS])
def test_verify_strips_matches_reference_on_demos(demo, regime, signed):
    f, family = _demo_family(demo, regime, signed)
    assert assert_matches_reference(family, f).passed


def _mutate(family, n, **arrays):
    """The family with level n's arrays replaced by functions of them."""
    i = n - 1
    level = family.levels[i]
    changed = replace(level, **{k: g(getattr(level, k).copy()) for k, g in arrays.items()})
    return replace(family, levels=family.levels[:i] + (changed,) + family.levels[i + 1:])


def _set(i, value):
    def put(a):
        a[i] = value
        return a
    return put


_FLAGS = ("nesting_ok", "coverage_ok", "a_width_ok", "c_width_ok", "single_chord_ok",
          "backbone_bound_ok")


def _failed(report):
    return [(lvl.n, flag) for lvl in report.levels for flag in _FLAGS if not getattr(lvl, flag)]


def _strip_mutants(family):
    """One family per check, each breaking only that check at one level."""
    sched, fv = family.schedule, family.f_floats
    top = family.levels[-1]
    first = {sched.kinds[i]: i for i, rank in sched.sep_index.items() if rank == 1}
    a_1, c_1 = first["A"], first["C"]
    b = sched.kinds.index("B")
    spread = float(fv.max() - fv.min())
    return {
        # Level n-1's lower end raised between level n's and f.
        "nesting_ok": _mutate(family, top.n - 1, lo=_set(b, (top.lo[b] + fv[b]) / 2)),
        # The last level loses one column's cross-section.
        "coverage_ok": _mutate(family, top.n, lo=_set(b, math.inf), hi=_set(b, -math.inf)),
        # Four wide at level 1, where no earlier level encloses them.
        "a_width_ok": _mutate(family, 1, lo=_set(a_1, fv[a_1] - 2), hi=_set(a_1, fv[a_1] + 2)),
        "c_width_ok": _mutate(family, 1, lo=_set(c_1, fv[c_1] - 2), hi=_set(c_1, fv[c_1] + 2)),
        "single_chord_ok": _mutate(family, top.n, chords=_set(c_1, 2)),
        "backbone_bound_ok": _mutate(family, 1, lo=_set(b, fv[b] - 2 - 2 * spread),
                                     hi=_set(b, fv[b] + 2 + 2 * spread)),
    }


@pytest.mark.parametrize("check", _FLAGS)
def test_each_strip_mutant_flips_its_own_check(check):
    """Mutants of a passing sect6 family: the array checks agree with the
    per-column reference, and exactly the broken check fails, at one level."""
    f, family = _demo_family("sect6", Regime.B1, False)
    report = assert_matches_reference(_strip_mutants(family)[check], f)
    assert [flag for _, flag in _failed(report)] == [check]
    assert not report.passed


def test_empty_and_uncovered_class_widths():
    """A class with no separated column reads 0.0, and one whose only
    column lost its cross-section keeps its true maximum, -inf."""
    f, family = _two_balls(0, F(1, 100))
    sched = replace(family.schedule, kinds=("A", "B"), sep_index={0: 1})
    family = _without_chord(replace(family, schedule=sched), 0)
    level = assert_matches_reference(family, f).levels[0]
    assert (level.max_width_a, level.max_width_c) == (-math.inf, 0.0)


@pytest.mark.parametrize("end", ["left", "right"])
def test_backbone_window_is_open_at_reach(end):
    """A column exactly 1/n away lies outside a backbone column's window:
    its value does not widen that column's bound."""
    f = synthesize(TargetSet((_BASE,)), Regime.B1_BOUNDED, depth=1)
    values = (F(0), F(0), F(10)) if end == "right" else (F(10), F(0), F(0))
    sched = EpsilonSchedule(depth=1, columns=(F(0), F(1, 2), F(1)), kinds=("B",) * 3,
                            values=values, eps=((F(1, 4),),) * 3, sep_index={})
    family = build_strip_family(sched)
    assert assert_matches_reference(family, f).passed
    i = 0 if end == "right" else 2
    wide = _mutate(family, 1, lo=_set(i, -1.5), hi=_set(i, 1.5))
    assert _failed(assert_matches_reference(wide, f)) == [(1, "backbone_bound_ok")]

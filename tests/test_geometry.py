"""Piece geometry: slicing, projection, clipping, distance.

The oracles here re-derive membership and distance directly from the piece
parameters in plain float arithmetic, independently of the library's exact
code paths.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph import geometry
from accumgraph.demos import demo_set, sect6_pole_points
from accumgraph.fileio import parse_target_text
from accumgraph.geometry import (
    Box,
    EmptySliceError,
    Hyper,
    PLine,
    Point,
    TargetSet,
    band_cut,
)
from accumgraph.conditions import TargetAnalysis
from accumgraph.intervals import Span, XSet, span_intersection
from accumgraph.synthesis import backbone
from test_verification import _random_target


# ---------------------------------------------------------------------------
# Brute-force oracles (float, straight from the definitions)
# ---------------------------------------------------------------------------


def oracle_slice_values(target, x, grid=2001, tol=1e-9):
    """Membership-based slice probe: per-piece y values straight from the
    defining formulas."""
    x = float(x)
    values = []
    for piece in target.pieces:
        if isinstance(piece, Point):
            if abs(float(piece.x) - x) < tol:
                values.append(float(piece.y))
        elif isinstance(piece, Box):
            if float(piece.x0) - tol <= x <= float(piece.x1) + tol:
                values.append((float(piece.y0), float(piece.y1)))
        elif isinstance(piece, PLine):
            for (xa, ya), (xb, yb) in piece.segments():
                fa, fb = float(xa), float(xb)
                if fa - tol <= x <= fb + tol:
                    t = 0.0 if fb == fa else (x - fa) / (fb - fa)
                    values.append(float(ya) + t * (float(yb) - float(ya)))
        else:
            p = float(piece.pole)
            lo, hi = float(piece.x0), float(piece.x1)
            inside = lo <= x <= hi
            if piece.pole == piece.x0:
                inside = lo < x <= hi
            elif piece.pole == piece.x1:
                inside = lo <= x < hi
            if inside and x != p:
                values.append(float(piece.coef) / (x - p))
    return values


def oracle_projection_member(target, x):
    return bool(oracle_slice_values(target, x))


def oracle_arc_points(arc, samples=200000):
    """Dense float sampling of a hyperbola arc for distance oracles."""
    p, c = float(arc.pole), float(arc.coef)
    lo, hi = float(arc.x0), float(arc.x1)
    eps = (hi - lo) * 1e-9
    if arc.pole == arc.x0:
        lo += eps
    elif arc.pole == arc.x1:
        hi -= eps
    pts = []
    for i in range(samples + 1):
        x = lo + (hi - lo) * i / samples
        pts.append((x, c / (x - p)))
    return pts


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------


def merged(intervals):
    """Closed intervals sorted and merged: the normalized form of a slice."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return tuple(out)


def slice_of(t, x):
    return merged(t.bands_at(x))


def test_box_slice():
    t = TargetSet((Box(0, 1, -1, 2),))
    assert slice_of(t, F(1, 2)) == ((F(-1), F(2)),)


def test_hyper_slice():
    t = TargetSet((Hyper(0, 0, 1, 1),))
    assert slice_of(t, F(1, 2)) == ((F(2), F(2)),)
    assert not t.bands_at(0)


def test_sect6_slice_midpoint():
    # Distance from 5/12 to the pole set is 1/12, so the value is -12.
    t = demo_set("sect6", 3)
    assert slice_of(t, F(5, 12)) == ((F(-12), F(-12)),)


def test_pline_slice_interpolates():
    t = TargetSet((PLine(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))),))
    assert slice_of(t, F(1, 4)) == ((F(1, 2), F(1, 2)),)
    assert slice_of(t, F(3, 4)) == ((F(1, 2), F(1, 2)),)


def test_slice_union_is_merged():
    t = TargetSet((Box(0, 1, 0, 1), Box(0, 1, F(1, 2), 2), Point(F(1, 2), 5)))
    assert slice_of(t, F(1, 2)) == ((F(0), F(2)), (F(5), F(5)))


def test_slice_monotone_under_union():
    t1 = TargetSet((Box(0, 1, 0, 1),))
    t2 = TargetSet((Point(F(1, 2), 3),))
    both = TargetSet(t1.pieces + t2.pieces)
    x = F(1, 2)
    assert sorted(both.bands_at(x)) == sorted(t1.bands_at(x) + t2.bands_at(x))


# ---------------------------------------------------------------------------
# Infinities of the extended closure's slice
# ---------------------------------------------------------------------------


def test_hyper_extended_slice_at_pole():
    t = TargetSet((Hyper(0, 0, 1, 1),))
    assert t.pole_signs(0) == {1} and not t.bands_at(0)


def test_sect6_extended_slice_at_interior_pole():
    t = demo_set("sect6", 4)
    assert t.pole_signs(F(1, 2)) == {-1} and not t.bands_at(F(1, 2))


def test_box_extended_slice_no_infinities():
    t = TargetSet((Box(0, 1, 0, 1),))
    assert t.pole_signs(F(1, 3)) == set()
    assert slice_of(t, F(1, 3)) == ((F(0), F(1)),)


def test_extended_slice_counts():
    """A pole with a point under it has two elements, a lone pole one."""
    t = TargetSet((Hyper(0, 0, 1, 1), Point(0, 0)))
    assert TargetAnalysis(t).extended_d_set.contains(0)
    assert not TargetAnalysis(TargetSet((Hyper(0, 0, 1, 1),))).extended_d_set.contains(0)


def test_extended_contains_plain_slice():
    """Off the poles the extended slice is the plain slice; at a pole of
    sect6 both arcs diverge down and the plain slice is empty."""
    t = demo_set("sect6", 3)
    for x in (F(1, 4), F(5, 12), F(2, 3)):
        assert t.pole_signs(x) == set() and t.bands_at(x)
    for x in sect6_pole_points(3):
        assert t.pole_signs(x) == {-1} and not t.bands_at(x)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_point_projection():
    t = TargetSet((Point(F(1, 2), 3),))
    assert t.x_projection() == XSet.point(F(1, 2))


def test_hyper_projection_half_open():
    t = TargetSet((Hyper(0, 0, 1, 1),))
    assert t.x_projection() == XSet.interval(0, 1, lo_open=True)


def test_sect6_projection_matches_brute_force():
    t = demo_set("sect6", 5)
    proj = t.x_projection()
    poles = set(sect6_pole_points(5))
    for i in range(0, 1001):
        x = F(i, 1000)
        expected = (x not in poles) if F(0) <= x <= F(1) else False
        assert proj.contains(x) == expected, f"x={x}"
    for x in sect6_pole_points(5):
        assert not proj.contains(x)


def test_projection_agrees_with_slice_nonempty():
    t = TargetSet((
        Box(F(1, 8), F(1, 4), 0, 1),
        Hyper(F(1, 2), F(1, 2), F(3, 4), -1),
        Point(F(7, 8), 5),
        PLine(((F(1, 4), F(0)), (F(3, 8), F(2)))),
    ))
    proj = t.x_projection()
    for i in range(0, 129):
        x = F(i, 128)
        assert proj.contains(x) == bool(t.bands_at(x)), f"x={x}"


# ---------------------------------------------------------------------------
# Band clipping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("piece", [
    Box(F(1, 8), F(3, 4), F(-3), F(2)),
    PLine(((F(0), F(-5)), (F(1, 2), F(5)), (F(1), F(-1)))),
    Hyper(F(0), F(0), F(1), F(1)),
    Hyper(F(1), F(1, 4), F(1), F(-2)),
    Hyper(F(1, 8), F(1, 4), F(3, 4), F(3)),
    Hyper(F(7, 8), F(1, 8), F(1, 2), F(-1)),
    Point(F(1, 2), F(3, 2)),
])
@pytest.mark.parametrize("band", [
    (F(-2), F(2)), (F(1), F(4)), (F(-10), F(-4)), (None, F(0)), (F(1, 2), None),
])
def test_clip_matches_membership(piece, band):
    t = TargetSet((piece,))
    ylo, yhi = band
    clipped = t.clipped(ylo, yhi)
    for i in range(0, 257):
        x = F(i, 256)
        vals = slice_of(t, x)
        expected = [
            (a, b)
            for a, b in (
                (max(a, ylo) if ylo is not None else a,
                 min(b, yhi) if yhi is not None else b)
                for a, b in vals
            )
            if a <= b
        ]
        assert slice_of(clipped, x) == tuple(expected), f"x={x} band={band}"


def test_clip_preserves_excluded_pole():
    t = TargetSet((Hyper(0, 0, 1, 1),))
    half = t.clipped(None, F(10))
    # The pole side is cut off at y = 10, i.e. x = 1/10.
    assert half.x_projection() == XSet.interval(F(1, 10), 1)
    unbounded_side = t.clipped(F(1), None)
    assert unbounded_side.x_projection() == XSet.interval(0, 1, lo_open=True)


def _random_band_piece(rng):
    """A piece of a random kind; arcs get a left, right or outside pole and a
    coefficient of either sign, so their values lie on both sides of y = 0."""
    kind = rng.choice(["point", "box", "pline", "hyper"])
    xs = sorted(F(i, 16) for i in rng.sample(range(17), rng.randint(2, 5)))
    y = lambda: F(rng.randint(-24, 24), 8)
    if kind == "point":
        return Point(xs[0], y())
    if kind == "box":
        y0, y1 = sorted([y(), y()])
        return Box(xs[0], rng.choice([xs[0], xs[-1]]), y0, y1)
    if kind == "pline":
        return PLine(tuple((x, y()) for x in xs))
    a, b = xs[0], xs[-1]
    coef = rng.choice([-1, 1]) * F(rng.randint(1, 16), rng.randint(1, 4))
    pole = rng.choice([a, b, a - F(rng.randint(1, 8), 16), b + F(rng.randint(1, 8), 16)])
    return Hyper(pole, a, b, coef)


def _band_edges(piece):
    """The piece's own finite end and vertex values: arc ends, polyline
    vertices, box edges and the point's y."""
    if isinstance(piece, Point):
        return [piece.y]
    if isinstance(piece, Box):
        return [piece.y0, piece.y1]
    if isinstance(piece, PLine):
        return [v for _, v in piece.vertices]
    return [piece.graphs()[0].y_at(x) for x in (piece.x0, piece.x1) if x != piece.pole]


def _piece_ends(piece):
    """The piece's end x, and a polyline's vertex x."""
    if isinstance(piece, PLine):
        return [x for x, _ in piece.vertices]
    dom = piece.domain()
    return [dom.lo, dom.hi]


def _band_cut(intervals, lo, hi):
    """Slice intervals cut to the band lo <= y <= hi (None: no bound)."""
    cut = [(a if lo is None else max(a, lo), b if hi is None else min(b, hi))
           for a, b in intervals]
    return tuple((a, b) for a, b in cut if a <= b)


def _assert_band_membership(t, lo, hi, grid):
    """The shadow holds x exactly when the slice at x meets the band, and
    the clipped target's slice is the slice cut to the band, at every shadow
    end, piece end or vertex, the midpoints between them and the x of
    ``grid``."""
    shadow, clipped = t.shadow(lo, hi), t.clipped(lo, hi)
    marks = sorted({e for s in shadow.spans for e in (s.lo, s.hi)}
                   | {e for piece in t.pieces for e in _piece_ends(piece)})
    mids = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    for x in set(marks + mids + grid):
        cut = _band_cut(slice_of(t, x), lo, hi)
        assert shadow.contains(x) == bool(cut), (t, lo, hi, x)
        assert slice_of(clipped, x) == cut, (t, lo, hi, x)


def test_shadow_matches_clipping():
    """Band shadows and band clips against exact membership: the slice of
    the unclipped target, which never goes through the rational graphs.
    Each single-piece band also checks every 64th x of the grid k/256, at a
    rotating offset, so the bands share the grid between them."""
    rng = random.Random(20260606)
    bands = 0
    for _ in range(150):
        piece = _random_band_piece(rng)
        t = TargetSet((piece,))
        levels = _band_edges(piece) + [F(0), F(rng.randint(-40, 40), 8), F(-100), F(100)]
        for lo in levels + [None]:
            for hi in levels + [None]:
                grid = [F(k, 256) for k in range(bands % 64, 257, 64)]
                _assert_band_membership(t, lo, hi, grid)
                bands += 1
    pieces = tuple(_random_band_piece(rng) for _ in range(6))
    t = TargetSet(pieces)
    for lo, hi in ((F(-1), F(1)), (F(1, 2), None), (F(-3), F(-2)), (None, F(0))):
        _assert_band_membership(t, lo, hi, [F(k, 256) for k in range(257)])


def test_shadow_keeps_open_pole_end():
    arc = Hyper(0, 0, 1, 1)
    assert TargetSet((arc,)).shadow(F(2), None) == XSet.interval(0, F(1, 2), lo_open=True)
    assert TargetSet((arc,)).shadow(F(1), F(4)) == XSet.interval(F(1, 4), 1)


# ---------------------------------------------------------------------------
# The x-sorted index against the per-piece loop
# ---------------------------------------------------------------------------


def _reference_interval(piece, x):
    """The closed y-interval of one piece above x, or None: the per-piece
    loop that slices went through before the index."""
    if isinstance(piece, Point):
        return (piece.y, piece.y) if x == piece.x else None
    if isinstance(piece, Box):
        return (piece.y0, piece.y1) if piece.x0 <= x <= piece.x1 else None
    if not piece.domain().contains(x):
        return None
    if isinstance(piece, Hyper):
        y = piece.graphs()[0].y_at(x)
        return y, y
    for (xa, ya), (xb, yb) in piece.segments():
        if xa <= x <= xb:
            y = ya + (yb - ya) * (x - xa) / (xb - xa)
            return y, y


def _reference_slice(t, x):
    return merged(iv for piece in t.pieces if (iv := _reference_interval(piece, x)) is not None)


def _reference_divergence_sign(arc):
    """The former rule, off the arc's fields: 0 without an excluded pole,
    else ``side`` times the sign of coef, ``side`` +1 when pole <= x0."""
    if arc.excluded_pole is None:
        return 0
    side = 1 if arc.pole <= arc.x0 else -1
    return side if arc.coef > 0 else -side


def _reference_pole_signs(t, x):
    return {_reference_divergence_sign(p) for p in t.pieces if p.excluded_pole == x}


def test_divergence_sign_matches_the_former_rule():
    """An arc's divergence sign, read off its graph's numerator, equals the
    former rule on every arc of the verify tests' random targets and of
    random band pieces, whose poles lie left, right and outside."""
    rng = random.Random(20261021)
    pieces = [p for seed in range(20) for p in _random_target(seed).pieces]
    arcs = [p for p in pieces + [_random_band_piece(rng) for _ in range(400)]
            if isinstance(p, Hyper)]
    assert set(map(_reference_divergence_sign, arcs)) == {-1, 0, 1}
    for arc in arcs:
        assert arc.divergence_sign() == _reference_divergence_sign(arc), arc


def _random_index_target(rng):
    """Random pieces of every kind, plus a flat box and points on polyline
    vertices (on the polyline and off it)."""
    pieces = [_random_band_piece(rng) for _ in range(rng.randint(1, 6))]
    for piece in list(pieces):
        if isinstance(piece, PLine):
            vx, vy = rng.choice(piece.vertices)
            pieces.append(Point(vx, rng.choice([vy, vy + 1])))
    a, b = sorted(F(rng.randint(0, 16), 16) for _ in range(2))
    y = F(rng.randint(-24, 24), 8)
    pieces.append(Box(a, b, y, y))
    rng.shuffle(pieces)
    return TargetSet(tuple(pieces))


def _index_targets():
    rng = random.Random(20261018)
    mixed = Path(__file__).with_name("mixed_target.txt").read_text(encoding="utf-8")
    return ([_random_index_target(rng) for _ in range(40)]
            + [parse_target_text(mixed), demo_set("sect6", 20)])


def _index_marks(t):
    """Every index end (open pole ends included), the midpoints between
    consecutive ends, every k/256 and, where there is one, an x outside
    every piece."""
    ends = list(t._index[0])
    marks = set(ends) | {(a + b) / 2 for a, b in zip(ends, ends[1:])}
    marks |= {F(k, 256) for k in range(257)}
    gaps = t.x_projection().complement().spans
    if gaps:
        marks.add((gaps[0].lo + gaps[0].hi) / 2)
    return sorted(marks)


def test_index_slices_match_per_piece_loop():
    outside = 0
    for t in _index_targets():
        for x in _index_marks(t):
            ref = _reference_slice(t, x)
            assert slice_of(t, x) == ref, (t, x)
            assert t.pole_signs(x) == _reference_pole_signs(t, x), (t, x)
            outside += not ref
    assert outside > 0


def test_band_reads_match_the_normalized_slice():
    """Each slice question, answered by one reduction over the unmerged band
    ranges, equals the answer read off the sorted, merged slice. At each
    excluded pole, extended D holds x exactly when the merged slice is
    multi-valued or it and the infinities make more than one element."""
    for t in _index_targets():
        poles = {pole for pole, _ in t.excluded_poles}
        extended_d = TargetAnalysis(t).extended_d_set
        for x in _index_marks(t):
            iv = _reference_slice(t, x)
            ys = {F(0)} | {y for a, b in iv for y in (a - F(1, 1000), a, b, b + F(1, 1000))}
            for y in ys:
                member = any(lo <= y <= hi for lo, hi in t.bands_at(x))
                assert member == any(a <= y <= b for a, b in iv), (t, x, y)
            if x in poles:
                count = bool(iv) + len(_reference_pole_signs(t, x))
                multi = len(iv) > 1 or any(a < b for a, b in iv) or count > 1
                assert extended_d.contains(x) == multi, (t, x)
            if not iv:
                for bounded in (True, False):
                    with pytest.raises(EmptySliceError):
                        backbone(t, x, bounded)
                continue
            assert backbone(t, x, True) == (iv[-1][1], None), (t, x)
            # min_abs, then the slice clipped to |y| <= n_x and its max.
            m = min(F(0) if a <= 0 <= b else min(abs(a), abs(b)) for a, b in iv)
            n = max(1, math.ceil(m))
            clipped = [(max(a, -n), min(b, n)) for a, b in iv if max(a, -n) <= min(b, n)]
            got = backbone(t, x, False)
            assert got == (clipped[-1][1], n) and isinstance(got[0], F), (t, x)


def test_index_keeps_open_pole_ends_out():
    t = TargetSet((Hyper(0, 0, F(1, 2), 1), Hyper(1, F(1, 2), 1, 1)))
    assert t._index[0] == [0, F(1, 2), 1]
    assert not t.bands_at(0) and not t.bands_at(1)
    assert slice_of(t, F(1, 2)) == ((F(-2), F(-2)), (F(2), F(2)))


def _far_and_near_points(t, rng):
    """Rational points on the pieces, near open pole ends and far away."""
    points = []
    for _ in range(6):
        x = F(rng.randint(0, 256), 256)
        values = _reference_slice(t, x)
        if values:
            a, b = rng.choice(values)
            points.append((x, rng.choice([a, b, (a + b) / 2])))
        points.append((x, F(rng.randint(-800, 800), 8)))
        points.append((x, F(rng.choice([-1, 1]) * 1000)))
    for pole, sign in t.excluded_poles:
        for dx in (F(1, 1000), F(-1, 1000), F(1, 10**7)):
            if 0 <= pole + dx <= 1:
                points.append((pole + dx, sign * F(rng.randint(1, 2000), 4)))
    return points


def _reference_arc_distance(arc, px, py):
    """The former ``Hyper.distance``: an exact membership test, then one
    ``_arc_distance`` row in u = x - pole."""
    if arc.domain().contains(px) and py * (px - arc.pole) == arc.coef:
        return 0.0
    row = np.array([float(px - arc.pole), float(py), float(arc.coef),
                    float(arc.x0 - arc.pole), float(arc.x1 - arc.pole)])
    return float(geometry._arc_distance(*row[:, None])[0])


def _reference_piece_distance(piece, px, py):
    """The former per-kind distance formulas."""
    if isinstance(piece, Point):
        return math.sqrt(float((px - piece.x) ** 2 + (py - piece.y) ** 2))
    if isinstance(piece, Box):
        dx = max(piece.x0 - px, F(0), px - piece.x1)
        dy = max(piece.y0 - py, F(0), py - piece.y1)
        return math.sqrt(float(dx * dx + dy * dy))
    if isinstance(piece, PLine):
        return _reference_pline_distance(piece, px, py)
    return _reference_arc_distance(piece, px, py)


def test_piece_distance_matches_the_former_formulas():
    """Each piece's distance, the least over its graphs by degree, equals
    the former per-kind formula bit for bit, on the pieces and off them."""
    rng = random.Random(20261020)
    kinds = Counter()
    for t in [_random_index_target(rng) for _ in range(40)]:
        for px, py in _far_and_near_points(t, rng):
            for piece in t.pieces:
                kinds[type(piece).__name__] += 1
                assert piece.distance(px, py) == _reference_piece_distance(piece, px, py), \
                    (piece, px, py)
    assert set(kinds) == {"Point", "Box", "PLine", "Hyper"}


def test_pruned_distance_is_bit_identical():
    rng = random.Random(4242)
    for t in _index_targets():
        for px, py in _far_and_near_points(t, rng):
            full = min(piece.distance(px, py) for piece in t.pieces)
            assert t.distance_to((px, py)) == full, (t, px, py)
            if any(a <= py <= b for a, b in _reference_slice(t, px)):
                assert t.distance_to((px, py)) == 0.0


def test_distance_above_sect6_visits_few_arcs(monkeypatch):
    """A point far above the target is bounded by the pieces' y-ranges too:
    every sect6 arc lies below y = -4, and only the two arcs reaching -4
    are nearer than the next y-gap."""
    t = demo_set("sect6", 10)
    distance = Hyper.distance
    visited = []

    def counted(self, px, py):
        visited.append(self)
        return distance(self, px, py)

    monkeypatch.setattr(Hyper, "distance", counted)
    p = (F(3, 10), F(3))
    got = t.distance_to(p)
    assert len(visited) <= 3
    assert got == min(distance(piece, *p) for piece in t.pieces)


@pytest.mark.parametrize("piece", [
    Point(F(1, 2), 1), Box(0, F(1, 2), 0, 1), Box(0, 1, 2, 2),
    PLine(((0, 0), (F(1, 2), 1), (1, 0))), Hyper(0, 0, 1, 1),
], ids=["point", "box", "flat-box", "pline", "arc"])
def test_graphs_are_built_once(piece):
    """Every caller of a piece's graphs (the radius schedule, the pairwise
    analysis, shadows, clipping) shares one list, built once."""
    assert piece.graphs() is piece.graphs()
    assert all(g in piece.graphs() for band in piece.bands() for g in band)


def test_is_bounded():
    assert not TargetSet((Box(0, 1, 0, 1),)).excluded_poles
    assert demo_set("hyperbola").excluded_poles
    assert not TargetSet((Hyper(F(1, 2), F(5, 8), F(7, 8), 1),)).excluded_poles


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_distance_point_trivial():
    t = TargetSet((Point(0, 0),))
    assert t.distance_to((0, 0)) == 0.0
    assert t.distance_to((F(3, 4), 1)) == pytest.approx(1.25)


def test_distance_box_trivial():
    t = TargetSet((Box(0, 1, 0, F(1, 2)),))
    assert t.distance_to((0, 1)) == pytest.approx(0.5)
    assert t.distance_to((F(1, 2), F(1, 4))) == 0.0


def test_distance_segment_exact_zero():
    t = TargetSet((PLine(((F(0), F(0)), (F(1), F(1)))),))
    assert t.distance_to((F(1, 3), F(1, 3))) == 0.0
    assert t.distance_to((0, 1)) == pytest.approx(math.sqrt(2) / 2)


def test_distance_arc_exact_zero_on_curve():
    t = TargetSet((Hyper(0, 0, 1, 1),))
    assert t.distance_to((F(1, 2), 2)) == 0.0
    assert t.distance_to((F(1, 4), 4)) == 0.0


def test_distance_sect6_against_dense_sampling():
    t = demo_set("sect6", 3)
    p = (F(1, 2), F(-13))
    oracle = math.inf
    for piece in t.pieces:
        for x, y in oracle_arc_points(piece, samples=400000):
            oracle = min(oracle, math.hypot(x - 0.5, y + 13.0))
    got = t.distance_to(p)
    assert got == pytest.approx(oracle, abs=1e-6)
    # Sanity: no farther than the slice point at (5/12, -12).
    assert got <= math.hypot(1 / 12, 1.0)


def oracle_arc_distance(arc, p, samples=100000):
    """Least distance from p to x-uniform samples of the arc plus y-uniform
    samples within the distance of its nearer end sample, where the nearest
    point's y must lie; the y samples keep steep stretches dense."""
    px, py = float(p[0]), float(p[1])
    pts = oracle_arc_points(arc, samples)
    (x_lo, _), (x_hi, _) = pts[0], pts[-1]
    bound = min(math.hypot(x - px, y - py) for x, y in (pts[0], pts[-1]))
    pole, c = float(arc.pole), float(arc.coef)
    for i in range(samples + 1):
        y = py - bound + 2 * bound * i / samples
        if y != 0 and x_lo <= pole + c / y <= x_hi:
            pts.append((pole + c / y, y))
    return min(math.hypot(x - px, y - py) for x, y in pts)


def test_distance_arc_against_dense_sampling_various_targets():
    cases = [
        (Hyper(F(1), F(1, 8), F(1), F(-3)),
         [(F(0), F(0)), (F(1, 2), F(-5)), (F(9, 10), F(2)), (F(1), F(-40))]),
        # Off the arc's axis of symmetry y = x, two local minima with
        # different values; on it, two equal ones.
        (Hyper(F(0), F(1, 50), F(1), F(1, 16)), [(F(3, 4), F(7, 10)), (F(3, 4), F(3, 4))]),
        # Nearest point at the finite end of a left- and a right-pole arc.
        (Hyper(F(0), F(0), F(1, 2), F(1)), [(F(1), F(0))]),
        (Hyper(F(1), F(1, 2), F(1), F(1)), [(F(0), F(0))]),
        # Steep arc: slope -c/u^2 reaches -10^4 at u = 1/1000.
        (Hyper(F(0), F(0), F(1), F(1, 100)),
         [(F(1, 2), F(1, 2)), (F(0), F(0)), (F(1, 5), F(3)), (F(1, 50), F(1))]),
    ]
    for arc, points in cases:
        t = TargetSet((arc,))
        for p in points:
            oracle = oracle_arc_distance(arc, p)
            assert t.distance_to(p) == pytest.approx(oracle, abs=1e-6), (arc, p)


def test_distance_to_arcs_whose_squares_leave_float_range():
    """Where c c underflows, the quartic loses the stationary point at the
    probe's y, but the arc's point there counts: (1/128, 499/128) lies
    within 1/128 of hyper 0 0 1 1e-300, which passes x = 2.6e-301 at that y.
    Where c c overflows, the quartic is dropped, and the nearest point of an
    arc of y about 1 is its point at the probe's x."""
    tiny = parse_target_text("hyper 0 0 1 1e-300\n")
    p = (F(1, 128), F(499, 128))
    assert tiny.distance_to(p) < 0.01
    lo, hi = tiny.distance_bounds(np.array([[float(p[0]), float(p[1])]]))
    assert lo[0] <= tiny.distance_to(p) <= hi[0]
    huge = TargetSet((Hyper(-10**200, 0, 1, 10**200),))
    assert huge.distance_to((F(1, 2), F(3))) == pytest.approx(2.0)
    # Every candidate's square overflows, but the distance, from (1/2, 1) to
    # the arc's end (1, 1e200), does not.
    far = TargetSet((Hyper(0, 0, 1, 10**200),))
    got = far.distance_to((F(1, 2), F(1)))
    lo, hi = far.distance_bounds(np.array([[0.5, 1.0]]))
    assert math.isfinite(got) and lo[0] <= got <= hi[0]


def test_segment_distance_past_float_squares():
    """A point, box or segment whose squared distance leaves float range
    keeps a finite distance, and a polyline segment that far does not hide
    a near one."""
    point = TargetSet((Point(F(1, 2), 10**200),))
    assert point.distance_to((F(1, 2), -10**200)) == 2e200
    box = TargetSet((Box(0, 1, 0, 1),))
    assert box.distance_to((F(1, 2), F(-10**200))) == 1e200
    pline = TargetSet((PLine(((0, 10**200), (F(1, 2), 10**200), (1, 0))),))
    assert pline.distance_to((F(1), F(0))) == 0.0
    for p in [(F(1, 2), F(-10**200)), (F(0), F(-10**300))]:
        got = pline.distance_to(p)
        lo, hi = pline.distance_bounds(np.array([[float(p[0]), float(p[1])]]))
        assert math.isfinite(got) and lo[0] <= got <= hi[0], p


def test_distance_zero_iff_membership_rational():
    """distance_to is exactly 0.0 on the target, for every piece kind: a
    closed arc and one with an excluded pole end too."""
    t = TargetSet((
        Point(F(1, 4), F(1, 3)),
        Box(F(1, 2), F(3, 4), 0, 1),
        PLine(((F(0), F(0)), (F(1, 8), F(1)))),
        Hyper(F(-1, 2), F(0), F(1), F(1, 3)),  # closed: y = (1/3)/(x + 1/2)
        Hyper(F(1), F(3, 4), F(1), F(-1, 7)),  # pole end x = 1 excluded
    ))
    on_points = [(F(1, 4), F(1, 3)), (F(5, 8), F(1, 2)), (F(1, 16), F(1, 2)),
                 (F(0), F(2, 3)), (F(1, 6), F(1, 2)), (F(1), F(2, 9)),
                 (F(3, 4), F(4, 7)), (F(7, 8), F(8, 7)), (F(99, 100), F(100, 7))]
    off_points = [(F(1, 4), F(1, 2)), (F(5, 8), F(3, 2)), (F(1, 16), F(0)),
                  (F(1, 6), F(1, 2) + F(1, 1000)), (F(1, 3), F(1, 3)),
                  (F(7, 8), F(8, 7) - F(1, 1000)), (F(1), F(0)), (F(1), F(10**6))]
    for p in on_points + off_points:
        member = any(lo <= p[1] <= hi for lo, hi in t.bands_at(p[0]))
        assert member == (p in on_points), p
        assert (t.distance_to(p) == 0.0) == member, p


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_piece_validation():
    with pytest.raises(ValueError):
        Point(F(3, 2), 0)
    with pytest.raises(ValueError):
        Box(F(1, 2), F(1, 4), 0, 1)
    with pytest.raises(ValueError):
        Box(0, 1, 1, 0)
    with pytest.raises(ValueError):
        PLine(((F(0), F(0)),))
    with pytest.raises(ValueError):
        PLine(((F(1, 2), F(0)), (F(1, 4), F(1))))
    with pytest.raises(ValueError):
        Hyper(F(1, 2), 0, 1, 1)  # pole strictly inside
    with pytest.raises(ValueError):
        Hyper(0, 0, 1, 0)  # zero coefficient
    with pytest.raises(ValueError):
        TargetSet((Box(0, 1, 0, 1),)).bands_at(F(3, 2))


# ---------------------------------------------------------------------------
# Randomized slice-vs-oracle comparison
# ---------------------------------------------------------------------------

small_rat = st.builds(F, st.integers(0, 16), st.just(16))


@st.composite
def random_pieces(draw):
    kind = draw(st.sampled_from(["point", "box", "pline", "hyper"]))
    if kind == "point":
        return Point(draw(small_rat), draw(st.integers(-4, 4)))
    if kind == "box":
        a, b = sorted([draw(small_rat), draw(small_rat)])
        y0, y1 = sorted([draw(st.integers(-4, 4)), draw(st.integers(-4, 4))])
        return Box(a, b, y0, y1)
    if kind == "pline":
        xs = sorted(draw(st.sets(small_rat, min_size=2, max_size=4)))
        ys = [draw(st.integers(-4, 4)) for _ in xs]
        return PLine(tuple(zip(xs, [F(y) for y in ys])))
    a, b = sorted([draw(small_rat), draw(small_rat)])
    if a == b:
        b = a + F(1, 16) if a < 1 else None
        if b is None:
            a, b = F(15, 16), F(1)
    pole = draw(st.sampled_from(["left", "right", "outside"]))
    coef = F(draw(st.sampled_from([-2, -1, 1, 2])))
    if pole == "left":
        return Hyper(a, a, b, coef)
    if pole == "right":
        return Hyper(b, a, b, coef)
    p = a - F(1, 8) if a >= F(1, 8) else b + F(1, 8)
    return Hyper(p, a, b, coef)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(random_pieces(), min_size=1, max_size=4), small_rat)
def test_slice_matches_oracle(pieces, x):
    t = TargetSet(tuple(pieces))
    got = slice_of(t, x)

    def dist_to_slice(v: float) -> float:
        if not got:
            return math.inf
        return min(
            max(float(a) - v, 0.0, v - float(b)) for a, b in got
        )

    for v in oracle_slice_values(t, x, tol=0.0):
        if isinstance(v, tuple):
            assert dist_to_slice(v[0]) < 1e-9
            assert dist_to_slice(v[1]) < 1e-9
            assert dist_to_slice((v[0] + v[1]) / 2) < 1e-9
        else:
            assert dist_to_slice(v) < 1e-9
    assert t.x_projection().contains(x) == bool(got)


def _reference_shadow(graph, lo, hi):
    """The Fraction rule of ``RationalGraph.cut``: each bound moves one
    end to r = b/a as a Fraction, and the result is the domain met with the
    closed span between the ends."""
    x0, x1 = graph.dom.lo, graph.dom.hi
    for theta, sign in ((lo, 1), (hi, -1)):
        if theta is None:
            continue
        tn, td = theta.numerator, theta.denominator
        a, b = graph.n1 * td - tn * graph.d1, tn * graph.d0 - graph.n0 * td
        if a == 0:
            if sign * b > 0:
                return None
        elif (a > 0) == (sign > 0):
            x0 = max(x0, F(b, a))
        else:
            x1 = min(x1, F(b, a))
    return span_intersection(graph.dom, Span(x0, x1)) if x0 <= x1 else None


def _reference_band_shadow(band, lo, hi):
    lower, upper = band
    if lower is upper:
        return _reference_shadow(lower, lo, hi)
    met = lo is None or hi is None or lo <= hi
    keep = met and _reference_shadow(lower, None, hi) and _reference_shadow(upper, lo, None)
    return lower.dom if keep else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_pieces(), st.data())
def test_shadow_matches_the_fraction_rule(piece, data):
    """The integer cut of every graph and band equals the Fraction rule: on
    open pole ends, flat graphs (a = 0) and degenerate domains, with either
    bound None and bounds at the y of a domain end, where r is that end."""
    for band in piece.bands():
        ys = [g.y_at(e) for g in band for e in (g.dom.lo, g.dom.hi) if g.dom.contains(e)]
        bound = st.one_of(st.none(), st.sampled_from(ys),
                          st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4])))
        lo, hi = data.draw(bound), data.draw(bound)
        for g in band:
            assert g.cut(lo, hi) == _reference_shadow(g, lo, hi), (g, lo, hi)
        expected = _reference_band_shadow(band, lo, hi)
        assert band_cut(band, lo, hi) == expected, (band, lo, hi)
        assert TargetSet((piece,)).shadow(lo, hi) == XSet(
            s for b in piece.bands() if (s := _reference_band_shadow(b, lo, hi)) is not None)


def _reference_pline_distance(pline, px, py):
    """The Fraction rule: each segment's foot point clamped in Fractions,
    then the float root of the least squared distance."""
    best = None
    for (xa, ya), (xb, yb) in pline.segments():
        dx, dy = xb - xa, yb - ya
        t = min(max(((px - xa) * dx + (py - ya) * dy) / (dx * dx + dy * dy), F(0)), F(1))
        sq = (px - xa - t * dx) ** 2 + (py - ya - t * dy) ** 2
        best = sq if best is None else min(best, sq)
    return math.sqrt(float(best))


unit_rat = st.builds(F, st.integers(0, 30), st.integers(1, 30)).filter(lambda v: v <= 1)
any_rat = st.builds(F, st.integers(-60, 60), st.integers(1, 24))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sets(unit_rat, min_size=2, max_size=4), st.lists(any_rat, min_size=4, max_size=4),
       unit_rat | any_rat, any_rat)
def test_pline_distance_matches_the_fraction_rule(xs, ys, px, py):
    """The integer segment distance takes the float root of the same exact
    value, on the line, at the ends and off both ends."""
    pline = PLine(tuple(zip(sorted(xs), ys)))
    points = [(px, py)] + [(x, y) for x, y in pline.vertices]
    points += [((xa + xb) / 2, (ya + yb) / 2) for (xa, ya), (xb, yb) in pline.segments()]
    for x, y in points:
        assert pline.distance(x, y) == _reference_pline_distance(pline, x, y), (pline, x, y)


# ---------------------------------------------------------------------------
# Float distance bounds
# ---------------------------------------------------------------------------


def _filter_points(t, xs):
    """Points on the pieces at xs, at box corners, on segment ends, far above
    and below each pole, and off the unit strip."""
    points = [(x, y) for x in xs for band in t.bands_at(x) for y in band]
    for piece in t.pieces:
        if isinstance(piece, Box):
            points += [(x, y) for x in (piece.x0, piece.x1) for y in (piece.y0, piece.y1)]
        elif isinstance(piece, PLine):
            points += list(piece.vertices)
        elif isinstance(piece, Hyper):
            points += [(min(max(piece.pole + dx, F(0)), F(1)), F(y))
                       for dx in (F(-1, 1000), F(1, 1000)) for y in (-1000, 1000)]
    return points + [(F(-1, 4), F(0)), (F(5, 4), F(3)), (F(1, 2), F(-60))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(random_pieces(), min_size=1, max_size=4), st.lists(small_rat, max_size=3))
def test_distance_bounds_hold_the_exact_distance(pieces, xs):
    """lo <= distance_to <= hi at every test point, and the batched arc
    distance of all (point, arc) rows at once equals ``Hyper.distance``."""
    t = TargetSet(tuple(pieces))
    points = _filter_points(t, xs)
    lo, hi = t.distance_bounds(np.array([(float(x), float(y)) for x, y in points]))
    for (x, y), low, high in zip(points, lo, hi):
        assert low <= t.distance_to((x, y)) <= high, (t, x, y)
    rows = [(arc, x, y) for arc in t.pieces if isinstance(arc, Hyper) for x, y in points
            if not (arc.domain().contains(x) and y * (x - arc.pole) == arc.coef)]
    if rows:
        batched = geometry._arc_distance(*np.array(
            [[float(x - arc.pole), float(y), float(arc.coef), float(arc.x0 - arc.pole),
              float(arc.x1 - arc.pole)] for arc, x, y in rows]).T)
        assert list(batched) == [arc.distance(x, y) for arc, x, y in rows]


def test_distance_bounds_prune_the_arc_quartic(monkeypatch):
    """A point on a sect6 arc is bounded by its vertical distance there, so
    its closed-form bracket is already within the allowance: no quartic row
    runs. Off every arc by more, the quartic runs only for the arcs whose
    reach gap is below the closed-form hi, the nearest among them."""
    t = demo_set("sect6", 10)
    arc_distance, sizes = geometry._arc_distance, []

    def counted(a, *rest):
        sizes.append(a.shape[0])
        return arc_distance(a, *rest)

    monkeypatch.setattr(geometry, "_arc_distance", counted)
    x = F(5, 12) + F(1, 100)
    lo, hi = t.distance_bounds(np.array([(float(x), float(y)) for y, _ in t.bands_at(x)]))
    assert list(lo) == [0.0] * len(lo) and max(hi) < 1e-6
    assert sum(sizes) == 0
    xs = [F(k, 97) for k in range(98)]
    on_arcs = np.array([(float(x), float(y)) for x in xs for y, _ in t.bands_at(x)])
    lo, hi = t.distance_bounds(on_arcs)
    assert len(on_arcs) > 90 and not lo.any() and max(hi) < 1e-5
    assert sum(sizes) == 0
    (y, _), = t.bands_at(x)
    for d in (F(1, 1000), F(1, 10), F(1), F(-1, 10)):
        sizes.clear()
        lo, hi = t.distance_bounds(np.array([(float(x), float(y + d))]))
        run = sum(sizes)
        exact = t.distance_to((x, y + d))
        # The vertical distance |d| is the bracket's top without the quartic.
        assert 0 < run < len(t.pieces) and lo[0] <= exact <= hi[0] < abs(float(d)) / 10


# ---------------------------------------------------------------------------
# Integer graph forms against the Fraction formulas
# ---------------------------------------------------------------------------


def _former_pline_samples(pline, n, spacing):
    """``PLine.net_samples`` from the Fraction formulas: the nodes t = i/m of
    [0, 1], m the least power of two with (xb - xa + |dy|)/m <= spacing,
    whose y lies in the band (i between the band's Fraction bounds), and
    the band crossings; node t of a segment at (xa + t (xb - xa), ya + t dy)."""
    out = []
    for ((xa, ya), (xb, yb)), graph in zip(pline.segments(), pline.graphs()):
        dy = yb - ya
        m = 1 << (math.ceil((xb - xa + abs(dy)) / spacing) - 1).bit_length()
        ts = [F(i, m) for i in range(m + 1)] if dy == 0 and abs(ya) <= n else []
        if dy != 0:
            a, b = sorted(((-n - ya) * m / dy, (n - ya) * m / dy))
            ts = [F(i, m) for i in range(max(0, math.ceil(a)), min(m, math.floor(b)) + 1)]
            for edge in (F(-n), F(n)):
                t = (edge - ya) / dy
                if 0 < t < 1 and t not in ts:
                    ts.append(t)
        ts.sort()
        out.extend((xa + t * (xb - xa), ya + t * dy, graph) for t in ts)
    return [((x.numerator, x.denominator), (y.numerator, y.denominator), g) for x, y, g in out]


_UNIT = st.fractions(0, 1, max_denominator=1000)
# Magnitudes from 10^-300 to 10^300: slopes up to about 10^303.
_WIDE = st.builds(lambda m, e: F(m) * F(10) ** e, st.integers(-9, 9), st.integers(-300, 300))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xs=st.lists(_UNIT, min_size=2, max_size=4, unique=True),
       ys=st.lists(_WIDE, min_size=4, max_size=4),
       ends=st.lists(_UNIT, min_size=2, max_size=2, unique=True),
       gap=st.fractions(0, 1, max_denominator=100),
       coef=_WIDE.filter(bool), probes=st.lists(_UNIT, min_size=1, max_size=8))
def test_integer_graph_forms_match_the_fraction_formulas(xs, ys, ends, gap, coef, probes):
    """``RationalGraph.y_at`` and ``Span.holds``, in integers over one common
    denominator, and the polyline net nodes equal the Fraction formulas, on
    polyline segments and on arcs right and left of their pole, at domain
    ends and inside and outside the domain; the denominator is positive on
    the domain."""
    pline = PLine(tuple(zip(sorted(xs), ys)))
    x0, x1 = sorted(ends)
    arcs = [Hyper(x0 - gap, x0, x1, coef), Hyper(x1 + gap, x0, x1, coef)]
    formulas = [lambda x, a=a, b=b: a[1] + (x - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
                for a, b in pline.segments()]
    formulas += [lambda x, arc=arc: arc.coef / (x - arc.pole) for arc in arcs]
    for graph, formula in zip(pline.graphs() + [arc.graphs()[0] for arc in arcs], formulas):
        assert all(isinstance(v, int) for v in (graph.n1, graph.n0, graph.d1, graph.d0))
        dom = graph.dom
        for x in [dom.lo, dom.hi, *probes]:
            inside = (dom.lo < x < dom.hi or x == dom.lo and not dom.lo_open
                      or x == dom.hi and not dom.hi_open)
            assert dom.holds(x.numerator, x.denominator) == inside
            if inside:
                assert graph.d1 * x + graph.d0 > 0 and graph.y_at(x) == formula(x)
            elif graph.d1 * x + graph.d0 != 0:
                assert graph.y_at(x) == formula(x)
    for n in (1, 3, 8):
        spacing = F(15, 8 * n)
        assert pline.net_samples(n, spacing, spacing) == _former_pline_samples(pline, n, spacing)

"""Net construction, level sets, backbones, and assembled functions."""

import contextlib
import io
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accumgraph.cli import EXIT_OK, main
from accumgraph.conditions import Regime, TargetAnalysis, check_regime
from accumgraph.demos import demo_set, sect6_c_order, sect6_pole_points
from accumgraph.geometry import (Box, EmptySliceError, Hyper, PLine, Point, RationalGraph,
                                 TargetSet)
from accumgraph.intervals import Span, XSet
from accumgraph.synthesis import (
    NetPlacementError,
    RegimeUnsatisfiedError,
    _curve_spacing,
    _grid_pitch,
    _Placer,
    backbone,
    f_on_c,
    lemma31_net,
    synthesize,
)


# ---------------------------------------------------------------------------
# Oracles: probe nets over the banded target, straight from the formulas
# ---------------------------------------------------------------------------


def oracle_band_probes(target, n, pitch):
    """Float probes of T_n = T within |y| <= n at roughly the given pitch."""
    probes = []
    for piece in target.pieces:
        if isinstance(piece, Point):
            if abs(float(piece.y)) <= n:
                probes.append((float(piece.x), float(piece.y)))
        elif isinstance(piece, Box):
            x0, x1 = float(piece.x0), float(piece.x1)
            y0, y1 = max(float(piece.y0), -n), min(float(piece.y1), n)
            if y0 > y1:
                continue
            nx = max(1, math.ceil((x1 - x0) / pitch))
            ny = max(1, math.ceil((y1 - y0) / pitch))
            for i in range(nx + 1):
                for j in range(ny + 1):
                    probes.append((x0 + (x1 - x0) * i / nx, y0 + (y1 - y0) * j / ny))
        elif isinstance(piece, PLine):
            for (xa, ya), (xb, yb) in piece.segments():
                ax, ay, bx, by = map(float, (xa, ya, xb, yb))
                steps = max(1, math.ceil(math.hypot(bx - ax, by - ay) / pitch))
                for i in range(steps + 1):
                    t = i / steps
                    y = ay + t * (by - ay)
                    if abs(y) <= n:
                        probes.append((ax + t * (bx - ax), y))
        else:
            p, c = float(piece.pole), float(piece.coef)
            lo, hi = float(piece.x0), float(piece.x1)
            # Restrict the walk to |y| <= n, i.e. |x - p| >= |c|/n.
            margin = abs(c) / n
            if lo >= p:
                lo = max(lo, p + margin)
            if hi <= p:
                hi = min(hi, p - margin)
            if lo > hi:
                continue
            x = lo
            while x < hi:
                probes.append((x, c / (x - p)))
                slope = abs(c) / (x - p) ** 2
                x += max(pitch / (1.0 + slope), 1e-12)
            probes.append((hi, c / (hi - p)))
    return probes


def assert_net_invariants(target, net, check_cover=True):
    seen_x = set()
    for level in net.levels:
        n = level.n
        band = target.clipped(F(-n), F(n))
        for x, y in level.points:
            assert x not in seen_x, f"duplicate x={x}"
            seen_x.add(x)
            assert band.distance_to((x, y)) <= 1 / n + 1e-9
        if check_cover and level.points:
            pitch = 1 / (4 * n)
            pts = [(float(x), float(y)) for x, y in level.points]
            for px, py in oracle_band_probes(target, n, pitch):
                nearest = min(math.hypot(px - qx, py - qy) for qx, qy in pts)
                assert nearest <= 1 / n + 1 / (2 * n) + 1e-9, (
                    f"probe ({px}, {py}) uncovered at level {n}"
                )


# ---------------------------------------------------------------------------
# Net construction
# ---------------------------------------------------------------------------


def test_net_single_point_target():
    t = TargetSet((Point(F(1, 2), 0),))
    net = lemma31_net(t, 3)
    assert [len(l.points) for l in net.levels] == [1, 1, 1]
    xs = [l.points[0][0] for l in net.levels]
    assert len(set(xs)) == 3
    for n, (x, y) in enumerate(((p[0], p[1]) for l in net.levels for p in l.points), 1):
        assert t.distance_to((x, y)) <= 1 / n


def test_net_square_cover_depth2():
    t = demo_set("square")
    net = lemma31_net(t, 2)
    assert len(net.levels[0].points) >= 1
    pts1 = [(float(x), float(y)) for x, y in net.levels[0].points]
    for corner in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        assert min(math.hypot(corner[0] - x, corner[1] - y) for x, y in pts1) <= 1.0
    # Full cover oracle on a 1e-2 grid.
    for px, py in oracle_band_probes(t, 2, 0.01):
        pts2 = [(float(x), float(y)) for x, y in net.levels[1].points]
        nearest = min(math.hypot(px - x, py - y) for x, y in pts2)
        assert nearest <= 0.5 + 1e-9


def test_net_sect6_cover_depth10():
    t = demo_set("sect6", 10)
    net = lemma31_net(t, 10, avoid=XSet.points(sect6_pole_points(10)))
    assert_net_invariants(t, net)


def test_net_avoid_respected():
    t = demo_set("constant")
    avoid = XSet.points([F(i, 16) for i in range(17)])
    net = lemma31_net(t, 4, avoid=avoid)
    for level in net.levels:
        for x, _ in level.points:
            assert not avoid.contains(x)


def test_net_rejects_interval_avoid():
    with pytest.raises(ValueError):
        lemma31_net(demo_set("constant"), 2, avoid=XSet.interval(0, F(1, 2)))


def test_net_rejects_empty_target():
    with pytest.raises(ValueError):
        lemma31_net(TargetSet(()), 2)


def test_net_collocation_across_levels():
    # Deeper levels revisit shallower sample sites: every level-n point has
    # points of all deeper levels within a small horizontal offset.
    t = demo_set("square")
    net = lemma31_net(t, 6)
    for n in range(1, 6):
        deeper = [
            (float(x), float(y))
            for lvl in net.levels[n:]
            for x, y in lvl.points
        ]
        for x, y in net.levels[n - 1].points:
            nearest = min(math.hypot(float(x) - qx, float(y) - qy) for qx, qy in deeper)
            assert nearest <= 2e-3, f"level {n} point ({x}, {y}) not revisited"


def _slid(x, y, graph, taken=()):
    """Place (x, y) at level 1 once x and ``taken`` are used, so it slides."""
    placer = _Placer(XSet.empty())
    placer.taken |= {(v.numerator, v.denominator) for v in (x, *taken)}
    return placer.place(x, y, 1, graph)


def _sample(piece, x, graph_ends_at=None):
    """The level-1 net sample of ``piece`` at x, with its graph."""
    for sx, sy, graph in piece.net_samples(1, F(1, 2), F(1, 2)):
        if sx == x and (graph_ends_at is None or graph.dom.hi == graph_ends_at):
            return sx, sy, graph
    raise AssertionError(f"no sample at x={x}")


def test_placer_slides_along_the_sample_graph():
    """A sliding net sample takes its graph's y where the graph's domain
    holds the new x, and keeps its y beyond the domain."""
    step = _Placer._ABS_CAP  # the first offset at level 1
    # A box row: a flat line over the box's x-range.
    x, y, row = _sample(Box(0, F(1, 2), 0, 1), 0)
    assert row.dom.contains(step)
    assert _slid(x, y, row) == (step, row.y_at(step))
    x, y, row = _sample(Box(0, F(1, 2), 0, 1), F(1, 2))
    assert not row.dom.contains(x + step)
    assert _slid(x, y, row) == (x + step, y)
    # The end of a polyline's first segment: beyond it the next segment
    # rises, but the sample keeps its y; back inside it follows the segment.
    pline = PLine(((0, 0), (F(1, 2), F(1, 4)), (1, F(1, 2))))
    x, y, seg = _sample(pline, F(1, 2), graph_ends_at=F(1, 2))
    assert _slid(x, y, seg) == (x + step, y)
    assert _slid(x, y, seg, taken={x + step}) == (x - step, seg.y_at(x - step))
    assert seg.y_at(x - step) != y
    # An arc beside its open pole end 0: the slide right leaves the 1/16n
    # displacement cap, and the pole itself is outside the domain.
    arc = Hyper(0, 0, 1, 1)
    graph = _sample(arc, 1)[2]
    assert graph is arc.graphs()[0]
    assert _slid(step, 1 / step, graph) == (0, 1 / step)
    x2, y2 = _slid(F(1, 2), F(2), graph)
    assert x2 != F(1, 2) and y2 == graph.y_at(x2)
    # A point's graph spans the one point, so the point stays level.
    point = _sample(Point(F(1, 4), 1), F(1, 4))[2]
    assert point.dom == Span(F(1, 4), F(1, 4))
    assert _slid(F(1, 4), F(1), point) == (F(1, 4) + step, 1)


# ---------------------------------------------------------------------------
# The arc net and the placer against their former implementations
# ---------------------------------------------------------------------------


def reference_arc_nodes(arc, n, spacing):
    """The arc's net nodes by the former recursion, whether the depth limit
    stopped a cell, and the limit: bisect [x0, x1] until a cell's width plus its
    clamped y-rise is at most ``spacing`` (or after as many halvings as the
    arc's depth limit, at least 64, two past the width spacing |coef|/n^2),
    skip the cells beyond the band |y| <= n on one side, and add the exact
    band crossings."""
    band, pole = F(n), arc.pole
    width = math.ceil((arc.x1 - arc.x0) * n * n / (spacing * abs(arc.coef)))
    limit = max(64, width.bit_length() + 2)
    nodes, fuel_bound = {}, []

    def clamped(x):
        if x == pole:
            return band if arc.divergence_sign() > 0 else -band
        return min(max(arc.graphs()[0].y_at(x), -band), band)

    def in_band(x):
        return x != pole and abs(arc.graphs()[0].y_at(x)) <= band

    def rec(a, b, fuel):
        ca, cb = clamped(a), clamped(b)
        if abs(ca) == band and ca == cb and not in_band(a) and not in_band(b):
            return
        if fuel == 0 or (b - a) + abs(cb - ca) <= spacing:
            if (b - a) + abs(cb - ca) > spacing:
                fuel_bound.append((a, b))
            for x in (a, b):
                if in_band(x):
                    nodes.setdefault(x, arc.graphs()[0].y_at(x))
            return
        mid = (a + b) / 2
        rec(a, mid, fuel - 1)
        rec(mid, b, fuel - 1)

    rec(arc.x0, arc.x1, limit)
    for edge in (band, -band):
        x = pole + arc.coef / edge
        if arc.domain().contains(x):
            nodes.setdefault(x, arc.graphs()[0].y_at(x))
    return [(x, nodes[x]) for x in sorted(nodes)], bool(fuel_bound), limit


def _arc_nodes(arc, n):
    return [(x, y) for x, y, _ in arc.net_samples(n, _grid_pitch(n), _curve_spacing(n))]


@pytest.mark.parametrize("demo", ["constant", "square", "hyperbola", "sect6"])
def test_arc_nodes_match_the_recursion_on_demos(demo):
    for arc in demo_set(demo, 20).pieces:
        if isinstance(arc, Hyper):
            for n in range(1, 21):
                assert _arc_nodes(arc, n) == reference_arc_nodes(arc, n, _curve_spacing(n))[0]


def _random_arc(rng):
    """An arc with its pole at its left end, its right end or outside it,
    and a coefficient of either sign from far inside the band to so small
    that the crossing is too steep for 64 halvings: the depth limit grows."""
    den = rng.choice([12, 97, 1024, 10**6])
    a, b = sorted(rng.sample(range(den + 1), 2))
    x0, x1 = F(a, den), F(b, den)
    where = rng.choice(["left", "right", "outside"])
    if where == "outside":
        gap = F(rng.randint(1, 60), 100)
        pole = x0 - gap if rng.random() < 0.5 else x1 + gap
    else:
        pole = x0 if where == "left" else x1
    scale = rng.choice([F(1), F(1, 1000), F(1, 10**22), F(1, 10**30)])
    coef = rng.choice([1, -1]) * rng.randint(1, 40) * scale
    return where, Hyper(pole, x0, x1, coef)


def test_arc_nodes_match_the_recursion_on_random_arcs():
    """The nodes equal the recursion's, and the depth limit stops no cell,
    not even where the crossing is too steep for 64 halvings."""
    rng = random.Random(31)
    seen = Counter()
    for _ in range(200):
        where, arc = _random_arc(rng)
        n = rng.randint(1, 20)
        want, fuel_bound, limit = reference_arc_nodes(arc, n, _curve_spacing(n))
        assert _arc_nodes(arc, n) == want, (arc, n)
        assert not fuel_bound, (arc, n)
        shadow = arc.graphs()[0].cut(F(-n), F(n))
        band = "beyond" if shadow is None else "inside" if shadow == arc.domain() else "cut"
        seen.update([where, band, arc.coef > 0, "steep" if limit > 64 else "mild"])
    assert all(seen[k] for k in ("left", "right", "outside", "beyond", "inside", "cut",
                                 True, False, "steep", "mild")), seen


def reference_box_pline_nodes(piece, n):
    """The former enumeration of box and polyline net nodes: every dyadic
    node of the whole piece, then those with |y| <= n, plus the band-edge
    rows and crossings."""
    band_lo, band_hi = F(-n), F(n)

    def dyadic(lo, hi, pitch):
        if lo == hi:
            return [lo]
        m = 1
        while (hi - lo) / m > pitch:
            m *= 2
        return [lo + (hi - lo) * F(i, m) for i in range(m + 1)]

    if isinstance(piece, Box):
        rows = [y for y in dyadic(piece.y0, piece.y1, _grid_pitch(n)) if band_lo <= y <= band_hi]
        rows += [e for e in (band_lo, band_hi) if piece.y0 < e < piece.y1 and e not in rows]
        xs = dyadic(piece.x0, piece.x1, _grid_pitch(n))
        return [(x, y) for y in sorted(rows) for x in xs]
    out = []
    for (xa, ya), (xb, yb) in piece.segments():
        manhattan, m, dy = abs(xb - xa) + abs(yb - ya), 1, yb - ya
        while manhattan / m > _curve_spacing(n):
            m *= 2
        ts = [F(i, m) for i in range(m + 1)]
        if dy != 0:
            ts += [t for e in (band_lo, band_hi) if 0 < (t := (e - ya) / dy) < 1 and t not in ts]
        out += [(xa + t * (xb - xa), ya + t * dy) for t in sorted(ts)
                if band_lo <= ya + t * dy <= band_hi]
    return out


def _random_box_or_pline(rng):
    """A box or a polyline, flat or not, in the band, cut by it or beyond
    it; heights are multiples of 1/4, so band edges fall on nodes too."""
    def y():
        return F(rng.randint(-120, 120), 4) * rng.choice([1, 1, F(1, 16), 4])

    a, b = sorted(rng.sample(range(65), 2))
    x0, x1 = F(a, 64), F(b, 64)
    if rng.random() < 0.5:
        y0, y1 = sorted((y(), y()))
        return Box(x1 if rng.random() < 0.1 else x0, x1, y0, y0 if rng.random() < 0.2 else y1)
    xs = sorted({x0, x1, *(F(rng.randint(a, b), 64) for _ in range(2))})
    level, flat = y(), rng.random() < 0.2
    return PLine(tuple((x, level if flat else y()) for x in xs))


def test_box_and_pline_nodes_match_the_full_enumeration():
    """Only the in-band nodes are built; they are the nodes of the former
    whole-piece enumeration that lie in the band, in the same order."""
    rng = random.Random(47)
    seen = Counter()
    for _ in range(400):
        piece, n = _random_box_or_pline(rng), rng.choice([1, 2, 3, 6, 10])
        got = [(x, y) for x, y, _ in piece.net_samples(n, _grid_pitch(n), _curve_spacing(n))]
        assert got == reference_box_pline_nodes(piece, n), (piece, n)
        ys = [y for g in piece.graphs() for y in (g.y_at(g.dom.lo), g.y_at(g.dom.hi))]
        seen.update([type(piece).__name__, "flat" if min(ys) == max(ys) else "sloped",
                     "beyond" if not got else "inside" if max(map(abs, ys)) <= n else "cut",
                     "edge-node" if any(abs(y) == n for _, y in got) else "no-edge"])
    assert all(seen[k] for k in ("Box", "PLine", "flat", "sloped", "beyond", "inside", "cut",
                                 "edge-node")), seen


@pytest.mark.parametrize("piece", [
    Hyper(0, 0, 1, 1), Hyper(1, F(1, 2), 1, -1), Hyper(F(-1, 4), 0, 1, F(1, 3)),
    Hyper(F(1, 3), 0, F(1, 3), F(-7, 10**25)),
    PLine(((0, -30), (F(1, 3), F(5, 2)), (F(5, 7), F(5, 2)), (1, 40))), Box(F(1, 5), F(3, 5), -3, F(5, 2)),
], ids=["left-pole", "right-pole", "outside-pole", "depth-limit", "segments", "box-rows"])
def test_arc_nodes_are_evaluated_once(piece):
    """Over levels 1..20 of a fresh piece, each net node of an arc, of a
    segment and of a box's rows and columns is evaluated once, into its
    graph's table: the table's entries have distinct x (or row y), each was
    emitted, and every other sample lies on a band edge |y| = n of its
    level, a crossing."""
    samples = [(n, x, y, g) for n in range(1, 21)
               for x, y, g in piece.net_samples(n, _grid_pitch(n), _curve_spacing(n))]
    if isinstance(piece, Box):
        # The rows are node y's of the box's rise line, the columns node x's
        # of its bottom edge.
        walks = [(piece._rows[0], lambda node: node[1], [(n, y, y) for n, _, y, _ in samples]),
                 (piece.graphs()[0], lambda node: node[0], [(n, x, None) for n, x, _, _ in samples])]
    else:
        walks = [(g, lambda node: node, [(n, (x, y), y) for n, x, y, h in samples if h is g])
                 for g in piece.graphs()]
    for graph, value, emitted in walks:
        table = [value(node) for node in graph._walk[3].values()]
        nodes = set(table)
        assert len(nodes) == len(table) > 0 and nodes <= {v for _, v, _ in emitted}
        assert all(y is not None and abs(y) == n for n, v, y in emitted if v not in nodes)


@st.composite
def _net_pieces(draw):
    """A point, a box or a polyline on the 1/48 x-grid with |y| <= 40, or
    an arc with its pole at its left end, its right end or outside it and a
    coefficient of either sign down to 10^-30, where the arc's depth limit
    passes 64."""
    x, y = st.integers(0, 48).map(lambda i: F(i, 48)), st.integers(-160, 160).map(lambda i: F(i, 4))
    kind = draw(st.sampled_from(["point", "box", "pline", "arc"]))
    if kind == "point":
        return Point(draw(x), draw(y))
    xs = sorted(draw(st.lists(x, min_size=2, max_size=4, unique=True)))
    if kind == "box":
        return Box(xs[0], xs[-1], *sorted((draw(y), draw(y))))
    if kind == "pline":
        return PLine(tuple((v, draw(y)) for v in xs))
    a, b = xs[0], xs[-1]
    scale = F(1, 10) ** draw(st.sampled_from([0, 3, 22, 30]))
    coef = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 40)) * scale
    return Hyper(draw(st.sampled_from([a, b, a - F(1, 7), b + F(1, 7)])), a, b, coef)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pieces=st.lists(_net_pieces(), min_size=1, max_size=3),
       order=st.permutations(range(1, 13)))
def test_node_tables_hold_no_state_that_changes_an_answer(pieces, order):
    """A piece's levels asked in any order equal the same levels of freshly
    built pieces, and a target's net built twice equals its first net and
    the net of a fresh target."""
    for piece in pieces:
        got = {n: piece.net_samples(n, _grid_pitch(n), _curve_spacing(n)) for n in order}
        for n in order:
            assert got[n] == replace(piece).net_samples(n, _grid_pitch(n), _curve_spacing(n))
    target = TargetSet(tuple(pieces))
    net = lemma31_net(target, 6)
    assert lemma31_net(target, 6) == net == lemma31_net(TargetSet(tuple(map(replace, pieces))), 6)


class ReferencePlacer:
    """The former placer: each call builds its caps as Fractions and walks
    a generator of 400 offsets 0, +s, -s, +s/2, -s/2, ..."""

    def __init__(self, avoid):
        self.avoid = avoid
        self.used = set()
        self.index = 0

    def place(self, x, y, n, graph):
        self.index += 1
        scale = min(F(1, 16 * n * self.index), F(1, 4096))
        dmax_sq = min(F(1, 16 * n), F(1, 1024)) ** 2
        for attempts, delta in enumerate(self._offsets(scale), start=1):
            if attempts > 400:
                break
            x2 = x + delta
            if not (0 <= x2 <= 1):
                continue
            if x2 in self.used or self.avoid.contains(x2):
                continue
            y2 = y
            if delta != 0:
                if graph is not None and graph.dom.contains(x2):
                    y2 = graph.y_at(x2)
                if (x2 - x) ** 2 + (y2 - y) ** 2 > dmax_sq:
                    continue
            self.used.add(x2)
            return x2, y2
        raise NetPlacementError(f"could not place a net point near x={x}")

    @staticmethod
    def _offsets(scale):
        yield F(0)
        step = scale
        while True:
            yield step
            yield -step
            step /= 2


def _placements(placer, samples):
    """Each sample's placed point, or "raised"; then the taken x's, used or
    avoided, as (numerator, denominator) keys."""
    out = []
    for sample in samples:
        try:
            out.append(placer.place(*sample))
        except NetPlacementError:
            out.append("raised")
    if isinstance(placer, _Placer):
        return out, placer.taken, placer.index
    taken = placer.used | set(placer.avoid.isolated_points())
    return out, {(x.numerator, x.denominator) for x in taken}, placer.index


def _net_samples(target, depth):
    """The samples ``lemma31_net`` places, in its order, with their level."""
    return [(x, y, n, graph) for n in range(1, depth + 1) for piece in target.pieces
            for x, y, graph in piece.net_samples(n, _grid_pitch(n), _curve_spacing(n))]


# D = {1/4, 1/2}: two points off a rising line, both at its net nodes.
_D_POINTS = TargetSet((PLine(((0, 0), (1, 1))), Point(F(1, 4), 2), Point(F(1, 2), -1)))


@pytest.mark.parametrize("target, depth, avoid", [
    (demo_set("square"), 6, XSet.empty()),
    (demo_set("sect6", 8), 8, XSet.points(sect6_pole_points(8))),
    (_D_POINTS, 6, TargetAnalysis(_D_POINTS).d_set),
], ids=["square", "sect6-c-points", "d-points"])
def test_placer_matches_the_former_placer_on_nets(target, depth, avoid):
    """Deeper levels revisit every site, so most samples slide."""
    samples = _net_samples(target, depth)
    assert len({x for x, *_ in samples}) < len(samples)
    assert not avoid.contains_interval()
    assert _placements(_Placer(avoid), samples) == _placements(ReferencePlacer(avoid), samples)


def test_placer_matches_the_former_placer_at_the_ends():
    """Samples at x = 0 and x = 1 slide only inward, and a sample with no
    room left raises in both. A point's sample carries its one-point graph."""
    row = Box(0, 1, 0, 1).net_samples(1, F(1, 2), F(1, 2))
    arc = Hyper(0, 0, 1, F(1, 100)).net_samples(3, F(1, 8), F(1, 8))
    ends = [(x, y, n, g) for n in (1, 2, 7) for x, y, g in row + arc if x in (0, 1)]
    points = [Point(0, 2).graphs()[0], Point(1, -1).graphs()[0]]
    ends += [(F(0), F(2), 3, points[0]), (F(1), F(-1), 3, points[1])] * 3
    for avoid in (XSet.empty(), XSet.points([F(1, 4096), 1 - F(1, 8192)])):
        assert _placements(_Placer(avoid), ends) == _placements(ReferencePlacer(avoid), ends)
    # The placer refuses an avoided interval, as lemma31_net does.
    with pytest.raises(ValueError, match="no interval"):
        _Placer(XSet.interval(0, F(1, 1000)))
    # A point's sample at 0 whose x and every offset 1/(4096 2^j) are
    # avoided has no room left.
    walled = XSet.points([0, *(F(1, 4096 << j) for j in range(200))])
    boxed = [(F(0), F(2), 3, points[0])]
    got = _placements(_Placer(walled), boxed)
    assert got[0] == ["raised"]
    assert got == _placements(ReferencePlacer(walled), boxed)


def _placed_nets_hold(target, depth):
    """Synthesize b2 and check each net point against the sample it was
    placed from: distinct x in [0, 1] off the avoid set, on the sample's
    graph where its domain holds x (its level y elsewhere), displaced by at
    most min(1/(16 n), 2^-10). Returns the count of points moved in y."""
    f = synthesize(target, Regime.B2, depth=depth)
    samples = _net_samples(target, depth)
    placed = [p for level in f.approx.levels for p in level.points]
    assert len(placed) == len(samples)
    assert len({x for x, _ in placed}) == len(placed)
    avoid = TargetAnalysis(target).c_set
    moved_in_y = 0
    for (x, y, n, graph), (x2, y2) in zip(samples, placed):
        assert 0 <= x2 <= 1 and not avoid.contains(x2)
        if graph is not None and graph.dom.contains(x2):
            assert y2 == (graph.n1 * x2 + graph.n0) / (graph.d1 * x2 + graph.d0)
        else:
            assert y2 == y
        assert (x2 - x) ** 2 + (y2 - y) ** 2 <= min(F(1, 16 * n), F(1, 1024)) ** 2
        moved_in_y += x2 != x and abs(y2 - y) > abs(x2 - x)
    return moved_in_y


_TWELFTH = st.integers(0, 12).map(lambda i: F(i, 12))


@st.composite
def _steep_pieces(draw):
    """A polyline of slope +-10^e through (a, 0) over [0, 1], or an arc over
    [0, 1] with coefficient +-10^-e and its pole at either end, whose slope
    where it meets |y| = n is n^2 10^e; 0 <= e <= 300."""
    e, sign = draw(st.integers(0, 300)), draw(st.sampled_from([-1, 1]))
    if draw(st.booleans()):
        a = F(draw(st.integers(1, 11)), 12)
        return PLine(((0, -sign * a * 10 ** e), (a, 0), (1, sign * (1 - a) * 10 ** e)))
    return Hyper(draw(st.sampled_from([0, 1])), 0, 1, sign * F(1, 10 ** e))


@st.composite
def _fuzz_pieces(draw):
    """Zero to three small pieces on the 1/12 x-grid with |y| <= 3, plus a
    polyline covering [0, 1], as in the fuzz targets."""
    level = st.integers(-3, 3)
    pieces = []
    for kind in draw(st.lists(st.sampled_from(["point", "box", "pline", "hyper"]), max_size=3)):
        a, b = sorted(draw(st.lists(_TWELFTH, min_size=2, max_size=2, unique=True)))
        if kind == "point":
            pieces.append(Point(a, draw(level)))
        elif kind == "box":
            y0, y1 = sorted((draw(level), draw(level)))
            pieces.append(Box(a, b, y0, y1))
        elif kind == "pline":
            pieces.append(PLine(((a, draw(level)), (b, draw(level)))))
        else:
            pole = draw(st.sampled_from([a, b, a - F(1, 6), b + F(1, 6)]))
            pieces.append(Hyper(pole, a, b, draw(st.sampled_from([-1, 1, 2]))))
    return pieces + [PLine(((0, draw(level)), (1, draw(level))))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(steep=_steep_pieces(), others=st.one_of(st.just([]), _fuzz_pieces()))
def test_steep_pieces_synthesize_with_placed_nets(steep, others):
    """A polyline or arc of slope up to 10^300, alone or added to a fuzz-style
    target, passes b2; synth writes its witness and every net point keeps
    the placement contract."""
    target = TargetSet((*others, steep))
    assert check_regime(target, Regime.B2).passed
    text = "".join(f"{piece}\n" for piece in target.pieces)
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["synth", "-", "--regime", "b2", "--depth", "6", "--grid", "128"])
    assert code == EXIT_OK and err.getvalue() == "", (text, err.getvalue())
    assert out.getvalue().startswith("x,y\n")
    _placed_nets_hold(target, 6)


def test_steep_polyline_nets_move_in_y():
    """Along a polyline of slope 10^300 every x offset moves y too far, so
    revisited net points near x = 0 move in y, with x from the inverse."""
    for depth in (4, 10):
        assert _placed_nets_hold(TargetSet((PLine(((0, 0), (1, 10 ** 300))),)), depth) > 0


# ---------------------------------------------------------------------------
# Backbones
# ---------------------------------------------------------------------------


def test_f0_bounded_examples():
    assert backbone(demo_set("square"), F(1, 3), True) == (1, None)
    t = TargetSet((Box(0, 1, -1, 0), Point(F(1, 2), 3)))
    assert backbone(t, F(1, 2), True)[0] == 3
    assert backbone(t, F(1, 4), True)[0] == 0
    assert backbone(demo_set("sect6", 3), F(5, 12), True)[0] == -12
    with pytest.raises(EmptySliceError):
        backbone(demo_set("hyperbola"), 0, True)


def test_f0_unbounded_hyperbola():
    assert backbone(demo_set("hyperbola"), F(3, 10), False) == (F(10, 3), 4)


def test_f0_unbounded_square_and_sect6():
    assert backbone(demo_set("square"), F(1, 3), False) == (1, 1)
    assert backbone(demo_set("sect6", 12), F(5, 12), False) == (-12, 12)


def test_f0_unbounded_level_inequality():
    t = TargetSet((Hyper(0, 0, 1, 1), Box(0, 1, -20, -15)))
    for i in range(1, 64):
        x = F(i, 64)
        v, n = backbone(t, x, False)
        if n == 1:
            assert 0 <= abs(v) <= 1
        else:
            assert n - 1 < abs(v) <= n
        assert t.distance_to((x, v)) == 0.0


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------


def level_sets(analysis, depth):
    """U_1..U_depth and V_1..V_depth, as read from the analysis."""
    return ([analysis.u_level(n) for n in range(1, depth + 1)],
            [analysis.v_part(n) for n in range(1, depth + 1)])


def test_u_sets_hyperbola():
    U, V = level_sets(TargetAnalysis(demo_set("hyperbola")), 5)
    for n in range(1, 6):
        assert U[n - 1] == XSet.interval(F(1, n), 1), f"n={n}"
    assert V[0] == XSet.point(1)
    assert V[1] == XSet.interval(F(1, 2), 1, hi_open=True)


def test_u_sets_square():
    analysis = TargetAnalysis(demo_set("square"))
    U, V = level_sets(analysis, 3)
    assert U[0] == XSet.interval(0, 1)
    assert V[0] == XSet.interval(0, 1)
    assert V[1].is_empty and V[2].is_empty
    assert [n for n, _ in analysis.w_parts(3)] == [1]


def test_u_sets_sect6_matches_grid_oracle():
    depth = 8
    t = demo_set("sect6", depth)
    U, _ = level_sets(TargetAnalysis(t), depth)
    poles = sect6_pole_points(depth)
    for n in (2, 5, 8):
        u = U[n - 1]
        for i in range(0, 401):
            x = F(i, 400)
            d = min(abs(x - p) for p in poles)
            assert u.contains(x) == (d >= F(1, n)), f"x={x} n={n}"


def test_u_sets_structure():
    t = demo_set("sect6", 6)
    analysis = TargetAnalysis(t)
    W = analysis.w_parts(6)
    U, V = level_sets(analysis, 6)
    proj = t.x_projection()
    for a, b in zip(U, U[1:]):
        assert (a - b).is_empty
    for u in U:
        assert (u - proj).is_empty
    # V partition: union of V equals U_depth; parts disjoint.
    acc = XSet.empty()
    for v in V:
        assert (acc & v).is_empty
        acc = acc | v
    assert acc == U[-1]
    # W parts are closed subsets of their level's V.
    for n, part in W:
        assert (XSet((part,)) - V[n - 1]).is_empty
    # Enumeration ordered by level then left endpoint.
    keys = [(n, part.lo, part.hi) for n, part in W]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Values on the empty-slice set
# ---------------------------------------------------------------------------


def test_f_on_c_sect6_unsigned():
    depth = 5
    t = demo_set("sect6", depth)
    order = sect6_c_order(depth)
    values = f_on_c(order, t, signed=False)
    assert values[F(0)] == 1
    assert values[F(1)] == 2
    assert values[F(1, 2)] == 3
    assert values[F(1, 4)] == 5


def test_f_on_c_sect6_signed():
    depth = 5
    t = demo_set("sect6", depth)
    order = sect6_c_order(depth)
    values = f_on_c(order, t, signed=True)
    for k, c in enumerate(order, start=1):
        assert values[c] == -k


def test_f_on_c_hyperbola_signed():
    t = demo_set("hyperbola")
    assert f_on_c([F(0)], t, signed=True)[F(0)] == 1


@pytest.mark.parametrize("pieces, value", [
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), 1), Hyper(F(1, 2), F(1, 2), F(3, 4), 1),
      Point(F(1, 2), 0)), 1),
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), 1), Hyper(F(1, 2), F(1, 2), F(3, 4), -1)), -1),
    ((Hyper(F(1, 2), F(1, 4), F(1, 2), -1),), 1),
    ((Hyper(F(1, 2), F(1, 2), F(3, 4), -1), PLine(((0, 0), (1, 0)))), -1),
    ((Box(0, F(1, 4), 0, 1),), 1),
], ids=["both-ways-and-a-point", "two-arcs-down", "one-arc-up", "pole-on-a-band", "no-pole"])
def test_f_on_c_signed_at_a_pole(pieces, value):
    """The sign is negative only when the arcs at x diverge down alone:
    positive wins when both directions occur, or neither."""
    assert f_on_c([F(1, 2)], TargetSet(pieces), signed=True) == {F(1, 2): value}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_synthesize_requires_passing_regime():
    with pytest.raises(RegimeUnsatisfiedError) as err:
        synthesize(demo_set("square"), Regime.B1_BOUNDED)
    assert not err.value.verdict.passed


def test_synthesize_constant_graph():
    f = synthesize(demo_set("constant"), Regime.B1_BOUNDED, depth=6)
    for i in range(65):
        x = F(i, 64)
        if x not in f.a_values:
            assert f(x) == 0
    for x, y in f.a_values.items():
        assert f.target.distance_to((x, y)) <= 1.0


def test_synthesize_square_backbone_and_net():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=6)
    for i in range(0, 33):
        x = F(i, 32)
        if x not in f.a_values:
            assert f(x) == 1
    assert_net_invariants(f.target, f.approx, check_cover=False)


def test_synthesize_avoids_by_regime():
    t = demo_set("sect6", 6)
    f = synthesize(t, Regime.B1, depth=6)
    c = set(sect6_pole_points(6))
    assert set(f.c_points) == c
    assert not (set(f.a_values) & c)
    d = TargetAnalysis(t).d_set
    for a in f.a_values:
        assert not d.contains(a)


def test_synthesize_signed_changes_only_c():
    t = demo_set("sect6", 6)
    order = sect6_c_order(6)
    fu = synthesize(t, Regime.B1, depth=6, c_order=order)
    fs = synthesize(t, Regime.B1, depth=6, signed=True, c_order=order)
    assert set(fu.a_values) == set(fs.a_values)
    for x in [F(i, 128) for i in range(129)]:
        if x in fu.c_values:
            assert abs(fu(x)) == abs(fs(x))
        else:
            assert fu(x) == fs(x)


def test_synthesize_c_order_validation():
    t = demo_set("hyperbola")
    with pytest.raises(ValueError):
        synthesize(t, Regime.B1, depth=3, c_order=[F(1, 2)])
    f = synthesize(t, Regime.B1, depth=3, c_order=[F(0)])
    assert f(F(0)) == 1 and f.column(F(0)) == ("C", 1, None)
    assert F(3, 10) not in f.a_values and f.column(F(3, 10)) == ("B", F(10, 3), 4)


def test_evaluate_stored_net_value():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=3)
    a = f.approx.levels[0].points[0]
    assert f(a[0]) == a[1] and f.column(a[0]) == ("A", a[1], None)


def test_evaluate_domain_check():
    f = synthesize(demo_set("constant"), Regime.B2, depth=2)
    with pytest.raises(ValueError):
        f(F(3, 2))

"""Closed subsets of [0,1] x R as finite unions of primitive pieces.

Pieces are exact-rational objects: isolated points, axis-aligned boxes,
piecewise-linear graphs, and hyperbola arcs y = c/(x - p). Every piece is a
closed subset of [0,1] x R (a hyperbola arc is closed because |y| diverges
at an excluded pole endpoint), so any finite union of pieces is closed.

A piece is its bands of single-valued rational graphs (a box's band lies
between its flat edges), which the target analysis compares. Distance and
the Lemma 3.1 net samples go by graph degree, a segment or point (d1 = 0)
or an arc; a box keeps its own. Each net sample carries the graph it lies
on (a box row is a flat line), and slides along it. A ``TargetSet``
answers slices and nearest-piece distance from one x-sorted index of its
pieces' graph ends, built once: one ``bisect`` finds the bands alive at x,
their y-ranges are the slice, and each slice question (the slice max,
n_x, the count of extended D) is one reduction over them. The infinities
of the extended closure's slice are ``pole_signs``.

Where a piece meets a horizontal band is ``band_cut``, read off its
rational graphs in integers: each is monotone, so the shadow of a band is
one sub-span (a box's band, between flat edges, is its domain or nothing),
its integer ends (``intervals.End``) cut from the domain's by
``intervals.inner``. Band clipping is each graph over its cut. A box clips
its own y-range.

Slicing, projection and band clipping are exact; floating point is used
only by the arc distance and by ``distance_bounds``, float bounds that
spare callers most exact distances. A segment's or a point's exact distance
is integer arithmetic over one common denominator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .intervals import ONE, ZERO, RatLike, Span, XSet, end_at, inner, rat, span_between


class EmptySliceError(Exception):
    """Raised when an operation needs a nonempty slice and gets none."""


@dataclass(frozen=True)
class RationalGraph:
    """Graph of y = (n1 x + n0)/(d1 x + d0) over a span, in integers over one
    common denominator, signed so that d1 x + d0 > 0 on the span. A line
    y = m x + q has d1 = 0; an arc y = c/(x - p) has n1 = 0.
    """

    dom: Span
    n1: int
    n0: int
    d1: int
    d0: int

    def y_at(self, x: Fraction) -> Fraction:
        """The graph's y at x = a/b: (n1 a + n0 b)/(d1 a + d0 b), normalised once."""
        a, b = x.numerator, x.denominator
        return Fraction(self.n1 * a + self.n0 * b, self.d1 * a + self.d0 * b)

    @cached_property
    def _walk(self) -> Tuple[int, int, int, Dict[Tuple[int, int], Tuple[Fraction, Fraction]]]:
        """(x0, dx, den, table): node t of [0, 1] lies at x = (x0 + t dx)/den,
        from the near end (``dom.hi`` where d1 < 0, so an arc's |y| falls
        with t), and the table holds every node (x, y) evaluated so far."""
        (a, b, _), (c, d, _) = self.dom
        lo, hi, den = a * d, c * b, b * d
        return (hi, lo - hi, den, {}) if self.d1 < 0 else (lo, hi - lo, den, {})

    def _node(self, t: int, k: int) -> Tuple[Fraction, Fraction]:
        """(x, y) at node t/2^k of the walk, read off the table, which keys
        it in lowest terms: each node is evaluated once, at whatever k."""
        z = (t & -t).bit_length() - 1
        key = (t >> z, k - z) if t else (0, 0)
        x0, dx, den, table = self._walk
        if key not in table:
            x = Fraction((x0 << key[1]) + key[0] * dx, den << key[1])
            table[key] = x, self.y_at(x)
        return table[key]

    def _crossing(self, edge: int) -> Tuple[Fraction, Fraction]:
        """(x, y) where y = edge: x = (d0 edge - n0)/(n1 - d1 edge)."""
        return Fraction(self.d0 * edge - self.n0, self.n1 - self.d1 * edge), Fraction(edge)

    def _dyadic_nodes(self, pitch: Fraction, band: int) -> List[Tuple[Fraction, Fraction]]:
        """A line's (d1 = 0) walk nodes t = i/2^k for the least k with step
        size/2^k <= pitch, the size its width plus |rise| (the one node t = 0
        of a point), where y lies in [-band, band], and around them the band
        edges that y crosses at a t in (0, 1) off the nodes, in t order.

        2^k is a power of two, so node sets nest as the pitch shrinks across
        levels. Only the in-band index range is read, so the work follows the
        band, not the height of the piece."""
        x0, dx, den, _ = self._walk
        y0, dy, yd = self.n1 * x0 + self.n0 * den, self.n1 * dx, self.d0 * den  # y = (y0 + t dy)/yd
        cells = -(-(dx * self.d0 + abs(dy)) * pitch.denominator // (yd * pitch.numerator))
        m = 1 << (cells - 1).bit_length() if cells else 0  # 2^k, or 0 for a point
        k = m.bit_length() - 1
        if dy == 0:
            return [self._node(i, k) for i in range(m + 1)] if abs(y0) <= band * yd else []
        sign = 1 if dy > 0 else -1
        lo, hi, q = -band * yd - sign * y0, band * yd - sign * y0, abs(dy)  # lo/q <= t <= hi/q
        nodes = [self._node(i, k) for i in range(max(0, -(-lo * m // q)), min(m, hi * m // q) + 1)]
        return ([self._crossing(-sign * band)] if 0 < lo < q and lo * m % q else []) + nodes + (
            [self._crossing(sign * band)] if 0 < hi < q and hi * m % q else [])

    def cut(self, lo: Optional[Fraction], hi: Optional[Fraction],
            within: Optional[Span] = None) -> Optional[Span]:
        """The span of the x of ``dom`` (met with ``within``) where
        lo <= y <= hi (None: no bound on that side; an int bound reads as a
        Fraction), or None.

        y is monotone on the span and its denominator positive, so y >= theta
        (theta = tn/td) exactly where a x >= b, a = n1 td - tn d1 and
        b = tn d0 - n0 td: one side of r = b/a, or all of the span or nothing
        where a = 0. Ends meet as ``inner`` meets them."""
        x0, x1 = self.dom
        if within is not None:
            x0, x1 = inner(x0, within[0], 1), inner(x1, within[1], -1)
        for theta, sign in ((lo, 1), (hi, -1)):
            if theta is None:
                continue
            tn, td = theta.numerator, theta.denominator
            # y >= theta (y <= theta for the cap) exactly where sign (a x - b) >= 0.
            a, b = self.n1 * td - tn * self.d1, tn * self.d0 - self.n0 * td
            if a == 0:
                if sign * b > 0:
                    return None
                continue
            r = end_at(b, a)
            x0, x1 = (inner(x0, r, 1), x1) if (a > 0) == (sign > 0) else (x0, inner(x1, r, -1))
        return span_between(x0, x1)

    def distance(self, px: Fraction, py: Fraction) -> float:
        """Float distance from (px, py), by degree. A segment (d1 = 0; a point
        is one over a one-point domain) takes the float root of its exact
        squared distance in integers over one common denominator: the foot
        of p is at t = w.e/e.e in [0, 1] (w = p - a, e = b - a), or an end.
        An arc takes ``_arc_distance``, after an exact test that reads 0.0 on it."""
        if self.d1 != 0:
            if self.dom.holds(px.numerator, px.denominator) and self.y_at(px) == py:
                return 0.0
            pole, coef = Fraction(-self.d0, self.d1), Fraction(self.n0, self.d1)
            row = np.array([float(px - pole), float(py), float(coef),
                            float(self.dom.lo - pole), float(self.dom.hi - pole)])
            return float(_arc_distance(*row[:, None])[0])
        (an, ad, _), (bn, bd, _) = self.dom
        m = math.lcm(px.denominator, py.denominator, ad, bd)
        qx, qy = (v.numerator * (m // v.denominator) for v in (px, py))
        xa, xb = an * (m // ad), bn * (m // bd)
        # Over the common denominator m d0: w = p - a and e = b - a.
        wx, wy = (qx - xa) * self.d0, qy * self.d0 - self.n1 * xa - self.n0 * m
        ex, ey = (xb - xa) * self.d0, (xb - xa) * self.n1
        dot, norm = wx * ex + wy * ey, ex * ex + ey * ey
        if dot >= norm:
            wx, wy = wx - ex, wy - ey
        sq, den = wx * wx + wy * wy, (m * self.d0) ** 2
        return _root(sq * norm - dot * dot, norm * den) if 0 < dot < norm else _root(sq, den)

    def net_samples(self, n: int, s: Fraction) -> List[NetSample]:
        """The Lemma 3.1 samples in the band |y| <= n, with the graph, by
        degree, s the curve spacing, each node off the walk's table, which
        lasts across levels. A segment (d1 = 0; a point is one over a
        one-point domain) takes ``_dyadic_nodes``, band crossings included.

        An arc takes the in-band nodes of the dyadic bisection of its domain
        from its near end down to cells whose width plus clamped y-rise is at
        most s (or to depth ``limit``), without the cells beyond the band,
        plus the band crossing. In the band the slope is at most n^2/|coef|,
        so the limit, at least 64, is two halvings past the width
        s |coef|/n^2 and stops no cell. At node t of 0..2^limit,
        |y| = big/(base + b t) in integers falls with t, so a node is in the
        band from t_in on, and a cell's clamped rise grows up to the crossing
        and falls past it. So the cells that split at one depth are one
        window, from the first cell not beyond the band (or the next) to an
        end found by bisection, each test cross-multiplied."""
        if self.d1 == 0:
            return [(x, y, self) for x, y in self._dyadic_nodes(s, n)]
        x0, dx, den, _ = self._walk
        sn, sd, b = s.numerator, s.denominator, self.d1 * dx
        limit = max(64, (-(-b * n * n * sd // (den * sn * abs(self.n0)))).bit_length() + 2)
        top, base, big = 1 << limit, self.d1 * x0 + self.d0 * den << limit, abs(self.n0) * den << limit
        cp, cq = big - n * base, n * b  # |y| = n at t = cp/cq
        t_in = max(0, -(-cp // cq))

        def splits(t: int) -> bool:
            """Whether width + clamped rise > s on the cell [t, t + step]."""
            y2 = base + b * (t + step)
            return ((n * y2 - big) * f > e * y2 if t < t_in
                    else big * b * step * f > e * (base + b * t) * y2)

        emitted = set()
        lo = hi = 0
        for k in range(limit + 1):
            step, f, e = top >> k, den * sd << k, (sn * den << k) - abs(dx) * sd
            p = max(lo, -(-t_in // step) - 1)  # the first cell not beyond
            if p > hi:
                break
            emitted.update(t for t in range(p * step, (hi + 1) * step + 1, step) if t >= t_in)
            if k == limit:
                break  # the depth limit: every cell stops
            a, c = p + 1, hi + 1
            while a < c:  # the rise falls past cell p: cells p + 1 .. a - 1 split
                mid = (a + c) // 2
                if splits(mid * step):
                    a = mid + 1
                else:
                    c = mid
            first = p if splits(p * step) else p + 1
            if first >= a:
                break
            lo, hi = 2 * first, 2 * a - 1
        inside = 0 <= cp <= top * cq  # the band crossing, a node when cq divides cp
        if inside and cp % cq == 0:
            emitted.add(cp // cq)
        nodes = [self._crossing(n if self.n0 > 0 else -n)] if inside and cp % cq else []
        nodes += [self._node(t, limit) for t in sorted(emitted)]
        return [(x, y, self) for x, y in (nodes[::-1] if self.d1 < 0 else nodes)]

    def piece(self, span: Span) -> Piece:
        """The graph over a sub-span of ``dom`` as a piece: a point when the
        span is degenerate, else a segment (d1 = 0) or an arc (n1 = 0)."""
        lo, hi = span.lo, span.hi
        if self.d1 != 0 and lo < hi:
            return Hyper(Fraction(-self.d0, self.d1), lo, hi, Fraction(self.n0, self.d1))
        ends = tuple((x, self.y_at(x)) for x in (lo, hi))
        return PLine(ends) if lo < hi else Point(*ends[0])


def _graph(dom: Span, n1: Fraction, n0: Fraction, d1: Fraction = ZERO,
           d0: Fraction = ONE) -> RationalGraph:
    """The graph of (n1 x + n0)/(d1 x + d0), a line by default, where
    d1 x + d0 > 0 on ``dom``: its coefficients over their least common
    denominator."""
    scale = math.lcm(n1.denominator, n0.denominator, d1.denominator, d0.denominator)
    return RationalGraph(dom, *(c.numerator * (scale // c.denominator) for c in (n1, n0, d1, d0)))


def band_cut(band: Tuple[RationalGraph, RationalGraph], lo: Optional[Fraction],
             hi: Optional[Fraction], within: Optional[Span] = None) -> Optional[Span]:
    """``RationalGraph.cut`` of the band (lower, upper). A two-graph band is a
    box's, flat edges on one domain: it meets the range where lower <= hi,
    upper >= lo and lo <= hi."""
    lower, upper = band
    if lower is upper:
        return lower.cut(lo, hi, within)
    met = (lo is None or hi is None or lo <= hi) and lower.cut(None, hi) and upper.cut(lo, None)
    return lower.cut(None, None, within) if met else None


# A net sample: (x, y, graph). The sample slides along its graph to a nearby
# x2 in the graph's domain; a point's one-point graph holds no other x.
NetSample = Tuple[Fraction, Fraction, RationalGraph]


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


# Probes per side of a box's tile and per run of a curve's probes. Blocks of
# probes: their boxes' lower and upper corners, one row a block, and a
# function from a block's row to its probes.
_TILE, _RUN = 16, 32
ProbeBlocks = Tuple[np.ndarray, np.ndarray, Callable[[int], np.ndarray]]


def _grid(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every point (x, y) of the two axes, x-major."""
    grid = np.empty((len(xs), len(ys), 2))
    grid[:, :, 0], grid[:, :, 1] = xs[:, None], ys
    return grid.reshape(-1, 2)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class _Piece:
    """Defaults of the piece kinds: no excluded pole, each graph its own
    band (a box's band spans its edges; ``band_cut`` reads either), and
    its fields as the parameters of its target-file line."""

    # Only an arc can leave an endpoint out of its domain.
    excluded_pole: Optional[Fraction] = None

    def __str__(self) -> str:
        """The piece as a line of a target file: its kind, then its exact
        parameters."""
        values = (getattr(self, field.name) for field in fields(self))
        return " ".join([type(self).__name__.lower(), *map(format_rational, values)])

    def domain(self) -> Span:
        """The x-range: from the first graph's domain to the last's."""
        return span_between(self.graphs()[0].dom[0], self.graphs()[-1].dom[1])

    def graphs(self) -> List[RationalGraph]:
        """The piece's single-valued rational graphs, built once and shared."""
        return self._graphs

    def bands(self) -> List[Tuple[RationalGraph, RationalGraph]]:
        """(lower, upper) graphs whose closed y-range above x is the slice."""
        return [(g, g) for g in self.graphs()]

    def distance(self, px: Fraction, py: Fraction) -> float:
        """The least distance from (px, py) to the piece's graphs."""
        return min(g.distance(px, py) for g in self.graphs())

    def net_samples(self, n: int, grid_pitch: Fraction,
                    curve_spacing: Fraction) -> List[NetSample]:
        """The Lemma 3.1 samples of level n on each graph."""
        return [sample for g in self.graphs() for sample in g.net_samples(n, curve_spacing)]

    def clipped(self, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> List[Piece]:
        """The piece cut to the band ylo <= y <= yhi: each graph over its
        cut."""
        return [g.piece(s) for g in self.graphs() if (s := g.cut(ylo, yhi)) is not None]

    def probe_blocks(self, pitch: float) -> ProbeBlocks:
        """The float probes in runs of ``_RUN``: each run's bounding box and
        its probes. Consecutive probes of a curve are neighbours on it, so a
        run's box is small."""
        with float_range(self):
            probes = self.probes(pitch)
        starts = np.arange(0, len(probes), _RUN)
        return (np.minimum.reduceat(probes, starts), np.maximum.reduceat(probes, starts),
                lambda k: probes[k * _RUN:(k + 1) * _RUN])


@dataclass(frozen=True)
class Point(_Piece):
    """A single point (x, y) with x in [0, 1]."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "y", rat(self.y))
        if not ZERO <= self.x <= ONE:
            raise ValueError(f"point x={self.x} outside [0, 1]")

    @cached_property
    def _graphs(self) -> List[RationalGraph]:
        return [_graph(Span(self.x, self.x), ZERO, self.y)]

    def probes(self, pitch: float) -> np.ndarray:
        return np.array([(float(self.x), float(self.y))])


@dataclass(frozen=True)
class Box(_Piece):
    """Closed rectangle [x0, x1] x [y0, y1]; degenerate edges allowed."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self) -> None:
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if not (ZERO <= self.x0 <= self.x1 <= ONE):
            raise ValueError(f"box x-range [{self.x0}, {self.x1}] invalid")
        if self.y0 > self.y1:
            raise ValueError(f"box y-range [{self.y0}, {self.y1}] invalid")

    def clipped(self, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> List[Piece]:
        ny0 = self.y0 if ylo is None else max(self.y0, ylo)
        ny1 = self.y1 if yhi is None else min(self.y1, yhi)
        if ny0 <= ny1:
            return [Box(self.x0, self.x1, ny0, ny1)]
        return []

    def distance(self, px: Fraction, py: Fraction) -> float:
        dx = self.x0 - px if px < self.x0 else px - self.x1 if px > self.x1 else ZERO
        dy = self.y0 - py if py < self.y0 else py - self.y1 if py > self.y1 else ZERO
        return math.sqrt(float(dx * dx + dy * dy))

    @cached_property
    def _graphs(self) -> List[RationalGraph]:
        """The bottom and top edges; a flat box has one."""
        return [_graph(Span(self.x0, self.x1), ZERO, y) for y in dict.fromkeys((self.y0, self.y1))]

    def bands(self) -> List[Tuple[RationalGraph, RationalGraph]]:
        edges = self.graphs()
        return [(edges[0], edges[-1])]

    def probe_blocks(self, pitch: float) -> ProbeBlocks:
        """The probe grid (nx + 1 by ny + 1 points spanning the box, at most
        the pitch apart) in square tiles of ``_TILE`` by ``_TILE``. Its axes
        are monotone, so a tile's box is the ends of its axis slices, and its
        probes are built from those slices only when asked for."""
        with float_range(self):
            x0, x1, y0, y1 = float(self.x0), float(self.x1), float(self.y0), float(self.y1)
        nx = max(1, math.ceil((x1 - x0) / pitch))
        ny = max(1, math.ceil((y1 - y0) / pitch))
        xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
        ys = y0 + (y1 - y0) * np.arange(ny + 1) / ny
        ends = [a[np.minimum(np.arange(_TILE, len(a) + _TILE, _TILE), len(a)) - 1]
                for a in (xs, ys)]
        m = len(ends[1])  # tiles k = i m + j: x slice i, y slice j
        return (_grid(xs[::_TILE], ys[::_TILE]), _grid(*ends),
                lambda k: _grid(xs[k // m * _TILE:][:_TILE], ys[k % m * _TILE:][:_TILE]))

    @cached_property
    def _rows(self) -> Tuple[RationalGraph, Dict[Fraction, RationalGraph]]:
        """The line y = x over [y0, y1], whose nodes at twice a pitch (its size
        is twice the height) are the rows, and each row's flat graph, built once."""
        return _graph(Span(self.y0, self.y1), ONE, ZERO), {}

    def net_samples(self, n: int, grid_pitch: Fraction,
                    curve_spacing: Fraction) -> List[NetSample]:
        """The bottom edge's nodes (in the band |y| <= ceil|y0|) by the rows in
        the band |y| <= n. Exact band-edge rows keep the clipped region covered
        even though the dyadic grid is anchored on the full box."""
        bottom, (rise, rows) = self.graphs()[0], self._rows
        xs = [x for x, _ in bottom._dyadic_nodes(grid_pitch, math.ceil(abs(self.y0)))]
        out: List[NetSample] = []
        for _, y in rise._dyadic_nodes(2 * grid_pitch, n):
            row = rows.get(y) or rows.setdefault(y, _graph(bottom.dom, ZERO, y))
            out.extend((x, y, row) for x in xs)
        return out


@dataclass(frozen=True)
class PLine(_Piece):
    """Graph of the piecewise-linear interpolant through the vertices.

    Vertex x coordinates must be strictly increasing; at least two vertices.
    """

    vertices: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        verts = tuple((rat(x), rat(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("polyline needs at least two vertices")
        for (xa, _), (xb, _) in zip(verts, verts[1:]):
            if xa >= xb:
                raise ValueError("polyline x coordinates must strictly increase")
        if verts[0][0] < ZERO or verts[-1][0] > ONE:
            raise ValueError("polyline x-range outside [0, 1]")

    def __str__(self) -> str:
        return " ".join(["pline", *(f"{format_rational(x)}:{format_rational(y)}"
                                    for x, y in self.vertices)])

    def segments(self) -> Iterable[Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]]:
        return zip(self.vertices, self.vertices[1:])

    @cached_property
    def _graphs(self) -> List[RationalGraph]:
        out = []
        for (xa, ya), (xb, yb) in self.segments():
            m = (yb - ya) / (xb - xa)
            out.append(_graph(Span(xa, xb), m, ya - m * xa))
        return out

    def probes(self, pitch: float) -> np.ndarray:
        out = []
        for (xa, ya), (xb, yb) in self.segments():
            ax, ay, bx, by = float(xa), float(ya), float(xb), float(yb)
            steps = max(1, math.ceil(math.hypot(bx - ax, by - ay) / pitch))
            t = np.arange(steps + 1) / steps
            out.append(np.column_stack((ax + t * (bx - ax), ay + t * (by - ay))))
        return np.concatenate(out)


@dataclass(frozen=True)
class Hyper(_Piece):
    """Arc of y = coef/(x - pole) over [x0, x1].

    When the pole coincides with an endpoint, that endpoint is excluded from
    the domain and |y| diverges there; otherwise the pole must lie strictly
    outside (x0, x1) and the domain is the full closed interval.
    """

    pole: Fraction
    x0: Fraction
    x1: Fraction
    coef: Fraction

    def __post_init__(self) -> None:
        for name in ("pole", "x0", "x1", "coef"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if not (ZERO <= self.x0 < self.x1 <= ONE):
            raise ValueError(f"arc x-range [{self.x0}, {self.x1}] invalid")
        if self.coef == 0:
            raise ValueError("arc coefficient must be nonzero")
        if self.x0 < self.pole < self.x1:
            raise ValueError(f"pole {self.pole} strictly inside ({self.x0}, {self.x1})")

    @property
    def excluded_pole(self) -> Optional[Fraction]:
        return self.pole if self.pole in (self.x0, self.x1) else None

    @property
    def side(self) -> int:
        """Constant sign of x - pole on the domain: +1 when the arc lies
        right of its pole, -1 when it lies left."""
        return 1 if self.pole <= self.x0 else -1

    def y_at(self, x: Fraction) -> Fraction:
        return self.graphs()[0].y_at(x)

    def divergence_sign(self) -> int:
        """Sign of y as x approaches an excluded pole endpoint; 0 if none.

        Near the pole y has the sign of coef * (x - pole), that is of
        coef times ``side``.
        """
        if self.excluded_pole is None:
            return 0
        return self.side if self.coef > 0 else -self.side

    @cached_property
    def _graphs(self) -> List[RationalGraph]:
        s = self.side  # the sign of x - pole; the span is open at a pole end
        dom = Span(self.x0, self.x1, self.pole == self.x0, self.pole == self.x1)
        return [_graph(dom, ZERO, s * self.coef, s * ONE, -s * self.pole)]

    def probes(self, pitch: float) -> np.ndarray:
        p, c = float(self.pole), float(self.coef)
        x0, x1 = float(self.x0), float(self.x1)
        tiny = max(1e-12, 1e-9 * (x1 - x0))
        if self.pole == self.x0:
            x0 += tiny
        elif self.pole == self.x1:
            x1 -= tiny
        # Only an end in the domain can round onto the pole: its y is exact.
        out: List[Tuple[float, float]] = []
        x = x0
        while x < x1:
            out.append((x, c / (x - p) if x != p else float(self.y_at(self.x0))))
            square = (x - p) ** 2  # 0.0 where it underflows: an infinite slope
            x += max(pitch / (1.0 + abs(c) / square), tiny) if square else tiny
        out.append((x1, c / (x1 - p) if x1 != p else float(self.y_at(self.x1))))
        return np.array(out)


Piece = Union[Point, Box, PLine, Hyper]


# ---------------------------------------------------------------------------
# Target sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSet:
    """Finite union of pieces; closed in [0,1] x R by construction."""

    pieces: Tuple[Piece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @cached_property
    def excluded_poles(self) -> Tuple[Tuple[Fraction, int], ...]:
        """(x, sign) per arc with an excluded pole endpoint x, in piece
        order: the arc's y diverges toward sign * infinity as it nears x."""
        return tuple((p.excluded_pole, p.divergence_sign())
                     for p in self.pieces if p.excluded_pole is not None)

    @cached_property
    def _pole_signs(self) -> Dict[Fraction, FrozenSet[int]]:
        poles = self.excluded_poles
        return {x: frozenset(sign for pole, sign in poles if pole == x) for x, _ in poles}

    # -- slicing -------------------------------------------------------

    @cached_property
    def _index(self) -> Tuple[List[Fraction], List[list]]:
        """The exact x-sorted index: the distinct ends of every graph span,
        and the bands alive in each slot, slot 2k + 1 at end k and slot 2k on
        the open cell before it (slots 0 and 2 len(ends) lie outside every
        piece)."""
        bands = [band for piece in self.pieces for band in piece.bands()]
        ends = sorted({e for g, _ in bands for e in (g.dom.lo, g.dom.hi)})
        alive: List[list] = [[] for _ in range(2 * len(ends) + 1)]
        for band in bands:
            dom = band[0].dom
            # An open pole end is the one end a band can miss.
            for slot in range(2 * bisect_left(ends, dom.lo) + 1, 2 * bisect_left(ends, dom.hi) + 2):
                if slot % 2 == 0 or dom.contains(ends[slot // 2]):
                    alive[slot].append(band)
        return ends, alive

    @cached_property
    def _reach(self) -> List[Tuple[float, float, float, float]]:
        """Each piece's x- and y-range as floats, for its gap."""
        return [_float_reach(piece) for piece in self.pieces]

    def live_bands(self, x: RatLike) -> List[Tuple[RationalGraph, RationalGraph]]:
        """The (lower, upper) graphs of each band alive at x."""
        x = rat(x)
        if not ZERO <= x <= ONE:
            raise ValueError(f"slice x={x} outside [0, 1]")
        ends, alive = self._index
        i = bisect_left(ends, x)
        return alive[2 * i + (i < len(ends) and ends[i] == x)]

    def bands_at(self, x: RatLike) -> List[Tuple[Fraction, Fraction]]:
        """The closed y-range (lo, hi) of each band alive at x, unsorted and
        unmerged: their union is the slice at x."""
        x = rat(x)
        return [(y := lo.y_at(x), y if hi is lo else hi.y_at(x)) for lo, hi in self.live_bands(x)]

    def pole_signs(self, x: RatLike) -> FrozenSet[int]:
        """The divergence sign of each arc whose excluded pole end is x: the
        infinities in the slice of the closure in [0,1] x extended reals.

        The finite part of that slice is the plain slice, because the union
        of pieces is already closed in [0,1] x R; a finite piece list can
        only accumulate at infinity at an excluded pole.
        """
        return self._pole_signs.get(rat(x), frozenset())

    def x_projection(self) -> XSet:
        """Exact projection onto the x axis."""
        return XSet(p.domain() for p in self.pieces)

    def shadow(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> XSet:
        """Exact x-projection of the band lo <= y <= hi (None: unbounded side)."""
        return XSet(s for piece in self.pieces for band in piece.bands()
                    if (s := band_cut(band, lo, hi)) is not None)

    # -- clipping --------------------------------------------------------

    def clipped(self, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> "TargetSet":
        """Intersection with the horizontal band ylo <= y <= yhi (exact).

        None on either side leaves that side unbounded. The result is again
        a TargetSet over the same piece vocabulary.
        """
        return TargetSet(tuple(p for piece in self.pieces for p in piece.clipped(ylo, yhi)))

    # -- distance ----------------------------------------------------------

    def distance_to(self, p: Tuple[RatLike, RatLike]) -> float:
        """Euclidean distance from p to the nearest point of the union.

        Members of the union always read 0.0, and so can a few non-members:
        a rational point within float rounding of an arc, or one off a box,
        segment or point whose float squared distance underflows. A piece
        takes the least distance of its graphs by degree: a box, segment or
        point the float root of its exact squared distance, an arc the least
        of its finite ends and the float stationary points of the squared
        distance (see ``RationalGraph.distance``).

        Pieces are visited by their gap, the larger of the x-gap to their
        x-range and the y-gap to their y-range, a lower bound on their
        distance, until a gap exceeds the best distance by 1e-9, relative
        and absolute: far above the rounding of the float gaps and piece
        distances, so no skipped piece could have lowered the float minimum.
        """
        px, py = rat(p[0]), rat(p[1])
        fx, fy, best = float(px), float(py), math.inf
        gaps = sorted((max(x0 - fx, 0.0, fx - x1, y0 - fy, fy - y1), k)
                      for k, (x0, x1, y0, y1) in enumerate(self._reach))
        for gap, k in gaps:
            if gap > best + 1e-9 * (1.0 + best):
                break
            with float_range(self.pieces[k]):
                best = min(best, self.pieces[k].distance(px, py))
            if best == 0.0:
                return 0.0
        return best

    @cached_property
    def _float_pieces(self) -> Tuple[np.ndarray, ...]:
        """For ``distance_bounds``: each piece's float reach and size (its
        largest finite coordinate, an arc's pole and coef too), the pieces
        with a box band (read off the reach), and rows (piece, floats) of the
        graph bands: segments (xa, ya, xb, yb) where d1 = 0, arcs
        (pole, coef, u_lo, u_hi) elsewhere."""
        reach = np.array(self._reach, dtype=float).reshape(-1, 4)
        size = np.where(np.isfinite(reach), np.abs(reach), 0.0).max(axis=1, initial=0.0)
        boxes, segments, arcs = [], [], []
        for k, piece in enumerate(self.pieces):
            with float_range(piece):
                for g, upper in piece.bands():
                    lo, hi = g.dom.lo, g.dom.hi
                    if g is not upper:
                        boxes.append(k)
                    elif g.d1 == 0:
                        segments.append((k, *map(float, (lo, g.y_at(lo), hi, g.y_at(hi)))))
                    else:
                        pole, coef = Fraction(-g.d0, g.d1), Fraction(g.n0, g.d1)
                        arcs.append((k, *map(float, (pole, coef, lo - pole, hi - pole))))
                        size[k] = max(size[k], abs(float(pole)), abs(float(coef)))
        return (reach, size, np.array(boxes, dtype=int), np.array(segments).reshape(-1, 5),
                np.array(arcs).reshape(-1, 5))

    def distance_bounds(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Float arrays (lo, hi) with lo <= distance_to(p) <= hi for each row
        p = (x, y) of ``points``: a piece's float distance d (a closed form,
        or ``_arc_distance``) widened by 1e-9 (1 + d + |y| + its size), the
        allowance 1e-9 (1 + d) of distance_to plus room to round large
        coordinates. Where an arc's c c underflows, ``_arc_distance`` reads it
        off its asymptote rays, which it lies within sqrt|c| < 1e-77 of, far
        inside the allowance. A gap bounds a piece from below: an arc's
        quartic runs only where its gap is below the hi from the closed forms
        and each arc's point at x (or its end on that side), and y c and c c
        are finite; elsewhere the gap counts."""
        reach, size, boxes, segments, arcs = self._float_pieces
        x, y = points[:, :1], points[:, 1:]
        slack = 1e-9 * (1.0 + np.abs(y) + size)
        with np.errstate(all="ignore"):
            dx = np.maximum(np.maximum(reach[:, 0] - x, 0.0), x - reach[:, 1])
            dy = np.maximum(np.maximum(reach[:, 2] - y, 0.0), y - reach[:, 3])
            gap, dist = np.maximum(dx, dy), np.full(dx.shape, np.nan)
            dist[:, boxes] = np.hypot(dx[:, boxes], dy[:, boxes])
            k, xa, ya, xb, yb = segments.T
            ex, ey = xb - xa, yb - ya
            # A one-point segment takes t = 0 rather than 0/0.
            norm = ex * ex + ey * ey
            t = np.clip(((x - xa) * ex + (y - ya) * ey) / np.where(norm > 0, norm, np.inf),
                        0.0, 1.0)
            starts = np.flatnonzero(np.diff(k, prepend=-1))
            dist[:, k[starts].astype(int)] = np.minimum.reduceat(
                np.hypot(x - xa - t * ex, y - ya - t * ey), starts, axis=1)
            k, pole, coef, u_lo, u_hi = arcs.T
            k, a = k.astype(int), x - pole
            upper, u = dist.copy(), np.clip(a, u_lo, u_hi)
            upper[:, k] = np.hypot(a - u, y - coef / u)
            hi = np.fmin.reduce(upper * (1 + 1e-9) + slack, axis=1, initial=np.inf)
            rows, cols = np.nonzero((gap[:, k] < hi[:, None]) & np.isfinite(y * coef)
                                    & np.isfinite(coef * coef))
            dist[rows, k[cols]] = _arc_distance(a[rows, cols], y[rows, 0], coef[cols],
                                                u_lo[cols], u_hi[cols])
            hi = np.fmin.reduce(np.fmin(upper, dist) * (1 + 1e-9) + slack, axis=1, initial=np.inf)
            low = np.where(np.isnan(dist), gap, dist) * (1 - 1e-9) - slack
        return np.maximum(np.fmin.reduce(low, axis=1, initial=np.inf), 0.0), hi


# ---------------------------------------------------------------------------
# Distance helpers
# ---------------------------------------------------------------------------


@contextmanager
def float_range(piece: Piece) -> Iterator[None]:
    """Name the piece in an OverflowError raised while its data becomes
    floats: the one-line error says which piece left float range."""
    try:
        yield
    except OverflowError:
        raise OverflowError(f"piece '{piece}' leaves float range") from None


# The least magnitude that float() rounds past the largest float, to infinity.
_FLOAT_END = Fraction(2 ** 1024 - 2 ** 970)


def quotient_float(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded, or a signed infinity past float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _root(num: int, den: int) -> float:
    """``math.sqrt`` of num/den (num >= 0 < den), the quotient correctly
    rounded. A quotient beyond 2^1000 is scaled by 4^-k and its root back by
    2^k, both exact: the same float, finite wherever it is in float range."""
    k = max(0, num.bit_length() - den.bit_length() - 1000) // 2
    return math.sqrt(num / (den << 2 * k)) * 2.0 ** k


def value_floats(points: Sequence[Tuple[Fraction, Fraction]]) -> List[float]:
    """f(x) as a float for each (x, f(x)) of ``points``; a value beyond float
    range raises an OverflowError that names its x."""
    try:
        return [float(y) for _, y in points]
    except OverflowError:
        x = next(x for x, y in points if abs(y) >= _FLOAT_END)
        raise OverflowError(f"f(x) leaves float range at x={format_rational(x)}") from None


def _float_reach(piece: Piece) -> Tuple[float, float, float, float]:
    """The piece's x- and y-range as floats: its graphs are monotone, and an
    open pole end makes one side infinite."""
    dom = piece.domain()
    with float_range(piece):
        ys = [float(g.y_at(e)) for g in piece.graphs()
              for e in (g.dom.lo, g.dom.hi) if g.dom.contains(e)]
    y0, y1 = min(ys), max(ys)
    if piece.excluded_pole is not None:
        y0, y1 = (y0, math.inf) if piece.divergence_sign() > 0 else (-math.inf, y1)
    return float(dom.lo), float(dom.hi), y0, y1


def _arc_distance(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
    """Float distance from each (a, b) to its arc y = c/u, u_lo <= u <= u_hi,
    in u = x - pole: the least over the finite ends, the arc's points at the
    probe's x and y (u = a and u = c/b, clamped) and the stationary points
    of (u - a)^2 + (b - c/u)^2, the roots of u^4 - a u^3 + b c u - c^2, each
    an eigenvalue of the ``np.roots`` companion matrix, polished by 3 Newton
    steps and clamped to the u-range. Where c c or b c leaves float range
    the quartic is lost (dropped on overflow), but the arc then hugs its
    asymptote rays, whose nearest points are the points at x and y. Every
    candidate lies on the arc, so spurious ones cannot lower the minimum;
    u = 0, an excluded pole end, is left out. Squares take libm's pow, as
    Python's ``**`` does (it can round off x * x); where every square of a
    row overflows, the least ``hypot`` stands in. A row's value does not
    depend on the other rows."""
    with np.errstate(all="ignore"):
        bc, cc = b * c, c * c
    bc, cc = (np.where(np.isfinite(bc) & np.isfinite(cc), v, 0.0) for v in (bc, cc))
    comp = np.zeros((a.shape[0], 4, 4))
    comp[:, 0] = np.column_stack([a, np.full_like(a, -0.0), -bc, cc])
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(comp).real
    a, b, c, bc, cc, lo, hi = (v[:, None] for v in (a, b, c, bc, cc, u_lo, u_hi))
    with np.errstate(all="ignore"):
        u = np.minimum(np.maximum(roots, lo), hi)
        for _ in range(3):  # a zero slope stops a root: it stays put, and so does its slope
            slope = ((4.0 * u - 3.0 * a) * u) * u + bc
            step = np.minimum(np.maximum(u - ((((u - a) * u) * u + bc) * u - cc) / slope, lo), hi)
            u = np.where(slope == 0.0, u, step)
        u = np.concatenate([lo, hi, np.clip(np.concatenate([a, c / b], axis=1), lo, hi), u], axis=1)
        dx, dy = a - u, b - c / u
        sq, far = np.fmin.reduce(np.where(u == 0.0, np.inf, [
            np.float_power(dx, 2) + np.float_power(dy, 2), np.hypot(dx, dy)]), axis=2)
    return np.where(np.isinf(sq), far, np.sqrt(sq))

"""Closed subsets of [0,1] x R as finite unions of primitive pieces.

Pieces are exact-rational objects: isolated points, axis-aligned boxes,
piecewise-linear graphs, and hyperbola arcs y = c/(x - p). Every piece is a
closed subset of [0,1] x R (a hyperbola arc is closed because |y| diverges
at an excluded pole endpoint), so any finite union of pieces is closed.

Slicing, projection and band clipping are exact; only the point-to-arc
distance uses floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .intervals import ONE, ZERO, RatLike, SliceSet, Span, XSet, rat

ARC_DISTANCE_TOL = 1e-12


class EmptySliceError(Exception):
    """Raised when an operation needs a nonempty slice and gets none."""


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A single point (x, y) with x in [0, 1]."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "y", rat(self.y))
        if not ZERO <= self.x <= ONE:
            raise ValueError(f"point x={self.x} outside [0, 1]")

    def domain(self) -> Span:
        return Span(self.x, self.x)


@dataclass(frozen=True)
class Box:
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

    def domain(self) -> Span:
        return Span(self.x0, self.x1)


@dataclass(frozen=True)
class PLine:
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

    def domain(self) -> Span:
        return Span(self.vertices[0][0], self.vertices[-1][0])

    def segments(self) -> Iterable[Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]]:
        return zip(self.vertices, self.vertices[1:])

    def y_at(self, x: Fraction) -> Fraction:
        for (xa, ya), (xb, yb) in self.segments():
            if xa <= x <= xb:
                return ya + (yb - ya) * (x - xa) / (xb - xa)
        raise ValueError(f"x={x} outside polyline domain")


@dataclass(frozen=True)
class Hyper:
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
        if self.pole == self.x0 or self.pole == self.x1:
            return self.pole
        return None

    def domain(self) -> Span:
        if self.pole == self.x0:
            return Span(self.x0, self.x1, lo_open=True)
        if self.pole == self.x1:
            return Span(self.x0, self.x1, hi_open=True)
        return Span(self.x0, self.x1)

    def y_at(self, x: Fraction) -> Fraction:
        if x == self.pole:
            raise ZeroDivisionError("arc evaluated at its pole")
        return self.coef / (x - self.pole)

    def divergence_sign(self) -> int:
        """Sign of y as x approaches an excluded pole endpoint; 0 if none.

        Approaching pole == x0 from the right gives x - pole -> 0+, so the
        sign is sign(coef); approaching pole == x1 from the left flips it.
        """
        if self.pole == self.x0:
            return 1 if self.coef > 0 else -1
        if self.pole == self.x1:
            return -1 if self.coef > 0 else 1
        return 0

    def closed_y_range(self) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """(lo, hi) of the y image; None marks an infinite side."""
        ys = []
        if self.x0 != self.pole:
            ys.append(self.y_at(self.x0))
        if self.x1 != self.pole:
            ys.append(self.y_at(self.x1))
        if self.excluded_pole is None:
            return min(ys), max(ys)
        if self.divergence_sign() > 0:
            return min(ys), None
        return None, max(ys)


Piece = Union[Point, Box, PLine, Hyper]


# ---------------------------------------------------------------------------
# Target sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedSlice:
    """Slice of the closure taken in [0,1] x (R with +-infinity attached)."""

    finite: SliceSet
    plus_inf: bool = False
    minus_inf: bool = False

    def count_exceeds_one(self) -> bool:
        """More than one element, counting each infinity as an element."""
        if self.finite.is_multivalued():
            return True
        n = (0 if self.finite.is_empty else 1) + int(self.plus_inf) + int(self.minus_inf)
        return n > 1


@dataclass(frozen=True)
class TargetSet:
    """Finite union of pieces; closed in [0,1] x R by construction."""

    pieces: Tuple[Piece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def is_bounded(self) -> bool:
        """Bounded iff no arc has an excluded pole endpoint."""
        return all(
            not isinstance(p, Hyper) or p.excluded_pole is None for p in self.pieces
        )

    # -- slicing -------------------------------------------------------

    def slice_at(self, x: RatLike) -> SliceSet:
        """Exact vertical slice: the set of y with (x, y) in the union."""
        x = rat(x)
        if not ZERO <= x <= ONE:
            raise ValueError(f"slice x={x} outside [0, 1]")
        intervals: List[Tuple[Fraction, Fraction]] = []
        for piece in self.pieces:
            if isinstance(piece, Point):
                if piece.x == x:
                    intervals.append((piece.y, piece.y))
            elif isinstance(piece, Box):
                if piece.x0 <= x <= piece.x1:
                    intervals.append((piece.y0, piece.y1))
            elif isinstance(piece, PLine):
                if piece.domain().contains(x):
                    y = piece.y_at(x)
                    intervals.append((y, y))
            else:
                if piece.domain().contains(x):
                    y = piece.y_at(x)
                    intervals.append((y, y))
        return SliceSet(intervals)

    def extended_slice_at(self, x: RatLike) -> ExtendedSlice:
        """Slice of the closure in [0,1] x extended reals.

        The finite part equals the plain slice because the union of pieces
        is already closed in [0,1] x R; the infinity flags record divergence
        directions of arcs whose excluded pole endpoint is x. A finite piece
        list has no other way to accumulate at infinity.
        """
        x = rat(x)
        plus = minus = False
        for piece in self.pieces:
            if isinstance(piece, Hyper) and piece.excluded_pole == x:
                if piece.divergence_sign() > 0:
                    plus = True
                else:
                    minus = True
        return ExtendedSlice(self.slice_at(x), plus, minus)

    def x_projection(self) -> XSet:
        """Exact projection onto the x axis."""
        return XSet(p.domain() for p in self.pieces)

    # -- clipping --------------------------------------------------------

    def clipped(self, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> "TargetSet":
        """Intersection with the horizontal band ylo <= y <= yhi (exact).

        None on either side leaves that side unbounded. The result is again
        a TargetSet over the same piece vocabulary.
        """
        pieces: List[Piece] = []
        for piece in self.pieces:
            pieces.extend(_clip_piece(piece, ylo, yhi))
        return TargetSet(tuple(pieces))

    # -- distance ----------------------------------------------------------

    def distance_to(self, p: Tuple[RatLike, RatLike]) -> float:
        """Euclidean distance from p to the nearest point of the union.

        Exact (returns 0.0 precisely on membership) for points, boxes and
        polylines; arcs are minimized numerically with a bracketing scan
        plus golden-section refinement to ~1e-12.
        """
        if self.is_empty:
            return math.inf
        px, py = rat(p[0]), rat(p[1])
        best = math.inf
        for piece in self.pieces:
            d = _piece_distance(piece, px, py)
            if d < best:
                best = d
            if best == 0.0:
                return 0.0
        return best

    def contains_point(self, p: Tuple[RatLike, RatLike]) -> bool:
        """Exact membership for a rational point."""
        px, py = rat(p[0]), rat(p[1])
        if not ZERO <= px <= ONE:
            return False
        return self.slice_at(px).contains(py)


# ---------------------------------------------------------------------------
# Band clipping helpers
# ---------------------------------------------------------------------------


def _clip_piece(piece: Piece, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> List[Piece]:
    if isinstance(piece, Point):
        if (ylo is None or piece.y >= ylo) and (yhi is None or piece.y <= yhi):
            return [piece]
        return []
    if isinstance(piece, Box):
        ny0 = piece.y0 if ylo is None else max(piece.y0, ylo)
        ny1 = piece.y1 if yhi is None else min(piece.y1, yhi)
        if ny0 <= ny1:
            return [Box(piece.x0, piece.x1, ny0, ny1)]
        return []
    if isinstance(piece, PLine):
        out: List[Piece] = []
        for (xa, ya), (xb, yb) in piece.segments():
            out.extend(_clip_segment(xa, ya, xb, yb, ylo, yhi))
        return out
    return _clip_arc(piece, ylo, yhi)


def _clip_segment(xa: Fraction, ya: Fraction, xb: Fraction, yb: Fraction,
                  ylo: Optional[Fraction], yhi: Optional[Fraction]) -> List[Piece]:
    """Clip one linear segment to a horizontal band; exact."""
    # Parametrize y(t) = ya + t*(yb - ya) on t in [0, 1]; the admissible
    # t-set is an intersection of half-planes, hence an interval.
    t0, t1 = Fraction(0), Fraction(1)
    dy = yb - ya
    for bound, keep_above in ((ylo, True), (yhi, False)):
        if bound is None:
            continue
        if dy == 0:
            ok = ya >= bound if keep_above else ya <= bound
            if not ok:
                return []
            continue
        t_cross = (bound - ya) / dy
        # y increases with t iff dy > 0.
        if (dy > 0) == keep_above:
            t0 = max(t0, t_cross)
        else:
            t1 = min(t1, t_cross)
    if t0 > t1:
        return []
    nxa = xa + t0 * (xb - xa)
    nxb = xa + t1 * (xb - xa)
    nya = ya + t0 * dy
    nyb = ya + t1 * dy
    if nxa == nxb:
        return [Point(nxa, nya)]
    return [PLine(((nxa, nya), (nxb, nyb)))]


def _clip_arc(arc: Hyper, ylo: Optional[Fraction], yhi: Optional[Fraction]) -> List[Piece]:
    """Clip a hyperbola arc to a band; exact via the monotone map x = p + c/y."""
    img_lo, img_hi = arc.closed_y_range()
    lo = img_lo if ylo is None else (ylo if img_lo is None else max(img_lo, ylo))
    hi = img_hi if yhi is None else (yhi if img_hi is None else min(img_hi, yhi))
    # lo/hi None means that side stays unbounded (only possible when the
    # corresponding band side is None).
    if lo is not None and hi is not None and lo > hi:
        return []
    # y never takes the value 0 on an arc; drop a bound of the wrong sign.
    c = arc.coef
    pos_branch = _arc_y_sign(arc) > 0
    if pos_branch:
        if hi is not None and hi <= 0:
            return []
        if lo is not None and lo <= 0:
            lo = None  # branch already bounded below by its own range
    else:
        if lo is not None and lo >= 0:
            return []
        if hi is not None and hi >= 0:
            hi = None
    xs: List[Fraction] = []
    unbounded = False
    for bound in (lo, hi):
        if bound is None:
            unbounded = True
        else:
            xs.append(arc.pole + c / bound)
    if unbounded:
        # One end still diverges: it reaches toward the pole endpoint.
        xs.append(arc.pole)
    na, nb = min(xs), max(xs)
    na = max(na, arc.x0)
    nb = min(nb, arc.x1)
    if na > nb:
        return []
    if na == nb:
        if na == arc.pole:
            return []
        return [Point(na, arc.y_at(na))]
    return [Hyper(arc.pole, na, nb, c)]


def _arc_y_sign(arc: Hyper) -> int:
    """Constant sign of y on the arc's domain."""
    probe = arc.x1 if arc.pole == arc.x0 else arc.x0
    if probe == arc.pole:
        probe = (arc.x0 + arc.x1) / 2
    return 1 if arc.y_at(probe) > 0 else -1


# ---------------------------------------------------------------------------
# Distance helpers
# ---------------------------------------------------------------------------


def _sq(v: Fraction) -> Fraction:
    return v * v


def _point_distance_sq(ax: Fraction, ay: Fraction, bx: Fraction, by: Fraction) -> Fraction:
    return _sq(ax - bx) + _sq(ay - by)


def _segment_distance_sq(px: Fraction, py: Fraction,
                         xa: Fraction, ya: Fraction,
                         xb: Fraction, yb: Fraction) -> Fraction:
    dx, dy = xb - xa, yb - ya
    denom = _sq(dx) + _sq(dy)
    if denom == 0:
        return _point_distance_sq(px, py, xa, ya)
    t = ((px - xa) * dx + (py - ya) * dy) / denom
    t = min(max(t, Fraction(0)), Fraction(1))
    return _point_distance_sq(px, py, xa + t * dx, ya + t * dy)


def _piece_distance(piece: Piece, px: Fraction, py: Fraction) -> float:
    if isinstance(piece, Point):
        return math.sqrt(float(_point_distance_sq(px, py, piece.x, piece.y)))
    if isinstance(piece, Box):
        dx = max(piece.x0 - px, ZERO, px - piece.x1)
        dy = max(piece.y0 - py, ZERO, py - piece.y1)
        return math.sqrt(float(_sq(dx) + _sq(dy)))
    if isinstance(piece, PLine):
        best = min(
            _segment_distance_sq(px, py, xa, ya, xb, yb)
            for (xa, ya), (xb, yb) in piece.segments()
        )
        return math.sqrt(float(best))
    return _arc_distance(piece, px, py)


def _arc_distance(arc: Hyper, px: Fraction, py: Fraction) -> float:
    # Exact membership first, so distance 0 is reported exactly.
    if arc.domain().contains(px) and py * (px - arc.pole) == arc.coef:
        return 0.0
    p = float(arc.pole)
    c = float(arc.coef)
    fx, fy = float(px), float(py)

    def dist_sq(u: float) -> float:
        # u = x - pole, guaranteed nonzero by the sampling below.
        dxx = fx - (p + u)
        dyy = fy - c / u
        return dxx * dxx + dyy * dyy

    u_lo = float(arc.x0) - p
    u_hi = float(arc.x1) - p
    # Keep a hair away from an excluded pole endpoint; the distance grows
    # without bound there, so the minimum is never lost.
    tiny = max(1e-15, 1e-9 * (u_hi - u_lo))
    if arc.pole == arc.x0:
        u_lo = tiny
    elif arc.pole == arc.x1:
        u_hi = -tiny

    # Bracketing scan: uniform in u plus uniform in y (steep side), then
    # golden-section refinement around every local minimum candidate.
    candidates = set()
    steps = 257
    for i in range(steps + 1):
        candidates.add(u_lo + (u_hi - u_lo) * i / steps)
    y_a, y_b = c / u_lo, c / u_hi
    for i in range(steps + 1):
        y = y_a + (y_b - y_a) * i / steps
        if y != 0.0:
            u = c / y
            if u_lo <= u <= u_hi:
                candidates.add(u)
    us = sorted(candidates)
    vals = [dist_sq(u) for u in us]
    best_sq = min(vals)
    for i, v in enumerate(vals):
        if i > 0 and i < len(us) - 1 and not (v <= vals[i - 1] and v <= vals[i + 1]):
            continue
        lo = us[max(i - 1, 0)]
        hi = us[min(i + 1, len(us) - 1)]
        best_sq = min(best_sq, _golden_min(dist_sq, lo, hi))
    return math.sqrt(max(best_sq, 0.0))


def _golden_min(f, lo: float, hi: float, tol: float = ARC_DISTANCE_TOL) -> float:
    """Golden-section minimum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return min(f1, f2)

"""Exact rational interval sets.

``XSet`` is a finite union of subintervals of [0, 1] with independent
open/closed endpoint flags (isolated points are degenerate closed spans).
It supports exact union, intersection, complement and difference within
[0, 1]; intersection and difference are one linear walk over the sorted
spans. A vertical slice of a target needs no set type: it is the union of
the band ranges that ``TargetSet.bands_at`` returns.

All endpoints are ``fractions.Fraction``; no floating point enters the set
algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

RatLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: RatLike) -> Fraction:
    """Coerce ints, floats, 'p/q' strings and decimal strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Span:
    """One maximal subinterval: endpoints plus openness flags.

    A degenerate span (lo == hi) must be closed on both sides and encodes an
    isolated point.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"span endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate span must be closed")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def distance_to(self, x: Fraction) -> Fraction:
        """Distance from x to the closure of the span."""
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return ZERO

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


def _make_span(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> Optional[Span]:
    """Build a span, returning None when the data describes the empty set."""
    if lo > hi:
        return None
    if lo == hi and (lo_open or hi_open):
        return None
    return Span(lo, hi, lo_open, hi_open)


def _merge(a: Span, b: Span) -> Optional[Span]:
    """Union of two spans when it is again a span; None when disjoint.

    Assumes a.lo <= b.lo (sorted order).
    """
    if b.lo > a.hi:
        return None
    if b.lo == a.hi and a.hi_open and b.lo_open:
        return None
    # Pick the larger right endpoint; on ties the point is kept if either
    # span keeps it.
    if b.hi > a.hi:
        hi, hi_open = b.hi, b.hi_open
    elif b.hi < a.hi:
        hi, hi_open = a.hi, a.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open and b.hi_open
    if a.lo == b.lo:
        lo_open = a.lo_open and b.lo_open
    else:
        lo_open = a.lo_open
    return Span(a.lo, hi, lo_open, hi_open)


def span_intersection(a: Span, b: Span) -> Optional[Span]:
    """Intersection of two spans, or None when empty."""
    if b.lo > a.hi or a.lo > b.hi:
        return None
    if a.lo > b.lo:
        lo, lo_open = a.lo, a.lo_open
    elif b.lo > a.lo:
        lo, lo_open = b.lo, b.lo_open
    else:
        lo, lo_open = a.lo, a.lo_open or b.lo_open
    if a.hi < b.hi:
        hi, hi_open = a.hi, a.hi_open
    elif b.hi < a.hi:
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open or b.hi_open
    return _make_span(lo, hi, lo_open, hi_open)


class XSet:
    """Finite union of subintervals of [0, 1], normalized and exact."""

    __slots__ = ("spans",)

    def __init__(self, spans: Iterable[Span] = ()) -> None:
        items = sorted(spans, key=lambda s: (s.lo, s.lo_open, s.hi, s.hi_open))
        merged: list[Span] = []
        for span in items:
            if span.lo < ZERO or span.hi > ONE:
                raise ValueError(f"span {span} outside [0, 1]")
            if merged:
                joined = _merge(merged[-1], span)
                if joined is not None:
                    merged[-1] = joined
                    continue
            merged.append(span)
        object.__setattr__(self, "spans", tuple(merged))

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "XSet":
        return cls(())

    @classmethod
    def _normalized(cls, spans: Iterable[Span]) -> "XSet":
        """Spans already normalized, kept as they come: no sort, no merge."""
        out = cls()
        object.__setattr__(out, "spans", tuple(spans))
        return out

    @classmethod
    def point(cls, x: RatLike) -> "XSet":
        x = rat(x)
        return cls((Span(x, x),))

    @classmethod
    def points(cls, xs: Iterable[RatLike]) -> "XSet":
        return cls(tuple(Span(rat(x), rat(x)) for x in xs))

    @classmethod
    def interval(cls, lo: RatLike, hi: RatLike, lo_open: bool = False,
                 hi_open: bool = False) -> "XSet":
        span = _make_span(rat(lo), rat(hi), lo_open, hi_open)
        return cls(() if span is None else (span,))

    # -- queries ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def __bool__(self) -> bool:
        return bool(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def contains(self, x: RatLike) -> bool:
        x = rat(x)
        return any(s.contains(x) for s in self.spans)

    def contains_interval(self) -> bool:
        """True when some span has nonempty interior."""
        return any(s.lo < s.hi for s in self.spans)

    def widest_interval(self) -> Optional[Span]:
        return max((s for s in self.spans if s.lo < s.hi), key=lambda s: s.width, default=None)

    def isolated_points(self) -> list[Fraction]:
        return [s.lo for s in self.spans if s.is_point]

    def distance_to(self, x: RatLike) -> Optional[Fraction]:
        """Distance from x to the closure of the set; None when empty."""
        x = rat(x)
        if not self.spans:
            return None
        return min(s.distance_to(x) for s in self.spans)

    # -- algebra ------------------------------------------------------

    def union(self, other: "XSet") -> "XSet":
        return XSet(self.spans + other.spans)

    __or__ = union

    def complement(self) -> "XSet":
        """Complement within [0, 1]: the gaps between 0, the spans and 1. The
        gaps of a normalized set are sorted, and a point span keeps its two
        neighbours apart (both open at it), so they are normalized too."""
        ends = [(ZERO, False), *((e, not e_open) for s in self.spans
                                 for e, e_open in ((s.lo, s.lo_open), (s.hi, s.hi_open))),
                (ONE, False)]
        return XSet._normalized(gap for (lo, lo_open), (hi, hi_open) in zip(ends[::2], ends[1::2])
                                if (gap := _make_span(lo, hi, lo_open, hi_open)) is not None)

    def intersection(self, other: "XSet") -> "XSet":
        """One walk over both span lists, past whichever span ends first. A
        normalized set's spans are its maximal connected parts, so the meets
        of span pairs, taken in order, are already normalized."""
        a, b, got, i, j = self.spans, other.spans, [], 0, 0
        while i < len(a) and j < len(b):
            if (meet := span_intersection(a[i], b[j])) is not None:
                got.append(meet)
            i, j = (i + 1, j) if a[i].hi <= b[j].hi else (i, j + 1)
        return XSet._normalized(got)

    __and__ = intersection

    def difference(self, other: "XSet") -> "XSet":
        return self.intersection(other.complement())

    __sub__ = difference

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSet):
            return NotImplemented
        return self.spans == other.spans

    def __hash__(self) -> int:
        return hash(self.spans)

    def __repr__(self) -> str:
        if not self.spans:
            return "XSet()"
        return "XSet(" + " u ".join(str(s) for s in self.spans) + ")"


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return ZERO
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return Fraction(rn, rd) if rn * rn == num and rd * rd == den else None

"""Exact rational interval sets.

An x-interval is a ``Span``: a lower and an upper ``End``, each a point
x = num/den held as integers in lowest terms with a flag that leaves x
out. Ends compare by cross-multiplication, and ``inner`` is the one rule
that meets two of them. A ``Fraction`` is built only where an endpoint or
a width is returned or printed; no floating point enters the set algebra.

``XSet`` is a finite union of subintervals of [0, 1], normalized: its spans
are its maximal connected parts in order (isolated points are degenerate
closed spans). It supports exact union, intersection, complement and
difference within [0, 1], each one linear walk over sorted spans. A
vertical slice of a target needs no set type: it is the union of the band
ranges that ``TargetSet.bands_at`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from heapq import merge
from math import gcd
from typing import Iterable, Iterator, Optional, Tuple, Union

RatLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)

Pair = Tuple[int, int]  # num/den as (num, den) in lowest terms, den > 0

# One end of a span: x = num/den in lowest terms (den > 0), and whether x
# is left out.
End = Tuple[int, int, bool]


def rat(value: RatLike) -> Fraction:
    """Coerce ints, floats, 'p/q' strings and decimal strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def lowest(num: int, den: int) -> Pair:
    """num/den (den != 0) as a ``Pair``."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def end_at(num: int, den: int) -> End:
    """The closed end at x = num/den (den != 0), in lowest terms."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g, False


def inner(p: End, q: End, side: int) -> End:
    """The inner of two lower ends (side 1) or upper ends (side -1), by
    cross-multiplication; a shared x is left out where either leaves it out."""
    order = side * (q[0] * p[1] - p[0] * q[1])
    return q if order > 0 else p if order < 0 or p[2] else q


class Span(tuple):
    """One subinterval: the pair (lower end, upper end), compared, hashed
    and unpacked as that pair.

    A degenerate span (lo == hi) must be closed on both sides and encodes an
    isolated point.
    """

    __slots__ = ()

    def __new__(cls, lo: RatLike, hi: RatLike, lo_open: bool = False,
                hi_open: bool = False) -> "Span":
        lo, hi = rat(lo), rat(hi)
        span = span_between((lo.numerator, lo.denominator, bool(lo_open)),
                          (hi.numerator, hi.denominator, bool(hi_open)))
        if span is None:
            raise ValueError(f"span endpoints out of order: {lo} > {hi}" if lo > hi
                             else "degenerate span must be closed")
        return span

    @property
    def lo(self) -> Fraction:
        return Fraction(self[0][0], self[0][1])

    @property
    def hi(self) -> Fraction:
        return Fraction(self[1][0], self[1][1])

    @property
    def lo_open(self) -> bool:
        return self[0][2]

    @property
    def hi_open(self) -> bool:
        return self[1][2]

    @property
    def is_point(self) -> bool:
        return self[0][:2] == self[1][:2]

    @property
    def width(self) -> Fraction:
        (ln, ld, _), (hn, hd, _) = self
        return Fraction(hn * ld - ln * hd, hd * ld)

    def holds(self, a: int, b: int) -> bool:
        """Whether x = a/b (b > 0) lies in the span: x - lo and hi - x, cross-
        multiplied, must be at least 1 at an open end and 0 at a closed one."""
        (ln, ld, lo_open), (hn, hd, hi_open) = self
        return a * ld - ln * b >= lo_open and hn * b - a * hd >= hi_open

    def contains(self, x: RatLike) -> bool:
        x = rat(x)
        return self.holds(x.numerator, x.denominator)

    def gap(self, a: int, b: int) -> Tuple[int, int]:
        """The distance from x = a/b (b > 0) to the closure of the span, as
        (num, den)."""
        (ln, ld, _), (hn, hd, _) = self
        return (ln * b - a * ld, ld * b) if a * ld < ln * b else (max(a * hd - hn * b, 0), hd * b)

    def __getnewargs__(self) -> Tuple[Fraction, Fraction, bool, bool]:
        """Copies and pickles rebuild the span by its public constructor."""
        return self.lo, self.hi, self.lo_open, self.hi_open

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"


def span_between(lo: End, hi: End) -> Optional[Span]:
    """The span between two ends, or None when they describe the empty set."""
    order = hi[0] * lo[1] - lo[0] * hi[1]
    if order < 0 or order == 0 and (lo[2] or hi[2]):
        return None
    return tuple.__new__(Span, (lo, hi))


def span_intersection(a: Span, b: Span) -> Optional[Span]:
    """Intersection of two spans, or None when empty."""
    return span_between(inner(a[0], b[0], 1), inner(a[1], b[1], -1))


# Spans in the order of their lower ends, a closed end before an open one
# at the same x: the order in which ``_sweep`` merges them.
_BY_LOWER_END = cmp_to_key(lambda s, t: s[0][0] * t[0][1] - t[0][0] * s[0][1]
                           or s[0][2] - t[0][2])


def _sweep(spans: Iterable[Span]) -> Iterator[Span]:
    """The maximal connected parts of spans in the order of their lower ends,
    each built once, when the next span leaves it: a span joins the part
    unless it starts past the part's upper end, or at it with both ends left
    out. The part's upper end is the outer of the two, closed where either
    is."""
    lo = hi = None
    for s_lo, s_hi in spans:
        if hi is not None:
            order = s_lo[0] * hi[1] - hi[0] * s_lo[1]
            if order < 0 or order == 0 and not (hi[2] and s_lo[2]):
                order = s_hi[0] * hi[1] - hi[0] * s_hi[1]
                if order > 0 or order == 0 and not s_hi[2]:
                    hi = s_hi
                continue
            yield tuple.__new__(Span, (lo, hi))
        lo, hi = s_lo, s_hi
    if hi is not None:
        yield tuple.__new__(Span, (lo, hi))


class XSet:
    """Finite union of subintervals of [0, 1], normalized and exact."""

    __slots__ = ("spans",)

    def __init__(self, spans: Iterable[Span] = ()) -> None:
        items = sorted(spans, key=_BY_LOWER_END)
        for span in items:
            (ln, _, _), (hn, hd, _) = span
            if ln < 0 or hn > hd:
                raise ValueError(f"span {span} outside [0, 1]")
        object.__setattr__(self, "spans", tuple(_sweep(items)))

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
        return cls((Span(x, x),))

    @classmethod
    def points(cls, xs: Iterable[RatLike]) -> "XSet":
        return cls(Span(x, x) for x in xs)

    @classmethod
    def interval(cls, lo: RatLike, hi: RatLike, lo_open: bool = False,
                 hi_open: bool = False) -> "XSet":
        lo, hi = rat(lo), rat(hi)
        span = span_between((lo.numerator, lo.denominator, bool(lo_open)),
                          (hi.numerator, hi.denominator, bool(hi_open)))
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
        return any(s.holds(x.numerator, x.denominator) for s in self.spans)

    def contains_interval(self) -> bool:
        """True when some span has nonempty interior."""
        return not all(s.is_point for s in self.spans)

    def widest_interval(self) -> Optional[Span]:
        return max((s for s in self.spans if not s.is_point), key=lambda s: s.width, default=None)

    def isolated_points(self) -> list[Fraction]:
        return [s.lo for s in self.spans if s.is_point]

    # -- algebra ------------------------------------------------------

    def union(self, other: "XSet") -> "XSet":
        """One sweep over both span lists, merged in the order of their lower
        ends."""
        return XSet._normalized(_sweep(merge(self.spans, other.spans, key=_BY_LOWER_END)))

    __or__ = union

    def complement(self) -> "XSet":
        """Complement within [0, 1]: the gaps between 0, the spans and 1. The
        gaps of a normalized set are sorted, and a point span keeps its two
        neighbours apart (both open at it), so they are normalized too."""
        ends = [(0, 1, False), *((n, d, not left_out) for s in self.spans
                                 for n, d, left_out in s), (1, 1, False)]
        return XSet._normalized(gap for lo, hi in zip(ends[::2], ends[1::2])
                                if (gap := span_between(lo, hi)) is not None)

    def intersection(self, other: "XSet") -> "XSet":
        """One walk over both span lists, past whichever span ends first. A
        normalized set's spans are its maximal connected parts, so the meets
        of span pairs, taken in order, are already normalized."""
        a, b, got, i, j = self.spans, other.spans, [], 0, 0
        while i < len(a) and j < len(b):
            if (meet := span_intersection(a[i], b[j])) is not None:
                got.append(meet)
            (an, ad, _), (bn, bd, _) = a[i][1], b[j][1]
            i, j = (i + 1, j) if an * bd <= bn * ad else (i, j + 1)
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

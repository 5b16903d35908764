"""Hypothesis checks for the four synthesis regimes.

A target set can be realized as the accumulation set of

* a bounded Baire-2 function  (B2_BOUNDED): compact, all slices nonempty;
* a Baire-2 function          (B2): closed, empty-slice set countable;
* a bounded Baire-1 function  (B1_BOUNDED): B2_BOUNDED plus the multi-valued
  set D meager;
* a Baire-1 function          (B1): B2 plus the extended-closure
  multi-valued set meager.

For finite piece unions every one of these conditions is decidable exactly:
"countable" for a finite union of intervals means "contains no interval",
and likewise "meager" means "no span with interior".

A ``TargetAnalysis`` computes the sets these checks read (C, D, extended D)
together with the ones the certificates read (the diameter levels D_n, the
level sets U_k, V_k and the enumeration W of closed parts of the V_k), each
at most once per target.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from .geometry import RationalGraph, TargetSet
from .intervals import ZERO, Span, XSet, rational_sqrt, span_intersection


class Regime(enum.Enum):
    B2_BOUNDED = "b2-bounded"
    B2 = "b2"
    B1_BOUNDED = "b1-bounded"
    B1 = "b1"

    @property
    def bounded(self) -> bool:
        return self in (Regime.B2_BOUNDED, Regime.B1_BOUNDED)

    @property
    def baire1(self) -> bool:
        return self in (Regime.B1_BOUNDED, Regime.B1)


Witness = Union[Span, XSet, Fraction, None]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Witness = None


@dataclass(frozen=True)
class Verdict:
    regime: Regime
    passed: bool
    checks: Tuple[CheckResult, ...]

    def report_lines(self) -> List[str]:
        lines = []
        for check in self.checks:
            line = f"CHECK {check.name} {'PASS' if check.passed else 'FAIL'}"
            if not check.passed and check.witness is not None:
                line += f" witness={check.witness}"
            lines.append(line)
        lines.append(f"REGIME {self.regime.value} {'PASS' if self.passed else 'FAIL'}")
        return lines


# ---------------------------------------------------------------------------
# Pairwise analysis of rational graphs
# ---------------------------------------------------------------------------
#
# Every piece decomposes into single-valued rational graphs
# y = (n1 x + n0)/(d1 x + d0) over an x-span (``RationalGraph``). A slice has
# more than one point exactly when two graphs disagree, and diameter >= t
# exactly when two graphs differ by at least t. Over the common denominator
# da*db, the difference a - b - t has the numerator na*db - nb*da - t*da*db,
# a polynomial of degree at most 2, so both D and every D_n reduce to
# pairwise sign sets of quadratics.


def _times(p: Tuple[int, int], q: Tuple[int, int]) -> Tuple[int, ...]:
    """Coefficients (x^2, x, 1) of the product of two linear polynomials."""
    return p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]


def _difference_numerator(a: RationalGraph, b: RationalGraph,
                          t: Fraction) -> Tuple[Fraction, ...]:
    """Coefficients (x^2, x, 1) of na*db - nb*da - t*da*db: both
    denominators are positive, so it has the sign of a - b - t."""
    na, nb, da, db = (a.n1, a.n0), (b.n1, b.n0), (a.d1, a.d0), (b.d1, b.d0)
    return tuple(u - v - t * w for u, v, w in zip(_times(na, db), _times(nb, da), _times(da, db)))


# -- exact sign sets of quadratics ------------------------------------------


def _quad_ge_zero(a: Fraction, b: Fraction, c: Fraction, dom: Span) -> XSet:
    """{x in dom : a x^2 + b x + c >= 0}, exact or inner-approximated.

    When the roots are irrational the reported set is shrunk by a dyadic
    sliver (< 2^-80 of the bracket) so that every reported point genuinely
    satisfies the inequality.
    """
    whole = XSet((dom,))
    if a == 0:
        if b == 0:
            return whole if c >= 0 else XSet.empty()
        r = -c / b
        if b > 0:
            return whole & XSet.interval(max(r, ZERO), Fraction(1))
        return whole & XSet.interval(ZERO, min(r, Fraction(1)))
    disc = b * b - 4 * a * c
    vertex = -b / (2 * a)
    if disc < 0:
        return whole if a > 0 else XSet.empty()
    if disc == 0:
        if a > 0:
            return whole
        return whole & XSet.point(vertex) if dom.contains(vertex) else XSet.empty()
    sq = rational_sqrt(disc)
    if sq is not None:
        r1 = (-b - sq) / (2 * a)
        r2 = (-b + sq) / (2 * a)
        r1, r2 = min(r1, r2), max(r1, r2)
    else:
        r1, r2 = _bracket_irrational_roots(a, disc, vertex)
    if a > 0:
        left = XSet.interval(ZERO, min(r1, Fraction(1))) if r1 >= ZERO else XSet.empty()
        right = XSet.interval(max(r2, ZERO), Fraction(1)) if r2 <= Fraction(1) else XSet.empty()
        return whole & (left | right)
    if r2 < ZERO or r1 > Fraction(1):
        return XSet.empty()
    return whole & XSet.interval(max(r1, ZERO), min(r2, Fraction(1)))


def _bracket_irrational_roots(a: Fraction, disc: Fraction,
                              vertex: Fraction) -> Tuple[Fraction, Fraction]:
    """Conservative rational stand-ins for the two irrational roots
    vertex -+ delta, delta^2 = disc/(4 a^2).

    Each root lies inside one cell of the dyadic grid of pitch h = w/2^80
    through the vertex, where w is the least power of two >= 1 with
    w > delta: the cell vertex -+ (m, m + 1) h with m = floor(delta/h). That
    cell is assigned to the *unsatisfied* side, so the reported region is
    inner in both sign cases.
    """
    delta_sq = disc / (4 * a * a)
    w = Fraction(1)
    while w * w <= delta_sq:
        w *= 2
    h = w / 2 ** 80
    # floor(sqrt(y)) == isqrt(floor(y)) for every real y >= 0.
    m = math.isqrt(math.floor(delta_sq / (h * h)))
    # a > 0 is satisfied outside the roots, a < 0 between them.
    cells = m + 1 if a > 0 else m
    return vertex - cells * h, vertex + cells * h


# ---------------------------------------------------------------------------
# Target analysis
# ---------------------------------------------------------------------------


_Pair = Tuple[RationalGraph, RationalGraph, Span]


def _overlapping_pairs(graphs: Sequence[RationalGraph]) -> List[_Pair]:
    """Every graph pair whose domains meet, with the shared domain."""
    pairs: List[_Pair] = []
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            dom = span_intersection(graphs[i].dom, graphs[j].dom)
            if dom is not None:
                pairs.append((graphs[i], graphs[j], dom))
    return pairs


_W_RESOLUTION = Fraction(1, 4096)
_W_MAX_PARTS = 14


def _closed_parts(span: Span) -> List[Span]:
    """Decompose one span of a V_n into nested closed parts.

    Closed spans are their own part. A half-open or open span is written as
    an increasing union of closed subintervals whose cut approaches the
    open end geometrically; the sequence is truncated once the remaining
    sliver is below a fixed resolution.
    """
    if not span.lo_open and not span.hi_open:
        return [span]
    parts: List[Span] = []
    w = span.width
    shrink = w / 2
    for _ in range(_W_MAX_PARTS):
        lo = span.lo + shrink if span.lo_open else span.lo
        hi = span.hi - shrink if span.hi_open else span.hi
        if lo <= hi:
            parts.append(Span(lo, hi))
        if shrink <= _W_RESOLUTION:
            break
        shrink /= 2
    return parts


class TargetAnalysis:
    """The sets of one target that the regimes and certificates read.

    Built once per target. Each set is computed on first use and then kept:

    * ``c_set``: the empty-slice set C, exact.
    * ``d_set``: the multi-valued set D = {x : #slice > 1}. It is exact
      apart from finitely many irrational coincidence points per graph
      pair, which stay inside D: that enlarges D by finitely many points,
      which can never change an interval-freeness verdict.
    * ``extended_d_set``: D plus the arc pole points whose extended-closure
      slice has more than one element.
    * ``d_levels(n)``: the diameter level sets D_1..D_n (diam >= 1/k). They
      are exact where the threshold equations have rational roots and inner
      dyadic approximations otherwise; D_k is a subset of D_{k+1} by
      accumulation. Deeper levels extend the last cached one.
    * ``u_level(k)`` and ``v_part(k)``: the level sets U_k and their
      differences V_1 = U_1, V_k = U_k - U_{k-1}, for any k.
    * ``w_parts(depth)``: the enumeration W of closed parts of
      V_1..V_depth, which backbone radii keep clear of. It is not kept.
    """

    def __init__(self, target: TargetSet):
        self.target = target
        self._d_levels: List[XSet] = []
        self._u: Dict[int, XSet] = {}
        self._v: Dict[int, XSet] = {}

    @cached_property
    def pairs(self) -> List[_Pair]:
        """The pieces' rational graphs in overlapping pairs, which D and D_n
        read."""
        return _overlapping_pairs([g for piece in self.target.pieces for g in piece.graphs()])

    @cached_property
    def c_set(self) -> XSet:
        return self.target.x_projection().complement()

    @cached_property
    def d_set(self) -> XSet:
        out = XSet.empty()
        for a, b, dom in self.pairs:
            # a = b exactly where the t = 0 numerator q is >= 0 and -q >= 0;
            # irrational roots fall in the inner slivers and stay in D.
            agree = (_quad_ge_zero(*_difference_numerator(a, b, ZERO), dom)
                     & _quad_ge_zero(*_difference_numerator(b, a, ZERO), dom))
            out = out | (XSet((dom,)) - agree)
        return out

    @cached_property
    def extended_d_set(self) -> XSet:
        """D plus each excluded pole x whose extended slice has more than one
        element: its band ends (two or more exactly when the finite slice is
        multi-valued, one for a point) plus its infinities."""
        out, target = self.d_set, self.target
        for x, _ in target.excluded_poles:
            ends = {y for band in target.bands_at(x) for y in band}
            if len(ends) + len(target.pole_signs(x)) > 1:
                out = out | XSet.point(x)
        return out

    def d_levels(self, n: int) -> List[XSet]:
        levels = self._d_levels
        while len(levels) < n:
            t = Fraction(1, len(levels) + 1)
            dn = levels[-1] if levels else XSet.empty()
            for a, b, dom in self.pairs:
                dn = dn | _quad_ge_zero(*_difference_numerator(a, b, t), dom)
                dn = dn | _quad_ge_zero(*_difference_numerator(b, a, t), dom)
            levels.append(dn)
        return levels[:n]

    def u_level(self, k: int) -> XSet:
        if k not in self._u:
            self._u[k] = self.target.shadow(Fraction(-k), Fraction(k))
        return self._u[k]

    def v_part(self, k: int) -> XSet:
        if k not in self._v:
            self._v[k] = self.u_level(1) if k == 1 else self.u_level(k) - self.u_level(k - 1)
        return self._v[k]

    def w_parts(self, depth: int) -> List[Tuple[int, Span]]:
        """The enumeration W: (n, closed part) over the closed parts of
        V_1..V_depth, ordered by level and then left endpoint."""
        out: List[Tuple[int, Span]] = []
        for n in range(1, depth + 1):
            parts = [part for span in self.v_part(n).spans for part in _closed_parts(span)]
            parts.sort(key=lambda s: (s.lo, s.hi))
            out.extend((n, part) for part in parts)
        return out

    def verdict(self, regime: Regime) -> Verdict:
        """Run the regime's hypothesis checks in order with exact witnesses.

        A set is countable, or meager, exactly when it contains no interval;
        the widest interval it contains is the witness against it.
        """
        checks: List[CheckResult] = []
        # Closedness holds structurally: every piece is closed and the union
        # is finite, so this check cannot fail for a well-formed TargetSet.
        checks.append(CheckResult("closed", True))

        if regime.bounded:
            poles = self.target.excluded_poles
            checks.append(CheckResult("compact", not poles, poles[0][0] if poles else None))

        c_set = self.c_set
        if regime.bounded:
            nonempty = c_set.is_empty
            witness = None
            if not nonempty:
                span = c_set.spans[0]
                witness = span if span.lo < span.hi else span.lo
            checks.append(CheckResult("slices_nonempty", nonempty, witness))
        else:
            interval = c_set.widest_interval()
            checks.append(CheckResult("countable_empty_slice_set", interval is None, interval))

        if regime is Regime.B1_BOUNDED:
            interval = self.d_set.widest_interval()
            checks.append(CheckResult("multiplicity_meager", interval is None, interval))
        elif regime is Regime.B1:
            interval = self.extended_d_set.widest_interval()
            checks.append(CheckResult("extended_multiplicity_meager", interval is None, interval))

        passed = all(c.passed for c in checks)
        return Verdict(regime, passed, tuple(checks))


def check_regime(target: TargetSet, regime: Regime) -> Verdict:
    """Run the regime's hypothesis checks on a fresh analysis of the target."""
    return TargetAnalysis(target).verdict(regime)

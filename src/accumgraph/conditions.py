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
together with the ones the certificates read (the diameter levels D_n and
the level sets U_k, V_k), each at most once per target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .geometry import Box, Hyper, PLine, Point, TargetSet
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

    @classmethod
    def from_name(cls, name: str) -> "Regime":
        for regime in cls:
            if regime.value == name:
                return regime
        raise ValueError(f"unknown regime {name!r}")


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
# Value components and pairwise analysis
# ---------------------------------------------------------------------------
#
# Every piece decomposes into single-valued "components" over an x-span:
# linear graphs y = m x + q (points, box edges, polyline segments) and
# hyperbola branches y = c/(x - p). A slice has more than one point exactly
# when two components disagree, and diameter >= t exactly when two
# components differ by at least t, so both D and every D_n reduce to
# pairwise comparisons with linear/quadratic solvers over the rationals.


@dataclass(frozen=True)
class _LinComp:
    dom: Span
    m: Fraction
    q: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.m * x + self.q


@dataclass(frozen=True)
class _HypComp:
    dom: Span
    p: Fraction
    c: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.c / (x - self.p)


_Comp = Union[_LinComp, _HypComp]


def _components(target: TargetSet) -> List[_Comp]:
    comps: List[_Comp] = []
    for piece in target.pieces:
        if isinstance(piece, Point):
            comps.append(_LinComp(piece.domain(), ZERO, piece.y))
        elif isinstance(piece, Box):
            dom = piece.domain()
            comps.append(_LinComp(dom, ZERO, piece.y0))
            if piece.y1 != piece.y0:
                comps.append(_LinComp(dom, ZERO, piece.y1))
        elif isinstance(piece, PLine):
            for (xa, ya), (xb, yb) in piece.segments():
                m = (yb - ya) / (xb - xa)
                comps.append(_LinComp(Span(xa, xb), m, ya - m * xa))
        else:
            comps.append(_HypComp(piece.domain(), piece.pole, piece.coef))
    return comps


def _domain_sign(comp: _HypComp) -> int:
    """Constant sign of (x - p) on the component's domain."""
    probe = comp.dom.hi if comp.dom.lo == comp.p else comp.dom.lo
    return 1 if probe - comp.p > 0 else -1


def _span_minus_points(dom: Span, points: Sequence[Fraction]) -> XSet:
    """dom with finitely many points removed, as an XSet."""
    cuts = sorted({x for x in points if dom.contains(x)})
    if not cuts:
        return XSet((dom,))
    out = XSet.empty()
    lo, lo_open = dom.lo, dom.lo_open
    for c in cuts:
        out = out | XSet.interval(lo, c, lo_open, True)
        lo, lo_open = c, True
    out = out | XSet.interval(lo, dom.hi, lo_open, dom.hi_open)
    return out


def _coincidence_points(a: _Comp, b: _Comp) -> Optional[List[Fraction]]:
    """Rational solutions of a == b; None when identically equal.

    Irrational solutions (possible only for linear-vs-branch pairs) are
    dropped, which leaves them inside the multi-valued set D. That enlarges
    D by at most finitely many points per pair, which can never change an
    interval-freeness verdict.
    """
    if isinstance(a, _LinComp) and isinstance(b, _LinComp):
        dm, dq = a.m - b.m, a.q - b.q
        if dm == 0:
            return None if dq == 0 else []
        return [-dq / dm]
    if isinstance(a, _HypComp) and isinstance(b, _HypComp):
        if a.p == b.p:
            return None if a.c == b.c else []
        # c1/(x-p1) = c2/(x-p2)  <=>  (c1-c2) x = c1 p2 - c2 p1
        dc = a.c - b.c
        if dc == 0:
            return []
        return [(a.c * b.p - b.c * a.p) / dc]
    lin, hyp = (a, b) if isinstance(a, _LinComp) else (b, a)
    assert isinstance(lin, _LinComp) and isinstance(hyp, _HypComp)
    # (m x + q)(x - p) = c
    qa = lin.m
    qb = lin.q - lin.m * hyp.p
    qc = -lin.q * hyp.p - hyp.c
    return _rational_quadratic_roots(qa, qb, qc)


def _rational_quadratic_roots(a: Fraction, b: Fraction, c: Fraction) -> List[Fraction]:
    if a == 0:
        if b == 0:
            return []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = rational_sqrt(disc)
    if root is None:
        return []
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})


# -- exact sign sets of quadratics ------------------------------------------


_BISECT_STEPS = 80


def _quad(a: Fraction, b: Fraction, c: Fraction, x: Fraction) -> Fraction:
    return (a * x + b) * x + c


def _bisect_root(a: Fraction, b: Fraction, c: Fraction,
                 lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Dyadic bracket (l, u) around the single root in [lo, hi].

    Signs at lo and hi must differ (one may be zero only at a true root).
    """
    flo = _quad(a, b, c, lo)
    for _ in range(_BISECT_STEPS):
        mid = (lo + hi) / 2
        fmid = _quad(a, b, c, mid)
        if fmid == 0:
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo = mid
            flo = fmid
        else:
            hi = mid
    return lo, hi


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
        r1, r2 = _bracket_irrational_roots(a, b, c, vertex)
    if a > 0:
        left = XSet.interval(ZERO, min(r1, Fraction(1))) if r1 >= ZERO else XSet.empty()
        right = XSet.interval(max(r2, ZERO), Fraction(1)) if r2 <= Fraction(1) else XSet.empty()
        return whole & (left | right)
    if r2 < ZERO or r1 > Fraction(1):
        return XSet.empty()
    return whole & XSet.interval(max(r1, ZERO), min(r2, Fraction(1)))


def _bracket_irrational_roots(a: Fraction, b: Fraction, c: Fraction,
                              vertex: Fraction) -> Tuple[Fraction, Fraction]:
    """Conservative rational stand-ins for the two irrational roots.

    The dyadic sliver containing each true root is assigned to the
    *unsatisfied* side, so the reported region is inner in both sign cases.
    """
    # Guaranteed bracket: widen until the sign at vertex +- w matches a.
    w = Fraction(1)
    while _quad(a, b, c, vertex - w) * a <= 0:
        w *= 2
    while _quad(a, b, c, vertex + w) * a <= 0:
        w *= 2
    l1, u1 = _bisect_root(a, b, c, vertex - w, vertex)
    l2, u2 = _bisect_root(a, b, c, vertex, vertex + w)
    if a > 0:
        # Satisfied outside the roots: report (-inf, l1] u [u2, inf).
        return l1, u2
    # Satisfied between the roots: report [u1, l2].
    return u1, l2


def _pair_domain(a: _Comp, b: _Comp) -> Optional[Span]:
    return span_intersection(a.dom, b.dom)


def _pair_difference_ge(a: _Comp, b: _Comp, t: Fraction, dom: Span) -> XSet:
    """{x in dom : a(x) - b(x) >= t}, exact up to inner dyadic slivers."""
    if isinstance(a, _LinComp) and isinstance(b, _LinComp):
        return _quad_ge_zero(ZERO, a.m - b.m, a.q - b.q - t, dom)
    if isinstance(a, _HypComp) and isinstance(b, _HypComp) and a.p == b.p:
        sign = _domain_sign(a)
        # (c1 - c2)/(x - p) >= t, multiplied through by (x - p).
        if sign > 0:
            return _quad_ge_zero(ZERO, -t, (a.c - b.c) + t * a.p, dom)
        return _quad_ge_zero(ZERO, t, -(a.c - b.c) - t * a.p, dom)
    if isinstance(a, _HypComp) and isinstance(b, _HypComp):
        s = _domain_sign(a) * _domain_sign(b)
        # c1(x-p2) - c2(x-p1) - t(x-p1)(x-p2) >= 0 after multiplying by
        # (x-p1)(x-p2), flipping when that product is negative.
        qa = -t
        qb = a.c - b.c + t * (a.p + b.p)
        qc = -a.c * b.p + b.c * a.p - t * a.p * b.p
        if s < 0:
            qa, qb, qc = -qa, -qb, -qc
        return _quad_ge_zero(qa, qb, qc, dom)
    if isinstance(a, _LinComp):
        # (m x + q - t)(x - p) - c >= 0 after multiplying by (x - p).
        lin, hyp, flip = a, b, False
    else:
        # c/(x-p) - (m x + q) >= t  <=>  c - (m x + q + t)(x - p) >= 0.
        lin, hyp, flip = b, a, True
    assert isinstance(hyp, _HypComp) and isinstance(lin, _LinComp)
    sign = _domain_sign(hyp)
    if not flip:
        shift = lin.q - t
        qa = lin.m
        qb = shift - lin.m * hyp.p
        qc = -shift * hyp.p - hyp.c
    else:
        shift = lin.q + t
        qa = -lin.m
        qb = -(shift - lin.m * hyp.p)
        qc = shift * hyp.p + hyp.c
    if sign < 0:
        qa, qb, qc = -qa, -qb, -qc
    return _quad_ge_zero(qa, qb, qc, dom)


# ---------------------------------------------------------------------------
# Target analysis
# ---------------------------------------------------------------------------


def _overlapping_pairs(comps: Sequence[_Comp]) -> List[Tuple[_Comp, _Comp, Span]]:
    """Every component pair whose domains meet, with the shared domain."""
    pairs: List[Tuple[_Comp, _Comp, Span]] = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            dom = _pair_domain(comps[i], comps[j])
            if dom is not None:
                pairs.append((comps[i], comps[j], dom))
    return pairs


def _level_projection(target: TargetSet, k: int) -> XSet:
    """U_k = {x : the slice meets [-k, k]} (exact)."""
    return target.clipped(Fraction(-k), Fraction(k)).x_projection()


class TargetAnalysis:
    """The sets of one target that the regimes and certificates read.

    Built once per target. Each set is computed on first use and then kept:

    * ``c_set``: the empty-slice set C, exact.
    * ``d_set``: the multi-valued set D = {x : #slice > 1}. It is exact
      apart from finitely many irrational coincidence points per component
      pair, which stay inside D.
    * ``extended_d_set``: D plus the arc pole points whose extended-closure
      slice has more than one element.
    * ``d_levels(n)``: the diameter level sets D_1..D_n (diam >= 1/k). They
      are exact where the threshold equations have rational roots and inner
      dyadic approximations otherwise; D_k is a subset of D_{k+1} by
      accumulation. Deeper levels extend the last cached one.
    * ``u_level(k)`` and ``v_part(k)``: the level sets U_k and their
      differences V_1 = U_1, V_k = U_k - U_{k-1}, for any k.
    """

    def __init__(self, target: TargetSet):
        self.target = target
        self._d_levels: List[XSet] = []
        self._u: Dict[int, XSet] = {}
        self._v: Dict[int, XSet] = {}

    @cached_property
    def pairs(self) -> List[Tuple[_Comp, _Comp, Span]]:
        """The value components' overlapping pairs, which D and D_n read."""
        return _overlapping_pairs(_components(self.target))

    @cached_property
    def c_set(self) -> XSet:
        return self.target.x_projection().complement()

    @cached_property
    def d_set(self) -> XSet:
        out = XSet.empty()
        for a, b, dom in self.pairs:
            roots = _coincidence_points(a, b)
            if roots is not None:
                out = out | _span_minus_points(dom, roots)
        return out

    @cached_property
    def extended_d_set(self) -> XSet:
        out = self.d_set
        for piece in self.target.pieces:
            if isinstance(piece, Hyper) and piece.excluded_pole is not None:
                x = piece.excluded_pole
                if self.target.extended_slice_at(x).count_exceeds_one():
                    out = out | XSet.point(x)
        return out

    def d_levels(self, n: int) -> List[XSet]:
        levels = self._d_levels
        while len(levels) < n:
            t = Fraction(1, len(levels) + 1)
            dn = levels[-1] if levels else XSet.empty()
            for a, b, dom in self.pairs:
                dn = dn | _pair_difference_ge(a, b, t, dom)
                dn = dn | _pair_difference_ge(b, a, t, dom)
            levels.append(dn)
        return levels[:n]

    def u_level(self, k: int) -> XSet:
        if k not in self._u:
            self._u[k] = _level_projection(self.target, k)
        return self._u[k]

    def v_part(self, k: int) -> XSet:
        if k not in self._v:
            self._v[k] = self.u_level(1) if k == 1 else self.u_level(k) - self.u_level(k - 1)
        return self._v[k]

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
            bounded = self.target.is_bounded()
            witness: Witness = None
            if not bounded:
                for piece in self.target.pieces:
                    if isinstance(piece, Hyper) and piece.excluded_pole is not None:
                        witness = piece.excluded_pole
                        break
            checks.append(CheckResult("compact", bounded, witness))

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

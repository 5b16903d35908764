"""Nested open-strip certificates around a synthesized function.

A strip is an open planar set whose every vertical cross-section is an open
interval. Around the graph of a synthesized function we place one open ball
per sampled center and level, radius eps_{x,n}, then extend the union of
balls to a strip by taking per-column inf/sup of the chord union. The
radii obey, per level n:

* eps <= 1/n and eps <= eps at the previous level;
* the ball's x-shadow excludes the first n net points a_1..a_n and (in the
  unbounded regimes) the first n empty-slice points c_1..c_n, except the
  center itself;
* net centers stay clear of the first n diameter level sets D_1..D_n
  (Baire-1 regimes);
* backbone centers stay clear of the first n enumerated closed level parts
  W_1..W_n not containing them (unbounded regimes);
* backbone centers obey the one-sided overlap condition: every backbone
  point r in the shadow (within the same level part) has
  f0(r) - f0(x) < 1/n.

Each radius is the least of its level's terms, shrunk, exact in integer
pairs and one Fraction when returned; floats only pick the binding term
(see ``_Radii``). The overlap term comes from monotone inverse images: each
rational graph of a piece is monotone on its span, so the x where it meets
the band {y >= f0(x) + 1/n} (capped at the level band in the unbounded
case), within one span of the center's own level part, is one sub-span
whose integer ends (``band_cut``) are measured from x by cross-multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Piece, RationalGraph, band_cut, float_range, quotient_float, value_floats
from .intervals import ONE, ZERO, RatLike, Span, rat
from .synthesis import SynthFunction, backbones


class ScheduleInfeasibleError(Exception):
    """A separation condition forced a nonpositive radius.

    This signals an inconsistency between the checker and the synthesis
    (the regime preconditions rule it out), so it is an internal error.
    """


# Radii are shrunk by a relative 2^-20 below their maximal legal value so
# that every exclusion stays strict after conversion to floats (the shadow
# boundary frequently lands exactly on the excluded point otherwise).
_SHRINK = Fraction((1 << 20) - 1, 1 << 20)

# Float slack of the strip width checks.
_WIDTH_TOL = 1e-9

# Balls per dense block of a strip level: 32 and 48 were fastest on the
# demos in a sweep of 8 to 128.
_BLOCK = 32


@dataclass(frozen=True)
class EpsilonSchedule:
    depth: int
    columns: Tuple[Fraction, ...]
    kinds: Tuple[str, ...]                 # 'A' | 'C' | 'B' per column
    values: Tuple[Fraction, ...]           # f at each column, exact
    eps: Tuple[Tuple[Fraction, ...], ...]  # [column][level-1]
    sep_index: Dict[int, int]              # column index -> separation level

    @cached_property
    def eps_floats(self) -> np.ndarray:
        """``eps`` as float64 (column, level), each num/den correctly rounded."""
        rows = [[e.numerator / e.denominator for e in row] for row in self.eps]
        return np.array(rows, dtype=float).reshape(len(rows), self.depth)


@dataclass(frozen=True)
class StripLevel:
    n: int
    lo: np.ndarray
    hi: np.ndarray
    chords: np.ndarray


@dataclass(frozen=True)
class StripFamily:
    schedule: EpsilonSchedule
    col_floats: np.ndarray
    f_floats: np.ndarray
    levels: Tuple[StripLevel, ...]


# ---------------------------------------------------------------------------
# Radius schedule
# ---------------------------------------------------------------------------


def epsilon_schedule(f: SynthFunction, centers: Sequence[RatLike]) -> EpsilonSchedule:
    """Choose legal ball radii for every center and level up to f's depth.

    Centers are completed with all net points and empty-slice points; the
    caller supplies at least the verification grid. Columns are sorted by
    float x, and exactly only where floats tie (rounding is monotone); the
    backbone columns take (f0, n_x) off one walk (``backbones``). Columns of
    one kind and one level part share their float work (see ``_Radii``).
    """
    # (float x, x, kind, f(x), rank) by x in lowest terms; net points win, as in f.column.
    cols = {(x.numerator, x.denominator): (quotient_float(x.numerator, x.denominator),
                                           x, "B", None, 0) for x in map(rat, centers)}
    for kind, points in (("C", f.c_values.items()),
                         ("A", (p for level in f.approx.levels for p in level.points))):
        for rank, ((a, b), y) in enumerate(points, 1):
            cols[a, b] = (a / b, Fraction(a, b), kind, Fraction(*y), rank)
    rows = sorted(cols.values())
    walk = backbones(f.target, ((x.numerator, x.denominator) for _, x, kind, _, _ in rows
                                if kind == "B"), f.regime.bounded)
    values: List[Fraction] = []
    groups: Dict[Tuple[str, Optional[int]], List[int]] = {}
    for idx, (_, _, kind, fx, _) in enumerate(rows):
        fx, kx = next(walk)[:2] if kind == "B" else (fx, None)
        values.append(fx)
        groups.setdefault((kind, kx), []).append(idx)
    columns = tuple(row[1] for row in rows)
    sep_index = {idx: rank for idx, (*_, rank) in enumerate(rows) if rank}

    radii = _Radii(f, max((kx for kind, kx in groups if kx is not None), default=None))
    eps_rows: List[Tuple[Fraction, ...]] = [()] * len(columns)
    for (kind, kx), idxs in groups.items():
        xs, fs = [columns[i] for i in idxs], [values[i] for i in idxs]
        for idx, x, fx, (bounds, terms) in zip(idxs, xs, fs, radii.lower_bounds(kind, kx, xs, fs)):
            eps_rows[idx] = radii.row(x, kind, fx, kx, bounds, terms)
    return EpsilonSchedule(f.depth, columns, tuple(row[2] for row in rows), tuple(values),
                           tuple(eps_rows), sep_index)


# Float lower bounds: each is the float term less an allowance for its
# rounding, far above the rounding it covers. x-quantities lie in [0, 1],
# so an absolute 2^-48 covers them; each product of coefficients carries a
# relative 2^-49. A lower bound above float(bound) * _ABOVE is above bound.
_X_SLACK = 2.0 ** -48
_REL = 2.0 ** -49
_ABOVE = 1.0 + 2.0 ** -40
# Elements of one float array of a chunk of columns.
_CHUNK = 1 << 13


def _distance_bounds(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Lower bounds on the distances from x to the spans [lo, hi]."""
    return np.maximum(np.maximum(lo - x, x - hi), 0.0) - _X_SLACK


def _graph_floats(piece: Piece, g: RationalGraph) -> List[float]:
    """(n1, n0, d1, d0) as floats; ``_side`` is homogeneous in them, so a row
    past float range is divided by the power of two taking its largest entry
    below 2^1000, unless a nonzero entry then falls below the normal range."""
    row = (g.n1, g.n0, g.d1, g.d0)
    with float_range(piece):
        try:
            return [float(v) for v in row]
        except OverflowError:
            shift = max(map(abs, row)).bit_length() - 1000
            if any(v and abs(v).bit_length() <= shift - 1022 for v in row):
                raise
            return [v / (1 << shift) for v in row]


def _span_floats(spans: Sequence[Span]) -> Tuple[np.ndarray, np.ndarray]:
    """The spans' lower and upper ends as floats, each num/den correctly
    rounded."""
    ends = np.array([[n / d for n, d, _ in s] for s in spans]).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def _coefficients(graphs: Sequence[RationalGraph], table: np.ndarray) -> List[np.ndarray]:
    """(n1, n0, d1, d0) of each graph, its row of ``table`` as floats, and
    whether it is flat (n1 = d1 = 0), shaped to broadcast over columns and
    levels."""
    flat = np.array([g.n1 == g.d1 == 0 for g in graphs], dtype=bool)
    return [v[:, None, None] for v in (*table.T, flat)]


def _side(coef: List[np.ndarray], theta: np.ndarray, theta_err: np.ndarray,
          up: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float bounds on the x of each graph where y >= theta (up = 1) or
    y <= theta (up = -1), cut as ``RationalGraph.cut`` cuts them at r = b/a,
    a = n1 - theta d1, b = theta d0 - n0 (d1 x + d0 > 0): whether it is surely
    empty (a flat graph keeps all or nothing), a lower bound on its lower end
    and an upper bound on its upper end, neither where the sign of a is not
    sure or r or its error leaves float range. The errors of a, b and r
    follow from ``theta_err`` and each rounding; overflow and inf - inf read
    as not sure, not as warnings."""
    n1, n0, d1, d0, flat = coef
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = n1 - theta * d1, theta * d0 - n0
        a_err = _REL * (abs(n1) + abs(theta * d1)) + 2 * abs(d1) * theta_err
        b_err = _REL * (abs(n0) + abs(theta * d0)) + 2 * abs(d0) * theta_err
        sure = abs(a) > 4 * a_err
        a = np.where(sure, a, 1.0)
        r = b / a
        r_err = 2 * (b_err + abs(r) * a_err) / abs(a) + _REL * abs(r)
        sure &= np.isfinite(r_err)  # r_err >= |r| 2^-49: r is finite too
        lo_end = np.where(sure & (up * a > 0), r - r_err, -np.inf)
        hi_end = np.where(sure & (up * a < 0), r + r_err, np.inf)
        return flat & (up * b > b_err), lo_end, hi_end


class _Radii:
    """The radii of one schedule: floats pick the binding term, exact
    rationals compute only that one.

    A column's terms at level n are the gaps to a_n and c_n (terms 0, 1),
    its distance to D_n or W_n (term 2) and, at a backbone center, to each
    overlap shadow met with a span of its level part (terms 3 on). Taken in
    rising float lower bounds, a term is computed exactly only while its
    bound is not above the least exact term so far: each radius is still
    the least exact term of its level, 1/n and the previous radius. All are
    integer (num, den) pairs compared by cross-multiplication (an overlap
    term: the cut's ends, and its distance to x); a row builds one Fraction
    per radius, when it takes it, and f0(x) + 1/n once for the cuts.

    The float tables are built once: the levels' points and spans, and per
    band of the target the coefficients of its upper graph (for y >= theta_n)
    and lower graph (for y <= k_x) and its domain. In the unbounded regimes
    the overlap terms read only y in [-k_x, k_x], so only the bands that meet
    y in [-cap, cap] are kept, cap the largest k_x of the backbone columns
    (None: no backbone column, no band).
    """

    def __init__(self, f: SynthFunction, cap: Optional[int]):
        depth, unbounded = f.depth, not f.regime.bounded
        self.f, self.depth = f, depth
        self.inv_f = 1.0 / np.arange(1, depth + 1)
        self.a_first = f.approx.a_enumeration[:depth]
        self.c_first = [(p.numerator, p.denominator) for p in f.c_points[:depth] if unbounded]
        self.d_levels = f.analysis.d_levels(depth) if f.regime.baire1 else []
        self.w_parts = [w for _, w in f.analysis.w_parts(depth)[:depth]] if unbounded else []
        # Per level, the float spans of terms 0 and 1, and of term 2 by kind.
        self.gap_spans = [[(np.array([num / den]),) * 2 for num, den in points]
                          for points in (self.a_first, self.c_first)]
        self.sep_spans = {"A": [_span_floats(dn.spans) for dn in self.d_levels],
                          "B": [_span_floats([w]) for w in self.w_parts], "C": []}
        bands = [(piece, band) for piece in f.target.pieces for band in piece.bands()
                 if not unbounded or cap is not None and band_cut(band, -cap, cap)]
        self.bands = [band for _, band in bands]
        self.domain = _span_floats([lower.dom for lower, _ in self.bands])
        # Per band, (n1, n0, d1, d0) of its lower and of its upper graph.
        table = np.array([_graph_floats(piece, lower) + _graph_floats(piece, upper)
                          for piece, (lower, upper) in bands]).reshape(-1, 8)
        self.lower, self.upper = (_coefficients([band[k] for band in self.bands], table[:, c:c + 4])
                                  for k, c in ((0, 0), (1, 4)))
        self._pairs: Dict[Optional[int], tuple] = {}

    def pairs(self, kx: Optional[int]) -> tuple:
        """The (band, span) pairs of V_kx ([0, 1] when kx is None) whose domains
        may meet: band numbers, float bounds on the meeting, and the pairs."""
        if kx not in self._pairs:
            spans = self.f.analysis.v_part(kx).spans if kx is not None else (Span(ZERO, ONE),)
            v_lo, v_hi = _span_floats(spans)
            lo, hi = np.maximum.outer(v_lo, self.domain[0]), np.minimum.outer(v_hi, self.domain[1])
            vs, es = np.nonzero(lo - hi <= _X_SLACK)
            self._pairs[kx] = (es, lo[vs, es, None, None], hi[vs, es, None, None],
                               [(e, spans[v]) for v, e in zip(vs.tolist(), es.tolist())])
        return self._pairs[kx]

    def lower_bounds(self, kind: str, kx: Optional[int], xs: Sequence[Fraction],
                     fs: Sequence[Fraction]) -> Iterator[Tuple[List[List[float]], List[List[int]]]]:
        """Per column of one kind and level part (f0 at each in ``fs``) and per
        level, its terms' lower bounds in rising order up to the last at most
        1/n, and their term numbers; in chunks of under _CHUNK elements."""
        # Only a backbone column has overlap terms, one per pair, and its
        # float tables hold one row per band.
        width = 3 + (max(len(self.pairs(kx)[0]), len(self.bands)) if kind == "B" else 0)
        step = max(1, _CHUNK // (width * self.depth))
        for start in range(0, len(xs), step):
            x = np.array([float(v) for v in xs[start:start + step]])[:, None]
            lbs = np.full((len(x), self.depth, 3), np.inf)
            for t, levels in enumerate((*self.gap_spans, self.sep_spans[kind])):
                for i, (lo, hi) in enumerate(levels):
                    if len(lo):
                        lbs[:, i, t] = _distance_bounds(x, lo, hi).min(axis=1)
            if kind == "B":
                fx = value_floats(list(zip(xs[start:start + step], fs[start:start + step])))
                lbs = np.concatenate([lbs, self._overlap(x, fx, kx)], axis=2)
            order = np.argsort(lbs, axis=2, kind="stable")
            lbs = np.take_along_axis(lbs, order, axis=2)
            keep = np.count_nonzero(lbs <= self.inv_f[:, None] * _ABOVE, axis=2).max(axis=1)
            for c, k in enumerate(keep.tolist()):
                yield lbs[c, :, :k].tolist(), order[c, :, :k].tolist()

    def _overlap(self, x: np.ndarray, fs: List[float], kx: Optional[int]) -> np.ndarray:
        """Lower bounds of the overlap terms, shape (column, level, pair)."""
        es, p_lo, p_hi, _ = self.pairs(kx)
        fx = np.array(fs)[:, None]
        theta = fx + self.inv_f if kx is None else np.maximum(fx + self.inv_f, -float(kx))
        empty, lo, hi = _side(self.upper, theta, _REL * (abs(fx) + 1), 1)
        if kx is not None:
            cap = _side(self.lower, np.float64(kx), _REL * kx, -1)
            empty, lo, hi = empty | cap[0], np.maximum(lo, cap[1]), np.minimum(hi, cap[2])
        lo, hi = np.maximum(lo[es], p_lo), np.minimum(hi[es], p_hi)
        over = np.where(empty[es] | (lo - hi > _X_SLACK), np.inf, _distance_bounds(x, lo, hi))
        return np.moveaxis(over, 0, 2)

    def row(self, x: Fraction, kind: str, fx: Fraction, kx: Optional[int],
            bounds: List[List[float]], terms: List[List[int]]) -> Tuple[Fraction, ...]:
        """The exact radii of one column (f0(x) = fx at a backbone center)
        from the lower bounds and term numbers of each level."""
        row: List[Fraction] = []
        xn, xd = x.numerator, x.denominator
        pn, pd = 1, 0  # the previous radius, (1, 0) above every 1/n
        for i in range(self.depth):
            n = i + 1
            # A term first read at level m is at least that level's unshrunk
            # bound, hence above prev: only level n's own terms can lower it.
            bn, bd = (pn, pd) if pn * n < pd else (1, n)
            limit = bn / bd * _ABOVE
            band: Optional[Tuple[Fraction, Optional[int]]] = None
            for lower, j in zip(bounds[i], terms[i]):
                if lower > limit:
                    break
                # Each term's distances to x as (num, den), compared with the
                # bound by cross-multiplication.
                if j < 2:
                    qn, qd = (self.a_first, self.c_first)[j][i]
                    gaps = [(abs(xn * qd - qn * xd), xd * qd)] if (qn, qd) != (xn, xd) else []
                elif j == 2:
                    # Level n's separation set: D_n, or W_n unless it holds x.
                    if kind == "A":
                        spans = self.d_levels[i].spans
                        clash = "net point {x} touches diameter level set {n}"
                    else:
                        w = self.w_parts[i]
                        spans = [] if w.holds(xn, xd) else [w]
                        clash = "backbone center {x} touches a foreign level part"
                    gaps = [s.gap(xn, xd) for s in spans]
                    if any(num == 0 for num, _ in gaps):
                        raise ScheduleInfeasibleError(clash.format(x=x, n=n))
                else:
                    # Offending r: f0(r) >= f0(x) + 1/n (and <= k_x), on one
                    # band of the target, in one span of the level part.
                    e, v = self.pairs(kx)[3][j - 3]
                    if band is None:  # theta = fx + 1/n as one pair, at least -k_x
                        tn, td = fx.numerator * n + fx.denominator, fx.denominator * n
                        band = (Fraction(tn, td) if kx is None or tn >= -kx * td else -kx, kx)
                    if (cut := band_cut(self.bands[e], *band, v)) is None:
                        continue
                    gaps = [cut.gap(xn, xd)]
                    if gaps[0][0] == 0:
                        raise ScheduleInfeasibleError(
                            f"overlap condition unsatisfiable at center {x}, level {n}")
                for num, den in gaps:
                    if num * bd < bn * den:
                        bn, bd = num, den
                        limit = num / den * _ABOVE
            if bn <= 0:
                raise ScheduleInfeasibleError(
                    f"radius collapsed to {Fraction(bn, bd)} at center {x}, level {n}")
            row.append(Fraction(bn * _SHRINK.numerator, bd * _SHRINK.denominator))
            pn, pd = row[-1].numerator, row[-1].denominator
        return tuple(row)


# ---------------------------------------------------------------------------
# Strip construction
# ---------------------------------------------------------------------------


def build_strip(sched: EpsilonSchedule, n: int,
                col_floats: np.ndarray, f_floats: np.ndarray) -> StripLevel:
    """One strip level: per-column (inf, sup) over the union of ball chords.

    ``col_floats`` and ``f_floats`` are the columns and f at the columns as
    floats, shared by all levels of a family. Ball i covers the columns of
    its window [left_i, right_i), the columns strictly within its float
    radius e_i, with the chord f_i -+ sqrt(max(e_i^2 - dx^2, 0)). The balls
    are taken in blocks of _BLOCK: each block is one dense (ball x union of
    windows) array of half-chords, -inf outside each ball's own window, and
    is reduced with min and max, which are exact, so the order of the balls
    does not matter. Chord counts come from a difference array over the
    window ends. A ball whose own column fell out of its window through
    float rounding of a tiny radius still covers that column with f_i -+ e_i.
    """
    m = len(col_floats)
    e = sched.eps_floats[:, n - 1]
    e2 = e * e
    left = np.searchsorted(col_floats, col_floats - e, side="right")
    right = np.searchsorted(col_floats, col_floats + e, side="left")
    index = np.arange(m)
    lo = np.full(m, np.inf)
    hi = np.full(m, -np.inf)
    for b in range(0, m, _BLOCK):
        balls = slice(b, b + _BLOCK)
        start, stop = left[balls].min(), right[balls].max()
        if start >= stop:
            continue
        cols = index[start:stop]
        dx = col_floats[start:stop] - col_floats[balls, None]
        hw = np.sqrt(np.maximum(e2[balls, None] - dx * dx, 0.0))
        # Outside its window a ball's chord is empty: f - hw = inf, f + hw = -inf.
        hw[(cols < left[balls, None]) | (cols >= right[balls, None])] = -np.inf
        fc = f_floats[balls, None]
        np.minimum(lo[start:stop], (fc - hw).min(axis=0), out=lo[start:stop])
        np.maximum(hi[start:stop], (fc + hw).max(axis=0), out=hi[start:stop])
    ok = left < right
    cnt = np.cumsum(np.bincount(left[ok], minlength=m + 1)
                    - np.bincount(right[ok], minlength=m + 1))[:m]
    own = (index < left) | (index >= right)
    lo[own] = np.minimum(lo[own], f_floats[own] - e[own])
    hi[own] = np.maximum(hi[own], f_floats[own] + e[own])
    cnt[own] += 1
    return StripLevel(n, lo, hi, cnt)


def build_strip_family(sched: EpsilonSchedule) -> StripFamily:
    col_floats = np.array([float(x) for x in sched.columns])
    f_floats = np.array([float(v) for v in sched.values])
    levels = tuple(build_strip(sched, n, col_floats, f_floats) for n in range(1, sched.depth + 1))
    return StripFamily(sched, col_floats, f_floats, levels)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripLevelReport:
    n: int
    nesting_ok: bool
    coverage_ok: bool
    max_width_a: float
    max_width_c: float
    max_width_backbone: float
    a_width_ok: bool
    c_width_ok: bool
    single_chord_ok: bool
    backbone_bound_ok: bool

    def line(self) -> str:
        return (
            f"STRIP n={self.n}"
            f" nesting={'OK' if self.nesting_ok else 'FAIL'}"
            f" coverage={'OK' if self.coverage_ok else 'FAIL'}"
            f" max_width_A={self.max_width_a:.6g}"
            f" max_width_C={self.max_width_c:.6g}"
        )


@dataclass(frozen=True)
class StripReport:
    levels: Tuple[StripLevelReport, ...]

    @property
    def passed(self) -> bool:
        return all(lvl.nesting_ok and lvl.coverage_ok and lvl.a_width_ok and lvl.c_width_ok
                   and lvl.single_chord_ok and lvl.backbone_bound_ok for lvl in self.levels)

    def lines(self) -> List[str]:
        out = [lvl.line() for lvl in self.levels]
        out.append(f"STRIPS {'PASS' if self.passed else 'FAIL'}")
        return out


def _own_chord_covers(eps: Fraction, e: float, f: float, lo: float, hi: float) -> bool:
    """Whether f on an end of its float cross-section (lo, hi) is inside its
    own chord, radius eps (e as a float): the end rounds onto f, and eps > 0 decides."""
    h = math.sqrt(e ** 2)  # the float half-chord at the column
    return eps > 0 and (lo < f or f - h == lo) and (f < hi or f + h == hi)


def verify_strips(family: StripFamily, f: SynthFunction) -> StripReport:
    """Check nesting, coverage and column collapse of a strip family.

    Collapse is asserted at net and empty-slice columns once the level has
    passed the column's separation index: the cross-section there is a
    single chord of width at most 2/n. Backbone columns off the
    multi-valued set are checked against 2/n plus twice the local spread
    of function values within ball reach.

    Each check is an array reduction per level over masks built once. A
    backbone column's window of columns within 1/n holds the column itself;
    reduceat spans the window ends. Coverage reads the exact radius only
    where the float cross-section does not hold f strictly inside.
    """
    sched, cols, fv = family.schedule, family.col_floats, family.f_floats
    kinds = np.array(sched.kinds)
    sep = np.full(len(cols), np.inf)
    sep[list(sched.sep_index)] = list(sched.sep_index.values())
    classes, backbone = (kinds == "A", kinds == "C"), kinds == "B"
    spans, j = (*f.analysis.d_set.spans, Span(2, 2)), 0  # the last span lies past every column
    for i, x in enumerate(sched.columns):  # ascending: one walk along the spans of D
        while (e := spans[j][1])[0] * x.denominator - x.numerator * e[1] < e[2]:
            j += 1
        backbone[i] &= not spans[j].holds(x.numerator, x.denominator)
    cb, padded = cols[backbone], np.append(fv, 0.0)  # a window may end at len(fv)

    reports: List[StripLevelReport] = []
    for prev, level in zip((None, *family.levels), family.levels):
        n = level.n
        nesting_ok = prev is None or bool(np.all(level.lo >= prev.lo)
                                          and np.all(level.hi <= prev.hi))
        inside = (level.lo < fv) & (fv < level.hi)
        coverage_ok = all(_own_chord_covers(sched.eps[i][n - 1], float(sched.eps_floats[i, n - 1]),
                                            fv[i], level.lo[i], level.hi[i])
                          for i in np.flatnonzero(~inside))
        widths = level.hi - level.lo
        # Net and empty-slice columns past their separation index.
        stats = []
        for sel in (mask & (sep <= n) for mask in classes):
            w = float(widths[sel].max()) if sel.any() else 0.0
            stats.append((w, w <= 2.0 / n + _WIDTH_TOL, bool(np.all(level.chords[sel] == 1))))
        (max_a, a_ok, a_single), (max_c, c_ok, c_single) = stats
        # Backbone residual: width within 2/n plus twice the spread of
        # center values within the maximal shadow 1/n.
        ends = np.stack([np.searchsorted(cols, cb - 1.0 / n, side="right"),
                         np.searchsorted(cols, cb + 1.0 / n, side="left")], axis=1).ravel()
        osc = np.maximum.reduceat(padded, ends)[::2] - np.minimum.reduceat(padded, ends)[::2]
        w_b = widths[backbone]
        reports.append(StripLevelReport(
            n, nesting_ok, coverage_ok, max_a, max_c, float(w_b.max(initial=0.0)), a_ok, c_ok,
            a_single and c_single, not np.any(w_b > 2.0 / n + 2.0 * osc + _WIDTH_TOL)))
    return StripReport(tuple(reports))

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

The overlap radius is computed exactly from monotone inverse images: each
rational graph of a piece is monotone on its span, so the x where it meets
the band {y >= f0(x) + 1/n} (capped at the level band in the unbounded case)
is one sub-span, cut with one division per bound. The radius is the exact
rational distance from the center to these shadows within the center's own
level part, over the pieces nearer than the running bound only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Piece
from .intervals import ONE, ZERO, RatLike, Span, rat, span_intersection
from .synthesis import SynthFunction, level_index


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


@dataclass(frozen=True)
class EpsilonSchedule:
    depth: int
    columns: Tuple[Fraction, ...]
    kinds: Tuple[str, ...]                 # 'A' | 'C' | 'B' per column
    values: Tuple[Fraction, ...]           # f at each column, exact
    eps: Tuple[Tuple[Fraction, ...], ...]  # [column][level-1]
    sep_index: Dict[int, int]              # column index -> separation level


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
    caller supplies at least the verification grid.
    """
    depth = f.depth
    col_set = {rat(c) for c in centers}
    col_set.update(f.a_values.keys())
    col_set.update(f.c_values.keys())
    columns = tuple(sorted(col_set))
    kinds = tuple(f.classify(x) for x in columns)

    a_enum = f.approx.a_enumeration
    a_first = a_enum[:depth]
    unbounded = not f.regime.bounded
    c_first = list(f.c_points)[:depth] if unbounded else []
    d_levels = f.analysis.d_levels(depth) if f.regime.baire1 else []
    w_parts = f.analysis.w_parts(depth)[:depth] if unbounded else []
    pieces = [(p.domain(), p) for p in f.target.pieces]

    a_rank = {x: i + 1 for i, x in enumerate(a_enum)}
    c_rank = {c: i + 1 for i, c in enumerate(f.c_points)}

    values: List[Fraction] = []
    eps_rows: List[Tuple[Fraction, ...]] = []
    sep_index: Dict[int, int] = {}

    for idx, x in enumerate(columns):
        kind = kinds[idx]
        if kind == "A":
            sep_index[idx] = a_rank[x]
        elif kind == "C":
            sep_index[idx] = c_rank[x]
        else:
            fx = f.backbone_value(x)
            kx = level_index(f.target, x) if unbounded else None
            near = pieces
            v_near = f.analysis.v_part(kx).spans if unbounded else (Span(ZERO, ONE),)
        # Net and enumeration values are lookups; the backbone value is fx.
        values.append(fx if kind == "B" else f.evaluate(x))
        row: List[Fraction] = []
        prev: Optional[Fraction] = None
        for n in range(1, depth + 1):
            bound = Fraction(1, n)
            if prev is not None and prev < bound:
                bound = prev
            # A term first read at level m is at least that level's unshrunk
            # bound, hence above prev: only level n's own terms can lower it.
            i = n - 1
            for points in (a_first, c_first):
                if i < len(points) and points[i] != x and (gap := abs(x - points[i])) < bound:
                    bound = gap
            # Level n's separation set: D_n, or W_n unless it holds x.
            sep: Optional[Fraction] = None
            if kind == "A" and i < len(d_levels):
                sep = d_levels[i].distance_to(x)
                clash = "net point {x} touches diameter level set {n}"
            elif kind == "B" and i < len(w_parts) and not w_parts[i][1].contains(x):
                sep = w_parts[i][1].distance_to(x)
                clash = "backbone center {x} touches a foreign level part"
            if sep == 0:
                raise ScheduleInfeasibleError(clash.format(x=x, n=n))
            if sep is not None and sep < bound:
                bound = sep
            if kind == "B":
                # What lies no nearer than the bound cannot lower it, and
                # the bound only falls with n: the lists only shrink.
                near = [(dom, p) for dom, p in near if dom.distance_to(x) < bound]
                v_near = [v for v in v_near if v.distance_to(x) < bound]
                over = _overlap_bound(near, v_near, x, fx, kx, n)
                if over is not None and over < bound:
                    bound = over
            if bound <= 0:
                raise ScheduleInfeasibleError(
                    f"radius collapsed to {bound} at center {x}, level {n}"
                )
            bound *= _SHRINK
            row.append(bound)
            prev = bound
        eps_rows.append(tuple(row))

    return EpsilonSchedule(depth, columns, kinds, tuple(values), tuple(eps_rows), sep_index)


def _overlap_bound(near: Sequence[Tuple[Span, Piece]], v_near: Sequence[Span], x: Fraction,
                   fx: Fraction, kx: Optional[int], n: int) -> Optional[Fraction]:
    """Exact largest radius respecting f0(r) - f0(x) < 1/n on the shadow.

    Offending points r are the inverse image of the band y >= f0(x) + 1/n
    (capped at the level band |y| <= k_x in the unbounded regimes): the band
    shadows of the pieces ``near`` the center, met with the spans ``v_near``
    (the center's own level part, or [0, 1] in the bounded regimes). The
    bound is the distance to the closure of that set, which never holds the
    center, so the bound is positive.
    """
    lo, hi = fx + Fraction(1, n), None
    if kx is not None:
        hi = Fraction(kx)
        lo = max(lo, -hi)
    spans = [span_intersection(shadow, v) for _, piece in near
             for shadow in piece.shadow(lo, hi) for v in v_near]
    d = min((s.distance_to(x) for s in spans if s is not None), default=None)
    if d == 0:
        raise ScheduleInfeasibleError(
            f"overlap condition unsatisfiable at center {x}, level {n}"
        )
    return d


# ---------------------------------------------------------------------------
# Strip construction
# ---------------------------------------------------------------------------


def build_strip(sched: EpsilonSchedule, n: int,
                col_floats: np.ndarray, f_floats: np.ndarray) -> StripLevel:
    """One strip level: per-column (inf, sup) over the union of ball chords.

    ``col_floats`` and ``f_floats`` are the columns and f at the columns as
    floats, shared by all levels of a family.
    """
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


def build_strip_family(sched: EpsilonSchedule) -> StripFamily:
    col_floats = np.array([float(x) for x in sched.columns])
    f_floats = np.array([float(v) for v in sched.values])
    levels = tuple(
        build_strip(sched, n, col_floats, f_floats)
        for n in range(1, sched.depth + 1)
    )
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
    passed: bool

    def lines(self) -> List[str]:
        out = [lvl.line() for lvl in self.levels]
        out.append(f"STRIPS {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_strips(family: StripFamily, f: SynthFunction) -> StripReport:
    """Check nesting, coverage and column collapse of a strip family.

    Collapse is asserted at net and empty-slice columns once the level has
    passed the column's separation index: the cross-section there is a
    single chord of width at most 2/n. Backbone columns off the
    multi-valued set are checked against 2/n plus twice the local spread
    of function values within ball reach.
    """
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

    reports: List[StripLevelReport] = []
    prev: Optional[StripLevel] = None
    all_ok = True
    for level in family.levels:
        n = level.n
        nesting_ok = True
        if prev is not None:
            nesting_ok = bool(
                np.all(level.lo >= prev.lo) and np.all(level.hi <= prev.hi)
            )
        coverage_ok = bool(np.all((level.lo < fv) & (fv < level.hi)))
        widths = level.hi - level.lo
        bound = 2.0 / n + _WIDTH_TOL

        def class_stats(kind: str) -> Tuple[float, bool, bool]:
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
    return StripReport(tuple(reports), all_ok)

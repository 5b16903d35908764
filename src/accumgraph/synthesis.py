"""Witness-function synthesis.

Given a target set that passes a regime's checks, build the function whose
graph accumulates exactly on the target:

* a countable approximation net: for each level n, a finite set H_n of
  points within 1/n of T_n = T intersected with the band |y| <= n, whose
  1/n-balls cover T_n, with all x coordinates pairwise distinct across
  levels and avoiding a prescribed interval-free set;
* a backbone: max of the slice (bounded regimes) or the largest slice value
  whose magnitude does not exceed the minimal admissible level n_x
  (unbounded regimes);
* values on the empty-slice set C: |f(c_k)| = k, signed toward the
  divergence direction of the extended closure when requested.

Net sampling uses nested dyadic subdivision anchored on each piece, so a
sample site of level n is revisited by every deeper level: the finite
analogue of the net's defining property, which lets a cluster-based
estimator recover two-dimensional and curved regions of the target. A
graph's node table lasts across levels, so each node is evaluated once.
Net points are integer pairs (numerator, denominator) in lowest terms from
the node table to the graph sample; a Fraction is built only where a caller
reads an exact value. Placement keys x by its pair: a new x stays (the
fast path), a revisited one slides by 1/q in x, or in y along a graph too
steep for that, x from its exact inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .conditions import Regime, TargetAnalysis, Verdict
from .geometry import EmptySliceError, RationalGraph, TargetSet, quotient_float
from .intervals import ONE, ZERO, Pair, RatLike, XSet, lowest, rat


class RegimeUnsatisfiedError(Exception):
    """Synthesis requested for a target that fails the regime checks."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        failed = [c.name for c in verdict.checks if not c.passed]
        super().__init__(
            f"target does not satisfy regime {verdict.regime.value}: "
            f"failed checks {failed}"
        )


class NetPlacementError(Exception):
    """Internal failure to place a net point off the avoid set."""


# ---------------------------------------------------------------------------
# Countable approximation net
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetLevel:
    n: int
    points: Tuple[Tuple[Pair, Pair], ...]


@dataclass(frozen=True)
class CountableApprox:
    levels: Tuple[NetLevel, ...]
    depth: int

    @property
    def a_enumeration(self) -> List[Pair]:
        """All net x coordinates in construction order: a_1, a_2, ..."""
        return [x for level in self.levels for x, _ in level.points]

    def a_values(self) -> Dict[Pair, Pair]:
        return {x: y for level in self.levels for x, y in level.points}

    def level_sizes(self) -> List[int]:
        return [len(level.points) for level in self.levels]


def _dyadic_pitch_at_most(bound: Fraction) -> Fraction:
    """Largest power of two (including 2^0) not exceeding bound."""
    pitch = ONE
    while pitch > bound:
        pitch /= 2
    return pitch


def _curve_spacing(n: int) -> Fraction:
    # s/2 of along-curve gap plus the placement displacement cap 1/(16n)
    # must stay within 1/n, so s <= 15/(8n).
    return _dyadic_pitch_at_most(Fraction(15, 8 * n))

_SQRT2_OVER_2_UPPER = Fraction(70711, 100000)  # > sqrt(2)/2


def _grid_pitch(n: int) -> Fraction:
    # Cell radius pitch*sqrt(2)/2 plus displacement 1/(16n) within 1/n.
    bound = Fraction(15, 16 * n) / _SQRT2_OVER_2_UPPER
    return _dyadic_pitch_at_most(bound)


class _Placer:
    """Assigns final x coordinates: pairwise distinct, off the avoid set.

    Samples come in and go out as (x, y) pairs, kept as such through to the
    graph sample. ``taken`` keys each used or avoided x by its pair, so the
    avoid set must be finite. A sample whose x in [0, 1] is not taken stays
    put (the fast path). Otherwise it slides by +-1/q, positive side first,
    halving q after each pair: along its graph where the graph's domain
    holds the new x, and level otherwise. The first offset is the least of
    1/(16 n j) at global index j (well under the 1/(4 n j) budget) and
    2^-12, so collocated samples from different levels stay inside one
    clustering cell; the displacement is at most min(1/(16 n), 2^-10). Where
    every x offset moves y too far along a steep graph, the same offsets
    move y, and x comes from the graph's exact inverse.
    """

    _ABS_CAP = Fraction(1, 4096)

    def __init__(self, avoid: XSet):
        if avoid.contains_interval():
            raise ValueError("avoid set must contain no interval")
        self.taken = {(x.numerator, x.denominator) for x in avoid.isolated_points()}
        self.index = 0

    def place(self, x: Pair, y: Pair, n: int, graph: RationalGraph) -> Tuple[Pair, Pair]:
        self.index += 1
        num, den = x
        if 0 <= num <= den and x not in self.taken:
            self.taken.add(x)
            return x, y
        q0, m = max(16 * n * self.index, self._ABS_CAP.denominator), max(16 * n, 1024)
        yn, yd = y
        n1, n0, d1, d0 = graph.n1, graph.n0, graph.d1, graph.d0
        for k in range(399):
            # The offsets +1/q0, -1/q0, then half the step: q >= q0 >= m.
            q = q0 << (k // 2)
            top, bot = num * q + (-den if k % 2 else den), den * q
            if not 0 <= top <= bot:
                continue
            a, b = lowest(top, bot)
            if (a, b) in self.taken:
                continue
            y2 = y
            if graph.dom.holds(a, b):
                # The displacement test 1/q^2 + dy^2 > 1/m^2, in integers, on
                # the unreduced dy = p/r - y: the test is homogeneous in it.
                p, r = n1 * a + n0 * b, d1 * a + d0 * b
                if ((p * yd - yn * r) * q * m) ** 2 > (r * yd) ** 2 * (q * q - m * m):
                    continue
                y2 = lowest(p, r)
            self.taken.add((a, b))
            return (a, b), y2
        for k in range(399):
            # The same offsets in y, x = (D0 y - N0)/(N1 - D1 y) on the graph.
            q = q0 << (k // 2)
            tn, td = yn * q + (-yd if k % 2 else yd), yd * q
            if n1 * td == d1 * tn:
                continue
            a, b = lowest(d0 * tn - n0 * td, n1 * td - d1 * tn)
            if not 0 <= a <= b or (a, b) in self.taken or not graph.dom.holds(a, b) or \
                    ((a * den - num * b) * q * m) ** 2 > (b * den) ** 2 * (q * q - m * m):
                continue
            self.taken.add((a, b))
            return (a, b), lowest(tn, td)
        raise NetPlacementError(
            f"could not place a net point near x={Fraction(*x)} off the avoid set")


def lemma31_net(target: TargetSet, depth: int, avoid: XSet = XSet.empty()) -> CountableApprox:
    """Finite truncation of the countable approximation net.

    For each n <= depth, H_n is a finite set of points within 1/n of
    T_n = T intersected with |y| <= n whose 1/n-balls cover T_n.
    Representative points lie on the pieces wherever sliding is possible;
    all x coordinates are pairwise distinct across levels and avoid the
    given interval-free set.
    """
    if target.is_empty:
        raise ValueError("cannot build a net for an empty target set")
    if depth < 1:
        raise ValueError("net depth must be positive")
    placer = _Placer(avoid)
    levels: List[NetLevel] = []
    for n in range(1, depth + 1):
        pitches = _grid_pitch(n), _curve_spacing(n)
        samples = (s for piece in target.pieces for s in piece.net_samples(n, *pitches))
        levels.append(NetLevel(n, tuple(placer.place(x, y, n, graph) for x, y, graph in samples)))
    return CountableApprox(tuple(levels), depth)


# ---------------------------------------------------------------------------
# Backbones
# ---------------------------------------------------------------------------


def backbone(target: TargetSet, x: RatLike, bounded: bool) -> Tuple[Fraction, Optional[int]]:
    """(f0, n_x) at x, off one slice; raises EmptySliceError on an empty one.

    Bounded regimes: f0 is the max of the slice and n_x is None. Unbounded:
    n_x = max(1, ceil(min |y| over the slice)), where a band holding 0
    counts 0, the minimal n with a slice value of magnitude at most n (it
    agrees with membership in the level sets U_n without any depth
    truncation); f0 is the largest slice value of magnitude at most n_x."""
    x = rat(x)
    return backbone_at(target.live_bands(x), x.numerator, x.denominator, bounded)[:2]


def backbone_at(bands: Sequence[Tuple[RationalGraph, RationalGraph]], a: int, b: int,
                bounded: bool) -> Tuple[Fraction, Optional[int], float]:
    """``backbone``'s (f0, n_x) and the float of f0 at x = a/b (b > 0), off
    the (lower, upper) graphs of the bands alive there. Each y is the
    integer quotient (n1 a + n0 b)/(d1 a + d0 b): n_x is the least ceil of
    a band's |y| in integers, and floats, correctly rounded and so monotone,
    pick f0 but for ties, which the integers break."""
    if not bands:
        raise EmptySliceError(f"empty slice at x={Fraction(a, b)}")

    def at(g: RationalGraph) -> Tuple[int, int, float]:
        num, den = g.n1 * a + g.n0 * b, g.d1 * a + g.d0 * b
        return num, den, quotient_float(num, den)

    his, n = [at(hi) for _, hi in bands], None
    if not bounded:
        los = [h if lo is hi else at(lo) for (lo, hi), h in zip(bands, his)]
        n = max(1, min(-(-lo[0] // lo[1]) if lo[0] > 0 else -(hi[0] // hi[1]) if hi[0] < 0 else 0
                       for lo, hi in zip(los, his)))
        # Bands above n_x drop out; one below -n_x cannot hold the max.
        cap = quotient_float(n, 1)
        his = [(*hi[:2], min(hi[2], cap)) for lo, hi in zip(los, his) if lo[0] <= n * lo[1]]
    best = max(h[2] for h in his)
    return max(Fraction(h[0], h[1]) if n is None or h[0] < n * h[1] else Fraction(n)
               for h in his if h[2] == best), n, best


def backbones(target: TargetSet, xs: Iterable[Tuple[int, int]], bounded: bool) -> Iterator[tuple]:
    """``backbone_at`` at each x = a/b (b > 0) of an ascending sequence, off
    one walk over the target's sorted span ends by cross-multiplication: x
    takes the bands of end k where it is end k, else of the cell before it."""
    ends, alive = target._index
    keys, k = [(e.numerator, e.denominator) for e in ends] + [(1, 0)], 0  # (1, 0): past every x
    for a, b in xs:
        if not 0 <= a <= b:
            raise ValueError(f"x={Fraction(a, b)} outside [0, 1]")
        while keys[k][0] * b < a * keys[k][1]:
            k += 1
        yield backbone_at(alive[2 * k + (keys[k][0] * b == a * keys[k][1])], a, b, bounded)


# ---------------------------------------------------------------------------
# Values on the empty-slice set
# ---------------------------------------------------------------------------


def f_on_c(c_points: Sequence[Fraction], target: TargetSet,
           signed: bool) -> Dict[Pair, Pair]:
    """Assign |f(c_k)| = k along the enumeration, by c_k, as pairs.

    Unsigned: f(c_k) = k. Signed: the sign follows the divergence direction
    of the extended closure above c_k, positive winning when both or
    neither direction occurs.
    """
    return {(c.numerator, c.denominator): (-k if signed and target.pole_signs(c) == {-1} else k, 1)
            for k, c in enumerate(c_points, start=1)}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthFunction:
    """The synthesized witness function, evaluable at exact rationals.

    Evaluation order: net value if x carries a net point, else the
    enumeration value if x is in the empty-slice set, else the backbone.
    ``a_values`` and ``c_values`` map x to f(x) as pairs. ``analysis`` is
    the target's analysis that synthesis used; the strip certificates read
    the same one.
    """

    regime: Regime
    target: TargetSet
    analysis: TargetAnalysis = field(repr=False, compare=False)
    approx: CountableApprox
    c_points: Tuple[Fraction, ...]
    c_values: Dict[Pair, Pair]
    signed: bool
    depth: int
    a_values: Dict[Pair, Pair] = field(repr=False, default_factory=dict)

    def column(self, x: RatLike) -> Tuple[str, Fraction, Optional[int]]:
        """(kind, f(x), n_x) at x: "A" and the net value, "C" and the
        enumeration value, or "B" and the backbone, with n_x in the unbounded
        regimes (None elsewhere)."""
        x = rat(x)
        if not ZERO <= x <= ONE:
            raise ValueError(f"x={x} outside [0, 1]")
        key = x.numerator, x.denominator
        for kind, values in (("A", self.a_values), ("C", self.c_values)):
            if key in values:
                return kind, Fraction(*values[key]), None
        return ("B", *backbone(self.target, x, self.regime.bounded))

    def evaluate(self, x: RatLike) -> Fraction:
        return self.column(x)[1]

    def __call__(self, x: RatLike) -> Fraction:
        return self.evaluate(x)


def synthesize(target: TargetSet, regime: Regime, depth: int = 10,
               signed: bool = False,
               c_order: Optional[Sequence[RatLike]] = None) -> SynthFunction:
    """Build the witness function for a regime the target satisfies.

    The net avoids the sets the construction must stay clear of: nothing in
    the bounded Baire-2 regime, the empty-slice set C in the unbounded
    regimes, and additionally the multi-valued set D in the Baire-1
    regimes. The enumeration of C is ascending by default and can be
    overridden (it must list exactly the points of C).
    """
    analysis = TargetAnalysis(target)
    verdict = analysis.verdict(regime)
    if not verdict.passed:
        raise RegimeUnsatisfiedError(verdict)

    c_set = analysis.c_set
    c_points = [rat(c) for c in c_order] if c_order is not None else sorted(c_set.isolated_points())
    if sorted(c_points) != sorted(c_set.isolated_points()):
        raise ValueError("c_order must enumerate exactly the empty-slice points")

    avoid = XSet.empty()
    if not regime.bounded:
        avoid = avoid | XSet.points(c_points)
    if regime is Regime.B1_BOUNDED:
        avoid = avoid | analysis.d_set
    elif regime is Regime.B1:
        avoid = avoid | analysis.extended_d_set

    approx = lemma31_net(target, depth, avoid)
    c_values = {} if regime.bounded else f_on_c(c_points, target, signed)

    return SynthFunction(
        regime=regime,
        target=target,
        analysis=analysis,
        approx=approx,
        c_points=tuple(c_points),
        c_values=c_values,
        signed=signed,
        depth=depth,
        a_values=approx.a_values(),
    )

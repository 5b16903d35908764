"""Numerical verification that the synthesized graph accumulates on the target.

The graph is sampled once on a uniform grid plus every net and empty-slice
point, as exact pairs and one float array that every check reads;
accumulation-point candidates are cells of an eps-grid holding a
core sample, one with at least ``min_count`` samples of pairwise distinct x
within Chebyshev radius eps (an accumulation point needs infinitely many
distinct graph points nearby, and distinct x is the finite proxy).
Candidate quality is measured by a two-sided Hausdorff comparison against
the target restricted to a y band, since depth truncation cuts the
target's far reaches. In its forward half and in the far-point budget, float
distance bounds only choose which candidates and samples take an exact
distance (to a candidate that can hold the maximum, to a sample they cannot
place on one side of eps), so both results are those of exact distances.

Two structural checks accompany the estimate: the far-point budget (only
finitely many graph points sit farther than eps from the target, bounded by
the sizes of the shallow net levels plus the empty-slice enumeration) and
the divergence-direction comparison at clustering points of the empty-slice
set.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .geometry import ProbeBlocks, TargetSet, quotient_float, value_floats
from .intervals import Pair, RatLike, rat
from .synthesis import SynthFunction, backbones


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class _ExactPoints(Sequence):
    """Points (x, f(x)) kept as pairs ((a, b), (p, r)), made Fractions as read."""

    def __init__(self, pairs: List[Tuple[Pair, Pair]]):
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> Tuple[Fraction, Fraction]:
        (a, b), (p, r) = self.pairs[i]
        return Fraction(a, b), Fraction(p, r)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class GraphSample:
    """Exact pairs (x, f(x)) at strictly increasing x, and ``xy``, the same
    pairs as one float64 (N, 2) array: the one conversion every check
    reads. A sample from ``sample_graph`` builds its points as they are read."""

    points: Sequence[Tuple[Fraction, Fraction]]
    xy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple(self.points)
        xy = np.column_stack(([float(x) for x, _ in points], value_floats(points)))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "xy", xy)
        # Rounding is monotone: x can fail to increase only where its float does.
        if any(points[i][0] >= points[i + 1][0] for i in np.flatnonzero(np.diff(xy[:, 0]) <= 0)):
            raise ValueError("graph sample x must strictly increase")

    def __len__(self) -> int:
        return len(self.xy)


def sample_graph(f: SynthFunction, pitch: RatLike = Fraction(1, 1024)) -> GraphSample:
    """Net and enumeration values at their x, the backbone at the rest of
    the uniform grid u/q (u = i p for pitch p/q, and u = q), off the one
    walk of ``backbones``, as integer pairs and their correctly rounded
    quotients. Samples are sorted by float x, and exactly only where floats
    tie: rounding is monotone."""
    pitch = rat(pitch)
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    p, q = pitch.numerator, pitch.denominator
    taken = {u for a, b in (*f.a_values, *f.c_values)
             for u, r in [divmod(a * q, b)] if not r and (u % p == 0 or u == q)}
    us = sorted({*range(0, q + 1, p), q} - taken)
    rows = [((u, q), (y.numerator, y.denominator), u / q, fy) for u, (y, _, fy)
            in zip(us, backbones(f.target, ((u, q) for u in us), f.regime.bounded))]
    rows += [(x, y, x[0] / x[1], quotient_float(*y))
             for values in (f.a_values, f.c_values) for x, y in values.items()]
    fx = np.array([row[2] for row in rows])
    order = np.argsort(fx, kind="stable").tolist()
    if (np.diff(fx[order]) == 0).any():
        order.sort(key=lambda i: (fx[i], Fraction(*rows[i][0])))
    points = _ExactPoints([rows[i][:2] for i in order])
    xy = np.array([rows[i][2:] for i in order])
    if np.isinf(xy[:, 1]).any():
        value_floats(points)  # raises, naming the first x whose value leaves float range
    sample = object.__new__(GraphSample)
    object.__setattr__(sample, "points", points)
    object.__setattr__(sample, "xy", xy)
    return sample


# ---------------------------------------------------------------------------
# Accumulation estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccumulationEstimate:
    candidates: Tuple[Tuple[float, float], ...]
    eps: float


def accumulation_estimate(sample: GraphSample, eps: float,
                          min_count: int = 3) -> AccumulationEstimate:
    """Cluster graph samples on an eps-grid; a cell holding a core sample
    becomes a candidate (represented by its center).

    A core sample has at least min_count samples, itself included, within
    Chebyshev radius eps (the DBSCAN core-point test); they all lie in the
    3 x 3 block of cells around its own, so the test does not depend on
    where the grid's edges fall. A cell holding min_count samples is kept
    outright: each of them is core. Samples, not float x, are counted: their
    x are pairwise distinct by construction, and two can round to one float.
    Cell keys are float64, sorted once; a block column is found by binary
    search over keys k - 1 to k + 1 (past 2^53, k +- 1 may round to k or to
    the next key, whose samples lie farther than eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_count < 2:
        raise ValueError("min_count must be at least 2")
    with np.errstate(over="ignore"):
        scaled = sample.xy / eps
    if not np.isfinite(scaled).all():
        fx, fy = sample.xy[np.flatnonzero(~np.isfinite(scaled).all(axis=1))[0]].tolist()
        raise ValueError(f"eps={eps:g} is too small to grid a sample at ({fx:g}, {fy:g})")
    keys = np.floor(scaled)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    keys = keys[order]
    # Complex numbers compare as (real, imag), the lexsort order.
    flat, xy = keys.view(np.complex128).ravel(), sample.xy[order].view(np.complex128).ravel()
    first = np.concatenate(([True], flat[1:] != flat[:-1]))[:len(flat)]
    cell = np.cumsum(first) - 1
    keep = np.bincount(cell) >= min_count
    small = np.flatnonzero(~keep[cell])  # the samples that take the core test
    k = keys[small]
    cols = k[:, :1] + [-1.0, 0.0, 1.0]
    start = np.searchsorted(flat, cols + (k[:, 1:] - 1.0) * 1j)
    count = np.searchsorted(flat, cols + (k[:, 1:] + 1.0) * 1j, side="right") - start
    count[:, ::2] *= cols[:, ::2] != cols[:, 1:2]  # one column where k +- 1 rounds to k
    step = max(1, _CHUNK // max(1, int(count.sum(axis=1).max(initial=0))))
    for done in range(0, len(small), step):  # at most _CHUNK pairs, or one query's
        queries, n = small[done:done + step], count[done:done + step].ravel()
        owner = np.repeat(np.arange(len(queries)).repeat(3), n)
        near = np.repeat(start[done:done + step].ravel() - np.cumsum(n) + n, n) + np.arange(n.sum())
        d = xy[near] - xy[queries[owner]]
        within = (np.abs(d.real) <= eps) & (np.abs(d.imag) <= eps)
        keep[cell[queries[np.bincount(owner, within, len(queries)) >= min_count]]] = True
    centers = (keys[first][keep] + 0.5) * eps
    return AccumulationEstimate(tuple(map(tuple, centers.tolist())), eps)


# ---------------------------------------------------------------------------
# Hausdorff comparison
# ---------------------------------------------------------------------------


# The most probes one backward distance may take: 32 times the most a demo
# takes (the unit square at the default eps, 1025^2 probes).
_PROBE_BUDGET = 1 << 25


def _probe_count(target: TargetSet, pitch: float) -> float:
    """About as many probes as the pieces' ``probe_blocks`` hold, without
    making any: a box's grid, and each graph's width plus y-travel (its ends
    are finite and it is monotone) over the pitch."""
    total = 0.0
    for piece in target.pieces:
        for lower, upper in piece.bands():
            lo, hi = lower.dom.lo, lower.dom.hi
            width = float(hi - lo) / pitch + 2
            if lower is upper:
                total += width + abs(float(upper.y_at(hi) - upper.y_at(lo))) / pitch
            else:
                total += width * (float(upper.y_at(lo) - lower.y_at(lo)) / pitch + 2)
    return total


# Elements of one probe x candidate distance array.
_CHUNK = 1 << 15

# Blocks in the backward sweep's first batch, the factor each next batch
# grows by, and the blocks of a group in its bound pass.
_BATCH, _GROWTH, _GROUP = 4, 2, 16
_SPREAD = np.array([int(f"{i:b}", 4) for i in range(64)])  # Morton bits: binary read in base 4


def _box_sq(lo: np.ndarray, hi: np.ndarray, c: np.ndarray, farthest: bool) -> np.ndarray:
    """Squared distance from points c, x and y along axis 0, to the farthest
    corner (-fl(a - b) == fl(b - a)) or the nearest point of boxes [lo, hi]."""
    dx, dy = (np.maximum(h - v, v - l) if farthest else np.maximum(np.maximum(l - v, 0.0), v - h)
              for l, h, v in zip(lo, hi, c))
    return dx * dx + dy * dy


def _backward(blocks: List[ProbeBlocks], cands: np.ndarray) -> float:
    """max over the blocks' probes of the distance to the nearest candidate,
    equal to the dense sweep bit for bit.

    A block's bound U is the least distance from a candidate to its farthest
    bounding-box corner. Blocks go in groups of ``_GROUP``, in Morton order
    of their box centres on a 64 by 64 grid; a group's UG is the least such
    distance for the group's box, and a block's U is taken in index order
    over the candidates within UG of that box, which hold its first nearest.
    Blocks are visited by falling U, in growing batches, until U is at most
    the running maximum: no probe left can raise it, and none is built. Nor
    can a probe within the maximum of the candidate that gives U; the others
    meet the candidates with gap at most U to their block's box, in (probe,
    candidate) pair arrays of about ``_CHUNK``, and ``np.minimum.reduceat``
    takes each probe's nearest. Float subtraction, squaring, addition and
    sqrt are monotone, so the bounds hold for the rounded distances too.
    Where a coordinate reaches 2^510, all are divided by one power of two,
    exactly, so that no square of a difference leaves float range.
    """
    lo, hi = (np.concatenate([part[side] for part in blocks]).T for side in (0, 1))
    top = max(np.abs(lo).max(), np.abs(hi).max(), np.abs(cands).max())
    unit = 2.0 ** max(0, math.frexp(top)[1] - 510)
    lo, hi, cands = lo / unit, hi / unit, cands / unit
    first = np.cumsum([0, *(len(part[0]) for part in blocks)])
    cxy, rows, n = cands.T.copy(), max(1, _CHUNK // len(cands)), int(first[-1])
    mid = lo + hi - (lo + hi).min(axis=1, keepdims=True)
    ix, iy = (mid * (63 / np.maximum(mid.max(axis=1, keepdims=True), 1e-300))).astype(np.int64)
    order, group = np.argsort(2 * _SPREAD[ix] + _SPREAD[iy], kind="stable"), min(_GROUP, n)
    # Rows: groups in Morton order, and their candidates in index order, each padded by its last.
    order = order[np.minimum(np.arange(-(-n // group) * group), n - 1)].reshape(-1, group)
    blo, bhi = lo.take(order, axis=1), hi.take(order, axis=1)
    far, arg, step = np.empty(n), np.empty(n, dtype=np.int64), -(-rows // group)
    for s in range(0, len(order), step):
        box = blo[:, s:s + step].min(axis=2)[..., None], bhi[:, s:s + step].max(axis=2)[..., None]
        f = _box_sq(*box, cxy[:, None], True)
        g, j = np.nonzero(_box_sq(*box, cxy[:, None], False) <= f.min(axis=1, keepdims=True))
        last = np.cumsum(count := np.bincount(g))[:, None] - 1
        cand = j[np.minimum(last - count[:, None] + 1 + np.arange(count.max()), last)]
        f = _box_sq(blo[:, s:s + step, :, None], bhi[:, s:s + step, :, None],
                    cxy.take(cand, axis=1)[:, :, None], True)
        far[order[s:s + step]] = f.min(axis=2)
        arg[order[s:s + step]] = np.take_along_axis(cand, f.argmin(axis=2), 1)
    bound = np.sqrt(far)
    order = np.argsort(-bound, kind="stable")
    best, done, size = 0.0, 0, _BATCH
    while done < len(order) and bound[order[done]] > best:
        batch = order[done:done + size]
        batch, done, size = batch[bound[batch] > best], done + size, min(size * _GROWTH, rows)
        part = np.searchsorted(first, batch, side="right") - 1
        probes = [blocks[p][2](b - first[p]) for p, b in zip(part.tolist(), batch.tolist())]
        owner = np.repeat(np.arange(len(batch)), [len(block) for block in probes])
        probes = np.concatenate(probes) / unit
        d = probes - cands[arg[batch][owner]]
        live = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) > best
        probes, owner = probes[live], owner[live]
        box = lo.take(batch, axis=1)[..., None], hi.take(batch, axis=1)[..., None]
        row, near = np.nonzero(_box_sq(*box, cxy[:, None], False) <= far[batch, None])
        count = np.bincount(row, minlength=len(batch))
        start, step = np.cumsum(count) - count, max(1, _CHUNK // int(count.max()))
        for s in range(0, len(probes), step):
            n = count[owner[s:s + step]]
            at = np.cumsum(n) - n
            d = np.repeat(probes[s:s + step], n, axis=0) - cands[
                near[np.repeat(start[owner[s:s + step]] - at, n) + np.arange(at[-1] + n[-1])]]
            d *= d
            best = max(best, float(np.sqrt(np.minimum.reduceat(d[:, 0] + d[:, 1], at)).max()))
    return best * unit


def hausdorff_to_target(est: AccumulationEstimate, target: TargetSet,
                        y_cap: float) -> Tuple[float, float]:
    """(forward, backward) farthest-nearest distances within |y| <= y_cap.

    Forward: candidates whose cells overlap the band against the target.
    Backward: probes at pitch eps/2 on the banded target against the
    candidates, in each piece's ``probe_blocks``, of which only those that
    can raise the maximum are built (see ``_backward``); infinity when the
    target part is nonempty but no candidate exists. An eps needing more
    probes than a fixed budget is a ValueError, before any is built.
    """
    if y_cap <= 0:
        raise ValueError("y_cap must be positive")
    cap = Fraction(y_cap)
    banded = target.clipped(-cap, cap)
    if (count := _probe_count(banded, est.eps / 2)) > _PROBE_BUDGET:
        raise ValueError(f"eps={est.eps:g} with y cap {y_cap:g} needs about {count:.3g} target"
                         f" probes, over the budget of {_PROBE_BUDGET}; use a larger eps"
                         " or a smaller y cap")

    # A cell overlapping the band may hold target points at |y| = y_cap even
    # when its centre lies outside.
    cands = [(cx, cy) for cx, cy in est.candidates if abs(cy) - est.eps / 2 <= y_cap]
    # Exact distances by falling upper bound, while one can raise the maximum.
    lo, hi = target.distance_bounds(np.array(cands).reshape(-1, 2))
    d_forward, floor = 0.0, lo.max(initial=0.0)
    for i in np.argsort(-hi, kind="stable"):
        if hi[i] < floor or hi[i] <= d_forward:
            break
        d_forward = max(d_forward, target.distance_to((rat(cands[i][0]), rat(cands[i][1]))))

    if banded.is_empty:
        return d_forward, 0.0
    if not cands:
        return d_forward, math.inf
    return d_forward, _backward([p.probe_blocks(est.eps / 2) for p in banded.pieces],
                                np.array(cands))


# ---------------------------------------------------------------------------
# Far-point budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarPointResult:
    count_far: int
    bound: int
    passed: bool


def remark31_check(sample: GraphSample, f: SynthFunction, eps: float) -> FarPointResult:
    """Only finitely many graph points may sit farther than eps from the
    target: at most the total size of the net levels with 1/n > eps plus
    the number of empty-slice points."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cutoff = math.ceil(1.0 / eps)
    sizes = f.approx.level_sizes()
    bound = sum(sizes[: max(0, cutoff - 1)]) + len(f.c_points)
    lo, hi = f.target.distance_bounds(sample.xy)
    # distance_to is exactly 0.0 on the target, so it alone decides the rest.
    unsure = np.flatnonzero((hi > eps) & (lo <= eps))
    count_far = int((lo > eps).sum()) + sum(f.target.distance_to(sample.points[i]) > eps
                                            for i in unsure)
    return FarPointResult(count_far, bound, count_far <= bound)


# ---------------------------------------------------------------------------
# Divergence directions at empty-slice clusters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterDirection:
    x: Fraction
    f_directions: Tuple[int, ...]
    closure_directions: Tuple[int, ...]
    passed: bool


@dataclass(frozen=True)
class ClosureDirectionReport:
    checked: Tuple[ClusterDirection, ...]
    passed: bool
    vacuous: bool

    def status(self) -> str:
        if self.vacuous:
            return "N/A"
        return "PASS" if self.passed else "FAIL"


def closure_direction_check(f: SynthFunction) -> ClosureDirectionReport:
    """Compare divergence directions of the enumeration values against the
    extended closure at clustering points of the empty-slice set.

    A point of C with at least three other points of C within 3/depth
    stands in for an accumulation point of C; the signs of the large
    enumeration values nearby must all be divergence directions of the
    extended closure there. The arcs diverging at those nearby points stand
    in for the arcs that accumulate at it, so the closure directions are
    those of the point and of its neighbours in C.
    """
    if f.regime.bounded:
        return ClosureDirectionReport((), True, True)
    radius = 3.0 / f.depth
    checked: List[ClusterDirection] = []
    for c in f.c_points:
        near = [d for d in f.c_points if d != c and abs(float(d - c)) <= radius]
        if len(near) < 3:
            continue
        values = [f.c_values[d.numerator, d.denominator][0] for d in near]
        signs = {1 if v > 0 else -1 for v in values if abs(v) >= 2}
        allowed = set().union(*(f.target.pole_signs(d) for d in [c, *near]))
        checked.append(ClusterDirection(c, tuple(sorted(signs)), tuple(sorted(allowed)),
                                        signs <= allowed))
    return ClosureDirectionReport(tuple(checked), all(c.passed for c in checked), not checked)

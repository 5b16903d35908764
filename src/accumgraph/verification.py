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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .geometry import TargetSet, quotient_float, value_floats
from .intervals import RatLike, rat
from .synthesis import SynthFunction, backbone_at


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSample:
    """Exact pairs (x, f(x)) at strictly increasing x, and ``xy``, the same
    pairs as one float64 (N, 2) array: the one conversion every check reads."""

    points: Tuple[Tuple[Fraction, Fraction], ...]
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
        return len(self.points)


def sample_graph(f: SynthFunction, pitch: RatLike = Fraction(1, 1024)) -> GraphSample:
    """Net and enumeration values at their x, the backbone at the rest of
    the uniform grid u/q (u = i p for pitch p/q, and u = q), off one walk
    over the target's sorted span ends. Samples are sorted by float x, and
    exactly only where floats tie: rounding is monotone."""
    pitch = rat(pitch)
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    p, q = pitch.numerator, pitch.denominator
    taken = {u for x in (*f.a_values, *f.c_values)
             for u, r in [divmod(x.numerator * q, x.denominator)]
             if not r and (u % p == 0 or u == q)}
    ends, alive = f.target._index
    # Each end a/b as (a q, b), against x = u/q; (1, 0) lies past every x.
    keys, k, rows = [(e.numerator * q, e.denominator) for e in ends] + [(1, 0)], 0, []
    for u in sorted({*range(0, q + 1, p), q} - taken):
        while keys[k][0] < u * keys[k][1]:
            k += 1
        bands = alive[2 * k + (keys[k][0] == u * keys[k][1])]
        y, _, fy = backbone_at(bands, u, q, f.regime.bounded)
        rows.append((Fraction(u, q), y, u / q, fy))
    rows += [(x, y, float(x), quotient_float(y.numerator, y.denominator))
             for values in (f.a_values, f.c_values) for x, y in values.items()]
    fx = np.array([row[2] for row in rows])
    order = np.argsort(fx, kind="stable").tolist()
    if (np.diff(fx[order]) == 0).any():
        order.sort(key=lambda i: (fx[i], rows[i][0]))
    points = tuple(rows[i][:2] for i in order)
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


def probe_points(target: TargetSet, pitch: float) -> np.ndarray:
    """Float probe net over the target's pieces at roughly the given pitch."""
    if target.is_empty:
        return np.empty((0, 2))
    return np.concatenate([piece.probes(pitch) for piece in target.pieces])


# The most probes one backward distance may take: 32 times the most a demo
# takes (the unit square at the default eps, 1025^2 probes).
_PROBE_BUDGET = 1 << 25


def _probe_count(target: TargetSet, pitch: float) -> float:
    """About as many probes as ``probe_points`` makes, without making any:
    a box's grid, and each graph's width plus y-travel (its ends are finite
    and it is monotone) over the pitch."""
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
_CHUNK = 1 << 18


def _nearest(points: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Each point's float distance to its nearest candidate, in row chunks."""
    rows = max(1, _CHUNK // cands.shape[0])
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], rows):
        block = points[start:start + rows]
        dx = block[:, 0:1] - cands[None, :, 0]
        dy = block[:, 1:2] - cands[None, :, 1]
        out[start:start + rows] = np.sqrt(dx * dx + dy * dy).min(axis=1)
    return out


def _backward(probes: np.ndarray, cands: np.ndarray, side: float) -> float:
    """max over probes of the distance to the nearest candidate, equal to
    the dense sweep bit for bit.

    Probes are grouped into blocks of the given side. A block's bound U is
    the least distance from a candidate to the block's farthest bounding-box
    corner; blocks are visited by falling U until U is at most the running
    maximum, and inside a block only candidates with bounding-box gap at most
    U are compared. Float subtraction, squaring, addition and sqrt are
    monotone, so both bounds hold for the rounded distances too.
    """
    # Any grouping keeps the result exact (the bounds hold for any probe
    # set); square blocks only make them tight.
    cell = np.floor(probes / side).astype(np.int64)
    cell -= cell.min(axis=0)
    key = cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1]
    order = np.argsort(key, kind="stable")
    probes, key = probes[order], key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lo = np.minimum.reduceat(probes, starts)
    hi = np.maximum.reduceat(probes, starts)
    cx, cy = cands[:, 0], cands[:, 1]
    bound = np.empty(starts.shape[0])
    rows = max(1, _CHUNK // cands.shape[0])
    for s in range(0, starts.shape[0], rows):
        # The farthest corner's offsets: -fl(a - b) == fl(b - a).
        fx = np.maximum(hi[s:s + rows, 0:1] - cx, cx - lo[s:s + rows, 0:1])
        fy = np.maximum(hi[s:s + rows, 1:2] - cy, cy - lo[s:s + rows, 1:2])
        bound[s:s + rows] = np.sqrt((fx * fx + fy * fy).min(axis=1))
    ends = np.r_[starts[1:], probes.shape[0]]
    best = 0.0
    for b in np.argsort(-bound, kind="stable"):
        if bound[b] <= best:
            break
        gx = np.maximum(np.maximum(lo[b, 0] - cx, 0.0), cx - hi[b, 0])
        gy = np.maximum(np.maximum(lo[b, 1] - cy, 0.0), cy - hi[b, 1])
        near = cands[np.sqrt(gx * gx + gy * gy) <= bound[b]]
        best = max(best, float(_nearest(probes[starts[b]:ends[b]], near).max()))
    return best


def hausdorff_to_target(est: AccumulationEstimate, target: TargetSet,
                        y_cap: float) -> Tuple[float, float]:
    """(forward, backward) farthest-nearest distances within |y| <= y_cap.

    Forward: candidates whose cells overlap the band against the target.
    Backward: probes at pitch eps/2 on the banded target against the
    candidates, in probe blocks of side 8 eps (see ``_backward``); infinity
    when the target part is nonempty but no candidate exists. An eps needing
    more probes than a fixed budget is a ValueError, before any is built.
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

    probes = probe_points(banded, est.eps / 2)
    if probes.shape[0] == 0:
        return d_forward, 0.0
    if not cands:
        return d_forward, math.inf
    return d_forward, _backward(probes, np.array(cands), 8 * est.eps)


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
        signs = {1 if f.c_values[d] > 0 else -1 for d in near if abs(f.c_values[d]) >= 2}
        allowed = set().union(*(f.target.pole_signs(d) for d in [c, *near]))
        checked.append(ClusterDirection(c, tuple(sorted(signs)), tuple(sorted(allowed)),
                                        signs <= allowed))
    return ClosureDirectionReport(tuple(checked), all(c.passed for c in checked), not checked)

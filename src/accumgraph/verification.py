"""Numerical verification that the synthesized graph accumulates on the target.

The graph is sampled on a uniform grid plus every net and empty-slice
point; accumulation-point candidates are cells of an eps-grid holding at
least ``min_count`` samples with pairwise distinct x (an accumulation point
needs infinitely many distinct graph points nearby, and distinct x is the
finite proxy). Candidate quality is measured by a two-sided Hausdorff
comparison against the target restricted to a y band, since depth
truncation cuts the target's far reaches.

Two structural checks accompany the estimate: the far-point budget (only
finitely many graph points sit farther than eps from the target, bounded by
the sizes of the shallow net levels plus the empty-slice enumeration) and
the divergence-direction comparison at clustering points of the empty-slice
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .geometry import TargetSet
from .intervals import ONE, RatLike, rat
from .synthesis import SynthFunction


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_graph(f: SynthFunction,
                 pitch: RatLike = Fraction(1, 1024)) -> List[Tuple[Fraction, Fraction]]:
    """Graph samples on the uniform grid plus all net and empty-slice points.

    Deduplicated by x; the function is single-valued so collisions are
    harmless.
    """
    pitch = rat(pitch)
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    xs = {Fraction(i) * pitch for i in range(int(ONE / pitch) + 1)}
    xs.add(ONE)
    xs.update(f.a_values.keys())
    xs.update(f.c_values.keys())
    return [(x, f.evaluate(x)) for x in sorted(xs)]


# ---------------------------------------------------------------------------
# Accumulation estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccumulationEstimate:
    candidates: Tuple[Tuple[float, float], ...]
    eps: float


def accumulation_estimate(points: Sequence[Tuple[Fraction, Fraction]],
                          eps: float, min_count: int = 3) -> AccumulationEstimate:
    """Cluster graph samples on an eps-grid; cells with at least min_count
    distinct-x samples become candidates (represented by cell centers)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_count < 2:
        raise ValueError("min_count must be at least 2")
    cells: Dict[Tuple[int, int], set] = {}
    for x, y in points:
        key = (math.floor(float(x) / eps), math.floor(float(y) / eps))
        cells.setdefault(key, set()).add(x)
    candidates = [
        ((ix + 0.5) * eps, (iy + 0.5) * eps)
        for (ix, iy), xs in sorted(cells.items())
        if len(xs) >= min_count
    ]
    return AccumulationEstimate(tuple(candidates), eps)


# ---------------------------------------------------------------------------
# Hausdorff comparison
# ---------------------------------------------------------------------------


def probe_points(target: TargetSet, pitch: float) -> np.ndarray:
    """Float probe net over the target's pieces at roughly the given pitch."""
    probes = [probe for piece in target.pieces for probe in piece.probes(pitch)]
    if not probes:
        return np.empty((0, 2))
    return np.array(probes)


def hausdorff_to_target(est: AccumulationEstimate, target: TargetSet,
                        y_cap: float) -> Tuple[float, float]:
    """(forward, backward) farthest-nearest distances within |y| <= y_cap.

    Forward: candidates whose cells overlap the band against the target.
    Backward: probes at pitch eps/2 on the banded target against the candidates;
    infinity when the target part is nonempty but no candidate exists.
    """
    if y_cap <= 0:
        raise ValueError("y_cap must be positive")
    cap = Fraction(y_cap)
    banded = target.clipped(-cap, cap)

    # A cell overlapping the band may hold target points at |y| = y_cap even
    # when its centre lies outside.
    cands = [(cx, cy) for cx, cy in est.candidates if abs(cy) - est.eps / 2 <= y_cap]
    d_forward = 0.0
    for cand in cands:
        d = target.distance_to((rat(cand[0]), rat(cand[1])))
        d_forward = max(d_forward, d)

    probes = probe_points(banded, est.eps / 2)
    if probes.shape[0] == 0:
        return d_forward, 0.0
    if not cands:
        return d_forward, math.inf
    cand_arr = np.array(cands)
    d_backward = 0.0
    chunk = 2048
    for start in range(0, probes.shape[0], chunk):
        block = probes[start:start + chunk]
        dx = block[:, 0:1] - cand_arr[None, :, 0]
        dy = block[:, 1:2] - cand_arr[None, :, 1]
        nearest = np.sqrt(dx * dx + dy * dy).min(axis=1)
        d_backward = max(d_backward, float(nearest.max()))
    return d_forward, d_backward


# ---------------------------------------------------------------------------
# Far-point budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarPointResult:
    count_far: int
    bound: int
    passed: bool


def remark31_check(points: Sequence[Tuple[Fraction, Fraction]],
                   f: SynthFunction, eps: float) -> FarPointResult:
    """Only finitely many graph points may sit farther than eps from the
    target: at most the total size of the net levels with 1/n > eps plus
    the number of empty-slice points."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cutoff = math.ceil(1.0 / eps)
    sizes = f.approx.level_sizes()
    bound = sum(sizes[: max(0, cutoff - 1)]) + len(f.c_points)
    count_far = 0
    for x, y in points:
        if f.target.contains_point((x, y)):
            continue
        if f.target.distance_to((x, y)) > eps:
            count_far += 1
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
    extended closure there.
    """
    if f.regime.bounded:
        return ClosureDirectionReport((), True, True)
    radius = 3.0 / f.depth
    c_points = list(f.c_points)
    checked: List[ClusterDirection] = []
    for c in c_points:
        near = [d for d in c_points if d != c and abs(float(d - c)) <= radius]
        if len(near) < 3:
            continue
        signs = sorted({
            1 if f.c_values[d] > 0 else -1
            for d in near
            if abs(f.c_values[d]) >= 2
        })
        ext = f.target.extended_slice_at(c)
        allowed = set()
        if ext.plus_inf:
            allowed.add(1)
        if ext.minus_inf:
            allowed.add(-1)
        ok = all(s in allowed for s in signs)
        closure_dirs = tuple(sorted(allowed))
        checked.append(ClusterDirection(c, tuple(signs), closure_dirs, ok))
    if not checked:
        return ClosureDirectionReport((), True, True)
    return ClosureDirectionReport(tuple(checked), all(c.passed for c in checked), False)

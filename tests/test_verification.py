"""Graph sampling, accumulation estimation, Hausdorff, and direction checks."""

import hashlib
import inspect
import math
import random
from fractions import Fraction as F

import pytest

from accumgraph import geometry
from accumgraph.conditions import Regime
from accumgraph.demos import demo_set, sect6_c_order
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet
from accumgraph.synthesis import synthesize
from accumgraph.verification import (
    AccumulationEstimate,
    accumulation_estimate,
    closure_direction_check,
    hausdorff_to_target,
    probe_points,
    remark31_check,
    sample_graph,
)


def test_sample_graph_grid_and_special_points():
    f = synthesize(demo_set("constant"), Regime.B2, depth=3)
    pts = sample_graph(f, F(1, 4))
    xs = {x for x, _ in pts}
    assert {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)} <= xs
    assert set(f.a_values) <= xs
    # Net values slide along the segment, so every sample sits at height 0.
    assert sum(1 for _, y in pts if y == 0) >= 5
    assert all(y == 0 for _, y in pts)
    assert len(xs) == len(pts)  # deduplicated by x


def test_sample_graph_sect6_c_values():
    depth = 5
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    pts = dict(sample_graph(f, F(1, 64)))
    for k, c in enumerate(f.c_points, start=1):
        assert pts[c] == k


# ---------------------------------------------------------------------------
# Accumulation estimates
# ---------------------------------------------------------------------------


def test_isolated_points_never_cluster():
    pts = [(F(0), F(0)), (F(1), F(1))]
    est = accumulation_estimate(pts, 0.25, min_count=3)
    assert est.candidates == ()


def test_cluster_requires_distinct_x():
    pts = [(F(1, 2), F(0))] * 5
    est = accumulation_estimate(pts, 0.25, min_count=2)
    assert est.candidates == ()


def test_constant_candidates_near_segment():
    f = synthesize(demo_set("constant"), Regime.B1, depth=6)
    pts = sample_graph(f, F(1, 256))
    eps = 1 / 16
    est = accumulation_estimate(pts, eps, min_count=3)
    assert est.candidates
    for cx, cy in est.candidates:
        # Distance to the segment [0,1] x {0}, brute force.
        d = abs(cy) if 0 <= cx <= 1 else math.hypot(max(0 - cx, cx - 1), cy)
        assert d <= eps + 1 / 256 + 1e-9


def test_sect6_large_values_not_candidates():
    depth = 8
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    pts = sample_graph(f, F(1, 512))
    est = accumulation_estimate(pts, 1 / 256, min_count=3)
    for k, c in enumerate(f.c_points, start=1):
        for cx, cy in est.candidates:
            assert math.hypot(cx - float(c), cy - k) > 1 / 256, (
                f"cluster at the isolated enumeration value above c_{k}"
            )


def test_estimate_determinism():
    f = synthesize(demo_set("square"), Regime.B2, depth=5)
    pts = sample_graph(f, F(1, 128))
    a = accumulation_estimate(pts, 1 / 64, min_count=3)
    b = accumulation_estimate(list(pts), 1 / 64, min_count=3)
    assert a.candidates == b.candidates


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        accumulation_estimate([], 0.0)
    with pytest.raises(ValueError):
        accumulation_estimate([], 0.5, min_count=1)


# ---------------------------------------------------------------------------
# Hausdorff comparison
# ---------------------------------------------------------------------------


def test_hausdorff_forward_single_outlier():
    est = AccumulationEstimate(((0.5, 5.0),), 0.25)
    t = TargetSet((Point(F(1, 2), 0),))
    d_fwd, _ = hausdorff_to_target(est, t, y_cap=10.0)
    assert d_fwd == pytest.approx(5.0)


def test_hausdorff_empty_estimate_is_infinite_backward():
    est = AccumulationEstimate((), 0.25)
    t = TargetSet((Point(F(1, 2), 0),))
    d_fwd, d_bwd = hausdorff_to_target(est, t, y_cap=1.0)
    assert d_fwd == 0.0
    assert math.isinf(d_bwd)


def test_hausdorff_round_trip_constant():
    f = synthesize(demo_set("constant"), Regime.B1, depth=10)
    pts = sample_graph(f, F(1, 1024))
    eps = 1 / 256
    est = accumulation_estimate(pts, eps, min_count=3)
    d_fwd, d_bwd = hausdorff_to_target(est, f.target, y_cap=5.0)
    assert d_fwd <= 2 * eps + 0.1
    assert d_bwd <= 2 * eps + 0.1


def test_forward_distance_shrinks_with_resolution():
    f = synthesize(demo_set("hyperbola"), Regime.B1, depth=10)
    values = []
    for h, eps in ((F(1, 128), 1 / 64), (F(1, 512), 1 / 256)):
        pts = sample_graph(f, h)
        est = accumulation_estimate(pts, eps, min_count=3)
        d_fwd, _ = hausdorff_to_target(est, f.target, y_cap=5.0)
        values.append((eps, d_fwd))
    coarse, fine = values
    assert fine[1] <= coarse[1] + 2 * coarse[0]


def test_probe_points_cover_band():
    t = demo_set("hyperbola").clipped(F(-5), F(5))
    probes = probe_points(t, 0.01)
    assert probes.shape[0] > 100
    for x, y in probes[:: max(1, probes.shape[0] // 50)]:
        assert abs(y - 1.0 / x) < 1e-6


def _random_target(seed):
    """Two to four pieces of random kinds crossing the band |y| <= 5; arcs
    get a left, right or outside pole and a coefficient of either sign."""
    rng = random.Random(seed)
    pieces = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["point", "box", "pline", "hyper"])
        xs = sorted(F(i, 16) for i in rng.sample(range(17), rng.randint(2, 4)))
        y = F(rng.randint(-48, 48), 8)
        if kind == "point":
            pieces.append(Point(xs[0], y))
        elif kind == "box":
            pieces.append(Box(xs[0], xs[-1], y, y + F(rng.randint(0, 8), 8)))
        elif kind == "pline":
            pieces.append(PLine(tuple((x, F(rng.randint(-56, 56), 8)) for x in xs)))
        else:
            a, b = xs[0], xs[-1]
            pole = rng.choice([a, b, a - F(rng.randint(1, 8), 16), b + F(rng.randint(1, 8), 16)])
            coef = rng.choice([-1, 1]) * F(rng.randint(1, 16), rng.randint(1, 4))
            pieces.append(Hyper(pole, a, b, coef))
    return TargetSet(tuple(pieces))


def _banded_probe_digest(target):
    probes = probe_points(target.clipped(F(-5), F(5)), 1 / 256)
    return hashlib.sha256(probes.tobytes()).hexdigest()[:16]


# Recorded from the per-kind band clippers that the graph-over-shadow rule
# replaced: the probes of every clipped target must stay bitwise equal.
BANDED_PROBE_DIGESTS = {
    "constant": "53c5191031db81d7",
    "square": "89c693d2855ecb53",
    "hyperbola": "202a6e7c8c55917a",
    "sect6": "da82550d941bd20a",
    "random": [
        "3a0f184dcb59ff31", "7374c0dee73695f1", "d17ca6eac1d757d6", "5e4a3bc6bd70cdcb",
        "8f49c456f0778d7a", "b92941a0f70041da", "d07ae9d39a941c31", "64cd77e25c16ef1b",
        "7b70d47dd37737c1", "7a345ac6a3096653", "7fcc3c144b75e585", "7f7525deb399b8fa",
        "a30b81835d3365ed", "149c99e7fcc33ab6", "d189c9b230047fc4", "d3e7ddba0fd116c8",
        "f955343a15b81b5b", "9670689d1e4eae67", "2ad94cecd40e73d8", "071a9a74d113258d",
    ],
}


@pytest.mark.parametrize("demo", ["constant", "square", "hyperbola", "sect6"])
def test_banded_probes_pinned_demos(demo):
    assert _banded_probe_digest(demo_set(demo, 10)) == BANDED_PROBE_DIGESTS[demo]


def test_banded_probes_pinned_random_targets():
    got = [_banded_probe_digest(_random_target(seed)) for seed in range(20)]
    assert got == BANDED_PROBE_DIGESTS["random"]


def test_clipping_has_one_rule():
    """Band clipping is each graph over its shadow, defined once on the
    piece base; a box clips its own edges and a target loops over pieces."""
    owners = {name for name, cls in vars(geometry).items()
              if inspect.isclass(cls) and cls.__module__ == geometry.__name__
              and "clipped" in vars(cls)}
    assert owners == {"_Piece", "Box", "TargetSet"}


# ---------------------------------------------------------------------------
# Far-point budget
# ---------------------------------------------------------------------------


def test_remark31_constant_all_on_target():
    f = synthesize(demo_set("constant"), Regime.B1, depth=6)
    pts = sample_graph(f, F(1, 64))
    res = remark31_check(pts, f, 0.5)
    assert res.count_far == 0
    assert res.passed


def test_remark31_square_on_piece_values():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=6)
    pts = sample_graph(f, F(1, 64))
    for eps in (1.0, 0.5, 0.25, 0.125):
        res = remark31_check(pts, f, eps)
        assert res.count_far == 0
        assert res.passed


def test_remark31_sect6_budget():
    depth = 8
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    pts = sample_graph(f, F(1, 256))
    for eps in (1.0, 0.5, 0.25, 0.125):
        res = remark31_check(pts, f, eps)
        assert res.passed, f"eps={eps}: {res.count_far} > {res.bound}"
    res = remark31_check(pts, f, 1.0)
    assert res.bound == len(f.c_points)


# ---------------------------------------------------------------------------
# Divergence directions
# ---------------------------------------------------------------------------


def test_closure_direction_golden_case():
    depth = 10
    t = demo_set("sect6", depth)
    order = sect6_c_order(depth)
    unsigned = closure_direction_check(
        synthesize(t, Regime.B1, depth=depth, c_order=order))
    assert unsigned.status() == "FAIL"
    at_zero = [c for c in unsigned.checked if c.x == 0]
    assert at_zero and at_zero[0].f_directions == (1,)
    assert at_zero[0].closure_directions == (-1,)
    signed = closure_direction_check(
        synthesize(t, Regime.B1, depth=depth, signed=True, c_order=order))
    assert signed.status() == "PASS"


def test_closure_direction_vacuous_without_clusters():
    f = synthesize(demo_set("hyperbola"), Regime.B1, depth=8)
    report = closure_direction_check(f)
    assert report.vacuous
    assert report.status() == "N/A"


def test_closure_direction_bounded_is_vacuous():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=4)
    assert closure_direction_check(f).vacuous

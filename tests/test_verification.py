"""Graph sampling, accumulation estimation, Hausdorff, and direction checks."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import math
import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accumgraph import cli, geometry, verification
from accumgraph.cli import EXIT_OK, main
from accumgraph.conditions import Regime, TargetAnalysis, check_regime
from accumgraph.fileio import parse_target_text
from accumgraph.demos import demo_c_order, demo_set, sect6_c_order
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet
from accumgraph.synthesis import synthesize
from accumgraph.verification import (
    AccumulationEstimate,
    GraphSample,
    accumulation_estimate,
    closure_direction_check,
    hausdorff_to_target,
    remark31_check,
    sample_graph,
)

from test_strips import _graph_target


def test_sample_graph_grid_and_special_points():
    f = synthesize(demo_set("constant"), Regime.B2, depth=3)
    sample = sample_graph(f, F(1, 4))
    xs = [x for x, _ in sample.points]
    assert {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)} <= set(xs)
    assert {F(*x) for x in f.a_values} <= set(xs)
    # Net values slide along the segment, so every sample sits at height 0.
    assert sum(1 for _, y in sample.points if y == 0) >= 5
    assert all(y == 0 for _, y in sample.points)
    assert xs == sorted(set(xs)) and len(sample) == len(xs)  # one sample per x, ascending
    assert sample.xy.tolist() == [[float(x), float(y)] for x, y in sample.points]


def test_sample_graph_sect6_c_values():
    depth = 5
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    pts = dict(sample_graph(f, F(1, 64)).points)
    for k, c in enumerate(f.c_points, start=1):
        assert pts[c] == k


# ---------------------------------------------------------------------------
# Accumulation estimates
# ---------------------------------------------------------------------------


def test_isolated_points_never_cluster():
    pts = GraphSample([(F(0), F(0)), (F(1), F(1))])
    est = accumulation_estimate(pts, 0.25, min_count=3)
    assert est.candidates == ()


def test_cluster_requires_distinct_x():
    """A sample holds one point per x, so clustering may count samples."""
    with pytest.raises(ValueError):
        GraphSample([(F(1, 2), F(0))] * 5)
    with pytest.raises(ValueError):
        GraphSample([(F(1, 2), F(0)), (F(1, 4), F(0))])
    # Two x one float apart cannot be told by the float column alone.
    x = F(1, 2)
    with pytest.raises(ValueError):
        GraphSample([(x, F(0)), (x + F(1, 2**80), F(0)), (x + F(1, 2**81), F(0))])
    assert len(GraphSample([(x, F(0)), (x + F(1, 2**80), F(0))])) == 2


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
    b = accumulation_estimate(GraphSample(list(pts.points)), 1 / 64, min_count=3)
    assert a.candidates == b.candidates


def test_edge_split_cluster_is_a_candidate():
    """Four distinct-x samples straddling a cell edge split 2 + 2; each is
    within eps of the other three, so both cells hold core samples."""
    eps = 0.25
    pts = [(F(k, 64), F(1, 4) + F(1 if k % 2 else -1, 64)) for k in range(1, 5)]
    old = {}
    for x, y in pts:
        old.setdefault((math.floor(float(x) / eps), math.floor(float(y) / eps)), set()).add(x)
    assert max(len(xs) for xs in old.values()) == 2
    est = accumulation_estimate(GraphSample(pts), eps, min_count=3)
    assert est.candidates == ((0.125, 0.125), (0.125, 0.375))


def _cell_rule(points, eps, min_count):
    """The former candidate rule: cells holding min_count distinct x."""
    cells = {}
    for x, y in points:
        cells.setdefault((math.floor(float(x) / eps), math.floor(float(y) / eps)), set()).add(x)
    return {((ix + 0.5) * eps, (iy + 0.5) * eps)
            for (ix, iy), xs in cells.items() if len(xs) >= min_count}


def test_core_rule_keeps_every_cell_rule_candidate():
    rng = random.Random(7)
    grown = 0
    for _ in range(40):
        xs = sorted(rng.sample(range(201), rng.randint(5, 201)))
        pts = [(F(x, 200), F(rng.randint(-60, 60), 40)) for x in xs]
        eps, min_count = rng.choice([0.03, 0.1, 1 / 16]), rng.randint(2, 4)
        old = _cell_rule(pts, eps, min_count)
        new = set(accumulation_estimate(GraphSample(pts), eps, min_count).candidates)
        assert old <= new
        grown += len(new - old)
    assert grown > 0


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        accumulation_estimate(GraphSample(()), 0.0)
    with pytest.raises(ValueError):
        accumulation_estimate(GraphSample(()), 0.5, min_count=1)


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


def probe_points(target, pitch):
    """Every probe of the target's blocks, built at once, piece by piece: a
    curve's runs in order, and a box's tiles sorted back into the x-major
    order of its grid (no box here is a vertical segment, so two rows of its
    grid are equal only where they are one point)."""
    out = [np.empty((0, 2))]
    for piece in target.pieces:
        lo, _, probes_of = piece.probe_blocks(pitch)
        probes = np.concatenate([probes_of(k) for k in range(len(lo))])
        out.append(probes[np.lexsort((probes[:, 1], probes[:, 0]))]
                   if isinstance(piece, Box) else probes)
    return np.concatenate(out)


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


_OWNERS = {
    "probes": {"RationalGraph"},
    "probe_blocks": {"_Piece", "Box"},
    "clipped": {"_Piece", "Box", "TargetSet"},
    "distance": {"RationalGraph", "_Piece", "Box"},
    "net_samples": {"RationalGraph", "_Piece", "Box"},
}


@pytest.mark.parametrize("behaviour, owners", _OWNERS.items(), ids=list(_OWNERS))
def test_band_behaviour_has_one_owner(behaviour, owners):
    """Each band behaviour is defined by its graph degree or once on the
    piece base; a box keeps its own, and a target loops over pieces."""
    assert owners == {name for name, cls in vars(geometry).items()
                      if inspect.isclass(cls) and cls.__module__ == geometry.__name__
                      and behaviour in vars(cls)}


def _dense_backward(probes, cands):
    """The former probes x candidates sweep, 2048 probes at a time."""
    best = 0.0
    for start in range(0, probes.shape[0], 2048):
        block = probes[start:start + 2048]
        dx = block[:, 0:1] - cands[None, :, 0]
        dy = block[:, 1:2] - cands[None, :, 1]
        best = max(best, float(np.sqrt(dx * dx + dy * dy).min(axis=1).max()))
    return best


def _runs(probes):
    """Blocks over any probe array: the curves' runs of it."""
    return geometry._runs(probes)


def _synthetic_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(60):
        probes = rng.random((int(rng.integers(1, 2000)), 2)) * rng.choice([0.05, 1.0, 8.0])
        cands = rng.random((int(rng.integers(1, 300)), 2)) * 2.0 - 0.5
        cases.append((probes, cands))
    # Ties: probes and candidates on one coarse lattice.
    lattice = rng.integers(0, 32, (1500, 2)) / 32
    cases.append((lattice[:1000], lattice[1000:]))
    cases.append((lattice, lattice[:1]))  # a single candidate
    cases.append((lattice, np.array([[40.0, -30.0], [41.0, 50.0]])))  # far outside
    cases.append((lattice[:1], rng.random((50, 2))))  # a single probe
    return cases


def test_block_bounded_backward_is_bit_identical(monkeypatch):
    """Any split of the probes into blocks keeps the result: runs of an
    unsorted array too, and a probe set cut in two pieces' blocks. At a
    scale of 2^600, where the squares leave float range, the result is the
    dense one scaled."""
    cases = _synthetic_cases()
    for run in (1, 7, 32, 5000):
        monkeypatch.setattr(geometry, "_RUN", run)
        for probes, cands in cases:
            assert verification._backward([_runs(probes)], cands) == _dense_backward(probes, cands)
    for probes, cands in cases[::5]:
        far = verification._backward([_runs(probes * 2.0 ** 600)], cands * 2.0 ** 600)
        assert far == _dense_backward(probes, cands) * 2.0 ** 600
    monkeypatch.setattr(verification, "_CHUNK", 64)  # many chunks per array
    for probes, cands in cases[-6:]:
        half = len(probes) // 2
        assert (verification._backward([_runs(probes[:half]), _runs(probes[half:])], cands)
                == _dense_backward(probes, cands))


def _cli_inputs(name, argv, text=""):
    """The arguments of each call a command makes to the cli's ``name``:
    for ``hausdorff_to_target`` the estimate, target and y cap it compares,
    for ``remark31_check`` the sample, witness and eps."""
    seen, check = [], getattr(cli, name)

    def record(*args):
        seen.append(args)
        return check(*args)

    with mock.patch.object(cli, name, record):
        _run(argv, text)
    return seen


def _assert_backward_is_dense(est, target, y_cap):
    """The blocked backward distance of hausdorff_to_target, == the dense
    sweep over every probe of the banded target."""
    banded = target.clipped(F(-y_cap), F(y_cap))
    cands = np.array([(cx, cy) for cx, cy in est.candidates if abs(cy) - est.eps / 2 <= y_cap])
    dense = _dense_backward(probe_points(banded, est.eps / 2), cands)
    assert hausdorff_to_target(est, target, y_cap)[1] == dense, (target, y_cap)


def _verify_cases(name="hausdorff_to_target"):
    """The inputs of the cli's ``name`` in verify on the four demos at the
    CLI's defaults (depth 10), and on each random target's witness in its
    first passing regime at the fuzz flags."""
    cases = [case for demo, regime in [("constant", "b1"), ("square", "b2-bounded"),
                                       ("hyperbola", "b1"), ("sect6", "b1")]
             for case in _cli_inputs(name, ["verify", demo, "--regime", regime])]
    for seed in range(20):
        # The witness needs every slice nonempty: a pline covers [0, 1].
        pieces = [*_random_target(seed).pieces, PLine(((0, seed % 7 - 3), (1, 3 - seed % 5)))]
        text = "".join(f"{piece}\n" for piece in pieces)
        regime = _passing_regimes(text)[0].value
        cases += _cli_inputs(name, ["verify", "-", "--regime", regime, *FUZZ_FLAGS], text)
    return cases


def test_backward_matches_the_dense_sweep(monkeypatch):
    """Bit for bit, on the demos, the random targets and the synthetic
    cases; then again with tiles, runs, batches and chunks cut tiny, and
    groups of one block or of more blocks than there are."""
    cases = _verify_cases()
    assert len(cases) == 24
    for case in cases:
        _assert_backward_is_dense(*case)
    for tile, run, batch, growth, group in [(1, 1, 1, 1, 1), (3, 2, 2, 3, 1 << 20)]:
        monkeypatch.setattr(geometry, "_TILE", tile)
        monkeypatch.setattr(geometry, "_RUN", run)
        monkeypatch.setattr(verification, "_BATCH", batch)
        monkeypatch.setattr(verification, "_GROWTH", growth)
        monkeypatch.setattr(verification, "_GROUP", group)
        monkeypatch.setattr(verification, "_CHUNK", 256)
        for case in cases[:1] + cases[2:]:  # all but the square, too many tiles of one probe
            _assert_backward_is_dense(*case)
        for probes, cands in _synthetic_cases()[::7]:
            assert verification._backward([_runs(probes)], cands) == _dense_backward(probes, cands)


def test_square_builds_few_probes(monkeypatch):
    """The square's default verify builds under 5% of its 1025^2 probes:
    the sweep stops long before most tiles could raise the maximum."""
    built = []
    blocks_of = Box.probe_blocks

    def counted(self, pitch):
        lo, hi, probes_of = blocks_of(self, pitch)
        return lo, hi, lambda k: built.append(len(probes := probes_of(k))) or probes

    monkeypatch.setattr(Box, "probe_blocks", counted)
    code, out = _run(["verify", "square", "--regime", "b2-bounded"], "")
    assert code == EXIT_OK, out
    assert 0 < sum(built) < 0.05 * 1025 ** 2


def test_square_bounds_few_block_pairs(monkeypatch):
    """The square's default verify bounds its 4,225 blocks against its 595
    candidates with under a quarter of the (block, candidate) pairs: a block
    meets only the candidates its group's bound leaves open. Its bounds are
    those of all candidates: it builds the tiles that groups of one block
    build, in the same order."""
    box_sq, pairs, tiles = verification._box_sq, [], []
    blocks_of = Box.probe_blocks

    def counted(lo, hi, c, farthest):
        out = box_sq(lo, hi, c, farthest)
        pairs.append(out.size if farthest else 0)
        return out

    def recorded(self, pitch):
        lo, hi, probes_of = blocks_of(self, pitch)
        return lo, hi, lambda k: tiles.append(k) or probes_of(k)

    monkeypatch.setattr(verification, "_box_sq", counted)
    monkeypatch.setattr(Box, "probe_blocks", recorded)
    (est, target, y_cap), = _cli_inputs("hausdorff_to_target",
                                         ["verify", "square", "--regime", "b2-bounded"])
    banded = target.clipped(F(-y_cap), F(y_cap))
    cands = [(cx, cy) for cx, cy in est.candidates if abs(cy) - est.eps / 2 <= y_cap]
    blocks = sum(len(p.probe_blocks(est.eps / 2)[0]) for p in banded.pieces)
    assert (blocks, len(cands)) == (4225, 595)
    assert 0 < sum(pairs) < 0.25 * blocks * len(cands)
    grouped, tiles[:] = list(tiles), []
    monkeypatch.setattr(verification, "_GROUP", 1)
    hausdorff_to_target(est, target, y_cap)
    assert tiles == grouped and len(grouped) == 56


def test_slices_read_the_index(monkeypatch):
    """Once the first slice has built the x-sorted index, slices rebuild no
    piece domain, and no piece kind slices on its own."""
    t = demo_set("sect6", 20)
    t.bands_at(F(1, 2))

    def no_domain(self):
        raise AssertionError(f"bands_at rebuilt the domain of {self}")

    for cls in (Point, Box, PLine, Hyper):
        monkeypatch.setattr(cls, "domain", no_domain)
    for k in range(257):
        t.bands_at(F(k, 256))
    owners = {name for name, cls in vars(geometry).items()
              if inspect.isclass(cls) and "y_interval" in vars(cls)}
    assert not owners


def test_forward_distance_keeps_the_maximum_among_ties():
    """The square's forward maximum is shared by many candidates; the float
    bounds must not lose it, and the value is the exact path's float."""
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=10)
    eps = 2 / 1024
    est = accumulation_estimate(sample_graph(f, F(1, 1024)), eps, min_count=3)
    cands = [(cx, cy) for cx, cy in est.candidates if abs(cy) - eps / 2 <= 5.0]
    exact = [f.target.distance_to((F(cx), F(cy))) for cx, cy in cands]
    assert exact.count(max(exact)) > 10
    d_fwd, _ = hausdorff_to_target(est, f.target, y_cap=5.0)
    assert d_fwd == max(exact)


# ---------------------------------------------------------------------------
# Far-point budget
# ---------------------------------------------------------------------------


def _exact_far_count(sample, target, eps):
    """The far-point count with an exact membership or distance per sample."""
    return sum(1 for x, y in sample.points
               if not any(lo <= y <= hi for lo, hi in target.bands_at(x))
               and target.distance_to((x, y)) > eps)


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


def test_remark31_sample_at_distance_eps():
    """A sample exactly eps from the target is not far; the float bounds
    cannot decide it, so it takes the exact distance."""
    f = synthesize(parse_target_text("pline 0:0 1:0\n"), Regime.B1, depth=6)
    eps, tiny = F(1, 64), F(1, 2**40)
    ys = (eps, eps - tiny, eps + tiny, -eps, -eps - tiny, F(0))
    pts = GraphSample([(F(k, 8), y) for k, y in enumerate(ys, start=1)])
    res = remark31_check(pts, f, float(eps))
    assert res.count_far == _exact_far_count(pts, f.target, float(eps)) == 2
    depth = 8
    f = synthesize(demo_set("sect6", depth), Regime.B1, depth=depth,
                   c_order=sect6_c_order(depth))
    pts = sample_graph(f, F(1, 256))
    for eps in (1.0, 0.25, 1 / 64):
        assert remark31_check(pts, f, eps).count_far == _exact_far_count(pts, f.target, eps)


def test_remark31_count_is_the_exact_count():
    """Over every sample, the far count is the number of samples whose exact
    distance exceeds eps: the float bounds decide only what they can."""
    cases = _verify_cases("remark31_check")
    assert len(cases) == 24
    for sample, f, eps in cases:
        exact = sum(f.target.distance_to(p) > eps for p in sample.points)
        assert remark31_check(sample, f, eps).count_far == exact, (f.target, eps)


def test_remark31_on_target_takes_no_exact_distance(monkeypatch):
    """On the constant demo every sample is decided by its float bounds."""
    f = synthesize(demo_set("constant"), Regime.B1, depth=10)
    pts = sample_graph(f, F(1, 1024))

    def exact(self, p):
        raise AssertionError("exact distance taken")

    monkeypatch.setattr(TargetSet, "distance_to", exact)
    res = remark31_check(pts, f, 2 / 1024)
    assert res.count_far == 0 and res.passed


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


def test_pole_signs_read_one_table(monkeypatch):
    """The pole -> signs table is built once per target; the closure check
    asks ``pole_signs`` at every point of C and its neighbours."""
    f = synthesize(demo_set("sect6", 20), Regime.B2, depth=20)
    want = closure_direction_check(f)

    def rebuilt(self):
        raise AssertionError("excluded poles rebuilt")

    monkeypatch.setattr(Hyper, "divergence_sign", rebuilt)
    assert closure_direction_check(f) == want and want.status() == "FAIL"


def test_closure_direction_vacuous_without_clusters():
    f = synthesize(demo_set("hyperbola"), Regime.B1, depth=8)
    report = closure_direction_check(f)
    assert report.vacuous
    assert report.status() == "N/A"


def test_closure_direction_bounded_is_vacuous():
    f = synthesize(demo_set("square"), Regime.B2_BOUNDED, depth=4)
    assert closure_direction_check(f).vacuous


# ---------------------------------------------------------------------------
# End-to-end verdicts
# ---------------------------------------------------------------------------


FUZZ_FLAGS = ["--depth", "6", "--grid", "128"]


def _run(argv, text):
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def _passing_regimes(text):
    t = parse_target_text(text)
    return [r for r in Regime if check_regime(t, r).passed]


# Random small targets whose verify used to FAIL falsely: a cluster on a
# cell edge (54), a steep arc (24), and plines and points crossing cell
# corners (44, 81).
REGRESSION_TARGETS = {
    "arc-steep": "hyper 1/2 1/6 1/2 2\npline 0:0 1:-3\n",
    "points-on-pline": ("pline 3/4:0 5/6:1\npoint 3/4 3\npoint 7/12 -2\npoint 1/3 1\n"
                        "pline 0:-1 3/4:0 1:3\n"),
    "edge-split": "point 1/4 -1\npline 0:-2 1/12:-3 1:-3\n",
    "crossing-plines": "pline 5/12:3 3/4:-1\npline 5/12:-3 2/3:1 11/12:-3\npline 0:-3 2/3:0 1:-2\n",
}


@pytest.mark.parametrize("name", REGRESSION_TARGETS)
def test_former_false_fails_verify(name):
    text = REGRESSION_TARGETS[name]
    regimes = _passing_regimes(text)
    assert regimes
    for regime in regimes:
        code, out = _run(["verify", "-", "--regime", regime.value, *FUZZ_FLAGS], text)
        assert code == EXIT_OK, (regime, out)


def _piece_text(kind, draw):
    twelfth = st.integers(0, 12).map(lambda i: F(i, 12))
    level = st.integers(-3, 3)
    if kind == "point":
        return f"point {draw(twelfth)} {draw(level)}"
    if kind == "box":
        a, b = sorted((draw(twelfth), draw(twelfth)))
        y0, y1 = sorted((draw(level), draw(level)))
        return f"box {a} {b} {y0} {y1}"
    if kind == "pline":
        xs = draw(st.lists(twelfth, min_size=2, max_size=3, unique=True))
        return "pline " + " ".join(f"{x}:{draw(level)}" for x in sorted(xs))
    a = draw(st.integers(0, 11))
    b = draw(st.integers(a + 1, 12))
    pole = draw(st.sampled_from([a, b, a - 2, b + 2]))
    coef = draw(st.sampled_from([-1, 1, 2]))
    return f"hyper {F(pole, 12)} {F(a, 12)} {F(b, 12)} {coef}"


@st.composite
def small_targets(draw):
    """One to three pieces on a 1/12 x-grid with |y| <= 3, plus a pline
    covering [0, 1]."""
    kinds = draw(st.lists(st.sampled_from(["point", "box", "pline", "hyper"]),
                          min_size=1, max_size=3))
    lines = [_piece_text(kind, draw) for kind in kinds]
    lines.append(f"pline 0:{draw(st.integers(-3, 3))} 1:{draw(st.integers(-3, 3))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_targets())
def test_every_passing_regime_verifies(text):
    for regime in _passing_regimes(text):
        code, out = _run(["verify", "-", "--regime", regime.value, *FUZZ_FLAGS], text)
        assert code == EXIT_OK, (text, regime, out)


_WAYS = {"up": (1, 1), "down": (-1, -1), "both": (1, -1)}


def _pole_chain_text(ways, heights):
    """Arcs diverging into each pole from each side (``ways[p]`` gives the
    sign of the left and the right arc's divergence at pole p/12), a pline
    over the rest of each gap between poles, through the given heights."""
    ends = sorted({0, 12, *ways})
    lines = []
    for (a, b), (ya, yb) in zip(zip(ends, ends[1:]), heights):
        lo, hi = F(a, 12), F(b, 12)
        left, right = lo, hi
        if a in ways:  # y = c/(x - a) right of a diverges with the sign of c
            left = lo + (hi - lo) / 3
            lines.append(f"hyper {lo} {lo} {left} {F(ways[a][1], 24)}")
        if b in ways:  # left of b, with the sign of -c
            right = hi - (hi - lo) / 3
            lines.append(f"hyper {hi} {right} {hi} {F(-ways[b][0], 24)}")
        lines.append(f"pline {left}:{ya} {right}:{yb}")
    return "\n".join(lines) + "\n"


@st.composite
def pole_chain_targets(draw):
    """Targets whose empty-slice set C is a set of poles: 1-3 poles on the
    1/12 grid, each with its own way of diverging, and maybe a cluster of 4
    or 5 adjacent poles, within 3/depth of each other at the fuzz depth,
    diverging one way: up, down, or up on the left and down on the right."""
    way = st.sampled_from(sorted(_WAYS)).map(_WAYS.get)
    ways = {p: draw(way) for p in draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))}
    if draw(st.booleans()):
        start, size, cluster = draw(st.integers(0, 8)), draw(st.integers(4, 5)), draw(way)
        ways.update(dict.fromkeys(range(start, start + size), cluster))
    level = st.integers(-3, 3)
    heights = [(draw(level), draw(level)) for _ in range(len(ways) + 2)]
    return _pole_chain_text(ways, heights)


def _closure_fails_unsigned(t, depth):
    """The oracle for an unsigned run: every value f(c_k) = k is positive,
    so the closure check fails at a point of C with three others within
    3/depth exactly when none of them has an arc diverging up."""
    arcs = [p for p in t.pieces if isinstance(p, Hyper) and p.excluded_pole is not None]
    poles = sorted({arc.pole for arc in arcs})
    up = {arc.pole for arc in arcs if arc.graphs()[0].y_at(arc.x1 if arc.pole == arc.x0 else arc.x0) > 0}
    for c in poles:
        near = [d for d in poles if d != c and abs(d - c) <= F(3, depth)]
        if len(near) >= 3 and not up & {c, *near}:
            return True
    return False


def _cluster(last_way):
    """A pole diverging up at 1/6, and four diverging down at 1/2..2/3 with
    a fifth at 3/4; the unsigned closure check fails at 3/4 unless the
    fifth diverges up on one side."""
    ways = {2: _WAYS["up"], 6: _WAYS["down"], 7: _WAYS["down"], 8: _WAYS["down"],
            9: _WAYS[last_way]}
    return _pole_chain_text(ways, [(1, -1)] * 7)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(pole_chain_targets())
@example(_cluster("down"))
@example(_cluster("both"))
def test_pole_chains_verify_and_certify(text):
    """C is the poles. Every passing regime verifies signed, every passing
    Baire-1 regime certifies, and an unsigned run fails the closure check
    exactly where the oracle says so."""
    t = parse_target_text(text)
    arcs = [p for p in t.pieces if isinstance(p, Hyper)]
    assert TargetAnalysis(t).c_set.isolated_points() == sorted({arc.pole for arc in arcs})
    regimes = _passing_regimes(text)
    assert Regime.B2 in regimes
    for regime in regimes:
        code, out = _run(["verify", "-", "--regime", regime.value, "--signed", *FUZZ_FLAGS], text)
        assert code == EXIT_OK, (text, regime, out)
        if regime.baire1:
            code, out = _run(["strips", "-", "--regime", regime.value, *FUZZ_FLAGS], text)
            assert code == EXIT_OK, (text, regime, out)
    _, out = _run(["verify", "-", "--regime", "b2", *FUZZ_FLAGS], text)
    assert ("closure=FAIL" in out) == _closure_fails_unsigned(t, 6), (text, out)


def _far_box(t, clearance):
    """A box of side 1/12 inside |y| <= 2 whose every point is farther than
    ``clearance`` from the target, or None."""
    for i in range(12):
        for j in range(-24, 24):
            box = Box(F(i, 12), F(i + 1, 12), F(j, 12), F(j + 1, 12))
            if t.distance_to((F(2 * i + 1, 24), F(2 * j + 1, 24))) > clearance + 0.06:
                return box
    return None


def test_far_component_fails_backward():
    """Hausdorff against T plus a box far from T must fail: the candidates
    of a witness for T stay near T."""
    rng = random.Random(5)
    checked = 0
    for _ in range(30):
        cover = PLine(((0, rng.randint(-3, 3)), (1, rng.randint(-3, 3))))
        t = TargetSet(_random_target(rng.randrange(10**6)).pieces + (cover,))
        depth, eps = 6, 2 / 128
        bound = 2 * eps + 1 / depth
        box = _far_box(t, 2 * bound)
        if box is None:
            continue
        for regime in Regime:
            if not check_regime(t, regime).passed:
                continue
            f = synthesize(t, regime, depth=depth)
            est = accumulation_estimate(sample_graph(f, F(1, 128)), eps)
            _, d_bwd = hausdorff_to_target(est, TargetSet(t.pieces + (box,)), depth / 2)
            assert d_bwd > bound, (t, regime, box)
            checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# The sample layer against its per-x reference
# ---------------------------------------------------------------------------


def _reference_backbone(target, x, bounded):
    """The former f0: Fraction max and min over the slice's y-ranges."""
    bands = target.bands_at(x)
    if not bands:
        raise geometry.EmptySliceError(f"empty slice at x={x}")
    if bounded:
        return max(hi for _, hi in bands)
    m = min(F(0) if lo <= 0 <= hi else min(abs(lo), abs(hi)) for lo, hi in bands)
    cap = F(max(1, math.ceil(m)))
    return max(min(hi, cap) for lo, hi in bands if lo <= cap and hi >= -cap)


def _reference_sample_graph(f, pitch):
    """The former sampler: one exact backbone per grid x off the net and
    enumeration points, one sort of the Fraction keys, one float conversion."""
    grid = {i * pitch for i in range(int(1 / pitch) + 1)} | {F(1)}
    a_values, c_values = ({F(*x): F(*y) for x, y in v.items()} for v in (f.a_values, f.c_values))
    values = {x: _reference_backbone(f.target, x, f.regime.bounded)
              for x in grid - a_values.keys() - c_values.keys()}
    return GraphSample(tuple(sorted({**values, **c_values, **a_values}.items())))


def _column_sample(f, pitch):
    """The graph sample off ``SynthFunction.column``: the exact value at every
    grid x and every net and enumeration x, sorted by exact x, built eagerly."""
    grid = {i * pitch for i in range(int(1 / pitch) + 1)} | {F(1)}
    xs = grid | {F(*x) for x in (*f.a_values, *f.c_values)}
    return GraphSample(tuple((x, f.column(x)[1]) for x in sorted(xs)))


def _assert_sample_matches_columns(f, pitch):
    got, want = sample_graph(f, pitch), _column_sample(f, pitch)
    assert len(got) == len(want) == len(want.points)
    assert got.xy.tobytes() == want.xy.tobytes()
    assert list(got.points) == list(want.points) and got.points == want.points
    assert [got.points[i] for i in range(0, len(got), 97)] == list(want.points[::97])


@pytest.mark.parametrize("demo, regime, depth, signed", [
    ("square", Regime.B2_BOUNDED, 10, False), ("hyperbola", Regime.B1, 10, False),
    ("sect6", Regime.B1, 10, True), ("sect6", Regime.B2, 20, False),
    ("constant", Regime.B1, 10, False)])
def test_verify_demo_samples_match_their_columns(demo, regime, depth, signed):
    """``sample_graph``'s points, read off its integer pairs, its floats and
    its length are those of an eager sample of ``column`` on the five
    verify demos at the command line's defaults."""
    f = synthesize(demo_set(demo, depth), regime, depth, signed, demo_c_order(demo, depth))
    _assert_sample_matches_columns(f, F(1, 1024))


def test_random_target_samples_match_their_columns():
    rng = random.Random(20261022)
    for _ in range(8):
        target = _graph_target(rng, poles_at_ends=rng.random() < 0.5)
        for regime in Regime:
            if check_regime(target, regime).passed:
                _assert_sample_matches_columns(synthesize(target, regime, depth=5), F(1, 64))


def test_sample_sorts_a_float_tie_exactly():
    """A point 2^-80 right of the grid x 1/2 rounds onto its float: the tie
    sort orders the two exactly, and the sample still matches its columns."""
    target = TargetSet((PLine(((0, 0), (1, 0))), Point(F(1, 2) + F(1, 2**80), 1)))
    f = synthesize(target, Regime.B2_BOUNDED, depth=4)
    assert (2**79 + 1, 2**80) in f.a_values
    sample = sample_graph(f, F(1, 64))
    assert (np.diff(sample.xy[:, 0]) == 0).any()
    _assert_sample_matches_columns(f, F(1, 64))


def _reference_accumulation_estimate(sample, eps, min_count=3):
    """The former estimate: Python-int cells in a dict, the core test over
    each 3 x 3 block of cells."""
    cells = {}
    for fx, fy in sample.xy.tolist():
        if not math.isfinite(fx / eps) or not math.isfinite(fy / eps):
            raise ValueError(f"eps={eps:g} is too small to grid a sample at ({fx:g}, {fy:g})")
        cells.setdefault((math.floor(fx / eps), math.floor(fy / eps)), []).append((fx, fy))

    def core(ix, iy, fx, fy):
        near = sum(abs(gx - fx) <= eps and abs(gy - fy) <= eps
                   for jx in (ix - 1, ix, ix + 1) for jy in (iy - 1, iy, iy + 1)
                   for gx, gy in cells.get((jx, jy), ()))
        return near >= min_count

    return tuple(((ix + 0.5) * eps, (iy + 0.5) * eps)
                 for (ix, iy), samples in sorted(cells.items())
                 if len(samples) >= min_count or any(core(ix, iy, fx, fy) for fx, fy in samples))


def _outcome(call, *args):
    """A call's value, or its exception's type and message."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError, geometry.EmptySliceError) as exc:
        return type(exc), str(exc)


def _assert_sample_layer_matches(f, pitch, eps, min_count=3):
    got, want = _outcome(sample_graph, f, pitch), _outcome(_reference_sample_graph, f, pitch)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.points == want.points
    assert got.xy.tobytes() == want.xy.tobytes()
    assert (_outcome(lambda: accumulation_estimate(got, eps, min_count).candidates)
            == _outcome(_reference_accumulation_estimate, want, eps, min_count))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(small_targets())
def test_sample_layer_matches_reference(text):
    """Points ==, floats bitwise and candidates == the former sampler and
    estimate, in every passing regime, at grids 7, 64 and 128 and a pitch
    that is not 1/M."""
    t = parse_target_text(text)
    for regime in _passing_regimes(text):
        f = synthesize(t, regime, depth=6)
        for pitch in (F(1, 7), F(1, 64), F(1, 128), F(3, 64)):
            for min_count in (2, 3, 5):
                _assert_sample_layer_matches(f, pitch, float(2 * pitch), min_count)


def _with_values(text, regime, **values):
    return dataclasses.replace(synthesize(parse_target_text(text), regime, depth=4), **values)


def _float_ties():
    """Net x one float apart, around a grid x and among themselves."""
    f = _with_values("pline 0:0 1:1\n", Regime.B1, a_values={})
    tiny = F(1, 2**80)
    xs = [F(1, 2) + tiny, F(1, 3), F(1, 2) - tiny, F(1, 3) - tiny, F(1, 3) + 2 * tiny]
    return dataclasses.replace(f, a_values={(x.numerator, x.denominator): (k, 1)
                                            for k, x in enumerate(xs)})


SAMPLE_LAYER_EXAMPLES = {
    "float-ties": lambda: (_float_ties(), F(1, 64), 1 / 32),
    # Cell keys in y pass 2^63.
    "huge-keys": lambda: (synthesize(parse_target_text("pline 0:0 1:1e300\n"),
                                     Regime.B2_BOUNDED, depth=4), F(1, 128), 1 / 64),
    "huge-keys-unbounded": lambda: (synthesize(parse_target_text("pline 0:0 1:1e300\n"),
                                               Regime.B1, depth=4), F(1, 128), 1 / 64),
    # m is the float 2 and the slice misses [-2, 2], so n_x = 3; the band
    # at 3 + 2^-60 misses [-3, 3] although its float is 3.
    "integer-gap": lambda: (synthesize(parse_target_text(
        f"pline 0:{2 + F(1, 2**60)} 1:{2 + F(1, 2**60)}\n"
        f"pline 0:{3 + F(1, 2**60)} 1:{3 + F(1, 2**60)}\n"), Regime.B2, depth=4), F(1, 64), 1 / 32),
    # Past 2^53 the float of m says little about ceil(m).
    "past-2^53": lambda: (synthesize(parse_target_text(f"pline 0:{2**60 + 100} 1:{2**60 + 100}\n"),
                                     Regime.B1, depth=4), F(1, 64), 1 / 32),
    # Cell keys in x pass 2^53.
    "tiny-eps": lambda: (synthesize(parse_target_text("pline 0:0 1:1\n"), Regime.B1, depth=4),
                         F(1, 128), 2.0 ** -60),
    "beyond-float": lambda: (synthesize(parse_target_text("hyper 0 0 1 1e307\n"), Regime.B1,
                                        depth=4), F(1, 64), 1 / 32),
    "empty-slice": lambda: (_with_values("pline 0:0 1:0\n", Regime.B2, target=parse_target_text(
        "pline 0:0 1/32:0\npline 1/16:0 1:0\n")), F(1, 64), 1 / 32),
}


@pytest.mark.parametrize("name", SAMPLE_LAYER_EXAMPLES)
def test_sample_layer_examples_match_reference(name, monkeypatch):
    f, pitch, eps = SAMPLE_LAYER_EXAMPLES[name]()
    _assert_sample_layer_matches(f, pitch, eps)
    monkeypatch.setattr(verification, "_CHUNK", 8)  # many chunks of neighbour pairs
    _assert_sample_layer_matches(f, pitch, eps, min_count=2)


def test_estimate_counts_a_rounded_neighbour_key_once():
    """At eps = 2^-53 the x keys 2^53 - 1 and 2^53 are neighbours, and
    2^53 + 1 rounds to 2^53: three samples within eps are three, not four.
    At eps = 2^-54, 2^54 - 1 rounds to the key 2^54 of x = 1."""
    one = F(1) - F(1, 2**53)
    cases = [([(one, F(0)), (one + F(1, 2**80), F(0)), (F(1), F(0))], 2.0 ** -53, 2),
             ([(F(1) - F(1, 2**80), F(0)), (F(1), F(0))], 2.0 ** -54, 0)]
    for points, eps, kept in cases:
        sample = GraphSample(points)
        for min_count in (3, 4):
            want = _reference_accumulation_estimate(sample, eps, min_count)
            assert accumulation_estimate(sample, eps, min_count).candidates == want
            assert len(want) == (kept if min_count == 3 else 0)

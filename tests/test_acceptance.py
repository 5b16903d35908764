"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Tolerances are fixed here, not tuned elsewhere.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from accumgraph.conditions import Regime, TargetAnalysis, check_regime
from accumgraph.demos import demo_set, sect6_c_order
from accumgraph.geometry import Box, Hyper, PLine, Point, TargetSet
from accumgraph.intervals import XSet
from accumgraph.strips import build_strip_family, epsilon_schedule, verify_strips
from accumgraph.synthesis import synthesize
from accumgraph.verification import (
    accumulation_estimate,
    closure_direction_check,
    hausdorff_to_target,
    remark31_check,
    sample_graph,
)

DEPTH = 10
GRID = 1024

# (demo, regime, signed) pairs exercised by the synthesis-level criteria.
SYNTH_CASES = [
    ("constant", Regime.B1_BOUNDED, False),
    ("constant", Regime.B1, False),
    ("square", Regime.B2_BOUNDED, False),
    ("square", Regime.B2, False),
    ("hyperbola", Regime.B2, False),
    ("hyperbola", Regime.B1, False),
    ("sect6", Regime.B2, False),
    ("sect6", Regime.B1, False),
    ("sect6", Regime.B1, True),
]

# One passing regime per demo for the strip certificates.
STRIP_CASES = [
    ("constant", Regime.B1, False),
    ("square", Regime.B2_BOUNDED, False),
    ("hyperbola", Regime.B1, False),
    ("sect6", Regime.B1, False),
]


def _verdict(line_no, name, started, failures=None):
    elapsed = time.perf_counter() - started
    if failures:
        print(f"ACCEPTANCE {line_no} {name}: FAIL ({elapsed:.2f}s) {failures[0]}")
        pytest.fail(f"criterion {line_no}: {failures}")
    print(f"ACCEPTANCE {line_no} {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def synths():
    out = {}
    for name, regime, signed in SYNTH_CASES:
        target = demo_set(name, DEPTH)
        order = sect6_c_order(DEPTH) if name == "sect6" else None
        out[(name, regime, signed)] = synthesize(
            target, regime, depth=DEPTH, signed=signed, c_order=order)
    return out


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class _CellHash:
    def __init__(self, points, cell):
        self.cell = cell
        self.cells = {}
        for x, y in points:
            key = (math.floor(x / cell), math.floor(y / cell))
            self.cells.setdefault(key, []).append((x, y))

    def nearest(self, x, y, radius):
        best = math.inf
        reach = max(1, math.ceil(radius / self.cell))
        cx, cy = math.floor(x / self.cell), math.floor(y / self.cell)
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                for qx, qy in self.cells.get((ix, iy), ()):
                    best = min(best, math.hypot(x - qx, y - qy))
        return best


def _probe_band(target, n, pitch):
    """Float probes of the target within |y| <= n, straight from the piece
    formulas (independent of the library's samplers)."""
    probes = []
    for piece in target.pieces:
        if isinstance(piece, Point):
            if abs(float(piece.y)) <= n:
                probes.append((float(piece.x), float(piece.y)))
        elif isinstance(piece, Box):
            x0, x1 = float(piece.x0), float(piece.x1)
            y0 = max(float(piece.y0), -float(n))
            y1 = min(float(piece.y1), float(n))
            if y0 > y1:
                continue
            nx = max(1, math.ceil((x1 - x0) / pitch))
            ny = max(1, math.ceil((y1 - y0) / pitch))
            for i in range(nx + 1):
                for j in range(ny + 1):
                    probes.append((x0 + (x1 - x0) * i / nx,
                                   y0 + (y1 - y0) * j / ny))
        elif isinstance(piece, PLine):
            for (xa, ya), (xb, yb) in piece.segments():
                ax, ay, bx, by = map(float, (xa, ya, xb, yb))
                steps = max(1, math.ceil(math.hypot(bx - ax, by - ay) / pitch))
                for i in range(steps + 1):
                    t = i / steps
                    y = ay + t * (by - ay)
                    if abs(y) <= n:
                        probes.append((ax + t * (bx - ax), y))
        else:
            p, c = float(piece.pole), float(piece.coef)
            lo, hi = float(piece.x0), float(piece.x1)
            # Restrict the walk to |y| <= n, i.e. |x - p| >= |c|/n.
            margin = abs(c) / n
            if lo >= p:
                lo = max(lo, p + margin)
            if hi <= p:
                hi = min(hi, p - margin)
            if lo > hi:
                continue
            x = lo
            while x < hi:
                probes.append((x, c / (x - p)))
                slope = abs(c) / (x - p) ** 2
                x += max(pitch / (1.0 + slope), 1e-12)
            probes.append((hi, c / (hi - p)))
    return probes


# ---------------------------------------------------------------------------
# Criterion 1: regime-verdict table
# ---------------------------------------------------------------------------


def test_criterion_1_regime_verdict_table():
    started = time.perf_counter()
    failures = []

    def expect(name, depth, regime, expected):
        verdict = check_regime(demo_set(name, depth), regime)
        if verdict.passed != expected:
            failures.append(f"{name}@{depth} {regime.value}: "
                            f"got {verdict.passed}, want {expected}")
        return verdict

    for regime in Regime:
        expect("constant", DEPTH, regime, True)
    expect("square", DEPTH, Regime.B2_BOUNDED, True)
    expect("square", DEPTH, Regime.B2, True)
    v = expect("square", DEPTH, Regime.B1_BOUNDED, False)
    witness = [c.witness for c in v.checks if not c.passed]
    if not witness or witness[0] is None or witness[0].lo >= witness[0].hi:
        failures.append("square b1-bounded lacks an interval witness")
    expect("square", DEPTH, Regime.B1, False)
    expect("hyperbola", DEPTH, Regime.B2, True)
    expect("hyperbola", DEPTH, Regime.B1, True)
    for regime in (Regime.B2_BOUNDED, Regime.B1_BOUNDED):
        v = expect("hyperbola", DEPTH, regime, False)
        compact = [c for c in v.checks if c.name == "compact"]
        if not compact or compact[0].passed:
            failures.append(f"hyperbola {regime.value}: compactness not the failure")
    for depth in (3, DEPTH):
        expect("sect6", depth, Regime.B2, True)
        expect("sect6", depth, Regime.B1, True)

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, "regime-verdict-table", started, failures)


# ---------------------------------------------------------------------------
# Criterion 2: net invariants
# ---------------------------------------------------------------------------


def test_criterion_2_net_invariants(synths):
    started = time.perf_counter()
    failures = []
    probe_cache = {}
    for (name, regime, signed), f in synths.items():
        if signed:
            continue
        target = f.target
        all_x = []
        for level in f.approx.levels:
            n = level.n
            band = target.clipped(F(-n), F(n))
            for x, y in level.points:
                all_x.append(x)
                if band.distance_to((x, y)) > 1 / n + 1e-9:
                    failures.append(f"{name}/{regime.value} H_{n} point off band")
            if level.points:
                key = (name, n)
                if key not in probe_cache:
                    probe_cache[key] = _probe_band(target, n, 1 / (4 * n))
                grid_points = [(float(x), float(y)) for x, y in level.points]
                cells = _CellHash(grid_points, 1.0 / n)
                budget = 1 / n + 1 / (2 * n)
                for px, py in probe_cache[key]:
                    if cells.nearest(px, py, budget + 1e-9) > budget + 1e-9:
                        failures.append(
                            f"{name}/{regime.value} probe uncovered at level {n}")
                        break
        if len(set(all_x)) != len(all_x):
            failures.append(f"{name}/{regime.value}: duplicate net x")
        a_set = set(f.a_values)
        if regime.baire1:
            d = TargetAnalysis(target).d_set
            if any(d.contains(a) for a in a_set):
                failures.append(f"{name}/{regime.value}: net meets D")
        if not regime.bounded:
            if a_set & set(f.c_points):
                failures.append(f"{name}/{regime.value}: net meets C")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _verdict(2, "net-invariants", started, failures)


# ---------------------------------------------------------------------------
# Criterion 3: backbone laws
# ---------------------------------------------------------------------------


def test_criterion_3_backbone_laws(synths):
    started = time.perf_counter()
    failures = []
    for (name, regime, signed), f in synths.items():
        if signed:
            continue
        special = set(f.a_values) | set(f.c_points)
        for i in range(GRID + 1):
            x = F(i, GRID)
            if x in special:
                continue
            y = f(x)
            if not any(lo <= y <= hi for lo, hi in f.target.bands_at(x)):
                failures.append(f"{name}/{regime.value}: ({x}, {y}) off target")
                break
            if not regime.bounded:
                n = f.column(x)[2]
                mag = abs(y)
                ok = (0 <= mag <= 1) if n == 1 else (n - 1 < mag <= n)
                if not ok:
                    failures.append(
                        f"{name}/{regime.value}: |f({x})|={mag} vs n_x={n}")
                    break
    _verdict(3, "backbone-laws", started, failures)


# ---------------------------------------------------------------------------
# Criterion 4: strip certificates
# ---------------------------------------------------------------------------


def test_criterion_4_strip_certificates(synths):
    started = time.perf_counter()
    failures = []
    grid = [F(i, GRID) for i in range(GRID + 1)]
    for name, regime, signed in STRIP_CASES:
        f = synths[(name, regime, signed)]
        try:
            sched = epsilon_schedule(f, grid)
        except Exception as exc:  # ScheduleInfeasible must never fire
            failures.append(f"{name}: schedule failed: {exc}")
            continue
        family = build_strip_family(sched)
        report = verify_strips(family, f)
        for lvl in report.levels:
            if not lvl.nesting_ok:
                failures.append(f"{name} n={lvl.n}: nesting")
            if not lvl.coverage_ok:
                failures.append(f"{name} n={lvl.n}: coverage")
            if not lvl.a_width_ok or not lvl.c_width_ok:
                failures.append(f"{name} n={lvl.n}: column width")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    _verdict(4, "strip-certificates", started, failures)


# ---------------------------------------------------------------------------
# Criterion 5: accumulation round trip
# ---------------------------------------------------------------------------


EPS = 1 / 256
HAUSDORFF_BOUND = 2 * EPS + 1 / DEPTH


@pytest.fixture(scope="module")
def estimates(synths):
    out = {}
    for name, regime, signed in STRIP_CASES + [("sect6", Regime.B1, True)]:
        f = synths[(name, regime, signed)]
        points = sample_graph(f, F(1, GRID))
        out[(name, signed)] = (
            f,
            accumulation_estimate(points, EPS, min_count=3),
            points,
        )
    return out


def test_criterion_5_accumulation_round_trip(estimates):
    started = time.perf_counter()
    failures = []
    for name, regime, signed in STRIP_CASES:
        f, est, _ = estimates[(name, signed)]
        d_fwd, d_bwd = hausdorff_to_target(est, f.target, y_cap=DEPTH / 2)
        if d_fwd > HAUSDORFF_BOUND:
            failures.append(f"{name}: d_forward {d_fwd:.4f} > {HAUSDORFF_BOUND:.4f}")
        if d_bwd > HAUSDORFF_BOUND:
            failures.append(f"{name}: d_backward {d_bwd:.4f} > {HAUSDORFF_BOUND:.4f}")
    _verdict(5, "accumulation-round-trip", started, failures)


# ---------------------------------------------------------------------------
# Criterion 6: far-point budget
# ---------------------------------------------------------------------------


def test_criterion_6_far_point_budget(estimates):
    started = time.perf_counter()
    failures = []
    for name, regime, signed in STRIP_CASES:
        f, _, points = estimates[(name, signed)]
        for eps in (1.0, 0.5, 0.25, 0.125):
            res = remark31_check(points, f, eps)
            if not res.passed:
                failures.append(
                    f"{name} eps={eps}: {res.count_far} far > bound {res.bound}")
    _verdict(6, "far-point-budget", started, failures)


# ---------------------------------------------------------------------------
# Criterion 7: divergence-direction golden case
# ---------------------------------------------------------------------------


def test_criterion_7_divergence_directions(synths, estimates):
    started = time.perf_counter()
    failures = []
    unsigned = synths[("sect6", Regime.B1, False)]
    signed = synths[("sect6", Regime.B1, True)]
    run_u = closure_direction_check(unsigned)
    run_s = closure_direction_check(signed)
    if run_u.status() != "FAIL":
        failures.append("unsigned construction should fail the direction check")
    at_zero = [c for c in run_u.checked if c.x == 0]
    if not at_zero:
        failures.append("no cluster detected at x=0")
    else:
        if at_zero[0].f_directions != (1,):
            failures.append(f"unsigned divergence at 0: {at_zero[0].f_directions}")
        if at_zero[0].closure_directions != (-1,):
            failures.append(f"closure direction at 0: {at_zero[0].closure_directions}")
    if run_s.status() != "PASS":
        failures.append("signed construction should pass the direction check")
    _, est_u, _ = estimates[("sect6", False)]
    _, est_s, _ = estimates[("sect6", True)]
    if est_u.candidates != est_s.candidates:
        a, b = set(est_u.candidates), set(est_s.candidates)
        worst = 0.0
        for p in a ^ b:
            other = b if p in a else a
            worst = max(worst, min(math.hypot(p[0] - q[0], p[1] - q[1])
                                   for q in other) if other else math.inf)
        if worst > 1e-9:
            failures.append(f"estimates differ by {worst}")
    _verdict(7, "divergence-directions", started, failures)


# ---------------------------------------------------------------------------
# Criterion 8: randomized monotonicity
# ---------------------------------------------------------------------------


def _random_target(rng):
    pieces = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["point", "box", "pline", "hyper"])
        r = lambda: F(rng.randint(0, 16), 16)
        if kind == "point":
            pieces.append(Point(r(), F(rng.randint(-4, 4))))
        elif kind == "box":
            a, b = sorted([r(), r()])
            y0, y1 = sorted([rng.randint(-4, 4), rng.randint(-4, 4)])
            pieces.append(Box(a, b, y0, y1))
        elif kind == "pline":
            xs = sorted({r() for _ in range(rng.randint(2, 4))})
            while len(xs) < 2:
                xs = sorted({r() for _ in range(3)})
            pieces.append(PLine(tuple((x, F(rng.randint(-4, 4))) for x in xs)))
        else:
            a, b = sorted([r(), r()])
            if a == b:
                a, b = (a, a + F(1, 16)) if a < 1 else (a - F(1, 16), a)
            coef = F(rng.choice([-2, -1, 1, 2]))
            side = rng.choice(["left", "right", "out"])
            if side == "left":
                pieces.append(Hyper(a, a, b, coef))
            elif side == "right":
                pieces.append(Hyper(b, a, b, coef))
            else:
                p = a - F(1, 8) if a >= F(1, 8) else b + F(1, 8)
                pieces.append(Hyper(p, a, b, coef))
    return TargetSet(tuple(pieces))


def test_criterion_8_randomized_monotonicity():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20240808)
    for case in range(50):
        t = _random_target(rng)
        b1b = check_regime(t, Regime.B1_BOUNDED).passed
        b2b = check_regime(t, Regime.B2_BOUNDED).passed
        b1 = check_regime(t, Regime.B1).passed
        b2 = check_regime(t, Regime.B2).passed
        if b1b and not b2b:
            failures.append(f"case {case}: b1-bounded passed but b2-bounded failed")
        if b1 and not b2:
            failures.append(f"case {case}: b1 passed but b2 failed")
        if TargetAnalysis(t).c_set | t.x_projection() != XSet.interval(0, 1):
            failures.append(f"case {case}: projection partition broken")
    _verdict(8, "randomized-monotonicity", started, failures)

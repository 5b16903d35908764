"""The benchmark's workloads: fixed lists of ``accumgraph`` CLI commands.

A workload is a list of cases. A case is one demo command (``certify``,
``verify-demos``) or one generated target with its whole command set
(``fuzz-stream``). Each case runs through a ``Runner`` from ``harness``,
which executes ``accumgraph.cli.main`` in-process inside the case's own
directory, so every path in a command is relative to that directory.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import prod
from typing import Callable, Dict, List, Tuple

REGIMES = ("b2-bounded", "b2", "b1-bounded", "b1")
BAIRE1 = ("b1-bounded", "b1")
# (stronger, weaker): a target that passes the first regime must pass the
# second. These follow from the regime definitions in the README.
IMPLIED = (("b1-bounded", "b2-bounded"), ("b2-bounded", "b2"), ("b1", "b2"))

# Small per-command sizes for the fuzzed targets, as in the ROADMAP's fuzz
# setup: many cheap commands, so per-command overhead and parsing show.
FUZZ_FLAGS = ("--depth", "6", "--grid", "128")
# Targets per fuzz-stream pass: enough for case_p90_s to rest on 100 cases.
FUZZ_TARGETS = 100


@dataclass
class Case:
    """One timed unit of a workload."""

    name: str
    run: Callable  # run(runner) executes the case's commands
    files: Dict[str, str] = field(default_factory=dict)  # inputs written first


@dataclass
class Workload:
    name: str
    cases: List[Case]
    # True where an unexpected exit code is a known program defect to be
    # measured (counted in ``failed``) rather than a broken benchmark.
    defects_expected: bool
    properties: Dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Demo workloads: commands and their expected exit codes
# ---------------------------------------------------------------------------

CERTIFY = (
    ("strips sect6 --regime b1", 0),
    ("strips hyperbola --regime b1", 0),
    ("strips constant --regime b1", 0),
)

VERIFY_DEMOS = (
    ("verify square --regime b2-bounded", 0),
    ("verify hyperbola --regime b1", 0),
    ("verify sect6 --regime b1 --signed", 0),
    # Unsigned, so closure=FAIL by design: the tent-pole closure diverges
    # only to minus infinity.
    ("verify sect6 --regime b2 --depth 20", 1),
    ("verify constant --regime b1", 0),
)


def _demo_case(index: int, command: str, expect: int) -> Case:
    argv = command.split()

    def run(runner) -> None:
        runner.run(argv + ["--out", "out"], expect=(expect,))

    return Case(f"{index}:{command}", run)


def _demo_workload(name: str, table, seed: int) -> Workload:
    cases = [_demo_case(i, cmd, code) for i, (cmd, code) in enumerate(table)]
    # The inputs are fixed; the seed only sets the order the cases run in.
    random.Random(seed).shuffle(cases)
    return Workload(name, cases, defects_expected=False)


# ---------------------------------------------------------------------------
# fuzz-stream: seeded random small targets, written as target files
# ---------------------------------------------------------------------------


# A piece's type, with its chance out of 156: as in the ROADMAP's fuzz setup
# each of the four kinds has chance 1/4; a box's two x draws coincide (a
# vertical segment, "vbox") with chance 1/13, and a hyperbola arc has its pole
# at an end of its x-range (so the target is unbounded) with chance 2/3.
PIECE_TYPES = {"point": 39, "vbox": 3, "box": 36, "pline": 39, "hyper-end": 26, "hyper-out": 13}
SIDES = {"hyper-end": ("left", "right"), "hyper-out": ("out",)}


def _evenly(rng: random.Random, items: List, weight: Callable, key: Callable,
            count: int) -> List:
    """Draw ``count`` items at evenly spaced quantiles of ``key`` under the
    chances ``weight`` (integers), ties broken at random, in random order.

    This is stratified sampling: every seed draws the same mix of the keyed
    property, which drives the cost of a target, so passes of different
    seeds do comparable work; everything else about the items is random.
    """
    ranked = sorted(items, key=lambda item: (key(item), rng.random()))
    cumulative = list(accumulate(weight(item) for item in ranked))
    total = cumulative[-1]
    scaled = [2 * count * c for c in cumulative]
    picks = [ranked[bisect_right(scaled, (2 * k + 1) * total)] for k in range(count)]
    rng.shuffle(picks)
    return picks


def _twelfth(i: int) -> Fraction:
    return Fraction(i, 12)


def fuzz_targets(seed: int, count: int) -> Tuple[List[str], Counter]:
    """``count`` random small targets: 1-4 pieces of the four kinds on a 1/12
    x-grid with |y| <= 3, plus one pline covering [0, 1]. The number of
    pieces, their types, the box sizes and the hyperbola arcs are drawn
    stratified (``_evenly``); positions, values, points and plines are drawn
    independently. Returns the target file texts and the pieces by kind."""
    rng = random.Random(seed)
    types = list(PIECE_TYPES)
    shapes = [seq for n in range(1, 5) for seq in product(types, repeat=n)]
    shapes = _evenly(
        rng, shapes, count=count, key=lambda seq: (len(seq), sorted(seq)),
        weight=lambda seq: prod(PIECE_TYPES[t] for t in seq) * 156 ** (4 - len(seq)))
    drawn = Counter(t for seq in shapes for t in seq)
    boxes = iter(_evenly(
        rng, [(i, j, y0, y1) for i, j in product(range(13), repeat=2) if i != j
              for y0, y1 in product(range(-3, 4), repeat=2)],
        count=drawn["box"], weight=lambda b: 1,
        key=lambda b: (abs(b[0] - b[1]) * abs(b[2] - b[3]), abs(b[0] - b[1]))))
    hypers = {t: iter(_evenly(
        rng, list(product(range(13), range(13), sides, (-1, 1, 2))),
        count=drawn[t], weight=lambda h: 1, key=lambda h: max(abs(h[0] - h[1]), 1)))
        for t, sides in SIDES.items()}
    middles = [k < count // 2 for k in range(count)]
    rng.shuffle(middles)

    texts: List[str] = []
    for seq, middle in zip(shapes, middles):
        lines = []
        for t in seq:
            if t == "point":
                lines.append(f"point {_twelfth(rng.randint(0, 12))} {rng.randint(-3, 3)}")
            elif t in ("box", "vbox"):
                if t == "box":
                    i, j, ya, yb = next(boxes)
                else:
                    i = j = rng.randint(0, 12)
                    ya, yb = rng.randint(-3, 3), rng.randint(-3, 3)
                a, b = sorted((_twelfth(i), _twelfth(j)))
                y0, y1 = sorted((ya, yb))
                lines.append(f"box {a} {b} {y0} {y1}")
            elif t == "pline":
                xs = sorted(rng.sample(range(13), rng.randint(2, 3)))
                lines.append("pline " + " ".join(f"{_twelfth(x)}:{rng.randint(-3, 3)}" for x in xs))
            else:
                i, j, side, coef = next(hypers[t])
                a, b = sorted((_twelfth(i), _twelfth(j)))
                if a == b:
                    a, b = (a, a + Fraction(1, 12)) if a < 1 else (a - Fraction(1, 12), a)
                if side == "left":
                    pole = a
                elif side == "right":
                    pole = b
                else:
                    pole = a - Fraction(1, 6) if a >= Fraction(1, 6) else b + Fraction(1, 6)
                lines.append(f"hyper {pole} {a} {b} {coef}")
        cover = [f"0:{rng.randint(-3, 3)}", f"1:{rng.randint(-3, 3)}"]
        if middle:
            cover.insert(1, f"{_twelfth(rng.randint(1, 11))}:{rng.randint(-3, 3)}")
        lines.append("pline " + " ".join(cover))
        texts.append("\n".join(lines) + "\n")
    kinds = Counter({"point": drawn["point"], "box": drawn["box"] + drawn["vbox"],
                     "pline": drawn["pline"], "hyper": drawn["hyper-end"] + drawn["hyper-out"]})
    return texts, kinds


def _fuzz_case(index: int, text: str) -> Case:
    """check every regime; verify each passing regime; strips each passing
    Baire-1 regime. Theory: a regime-passing target verifies PASS and its
    strips PASS, so both expect exit 0."""

    def run(runner) -> None:
        checks = {r: runner.run(["check", "t.txt", "--regime", r], expect=(0, 1))
                  for r in REGIMES}
        passed = {r: res.code == 0 for r, res in checks.items()}
        for strong, weak in IMPLIED:
            if passed[strong] and not passed[weak]:
                checks[weak].violation = f"monotonicity: {strong} PASS but {weak} FAIL"
        for r in REGIMES:
            if passed[r]:
                runner.run(["verify", "t.txt", "--regime", r, *FUZZ_FLAGS,
                            "--out", f"verify-{r}.csv"], expect=(0,))
        for r in BAIRE1:
            if passed[r]:
                runner.run(["strips", "t.txt", "--regime", r, *FUZZ_FLAGS,
                            "--out", f"strips-{r}"], expect=(0,))

    return Case(f"target-{index:03d}", run, {"t.txt": text})


def _fuzz_workload(seed: int) -> Workload:
    texts, kinds = fuzz_targets(seed, FUZZ_TARGETS)
    cases = [_fuzz_case(i, text) for i, text in enumerate(texts)]
    props = {"targets": FUZZ_TARGETS, "pieces_by_kind": dict(kinds), "cover_plines": FUZZ_TARGETS}
    return Workload("fuzz-stream", cases, defects_expected=True, properties=props)


def build(name: str, seed: int) -> Workload:
    if name == "certify":
        return _demo_workload(name, CERTIFY, seed)
    if name == "verify-demos":
        return _demo_workload(name, VERIFY_DEMOS, seed)
    if name == "fuzz-stream":
        return _fuzz_workload(seed)
    raise KeyError(name)


NAMES = ("certify", "verify-demos", "fuzz-stream")

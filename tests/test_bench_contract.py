"""What the benchmark harness reads of the program.

``perfbench/harness.py`` wraps public functions at the names that
``accumgraph.cli`` imports them under, and its counters read fields of their
results. Both are checked here, on one demo's real results, without running
the benchmark and without changing its files.
"""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from accumgraph import cli
from accumgraph.conditions import Regime

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    yield module
    del sys.modules[spec.name]


def test_every_traced_name_is_a_cli_function(harness):
    for name, (attr, _) in harness.TRACED.items():
        assert callable(getattr(cli, attr, None)), (name, attr)


def test_every_counter_reads_a_real_result(harness):
    """The traced functions on sect6 at depth 6 in regime b1 with signed
    enumeration values, as ``strips`` and ``verify`` call them, and each
    counter against the field it counts, read independently."""
    target = cli.demo_set("sect6", 6)
    regime = Regime.B1
    verdict = cli.check_regime(target, regime)
    f = cli.synthesize(target, regime, 6, signed=True)
    grid = [F(i, 64) for i in range(65)]
    sched = cli.epsilon_schedule(f, grid)
    report = cli.verify_strips(cli.build_strip_family(sched), f)
    sample = cli.sample_graph(f, F(1, 64))
    est = cli.accumulation_estimate(sample, 2 / 64)
    far = cli.remark31_check(sample, f, 2 / 64)
    results = {"check_regime": verdict, "synthesize": f, "epsilon_schedule": sched,
               "verify_strips": report, "sample_graph": sample,
               "accumulation_estimate": est, "remark31_check": far}
    counts = Counter()
    for name, (attr, count) in harness.TRACED.items():
        if count is not None:
            count(counts, results[attr])
    assert f.c_points and f.a_values and est.candidates and far.count_far
    assert dict(counts) == {
        "conditions.regime_pass": 1,
        "synthesis.net_points": len(f.a_values),
        "synthesis.c_points": len(f.c_values),
        "strips.columns": len(sched.columns),
        "strips.radii": sum(map(len, sched.eps)),
        "strips.fail": 0,
        "verification.samples": len(sample.xy),
        "verification.candidates": len(est.candidates),
        "verification.far_points": far.count_far,
    }
    assert set(counts) <= set(harness.COUNTERS)

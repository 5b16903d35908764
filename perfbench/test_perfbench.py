"""Smoke test of the benchmark itself, at one cheap case per workload.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import harness
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def one_case(name: str, pick: str) -> workloads.Workload:
    workload = workloads.build(name, seed=0)
    workload.cases = [c for c in workload.cases if pick in c.name][:1]
    return workload


def bench(workload, trace=False):
    return run.run_benchmark(workload, 0, seconds=0, trace=trace)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name,pick", [
    ("certify", "strips constant"),
    ("verify-demos", "verify constant"),
    ("fuzz-stream", "target-"),
])
def test_plain_and_traced_run(name, pick):
    workload = one_case(name, pick)
    assert len(workload.cases) == 1
    plain = bench(workload)
    assert plain["result"]["correct"], plain["problems"]
    assert set(plain["result"]["metrics"]) == END_TO_END
    assert plain["result"]["attempted"] >= 1

    traced = bench(workload, trace=True)
    assert traced["result"]["correct"], traced["problems"]
    assert set(traced["result"]["metrics"]) == PER_LAYER
    assert traced["result"]["metrics"]["cli.calls"]["value"] == plain["result"]["attempted"]
    assert traced["spans"], "a traced run records spans"
    times = {k: m["value"] for k, m in traced["result"]["metrics"].items()
             if k.endswith("_s") and k != "trace.overhead_s"}
    assert min(times.values()) >= 0, times
    # Tracing must not change what the program prints or writes.
    assert traced["digest"] == plain["digest"]


def test_unexpected_exit_code_fails_the_gate():
    table = (("verify constant --regime b1", 1),)  # deliberately wrong expectation
    report = bench(workloads._demo_workload("verify-demos", table, 0))
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == 1


def test_regime_monotonicity_violation_fails_the_run(monkeypatch):
    # This target passes b2 but not b2-bounded; claim the reverse implication.
    monkeypatch.setattr(workloads, "IMPLIED", (("b2", "b2-bounded"),))
    case = workloads._fuzz_case(0, "hyper 0 0 1/2 1\npline 0:0 1:0\n")
    report = bench(workloads.Workload("fuzz-stream", [case], defects_expected=True))
    assert not report["result"]["correct"]
    assert any("monotonicity" in p for p in report["problems"])


def test_digest_mismatch_with_an_earlier_run_fails(results_dir):
    workload = one_case("verify-demos", "verify constant")
    assert bench(workload)["result"]["correct"]
    store = results_dir / "digests.json"
    recorded = json.loads(store.read_text())
    store.write_text(json.dumps({key: "0" * 64 for key in recorded}))
    report = bench(workload)
    assert not report["result"]["correct"]
    assert any("digest" in p for p in report["problems"])


def test_fuzz_inputs_follow_the_seed():
    first = workloads.build("fuzz-stream", 7)
    again = workloads.build("fuzz-stream", 7)
    other = workloads.build("fuzz-stream", 8)
    assert run.inputs_hash(first) == run.inputs_hash(again) != run.inputs_hash(other)


def test_probe_scales_wall_time_to_reference_speed():
    probe = harness.Probe()
    # Kernel runs of twice the reference time, ending at t = 1.0, 1.1, ...
    probe.spent = [2 * probe.REFERENCE_S] * 20
    probe.ends = [1.0 + 0.1 * k for k in range(20)]
    probe.finish()
    # 0.5 s of wall time holding 5 kernel runs, on a machine at half speed.
    expected = (0.5 - 5 * 2 * probe.REFERENCE_S) / 2
    assert probe.seconds(1.05, 1.55) == pytest.approx(expected)

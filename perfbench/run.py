"""Benchmark of the ``accumgraph`` command line, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Workloads are defined in ``workloads.py``. With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Full results, run
metadata and (traced) spans go to ``perfbench/.results/``. The exit code is
1 when a correctness gate or an output digest check fails, 2 on bad usage
or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import harness
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / ".results"
SETUP_REPEATS = 6  # set-up samples before and again after the passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import accumgraph.cli
accumgraph.cli.build_parser()
print(time.perf_counter() - t)
"""


def pin_threads() -> None:
    """One thread for numpy's native libraries; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result)."""


def load_cli():
    src = ROOT / "src"
    if not (src / "accumgraph" / "cli.py").is_file():
        raise BenchError(f"no accumgraph sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import accumgraph.cli

    return accumgraph.cli


def measure_setup(repeats: int) -> List[float]:
    """Seconds to import accumgraph.cli and build its parser, each in a fresh
    interpreter; wall time, not scaled by the speed probe (import speed
    does not follow the probe's kernel)."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return samples


def tree_hash() -> str:
    """Hash of the program and benchmark sources: outputs of two runs with
    the same hash and the same inputs must be byte-identical."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def inputs_hash(workload) -> str:
    h = hashlib.sha256(workload.name.encode())
    for case in workload.cases:
        h.update(case.name.encode() + b"\0")
        for name, text in sorted(case.files.items()):
            h.update(f"{name}\0{text}\0".encode())
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> Dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": tree_hash(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of the samples (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_digest_store(key: str, digest: str) -> Optional[str]:
    """Compare with the digest an earlier run of the same sources and inputs
    recorded; record it when there is none."""
    store_path = RESULTS / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.get(key)
    if known is not None:
        return None if known == digest else f"output digest {digest} differs from {known} of an earlier run"
    store[key] = digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return None


def run_passes(workload, cli, seconds: float, trace: bool, work_root: Path):
    """Repeat passes (a plain one, plus a traced one when tracing) while
    another round still fits in ``seconds``; at least one round."""
    plain: List[harness.PassResult] = []
    traced: List[harness.PassResult] = []
    probe = harness.Probe()
    start = time.perf_counter()
    with probe.running():
        while True:
            plain.append(harness.run_pass(workload, cli.main, work_root))
            if trace:
                tracer = harness.Tracer()
                with tracer.installed(cli):
                    traced.append(harness.run_pass(workload, cli.main, work_root, tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
    return plain, traced, probe


def regime_pass_share(result: harness.PassResult) -> Dict[str, float]:
    checks = [c for c in result.commands if c.argv[0] == "check"]
    share = {}
    for regime in workloads.REGIMES:
        mine = [c for c in checks if c.argv[-1] == regime]
        share[regime] = sum(c.code == 0 for c in mine) / len(mine) if mine else 0.0
    return share


def layer_metrics(plain, traced, probe: harness.Probe) -> Dict[str, Dict]:
    metrics: Dict[str, Dict] = {}
    per_pass = [t.tracer.self_times(probe) for t in traced]
    names = ["cli.main", *harness.TRACED]
    for name in names:
        label = "cli.self" if name == "cli.main" else name
        calls_label = "cli.calls" if name == "cli.main" else f"{name}.calls"
        metrics[f"{label}_s"] = {
            "value": statistics.median(secs.get(name, 0.0) for secs, _ in per_pass), "unit": "s"}
        metrics[calls_label] = {"value": per_pass[0][1][name], "unit": "count"}
    for name in harness.COUNTERS:
        metrics[name] = {"value": traced[0].tracer.counts[name], "unit": "count"}
    overhead = (statistics.median(t.seconds(probe) for t in traced)
                - statistics.median(p.seconds(probe) for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run_benchmark(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload and return the full report; ``report["result"]`` is
    the contract's result object."""
    cli = load_cli()
    setup: List[float] = []
    if not trace:
        measure_setup(1)  # fills the bytecode cache
        setup += measure_setup(SETUP_REPEATS)
    RESULTS.mkdir(exist_ok=True)
    work_root = RESULTS / "work"
    work_root.mkdir(exist_ok=True)

    plain, traced, probe = run_passes(workload, cli, seconds, trace, work_root)
    if not trace:
        # Half the set-up samples after the passes: the machine's speed
        # changes within seconds, so the samples span the whole run.
        setup += measure_setup(SETUP_REPEATS)
    passes = plain + traced
    commands = [c for p in passes for c in p.commands]
    failures = [c for c in commands if c.failed]
    problems: List[str] = []
    if not workload.defects_expected:
        problems += [f"correctness gate: {c.describe()}" for c in failures]
    problems += [f"theorem broken: {c.describe()}" for c in commands if c.violation]

    digests = sorted({p.digest() for p in passes})
    if len(digests) > 1:
        problems.append(f"output digests differ between passes: {digests}")
    key = f"{tree_hash()}:{inputs_hash(workload)}"
    stored = check_digest_store(key, digests[0])
    if stored:
        problems.append(stored)
    if len({json.dumps(t.tracer.counts, sort_keys=True) for t in traced}) > 1:
        problems.append("layer counters differ between traced passes")

    if trace:
        metrics = layer_metrics(plain, traced, probe)
    else:
        # Each case's median over the passes, so the sample count is the
        # number of cases however many passes fit.
        per_case = zip(*([probe.seconds(c.start, c.end) for c in p.cases] for p in plain))
        cases = [statistics.median(times) for times in per_case]
        metrics = {
            # The fastest sample: other tenants' load only ever slows an
            # import down, so the minimum is the sample it touched least.
            "setup_s": {"value": min(setup), "unit": "s"},
            "run_s": {"value": statistics.median(p.seconds(probe) for p in plain), "unit": "s"},
            "case_p50_s": {"value": statistics.median(cases), "unit": "s"},
            "case_p90_s": {"value": quantile(cases, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_share": {"value": 1 - len(failures) / len(commands), "unit": "ratio"},
        }
    properties = dict(workload.properties)
    if workload.name == "fuzz-stream":
        properties["regime_pass_share"] = regime_pass_share(plain[0])
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "metadata": metadata(),
        "properties": properties,
        "passes": {"plain": [p.seconds(probe) for p in plain],
                   "traced": [t.seconds(probe) for t in traced]},
        "passes_wall": {"plain": [p.wall for p in plain], "traced": [t.wall for t in traced]},
        "probe": {"samples": len(probe.spent), "kernel_total_s": sum(probe.spent),
                  "kernel_mean_s": probe.mean_kernel(), "reference_s": probe.REFERENCE_S},
        "case_samples": len(workload.cases),
        "setup_samples": setup,
        "digest": digests[0],
        "fail_share": len(failures) / len(commands),
        "failures": [c.describe() for c in failures],
        "problems": problems,
        "spans": [s for t in traced for s in t.tracer.spans],
        "result": {
            "correct": not problems,
            "attempted": len(commands),
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        report = run_benchmark(workloads.build(args.workload, args.seed),
                               args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans")
    if spans:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    result = report["result"]
    for key in ("python", "numpy", "nproc", "cpu_model", "git_commit"):
        print(f"# {key}: {report['metadata'][key]}")
    print(f"# workload {args.workload} seed {args.seed}: {len(report['passes']['plain'])} plain "
          f"and {len(report['passes']['traced'])} traced passes over "
          f"{report['case_samples']} cases")
    for key, value in report["properties"].items():
        print(f"# {key}: {value}")
    print(f"# pass seconds at reference speed {report['passes']}, wall {report['passes_wall']}")
    print(f"# speed probe {report['probe']}")
    print(f"# digest {report['digest']}")
    print(f"# fail_share {report['fail_share']} ({result['failed']}/{result['attempted']} commands)")
    for line in report["failures"][:10]:
        print(f"# failed: {line}")
    for line in report["problems"]:
        print(f"# PROBLEM: {line}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

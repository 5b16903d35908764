"""Run workload cases in-process and, in traced passes, record layer spans.

Every command goes through ``accumgraph.cli.main(argv)`` on one thread, with
stdout and stderr captured and the working directory set to the case's own
temporary directory. A traced pass replaces the public functions that
``accumgraph.cli`` imports, at the names it imports them under, with
wrappers that record one span per call; nothing in the program changes.
A ``Probe`` samples the machine's speed while passes run, so that times can
be reported at a fixed reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import shutil
import signal
import tempfile
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _reference_kernel() -> None:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i)


class Probe:
    """Times a fixed reference kernel every ``INTERVAL`` seconds of wall time,
    from a SIGALRM handler on the thread that runs the commands.

    On a shared virtual machine the speed of the CPU we run on swings by up
    to 2x within seconds as other tenants come and go, so raw wall times of
    identical passes differ by 10-30%. The kernel slows down with the program
    around it, so ``seconds(a, b)`` reports the wall time of [a, b], less the
    kernel runs inside it, at reference speed: scaled by ``REFERENCE_S`` over
    the mean kernel time near [a, b]. The kernel costs about 2% of the wall
    time.
    """

    # The kernel's time on an idle 2-vCPU "Intel(R) Xeon(R) Processor" VM
    # with Python 3.11, where this benchmark was calibrated.
    REFERENCE_S = 250e-6
    INTERVAL = 0.02
    MARGIN = 0.1  # seconds of samples either side of a short interval

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.spent: List[float] = []
        self._busy = False
        self._sums: List[float] = [0.0]

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # No collection inside the kernel: the kernel's own objects are freed
        # before it ends, so collections the program's allocations made due
        # stay in the program's time and out of the kernel's.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_kernel()
            end = time.perf_counter()
            self.ends.append(end)
            self.spent.append(end - start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample(None, None)  # at least one sample, however short the run
        self.finish()

    def finish(self) -> None:
        """Index the samples taken; ``seconds`` reads the index."""
        self._sums = [0.0, *accumulate(self.spent)]

    def mean_kernel(self) -> float:
        return self._sums[-1] / len(self.spent)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] outside kernel runs."""
        inside = self._sums[bisect_right(self.ends, end)] - self._sums[bisect_left(self.ends, start)]
        return max(0.0, end - start - inside)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed near [start, end]."""
        lo = bisect_left(self.ends, start - self.MARGIN)
        hi = bisect_right(self.ends, end + self.MARGIN)
        if hi > lo:
            return self.REFERENCE_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
        return self.REFERENCE_S / self.mean_kernel()

    def seconds(self, start: float, end: float) -> float:
        """Seconds [start, end] takes at reference speed."""
        return self.busy(start, end) * self.factor(start, end)


@dataclass
class CommandResult:
    argv: Tuple[str, ...]
    expect: Tuple[int, ...]
    code: Optional[int]  # None when main raised
    error: str = ""  # the exception main raised
    # Set when this verdict and another of its case break a theorem (regime
    # monotonicity); that fails the whole run, on every workload.
    violation: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error or self.violation) or self.code not in self.expect

    def describe(self) -> str:
        got = "raised" if self.code is None else f"exit {self.code}"
        why = "".join(f" ({text})" for text in (self.error, self.violation) if text)
        return f"{' '.join(self.argv)}: {got}, expected {'/'.join(map(str, self.expect))}{why}"


@dataclass
class CaseResult:
    name: str
    start: float
    end: float
    commands: List[CommandResult]
    digest: str

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class PassResult:
    cases: List[CaseResult]
    tracer: Optional["Tracer"] = None  # set on traced passes

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.cases)

    def seconds(self, probe: Probe) -> float:
        return sum(probe.seconds(c.start, c.end) for c in self.cases)

    @property
    def commands(self) -> List[CommandResult]:
        return [cmd for case in self.cases for cmd in case.commands]

    def digest(self) -> str:
        """Digest of every case's outputs, independent of case order."""
        h = hashlib.sha256()
        for case in sorted(self.cases, key=lambda c: c.name):
            h.update(f"{case.name}\0{case.digest}\n".encode())
        return h.hexdigest()


class Runner:
    """Runs CLI commands for one case and hashes what they print."""

    def __init__(self, main: Callable, tracer: Optional["Tracer"] = None):
        self.main = tracer.wrap("cli.main", main) if tracer else main
        self.tracer = tracer
        self.results: List[CommandResult] = []
        self.hash = hashlib.sha256()

    def run(self, argv: List[str], expect: Tuple[int, ...]) -> CommandResult:
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a measured failure, not ours
                code, error = None, f"{type(exc).__name__}: {exc}"
        result = CommandResult(tuple(argv), tuple(expect), code, error)
        self.results.append(result)
        self.hash.update(f"{' '.join(argv)}\0{code}\0{out.getvalue()}\0".encode())
        if self.tracer:
            self.tracer.count_command(result)
        return result


def _hash_files(directory: Path, h) -> None:
    for path in sorted(directory.iterdir()):
        h.update(f"{path.name}\0".encode())
        h.update(path.read_bytes())


def run_pass(workload, main: Callable, work_root: Path,
             tracer: Optional["Tracer"] = None) -> PassResult:
    """Run every case once. A case's interval covers its commands only, not
    the writing of its inputs or the hashing of its outputs."""
    results: List[CaseResult] = []
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work_root))
    home = os.getcwd()
    try:
        for i, case in enumerate(workload.cases):
            case_dir = pass_dir / f"case{i:03d}"
            case_dir.mkdir()
            for name, text in case.files.items():
                (case_dir / name).write_text(text, encoding="utf-8")
            runner = Runner(main, tracer)
            if tracer:
                tracer.case = case.name
            os.chdir(case_dir)
            try:
                start = time.perf_counter()
                case.run(runner)
                end = time.perf_counter()
            finally:
                os.chdir(home)
            _hash_files(case_dir, runner.hash)
            results.append(CaseResult(case.name, start, end, runner.results,
                                      runner.hash.hexdigest()))
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return PassResult(results, tracer)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _count_synth(c: Counter, f) -> None:
    c["synthesis.net_points"] += sum(f.approx.level_sizes())
    c["synthesis.c_points"] += len(f.c_points)


def _count_schedule(c: Counter, sched) -> None:
    c["strips.columns"] += len(sched.columns)
    c["strips.radii"] += sum(len(row) for row in sched.eps)


# Layer metric name -> (name in accumgraph.cli, counter fed by the result).
TRACED: Dict[str, Tuple[str, Optional[Callable]]] = {
    "fileio.parse_target_text": ("parse_target_text", None),
    "demos.demo_set": ("demo_set", None),
    "conditions.check_regime": (
        "check_regime",
        lambda c, v: c.update(["conditions.regime_pass" if v.passed else "conditions.regime_fail"])),
    "synthesis.synthesize": ("synthesize", _count_synth),
    "strips.epsilon_schedule": ("epsilon_schedule", _count_schedule),
    "strips.build_strip_family": ("build_strip_family", None),
    "strips.verify_strips": (
        "verify_strips", lambda c, r: c.update({"strips.fail": int(not r.passed)})),
    "verification.sample_graph": (
        "sample_graph", lambda c, pts: c.update({"verification.samples": len(pts)})),
    "verification.accumulation_estimate": (
        "accumulation_estimate",
        lambda c, est: c.update({"verification.candidates": len(est.candidates)})),
    "verification.hausdorff_to_target": ("hausdorff_to_target", None),
    "verification.remark31_check": (
        "remark31_check", lambda c, far: c.update({"verification.far_points": far.count_far})),
    "verification.closure_direction_check": ("closure_direction_check", None),
}

COUNTERS = (
    "synthesis.net_points", "synthesis.c_points", "strips.columns", "strips.radii",
    "verification.samples", "verification.candidates", "verification.far_points",
    "conditions.regime_pass", "conditions.regime_fail",
    "strips.fail", "verification.fail", "cli.errors",
)


@dataclass
class Tracer:
    """Spans kept in memory: [name, start, end, case, parent span index]."""

    spans: List[list] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    case: str = ""
    _stack: List[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, self.case, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def count_command(self, result: CommandResult) -> None:
        if result.code in (None, 2):
            self.counts["cli.errors"] += 1
        if result.argv[0] == "verify" and result.code == 1:
            self.counts["verification.fail"] += 1

    @contextlib.contextmanager
    def installed(self, cli_module):
        """Swap the wrapped functions into ``cli_module`` for the duration."""
        originals = {attr: getattr(cli_module, attr) for attr, _ in TRACED.values()}
        try:
            for name, (attr, count) in TRACED.items():
                setattr(cli_module, attr, self.wrap(name, originals[attr], count))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(cli_module, attr, fn)

    def self_times(self, probe: Probe) -> Tuple[Dict[str, float], Counter]:
        """Summed self time at reference speed and call count per span name.
        Self time is a span's busy time minus that of its direct children,
        scaled by the span's own speed factor."""
        busy = [probe.busy(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                child[parent] += busy[i]
        seconds: Dict[str, float] = {}
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (busy[i] - child[i]) * probe.factor(start, end)
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] += 1
        return seconds, calls

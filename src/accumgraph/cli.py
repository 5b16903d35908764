"""Command-line interface.

Subcommands:

    demo NAME            write a built-in target set in the file grammar
    check TARGET         run a regime's hypothesis checks
    synth TARGET         synthesize the witness and emit its sampled graph
    strips TARGET        build and verify the nested strip certificates
    verify TARGET        estimate the accumulation set and compare with the
                         target (plus far-point and divergence checks)

TARGET is a file path, '-' for stdin, or a built-in demo name. Exit codes:
0 success/PASS, 1 check or verification FAIL, 2 usage or parse errors.
All file output is atomic (write to temp, rename).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

from .conditions import Regime, check_regime
from .demos import DEMO_NAMES, UnknownDemoError, demo_c_order, demo_set, truncation_notice
from .fileio import ParseError, parse_target_file, parse_target_text, serialize_target
from .geometry import TargetSet
from .strips import build_strip_family, epsilon_schedule, verify_strips
from .synthesis import NetPlacementError, RegimeUnsatisfiedError, SynthFunction, synthesize
from .verification import (
    accumulation_estimate,
    closure_direction_check,
    hausdorff_to_target,
    remark31_check,
    sample_graph,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _write_atomic(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target, tmp = Path(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None  # not the temporary name
        raise


def _load_target(spec: str, depth: int) -> Tuple[TargetSet, Optional[str]]:
    """Resolve a demo name, '-', or a path. Returns (set, demo name or None)."""
    if spec in DEMO_NAMES:
        notice = truncation_notice(spec, depth)
        if notice:
            print(notice, file=sys.stderr)
        return demo_set(spec, depth), spec
    if spec == "-":
        return parse_target_text(sys.stdin.read()), None
    return parse_target_file(spec), None


def _synthesize(target: TargetSet, demo: Optional[str], args: argparse.Namespace) -> SynthFunction:
    c_order = demo_c_order(demo, args.depth) if demo else None
    return synthesize(
        target,
        Regime(args.regime),
        depth=args.depth,
        signed=args.signed,
        c_order=c_order,
    )


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _csv(header: str, rows: Iterable[Sequence[float]], precision: int) -> str:
    """The header line, then one line of each row's floats: one %-format per
    row, each field formatted as ``_fmt`` formats it."""
    line = ",".join([f"%.{precision}g"] * (header.count(",") + 1))
    return "\n".join([header] + [line % tuple(row) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_demo(args: argparse.Namespace) -> int:
    target, _ = _load_target(args.name, args.depth)
    comments = (f"built-in demo '{args.name}' depth={args.depth}",)
    _write_atomic(args.out, serialize_target(target, comments))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    target, _ = _load_target(args.target, args.depth)
    verdict = check_regime(target, Regime(args.regime))
    print("\n".join(verdict.report_lines()))
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_synth(args: argparse.Namespace) -> int:
    target, demo = _load_target(args.target, args.depth)
    f = _synthesize(target, demo, args)
    sample = sample_graph(f, Fraction(1, args.grid))
    _write_atomic(args.out, _csv("x,y", sample.xy.tolist(), args.precision))
    return EXIT_OK


def _cmd_strips(args: argparse.Namespace) -> int:
    target, demo = _load_target(args.target, args.depth)
    f = _synthesize(target, demo, args)
    grid = [Fraction(i, args.grid) for i in range(args.grid + 1)]
    sched = epsilon_schedule(f, grid)
    family = build_strip_family(sched)
    report = verify_strips(family, f)
    print("\n".join(report.lines()))
    if args.out:
        xs = family.col_floats.tolist()
        for level in family.levels:
            rows = zip(xs, level.lo.tolist(), level.hi.tolist())
            _write_atomic(f"{args.out}.n{level.n}.csv", _csv("x,lo,hi", rows, args.precision))
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    target, demo = _load_target(args.target, args.depth)
    f = _synthesize(target, demo, args)
    eps = args.eps if args.eps is not None else 2.0 / args.grid
    sample = sample_graph(f, Fraction(1, args.grid))
    est = accumulation_estimate(sample, eps, min_count=args.min_count)
    y_cap = args.ycap if args.ycap is not None else args.depth / 2.0
    d_fwd, d_bwd = hausdorff_to_target(est, target, y_cap)
    far = remark31_check(sample, f, eps)
    closure = closure_direction_check(f)
    bound = 2.0 * eps + 1.0 / args.depth
    hausdorff_ok = d_fwd <= bound and d_bwd <= bound
    print(
        f"VERIFY d_forward={_fmt(d_fwd, args.precision)}"
        f" d_backward={_fmt(d_bwd, args.precision)}"
        f" remark31={'PASS' if far.passed else 'FAIL'}"
        f" closure={closure.status()}"
    )
    if args.out:
        _write_atomic(args.out, _csv("x,y", est.candidates, args.precision))
    ok = hausdorff_ok and far.passed and (closure.vacuous or closure.passed)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _checked(cast, ok, need: str):
    """argparse type: a ``cast`` value for which ``ok`` holds."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value
    return parse


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    return _checked(int, lambda value: value >= low, f"at least {low}")


_finite_positive = _checked(float, lambda value: 0.0 < value < float("inf"), "finite and positive")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--depth", type=_int_at_least(1), default=10,
                     help="truncation depth N (default 10)")
    sub.add_argument("--regime", required=True,
                     choices=[r.value for r in Regime],
                     help="synthesis regime")
    sub.add_argument("--signed", action="store_true",
                     help="sign the empty-slice values toward the "
                          "closure divergence direction")
    sub.add_argument("--grid", type=_int_at_least(1), default=1024,
                     help="verification grid resolution M (default 1024)")
    sub.add_argument("--precision", type=_int_at_least(0), default=12,
                     help="significant digits in CSV output (default 12)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accumgraph",
        description="Decide, synthesize and verify graph accumulation sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_demo = subs.add_parser("demo", help="write a built-in target set")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--depth", type=_int_at_least(1), default=10)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=_cmd_demo)

    p_check = subs.add_parser("check", help="run regime hypothesis checks")
    p_check.add_argument("target", help="target file, '-', or demo name")
    p_check.add_argument("--regime", required=True,
                         choices=[r.value for r in Regime])
    p_check.add_argument("--depth", type=_int_at_least(1), default=10)
    p_check.set_defaults(func=_cmd_check)

    p_synth = subs.add_parser("synth", help="synthesize and emit sampled graph")
    p_synth.add_argument("target")
    _add_common(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_strips = subs.add_parser("strips", help="build and verify strip certificates")
    p_strips.add_argument("target")
    _add_common(p_strips)
    p_strips.set_defaults(func=_cmd_strips)

    p_verify = subs.add_parser("verify", help="verify the accumulation set")
    p_verify.add_argument("target")
    _add_common(p_verify)
    p_verify.add_argument("--eps", type=_finite_positive, default=None,
                          help="clustering cell size (default 2/grid)")
    p_verify.add_argument("--min-count", type=_int_at_least(2), default=3,
                          help="distinct-x samples per candidate cell (default 3)")
    p_verify.add_argument("--ycap", type=_finite_positive, default=None,
                          help="y band for the Hausdorff comparison (default depth/2)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # An OverflowError is a target value beyond float range.
    except (ParseError, UnknownDemoError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegimeUnsatisfiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("\n".join(exc.verdict.report_lines()), file=sys.stderr)
        return EXIT_FAIL
    except NetPlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

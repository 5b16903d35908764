"""Command-line behavior: exit codes, piping, determinism."""

import io
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from accumgraph.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, _csv, build_parser, main
from accumgraph.conditions import Regime
from accumgraph.demos import DEMO_NAMES


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_check_square_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(["check", "square", "--regime", "b1-bounded"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_FAIL
    assert "REGIME b1-bounded FAIL" in out
    code, out, _ = run_cli(["check", "square", "--regime", "b2-bounded"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "REGIME b2-bounded PASS" in out


def test_demo_pipes_into_synth(capsys, monkeypatch):
    code, demo_text, err = run_cli(["demo", "sect6", "--depth", "4"],
                                   capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "truncated" in err
    code, csv_text, _ = run_cli(
        ["synth", "-", "--regime", "b1", "--depth", "4", "--grid", "64"],
        stdin_text=demo_text, capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 65


def test_parse_error_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["check", "-", "--regime", "b2"],
                           stdin_text="box 0 2 0 1\n",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_missing_file_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["check", "/nonexistent/file.txt", "--regime", "b2"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE


def test_synth_regime_failure_exit(capsys, monkeypatch):
    code, _, err = run_cli(["synth", "square", "--regime", "b1"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_FAIL
    assert "REGIME b1 FAIL" in err


def test_verify_constant_passes(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "constant", "--regime", "b1", "--depth", "8",
         "--grid", "512"],
        capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out.startswith("VERIFY d_forward=")
    assert "remark31=PASS" in out
    assert "closure=N/A" in out


def test_strips_small_run(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["strips", "constant", "--regime", "b2", "--depth", "4",
         "--grid", "128"],
        capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert "STRIPS PASS" in out


def test_synth_deterministic_output(tmp_path, capsys, monkeypatch):
    args = ["synth", "hyperbola", "--regime", "b1", "--depth", "5",
            "--grid", "128"]
    out1 = run_cli(args + ["--out", str(tmp_path / "a.csv")],
                   capsys=capsys, monkeypatch=monkeypatch)
    out2 = run_cli(args + ["--out", str(tmp_path / "b.csv")],
                   capsys=capsys, monkeypatch=monkeypatch)
    assert out1[0] == out2[0] == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("piece", ["box 0 1 0 1e300", "pline 0:0 1:1e300"],
                         ids=["tall-box", "steep-pline"])
def test_tall_pieces_synthesize_quickly(piece, capsys, monkeypatch):
    """The net's work follows the band |y| <= n, not the piece's height. Near
    x = 0 every x offset along the polyline moves y by far more than 1/n, so
    its revisited net points there move in y instead."""
    start = time.perf_counter()
    got, out, err = run_cli(["synth", "-", "--regime", "b2"], stdin_text=piece + "\n",
                            capsys=capsys, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 5.0
    assert got == EXIT_OK and err == ""
    assert len(out.splitlines()) > 1000


@pytest.mark.parametrize("slope", ["1e60", "1e300"])
def test_steep_polylines_synthesize_and_verify(slope, capsys, monkeypatch):
    """b2 passes on a polyline of any finite slope, so synth and verify build
    and check its witness."""
    text = f"pline 0:0 1:{slope}\n"
    grid = ["--depth", "4", "--grid", "64"]
    for argv in (["check"], ["synth", *grid], ["verify", *grid]):
        code, out, err = run_cli([argv[0], "-", "--regime", "b2", *argv[1:]], stdin_text=text,
                                 capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and err == "", (argv, out, err)
    assert out.startswith("VERIFY ")


@pytest.mark.parametrize("text, codes", [
    ("hyper 1 0 1 1e-30", (EXIT_OK, EXIT_FAIL)),
    ("hyper 0 0 1 1e-300", (EXIT_OK,)),
    ("hyper 0 0 1 1e-60", (EXIT_OK,)),
], ids=["end-on-pole", "slope-underflow", "steep-crossing"])
def test_tiny_arcs_verify(text, codes, capsys, monkeypatch):
    """verify reports on arcs of tiny coefficient: a banded arc whose float
    end rounds onto its pole, or whose squared gap to it underflows, gets its
    probes without a ZeroDivisionError, and a crossing too steep for 64
    halvings still gets net points, so the backward distance passes. The arc
    of coefficient 1e-300, whose c c underflows, passes the forward distance
    too: its candidates lie within 1/128 of it."""
    code, out, err = run_cli(["verify", "-", "--regime", "b2", "--depth", "6", "--grid", "128"],
                             stdin_text=text + "\n", capsys=capsys, monkeypatch=monkeypatch)
    assert code in codes and out.startswith("VERIFY ") and err == "", (code, out, err)


def test_steep_pline_beside_an_arc_verifies(capsys, monkeypatch):
    """A target that once failed verify falsely (a random fuzz target): the
    slope-3 polyline was thought to have too few candidates near it. Its
    backward distance is 0.0917, inside the bound 2 eps + 1/depth = 0.198."""
    code, out, _ = run_cli(["verify", "-", "--regime", "b2", "--depth", "6", "--grid", "128"],
                           stdin_text="hyper 1/2 1/6 1/2 2\npline 0:0 1:-3\n",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK, out
    d_backward = float(out.split("d_backward=")[1].split()[0])
    assert d_backward == pytest.approx(0.0917, abs=1e-4) and d_backward < 2 * 2 / 128 + 1 / 6


@pytest.mark.parametrize("cmd, name, x", [
    ("synth", "big-line.txt", "0"),
    *((cmd, "big-arc.txt", "1/64") for cmd in ("synth", "verify", "strips")),
], ids=["synth-big-line", "synth-big-arc", "verify-big-arc", "strips-big-arc"])
def test_beyond_float_value_names_its_x(cmd, name, x, tmp_path, capsys):
    """A graph value beyond float range is one error line that names its x."""
    _write_beyond_float(tmp_path)
    argv = [cmd, str(tmp_path / name), "--regime", "b1" if "arc" in name else "b2"]
    assert main(argv + ["--grid", "64"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: f(x) leaves float range at x={x}\n"


def test_huge_decimal_exponent_is_a_prompt_usage_error(tmp_path, capsys):
    """A one-line target whose exponent would make a 10^8-digit integer is
    refused at its token, at once; the exponents the tests use still parse."""
    path = tmp_path / "huge-exponent.txt"
    path.write_text("point 1/2 1e100000000\n")
    started = time.perf_counter()
    code = main(["check", str(path), "--regime", "b2"])
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        "error: line 1, column 11: exponent of '1e100000000' beyond +-4096"]
    for token in ("1e400", "1e-400", "1e700", "1e-700", "-1e400", "1E+4096", "1e-4096"):
        (tmp_path / "t.txt").write_text(f"point 1/2 {token}\nbox 0 1 0 1\n")
        assert main(["check", str(tmp_path / "t.txt"), "--regime", "b2"]) == EXIT_OK, token
        capsys.readouterr()


def test_demo_writes_file_atomically(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "demo.txt"
    code, _, _ = run_cli(["demo", "square", "--out", str(out_path)],
                         capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out_path.read_text().splitlines()[1] == "box 0 1 0 1"
    leftovers = [p for p in tmp_path.iterdir() if p != out_path]
    assert not leftovers


def test_verify_candidates_csv(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "cand.csv"
    code, _, _ = run_cli(
        ["verify", "constant", "--regime", "b2", "--depth", "6",
         "--grid", "256", "--out", str(out_path)],
        capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) > 4


@pytest.mark.parametrize("precision", [0, 1, 6, 17, 40])
def test_csv_rows_match_per_value_format(precision):
    """One %-format per row writes the bytes of formatting each value on its
    own: infinities, nan, -0.0, subnormals and values at float range ends."""
    values = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e16, 123456789.0, 1e-5, 1e300, -1e-300,
              5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf,
              math.nan]
    rows = [tuple(values[i:i + 3] + values[:max(0, i + 3 - len(values))])
            for i in range(len(values))]
    expected = "\n".join(["x,lo,hi"] + [",".join(f"{v:.{precision}g}" for v in row)
                                         for row in rows]) + "\n"
    assert _csv("x,lo,hi", rows, precision) == expected
    assert _csv("x,y", [list(row[:2]) for row in rows], precision) == "\n".join(
        ["x,y"] + [",".join(f"{v:.{precision}g}" for v in row[:2]) for row in rows]) + "\n"
    assert _csv("x,y", [], precision) == "x,y\n"


def test_unknown_regime_rejected(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["check", "square", "--regime", "b3"])
    assert exc.value.code == EXIT_USAGE


# Targets holding a value beyond float64 range: a point's y itself, and an
# all-finite arc whose f(1/64) is about 6.4e308. The point at 1e700 is too
# far for the band rows of the radius schedule even when scaled.
BEYOND_FLOAT = {
    "big-point.txt": "point 1/2 1e400\nbox 0 1 0 1\n",
    "huge-point.txt": "point 1/2 1e700\nbox 0 1 0 1\n",
    "big-arc.txt": "hyper 0 0 1 1e307\n",
    "big-pole.txt": "hyper 0 0 1 1\npoint 1/2 1e400\n",
    "big-line.txt": "pline 0:1e400 1:1e400\n",
}


def _write_beyond_float(directory):
    for name, text in BEYOND_FLOAT.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("argv", [
    ["verify", "constant", "--regime", "b1", "--grid", "0"],
    ["strips", "constant", "--regime", "b1", "--depth", "0"],
    ["check", "square", "--regime", "b2", "--depth", "-1"],
    ["demo", "square", "--depth", "0"],
    ["verify", "constant", "--regime", "b1", "--min-count", "1"],
    ["synth", "constant", "--regime", "b1", "--grid", "ten"],
    ["check", "{dir}", "--regime", "b1"],
    ["synth", "constant", "--regime", "b1", "--precision", "-1"],
    ["verify", "constant", "--regime", "b1", "--eps", "inf"],
    ["verify", "constant", "--regime", "b1", "--eps", "nan"],
    ["verify", "constant", "--regime", "b1", "--eps", "0"],
    ["verify", "constant", "--regime", "b1", "--ycap", "inf"],
    ["verify", "constant", "--regime", "b1", "--ycap", "nan"],
    ["verify", "constant", "--regime", "b1", "--ycap", "-1"],
    ["synth", "{dir}/big-line.txt", "--regime", "b2"],
    ["verify", "{dir}/big-point.txt", "--regime", "b2"],
    ["strips", "{dir}/huge-point.txt", "--regime", "b2-bounded"],
    *([cmd, "{dir}/big-arc.txt", "--regime", "b1", "--grid", "64"]
      for cmd in ("synth", "verify", "strips")),
], ids=["grid-0", "depth-0", "depth-negative", "demo-depth-0", "min-count-1",
        "grid-not-int", "target-is-directory", "precision-negative",
        "eps-inf", "eps-nan", "eps-zero", "ycap-inf", "ycap-nan", "ycap-negative",
        "synth-big-line", "verify-big-point", "strips-bounded-big-point",
        "synth-big-arc", "verify-big-arc", "strips-big-arc"])
def test_bad_input_is_one_line_usage_error(argv, tmp_path, capsys):
    _write_beyond_float(tmp_path)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
    for name, exponent in (("big-point", 400), ("huge-point", 700)):
        if name in " ".join(argv):
            # The error names the piece beyond float range, exactly.
            assert f"piece 'point 1/2 {10 ** exponent}' leaves float range" in err


def test_strips_names_a_band_beyond_float_range(capsys, monkeypatch):
    """The radius schedule's float table reads each band's integer
    coefficients, scaled by a power of two where one leaves float range; a
    polyline through y = 10^-700, whose intercept is 1 over a common
    denominator of 10^700, spans more than the floats and stops strips with
    one error line that names the piece."""
    code, out, err = run_cli(["strips", "-", "--regime", "b1", "--depth", "3", "--grid", "16"],
                             stdin_text="pline 0:1e-700 1:1\n", capsys=capsys,
                             monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: piece 'pline 0:1/{10 ** 700} 1:1' leaves float range\n"


@pytest.mark.parametrize("text, regime", [
    *((text, regime) for text in ("pline 0:1e-200 1:1e200\n", "pline 0:1e-400 1:1\n")
      for regime in ("b1", "b1-bounded")),
    (BEYOND_FLOAT["big-point.txt"], "b2-bounded"),
], ids=["pline-1e200-b1", "pline-1e200-b1-bounded", "pline-1e-400-b1",
        "pline-1e-400-b1-bounded", "big-point-b2-bounded"])
def test_strips_scales_a_band_beyond_float_range(text, regime, capsys, monkeypatch):
    """A band whose integers leave float range (n1 about 10^400 on the
    polylines, y = 10^400 on the point) has its row scaled by a power of
    two, and strips certifies the target."""
    code, out, err = run_cli(["strips", "-", "--regime", regime, "--depth", "3", "--grid", "16"],
                             stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("STRIPS PASS\n")


def test_verify_names_an_arc_whose_pole_leaves_float_range(capsys, monkeypatch):
    """Every value of y = 10^400/(x + 10^400) on [0, 1] is about 1, but the
    arc's pole and coefficient leave float range. verify certifies it or
    stops with one error line that names the piece, never an unnamed one;
    check, synth and strips exit 0."""
    text, flags = "hyper -1e400 0 1 1e400\n", ["--regime", "b2", "--depth", "6", "--grid", "128"]
    code, _, err = run_cli(["verify", "-", *flags], stdin_text=text, capsys=capsys,
                           monkeypatch=monkeypatch)
    named = f"error: piece 'hyper -{10 ** 400} 0 1 {10 ** 400}' leaves float range\n"
    assert code == EXIT_OK or (code, err) == (EXIT_USAGE, named), err
    for argv in (["check", "-", "--regime", "b2"], ["synth", "-", *flags],
                 ["strips", "-", *flags]):
        code, _, err = run_cli(argv, stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK, (argv, err)


@pytest.mark.parametrize("name, regime", [
    ("big-point.txt", "b2"), ("big-pole.txt", "b2"), ("big-pole.txt", "b1"),
], ids=["big-point-b2", "big-pole-b2", "big-pole-b1"])
def test_strips_skips_unreached_beyond_float_point(name, regime, tmp_path, capsys):
    """In the unbounded regimes the radii read the target only within
    |y| <= k_x of the backbone columns; the point at y = 1e400 lies outside,
    so strips certifies the target."""
    _write_beyond_float(tmp_path)
    assert main(["strips", str(tmp_path / name), "--regime", regime]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.endswith("STRIPS PASS\n") and err == ""


@pytest.mark.parametrize("name", BEYOND_FLOAT)
def test_beyond_float_targets_still_check(name, tmp_path, capsys):
    """The exact regime checks read no float, so they run in every regime,
    and b2 passes."""
    _write_beyond_float(tmp_path)
    for regime in Regime:
        code = main(["check", str(tmp_path / name), "--regime", regime.value])
        assert code in ((EXIT_OK,) if regime is Regime.B2 else (EXIT_OK, EXIT_FAIL))
        assert capsys.readouterr().err == ""


def test_synth_skips_unsampled_beyond_float_point(tmp_path, capsys):
    """The point at y = 1e400 lies outside every net band |y| <= n, so no
    graph value is beyond float range and synth writes the graph."""
    _write_beyond_float(tmp_path)
    assert main(["synth", str(tmp_path / "big-point.txt"), "--regime", "b2"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("x,y\n") and err == ""


def test_check_reads_no_float(tmp_path, capsys, monkeypatch):
    """With every Fraction-to-float conversion raising, check still gives a
    verdict in every regime on the demos and the beyond-float targets."""
    _write_beyond_float(tmp_path)

    def refuse(self):
        raise AssertionError(f"check converted {self} to float")

    monkeypatch.setattr(Fraction, "__float__", refuse)
    for target in (*DEMO_NAMES, *(str(tmp_path / name) for name in BEYOND_FLOAT)):
        for regime in Regime:
            assert main(["check", target, "--regime", regime.value]) in (EXIT_OK, EXIT_FAIL)
            assert "error" not in capsys.readouterr().err


def test_main_builds_one_parser(capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert main(["check", "constant", "--regime", "b2"]) == EXIT_OK
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("eps", ["1e-300", "1e-310"])
def test_tiny_eps_is_refused_at_once(eps, capsys):
    """A tiny eps would need more probes of the target than any run can
    hold (and more cells than a float can index): exit 2, one line, at
    once."""
    start = time.perf_counter()
    code = main(["verify", "square", "--regime", "b2-bounded", "--eps", eps])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert elapsed < 2.0
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_target_on_band_edge_passes(capsys, monkeypatch):
    # At the default depth 10 the band is |y| <= 5, so the whole target sits
    # on its edge; the cells clustering there are centred just outside it.
    code, out, _ = run_cli(["verify", "-", "--regime", "b1"],
                           stdin_text="pline 0:5 1:5\n",
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == EXIT_OK, out
    assert "d_backward=inf" not in out


def test_verify_at_a_far_scale_passes(capsys):
    """At eps 1e160 every cell centre lies about 1e160 from the square, so
    squared distances leave float range though no distance does: both
    distances are the same finite value, with nothing on stderr."""
    code = main(["verify", "square", "--regime", "b2-bounded", "--depth", "4", "--grid", "64",
                 "--eps", "1e160"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK and err == "", (out, err)
    d_forward, d_backward = (float(out.split(f"{name}=")[1].split()[0])
                             for name in ("d_forward", "d_backward"))
    assert math.isfinite(d_backward) and d_backward == d_forward == pytest.approx(7.07e159, rel=1e-3)


@pytest.mark.parametrize("command", ["synth", "strips", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_error_names_the_given_path(command, where, tmp_path, capsys):
    """An --out that cannot be written is one error line naming the path
    asked for (strips writes <out>.n<level>.csv), exit 2, and no temporary
    file is left behind."""
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path / "x"
    written = Path(f"{out}.n1.csv") if command == "strips" else out
    if where == "directory":
        written.mkdir()
    code = main([command, "constant", "--regime", "b1", "--depth", "2", "--grid", "8",
                 "--out", str(out)])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert err.splitlines() == [err.strip()] and err.startswith("error:")
    assert err.rstrip().endswith(f": {str(written)!r}")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ([written.name] if where == "directory" else [])


def test_probe_budget_error_names_eps_and_ycap(tmp_path, capsys):
    target = tmp_path / "t.txt"
    target.write_text("hyper 0 0 1 1\npline 0:0 1:0\n")
    code = main(["verify", str(target), "--regime", "b2", "--ycap", "1e300"])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "eps=0.00195312" in err and "y cap 1e+300" in err
    assert "larger eps or a smaller y cap" in err

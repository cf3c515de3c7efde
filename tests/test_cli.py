import argparse
import ast
import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mzero
from mzero import frames, polycore, thresholds
from mzero.cli import COMMANDS, _DEFAULTS, _quote, canonical_json, main, parse_args
from mzero.errors import MathDomainError, ParseError
from mzero.syscommands import parse_point

from conftest import EX_DOUBLE, EX_TRIPLE, make_planted_system, perfbench_module

# X1^2 overflows a double at X1 = 1e200, and its chain at the origin ends
# at order 2
SQUARE = "vars: X1 X2\nf1: X1^2\nf2: X2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# point parsing


def test_parse_point_real_and_complex():
    pt = parse_point("-0.01, 0.01")
    assert pt[0] == -0.01 and pt[1] == 0.01
    pt = parse_point("1+2i,3-4j")
    assert pt[0] == 1 + 2j and pt[1] == 3 - 4j


def test_parse_point_rejects_garbage():
    from mzero.errors import ParseError

    with pytest.raises(ParseError):
        parse_point("1,banana")
    with pytest.raises(ParseError):
        parse_point(",,")
    # an empty field is refused, not skipped
    for text in ("0,,0", "0,0,", ",0,0", "0, ,0", ""):
        with pytest.raises(ParseError, match="empty coordinate"):
            parse_point(text)


def test_point_with_an_empty_field_is_input_error(capsys, ex_double_path):
    code, out, err = run_cli(capsys, "gamma", "--system", ex_double_path, "--point", "0,,0")
    assert code == 2
    assert err == "input error: empty coordinate in point '0,,0'\n"
    assert out == ""


# ---------------------------------------------------------------------------
# dual


def test_dual_text_output(capsys, ex_triple_path):
    code, out, err = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "0,0"
    )
    assert code == 0
    assert "multiplicity: 3" in out
    assert "normalized coordinates: yes" in out


def test_dual_json_roundtrip(capsys, ex_triple_path):
    code, out, err = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "0,0", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "dual"
    assert doc["result"]["mu"] == 3
    assert doc["result"]["breadth_one"] is True
    # canonical form survives a parse/serialize cycle
    assert canonical_json(doc) == out.strip()


def test_dual_off_the_shape_moves_to_the_frame(capsys, tmp_path):
    # a triple zero whose kernel is X2: the chain is found in the
    # normalizing frame and printed in the input's coordinates
    path = tmp_path / "kernel_x2.mz"
    path.write_text("vars: X1 X2\nf1: X1 + X2^2\nf2: X2^3\n")
    code, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0", "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["mu"] == 3 and result["normalized"] is False
    assert [abs(complex(a["re"], a["im"])) for a in result["a_coeffs"][0]] == [0.0, 1.0]


def test_json_output_is_deterministic(capsys, ex_triple_path):
    _, first, _ = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "0,0", "--json"
    )
    _, second, _ = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "0,0", "--json"
    )
    assert first == second


# ---------------------------------------------------------------------------
# gamma


def test_gamma_json(capsys, ex_triple_path):
    code, out, _ = run_cli(
        capsys,
        "gamma",
        "--system",
        ex_triple_path,
        "--point",
        "0,0",
        "--mu",
        "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mu"] == 3
    assert doc["result"]["gamma_hat"] == pytest.approx(12 / 73**0.5, abs=1e-10)


def test_gamma_moves_off_shape_point_to_a_frame(capsys, ex_double_path):
    # the double zero's Jacobian at the origin has a nonzero first column
    at0 = ["--system", ex_double_path, "--point", "0,0", "--json"]
    code, out, _ = run_cli(capsys, "gamma", *at0)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mu"] == 2
    assert result["gamma"] == pytest.approx(4 / 5**0.5, abs=1e-10)
    code, out, _ = run_cli(capsys, "separation", *at0)
    assert code == 0
    assert json.loads(out)["result"]["gamma"] == result["gamma"]


# ---------------------------------------------------------------------------
# separation


def test_separation_constants_only(capsys):
    code, out, _ = run_cli(capsys, "separation", "--mu", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["d"] == pytest.approx(0.2865913722489495, abs=1e-9)
    assert "bound" not in doc["result"]


def test_separation_needs_mu_without_system(capsys):
    code, out, err = run_cli(capsys, "separation")
    assert code == 2
    assert "input error" in err


def test_separation_with_system(capsys, ex_double_path):
    code, out, _ = run_cli(
        capsys,
        "separation",
        "--system",
        ex_double_path,
        "--point",
        "0,0",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mu"] == 2
    assert doc["result"]["bound"] == pytest.approx(0.0447799019138983, abs=1e-9)


# ---------------------------------------------------------------------------
# certify


def test_certify_positive(capsys, ex_triple_path):
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--system",
        ex_triple_path,
        "--point",
        "0,0",
        "--mu",
        "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["holds"] is True
    assert doc["result"]["radius"] == pytest.approx(0.00767634, abs=1e-6)
    assert len(doc["result"]["h_norms"]) == 2


def test_certify_negative_still_exits_zero(capsys, ex_triple_path):
    # far enough out the residual term swamps the right-hand side, the
    # certificate honestly fails, and that is still a successful run
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--system",
        ex_triple_path,
        "--point",
        "0.001,0.001",
        "--mu",
        "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["holds"] is False


def test_certify_moves_off_shape_point_to_a_frame(capsys, ex_double_path):
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--system",
        ex_double_path,
        "--point",
        "0,0",
        "--mu",
        "2",
        "--json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] is True
    assert result["radius"] == pytest.approx(0.0223899, abs=1e-6)
    assert result["gamma"] == pytest.approx(4 / 5**0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# refine


def test_refine_from_exact_zero(capsys, ex_triple_path):
    code, out, _ = run_cli(
        capsys,
        "refine",
        "--system",
        ex_triple_path,
        "--point",
        "0,0",
        "--mu",
        "3",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["converged"] is True
    assert doc["result"]["iterations"] == 0


def test_refine_with_negative_coordinate(capsys, ex_triple_path):
    # leading minus signs must not be read as option flags
    code, out, _ = run_cli(
        capsys,
        "refine",
        "--system",
        ex_triple_path,
        "--point",
        "-0.01,0.01",
        "--mu",
        "3",
        "--variant",
        "normalized_triple",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["converged"] is True
    z2 = doc["result"]["iterates"][2]
    assert z2[0]["re"] == pytest.approx(-4.12918259e-8, abs=5e-12)
    assert z2[1]["re"] == pytest.approx(-2.95058179e-8, abs=5e-12)


def test_refine_point_file(capsys, ex_triple_path, tmp_path):
    pf = tmp_path / "pt.txt"
    pf.write_text("# starting guess\n-0.01\n0.01\n")
    code, out, _ = run_cli(
        capsys,
        "refine",
        "--system",
        ex_triple_path,
        "--point-file",
        str(pf),
        "--mu",
        "3",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["result"]["converged"] is True


def test_files_with_a_byte_order_mark_are_read(capsys, ex_triple_path, tmp_path):
    # some editors begin a UTF-8 file with U+FEFF
    system = tmp_path / "triple.mz"
    system.write_text("\ufeff" + Path(ex_triple_path).read_text(), encoding="utf-8")
    point = tmp_path / "pt.txt"
    point.write_text("\ufeff-0.01\n0.01\n", encoding="utf-8")
    expected = run_cli(capsys, "refine", "--system", ex_triple_path, "--point", "-0.01,0.01",
                       "--mu", "3")
    assert expected[0] == 0
    got = run_cli(capsys, "refine", "--system", str(system), "--point-file", str(point),
                  "--mu", "3")
    assert got == expected


# ---------------------------------------------------------------------------
# the numeric commands on the compact local model


def _write_planted(tmp_path, n, mu, seed):
    system = make_planted_system(n, mu, np.random.default_rng(seed))
    path = tmp_path / ("planted_%d_%d.mz" % (n, mu))
    path.write_text(perfbench_module("gen").system_text([p.terms for p in system.polys]))
    return str(path)


def test_numeric_commands_form_no_dense_tensor(capsys, tmp_path, monkeypatch):
    def refuse(self, x, k):
        raise AssertionError("an order-%d derivative tensor was built" % k)

    monkeypatch.setattr(polycore.PolySystem, "derivative_tensor", refuse)
    monkeypatch.setattr(frames.NormalizedFrame, "derivative_tensor", refuse)
    double, triple = tmp_path / "double.mz", tmp_path / "triple.mz"
    double.write_text(EX_DOUBLE)
    triple.write_text(EX_TRIPLE)
    cases = [
        (str(double), 2, "normalized_double", "-0.01,0.01"),
        (str(triple), 3, "normalized_triple", "-0.01,0.01"),
        (_write_planted(tmp_path, 3, 3, 5), 3, "normalized_triple", "0.001,0.0005,-0.0005"),
    ]
    for path, mu, variant, start in cases:
        origin = ",".join("0" * len(start.split(",")))
        at0 = ["--system", path, "--point", origin]
        near = ["--system", path, "--point", start, "--mu", str(mu)]
        for argv in (
            ["dual"] + at0,
            ["gamma"] + at0,
            ["separation"] + at0,
            ["certify"] + at0 + ["--mu", str(mu)],
            ["refine"] + near,
            ["refine"] + near + ["--variant", variant],
            ["refine"] + near + ["--variant", "general"],
        ):
            code, out, err = run_cli(capsys, *argv, "--json")
            assert code == 0, (argv, err)


@pytest.mark.parametrize("n, mu", [(3, 8), (4, 6)])
def test_numeric_commands_run_above_order_four(capsys, tmp_path, n, mu):
    # orders up to 2 mu: 3^16 and 4^12 dense entries, 153 and 455 distinct
    at0 = ["--system", _write_planted(tmp_path, n, mu, 0), "--point", ",".join("0" * n)]
    for command in ("gamma", "separation", "certify"):
        code, out, err = run_cli(capsys, command, *at0, "--json")
        assert code == 0, (command, err)
        result = json.loads(out)["result"]
        assert result["mu"] == mu
    # at the exact zero the certificate holds with lhs 0
    assert result["holds"] is True and result["lhs"] == 0


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds(capsys):
    code, out, _ = run_cli(
        capsys, "thresholds", "--variant", "normalized_double", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["u_quadratic"] == pytest.approx(0.0318, abs=5e-4)


# ---------------------------------------------------------------------------
# failure modes


def test_missing_system_file(capsys):
    code, out, err = run_cli(
        capsys, "dual", "--system", "/no/such/file.txt", "--point", "0,0"
    )
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "expr", ["1e9999999*X1*X2 + X1^2", "1e99999999*X1", "1e-999999*X1", "X1/2 + 2.5E+1000000*X2"]
)
def test_literal_with_a_long_exponent_is_refused_at_once(capsys, tmp_path, expr):
    # its exact value would take seconds to minutes to build
    path = tmp_path / "long.mz"
    path.write_text("vars: X1 X2\nf1: %s\nf2: X2\n" % expr)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "more than 5 digits" in err


@pytest.mark.parametrize(
    "coefficient, int_digits, limit",
    [("1" * 5000, None, polycore.MAX_LITERAL_DIGITS),
     ("0." + "1" * 5000, None, polycore.MAX_LITERAL_DIGITS),
     ("1" * 5000 + "/7", None, polycore.MAX_LITERAL_DIGITS),
     ("1" * 1000, "640", 640), ("1" * 1000 + "/3", "640", 640), ("1" * 5000, "0", 4300)],
    ids=["integer", "decimal", "ratio", "integer-int-limit-640", "ratio-int-limit-640",
         "integer-no-int-limit"],
)
def test_literal_with_too_many_digits_is_refused(tmp_path, coefficient, int_digits, limit):
    # int() refuses a string of more than 4300 digits, or of more than
    # PYTHONINTMAXSTRDIGITS when that is set, which ended the call as an
    # internal error with a traceback
    path = tmp_path / "long.mz"
    path.write_text("vars: X1 X2\nf1: 1/3*X1 + %s*X2^2\nf2: X2\n" % coefficient)
    env = fresh_env() if int_digits is None else fresh_env(PYTHONINTMAXSTRDIGITS=int_digits)
    proc = subprocess.run(
        [sys.executable, "-m", "mzero.cli", "dual", "--system", str(path), "--point", "0,0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: the literal %s..." % coefficient[:20])
    assert proc.stderr.endswith("has more than %d digits\n" % limit)


@pytest.mark.parametrize(
    "expr", ["(X1+X2+1)^120", "(X1+X2)^3000",
             "(%s)^1e99999" % "+".join("X1^%d*X2" % k for k in range(30))],
    ids=["(X1+X2+1)^120", "(X1+X2)^3000", "30-terms^1e99999"],
)
def test_power_of_a_sum_above_the_term_budget_is_refused_at_once(capsys, tmp_path, expr):
    # expanding any exactly takes minutes; all can have more than
    # polycore.MAX_POWER_TERMS = 500 terms, and the count is bounded without
    # a binomial of the huge exponent, which took seconds
    path = tmp_path / "power.mz"
    path.write_text("vars: X1 X2\nf1: %s\nf2: X2\n" % expr)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "more than 500 terms" in err


def test_missing_point(capsys, ex_triple_path):
    code, out, err = run_cli(capsys, "dual", "--system", ex_triple_path)
    assert code == 2
    assert "point is required" in err


def test_bad_point_text(capsys, ex_triple_path):
    code, out, err = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "0,zebra"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [pytest.param(["dual", "--system", None, "--point", point, "--json"], id=point)
     for point in ["0,0,0", "0", "nan,0", "0,nan", "inf,0", "1e400,0", "0,1+1e400i"]]
    + [pytest.param(["separation", "--mu", "3", *system, flag, ""],
                    id="empty %s%s" % (flag, " with system" if system else ""))
       for flag in ("--point", "--point-file") for system in ([], ["--system", None])],
)
def test_point_wrong_length_or_non_finite_is_input_error(capsys, ex_double_path, argv):
    # an empty --point or --point-file is read, and refused, like any other
    argv = [ex_double_path if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "input error" in err and "is required" not in err
    assert out == ""


def test_point_file_non_finite_is_input_error(capsys, ex_double_path, tmp_path):
    path = tmp_path / "point.txt"
    path.write_text("0\nnan\n")
    code, _, err = run_cli(
        capsys, "gamma", "--system", ex_double_path, "--point-file", str(path)
    )
    assert code == 2
    assert "non-finite coordinate" in err


@pytest.mark.parametrize(
    "value", ["nan", "inf", "-inf", "infinity", "1+infi", "infj", "1e400", "INF", "INFINITY", "infI"]
)
@pytest.mark.parametrize("flag", ["--point", "--point-file"])
def test_non_finite_coordinate_is_named(capsys, ex_double_path, tmp_path, flag, value):
    # the `i` of "inf" is no imaginary unit
    if flag == "--point-file":
        path = tmp_path / "point.txt"
        path.write_text("%s\n0\n" % value)
        text = str(path)
    else:
        text = value + ",0"
    code, out, err = run_cli(capsys, "gamma", "--system", ex_double_path, flag, text)
    assert code == 2 and out == ""
    assert err.startswith("input error: non-finite coordinate %r" % value)


@pytest.mark.parametrize("value, lower", [("1+2I", "1+2i"), ("2I", "2i"), ("I", "i"),
                                          ("1-2J", "1-2j")])
@pytest.mark.parametrize("flag", ["--point", "--point-file"])
def test_upper_case_imaginary_unit_reads_as_lower_case(capsys, ex_double_path, tmp_path, flag,
                                                       value, lower):
    # the trace of a refinement with no step holds the point as it was read
    def start(text):
        if flag == "--point-file":
            path = tmp_path / "point.txt"
            path.write_text("%s\n0\n" % text)
            text = str(path)
        else:
            text += ",0"
        code, out, err = run_cli(capsys, "refine", "--system", ex_double_path, flag, text,
                                 "--mu", "2", "--max-iter", "0", "--json")
        assert (code, err) == (0, "")
        return json.loads(out)["result"]["iterates"][0]

    assert start(value) == start(lower) != start("0")


@pytest.mark.parametrize(
    "flag, kind",
    [("--point-file", "missing"), ("--point-file", "directory"),
     ("--point-file", "not utf-8"), ("--system", "not utf-8")],
)
def test_unreadable_input_file_is_input_error(capsys, ex_double_path, tmp_path, flag, kind):
    latin = tmp_path / "latin.txt"
    latin.write_bytes("vars: X1 X2 # \xb5\n".encode("latin-1"))
    path = str({"missing": tmp_path / "missing.txt", "directory": tmp_path, "not utf-8": latin}[kind])
    argv = ["--system", ex_double_path, "--point-file", path]
    if flag == "--system":
        argv = ["--system", path, "--point", "0,0"]
    code, out, err = run_cli(capsys, "dual", *argv)
    assert code == 2
    assert "input error: cannot read" in err
    assert out == ""


def test_separation_with_system_needs_point(capsys, ex_double_path):
    code, _, err = run_cli(capsys, "separation", "--system", ex_double_path)
    assert code == 2
    assert "point is required" in err


@pytest.mark.parametrize("flag", ["--point", "--point-file"])
def test_separation_point_without_system_is_input_error(capsys, tmp_path, flag):
    path = tmp_path / "point.txt"
    path.write_text("0\n0\n")
    value = "0,0" if flag == "--point" else str(path)
    code, out, err = run_cli(capsys, "separation", "--mu", "3", flag, value, "--json")
    assert code == 2
    assert "input error" in err and "--system" in err
    assert out == ""


def test_point_and_point_file_together_is_input_error(capsys, ex_double_path, tmp_path):
    path = tmp_path / "point.txt"
    path.write_text("0\n0\n")
    code, out, err = run_cli(capsys, "dual", "--system", ex_double_path, "--point", "0,0",
                             "--point-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: --point and --point-file ")


@pytest.mark.parametrize(
    "argv",
    [
        ["separation", "--mu", "1"],
        ["separation", "--mu", "0"],
        ["separation", "--system", None, "--point", "0,0", "--mu", "1"],
        ["certify", "--system", None, "--point", "0,0", "--mu", "1"],
        ["refine", "--system", None, "--point", "0.01,0.01", "--mu", "1"],
        ["gamma", "--system", None, "--point", "0,0", "--mu", "-3"],
    ],
)
def test_mu_below_two_is_input_error(capsys, ex_double_path, argv):
    argv = [ex_double_path if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "input error" in err and "--mu" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["separation", "--mu", "21"],
        ["separation", "--mu", "212"],
        ["separation", "--system", None, "--point", "0,0", "--mu", "21"],
        ["certify", "--system", None, "--point", "0,0", "--mu", "21"],
    ],
)
def test_mu_above_the_anchored_orders_is_input_error(capsys, ex_double_path, argv):
    argv = [ex_double_path if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "input error" in err and "at most 20" in err
    assert out == ""


@pytest.mark.parametrize(
    "text, argv, code, message",
    [("vars: X Y\nf: Y\ng: X^2\n", ["refine", "--point", "0.1,0", "--variant", "general",
                                     "--max-iter", "1", "--mu", "1000000"],
      2, "input error: --mu must be at most 170"),
     # a chain with no end stops at the order cap, 1*0 = 0 when an equation is 0
     ("vars: X Y\nf: X\ng: 0\n", ["dual", "--point", "0,0"],
      3, "numerical-domain error: no terminating order found up to 0, the order cap")],
    ids=["refine-mu", "dual-cap"],
)
def test_order_above_the_limit_is_refused_at_once(tmp_path, text, argv, code, message):
    # a chain of a thousand orders would take minutes and hundreds of MB
    path = tmp_path / "system.mz"
    path.write_text(text)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mzero.cli", argv[0], "--system", str(path)] + argv[1:],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message)
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("gamma", "--gap-tol", "nan"),
        ("gamma", "--gap-tol", "-1"),
        ("gamma", "--gap-tol", "0"),
        ("separation", "--delta-zero-tol", "inf"),
        ("dual", "--delta-zero-tol", "-0.5"),
        ("refine", "--eps", "-1"),
        ("refine", "--eps", "nan"),
        ("refine", "--max-iter", "-1"),
        # values that begin with '-', in exponent form
        ("gamma", "--gap-tol", "-1e-8"),
        ("separation", "--delta-zero-tol", "-1E-3"),
        ("dual", "--delta-zero-tol", "-1e-8"),
        ("refine", "--eps", "-1e-3"),
    ],
)
def test_tolerance_flags_are_checked_on_entry(capsys, ex_triple_path, command, flag, value):
    argv = [command, "--system", ex_triple_path, "--point", "-0.01,0.01", flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "input error" in err and flag in err
    assert out == ""


def test_separation_takes_the_largest_anchored_order(capsys):
    code, out, _ = run_cli(capsys, "separation", "--mu", "20", "--json")
    assert code == 0
    assert json.loads(out)["result"]["mu"] == 20


# a corank-one zero of multiplicity 12 at the origin, whose order cap is
# its Bezout number 3*12 = 36
MU_12 = "vars: X Y\nf1: Y + X^2*Y\nf2: X^12 + Y^2\n"


@pytest.mark.parametrize("command", ["gamma", "separation"])
def test_mu_disagreeing_with_the_chain_is_input_error(capsys, tmp_path, ex_triple_path, command):
    code, out, err = run_cli(
        capsys, command, "--system", ex_triple_path, "--point", "0,0", "--mu", "2"
    )
    assert code == 2
    assert "input error" in err and "terminates at 3" in err
    assert out == ""
    # the chain ends after a given mu or before it
    path = tmp_path / "mu12.mz"
    path.write_text(MU_12)
    for mu, found in (("5", "terminates at 12"), ("13", "terminates at 12")):
        code, out, err = run_cli(capsys, command, "--system", str(path), "--point", "0,0",
                                 "--mu", mu)
        assert code == 2
        assert "input error: requested order %s but the chain %s" % (mu, found) in err
        assert out == ""


@pytest.mark.parametrize("command", ["gamma", "separation"])
def test_a_given_mu_past_the_default_search_is_found(capsys, tmp_path, command):
    # the check of a given mu searches to the order cap, past mu
    path = tmp_path / "mu12.mz"
    path.write_text(MU_12)
    code, out, err = run_cli(capsys, command, "--system", str(path), "--point", "0,0",
                             "--mu", "12", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["mu"] == 12


@pytest.mark.parametrize("command", ["dual", "gamma", "separation", "certify", "refine"])
def test_a_multiplicity_above_ten_is_detected(capsys, tmp_path, command):
    # every detection searches to the order cap, 36 here
    path = tmp_path / "mu12.mz"
    path.write_text(MU_12)
    code, out, err = run_cli(capsys, command, "--system", str(path), "--point", "0,0", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["mu"] == 12


@pytest.mark.parametrize(
    "system, argv",
    [(EX_DOUBLE, ["certify", "--point", "0,0", "--mu", "5"]),
     (EX_TRIPLE, ["refine", "--point", "-0.01,0.01", "--mu", "20", "--variant", "general"]),
     # above the Bezout number 6, below the largest degree squared, 9
     (EX_TRIPLE, ["certify", "--point", "0,0", "--mu", "7"]),
     (EX_TRIPLE, ["refine", "--point", "-0.01,0.01", "--mu", "7", "--variant", "general"])],
    ids=["certify", "refine", "certify-bezout", "refine-bezout"],
)
def test_a_trusted_mu_above_the_order_cap_is_input_error(capsys, tmp_path, system, argv):
    # no isolated zero has mu above deg f_1 ... deg f_n (Bezout): 2*2 = 4 for
    # the double example, 2*3 = 6 for the triple one
    path = tmp_path / "system.mz"
    path.write_text(system)
    code, out, err = run_cli(capsys, argv[0], "--system", str(path), *argv[1:])
    assert (code, out) == (2, "")
    cap = {EX_DOUBLE: 4, EX_TRIPLE: 6}[system]
    assert err == ("input error: an isolated zero of this system has mu <= %d, the order cap "
                   "that its degrees imply, got %s\n" % (cap, argv[argv.index("--mu") + 1]))


def test_no_flag_or_parameter_sets_the_chain_search_order(capsys, ex_triple_path):
    for names in mzero._EXPORTS.values():
        for name in names:
            value = getattr(mzero, name)
            # an error class has no signature to read
            if callable(value) and not (isinstance(value, type)
                                        and issubclass(value, Exception)):
                assert not {"max_order", "kmax"} & set(inspect.signature(value).parameters), name
    assert set(mzero.DEFAULT_TOLERANCES) == {"gap_tol", "delta_zero_tol", "eps", "max_iter"}
    code, out, err = run_cli(capsys, "dual", "--help")
    assert (code, err) == (0, "") and "--max-order" not in out
    code, out, err = run_cli(capsys, "dual", "--system", ex_triple_path, "--point", "0,0",
                             "--max-order", "3")
    assert (code, out) == (2, "")
    assert err == "input error: dual: unknown flag '--max-order'\n"


@pytest.mark.parametrize("variant, mu", [("normalized_double", "3"), ("normalized_triple", "2")])
def test_variant_contradicting_mu_is_input_error(capsys, ex_triple_path, variant, mu):
    code, out, err = run_cli(
        capsys, "refine", "--system", ex_triple_path, "--point", "-0.01,0.01",
        "--variant", variant, "--mu", mu,
    )
    assert code == 2
    assert "input error" in err and "variant needs mu" in err
    assert out == ""


def test_oversized_derivative_tensor_is_domain_error(capsys, tmp_path, monkeypatch):
    # gamma takes the compact coefficients of every order up to the degree,
    # 12 here, with k + 1 distinct entries at order k in two variables; a
    # small limit keeps the refused layout cheap to reach
    monkeypatch.setattr(polycore, "_MAX_TENSOR", 8)
    polycore.symmetric_layout.cache_clear()  # layouts cached under the real limit
    path = tmp_path / "square.txt"
    path.write_text("vars: X1 X2\nf1: X2 + X1^12\nf2: X1^2\n")
    code, out, err = run_cli(capsys, "gamma", "--system", str(path), "--point", "0,0")
    assert code == 3
    assert "numerical-domain error" in err and "9 distinct entries" in err
    assert "above the limit of 8" in err
    assert out == ""


def test_derivative_above_a_double_is_domain_error(capsys, tmp_path):
    # order 200 has 201 distinct entries in two variables, but 200! is
    # above the largest double; so is the 171! of a degree-171 system,
    # whose partials themselves stay finite
    path = tmp_path / "high.txt"
    path.write_text("vars: X1 X2\nf1: X2 + X1^200\nf2: X1^2\n")
    code, out, err = run_cli(capsys, "gamma", "--system", str(path), "--point", "0,0")
    assert code == 3
    assert "numerical-domain error" in err and "overflows a double" in err
    assert out == ""
    for term in ("X^100*Y^100", "X^170*Y"):
        path.write_text("vars: X Y\nf: Y + X^2\ng: %s + X^3\n" % term)
        for command in ("gamma", "separation", "certify"):
            code, out, err = run_cli(capsys, command, "--system", str(path), "--point", "0,0")
            assert code == 3, (term, command, err)
            assert "numerical-domain error" in err and "overflows a double" in err
            assert out == ""


@pytest.mark.parametrize(
    "term, code",
    [("X^99999999999999999999*Y", 2), ("X^(2^40)*Y", 2), ("X^2000000*Y", 2), ("X^1000*Y", 2),
     ("X^999*Y", 0), ("X^1e99999*Y", 2), ("X^1e4400*Y", 2)],
)
def test_degree_above_the_limit_is_refused_at_parse(capsys, tmp_path, term, code):
    # the scanner reads X^2000000 and X^1000, the exact parser the others;
    # degree 1001 is refused and degree 1000 accepted; the exact parser
    # refuses an exponent above the limit before squaring, and never prints
    # one of more digits than int-to-string conversion allows
    path = tmp_path / "steep.mz"
    path.write_text("vars: X Y; f: Y + X^2; g: %s + X^3\n" % term)
    t0 = time.monotonic()
    got, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0")
    assert time.monotonic() - t0 < 1.0
    assert got == code, err
    if code:
        assert "input error" in err and "above the limit of 1000" in err
        assert out == ""
    else:
        assert out.startswith("multiplicity: 3")


def test_singular_jhat_is_refused_at_the_first_solve(capsys, tmp_path):
    # J = 0 at the origin: a trusted mu = 2 needs no chain correction, so
    # gamma_hat's solve is the first against Jhat, and it refuses the block
    path = tmp_path / "flat.mz"
    path.write_text("vars: X Y; f: X^2 + Y^2; g: X^2 + Y^3\n")
    code, out, err = run_cli(capsys, "certify", "--mu", "2", "--system", str(path),
                             "--point", "0,0")
    assert code == 3 and out == ""
    assert err == ("numerical-domain error: matrix is singular to working precision "
                   "(sigma_min=0.000e+00)\n")


@pytest.mark.parametrize("term", ["2^(2^26)*X^3", "(2*X)^(2^22) + X^3"])
def test_constant_power_above_the_bit_limit_is_refused(capsys, tmp_path, term):
    # the exact power would need millions of bits before rounding refused it
    path = tmp_path / "huge.mz"
    path.write_text("vars: X Y; f: Y + X^2; g: %s\n" % term)
    t0 = time.monotonic()
    got, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0")
    assert time.monotonic() - t0 < 0.1
    assert got == 2, err
    assert "input error" in err and "more than %d bits" % polycore.MAX_POWER_BITS in err
    assert out == ""
    # powers that cancel back into the double range still parse, and so do
    # powers of a unit coefficient, whose degree is checked instead
    g = polycore.parse_system("vars: X Y; f: Y; g: 2^(2^10)*(1/2)^(2^10)*X^3").polys[1]
    assert g.terms == {(3, 0): 1.0}
    with pytest.raises(mzero.ParseError, match="above the limit of 1000"):
        polycore.parse_system("vars: X Y; f: Y; g: (-1i*X)^(2^40)")


@pytest.mark.parametrize(
    "statement, terms",
    [("1^1e99999*X + Y^2", {(1, 0): 1, (0, 2): 1}), ("0^1e99999*X + Y", {(0, 1): 1}),
     ("(1+0i)^1e99999*X^2", {(2, 0): 1}), ("(-1i)^(1e99999 + 3)*X", {(1, 0): 1j}),
     ("0^0*X", {(1, 0): 1})],
)
def test_power_of_zero_or_a_unit_takes_its_exponent_reduced(statement, terms):
    # 0^e is 0 for e > 0 and a unit's powers repeat with period 4; squaring
    # once per bit of 1e99999 took about 2 s
    t0 = time.monotonic()
    g = polycore.parse_system("vars: X Y; f: Y; g: %s" % statement).polys[1]
    assert time.monotonic() - t0 < 0.1
    assert g.terms == terms


@pytest.mark.parametrize("nested", ["(" * 400 + "X" + ")" * 400 + "*Y",
                                    "sqrt(" * 300 + "4" + ")" * 300, "X^(" * 300 + "1" + ")" * 300])
def test_deep_nesting_is_input_error(capsys, tmp_path, nested):
    # each level recursed in the exact parser, which ended the call as an
    # internal error (exit 4) at the interpreter's recursion limit
    path = tmp_path / "deep.mz"
    path.write_text("vars: X Y\nf1: %s\nf2: Y^2\n" % nested)
    code, out, err = run_cli(capsys, "dual", "--system", str(path), "--point", "0,0")
    assert code == 2, err
    assert "input error" in err and "more than %d deep" % polycore.MAX_NESTING in err
    assert out == ""
    # one level less than the limit still parses
    inner = "(" * (polycore.MAX_NESTING - 1) + "X" + ")" * (polycore.MAX_NESTING - 1)
    assert polycore.parse_system("vars: X Y; f: Y; g: %s*Y" % inner).polys[1].terms == {
        (1, 1): 1}
    # a run of signs takes no nesting: it is read in a loop
    assert polycore.parse_system("vars: X Y; f: Y; g: %sX*Y" % ("-" * 2001)).polys[1].terms == {
        (1, 1): -1}


# gamma at the origin is 1e300 in the first system, whose gamma^3 is above
# the largest double, and 1e12 in the second, whose separation radius
# d / (2 gamma^6) is fine but whose certificate rhs needs (4 gamma^6)^6
STEEP = {
    "1e300": "vars: X Y\nf: X^2*1e300 + Y\ng: X^3\n",
    "1e12": "vars: X Y\nf: X^2*1e12 + Y\ng: X^6\n",
}


@pytest.mark.parametrize(
    "gamma, command, code",
    [("1e300", "separation", 3), ("1e300", "certify", 3), ("1e12", "separation", 0),
     ("1e12", "certify", 3)],
)
def test_power_of_gamma_above_a_double_is_domain_error(capsys, tmp_path, gamma, command, code):
    path = tmp_path / "steep.mz"
    path.write_text(STEEP[gamma])
    got, out, err = run_cli(capsys, command, "--system", str(path), "--point", "0,0")
    assert got == code, err
    if code:
        assert out == ""
        assert err.startswith("numerical-domain error: ") and "overflows a double" in err
    else:
        assert "gamma: 1e+12" in out


@pytest.mark.parametrize(
    "value", [float("inf"), -float("inf"), float("nan"), complex(0, float("inf"))]
)
def test_canonical_json_rejects_non_finite_numbers(value):
    with pytest.raises(MathDomainError, match="non-finite"):
        canonical_json({"result": [1.0, value]})


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.float64(0.1), 0.1),
        (np.complex128(1.5 - 2j), 1.5 - 2j),
        (np.int64(-7), -7),
        (np.bool_(True), True),
        (np.array(1 + 2j), 1 + 2j),
        (np.array([1 + 2j, -0.5j]), [1 + 2j, -0.5j]),
        (np.array([[1 + 2j, 0], [3, -1j]]), [[1 + 2j, 0j], [3 + 0j, -1j]]),
    ],
    ids=["float64", "complex128", "int64", "bool_", "0-d", "1-d", "2-d"],
)
def test_canonical_json_numpy_values_match_python_values(value, plain):
    assert canonical_json({"v": value}) == canonical_json({"v": plain})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text())
def test_quote_matches_json_dumps(text):
    assert _quote(text) == json.dumps(text)


@pytest.mark.parametrize(
    "text",
    ['"', "\\", "\b\f\n\r\t", "\x00\x01\x1b\x1f", "\x7f", "caf\xe9 \u2211 \u4e2d \uffff",
     "\U0001f600 \U00010000 \U0010ffff", "\ud800", "a\udfffb", 'mixed "\\\n\u00e9\U0001d11e'],
    ids=["quote", "backslash", "short-escapes", "control", "delete", "bmp", "astral",
         "lone-high-surrogate", "lone-low-surrogate", "mixed"],
)
def test_quote_matches_json_dumps_on_escapes(text):
    assert _quote(text) == json.dumps(text)


def test_non_finite_result_is_domain_error(capsys, monkeypatch):
    broken = thresholds.ThresholdSet("normalized_double", 2, float("inf"), 0.03)
    monkeypatch.setattr(thresholds, "threshold_constants", lambda variant: broken)
    code, out, err = run_cli(
        capsys, "thresholds", "--variant", "normalized_double", "--json"
    )
    assert code == 3
    assert "numerical-domain error" in err and "non-finite" in err
    assert out == ""


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(variant):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(thresholds, "threshold_constants", broken)
    code, out, err = run_cli(capsys, "thresholds", "--variant", "normalized_double")
    assert code == 4
    assert "internal error: unexpected state" in err
    assert out == ""


@pytest.mark.parametrize(
    "command", ["dual", "gamma", "separation", "certify", "refine"]
)
def test_delta_zero_tol_reaches_the_chain_detection(capsys, ex_triple_path, command):
    # with delta_zero_tol = 1 no chain value counts as outside the column
    # space, so no order terminates the chain below the order cap
    code, out, err = run_cli(
        capsys, command, "--system", ex_triple_path, "--point", "0,0",
        "--delta-zero-tol", "1",
    )
    assert code == 3
    assert "no terminating order" in err
    assert out == ""


ORIGIN = [{"im": 0.0, "re": 0.0}] * 2
DEFAULT_DIAGNOSTICS = {
    "duality_residuals": [],
    "norm_mode": "estimate",
    "tolerances": {"delta_zero_tol": 1e-8, "eps": 1e-10, "gap_tol": 1e-8, "max_iter": 50},
}


@pytest.mark.parametrize(
    "argv, inputs, diagnostics",
    [
        # eps and max_iter come from the defaults although gamma has no flag for them
        (["gamma", "--system", "SYSTEM", "--point", "0,0", "--gap-tol", "1e-9"],
         {"mode": "estimate", "point": ORIGIN, "system": "SYSTEM"},
         dict(DEFAULT_DIAGNOSTICS, tolerances=dict(DEFAULT_DIAGNOSTICS["tolerances"],
                                                   gap_tol=1e-9))),
        # refine has no --mode, yet both blocks report "estimate"
        (["refine", "--system", "SYSTEM", "--point=-0.01,0.01", "--mu", "3", "--eps", "1e-12",
          "--max-iter", "7"],
         {"mode": "estimate", "mu": 3, "point": [{"im": 0.0, "re": -0.01},
                                                 {"im": 0.0, "re": 0.01}], "system": "SYSTEM"},
         dict(DEFAULT_DIAGNOSTICS, tolerances=dict(DEFAULT_DIAGNOSTICS["tolerances"],
                                                   eps=1e-12, max_iter=7))),
        (["separation", "--mu", "3"], {"mode": "estimate", "mu": 3, "system": None},
         DEFAULT_DIAGNOSTICS),
        (["thresholds", "--variant", "general_triple"],
         {"mode": "estimate", "variant": "general_triple"}, DEFAULT_DIAGNOSTICS),
    ],
    ids=["gamma", "refine", "separation-constant", "thresholds"],
)
def test_json_input_and_diagnostics_blocks(capsys, ex_triple_path, argv, inputs, diagnostics):
    code, out, _ = run_cli(capsys, *[a.replace("SYSTEM", ex_triple_path) for a in argv],
                           "--json")
    assert code == 0
    doc = json.loads(out)
    if inputs.get("system") == "SYSTEM":
        inputs = dict(inputs, system=ex_triple_path)
    assert (doc["input"], doc["diagnostics"]) == (inputs, diagnostics)


def test_refine_has_no_mode_flag(capsys, ex_triple_path):
    code, out, err = run_cli(
        capsys, "refine", "--system", ex_triple_path, "--point", "0.01,0",
        "--mode", "certified",
    )
    assert (code, out) == (2, "")
    assert err == "input error: refine: unknown flag '--mode'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dual"],
        ["gamma"],
        ["separation"],
        ["certify", "--mu", "3"],
        ["refine", "--mu", "3"],
    ],
)
def test_one_variable_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "cubic.mz"
    path.write_text("vars: X\nf1: X^3\n")
    code, out, err = run_cli(capsys, *argv, "--system", str(path), "--point", "0")
    assert code == 2
    assert "input error" in err and "at least two variables" in err
    assert out == ""


def test_regular_point_is_domain_error(capsys, ex_triple_path):
    # at a point far from the zero the Jacobian has full rank and the
    # corank-one premise fails
    code, out, err = run_cli(
        capsys, "dual", "--system", ex_triple_path, "--point", "5,7"
    )
    assert code == 3
    assert "numerical-domain error" in err


# grammar fuzz: systems of one to three variables built from nested sums,
# products, powers, sqrt and parentheses, with coefficients from 1e-300 to
# 1e308; whatever the system, a numeric command ends with a documented exit
# code (0 to 3), never as an internal error (4), and within the deadline
FUZZ_LEAVES = st.one_of(st.sampled_from(["0", "1", "-1", "1i"]),
                        st.sampled_from(["2", "1/3", "(1-2i)", "X1", "X2", "X3"]),
                        st.floats(1e-300, 1e308).map(repr))
FUZZ_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "(1+1)"]) | st.just("1e99999")


@st.composite
def fuzz_expressions(draw, depth=3):
    if not depth or not draw(st.integers(0, 3)):
        return draw(FUZZ_LEAVES)
    kind = draw(st.sampled_from(["+", "-", "*", "^", "sqrt", "()"]))
    if kind == "^":
        base = draw(FUZZ_LEAVES | fuzz_expressions(depth - 1))
        return "(%s)^%s" % (base, draw(FUZZ_EXPONENTS))
    inner = draw(fuzz_expressions(depth - 1))
    if kind == "sqrt":
        return "sqrt(%s)" % inner
    if kind == "()":
        # Hypothesis lifts the recursion limit by 2000 frames while it runs a
        # test, so a nesting that exhausts the default limit must go deeper
        levels = draw(st.integers(1, 3) | st.integers(600, 1000))
        return "(" * levels + inner + ")" * levels
    return "%s %s %s" % (inner, kind, draw(fuzz_expressions(depth - 1)))


@st.composite
def fuzz_calls(draw):
    n = draw(st.integers(1, 3))
    names = ["X1", "X2", "X3"][:n]
    rows = [draw(fuzz_expressions()) for _ in range(n)]
    # a variable the system does not declare is an input error; keep most
    # systems to their own variables
    if draw(st.integers(0, 3)):
        for extra in ["X1", "X2", "X3"][n:]:
            rows = [row.replace(extra, names[-1]) for row in rows]
    text = "vars: %s\n" % " ".join(names) + "".join(
        "f%d: %s\n" % (i + 1, row) for i, row in enumerate(rows))
    command = draw(st.sampled_from(["dual", "gamma", "separation", "certify", "refine"]))
    point = ",".join(draw(st.sampled_from(["0", "1e-3", "-0.5+1i"])) for _ in names)
    return text, [command, "--point", point] + draw(st.sampled_from([[], ["--mu", "2"]]))


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(fuzz_calls())
def test_grammar_fuzz_ends_with_a_documented_exit_code(tmp_path_factory, call):
    text, argv = call
    path = tmp_path_factory.getbasetemp() / "fuzz.mz"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--system", str(path)])
    assert code in (0, 1, 2, 3), (text, argv, err.getvalue())


# ---------------------------------------------------------------------------
# console entry point


def test_console_script(ex_triple_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mzero.cli",
            "dual",
            "--system",
            ex_triple_path,
            "--point",
            "0,0",
            "--json",
        ],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["mu"] == 3


def _run_entry(argv, stdout=subprocess.PIPE, prelude=""):
    """`python -m mzero.cli argv` in a new interpreter, or, with a prelude,
    `runpy` of the same module after the prelude runs."""
    if prelude:
        command = ["-c", prelude + "\nimport runpy, sys\nsys.argv = ['mzero'] + %r\n"
                   "runpy.run_module('mzero.cli', run_name='__main__')" % argv]
    else:
        command = ["-m", "mzero.cli"] + argv
    return subprocess.run([sys.executable] + command, stdout=stdout, stderr=subprocess.PIPE,
                          env=fresh_env())


def test_process_entry_writes_everything_and_ends_without_teardown(capsys, tmp_path):
    # run() ends the process with os._exit after flushing stdout and stderr:
    # the whole output arrives through a pipe and through a file, with the
    # exit codes and messages main() gives, and no atexit hook runs
    planted = _write_planted(tmp_path, 3, 8, 0)
    square = tmp_path / "square.mz"
    square.write_text(SQUARE)
    calls = [
        (["separation", "--mu", "3", "--json"], 0, ""),
        # about 10 kB, beyond the 8 kB stdout buffer
        (["dual", "--system", planted, "--point", "0,0,0", "--json"], 0, ""),
        (["separation", "--mu", "1"], 2, "input error: --mu must be at least 2\n"),
        (["gamma", "--system", str(square), "--point", "1e200,0"], 3, "numerical-domain error"),
    ]
    for argv, code, message in calls:
        expected = run_cli(capsys, *argv)
        assert expected[0] == code and message in expected[2]
        piped = _run_entry(argv)
        assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == expected
        out_path = tmp_path / "out.txt"
        with open(out_path, "wb") as handle:
            filed = _run_entry(argv, stdout=handle)
        assert (filed.returncode, out_path.read_text(), filed.stderr.decode()) == expected
    hooked = _run_entry(["separation", "--mu", "3"],
                        prelude="import atexit; atexit.register(print, 'atexit hook ran')")
    assert hooked.returncode == 0 and b"atexit hook ran" not in hooked.stdout
    assert hooked.stdout.decode() == run_cli(capsys, "separation", "--mu", "3")[1]


def test_process_entry_runs_without_the_collector(ex_triple_path):
    # a collection after numpy loads (inside main) is written to stderr
    prelude = ("import gc, os, sys\n"
               "gc.callbacks.append(lambda phase, info: phase == 'start'"
               " and 'numpy' in sys.modules and os.write(2, b'collected'))")
    proc = _run_entry(["certify", "--system", ex_triple_path, "--point", "0,0", "--json"],
                      prelude=prelude)
    assert proc.returncode == 0 and proc.stderr == b""
    assert json.loads(proc.stdout)["result"]["holds"] is True


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_call_quietly(unbuffered):
    # the reader is gone before the first write: status 1 and nothing on
    # stderr, whether print or the final flush meets the broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mzero.cli", "separation", "--mu", "3", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_process_started_without_stdout_succeeds():
    # sys.stdout is None there: print writes nothing and there is nothing
    # to flush
    proc = subprocess.run(
        [sys.executable, "-m", "mzero.cli", "separation", "--mu", "3", "--json"],
        stderr=subprocess.PIPE, env=fresh_env(), preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(capsys, ex_triple_path, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run_cli(capsys, "certify", "--system", ex_triple_path, "--point", "0,0")
        assert code == 0
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_console_script_is_the_main_block_entry():
    # Python 3.10 has no tomllib, so the script line is read as text
    root = Path(__file__).resolve().parents[1]
    scripts = [line.split("=", 1)[1].strip().strip('"')
               for line in (root / "pyproject.toml").read_text().splitlines()
               if line.split("=", 1)[0].strip() == "mzero"]
    tree = ast.parse((root / "src" / "mzero" / "cli.py").read_text())
    main_block = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(main_block) == 1
    called = [node.func.id for node in ast.walk(main_block[0])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert len(called) == 1 and scripts == ["mzero.cli:" + called[0]]


# ---------------------------------------------------------------------------
# start-up: each command loads only the layers it runs


def fresh_env(**extra):
    """The environment of a new interpreter that can import the package."""
    src = os.path.dirname(os.path.dirname(mzero.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_fresh(code):
    """Run code in a new interpreter that can import the package and
    return the value its last output line prints as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


NUMPY_LOADED = "\nimport json, sys; print(json.dumps('numpy' in sys.modules))"
RUN_MAIN = "from mzero.cli import main; assert main(%r) == 0"


@pytest.mark.parametrize(
    "code",
    ["import mzero", "import mzero.cli", RUN_MAIN % ["separation", "--mu", "3", "--json"]]
    + [
        RUN_MAIN % ["thresholds", "--variant", variant, "--json"]
        for variant in mzero.THRESHOLD_VARIANTS
    ]
    # `mzero --help` lists the commands without loading a layer
    + [RUN_MAIN % ["--help"]],
    ids=["import", "import-cli", "separation"] + list(mzero.THRESHOLD_VARIANTS)
    + ["full-parser"],
)
def test_constants_commands_do_not_load_numpy(code):
    assert run_fresh(code + NUMPY_LOADED) is False


def test_a_command_with_a_point_loads_numpy(ex_triple_path):
    argv = ["dual", "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + NUMPY_LOADED) is True


EXACT_MODULES = "\nimport json, sys; print(json.dumps(sorted(set(sys.modules) & %r)))" % {
    "mzero.exactparse", "fractions", "decimal", "encodings.utf_8_sig"
}


def test_a_scanned_system_does_not_load_the_exact_parser(tmp_path):
    # the worked double's `1/4` and `1/2` are integer ratios the scanner reads
    gen = perfbench_module("gen")
    dense = gen.system_text(gen.planted_system(4, 2, np.random.default_rng(1)))
    for name, text, origin in [("dense", dense, "0,0,0,0"), ("double", EX_DOUBLE, "0,0")]:
        path = tmp_path / (name + ".txt")
        path.write_text(text)
        path = str(path)
        parse = "from mzero.polycore import parse_system; parse_system(open(%r).read())" % path
        assert run_fresh(parse + EXACT_MODULES) == []
        argv = ["dual", "--system", path, "--point", origin, "--json"]
        assert run_fresh(RUN_MAIN % argv + EXACT_MODULES) == []


def test_a_statement_the_scanner_declines_loads_the_exact_parser(ex_triple_path):
    parse = "from mzero.polycore import parse_system; parse_system(%r)" % EX_TRIPLE
    assert run_fresh(parse + EXACT_MODULES) == ["mzero.exactparse"]
    argv = ["dual", "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + EXACT_MODULES) == ["mzero.exactparse"]


def test_package_names_resolve_to_their_home_modules():
    code = """
import json, sys, mzero
home = {name: getattr(mzero, name).__module__ for name in mzero.__all__}
print(json.dumps(sorted(
    name for name, module in home.items()
    if not module.startswith("mzero.")
    or getattr(sys.modules[module], name) is not getattr(mzero, name)
)))"""
    assert run_fresh(code) == []


def test_package_resolves_the_layer_modules():
    # the traced benchmark reaches every layer module through the package
    # and patches the polycore methods it names
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    code = """
import importlib, json, sys
sys.path.insert(0, %r)
from traced_cli import CLASS_METHODS, LAYER_MODULES
import mzero
print(json.dumps([
    m for m in LAYER_MODULES + ("constants", "errors")
    if getattr(mzero, m) is not importlib.import_module("mzero." + m)
] + [
    cls + "." + meth for cls, (_, methods) in CLASS_METHODS.items() for meth in methods
    if not hasattr(getattr(mzero.polycore, cls, None), meth)
]))"""
    assert run_fresh(code % perfbench) == []


def test_one_import_path_per_name():
    # a module-level __getattr__ serves names from another module: the
    # package's lazy exports, and polycore's NormalizedFrame, which the
    # traced benchmark reads there; no layer keeps an old path beyond these
    src = Path(mzero.__file__).parent
    found = sorted(
        path.name
        for path in src.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        or isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__getattr__" for t in node.targets)
    )
    assert found == ["__init__.py", "polycore.py"]


def _names_read(tree, name):
    """Whether an ast tree reads, imports or assigns the name."""
    return any(
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and name in (node.name, node.asname)
        for node in ast.walk(tree)
    )


def test_one_coordinate_rule_for_the_local_model():
    # the strict shape test is `dualspace`'s alone, the loose one serves
    # only refinement's variant choice, and neither the local model nor
    # `local_view` takes a coordinate option: no mode, frame switch or
    # tolerance
    src = Path(mzero.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    assert sorted(m for m, tree in trees.items() if _names_read(tree, "NORMALIZED_RTOL")) == [
        "dualspace"]
    assert sorted(m for m, tree in trees.items()
                  if _names_read(tree, "LOOSE_NORMALIZED_RTOL")) == ["newton"]
    assert any(isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "LOOSE_NORMALIZED_RTOL" for t in node.targets)
               for node in trees["newton"].body)
    init = next(node for cls in trees["gamma"].body
                if isinstance(cls, ast.ClassDef) and cls.name == "LocalModel"
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    params = {a.arg for a in init.args.args + init.args.kwonlyargs}
    assert not params & {"coords", "frame", "rel_tol"}
    view = next(node for node in trees["dualspace"].body
                if isinstance(node, ast.FunctionDef) and node.name == "local_view")
    assert [a.arg for a in view.args.args] == ["source", "x", "gap_tol"]
    assert sorted(m for m, tree in trees.items() if _names_read(tree, "is_normalized")) == [
        "dualspace", "newton"]


def test_one_route_to_the_local_model():
    # `LocalModel` runs `local_view` and `kernel_chain` itself on every
    # path: `gamma` reads no `compute_dual_basis`, `DualBasis` hands over
    # no view, point, Jacobian, Jhat or chain, and the detection
    # tolerances are named parameters, so a misspelt one is a TypeError
    from mzero import dualspace, gamma, newton

    assert not _names_read(ast.parse(Path(gamma.__file__).read_text()), "compute_dual_basis")
    assert list(inspect.signature(dualspace.DualBasis.__init__).parameters) == [
        "self", "input_J", "s", "normalized", "a_rows", "delta_values"]
    for fn in (gamma.LocalModel.__init__, newton.iterate_until):
        assert not any(p.kind is p.VAR_KEYWORD for p in inspect.signature(fn).parameters.values())
        assert {"gap_tol", "delta_zero_tol"} <= set(inspect.signature(fn).parameters)


def test_only_systems_and_frames_evaluate():
    # a polynomial evaluates as a system of one, a functional is applied
    # only by `DualFunctional.apply` on a system or frame, and a frame of a
    # frame is built only by `unitary_pullback`
    assert not hasattr(polycore.Poly, "partials") and not hasattr(polycore.Poly, "eval_at")
    tree = ast.parse(Path(mzero.functionals.__file__).read_text())
    assert not _names_read(tree, "apply_functional") and "apply_functional" not in mzero.__all__
    assert not _names_read(tree, "isinstance")
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "polycore"
                   for node in ast.walk(tree))
    assert not hasattr(frames.NormalizedFrame, "compose")


# sys.modules is read before this snippet's own `import json`
LOADED = "\nimport sys; loaded = set(sys.modules)\nimport json; print(json.dumps(sorted(loaded & %r)))"


def test_import_cli_loads_neither_dataclasses_nor_constants():
    watched = {"dataclasses", "mzero.constants", "mzero.thresholds", "mzero.derivations",
               "mzero.record", "mzero.syscommands", "argparse", "gettext", "locale"}
    assert run_fresh("import mzero.cli" + LOADED % watched) == []


def test_no_layer_loads_dataclasses():
    code = "import importlib, mzero\nfor m in mzero._SUBMODULES: importlib.import_module('mzero.' + m)"
    assert run_fresh(code + LOADED % {"dataclasses"}) == []


@pytest.mark.parametrize("command", ["dual", "gamma"])
def test_dual_and_gamma_do_not_load_constants(ex_triple_path, command):
    argv = [command, "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + LOADED % {"mzero.constants"}) == []


WATCHED = {"json", "mzero.constants", "mzero.thresholds", "mzero.derivations",
           "mzero.functionals", "mzero.frames", "mzero.syscommands", "argparse", "gettext",
           "locale"}

# one call of each command, with the modules of WATCHED it loads; ORIGIN and
# NEAR stand for a system file and a point (`dense_call`)
COMMAND_CALLS = [
    pytest.param(["dual", "ORIGIN"], ["mzero.functionals", "mzero.syscommands"], id="dual"),
    pytest.param(["gamma", "ORIGIN"], ["mzero.syscommands"], id="gamma"),
    pytest.param(["separation", "ORIGIN"], ["mzero.constants", "mzero.syscommands"],
                 id="separation"),
    pytest.param(["separation", "--mu", "3"], ["mzero.constants"], id="separation-constant"),
    pytest.param(["certify", "ORIGIN"], ["mzero.constants", "mzero.syscommands"], id="certify"),
    pytest.param(["certify", "NEAR"], ["mzero.constants", "mzero.frames", "mzero.syscommands"],
                 id="certify-near"),
    pytest.param(["refine", "NEAR", "--variant", "normalized_double"], ["mzero.syscommands"],
                 id="refine-normalized"),
    pytest.param(["refine", "NEAR"], ["mzero.syscommands"], id="refine-auto"),
    pytest.param(["refine", "NEAR", "--variant", "general"],
                 ["mzero.frames", "mzero.syscommands"], id="refine-general"),
    pytest.param(["thresholds", "--variant", "general_triple"], ["mzero.thresholds"],
                 id="thresholds"),
]


def dense_call(tmp_path, argv):
    """argv with ORIGIN and NEAR spelled out on a planted n = 4, mu = 2
    system, and --json."""
    gen = perfbench_module("gen")
    path = tmp_path / "dense.txt"
    path.write_text(gen.system_text(gen.planted_system(4, 2, np.random.default_rng(1))))
    places = {"ORIGIN": ["--system", str(path), "--point", "0,0,0,0"],
              "NEAR": ["--system", str(path), "--point", "1e-3,0,0,0", "--mu", "2"]}
    return [a for arg in argv for a in places.get(arg, [arg])] + ["--json"]


@pytest.mark.parametrize("argv, loaded", COMMAND_CALLS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # at a normalized point of a scanned system only `dual` builds
    # functionals; a general step needs a frame, and so does a certificate
    # off the strict shape, with or without --mu; no command
    # imports json, refinement reads no universal constant, `separation`
    # and `certify` read d(mu) from the `constants` table and only
    # `thresholds` reads the `thresholds` table, no call compiles the
    # derivation of either table, only a call with a system file compiles
    # the readers and handlers of `syscommands`, and no call loads argparse
    argv = dense_call(tmp_path, argv)
    assert run_fresh(RUN_MAIN % argv + LOADED % WATCHED) == loaded


PACKAGE_LOADED = ("\nimport sys; loaded = sorted(m for m in sys.modules if m.startswith('mzero'))"
                  "\nimport json; print(json.dumps(loaded))")


@pytest.mark.parametrize("argv, table", [
    (["separation", "--mu", "%d" % mu], "mzero.constants") for mu in (2, 20)
] + [
    (["thresholds", "--variant", variant], "mzero.thresholds")
    for variant in mzero.THRESHOLD_VARIANTS
], ids=["separation-2", "separation-20"] + list(mzero.THRESHOLD_VARIANTS))
def test_a_universal_constant_loads_its_table_alone(argv, table):
    # the constants are looked up: besides the entry, a call loads the one
    # table module and the record base, and never the derivation
    assert run_fresh(RUN_MAIN % (argv + ["--json"]) + PACKAGE_LOADED) == sorted(
        ["mzero", "mzero.cli", "mzero.errors", "mzero.record", table])


@pytest.mark.parametrize("argv", [param.values[0] for param in COMMAND_CALLS],
                         ids=[param.id for param in COMMAND_CALLS])
def test_no_call_compiles_cli_twice(tmp_path, argv):
    # under `python -m mzero.cli` the running module is `__main__`, so an
    # import of `mzero.cli` would compile and run cli.py a second time
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mzero.cli"] + dense_call(tmp_path, argv),
        capture_output=True, text=True, env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "mzero" in imported and "mzero.cli" not in imported


def test_no_module_imports_cli():
    # `-X importtime` logs import statements only, not a load through the
    # package's lazy attributes, so the source is checked as well
    src = Path(mzero.__file__).parent
    found = sorted(
        "%s:%d" % (path.name, node.lineno)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module in ("cli", "mzero.cli")
             or node.module in (None, "mzero") and any(a.name == "cli" for a in node.names))
        or isinstance(node, ast.Import) and any(a.name == "mzero.cli" for a in node.names)
    )
    assert found == []


@pytest.mark.parametrize(
    "argv, code",
    [(["dual", "--help"], 0), (["gamma", "--point", "0,0", "--mu", "x"], 2),
     (["thresholds", "--variant", "bogus"], 2)],
    ids=["help", "bad-int", "bad-choice"],
)
def test_help_and_errors_load_no_argparse(argv, code):
    # help and errors are written from the flag tables
    run = "from mzero.cli import main; assert main(%r) == %d" % (argv, code)
    assert run_fresh(run + LOADED % {"argparse", "gettext", "locale"}) == []


ARGUMENT_PARSERS = {"argparse", "optparse", "getopt"}


def test_no_module_imports_an_argument_parser():
    # the flag tables of `cli` are the one command-line parser
    src = Path(mzero.__file__).parent
    found = sorted(
        "%s:%d" % (path.name, node.lineno)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] in ARGUMENT_PARSERS for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] in ARGUMENT_PARSERS
    )
    assert found == []


def _reference_parser():
    """An argparse parser built from the flag tables: the reference that
    parse_args must read every call it accepts as."""
    parser = argparse.ArgumentParser(prog="mzero")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in COMMANDS.items():
        sp = subs.add_parser(name)
        sp.set_defaults(**_DEFAULTS)
        for flag, kind, choices, required, _ in flags:
            if kind is None:
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag, type=kind, choices=choices, required=required)
    return parser


REFERENCE = _reference_parser()
VALUE_FLAGS = {row[0] for _, _, flags in COMMANDS.values() for row in flags if row[1]}


def _argparse_args(argv):
    """The flags the reference parser reads from argv, or None where it
    prints help or an error. Each value is glued onto its flag with '=',
    so that argparse does not take a value that begins with '-' (a
    coordinate, `-1e-8`) for an option."""
    joined, tokens = [], iter(argv)
    for tok in tokens:
        joined.append(tok + "=" + next(tokens, "") if tok in VALUE_FLAGS else tok)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return REFERENCE.parse_args(joined)
        except SystemExit:
            return None


def _same_args(fast, ref):
    # by repr, so that nan reads equal to nan and 1 differs from 1.0
    def key(args):
        return sorted(map(repr, vars(args).items()))

    return ref is not None and key(fast) == key(ref)


FLAGS = sorted({row[0] for _, _, flags in COMMANDS.values() for row in flags})
VALUES = {
    int: ["3", "-1", " 7 ", "2.5", "x", "", "1e3"],
    float: ["1e-8", "-1e-3", "nan", "-inf", "2", "1e-8x", "0x1p-3"],
    str: ["0,0", "-0.01,0.01", "--json", "-h", "--", "x.mz", "a=b", ""],
}


@st.composite
def command_lines(draw):
    """Command names, the command's own flags and others', unknown flags,
    switches given a value, both value forms, values that begin with '-',
    bad numbers and choices, repeats, a missing required flag."""
    command = draw(st.sampled_from(list(COMMANDS) + ["bogus", "--help"]))
    own = COMMANDS.get(command, (None, None, []))[2]
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.sampled_from(own)) if own and draw(st.integers(0, 5)) else None
        flag = row[0] if row else draw(st.sampled_from(FLAGS + ["--sys", "--bogus", "-h", "--"]))
        kind = row[1] if row else str
        pool = list(row[2] or VALUES[kind]) if row and kind else VALUES[str]
        value = draw(st.sampled_from(pool + ["bogus", "-1"]))
        form = draw(st.sampled_from(["bare", "space", "eq"] if kind else ["bare"] * 3 + ["eq"]))
        argv += [flag] if form == "bare" else [flag, value] if form == "space" else [
            flag + "=" + value]
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(command_lines())
def test_fast_path_reads_what_argparse_reads(argv):
    # parse_args reads a call as argparse does, prints help, or refuses it
    # as one input error
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            args = parse_args(argv)
    except ParseError:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, ""), argv
        assert err.getvalue().startswith("input error: ") and err.getvalue().count("\n") == 1
        return
    if args is None:
        assert out.getvalue().startswith("usage: mzero "), argv
    else:
        assert _same_args(args, _argparse_args(argv)), argv


@pytest.mark.parametrize(
    "argv, flag",
    [(["separation", "--mu", "3", "--point-file", "--"], "--point-file"),
     (["separation", "--mu", "3", "--point-file=--"], "--point-file"),
     (["dual", "--system", "--", "--point", "0,0"], "--system")],
    ids=["space", "equals", "before-a-flag"],
)
def test_flag_value_of_two_dashes_is_refused(capsys, argv, flag):
    # `--` ends the options in many parsers; as a value it is a mistake
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "input error: %s: %s takes a value other than '--'\n" % (argv[0], flag)
    assert out == ""


def test_fast_path_takes_every_benchmark_call(tmp_path):
    run = perfbench_module("run")
    calls = [[c.command] + c.args for listed in run.CALL_LISTS.values()
             for c in listed(str(tmp_path), 1)]
    for argv in calls + [argv + ["--json"] for argv in calls]:
        args = parse_args(argv)
        assert args is not None and _same_args(args, _argparse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["bogus"], [], ["certify", "extra"]] + [[c, "--help"] for c in COMMANDS],
    ids=lambda argv: " ".join(argv) or "bare",
)
def test_one_command_parser_prints_what_the_full_parser_does(capsys, argv):
    # parse_args exits as the argparse parser of every command does, on the
    # same stream: help on stdout with 0, an error on stderr with 2
    code, out, err = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    full = capsys.readouterr()
    assert (code, bool(out), bool(err)) == (exc.value.code, bool(full.out), bool(full.err))
    if argv[-1:] != ["--help"]:
        # no command, an unknown one or a stray token: one input error
        # naming what is wrong
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert all(tok in err for tok in argv)
        return
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if argv == ["--help"]:
        for name, (_, text, _) in COMMANDS.items():
            assert any(line.split()[:1] == [name] and text in line for line in lines), name
        return
    _, text, flags = COMMANDS[argv[0]]
    assert text in lines
    for flag, kind, choices, required, flag_help in flags:
        line = next(line for line in lines if line.split()[:1] == [flag])
        # a value name after each flag that takes one: its choices, if any
        assert len(line.split()) > 1 if kind else line.split()[1:] == []
        assert choices is None or "{%s}" % ",".join(choices) in line.split()
        assert ("(required)" in line) is required
        assert flag_help and flag_help in out


AT_ZERO = ["--system", "SYSTEM", "--point", "0,0"]
WORKED = (("double", EX_DOUBLE, "2"), ("triple", EX_TRIPLE, "3"))


# a chain that ends at order 3, so its order-2 value vanishes; its Bezout
# number 1*3 admits a trusted mu = 2
CUBE = "vars: X1 X2\nf1: X2\nf2: X1^3\n"

# chain values above 1e154, whose squares overflow a double
HUGE = "vars: X Y\nf: Y + 1e155*X^2\ng: 1e150*X^2\n"


@pytest.mark.parametrize(
    "text, argv, code, mu",
    [pytest.param(text, [command] + AT_ZERO, 0, mu if command == "dual" else None,
                  id=command + "-" + name)
     for name, text, mu in WORKED for command in ("dual", "gamma", "separation", "certify")]
    + [pytest.param(text, ["refine", "--system", "SYSTEM", "--point=-0.01,0.01", "--mu", mu],
                    0, None, id="refine-" + name) for name, text, mu in WORKED]
    + [pytest.param(None, ["thresholds", "--variant", "general_triple"], 0, None,
                    id="thresholds")]
    + [pytest.param(SQUARE, [command, "--system", "SYSTEM", "--point", "1e200,0"], 3, None,
                    id=command + "-overflow") for command in ("gamma", "refine", "certify")]
    + [pytest.param(SQUARE, ["certify"] + AT_ZERO + ["--mu", "3"], 2, None,
                    id="certify-delta-zero")]
    + [pytest.param(CUBE, ["certify"] + AT_ZERO + ["--mu", "2"], 3, None,
                    id="certify-delta-zero-bezout")]
    + [pytest.param(HUGE, ["dual"] + AT_ZERO, 0, "2", id="dual-huge-chain-values")]
    + [pytest.param(STEEP["1e300"], [command] + AT_ZERO, 3, None, id=command + "-gamma-1e300")
       for command in ("separation", "certify")],
)
def test_no_warning_reaches_stderr(tmp_path, text, argv, code, mu):
    # a new interpreter per call, in which every warning is an error
    path = tmp_path / "system.mz"
    if text is not None:
        path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "mzero.cli"] + [a.replace("SYSTEM", str(path)) for a in argv],
        capture_output=True,
        text=True,
        env=fresh_env(PYTHONWARNINGS="error"),
    )
    got, err = proc.returncode, proc.stderr
    assert "Warning" not in err
    assert got == code, err
    if mu is not None:
        assert proc.stdout.startswith("multiplicity: %s\n" % mu)
    if code:
        # the overflow, the vanishing delta_mu and a mu above the Bezout
        # number each get one line
        prefix = {2: "input error: ", 3: "numerical-domain error: "}[code]
        assert err.startswith(prefix) and err.count("\n") == 1

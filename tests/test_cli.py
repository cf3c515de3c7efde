import ast
import contextlib
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
from mzero import constants, frames, polycore
from mzero.cli import (
    COMMANDS, _fast_args, _join_value_flags, _quote, build_parser, canonical_json, main,
    parse_point,
)
from mzero.errors import MathDomainError

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


@pytest.mark.parametrize("expr", ["(X1+X2+1)^120", "(X1+X2)^3000"])
def test_power_of_a_sum_above_the_term_budget_is_refused_at_once(capsys, tmp_path, expr):
    # expanding either exactly takes minutes; both can have more than
    # polycore.MAX_POWER_TERMS = 500 terms
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
    "point", ["0,0,0", "0", "nan,0", "0,nan", "inf,0", "1e400,0", "0,1+1e400i"]
)
def test_point_wrong_length_or_non_finite_is_input_error(capsys, ex_double_path, point):
    code, out, err = run_cli(
        capsys, "dual", "--system", ex_double_path, "--point", point, "--json"
    )
    assert code == 2
    assert "input error" in err
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
    "command, flag, value",
    [
        ("gamma", "--gap-tol", "nan"),
        ("gamma", "--gap-tol", "-1"),
        ("gamma", "--gap-tol", "0"),
        ("separation", "--delta-zero-tol", "inf"),
        ("dual", "--delta-zero-tol", "-0.5"),
        ("dual", "--max-order", "0"),
        ("refine", "--eps", "-1"),
        ("refine", "--eps", "nan"),
        ("refine", "--max-iter", "-1"),
        # exponent forms argparse would take for options if left unglued
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


@pytest.mark.parametrize("command", ["gamma", "separation"])
def test_mu_disagreeing_with_the_chain_is_input_error(capsys, ex_triple_path, command):
    code, out, err = run_cli(
        capsys, command, "--system", ex_triple_path, "--point", "0,0", "--mu", "2"
    )
    assert code == 2
    assert "input error" in err and "terminates at 3" in err
    assert out == ""


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
     ("X^999*Y", 0)],
)
def test_degree_above_the_limit_is_refused_at_parse(capsys, tmp_path, term, code):
    # the scanner reads X^2000000 and X^1000, the exact parser the others;
    # degree 1001 is refused and degree 1000 accepted
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
    broken = constants.ThresholdSet("normalized_double", 2, float("inf"), 0.03)
    monkeypatch.setattr(constants, "threshold_constants", lambda variant: broken)
    code, out, err = run_cli(
        capsys, "thresholds", "--variant", "normalized_double", "--json"
    )
    assert code == 3
    assert "numerical-domain error" in err and "non-finite" in err
    assert out == ""


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(variant):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(constants, "threshold_constants", broken)
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
    assert code == 2
    assert "unrecognized arguments: --mode" in err


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
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["mu"] == 3


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
        for variant in constants.THRESHOLD_VARIANTS
    ]
    # `mzero --help` lists the refine variants without loading `newton`
    + ["from mzero.cli import build_parser; build_parser()"],
    ids=["import", "import-cli", "separation"] + list(constants.THRESHOLD_VARIANTS)
    + ["full-parser"],
)
def test_constants_commands_do_not_load_numpy(code):
    assert run_fresh(code + NUMPY_LOADED) is False


def test_a_command_with_a_point_loads_numpy(ex_triple_path):
    argv = ["dual", "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + NUMPY_LOADED) is True


EXACT_MODULES = "\nimport json, sys; print(json.dumps(sorted(set(sys.modules) & %r)))" % {
    "mzero.exactparse", "fractions", "decimal"
}


def test_a_scanned_system_does_not_load_the_exact_parser(tmp_path):
    gen = perfbench_module("gen")
    path = tmp_path / "dense.txt"
    path.write_text(gen.system_text(gen.planted_system(4, 2, np.random.default_rng(1))))
    path = str(path)
    parse = "from mzero.polycore import parse_system; parse_system(open(%r).read())" % path
    assert run_fresh(parse + EXACT_MODULES) == []
    argv = ["dual", "--system", path, "--point", "0,0,0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + EXACT_MODULES) == []


def test_a_statement_the_scanner_declines_loads_the_exact_parser():
    parse = "from mzero.polycore import parse_system; parse_system(%r)" % EX_TRIPLE
    assert run_fresh(parse + EXACT_MODULES) == ["decimal", "fractions", "mzero.exactparse"]


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


# sys.modules is read before this snippet's own `import json`
LOADED = "\nimport sys; loaded = set(sys.modules)\nimport json; print(json.dumps(sorted(loaded & %r)))"


def test_import_cli_loads_neither_dataclasses_nor_constants():
    watched = {"dataclasses", "mzero.constants", "mzero.record", "argparse", "gettext",
               "locale"}
    assert run_fresh("import mzero.cli" + LOADED % watched) == []


def test_no_layer_loads_dataclasses():
    code = "import importlib, mzero\nfor m in mzero._SUBMODULES: importlib.import_module('mzero.' + m)"
    assert run_fresh(code + LOADED % {"dataclasses"}) == []


@pytest.mark.parametrize("command", ["dual", "gamma"])
def test_dual_and_gamma_do_not_load_constants(ex_triple_path, command):
    argv = [command, "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + LOADED % {"mzero.constants"}) == []


WATCHED = {"json", "mzero.constants", "mzero.functionals", "mzero.frames", "argparse",
           "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["dual", "ORIGIN"], ["mzero.functionals"]),
        (["gamma", "ORIGIN"], []),
        (["separation", "ORIGIN"], ["mzero.constants"]),
        (["separation", "--mu", "3"], ["mzero.constants"]),
        (["certify", "ORIGIN"], ["mzero.constants"]),
        (["refine", "NEAR", "--variant", "normalized_double"], []),
        (["refine", "NEAR"], []),
        (["refine", "NEAR", "--variant", "general"], ["mzero.frames"]),
        (["thresholds", "--variant", "general_triple"], ["mzero.constants"]),
    ],
    ids=["dual", "gamma", "separation", "separation-constant", "certify", "refine-normalized",
         "refine-auto", "refine-general", "thresholds"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # at a normalized point of a scanned system only `dual` builds
    # functionals and only a general step needs a frame; no command
    # imports json, refinement reads no universal constant, and a
    # well-formed call is parsed without argparse
    gen = perfbench_module("gen")
    path = tmp_path / "dense.txt"
    path.write_text(gen.system_text(gen.planted_system(4, 2, np.random.default_rng(1))))
    places = {"ORIGIN": ["--system", str(path), "--point", "0,0,0,0"],
              "NEAR": ["--system", str(path), "--point", "1e-3,0,0,0", "--mu", "2"]}
    argv = [a for arg in argv for a in places.get(arg, [arg])] + ["--json"]
    assert run_fresh(RUN_MAIN % argv + LOADED % WATCHED) == loaded


@pytest.mark.parametrize(
    "argv, code",
    [(["dual", "--help"], 0), (["gamma", "--point", "0,0", "--mu", "x"], 2),
     (["thresholds", "--variant", "bogus"], 2)],
    ids=["help", "bad-int", "bad-choice"],
)
def test_help_and_errors_load_argparse(argv, code):
    # what _fast_args declines goes to argparse, which prints help and errors
    run = "from mzero.cli import main; assert main(%r) == %d" % (argv, code)
    assert run_fresh(run + LOADED % {"argparse"}) == ["argparse"]


def _argparse_args(argv):
    """The flags argparse reads from argv as main passes it, or None where
    it prints help or an error."""
    parser = build_parser(argv[0] if argv else None)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(_join_value_flags(argv, parser.value_flags))
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
        kind = row[2] if row else str
        pool = list(row[3] or VALUES[kind]) if row and kind else VALUES[str]
        value = draw(st.sampled_from(pool + ["bogus", "-1"]))
        form = draw(st.sampled_from(["bare", "space", "eq"] if kind else ["bare"] * 3 + ["eq"]))
        argv += [flag] if form == "bare" else [flag, value] if form == "space" else [
            flag + "=" + value]
    return argv


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(command_lines())
def test_fast_path_reads_what_argparse_reads(argv):
    fast = _fast_args(argv)
    assert fast is None or _same_args(fast, _argparse_args(argv)), argv


@pytest.mark.parametrize(
    "argv, flag",
    [(["separation", "--mu", "3", "--point-file", "--"], "--point-file"),
     (["separation", "--mu", "3", "--point-file=--"], "--point-file"),
     (["dual", "--system", "--", "--point", "0,0"], "--system")],
    ids=["space", "equals", "before-a-flag"],
)
def test_flag_value_of_two_dashes_is_refused(capsys, argv, flag):
    # argparse would drop the value and go on without the flag
    assert _fast_args(argv) is None
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "input error: %s takes a value other than '--'\n" % flag
    assert out == ""


def test_fast_path_takes_every_benchmark_call(tmp_path):
    run = perfbench_module("run")
    calls = [[c.command] + c.args for listed in run.CALL_LISTS.values()
             for c in listed(str(tmp_path), 1)]
    for argv in calls + [argv + ["--json"] for argv in calls]:
        fast = _fast_args(argv)
        assert fast is not None and _same_args(fast, _argparse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["bogus"], [], ["certify", "extra"]] + [[c, "--help"] for c in COMMANDS],
    ids=lambda argv: " ".join(argv) or "bare",
)
def test_one_command_parser_prints_what_the_full_parser_does(capsys, argv):
    # main builds the subparser of argv[0] alone; help, usage and errors
    # must read as with every subparser built
    code, out, err = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert (code, out, err) == (exc.value.code, full.out, full.err)


AT_ZERO = ["--system", "SYSTEM", "--point", "0,0"]
WORKED = (("double", EX_DOUBLE, "2"), ("triple", EX_TRIPLE, "3"))


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
    + [pytest.param(SQUARE, ["certify"] + AT_ZERO + ["--mu", "3"], 3, None,
                    id="certify-delta-zero")]
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
        # the overflow and the vanishing delta_mu each get one line
        assert err.startswith("numerical-domain error: ") and err.count("\n") == 1

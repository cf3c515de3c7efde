import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mzero
from mzero import constants
from mzero.cli import canonical_json, main, parse_point
from mzero.errors import MathDomainError


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


def test_separation_with_system_needs_point(capsys, ex_double_path):
    code, _, err = run_cli(capsys, "separation", "--system", ex_double_path)
    assert code == 2
    assert "point is required" in err


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


def run_fresh(code):
    """Run code in a new interpreter that can import the package and
    return the value its last output line prints as JSON."""
    src = os.path.dirname(os.path.dirname(mzero.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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
    ],
    ids=["import", "import-cli", "separation"] + list(constants.THRESHOLD_VARIANTS),
)
def test_constants_commands_do_not_load_numpy(code):
    assert run_fresh(code + NUMPY_LOADED) is False


def test_a_command_with_a_point_loads_numpy(ex_triple_path):
    argv = ["dual", "--system", ex_triple_path, "--point", "0,0", "--json"]
    assert run_fresh(RUN_MAIN % argv + NUMPY_LOADED) is True


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
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    code = """
import importlib, json, sys
sys.path.insert(0, %r)
from traced_cli import LAYER_MODULES
import mzero
print(json.dumps([
    m for m in LAYER_MODULES + ("constants", "errors")
    if getattr(mzero, m) is not importlib.import_module("mzero." + m)
]))"""
    assert run_fresh(code % perfbench) == []

"""Tests of the benchmark's own input generator and output checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from mzero.dualspace import compute_dual_basis  # noqa: E402
from mzero.polycore import parse_system  # noqa: E402


def _files(seed):
    return [(gen.system_text(polys), gen.point_text(start))
            for _, _, _, polys, start in gen.dense_inputs(seed)]


def test_same_seed_gives_identical_files():
    assert _files(7) == _files(7)


def test_other_seed_gives_other_coefficients_same_sizes():
    a, b = gen.dense_inputs(7), gen.dense_inputs(8)
    assert _files(7) != _files(8)
    for (_, _, _, pa, _), (_, _, _, pb, _) in zip(a, b):
        assert [len(t) for t in pa] == [len(t) for t in pb]


def test_text_round_trip_is_exact():
    for _, n, _, polys, start in gen.dense_inputs(3)[:3]:
        parsed = parse_system(gen.system_text(polys))
        assert [p.terms for p in parsed.polys] == polys
        coords = gen.point_text(start).split(",")
        assert [complex(c.replace("i", "j")) for c in coords] == list(start)


@pytest.mark.parametrize("mu", [2, 3, 4])
def test_planted_multiplicity(mu):
    rng = np.random.default_rng(mu)
    system = parse_system(gen.system_text(gen.planted_system(4, mu, rng)))
    assert compute_dual_basis(system, np.zeros(4, dtype=complex)).mu == mu
    assert np.all(system.eval_at(np.zeros(4)) == 0)


def _doc(command, **result):
    return json.dumps({"command": command, "result": result})


def _error(command, expect, stdout, returncode=0):
    return checks.check_call(command, expect, returncode, stdout)[1]


def test_wrong_mu_is_rejected():
    assert _error("dual", {"mu": 3}, _doc("dual", mu=3)) is None
    assert "planted 3" in _error("dual", {"mu": 3}, _doc("dual", mu=2))
    assert "planted 4" in _error("gamma", {"mu": 4}, _doc("gamma", mu=3, gamma=1.5))


def test_gamma_below_one_or_non_finite_is_rejected():
    assert "below 1" in _error("gamma", {"mu": 2}, _doc("gamma", mu=2, gamma=0.5))
    for literal in ("inf", "Infinity", "NaN"):
        doc = '{"command": "gamma", "result": {"mu": 2, "gamma": %s}}' % literal
        assert "invalid JSON" in _error("gamma", {"mu": 2}, doc)


def test_exit_code_and_command_are_checked():
    assert "exit code 3" in _error("dual", {}, "", returncode=3)
    assert "not a dual result" in _error("dual", {}, _doc("gamma", mu=2))


def test_certify_needs_positive_radius():
    assert _error("certify", {"mu": 3}, _doc("certify", mu=3, radius=0.0076)) is None
    assert "not positive" in _error("certify", {"mu": 2}, _doc("certify", mu=2, radius=0.0))


def _iterate(*coords):
    return [{"re": float(c.real), "im": float(c.imag)} for c in coords]


def test_refine_must_stop_at_tolerance_near_the_zero():
    ok = _doc("refine", stop_reason="tolerance",
              iterates=[_iterate(1e-2, 0), _iterate(1e-12, 1e-13j)])
    assert _error("refine", {}, ok) is None
    far = _doc("refine", stop_reason="tolerance", iterates=[_iterate(1e-6, 0)])
    assert "distance" in _error("refine", {}, far)
    stuck = _doc("refine", stop_reason="max_iter", iterates=[_iterate(0, 0)])
    assert "max_iter" in _error("refine", {}, stuck)


def test_separation_targets():
    good2 = _doc("separation", mu=2, d=0.28659, d3=0.28659)
    assert _error("separation", {"mu": 2}, good2) is None
    assert "d(2)" in _error("separation", {"mu": 2}, _doc("separation", mu=2, d=0.29, d3=0.29))
    assert "d3(3)" in _error("separation", {"mu": 3}, _doc("separation", mu=3, d=0.0851, d3=0.0852))
    no_bound = _doc("separation", mu=3, d=0.08507, d3=0.08507)
    assert "bound" in _error("separation", {"mu": 3, "system": True}, no_bound)
    off = _doc("separation", mu=3, d=0.08507, d3=0.08507, bound=0.02)
    expect = {"mu": 3, "system": True, "bound": (0.01545, 1e-4)}
    assert "target" in _error("separation", expect, off)


def test_ladder_must_decrease():
    results = {2: {"d": 0.28}, 3: {"d": 0.085}, 4: {"d": 0.09}, 5: None, 6: {"d": 0.001}}
    assert [mu for mu, _ in checks.check_ladder(results)] == [4]


def test_threshold_targets():
    doc = _doc("thresholds", variant="general_triple", u_converge=0.0137, u_quadratic=0.0098)
    assert _error("thresholds", {}, doc) is None
    doc = _doc("thresholds", variant="general_triple", u_converge=0.0137, u_quadratic=0.0110)
    assert "u_quadratic" in _error("thresholds", {}, doc)

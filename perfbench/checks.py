"""Output checks for one `mzero ... --json` call.

`check_call` looks at one call's exit code and stdout against what the
benchmark planted in its input; `check_ladder` looks across the
`separation --mu k` calls of one pass. Targets are the package's
acceptance values (separation constants for mu = 2, 3 and the threshold
constants of the three iteration variants).
"""

import json
import math

D2_TARGET, D2_TOL = 0.2865, 5e-4
D3_MU3_TARGET, D3_MU3_TOL = 0.08507, 5e-5
THRESHOLD_TOL = 5e-4
THRESHOLD_TARGETS = {
    "normalized_double": (0.0418, 0.0318),
    "normalized_triple": (0.0222, 0.0154),
    "general_triple": (0.0137, 0.0098),
}
REFINE_DIST_TOL = 1e-8


class CheckFailed(Exception):
    """An output that does not meet the call's expectation."""


def _reject_constant(text):
    raise ValueError("non-finite literal %s" % text)


def _finite(value, what):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CheckFailed("%s is not a number: %r" % (what, value))
    if not math.isfinite(value):
        raise CheckFailed("%s is not finite: %r" % (what, value))
    return float(value)


def _expect_mu(result, mu):
    if mu is not None and result.get("mu") != mu:
        raise CheckFailed("mu is %r, planted %d" % (result.get("mu"), mu))


def _check_dual(result, expect):
    _expect_mu(result, expect.get("mu"))


def _check_gamma(result, expect):
    _expect_mu(result, expect.get("mu"))
    gamma = _finite(result.get("gamma"), "gamma")
    if gamma < 1.0:
        raise CheckFailed("gamma %.6g is below 1" % gamma)


def _check_separation(result, expect):
    _expect_mu(result, expect.get("mu"))
    d = _finite(result.get("d"), "d")
    if not d > 0.0:
        raise CheckFailed("d(mu) = %r is not positive" % d)
    if result.get("mu") == 2 and abs(d - D2_TARGET) > D2_TOL:
        raise CheckFailed("d(2) = %.6g, target %g +/- %g" % (d, D2_TARGET, D2_TOL))
    if result.get("mu") == 3:
        d3 = _finite(result.get("d3"), "d3")
        if abs(d3 - D3_MU3_TARGET) > D3_MU3_TOL:
            raise CheckFailed(
                "d3(3) = %.6g, target %g +/- %g" % (d3, D3_MU3_TARGET, D3_MU3_TOL)
            )
    if expect.get("system"):
        bound = _finite(result.get("bound"), "bound")
        if not bound > 0.0:
            raise CheckFailed("exclusion radius %r is not positive" % bound)
        target = expect.get("bound")
        if target is not None and abs(bound - target[0]) > target[1]:
            raise CheckFailed("bound %.6g, target %g +/- %g" % (bound, *target))


def _check_certify(result, expect):
    _expect_mu(result, expect.get("mu"))
    radius = _finite(result.get("radius"), "radius")
    if not radius > 0.0:
        raise CheckFailed("certificate radius %r is not positive" % radius)


def _check_refine(result, expect):
    if result.get("stop_reason") != "tolerance":
        raise CheckFailed("stop_reason %r" % result.get("stop_reason"))
    last = result["iterates"][-1]
    dist = math.sqrt(sum(c["re"] ** 2 + c["im"] ** 2 for c in last))
    if not dist <= REFINE_DIST_TOL:
        raise CheckFailed(
            "final iterate at distance %.3e from the planted zero" % dist
        )


def _check_thresholds(result, expect):
    variant = result.get("variant")
    if variant not in THRESHOLD_TARGETS:
        raise CheckFailed("unknown variant %r" % variant)
    for key, target in zip(("u_converge", "u_quadratic"), THRESHOLD_TARGETS[variant]):
        got = _finite(result.get(key), key)
        if abs(got - target) > THRESHOLD_TOL:
            raise CheckFailed(
                "%s %s = %.6g, target %g +/- %g"
                % (variant, key, got, target, THRESHOLD_TOL)
            )


_CHECKS = {
    "dual": _check_dual,
    "gamma": _check_gamma,
    "separation": _check_separation,
    "certify": _check_certify,
    "refine": _check_refine,
    "thresholds": _check_thresholds,
}


def check_call(command, expect, returncode, stdout):
    """Return (result dict or None, failure reason or None)."""
    if returncode != 0:
        return None, "exit code %d" % returncode
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, "invalid JSON: %s" % exc
    if not isinstance(doc, dict) or doc.get("command") != command:
        return None, "document is not a %s result" % command
    result = doc.get("result")
    if not isinstance(result, dict):
        return None, "document has no result"
    try:
        _CHECKS[command](result, expect)
    except (CheckFailed, KeyError, TypeError) as exc:
        return result, str(exc) or type(exc).__name__
    return result, None


def check_ladder(results):
    """(mu, reason) for each ladder call that breaks strict decrease of d(mu).

    results maps mu to the parsed `separation --mu` result (None when the
    call itself failed, which is already counted)."""
    bad = []
    prev_mu, prev_d = None, None
    for mu in sorted(results):
        res = results[mu]
        if res is None:
            continue
        d = res.get("d")
        if prev_d is not None and not d < prev_d:
            bad.append(
                (mu, "d(%d) = %.6g is not below d(%d) = %.6g" % (mu, d, prev_mu, prev_d))
            )
        prev_mu, prev_d = mu, d
    return bad

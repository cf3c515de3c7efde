import functools
import itertools
import json
import math
import os
import re
import shutil
import subprocess
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mzero import exactparse, polycore
from mzero.errors import MathDomainError, ParseError
from mzero.frames import unitary_pullback
from mzero.functionals import DualFunctional
from mzero.polycore import (
    Poly,
    PolySystem,
    parse_system,
)

from conftest import EX_DOUBLE, EX_TRIPLE, monomials, perfbench_module, random_unitary


# ---------------------------------------------------------------------------
# parsing


def test_parse_double_system_exact():
    sys_ = parse_system(EX_DOUBLE)
    assert sys_.var_names == ["X1", "X2"]
    assert sys_.labels == ["f1", "f2"]
    f1, f2 = sys_.polys
    assert f1.terms[(2, 0)] == 1.0
    assert f1.terms[(1, 0)] == -0.25
    assert f1.terms[(0, 1)] == -0.5
    assert f2.terms == {(1, 1): 0.5}


def test_parse_triple_system_expands_cube():
    sys_ = parse_system(EX_TRIPLE)
    f2 = sys_.polys[1]
    # (8 X1 - 3 X2)^2 (3 X1 + 8 X2), expanded by hand
    assert f2.terms[(3, 0)] == 192.0
    assert f2.terms[(2, 1)] == 368.0
    assert f2.terms[(1, 2)] == -357.0
    assert f2.terms[(0, 3)] == 72.0
    f1 = sys_.polys[0]
    assert f1.terms[(0, 1)] == pytest.approx(math.sqrt(73) / 12, rel=1e-15)
    assert f1.terms[(2, 0)] == pytest.approx(64 / 73, rel=1e-15)


def test_parse_sqrt_of_perfect_square_is_exact():
    sys_ = parse_system("vars: X\nf: sqrt(9)*X")
    assert sys_.polys[0].terms[(1,)] == 3.0


def test_parse_keeps_surds_exact():
    # sqrt(73)/12 = 0.71200031210979426398..., rounded once from 60 digits
    wide = Context(prec=60)
    root = float(wide.divide(Decimal(73).sqrt(wide), 12))
    assert root == 0.7120003121097943
    sys_ = parse_system("vars: X Y\nf: sqrt(73)/12*X + sqrt(2)*sqrt(2)*Y\ng: Y")
    assert sys_.polys[0].terms == {(1, 0): root, (0, 1): 2.0}


def test_parse_imaginary_and_scientific():
    sys_ = parse_system("vars: X Y\nf: 2i*X + 1.5e-3*Y\ng: X*Y")
    f = sys_.polys[0]
    assert f.terms[(1, 0)] == 2j
    assert f.terms[(0, 1)] == 1.5e-3


def test_parse_comments_and_semicolons():
    text = "# heading\nvars: X Y\nf: X^2; g: Y - 1/2  # inline\n"
    sys_ = parse_system(text)
    assert sys_.n == 2
    assert sys_.polys[1].terms[(0, 0)] == -0.5


@pytest.mark.parametrize(
    "bad",
    [
        "f: X^2",                       # no vars line
        "vars: X Y\nf: X*Y",            # not square
        "vars: X\nf: X\nf: X^2",        # duplicate label
        "vars: X X\nf: X\ng: X",        # duplicate variable
        "vars: X\nf: X^(1/2)",          # fractional exponent
        "vars: X\nf: 1/X",              # division by a variable
        "vars: X\nf: X +",              # dangling operator
        "vars: X\nf: sqrt(X)",          # sqrt of a non-constant
        "vars: X\nf: 1e400*X",          # coefficient beyond the double range
        "vars: X\nf: sqrt(2*10^400)*X", # sqrt argument beyond the double range
        "vars: X\nf: 1e9999999*X + X^2",  # exponents of more than 5 digits,
        "vars: X\nf: 1e-999999*X",        # on the scanner's statements
        "vars: X\nf: 1e000001*X",
        "vars: X\nf: (1+2E+100000i)*X",
        "vars: X\nf: X/2 + 1e-999999*X^2",  # and on the exact parser's
        "vars: X\nf: X^1e1000000",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_system(bad)


# the checks parse_system made with regular expressions, as the oracle of
# the string methods it uses now
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# names, separators, Unicode spaces and identifier characters, non-ASCII digits
name_text = st.text(
    st.sampled_from(list("aZ_9x ,\t\x0b\x0c\x1f\xa0 　é٣-+.")) | st.characters(),
    max_size=12,
).map(lambda s: "".join(c for c in s if c not in "#;:" and len(("a%sb" % c).splitlines()) == 1))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name_text)
def test_vars_line_reads_as_the_regex_split_did(rest):
    names = [v for v in re.split(r"[\s,]+", rest.strip()) if v]
    valid = bool(names) and len(set(names)) == len(names) and all(
        re.fullmatch(NAME, v) and v != "sqrt" for v in names)
    text = "vars:" + rest + "".join("\nf%d: 1" % i for i in range(len(names)))
    if valid:
        assert parse_system(text).var_names == names
    else:
        with pytest.raises(ParseError):
            parse_system(text)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name_text)
def test_labels_read_as_the_regex_match_did(label):
    text = "vars: X Y\n%s: X\ng: Y" % label
    if re.fullmatch(NAME, label.strip()) and label.strip() != "g":
        assert parse_system(text).labels == [label.strip(), "g"]
    else:
        with pytest.raises(ParseError):
            parse_system(text)


def test_parse_system_compiles_no_pattern(monkeypatch):
    # only the precompiled term scanner is left; the `re` module is not used
    monkeypatch.setattr(polycore, "re", None)
    sys_ = parse_system("vars: X, Y\nf: X^2 + (1+2i)*Y\ng: (0.0e5+1e-400i)*X + Y")
    assert sys_.var_names == ["X", "Y"] and sys_.labels == ["f", "g"]


def test_power_of_a_sum_is_refused_above_the_term_budget():
    # a t-term sum squared can have C(t + 1, 2) terms: 496 for the 31
    # powers X^0 .. X^30 (61 distinct monomials), 528 for 32; (X+Y)^100
    # can have 101
    assert polycore.MAX_POWER_TERMS == 500
    powers = " + ".join("X^%d" % i for i in range(31))
    f = parse_system("vars: X Y\nf: (%s)^2\ng: Y" % powers).polys[0]
    assert f.terms == {(i, 0): float(min(i, 60 - i) + 1) for i in range(61)}
    with pytest.raises(ParseError, match="a power of a 32-term sum"):
        parse_system("vars: X Y\nf: (%s + X^31)^2\ng: Y" % powers)
    f = parse_system("vars: X Y\nf: (X+Y)^100\ng: Y").polys[0]
    assert f.terms == {(k, 100 - k): float(math.comb(100, k)) for k in range(101)}


def test_unary_minus_and_power():
    sys_ = parse_system("vars: X\nf: -X^3 + (-2)*X")
    assert sys_.polys[0].terms[(3,)] == -1.0
    assert sys_.polys[0].terms[(1,)] == -2.0


def test_parse_reports_the_offending_character():
    with pytest.raises(ParseError, match=r"unexpected character '\$'"):
        parse_system("vars: X\nf: X $ 2")


@pytest.mark.parametrize(
    "expr, terms",
    [
        ("X - X", {}),
        ("(X+Y)^2 - X^2 - 2*X*Y - Y^2", {}),
        # exact sums: in doubles 1e-20 + 1 - 1 would be 0
        ("1e-20*X + X - X", {(1, 0): 1e-20}),
        # (2i)^3 = -8i, negated and divided by 3
        ("-(2i*X)^3/3", {(3, 0): 8j / 3}),
        ("X^0 + 0*Y + 0.0i", {(0, 0): 1.0}),
        # decimal literals are exact: in doubles this is 0.30000000000000004
        ("(0.1 + 0.2)*X", {(1, 0): 0.3}),
    ],
)
def test_parse_is_exact(expr, terms):
    sys_ = parse_system("vars: X Y\nf: %s\ng: Y" % expr)
    assert sys_.polys[0].terms == terms


def test_parse_keeps_order_of_first_appearance():
    text = "vars: X Y\nf: Y^2 + 3 + X*(Y + 1) + 2*Y^2 + X^2\ng: (Y + X)*(X - 1)"
    f, g = parse_system(text).polys
    assert list(f.terms) == [(0, 2), (0, 0), (1, 1), (1, 0), (2, 0)]
    assert f.terms[(0, 2)] == 3.0
    # a product of two sums lists its terms row by row
    assert list(g.terms) == [(1, 1), (0, 1), (2, 0), (1, 0)]
    # a term that cancels and comes back counts as new
    g = parse_system(text + " - X*Y + 5*X*Y").polys[1]
    assert list(g.terms) == [(0, 1), (2, 0), (1, 0), (1, 1)]
    assert g.terms[(1, 1)] == 5.0


float_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
)


@st.composite
def written_tables(draw):
    """n and n term dicts (n in 1..4, degree <= 4) with complex coefficients."""
    n = draw(st.integers(min_value=1, max_value=4))
    monos = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4).map(
        lambda idx: tuple(idx.count(j) for j in range(n))
    )
    tables = []
    for _ in range(n):
        keys = draw(st.lists(monos, min_size=1, max_size=6, unique=True))
        tables.append({m: complex(draw(float_parts), draw(float_parts)) for m in keys})
    return n, tables


def _term_text(mono, c):
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    factors = ["(%r%s%ri)" % (c.real, sign, abs(c.imag))]
    factors += ["X%d^%d" % (j + 1, e) for j, e in enumerate(mono) if e]
    return "*".join(factors)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(written_tables())
def test_parse_round_trips_repr_coefficients(case):
    n, tables = case
    lines = ["vars: " + " ".join("X%d" % (j + 1) for j in range(n))]
    for i, terms in enumerate(tables):
        body = " + ".join(_term_text(m, c) for m, c in terms.items())
        lines.append("f%d: %s" % (i + 1, body))
    sys_ = parse_system("\n".join(lines))
    for poly, terms in zip(sys_.polys, tables):
        expected = Poly(n, terms)
        assert list(poly.terms) == list(expected.terms)
        for mono, c in expected.terms.items():
            # exact rationals have no signed zero: -0.0 parts come back as 0.0
            assert poly.terms[mono].real == c.real
            assert poly.terms[mono].imag == c.imag


# exact parser against fractions.Fraction: each expression is drawn with its
# value as a pair of Fractions (real, imaginary), or None after a division
# by zero


def _fraction_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _fraction_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    if not den:
        return None
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


_FRACTION_OPS = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": _fraction_mul,
    "/": _fraction_div,
}
decimal_text = st.builds(
    lambda whole, frac, e, exp: "%d%s%s" % (whole, frac and "." + frac,
                                            "" if exp is None else e + str(exp)),
    st.integers(min_value=0, max_value=10**9),
    st.text("0123456789", max_size=8),
    st.sampled_from("eE"),
    st.none() | st.integers(min_value=-30, max_value=30),
)
exact_leaves = st.one_of(
    st.integers(min_value=0, max_value=10**12).map(lambda k: (str(k), (Fraction(k), Fraction(0)))),
    decimal_text.map(lambda t: (t, (Fraction(t), Fraction(0)))),
    decimal_text.map(lambda t: (t + "i", (Fraction(0), Fraction(t)))),
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=999))
    .map(lambda pq: ("sqrt(%d/%d)" % (pq[0] ** 2, pq[1] ** 2),
                     (Fraction(*pq), Fraction(0)))),
)


def _exact_node(children):
    def combine(op, a, b, k):
        (ta, va), (tb, vb) = a, b
        if op == "^":
            one = (Fraction(1), Fraction(0))
            return "(%s)^%d" % (ta, k), va and functools.reduce(_fraction_mul, [va] * k, one)
        value = va and vb and _FRACTION_OPS[op](va, vb)
        return "(%s)%s(%s)" % (ta, op, tb), value

    return st.builds(combine, st.sampled_from("+-*/^"), children, children,
                     st.integers(min_value=0, max_value=3))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.recursive(exact_leaves, _exact_node, max_leaves=12))
def test_exact_parser_matches_fraction_arithmetic(case):
    text, value = case
    try:
        got = exactparse.parse_terms("(%s)*X" % text, {"X": (1,)})
    except ParseError as exc:
        assert value is None and str(exc) == "division by zero"
        return
    except OverflowError:
        with pytest.raises(OverflowError):
            float(value[0]), float(value[1])
        return
    assert value is not None
    if not any(value):
        assert got == {}
        return
    c = got[(1,)]
    assert (c.real.hex(), c.imag.hex()) == (float(value[0]).hex(), float(value[1]).hex())


# term scanner: statements of single terms skip the exact parser

LITERALS = ["0", "0.000", "0.0", "1", "12", "2.5", "0.1", "3.25e-5", "5e-324",
            "1e-400", "1e+300", "1e400", "1.7976931348623157e308"]
literals = st.one_of(st.sampled_from(LITERALS), st.floats(min_value=0, allow_infinity=False).map(repr))
edge = st.sampled_from(["0", "1e-400", "1e400"])
# integers for `<int>/<int>`: zero, leading zeros, 400 digits (an overflowing
# or underflowing ratio) and 4301 digits, beyond MAX_LITERAL_DIGITS
ratio_ints = st.one_of(
    st.sampled_from(["0", "1", "4", "73", "007", "9" * 400, "1" + "0" * 400, "1" * 4301]),
    st.integers(min_value=0, max_value=10**30).map(str),
)
spaces = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def scanner_statements(draw):
    """Random sums of single terms over X, Y, Z, U, V in every form the scanner
    reads, with repeated monomials, zero, underflowing and overflowing
    literals and ratios, zero denominators, and now and then a factor or an
    `i` after a ratio that only the exact parser reads."""
    def ws(text):
        return draw(spaces) + text + draw(spaces)

    def term():
        form = draw(st.sampled_from(["real", "imag", "complex", "ratio", "none"]))
        if form == "real":
            coef = ws(draw(st.one_of(literals, edge)))
        elif form == "imag":
            coef = ws(draw(literals) + "i")
        elif form == "complex":
            re_sign = draw(st.sampled_from(["", "-", "+"]))
            # exactly, -1e-400 rounds to -0.0 and -0 to 0.0
            re_lit, im_lit = draw(st.one_of(literals, edge)), draw(st.one_of(literals, edge))
            coef = ws("(" + ws(re_sign) + ws(re_lit) + ws(draw(st.sampled_from("+-")))
                      + ws(im_lit + "i") + ")")
        elif form == "ratio":
            # `1/2i` is 1/(2i)
            coef = ws(ws(draw(ratio_ints)) + "/" + ws(draw(ratio_ints))
                      + draw(st.sampled_from([""] * 19 + ["i"])))
        else:
            coef = None
        factors = [
            ws(draw(st.sampled_from("XYZUV")))
            + draw(st.sampled_from(["", "", "^0", "^1", "^2", ws("^") + ws("3")]))
            for _ in range(draw(st.integers(min_value=0 if coef else 1, max_value=3)))
        ]
        if coef:
            factors.insert(0, coef)
        if draw(st.integers(0, 19)) == 19:
            factors.append(draw(st.sampled_from(["4", "sqrt(9)", "(X+1)", "W"])))
        # a missing `*` now and then, as in `2iX` or `X Y`
        text = factors[0]
        for factor in factors[1:]:
            text += draw(st.sampled_from(["*"] * 19 + [""])) + factor
        if draw(st.integers(0, 19)) == 19:
            text += "/4"
        return text

    body = ws(draw(st.sampled_from(["", "+", "-"]))) + term()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        body += ws(draw(st.sampled_from(["+", "-"] * 10 + [""]))) + term()
    return body


def _bits(system):
    """Each polynomial's terms with both parts and their signs, in order."""
    return [
        [(m, c.real, math.copysign(1, c.real), c.imag, math.copysign(1, c.imag))
         for m, c in p.terms.items()]
        for p in system.polys
    ]


def _outcome(text):
    try:
        return _bits(parse_system(text))
    except ParseError as exc:
        return "ParseError: %s" % exc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scanner_statements())
@example("(-0+2i)*X + (2.5-0.000i)*Y")
@example("(-1e-400+2i)*X")
@example("(1-1e-400i)*Y")
@example("- X + 0*Y + -0.0*Z + 5e-324*U + 1e+300*V")
@example("X + 1e400*Y")
@example("X Y + 2iX")
@example("9" * 400 + "/7*X")                  # overflows
@example("-1/1" + "0" * 400 + "*X + 1/3*Y")   # underflows
@example("9" * 400 + "/1*X - 1/0*Y")          # overflow, then a zero denominator
def test_term_scanner_matches_exact_parser(stmt):
    text = "vars: X Y Z U V\nf: %s\ng: Y\nh: Z\nu: U\nv: V" % stmt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycore, "_scan_terms", lambda *args: None)
        exact = _outcome(text)
    assert _outcome(text) == exact


@pytest.mark.parametrize(
    "stmt, scanned",
    [
        ("(-1.5-2e-3i)*X^2*Y + 2i*Z - 3 + X", True),
        (" - ( 0.25 + 1i ) * X ^ 0 * Y\t+ Z", True),
        ("1/4*X", True),
        ("-64/73*X^2*Y", True),
        ("(1e-400+2i)*X", False),    # underflow: the exact path keeps its sign
        ("1e400*X", False),          # overflow: the exact path reports it
        ("X + 2*X", False),          # a repeated monomial needs an exact sum
        ("X/2", False),
        ("X/4", False),
        ("1/2i*X", False),           # 1/(2i)
        ("0.5/3*X", False),          # a decimal over an integer
        ("1/0*X", False),            # the exact path reports the zero denominator
        ("1/4/2*X", False),
        pytest.param("9" * 400 + "/7*X", False, id="400-digit-ratio-overflows"),
        pytest.param("1" * 4301 + "*X", False, id="4301-digit-literal"),
        ("sqrt(2)*X", False),
        ("(X+Y)^2", False),
        ("2*W", False),              # unknown identifier
        ("2 X", False),
        ("", False),
    ],
)
def test_term_scanner_selection(stmt, scanned):
    got = polycore._scan_terms(stmt, {"X": 0, "Y": 1, "Z": 2}, {"": (0, 0, 0)})
    assert (got is not None) == scanned


def test_term_scanner_reads_the_benchmark_format(monkeypatch):
    gen = perfbench_module("gen")
    polys = gen.planted_system(6, 3, np.random.default_rng(5))

    def refuse(*args):
        raise AssertionError("statement left the term scanner")

    monkeypatch.setattr(exactparse, "_tokenize", refuse)
    parsed = parse_system(gen.system_text(polys))
    assert [p.terms for p in parsed.polys] == [Poly(6, t).terms for t in polys]


def test_parser_imports_and_parses_on_the_oldest_supported_python(tmp_path):
    # pyproject.toml allows Python 3.10; a regex feature of 3.11 once broke it
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("no python3.10 on PATH")
    src = os.path.dirname(os.path.dirname(polycore.__file__))
    # PYENV_VERSION lets a pyenv shim pick its 3.10 install; others ignore it
    env = dict(os.environ, PYENV_VERSION="3.10", PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                           capture_output=True, text=True, env=env)
    if probe.returncode or probe.stdout.strip() != "(3, 10)":
        pytest.skip("python3.10 on PATH does not run: %s" % probe.stderr.strip()[-200:])
    # the parser needs no numpy, and a 3.10 install may lack it
    (tmp_path / "numpy.py").write_text("ndarray = object\n")
    texts = [EX_DOUBLE, EX_TRIPLE, "vars: X Y\nf: (0.5-2e-3i)*X^2*Y - 1i*Y\ng: 2*X + Y^3"]
    code = (
        "import json, sys, mzero.exactparse, mzero.polycore as pc\n"
        "print(json.dumps([[[list(m), c.real.hex(), c.imag.hex()] for m, c in p.terms.items()]"
        " for text in sys.argv[1:] for p in pc.parse_system(text).polys]))"
    )
    proc = subprocess.run([exe, "-c", code, *texts], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = [
        [[list(m), c.real.hex(), c.imag.hex()] for m, c in p.terms.items()]
        for text in texts
        for p in parse_system(text).polys
    ]
    assert json.loads(proc.stdout) == expected


# ---------------------------------------------------------------------------
# evaluation and derivatives


def _hand_partial(poly, j):
    """Differentiate a Poly along variable j by direct term bookkeeping."""
    out = {}
    for mono, c in poly.terms.items():
        if mono[j] == 0:
            continue
        lowered = list(mono)
        lowered[j] -= 1
        out[tuple(lowered)] = out.get(tuple(lowered), 0j) + c * mono[j]
    return Poly(poly.nvars, out)


def _value(poly, x):
    """poly(x), as the system of that one polynomial evaluates it."""
    return PolySystem([poly]).eval_at(x)[0]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 7) for k in range(1, 6)])
def test_symmetric_layout_matches_itertools(n, k):
    combos = list(itertools.combinations_with_replacement(range(n), k))
    alphas, rows, weights = polycore.symmetric_layout(n, k)
    assert alphas.tolist() == [[c.count(j) for j in range(n)] for c in combos]
    index = polycore._dense_index(n, k)
    assert index.shape == (n,) * k
    row = {c: r for r, c in enumerate(combos)}
    for idx in itertools.product(range(n), repeat=k):
        assert index[idx] == row[tuple(sorted(idx))]
    # the compact unfolding: per sorted (k-1)-tuple, the row of each of its
    # extensions by one index, weighted by the root of its permutation count
    lower = list(itertools.combinations_with_replacement(range(n), k - 1))
    assert rows.shape == (len(lower), n) and weights.shape == (len(lower),)
    for b, beta in enumerate(lower):
        assert weights[b] ** 2 == pytest.approx(len(set(itertools.permutations(beta))), rel=1e-15)
        for j in range(n):
            assert rows[b, j] == row[tuple(sorted(beta + (j,)))]


def test_dense_derivative_tensor_refused_above_the_limit():
    # 2^19 dense entries a polynomial, 20 distinct ones
    sys_ = parse_system("vars: X1 X2\nf1: X2 + X1^19\nf2: X1^2\n")
    with pytest.raises(MathDomainError, match="524288 entries per polynomial"):
        sys_.derivative_tensor(np.zeros(2), 19)
    assert len(polycore.symmetric_layout(2, 19)[0]) == 20


def test_eval_matches_direct():
    sys_ = parse_system(EX_DOUBLE)
    x = np.array([0.3 + 0.1j, -0.2])
    vals = sys_.eval_at(x)
    f1 = x[0] ** 2 - 0.25 * x[0] - 0.5 * x[1]
    f2 = 0.5 * x[0] * x[1]
    assert np.allclose(vals, [f1, f2], atol=1e-15)


def test_partial_at_matches_hand_derivative():
    rng = np.random.default_rng(21)
    sys_ = parse_system(EX_TRIPLE)
    f2 = sys_.polys[1]
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    dd = _hand_partial(_hand_partial(f2, 0), 1)
    assert f2.partial_at((1, 1), x) == pytest.approx(_value(dd, x), rel=1e-12)
    ddd = _hand_partial(dd, 0)
    assert f2.partial_at((2, 1), x) == pytest.approx(_value(ddd, x), rel=1e-12)


def test_jacobian_matches_hand_derivative():
    rng = np.random.default_rng(22)
    sys_ = parse_system(EX_TRIPLE)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    J = sys_.jacobian(x)
    for i, p in enumerate(sys_.polys):
        for j in range(2):
            assert J[i, j] == pytest.approx(_value(_hand_partial(p, j), x), rel=1e-12)


def test_derivative_tensor_symmetric_and_consistent():
    rng = np.random.default_rng(23)
    sys_ = parse_system(EX_TRIPLE)
    x = rng.normal(size=2)
    T = sys_.derivative_tensor(x, 3)
    assert np.allclose(T, np.swapaxes(T, 1, 2), atol=1e-12)
    assert np.allclose(T, np.swapaxes(T, 2, 3), atol=1e-12)
    # entry (i, alpha) carries the raw mixed partial
    f2 = sys_.polys[1]
    ref = _value(_hand_partial(_hand_partial(_hand_partial(f2, 0), 0), 1), x)
    assert T[1, 0, 0, 1] == pytest.approx(ref, rel=1e-12)


def test_taylor_identity_on_binomials():
    # the scaled functionals are dual to the shifted monomial basis
    x = np.array([0.4, -0.7 + 0.2j])
    for beta in [(1, 0), (0, 2), (2, 1), (1, 2)]:
        # (X - x)^beta, the monomial X^beta moved to x
        p = PolySystem([Poly(2, {beta: 1.0})]).shift(-x)
        for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]:
            got = DualFunctional(2, {alpha: 1.0}).apply(p, x)[0]
            want = 1.0 if alpha == beta else 0.0
            assert got == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# the compiled kernel against the literal definition


def _literal_partial(terms, alpha, x):
    """d^alpha of sum_e c_e X^e, term by term from the definition
    d^a/dX^a X^e = e!/(e-a)! X^(e-a); Python gives 0j ** 0 == 1."""
    total = 0j
    for mono, c in terms.items():
        v = c
        for e, a, xj in zip(mono, alpha, x):
            v *= math.perm(e, a) * xj ** (e - a) if e >= a else 0
        total += v
    return total


def _entry(T, i, alpha):
    """Raw partial d^alpha f_i read from a symmetric derivative tensor."""
    return T[(i, *(j for j, a in enumerate(alpha) for _ in range(a)))]


def _assert_literal(poly, alpha, x, got):
    want = _literal_partial(poly.terms, alpha, x)
    # bound on the summed term magnitudes, the scale of rounding errors
    size = _literal_partial({m: abs(c) for m, c in poly.terms.items()}, alpha, abs(x))
    assert abs(got - want) <= 1e-12 * abs(size) + 1e-15


_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_coord = st.one_of(st.just(0j), st.sampled_from([1.0, -0.5 + 1.5j]), _coeff)


@st.composite
def sparse_systems(draw):
    """Square systems with up to five terms per equation (possibly none,
    possibly only a constant) and a point that often has zero entries."""
    n = draw(st.integers(min_value=1, max_value=3))
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    terms = st.dictionaries(monos, _coeff, max_size=5)
    polys = [Poly(n, draw(terms)) for _ in range(n)]
    x = draw(st.lists(_coord, min_size=n, max_size=n))
    return PolySystem(polys), np.array(x, dtype=complex)


def _check_against_literal(sys_, x):
    n = sys_.nvars
    deg = sys_.max_degree()
    for k in range(deg + 2):
        alphas = monomials(n, k)
        got = sys_.partials(alphas, x)
        assert got.shape == (sys_.n, len(alphas))
        for i, p in enumerate(sys_.polys):
            for col, alpha in enumerate(alphas):
                _assert_literal(p, alpha, x, got[i, col])
        if k > deg:
            assert np.all(got == 0)
        if k == 0:
            assert np.array_equal(sys_.eval_at(x), got[:, 0])
            continue
        T = sys_.derivative_tensor(x, k)
        assert T.shape == (sys_.n,) + (n,) * k
        # adjacent transpositions generate every permutation of the axes
        for ax in range(1, k):
            assert np.array_equal(T, np.swapaxes(T, ax, ax + 1))
        for i, p in enumerate(sys_.polys):
            for alpha in alphas:
                _assert_literal(p, alpha, x, _entry(T, i, alpha))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_systems())
def test_kernel_partials_and_tensors_match_literal_definition(case):
    sys_, x = case
    _check_against_literal(sys_, x)
    J = sys_.jacobian(x)
    for i, p in enumerate(sys_.polys):
        _assert_literal(p, (0,) * sys_.nvars, x, _value(p, x))
        for j in range(sys_.nvars):
            e = tuple(int(i == j) for i in range(sys_.nvars))
            _assert_literal(p, e, x, J[i, j])
            _assert_literal(p, e, x, p.partial_at(e, x))


def test_kernel_blocks_give_the_same_partials(monkeypatch):
    sys_ = parse_system(EX_TRIPLE)
    x = np.array([0.3 - 0.2j, 0.7])
    whole = sys_.derivative_tensor(x, 3)
    # at most one multi-index per block: every column goes through its own block
    monkeypatch.setattr(polycore, "_BLOCK", 1)
    blocked = PolySystem(sys_.polys).derivative_tensor(x, 3)
    assert np.allclose(blocked, whole, rtol=1e-14, atol=0)


def test_kernel_constant_and_zero_polynomials():
    const = Poly(2, {(0, 0): 3 - 1j})
    zero = Poly(2)
    sys_ = PolySystem([const, zero])
    for x in (np.zeros(2), np.array([0.5, -2j])):
        _check_against_literal(sys_, x)
        assert np.array_equal(sys_.eval_at(x), [3 - 1j, 0])
        assert np.all(sys_.jacobian(x) == 0)
        assert np.all(sys_.derivative_tensor(x, 2) == 0)
    assert _value(zero, np.ones(2)) == 0
    T = PolySystem([zero, zero]).derivative_tensor(np.ones(2), 3)
    assert T.shape == (2, 2, 2, 2) and not T.any()


def test_zero_to_the_zero_is_one():
    # X^2 * Y: every partial that consumes all of Y's degree sees Y^0 = 1
    p = Poly(2, {(2, 1): 1.0})
    x = np.zeros(2, dtype=complex)
    assert p.partial_at((2, 1), x) == 2.0
    assert p.partial_at((1, 1), x) == 0.0
    assert _value(p, np.array([3.0, 0.0])) == 0.0


def test_apply_functional_batches_all_multi_indices():
    sys_ = parse_system(EX_TRIPLE)
    x = np.array([0.3 - 0.2j, 0.7])
    coeffs = {(0, 0): 2.0, (1, 0): -1j, (2, 1): 0.5, (0, 3): 4.0}
    functional = DualFunctional(2, coeffs)
    got = functional.apply(sys_, x)
    for i, p in enumerate(sys_.polys):
        want = sum(
            c * _literal_partial(p.terms, a, x) / math.prod(map(math.factorial, a))
            for a, c in coeffs.items()
        )
        assert got[i] == pytest.approx(want, rel=1e-13)
        assert functional.apply(PolySystem([p]), x)[0] == pytest.approx(want, rel=1e-13)
    assert np.array_equal(DualFunctional(2).apply(sys_, x), np.zeros(2))


@pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), (1, 2), ()])
def test_wrong_point_shape_raises(shape):
    sys_ = parse_system(EX_TRIPLE)
    x = np.zeros(shape, dtype=complex)
    for call in (
        lambda: sys_.eval_at(x),
        lambda: sys_.jacobian(x),
        lambda: sys_.partials_vector((1, 0), x),
        lambda: sys_.derivative_tensor(x, 2),
        lambda: sys_.partials([(0, 0)], x),
        lambda: sys_.polys[0].partial_at((1, 1), x),
    ):
        with pytest.raises(ValueError):
            call()


def test_multi_index_length_must_match():
    sys_ = parse_system(EX_TRIPLE)
    with pytest.raises(ValueError):
        sys_.partials([(1, 0, 0)], np.zeros(2))


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(small, min_size=6, max_size=6), st.lists(small, min_size=2, max_size=2))
def test_shift_round_trip(coeffs, point):
    p = Poly(2, {(2, 0): coeffs[0], (1, 1): coeffs[1], (0, 2): coeffs[2],
                 (1, 0): coeffs[3], (0, 1): coeffs[4], (0, 0): coeffs[5]})
    x = np.array(point, dtype=complex)
    back = PolySystem([p]).shift(x).shift(-x).polys[0]
    for mono in p.terms:
        assert back.terms.get(mono, 0.0) == pytest.approx(p.terms[mono], abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(small, min_size=6, max_size=6),
       st.lists(small, min_size=2, max_size=2),
       st.lists(small, min_size=2, max_size=2))
def test_shift_evaluates_at_offset(coeffs, xs, ys):
    p = Poly(2, {(2, 0): coeffs[0], (1, 1): coeffs[1], (0, 2): coeffs[2],
                 (1, 0): coeffs[3], (0, 1): coeffs[4], (0, 0): coeffs[5]})
    x = np.array(xs, dtype=complex)
    y = np.array(ys, dtype=complex)
    shifted = PolySystem([p]).shift(x).polys[0]
    assert _value(shifted, y) == pytest.approx(_value(p, y + x), abs=1e-9)


def test_shift_basepoint_moves_zero():
    sys_ = parse_system(EX_DOUBLE)
    moved = sys_.shift(np.array([0.25, 0.0]))
    # (1/4, 0) is a zero of the original, so the origin is one of the shifted
    assert np.allclose(moved.eval_at(np.zeros(2)), 0.0, atol=1e-15)


def _reference_expansion(terms, base, n):
    """Term dict of terms with variable j replaced by the form base(j), in
    the order of operations shift and materialize keep: terms by degree,
    then exponent tuple; each power built once by squaring; exact zeros
    dropped."""
    def mul(a, b):
        out = {}
        for (m1, c1), (m2, c2) in itertools.product(a.items(), b.items()):
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, 0j) + c1 * c2
        return {m: c for m, c in out.items() if c != 0}

    out, cache = {}, {}
    for mono, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        term = {(0,) * n: c}
        for j, e in enumerate(mono):
            if e and (j, e) not in cache:
                power, form, k = {(0,) * n: 1 + 0j}, base(j), e
                while k:
                    if k & 1:
                        power = mul(power, form)
                    form = mul(form, form)
                    k >>= 1
                cache[j, e] = power
            if e:
                term = mul(term, cache[j, e])
        for m, t in term.items():
            out[m] = out.get(m, 0j) + t
            if out[m] == 0:
                del out[m]
    return out


@pytest.mark.parametrize("case", range(60))
def test_substitution_matches_the_reference_expansion(case):
    rng = np.random.default_rng(case)
    n = 1 + case % 3
    p = Poly(n, {tuple(rng.integers(0, 4, size=n)): complex(*rng.normal(size=2))
                 for _ in range(6)})
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    if case % 2:
        # one polynomial in a rotated view: conj(u) * p(W @ Y)
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        got = unitary_pullback(PolySystem([p]), [[u]], W).materialize()
        want = _reference_expansion(p.terms, lambda b: Poly(n, dict(zip(unit, W[b]))).terms, n)
        want = {m: 0j + c * u.conjugate() for m, c in want.items() if c * u.conjugate() != 0}
    else:
        # real and negated coordinates give zero imaginary parts of either sign
        x = -np.asarray(rng.normal(size=n) + 1j * rng.normal(size=n) * (case % 4 == 0))
        got = PolySystem([p]).shift(x)
        want = _reference_expansion(
            p.terms, lambda j: Poly(n, {unit[j]: 1.0, (0,) * n: x[j]}).terms, n)
    assert _bits(got) == _bits(PolySystem([Poly(n, want)]))


def test_subs_linear_evaluates_through_matrix():
    rng = np.random.default_rng(24)
    sys_ = parse_system(EX_TRIPLE)
    W = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    flat = unitary_pullback(sys_, np.eye(2), W).materialize()
    for p, g in zip(sys_.polys, flat.polys):
        assert _value(g, y) == pytest.approx(_value(p, W @ y), rel=1e-12)


# ---------------------------------------------------------------------------
# rotated views


def test_frame_matches_materialized():
    rng = np.random.default_rng(25)
    sys_ = parse_system(EX_TRIPLE)
    U = random_unitary(2, rng)
    W = random_unitary(2, rng)
    frame = unitary_pullback(sys_, U, W)
    flat = frame.materialize()
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(frame.eval_at(y), flat.eval_at(y), atol=1e-12)
    assert np.allclose(frame.jacobian(y), flat.jacobian(y), atol=1e-12)
    T_frame = frame.derivative_tensor(y, 3)
    T_flat = flat.derivative_tensor(y, 3)
    assert np.allclose(T_frame, T_flat, atol=1e-10)


def test_frames_compose():
    rng = np.random.default_rng(27)
    sys_ = parse_system(EX_DOUBLE)
    U1, W1 = random_unitary(2, rng), random_unitary(2, rng)
    U2, W2 = random_unitary(2, rng), random_unitary(2, rng)
    once = unitary_pullback(unitary_pullback(sys_, U1, W1), U2, W2)
    twice = unitary_pullback(sys_, U1 @ U2, W1 @ W2)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(once.eval_at(y), twice.eval_at(y), atol=1e-13)
    assert once.system is sys_


def test_partials_vector_through_frame():
    rng = np.random.default_rng(28)
    sys_ = parse_system(EX_TRIPLE)
    U = random_unitary(2, rng)
    W = random_unitary(2, rng)
    frame = unitary_pullback(sys_, U, W)
    flat = frame.materialize()
    y = np.array([0.1, -0.2 + 0.05j])
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]:
        got = frame.partials_vector(alpha, y)
        want = np.array([p.partial_at(alpha, y) for p in flat.polys])
        assert np.allclose(got, want, atol=1e-10)


def test_frame_partials_batch_mixes_orders():
    # one batch of mixed orders reads exactly the entries of each order's
    # contracted tensor, and matches the expanded system
    rng = np.random.default_rng(29)
    sys_ = parse_system("vars: X Y Z\nf: X^2*Y + Z^3 - X\ng: Y*Z^2 + X*Y\nh: X^3 + Y^2*Z")
    frame = unitary_pullback(sys_, random_unitary(3, rng), random_unitary(3, rng))
    flat = frame.materialize()
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    alphas = [(0, 0, 1), (2, 1, 0), (0, 0, 0), (1, 0, 0), (0, 1, 2), (1, 1, 0)]
    got = frame.partials(alphas, y)
    assert got.shape == (3, len(alphas))
    for col, alpha in enumerate(alphas):
        k = sum(alpha)
        if k == 0:
            want = frame.eval_at(y)
        else:
            T = frame.derivative_tensor(y, k)
            want = np.array([_entry(T, i, alpha) for i in range(3)])
        assert np.array_equal(got[:, col], want)
    assert np.allclose(got, flat.partials(alphas, y), atol=1e-10)


def test_curve_taylor_matches_the_sampled_curve():
    # f(x + A[0] t + A[1] t^2) is a polynomial in t of degree at most 6
    # here; sampled at 8 roots of unity, its coefficients are the DFT
    rng = np.random.default_rng(30)
    sys_ = parse_system("vars: X Y Z\nf: X^2*Y + Z^3 - X\ng: Y*Z^2 + X*Y\nh: X^3 + Y^2*Z + 2")
    frame = unitary_pullback(sys_, random_unitary(3, rng), random_unitary(3, rng))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    A = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    t = np.exp(2j * np.pi * np.arange(8) / 8)
    for source in (sys_, frame):
        samples = np.array([source.eval_at(x + A[0] * s + A[1] * s**2) for s in t])
        want = np.fft.fft(samples, axis=0).T / 8
        got = source.curve_taylor(x, A, 7)
        assert got.shape == (3, 8)
        assert np.allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        # a row of A past t^k cannot reach it
        assert np.allclose(source.curve_taylor(x, A, 1), got[:, :2], rtol=1e-15, atol=0)
    empty = PolySystem([Poly(2, {}), Poly(2, {})]).curve_taylor(np.ones(2), [[1, 2]], 3)
    assert empty.shape == (2, 4) and not empty.any()


def test_system_shift_composition():
    sys_ = parse_system(EX_TRIPLE)
    a = np.array([0.1, 0.2])
    b = np.array([-0.05, 0.15])
    once = sys_.shift(a).shift(b)
    both = sys_.shift(a + b)
    y = np.array([0.3, -0.4])
    assert np.allclose(once.eval_at(y), both.eval_at(y), atol=1e-12)


def test_a_large_point_keeps_exact_zeros_and_refuses_overflow():
    # X1^2 overflows at X1 = 1e200, yet its partial in X2 is exactly zero,
    # and no NaN reaches f2's row through its zero coefficient for X1^2
    system = parse_system("vars: X1 X2; f1: X1^2; f2: X2")
    x = np.array([1e200, 0])
    assert np.array_equal(system.jacobian(x), [[2e200, 0], [0, 1]])
    with pytest.raises(MathDomainError, match="overflows"):
        system.eval_at(x)
    with pytest.raises(MathDomainError, match="overflows"):
        system.curve_taylor(x, [[0, 1]], 2)

"""Exact parser for the statements the term scanner in `polycore` declines.

It works over complex rationals held as three ints, (re + im*i)/den in
lowest terms, so that `(1/3 + 1/6)*X` or `1e-20*X + X - X` loses nothing
before each coefficient is rounded once, by int / int, the correctly
rounded quotient; `sqrt` of a non-square is kept to 2^-200 relative. A
decimal literal is its digits over a power of ten, split from its text. A
literal with more than `polycore.MAX_LITERAL_DIGITS` digits, or whose
exponent has more than `polycore.MAX_EXPONENT_DIGITS`, is refused before
its exact value is built, and a power of a sum whose expansion can have
more than `polycore.MAX_POWER_TERMS` terms, or whose exact coefficients
can need more than `polycore.MAX_POWER_BITS` bits, is refused before it is
built, and so is a power of a non-constant expression with an exponent
above `polycore.MAX_DEGREE`, and so are parentheses nested deeper than
`polycore.MAX_NESTING`. An expression becomes one term table, a dict from
exponent tuples to nonzero `_QC` coefficients in the order in which the
monomials first appear: sums accumulate in place and a product with a
single-term factor adds exponent tuples, so parse cost is linear in the
number of terms; only a product of two sums, such as `(8*X1 - 3*X2)^2`,
expands pairwise.
`parse_system` imports this module the first time a statement needs it,
so a system the scanner reads whole never loads it; the module itself
loads neither `fractions` nor `decimal`.
"""

import math
import operator
import re

from .errors import ParseError
from .polycore import (MAX_DEGREE, MAX_EXPONENT_DIGITS, MAX_LITERAL_DIGITS, MAX_NESTING,
                       MAX_POWER_BITS, MAX_POWER_TERMS)


class _QC:
    """Complex rational (re + im*i)/den, three ints in lowest terms with
    den > 0; every operation reduces its result by one gcd."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im=0, den=1):
        g = math.gcd(re, im, den)
        self.re, self.im, self.den = re // g, im // g, den // g

    def __add__(self, other):
        d, f = self.den, other.den
        return _QC(self.re * f + other.re * d, self.im * f + other.im * d, d * f)

    def __neg__(self):
        return _QC(-self.re, -self.im, self.den)

    def __mul__(self, other):
        # a factor of exactly one takes no arithmetic
        if self.re == self.den == 1 and not self.im:
            return other
        if other.re == other.den == 1 and not other.im:
            return self
        a, b, c, d = self.re, self.im, other.re, other.im
        return _QC(a * c - b * d, a * d + b * c, self.den * other.den)

    def __truediv__(self, other):
        # (a + bi)/u / ((c + di)/v) = (a + bi)(c - di) v / (u (c^2 + d^2))
        a, b, c, d, v = self.re, self.im, other.re, other.im, other.den
        return _QC((a * c + b * d) * v, (b * c - a * d) * v, self.den * (c * c + d * d))

    def is_zero(self):
        return not self.re and not self.im

    def is_unit(self):  # 1, -1, i or -i, whose powers repeat with period 4
        return self.den == 1 and not self.re * self.im and abs(self.re + self.im) == 1

    def to_complex(self):
        # int / int is correctly rounded: one rounding of each exact part
        return complex(self.re / self.den, self.im / self.den)


_ONE = _QC(1)


def _literal(text):
    """Exact value of a decimal literal, digits / 10^k read from its text."""
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)
    digits = int(whole + frac)
    return _QC(digits * 10**shift) if shift >= 0 else _QC(digits, 0, 10**-shift)


def _sqrt(c):
    """Square root of a non-negative real p/d, isqrt(p*d*4^s)/(d*2^s) with a
    200-bit or longer root: exact for squares, else within 2^-200 relative."""
    num, den = c.re, c.den
    if num < 0:
        raise ParseError("sqrt of a negative value")
    num / den  # an argument beyond the double range raises OverflowError
    shift = max(0, 201 - (num * den).bit_length() // 2)
    return _QC(math.isqrt(num * den << 2 * shift), 0, den << shift)


def _accumulate(terms, mono, c):
    """Add c to the coefficient of mono in place, dropping it on cancellation."""
    old = terms.get(mono)
    if old is None:
        terms[mono] = c
        return
    s = old + c
    if s.is_zero():
        del terms[mono]
    else:
        terms[mono] = s


def _product(a, b):
    """Product of two term tables.

    When one side has a single term, its exponent tuple is added to each
    term of the other side and one scalar product is taken per term; no
    sum can cancel, and the result keeps the other side's order. Otherwise
    every pair of terms is accumulated.
    """
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        ((m1, c1),) = a.items()
        if any(m1):
            return {tuple(map(operator.add, m1, m)): c1 * c for m, c in b.items()}
        return {m: c1 * c for m, c in b.items()}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _accumulate(out, tuple(map(operator.add, m1, m2)), c1 * c2)
    return out


_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<num>(?P<digits>\d+(?:\.\d+)?)(?:[eE][+-]?(?P<exp>\d+))?)(?P<imag>i(?![A-Za-z0-9_]))?
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^(),])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(stmt):
    """(kind, text) tokens of one expression in a single regex scan; kind
    is num, imag (text without the `i`), ident or op. A literal with more
    than MAX_LITERAL_DIGITS digits, or whose exponent has more than
    MAX_EXPONENT_DIGITS, is refused here."""
    tokens = []
    for m in _TOKEN_RE.finditer(stmt):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                "unexpected character %r in %r" % (m.group(kind), stmt.strip())
            )
        digits = m.group("digits") or ""
        if len(digits) - ("." in digits) > MAX_LITERAL_DIGITS:
            raise ParseError("the literal %s... has more than %d digits"
                             % (digits[:20], MAX_LITERAL_DIGITS))
        if len(m.group("exp") or "") > MAX_EXPONENT_DIGITS:
            raise ParseError("the exponent of %r has more than %d digits"
                             % (m.group("num"), MAX_EXPONENT_DIGITS))
        tokens.append((kind, m.group("num" if kind == "imag" else kind)))
    return tokens


class _ExprParser:
    """Recursive-descent parser from tokens to one term table.

    Every table a parse method returns is new, so `parse_expr` adds each
    further term in place into the table of its first term.
    """

    def __init__(self, tokens, variables):
        self.tokens = tokens + [(None, None)]  # end marker
        self.pos = self.depth = 0
        self.variables = variables
        self.zero = (0,) * len(variables)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op)

    def constant(self, c):
        return {self.zero: c} if not c.is_zero() else {}

    def constant_value(self, terms):
        """The scalar of a table without variable terms, else None."""
        if any(map(any, terms)):
            return None
        return terms.get(self.zero, _QC(0))

    def power(self, base, e):
        """base^e by repeated squaring. A base of t >= 2 terms is refused
        when its expansion can have more than MAX_POWER_TERMS terms, one per
        multiset of e base terms: C(t + e - 1, e). So is a base with a
        coefficient other than 1, -1, i or -i when e times the largest bit
        length of its coefficients' re, im and den is above MAX_POWER_BITS:
        each unit of e can add that many bits to a coefficient of the power.
        Then a base with a non-constant term is refused when e is above
        MAX_DEGREE, since the power's degree is at least e. All three are
        refused before any squaring, and no message prints e, which may
        have more digits than int-to-string conversion allows. For a base
        of 0 or a unit, e is first reduced to min(e, 1) or e % 4."""
        t = len(base)
        # C(t + e - 1, t - 1) > e for t >= 2, so an e capped at the budget
        # decides alike, without a binomial of a huge e
        if t > 1 and math.comb(t + min(e, MAX_POWER_TERMS) - 1, t - 1) > MAX_POWER_TERMS:
            raise ParseError("a power of a %d-term sum can expand to more than %d terms"
                             % (t, MAX_POWER_TERMS))
        bits = max((p.bit_length() for c in base.values() for p in (c.re, c.im, c.den)),
                   default=0)
        if e * bits > MAX_POWER_BITS and not all(c.is_unit() for c in base.values()):
            raise ParseError("a power of a coefficient can need more than %d bits"
                             % MAX_POWER_BITS)
        if e > MAX_DEGREE and any(map(any, base)):
            raise ParseError("a power of a non-constant expression has an exponent above "
                             "the limit of %d" % MAX_DEGREE)
        c = self.constant_value(base)
        if c is not None and (c.is_zero() or c.is_unit()):
            e = min(e, 1) if c.is_zero() else e % 4
        result = {self.zero: _ONE}
        while True:
            if e & 1:
                result = _product(result, base)
            e >>= 1
            if not e:
                return result
            base = _product(base, base)

    def parse(self):
        value = self.parse_expr()
        if self.pos != len(self.tokens) - 1:
            raise ParseError("trailing tokens after expression")
        return value

    def parse_expr(self):
        # every parenthesis, of a group, sqrt or an exponent, recurses through here
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("an expression nests parentheses more than %d deep" % MAX_NESTING)
        terms = self.parse_term()
        while True:
            kind, val = self.tokens[self.pos]
            if kind != "op" or val not in "+-":
                self.depth -= 1
                return terms
            self.pos += 1
            rhs = self.parse_term()
            for mono, c in rhs.items():
                _accumulate(terms, mono, c if val == "+" else -c)

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind, val = self.tokens[self.pos]
            if kind != "op" or val not in "*/":
                return value
            self.pos += 1
            rhs = self.parse_factor()
            if val == "*":
                value = _product(value, rhs)
                continue
            c = self.constant_value(rhs)
            if c is None:
                raise ParseError("division only by constant scalars")
            if c.is_zero():
                raise ParseError("division by zero")
            value = {m: v / c for m, v in value.items()}

    def parse_factor(self):
        # a run of signs is read in a loop, so it takes no recursion
        negate = False
        while self.tokens[self.pos] in (("op", "+"), ("op", "-")):
            negate ^= self.take()[1] == "-"
        value = self.parse_power()
        return {m: -c for m, c in value.items()} if negate else value

    def parse_power(self):
        base = self.parse_atom()
        kind, val = self.tokens[self.pos]
        if kind == "op" and val == "^":
            self.pos += 1
            return self.power(base, self.parse_exponent())
        return base

    def parse_exponent(self):
        kind, val = self.take()
        if kind == "num":
            c = _literal(val)
        elif kind == "op" and val == "(":
            c = self.constant_value(self.parse_expr())
            self.expect_op(")")
        else:
            raise ParseError("expected an exponent after '^'")
        if c is None or c.im or c.den != 1 or c.re < 0:
            raise ParseError("exponent must be a non-negative integer")
        return c.re

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.constant(_literal(val))
        if kind == "imag":
            c = _literal(val)
            return self.constant(_QC(0, c.re, c.den))
        if kind == "ident":
            if val == "sqrt":
                self.expect_op("(")
                c = self.constant_value(self.parse_expr())
                self.expect_op(")")
                if c is None or c.im:
                    raise ParseError("sqrt takes a constant rational argument")
                return self.constant(_sqrt(c))
            if val not in self.variables:
                raise ParseError("unknown identifier %r" % val)
            return {self.variables[val]: _ONE}
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("unexpected token %r" % (val,))


def parse_terms(text, variables):
    """{exponent tuple: complex} of one expression, each coefficient rounded
    once from its exact value; `variables` maps names to unit exponents."""
    terms = _ExprParser(_tokenize(text), variables).parse()
    return {m: c.to_complex() for m, c in terms.items()}

"""Exact parser for the statements the term scanner in `polycore` declines.

It works over rational complex numbers, so that `1/3` or `1e-20*X + X - X`
loses nothing before each coefficient is rounded once; `sqrt` of a
non-square is kept to 2^-200 relative. A literal whose exponent has more
than `polycore.MAX_EXPONENT_DIGITS` digits is refused before its exact
value is built, and a power of a sum whose expansion can have more than
`polycore.MAX_POWER_TERMS` terms, or whose exact coefficients can need more
than `polycore.MAX_POWER_BITS` bits, is refused before it is built. An
expression becomes one term table, a dict from exponent tuples to
nonzero `_QC` coefficients in the order in which the monomials first
appear: sums accumulate in place and a product with a single-term factor
adds exponent tuples, so parse cost is linear in the number of terms;
only a product of two sums, such as `(8*X1 - 3*X2)^2`, expands pairwise.
`parse_system` imports this module the first time a statement
needs it, so a system the scanner reads whole never loads it, `decimal` or
`fractions`.
"""

import math
import operator
import re
from fractions import Fraction

from .errors import ParseError
from .polycore import MAX_EXPONENT_DIGITS, MAX_POWER_BITS, MAX_POWER_TERMS


class _QC:
    """Complex number with exact rational real and imaginary parts; both
    parts are Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _QC(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return _QC(-self.re, -self.im)

    def __mul__(self, other):
        # a factor of exactly one takes no arithmetic
        if self.re == 1 and not self.im:
            return other
        if other.re == 1 and not other.im:
            return self
        a, b, c, d = self.re, self.im, other.re, other.im
        return _QC(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        return _QC((a * c + b * d) / den, (b * c - a * d) / den)

    def is_zero(self):
        return not self.re and not self.im

    def to_complex(self):
        return complex(float(self.re), float(self.im))


_ONE = _QC(Fraction(1))


def _sqrt_fraction(q):
    """Square root of a non-negative Fraction p/d, isqrt(p*d*4^s)/(d*2^s) with
    a 200-bit or longer root: exact for squares, else within 2^-200 relative."""
    if q < 0:
        raise ParseError("sqrt of a negative value")
    float(q)  # an argument beyond the double range raises OverflowError
    num, den = q.numerator, q.denominator
    shift = max(0, 201 - (num * den).bit_length() // 2)
    return Fraction(math.isqrt(num * den << 2 * shift), den << shift)


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
      (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?(?P<exp>\d+))?)(?P<imag>i(?![A-Za-z0-9_]))?
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^(),])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(stmt):
    """(kind, text) tokens of one expression in a single regex scan; kind
    is num, imag (text without the `i`), ident or op. A literal whose
    exponent has more than MAX_EXPONENT_DIGITS digits is refused here."""
    tokens = []
    for m in _TOKEN_RE.finditer(stmt):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                "unexpected character %r in %r" % (m.group(kind), stmt.strip())
            )
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
        self.pos = 0
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
        return terms.get(self.zero, _QC(Fraction(0)))

    def power(self, base, e):
        """base^e by repeated squaring. A base of t >= 2 terms is refused
        when its expansion can have more than MAX_POWER_TERMS terms, one per
        multiset of e base terms: C(t + e - 1, e). So is a base with a
        coefficient other than 1, -1, i or -i when e times the largest bit
        length of its coefficients' parts is above MAX_POWER_BITS: each
        unit of e can add that many bits to a coefficient of the power."""
        t = len(base)
        if t > 1 and math.comb(t + e - 1, t - 1) > MAX_POWER_TERMS:
            raise ParseError("a power of a %d-term sum can expand to more than %d terms"
                             % (t, MAX_POWER_TERMS))
        bits = max((p.bit_length() for c in base.values() for q in (c.re, c.im)
                    for p in (q.numerator, q.denominator)), default=0)
        if e * bits > MAX_POWER_BITS and any(c.re * c.im or abs(c.re + c.im) != 1
                                             for c in base.values()):
            raise ParseError("a power ^%d of a coefficient can need more than %d bits"
                             % (e, MAX_POWER_BITS))
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
        terms = self.parse_term()
        while True:
            kind, val = self.tokens[self.pos]
            if kind != "op" or val not in "+-":
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
        kind, val = self.tokens[self.pos]
        if kind == "op" and val in "+-":
            self.pos += 1
            inner = self.parse_factor()
            return inner if val == "+" else {m: -c for m, c in inner.items()}
        return self.parse_power()

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
            q = Fraction(val)
        elif kind == "op" and val == "(":
            c = self.constant_value(self.parse_expr())
            self.expect_op(")")
            if c is None or c.im:
                raise ParseError("exponent must be a non-negative integer")
            q = c.re
        else:
            raise ParseError("expected an exponent after '^'")
        if q.denominator != 1 or q < 0:
            raise ParseError("exponent must be a non-negative integer")
        return int(q)

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.constant(_QC(Fraction(val)))
        if kind == "imag":
            return self.constant(_QC(Fraction(0), Fraction(val)))
        if kind == "ident":
            if val == "sqrt":
                self.expect_op("(")
                c = self.constant_value(self.parse_expr())
                self.expect_op(")")
                if c is None or c.im:
                    raise ParseError("sqrt takes a constant rational argument")
                return self.constant(_QC(_sqrt_fraction(c.re)))
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

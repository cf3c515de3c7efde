"""Sparse complex polynomials, one compiled evaluation kernel, and unitary
pullbacks.

A system is a square list of polynomials in declared variables. Points and
coefficients are complex doubles once parsed. A statement of distinct
monomials with signed decimal, `<num>i` or `(<num>±<num>i)` coefficients is
read by one regex match per term, about 3 us a term; float() of a literal is
the correctly rounded double that the exact path's one final rounding also
gives. Other statements go to the exact parser (35-50 us a term), which works
over rational complex numbers so that `1/3` or `1e-20*X + X - X` loses nothing
before each coefficient is rounded once; `sqrt` of a non-square is kept to
2^-200 relative. Each equation becomes one term table: sums accumulate in
place and a product with a single-term factor adds exponent tuples, so parse
cost is linear in the number of terms; only a product of two sums, such as
`(8*X1 - 3*X2)^2`, expands pairwise. Terms keep the order in which their
monomials first appear (a term that cancels and comes back counts as new).

Multi-indices are plain tuples of non-negative ints, one entry per
variable. Every evaluation goes through one kernel: on first use a
`PolySystem` compiles into an exponent matrix E (T x n, the union of its
monomials) and a coefficient matrix C (m x T), and `partials(alphas, x)`
returns the m x K matrix of raw partials d^alpha f_i(x) (without the
1/alpha! scaling) for a batch of K multi-indices. Values, Jacobians,
derivative tensors and dual functionals are slices of that one call.
`derivative_tensor` evaluates each sorted index tuple once and spreads the
result over the symmetric array; `CTensor.scaled()` divides out k! when a
Taylor coefficient is wanted.

A point in n variables must have shape (n,); any other shape raises
ValueError. A system compiles once, so edits to its polynomials' terms
after the first evaluation are not seen.
"""

import functools
import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import ParseError

# ---------------------------------------------------------------------------
# runtime polynomial types


class Poly:
    """Sparse polynomial with complex coefficients.

    terms maps exponent tuples to nonzero complex coefficients. All
    arithmetic returns new objects; instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[mono] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: complex(c)})

    @classmethod
    def variable(cls, nvars, j):
        mono = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, {mono: 1.0 + 0j})

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0j) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.nvars, out)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = complex(other)
            return Poly(self.nvars, {m: v * c for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0j) + c1 * c2
        return Poly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def pow_int(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.constant(self.nvars, 1.0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def partials(self, alphas, x):
        """Raw partials d^alpha f(x) as a vector, one entry per multi-index."""
        return _Kernel([self], self.nvars).partials(alphas, x)[0]

    def eval_at(self, x):
        return complex(self.partials([(0,) * self.nvars], x)[0])

    def partial_at(self, alpha, x):
        """Raw partial derivative d^alpha f evaluated at x (no factorials)."""
        return complex(self.partials([alpha], x)[0])

    def shift(self, x):
        """Polynomial g with g(Y) = f(Y + x), expanded exactly in doubles."""
        x = np.asarray(x, dtype=complex)
        out = Poly.constant(self.nvars, 0.0)
        cache = {}
        for mono, c in self.sorted_terms():
            term = Poly.constant(self.nvars, c)
            for j, e in enumerate(mono):
                if e == 0:
                    continue
                key = (j, e)
                if key not in cache:
                    base = Poly(
                        self.nvars,
                        {
                            tuple(1 if i == j else 0 for i in range(self.nvars)): 1.0,
                            (0,) * self.nvars: x[j],
                        },
                    )
                    cache[key] = base.pow_int(e)
                term = term * cache[key]
            out = out + term
        return out

    def subs_linear(self, W):
        """Polynomial g with g(Y) = f(W @ Y) for a square matrix W."""
        W = np.asarray(W, dtype=complex)
        n = self.nvars
        if W.shape != (n, n):
            raise ValueError("substitution matrix has wrong shape")
        forms = [
            Poly(n, {tuple(1 if i == j else 0 for i in range(n)): W[b, j] for j in range(n)})
            for b in range(n)
        ]
        out = Poly.constant(n, 0.0)
        cache = {}
        for mono, c in self.sorted_terms():
            term = Poly.constant(n, c)
            for b, e in enumerate(mono):
                if e == 0:
                    continue
                key = (b, e)
                if key not in cache:
                    cache[key] = forms[b].pow_int(e)
                term = term * cache[key]
            out = out + term
        return out

    def __repr__(self):
        return "Poly(nvars=%d, nterms=%d, degree=%d)" % (
            self.nvars,
            len(self.terms),
            self.degree(),
        )


@dataclass
class CTensor:
    """Raw derivative tensor of order k, shape (m, n, ..., n)."""

    order: int
    array: np.ndarray

    def scaled(self):
        """Entries divided by k!, the Taylor-coefficient normalization."""
        return self.array / math.factorial(self.order)

    def entry(self, i, alpha):
        """Raw partial d^alpha f_i read from the symmetric array."""
        idx = []
        for j, a in enumerate(alpha):
            idx.extend([j] * a)
        return self.array[(i, *idx)]


# largest number of entries in one K x T block of the kernel
_BLOCK = 1 << 16


class _Kernel:
    """Polynomials compiled to an exponent matrix E (T x n), the union of
    their monomials, and a coefficient matrix C (m x T)."""

    def __init__(self, polys, nvars):
        monos = sorted(set().union(*(p.terms for p in polys)))
        column = {mono: t for t, mono in enumerate(monos)}
        self.nvars = nvars
        self.E = np.array(monos, dtype=np.intp).reshape(len(monos), nvars)
        self.C = np.zeros((len(polys), len(monos)), dtype=complex)
        for i, p in enumerate(polys):
            for mono, c in p.terms.items():
                self.C[i, column[mono]] = c

    def partials(self, alphas, x):
        """Raw partials d^alpha f_i(x) as an m x K matrix, one column per
        multi-index.

        Term t contributes C[i, t] * prod_j G[j, alpha_j, E[t, j]], where
        G[j, a, e] = e!/(e-a)! * x_j^(e-a) (zero for a > e) is tabulated
        once per call. The product runs one variable at a time over K x T
        blocks, so no K x T x n array is formed.
        """
        x = np.asarray(x, dtype=complex)
        n = self.nvars
        if x.shape != (n,):
            raise ValueError("point has shape %s, expected (%d,)" % (x.shape, n))
        A = np.asarray(alphas, dtype=np.intp)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError("multi-indices must have %d entries" % n)
        m, T = self.C.shape
        out = np.zeros((m, len(A)), dtype=complex)
        if T == 0:
            return out
        emax, amax = int(self.E.max(initial=0)), int(A.max(initial=0))
        falling = np.array(
            [[math.perm(e, a) for e in range(emax + 1)] for a in range(amax + 1)],
            dtype=float,
        )
        powers = np.ones((n, emax + 1), dtype=complex)
        for e in range(1, emax + 1):
            powers[:, e] = powers[:, e - 1] * x
        lowered = np.maximum(np.arange(emax + 1) - np.arange(amax + 1)[:, None], 0)
        G = falling * powers[:, lowered]
        step = max(1, _BLOCK // T)
        for s in range(0, len(A), step):
            block = A[s : s + step]
            M = np.ones((len(block), T), dtype=complex)
            for j in range(n):
                M *= G[j][block[:, j : j + 1], self.E[:, j]]
            out[:, s : s + step] = self.C @ M.T
        return out


@functools.lru_cache(maxsize=None)
def _symmetric_layout(n, k):
    """Order-k multi-indices, one per sorted index tuple (i1 <= ... <= ik),
    and the (n,)*k map from every index tuple to the row of its sorted
    form. np.unique lists the sorted tuples in lexicographic order, the
    order of `itertools.combinations_with_replacement(range(n), k)`."""
    grid = np.indices((n,) * k).reshape(k, -1).T
    combos, inverse = np.unique(np.sort(grid, axis=1), axis=0, return_inverse=True)
    alphas = (combos[:, :, None] == np.arange(n)).sum(axis=1)
    return alphas, inverse.reshape((n,) * k)


class PolySystem:
    """Square system of polynomials with named variables."""

    def __init__(self, polys, var_names=None, labels=None):
        self.polys = list(polys)
        n = self.polys[0].nvars if self.polys else 0
        for p in self.polys:
            if p.nvars != n:
                raise ValueError("mixed variable counts")
        self.var_names = list(var_names) if var_names else ["X%d" % (i + 1) for i in range(n)]
        self.labels = list(labels) if labels else ["f%d" % (i + 1) for i in range(len(self.polys))]
        self._kernel = None

    @property
    def n(self):
        return len(self.polys)

    @property
    def nvars(self):
        return self.polys[0].nvars if self.polys else 0

    def is_square(self):
        return self.n == self.nvars

    def max_degree(self):
        return max((p.degree() for p in self.polys), default=0)

    def partials(self, alphas, x):
        """Raw partials d^alpha f_i(x) as an m x K matrix, one column per
        multi-index. The system compiles on the first call."""
        if self._kernel is None:
            self._kernel = _Kernel(self.polys, self.nvars)
        return self._kernel.partials(alphas, x)

    def eval_at(self, x):
        return self.partials([(0,) * self.nvars], x)[:, 0]

    def partials_vector(self, alpha, x):
        return self.partials([alpha], x)[:, 0]

    def jacobian(self, x):
        return self.partials(np.eye(self.nvars, dtype=np.intp), x)

    def derivative_tensor(self, x, k):
        """Order-k derivative tensor with raw partials as entries."""
        if k < 1:
            raise ValueError("order must be at least 1")
        alphas, index = _symmetric_layout(self.nvars, k)
        return CTensor(order=k, array=self.partials(alphas, x)[:, index])

    def shift(self, x):
        return PolySystem([p.shift(x) for p in self.polys], self.var_names, self.labels)

    def __repr__(self):
        return "PolySystem(%d polys in %d vars, labels=%r)" % (
            self.n,
            self.nvars,
            self.labels,
        )


class NormalizedFrame:
    """View of a system in rotated coordinates, g(Y) = U^H f(W @ Y).

    Derivatives of g are produced by contracting the derivative tensors of
    the underlying system, so nothing is expanded symbolically unless
    `materialize` is called. Tensor evaluations are cached per base point.
    """

    def __init__(self, system, U, W):
        self.system = system
        self.U = np.asarray(U, dtype=complex)
        self.W = np.asarray(W, dtype=complex)
        n = system.nvars
        if self.U.shape != (system.n, system.n) or self.W.shape != (n, n):
            raise ValueError("frame matrices have wrong shape")
        self._cache = {}

    @property
    def n(self):
        return self.system.n

    @property
    def nvars(self):
        return self.system.nvars

    def max_degree(self):
        return self.system.max_degree()

    def to_frame(self, x):
        """Coordinates of an ambient point x in this frame."""
        return self.W.conj().T @ np.asarray(x, dtype=complex)

    def from_frame(self, y):
        return self.W @ np.asarray(y, dtype=complex)

    def compose(self, U2, W2):
        """Frame of this frame: (U @ U2, W @ W2) over the same base system."""
        return NormalizedFrame(self.system, self.U @ U2, self.W @ W2)

    def eval_at(self, y):
        y = np.asarray(y, dtype=complex)
        return self.U.conj().T @ self.system.eval_at(self.W @ y)

    def jacobian(self, y):
        y = np.asarray(y, dtype=complex)
        J = self.system.jacobian(self.W @ y)
        return self.U.conj().T @ J @ self.W

    def derivative_tensor(self, y, k):
        y = np.asarray(y, dtype=complex)
        key = (y.tobytes(), k)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        T = self.system.derivative_tensor(self.W @ y, k).array
        T = np.tensordot(self.U.conj().T, T, axes=(1, 0))
        for ax in range(1, k + 1):
            T = np.moveaxis(np.tensordot(T, self.W, axes=(ax, 0)), -1, ax)
        out = CTensor(order=k, array=T)
        self._cache[key] = out
        return out

    def partials(self, alphas, y):
        """Raw partials d^alpha g_i(y) as an m x K matrix, one column per
        multi-index, gathered from one contracted tensor per order."""
        n = self.nvars
        A = np.asarray(alphas, dtype=np.intp).reshape(-1, n)
        orders = A.sum(axis=1)
        out = np.empty((self.n, len(A)), dtype=complex)
        for k in set(orders.tolist()):
            cols = np.flatnonzero(orders == k)
            if k == 0:
                out[:, cols] = self.eval_at(y)[:, None]
                continue
            # flat position of each multi-index's sorted index tuple
            C = np.cumsum(A[cols], axis=1)
            flat = sum((C <= t).sum(axis=1) * n ** (k - 1 - t) for t in range(k))
            T = self.derivative_tensor(y, k).array.reshape(self.n, -1)
            out[:, cols] = T[:, flat]
        return out

    def partials_vector(self, alpha, y):
        return self.partials([alpha], y)[:, 0]

    def materialize(self):
        """Expand the rotated system into explicit polynomials."""
        n = self.nvars
        substituted = [p.subs_linear(self.W) for p in self.system.polys]
        Uh = self.U.conj().T
        out = []
        for i in range(self.n):
            g = Poly.constant(n, 0.0)
            for a in range(self.n):
                if Uh[i, a] != 0:
                    g = g + substituted[a] * Uh[i, a]
            out.append(g)
        labels = ["g%d" % (i + 1) for i in range(self.n)]
        return PolySystem(out, self.system.var_names, labels)

    def __repr__(self):
        return "NormalizedFrame(%r)" % (self.system,)


# ---------------------------------------------------------------------------
# parsing
#
# While parsing, a polynomial is a term table: a dict from exponent tuples
# to nonzero _QC coefficients, in the order in which the monomials first
# appear.


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


def _rational(text):
    """Exact value of a decimal literal such as `12`, `0.25` or `1e-300`."""
    return Fraction(*Decimal(text).as_integer_ratio())


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
      (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?P<imag>i(?![A-Za-z0-9_]))?
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^(),])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(stmt):
    """(kind, text) tokens of one expression in a single regex scan; kind
    is num, imag (text without the `i`), ident or op."""
    tokens = []
    for m in _TOKEN_RE.finditer(stmt):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                "unexpected character %r in %r" % (m.group(kind), stmt.strip())
            )
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
        """base^e by repeated squaring."""
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
            q = _rational(val)
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
            return self.constant(_QC(_rational(val)))
        if kind == "imag":
            return self.constant(_QC(Fraction(0), _rational(val)))
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


# One term: a sign, a decimal, `<num>i` or `(<num>±<num>i)` coefficient and
# `*`-joined `name^k` factors, then a sign or the end. Any other character
# matches alone with empty groups, so findall tiles the statement.
_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_MONO = r"[A-Za-z_]\w*(?:\s*\^\s*\d+)?(?:\s*\*\s*[A-Za-z_]\w*(?:\s*\^\s*\d+)?)*"
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(?:\(\s*([+-]?)\s*({0})\s*([+-])\s*({0})i\s*\)|({0})(i?))"
    r"(?:\s*\*\s*({1}))?|({1}))\s*(?=[+-]|\Z)|[\s\S]".format(_NUM, _MONO), re.ASCII)


def _scan_terms(text, index, monos):
    """Term table of one statement read by `_TERM_RE`, or None when it needs
    the exact parser: other syntax, a repeated monomial, an overflowing literal,
    a nonzero `(a±bi)` part that rounds to a signed 0. `monos` caches exponents."""
    found = _TERM_RE.findall(text)
    terms = {}
    for sign, rsign, re_text, isign, im_text, num, imag, mono, bare in found:
        if re_text:
            a, b = float(re_text), float(im_text)
            if not a and _rational(re_text) or not b and _rational(im_text):
                return None
            # 0.0 - x negates without a signed zero, which exact zeros lack
            c = complex(0.0 - a if rsign == "-" else a, 0.0 - b if isign == "-" else b)
        elif num:
            c = complex(0.0, float(num)) if imag else complex(float(num))
        elif bare:
            c, mono = 1 + 0j, bare
        else:
            return None  # a character outside every term
        if sign == "-":
            c = 0j - c
        key = monos.get(mono)
        if key is None:
            exps = list(monos[""])
            for factor in mono.split("*"):
                name, _, e = factor.partition("^")
                j = index.get(name.strip())
                if j is None or len(e) > 9:
                    return None  # unknown name, or a long exponent int() may refuse
                exps[j] += int(e or 1)
            key = monos[mono] = tuple(exps)
        terms[key] = c
    total = sum(terms.values())  # not finite when a literal overflowed
    return terms if len(terms) == len(found) > 0 and not total - total else None


def parse_system(text):
    """Parse a system description into a PolySystem.

    Format, one statement per line (or ';' separated): a `vars:` line
    listing variable names, then `label: expression` lines. `#` starts a
    comment. Expressions use + - * / ^, rational and decimal literals,
    `<number>i` imaginary literals, and `sqrt(<rational>)`. Division is
    only by nonzero constants. The system must be square.
    """
    statements = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for stmt in line.split(";"):
            if stmt.strip():
                statements.append(stmt)
    if not statements:
        raise ParseError("empty system description")

    head = statements[0]
    if ":" not in head:
        raise ParseError("first statement must declare variables with 'vars:'")
    key, rest = head.split(":", 1)
    if key.strip() != "vars":
        raise ParseError("first statement must declare variables with 'vars:'")
    var_names = [v for v in re.split(r"[\s,]+", rest.strip()) if v]
    if not var_names:
        raise ParseError("no variables declared")
    if len(set(var_names)) != len(var_names):
        raise ParseError("duplicate variable names")
    for name in var_names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name == "sqrt":
            raise ParseError("bad variable name %r" % name)
    nvars = len(var_names)
    variables = {
        name: tuple(int(i == j) for i in range(nvars))
        for j, name in enumerate(var_names)
    }
    index = {name: j for j, name in enumerate(var_names)}
    monos = {"": (0,) * nvars}

    labels = []
    polys = []
    for stmt in statements[1:]:
        if ":" not in stmt:
            raise ParseError("expected 'label: expression' in %r" % stmt.strip())
        label, expr_text = stmt.split(":", 1)
        label = label.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
            raise ParseError("bad polynomial label %r" % label)
        if label in labels:
            raise ParseError("duplicate polynomial label %r" % label)
        if not expr_text.strip():
            raise ParseError("empty expression for %r" % label)
        try:
            coeffs = _scan_terms(expr_text, index, monos)
            if coeffs is None:
                terms = _ExprParser(_tokenize(expr_text), variables).parse()
                coeffs = {m: c.to_complex() for m, c in terms.items()}
        except OverflowError:
            raise ParseError("%r has a number too large for a double" % label) from None
        labels.append(label)
        polys.append(Poly(nvars, coeffs))

    system = PolySystem(polys, var_names, labels)
    if not system.is_square():
        raise ParseError(
            "system is not square (%d polynomials, %d variables)"
            % (system.n, system.nvars)
        )
    return system


# ---------------------------------------------------------------------------
# module-level operations


def apply_functional(coeffs, target, x):
    """Apply a dual functional sum_alpha c_alpha (1/alpha!) d^alpha at x.

    `coeffs` maps multi-index tuples to complex weights. `target` may be a
    Poly (returns a scalar) or a system or frame (returns a vector); its
    `partials` evaluates every multi-index in one batch.
    """
    if not coeffs:
        return 0j if isinstance(target, Poly) else np.zeros(target.n, dtype=complex)
    alphas = list(coeffs)
    weights = np.array(
        [coeffs[a] / math.prod(map(math.factorial, a)) for a in alphas], dtype=complex
    )
    return target.partials(alphas, x) @ weights


def unitary_pullback(system, U, W):
    """Rotated view g(Y) = U^H f(W @ Y); frames of frames compose."""
    if isinstance(system, NormalizedFrame):
        return system.compose(U, W)
    return NormalizedFrame(system, U, W)

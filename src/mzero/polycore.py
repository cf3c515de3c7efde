"""Sparse complex polynomials, one compiled evaluation kernel, and unitary
pullbacks.

A system is a square list of polynomials in declared variables. Points and
coefficients are complex doubles once parsed; the parser itself works over
exact rational complex numbers so that input like `sqrt(73)/12` or `1/3`
loses nothing before the final conversion.

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
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError

# ---------------------------------------------------------------------------
# exact scalars used only during parsing


class _QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return _QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _QC(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _QC(-self.re, -self.im)

    def __mul__(self, other):
        return _QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def to_complex(self):
        return complex(float(self.re), float(self.im))


def _sqrt_fraction(q):
    """Square root of a non-negative Fraction, exact for perfect squares."""
    if q < 0:
        raise ParseError("sqrt of a negative value")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return Fraction(math.sqrt(float(q)))


class _QPoly:
    """Polynomial over _QC coefficients, used while parsing expressions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if not c.is_zero():
                    self.terms[mono] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, j):
        mono = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, {mono: _QC(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, _QC(0)) + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return _QPoly(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _QPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, _QC(0)) + c1 * c2
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return _QPoly(self.nvars, out)

    def constant_value(self):
        if any(sum(m) > 0 for m in self.terms):
            return None
        return self.terms.get((0,) * self.nvars, _QC(0))

    def pow_int(self, e):
        result = _QPoly.constant(self.nvars, _QC(1))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


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
        return np.stack([self.partials_vector(a, y) for a in alphas], axis=1)

    def partials_vector(self, alpha, y):
        k = sum(alpha)
        if k == 0:
            return self.eval_at(y)
        T = self.derivative_tensor(y, k)
        return np.array([T.entry(i, alpha) for i in range(self.n)], dtype=complex)

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

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)(?P<imag>i(?![A-Za-z0-9_]))?
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(stmt):
    tokens = []
    pos = 0
    while pos < len(stmt):
        ch = stmt[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(stmt, pos)
        if not m:
            raise ParseError("unexpected character %r in %r" % (ch, stmt.strip()))
        if m.lastgroup in ("num", "imag") or m.group("num"):
            kind = "imag" if m.group("imag") else "num"
            tokens.append((kind, m.group("num")))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, var_index, nvars):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op)

    def parse(self):
        value = self.parse_expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing tokens after expression")
        return value

    def parse_expr(self):
        value = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                rhs = self.parse_term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                rhs = self.parse_factor()
                if val == "*":
                    value = value * rhs
                else:
                    c = rhs.constant_value()
                    if c is None:
                        raise ParseError("division only by constant scalars")
                    if c.is_zero():
                        raise ParseError("division by zero")
                    value = _QPoly(
                        value.nvars, {m: v / c for m, v in value.terms.items()}
                    )
            else:
                return value

    def parse_factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.pos += 1
            inner = self.parse_factor()
            return inner if val == "+" else -inner
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            e = self.parse_exponent()
            return base.pow_int(e)
        return base

    def parse_exponent(self):
        kind, val = self.peek()
        if kind == "num":
            self.pos += 1
            frac = Fraction(val)
            if frac.denominator != 1 or frac < 0:
                raise ParseError("exponent must be a non-negative integer")
            return int(frac)
        if kind == "op" and val == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            c = inner.constant_value()
            if c is None or c.im != 0 or c.re.denominator != 1 or c.re < 0:
                raise ParseError("exponent must be a non-negative integer")
            return int(c.re)
        raise ParseError("expected an exponent after '^'")

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return _QPoly.constant(self.nvars, _QC(Fraction(val)))
        if kind == "imag":
            return _QPoly.constant(self.nvars, _QC(0, Fraction(val)))
        if kind == "ident":
            if val == "sqrt":
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                c = inner.constant_value()
                if c is None or c.im != 0:
                    raise ParseError("sqrt takes a constant rational argument")
                return _QPoly.constant(self.nvars, _QC(_sqrt_fraction(c.re)))
            if val not in self.var_index:
                raise ParseError("unknown identifier %r" % val)
            return _QPoly.variable(self.nvars, self.var_index[val])
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("unexpected token %r" % (val,))


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
    var_index = {name: j for j, name in enumerate(var_names)}
    nvars = len(var_names)

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
        tokens = _tokenize(expr_text)
        if not tokens:
            raise ParseError("empty expression for %r" % label)
        qpoly = _ExprParser(tokens, var_index, nvars).parse()
        labels.append(label)
        polys.append(
            Poly(nvars, {m: c.to_complex() for m, c in qpoly.terms.items()})
        )

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


def shift_basepoint(system, x):
    """System in local coordinates centered at x, g(Y) = f(Y + x)."""
    return system.shift(x)

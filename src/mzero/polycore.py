"""Sparse complex polynomials, one compiled evaluation kernel, and the
term scanner that parses them.

A system is a square list of polynomials in declared variables. Points and
coefficients are complex doubles once parsed. A statement of distinct
monomials with signed decimal, `<int>/<int>`, `<num>i` or `(<num>±<num>i)`
coefficients is read by one regex match per term, about 3 us a term;
float() of a literal and int / int of a ratio are the correctly rounded
doubles that the exact path's one final rounding also gives. Other
statements go to the exact parser in `mzero.exactparse` (about 30 us a term,
integer rational arithmetic), imported on the first statement that needs
it. Terms keep the order in which their monomials first appear (a term that
cancels and comes back counts as new).

Multi-indices are plain tuples of non-negative ints, one entry per
variable. Every evaluation goes through one kernel: on first use a
`PolySystem` compiles into an exponent matrix E (T x n, the union of its
monomials) and a coefficient matrix C (m x T), and `partials(alphas, x)`
returns the m x K matrix of raw partials d^alpha f_i(x) (without the
1/alpha! scaling) for a batch of K multi-indices. Values, Jacobians,
derivatives and dual functionals are slices of that one call. An order-k
derivative has C(n+k-1, k) distinct entries, listed by `symmetric_layout`
with the compact unfolding its norms read; `derivative_tensor` spreads
them over a dense (m, n, ..., n) array, which no command forms. The
kernel's second entry point, `curve_taylor(x, A, k)`, returns the Taylor
coefficients up to t^k of the system along a polynomial curve through x,
by truncated power series over the same E and C; the dual chain reads its
values there.

Rotated views (`NormalizedFrame`, `unitary_pullback`) and the expansion
behind `shift` live in `mzero.frames`, imported where used;
`NormalizedFrame` is re-exported here on first use (PEP 562), where the
traced benchmark reads it.

A point in n variables must have shape (n,); any other shape raises
ValueError. A value or partial that overflows a double raises
MathDomainError; one that is exactly zero stays zero even where a power
of a coordinate overflows. A system compiles once, so edits to its
polynomials' terms after the first evaluation are not seen.
"""

import functools
import math
import re
import sys
import numpy as np

from . import _reexport
from .errors import MathDomainError, ParseError

__getattr__ = _reexport(__name__, {"frames": ("NormalizedFrame",)})

# ---------------------------------------------------------------------------
# runtime polynomial types


def _unit(n, j):
    """Exponent tuple of the variable j among n."""
    return tuple(int(i == j) for i in range(n))


class Poly:
    """Sparse polynomial with complex coefficients.

    terms maps exponent tuples to nonzero complex coefficients; instances
    are treated as immutable. A polynomial evaluates as a system of one,
    `PolySystem([p])`; `partial_at` is that call for one partial.
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

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def partial_at(self, alpha, x):
        """Raw partial derivative d^alpha f evaluated at x (no factorials)."""
        return complex(PolySystem([self]).partials([alpha], x)[0, 0])

    def __repr__(self):
        return "Poly(nvars=%d, nterms=%d, degree=%d)" % (
            self.nvars,
            len(self.terms),
            self.degree(),
        )


# largest number of entries in one K x T block of the kernel
_BLOCK = 1 << 16


def _finite(values):
    """values, refused (MathDomainError) when one overflowed a double."""
    if not np.isfinite(values).all():
        raise MathDomainError("the system or a derivative overflows a double at the point")
    return values


def _series_product(a, b):
    """Product of power series stored along the last axis, truncated to the
    length of a; b may be shorter, its missing coefficients zero."""
    out = a * b[..., :1]
    for d in range(1, min(a.shape[-1], b.shape[-1])):
        out[..., d:] += a[..., :-d] * b[..., d : d + 1]
    return out


# largest number of entries per polynomial of a derivative tensor: of its
# C(n+k-1, k) distinct entries, and of its n^k where a dense array is formed
_MAX_TENSOR = 1 << 18


def _refuse_above_limit(size, k, n, what):
    if size > _MAX_TENSOR:
        raise MathDomainError("an order-%d derivative tensor in %d variables has %d %s per "
                              "polynomial, above the limit of %d" % (k, n, size, what, _MAX_TENSOR))


@functools.lru_cache(maxsize=None)
def symmetric_layout(n, k):
    """(alphas, rows, weights): the multi-index of each sorted index tuple of
    order k, in the order of `itertools.combinations_with_replacement`; for
    each order-(k-1) multi-index beta, the rows of beta + e_j in alphas; and
    sqrt((k-1)!/beta!). With P[:, a] the entry at alphas[a], the unfolding
    (P[:, rows] * weights[:, None]).reshape(-1, n) has the singular values
    and Frobenius norm of the dense (m n^(k-1)) x n one. Refused
    (MathDomainError) before allocating when C(n+k-1, k) is above _MAX_TENSOR."""
    _refuse_above_limit(math.comb(n + k - 1, k), k, n, "distinct entries")
    betas = symmetric_layout(n, k - 1)[0] if k > 1 else np.zeros((1, n), dtype=np.intp)
    grown = betas[:, None] + np.eye(n, dtype=np.intp)
    # beta + e_j has as many order-k multi-indices before it as the sum over
    # d < n of C(s_d + d - 1, d), with s_d the sum of its last d entries
    binom = [[math.comb(s + d - 1, d) for s in range(k + 1)] for d in range(1, n)]
    tails = np.cumsum(grown[..., :0:-1], axis=-1)
    rows = np.array(binom, dtype=np.intp).reshape(n - 1, k + 1)[np.arange(n - 1), tails].sum(-1)
    alphas = np.empty((math.comb(n + k - 1, k), n), dtype=np.intp)
    alphas[rows] = grown
    mult = [math.factorial(k - 1) // math.prod(map(math.factorial, b)) for b in betas.tolist()]
    return alphas, rows, np.sqrt(np.array(mult, dtype=float))


@functools.lru_cache(maxsize=None)
def _dense_index(n, k):
    """The (n,)*k map from every index tuple to the row of its multi-index in
    `symmetric_layout(n, k)`, by its rows; refused when n^k is above _MAX_TENSOR."""
    _refuse_above_limit(n**k, k, n, "entries")
    lower = _dense_index(n, k - 1) if k > 1 else np.zeros((), dtype=np.intp)
    return symmetric_layout(n, k)[1][lower[..., None], np.arange(n)]


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

    @property
    def n(self):
        return len(self.polys)

    @property
    def nvars(self):
        return self.polys[0].nvars if self.polys else 0

    def max_degree(self):
        return max((p.degree() for p in self.polys), default=0)

    @functools.cached_property
    def _compiled(self):
        """(E, C): the exponent matrix (T x n) of the union of the
        monomials and the coefficient matrix (m x T), built on the first
        evaluation."""
        monos = sorted(set().union(*(p.terms for p in self.polys)))
        column = {mono: t for t, mono in enumerate(monos)}
        E = np.array(monos, dtype=np.intp).reshape(len(monos), self.nvars)
        C = np.zeros((self.n, len(monos)), dtype=complex)
        for i, p in enumerate(self.polys):
            for mono, c in p.terms.items():
                C[i, column[mono]] = c
        return E, C

    def _point(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.nvars,):
            raise ValueError("point has shape %s, expected (%d,)" % (x.shape, self.nvars))
        return x

    def partials(self, alphas, x):
        """Raw partials d^alpha f_i(x) as an m x K matrix, one column per
        multi-index.

        Term t contributes C[i, t] * prod_j G[j, alpha_j, E[t, j]], where
        G[j, a, e] = e!/(e-a)! * x_j^(e-a) (zero for a > e) is tabulated
        once per call. The product runs one variable at a time over K x T
        blocks, so no K x T x n array is formed.
        """
        x = self._point(x)
        E, C = self._compiled
        n = self.nvars
        A = np.asarray(alphas, dtype=np.intp)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError("multi-indices must have %d entries" % n)
        m, T = C.shape
        out = np.zeros((m, len(A)), dtype=complex)
        if T == 0:
            return out
        emax, amax = int(E.max(initial=0)), int(A.max(initial=0))
        try:
            falling = np.array([[math.perm(e, a) for e in range(emax + 1)]
                                for a in range(amax + 1)], dtype=float)
        except OverflowError:  # a falling factorial above the largest double
            raise MathDomainError("a derivative of the system overflows a double") from None
        with np.errstate(over="ignore", invalid="ignore"):
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
                    M *= G[j][block[:, j : j + 1], E[:, j]]
                out[:, s : s + step] = C @ M.T
                if not np.isfinite(out[:, s : s + step]).all():
                    # an overflowed power times a zero falling factorial is
                    # NaN where the partial of that term is exactly zero
                    M[(block[:, None, :] > E).any(axis=2)] = 0
                    out[:, s : s + step] = _finite(C @ M.T)
        return out

    def curve_taylor(self, x, A, k):
        """Taylor coefficients at t^0..t^k of f_i along x + sum_i A[i] t^(i+1)
        as an m x (k+1) matrix (rows of A past the k-th cannot reach t^k).

        Variable j follows the series x_j + sum_i A[i, j] t^(i+1); its
        powers up to the largest exponent, then per monomial the product of
        the powers its exponents pick, are power series truncated after t^k.
        """
        x = self._point(x)
        E, C = self._compiled
        n = self.nvars
        S = np.vstack([x, np.asarray(A, dtype=complex).reshape(-1, n)[:k]]).T
        P = np.zeros((int(E.max(initial=0)) + 1, n, k + 1), dtype=complex)
        P[0, :, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(1, len(P)):
                P[e] = _series_product(P[e - 1], S)
            M = np.ones((len(E), 1), dtype=complex)
            for j in range(n):
                M = _series_product(P[E[:, j], j], M)
            return _finite(C @ M)

    def eval_at(self, x):
        return self.partials([(0,) * self.nvars], x)[:, 0]

    def partials_vector(self, alpha, x):
        return self.partials([alpha], x)[:, 0]

    def jacobian(self, x):
        return self.partials(np.eye(self.nvars, dtype=np.intp), x)

    def derivative_tensor(self, x, k):
        """Order-k derivative tensor, an (m, n, ..., n) array of raw partials."""
        if k < 1:
            raise ValueError("order must be at least 1")
        index = _dense_index(self.nvars, k)
        return self.partials(symmetric_layout(self.nvars, k)[0], x)[:, index]

    def shift(self, x):
        """System g with g(Y) = f(Y + x), expanded in doubles."""
        from .frames import _expand

        x = np.asarray(x, dtype=complex)
        n, zero = self.nvars, (0,) * self.nvars
        forms = [Poly(n, {_unit(n, j): 1.0, zero: x[j]}).terms for j in range(n)]
        polys = [Poly(n, _expand(p.terms, forms)) for p in self.polys]
        return PolySystem(polys, self.var_names, self.labels)

    def __repr__(self):
        return "PolySystem(%d polys in %d vars, labels=%r)" % (
            self.n,
            self.nvars,
            self.labels,
        )


# ---------------------------------------------------------------------------
# parsing: the term scanner; other statements go to `exactparse`
#
# One term: a sign, a decimal, `<int>/<int>`, `<num>i` or `(<num>±<num>i)`
# coefficient and `*`-joined `name^k` factors, then a sign or the end. The
# first character outside every term matches together with the rest of the
# statement and empty groups, so findall tiles the statement and stops
# there, rather than retrying terms inside a long run of digits. A literal
# with a longer exponent than MAX_EXPONENT_DIGITS, or with more than
# MAX_LITERAL_DIGITS digits, is left to `exactparse`, which refuses it, as
# it refuses a power of a sum whose expansion can have more than
# MAX_POWER_TERMS terms and a power whose exact coefficients can need more
# than MAX_POWER_BITS bits, far beyond a double's range, and a power of a
# non-constant expression with an exponent above MAX_DEGREE, and a nesting
# of parentheses deeper than MAX_NESTING. A statement of
# degree above MAX_DEGREE is refused once read, before the kernel tabulates
# powers up to it.
MAX_EXPONENT_DIGITS = 5
# the longest decimal string int() reads: 4300 digits by default, fewer
# under PYTHONINTMAXSTRDIGITS or -X int_max_str_digits; with no limit (0,
# as on an interpreter without get_int_max_str_digits) it stays 4300
MAX_LITERAL_DIGITS = min(4300, getattr(sys, "get_int_max_str_digits", int)() or 4300)
MAX_POWER_TERMS = 500
MAX_POWER_BITS = 1 << 16
MAX_DEGREE = 1000
MAX_NESTING = 100
_NUM = r"(?![\d.]{%d})\d+(?:\.\d+)?(?:[eE][+-]?\d{1,%d}(?!\d))?" % (
    MAX_LITERAL_DIGITS + 1, MAX_EXPONENT_DIGITS)
_INT = r"\d{1,%d}" % MAX_LITERAL_DIGITS
_MONO = r"[A-Za-z_]\w*(?:\s*\^\s*\d+)?(?:\s*\*\s*[A-Za-z_]\w*(?:\s*\^\s*\d+)?)*"
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:(?:\(\s*([+-]?)\s*({0})\s*([+-])\s*({0})i\s*\)|({2}\s*/\s*{2})"
    r"|({0})(i?))(?:\s*\*\s*({1}))?|({1}))\s*(?=[+-]|\Z)|[\s\S]+".format(_NUM, _MONO, _INT),
    re.ASCII)


def _nonzero(literal):
    """Whether a decimal literal has a nonzero digit before its exponent."""
    return literal.lstrip("0.")[:1].isdigit()


def _is_name(text):
    """Whether text is a variable name or label: an ASCII letter or `_`,
    then ASCII letters, digits and `_`."""
    return text.isascii() and text.isidentifier()


def _scan_terms(text, index, monos):
    """Term table of one statement read by `_TERM_RE`, or None when it needs
    the exact parser: other syntax, a repeated monomial, an overflowing literal
    or ratio, a zero denominator, a nonzero `(a±bi)` part that rounds to a
    signed 0. `monos` caches exponents. int / int is correctly rounded, as is
    the exact parser's one rounding of the same ratio."""
    found = _TERM_RE.findall(text)
    terms = {}
    for sign, rsign, re_text, isign, im_text, ratio, num, imag, mono, bare in found:
        if re_text:
            a, b = float(re_text), float(im_text)
            if not a and _nonzero(re_text) or not b and _nonzero(im_text):
                return None
            # 0.0 - x negates without a signed zero, which exact zeros lack
            c = complex(0.0 - a if rsign == "-" else a, 0.0 - b if isign == "-" else b)
        elif ratio:
            top, bottom = ratio.split("/")
            try:
                c = complex(int(top) / int(bottom))  # int() skips the spaces
            except (ZeroDivisionError, OverflowError):
                return None  # the exact parser names this or another fault
        elif num:
            c = complex(0.0, float(num)) if imag else complex(float(num))
        elif bare:
            c, mono = 1 + 0j, bare
        else:
            return None  # the rest of the statement, from a character outside every term
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
    only by nonzero constants. The system must be square, and no
    polynomial may have degree above MAX_DEGREE.
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
    var_names = rest.replace(",", " ").split()
    if not var_names:
        raise ParseError("no variables declared")
    if len(set(var_names)) != len(var_names):
        raise ParseError("duplicate variable names")
    for name in var_names:
        if not _is_name(name) or name == "sqrt":
            raise ParseError("bad variable name %r" % name)
    nvars = len(var_names)
    variables = {name: _unit(nvars, j) for j, name in enumerate(var_names)}
    index = {name: j for j, name in enumerate(var_names)}
    monos = {"": (0,) * nvars}

    labels = []
    polys = []
    for stmt in statements[1:]:
        if ":" not in stmt:
            raise ParseError("expected 'label: expression' in %r" % stmt.strip())
        label, expr_text = stmt.split(":", 1)
        label = label.strip()
        if not _is_name(label):
            raise ParseError("bad polynomial label %r" % label)
        if label in labels:
            raise ParseError("duplicate polynomial label %r" % label)
        if not expr_text.strip():
            raise ParseError("empty expression for %r" % label)
        try:
            coeffs = _scan_terms(expr_text, index, monos)
            if coeffs is None:
                from . import exactparse  # loaded by the first statement it reads

                coeffs = exactparse.parse_terms(expr_text, variables)
        except OverflowError:
            raise ParseError("%r has a number too large for a double" % label) from None
        poly = Poly(nvars, coeffs)
        if poly.degree() > MAX_DEGREE:
            raise ParseError("%r has degree %d, above the limit of %d"
                             % (label, poly.degree(), MAX_DEGREE))
        labels.append(label)
        polys.append(poly)

    system = PolySystem(polys, var_names, labels)
    if system.n != system.nvars:
        raise ParseError(
            "system is not square (%d polynomials, %d variables)"
            % (system.n, system.nvars)
        )
    return system

"""Dense univariate polynomials over exact coefficient domains.

One class covers every layer of the tower used by the package: a
``UniPoly`` holds coefficients that are either rational leaves or again
``UniPoly``, so Q[s], Q[s][t] and Q[s][t][X] are all instances of the same
type, nested.  A leaf is an ``int`` when its value is integral and a
``Fraction`` only when it is not, never a float, so arithmetic over Z[s][t]
runs on plain ints.  Trivariate family polynomials f(s, t, X) are
represented with X outermost, then t, then s, and that fixed nesting order
is what the parser produces (``TriPoly`` is an alias documenting the
convention).

On top of the ring arithmetic this module provides the subresultant PRS,
which serves resultants, discriminants and the one gcd in the outer
variable (over Q and over Q[s] alike).  The one normal form, from
integer_normalize, has integer leaves with gcd 1 and a positive leading
leaf; resultant and gcd run the PRS on it, in place on integer leaves, and
every gcd, content, primitive and squarefree part comes back in it, however
the inputs were scaled.  A resultant over Z[s] (one level deep) is one PRS
over Z after the Kronecker substitution s = 2^B, where 2^(B-1) bounds the
result's coefficients, read back as balanced base-2^B digits (Kronecker,
1882).  A resultant over Z[s][t] in which both t and s occur, such as the
family's X-discriminant, is that integer PRS at deg g deg_t f +
deg f deg_t g + 1 integer values of t, skipping values that drop an
X-degree, Newton-interpolated in t (Collins, J. ACM 18, 1971).  A gcd in t over Z[s]
in which s occurs, such as the one in the squarefree part of that
discriminant, is likewise the PRS over Z at integer values of s,
Newton-interpolated in s; a gcd does not commute with binding s at unlucky
values, so the interpolant is kept only once trial division proves it
(Brown, J. ACM 18, 1971).  The module also provides rational roots by
p-adic lifting, coefficient-valuation Newton polygons, and the text parser
for the manifest polynomial syntax (`+ - * ^`, implicit multiplication,
variables s, t, X).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import INFINITY, format_rat, is_prime, rational
from .ffact import FpField, poly_deriv, poly_gcd, reduce_mod_p, roots_mod_p


def _coerce(c):
    if isinstance(c, (int, UniPoly)):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"unsupported coefficient {c!r}")


class UniPoly:
    """Polynomial in one variable, lowest-degree coefficient first.

    The zero polynomial has an empty coefficient tuple.  Binary operations
    require equal variable tags; ints and Fractions are accepted wherever a
    coefficient-ring scalar makes sense.  Leaves are stored as ints when
    integral and as Fractions otherwise; a float is a TypeError.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str):
        cc = [c if isinstance(c, (int, UniPoly)) else _coerce(c) for c in coeffs]
        while cc and not cc[-1]:
            cc.pop()
        self.coeffs = tuple(cc)
        self.var = var

    # -- constructors ------------------------------------------------------

    @classmethod
    def gen(cls, var: str) -> "UniPoly":
        return cls([0, 1], var)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._zero_scalar()

    def _zero_scalar(self):
        if self.coeffs and isinstance(self.coeffs[0], UniPoly):
            return UniPoly((), self.coeffs[0].var)
        return 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc() == 1

    def order_at_zero(self) -> int:
        """Multiplicity of 0 as a root (the variable-adic valuation)."""
        if not self.coeffs:
            raise ValueError("zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    # -- ring operations ---------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([other], self.var)
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if len(self.coeffs) > 1:
                return False
            val = self.coeffs[0] if self.coeffs else self._zero_scalar()
            return val == other
        if isinstance(other, UniPoly):
            return self.var == other.var and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [-c for c in b[len(a):]]
        for i, c in enumerate(b[: len(a)]):
            out[i] = out[i] - c
        return UniPoly(out, self.var)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs], self.var)
        if isinstance(other, UniPoly) and other.var != self.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return UniPoly((), self.var)
        out = [self._zero_scalar()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out, self.var)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = _one_like(self) if self else UniPoly([1], self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Quotient and remainder; every leading-coefficient division must be
        exact in the coefficient domain (always true over Q, and used over
        polynomial coefficients only where divisibility is guaranteed)."""
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly((), self.var), self
        quot = [self._zero_scalar()] * (dq + 1)
        glc = other.lc()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree()]
            if not top:
                continue
            q = _exact_div(top, glc)
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return UniPoly(quot, self.var), UniPoly(rem, self.var)

    def exact_div(self, other) -> "UniPoly":
        q, r = divmod(self, other)
        if r:
            raise ArithmeticError("division is not exact")
        return q

    def derivative(self) -> "UniPoly":
        return UniPoly(
            [i * c for i, c in enumerate(self.coeffs)][1:] or (), self.var
        )

    def evaluate(self, value):
        """Horner evaluation; the result lives one nesting level down when
        `value` is a scalar."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def bind(self, var: str, value):
        """Substitute a scalar for `var` anywhere in the nesting."""
        if self.var == var:
            return self.evaluate(value)
        return UniPoly(
            [c.bind(var, value) if isinstance(c, UniPoly) else c for c in self.coeffs],
            self.var,
        )

    def degree_in(self, var: str) -> int:
        """Total view: the highest power of `var` appearing anywhere."""
        if self.var == var:
            return self.degree()
        best = -1
        for c in self.coeffs:
            if isinstance(c, UniPoly):
                best = max(best, c.degree_in(var))
        return best

    def __repr__(self):
        return f"UniPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


#: Trivariate family polynomials use a fixed nesting: X over t over s.
TriPoly = UniPoly


def _one_like(c):
    """1 at the nesting of c, which must be nonzero: an empty polynomial does
    not record how deep its leaves would sit."""
    if isinstance(c, UniPoly):
        return UniPoly([_one_like(c.lc())], c.var)
    return 1


def _exact_div(a, b):
    if isinstance(a, UniPoly):
        if isinstance(b, UniPoly):
            return a.exact_div(b)
        return a if b == 1 else UniPoly([_exact_div(c, b) for c in a.coeffs], a.var)
    if isinstance(b, UniPoly):
        if not a:
            return UniPoly((), b.var)
        raise ArithmeticError("scalar not divisible by a nonconstant polynomial")
    if isinstance(a, int) and isinstance(b, int):
        # divmod raises ZeroDivisionError for b = 0; a / b would be a float
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    # a Fraction operand keeps the quotient exact; a float fails in _coerce
    return _coerce(a / b)


# -- parsing and printing ---------------------------------------------------

VARS = ("s", "t", "X")


def _nested_const(value) -> UniPoly:
    p = UniPoly([value], "s")
    p = UniPoly([p], "t")
    return UniPoly([p], "X")


def _nested_var(name: str) -> UniPoly:
    s0 = UniPoly([0], "s")
    s1 = UniPoly([1], "s")
    if name == "s":
        inner = UniPoly([0, 1], "s")
        return UniPoly([UniPoly([inner], "t")], "X")
    if name == "t":
        return UniPoly([UniPoly([s0, s1], "t")], "X")
    if name == "X":
        zero_t = UniPoly([s0], "t")
        one_t = UniPoly([s1], "t")
        return UniPoly([zero_t, one_t], "X")
    raise ValueError(f"unknown variable {name!r}")


class PolyParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            # rational literal a/b
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                den = int(text[j + 1 : k]) if k > j + 1 else 0
                if not den:
                    raise PolyParseError(f"bad rational literal near {text[i:k]!r}")
                tokens.append(("num", Fraction(num, den)))
                i = k
            else:
                tokens.append(("num", num))
                i = j
            continue
        if ch in VARS:
            tokens.append(("var", ch))
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> UniPoly:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        result = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            result = result + t if op == "+" else result - t
        return result

    def term(self) -> UniPoly:
        result = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                result = result * self.factor()
            elif nxt in ("num", "var", "("):
                result = result * self.factor()
            else:
                return result

    def factor(self) -> UniPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, val = self.take() if self.pos < len(self.tokens) else (None, None)
            if kind != "num" or val.denominator != 1 or val < 0:
                raise PolyParseError("exponent must be a non-negative integer")
            return base ** int(val)
        return base

    def atom(self) -> UniPoly:
        if self.peek() is None:
            raise PolyParseError("unexpected end of input")
        kind, val = self.take()
        if kind == "num":
            return _nested_const(val)
        if kind == "var":
            return _nested_var(val)
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise PolyParseError("missing closing parenthesis")
            self.take()
            return inner
        raise PolyParseError(f"unexpected token {val!r}")


def parse_poly(text: str) -> TriPoly:
    """Parse an expression in s, t, X into the nested representation."""
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input at token {parser.pos}")
    return result


def format_poly(p) -> str:
    """Canonical text, highest degree first, parseable back: a polynomial
    constant at its own level prints as that constant, a coefficient that
    prints as 1 or -1 folds into its monomial, any other prints as
    text*monomial, in parentheses only when it has two or more nonzero
    coefficients of its own, and the constant term joins the sum bare, as
    in X^2 - s^2 + 4*s."""
    p = _own_level(p)
    if not isinstance(p, UniPoly):
        return format_rat(p)
    parts = []
    for i in range(p.degree(), -1, -1):
        c = _own_level(p.coeffs[i])
        if not c:
            continue
        text = format_poly(c)
        if i:
            mono = p.var if i == 1 else f"{p.var}^{i}"
            if isinstance(c, UniPoly) and sum(map(bool, c.coeffs)) > 1:
                text = f"({text})"
            text = text[:-1] + mono if text in ("1", "-1") else f"{text}*{mono}"
        parts.append(text)
    # no part holds " + -": each one is already in this form
    return " + ".join(parts).replace(" + -", " - ")


def _own_level(p):
    """p without the levels at which it is constant: its first level of
    positive degree, or its scalar leaf."""
    while isinstance(p, UniPoly) and p.degree() < 1:
        p = p.coeff(0)
    return p


def constant_value(p):
    """Collapse a polynomial that is constant in every variable to its
    scalar leaf (an int when integral, else a Fraction)."""
    leaf = _own_level(p)
    if isinstance(leaf, UniPoly):
        raise ValueError(f"{p} is not constant")
    return leaf


# -- specialization ----------------------------------------------------------


def specialize(f: TriPoly, bindings: dict):
    """Bind some of s, t to rationals; binding X is rejected.

    An integral value is bound as an int, so Horner's rule stays in Z."""
    if "X" in bindings:
        raise ValueError("X is never specialized")
    out = f
    for var, value in bindings.items():
        if var not in ("s", "t"):
            raise ValueError(f"unknown variable {var!r}")
        out = out.bind(var, _coerce(rational(value)))
    return out


def x_poly_coeffs(f) -> list:
    """Coefficient list of a fully bound polynomial in X over Q."""
    return [constant_value(f.coeff(i)) for i in range(f.degree() + 1)]


# -- pseudo-division, resultants, discriminants ------------------------------


def pseudo_rem(f: UniPoly, g: UniPoly) -> UniPoly:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g.

    Runs in place on f's coefficient list: each nonzero top coefficient r[k]
    is eliminated by r[i] = lc(g) r[i] - r[k] g[i - k + deg g] (below the
    shift only lc(g) r[i]), a zero top is skipped, and lc(g) to the number
    of skipped steps multiplies the remainder at the end."""
    if not g:
        raise ZeroDivisionError
    dg = g.degree()
    d = f.degree() - dg
    if d < 0:
        return f
    lc, gc = g.lc(), g.coeffs
    r = list(f.coeffs)
    e = d + 1
    for k in range(len(r) - 1, dg - 1, -1):
        top = r[k]
        if not top:
            continue
        shift = k - dg
        for i in range(shift):
            r[i] = r[i] * lc
        for i in range(shift, k):
            r[i] = r[i] * lc - top * gc[i - shift]
        e -= 1
    del r[dg:]
    if e:
        c = lc**e
        r = [a * c for a in r]
    return UniPoly(r, f.var)


def resultant(f: UniPoly, g: UniPoly):
    """Res(f, g), exact over nested domains.

    Zero iff f and g share a root in an algebraic closure (for nonzero
    inputs of positive degree).  Every route runs on the integer normal
    forms, and Res(a f, b g) = a^deg(g) b^deg(f) Res(f, g) puts the contents
    back.  The route follows the nesting of the coefficients.

    One level deep, polynomials over Z[s] (or Z[t]), the result is one PRS
    over Z by Kronecker substitution (Kronecker, "Grundzüge einer
    arithmetischen Theorie der algebraischen Grössen", J. reine angew.
    Math. 92, 1882).  With n = deg f, m = deg g and |p| the sum of the
    absolute values of p's integer leaves, take B one bit longer than
    |f|^m |g|^n (than |f| and |g| too, which only matters when a degree is
    0), map each coefficient c to c(2^B), and read the integer resultant N
    back as balanced base-2^B digits, each in [-2^(B-1), 2^(B-1)).  This is
    exact: s -> 2^B is a ring map Z[s] -> Z, and a nonzero polynomial whose
    leaves lie below 2^(B-1) in absolute value maps to a nonzero integer, so
    the X-degrees survive and the Sylvester determinant commutes with the
    map; expanding that determinant over permutations with |ab| <= |a| |b|
    bounds every coefficient of Res(f, g) by |f|^m |g|^n < 2^(B-1), and
    balanced digits of that size are unique, so they are its coefficients.

    Two levels deep, polynomials in t over Z[s] in which both t and s
    occur, the t-coefficients of the result come by evaluation and
    interpolation (Collins, "The calculation of multivariate polynomial
    resultants", J. ACM 18, 1971): the one-level route at t0 = 0, 1, -1, 2,
    -2, ..., skipping each t0 at which an X-leading coefficient vanishes,
    until deg g deg_t f + deg f deg_t g + 1 points bound the Sylvester
    determinant's degree in t; Newton interpolation fixes it.  Every other
    input, scalar leaves above all, takes the subresultant PRS.
    """
    if isinstance(f, UniPoly) and isinstance(g, UniPoly) and f.var != g.var:
        raise ValueError(f"variable mismatch: {f.var} vs {g.var}")
    if not f or not g:
        return 0 if not isinstance(f, UniPoly) else f._zero_scalar()
    (a, pf), (b, pg) = _normal(f), _normal(g)
    depth = _depth(pf), _depth(pg)
    res = _interpolated(pf, pg) if depth == (2, 2) else None
    if res is None:
        res = _kronecker(pf, pg) if depth == (1, 1) else _subresultant(pf, pg)
    return res if a == b == 1 else _coerce(res * (a ** g.degree() * b ** f.degree()))


def _depth(f: UniPoly) -> int:
    """How many polynomial levels lie below f's own, read down its lc."""
    depth, c = 0, f.lc()
    while isinstance(c, UniPoly):
        depth, c = depth + 1, c.lc()
    return depth


def _kronecker(f: UniPoly, g: UniPoly) -> UniPoly:
    """Res(f, g) over Z[s] by one PRS over Z at s = 2^B; see resultant."""
    s = f.lc().var
    nf, ng = _leaf_norm(f), _leaf_norm(g)
    B = max(nf ** g.degree() * ng ** f.degree(), nf, ng).bit_length() + 1
    N = _subresultant(*(UniPoly([_at_two_power(c, B) for c in p.coeffs], p.var) for p in (f, g)))
    digits, half, mask = [], 1 << (B - 1), (1 << B) - 1
    while N:
        r = N & mask
        if r >= half:
            r -= mask + 1
        digits.append(r)
        N = (N - r) >> B
    return UniPoly(digits, s)


def _leaf_norm(f: UniPoly) -> int:
    """The sum of the absolute values of the integer leaves of f, one level
    deep; a zero coefficient may be the int 0."""
    return sum(sum(map(abs, c.coeffs)) if isinstance(c, UniPoly) else abs(c) for c in f.coeffs)


def _at_two_power(c, B: int) -> int:
    """c(2^B) for c over Z, by shifts."""
    if not isinstance(c, UniPoly):
        return c
    acc = 0
    for x in reversed(c.coeffs):
        acc = (acc << B) + x
    return acc


def _interpolated(f: UniPoly, g: UniPoly):
    """Res(f, g) over Z[s][t] by evaluation in t, the one-level route at each
    point, and Newton interpolation, or None when t or s does not occur (the
    PRS is faster there)."""
    t, s = f.lc().var, f.lc().lc().var
    n, m = f.degree(), g.degree()
    need = m * f.degree_in(t) + n * g.degree_in(t) + 1
    if need == 1 or max(f.degree_in(s), g.degree_in(s)) < 1:
        return None
    points, newton = [], []  # Newton divided differences, one per point
    for t0 in _integers():
        ft, gt = f.bind(t, t0), g.bind(t, t0)
        if ft.degree() < n or gt.degree() < m:
            continue  # Res does not commute with a binding that drops a degree
        _newton_step(points, newton, t0, _kronecker(ft, gt))
        if len(points) == need:
            return _newton_expand(points, newton, t)


def _integers():
    """The interpolation points 0, 1, -1, 2, -2, ..."""
    for k in itertools.count():
        yield (k + 1) // 2 if k % 2 else -(k // 2)


def _newton_step(points: list, newton: list, x0, c):
    """Append the value c at x0 to the divided differences newton over
    points and return the new one: it is zero exactly when the interpolant
    through the earlier points already takes the value c at x0."""
    for x, d in zip(points, newton):
        c = _exact_div(c - d, x0 - x)
    points.append(x0)
    newton.append(c)
    return c


def _newton_expand(points: list, newton: list, var: str) -> UniPoly:
    """c0 + (var - x0)(c1 + (var - x1)(c2 + ...)) in var-coefficients."""
    coeffs = [newton[-1]]
    for x, c in zip(reversed(points[:-1]), reversed(newton[:-1])):
        coeffs = [c - x * coeffs[0]] + [a - x * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    return UniPoly(coeffs, var)


def _prs(A: UniPoly, B: UniPoly):
    """The subresultant PRS from deg A >= deg B: yields each pair (A, B) with
    its subresultant coefficient h, the given pair first, and stops after a
    pair whose B is zero or constant.  Exact coefficient divisions control
    growth without the per-step content gcds of the primitive PRS."""
    g = h = _one_like(A.lc())
    while True:
        yield A, B, h
        if B.degree() < 1:
            return
        delta = A.degree() - B.degree()
        R = pseudo_rem(A, B)
        denom = g * h**delta
        if denom != 1:
            R = UniPoly([_exact_div(c, denom) for c in R.coeffs], R.var)
        A, B = B, R
        g = A.lc()
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_div(g**delta, h ** (delta - 1))


def _subresultant(f: UniPoly, g: UniPoly):
    sign = 1
    A, B = f, g
    if A.degree() < B.degree():
        if A.degree() % 2 == 1 and B.degree() % 2 == 1:
            sign = -sign
        A, B = B, A
    if B.degree() == 0:
        return sign * B.lc() ** A.degree() if A.degree() > 0 else _one_like(A.lc()) * sign
    for A, B, h in _prs(A, B):
        if B.degree() >= 1 and A.degree() % 2 == 1 and B.degree() % 2 == 1:
            sign = -sign
    if not B:
        return A._zero_scalar()  # positive-degree common factor
    return sign * _exact_div(B.lc() ** A.degree(), h ** (A.degree() - 1))


def discriminant_in(f: UniPoly, var: str):
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f), taken in `var`.

    `var` must be the outermost variable of the nesting.  The sign convention
    is fixed project-wide; downstream checks only ever use vanishing loci and
    valuations of the result.
    """
    if f.var != var:
        raise ValueError(f"{var} is not the outer variable of {f.var}-poly")
    n = f.degree()
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _exact_div(res, f.lc())


# -- content, rational roots -------------------------------------------------


def integer_normalize(f: UniPoly) -> tuple[int | Fraction, list]:
    """(content, primitive coefficient list) with f = content * primitive,
    the module's one normal form: integer leaves at every depth with gcd 1
    and a positive leading leaf (the lc of the lc, down to a scalar).  Like
    a leaf, the content is an int when integral."""
    content, prim = _normal(f)
    return content, list(prim.coeffs)


def _normal(f: UniPoly) -> tuple[int | Fraction, UniPoly]:
    """integer_normalize with the primitive part as a UniPoly, f itself when
    the content is 1."""
    if not f:
        return 0, f
    nums, dens, stack = [], [], [f]
    while stack:  # an lc is pushed last and popped first: nums[0] leads
        c = stack.pop()
        if isinstance(c, UniPoly):
            stack.extend(c.coeffs)
        else:
            nums.append(c.numerator)
            dens.append(c.denominator)
    num, den = math.gcd(*nums) * (1 if nums[0] > 0 else -1), math.lcm(*dens)
    content = num if den == 1 else Fraction(num, den)
    if content == 1:
        return content, f
    return content, UniPoly([_exact_div(c, content) for c in f.coeffs], f.var)


def rational_roots(f: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted; rational coefficients.

    By p-adic expansion (Loos, 1983), so no integer is factored.  Let g be
    the squarefree part of the primitive integer form, with the root 0
    removed.  A root a/b of g in lowest terms has |a| <= |g(0)| and
    0 < b <= lc(g).  At the least prime p ∤ lc(g) with g squarefree mod p,
    every root mod p is simple, so Newton's iteration lifts it to a root mod
    p^k > 2 |g(0)| lc(g).  Rational reconstruction (Wang, Guy and Davenport,
    1982) then yields the only a/b within those bounds congruent to that
    root, if there is one.  Each candidate is confirmed exactly and divided
    out of f for its multiplicity.
    """
    if not f:
        raise ValueError("zero polynomial has every root")
    if f.degree() == 0:
        return []
    ord0 = f.order_at_zero()
    roots: list[tuple[Fraction, int]] = [(Fraction(0), ord0)] if ord0 else []
    work = primitive_part(UniPoly(f.coeffs[ord0:], f.var))
    if work.degree() >= 1:
        g = squarefree_part(work)
        for r in _lifted_candidates(g):
            mult = 0
            lin = UniPoly([-r, 1], f.var)
            while work.evaluate(r) == 0:
                work = work.exact_div(lin)
                mult += 1
            if mult:
                roots.append((r, mult))
    return sorted(roots)


def _lifted_candidates(g: UniPoly) -> list[Fraction]:
    """The a/b that the roots of g mod p lift to (see rational_roots); g is
    integral, squarefree, of degree >= 1, with g(0) != 0 and lc > 0."""
    num, den = abs(g.coeffs[0]), g.lc()
    p = next(q for q in itertools.count(2) if is_prime(q) and den % q and _squarefree_mod(g, q))
    dg = g.derivative()
    out = []
    for r in roots_mod_p(g.coeffs, p):
        m = p
        while m <= 2 * num * den:
            m *= m
            r = (r - g.evaluate(r) * pow(dg.evaluate(r), -1, m)) % m
        # extended Euclid on (m, r), stopped at the first remainder <= num
        r0, r1, s0, s1 = m, r, 0, 1
        while r1 > num:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) <= den:
            out.append(Fraction(r1, s1))
    return out


def _squarefree_mod(g: UniPoly, p: int) -> bool:
    K = FpField(p)
    gp = reduce_mod_p(g.coeffs, p)
    return len(poly_gcd(K, gp, poly_deriv(K, gp))) == 1


# -- gcd machinery -----------------------------------------------------------


def content_in_coeffs(f: UniPoly) -> UniPoly:
    """gcd of the (polynomial) coefficients of f, in the normal form."""
    acc = None
    for c in f.coeffs:
        if not c:
            continue
        acc = c if acc is None else gcd_over_poly_coeffs(acc, c)
        if acc.degree() == 0:
            break
    if acc is None:
        raise ValueError("zero polynomial")
    return _normal(acc)[1]


def primitive_part(f: UniPoly) -> UniPoly:
    """f over its content in the coefficient ring (Q[s] for nested
    coefficients; over Q every nonzero constant is a unit), in the normal
    form."""
    if isinstance(f.lc(), UniPoly):
        cont = content_in_coeffs(f)
        if cont != 1:
            f = UniPoly([_exact_div(c, cont) for c in f.coeffs], f.var)
    return _normal(f)[1]


def gcd_over_poly_coeffs(f: UniPoly, g: UniPoly) -> UniPoly:
    """gcd in the outer variable, the one gcd over Q and Q[s], in the normal
    form: the primitive part of the gcd over Q or Q(s), so gcd(c1 f, c2 g)
    = gcd(f, g) for nonzero rationals c1, c2.

    Inputs in t over Z[s] in which s occurs, both of t-degree >= 1, go by
    evaluation in s (Brown, "On Euclid's algorithm and the computation of
    polynomial greatest common divisors", J. ACM 18, 1971).  At s0 = 0, 1,
    -1, 2, -2, ..., skipping each s0 at which lc f or lc g vanishes, the PRS
    over Z gives the image gcd of f(s0) and g(s0), scaled to the leading
    coefficient gamma(s0), gamma = gcd(lc f, lc g).  An image of degree 0
    proves the gcd is 1, one of higher degree than the least seen is
    discarded, and one of lower degree restarts the points.  Each
    t-coefficient is Newton-interpolated in s; once a point leaves the
    interpolant unchanged, its primitive part G is returned if f and g have
    zero pseudo-remainders by G, else points are added.  The trial division
    makes G exact: G divides the gcd, and as lc of the gcd divides gamma,
    the gcd's image at s0 divides the image gcd, so deg gcd <= deg G.
    Unlucky points are roots of a nonzero subresultant, finitely many, so
    the loop ends.  Every other input runs the subresultant PRS on its
    integer normal form, and the result is the primitive part of the last
    nonzero remainder, which is what G equals.
    """
    a, b = (f, g) if f.degree() >= g.degree() else (g, f)
    if not a:
        return a
    a, b = _normal(a)[1], _normal(b)[1]
    if b.degree() >= 1 and _depth(a) == 1:
        s = a.lc().var
        if max(a.degree_in(s), b.degree_in(s)) >= 1:
            return _evaluated_gcd(a, b)
    return _prs_gcd(a, b)


def _prs_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """gcd_over_poly_coeffs on the PRS, for deg a >= deg b and nonzero a."""
    for a, b, _ in _prs(a, b):
        pass
    if b:
        return _one_like(a)
    return primitive_part(a)


def _evaluated_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """gcd_over_poly_coeffs by evaluation in s; see there."""
    t, s = f.var, f.lc().var
    lf, lg = f.lc(), g.lc()
    gamma = gcd_over_poly_coeffs(lf, lg)
    points, newton, least = [], [], math.inf
    for s0 in _integers():
        if not lf.evaluate(s0) or not lg.evaluate(s0):
            continue  # the binding would drop a t-degree
        image = _prs_gcd(f.bind(s, s0), g.bind(s, s0))
        d = image.degree()
        if d == 0:
            return _one_like(f)
        if d > least:
            continue
        if d < least:
            points, newton, least = [], [], d
        scale, lead = gamma.evaluate(s0), image.lc()
        image = UniPoly([_exact_div(c * scale, lead) for c in image.coeffs], t)
        if _newton_step(points, newton, s0, image) or len(points) < 2:
            continue
        G = primitive_part(UniPoly(
            [_newton_expand(points, [c.coeff(i) for c in newton], s) for i in range(d + 1)], t
        ))
        if not pseudo_rem(f, G) and not pseudo_rem(g, G):
            return G


def squarefree_part(f: UniPoly) -> UniPoly:
    """f divided by gcd(f, f'), over Q or Q[s] coefficients, as a primitive
    part in the normal form.  In t over Z[s] with s occurring, as for the
    family's branch locus, the gcd is taken at s0 = 0, 1, -1, ..., skipping
    the roots of lc f and discarding images of more than the least degree,
    interpolated in s until a point leaves it unchanged, and kept once trial
    division proves it (Brown, J. ACM 18, 1971; see gcd_over_poly_coeffs).
    """
    base = primitive_part(f)
    if f.degree() < 2:
        return base
    g = gcd_over_poly_coeffs(f, f.derivative())
    return base if g.degree() == 0 else primitive_part(base.exact_div(g))


# -- Newton polygons ---------------------------------------------------------


def lower_hull(points: list[tuple[int, int | Fraction]]) -> list[tuple[Fraction, int]]:
    """Lower convex hull of (i, v) points: [(slope, length)] increasing.
    Collinear interior points are dropped, so each face is maximal."""
    pts = sorted(points)
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strictly convex turns
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return [(Fraction(y2 - y1, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def newton_polygon(f: UniPoly, val) -> tuple:
    """Faces of the polygon of f under a coefficient valuation oracle, as
    (slope, horizontal length) with slopes strictly increasing.

    `val` maps each coefficient to a rational (or INFINITY for zero).  The
    slope convention is root valuations: a face (lam, ell) certifies ell
    roots of valuation lam (counted in the algebraic closure).  Roots at 0
    itself (infinite valuation) are not faces; their count is the order of
    vanishing at 0 and is excluded from the degree span.
    """
    if not f:
        raise ValueError("zero polynomial has no Newton polygon")
    points = [(i, v) for i, v in enumerate(map(val, f.coeffs)) if v != INFINITY]
    if not points:
        raise ValueError("all coefficients have infinite valuation")
    return tuple((-s, l) for s, l in reversed(lower_hull(points)))

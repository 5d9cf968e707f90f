"""Polynomial tower: parser, resultants, discriminants, Newton polygons."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from galspec import poly
from galspec.arith import INFINITY, rational, valuation
from galspec.poly import (
    PolyParseError,
    UniPoly,
    constant_value,
    discriminant_in,
    format_poly,
    gcd_over_poly_coeffs,
    integer_normalize,
    newton_polygon,
    parse_poly,
    primitive_part,
    pseudo_rem,
    rational_roots,
    resultant,
    specialize,
    squarefree_part,
    x_poly_coeffs,
)

F_PSL = (
    "X^7 - 2sX^6 + (s^3 + s^2 + 3s - 2)X^4 + (-2s^3 - 4s^2 + 5s - 8)X^3"
    " + (s^3 + 4s^2 - 10s + 16)X^2 + (-s^2 + 5s - 12)X - s + 4"
    " + tX^2(X - 1)(X^2 - sX + s)"
)


def fraction_poly(coeffs) -> UniPoly:
    """Build a Q-coefficient polynomial in X from a coefficient list."""
    return UniPoly([rational(c) for c in coeffs], "X")


def qpoly(*coeffs_low_to_high):
    return fraction_poly(list(coeffs_low_to_high))


small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def _nested(var, inner):
    return st.lists(inner, max_size=3).map(lambda coeffs: UniPoly(coeffs, var))


# the parser's nesting with int and Fraction leaves, ±1 drawn often
nested_polys = _nested("X", _nested("t", _nested("s", st.one_of(
    st.sampled_from([0, 1, -1]), st.integers(-5, 5), small_fracs
))))


def qpolys(max_degree=4, nonzero=False, monic=False):
    def build(coeffs):
        p = fraction_poly(coeffs)
        if monic and p:
            p = UniPoly(list(p.coeffs[:-1]) + [Fraction(1)], "X")
        return p

    strat = st.lists(small_fracs, min_size=1, max_size=max_degree + 1).map(build)
    if nonzero or monic:
        strat = strat.filter(lambda p: bool(p))
    return strat


def zst_polys(min_degree=0, max_degree=2):
    """Nonzero polynomials in t over Z[s], s-degree <= 2, small leaves."""

    def build(rows):
        return UniPoly([UniPoly(row, "s") for row in rows], "t")

    row = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
    strat = st.lists(row, min_size=min_degree + 1, max_size=max_degree + 1).map(build)
    return strat.filter(lambda p: p.degree() >= min_degree)


def sylvester_resultant(f: UniPoly, g: UniPoly):
    """Resultant as the Sylvester determinant (reference implementation).

    Intended for small degrees; cross-checks the PRS code path.  Eliminates
    over Fraction copies of the coefficients.
    """
    m, n = f.degree(), g.degree()
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    fc = [Fraction(c) for c in f.coeffs]
    gc = [Fraction(c) for c in g.coeffs]
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    # fraction-based Gaussian elimination
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


class TestParser:
    def test_flagship_verbatim(self):
        f = parse_poly(F_PSL)
        assert f.degree() == 7
        assert f.degree_in("t") == 1
        assert f.degree_in("s") == 3
        assert f.is_monic()

    def test_whitespace_insensitive(self):
        squeezed = F_PSL.replace(" ", "")
        assert parse_poly(squeezed) == parse_poly(F_PSL)

    def test_implicit_multiplication(self):
        assert parse_poly("2sX") == parse_poly("2*s*X")
        assert parse_poly("(X-1)(X+1)") == parse_poly("X^2 - 1")

    def test_rational_literal(self):
        g = parse_poly("1/2 X^2 - 3/4")
        assert x_poly_coeffs(g) == [Fraction(-3, 4), Fraction(0), Fraction(1, 2)]

    def test_rejects_unknown_variable(self):
        with pytest.raises(PolyParseError):
            parse_poly("X + y")

    def test_rejects_bad_exponent(self):
        with pytest.raises(PolyParseError):
            parse_poly("X^-2")
        with pytest.raises(PolyParseError):
            parse_poly("X^(2)")

    def test_rejects_trailing_garbage(self):
        with pytest.raises(PolyParseError):
            parse_poly("X + 1)")

    def test_round_trip_flagship(self):
        f = parse_poly(F_PSL)
        assert parse_poly(format_poly(f)) == f
        assert "((-s - 1)*t + s^3 + s^2 + 3*s - 2)*X^4" in format_poly(f)
        # canonical texts print back as they are
        for text in ("X + t", "X^2 - s^2 + 4*s", "(s + 1)*t*X", "-X - t", "1/2*s*X - 1/3"):
            assert format_poly(parse_poly(text)) == text

    @given(nested_polys)
    def test_round_trip_random_bivariate(self, f):
        # the parser's nesting, X over t over s, with ±1 and constants nested
        text = format_poly(f)
        assert parse_poly(text) == f
        assert not re.search(r"(?<![0-9/])1\*", text), text
        opened = []
        for i, ch in enumerate(text):
            if ch == "(":
                opened.append(i)
            elif ch == ")":
                group = text[opened.pop() + 1 : i]
                top = re.sub(r"\([^()]*\)", "", group)  # groups nest two deep at most
                assert top.count(" + ") + top.count(" - ") >= 1, text


class TestCanonicalLeaves:
    """A leaf is an int when integral and a Fraction only when it is not."""

    def test_integral_fractions_become_ints(self):
        p = UniPoly([Fraction(4), Fraction(1, 2), 3], "X")
        assert p.coeffs == (4, Fraction(1, 2), 3)
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]

    def test_exact_division_keeps_ints(self):
        q = UniPoly([4, 6], "t").exact_div(UniPoly([2], "t"))
        assert q.coeffs == (2, 3)
        assert all(type(c) is int for c in q.coeffs)

    def test_inexact_division_gives_fraction(self):
        m = UniPoly([1, 3], "t").exact_div(UniPoly([3], "t"))
        assert m.coeffs == (Fraction(1, 3), 1)
        assert [type(c) for c in m.coeffs] == [Fraction, int]

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            UniPoly([1, 0.5], "X")

    def test_fraction_poly_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            fraction_poly([1, 0.5])


class TestSpecialize:
    def test_quadratic(self):
        f = parse_poly("X^2 - t")
        g = specialize(f, {"t": 4})
        assert x_poly_coeffs(g) == [Fraction(-4), Fraction(0), Fraction(1)]

    def test_flagship_at_origin(self):
        f = parse_poly(F_PSL)
        g = specialize(f, {"s": 0, "t": 0})
        assert x_poly_coeffs(g) == [
            Fraction(4), Fraction(-12), Fraction(16), Fraction(-8),
            Fraction(-2), Fraction(0), Fraction(0), Fraction(1),
        ]

    def test_flagship_partial(self):
        f = parse_poly(F_PSL)
        g = specialize(f, {"s": 1})
        assert g.degree() == 7
        assert g.degree_in("t") == 1

    def test_rejects_float_value(self):
        # 0.1 is not 1/10 in binary; binding it would silently change t0
        with pytest.raises(TypeError, match="float"):
            specialize(parse_poly("X - t"), {"t": 0.1})

    def test_rejects_x_binding(self):
        with pytest.raises(ValueError):
            specialize(parse_poly("X^2"), {"X": 1})

    @given(small_fracs, small_fracs)
    def test_binding_order_commutes(self, sv, tv):
        f = parse_poly(F_PSL)
        a = specialize(specialize(f, {"s": sv}), {"t": tv})
        b = specialize(specialize(f, {"t": tv}), {"s": sv})
        assert x_poly_coeffs(a) == x_poly_coeffs(b)


def nested(var, inner, max_size):
    return st.lists(inner, min_size=1, max_size=max_size).map(lambda cs: UniPoly(cs, var))


# X-degree <= 3 over t- and s-degree <= 2, with Fraction leaves among the ints
trivariate_polys = nested(
    "X", nested("t", nested("s", st.integers(-3, 3) | small_fracs, 3), 3), 4
).filter(bool)


def mixed_chains(leaves, x_size):
    """Nonzero polynomials in X over their own subset of {s, t}, nested in
    the parser's order: X-degree < x_size, s- and t-degree <= 2."""

    def over(inner):
        strat = leaves
        for var in inner:
            strat = nested(var, strat, 3)
        return nested("X", strat, x_size).filter(bool)

    return st.sampled_from([(), ("s",), ("t",), ("s", "t")]).flatmap(over)


def inner_variables(p) -> tuple:
    """The variables below the outer one of a nested UniPoly, innermost
    first, read down its lc."""
    names = ()
    while isinstance(p.lc(), UniPoly):
        p = p.lc()
        names = (p.var,) + names
    return names


int_xpolys = st.lists(st.integers(-3, 3), min_size=1, max_size=6).map(lambda c: UniPoly(c, "X"))
zs_xpolys = st.lists(
    st.lists(st.integers(-3, 3), max_size=3).map(lambda c: UniPoly(c, "s")), min_size=1, max_size=5
).map(lambda cs: UniPoly(cs, "X"))


class TestResultant:
    def test_linear(self):
        assert resultant(qpoly(-2, 1), qpoly(-3, 1)) == -1

    def test_shared_root(self):
        assert resultant(qpoly(-1, 0, 1), qpoly(-1, 1)) == 0

    def test_quadratics(self):
        # product of (alpha - beta) over root pairs: (i-r2)(i+r2)(-i-r2)(-i+r2) = 9
        assert resultant(qpoly(1, 0, 1), qpoly(-2, 0, 1)) == 9

    @given(qpolys(4, nonzero=True), qpolys(4, nonzero=True))
    def test_matches_sylvester(self, f, g):
        assert resultant(f, g) == sylvester_resultant(f, g)

    @given(qpolys(3, nonzero=True), qpolys(3, nonzero=True))
    def test_matches_sympy(self, sympy, f, g):
        # sympy drops the swap sign when deg f < deg g; feed it the ordered
        # pair and apply (-1)^(mn) ourselves
        X = sympy.Symbol("X")
        sf = sum(sympy.Rational(c) * X**i for i, c in enumerate(f.coeffs))
        sg = sum(sympy.Rational(c) * X**i for i, c in enumerate(g.coeffs))
        m, n = f.degree(), g.degree()
        if m == 0 and n == 0:
            expected = Fraction(1)  # empty Sylvester matrix
        elif m >= n:
            expected = Fraction(str(sympy.resultant(sf, sg, X)))
        else:
            expected = (-1) ** (m * n) * Fraction(str(sympy.resultant(sg, sf, X)))
        assert resultant(f, g) == expected

    @given(qpolys(4, nonzero=True), qpolys(4, nonzero=True))
    def test_swap_sign(self, f, g):
        m, n = f.degree(), g.degree()
        assert resultant(f, g) == (-1) ** (m * n) * resultant(g, f)

    def test_rejects_variable_mix(self):
        with pytest.raises(ValueError):
            resultant(fraction_poly([1, 1]), UniPoly([Fraction(1), Fraction(1)], "t"))

    def test_reaches_the_degree_bound_past_a_skipped_point(self):
        # deg_t Res = 3 = deg g deg_t f + deg f deg_t g, the bound itself, and
        # the X-leading coefficient t vanishes at t0 = 0, the first point
        f, g = parse_poly("t*X^2 + s*X + 1"), parse_poly("X - s*t")
        assert resultant(f, g) == parse_poly("s^2*t^3 + s^2*t + 1").coeff(0)

    def test_constants_over_z_s_t_give_t_over_s(self):
        # every resultant over Z[s][t] is a polynomial in t over Z[s], the
        # empty Sylvester matrix's 1 included; == alone cannot tell, since
        # a nested constant equals its leaf
        for f, g in [("2", "3"), ("2*t", "3*s"), ("t", "X + s")]:
            res = resultant(parse_poly(f), parse_poly(g))
            assert res.var == "t" and all(isinstance(c, UniPoly) and c.var == "s" for c in res.coeffs)
        assert resultant(parse_poly("2"), parse_poly("3")) == 1

    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_over_z_s_digit_width_is_nearly_tight(self, k, sign):
        # Res(X, X + c s) = c s, and |f|^1 |g|^1 = 1 + 2^k is one above |c|:
        # with B one bit shorter, c = 2^k = 2^B / 2 would be read back as the
        # digit -2^k with a carry, s^2 - 2^k s
        s, one = UniPoly([0, 1], "s"), UniPoly([1], "s")
        f, g = UniPoly([UniPoly((), "s"), one], "X"), UniPoly([sign * 2**k * s, one], "X")
        assert resultant(f, g) == sign * 2**k * s

    def test_constants_over_z_s_give_s(self):
        # one level deep the result is a polynomial in s with int leaves,
        # the zero resultant and the empty Sylvester matrix's 1 included;
        # X-constants of small norm must not vanish at s = 2^B
        s = UniPoly([0, 1], "s")
        x = lambda *cs: UniPoly(list(cs), "X")
        for f, g, want in [
            (x(s - 4), x(s - 4), 1),
            (x(1, s - 4), x(s), s),
            (x(0, 1), x(s - 4), s - 4),
            (x(-s, 1) * x(1, s), x(-s, 1), 0),
        ]:
            res = resultant(f, g)
            assert res == want and res.var == "s" and all(type(c) is int for c in res.coeffs)
        assert resultant(x(-s, 1) * x(1, s), x(-s, 1)) == UniPoly((), "s")

    @settings(deadline=None)
    @given(zs_xpolys.filter(bool), zs_xpolys.filter(bool), zs_xpolys, st.integers(-40, 40))
    def test_over_z_s_matches_sympy(self, sympy, f, g, c, big):
        # big widens f's leaves; c, when it has positive X-degree, is
        # planted in both, so the resultant is zero
        f = f * (big or 1)
        if c.degree() >= 1:
            f, g = f * c, g * c
        X, s = sympy.symbols("X s")
        sf, sg = (sympy.Poly.from_dict(monomials(sympy, p), X, s, domain="ZZ") for p in (f, g))
        m, n = f.degree(), g.degree()
        if m == 0 and n == 0:
            expected = sympy.Poly(1, s, domain="ZZ")
        elif m >= n:
            expected = sf.resultant(sg)
        else:
            expected = (-1) ** (m * n) * sg.resultant(sf)
        got = resultant(f, g)
        assert got.var == "s" and all(type(x) is int for x in got.coeffs)
        assert sympy.Poly.from_dict(monomials(sympy, got), s, domain="ZZ") == sympy.Poly(expected, s, domain="ZZ")

    @given(trivariate_polys, trivariate_polys)
    def test_trivariate_matches_sympy(self, sympy, f, g):
        # sympy's resultant over Z[X, t, s] of the denominator-free a f and
        # b g, where Res(a f, b g) = a^deg g b^deg f Res(f, g)
        X, t, s = sympy.symbols("X t s")
        (a, sf), (b, sg) = (
            sympy.Poly.from_dict(monomials(sympy, p), X, t, s, domain="QQ").clear_denoms(convert=True)
            for p in (f, g)
        )
        m, n = f.degree(), g.degree()
        if m == 0 and n == 0:
            assert resultant(f, g) == 1  # empty Sylvester matrix
            return
        if m >= n:
            expected = sf.resultant(sg)
        else:
            expected = (-1) ** (m * n) * sg.resultant(sf)
        got = resultant(f, g) * (int(a) ** n * int(b) ** m)
        assert sympy.Poly.from_dict(monomials(sympy, got), t, s, domain="ZZ") == expected

    @settings(max_examples=50, deadline=None)
    @given(mixed_chains(st.integers(-3, 3) | small_fracs, 4), mixed_chains(st.integers(-3, 3) | small_fracs, 4))
    @example(
        UniPoly([UniPoly([0, -1], "t"), UniPoly([1], "t")], "X"),
        UniPoly([UniPoly([0, -1], "s"), UniPoly([1], "s")], "X"),
    )
    def test_over_z_s_t_against_z_s_matches_sympy(self, sympy, f, g):
        # each input is over its own subset of {s, t}, and the result over
        # their union.  Res(X - t, X - s) = t - s once read over Z[s][t];
        # with the variables read off one input it was 0.  An input free of
        # t counts as t-degree 0 in the interpolation's point bound, and the
        # PRS over polynomial coefficients used to raise a variable mismatch
        X = sympy.Symbol("X")
        sf, sg = (to_sympy_expr(sympy, p) for p in (f, g))
        m, n = f.degree(), g.degree()
        if m == 0 and n == 0:
            assert resultant(f, g) == 1  # empty Sylvester matrix
            return
        if m >= n:
            expected = sympy.resultant(sf, sg, X)
        else:
            expected = (-1) ** (m * n) * sympy.resultant(sg, sf, X)
        got = resultant(f, g)
        union = [v for v in ("s", "t") if v in inner_variables(f) + inner_variables(g)]
        assert (got.var if isinstance(got, UniPoly) else None) == (union[-1] if union else None)
        assert sympy.expand(to_sympy_expr(sympy, got) - expected) == 0


def monomials(sympy, p, exponents=()):
    """A nested UniPoly, or a leaf, as {exponent tuple: sympy Rational}."""
    if not isinstance(p, UniPoly):
        return {exponents: sympy.Rational(p.numerator, p.denominator)} if p else {}
    out = {}
    for i, c in enumerate(p.coeffs):
        out.update(monomials(sympy, c, exponents + (i,)))
    return out


def to_sympy_expr(sympy, p):
    """A nested UniPoly, or a leaf, as a sympy expression."""
    if not isinstance(p, UniPoly):
        return sympy.Rational(p.numerator, p.denominator)
    v = sympy.Symbol(p.var)
    return sum((to_sympy_expr(sympy, c) * v**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))


class TestPseudoRem:
    """pseudo_rem against sympy.prem: lc(g)^(deg f - deg g + 1) f mod g."""

    def check(self, sympy, f, g):
        X = sympy.Symbol("X")
        want = sympy.prem(to_sympy_expr(sympy, f), to_sympy_expr(sympy, g), X)
        got = pseudo_rem(f, g)
        assert got.degree() < g.degree()
        assert sympy.expand(to_sympy_expr(sympy, got) - want) == 0

    @pytest.mark.parametrize("f, g", [
        # X^3's coefficient is zero once X^4 is gone: a skipped step, so lc^e
        # with e = 2 multiplies the remainder at the end
        ([1, 0, 0, 0, 1], [1, 0, 2]),
        ([5, 0, 0, 0, 0, 3], [1, -1, 3]),
        ([1, 2], [1, 0, 0, 4]),  # deg f < deg g: f itself
        ([7], [2]),
        ([0, 0, 0, 3], [1, 2]),
    ])
    def test_cases(self, sympy, f, g):
        self.check(sympy, UniPoly(f, "X"), UniPoly(g, "X"))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            pseudo_rem(UniPoly([1, 1], "X"), UniPoly([], "X"))

    @settings(deadline=None)
    @given(int_xpolys, int_xpolys.filter(bool))
    def test_over_z(self, sympy, f, g):
        self.check(sympy, f, g)

    @settings(deadline=None)
    @given(qpolys(5), qpolys(3, nonzero=True))
    def test_over_q(self, sympy, f, g):
        self.check(sympy, f, g)

    @settings(deadline=None)
    @given(zs_xpolys, zs_xpolys.filter(bool))
    def test_over_z_s(self, sympy, f, g):
        self.check(sympy, f, g)


class TestDiscriminant:
    def test_quadratic_in_t(self):
        d = discriminant_in(parse_poly("X^2 - t"), "X")
        assert format_poly(d) == "4*t"

    def test_cubic_in_t(self):
        d = discriminant_in(parse_poly("X^3 - t"), "X")
        assert format_poly(d) == "-27*t^2"

    def test_quadratic_formula(self):
        # b^2 - 4ac for monic X^2 + bX + c
        d = discriminant_in(qpoly(3, 5, 1), "X")
        assert d == 25 - 12

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            discriminant_in(qpoly(3), "X")

    def test_reaches_the_discriminant_degree_bound(self):
        # deg_t disc = 2 = deg_t f (2n - 2) for monic f
        d = discriminant_in(parse_poly("X^2 + t*X + s"), "X")
        assert d == parse_poly("t^2 - 4*s").coeff(0)

    @given(qpolys(3, monic=True), qpolys(3, monic=True))
    @settings(max_examples=60)
    def test_product_rule(self, f, g):
        if f.degree() < 1 or g.degree() < 1:
            return
        r = resultant(f, g)
        lhs = discriminant_in(f * g, "X")
        rhs = discriminant_in(f, "X") * discriminant_in(g, "X") * r * r
        assert lhs == rhs

    def test_flagship_at_s1_vs_numeric_roots(self, sympy):
        # root-separation oracle: disc vanishes exactly at root collisions
        f1 = specialize(parse_poly(F_PSL), {"s": 1})
        disc_t = discriminant_in(f1, "X")
        for tv in (Fraction(2), Fraction(-5), Fraction(7, 3)):
            val = constant_value(disc_t.bind("t", tv))
            coeffs = [sympy.Rational(c) for c in reversed(x_poly_coeffs(specialize(f1, {"t": tv})))]
            roots = sympy.Poly(coeffs, sympy.Symbol("X")).nroots()
            sep = min(
                abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
            )
            assert val != 0
            assert sep > 1e-6

    def test_flagship_disc_matches_sympy(self):
        import sympy

        f = specialize(parse_poly(F_PSL), {"s": 1})
        t, X = sympy.symbols("t X")
        sf = sum(
            sympy.Rational(constant_value(f.coeff(i).coeff(j) if j <= f.coeff(i).degree() else 0))
            * t**j * X**i
            for i in range(f.degree() + 1)
            for j in range(f.coeff(i).degree() + 1)
        )
        expected = sympy.Poly(sf, X).discriminant()
        ours = discriminant_in(f, "X")
        diff = sympy.expand(
            expected
            - sum(
                sympy.Rational(constant_value(ours.coeff(j))) * t**j
                for j in range(ours.degree() + 1)
            )
        )
        assert diff == 0


class TestNewtonPolygon:
    def p_adic(self, p):
        return lambda c: valuation(c, p)

    def test_eisenstein(self):
        np5 = newton_polygon(qpoly(-5, 0, 1), self.p_adic(5))
        assert np5 == ((Fraction(1, 2), 2),)

    def test_tau_square_unit(self):
        # X^2 - tau^2 u, val(u) = 0, tau-adic on Q[tau] coefficients
        tau_sq = UniPoly([Fraction(0), Fraction(0), Fraction(3)], "t")
        f = UniPoly([-tau_sq, UniPoly((), "t"), UniPoly([Fraction(1)], "t")], "X")
        val = lambda c: c.order_at_zero() if c else INFINITY
        assert newton_polygon(f, val) == ((Fraction(1), 2),)

    def test_split_valuations(self):
        np7 = newton_polygon(qpoly(7, -8, 1), self.p_adic(7))
        assert np7 == ((Fraction(0), 1), (Fraction(1), 1))

    def test_x2_minus_12_at_3(self):
        np3 = newton_polygon(qpoly(-12, 0, 1), self.p_adic(3))
        assert np3 == ((Fraction(1, 2), 2),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            newton_polygon(fraction_poly([]), self.p_adic(2))

    @given(qpolys(6, nonzero=True), st.sampled_from([2, 3, 5]))
    def test_lengths_sum_to_degree_span(self, f, p):
        faces = newton_polygon(f, self.p_adic(p))
        ord0 = f.order_at_zero()
        assert sum(l for _, l in faces) == f.degree() - ord0
        slopes = [s for s, _ in faces]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        # the oracle's int values go through as they are; the slopes are
        # Fractions either way
        assert newton_polygon(f, lambda c: Fraction(valuation(c, p)) if c else INFINITY) == faces
        assert all(type(s) is Fraction for s in slopes)


class TestRationalRoots:
    def test_mixed(self):
        f = qpoly(0, 0, -4, 0, 1)  # X^2 (X-2)(X+2)
        assert rational_roots(f) == [
            (Fraction(-2), 1), (Fraction(0), 2), (Fraction(2), 1),
        ]

    def test_fractional_root(self):
        f = qpoly(-1, 0, 0, 2)  # 2X^3 - 1 has no rational root
        assert rational_roots(f) == []
        g = qpoly(-1, 2) * qpoly(-1, 2) * qpoly(3, 0, 1)
        assert rational_roots(g) == [(Fraction(1, 2), 2)]

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=0, max_size=4))
    @settings(max_examples=60)
    def test_recovers_constructed_roots(self, roots):
        f = qpoly(1, 0, 1)  # irrational quadratic residual
        for r in roots:
            f = f * qpoly(-r, 1)
        found = rational_roots(f)
        expected = sorted((r, roots.count(r)) for r in set(roots))
        assert found == expected

    @given(
        st.lists(
            st.tuples(st.integers(-40, 40), st.integers(1, 9), st.integers(1, 3)), max_size=3
        ),
        st.integers(0, 2),
        st.integers(-12, 12).filter(bool),
        st.integers(10**70, 10**72),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy(self, sympy, planted, zero_order, lead, big, big_root):
        # X^2 + big has no rational root and a constant term of 70+ digits
        f = qpoly(*([0] * zero_order + [lead])) * qpoly(big, 0, 1)
        for a, b, mult in planted:
            for _ in range(mult):
                f = f * qpoly(-a, b)
        if big_root:
            f = f * qpoly(-big - 1, 3)
        X = sympy.Symbol("X")
        _content, factors = sympy.Poly([int(c) for c in reversed(f.coeffs)], X).factor_list()
        expected = sorted(
            (Fraction(-int(g.coeff_monomial(1)), int(g.LC())), m)
            for g, m in factors
            if g.degree() == 1
        )
        assert rational_roots(f) == expected

    def test_integer_normalize(self):
        content, prim = integer_normalize(qpoly(Fraction(2, 3), Fraction(4, 3)))
        assert content == Fraction(2, 3)
        assert prim == [1, 2]


class TestGcdTower:
    def test_gcd_over_s_coefficients(self):
        f = parse_poly("(t - s)(t + s^2)")
        g = parse_poly("(t - s)(t - 1)")
        ft = f.coeff(0)  # strip X wrapper: polynomials constant in X
        gt = g.coeff(0)
        d = gcd_over_poly_coeffs(ft, gt)
        expected = parse_poly("t - s").coeff(0)
        assert d == expected or d == -expected

    def test_squarefree_part_bivariate(self):
        f = parse_poly("(t - s)^2 (t + 1)").coeff(0)
        sq = squarefree_part(f)
        expected = parse_poly("(t - s)(t + 1)").coeff(0)
        assert sq == expected or sq == -expected

    def test_squarefree_part_over_s_is_primitive(self):
        # s*(t^2 + 1) is squarefree in t; the content s still goes
        f = parse_poly("s*t^2 + s").coeff(0)
        assert squarefree_part(f) == parse_poly("t^2 + 1").coeff(0)
        assert squarefree_part(parse_poly("s*t").coeff(0)) == parse_poly("t").coeff(0)

    def test_squarefree_part_univariate(self):
        f = qpoly(0, 0, 1) * qpoly(-1, 1)  # X^2 (X-1)
        assert squarefree_part(f) == qpoly(0, 1) * qpoly(-1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        qpolys(2, nonzero=True), qpolys(3, nonzero=True), qpolys(3, nonzero=True),
        st.integers(1, 3),
    )
    def test_gcd_over_q_matches_sympy(self, sympy, c, a, b, k):
        # c is a planted common factor of f and g, and c^k a repeated one of f
        f, g = a * c**k, b * c
        X = sympy.Symbol("X")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(x) for x in reversed(p.coeffs)], X, domain="QQ")

        def back(p):
            return fraction_poly([Fraction(str(x)) for x in reversed(p.all_coeffs())])

        # both sides in the normal form: integer leaves, gcd 1, positive lc
        expected = primitive_part(back(sympy.gcd(to_sympy(f), to_sympy(g))))
        assert gcd_over_poly_coeffs(f, g) == expected
        assert squarefree_part(f) == primitive_part(back(sympy.sqf_part(to_sympy(f))))

    def test_gcd_field_monic(self):
        f = qpoly(-1, 0, 1) * qpoly(5, 1)
        g = qpoly(-1, 0, 1) * qpoly(7, 1)
        assert gcd_over_poly_coeffs(f, g) == qpoly(-1, 0, 1)

    def test_unlucky_first_points(self):
        # at s0 in {0, ±1, ±2} the images are (t - 1)^2 and interpolate
        # stably, so evaluation in s needed trial division to reject them;
        # kept as an input whose large s-factors share a common part
        q = "s(s - 1)(s + 1)(s - 2)(s + 2)"
        f = parse_poly(f"(t - 1)(t - 1 - {q})").coeff(0)
        g = parse_poly(f"(t - 1)(t - 1 + {q})").coeff(0)
        assert gcd_over_poly_coeffs(f, g) == parse_poly("t - 1").coeff(0)
        assert squarefree_part(f * f) == primitive_part(f)

    def test_unlucky_point_among_lucky_ones(self, monkeypatch):
        # the image at s0 = 1 is (t - 1)(t - 5), of degree 2, which evaluation
        # in s had to keep out of the interpolation of t - s^3; the points
        # are capped so that no gcd may lean on an evaluation route
        points = poly._integers
        monkeypatch.setattr(poly, "_integers", lambda: itertools.islice(points(), 12))
        f = parse_poly("(t - s^3)(t - 2s - 3)").coeff(0)
        g = parse_poly("(t - s^3)(t - 5)").coeff(0)
        assert gcd_over_poly_coeffs(f, g) == parse_poly("t - s^3").coeff(0)

    def test_vanishing_leading_coefficient(self):
        # lc_t is s for both, and at s = 0 the images are coprime; the gcd's
        # own lc depends on s
        f = parse_poly("(s t - 1)(t + s)").coeff(0)
        g = parse_poly("(s t - 1)(t - 2)").coeff(0)
        assert gcd_over_poly_coeffs(f, g) == parse_poly("s t - 1").coeff(0)

    @settings(max_examples=60, deadline=None)
    @given(zst_polys(min_degree=1), zst_polys(), zst_polys(), st.integers(1, 3))
    def test_gcd_over_z_s_matches_sympy(self, sympy, c, a, b, k):
        # c is a planted common factor of f and g, and c^k a repeated one of f
        f, g = a * c**k, b * c
        t, s = sympy.symbols("t s")

        def to_sympy(p):
            terms = {(i, j): x for i, cs in enumerate(p.coeffs) for j, x in enumerate(cs.coeffs)}
            return sympy.Poly.from_dict(terms, t, s, domain="ZZ")

        def back(p):
            zero, out = UniPoly((), "s"), UniPoly((), "t")
            for (i, j), x in p.terms():
                out = out + UniPoly([zero] * i + [UniPoly([0] * j + [int(x)], "s")], "t")
            return out

        # both sides in the normal form, over Q(s): the s-content goes too
        expected = primitive_part(back(sympy.gcd(to_sympy(f), to_sympy(g))))
        assert gcd_over_poly_coeffs(f, g) == expected
        assert squarefree_part(f) == primitive_part(back(sympy.sqf_part(to_sympy(f))))


def planted(sympy, a, b, c, k):
    """(a c^k, b c), each over the union of its factors' variables.  The
    products are taken in sympy, since the factors' chains may differ."""

    def times(p, e):
        inner = inner_variables(p) + inner_variables(c)
        names = tuple(v for v in ("s", "t") if v in inner) + (p.var,)
        return from_sympy(sympy, to_sympy_expr(sympy, p) * to_sympy_expr(sympy, c) ** e, names)

    return times(a, k), times(b, 1)


def from_sympy(sympy, expr, names):
    """A sympy polynomial with integer coefficients as a UniPoly nested over
    names, innermost first."""
    if not names:
        return int(expr)
    coeffs = sympy.Poly(expr, sympy.Symbol(names[-1])).all_coeffs()[::-1]
    return UniPoly([from_sympy(sympy, c, names[:-1]) for c in coeffs], names[-1])


def assert_is_the_gcd(sympy, f, g, G):
    """G is sympy's gcd of f and g, over the fraction field of their
    coefficient ring, made primitive over the ring, up to its sign; and G
    is in the normal form."""
    x = sympy.Symbol(G.var)
    want = sympy.Poly(sympy.gcd(to_sympy_expr(sympy, f), to_sympy_expr(sympy, g)), x).primitive()[1].as_expr()
    got = to_sympy_expr(sympy, G)
    assert sympy.expand(got - want) == 0 or sympy.expand(got + want) == 0
    assert_normal_form(G)


# inputs on which the first round's base is too small, one per depth
FIRST_BASE_FAILS = [
    (UniPoly([4, -4, 1], "t"), UniPoly([-4, 2, 6, -3], "t")),
    (
        parse_poly("(4 - 4s)t^2 + (4s^2 + 8s - 12)t - s^3 - 5s^2 - 3s + 9").coeff(0),
        parse_poly("4t^2 - (2s + 8)t + s + 3").coeff(0),
    ),
    (
        parse_poly("-(3s^2 + 10s + 3)X - 3s - 1"),
        parse_poly("(s + 3)X^2 + ((-3s - 9)t^2 + (3s^2 + 9s)t - 2s - 5)X - 3t^2 + 3st - 2"),
    ),
]


class TestHeuristicGcd:
    """gcd_over_poly_coeffs, one integer gcd per round, against sympy."""

    ONE = UniPoly([1], "X")

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[mixed_chains(st.integers(-3, 3), 3)] * 3, st.integers(1, 2)))
    @example((*FIRST_BASE_FAILS[0], ONE, 1))
    @example((*FIRST_BASE_FAILS[1], ONE, 1))
    @example((*FIRST_BASE_FAILS[2], ONE, 1))
    @example((ONE, parse_poly("X - t"), UniPoly([UniPoly([0, -1], "s"), UniPoly([1], "s")], "X"), 1))
    def test_matches_sympy(self, sympy, abck):
        # f = a c^k and g = b c, each over its own chain of variables; the
        # last example is X - s over Z[s] against (X - t)(X - s), which
        # raised an IndexError when the variables were read off one input
        f, g = planted(sympy, *abck)
        assert_is_the_gcd(sympy, f, g, gcd_over_poly_coeffs(f, g))

    @pytest.mark.parametrize("fg", FIRST_BASE_FAILS)
    def test_first_base_fails_and_doubling_proves(self, sympy, monkeypatch, fg):
        rounds = []
        wide = poly._wide_slots
        monkeypatch.setattr(poly, "_wide_slots", lambda *args: rounds.append(1) or wide(*args))
        f, g = fg
        G = gcd_over_poly_coeffs(f, g)
        assert rounds
        assert G.degree() == 1
        assert not pseudo_rem(f, G) and not pseudo_rem(g, G)
        assert_is_the_gcd(sympy, f, g, G)

    def test_content_over_z_s_t_leaves_no_factor_in_s(self):
        # the X-coefficients share s, t - 1 and 2; the X-gcd over Q(s, t)
        # is X + 1 however much of that content the inputs carry
        c = parse_poly("2s(t - 1)")
        f = parse_poly("(X + 1)(X - t)") * c
        g = parse_poly("(X + 1)(X + s)") * c * c
        assert gcd_over_poly_coeffs(f, g) == parse_poly("X + 1")
        assert primitive_part(f) == parse_poly("(X + 1)(X - t)")


def random_over_s(rng, t_degree, s_degree=2):
    """A polynomial in t over Q[s] with small rational leaves, nonzero lc."""
    while True:
        coeffs = [
            UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(s_degree + 1)], "s")
            for _ in range(t_degree + 1)
        ]
        if coeffs[-1]:
            return UniPoly(coeffs, "t")


def random_scalar(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def assert_normal_form(p):
    """Integer leaves with gcd 1 and a positive leading leaf."""
    values = []
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, UniPoly):
            stack.extend(q.coeffs)
        else:
            values.append(q)
    assert all(type(c) is int for c in values)
    assert math.gcd(*values) == 1
    lead = p
    while isinstance(lead, UniPoly):
        lead = lead.lc()
    assert lead > 0


class TestNormalForm:
    """Over Q[s][t] a gcd or squarefree part does not depend on how its
    inputs were scaled: each is returned in the one integer normal form."""

    SEEDS = range(150)

    def test_gcd_ignores_input_scaling(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            # a planted common factor whose lc depends on s
            c = random_over_s(rng, rng.randint(1, 2))
            f = random_over_s(rng, rng.randint(0, 2)) * c
            g = random_over_s(rng, rng.randint(0, 2)) * c
            d = gcd_over_poly_coeffs(f, g)
            assert gcd_over_poly_coeffs(f * random_scalar(rng), g * random_scalar(rng)) == d
            assert_normal_form(d)

    def test_squarefree_part_ignores_input_scaling(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_over_s(rng, rng.randint(0, 2)) * random_over_s(rng, rng.randint(1, 2)) ** 2
            sq = squarefree_part(f)
            assert squarefree_part(f * random_scalar(rng)) == sq
            assert_normal_form(sq)

    def test_integer_normalize_at_depth(self):
        f = parse_poly("-3/2 s t^2 + 9/4 t - 3/8").coeff(0)
        content, prim = integer_normalize(f)
        assert content == Fraction(-3, 8)
        assert UniPoly(prim, "t") == parse_poly("4 s t^2 - 6 t + 1").coeff(0)


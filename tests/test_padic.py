"""Splitting-shape engine tests.

Every frozen multiset below was derived by hand before running the engine:
Eisenstein criteria (possibly after recentering), quadratic-residue checks,
and explicit Newton polygons.  The hypothesis tests build polynomials as
products of pieces with known shapes, where the expected answer is a
theorem (coprime-mod-p pieces contribute independently).
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galspec.arith import NonPrimeError, primes_up_to, rational, valuation
from galspec.ffact import NotPIntegral, NotSquarefree, degree_sequence, factor_poly
from galspec.padic import (
    PadicShape,
    WildPrime,
    _Augmented,
    _shape,
    _StageZero,
    padic_shape,
)
from galspec.poly import UniPoly, discriminant_in, parse_poly, specialize


def fraction_poly(coeffs) -> UniPoly:
    """Build a Q-coefficient polynomial in X from a coefficient list."""
    return UniPoly([rational(c) for c in coeffs], "X")


def xp(*coeffs):
    """Monic-friendly shorthand: coefficients lowest first."""
    return fraction_poly(coeffs)


def _shape_exact(f: UniPoly, p: int) -> list:
    """_shape's inductive-valuation pairs even where p is prime to disc(f):
    a discriminant with p^2 put in sends it down that path, and keeps the
    tame gap even."""
    return list(_shape(f, p, discriminant_in(f, f.var) * p**2).pairs)


def shape_of(f, p):
    return Counter(padic_shape(f, p).pairs)


def disc_valuation_check(shape: PadicShape, f: UniPoly, p: int) -> bool:
    """True when v_p(disc f) equals the tame conductor sum of the shape.

    Exact equality holds iff Z[x]/(f) is maximal at p, so False is a
    meaningful answer, not an error: it flags either a wrong shape or an
    order that is not p-maximal.
    """
    dv = valuation(discriminant_in(f, f.var), p)
    return dv == sum((e - 1) * res for e, res in shape.pairs)


def eisenstein_piece(p, shift, e, unit):
    """(X-shift)^e - p*unit: irreducible with shape (e, 1)."""
    return xp(-shift, 1) ** e - p * unit


def irreducibles_mod(p, d, count):
    """First monic irreducible lifts of degree d mod p, lex order."""
    out = []
    for tail in itertools.product(range(p), repeat=d):
        try:
            if degree_sequence(tail + (1,), p) == [d]:
                out.append(xp(*tail, 1))
        except NotSquarefree:
            continue
        if len(out) == count:
            break
    return out


class TestFrozenShapes:
    def test_eisenstein_after_unit(self):
        # 12 = 4*3: unit times 3, so X^2-12 ramifies at 3
        assert shape_of(xp(-12, 0, 1), 3) == Counter({(2, 1): 1})

    def test_inert_quadratic(self):
        # squares mod 5 are {1, 4}; 12 = 2 is not one
        assert shape_of(xp(-12, 0, 1), 5) == Counter({(1, 2): 1})

    def test_eisenstein_cubics(self):
        for unit in (1, 2, -3):
            f = xp(-5 * unit, 0, 0, 1)
            assert shape_of(f, 5) == Counter({(3, 1): 1})

    def test_ramified_quadratic(self):
        assert shape_of(xp(-5, 0, 1), 5) == Counter({(2, 1): 1})

    def test_two_ramified_pieces(self):
        # X^4-9 = (X^2-3)(X^2+3), both Eisenstein at 3
        assert shape_of(xp(-9, 0, 0, 0, 1), 3) == Counter({(2, 1): 2})

    def test_cyclotomic_times_quadratic(self):
        # (X^2+X+1)(X^2-3) at 3: both pieces ramify (disc -3 and 12)
        f = xp(-3, -3, -2, 1, 1)
        assert shape_of(f, 3) == Counter({(2, 1): 2})

    def test_three_quadratics_at_5(self):
        # (X^2-2)(X^2-3)(X^2-6): 2 and 3 are non-squares mod 5, 6 = 1 is one
        f = xp(-36, 0, 36, 0, -11, 0, 1)
        assert shape_of(f, 5) == Counter({(1, 2): 2, (1, 1): 2})

    def test_congruent_unramified_pair(self):
        # (X^2+1)(X^2+8) at 7: congruent mod 7, both inert; forces the
        # engine past the shared residual (z^2+1)^2 and an exact divisor
        f = xp(8, 0, 9, 0, 1)
        assert shape_of(f, 7) == Counter({(1, 2): 2})

    def test_second_order_refinement(self):
        # (X^2-7)(X^2-56) at 7: both ramified, congruent to first order
        # (residual (z+6)^2), separated only after refining the key twice
        f = xp(392, 0, -63, 0, 1)
        assert shape_of(f, 7) == Counter({(2, 1): 2})

    def test_split_after_scaling(self):
        # X^2-98 = (X-7a)(X+7a) with a^2 = 2, a square mod 7
        assert shape_of(xp(-98, 0, 1), 7) == Counter({(1, 1): 2})

    def test_root_at_zero(self):
        # X(X^2-12) at 3: the X factor is a clean (1,1)
        assert shape_of(xp(0, -12, 0, 1), 3) == Counter({(1, 1): 1, (2, 1): 1})

    def test_degree_one(self):
        assert shape_of(xp(-3, 1), 5) == Counter({(1, 1): 1})

    def test_deep_congruence_splits(self):
        # X^2 - (1+3^5): 1+243 = 244 = 4*61, a square mod 3 to all orders
        assert shape_of(xp(-244, 0, 1), 3) == Counter({(1, 1): 2})

    def test_long_refinement_chain_stays_cheap(self):
        # roots congruent to order 12 force a dozen refinement stages;
        # the residue field must not grow along the way
        f = xp(-1, 1) * xp(-1 - 3**12, 1)
        assert shape_of(f, 3) == Counter({(1, 1): 2})

    def test_mixed_septic(self):
        # (X^2-5)(X^3-5)(X-2)(X^2+X+2) at 5: two Eisenstein pieces, a
        # rational root, and an inert quadratic (disc -7, non-square mod 5)
        f = xp(-5, 0, 1) * xp(-5, 0, 0, 1) * xp(-2, 1) * xp(2, 1, 1)
        assert shape_of(f, 5) == Counter(
            {(2, 1): 1, (3, 1): 1, (1, 1): 1, (1, 2): 1}
        )

    def test_shape_is_sorted_and_tame(self):
        shape = padic_shape(xp(0, -12, 0, 1), 3)
        assert shape.pairs == ((2, 1), (1, 1))
        assert shape.p == 3
        assert shape.degree() == 3


class TestFlagshipSpecialization:
    F = (
        "X^7 - 2sX^6 + (s^3 + s^2 + 3s - 2)X^4 + (-2s^3 - 4s^2 + 5s - 8)X^3"
        " + (s^3 + 4s^2 - 10s + 16)X^2 + (-s^2 + 5s - 12)X - s + 4"
        " + tX^2(X - 1)(X^2 - sX + s)"
    )

    def test_inert_at_11(self):
        f = specialize(parse_poly(self.F), {"s": Fraction(1), "t": Fraction(0)})
        assert shape_of(f, 11) == Counter({(1, 7): 1})

    def test_parameters_must_be_bound(self):
        with pytest.raises(ValueError):
            padic_shape(parse_poly("X^2 - t"), 5)


class TestRefusals:
    def test_wild_eisenstein(self):
        with pytest.raises(WildPrime):
            padic_shape(xp(-2, 0, 1), 2)
        with pytest.raises(WildPrime):
            padic_shape(xp(-3, 0, 0, 1), 3)
        with pytest.raises(WildPrime):
            padic_shape(xp(-7, 0, 0, 0, 0, 0, 0, 1), 7)

    def test_wild_inside_product(self):
        # (X^2-3)(X-1) at 3 carries a wild e=2... no: 2 is prime to 3.
        # X^2-2 at 2 inside a larger product still refuses.
        f = xp(-2, 0, 1) * xp(-3, 1)
        with pytest.raises(WildPrime):
            padic_shape(f, 2)

    def test_repeated_factor(self):
        with pytest.raises(NotSquarefree):
            padic_shape(xp(1, -2, 1), 5)

    def test_non_monic(self):
        with pytest.raises(ValueError):
            padic_shape(xp(-1, 0, 2), 5)

    def test_non_integral(self):
        with pytest.raises(NotPIntegral):
            padic_shape(xp(Fraction(-1, 3), 0, 1), 3)

    def test_composite_modulus(self):
        with pytest.raises(NonPrimeError):
            padic_shape(xp(-2, 0, 1), 6)

    def test_constant(self):
        with pytest.raises(ValueError):
            padic_shape(xp(5), 3)

    def test_integrality_is_refused_before_squarefreeness(self):
        # (X + 1/6)^2 is both: the denominator wins at 3, the square at 5
        f = xp(Fraction(1, 36), Fraction(1, 3), 1)
        with pytest.raises(NotPIntegral):
            padic_shape(f, 3)
        with pytest.raises(NotSquarefree):
            padic_shape(f, 5)
        with pytest.raises(NotSquarefree):
            padic_shape(xp(0, 0, 1), 7)


class TestDiscValuationCheck:
    def test_maximal_orders(self):
        for coeffs, p in [((-12, 0, 1), 3), ((-12, 0, 1), 5), ((-5, 0, 0, 1), 5)]:
            f = xp(*coeffs)
            assert disc_valuation_check(padic_shape(f, p), f, p)

    def test_non_maximal_order_fails_honestly(self):
        # (X^2-7)(X^2-56): v_7(disc) = 10 but the tame conductor sum is 2,
        # so the equality test must say no (the gap is the index part)
        f = xp(392, 0, -63, 0, 1)
        X = sympy.symbols("X")
        dv = sympy.multiplicity(7, int(sympy.Poly(X**4 - 63 * X**2 + 392, X).discriminant()))
        assert dv == 10
        shape = padic_shape(f, 7)
        assert sum((e - 1) * r for e, r in shape.pairs) == 2
        assert not disc_valuation_check(shape, f, 7)


class TestAgreement:
    def test_exact_engine_matches_fast_path(self):
        cases = [
            (xp(1, 0, 1), 5),
            (xp(-2, 0, 0, 1), 5),
            (xp(2, 1, 0, 1), 3),
            (xp(-2, 3, 0, 0, 1), 7),
        ]
        for f, p in cases:
            fast = padic_shape(f, p).pairs
            assert Counter(_shape_exact(f, p)) == Counter(fast)

    def test_unramified_part_matches_degree_sequence(self):
        # shape invariant: the residue degrees of the e=1 factors are the
        # degree sequence of the unramified subproduct mod p
        p = 5
        unram = irreducibles_mod(p, 2, 1)[0] * xp(-3, 1)
        f = eisenstein_piece(p, 1, 2, 2) * unram
        shape = padic_shape(f, p)
        got = sorted(r for e, r in shape.pairs if e == 1)
        assert got == degree_sequence(unram.coeffs, p)


@st.composite
def hensel_products(draw):
    """Product of mod-p coprime pieces with known shapes."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n_eis = draw(st.integers(0, 2))
    n_unram = draw(st.integers(0 if n_eis else 1, 2))
    f = xp(1)
    expected = []
    shifts = draw(
        st.lists(st.integers(0, p - 1), min_size=n_eis, max_size=n_eis, unique=True)
    )
    for a in shifts:
        e = draw(st.sampled_from([e for e in (2, 3, 4, 5) if e % p]))
        c = draw(st.integers(1, p - 1))
        f = f * eisenstein_piece(p, a, e, c)
        expected.append((e, 1))
    table = irreducibles_mod(p, 2, 3) + irreducibles_mod(p, 3, 2)
    picks = draw(
        st.lists(st.integers(0, len(table) - 1), min_size=n_unram,
                 max_size=n_unram, unique=True)
    )
    for i in picks:
        f = f * table[i]
        expected.append((1, table[i].degree()))
    return f, p, expected


@st.composite
def multistage_products(draw):
    """Product of mod-p coprime pieces whose shapes take augmented stages.

    - tower ((q)^e1 - p*u)^e2 - p^k*w, q = X - c or an irreducible quadratic,
      gcd(e1, e2) = gcd(k, e2) = 1 and k > e2: two augmentations, one
      factor (e1*e2, deg q);
    - Schoenemann q^e - p*u, q irreducible quadratic mod p: (e, 2), read
      over an extension of the residue field;
    - (X - c)^(2m) - p^(2j)*u with gcd(m, j) = 1: the residual y^2 - u
      splits into two (m, 1) or stays one (m, 2) by the residue symbol of u.
    """
    p = draw(st.sampled_from([5, 7, 11, 13]))
    kinds = draw(
        st.lists(st.sampled_from(["tower", "schoenemann", "split"]), min_size=1, max_size=3)
    )
    centers = iter(draw(st.permutations(range(p))))
    quads = iter(irreducibles_mod(p, 2, 3))
    unit = st.integers(1, p - 1)
    f = xp(1)
    expected = []
    for kind in kinds:
        if kind == "tower":
            q = xp(-next(centers), 1) if draw(st.booleans()) else next(quads)
            e1, e2 = draw(st.sampled_from([(2, 3), (3, 2)]))
            k = draw(st.sampled_from([k for k in range(e2 + 1, e2 + 4) if math.gcd(k, e2) == 1]))
            f = f * ((q**e1 - p * draw(unit)) ** e2 - p**k * draw(unit))
            expected.append((e1 * e2, q.degree()))
        elif kind == "schoenemann":
            e = draw(st.sampled_from([2, 3]))
            f = f * (next(quads) ** e - p * draw(unit))
            expected.append((e, 2))
        else:
            m, j = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 2)]))
            u = draw(unit)
            f = f * (xp(-next(centers), 1) ** (2 * m) - p ** (2 * j) * u)
            if pow(u, (p - 1) // 2, p) == 1:
                expected += [(m, 1), (m, 1)]
            else:
                expected.append((m, 2))
    return f, p, expected


class TestConstructedProducts:
    @settings(max_examples=60, deadline=None)
    @given(hensel_products())
    def test_shape_is_union_of_piece_shapes(self, case):
        f, p, expected = case
        assert shape_of(f, p) == Counter(expected)

    @settings(max_examples=40, deadline=None)
    @given(multistage_products())
    def test_multistage_shape_is_union_of_piece_shapes(self, case):
        f, p, expected = case
        assert shape_of(f, p) == Counter(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(-6, 6),
        case=st.sampled_from(
            [
                ((-12, 0, 1), 3, ((2, 1),)),
                ((-12, 0, 1), 5, ((1, 2),)),
                ((392, 0, -63, 0, 1), 7, ((2, 1), (2, 1))),
                ((8, 0, 9, 0, 1), 7, ((1, 2), (1, 2))),
                ((-5, 0, 0, 1), 5, ((3, 1),)),
            ]
        ),
    )
    def test_translation_invariance(self, c, case):
        coeffs, p, expected = case
        f = xp(*coeffs)
        g = f.evaluate(xp(c, 1))
        assert isinstance(g, UniPoly)
        assert Counter(padic_shape(g, p).pairs) == Counter(expected)


class TestStageValues:
    # (X^2 - 5)^3 - 5^4: v(X) = 1/2 at the base stage, then the key
    # X^2 - 5 takes the value 4/3, so the second stage has D = 2 * 3
    F = xp(-5, 0, 1) ** 3 - 625

    def test_base_stage_value_is_scaled_int(self):
        V = _StageZero(5, Fraction(1, 2), "X")
        assert V.D == 2
        v = V.value(self.F)
        assert type(v) is int and v == 3 * V.D

    def test_second_stage_value_is_scaled_int(self):
        V = _StageZero(5, Fraction(1, 2), "X")
        h, _i0, _j0, _v = V.reduction(self.F)
        _unit, [(u, _mult)] = factor_poly(V.field, h, seed=0)
        phi = V.lift_key(u)
        [(nu, _length)] = V.new_values(self.F, phi, V.value(phi))
        assert nu == Fraction(4, 3)
        W = _Augmented(V, phi, nu, u)
        assert W.D == 6
        v = W.value(self.F)
        assert type(v) is int and v == 4 * W.D


class TestRandomizedInvariants:
    @settings(max_examples=80, deadline=None)
    @given(
        p=st.sampled_from([3, 5, 7]),
        tail=st.lists(st.integers(-30, 30), min_size=2, max_size=6),
    )
    def test_degree_accounting_and_determinism(self, p, tail):
        f = xp(*tail, 1)
        assume(discriminant_in(f, "X") != 0)
        try:
            shape = padic_shape(f, p)
        except WildPrime:
            return
        assert shape.degree() == f.degree()
        assert all(e % p for e, _ in shape.pairs)
        assert padic_shape(f, p) == shape


@st.composite
def monic_integer_polys(draw):
    """Monic integer f of degree 1-6; half are g^2 * h, so disc(f) = 0."""
    if draw(st.booleans()):
        return xp(*draw(st.lists(st.integers(-60, 60), min_size=1, max_size=6)), 1)
    g = xp(*draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2)), 1)
    h = xp(*draw(st.lists(st.integers(-9, 9), max_size=2)), 1)
    return g * g * h


class TestDiscriminantDispatch:
    @settings(max_examples=80)
    @given(monic_integer_polys(), st.sampled_from(primes_up_to(47)))
    def test_prime_to_disc_is_unramified_mod_p_split(self, sympy, f, p):
        # oracle: sympy's discriminant and its factorization mod p
        X = sympy.Symbol("X")
        sf = sum(int(c) * X**i for i, c in enumerate(f.coeffs))
        disc = int(sympy.discriminant(sf, X))
        if disc == 0:
            with pytest.raises(NotSquarefree):
                padic_shape(f, p)
            return
        if disc % p == 0:
            return
        _unit, factors = sympy.Poly(sf, X, modulus=p).factor_list()
        expected = sorted(((1, g.degree()) for g, _m in factors), reverse=True)
        assert list(padic_shape(f, p).pairs) == expected

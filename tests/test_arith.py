"""Exact rational arithmetic: valuations, CRT, primality."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galspec.arith import (
    INFINITY,
    Congruence,
    InconsistentCongruences,
    NonPrimeError,
    crt,
    format_rat,
    is_prime,
    parse_rat,
    primes_up_to,
    rational,
    valuation,
)


def unit_part(x, p: int) -> Fraction:
    """x / p^valuation(x, p); undefined (raises) for x = 0."""
    x = rational(x)
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    v = valuation(x, p)
    return x / Fraction(p) ** v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, 1, -1 or 0, by Euler's
    criterion (test-only oracle)."""
    if p == 2 or not is_prime(p):
        raise ValueError("Legendre symbol needs an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class TestValuation:
    def test_positive(self):
        assert valuation(Fraction(75, 2), 5) == 2

    def test_zero(self):
        assert valuation(Fraction(0), 7) == INFINITY

    def test_denominator(self):
        assert valuation(Fraction(3, 25), 5) == -2

    def test_integer_input(self):
        assert valuation(50, 5) == 2

    def test_prime_past_two_to_the_31(self):
        q = 2147483659  # the least prime above 2^31
        assert valuation(5 * q, q) == 1

    def test_float_rejected(self):
        # Fraction(1/3) is the dyadic rational nearest 1/3, of 3-adic valuation 3, not -1
        with pytest.raises(TypeError, match="float"):
            valuation(1 / 3, 3)

    def test_rejects_composite(self):
        with pytest.raises(NonPrimeError):
            valuation(Fraction(4), 6)

    @given(
        st.fractions(min_value=-1000, max_value=1000),
        st.fractions(min_value=-1000, max_value=1000),
        st.sampled_from([2, 3, 5, 7, 13]),
    )
    def test_multiplicative_and_ultrametric(self, x, y, p):
        if x and y:
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
        vx, vy = valuation(x, p), valuation(y, p)
        vsum = valuation(x + y, p)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)

    @given(st.fractions(min_value=-10**6, max_value=10**6), st.sampled_from([2, 5, 11]))
    def test_unit_part_reconstructs(self, x, p):
        if not x:
            return
        v = valuation(x, p)
        u = unit_part(x, p)
        assert valuation(u, p) == 0
        assert u * Fraction(p) ** v == x


class TestCrt:
    def test_two_moduli(self):
        assert crt([Congruence(2, 3), Congruence(3, 5)]) == Congruence(8, 15)

    def test_identity(self):
        assert crt([Congruence(0, 2)]) == Congruence(0, 2)

    def test_three_moduli_against_scan(self):
        # independent oracle: exhaustive scan of the full residue range
        conds = [Congruence(1, 4), Congruence(2, 9), Congruence(3, 5)]
        hits = [x for x in range(180) if all(c.contains(x) for c in conds)]
        assert hits == [173]
        assert crt(conds) == Congruence(173, 180)

    def test_consistent_overlap_merges(self):
        assert crt([Congruence(1, 4), Congruence(3, 6)]) == Congruence(9, 12)

    def test_inconsistent_overlap(self):
        with pytest.raises(InconsistentCongruences):
            crt([Congruence(0, 4), Congruence(1, 2)])

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([4, 9, 5, 7, 121])), min_size=1, max_size=4))
    def test_output_implies_inputs(self, raw):
        conds = [Congruence(r % m, m) for r, m in raw]
        try:
            out = crt(conds)
        except InconsistentCongruences:
            return
        for c in conds:
            assert out.modulus % c.modulus == 0
            assert out.residue % c.modulus == c.residue

    def test_congruence_normalizes_and_prints(self):
        c = Congruence(-1, 7)
        assert c.residue == 6
        assert str(c) == "6 mod 7"
        assert c.contains(20)
        assert not c.contains(21)


class TestPrimes:
    def test_small_table(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_against_sympy(self):
        import sympy

        for n in list(range(2, 500)) + [2**31 - 1, 10**12 + 39, 10**12 + 40]:
            assert is_prime(n) == sympy.isprime(n), n


class TestLegendre:
    def test_against_sympy(self):
        from sympy.functions.combinatorial.numbers import legendre_symbol

        for p in [3, 5, 7, 11, 13, 101]:
            for a in range(-6, 15):
                assert legendre(a, p) == legendre_symbol(a % p, p)

    def test_rejects_p_equal_two(self):
        with pytest.raises(ValueError):
            legendre(3, 2)


class TestRatIO:
    @given(st.fractions(min_value=-(10**9), max_value=10**9))
    def test_round_trip(self, x):
        assert parse_rat(format_rat(x)) == x

    def test_forms(self):
        assert parse_rat("7") == 7
        assert parse_rat("-3/4") == Fraction(-3, 4)
        assert format_rat(Fraction(-3, 4)) == "-3/4"
        assert format_rat(Fraction(5)) == "5"
        with pytest.raises(ValueError):
            parse_rat("3/-4")

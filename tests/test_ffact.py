"""Finite field factorization: mod-p interface and extension towers."""

import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from galspec.ffact import (
    ExtField,
    FpField,
    NotPIntegral,
    NotSquarefree,
    degree_sequence,
    equal_degree,
    factor_poly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow_mod,
    poly_sub,
    reduce_mod_p,
    squarefree_decomposition,
)
from galspec.poly import parse_poly, specialize, x_poly_coeffs

F_PSL = (
    "X^7 - 2sX^6 + (s^3 + s^2 + 3s - 2)X^4 + (-2s^3 - 4s^2 + 5s - 8)X^3"
    " + (s^3 + 4s^2 - 10s + 16)X^2 + (-s^2 + 5s - 12)X - s + 4"
    " + tX^2(X - 1)(X^2 - sX + s)"
)


def factor_mod_p(coeffs, p: int, seed: int = 0):
    """(unit, factors) of the integer polynomial coeffs reduced mod p."""
    return factor_poly(FpField(p), reduce_mod_p(coeffs, p), seed=seed)


def frobenius_gcd_degrees(f: list, p: int) -> list[int]:
    """Independent degree-multiset oracle: gcd with X^(p^d) - X for d <= deg."""
    K = FpField(p)
    rem = reduce_mod_p(f, p)
    seq = []
    for d in range(1, len(rem)):
        if len(rem) - 1 < d:
            break
        h = poly_pow_mod(K, [0, 1], p**d, rem)
        g = poly_gcd(K, poly_sub(K, h, [0, 1]), rem)
        if len(g) > 1:
            seq.extend([d] * ((len(g) - 1) // d))
            rem = poly_divmod(K, rem, g)[0]
    return sorted(seq)


def product(fac, p: int) -> list:
    """unit times the product of factor^multiplicity; equals the input."""
    K = FpField(p)
    unit, factors = fac
    acc = [unit % p]
    for g, mult in factors:
        for _ in range(mult):
            acc = poly_mul(K, acc, g)
    return acc


class TestFactorModP:
    def test_split_quadratic(self):
        _unit, factors = factor_mod_p([1, 0, 1], 5)
        assert [(tuple(g), m) for g, m in factors] == [
            ((2, 1), 1), ((3, 1), 1),
        ]

    def test_inert_quadratic(self):
        _unit, factors = factor_mod_p([1, 0, 1], 3)
        assert len(factors) == 1
        assert len(factors[0][0]) - 1 == 2

    def test_cubic_trap_resolved_by_oracle(self):
        # 3^3 = 27 = 2 mod 5, so X^3 - 2 has the root 3 and splits {1, 2}
        f = [-2, 0, 0, 1]
        assert frobenius_gcd_degrees(f, 5) == [1, 2]
        assert degree_sequence(f, 5) == [1, 2]
        _unit, factors = factor_mod_p(f, 5)
        assert [(tuple(g), m) for g, m in factors] == [
            ((2, 1), 1), ((4, 3, 1), 1),
        ]

    def test_flagship_at_s1_t0_p11(self):
        f = specialize(parse_poly(F_PSL), {"s": 1, "t": 0})
        fp = reduce_mod_p(x_poly_coeffs(f), 11)
        assert tuple(fp) == (3, 3, 0, 2, 3, 0, 9, 1)
        # brute-force root count: no roots mod 11
        assert [a for a in range(11) if sum(c * a**i for i, c in enumerate(fp)) % 11 == 0] == []
        assert frobenius_gcd_degrees(fp, 11) == [7]
        assert degree_sequence(fp, 11) == [7]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_mod_p([], 7)

    def test_unit_and_multiplicity(self):
        # 3 (X-1)^2 (X^2+1) mod 7
        K = FpField(7)
        f = poly_mul(K, poly_mul(K, [3], poly_mul(K, [-1, 1], [-1, 1])), [1, 0, 1])
        unit, factors = factor_mod_p(f, 7)
        assert unit == 3
        assert [(tuple(g), m) for g, m in factors] == [
            ((6, 1), 2), ((1, 0, 1), 1),
        ]

    @given(
        st.sampled_from([2, 3, 5, 13]),
        st.lists(st.integers(0, 100), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_product_reconstructs(self, p, coeffs):
        f = reduce_mod_p(coeffs, p)
        if not f:
            return
        assert product(factor_mod_p(f, p), p) == f

    @given(
        st.sampled_from([2, 3, 7, 1999]),
        st.lists(st.integers(0, 2000), min_size=2, max_size=10),
    )
    @settings(max_examples=60)
    def test_matches_sympy(self, sympy, p, coeffs):
        f = reduce_mod_p(coeffs, p)
        if len(f) < 2:
            return
        X = sympy.Symbol("X")
        sf = sum(int(c) * X**i for i, c in enumerate(f))
        sunit, sfactors = sympy.Poly(sf, X, modulus=p).factor_list()
        expected = sorted(
            (tuple(int(c) % p for c in reversed(g.all_coeffs())), m)
            for g, m in sfactors
        )
        ours = sorted((tuple(g), m) for g, m in factor_mod_p(f, p)[1])
        assert ours == expected

    def test_seed_independent_result(self):
        # canonical sorting makes the output independent of the split seed
        K = FpField(13)
        f = [1, 0, 1]
        for a in (2, 5, 7, 11):
            f = poly_mul(K, f, [a, 1])
        runs = [factor_mod_p(f, 13, seed=s) for s in (0, 1, 99)]
        assert runs[0] == runs[1] == runs[2]


class TestDegreeSequence:
    def test_split_root(self):
        assert degree_sequence([-2, 0, 1], 7) == [1, 1]

    def test_constructed(self):
        K = FpField(3)
        f = poly_mul(K, poly_mul(K, [-1, 1], [-2, 1]), [1, 0, 1])
        assert degree_sequence(f, 3) == [1, 1, 2]

    def test_not_squarefree(self):
        K = FpField(5)
        f = poly_mul(K, [-1, 1], [-1, 1])
        with pytest.raises(NotSquarefree):
            degree_sequence(f, 5)

    def test_pth_power_flagged(self):
        # X^3 - 1 = (X - 1)^3 mod 3
        with pytest.raises(NotSquarefree):
            degree_sequence([-1, 0, 0, 1], 3)

    def test_constant_is_empty(self):
        assert degree_sequence([2], 5) == []

    @given(
        st.sampled_from([3, 5, 11]),
        st.lists(st.integers(0, 60), min_size=2, max_size=8),
    )
    @settings(max_examples=80)
    def test_agrees_with_full_factorization(self, p, coeffs):
        f = reduce_mod_p(coeffs, p)
        if len(f) < 2:
            return
        _unit, factors = factor_mod_p(f, p)
        squarefree = all(m == 1 for _, m in factors)
        if squarefree:
            assert degree_sequence(f, p) == sorted(len(g) - 1 for g, _ in factors)
        else:
            with pytest.raises(NotSquarefree):
                degree_sequence(f, p)


class TestReduceModP:
    def test_fraction_coefficients(self):
        fp = reduce_mod_p([Fraction(3, 4), Fraction(1), Fraction(2)], 5)
        assert tuple(fp) == (2, 1, 2)

    def test_non_integral(self):
        with pytest.raises(NotPIntegral):
            reduce_mod_p([Fraction(1, 5), Fraction(1)], 5)


class TestExtensionFields:
    def test_f4_splits_x4_minus_x(self):
        F2 = FpField(2)
        F4 = ExtField(F2, (1, 1, 1))
        f = [F4.zero(), F4.neg(F4.one()), F4.zero(), F4.zero(), F4.one()]
        _, factors = factor_poly(F4, f)
        assert sorted(len(g) - 1 for g, _ in factors) == [1, 1, 1, 1]

    def test_f4_artin_schreier_irreducible(self):
        # X^2 + X + g has trace(g) = 1 over F_2, hence no root in F_4
        F4 = ExtField(FpField(2), (1, 1, 1))
        g = F4.gen()
        _, factors = factor_poly(F4, [g, F4.one(), F4.one()])
        assert [(len(h) - 1, m) for h, m in factors] == [(2, 1)]

    def test_f9_splits_x9_minus_x(self):
        F9 = ExtField(FpField(3), (1, 0, 1))
        f = [F9.zero()] * 9 + [F9.one()]
        f[1] = F9.neg(F9.one())
        _, factors = factor_poly(F9, f)
        assert sorted(len(g) - 1 for g, _ in factors) == [1] * 9

    def test_tower_arithmetic(self):
        F3 = FpField(3)
        F9 = ExtField(F3, (1, 0, 1))
        g9 = F9.gen()
        F81 = ExtField(F9, (F9.neg(g9), F9.zero(), F9.one()))
        b = F81.gen()
        assert F81.mul(b, b) == F81.embed(g9)
        assert F81.pow(b, 80) == F81.one()
        assert F81.pow(F81.pth_root(b), 3) == b

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_inverse_property(self, seed):
        F9 = ExtField(FpField(3), (1, 0, 1))
        rng = random.Random(seed)
        a = F9.random(rng)
        if a == F9.zero():
            return
        assert F9.mul(a, F9.inv(a)) == F9.one()

    def test_squarefree_decomposition_pth_powers(self):
        F3 = FpField(3)
        f = [1]
        for _ in range(3):
            f = poly_mul(F3, f, [1, 1])
        f = poly_mul(F3, f, [0, 0, 1])
        parts = squarefree_decomposition(F3, f)
        assert [(g, m) for g, m in parts] == [([0, 1], 2), ([1, 1], 3)]

"""Finite field factorization: mod-p interface and extension towers."""

import itertools
import math
import random
from array import array

import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from galspec import ffact
from galspec.arith import is_prime
from galspec.ffact import (
    ExtField,
    FpField,
    NotPIntegral,
    NotSquarefree,
    degree_sequence,
    distinct_degree,
    equal_degree,
    factor_poly,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_pow_mod,
    poly_sub,
    poly_trim,
    reduce_mod_p,
    roots_mod_p,
    split_degrees,
    squarefree_decomposition,
)
from galspec.poly import UniPoly, discriminant_in, parse_poly, specialize, x_poly_coeffs

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

    def test_unit_and_multiplicity(self, monkeypatch):
        # 3 (X-1)^2 (X^2+1) mod 7
        K = FpField(7)
        f = poly_mul(K, poly_mul(K, [3], poly_mul(K, [-1, 1], [-1, 1])), [1, 0, 1])
        unit, factors = factor_mod_p(f, 7)
        assert unit == 3
        assert [(tuple(g), m) for g, m in factors] == [
            ((6, 1), 2), ((1, 0, 1), 1),
        ]
        # a linear input is its own monic factor, read with no factoring stage
        monkeypatch.setattr(ffact, "squarefree_decomposition", None)
        assert factor_poly(K, [2, 3]) == (3, [([3, 1], 1)])  # 3X + 2 = 3 (X + 3)
        F9 = tower("F9")
        i = F9.gen()
        assert factor_poly(F9, [F9.one(), i]) == (i, [([F9.inv(i), F9.one()], 1)])
        assert factor_poly(F9, [i, F9.one()]) == (F9.one(), [([i, F9.one()], 1)])

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


class TestSplitDegrees:
    @given(
        # 7 and 11 put p = n and p = n + 1 among degrees 6-10, where the
        # trace read gives way to distinct-degree splitting
        st.sampled_from([2, 3, 5, 7, 11, 97, 1999, 2**61 - 1]),
        st.lists(st.integers(0, 1998), min_size=1, max_size=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_sympy(self, sympy, p, low):
        # monic of degree 1-10; squaring's doubled cross terms must stay exact
        f = reduce_mod_p(low + [1], p)
        X = sympy.Symbol("X")
        sf = sympy.Poly(sum(int(c) * X**i for i, c in enumerate(f)), X, modulus=p)
        if sympy.degree(sympy.gcd(sf, sf.diff(X))) > 0:
            return
        _unit, factors = sf.factor_list()
        assert split_degrees(f, p) == sorted(g.degree() for g, _ in factors)

    def test_irreducible_cubic_needs_no_frobenius_step(self, monkeypatch):
        # N_1 = trace(Q) and N_2 = the sum of Q_ij * Q_ji come from the rows
        # x^(p*i) alone; only d >= 3 combines rows, once per row for Q^2
        calls = []
        original = ffact._FpRing.combine
        monkeypatch.setattr(
            ffact._FpRing, "combine", lambda *args: calls.append(args) or original(*args)
        )
        assert split_degrees([-2, 0, 0, 1], 7) == [3]  # 2 is no cube mod 7
        assert split_degrees([1, 0, 0, 0, 1], 7) == [2, 2]  # read at d = 2
        assert calls == []
        assert split_degrees([-4, -1, 0, 0, 0, 0, 0, 1], 11) == [7]  # irreducible
        assert len(calls) == 7

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_trace_read_matches_the_gcd_oracle(self, p):
        # x^p - x has N_1 = p, which the read mod p would take for 0; and
        # a factor of degree e | d is counted in N_d at every such d
        K, rng = FpField(p), random.Random(p)
        cases = [[0, p - 1] + [0] * (p - 2) + [1]]
        while len(cases) < 60:
            f = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [1]
            if len(poly_gcd(K, f, ffact.poly_deriv(K, f))) == 1:
                cases.append(f)
        for f in cases:
            assert split_degrees(f, p) == frobenius_gcd_degrees(f, p), f
        assert split_degrees(cases[0], p) == [1] * p


class TestStickelbergerStop:
    """split_degrees given (disc f / p) stops where at most two factors are
    left and reads their number off the parity (-1)^(n - r)."""

    @given(
        st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 1009]),
        st.lists(st.integers(-60, 60), min_size=2, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_symbol_matches_factor_poly(self, p, low):
        # monic integer f of degree 2-12, squarefree mod an odd p > deg f
        f = low + [1]
        assume(p > len(low))
        K, fp = FpField(p), reduce_mod_p(f, p)
        assume(len(poly_gcd(K, fp, ffact.poly_deriv(K, fp))) == 1)
        disc = discriminant_in(UniPoly(f, "X"), "X")
        symbol = 1 if pow(disc % p, (p - 1) // 2, p) == 1 else -1
        _unit, factors = factor_poly(K, fp)
        assert split_degrees(f, p, symbol) == sorted(len(g) - 1 for g, _ in factors)

    def test_degree_seven_needs_no_degree_three_step(self, monkeypatch):
        # after d = 2 an irreducible septic leaves L = 7 <= 2d + 3: it is
        # one factor or 3 + 4, and the symbol tells them apart; a quadratic
        # is read off the symbol alone
        rings, calls = [], []
        ring, combine = ffact._ring, ffact._FpRing.combine
        monkeypatch.setattr(ffact, "_ring", lambda *args: rings.append(1) or ring(*args))
        monkeypatch.setattr(
            ffact._FpRing, "combine", lambda *args: calls.append(args) or combine(*args)
        )
        assert split_degrees([-4, -1, 0, 0, 0, 0, 0, 1], 11, 1) == [7]
        assert calls == []
        assert split_degrees([2, 0, 1], 7, -1) == [2] and split_degrees([-2, 0, 1], 7, 1) == [1, 1]
        assert len(rings) == 1


def reference_pow_mod(K, base: list, n: int, mod: list) -> list:
    """Square-and-multiply on coefficient lists, as poly_pow_mod over F_p was
    computed before the packed quotient ring: each square takes its cross
    products once and doubles them, and each product is divided by mod
    once, with lc(mod)^-1 computed once."""
    p = K.p
    base = poly_mod(K, base, mod)
    if not n:
        return poly_mod(K, [1], mod)  # [] mod a constant, [1] otherwise
    inv_lc = pow(mod[-1], -1, p)

    def sqr(a):
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                out[2 * i] += x * x
                for j, y in enumerate(a[i + 1 :], 2 * i + 1):
                    out[j] += 2 * x * y
        return out

    def mul(a, b):
        if not a or not b:
            return []
        if a is b:
            prod = sqr(a)
        else:
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return ffact._fp_divmod(p, prod, mod, inv_lc)[1]

    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


class TestPowMod:
    @given(
        # 4229 is the largest prime packed at degree 60 (2 * 60 * p^2 < 2^31)
        st.sampled_from([2, 3, 47, 1999, 4229, 2**31 - 1, 2**61 - 1]),
        st.integers(0, 60),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_list_reference(self, p, deg, data):
        K = FpField(p)
        coeff = st.integers(0, p - 1)
        mod = data.draw(st.lists(coeff, min_size=deg, max_size=deg))
        mod.append(data.draw(st.integers(1, p - 1)))  # any nonzero lc
        base = poly_trim(data.draw(st.lists(coeff, max_size=2 * deg + 3)))
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.sampled_from([0, 1, p, (p**d - 1) // 2]))
        assert poly_pow_mod(K, base, n, mod) == reference_pow_mod(K, base, n, mod)

    @pytest.mark.parametrize("n, primes", [
        # the largest prime packed at degree n, then the next one, then the
        # largest that slots one and two bits wider would pack
        (1, (32749, 32771, 46337, 65521)),
        (7, (12379, 12391, 17509, 24767)),
        (60, (4229, 4231, 5981, 8447)),
    ])
    def test_largest_slots(self, n, primes):
        # every coefficient p - 1 puts n*(p - 1)^2 in the middle slot of the
        # first square, and lc = p - 1 makes every coefficient of x^n mod f
        # p - 1 as well
        for p in primes:
            K = FpField(p)
            base = [p - 1] * n
            for mod in ([1] * (n + 1), [p - 1] * (n + 1)):
                for e in (2, p, (p * p - 1) // 2):
                    assert poly_pow_mod(K, base, e, mod) == reference_pow_mod(K, base, e, mod)

    def test_slot_reduction_is_exact_up_to_the_bound(self):
        # Barrett's rule on packed slots: floor(v*m / 2^s) = floor(v / p)
        # needs B*p < 2^s, and no spill needs (B - 1)*m < 2^64, for every
        # slot v < B = 2*n*p^2, at the largest packed prime of each degree
        for n in range(1, 61):
            p = math.isqrt((1 << 32) // n)  # 2*n*p^2 near 2^33: never packed
            while not (ffact._FpRing.fits(p, n) and is_prime(p)):
                p -= 1
            R = ffact._FpRing(p, [1] * (n + 1))
            B = 2 * n * p * p
            assert B * p < 1 << R.s and (B - 1) * R.m < 1 << 64
            slots = [0, p - 1, p, B // 2, B - p, B - 2, B - 1][-n:]
            packed = int.from_bytes(array("Q", slots), "little")
            assert R.unpack(R._mod(packed)) == poly_trim([v % p for v in slots])
            # a product's Barrett step at its worst: every slot p - 1, so hi
            # and q must be reduced before their products; mu has no slot
            # at n = 1 and one at n = 2, and the non-monic f takes lc^-1
            a = [p - 1] * n
            for f in ([1] * (n + 1), [p - 1] * (n + 1)):
                R = ffact._FpRing(p, f)
                want = ffact._fp_divmod(p, ffact._fp_mul(a, a), f, pow(f[-1], -1, p))[1]
                assert R.unpack(R.mul(R.pack(a), R.pack(a))) == want

    def test_non_monic_modulus(self):
        # roots_mod_p passes f as it is, not made monic first
        K = FpField(7)
        mod = [3, 1, 0, 5]
        for n in (2, 7, 171):
            assert poly_pow_mod(K, [0, 1], n, mod) == reference_pow_mod(K, [0, 1], n, mod)
        assert roots_mod_p([2, 0, 3], 7) == [2, 5]  # 3(X^2 - 4)

    def test_constant_modulus(self):
        K = FpField(2)
        for n in (0, 1, 2, 5):
            assert poly_pow_mod(K, [0, 1], n, [1]) == []
        assert roots_mod_p([1], 2) == []

    def test_split_after_a_linear_factor(self):
        # (X - 1)(X^2 - 3)(X^2 - X - 1) times 2 mod 7: after the root at
        # degree 1, the degree-2 step must still read x^(7i) mod the quintic
        f = [1, 0, 0, 1, 178, 247]
        assert split_degrees(poly_monic(FpField(7), reduce_mod_p(f, 7)), 7) == [1, 2, 2]
        assert [len(g) - 1 for g, _ in factor_mod_p(f, 7)[1]] == [1, 2, 2]


class TestRootsModP:
    @given(
        st.sampled_from([2, 3, 5, 13, 101]),
        st.lists(st.integers(-300, 300), min_size=1, max_size=9),
    )
    @settings(max_examples=120)
    def test_matches_brute_force(self, p, coeffs):
        if not reduce_mod_p(coeffs, p):
            return
        zeros = [r for r in range(p) if sum(c * r**i for i, c in enumerate(coeffs)) % p == 0]
        assert roots_mod_p(coeffs, p) == zeros

    def test_repeated_and_fractional(self):
        # (X - 1)^2 (2X - 3)(X^2 + 1) mod 7; 3/2 = 5 mod 7, X^2 + 1 has no root
        K = FpField(7)
        f = poly_mul(K, poly_mul(K, [6, 1], [6, 1]), poly_mul(K, [4, 2], [1, 0, 1]))
        assert roots_mod_p(f, 7) == [1, 5]
        assert roots_mod_p([Fraction(-3, 2), 1], 7) == [5]

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots_mod_p([7, 14], 7)


class TestReduceModP:
    def test_fraction_coefficients(self):
        fp = reduce_mod_p([Fraction(3, 4), Fraction(1), Fraction(2)], 5)
        assert tuple(fp) == (2, 1, 2)

    def test_non_integral(self):
        with pytest.raises(NotPIntegral):
            reduce_mod_p([Fraction(1, 5), Fraction(1)], 5)


def tower(name: str):
    """F_4, F_8, F_9, F_25 over their prime fields, and F_81 over F_9."""
    if name == "F81":
        F9 = tower("F9")
        c = F9.add(F9.one(), F9.gen())  # 1 + i, a non-square in F_9
        return ExtField(F9, (F9.neg(c), F9.zero(), F9.one()))
    p, modulus = {"F4": (2, (1, 1, 1)), "F8": (2, (1, 1, 0, 1)),
                  "F9": (3, (1, 0, 1)), "F25": (5, (3, 0, 1))}[name]
    return ExtField(FpField(p), modulus)


def is_trimmed(a) -> bool:
    """An int, or a tuple with no falsy last entry whose entries are trimmed."""
    if isinstance(a, int):
        return True
    return isinstance(a, tuple) and (not a or bool(a[-1])) and all(map(is_trimmed, a))


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
        # F_81 = F_9[y]/(y^2 - (1 + i)), F_9 = F_3(i): 1 + i is a non-square
        # in F_9 since (1 + i)^4 = -1.  y^2 - i would not do: (1 - i)^2 = i,
        # so it splits and its quotient is F_9 x F_9, not a field.
        F3 = FpField(3)
        F9 = ExtField(F3, (1, 0, 1))
        i = F9.gen()
        c = F9.add(F9.one(), i)
        for a, degrees in ((i, [1, 1]), (c, [2])):
            y2_minus_a = [F9.neg(a), F9.zero(), F9.one()]
            assert [len(g) - 1 for g, _ in factor_poly(F9, y2_minus_a)[1]] == degrees
        F81 = ExtField(F9, (F9.neg(c), F9.zero(), F9.one()))
        b = F81.gen()
        assert F81.mul(b, b) == F81.embed(c)
        assert F81.pow(b, 80) == F81.one()
        assert F81.mul(b, F81.inv(b)) == F81.one()
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

    @given(st.sampled_from(["F4", "F8", "F9", "F25", "F81"]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_towers_are_trimmed_fields(self, name, seed):
        K = tower(name)
        rng = random.Random(seed)
        a, b = K.random(rng), K.random(rng)
        zero, one = K.zero(), K.one()
        assert not zero and one
        p = K.p
        results = [zero, one, K.gen(), K.embed(2), K.embed(p), a, b, K.add(a, b), K.sub(a, a),
                   K.sub(a, b), K.neg(a), K.mul(a, b), K.mul(a, zero), K.pow(a, 0),
                   K.pow(a, K.size), K.pth_root(a), K.random(rng)]
        if a:
            results += [K.inv(a), K.mul(a, K.inv(a)), K.pow(a, -3)]
            assert K.mul(a, K.inv(a)) == one
        for c in results:
            assert is_trimmed(c)
        assert K.pow(a, K.size) == a
        assert K.pow(K.pth_root(a), p) == a
        # a product with repeated factors: the unit times the factors to
        # their multiplicities gives f back
        g = poly_trim([K.random(rng) for _ in range(rng.randint(1, 3))] + [K.random(rng)])
        h = poly_trim([K.random(rng) for _ in range(rng.randint(1, 4))])
        f = poly_mul(K, poly_mul(K, g, g), h)
        if not f:
            return
        unit, factors = factor_poly(K, f, seed=seed)
        back = [unit]
        for irr, m in factors:
            assert irr[-1] == one and all(is_trimmed(c) for c in irr)
            for _ in range(m):
                back = poly_mul(K, back, irr)
        assert back == f

    @pytest.mark.parametrize("seed", range(4))
    def test_f9_linear_factors_then_quadratics(self, seed):
        # once degree 1 has taken the linear factors out, the degree-2 step
        # runs mod the quartic cofactor, with x^9 reduced into it
        F9 = tower("F9")
        one = F9.one()
        i = F9.gen()
        elements = [F9.add(F9.embed(a), F9.mul(F9.embed(b), i)) for a in range(3) for b in range(3)]

        def irreducible(g):
            # no monic divisor of degree 1 .. deg g / 2
            return not any(
                not poly_mod(F9, g, list(low) + [one])
                for k in range(1, (len(g) - 1) // 2 + 1)
                for low in itertools.product(elements, repeat=k)
            )

        quadratics = [[a, b, one] for a in elements for b in elements if irreducible([a, b, one])]
        rng = random.Random(seed)
        linears = [[F9.neg(a), one] for a in rng.sample(elements, 2)]
        f = [one]
        for g in linears + rng.sample(quadratics, 2):
            f = poly_mul(F9, f, g)
        assert [d for _, d in distinct_degree(F9, f)] == [1, 2]
        _, factors = factor_poly(F9, f)
        assert sorted(len(g) - 1 for g, _ in factors) == [1, 1, 2, 2]
        assert all(m == 1 and irreducible(g) for g, m in factors)
        back = [one]
        for g, _ in factors:
            back = poly_mul(F9, back, g)
        assert back == f

    def test_squarefree_decomposition_pth_powers(self):
        F3 = FpField(3)
        f = [1]
        for _ in range(3):
            f = poly_mul(F3, f, [1, 1])
        f = poly_mul(F3, f, [0, 0, 1])
        parts = squarefree_decomposition(F3, f)
        assert [(g, m) for g, m in parts] == [([0, 1], 2), ([1, 1], 3)]

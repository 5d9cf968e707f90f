"""Factorization over prime fields and their finite extensions.

A small field protocol (FpField and ExtField) carries polynomial helpers
that work over any such field, on one representation: plain coefficient
lists, lowest degree first, trailing zeros trimmed.  Extension fields nest,
so towers F_p ⊂ k_1 ⊂ k_2 ⊂ … built one augmentation at a time are
supported directly; factor_poly factors completely over any of them.  The
rest of the package enters mod p here: reduce_mod_p reduces rational
coefficients, split_degrees reads the factor degrees of an f known to be
squarefree mod p, degree_sequence checks squarefreeness first, roots_mod_p
returns the roots of any f nonzero mod p, padic factors over its residue
fields (FpField, ExtField) with factor_poly and poly_trim, and poly tests
squarefreeness mod p with poly_gcd and poly_deriv.

Distinct-degree splitting applies the q-power map as one linear map, the
Frobenius matrix of von zur Gathen and Shoup, rather than exponentiating
afresh at every degree.  It takes x^q itself at degree 1 and builds the
remaining rows only if a degree-2 step is needed, and it stops as soon as
the cofactor is too small to hold two factors.  Equal-degree splitting is
randomized (Cantor-Zassenhaus, with the trace construction in
characteristic 2) but seeded, and factor lists are sorted canonically, so
every public result is deterministic.

Over F_p the multiply, divide, gcd and power helpers work on plain ints and
reduce each coefficient mod p once per operation.  Powers square with each
cross product taken once and doubled, and the gcd runs Euclid on the int
lists directly, with one modular inverse and one division per step.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import _check_prime


class FpField:
    """The prime field F_p with int elements in [0, p)."""

    __slots__ = ("p", "size", "degree")

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p
        self.size = p
        self.degree = 1  # over F_p

    def zero(self):
        return 0

    def one(self):
        return 1

    def embed(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, n: int):
        return pow(a, n % (self.p - 1) if a % self.p else n, self.p)

    def pth_root(self, a):
        return a  # Frobenius is the identity on F_p

    def random(self, rng: random.Random):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"FpField({self.p})"


class ExtField:
    """base[y]/(modulus): elements are tuples over the base field.

    `modulus` is a monic irreducible polynomial over `base`, given as a
    coefficient tuple lowest-first including the leading 1.  Bases may
    themselves be extensions, so arbitrary towers are supported.
    """

    __slots__ = ("base", "modulus", "p", "degree", "size")

    def __init__(self, base, modulus):
        modulus = poly_trim(list(modulus))
        if len(modulus) < 2 or modulus[-1] != base.one():
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = tuple(modulus)
        self.p = base.p
        self.degree = len(modulus) - 1
        self.size = base.size**self.degree

    def zero(self):
        return (self.base.zero(),) * self.degree

    def one(self):
        return tuple(
            self.base.one() if i == 0 else self.base.zero()
            for i in range(self.degree)
        )

    def gen(self):
        """The class of y; equals a root of the modulus."""
        if self.degree == 1:
            # y = -c0 for modulus y + c0
            return (self.base.neg(self.modulus[0]),)
        return tuple(
            self.base.one() if i == 1 else self.base.zero()
            for i in range(self.degree)
        )

    def embed(self, a):
        """Lift a base-field element (or plain integer) into this field."""
        if isinstance(a, int):
            a = self.base.embed(a)
        pad = (self.base.zero(),) * (self.degree - 1)
        return (a,) + pad

    def _from_list(self, cs):
        cs = list(cs)[: self.degree]
        cs += [self.base.zero()] * (self.degree - len(cs))
        return tuple(cs)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = poly_mul(self.base, list(a), list(b))
        return self._from_list(poly_mod(self.base, prod, list(self.modulus)))

    def inv(self, a):
        g, u, _ = poly_xgcd(self.base, poly_trim(list(a)), list(self.modulus))
        if len(g) != 1:
            raise ZeroDivisionError("not invertible (zero or modulus reducible)")
        ginv = self.base.inv(g[0])
        return self._from_list([self.base.mul(c, ginv) for c in u])

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def pth_root(self, a):
        # Frobenius x -> x^p generates Gal; its inverse is x -> x^(size/p)
        return self.pow(a, self.size // self.p)

    def random(self, rng: random.Random):
        return tuple(self.base.random(rng) for _ in range(self.degree))

    def __repr__(self):
        return f"ExtField(size={self.size})"


def field_elt_key(a):
    """Total order on field elements of one field, for canonical sorting."""
    if isinstance(a, int):
        return (a,)
    out = []
    for c in a:
        out.extend(field_elt_key(c))
    return tuple(out)


# -- polynomials over a field: plain lists, lowest degree first, trimmed ----


def poly_trim(cs: list) -> list:
    if cs and isinstance(cs[-1], int):
        while cs and not cs[-1]:
            cs.pop()
        return cs
    while cs and not _is_nonzero(cs[-1]):
        cs.pop()
    return cs


def _is_nonzero(a) -> bool:
    if isinstance(a, int):
        return a != 0
    return any(_is_nonzero(c) for c in a)


def poly_add(K, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = K.add(out[i], c)
    return poly_trim(out)


def poly_sub(K, a: list, b: list) -> list:
    out = list(a) + [K.zero()] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = K.sub(out[i], c)
    return poly_trim(out)


def poly_scale(K, a: list, c) -> list:
    return poly_trim([K.mul(x, c) for x in a])


def poly_mul(K, a: list, b: list) -> list:
    if not a or not b:
        return []
    if isinstance(K, FpField):
        p = K.p
        return poly_trim([c % p for c in _fp_mul(a, b)])
    out = [K.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if _is_nonzero(x):
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return poly_trim(out)


def poly_divmod(K, a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    inv_lc = K.inv(b[-1])
    if isinstance(K, FpField):
        quot, rem = _fp_divmod(K.p, list(a), b, inv_lc)
        return poly_trim(quot), rem
    rem = list(a)
    quot = [K.zero()] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if _is_nonzero(top):
            q = K.mul(top, inv_lc)
            quot[k] = q
            for j, c in enumerate(b):
                rem[k + j] = K.sub(rem[k + j], K.mul(q, c))
    return poly_trim(quot), poly_trim(rem)


def poly_mod(K, a: list, b: list) -> list:
    return poly_divmod(K, a, b)[1]


def poly_monic(K, a: list) -> list:
    if not a:
        return a
    if a[-1] == K.one():
        return list(a)
    return poly_scale(K, a, K.inv(a[-1]))


def poly_gcd(K, a: list, b: list) -> list:
    if isinstance(K, FpField):
        p = K.p
        while b:
            a, b = b, _fp_divmod(p, list(a), b, pow(b[-1], -1, p))[1]
    while b:
        a, b = b, poly_mod(K, a, b)
    return poly_monic(K, a)


def poly_xgcd(K, a: list, b: list) -> tuple[list, list, list]:
    """g, u, v with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [K.one()], []
    v0, v1 = [], [K.one()]
    while r1:
        q, r = poly_divmod(K, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(K, u0, poly_mul(K, q, u1))
        v0, v1 = v1, poly_sub(K, v0, poly_mul(K, q, v1))
    if r0:
        c = K.inv(r0[-1])
        r0 = poly_scale(K, r0, c)
        u0 = poly_scale(K, u0, c)
        v0 = poly_scale(K, v0, c)
    return r0, u0, v0


def poly_deriv(K, a: list) -> list:
    out = []
    for i in range(1, len(a)):
        out.append(K.mul(a[i], K.embed(i)))
    return poly_trim(out)


def poly_pow_mod(K, base: list, n: int, mod: list) -> list:
    if not n:
        return [K.one()]
    base = poly_mod(K, base, mod)
    if isinstance(K, FpField):
        p, inv_lc = K.p, K.inv(mod[-1])

        def mul(a, b):
            prod = _fp_sqr(a) if a is b else _fp_mul(a, b)
            return _fp_divmod(p, prod, mod, inv_lc)[1]

    else:

        def mul(a, b):
            return poly_mod(K, poly_mul(K, a, b), mod)

    # left to right, so that every product but the squares is by base
    # itself, which is short when base is x as in distinct_degree
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def _fp_mul(a: list, b: list) -> list:
    # the product over Z, left unreduced for the caller's single % p
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _fp_sqr(a: list) -> list:
    # a*a over Z, unreduced: each cross product once, doubled
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = 2 * x
            for j, y in enumerate(a[i + 1 :], 2 * i + 1):
                out[j] += x2 * y
    return out


def _fp_divmod(p: int, a: list, b: list, inv_lc: int) -> tuple[list, list]:
    """Quotient (untrimmed) and remainder (reduced, trimmed) of a by b over F_p.

    a is an int list, consumed as the work space, and need not be reduced:
    an entry is reduced only when read as a leading term, so each product
    is added over Z and the % p is taken once per coefficient.
    """
    n = len(b) - 1
    low = b[:n]
    quot = [0] * (len(a) - n)
    for k in range(len(quot) - 1, -1, -1):
        q = a[k + n] * inv_lc % p
        if q:
            quot[k] = q
            for j, c in enumerate(low, k):
                a[j] -= q * c
    rem = [c % p for c in a[:n]]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def poly_key(a: list):
    return (len(a), tuple(field_elt_key(c) for c in a))


# -- factorization over any finite field -------------------------------------


def squarefree_decomposition(K, f: list) -> list[tuple[list, int]]:
    """Monic squarefree factors with multiplicities; f monic, degree >= 1."""
    p = K.p
    out: dict[tuple, tuple[list, int]] = {}

    def record(g: list, mult: int):
        if len(g) <= 1:
            return
        key = poly_key(g)
        if key in out:
            out[key] = (g, out[key][1] + mult)
        else:
            out[key] = (g, mult)

    def walk(f: list, mult: int):
        if len(f) <= 1:
            return
        fd = poly_deriv(K, f)
        if not fd:
            # every exponent divisible by p: take the p-th root
            walk(_poly_pth_root(K, f), mult * p)
            return
        c = poly_gcd(K, f, fd)
        w = poly_divmod(K, f, c)[0]
        i = 1
        while len(w) > 1:
            y = poly_gcd(K, w, c)
            z = poly_divmod(K, w, y)[0]
            record(z, mult * i)
            w = y
            c = poly_divmod(K, c, y)[0]
            i += 1
        if len(c) > 1:
            walk(_poly_pth_root(K, c), mult * p)

    walk(poly_monic(K, f), 1)
    return sorted(out.values(), key=lambda fm: poly_key(fm[0]))


def _poly_pth_root(K, f: list) -> list:
    p = K.p
    out = []
    for i in range(0, len(f), p):
        out.append(K.pth_root(f[i]))
    for i, c in enumerate(f):
        if i % p and _is_nonzero(c):
            raise ValueError("not a p-th power")
    return poly_trim(out)


def distinct_degree(K, f: list) -> list[tuple[list, int]]:
    """Split monic squarefree f into products of same-degree irreducibles.

    Returns [(product, d)] with d strictly increasing.  The q-power map
    (q = |K|) is K-linear on K[x]/(f), so it is computed once as the
    Frobenius matrix of rows x^(q*i) mod f (von zur Gathen and Shoup,
    1992); each further x^(q^d) mod f is one matrix application instead of
    a fresh exponentiation.  Gcds are taken against the cofactor left after
    removing the factors found so far, which divides f; the matrix is built
    mod the cofactor left after degree 1, and only when degree 2 is reached.
    """
    out = []
    x = [K.zero(), K.one()]
    d = 0
    # every factor of the cofactor has degree > d, so one of degree < 2(d+1)
    # is irreducible
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        if d == 1:
            h = poly_pow_mod(K, x, K.size, f)
        else:
            if d == 2:
                # the matrix is built mod the cofactor, only once it is needed
                h = poly_mod(K, h, f)
                rows = [[K.one()], h]
                for _ in range(2, len(f) - 1):
                    rows.append(poly_mod(K, poly_mul(K, rows[-1], h), f))
            h = _frobenius(K, h, rows)
        g = poly_gcd(K, poly_sub(K, h, x), f)
        if len(g) > 1:
            out.append((g, d))
            f = poly_divmod(K, f, g)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _frobenius(K, h: list, rows: list) -> list:
    # h^q = sum of h_i * x^(q*i), since h_i^q = h_i for h_i in K
    if isinstance(K, FpField):
        out = [0] * len(rows)
        for c, row in zip(h, rows):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        p = K.p
        return poly_trim([v % p for v in out])
    out = []
    for c, row in zip(h, rows):
        out = poly_add(K, out, poly_scale(K, row, c))
    return out


def equal_degree(K, f: list, d: int, rng: random.Random) -> list[list]:
    """Split a monic product of distinct degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = poly_trim([K.random(rng) for _ in range(n)])
        if not a:
            continue
        if K.p == 2:
            # trace map over F_2: sum of a^(2^i), i < k*d where size = 2^k
            k = K.size.bit_length() - 1
            t = list(a)
            acc = list(a)
            for _ in range(k * d - 1):
                t = poly_pow_mod(K, t, 2, f)
                acc = poly_add(K, acc, t)
            g = poly_gcd(K, acc, f)
        else:
            e = (K.size**d - 1) // 2
            b = poly_pow_mod(K, a, e, f)
            g = poly_gcd(K, poly_sub(K, b, [K.one()]), f)
        if 1 < len(g) < len(f):
            h = poly_divmod(K, f, g)[0]
            return sorted(
                equal_degree(K, g, d, rng) + equal_degree(K, h, d, rng),
                key=poly_key,
            )


def factor_poly(K, f: list, seed: int = 0):
    """Complete factorization over K: (unit, [(monic irreducible, mult)])."""
    f = poly_trim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit = f[-1]
    f = poly_monic(K, f)
    rng = random.Random(seed)
    factors = []
    for g, mult in squarefree_decomposition(K, f):
        for prod, d in distinct_degree(K, g):
            for irr in equal_degree(K, prod, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: poly_key(fm[0]))
    return unit, factors


# -- the mod-p interface ------------------------------------------------------


class NotSquarefree(Exception):
    """The reduction has a repeated factor; degree data is not a cycle type."""


class NotPIntegral(Exception):
    """A coefficient has p in its denominator; no reduction mod p exists."""


def reduce_mod_p(coeffs, p: int) -> list:
    """Rational coefficients reduced mod p, lowest degree first and trimmed;
    denominators must be prime to p."""
    out = []
    for c in coeffs:
        if isinstance(c, int):
            out.append(c % p)
            continue
        c = Fraction(c)
        if c.denominator % p == 0:
            raise NotPIntegral(f"{c} is not p-integral at {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return poly_trim(out)


def split_degrees(coeffs, p: int) -> list[int]:
    """Ascending degrees of the irreducible factors of f mod p.

    The caller knows f to be monic and squarefree mod p (p ∤ disc(f) is the
    usual warrant), so nothing is checked beyond p-integrality.  Distinct-
    degree splitting (see distinct_degree) alone determines the degrees, so
    no randomized stage is involved.
    """
    split = distinct_degree(FpField(p), reduce_mod_p(coeffs, p))
    return [d for prod, d in split for _ in range((len(prod) - 1) // d)]


def roots_mod_p(coeffs, p: int) -> list[int]:
    """Ascending roots in [0, p) of f mod p, for any f nonzero mod p.

    gcd(x^p - x, f) is the product of the distinct linear factors of f, and
    equal-degree splitting at degree 1 separates them.  Raises ValueError
    when f vanishes mod p.
    """
    f = reduce_mod_p(coeffs, p)
    if not f:
        raise ValueError("zero polynomial")
    K = FpField(p)
    x = [0, 1]
    linear = poly_gcd(K, poly_sub(K, poly_pow_mod(K, x, p, f), x), f)
    if len(linear) < 2:
        return []
    return sorted(-g[0] % p for g in equal_degree(K, linear, 1, random.Random(0)))


def degree_sequence(coeffs, p: int) -> list[int]:
    """Ascending degrees of the irreducible factors of f mod p, for any f.

    Unlike split_degrees this makes f monic and checks it: raises
    NotSquarefree when f has a repeated factor mod p (the caller treats
    that prime as ramified or bad), and ValueError when f vanishes mod p.
    """
    f = reduce_mod_p(coeffs, p)
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return []
    K = FpField(p)
    f = poly_monic(K, f)
    der = poly_deriv(K, f)
    if not der or len(poly_gcd(K, f, der)) > 1:
        raise NotSquarefree(f"repeated factor mod {p}")
    return split_degrees(f, p)

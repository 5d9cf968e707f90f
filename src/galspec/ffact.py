"""Factorization over prime fields and their finite extensions.

A small field protocol (FpField and ExtField) carries polynomial helpers
that work over any such field, on one representation: plain coefficient
lists, lowest degree first, trailing zeros trimmed.  An extension-field
element is the same trimmed list, frozen as a tuple, over its base field,
so zero is falsy at every level of a tower F_p ⊂ k_1 ⊂ k_2 ⊂ … built one
augmentation at a time; factor_poly factors completely over any of them.
The rest of the package enters mod p here: reduce_mod_p reduces rational
coefficients, split_degrees reads the factor degrees of an f known to be
squarefree mod p, degree_sequence checks squarefreeness first, roots_mod_p
returns the roots of any f nonzero mod p, padic factors over its residue
fields (FpField, ExtField) with factor_poly, and poly tests squarefreeness
mod p with poly_gcd and poly_deriv.

Distinct-degree splitting applies the q-power map as one linear map, the
Frobenius matrix of von zur Gathen and Shoup, rather than exponentiating
afresh at every degree.  It takes x^q itself at degree 1 and builds the
remaining rows only if a degree-2 step is needed, and it stops as soon as
the cofactor is too small to hold two factors.  split_degrees needs only
the degrees, and for deg f = n < p it reads them from the same matrix
without a gcd: F_p[x]/(f) is a product of fields F_(p^e), one per factor,
and on each the p-power map permutes a normal basis cyclically (Lidl and
Niederreiter, Finite Fields, Thm. 2.35), so trace(Q^d) is the sum of the
factor degrees e dividing d, reduced mod p; that sum is at most n < p, so
it is read exactly.  For p <= n it falls back to distinct_degree, as does
factor_poly, which needs the factors themselves.  Equal-degree splitting is
randomized (Cantor-Zassenhaus, with the trace construction in
characteristic 2) but seeded, and factor lists are sorted canonically, so
every public result is deterministic.

Over F_p the multiply, divide and gcd helpers work on plain ints and reduce
each coefficient mod p once per operation; the gcd runs Euclid on the int
lists directly, with one modular inverse and one division per step.  Powers
mod f and the Frobenius matrix live in one quotient ring F_p[x]/(f) whose
elements are single ints, one 64-bit slot per coefficient (Kronecker
substitution; Harvey, J. Symb. Comput. 44, 2009): a product is one bigint
multiplication and its reduction a few more on whole ints, so the per-
coefficient work runs in C.  For p too large for the slots (2*n*p^2 >=
2^31, n = deg f) the ring falls back to the list helpers.
"""

from __future__ import annotations

import random
import sys
from array import array
from operator import mul

from .arith import _check_prime, rational

_LITTLE_ENDIAN = sys.byteorder == "little"


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
    """base[y]/(modulus): an element is the trimmed tuple of its residue's
    coefficients over the base field, lowest first, so zero is () and falsy.

    `modulus` is a monic irreducible polynomial over `base`, lowest-first
    including the leading 1.  Bases may themselves be extensions, so towers
    are supported; products and powers run in one ring base[y]/(modulus).
    """

    __slots__ = ("base", "modulus", "p", "degree", "size", "ring")

    def __init__(self, base, modulus):
        modulus = poly_trim(list(modulus))
        if len(modulus) < 2 or modulus[-1] != base.one():
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = tuple(modulus)
        self.p = base.p
        self.degree = len(modulus) - 1
        self.size = base.size**self.degree
        self.ring = _ListRing(base, modulus)

    def zero(self):
        return ()

    def one(self):
        return (self.base.one(),)

    def gen(self):
        """The class of y; equals a root of the modulus."""
        return tuple(poly_mod(self.base, [self.base.zero(), self.base.one()], self.modulus))

    def embed(self, a):
        """Lift a base-field element (or plain integer) into this field."""
        if isinstance(a, int):
            a = self.base.embed(a)
        return (a,) if a else ()

    def add(self, a, b):
        return tuple(poly_add(self.base, a, b))

    def sub(self, a, b):
        return tuple(poly_sub(self.base, a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        return tuple(self.ring.mul(a, b))

    def inv(self, a):
        g, u, _ = poly_xgcd(self.base, a, self.modulus)
        if len(g) != 1:
            raise ZeroDivisionError("not invertible (zero or modulus reducible)")
        return tuple(u)

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        return tuple(self.ring.pow(a, n))  # the ring's a^1 is a itself

    def pth_root(self, a):
        # Frobenius x -> x^p generates Gal; its inverse is x -> x^(size/p)
        return self.pow(a, self.size // self.p)

    def random(self, rng: random.Random):
        return tuple(poly_trim([self.base.random(rng) for _ in range(self.degree)]))

    def __repr__(self):
        return f"ExtField(size={self.size})"


# -- polynomials over a field: plain lists, lowest degree first, trimmed ----


def poly_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


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
        if x:
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return poly_trim(out)


def poly_divmod(K, a: list, b: list, inv_lc=None) -> tuple[list, list]:
    """Quotient and remainder of a by b; inv_lc, if given, is lc(b)^-1."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    if inv_lc is None:
        inv_lc = K.inv(b[-1])
    if isinstance(K, FpField):
        quot, rem = _fp_divmod(K.p, list(a), b, inv_lc)
        return poly_trim(quot), rem
    rem = list(a)
    quot = [K.zero()] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if top:
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
    """base^n mod `mod` over K, as a reduced and trimmed coefficient list.

    `mod` may be any nonzero polynomial over K, with any leading
    coefficient; a constant `mod` gives [] for every n, n = 0 included.
    `base` is a coefficient list over K of any length.
    """
    R = _ring(K, mod)
    return R.unpack(R.pow(R.pack(poly_mod(K, base, mod)), n))


def _ring(K, f: list):
    """The quotient ring K[x]/(f) for nonzero f: packed when K is F_p and
    the slots fit, on coefficient lists otherwise."""
    n = len(f) - 1
    if isinstance(K, FpField) and n >= 1 and _FpRing.fits(K.p, n):
        return _FpRing(K.p, f)
    return _ListRing(K, f)


class _ListRing:
    """K[x]/(f) on reduced coefficient lists, with lc(f)^-1 kept."""

    __slots__ = ("K", "f", "n", "one", "inv_lc")

    def __init__(self, K, f: list):
        self.K, self.f, self.n = K, f, len(f) - 1
        self.inv_lc = K.inv(f[-1])
        self.one = poly_mod(K, [K.one()], f)

    def pack(self, a: list):
        return a

    def unpack(self, a) -> list:
        return a

    def mul(self, a, b):
        K = self.K
        if isinstance(K, FpField):
            # the product over Z goes to the division unreduced
            return _fp_divmod(K.p, _fp_mul(a, b), self.f, self.inv_lc)[1]
        return poly_divmod(K, poly_mul(K, a, b), self.f, self.inv_lc)[1]

    def dense(self, elements: list) -> list:
        """The n coefficients of each element, lowest first, in one list."""
        zero = self.K.zero()
        return [c for a in elements for c in a + [zero] * (self.n - len(a))]

    def combine(self, cs: list, rows: list):
        """The sum of cs[i] * rows[i], for cs over K."""
        out = []
        for c, row in zip(cs, rows):
            out = poly_add(self.K, out, poly_scale(self.K, row, c))
        return out

    def xpow(self, e: int):
        """x^e for e >= 2, so that at least one product reduces x."""
        return self.pow(self.pack([self.K.zero(), self.K.one()]), e)

    def pow(self, a, e: int):
        if not e:
            return self.one
        # left to right, so that every product but the squares is by a
        # itself, which is short when a is short, as x is in xpow
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


class _FpRing(_ListRing):
    """F_p[x]/(f), f of degree n >= 1, each element packed into one int.

    Coefficient i sits in bits 64i to 64i + 63, so a product is one bigint
    multiplication.  It is reduced by folding its top n - 1 slots, reduced
    mod p, onto the low n slots with rows[j] = x^(n+j) mod f (f made monic
    by lc^-1), then reducing every slot mod p.  A slot stays below
    B = 2*n*p^2 throughout: a product's slots are below n*p^2, and the fold
    adds n - 1 terms below p^2.  All slots are reduced mod p at once by
    Barrett's rule: with B*p < 2^s and m = ceil(2^s / p), floor(v*m / 2^s)
    is floor(v / p) for every v < B, and v*m < 2*B^2 < 2^64 while B < 2^31
    (fits), so no slot spills into the next.  The rows are built only as
    products need them, since x^k with k < n needs none.
    """

    __slots__ = ("p", "rows", "shift", "low", "m", "s", "mask")

    @staticmethod
    def fits(p: int, n: int) -> bool:
        # the slots are read as little-endian machine words
        return _LITTLE_ENDIAN and (2 * n * p * p).bit_length() <= 31

    def __init__(self, p: int, f: list):
        n = len(f) - 1
        self.p, self.f, self.n, self.one = p, f, n, 1
        self.rows = []
        self.shift = 64 * n
        self.low = (1 << 64 * n) - 1
        self.s = (2 * n * p**3).bit_length()
        self.m = -(-(1 << self.s) // p)
        slot = ((1 << 64 - self.s) - 1).to_bytes(8, "little")
        self.mask = int.from_bytes(slot * n, "little")

    def pack(self, a: list) -> int:
        p = self.p
        return int.from_bytes(array("Q", [c % p for c in a]), "little")

    def unpack(self, a: int) -> list:
        cs = memoryview(a.to_bytes(8 * self.n, "little")).cast("Q").tolist()
        while cs and not cs[-1]:
            cs.pop()
        return cs

    def dense(self, elements: list) -> list:
        n = 8 * self.n
        return memoryview(b"".join([a.to_bytes(n, "little") for a in elements])).cast("Q").tolist()

    def _mod(self, a: int) -> int:
        return a - ((a * self.m >> self.s) & self.mask) * self.p

    def mul(self, a: int, b: int) -> int:
        a *= b
        high = a >> self.shift
        if high:
            k = (high.bit_length() + 63) >> 6
            rows = self.rows
            if len(rows) < k:
                self._grow(k)
            high = self._mod(high).to_bytes(8 * k, "little")
            a = (a & self.low) + sum(map(mul, memoryview(high).cast("Q"), rows))
        return self._mod(a)

    def _grow(self, k: int):
        rows = self.rows
        if not rows:
            inv = pow(self.f[-1], -1, self.p)
            rows.append(self.pack([-c * inv for c in self.f[:-1]]))
        while len(rows) < k:
            # x^(n+j+1) = x * x^(n+j): one slot shifts out and folds back
            a = rows[-1] << 64
            rows.append(self._mod((a & self.low) + (a >> self.shift) * rows[0]))

    def combine(self, cs: list, rows: list) -> int:
        # n terms below p^2 in each slot, none above slot n - 1
        return self._mod(sum(map(mul, cs, rows)))

    def xpow(self, e: int) -> int:
        """x^e for e >= 1 by squares and shifts: x^k is the single slot k
        for the leading bits of e while k < n, and each product by x is a
        shift by one slot whose top slot folds back by rows[0] = x^n."""
        bits = bin(e)[2:]
        k = i = 0
        while i < len(bits) and 2 * k + (bits[i] == "1") < self.n:
            k = 2 * k + (bits[i] == "1")
            i += 1
        self._grow(1)
        a, x_n = 1 << 64 * k, self.rows[0]
        for bit in bits[i:]:
            a = self.mul(a, a)
            if bit == "1":
                a <<= 64
                # the top slot is below p, rows[0]'s slots too
                a = self._mod((a & self.low) + (a >> self.shift) * x_n)
        return a


def _fp_mul(a: list, b: list) -> list:
    # the product over Z, left unreduced for the caller's single % p
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
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
    # trimmed elements of one field, nested tuples too, are totally ordered
    return (len(a), tuple(a))


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
        if i % p and c:
            raise ValueError("not a p-th power")
    return poly_trim(out)


def distinct_degree(K, f: list) -> list[tuple[list, int]]:
    """Split monic squarefree f into products of same-degree irreducibles.

    Returns [(product, d)] with d strictly increasing.  The q-power map
    (q = |K|) is K-linear on K[x]/(f), so it is computed once as the
    Frobenius matrix of rows x^(q*i) mod f (von zur Gathen and Shoup,
    1992); each further x^(q^d) mod f is one matrix application instead of
    a fresh exponentiation.  Gcds are taken against the cofactor left after
    removing the factors found so far.  x^q is taken mod f itself; the
    matrix is built only when degree 2 is reached, in the ring mod the
    cofactor left then, with x^q reduced into it (the cofactor divides f),
    and every later x^(q^d) stays in that ring.
    """
    out = []
    x = [K.zero(), K.one()]
    d = 0
    # every factor of the cofactor has degree > d, so one of degree < 2(d+1)
    # is irreducible
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        if d == 1:
            R = _ring(K, f)
            h = R.xpow(K.size)
        else:
            if d == 2:
                if len(f) - 1 < R.n:  # degree 1 took factors out of f
                    h = poly_mod(K, R.unpack(h), f)
                    R = _ring(K, f)
                    h = R.pack(h)
                rows = [R.one, h]
                for _ in range(2, R.n):
                    rows.append(R.mul(rows[-1], h))
            # h^q = sum of h_i * x^(q*i), since h_i^q = h_i for h_i in K
            h = R.combine(R.unpack(h), rows)
        g = poly_gcd(K, poly_sub(K, R.unpack(h), x), f)
        if len(g) > 1:
            out.append((g, d))
            f = poly_divmod(K, f, g)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def equal_degree(K, f: list, d: int, rng: random.Random) -> list[list]:
    """Split a monic product of distinct degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    R = _ring(K, f)
    while True:
        a = poly_trim([K.random(rng) for _ in range(n)])
        if not a:
            continue
        if K.p == 2:
            # trace map over F_2: sum of a^(2^i), i < k*d where size = 2^k
            k = K.size.bit_length() - 1
            t = R.pack(a)
            acc = list(a)
            for _ in range(k * d - 1):
                t = R.mul(t, t)
                acc = poly_add(K, acc, R.unpack(t))
            g = poly_gcd(K, acc, f)
        else:
            b = R.unpack(R.pow(R.pack(a), (K.size**d - 1) // 2))
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
    if len(f) == 2:  # a linear polynomial is irreducible
        return unit, [(f, 1)]
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
        c = rational(c)
        if c.denominator % p == 0:
            raise NotPIntegral(f"{c} is not p-integral at {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return poly_trim(out)


def split_degrees(coeffs, p: int) -> list[int]:
    """Ascending degrees of the irreducible factors of f mod p.

    The caller knows f to be monic and squarefree mod p (p ∤ disc(f) is the
    usual warrant), so nothing is checked beyond p-integrality, and no
    randomized stage is involved.  For p <= n = deg f distinct-degree
    splitting gives the degrees.  For n < p they are read with no gcd from
    the Frobenius matrix Q, row i = x^(p*i) mod f: trace(Q^d) mod p is N_d,
    the sum of the factor degrees dividing d (see the module docstring),
    exactly, since N_d <= n < p; so the number of factors of degree d is
    (N_d - sum of e * r_e over e | d, e < d) / d.  As in distinct_degree,
    the read stops once the degree left is below 2(d + 1): what is left is
    one irreducible factor.
    """
    K, f = FpField(p), reduce_mod_p(coeffs, p)
    n = len(f) - 1
    if n >= p:
        split = distinct_degree(K, f)
        return [d for prod, d in split for _ in range((len(prod) - 1) // d)]

    out, d, left = [], 0, n
    while left >= 2 * (d + 1):
        d += 1
        if d == 1:
            R = _ring(K, f)
            h = R.xpow(p)
            rows = [R.one, h]
            for _ in range(2, n):
                rows.append(R.mul(rows[-1], h))
            Q = R.dense(rows)  # Q_ij at n*i + j
            trace = sum(Q[:: n + 1])
        else:
            if d == 2:
                M, QT = Q, [c for i in range(n) for c in Q[i::n]]
            else:  # Q^(d-1), one row combination per row
                M = R.dense([R.combine(M[i : i + n], rows) for i in range(0, n * n, n)])
            trace = sum(map(mul, M, QT))  # trace(Q^(d-1) Q)
        # out holds each factor of degree e < d once per factor
        r = (trace % p - sum(e for e in out if d % e == 0)) // d
        out += [d] * r
        left -= d * r
    if left:
        out.append(left)
    return out


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

"""Exact integer and rational arithmetic: valuations, CRT, primality.

Rational numbers are exact throughout the package: an ``int`` or a
``fractions.Fraction``, never a float (polynomial leaves are ints whenever
they are integral), and every function here accepts either.  This module
adds the number-theoretic layer on top (p-adic valuations, congruence classes
with a Chinese-remainder merge, and deterministic primality).

The base field is Q.  Extending to a general number field would replace
`valuation` and `Congruence` with prime-ideal analogues; nothing else in this
module bakes in more than that.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

INFINITY = float("inf")


class NonPrimeError(ValueError):
    pass


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")


def rational(x) -> Fraction:
    """Fraction(x), refusing a float: its binary value is not the rational
    it was meant to be (Fraction(0.1) has denominator 2^55)."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an int or a Fraction")
    return Fraction(x)


def valuation(x, p: int):
    """p-adic valuation of a rational (or integer) x; +inf for x = 0."""
    _check_prime(p)
    if not isinstance(x, (int, Fraction)):
        x = rational(x)  # ints and Fractions both carry numerator/denominator
    if x == 0:
        return INFINITY
    return _vp(x.numerator, p) - _vp(x.denominator, p)


def _vp(n: int, p: int) -> int:
    """v_p of a nonzero int, with no prime check: beckmann._meet takes
    several per census cell whose p divides its gate (the product of t0's
    contact integers, which beckmann._contacts builds once per t0), and
    valuation's checks made a census about a quarter slower."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class Congruence(namedtuple("Congruence", "residue modulus")):
    """The class of integers congruent to `residue` mod `modulus`."""

    __slots__ = ()

    def __new__(cls, residue: int, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return super().__new__(cls, residue % modulus, modulus)

    def contains(self, n: int) -> bool:
        return n % self.modulus == self.residue

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


class InconsistentCongruences(ValueError):
    pass


def crt(congruences) -> Congruence:
    """Merge congruences into one; moduli need not be coprime.

    Overlapping moduli are allowed when the residues agree on the overlap;
    otherwise InconsistentCongruences is raised.
    """
    congruences = list(congruences)
    if not congruences:
        return Congruence(0, 1)
    r, m = congruences[0].residue, congruences[0].modulus
    for c in congruences[1:]:
        g = math.gcd(m, c.modulus)
        if (c.residue - r) % g != 0:
            raise InconsistentCongruences(
                f"no integer is {r} mod {m} and {c.residue} mod {c.modulus}"
            )
        lcm = m // g * c.modulus
        # r + m*k == c.residue (mod c.modulus), solved for k mod c.modulus/g
        k = ((c.residue - r) // g * pow(m // g, -1, c.modulus // g)) % (c.modulus // g)
        r = (r + m * k) % lcm
        m = lcm
    return Congruence(r, m)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


def parse_rat(text: str) -> Fraction:
    """Parse "a" or "a/b" with the sign on the numerator."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        den = den.strip()
        if den.startswith("-"):
            raise ValueError(f"negative denominator in {text!r}")
        if not int(den):
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rat(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

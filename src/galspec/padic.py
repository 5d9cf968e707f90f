"""Exact splitting shapes of rational polynomials over the p-adics.

padic_shape answers one question: given a monic squarefree f over Q and a
prime p, what are the ramification indices and residue degrees (e, f) of
the irreducible factors of f over the p-adic completion?  The answer is a
multiset of pairs, nothing more; factor coefficients are never produced.

The method is exact throughout.  When p does not divide disc(f) every
factor is unramified and the shape is read off the mod-p degree sequence.
Otherwise the engine runs chains of inductive valuations: starting from a
Newton polygon face it grows a key polynomial stage by stage, factoring a
residual polynomial over the current residue field at each step, until the
invariants of each p-adic factor freeze.  Every value is an integer,
scaled by the ramification denominator D of the stage that computes it,
and every residue is a finite-field element, so there is no working
precision and no stability question: the shape is a theorem about f, not
an estimate.

Wild ramification (p dividing some e) is detected exactly and refused,
since the surrounding toolkit only reasons about tame primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import INFINITY, _check_prime, valuation
from .ffact import (
    ExtField, FpField, NotPIntegral, NotSquarefree, factor_poly, poly_trim, split_degrees,
)
from .poly import UniPoly, discriminant_in, lower_hull, newton_polygon

# Stages one valuation chain may build.  The cap counts stages, not time, and
# no code bounds a chain by v_p(disc).  Every chain starts inside _shape,
# after its refusal of a zero discriminant, so a chain runs on squarefree
# input only; should one still pass the cap, it fails loudly rather than guess.
_MAX_STEPS = 500


class WildPrime(Exception):
    """p divides a ramification index; the tame analysis refuses."""


@dataclass(frozen=True)
class PadicShape:
    """Multiset of (e, f) pairs, one per p-adic irreducible factor."""

    p: int
    pairs: tuple  # ((e, f), ...) sorted descending

    def degree(self) -> int:
        return sum(e * f for e, f in self.pairs)

    def __str__(self):
        body = " ".join(f"({e},{f})" for e, f in self.pairs) or "-"
        return f"p={self.p}: {body}"


# -- inductive valuation stages ----------------------------------------------
#
# A stage assigns a value mu to a key polynomial phi; a chain of stages
# defines a valuation on Q[x] by expanding in powers of the last key.  The
# graded ring of a chain is generated over its residue field by the classes
# of phi and of a fractional-degree monomial Theta, subject to
#
#     Y = phi^d * Theta_prev^(-n),   Theta = phi^a * Theta_prev^b,
#
# where mu * D_prev = n/d in lowest terms, a*n + b*d = 1 with 0 <= a < d,
# and Y is the degree-zero unit whose residue class generates the next
# residue field.  All exponent bookkeeping below is the unique solution of
# those two relations; the assertions re-check it on every reduction.
#
# A stage with ramification denominator D = d * D_prev reports D times the
# value, which is an integer: v(sum c_i phi^i) * D is the least of
# d * (v_prev(c_i) * D_prev) + i * n.  Only the face slopes handed to a
# new stage are Fractions.


def _expansion(g: UniPoly, phi: UniPoly) -> list:
    """Coefficients of g in powers of phi (monic), lowest first."""
    if not g:
        return [g]
    k = phi.degree()
    tail = [(j, c) for j, c in enumerate(phi.coeffs[:k]) if c]
    rem = list(g.coeffs)
    out = []
    while len(rem) > k:
        # division by the monic phi in place: the top slots end up holding
        # the quotient, the bottom k the remainder
        for top in range(len(rem) - 1, k - 1, -1):
            q = rem[top]
            if q:
                for j, c in tail:
                    rem[top - k + j] -= q * c
        out.append(UniPoly(rem[:k], g.var))
        rem = rem[k:]
    out.append(UniPoly(rem, g.var))
    return out


class _Stage:
    """Shared augmentation machinery; subclasses fix value/reduction."""

    def _solve_slope(self, rel: Fraction) -> None:
        """n/d = rel in lowest terms, and a*n + b*d = 1 with 0 <= a < d."""
        self.n = rel.numerator
        self.d = rel.denominator
        self.a = 0 if self.d == 1 else pow(self.n % self.d, -1, self.d)
        self.b = (1 - self.a * self.n) // self.d
        assert self.a * self.n + self.b * self.d == 1

    def lift_key(self, u: list) -> UniPoly:
        """Monic polynomial whose residual class at this stage is u."""
        F = len(u) - 1
        zero = self.field.zero()
        acc = UniPoly.const(Fraction(0), self.var)
        for k, c in enumerate(u):
            if c == zero:
                continue
            term = self.lift_elt(c, (F - k) * self.n)
            acc = acc + term * self.phi ** (k * self.d)
        assert acc.is_monic() and acc.degree() == F * self.d * self.phi.degree()
        # a lift must reduce back to u; this closes the loop on the twist
        # exponents and fails immediately if any of them is off
        h, i0, _j0, _v = self.reduction(acc)
        assert i0 == 0 and h == poly_trim(list(u))
        return acc

    def new_values(self, g: UniPoly, phi2: UniPoly, mu2: int) -> list:
        """(nu, length) for each value nu of phi2 available for augmenting.

        mu2 is this stage's value of phi2, times D.  Faces of the polygon
        of g's phi2-expansion whose value nu lies strictly above mu2 / D,
        with the face's length: the expansion width of g's minimal-value
        support under the augmented valuation, so 1 means the chain is
        terminal.  (INFINITY, 1) when phi2 divides g exactly.
        """
        cs = _expansion(g, phi2)
        ordv = 0
        while not cs[ordv]:
            ordv += 1
        vals = []
        if ordv:
            assert ordv == 1, "repeated exact key divisor in squarefree input"
            vals.append((INFINITY, 1))
        pts = [(i, self.value(cs[i])) for i in range(ordv, len(cs)) if cs[i]]
        for slope, length in lower_hull(pts):
            if -slope > mu2:
                vals.append((-slope / self.D, length))
        assert vals, "residual factor with no continuation"
        return vals


class _StageZero(_Stage):
    """Base valuation: v_p on coefficients, v(x) = n/d for one polygon face."""

    __slots__ = ("p", "n", "d", "a", "b", "D", "F", "field", "phi", "var")

    def __init__(self, p: int, lam: Fraction, var: str):
        self.p = p
        self._solve_slope(Fraction(lam))
        self.D = self.d
        self.F = 1
        self.field = FpField(p)
        self.var = var
        self.phi = UniPoly.gen(var)

    def value(self, g: UniPoly):
        """d * v(g), an int; INFINITY for g = 0."""
        p, n, d = self.p, self.n, self.d
        best = INFINITY
        for i, c in enumerate(g.coeffs):
            if c:
                v = d * valuation(c, p) + i * n
                if v < best:
                    best = v
        return best

    def reduction(self, g: UniPoly):
        """Residual polynomial of g plus the location of its graded class.

        Returns (h, i0, j0, value) with h over F_p, the class of g equal
        to h(Y) * x^i0 * p^j0, and value = self.value(g).
        """
        p, n, d = self.p, self.n, self.d
        vg = self.value(g)
        assert vg is not INFINITY
        S = []
        for i, c in enumerate(g.coeffs):
            if c:
                j = valuation(c, p)
                if d * j + i * n == vg:
                    S.append((i, j))
        i0, j0 = S[0]
        h = [0] * ((S[-1][0] - i0) // d + 1)
        for i, j in S:
            r, rem = divmod(i - i0, d)
            assert rem == 0
            c = g.coeffs[i]
            num, den = c.numerator, c.denominator
            if j >= 0:
                num //= p**j
            else:
                den //= p**-j
            h[r] = num * pow(den, -1, p) % p
        return h, i0, j0, vg

    def lift_elt(self, c: int, m: int) -> UniPoly:
        """Constant with class c * p^m."""
        c = int(c)
        lifted = c * self.p**m if m >= 0 else Fraction(c, self.p**-m)
        return UniPoly.const(lifted, self.var)


class _Augmented(_Stage):
    """Chain extended by one key: the previous stage plus v(phi) = mu."""

    __slots__ = ("prev", "p", "phi", "n", "d", "a", "b", "D", "F",
                 "field", "ybar", "extended", "var")

    def __init__(self, prev, phi: UniPoly, mu: Fraction, u: list):
        self.prev = prev
        self.p = prev.p
        self.phi = phi
        self._solve_slope(mu * prev.D)
        self.D = self.d * prev.D
        self.F = prev.F * (len(u) - 1)
        # a linear residual factor fixes the class of Y in the same field;
        # only a genuine extension is worth a new field level (refinement
        # chains would otherwise stack degree-1 towers, and every field
        # operation would slow down by a constant factor per stage)
        self.extended = len(u) > 2
        if self.extended:
            self.field = ExtField(prev.field, tuple(u))
            self.ybar = self.field.gen()
        else:
            self.field = prev.field
            self.ybar = prev.field.neg(u[0])
        self.var = prev.var

    def value(self, g: UniPoly):
        """D * v(g), an int; INFINITY for g = 0."""
        return self._spread(g)[2]

    def _spread(self, g: UniPoly):
        cs = _expansion(g, self.phi)
        pv, n, d = self.prev, self.n, self.d
        vals = [d * pv.value(c) + i * n if c else INFINITY for i, c in enumerate(cs)]
        best = min(vals)
        S = [i for i, v in enumerate(vals) if v is not INFINITY and v == best]
        return cs, S, best

    def reduction(self, g: UniPoly):
        """Residual polynomial over this stage's residue field.

        Each contributing coefficient is reduced at the previous stage and
        re-expressed through the degree-zero unit Y_prev, whose class is
        this field's generator; the exponent solve is
        phi_prev^i1 * Theta^j1 = Y_prev^(b*i1 - a*j1) * Theta_prev^(n*i1 + d*j1)
        with (n, d, a, b) taken from the previous stage.
        """
        cs, S, vg = self._spread(g)
        pv = self.prev
        K = self.field
        y = self.ybar
        into = K.embed if self.extended else (lambda c: c)
        i0 = S[0]
        j0 = None
        h = [K.zero()] * ((S[-1] - i0) // self.d + 1)
        for i in S:
            r, rem = divmod(i - i0, self.d)
            assert rem == 0
            c1, i1, j1, vc = pv.reduction(cs[i])
            e = pv.b * i1 - pv.a * j1
            m = pv.n * i1 + pv.d * j1
            assert m == vc
            if j0 is None:
                j0 = m
            assert m == j0 - r * self.n
            acc = K.zero()
            for cr in reversed(c1):
                acc = K.add(K.mul(acc, y), into(cr))
            h[r] = K.mul(acc, K.pow(y, e))
        return h, i0, j0, vg

    def lift_elt(self, c, m: int) -> UniPoly:
        """Polynomial of degree < deg(phi) with class c * Theta_prev^m."""
        pv = self.prev
        K = self.field
        v, i = divmod(pv.a * m, pv.d)
        j = pv.n * v + pv.b * m
        shifted = K.mul(c, K.pow(self.ybar, v))
        cz = poly_trim(list(shifted)) if self.extended else [shifted]
        zero = pv.field.zero()
        acc = UniPoly.const(Fraction(0), self.var)
        for r, cr in enumerate(cz):
            if cr == zero:
                continue
            term = pv.lift_elt(cr, j - r * pv.n)
            acc = acc + term * pv.phi ** (i + r * pv.d)
        return acc


# -- decomposition driver ----------------------------------------------------


def _decompose_face(f: UniPoly, p: int, lam: Fraction) -> list:
    """(e, f) pairs of the p-adic factors attached to one polygon face."""
    out = []
    work = [_StageZero(p, lam, f.var)]
    steps = 0
    while work:
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError(
                f"inductive valuation chain passed {_MAX_STEPS} stages at "
                f"p={p}; refusing to return an unverified shape"
            )
        V = work.pop()
        h, _i0, _j0, _vg = V.reduction(f)
        zero = V.field.zero()
        _unit, factors = factor_poly(V.field, h, seed=0)
        for u, _mult in factors:
            assert u[0] != zero, "unexpected unit-power factor in residual"
            phi2 = V.lift_key(u)
            mu2 = V.value(phi2)
            for nu, length in V.new_values(f, phi2, mu2):
                if nu is INFINITY:
                    # phi2 divides f: it is a full p-adic factor already
                    e = V.D
                    res = phi2.degree() // e
                    assert res == V.F * (len(u) - 1)
                    out.append((e, res))
                    continue
                A = _Augmented(V, phi2, nu, u)
                if length == 1:
                    e = A.D
                    res = phi2.degree() // e
                    assert res == A.F and e * res == phi2.degree()
                    out.append((e, res))
                else:
                    work.append(A)
    return out


def padic_shape(f: UniPoly, p: int) -> PadicShape:
    """Ramification indices and residue degrees of f's p-adic factors.

    f must be monic, squarefree over Q (checked as disc(f) != 0),
    univariate (bind any parameters first), with p-integral coefficients.
    Raises WildPrime when p divides a ramification index: the result would
    be correct but the toolkit's tame reasoning does not apply, so it is
    withheld.
    """
    _check_prime(p)
    if not isinstance(f, UniPoly):
        raise TypeError("expected a UniPoly over Q")
    if any(isinstance(c, UniPoly) for c in f.coeffs):
        raise ValueError("polynomial still has free parameters; bind them first")
    if f.degree() < 1:
        raise ValueError("shape analysis needs degree at least 1")
    if not f.is_monic():
        raise ValueError("leading coefficient must be 1")
    return _shape(f, p, discriminant_in(f, f.var))


def _shape(f: UniPoly, p: int, disc) -> PadicShape:
    """padic_shape of a checked monic f of degree >= 1, given disc = disc(f)."""
    for c in f.coeffs:
        if not isinstance(c, int) and c.denominator % p == 0:
            raise NotPIntegral(f"coefficient {c} has {p} in the denominator")
    if disc == 0:
        raise NotSquarefree("repeated factor over Q; shapes need squarefree input")
    dv = valuation(disc, p)
    if dv == 0:  # f is squarefree mod p, so every factor is unramified
        pairs = [(1, d) for d in split_degrees(f.coeffs, p)]
    else:  # inductive valuations, one chain per Newton polygon face
        pairs, h = [], f
        if not h.coeff(0):
            pairs.append((1, 1))  # the factor x itself
            h = h.exact_div(UniPoly.gen(h.var))
        if h.degree() > 0:
            for lam, _ell in newton_polygon(h, lambda c: valuation(c, p)).faces:
                pairs.extend(_decompose_face(h, p, lam))
    assert sum(e * res for e, res in pairs) == f.degree()

    for e, _res in pairs:
        if e % p == 0:
            raise WildPrime(f"ramification index {e} at p={p}")
    if dv:
        # tame conductor bound: v_p(disc f) exceeds sum (e-1)*f by twice
        # the p-valuation of the index of Z[x]/(f) in the maximal order
        gap = dv - sum((e - 1) * res for e, res in pairs)
        assert gap >= 0 and gap % 2 == 0
    return PadicShape(p, tuple(sorted(pairs, reverse=True)))

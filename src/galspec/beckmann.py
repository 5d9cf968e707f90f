"""Tame inertia prediction for specialized families.

Away from a finite set of bad primes, ramification in the number field cut
out by binding (s, t) = (s0, t0) is read off from the contact order between
t0 and the branch points: a prime p ramifies only if t0 meets some branch
point p-adically, and the inertia group is then generated by tau^I, where
tau generates inertia over that branch point and I is the contact order.
The contacts are read on integers: for t0 = a/b in lowest terms and a
location u/w, v_p(t0 - u/w) = v_p(a*w - u*b) - v_p(b*w); at infinity the
contact is v_p(b) - v_p(a); and for the integer residual g of degree D,
v_p(g(t0)) = v_p(b^D * g(a/b)) - D*v_p(b), with b^D * g(a/b) summed on ints.
predict_any reads them in two steps: _contacts builds those integers once
per t0, with their product as a gate, and _meet takes their valuations at
one p, returning None at once when p does not divide the gate, and
predicts at the one branch point t0 meets.  census calls the two steps
itself, _contacts once per t0 and _meet once per good p.  predict_inertia
holds predict_any's prediction to a given branch point.

The bad set is carried as a list of integer certificates, one per reason, so
membership can be decided exactly for any prime without factoring anything.
Exceptional primes are decided the same way: is_exceptional tests p against
the group order, the s-guards' leading numerators and f's leaf denominators.

specialization(manifest, s0) binds s = s0 once per parameter value: it
refuses a degenerate s0, then caches the bound family, discriminant, branch
locations, integer residual locus and certificates that every per-s0 entry
point here and in grunwald reads, and for a family of t-degree 1 it checks
each declared inertia class against root multiplicities.  Its fibre(t0) is
the one builder of a fibre's X-coefficients and discriminant: local_model
(the model census and verify measure), both identification modes and the
t-line search read it.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import NonPrimeError, _vp, is_prime, primes_up_to, rational
from .family import FamilyManifest, ManifestInconsistent, require_nondegenerate
from .ffact import roots_mod_p
from .permgrp import CycleType, cycle_type, power_cycle_type
from .poly import (
    UniPoly,
    _coerce,
    discriminant_in,
    gcd_over_poly_coeffs,
    integer_normalize,
    primitive_part,
    specialize,
    squarefree_part,
)

REASONS = (
    "DividesGroupOrder",
    "VerticalRamification",
    "BranchCollision",
    "NonIntegralBranchPoint",
    "DiscriminantInseparable",
)


class BadPrimeReport(namedtuple("BadPrimeReport", "p reasons")):
    """A prime excluded from predictions, with the reasons it fails."""

    __slots__ = ()

    def __new__(cls, p: int, reasons: tuple):
        if not reasons:
            raise ValueError(f"bad prime {p} reported without a reason")
        unknown = set(reasons) - set(REASONS)
        if unknown:
            raise ValueError(f"unknown reasons {sorted(unknown)}")
        return super().__new__(cls, p, tuple(sorted(set(reasons))))


class InertiaPrediction(
    namedtuple("InertiaPrediction", "p branch multiplicity generator_class order")
):
    """Inertia over p is conjugate to the cyclic group <tau^multiplicity>;
    generator_class is the CycleType of tau^multiplicity."""

    __slots__ = ()


class UnramifiedPrediction(namedtuple("UnramifiedPrediction", "p")):
    """t0 meets no branch point at p; the specialization is unramified."""

    __slots__ = ()


class PredictionContradiction(Exception):
    """t0 meets two branch points at once: p leaked through the bad set."""

    def __init__(self, report: BadPrimeReport):
        self.report = report
        super().__init__(
            f"p = {report.p} intersects several branch points; "
            f"it must be treated as bad ({', '.join(report.reasons)})"
        )


class Specialization(
    namedtuple("Specialization", "s0 f disc locations residual certificates")
):
    """The family at one nondegenerate s = s0: f and its X-discriminant
    bound, each declared branch point's t-location (None at infinity), the
    primitive integer model of the non-rational locus (None when empty), and
    (reason, integer) certificates: p is bad for s0 iff it divides one."""

    __slots__ = ()

    def fibre(self, t0) -> tuple:
        """(X-coefficients lowest first, disc) of f(s0, t0, X); both are ints
        when t0 and the bound leaves are integral.  f is monic in X, so disc
        is the discriminant of the fibre itself.  Each X-coefficient of f is
        a polynomial in t, bound by Horner's rule.  An int t0 is bound as it
        is; any other goes through Fraction, so 3/1 binds as 3."""
        if not isinstance(t0, int):
            t0 = _coerce(rational(t0))
        return [_coerce(c.evaluate(t0)) for c in self.f.coeffs], self.disc.evaluate(t0)


@lru_cache(maxsize=64)
def specialization(manifest: FamilyManifest, s0) -> Specialization:
    """Bind s = s0 once; raises ValueError when s0 is degenerate and
    ManifestInconsistent when a declared class fails _check_declared_classes."""
    s0 = rational(s0)
    require_nondegenerate(manifest, s0)
    certs = []

    def add(reason, n):
        n = abs(int(n))
        if n > 1:
            certs.append((reason, n))

    if manifest.group is not None:
        add("DividesGroupOrder", manifest.group.order)

    # vertical ramification: the t-discriminant must stay nonzero mod p
    disc = specialize(manifest.disc, {"s": s0})
    c, ints = integer_normalize(disc)
    add("VerticalRamification", c.numerator)
    add("VerticalRamification", c.denominator)
    add("DiscriminantInseparable", ints[-1])

    # the squarefree integer model of the branch locus: degree or
    # separability loss mod p means branch points collide or escape
    w = squarefree_part(disc)
    add("NonIntegralBranchPoint", w.lc())
    if w.degree() >= 2:
        dw = discriminant_in(w, "t")
        add("BranchCollision", dw)
        add("DiscriminantInseparable", dw)

    locations = tuple(
        None if bp.is_infinite else bp.location_at(s0) for bp in manifest.branch_points
    )
    finite = [a for a in locations if a is not None]
    for i, a in enumerate(finite):
        add("NonIntegralBranchPoint", a.denominator)
        for b in finite[i + 1 :]:
            add("BranchCollision", (a - b).numerator)

    residual = None
    if manifest.locus.residual.degree() >= 1:
        residual = primitive_part(specialize(manifest.locus.residual, {"s": s0}))
    spec = Specialization(
        s0, specialize(manifest.f, {"s": s0}), disc, locations, residual, tuple(certs)
    )
    _check_declared_classes(manifest, spec)
    return spec


def _check_declared_classes(manifest: FamilyManifest, spec: Specialization) -> None:
    """Raise ManifestInconsistent when a declared inertia generator's cycle
    type is not the ramification of f over its branch point at s0.

    Checked only for t-degree 1, f = A(X) + t*B(X) with deg B < n = deg f,
    when A and B share no root.  The X-line is then the cover t = -A/B, so
    by Hurwitz the class over a finite c is the root multiplicities of
    A + c*B, and over t = infinity those of B plus n - deg B at X = infinity.
    """
    if spec.f.degree_in("t") != 1:
        return
    A = UniPoly(spec.fibre(0)[0], "X")
    B = UniPoly([c.coeff(1) for c in spec.f.coeffs], "X")
    if gcd_over_poly_coeffs(A, B).degree() >= 1:
        return  # f(s0) has a factor free of t; the X-line is not the cover
    for i, (bp, loc) in enumerate(zip(manifest.branch_points, spec.locations)):
        if loc is None:
            found = _root_multiplicities(B) + (A.degree() - B.degree(),)
        else:
            found = _root_multiplicities(UniPoly(spec.fibre(loc)[0], "X"))
        found, declared = CycleType(found), cycle_type(bp.inertia_generator)
        if found != declared:
            raise ManifestInconsistent(
                f"branch point {i} declares inertia class {declared}, but f "
                f"ramifies there with indices {found} at s0 = {spec.s0}"
            )


def _root_multiplicities(h: UniPoly) -> tuple:
    """The multiplicities of h's roots over an algebraic closure.  With
    g_0 = h and g_k = gcd(g_(k-1), g_(k-1)'), deg g_(k-1) - deg g_k roots
    have multiplicity >= k; the multiplicities are the conjugate partition
    of those counts."""
    at_least, g = [], h
    while g.degree() >= 1:
        d = gcd_over_poly_coeffs(g, g.derivative())
        at_least.append(g.degree() - d.degree())
        g = d
    return tuple(sum(r >= j for r in at_least) for j in range(1, max(at_least, default=0) + 1))


def bad_primes(manifest: FamilyManifest, s0, bound: int = 1000) -> list:
    """All bad primes up to bound, each with its reasons.

    The reports are complete below the bound; use is_bad_prime for exact
    membership of any individual prime, however large.
    """
    certs = specialization(manifest, s0).certificates
    _require_group(manifest)
    out = []
    for p in primes_up_to(bound):
        reasons = {reason for reason, n in certs if n % p == 0}
        if reasons:
            out.append(BadPrimeReport(p, tuple(sorted(reasons))))
    return out


def is_bad_prime(manifest: FamilyManifest, s0, p: int) -> bool:
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    certs = specialization(manifest, s0).certificates
    _require_group(manifest)
    return any(n % p == 0 for _, n in certs)


def residue_class_bound(manifest: FamilyManifest) -> int:
    """Upper bound for |bad_s_residues(p)|, independent of p."""
    return sum(g.degree() for _, g in manifest.s_guards)


def is_exceptional(manifest: FamilyManifest, p: int) -> bool:
    """Whether the residue-class analysis itself breaks down at p: p divides
    the group order, an s-guard's leading numerator or f's leaf denominators
    (f is monic, so their lcm is the denominator of its content)."""
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    _require_group(manifest)
    return (
        manifest.group.order % p == 0
        or any(g.coeff(g.degree()).numerator % p == 0 for _, g in manifest.s_guards)
        or integer_normalize(manifest.f)[0].denominator % p == 0
    )


def bad_s_residues(manifest: FamilyManifest, p: int) -> frozenset:
    """Residues r mod p such that s0 = r could make p a bad prime.

    These are the mod-p roots of the manifest's s-polynomial conditions;
    their number is at most residue_class_bound(manifest) for every
    admissible p.
    """
    if is_exceptional(manifest, p):
        raise ValueError(f"p = {p} is in the global exceptional set")
    out = set()
    for _, g in manifest.s_guards:
        out.update(roots_mod_p([g.coeff(i) for i in range(g.degree() + 1)], p))
    return frozenset(out)


def predict_any(manifest: FamilyManifest, s0, t0, p: int):
    """Predict the inertia class over p in the (s0, t0) specialization.

    Reads t0's contact with each branch point once and returns the
    InertiaPrediction at the declared branch point that t0 meets, or None
    when it meets none.  The uniqueness of the met branch point is asserted
    at runtime: a double meeting means p leaked through the bad-prime set
    and raises PredictionContradiction.  A meeting with a non-rational
    branch point raises ValueError, since no inertia generator is declared
    for it.

    The caller is responsible for keeping p outside bad_primes(manifest, s0);
    only a degenerate s0 and the wild case (p dividing the group order) are
    rejected here.
    """
    _require_branch_points(manifest)
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    spec = specialization(manifest, s0)
    if type(t0) is not int:
        t0 = rational(t0)
    if manifest.group is not None and manifest.group.order % p == 0:
        raise ValueError(
            f"p = {p} divides the group order; the tame criterion does not apply"
        )
    return _meet(manifest, _contacts(spec, t0), p)


def _require_branch_points(manifest: FamilyManifest) -> None:
    if not manifest.branch_points:
        raise ValueError("the manifest declares no branch points")


def _require_group(manifest: FamilyManifest) -> None:
    if manifest.group is None:
        raise ValueError("manifest declares no group; its order is needed")


def _contacts(spec: Specialization, t0) -> tuple:
    """The integers behind t0's contacts (module docstring), which do not
    depend on p: (t0, a, b, terms, value, D, gate) for t0 = a/b in lowest
    terms, b > 0.  terms holds, per location in order, None at infinity and
    (a*w - u*b, w) at u/w; value is b^D * g(a/b) for the residual g of
    degree D (None when there is none); gate is the product of the nonzero
    b, a, differences and value.  Raises ValueError when t0 is a branch
    point, declared (the first in order) before undeclared."""
    a, b = t0.numerator, t0.denominator
    gate = b * a if a else b
    terms = []
    for j, loc in enumerate(spec.locations):
        if loc is None:
            terms.append(None)
            continue
        diff = a * loc.denominator - loc.numerator * b
        if not diff:
            raise ValueError(f"t0 = {t0} is the branch point at index {j}")
        terms.append((diff, loc.denominator))
        gate *= diff
    value = degree = None
    if spec.residual is not None:
        value, bk = 0, 1  # b^D * g(a/b), Horner from the top coefficient
        for c in reversed(spec.residual.coeffs):
            value, bk = value * a + c * bk, bk * b
        if value == 0:
            raise ValueError(f"t0 = {t0} is an undeclared branch point")
        degree = len(spec.residual.coeffs) - 1
        gate *= value
    return t0, a, b, tuple(terms), value, degree, gate


def _meet(manifest: FamilyManifest, contacts: tuple, p: int):
    """predict_any's answer at p from _contacts' integers, for a prime p
    prime to the group order.

    When p does not divide the gate, t0 meets nothing at p: then v_p(b) = 0
    and v_p(a) = 0, so the contact at infinity, v_p(b) - v_p(a), is 0; at
    u/w the difference is a nonzero factor of the gate, so the contact
    v_p(a*w - u*b) - v_p(b) - v_p(w) = -v_p(w) is at most 0; and the
    residual is met only when v_p(value) > D*v_p(b) = 0, which p ∤ value
    rules out.  So no contact is positive, and None is returned at once.
    """
    t0, a, b, terms, value, degree, gate = contacts
    if gate % p:
        return None
    vb = _vp(b, p)
    met = []  # (branch index, contact); index None for the residual locus
    for j, term in enumerate(terms):
        if term is None:
            contact = vb - _vp(a, p) if a else 0
        else:
            diff, w = term
            contact = _vp(diff, p) - vb - _vp(w, p)
        if contact > 0:
            met.append((j, contact))
    if value is not None and _vp(value, p) > degree * vb:
        met.append((None, 0))

    if not met:
        return None
    if len(met) >= 2:
        raise PredictionContradiction(BadPrimeReport(p, ("BranchCollision",)))
    j, contact = met[0]
    if j is None:
        raise ValueError(
            f"t0 = {t0} meets a non-rational branch point at p = {p}; "
            "no inertia generator is declared for it"
        )
    bp = manifest.branch_points[j]
    return InertiaPrediction(
        p,
        j,
        contact,
        power_cycle_type(bp.inertia_generator, contact),
        bp.e // gcd(bp.e, contact),
    )


def predict_inertia(manifest: FamilyManifest, i: int, s0, t0, p: int):
    """predict_any, held to the declared branch point i: an
    InertiaPrediction when t0 meets it, an UnramifiedPrediction when t0
    meets nothing, and ValueError when t0 meets another branch point.  No
    module calls it; it stays as the README's entry point for a prediction
    held to one branch point, which bench/spans.py traces by name."""
    if not 0 <= i < len(manifest.branch_points):
        raise IndexError(f"no branch point with index {i}")
    prediction = predict_any(manifest, s0, t0, p)
    if prediction is None:
        return UnramifiedPrediction(p)
    if prediction.branch != i:
        raise ValueError(
            f"t0 = {Fraction(t0)} meets branch point {prediction.branch}, not {i}"
        )
    return prediction

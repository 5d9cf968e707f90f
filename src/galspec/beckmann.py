"""Tame inertia prediction for specialized families.

Away from a finite set of bad primes, ramification in the number field cut
out by binding (s, t) = (s0, t0) is read off from the contact order between
t0 and the branch points: a prime p ramifies only if t0 meets some branch
point p-adically, and the inertia group is then generated by tau^I, where
tau generates inertia over that branch point and I is the contact order.
predict_any reads each contact once and predicts at the one branch point t0
meets; predict_inertia holds that prediction to a given branch point.

The bad set is carried as a list of integer certificates, one per reason, so
membership can be decided exactly for any prime without factoring anything.

specialization(manifest, s0) binds s = s0 once per parameter value: it
refuses a degenerate s0, then caches the bound family, discriminant, branch
locations, integer residual locus and certificates that every per-s0 entry
point here and in grunwald reads.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import NonPrimeError, factorint, is_prime, primes_up_to, rational, valuation
from .family import FamilyManifest, require_nondegenerate
from .ffact import FpField, factor_poly, reduce_mod_p
from .permgrp import CycleType, power_cycle_type
from .poly import (
    UniPoly,
    _bind_s,
    _leaf_denominator,
    discriminant_in,
    integer_normalize,
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


@dataclass(frozen=True)
class BadPrimeReport:
    """A prime excluded from predictions, with the reasons it fails."""

    p: int
    reasons: tuple

    def __post_init__(self):
        if not self.reasons:
            raise ValueError(f"bad prime {self.p} reported without a reason")
        unknown = set(self.reasons) - set(REASONS)
        if unknown:
            raise ValueError(f"unknown reasons {sorted(unknown)}")
        object.__setattr__(self, "reasons", tuple(sorted(set(self.reasons))))


@dataclass(frozen=True)
class InertiaPrediction:
    """Inertia over p is conjugate to the cyclic group <tau^multiplicity>."""

    p: int
    branch: int
    multiplicity: int
    generator_class: CycleType
    order: int


@dataclass(frozen=True)
class UnramifiedPrediction:
    """t0 meets no branch point at p; the specialization is unramified."""

    p: int


class PredictionContradiction(Exception):
    """t0 meets two branch points at once: p leaked through the bad set."""

    def __init__(self, report: BadPrimeReport):
        self.report = report
        super().__init__(
            f"p = {report.p} intersects several branch points; "
            f"it must be treated as bad ({', '.join(report.reasons)})"
        )


@dataclass(frozen=True)
class Specialization:
    """The family at one nondegenerate s = s0: f and its X-discriminant
    bound, each declared branch point's t-location (None at infinity), the
    primitive integer model of the non-rational locus (None when empty), and
    (reason, integer) certificates: p is bad for s0 iff it divides one."""

    s0: Fraction
    f: UniPoly
    disc: UniPoly
    locations: tuple
    residual: UniPoly | None
    certificates: tuple


@lru_cache(maxsize=64)
def specialization(manifest: FamilyManifest, s0) -> Specialization:
    """Bind s = s0 once; raises ValueError when s0 is degenerate."""
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
    disc = _bind_s(manifest.disc, s0)
    c, ints = integer_normalize(disc)
    add("VerticalRamification", c.numerator)
    add("VerticalRamification", c.denominator)
    add("DiscriminantInseparable", ints[-1])

    # the squarefree integer model of the branch locus: degree or
    # separability loss mod p means branch points collide or escape
    _, wints = integer_normalize(squarefree_part(UniPoly(ints, "t")))
    add("NonIntegralBranchPoint", wints[-1])
    if len(wints) > 2:
        dw = discriminant_in(UniPoly(wints, "t"), "t")
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
        _, rints = integer_normalize(_bind_s(manifest.locus.residual, s0))
        residual = UniPoly(rints, "t")
    return Specialization(
        s0, specialize(manifest.f, {"s": s0}), disc, locations, residual, tuple(certs)
    )


def bad_primes(manifest: FamilyManifest, s0, bound: int = 1000) -> list:
    """All bad primes up to bound, each with its reasons.

    The reports are complete below the bound; use is_bad_prime for exact
    membership of any individual prime, however large.
    """
    certs = specialization(manifest, s0).certificates
    if manifest.group is None:
        raise ValueError("manifest declares no group; its order is needed")
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
    if manifest.group is None:
        raise ValueError("manifest declares no group; its order is needed")
    return any(n % p == 0 for _, n in certs)


def residue_class_bound(manifest: FamilyManifest) -> int:
    """Upper bound for |bad_s_residues(p)|, independent of p."""
    return sum(g.degree() for _, g in manifest.s_guards)


def global_exceptional(manifest: FamilyManifest) -> frozenset:
    """Primes at which the residue-class analysis itself breaks down."""
    if manifest.group is None:
        raise ValueError("manifest declares no group; its order is needed")
    out = set(factorint(manifest.group.order))
    for _, g in manifest.s_guards:
        lc = g.coeff(g.degree())
        out.update(factorint(abs(lc.numerator)))
    out.update(factorint(_leaf_denominator(manifest.f)))
    return frozenset(out)


def bad_s_residues(manifest: FamilyManifest, p: int) -> frozenset:
    """Residues r mod p such that s0 = r could make p a bad prime.

    These are the mod-p roots of the manifest's s-polynomial conditions;
    their number is at most residue_class_bound(manifest) for every
    admissible p.
    """
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if p in global_exceptional(manifest):
        raise ValueError(f"p = {p} is in the global exceptional set")
    out = set()
    K = FpField(p)
    for _, g in manifest.s_guards:
        coeffs = [g.coeff(i) for i in range(g.degree() + 1)]
        _unit, factors = factor_poly(K, reduce_mod_p(coeffs, p))
        for factor, _ in factors:
            if len(factor) == 2:  # monic linear: the root is -factor[0]
                out.add(-factor[0] % p)
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
    if not manifest.branch_points:
        raise ValueError("the manifest declares no branch points")
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    spec = specialization(manifest, s0)
    t0 = Fraction(t0)
    if manifest.group is not None and manifest.group.order % p == 0:
        raise ValueError(
            f"p = {p} divides the group order; the tame criterion does not apply"
        )

    met = []  # (branch index, contact); index None for the residual locus
    for j, a in enumerate(spec.locations):
        if a is None:
            contact = -valuation(t0, p) if t0 else 0
        else:
            if t0 == a:
                raise ValueError(f"t0 = {t0} is the branch point at index {j}")
            contact = valuation(t0 - a, p)
        if contact > 0:
            met.append((j, contact))
    if spec.residual is not None:
        value = spec.residual.evaluate(t0)
        if value == 0:
            raise ValueError(f"t0 = {t0} is an undeclared branch point")
        if valuation(value, p) > 0:
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
    meets nothing, and ValueError when t0 meets another branch point."""
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

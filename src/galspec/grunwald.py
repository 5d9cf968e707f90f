"""Search for specializations realizing prescribed local behaviour.

A local condition fixes, at one odd prime, either the exact splitting type
of an unramified fiber or a tame ramified picture over a declared branch
point: inertia generated by tau^d plus the order of the residue Frobenius.
Finitely many conditions are met simultaneously by intersecting congruences
on s and on t (or on u = 1/t when the target branch point sits at
infinity), so every solution comes as an arithmetic progression together
with its least witness.

Verification is independent of the search: the fiber's p-adic factorization
shapes are measured from scratch and compared against every lift of the
prescribed Frobenius into the decomposition model.  Group identification
reads cycle types of fibres mod p through one sampler, in two modes: verify
reads its fibre at auxiliary primes until the types it saw prove the group,
identify reads random (t0, p) fibres.  census sets predicted inertia
against measured shapes on a grid.
"""

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

from .arith import Congruence, NonPrimeError, crt, format_rat, is_prime, primes_up_to, valuation
from .beckmann import (
    bad_primes, bad_s_residues, global_exceptional, is_bad_prime, predict_any, specialization,
)
from .family import FamilyManifest, infinity_chart, nondegenerate_check
from .ffact import NotPIntegral, NotSquarefree, degree_sequence, reduce_mod_p, split_degrees
from .padic import WildPrime, _shape, padic_shape
from .permgrp import (
    CycleType, ef_multiset, fingerprint, generate, invariably_generates, power_cycle_type,
)
from .poly import UniPoly, specialize, x_poly_coeffs

AUX_PRIME_BOUND = 5000
IDENTIFY_PRIME_BOUND = 2000
IDENTIFY_T_GRID = 10_000
IDENTIFY_REL_TOL = 0.5


class SkipResidue(Exception):
    """The residue data is unreadable at this s0 mod p; try another."""


class SearchFailed(Exception):
    """No admissible specialization parameter exists for some condition."""


class NoResidueFound(SearchFailed):
    """No residue class of s realizes the prescribed residue Frobenius."""


class TargetNotFound(SearchFailed):
    """No residue class of t realizes the prescribed local behaviour."""


class UnsupportedConditionCombination(Exception):
    """Conditions that cannot share one integrality chart."""


# -- conditions ----------------------------------------------------------------


@dataclass(frozen=True)
class Unramified:
    """p must be unramified with this exact splitting type."""

    p: int
    target: CycleType


@dataclass(frozen=True)
class Ramified:
    """p must ramify over one branch point with inertia generated by tau^d.

    frobenius_target is the order of the residue Frobenius in the Galois
    group of the branch point's residue subextension; 1 means trivial.
    """

    p: int
    branch: int
    d: int
    frobenius_target: int = 1


def parse_condition(text: str, manifest: FamilyManifest):
    """Build a condition from "p=7,branch=inf,d=1,frob=2" or
    "p=13,unram,type=3,3,1" (commas after type= continue its list)."""
    fields = {}
    type_parts = None
    unram = False
    for piece in (x.strip() for x in text.split(",")):
        if not piece:
            continue
        if piece == "unram":
            unram = True
            continue
        if "=" not in piece:
            if type_parts is None:
                raise ValueError(f"cannot parse condition piece {piece!r}")
            type_parts.append(int(piece))
            continue
        key, _, value = piece.partition("=")
        if key == "type":
            type_parts = [int(value)]
        elif key in ("p", "branch", "d", "frob"):
            fields[key] = value
        else:
            raise ValueError(f"unknown condition key {key!r}")
    if "p" not in fields:
        raise ValueError("every condition names its prime with p=")
    p = int(fields["p"])
    if unram:
        if type_parts is None or any(k in fields for k in ("branch", "d", "frob")):
            raise ValueError("unramified conditions take exactly p= and type=")
        return Unramified(p, CycleType(tuple(type_parts)))
    if type_parts is not None:
        raise ValueError("type= belongs to unramified conditions")
    if "branch" not in fields or "d" not in fields:
        raise ValueError("ramified conditions need branch= and d= (or the unram flag)")
    where = fields["branch"]
    if where in ("inf", "infinity", "oo"):
        hits = [i for i, bp in enumerate(manifest.branch_points) if bp.is_infinite]
        if len(hits) != 1:
            raise ValueError("the manifest declares no branch point at infinity")
        index = hits[0]
    else:
        index = int(where)
    return Ramified(p, index, int(fields["d"]), int(fields.get("frob", 1)))


def validate_conditions(manifest: FamilyManifest, conditions) -> None:
    """Reject condition lists the toolkit cannot honestly search or verify."""
    seen = set()
    infinite = []
    for cond in conditions:
        p = cond.p
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        if p == 2:
            raise ValueError(
                "conditions at p = 2 are excluded: prescribing local behaviour "
                "there fails wholesale, not just for this family"
            )
        if p in seen:
            raise ValueError("conditions must be at pairwise distinct primes")
        seen.add(p)
        if isinstance(cond, Unramified):
            _validate_unramified(manifest, cond)
        elif isinstance(cond, Ramified):
            _validate_ramified(manifest, cond)
            infinite.append(manifest.branch_points[cond.branch].is_infinite)
        else:
            raise TypeError(f"not a local condition: {cond!r}")
    if any(infinite) and not all(infinite):
        raise UnsupportedConditionCombination(
            "ramified conditions mix finite branch points with the branch at "
            "infinity; no single chart keeps both prescriptions integral"
        )


def _validate_unramified(manifest, cond):
    if manifest.group is None:
        raise ValueError("unramified targets need group_generators in the manifest")
    n = manifest.f.degree()
    if cond.target.degree() != n:
        raise ValueError(
            f"target cycle type has degree {cond.target.degree()}, "
            f"the family has degree {n}"
        )
    if cond.target not in fingerprint(manifest.group):
        raise ValueError(f"cycle type {cond.target} is not realized in the group")


def _validate_ramified(manifest, cond):
    if not 0 <= cond.branch < len(manifest.branch_points):
        raise ValueError(f"no branch point with index {cond.branch}")
    bp = manifest.branch_points[cond.branch]
    if bp.e % cond.p == 0:
        raise ValueError(
            f"p = {cond.p} divides e = {bp.e}: wild ramification is out of scope"
        )
    if cond.d < 1 or bp.e % cond.d:
        raise ValueError(f"d = {cond.d} must divide e = {bp.e}")
    if cond.d == bp.e:
        raise ValueError("d = e prescribes trivial inertia; use an unramified condition")
    x = cond.frobenius_target
    if x < 1:
        raise ValueError("the Frobenius target is an element order, so at least 1")
    if bp.rho is None and (x != 1 or bp.decomposition.order != bp.e):
        raise ValueError(
            "pinning the residue Frobenius needs the branch point's residue "
            "subextension data"
        )
    if bp.rho is not None and bp.rho.degree() % x:
        raise ValueError(
            f"order {x} does not divide the residue subextension degree "
            f"{bp.rho.degree()}"
        )
    if (bp.decomposition.order * cond.d // bp.e) % x:
        raise ValueError(
            f"Frobenius order {x} is not realized in the decomposition quotient"
        )


# -- residue Frobenius ---------------------------------------------------------


def frobenius_in_residue_field(rho: UniPoly, s0, p: int) -> tuple:
    """Factor degrees of rho(s0, X) mod p, sorted ascending.

    All degrees equal d exactly when the residue Frobenius has order d.
    Raises SkipResidue when the reduction is unreadable: p in a
    denominator, a degree drop, or a repeated factor mod p.
    """
    coeffs = x_poly_coeffs(specialize(rho, {"s": Fraction(s0)}))
    try:
        if len(reduce_mod_p(coeffs, p)) != len(coeffs):
            raise SkipResidue(f"residue polynomial degenerates mod {p}")
        return tuple(degree_sequence(coeffs, p))
    except (NotPIntegral, NotSquarefree) as exc:
        raise SkipResidue(str(exc)) from None


# -- the s-line search ---------------------------------------------------------


def search_s0(manifest: FamilyManifest, conditions, *, limit: int = 10_000):
    """Congruence on s realizing every prescribed residue Frobenius, plus
    the least nondegenerate witness.

    Only ramified conditions with residue data constrain s directly; the
    witness additionally avoids values where a condition prime goes bad.
    """
    validate_conditions(manifest, conditions)
    congruences = []
    for cond in conditions:
        if not isinstance(cond, Ramified):
            continue
        bp = manifest.branch_points[cond.branch]
        if bp.rho is None:
            continue
        congruences.append(_frobenius_congruence(manifest, bp, cond))
    progression = crt(congruences) if congruences else Congruence(0, 1)

    avoid = []
    if manifest.group is not None:
        exceptional = global_exceptional(manifest)
        avoid = sorted({c.p for c in conditions} - exceptional)
    for k in range(limit):
        s0 = progression.residue + k * progression.modulus
        if not nondegenerate_check(manifest, s0):
            continue
        if any(is_bad_prime(manifest, s0, p) for p in avoid):
            continue
        return progression, s0
    raise NoResidueFound("no nondegenerate specialization of s in range")


def _frobenius_congruence(manifest, bp, cond) -> Congruence:
    p, x = cond.p, cond.frobenius_target
    excluded = frozenset()
    if manifest.group is not None and p not in global_exceptional(manifest):
        excluded = bad_s_residues(manifest, p)
    for r in range(p):
        if r in excluded:
            continue
        try:
            seq = frobenius_in_residue_field(bp.rho, r, p)
        except SkipResidue:
            continue
        if all(deg == x for deg in seq):
            return Congruence(r, p)
    raise NoResidueFound(
        f"no residue of s mod {p} gives the Frobenius order {x} over "
        f"branch point {cond.branch}"
    )


# -- the t-line search ---------------------------------------------------------


@dataclass(frozen=True)
class TProgression:
    """Arithmetic progression of specialization values for t.

    chart "t" constrains t itself; chart "u" constrains u = 1/t, used when
    the target branch point sits at infinity.  valuations records the
    exact prescribed contact order (p, d) per ramified condition.
    """

    chart: str
    congruence: Congruence
    valuations: tuple

    def member(self, k: int) -> Fraction:
        w = self.congruence.residue + k * self.congruence.modulus
        if self.chart == "u":
            if w == 0:
                raise ValueError("u = 0 is the branch point at infinity itself")
            return Fraction(1, w)
        return Fraction(w)


def search_t0(manifest: FamilyManifest, s0, conditions, *, limit: int = 10_000):
    """Progression of t-values realizing every condition at s = s0, plus
    the least witness with a squarefree fiber."""
    validate_conditions(manifest, conditions)
    spec = specialization(manifest, s0)
    s0 = spec.s0
    ram = [c for c in conditions if isinstance(c, Ramified)]
    chart = "t"
    if ram and all(manifest.branch_points[c.branch].is_infinite for c in ram):
        chart = "u"
    congruences = []
    valuations = []
    for cond in ram:
        congruences.append(_approach_congruence(spec, cond, chart))
        valuations.append((cond.p, cond.d))
    for cond in conditions:
        if isinstance(cond, Unramified):
            congruences.append(_split_congruence(manifest, s0, cond, chart))
    merged = crt(congruences) if congruences else Congruence(0, 1)
    prescription = TProgression(chart, merged, tuple(valuations))
    return prescription, _t0_witness(spec, prescription, limit)


def _approach_congruence(spec, cond, chart) -> Congruence:
    # order-d contact with the target branch point, order-0 with every other
    p, d = cond.p, cond.d
    if chart == "u":
        center = Fraction(0)
    else:
        center = spec.locations[cond.branch]
        if center and valuation(center, p) < 0:
            raise ValueError(
                f"branch point {center} is not p-integral at {p}; no integer "
                "progression approaches it"
            )
    for j, cj in enumerate(spec.locations):
        if j == cond.branch or cj is None:
            continue
        if chart == "u":
            if cj == 0:
                continue  # t = 0 is u = infinity, out of reach
            cj = 1 / cj
        if valuation(center - cj, p) > 0:
            raise TargetNotFound(
                f"branch point {j} meets the target branch point mod {p}; "
                "every approach inherits its ramification"
            )
    # a root of the residual W meets the approach residue: W(center) = 0 mod p
    # (center is p-integral), or on the u chart p | lc(W) (a root at u = 0)
    W = spec.residual
    if W is not None and valuation(W.lc() if chart == "u" else W.evaluate(center), p) > 0:
        raise TargetNotFound(
            f"a non-rational branch point meets the approach residue mod {p}"
        )
    modulus = p ** (d + 1)
    residue = center.numerator * pow(center.denominator, -1, modulus)
    return Congruence(residue + p**d, modulus)


def _split_congruence(manifest, s0, cond, chart) -> Congruence:
    q = cond.p
    source = manifest.f if chart == "t" else infinity_chart(manifest.f)
    for r in range(q):
        if chart == "u" and r == 0:
            continue  # u = 0 mod q ramifies over infinity
        # f is monic in X, and the u-chart's leading coefficient r^D is a unit
        coeffs = x_poly_coeffs(specialize(source, {"s": s0, "t": Fraction(r)}))
        try:
            seq = degree_sequence(coeffs, q)
        except (NotPIntegral, NotSquarefree):
            continue
        if tuple(sorted(seq, reverse=True)) == cond.target.parts:
            return Congruence(r, q)
    raise TargetNotFound(f"no residue class mod {q} splits with type {cond.target}")


def _t0_witness(spec, prescription, limit) -> Fraction:
    cong = prescription.congruence
    for k in range(limit):
        w = cong.residue + k * cong.modulus
        if prescription.chart == "u" and w == 0:
            continue
        t0 = Fraction(1, w) if prescription.chart == "u" else Fraction(w)
        if spec.disc.evaluate(t0) == 0:
            continue  # exactly on a branch point
        return t0
    raise TargetNotFound("no specialization of t with a squarefree fiber in range")


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class ConditionRecord:
    """One condition checked against the measured fiber.

    mode is "unramified", "full", or "inertia-only"; the last applies when
    gcd(d, e/d) > 1 leaves the Frobenius lift ambiguous, so only the
    ramification indices are certified.
    """

    condition: object
    mode: str
    predicted: tuple
    observed: object
    passed: bool


@dataclass(frozen=True)
class IdentificationSummary:
    """Splitting types at auxiliary primes vs the group's cycle types.

    verdict is "ACCEPT" (certificate holds two observed types that
    invariably generate the group), "REJECT" (alien holds a type outside
    it) or "INCONCLUSIVE" (neither within the cap on readable primes).
    missing lists the group's types the fibre is not known to realize:
    those never read, and none after ACCEPT, which proves it realizes all.
    """

    sampled: int
    counts: tuple
    missing: tuple
    alien: tuple
    verdict: str
    certificate: tuple

    @property
    def passed(self) -> bool:
        return self.verdict == "ACCEPT"


@dataclass(frozen=True)
class SpecializationReport:
    s0: Fraction
    t0: Fraction
    records: tuple
    identification: IdentificationSummary | None
    s0_progression: Congruence | None = None
    t0_progression: TProgression | None = None

    @property
    def passed(self) -> bool:
        ok = all(r.passed for r in self.records)
        if self.identification is not None:
            ok = ok and self.identification.passed
        return ok


def local_model(manifest: FamilyManifest, s0, t0, p: int) -> UniPoly:
    """Monic model of the fiber at (s0, t0) with p-integral coefficients
    whenever one exists, switching to the 1/t chart for p in t0's
    denominator."""
    s0, t0 = Fraction(s0), Fraction(t0)
    if t0 and valuation(t0, p) < 0:
        source, at = infinity_chart(manifest.f), 1 / t0
    else:
        source, at = manifest.f, t0
    return _monic_model(x_poly_coeffs(specialize(source, {"s": s0, "t": at})))


def _monic_model(coeffs: list) -> UniPoly:
    # Y = lc * X rescales to a monic polynomial with the same splitting
    lc = coeffs[-1]
    n = len(coeffs) - 1
    if lc != 1:
        coeffs = [c * lc ** (n - 1 - j) for j, c in enumerate(coeffs[:-1])]
        coeffs.append(1)
    return UniPoly(coeffs, "X")


def _expand(pairs) -> tuple:
    return tuple(sorted((e for e, f in pairs for _ in range(f)), reverse=True))


def _candidate_shapes(bp, d: int, x: int) -> set:
    """(e, f) multisets of every decomposition group generated over the
    prescribed inertia by a lift of Frobenius order x."""
    A = generate([bp.inertia_generator**d])
    out = set()
    for g in bp.decomposition.elements:
        h, k = g, 1
        while h not in A:
            h, k = h * g, k + 1
        if k != x:
            continue
        out.add(ef_multiset(A, generate(list(A.generators) + [g])))
    return out


def _check_condition(manifest, s0, t0, cond) -> ConditionRecord:
    if isinstance(cond, Unramified):
        try:
            seq = degree_sequence(local_model(manifest, s0, t0, cond.p).coeffs, cond.p)
        except (NotSquarefree, NotPIntegral) as exc:
            return ConditionRecord(cond, "unramified", cond.target.parts, str(exc), False)
        observed = tuple(sorted(seq, reverse=True))
        return ConditionRecord(
            cond, "unramified", cond.target.parts, observed,
            observed == cond.target.parts,
        )

    bp = manifest.branch_points[cond.branch]
    strict = gcd(cond.d, bp.e // cond.d) == 1
    mode = "full" if strict else "inertia-only"
    try:
        shape = padic_shape(local_model(manifest, s0, t0, cond.p), cond.p)
    except (NotSquarefree, NotPIntegral, WildPrime) as exc:
        return ConditionRecord(cond, mode, (), str(exc), False)
    if not strict:
        predicted = power_cycle_type(bp.inertia_generator, cond.d).parts
        observed = _expand(shape.pairs)
        return ConditionRecord(cond, mode, predicted, observed, observed == predicted)

    # re-measure the residue Frobenius: search and verification must agree
    if bp.rho is None:
        order = 1
    else:
        try:
            seq = frobenius_in_residue_field(bp.rho, s0, cond.p)
        except SkipResidue as exc:
            return ConditionRecord(cond, mode, (), str(exc), False)
        order = seq[0] if all(deg == seq[0] for deg in seq) else 0
    candidates = _candidate_shapes(bp, cond.d, cond.frobenius_target)
    passed = order == cond.frobenius_target and shape.pairs in candidates
    return ConditionRecord(cond, mode, tuple(sorted(candidates)), shape.pairs, passed)


def _tally_fibres(draws, n: int, stop=None) -> Counter:
    """Cycle types of the first n readable fibres among draws of
    (X-coefficients, X-discriminant, p), fewer when the draws run out or
    stop(tally) holds after a read.

    f is monic in X, so disc(f mod p) = disc(f) mod p: a p-integral fibre
    is squarefree mod p exactly when p does not divide disc, and then
    (Dedekind) its split degrees are the cycle type of a Frobenius element.
    Any other fibre is unreadable and skipped.
    """
    tally = Counter()
    for coeffs, disc, p in draws:
        if tally.total() == n:
            break
        if disc.numerator % p == 0:
            continue  # a repeated factor mod p: an index prime or a ramified one
        try:
            tally[CycleType(tuple(split_degrees(coeffs, p)))] += 1
        except NotPIntegral:
            continue  # p in a denominator: take the next
        if stop is not None and stop(tally):
            break
    return tally


def _compare(fp: dict, tally: Counter, n: int) -> tuple:
    """(alien, missing, expected): tallied types outside the fingerprint fp
    and fp types never tallied, by parts; each fp type's count in n fibres."""
    alien = tuple(ct for ct in sorted(tally, key=lambda c: c.parts) if ct not in fp)
    missing = tuple(ct for ct in sorted(fp, key=lambda c: c.parts) if ct not in tally)
    expected = {ct: float(frac) * n for ct, frac in fp.items()}
    return alien, missing, expected


@lru_cache(maxsize=256)
def _generates(manifest, lam: CycleType, mu: CycleType) -> bool:
    return invariably_generates(manifest.group, lam, mu)


def _certificate(manifest, types) -> tuple:
    """The first pair of types, by parts, that invariably generates the
    declared group, or () when no pair does."""
    types = sorted(types, key=lambda c: c.parts)
    for i, lam in enumerate(types):
        for mu in types[i + 1 :]:
            if _generates(manifest, lam, mu):
                return lam, mu
    return ()


def _identify(manifest, spec, t0, conditions, n_id, seed) -> IdentificationSummary:
    """Read the fibre at (s0, t0) at shuffled auxiliary primes, at most n_id
    readable ones, and stop at the first verdict.

    Premise: the declared group G contains the Galois group of f over
    Q(s, t), so the fibre's group D lies in G up to conjugacy.  Each
    readable prime gives the cycle type of an element of D.  REJECT at the
    first type outside G: no such D exists.  ACCEPT once two observed
    types invariably generate G: then D = G, a theorem, with the pair as
    its certificate.  INCONCLUSIVE when n_id readable primes give neither.
    """
    if manifest.group is None:
        raise ValueError("group identification needs group_generators")
    skip = {2} | {c.p for c in conditions}
    pool = [
        q
        for q in primes_up_to(AUX_PRIME_BOUND)
        if q not in skip
        and spec.s0.denominator % q
        and t0.denominator % q
        and not is_bad_prime(manifest, spec.s0, q)
    ]
    Random(seed).shuffle(pool)
    coeffs = x_poly_coeffs(specialize(spec.f, {"t": t0}))
    disc = spec.disc.evaluate(t0)
    fp = fingerprint(manifest.group)

    def settled(tally) -> bool:
        return not tally.keys() <= fp.keys() or bool(_certificate(manifest, tally))

    counts = _tally_fibres(((coeffs, disc, q) for q in pool), n_id, settled)
    sampled = counts.total()
    alien, missing, _ = _compare(fp, counts, sampled)
    certificate = () if alien else _certificate(manifest, counts)
    verdict = "REJECT" if alien else "ACCEPT" if certificate else "INCONCLUSIVE"
    if verdict == "INCONCLUSIVE" and sampled < n_id:
        raise ValueError(
            f"only {sampled} of {n_id} auxiliary primes below "
            f"{AUX_PRIME_BOUND} were readable"
        )
    return IdentificationSummary(
        sampled,
        tuple(sorted(counts.items(), key=lambda kv: kv[0].parts)),
        () if certificate else missing,
        alien,
        verdict,
        certificate,
    )


def identify(m: FamilyManifest, s0, samples: int, seed: int) -> dict:
    """Sample (t0, p) fibers, tally splitting types, and compare against the
    declared group's cycle-type distribution.

    Without group generators only the tally is reported (support-only mode).
    The verdict is REJECT when a type outside the fingerprint shows up or a
    count strays more than IDENTIFY_REL_TOL from its expected value.
    """
    spec = specialization(m, s0)
    s0 = spec.s0
    pool = [
        p for p in primes_up_to(IDENTIFY_PRIME_BOUND)
        if p > 2 and (m.group is None or not is_bad_prime(m, s0, p))
    ]
    rng = Random(seed)

    def draws():
        for _ in range(200 * samples):
            t0 = rng.randrange(1, IDENTIFY_T_GRID)
            p = pool[rng.randrange(len(pool))]
            yield x_poly_coeffs(specialize(spec.f, {"t": Fraction(t0)})), spec.disc.evaluate(t0), p

    tally = _tally_fibres(draws(), samples)
    if tally.total() < samples:
        raise ValueError("sampling stalled: too few readable fibers")

    observed = {str(ct): tally[ct] for ct in sorted(tally, key=lambda c: c.parts)}
    result = {"family": m.name, "s0": format_rat(s0), "samples": samples, "observed": observed}
    if m.group is None:
        result["verdict"] = "SUPPORT-ONLY"
        return result
    fp = fingerprint(m.group)
    alien, _, expected = _compare(fp, tally, samples)
    off = [
        str(ct)
        for ct, want in expected.items()
        if abs(tally[ct] - want) > IDENTIFY_REL_TOL * want
    ]
    result["expected"] = {
        str(ct): f"{fp[ct].numerator}/{fp[ct].denominator}"
        for ct in sorted(fp, key=lambda c: c.parts)
    }
    result["alien"] = [str(ct) for ct in alien]
    result["frequency_violations"] = sorted(off)
    result["verdict"] = "REJECT" if (alien or off) else "ACCEPT"
    return result


def verify(
    manifest: FamilyManifest, s0, t0, conditions, *, n_id: int = 300, seed: int = 0
) -> SpecializationReport:
    """Check every condition against the measured p-adic shape of the fiber
    at (s0, t0), then identify the fibre's Galois group from at most n_id
    readable auxiliary primes (see _identify for the verdicts and their
    premise).

    Mismatches produce failing records, never exceptions: the report is the
    product.  n_id = 0 skips the identification stage.
    """
    validate_conditions(manifest, conditions)
    spec, t0 = specialization(manifest, s0), Fraction(t0)
    records = tuple(_check_condition(manifest, spec.s0, t0, c) for c in conditions)
    summary = _identify(manifest, spec, t0, conditions, n_id, seed) if n_id else None
    return SpecializationReport(spec.s0, t0, records, summary)


# -- census --------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    s0: Fraction
    t0: int
    p: int
    predicted: str
    observed: str
    match: str  # "true" | "false" | "bad"


def census(m: FamilyManifest, s0, t_lo: int, t_hi: int, p_max: int):
    """One row per (t0, prime): predicted inertia class against the measured
    p-adic shape.  Returns (rows, bad reason map); rows over good primes
    must all match."""
    spec = specialization(m, s0)
    s0 = spec.s0
    ps = primes_up_to(p_max)
    bad = {r.p: r.reasons for r in bad_primes(m, s0, bound=p_max)}
    unramified = CycleType((1,) * m.f.degree())
    rows = []
    for t0 in range(t_lo, t_hi + 1):
        disc = spec.disc.evaluate(t0)
        if disc == 0:
            continue  # exactly on a branch point: no number field to read
        # an integer t0 is p-integral at every p, so local_model never switches chart;
        # f is monic in X, so the model is the fibre itself and disc is its discriminant
        model = UniPoly(x_poly_coeffs(specialize(spec.f, {"t": t0})), "X")
        for p in ps:
            if p in bad:
                reasons = ";".join(bad[p])  # comma is the CSV delimiter
                rows.append(CensusRow(s0, t0, p, f"bad({reasons})", "-", "bad"))
                continue
            prediction = predict_any(m, s0, t0, p)
            predicted = unramified if prediction is None else prediction.generator_class
            observed = CycleType(_expand(_shape(model, p, disc).pairs))
            rows.append(
                CensusRow(
                    s0, t0, p, str(predicted), str(observed),
                    "true" if observed == predicted else "false",
                )
            )
    return rows, bad


def run_search(
    manifest: FamilyManifest,
    conditions,
    *,
    n_id: int = 300,
    seed: int = 0,
    limit: int = 10_000,
) -> SpecializationReport:
    """Find (s0, t0) realizing the conditions, then verify the find.

    The report carries the witness pair, the congruence progressions behind
    it (every further member realizes the same ramified prescriptions), one
    record per condition, and the identification summary.
    """
    conditions = tuple(conditions)
    s_progression, s0 = search_s0(manifest, conditions, limit=limit)
    t_prescription, t0 = search_t0(manifest, s0, conditions, limit=limit)
    base = verify(manifest, s0, t0, conditions, n_id=n_id, seed=seed)
    return replace(base, s0_progression=s_progression, t0_progression=t_prescription)

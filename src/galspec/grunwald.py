"""Search for specializations realizing prescribed local behaviour.

A local condition fixes, at one odd prime, either the exact splitting type
of an unramified fiber or a tame ramified picture over a declared branch
point: inertia generated by tau^d plus the order of the residue Frobenius.
Finitely many conditions are met simultaneously by intersecting congruences
on s and on t (or on u = 1/t when the target branch point sits at
infinity), so every solution comes as an arithmetic progression together
with its least witness.

Verification is independent of the search.  verify and census measure a
fibre on one model, local_model's integral h(Y) = d^n f(Y/d), Y = d X, d
the lcm of the fibre's denominators: monic and integral, the same field,
and disc h = d^(n(n-1)) disc(t0).  verify reads each condition by one
padic._shape(h, p, disc h): an unramified one holds when every e is 1 and
the residue degrees are the target type, a ramified one when the shape and
the residue Frobenius, re-read on rho(s0), meet the prescription.

Group identification reads cycle types of fibres mod p through one sampler
and one judge, in two modes: verify reads its fibre at auxiliary primes
until the types it saw prove or refute the group, identify reads random
(t0, p) fibres and tests their frequencies when they do neither.  Every
fibre's X-coefficients and discriminant come from one builder,
Specialization.fibre.

census sets predicted inertia, from beckmann's contacts read on integers,
against measured shapes on a grid, and a row reports inertia only.  When p
does not divide disc h, h is squarefree mod p, so (Dedekind) p is
unramified and census writes the all-ones type without a shape; every
other good cell calls padic._shape on h.  A p in a denominator of the
fibre divides d, so disc h, and is always measured: disc(t0) alone would
read X^3 - t0/7 unramified at 7, where it is totally ramified.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import erfc, exp, gcd, lcm, pi, sqrt
from random import Random

from .arith import (
    Congruence, NonPrimeError, crt, format_rat, is_prime, primes_up_to, rational, valuation,
)
from .beckmann import (
    _contacts, _meet, _require_branch_points, bad_primes, bad_s_residues, is_bad_prime,
    is_exceptional, specialization,
)
from .family import FamilyManifest, nondegenerate_check
from .ffact import NotPIntegral, NotSquarefree, degree_sequence, split_degrees
from .padic import WildPrime, _shape
from .permgrp import (
    CycleType, ef_multiset, fingerprint, generate, invariably_generates, power_cycle_type,
)
from .poly import UniPoly, specialize, x_poly_coeffs

AUX_PRIME_BOUND = 5000
IDENTIFY_PRIME_BOUND = 2000
IDENTIFY_T_GRID = 10_000
# false-reject rate of identify's chi-square test
IDENTIFY_ALPHA = 1e-3
# progression members tried before the search for s0 gives up
SEARCH_LIMIT = 10_000


class SearchFailed(Exception):
    """No admissible specialization parameter exists for some condition."""


class NoResidueFound(SearchFailed):
    """No residue class of s realizes the prescribed residue Frobenius."""


class TargetNotFound(SearchFailed):
    """No residue class of t realizes the prescribed local behaviour."""


class UnsupportedConditionCombination(Exception):
    """Conditions that cannot share one integrality chart."""


# -- conditions ----------------------------------------------------------------


class Unramified(namedtuple("Unramified", "p target")):
    """p must be unramified with this exact splitting type, a CycleType."""

    __slots__ = ()


class Ramified(namedtuple("Ramified", "p branch d frobenius_target", defaults=(1,))):
    """p must ramify over one branch point with inertia generated by tau^d.

    frobenius_target is the order of the residue Frobenius in the Galois
    group of the branch point's residue subextension; 1 (the default) means
    trivial.
    """

    __slots__ = ()


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
    if cond.target not in _fingerprint(manifest):
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
    rho is monic in X, so its degree never drops mod p.  Raises
    NotPIntegral when p is in a denominator and NotSquarefree when the
    reduction has a repeated factor mod p, that is at every p | disc
    rho(s0).  Where p divides only the index of Z[X]/(rho(s0)), the residue
    Frobenius is defined, so the refusal is conservative; it stays because
    search's least witness depends on it.
    """
    coeffs = x_poly_coeffs(specialize(rho, {"s": s0}))
    return tuple(degree_sequence(coeffs, p))


# -- the s-line search ---------------------------------------------------------


def search_s0(manifest: FamilyManifest, conditions):
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
        avoid = sorted(c.p for c in conditions if not is_exceptional(manifest, c.p))
    for k in range(SEARCH_LIMIT):
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
    if manifest.group is not None and not is_exceptional(manifest, p):
        excluded = bad_s_residues(manifest, p)
    for r in range(p):
        if r in excluded:
            continue
        try:
            seq = frobenius_in_residue_field(bp.rho, r, p)
        except (NotPIntegral, NotSquarefree):
            continue
        if all(deg == x for deg in seq):
            return Congruence(r, p)
    raise NoResidueFound(
        f"no residue of s mod {p} gives the Frobenius order {x} over "
        f"branch point {cond.branch}"
    )


# -- the t-line search ---------------------------------------------------------


class TProgression(namedtuple("TProgression", "chart congruence valuations")):
    """Arithmetic progression of specialization values for t.

    chart "t" constrains t itself; chart "u" constrains u = 1/t, used when
    the target branch point sits at infinity.  congruence is the Congruence
    its integers (t or u) lie in, and valuations records the exact
    prescribed contact order (p, d) per ramified condition.
    """

    __slots__ = ()

    def member(self, k: int) -> Fraction:
        w = self.congruence.residue + k * self.congruence.modulus
        if self.chart == "u":
            if w == 0:
                raise ValueError("u = 0 is the branch point at infinity itself")
            return Fraction(1, w)
        return Fraction(w)


def search_t0(manifest: FamilyManifest, s0, conditions):
    """Progression of t-values realizing every condition at s = s0, plus
    the least witness with a squarefree fiber."""
    validate_conditions(manifest, conditions)
    spec = specialization(manifest, s0)
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
            congruences.append(_split_congruence(spec, cond, chart))
    merged = crt(congruences) if congruences else Congruence(0, 1)
    prescription = TProgression(chart, merged, tuple(valuations))
    return prescription, _t0_witness(spec, prescription)


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


def _split_congruence(spec, cond, chart) -> Congruence:
    q = cond.p
    for r in range(q):
        if chart == "u" and r == 0:
            continue  # u = 0 mod q ramifies over infinity
        # the u chart at u = r is r^D f(s0, 1/r, X), D = deg_t f: the fibre
        # at t = 1/r times a unit mod q, so it splits the same way; it is
        # read as the sampler reads a fibre
        fibre = spec.fibre(r if chart == "t" else Fraction(1, r))
        if _tally_fibres([(*fibre, q)], 1)[cond.target]:
            return Congruence(r, q)
    raise TargetNotFound(f"no residue class mod {q} splits with type {cond.target}")


def _t0_witness(spec, prescription) -> Fraction:
    # the members are distinct, at most one is u = 0, and the nonzero disc
    # (s0 is nondegenerate) has at most deg roots: the loop ends by k = deg + 1
    for k in count():
        try:
            t0 = prescription.member(k)
        except ValueError:
            continue  # u = 0 is the branch point at infinity itself
        if spec.disc.evaluate(t0) == 0:
            continue  # exactly on a branch point
        return t0


# -- verification --------------------------------------------------------------


class ConditionRecord(
    namedtuple("ConditionRecord", "condition mode predicted observed passed")
):
    """One condition checked against the measured fiber.

    mode is "unramified", "full", or "inertia-only"; the last applies when
    gcd(d, e/d) > 1 leaves the Frobenius lift ambiguous, so only the
    ramification indices are certified.
    """

    __slots__ = ()


class IdentificationSummary(
    namedtuple("IdentificationSummary", "sampled counts missing alien verdict certificate")
):
    """Splitting types at auxiliary primes vs the group's cycle types.

    verdict is "ACCEPT" (certificate holds two observed types that
    invariably generate the group), "REJECT" (alien holds the types outside
    it) or "INCONCLUSIVE" (neither).
    missing lists the group's types the fibre is not known to realize:
    those never read, and none after ACCEPT, which proves it realizes all.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "ACCEPT"


class SpecializationReport(namedtuple(
    "SpecializationReport",
    "s0 t0 records identification s0_progression t0_progression",
    defaults=(None, None),
)):
    """verify's or run_search's product: one ConditionRecord per condition,
    the IdentificationSummary (None when skipped), and run_search's s0
    Congruence and TProgression (None from verify)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        ok = all(r.passed for r in self.records)
        if self.identification is not None:
            ok = ok and self.identification.passed
        return ok


def local_model(manifest: FamilyManifest, s0, t0) -> tuple:
    """(h, disc h) for the fibre f(s0, t0, X) of degree n: h(Y) = d^n f(Y/d),
    Y = d X, d the lcm of the fibre's denominators, is monic and integral
    and cuts out the same field, so it has the fibre's p-adic shape at every
    p; disc h = d^(n(n-1)) disc(t0) is an int."""
    coeffs, disc = specialization(manifest, s0).fibre(t0)
    n, d = len(coeffs) - 1, lcm(*(c.denominator for c in coeffs))
    return UniPoly(_rescaled(coeffs, d), "X"), int(disc * d ** (n * (n - 1)))


def _rescaled(coeffs: list, lam) -> list:
    """Coefficients of lam^n f(Y/lam), Y = lam X, for f of degree n with
    these coefficients: the same field, and monic when f is."""
    n = len(coeffs) - 1
    return [c * lam ** (n - j) for j, c in enumerate(coeffs)]


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


def _check_condition(manifest, s0, h, disc, cond) -> ConditionRecord:
    """cond read on the fibre's local_model (h, disc h) by one _shape; a
    fibre on a branch point or a wild p gives a failing record."""
    if isinstance(cond, Unramified):
        mode, predicted = "unramified", cond.target.parts
    else:
        bp = manifest.branch_points[cond.branch]
        strict = gcd(cond.d, bp.e // cond.d) == 1
        mode, predicted = "full" if strict else "inertia-only", ()
    try:
        shape = _shape(h, cond.p, disc)
    except (NotSquarefree, WildPrime) as exc:
        return ConditionRecord(cond, mode, predicted, str(exc), False)
    if isinstance(cond, Unramified):
        # with every e = 1 the pairs (1, f) run by f descending, so observed
        # is the splitting type; otherwise it is the pairs, which no type equals
        unramified = all(e == 1 for e, _ in shape.pairs)
        observed = tuple(f for _, f in shape.pairs) if unramified else shape.pairs
        return ConditionRecord(cond, mode, predicted, observed, observed == predicted)

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
        except (NotPIntegral, NotSquarefree) as exc:
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
    Any other fibre, or p in disc's denominator (so in a coefficient's), is
    skipped; Euler's criterion on num * den gives split_degrees (disc / p).
    """
    tally, types, read = Counter(), {}, 0
    for coeffs, disc, p in draws:
        if read == n:
            break
        num, den = disc.numerator, disc.denominator
        if num % p == 0 or den % p == 0:
            continue  # a repeated factor mod p, or p in a coefficient's denominator
        symbol = 0 if p == 2 else 1 if pow(num * den, (p - 1) // 2, p) == 1 else -1
        try:
            parts = tuple(split_degrees(coeffs, p, symbol))
        except NotPIntegral:
            continue  # p in a denominator: take the next
        ct = types.get(parts)
        if ct is None:
            ct = types[parts] = CycleType(parts)  # one per type read, not per fibre
        tally[ct] += 1
        read += 1
        if stop is not None and stop(tally):
            break
    return tally


@lru_cache(maxsize=256)
def _generates(manifest, lam: CycleType, mu: CycleType) -> bool:
    return invariably_generates(manifest.group, lam, mu)


@lru_cache(maxsize=64)
def _fingerprint(manifest) -> dict:
    """fingerprint of the declared group, read once per manifest; callers
    must not change the dict."""
    return fingerprint(manifest.group)


def _judge(manifest, fp: dict, tally: Counter) -> tuple:
    """(alien, missing, certificate, verdict) of a tally of cycle types
    against the declared group, fp its fingerprint, as IdentificationSummary
    reads them; certificate is the first pair of types, by parts, that
    invariably generates the group."""
    types = sorted(tally, key=lambda c: c.parts)
    alien = tuple(ct for ct in types if ct not in fp)
    pairs = ((lam, mu) for i, lam in enumerate(types) for mu in types[i + 1 :])
    certificate = () if alien else next((pr for pr in pairs if _generates(manifest, *pr)), ())
    missing = () if certificate else tuple(sorted(fp.keys() - tally.keys(), key=lambda c: c.parts))
    verdict = "REJECT" if alien else "ACCEPT" if certificate else "INCONCLUSIVE"
    return alien, missing, certificate, verdict


def _chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with an integer df >= 0 degrees of freedom,
    in closed form; df = 0 is the point mass at 0, so it never rejects."""
    if df == 0:
        return 1.0
    h = x / 2
    head, term, k = (erfc(sqrt(h)), 2 * sqrt(h / pi), 1.5) if df % 2 else (0.0, 1.0, 1.0)
    tail = 0.0
    for _ in range(df // 2):
        tail, term, k = tail + term, term * h / k, k + 1
    return head + exp(-h) * tail


def _chi2_test(fp: dict, tally: Counter, n: int) -> tuple:
    """(statistic, df, heavy) of Pearson's test of n tallied fibres against
    the frequencies fp, the cells expected fewer than 5 times pooled into
    one; heavy lists the types of each cell whose term is at least 1."""
    order = sorted(fp, key=lambda c: c.parts)
    pooled = [ct for ct in order if fp[ct] * n < 5]
    cells = [[ct] for ct in order if fp[ct] * n >= 5] + ([pooled] if pooled else [])
    terms = []
    for cell in cells:
        want = sum(fp[ct] for ct in cell) * n
        terms.append((sum(tally[ct] for ct in cell) - want) ** 2 / want)
    heavy = [ct for cell, term in zip(cells, terms) if term >= 1 for ct in cell]
    return float(sum(terms)), len(cells) - 1, heavy


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
        and all(n % q for _, n in spec.certificates)
    ]
    Random(seed).shuffle(pool)
    coeffs, disc = spec.fibre(t0)
    fp = _fingerprint(manifest)
    settled = lambda tally: _judge(manifest, fp, tally)[3] != "INCONCLUSIVE"
    counts = _tally_fibres(((coeffs, disc, q) for q in pool), n_id, settled)
    sampled = counts.total()
    alien, missing, certificate, verdict = _judge(manifest, fp, counts)
    if verdict == "INCONCLUSIVE" and sampled < n_id:
        raise ValueError(
            f"only {sampled} of {n_id} auxiliary primes below {AUX_PRIME_BOUND} were readable"
        )
    counts = tuple(sorted(counts.items(), key=lambda kv: kv[0].parts))
    return IdentificationSummary(sampled, counts, missing, alien, verdict, certificate)


def identify(m: FamilyManifest, s0, samples: int, seed: int) -> dict:
    """Identify the Galois group A of f(s0, t, X) over Q(t) from the cycle
    types of `samples` random (t0, p) fibres, each that of an element of A.

    The whole tally is judged as verify judges its fibre (see _identify).
    A tally that neither proves nor rules out the declared group meets
    Pearson's chi-square test against its Chebotarev frequencies, which
    REJECTs at IDENTIFY_ALPHA, its false-reject rate; it is INCONCLUSIVE
    otherwise.  Without group generators only the tally is reported.
    """
    if samples < 1:
        raise ValueError(f"identify needs at least one sample, not {samples}")
    spec = specialization(m, s0)
    s0 = spec.s0
    certificates = () if m.group is None else spec.certificates
    pool = [
        p for p in primes_up_to(IDENTIFY_PRIME_BOUND)
        if p > 2 and all(n % p for _, n in certificates)
    ]
    rng = Random(seed)

    def draws():
        for _ in range(200 * samples):
            t0 = rng.randrange(1, IDENTIFY_T_GRID)
            p = pool[rng.randrange(len(pool))]
            yield *spec.fibre(t0), p

    tally = _tally_fibres(draws(), samples)
    if tally.total() < samples:
        raise ValueError("sampling stalled: too few readable fibers")

    observed = {str(ct): tally[ct] for ct in sorted(tally, key=lambda c: c.parts)}
    result = {"family": m.name, "s0": format_rat(s0), "samples": samples, "observed": observed}
    if m.group is None:
        result["verdict"] = "SUPPORT-ONLY"
        return result
    fp = _fingerprint(m)
    alien, _, certificate, verdict = _judge(m, fp, tally)
    statistic = df = None
    violations = []
    if verdict == "INCONCLUSIVE":
        statistic, df, heavy = _chi2_test(fp, tally, samples)
        if _chi2_sf(statistic, df) < IDENTIFY_ALPHA:
            verdict, violations = "REJECT", heavy
    result["expected"] = {
        str(ct): f"{fp[ct].numerator}/{fp[ct].denominator}"
        for ct in sorted(fp, key=lambda c: c.parts)
    }
    result.update(
        alien=[str(ct) for ct in alien], certificate=[str(ct) for ct in certificate],
        statistic=statistic, df=df, alpha=IDENTIFY_ALPHA,
        frequency_violations=sorted(map(str, violations)), verdict=verdict,
    )
    return result


def _check_n_id(n_id: int) -> None:
    # a negative cap would never be reached, so nothing would stop the reading
    if n_id < 0:
        raise ValueError(f"the identification cap n_id must be at least 0, not {n_id}")


def verify(
    manifest: FamilyManifest, s0, t0, conditions, *, n_id: int = 300, seed: int = 0
) -> SpecializationReport:
    """Check every condition against the measured p-adic shape of the fiber
    at (s0, t0), then identify the fibre's Galois group from at most n_id
    readable auxiliary primes (see _identify for the verdicts and their
    premise).

    Mismatches produce failing records, never exceptions: the report is the
    product.  n_id = 0 skips the identification stage, and so does a t0 on
    a branch point (disc h = 0) with conditions: no auxiliary prime reads
    that fibre, and each record already fails, naming its repeated factor.
    Without conditions such a t0 raises, naming the branch point.
    """
    _check_n_id(n_id)
    validate_conditions(manifest, conditions)
    spec, t0 = specialization(manifest, s0), rational(t0)
    h, disc = local_model(manifest, spec.s0, t0)
    records = tuple(_check_condition(manifest, spec.s0, h, disc, c) for c in conditions)
    if n_id and not disc and not records:
        raise ValueError(
            f"t0 = {format_rat(t0)} is a branch point at s0 = {format_rat(spec.s0)}, "
            "so no auxiliary prime reads its fibre"
        )
    summary = _identify(manifest, spec, t0, conditions, n_id, seed) if n_id and disc else None
    return SpecializationReport(spec.s0, t0, records, summary)


# -- census --------------------------------------------------------------------


class CensusRow(namedtuple("CensusRow", "s0 t0 p predicted observed match")):
    """One census cell; match is "true", "false" or "bad"."""

    __slots__ = ()


def census(m: FamilyManifest, s0, t_lo: int, t_hi: int, p_max: int):
    """One row per (t0, prime): predicted inertia class against the measured
    p-adic shape.  Returns (rows, bad reason map); rows over good primes
    must all match.  A cell with p ∤ disc h reads unramified directly, and
    every other good cell is measured (module docstring).  observed never
    reads the bad-prime set; with a sound set no row could tell, since for
    a good p and an integer t0 meeting a branch point forces p | disc(t0).
    An empty grid, t_lo > t_hi or p_max < 2, is refused.

    The prediction is predict_any's two steps, _contacts once per t0 and
    _meet once per good p: the primes come from primes_up_to and every
    prime dividing the group order is bad, so of predict_any's guards only
    the declared branch points are left to check, at the first good cell
    as predict_any would."""
    if t_lo > t_hi or p_max < 2:
        raise ValueError(f"empty census grid: t0 in {t_lo}..{t_hi}, p <= {p_max}")
    spec = specialization(m, s0)
    s0 = spec.s0
    ps = primes_up_to(p_max)
    bad = {r.p: r.reasons for r in bad_primes(m, s0, bound=p_max)}
    unramified = CycleType((1,) * m.f.degree())
    label = str(unramified)

    rows = []
    for t0 in range(t_lo, t_hi + 1):
        h, disc = local_model(m, s0, t0)
        if disc == 0:
            continue  # exactly on a branch point: no number field to read
        if len(bad) < len(ps):
            _require_branch_points(m)
        contacts = _contacts(spec, t0)
        for p in ps:
            if p in bad:
                reasons = ";".join(bad[p])  # comma is the CSV delimiter
                rows.append(CensusRow(s0, t0, p, f"bad({reasons})", "-", "bad"))
                continue
            prediction = _meet(m, contacts, p)
            predicted = unramified if prediction is None else prediction.generator_class
            if disc % p:
                observed = unramified
            else:
                observed = CycleType(_expand(_shape(h, p, disc).pairs))
            rows.append(
                CensusRow(
                    s0, t0, p,
                    label if predicted is unramified else str(predicted),
                    label if observed is unramified else str(observed),
                    "true" if observed is predicted or observed == predicted else "false",
                )
            )
    return rows, bad


def run_search(
    manifest: FamilyManifest,
    conditions,
    *,
    n_id: int = 300,
    seed: int = 0,
) -> SpecializationReport:
    """Find (s0, t0) realizing the conditions, then verify the find.

    The report carries the witness pair, the congruence progressions behind
    it (every further member realizes the same ramified prescriptions), one
    record per condition, and the identification summary.
    """
    _check_n_id(n_id)
    conditions = tuple(conditions)
    s_progression, s0 = search_s0(manifest, conditions)
    t_prescription, t0 = search_t0(manifest, s0, conditions)
    base = verify(manifest, s0, t0, conditions, n_id=n_id, seed=seed)
    return base._replace(s0_progression=s_progression, t0_progression=t_prescription)

"""Family manifests: declared local data and branch loci.

A manifest describes a one-parameter family f(s, t, X), monic in X, whose
splitting field over Q(s)(t) has a fixed Galois group: for each declared
branch point in t it records the inertia generator (a permutation of the
roots), a model of the decomposition group, and optionally the residue
subextension as a polynomial over Q[s].  That data cannot be computed from
f by desk methods, so it is treated as input; loading cross-checks it
against everything that can be computed exactly:

- declared finite branch points must be roots of disc_X(f),
- the inertia generator's order must match the declared ramification index
  and generate a normal subgroup of the decomposition model.

Loading does not check the declared cycle types; beckmann.specialization
does, at each s0 it binds, for families of t-degree 1.

Only grunwald's search (in u when every ramified condition is at infinity)
uses the u = 1/t chart; beckmann.predict_any reads t0 = a/b's contact with
t = infinity as v_p(b) - v_p(a), and grunwald.local_model has no chart.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .arith import INFINITY, rational
from .permgrp import Perm, PermGroup, _Record, generate, parse_perm, require_normal_inertia
from .poly import (
    UniPoly,
    content_in_coeffs,
    discriminant_in,
    format_poly,
    parse_poly,
    primitive_part,
    rational_roots,
    specialize,
    squarefree_part,
)


class ManifestInconsistent(Exception):
    """Declared manifest data contradicts what was computed from f."""


class BranchPoint(
    namedtuple("BranchPoint", "location e inertia_generator decomposition rho")
):
    """One declared branch point of the family.

    location is a polynomial in s (the branch point t = m(s)) or the
    INFINITY sentinel.
    """

    __slots__ = ()
    # the fields' types, for typing.get_type_hints; annotations add no field
    location: object
    e: int
    inertia_generator: Perm
    decomposition: PermGroup
    rho: UniPoly | None

    @property
    def is_infinite(self) -> bool:
        return self.location is INFINITY

    def location_at(self, s0) -> Fraction:
        if self.is_infinite:
            raise ValueError("branch point at infinity has no finite location")
        # a constant location evaluates to its bare int leaf
        return Fraction(self.location.evaluate(rational(s0)))


class BranchLocus(namedtuple("BranchLocus", "points residual infinity")):
    """Rational branch points plus the unfactored remainder of the locus.

    points are Fractions: in a loaded manifest's locus (s free) the
    constant branch points t = c, and from branch_locus (s bound) every
    rational branch point of the bound family.  residual is the squarefree
    part of the t-discriminant with the points divided out; a loaded
    manifest's locus also has its declared branch points divided out, so its
    residual is exactly the non-rational part.
    Its leaves are ints: the squarefree part is in poly's normal form, which
    by Gauss's lemma stays integral when divided by t - m.
    infinity records whether the u = 1/t chart degenerates at u = 0, which
    happens whenever the cover ramifies over t = infinity (and also for
    branch points merely meeting there, so it is a conservative flag).
    """

    __slots__ = ()


class NondegeneracyReport(namedtuple("NondegeneracyReport", "s0 reasons")):
    """The failed clauses of binding s = s0; true when there are none."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.reasons

    def __bool__(self):
        return self.ok


class FamilyManifest(_Record):
    """A loaded family.  It hashes and compares by identity, so caches keyed
    on a manifest (beckmann's certificates) never hash its polynomials.
    group is a PermGroup, or None when the manifest declares no group."""

    __slots__ = (
        "name", "f", "group", "branch_points", "disc", "squarefree_disc", "locus", "s_guards",
    )

    def __init__(self, name, f, group, branch_points, disc, squarefree_disc, locus, s_guards):
        values = (name, f, group, branch_points, disc, squarefree_disc, locus, s_guards)
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)


# -- branch locus -------------------------------------------------------------


def _has_infinite_branch(f: UniPoly, disc_t_degree: int) -> bool:
    # the 1/t chart's discriminant vanishes at u = 0 exactly when the
    # t-degree of disc_X(f) falls short of its generic bound
    return disc_t_degree < f.degree_in("t") * (2 * f.degree() - 2)


def _symbolic_locus(f: UniPoly, disc: UniPoly, declared: list) -> tuple:
    """(squarefree part of disc in t, rational points, BranchLocus) for the
    t-discriminant disc = disc_X(f).

    The rational points are the declared finite locations (polynomials in s)
    followed by the parameter-independent roots t = c that no declaration
    names.  Those are exact: t - c divides the squarefree part for every s
    iff it divides each s^k-coefficient, so they are the rational roots of
    the gcd of those coefficients.  The locus reports the constants as its
    points; its residual is the squarefree part with every rational point
    divided out, so it is exactly the non-rational locus.
    """
    srf = squarefree_part(disc)
    constants = []
    if srf.degree() >= 1:
        # srf transposed into Q[t][s]: its content is the gcd over k
        s_degree = max(c.degree() for c in srf.coeffs)
        by_s = [
            UniPoly([c.coeff(k) for c in srf.coeffs], "t") for k in range(s_degree + 1)
        ]
        common = content_in_coeffs(UniPoly(by_s, "s"))
        if common.degree() >= 1:
            constants = [c for c, _ in rational_roots(common)]

    points = list(declared)
    for c in constants:
        as_poly = UniPoly([c], "s")
        if all(as_poly != m for m in points):
            points.append(as_poly)
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if points[a] == points[b]:
                raise ManifestInconsistent("two branch points declared at one location")

    residual = srf
    for m in points:
        residual = residual.exact_div(UniPoly([-m, UniPoly([1], "s")], "t"))
    locus = BranchLocus(
        tuple(constants), residual, _has_infinite_branch(f, disc.degree())
    )
    return srf, points, locus


def branch_locus(f: UniPoly, s0) -> BranchLocus:
    """Every rational branch point in t of f bound at s = s0, the
    non-rational remainder, and whether t -> infinity branches.

    The locus with s free, whose points are only the parameter-independent
    t = c, is the loader's: FamilyManifest.locus.
    """
    if not f.is_monic():
        raise ValueError("family polynomial must be monic in X")
    # binding s first leaves a t-polynomial over Q
    disc = discriminant_in(specialize(f, {"s": s0}), "X")
    if not disc:
        raise ValueError("discriminant vanishes; f is not squarefree in X")
    srf = squarefree_part(disc)
    points = []
    work = srf
    if srf.degree() >= 1:
        for root, _ in rational_roots(srf):
            points.append(root)
            work = work.exact_div(UniPoly([-root, 1], "t"))
    return BranchLocus(
        tuple(points), primitive_part(work), _has_infinite_branch(f, disc.degree())
    )


# -- manifest loading ---------------------------------------------------------

_MANIFEST_KEYS = {"name", "poly", "group_generators", "branch_points"}
_BRANCH_KEYS = {"location", "e", "inertia_generator", "decomposition_generators", "residue_subextension"}


def _parse_location(text: str):
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return INFINITY
    p = parse_poly(text)
    if p.degree() > 0 or p.degree_in("t") > 0:
        raise ManifestInconsistent(
            f"branch location {text!r} must be a polynomial in s alone"
        )
    inner = p.coeff(0)
    if isinstance(inner, UniPoly):
        inner = inner.coeff(0)
    if not isinstance(inner, UniPoly):
        inner = UniPoly([inner], "s")
    return inner


def _load_branch_point(raw: dict, degree: int, disc: UniPoly) -> BranchPoint:
    unknown = set(raw) - _BRANCH_KEYS
    if unknown:
        raise ManifestInconsistent(f"unknown branch point fields {sorted(unknown)}")
    location = _parse_location(raw["location"])
    e = int(raw["e"])
    tau = parse_perm(raw["inertia_generator"], degree)
    D = generate([parse_perm(g, degree) for g in raw["decomposition_generators"]])

    if e < 1 or tau.order() != e:
        raise ManifestInconsistent(
            f"inertia generator has order {tau.order()}, declared e = {e}"
        )
    try:
        require_normal_inertia(generate([tau]), D)
    except ValueError as exc:
        raise ManifestInconsistent(str(exc)) from None

    if location is not INFINITY and disc.evaluate(location):
        raise ManifestInconsistent(
            f"declared branch point t = {format_poly(location)} is not a "
            "root of the t-discriminant"
        )

    rho = None
    if raw.get("residue_subextension") is not None:
        rho = parse_poly(raw["residue_subextension"])
        if rho.degree_in("t") > 0:
            raise ManifestInconsistent("residue subextension must not involve t")
        if not rho.is_monic():
            raise ManifestInconsistent("residue subextension must be monic in X")
        if not discriminant_in(rho, "X"):
            raise ManifestInconsistent("residue subextension must be squarefree in X")
        if D.order % e or (D.order // e) % rho.degree():
            raise ManifestInconsistent(
                f"residue subextension degree {rho.degree()} does not divide "
                f"|decomposition| / e = {D.order}/{e}"
            )
    return BranchPoint(location, e, tau, D, rho)


def _collision_guards(rational_points: list, residual: UniPoly) -> list:
    guards = []
    for i in range(len(rational_points)):
        for j in range(i + 1, len(rational_points)):
            diff = rational_points[i] - rational_points[j]
            if diff.degree() >= 1:
                guards.append((
                    f"branch points t = {format_poly(rational_points[i])} and "
                    f"t = {format_poly(rational_points[j])} collide",
                    diff,
                ))
    if residual.degree() >= 1:
        for m in rational_points:
            meets = residual.evaluate(m)
            if meets.degree() >= 1:
                guards.append((
                    f"branch point t = {format_poly(m)} meets the non-rational "
                    "branch locus",
                    meets,
                ))
            elif not meets:
                raise ManifestInconsistent(
                    f"declared branch point t = {format_poly(m)} lies on the "
                    "non-rational branch locus for every s"
                )
    if residual.degree() >= 2:
        guards.append((
            "non-rational branch points collide",
            discriminant_in(residual, "t"),
        ))
    return guards


def load_manifest(source) -> FamilyManifest:
    """Load and validate a family manifest from a dict or a JSON file path."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise ManifestInconsistent(f"unknown manifest fields {sorted(unknown)}")

    f = parse_poly(raw["poly"])
    n = f.degree()
    if n < 1 or not f.is_monic():
        raise ManifestInconsistent("family polynomial must be monic of degree >= 1 in X")

    disc = discriminant_in(f, "X")
    if not disc:
        raise ManifestInconsistent("f is not squarefree in X over Q(s, t)")

    group = None
    if raw.get("group_generators"):
        group = generate([parse_perm(g, n) for g in raw["group_generators"]])

    branch_points = tuple(
        _load_branch_point(bp, n, disc) for bp in raw.get("branch_points", ())
    )
    if any(bp.is_infinite for bp in branch_points) and f.degree_in("t") == 0:
        raise ManifestInconsistent(
            "manifest declares a branch point at infinity but f does not depend on t"
        )

    srf, rational_points, locus = _symbolic_locus(
        f, disc, [bp.location for bp in branch_points if not bp.is_infinite]
    )

    guards = []
    lead = disc.lc()
    if lead.degree() >= 1:
        guards.append(("discriminant t-degree drops", lead))
    content = content_in_coeffs(disc)
    if content.degree() >= 1:
        guards.append(("discriminant content vanishes", content))
    tdeg = f.degree_in("t")
    if tdeg:
        # gcd of the s-coefficients of t^tdeg across the X-coefficients
        tops = [c.lc() for c in f.coeffs if c.degree() == tdeg]
        top = content_in_coeffs(UniPoly(tops, "t"))
        if top.degree() >= 1:
            guards.append(("family t-degree drops", top))
    guards.extend(_collision_guards(rational_points, locus.residual))
    s_guards = tuple((label, primitive_part(g)) for label, g in guards)

    return FamilyManifest(
        name=raw["name"],
        f=f,
        group=group,
        branch_points=branch_points,
        disc=disc,
        squarefree_disc=srf,
        locus=locus,
        s_guards=s_guards,
    )


@lru_cache(maxsize=None)
def builtin_manifest(name: str) -> FamilyManifest:
    """Load one of the manifests shipped with the package."""
    path = resources.files("galspec").joinpath(f"data/{name}.json")
    with resources.as_file(path) as concrete:
        return load_manifest(concrete)


# -- specialization checks ----------------------------------------------------


def nondegenerate_check(manifest: FamilyManifest, s0) -> NondegeneracyReport:
    """Does binding s = s0 preserve the family's branching geometry?

    True means: discriminant degree and content survive, the family keeps
    its t-degree, and no two branch points run together.  Every failed
    clause is reported, none is fatal.
    """
    s0 = rational(s0)
    reasons = []
    for label, g in manifest.s_guards:
        if g.evaluate(s0) == 0:
            reasons.append(label)
    return NondegeneracyReport(s0, tuple(reasons))


def require_nondegenerate(manifest: FamilyManifest, s0) -> None:
    """Raise ValueError naming every failed clause when s = s0 is degenerate."""
    check = nondegenerate_check(manifest, s0)
    if not check:
        raise ValueError(f"s0 = {check.s0} is degenerate: " + "; ".join(check.reasons))

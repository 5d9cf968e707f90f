"""Manifests, branch loci, nondegeneracy, and Newton-polygon probes."""

import hashlib
import typing
from fractions import Fraction

import pytest

from galspec.arith import INFINITY
from galspec.family import (
    BranchPoint,
    FamilyManifest,
    ManifestInconsistent,
    ProbeAmbiguous,
    branch_locus,
    builtin_manifest,
    inertia_order_probe,
    infinity_chart,
    load_manifest,
    nondegenerate_check,
    require_nondegenerate,
)
from galspec.permgrp import Perm
from galspec.poly import UniPoly, format_poly, parse_poly
from test_beckmann import twobranch_manifest
from test_grunwald import ninth_manifest


def leaves(g):
    if isinstance(g, UniPoly):
        for c in g.coeffs:
            yield from leaves(c)
    else:
        yield g


def collision_manifest() -> dict:
    """(X^2 - t)(X^2 - t - s): branch points t = 0 and t = -s collide at s0 = 0."""
    return {
        "name": "collision-demo",
        "poly": "(X^2 - t)*(X^2 - t - s)",
        "group_generators": ["(1 2)", "(3 4)"],
        "branch_points": [
            {
                "location": "0",
                "e": 2,
                "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 - s",
            },
            {
                "location": "-s",
                "e": 2,
                "inertia_generator": "(3 4)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 + s",
            },
        ],
    }


def shifted_manifest() -> dict:
    """X^2 - (t - s): a single branch point moving with the parameter."""
    return {
        "name": "shifted",
        "poly": "X^2 - t + s",
        "group_generators": ["(1 2)"],
        "branch_points": [
            {
                "location": "s",
                "e": 2,
                "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)"],
            }
        ],
    }


class TestBranchLocus:
    def test_quadratic(self):
        locus = branch_locus(parse_poly("X^2 - t"))
        assert locus.points == (0,)
        assert locus.residual.degree() == 0
        assert locus.infinity

    def test_cubic(self):
        locus = branch_locus(parse_poly("X^3 - t"))
        assert locus.points == (0,)
        assert locus.infinity

    def test_parameter_dependent_point_not_found_symbolically(self):
        locus = branch_locus(parse_poly("X^2 - t + s"))
        assert locus.points == ()
        assert locus.residual.degree() == 1
        assert locus.infinity

    def test_bound_mode_finds_moving_points(self):
        f = parse_poly("X^2 - t + s")
        assert branch_locus(f, 3).points == (3,)
        assert branch_locus(f, Fraction(-1, 2)).points == (Fraction(-1, 2),)

    def test_collision_family_counts(self):
        f = parse_poly("(X^2 - t)*(X^2 - t - s)")
        sym = branch_locus(f)
        assert sym.points == (0,)
        assert sym.residual.degree() == 1
        assert len(branch_locus(f, 3).points) == 2
        # at the degenerate value the whole family collapses to a square
        with pytest.raises(ValueError, match="squarefree"):
            branch_locus(f, 0)

    def test_flagship_bound(self):
        m = builtin_manifest("psl32")
        locus = branch_locus(m.f, 1)
        assert locus.points == ()
        assert locus.residual.degree() == 5
        assert locus.infinity

    def test_not_squarefree(self):
        with pytest.raises(ValueError):
            branch_locus(parse_poly("X^2 - 2*t*X + t^2"))

    def test_not_monic(self):
        with pytest.raises(ValueError):
            branch_locus(parse_poly("2*X^2 - t"))


class TestInfinityChart:
    def test_quadratic_chart(self):
        assert infinity_chart(parse_poly("X^2 - t")) == parse_poly("t*X^2 - 1")

    def test_linear_t_coefficients_reverse(self):
        f = parse_poly("X^2 + (3*t + 5)*X + t")
        assert infinity_chart(f) == parse_poly("t*X^2 + (3 + 5*t)*X + 1")

    def test_needs_t(self):
        with pytest.raises(ValueError):
            infinity_chart(parse_poly("X^2 - s"))


class TestBuiltinManifests:
    def test_branch_point_annotations_resolve(self):
        hints = typing.get_type_hints(BranchPoint)
        assert hints["inertia_generator"] is Perm

    def test_x2mt(self):
        m = builtin_manifest("x2mt")
        assert m.group.order == 2
        assert len(m.branch_points) == 2
        assert m.branch_points[0].location_at(5) == 0
        assert m.branch_points[0].e == 2
        assert m.branch_points[1].is_infinite

    def test_x3mt(self):
        m = builtin_manifest("x3mt")
        assert m.group.order == 6
        assert m.branch_points[0].rho is not None
        assert m.branch_points[0].rho.degree() == 2
        assert m.branch_points[0].decomposition.order == 6

    def test_psl32(self):
        m = builtin_manifest("psl32")
        assert m.f.degree() == 7
        assert m.group.order == 168
        (bp,) = m.branch_points
        assert bp.is_infinite
        assert bp.e == 2
        assert bp.decomposition.order == 4
        assert bp.decomposition.orbit_lengths() == (2, 2, 2, 1)
        assert bp.inertia_group().order == 2
        assert bp.rho.degree() == 2
        assert m.locus.points == ()
        assert m.locus.residual.degree() == 5
        assert m.locus.infinity

    def test_psl32_guards(self):
        m = builtin_manifest("psl32")
        labels = {label: g.degree() for label, g in m.s_guards}
        assert labels == {
            "discriminant t-degree drops": 6,
            "non-rational branch points collide": 51,
        }

    @pytest.mark.parametrize("c0, guard", [("s^2 - 1", "s - 1"), ("s + 1", None)])
    def test_family_t_degree_guard(self, c0, guard):
        # the t^2 coefficients s - 1 and c0 vanish together where their gcd does
        m = load_manifest({"name": "td", "poly": f"X^2 + (s - 1)*t^2*X + ({c0})*t^2 + t"})
        guards = {label: str(g) for label, g in m.s_guards}
        assert guards.get("family t-degree drops") == guard

    def test_cached(self):
        assert builtin_manifest("x2mt") is builtin_manifest("x2mt")

    @pytest.mark.parametrize("name", ["psl32", "x2mt", "x3mt"])
    def test_leaves_are_canonical(self, name):
        m = builtin_manifest(name)
        polys = [m.disc, m.squarefree_disc, m.locus.residual]
        polys += [g for _, g in m.s_guards]
        for g in polys:
            for c in leaves(g):
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1)

    def test_psl32_locus_has_integer_leaves(self):
        # squarefree part and residual are primitive over Z[s]: no leaf is a
        # Fraction, though the route to them divides by non-monic factors
        m = builtin_manifest("psl32")
        for g in (m.squarefree_disc, m.locus.residual):
            assert all(type(c) is int for c in leaves(g))

    def test_constant_location_is_a_fraction(self):
        spec = shifted_manifest()
        spec["poly"] = "X^2 - t + 3"
        spec["branch_points"][0]["location"] = "3"
        bp = load_manifest(spec).branch_points[0]
        assert type(bp.location_at(7)) is Fraction
        assert bp.location_at(7) == 3

    def test_infinite_location_has_no_value(self):
        m = builtin_manifest("psl32")
        with pytest.raises(ValueError):
            m.branch_points[0].location_at(1)
        assert m.branch_points[0].location is INFINITY


class TestLoadValidation:
    def base(self) -> dict:
        return {
            "name": "demo",
            "poly": "X^2 - t",
            "branch_points": [
                {
                    "location": "0",
                    "e": 2,
                    "inertia_generator": "(1 2)",
                    "decomposition_generators": ["(1 2)"],
                }
            ],
        }

    def test_base_loads(self):
        m = load_manifest(self.base())
        assert isinstance(m, FamilyManifest)
        assert m.group is None

    def test_unknown_field(self):
        raw = self.base()
        raw["galois_group"] = "C2"
        with pytest.raises(ManifestInconsistent, match="unknown manifest fields"):
            load_manifest(raw)

    def test_unknown_branch_field(self):
        raw = self.base()
        raw["branch_points"][0]["frobenius"] = "(1 2)"
        with pytest.raises(ManifestInconsistent, match="unknown branch point"):
            load_manifest(raw)

    def test_location_must_be_branch_point(self):
        raw = self.base()
        raw["branch_points"][0]["location"] = "1"
        with pytest.raises(ManifestInconsistent, match="not a root"):
            load_manifest(raw)

    def test_inertia_order_matches_e(self):
        raw = self.base()
        raw["branch_points"][0]["e"] = 3
        with pytest.raises(ManifestInconsistent, match="order"):
            load_manifest(raw)

    def test_inertia_must_be_normal(self):
        raw = {
            "name": "demo",
            "poly": "X^3 - t",
            "branch_points": [
                {
                    "location": "0",
                    "e": 2,
                    "inertia_generator": "(1 2)",
                    "decomposition_generators": ["(1 2 3)", "(2 3)"],
                }
            ],
        }
        with pytest.raises(ManifestInconsistent, match="not normal"):
            load_manifest(raw)

    def test_inertia_inside_decomposition(self):
        raw = {
            "name": "demo",
            "poly": "X^3 - t",
            "branch_points": [
                {
                    "location": "0",
                    "e": 2,
                    "inertia_generator": "(1 2)",
                    "decomposition_generators": ["(1 2 3)"],
                }
            ],
        }
        with pytest.raises(ManifestInconsistent, match="outside"):
            load_manifest(raw)

    def test_rho_monic(self):
        raw = self.base()
        raw["branch_points"][0]["residue_subextension"] = "2*X - s"
        with pytest.raises(ManifestInconsistent, match="monic"):
            load_manifest(raw)

    def test_rho_without_t(self):
        raw = self.base()
        raw["branch_points"][0]["residue_subextension"] = "X - t"
        with pytest.raises(ManifestInconsistent, match="involve t"):
            load_manifest(raw)

    def test_rho_squarefree(self):
        raw = self.base()
        raw["branch_points"][0]["residue_subextension"] = "X^2 + 2*X + 1"
        with pytest.raises(ManifestInconsistent, match="squarefree"):
            load_manifest(raw)

    def test_rho_degree_divides(self):
        raw = collision_manifest()
        raw["branch_points"][0]["residue_subextension"] = "X^3 - s"
        with pytest.raises(ManifestInconsistent, match="does not divide"):
            load_manifest(raw)

    def test_duplicate_locations(self):
        raw = self.base()
        raw["branch_points"].append(dict(raw["branch_points"][0]))
        with pytest.raises(ManifestInconsistent, match="one location"):
            load_manifest(raw)

    def test_infinite_branch_needs_t(self):
        raw = {
            "name": "demo",
            "poly": "X^2 - s",
            "branch_points": [
                {
                    "location": "inf",
                    "e": 2,
                    "inertia_generator": "(1 2)",
                    "decomposition_generators": ["(1 2)"],
                }
            ],
        }
        with pytest.raises(ManifestInconsistent, match="does not depend on t"):
            load_manifest(raw)

    def test_squarefree_family(self):
        raw = self.base()
        raw["poly"] = "(X - t)*(X - t)"
        raw["branch_points"] = []
        with pytest.raises(ManifestInconsistent, match="squarefree"):
            load_manifest(raw)

    def test_monic_family(self):
        raw = self.base()
        raw["poly"] = "2*X^2 - t"
        raw["branch_points"] = []
        with pytest.raises(ManifestInconsistent, match="monic"):
            load_manifest(raw)


class TestNondegenerate:
    def test_require_names_every_failed_clause(self):
        m = load_manifest(collision_manifest())
        require_nondegenerate(m, 1)
        with pytest.raises(ValueError, match=r"^s0 = 0 is degenerate: .*collide"):
            require_nondegenerate(m, 0)

    def test_single_moving_branch_point_never_degenerates(self):
        m = load_manifest(shifted_manifest())
        for s0 in (0, 1, 5, -3, Fraction(7, 2)):
            assert nondegenerate_check(m, s0)

    def test_collision_at_zero(self):
        m = load_manifest(collision_manifest())
        report = nondegenerate_check(m, 0)
        assert not report
        assert any("collide" in r for r in report.reasons)
        assert nondegenerate_check(m, 1)
        assert nondegenerate_check(m, -5)

    def test_flagship_vector_frozen(self):
        m = builtin_manifest("psl32")
        vector = [bool(nondegenerate_check(m, s0)) for s0 in range(5)]
        assert vector == [False, True, True, True, False]
        for s0 in (0, 4):
            assert nondegenerate_check(m, s0).reasons == (
                "discriminant t-degree drops",
            )
            # witness: the t-leading coefficient of the discriminant
            # vanishes there
            assert m.disc.lc().evaluate(Fraction(s0)) == 0


class TestInertiaProbe:
    def test_quadratic_both_charts(self):
        m = builtin_manifest("x2mt")
        for i in (0, 1):
            result = inertia_order_probe(m, i, 1)
            assert result.pairs == ((2, 1),)
            assert result.e_multiset == (2,)

    def test_cubic_both_charts(self):
        m = builtin_manifest("x3mt")
        for i in (0, 1):
            result = inertia_order_probe(m, i, 2)
            assert result.pairs == ((3, 1),)
            assert result.e_multiset == (3,)

    def test_flagship_matches_declared_type(self):
        m = builtin_manifest("psl32")
        result = inertia_order_probe(m, 0, 1)
        assert result.e_multiset == (2, 2, 1, 1, 1)
        assert result.pairs == ((2, 1), (2, 1), (1, 3))

    def test_flagship_sample_independence(self):
        m = builtin_manifest("psl32")
        shapes = {
            inertia_order_probe(m, 0, s0).e_multiset
            for s0 in (1, 2, 3, 5, 6, -1, Fraction(1, 2))
        }
        assert shapes == {(2, 2, 1, 1, 1)}

    def test_degenerate_parameter_refused(self):
        m = builtin_manifest("psl32")
        for s0 in (0, 4):
            with pytest.raises(ValueError, match="degenerate"):
                inertia_order_probe(m, 0, s0)

    def test_moving_branch_point(self):
        m = load_manifest(shifted_manifest())
        result = inertia_order_probe(m, 0, 7)
        assert result.e_multiset == (2,)

    def test_unramified_discriminant_root(self):
        # t = 0 lies on the discriminant of X^2 - t^2 but carries no
        # ramification; the probe certifies the trivial inertia
        raw = {
            "name": "split",
            "poly": "X^2 - t^2",
            "branch_points": [
                {
                    "location": "0",
                    "e": 1,
                    "inertia_generator": "()",
                    "decomposition_generators": ["()"],
                }
            ],
        }
        result = inertia_order_probe(load_manifest(raw), 0, 3)
        assert result.e_multiset == (1, 1)

    def test_tangent_roots_are_ambiguous(self):
        # roots t and t + t^2 agree to first order at t = 0: the polygon
        # alone cannot separate them
        raw = {
            "name": "tangent",
            "poly": "X^2 - (2*t + t^2)*X + t^2 + t^3",
            "branch_points": [
                {
                    "location": "0",
                    "e": 1,
                    "inertia_generator": "()",
                    "decomposition_generators": ["()"],
                }
            ],
        }
        with pytest.raises(ProbeAmbiguous):
            inertia_order_probe(load_manifest(raw), 0, 5)

    def test_wrong_declared_type_detected(self):
        raw = {
            "name": "wrong",
            "poly": "X^2 - t^2",
            "branch_points": [
                {
                    "location": "0",
                    "e": 2,
                    "inertia_generator": "(1 2)",
                    "decomposition_generators": ["(1 2)"],
                }
            ],
        }
        with pytest.raises(ManifestInconsistent, match="contradict"):
            inertia_order_probe(load_manifest(raw), 0, 3)


def loaded_texts(m) -> dict:
    """Every polynomial the loader derives, as text: the discriminant, its
    squarefree part, the locus, the s-guards and each branch point's data."""
    texts = {
        "disc": str(m.disc),
        "squarefree_disc": str(m.squarefree_disc),
        "locus": f"{[str(c) for c in m.locus.points]} {m.locus.residual} {m.locus.infinity}",
        "s_guards": "; ".join(f"{label}: {g}" for label, g in m.s_guards),
    }
    for i, bp in enumerate(m.branch_points):
        location = "inf" if bp.is_infinite else format_poly(bp.location)
        elements = " ".join(str(g) for g in bp.decomposition.elements)
        texts[f"branch point {i}"] = f"{location} {bp.e} {bp.inertia_generator} [{elements}] {bp.rho}"
    return texts


class TestLoadedManifestPins:
    """sha256 of loaded_texts: a change to the resultant, gcd or squarefree
    machinery must leave every loaded manifest as it was.  disc, s_guards and
    the branch points are pinned as taken at b588651; squarefree_disc and
    the locus as retaken when they moved to the integer normal form."""

    PINS = {
        "psl32": {
            "disc": "d564136dc687f67f7f0054e530b4963eaebaaa7229fe6a52391d45e14fe3661b",
            "squarefree_disc": "faa830d710b2bd7737cf32ee499e828ee36d6a68d8f28b8bf86e0130bb2944e3",
            "locus": "be3fb1cf001410809fb6888e266217b11ab08cad9b00c3da6285bd6ea83e3f61",
            "s_guards": "fdfd7838e49ca0fcc8005fd531da30d5a0152293ee7c9ec3b7035c8b7919fa55",
            "branch point 0": "b3ebe4bfaf265b3ab0747847f00a2259ddcb1977d801faaae1d34ba85cdcae85",
        },
        "x2mt": {
            "disc": "817393c289e8be8b03a1d4de3011f91909ec1657d9b34381a1633b49cf8b6dc4",
            "squarefree_disc": "0f823f96280830c85ceb972272b4593d450154a51079a455f022771e0e29560d",
            "locus": "f1b39de9d32bffee0338f36cc6643c802e64b685867b94a7a8de09cf406a22f7",
            "s_guards": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "branch point 0": "c4053652a9f482b9b621115da0f1a31824ba75e8af90dadc7e8e2eab64e57fa6",
            "branch point 1": "8847342b345a81fe08b449793b6681caaee8a458f66060ec4e41d416ee88cf11",
        },
        "x3mt": {
            "disc": "ba9cbcd258d13e5c43ff6600ee9b591c542c274d5bac032dbb60888ae925f41c",
            "squarefree_disc": "0f823f96280830c85ceb972272b4593d450154a51079a455f022771e0e29560d",
            "locus": "f1b39de9d32bffee0338f36cc6643c802e64b685867b94a7a8de09cf406a22f7",
            "s_guards": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "branch point 0": "2495b1410a35fd83d6afeb135c3fa362b01147e69513f5bda261e0645f936b4c",
            "branch point 1": "8b9b88778dd1046970380a6cc4b1e1b3260ee9fd1bb5ba1705c0a6c2b8fb8d80",
        },
        "twobranch": {
            "disc": "680009320a131efa057aae8c3501089a95d9aebaeeda64a28ce7fe109878cea6",
            "squarefree_disc": "3c15850a445f75613ac3a3971a5d9ef19e72bc650ede678fbbd77b891d21cb11",
            "locus": "fee0bd10def8874cd491183f725d3fcc78f36928f1746eb089197b2f517408a8",
            "s_guards": "33c673573619128be3479d8cd6fb56e1617e1f72edd45027ded2a3b153b98437",
            "branch point 0": "b830ef02c6a4ac4d7f20238c2952340136122dd29b9a11fc01fcc4648348961f",
            "branch point 1": "b84b932b14fc35d6f1df030e385b770950a5c9d2a3c123599ebf0add43999252",
        },
        "ninth": {
            "disc": "123125234fc38ec289d8db29d952814491128c36c2b76a438e305d6123c22698",
            "squarefree_disc": "fe57c79b8e78bd8b5e30e4d74288570a2ed0ce32ffc68c6fefe302742fd4d21a",
            "locus": "73bbb409496b3f0f48243ab9ca914bdd9a2527cdd44e838f6fb32a1c58dc4364",
            "s_guards": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "branch point 0": "7c3ce6c56851bec2a3913d53c06d8a42828a4d3610a5922ed6d0f3eecd647e97",
            "branch point 1": "8847342b345a81fe08b449793b6681caaee8a458f66060ec4e41d416ee88cf11",
        },
    }

    @pytest.mark.parametrize("name", ["psl32", "x2mt", "x3mt", "twobranch", "ninth"])
    def test_pins(self, name):
        source = {"twobranch": twobranch_manifest, "ninth": ninth_manifest}.get(name)
        m = load_manifest(source()) if source else builtin_manifest(name)
        digests = {
            key: hashlib.sha256(text.encode()).hexdigest() for key, text in loaded_texts(m).items()
        }
        assert digests == self.PINS[name]

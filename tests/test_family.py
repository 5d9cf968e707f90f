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
from galspec.permgrp import Perm, generate
from galspec.poly import UniPoly, parse_poly
from test_beckmann import nesting, twobranch_manifest
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


def symbolic_locus(poly: str):
    """The locus with s free, which the loader computes."""
    return load_manifest({"name": "locus", "poly": poly}).locus


class TestBranchLocus:
    def test_quadratic(self):
        locus = symbolic_locus("X^2 - t")
        assert locus.points == (0,)
        assert locus.residual.degree() == 0
        assert locus.infinity

    def test_cubic(self):
        locus = symbolic_locus("X^3 - t")
        assert locus.points == (0,)
        assert locus.infinity

    def test_parameter_dependent_point_not_found_symbolically(self):
        locus = symbolic_locus("X^2 - t + s")
        assert locus.points == ()
        assert locus.residual.degree() == 1
        assert locus.infinity

    def test_bound_mode_finds_moving_points(self):
        f = parse_poly("X^2 - t + s")
        assert branch_locus(f, 3).points == (3,)
        assert branch_locus(f, Fraction(-1, 2)).points == (Fraction(-1, 2),)

    def test_collision_family_counts(self):
        f = parse_poly("(X^2 - t)*(X^2 - t - s)")
        sym = symbolic_locus("(X^2 - t)*(X^2 - t - s)")
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
            branch_locus(parse_poly("X^2 - 2*t*X + t^2"), 1)

    def test_not_monic(self):
        with pytest.raises(ValueError):
            branch_locus(parse_poly("2*X^2 - t"), 1)


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
        assert generate([bp.inertia_generator]).order == 2
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

    def test_psl32_disc_has_integer_leaves(self):
        # the pins hash printed text, where Fraction(4, 1) reads as 4; the
        # resultant's interpolation divides by differences of points
        assert all(type(c) is int for c in leaves(builtin_manifest("psl32").disc))

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
        # infinity_transformed would ask for a 1/t chart the loader never applies
        for key, value in (("galois_group", "C2"), ("infinity_transformed", True)):
            raw = self.base()
            raw[key] = value
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
    """Every polynomial the loader derives, as its nested coefficient tuple
    by repr: the discriminant, its squarefree part, the locus, the s-guards
    with their labels and each branch point's data."""
    texts = {
        "disc": repr(nesting(m.disc)),
        "squarefree_disc": repr(nesting(m.squarefree_disc)),
        "locus": repr((m.locus.points, nesting(m.locus.residual), m.locus.infinity)),
        "s_guards": repr([(label, nesting(g)) for label, g in m.s_guards]),
    }
    for i, bp in enumerate(m.branch_points):
        location = "inf" if bp.is_infinite else nesting(bp.location)
        elements = " ".join(str(g) for g in bp.decomposition.elements)
        texts[f"branch point {i}"] = repr(
            (location, bp.e, str(bp.inertia_generator), elements, nesting(bp.rho))
        )
    return texts


class TestLoadedManifestPins:
    """sha256 of loaded_texts: a change to the resultant, gcd or squarefree
    machinery must leave every loaded manifest as it was.  The texts are the
    nested coefficient tuples, not the printed polynomials, so a change to
    format_poly leaves every pin as it is; they were retaken in that form at
    fb551e5.  The s-guard labels print locations in s alone, whose one-level
    text the printer has never changed."""

    PINS = {
        "psl32": {
            "disc": "26574a6d40c2c0d61148d62a5060f554a098ea7b974aaa947ed24e53a4999492",
            "squarefree_disc": "2e19d24b37fa7c13803189b159a084c752ecabf5de6e00aa3155b602b86cff9c",
            "locus": "57b69deb62e92676751d7d801b0da924f436c55eb5f2cd593bfb36746b789513",
            "s_guards": "6db3422564b1f13bf182dc2619d39bb54051cfd7b5032619b619d1bb26a1d498",
            "branch point 0": "c3c0b43f8b57703fae87e29e9ffc82cf199ad60322b13034412a0ea3e6e2c595",
        },
        "x2mt": {
            "disc": "bb0521623d19ba06db7050e258729ddaa6585d44a59354d491875c22194498d2",
            "squarefree_disc": "9c0d068047daaf4aeb1e8de8812d0d42b023d5018bcaf3db736bba92d479d688",
            "locus": "c229710eb56367baf705f4b930af95c5a0fbe3d41b7b30c718e22e4c67b73745",
            "s_guards": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "branch point 0": "c1a261ec0dc4423e63647d9b511ca2039d753579f989cda465c03ab96c228b5e",
            "branch point 1": "6bcfa7a3aa06da1d899f460661c20f00ff0222e82e9ae823066c1f8a8be3a880",
        },
        "x3mt": {
            "disc": "f43ec2d9c3c96101c4412647050fce1217bcbd8a8de19ba7d15b3eed55841948",
            "squarefree_disc": "9c0d068047daaf4aeb1e8de8812d0d42b023d5018bcaf3db736bba92d479d688",
            "locus": "c229710eb56367baf705f4b930af95c5a0fbe3d41b7b30c718e22e4c67b73745",
            "s_guards": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "branch point 0": "809966ead486baf515f91749a9365d2fd427b658d44dad485508f9c5c177e8f0",
            "branch point 1": "40689dce9f5b79052b50ca771c9c4b1c83d69aa5b2a4df6800ca0741883bf09f",
        },
        "twobranch": {
            "disc": "15ec870c71a6ec67eec24de1cb315551a9cff9ddf84efd63ebb755b275d28f13",
            "squarefree_disc": "74a81b067a3f6b3269b63a6d06dd562eb272d041512604c3ec2c8ed1a61a8132",
            "locus": "cf98a284563d87df947931b16c5ac6f96de6d8bd7f0f4912a8d60f7ac08c8a0d",
            "s_guards": "05fadfd7c68f0198c836cf5a2fc0c6c68bcaaeb0a102bd053f068d28f0eefc2c",
            "branch point 0": "2a300bcf0e54a72d7e763c42ba6972ebbbfd86833e93c85bf6fa7ff998655a19",
            "branch point 1": "7bc18ce4f2760588233b88a49e7b92bf5900cb3e87a6c21350e840a7cf0c1656",
        },
        "ninth": {
            "disc": "ddfa8d11f81acea97501218b785863e0ca2eb9076459f7222aeb4d8c54458a43",
            "squarefree_disc": "18e7c4242df9c4b2fdca505bb52390b5d85a53bec739ed739727299477f97b71",
            "locus": "d4ac68eac330534f59e29d4832bd695ea5a373139b9f967b9d30337d0fcaae8f",
            "s_guards": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "branch point 0": "e12f10e82b0632bcd91bc275148c3affaf55fe99bb0e2b2cdc46a84c5794bf81",
            "branch point 1": "6bcfa7a3aa06da1d899f460661c20f00ff0222e82e9ae823066c1f8a8be3a880",
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

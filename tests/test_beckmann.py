"""Bad primes, bad residue classes, and tame inertia predictions."""

import hashlib
import json
from fractions import Fraction
from importlib import resources
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from galspec.arith import NonPrimeError, is_prime, primes_up_to, valuation
from galspec.beckmann import (
    BadPrimeReport,
    InertiaPrediction,
    PredictionContradiction,
    UnramifiedPrediction,
    bad_primes,
    bad_s_residues,
    is_bad_prime,
    is_exceptional,
    predict_any,
    predict_inertia,
    residue_class_bound,
    specialization,
)
from galspec.family import builtin_manifest, load_manifest, nondegenerate_check
from galspec.ffact import FpField, factor_poly, reduce_mod_p
from galspec.padic import padic_shape
from galspec.permgrp import power_cycle_type
from galspec.poly import UniPoly, constant_value, parse_poly, specialize, x_poly_coeffs


def twobranch_manifest() -> dict:
    """(X^2 - (t - s))(X^2 - (t - 2s)): branch points at t = s and t = 2s."""
    return {
        "name": "twobranch",
        "poly": "(X^2 - t + s)*(X^2 - t + 2*s)",
        "group_generators": ["(1 2)", "(3 4)"],
        "branch_points": [
            {
                "location": "s",
                "e": 2,
                "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 + s",
            },
            {
                "location": "2*s",
                "e": 2,
                "inertia_generator": "(3 4)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 - s",
            },
        ],
    }


def shifted_manifest() -> dict:
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


def big_guard_manifest() -> dict:
    """x2mt with t scaled by N*s + 1, N = 1000000000000000003 *
    3000000000000000037: both 19-digit primes divide an s-guard's leading
    coefficient."""
    raw = json.loads(resources.files("galspec").joinpath("data/x2mt.json").read_text())
    raw["name"] = "bigguard"
    raw["poly"] = "X^2 - (3000000000000000046000000000000000111*s + 1)*t"
    return raw


def fifteenth_manifest() -> dict:
    """A leaf denominator of 15 in f, and no s-guard."""
    return {
        "name": "fifteenth",
        "poly": "X^2 - 1/15*t + s",
        "group_generators": ["(1 2)"],
        "branch_points": [
            {
                "location": "15*s",
                "e": 2,
                "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)"],
            }
        ],
    }


def denominator_lcm(g) -> int:
    """lcm of the denominators of every rational leaf of a nested UniPoly."""
    if isinstance(g, UniPoly):
        return lcm(1, *(denominator_lcm(c) for c in g.coeffs))
    return g.denominator


def intersection_multiplicity(t0, branch, p: int) -> int:
    """Contact order of t0 with a branch point at p (reference oracle for
    the contact rule that beckmann.predict_any applies).

    branch is either a rational number a (contact = v_p(t0 - a)) or the
    minimal polynomial g of an algebraic branch point (contact = v_p(g(t0))).
    The value is negative when t0 itself is not p-integral.
    """
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    t0 = Fraction(t0)
    if isinstance(branch, UniPoly):
        v = branch.evaluate(t0)
        if isinstance(v, UniPoly):
            v = constant_value(v)
        if v == 0:
            raise ValueError(f"t0 = {t0} is the branch point itself")
        return valuation(v, p)
    a = Fraction(branch)
    if t0 == a:
        raise ValueError(f"t0 = {t0} is the branch point itself")
    return valuation(t0 - a, p)


def fraction_rule(manifest, s0, t0, p: int):
    """predict_any with its contacts read in Fraction arithmetic through
    arith.valuation, guards and messages included (reference oracle for the
    integer contacts)."""
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
    met = []
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
        p, j, contact, power_cycle_type(bp.inertia_generator, contact),
        bp.e // gcd(bp.e, contact),
    )


def residual_manifest() -> dict:
    """X^2 - t(9t^2 - s): the residual 9t^2 - s has rational roots at
    s0 = 36, and 3 divides its leading coefficient."""
    return {
        "name": "residual9",
        "poly": "X^2 - t*(9*t^2 - s)",
        "group_generators": ["(1 2)"],
        "branch_points": [{
            "location": "0", "e": 2, "inertia_generator": "(1 2)",
            "decomposition_generators": ["(1 2)"],
        }],
    }


TWOBRANCH, RESIDUAL = load_manifest(twobranch_manifest()), load_manifest(residual_manifest())


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any refusal: compared by type and message
        return type(exc), str(exc)


def reasons_by_prime(reports) -> dict:
    return {r.p: r.reasons for r in reports}


class TestIntersectionMultiplicity:
    def test_simple_valuation(self):
        assert intersection_multiplicity(12, 0, 3) == 1

    def test_higher_valuation(self):
        assert intersection_multiplicity(9, 0, 3) == 2

    def test_minimal_polynomial_branch(self):
        g = parse_poly("X^2 - 2")
        assert intersection_multiplicity(Fraction(7, 4), g, 5) == 0

    def test_minimal_polynomial_positive(self):
        # g(10) = 98 = 2 * 7^2
        g = parse_poly("X^2 - 2")
        assert intersection_multiplicity(10, g, 7) == 2

    def test_negative_valuation(self):
        assert intersection_multiplicity(Fraction(1, 3), 0, 3) == -1

    def test_branch_point_itself(self):
        with pytest.raises(ValueError, match="branch point"):
            intersection_multiplicity(5, 5, 3)

    def test_root_of_minimal_polynomial(self):
        g = parse_poly("X^2 - 4")
        with pytest.raises(ValueError, match="branch point"):
            intersection_multiplicity(2, g, 3)

    @given(
        t0=st.fractions(min_value=-50, max_value=50, max_denominator=100),
        a=st.integers(min_value=-20, max_value=20),
        p=st.sampled_from([2, 3, 5, 7, 11]),
    )
    def test_shift_invariance(self, t0, a, p):
        # moving both points together never changes the multiplicity, and
        # moving one of them by p changes it ultrametrically
        if t0 == a or t0 + p == a:
            return
        m = intersection_multiplicity(t0, a, p)
        assert intersection_multiplicity(t0 + 1, a + 1, p) == m
        shifted = intersection_multiplicity(t0 + p, a, p)
        if m <= 0:
            assert shifted == m
        elif m >= 2:
            assert shifted == 1
        else:
            assert shifted >= 1


class TestBadPrimeReport:
    def test_needs_a_reason(self):
        with pytest.raises(ValueError):
            BadPrimeReport(5, ())

    def test_unknown_reason(self):
        with pytest.raises(ValueError):
            BadPrimeReport(5, ("Cursed",))


class TestBadPrimes:
    def test_x2mt(self):
        m = builtin_manifest("x2mt")
        for s0 in (0, 1, 7):
            got = reasons_by_prime(bad_primes(m, s0))
            assert got == {2: ("DividesGroupOrder", "VerticalRamification")}

    def test_x3mt(self):
        got = reasons_by_prime(bad_primes(builtin_manifest("x3mt"), 0))
        assert got == {
            2: ("DividesGroupOrder",),
            3: ("DividesGroupOrder", "VerticalRamification"),
        }

    def test_flagship_frozen(self):
        m = builtin_manifest("psl32")
        got = reasons_by_prime(bad_primes(m, 1, bound=3000))
        assert got == {
            2: (
                "BranchCollision",
                "DiscriminantInseparable",
                "DividesGroupOrder",
                "NonIntegralBranchPoint",
            ),
            3: (
                "DiscriminantInseparable",
                "DividesGroupOrder",
                "NonIntegralBranchPoint",
            ),
            7: ("DividesGroupOrder",),
            167: ("BranchCollision", "DiscriminantInseparable"),
            2269: ("BranchCollision", "DiscriminantInseparable"),
        }

    def test_exact_membership_beyond_bound(self):
        m = builtin_manifest("psl32")
        default = {r.p for r in bad_primes(m, 1)}
        assert 2269 not in default
        assert is_bad_prime(m, 1, 2269)
        assert is_bad_prime(m, 1, 167)
        assert not is_bad_prime(m, 1, 11)
        assert not is_bad_prime(m, 1, 173)

    def test_collision_prime(self):
        m = load_manifest(twobranch_manifest())
        got = reasons_by_prime(bad_primes(m, 7))
        assert got[7] == (
            "BranchCollision",
            "DiscriminantInseparable",
            "VerticalRamification",
        )
        assert got[2] == ("DividesGroupOrder", "VerticalRamification")
        assert set(got) == {2, 7}

    def test_nonintegral_branch_point(self):
        m = load_manifest(shifted_manifest())
        got = reasons_by_prime(bad_primes(m, Fraction(1, 2)))
        assert "NonIntegralBranchPoint" in got[2]

    def test_degenerate_s0_refused(self):
        m = load_manifest(twobranch_manifest())
        with pytest.raises(ValueError, match="degenerate"):
            bad_primes(m, 0)

    def test_manifests_cache_by_identity(self):
        # two loads of one dict are distinct cache keys with equal answers
        m1, m2 = load_manifest(twobranch_manifest()), load_manifest(twobranch_manifest())
        assert m1 != m2
        assert bad_primes(m1, 7, 1000) == bad_primes(m2, 7, 1000)
        for p in primes_up_to(60):
            assert is_bad_prime(m1, 7, p) == is_bad_prime(m2, 7, p)


class TestBadSResidues:
    def test_no_conditions(self):
        m = load_manifest(shifted_manifest())
        assert residue_class_bound(m) == 0
        assert bad_s_residues(m, 5) == frozenset()

    def test_collision_residue(self):
        m = load_manifest(twobranch_manifest())
        assert bad_s_residues(m, 7) == {0}
        assert bad_s_residues(m, 11) == {0}
        assert residue_class_bound(m) == 9

    def test_flagship_frozen(self):
        m = builtin_manifest("psl32")
        assert bad_s_residues(m, 11) == {0, 4, 8, 9, 10}
        assert bad_s_residues(m, 13) == {0, 4, 5, 6}
        assert bad_s_residues(m, 101) == {0, 4, 25, 41, 87}

    def test_flagship_witnesses(self):
        # every reported residue must actually kill one of the stored
        # s-polynomial conditions mod p
        m = builtin_manifest("psl32")
        p = 11
        for r in bad_s_residues(m, p):
            values = [g.evaluate(Fraction(r)) for _, g in m.s_guards]
            assert any(v.denominator == 1 and v.numerator % p == 0 for v in values)

    def test_bound_is_prime_independent(self):
        m = builtin_manifest("psl32")
        bound = residue_class_bound(m)
        assert bound == 57
        for p in (11, 13, 101, 997):
            assert len(bad_s_residues(m, p)) <= bound

    def test_exceptional_prime_refused(self):
        m = builtin_manifest("psl32")
        assert [p for p in primes_up_to(1000) if is_exceptional(m, p)] == [2, 3, 7]
        for p in (2, 3, 7):
            with pytest.raises(ValueError, match="exceptional"):
                bad_s_residues(m, p)

    @pytest.mark.parametrize("name", ["psl32", "x2mt", "x3mt"])
    def test_matches_full_factorization(self, name):
        # the residues are the roots of the linear factors of each guard mod p
        m = builtin_manifest(name)
        for p in primes_up_to(200):
            if is_exceptional(m, p):
                continue
            K = FpField(p)
            expected = set()
            for _, g in m.s_guards:
                coeffs = [g.coeff(i) for i in range(g.degree() + 1)]
                _unit, factors = factor_poly(K, reduce_mod_p(coeffs, p))
                expected.update(-h[0] % p for h, _ in factors if len(h) == 2)
            assert bad_s_residues(m, p) == frozenset(expected)

    @pytest.mark.parametrize("raw", [
        "psl32", "x2mt", "x3mt", twobranch_manifest(), shifted_manifest(),
        big_guard_manifest(), fifteenth_manifest(),
    ], ids=lambda raw: raw if isinstance(raw, str) else raw["name"])
    def test_exceptional_matches_factorization(self, raw):
        # oracle: the primes of the group order, of each s-guard's leading
        # numerator and of f's leaf denominator, by sympy's factorization
        import sympy

        m = builtin_manifest(raw) if isinstance(raw, str) else load_manifest(raw)
        integers = [m.group.order, denominator_lcm(m.f)]
        integers += [abs(g.coeff(g.degree()).numerator) for _, g in m.s_guards]
        oracle = set().union(*(sympy.factorint(n) for n in integers))
        # the primes after each 19-digit factor of the big guard divide nothing
        neighbours = {1000000000000000009, 3000000000000000059}
        candidates = set(primes_up_to(10**4)) | oracle | neighbours
        for p in sorted(candidates):
            assert is_exceptional(m, p) == (p in oracle), p

    def test_exceptional_needs_a_prime_and_a_group(self):
        with pytest.raises(NonPrimeError):
            is_exceptional(builtin_manifest("x2mt"), 9)
        raw = shifted_manifest()
        del raw["group_generators"]
        with pytest.raises(ValueError, match="no group"):
            is_exceptional(load_manifest(raw), 5)

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(min_value=3, max_value=300).filter(is_prime))
    def test_twobranch_residues_property(self, p):
        m = load_manifest(twobranch_manifest())
        if p == 2:
            return
        residues = bad_s_residues(m, p)
        assert len(residues) <= residue_class_bound(m)
        assert residues == {0}


class TestPredictInertia:
    def test_ramified_quadratic(self):
        m = builtin_manifest("x2mt")
        pred = predict_inertia(m, 0, 0, 12, 3)
        assert isinstance(pred, InertiaPrediction)
        assert pred.p == 3
        assert pred.branch == 0
        assert pred.multiplicity == 1
        assert pred.generator_class.parts == (2,)
        assert pred.order == 2

    def test_square_multiplicity_trivializes(self):
        m = builtin_manifest("x2mt")
        pred = predict_inertia(m, 0, 0, 9, 3)
        assert pred.multiplicity == 2
        assert pred.generator_class.parts == (1, 1)
        assert pred.order == 1

    def test_infinite_branch_quadratic(self):
        m = builtin_manifest("x2mt")
        pred = predict_inertia(m, 1, 0, Fraction(1, 3), 3)
        assert pred.branch == 1
        assert pred.multiplicity == 1
        assert pred.order == 2

    def test_flagship_infinite_branch(self):
        m = builtin_manifest("psl32")
        pred = predict_inertia(m, 0, 1, Fraction(1, 5), 5)
        assert pred.multiplicity == 1
        assert pred.generator_class.parts == (2, 2, 1, 1, 1)
        assert pred.order == 2

    def test_flagship_even_multiplicity(self):
        m = builtin_manifest("psl32")
        pred = predict_inertia(m, 0, 1, Fraction(1, 25), 5)
        assert pred.multiplicity == 2
        assert pred.generator_class.parts == (1,) * 7
        assert pred.order == 1

    def test_unramified(self):
        m = builtin_manifest("x2mt")
        pred = predict_inertia(m, 0, 0, 5, 3)
        assert isinstance(pred, UnramifiedPrediction)
        assert pred.p == 3

    def test_wrong_branch_index(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="branch point 0"):
            predict_inertia(m, 1, 0, 12, 3)

    def test_contradiction_signals_bad_prime(self):
        # s0 = 7 puts both branch points in the same residue class mod 7;
        # the uniqueness assertion must catch the leak
        m = load_manifest(twobranch_manifest())
        with pytest.raises(PredictionContradiction) as info:
            predict_inertia(m, 0, 7, 0, 7)
        assert info.value.report.p == 7
        assert info.value.report.reasons == ("BranchCollision",)

    def test_branch_point_t0_refused(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="branch point"):
            predict_inertia(m, 0, 0, 0, 3)

    def test_group_order_prime_refused(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="divides the group order"):
            predict_inertia(m, 0, 0, 12, 2)

    def test_degenerate_s0_refused(self):
        m = builtin_manifest("psl32")
        with pytest.raises(ValueError, match="discriminant t-degree drops"):
            predict_inertia(m, 0, 0, Fraction(1, 11), 11)

    def test_undeclared_branch_meeting_refused(self):
        # W(1, 2) = 11 * 2287: t0 = 2 meets a non-rational branch point
        # mod 11, for which no inertia generator is on file
        m = builtin_manifest("psl32")
        with pytest.raises(ValueError, match="non-rational"):
            predict_inertia(m, 0, 1, 2, 11)


class TestPredictAny:
    def test_reads_the_branch_point_met(self):
        m = load_manifest(twobranch_manifest())
        assert predict_any(m, 1, 13, 11).branch == 1
        assert predict_any(m, 1, 12, 11).branch == 0
        assert predict_any(m, 1, 14, 11) is None

    def test_no_branch_points(self):
        m = load_manifest({"name": "nb", "poly": "X^2 - s*t", "group_generators": ["(1 2)"]})
        with pytest.raises(ValueError, match="declares no branch points"):
            predict_any(m, 1, 1, 7)

    def test_t0_on_the_residual_locus_refused(self):
        # X^2 - t(t^2 - s) at s0 = 4: t0 = 2 is a root of the residual t^2 - 4
        m = load_manifest({
            "name": "cubic",
            "poly": "X^2 - t*(t^2 - s)",
            "group_generators": ["(1 2)"],
            "branch_points": [{
                "location": "0", "e": 2, "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)"],
            }],
        })
        with pytest.raises(ValueError, match="t0 = 2 is an undeclared branch point"):
            predict_any(m, 4, 2, 5)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="no branch point with index 2"):
            predict_inertia(builtin_manifest("x2mt"), 2, 0, 12, 3)

    def test_integer_contacts_on_a_grid(self):
        # t0 = a / p^k against locations and a residual whose leading
        # coefficient 9 carries p = 3
        cases = [(builtin_manifest("x2mt"), 0), (builtin_manifest("x3mt"), 0),
                 (builtin_manifest("psl32"), 1), (builtin_manifest("psl32"), Fraction(3, 7)),
                 (TWOBRANCH, Fraction(2, 5)), (TWOBRANCH, Fraction(7, 9)),
                 (RESIDUAL, 3), (RESIDUAL, 36)]
        for m, s0 in cases:
            for p in (3, 5, 11):
                for k in range(-1, 3):
                    for a in range(-15, 16):
                        t0 = Fraction(a) / Fraction(p) ** k
                        assert outcome(predict_any, m, s0, t0, p) == outcome(
                            fraction_rule, m, s0, t0, p), (m.name, s0, t0, p)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_integer_contacts_match_the_fraction_rule(self, data):
        # rational t0 with p in its denominator, locations with p in theirs
        # (twobranch at s0 = k/p^j), t0 close to a location or exactly on it
        name = data.draw(st.sampled_from(["x2mt", "x3mt", "psl32", "twobranch", "residual9"]))
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 4]))
        q = p if p != 4 else 2
        if name in ("x2mt", "x3mt"):
            m, s0 = builtin_manifest(name), 0
        elif name == "psl32":
            m, s0 = builtin_manifest(name), data.draw(st.sampled_from([1, Fraction(3, 7)]))
        elif name == "twobranch":
            m = TWOBRANCH
            s0 = Fraction(
                data.draw(st.integers(-30, 30).filter(bool)),
                data.draw(st.sampled_from([1, 2, 3, q, q * q, 7 * q])),
            )
        else:
            m, s0 = RESIDUAL, data.draw(st.sampled_from([36, 4, 3]))
        locations = specialization(m, s0).locations if nondegenerate_check(m, s0) else ()
        centres = [a for a in locations if a is not None] + [Fraction(0), Fraction(2)]
        centre = data.draw(st.sampled_from(centres))
        k = data.draw(st.integers(-3, 3))
        u = Fraction(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 12)))
        t0 = centre + u * Fraction(q) ** k
        if t0.denominator == 1 and data.draw(st.booleans()):
            t0 = int(t0)
        assert outcome(predict_any, m, s0, t0, p) == outcome(fraction_rule, m, s0, t0, p)


class TestSpecialization:
    def test_cached_per_manifest_and_s0(self):
        m = builtin_manifest("psl32")
        spec = specialization(m, 1)
        assert specialization(m, Fraction(1)) is spec
        assert spec.s0 == 1 and spec.locations == (None,)
        assert spec.disc == specialize(m.disc, {"s": 1})

    def test_residual_is_a_primitive_integer_model(self):
        spec = specialization(builtin_manifest("psl32"), 1)
        leaves = spec.residual.coeffs
        assert all(isinstance(c, int) for c in leaves)
        assert gcd(*leaves) == 1 and leaves[-1] > 0
        assert spec.residual.degree() == 5
        assert specialization(builtin_manifest("x2mt"), 0).residual is None

    def test_degenerate_s0_refused(self):
        with pytest.raises(ValueError, match="discriminant t-degree drops"):
            specialization(builtin_manifest("psl32"), 0)

    def test_float_s0_rejected(self):
        with pytest.raises(TypeError, match="float"):
            specialization(builtin_manifest("psl32"), 0.1)

    @pytest.mark.parametrize("name, s0", [
        ("psl32", 1), ("psl32", Fraction(3, 7)), ("x2mt", 0), ("x3mt", 0),
    ])
    def test_fibre_binds_t_as_specialize_does(self, name, s0):
        # the same values with the same leaf types: an int where the value
        # is integral, a Fraction only where it is not
        spec = specialization(builtin_manifest(name), s0)
        typed = lambda coeffs, disc: [(c, type(c)) for c in coeffs] + [(disc, type(disc))]
        for t0 in (0, 1, -3, 40, Fraction(1, 2), Fraction(-7, 5)):
            want = x_poly_coeffs(specialize(spec.f, {"t": t0})), spec.disc.evaluate(t0)
            assert typed(*spec.fibre(t0)) == typed(*want)
        # an integral Fraction is bound as the int
        assert typed(*spec.fibre(Fraction(10, 1))) == typed(*spec.fibre(10))

    def test_group_less_manifest(self):
        m = load_manifest({"name": "m1", "poly": "X^2 - s*t"})
        reasons = {reason for reason, _ in specialization(m, 3).certificates}
        assert "DividesGroupOrder" not in reasons
        with pytest.raises(ValueError, match="declares no group"):
            bad_primes(m, 3)
        with pytest.raises(ValueError, match="declares no group"):
            is_bad_prime(m, 3, 5)


def nesting(g):
    """g as its variable and nested coefficient tuple, down to the leaves; by
    repr an int leaf is never a Fraction's twin, and no printer is read."""
    if isinstance(g, UniPoly):
        return g.var, tuple(nesting(c) for c in g.coeffs)
    return g


def specialization_texts(spec) -> dict:
    """Each bound polynomial's nesting, and the branch locations and
    certificates, all by repr."""
    texts = {
        key: repr(nesting(g))
        for key, g in (("f", spec.f), ("disc", spec.disc), ("residual", spec.residual))
    }
    texts["locations"] = repr(spec.locations)
    texts["certificates"] = repr(spec.certificates)
    return texts


class TestSpecializationPins:
    """sha256 of specialization_texts: binding s = s0 in f, the discriminant
    and the residual locus must give the same polynomials with the same
    leaves.  The texts are the nested coefficient tuples, not the printed
    polynomials, so a change to format_poly leaves every pin as it is; they
    were retaken in that form at fb551e5, whose polynomials match the ones
    first pinned at b3047ee."""

    PINS = {
        ("psl32", "1"): {
            "f": "7f813645037fc31763f2108d407364fc47e0e05edf9c78e5732e1ba048d7b658",
            "disc": "97c48b93e349eaf189f6e1561b1c96fdc44a88e8a03eae4abd322768238efca5",
            "residual": "a2e93d2761b7e4aacc7891da56084e43c92a6048ed3d00d54352787625d77249",
            "locations": "6608785650006e976898e64c1c6460e5ec654f7da306a8bef11908145b1ab96d",
            "certificates": "9bd6e5abc985f3327da7f500f12eb913ae527eae3e8e6ed5deeec364e8713b94",
        },
        ("psl32", "2"): {
            "f": "308d3f43c541a88cf164cb243cd10d2e08e96fe76eedbdbdcd8769b98fb20784",
            "disc": "867984491609130a89fd958900ae92e0082af33f277a5d6ce54eb65dbf5c6baa",
            "residual": "f6f2d32d0ede01115e109aa49ff2be2a6aeb47f2bdad858cf7d524b060dca89a",
            "locations": "6608785650006e976898e64c1c6460e5ec654f7da306a8bef11908145b1ab96d",
            "certificates": "c023d2eeab0b8d3712d51ccc48be40b71fa160a196345c01dba77ee3cc0df56b",
        },
        ("psl32", "7"): {
            "f": "bab10fb6949887c3e990f6fda0d96c168a3d215af08ebdafa0aa5b4eb9d8a482",
            "disc": "d8c8525d9a6d394126397b200d0cbf748b3413e82fcfa5907d8f300950005e3a",
            "residual": "ebcef2ac67f8874388c1dfd58f178543df1eb47ed37780b09ca5ff899b94729b",
            "locations": "6608785650006e976898e64c1c6460e5ec654f7da306a8bef11908145b1ab96d",
            "certificates": "c13c91a1e868204f6e86c4c3aecea0029658fbe3f354b285425a6249de27262e",
        },
        ("psl32", "3/7"): {
            "f": "12240acf7b64f0eb5e329d839987042037e30f07973d40cda42d8489c64d6f52",
            "disc": "81c9dfb88b2727430251d496b97cb3a7802178e699ddb8dbae7a28e29d50628b",
            "residual": "e92f740376fae9e2f840b1ef04a4232afcea35199c203db9e2ab5b230390015b",
            "locations": "6608785650006e976898e64c1c6460e5ec654f7da306a8bef11908145b1ab96d",
            "certificates": "34ecbdef7b56b8c76b7ab97974893f5d5dbe19accf1a176178a60df416e8cd63",
        },
        ("x2mt", "0"): {
            "f": "2268b9e69ad847104cc9f2d4967372b513845182e1de70eebba93e9153c84f91",
            "disc": "d72e258bafdd424fea0046404becfb423fa96c6739acc25d4b09d8d1911feaf7",
            "residual": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
            "locations": "f197e09dacb4f7bcb2f77b75fab0e428b71572be84a9b8947dab242ef263f0ee",
            "certificates": "c20b9f7840c77e0a53c15f4c4e0258685cacdc8843a6489fb7492e417b34ebb5",
        },
        ("x2mt", "3"): {
            "f": "2268b9e69ad847104cc9f2d4967372b513845182e1de70eebba93e9153c84f91",
            "disc": "d72e258bafdd424fea0046404becfb423fa96c6739acc25d4b09d8d1911feaf7",
            "residual": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
            "locations": "f197e09dacb4f7bcb2f77b75fab0e428b71572be84a9b8947dab242ef263f0ee",
            "certificates": "c20b9f7840c77e0a53c15f4c4e0258685cacdc8843a6489fb7492e417b34ebb5",
        },
        ("x3mt", "0"): {
            "f": "655b2b73a7c39984a36fa3a8c1e47e2531ca11a4e3f73d83958fdbb245685e5a",
            "disc": "19c1a9d81ef97d4c27a791245d92abc913f5c4f5a5a34b131471f289826955da",
            "residual": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
            "locations": "f197e09dacb4f7bcb2f77b75fab0e428b71572be84a9b8947dab242ef263f0ee",
            "certificates": "01a73aaaec4ce1f57637a536853ff78929fb90db34d5d08050d1d1afbf8e4f3d",
        },
        ("x3mt", "3"): {
            "f": "655b2b73a7c39984a36fa3a8c1e47e2531ca11a4e3f73d83958fdbb245685e5a",
            "disc": "19c1a9d81ef97d4c27a791245d92abc913f5c4f5a5a34b131471f289826955da",
            "residual": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
            "locations": "f197e09dacb4f7bcb2f77b75fab0e428b71572be84a9b8947dab242ef263f0ee",
            "certificates": "01a73aaaec4ce1f57637a536853ff78929fb90db34d5d08050d1d1afbf8e4f3d",
        },
    }

    @pytest.mark.parametrize("name, s0", sorted(PINS))
    def test_pins(self, name, s0):
        spec = specialization(builtin_manifest(name), Fraction(s0))
        digests = {
            key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in specialization_texts(spec).items()
        }
        assert digests == self.PINS[name, s0]


def expanded_shape(shape) -> tuple:
    out = []
    for e, f in shape.pairs:
        out.extend([e] * f)
    return tuple(sorted(out, reverse=True))


def bound_poly(manifest, s0, t0) -> UniPoly:
    g = specialize(manifest.f, {"s": Fraction(s0), "t": Fraction(t0)})
    return UniPoly([g.coeff(i) for i in range(g.degree() + 1)], "X")


class TestCentralInvariant:
    """Predicted inertia cycle type == p-adic (e repeated f times) multiset."""

    def check(self, manifest, i, s0, t0, p):
        pred = predict_inertia(manifest, i, s0, t0, p)
        shape = padic_shape(bound_poly(manifest, s0, t0), p)
        got = expanded_shape(shape)
        if isinstance(pred, UnramifiedPrediction):
            assert all(e == 1 for e, _ in shape.pairs), (t0, p, shape)
        else:
            assert got == pred.generator_class.parts, (t0, p, shape)

    def test_quadratic_grid(self):
        m = builtin_manifest("x2mt")
        for t0 in (12, 9, 45, 50, 7, 18, -75):
            for p in (3, 5, 7):
                if t0 == 0:
                    continue
                self.check(m, 0, 0, t0, p)

    def test_cubic_grid(self):
        m = builtin_manifest("x3mt")
        for t0 in (5, 25, 125, 10, 175, -7):
            for p in (5, 7):
                self.check(m, 0, 0, t0, p)

    def test_flagship_finite_unramified(self):
        m = builtin_manifest("psl32")
        for p, t0s in ((5, (1, 2, 3)), (13, (1, 2)), (11, (1, 3))):
            for t0 in t0s:
                self.check(m, 0, 1, t0, p)

    def test_s_dependent_branch_points(self):
        # t0 = 1 + p meets t = s at s0 = 1 and misses t = 2s
        m = load_manifest(twobranch_manifest())
        for p in (5, 11, 13):
            self.check(m, 0, 1, 1 + p, p)

    def test_flagship_infinite_ramified(self):
        # v_p(t0) = -1 forces the infinite branch; the u-chart polynomial,
        # made monic, carries the p-adic side of the check
        m = builtin_manifest("psl32")
        from galspec.family import infinity_chart

        chart = infinity_chart(m.f)
        for p in (5, 11, 13):
            pred = predict_inertia(m, 0, 1, Fraction(1, p), p)
            assert pred.generator_class.parts == (2, 2, 1, 1, 1)
            g = specialize(chart, {"s": Fraction(1), "t": Fraction(p)})
            coeffs = [g.coeff(i) for i in range(g.degree() + 1)]
            lc = coeffs[-1]
            n = len(coeffs) - 1
            monic = UniPoly(
                [c * lc ** (n - 1 - j) for j, c in enumerate(coeffs[:-1])] + [Fraction(1)],
                "X",
            )
            assert all(c.denominator == 1 for c in monic.coeffs)
            shape = padic_shape(monic, p)
            assert expanded_shape(shape) == (2, 2, 1, 1, 1)

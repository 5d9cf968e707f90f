"""Condition parsing, residue searches, CRT assembly, and verification."""

from fractions import Fraction

import pytest

import dataclasses

from galspec.arith import Congruence, legendre, primes_up_to
from galspec.beckmann import (
    InertiaPrediction, bad_primes, is_bad_prime, predict_inertia, specialization,
)
from galspec.family import builtin_manifest, load_manifest, nondegenerate_check
from galspec.ffact import NotPIntegral, NotSquarefree, degree_sequence
from galspec.grunwald import (
    NoResidueFound,
    Ramified,
    SkipResidue,
    TargetNotFound,
    Unramified,
    UnsupportedConditionCombination,
    _tally_fibres,
    census,
    frobenius_in_residue_field,
    identify,
    local_model,
    parse_condition,
    run_search,
    search_s0,
    search_t0,
    validate_conditions,
    verify,
)
from galspec.padic import _shape, padic_shape
from galspec.permgrp import CycleType, ef_multiset, generate, parse_perm, power_cycle_type
from galspec.poly import discriminant_in, parse_poly, specialize, x_poly_coeffs
from test_beckmann import twobranch_manifest


def quartic_manifest() -> dict:
    """X^4 - t: cyclic of order 4, branch points at t = 0 and infinity."""
    return {
        "name": "x4mt",
        "poly": "X^4 - t",
        "group_generators": ["(1 2 3 4)"],
        "branch_points": [
            {
                "location": "0",
                "e": 4,
                "inertia_generator": "(1 2 3 4)",
                "decomposition_generators": ["(1 2 3 4)"],
            },
            {
                "location": "inf",
                "e": 4,
                "inertia_generator": "(1 2 3 4)",
                "decomposition_generators": ["(1 2 3 4)"],
            },
        ],
    }


def no_infinity_manifest() -> dict:
    """Branch locus of degree 4 with nothing at infinity and nothing declared."""
    return {
        "name": "closed",
        "poly": "X^2 - (t^2 + 1)*(t^2 + 2)",
        "group_generators": ["(1 2)"],
        "branch_points": [],
    }


def residual_manifest(poly: str) -> dict:
    """X^2 - t*W(t): branch points t = 0 and infinity (e = 2), plus the
    non-rational roots of the quadratic W."""
    point = {"e": 2, "inertia_generator": "(1 2)", "decomposition_generators": ["(1 2)"]}
    return {
        "name": "residual",
        "poly": poly,
        "group_generators": ["(1 2)"],
        "branch_points": [{"location": "0", **point}, {"location": "inf", **point}],
    }


class TestParseCondition:
    def test_ramified(self):
        m = builtin_manifest("psl32")
        cond = parse_condition("p=7,branch=inf,d=1,frob=2", m)
        assert cond == Ramified(7, 0, 1, 2)

    def test_ramified_numeric_branch(self):
        m = builtin_manifest("x2mt")
        cond = parse_condition("p=3,branch=0,d=1", m)
        assert cond == Ramified(3, 0, 1, 1)

    def test_unramified(self):
        m = builtin_manifest("psl32")
        cond = parse_condition("p=13,unram,type=3,3,1", m)
        assert cond == Unramified(13, CycleType((3, 3, 1)))

    def test_unknown_key(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="unknown"):
            parse_condition("p=3,branch=0,d=1,weight=2", m)

    def test_ramified_and_unramified(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError):
            parse_condition("p=3,unram,branch=0,d=1", m)

    def test_neither(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError):
            parse_condition("p=3", m)

    def test_no_infinite_branch(self):
        m = load_manifest(no_infinity_manifest())
        with pytest.raises(ValueError, match="infinity"):
            parse_condition("p=3,branch=inf,d=1", m)


class TestValidateConditions:
    def test_prime_two_excluded(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="p = 2"):
            validate_conditions(m, [Ramified(2, 0, 1, 1)])
        with pytest.raises(ValueError, match="p = 2"):
            validate_conditions(m, [Unramified(2, CycleType((2,)))])

    def test_wild_condition_excluded(self):
        m = builtin_manifest("x3mt")
        with pytest.raises(ValueError, match="wild"):
            validate_conditions(m, [Ramified(3, 0, 1, 1)])

    def test_d_must_divide(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="divide"):
            validate_conditions(m, [Ramified(3, 0, 3, 1)])

    def test_trivial_inertia_rejected(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="trivial"):
            validate_conditions(m, [Ramified(3, 0, 2, 1)])

    def test_frobenius_needs_residue_data(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="residue"):
            validate_conditions(m, [Ramified(3, 0, 1, 2)])

    def test_unramified_target_degree(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError, match="degree"):
            validate_conditions(m, [Unramified(7, CycleType((3,)))])

    def test_unramified_target_realized(self):
        m = builtin_manifest("psl32")
        with pytest.raises(ValueError, match="realized"):
            validate_conditions(m, [Unramified(11, CycleType((5, 1, 1)))])

    def test_distinct_primes(self):
        m = builtin_manifest("psl32")
        with pytest.raises(ValueError, match="distinct"):
            validate_conditions(
                m, [Ramified(7, 0, 1, 2), Unramified(7, CycleType((7,)))]
            )

    def test_mixed_charts_refused(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(UnsupportedConditionCombination):
            validate_conditions(
                m, [Ramified(3, 0, 1, 1), Ramified(5, 1, 1, 1)]
            )

    def test_branch_index_range(self):
        m = builtin_manifest("x2mt")
        with pytest.raises(ValueError):
            validate_conditions(m, [Ramified(3, 5, 1, 1)])


class TestFrobeniusInResidueField:
    def rho(self):
        return builtin_manifest("psl32").branch_points[0].rho

    def test_nontrivial(self):
        # 2^2 - 4*2 = -4 = 3 mod 7, not a square mod 7
        assert frobenius_in_residue_field(self.rho(), 2, 7) == (2,)

    def test_trivial(self):
        # 1 - 4 = -3 = 4 = 2^2 mod 7
        assert frobenius_in_residue_field(self.rho(), 1, 7) == (1, 1)

    def test_branch_of_rho_skipped(self):
        with pytest.raises(SkipResidue):
            frobenius_in_residue_field(self.rho(), 0, 7)
        with pytest.raises(SkipResidue):
            frobenius_in_residue_field(self.rho(), 4, 7)

    def test_other_prime(self):
        # 9 - 12 = -3 = 8 mod 11: squares mod 11 are {1, 3, 4, 5, 9}
        assert frobenius_in_residue_field(self.rho(), 3, 11) == (2,)

    def test_nonintegral_s0_skipped(self):
        with pytest.raises(SkipResidue):
            frobenius_in_residue_field(self.rho(), Fraction(1, 7), 7)


class TestSearchS0:
    def test_flagship_nontrivial_frobenius(self):
        m = builtin_manifest("psl32")
        progression, witness = search_s0(m, [Ramified(7, 0, 1, 2)])
        assert progression == Congruence(2, 7)
        assert witness == 2

    def test_flagship_two_primes(self):
        m = builtin_manifest("psl32")
        progression, witness = search_s0(
            m, [Ramified(7, 0, 1, 2), Ramified(11, 0, 1, 1)]
        )
        assert progression == Congruence(16, 77)
        assert witness == 16
        # direct symbol evaluation of s^2 - 4s at the witness
        assert legendre(16 * 16 - 4 * 16, 7) == -1
        assert legendre(16 * 16 - 4 * 16, 11) == 1

    def test_empty_conditions(self):
        m = builtin_manifest("psl32")
        assert search_s0(m, []) == (Congruence(0, 1), 1)
        assert search_s0(builtin_manifest("x2mt"), []) == (Congruence(0, 1), 0)

    def test_constant_residue_field(self):
        # the cubic's residue data is X^2 + X + 1 independently of s, so
        # only the residue class of p mod 3 decides
        m = builtin_manifest("x3mt")
        progression, witness = search_s0(m, [Ramified(7, 0, 1, 1)])
        assert progression == Congruence(0, 7)
        assert witness == 0
        progression, witness = search_s0(m, [Ramified(11, 0, 1, 2)])
        assert progression == Congruence(0, 11)

    def test_infeasible_order(self):
        m = builtin_manifest("x3mt")
        with pytest.raises(NoResidueFound):
            search_s0(m, [Ramified(5, 0, 1, 1)])
        with pytest.raises(NoResidueFound):
            search_s0(m, [Ramified(7, 0, 1, 2)])


class TestSearchT0:
    def test_mixed_condition_set(self):
        m = builtin_manifest("x2mt")
        conditions = [
            Ramified(3, 0, 1, 1),
            Unramified(7, CycleType((1, 1))),
            Unramified(11, CycleType((2,))),
        ]
        prescription, witness = search_t0(m, 0, conditions)
        assert prescription.chart == "t"
        assert prescription.congruence == Congruence(57, 693)
        assert prescription.valuations == ((3, 1),)
        assert witness == 57

    def test_infinite_branch_prescription(self):
        m = builtin_manifest("psl32")
        prescription, witness = search_t0(m, 1, [Ramified(5, 0, 1, 1)])
        assert prescription.chart == "u"
        assert prescription.congruence == Congruence(5, 25)
        assert witness == Fraction(1, 5)

    def test_no_conditions(self):
        m = builtin_manifest("x2mt")
        prescription, witness = search_t0(m, 0, [])
        assert prescription.congruence == Congruence(0, 1)
        assert witness == 1  # t = 0 is a branch point

    def test_unattainable_target(self):
        # at p = 7 the Frobenius lands in the rotation subgroup, so a
        # transposition class is never produced
        m = builtin_manifest("x3mt")
        with pytest.raises(TargetNotFound):
            search_t0(m, 0, [Unramified(7, CycleType((2, 1)))])

    @pytest.mark.parametrize(
        "poly, branch, chart",
        [("X^2 - t*(t^2 - 23)", 0, "t"), ("X^2 - t*(23*t^2 - 1)", 1, "u")],
    )
    def test_non_rational_point_on_the_approach_residue(self, poly, branch, chart):
        # the residual root pair sqrt(23) (or 1/sqrt(23)) meets t = 0 (or u = 0) mod 23
        m = load_manifest(residual_manifest(poly))
        with pytest.raises(TargetNotFound, match="non-rational branch point meets"):
            search_t0(m, 1, [Ramified(23, branch, 1)])
        for p in (29, 31):
            prescription, _ = search_t0(m, 1, [Ramified(p, branch, 1)])
            assert prescription.chart == chart

    def test_member_enumeration(self):
        m = builtin_manifest("psl32")
        prescription, witness = search_t0(m, 2, [Ramified(7, 0, 1, 2)])
        assert prescription.member(0) == witness == Fraction(1, 7)
        assert prescription.member(1) == Fraction(1, 56)


class TestVerify:
    def test_flagship_nontrivial_frobenius_shape(self):
        m = builtin_manifest("psl32")
        report = verify(m, 2, Fraction(1, 7), [Ramified(7, 0, 1, 2)], n_id=0)
        (record,) = report.records
        assert record.passed
        assert record.mode == "full"
        assert record.observed == ((2, 1), (2, 1), (1, 2), (1, 1))
        assert report.passed

    def test_flagship_trivial_frobenius_shape(self):
        m = builtin_manifest("psl32")
        report = verify(m, 1, Fraction(1, 7), [Ramified(7, 0, 1, 1)], n_id=0)
        (record,) = report.records
        assert record.passed
        assert record.observed == ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1))

    def test_quadratic_witness_shapes(self):
        m = builtin_manifest("x2mt")
        conditions = [
            Ramified(3, 0, 1, 1),
            Unramified(7, CycleType((1, 1))),
            Unramified(11, CycleType((2,))),
        ]
        report = verify(m, 0, 57, conditions, n_id=0)
        assert [r.observed for r in report.records] == [
            ((2, 1),),
            (1, 1),
            (2,),
        ]
        assert report.passed

    def test_unramified_mismatch_is_a_report_not_an_exception(self):
        m = builtin_manifest("x2mt")
        report = verify(m, 0, 12, [Unramified(7, CycleType((1, 1)))], n_id=0)
        (record,) = report.records
        assert not record.passed
        assert record.observed == (2,)
        assert not report.passed

    def test_frobenius_drift_detected(self):
        # s0 = 1 realizes the trivial residue Frobenius at 7, so an x = 2
        # condition must fail verification
        m = builtin_manifest("psl32")
        report = verify(m, 1, Fraction(1, 7), [Ramified(7, 0, 1, 2)], n_id=0)
        (record,) = report.records
        assert not record.passed
        assert not report.passed

    def test_inertia_only_mode(self):
        # d = 2 with e = 4 shares a factor with e/d, so only the inertia
        # part of the shape is certified
        m = load_manifest(quartic_manifest())
        report = verify(m, 0, 25, [Ramified(5, 0, 2, 1)], n_id=0)
        (record,) = report.records
        assert record.mode == "inertia-only"
        assert record.passed
        assert record.observed == (2, 2)

    def test_identification_summary(self):
        m = builtin_manifest("x3mt")
        report = verify(m, 0, 56, [Ramified(7, 0, 1, 1)], n_id=60, seed=0)
        ident = report.identification
        assert ident is not None
        assert ident.sampled <= 60  # n_id caps the reads; a certificate stops them
        assert ident.verdict == "ACCEPT"
        assert not ident.alien
        assert not ident.missing
        assert ident.passed
        assert report.passed

    def test_identification_deterministic(self):
        m = builtin_manifest("x3mt")
        a = verify(m, 0, 56, [], n_id=40, seed=3)
        b = verify(m, 0, 56, [], n_id=40, seed=3)
        assert a.identification == b.identification


class TestRunSearch:
    def test_flagship_end_to_end(self):
        m = builtin_manifest("psl32")
        report = run_search(m, [Ramified(7, 0, 1, 2)], n_id=0)
        assert report.s0 == 2
        assert report.t0 == Fraction(1, 7)
        assert report.s0_progression == Congruence(2, 7)
        assert report.t0_progression.congruence == Congruence(7, 49)
        assert report.passed

    def test_quadratic_end_to_end(self):
        m = builtin_manifest("x2mt")
        conditions = [
            Ramified(3, 0, 1, 1),
            Unramified(7, CycleType((1, 1))),
            Unramified(11, CycleType((2,))),
        ]
        report = run_search(m, conditions, n_id=0)
        assert report.s0 == 0
        assert report.t0 == 57
        assert report.passed

    def test_cubic_end_to_end(self):
        m = builtin_manifest("x3mt")
        conditions = [Ramified(7, 0, 1, 1), Unramified(5, CycleType((2, 1)))]
        report = run_search(m, conditions, n_id=0)
        assert report.t0 == 56
        assert report.passed

    def test_soundness_across_condition_sets(self):
        cases = [
            ("psl32", [Ramified(7, 0, 1, 1)]),
            ("psl32", [Ramified(7, 0, 1, 2), Ramified(11, 0, 1, 1)]),
            ("x2mt", [Ramified(5, 0, 1, 1), Unramified(13, CycleType((2,)))]),
            ("x3mt", [Unramified(13, CycleType((3,)))]),
        ]
        for name, conditions in cases:
            report = run_search(builtin_manifest(name), conditions, n_id=0)
            assert report.passed, (name, report.records)

    def test_s_dependent_branch_points(self):
        # branch points t = s and t = 2s are declared, so neither is part of
        # the non-rational locus that an approach must avoid
        m = load_manifest(twobranch_manifest())
        for cond in (Ramified(5, 0, 1, 1), Ramified(7, 1, 1, 2)):
            assert run_search(m, [cond], n_id=0).passed, cond

    def test_progression_members_also_pass(self):
        m = builtin_manifest("psl32")
        report = run_search(m, [Ramified(7, 0, 1, 2)], n_id=0)
        for k in (1, 2, 3, 5, 11):
            t0 = report.t0_progression.member(k)
            again = verify(m, report.s0, t0, [Ramified(7, 0, 1, 2)], n_id=0)
            assert again.passed, (k, t0)

    def test_s0_progression_members_also_pass(self):
        # members can individually fail the auxiliary-prime avoidance (the
        # progression only promises a positive-density subset), so skip the
        # ones the t-search itself refuses
        m = builtin_manifest("psl32")
        conditions = [Ramified(7, 0, 1, 2)]
        base = run_search(m, conditions, n_id=0)
        verified = 0
        for k in range(1, 20):
            if verified == 3:
                break
            s0 = base.s0_progression.residue + k * base.s0_progression.modulus
            if not nondegenerate_check(m, s0):
                continue
            try:
                _, t0 = search_t0(m, s0, conditions)
            except TargetNotFound:
                continue
            again = verify(m, s0, t0, conditions, n_id=0)
            assert again.passed, (k, s0)
            verified += 1
        assert verified == 3


class TestTameConsistencyTriangle:
    def test_flagship(self):
        m = builtin_manifest("psl32")
        bp = m.branch_points[0]
        report = verify(m, 2, Fraction(1, 7), [Ramified(7, 0, 1, 2)], n_id=0)
        (record,) = report.records
        expanded = tuple(
            sorted((e for e, f in record.observed for _ in range(f)), reverse=True)
        )
        assert expanded == power_cycle_type(bp.inertia_generator, 1).parts
        inertia = generate([bp.inertia_generator])
        sigma = parse_perm("(2 3)(6 7)", 7)
        klein = generate([bp.inertia_generator, sigma])
        assert record.observed == ef_multiset(inertia, klein)

    def test_quartic(self):
        m = load_manifest(quartic_manifest())
        bp = m.branch_points[0]
        report = verify(m, 0, 25, [Ramified(5, 0, 2, 1)], n_id=0)
        (record,) = report.records
        assert record.observed == power_cycle_type(bp.inertia_generator, 2).parts


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # any refusal: callers compare its type
        return type(exc)


class TestCensus:
    def test_rows_match_per_cell_recomputation(self):
        # branch points t = 1 and t = 2 at s0 = 1; t0 = 2 + kp meets the second
        m = load_manifest(twobranch_manifest())
        rows, bad = census(m, 1, 3, 40, 31)
        ps = primes_up_to(31)
        assert [(r.t0, r.p) for r in rows] == [(t0, p) for t0 in range(3, 41) for p in ps]
        met = set()
        for r in rows:
            if r.p in bad:
                assert r.match == "bad"
                continue
            i = 1 if (r.t0 - 2) % r.p == 0 else 0
            pred = predict_inertia(m, i, 1, r.t0, r.p)
            if isinstance(pred, InertiaPrediction):
                predicted = pred.generator_class
                met.add(pred.branch)
            else:
                predicted = CycleType((1, 1, 1, 1))
            shape = padic_shape(local_model(m, 1, r.t0, r.p), r.p)
            observed = CycleType(tuple(e for e, f in shape.pairs for _ in range(f)))
            assert (r.predicted, r.observed) == (str(predicted), str(observed)), r
            assert r.match == "true"
        assert met == {0, 1}

    def test_bound_discriminant_is_the_fibre_discriminant(self):
        # census hands spec.disc at t0 to padic._shape as disc_X of its model
        cases = [
            (builtin_manifest("x3mt"), 0),
            (builtin_manifest("x2mt"), 0),
            (builtin_manifest("psl32"), 1),
            (builtin_manifest("psl32"), 7),
            (builtin_manifest("psl32"), Fraction(3, 7)),
            (load_manifest(twobranch_manifest()), 1),
        ]
        for m, s0 in cases:
            spec = specialization(m, s0)
            for t0 in range(-30, 31):
                model = local_model(m, s0, t0, 2)
                assert spec.disc.evaluate(Fraction(t0)) == discriminant_in(model, "X"), (s0, t0)

    def test_cell_route_matches_public_shape_on_flagship(self):
        # degree-7 fibres with Fraction coefficients at s0 = 3/7
        m = builtin_manifest("psl32")
        for s0 in (1, Fraction(3, 7)):
            spec = specialization(m, s0)
            bad = {r.p for r in bad_primes(m, s0, bound=97)}
            ps = [p for p in primes_up_to(97) if p not in bad]
            for t0 in range(-20, 21):
                disc = spec.disc.evaluate(Fraction(t0))
                if disc == 0:
                    continue
                model = local_model(m, s0, t0, 2)
                for p in ps:
                    cell = _outcome(_shape, model, p, disc)
                    public = _outcome(padic_shape, local_model(m, s0, t0, p), p)
                    assert cell == public, (s0, t0, p)


class TestIdentificationSamples:
    """Exact draws of both identification modes, pinned so a change to the
    shared sampler cannot shift which fibres or primes either mode reads."""

    def test_random_fibres(self):
        assert identify(builtin_manifest("x3mt"), 0, 80, 9) == {
            "family": "x3mt", "s0": "0", "samples": 80,
            "observed": {"1^3": 13, "2.1": 40, "3": 27},
            "expected": {"1^3": "1/6", "2.1": "1/2", "3": "1/3"},
            "alien": [], "frequency_violations": [], "verdict": "ACCEPT",
        }
        assert identify(builtin_manifest("psl32"), 1, 300, 0) == {
            "family": "psl32", "s0": "1", "samples": 300,
            "observed": {"1^7": 1, "2^2.1^3": 30, "3^2.1": 99, "4.2.1": 86, "7": 84},
            "expected": {
                "1^7": "1/168", "2^2.1^3": "1/8", "3^2.1": "1/3", "4.2.1": "1/4", "7": "2/7",
            },
            "alien": [], "frequency_violations": [], "verdict": "ACCEPT",
        }

    def test_one_fibre_at_auxiliary_primes(self):
        m = builtin_manifest("psl32")
        report = verify(m, 1, Fraction(1, 11), [Ramified(11, 0, 1, 2)], n_id=300, seed=0)
        ident = report.identification
        assert ident.sampled == 5
        assert ident.counts == (
            (CycleType((2, 2, 1, 1, 1)), 1),
            (CycleType((3, 3, 1)), 2),
            (CycleType((7,)), 2),
        )
        assert ident.verdict == "ACCEPT"
        assert ident.certificate == (CycleType((2, 2, 1, 1, 1)), CycleType((7,)))
        assert ident.missing == ()
        assert ident.alien == ()


class TestIdentificationCertificate:
    """verify's identification stops at a theorem: ACCEPT once two observed
    types invariably generate the declared group, REJECT at an alien type."""

    def test_true_group_is_certified_on_every_seed(self):
        m = builtin_manifest("psl32")
        for seed in range(100):
            report = verify(m, 1, Fraction(1, 11), [Ramified(11, 0, 1, 2)], seed=seed)
            ident = report.identification
            assert ident.verdict == "ACCEPT", seed
            assert len(ident.certificate) == 2 and ident.alien == ()
            assert report.passed

    def test_overgroup_claim_is_never_certified(self):
        # every type of PSL(3,2) is even, and every pair of even types lies
        # in A7, a proper subgroup of the claimed S7
        m = builtin_manifest("psl32")
        s7 = generate([parse_perm("(1 2 3 4 5 6 7)", 7), parse_perm("(1 2)", 7)])
        claim = dataclasses.replace(m, group=s7)
        for seed in range(10):
            report = verify(claim, 1, Fraction(1, 11), [Ramified(11, 0, 1, 2)], n_id=60, seed=seed)
            ident = report.identification
            assert ident.verdict == "INCONCLUSIVE", seed
            assert ident.sampled == 60 and ident.certificate == ()
            assert not report.passed

    def test_alien_type_rejects_at_once(self):
        # x3mt's fibres realize S3; a claimed A3 sees a transposition type
        m = builtin_manifest("x3mt")
        claim = dataclasses.replace(m, group=generate([parse_perm("(1 2 3)", 3)]))
        ident = verify(claim, 0, 56, [], n_id=60, seed=0).identification
        assert ident.verdict == "REJECT"
        assert ident.alien == (CycleType((2, 1)),)
        assert dict(ident.counts)[CycleType((2, 1))] == 1  # the read stops there
        assert not ident.passed


class TestReadability:
    def test_disc_residue_matches_the_squarefree_gcd(self):
        # a fibre is readable at p exactly when degree_sequence reads it, and
        # then both routes give the same split degrees
        cases = [
            (builtin_manifest("psl32"), 1),
            (builtin_manifest("psl32"), Fraction(3, 7)),
            (builtin_manifest("x3mt"), 0),
            (load_manifest(twobranch_manifest()), 1),
        ]
        grid = [Fraction(t) for t in range(-6, 7)] + [Fraction(1, 11), Fraction(-5, 3)]
        for m, s0 in cases:
            spec = specialization(m, s0)
            ps = [p for p in primes_up_to(200) if not is_bad_prime(m, s0, p)]
            for t0 in grid:
                coeffs = x_poly_coeffs(specialize(spec.f, {"t": t0}))
                disc = spec.disc.evaluate(t0)
                for p in ps:
                    tally = _tally_fibres([(coeffs, disc, p)], 1)
                    try:
                        seq = degree_sequence(coeffs, p)
                    except (NotPIntegral, NotSquarefree):
                        assert not tally, (m.name, s0, t0, p)
                        continue
                    assert tally == {CycleType(tuple(seq)): 1}, (m.name, s0, t0, p)

"""Package-wide rules: the runtime imports only the standard library and
no concurrency machinery, binding s = s0 stays behind family and
beckmann, census validates its fibre once per t0, not per cell, the
identification sampler decides readability by one discriminant residue,
split degrees mod p are read through ffact's entry points alone,
rational roots factor no integer, both identification modes decide
by one judge, and no module factors an integer: exceptional primes are
decided by divisibility, like bad primes, and residue reads that fail
raise ffact's own exceptions.  p-adic chains stop at a bound read off the
discriminant, not at a stage cap, and integer valuations run one loop.
grunwald builds one fibre model, which census and verify both measure,
verify reads every condition by padic._shape, census reads a cell
unramified by p ∤ disc of that integral model alone, keeps no table or
memo and calls neither is_prime nor predict_any per cell, and the t-line
search reads a residue as the sampler does.  Each polynomial job has one
entry point, resultants and gcds included, every resultant reaches its
PRS with integer coefficients, and every library entry point refuses a
float.  Records are namedtuples or __slots__ classes, never
dataclasses, and keep a frozen record's semantics."""

import ast
import sys
from fractions import Fraction
from importlib import resources

import pytest

from galspec import arith, beckmann, family, ffact, grunwald, padic, permgrp, poly


def _tree(name: str):
    return ast.parse(resources.files("galspec").joinpath(name).read_text(), name)


def _called(tree) -> set:
    """Names of the functions and methods called anywhere inside tree."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def _function(file: str, name: str):
    (func,) = [
        node
        for node in ast.walk(_tree(file))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return func


def _callers(name: str) -> set:
    """Files of galspec that call a function or method called name."""
    return {
        src.name
        for src in resources.files("galspec").iterdir()
        if src.name.endswith(".py") and name in _called(ast.parse(src.read_text(), src.name))
    }


def _absolute_imports():
    """(file name, module name) for every absolute import in galspec."""
    for src in resources.files("galspec").iterdir():
        if not src.name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(src.read_text(), src.name)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield src.name, name


def test_runtime_imports_are_stdlib_or_galspec():
    outside = []
    for file, name in _absolute_imports():
        top = name.split(".")[0]
        if top != "galspec" and top not in sys.stdlib_module_names:
            outside.append(f"{file}: {name}")
    assert outside == []


def test_s_binding_stays_behind_family_and_beckmann():
    # every other module reads a bound family from beckmann.specialization
    importers = set()
    for src in resources.files("galspec").iterdir():
        if not src.name.endswith(".py") or src.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(src.read_text(), src.name)):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "integer_normalize" for alias in node.names
            ):
                importers.add(src.name)
    assert importers <= {"family.py", "beckmann.py"}


def test_no_concurrency_machinery():
    # the work is pure-Python CPU work in one thread; a pool adds code, not speed
    banned = {"concurrent", "threading", "multiprocessing"}
    found = [
        f"{file}: {name}" for file, name in _absolute_imports() if name.split(".")[0] in banned
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # a frozen dataclass cost more to build than a census cell's arithmetic,
    # and the import and class building cost every process more than a load
    found = [
        f"{file}: {name}" for file, name in _absolute_imports() if name.split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_census_calls_no_public_padic_shape():
    # census computes disc once per t0 and calls padic._shape; padic_shape
    # would redo the validation and the discriminant at every prime
    called = _called(_function("grunwald.py", "census"))
    assert "padic_shape" not in called


def test_padic_imports_no_gcd_field():
    # squarefreeness over Q is disc(f) != 0; poly's gcd would be a second route
    imported = {
        alias.name
        for node in ast.walk(_tree("padic.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "gcd_over_poly_coeffs" not in imported


def test_sampler_reads_fibres_without_a_squarefree_gcd():
    # p ∤ disc(f) decides readability; degree_sequence would add a gcd per fibre
    assert "degree_sequence" not in _called(_function("grunwald.py", "_tally_fibres"))


def test_distinct_degree_stays_in_ffact():
    # split_degrees and degree_sequence are the one reading of a split mod p
    assert _callers("distinct_degree") <= {"ffact.py"}


def test_rational_roots_factor_no_integers():
    # roots come by p-adic lifting; a divisor list would factor a0 and an
    imported = {
        alias.name
        for node in ast.walk(_tree("poly.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "factorint" not in imported
    assert not hasattr(poly, "_divisors")


def test_subgroup_lattice_scan_stays_in_permgrp():
    # the full lattice scan takes seconds at order 168; identification
    # certifies by invariable generation instead
    assert _callers("_subgroup_classes") <= {"permgrp.py"}


def test_both_identification_modes_share_one_judge():
    # verify's and identify's verdicts come from one rule; a tolerance band
    # per cycle type would be a second one
    for name in ("identify", "_identify"):
        assert "_judge" in _called(_function("grunwald.py", name)), name
    assert not hasattr(grunwald, "IDENTIFY_REL_TOL")
    assert not hasattr(grunwald, "_compare")


def test_gcd_is_one_heuristic_gcd():
    # one integer gcd per round serves every depth; the PRS serves only
    # resultants, and evaluation in s with interpolation is gone
    assert not hasattr(poly, "_evaluated_gcd") and not hasattr(poly, "_prs_gcd")
    called = _called(_function("poly.py", "gcd_over_poly_coeffs"))
    assert "_prs" not in called and "_subresultant" not in called and "gcd" in called
    # one rule decides the variables of both inputs, in both binary routes;
    # the PRS is integer-only, with no generator over polynomial coefficients
    for name in ("resultant", "gcd_over_poly_coeffs"):
        assert "_on_one_chain" in _called(_function("poly.py", name)), name
    assert not hasattr(poly, "_prs") and not hasattr(poly, "_variables")


def test_no_module_factors_an_integer():
    # exceptional primes are tested by division, as bad primes are; a
    # factorization of a manifest's integers can take minutes
    for src in resources.files("galspec").iterdir():
        if not src.name.endswith(".py"):
            continue
        tree = ast.parse(src.read_text(), src.name)
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "factorint" not in defined | imported, src.name
    assert not hasattr(beckmann, "global_exceptional")
    assert not hasattr(grunwald, "SkipResidue")


def test_padic_chains_have_no_stage_cap():
    # _decompose_face ends every chain at 2 nu <= deg(phi) * v_p(disc), read
    # off the input; a stage count bounds stages, not time
    assert not hasattr(padic, "_MAX_STEPS")
    assert beckmann._vp is arith._vp


def test_fibre_models_share_one_rescaling_and_one_readability_rule():
    # local_model's integral model, built by _rescaled, is the one census and
    # verify measure, with no chart switch; p ∤ disc h decides census's
    # direct unramified read, _check_condition reads every condition by
    # padic._shape alone, and the sampler's rule reads the search's residues
    assert not hasattr(grunwald, "_monic_model")
    assert not hasattr(grunwald, "_integral_model")
    census = _function("grunwald.py", "census")
    names = {node.id for node in ast.walk(census) if isinstance(node, ast.Name)}
    assert "_leaf_denominator" not in names
    assert "local_model" in _called(census)
    assert "local_model" in _called(_function("grunwald.py", "verify"))
    check = _called(_function("grunwald.py", "_check_condition"))
    assert "_shape" in check and not check & {"degree_sequence", "padic_shape"}
    model = _called(_function("grunwald.py", "local_model"))
    assert "_rescaled" in model and "valuation" not in model
    split = _called(_function("grunwald.py", "_split_congruence"))
    assert "degree_sequence" not in split and "_tally_fibres" in split


def test_census_builds_one_dict():
    # the bad-prime map is census's one dict: p ∤ disc g reads a cell
    # unramified at once, so a table of residue classes would only cache
    # what costs nothing to decide.  Labels did cost: printing each row's
    # two types was 17 % of a cProfiled census of x3mt, so the all-ones
    # label is printed once per call, and held in a local, not a dict
    census = _function("grunwald.py", "census")
    dicts = [node for node in ast.walk(census) if isinstance(node, (ast.Dict, ast.DictComp))]
    assert len(dicts) == 1


def test_census_cells_call_neither_is_prime_nor_predict_any(monkeypatch):
    # census draws its primes from primes_up_to and puts every prime
    # dividing the group order in the bad set, so its cells take
    # predict_any's two steps without its guards: _contacts per t0 and
    # _meet per good p.  arith's own is_prime is counted too: it is the
    # check behind arith.valuation, which padic's shapes do not call
    calls = {"is_prime": 0, "predict_any": 0, "_meet": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for module in (arith, beckmann, grunwald):
        monkeypatch.setattr(module, "is_prime", counted("is_prime", arith.is_prime))
        monkeypatch.setattr(
            module, "predict_any", counted("predict_any", beckmann.predict_any), raising=False
        )
    monkeypatch.setattr(grunwald, "_meet", counted("_meet", beckmann._meet))
    x3mt = family.builtin_manifest("x3mt")
    rows, _ = grunwald.census(x3mt, 0, -60, 60, 97)
    # t0 = 0 is a branch point; 2 and 3 divide the group order
    assert calls == {"is_prime": 0, "predict_any": 0, "_meet": 120 * 23}
    assert len(rows) == 120 * 25


def test_identify_calls_no_is_prime_per_fibre(monkeypatch):
    # identify's primes come from primes_up_to, and split_degrees builds no
    # FpField for p > deg f and one per p <= deg f, kept, so a warm call
    # checks no prime: neither arith's is_prime, behind FpField, nor one
    # of its own
    psl32 = family.builtin_manifest("psl32")
    first = grunwald.identify(psl32, 1, 300, 0)
    calls, is_prime = [], arith.is_prime

    def spy(n):
        calls.append(n)
        return is_prime(n)

    for module in (arith, ffact, beckmann, grunwald):
        monkeypatch.setattr(module, "is_prime", spy, raising=False)
    assert grunwald.identify(psl32, 1, 300, 0) == first
    assert calls == []


def test_each_polynomial_job_has_one_entry_point():
    # s is bound by specialize, a constant built by the UniPoly constructor,
    # a quotient taken by divmod or exact_div, a polygon read as its faces,
    # the Frobenius matrix applied by the ring's combine and a polynomial
    # printed by format_poly's one rule
    for owner, name in [
        (poly, "_bind_s"),
        (poly, "_scalar_like"),
        (poly.UniPoly, "const"),
        (poly.UniPoly, "monic"),
        (poly.UniPoly, "__floordiv__"),
        (poly.UniPoly, "__mod__"),
        (poly, "NewtonPolygon"),
        (family, "_s_const"),
        (family.BranchPoint, "inertia_group"),
        (ffact, "_frobenius"),
    ]:
        assert not hasattr(owner, name), name


def test_ffact_public_names_are_its_interface():
    # the trace read of split degrees sits behind split_degrees, and x^q mod
    # f is each quotient ring's xpow, so neither is a public name of its own
    names = {
        name
        for name, value in vars(ffact).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == ffact.__name__
    }
    assert names == {
        "ExtField", "FpField", "NotPIntegral", "NotSquarefree",
        "degree_sequence", "distinct_degree", "equal_degree", "factor_poly",
        "poly_add", "poly_deriv", "poly_divmod", "poly_gcd", "poly_key", "poly_mod",
        "poly_monic", "poly_mul", "poly_pow_mod", "poly_scale", "poly_sub",
        "poly_trim", "poly_xgcd", "reduce_mod_p", "roots_mod_p", "split_degrees",
        "squarefree_decomposition",
    }
    assert all(hasattr(ring, "xpow") for ring in (ffact._ListRing, ffact._FpRing))


def test_resultants_have_two_public_names():
    # interpolation in t and Kronecker substitution for s are steps of
    # resultant's one route, whatever the nesting; a public name for either
    # would be a second entry
    names = {
        name
        for name in vars(poly)
        if not name.startswith("_")
        and any(word in name.lower() for word in ("resultant", "interpol", "discriminant"))
    }
    assert names == {"resultant", "discriminant_in"}


def test_resultants_run_the_prs_over_z_alone(monkeypatch):
    # every resultant the loader, branch_locus and padic_shape take reaches
    # the subresultant PRS with integer coefficients: t is interpolated and
    # s substituted first, whatever the nesting.  Fresh loads, since
    # builtin_manifest is cached
    inputs, subresultant = [], poly._subresultant

    def spy(f, g):
        inputs.append((f, g))
        return subresultant(f, g)

    monkeypatch.setattr(poly, "_subresultant", spy)
    data = resources.files("galspec").joinpath("data")
    for name in ("psl32", "x2mt", "x3mt"):
        m = family.load_manifest(str(data.joinpath(f"{name}.json")))
        for s0 in (1, 2, 7, Fraction(3, 7)):
            if family.nondegenerate_check(m, s0):
                family.branch_locus(m.f, s0)
    X = poly.UniPoly.gen("X")
    for f, p in [(X**3 - 5, 5), (X**2 + 3 * X + 7, 3), (X**4 - 12 * X**2 + 18, 3)]:
        padic.padic_shape(f, p)
    assert len(inputs) > 20
    assert all(type(c) is int for pair in inputs for q in pair for c in q.coeffs)


def test_gcds_have_two_public_names():
    # every depth takes the one heuristic gcd inside gcd_over_poly_coeffs;
    # a public name for another route would be a second entry
    # (ffact's poly_gcd, imported for a test mod p, is not poly's)
    names = {
        name
        for name, value in vars(poly).items()
        if not name.startswith("_")
        and getattr(value, "__module__", None) == poly.__name__
        and any(word in name.lower() for word in ("gcd", "squarefree"))
    }
    assert names == {"gcd_over_poly_coeffs", "squarefree_part"}


def _float_calls():
    x2mt, x3mt = family.builtin_manifest("x2mt"), family.builtin_manifest("x3mt")
    rho = x3mt.branch_points[0].rho
    return {
        "nondegenerate_check": lambda: family.nondegenerate_check(x2mt, 0.1),
        "location_at": lambda: x2mt.branch_points[0].location_at(0.1),
        "branch_locus": lambda: family.branch_locus(x2mt.f, 0.1),
        "predict_any": lambda: beckmann.predict_any(x2mt, 0, 0.1, 5),
        "local_model": lambda: grunwald.local_model(x2mt, 0, 0.1),
        "verify": lambda: grunwald.verify(x2mt, 0, 0.1, [grunwald.Ramified(3, 0, 1)], n_id=0),
        "frobenius_in_residue_field": lambda: grunwald.frobenius_in_residue_field(rho, 0.1, 7),
        "reduce_mod_p": lambda: ffact.reduce_mod_p([0.1, 1], 7),
    }


@pytest.mark.parametrize("name", sorted(_float_calls()))
def test_entry_points_refuse_a_float(name):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        _float_calls()[name]()


def _records():
    """(class, field values) of one instance of each galspec record but
    FamilyManifest, which compares by identity."""
    x2mt = family.builtin_manifest("x2mt")
    ct, g, bp = permgrp.CycleType((2, 1)), permgrp.Perm((1, 0, 2)), x2mt.branch_points[0]
    spec = beckmann.specialization(x2mt, 0)
    cond = grunwald.Unramified(7, ct)
    return [
        (permgrp.Perm, ((1, 0, 2),)),
        (permgrp.CycleType, ((2, 1),)),
        (permgrp.PermGroup, tuple(permgrp.generate([g]))),
        (arith.Congruence, (2, 5)),
        (padic.PadicShape, (5, ((2, 1), (1, 1)))),
        (beckmann.BadPrimeReport, (5, ("BranchCollision",))),
        (beckmann.InertiaPrediction, (5, 0, 1, ct, 2)),
        (beckmann.UnramifiedPrediction, (5,)),
        (beckmann.Specialization, tuple(spec)),
        (family.BranchPoint, tuple(bp)),
        (family.BranchLocus, tuple(x2mt.locus)),
        (family.NondegeneracyReport, (Fraction(1), ())),
        (grunwald.Unramified, (7, ct)),
        (grunwald.Ramified, (7, 0, 1, 2)),
        (grunwald.TProgression, ("t", arith.Congruence(3, 7), ((7, 1),))),
        (grunwald.ConditionRecord, (cond, "unramified", (2, 1), (2, 1), True)),
        (grunwald.IdentificationSummary, (3, ((ct, 3),), (), (), "ACCEPT", (ct, ct))),
        (grunwald.SpecializationReport, (Fraction(0), Fraction(5), (), None, None, None)),
        (grunwald.CensusRow, (Fraction(0), 3, 5, "2.1", "2.1", "true")),
    ]


@pytest.mark.parametrize("cls, values", _records(), ids=lambda x: getattr(x, "__name__", ""))
def test_records_keep_frozen_value_semantics(cls, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and hash(a) == hash(b)
    field = getattr(cls, "_fields", None) or cls.__slots__
    with pytest.raises(AttributeError):
        setattr(a, field[0], getattr(b, field[0]))
    with pytest.raises(AttributeError):
        a.undeclared = 1
    if cls is permgrp.Perm:
        assert repr(a) == "Perm[(1 2)]"  # cycle notation, as it always printed
    else:
        assert repr(a).startswith(f"{cls.__name__}({field[0]}=")


def test_cycle_types_and_perms_equal_only_their_own_class():
    ct = permgrp.CycleType((1, 1))
    assert ct != (1, 1) and ct != ((1, 1),) and (1, 1) != ct
    assert list(permgrp.CycleType((1, 2))) == [2, 1]  # it iterates its parts
    assert permgrp.Perm((1, 0)) != (1, 0) and permgrp.Perm((1, 0)) != ((1, 0),)
    with pytest.raises(ValueError, match="positive"):
        permgrp.CycleType((2, 0))
    with pytest.raises(ValueError, match="bijection"):
        permgrp.Perm((0, 0, 1))


def test_validating_records_still_validate():
    assert arith.Congruence(12, 5) == arith.Congruence(2, 5)
    with pytest.raises(ValueError, match="modulus"):
        arith.Congruence(1, 0)
    assert beckmann.BadPrimeReport(5, ("BranchCollision", "BranchCollision")).reasons == (
        "BranchCollision",
    )
    with pytest.raises(ValueError, match="without a reason"):
        beckmann.BadPrimeReport(5, ())
    assert grunwald.Ramified(7, 0, 1).frobenius_target == 1
    assert grunwald.SpecializationReport(0, 5, (), None).t0_progression is None


def test_a_manifest_equals_only_itself():
    path = resources.files("galspec").joinpath("data/x2mt.json")
    m, again = family.load_manifest(path), family.load_manifest(path)
    assert m == m and m != again and hash(m) != hash(again)
    assert m != tuple(getattr(m, name) for name in m.__slots__)
    with pytest.raises(AttributeError):
        m.group = None
    assert repr(m).startswith("FamilyManifest(name='x2mt', f=")

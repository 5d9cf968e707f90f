"""Package-wide rules: the runtime imports only the standard library and
no concurrency machinery, binding s = s0 stays behind family and
beckmann, census validates its fibre once per t0, not per cell, the
identification sampler decides readability by one discriminant residue,
and split degrees mod p are read through ffact's entry points alone."""

import ast
import sys
from importlib import resources


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
                alias.name in ("_bind_s", "integer_normalize") for alias in node.names
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


def test_census_calls_no_public_padic_shape():
    # census computes disc once per t0 and calls padic._shape; padic_shape
    # would redo the validation and the discriminant at every prime
    called = _called(_function("grunwald.py", "census"))
    assert "padic_shape" not in called


def test_padic_imports_no_gcd_field():
    # squarefreeness over Q is disc(f) != 0; a gcd would be a second route
    imported = {
        alias.name
        for node in ast.walk(_tree("padic.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "gcd_field" not in imported


def test_sampler_reads_fibres_without_a_squarefree_gcd():
    # p ∤ disc(f) decides readability; degree_sequence would add a gcd per fibre
    assert "degree_sequence" not in _called(_function("grunwald.py", "_tally_fibres"))


def test_distinct_degree_stays_in_ffact():
    # split_degrees and degree_sequence are the one reading of a split mod p
    assert _callers("distinct_degree") <= {"ffact.py"}


def test_subgroup_lattice_scan_stays_in_permgrp():
    # the full lattice scan takes seconds at order 168; identification
    # certifies by invariable generation instead
    assert _callers("_subgroup_classes") <= {"permgrp.py"}

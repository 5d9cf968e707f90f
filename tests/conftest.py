"""Shared fixtures."""

import pytest


@pytest.fixture(scope="session")
def sympy():
    """sympy, imported and past its first-call set-up, so that set-up never
    lands inside a hypothesis example timed against the deadline."""
    import sympy

    X = sympy.Symbol("X")
    sympy.resultant(X**2 + sympy.Rational(1, 2), 3 * X - 1, X)
    sympy.Poly(X**3 + 2 * X + 1, X, modulus=7).factor_list()
    return sympy

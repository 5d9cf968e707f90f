"""Shared fixtures, and a time limit that makes a hang fail."""

import contextlib
import signal

import pytest

#: seconds one test, or the collection of one node, may take; the slowest
#: test takes a few.  Some loops end only because a proved bound holds (the
#: resultant's interpolation stops at its point count), so a wrong bound
#: would stall the suite rather than fail it.
LIMIT = 120


class _Expired(KeyboardInterrupt):
    """Raised by the alarm.  As a KeyboardInterrupt it passes through
    pytest's reports and hypothesis's shrinking to the hook below."""


def _expire(signum, frame):
    raise _Expired


@contextlib.contextmanager
def _time_limit():
    previous, pending = signal.signal(signal.SIGALRM, _expire), signal.alarm(LIMIT)
    try:
        yield
    except _Expired:
        pytest.exit(f"ran past {LIMIT} s; a loop whose end rests on a proved bound may not end", returncode=3)
    finally:
        signal.alarm(pending)  # a nested hook hands the outer one its alarm back
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        return (yield)


@pytest.fixture(scope="session")
def sympy():
    """sympy, imported and past its first-call set-up, so that set-up never
    lands inside a hypothesis example timed against the deadline."""
    import sympy

    X = sympy.Symbol("X")
    sympy.resultant(X**2 + sympy.Rational(1, 2), 3 * X - 1, X)
    sympy.Poly(X**3 + 2 * X + 1, X, modulus=7).factor_list()
    return sympy

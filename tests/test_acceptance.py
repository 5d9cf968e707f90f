"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a PASS line with its measurements; wall-clock budgets are
asserted where a guarantee includes one.  Reference values (Legendre
symbols, valuations, discriminants) are recomputed here with raw modular
arithmetic or sympy so the package is checked against independent routes,
not against itself.
"""

import json
import time
from fractions import Fraction
from importlib import resources
from math import comb
from random import Random

import sympy

from galspec.arith import primes_up_to
from galspec.beckmann import bad_s_residues, is_bad_prime, residue_class_bound
from galspec.cli import census, identify
from galspec.family import builtin_manifest, load_manifest
from galspec.grunwald import Ramified, Unramified, local_model, run_search, verify
from galspec.padic import padic_shape
from galspec.permgrp import CycleType, ef_multiset, generate, subgroups_with_orbit_lengths
from galspec.poly import UniPoly

KLEIN_SHAPE = ((2, 1), (2, 1), (1, 2), (1, 1))
SPLIT_SHAPE = ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1))


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol computed directly from Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_criterion_1_flagship_prime_grid():
    """Order-2 inertia at the infinite branch point of the degree-7 family:
    the measured shape is Klein or split exactly as the residue symbol of
    s0^2 - 4*s0 dictates, across 3 parameter values and 20 primes each."""
    started = time.monotonic()
    m = builtin_manifest("psl32")
    checked = 0
    for s0 in (1, 2, 3):
        good = 0
        for p in primes_up_to(500):
            if p in (2, 3, 7) or is_bad_prime(m, s0, p):
                continue
            t0 = Fraction(1, p)  # u0 = p has valuation exactly 1
            shape = padic_shape(local_model(m, s0, t0)[0], p)
            expected = KLEIN_SHAPE if legendre(s0 * s0 - 4 * s0, p) == -1 else SPLIT_SHAPE
            assert shape.pairs == expected, (s0, p, shape.pairs)
            good += 1
            checked += 1
            if good == 20:
                break
        assert good == 20, f"fewer than 20 good primes below 500 for s0 = {s0}"
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"ACCEPTANCE CRITERION 1 PASS: {checked} (s0, p) cells, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_klein_subgroup_class():
    """The scan for subgroups with orbit lengths {2,2,2,1} inside the order
    168 group finds exactly the elementary-abelian class of order 4, and the
    residue pairs over any of its involutions reproduce the Klein shape."""
    m = builtin_manifest("psl32")
    classes = subgroups_with_orbit_lengths(m.group, (2, 2, 2, 1))
    assert len(classes) == 1
    H = classes[0]
    assert H.order == 4
    assert all(g.order() <= 2 for g in H.elements)
    involutions = [g for g in H.elements if g.order() == 2]
    assert len(involutions) == 3
    for a in involutions:
        assert ef_multiset(generate([a]), H) == KLEIN_SHAPE
    print("ACCEPTANCE CRITERION 2 PASS: one class, order 4, exponent 2, Klein shape from all 3 involutions")


def test_criterion_3_census_grids():
    """Tame prediction against the measured shape over t0 in [-500, 500]
    and p <= 97 for X^2 - t and X^3 - t: every row over a good prime
    matches."""
    started = time.monotonic()
    expect_bad = {"x2mt": [2], "x3mt": [2, 3]}
    totals = {}
    for name in ("x2mt", "x3mt"):
        rows, bad = census(builtin_manifest(name), 0, -500, 500, 97)
        assert sorted(bad) == expect_bad[name]
        good = [r for r in rows if r.match != "bad"]
        assert good, "census produced no rows over good primes"
        mismatches = [r for r in good if r.match != "true"]
        assert mismatches == [], mismatches[:5]
        totals[name] = len(good)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(
        f"ACCEPTANCE CRITERION 3 PASS: {totals['x2mt']} + {totals['x3mt']} "
        f"good rows, 0 mismatches, {elapsed:.1f}s"
    )


def test_criterion_4_quadratic_conditions():
    """Searching X^2 - t for {ramified at 3, split at 7, inert at 11} finds
    a witness whose three defining properties hold under direct symbol and
    valuation computation, and stay true along the returned progression."""
    m = builtin_manifest("x2mt")
    conditions = [
        Ramified(3, 0, 1),
        Unramified(7, CycleType((1, 1))),
        Unramified(11, CycleType((2,))),
    ]
    report = run_search(m, conditions, n_id=0)
    assert report.passed

    def check_symbols(t0: Fraction):
        n = int(t0)
        assert val(n, 3) % 2 == 1  # Q(sqrt(t0)) ramifies at 3
        assert legendre(n, 7) == 1  # splits at 7
        assert legendre(n, 11) == -1  # inert at 11

    check_symbols(report.t0)
    members = Random(4).sample(range(1, 60), 5)
    for k in members:
        t0 = report.t0_progression.member(k)
        check_symbols(t0)
        assert verify(m, 0, t0, conditions, n_id=0).passed
    print(
        f"ACCEPTANCE CRITERION 4 PASS: witness t0 = {report.t0}, "
        f"progression members {sorted(members)} all verified"
    )


def test_criterion_5_residue_class_bound():
    """The bound on excluded parameter residues comes from the family's
    degree data alone, so one number caps |bad_s_residues(p)| at every
    prime; checked across 50 primes spanning [5, 10^4]."""
    m = builtin_manifest("psl32")
    bound = residue_class_bound(m)  # computed once, no prime in sight
    assert bound == 57
    ps = [p for p in primes_up_to(10_000) if p >= 5]
    picks = ps[:: max(1, len(ps) // 50)][:50]
    assert len(picks) == 50 and picks[0] == 5 and picks[-1] > 9000
    worst = 0
    for p in picks:
        k = len(bad_s_residues(m, p))
        assert k <= bound, (p, k, bound)
        worst = max(worst, k)
    print(
        f"ACCEPTANCE CRITERION 5 PASS: m = {bound}, max residue count {worst} "
        f"over primes {picks[0]}..{picks[-1]}"
    )


def _random_product_instance(rng: Random):
    """Monic f (degree <= 6) built from pieces with pairwise coprime
    reductions mod p, so the shape and disc valuation are known exactly:
    X - c, an irreducible quadratic mod p, or (X - c)^e - p*u with p
    not dividing e."""
    tame = [p for p in primes_up_to(100) if p > 2]
    p = rng.choice(tame)
    budget = rng.randint(1, min(6, p))
    centers = iter(rng.sample(range(p), k=min(p, 6)))
    quads_seen = set()
    pieces, expected, disc_val = [], [], 0
    while budget:
        d = rng.randint(1, budget)
        if d == 1:
            c = next(centers)
            pieces.append([Fraction(-c), Fraction(1)])
            expected.append((1, 1))
        elif d == 2 and rng.random() < 0.5:
            while True:
                b, c = rng.randrange(p), rng.randrange(p)
                if (b, c) not in quads_seen and legendre(b * b - 4 * c, p) == -1:
                    quads_seen.add((b, c))
                    break
            pieces.append([Fraction(c), Fraction(b), Fraction(1)])
            expected.append((1, 2))
        else:
            if d % p == 0:
                continue  # that piece would be wild at p; redraw
            c = next(centers)
            u = rng.randrange(1, p)
            piece = [Fraction(comb(d, j) * (-c) ** (d - j)) for j in range(d + 1)]
            piece[0] -= p * u
            pieces.append(piece)
            expected.append((d, 1))
            disc_val += d - 1
        budget -= d
    coeffs = [Fraction(1)]
    for piece in pieces:
        out = [Fraction(0)] * (len(coeffs) + len(piece) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(piece):
                out[i + j] += a * b
        coeffs = out
    return p, coeffs, tuple(sorted(expected, reverse=True)), disc_val


def test_criterion_6_shape_degree_and_discriminant():
    """500 randomized tame instances: the measured (e, f) pairs sum to the
    degree, equal the construction's pairs, and account for the full
    discriminant valuation (computed by sympy, not by this package)."""
    rng = Random(20260818)
    X = sympy.symbols("X")
    for _ in range(500):
        p, coeffs, expected, disc_val = _random_product_instance(rng)
        shape = padic_shape(UniPoly(coeffs, "X"), p)
        n = len(coeffs) - 1
        assert sum(e * f for e, f in shape.pairs) == n
        assert shape.pairs == expected, (p, coeffs)
        if n >= 2:
            disc = int(sympy.discriminant(sum(int(c) * X**j for j, c in enumerate(coeffs)), X))
            assert val(disc, p) == disc_val, (p, coeffs)
    print("ACCEPTANCE CRITERION 6 PASS: 500 instances, shape, degree and disc valuation all exact")


def test_criterion_7_group_identification():
    """300 sampled fibers of the degree-7 family show every one of the five
    cycle types of the order-168 group at its Chebotarev frequency (within
    50% relative error), while a manifest claiming S7 is rejected."""
    expected = {
        "1^7": Fraction(1, 168),
        "2^2.1^3": Fraction(1, 8),
        "3^2.1": Fraction(1, 3),
        "4.2.1": Fraction(1, 4),
        "7": Fraction(2, 7),
    }
    m = builtin_manifest("psl32")
    result = identify(m, 1, 300, seed=0)
    assert result["verdict"] == "ACCEPT"
    assert sorted(result["observed"]) == sorted(expected)
    for label, frac in expected.items():
        want = float(frac) * 300
        got = result["observed"][label]
        assert abs(got - want) <= 0.5 * want, (label, got, want)

    raw = json.loads(
        resources.files("galspec").joinpath("data/psl32.json").read_text()
    )
    raw["group_generators"] = ["(1 2)", "(1 2 3 4 5 6 7)"]
    raw["name"] = "s7claim"
    control = identify(load_manifest(raw), 1, 300, seed=0)
    assert control["verdict"] == "REJECT"
    assert control["frequency_violations"]
    print(
        "ACCEPTANCE CRITERION 7 PASS: all 5 types in tolerance "
        f"{dict(sorted(result['observed'].items()))}; S7 claim rejected"
    )

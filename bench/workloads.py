"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload builds its state in ``setup`` (timed, repeated), fills lazy
caches in ``warm`` (untimed), and hands out sessions: session k is a list of
operations drawn from ``Random(f"{seed}/{k}")``, so a seed fixes every input
and sessions never repeat one another.  Each operation is a call into
galspec, timed alone, and a check that judges its result by a route other
than the one timed, wherever such a route exists.

A check returns a Verdict.  ``ok`` is False when the operation's verdict is
wrong or refused; ``wrong`` is True only when a theorem-level output (a
p-adic shape, a census match, a cycle type outside the group) contradicts
the independent route.  Statistical verdicts that go against the true group
and raised exceptions count as failed, not as wrong.

``known`` marks a failure as one of the two known psl32 defects (ROADMAP
item 3): a statistical identification that rejects the true group, and a
census fibre whose t0 meets a non-rational branch point, which raises
ValueError (an Op's ``known_raise``).  Such a failure still counts against
``ok``; it is only told apart from failures nobody expects.
"""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb, gcd
from random import Random
from typing import Callable, Optional

from galspec import beckmann, cli, family, grunwald, padic, poly
from galspec.arith import primes_up_to

KLEIN_SHAPE = ((2, 1), (2, 1), (1, 2), (1, 1))
SPLIT_SHAPE = ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1))
PSL32_ORDER_PRIMES = (2, 3, 7)  # |PSL(3,2)| = 168 = 2^3 * 3 * 7
CENSUS_P_MAX = 97
CENSUS_PRIMES = len(primes_up_to(CENSUS_P_MAX))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    rows: int = 0
    known: bool = False


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable
    check: Callable
    known_raise: Optional[Callable] = None


def _non_rational_fibre(exc: Exception) -> bool:
    """The known census defect: the fibre's t0 meets a non-rational branch
    point, for which the manifest declares no inertia generator."""
    return isinstance(exc, ValueError) and "meets a non-rational branch point" in str(exc)


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def manifest_path(name: str) -> str:
    return str(resources.files("galspec").joinpath(f"data/{name}.json"))


def check_census(rows, t_count: int) -> Verdict:
    """Every row over a good prime matches; each fibre has one row per prime
    (a fibre exactly on a branch point has none)."""
    wrong = any(r.match == "false" for r in rows)
    by_t = {}
    for r in rows:
        by_t[r.t0] = by_t.get(r.t0, 0) + 1
    shaped = len(by_t) <= t_count and all(n == CENSUS_PRIMES for n in by_t.values())
    ok = not wrong and shaped and all(r.match in ("true", "bad") for r in rows)
    return Verdict(ok, wrong, len(rows))


class Workload:
    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int) -> Random:
        return Random(f"{self.seed}/{k}")

    def setup(self):
        raise NotImplementedError

    def warm(self, state) -> None:
        pass

    def session(self, state, k: int) -> list:
        raise NotImplementedError


class CensusCubic(Workload):
    """cli.census on X^3 - t (s0 = 0, p <= 97), one operation per t0 block."""

    T_RANGE = 10_000

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.block = 2 if smoke else 10
        self.ops = 2 if smoke else 20

    def setup(self):
        return family.load_manifest(manifest_path("x3mt"))

    def warm(self, m) -> None:
        beckmann.bad_primes(m, 0, bound=CENSUS_P_MAX)

    def session(self, m, k):
        rng = self.rng(k)
        ops = []
        for _ in range(self.ops):
            lo = rng.randrange(-self.T_RANGE, self.T_RANGE)
            hi = lo + self.block - 1
            ops.append(Op(
                "census",
                lambda lo=lo, hi=hi: cli.census(m, 0, lo, hi, CENSUS_P_MAX),
                lambda out, n=self.block: _check_cubic(out, n),
            ))
        return ops


def _check_cubic(out, t_count: int) -> Verdict:
    rows, bad = out
    v = check_census(rows, t_count)
    # 2 and 3 divide |S3| = 6; no other prime is bad for X^3 - t at s0 = 0
    return Verdict(v.ok and sorted(bad) == [2, 3], v.wrong, v.rows)


class FlagshipPsl32(Workload):
    """A psl32 session: a fresh manifest load, then a seeded mix of queries."""

    S0_POOL = (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13)
    SEARCH_PRIMES = tuple(p for p in primes_up_to(47) if p >= 11)
    VERIFY_PRIMES = tuple(p for p in primes_up_to(200) if p >= 11)
    N_ID = 300  # the CLI default for search and verify
    SAMPLES = 300  # the CLI default for identify

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.s0s = self.S0_POOL[:1] if smoke else self.S0_POOL
        self.cells = 1 if smoke else 3
        # identification-heavy queries: identify, verify_id, run_search_id
        self.heavy = (1, 1, 0) if smoke else (10, 2, 1)

    def setup(self):
        return family.load_manifest(manifest_path("psl32"))

    def warm(self, m) -> None:
        # fill beckmann's certificate cache for every s0 a session can touch,
        # and fix the verify primes: good, and not dividing s0^2 - 4 s0
        self.good = {}
        for s0 in self.s0s:
            beckmann.bad_primes(m, s0, bound=CENSUS_P_MAX)
            self.good[s0] = [
                p for p in self.VERIFY_PRIMES
                if (s0 * s0 - 4 * s0) % p and not beckmann.is_bad_prime(m, s0, p)
            ]
        for p in self.SEARCH_PRIMES:
            for frob in (1, 2):
                grunwald.run_search(m, [grunwald.Ramified(p, 0, 1, frob)], n_id=0)

    def _verify(self, m, rng, s0, n_id) -> Op:
        p = rng.choice(self.good[s0])
        sym = legendre(s0 * s0 - 4 * s0, p)
        cond = grunwald.Ramified(p, 0, 1, 2 if sym == -1 else 1)
        seed = rng.randrange(10**6)
        return Op(
            "verify" if n_id == 0 else "verify_id",
            lambda: grunwald.verify(m, s0, Fraction(1, p), [cond], n_id=n_id, seed=seed),
            lambda rep: _check_report(rep, sym),
        )

    def session(self, m, k):
        """Cheap queries at every s0 of the pool (so the census failure rate
        is not at the mercy of which s0 a session drew), then the
        identification-heavy queries at a few seeded s0."""
        rng = self.rng(k)
        ops = []
        expected_points = m.squarefree_disc.degree()
        for s0 in rng.sample(self.s0s, len(self.s0s)):
            ops.append(Op(
                "branch_locus",
                lambda s0=s0: family.branch_locus(m.f, s0),
                lambda loc: _check_locus(loc, expected_points),
            ))
            ops.append(Op(
                "bad_primes",
                lambda s0=s0: beckmann.bad_primes(m, s0, bound=1000),
                _check_bad_primes,
            ))
            ops.append(self._verify(m, rng, s0, 0))
            for _ in range(self.cells):
                t0 = rng.randint(-100, 100)
                ops.append(Op(
                    "census",
                    lambda s0=s0, t0=t0: cli.census(m, s0, t0, t0, CENSUS_P_MAX),
                    lambda out: check_census(out[0], 1),
                    _non_rational_fibre,
                ))
        n_identify, n_verify_id, n_search_id = self.heavy
        for s0 in rng.choices(self.s0s, k=n_identify):
            seed = rng.randrange(10**6)
            ops.append(Op(
                "identify",
                lambda s0=s0, seed=seed: cli.identify(m, s0, self.SAMPLES, seed),
                _check_identify,
            ))
        for s0 in rng.choices(self.s0s, k=n_verify_id):
            ops.append(self._verify(m, rng, s0, self.N_ID))
        for n_id in (0,) + (self.N_ID,) * n_search_id:
            p = rng.choice(self.SEARCH_PRIMES)
            cond = grunwald.Ramified(p, 0, 1, rng.choice((1, 2)))
            seed = rng.randrange(10**6)
            ops.append(Op(
                "run_search" if n_id == 0 else "run_search_id",
                lambda cond=cond, n_id=n_id, seed=seed: grunwald.run_search(
                    m, [cond], n_id=n_id, seed=seed
                ),
                lambda rep, p=p: _check_report(
                    rep, legendre(int(rep.s0) ** 2 - 4 * int(rep.s0), p)
                ),
            ))
        return ops


def _check_locus(locus, expected_points: int) -> Verdict:
    # nondegenerate s0 keeps the generic number of finite branch points,
    # and the declared branch point at infinity stays visible
    n = len(locus.points) + locus.residual.degree()
    return Verdict(locus.infinity and n == expected_points)


def _check_bad_primes(reports) -> Verdict:
    reasons = {r.p: r.reasons for r in reports}
    missing = [
        p for p in PSL32_ORDER_PRIMES if "DividesGroupOrder" not in reasons.get(p, ())
    ]
    return Verdict(not missing, wrong=bool(missing))


def _check_report(rep, sym: int) -> Verdict:
    """Order-2 inertia over t = infinity at contact 1: the shape is Klein
    when s0^2 - 4 s0 is a non-residue mod p, split otherwise."""
    (record,) = rep.records
    expected = KLEIN_SHAPE if sym == -1 else SPLIT_SHAPE
    right_shape = record.observed == expected
    wrong = not right_shape or not record.passed
    ident = rep.identification
    if ident is not None and ident.alien:
        wrong = True  # a splitting type outside the group is impossible
    # the conditions hold, and only the statistical identification missed a
    # type of the true group
    known = not wrong and ident is not None and not ident.passed
    return Verdict(rep.passed and not wrong, wrong, known=known)


def _check_identify(result) -> Verdict:
    accepted = result["verdict"] == "ACCEPT"
    alien = bool(result["alien"])
    # REJECT without an alien type: a frequency strayed from the true group's
    return Verdict(accepted, wrong=alien, known=not accepted and not alien)


# -- p-adic shapes --------------------------------------------------------------

# each piece is monic and integral, and the pieces of one polynomial have
# pairwise coprime reductions mod p, so the Q_p shape of the product is the
# union of the pieces' shapes (Hensel); every template has a piece whose
# reduction is not squarefree, so padic_shape must take the exact path
TEMPLATES = (
    ("tower", "split", "lin", "lin"),
    ("schoenemann", "eisenstein", "quad", "lin"),
    ("tower", "split", "quad"),
    ("split4", "eisenstein", "quad", "lin"),
)
SHAPE_PRIMES = tuple(p for p in primes_up_to(97) if p >= 11)


def _mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _shifted_power(c: int, e: int) -> list:
    """(X - c)^e, ascending coefficients."""
    return [comb(e, j) * (-c) ** (e - j) for j in range(e + 1)]


def _minus_const(a: list, k: int) -> list:
    return [a[0] - k] + a[1:]


class _Pieces:
    """Draws pieces with distinct centers and distinct irreducible quadratics."""

    def __init__(self, rng: Random, p: int):
        self.rng, self.p = rng, p
        self.centers = iter(rng.sample(range(p), 8))
        self.quads = set()

    def unit(self) -> int:
        return self.rng.randrange(1, self.p)

    def quad(self) -> list:
        p = self.p
        while True:
            b, c = self.rng.randrange(p), self.rng.randrange(p)
            if (b, c) not in self.quads and legendre(b * b - 4 * c, p) == -1:
                self.quads.add((b, c))
                return [c, b, 1]

    def build(self, kind: str):
        """(coefficients, expected (e, f) pairs) of one piece."""
        p, rng = self.p, self.rng
        if kind == "lin":
            return [-next(self.centers), 1], [(1, 1)]
        if kind == "quad":
            return self.quad(), [(1, 2)]
        if kind == "eisenstein":
            # (X - c)^e - p^k u with gcd(e, k) = 1: totally ramified, index e
            e = rng.choice((2, 3))
            k = rng.choice([k for k in (1, 2, 4, 5) if gcd(k, e) == 1])
            return _minus_const(_shifted_power(next(self.centers), e), p**k * self.unit()), [(e, 1)]
        if kind in ("split", "split4"):
            # (X - c)^(2m) - p^(2j) u, gcd(m, j) = 1: the residual polynomial
            # y^2 - u splits or not with the residue symbol of u
            m = 1 if kind == "split" else 2
            j = rng.choice((1, 3)) if m == 2 else rng.choice((1, 2))
            u = self.unit()
            coeffs = _minus_const(_shifted_power(next(self.centers), 2 * m), p ** (2 * j) * u)
            pairs = [(m, 1), (m, 1)] if legendre(u, p) == 1 else [(m, 2)]
            return coeffs, pairs
        if kind == "schoenemann":
            # q^e - p u with q irreducible mod p: one factor with (e, deg q)
            e = 2
            return _minus_const(_pow(self.quad(), e), p * self.unit()), [(e, 2)]
        if kind == "tower":
            # ((X - c)^e1 - p u)^e2 - p^k w with gcd(e1, e2) = gcd(k, e2) = 1
            # and k > e2: two augmentation stages, totally ramified of index
            # e1 * e2
            e1, e2 = rng.choice(((2, 3), (3, 2)))
            k = rng.choice([k for k in range(e2 + 1, e2 + 4) if gcd(k, e2) == 1])
            inner = _minus_const(_shifted_power(next(self.centers), e1), p * self.unit())
            return _minus_const(_pow(inner, e2), p**k * self.unit()), [(e1 * e2, 1)]
        raise ValueError(kind)


def shape_instance(rng: Random, template: tuple):
    """(p, ascending integer coefficients, expected sorted (e, f) pairs)."""
    p = rng.choice(SHAPE_PRIMES)
    pieces = _Pieces(rng, p)
    coeffs, pairs = [1], []
    for kind in template:
        c, pr = pieces.build(kind)
        coeffs = _mul(coeffs, c)
        pairs.extend(pr)
    return p, coeffs, tuple(sorted(pairs, reverse=True))


class Shapes(Workload):
    """padic.padic_shape alone on constructed polynomials of known shape.

    Set-up builds one session's inputs as galspec polynomials: the
    integer-to-UniPoly conversion a library caller pays before any shape.
    """


    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.ops = len(TEMPLATES) if smoke else 24

    def instances(self, k: int) -> list:
        rng = self.rng(k)
        return [
            shape_instance(rng, TEMPLATES[i % len(TEMPLATES)]) for i in range(self.ops)
        ]

    def setup(self):
        return [
            (p, poly.UniPoly([Fraction(c) for c in coeffs], "X"), pairs)
            for p, coeffs, pairs in self.instances(0)
        ]

    def session(self, first, k):
        built = first if k == 0 else [
            (p, poly.UniPoly([Fraction(c) for c in coeffs], "X"), pairs)
            for p, coeffs, pairs in self.instances(k)
        ]
        return [
            Op(
                "padic_shape",
                lambda f=f, p=p: padic.padic_shape(f, p),
                lambda shape, pairs=pairs, n=f.degree(): Verdict(
                    shape.pairs == pairs and sum(e * r for e, r in pairs) == n,
                    wrong=shape.pairs != pairs,
                    rows=1,
                ),
            )
            for p, f, pairs in built
        ]


WORKLOADS = {
    "census-cubic": CensusCubic,
    "flagship-psl32": FlagshipPsl32,
    "shapes": Shapes,
}

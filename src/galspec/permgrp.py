"""Small permutation groups: closure, cycle data, subgroups, (e, f) orbits.

Everything here is designed for groups of order a few hundred acting on a
handful of points: elements are enumerated outright, subgroups are found by
breadth-first closure, and conjugacy is tested by exhaustive conjugation.
The one domain-specific operation is ef_multiset, which turns a pair
(inertia subgroup, decomposition subgroup) acting on polynomial roots into
the multiset of (ramification index, residue degree) pairs that the
corresponding local factors must exhibit; it is the group-theoretic side
of the comparison that the p-adic engine checks analytically.

Permutations are written in cycle notation on points 1..n ("(1 2)(3 4)");
internally images are 0-based tuples.  Products compose right-to-left:
(g * h)(x) = g(h(x)).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class CapExceeded(Exception):
    """Closure passed the element cap; carries the partial count."""

    def __init__(self, partial: int, cap: int):
        super().__init__(f"closure passed {partial} elements (cap {cap})")
        self.partial = partial
        self.cap = cap


class _Record:
    """Base of the __slots__ records: each field is set once, in __init__,
    and assignment or deletion afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Perm(_Record):
    """Bijection on {1..n}; images[i] is the 0-based image of point i.
    Equal and hashed by images, and equal only to a Perm."""

    __slots__ = ("images",)

    def __init__(self, images: tuple):
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection")
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is not Perm:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, cycles, n: int) -> "Perm":
        """Build from 1-based cycles like [(1, 2), (3, 4)]."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            for pt in cyc:
                if not 1 <= pt <= n:
                    raise ValueError(f"point {pt} outside 1..{n}")
                if pt in seen:
                    raise ValueError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b - 1
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if len(other.images) != len(self.images):
            raise ValueError("degree mismatch")
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Perm":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Perm(tuple(out))

    def __pow__(self, k: int) -> "Perm":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Perm.identity(len(self.images))
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self) -> list:
        """Nontrivial cycles as 1-based tuples, each starting at its
        smallest point, sorted by that point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = []
            pt = start
            while not seen[pt]:
                seen[pt] = True
                cyc.append(pt + 1)
                pt = self.images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Perm[{self}]"


def parse_perm(text: str, n: int) -> Perm:
    """Cycle notation on 1..n; "()" is the identity, fixed points implied."""
    stripped = text.replace(",", " ").strip()
    if stripped in ("()", ""):
        return Perm.identity(n)
    cycles = []
    rest = stripped
    while rest:
        rest = rest.lstrip()
        if not rest:
            break
        if rest[0] != "(":
            raise ValueError(f"expected '(' in permutation {text!r}")
        close = rest.find(")")
        if close < 0:
            raise ValueError(f"unbalanced parentheses in {text!r}")
        body = rest[1:close].split()
        if not body:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            cycles.append(tuple(int(tok) for tok in body))
        except ValueError:
            raise ValueError(f"non-integer point in {text!r}") from None
        rest = rest[close + 1 :]
    return Perm.from_cycles(cycles, n)


class CycleType(_Record):
    """Partition of the degree; parts sorted descending.  Equal and hashed
    by parts, and equal only to a CycleType: iterating one yields its parts,
    so it is not a tuple of its fields."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted(parts, reverse=True))
        if parts and parts[-1] < 1:
            raise ValueError("cycle lengths must be positive")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is not CycleType:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def degree(self) -> int:
        return sum(self.parts)

    def __str__(self):
        out = []
        for length in sorted(set(self.parts), reverse=True):
            k = self.parts.count(length)
            out.append(f"{length}^{k}" if k > 1 else str(length))
        return ".".join(out) if out else "-"

    def __iter__(self):
        return iter(self.parts)


def cycle_type(g: Perm) -> CycleType:
    moved = [len(c) for c in g.cycles()]
    fixed = g.degree - sum(moved)
    return CycleType(tuple(moved) + (1,) * fixed)


def power_cycle_type(g: Perm, k: int) -> CycleType:
    """The class of g^k: an l-cycle of g is gcd(l, k) cycles of length l / gcd(l, k)."""
    pairs = [(length, gcd(length, k)) for length in cycle_type(g).parts]
    return CycleType(tuple(length // d for length, d in pairs for _ in range(d)))


# -- enumeration --------------------------------------------------------------


def _closure_tuples(gens: list, n: int, cap: int) -> set:
    """Closure of image tuples under composition; raises past the cap."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = tuple(g[j] for j in h)
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(len(seen) + 1, cap)
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


class PermGroup(namedtuple("PermGroup", "degree generators elements")):
    """Fully enumerated group; elements canonically sorted."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return isinstance(g, Perm) and g in set(self.elements)

    def orbits(self) -> tuple:
        """Orbit partition of 1..degree as sorted tuples of points."""
        remaining = set(range(self.degree))
        out = []
        while remaining:
            start = min(remaining)
            orbit = {start}
            frontier = [start]
            while frontier:
                pt = frontier.pop()
                for g in self.elements:
                    img = g.images[pt]
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            remaining -= orbit
            out.append(tuple(sorted(p + 1 for p in orbit)))
        return tuple(out)

    def orbit_lengths(self) -> tuple:
        return tuple(sorted((len(o) for o in self.orbits()), reverse=True))

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"<{gens}> of order {self.order} on {self.degree} points"


def generate(gens: list, cap: int = 20160) -> PermGroup:
    """Enumerate the group the generators produce; error past the cap."""
    if not gens:
        raise ValueError("at least one generator (possibly the identity)")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators act on different point counts")
    tuples = _closure_tuples([g.images for g in gens], n, cap)
    elements = tuple(Perm(t) for t in sorted(tuples))
    return PermGroup(n, tuple(gens), elements)


# -- class data ---------------------------------------------------------------


def fingerprint(G: PermGroup) -> dict:
    """Fraction of elements per cycle type; a conjugation-stable signature."""
    tally = {}
    for g in G.elements:
        ct = cycle_type(g)
        tally[ct] = tally.get(ct, 0) + 1
    return {ct: Fraction(k, G.order) for ct, k in tally.items()}


def invariably_generates(G: PermGroup, lam: CycleType, mu: CycleType) -> bool:
    """True when <x, y> = G for every x of cycle type lam and y of type mu.

    Then any subgroup of G holding an element of each type is G itself.
    x runs over one representative per G-class of type lam, y over every
    element of type mu; conjugating a pair by G covers the rest.  A closure
    that passes |G| / 2 elements is G; the first closure that completes is
    a proper subgroup and settles the answer as False.
    """
    def of_type(ct):
        return [g.images for g in G.elements if cycle_type(g) == ct]

    reps, covered = [], set()
    for x in of_type(lam):
        if x not in covered:
            reps.append(x)
            covered.update(
                tuple(g.images[x[j]] for j in g.inverse().images) for g in G.elements
            )
    ys = of_type(mu)
    if not reps or not ys:
        return False
    for x in reps:
        for y in ys:
            try:
                _closure_tuples([x, y], G.degree, G.order // 2)
            except CapExceeded:
                continue
            return False
    return True


def require_normal_inertia(I: PermGroup, D0: PermGroup) -> None:
    """Raise ValueError unless the inertia group I is a normal subgroup of
    the decomposition group D0."""
    i_set = set(I.elements)
    if not i_set <= set(D0.elements):
        raise ValueError(
            "inertia subgroup not contained in decomposition group: "
            "some element lies outside it"
        )
    for d in D0.generators:
        dinv = d.inverse()
        if any(d * g * dinv not in i_set for g in I.elements):
            raise ValueError("inertia subgroup not normal in decomposition group")


def ef_multiset(I: PermGroup, D0: PermGroup) -> tuple:
    """(e, f) pairs of the local factors predicted by an inertia subgroup I
    inside a decomposition subgroup D0 acting on the roots.

    Each D0-orbit corresponds to one local factor: its I-suborbits all have
    a common size e (ramification index) and their number f is the residue
    degree.  Requires I normal in D0 with cyclic quotient, the tame local
    picture; inconsistent inputs raise rather than guess.
    """
    if I.degree != D0.degree:
        raise ValueError("inertia and decomposition act on different points")
    require_normal_inertia(I, D0)

    def joins_to_whole(d: Perm) -> bool:
        gens = [g.images for g in I.elements] + [d.images]
        try:
            return len(_closure_tuples(gens, D0.degree, D0.order)) == D0.order
        except CapExceeded:
            return False

    if not any(joins_to_whole(d) for d in D0.elements):
        raise ValueError("decomposition quotient by inertia is not cyclic")

    # I lies inside D0, so each I-orbit lies inside one D0-orbit
    suborbits = I.orbits()
    out = []
    for orbit in D0.orbits():
        sizes = [len(sub) for sub in suborbits if sub[0] in orbit]
        if len(set(sizes)) != 1:
            raise ValueError(
                f"inertia suborbits of sizes {sorted(sizes)} inside one "
                "decomposition orbit; subgroup data is inconsistent"
            )
        out.append((sizes[0], len(sizes)))
    return tuple(sorted(out, reverse=True))


# -- subgroup scan ------------------------------------------------------------


@lru_cache(maxsize=8)
def _subgroup_classes(G: PermGroup) -> tuple:
    """All subgroups up to G-conjugacy, as frozensets of image tuples.

    Breadth-first over the subgroup lattice: every subgroup arises from a
    conjugacy-class representative by adjoining one more element, so the
    scan that extends each representative by every group element and dedups
    whole conjugacy classes visits them all.
    """
    n = G.degree
    all_tuples = [g.images for g in G.elements]
    ident = tuple(range(n))
    trivial = frozenset([ident])

    def conjugates(sub: frozenset) -> set:
        out = set()
        for t in all_tuples:
            tinv = [0] * n
            for i, j in enumerate(t):
                tinv[j] = i
            out.add(
                frozenset(tuple(t[h[tinv[i]]] for i in range(n)) for h in sub)
            )
        return out

    seen = conjugates(trivial)
    reps = [trivial]
    queue = [trivial]
    while queue:
        base = queue.pop()
        for t in all_tuples:
            if t in base:
                continue
            sub = frozenset(
                _closure_tuples([*(h for h in base), t], n, G.order + 1)
            )
            if sub in seen:
                continue
            seen |= conjugates(sub)
            reps.append(sub)
            queue.append(sub)
    return tuple(reps)


def _group_from_tuples(sub: frozenset, n: int) -> PermGroup:
    elements = tuple(Perm(t) for t in sorted(sub))
    gens = []
    have = {tuple(range(n))}
    for g in elements:
        if g.images in have:
            continue
        gens.append(g)
        have = _closure_tuples([h.images for h in gens], n, len(sub) + 1)
        if len(have) == len(sub):
            break
    if not gens:
        gens = [Perm.identity(n)]
    return PermGroup(n, tuple(gens), elements)


def subgroups_with_orbit_lengths(G: PermGroup, lengths) -> list:
    """Conjugacy-class representatives whose orbit partition is `lengths`.

    Full lattice scan, so the group order is capped at 2000.
    """
    if G.order > 2000:
        raise ValueError(f"order {G.order} too large for a full subgroup scan")
    target = tuple(sorted(lengths, reverse=True))
    if sum(target) != G.degree:
        raise ValueError("orbit lengths must partition the degree")
    out = []
    for sub in _subgroup_classes(G):
        H = _group_from_tuples(sub, G.degree)
        if H.orbit_lengths() == target:
            out.append(H)
    out.sort(key=lambda H: (H.order, [g.images for g in H.elements]))
    return out

"""Permutation layer: cycle notation, closure, class data, (e, f) orbits.

The degree-7 simple group of order 168 is rebuilt from 3x3 matrices over
F_2 inside the tests, so the frozen generator strings and class counts
are checked against an independent construction, not against themselves.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galspec.family import builtin_manifest
from galspec.permgrp import (
    CapExceeded,
    CycleType,
    Perm,
    PermGroup,
    cycle_type,
    ef_multiset,
    fingerprint,
    generate,
    invariably_generates,
    parse_perm,
    power_cycle_type,
    subgroups_with_orbit_lengths,
)

# frozen degree-7 generators of the simple group of order 168, acting on
# the nonzero vectors of F_2^3 numbered by binary value (rederived below)
PSL_GENS = ("(1 5 7 6 3 4 2)", "(2 6)(3 7)")
# an involution and a partner generating a Klein four group whose orbits
# on the seven points have lengths 2, 2, 2, 1
PSL_TAU = "(4 5)(6 7)"
PSL_SIGMA = "(2 3)(6 7)"


def p(text, n=7):
    return parse_perm(text, n)


def grp(*texts, n=7):
    return generate([p(t, n) for t in texts])


def psl32():
    return grp(*PSL_GENS)


class TestPermBasics:
    def test_roundtrip(self):
        for text in ["(1 2)(3 4)", "(2 6)(3 7)", "(1 5 7 6 3 4 2)", "()"]:
            assert str(p(text)) == text

    def test_commas_accepted(self):
        assert p("(1, 2)(3, 4)") == p("(1 2)(3 4)")

    def test_apply(self):
        g = p("(1 2 3)", n=5)
        assert [g(i) for i in range(1, 6)] == [2, 3, 1, 4, 5]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            p("(1 2)(2 3)")
        with pytest.raises(ValueError):
            p("(1 8)")
        with pytest.raises(ValueError):
            p("(1 2")
        with pytest.raises(ValueError):
            p("( )")
        with pytest.raises(ValueError):
            p("(1 x)")

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_compose_right_to_left(self):
        g, h = p("(1 2)", n=3), p("(2 3)", n=3)
        assert str(g * h) == "(1 2 3)"

    def test_inverse_and_power(self):
        g = p("(1 2 3)", n=3)
        assert str(g.inverse()) == "(1 3 2)"
        assert g**-1 == g.inverse()
        assert g**0 == Perm.identity(3)
        assert g**2 == g * g

    def test_order(self):
        assert p("(1 2)(3 4 5)", n=5).order() == 6
        assert Perm.identity(4).order() == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            p("(1 2)", n=3) * p("(1 2)", n=4)


class TestCycleType:
    def test_frozen_types(self):
        assert cycle_type(Perm.identity(7)).parts == (1,) * 7
        assert cycle_type(p("(1 2)(3 4)")).parts == (2, 2, 1, 1, 1)
        assert cycle_type(p("(1 2 3 4 5 6 7)")).parts == (7,)
        assert cycle_type(p("(1 2 3 4)(5 6)")).parts == (4, 2, 1)

    def test_str(self):
        assert str(cycle_type(Perm.identity(7))) == "1^7"
        assert str(cycle_type(p("(1 2)(3 4)"))) == "2^2.1^3"
        assert str(cycle_type(p("(1 2 3 4 5 6 7)"))) == "7"
        assert str(cycle_type(p("(1 2 3 4)(5 6)"))) == "4.2.1"

    def test_normalization(self):
        assert CycleType((1, 2, 2, 1, 1)) == CycleType((2, 2, 1, 1, 1))
        assert CycleType((3, 3, 1)).degree() == 7
        with pytest.raises(ValueError):
            CycleType((2, 0))

    def test_powers(self):
        g7 = p("(1 2 3 4 5 6 7)")
        assert power_cycle_type(g7, 3).parts == (7,)
        assert power_cycle_type(g7, 7).parts == (1,) * 7
        g = p("(1 2 3 4)(5 6)")
        assert power_cycle_type(g, 2).parts == (2, 2, 1, 1, 1)
        assert power_cycle_type(g, -1) == cycle_type(g)

    @pytest.mark.parametrize("name", ["psl32", "x2mt", "x3mt"])
    def test_powers_read_from_cycle_lengths(self, name):
        # an l-cycle of g is gcd(l, k) cycles of length l / gcd(l, k) in g^k
        for g in builtin_manifest(name).group.elements:
            bound = 2 * g.order()
            for k in range(-bound, bound + 1):
                assert power_cycle_type(g, k) == cycle_type(g**k), (str(g), k)


class TestGenerate:
    def test_symmetric_three(self):
        G = grp("(1 2)", "(1 2 3)", n=3)
        assert G.order == 6

    def test_klein_with_fixed_points(self):
        G = grp("(1 2)(3 4)", "(1 2)(5 6)")
        assert G.order == 4
        assert G.orbits() == ((1, 2), (3, 4), (5, 6), (7,))
        assert G.orbit_lengths() == (2, 2, 2, 1)

    def test_cyclic_seven(self):
        assert grp("(1 2 3 4 5 6 7)").order == 7

    def test_cap_exceeded_reports_progress(self):
        with pytest.raises(CapExceeded) as exc:
            generate([p("(1 2)"), p("(1 2 3 4 5 6 7)")], cap=100)
        assert exc.value.partial > 100
        assert "100" in str(exc.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate([])
        with pytest.raises(ValueError):
            generate([p("(1 2)", n=3), p("(1 2)", n=4)])

    def test_deterministic_elements(self):
        a = grp("(1 2)(3 4)", "(1 2)(5 6)")
        b = grp("(1 2)(3 4)", "(1 2)(5 6)")
        assert a.elements == b.elements

    def test_contains(self):
        G = grp("(1 2)", "(1 2 3)", n=3)
        assert p("(1 3)", n=3) in G
        assert p("(1 2)", n=4) not in G


def _matrix_action_perm(M):
    # point k in 1..7 is the vector of binary digits of k
    def apply(k):
        v = ((k >> 2) & 1, (k >> 1) & 1, k & 1)
        w = tuple(sum(M[i][j] * v[j] for j in range(3)) % 2 for i in range(3))
        return (w[0] << 2) | (w[1] << 1) | w[2]

    return Perm(tuple(apply(k) - 1 for k in range(1, 8)))


class TestOrder168:
    def test_generators_match_matrix_action(self):
        singer = _matrix_action_perm([[0, 0, 1], [1, 0, 0], [0, 1, 1]])
        transvection = _matrix_action_perm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert str(singer) == PSL_GENS[0]
        assert str(transvection) == PSL_GENS[1]

    def test_order(self):
        assert psl32().order == 168

    def test_transitive(self):
        assert psl32().orbit_lengths() == (7,)

    def test_fingerprint(self):
        fp = fingerprint(psl32())
        expected = {
            CycleType((1,) * 7): Fraction(1, 168),
            CycleType((2, 2, 1, 1, 1)): Fraction(21, 168),
            CycleType((3, 3, 1)): Fraction(56, 168),
            CycleType((4, 2, 1)): Fraction(42, 168),
            CycleType((7,)): Fraction(48, 168),
        }
        assert fp == expected
        assert sum(fp.values()) == 1


class TestSmallFingerprints:
    def test_symmetric_three(self):
        fp = fingerprint(grp("(1 2)", "(1 2 3)", n=3))
        assert fp == {
            CycleType((1, 1, 1)): Fraction(1, 6),
            CycleType((2, 1)): Fraction(1, 2),
            CycleType((3,)): Fraction(1, 3),
        }

    def test_klein_on_seven(self):
        fp = fingerprint(grp("(1 2)(3 4)", "(1 2)(5 6)"))
        assert fp == {
            CycleType((1,) * 7): Fraction(1, 4),
            CycleType((2, 2, 1, 1, 1)): Fraction(3, 4),
        }


class TestEfMultiset:
    def test_single_involution(self):
        I = grp("(1 2)(3 4)")
        assert ef_multiset(I, I) == ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1))

    def test_involution_inside_klein(self):
        I = grp("(1 2)(3 4)")
        D0 = grp("(1 2)(3 4)", "(1 2)(5 6)")
        assert ef_multiset(I, D0) == ((2, 1), (2, 1), (1, 2), (1, 1))

    def test_trivial_inertia_in_seven_cycle(self):
        I = grp("()")
        D0 = grp("(1 2 3 4 5 6 7)")
        assert ef_multiset(I, D0) == ((1, 7),)

    def test_frozen_klein_inside_order_168(self):
        G = psl32()
        tau, sigma = p(PSL_TAU), p(PSL_SIGMA)
        assert tau in G and sigma in G
        assert cycle_type(tau).parts == (2, 2, 1, 1, 1)
        I = generate([tau])
        D0 = generate([tau, sigma])
        assert D0.order == 4
        assert D0.orbit_lengths() == (2, 2, 2, 1)
        assert ef_multiset(I, D0) == ((2, 1), (2, 1), (1, 2), (1, 1))
        assert ef_multiset(I, I) == ((2, 1), (2, 1), (1, 1), (1, 1), (1, 1))

    def test_everything_split(self):
        I = grp("()", n=3)
        assert ef_multiset(I, I) == ((1, 1), (1, 1), (1, 1))

    def test_not_contained(self):
        with pytest.raises(ValueError, match="not contained"):
            ef_multiset(grp("(5 6)"), grp("(1 2)"))

    def test_not_normal(self):
        I = grp("(1 2)", n=3)
        D0 = grp("(1 2)", "(1 2 3)", n=3)
        with pytest.raises(ValueError, match="not normal"):
            ef_multiset(I, D0)

    def test_quotient_not_cyclic(self):
        I = grp("()")
        D0 = grp("(1 2)(3 4)", "(1 2)(5 6)")
        with pytest.raises(ValueError, match="not cyclic"):
            ef_multiset(I, D0)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="different points"):
            ef_multiset(grp("(1 2)", n=3), grp("(1 2)", n=4))

    def test_inconsistent_elements_detected(self):
        # hand-built overgroup whose element list is not actually closed:
        # its point orbits merge inertia suborbits of different sizes
        ident = Perm.identity(5)
        I = PermGroup(5, (p("(1 2)", n=5),), (ident, p("(1 2)", n=5)))
        D0 = PermGroup(
            5,
            (p("(1 2)", n=5),),
            tuple(
                sorted(
                    [ident, p("(1 2)", n=5), p("(1 2 3)", n=5), p("(1 2)(3 4)", n=5)],
                    key=lambda g: g.images,
                )
            ),
        )
        with pytest.raises(ValueError, match="suborbits of sizes"):
            ef_multiset(I, D0)

    @given(st.permutations(range(7)), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_pairs_account_for_all_points(self, images, k):
        g = Perm(tuple(images))
        D0 = generate([g])
        I = generate([g**k])
        pairs = ef_multiset(I, D0)
        assert sum(e * f for e, f in pairs) == 7
        for e, f in pairs:
            assert e >= 1 and f >= 1


class TestSubgroupScan:
    def test_symmetric_three_point_pairs(self):
        G = grp("(1 2)", "(1 2 3)", n=3)
        classes = subgroups_with_orbit_lengths(G, (2, 1))
        assert len(classes) == 1
        assert classes[0].order == 2

    def test_symmetric_three_transitive(self):
        G = grp("(1 2)", "(1 2 3)", n=3)
        assert [H.order for H in subgroups_with_orbit_lengths(G, (3,))] == [3, 6]

    def test_trivial_partition(self):
        G = grp("(1 2)", "(1 2 3)", n=3)
        classes = subgroups_with_orbit_lengths(G, (1, 1, 1))
        assert [H.order for H in classes] == [1]

    def test_cyclic_seven(self):
        G = grp("(1 2 3 4 5 6 7)")
        classes = subgroups_with_orbit_lengths(G, (7,))
        assert [H.order for H in classes] == [7]

    def test_klein_class_inside_order_168(self):
        classes = subgroups_with_orbit_lengths(psl32(), (2, 2, 2, 1))
        assert len(classes) == 1
        H = classes[0]
        assert H.order == 4
        assert all(g.order() <= 2 for g in H.elements)

    def test_other_klein_class_inside_order_168(self):
        classes = subgroups_with_orbit_lengths(psl32(), (4, 1, 1, 1))
        assert [H.order for H in classes] == [4]
        assert all(g.order() <= 2 for g in classes[0].elements)

    def test_partition_must_match_degree(self):
        with pytest.raises(ValueError):
            subgroups_with_orbit_lengths(grp("(1 2)", n=3), (2, 2))

    def test_order_cap(self):
        G = generate([p("(1 2)"), p("(1 2 3 4 5 6 7)")])
        assert G.order == 5040
        with pytest.raises(ValueError, match="too large"):
            subgroups_with_orbit_lengths(G, (7,))


def _order_by_stabilizer_chain(elements, n):
    """Independent recount of the group order: |G| = |orbit| * |stabilizer|."""
    moved = [pt for pt in range(n) if any(g.images[pt] != pt for g in elements)]
    if not moved:
        return 1
    pt = moved[0]
    orbit = {g.images[pt] for g in elements}
    stab = [g for g in elements if g.images[pt] == pt]
    return len(orbit) * _order_by_stabilizer_chain(stab, n)


def small_groups(n=6):
    return st.lists(
        st.permutations(range(n)).map(lambda t: Perm(tuple(t))),
        min_size=1,
        max_size=2,
    ).map(lambda gens: generate(gens, cap=720))


class TestInvariants:
    @given(small_groups())
    @settings(max_examples=40, deadline=None)
    def test_orbit_stabilizer_recount(self, G):
        assert _order_by_stabilizer_chain(G.elements, G.degree) == G.order

    @given(small_groups())
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_sums_to_one(self, G):
        assert sum(fingerprint(G).values()) == 1

    @given(st.permutations(range(6)), st.permutations(range(6)))
    @settings(max_examples=60, deadline=None)
    def test_cycle_type_is_a_class_function(self, a, b):
        g, h = Perm(tuple(a)), Perm(tuple(b))
        assert cycle_type(h * g * h.inverse()) == cycle_type(g)

    @given(st.permutations(range(7)))
    @settings(max_examples=60, deadline=None)
    def test_notation_roundtrip(self, images):
        g = Perm(tuple(images))
        assert parse_perm(str(g), 7) == g

    @given(st.permutations(range(6)), st.permutations(range(6)))
    @settings(max_examples=60, deadline=None)
    def test_group_identities(self, a, b):
        g, h = Perm(tuple(a)), Perm(tuple(b))
        assert (g * h).inverse() == h.inverse() * g.inverse()
        assert g * g.inverse() == Perm.identity(6)
        assert g**5 == g * g * g * g * g


class TestInvariableGeneration:
    def test_order_168_pairs(self):
        # maximal subgroups: 7:3 holds types 7 and 3^2.1, the two S4 classes
        # hold every type but 7, so 7 with 2^2.1^3 or 4.2.1 generates
        G = psl32()
        seven, four = CycleType((7,)), CycleType((4, 2, 1))
        assert invariably_generates(G, seven, four)
        assert invariably_generates(G, four, seven)
        assert invariably_generates(G, seven, CycleType((2, 2, 1, 1, 1)))
        assert not invariably_generates(G, seven, CycleType((3, 3, 1)))
        assert not invariably_generates(G, four, CycleType((3, 3, 1)))
        assert not invariably_generates(G, CycleType((1,) * 7), seven)

    def test_type_outside_the_group(self):
        assert not invariably_generates(psl32(), CycleType((7,)), CycleType((6, 1)))

    @given(small_groups(5))
    @settings(max_examples=20, deadline=None)
    def test_matches_every_pair(self, G):
        types = sorted(fingerprint(G), key=lambda c: c.parts)
        for i, lam in enumerate(types):
            for mu in types[i + 1 :]:
                brute = all(
                    generate([x, y]).order == G.order
                    for x in G.elements
                    if cycle_type(x) == lam
                    for y in G.elements
                    if cycle_type(y) == mu
                )
                assert invariably_generates(G, lam, mu) == brute, (G, lam, mu)

"""Ordered-semigroup tests.

Derived facts (the non-lattice witness for the gap semigroup, the greedy
factorization policy) are checked against brute-force enumeration oracles
written directly in this file.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normex import (
    GroupElement,
    InputError,
    MembershipError,
    UnsupportedStructureError,
    add,
    contains,
    element,
    factorize,
    free_abelian,
    leq,
    meet_join,
    neg,
    numerical,
    pos_neg_parts,
    product,
    sample_group,
    sample_member,
    sub,
    unit,
)

GAPS1 = (1,)  # nonnegative integers with 1 removed


def _gaps_of(gens):
    """The gaps of the semigroup the positive ints ``gens`` generate, when
    their gcd is 1; else of the semigroup they generate with 1 added, so
    that the set is finite (it is then empty)."""
    if math.gcd(*gens) != 1:
        return frozenset()
    bound = max(gens) ** 2
    member = [True] + [False] * bound
    for n in range(1, bound + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    return frozenset(n for n in range(bound + 1) if not member[n])


def _scan_split(gaps):
    """The closure scan's message for the first split gap = a + b of a gap
    set into members a <= b (in gap, then member order), or None when no
    gap splits: the quadratic oracle of ``Numerical``'s Apery test."""
    least = next(n for n in itertools.count(1) if n not in gaps)
    for g in sorted(gaps):
        for a in range(least, g // 2 + 1):
            if a not in gaps and (g - a) not in gaps:
                return (f"gap set not additively closed: {a} + {g - a} = "
                        f"{g} is a gap")
    return None


def _scan_generators(gaps):
    """The minimal generators of a closed gap set by the quadratic scan: each
    member up to F + m (m the least positive member) that is no sum of two
    positive members."""
    if not gaps:
        return (GroupElement(1),)
    top = max(gaps)
    positives = [n for n in range(1, 2 * top + 3) if n not in gaps]
    members, smallest = set(positives), positives[0]
    return tuple(GroupElement(n) for n in positives
                 if n <= top + smallest and not any(
                     a in members and (n - a) in members
                     for a in range(smallest, n // 2 + 1)))

# one descriptor per kind, plus a product nested in a product
KINDS = {
    "free_abelian": free_abelian(3),
    "numerical": numerical(GAPS1),
    "product": product(free_abelian(1), numerical(GAPS1)),
    "nested-product": product(product(free_abelian(1), numerical(GAPS1)),
                              free_abelian(2)),
}


def _in_gap_semigroup(n: int) -> bool:
    return n >= 0 and n not in GAPS1


def witness_oracle(a: int, b: int):
    """Enumerate lower bounds of {a, b} over a window, keep the maximal ones,
    and list incomparable pairs among them."""
    lbs = [x for x in range(-20, max(a, b) + 1)
           if _in_gap_semigroup(a - x) and _in_gap_semigroup(b - x)]
    maximal = [x for x in lbs
               if not any(y != x and _in_gap_semigroup(y - x) for y in lbs)]
    incomparable = [(x, y) for x in maximal for y in maximal
                    if x < y and not _in_gap_semigroup(y - x)
                    and not _in_gap_semigroup(x - y)]
    return sorted(maximal), incomparable


def factorization_oracle(n: int, gens):
    """Lexicographically greatest multiplicity vector (ordered by ascending
    generator) among all exact expansions of n over the generators."""
    best = None

    def rec(i, rem, acc):
        nonlocal best
        if i == len(gens):
            if rem == 0:
                vec = tuple(acc)
                if best is None or vec > best:
                    best = vec
            return
        for c in range(rem // gens[i], -1, -1):
            rec(i + 1, rem - c * gens[i], acc + [c])

    rec(0, n, [])
    return best


class TestDescriptors:
    def test_gap_semigroup_generators(self):
        d = numerical(GAPS1)
        assert tuple(g.coords for g in d.generators) == (2, 3)

    def test_gap_semigroup_not_lattice(self):
        assert numerical(GAPS1).lattice_ordered is False
        # oracle: the pair (2, 3) has two incomparable maximal lower bounds,
        # and they are exactly 0 and -1
        maximal, incomparable = witness_oracle(2, 3)
        assert maximal == [-1, 0]
        assert incomparable == [(-1, 0)]

    def test_zero_gap_rejected(self):
        with pytest.raises(InputError):
            numerical((0, 1))

    def test_negative_gap_rejected(self):
        with pytest.raises(InputError):
            numerical((-2,))

    def test_non_closed_gap_rejected(self):
        # removing only 3 leaves 1 and 2 as members, yet 1 + 2 = 3
        with pytest.raises(InputError):
            numerical((3,))
        # removing only 2 leaves 1 as a member, yet 1 + 1 = 2
        with pytest.raises(InputError):
            numerical((2,))

    @settings(max_examples=300)
    @given(gaps=st.one_of(
        st.frozensets(st.integers(1, 40), max_size=12),
        st.lists(st.integers(2, 25), min_size=1, max_size=4).map(_gaps_of),
        st.tuples(st.lists(st.integers(2, 25), min_size=1, max_size=4)
                  .map(_gaps_of), st.integers(1, 60))
        .map(lambda pair: pair[0] ^ {pair[1]})))
    def test_apery_closure_and_generators_equal_the_scans(self, gaps):
        # random gap sets (mostly not closed), the gaps of a semigroup with
        # up to four random generators (closed), and those with one gap
        # added or removed: the message or the generators equal the scans
        want = _scan_split(gaps)
        if want is not None:
            with pytest.raises(InputError) as exc:
                numerical(gaps)
            assert str(exc.value) == want
        else:
            assert numerical(gaps).generators == _scan_generators(gaps)

    def test_a_small_multiplicity_is_linear(self):
        # the semigroup <2, F + 2>: every odd number up to F is a gap
        d = numerical(range(1, 8002, 2))
        assert d.generators == (GroupElement(2), GroupElement(8003))
        # one even gap above them splits, and only as a sum of evens
        with pytest.raises(InputError) as exc:
            numerical(list(range(1, 8002, 2)) + [8002])
        assert str(exc.value) == ("gap set not additively closed: "
                                  "2 + 8000 = 8002 is a gap")

    @settings(max_examples=50)
    @given(closed=st.one_of(
        st.integers(1, 400).map(lambda f: frozenset(range(1, f + 1, 2))),
        st.lists(st.integers(2, 30), min_size=2, max_size=3).map(_gaps_of)),
           toggled=st.frozensets(st.one_of(st.integers(1, 1000),
                                           st.integers(1, 10 ** 9)),
                                 min_size=1, max_size=3))
    def test_a_split_far_up_is_named_as_the_scan_names_it(self, closed,
                                                          toggled):
        # a closed gap set with up to three numbers added or removed: the
        # first split can lie far above the first gap, so the scan passes
        # many gaps that do not split before it names one; an added gap
        # up to 1e9 splits, and is named without a mask that far up
        gaps = closed ^ toggled
        want = _scan_split(gaps)
        if want is None:
            numerical(gaps)
        else:
            with pytest.raises(InputError) as exc:
                numerical(gaps)
            assert str(exc.value) == want

    def test_a_lone_huge_gap_is_named_without_a_mask_that_far_up(self):
        # a gap g >= 2G (G gaps) always splits below 2G: masking every
        # member below 10**12 would not fit in memory
        with pytest.raises(InputError) as exc:
            numerical([10 ** 12])
        assert str(exc.value) == ("gap set not additively closed: "
                                  "1 + 999999999999 = 1000000000000 is a gap")

    def test_generator_counts_match_the_generators(self):
        for d in KINDS.values():
            assert d.generator_count == len(d.generators)

    def test_a_large_rank_is_counted_without_its_generators(self):
        d = product(free_abelian(10 ** 9), free_abelian(1))
        assert d.generator_count == 10 ** 9 + 1
        assert "generators" not in vars(d) and "generators" not in vars(
            d.factors[0])

    def test_product_flattens(self):
        d = product(free_abelian(2), numerical(GAPS1))
        assert contains(d, element(d, ((1, 0), 2)))
        assert not contains(d, element(d, ((1, 0), 1)))


class TestMembership:
    def test_free_abelian_cone(self):
        d = free_abelian(2)
        assert contains(d, element(d, (0, 0)))
        assert contains(d, element(d, (2, 1)))
        assert not contains(d, element(d, (-1, 0)))

    def test_gap_semigroup_cone(self):
        d = numerical(GAPS1)
        for n in range(-3, 10):
            assert contains(d, element(d, n)) == _in_gap_semigroup(n)

    def test_float_coordinate_rejected(self):
        with pytest.raises(InputError):
            element(numerical(GAPS1), 0.5)

    @pytest.mark.parametrize("d, coords", [
        (free_abelian(2), (1,)),                       # rank mismatch
        (numerical(GAPS1), 1.5),                       # non-int numerical
        (product(free_abelian(1), numerical(GAPS1)), ((1,),)),  # arity
        (free_abelian(2), (1.0, 2.0)),                 # float coordinates
        (free_abelian(2), (True, 0)),                  # bool coordinate
        (numerical(GAPS1), 2.0),                       # float numerical
        (numerical(GAPS1), True),                      # bool numerical
        (product(free_abelian(1), numerical(GAPS1)), ((1.0,), 2)),  # nested
        (free_abelian(2), [1, 0]),                     # list for a tuple
        (product(free_abelian(1), numerical(GAPS1)), ([1], 2)),  # nested
    ], ids=["free_abelian", "numerical", "product", "float-coords",
            "bool-coord", "float-numerical", "bool-numerical", "product-float",
            "list-coords", "product-list"])
    def test_incompatible_coordinates_rejected(self, d, coords):
        # built directly, bypassing element(): add/contains must check
        g = GroupElement(coords)
        with pytest.raises(InputError):
            contains(d, g)
        with pytest.raises(InputError):
            add(d, g, g)

    @pytest.mark.parametrize("d, raw", [
        (free_abelian(2), ("a", 1)),
        (free_abelian(2), (1.0, 2.0)),
        (free_abelian(2), (True, 0)),
        (numerical(GAPS1), True),
        (product(free_abelian(1), numerical(GAPS1)), 3),
    ], ids=["free_abelian-text", "free_abelian-float", "free_abelian-bool",
            "numerical-bool", "product-scalar"])
    def test_element_rejects_with_input_error(self, d, raw):
        with pytest.raises(InputError):
            element(d, raw)

    def test_contains_matches_factorize(self):
        # dual route: membership and exact-expansion existence agree on a
        # window of the gap semigroup
        d = numerical(GAPS1)
        gens = [g.coords for g in d.generators]
        for p in range(0, 51):
            member = contains(d, element(d, p))
            assert member == _in_gap_semigroup(p)
            if member:
                f = factorize(d, element(d, p))
                assert sum(gens[i] * m for i, m in f.as_dict().items()) == p


class TestLatticeStructure:
    def test_meet_join_componentwise(self):
        d = free_abelian(3)
        a = element(d, (2, -1, 0))
        b = element(d, (1, 1, 0))
        m, j = meet_join(d, a, b)
        assert m.coords == (1, -1, 0)
        assert j.coords == (2, 1, 0)

    def test_pos_neg_parts_example(self):
        d = free_abelian(2)
        p, n = pos_neg_parts(d, element(d, (3, -2)))
        assert p.coords == (3, 0)
        assert n.coords == (0, 2)

    def test_parts_reconstruct(self):
        d = free_abelian(4)
        rng = random.Random(23)
        for _ in range(1000):
            g = sample_group(d, rng)
            p, n = pos_neg_parts(d, g)
            assert contains(d, p) and contains(d, n)
            assert tuple(pi - ni for pi, ni in zip(p.coords, n.coords)) == g.coords
            # the parts have disjoint support
            assert all(pi == 0 or ni == 0 for pi, ni in zip(p.coords, n.coords))

    def test_meet_join_are_bounds(self):
        d = free_abelian(3)
        rng = random.Random(29)
        for _ in range(300):
            a, b = sample_group(d, rng), sample_group(d, rng)
            m, j = meet_join(d, a, b)
            assert leq(d, m, a) and leq(d, m, b)
            assert leq(d, a, j) and leq(d, b, j)

    def test_non_lattice_meet_rejected(self):
        d = numerical(GAPS1)
        with pytest.raises(UnsupportedStructureError):
            meet_join(d, element(d, 2), element(d, 3))


class TestFactorize:
    def test_policy_examples(self):
        d = numerical(GAPS1)
        gens = [g.coords for g in d.generators]

        def by_value(n):
            f = factorize(d, element(d, n))
            return {gens[i]: m for i, m in f.as_dict().items()}

        assert by_value(7) == {2: 2, 3: 1}
        assert by_value(6) == {2: 3}

    def test_policy_matches_oracle(self):
        d = numerical(GAPS1)
        gens = [g.coords for g in d.generators]
        for p in range(0, 40):
            if not _in_gap_semigroup(p):
                continue
            want = factorization_oracle(p, gens)
            got = factorize(d, element(d, p)).as_dict()
            assert tuple(got.get(i, 0) for i in range(len(gens))) == want, p

    def test_free_abelian_coordinates(self):
        d = free_abelian(3)
        f = factorize(d, element(d, (2, 0, 5)))
        assert f.as_dict() == {0: 2, 2: 5}
        assert f.degree == 7

    def test_non_member_rejected(self):
        d = numerical(GAPS1)
        with pytest.raises(MembershipError):
            factorize(d, element(d, 1))

    def test_expansion_reconstructs(self):
        d = numerical((1, 2, 4))  # members 0, 3, 5, 6, 7, ...
        gens = [g.coords for g in d.generators]
        rng = random.Random(31)
        for _ in range(200):
            g = sample_member(d, rng)
            f = factorize(d, g)
            assert sum(gens[i] * m for i, m in f.as_dict().items()) == g.coords

    def test_product_offsets(self):
        d = product(free_abelian(2), numerical(GAPS1))
        f = factorize(d, element(d, ((0, 1), 5)))
        # generator order: e1, e2 of the lattice part, then 2 and 3
        assert f.as_dict() == {1: 1, 2: 1, 3: 1}


class TestSampling:
    def test_members_are_members(self):
        rng = random.Random(37)
        for d in KINDS.values():
            for _ in range(100):
                assert contains(d, sample_member(d, rng))

    def test_deterministic(self):
        d = free_abelian(4)
        a = [sample_group(d, random.Random(5)).coords for _ in range(3)]
        b = [sample_group(d, random.Random(5)).coords for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize("name, draws", [
        ("free_abelian", [(6, 12, 6), (0, 4, 8), (7, 6, 12)]),
        ("numerical", [12, 13, 8]),
        ("nested-product", [(((6,), 13), (0, 4)), (((8,), 15), (6, 12)),
                            (((4,), 15), (5, 9))]),
        ("product", [((6,), 13), ((0,), 8), ((8,), 15)]),
    ])
    def test_first_draws_are_pinned(self, name, draws):
        # validate_rep samples, so byte-identical reports need every kind to
        # consume the generator exactly as pinned here
        rng = random.Random(0)
        got = [sample_member(KINDS[name], rng).coords for _ in draws]
        assert got == draws


@pytest.mark.parametrize("name", list(KINDS))
@given(rng=st.randoms(use_true_random=False))
def test_group_laws(name, rng):
    d = KINDS[name]
    g, h, x = (sample_group(d, rng) for _ in range(3))
    e = unit(d)
    assert add(d, add(d, g, h), x) == add(d, g, add(d, h, x))
    assert add(d, g, h) == add(d, h, g)
    assert add(d, g, e) == g == add(d, e, g)
    assert add(d, g, neg(d, g)) == e
    p, q = sample_member(d, rng), sample_member(d, rng)
    assert contains(d, add(d, p, q))  # P is closed under addition
    if not d.lattice_ordered:
        with pytest.raises(UnsupportedStructureError):
            meet_join(d, g, h)
        return
    m, j = meet_join(d, g, h)
    assert (m, j) == meet_join(d, h, g)  # commutativity
    # associativity of the meet and of the join
    assert (meet_join(d, m, x)[0]
            == meet_join(d, g, meet_join(d, h, x)[0])[0])
    assert (meet_join(d, j, x)[1]
            == meet_join(d, g, meet_join(d, h, x)[1])[1])
    assert meet_join(d, g, j)[0] == g == meet_join(d, g, m)[1]  # absorption
    g_plus, g_minus = pos_neg_parts(d, g)
    assert contains(d, g_plus) and contains(d, g_minus)
    assert meet_join(d, g_plus, g_minus)[0] == e
    assert sub(d, g_plus, g_minus) == g

"""Exact-arithmetic algebra of abelian semigroups and their ambient groups.

A descriptor names a unital abelian semigroup P sitting inside the group
G = P - P it generates; the induced partial order is x <= y iff y - x in P.
Each kind is one frozen record, a subclass of SemigroupDescriptor:

  free_abelian(k)    FreeAbelian    P = N^k inside Z^k (componentwise lattice)
  numerical(gaps)    Numerical      P = N \\ gaps inside Z (lattice iff no gaps)
  product(*factors)  Product        componentwise structure on the product

Every kind is finitely generated, since a representation is fixed by the
images of the generators.  All coordinates are exact (ints / nested tuples,
never bools or floats), and equality of canonical forms is element identity.
Every kind's group and lattice operations act coordinate by coordinate, so
add, neg and meet_join pass +, - and min/max to the record's one
``pointwise``.  The laws therefore hold by construction once a record
accepts its parameters (a numerical gap set must be additively closed), and
no descriptor validator is needed.  To add a kind, write its record: the
fields ``kind`` and the parameters (checked in ``__post_init__``), the unit
``zero``, ``canon`` (the one check of the coordinate format), ``pointwise``,
``contains``, ``sample``, ``generators`` and ``factorize`` ({generator
index: multiplicity > 0} for a member); ``lattice_ordered`` if the order is
no lattice, and ``generator_count`` if the generators can be counted without
building them.  The CLI reads it once ``cli._DESCRIPTOR_FIELDS`` has a
reader for each parameter.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from .errors import InputError, MembershipError, UnsupportedStructureError


@dataclass(frozen=True)
class GroupElement:
    """Element of the ambient group in canonical, hashable coordinates."""

    coords: object

    def __repr__(self) -> str:  # compact, coordinate-only
        return f"GroupElement({self.coords!r})"


@dataclass(frozen=True)
class Factorization:
    """Multiset of generator indices with multiplicities, ascending index."""

    terms: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.terms)


def factorization(terms) -> Factorization:
    """Canonicalize {index: multiplicity} (or pair-iterable) data."""
    items = dict(terms)
    clean = []
    for idx, mult in sorted(items.items()):
        if not (isinstance(idx, int) and isinstance(mult, int)):
            raise InputError("factorization terms must be integer pairs")
        if idx < 0 or mult < 0:
            raise InputError("factorization terms must be non-negative")
        if mult > 0:
            clean.append((idx, mult))
    return Factorization(tuple(clean))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# one record per kind

@dataclass(frozen=True)
class SemigroupDescriptor:
    """Base of the kind records.  Equality, hashing and the JSON form see
    only the fields; all else derives from them.  Methods take and return
    canonical coordinates, which ``canon`` makes from raw ones."""

    lattice_ordered = True  # a record whose order is no lattice derives it

    @property
    def generator_count(self) -> int:
        """len(generators); FreeAbelian and Product count without building."""
        return len(self.generators)

    def pointwise(self, op, a, b):
        """op on each pair of coordinates; here the coordinate is a number."""
        return op(a, b)


@dataclass(frozen=True)
class FreeAbelian(SemigroupDescriptor):
    k: int
    kind: str = field(default="free_abelian", init=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise InputError("free_abelian rank must be a positive integer")

    @cached_property
    def zero(self):
        return (0,) * self.k

    @property
    def generator_count(self):
        return self.k

    @cached_property
    def generators(self):
        return tuple(GroupElement(tuple(int(i == j) for j in range(self.k)))
                     for i in range(self.k))

    def canon(self, raw):
        if not (isinstance(raw, (tuple, list)) and len(raw) == self.k
                and all(map(_is_int, raw))):
            raise InputError(f"expected {self.k} integer coordinates, got {raw!r}")
        return tuple(raw)

    def pointwise(self, op, a, b):
        return tuple(map(op, a, b))

    def contains(self, c):
        return all(x >= 0 for x in c)

    def sample(self, rng):
        return tuple(rng.randint(0, 12) for _ in range(self.k))

    def factorize(self, c):
        return {i: x for i, x in enumerate(c) if x}


def _sums_upto(ws, top: int):
    """Each sum a + b <= top of entries a <= b of the ascending list
    ``ws``, in a time linear in their count and in len(ws)."""
    for i, a in enumerate(ws):
        for j in range(i, len(ws)):
            if a + ws[j] > top:
                break
            yield a + ws[j]


def _first_split(gaps) -> tuple[int, int]:
    """The first split of a gap set in which some gap splits, in (gap,
    member) order: (a, g) with g the least gap that is a sum a + b of
    positive members and a <= b the least such summand.  Each gap
    g >= 2G, G the number of gaps, splits below 2G: the G - 1 others rule
    out at most two summands each, x and g - x, so one of 1, ..., 2G - 1
    is left.  So the members up to top = min(F, 2G - 1), F the largest
    gap, form one bit mask; its shift by a member a marks every sum
    a + b, a runs only up to half the least split gap found so far, and
    when no gap up to top splits, the least gap above it does.  The
    search takes O(G) shifts of an O(G)-bit integer, whatever F is."""
    top = min(max(gaps), 2 * len(gaps) - 1)
    members = [a for a in range(1, top + 1) if a not in gaps]
    mask = sum(1 << a for a in members)
    gap_mask = ((1 << top + 1) - 2) ^ mask
    least = None
    for a in members:
        if least is not None and 2 * a > least:
            break
        hits = (mask << a) & gap_mask
        if hits:
            low = (hits & -hits).bit_length() - 1
            least = low if least is None else min(least, low)
    if least is None:
        least = min(g for g in gaps if g > top)
    return next(a for a in members if least - a not in gaps), least


@dataclass(frozen=True)
class Numerical(SemigroupDescriptor):
    gaps: tuple[int, ...]  # ascending
    kind: str = field(default="numerical", init=False)
    zero = 0

    def __post_init__(self):
        gaps = frozenset(self.gaps)
        for g in gaps:
            if not isinstance(g, int):
                raise InputError("gap entries must be integers")
            if g == 0:
                raise InputError("0 in gap set rejects the unit: not a semigroup")
            if g < 0:
                raise InputError("gap entries must be positive")
        object.__setattr__(self, "gaps", tuple(sorted(gaps)))
        if self._apery is None:  # then some gap splits
            a, g = _first_split(gaps)
            raise InputError(f"gap set not additively closed: {a} + "
                             f"{g - a} = {g} is a gap")

    @cached_property
    def lattice_ordered(self):
        return not self.gaps

    @cached_property
    def _gap_set(self) -> frozenset:
        return frozenset(self.gaps)

    @cached_property
    def frobenius(self) -> int:
        """The largest gap, -1 when there is none."""
        return max(self.gaps, default=-1)

    @cached_property
    def _apery(self) -> tuple[int, ...] | None:
        """The Apery set of m, the smallest positive member: w_i, the least
        member congruent to i mod m, for i < m; None when the members are not
        additively closed.  They are closed iff each residue class of
        members is a tail w_i + mN (no gap g > m has a member g - m) and no
        sum w_i + w_j is a gap, since a sum of two members is then
        w_i + w_j + km.  Time O(F + m + the pairs of w's summing to at most
        F), F the largest gap; so O(F m) at worst."""
        gaps = self._gap_set
        m = next(n for n in count(1) if n not in gaps)
        if any(g > m and g - m not in gaps for g in gaps):
            return None
        w = []
        for i in range(m):
            while i in gaps:
                i += m
            w.append(i)
        if any(s in gaps for s in _sums_upto(sorted(w[1:]), self.frobenius)):
            return None
        return tuple(w)

    @cached_property
    def generators(self):
        # m and the w of the Apery set of m that are no sum of two nonzero
        # w's: a split of such a w into positive members splits it into w's
        ws = sorted(self._apery[1:])
        sums = set(_sums_upto(ws, ws[-1] if ws else 0))
        return tuple(GroupElement(n) for n in
                     [len(self._apery)] + [w for w in ws if w not in sums])

    def canon(self, raw):
        if not _is_int(raw):
            raise InputError("numerical-kind coordinates must be a single int")
        return raw

    def contains(self, c):
        return c >= 0 and c not in self._gap_set

    def sample(self, rng):
        hi = self.frobenius + 20
        while True:
            n = rng.randint(0, hi)
            if n not in self._gap_set:
                return n

    def factorize(self, c):
        counts = _greedy_numerical(c, [g.coords for g in self.generators])
        if counts is None:  # unreachable for a valid numerical semigroup
            raise MembershipError(f"{c!r} admits no factorization")
        return {i: n for i, n in enumerate(counts) if n}


@dataclass(frozen=True)
class Product(SemigroupDescriptor):
    factors: tuple[SemigroupDescriptor, ...]
    kind: str = field(default="product", init=False)

    def __post_init__(self):
        if not self.factors:
            raise InputError("product needs at least one factor")

    @cached_property
    def lattice_ordered(self):
        return all(f.lattice_ordered for f in self.factors)

    @cached_property
    def zero(self):
        return tuple(f.zero for f in self.factors)

    @cached_property
    def generator_count(self):
        return sum(f.generator_count for f in self.factors)

    @cached_property
    def generators(self):
        """Each factor's generators in turn, unit in the other components."""
        e = self.zero
        return tuple(GroupElement(e[:i] + (g.coords,) + e[i + 1:])
                     for i, f in enumerate(self.factors) for g in f.generators)

    def canon(self, raw):
        if not (isinstance(raw, (tuple, list)) and len(raw) == len(self.factors)):
            raise InputError(
                f"expected {len(self.factors)} components, got {raw!r}")
        return tuple(f.canon(x) for f, x in zip(self.factors, raw))

    def pointwise(self, op, a, b):
        return tuple(f.pointwise(op, x, y) for f, x, y in zip(self.factors, a, b))

    def contains(self, c):
        return all(f.contains(x) for f, x in zip(self.factors, c))

    def sample(self, rng):
        return tuple(f.sample(rng) for f in self.factors)

    def factorize(self, c):
        terms, offset = {}, 0
        for f, x in zip(self.factors, c):
            terms.update((offset + i, n) for i, n in f.factorize(x).items())
            offset += f.generator_count
        return terms


#: every kind record by its ``kind`` name
KINDS = {r.kind: r for r in SemigroupDescriptor.__subclasses__()}


def free_abelian(k: int) -> SemigroupDescriptor:
    return FreeAbelian(k)


def numerical(gaps) -> SemigroupDescriptor:
    return Numerical(tuple(gaps))


def product(*factors: SemigroupDescriptor) -> SemigroupDescriptor:
    return Product(factors)


# ---------------------------------------------------------------------------
# element construction and group arithmetic

def element(d: SemigroupDescriptor, raw) -> GroupElement:
    """Canonicalize raw coordinates into a GroupElement of d's group."""
    if isinstance(raw, GroupElement):
        _check(d, raw)
        return raw
    return GroupElement(d.canon(raw))


def _check(d: SemigroupDescriptor, g: GroupElement) -> None:
    """Raise InputError unless g's coordinates are canonical in d's group:
    equal to their canonical form, which ``canon`` returns as ints and
    tuples (it rejects bools and floats), so no list stands for a tuple."""
    if d.canon(g.coords) != g.coords:
        raise InputError(f"non-canonical {d.kind} coordinates {g.coords!r}")


def unit(d: SemigroupDescriptor) -> GroupElement:
    return GroupElement(d.zero)


def add(d: SemigroupDescriptor, g: GroupElement, h: GroupElement) -> GroupElement:
    _check(d, g)
    _check(d, h)
    return GroupElement(d.pointwise(operator.add, g.coords, h.coords))


def neg(d: SemigroupDescriptor, g: GroupElement) -> GroupElement:
    _check(d, g)
    return GroupElement(d.pointwise(operator.sub, d.zero, g.coords))


def sub(d: SemigroupDescriptor, g: GroupElement, h: GroupElement) -> GroupElement:
    return add(d, g, neg(d, h))


# ---------------------------------------------------------------------------
# membership and order

def contains(d: SemigroupDescriptor, g: GroupElement) -> bool:
    """Membership g in P (coordinates must fit the ambient group)."""
    _check(d, g)
    return d.contains(g.coords)


def _member(d: SemigroupDescriptor, raw) -> GroupElement:
    """The element of d's group that ``raw`` names, checked to lie in P;
    MembershipError otherwise."""
    g = element(d, raw)
    if not d.contains(g.coords):
        raise MembershipError(f"{g.coords!r} is not in the semigroup")
    return g


def leq(d: SemigroupDescriptor, g: GroupElement, h: GroupElement) -> bool:
    """Induced partial order: g <= h iff h - g in P."""
    return contains(d, sub(d, h, g))


def meet_join(
    d: SemigroupDescriptor, g: GroupElement, h: GroupElement
) -> tuple[GroupElement, GroupElement]:
    if not d.lattice_ordered:
        raise UnsupportedStructureError(
            f"{d.kind} descriptor is not lattice ordered"
        )
    _check(d, g)
    _check(d, h)
    return (GroupElement(d.pointwise(min, g.coords, h.coords)),
            GroupElement(d.pointwise(max, g.coords, h.coords)))


def pos_neg_parts(
    d: SemigroupDescriptor, g: GroupElement
) -> tuple[GroupElement, GroupElement]:
    """Unique split g = g_plus - g_minus with g_plus ^ g_minus = unit."""
    e = unit(d)
    _, g_plus = meet_join(d, g, e)
    _, g_minus = meet_join(d, neg(d, g), e)
    return g_plus, g_minus


# ---------------------------------------------------------------------------
# factorization over the generator list

def factorize(d: SemigroupDescriptor, p: GroupElement) -> Factorization:
    """Deterministic factorization, smallest-generator-first greedy with
    backtracking; the multiset of generator indices reconstructs p exactly."""
    return factorization(d.factorize(_member(d, p).coords))


def _greedy_numerical(target: int, gens: list[int]) -> list[int] | None:
    """Depth-first search taking as many of the smallest generator as
    possible, backtracking on dead ends; first success is the policy answer."""
    dead: set[tuple[int, int]] = set()

    def go(i: int, rem: int) -> list[int] | None:
        if rem == 0:
            return [0] * (len(gens) - i)
        if i == len(gens) or (i, rem) in dead:
            return None
        for count in range(rem // gens[i], -1, -1):
            tail = go(i + 1, rem - count * gens[i])
            if tail is not None:
                return [count] + tail
        dead.add((i, rem))
        return None

    return go(0, target)


# ---------------------------------------------------------------------------
# sampling

def sample_member(d: SemigroupDescriptor, rng: random.Random) -> GroupElement:
    return GroupElement(d.sample(rng))


def sample_group(d: SemigroupDescriptor, rng: random.Random) -> GroupElement:
    a = sample_member(d, rng)
    b = sample_member(d, rng)
    return sub(d, a, b)

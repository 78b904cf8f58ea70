"""Exact-arithmetic algebra of abelian semigroups and their ambient groups.

A descriptor names a unital abelian semigroup P sitting inside the group
G = P - P it generates; the induced partial order is x <= y iff y - x in P.
Each kind is one frozen record, a subclass of SemigroupDescriptor:

  free_abelian(k)    FreeAbelian    P = N^k inside Z^k (componentwise lattice)
  numerical(gaps)    Numerical      P = N \\ gaps inside Z (lattice iff no gaps)
  rationals()        Rationals      P = Q>=0 inside Q (total order; Fractions)
  product(*factors)  Product        componentwise structure on the product
  infinite_power(b)  InfinitePower  finitely supported maps index -> base

All coordinates are exact (ints / Fractions / nested tuples, never bools or
floats); equality of canonical forms is element identity, and zero
coordinates are never stored.  Every kind's group and lattice operations act
coordinate by coordinate, so add, neg and meet_join pass +, - and min/max to
the record's one ``pointwise``.  To add a kind, write its record: the fields
``kind`` and the parameters (checked in ``__post_init__``), the unit
``zero``, ``canon`` (the one check of the coordinate format), ``pointwise``,
``contains`` and ``sample``; ``lattice_ordered`` if the order is no lattice;
``generators`` and ``factorize`` if P is finitely generated.  The CLI reads
it once ``cli._DESCRIPTOR_FIELDS`` has a reader for each parameter.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InputError, MembershipError, UnsupportedStructureError
from .validation import ValidationVerdict

FREE_ABELIAN = "free_abelian"
NUMERICAL = "numerical"
RATIONALS = "rationals"
PRODUCT = "product"
INFINITE_POWER = "infinite_power"


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
    generators = ()  # GroupElements; empty unless finitely generated

    @property
    def finitely_generated(self) -> bool:
        return bool(self.generators)

    def pointwise(self, op, a, b):
        """op on each pair of coordinates; here the coordinate is a number."""
        return op(a, b)


@dataclass(frozen=True)
class FreeAbelian(SemigroupDescriptor):
    k: int
    kind: str = field(default=FREE_ABELIAN, init=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise InputError("free_abelian rank must be a positive integer")

    @cached_property
    def zero(self):
        return (0,) * self.k

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


@dataclass(frozen=True)
class Numerical(SemigroupDescriptor):
    gaps: tuple[int, ...]  # ascending
    kind: str = field(default=NUMERICAL, init=False)
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
        # closedness under addition: no gap may split as a sum of two members
        for g in sorted(gaps):
            for a in range(1, g):
                if a not in gaps and (g - a) not in gaps:
                    raise InputError(
                        f"gap set not additively closed: {a} + {g - a} = {g} "
                        "is a gap"
                    )
        object.__setattr__(self, "gaps", tuple(sorted(gaps)))

    @cached_property
    def lattice_ordered(self):
        return not self.gaps

    @cached_property
    def frobenius(self) -> int:
        """The largest gap, -1 when there is none."""
        return max(self.gaps, default=-1)

    def members(self, upto: int) -> list[int]:
        return [n for n in range(upto + 1) if n not in self.gaps]

    @cached_property
    def generators(self):
        if not self.gaps:
            return (GroupElement(1),)
        members = set(self.members(2 * self.frobenius + 2))
        positives = sorted(m for m in members if m > 0)
        smallest = positives[0]
        gens = []
        # minimal generators all lie in [smallest, frobenius + smallest]
        for n in positives:
            if n > self.frobenius + smallest:
                break
            if not any(a in members and (n - a) in members for a in range(1, n)):
                gens.append(GroupElement(n))
        return tuple(gens)

    def canon(self, raw):
        if not _is_int(raw):
            raise InputError("numerical-kind coordinates must be a single int")
        return raw

    def contains(self, c):
        return c >= 0 and c not in self.gaps

    def sample(self, rng):
        hi = self.frobenius + 20
        while True:
            n = rng.randint(0, hi)
            if n not in self.gaps:
                return n

    def factorize(self, c):
        counts = _greedy_numerical(c, [g.coords for g in self.generators])
        if counts is None:  # unreachable for a valid numerical semigroup
            raise MembershipError(f"{c!r} admits no factorization")
        return {i: n for i, n in enumerate(counts) if n}


@dataclass(frozen=True)
class Rationals(SemigroupDescriptor):
    kind: str = field(default=RATIONALS, init=False)
    zero = Fraction(0)

    def canon(self, raw):
        if not (_is_int(raw) or isinstance(raw, Fraction)):
            raise InputError("rational coordinates must be exact (int/Fraction)")
        return Fraction(raw)

    def contains(self, c):
        return c >= 0

    def sample(self, rng):
        return Fraction(rng.randint(0, 240), rng.randint(1, 12))


@dataclass(frozen=True)
class Product(SemigroupDescriptor):
    factors: tuple[SemigroupDescriptor, ...]
    kind: str = field(default=PRODUCT, init=False)

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
    def generators(self):
        """Each factor's generators in turn, unit in the other components;
        none unless every factor is finitely generated."""
        if not all(f.finitely_generated for f in self.factors):
            return ()
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
            offset += len(f.generators)
        return terms


@dataclass(frozen=True)
class InfinitePower(SemigroupDescriptor):
    """Coordinates are (index, base coordinates) pairs, indices >= 1 in
    ascending order, unit values omitted."""

    base: SemigroupDescriptor
    kind: str = field(default=INFINITE_POWER, init=False)
    zero = ()

    @cached_property
    def lattice_ordered(self):
        return self.base.lattice_ordered

    def canon(self, raw):
        pairs = tuple(raw.items()) if isinstance(raw, dict) else raw
        if not (isinstance(pairs, (tuple, list)) and all(
                isinstance(p, (tuple, list)) and len(p) == 2 for p in pairs)):
            raise InputError("power coordinates must be (index, value) pairs")
        out = {}
        for idx, val in pairs:
            if not _is_int(idx) or idx < 1:
                raise InputError("power indices must be integers >= 1")
            if idx in out:
                raise InputError(f"power index {idx} given twice")
            out[idx] = self.base.canon(val)
        return self._support(out)

    def _support(self, values: dict):
        e = self.base.zero
        return tuple(sorted((i, v) for i, v in values.items() if v != e))

    def pointwise(self, op, a, b):
        e, da, db = self.base.zero, dict(a), dict(b)
        return self._support({i: self.base.pointwise(op, da.get(i, e), db.get(i, e))
                              for i in da.keys() | db.keys()})

    def contains(self, c):
        return all(self.base.contains(val) for _, val in c)

    def sample(self, rng):
        out = {}
        for _ in range(rng.randint(0, 3)):
            idx = rng.randint(1, 8)
            val = self.base.sample(rng)
            if val != self.base.zero:
                out[idx] = val
        return tuple(sorted(out.items()))


#: every kind record by its ``kind`` name
KINDS = {r.kind: r for r in SemigroupDescriptor.__subclasses__()}


def free_abelian(k: int) -> SemigroupDescriptor:
    return FreeAbelian(k)


def numerical(gaps) -> SemigroupDescriptor:
    return Numerical(tuple(gaps))


def rationals() -> SemigroupDescriptor:
    return Rationals()


def product(*factors: SemigroupDescriptor) -> SemigroupDescriptor:
    return Product(factors)


def infinite_power(base: SemigroupDescriptor) -> SemigroupDescriptor:
    return InfinitePower(base)


# ---------------------------------------------------------------------------
# element construction and group arithmetic

def element(d: SemigroupDescriptor, raw) -> GroupElement:
    """Canonicalize raw coordinates into a GroupElement of d's group."""
    if isinstance(raw, GroupElement):
        _check(d, raw)
        return raw
    return GroupElement(d.canon(raw))


def _check(d: SemigroupDescriptor, g: GroupElement) -> None:
    """Raise InputError unless g's coordinates are canonical in d's group."""
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
    if not d.finitely_generated:
        raise UnsupportedStructureError(
            f"{d.kind} descriptor is not finitely generated"
        )
    if not contains(d, p):
        raise MembershipError(f"{p.coords!r} is not in the semigroup")
    return factorization(d.factorize(p.coords))


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


def indicator(v, ambient: SemigroupDescriptor) -> GroupElement:
    """Element with unit entries exactly on the index (multi)set v.

    FreeAbelian(k): v holds 1-based coordinate indices.  InfinitePower of a
    FreeAbelian base: v holds (coordinate, copy) pairs, both 1-based.
    """
    entries = list(v)
    if isinstance(ambient, FreeAbelian):
        coords = [0] * ambient.k
        for idx in entries:
            if not isinstance(idx, int) or not (1 <= idx <= ambient.k):
                raise InputError(f"index {idx!r} out of range 1..{ambient.k}")
            coords[idx - 1] += 1
        return GroupElement(tuple(coords))
    if isinstance(ambient, InfinitePower) and isinstance(ambient.base, FreeAbelian):
        per_copy: dict[int, list] = {}
        for item in entries:
            try:
                coord, copy = item
            except (TypeError, ValueError):
                raise InputError(
                    "power indicator entries must be (coordinate, copy) pairs"
                )
            if not isinstance(copy, int) or copy < 1:
                raise InputError(f"copy index {copy!r} must be >= 1")
            per_copy.setdefault(copy, []).append(coord)
        return element(ambient, {c: indicator(coords, ambient.base).coords
                                 for c, coords in per_copy.items()})
    raise UnsupportedStructureError(
        "indicator requires a FreeAbelian or InfinitePower(FreeAbelian) ambient"
    )


# ---------------------------------------------------------------------------
# sampling and validation

def sample_member(d: SemigroupDescriptor, rng: random.Random) -> GroupElement:
    return GroupElement(d.sample(rng))


def sample_group(d: SemigroupDescriptor, rng: random.Random) -> GroupElement:
    a = sample_member(d, rng)
    b = sample_member(d, rng)
    return sub(d, a, b)


def _incomparable_lower_bound_witness(d: Numerical):
    """For a non-lattice numerical descriptor: smallest member pair with two
    maximal, mutually incomparable lower bounds (exhaustive in a window)."""
    frob = d.frobenius
    members = [m for m in d.members(frob + 4) if m > 0]
    for b in members:
        for a in members:
            if a >= b:
                break
            window = range(-(frob + 2), a + 1)
            lbs = [x for x in window
                   if d.contains(a - x) and d.contains(b - x)]
            maximal = [x for x in lbs
                       if not any(y != x and d.contains(y - x) for y in lbs)]
            bad = [(x, y) for x in maximal for y in maximal
                   if x < y and not d.contains(y - x)
                   and not d.contains(x - y)]
            if bad:
                return (a, b), sorted({bad[0][0], bad[0][1]}, reverse=True)
    return None


def validate_descriptor(
    d: SemigroupDescriptor, sample_budget: int = 1000, seed: int = 0
) -> ValidationVerdict:
    """Check unitality, closure (exact for numerical, sampled otherwise) and
    the lattice-order determination, with witnesses."""
    v = ValidationVerdict()
    e = unit(d)
    v.add("unit", contains(d, e), f"unit = {e.coords!r}")

    if isinstance(d, Numerical):
        # exhaustive: additivity can only fail at a gap below 2*frobenius
        upto = 2 * d.frobenius + 2
        ok = all(
            (a + b) not in d.gaps
            for a in d.members(upto)
            for b in d.members(upto)
            if a + b <= upto
        )
        v.add("closure", ok, "exact scan below twice the largest gap")
    else:
        rng = random.Random(seed)
        bad = None
        for _ in range(sample_budget):
            g, h = sample_member(d, rng), sample_member(d, rng)
            if not contains(d, add(d, g, h)):
                bad = (g, h)
                break
        v.add("closure", bad is None,
              f"{sample_budget} sampled pairs" if bad is None
              else f"violated at {bad[0].coords!r} + {bad[1].coords!r}")

    if d.lattice_ordered:
        rng = random.Random(seed + 1)
        law_fail = ""
        for _ in range(min(sample_budget, 200)):
            g = sample_group(d, rng)
            h = sample_group(d, rng)
            x = sample_group(d, rng)
            m_gh, j_gh = meet_join(d, g, h)
            m_hg, j_hg = meet_join(d, h, g)
            if (m_gh, j_gh) != (m_hg, j_hg):
                law_fail = "commutativity"
                break
            m1, _ = meet_join(d, m_gh, x)
            m2, _ = meet_join(d, g, meet_join(d, h, x)[0])
            if m1 != m2:
                law_fail = "associativity"
                break
            if meet_join(d, g, j_gh)[0] != g:  # absorption g ^ (g v h) = g
                law_fail = "absorption"
                break
            gp, gm = pos_neg_parts(d, g)
            if meet_join(d, gp, gm)[0] != unit(d):
                law_fail = "positive/negative parts"
                break
            if sub(d, gp, gm) != g:
                law_fail = "part reconstruction"
                break
        v.add("lattice_order", law_fail == "",
              "lattice laws hold on sampled triples" if not law_fail
              else f"lattice law violated: {law_fail}")
    elif isinstance(d, Numerical):
        witness = _incomparable_lower_bound_witness(d)
        if witness is None:
            v.add("lattice_order", True,
                  "not lattice ordered (no witness pair in scan window)")
        else:
            pair, bounds = witness
            v.add(
                "lattice_order", True,
                f"not lattice ordered: pair {pair} has incomparable maximal "
                f"lower bounds {bounds[0]} and {bounds[1]}",
            )
    else:
        v.add("lattice_order", True, "not lattice ordered (by construction)")
    return v

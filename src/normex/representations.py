"""Contractive matrix representations of semigroup descriptors.

A representation is specified by generator images plus an explicit relation
list; elements are evaluated through the deterministic factorization policy,
so commuting images make the evaluation a well-defined homomorphism (this is
sampled, not proved — see validate_rep, which returns a ValidationVerdict).
Each representation keeps the images it has formed in one bounded cache,
keyed by canonical member coordinate (and generator powers by index and
multiplicity), and read and written by ``_cached`` alone: ``eval_rep``
and the sampled checks' gather ``_image_table`` factorize an element and
multiply out its powers only when its coordinate misses.  A coordinate and
its factorization name each other one to one, so the cache needs no
second key.  Also here: the group kernel T~(g) = T(g_minus)* T(g_plus) and
the involution-pair kernel, one checked entry at a time.  No normal map is
built here: a representation extends to commuting normals exactly when its
generators do, so that question is asked of the generator images.
"""

from __future__ import annotations

import operator
import random
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import semigroups as sg
from .errors import InputError, UnsupportedStructureError
from .linalg import (
    CMatrix,
    _freeze,
    adjoint,
    cmatrix,
    commutator_residual,
    identity,
    largest,
    norm_excess,
    operator_norm,
    operator_norms,
)
from .semigroups import Factorization, GroupElement, SemigroupDescriptor

#: Default residual tolerance for representation-level validation.
DEFAULT_REP_TOL = 1e-9

#: Bytes of images one representation's cache holds; beyond them the least
#: recently used image goes first.  The largest representation of the
#: benchmark's oneshot pool holds about 620 images in 663 KiB.
_CACHE_BYTES = 16 << 20


@dataclass(frozen=True)
class Representation:
    descriptor: SemigroupDescriptor
    dimension: int
    generator_images: tuple[CMatrix, ...]
    relations: tuple[tuple[Factorization, Factorization], ...] = ()
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False,
                                compare=False)


def make_representation(
    descriptor: SemigroupDescriptor,
    images,
    relations=(),
) -> Representation:
    """Shape-check generator images; semantic checks live in validate_rep."""
    mats = tuple(cmatrix(m) for m in images)
    if len(mats) != descriptor.generator_count:
        raise InputError(
            f"expected {descriptor.generator_count} generator images, "
            f"got {len(mats)}"
        )
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise InputError(
                f"generator image {i} has shape {m.shape}, expected {(dim, dim)}"
            )
    rels = []
    for lhs, rhs in relations:
        lhs = lhs if isinstance(lhs, Factorization) else sg.factorization(lhs)
        rhs = rhs if isinstance(rhs, Factorization) else sg.factorization(rhs)
        for f in (lhs, rhs):
            for idx, _ in f.terms:
                if idx >= len(mats):
                    raise InputError(f"relation references generator {idx}")
        rels.append((lhs, rhs))
    return Representation(descriptor, dim, mats, tuple(rels))


def _cached(t: Representation, keys, make) -> list[CMatrix]:
    """The image cached under each key of ``keys``, in order, made by
    ``make(t, key)`` and frozen on a miss.  This is the one reader and
    writer of ``t._cache``.  A canonical member coordinate names its image,
    ("pow", index, multiplicity) a generator power; no coordinate holds a
    string, so the two never meet.  Every image is a dim x dim complex128
    matrix, so ``_CACHE_BYTES`` allows a fixed number of entries, and
    beyond it the least recently used entry is dropped.  Like the rest of
    a representation's evaluation, it serves one thread at a time."""
    cache = t._cache
    out = []
    for key in keys:
        image = cache.get(key)
        if image is None:
            image = cache[key] = _freeze(make(t, key))
            room = _CACHE_BYTES // max(1, image.nbytes)
            while len(cache) > room:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        out.append(image)
    return out


def _power(t: Representation, key) -> CMatrix:
    _, idx, mult = key
    return np.linalg.matrix_power(t.generator_images[idx], mult)


def product_of(t: Representation, fact: Factorization) -> CMatrix:
    """Matrix for a generator multiset: the cached powers multiplied in
    ascending generator order (deterministic)."""
    acc = identity(t.dimension)
    for idx, mult in fact.terms:
        acc = acc @ _cached(t, [("pow", idx, mult)], _power)[0]
    return _freeze(acc)


def _product_at(t: Representation, c) -> CMatrix:
    """product_of at the record's factorization of the member c."""
    return product_of(t, Factorization(
        tuple(sorted(t.descriptor.factorize(c).items()))))


def eval_rep(t: Representation, p: GroupElement) -> CMatrix:
    """Image of p, through the deterministic factorization; unit maps to I.
    p is checked for canonical form and membership before its coordinate
    is looked up, since 1 and True are equal keys."""
    return _cached(t, [sg._member(t.descriptor, p).coords], _product_at)[0]


def _image_table(t: Representation, coords):
    """Gather: the image of each distinct coordinate of ``coords``, once, in
    first-seen order, looked up in the cache and formed by product_of at
    the record's factorization on a miss.  It checks nothing: pass
    canonical members (1 and True are equal keys).  Returns each
    coordinate's index into the stack of images, and it."""
    slots = {}
    index = np.array([slots.setdefault(c, len(slots)) for c in coords], int)
    shape = (len(slots), t.dimension, t.dimension)  # also with no slots
    images = np.array(_cached(t, slots, _product_at),
                      np.complex128).reshape(shape)
    return index, images


# ---------------------------------------------------------------------------
# validation verdicts

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""
    advisory: bool = False

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ValidationVerdict:
    """Outcome of a validator: every check that ran, and the overall flag.

    Validators never raise on semantic failure; the verdict lists each check,
    so callers (and the CLI report) can show which property broke and by how
    much.  Every failing check vetoes.  Each serialized check carries an
    ``advisory`` flag, which no validator sets."""

    checks: list[ValidationCheck] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ValidationCheck(name, passed, detail))

    @property
    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}


def validate_rep(
    t: Representation,
    tol: float = DEFAULT_REP_TOL,
    sample_budget: int = 100,
    seed: int = 0,
) -> ValidationVerdict:
    """Contractivity, pairwise commutation, declared relations, and a sampled
    homomorphism check (the testable surrogate for well-definedness).  All
    ``sample_budget`` pairs (p, q) are drawn first; one gather evaluates each
    distinct element once, and one stacked product and one eigensolve give
    each ||T(p + q) - T(p) T(q)||, holding sample_budget * dim^2 entries."""
    v = ValidationVerdict()
    worst, bad = norm_excess(t.generator_images)
    v.add("contractive", worst <= tol,
          f"max norm excess {worst:.3e}"
          + (f" at generator {bad}" if bad is not None and worst > tol
             else ""))

    # the products of generators far from contractions may overflow; the
    # contractive check above reports them, so the overflow warns nothing
    with np.errstate(over="ignore", invalid="ignore"):
        comm, pair = commutator_residual(t.generator_images)
        rel_res, rel_bad = largest(
            ((lhs.as_dict(), rhs.as_dict()),
             operator_norm(product_of(t, lhs) - product_of(t, rhs)))
            for lhs, rhs in t.relations)
        d = t.descriptor
        rng = random.Random(seed)
        pairs = [(d.sample(rng), d.sample(rng)) for _ in range(sample_budget)]
        index, images = _image_table(t, [
            c for p, q in pairs
            for c in (d.pointwise(operator.add, p, q), p, q)])
        pq, p, q = (images[index[k::3]] for k in range(3))
        hom = float(largest(enumerate(operator_norms(pq - p @ q)))[0])
    v.add("commuting", comm <= tol,
          f"max commutator residual {comm:.3e}"
          + (f" at pair {pair}" if pair and not comm <= tol else ""))
    v.add("relations", rel_res <= tol,
          f"max relation residual {rel_res:.3e}"
          + (f" at {rel_bad}" if rel_bad and not rel_res <= tol else ""))
    # scaled: long products magnify commutator noise
    v.add("homomorphism_sampled", hom <= max(tol, 100 * comm + tol),
          f"max residual {hom:.3e} over {sample_budget} sampled pairs")
    return v


# ---------------------------------------------------------------------------
# group kernel and involution pairs

def tilde_eval(t: Representation, g: GroupElement) -> CMatrix:
    """T~(g) = T(g_minus)* T(g_plus) over a lattice-ordered descriptor."""
    d = t.descriptor
    if not d.lattice_ordered:
        raise UnsupportedStructureError(
            "tilde_eval requires a lattice-ordered descriptor"
        )
    g_plus, g_minus = sg.pos_neg_parts(d, g)
    if g_minus == sg.unit(d):
        return eval_rep(t, g_plus)
    return _freeze(adjoint(eval_rep(t, g_minus)) @ eval_rep(t, g_plus))


@dataclass(frozen=True)
class InvolutionPoint:
    """Pair (p, q) in Q = P x P; the involution swaps the components."""

    left: GroupElement
    right: GroupElement

    def star(self) -> "InvolutionPoint":
        return InvolutionPoint(self.right, self.left)


def involution_point(d: SemigroupDescriptor, left, right) -> InvolutionPoint:
    return InvolutionPoint(sg._member(d, left), sg._member(d, right))


def point_mul(
    d: SemigroupDescriptor, s: InvolutionPoint, t: InvolutionPoint
) -> InvolutionPoint:
    return InvolutionPoint(sg.add(d, s.left, t.left), sg.add(d, s.right, t.right))


def star_kernel(
    t: Representation, s: InvolutionPoint, u: InvolutionPoint
) -> CMatrix:
    """Kernel value T~(s* u) = T(left(s* u))* T(right(s* u)) on the
    involution pairs; components must lie in P (eval_rep raises
    MembershipError, left component first)."""
    x = point_mul(t.descriptor, s.star(), u)
    return _freeze(adjoint(eval_rep(t, x.left)) @ eval_rep(t, x.right))

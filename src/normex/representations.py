"""Contractive matrix representations of semigroup descriptors.

A representation is specified by generator images plus an explicit relation
list; elements are evaluated through the deterministic factorization policy,
so commuting images make the evaluation a well-defined homomorphism (this is
sampled, not proved — see validate_rep).  Also here: normal maps (finite
enumerated extensions), the group kernel T~(g) = T(g_minus)* T(g_plus), and
the involution-pair kernel used by the dilation-style positivity checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import semigroups as sg
from .errors import InputError, MembershipError, UnsupportedStructureError
from .linalg import (
    CMatrix,
    _freeze,
    adjoint,
    block_decompose,
    cmatrix,
    commutator_residual,
    identity,
    largest,
    norm_excess,
    operator_norm,
)
from .semigroups import Factorization, GroupElement, SemigroupDescriptor
from .validation import ValidationVerdict

#: Default residual tolerance for representation-level validation.
DEFAULT_REP_TOL = 1e-9


@dataclass(frozen=True)
class Representation:
    descriptor: SemigroupDescriptor
    dimension: int
    generator_images: tuple[CMatrix, ...]
    relations: tuple[tuple[Factorization, Factorization], ...] = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def make_representation(
    descriptor: SemigroupDescriptor,
    images,
    relations=(),
) -> Representation:
    """Shape-check generator images; semantic checks live in validate_rep."""
    mats = tuple(cmatrix(m) for m in images)
    if len(mats) != len(descriptor.generators):
        raise InputError(
            f"expected {len(descriptor.generators)} generator images, "
            f"got {len(mats)}"
        )
    if mats:
        dim = mats[0].shape[0]
    else:
        raise InputError("representation needs at least one generator image")
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


def _image_power(t: Representation, idx: int, mult: int) -> CMatrix:
    key = ("pow", idx, mult)
    hit = t._cache.get(key)
    if hit is None:
        hit = _freeze(np.linalg.matrix_power(t.generator_images[idx], mult))
        t._cache[key] = hit
    return hit


def product_of(t: Representation, fact: Factorization) -> CMatrix:
    """Matrix for a generator multiset: powers multiplied in ascending
    generator order (deterministic)."""
    key = ("prod", fact.terms)
    hit = t._cache.get(key)
    if hit is None:
        acc = identity(t.dimension)
        for idx, mult in fact.terms:
            acc = acc @ _image_power(t, idx, mult)
        hit = _freeze(acc)
        t._cache[key] = hit
    return hit


def eval_rep(t: Representation, p: GroupElement) -> CMatrix:
    """Image of p, through the deterministic factorization; unit maps to I."""
    fact = sg.factorize(t.descriptor, p)
    return product_of(t, fact)


def validate_rep(
    t: Representation,
    tol: float = DEFAULT_REP_TOL,
    sample_budget: int = 100,
    seed: int = 0,
) -> ValidationVerdict:
    """Contractivity, pairwise commutation, declared relations, and a sampled
    homomorphism check (the testable surrogate for well-definedness)."""
    v = ValidationVerdict()
    worst, bad = norm_excess(t.generator_images)
    v.add("contractive", worst <= tol,
          f"max norm excess {worst:.3e}"
          + (f" at generator {bad}" if bad is not None and worst > tol
             else ""))

    comm, pair = commutator_residual(t.generator_images)
    v.add("commuting", comm <= tol,
          f"max commutator residual {comm:.3e}"
          + (f" at pair {pair}" if pair and comm > tol else ""))

    rel_res, rel_bad = largest(
        ((lhs.as_dict(), rhs.as_dict()),
         operator_norm(product_of(t, lhs) - product_of(t, rhs)))
        for lhs, rhs in t.relations)
    v.add("relations", rel_res <= tol,
          f"max relation residual {rel_res:.3e}"
          + (f" at {rel_bad}" if rel_bad and rel_res > tol else ""))

    if t.descriptor.finitely_generated:
        rng = random.Random(seed)
        hom = 0.0
        for _ in range(sample_budget):
            p = sg.sample_member(t.descriptor, rng)
            q = sg.sample_member(t.descriptor, rng)
            r = operator_norm(
                eval_rep(t, sg.add(t.descriptor, p, q))
                - eval_rep(t, p) @ eval_rep(t, q)
            )
            hom = max(hom, r)
        # scaled: long products magnify commutator noise
        v.add("homomorphism_sampled", hom <= max(tol, 100 * comm + tol),
              f"max residual {hom:.3e} over {sample_budget} sampled pairs")
    return v


# ---------------------------------------------------------------------------
# normal maps

@dataclass(frozen=True)
class NormalMap:
    base: Representation
    ambient_dim: int
    images: tuple[tuple[GroupElement, CMatrix], ...]


def make_normal_map(base: Representation, ambient_dim: int, images) -> NormalMap:
    if ambient_dim < base.dimension:
        raise InputError(
            f"ambient dimension {ambient_dim} smaller than base {base.dimension}"
        )
    pairs = []
    items = images.items() if isinstance(images, dict) else images
    for p, m in items:
        p = sg.element(base.descriptor, p)
        m = cmatrix(m)
        if m.shape != (ambient_dim, ambient_dim):
            raise InputError(
                f"image at {p.coords!r} has shape {m.shape}, "
                f"expected {(ambient_dim, ambient_dim)}"
            )
        pairs.append((p, m))
    return NormalMap(base, ambient_dim, tuple(pairs))


def validate_normal_map(
    n: NormalMap, tol: float = DEFAULT_REP_TOL
) -> ValidationVerdict:
    """Normality, commutation, *-commutation (doubly-commuting consequence),
    contractivity and the extension blocks against the base representation."""
    v = ValidationVerdict()
    mats = [m for _, m in n.images]

    norm_res, norm_bad = largest(
        (p.coords, operator_norm(adjoint(m) @ m - m @ adjoint(m)))
        for p, m in n.images)
    v.add("normal", norm_res <= tol,
          f"max normality residual {norm_res:.3e}"
          + (f" at {norm_bad!r}" if norm_bad is not None and norm_res > tol
             else ""))
    contr = norm_excess(mats)[0]
    v.add("contractive", contr <= tol, f"max norm excess {contr:.3e}")

    comm = commutator_residual(mats)[0]
    star_comm = commutator_residual(mats, [adjoint(m) for m in mats])[0]
    v.add("commuting", comm <= tol, f"max commutator residual {comm:.3e}")
    v.add("star_commuting", star_comm <= tol,
          f"max adjoint-commutator residual {star_comm:.3e}")

    ext_lower, ext_corner = 0.0, 0.0
    h = n.base.dimension
    for p, m in n.images:
        bd = block_decompose(m, h)
        ext_lower = max(ext_lower, operator_norm(bd.lower_left))
        ext_corner = max(
            ext_corner, operator_norm(bd.corner - eval_rep(n.base, p))
        )
    v.add("extension_invariant_subspace", ext_lower <= tol,
          f"max lower-left block norm {ext_lower:.3e}")
    v.add("extension_corner", ext_corner <= tol,
          f"max corner mismatch {ext_corner:.3e}")

    e = sg.unit(n.base.descriptor)
    unital = next((m for p, m in n.images if p == e), None)
    if unital is not None:
        r = operator_norm(unital - identity(n.ambient_dim))
        # advisory: unitality of the extension is expected but not part of
        # the enumerated-set contract
        v.add("unital", r <= tol, f"residual at unit {r:.3e}", advisory=True)
    else:
        v.add("unital", True, "unit not in the enumerated set", advisory=True)
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
    return adjoint(eval_rep(t, g_minus)) @ eval_rep(t, g_plus)


@dataclass(frozen=True)
class InvolutionPoint:
    """Pair (p, q) in Q = P x P; the involution swaps the components."""

    left: GroupElement
    right: GroupElement

    def star(self) -> "InvolutionPoint":
        return InvolutionPoint(self.right, self.left)


def involution_point(d: SemigroupDescriptor, left, right) -> InvolutionPoint:
    pt = InvolutionPoint(sg.element(d, left), sg.element(d, right))
    for comp in (pt.left, pt.right):
        if not sg.contains(d, comp):
            raise MembershipError(f"{comp.coords!r} is not in the semigroup")
    return pt


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
    return adjoint(eval_rep(t, x.left)) @ eval_rep(t, x.right)

"""Constructive oracles and the example gallery.

Provides jointly diagonal commuting normal tuples, Kolmogorov factorization
of PSD block kernels, convex averaging over dilation families with the
three-block convention [front | distinguished | rear], and named desk-scale
examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import semigroups as sg
from .errors import InputError, NotPsdError
from .linalg import (
    CMatrix,
    _freeze,
    block_assemble,
    cmatrix,
    hermitian_eig,
    operator_norm,
    psd_check,
)
from .representations import make_representation
from .semigroups import SemigroupDescriptor, _is_int

#: PSD admission tolerance for kernels sent to the factorizer; tighter than
#: the generic default so admitted kernels meet the roundtrip bound.
KOLMOGOROV_TOL = 1e-9


def make_commuting_normals(seed: int, dim: int, m: int) -> list[CMatrix]:
    """m jointly diagonalized normal contractions N_i = W D_i W*: a seeded
    random unitary W and diagonals in the closed unit disk.  Normality,
    commutation and *-commutation hold by construction."""
    if dim < 1 or m < 1:
        raise InputError("dim and m must be >= 1")
    if not _is_int(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    w = q * (d / np.abs(d))  # pin column phases: deterministic unitary
    out = []
    for _ in range(m):
        radii = rng.uniform(0.0, 1.0, dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, dim)
        diag = radii * np.exp(1j * phases)
        out.append(_freeze(w @ np.diag(diag) @ np.conj(w).T))
    return out


def kolmogorov_factor(grid, tol: float = KOLMOGOROV_TOL) -> list[CMatrix]:
    """Factor a PSD block kernel K as K_ij = V_i* V_j via the spectral square
    root of the assembled matrix, column-partitioned.  Raises NotPsdError
    (carrying the margin) when the kernel fails the PSD gate."""
    rows = [list(r) for r in grid]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InputError("kernel grid must be square and non-empty")
    blocks = [[np.asarray(b, dtype=np.complex128) for b in r] for r in rows]
    d = blocks[0][0].shape[0]
    for r in blocks:
        for b in r:
            if b.shape != (d, d):
                raise InputError("kernel blocks must be square with equal size")
    assembled = block_assemble(blocks)
    verdict = psd_check(assembled, tol)
    if not verdict.is_psd:
        raise NotPsdError(verdict.min_eigenvalue, verdict.tolerance_used)
    w, v = hermitian_eig(assembled)
    root = np.diag(np.sqrt(np.clip(w, 0.0, None))) @ np.conj(v).T
    return [_freeze(root[:, i * d:(i + 1) * d].copy()) for i in range(n)]


# ---------------------------------------------------------------------------
# dilation families and convex averaging

@dataclass(frozen=True)
class DilationFamily:
    """Commuting unitaries sharing one compression to the distinguished
    block, in the fixed coordinate convention [front | distinguished | rear]
    (sizes front_dim, subspace_dim, rest)."""

    members: tuple[CMatrix, ...]
    ambient_dim: int
    front_dim: int
    subspace_dim: int

    @property
    def rear_dim(self) -> int:
        return self.ambient_dim - self.front_dim - self.subspace_dim

    def corner_of(self, a: CMatrix) -> CMatrix:
        lo = self.front_dim
        hi = lo + self.subspace_dim
        return _freeze(np.asarray(a)[lo:hi, lo:hi].copy())

    def defect_of(self, a: CMatrix) -> CMatrix:
        lo = self.front_dim
        hi = lo + self.subspace_dim
        return _freeze(np.asarray(a)[hi:, lo:hi].copy())


def make_dilation_family(
    members, front_dim: int, subspace_dim: int
) -> DilationFamily:
    mats = tuple(cmatrix(m) for m in members)
    if not mats:
        raise InputError("family needs at least one member")
    ambient = mats[0].shape[0]
    for m in mats:
        if m.shape != (ambient, ambient):
            raise InputError("members must be square with equal shape")
    if front_dim < 0 or subspace_dim < 1 \
            or front_dim + subspace_dim > ambient:
        raise InputError("block sizes must fit inside the ambient dimension")
    return DilationFamily(mats, ambient, front_dim, subspace_dim)


@dataclass(frozen=True)
class ConvexWeights:
    """Finitely supported convex coefficients, kept as exact rationals so the
    simplex identity and the l2-norm are exact."""

    weights: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def norm2_squared(self) -> Fraction:
        return sum((w * w for w in self.weights), Fraction(0))

    @property
    def norm2(self) -> float:
        return math.sqrt(float(self.norm2_squared))


def convex_weights(values) -> ConvexWeights:
    ws = []
    for v in values:
        if isinstance(v, float):
            v = Fraction(v)  # exact binary value of the float
        elif isinstance(v, int):
            v = Fraction(v)
        elif not isinstance(v, Fraction):
            raise InputError(f"weight {v!r} must be numeric")
        if not (0 <= v <= 1):
            raise InputError(f"weight {v} outside [0, 1]")
        ws.append(v)
    w = ConvexWeights(tuple(ws))
    if abs(w.total - 1) > Fraction(1, 10 ** 15):
        raise InputError(f"weights sum to {float(w.total)!r}, not 1")
    return w


def uniform_weights(n: int) -> ConvexWeights:
    if n < 1:
        raise InputError("need at least one weight")
    return ConvexWeights((Fraction(1, n),) * n)


def convex_average(
    f: DilationFamily, w: ConvexWeights
) -> tuple[CMatrix, float, float]:
    """Weighted member average N = sum_i w_i U_i; returns (N, ||defect
    block of N||, ||w||_2).  For families with pairwise-orthogonal defect
    blocks the defect norm is controlled by the l2-norm of the weights,
    which is what makes the averaged dilation nearly an extension."""
    if not isinstance(w, ConvexWeights):
        w = convex_weights(w)
    if len(w.weights) > len(f.members):
        raise InputError(
            f"{len(w.weights)} weights exceed the {len(f.members)}-member family"
        )
    avg = np.zeros((f.ambient_dim, f.ambient_dim), dtype=np.complex128)
    for wi, ui in zip(w.weights, f.members):
        avg += float(wi) * ui
    avg = _freeze(avg)
    return avg, float(operator_norm(f.defect_of(avg))), w.norm2


def make_orthogonal_defect_family(corner: complex, n: int) -> DilationFamily:
    """Commuting unitaries on a 2^n-dimensional space with a one-dimensional
    distinguished subspace (first coordinate), every compression equal to
    ``corner``, and pairwise-orthogonal defect blocks of norm
    sqrt(1 - |corner|^2): member i rotates the i-th tensor slot of the
    distinguished vector into its own orthogonal direction."""
    t = complex(corner)
    if abs(t) > 1:
        raise InputError("corner must lie in the closed unit disk")
    if n < 1:
        raise InputError("need at least one member")
    s = math.sqrt(max(0.0, 1.0 - abs(t) ** 2))
    slot = np.array([[t, -s], [s, np.conj(t)]], dtype=np.complex128)
    eye2 = np.eye(2, dtype=np.complex128)
    members = []
    for i in range(n):
        u = np.array([[1.0 + 0j]])
        for j in range(n):
            u = np.kron(u, slot if j == i else eye2)
        members.append(u)
    return make_dilation_family(members, front_dim=0, subspace_dim=1)


# ---------------------------------------------------------------------------
# the gallery

def _neil_descriptor() -> SemigroupDescriptor:
    return sg.numerical({1})


def make_gallery(case: str, **params):
    """Named examples addressable from the CLI.  Cases:

    jordan(dim)                 nilpotent Jordan block
    truncated_shift(weights)    finite weighted shift, |w_i| <= 1
    neil_scalar(lam)            gap-semigroup rep n -> lam^n, |lam| <= 1
    neil_matrix(a)              gap-semigroup rep n -> A^n for a contraction
    unitary_rep(k, angles)      commuting diagonal unitaries on k generators
    normal_pair(seed, dim)      two jointly diagonal normal contractions
    """
    if case == "jordan":
        dim = int(params.get("dim", 2))
        if dim < 1:
            raise InputError("jordan dimension must be >= 1")
        return cmatrix(np.eye(dim, k=1))
    if case == "truncated_shift":
        weights = [complex(w) for w in params["weights"]]
        if not weights:
            raise InputError("truncated_shift needs at least one weight")
        if not all(abs(w) <= 1 for w in weights):  # NaN fails too
            raise InputError("shift weights must satisfy |w| <= 1")
        return cmatrix(np.diag(weights, k=-1))
    if case == "neil_scalar":
        lam = complex(params["lam"])
        if not abs(lam) <= 1:  # NaN fails too
            raise InputError("scalar must satisfy |lam| <= 1")
        return make_representation(
            _neil_descriptor(),
            [[[lam ** 2]], [[lam ** 3]]],
            relations=[({0: 3}, {1: 2})],
        )
    if case == "neil_matrix":
        a = cmatrix(params["a"])
        if operator_norm(a) > 1 + 1e-12:
            raise InputError("matrix must be a contraction")
        return make_representation(
            _neil_descriptor(),
            [a @ a, a @ a @ a],
            relations=[({0: 3}, {1: 2})],
        )
    if case == "unitary_rep":
        angles = np.asarray(params["angles"], dtype=float)
        if angles.ndim != 2:
            raise InputError("angles must be a k x dim array")
        k = int(params.get("k", angles.shape[0]))
        if k != angles.shape[0]:
            raise InputError("angle rows must match the generator count")
        images = [np.diag(np.exp(1j * row)) for row in angles]
        return make_representation(sg.free_abelian(k), images)
    if case == "normal_pair":
        seed = int(params.get("seed", 0))
        dim = int(params.get("dim", 4))
        images = make_commuting_normals(seed, dim, 2)
        return make_representation(sg.free_abelian(2), images)
    raise InputError(f"unknown gallery case {case!r}")

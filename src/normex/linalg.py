"""Dense complex matrix kernel.

All operator data in this package is carried by immutable (read-only) numpy
``complex128`` arrays; ``cmatrix`` is the sole constructor and enforces the
finiteness invariant.  Exactness lives in the semigroup layer — this layer is
plain 64-bit floating point with explicit, scaled tolerances on every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotHermitianError

# A CMatrix is a read-only 2-D complex128 ndarray produced by cmatrix().
CMatrix = np.ndarray

#: Default PSD tolerance; every verdict scales it by max(1, ||H||), H the
#: Hermitian part of the checked matrix.
DEFAULT_PSD_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    return a


def cmatrix(data) -> CMatrix:
    """Build an immutable complex matrix, rejecting non-finite entries."""
    a = np.array(data, dtype=np.complex128, order="C")
    if a.ndim != 2:
        raise InputError(f"matrix data must be 2-dimensional, got ndim={a.ndim}")
    return _freeze(_finite(a))


def identity(n: int) -> CMatrix:
    if n < 0:
        raise InputError("dimension must be non-negative")
    return _freeze(np.eye(n, dtype=np.complex128))


def adjoint(a: CMatrix) -> CMatrix:
    return _freeze(np.conj(a).T.copy())


def operator_norm(a: CMatrix) -> float:
    """Largest singular value, via the top eigenvalue of A*A."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    gram = np.conj(a).T @ a
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def operator_norms(a) -> np.ndarray:
    """operator_norm of each matrix in a stack (k, m, n), bitwise, from one
    stacked Gram product and one batched eigensolve."""
    top = np.linalg.eigvalsh(np.conj(a).swapaxes(-1, -2) @ a)[..., -1:]
    return np.sqrt(top.max(axis=-1, initial=0.0))  # 0 for an empty matrix


def largest(pairs) -> tuple[float, object]:
    """The largest residual over (key, residual) pairs, floored at 0, and the
    first key attaining it (None when no residual is positive)."""
    worst, at = 0.0, None
    for key, r in pairs:
        if r > worst:
            worst, at = r, key
    return worst, at


def norm_excess(mats) -> tuple[float, int | None]:
    """How far a tuple is from being contractive: the largest ||M_i|| - 1,
    floored at 0, and the first index attaining it (None when no operator
    exceeds norm 1)."""
    return largest(enumerate(operator_norm(m) - 1.0 for m in mats))


def commutator_residual(mats, others=None) -> tuple[float, tuple | None]:
    """Largest ||A_i B_j - B_j A_i|| over i < j with B = ``others`` (default
    ``mats`` itself; the adjoints give the *-commutator), and the first pair
    (i, j) attaining it (None when every commutator vanishes)."""
    others = mats if others is None else others
    return largest(
        ((i, j), operator_norm(mats[i] @ others[j] - others[j] @ mats[i]))
        for i in range(len(mats)) for j in range(i + 1, len(mats)))


def hermitian_eig(a: CMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of ``a``.

    The symmetric method is the LAPACK Hermitian solver; the test suite checks
    its residuals against the documented 1e-10 bounds and cross-validates PSD
    verdicts with an independent pivoted-factorization oracle.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("hermitian_eig requires a square matrix")
    h = (a + np.conj(a).T) / 2.0
    w, v = np.linalg.eigh(h)
    return w, v


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    hermitian_defect: float
    tolerance_used: float

    def as_dict(self) -> dict:
        return {
            "is_psd": self.is_psd,
            "min_eigenvalue": self.min_eigenvalue,
            "hermitian_defect": self.hermitian_defect,
            "tolerance_used": self.tolerance_used,
        }


def psd_check(a: CMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdVerdict:
    """Positive-semidefiniteness verdict with explicit margin, from one
    eigensolve of the Hermitian part H = (A + A*)/2.

    The tolerance is scaled by max(1, ||H||), with ||H|| read off the same
    spectrum.  The Hermitian defect ||A - A*|| is bounded by its Frobenius
    norm; only when that bound exceeds the scaled tolerance is the spectral
    norm computed, and a spectral defect beyond the tolerance raises
    NotHermitianError — a modeling bug, deliberately distinct from a
    negative verdict.  ``hermitian_defect`` reports the bound that decided:
    the Frobenius norm, or the spectral norm when that was computed.
    A NaN or infinite entry raises InputError before any arithmetic that
    could warn; a matrix whose Frobenius norm exceeds 2^400 is first divided
    by a power of two (exactly), so that no step overflows, and the results
    are scaled back.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("psd_check requires a square matrix")
    if a.shape[0] == 0:
        return PsdVerdict(True, 0.0, 0.0, tol)
    scale = 1.0
    if not np.vdot(a, a).real < 2.0 ** 800:  # ||A||_F^2: NaN, inf or huge
        peak = float(np.abs(a).max())
        if not math.isfinite(peak):
            raise InputError("matrix entries must be finite (no NaN/Inf)")
        scale = 2.0 ** (math.frexp(peak)[1] - 1)
        a = a / scale
    adj = np.conj(a).T
    skew = a - adj
    spectrum = np.linalg.eigvalsh((a + adj) / 2.0)
    min_eig = float(spectrum[0]) * scale
    tolerance = tol * max(1.0, -min_eig, float(spectrum[-1]) * scale)
    defect = math.sqrt(np.vdot(skew, skew).real) * scale
    if defect > tolerance:
        defect = operator_norm(skew) * scale
        if defect > tolerance:
            raise NotHermitianError(defect, tolerance)
    return PsdVerdict(min_eig >= -tolerance, min_eig, defect, tolerance)


def loewner_leq(a: CMatrix, b: CMatrix, tol: float = DEFAULT_PSD_TOL) -> PsdVerdict:
    """Verdict for A <= B in the Loewner order, i.e. psd_check(B - A);
    both sides must be finite."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch {a.shape} vs {b.shape}")
    return psd_check(_finite(b) - _finite(a), tol)


def block_assemble(grid) -> CMatrix:
    """Concatenate a rectangular grid of blocks into one matrix."""
    rows = [list(r) for r in grid]
    if not rows or not rows[0]:
        raise InputError("block grid must be non-empty")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise InputError("block grid must be rectangular")
    blocks = [[np.asarray(b, dtype=np.complex128) for b in r] for r in rows]
    heights = [r[0].shape[0] for r in blocks]
    widths = [b.shape[1] for b in blocks[0]]
    for i, r in enumerate(blocks):
        for j, b in enumerate(r):
            if b.ndim != 2 or b.shape != (heights[i], widths[j]):
                raise InputError(
                    f"block ({i},{j}) has shape {b.shape}, "
                    f"expected {(heights[i], widths[j])}"
                )
    return _freeze(np.block(blocks))


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 block view of a square matrix relative to H = first coordinates."""

    corner: CMatrix       # P_H N|_H
    upper_right: CMatrix  # H <- complement
    lower_left: CMatrix   # complement <- H
    complement: CMatrix   # complement <- complement
    subspace_dim: int

    def reassemble(self) -> CMatrix:
        n = self.subspace_dim + self.complement.shape[0]
        out = np.empty((n, n), dtype=np.complex128)
        k = self.subspace_dim
        out[:k, :k] = self.corner
        out[:k, k:] = self.upper_right
        out[k:, :k] = self.lower_left
        out[k:, k:] = self.complement
        return _freeze(out)


def block_decompose(n_mat: CMatrix, subspace_dim: int) -> BlockDecomposition:
    """Split a square matrix along the span of the first ``subspace_dim``
    coordinates; callers rotate beforehand if their subspace is not
    coordinate-aligned."""
    a = np.asarray(n_mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("block_decompose requires a square matrix")
    n = a.shape[0]
    if not (0 <= subspace_dim <= n):
        raise InputError(f"subspace_dim {subspace_dim} out of range [0, {n}]")
    k = subspace_dim
    return BlockDecomposition(
        corner=_freeze(a[:k, :k].copy()),
        upper_right=_freeze(a[:k, k:].copy()),
        lower_left=_freeze(a[k:, :k].copy()),
        complement=_freeze(a[k:, k:].copy()),
        subspace_dim=k,
    )

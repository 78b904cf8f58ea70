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


_NOT_FINITE = "matrix entries must be finite (no NaN/Inf)"


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InputError(_NOT_FINITE)
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
    """Largest singular value: the one-matrix case of ``operator_norms``,
    without stacking the matrix."""
    return operator_norms(np.asarray(a)).item()


def _scales(a, peak) -> np.ndarray:
    """The exact power-of-two divisor of each matrix of a stack ``a``
    (..., m, n) whose ||A||_F^2 is not below 2^800: 2^(e - 1) for its
    largest entry ``peak`` in [2^(e - 1), 2^e); 1 for every other matrix,
    so that what is not rescaled keeps its bits."""
    huge = np.array([not float(np.vdot(x, x).real) < 2.0 ** 800
                     for x in a.reshape(-1, *a.shape[-2:])],
                    dtype=bool).reshape(peak.shape)
    return np.where(huge, 2.0 ** (np.frexp(peak)[1] - 1.0), 1.0)


def operator_norms(a, gram=None) -> np.ndarray:
    """The largest singular value of each matrix in a stack (..., m, n), via
    the top eigenvalue of A*A: one stacked Gram product, or ``gram`` when
    the caller has formed it, and one batched eigensolve.  The root is
    taken in float64, whatever the input's precision, and a matrix without
    columns has norm 0.  A Gram product of entries beyond about 2^511
    overflows: unless one ``np.vdot`` over the whole stack, below 2^799,
    clears every matrix, each matrix is normed on its rescale
    (``_scales``; ``gram`` unused), as in ``psd_check``, so that a finite
    norm is reported finite."""
    a = np.asarray(a)
    if not a.shape[-1]:  # an empty Gram matrix has no eigenvalue
        return np.zeros(a.shape[:-2])
    scale = 1.0
    if not float(np.vdot(a, a).real) < 2.0 ** 799:  # NaN, inf or perhaps huge
        scale = _scales(a, np.abs(a).max(axis=(-2, -1)))
        a, gram = a / scale[..., None, None], None
    if gram is None:
        gram = np.conj(a).swapaxes(-1, -2) @ a
    top = np.linalg.eigvalsh(gram)[..., -1]
    with np.errstate(over="ignore"):  # scaled back, a norm may overflow
        return np.sqrt(np.maximum(0.0, top, dtype=float)) * scale


def largest(pairs) -> tuple[float, object]:
    """The largest residual over (key, residual) pairs, floored at 0, and the
    first key attaining it (None when no residual is positive).  A NaN
    residual, the trace of an overflow, is larger than any other, so a
    check that compares the result with a tolerance fails on it."""
    worst, at = 0.0, None
    for key, r in pairs:
        if r > worst or (r != r and worst == worst):  # the first NaN wins
            worst, at = r, key
    return worst, at


#: Matrix entries per stack of the gate's scans and per group of the
#: generator sweep: matrices of order <= 8 go 32 or more to one batched
#: call, where Python dispatch would dominate; a matrix of order >= 46,
#: whose factorization dominates, goes alone.  A complex stack then holds
#: at most 32 KiB or one matrix (64 KiB at order 64), below glibc's
#: 128 KiB mmap threshold, so its temporaries fault no fresh pages.
_GROUP_ENTRIES = 2048


def _group_size(n: int) -> int:
    """How many n x n matrices one stack holds: max(1, 2048 // n^2)."""
    return max(1, _GROUP_ENTRIES // max(1, n * n))


def _cholesky_clears(h, c: float) -> bool:
    """Whether one batched Cholesky factorization of H - cI completes for
    every matrix H of the stack ``h`` (each read from its lower triangle),
    which it shifts in place.  This is the one place where a matrix is
    factored to decide positivity: a completed factorization shows that
    each H exceeds cI up to the rounding that the caller's slack covers
    (see ``norm_excess``)."""
    n = h.shape[-1]
    h.reshape(-1, n * n)[:, ::n + 1] -= c
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def norm_excess(mats) -> tuple[float, int | None]:
    """How far a tuple is from being contractive: the largest ||M_i|| - 1,
    floored at 0, and the first index attaining it (None when no operator
    exceeds norm 1).

    The matrices go in stacks of at most ``_group_size(n)`` (n the order),
    and each stack's Gram matrices G_i = M_i* M_i are formed once.  One
    batched Cholesky of (1 - s)I - G_i, with s = 64 n^2 u (u = 2^-53 the
    unit roundoff of the complex128 matrices every route passes), screens
    the stack first: if it completes, no excess of the stack is positive,
    bitwise what the eigensolve path finds, since that path floors at 0.
    A Gram diagonal entry >= 1 - s (a column of norm about 1, as in a
    unitary or a shift) makes that diagonal entry of (1 - s)I - G_i, and so
    a pivot, <= 0, so the factorization must fail and is not tried.  A
    stack the screen does not clear gets its norms from one
    ``operator_norms`` call on the same G, which rescales a stack whose
    Gram product overflows.
    Write G for the Hermitian matrix of one computed Gram product's lower
    triangle, which both LAPACK routines read, t for the top eigenvalue
    that eigvalsh computes from it, and A = fl((1 - s)I - G), where 1 - s
    is exact and A_ii <= 1 because g_ii >= 0, so trace(A) <= n.  To first
    order in u, and with ||G||_2 <= 1 + O(u) once the factorization
    completes (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3):
    - Cholesky's backward error (Higham, Thm 10.3): a factorization that
      completes is exact for A + dA with ||dA||_2 <= gamma_{n+1} trace(A)
      <= (n + 1) n u; so lambda_min(A) > -(n + 1) n u;
    - the rounding of the shifted diagonal is at most u (1 + g_ii) <= 2u,
      so lambda_max(G) <= 1 - s + ((n + 1) n + 2) u;
    - eigvalsh's backward error gives t <= lambda_max(G) + p(n) u for a
      modest p(n).
    So t <= 1 whenever p(n) <= 63 n^2 - n - 2, which is 60 at n = 1
    (where eigvalsh is exact) and grows as n^2; then sqrt(max(0, t)) <= 1,
    and no excess is positive."""
    n = np.shape(mats[0])[-1] if len(mats) else 0
    if not n:  # no matrix, or every matrix has norm 0
        return 0.0, None
    s, size = 64 * n * n * 2.0 ** -53, _group_size(n)
    worst, at = 0.0, None
    # a Gram product of entries beyond about 2^511 overflows, and its stack
    # never clears: operator_norms then norms it rescaled
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(mats), size):
            a = np.asarray(mats[lo:lo + size])
            gram = np.conj(a).swapaxes(-1, -2) @ a
            diag = gram.reshape(len(a), -1)[:, ::n + 1].real
            if diag.max() < 1.0 - s and _cholesky_clears(-gram, s - 1.0):
                continue
            excess, i = largest(enumerate(
                (operator_norms(a, gram) - 1.0).tolist()))
            if excess > worst:
                worst, at = excess, lo + i
    return worst, at


def _summand_labels(a) -> np.ndarray | None:
    """The finest simultaneous block-diagonal form of a stack ``a`` (k, n,
    n), up to a permutation of the coordinates: label[j] is the least
    coordinate of the summand that holds coordinate j, or None when there
    is one summand.  The summands are the connected components of the
    pattern a_i[x, y] != 0 for some i, symmetrized, an exact zero test;
    each coordinate takes the least label among its neighbours, then the
    label of that label, until no label moves.  A tuple whose pattern is
    full once symmetrized (a tuple without a zero entry, say) leaves after
    one ``any`` over the stack, and one whose every coordinate neighbours
    coordinate 0 after one step."""
    link = a.any(axis=0)
    link |= link.T
    n = link.shape[0]
    link.reshape(-1)[::n + 1] = True
    if np.count_nonzero(link) == n * n:
        return None
    label = np.arange(n)
    while True:
        low = np.where(link, label, n).min(axis=1)
        if not np.count_nonzero(low):
            return None
        low = low[low]
        if not np.count_nonzero(low - label):
            return label
        label = low


def _commutators(mats, others=None):
    """The pairs (i, j), i < j, of a tuple, with their commutators
    A_i B_j - B_j A_i (B = ``others``, default ``mats`` itself), as
    consecutive (pairs, stack) chunks of at most ``_group_size(n)``
    pairs."""
    a = [np.asarray(x) for x in mats]
    b = a if others is None else [np.asarray(x) for x in others]
    pairs = [(i, j) for i in range(len(a)) for j in range(i + 1, len(a))]
    size = _group_size(a[0].shape[-1]) if a else 1
    for lo in range(0, len(pairs), size):
        chunk = pairs[lo:lo + size]
        left = np.array([a[i] for i, _ in chunk])
        right = np.array([b[j] for _, j in chunk])
        yield chunk, left @ right - right @ left


def commutator_residual(mats, others=None) -> tuple[float, tuple | None]:
    """Largest ||A_i B_j - B_j A_i|| over i < j with B = ``others`` (default
    ``mats`` itself; the adjoints give the *-commutator), and the first pair
    (i, j) attaining it (None when every commutator vanishes).  The
    commutators are formed in stacks of at most one group
    (``_commutators``), each normed by one ``operator_norms`` call."""
    return largest((pair, r) for pairs, c in _commutators(mats, others)
                   for pair, r in zip(pairs, operator_norms(c).tolist()))


def hermitian_eig(a: CMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of
    ``a``, both read-only.

    The symmetric method is the LAPACK Hermitian solver; the test suite checks
    its residuals against the documented 1e-10 bounds and cross-validates PSD
    verdicts with an independent pivoted-factorization oracle.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("hermitian_eig requires a square matrix")
    h = (a + np.conj(a).T) / 2.0
    w, v = np.linalg.eigh(h)
    return _freeze(w), _freeze(v)


#: The golden angle: generator k (from 1) enters ``joint_spectrum``'s
#: combination with weight e^{i k theta}; theta / pi is irrational, so no
#: two weights are equal or opposite, and no two generators cancel.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: The rounding level of a joint eigenbasis residual, in units of n^2 u
#: (u = 2^-53): sixteen times the 2 n^2 u that the two products forming
#: W* T_i W may round by on their own.  Its per-entry share, 32 n u, is
#: sixteen times the 2 n u by which one entry of those products may round:
#: ``joint_spectrum`` takes an entry off the diagonal above it as a link
#: between two columns, so a basis without a link has r < 32 n^2 u.
_ROUNDING_LEVEL = 32


def joint_spectrum(mats):
    """The joint eigenvalues of a tuple of n x n matrices T_1..T_m in an
    eigenbasis W, and how far W is from diagonalizing them: yields the
    table lam[i, j] = (W* T_i W)_jj, shape (m, n), and the residual
    r = max_i ||W* T_i W - diag(lam[i])||_F, for one basis and, when asked
    for more, for at most one refined basis.

    The first W holds the eigenvectors (``hermitian_eig``) of the Hermitian
    part of sum_k e^{i k theta} T_k, theta the golden angle: one fixed real
    combination of the Hermitian parts (T_k + T_k*)/2 and (T_k - T_k*)/2i,
    with no random state.  For commuting normal T_k it has the joint
    eigenvectors as eigenvectors, with eigenvalues
    sum_k Re(e^{i k theta} lam[k, j]); where distinct joint eigenvalues
    share one of these up to rounding, W mixes them and r shows it.

    The refinement deflates such clusters.  Two columns are linked when an
    entry between them of some W* T_i W exceeds ``_ROUNDING_LEVEL`` n u,
    and linked columns form groups (``_summand_labels``).  Each group G of
    2 to n - 1 columns is re-diagonalized by the eigenvectors V of the
    Hermitian part of sum_k e^{i (k theta + 1)} (W* T_k W)[G, G], the same
    weights turned by e^i, and W[:, G] becomes W[:, G] V; then the table
    is formed again.  A cluster of commuting normals is invariant, and the
    turned combination separates its joint eigenvalues unless they share
    both projections.  A basis without a link, or whose links join all n
    columns, as those of two normals that do not commute do, yields
    nothing more and solves nothing more."""
    a = np.asarray(mats)
    m, n = a.shape[0], a.shape[-1]
    weights = np.exp(1j * _GOLDEN_ANGLE * np.arange(1, m + 1))
    # the combination as np.tensordot forms it, without its overhead
    mix = np.dot(weights[None], a.reshape(m, -1)).reshape(n, n)

    def table(w):
        b = np.conj(w).T @ a @ w
        lam = np.diagonal(b, axis1=1, axis2=2).copy()
        b.reshape(m, -1)[:, ::n + 1] = 0.0
        off = (b.real ** 2 + b.imag ** 2).sum(axis=(1, 2))
        return _freeze(lam), math.sqrt(off.max()), b

    w = hermitian_eig(mix)[1]
    lam, r, b = table(w)
    yield lam, r
    label = _summand_labels(np.abs(b) > _ROUNDING_LEVEL * n * 2.0 ** -53)
    groups = [] if label is None else np.flatnonzero(np.bincount(label) > 1)
    if not len(groups):
        return
    w, turned = w.copy(), weights * np.exp(1j)
    for root in groups:
        g = np.flatnonzero(label == root)
        k = len(g)
        block = b[:, g[:, None], g]
        block.reshape(m, -1)[:, ::k + 1] = lam[:, g]
        mix = np.dot(turned[None], block.reshape(m, -1)).reshape(k, k)
        w[:, g] = w[:, g] @ hermitian_eig(mix)[1]
    yield table(w)[:2]


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    hermitian_defect: float
    tolerance_used: float

    def as_dict(self) -> dict:
        return dict(vars(self))


def _psd_stack(a, tol: float):
    """The PSD verdicts of a stack ``a`` of k square matrices, in order, up
    to the first matrix that decides: one that is not PSD, not Hermitian or
    not finite.  Returns the arrays (min_eigenvalue, tolerance_used) of
    a[:s + 1], s the first matrix that is not PSD, or of all of ``a`` when
    every matrix is PSD, and the hermitian_defect of the last of them;
    raises NotHermitianError or InputError when the deciding matrix is not
    Hermitian or not finite.

    This is the one place where the rule ``psd_check`` documents is written
    (``psd_check`` is its one-matrix case): the power-of-two rescale of a
    matrix with ||A||_F^2 >= 2^800, the tolerance tol * max(1, ||H||), and
    the Hermitian defect by its Frobenius norm, or by its spectral norm when
    the Frobenius norm exceeds the tolerance.  All spectra come from one
    batched eigensolve, and each verdict is bitwise that of ``psd_check``
    on its matrix alone."""
    k, n = a.shape[0], a.shape[-1]
    if n == 0:
        return np.zeros(k), np.full(k, tol), 0.0
    scale, stop = None, k
    # the norm of the whole stack clears every matrix of the rescale: each
    # matrix's own squared norm stays below 2^800 while the total is < 2^799
    # (as Python floats: 2^799 overflows a float32)
    if not float(np.vdot(a, a).real) < 2.0 ** 799:  # NaN, inf or perhaps huge
        peak = np.abs(a).max(axis=(1, 2))
        finite = np.isfinite(peak)
        stop = k if finite.all() else int(finite.argmin())
        if stop == 0:
            raise InputError(_NOT_FINITE)
        a = a[:stop]
        scale = _scales(a, peak[:stop])
        a = a / scale[:, None, None]
    # one transposing pass, so that both passes below read contiguously
    adj = np.conj(a.swapaxes(-1, -2), order="C")
    skew = a - adj
    # squared Frobenius defects as np.vdot sums them; that of the whole
    # stack clears every matrix while its root is below tol, the least
    # tolerance (the margin covers the rounding of either sum)
    total = np.vdot(skew, skew).real
    defect_cleared = scale is None and (
        math.sqrt(total) <= tol * (1.0 - 2.0 ** -20))
    # verdicts in float64, whatever the input's precision
    spectra = np.linalg.eigvalsh((a + adj) / 2.0).astype(float, copy=False)
    mins, top = spectra[:, 0], spectra[:, -1]
    if scale is not None:  # scaled back, a result may overflow to inf
        with np.errstate(over="ignore"):
            mins, top = mins * scale, top * scale
    neg = -mins
    tolerance = tol * np.maximum(np.maximum(neg, top), 1.0)
    defect = None
    if not defect_cleared:
        defect = np.sqrt(np.array([np.vdot(x, x).real for x in skew],
                                  dtype=float))
        with np.errstate(over="ignore"):
            if scale is not None:
                defect *= scale
            over = np.flatnonzero(defect > tolerance)  # then the spectral
            if over.size:
                defect[over] = operator_norms(skew[over]) * (
                    1.0 if scale is None else scale[over])
        decided = np.maximum(neg, defect) > tolerance
    else:
        decided = neg > tolerance
    s = int(decided.argmax())
    if decided[s]:
        if defect is not None and defect[s] > tolerance[s]:
            raise NotHermitianError(defect[s].item(), tolerance[s].item())
    elif stop < k:
        raise InputError(_NOT_FINITE)
    else:
        s = stop - 1
    if defect is not None:
        last = defect[s].item()
    else:  # the whole stack's norm is its one matrix's when stop == 1
        last = math.sqrt(total if stop == 1
                         else np.vdot(skew[s], skew[s]).real)
    return mins[:s + 1], tolerance[:s + 1], last


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
    are scaled back.  This is the one-matrix case of the stacked rule that
    the generator sweep applies to a group of boxes at a time.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("psd_check requires a square matrix")
    mins, tolerance, defect = _psd_stack(a[None], tol)
    return PsdVerdict(bool(mins[0] >= -tolerance[0]), mins[0].item(), defect,
                      tolerance[0].item())


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

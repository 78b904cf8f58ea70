"""Checkable positivity certificates for commuting contraction tuples.

Every certificate builds a concrete test operator and returns a structured
report with the PSD margin, the first failing parameter (lexicographic), and
the tolerances used.  A "pass" from a swept or sampled check is always
qualified by its bound in the report notes — none of these procedures can
discharge a universally quantified condition.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import semigroups as sg
from .errors import (
    CapExceededError,
    InputError,
    NotHermitianError,
    _TupleCapExceededError,
)
from .linalg import (
    DEFAULT_PSD_TOL,
    _GOLDEN_ANGLE,
    _ROUNDING_LEVEL,
    CMatrix,
    PsdVerdict,
    _commutators,
    _freeze,
    _group_size,
    _psd_stack,
    _summand_labels,
    adjoint,
    block_decompose,
    cmatrix,
    commutator_residual,
    joint_spectrum,
    loewner_leq,
    norm_excess,
    operator_norm,
    psd_check,
)
from .representations import InvolutionPoint, Representation, _image_table
from .semigroups import GroupElement, _is_int

#: Hard cap on subset-enumeration size (2^cap evaluations).
DEFAULT_SUBSET_CAP = 16
#: Default bound for degree sweeps.
DEFAULT_MAX_DEGREE = 6
#: Budget of one generator sweep in degree tuples, C(max_degree + m, m).
_SWEEP_TUPLE_CAP = 2 ** 16

# A DegreeTuple is a tuple of non-negative ints, one per operator under test.
DegreeTuple = tuple


def degree_tuple(values) -> DegreeTuple:
    out = tuple(values)
    for v in out:
        if not _is_int(v) or v < 0:
            raise InputError(f"degree entries must be non-negative ints, got {v!r}")
    return out


def _plain(x):
    """Strip package types out of report payloads (JSON-able data only)."""
    if isinstance(x, GroupElement):
        return _plain(x.coords)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


@dataclass(frozen=True)
class CertificateReport:
    condition: str
    parameters: dict
    verdict: str  # "pass" | "fail" | "not-applicable"
    margin: float | None
    witness: object | None
    tolerances: dict
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "not-applicable"):
            raise InputError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise InputError("failing report requires a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return _plain(vars(self))


# ---------------------------------------------------------------------------
# alternating-sum operators

def _operators(ts) -> list[CMatrix]:
    """Read an operator tuple: cmatrix on each, one shared square shape."""
    mats = [cmatrix(m) for m in ts]
    if any(m.shape != (mats[0].shape[0],) * 2 for m in mats):
        raise InputError("operators must share a square shape")
    return mats


def _adjoint_pairs(mats) -> list[tuple[np.ndarray, np.ndarray]]:
    """(T_i*, T_i) for each operator: the two factors of one Delta_i step."""
    return [(np.conj(m).T, m) for m in map(np.asarray, mats)]


def _delta(x: np.ndarray, pair, out=None) -> np.ndarray:
    """One step Delta_i(X) = X - T_i* X T_i, with pair = (T_i*, T_i), of a
    box or of a stack of boxes, into ``out`` when given."""
    t_adj, t = pair
    return np.subtract(x, (t_adj @ x) @ t, out=out)


def _defect_map(mats, order, dim: int) -> CMatrix:
    """Delta_{order[0]} o ... o Delta_{order[-1]}(I) for the defect map
    Delta_i(X) = X - T_i* X T_i (Agler's hereditary form).  Expanding the
    composition gives every alternating binomial and subset sum in this
    module, at one Delta step per index instead of one Gram term per
    summand, and without the cancellation of the expanded sum."""
    pairs = _adjoint_pairs(mats)
    x = np.eye(dim, dtype=np.complex128)
    for i in reversed(order):
        x = _delta(x, pairs[i])
    return _freeze(x)


def _box_args(ts, n) -> tuple[list[CMatrix], DegreeTuple]:
    """Read an operator tuple and a degree box with one degree per
    operator."""
    mats, n = _operators(ts), degree_tuple(n)
    if not mats:
        raise InputError("at least one operator required")
    if len(mats) != len(n):
        raise InputError("one degree per operator required")
    return mats, n


def box_operator(mats, degrees: DegreeTuple) -> CMatrix:
    """The alternating multi-binomial operator

        sum_k (-1)^{|k|} C(n1,k1)...C(nm,km) T1*^{k1}..Tm*^{km} Tm^{km}..T1^{k1}

    over the box 0 <= k_i <= n_i, evaluated by the defect-map kernel as
    Delta_1^{n1} o ... o Delta_m^{nm}(I).  Delta_1 is outermost, which gives
    exactly the adjoint ordering above, also for non-commuting input."""
    mats, degrees = _box_args(mats, degrees)
    order = [i for i, d in enumerate(degrees) for _ in range(d)]
    return _defect_map(mats, order, mats[0].shape[0])


def brehmer_sum(mats, letters, dim: int) -> CMatrix:
    """Alternating subset sum  sum_{V subseteq U} (-1)^{|V|} M_V* M_V  where
    M_V multiplies one image per letter in V (letters name operator indices,
    repeats allowed), evaluated by the same defect-map kernel as
    box_operator: Delta_{letters[0]} o ... o Delta_{letters[-1]}(I), one
    Delta step per letter.  M_V takes its factors in reverse letter order;
    for commuting images the order is immaterial."""
    mats = _operators(mats)
    letters = list(letters)
    if not _is_int(dim) or dim < 0:
        raise InputError(f"dim must be a non-negative int, got {dim!r}")
    if mats and mats[0].shape[0] != dim:
        raise InputError(
            f"dim {dim} does not match the operator shape {mats[0].shape}")
    for i in letters:
        if not (_is_int(i) and 0 <= i < len(mats)):
            raise InputError(f"letter {i!r} is not an operator index "
                             f"0 <= i < {len(mats)}")
    return _defect_map(mats, letters, dim)


# ---------------------------------------------------------------------------
# certificates

def _psd_report(condition: str, parameters: dict, verdict, tol: float,
                witness, notes=()) -> CertificateReport:
    """Pass or fail as ``verdict`` says; a fail carries ``witness``."""
    return CertificateReport(
        condition=condition, parameters=parameters,
        verdict="pass" if verdict.is_psd else "fail",
        margin=verdict.min_eigenvalue,
        witness=None if verdict.is_psd else witness,
        tolerances={"tol": tol, "tolerance_used": verdict.tolerance_used},
        notes=notes,
    )


def _not_applicable(condition: str, parameters: dict, witness,
                    tol: float) -> CertificateReport:
    """A precondition does not hold; ``witness`` says which."""
    return CertificateReport(
        condition=condition, parameters=parameters, verdict="not-applicable",
        margin=None, witness=witness, tolerances={"tol": tol},
    )


def _gate(condition: str, parameters: dict, mats,
          tol: float) -> CertificateReport | None:
    """The precondition gate of every sum-based certificate: the
    not-applicable report when some operator is not a contraction or,
    failing that, some pair does not commute, else None.

    Commutation is decided without a spectrum when it can be: the pair
    commutators, formed in stacks of at most one group as
    ``commutator_residual`` forms them, pass when the root of their
    ``np.vdot`` sum is at most tol * (1 - 2^-20), since ||C||_2 <= ||C||_F
    and the margin covers the rounding of either norm.  Only when that
    bound fails does ``commutator_residual`` norm them, so a pass is the
    one it would give, and a non-commuting witness is its worst pair.

    The generator sweep gates every tuple that takes none of its routes.
    A route shows that the tuple would pass this gate (``_closed_form``
    derives it); it does not replace the gate."""
    worst, index = norm_excess(mats)
    if worst > tol:
        witness = {"reason": "not a contraction",
                   "index": index, "norm_excess": worst}
    else:
        square = sum(np.vdot(c, c).real for _, c in _commutators(mats))
        if math.sqrt(square) <= tol * (1.0 - 2.0 ** -20):
            return None
        comm, pair = commutator_residual(mats)
        if comm <= tol:
            return None
        witness = {"reason": "non-commuting", "pair": list(pair),
                   "residual": comm}
    return _not_applicable(condition, parameters, witness, tol)


def agler_certificate(
    t: CMatrix, n: int, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Positivity of the alternating binomial sum of *-powers at degree n."""
    (t,), (n,) = _box_args((t,), (n,))
    gated = _gate("agler", {"n": n}, (t,), tol)
    if gated is not None:
        return gated
    verdict = psd_check(box_operator((t,), (n,)), tol)
    return _psd_report("agler", {"n": n}, verdict, tol, {"n": n})


def athavale_certificate(
    ts, n: DegreeTuple, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Positivity of the multi-binomial alternating sum for a commuting
    contraction tuple at the degree box n."""
    mats, n = _box_args(ts, n)
    gated = _gate("athavale", {"n": list(n)}, mats, tol)
    if gated is not None:
        return gated
    comm, _ = commutator_residual(mats)
    verdict = psd_check(box_operator(mats, n), tol)
    return _psd_report("athavale", {"n": list(n), "commutator_residual": comm},
                       verdict, tol, {"n": list(n)})


def _letters_to_indices(t: Representation, u) -> list[int]:
    """Resolve Brehmer letters to 0-based generator indices.

    Plain ints name coordinates of a free-abelian descriptor (1-based).
    (generator, copy) pairs name letters of the induced finitely-supported
    power representation — generator 1-based into the base generator list,
    copy index >= 1; distinct copies of one generator are distinct letters
    with the same image.
    """
    d = t.descriptor
    letters = list(u)
    seen = set()
    idxs = []
    for item in letters:
        if _is_int(item):
            if not isinstance(d, sg.FreeAbelian):
                raise InputError(
                    "plain integer letters need a free-abelian descriptor; "
                    "use (generator, copy) pairs"
                )
            if not (1 <= item <= d.k):
                raise InputError(f"letter {item} out of range 1..{d.k}")
            key = item
            idxs.append(item - 1)
        else:
            try:
                gen, copy = item
            except (TypeError, ValueError):
                raise InputError("letters must be ints or (generator, copy) pairs")
            ngen = len(t.generator_images)
            if not (_is_int(gen) and 1 <= gen <= ngen):
                raise InputError(f"generator index {gen!r} out of range 1..{ngen}")
            if not (_is_int(copy) and copy >= 1):
                raise InputError(f"copy index {copy!r} must be >= 1")
            key = (gen, copy)
            idxs.append(gen - 1)
        if key in seen:
            raise InputError(f"duplicate letter {key!r}: letters form a set")
        seen.add(key)
    return idxs


def brehmer_certificate(
    t: Representation, u, tol: float = DEFAULT_PSD_TOL,
    cap: int = DEFAULT_SUBSET_CAP,
) -> CertificateReport:
    """Positivity of the alternating subset sum over the letter set u."""
    letters = list(u)
    if len(letters) > cap:
        raise CapExceededError(len(letters), cap, 2 ** len(letters))
    idxs = _letters_to_indices(t, letters)
    parameters = {"letters": letters, "subset_count": 2 ** len(letters)}
    gated = _gate("brehmer", parameters, t.generator_images, tol)
    if gated is not None:
        return gated
    verdict = psd_check(brehmer_sum(t.generator_images, idxs, t.dimension), tol)
    return _psd_report("brehmer", parameters, verdict, tol, {"letters": letters})


def athavale_vs_brehmer(
    ts, n: DegreeTuple, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[CMatrix, CMatrix, float]:
    """Evaluate the degree-box alternating sum and the subset alternating sum
    over a letter set holding n_i copies of operator i; returns both
    operators and their max entrywise deviation.  The subset side takes its
    letters in reverse order, a different floating-point path through the
    same defect-map kernel; for commuting operators the two sums are equal,
    so the deviation measures rounding.  The independent check of the
    kernel is the explicit binomial expansion kept in the test suite."""
    mats, n = _box_args(ts, n)
    total = sum(n)
    if total > cap:
        raise CapExceededError(total, cap, 2 ** total)
    star_side = box_operator(mats, n)
    dim = star_side.shape[0]
    letters = [i for i in range(len(mats)) for _ in range(n[i])]
    subset_side = brehmer_sum(mats, letters[::-1], dim)
    deviation = float(np.abs(star_side - subset_side).max()) if dim else 0.0
    return star_side, subset_side, deviation


# ---------------------------------------------------------------------------
# sampled kernel conditions

def _bound_constant_ok(c) -> bool:
    """C > 0 with C^2 a positive finite float: (iii) compares with C^2 K."""
    return c > 0 and 0 < c * c < math.inf


@dataclass(frozen=True)
class SzNagyConfig:
    sample_points: tuple[InvolutionPoint, ...]
    bound_element: InvolutionPoint
    bound_constant: float = 1.0

    def __post_init__(self):
        if not self.sample_points:
            raise InputError("at least one sample point required")
        c = self.bound_constant
        if not _bound_constant_ok(c):
            raise InputError("bound constant must be positive with a positive "
                             f"finite square, got {c!r}")


def _hermitian_kernel(n: int, dim: int, blocks) -> CMatrix:
    """The n x n grid of dim x dim blocks of a kernel that is Hermitian by
    construction, from ``blocks``, the stack of its blocks (i, j), i <= j,
    in np.triu_indices(n) order: block (j, i) is exactly the adjoint of
    (i, j), and a diagonal block is Hermitian up to rounding."""
    i, j = np.nonzero(np.tri(n, dtype=bool).T)  # np.triu_indices(n), faster
    out = np.empty((n, dim, n, dim), dtype=np.complex128)
    out[j, :, i, :] = np.conj(blocks).transpose(0, 2, 1)
    out[i, :, j, :] = blocks  # the diagonal blocks as given
    return _freeze(out.reshape(n * dim, n * dim))


def _gram_blocks(t: Representation, pairs) -> np.ndarray:
    """The stack of blocks T(a)* T(b), one per coordinate pair (a, b) of
    ``pairs``: one gather evaluates each distinct coordinate once, and one
    stacked product forms every block.  The coordinates must be canonical
    members; the caller has checked the points they are made from."""
    index, images = _image_table(t, [c for ab in pairs for c in ab])
    adjoints = np.conj(images).transpose(0, 2, 1).copy()
    return adjoints[index[0::2]] @ images[index[1::2]]


def sznagy_check(
    t: Representation, cfg: SzNagyConfig, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sampled involution-kernel conditions on the points s_i of P x P:
    (ii) positivity of the kernel K = [T~(s_i* s_j)], and (iii) the
    bounded-element Loewner inequality [T~((a s_i)* (a s_j))] <= C^2 K.
    The kernel is Hermitian by construction, since s_j* s_i is s_i* s_j
    with its two sides swapped, so each kernel is filled from its upper
    triangle and the paper's symmetry condition (i) holds exactly off the
    diagonal blocks.

    Entry (i, j) is star_kernel(t, s_i, s_j) = T(r_i + l_j)* T(l_i + r_j)
    for s = (l, r).  The points are checked members, so these sums are
    canonical members too, and one gather-and-product step gives the upper
    blocks of both kernels.  A fail reports the first failing condition,
    (ii) before (iii); a pass reports the lower margin, (ii) on ties."""
    d = t.descriptor
    *pairs, a = [(sg._member(d, s.left).coords, sg._member(d, s.right).coords)
                 for s in cfg.sample_points + (cfg.bound_element,)]
    n = len(pairs)
    moved = [tuple(d.pointwise(operator.add, x, y) for x, y in zip(a, s))
             for s in pairs]
    blocks = _gram_blocks(t, [
        (d.pointwise(operator.add, s[1], u[0]),
         d.pointwise(operator.add, s[0], u[1]))
        for pts in (pairs, moved) for i, s in enumerate(pts) for u in pts[i:]])
    k, shifted = (_hermitian_kernel(n, t.dimension, half)
                  for half in np.split(blocks, 2))
    pos = psd_check(k, tol)
    bound = loewner_leq(shifted, cfg.bound_constant ** 2 * k, tol)

    verdicts = (("ii", pos), ("iii", bound))
    name, decisive = next(((c, v) for c, v in verdicts if not v.is_psd),
                          min(verdicts, key=lambda cv: cv[1].min_eigenvalue))
    return _psd_report(
        "sznagy", {"sample_count": n, "bound_constant": cfg.bound_constant},
        decisive, tol, {"condition": name, "margin": decisive.min_eigenvalue},
        notes=("sampled verdict: checked on the supplied finite sample only",))


def regularity_check(
    t: Representation, ps, g: GroupElement, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sampled regularity inequality: with X = [T~(p_i - p_j)] and the meet
    condition g ^ p_i = unit for all i, checks [T(g)* X_ij T(g)] <= [X_ij].
    Not applicable unless the descriptor is lattice ordered.  Both grids
    are Hermitian by construction, since (p_j - p_i)_+- is (p_i - p_j)_-+,
    and are filled from their upper triangles.  T~(p_i - p_j) is
    T(p_j - m)* T(p_i - m), m = p_i ^ p_j: one gather-and-product step
    gives these blocks and T(g), one stacked product the left side's."""
    d = t.descriptor
    if not d.lattice_ordered:
        return _not_applicable("regularity", {}, {
            "reason": "regularity_check requires a lattice-ordered descriptor"},
            tol)
    g = sg._member(d, g)
    points = [sg._member(d, p) for p in ps]
    parameters = {"g": g, "points": points}
    for i, p in enumerate(points):
        if d.pointwise(min, g.coords, p.coords) != d.zero:
            return _not_applicable(
                "regularity", parameters,
                {"reason": "meet condition violated", "index": i, "p": p}, tol)
    n = len(points)
    coords = [p.coords for p in points]
    blocks = _gram_blocks(t, [(d.zero, g.coords)] + [  # T(unit)* T(g) = T(g)
        tuple(d.pointwise(operator.sub, r, d.pointwise(min, p, q))
              for r in (q, p))
        for i, p in enumerate(coords) for q in coords[i:]])
    tg, x = blocks[0], blocks[1:]
    verdict = loewner_leq(
        _hermitian_kernel(n, t.dimension, (adjoint(tg) @ x) @ tg),
        _hermitian_kernel(n, t.dimension, x), tol)
    return _psd_report(
        "regularity", parameters, verdict, tol, parameters,
        notes=("sampled verdict: checked for the supplied points only",))


# ---------------------------------------------------------------------------
# extension identity and generator sweeps

def extension_residual(n_mat: CMatrix, subspace_dim: int) -> tuple[float, float]:
    """Two independently computed sides of the compression identity

        P_H N*N|_H - T*T  =  Z*Z      (T = corner, Z = lower-left of N)

    returned as (||P_H N*N|_H - T*T||, ||Z||^2).  They agree for arbitrary N;
    both vanish exactly when H is invariant, which is what upgrades a
    corner-match to a genuine extension."""
    a = cmatrix(n_mat)
    bd = block_decompose(a, subspace_dim)
    gram_corner = block_decompose(adjoint(a) @ a, subspace_dim).corner
    lhs = float(operator_norm(gram_corner - adjoint(bd.corner) @ bd.corner))
    rhs = float(operator_norm(bd.lower_left)) ** 2
    return lhs, rhs


def _lex_degree_tuples(m: int, max_degree: int):
    """Every m-tuple of non-negative ints with sum <= max_degree, in
    lexicographic order."""
    if m == 0:
        yield ()
        return
    for first in range(max_degree + 1):
        for rest in _lex_degree_tuples(m - 1, max_degree - first):
            yield (first,) + rest


def _chain(pair, dim: int, length: int, size: int):
    """The boxes Delta^k(I), 0 <= k < length, of the chain of ``pair``, as
    fresh chunks of at most ``size`` boxes, each box stepped from the one
    before it."""
    before = np.eye(dim, dtype=np.complex128)
    for lo in range(0, length, size):
        chunk = np.empty((min(size, length - lo), dim, dim),
                         dtype=np.complex128)
        for i, box in enumerate(chunk):
            if lo + i:
                _delta(before, pair, out=box)
            else:
                box[...] = before
            before = box
        yield chunk


def _walk(pairs, dim: int, max_degree: int, size: int):
    """The runs of the generator sweep, one (p, run) per prefix
    p = n[:-1], in lexicographic order: ``run`` iterates the boxes of
    n = p + (k,), 0 <= k <= max_degree - sum(p), as consecutive chunks of
    at most ``size`` boxes.  A run must be read before the next is
    requested, which may overwrite it.

    The run of the zero prefix is the chain Delta_m^k(I), stepped one box
    at a time.  Every other run is one stacked Delta step per chunk from
    the run of p - e_j, j the first nonzero index of p:
    box(n) = Delta_j(box(n - e_j)), the outermost step of
    ``box_operator``'s order, so every box is bitwise equal to
    ``box_operator(mats, n)``.  A run is kept while a later run steps from
    it (sum(p) < max_degree, so it has more than one box), and its e_1
    successor, the last, overwrites it in place; so the kept runs hold at
    most C(max_degree + m - 1, m - 1) boxes.  The m = 1 chain is never
    stored: its chunks are stepped as they are read."""
    m, live = len(pairs), {}
    if m == 1:
        yield (), _chain(pairs[0], dim, max_degree + 1, size)
        return
    for p in _lex_degree_tuples(m - 1, max_degree):
        length = max_degree - sum(p) + 1
        j = next((i for i, d in enumerate(p) if d), None)
        if j is None:
            run = list(_chain(pairs[-1], dim, length, size))
        else:
            source = p[:j] + (p[j] - 1,) + p[j + 1:]
            src = live.pop(source) if j == 0 else live[source]
            run = []
            for lo, x in zip(range(0, length, size), src):
                x = x[:length - lo]
                run.append(_delta(x, pairs[j], out=x if j == 0 else None))
        yield p, run
        if length > 1:
            live[p] = run


def _judge(runs, tol: float, size: int, dim: int):
    """Judge the boxes of ``_walk``'s runs by the rule of ``psd_check``, in
    lexicographic order of n, up to the first that fails.  Returns
    (checked, worst, failure): the number of boxes judged, their least
    margin (the first of equal margins, so -0.0 stays; None before any),
    and (n, PsdVerdict) of the failing box n, or None.  Raises what
    ``psd_check`` raises on the first box that decides.

    The runs' chunks are packed, in order, into groups of ``size`` boxes,
    the last perhaps shorter.  A chunk that fills a group alone is judged
    as it is; the others are copied into one buffer, which the next packed
    group overwrites.  One ``_psd_stack`` call judges a group, so its first
    box that fails or is not Hermitian decides."""
    checked, worst = 0, None

    def stacks():
        # (verdicts, pieces) per judged stack, where each piece (i, p, k)
        # says that box i of the stack, and those after it up to the next
        # piece, are p + (k,), p + (k + 1,), ...
        group, filled, pieces = None, 0, []
        for p, run in runs:
            lo = 0  # k of the chunk's first box
            for boxes in run:
                if not filled and len(boxes) == size:
                    yield _psd_stack(boxes, tol), ((0, p, lo),)
                else:
                    if group is None:
                        group = np.empty((size, dim, dim),
                                         dtype=np.complex128)
                    take = min(size - filled, len(boxes))
                    group[filled:filled + take] = boxes[:take]
                    pieces.append((filled, p, lo))
                    filled += take
                    if filled == size:
                        yield _psd_stack(group, tol), pieces
                        filled = len(boxes) - take
                        group[:filled] = boxes[take:]
                        pieces = [(0, p, lo + take)] if filled else []
                lo += size
        if filled:
            yield _psd_stack(group[:filled], tol), pieces

    for (mins, tolerances, defect), pieces in stacks():
        checked += len(mins)
        if mins[-1] < -tolerances[-1]:
            i = len(mins) - 1
            at, p, k = next(x for x in reversed(pieces) if x[0] <= i)
            return checked, worst, (p + (k + i - at,), PsdVerdict(
                False, mins[-1].item(), defect, tolerances[-1].item()))
        low = mins[mins.argmin()]  # the first of equal margins: -0.0 stays
        if worst is None or low < worst:
            worst = low.item()
    return checked, worst, None


def _square_sums(a):
    """The diagonals of T_i T_i* - T_i* T_i and of T_i* T_i for each
    matrix T_i of a stack ``a`` (m, n, n), two arrays (m, n): the squared
    row norms less the squared column norms, and the squared column
    norms.  Entries near 1e308 overflow them to inf or nan, without a
    warning: such a tuple is no contraction, and no route takes it."""
    square = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        square *= square
        cols = square.sum(axis=1)
        return square.sum(axis=2) - cols, cols


def _gap_bound(n):
    """The square of ``_closed_form``'s bound (4 * 32 + 10) n^2 u on the
    self-commutator diagonal of an operator of order n (an int or an
    array of them)."""
    return ((4 * _ROUNDING_LEVEL + 10) * 2.0 ** -53 * n * n) ** 2


@functools.lru_cache(maxsize=16)
def _probe_vector(n: int):
    """``_closed_form``'s commutation probe: the unit vector v of order n,
    v_j = e^{i j theta} / sqrt(n), theta the golden angle; read-only."""
    v = np.exp(1j * _GOLDEN_ANGLE * np.arange(n)) / math.sqrt(n)
    v.flags.writeable = False
    return v


def _closed_form(mats, max_degree: int, tol: float, sums=None):
    """The generator sweep's margin over a commuting normal tuple, read off
    its joint spectrum where the Delta path provably passes: (margin, r, s)
    with margin = (min_ij f_ij)^D, f_ij = 1 - |lam_ij|^2 and D =
    ``max_degree``, from a table lam and residual r of ``joint_spectrum``;
    else None.  ``sums`` is (gaps, cols), the self-commutator diagonals
    and squared column norms of ``_square_sums`` (each of shape (m, n)),
    when the caller has read them.  With n the order, u = 2^-53 and
    eps = r + 2 n u, the tuple must pass four tests:
    - (a) rho + r + 2 n u <= 1 - 64 n^2 u, rho = max |lam_ij|;
    - (b) r <= 32 n^2 u, the rounding level (``_ROUNDING_LEVEL``): a joint
      eigenbasis that leaves more is not trusted;
    - (c) s = 2 max(1, D) (1 + rho^2)^D eps <= tol / 2;
    - (d) 5 eps <= tol, which (c) implies unless D <= 1 and rho < 1/2.
    The tests read the first eigenbasis of ``joint_spectrum``, and where it
    misses them, its refined one: clustered joint eigenvalues, which the
    first mixes at a residual above rounding, fall apart there.
    Three necessary checks fail fast before the eigensolve.  A squared
    column norm >= 1 - 64 n^2 u gives ||T_i|| > 1 - 64 n^2 u, against (a),
    so a unitary, a shift or (1 + 0.75 tol) I pays no eigensolve.  An
    operator that is not normal at rounding level fails the second: the
    diagonal of T_i T_i* - T_i* T_i, the squared row norms of T_i less
    its squared column norms (``gaps``), must have norm at most
    4 * 32 n^2 u + 10 n^2 u.  For T_i within eps of a normal N_i (below),
    ||T_i T_i* - T_i* T_i||_F <= 4 eps to first order, and forming the
    squared norms rounds the diagonal by at most 2 n^(3/2) u; so every
    tuple that passes (b) passes this check, while r J or a shift in its
    own basis fails it in O(n^2) work.  The third probes commutation on
    one fixed unit vector v, v_j = e^{i j theta} / sqrt(n) (theta the
    golden angle, ``_probe_vector``): the squares of
    ||T_j T_i v - T_i T_j v||, summed over the m (m - 1) / 2 pairs
    i < j, must total at most m (m - 1) / 2 (7 (32 n^2 + 2 n) u)^2.
    Every tuple that passes (a) and (b) passes it: below, each commutator
    has norm <= 4 eps - 2 eps^2, each side is two products of factors of
    norm <= rho + eps <= 1, rounding by about 2 n u, and the subtraction
    by 2 u, so each norm the probe sums is at most 4 eps + 4 n u + 2 u
    <= 7 eps, with eps <= (32 n^2 + 2 n) u by (b).  So two normals that
    do not commute pay no eigensolve, only O(m^2 n^2) work.

    The argument runs to first order in u and r, with each product of
    factors of norm <= 1 rounding by about n u (normwise, as p(n) in
    ``norm_excess``).  Write B_i = fl(W* T_i W) = diag(lam_i) + E_i, so
    ||E_i||_F <= r, and let Q be the unitary nearest W.  Then T_i lies
    within eps of N_i = Q diag(lam_i) Q*, an exactly normal commuting
    tuple (2 n u for the products forming B_i and W's departure from Q).

    Why the tuple passes the precondition gate, so that the sweep takes
    the route before it.  ||T_i|| <= rho + eps <= 1 - 64 n^2 u by (a), a
    strict contraction by more than the rounding of the norm the gate
    computes, so no norm excess is positive.  The N_i commute, so
    [T_i, T_j] = [N_i, F_j] + [F_i, N_j] + [F_i, F_j], F = T - N, has norm
    <= 4 rho eps + 2 eps^2 <= 4 eps - 2 eps^2 by (a); forming it rounds
    by about 2 n u <= eps more (a product of a direct sum rounds on a
    summand as one of the summand's order: the other terms of each entry
    are exact zeros), so every commutator norm the gate finds is at most
    5 eps <= tol by (d).  For a direct sum N (+) R (``_normal_summands``)
    each operator's norm and each commutator's are the larger of N's and
    R's; so N routed and R passing the gate make the whole tuple pass it.

    Why (c) makes the Delta path pass.  The exact boxes of N are
    Q diag(prod_i f_ij^{n_i}) Q*, of norm <= 1, and their least
    eigenvalue over sum(n) <= D is (min f)^D > 0, at D e_i for the i of
    the least f.  A Delta step X - T_i* X T_i multiplies a box's distance
    from N's by at most 1 + rho^2 and adds at most 2 eps for T_i - N_i and
    2 n u rho^2 for its own two products, together at most
    (1 + rho^2)(2 r + 4 n u); so after at most D steps each computed box
    lies within s of N's box, and by Weyl's theorem so does its spectrum.
    With s <= tol / 2, every computed box has least eigenvalue above
    -tol / 2 (less a few u of subtraction and eigensolve rounding, which
    the other half of tol covers) and Hermitian defect ||X - X*|| <= 2 s
    <= tol: the Delta path passes every box, checks all C(D + m, m) of
    them, and raises nothing.  Its margin, the least over the boxes it
    judges, which include each D e_i, lies within s of the closed form.
    (b) keeps that move at rounding level: s then counts only rounding,
    amplified by the degree."""
    a = np.asarray(mats)
    n, u = a.shape[-1], 2.0 ** -53
    gaps, cols = _square_sums(a) if sums is None else sums
    slack = 1.0 - 64 * n * n * u
    if not (cols.max() < slack
            and (gaps * gaps).sum(axis=1).max() <= _gap_bound(n)):
        return None
    m = len(a)
    if m > 1:
        w, total = a @ _probe_vector(n), 0.0  # w[j] = T_j v
        for i in range(1, m):
            y = w[:i] @ a[i].T - a[:i] @ w[i]  # T_i T_j v - T_j T_i v, j < i
            total += np.vdot(y, y).real
        bound = 7 * (_ROUNDING_LEVEL * n * n + 2 * n) * u
        if total > m * (m - 1) / 2 * bound * bound:
            return None
    for lam, r in joint_spectrum(a):
        square = lam.real ** 2 + lam.imag ** 2
        rho2 = square.max().item()
        eps = r + 2 * n * u
        if not (r <= _ROUNDING_LEVEL * n * n * u and 5 * eps <= tol
                and math.sqrt(rho2) + r + 2 * n * u <= slack):
            continue
        try:
            s = 2.0 * max(1, max_degree) * (1.0 + rho2) ** max_degree * eps
        except OverflowError:
            return None
        if s <= tol / 2:
            return (1.0 - square).min().item() ** max_degree, r, s
    return None


def _normal_summands(a, gaps, cols):
    """The generator sweep's direct-sum split of a stack ``a`` (m, n, n),
    given the diagonals of its self-commutators and Gram matrices (each
    (m, n), read off ``_square_sums``): (label, normal), the summand
    labels of ``linalg._summand_labels`` and the mask of the coordinates
    of the candidate summands; or None, when the tuple has one summand,
    none is a candidate, or every one is.

    A summand of order k is a candidate when it passes the first two fast
    checks of ``_closed_form`` at its order: for each operator, its part of
    the self-commutator diagonal has norm at most (4 * 32 + 10) k^2 u, and
    its Gram diagonal (squared column norms) lies below 1 - 64 k^2 u.  No
    eigenproblem is solved here.

    Why the split keeps the verdict, to first order as in
    ``_closed_form``.  In the coordinates of the split the tuple is
    N (+) R, N the candidates and R the rest, every operator exactly a
    direct sum (the entries between summands are exact zeros, and the
    summands' entries are copied, not computed), so each box is
    box_N(n) (+) box_R(n).  The caller takes the split only when N
    takes ``_closed_form`` and R passes the precondition gate, which
    makes the tuple pass it (``_closed_form`` has the argument): then
    every box of N that the Delta path would compute lies within
    s <= tol / 2 of a PSD box of norm <= 1, so it never fails, raises, or
    sets the least eigenvalue of a failing box.  So the first box of R
    that fails is the tuple's first failure, with the same witness and
    ``tuples_checked``.  When R passes, the tuple passes with margin
    min(R's margin, (min_ij f_ij)^D), within s of the Delta path's
    (rounding at the orders of R and of the tuple aside).

    Where R first fails, at box n, with least eigenvalue min_R, tolerance
    tol_R and Hermitian defect d_R at R's order k, the tuple's box at its
    order o differs from R's by rounding alone, bounded by the band
    (``_band``)
        e = (8 k + 4 + 64 (k^2 + o^2)) max(1, |n|) u P,
        P = prod_i (1 + rho_i^2)^{n_i},  |n| = sum(n),
    with rho_i^2 = min(||R_i||_F^2, (1 + tol)^2) >= ||R_i||^2, R having
    passed the gate.  One Delta step X - R_i* X R_i of a box of norm <= x
    rounds by at most (2 k rho_i^2 + 1 + rho_i^2) u x
    <= (2 k + 1)(1 + rho_i^2) u x (two products of order k, one
    subtraction), and multiplies an earlier error by at most
    1 + rho_i^2, as it does the box's norm; so after |n| steps the box
    lies within (2 k + 1) |n| u P of the exact box_R(n).  The tuple's box
    holds R's block apart from N's (exact zeros), formed by products that
    round on it as of order k, so that block and R's own box lie within
    2 (2 k + 1) |n| u P of each other, and their skew parts within twice
    that.  Each eigensolve is exact for a matrix within 64 o^2 u ||H|| of
    the one it is given (the slack of ``norm_excess``), with ||H|| <= P to
    first order, since N's block lies within s of a box of norm <= 1.  So
    the least eigenvalue of R's block of the tuple's box lies within
    2 (2 k + 1) |n| u P + 64 (k^2 + o^2) u P <= e of min_R, and its skew
    part within e of R's.  N's block has spectrum in [-tol / 2, 1 + s] and
    skew part of norm <= 2 s (``_closed_form``).  So when
        min_R + e < -max(tol_R + tol e, tol (1 + s))  and
        d_R + 2 s + e <= tol,
    R's block holds the tuple's least eigenvalue min <= min_R + e, below
    -tol, its tolerance tol max(1, -min, top) is at most
    max(tol_R + tol e, tol (1 + s)), and its defect (the Frobenius norm
    of a direct sum's skew part is at most the sum of its summands', the
    spectral norm the larger) is at most d_R + 2 s + e <= tol: the Delta
    path fails at n and raises nothing.  The caller then reports R's
    verdict, whose margin lies within e of the Delta path's, its
    tolerance within tol max(s, e) and its defect within 2 s + e, with a
    note naming s and e.  Inside the band it judges the tuple's own box
    at n as the Delta path does, so the report is the Delta path's."""
    label = _summand_labels(a)
    if label is None:
        return None
    n = label.shape[0]
    member = label == label[:, None]  # x and y in one summand
    order = member.sum(axis=0)  # of each coordinate's summand
    with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308
        square = (gaps * gaps) @ member
    normal = square.max(axis=0) <= _gap_bound(order)
    normal &= ~((cols.max(axis=0) >= 1.0 - 64 * order * order * 2.0 ** -53)
                @ member)
    if np.count_nonzero(normal) in (0, n):
        return None
    return label, normal


def _band(cols, n, order: int, tol: float) -> float:
    """``_normal_summands``'s band e at the rest's box n, for a rest whose
    squared column norms are ``cols`` (m, k) inside a tuple of order
    ``order``; inf where it overflows."""
    k = cols.shape[-1]
    try:
        rho2 = np.minimum(cols.sum(axis=1), (1.0 + tol) ** 2).tolist()
        growth = math.prod((1.0 + x) ** d for x, d in zip(rho2, n))
    except OverflowError:
        return math.inf
    return ((8 * k + 4 + 64 * (k * k + order * order)) * max(1, sum(n))
            * 2.0 ** -53 * growth)


def _summand_orders(label, mask) -> tuple[str, str]:
    """The orders of the summands inside ``mask`` and of those outside it,
    each as a list from the largest down, "k (xc)" for c summands of
    order k."""
    orders, named = np.bincount(label, minlength=len(label)), []
    roots = label == np.arange(len(label))
    for inside in (mask, ~mask):
        ks = sorted(orders[roots & inside].tolist(), reverse=True)
        named.append(", ".join(f"{k}" if ks.count(k) == 1
                               else f"{k} (x{ks.count(k)})"
                               for k in dict.fromkeys(ks)))
    return tuple(named)


def generator_certificate(
    t, max_degree: int = DEFAULT_MAX_DEGREE, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sweep the multi-binomial certificate over the generator images for all
    degree tuples with sum <= max_degree, lexicographically, stopping at the
    first failure, which the report names.  A pass is only a pass up to the
    swept bound.  A sweep over more than 2^16 degree tuples
    (C(max_degree + m, m) for m generators) raises CapExceededError before
    any work.

    The routes come first, and gate only what walks the Delta path.  A
    tuple of dimension >= 1 may take the closed form (``_closed_form``):
    when every column norm is below 1, the generators are normal and
    commute at rounding level, so that one eigenbasis (refined once where
    joint eigenvalues cluster) diagonalizes them to a residual
    r <= 32 n^2 u, and their joint eigenvalues lam satisfy
    rho + r + 2 n u <= 1 - 64 n^2 u (rho = max |lam|) and s = 2 max(1, D)
    (1 + rho^2)^D (r + 2 n u) <= tol / 2, the tuple provably passes the
    precondition gate and the Delta path provably passes.  The report
    gives the margin (min (1 - |lam|^2))^D, which lies within s of the
    Delta path's, counts all C(D + m, m) tuples, and adds a note naming r
    and s.

    A tuple that misses the closed form and is a direct sum up to a
    permutation of its basis (exact zeros between the summands) may split
    next; ``_normal_summands`` has the argument.  The summands that pass
    the closed form's two norm checks take the closed form together; the
    others alone pass the gate and walk the Delta path, at their own
    order.  Where they fail by more than a rounding band e, their verdict
    is the tuple's report, with the Delta path's witness and
    ``tuples_checked``, its margin within e of the Delta path's, its
    tolerance within tol max(s, e), and a note naming the summands'
    orders, s and e; inside the band, the tuple's own box is judged as the
    Delta path judges it, so the report is the Delta path's.  A pass takes
    the lower of the two margins and a note naming the summands' orders, r
    and s.

    Every other tuple is gated first (``_gate``, on stacks of at most one
    group; on commuting contractions it solves no eigenproblem), exactly
    as without the routes, and walks the Delta path whole: one summand,
    no normal summand or only normal ones, normal summands that miss the
    closed form, other summands that miss the gate (the whole tuple's
    gate then gives the witness, so every not-applicable report is the
    gate's), or that raise or fail where the tuple's box passes.

    The Delta path: ``_walk`` steps the boxes, each bitwise equal to
    ``box_operator(mats, n)``, and ``_judge`` judges them, in groups of at
    most 2048 matrix entries (one box at least), each judged box as
    ``psd_check`` judges it alone.  The first box in lexicographic order
    that fails or is not Hermitian decides, so a failure wastes at most the
    rest of its group and the Delta steps of less than one more group.
    Live memory: the kept runs, at most C(max_degree + m - 1, m - 1)
    boxes of dim^2 entries as for one box at a time, plus one group and
    the temporaries of one stacked step or verdict over a chunk; no array
    holds more than one group or box.  The m = 1 chain is not stored: at
    most two of its chunks, of at most one group each, are live at a time
    beside the group."""
    if isinstance(t, Representation):
        mats = list(t.generator_images)
    else:
        mats = _operators(t)
    if not _is_int(max_degree) or max_degree < 0:
        raise InputError("max_degree must be a non-negative int")

    def passed(checked, margin, *notes):
        return CertificateReport(
            condition="generator_sweep",
            parameters={"max_degree": max_degree, "tuples_checked": checked},
            verdict="pass", margin=margin, witness=None,
            tolerances={"tol": tol}, notes=notes)
    if not mats:
        return passed(0, None, "vacuous: no generators")
    m, dim = len(mats), mats[0].shape[0]
    tuples = math.comb(max_degree + m, m)
    if tuples > _SWEEP_TUPLE_CAP:
        raise _TupleCapExceededError(tuples, _SWEEP_TUPLE_CAP)
    ran = {"max_degree": max_degree}
    swept = f"pass swept over all degree tuples with sum <= {max_degree}"

    def sweep(ops):
        order = ops[0].shape[0]
        size = _group_size(order)
        return _judge(_walk(_adjoint_pairs(ops), order, max_degree, size),
                      tol, size, order)

    def failed(checked, n, verdict, *notes):
        return _psd_report(
            "generator_sweep",
            {"max_degree": max_degree, "tuples_checked": checked},
            verdict, tol, {"n": list(n)},
            notes=("first failing degree tuple in lexicographic order "
                   f"within sum <= {max_degree}",) + notes)

    def read_off(r):
        return ("read off the joint spectrum: (min_ij (1 - |lambda_ij|^2))"
                f"^{max_degree}, eigenbasis residual r = {r:.3e}")

    def split(stack, gaps, cols):
        # the split's report, or None where the tuple is gated and walks
        found = _normal_summands(stack, gaps, cols)
        if found is None:
            return None
        label, mask = found
        normal, rest = np.flatnonzero(mask), np.flatnonzero(~mask)
        closed = _closed_form(stack[:, normal[:, None], normal], max_degree,
                              tol, (gaps[:, normal], cols[:, normal]))
        if closed is None:
            return None
        residual = stack[:, rest[:, None], rest]
        if _gate("generator_sweep", ran, residual, tol) is not None:
            return None
        margin, r, s = closed
        try:
            checked, worst, failure = sweep(residual)
            inside, outside = _summand_orders(label, mask)
            if failure is None:
                return passed(checked, min(worst, margin), swept, (
                    f"direct sum: the normal summands, of orders {inside}, "
                    f"have their margin {read_off(r)}, within s = {s:.3e} "
                    "of the Delta path's; the Delta path swept the others, "
                    f"of orders {outside}"))
            n, verdict = failure
            e = _band(cols[:, rest], n, dim, tol)
            if (verdict.min_eigenvalue + e < -max(
                    verdict.tolerance_used + tol * e, tol * (1.0 + s))
                    and verdict.hermitian_defect + 2.0 * s + e <= tol):
                return failed(checked, n, verdict, (
                    "direct sum: the Delta path failed on the summands of "
                    f"orders {outside} at their own order, within "
                    f"e = {e:.3e} of the whole tuple's box; the normal "
                    f"summands, of orders {inside}, lie within s = {s:.3e} "
                    "of PSD boxes"))
            # inside the band: the tuple's own box, as the Delta path
            # judges it
            verdict = psd_check(_defect_map(
                mats, [i for i, d in enumerate(n) for _ in range(d)], dim),
                tol)
        except (InputError, NotHermitianError):
            return None  # the Delta path raises, or decides, as before
        return None if verdict.is_psd else failed(checked, n, verdict)

    if dim:
        stack = np.asarray(mats)
        gaps, cols = _square_sums(stack)
        closed = _closed_form(stack, max_degree, tol, (gaps, cols))
        if closed is not None:
            margin, r, s = closed
            return passed(tuples, margin, swept, (
                f"margin {read_off(r)}; every box of the Delta path lies "
                f"within s = {s:.3e} of its closed form"))
        report = split(stack, gaps, cols)
        if report is not None:
            return report
    gated = _gate("generator_sweep", ran, mats, tol)
    if gated is not None:
        return gated
    checked, worst, failure = sweep(mats)
    if failure is None:
        return passed(checked, worst, swept)
    return failed(checked, *failure)

"""Checkable positivity certificates for commuting contraction tuples.

Every certificate builds a concrete test operator and returns a structured
report with the PSD margin, the first failing parameter (lexicographic), and
the tolerances used.  A "pass" from a swept or sampled check is always
qualified by its bound in the report notes — none of these procedures can
discharge a universally quantified condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import semigroups as sg
from .errors import (
    CapExceededError,
    InputError,
    MembershipError,
    UnsupportedStructureError,
)
from .linalg import (
    DEFAULT_PSD_TOL,
    CMatrix,
    _freeze,
    adjoint,
    block_assemble,
    block_decompose,
    cmatrix,
    commutator_residual,
    loewner_leq,
    norm_excess,
    operator_norm,
    psd_check,
)
from .representations import (
    InvolutionPoint,
    Representation,
    eval_rep,
    point_mul,
    star_kernel,
    tilde_eval,
)
from .semigroups import GroupElement, _is_int

#: Hard cap on subset-enumeration size (2^cap evaluations).
DEFAULT_SUBSET_CAP = 16
#: Default bound for degree sweeps.
DEFAULT_MAX_DEGREE = 6

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
        return {
            "condition": self.condition,
            "parameters": _plain(self.parameters),
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": _plain(self.witness),
            "tolerances": _plain(self.tolerances),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# alternating-sum operators

def _defect_map(mats, order, dim: int) -> CMatrix:
    """Delta_{order[0]} o ... o Delta_{order[-1]}(I) for the defect map
    Delta_i(X) = X - T_i* X T_i (Agler's hereditary form).  Expanding the
    composition gives every alternating binomial and subset sum in this
    module, at one Delta step per index instead of one Gram term per
    summand, and without the cancellation of the expanded sum."""
    pairs = [(np.conj(m).T, m) for m in map(np.asarray, mats)]
    x = np.eye(dim, dtype=np.complex128)
    for i in reversed(order):
        t_adj, t = pairs[i]
        x = x - t_adj @ x @ t
    return _freeze(x)


def box_operator(mats, degrees: DegreeTuple) -> CMatrix:
    """The alternating multi-binomial operator

        sum_k (-1)^{|k|} C(n1,k1)...C(nm,km) T1*^{k1}..Tm*^{km} Tm^{km}..T1^{k1}

    over the box 0 <= k_i <= n_i, evaluated by the defect-map kernel as
    Delta_1^{n1} o ... o Delta_m^{nm}(I).  Delta_1 is outermost, which gives
    exactly the adjoint ordering above, also for non-commuting input."""
    mats = [np.asarray(m) for m in mats]
    degrees = degree_tuple(degrees)
    if not mats:
        raise InputError("at least one operator required")
    if len(mats) != len(degrees):
        raise InputError("one degree per operator required")
    order = [i for i, d in enumerate(degrees) for _ in range(d)]
    return _defect_map(mats, order, mats[0].shape[0])


def brehmer_sum(mats, letters, dim: int) -> CMatrix:
    """Alternating subset sum  sum_{V subseteq U} (-1)^{|V|} M_V* M_V  where
    M_V multiplies one image per letter in V (letters name operator indices,
    repeats allowed), evaluated by the same defect-map kernel as
    box_operator: Delta_{letters[0]} o ... o Delta_{letters[-1]}(I), one
    Delta step per letter.  M_V takes its factors in reverse letter order;
    for commuting images the order is immaterial."""
    return _defect_map(mats, letters, dim)


# ---------------------------------------------------------------------------
# certificates

def _operators(ts) -> list[CMatrix]:
    """Read an operator tuple: cmatrix on each, one shared square shape."""
    mats = [cmatrix(m) for m in ts]
    if any(m.shape != (mats[0].shape[0],) * 2 for m in mats):
        raise InputError("operators must share a square shape")
    return mats


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


def _gate(condition: str, parameters: dict, mats,
          tol: float) -> tuple[CertificateReport | None, float | None]:
    """The precondition gate of every sum-based certificate.  Returns the
    not-applicable report when some operator is not a contraction or,
    failing that, some pair does not commute, else None; and, second, the
    commutator residual whenever it was computed."""
    worst, index = norm_excess(mats)
    if worst > tol:
        witness = {"reason": "not a contraction",
                   "index": index, "norm_excess": worst}
        comm = None
    else:
        comm, pair = commutator_residual(mats)
        if comm <= tol:
            return None, comm
        witness = {"reason": "non-commuting", "pair": list(pair),
                   "residual": comm}
    return CertificateReport(
        condition=condition, parameters=parameters, verdict="not-applicable",
        margin=None, witness=witness, tolerances={"tol": tol},
    ), comm


def agler_certificate(
    t: CMatrix, n: int, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Positivity of the alternating binomial sum of *-powers at degree n."""
    t = cmatrix(t)
    if t.shape[0] != t.shape[1]:
        raise InputError("agler_certificate requires a square matrix")
    if not _is_int(n) or n < 0:
        raise InputError("degree must be a non-negative int")
    gated, _ = _gate("agler", {"n": n}, (t,), tol)
    if gated is not None:
        return gated
    verdict = psd_check(box_operator((t,), (n,)), tol)
    return _psd_report("agler", {"n": n}, verdict, tol, {"n": n})


def athavale_certificate(
    ts, n: DegreeTuple, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Positivity of the multi-binomial alternating sum for a commuting
    contraction tuple at the degree box n."""
    mats = _operators(ts)
    n = degree_tuple(n)
    if len(mats) != len(n):
        raise InputError("one degree per operator required")
    gated, comm = _gate("athavale", {"n": list(n)}, mats, tol)
    if gated is not None:
        return gated
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
            if d.kind != sg.FREE_ABELIAN:
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
    gated, _ = _gate("brehmer", parameters, t.generator_images, tol)
    if gated is not None:
        return gated
    verdict = psd_check(brehmer_sum(t.generator_images, idxs, t.dimension), tol)
    return _psd_report("brehmer", parameters, verdict, tol, {"letters": letters})


def athavale_vs_brehmer(
    ts, n: DegreeTuple, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[CMatrix, CMatrix, float]:
    """Evaluate the degree-box alternating sum and the subset alternating sum
    over a letter set holding n_i copies of operator i; returns both
    operators and their max entrywise deviation.  Both routes evaluate the
    same defect-map kernel on the same index order, so they agree exactly;
    the independent check of that kernel is the explicit binomial expansion
    kept in the test suite."""
    mats = _operators(ts)
    n = degree_tuple(n)
    if len(mats) != len(n):
        raise InputError("one degree per operator required")
    total = sum(n)
    if total > cap:
        raise CapExceededError(total, cap, 2 ** total)
    star_side = box_operator(mats, n)
    dim = star_side.shape[0]
    letters = [i for i in range(len(mats)) for _ in range(n[i])]
    subset_side = brehmer_sum(mats, letters, dim)
    deviation = float(np.abs(star_side - subset_side).max()) if dim else 0.0
    return star_side, subset_side, deviation


# ---------------------------------------------------------------------------
# sampled kernel conditions

@dataclass(frozen=True)
class SzNagyConfig:
    sample_points: tuple[InvolutionPoint, ...]
    bound_element: InvolutionPoint
    bound_constant: float = 1.0

    def __post_init__(self):
        if not self.sample_points:
            raise InputError("at least one sample point required")
        if not self.bound_constant > 0:
            raise InputError("bound constant must be positive")


def sznagy_check(
    t: Representation, cfg: SzNagyConfig, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sampled involution-kernel conditions: (i) kernel symmetry under the
    involution, (ii) positivity of the assembled kernel block matrix,
    (iii) the bounded-element Loewner inequality with constant C."""
    d = t.descriptor
    pts = cfg.sample_points
    for s in pts + (cfg.bound_element,):
        for comp in (s.left, s.right):
            if not sg.contains(d, comp):
                raise MembershipError(f"{comp.coords!r} is not in the semigroup")

    k_blocks = [[star_kernel(t, si, sj) for sj in pts] for si in pts]

    sym = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            sym = max(sym, operator_norm(adjoint(k_blocks[i][j]) - k_blocks[j][i]))
    scale = max(1.0, max(operator_norm(b) for row in k_blocks for b in row))
    sym_ok = sym <= tol * scale

    kernel = block_assemble(k_blocks)
    pos = psd_check(kernel, tol)

    a = cfg.bound_element
    shifted = [point_mul(d, a, s) for s in pts]
    lhs = block_assemble(
        [[star_kernel(t, si, sj) for sj in shifted] for si in shifted]
    )
    c2 = cfg.bound_constant ** 2
    bound = loewner_leq(lhs, c2 * kernel, tol)

    failed = []
    if not sym_ok:
        failed.append(("i", {"symmetry_residual": sym}))
    if not pos.is_psd:
        failed.append(("ii", {"margin": pos.min_eigenvalue}))
    if not bound.is_psd:
        failed.append(("iii", {"margin": bound.min_eigenvalue}))
    return CertificateReport(
        condition="sznagy",
        parameters={
            "sample_count": len(pts),
            "bound_constant": cfg.bound_constant,
            "symmetry_residual": sym,
        },
        verdict="pass" if not failed else "fail",
        margin=min(pos.min_eigenvalue, bound.min_eigenvalue),
        witness=None if not failed else {"condition": failed[0][0],
                                         **failed[0][1]},
        tolerances={"tol": tol, "tolerance_used": pos.tolerance_used},
        notes=("sampled verdict: checked on the supplied finite sample only",),
    )


def regularity_check(
    t: Representation, ps, g: GroupElement, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sampled regularity inequality: with X = [T~(p_i - p_j)] and the meet
    condition g ^ p_i = unit for all i, checks [T(g)* X_ij T(g)] <= [X_ij]."""
    d = t.descriptor
    if not d.lattice_ordered:
        raise UnsupportedStructureError(
            "regularity_check requires a lattice-ordered descriptor"
        )
    points = [sg.element(d, p) for p in ps]
    g = sg.element(d, g)
    if not sg.contains(d, g):
        raise MembershipError(f"{g.coords!r} is not in the semigroup")
    for i, p in enumerate(points):
        if not sg.contains(d, p):
            raise MembershipError(f"{p.coords!r} is not in the semigroup")
    e = sg.unit(d)
    for i, p in enumerate(points):
        if sg.meet_join(d, g, p)[0] != e:
            return CertificateReport(
                condition="regularity",
                parameters={"g": g, "points": points},
                verdict="not-applicable", margin=None,
                witness={"reason": "meet condition violated", "index": i,
                         "p": points[i]},
                tolerances={"tol": tol},
            )
    x_blocks = [[tilde_eval(t, sg.sub(d, pi, pj)) for pj in points]
                for pi in points]
    tg = eval_rep(t, g)
    tga = adjoint(tg)
    l_blocks = [[tga @ b @ tg for b in row] for row in x_blocks]
    verdict = loewner_leq(block_assemble(l_blocks), block_assemble(x_blocks), tol)
    return _psd_report(
        "regularity", {"g": g, "points": points}, verdict, tol,
        {"g": g, "points": points},
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


def generator_certificate(
    t, max_degree: int = DEFAULT_MAX_DEGREE, tol: float = DEFAULT_PSD_TOL
) -> CertificateReport:
    """Sweep the multi-binomial certificate over the generator images for all
    degree tuples with sum <= max_degree, lexicographically, stopping at the
    first failure.  A pass is only a pass up to the swept bound."""
    if isinstance(t, Representation):
        if not t.descriptor.finitely_generated:
            raise UnsupportedStructureError(
                "generator_certificate requires a finitely generated descriptor"
            )
        mats = list(t.generator_images)
    else:
        mats = _operators(t)
    if not _is_int(max_degree) or max_degree < 0:
        raise InputError("max_degree must be a non-negative int")
    base_tols = {"tol": tol}
    if not mats:
        return CertificateReport(
            condition="generator_sweep",
            parameters={"max_degree": max_degree, "tuples_checked": 0},
            verdict="pass", margin=None, witness=None, tolerances=base_tols,
            notes=("vacuous: no generators",),
        )
    gated, _ = _gate("generator_sweep", {"max_degree": max_degree}, mats, tol)
    if gated is not None:
        return gated
    m = len(mats)
    worst = None
    checked = 0
    for n in itertools.product(range(max_degree + 1), repeat=m):
        if sum(n) > max_degree:
            continue
        checked += 1
        verdict = psd_check(box_operator(mats, n), tol)
        if not verdict.is_psd:
            return _psd_report(
                "generator_sweep",
                {"max_degree": max_degree, "tuples_checked": checked},
                verdict, tol, {"n": list(n)},
                notes=(f"first failing degree tuple in lexicographic order "
                       f"within sum <= {max_degree}",))
        if worst is None or verdict.min_eigenvalue < worst:
            worst = verdict.min_eigenvalue
    return CertificateReport(
        condition="generator_sweep",
        parameters={"max_degree": max_degree, "tuples_checked": checked},
        verdict="pass", margin=worst, witness=None, tolerances=base_tols,
        notes=(f"pass swept over all degree tuples with sum <= {max_degree}",),
    )

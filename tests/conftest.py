"""Suite-level reporting and shared reference implementations.

Acceptance tests register one [PASS]/[FAIL] line each; they are replayed
after the run (capture is released by then) so the log always carries the
per-criterion outcomes.  The whole suite has a two-minute wall budget.

``explicit_box_sum`` is the independent oracle for ``box_operator``: the
package evaluates alternating sums by the iterated defect map, this module
by the explicit binomial expansion.  ``reference_norm`` is the one-matrix
oracle of ``operator_norm`` and ``operator_norms``: one Gram product and
one eigensolve per matrix.  ``gate_oracle`` is the oracle of the
certificates' precondition gate: one ``operator_norm`` per operator and
per commutator.  ``sweep_oracle`` is the per-box oracle of the stacked
generator sweep: that gate, then one Delta step and one ``psd_check`` per
degree tuple; the ``delta_path`` fixture turns the sweep's closed-form
route off, so that the sweep takes that path too.  ``count_solvers``
records the stacks that LAPACK calls see, and whether each Cholesky
factorization completed.
``sznagy_kernels``, ``regularity_kernels`` and ``homomorphism_residuals``
are the per-entry oracles of the stacked sampled checks: one
``star_kernel``, ``tilde_eval`` or ``operator_norm`` call per block or
sampled pair.

A warning raised by a test in this directory fails that test.  The
hypothesis plugin imports its patch writer (and through it libcst, which
warns on import) while it reports a failing property test, inside the
test's warning filter; ``pytest_configure`` imports it once beforehand with
that warning ignored, so the failure is reported and the run goes on.

Every hypothesis property test runs under one profile: derandomized and
without an example database, so tier-1 draws the same examples on every run.
Hypothesis also caches the constants it reads from local source; that cache
goes under pytest's own cache directory, so no ``.hypothesis/`` is written.
"""

import contextlib
import itertools
import math
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir


settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

_T0 = time.monotonic()
_BUDGET_S = 120.0

ACCEPTANCE_LINES: list[str] = []


def explicit_box_sum(mats, degrees):
    """The alternating multi-binomial sum written out term by term:

        sum_k (-1)^{|k|} C(n1,k1)...C(nm,km) T1*^{k1}..Tm*^{km} Tm^{km}..T1^{k1}

    over the box 0 <= k_i <= n_i, with exact integer coefficients and one
    Gram term per summand.  Reference only: it cancels catastrophically at
    high degree."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=np.complex128)
    for k in itertools.product(*(range(n + 1) for n in degrees)):
        left = np.eye(dim, dtype=np.complex128)
        for t, ki in zip(reversed(mats), reversed(k)):  # Tm^km ... T1^k1
            left = left @ np.linalg.matrix_power(t, ki)
        coeff = math.prod(math.comb(n, ki) for n, ki in zip(degrees, k))
        total += (-1) ** sum(k) * coeff * (np.conj(left).T @ left)
    return total


def reference_norm(a):
    """Largest singular value, via the top eigenvalue of A*A, the root taken
    in float64; 0.0 for an empty matrix."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    top = float(np.linalg.eigvalsh(np.conj(a).T @ a)[-1])
    return float(np.sqrt(max(top, 0.0)))


def _first_largest(items):
    worst, at = 0.0, None
    for key, r in items:
        if r > worst:
            worst, at = r, key
    return worst, at


def gate_oracle(mats, tol):
    """The witness of the certificates' precondition gate, or None when it
    passes, from one ``operator_norm`` per operator and per commutator."""
    from normex import operator_norm
    excess, index = _first_largest(
        (i, operator_norm(m) - 1.0) for i, m in enumerate(mats))
    if excess > tol:
        return {"reason": "not a contraction", "index": index,
                "norm_excess": excess}
    comm, pair = _first_largest(
        ((i, j), operator_norm(a @ b - b @ a))
        for (i, a), (j, b) in itertools.combinations(enumerate(mats), 2))
    if comm > tol:
        return {"reason": "non-commuting", "pair": list(pair),
                "residual": comm}
    return None


class SolverCalls(dict):
    """{name: [shape, ...]}, the shape of the first argument of each call
    of the named ``np.linalg`` functions, and ``completed``, one bool per
    ``cholesky`` call: whether its factorization completed."""

    def __init__(self, names):
        super().__init__((name, []) for name in names)
        self.completed = []


def count_solvers(monkeypatch, *names):
    """Record the calls of the named ``np.linalg`` functions in a
    ``SolverCalls``, which compares equal to its dict of shapes."""
    calls = SolverCalls(names)
    for name in names:
        def counted(a, *args, real=getattr(np.linalg, name), name=name,
                    **kwargs):
            calls[name].append(np.shape(a))
            if name != "cholesky":
                return real(a, *args, **kwargs)
            try:
                out = real(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.completed.append(False)
                raise
            calls.completed.append(True)
            return out
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def sweep_oracle(mats, max_degree, tol=1e-8):
    """``generator_certificate``'s report, one box at a time: the gate
    from one ``operator_norm`` per generator and per commutator, then every
    degree tuple in lexicographic order, box(n) = Delta_j(box(n - e_j))
    from a stored predecessor (j the first nonzero index of n) and one
    ``psd_check`` per box, stopping at the first failure.  Raises what
    ``psd_check`` raises."""
    from normex import CertificateReport, cmatrix, psd_check
    mats = [cmatrix(m) for m in mats]
    ran = {"max_degree": max_degree}

    def report(verdict, checked=None, margin=None, witness=None, notes=(),
               **tolerances):
        return CertificateReport(
            "generator_sweep",
            ran if checked is None else {**ran, "tuples_checked": checked},
            verdict, margin, witness, {"tol": tol, **tolerances}, notes)
    if not mats:
        return report("pass", 0, notes=("vacuous: no generators",))

    gated = gate_oracle(mats, tol)
    if gated is not None:
        return report("not-applicable", witness=gated)
    live, worst, checked = {}, None, 0
    for n in itertools.product(range(max_degree + 1), repeat=len(mats)):
        if sum(n) > max_degree:
            continue
        j = next((i for i, d in enumerate(n) if d), None)
        if j is None:
            box = np.eye(mats[0].shape[0], dtype=np.complex128)
        else:
            prev = n[:j] + (n[j] - 1,) + n[j + 1:]
            x, t = live.pop(prev) if j == 0 else live[prev], mats[j]
            box = x - np.conj(t).T @ x @ t
        if sum(n) < max_degree:
            live[n] = box
        checked += 1
        v = psd_check(box, tol)
        if not v.is_psd:
            return report(
                "fail", checked, v.min_eigenvalue, {"n": list(n)},
                ("first failing degree tuple in lexicographic order within "
                 f"sum <= {max_degree}",), tolerance_used=v.tolerance_used)
        if worst is None or v.min_eigenvalue < worst:
            worst = v.min_eigenvalue
    return report("pass", checked, worst, notes=(
        f"pass swept over all degree tuples with sum <= {max_degree}",))


@pytest.fixture
def delta_path(monkeypatch):
    """The generator sweep with its closed-form route off, so that every
    tuple takes the Delta walk and the judge: for the tests whose subject
    they are."""
    from normex import certificates
    monkeypatch.setattr(certificates, "_closed_form", lambda *args: None)


def _hermitian_grid(n, entry):
    """The n x n block grid with block (i, j) = entry(i, j) for i <= j and
    block (j, i) its adjoint, assembled block by block."""
    from normex import adjoint, block_assemble
    return block_assemble([[entry(i, j) if i <= j else adjoint(entry(j, i))
                            for j in range(n)] for i in range(n)])


def sznagy_kernels(t, cfg):
    """The two kernels of ``sznagy_check`` one block at a time: K with
    block (i, j) = star_kernel(t, s_i, s_j), and the shifted kernel at the
    points a s_i, a the bound element."""
    from normex import point_mul, star_kernel
    d, pts, n = t.descriptor, cfg.sample_points, len(cfg.sample_points)
    shifted = [point_mul(d, cfg.bound_element, s) for s in pts]
    return (_hermitian_grid(n, lambda i, j: star_kernel(t, pts[i], pts[j])),
            _hermitian_grid(n, lambda i, j: star_kernel(
                t, shifted[i], shifted[j])))


def regularity_kernels(t, points, g):
    """The two grids of ``regularity_check`` one block at a time:
    [T(g)* X_ij T(g)] and X = [T~(p_i - p_j)]."""
    from normex import adjoint, eval_rep, sub, tilde_eval
    d, n = t.descriptor, len(points)
    tg = eval_rep(t, g)

    def x(i, j):
        return tilde_eval(t, sub(d, points[i], points[j]))
    return (_hermitian_grid(n, lambda i, j: adjoint(tg) @ x(i, j) @ tg),
            _hermitian_grid(n, x))


def homomorphism_residuals(t, sample_budget, seed):
    """``validate_rep``'s sampled pairs (p, q) one at a time, drawn in its
    order: the list of ||T(p + q) - T(p) T(q)||."""
    from normex import add, eval_rep, operator_norm, sample_member
    d, rng, out = t.descriptor, random.Random(seed), []
    for _ in range(sample_budget):
        p, q = sample_member(d, rng), sample_member(d, rng)
        out.append(operator_norm(
            eval_rep(t, add(d, p, q)) - eval_rep(t, p) @ eval_rep(t, q)))
    return out


def pytest_configure(config):
    # the hypothesis plugin reads local constants while collecting
    if hasattr(config, "cache"):  # absent under -p no:cacheprovider
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
    # without libcst, an optional hypothesis dependency, there is no patch
    # writer to import and nothing to warn
    with warnings.catch_warnings(), contextlib.suppress(ImportError):
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401


def pytest_collection_modifyitems(config, items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def pytest_sessionfinish(session, exitstatus):
    out = sys.__stdout__
    if ACCEPTANCE_LINES:
        print("\nacceptance summary:", file=out)
        for line in ACCEPTANCE_LINES:
            print(line, file=out)
    elapsed = time.monotonic() - _T0
    tag = "PASS" if elapsed < _BUDGET_S else "FAIL"
    print(f"[{tag}] full test suite wall time {elapsed:.1f}s "
          f"(budget {_BUDGET_S:.0f}s)", file=out, flush=True)
    if tag == "FAIL" and session.exitstatus == 0:
        session.exitstatus = 1

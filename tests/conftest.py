"""Suite-level reporting and shared reference implementations.

Acceptance tests register one [PASS]/[FAIL] line each; they are replayed
after the run (capture is released by then) so the log always carries the
per-criterion outcomes.  The whole suite has a two-minute wall budget.

``explicit_box_sum`` is the independent oracle for ``box_operator``: the
package evaluates alternating sums by the iterated defect map, this module
by the explicit binomial expansion.
"""

import itertools
import math
import sys
import time

import numpy as np

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

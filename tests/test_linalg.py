"""Matrix-kernel tests.

The PSD oracle here is an independent hand-written Cholesky attempt (shifted
by the verdict tolerance), frozen before the library behavior was tuned; the
spectral path must agree with it outside the tolerance band.
"""

import math

import numpy as np
import pytest
from conftest import count_solvers, reference_norm
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normex import (
    BlockDecomposition,
    InputError,
    NotHermitianError,
    block_assemble,
    block_decompose,
    cmatrix,
    hermitian_eig,
    identity,
    loewner_leq,
    operator_norm,
    psd_check,
)
from normex.linalg import (
    _cholesky_clears,
    _psd_stack,
    commutator_residual,
    joint_spectrum,
    largest,
    norm_excess,
    operator_norms,
)


def _attempt_cholesky(h: np.ndarray) -> bool:
    """Plain (unpivoted) Cholesky attempt; success certifies positive
    definiteness.  Used on H + tol*I so it decides minEig > -tol."""
    n = h.shape[0]
    low = np.zeros_like(h, dtype=np.complex128)
    for j in range(n):
        s = h[j, j] - low[j, :j] @ np.conj(low[j, :j])
        d = float(np.real(s))
        if d <= 0.0:
            return False
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1:, j] = (h[j + 1:, j] - low[j + 1:, :j] @ np.conj(low[j, :j])) / low[j, j]
    return True


def psd_oracle(a: np.ndarray, shift: float) -> bool:
    h = (a + np.conj(a).T) / 2.0
    return _attempt_cholesky(h + shift * np.eye(h.shape[0]))


def _rand(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.inf)]
NON_FINITE_IDS = ["nan", "inf", "-inf", "imag-inf"]


class TestPsdCheck:
    @pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_entry_rejected(self, bad):
        # a NaN once gave is_psd=True; the check comes before any
        # arithmetic, so no numpy warning is raised either
        for at in ((0, 0), (0, 1)):
            a = np.eye(2, dtype=complex)
            a[at] = bad
            with pytest.raises(InputError, match="finite"):
                psd_check(a)

    @pytest.mark.parametrize("k", [401, 600, 1000])
    def test_huge_entries_are_rescaled(self, k):
        # beyond 2^400 the check runs on an exact power-of-two rescale;
        # unscaled, the Frobenius norm of the skew part overflowed
        rng = np.random.default_rng(8)
        x = _rand(rng, 4)
        a = x @ np.conj(x).T - 3.0 * np.eye(4) + 1e-12 * _rand(rng, 4)
        small, big = psd_check(a), psd_check(a * 2.0 ** k)
        assert big.is_psd == small.is_psd
        for field in ("min_eigenvalue", "hermitian_defect", "tolerance_used"):
            want = getattr(small, field) * 2.0 ** k
            assert getattr(big, field) == pytest.approx(want, rel=1e-12)

    def test_integer_input(self):
        v = psd_check(np.array([[1, 2], [2, 1]]))
        assert (v.is_psd, v.min_eigenvalue) == (False, -1.0)
        assert v.tolerance_used == 1e-8 * 3.0
        assert type(v.tolerance_used) is float

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, int])
    def test_low_precision_and_integer_input(self, dtype):
        # the rescale test compares Python floats, so 2^799 is never cast
        # to float32, which overflows (a warning fails the test); each
        # verdict is that of the same entries in complex128, up to the
        # input's precision
        x = np.random.default_rng(3).standard_normal((4, 4))
        for a in (np.eye(3), 2.0 * x @ x.T - 3.0 * np.eye(4)):
            a = a.astype(dtype)
            v, want = psd_check(a), psd_check(a.astype(complex))
            assert v.is_psd == want.is_psd
            assert v.min_eigenvalue == pytest.approx(
                want.min_eigenvalue, rel=1e-5, abs=1e-5)
            assert type(v.min_eigenvalue) is float

    def test_float32_beyond_its_own_range(self):
        # ||A||_F^2 = 3e40 overflows float32: the rescale runs in float64
        a = np.float32(1e20) * np.eye(3, dtype=np.float32)
        a[0, 1] = a[1, 0] = np.float32(-3e20)
        assert np.vdot(a, a) == np.inf
        v, want = psd_check(a), psd_check(a.astype(complex))
        assert (v.is_psd, v.hermitian_defect) == (False, 0.0)
        assert v.min_eigenvalue == pytest.approx(want.min_eigenvalue,
                                                 rel=1e-12)
        assert v.tolerance_used == pytest.approx(want.tolerance_used,
                                                 rel=1e-12)

    def test_entries_near_the_float_maximum(self):
        v = psd_check(np.diag([1.5e308, 1.0]))
        assert v.is_psd and v.min_eigenvalue == 1.0

    def test_identity(self):
        v = psd_check(identity(3))
        assert v.is_psd and abs(v.min_eigenvalue - 1.0) < 1e-12
        assert v.hermitian_defect == 0.0

    def test_indefinite_diagonal(self):
        v = psd_check(cmatrix(np.diag([1.0, -1.0])))
        assert not v.is_psd
        assert abs(v.min_eigenvalue + 1.0) < 1e-12

    def test_gram_is_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = _rand(rng, 4)
            assert psd_check(np.conj(v).T @ v).is_psd

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            psd_check(np.zeros((2, 3)))

    def test_non_hermitian_is_distinct_failure(self):
        with pytest.raises(NotHermitianError) as exc:
            psd_check(cmatrix([[0, 1], [0, 0]]))
        assert abs(exc.value.defect - 1.0) < 1e-12

    def test_one_eigensolve_within_tolerance(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counted(*args, fn=getattr(np.linalg, name), name=name,
                        **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        a = _rand(np.random.default_rng(5), 6)
        v = psd_check(np.conj(a).T @ a + 1e-12 * a)
        assert v.is_psd
        assert calls == ["eigvalsh"]

    def test_skew_part_is_judged_by_its_spectral_norm(self):
        # A - A* = 0.9e-8 * four 2x2 rotation blocks: Frobenius norm
        # 0.9e-8 * sqrt(8) > tol, spectral norm 0.9e-8 <= tol
        rot = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        v = psd_check(np.eye(8) + 0.45e-8 * rot)
        assert v.is_psd
        assert abs(v.hermitian_defect - 0.9e-8) <= 1e-20
        assert v.tolerance_used == 1e-8

    def test_hermitian_defect_bounds_the_spectral_defect(self):
        rng = np.random.default_rng(13)
        tol = 1e-8
        branches = set()
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = _rand(rng, n)
            h = (a + np.conj(a).T) / 4.0
            k = _rand(rng, n)
            k = k - np.conj(k).T
            k *= rng.uniform(0.0, 0.9) * tol / np.linalg.norm(k, 2)
            near = h + k / 2.0
            skew = near - np.conj(near).T
            v = psd_check(near, tol)
            assert v.hermitian_defect >= np.linalg.norm(skew, 2) * (1 - 1e-12)
            branches.add(np.linalg.norm(skew) > v.tolerance_used)
        assert branches == {True, False}  # both defect routes are exercised

    def test_oracle_agreement(self):
        # 1000 random Hermitian matrices; spectral verdict and factorization
        # oracle must agree whenever |minEig| is outside twice the tolerance
        rng = np.random.default_rng(11)
        tol = 1e-8
        checked = disagree_allowed = 0
        for i in range(1000):
            n = int(rng.integers(1, 9))
            kind = i % 3
            a = _rand(rng, n)
            h = (a + np.conj(a).T) / 2.0
            if kind == 1:  # genuinely PSD
                h = np.conj(a).T @ a
            elif kind == 2:  # near the boundary
                h = np.conj(a).T @ a - 1.5e-8 * np.eye(n)
            v = psd_check(h, tol)
            o = psd_oracle(h, v.tolerance_used)
            if abs(v.min_eigenvalue) <= 2 * v.tolerance_used:
                disagree_allowed += 1
                continue
            checked += 1
            assert v.is_psd == o, f"disagreement at sample {i}"
        assert checked > 600  # the band must not swallow the test


class TestPsdStack:
    """The stacked rule that psd_check is the one-matrix case of."""

    def test_verdicts_equal_one_by_one(self):
        # PSD stacks, some matrices beyond the 2^800 rescale threshold and
        # some with a Frobenius defect above the tolerance
        rng = np.random.default_rng(21)
        rot = 0.45e-8 * np.kron(np.eye(3), np.array([[0.0, 1.0],
                                                     [-1.0, 0.0]]))
        spectral = huge = 0
        for trial in range(40):
            stack = []
            for i in range(5):
                x = _rand(rng, 6)
                a = x @ np.conj(x).T
                a = a / (2.0 * operator_norm(a))  # ||H|| < 1: tolerance 1e-8
                if (trial + i) % 4 == 0:
                    a = a * 2.0 ** 500
                elif (trial + i) % 3 == 0:
                    a = a + rot
                stack.append(a)
            stack = np.array(stack)
            mins, tolerance, defect = _psd_stack(stack, 1e-8)
            want = [psd_check(a) for a in stack]
            assert np.array_equal(mins, [v.min_eigenvalue for v in want])
            assert np.array_equal(tolerance, [v.tolerance_used for v in want])
            assert defect == want[-1].hermitian_defect
            spectral += sum(v.hermitian_defect == pytest.approx(0.9e-8)
                            for v in want)
            huge += sum(t > 1e100 for t in tolerance)
        assert spectral > 10 and huge > 10  # both paths are exercised

    def test_empty_matrices_pass_with_zero_margin(self):
        mins, tolerance, defect = _psd_stack(np.zeros((3, 0, 0)), 1e-8)
        assert np.array_equal(mins, [0.0] * 3)
        assert np.array_equal(tolerance, [1e-8] * 3)
        assert defect == 0.0

    PSD = np.eye(2)
    FAIL = np.diag([-1.0, 1.0])
    SKEW = np.array([[0.0, 1.0], [0.0, 0.0]])
    NAN = np.diag([np.nan, 1.0])

    @pytest.mark.parametrize("order, decides", [
        (("PSD", "FAIL", "SKEW", "NAN"), 1),
        (("PSD", "SKEW", "FAIL"), NotHermitianError),
        (("FAIL", "NAN"), 0),
        (("PSD", "NAN", "FAIL"), InputError),
        (("NAN", "PSD"), InputError),
        (("PSD", "PSD", "NAN"), InputError),
    ])
    def test_the_first_deciding_matrix_wins(self, order, decides):
        stack = np.array([getattr(self, name) for name in order],
                         dtype=np.complex128)
        if isinstance(decides, int):
            mins, tolerance, _ = _psd_stack(stack, 1e-8)
            assert len(mins) == decides + 1
            assert mins[-1] == -1.0 and tolerance[-1] == 1e-8
        else:
            with pytest.raises(decides):
                _psd_stack(stack, 1e-8)

    def test_a_frobenius_excess_alone_decides_nothing(self):
        rot = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        near = np.eye(8) + 0.45e-8 * rot
        mins, _, defect = _psd_stack(np.array([near, np.eye(8)]), 1e-8)
        assert len(mins) == 2 and defect == 0.0
        mins, _, defect = _psd_stack(np.array([np.eye(8), near]), 1e-8)
        assert len(mins) == 2 and abs(defect - 0.9e-8) <= 1e-20


def _screened(stack, floor):
    """Whether the shifted Cholesky screen clears a Hermitian stack above
    ``floor``: one factorization of H - cI, c = floor + s, where the slack
    s = 64 n u (||stack||_F + n |floor|) covers its rounding."""
    n = stack.shape[-1]
    s = 64 * n * 2.0 ** -53 * (np.linalg.norm(stack) + n * abs(floor))
    return _cholesky_clears(np.array(stack, dtype=np.complex128), floor + s)


class TestPsdScreen:
    """Given a floor and a slack for rounding, the shifted Cholesky screen
    ``_cholesky_clears`` clears matrices that the exact rule passes above
    the floor.  ``norm_excess`` screens contractions with it; what that
    screen cannot judge is left to the eigensolve."""

    def test_a_cleared_matrix_passes_above_the_floor(self):
        # PSD stacks of full and deficient rank, least eigenvalues from 0
        # (up to rounding) to 0.5, floors from well below the least margin
        # to a few slacks above it
        rng = np.random.default_rng(31)
        cleared = kept = 0
        for trial in range(300):
            n, k = int(rng.integers(1, 13)), int(rng.integers(1, 4))
            stack = []
            for _ in range(k):
                x = _rand(rng, n, int(rng.integers(1, n + 1)))
                a = x @ np.conj(x).T
                a = a / (2.0 * operator_norm(a)) + rng.uniform(0, 0.5) * (
                    trial % 2) * np.eye(n)
                stack.append(a)
            stack = np.array(stack)
            want = [psd_check(a) for a in stack]
            low = min(v.min_eigenvalue for v in want)
            slack = 64 * n * 2.0 ** -53 * np.linalg.norm(stack)
            floor = max(low - rng.uniform(-2.0, 4.0) * slack, -1e-8)
            if _screened(stack, floor):
                cleared += 1
                assert all(v.is_psd and v.min_eigenvalue > floor
                           for v in want)
            else:
                kept += 1
        assert cleared > 50 and kept > 50  # both outcomes are exercised

    def test_a_matrix_nearer_the_floor_than_rounding_is_kept(self):
        near = np.diag([0.5 + 2.0 ** -50, 1.0])[None].astype(np.complex128)
        assert not _screened(near, 0.5)
        assert _screened(near, 0.5 - 1e-12)

    @pytest.mark.parametrize("case", ["rescale", "defect", "nan", "tie"])
    def test_what_the_screen_cannot_judge_is_kept(self, monkeypatch, case):
        # norm_excess factors (1 - s)I - M*M, s = 64 n^2 u.  The clean
        # matrix is cleared alone, with no eigensolve, but not beside one
        # whose Gram product overflows (normed on its rescale), one of
        # deficient rank whose norm lies within s of 1, one that is not
        # finite or one that ties norm 1: the stack gets its norms from
        # the eigensolve (which does not converge on the NaN)
        clean = 0.5 * np.eye(8)
        rank_one = np.zeros((8, 8))
        rank_one[0] = (1.0 - 2.0 ** -50) / math.sqrt(8.0)
        odd, want = {"rescale": (2.0 ** 500 * np.eye(8), (2.0 ** 500, 1)),
                     "defect": (rank_one, (0.0, None)),
                     "nan": (np.diag([np.nan] + [0.5] * 7), None),
                     "tie": (np.eye(8), (0.0, None))}[case]
        calls = count_solvers(monkeypatch, "eigvalsh")
        assert norm_excess([clean]) == (0.0, None)
        assert calls == {"eigvalsh": []}
        stack = np.array([clean, odd], dtype=np.complex128)
        if case == "nan":
            with pytest.raises(np.linalg.LinAlgError):
                norm_excess(stack)
        else:
            assert norm_excess(stack) == want
        assert calls == {"eigvalsh": [(2, 8, 8)]}


class TestGateScans:
    @pytest.mark.parametrize("m, dim", [(0, 3), (1, 0), (1, 4), (2, 3),
                                        (3, 1), (4, 5), (6, 16), (3, 64)])
    def test_stacked_scans_equal_one_by_one(self, m, dim):
        # one stack holds at most 2048 // dim^2 matrices (or pairs): 8 at
        # dim 16, so 15 pairs go in two stacks, and one at dim 64
        rng = np.random.default_rng([m, dim])
        for scale in (0.2, 0.6):
            mats = [cmatrix(scale * _rand(rng, dim)) for _ in range(m)]
            mats += [mats[0]] if m == 4 else []  # a repeat: equal residuals
            assert norm_excess(mats) == largest(
                (i, operator_norm(a) - 1.0) for i, a in enumerate(mats))
            for others in (mats, [np.conj(a).T for a in mats]):
                want = largest(
                    ((i, j), operator_norm(mats[i] @ others[j]
                                           - others[j] @ mats[i]))
                    for i in range(len(mats))
                    for j in range(i + 1, len(mats)))
                assert commutator_residual(mats, others) == want

    @pytest.mark.parametrize("residuals, want", [
        ([0.5, 2.0, 2.0], ("2.0", 1)), ([-1.0, 0.0], ("0.0", None)),
        ([0.5, math.nan, 3.0, math.nan], ("nan", 1)),
        ([3.0, math.nan], ("nan", 1)), ([math.nan], ("nan", 0))])
    def test_largest_takes_the_first_nan(self, residuals, want):
        # a NaN residual (an overflow) is larger than any other
        worst, at = largest(enumerate(residuals))
        assert (repr(worst), at) == want


def _norm_case(kind, dim, rng, norm):
    """One dim x dim matrix for the contraction screen: scaled to ``norm``
    (or just above 1), a unitary or the nilpotent shift, both of norm 1
    (the shift is 0 at dim 1)."""
    if kind == "unitary":
        return np.linalg.qr(_rand(rng, dim))[0]
    if kind == "shift":
        return np.eye(dim, k=-1)
    x = _rand(rng, dim)
    if kind == "above":
        norm = 1.0 + 10.0 ** rng.uniform(-15, -6)
    return x * (norm / reference_norm(x)) if dim else x


class TestContractionScreen:
    """``norm_excess`` clears a tuple of contractions by one batched
    Cholesky of (1 - s)I - M*M; what it does not clear gets the norms from
    one eigensolve of the same Gram stack."""

    @settings(max_examples=150)
    @example(kinds=[], dim=3, seed=0, norm=0.5)  # no matrix
    @example(kinds=["scaled", "shift"], dim=0, seed=0, norm=0.5)  # 0 x 0
    @given(kinds=st.lists(st.sampled_from(
        ["scaled", "unitary", "shift", "above"]), max_size=4),
           dim=st.integers(0, 9), seed=st.integers(0, 2 ** 16),
           norm=st.floats(0.5, 1 - 1e-15))
    def test_equals_the_eigensolve_path(self, kinds, dim, seed, norm):
        # bitwise, the sign of a zero too: every norm from its own
        # eigensolve, floored at 0 and compared with 1 as largest does
        rng = np.random.default_rng(seed)
        mats = [cmatrix(_norm_case(k, dim, rng, norm)) for k in kinds]
        want = largest((i, reference_norm(a) - 1.0)
                       for i, a in enumerate(mats))
        assert repr(norm_excess(mats)) == repr(want)

    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_contractions_need_no_spectrum(self, monkeypatch, dim):
        # one stack of all three matrices up to dim 16, one matrix a stack
        # at dim 64.  A unitary's norm is 1 up to rounding, which the
        # screen leaves to one eigensolve of its stack's Gram matrices
        rng = np.random.default_rng(dim)
        mats = [_norm_case("scaled", dim, rng, r) for r in (0.5, 0.999)]
        unitary = _norm_case("unitary", dim, rng, None)
        calls = count_solvers(monkeypatch, "eigvalsh", "cholesky")
        assert norm_excess(mats) == (0.0, None)
        alone = (1, dim, dim)
        pair = [(2, dim, dim)] if dim <= 16 else [alone] * 2
        assert calls == {"eigvalsh": [], "cholesky": pair}
        calls["cholesky"].clear()
        assert norm_excess(mats + [unitary])[0] < 1e-12
        if dim <= 16:  # the unitary's stack is not factored
            assert calls == {"eigvalsh": [(3, dim, dim)], "cholesky": []}
        else:
            assert calls == {"eigvalsh": [alone], "cholesky": [alone] * 2}

    @pytest.mark.parametrize("kind", ["unitary", "shift"])
    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_a_column_of_norm_one_is_not_factored(self, monkeypatch, kind,
                                                  dim):
        # a Gram diagonal entry >= 1 - s makes a pivot of (1 - s)I - G
        # non-positive, so the factorization would fail: the stack that
        # holds x is not factored (at dim 64, 0.5 x has a stack alone)
        x = cmatrix(_norm_case(kind, dim, np.random.default_rng(dim), None))
        if kind == "shift" and dim == 1:
            x = cmatrix([[1.0]])  # the shift is 0 at dim 1
        mats = [0.5 * x, x]
        calls = count_solvers(monkeypatch, "cholesky")
        got = norm_excess(mats)
        assert calls["cholesky"] == ([] if dim < 64 else [(1, dim, dim)])
        monkeypatch.undo()
        assert repr(got) == repr(largest(
            (i, reference_norm(a) - 1.0) for i, a in enumerate(mats)))


    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_huge_entries_give_a_finite_excess(self, dim):
        # a Gram product of entries near 1e308 overflows; each such matrix
        # is normed on its power-of-two rescale, the others of its stack as
        # they are (warnings are errors here)
        rng = np.random.default_rng(dim)
        small = cmatrix(_norm_case("scaled", dim, rng, 0.5))
        unitary = cmatrix(_norm_case("unitary", dim, rng, None))
        x = _rand(rng, dim)
        for peak in (1e155, 1e200, 1e306):  # norm <= dim * peak
            big = cmatrix(x * (peak / np.abs(x).max()))
            excess, at = norm_excess([small, big, unitary])
            assert at == 1 and math.isfinite(excess)
            want = reference_norm(big / peak) * peak
            assert excess == pytest.approx(want, rel=1e-12)
        mats = [small, unitary]  # the same stack without the huge matrix
        assert repr(norm_excess(mats)) == repr(largest(
            (i, reference_norm(a) - 1.0) for i, a in enumerate(mats)))
        assert norm_excess([cmatrix([[1e308]])]) == (1e308, 0)


class TestLoewner:
    def test_reflexive(self):
        rng = np.random.default_rng(3)
        a = _rand(rng, 4)
        h = (a + np.conj(a).T) / 2.0
        v = loewner_leq(h, h)
        assert v.is_psd and abs(v.min_eigenvalue) < 1e-12

    def test_zero_below_identity(self):
        assert loewner_leq(np.zeros((3, 3)), identity(3)).is_psd

    def test_incomparable_projections(self):
        v = loewner_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not v.is_psd

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            loewner_leq(identity(2), identity(3))

    @pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_side_rejected(self, bad, side):
        a = np.eye(2, dtype=complex)
        a[0, 0] = bad
        args = (a, 2 * identity(2)) if side == "lower" else (identity(2), a)
        with pytest.raises(InputError, match="finite"):
            loewner_leq(*args)


class TestOperatorNorm:
    def test_unitary(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(_rand(rng, 3))
        assert abs(operator_norm(q) - 1.0) < 1e-12

    def test_diagonal(self):
        assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-12

    def test_nilpotent_jordan(self):
        assert abs(operator_norm(cmatrix([[0, 1], [0, 0]])) - 1.0) < 1e-12

    def test_submultiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = _rand(rng, 5), _rand(rng, 5)
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 2), (3, 5),
                                       (5, 3), (8, 8), (31, 31), (64, 64),
                                       (0, 3), (3, 0)])
    def test_stacked_norms_equal_one_by_one(self, shape):
        # one stacked Gram product and one batched eigensolve give each
        # matrix's norm bitwise as one Gram product and one eigensolve per
        # matrix do, zero matrices and empty ones too, whatever the dtype
        # and memory order; operator_norm is the one-matrix case
        rng = np.random.default_rng(shape)
        real = rng.standard_normal((4, *shape)) * 10.0 ** np.arange(-1, 3)[
            :, None, None]
        stack = real + 1j * rng.standard_normal((4, *shape))
        stack[1] = 0
        for a in (real, stack, real.astype(np.float32),
                  stack.astype(np.complex64), np.round(real).astype(int),
                  np.asfortranarray(stack)):
            want = [reference_norm(m) for m in a]
            got = operator_norms(a)
            assert got.shape == (4,) and got.dtype == np.float64
            assert np.array_equal(got, want), a.dtype
            singles = [operator_norm(np.asfortranarray(m)) for m in a]
            assert singles == want and {type(v) for v in singles} == {float}
        assert operator_norms(stack[:0]).shape == (0,)

    def test_huge_entries_give_finite_norms(self):
        # a Gram product of entries beyond about 2^511 overflows: past one
        # np.vdot over the stack, each matrix with ||A||_F^2 >= 2^800 is
        # normed on its power-of-two rescale and the others as they are,
        # exactly on these (warnings are errors here)
        assert operator_norm([[1e200, 0], [0, 0]]) == 1e200
        x = 2.0 ** 399.75  # ||A||_F^2 < 2^800, two of them above 2^799
        stack = np.array([[[1e200, 0], [0, 0]], [[0, 0.5], [0.25, 0]],
                          [[1e308, 0], [0, -1e308]], [[3, 0], [0, 4]],
                          [[x, 0], [0, 0]], [[0, x], [0, 0]]])
        assert operator_norms(stack).tolist() == [1e200, 0.5, 1e308, 4.0,
                                                  x, x]
        assert operator_norms(stack[3:]).tolist() == [4.0, x, x]


@settings(max_examples=100)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6),
       seed=st.integers(0, 2 ** 16), scale=st.floats(1e-3, 1e3),
       dtype=st.sampled_from([np.complex128, np.float64, np.float32,
                              np.complex64, np.int64]),
       zero=st.booleans())
def test_one_matrix_norm_is_the_stacked_one(rows, cols, seed, scale, dtype,
                                            zero):
    # operator_norm skips the stack, but not a bit of the result: equal to
    # operator_norms(a[None])[0], 0 for a matrix without entries
    a = scale * (not zero) * _rand(np.random.default_rng(seed), rows, cols)
    if not np.issubdtype(dtype, np.complexfloating):
        a = a.real
    a = (np.round(a) if dtype is np.int64 else a).astype(dtype)
    got, want = operator_norm(a), operator_norms(a[None])[0]
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
    if not a.size:
        assert repr(got) == "0.0"


class TestSpectralResiduals:
    def test_decomposition_quality(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 33))
            a = _rand(rng, n)
            h = (a + np.conj(a).T) / 2.0
            w, q = hermitian_eig(h)
            scale = max(1.0, operator_norm(h))
            assert operator_norm(h - q @ np.diag(w) @ np.conj(q).T) <= 1e-10 * scale
            assert operator_norm(np.conj(q).T @ q - np.eye(n)) <= 1e-10


class TestJointSpectrum:
    @pytest.mark.parametrize("m, dim", [(1, 1), (1, 16), (3, 8), (4, 64)])
    def test_commuting_normals_are_diagonalized_to_rounding(self, m, dim):
        # N_i = W D_i W*: the table holds each D_i in one joint order, and
        # the residual is at rounding level
        rng = np.random.default_rng(dim)
        w = np.linalg.qr(_rand(rng, dim))[0]
        diags = rng.uniform(-0.9, 0.9, (m, dim)) + 1j * rng.uniform(
            -0.4, 0.4, (m, dim))
        lam, r = next(joint_spectrum([w @ np.diag(d) @ np.conj(w).T
                                      for d in diags]))
        assert lam.shape == (m, dim) and not lam.flags.writeable
        order = np.argsort(lam[0].real)
        assert np.abs(lam[:, order] - diags[:, np.argsort(diags[0].real)]
                      ).max() <= 1e-12
        assert r <= 32 * dim * dim * 2.0 ** -53

    def test_a_scalar_tuple_has_residual_zero(self):
        lam, r = next(joint_spectrum([0.5 * np.eye(3), -0.25j * np.eye(3)]))
        assert r == 0.0 and np.array_equal(
            lam, np.array([[0.5] * 3, [-0.25j] * 3]))

    def test_a_non_normal_matrix_leaves_a_residual(self):
        j = np.array([[0.0, 0.0], [0.6, 0.0]])
        assert next(joint_spectrum([j]))[1] >= 0.3

    @pytest.mark.parametrize("commuting", [True, False])
    def test_a_basis_without_a_partial_cluster_is_final(self, monkeypatch,
                                                        commuting):
        # commuting normals in general position leave no entry above the
        # rounding level off the diagonal; two normals in different
        # eigenbases link every column.  Either way the first basis is the
        # only one, from one eigensolve
        rng = np.random.default_rng(8)
        bases = [np.linalg.qr(_rand(rng, 16))[0] for _ in range(2)]
        mats = [w @ np.diag(rng.uniform(-0.9, 0.9, 16)) @ np.conj(w).T
                for w in (bases[:1] * 2 if commuting else bases)]
        calls = count_solvers(monkeypatch, "eigh")
        [(_, r)] = list(joint_spectrum(mats))
        assert calls == {"eigh": [(16, 16)]}
        assert (r <= 32 * 16 * 16 * 2.0 ** -53) == commuting


class TestBlocks:
    def test_scalar_grid(self):
        m = block_assemble([[np.array([[1.0]]), np.array([[2.0]])],
                            [np.array([[3.0]]), np.array([[4.0]])]])
        assert np.array_equal(m, np.array([[1, 2], [3, 4]], dtype=np.complex128))

    def test_gram_grid_psd(self):
        rng = np.random.default_rng(17)
        vs = [_rand(rng, 5, 2) for _ in range(4)]
        grid = [[np.conj(a).T @ b for b in vs] for a in vs]
        assert psd_check(block_assemble(grid)).is_psd

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            block_assemble([[identity(2), identity(2)],
                            [identity(2), identity(3)]])

    def test_diagonal_decompose(self):
        d = np.diag([1.0, 2.0, 3.0, 4.0])
        bd = block_decompose(d, 2)
        assert np.array_equal(bd.corner, np.diag([1.0, 2.0]).astype(complex))
        assert np.all(bd.lower_left == 0)

    def test_rotation_blocks(self):
        c, s = 0.6, 0.8
        bd = block_decompose(cmatrix([[c, -s], [s, c]]), 1)
        assert bd.corner[0, 0] == c
        assert bd.lower_left[0, 0] == s

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, n + 1))
            a = _rand(rng, n)
            bd = block_decompose(a, k)
            assert isinstance(bd, BlockDecomposition)
            assert np.array_equal(bd.reassemble(), a)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            block_decompose(identity(3), 4)

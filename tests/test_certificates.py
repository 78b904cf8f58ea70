"""Positivity-certificate tests.

Every derived quantity is checked against an oracle computed by a second
route written in this file: scalar contractions against the closed form
(1-|t|^2)^n, jointly diagonal normals against the product closed form
prod_i (I - Ni*Ni)^{n_i}, the nilpotent 2x2 block by hand, the subset sum
against a naive full subset enumeration, and the box operator on
non-commuting tuples against the explicit binomial expansion in conftest.
"""

import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    count_solvers,
    explicit_box_sum,
    gate_oracle,
    regularity_kernels,
    sweep_oracle,
    sznagy_kernels,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normex import certificates, linalg, representations, semigroups
from normex import (
    CapExceededError,
    GroupElement,
    InputError,
    InvolutionPoint,
    MembershipError,
    NotHermitianError,
    SzNagyConfig,
    adjoint,
    agler_certificate,
    athavale_certificate,
    athavale_vs_brehmer,
    block_assemble,
    box_operator,
    brehmer_certificate,
    brehmer_sum,
    canonical_json,
    cmatrix,
    degree_tuple,
    element,
    eval_rep,
    extension_residual,
    free_abelian,
    generator_certificate,
    identity,
    involution_point,
    loewner_leq,
    make_commuting_normals,
    make_gallery,
    make_representation,
    numerical,
    operator_norm,
    product,
    psd_check,
    regularity_check,
    sample_member,
    star_kernel,
    sub,
    sznagy_check,
    tilde_eval,
)

J2 = np.array([[0.0, 0.0], [1.0, 0.0]])  # nilpotent lower shift


def naive_subset_sum(mats, letters, dim):
    """Oracle for the alternating subset sum: enumerate every subset
    explicitly and multiply letter images one by one, no caching."""
    total = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(len(letters) + 1):
        for subset in itertools.combinations(range(len(letters)), r):
            mv = np.eye(dim, dtype=np.complex128)
            for pos in subset:
                mv = mv @ mats[letters[pos]]
            total += (-1) ** r * (np.conj(mv).T @ mv)
    return total


def normal_closed_form(diags, degrees):
    """prod_i (I - Ni*Ni)^{n_i} for jointly diagonal normals."""
    out = np.ones(len(diags[0]), dtype=np.complex128)
    for d, n in zip(diags, degrees):
        out *= (1.0 - np.abs(np.asarray(d)) ** 2) ** n
    return np.diag(out)


class TestAgler:
    def test_scalar_closed_form(self):
        for t in (0.0, 0.3, 0.9, 1.0, 0.5 + 0.5j):
            for n in range(5):
                rep = agler_certificate(np.array([[t]]), n)
                want = (1.0 - abs(t) ** 2) ** n
                assert rep.passed
                assert abs(rep.margin - want) < 1e-12, (t, n)

    def test_nilpotent_block_by_hand(self):
        # J2*J2 = diag(1,0) and J2@J2 = 0, so the degree-2 alternating sum
        # is exactly I - 2*diag(1,0) = diag(-1, 1)
        hand = np.eye(2) - 2.0 * (np.conj(J2).T @ J2)
        assert np.array_equal(box_operator([J2], (2,)), hand)
        rep = agler_certificate(J2, 2)
        assert rep.verdict == "fail"
        assert abs(rep.margin + 1.0) <= 1e-12
        assert rep.witness is not None

    def test_nilpotent_degree_one_passes(self):
        rep = agler_certificate(J2, 1)
        assert rep.passed and abs(rep.margin) <= 1e-12

    def test_unitary_sums_vanish(self):
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
        for n in range(1, 5):
            rep = agler_certificate(u, n)
            assert rep.passed and abs(rep.margin) <= 1e-12

    def test_degree_zero(self):
        rep = agler_certificate(np.array([[0.5]]), 0)
        assert rep.passed and abs(rep.margin - 1.0) < 1e-12

    def test_expansive_not_applicable(self):
        rep = agler_certificate(1.5 * np.eye(2), 2)
        assert rep.verdict == "not-applicable"
        assert rep.margin is None
        assert rep.witness["reason"] == "not a contraction"
        # the shared gate: same witness as the multi-operator route
        assert rep.witness == athavale_certificate([1.5 * np.eye(2)], (2,)).witness
        assert rep.witness["index"] == 0
        assert abs(rep.witness["norm_excess"] - 0.5) <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            agler_certificate(np.zeros((2, 3)), 1)
        with pytest.raises(InputError):
            agler_certificate(J2, -1)


class TestAthavale:
    def test_single_operator_matches_agler_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = 0.9 * a / np.linalg.norm(a, 2)
            for n in range(4):
                one = agler_certificate(a, n)
                multi = athavale_certificate([a], (n,))
                assert one.verdict == multi.verdict
                assert one.margin == multi.margin  # identical arithmetic

    def test_diagonal_normals_closed_form(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            dim = int(rng.integers(2, 7))
            diags = [rng.uniform(0, 1, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))
                     for _ in range(m)]
            mats = [np.diag(d) for d in diags]
            degrees = tuple(int(rng.integers(0, 3)) for _ in range(m))
            got = box_operator(mats, degrees)
            want = normal_closed_form(diags, degrees)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert athavale_certificate(mats, degrees).passed

    @settings(max_examples=200)
    @given(st.data())
    def test_non_commuting_box_matches_explicit_sum(self, data):
        # random contractions that do not commute pin the adjoint ordering
        # T1*^k1..Tm*^km Tm^km..T1^k1 (reversing it moves entries by O(1))
        m = data.draw(st.integers(1, 3), label="m")
        dim = data.draw(st.integers(2, 4), label="dim")
        degrees, budget = [], 5
        for _ in range(m):
            degrees.append(data.draw(st.integers(0, budget), label="n_i"))
            budget -= degrees[-1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        mats = []
        for _ in range(m):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append(a / np.linalg.norm(a, 2))
        got = box_operator(mats, tuple(degrees))
        assert np.max(np.abs(got - explicit_box_sum(mats, degrees))) <= 1e-12

    def test_nilpotent_with_identity_partner(self):
        # the identity factor contributes I - I = 0 at degree 1, so the whole
        # product sum collapses to the zero matrix: a pass with margin 0
        rep = athavale_certificate([J2, np.eye(2)], (2, 1))
        assert rep.passed and abs(rep.margin) <= 1e-12
        assert np.max(np.abs(box_operator([J2, np.eye(2)], (2, 1)))) == 0.0

    def test_nilpotent_alone_fails(self):
        rep = athavale_certificate([J2, np.eye(2)], (2, 0))
        assert rep.verdict == "fail"
        assert abs(rep.margin + 1.0) <= 1e-12

    def test_non_commuting_not_applicable(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = athavale_certificate([h, x], (1, 1))
        assert rep.verdict == "not-applicable"
        assert rep.witness["reason"] == "non-commuting"

    def test_expansive_not_applicable(self):
        rep = athavale_certificate([1.2 * np.eye(2), 0.5 * np.eye(2)], (1, 1))
        assert rep.verdict == "not-applicable"
        assert rep.witness["reason"] == "not a contraction"

    def test_degree_length_mismatch(self):
        with pytest.raises(InputError):
            athavale_certificate([J2], (1, 1))


class TestBrehmerSum:
    def test_empty_letters_is_identity(self):
        mats = [np.diag([0.5, 0.2])]
        assert np.array_equal(brehmer_sum(mats, [], 2), np.eye(2))

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(59)
        for trial in range(15):
            dim = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            diags = [rng.uniform(0, 1, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))
                     for _ in range(m)]
            mats = [np.diag(d) for d in diags]
            n_letters = int(rng.integers(1, 9))
            letters = [int(rng.integers(0, m)) for _ in range(n_letters)]
            got = brehmer_sum(mats, letters, dim)
            want = naive_subset_sum(mats, letters, dim)
            assert np.max(np.abs(got - want)) <= 1e-13, trial

    def test_isometric_letters_vanish(self):
        u = np.diag(np.exp(1j * np.array([0.4, 1.3, 2.7, 5.1])))
        v = np.diag(np.exp(1j * np.array([2.2, 0.1, 3.9, 4.4])))
        for letters in ([0], [0, 1], [0, 0, 1], [0, 1, 1, 0]):
            s = brehmer_sum([u, v], letters, 4)
            assert np.max(np.abs(s)) <= 1e-12, letters

    def test_letter_order_irrelevant(self):
        rng = np.random.default_rng(61)
        d1 = rng.uniform(0, 0.9, 3)
        d2 = rng.uniform(0, 0.9, 3)
        mats = [np.diag(d1), np.diag(d2)]
        a = brehmer_sum(mats, [0, 0, 1, 1, 0], 3)
        b = brehmer_sum(mats, [1, 0, 0, 0, 1], 3)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestBrehmerCertificate:
    def _rep(self, *diags):
        d = free_abelian(len(diags))
        return make_representation(d, [np.diag(v) for v in diags])

    def test_normal_contractions_pass(self):
        t = self._rep((0.5, 0.25), (0.3, 0.8))
        rep = brehmer_certificate(t, [1, 2])
        assert rep.passed
        assert rep.parameters["subset_count"] == 4

    def test_nilpotent_needs_two_copies(self):
        # one letter only checks I - T*T >= 0, which the nilpotent block
        # satisfies; two copies of the same generator (spelled as distinct
        # pair letters) expose it with margin -1
        t = make_representation(numerical((1,)), [J2, np.zeros((2, 2))])
        assert brehmer_certificate(t, [(1, 1)]).passed
        rep = brehmer_certificate(t, [(1, 1), (1, 2)])
        assert rep.verdict == "fail"
        assert abs(rep.margin + 1.0) <= 1e-12

    def test_pair_letters_name_copies(self):
        d = numerical((1,))
        lam = 0.5
        t = make_representation(
            d, [np.array([[lam ** 2]]), np.array([[lam ** 3]])],
            relations=[({0: 3}, {1: 2})],
        )
        rep = brehmer_certificate(t, [(1, 1), (1, 2), (2, 1)])
        assert rep.passed
        # scalar oracle: product over letters {a2, a2', a3} of (1 - lam^2k)
        want = (1 - lam ** 4) ** 2 * (1 - lam ** 6)
        assert abs(rep.margin - want) < 1e-12

    def test_gates_report_not_applicable(self):
        # the same precondition gate as the box certificates: contraction
        # first, then commutation of the generator images
        rep = brehmer_certificate(self._rep((1.5,), (0.3,)), [1, 2])
        assert rep.verdict == "not-applicable"
        assert rep.witness["reason"] == "not a contraction"
        t = make_representation(free_abelian(2), [0.9 * J2, 0.9 * J2.T])
        rep = brehmer_certificate(t, [1, 2])
        assert rep.verdict == "not-applicable"
        assert rep.margin is None
        assert rep.witness["reason"] == "non-commuting"

    def test_duplicate_letters_rejected(self):
        t = self._rep((0.5,), (0.3,))
        with pytest.raises(InputError):
            brehmer_certificate(t, [1, 1])
        with pytest.raises(InputError):
            brehmer_certificate(
                make_representation(numerical((1,)),
                                    [np.eye(1), np.eye(1)]),
                [(1, 1), (1, 1)],
            )

    def test_out_of_range_letters(self):
        t = self._rep((0.5,), (0.3,))
        with pytest.raises(InputError):
            brehmer_certificate(t, [3])
        with pytest.raises(InputError):
            brehmer_certificate(t, [0])

    def test_cap_refusal_reports_budget(self):
        t = self._rep(*[(0.5,)] * 17)
        with pytest.raises(CapExceededError) as exc:
            brehmer_certificate(t, list(range(1, 18)))
        assert exc.value.requested == 17
        assert exc.value.cap == 16
        assert exc.value.budget == 2 ** 17

    def test_custom_cap(self):
        t = self._rep((0.5,), (0.3,))
        with pytest.raises(CapExceededError):
            brehmer_certificate(t, [1, 2], cap=1)


class TestAthavaleVsBrehmer:
    def test_nilpotent_agreement_is_exact(self):
        box, subset, dev = athavale_vs_brehmer([J2], (2,))
        assert dev == 0.0
        assert np.array_equal(box, np.diag([-1.0, 1.0]).astype(complex))
        assert np.array_equal(subset, box)

    def test_commuting_families_agree(self):
        rng = np.random.default_rng(67)
        for trial in range(20):
            m = int(rng.integers(1, 4))
            dim = int(rng.integers(2, 7))
            diags = [rng.uniform(0, 1, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim))
                     for _ in range(m)]
            mats = [np.diag(d) for d in diags]
            degrees = [0] * m
            budget = int(rng.integers(1, 7))
            for _ in range(budget):
                degrees[int(rng.integers(0, m))] += 1
            _, _, dev = athavale_vs_brehmer(mats, tuple(degrees))
            assert dev <= 1e-10, (trial, dev)

    def test_total_degree_cap(self):
        with pytest.raises(CapExceededError):
            athavale_vs_brehmer([np.eye(1)], (17,))


def _scalar_rep(c):
    return make_representation(free_abelian(1), [np.array([[c]])])


def _pt(d, left, right):
    return involution_point(d, left, right)


class TestSzNagy:
    def test_contraction_passes_default_bound(self):
        t = _scalar_rep(0.8)
        d = t.descriptor
        cfg = SzNagyConfig(
            sample_points=(_pt(d, (0,), (0,)), _pt(d, (1,), (0,))),
            bound_element=_pt(d, (1,), (0,)),
        )
        rep = sznagy_check(t, cfg)
        assert rep.passed
        assert rep.margin >= -1e-12

    def test_expansive_fails_growth_bound(self):
        t = _scalar_rep(1.5)
        d = t.descriptor
        cfg = SzNagyConfig(
            sample_points=(_pt(d, (0,), (0,)), _pt(d, (1,), (0,))),
            bound_element=_pt(d, (1,), (0,)),
        )
        rep = sznagy_check(t, cfg)
        assert rep.verdict == "fail"
        assert rep.witness["condition"] == "iii"
        # oracle: shifted kernel is 2.25 * K, so K - lhs = -1.25 K whose most
        # negative eigenvalue is -1.25 * trace-dominant eigenvalue of K
        k = np.array([[1.0, 1.5], [1.5, 2.25]])
        want = float(np.linalg.eigvalsh(1.0 * k - 2.25 * k)[0])
        assert abs(rep.margin - want) < 1e-9

    def test_larger_constant_restores_bound(self):
        t = _scalar_rep(1.5)
        d = t.descriptor
        cfg = SzNagyConfig(
            sample_points=(_pt(d, (0,), (0,)), _pt(d, (1,), (0,))),
            bound_element=_pt(d, (1,), (0,)),
            bound_constant=1.5,
        )
        assert sznagy_check(t, cfg).passed

    def test_nilpotent_fails_positivity(self):
        t = make_representation(free_abelian(1), [J2])
        d = t.descriptor
        cfg = SzNagyConfig(
            sample_points=tuple(_pt(d, (i,), (0,)) for i in range(3)),
            bound_element=_pt(d, (1,), (0,)),
        )
        rep = sznagy_check(t, cfg)
        assert rep.verdict == "fail"
        assert rep.witness["condition"] == "ii"

    def test_sampled_note_present(self):
        t = _scalar_rep(0.5)
        d = t.descriptor
        cfg = SzNagyConfig(sample_points=(_pt(d, (0,), (0,)),),
                           bound_element=_pt(d, (0,), (0,)))
        rep = sznagy_check(t, cfg)
        assert any("sampled" in n for n in rep.notes)

    def test_membership_gate(self):
        t = _scalar_rep(0.5)
        d = t.descriptor
        bad = InvolutionPoint(element(d, (-1,)), element(d, (0,)))
        cfg = SzNagyConfig(sample_points=(bad,), bound_element=bad)
        with pytest.raises(MembershipError):
            sznagy_check(t, cfg)

    def test_config_validation(self):
        d = free_abelian(1)
        with pytest.raises(InputError):
            SzNagyConfig(sample_points=(), bound_element=_pt(d, (0,), (0,)))
        with pytest.raises(InputError):
            SzNagyConfig(sample_points=(_pt(d, (0,), (0,)),),
                         bound_element=_pt(d, (0,), (0,)),
                         bound_constant=0.0)
        # C^2 must be a positive finite float: the check compares with C^2 K
        for c in (1e200, math.inf, math.nan, 1e-170):
            with pytest.raises(InputError, match="bound constant"):
                SzNagyConfig(sample_points=(_pt(d, (0,), (0,)),),
                             bound_element=_pt(d, (0,), (0,)),
                             bound_constant=c)

    @pytest.mark.parametrize("c", [1e100, 1.3e154])
    def test_large_bound_constant_keeps_a_verdict(self, c):
        # C^2 K reaches 1e200 and beyond: the PSD check rescales it
        t = _diag_pair()
        d = t.descriptor
        cfg = SzNagyConfig(_kernel_points(d, SZNAGY_POINTS),
                           _pt(d, (0, 1), (1, 0)), c)
        assert sznagy_check(t, cfg).passed


def _kernel_points(d, coords):
    return tuple(_pt(d, left, right) for left, right in coords)


def _diag_pair():
    rng = np.random.default_rng(5)
    mats = [np.diag(0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
                    * rng.uniform(0.2, 1, 3)) for _ in range(2)]
    return make_representation(free_abelian(2), mats)


SZNAGY_POINTS = [((0, 0), (0, 0)), ((1, 0), (0, 2)), ((0, 1), (1, 0)),
                 ((2, 1), (0, 0))]
REGULARITY_POINTS = [(0, 0), (1, 0), (2, 0), (0, 3)]


KERNEL_CASES = {
    "free_abelian(2)": (free_abelian(2),
                        st.tuples(st.integers(0, 3), st.integers(0, 3))),
    "numerical((1,))": (numerical((1,)), st.sampled_from([0, 2, 3, 4, 5])),
    "product": (product(free_abelian(1), numerical((1,))),
                st.tuples(st.tuples(st.integers(0, 3)),
                          st.sampled_from([0, 2, 3]))),
}


class TestSampledKernels:
    """Each sampled kernel is Hermitian by construction and is filled from
    its upper triangle, with one evaluation per distinct element."""

    def _counted(self, monkeypatch, name, modules=(certificates,)):
        calls = []
        for module in modules:
            real = getattr(module, name)

            def counted(*args, real=real):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def _gathered(self, monkeypatch, k):
        """The free_abelian(k) coordinates whose images the gather forms,
        one per product_of call, read back from the factorizations; the
        per-entry evaluators must stay off the route."""
        facts = self._counted(monkeypatch, "product_of", (representations,))
        entries = [self._counted(monkeypatch, name, (representations,))
                   for name in ("eval_rep", "tilde_eval", "star_kernel")]

        def coords():
            assert entries == [[], [], []]
            return sorted(tuple(f.as_dict().get(i, 0) for i in range(k))
                          for _, f in facts)
        return coords

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_sznagy_evaluates_the_upper_triangle(self, monkeypatch, n):
        t = _diag_pair()
        d = t.descriptor
        coords = SZNAGY_POINTS[:n]
        shift = ((0, 1), (1, 0))
        cfg = SzNagyConfig(_kernel_points(d, coords), _pt(d, *shift))

        def plus(x, y):
            return tuple(a + b for a, b in zip(x, y))
        shifted = [(plus(shift[0], l), plus(shift[1], r)) for l, r in coords]
        # entry (i, j) of either kernel reads T at r_i + l_j and l_i + r_j
        distinct = {plus(pts[i][side], pts[j][1 - side])
                    for pts in (coords, shifted)
                    for i in range(n) for j in range(i, n) for side in (0, 1)}
        gathered = self._gathered(monkeypatch, 2)
        norms = self._counted(monkeypatch, "operator_norm",
                              (certificates, linalg))
        assert sznagy_check(t, cfg).passed
        assert gathered() == sorted(distinct)
        assert norms == []

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_regularity_evaluates_the_upper_triangle(self, monkeypatch, n):
        # entry (i, j) is T(p_j - m)* T(p_i - m), m = p_i ^ p_j; T(g) too
        pts, g = REGULARITY_POINTS[:n], (0, 0)
        distinct = {g} | {tuple(a - min(a, b) for a, b in zip(p, q))
                          for i, u in enumerate(pts) for v in pts[i:]
                          for p, q in ((u, v), (v, u))}
        gathered = self._gathered(monkeypatch, 2)
        norms = self._counted(monkeypatch, "operator_norm",
                              (certificates, linalg))
        rep = regularity_check(_diag_pair(), pts, g)
        assert rep.passed
        assert gathered() == sorted(distinct)
        assert norms == []

    @pytest.mark.parametrize("n", [5, 20])
    def test_each_input_is_checked_once(self, monkeypatch, n):
        t = _diag_pair()
        d = t.descriptor
        rng = random.Random(n)

        def member():
            return sample_member(d, rng)
        cfg = SzNagyConfig(tuple(InvolutionPoint(member(), member())
                                 for _ in range(n)),
                           InvolutionPoint(member(), member()), 1.5)
        checks = self._counted(monkeypatch, "_check", (semigroups,))
        sznagy_check(t, cfg)
        assert len(checks) == 2 * (n + 1)
        # n equal points give one distinct difference p_i - p_j, the
        # points (i, 0) give 2 n - 1: the checks count the inputs alone
        g = element(d, (0, 1))
        for points in ([element(d, (1, 0))] * n,
                       [element(d, (i, 0)) for i in range(n)]):
            checks.clear()
            regularity_check(t, points, g)
            assert len(checks) == n + 1

    @pytest.mark.parametrize("kernel", ["sznagy", "regularity"])
    def test_assembled_kernel_matches_the_full_grid(self, kernel):
        t = _diag_pair()
        d = t.descriptor
        if kernel == "sznagy":
            pts = _kernel_points(d, SZNAGY_POINTS)

            def entry(i, j):
                return star_kernel(t, pts[i], pts[j])
        else:
            pts = [element(d, p) for p in REGULARITY_POINTS]

            def entry(i, j):
                return tilde_eval(t, sub(d, pts[i], pts[j]))
        _assert_fill_matches(t, len(pts), entry)


def _assert_fill_matches(t, n, entry):
    """The fill is bitwise the upper triangle mirrored by adjoints, and
    matches the full grid up to rounding: T(a)* T(b) and the adjoint
    of T(b)* T(a) may round differently in the last bit."""
    filled = certificates._hermitian_kernel(n, t.dimension, np.array(
        [entry(i, j) for i, j in zip(*np.triu_indices(n))]))
    mirrored = block_assemble(
        [[entry(i, j) if i <= j else adjoint(entry(j, i))
          for j in range(n)] for i in range(n)])
    full = block_assemble([[entry(i, j) for j in range(n)]
                           for i in range(n)])
    assert np.array_equal(filled, mirrored)
    assert np.abs(filled - full).max() <= 1e-12
    assert not filled.flags.writeable


@settings(max_examples=15)
@given(data=st.data())
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_filled_kernel_matches_the_full_grid_on_drawn_points(case, data):
    d, coords = KERNEL_CASES[case]
    t = make_representation(
        d, make_commuting_normals(5, 3, len(d.generators)))
    pts = data.draw(st.lists(st.tuples(coords, coords), min_size=1,
                             max_size=5))
    pts = [_pt(d, left, right) for left, right in pts]
    _assert_fill_matches(
        t, len(pts), lambda i, j: star_kernel(t, pts[i], pts[j]))


def _jordan_powers(count):
    """T_i = A^(i+1) for a 3x3 Jordan-type block A = 0.95 I + 0.3 N: not
    normal, so the sampled checks fail on some samples."""
    a = 0.95 * np.eye(3) + np.diag([0.3, 0.3], 1)
    return [np.linalg.matrix_power(a, i + 1) for i in range(count)]


def _record_checked(monkeypatch):
    """The matrices each psd_check and loewner_leq call of the
    certificates receives, in call order, without the tolerance."""
    seen = []
    for name in ("psd_check", "loewner_leq"):
        def record(*args, real=getattr(certificates, name)):
            seen.append(args[:-1])
            return real(*args)
        monkeypatch.setattr(certificates, name, record)
    return seen


def _assert_mirrored(kernel, n):
    """Every block off the diagonal is exactly the adjoint of its mirror.
    A diagonal block A*A is Hermitian only up to the rounding of the
    product, so there K == K* holds to 1e-14."""
    dim = len(kernel) // n
    off = ~np.kron(np.eye(n, dtype=bool), np.ones((dim, dim), dtype=bool))
    assert np.array_equal(kernel[off], kernel.conj().T[off])
    assert np.abs(kernel - kernel.conj().T).max() <= 1e-14


def _sample_sizes(draw):
    """One point; two points repeated as [a, b, a, a]; five drawn points."""
    a, b = draw(), draw()
    return {"single": [a], "repeated": [a, b, a, a],
            "drawn": [a, b] + [draw() for _ in range(3)]}


FINITELY_GENERATED = {
    "free_abelian(2)": free_abelian(2),
    "numerical((1,))": numerical((1,)),
    "product": product(free_abelian(1), numerical((1,))),
}


class TestStackedKernels:
    """The stacked sampled kernels are bitwise the per-entry oracles of
    conftest, and exactly Hermitian."""

    @pytest.mark.parametrize("images", ["normal", "jordan"])
    @pytest.mark.parametrize("size", ["single", "repeated", "drawn"])
    @pytest.mark.parametrize("kind", sorted(FINITELY_GENERATED))
    def test_sznagy_equals_the_oracle(self, monkeypatch, kind, size, images):
        d = FINITELY_GENERATED[kind]
        count = len(d.generators)
        t = make_representation(d, make_commuting_normals(5, 3, count)
                                if images == "normal" else _jordan_powers(count))
        rng = random.Random(f"{kind} {size}")

        def draw():
            return involution_point(d, sample_member(d, rng),
                                    sample_member(d, rng))
        c = 1.5 if images == "normal" else 0.5  # (iii) fails at 0.5
        cfg = SzNagyConfig(tuple(_sample_sizes(draw)[size]), draw(), c)
        seen = _record_checked(monkeypatch)
        rep = sznagy_check(t, cfg)
        (k,), (shifted, scaled) = seen
        want_k, want_shifted = sznagy_kernels(t, cfg)
        assert np.array_equal(k, want_k)
        assert np.array_equal(shifted, want_shifted)
        assert np.array_equal(scaled, c ** 2 * want_k)
        for kernel in (k, shifted):
            _assert_mirrored(kernel, len(cfg.sample_points))
        margins = {"ii": psd_check(want_k).min_eigenvalue,
                   "iii": loewner_leq(want_shifted, scaled).min_eigenvalue}
        if rep.passed:
            assert rep.margin == min(margins.values())
        else:
            assert rep.margin == rep.witness["margin"] \
                == margins[rep.witness["condition"]]

    @pytest.mark.parametrize("images", ["normal", "jordan"])
    @pytest.mark.parametrize("size", ["single", "repeated", "drawn"])
    @pytest.mark.parametrize("kind", ["free_abelian(2)", "product lattice"])
    def test_regularity_equals_the_oracle(self, monkeypatch, kind, size,
                                          images):
        # points with zero last coordinate meet g = e_last trivially
        if kind == "free_abelian(2)":
            d, g = free_abelian(2), (0, 1)

            def coords(x):
                return (x, 0)
        else:
            d, g = product(free_abelian(1), numerical(())), ((0,), 1)

            def coords(x):
                return ((x,), 0)
        t = make_representation(d, make_commuting_normals(5, 3, 2)
                                if images == "normal" else _jordan_powers(2))
        rng = random.Random(f"{kind} {size}")
        points = [element(d, p) for p in _sample_sizes(
            lambda: coords(rng.randint(0, 4)))[size]]
        seen = _record_checked(monkeypatch)
        rep = regularity_check(t, points, g)
        [(left, x)] = seen
        want_left, want_x = regularity_kernels(t, points, element(d, g))
        assert np.array_equal(left, want_left)
        assert np.array_equal(x, want_x)
        for kernel in (left, x):
            _assert_mirrored(kernel, len(points))
        assert rep.margin == loewner_leq(want_left, want_x).min_eigenvalue


#: lattice-ordered kinds with three generators; the last coordinate holds
#: g and the first two the points, so every point meets g trivially while
#: the differences of points take either sign
REGULARITY_CASES = {
    "free_abelian(3)": (free_abelian(3), lambda a, b, c: (a, b, c)),
    "product": (product(free_abelian(2), numerical(())),
                lambda a, b, c: ((a, b), c)),
}


@settings(max_examples=20)
@given(data=st.data())
@pytest.mark.parametrize("images", ["normal", "jordan"])
@pytest.mark.parametrize("case", sorted(REGULARITY_CASES))
def test_regularity_equals_the_oracle_on_drawn_points(case, images, data):
    d, coords = REGULARITY_CASES[case]
    t = make_representation(d, make_commuting_normals(5, 3, 3)
                            if images == "normal" else _jordan_powers(3))
    pts = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             min_size=1, max_size=6))
    points = [element(d, coords(a, b, 0)) for a, b in pts]
    g = element(d, coords(0, 0, data.draw(st.integers(0, 3))))
    with mock.patch.object(certificates, "loewner_leq",
                           wraps=certificates.loewner_leq) as spy:
        rep = regularity_check(t, points, g)
    (left, x, _), _ = spy.call_args
    want_left, want_x = regularity_kernels(t, points, g)
    assert np.array_equal(left, want_left)
    assert np.array_equal(x, want_x)
    assert rep.margin == loewner_leq(want_left, want_x).min_eigenvalue


class TestNonCanonicalTwins:
    """1 == True and 2 == Fraction(2) with equal hashes: evaluating the
    canonical element first must not let its twin through any route."""

    def _pair(self):
        return make_representation(free_abelian(2),
                                   [np.diag([0.5, 0.25]), np.diag([0.3, 0.2])])

    def test_eval_rep_rejects_the_twin_after_the_element(self):
        t = self._pair()
        eval_rep(t, GroupElement((1, 1)))
        with pytest.raises(InputError):
            eval_rep(t, GroupElement((1, True)))
        d = numerical(())
        t = make_representation(d, [[[0.5]]])
        eval_rep(t, GroupElement(2))
        with pytest.raises(InputError):
            eval_rep(t, GroupElement(Fraction(2)))

    @pytest.mark.parametrize("where", ["sample", "bound"])
    def test_sznagy_rejects_the_twin(self, where):
        t = self._pair()
        d = t.descriptor
        good = _pt(d, (1, 1), (0, 0))
        twin = InvolutionPoint(GroupElement((1, True)), element(d, (0, 0)))
        sznagy_check(t, SzNagyConfig((good,), good))
        cfg = (SzNagyConfig((good, twin), good) if where == "sample"
               else SzNagyConfig((good,), twin))
        with pytest.raises(InputError):
            sznagy_check(t, cfg)

    @pytest.mark.parametrize("where", ["point", "g"])
    def test_regularity_rejects_the_twin(self, where):
        t = self._pair()
        regularity_check(t, [(0, 0), (1, 1)], (0, 0))
        twin = GroupElement((1, True))
        with pytest.raises(InputError):
            if where == "point":
                regularity_check(t, [(0, 0), twin], (0, 0))
            else:
                regularity_check(t, [(0, 0)], twin)

    def test_sznagy_error_types(self):
        t = self._pair()
        d = t.descriptor
        good = _pt(d, (0, 0), (0, 0))
        bad = InvolutionPoint(element(d, (0, 0)), element(d, (0, -1)))
        with pytest.raises(MembershipError):
            sznagy_check(t, SzNagyConfig((good, bad), good))


class TestRegularity:
    def _unitary_rep(self, k=2, dim=3, seed=71):
        rng = np.random.default_rng(seed)
        mats = [np.diag(np.exp(2j * np.pi * rng.uniform(0, 1, dim)))
                for _ in range(k)]
        return make_representation(free_abelian(k), mats)

    def test_unitaries_pass_with_zero_margin(self):
        t = self._unitary_rep()
        d = t.descriptor
        ps = [(0, 0), (1, 0), (2, 0)]
        rep = regularity_check(t, ps, (0, 1))
        assert rep.passed
        assert abs(rep.margin) <= 1e-9

    def test_single_unit_point_reduces_to_contraction(self):
        d = free_abelian(1)
        good = regularity_check(_scalar_rep(0.8), [(0,)], (1,))
        bad = regularity_check(_scalar_rep(1.2), [(0,)], (1,))
        assert good.passed
        assert bad.verdict == "fail"
        # oracle: the single-point inequality is |c|^2 <= 1
        assert abs(bad.margin - (1.0 - 1.2 ** 2)) < 1e-12

    def test_meet_condition_gates(self):
        t = self._unitary_rep()
        rep = regularity_check(t, [(1, 0)], (1, 0))
        assert rep.verdict == "not-applicable"
        assert rep.witness["reason"] == "meet condition violated"

    def test_non_lattice_descriptor_rejected(self):
        d = numerical((1,))
        t = make_representation(d, [np.eye(1) * 0.5, np.eye(1) * 0.4])
        rep = regularity_check(t, [0], element(d, 2))
        assert rep.verdict == "not-applicable"
        assert rep.parameters == {}
        assert rep.witness == {
            "reason": "regularity_check requires a lattice-ordered descriptor"}

    def test_non_member_rejected(self):
        t = self._unitary_rep()
        with pytest.raises(MembershipError):
            regularity_check(t, [(0, 0)], (-1, 0))

    def test_notes_mark_sampled_verdict(self):
        rep = regularity_check(self._unitary_rep(), [(0, 0)], (0, 1))
        assert any("sampled" in n for n in rep.notes)


class TestExtensionResidual:
    def test_rotation_by_hand(self):
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        lhs, rhs = extension_residual(rot, 1)
        assert abs(lhs - 0.64) <= 1e-12
        assert abs(rhs - 0.64) <= 1e-12

    def test_two_routes_agree_on_random_inputs(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = 8
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a /= np.linalg.norm(a, 2)
            k = int(rng.integers(0, n + 1))
            lhs, rhs = extension_residual(a, k)
            assert abs(lhs - rhs) <= 1e-12

    def test_invariant_subspace_gives_zero(self):
        rng = np.random.default_rng(79)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        a /= np.linalg.norm(a, 2)
        lhs, rhs = extension_residual(a, 3)
        assert lhs <= 1e-14 and rhs <= 1e-14


def _gaussian(rng, dim):
    return (rng.standard_normal((dim, dim))
            + 1j * rng.standard_normal((dim, dim)))


class TestGate:
    """``certificates._gate`` passes commutation when the Frobenius norm of
    all pair commutators is below the tolerance, and norms them as
    ``commutator_residual`` does only when it is not."""

    # X Y - Y X = -2i kron(I_2, sigma_y): four singular values 2, so the
    # commutator of 0.5 I + dX and 0.5 I + dY has spectral norm 2 d^2 and
    # Frobenius norm 4 d^2
    SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    D = 1e-5

    def _pair(self):
        return [cmatrix(0.5 * np.eye(4) + self.D * np.kron(np.eye(2), s))
                for s in self.SIGMA]

    def test_a_pair_the_frobenius_bound_cannot_pass_goes_exact(
            self, monkeypatch):
        mats = self._pair()
        comm, pair = linalg.commutator_residual(mats)
        assert abs(comm - 2 * self.D ** 2) <= 1e-20 and pair == (0, 1)
        tol = 3 * self.D ** 2  # ||C||_2 <= tol < ||C||_F
        calls = count_solvers(monkeypatch, "eigvalsh", "cholesky")
        assert certificates._gate("g", {}, mats, tol) is None
        assert calls == {"eigvalsh": [(1, 4, 4)], "cholesky": [(2, 4, 4)]}
        assert gate_oracle(mats, tol) is None

    def test_a_non_commuting_witness_is_the_residual_scan(self):
        mats = self._pair()
        tol = self.D ** 2  # below ||C||_2
        comm, pair = linalg.commutator_residual(mats)
        rep = certificates._gate("g", {}, mats, tol)
        assert rep.verdict == "not-applicable"
        assert repr(rep.witness) == repr({
            "reason": "non-commuting", "pair": list(pair), "residual": comm})
        assert repr(rep.witness) == repr(gate_oracle(mats, tol))

    @settings(max_examples=150)
    @given(m=st.integers(1, 4), dim=st.sampled_from([1, 2, 3, 5, 8, 16]),
           seed=st.integers(0, 2 ** 16), near=st.floats(-2, 1),
           norm=st.one_of(st.floats(0.3, 1.0),
                          st.floats(-17, -7).map(lambda e: 1 + 10 ** e)),
           tol=st.sampled_from([1e-17, 1e-12, 1e-8]))
    def test_equals_the_per_pair_oracle(self, m, dim, seed, near, norm, tol):
        # commuting normals of norm ``norm``, on both sides of 1, each
        # moved by a random matrix of norm about tol * 10^near: commutators
        # on both sides of tol, some passed by the Frobenius bound, some
        # only by the spectral norm
        rng = np.random.default_rng(seed)
        mats = [cmatrix(norm * np.asarray(x) / operator_norm(x)
                        + tol * 10.0 ** near * _gaussian(rng, dim) / dim)
                for x in make_commuting_normals(seed, dim, m)]
        rep = certificates._gate("g", {}, mats, tol)
        want = gate_oracle(mats, tol)
        assert repr(None if rep is None else rep.witness) == repr(want)

    @pytest.mark.parametrize("dim", [4, 64])
    @pytest.mark.parametrize("unitary", [False, True])
    def test_each_stack_is_one_group(self, monkeypatch, dim, unitary):
        # three non-commuting operators: one stack of three matrices (or
        # three pairs) at dim 4, one matrix a stack at dim 64.  A unitary
        # first is not factored: its Gram diagonal is 1 up to rounding
        rng = np.random.default_rng(dim)
        mats = [cmatrix(np.linalg.qr(_gaussian(rng, dim))[0]
                        if unitary and not i
                        else 0.3 * _gaussian(rng, dim) / math.sqrt(dim))
                for i in range(3)]
        stack, count = ((3, dim, dim), 1) if dim == 4 else ((1, dim, dim), 3)
        calls = count_solvers(monkeypatch, "eigvalsh", "cholesky")
        rep = certificates._gate("g", {}, mats, 1e-8)
        assert rep.witness["reason"] == "non-commuting"
        if not unitary:
            assert calls == {"eigvalsh": [stack] * count,
                             "cholesky": [stack] * count}
        elif dim == 4:  # the unitary's stack gets a spectrum, uncleared
            assert calls == {"eigvalsh": [stack] * 2, "cholesky": []}
        else:
            assert calls == {"eigvalsh": [stack] * 4, "cholesky": [stack] * 2}
        monkeypatch.undo()
        assert repr(rep.witness) == repr(gate_oracle(mats, 1e-8))

    def test_athavale_reports_the_residual_scan(self):
        # a residual below tol but above 0 is reported as the scan finds it
        mats = self._pair()
        rep = athavale_certificate(mats, (1, 1))
        assert rep.passed
        assert rep.parameters["commutator_residual"] == \
            linalg.commutator_residual(mats)[0] == gate_oracle(
                mats, 0.0)["residual"]


def _grow(x, corner):
    """The block diagonal corner (+) x, corner 2 x 2."""
    dim = np.shape(x)[0]
    out = np.zeros((dim + 2, dim + 2), dtype=np.complex128)
    out[:2, :2], out[2:, 2:] = corner, x
    return out


def _outcome(sweep, mats, degree, tol):
    """A sweep's report as a dict, or the type and message it raised."""
    try:
        return sweep(mats, degree, tol).as_dict()
    except NotHermitianError as e:
        return type(e), str(e)


def _lows(mats, radius):
    """Commuting normals rescaled to norm ``radius`` for the first and
    radius / 2 for the others: the margins of the sweep's run ends fall
    as the first degree grows."""
    return [np.asarray(x) * (radius / (1 if i == 0 else 2) / operator_norm(x))
            for i, x in enumerate(mats)]


def _hadamard(dim):
    """The Sylvester-Hadamard matrix of order ``dim`` (a power of 2) over
    sqrt(dim): a real symmetric unitary with entries +-1/4 at dim 16 and
    +-1/8 at dim 64."""
    h = np.ones((1, 1))
    while len(h) < dim:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(dim)


def _exactly_commuting(kind, m, dim, rng):
    """m contractions whose products are exact in floating point, so they
    commute exactly.  hadamard: U diag(d_i) U, U = ``_hadamard(dim)`` and
    d_i with 6-bit dyadic real and imaginary parts, |d| < 0.9; toeplitz:
    polynomials sum_l a_l S^l, l <= 3, in the upper shift S, with 6-bit
    dyadic a_l times a power of i and sum |a_l| <= 1, so their boxes can
    fail.  Every entry and product has fewer than 53 significant bits."""
    if kind == "hadamard":
        u = _hadamard(dim)
        parts = rng.integers(-40, 41, size=(2, m, dim))
        return [(u * d) @ u for d in (parts[0] + 1j * parts[1]) / 64]
    shifts = [np.eye(dim, k=l) for l in range(4)]
    weights = rng.integers(0, 17, size=(m, 4)) * 1j ** rng.integers(
        0, 4, size=(m, 4))
    return [sum(a / 64 * s for a, s in zip(w, shifts)) for w in weights]


def _conclusive(report, mats, degree, tol):
    """Whether a per-box sweep report is decided beyond rounding, for
    exactly commuting contractions.  Each computed margin lies within
    band = 1e-12 * 2^degree of the exact one, as boxes have norm at most
    2^degree.  A fail must lie below -band.  A pass must lie more than
    band below every box n with n_m >= 1 and sum(n) < degree, the boxes
    that a run's end can cover: exactly, such a box is at least its run's
    end, so a run end that passes at margin >= 0 can hide neither a fail
    nor the least margin there.  A raise is never conclusive."""
    if not isinstance(report, dict):
        return False
    band = 1e-12 * 2.0 ** degree
    if report["verdict"] == "fail":
        return report["margin"] < -band
    return all(
        psd_check(box_operator(mats, n), tol).min_eigenvalue
        > report["margin"] + band
        for n in certificates._lex_degree_tuples(len(mats), degree)
        if n[-1] and sum(n) < degree)


class TestGeneratorSweep:
    def test_gap_rep_passes_through_bound(self):
        lam = 0.5
        t = make_representation(
            numerical((1,)),
            [np.array([[lam ** 2]]), np.array([[lam ** 3]])],
            relations=[({0: 3}, {1: 2})],
        )
        rep = generator_certificate(t, max_degree=3)
        assert rep.passed
        assert rep.margin > 0
        assert any("sum <= 3" in n for n in rep.notes)

    def test_nilpotent_first_witness_is_deterministic(self):
        t = make_representation(free_abelian(1), [J2])
        rep = generator_certificate(t, max_degree=4)
        assert rep.verdict == "fail"
        assert rep.witness == {"n": [2]}
        assert abs(rep.margin + 1.0) <= 1e-12
        assert any("lexicographic" in n for n in rep.notes)

    def test_empty_generator_list_is_vacuous(self):
        rep = generator_certificate([])
        assert rep.passed
        assert rep.witness is None
        assert any("vacuous" in n for n in rep.notes)

    def test_gates_report_not_applicable(self):
        rep = generator_certificate([1.4 * np.eye(2)])
        assert rep.verdict == "not-applicable"
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep2 = generator_certificate([h, x])
        assert rep2.verdict == "not-applicable"
        assert rep2.witness["reason"] == "non-commuting"

    @pytest.mark.parametrize("m, dim, max_degree, seed, radius", [
        (1, 2, 30, 0, None), (2, 4, 30, 1, None), (3, 8, 10, 2, None),
        (4, 16, 6, 3, None), (2, 6, 30, 4, 0.21), (3, 5, 12, 5, 0.45),
        (4, 3, 8, 6, 0.6),
    ])
    @pytest.mark.usefixtures("delta_path")
    def test_frontier_matches_lexicographic_box_loop(self, m, dim, max_degree,
                                                     seed, radius):
        # reference: every box recomputed from scratch by box_operator, in
        # lexicographic order; radius r puts r*J (+) normals on generator 1
        # (s*I (+) normals on the others), which fails first at
        # (floor(1/r^2) + 1, 0, ...) after a run of passing tuples
        mats = [np.asarray(x) for x in make_commuting_normals(seed, dim, m)]
        if radius is not None:
            mats = [_grow(x, radius * J2 if i == 0 else 0.5 * np.eye(2))
                    for i, x in enumerate(mats)]
        margin, witness, checked = None, None, 0
        for n in itertools.product(range(max_degree + 1), repeat=m):
            if sum(n) > max_degree:
                continue
            checked += 1
            v = psd_check(box_operator(mats, n))
            if not v.is_psd:
                margin, witness = v.min_eigenvalue, {"n": list(n)}
                break
            margin = v.min_eigenvalue if margin is None else min(
                margin, v.min_eigenvalue)
        rep = generator_certificate(mats, max_degree)
        assert rep.margin == margin
        assert rep.witness == witness
        assert rep.parameters["tuples_checked"] == checked
        if radius is not None:
            first = int(1 / radius ** 2) + 1
            assert witness == {"n": [first] + [0] * (m - 1)}
            assert checked > math.comb(first - 1 + m, m)

    def test_zero_dimensional_operators_pass_with_zero_margin(self):
        mats = [np.zeros((0, 0))] * 2
        rep = generator_certificate(mats, 3)
        assert rep.as_dict() == sweep_oracle(mats, 3).as_dict()
        assert (rep.verdict, rep.margin) == ("pass", 0.0)
        assert rep.parameters["tuples_checked"] == 10

    @pytest.mark.parametrize("case", [
        "fail-then-not-hermitian", "not-hermitian-then-fail"])
    def test_first_deciding_box_of_a_group_wins(self, case):
        # one m = 1 chain of 4 x 4 boxes, all in one group.  r J (+) N
        # fails at n = floor(1/r^2) + 1; the rounding of a rotated normal N
        # makes later boxes non-Hermitian (at tol 1e-8 with |eig N| near 1
        # from n ~ 40 on; at tol 1e-17 from n = 2 on)
        if case == "fail-then-not-hermitian":
            n = np.array([[0.999, 0.01], [0.01, -0.999]])
            mats, degree, tol = [_grow(n, J2)], 60, 1e-8
        else:
            n = np.asarray(make_commuting_normals(2, 2, 1)[0])
            mats, degree, tol = [_grow(n, J2 / math.sqrt(4.5))], 15, 1e-17
        assert math.comb(degree + 1, 1) <= linalg._group_size(4)
        with pytest.raises(NotHermitianError):
            psd_check(box_operator(mats, (degree,)), tol)
        if case == "fail-then-not-hermitian":
            rep = generator_certificate(mats, degree, tol)
            assert rep.witness == {"n": [2]} and rep.margin == -1.0
            assert rep.as_dict() == sweep_oracle(mats, degree, tol).as_dict()
        else:
            with pytest.raises(NotHermitianError) as got:
                generator_certificate(mats, degree, tol)
            with pytest.raises(NotHermitianError) as want:
                sweep_oracle(mats, degree, tol)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("mins, want", [
        ([1.0, 0.0, -0.0, 0.5], "0.0"), ([1.0, -0.0, 0.0, 0.5], "-0.0")])
    @pytest.mark.usefixtures("delta_path")
    def test_a_zero_margin_keeps_its_sign(self, monkeypatch, mins, want):
        # the worst margin is the first of equal ones, as a strict < keeps
        real = linalg._psd_stack

        def signed(a, tol):
            _, tolerance, defect = real(a, tol)
            return np.array(mins[:len(a)]), tolerance, defect
        monkeypatch.setattr(certificates, "_psd_stack", signed)
        assert repr(generator_certificate([0.5 * np.eye(2)], 3).margin) == want

    @pytest.mark.parametrize("mats", [
        [np.eye(2), np.diag([1.0, 0.5])], [np.diag([1j, -1.0])],
        [np.diag([0.6, 0.8j]), np.diag([0.8, 0.6])]])
    @pytest.mark.usefixtures("delta_path")
    def test_exact_zero_margins_equal_the_oracle(self, mats):
        rep, want = generator_certificate(mats, 5), sweep_oracle(mats, 5)
        assert rep.as_dict() == want.as_dict()
        assert repr(rep.margin) == repr(want.margin)

    @pytest.mark.parametrize("seed, dim, degree", [(1, 4, 60), (13, 8, 40)])
    def test_working_precision_repros_equal_the_oracle(self, seed, dim,
                                                        degree):
        # ROADMAP item 2: normal pairs that fail or raise at high degree
        # only through rounding; the sweep must reach the same wrong answer
        mats = make_gallery("normal_pair", seed=seed,
                            dim=dim).generator_images
        assert _outcome(generator_certificate, mats, degree, 1e-8) == \
            _outcome(sweep_oracle, mats, degree, 1e-8)

    @settings(max_examples=80, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["normal", "jordan", "shift"]),
           m=st.integers(1, 4), dim=st.integers(1, 8),
           degree=st.integers(0, 10), seed=st.integers(0, 2 ** 16),
           radius=st.floats(0.3, 0.9), log_tol=st.floats(-17, -8))
    @pytest.mark.usefixtures("delta_path")
    def test_sweep_equals_the_per_box_oracle(self, kind, m, dim, degree,
                                             seed, radius, log_tol):
        # r J (+) normals fails mid-sweep, the shift (r = 1) at n = 2, and
        # a tolerance near 1e-17 makes rounded boxes non-Hermitian
        mats = [np.asarray(x) for x in make_commuting_normals(seed, dim, m)]
        if kind != "normal":
            r = 1.0 if kind == "shift" else radius
            mats = [_grow(x, r * J2 if i == 0 else 0.5 * np.eye(2))
                    for i, x in enumerate(mats)]
        tol = 10.0 ** log_tol
        assert _outcome(generator_certificate, mats, degree, tol) == \
            _outcome(sweep_oracle, mats, degree, tol)

    @pytest.mark.usefixtures("delta_path")
    def test_one_eigensolve_per_group(self, monkeypatch):
        # m = 3, dim 4, D = 6: 84 boxes of 16 entries are one group.  The
        # gate's Cholesky screen clears the norm scan (every norm is below
        # 1) and the Frobenius bound the commutators, so the group's is the
        # one eigensolve
        mats = make_commuting_normals(3, 4, 3)
        calls = count_solvers(monkeypatch, "eigvalsh")
        rep = generator_certificate(mats, 6)
        assert rep.passed and rep.parameters["tuples_checked"] == 84
        assert calls == {"eigvalsh": [(84, 4, 4)]}

    @pytest.mark.usefixtures("delta_path")
    def test_one_eigensolve_per_box_at_dim_64(self, monkeypatch):
        # one box a group: each box up to the deciding one gets its own
        # spectrum, and no factorization is made beside the gate's, one
        # per generator (every norm is below 1, so the gate solves no
        # spectrum).  A zero last generator ties every box of a run, and
        # 0.42 J on the last generator fails the first run at (0, 6)
        calls = count_solvers(monkeypatch, "eigvalsh", "cholesky")
        normals = make_commuting_normals(3, 64, 2)
        tie = normals[:1] + [np.zeros((64, 64))]
        jordan = [_grow(x, 0.42 * J2 if i else 0.5 * np.eye(2))
                  for i, x in enumerate(make_commuting_normals(3, 62, 2))]
        chain = make_commuting_normals(3, 64, 1)
        jchain = [_grow(make_commuting_normals(3, 62, 1)[0], 0.42 * J2)]
        box = (1, 64, 64)
        for mats, degree, checked in [
                (normals, 6, 28), (tie, 6, 28), (jordan, 6, 7),
                (chain, 8, 9), (jchain, 8, 7)]:
            for got in calls.values():
                got.clear()
            rep = generator_certificate(mats, degree)
            assert rep.parameters["tuples_checked"] == checked
            assert calls == {"eigvalsh": [box] * checked,
                             "cholesky": [box] * len(mats)}
            assert repr(rep.as_dict()) == repr(
                sweep_oracle(mats, degree).as_dict())

    @settings(max_examples=20, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from([
        ("normal", 2, 64, 4), ("normal", 3, 16, 8), ("jordan", 2, 46, 5),
        ("jordan", 3, 16, 9), ("scalar", 2, 64, 3), ("scalar", 3, 16, 8),
        ("zero", 2, 46, 4), ("zero", 3, 16, 8), ("mixed", 2, 64, 4),
        ("mixed", 3, 16, 10), ("lows", 2, 64, 5), ("lows", 3, 16, 9)]),
           tol=st.sampled_from([1e-17, 1e-12, 1e-8]),
           seed=st.integers(0, 2 ** 16), radius=st.floats(0.45, 0.9))
    @pytest.mark.usefixtures("delta_path")
    def test_screened_runs_equal_the_per_box_oracle(self, case, tol, seed,
                                                    radius):
        # runs that fill a group: one box a group at dim >= 46, eight at
        # dim 16 from D = 8.  r J on the last generator fails mid-run at
        # floor(1/r^2) + 1 <= 5, so the exact rule decides once the last
        # box fails; c I tuples and a zero last generator tie boxes; a
        # normal with c I beside it passes the gate at tol 1e-17, where
        # rounded boxes fall to the Hermitian-defect rule; the largest norm
        # on the first generator makes later runs set new lows, so their
        # last boxes fail the screen above the sweep's running floor
        kind, m, dim, degree = case
        scalars = [c * np.eye(dim) for c in
                   np.random.default_rng(seed).uniform(0.2, 0.9, m)]
        mats = [np.asarray(x) for x in make_commuting_normals(
            seed, dim - 2 * (kind == "jordan"), m)]
        if kind == "jordan":
            mats = [_grow(x, radius * J2 if i == m - 1 else 0.5 * np.eye(2))
                    for i, x in enumerate(mats)]
        elif kind == "scalar":
            mats = scalars
        elif kind == "zero":
            mats[-1] = np.zeros((dim, dim))
        elif kind == "mixed":
            mats = mats[:1] + scalars[1:]
        elif kind == "lows":
            mats = _lows(mats, radius)
        assert repr(_outcome(generator_certificate, mats, degree, tol)) == \
            repr(_outcome(sweep_oracle, mats, degree, tol))

    @settings(max_examples=30, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["hadamard", "toeplitz"]),
           dim=st.sampled_from([16, 64]), m=st.integers(1, 3),
           step=st.integers(0, 3), tol=st.sampled_from([1e-12, 1e-8]),
           seed=st.integers(0, 2 ** 16))
    @pytest.mark.usefixtures("delta_path")
    def test_exactly_commuting_runs_equal_the_per_box_oracle(
            self, kind, dim, m, step, tol, seed):
        # runs fill groups: one box a group at dim 64 (D = 3..6), eight at
        # dim 16 from D = 7 (D = 7..10); Toeplitz ends fail, and the
        # sweep then screens their runs' other boxes above -tol
        degree = step + (3 if dim == 64 else 7)
        mats = _exactly_commuting(kind, m, dim, np.random.default_rng(seed))
        assert not linalg.commutator_residual(mats)[0]
        want = _outcome(sweep_oracle, mats, degree, tol)
        if _conclusive(want, mats, degree, tol):
            assert repr(_outcome(generator_certificate, mats, degree,
                                 tol)) == repr(want)

    def test_a_failing_box_0_beside_a_zero_end_decides(self):
        # J (+) N1 and I (+) N2 at dim 64: the run of prefix (2,) starts
        # at box(2, 0) = diag(-1, 1) (+) ..., and the identity block of the
        # last generator, a unitary part, makes its other boxes exactly 0
        # there, so its last box passes at margin 0.0 while box 0 fails at
        # -1, and box 0 decides.  The split reports that 2 x 2 rest's
        # failure, within its band of the oracle's
        n1, n2 = make_commuting_normals(4, 62, 2)
        mats = [_grow(n1, J2), _grow(n2, np.eye(2))]
        rep = generator_certificate(mats, 4)
        assert (rep.witness, rep.margin) == ({"n": [2, 0]}, -1.0)
        assert _is_delta_report(rep.as_dict(),
                                sweep_oracle(mats, 4).as_dict())

    @pytest.mark.usefixtures("delta_path")
    def test_a_covered_box_that_is_not_hermitian_decides(self):
        # at tol = 1e-17 rounding makes boxes non-Hermitian.  Box (1, 0, 1)
        # of this tuple is the first, and lies inside a run whose first
        # and last boxes pass at margins > 0; it raises as in the oracle
        seed, dim, tol = 107, 16, 1e-17
        scalars = np.random.default_rng(seed).uniform(0.2, 0.9, 3)
        mats = [np.asarray(make_commuting_normals(seed, dim, 3)[0])] + [
            c * np.eye(dim) for c in scalars[1:]]
        with pytest.raises(NotHermitianError) as want:
            psd_check(box_operator(mats, (1, 0, 1)), tol)
        assert repr(_outcome(generator_certificate, mats, 10, tol)) == \
            repr(_outcome(sweep_oracle, mats, 10, tol)) == \
            repr((NotHermitianError, str(want.value)))

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_norm_above_1_inside_tol_covers_no_box(self, m):
        # (1 + 0.75 tol) I passes the gate, not its norm screen; its chain
        # I, -1.5e-8 I, 2.25e-16 I ends above 0 with box 1 below -tol.  At
        # dim 64 the chain is one run, and box 1 decides
        tol = 1e-8
        mats = make_commuting_normals(5, 64, 1)[:m - 1] + [
            (1 + 0.75 * tol) * np.eye(64)]
        rep = generator_certificate(mats, 2, tol)
        assert (rep.verdict, rep.witness) == ("fail",
                                              {"n": [0] * (m - 1) + [1]})
        assert repr(rep.as_dict()) == repr(
            sweep_oracle(mats, 2, tol).as_dict())

    @pytest.mark.usefixtures("delta_path")
    def test_an_m1_chain_is_not_stored_whole(self):
        # 2001 boxes of 8 x 8; a run that no later run steps from is
        # dropped chunk by chunk
        mats, degree = [0.5 * np.eye(8)], 2000
        tracemalloc.start()
        try:
            rep = generator_certificate(mats, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.parameters["tuples_checked"] == 2001
        assert peak < degree * 8 * 8 * 16

    def test_a_chain_that_is_not_monotone_goes_a_group_at_a_time(
            self, monkeypatch):
        # the identity has norm 1 (the gate's one norm spectrum); its
        # 2001 boxes of 8 x 8 are judged in 63 groups of up to 32 as they
        # are stepped, each dropped when judged
        mats, degree = [np.eye(8)], 2000
        calls = count_solvers(monkeypatch, "eigvalsh")
        tracemalloc.start()
        try:
            rep = generator_certificate(mats, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < degree * 8 * 8 * 16
        assert calls["eigvalsh"] == [(1, 8, 8)] + [(32, 8, 8)] * 62 + [
            (17, 8, 8)]
        monkeypatch.undo()
        assert repr(rep.as_dict()) == repr(
            sweep_oracle(mats, degree).as_dict())

    @pytest.mark.usefixtures("delta_path")
    def test_kept_runs_are_stepped_in_place(self):
        # m = 2, D = 200: 20301 boxes of 8 x 8 (about 20 MB) pass.  The run
        # of a prefix p is popped when its successor p + e_1 steps from it,
        # in place, so one run of at most 201 boxes is live, plus the
        # group and the temporaries of a step and a verdict
        mats, degree, group = [0.5 * np.eye(8)] * 2, 200, 2048 // 64
        tracemalloc.start()
        try:
            rep = generator_certificate(mats, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.parameters["tuples_checked"] == 20301
        assert peak < (degree + 1 + 8 * group) * 8 * 8 * 16

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 4, 16, 32, 64])
    def test_the_walk_yields_every_box_once_in_order(self, m, dim):
        # groups of 2048 boxes down to 1; at dims 16..64 the runs fill them
        degree = 9 if dim <= 16 else 4
        mats = make_commuting_normals(m, dim, m)
        size = linalg._group_size(dim)
        walked = []
        for p, run in certificates._walk(
                certificates._adjoint_pairs(mats), dim, degree, size):
            chunks = list(run)  # read before the next run is stepped
            assert all(1 <= len(c) <= size for c in chunks)
            boxes = [box for c in chunks for box in c]
            assert len(boxes) == degree - sum(p) + 1
            for k, box in enumerate(boxes):
                assert box.tobytes() == np.asarray(
                    box_operator(mats, p + (k,))).tobytes()
                walked.append(p + (k,))
        assert walked == list(certificates._lex_degree_tuples(m, degree))

    @staticmethod
    def _grid_steps(monkeypatch):
        """The Delta steps of one pass over the sweep grid at seed 3,
        counted in boxes (one per box of each stack stepped), the list
        that counts them, and each op's report by label."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        steps = []
        real = certificates._delta

        def counted(x, pair, out=None):
            steps.append(1 if x.ndim == 2 else len(x))
            return real(x, pair, out=out)
        ops = workloads.build_sweep(3)
        monkeypatch.setattr(certificates, "_delta", counted)
        reports = {op.label: op.run() for op in ops}
        return sum(steps), steps, reports

    @pytest.mark.usefixtures("delta_path")
    def test_each_box_is_stepped_once_on_the_sweep_grid(self, monkeypatch):
        # A sweep steps every box but I once up to its deciding group,
        # an m = 1 chain too, whether it passes or fails: at dim 32
        # (groups of 2) the chain steps its nine boxes once
        total, steps, _ = self._grid_steps(monkeypatch)
        assert total == 945
        steps.clear()
        rep = generator_certificate(make_commuting_normals(3, 32, 1), 9)
        assert rep.passed and sum(steps) == 9

    def test_the_closed_form_skips_the_walk_on_the_sweep_grid(
            self, monkeypatch):
        # the grid's 16 normal tuples at seed 3 take the closed form and
        # step no box; m = 1 at dim 64, D = 8, whose first eigenbasis
        # mixes a cluster, takes it on the refined one.  Every jordan and
        # shift tuple but the bare 2 x 2 shift is a normal summand (+) a
        # 2 x 2 block: it splits, and walks only the block, packed into
        # one group and so stepped whole (329 steps with the bare shift's
        # 6).  Each fails far outside the band, so no tuple walks whole
        total, steps, reports = self._grid_steps(monkeypatch)
        assert total == 329
        assert [label for label, rep in reports.items()
                if "normal" in label and not _routed(rep)] == []
        assert sum(map(_routed, reports.values())) == 16
        import workloads  # on the path since _grid_steps
        walked, real = [], certificates._walk
        monkeypatch.setattr(certificates, "_walk", lambda pairs, dim, *a: (
            walked.append(dim) or real(pairs, dim, *a)))
        split = {}
        for op in workloads.build_sweep(3):
            walked.clear()
            op.run()
            if walked and walked != [op.size]:
                split[op.label] = walked[:]
        bare = "sweep shift m=1 dim=2 D=6"
        assert split == {label: [2] for label, rep in reports.items()
                         if rep.witness and label != bare}
        assert len(split) == 8
        steps.clear()
        rep = generator_certificate(make_commuting_normals(3, 32, 1), 9)
        assert rep.passed and len(rep.notes) == 2 and not steps

    def test_routed_grid_ops_skip_the_gate(self, monkeypatch):
        # the normal tuple takes the closed form before the gate: one
        # eigensolve, its joint spectrum, and no Cholesky factorization.
        # The jordan tuple's normal summand of order 62 takes it too, and
        # only the 2 x 2 rest is gated, one factorization of its stack
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        ops = {op.label: op for op in workloads.build_sweep(3)}
        calls = count_solvers(monkeypatch, "eigh", "cholesky")
        for label, want in [
                ("sweep normal m=3 dim=64 D=4",
                 {"eigh": [(64, 64)], "cholesky": []}),
                ("sweep jordan m=3 dim=64 D=6",
                 {"eigh": [(62, 62)], "cholesky": [(3, 2, 2)]})]:
            for got in calls.values():
                got.clear()
            assert ops[label].check(ops[label].run())[0]
            assert calls == want

    @settings(max_examples=40)
    @given(data=st.data(), m=st.integers(2, 3), dim=st.integers(4, 8),
           degree=st.integers(2, 30), seed=st.integers(0, 2 ** 16))
    def test_a_witness_deep_in_a_packed_group(self, data, m, dim, degree,
                                              seed):
        # x J on generator 1 and y J on the last, on one 2 x 2 block, make
        # that block of box(n) I - (n_1 x^2 + n_m y^2) E, scaled by the
        # middle generators: with y^2 = 1 / (j (degree + 1)) and x^2 set
        # so that j x^2 + (k - 1/2) y^2 = 1, every run of n_1 < j passes
        # and the first failure is (j, 0, ..., k), k > 0, at margin
        # -y^2 / 2.  Runs are shorter than a group (32 boxes or more)
        j = data.draw(st.integers(1, degree - 1))
        k = data.draw(st.integers(1, degree - j))
        y2 = 1.0 / (j * (degree + 1))
        x = math.sqrt((1.0 - (k - 0.5) * y2) / j)
        normals = [0.5 * np.asarray(a)
                   for a in make_commuting_normals(seed, dim - 2, m)]
        corners = [x * J2] + [0.5 * np.eye(2)] * (m - 2) + [
            math.sqrt(y2) * J2]
        mats = [_grow(a, c) for a, c in zip(normals, corners)]
        rep = _outcome(generator_certificate, mats, degree, 1e-8)
        assert rep["witness"] == {"n": [j] + [0] * (m - 2) + [k]}
        assert abs(rep["margin"] + y2 / 2) <= 1e-12
        assert _is_delta_report(rep, _outcome(sweep_oracle, mats, degree,
                                              1e-8))

    def test_tuple_budget_is_checked_before_the_gate(self):
        cap = certificates._SWEEP_TUPLE_CAP
        with pytest.raises(CapExceededError) as exc:
            generator_certificate([2.0 * np.eye(2)], cap)  # not a contraction
        assert (exc.value.requested, exc.value.cap) == (cap + 1, cap)
        assert str(exc.value) == (f"degree sweep over {cap + 1} tuples "
                                  f"exceeds cap {cap} tuples")
        with pytest.raises(CapExceededError) as exc:
            generator_certificate([J2, J2], 361)  # C(363, 2) > 2^16
        assert "65703 tuples" in str(exc.value)
        assert math.comb(60 + 2, 2) <= cap  # the acceptance sweep's 1891
        with pytest.raises(CapExceededError) as exc:
            athavale_vs_brehmer([J2], (17,))
        assert str(exc.value) == ("subset enumeration over 17 letters "
                                  "exceeds cap 16 (would need 131072 subset "
                                  "evaluations)")
        assert generator_certificate([J2], cap - 1).verdict == "fail"

    def test_bad_max_degree(self):
        with pytest.raises(InputError):
            generator_certificate([np.eye(1)], max_degree=-1)


def _affordable_degree(m, dim):
    """The largest D <= 24 for which ``sweep_oracle`` stays cheap: one Delta
    step and one spectrum per box, C(D + m, m) boxes of cost about
    1 + (dim / 20)^3 boxes of order 8, within a budget of 1500 of those."""
    weight = 1.0 + (dim / 20.0) ** 3
    return max(d for d in range(25) if math.comb(d + m, m) * weight <= 1500)


def _routed(rep):
    """Whether a generator sweep report took the closed-form route."""
    return any(n.startswith("margin read off the joint spectrum")
               for n in rep.notes)


class TestClosedForm:
    """The generator sweep's closed-form route for commuting normal tuples
    (``certificates._closed_form``), against the per-box oracle."""

    @settings(max_examples=60)
    @given(data=st.data(), m=st.integers(1, 4), dim=st.integers(1, 64),
           scale=st.sampled_from([1.0, 0.9, 0.5]),
           seed=st.integers(0, 2 ** 16))
    def test_a_routed_tuple_is_what_the_delta_path_passes(self, data, m, dim,
                                                          scale, seed):
        # the Delta path, box by box, must pass every routed tuple with
        # all C(D + m, m) tuples checked, at a margin within s of the
        # closed form; D is drawn up to what the per-box oracle affords
        degree = data.draw(st.integers(0, _affordable_degree(m, dim)))
        mats = [scale * np.asarray(x)
                for x in make_commuting_normals(seed, dim, m)]
        rep = generator_certificate(mats, degree)
        stack = np.asarray([cmatrix(x) for x in mats])
        closed = certificates._closed_form(
            stack, degree, 1e-8, certificates._square_sums(stack))
        assert _routed(rep) == (closed is not None)
        if closed is None:
            return
        margin, r, s = closed
        want = sweep_oracle(mats, degree)
        assert (rep.verdict, rep.parameters) == (want.verdict,
                                                 want.parameters)
        assert rep.margin == margin and abs(margin - want.margin) <= s
        assert r <= certificates._ROUNDING_LEVEL * dim * dim * 2.0 ** -53
        assert s <= 0.5e-8

    @pytest.mark.parametrize("case", [
        "jordan", "shift", "rotated-jordan", "unitary", "near-one",
        "norm-one"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_route_for_tuples_that_are_not_strict_normal(
            self, monkeypatch, case, m):
        # r J and the shift fail the self-commutator check before any
        # eigensolve; r J turned by the Hadamard matrix H, whose
        # self-commutator 0.36 H diag(-1, 1) H has a zero diagonal, passes
        # it and fails the residual test; a unitary, (1 + 0.75 tol) I and a
        # norm-1 generator have a column of norm about 1, which rules the
        # whole tuple's route out before its spectrum.  Each
        # report is the per-box oracle's, bitwise but for the norm-1
        # generator's pass and the split's failures, which are the rest's
        # within the band.  The direct-sum split reads the normal summand
        # of r J and of the shift, and the coordinates of norm 0.5 beside
        # the norm-1 one, off one more spectrum; the turned r J has two
        # summands that pass the self-commutator check, so it takes no
        # split, and the unitary and (1 + 0.75 tol) I have no candidate
        tol, dim = 1e-8, 8
        normal = 0.9 * np.asarray(make_commuting_normals(m, dim - 2, 1)[0])
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        q = np.linalg.qr(np.random.default_rng(m).normal(size=(dim, dim)))[0]
        first = {
            "jordan": _grow(normal, 0.6 * J2),
            "shift": _grow(normal, J2),
            "rotated-jordan": _grow(normal, 0.6 * h @ J2 @ h),
            "unitary": q,
            "near-one": (1 + 0.75 * tol) * np.eye(dim),
            "norm-one": np.diag([1.0] + [0.5] * (dim - 1)),
        }[case]
        mats = [first] + [0.5 * np.eye(dim)] * (m - 1)
        spectra = []
        real = certificates.joint_spectrum

        def counted(a):
            spectra.append(len(a))
            return real(a)
        monkeypatch.setattr(certificates, "joint_spectrum", counted)
        rep = _outcome(generator_certificate, mats, 4, tol)
        want = _outcome(sweep_oracle, mats, 4, tol)
        assert spectra == ([] if case in ("unitary", "near-one") else [m])
        if case == "norm-one":  # the pass names the split in a note
            assert rep["notes"][1].startswith("direct sum: ")
            assert repr({**rep, "notes": rep["notes"][:1]}) == repr(want)
        else:
            assert _is_delta_report(rep, want)

    @pytest.mark.parametrize("m, degree", [(1, 6), (2, 6), (3, 0), (2, 30)])
    def test_a_repeated_joint_spectrum_takes_the_route(self, m, degree):
        # 0.5 I: every joint eigenvalue is (0.5, ..., 0.5), the eigenbasis
        # is I with residual 0, and every box is exactly 0.75^|n| I, so the
        # closed form 0.75^D equals the oracle's margin; D = 0 reads 1.0
        mats = [0.5 * np.eye(3)] * m
        rep, want = generator_certificate(mats, degree), sweep_oracle(
            mats, degree)
        assert _routed(rep) and "residual r = 0.000e+00" in rep.notes[1]
        assert (rep.verdict, rep.parameters) == (want.verdict,
                                                 want.parameters)
        assert rep.margin == want.margin == 0.75 ** degree
        assert rep.notes[0] == want.notes[0]

    def test_reruns_are_byte_identical(self):
        mats = make_commuting_normals(7, 32, 3)
        first = canonical_json(generator_certificate(mats, 5).as_dict())
        assert _routed(generator_certificate(mats, 5))
        assert canonical_json(generator_certificate(mats, 5).as_dict()) == \
            first


SPLIT_NOTE = "direct sum: "
SPLIT_KINDS = ["jordan", "shift", "weighted", "contraction", "unitary",
               "zero"]


def _split_note(rep):
    """The direct-sum split's note of a report dict, or None."""
    return next((n for n in rep["notes"] if n.startswith(SPLIT_NOTE)), None)


def _noted(note, name):
    """The value that a split note gives ``name`` ("s" or "e")."""
    return float(note.split(f"within {name} = ")[1].split(" ")[0])


def _is_delta_report(rep, want):
    """Whether a sweep's outcome (``_outcome``) is the Delta path's
    ``want``: bitwise, or, for a split that reports its rest's failure
    outside the band, with the same verdict, witness, parameters and first
    note, a split note naming s and e, the margin within e of the Delta
    path's and ``tolerance_used`` within tol max(s, e) of it."""
    note = (_split_note(rep) if isinstance(rep, dict)
            and rep["verdict"] == "fail" else None)
    if note is None or not isinstance(want, dict):
        return repr(rep) == repr(want)
    s, e = _noted(note, "s"), _noted(note, "e")
    tol, used = want["tolerances"]["tol"], want["tolerances"]["tolerance_used"]
    keys = ("condition", "parameters", "verdict", "witness")
    return ([rep[k] for k in keys] == [want[k] for k in keys]
            and rep["notes"] == want["notes"] + [note]
            and rep["tolerances"]["tol"] == tol
            and abs(rep["margin"] - want["margin"]) <= e
            and abs(rep["tolerances"]["tolerance_used"] - used)
            <= tol * max(s, e))


def _rest(kind, k, m, rng):
    """The summand R of order k beside the normal one: x J (k = 2), the
    nilpotent shift S of order k, w S (k >= 3: each middle coordinate
    alone looks normal and strictly contractive), or a random non-normal
    contraction of norm 0.95, each on operator 0 with scalars c I on the
    others; m diagonal unitaries; or m zero blocks."""
    if kind == "unitary":
        return [np.diag(np.exp(2j * math.pi * rng.random(k)))
                for _ in range(m)]
    if kind == "zero":
        return [np.zeros((k, k))] * m
    if kind == "jordan":
        first = rng.uniform(0.3, 0.95) * J2
    elif kind == "shift":
        first = np.eye(k, k=-1)
    elif kind == "weighted":
        first = rng.uniform(0.3, 0.95) * np.eye(k, k=-1)
    else:
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        first = 0.95 * z / np.linalg.norm(z, 2)
    return [first] + [rng.uniform(0, 0.9) * np.exp(2j * math.pi * rng.random())
                      * np.eye(k) for _ in range(m - 1)]


def _permuted_sum(normals, rest, perm):
    """Operator i of N (+) R, its coordinates in the order ``perm``."""
    out = []
    for a, b in zip(normals, rest):
        x = np.zeros((len(perm),) * 2, dtype=np.complex128)
        d = len(a)
        x[:d, :d], x[d:, d:] = a, b
        out.append(x[np.ix_(perm, perm)])
    return out


class TestDirectSumSplit:
    """The generator sweep's direct-sum split: a normal summand read off
    its joint spectrum, the rest on the Delta path, against the per-box
    oracle of the whole tuple."""

    @settings(max_examples=80)
    @given(data=st.data(), m=st.integers(1, 4),
           kind=st.sampled_from(SPLIT_KINDS),
           scale=st.sampled_from([0.5, 0.9]), seed=st.integers(0, 2 ** 16))
    def test_a_permuted_direct_sum_keeps_the_oracles_report(
            self, data, m, kind, scale, seed):
        # fail reports are the oracle's, bitwise or within the split's
        # band, and what the sweep raises is the oracle's; a pass keeps its
        # verdict, parameters and first note, and a split pass names the
        # split, its margin within s of the oracle's.  A zero summand is a
        # candidate too, and a tuple whose summands are all candidates
        # takes no split
        rng = np.random.default_rng(seed)
        k = 2 if kind == "jordan" else data.draw(st.integers(1, 8))
        if kind in ("shift", "weighted"):
            k = max(k, 3)
        d = data.draw(st.integers(1, 48 - k))
        normals = [scale * np.asarray(x)
                   for x in make_commuting_normals(seed, d, m)]
        mats = _permuted_sum(normals, _rest(kind, k, m, rng),
                             rng.permutation(d + k))
        degree = data.draw(st.integers(0, _affordable_degree(m, d + k)))
        rep = _outcome(generator_certificate, mats, degree, 1e-8)
        want = _outcome(sweep_oracle, mats, degree, 1e-8)
        if not isinstance(want, dict) or want["verdict"] != "pass":
            assert _is_delta_report(rep, want)
            return
        note = _split_note(rep)
        assert kind != "zero" or note is None
        assert (rep["verdict"], rep["parameters"], rep["notes"][0]) == (
            want["verdict"], want["parameters"], want["notes"][0])
        if note is None:
            return
        s = float(note.split("within s = ")[1].split(" ")[0])
        assert abs(rep["margin"] - want["margin"]) <= s
        assert rep["notes"][1:] == [note]

    @pytest.mark.parametrize("kind", ["jordan", "shift", "weighted",
                                      "contraction", "unitary"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_the_split_walks_the_rest_at_its_order(self, monkeypatch, kind,
                                                    m):
        # N of order 6 (+) R of order 2 or 3: one spectrum, of N alone,
        # and one walk, of R alone; reruns are byte-identical, a fail is
        # the oracle's within the band e and a pass lies within s of it
        rng = np.random.default_rng(m)
        k = 2 if kind == "jordan" else 3
        mats = _permuted_sum(
            [0.9 * np.asarray(x) for x in make_commuting_normals(m, 6, m)],
            _rest(kind, k, m, rng), rng.permutation(6 + k))
        spectra, walked = [], []
        real_spectrum, real_walk = certificates.joint_spectrum, \
            certificates._walk
        monkeypatch.setattr(certificates, "joint_spectrum", lambda a: (
            spectra.append(np.shape(a)) or real_spectrum(a)))
        monkeypatch.setattr(certificates, "_walk", lambda pairs, dim, *a: (
            walked.append(dim) or real_walk(pairs, dim, *a)))
        rep = _outcome(generator_certificate, mats, 6, 1e-8)
        assert spectra == [(m, 6, 6)] and walked == [k]
        monkeypatch.undo()
        assert canonical_json(rep) == canonical_json(
            _outcome(generator_certificate, mats, 6, 1e-8))
        want = _outcome(sweep_oracle, mats, 6, 1e-8)
        if want["verdict"] == "fail":
            assert _is_delta_report(rep, want)
        else:
            s = _noted(_split_note(rep), "s")
            assert abs(rep["margin"] - want["margin"]) <= s

    @pytest.mark.parametrize("excess", [1e-4, 0.25])
    def test_a_failure_inside_the_band_walks_the_whole_tuple(
            self, monkeypatch, excess):
        # N (+) r J with 1 - 4 r^2 = -tol (1 + excess): the rest's boxes
        # are diag(1, 1 - j r^2), so it first fails at n = 4.  At excess
        # 1e-4 it fails by 1e-12 past its tolerance, inside its band e
        # (about 5e-12), so the split is given up: the whole tuple walks,
        # its six boxes past I stepped at full order, and the report is
        # the oracle's bitwise; at 0.25 the rest's verdict is the report,
        # and no array of the tuple's order is stepped
        tol, order = 1e-8, 8
        r = math.sqrt((1.0 + tol * (1.0 + excess)) / 4)
        mats = _permuted_sum(
            [0.9 * np.asarray(make_commuting_normals(4, order - 2, 1)[0])],
            [r * J2], np.random.default_rng(4).permutation(order))
        stepped, real = [], certificates._delta
        monkeypatch.setattr(certificates, "_delta", lambda x, *a, **k: (
            stepped.append(x.shape[-1]) or real(x, *a, **k)))
        rep = _outcome(generator_certificate, mats, 6, tol)
        monkeypatch.undo()
        want = _outcome(sweep_oracle, mats, 6, tol)
        assert rep["witness"] == {"n": [4]}
        e = certificates._band(np.array([[0.0, r * r]]), (4,), order, tol)
        assert 1e-12 < e < 1e-11
        if excess < e / tol:
            assert repr(rep) == repr(want)
            assert stepped.count(order) == 6
        else:
            assert _noted(_split_note(rep), "e") == float(f"{e:.3e}")
            assert _is_delta_report(rep, want)
            assert set(stepped) == {2}

    @pytest.mark.parametrize("seed, label", [
        (55, "sweep jordan m=1 dim=64 D=8"),
        (2668, "sweep jordan m=3 dim=64 D=6")])
    def test_a_normal_summand_near_half_tol_decides_at_the_rests_order(
            self, monkeypatch, seed, label):
        # grid ops whose normal summand has s near tol / 2, so that
        # 2 s + e > tol, beside r J failing far outside its band: the
        # tuple's box has a skew part of spectral norm at most
        # max(2 s, d_R + e) <= tol, so the rest's verdict is the report,
        # bitwise the oracle's margin and tolerance, with the band note,
        # and only the 2 x 2 rest is stepped
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        op = next(op for op in workloads.build_sweep(seed)
                  if op.label == label)
        swept, stepped = [], []
        real_sweep, real_delta = generator_certificate, certificates._delta
        monkeypatch.setattr(certificates, "generator_certificate", lambda *a: (
            swept.append(a) or real_sweep(*a)))
        monkeypatch.setattr(certificates, "_delta", lambda x, *a, **k: (
            stepped.append(x.shape[-1]) or real_delta(x, *a, **k)))
        rep = op.run()
        monkeypatch.undo()
        assert op.check(rep)[0] and set(stepped) == {2}
        [(mats, degree)] = swept
        want = sweep_oracle(mats, degree).as_dict()
        rep = rep.as_dict()
        note = _split_note(rep)
        assert rep["notes"] == want["notes"] + [note]
        assert repr({**rep, "notes": want["notes"]}) == repr(want)
        s, e = _noted(note, "s"), _noted(note, "e")
        assert 4.8e-9 < s <= 5e-9 and 2 * s + e > 1e-8

    @pytest.mark.parametrize("case", [
        "normal", "contraction", "rotated-shift", "diagonal", "normal+zero",
        "identity"])
    def test_no_extra_spectrum_without_a_split(self, monkeypatch, case):
        # a dense tuple has one summand, and a tuple whose every summand
        # is a candidate is the whole tuple's closed form: neither solves
        # more than that route did, so each report is the Delta path's or
        # the route's, with no split note
        dim, rng = 8, np.random.default_rng(5)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = np.linalg.qr(z)[0]
        normal = 0.9 * np.asarray(make_commuting_normals(5, dim, 1)[0])
        first = {
            "normal": normal,
            "contraction": 0.9 * z / np.linalg.norm(z, 2),
            "rotated-shift": q @ np.eye(dim, k=-1) @ np.conj(q).T,
            "diagonal": np.diag(rng.uniform(0, 0.9, dim)),
            "normal+zero": _grow(0.9 * np.asarray(make_commuting_normals(
                5, dim - 2, 1)[0]), np.zeros((2, 2))),
            "identity": np.eye(dim),
        }[case]
        mats = [first, 0.5 * np.eye(dim)]
        calls = count_solvers(monkeypatch, "eigh", "eigvalsh")
        rep = generator_certificate(mats, 4)
        assert len(calls["eigh"]) <= 1
        assert all(not n.startswith(SPLIT_NOTE) for n in rep.notes)
        if not _routed(rep):
            monkeypatch.undo()
            with mock.patch.object(certificates, "_closed_form",
                                   lambda *args: None):
                assert repr(rep) == repr(generator_certificate(mats, 4))

    @pytest.mark.parametrize("case", ["slack", "screen"])
    def test_a_missed_closed_form_takes_the_delta_path(self, monkeypatch,
                                                       case):
        # beside a unimodular block: at D = 40 the normal summand's slack
        # s passes tol / 2, so its closed form misses; a normal summand
        # of norm 1 - 1e-15 has rho < 1 but rho + r + 2 n u above
        # 1 - 64 n^2 u, the slack of the norm screen.  Either way the whole
        # tuple is gated and walks, bitwise the oracle's pass
        if case == "slack":
            normal, degree = 0.9 * np.asarray(
                make_commuting_normals(2, 6, 1)[0]), 40
        else:
            h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
            normal, degree = h @ np.diag([1 - 1e-15, 0.5]) @ h, 6
        mats = _permuted_sum([normal], [np.diag([1j, -1.0])],
                             np.random.default_rng(2).permutation(
                                 len(normal) + 2))
        walked, real = [], certificates._walk
        monkeypatch.setattr(certificates, "_walk", lambda pairs, dim, *a: (
            walked.append(dim) or real(pairs, dim, *a)))
        rep = generator_certificate(mats, degree)
        assert walked == [len(normal) + 2]
        assert repr(rep.as_dict()) == repr(
            sweep_oracle(mats, degree).as_dict())


def _clustered_normals(rng, kind, m, dim):
    """m commuting normals W diag(lam_i) W*, one random unitary W, whose
    joint eigenvalues cluster: ``tied`` moves 1 to dim - 2 of them so
    that each shares its golden-angle projection Re sum_k e^{i k theta}
    lam_k with the eigenvalue before it, ``repeated`` copies them.  So
    no cluster holds every column, and every |lam| <= 0.8."""
    w = np.linalg.qr(_gaussian(rng, dim))[0]
    lam = 0.5 * (rng.uniform(-1, 1, (m, dim))
                 + 1j * rng.uniform(-1, 1, (m, dim)))
    weights = np.exp(1j * linalg._GOLDEN_ANGLE * np.arange(1, m + 1))
    for j in rng.choice(dim - 1, size=rng.integers(1, dim - 1),
                        replace=False):
        if kind == "repeated":
            lam[:, j + 1] = lam[:, j]
            continue
        step = 0.3 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
        step[0] -= np.conj(weights[0]) * (weights @ step).real
        lam[:, j + 1] = lam[:, j] + step
    lam *= 0.8 / max(0.8, np.abs(lam).max())
    return [w @ np.diag(x) @ np.conj(w).T for x in lam]


class TestClusteredSpectra:
    """Commuting normals whose joint eigenvalues cluster on the
    golden-angle combination take the closed form on the refined joint
    eigenbasis; a tuple that misses the route pays at most one more
    eigensolve per cluster, of the cluster's order, and none on a basis
    that every column joins."""

    @settings(max_examples=40)
    @given(data=st.data(), kind=st.sampled_from(["tied", "repeated"]),
           m=st.integers(1, 3), dim=st.integers(3, 24),
           seed=st.integers(0, 2 ** 16))
    def test_clustered_normals_take_the_route(self, data, kind, m, dim,
                                              seed):
        # the sweep routes, at a residual within the rounding level, with
        # the oracle's verdict and parameters and a margin within s of it
        mats = _clustered_normals(np.random.default_rng(seed), kind, m, dim)
        degree = data.draw(st.integers(0, min(10, _affordable_degree(
            m, dim))))
        rep = generator_certificate(mats, degree)
        stack = np.asarray([cmatrix(x) for x in mats])
        closed = certificates._closed_form(
            stack, degree, 1e-8, certificates._square_sums(stack))
        assert _routed(rep) and closed is not None
        margin, r, s = closed
        assert r <= certificates._ROUNDING_LEVEL * dim * dim * 2.0 ** -53
        want = sweep_oracle(mats, degree)
        assert (rep.verdict, rep.parameters) == (want.verdict,
                                                 want.parameters)
        assert rep.margin == margin and abs(margin - want.margin) <= s

    def test_a_tie_is_refined_by_one_eigensolve_of_its_order(
            self, monkeypatch):
        # two joint eigenvalues share their projection: the first basis
        # mixes them, and the turned combination on their two columns
        # separates them
        rng = np.random.default_rng(3)
        w = np.linalg.qr(_gaussian(rng, 8))[0]
        lam = np.array([0.3, 0.3 + 0.2j * np.exp(-1j * linalg._GOLDEN_ANGLE),
                        -0.5, 0.1j, 0.6, -0.2 - 0.4j, 0.7j, -0.6])
        mats = [w @ np.diag(lam) @ np.conj(w).T]
        calls = count_solvers(monkeypatch, "eigh")
        (_, first), (_, refined) = linalg.joint_spectrum(mats)
        assert calls == {"eigh": [(8, 8), (2, 2)]}
        level = certificates._ROUNDING_LEVEL * 64 * 2.0 ** -53
        assert first > level >= refined
        calls["eigh"].clear()
        assert _routed(generator_certificate(mats, 6))
        assert calls == {"eigh": [(8, 8), (2, 2)]}

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_non_commuting_normal_pair_makes_one_eigensolve(
            self, monkeypatch, n):
        # each is normal and its columns are short, so the closed form
        # solves the first basis; the second operator is dense in it, its
        # links join every column, and nothing is refined before the gate
        # rejects the pair
        mats = [0.9 * np.asarray(make_commuting_normals(seed, n, 1)[0])
                for seed in (1, 2)]
        calls = count_solvers(monkeypatch, "eigh")
        rep = generator_certificate(mats, 4)
        assert calls == {"eigh": [(n, n)]}
        assert rep.witness["reason"] == "non-commuting"

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_turned_jordan_block_refines_only_its_cluster(self,
                                                            monkeypatch, m):
        # 0.6 H J H (+) a normal passes the self-commutator check and
        # misses the route: its two columns are the one cluster, refined
        # by one 2 x 2 eigensolve, and the tuple walks as the oracle does
        tol, dim = 1e-8, 8
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        normal = 0.9 * np.asarray(make_commuting_normals(m, dim - 2, 1)[0])
        mats = [_grow(normal, 0.6 * h @ J2 @ h)] + [0.5 * np.eye(dim)] * (
            m - 1)
        calls = count_solvers(monkeypatch, "eigh")
        rep = _outcome(generator_certificate, mats, 4, tol)
        assert calls == {"eigh": [(dim, dim), (2, 2)]}
        monkeypatch.undo()
        assert repr(rep) == repr(_outcome(sweep_oracle, mats, 4, tol))


def _near_unitary(rng, dim, m, radius):
    """m commuting normals W diag(radius e^{i t_j}) W*, one random unitary
    W and random phases: every joint eigenvalue has modulus ``radius``."""
    w = np.linalg.qr(_gaussian(rng, dim))[0]
    return [w @ np.diag(radius * np.exp(2j * math.pi * rng.random(dim)))
            @ np.conj(w).T for _ in range(m)]


class TestRouteBeforeTheGate:
    """The generator sweep takes its routes before the precondition gate,
    and gates only what walks the Delta path: every tuple it routes would
    pass the gate, and a direct sum's rest is gated alone."""

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(
               ["normal", "near-unitary", "split"]),
           m=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           degree=st.integers(0, 8), tol=st.sampled_from([1e-12, 1e-8]))
    def test_a_tuple_routed_before_the_gate_passes_it(
            self, data, kind, m, seed, degree, tol):
        # commuting normals, normals with every joint eigenvalue of
        # modulus 1 - 10^-e, and permuted N (+) R.  A tuple that is not
        # gated whole passes the per-pair gate oracle, and the part that
        # took the closed form has no norm excess.  A split gates its rest
        # R alone, which passes
        rng = np.random.default_rng(seed)
        dim = data.draw(st.integers(1, 24))
        if kind == "normal":
            scale = data.draw(st.sampled_from([0.5, 0.9, 1.0]))
            mats = [scale * np.asarray(x)
                    for x in make_commuting_normals(seed, dim, m)]
        elif kind == "near-unitary":
            mats = _near_unitary(rng, dim, m, 1.0 - 10.0 ** -data.draw(
                st.integers(2, 15)))
        else:
            rest = data.draw(st.sampled_from(SPLIT_KINDS))
            k = 2 if rest == "jordan" else data.draw(st.integers(
                3 if rest in ("shift", "weighted") else 1, 6))
            normals = [0.9 * np.asarray(x)
                       for x in make_commuting_normals(seed, dim, m)]
            mats = _permuted_sum(normals, _rest(rest, k, m, rng),
                                 rng.permutation(dim + k))
        n = len(mats[0])
        gates, forms = [], []
        real_gate, real_form = certificates._gate, certificates._closed_form

        def gate(*args):
            gates.append((args[2], real_gate(*args)))
            return gates[-1][1]

        def form(*args):
            forms.append((args[0], real_form(*args)))
            return forms[-1][1]
        with mock.patch.object(certificates, "_gate", gate), \
                mock.patch.object(certificates, "_closed_form", form):
            _outcome(generator_certificate, mats, degree, tol)
        if any(len(ops[0]) == n for ops, _ in gates):
            return  # gated first, as without the routes
        assert gate_oracle(mats, tol) is None
        part = next(ops for ops, closed in forms if closed is not None)
        assert linalg.norm_excess(part) == (0.0, None)
        if gates:  # a split: its rest alone, which passes
            [(rest, report)] = gates
            assert report is None and len(rest[0]) < n

    @pytest.mark.parametrize("case", ["unitary", "shift", "near-one"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_a_column_of_norm_1_pays_no_eigensolve(self, monkeypatch, case,
                                                   m):
        # a squared column norm >= 1 - 64 n^2 u rules the closed form out
        # before the joint spectrum, and no summand of these is a
        # candidate: no eigh, and the gate and the Delta path give the
        # oracle's report
        tol, dim = 1e-8, 8
        first = {
            "unitary": np.linalg.qr(_gaussian(np.random.default_rng(m),
                                              dim))[0],
            "shift": np.eye(dim, k=-1),
            "near-one": (1 + 0.75 * tol) * np.eye(dim),
        }[case]
        mats = [first] + [0.5 * np.eye(dim)] * (m - 1)
        calls = count_solvers(monkeypatch, "eigh")
        rep = _outcome(generator_certificate, mats, 4, tol)
        assert calls == {"eigh": []}
        monkeypatch.undo()
        assert repr(rep) == repr(_outcome(sweep_oracle, mats, 4, tol))

    @pytest.mark.parametrize("mats", [
        [[[1e308, 0], [0, 0]]],
        [[[0, 1e100, 0], [0, 0, 0], [0, 0, 0.5]]],
        [[[1e160, 0], [0, 0.5]], [[0, 0], [0, 0.25]]]])
    def test_entries_near_1e308_warn_nothing(self, mats):
        # the routes square the entries before the gate, and those
        # squares overflow; the gate still gives the witness, and no
        # numpy warning is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = generator_certificate(mats, 3)
        excess = max(abs(x) for a in mats for row in a for x in row)
        assert (rep.verdict, rep.witness) == ("not-applicable", {
            "reason": "not a contraction", "index": 0,
            "norm_excess": excess})


# Every certificate report as canonical JSON, on pass, fail and
# not-applicable inputs whose margins are exact in binary floating point.
H2 = 0.5 * np.eye(2)
DIAG = (np.diag([0.5, 0.25]), np.diag([0.5, 0.5]))
TOLS = '"tolerances":{"tol":1e-08,"tolerance_used":1e-08}'
NA_TOLS = '"tolerances":{"tol":1e-08}'
NOT_CONTRACTION = '{"index":0,"norm_excess":1,"reason":"not a contraction"}'
NON_COMMUTING = '{"pair":[0,1],"reason":"non-commuting","residual":0.25}'
REGULAR_NOTE = '"notes":["sampled verdict: checked for the supplied points only"]'
SZNAGY_NOTE = ('"notes":["sampled verdict: checked on the supplied finite '
               'sample only"]')


def _closed_note(s):
    """The generator sweep's closed-form note at D = 2 for diagonal
    generators (residual 0), as JSON."""
    return ('"margin read off the joint spectrum: (min_ij (1 - '
            '|lambda_ij|^2))^2, eigenbasis residual r = 0.000e+00; every box '
            f'of the Delta path lies within s = {s} of its closed form"')


def _rep(images, k=2):
    return make_representation(free_abelian(k), images)


def _sznagy(image, count):
    """sznagy_check on free_abelian(1) at the points (i, 0), i < count, with
    bound element (1, 0) and constant 1."""
    t = make_representation(free_abelian(1), [np.atleast_2d(image)])
    d = t.descriptor
    return sznagy_check(t, SzNagyConfig(
        tuple(_pt(d, (i,), (0,)) for i in range(count)), _pt(d, (1,), (0,))))


@pytest.mark.parametrize("run, expected", [
    (lambda: agler_certificate([[0.5]], 2),
     '{"condition":"agler","margin":0.5625,"notes":[],"parameters":{"n":2},'
     + TOLS + ',"verdict":"pass","witness":null}'),
    (lambda: agler_certificate(J2, 2),
     '{"condition":"agler","margin":-1,"notes":[],"parameters":{"n":2},'
     + TOLS + ',"verdict":"fail","witness":{"n":2}}'),
    (lambda: agler_certificate([[2.0]], 1),
     '{"condition":"agler","margin":null,"notes":[],"parameters":{"n":1},'
     + NA_TOLS + ',"verdict":"not-applicable","witness":'
     + NOT_CONTRACTION + '}'),
    (lambda: athavale_certificate(DIAG, (1, 1)),
     '{"condition":"athavale","margin":0.5625,"notes":[],"parameters":'
     '{"commutator_residual":0,"n":[1,1]},' + TOLS
     + ',"verdict":"pass","witness":null}'),
    (lambda: athavale_certificate((J2, H2), (2, 1)),
     '{"condition":"athavale","margin":-0.75,"notes":[],"parameters":'
     '{"commutator_residual":0,"n":[2,1]},' + TOLS
     + ',"verdict":"fail","witness":{"n":[2,1]}}'),
    (lambda: athavale_certificate((0.5 * J2, 0.5 * J2.T), (1, 1)),
     '{"condition":"athavale","margin":null,"notes":[],"parameters":'
     '{"n":[1,1]},' + NA_TOLS + ',"verdict":"not-applicable","witness":'
     + NON_COMMUTING + '}'),
    (lambda: brehmer_certificate(_rep(DIAG), [1, 2]),
     '{"condition":"brehmer","margin":0.5625,"notes":[],"parameters":'
     '{"letters":[1,2],"subset_count":4},' + TOLS
     + ',"verdict":"pass","witness":null}'),
    (lambda: brehmer_certificate(_rep([J2], 1), [(1, 1), (1, 2)]),
     '{"condition":"brehmer","margin":-1,"notes":[],"parameters":'
     '{"letters":[[1,1],[1,2]],"subset_count":4},' + TOLS
     + ',"verdict":"fail","witness":{"letters":[[1,1],[1,2]]}}'),
    (lambda: brehmer_certificate(_rep([0.5 * J2, 0.5 * J2.T]), [1, 2]),
     '{"condition":"brehmer","margin":null,"notes":[],"parameters":'
     '{"letters":[1,2],"subset_count":4},' + NA_TOLS
     + ',"verdict":"not-applicable","witness":' + NON_COMMUTING + '}'),
    (lambda: regularity_check(_rep([[[0.5]], [[0.0]]]),
                              [(0, 0), (0, 1)], (1, 0)),
     '{"condition":"regularity","margin":0.75,' + REGULAR_NOTE
     + ',"parameters":{"g":[1,0],"points":[[0,0],[0,1]]},' + TOLS
     + ',"verdict":"pass","witness":null}'),
    (lambda: regularity_check(_rep([[[2.0]], [[0.0]]]),
                              [(0, 0), (0, 1)], (1, 0)),
     '{"condition":"regularity","margin":-3,' + REGULAR_NOTE
     + ',"parameters":{"g":[1,0],"points":[[0,0],[0,1]]},"tolerances":'
     '{"tol":1e-08,"tolerance_used":3.0000000000000004e-08},'
     '"verdict":"fail","witness":{"g":[1,0],"points":[[0,0],[0,1]]}}'),
    (lambda: regularity_check(_rep([[[0.5]], [[0.0]]]),
                              [(0, 0), (1, 0)], (1, 0)),
     '{"condition":"regularity","margin":null,"notes":[],"parameters":'
     '{"g":[1,0],"points":[[0,0],[1,0]]},' + NA_TOLS
     + ',"verdict":"not-applicable","witness":'
     '{"index":1,"p":[1,0],"reason":"meet condition violated"}}'),
    (lambda: generator_certificate([[[0.5]]], 2),
     '{"condition":"generator_sweep","margin":0.5625,"notes":["pass swept '
     'over all degree tuples with sum <= 2",' + _closed_note("1.388e-15")
     + '],"parameters":{"max_degree":2,"tuples_checked":3},' + NA_TOLS
     + ',"verdict":"pass","witness":null}'),
    (lambda: generator_certificate(_rep(DIAG), 2),
     '{"condition":"generator_sweep","margin":0.5625,"notes":["pass swept '
     'over all degree tuples with sum <= 2",' + _closed_note("2.776e-15")
     + '],"parameters":{"max_degree":2,"tuples_checked":6},' + NA_TOLS
     + ',"verdict":"pass","witness":null}'),
    (lambda: generator_certificate((J2, H2), 3),
     '{"condition":"generator_sweep","margin":-1,"notes":["first failing '
     'degree tuple in lexicographic order within sum <= 3"],"parameters":'
     '{"max_degree":3,"tuples_checked":8},' + TOLS
     + ',"verdict":"fail","witness":{"n":[2,0]}}'),
    (lambda: generator_certificate([[[2.0]]], 2),
     '{"condition":"generator_sweep","margin":null,"notes":[],"parameters":'
     '{"max_degree":2},' + NA_TOLS + ',"verdict":"not-applicable",'
     '"witness":' + NOT_CONTRACTION + '}'),
    (lambda: generator_certificate([], 2),
     '{"condition":"generator_sweep","margin":null,"notes":["vacuous: no '
     'generators"],"parameters":{"max_degree":2,"tuples_checked":0},'
     + NA_TOLS + ',"verdict":"pass","witness":null}'),
    (lambda: _sznagy(0.5, 2),
     '{"condition":"sznagy","margin":0,' + SZNAGY_NOTE + ',"parameters":'
     '{"bound_constant":1,"sample_count":2},"tolerances":{"tol":1e-08,'
     '"tolerance_used":1.2499999999999999e-08},"verdict":"pass",'
     '"witness":null}'),
    (lambda: _sznagy(J2, 3),
     '{"condition":"sznagy","margin":-0.61803398874989479,' + SZNAGY_NOTE
     + ',"parameters":'
     '{"bound_constant":1,"sample_count":3},"tolerances":{"tol":1e-08,'
     '"tolerance_used":1.6180339887498949e-08},"verdict":"fail","witness":'
     '{"condition":"ii","margin":-0.61803398874989479}}'),
    (lambda: _sznagy(1.5, 2),
     '{"condition":"sznagy","margin":-4.0625,' + SZNAGY_NOTE
     + ',"parameters":{"bound_constant":1,"sample_count":2},"tolerances":'
     '{"tol":1e-08,"tolerance_used":4.0625000000000001e-08},"verdict":'
     '"fail","witness":'
     '{"condition":"iii","margin":-4.0625}}'),
], ids=["agler-pass", "agler-fail", "agler-na", "athavale-pass",
        "athavale-fail", "athavale-na", "brehmer-pass", "brehmer-fail",
        "brehmer-na", "regularity-pass", "regularity-fail", "regularity-na",
        "sweep-pass", "sweep-rep", "sweep-first-failure", "sweep-na",
        "sweep-vacuous", "sznagy-pass", "sznagy-fail-ii", "sznagy-fail-iii"])
def test_reports_are_pinned(run, expected):
    assert canonical_json(run().as_dict()) == expected


@pytest.mark.parametrize("run", [
    lambda: generator_certificate([np.eye(2), np.eye(3)]),
    lambda: generator_certificate([np.zeros((2, 3))]),
    lambda: athavale_vs_brehmer([np.eye(2), np.eye(3)], (1, 1)),
    lambda: athavale_vs_brehmer([np.zeros((2, 3))], (1,)),
    lambda: athavale_certificate([np.eye(2), np.eye(3)], (1, 1)),
    lambda: athavale_certificate([], ()),
    lambda: athavale_vs_brehmer([], ()),
], ids=["sweep-mismatched", "sweep-non-square", "vs-mismatched",
        "vs-non-square", "athavale-mismatched", "athavale-empty", "vs-empty"])
def test_malformed_operator_tuples_raise_input_error(run):
    with pytest.raises(InputError):
        run()


_BOX_READERS = {"box_operator": box_operator,
                "athavale_certificate": athavale_certificate,
                "athavale_vs_brehmer": athavale_vs_brehmer}
_BOX_INPUTS = {"empty": ([], ()), "empty-one-degree": ([], (1,)),
               "mismatched": ([J2, J2], (1,)),
               "non-square": ([np.zeros((2, 3))], (1,))}
_BOX_MESSAGES = {"empty": "at least one operator required",
                 "empty-one-degree": "at least one operator required",
                 "mismatched": "one degree per operator required",
                 "non-square": "operators must share a square shape"}


@pytest.mark.parametrize("run, message", [
    *((lambda f=f, args=args: f(*args), _BOX_MESSAGES[case])
      for f in _BOX_READERS.values() for case, args in _BOX_INPUTS.items()),
    (lambda: agler_certificate([], ()),
     "matrix data must be 2-dimensional, got ndim=1"),
    (lambda: agler_certificate([], (1,)),
     "matrix data must be 2-dimensional, got ndim=1"),
    (lambda: agler_certificate(J2, (1, 1)),
     "degree entries must be non-negative ints, got (1, 1)"),
    (lambda: agler_certificate(np.zeros((2, 3)), 1),
     "operators must share a square shape"),
], ids=[*(f"{name}-{case}" for name in _BOX_READERS for case in _BOX_INPUTS),
        *(f"agler_certificate-{case}" for case in _BOX_INPUTS)])
def test_box_readers_share_their_messages(run, message):
    # the operator tuple and its degree box are read in one order
    # everywhere: operators, degrees, at least one operator, one degree
    # per operator
    with pytest.raises(InputError) as exc:
        run()
    assert str(exc.value) == message


@pytest.mark.parametrize("run", [
    lambda: degree_tuple((True, 0)),
    lambda: athavale_certificate([J2, np.eye(2)], (True, 0)),
    lambda: athavale_vs_brehmer([J2], (True,)),
    lambda: box_operator([J2], (1.5,)),
    lambda: box_operator([J2], (True,)),
    lambda: agler_certificate(J2, True),
    lambda: generator_certificate([J2], True),
    lambda: brehmer_certificate(_rep(DIAG), [True]),
    lambda: brehmer_certificate(_rep(DIAG), [(True, 1)]),
    lambda: brehmer_certificate(_rep(DIAG), [(1, True)]),
], ids=["degree-tuple", "athavale", "athavale-vs-brehmer", "box-fraction",
        "box-bool", "agler", "sweep", "letter", "letter-generator",
        "letter-copy"])
def test_bools_are_not_degrees_or_letters(run):
    with pytest.raises(InputError):
        run()


@pytest.mark.parametrize("run", [
    lambda: box_operator([np.eye(2), np.eye(3)], (1, 1)),
    lambda: box_operator([np.zeros((2, 3))], (1,)),
    lambda: brehmer_sum([np.eye(2)], [0], 3),
    lambda: brehmer_sum([np.eye(2)], [3], 2),
    lambda: brehmer_sum([np.eye(2)], [-1], 2),
    lambda: brehmer_sum([np.eye(2)], [True], 2),
    lambda: brehmer_sum([np.eye(2)], [0.0], 2),
    lambda: brehmer_sum([], [0], 2),
    lambda: brehmer_sum([np.eye(2)], [0], -1),
    lambda: brehmer_sum([[[np.nan]]], [0], 1),
], ids=["box-mismatched", "box-non-square", "brehmer-dim", "brehmer-letter",
        "brehmer-negative-letter", "brehmer-bool-letter",
        "brehmer-float-letter", "brehmer-no-operators",
        "brehmer-negative-dim", "brehmer-non-finite"])
def test_kernel_wrappers_reject_malformed_input(run):
    with pytest.raises(InputError):
        run()

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

import numpy as np
import pytest
from conftest import explicit_box_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from normex import (
    CapExceededError,
    InputError,
    InvolutionPoint,
    MembershipError,
    SzNagyConfig,
    UnsupportedStructureError,
    Representation,
    agler_certificate,
    athavale_certificate,
    athavale_vs_brehmer,
    box_operator,
    brehmer_certificate,
    brehmer_sum,
    canonical_json,
    degree_tuple,
    element,
    extension_residual,
    free_abelian,
    generator_certificate,
    identity,
    involution_point,
    make_representation,
    numerical,
    rationals,
    regularity_check,
    sznagy_check,
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
        with pytest.raises(UnsupportedStructureError):
            regularity_check(t, [0], element(d, 2))

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

    def test_requires_finitely_generated(self):
        t = Representation(rationals(), 1, (identity(1),))
        with pytest.raises(UnsupportedStructureError):
            generator_certificate(t)

    def test_bad_max_degree(self):
        with pytest.raises(InputError):
            generator_certificate([np.eye(1)], max_degree=-1)


# Every certificate report as canonical JSON, on pass, fail and
# not-applicable inputs whose margins are exact in binary floating point.
H2 = 0.5 * np.eye(2)
DIAG = (np.diag([0.5, 0.25]), np.diag([0.5, 0.5]))
TOLS = '"tolerances":{"tol":1e-08,"tolerance_used":1e-08}'
NA_TOLS = '"tolerances":{"tol":1e-08}'
NOT_CONTRACTION = '{"index":0,"norm_excess":1,"reason":"not a contraction"}'
NON_COMMUTING = '{"pair":[0,1],"reason":"non-commuting","residual":0.25}'
REGULAR_NOTE = '"notes":["sampled verdict: checked for the supplied points only"]'


def _rep(images, k=2):
    return make_representation(free_abelian(k), images)


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
     'over all degree tuples with sum <= 2"],"parameters":{"max_degree":2,'
     '"tuples_checked":3},' + NA_TOLS + ',"verdict":"pass","witness":null}'),
    (lambda: generator_certificate(_rep(DIAG), 2),
     '{"condition":"generator_sweep","margin":0.5625,"notes":["pass swept '
     'over all degree tuples with sum <= 2"],"parameters":{"max_degree":2,'
     '"tuples_checked":6},' + NA_TOLS + ',"verdict":"pass","witness":null}'),
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
], ids=["agler-pass", "agler-fail", "agler-na", "athavale-pass",
        "athavale-fail", "athavale-na", "brehmer-pass", "brehmer-fail",
        "brehmer-na", "regularity-pass", "regularity-fail", "regularity-na",
        "sweep-pass", "sweep-rep", "sweep-first-failure", "sweep-na",
        "sweep-vacuous"])
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

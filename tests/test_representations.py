"""Semigroup-representation tests.

Scalar evaluation oracles use exact powers of two, and the non-commuting
normal pair used to exercise the validation teeth has a hand-computable
commutator norm of sqrt(2).
"""

import math
import random

import numpy as np
import pytest

from normex import (
    InputError,
    InvolutionPoint,
    MembershipError,
    UnsupportedStructureError,
    adjoint,
    element,
    eval_rep,
    factorize,
    free_abelian,
    identity,
    involution_point,
    make_dilation_family,
    make_normal_map,
    make_representation,
    numerical,
    operator_norm,
    point_mul,
    product,
    sample_member,
    star_kernel,
    tilde_eval,
    product_of,
    unit,
    validate_dilation_family,
    validate_normal_map,
    validate_rep,
)


def _diag_rep(k, diags):
    d = free_abelian(k)
    return d, make_representation(d, [np.diag(v) for v in diags])


def _neil_rep(lam=0.5):
    d = numerical((1,))
    return d, make_representation(
        d,
        [np.array([[lam ** 2]]), np.array([[lam ** 3]])],
        relations=[({0: 3}, {1: 2})],  # T(2)^3 = T(3)^2
    )


class TestMakeRepresentation:
    def test_image_count_mismatch(self):
        with pytest.raises(InputError):
            make_representation(free_abelian(2), [identity(2)])

    def test_non_square_image(self):
        with pytest.raises(InputError):
            make_representation(free_abelian(1), [np.zeros((2, 3))])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            make_representation(free_abelian(2), [identity(2), identity(3)])

    def test_relation_index_out_of_range(self):
        with pytest.raises(InputError):
            make_representation(free_abelian(1), [identity(2)],
                                relations=[({0: 1}, {5: 1})])


class TestEvalRep:
    def test_unit_is_identity(self):
        d, t = _diag_rep(2, [(0.5, 0.25), (0.3, 0.7)])
        assert np.array_equal(eval_rep(t, unit(d)), identity(2))

    def test_scalar_gap_rep_exact(self):
        # generator images 1/4 and 1/8 are exact binary powers, so every
        # factorization evaluates to exactly 2**(-p)
        d, t = _neil_rep(0.5)
        for p in [0, 2, 3, 4, 5, 6, 7, 10, 13]:
            got = eval_rep(t, element(d, p))[0, 0]
            assert got == 0.5 ** p, p

    def test_multiplicative_on_samples(self):
        d, t = _diag_rep(3, [(0.9, -0.4, 0.2), (0.1, 0.8, -0.6),
                             (0.5, 0.5, 0.5)])
        rng = random.Random(41)
        worst = 0.0
        for _ in range(500):
            p = sample_member(d, rng)
            q = sample_member(d, rng)
            r = operator_norm(
                eval_rep(t, element(d, tuple(a + b for a, b in
                                             zip(p.coords, q.coords))))
                - eval_rep(t, p) @ eval_rep(t, q)
            )
            worst = max(worst, r)
        assert worst <= 1e-10, worst

    def test_eval_is_cached(self):
        d, t = _diag_rep(2, [(0.5, 0.1), (0.2, 0.3)])
        g = element(d, (3, 2))
        assert eval_rep(t, g) is eval_rep(t, g)

    def test_cached_images_are_read_only(self):
        # a caller writing into a result must not change later evaluations
        d, t = _diag_rep(2, [(0.5, 0.1), (0.2, 0.3)])
        for g in ((3, 2), (1, 0), (0, 0)):
            g = element(d, g)
            want = eval_rep(t, g).copy()
            with pytest.raises(ValueError):
                eval_rep(t, g)[0, 0] = 99
            assert np.array_equal(eval_rep(t, g), want)
        with pytest.raises(ValueError):
            product_of(t, factorize(d, element(d, (0, 4))))[1, 1] = 99


class TestValidateRep:
    def test_diagonal_rep_ok(self):
        _, t = _diag_rep(2, [(0.5, -0.25), (0.75, 0.1)])
        v = validate_rep(t)
        assert v.ok, v.failures

    def test_neil_relations_hold(self):
        _, t = _neil_rep(0.5)
        v = validate_rep(t)
        assert v.ok, v.failures

    def test_expansive_flagged(self):
        _, t = _diag_rep(1, [(1.5,)])
        v = validate_rep(t)
        assert any(c.name == "contractive" and not c.passed for c in v.checks)

    def test_non_commuting_flagged(self):
        d = free_abelian(2)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = make_representation(d, [h, x])
        v = validate_rep(t)
        comm = next(c for c in v.checks if c.name == "commuting")
        assert not comm.passed
        # hand-computed commutator: HX - XH has norm exactly sqrt(2)
        assert abs(operator_norm(h @ x - x @ h) - math.sqrt(2)) < 1e-12

    def test_broken_relation_flagged(self):
        d = numerical((1,))
        t = make_representation(
            d, [np.array([[0.25]]), np.array([[0.225]])],
            relations=[({0: 3}, {1: 2})],
        )
        v = validate_rep(t)
        rel = next(c for c in v.checks if c.name == "relations")
        assert not rel.passed


J = np.array([[0.0, 1.0], [0.0, 0.0]])


def _normal_map(images):
    base = make_representation(free_abelian(2), [[[0.0]], [[0.0]]])
    return make_normal_map(base, 2, images)


@pytest.mark.parametrize("validate, arg, passed, details", [
    (validate_rep, lambda: _diag_rep(2, [(0.5, -0.25), (0.75, 0.1)])[1], True,
     {"contractive": "max norm excess 0.000e+00",
      "commuting": "max commutator residual 0.000e+00"}),
    (validate_rep,  # ties: the first generator and pair are named
     lambda: make_representation(free_abelian(3), [J.T, 2 * J, 2 * J]), False,
     {"contractive": "max norm excess 1.000e+00 at generator 1",
      "commuting": "max commutator residual 2.000e+00 at pair (0, 1)"}),
    (validate_normal_map,
     lambda: _normal_map({(1, 0): np.diag([0.5, 1.0]),
                          (0, 1): np.diag([0.25, -1.0])}), True,
     {"normal": "max normality residual 0.000e+00",
      "contractive": "max norm excess 0.000e+00",
      "commuting": "max commutator residual 0.000e+00",
      "star_commuting": "max adjoint-commutator residual 0.000e+00"}),
    (validate_normal_map,
     lambda: _normal_map({(1, 0): 2 * J, (0, 1): J, (1, 1): 0.5 * J.T}),
     False,
     {"normal": "max normality residual 4.000e+00 at (1, 0)",
      "contractive": "max norm excess 1.000e+00",
      "commuting": "max commutator residual 1.000e+00",
      "star_commuting": "max adjoint-commutator residual 2.000e+00"}),
    (validate_rep,  # the first relation of largest residual is named
     lambda: make_representation(
         numerical((1,)), [[[0.5]], [[0.0]]],
         relations=[({0: 1}, {0: 1}), ({0: 2}, {1: 1}), ({1: 1}, {0: 2})]),
     False, {"relations": "max relation residual 2.500e-01 at "
                          "({0: 2}, {1: 1})"}),
    (validate_dilation_family,
     lambda: make_dilation_family([np.diag([1, 1j]), np.diag([-1, 1])], 0, 1),
     True, {"commuting": "max commutator residual 0.000e+00"}),
    (validate_dilation_family,
     lambda: make_dilation_family([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], 0, 1),
     False, {"commuting": "max commutator residual 2.000e+00"}),
], ids=["rep-pass", "rep-fail", "normal-pass", "normal-fail",
        "relation-fail", "dilation-pass", "dilation-fail"])
def test_precondition_details_are_pinned(validate, arg, passed, details):
    # the details reach every machine report through the validation echo,
    # so they must not change byte for byte
    checks = {c.name: c for c in validate(arg()).checks}
    assert {name: checks[name].detail for name in details} == details
    assert all(checks[name].passed == passed for name in details)


class TestNormalMap:
    def _extension(self, seed=0, dim=6, h=3, m=2):
        # commuting normals conjugated by a block-diagonal unitary: dense,
        # but the leading h-dimensional subspace stays invariant
        rng = np.random.default_rng(seed)

        def haar(n):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            ph = np.diag(r)
            return q * (ph / np.abs(ph))

        w = np.zeros((dim, dim), dtype=complex)
        w[:h, :h] = haar(h)
        w[h:, h:] = haar(dim - h)
        mats = []
        for _ in range(m):
            diag = rng.uniform(0.0, 1.0, dim) * np.exp(
                2j * np.pi * rng.uniform(0.0, 1.0, dim))
            mats.append(w @ np.diag(diag) @ np.conj(w).T)
        d = free_abelian(m)
        base = make_representation(d, [a[:h, :h] for a in mats])
        gens = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
        images = {g: a for g, a in zip(gens, mats)}
        images[(0,) * m] = identity(dim)
        return make_normal_map(base, dim, images)

    def test_ambient_too_small(self):
        d, t = _diag_rep(1, [(0.5, 0.2)])
        with pytest.raises(InputError):
            make_normal_map(t, 1, {(1,): identity(1)})

    def test_diagonal_extension_validates(self):
        # jointly diagonal normals leave the leading subspace invariant
        n = self._extension()
        v = validate_normal_map(n)
        assert v.ok, v.failures

    def test_rotation_extension_rejected(self):
        d = free_abelian(1)
        base = make_representation(d, [np.array([[0.6]])])
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        n = make_normal_map(base, 2, {(1,): rot})
        v = validate_normal_map(n)
        inv = next(c for c in v.checks
                   if c.name == "extension_invariant_subspace")
        assert not inv.passed

    def test_star_commutation_of_commuting_normals(self):
        # adjoint commutation follows from normality plus commutation; the
        # checker must see residuals at working precision
        for seed in range(10):
            n = self._extension(seed=seed, dim=16, h=4)
            star = next(c for c in validate_normal_map(n).checks
                        if c.name == "star_commuting")
            assert star.passed, (seed, star.detail)

    def test_non_commuting_normals_caught(self):
        d = free_abelian(2)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        base = make_representation(d, [h[:1, :1], x[:1, :1]])
        n = make_normal_map(base, 2, {(1, 0): h, (0, 1): x})
        v = validate_normal_map(n)
        assert not next(c for c in v.checks if c.name == "commuting").passed
        assert not next(c for c in v.checks if c.name == "star_commuting").passed

    def test_unitality_is_advisory(self):
        d = free_abelian(1)
        base = make_representation(d, [np.array([[0.5]])])
        n = make_normal_map(
            base, 2,
            {(1,): np.diag([0.5, 0.5]), (0,): np.diag([1.0, 0.5])},
        )
        v = validate_normal_map(n)
        unital = next(c for c in v.checks if c.name == "unital")
        assert unital.advisory and not unital.passed
        assert v.ok  # advisory findings do not flip the verdict


class TestTildeEval:
    def test_member_matches_eval(self):
        d, t = _diag_rep(2, [(0.5, 0.25), (0.3, 0.7)])
        g = element(d, (2, 1))
        assert np.array_equal(tilde_eval(t, g), eval_rep(t, g))

    def test_mixed_sign_formula(self):
        lam, mu = 0.5 + 0.25j, 0.3 - 0.2j
        d, t = _diag_rep(2, [(lam, 0.1), (mu, 0.2)])
        g = element(d, (2, -3))
        got = tilde_eval(t, g)[0, 0]
        want = np.conj(mu ** 3) * lam ** 2  # T(g_minus)* T(g_plus), slot 0
        assert abs(got - want) < 1e-15

    def test_non_lattice_rejected(self):
        _, t = _neil_rep(0.5)
        with pytest.raises(UnsupportedStructureError):
            tilde_eval(t, element(t.descriptor, 2))


class TestStarKernel:
    def test_scalar_oracle(self):
        lam = 0.5 + 0.25j
        d, t = _diag_rep(1, [(lam,)])
        s = involution_point(d, (1,), (2,))
        u = involution_point(d, (3,), (1,))
        # s* u = (2 + 3, 1 + 1); kernel = conj(lam^5) * lam^2
        got = star_kernel(t, s, u)[0, 0]
        assert abs(got - np.conj(lam ** 5) * lam ** 2) < 1e-15

    def test_involution_symmetry(self):
        d, t = _diag_rep(2, [(0.5 + 0.2j, 0.3), (0.4, 0.1 - 0.6j)])
        rng = random.Random(43)
        for _ in range(50):
            s = involution_point(d, sample_member(d, rng), sample_member(d, rng))
            u = involution_point(d, sample_member(d, rng), sample_member(d, rng))
            lhs = adjoint(star_kernel(t, s, u))
            rhs = star_kernel(t, u, s)
            assert operator_norm(lhs - rhs) < 1e-12

    def test_point_mul_componentwise(self):
        d = free_abelian(2)
        s = involution_point(d, (1, 0), (0, 2))
        u = involution_point(d, (0, 1), (3, 0))
        prod = point_mul(d, s, u)
        assert prod.left.coords == (1, 1)
        assert prod.right.coords == (3, 2)

    def test_membership_gate(self):
        d, t = _diag_rep(1, [(0.5,)])
        with pytest.raises(MembershipError):
            involution_point(d, (-1,), (0,))
        bad = InvolutionPoint(element(d, (-1,)), element(d, (0,)))
        good = involution_point(d, (0,), (0,))
        with pytest.raises(MembershipError):
            star_kernel(t, bad, good)

    @pytest.mark.parametrize("d, images, left, right", [
        (free_abelian(1), [[[0.5]]], (-1,), (-2,)),
        (numerical((1,)), [[[0.5]], [[0.25]]], 1, -3),
        (product(free_abelian(1), numerical((1,))),
         [[[0.5]], [[0.25]], [[0.125]]], ((-1,), 0), ((0,), 1)),
    ], ids=["free-abelian", "numerical", "product"])
    def test_membership_message_names_the_left_component(
            self, d, images, left, right):
        t = make_representation(d, images)
        e = unit(d).coords
        # s* u = (right(s) + left(u), left(s) + right(u))
        s = InvolutionPoint(element(d, e), element(d, e))
        u = InvolutionPoint(element(d, left), element(d, right))
        with pytest.raises(MembershipError) as exc:
            star_kernel(t, s, u)
        want = f"{element(d, left).coords!r} is not in the semigroup"
        assert str(exc.value) == want

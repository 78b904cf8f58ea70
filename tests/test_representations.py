"""Semigroup-representation tests.

Scalar evaluation oracles use exact powers of two, and the non-commuting
normal pair used to exercise the validation teeth has a hand-computable
commutator norm of sqrt(2).
"""

import math
import random
import time

import numpy as np
import pytest
from conftest import homomorphism_residuals
from hypothesis import given, settings
from hypothesis import strategies as st

from normex import representations
from normex import semigroups as sg
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
    make_commuting_normals,
    make_representation,
    neg,
    numerical,
    operator_norm,
    point_mul,
    product,
    sample_group,
    sample_member,
    star_kernel,
    tilde_eval,
    product_of,
    unit,
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

    def test_no_images_rejected(self):
        with pytest.raises(InputError,
                           match="expected 1 generator images, got 0"):
            make_representation(free_abelian(1), [])

    def test_every_kind_carries_a_representation(self):
        # one descriptor per record; a kind added without an entry here,
        # or without generators, fails
        examples = {"free_abelian": free_abelian(2),
                    "numerical": numerical((1,)),
                    "product": product(free_abelian(1), numerical((1,)))}
        assert set(examples) == set(sg.KINDS)
        for d in examples.values():
            assert d.generator_count >= 1
            t = make_representation(d, [identity(1)] * d.generator_count)
            assert len(t.generator_images) == d.generator_count

    def test_large_rank_is_rejected_before_its_generators_exist(self):
        start = time.perf_counter()
        with pytest.raises(InputError,
                           match="expected 1000000 generator images, got 1"):
            make_representation(free_abelian(10 ** 6), [[[0.5]]])
        assert time.perf_counter() - start < 1.0

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


#: descriptors whose members the cache oracle draws: each kind, and a
#: numerical semigroup with two generators, where the factorization search
#: backtracks
CACHE_KINDS = [free_abelian(2), free_abelian(3), numerical((1,)),
               numerical((1, 2, 4, 5, 8)),
               product(free_abelian(1), numerical((1,)))]


def _cache_rep(d, seed, dim=3):
    """Commuting normal contractions on d's generators (dim x dim)."""
    return make_representation(
        d, make_commuting_normals(seed, dim, len(d.generators)))


class TestImageCache:
    """Images are cached by canonical coordinate, in one bounded
    least-recently-used cache per representation; each is bitwise what a
    fresh representation's product_of gives at its factorization."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(range(len(CACHE_KINDS))),
           seed=st.integers(0, 2 ** 16), count=st.integers(0, 40),
           room=st.integers(0, 6))
    def test_gathered_images_equal_a_fresh_product(self, kind, seed, count,
                                                   room):
        d = CACHE_KINDS[kind]
        rng = random.Random(seed)
        coords = [d.sample(rng) for _ in range(count)]
        coords += coords[:count // 3]  # repeats share a slot
        fresh = _cache_rep(d, seed)

        def want(c):
            return product_of(_cache_rep(d, seed),
                              factorize(d, element(d, c))).tobytes()

        def gathered(t):
            index, images = representations._image_table(t, coords)
            return [images[i].tobytes() for i in index]
        expected = [want(c) for c in coords]
        assert gathered(fresh) == expected  # cold
        assert gathered(fresh) == expected  # warm
        with pytest.MonkeyPatch.context() as mp:
            # room for ``room`` images: a miss evicts, so the cold gather
            # evicts as it goes; the warm one hits and evicts nothing
            mp.setattr(representations, "_CACHE_BYTES", room * 16 * 3 * 3)
            cold = _cache_rep(d, seed)
            for t in (fresh, cold):
                assert gathered(t) == expected
                assert gathered(t) == expected
            assert len(cold._cache) <= room
            for c, b in zip(coords, expected):
                assert eval_rep(fresh, element(d, c)).tobytes() == b

    def test_eval_rep_and_the_gather_share_each_image(self):
        d = product(free_abelian(1), numerical((1,)))
        t = _cache_rep(d, 5)
        index, images = representations._image_table(t, [((2,), 3)])
        image = eval_rep(t, element(d, ((2,), 3)))
        assert image is t._cache[((2,), 3)]
        assert np.array_equal(images[index[0]], image)

    def test_bytes_stay_within_the_budget(self, monkeypatch):
        # 4 x 4 complex images of 256 bytes: the budget holds ten of them,
        # however many distinct coordinates pass
        monkeypatch.setattr(representations, "_CACHE_BYTES", 2600)
        d = free_abelian(2)
        t = _cache_rep(d, 1, dim=4)
        for lo in range(0, 400, 40):
            coords = [(x, y) for x in range(lo, lo + 40) for y in (0, 1)]
            representations._image_table(t, coords)
            assert sum(a.nbytes for a in t._cache.values()) <= 2600
            assert len(t._cache) == 10
        assert eval_rep(t, element(d, (3, 4))).nbytes == 256

    def test_the_least_recently_used_image_goes_first(self, monkeypatch):
        _, t = _diag_rep(2, [(0.5, 0.1), (0.2, 0.3)])
        one = t.generator_images[0].nbytes
        monkeypatch.setattr(representations, "_CACHE_BYTES", 3 * one)
        made = []

        def make(t, key):
            made.append(key)
            return np.zeros((2, 2), complex)
        representations._cached(t, ["a", "b", "c"], make)
        first = t._cache["a"]
        assert representations._cached(t, ["a", "d"], make)[0] is first
        assert list(t._cache) == ["c", "a", "d"]  # b was least recent
        representations._cached(t, ["b"], make)
        assert made == ["a", "b", "c", "d", "b"]
        assert list(t._cache) == ["a", "d", "b"]
        assert not t._cache["b"].flags.writeable


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


    @pytest.mark.parametrize("d", [free_abelian(1), numerical((1,))],
                             ids=["free_abelian(1)", "numerical"])
    def test_huge_entries_warn_nothing(self, d):
        # products of entries near 1e308 overflow; the norm excess stays
        # finite, and no step warns (warnings are errors here)
        images = [[[1e308, 0.0], [0.0, 0.5]], [[1e300, 0.0], [0.0, 0.25]]]
        t = make_representation(d, images[:len(d.generators)])
        v = validate_rep(t)
        contractive = v.checks[0]
        assert not contractive.passed
        assert contractive.detail == ("max norm excess 1.000e+308 at "
                                      "generator 0")

    def test_overflowed_residuals_fail_as_nan(self):
        # every product of these images overflows, so each residual is
        # NaN: a NaN is the largest residual, and its check fails
        t = make_representation(numerical((1,)), [[[1e308]], [[1e300]]],
                                relations=[({0: 3}, {1: 2})])
        checks = {c.name: c for c in validate_rep(t).checks}
        assert {name: (c.passed, c.detail) for name, c in checks.items()
                if name != "contractive"} == {
            "commuting": (False, "max commutator residual nan at pair (0, 1)"),
            "relations": (False, "max relation residual nan at "
                                 "({0: 3}, {1: 2})"),
            "homomorphism_sampled": (
                False, "max residual nan over 100 sampled pairs")}


class TestHomomorphismSample:
    """validate_rep draws every pair first and takes all residual norms
    from one stack; the per-pair loop in conftest is the oracle."""

    REPS = {
        "commuting": lambda d, n: make_commuting_normals(3, 3, n),
        # non-commuting contractions leave residuals far above rounding
        "random": lambda d, n: [
            m / (1.05 * np.linalg.norm(m, 2)) for m in
            np.random.default_rng(n).standard_normal((n, 3, 3))
            + 1j * np.random.default_rng(n + 1).standard_normal((n, 3, 3))],
    }

    @pytest.mark.parametrize("images", sorted(REPS))
    @pytest.mark.parametrize("d", [free_abelian(2), numerical((1,)),
                                   product(free_abelian(1), numerical((1,)))],
                             ids=["free_abelian(2)", "numerical", "product"])
    def test_equals_the_per_pair_loop(self, monkeypatch, d, images):
        t = make_representation(d, self.REPS[images](d, len(d.generators)))
        seen = []

        def record(stack, real=representations.operator_norms):
            seen.append(real(stack))
            return seen[-1]
        monkeypatch.setattr(representations, "operator_norms", record)
        v = validate_rep(t, sample_budget=40, seed=7)
        want = homomorphism_residuals(t, 40, 7)
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        check = v.checks[-1]
        assert check.name == "homomorphism_sampled"
        assert check.detail == (f"max residual {max([0.0, *want]):.3e} "
                                "over 40 sampled pairs")
        assert type(check.passed) is bool

    def test_one_eigensolve_whatever_the_budget(self, monkeypatch):
        t = make_representation(numerical((1,)),
                                make_commuting_normals(3, 3, 2))
        calls = []

        def counted(a, *args, real=np.linalg.eigvalsh, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        counts = []
        for budget in (10, 200):
            calls.clear()
            validate_rep(t, sample_budget=budget)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert calls[-1] == (200, 3, 3)  # the one stacked solve

    def test_no_pairs(self):
        _, t = _diag_rep(2, [(0.5, -0.25), (0.75, 0.1)])
        check = validate_rep(t, sample_budget=0).checks[-1]
        assert (check.passed, check.detail) == (
            True, "max residual 0.000e+00 over 0 sampled pairs")


J = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("arg, passed, details", [
    (lambda: _diag_rep(2, [(0.5, -0.25), (0.75, 0.1)])[1], True,
     {"contractive": "max norm excess 0.000e+00",
      "commuting": "max commutator residual 0.000e+00"}),
    # ties: the first generator and pair are named
    (lambda: make_representation(free_abelian(3), [J.T, 2 * J, 2 * J]), False,
     {"contractive": "max norm excess 1.000e+00 at generator 1",
      "commuting": "max commutator residual 2.000e+00 at pair (0, 1)"}),
    # the first relation of largest residual is named
    (lambda: make_representation(
        numerical((1,)), [[[0.5]], [[0.0]]],
        relations=[({0: 1}, {0: 1}), ({0: 2}, {1: 1}), ({1: 1}, {0: 2})]),
     False, {"relations": "max relation residual 2.500e-01 at "
                          "({0: 2}, {1: 1})"}),
], ids=["rep-pass", "rep-fail", "relation-fail"])
def test_precondition_details_are_pinned(arg, passed, details):
    # the details reach every machine report through the validation echo,
    # so they must not change byte for byte
    checks = {c.name: c for c in validate_rep(arg()).checks}
    assert {name: checks[name].detail for name in details} == details
    assert all(checks[name].passed == passed for name in details)


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

    @pytest.mark.parametrize("d", [
        free_abelian(2), numerical(()), product(free_abelian(1), numerical(())),
    ], ids=["free-abelian", "numerical", "product"])
    def test_negation_is_the_adjoint(self, d):
        # (-g)_+- = g_-+, so T~(-g) = T~(g)*: regularity_check fills the
        # lower triangle of its difference kernel by this identity
        a = np.array([[0.5, 0.3j], [0.1, -0.4]])
        t = make_representation(d, [a, a @ a][:len(d.generators)])
        rng = random.Random(11)
        for _ in range(50):
            g = sample_group(d, rng)
            np.testing.assert_allclose(tilde_eval(t, neg(d, g)),
                                       adjoint(tilde_eval(t, g)),
                                       rtol=0, atol=1e-12)


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

"""Constructive-oracle tests: normal families, kernel factorization, convex
averaging over dilation families, and the gallery.

The averaging bounds are checked against the exact slot geometry: every
member defect has norm sqrt(1-|t|^2) and the defects are pairwise
orthogonal, so the averaged defect norm must equal that value times the
l2-norm of the weights.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from normex import (
    InputError,
    NotPsdError,
    adjoint,
    convex_average,
    convex_weights,
    element,
    eval_rep,
    identity,
    kolmogorov_factor,
    make_commuting_normals,
    make_dilation_family,
    make_gallery,
    make_orthogonal_defect_family,
    operator_norm,
    uniform_weights,
    validate_rep,
)


class TestCommutingNormals:
    def test_structure(self):
        for seed in range(5):
            mats = make_commuting_normals(seed, 16, 3)
            for a in mats:
                assert operator_norm(adjoint(a) @ a - a @ adjoint(a)) <= 1e-12
                assert operator_norm(a) <= 1.0 + 1e-12
            for i in range(3):
                for j in range(i + 1, 3):
                    a, b = mats[i], mats[j]
                    assert operator_norm(a @ b - b @ a) <= 1e-12
                    # adjoint commutation at the same working precision
                    assert operator_norm(a @ adjoint(b) - adjoint(b) @ a) <= 1e-9

    def test_deterministic(self):
        a = make_commuting_normals(3, 8, 2)
        b = make_commuting_normals(3, 8, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = make_commuting_normals(4, 8, 2)
        assert not np.array_equal(a[0], c[0])

    def test_bad_sizes(self):
        with pytest.raises(InputError):
            make_commuting_normals(0, 0, 1)
        with pytest.raises(InputError):
            make_commuting_normals(0, 2, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(InputError):
            make_commuting_normals(seed, 2, 1)


class TestKolmogorov:
    def _gram_grid(self, seed, n, d):
        rng = np.random.default_rng(seed)
        vs = [rng.standard_normal((3 * d, d)) + 1j * rng.standard_normal((3 * d, d))
              for _ in range(n)]
        return [[np.conj(a).T @ b for b in vs] for a in vs]

    def test_roundtrip(self):
        for seed in range(10):
            grid = self._gram_grid(seed, 4, 3)
            factors = kolmogorov_factor(grid)
            scale = max(np.linalg.norm(np.block(grid), 2), 1e-30)
            worst = max(
                operator_norm(np.conj(factors[i]).T @ factors[j] - grid[i][j])
                for i in range(4) for j in range(4)
            )
            assert worst <= 1e-9 * scale, seed

    def test_factor_shapes(self):
        grid = self._gram_grid(1, 3, 2)
        factors = kolmogorov_factor(grid)
        assert len(factors) == 3
        assert all(f.shape == (6, 2) for f in factors)

    def test_negative_kernel_rejected(self):
        with pytest.raises(NotPsdError) as exc:
            kolmogorov_factor([[np.array([[-0.1]])]])
        assert abs(exc.value.margin + 0.1) < 1e-12

    def test_near_boundary_negative_rejected(self):
        # indefinite despite a PSD-looking diagonal
        grid = [[np.eye(1), 2.0 * np.eye(1)], [2.0 * np.eye(1), np.eye(1)]]
        with pytest.raises(NotPsdError):
            kolmogorov_factor(grid)

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            kolmogorov_factor([[np.eye(2), np.eye(2)]])
        with pytest.raises(InputError):
            kolmogorov_factor([[np.eye(2), np.eye(2)],
                               [np.eye(2), np.eye(3)]])


class TestConvexWeights:
    def test_uniform_is_exact(self):
        for n in range(1, 9):
            w = uniform_weights(n)
            assert w.total == 1
            assert w.norm2_squared == Fraction(1, n)
            assert abs(w.norm2 - 1.0 / math.sqrt(n)) < 1e-15

    def test_float_weights_admitted_exactly(self):
        w = convex_weights([0.5, 0.25, 0.25])
        assert w.total == 1
        assert w.norm2_squared == Fraction(3, 8)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            convex_weights([1.5, -0.5])

    def test_wrong_total_rejected(self):
        with pytest.raises(InputError):
            convex_weights([0.5, 0.25])


class TestOrthogonalDefectFamily:
    def test_family_validates(self):
        fam = make_orthogonal_defect_family(0.6, 3)
        assert fam.ambient_dim == 8
        assert fam.subspace_dim == 1 and fam.front_dim == 0
        eye = identity(8)
        for i, u in enumerate(fam.members):
            assert operator_norm(adjoint(u) @ u - eye) <= 1e-12
            for w in fam.members[:i]:
                assert operator_norm(u @ w - w @ u) <= 1e-12

    def test_corner_and_defect_geometry(self):
        t = 0.6
        s = math.sqrt(1 - t * t)
        fam = make_orthogonal_defect_family(t, 4)
        defects = [fam.defect_of(u) for u in fam.members]
        for i, u in enumerate(fam.members):
            assert abs(fam.corner_of(u)[0, 0] - t) <= 1e-15
            assert abs(operator_norm(defects[i]) - s) <= 1e-12
            for j in range(i):
                cross = operator_norm(adjoint(defects[i]) @ defects[j])
                assert cross <= 1e-15, (i, j)

    def test_averaged_defect_tracks_weight_norm(self):
        t = 0.6
        s = math.sqrt(1 - t * t)
        for n in range(1, 7):
            fam = make_orthogonal_defect_family(t, n)
            avg, defect, wnorm = convex_average(fam, uniform_weights(n))
            assert abs(fam.corner_of(avg)[0, 0] - t) <= 1e-12
            assert defect <= wnorm + 1e-10
            # exact geometry: orthogonal equal-norm defects compose in l2
            assert abs(defect - s * wnorm) <= 1e-12

    def test_random_convex_weights(self):
        rng = np.random.default_rng(83)
        fam = make_orthogonal_defect_family(0.3 + 0.4j, 5)
        for _ in range(20):
            raw = rng.uniform(0.1, 1.0, 5)
            fracs = [Fraction(float(x)) for x in raw]
            total = sum(fracs, Fraction(0))
            w = convex_weights([f / total for f in fracs])
            _, defect, wnorm = convex_average(fam, w)
            assert defect <= wnorm + 1e-10

    def test_single_member_is_endpoint(self):
        fam = make_orthogonal_defect_family(0.8, 1)
        avg, defect, wnorm = convex_average(fam, uniform_weights(1))
        assert np.array_equal(avg, fam.members[0])
        assert wnorm == 1.0
        assert abs(defect - math.sqrt(1 - 0.64)) <= 1e-12

    def test_unimodular_corner_gives_zero_defect(self):
        fam = make_orthogonal_defect_family(1.0, 2)
        _, defect, _ = convex_average(fam, uniform_weights(2))
        assert defect <= 1e-15

    def test_corner_outside_disk_rejected(self):
        with pytest.raises(InputError):
            make_orthogonal_defect_family(1.1, 2)

    def test_weight_support_cannot_exceed_family(self):
        fam = make_orthogonal_defect_family(0.5, 2)
        with pytest.raises(InputError):
            convex_average(fam, uniform_weights(3))


class TestDilationFamilyBlocks:
    def test_three_block_slicing(self):
        a = np.arange(16, dtype=float).reshape(4, 4)
        fam = make_dilation_family([np.eye(4)], front_dim=1, subspace_dim=2)
        assert np.array_equal(fam.corner_of(a), a[1:3, 1:3].astype(complex))
        assert np.array_equal(fam.defect_of(a), a[3:, 1:3].astype(complex))
        assert fam.rear_dim == 1

    def test_block_ranges_checked(self):
        with pytest.raises(InputError):
            make_dilation_family([np.eye(3)], front_dim=2, subspace_dim=2)
        with pytest.raises(InputError):
            make_dilation_family([np.eye(3)], front_dim=0, subspace_dim=0)
        with pytest.raises(InputError):
            make_dilation_family([], front_dim=0, subspace_dim=1)


class TestGallery:
    def test_jordan(self):
        j = make_gallery("jordan", dim=4)
        assert np.array_equal(np.linalg.matrix_power(j, 4), np.zeros((4, 4)))
        assert np.any(np.linalg.matrix_power(j, 3) != 0)

    def test_truncated_shift_hyponormality_diagnostic(self):
        m = make_gallery("truncated_shift", weights=(0.5, 0.9))
        gap = adjoint(m) @ m - m @ adjoint(m)
        # hand arithmetic: diag(w1^2, w2^2 - w1^2, -w2^2)
        want = np.diag([0.25, 0.81 - 0.25, -0.81])
        assert np.max(np.abs(gap - want)) <= 1e-15

    def test_truncated_shift_weight_gate(self):
        with pytest.raises(InputError):
            make_gallery("truncated_shift", weights=(1.2,))

    @pytest.mark.parametrize("case, params", [
        ("truncated_shift", {"weights": (0.5, float("nan"))}),
        ("truncated_shift", {"weights": (float("inf"),)}),
        ("neil_scalar", {"lam": float("nan")}),
        ("neil_scalar", {"lam": 1.5}),
    ], ids=["weight-nan", "weight-inf", "lam-nan", "lam-above-one"])
    def test_nan_and_out_of_disc_values_rejected(self, case, params):
        with pytest.raises(InputError):
            make_gallery(case, **params)

    def test_gallery_matrices_are_read_only(self):
        for m in (make_gallery("jordan", dim=3),
                  make_gallery("truncated_shift", weights=(0.5,))):
            assert m.dtype == np.complex128 and not m.flags.writeable

    def test_neil_scalar(self):
        t = make_gallery("neil_scalar", lam=0.5)
        assert validate_rep(t).ok
        assert eval_rep(t, element(t.descriptor, 7))[0, 0] == 0.5 ** 7

    def test_neil_matrix(self):
        a = make_commuting_normals(11, 3, 1)[0]
        t = make_gallery("neil_matrix", a=a)
        v = validate_rep(t)
        assert v.ok, v.failures

    def test_unitary_rep(self):
        angles = [[0.1, 2.2, 4.0], [1.0, 0.5, 3.3]]
        t = make_gallery("unitary_rep", k=2, angles=angles)
        for img in t.generator_images:
            assert operator_norm(adjoint(img) @ img - identity(3)) <= 1e-12

    def test_normal_pair(self):
        t = make_gallery("normal_pair", seed=5, dim=4)
        assert validate_rep(t).ok
        assert len(t.generator_images) == 2

    def test_unknown_case(self):
        with pytest.raises(InputError):
            make_gallery("moebius")

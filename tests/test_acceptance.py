"""End-to-end acceptance checks, one reported line per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured quantity and
its required bound before asserting, so a suite log shows exactly which
guarantees hold and with how much headroom.  Tolerances here are contractual:
do not loosen them to make a test green.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import conftest
import numpy as np

from normex import (
    SzNagyConfig,
    agler_certificate,
    athavale_certificate,
    athavale_vs_brehmer,
    block_assemble,
    box_operator,
    brehmer_certificate,
    brehmer_sum,
    convex_average,
    convex_weights,
    extension_residual,
    free_abelian,
    generator_certificate,
    involution_point,
    kolmogorov_factor,
    make_commuting_normals,
    make_gallery,
    make_orthogonal_defect_family,
    make_representation,
    operator_norm,
    run_command,
    sznagy_check,
    uniform_weights,
)

J2 = np.array([[0.0, 0.0], [1.0, 0.0]])


def _report(ok: bool, text: str) -> None:
    # registered lines are replayed after the run, once capture is released
    line = f"[{'PASS' if ok else 'FAIL'}] {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _degree_split(rng, m, total_cap):
    """Random degree tuple with 1 <= sum <= total_cap, zeros allowed."""
    total = int(rng.integers(1, total_cap + 1))
    cuts = sorted(int(c) for c in rng.integers(0, total + 1, size=m - 1))
    edges = [0] + cuts + [total]
    return tuple(edges[i + 1] - edges[i] for i in range(m))


def _contraction_family(seed):
    """Seeded commuting contraction family, m <= 3, dim <= 6, cycling three
    constructions: dense commuting normals, polynomials in one non-normal
    contraction, and jointly diagonal contractions."""
    rng = np.random.default_rng(10_000 + seed)
    m = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 7))
    kind = seed % 3
    if kind == 0:
        mats = make_commuting_normals(seed, dim, m)
    elif kind == 1:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a / (1.25 * np.linalg.norm(a, 2))
        mats = []
        for _ in range(m):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = c[0] * np.eye(dim) + c[1] * a + c[2] * (a @ a)
            mats.append(t / (np.linalg.norm(t, 2) + 0.05))
    else:
        phases = np.exp(2j * np.pi * rng.random((m, dim)))
        radii = rng.random((m, dim))
        mats = [np.diag(phases[i] * radii[i]) for i in range(m)]
    return mats, _degree_split(rng, m, 6)


def test_box_operator_matches_subset_sum_on_seeded_families():
    t0 = time.monotonic()
    worst = 0.0
    worst_explicit = 0.0
    for seed in range(50):
        mats, n = _contraction_family(seed)
        _, _, dev = athavale_vs_brehmer(mats, n)
        worst = max(worst, dev)
        explicit = conftest.explicit_box_sum(mats, n)
        worst_explicit = max(worst_explicit, float(
            np.abs(box_operator(mats, n) - explicit).max()))
    elapsed = time.monotonic() - t0
    _report(worst <= 1e-10 and worst_explicit <= 1e-10 and elapsed < 30.0,
            "box operator vs subset sum on 50 seeded commuting contraction "
            f"families (m<=3, dim<=6, deg sum<=6): max deviation {worst:.3e} "
            f"<= 1e-10, vs the explicit binomial expansion "
            f"{worst_explicit:.3e} <= 1e-10, {elapsed:.2f}s < 30s")


def test_normal_tuples_hit_the_defect_product_closed_form():
    worst = 0.0
    failed_certs = 0
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 7))
        mats = make_commuting_normals(500 + seed, dim, m)
        n = _degree_split(rng, m, 4)
        closed = np.eye(dim, dtype=complex)
        for mat, ni in zip(mats, n):
            defect = np.eye(dim) - np.conj(mat).T @ mat
            closed = closed @ np.linalg.matrix_power(defect, ni)
        worst = max(worst, float(np.abs(box_operator(mats, n) - closed).max()))
        certs = [athavale_certificate(mats, n),
                 generator_certificate(mats, max_degree=2),
                 brehmer_certificate(make_representation(free_abelian(m), mats),
                                     range(1, m + 1))]
        certs += [agler_certificate(mat, max(ni, 1))
                  for mat, ni in zip(mats, n)]
        failed_certs += sum(not c.passed for c in certs)
    _report(worst <= 1e-9 and failed_certs == 0,
            "box operator on 50 seeded commuting normal families equals the "
            f"defect-product closed form: max deviation {worst:.3e} <= 1e-9, "
            f"{failed_certs} certificate failures")


def test_degree_sixty_sweep_passes_on_the_normal_pair(tmp_path, capsys):
    spec = tmp_path / "normal_pair.json"
    out = tmp_path / "report.json"
    assert run_command(["gallery", "normal_pair", "--seed", "0", "--dim", "4",
                        "--out", str(spec)]) == 0
    code = run_command(["check", "athavale", "--input", str(spec),
                        "--max-degree", "60", "--format", "machine",
                        "--out", str(out)])
    capsys.readouterr()
    sweep = json.loads(out.read_text())["reports"][0]
    checked = sweep["parameters"].get("tuples_checked")

    mats = list(make_gallery("normal_pair", seed=0, dim=4).generator_images)
    n = (47, 12)
    closed = np.eye(4, dtype=complex)
    for mat, ni in zip(mats, n):
        defect = np.eye(4) - np.conj(mat).T @ mat
        closed = closed @ np.linalg.matrix_power(defect, ni)
    want = float(np.linalg.eigvalsh((closed + np.conj(closed).T) / 2)[0])
    cert = athavale_certificate(mats, n)
    gap = abs(cert.margin - want)
    _report(code == 0 and checked == 1891 and cert.passed and gap <= 1e-12,
            "normal pair (seed 0, dim 4) swept to degree 60: exit code "
            f"{code} (want 0), {checked} tuples checked (want 1891); n=(47,12) "
            f"{cert.verdict} with margin {cert.margin:.3e}, within {gap:.3e} "
            "<= 1e-12 of the defect-product closed form")


def test_nilpotent_shift_fails_at_degree_two_with_exact_margin():
    cert = agler_certificate(J2, 2)
    rep = make_representation(free_abelian(1), [J2])
    sweep1 = generator_certificate(rep)
    sweep2 = generator_certificate(rep)
    ok = (not cert.passed and abs(cert.margin + 1.0) <= 1e-12
          and not sweep1.passed and sweep1.witness == {"n": [2]}
          and sweep1.as_dict() == sweep2.as_dict())
    _report(ok,
            "2x2 nilpotent shift: degree-2 certificate fails with margin "
            f"{cert.margin!r} (-1 within 1e-12); sweep witness "
            f"{sweep1.witness} identical across reruns")


def test_unitary_representations_zero_every_subset_sum():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(1, 5):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(k, 5))
        rep = make_gallery("unitary_rep", k=k, angles=angles)
        diag = [np.asarray(g) for g in rep.generator_images]
        w = _haar_unitary(rng, 5)
        dense = [w @ g @ np.conj(w).T for g in diag]
        for mats in (diag, dense):
            for size in range(1, k + 1):
                for u in itertools.combinations(range(k), size):
                    s = brehmer_sum(mats, list(u), 5)
                    worst = max(worst, float(np.abs(s).max()))
    _report(worst <= 1e-12,
            "every nonempty-letter subset sum vanishes for commuting unitary "
            f"families (k<=4, diagonal and conjugated): max entry {worst:.3e} "
            "<= 1e-12")


def test_compression_identity_on_random_and_triangular_matrices():
    worst = 0.0
    worst_tri = 0.0
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        dim = int(rng.integers(2, 13))
        k = int(rng.integers(0, dim + 1))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a / np.linalg.norm(a, 2)
        lhs, rhs = extension_residual(a, k)
        worst = max(worst, abs(lhs - rhs))
        lhs_t, rhs_t = extension_residual(np.triu(a), k)
        worst_tri = max(worst_tri, lhs_t, rhs_t)
    _report(worst <= 1e-12 and worst_tri <= 1e-14,
            "compression identity on 200 seeded matrices (dim<=12, random "
            f"subspace): max |lhs-rhs| {worst:.3e} <= 1e-12; block-upper-"
            f"triangular residuals {worst_tri:.3e} <= 1e-14")


def test_commuting_normal_pairs_star_commute():
    worst = 0.0
    for seed in range(100):
        dim = 4 * (seed % 4) + 4
        n_mat, m_mat = make_commuting_normals(60_000 + seed, dim, 2)
        worst = max(worst, float(np.linalg.norm(
            n_mat @ np.conj(m_mat).T - np.conj(m_mat).T @ n_mat, 2)))
    _report(worst <= 1e-9,
            "100 seeded commuting normal pairs (dim<=16) star-commute: "
            f"max ||NM* - M*N|| {worst:.3e} <= 1e-9")


def test_sampled_kernel_conditions_hold_for_normal_representations():
    worst = math.inf
    failures = 0
    for seed in range(10):
        mats = make_commuting_normals(70_000 + seed, 5, 2)
        rep = make_representation(free_abelian(2), mats)
        d = rep.descriptor
        e = (0, 0)
        pts = tuple(involution_point(d, e, r)
                    for r in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
        cfg = SzNagyConfig(pts, involution_point(d, e, (1, 0)), 1.0)
        cert = sznagy_check(rep, cfg)
        failures += not cert.passed
        worst = min(worst, cert.margin)
    _report(failures == 0 and worst >= -1e-9,
            "sampled kernel conditions on 10 commuting normal reps (5 points, "
            f"unit bound constant): 0 failures, min margin {worst:.3e} >= "
            "-1e-9")


def test_averaged_dilations_obey_the_weight_norm_defect_bound():
    corners = [0.3, -0.55, 0.8j, 0.35 + 0.45j]
    rng = np.random.default_rng(8)
    ok = True
    worst_excess = -math.inf
    for n in range(1, 9):
        t = corners[n % len(corners)]
        fam = make_orthogonal_defect_family(t, n)
        w_uni = uniform_weights(n)
        ok = ok and w_uni.norm2_squared == Fraction(1, n)
        counts = [int(c) for c in rng.integers(1, 5, size=n)]
        w_rng = convex_weights([Fraction(c, sum(counts)) for c in counts])
        for w in (w_uni, w_rng):
            avg, defect, wnorm = convex_average(fam, w)
            worst_excess = max(worst_excess, defect - wnorm)
            ok = ok and defect <= wnorm + 1e-10
            ok = ok and abs(avg[0, 0] - t) <= 1e-12
    _report(ok,
            "averaged orthogonal-defect dilations (n<=8): defect norm <= "
            f"weight 2-norm + 1e-10 (max excess {worst_excess:.3e}), corner "
            "reproduced within 1e-12, uniform weights have norm2^2 == 1/n "
            "exactly")


def test_kernel_factorization_roundtrip_is_tight():
    worst_rel = 0.0
    for seed in range(100):
        rng = np.random.default_rng(90_000 + seed)
        nb = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        r = nb * d
        vs = [rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
              for _ in range(nb)]
        grid = [[np.conj(vi).T @ vj for vj in vs] for vi in vs]
        ws = kolmogorov_factor(grid)
        re_grid = [[np.conj(wi).T @ wj for wj in ws] for wi in ws]
        kmat = block_assemble(grid)
        resid = operator_norm(block_assemble(re_grid) - kmat)
        worst_rel = max(worst_rel, resid / operator_norm(kmat))
    _report(worst_rel <= 1e-9,
            "factor-and-reassemble on 100 seeded block kernels: max relative "
            f"residual {worst_rel:.3e} <= 1e-9")


def test_machine_reports_are_deterministic_with_stratified_exit_codes(
        tmp_path, capsys):
    neil = tmp_path / "neil.json"
    assert run_command(["gallery", "neil_scalar", "--format", "machine",
                        "--out", str(neil)]) == 0
    jordan = tmp_path / "jordan.json"
    jordan.write_text(json.dumps({
        "descriptor": {"kind": "free_abelian", "k": 1},
        "representation": {
            "dimension": 2,
            "generators": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],
            "relations": [],
        },
        "run": {},
    }))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    missing = tmp_path / "missing.json"

    matrix = [
        (["check", "athavale", "--input", str(neil), "--seed", "7"], 0),
        (["check", "all", "--input", str(neil), "--seed", "7"], 0),
        (["validate", "--input", str(neil)], 0),
        (["check", "athavale", "--input", str(jordan)], 1),
        (["check", "all", "--input", str(jordan), "--seed", "7"], 1),
        (["check", "athavale", "--input", str(missing)], 2),
        (["check", "athavale", "--input", str(bad)], 2),
        (["check", "bogus", "--input", str(neil)], 2),
        (["gallery", "normal_pair", "--dim", "0"], 2),
        (["gallery", "unitary_rep", "--k", "0"], 2),
        (["gallery", "jordan", "--dim", "0"], 2),
    ]
    code_misses = []
    for argv, want in matrix:
        got = run_command(argv)
        capsys.readouterr()
        if got != want:
            code_misses.append((argv, want, got))

    argv = ["check", "all", "--input", str(neil), "--format", "machine",
            "--seed", "7"]
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    run_command(argv + ["--out", str(out1)])
    s1 = capsys.readouterr().out
    run_command(argv + ["--out", str(out2)])
    s2 = capsys.readouterr().out
    det_ok = s1 == s2 and out1.read_bytes() == out2.read_bytes()

    sub_misses = []
    for sub_argv, want in [(argv + ["--out", str(out3)], 0),
                           (["check", "athavale", "--input", str(jordan)], 1),
                           (["check", "athavale", "--input", str(bad)], 2)]:
        proc = subprocess.run([sys.executable, "-m", "normex", *sub_argv],
                              capture_output=True, text=True)
        if proc.returncode != want:
            sub_misses.append((sub_argv, want, proc.returncode))
        if want == 0:
            det_ok = det_ok and proc.stdout == s1
            det_ok = det_ok and out3.read_bytes() == out1.read_bytes()

    _report(not code_misses and not sub_misses and det_ok,
            "fixed-seed machine reports byte-identical across reruns and a "
            "fresh interpreter; exit codes 0/1/2 as scripted "
            f"({len(matrix) + 3} cases, misses: {code_misses + sub_misses})")


def test_subset_enumeration_at_the_letter_cap_is_fast():
    mats = make_commuting_normals(0, 4, 2)
    rep = make_representation(free_abelian(2), mats)
    letters = ([(1, c) for c in range(1, 9)] + [(2, c) for c in range(1, 9)])
    t0 = time.monotonic()
    cert = brehmer_certificate(rep, letters)
    elapsed = time.monotonic() - t0
    _report(cert.passed and elapsed < 10.0,
            f"subset sum over 16 letters (65536 subsets) in {elapsed:.2f}s "
            "< 10s; two-minute whole-suite budget reported at session end")

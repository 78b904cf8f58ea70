"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload once untraced and once traced with ``--smoke``, checks
that every metric BENCHMARK.json names is printed with its unit, and that
nothing fails on inputs with a known pass.  The one operation allowed to
fail is the documented known defect in oneshot.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]] + ["cli_cold"])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    stamp = json.loads(lines[-2])["environment"]
    for key in ("python", "numpy", "blas", "blas_version", "blas_threads",
                "nproc", "git_commit", "seed"):
        assert key in stamp
    failed = [ln for ln in lines if ln.startswith("  failed:")]
    if workload == "oneshot":
        # the known false fail stays in the workload and is counted
        assert result["failed"] > 0 and failed
        assert all("[known defect:" in ln for ln in failed)
    else:
        assert result["failed"] == 0 and not failed, proc.stdout


def test_tracing_restores_the_original_functions():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import normex.certificates
    import normex.linalg
    import spans

    original = normex.linalg.psd_check
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert normex.certificates.psd_check is not original
        assert normex.linalg.psd_check is not original
        normex.certificates.agler_certificate([[0.5]], 2)
    finally:
        spans.restore(patches)
    assert normex.certificates.psd_check is original
    assert normex.linalg.psd_check is original
    assert tracer.calls["linalg.psd_check"] == 1
    spans.verify_untraced()


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""normex benchmark: three closed-loop workloads, one caller each.

    python3 bench/run.py --workload {sweep,oneshot,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; normex is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md).  Human-readable lines come
first, then an environment stamp; the last line is the JSON result.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "cli_child.py")

WORKLOADS = ("sweep", "oneshot", "cli_cold")
#: Fresh set-ups per run, spread over the measured time; setup_s is their
#: median.
SETUP_PROBES = 5
#: Cold-start floor probes per traced run; medians are reported.
FLOOR_PROBES = 3
#: Share of each op's samples, fastest first, that the timed metrics use.
BEST_SHARE = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("tuples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_SEMIGROUP_METRICS = tuple(
    (f"semigroups.{fn}.{kind}", unit, "lower")
    for fn in ("factorize", "add", "contains", "meet_join", "element")
    for kind, unit in (("calls", "calls/op"), ("self_ms", "ms/op")))

#: (name, unit, better).  "comp_" units are computed from call arguments.
PER_LAYER = (
    ("linalg.psd_check.calls", "calls/op", "lower"),
    ("linalg.psd_check.self_ms", "ms/op", "lower"),
    ("linalg.operator_norm.calls", "calls/op", "lower"),
    ("linalg.operator_norm.self_ms", "ms/op", "lower"),
    ("linalg.block_assemble.self_ms", "ms/op", "lower"),
    ("linalg.eigensolves", "calls/op", "lower"),
    ("linalg.eig_work_n3", "comp_n3/op", "lower"),
    ("certificates.box_operator.calls", "calls/op", "lower"),
    ("certificates.box_operator.self_ms", "ms/op", "lower"),
    ("certificates.box_terms", "comp_terms/op", "lower"),
    ("certificates.brehmer_sum.calls", "calls/op", "lower"),
    ("certificates.brehmer_sum.self_ms", "ms/op", "lower"),
    ("certificates.subset_terms", "comp_terms/op", "lower"),
    ("certificates.generator_certificate.self_ms", "ms/op", "lower"),
    ("certificates.tuples_checked", "tuples/op", "higher"),
    ("certificates.sznagy_check.self_ms", "ms/op", "lower"),
    ("certificates.regularity_check.self_ms", "ms/op", "lower"),
    ("representations.eval_rep.calls", "calls/op", "lower"),
    ("representations.eval_rep.self_ms", "ms/op", "lower"),
    ("representations.star_kernel.calls", "calls/op", "lower"),
    ("representations.star_kernel.self_ms", "ms/op", "lower"),
    ("representations.product_of.calls", "calls/op", "lower"),
    ("representations.cache_hit_ratio", "ratio", "higher"),
    ("representations.cache_entries", "count", "lower"),
    ("representations.validate_rep.self_ms", "ms/op", "lower"),
    *_SEMIGROUP_METRICS,
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "ms", "lower"),
    ("cli.import_normex_self_ms", "ms", "lower"),
    ("cli.parse_spec.self_ms", "ms/op", "lower"),
    ("cli.run_command.self_ms", "ms/op", "lower"),
    ("cli.canonical_json.self_ms", "ms/op", "lower"),
    ("cli.report_bytes", "bytes/op", "lower"),
    ("constructions.make_commuting_normals.self_ms", "ms/setup", "lower"),
    ("trace.op_ms", "ms/op", "lower"),
    ("trace.unattributed_ms", "ms/op", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "lower"),
)


def _require_source() -> None:
    """Import normex from this checkout's src/ or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "normex", "__init__.py")):
        sys.stderr.write(f"error: {SRC}/normex not found: run from the root "
                         "of a normex source checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = SRC
    import normex
    if not os.path.abspath(normex.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported normex from {normex.__file__}, "
                         f"not {SRC}\n")
        sys.exit(2)


# ---------------------------------------------------------------------------
# child processes

def _wait(argv):
    """Run argv to completion; keeps the child's own peak RSS (wait4)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    import workloads as W
    return W.CliResult(proc.returncode, out, err, usage.ru_maxrss)


def _cli_ops(W, docs, reference: dict, tracer=None):
    """Closed-loop ops for the cli_cold documents.  The first report of each
    document (kept in ``reference``) is the one every later run, traced or
    not, must match byte for byte."""
    ops = []
    for doc in docs:
        argv = ["check", "all", "--input", doc.path, "--format", "machine"]

        def run(argv=argv):
            if tracer is None:
                return _wait([sys.executable, "-m", "normex", *argv])
            fd, path = tempfile.mkstemp(dir=WORK, suffix=".json")
            os.close(fd)
            try:
                res = _wait([sys.executable, CHILD, path, *argv])
                with open(path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
            finally:
                os.unlink(path)
            return res

        def check(res, doc=doc):
            ok, detail = W.check_cli_report(doc, res.code, res.out)
            if res.out != reference.setdefault(doc.name, res.out):
                return False, f"report differs from the first run of {doc.name}"
            return ok, detail + (f"; stderr {res.err[-300:]!r}"
                                 if res.err else "")

        ops.append(W.Op(f"cli {doc.name}", run, check,
                        lambda res: W.report_tuples(res.out)))
    return ops


# ---------------------------------------------------------------------------
# set-up

def setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Seeded inputs and warm-up; everything before the first timed op."""
    import workloads as W
    if workload == "sweep":
        ops = W.build_sweep(seed, smoke)
        W.warm_sweep(ops)
        return ops
    if workload == "oneshot":
        ops = W.build_oneshot(seed, workdir, smoke)
        W.warm_oneshot(ops)
        return ops
    docs = W.build_cli_docs(seed, workdir)
    # one cold run loads the interpreter, numpy and normex into page cache
    _wait([sys.executable, "-m", "normex", "check", "all", "--input",
           docs[0].path, "--format", "machine"])
    return docs


def _setup_probe(args) -> None:
    """Child mode: set up once, print seconds since the parent spawned us."""
    _require_source()
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        setup(args.workload, args.seed, args.smoke, workdir)
        elapsed = time.monotonic() - args.setup_probe
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args) -> float:
    """Set-up time of a fresh process: from spawn to ready for the first op
    (interpreter start, imports, inputs, warm-up)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0",
            "--setup-probe", repr(time.monotonic())]
    if args.smoke:
        argv.append("--smoke")
    res = _wait(argv)
    if res.code != 0:
        raise RuntimeError(f"set-up probe exited {res.code}: "
                           f"{res.err[-2000:]!r}")
    return json.loads(res.out.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the closed loop

class LoopStats:
    """Per-op samples of one closed loop.  Sample i of op j is the (latency,
    tuples) of op j in pass i."""

    def __init__(self, n_ops: int):
        self.samples: list[list[tuple[float, int]]] = [[] for _ in range(n_ops)]
        self.failures: list[tuple[str, str, str | None]] = []
        self.peak_child_kib = 0
        self.report_bytes = 0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    @property
    def busy_s(self) -> float:
        return sum(lat for s in self.samples for lat, _ in s)

    def best_decile(self) -> list[tuple[float, int]]:
        """The fastest tenth of every op's samples (at least one each).
        Interference from other tenants of a shared host only adds time and
        comes in episodes of tens of seconds; each op's fastest samples are
        the ones that episode missed."""
        keep = math.ceil(len(self.samples[0]) * BEST_SHARE)
        return [x for s in self.samples for x in sorted(s)[:keep]]

    def ops_per_s(self) -> float:
        kept = self.best_decile()
        return len(kept) / sum(lat for lat, _ in kept)


def closed_loop(ops, seconds: float, tracer=None, stats=None) -> LoopStats:
    """One caller: the next op starts after the previous one returned and
    was checked.  Whole passes over ``ops`` run until the next pass would
    end past ``seconds``, so every op has the same number of samples.
    Samples are added to ``stats`` when given."""
    import workloads as W
    stats = stats or LoopStats(len(ops))
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() + pass_s <= deadline:
        passes += 1
        pass_start = time.perf_counter()
        for op, samples in zip(ops, stats.samples):
            if tracer is not None:
                tracer.op += 1
            error = None
            start = time.perf_counter()
            try:
                result = (op.run() if tracer is None
                          else tracer.span("op", op.run))
            except Exception:
                error = traceback.format_exc(limit=4)
            latency = time.perf_counter() - start
            if error is None:
                ok, detail = op.check(result)
                samples.append((latency, op.tuples(result)))
                if isinstance(result, W.CliResult):
                    stats.peak_child_kib = max(stats.peak_child_kib,
                                               result.maxrss_kib)
                    stats.report_bytes += len(result.out)
            else:
                ok, detail = False, error
                samples.append((latency, 0))
            if not ok:
                stats.failures.append((op.label, detail, op.known_defect))
        pass_s = time.perf_counter() - pass_start
    return stats


# ---------------------------------------------------------------------------
# metrics

def end_to_end(args, stats: LoopStats, setup_times) -> dict:
    kept = stats.best_decile()
    lat_ms = [lat * 1e3 for lat, _ in kept]
    kept_s = sum(lat for lat, _ in kept)
    if args.workload == "cli_cold":
        rss_kib = stats.peak_child_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(kept) / kept_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "tuples_per_s": sum(t for _, t in kept) / kept_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }


def _cold_floor() -> dict:
    """Interpreter start, import numpy and normex's own import time, from
    fresh interpreters (medians)."""
    bare, numpy_ms, normex_ms = [], [], []
    for _ in range(FLOOR_PROBES):
        start = time.perf_counter()
        _wait([sys.executable, "-c", "pass"])
        bare.append((time.perf_counter() - start) * 1e3)
        res = _wait([sys.executable, "-X", "importtime", "-c", "import normex"])
        if res.code != 0:
            raise RuntimeError(f"import normex failed: {res.err[-2000:]!r}")
        own = 0
        for line in res.err.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[12:].split("|")
            if not self_us.strip().isdigit():
                continue
            name = name.strip()
            if name == "numpy":
                numpy_ms.append(int(cumulative_us) / 1e3)
            elif name == "normex" or name.startswith("normex."):
                own += int(self_us)
        normex_ms.append(own / 1e3)
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_numpy_ms": statistics.median(numpy_ms),
            "cli.import_normex_self_ms": statistics.median(normex_ms)}


def per_layer(tracer, setup_tracer, stats: LoopStats, untraced: LoopStats,
              floor: dict) -> dict:
    n = stats.attempted
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    op_ms = stats.busy_s * 1e3 / n
    layer_self_ms = sum(v for k, v in self_s.items() if k != "op") * 1e3 / n
    product_calls = counters.get("representations.product_of.calls", 0)
    special = {
        "representations.product_of.calls": product_calls / n,
        "representations.cache_hit_ratio": (
            counters.get("representations.product_of.hits", 0) / product_calls
            if product_calls else 0.0),
        "representations.cache_entries":
            counters.get("representations.cache_entries", 0),
        "cli.report_bytes": stats.report_bytes / n,
        "constructions.make_commuting_normals.self_ms":
            setup_tracer.self_s.get("constructions.make_commuting_normals", 0)
            * 1e3,
        "trace.op_ms": op_ms,
        "trace.unattributed_ms": op_ms - layer_self_ms,
        "trace.untraced_ops_per_s": untraced.ops_per_s(),
        "trace.traced_ops_per_s": stats.ops_per_s(),
        "trace.overhead_ops_per_s": untraced.ops_per_s() - stats.ops_per_s(),
        **floor,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-6], 0) / n
        elif name.endswith(".self_ms"):
            out[name] = self_s.get(name[:-8], 0.0) * 1e3 / n
        else:
            out[name] = counters.get(name, 0) / n
    return out


# ---------------------------------------------------------------------------
# environment stamp

def _blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "normex", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    in_use = _blas_threads_in_use()
    if in_use is not None and in_use != BLAS_THREADS:
        raise RuntimeError(f"BLAS runs {in_use} threads, expected {BLAS_THREADS}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": min(BLAS_THREADS, nproc),
        "blas_threads_reported": in_use,
        "nproc": nproc,
        "git_commit": _git_commit(),
        "normex_source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# entry point

def _print_failures(failures, attempted: int) -> None:
    print(f"fail_ratio {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    seen = set()
    for label, detail, defect in failures:
        if label in seen:
            continue
        seen.add(label)
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"  failed: {label} [{tag}]\n    {detail.strip()}")


def _untraced_run(args, workdir: str):
    import spans
    import workloads as W
    state = setup(args.workload, args.seed, args.smoke, workdir)
    ops = _cli_ops(W, state, {}) if args.workload == "cli_cold" else state
    spans.verify_untraced()
    # The set-up probes are spread over the run, one before each slice of
    # the loop, so their median samples more than one episode of the host.
    probes = 1 if args.smoke else SETUP_PROBES
    stats = LoopStats(len(ops))
    setup_times = []
    looped_s = 0.0
    for i in range(probes):
        setup_times.append(measure_setup(args))
        start = time.perf_counter()
        closed_loop(ops, (args.seconds - looped_s) / (probes - i), stats=stats)
        looped_s += time.perf_counter() - start
    spans.verify_untraced()
    return end_to_end(args, stats, setup_times), [stats]


def _traced_run(args, workdir: str, stamp: dict):
    """Traced set-up, then half of the time untraced and half traced; the
    spans go to .bench_work/trace-<workload>-seed<N>.json."""
    import spans
    import workloads as W
    setup_tracer = spans.Tracer()
    patches = spans.install(setup_tracer)
    try:
        state = setup(args.workload, args.seed, args.smoke, workdir)
    finally:
        spans.restore(patches)
    floor = _cold_floor()
    tracer = spans.Tracer()
    if args.workload == "cli_cold":
        reference = {}
        untraced_ops = _cli_ops(W, state, reference)
        traced_ops = _cli_ops(W, state, reference, tracer)
    else:
        untraced_ops = traced_ops = state
    spans.verify_untraced()
    untraced = closed_loop(untraced_ops, args.seconds / 2)
    patches = spans.install(tracer)
    try:
        stats = closed_loop(traced_ops, args.seconds / 2, tracer)
    finally:
        spans.restore(patches)
    dump = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"environment": stamp, "summary": tracer.summary(),
                   "setup_summary": setup_tracer.summary(),
                   "spans": tracer.dump()}, fh)
    metrics = per_layer(tracer, setup_tracer, stats, untraced, floor)
    return metrics, [untraced, stats]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe (smoke test)")
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe is not None:
        _setup_probe(args)
        return 0

    _require_source()
    stamp = environment(args)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.trace == 0:
            metrics, all_stats = _untraced_run(args, workdir)
            units = dict(END_TO_END)
        else:
            metrics, all_stats = _traced_run(args, workdir, stamp)
            units = {name: unit for name, unit, _ in PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in all_stats)
    failures = [f for s in all_stats for f in s.failures]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {sum(s.busy_s for s in all_stats):.3f} s busy")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    if args.trace == 0:
        kept = all_stats[0].best_decile()
        p90 = metrics["latency_p90_ms"]
        beyond = sum(1 for lat, _ in kept if lat * 1e3 > p90)
        print(f"  latency samples {attempted}; best decile {len(kept)}, "
              f"{beyond} beyond p90")
    else:
        print(f"  traced op {metrics['trace.op_ms']:.4g} ms = layer self "
              f"{metrics['trace.op_ms'] - metrics['trace.unattributed_ms']:.4g}"
              f" ms + unattributed {metrics['trace.unattributed_ms']:.4g} ms")
    _print_failures(failures, attempted)
    print(json.dumps({"environment": stamp}, sort_keys=True))
    correct = all(defect for _, _, defect in failures)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

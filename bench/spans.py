"""Outside-in tracing of normex: spans around the calls into each layer.

``install(tracer)`` replaces every binding of a traced function in every
loaded ``normex`` module (``normex.certificates.psd_check`` as well as
``normex.linalg.psd_check``) with a wrapper, so calls made between modules
and inside one are both seen; ``restore`` puts the original objects back.
No file of the package changes.

A span is (name, op id, parent span, start, end).  Self time is a span's
duration minus the part its child spans cover, computed as spans close.
Aggregates cover every span; the raw spans kept for the dump are capped so a
long run stays small in memory.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy.linalg

#: (module, function, span name): one span per call, with self time.
SPANS = (
    ("normex.linalg", "psd_check", "linalg.psd_check"),
    ("normex.linalg", "operator_norm", "linalg.operator_norm"),
    ("normex.linalg", "block_assemble", "linalg.block_assemble"),
    ("normex.certificates", "box_operator", "certificates.box_operator"),
    ("normex.certificates", "brehmer_sum", "certificates.brehmer_sum"),
    ("normex.certificates", "generator_certificate",
     "certificates.generator_certificate"),
    ("normex.certificates", "sznagy_check", "certificates.sznagy_check"),
    ("normex.certificates", "regularity_check",
     "certificates.regularity_check"),
    ("normex.representations", "eval_rep", "representations.eval_rep"),
    ("normex.representations", "star_kernel", "representations.star_kernel"),
    ("normex.representations", "validate_rep",
     "representations.validate_rep"),
    ("normex.semigroups", "factorize", "semigroups.factorize"),
    ("normex.semigroups", "add", "semigroups.add"),
    ("normex.semigroups", "contains", "semigroups.contains"),
    ("normex.semigroups", "meet_join", "semigroups.meet_join"),
    ("normex.semigroups", "element", "semigroups.element"),
    ("normex.cli", "parse_spec", "cli.parse_spec"),
    ("normex.cli", "run_command", "cli.run_command"),
    ("normex.cli", "canonical_json", "cli.canonical_json"),
    ("normex.constructions", "make_commuting_normals",
     "constructions.make_commuting_normals"),
)

#: Raw spans kept for the dump; aggregates are exact beyond it.
MAX_RAW_SPANS = 200_000

_MARK = "__bench_wrapper__"


class Tracer:
    """Span stack, per-name aggregates and counters for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [span id, child seconds]
        self.op = 0
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._next_span = 0
        self.raw_name = array("i")
        self.raw_op = array("i")
        self.raw_parent = array("i")
        self.raw_start = array("d")
        self.raw_end = array("d")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, args=(), kwargs=None):
        """Call ``fn`` inside a span named ``name``."""
        span_id = self._next_span
        self._next_span += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - start
            if self.stack:
                self.stack[-1][1] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            if len(self.raw_start) < MAX_RAW_SPANS:
                nid = self._name_id.get(name)
                if nid is None:
                    nid = self._name_id[name] = len(self.names)
                    self.names.append(name)
                self.raw_name.append(nid)
                self.raw_op.append(self.op)
                self.raw_parent.append(parent)
                self.raw_start.append(start)
                self.raw_end.append(end)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans_recorded": self._next_span,
            "spans_kept": len(self.raw_start),
            "columns": ["name", "op", "parent", "start_s", "end_s"],
            "spans": [list(row) for row in zip(
                self.raw_name, self.raw_op, self.raw_parent,
                self.raw_start, self.raw_end)],
        }

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "counters": self.counters}

    def merge(self, summary: dict) -> None:
        """Add another tracer's summary (a traced child process)."""
        for key, into in (("calls", self.calls), ("self_s", self.self_s),
                          ("total_s", self.total_s)):
            for name, value in summary[key].items():
                into[name] = into.get(name, 0) + value
        for name, value in summary["counters"].items():
            if name == "representations.cache_entries":
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.count(name, value)


# ---------------------------------------------------------------------------
# per-function hooks: counts computed from arguments or results

def _box_terms(tracer, args, kwargs, result):
    degrees = kwargs.get("degrees", args[1] if len(args) > 1 else ())
    tracer.count("certificates.box_terms", math.prod(d + 1 for d in degrees))


def _subset_terms(tracer, args, kwargs, result):
    letters = kwargs.get("letters", args[1] if len(args) > 1 else ())
    tracer.count("certificates.subset_terms", 2 ** len(letters))


def _tuples(tracer, args, kwargs, result):
    tracer.count("certificates.tuples_checked",
                 result.parameters.get("tuples_checked", 0))


_AFTER = {
    "certificates.box_operator": _box_terms,
    "certificates.brehmer_sum": _subset_terms,
    "certificates.generator_certificate": _tuples,
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    after = _AFTER.get(name)

    def wrapper(*args, **kwargs):
        result = tracer.span(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, fn)
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _product_of_wrapper(tracer: Tracer, fn):
    """Counts calls and Representation._cache growth; no span, so the time
    stays with the caller (eval_rep)."""
    def wrapper(t, fact):
        before = len(t._cache)
        result = fn(t, fact)
        size = len(t._cache)
        tracer.count("representations.product_of.calls")
        if size == before:
            tracer.count("representations.product_of.hits")
        entries = tracer.counters.get("representations.cache_entries", 0)
        tracer.counters["representations.cache_entries"] = max(entries, size)
        return result

    setattr(wrapper, _MARK, fn)
    return wrapper


def _eig_wrapper(tracer: Tracer, fn):
    """Counts eigensolves made inside a traced normex call (not the
    benchmark's own) and their computed work n^3."""
    def wrapper(a, *args, **kwargs):
        if tracer.stack:
            n = a.shape[-1]
            tracer.count("linalg.eigensolves")
            tracer.count("linalg.eig_work_n3", n ** 3)
        return fn(a, *args, **kwargs)

    setattr(wrapper, _MARK, fn)
    return wrapper


# ---------------------------------------------------------------------------
# installing and restoring bindings

def _normex_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "normex" or name.startswith("normex."))]


def _targets():
    """(original function, wrapper factory) for everything traced."""
    out = []
    for modname, fname, name in SPANS:
        fn = getattr(sys.modules[modname], fname)
        out.append((fn, lambda tr, fn=fn, name=name: _span_wrapper(tr, name, fn)))
    prod = sys.modules["normex.representations"].product_of
    out.append((prod, lambda tr, fn=prod: _product_of_wrapper(tr, fn)))
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Bind wrappers in place of every traced function; returns the patch
    list that ``restore`` undoes."""
    verify_untraced()
    patches = []
    modules = _normex_modules()
    for fn, factory in _targets():
        wrapper = factory(tracer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, fn))
    for attr in ("eigvalsh", "eigh"):
        fn = getattr(numpy.linalg, attr)
        setattr(numpy.linalg, attr, _eig_wrapper(tracer, fn))
        patches.append((numpy.linalg, attr, fn))
    return patches


def restore(patches: list[tuple]) -> None:
    for mod, attr, fn in reversed(patches):
        setattr(mod, attr, fn)
    verify_untraced()


def verify_untraced() -> None:
    """Raise unless every binding of a traced function in every normex
    module, and numpy.linalg's eigensolvers, is the original object."""
    leaks = [f"{mod.__name__}.{attr}"
             for mod in _normex_modules() + [numpy.linalg]
             for attr, value in vars(mod).items()
             if callable(value) and hasattr(value, _MARK)]
    if leaks:
        raise RuntimeError(f"tracing wrappers still bound: {leaks}")

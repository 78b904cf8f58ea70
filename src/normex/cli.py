"""Command-line surface: input schema, batch certificate runs, reports.

Input documents are JSON: a descriptor section, a representation section
(complex entries as [re, im] pairs, matrices as row-major nested arrays) and
an optional run section.  Machine reports serialize deterministically —
sorted keys, floats at 17 significant digits — so identical inputs, flags and
seed produce byte-identical output.  Exit codes: 0 all certificates passed,
1 some certificate failed (report still emitted), 2 input/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial

import numpy as np

from . import __version__
from . import semigroups as sg
from .certificates import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_SUBSET_CAP,
    CertificateReport,
    SzNagyConfig,
    _bound_constant_ok,
    brehmer_certificate,
    extension_residual,
    generator_certificate,
    regularity_check,
    sznagy_check,
)
from .constructions import make_commuting_normals, make_gallery
from .errors import InputError, NormexError
from .linalg import DEFAULT_PSD_TOL, largest, operator_norm
from .representations import (
    InvolutionPoint,
    Representation,
    make_representation,
    validate_rep,
)
from .semigroups import SemigroupDescriptor

# ---------------------------------------------------------------------------
# deterministic serialization

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("cannot serialize non-finite numbers")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """JSON with sorted keys and fixed 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(
            f"{json.dumps(str(k), ensure_ascii=True)}:{canonical_json(v)}"
            for k, v in items
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(obj, path: str) -> list[list[complex]]:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{path}: matrix must be a non-empty nested array")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise InputError(f"{path}[{i}]: ragged or malformed matrix row")
        width = len(row)
        out = []
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(v, (int, float))
                               and not isinstance(v, bool) for v in entry)):
                raise InputError(
                    f"{path}[{i}][{j}]: complex entries are [re, im] pairs"
                )
            out.append(complex(entry[0], entry[1]))
        rows.append(out)
    return rows


def _number(value, path: str, kind=int, low=None, high=None):
    """Read an int, or a float, from a JSON value or the text of a flag.
    Floats are tolerances and constants, so they must be finite and > 0;
    ints must lie in [``low``, ``high``], where given.  Anything else -- a
    boolean, 2.7 for an int, NaN, text that is no number -- raises
    InputError naming ``path``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
        if kind is int and isinstance(value, float) and out != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{path}: expected {what}, got {value!r}") from None
    if kind is float and not (math.isfinite(out) and out > 0):
        raise InputError(f"{path}: must be finite and > 0, got {value!r}")
    if low is not None and out < low:
        raise InputError(f"{path}: must be >= {low}, got {value!r}")
    if high is not None and out > high:
        raise InputError(f"{path}: must be <= {high}, got {value!r}")
    return out


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: must be a list")
    return value


def _each(read):
    """Reader of a list whose items ``read`` reads, each at its path[i]."""
    return lambda items, path: tuple(
        read(x, f"{path}[{i}]") for i, x in enumerate(_list(items, path)))


# ---------------------------------------------------------------------------
# input schema

@dataclass
class RunConfig:
    max_degree: int = DEFAULT_MAX_DEGREE
    subset: tuple = ()
    tol: float = DEFAULT_PSD_TOL
    seed: int = 0
    bound_constant: float = 1.0
    subspace_dim: int | None = None
    echo: dict = field(default_factory=dict)


def descriptor_to_json(d: SemigroupDescriptor) -> dict:
    """The record's fields, kind name included, as nested JSON objects."""
    return asdict(d, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})


def descriptor_from_json(obj, path: str) -> SemigroupDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{path}: descriptor needs a 'kind' field")
    kind = obj["kind"]
    record = sg.KINDS.get(kind) if isinstance(kind, str) else None
    if record is None:
        raise InputError(f"{path}.kind: unknown kind {kind!r}")
    params = {}
    for f in fields(record):
        if f.init:  # every field but the kind name
            read, default = _DESCRIPTOR_FIELDS[f.name]
            params[f.name] = read(obj.get(f.name, default), f"{path}.{f.name}")
    try:
        return record(**params)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


#: each record field's reader (JSON value, its path) and the value it reads
#: when the key is absent
_DESCRIPTOR_FIELDS = {
    "k": (_number, 1),
    "gaps": (_each(_number), []),
    "factors": (_each(descriptor_from_json), []),
}


def _generator_label_map(d: SemigroupDescriptor) -> dict[str, int]:
    """Relation keys: numerical generators are named by their value, all
    other kinds by 1-based position."""
    if isinstance(d, sg.Numerical):
        return {str(g.coords): i for i, g in enumerate(d.generators)}
    return {str(i + 1): i for i in range(d.generator_count)}


def relations_to_json(d: SemigroupDescriptor, relations) -> list:
    inv = {i: lbl for lbl, i in _generator_label_map(d).items()}
    out = []
    for lhs, rhs in relations:
        out.append([{inv[i]: m for i, m in side.terms} for side in (lhs, rhs)])
    return out


def _letter(x, path: str):
    """A Brehmer letter: an int, or a [generator, copy] pair."""
    return (tuple(_number(v, path) for v in x) if isinstance(x, list)
            else _number(x, path))


def _relation(labels: dict, pair, path: str) -> tuple[dict, dict]:
    """A relation [lhs, rhs]: each side maps generator labels to counts."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise InputError(f"{path}: must be a two-sided pair")

    def term(label, mult):
        if label not in labels:
            raise InputError(f"{path}: unknown generator label {label!r} "
                             f"(known: {sorted(labels)})")
        return labels[label], _number(mult, path, low=0)

    def side(terms):
        if not isinstance(terms, dict):
            raise InputError(f"{path}: sides are label->count maps")
        return dict(term(*item) for item in terms.items())

    return side(pair[0]), side(pair[1])


def _run_config(run: dict, flags: dict, dim: int) -> RunConfig:
    """The run section with the command-line flags applied over it; each
    value is read once and located at its flag or its run.* key.  The
    subspace dimension, at most ``dim``, defaults to max(1, dim - 1)."""
    def source(name):
        if flags.get(name) is not None:
            return flags[name], "--" + name.replace("_", "-")
        return run.get(name), f"run.{name}"

    def read(name, default, *how):  # how: kind, low, high for _number
        value, where = source(name)
        return default if value is None else _number(value, where, *how)

    letters, where = source("subset")
    cfg = RunConfig(
        max_degree=read("max_degree", DEFAULT_MAX_DEGREE, int, 0),
        subset=() if letters is None else _each(_letter)(letters, where),
        tol=read("tol", DEFAULT_PSD_TOL, float),
        seed=read("seed", 0),
        bound_constant=read("bound_constant", 1.0, float),
        subspace_dim=read("subspace_dim", max(1, dim - 1), int, 0, dim),
    )
    if not _bound_constant_ok(cfg.bound_constant):
        raise InputError(f"{source('bound_constant')[1]}: must have a positive "
                         f"finite square, got {cfg.bound_constant!r}")
    return cfg


def parse_spec(path: str, flags: dict | None = None):
    """Parse and fully validate an input document.

    Returns (descriptor, representation, run config); the config echo holds
    the validation residuals and any schema warnings.  ``flags`` maps run
    fields (max_degree, subset, tol, seed, subspace_dim) to values given on
    the command line; they replace the document's before validation, so the
    validation runs with the seed the report states.  Parse errors carry the
    offending location; semantic failures carry the residual table.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}:{e.lineno}:{e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")

    if "descriptor" not in doc:
        raise InputError(f"{path}: missing 'descriptor' section")
    d = descriptor_from_json(doc["descriptor"], "descriptor")

    rep_obj = doc.get("representation")
    if not isinstance(rep_obj, dict):
        raise InputError(f"{path}: missing 'representation' section")
    images = _each(matrix_from_json)(rep_obj.get("generators"),
                                     "representation.generators")
    dim = rep_obj.get("dimension")
    if dim is not None and images and len(images[0]) != _number(
            dim, "representation.dimension"):
        raise InputError(
            f"representation.dimension: declared {dim}, "
            f"matrices have {len(images[0])}"
        )

    warnings = []
    rel_objs = rep_obj.get("relations")
    if rel_objs is None:
        if not d.lattice_ordered:  # the generators satisfy relations
            warnings.append(
                "no relations declared: homomorphism property is sampled only"
            )
        rel_objs = []
    # the map has a key per generator: none is built without relations
    labels = _generator_label_map(d) if rel_objs else {}
    relations = _each(partial(_relation, labels))(
        rel_objs, "representation.relations")

    rep = make_representation(d, images, relations)

    run_obj = doc.get("run", {})
    if not isinstance(run_obj, dict):
        raise InputError("run: must be an object")
    cfg = _run_config(run_obj, flags or {}, rep.dimension)

    verdict = validate_rep(rep, seed=cfg.seed)
    if not verdict.ok:
        table = "; ".join(
            f"{c.name}: {c.detail}" for c in verdict.failures
        )
        raise InputError(f"representation failed validation: {table}")
    cfg.echo = {"validation": verdict.as_dict(), "warnings": warnings}
    return d, rep, cfg


# ---------------------------------------------------------------------------
# report emission

def _run_report(reports, cfg: RunConfig) -> dict:
    """The machine report of a run: the certificate reports, the settings
    they ran with, and exit status 1 when any of them failed."""
    return {
        "environment": {
            "version": __version__,
            "tol": cfg.tol,
            "max_degree": cfg.max_degree,
            "subset_cap": DEFAULT_SUBSET_CAP,
            "seed": cfg.seed,
            "bound_constant": cfg.bound_constant,
            "echo": cfg.echo,
        },
        "reports": [r.as_dict() for r in reports],
        "exit_status": int(any(r.verdict == "fail" for r in reports)),
    }


def _human_table(run: dict) -> str:
    lines = [
        f"{'condition':<16} {'verdict':<14} {'margin':<24} witness",
        "-" * 72,
    ]
    for rep in run["reports"]:
        margin = "" if rep["margin"] is None else _format_float(rep["margin"])
        witness = ("" if rep["witness"] is None
                   else canonical_json(rep["witness"]))
        lines.append(
            f"{rep['condition']:<16} {rep['verdict']:<14} {margin:<24} {witness}"
        )
        for note in rep["notes"]:
            lines.append(f"{'':<16} note: {note}")
    lines.append("-" * 72)
    lines.append(f"exit status {run['exit_status']}")
    return "\n".join(lines)


def _emit(machine: str, human: str | None, path: str | None) -> None:
    """Write ``human`` (the machine JSON when it is None) to stdout and, when
    a path is given, the machine JSON to that path."""
    sys.stdout.write((machine if human is None else human) + "\n")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(machine + "\n")
        except OSError as e:
            raise InputError(f"{path}: {e.strerror or e}") from None


# ---------------------------------------------------------------------------
# condition dispatch

def _default_subset(d: SemigroupDescriptor, rep: Representation) -> tuple:
    if isinstance(d, sg.FreeAbelian):
        return tuple(range(1, d.k + 1))
    return tuple((i, 1) for i in range(1, len(rep.generator_images) + 1))


def _default_regular_args(d: SemigroupDescriptor):
    e = sg.unit(d)
    if isinstance(d, sg.FreeAbelian) and d.k >= 2:
        e1 = d.generators[0]
        ps = [e, e1, sg.add(d, e1, e1)]
        return ps, d.generators[1]
    return [e], e


def _default_sznagy_config(d: SemigroupDescriptor, cfg: RunConfig) -> SzNagyConfig:
    e = sg.unit(d)
    points = [InvolutionPoint(e, e)]
    points += [InvolutionPoint(e, g) for g in d.generators]
    return SzNagyConfig(tuple(points), InvolutionPoint(e, d.generators[0]),
                        cfg.bound_constant)


def _extension_report(rep: Representation, cfg: RunConfig) -> CertificateReport:
    k = cfg.subspace_dim
    pairs = [list(extension_residual(m, k)) for m in rep.generator_images]
    worst, bad = largest(enumerate(
        lhs / max(1.0, operator_norm(m) ** 2)
        for m, (lhs, _) in zip(rep.generator_images, pairs)))
    ok = worst <= cfg.tol
    return CertificateReport(
        condition="extension",
        parameters={"subspace_dim": k, "residual_pairs": pairs},
        verdict="pass" if ok else "fail",
        margin=-worst,
        witness=None if ok else {"generator": bad, "residual": worst},
        tolerances={"tol": cfg.tol},
        notes=("residual pairs are (invariance defect, lower-block energy); "
               "they agree identically",),
    )


#: each condition's report from (descriptor, representation, run config),
#: in the order ``check all`` runs them
CONDITIONS = {
    "athavale": lambda d, rep, cfg: generator_certificate(
        rep, cfg.max_degree, cfg.tol),
    "brehmer": lambda d, rep, cfg: brehmer_certificate(
        rep, cfg.subset or _default_subset(d, rep), cfg.tol),
    "regular": lambda d, rep, cfg: regularity_check(
        rep, *_default_regular_args(d), cfg.tol),
    "sznagy": lambda d, rep, cfg: sznagy_check(
        rep, _default_sznagy_config(d, cfg), cfg.tol),
    "extension": lambda d, rep, cfg: _extension_report(rep, cfg),
}


# ---------------------------------------------------------------------------
# argument parsing and entry point

class _Parser(argparse.ArgumentParser):
    """argparse raising its usage errors as InputError, for ``error: ``."""

    def error(self, message):
        raise InputError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between
    calls, so every run_command reuses it."""
    parser = _Parser(
        prog="normex",
        description="certificate checks for commuting contraction semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--max-degree", default=None)
        p.add_argument("--subset", default=None,
                       help="comma-separated letters, e.g. 1,2 or 1:1,1:2")
        p.add_argument("--tol", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--subspace-dim", default=None)
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        p.add_argument("--out", default=None)

    check = sub.add_parser("check", help="run certificates against an input spec")
    check.add_argument("condition", choices=(*CONDITIONS, "all"))
    common(check)

    gallery = sub.add_parser("gallery", help="emit a named example")
    gallery.add_argument("name")
    gallery.add_argument("--dim", default=None)
    gallery.add_argument("--k", default=None)
    gallery.add_argument("--seed", default=None)
    gallery.add_argument("--lam", default=None)
    gallery.add_argument("--weights", default=None,
                         help="comma-separated shift weights")
    gallery.add_argument("--format", choices=("human", "machine"),
                         default="human")
    gallery.add_argument("--out", default=None)

    val = sub.add_parser("validate", help="parse and validate an input spec")
    common(val)
    return parser


def _parse_subset(raw: str) -> list:
    """--subset text spelled as run.subset: 1,2 -> ["1", "2"] and
    1:1,1:2 -> [["1", "1"], ["1", "2"]]; _letter reads the numbers."""
    pieces = (piece.strip() for piece in raw.split(","))
    return [p.split(":", 1) if ":" in p else p for p in pieces if p]


def _seed(args, low=None) -> int | None:
    """--seed, else NORMEX_SEED, read at its own location; None if neither."""
    value, where = ((args.seed, "--seed") if args.seed is not None
                    else (os.environ.get("NORMEX_SEED"), "NORMEX_SEED"))
    return None if value is None else _number(value, where, low=low)


def _in_disc(text: str, path: str) -> float:
    """Read a real number in [-1, 1] from the text of a flag."""
    try:
        x = float(text)
    except ValueError:
        raise InputError(f"{path}: expected a number, got {text!r}") from None
    if not abs(x) <= 1:  # NaN fails too
        raise InputError(f"{path}: must satisfy |x| <= 1, got {x!r}")
    return x


def _gallery_document(name: str, args) -> dict:
    # every value given is read, whichever case uses it
    seed = _seed(args, low=0) or 0  # numpy's generators take no negative seed
    sizes = {flag: _number(value, "--" + flag) for flag, value in
             (("dim", args.dim), ("k", args.k)) if value is not None}
    lam = 0.5 if args.lam is None else _in_disc(args.lam, "--lam")
    weights = [_in_disc(w, f"--weights[{i}]")
               for i, w in enumerate(args.weights.split(","))
               ] if args.weights else []
    if name == "jordan":
        m = make_gallery("jordan", dim=sizes.get("dim", 2))
        return {"matrix": matrix_to_json(m)}
    if name == "truncated_shift":
        if not weights:
            raise InputError("truncated_shift requires --weights")
        m = make_gallery("truncated_shift", weights=weights)
        return {"matrix": matrix_to_json(m)}
    if name == "neil_scalar":
        rep = make_gallery("neil_scalar", lam=lam)
    elif name == "neil_matrix":
        a = make_commuting_normals(seed, sizes.get("dim", 2), 1)[0]
        rep = make_gallery("neil_matrix", a=a)
    elif name == "unitary_rep":
        k, dim = sizes.get("k", 2), sizes.get("dim", 3)
        if k < 1 or dim < 1:
            raise InputError("unitary_rep needs --k and --dim >= 1")
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, (k, dim))
        rep = make_gallery("unitary_rep", k=k, angles=angles)
    elif name == "normal_pair":
        rep = make_gallery("normal_pair", seed=seed, dim=sizes.get("dim", 4))
    else:
        raise InputError(f"unknown gallery case {name!r}")
    return {
        "descriptor": descriptor_to_json(rep.descriptor),
        "representation": {
            "dimension": rep.dimension,
            "generators": [matrix_to_json(m) for m in rep.generator_images],
            "relations": relations_to_json(rep.descriptor, rep.relations),
        },
        "run": {"seed": seed},
    }


def run_command(argv) -> int:
    """Execute a CLI invocation; returns the exit code (0 pass / 1 some
    certificate failed / 2 input or configuration error)."""
    try:
        args = _build_parser().parse_args(list(argv))
        if args.command == "gallery":
            doc = _gallery_document(args.name, args)
            table = partial(json.dumps, indent=2, sort_keys=True)
        else:
            d, rep, cfg = parse_spec(args.input, {
                "max_degree": args.max_degree,
                "subset": (None if args.subset is None
                           else _parse_subset(args.subset)),
                "tol": args.tol,
                "seed": _seed(args),
                "subspace_dim": args.subspace_dim,
            })
            name = getattr(args, "condition", None)  # validate runs none
            names = {None: (), "all": CONDITIONS}.get(name, (name,))
            doc = _run_report([CONDITIONS[n](d, rep, cfg) for n in names], cfg)
            table = _human_table
        _emit(canonical_json(doc),
              None if args.format == "machine" else table(doc), args.out)
        return doc.get("exit_status", 0)  # a gallery document has none
    except SystemExit:  # --help printed the usage; errors raise InputError
        return 0
    except (NormexError, MemoryError) as e:
        sys.stderr.write(f"error: {str(e) or 'out of memory'}\n")
        return 2


def main(argv=None) -> None:
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))

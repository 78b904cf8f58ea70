"""The public surface of the package: the names ``import normex`` exports.

The list is pinned so that a name is added to or dropped from the surface
only on purpose; everything else stays importable from its module.  No
module imports a name it never uses."""

import ast
import contextlib
import io
import random
import types
from pathlib import Path

import numpy as np
import pytest

import normex

SOURCE = Path(normex.__file__).parent

PUBLIC_NAMES = [
    "BlockDecomposition", "CapExceededError", "CertificateReport",
    "ConvexWeights", "DEFAULT_PSD_TOL", "DilationFamily", "Factorization",
    "GroupElement", "InputError", "InvolutionPoint", "MembershipError",
    "NormexError", "NotHermitianError", "NotPsdError",
    "PsdVerdict", "Representation", "SemigroupDescriptor", "SzNagyConfig",
    "UnsupportedStructureError", "ValidationCheck", "ValidationVerdict",
    "add", "adjoint", "agler_certificate", "athavale_certificate",
    "athavale_vs_brehmer", "block_assemble", "block_decompose",
    "box_operator", "brehmer_certificate", "brehmer_sum", "canonical_json",
    "cmatrix", "contains", "convex_average", "convex_weights",
    "degree_tuple", "descriptor_from_json", "descriptor_to_json", "element",
    "eval_rep", "extension_residual", "factorization", "factorize",
    "free_abelian", "generator_certificate", "hermitian_eig", "identity",
    "involution_point", "kolmogorov_factor", "leq",
    "loewner_leq", "make_commuting_normals", "make_dilation_family",
    "make_gallery", "make_orthogonal_defect_family",
    "make_representation", "matrix_from_json", "matrix_to_json",
    "meet_join", "neg", "numerical", "operator_norm", "parse_spec",
    "point_mul", "pos_neg_parts", "product", "product_of", "psd_check",
    "regularity_check", "run_command", "sample_group",
    "sample_member", "star_kernel", "sub", "sznagy_check", "tilde_eval",
    "uniform_weights", "unit", "validate_rep",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(normex).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def _imported_names(tree):
    """Each name an import statement binds, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("module", sorted(
    p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(module):
    # __init__ is left out: its imports are the pinned surface above
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def _private_definitions(tree):
    """(name, statement) of each private function, class and constant a
    module defines at its top level; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.endswith("__"))


def _references(node):
    """Each name that ``node`` reads, bare or as an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_name_is_used_in_the_package():
    # a private helper, class or constant that only its own definition
    # (or a test) reads is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SOURCE.glob("*.py"))}
    reads = [(node, set(_references(node)))
             for tree in trees.values() for node in tree.body]
    defined = [(module, name, node) for module, tree in trees.items()
               for name, node in _private_definitions(tree)]
    assert len(defined) > 50
    assert [(module, name) for module, name, node in defined
            if not any(name in names for other, names in reads
                       if other is not node)] == []


#: the functions that may call each LAPACK factorization: every PSD
#: verdict, norm and spectrum of the package comes from one of them, so a
#: second copy of the PSD rule or of a norm cannot grow beside them; and
#: those that may call the stacked PSD rule or a Delta step: the generator
#: sweep has one walk that steps boxes and one judge that judges them
SOLVER_CALLERS = {
    "eigvalsh": {("linalg.py", "operator_norms"), ("linalg.py", "_psd_stack")},
    "eigh": {("linalg.py", "hermitian_eig")},
    "cholesky": {("linalg.py", "_cholesky_clears")},
    "_psd_stack": {("linalg.py", "psd_check"), ("certificates.py", "_judge")},
    "_delta": {("certificates.py", "_defect_map"),
               ("certificates.py", "_chain"), ("certificates.py", "_walk")},
    # the box and subset sums: the generator sweep re-judges no box at
    # full order
    "_defect_map": {("certificates.py", "box_operator"),
                    ("certificates.py", "brehmer_sum")},
}


#: the functions that may call the sweep's walk, judge and closed form:
#: the direct-sum split runs inside ``generator_certificate`` and adds no
#: second sweep driver beside it
SWEEP_CALLERS = {
    name: {("certificates.py", "generator_certificate")}
    for name in ("_walk", "_judge", "_closed_form")
}


#: the functions that may call the precondition gate's two scans: the
#: sweep's routes show that a tuple would pass the gate, and do not
#: replace it, so no second gate grows beside ``_gate`` (and
#: ``validate_rep``, which reports contractivity on its own)
GATE_CALLERS = {
    "norm_excess": {("certificates.py", "_gate"),
                    ("representations.py", "validate_rep")},
    "_commutators": {("certificates.py", "_gate"),
                     ("linalg.py", "commutator_residual")},
}

def _solver_callers(tree, allowed=SOLVER_CALLERS):
    """(solver, outermost enclosing function, line) of each call of a
    solver in ``allowed``."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if where is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in allowed:
                    yield name, where, child.lineno
            yield from visit(child, inner)
    yield from visit(tree, None)


def _stray_calls(solvers, allowed=SOLVER_CALLERS):
    """Each call of one of ``solvers`` outside its allowed functions, and
    each allowed (solver, module, function) that makes no such call, so
    that a stale entry cannot hide."""
    calls = [(name, p.name, where, line) for p in sorted(SOURCE.glob("*.py"))
             for name, where, line in _solver_callers(
                 ast.parse(p.read_text(encoding="utf-8")), allowed)
             if name in solvers]
    made = {c[:3] for c in calls}
    return ([c for c in calls if (c[1], c[2]) not in allowed[c[0]]],
            sorted((name, *caller) for name in solvers
                   for caller in allowed[name]
                   if (name, *caller) not in made))


def test_every_eigensolve_is_in_the_linalg_kernel():
    assert _stray_calls({"eigvalsh", "eigh"}) == ([], [])


def test_one_walk_steps_and_one_judge_judges():
    assert _stray_calls({"_psd_stack", "_delta"}) == ([], [])


def test_the_sweep_rejudges_nothing():
    # only the box and subset sums form a full-order defect map, and the
    # generator sweep (its split included) calls neither them nor the
    # one-matrix PSD rule: a split that cannot decide gives way to the
    # whole walk
    assert _stray_calls({"_defect_map"}) == ([], [])
    tree = ast.parse((SOURCE / "certificates.py").read_text(encoding="utf-8"))
    assert [call for call in _solver_callers(tree, {
        "_defect_map", "box_operator", "brehmer_sum", "psd_check"})
        if call[1] == "generator_certificate"] == []


@pytest.mark.parametrize("name", sorted(SWEEP_CALLERS))
def test_one_sweep_driver(name):
    assert _stray_calls({name}, SWEEP_CALLERS) == ([], [])


@pytest.mark.parametrize("name", sorted(GATE_CALLERS))
def test_one_gate(name):
    assert _stray_calls({name}, GATE_CALLERS) == ([], [])

def _kind_comparisons(tree):
    """Line of each comparison with an operand ``<expr>.kind``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "kind"
                for x in (node.left, *node.comparators)):
            yield node.lineno


def test_no_kind_chains_outside_the_records():
    # each semigroup kind is named once, by its record class: code that
    # branches on a kind asks isinstance, not ``d.kind == ...``
    found = [(p.name, line) for p in sorted(SOURCE.glob("*.py"))
             if p.name != "semigroups.py"
             for line in _kind_comparisons(
                 ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_the_cholesky_screen_is_inside_the_psd_rule():
    # one helper holds the screen that clears contractions below norm 1
    # (norm_excess): no other function factors a matrix to decide
    # positivity
    assert _stray_calls({"cholesky"}) == ([], [])


#: the functions that may read or write ``Representation._cache``: one
#: helper keys every image by its coordinate, so a second cache (by
#: factorization, say) cannot grow beside it
CACHE_USERS = {("representations.py", "_cached")}


def _cache_uses(tree):
    """(enclosing function, line) of each ``<expr>._cache``."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Attribute) and child.attr == "_cache":
                yield where, child.lineno
            yield from visit(child, inner)
    yield from visit(tree, None)


def test_the_image_cache_has_one_helper():
    uses = [(p.name, where, line) for p in sorted(SOURCE.glob("*.py"))
            for where, line in _cache_uses(
                ast.parse(p.read_text(encoding="utf-8")))]
    assert uses and [u for u in uses if u[:2] not in CACHE_USERS] == []


def _exported_calls(tmp_path):
    """One call of each exported function, by name."""
    d = normex.free_abelian(2)
    t = normex.make_representation(d, [np.diag([0.5, 0.25]),
                                       np.diag([0.3, 0.2])])
    m, mats = normex.cmatrix(np.diag([0.5, 0.25])), t.generator_images
    g, h = normex.element(d, (1, 2)), normex.element(d, (2, 0))
    pt = normex.involution_point(d, (1, 0), (0, 1))
    family = normex.make_orthogonal_defect_family(0.5, 3)
    doc = str(tmp_path / "neil.json")
    with contextlib.redirect_stdout(io.StringIO()):
        normex.run_command(["gallery", "neil_scalar", "--out", doc])
    return {
        "add": lambda: normex.add(d, g, h),
        "adjoint": lambda: normex.adjoint(m),
        "agler_certificate": lambda: normex.agler_certificate(m, 3),
        "athavale_certificate":
            lambda: normex.athavale_certificate(mats, (2, 1)),
        "athavale_vs_brehmer":
            lambda: normex.athavale_vs_brehmer(mats, (2, 1)),
        "block_assemble": lambda: normex.block_assemble([[m, m], [m, m]]),
        "block_decompose": lambda: normex.block_decompose(m, 1),
        "box_operator": lambda: normex.box_operator(mats, (2, 1)),
        "brehmer_certificate":
            lambda: normex.brehmer_certificate(t, [(1, 1), (2, 1)]),
        "brehmer_sum": lambda: normex.brehmer_sum(mats, [0, 1], 2),
        "canonical_json": lambda: normex.canonical_json({"a": 1.5}),
        "cmatrix": lambda: normex.cmatrix([[1, 2], [3, 4]]),
        "contains": lambda: normex.contains(d, g),
        "convex_average": lambda: normex.convex_average(
            family, normex.uniform_weights(len(family.members))),
        "convex_weights": lambda: normex.convex_weights([0.5, 0.5]),
        "degree_tuple": lambda: normex.degree_tuple([1, 2]),
        "descriptor_from_json": lambda: normex.descriptor_from_json(
            {"kind": "free_abelian", "k": 2}, "descriptor"),
        "descriptor_to_json": lambda: normex.descriptor_to_json(d),
        "element": lambda: normex.element(d, (1, 1)),
        "eval_rep": lambda: normex.eval_rep(t, g),
        "extension_residual": lambda: normex.extension_residual(m, 1),
        "factorization": lambda: normex.factorization({0: 2}),
        "factorize": lambda: normex.factorize(d, g),
        "free_abelian": lambda: normex.free_abelian(2),
        "generator_certificate":
            lambda: normex.generator_certificate(t, 3),
        "hermitian_eig": lambda: normex.hermitian_eig(m),
        "identity": lambda: normex.identity(2),
        "involution_point":
            lambda: normex.involution_point(d, (1, 0), (0, 1)),
        "kolmogorov_factor":
            lambda: normex.kolmogorov_factor([[normex.identity(2)]]),
        "leq": lambda: normex.leq(d, g, h),
        "loewner_leq": lambda: normex.loewner_leq(m, normex.identity(2)),
        "make_commuting_normals":
            lambda: normex.make_commuting_normals(0, 3, 2),
        "make_dilation_family":
            lambda: normex.make_dilation_family(family.members, 2, 1),
        "make_gallery": lambda: [normex.make_gallery("jordan", dim=2),
                                 normex.make_gallery("normal_pair", seed=0,
                                                     dim=3)],
        "make_orthogonal_defect_family":
            lambda: normex.make_orthogonal_defect_family(0.5, 3),
        "make_representation":
            lambda: normex.make_representation(d, [m, m]),
        "matrix_from_json":
            lambda: normex.matrix_from_json([[[1, 0]]], "matrix"),
        "matrix_to_json": lambda: normex.matrix_to_json(m),
        "meet_join": lambda: normex.meet_join(d, g, h),
        "neg": lambda: normex.neg(d, g),
        "numerical": lambda: normex.numerical((1,)),
        "operator_norm": lambda: normex.operator_norm(m),
        "parse_spec": lambda: normex.parse_spec(doc),
        "point_mul": lambda: normex.point_mul(d, pt, pt),
        "pos_neg_parts":
            lambda: normex.pos_neg_parts(d, normex.sub(d, g, h)),
        "product": lambda: normex.product(d, normex.numerical(())),
        "product_of":
            lambda: normex.product_of(t, normex.factorization({0: 2})),
        "psd_check": lambda: normex.psd_check(m),
        "regularity_check":
            lambda: normex.regularity_check(t, [(0, 0), (1, 0)], (0, 1)),
        "run_command": lambda: normex.run_command(
            ["gallery", "jordan", "--out", str(tmp_path / "j.json")]),
        "sample_group": lambda: normex.sample_group(d, random.Random(0)),
        "sample_member": lambda: normex.sample_member(d, random.Random(0)),
        "star_kernel": lambda: normex.star_kernel(t, pt, pt),
        "sub": lambda: normex.sub(d, g, h),
        "sznagy_check":
            lambda: normex.sznagy_check(t, normex.SzNagyConfig((pt,), pt)),
        "tilde_eval": lambda: normex.tilde_eval(t, normex.sub(d, g, h)),
        "uniform_weights": lambda: normex.uniform_weights(3),
        "unit": lambda: normex.unit(d),
        "validate_rep": lambda: normex.validate_rep(t),
    }


def _arrays(x, seen):
    """Every ndarray reachable from x through sequences, dict values and
    the fields of records."""
    if id(x) in seen or isinstance(x, type):
        return
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        yield x
        return
    if isinstance(x, (list, tuple)):
        items = x
    elif isinstance(x, dict):
        items = x.values()
    else:
        items = vars(x).values() if hasattr(x, "__dict__") else ()
    for y in items:
        yield from _arrays(y, seen)


def test_every_exported_array_is_read_only(tmp_path):
    # the linalg contract: a caller writing into a result raises, so no
    # cached image or shared matrix can change under another caller
    calls = _exported_calls(tmp_path)
    functions = sorted(n for n in PUBLIC_NAMES
                       if not isinstance(getattr(normex, n), type)
                       and callable(getattr(normex, n)))
    assert sorted(calls) == functions
    found = 0
    for name in functions:
        with contextlib.redirect_stdout(io.StringIO()):
            result = calls[name]()
        for a in _arrays(result, set()):
            found += 1
            assert not a.flags.writeable, (name, a.shape)
    assert found > 30

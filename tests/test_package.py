"""The public surface of the package: the names ``import normex`` exports.

The list is pinned so that a name is added to or dropped from the surface
only on purpose; everything else stays importable from its module.  No
module imports a name it never uses."""

import ast
import types
from pathlib import Path

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


#: the functions that may call each LAPACK factorization: every PSD
#: verdict, norm and spectrum of the package comes from one of them, so a
#: second copy of the PSD rule or of a norm cannot grow beside them
SOLVER_CALLERS = {
    "eigvalsh": {("linalg.py", "operator_norms"), ("linalg.py", "_psd_stack")},
    "eigh": {("linalg.py", "hermitian_eig")},
    "cholesky": {("linalg.py", "_cholesky_clears")},
}


def _solver_callers(tree):
    """(solver, enclosing function, line) of each call of a solver in
    SOLVER_CALLERS."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in SOLVER_CALLERS:
                    yield name, where, child.lineno
            yield from visit(child, inner)
    yield from visit(tree, None)


def _stray_calls(solvers):
    """Each call of one of ``solvers`` outside its allowed functions, and
    whether any call was found at all."""
    calls = [(name, p.name, where, line) for p in sorted(SOURCE.glob("*.py"))
             for name, where, line in _solver_callers(
                 ast.parse(p.read_text(encoding="utf-8")))
             if name in solvers]
    return bool(calls), [c for c in calls
                         if (c[1], c[2]) not in SOLVER_CALLERS[c[0]]]


def test_every_eigensolve_is_in_the_linalg_kernel():
    assert _stray_calls({"eigvalsh", "eigh"}) == (True, [])


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
    # one helper holds the screen that clears boxes above a floor
    # (_psd_stack) and contractions below norm 1 (norm_excess): no other
    # function factors a matrix to decide positivity
    assert _stray_calls({"cholesky"}) == (True, [])

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
    "NormalMap", "NormexError", "NotHermitianError", "NotPsdError",
    "PsdVerdict", "Representation", "SemigroupDescriptor", "SzNagyConfig",
    "UnsupportedStructureError", "ValidationCheck", "ValidationVerdict",
    "add", "adjoint", "agler_certificate", "athavale_certificate",
    "athavale_vs_brehmer", "block_assemble", "block_decompose",
    "box_operator", "brehmer_certificate", "brehmer_sum", "canonical_json",
    "cmatrix", "contains", "convex_average", "convex_weights",
    "degree_tuple", "descriptor_from_json", "descriptor_to_json", "element",
    "eval_rep", "extension_residual", "factorization", "factorize",
    "free_abelian", "generator_certificate", "hermitian_eig", "identity",
    "infinite_power", "involution_point", "kolmogorov_factor", "leq",
    "loewner_leq", "make_commuting_normals", "make_dilation_family",
    "make_gallery", "make_normal_map", "make_orthogonal_defect_family",
    "make_representation", "matrix_from_json", "matrix_to_json",
    "meet_join", "neg", "numerical", "operator_norm", "parse_spec",
    "point_mul", "pos_neg_parts", "product", "product_of", "psd_check",
    "rationals", "regularity_check", "run_command", "sample_group",
    "sample_member", "star_kernel", "sub", "sznagy_check", "tilde_eval",
    "uniform_weights", "unit", "validate_normal_map", "validate_rep",
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

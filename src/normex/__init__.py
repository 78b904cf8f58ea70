"""Checkable certificates for subnormality and normal extensions of
contractive semigroup representations on finite-dimensional complex spaces,
with the supporting lattice-ordered-semigroup algebra, Kolmogorov
factorization and convex averaging of dilation families."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    InputError,
    MembershipError,
    NormexError,
    NotHermitianError,
    NotPsdError,
    UnsupportedStructureError,
)
from .linalg import (
    DEFAULT_PSD_TOL,
    BlockDecomposition,
    PsdVerdict,
    adjoint,
    block_assemble,
    block_decompose,
    cmatrix,
    hermitian_eig,
    identity,
    loewner_leq,
    operator_norm,
    psd_check,
)
from .semigroups import (
    Factorization,
    GroupElement,
    SemigroupDescriptor,
    add,
    contains,
    element,
    factorization,
    factorize,
    free_abelian,
    leq,
    meet_join,
    neg,
    numerical,
    pos_neg_parts,
    product,
    sample_group,
    sample_member,
    sub,
    unit,
)
from .representations import (
    InvolutionPoint,
    Representation,
    ValidationCheck,
    ValidationVerdict,
    eval_rep,
    involution_point,
    make_representation,
    point_mul,
    product_of,
    star_kernel,
    tilde_eval,
    validate_rep,
)
from .certificates import (
    CertificateReport,
    SzNagyConfig,
    agler_certificate,
    athavale_certificate,
    athavale_vs_brehmer,
    box_operator,
    brehmer_certificate,
    brehmer_sum,
    degree_tuple,
    extension_residual,
    generator_certificate,
    regularity_check,
    sznagy_check,
)
from .constructions import (
    ConvexWeights,
    DilationFamily,
    convex_average,
    convex_weights,
    kolmogorov_factor,
    make_commuting_normals,
    make_dilation_family,
    make_gallery,
    make_orthogonal_defect_family,
    uniform_weights,
)
from .cli import (
    canonical_json,
    descriptor_from_json,
    descriptor_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_spec,
    run_command,
)

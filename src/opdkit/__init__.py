"""Workbench for finitely presented unary-binary nonsymmetric operads.

Construct linearly compatible, matching, and totally compatible operads over
a finite color set, compute Koszul duals of quadratic presentations, form
Manin square products, and compare everything grading by grading with one
sparse exact elimination kernel (``span_components`` reports the rank of
each side and the verdict per grading).  The dense rational matrix functions
are thin adapters over the same kernel.
"""

from .catalog import builtin, catalog_keys, default_grid
from .compat import (
    build_compatible,
    build_lin,
    build_mat,
    build_tot,
    expand_formal,
    support,
    verify_lin_encoding,
)
from .duality import check_dual_identity, is_self_dual, koszul_dual, pairing_form, self_duality
from .linalg import (
    DiagonalForm,
    RationalMatrix,
    nullspace,
    orthogonal_complement,
    rank,
    rref,
    span_contains,
    span_equal,
)
from .manin import black_square, check_product_duality, white_square
from .presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    presentation_span_contains,
    presentation_span_equal,
    rename_generators,
    replicate,
    span_components,
    validate,
)
from .trees import (
    Generator,
    GradedComponent,
    Tree,
    basis_dimension,
    compose,
    corolla,
    enumerate_basis,
    graft,
    leaf,
    tree_text,
)

__version__ = "0.1.0"

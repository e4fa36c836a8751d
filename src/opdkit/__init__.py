"""Workbench for finitely presented unary-binary nonsymmetric operads.

Construct linearly compatible, matching, and totally compatible operads over
a finite color set, compute Koszul duals of quadratic presentations, form
Manin square products, and compare everything grading by grading with one
sparse exact elimination kernel (``span_components`` reports the rank of
each side and the verdict per grading).

The dense rational matrix API is not exposed here: the program does not use
it, and it stays in ``opdkit.linalg`` for the benchmark's tracer, the
acceptance gate and the tests.
"""

from .catalog import builtin, catalog_keys, default_grid
from .compat import (
    build_compatible,
    build_lin,
    build_mat,
    build_tot,
    replicate,
    verify_lin_encoding,
)
from .duality import check_dual_identity, is_self_dual, koszul_dual, self_duality
from .manin import black_square, check_product_duality, white_square
from .presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    rename_generators,
    support,
    validate,
)
from .spans import presentation_span_contains, presentation_span_equal, span_components
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

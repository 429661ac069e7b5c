"""equifan: exact-arithmetic conical polyhedral complexes.

Subdivisions, piecewise-linear order functions, finite group actions,
and equivariant refinement to a smooth (index-1, simplicial) complex
with verifiable certificates.
"""

from .complexes import (
    Complex,
    DualDescription,
    SubdivisionReport,
    ValidationReport,
    is_simplicial,
    is_smooth,
    is_subdivision,
    same_complex,
    validate_complex,
)
from .groups import (
    GroupAction,
    QuotientStructure,
    check_G_strict,
    check_fixed_cone_identity,
    generate_group,
    group_action,
    quotient_structure,
    trivial_group,
    verify_action,
)
from .lattice import (
    cone_index,
    parallelepiped_points,
    primitive,
    smith_normal_form,
)
from .orderfun import (
    AxiomReport,
    OrderFunction,
    compose_order_functions,
    evaluate,
    linearity_domains,
    star_order_function,
    verify_order_axioms,
)
from .resolve import (
    ResolutionCertificate,
    max_index,
    resolve_equivariant,
    select_centers,
    total_index,
)
from .subdivide import (
    barycenter,
    barycentric_edge_bijection,
    barycentric_subdivision,
    star_subdivide,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Complex",
    "DualDescription",
    "GroupAction",
    "OrderFunction",
    "QuotientStructure",
    "ResolutionCertificate",
    "SubdivisionReport",
    "ValidationReport",
    "barycenter",
    "barycentric_edge_bijection",
    "barycentric_subdivision",
    "check_G_strict",
    "check_fixed_cone_identity",
    "compose_order_functions",
    "cone_index",
    "evaluate",
    "generate_group",
    "group_action",
    "is_simplicial",
    "is_smooth",
    "is_subdivision",
    "linearity_domains",
    "max_index",
    "parallelepiped_points",
    "primitive",
    "quotient_structure",
    "resolve_equivariant",
    "same_complex",
    "select_centers",
    "smith_normal_form",
    "star_order_function",
    "star_subdivide",
    "total_index",
    "trivial_group",
    "validate_complex",
    "verify_action",
    "verify_order_axioms",
]

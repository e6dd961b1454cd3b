"""Monodromy groups of dessins d'enfants on rational polygonal billiards
surfaces: exact computation, classification, and brute-force verification."""

from .polygon import (
    PolygonTuple,
    validate,
    scale_associate,
    pad_to_geometric,
    find_geometric_associate,
    find_convex_associate,
    enumerate_geometric,
    enumerate_algebraic,
)
from .exactla import (
    SnfResult,
    circulant,
    smith_normal_form,
    minor_gcd,
    rank_mod_p,
)
from .monodromy import (
    GroupDescriptor,
    group_of,
    deltas_of,
    triangle_closed_form,
    quadrilateral_closed_form,
    regular_kgon,
    merge_invariant_factors,
)
from .oracle import (
    EdgeLabel,
    PermutationPair,
    AbelianInvariants,
    StructureReport,
    build_permutations,
    group_order,
    span_vectors,
    span_invariants,
    check_structure,
)
from .polyfp import (
    FpPoly,
    from_tuple,
    gcd_poly,
    w_function,
    rotate,
    factor_xk_minus_1,
    coset_degrees,
    close_zero_gap,
    xk_minus_1,
)
from .construct import (
    ClassificationReport,
    FeasibilityResult,
    combine_crt,
    project,
    lift,
    combine_coprime_k,
    achievable_d_set,
    construct_prime_case,
    classify_prime,
    classify_triangles,
    composite_feasible,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]

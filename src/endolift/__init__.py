"""endolift: exact desk-scale arithmetic for deformation loci of
supersingular p-divisible groups.

Submodules:

* witt       — quadratic Witt scalars mod p^N as integer pairs, the one arithmetic
* series     — window-truncated two-variable series, base series f and g
* windows    — quasi-endomorphism pairs, lifting recursions
* lengths    — chain-ring normal forms, quotient lengths, annihilators
* inventory  — component bookkeeping, thresholds, closed-form totals
* lattices   — module lattices: sublattices, superlattices, filtration lifts
* cli        — the `endolift` command
"""

from .errors import (
    ConsistencyFailure,
    EndoliftError,
    InexactDivision,
    NotAnOrder,
    NotAUnit,
    PrecisionExhausted,
    PrecisionTooLow,
    ShapeViolation,
    StabilityFailure,
    StructureViolation,
    WindowExhausted,
)
from .witt import WittScalar, nonresidue
from .series import SeriesContext, TruncSeries, f_series, g_series, series_invert
from .windows import (
    CaseDescriptor,
    check_phi_commutation,
    closed_form_vertical_pair,
    integrality_predicate,
    one_variable_context,
    recursion_context,
    solve_thickened_recursion,
    solve_vertical_recursion,
    structure_check,
)
from .lengths import (
    annihilator_check,
    annihilator_report,
    length_by_elimination,
    quotient_length,
    quotient_length_details,
    vertical_multiplicity,
)
from .inventory import (
    component_inventory,
    conductor,
    displayed_corollary_report,
    endo_order_level,
    intersection_number,
    keating_threshold,
    special_fiber_length,
    total_proper_closed_form,
    total_proper_intersection,
    unit_index,
    vertical_multiplicity_closed_form,
)
from .lattices import (
    descend_superlattice,
    enumerate_stable_sublattices,
    enumerate_stable_superlattices,
    hodge_lift_census,
    lie_action_parity,
    operator_sanity,
    standard_rank2,
    tensor_rank4,
)

__version__ = "0.1.0"

__all__ = [
    "WittScalar",
    "nonresidue",
    "SeriesContext",
    "TruncSeries",
    "f_series",
    "g_series",
    "series_invert",
    "CaseDescriptor",
    "one_variable_context",
    "recursion_context",
    "solve_vertical_recursion",
    "solve_thickened_recursion",
    "closed_form_vertical_pair",
    "check_phi_commutation",
    "structure_check",
    "integrality_predicate",
    "quotient_length",
    "quotient_length_details",
    "length_by_elimination",
    "vertical_multiplicity",
    "vertical_multiplicity_closed_form",
    "annihilator_check",
    "annihilator_report",
    "conductor",
    "unit_index",
    "keating_threshold",
    "endo_order_level",
    "intersection_number",
    "component_inventory",
    "total_proper_intersection",
    "total_proper_closed_form",
    "displayed_corollary_report",
    "special_fiber_length",
    "standard_rank2",
    "tensor_rank4",
    "operator_sanity",
    "enumerate_stable_sublattices",
    "lie_action_parity",
    "enumerate_stable_superlattices",
    "descend_superlattice",
    "hodge_lift_census",
    "EndoliftError",
    "InexactDivision",
    "NotAUnit",
    "PrecisionExhausted",
    "WindowExhausted",
    "PrecisionTooLow",
    "NotAnOrder",
    "ConsistencyFailure",
    "StructureViolation",
    "ShapeViolation",
    "StabilityFailure",
    "__version__",
]

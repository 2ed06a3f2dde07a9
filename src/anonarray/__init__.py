"""Anonymizing arrays: verification, homogeneity metrics, and construction.

An anonymizing array is an N x k array of attribute-value profiles in
which every credential of at most t attribute values that appears at all
appears in at least r rows, so an authorization system matching a
credential cannot identify the presenting subject with probability above
1/r.  This package verifies and scores such arrays and constructs padding
rows to reach a target guarantee under hard / soft / don't-care
constraints.
"""

from .constraints import (
    ConstraintSet,
    FeasibilityReport,
    check_feasibility,
    row_lower_bound,
)
from .construct import (
    ConstructionConfig,
    ConstructionResult,
    construct_padding,
)
from .errors import (
    AnonArrayError,
    BudgetExceededError,
    InfeasibleError,
    InvalidParameterError,
    ParseError,
    SearchBudgetError,
)
from .homogeneity import (
    HomogeneityReport,
    Neighborhood,
    closeness,
    closeness_matrix,
    export_hypergraph,
    global_homogeneity,
    local_homogeneity,
    neighborhoods,
    weight,
)
from .model import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    Credential,
    CredentialCountTable,
    count_credentials,
    enumerate_column_sets,
)
from .verify import (
    AnonymityProfile,
    GuaranteeReport,
    ValidationResult,
    anonymity_profile,
    compute_guarantee,
    is_anonymizing_for,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AccessProfileArray",
    "AnonArrayError",
    "AnonymityProfile",
    "AttributeDef",
    "AttributeSchema",
    "BudgetExceededError",
    "ConstraintSet",
    "ConstructionConfig",
    "ConstructionResult",
    "Credential",
    "CredentialCountTable",
    "FeasibilityReport",
    "GuaranteeReport",
    "HomogeneityReport",
    "InfeasibleError",
    "InvalidParameterError",
    "Neighborhood",
    "ParseError",
    "SearchBudgetError",
    "ValidationResult",
    "anonymity_profile",
    "check_feasibility",
    "closeness",
    "closeness_matrix",
    "compute_guarantee",
    "construct_padding",
    "count_credentials",
    "enumerate_column_sets",
    "export_hypergraph",
    "global_homogeneity",
    "is_anonymizing_for",
    "local_homogeneity",
    "neighborhoods",
    "row_lower_bound",
    "validate",
    "weight",
]

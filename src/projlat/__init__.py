"""Toolkit for deciding 0/1 semantics of projector context collections.

Builds on dense complex linear algebra: canonical subspaces, validated
projectors and maximal contexts, finite invariant-subspace lattices and
their intersection, generated-algebra irreducibility, state-dependent
bivaluation, and a global noncontextual assignment search.
"""
from .algebra import (
    AlgebraClosure,
    IrreducibilityReport,
    algebra_closure,
    invariant_subspace_witness,
    is_irreducible,
)
from .document import (
    collection_to_document,
    load_document,
    parse_document,
    save_document,
)
from .errors import (
    AmbientDimOneError,
    CapExceededError,
    DimensionMismatchError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    NotSquareError,
    PairwiseProductNonzeroError,
    ParseError,
    ProjlatError,
    SubsetLimitExceededError,
    SumNotIdentityError,
    ValidationError,
    ZeroStateError,
)
from .lattice import (
    LatticeFamily,
    all_elements_invariant,
    context_lattice,
    intersect_lattices,
)
from .linalg import adjoint, numerical_rank, orthonormalize
from .projectors import (
    ContextCollection,
    MaximalContext,
    Projector,
    RegistryEntry,
    context_from_basis,
    context_residuals,
    is_invariant,
    pauli_contexts,
    validate_context,
    validate_projector,
)
from .subspace import Subspace
from .tolerance import DEFAULT_TOLERANCES, TolerancePolicy
from .valuation import (
    AssignmentSearchResult,
    BivalenceReport,
    ContextValuation,
    TruthValue,
    bivalence_report,
    parity_certificate,
    search_noncontextual_assignment,
    valuate,
    valuate_context,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraClosure",
    "AmbientDimOneError",
    "AssignmentSearchResult",
    "BivalenceReport",
    "CapExceededError",
    "ContextCollection",
    "ContextValuation",
    "DEFAULT_TOLERANCES",
    "DimensionMismatchError",
    "IrreducibilityReport",
    "LatticeFamily",
    "MaximalContext",
    "NotCompleteError",
    "NotHermitianError",
    "NotIdempotentError",
    "NotOrthonormalError",
    "NotSquareError",
    "PairwiseProductNonzeroError",
    "ParseError",
    "Projector",
    "ProjlatError",
    "RegistryEntry",
    "SubsetLimitExceededError",
    "Subspace",
    "SumNotIdentityError",
    "TolerancePolicy",
    "TruthValue",
    "ValidationError",
    "ZeroStateError",
    "adjoint",
    "algebra_closure",
    "all_elements_invariant",
    "bivalence_report",
    "collection_to_document",
    "context_from_basis",
    "context_lattice",
    "context_residuals",
    "intersect_lattices",
    "invariant_subspace_witness",
    "is_invariant",
    "is_irreducible",
    "load_document",
    "numerical_rank",
    "orthonormalize",
    "parity_certificate",
    "parse_document",
    "pauli_contexts",
    "save_document",
    "search_noncontextual_assignment",
    "valuate",
    "valuate_context",
    "validate_context",
    "validate_projector",
]

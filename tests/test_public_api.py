"""The package's public surface: what ``projlat`` exports, and the names the
library no longer has."""
import pytest

import projlat as pl
from projlat import document, lattice, linalg

EXPORTS = [
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
    "algebra_closure",
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

REMOVED = [
    (pl, "adjoint"),
    (pl, "all_elements_invariant"),
    (pl.Subspace, "from_span"),
    (pl.Subspace, "full"),
    (pl.Subspace, "is_zero"),
    (pl.Subspace, "is_full"),
    (pl.Subspace, "meet"),
    (pl.Subspace, "join"),
    (pl.Subspace, "ortho_complement"),
    (pl.Subspace, "contains"),
    (pl.LatticeFamily, "contains"),
    (pl.Projector, "kernel"),
    (lattice, "all_elements_invariant"),
    (linalg, "adjoint"),
    (linalg, "_gram_schmidt"),
    (document, "vector_to_json"),
    (document, "_pairs"),
]


def test_all_is_the_pinned_list_and_resolves():
    assert pl.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(pl, name) is not None


@pytest.mark.parametrize(
    "owner, name", REMOVED, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in REMOVED]
)
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)

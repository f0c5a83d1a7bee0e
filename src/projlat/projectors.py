"""Validated projection operators, maximal contexts, and context collections.

A projector is accepted exactly as supplied: validation measures the
self-adjointness and idempotency residuals against ``eps_entry`` but never
re-symmetrizes or re-projects the matrix. A maximal context is a family of
projectors that pairwise annihilate and sum to the identity. A context
collection additionally maintains a registry that gives one shared identity
to projectors that coincide (within ``eps_subspace``) across contexts, which
is what makes cross-context value assignments meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotOrthonormalError,
    NotSquareError,
    PairwiseProductNonzeroError,
    SumNotIdentityError,
    ValidationError,
)
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve


@dataclass(frozen=True, eq=False)
class Projector:
    """A validated self-adjoint idempotent matrix with its numerical rank."""

    matrix: np.ndarray
    rank: int
    label: str

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def range(self, tol: TolerancePolicy | None = None) -> Subspace:
        """Column space: the vectors the projector fixes."""
        return Subspace.column_space(self.matrix, tol)

    def kernel(self, tol: TolerancePolicy | None = None) -> Subspace:
        """Null space: the vectors the projector annihilates."""
        return Subspace.column_space(np.eye(self.ambient_dim) - self.matrix, tol)

    def __repr__(self) -> str:
        return f"Projector({self.label!r}, rank={self.rank}, dim={self.ambient_dim})"


def validate_projector(
    matrix, tol: TolerancePolicy | None = None, label: str = "P"
) -> Projector:
    """Check the projector axioms and wrap the matrix unchanged.

    Raises ``NotSquareError``, ``NotHermitianError`` or ``NotIdempotentError``
    with the measured residual when an axiom fails.
    """
    tol = resolve(tol)
    arr = _checked_projector_matrix(matrix, tol)
    return Projector(matrix=arr, rank=linalg.numerical_rank(arr, tol), label=label)


def _checked_projector_matrix(matrix, tol: TolerancePolicy) -> np.ndarray:
    """A read-only complex copy of ``matrix`` that passed the projector axioms."""
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(arr.shape)
    herm = linalg.max_abs(arr - arr.conj().T)
    if herm > tol.eps_entry:
        raise NotHermitianError(herm, tol.eps_entry)
    idem = linalg.max_abs(arr @ arr - arr)
    if idem > tol.eps_entry:
        raise NotIdempotentError(idem, tol.eps_entry)
    arr.setflags(write=False)
    return arr


def is_invariant(
    subspace: Subspace, operator, tol: TolerancePolicy | None = None
) -> bool:
    """True when the operator maps the subspace into itself.

    The criterion is the Frobenius norm of the part of ``A`` that leaks out
    of the subspace, ``|(I - Q) A Q|_F <= eps_subspace`` with ``Q`` the
    subspace projector. ``operator`` may be a ``Projector`` or a plain matrix.
    """
    matrix = operator.matrix if isinstance(operator, Projector) else operator
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"operator dimension {arr.shape[0]} != ambient {subspace.ambient_dim}"
        )
    q = subspace.projector
    leak = (np.eye(subspace.ambient_dim) - q) @ arr @ q
    return float(np.linalg.norm(leak)) <= resolve(tol).eps_subspace


@dataclass(frozen=True)
class MaximalContext:
    """A validated family of mutually annihilating projectors summing to I."""

    name: str
    members: tuple[Projector, ...]
    # Set by ``validate_context`` from the products it has just measured.
    _residuals: dict[str, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def ambient_dim(self) -> int:
        return self.members[0].ambient_dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"MaximalContext({self.name!r}, members={len(self.members)})"


def _pairwise_products(members) -> np.ndarray:
    """Symmetric m x m matrix of ``max(max|Pi Pj|, max|Pj Pi|)``, zero diagonal.

    Row i takes two batched products against the later members, so the
    temporaries hold O(m n^2) entries, never the (m, m, n, n) product.
    """
    stack = np.stack([p.matrix for p in members])
    out = np.zeros((len(members), len(members)))
    for i in range(len(members) - 1):
        later = stack[i + 1 :]
        out[i, i + 1 :] = np.maximum(
            np.abs(stack[i] @ later).max(axis=(1, 2)),
            np.abs(later @ stack[i]).max(axis=(1, 2)),
        )
    return out + out.T


def _residuals(members, pairwise: np.ndarray) -> dict[str, float]:
    total = sum(p.matrix for p in members)
    return {
        "pairwise_product": float(pairwise.max()),
        "sum_minus_identity": linalg.max_abs(total - np.eye(members[0].ambient_dim)),
    }


def context_residuals(ctx: MaximalContext) -> dict[str, float]:
    """Measured axiom residuals of a context, for reporting.

    A context from ``validate_context`` reports the residuals measured
    there; one built by hand has them computed now.
    """
    if ctx._residuals is None:
        return _residuals(ctx.members, _pairwise_products(ctx.members))
    return dict(ctx._residuals)


def validate_context(
    projectors, tol: TolerancePolicy | None = None, name: str = "context"
) -> MaximalContext:
    """Check the maximal-context axioms over already-validated projectors."""
    tol = resolve(tol)
    members = tuple(projectors)
    if not members:
        raise ValidationError(f"context {name!r} has no members")
    dim = members[0].ambient_dim
    for p in members[1:]:
        if p.ambient_dim != dim:
            raise DimensionMismatchError(
                f"context {name!r}: mixed ambient dimensions {dim} and {p.ambient_dim}"
            )
    pairwise = _pairwise_products(members)
    offending = np.argwhere(np.triu(pairwise > tol.eps_entry))
    if len(offending):
        i, j = (int(k) for k in offending[0])  # row-major: the first pair (i, j)
        raise PairwiseProductNonzeroError(name, i, j, float(pairwise[i, j]), tol.eps_entry)
    residuals = _residuals(members, pairwise)
    if residuals["sum_minus_identity"] > tol.eps_entry:
        raise SumNotIdentityError(name, residuals["sum_minus_identity"], tol.eps_entry)
    ctx = MaximalContext(name=name, members=members)
    object.__setattr__(ctx, "_residuals", residuals)
    return ctx


def context_from_basis(
    vectors,
    tol: TolerancePolicy | None = None,
    name: str = "context",
    labels: list[str] | None = None,
) -> MaximalContext:
    """Rank-1 context ``v v^H`` from an orthonormal basis of the ambient space."""
    tol = resolve(tol)
    vecs = [linalg.as_state_vector(v) for v in vectors]
    if not vecs:
        raise ValidationError(f"context {name!r} needs at least one basis vector")
    dim = vecs[0].shape[0]
    for v in vecs[1:]:
        if v.shape[0] != dim:
            raise DimensionMismatchError(
                f"context {name!r}: mixed vector dimensions {dim} and {v.shape[0]}"
            )
    stacked = np.column_stack(vecs)
    gram = stacked.conj().T @ stacked
    residual = linalg.max_abs(gram - np.eye(len(vecs)))
    if residual > tol.eps_entry:
        raise NotOrthonormalError(residual, tol.eps_entry)
    if len(vecs) != dim:
        raise NotCompleteError(len(vecs), dim)
    if labels is not None and len(labels) != len(vecs):
        raise ValidationError(f"context {name!r}: {len(labels)} labels for {len(vecs)} vectors")
    # v v^H has one nonzero singular value, |v|^2, so its rank needs no SVD.
    members = [
        Projector(
            matrix=_checked_projector_matrix(np.outer(v, v.conj()), tol),
            rank=linalg.singular_rank([gram[i, i].real], tol),
            label=labels[i] if labels is not None else f"{name}[{i}]",
        )
        for i, v in enumerate(vecs)
    ]
    return validate_context(members, tol, name=name)


@dataclass(frozen=True)
class RegistryEntry:
    """One shared projector identity across a collection.

    ``projector`` is the first occurrence; ``occurrences`` lists every
    ``(context index, member index)`` whose matrix coincides with it within
    ``eps_subspace``.
    """

    index: int
    projector: Projector
    occurrences: tuple[tuple[int, int], ...]


class ContextCollection:
    """An ordered family of maximal contexts over one ambient space."""

    def __init__(self, contexts, tol: TolerancePolicy | None = None):
        members = tuple(contexts)
        if not members:
            raise ValidationError("a collection needs at least one context")
        dim = members[0].ambient_dim
        for ctx in members[1:]:
            if ctx.ambient_dim != dim:
                raise DimensionMismatchError(
                    f"mixed ambient dimensions: {dim} and {ctx.ambient_dim}"
                )
        self.ambient_dim = dim
        self.contexts = members
        self._identity: dict[tuple[int, int], int] = {}
        self.registry = self._build_registry(resolve(tol))

    def _build_registry(self, tol: TolerancePolicy) -> tuple[RegistryEntry, ...]:
        reps: list[Projector] = []
        occurrences: list[list[tuple[int, int]]] = []
        count = sum(len(ctx) for ctx in self.contexts)
        stacked = np.empty((count, self.ambient_dim, self.ambient_dim), dtype=complex)
        for ci, ctx in enumerate(self.contexts):
            for mi, proj in enumerate(ctx.members):
                distances = np.linalg.norm(stacked[: len(reps)] - proj.matrix, axis=(1, 2))
                close = np.flatnonzero(distances <= tol.eps_subspace)
                if close.size:
                    found = int(close[0])
                else:
                    found = len(reps)
                    stacked[found] = proj.matrix
                    reps.append(proj)
                    occurrences.append([])
                occurrences[found].append((ci, mi))
                self._identity[(ci, mi)] = found
        return tuple(
            RegistryEntry(index=i, projector=rep, occurrences=tuple(occ))
            for i, (rep, occ) in enumerate(zip(reps, occurrences))
        )

    def identity_of(self, context_index: int, member_index: int) -> int:
        """Registry identity of one context member."""
        return self._identity[(context_index, member_index)]

    @property
    def context_names(self) -> tuple[str, ...]:
        return tuple(ctx.name for ctx in self.contexts)

    def context_named(self, name: str) -> MaximalContext:
        for ctx in self.contexts:
            if ctx.name == name:
                return ctx
        raise KeyError(f"no context named {name!r}")

    def __len__(self) -> int:
        return len(self.contexts)

    def __repr__(self) -> str:
        return (
            f"ContextCollection(dim={self.ambient_dim}, contexts={len(self.contexts)}, "
            f"registry={len(self.registry)})"
        )


def pauli_contexts(tol: TolerancePolicy | None = None) -> ContextCollection:
    """The three rank-1 contexts on C^2 built from the Pauli eigenprojectors."""
    half = 0.5
    matrices = {
        "z": [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 0], [0, 1]], dtype=complex)],
        "x": [
            half * np.array([[1, 1], [1, 1]], dtype=complex),
            half * np.array([[1, -1], [-1, 1]], dtype=complex),
        ],
        "y": [
            half * np.array([[1, -1j], [1j, 1]], dtype=complex),
            half * np.array([[1, 1j], [-1j, 1]], dtype=complex),
        ],
    }
    contexts = []
    for name, (first, second) in matrices.items():
        contexts.append(
            validate_context(
                [
                    validate_projector(first, tol, label=f"P1_{name}"),
                    validate_projector(second, tol, label=f"P2_{name}"),
                ],
                tol,
                name=name,
            )
        )
    return ContextCollection(contexts, tol)

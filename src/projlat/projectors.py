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

# Entries, in complex128 (4 MB), of the block of pairwise products that
# ``_measure`` holds at once, or of one row of them if that is larger. The
# whole product of one 64-member context in C^64 would be 268 MB.
# ``ContextCollection`` screens and measures registry pairs in blocks of
# about the same size.
_CHUNK_ENTRIES = 1 << 18
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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
    with the measured residual when an axiom fails; a residual that is NaN
    fails too.
    """
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(arr.shape)
    return _checked_stack(arr[None], resolve(tol), [label])[0][0]


def _measure(stack: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
    """Every product of a stack of m matrices, and its context residuals.

    ``products[i, j]`` is ``max|Pi Pj|`` for i != j, and the diagonal holds
    the idempotency residuals ``max|Pi Pi - Pi|``. All m x m products are
    taken as ``S[rows, None] @ S[None, :]`` over blocks of rows, each block
    under ``_CHUNK_ENTRIES`` entries, so the temporaries never hold the
    whole (m, m, n, n) product. The residuals are those ``context_residuals``
    reports.
    """
    m, n = stack.shape[:2]
    products = np.empty((m, m))
    step = max(1, _CHUNK_ENTRIES // (m * n * n or 1))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        block = stack[rows, None] @ stack[None, :]
        # Row r of the block holds P_(start + r) @ P_j; its square sits at
        # every (m + 1)-th matrix from ``start`` in the flattened block.
        block.reshape(-1, n, n)[start :: m + 1] -= stack[rows]
        products[rows] = np.abs(block).max(axis=(2, 3), initial=0.0)
    pairwise = products.copy()
    np.fill_diagonal(pairwise, 0.0)
    # Accumulation adds the members in order, as a loop does; ``sum`` may
    # add them pairwise when each is 1 x 1.
    total = np.add.accumulate(stack)[-1]
    return products, {
        "pairwise_product": float(pairwise.max()),
        "sum_minus_identity": float(np.abs(total - np.eye(n)).max(initial=0.0)),
    }


def _checked_stack(stack: np.ndarray, tol: TolerancePolicy, labels, singular=None):
    """Projectors on read-only views of ``stack``, with ``_measure(stack)``.

    Each matrix passes the projector axioms; the first failing one, in
    stack order, raises what ``validate_projector`` raises for it alone,
    with the same residual. Ranks count the singular values above the
    ``linalg.singular_rank`` cutoff. ``singular`` holds them, largest
    first, one row per matrix; without it they come from one batched SVD.
    """
    eps = tol.eps_entry
    # An overflow shows as an inf or NaN residual, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        products, residuals = _measure(stack)
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    idem = products.diagonal()
    if not (herm.max() <= eps and idem.max() <= eps):
        i = np.flatnonzero(~((herm <= eps) & (idem <= eps)))[0]
        if not herm[i] <= eps:
            raise NotHermitianError(float(herm[i]), eps)
        raise NotIdempotentError(float(idem[i]), eps)
    if singular is None:
        singular = np.linalg.svd(stack, compute_uv=False)
    cutoff = tol.eps_rank * np.maximum(singular[:, :1], 1.0)
    ranks = (singular > cutoff).sum(axis=1).tolist()
    stack.setflags(write=False)
    members = tuple(
        Projector(matrix=matrix, rank=rank, label=label)
        for matrix, rank, label in zip(stack, ranks, labels)
    )
    return members, products, residuals


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
    # Set by the checks that built the context, from the products they measured.
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


def context_residuals(ctx: MaximalContext) -> dict[str, float]:
    """Measured axiom residuals of a context, for reporting.

    A context from ``validate_context`` reports the residuals measured
    there; one built by hand has them computed now.
    """
    if ctx._residuals is None:
        return _measure(np.array([p.matrix for p in ctx.members]))[1]
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
    products, residuals = _measure(np.array([p.matrix for p in members]))
    return _checked_context(members, products, residuals, tol, name)


def _checked_context(
    members: tuple[Projector, ...],
    products: np.ndarray,
    residuals: dict[str, float],
    tol: TolerancePolicy,
    name: str,
) -> MaximalContext:
    """The context of ``members``, from their ``_measure`` products and residuals.

    The first pair (i, j) in row-major order whose products are not within
    ``eps_entry``, then the sum, raises; a residual that is NaN fails.
    """
    eps = tol.eps_entry
    if not residuals["pairwise_product"] <= eps:
        pairwise = np.maximum(products, products.T)
        np.fill_diagonal(pairwise, 0.0)
        # Symmetric with a zero diagonal: the first hit has i < j.
        i, j = (int(k) for k in np.argwhere(~(pairwise <= eps))[0])
        raise PairwiseProductNonzeroError(name, i, j, float(pairwise[i, j]), eps)
    if not residuals["sum_minus_identity"] <= eps:
        raise SumNotIdentityError(name, residuals["sum_minus_identity"], eps)
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
    vecs = list(vectors)
    try:
        rows = np.array(vecs, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError):
        rows = None
    if rows is None or rows.ndim != 2 or not np.isfinite(rows).all():
        # Check the vectors one by one, to name what is wrong with them.
        vecs = [linalg.as_state_vector(v) for v in vecs]
        if not vecs:
            raise ValidationError(f"context {name!r} needs at least one basis vector")
        dim = vecs[0].shape[0]
        for v in vecs[1:]:
            if v.shape[0] != dim:
                raise DimensionMismatchError(
                    f"context {name!r}: mixed vector dimensions {dim} and {v.shape[0]}"
                )
        rows = np.array(vecs)
    count, dim = rows.shape
    stacked = np.ascontiguousarray(rows.T)
    gram = stacked.conj().T @ stacked
    residual = float(np.abs(gram - np.eye(count)).max())
    if not residual <= tol.eps_entry:
        raise NotOrthonormalError(residual, tol.eps_entry)
    if count != dim:
        raise NotCompleteError(count, dim)
    if labels is None:
        labels = [f"{name}[{i}]" for i in range(count)]
    elif len(labels) != count:
        raise ValidationError(f"context {name!r}: {len(labels)} labels for {count} vectors")
    stack = rows[:, :, None] * rows.conj()[:, None, :]
    # v v^H has one nonzero singular value, |v|^2, so its rank needs no SVD.
    checked = _checked_stack(stack, tol, labels, gram.diagonal().real[:, None])
    return _checked_context(*checked, tol, name)


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
        """One identity per representative, in order of first occurrence.

        Each member takes the identity of the first earlier representative
        it is close to, ``np.linalg.norm(rep - member) <= eps_subspace``, or
        becomes a representative itself. That norm is taken only for the
        pairs the Gram matrix of the flattened members puts near each other:
        ``|A|^2 + |B|^2 - 2 Re<A, B>`` is their squared distance up to a
        rounding error of ``gamma * (|A| + |B|)^2``, with ``gamma`` the
        dot-product bound for ``2 n^2 + 8`` real terms. The screen keeps a
        pair within ``(eps_subspace * (1 + gamma))^2``, which covers the
        rounding of the norm, plus twice that error, which covers the
        rounding of ``|A|`` and ``|B|``. It may keep a pair too many, never
        one too few.
        """
        projectors = [p for ctx in self.contexts for p in ctx.members]
        places = [(ci, mi) for ci, ctx in enumerate(self.contexts) for mi in range(len(ctx))]
        stack = np.array([p.matrix for p in projectors], dtype=complex)
        # Re<A, B> as a real product over the interleaved real and imaginary parts.
        flat = stack.reshape(len(stack), -1).view(np.float64)
        squares = np.einsum("ij,ij->i", flat, flat)
        norms = np.sqrt(squares)
        gamma = _UNIT_ROUNDOFF * (flat.shape[1] + 8)
        gamma /= 1 - gamma
        reach = (tol.eps_subspace * (1 + gamma)) ** 2
        later, earlier = [], []
        # Rows of the Gram matrix in blocks, each against the earlier members only.
        step = max(1, _CHUNK_ENTRIES // len(stack))
        for start in range(0, len(stack), step):
            stop = min(start + step, len(stack))
            rows = slice(start, stop)
            squared = squares[rows, None] + squares[None, :stop] - 2 * (flat[rows] @ flat[:stop].T)
            limit = reach + 2 * gamma * (norms[rows, None] + norms[None, :stop]) ** 2
            # Not ``<=``: a pair whose estimate is NaN is measured too.
            k, j = np.nonzero(~(squared > limit))
            k += start
            later.append(k[j < k])
            earlier.append(j[j < k])
        later, earlier = np.concatenate(later), np.concatenate(earlier)
        close = np.empty(len(later), dtype=bool)
        step = max(1, _CHUNK_ENTRIES // (stack[0].size or 1))
        for start in range(0, len(later), step):
            part = slice(start, start + step)
            distances = np.linalg.norm(stack[earlier[part]] - stack[later[part]], axis=(1, 2))
            close[part] = distances <= tol.eps_subspace
        # Pairs come ordered by the later member, then the earlier one, so the
        # earlier member's representative is settled when it is read.
        owner = list(range(len(stack)))
        for k, j in zip(later[close].tolist(), earlier[close].tolist()):
            if owner[k] == k and owner[j] == j:
                owner[k] = j
        reps = [k for k, own in enumerate(owner) if own == k]
        index = {k: i for i, k in enumerate(reps)}
        occurrences: list[list[tuple[int, int]]] = [[] for _ in reps]
        for place, own in zip(places, owner):
            found = index[own]
            occurrences[found].append(place)
            self._identity[place] = found
        return tuple(
            RegistryEntry(index=i, projector=projectors[k], occurrences=tuple(occ))
            for i, (k, occ) in enumerate(zip(reps, occurrences))
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

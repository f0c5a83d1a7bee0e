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
    return _checked_stack(arr[None, None], resolve(tol), [[label]])[0][0][0]


def _measure(stack: np.ndarray) -> tuple[np.ndarray, list[dict[str, float]]]:
    """Every product within each context of a (C, m, n, n) stack, and the residuals.

    ``products[c, i, j]`` is ``max|Pi Pj|`` over the members of context c
    for i != j, and the diagonal holds the idempotency residuals
    ``max|Pi Pi - Pi|``. The products are taken as
    ``S[contexts, rows, None] @ S[contexts, None, :]`` over blocks of
    (context, row) pairs, each block under ``_CHUNK_ENTRIES`` entries, so
    the temporaries never hold the whole (C, m, m, n, n) product. The
    residuals are those of ``_residuals``.
    """
    count, m, n = stack.shape[:3]
    products = np.empty((count, m, m))
    step = max(1, _CHUNK_ENTRIES // (m * n * n or 1))
    rows_per, contexts_per = min(m, step), max(1, step // m)
    for start in range(0, count, contexts_per):
        contexts = slice(start, start + contexts_per)
        for first in range(0, m, rows_per):
            rows = slice(first, first + rows_per)
            block = stack[contexts, rows, None] @ stack[contexts, None, :]
            # Row r of the block holds P_(first + r) @ P_j; its square is at j = first + r.
            diagonal = np.arange(block.shape[1])
            block[:, diagonal, first + diagonal] -= stack[contexts, rows]
            products[contexts, rows] = np.abs(block).max(axis=(3, 4), initial=0.0)
    return products, _residuals(products, stack)


def _rank1_products(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The products ``_measure`` takes, for the members ``v v^H`` of C bases.

    ``rows[c, i]`` is vector v_i of basis c and ``offsets[c]`` is
    ``|G - I|`` for its Gram matrix ``G[i, j] = <v_i, v_j>``. Since
    ``Pi Pj = G[i, j] v_i v_j^H`` and ``Pi Pi - Pi = (G[i, i] - 1) v_i v_i^H``,
    entry (i, j) is ``|G - I|[i, j] * p_i * p_j`` with ``p_i = max_a |v_i[a]|``:
    O(m^2) per basis instead of m^2 products of n x n matrices. Both this and
    the dense products round an n-term inner product per entry; for unit
    vectors they differ by at most ``4 (n + 2) u max p_i^2``, u the unit
    roundoff.
    """
    peaks = np.abs(rows).max(axis=2, initial=0.0)
    return offsets * peaks[:, :, None] * peaks[:, None, :]


def _residuals(products: np.ndarray, stack: np.ndarray) -> list[dict[str, float]]:
    """The residuals ``context_residuals`` reports, one dict per context.

    ``pairwise_product`` is the largest off-diagonal entry of ``products``
    and ``sum_minus_identity`` is ``max|sum_i Pi - I|`` over the (C, m, n, n)
    ``stack``.
    """
    count, m, n = stack.shape[:3]
    pairwise = np.where(np.eye(m, dtype=bool), 0.0, products).max(axis=(1, 2))
    # The members are added in order; ``sum`` may add them pairwise when
    # each is 1 x 1, and ``np.add.accumulate`` keeps every partial sum.
    total = stack[:, 0].copy()
    for i in range(1, m):
        total += stack[:, i]
    sums = np.abs(total - np.eye(n)).max(axis=(1, 2), initial=0.0)
    return [
        {"pairwise_product": p, "sum_minus_identity": s}
        for p, s in zip(pairwise.tolist(), sums.tolist())
    ]


def _checked_stack(
    stack: np.ndarray, tol: TolerancePolicy, labels, singular=None, measured=None
):
    """Projectors on read-only views of a (C, m, n, n) ``stack``, with its products.

    ``labels[c][i]`` labels ``stack[c, i]``. Each matrix passes the projector
    axioms; the first failing one, in row-major order, raises what
    ``validate_projector`` raises for it alone, with the residual that
    ``measured`` holds. ``measured`` holds the products and residuals, as
    ``_measure(stack)`` returns them; without it they come from
    ``_measure``. Ranks count the singular values above the
    ``linalg.singular_rank`` cutoff. ``singular`` holds them, largest
    first, one row per matrix; without it they come from one batched SVD.
    Returns the members of each context, the products and the residuals.
    """
    eps = tol.eps_entry
    # An overflow shows as an inf or NaN residual, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        products, residuals = _measure(stack) if measured is None else measured
        herm = np.abs(stack - stack.conj().swapaxes(2, 3)).max(axis=(2, 3), initial=0.0)
    idem = products.diagonal(axis1=1, axis2=2)
    if not (herm.max() <= eps and idem.max() <= eps):
        c, i = np.argwhere(~((herm <= eps) & (idem <= eps)))[0]
        if not herm[c, i] <= eps:
            raise NotHermitianError(float(herm[c, i]), eps)
        raise NotIdempotentError(float(idem[c, i]), eps)
    if singular is None:
        singular = np.linalg.svd(stack, compute_uv=False)
    ranks = linalg.singular_rank(singular, tol).tolist()
    stack.setflags(write=False)
    members = [
        tuple(
            Projector(matrix=matrix, rank=rank, label=label)
            for matrix, rank, label in zip(matrices, context_ranks, context_labels)
        )
        for matrices, context_ranks, context_labels in zip(stack, ranks, labels)
    ]
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
    # Set for a context built from a basis: its (m, n) vectors, read-only, with
    # member i equal to the outer product of row i with its conjugate.
    _rays: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    A context from ``validate_context`` or ``context_from_basis`` reports
    the residuals measured there, for a basis from its Gram matrix; one
    built by hand has them computed now from its members' products.
    """
    if ctx._residuals is None:
        return _measure(np.array([[p.matrix for p in ctx.members]]))[1][0]
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
    products, residuals = _measure(np.array([[p.matrix for p in members]]))
    return _checked_context(members, products[0], residuals[0], tol, name)


def _checked_context(
    members: tuple[Projector, ...],
    products: np.ndarray,
    residuals: dict[str, float],
    tol: TolerancePolicy,
    name: str,
) -> MaximalContext:
    """The context of ``members``, from the products and residuals ``_checked_stack`` returns.

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
    if labels is None:
        labels = [f"{name}[{i}]" for i in range(len(rows))]
    return _basis_contexts(rows[None], tol, [name], [labels])[0]


def _basis_contexts(
    rows: np.ndarray, tol: TolerancePolicy, names, labels
) -> list[MaximalContext]:
    """The rank-1 contexts of C bases, checked as one stack.

    Row i of ``rows[c]`` is vector i of basis c, which becomes member
    ``v v^H`` of context ``names[c]``, labelled ``labels[c][i]``. One Gram
    matrix per basis gives its orthonormality residual and, through
    ``_rank1_products``, the pairwise products and idempotency residuals,
    so no two members are multiplied. The outer products and
    ``_checked_stack`` take one pass over all C bases, and every slice is
    computed as for the basis alone. Each context keeps its basis, read-only,
    as ``_rays``. A failing check raises for the first basis that fails
    that check, so for C = 1 this is ``context_from_basis``. For C > 1 an
    earlier basis may fail a check made later; a caller that needs the
    first failing basis in order checks the bases one at a time once this
    raises.
    """
    count, m, n = rows.shape
    eps = tol.eps_entry
    # V^H V with the vectors as the columns of V.
    stacked = np.ascontiguousarray(rows.transpose(0, 2, 1))
    gram = stacked.conj().transpose(0, 2, 1) @ stacked
    offsets = np.abs(gram - np.eye(m))
    orthonormal = offsets.max(axis=(1, 2))
    if not (orthonormal <= eps).all():
        raise NotOrthonormalError(float(orthonormal[~(orthonormal <= eps)][0]), eps)
    if m != n:
        raise NotCompleteError(m, n)
    for name, context_labels in zip(names, labels):
        if len(context_labels) != m:
            raise ValidationError(
                f"context {name!r}: {len(context_labels)} labels for {m} vectors"
            )
    # One owner of every member, shaped (C m, n, n).
    flat = rows.reshape(-1, n)
    stack = flat[:, :, None] * flat.conj()[:, None, :]
    stack.setflags(write=False)
    rows.setflags(write=False)
    # v v^H has one nonzero singular value, |v|^2, so its rank needs no SVD.
    singular = gram.diagonal(axis1=1, axis2=2).real[..., None]
    stack = stack.reshape(count, m, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        products = _rank1_products(rows, offsets)
        measured = products, _residuals(products, stack)
    members, products, residuals = _checked_stack(stack, tol, labels, singular, measured)
    contexts = [
        _checked_context(*checked, tol, name)
        for checked, name in zip(zip(members, products, residuals), names)
    ]
    for ctx, rays in zip(contexts, rows):
        object.__setattr__(ctx, "_rays", rays)
    return contexts


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

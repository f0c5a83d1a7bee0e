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
from functools import reduce
from operator import iadd
from typing import NamedTuple

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

# Entries, in complex128 (4 MB), of each block of Gram entries that
# ``_range_screen`` forms and of each block of member differences that
# ``ContextCollection`` measures.
_CHUNK_ENTRIES = 1 << 18
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True, eq=False)
class Projector:
    """A validated self-adjoint idempotent matrix with its rank, range and gap.

    Rank and range are one decision, made once. The checks keep, in
    ``_range``, a read-only ``(n, rank)`` orthonormal basis Q, a view: of
    the columns ``_kept_ranges`` keeps, the first ``rank`` left singular
    vectors of the SVD that ranked a matrix member, or of a ray member's
    ray. It is the member's only copy of its range: every range stack,
    the overlap rule's included, is ``_padded`` of such bases. ``_gap``
    bounds ``|P - Q Q^H|_F`` (``_kept_ranges``); a ray member's is 0. A
    projector built by hand takes both from one SVD when first read; a
    matrix that is not finite raises ``ValidationError`` then.
    """

    matrix: np.ndarray
    rank: int
    label: str
    _range: np.ndarray | None = field(default=None, repr=False)
    _gap: float | None = field(default=None, repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def _factors(self) -> tuple[np.ndarray, float]:
        """The kept range basis and gap, taken now for a hand-built projector."""
        if self._range is None:
            matrix = linalg.as_complex_matrix(self.matrix)
            u = np.linalg.svd(matrix)[0]
            # A gap whose norm overflows is +inf.
            with np.errstate(over="ignore"):
                rows, gaps = _kept_ranges(matrix[None], u[None], [self.rank])
            object.__setattr__(self, "_range", rows.T)
            object.__setattr__(self, "_gap", float(gaps[0]))
        return self._range, self._gap

    def range(self) -> Subspace:
        """Column space: the vectors the projector fixes."""
        return Subspace(self.ambient_dim, self._factors()[0])

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


def _products(norms: np.ndarray, ranges: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Bounds on ``max|Pi Pj|`` for the member pairs of contexts, read off their kept ranges.

    Per context, ``ranges`` is the (m, w, n) range stack (``_padded``) of
    the members' kept ranges Q_i, ``gaps`` their gaps g_i (``_kept_ranges``)
    and ``norms`` the (m, m) ``|Q_i^H Q_j|_F``; leading axes run over
    contexts. Entry (i, j) is ``rho_i |Q_i^H Q_j|_F rho_j + g_i (1 + g_j) +
    g_j``, rho_i the largest row norm of Q_i, so no two members are
    multiplied. With ``P_i = Q_i Q_i^H + E_i``, ``|E_i|_F <= g_i``, and ``A =
    Q_i^H Q_j``, ``P_i P_j = Q_i A Q_j^H + E_i P_j + Q_i Q_i^H E_j``: an entry
    of the first term is a row of Q_i times A times a row of Q_j, at most
    ``rho_i |A|_2 rho_j``, and those of the others are at most ``g_i |P_j|_2
    <= g_i (1 + g_j)`` and ``g_j``, as ``|Q|_2 = 1``. A ray member has gap 0
    and ``rho = max|v|``: with ``norms = |G - I|`` for the Gram matrix G of
    its basis, entry (i, j) is ``|<v_i, v_j>| p_i p_j`` and the diagonal
    ``|G_ii - 1| p_i^2`` is ``max|Pi Pi - Pi|``. Any other member's diagonal
    entry means nothing.

    Rounding, with u the unit roundoff, ``gamma_k = k u / (1 - k u)`` and
    ``s_i = |Q_i|_F^2``: a Gram entry's parts are 2n-term dot products, so
    the computed ``Q_i^H Q_j`` lies within ``sqrt(2) gamma_2n sqrt(s_i s_j)``
    of A in Frobenius norm. Its norm (squares, a sum of ``w^2`` terms, a
    root), the row norms (``hypot``, a square, a w-term sum, a root) and the
    two products lose at most ``gamma_(w^2 + w + 12)`` of the first term,
    which is at most about ``rho_i rho_j sqrt(s_i s_j)``. So, to first
    order, the computed bound lies below ``max|Pi Pj|`` by at most
    ``gamma_(3n + w^2 + w + 12) rho_i rho_j sqrt(s_i s_j)``, plus ``2
    sqrt(2) gamma_2 p_i p_j`` for the rounding of a ray member's stored ``v
    v^H``: about ``3 (n + 9) u p_i p_j`` for rank 1, the size of the
    rounding of the dense ``fl(Pi Pj)``. The three roundings of the gap
    terms fall within the spare units of each gap, and ``|Q|_2^2 = 1 + O(n
    u)`` for a computed Q adds ``O(n u) (g_i + g_j)``, of second order. The
    root of the rounded square of h is h, so a ray's rho is ``max|v|`` bit
    for bit.
    """
    peaks = np.sqrt(np.square(np.abs(ranges)).sum(axis=-2).max(axis=-1, initial=0.0))
    bounds = norms * peaks[..., :, None] * peaks[..., None, :]
    bounds += gaps[..., :, None] * (1 + gaps[..., None, :]) + gaps[..., None, :]
    return bounds


def _residuals(products: np.ndarray, sums: np.ndarray) -> list[dict[str, float]]:
    """The residuals ``context_residuals`` reports, one dict per context.

    ``pairwise_product`` is the largest off-diagonal entry of ``products``
    and ``sum_minus_identity`` is ``max|S - I|`` for the context's member
    sum S, one of the (C, n, n) ``sums``. Each S is added in place in
    member order (``reduce``): ``np.sum`` may add pairwise, and
    ``np.add.accumulate`` keeps every partial sum.
    """
    m, n = products.shape[1], sums.shape[1]
    pairwise = np.where(np.eye(m, dtype=bool), 0.0, products).max(axis=(1, 2))
    sums = np.abs(sums - np.eye(n)).max(axis=(1, 2), initial=0.0)
    return [
        {"pairwise_product": p, "sum_minus_identity": s}
        for p, s in zip(pairwise.tolist(), sums.tolist())
    ]


def _kept_ranges(stack: np.ndarray, u: np.ndarray, ranks) -> tuple[np.ndarray, np.ndarray]:
    """The ranges and gaps of the (m, n, n) ``stack``, from its left singular vectors.

    Member i's range Q_i is the first ``ranks[i]`` columns of ``u[i]``. The
    read-only (sum(ranks), n) array returned holds them as rows, member by
    member, so Q_i is the transpose of its block of rows. Gap ``g = (d +
    2 gamma_(2n+2) s) (1 + gamma_(2n^2+16))`` bounds ``|P_i - Q_i
    Q_i^H|_F``, ``gamma_k = k u / (1 - k u)``: ``fl(Q Q^H)`` lies within
    ``sqrt(2) gamma_(2n+2) |Q|_F^2`` of ``Q Q^H``, the 2 covering the
    rounding of Q's computed square sum s, and the computed norm d of ``P -
    fl(Q Q^H)`` is within ``gamma_(2n^2+4)`` of the exact one; 12 spare units
    cover the roundings of g and of the screen's limit. The products are
    taken with each Q_i zero-padded to the largest rank.
    """
    n, width = stack.shape[1], max(ranks, default=0)
    kept = np.arange(width) < np.array(ranks, dtype=int)[:, None]
    q = np.where(kept[:, None, :], u[:, :, :width], 0)
    flat = q.reshape(len(q), n * width).view(np.float64)
    # ``Q Q^H - P`` in place: its norm is that of ``P - Q Q^H``, bit for bit.
    residual = q @ q.conj().swapaxes(1, 2)
    residual -= stack
    gaps = np.linalg.norm(residual, axis=(1, 2))
    gaps += 2 * _dot_bound(2 * n + 2) * np.einsum("ij,ij->i", flat, flat)
    rows = q.swapaxes(1, 2)[kept]
    rows.setflags(write=False)
    return rows, gaps * (1 + _dot_bound(2 * n * n + 16))


def _skew_residuals(stack: np.ndarray, out=None) -> tuple[np.ndarray, float]:
    """Each matrix's largest entry of ``|S - S^H|`` in a ``(k, n, n)`` stack,
    and the Frobenius norm of the whole ``S - S^H`` stack: the Hermitian
    residuals of the loader's member checks and of ``is_irreducible``.

    Both come from one pass over one stack-sized array, the temporary that
    holds ``S^H``, or ``out`` when given. A matrix's largest entry is NaN
    when any is, and a NaN compares false with any tolerance: the loader's
    ``<=`` check fails it, ``is_irreducible``'s ``>`` screen passes it. A
    difference or a magnitude that overflows is infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.conjugate(stack.transpose(0, 2, 1), out=out, order="C")
        np.subtract(stack, skew, out=skew)
        norm = float(np.linalg.norm(skew))
        np.abs(skew, out=skew)
        return skew.real.max(axis=(1, 2), initial=0.0), norm


def _member_residuals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian residual (``_skew_residuals``) and the idempotency
    residual ``max|P P - P|`` of each member of an (M, n, n) stack, both
    formed in one stack-sized buffer. An overflow shows as an inf or NaN
    residual."""
    work = np.empty_like(stack)
    herm = _skew_residuals(stack, work)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(stack, stack, out=work)
        work -= stack
        return herm, np.abs(work, out=work).real.max(axis=(1, 2), initial=0.0)


def _checked_stack(stack: np.ndarray, tol: TolerancePolicy, labels, names=(), counts=()):
    """Projectors on read-only views of the (M, n, n) ``stack``, and the contexts they form.

    ``labels[i]`` labels ``stack[i]``, and context c, named ``names[c]``, is
    the next ``counts[c]`` members; the counts cover the stack. Without
    names, as for the one matrix of ``validate_projector``, the members
    take the member checks alone and form no context. A member that fails
    the projector axioms raises what ``validate_projector`` raises for it
    alone, located as ``context <name> member <label>`` when its context is
    named.

    The whole stack takes one ``_member_residuals`` call. The members
    before the first failing one are factored by one batched SVD: a
    member's rank counts its singular values above the
    ``linalg.singular_rank`` cutoff, and its range and gap are those of
    ``_kept_ranges``, its range a view of the one array of kept rows. Each
    context whose members all pass is then checked by ``validate_context``.
    Errors come in document order: those contexts are checked in turn, and
    then the first failing member raises. Returns the members that pass and
    the contexts.
    """
    eps = tol.eps_entry
    herm, idem = _member_residuals(stack)
    passed = (herm <= eps) & (idem <= eps)
    good = len(passed) if passed.all() else int(np.argmin(passed))
    # The right singular vectors are dropped at once.
    u, s = np.linalg.svd(stack[:good])[:2]
    ranks = linalg.singular_rank(s, tol)
    rows, gaps = _kept_ranges(stack[:good], u, ranks.tolist())
    stack.setflags(write=False)
    starts = np.concatenate(([0], np.cumsum(ranks)))
    members = tuple(
        Projector(matrix=matrix, rank=b - a, label=label, _range=rows[a:b].T, _gap=gap)
        for matrix, label, a, b, gap in zip(
            stack, labels, starts[:-1].tolist(), starts[1:].tolist(), gaps.tolist()
        )
    )
    # The contexts before ``count`` have every member passing.
    ends = np.cumsum(np.array(counts, dtype=int))
    count = int(np.searchsorted(ends, good, side="right"))
    edges = [0, *ends[:count].tolist()]
    contexts = [
        validate_context(members[a:b], tol, name) for a, b, name in zip(edges, edges[1:], names)
    ]
    if good < len(stack):
        where = f"context {names[count]!r} member {labels[good]}" if names else None
        if not herm[good] <= eps:
            raise NotHermitianError(float(herm[good]), eps, where)
        raise NotIdempotentError(float(idem[good]), eps, where)
    return members, contexts


def is_invariant(
    subspace: Subspace, operator, tol: TolerancePolicy | None = None
) -> bool:
    """True when the operator maps the subspace into itself.

    The criterion is the Frobenius norm of the part of ``A B`` that leaks
    out of the subspace, ``|A B - B (B^H A B)|_F <= eps_subspace *
    max(max|A|, 1)`` with ``B`` the subspace basis: for an orthonormal ``B``
    that is ``|(I - Q) A Q|_F``, ``Q = B B^H``, in O(n^2 dim) work. The
    threshold is relative to the largest entry of ``A``, with the floor of
    1 that the closure's cutoff also takes, so a projector is judged
    against ``eps_subspace`` itself. ``operator`` may be a ``Projector`` or
    a plain matrix.
    """
    matrix = operator.matrix if isinstance(operator, Projector) else operator
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"operator dimension {arr.shape[0]} != ambient {subspace.ambient_dim}"
        )
    basis = subspace.basis
    image = arr @ basis
    leak = float(np.linalg.norm(image - basis @ (basis.conj().T @ image)))
    return leak <= resolve(tol).eps_subspace * float(np.abs(arr).max(initial=1.0))


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

    A context from ``validate_context``, ``context_from_basis`` or a
    document reports the residuals taken there; one built by hand has them
    taken now, as ``validate_context`` takes them (``_range_residuals``).
    ``pairwise_product`` is a bound (``_products``); in a context the checks
    built, a pair whose bound exceeded ``eps_entry`` reads its measured
    dense value instead (``_checked_context``), which a hand-built context,
    having no tolerance, does not take.
    """
    if ctx._residuals is None:
        return _range_residuals(ctx.members)[2]
    return dict(ctx._residuals)


def validate_context(
    projectors, tol: TolerancePolicy | None = None, name: str = "context"
) -> MaximalContext:
    """Check the maximal-context axioms over already-validated projectors.

    This is the one check of a matrix context, a document's included
    (``_checked_stack``): ``_checked_context`` on the bounds and residuals
    of ``_range_residuals``, then the overlap rule. No two ranges may
    overlap by ``|Q_i^H Q_j|_F > eps_subspace``, read off the same Gram
    matrix, the rule by which ``intersect_lattices`` rejects a family: the
    entrywise bound ``max|Pi Pj| <= eps_entry`` lets rays spread over C^n
    overlap about n times more. The first such pair (i, j) in row-major
    order raises a ``ValidationError``. So a checked context's ranges are
    atoms ``intersect_lattices`` accepts. A basis needs no such check: its
    overlaps are Gram entries, within ``eps_entry``.
    """
    tol = resolve(tol)
    members = tuple(projectors)
    if not members:
        raise ValidationError(f"context {name!r} has no members")
    linalg._common_dim(
        (p.ambient_dim for p in members), f"context {name!r}: mixed ambient dimensions"
    )
    products, overlaps, residuals = _range_residuals(members)
    ctx = _checked_context(members, products, residuals, tol, name)
    np.fill_diagonal(overlaps, 0.0)
    limit = tol.eps_subspace ** 2
    if not overlaps.max(initial=0.0) <= limit:
        i, j = np.argwhere(~(overlaps <= limit))[0].tolist()
        raise ValidationError(
            f"context {name!r}: members {min(i, j)} and {max(i, j)} overlap: "
            f"|Qi^H Qj|_F = {np.sqrt(overlaps[i, j]):.3e} > {tol.eps_subspace:.3e}"
        )
    return ctx


def _checked_context(
    members: tuple[Projector, ...],
    products: np.ndarray,
    residuals: dict[str, float],
    tol: TolerancePolicy,
    name: str,
) -> MaximalContext:
    """The context of ``members``, from the bounds of ``_products`` and the
    residuals of ``_residuals``.

    A pair whose bound is not within ``eps_entry`` is measured as
    ``max(max|Pi Pj|, max|Pj Pi|)`` from its two dense products: a gap
    carries a rounding allowance of about ``4 n r u`` for rank r, which
    alone would reject exactly orthogonal members of large rank, as
    ``diag(I_32, 0)`` and ``diag(0, I_32)``, whose bound is 1.8e-12. So the
    checks accept what the dense products accept, and a context whose
    bounds pass takes no product of two members. The measured value
    replaces the bound in the reported ``pairwise_product``.

    The first pair (i, j) in row-major order that fails, then the sum,
    raises; a residual that is NaN fails. Last, a ``ValidationError`` names
    the member ranks when they do not sum to the dimension, as when a
    singular value between ``eps_rank`` and ``eps_entry`` counts as rank,
    so a checked context's ranges are the atoms of a Boolean family.
    """
    eps = tol.eps_entry
    if not residuals["pairwise_product"] <= eps:
        pairwise = np.maximum(products, products.T)
        np.fill_diagonal(pairwise, 0.0)
        # Symmetric with a zero diagonal: the pairs i < j in row-major order.
        for i, j in np.argwhere(np.triu(~(pairwise <= eps), 1)).tolist():
            a, b = members[i].matrix, members[j].matrix
            # A product that overflows is inf or NaN, which fails.
            with np.errstate(over="ignore", invalid="ignore"):
                pairwise[i, j] = pairwise[j, i] = np.abs([a @ b, b @ a]).max()
            if not pairwise[i, j] <= eps:
                raise PairwiseProductNonzeroError(name, i, j, float(pairwise[i, j]), eps)
        residuals = {**residuals, "pairwise_product": float(pairwise.max())}
    if not residuals["sum_minus_identity"] <= eps:
        raise SumNotIdentityError(name, residuals["sum_minus_identity"], eps)
    ranks = [p.rank for p in members]
    if sum(ranks) != members[0].ambient_dim:
        raise ValidationError(
            f"context {name!r}: member ranks {ranks} sum to {sum(ranks)}, "
            f"not to the dimension {members[0].ambient_dim}"
        )
    ctx = MaximalContext(name=name, members=members)
    object.__setattr__(ctx, "_residuals", residuals)
    return ctx


def _range_residuals(members: tuple[Projector, ...]):
    """The pairwise bounds, squared overlaps and residuals of one context.

    One Gram matrix of the members' ``_padded`` kept ranges gives every
    ``|Q_i^H Q_j|_F^2`` (``_overlaps``), whose roots ``_products`` turns
    into bounds on ``max|Pi Pj|``. The member sum is added in place in
    member order, as ``_residuals`` asks. A gap or a sum that overflowed
    gives an inf or NaN residual, which fails.
    """
    bases, gaps = zip(*(p._factors() for p in members))
    ranges = _padded(bases)
    overlaps = _overlaps(ranges, ranges)
    with np.errstate(over="ignore", invalid="ignore"):
        products = _products(np.sqrt(overlaps), ranges, np.array(gaps))
        first = np.array(members[0].matrix, dtype=complex)
        total = reduce(iadd, (p.matrix for p in members[1:]), first)
        return products, overlaps, _residuals(products[None], total[None])[0]


def context_from_basis(
    vectors,
    tol: TolerancePolicy | None = None,
    name: str = "context",
    labels: list[str] | None = None,
) -> MaximalContext:
    """Rank-1 context ``v v^H`` from an orthonormal basis of the ambient space."""
    tol = resolve(tol)
    # Each vector is coerced on its own, so an error names what is wrong with it.
    vecs = [linalg.as_state_vector(v) for v in vectors]
    if not vecs:
        raise ValidationError(f"context {name!r} needs at least one basis vector")
    linalg._common_dim((v.shape[0] for v in vecs), f"context {name!r}: mixed vector dimensions")
    rows = np.array(vecs)
    if labels is None:
        labels = [f"{name}[{i}]" for i in range(len(rows))]
    if len(labels) != len(rows):
        raise ValidationError(f"context {name!r}: {len(labels)} labels for {len(rows)} vectors")
    return _basis_contexts(rows, np.arange(len(rows))[None], tol, [name], labels)[0]


def _basis_contexts(
    rays: np.ndarray, groups: np.ndarray, tol: TolerancePolicy, names, labels
) -> list[MaximalContext]:
    """The rank-1 contexts of C bases drawn from one set of rays, checked as one stack.

    Row k of the (R, n) ``rays`` is a vector labelled ``labels[k]``; row c
    of the (C, m) integer ``groups`` lists the rays of basis c in order,
    which becomes context ``names[c]``. Each ray becomes one read-only
    matrix ``v v^H``, and a ray that a basis names one ``Projector`` that
    every basis naming it shares, so a repeat is the same object wherever
    it occurs. One Gram matrix per basis gives its orthonormality residual
    and, through ``_products``, the pairwise bounds and idempotency
    residuals, so no two members are multiplied. Its diagonal gives the
    ranks, since ``v v^H`` has the one nonzero singular value ``|v|^2``; a
    shared ray takes the rank of its first occurrence. No Hermitian
    residual is taken: entries (a, b) and (b, a) of ``v v^H`` are rounded
    from the same real products, so they are conjugate up to a few units of
    roundoff times ``max|v_a|^2``, inside the rounding of ``_products``.
    The outer products take one pass over the rays that some basis names,
    each computed as for the ray alone, and a basis's member sum reads them
    through ``groups``; a ray no basis names gets none. Each member's range
    is its ray, a one-column read-only view of the rays, with gap 0 (the
    registry screen covers the rounding of ``v v^H``); a basis with a
    member of rank 0 fails the rank-sum check of ``_checked_context``.

    Errors come in basis order, each basis's checks in the order
    ``context_from_basis`` makes them: one mask marks the bases that fail
    orthonormality, completeness (m = n) or idempotency; the bases before
    the first marked one take the pairwise, sum and rank checks of
    ``_checked_context`` in turn, and then the marked basis raises its own
    error. So the first failing basis raises what it raises on its own,
    with ``context <name>`` (and ``member <label>`` for a member) in its
    message, from a document load and ``context_from_basis`` alike.
    """
    m, n = groups.shape[1], rays.shape[1]
    eps = tol.eps_entry
    named = np.zeros(len(rays), dtype=bool)
    named[groups] = True
    if not named.all():
        groups, rays = (np.cumsum(named) - 1)[groups], rays[named]
        labels = [labels[k] for k in np.flatnonzero(named).tolist()]
    rows = rays[groups]
    # V^H V with the vectors as the columns of V.
    stacked = np.ascontiguousarray(rows.transpose(0, 2, 1))
    gram = stacked.conj().transpose(0, 2, 1) @ stacked
    offsets = np.abs(gram - np.eye(m))
    orthonormal = offsets.max(axis=(1, 2))
    # Only a basis that fails orthonormality can overflow. ``worst`` is each
    # basis's larger residual; a NaN stays NaN and fails.
    with np.errstate(over="ignore", invalid="ignore"):
        products = _products(offsets, rows[:, :, None], np.zeros(groups.shape))
        idem = products.diagonal(axis1=1, axis2=2)
        worst = np.maximum(orthonormal, idem.max(axis=1))
        count = len(worst)
        if m != n or not worst.max() <= eps:
            count = int(np.argmax(~(worst <= eps) | (m != n)))
        matrices = rays[:, :, None] * rays.conj()[:, None, :]
        terms = (matrices[groups[:count, i]] for i in range(1, m))
        sums = reduce(iadd, terms, matrices[groups[:count, 0]])
        residuals = _residuals(products[:count], sums)
    for owner in (matrices, rays):
        owner.setflags(write=False)
    ranks = linalg.singular_rank(gram.diagonal(axis1=1, axis2=2).real[..., None], tol).tolist()
    # (R, n, 1): each ray as a column, its member's range.
    columns = rays[..., None]
    shared: dict[int, Projector] = {}
    contexts = []
    for c, name in enumerate(names[:count]):
        for k, rank in zip(groups[c].tolist(), ranks[c]):
            if k not in shared:
                shared[k] = Projector(matrices[k], rank, labels[k], _range=columns[k], _gap=0.0)
        members = tuple(shared[k] for k in groups[c].tolist())
        contexts.append(_checked_context(members, products[c], residuals[c], tol, name))
    if count < len(worst):
        where = f"context {names[count]!r}"
        if not orthonormal[count] <= eps:
            raise NotOrthonormalError(float(orthonormal[count]), eps, where)
        if m != n:
            raise NotCompleteError(m, n, where)
        i = np.flatnonzero(~(idem[count] <= eps))[0]
        member = f"{where} member {labels[groups[count, i]]}"
        raise NotIdempotentError(float(idem[count, i]), eps, member)
    return contexts


def _dot_bound(terms: int) -> float:
    """``k u / (1 - k u)``: the rounding error bound of a k-term real dot product."""
    gamma = _UNIT_ROUNDOFF * terms
    return gamma / (1 - gamma)


def _padded(bases) -> np.ndarray:
    """The (K, w, n) range stack of K (n, r) bases: entry k is ``bases[k]``
    transposed, zero-padded to the largest width w, at least 1. Equal
    nonzero widths take one ``np.array`` call."""
    widths = {basis.shape[1] for basis in bases}
    if len(widths) == 1 and 0 not in widths:
        columns = np.array(bases)
    else:
        columns = np.zeros((len(bases), bases[0].shape[0], max(widths | {1})), dtype=complex)
        for column, basis in zip(columns, bases):
            column[:, : basis.shape[1]] = basis
    return np.ascontiguousarray(columns.swapaxes(1, 2))


def _overlaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``|Q_a^H Q_b|_F^2 = <Q_a Q_a^H, Q_b Q_b^H>_F`` for each range Q_a of
    ``left`` and Q_b of ``right``, range stacks whose zero rows add nothing."""
    n, w, v = left.shape[2], left.shape[1], right.shape[1]
    gram = left.reshape(-1, n).conj() @ right.reshape(-1, n).T
    squares = gram.real ** 2
    squares += gram.imag ** 2
    # Row i of range a is row a w + i of the Gram matrix.
    down = sum((squares[i::w] for i in range(1, w)), squares[::w])
    return sum((down[:, j::v] for j in range(1, v)), down[:, ::v])


def _range_screen(ranges: np.ndarray, gaps: np.ndarray, tol: TolerancePolicy):
    """The member pairs ``(later, earlier)`` that may lie within ``eps_subspace``.

    ``ranges`` is the members' (K, r, n) range stack (``_padded``) and
    ``gaps`` theirs.
    They are screened in blocks of ``_CHUNK_ENTRIES`` Gram entries against
    the earlier members, by ``|A - B|_F^2 = |Q_a^H Q_a|_F^2 + |Q_b^H
    Q_b|_F^2 - 2 |Q_a^H Q_b|_F^2`` for ``A = Q_a Q_a^H`` (``_overlaps``),
    O(K^2 n r), ordered by the later member.

    No pair the norm accepts is dropped. With ``gamma_k = k u / (1 - k u)``
    and ``a = |Q_a|_F^2``, computed as s_a: a Gram entry's parts are 2n-term
    dot products, so its ``re^2 + im^2`` lies within ``(6n + 3) u |q_i|^2
    |q_j|^2`` of ``|<q_i, q_j>|^2`` to first order, and a block sum of r^2
    terms adds ``gamma_(r^2) a b``: the estimate is within ``gamma (a +
    b)^2`` of ``|A - B|_F^2``, gamma for ``8n + 15 + r^2`` terms. An accepted
    pair has ``|P_a - P_b|_F <= eps_subspace (1 + gamma_F)``, ``gamma_F`` for
    ``2n^2 + 8`` terms, so ``|A - B|_F`` is at most that plus ``g_a + g_b +
    gamma S`` for ``S >= s_a + s_b``; ``gamma S`` also covers a ray member's
    stored ``v v^H``, within ``sqrt(2) gamma_2 a`` of A. With S twice the
    largest s, a pair is kept when its estimate is within that radius
    squared plus ``2 gamma S^2``, as ``(a + b)^2 <= (s_a + s_b)^2 / (1 -
    gamma_(2nr))^2``. A gap that overflowed is +inf and keeps its member's
    pairs. The limit's roundings fall within the slack of the ``+ 8``, the
    gaps and that 2. With ranks 1 and gaps 0 it is ``(eps_subspace (1 +
    gamma_F) + gamma S)^2 + 2 gamma S^2`` for every pair.
    """
    count, width, n = ranges.shape
    flat = ranges.reshape(count, -1).view(np.float64)
    squares = np.einsum("ij,ij->i", flat, flat)
    gamma = _dot_bound(8 * n + 15 + width ** 2)
    total = 2 * squares.max()
    reach = tol.eps_subspace * (1 + _dot_bound(2 * n * n + 8)) + gamma * total + gaps
    slack = 2 * gamma * total ** 2
    own, later, earlier = np.empty(count), [], []
    step = max(1, _CHUNK_ENTRIES // (count * width * width))
    for start in range(0, count, step):
        stop = min(start + step, count)
        block = _overlaps(ranges[start:stop], ranges[:stop])
        own[start:stop] = block.diagonal(start)
        estimate = np.add.outer(own[start:stop], own[:stop]) - 2 * block
        limit = np.add.outer(reach[start:stop], gaps[:stop]) ** 2 + slack
        k, j = np.nonzero(estimate <= limit)
        k += start
        later.append(k[j < k])
        earlier.append(j[j < k])
    return np.concatenate(later), np.concatenate(earlier)


class RegistryEntry(NamedTuple):
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
        self.ambient_dim = linalg._common_dim(
            (ctx.ambient_dim for ctx in members), "mixed ambient dimensions:"
        )
        self.contexts = members
        self.registry = self._build_registry(resolve(tol))

    def _build_registry(self, tol: TolerancePolicy) -> tuple[RegistryEntry, ...]:
        """One identity per representative, in order of first occurrence.

        Each member takes the identity of the first earlier representative
        it is close to, ``np.linalg.norm(rep - member) <= eps_subspace``, or
        becomes a representative itself. A repeat, the same ``Projector``
        object as an earlier member (a ray that several groups of a document
        name), takes its first occurrence's identity: the first
        representative close to the one is the first close to the other.
        The norm is taken only for the pairs of other members that
        ``_range_screen`` keeps from their kept ranges and gaps, whatever
        form the contexts came in (a member built by hand takes them from
        one SVD, and one whose matrix is not finite raises
        ``ValidationError``). The screen may keep a pair too many, never one
        too few, so the identities are those of comparing each member with
        every earlier representative. Sets ``_identities``, one list per
        context, and ``_merged``, the ``(context, member)`` positions that
        took an identity at a nonzero distance from its representative.
        """
        projectors = [p for ctx in self.contexts for p in ctx.members]
        seen: dict[int, int] = {}
        first = [seen.setdefault(id(p), k) for k, p in enumerate(projectors)]
        kept = np.fromiter(seen.values(), np.intp, len(seen))
        bases, gaps = zip(*(projectors[k]._factors() for k in kept.tolist()))
        screened = _range_screen(_padded(bases), np.array(gaps, dtype=float), tol)
        later, earlier = (kept[ks] for ks in screened)

        def matrices(ks):
            return np.array([projectors[k].matrix for k in ks.tolist()])

        distances = np.empty(len(later))
        step = max(1, _CHUNK_ENTRIES // (projectors[0].matrix.size or 1))
        for start in range(0, len(later), step):
            part = slice(start, start + step)
            # A distance that overflows is +inf, which is not close.
            with np.errstate(over="ignore"):
                distances[part] = np.linalg.norm(
                    matrices(earlier[part]) - matrices(later[part]), axis=(1, 2)
                )
        close = distances <= tol.eps_subspace
        # Pairs come ordered by the later member, then the earlier one, so the
        # earlier member's representative is settled when it is read.
        owner = list(range(len(projectors)))
        merged = [False] * len(projectors)
        for k, j, distance in zip(
            later[close].tolist(), earlier[close].tolist(), distances[close].tolist()
        ):
            if owner[k] == k and owner[j] == j:
                owner[k], merged[k] = j, distance > 0
        # Each representative precedes the members it owns, so identities are
        # numbered in order of first occurrence.
        index: dict[int, int] = {}
        found = [index.setdefault(owner[j], len(index)) for j in first]
        positions = [(ci, mi) for ci, ctx in enumerate(self.contexts) for mi in range(len(ctx))]
        occurrences: list[list[tuple[int, int]]] = [[] for _ in index]
        self._identities = [[] for _ in self.contexts]
        for (ci, mi), i in zip(positions, found):
            occurrences[i].append((ci, mi))
            self._identities[ci].append(i)
        self._merged = {position for position, j in zip(positions, first) if merged[j]}
        return tuple(
            RegistryEntry(i, projectors[k], tuple(occ))
            for i, (k, occ) in enumerate(zip(index, occurrences))
        )

    def identity_of(self, context_index: int, member_index: int) -> int:
        """Registry identity of one context member."""
        return self._identities[context_index][member_index]

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
    stacks = {
        "z": np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex),
        "x": half * np.array([[[1, 1], [1, 1]], [[1, -1], [-1, 1]]], dtype=complex),
        "y": half * np.array([[[1, -1j], [1j, 1]], [[1, 1j], [-1j, 1]]], dtype=complex),
    }
    tol = resolve(tol)
    labels = [f"P{k}_{name}" for name in stacks for k in (1, 2)]
    stack = np.concatenate(list(stacks.values()))
    contexts = _checked_stack(stack, tol, labels, list(stacks), [2] * len(stacks))[1]
    return ContextCollection(contexts, tol)

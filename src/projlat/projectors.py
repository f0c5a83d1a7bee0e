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
from itertools import groupby
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

# Entries, in complex128 (4 MB), of the block of pairwise products that
# ``_measure`` holds at once, or of one row of them if that is larger. The
# whole product of one 64-member context in C^64 would be 268 MB.
# ``ContextCollection`` screens and measures registry pairs in blocks of
# about the same size.
_CHUNK_ENTRIES = 1 << 18
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True, eq=False)
class Projector:
    """A validated self-adjoint idempotent matrix with its rank, range and gap.

    Rank and range are one decision, made once. The checks keep, in
    ``_range``, a read-only ``(n, rank)`` orthonormal basis Q, a view: of
    the columns ``_kept_ranges`` keeps, the first ``rank`` left singular
    vectors of the SVD that ranked a matrix member, or of a ray member's
    ray. It is the member's only copy of its range: every range stack is
    ``_padded`` of such bases, or their columns stacked as rows. ``_gap``
    bounds ``|P - Q Q^H|_F`` (``_kept_ranges``); a ray member's is 0. A projector built by hand takes both from one SVD when
    first read; a matrix that is not finite raises ``ValidationError`` then.
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

    def kernel(self) -> Subspace:
        """Null space: the complement of the range, from one complete QR of its basis."""
        q = np.linalg.qr(self._factors()[0], mode="complete")[0]
        return Subspace(self.ambient_dim, q[:, self.rank :])

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


def _measure(stack: np.ndarray, counts=None):
    """Every in-context product of an (M, n, n) member stack, and the residuals.

    Context c is the next ``counts[c]`` members; without ``counts`` the stack
    is one context, whose products and residuals come alone rather than in
    lists. In a context's (m, m) products, entry (i, j) is ``max|Pi Pj|``
    for i != j, and the diagonal holds the idempotency residuals
    ``max|Pi Pi - Pi|``. Each run of consecutive contexts with m members
    each is a (k, m, n, n) stack, whose products are taken as ``S[:, rows,
    None] @ S[:, None, :]`` over blocks of whole contexts, or of rows of one
    context, each block under ``_CHUNK_ENTRIES`` entries or one row; so a
    block runs across context boundaries, and the temporaries never hold
    the whole (k, m, m, n, n) product. The residuals are those of
    ``_residuals``, each member sum added in place in member order, one
    batched addition per member position of a run.
    """
    sizes = [len(stack)] if counts is None else list(counts)
    n = stack.shape[1]
    products, residuals, start = [], [], 0
    for m, run in groupby(sizes):
        k = len(list(run))
        run = stack[start : start + k * m].reshape(k, m, n, n)
        start += k * m
        measured = np.empty((k, m, m))
        rows = max(1, _CHUNK_ENTRIES // (m * n * n))
        per = max(1, rows // m)
        for c in range(0, k, per):
            part = run[c : c + per]
            for first in range(0, m, rows):
                block = part[:, first : first + rows, None] @ part[:, None, :]
                # Row r of the block holds P_(first + r) @ P_j; its square is at j = first + r.
                diagonal = np.arange(block.shape[1])
                block[:, diagonal, first + diagonal] -= part[:, first : first + rows]
                measured[c : c + per, first : first + rows] = np.abs(block).max(
                    axis=(3, 4), initial=0.0
                )
        products += list(measured)
        sums = reduce(iadd, run.swapaxes(0, 1)[1:], run[:, 0].copy())
        residuals += _residuals(measured, sums)
    if counts is None:
        return products[0], residuals[0]
    return products, residuals


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


def _checked_stack(stack: np.ndarray, tol: TolerancePolicy, labels, names=(), counts=()):
    """Projectors on read-only views of the (M, n, n) ``stack``, and the contexts they form.

    ``labels[i]`` labels ``stack[i]``, and context c, named ``names[c]``, is
    the next ``counts[c]`` members. Members after the last context take the
    member checks alone: those of a document context cut short by a member
    that does not parse, named ``names[len(counts)]``, or the one matrix of
    ``validate_projector``, which gives no names. A member that fails the
    projector axioms raises what ``validate_projector`` raises for it alone,
    located as ``context <name> member <label>`` when its context is named.

    The whole stack takes one ``_measure`` pass and one Hermitian residual
    call. The members before the first failing one are factored by one
    batched SVD: a member's rank counts its singular values above the
    ``linalg.singular_rank`` cutoff, and its range and gap are those of
    ``_kept_ranges``, its range a view of the one array of kept rows. Each
    context whose members all pass then takes the checks of
    ``_checked_context`` and the overlap rule (``_check_overlaps``), whose
    Gram matrices are taken for all contexts in one ``_range_overlaps``
    call. Errors come in document order: those contexts are checked in
    turn, and then the first failing member raises. Returns the members
    that pass and the contexts.
    """
    eps = tol.eps_entry
    sizes = np.array(counts, dtype=int)
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    loose = len(stack) - int(ends[-1] if len(ends) else 0)
    # An overflow shows as an inf or NaN residual, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        products, residuals = _measure(stack, sizes.tolist() + [loose] * (loose > 0))
        # ``S - S^H``, formed in the one temporary that holds ``S^H``.
        skew = stack.conj().swapaxes(1, 2)
        np.subtract(stack, skew, out=skew)
        herm = np.abs(skew).max(axis=(1, 2), initial=0.0)
        del skew
    idem = np.concatenate([p.diagonal() for p in products])
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
    # The first ``count`` contexts have every member passing; of those, each
    # whose ranks sum to n has a block of n kept rows for the overlap rule.
    count = int(np.searchsorted(ends, good, side="right"))
    covered = int(ends[count - 1]) if count else 0
    n = stack.shape[1]
    spans = starts[ends[:count]] - starts[firsts[:count]]
    blocks = starts[firsts[:count][spans == n], None] + np.arange(n)
    # The position of each kept row's member within its context.
    place = np.arange(covered) - np.repeat(firsts[:count], sizes[:count])
    overlaps = _range_overlaps(rows[blocks], np.repeat(place, ranks[:covered])[blocks])
    contexts = []
    for c in range(count):
        ctx = _checked_context(
            members[firsts[c] : ends[c]], products[c], residuals[c], tol, names[c]
        )
        # ``_checked_context`` raises for ranks that do not sum to n, so every
        # context so far has its block, and ``overlaps[c]`` is context c's.
        _check_overlaps(names[c], overlaps[c], tol)
        contexts.append(ctx)
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

    A context from ``validate_context`` or ``context_from_basis`` reports
    the residuals measured there, for a basis from its Gram matrix; one
    built by hand has them computed now from its members' products.
    """
    if ctx._residuals is None:
        return _measure(np.array([p.matrix for p in ctx.members]))[1]
    return dict(ctx._residuals)


def validate_context(
    projectors, tol: TolerancePolicy | None = None, name: str = "context"
) -> MaximalContext:
    """Check the maximal-context axioms over already-validated projectors.

    After the checks of ``_checked_context``, the members' kept ranges pass
    the overlap rule (``_check_overlaps``), as a document's matrix context
    does, so a checked context's ranges are atoms ``intersect_lattices``
    accepts.
    """
    tol = resolve(tol)
    members = tuple(projectors)
    if not members:
        raise ValidationError(f"context {name!r} has no members")
    linalg._common_dim(
        (p.ambient_dim for p in members), f"context {name!r}: mixed ambient dimensions"
    )
    products, residuals = _measure(np.array([p.matrix for p in members]))
    ctx = _checked_context(members, products, residuals, tol, name)
    bases = [p._factors()[0] for p in members]
    place = np.repeat(np.arange(len(bases)), [basis.shape[1] for basis in bases])
    rows = np.concatenate([basis.T for basis in bases])
    _check_overlaps(name, _range_overlaps(rows[None], place[None])[0], tol)
    return ctx


def _checked_context(
    members: tuple[Projector, ...],
    products: np.ndarray,
    residuals: dict[str, float],
    tol: TolerancePolicy,
    name: str,
) -> MaximalContext:
    """The context of ``members``, from its products and residuals as
    ``_measure`` or ``_rank1_products`` give them.

    The first pair (i, j) in row-major order whose products are not within
    ``eps_entry``, then the sum, raises; a residual that is NaN fails. Last,
    a ``ValidationError`` names the member ranks when they do not sum to the
    dimension, as when a singular value between ``eps_rank`` and
    ``eps_entry`` counts as rank, so a checked context's ranges are the
    atoms of a Boolean family.
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
    ranks = [p.rank for p in members]
    if sum(ranks) != members[0].ambient_dim:
        raise ValidationError(
            f"context {name!r}: member ranks {ranks} sum to {sum(ranks)}, "
            f"not to the dimension {members[0].ambient_dim}"
        )
    ctx = MaximalContext(name=name, members=members)
    object.__setattr__(ctx, "_residuals", residuals)
    return ctx


def _range_overlaps(rows: np.ndarray, place: np.ndarray) -> np.ndarray:
    """``|Q_i^H Q_j|_F^2`` for the members i != j of K contexts, 0 for i = j.

    ``rows[c]`` holds context c's kept ranges as the n rows of an (n, n)
    array, member by member (its ranks sum to n), and ``place[c, a]`` is the
    member that row a belongs to. One batched Gram matrix gives every
    ``|<q_a, q_b>|^2``, and two products with the 0/1 matrix of row
    membership sum them by member pair; a member of rank 0 has no rows and
    overlaps nothing.
    """
    gram = rows.conj() @ rows.swapaxes(1, 2)
    squares = gram.real ** 2
    squares += gram.imag ** 2
    member = (place[..., None] == np.arange(place.max(initial=-1) + 1)).astype(float)
    overlaps = member.swapaxes(1, 2) @ squares @ member
    diagonal = np.arange(overlaps.shape[1])
    overlaps[:, diagonal, diagonal] = 0.0
    return overlaps


def _check_overlaps(name: str, overlaps: np.ndarray, tol: TolerancePolicy) -> None:
    """Raise when two members of context ``name`` overlap (``_range_overlaps``).

    No two ranges may overlap by ``|Q_i^H Q_j|_F > eps_subspace``, the rule
    by which ``intersect_lattices`` rejects a family: the entrywise bound
    ``max|Pi Pj| <= eps_entry`` lets rays spread over C^n overlap about n
    times more. The first such entry (i, j) in row-major order raises a
    ``ValidationError``. A basis needs no such check: its overlaps are Gram
    entries, within ``eps_entry``.
    """
    limit = tol.eps_subspace ** 2
    if not overlaps.max(initial=0.0) <= limit:
        i, j = np.argwhere(~(overlaps <= limit))[0].tolist()
        raise ValidationError(
            f"context {name!r}: members {min(i, j)} and {max(i, j)} overlap: "
            f"|Qi^H Qj|_F = {np.sqrt(overlaps[i, j]):.3e} > {tol.eps_subspace:.3e}"
        )


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
    rays: np.ndarray, groups: np.ndarray, tol: TolerancePolicy, names, labels, located=False
) -> list[MaximalContext]:
    """The rank-1 contexts of C bases drawn from one set of rays, checked as one stack.

    Row k of the (R, n) ``rays`` is a vector labelled ``labels[k]``; row c
    of the (C, m) integer ``groups`` lists the rays of basis c in order,
    which becomes context ``names[c]``. Each ray becomes one read-only
    matrix ``v v^H``, and a ray that a basis names one ``Projector`` that
    every basis naming it shares, so a repeat is the same object wherever
    it occurs. One Gram matrix per basis gives its orthonormality residual
    and, through ``_rank1_products``, the pairwise products and idempotency
    residuals, so no two members are multiplied. Its diagonal gives the
    ranks, since ``v v^H`` has the one nonzero singular value ``|v|^2``; a
    shared ray takes the rank of its first occurrence. No Hermitian
    residual is taken: entries (a, b) and (b, a) of ``v v^H`` are rounded
    from the same real products, so they are conjugate up to a few units of
    roundoff times ``max|v_a|^2``, inside the bound of ``_rank1_products``.
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
    message when ``located``, as in a document load.
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
        products = _rank1_products(rows, offsets)
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
        where = f"context {names[count]!r}" if located else None
        if not orthonormal[count] <= eps:
            raise NotOrthonormalError(float(orthonormal[count]), eps, where)
        if m != n:
            raise NotCompleteError(m, n, where)
        i = np.flatnonzero(~(idem[count] <= eps))[0]
        member = where and f"{where} member {labels[groups[count, i]]}"
        raise NotIdempotentError(float(idem[count, i]), eps, member)
    return contexts


def _dot_bound(terms: int) -> float:
    """``k u / (1 - k u)``: the rounding error bound of a k-term real dot product."""
    gamma = _UNIT_ROUNDOFF * terms
    return gamma / (1 - gamma)


def _padded(bases) -> np.ndarray:
    """The (K, w, n) range stack of K (n, r) bases: entry k is ``bases[k]``
    transposed, zero-padded to the largest width w. Equal widths take one
    ``np.array`` call."""
    widths = {basis.shape[1] for basis in bases}
    if len(widths) == 1:
        columns = np.array(bases)
    else:
        columns = np.zeros((len(bases), bases[0].shape[0], max(widths)), dtype=complex)
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

"""State-dependent bivaluation and the global 0/1 assignment search.

The valuation of a projector at a state is deliberately partial: it is 1
when the state lies in the range, 0 when it lies in the kernel, and
undefined otherwise. Per context this yields at most one member valued 1;
when every member is defined the values sum to exactly 1.

Independently of any state, the assignment search decides whether the
projector identities of a collection admit a global 0/1 labelling with
exactly one 1 per context, as an exact cover of the contexts by
identities. Identities are registry identities, so a projector shared by
several contexts is constrained by all of them; that sharing is what can
make the search unsatisfiable. The parity certificate is a checkable
reason for some unsatisfiable collections: contexts whose one-1 equations
sum to 0 = 1 over GF(2).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ZeroStateError
from .projectors import ContextCollection, MaximalContext, Projector
from .tolerance import TolerancePolicy, resolve


class TruthValue(enum.Enum):
    ZERO = 0
    ONE = 1
    UNDEFINED = None


def valuate(
    state, projector: Projector, tol: TolerancePolicy | None = None
) -> TruthValue:
    """Partial truth value of a projector at a nonzero state.

    ONE when ``|P psi - psi| <= eps_entry |psi|``, ZERO when
    ``|P psi| <= eps_entry |psi|``, UNDEFINED otherwise. Both thresholds
    scale with the state norm, so the value is phase- and scale-invariant.
    The state is first scaled by the power of two that brings its largest
    real or imaginary part into [1/2, 1) (``linalg.power_of_two_scaled``):
    that is exact, so no norm overflows or underflows and the value does
    not change.
    """
    tol = resolve(tol)
    psi = linalg.as_state_vector(state)
    if psi.shape[0] != projector.ambient_dim:
        raise DimensionMismatchError(
            f"state dimension {psi.shape[0]} != ambient {projector.ambient_dim}"
        )
    psi = linalg.power_of_two_scaled(psi.view(np.float64))[0].view(np.complex128)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ZeroStateError()
    image = projector.matrix @ psi
    if float(np.linalg.norm(image - psi)) <= tol.eps_entry * norm:
        return TruthValue.ONE
    if float(np.linalg.norm(image)) <= tol.eps_entry * norm:
        return TruthValue.ZERO
    return TruthValue.UNDEFINED


@dataclass(frozen=True)
class ContextValuation:
    """Per-member truth values of one context at one state."""

    context_name: str
    values: tuple[TruthValue, ...]

    @property
    def bivalent(self) -> bool:
        return TruthValue.UNDEFINED not in self.values

    @property
    def total(self) -> int | None:
        """Sum of the member values; absent when any value is undefined."""
        if not self.bivalent:
            return None
        return sum(v.value for v in self.values)


def valuate_context(
    state, ctx: MaximalContext, tol: TolerancePolicy | None = None
) -> ContextValuation:
    """Valuate every member of a context at the state."""
    return ContextValuation(
        context_name=ctx.name,
        values=tuple(valuate(state, p, tol) for p in ctx.members),
    )


@dataclass(frozen=True)
class BivalenceReport:
    """Valuation of a whole collection at one state, by registry identity."""

    values: tuple[TruthValue, ...]
    undefined_labels: tuple[str, ...]
    context_valuations: tuple[ContextValuation, ...]

    @property
    def bivalent(self) -> bool:
        return not self.undefined_labels


def bivalence_report(
    state, collection: ContextCollection, tol: TolerancePolicy | None = None
) -> BivalenceReport:
    """Valuate every context member once; list the registry identities left undefined.

    An identity's projector is the member at its first occurrence, so its
    value is read off that context's valuation.
    """
    per_context = tuple(valuate_context(state, ctx, tol) for ctx in collection.contexts)
    values = tuple(
        per_context[ci].values[mi]
        for ci, mi in (entry.occurrences[0] for entry in collection.registry)
    )
    undefined = tuple(
        entry.projector.label
        for entry, value in zip(collection.registry, values)
        if value is TruthValue.UNDEFINED
    )
    return BivalenceReport(
        values=values,
        undefined_labels=undefined,
        context_valuations=per_context,
    )


# Entries in the search's table of failed uncovered sets, at most. An entry
# is one int with a bit per context, about 100 bytes up to 60 contexts, so
# the table stays under about 8 MB there. A search that fills the table stays
# exact, it only stops remembering.
FAILED_SUBTREE_LIMIT = 1 << 16


@dataclass(frozen=True)
class AssignmentSearchResult:
    satisfiable: bool
    assignment: dict[int, int] | None
    nodes_explored: int

    @property
    def status(self) -> str:
        return "SAT" if self.satisfiable else "UNSAT"


def search_noncontextual_assignment(
    collection: ContextCollection,
) -> AssignmentSearchResult:
    """Decide whether registry identities admit a one-1-per-context labelling.

    Exactly one 1 per context is an exact cover of the contexts by registry
    identities, which this search finds as Knuth's Algorithm X does (Knuth
    2000, "Dancing Links", arXiv cs/0011047), on Python-int bitsets. The
    contexts are the items. Identity i is an option that covers
    ``covers[i]``, the bitset of the contexts that hold it. Two kinds of
    identity are never options and are valued 0: one that occurs twice in
    one context, which would put two 1s there, and one whose projector has
    rank 0, which no state makes true. ``clash[i]`` holds the identities
    that share a context with i, i included. Choosing i values i 1 and the
    rest of ``clash[i]`` 0: ``live &= ~clash[i]`` and ``uncovered &=
    ~covers[i]``. The search stops at the first cover; its identities are
    the ones valued 1, every other identity is valued 0.

    Each node branches on one uncovered context, trying its live options in
    ascending identity order. The root takes the context with the fewest
    live options, ``(live & ids[c]).bit_count()``, the lowest on a tie. The
    node that choice i reaches takes the fewest only among the uncovered
    contexts of ``near[i]``, those holding an identity of ``clash[i]``:
    they are the only contexts that can lose options to choice i, so a
    context left with no live option is found at the choice that empties
    it. When none of them is uncovered, the lowest uncovered context, which
    has an option, is taken. This is not the fewest-options rule over every
    uncovered context, and node counts can differ from that rule's; it
    stays because a scan of every context costs each node time in the
    number of contexts: on the 2,000 disjoint bases of C^2 of
    ``test_ks_search_on_disjoint_bases_needs_a_deep_stack`` the full scan
    took about 1 s, this one 0.02 s.

    Failed uncovered sets are remembered, since ``live`` is a function of
    ``uncovered``: the live identities are exactly the options whose
    contexts are all uncovered. A live identity shares no context with a
    chosen one, so none of its contexts is covered; a dead option shares a
    context with some chosen identity (itself, if chosen), and that context
    is covered. The subtree below a node therefore depends on ``uncovered``
    alone, and an uncovered set that failed once is skipped when met again.
    The table holds at most ``FAILED_SUBTREE_LIMIT`` sets; past it the
    search descends and stays exact.

    ``nodes_explored`` counts the options tried, the one that completes the
    cover included. The stack is explicit, so the number of contexts is not
    bounded by Python's recursion limit. Single-threaded and deterministic;
    the assignment is the first cover found, not in general the
    lexicographically smallest.
    """
    registry, n_contexts = collection.registry, len(collection.contexts)
    ids, meets = [0] * n_contexts, [0] * n_contexts
    covers, options = [], 0
    for i, entry in enumerate(registry):
        cover = 0
        for ci, _ in entry.occurrences:
            cover |= 1 << ci
            ids[ci] |= 1 << i
        covers.append(cover)
        if cover.bit_count() == len(entry.occurrences) and entry.projector.rank:
            options |= 1 << i
    for entry, cover in zip(registry, covers):
        for ci, _ in entry.occurrences:
            meets[ci] |= cover  # the contexts that share an identity with ci
    clash, near = [], []
    for entry in registry:
        shared = reach = 0
        for ci, _ in entry.occurrences:
            shared |= ids[ci]
            reach |= meets[ci]
        clash.append(shared)
        near.append(reach)

    def branch(uncovered: int, live: int, scan: int) -> int:
        """The live options of the context to branch on."""
        best, fewest = (uncovered & -uncovered).bit_length() - 1, len(registry) + 1
        scan &= uncovered
        while scan:
            low = scan & -scan
            scan ^= low
            count = (live & ids[low.bit_length() - 1]).bit_count()
            if count < fewest:
                best, fewest = low.bit_length() - 1, count
        return live & ids[best]

    every = (1 << n_contexts) - 1
    failed: set[int] = set()
    nodes = 0
    # Frames [uncovered, live, untried options, identity chosen to get here].
    stack = [[every, options, branch(every, options, every), -1]]
    while stack:
        frame = stack[-1]
        uncovered, live, untried, _ = frame
        if not untried:
            stack.pop()
            if len(failed) < FAILED_SUBTREE_LIMIT:
                failed.add(uncovered)
            continue
        low = untried & -untried
        frame[2] = untried ^ low
        i = low.bit_length() - 1
        nodes += 1
        rest = uncovered & ~covers[i]
        if not rest:
            ones = {f[3] for f in stack[1:]} | {i}
            assignment = {k: int(k in ones) for k in range(len(registry))}
            return AssignmentSearchResult(
                satisfiable=True, assignment=assignment, nodes_explored=nodes
            )
        if rest not in failed:
            live &= ~clash[i]
            stack.append([rest, live, branch(rest, live, near[i]), i])
    return AssignmentSearchResult(satisfiable=False, assignment=None, nodes_explored=nodes)


def parity_certificate(collection: ContextCollection) -> tuple[str, ...] | None:
    """Names of contexts whose parity equations sum to 0 = 1, or None.

    Exactly one 1 per context gives each context the equation, over GF(2),
    that its members' identity values sum to 1, counting member occurrences
    (an identity held twice cancels). When that system is inconsistent,
    some contexts' equations sum to 0 = 1: an odd number of contexts in
    which every identity occurs an even number of times, which no
    assignment satisfies (Cabello, Estebaranz & García-Alcaine 1996, Phys.
    Lett. A 212, 183). Anyone can check such a certificate by counting.

    Gaussian elimination on one Python-int row per context, in context
    order: the bits below ``width`` are the identity coefficients, bit
    ``width`` the right-hand side, and the bits above it the contexts the
    row combines. The first row that reduces to 0 = 1 gives the
    certificate. A certificate implies UNSAT; UNSAT does not imply one.
    """
    width = len(collection.registry)
    coefficients = (1 << width) - 1
    pivots: dict[int, int] = {}
    for ci, ctx in enumerate(collection.contexts):
        row = 1 << width | 1 << (width + 1 + ci)
        for mi in range(len(ctx.members)):
            row ^= 1 << collection.identity_of(ci, mi)
        while row & coefficients:
            lead = (row & coefficients).bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
        else:
            if row >> width & 1:
                combined = row >> (width + 1)
                return tuple(
                    name for k, name in enumerate(collection.context_names) if combined >> k & 1
                )
    return None

"""State-dependent bivaluation and the global 0/1 assignment search.

The valuation of a projector at a state is deliberately partial: it is 1
when the state lies in the range, 0 when it lies in the kernel, and
undefined otherwise. Per context this yields at most one member valued 1;
when every member is defined the values sum to exactly 1.

Independently of any state, the assignment search decides whether the
projector identities of a collection admit a global 0/1 labelling with
exactly one 1 per context. Identities are registry identities, so a
projector shared by several contexts is constrained by all of them; that
sharing is what can make the search unsatisfiable.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ZeroStateError
from .projectors import ContextCollection, MaximalContext, Projector
from .tolerance import TolerancePolicy, resolve


class TruthValue(enum.Enum):
    ZERO = 0
    ONE = 1
    UNDEFINED = None

    def __str__(self) -> str:
        return "undefined" if self is TruthValue.UNDEFINED else str(self.value)


def valuate(
    state, projector: Projector, tol: TolerancePolicy | None = None
) -> TruthValue:
    """Partial truth value of a projector at a nonzero state.

    ONE when ``|P psi - psi| <= eps_entry |psi|``, ZERO when
    ``|P psi| <= eps_entry |psi|``, UNDEFINED otherwise. Both thresholds
    scale with the state norm, so the value is phase- and scale-invariant.
    """
    tol = resolve(tol)
    psi = linalg.as_state_vector(state)
    if psi.shape[0] != projector.ambient_dim:
        raise DimensionMismatchError(
            f"state dimension {psi.shape[0]} != ambient {projector.ambient_dim}"
        )
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
    """Valuate every registry identity; list the ones left undefined."""
    values = tuple(
        valuate(state, entry.projector, tol) for entry in collection.registry
    )
    undefined = tuple(
        entry.projector.label
        for entry, value in zip(collection.registry, values)
        if value is TruthValue.UNDEFINED
    )
    per_context = tuple(
        valuate_context(state, ctx, tol) for ctx in collection.contexts
    )
    return BivalenceReport(
        values=values,
        undefined_labels=undefined,
        context_valuations=per_context,
    )


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

    Chronological backtracking over contexts in input order; within a
    context the 1-position is tried in ascending member index, and shared
    identities are checked immediately, so the first success is the
    lexicographically smallest satisfying assignment under that ordering.
    Every tried position counts as one node, the successful one included;
    on failure the node count certifies the exhaustion. Single-threaded and
    deterministic by construction.

    The state is two Python-int bitsets over registry identities, the ones
    valued 1 and the ones valued 0. Each (context, 1-position) pattern is
    precomputed as the same pair: ``ones`` holds the chosen member's
    identity, ``zeros`` the other members'. A pattern with ``ones & zeros``
    nonzero (two members of one context sharing an identity, such as two
    rank-0 members) can never be taken. Backtracking restores the two ints
    from an explicit per-level stack, so the depth (the number of contexts)
    is not bounded by Python's recursion limit.
    """
    patterns = []
    for ci, ctx in enumerate(collection.contexts):
        bits = [1 << collection.identity_of(ci, mi) for mi in range(len(ctx.members))]
        patterns.append(
            [
                (bit, reduce(operator.or_, bits[:pos] + bits[pos + 1 :], 0))
                for pos, bit in enumerate(bits)
            ]
        )
    nodes = 0
    ones = zeros = 0
    stack: list[tuple] = []
    candidates = iter(patterns[0])
    while True:
        for p_ones, p_zeros in candidates:
            nodes += 1
            if not (p_ones & p_zeros or p_ones & zeros or p_zeros & ones):
                break
        else:
            if not stack:
                return AssignmentSearchResult(
                    satisfiable=False, assignment=None, nodes_explored=nodes
                )
            candidates, ones, zeros = stack.pop()
            continue
        stack.append((candidates, ones, zeros))
        ones |= p_ones
        zeros |= p_zeros
        if len(stack) == len(patterns):
            break
        candidates = iter(patterns[len(stack)])
    # Every registry identity occurs in some context, so all are assigned.
    assignment = {index: (ones >> index) & 1 for index in range(len(collection.registry))}
    return AssignmentSearchResult(
        satisfiable=True, assignment=assignment, nodes_explored=nodes
    )

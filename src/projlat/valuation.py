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


# Entries in each of the search's two tables, at most: exhausted subtrees
# and candidate menus. A subtree entry holds one int key and one count,
# about 120 bytes with 40-bit masks, so that table stays under about 8 MB;
# a menu takes a few hundred bytes, at most about 1 KB for a context of
# eight members. A search that fills a table stays exact, it only stops
# remembering.
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

    Chronological backtracking over contexts in input order; within a
    context the 1-position is tried in ascending member index, and shared
    identities are checked immediately, so the first success is the
    lexicographically smallest satisfying assignment under that ordering.
    Every tried position counts as one node, the successful one included;
    on failure the node count certifies the exhaustion. Single-threaded and
    deterministic by construction.

    The state is one Python-int bitset over registry identities, the ones
    valued 1. At level ``k`` every identity of contexts 0 to k - 1 is valued
    and no other, so the ones fix the zeros too. Each (context, 1-position)
    pattern is precomputed as two bitsets: ``ones`` holds the chosen
    member's identity, ``zeros`` the other members'. A pattern is admissible
    when it values no identity both ways: it has ``ones & zeros`` zero (two
    members of one context that share an identity, such as two rank-0
    members, never do), and it agrees with the values already set.
    Backtracking restores the state from an explicit per-level stack, so the
    depth (the number of contexts) is not bounded by Python's recursion
    limit.

    Candidates come from menus. Admissibility at level ``k`` reads only the
    identities of context ``k``, so it is fixed by the local state
    ``ones & own[k]``, with ``own[k]`` the OR of that context's identity
    bits. The menu of a local state lists its admissible patterns in
    member order, each with the number of inadmissible ones skipped before
    it, plus the number after the last one. Entering a context then costs
    one dict lookup, and the skipped patterns are still counted as nodes.

    Exhausted subtrees are remembered. Every test below level ``k`` reads
    only identities of contexts ``k`` onwards, so the state masked to those
    identities, ``ones & live[k]``, fixes the subtree's outcome and node
    count. A subtree that failed is stored under that int in the table of
    level ``k``, with its node count. When a later candidate leads to a
    stored state, that count is added to the nodes and the walk moves on to
    the next candidate without descending. ``nodes_explored`` therefore
    stays the size of the chronological tree, and the branching order and
    first solution are unchanged. Nothing is stored for a success, which
    ends the walk. Each table stops growing at ``FAILED_SUBTREE_LIMIT``
    entries; past it the walk descends, or tests a context's patterns on
    every entry, as before.
    """
    patterns, own = [], []
    for ci, ctx in enumerate(collection.contexts):
        bits = [1 << collection.identity_of(ci, mi) for mi in range(len(ctx.members))]
        # before[i] | after[i + 1] is the OR of every bit but bits[i], which
        # still holds bits[i] when another member shares its identity.
        before, after = [0], [0]
        for bit in bits:
            before.append(before[-1] | bit)
        for bit in reversed(bits):
            after.append(after[-1] | bit)
        after.reverse()
        patterns.append([(bit, before[pos] | after[pos + 1]) for pos, bit in enumerate(bits)])
        own.append(before[-1])
    depth = len(patterns)
    # seen[k]: the identities of contexts 0 to k - 1, the ones valued at level k.
    # live[k]: the identities that contexts k onwards can test.
    seen, live = [0] * (depth + 1), [0] * (depth + 1)
    for level in range(depth):
        seen[level + 1] = seen[level] | own[level]
    for level in range(depth - 1, -1, -1):
        live[level] = live[level + 1] | own[level]
    menus: list[dict[int, tuple]] = [{} for _ in range(depth)]
    failed: list[dict[int, int]] = [{} for _ in range(depth)]
    stored_menus = stored_failed = 0

    def menu(level: int, ones: int) -> tuple:
        """([(skipped, pattern ones), ...], tail): the menu of the local state at ``level``."""
        nonlocal stored_menus
        local = ones & own[level]
        found = menus[level].get(local)
        if found is None:
            local_zeros = (own[level] & seen[level]) ^ local
            entries, skipped = [], 0
            for p_ones, p_zeros in patterns[level]:
                if p_ones & p_zeros or p_ones & local_zeros or p_zeros & local:
                    skipped += 1
                else:
                    entries.append((skipped, p_ones))
                    skipped = 0
            found = (entries, skipped)
            if stored_menus < FAILED_SUBTREE_LIMIT:
                menus[level][local] = found
                stored_menus += 1
        return found

    nodes = start = 0
    ones = key = 0
    stack: list[tuple] = []
    entries, tail = menu(0, 0)
    candidates = iter(entries)
    while True:
        level = len(stack) + 1  # the level a taken candidate leads to
        for skipped, p_ones in candidates:
            nodes += skipped + 1
            if level == depth:
                ones |= p_ones
                # Every registry identity occurs in some context, so all are assigned.
                assignment = {i: (ones >> i) & 1 for i in range(len(collection.registry))}
                return AssignmentSearchResult(
                    satisfiable=True, assignment=assignment, nodes_explored=nodes
                )
            child = (ones | p_ones) & live[level]
            credit = failed[level].get(child)
            if credit is None:
                break
            nodes += credit
        else:
            nodes += tail
            if not stack:
                return AssignmentSearchResult(
                    satisfiable=False, assignment=None, nodes_explored=nodes
                )
            if stored_failed < FAILED_SUBTREE_LIMIT:
                failed[level - 1][key] = nodes - start
                stored_failed += 1
            candidates, tail, ones, start, key = stack.pop()
            continue
        stack.append((candidates, tail, ones, start, key))
        ones |= p_ones
        start, key = nodes, child
        entries, tail = menu(level, ones)
        candidates = iter(entries)

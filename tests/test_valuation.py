import functools
import itertools

import numpy as np
import pytest

import projlat as pl
from conftest import (
    KS18_GROUPS,
    ks18_collection,
    ks18_ray_names,
    random_projector,
    random_state,
)
from projlat import TruthValue, valuation

E1 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


class TestValuate:
    def test_state_in_range_values_one(self, pauli):
        assert pl.valuate(E1, pauli.context_named("z").members[0]) is TruthValue.ONE

    def test_state_in_kernel_values_zero(self, pauli):
        assert pl.valuate(E1, pauli.context_named("z").members[1]) is TruthValue.ZERO

    def test_state_in_neither_is_undefined(self, pauli):
        assert pl.valuate(E1, pauli.context_named("x").members[0]) is TruthValue.UNDEFINED

    def test_identity_is_a_tautology(self):
        one = pl.validate_projector(np.eye(2), label="1")
        rng = np.random.default_rng(89)
        for _ in range(10):
            assert pl.valuate(random_state(rng, 2), one) is TruthValue.ONE

    def test_zero_operator_is_a_contradiction(self):
        zero = pl.validate_projector(np.zeros((2, 2)), label="0")
        rng = np.random.default_rng(97)
        for _ in range(10):
            assert pl.valuate(random_state(rng, 2), zero) is TruthValue.ZERO

    def test_zero_state_rejected(self, pauli):
        with pytest.raises(pl.ZeroStateError):
            pl.valuate([0, 0], pauli.context_named("z").members[0])

    def test_dimension_mismatch_rejected(self, pauli):
        with pytest.raises(pl.DimensionMismatchError):
            pl.valuate([1, 0, 0], pauli.context_named("z").members[0])

    def test_complement_duality(self):
        rng = np.random.default_rng(101)
        for dim in (2, 3, 4):
            p = random_projector(rng, dim, rng.integers(1, dim))
            q = pl.validate_projector(np.eye(dim) - p.matrix, label="1-P")
            states = [random_state(rng, dim) for _ in range(5)]
            states += [p.range().basis[:, 0], p.kernel().basis[:, 0]]
            for psi in states:
                v, w = pl.valuate(psi, p), pl.valuate(psi, q)
                assert (v is TruthValue.ONE) == (w is TruthValue.ZERO)
                assert (v is TruthValue.ZERO) == (w is TruthValue.ONE)
                assert (v is TruthValue.UNDEFINED) == (w is TruthValue.UNDEFINED)

    def test_scale_and_phase_invariance(self, pauli):
        rng = np.random.default_rng(103)
        projectors = [p for ctx in pauli.contexts for p in ctx.members]
        states = [E1, PLUS, random_state(rng, 2)]
        for psi in states:
            for p in projectors:
                reference = pl.valuate(psi, p)
                for _ in range(5):
                    c = rng.normal() * np.exp(2j * np.pi * rng.random())
                    if abs(c) < 1e-3:
                        continue
                    assert pl.valuate(c * psi, p) is reference


class TestContextValuation:
    def test_z_context_at_first_basis_state(self, pauli):
        cv = pl.valuate_context(E1, pauli.context_named("z"))
        assert cv.values == (TruthValue.ONE, TruthValue.ZERO)
        assert cv.total == 1
        assert cv.bivalent

    def test_x_context_at_plus_state(self, pauli):
        cv = pl.valuate_context(PLUS, pauli.context_named("x"))
        assert cv.values == (TruthValue.ONE, TruthValue.ZERO)
        assert cv.total == 1

    def test_x_context_at_first_basis_state_is_non_bivalent(self, pauli):
        cv = pl.valuate_context(E1, pauli.context_named("x"))
        assert cv.values == (TruthValue.UNDEFINED, TruthValue.UNDEFINED)
        assert cv.total is None
        assert not cv.bivalent

    def test_at_most_one_member_values_one(self, pauli):
        rng = np.random.default_rng(107)
        states = [E1, PLUS, np.array([1, 1j]) / np.sqrt(2)]
        states += [random_state(rng, 2) for _ in range(10)]
        for ctx in pauli.contexts:
            states += [p.range().basis[:, 0] for p in ctx.members]
        for psi in states:
            for ctx in pauli.contexts:
                cv = pl.valuate_context(psi, ctx)
                assert sum(v is TruthValue.ONE for v in cv.values) <= 1


class TestBivalenceReport:
    def test_pauli_collection_at_first_basis_state(self, pauli):
        report = pl.bivalence_report(E1, pauli)
        assert not report.bivalent
        assert set(report.undefined_labels) == {"P1_x", "P2_x", "P1_y", "P2_y"}

    def test_single_context_collection_is_bivalent(self, pauli):
        single = pl.ContextCollection([pauli.context_named("z")])
        report = pl.bivalence_report(E1, single)
        assert report.bivalent
        assert report.undefined_labels == ()

    def test_identity_collection_is_bivalent(self):
        ctx = pl.validate_context([pl.validate_projector(np.eye(2), label="1")])
        report = pl.bivalence_report(E1, pl.ContextCollection([ctx]))
        assert report.bivalent
        assert report.values == (TruthValue.ONE,)


def brute_force_one_hot(collection):
    """Independent oracle: enumerate every one-hot choice per context."""
    id_rows = [
        [collection.identity_of(ci, mi) for mi in range(len(ctx.members))]
        for ci, ctx in enumerate(collection.contexts)
    ]
    solutions = []
    for choice in itertools.product(*(range(len(row)) for row in id_rows)):
        assignment = {}
        ok = True
        for row, pos in zip(id_rows, choice):
            for mi, identity in enumerate(row):
                value = 1 if mi == pos else 0
                if assignment.get(identity, value) != value:
                    ok = False
                    break
                assignment[identity] = value
            if not ok:
                break
        if ok:
            solutions.append(assignment)
    return solutions


class TestAssignmentSearch:
    def test_pauli_collection_matches_brute_force(self, pauli):
        result = pl.search_noncontextual_assignment(pauli)
        solutions = brute_force_one_hot(pauli)
        assert len(solutions) == 8  # no sharing, so every one-hot choice works
        assert result.satisfiable
        assert result.assignment in solutions

    def test_pauli_search_takes_first_branch(self, pauli):
        result = pl.search_noncontextual_assignment(pauli)
        assert result.nodes_explored == 3
        assert result.assignment == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0}

    def test_identity_collection(self):
        ctx = pl.validate_context([pl.validate_projector(np.eye(2), label="1")])
        result = pl.search_noncontextual_assignment(pl.ContextCollection([ctx]))
        assert result.satisfiable
        assert result.assignment == {0: 1}

    def test_eighteen_ray_collection_is_unsat(self, ks18):
        result = pl.search_noncontextual_assignment(ks18)
        assert not result.satisfiable
        assert result.assignment is None
        assert result.nodes_explored > 0

    def test_search_is_deterministic(self, pauli):
        results = [pl.search_noncontextual_assignment(pauli) for _ in range(2)]
        assert results[0] == results[1]
        ks = ks18_collection()
        first = pl.search_noncontextual_assignment(ks)
        second = pl.search_noncontextual_assignment(ks)
        assert first.nodes_explored == second.nodes_explored


def shared_line_collection(rng, contexts=3):
    """Dim-3 collection whose contexts all contain one shared rank-1 projector."""
    shared = rng.normal(size=3) + 1j * rng.normal(size=3)
    shared /= np.linalg.norm(shared)
    built = []
    for k in range(contexts):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z[:, 0] = shared
        q, _ = np.linalg.qr(z)
        q[:, 0] = shared  # QR keeps the first column's line; pin the phase
        built.append(pl.context_from_basis([q[:, i] for i in range(3)], name=f"c{k}"))
    return pl.ContextCollection(built), shared


class TestSharedProjectorConsistency:
    def test_shared_line_makes_intersection_and_search_agree(self):
        rng = np.random.default_rng(109)
        for _ in range(5):
            collection, shared = shared_line_collection(rng)
            families = [pl.context_lattice(ctx) for ctx in collection.contexts]
            meet = pl.intersect_lattices(families)
            shared_line = pl.Subspace.from_span([shared])
            assert meet.contains(shared_line)
            assert not meet.is_trivial()
            result = pl.search_noncontextual_assignment(collection)
            assert result.satisfiable
            shared_id = collection.identity_of(0, 0)
            assert result.assignment[shared_id] == 1


def reference_search(collection):
    """Test oracle: the dict-based recursive search the bitset walk replaced.

    Same branching order and node count (one node per tried position, the
    first success included); it recurses once per context.
    """
    context_ids = [
        [collection.identity_of(ci, mi) for mi in range(len(ctx.members))]
        for ci, ctx in enumerate(collection.contexts)
    ]
    assignment = {}
    nodes = 0

    def try_context(ids, one_position):
        wanted = {}
        for pos, identity in enumerate(ids):
            value = 1 if pos == one_position else 0
            if wanted.get(identity, value) != value:
                return None
            wanted[identity] = value
        for identity, value in wanted.items():
            if assignment.get(identity, value) != value:
                return None
        fresh = [identity for identity in wanted if identity not in assignment]
        for identity in fresh:
            assignment[identity] = wanted[identity]
        return fresh

    def backtrack(level):
        nonlocal nodes
        if level == len(context_ids):
            return True
        ids = context_ids[level]
        for pos in range(len(ids)):
            nodes += 1
            fresh = try_context(ids, pos)
            if fresh is None:
                continue
            if backtrack(level + 1):
                return True
            for identity in fresh:
                del assignment[identity]
        return False

    if backtrack(0):
        return pl.AssignmentSearchResult(True, dict(sorted(assignment.items())), nodes)
    return pl.AssignmentSearchResult(False, None, nodes)


def ray_projector(ray):
    v = np.array(ray, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def random_identity_collection(rng):
    """Small C^4 collection with sharing across and inside contexts.

    Contexts are KS-18 bases (shuffled, in some collections with two rays
    merged into one rank-2 member) or coordinate partitions, which share
    rays with them; about a third of the collections hold all nine KS-18
    bases. In half of the collections a context may carry one or two rank-0
    members, and every rank-0 member of a collection has one identity.
    """
    merges, zeros = rng.random() < 0.3, rng.random() < 0.5
    groups = list(range(len(KS18_GROUPS)))
    if rng.random() < 0.35:
        chosen = [int(g) for g in rng.permutation(groups)]
        chosen += [None] * int(rng.integers(0, 2))
    else:
        chosen = [
            int(rng.integers(len(groups))) if rng.random() < 0.75 else None
            for _ in range(int(rng.integers(1, 7)))
        ]
    contexts = []
    for ci, group in enumerate(chosen):
        if group is None:
            blocks = np.array_split(rng.permutation(4), int(rng.integers(1, 5)))
            matrices = [np.diag(np.isin(np.arange(4), b).astype(complex)) for b in blocks]
        else:
            matrices = [ray_projector(KS18_GROUPS[group][k]) for k in rng.permutation(4)]
            if merges and rng.random() < 0.5:
                matrices[:2] = [matrices[0] + matrices[1]]
        for _ in range(int(rng.choice(3, p=[0.4, 0.3, 0.3])) if zeros else 0):
            matrices.insert(int(rng.integers(len(matrices) + 1)), np.zeros((4, 4)))
        members = [pl.validate_projector(m, label=f"c{ci}[{k}]") for k, m in enumerate(matrices)]
        contexts.append(pl.validate_context(members, name=f"c{ci}"))
    return pl.ContextCollection(contexts)


def ks18_tensor_c2_collection():
    """KS-18 tensored with C^2 and turned by a seeded unitary, as the benchmark builds it."""
    names = ks18_ray_names()
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(8, 8)))
    eye = np.eye(2)
    rays = {
        f"{name}_{j}": [[float(x), 0.0] for x in q @ np.kron(np.array(ray, float), eye[j])]
        for ray, name in names.items()
        for j in range(2)
    }
    groups = {
        f"c{gi}": [f"{names[ray]}_{j}" for j in range(2) for ray in group]
        for gi, group in enumerate(KS18_GROUPS)
    }
    collection, _ = pl.parse_document({"dim": 8, "rays": rays, "groups": groups})
    return collection


class TestSearchAgainstReference:
    def test_randomized_collections_match_reference(self):
        statuses = {"SAT": 0, "UNSAT": 0}
        rank0_pairs = 0
        for seed in range(100):
            collection = random_identity_collection(np.random.default_rng([113, seed]))
            result = pl.search_noncontextual_assignment(collection)
            reference = reference_search(collection)
            assert result == reference, seed
            assert list(result.assignment or ()) == list(reference.assignment or ())
            statuses[result.status] += 1
            rank0_pairs += any(
                sum(p.rank == 0 for p in ctx.members) >= 2 for ctx in collection.contexts
            )
        assert min(statuses.values()) >= 10
        assert rank0_pairs >= 10

    def test_two_rank0_members_of_one_context_share_an_identity(self):
        zero = pl.validate_projector(np.zeros((2, 2)), label="0")
        one = pl.validate_projector(np.eye(2), label="1")
        ctx = pl.validate_context([zero, one, zero], name="c")
        collection = pl.ContextCollection([ctx, pl.pauli_contexts().context_named("z")])
        assert collection.identity_of(0, 0) == collection.identity_of(0, 2)
        result = pl.search_noncontextual_assignment(collection)
        assert result == reference_search(collection)
        # Position 0 puts 1 and 0 on the shared identity: one node, no branch.
        assert result.nodes_explored == 3
        assert result.assignment == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_ks18_node_count(self, ks18):
        result = pl.search_noncontextual_assignment(ks18)
        assert result.nodes_explored == 852
        assert result == reference_search(ks18)

    def test_ks18_tensor_c2_node_count(self):
        collection = ks18_tensor_c2_collection()
        assert len(collection.registry) == 36
        result = pl.search_noncontextual_assignment(collection)
        assert not result.satisfiable
        assert result.nodes_explored == 30584
        assert result == reference_search(collection)


def ks18_family(rng, groups, tensor=False, trailing_line=False):
    """Contexts from KS-18 bases, by index into ``KS18_GROUPS`` (repeats allowed).

    Members come in a shuffled order. With ``tensor`` each basis is
    tensored with C^2 and turned by the seeded orthogonal matrix of
    ``ks18_tensor_c2_collection``. With ``trailing_line`` the space gains one
    coordinate and every context ends with the projector onto it. When the
    bases alone are UNSAT, that line must be valued 1 everywhere, so the
    search has to exhaust every choice that values it 0.
    """
    turn, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(8, 8)))
    contexts = []
    for ci, group in enumerate(groups):
        rays = [np.array(ray, dtype=float) for ray in KS18_GROUPS[group]]
        if tensor:
            rays = [turn @ np.kron(ray, e) for e in np.eye(2) for ray in rays]
        basis = [rays[k] / np.linalg.norm(rays[k]) for k in rng.permutation(len(rays))]
        if trailing_line:
            basis = [np.append(b, 0.0) for b in basis] + [np.eye(len(basis) + 1)[-1]]
        contexts.append(pl.context_from_basis(basis, name=f"c{ci}"))
    return pl.ContextCollection(contexts)


def memo_corpus_collection(seed):
    """One of three shapes, by ``seed % 3``, over KS-18 or (about a quarter) KS-18⊗C².

    0: all nine bases in a shuffled order (UNSAT);
    1: all nine bases, or all but one or two of them, with up to two of
       them repeated, shuffled (UNSAT when all nine are in);
    2: all nine bases with a trailing line (SAT, after the last context has
       failed every assignment that values the line 0).
    """
    rng = np.random.default_rng([131, seed])
    tensor = rng.random() < 0.25
    groups = [int(g) for g in rng.permutation(len(KS18_GROUPS))]
    if seed % 3 == 1:
        groups = groups[: len(groups) - (seed // 3) % 3]
        groups += [int(g) for g in rng.choice(groups, size=int(rng.integers(0, 3)))]
        groups = [groups[k] for k in rng.permutation(len(groups))]
    return ks18_family(rng, groups, tensor, trailing_line=seed % 3 == 2)


@functools.cache
def memo_corpus():
    """Collections whose search revisits failed subtrees, with the oracle's results."""
    collections = [memo_corpus_collection(seed) for seed in range(30)]
    return [(c, reference_search(c)) for c in collections]


@functools.cache
def existing_corpus():
    """The collections of ``TestSearchAgainstReference``, with the oracle's results."""
    zero = pl.validate_projector(np.zeros((2, 2)), label="0")
    one = pl.validate_projector(np.eye(2), label="1")
    collections = [
        random_identity_collection(np.random.default_rng([113, seed])) for seed in range(100)
    ]
    collections += [
        pl.ContextCollection(
            [pl.validate_context([zero, one, zero], name="c"), pl.pauli_contexts().context_named("z")]
        ),
        pl.pauli_contexts(),
        ks18_collection(),
        ks18_tensor_c2_collection(),
    ]
    return [(c, reference_search(c)) for c in collections]


def assert_matches_reference(corpus):
    for k, (collection, reference) in enumerate(corpus):
        result = pl.search_noncontextual_assignment(collection)
        assert result == reference, k
        assert list(result.assignment or ()) == list(reference.assignment or ()), k


class TestFailedSubtreeTable:
    def test_corpus_that_revisits_failed_subtrees(self):
        corpus = memo_corpus()
        assert_matches_reference(corpus)
        statuses = [reference.status for _, reference in corpus]
        assert statuses.count("SAT") >= 10 and statuses.count("UNSAT") >= 10
        # The trailing-line collections are SAT only after long backtracking.
        assert all(
            reference.satisfiable and reference.nodes_explored > 1000
            for seed, (_, reference) in enumerate(corpus)
            if seed % 3 == 2
        )
        assert any(c.ambient_dim == 9 for c, _ in corpus)

    @pytest.mark.parametrize("limit", [0, 1])
    def test_bounded_table_stays_exact(self, monkeypatch, limit):
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", limit)
        assert_matches_reference(existing_corpus())
        assert_matches_reference(memo_corpus())

    @pytest.mark.parametrize("limit", [0, 1, valuation.FAILED_SUBTREE_LIMIT])
    def test_pinned_node_counts(self, monkeypatch, pauli, ks18, limit):
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", limit)
        assert pl.search_noncontextual_assignment(pauli).nodes_explored == 3
        assert pl.search_noncontextual_assignment(ks18).nodes_explored == 852
        tensor = pl.search_noncontextual_assignment(ks18_tensor_c2_collection())
        assert tensor.nodes_explored == 30584

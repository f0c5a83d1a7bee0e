import functools
import itertools
import warnings

import numpy as np
import pytest

import projlat as pl
from conftest import (
    KS18_GROUPS,
    contains,
    kernel,
    ks18_collection,
    ks18_document,
    ks18_ray_names,
    random_projector,
    random_state,
    span,
    zero_member_ks18_document,
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
            states += [p.range().basis[:, 0], kernel(p).basis[:, 0]]
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


class TestExtremeNorms:
    """A state whose plain norm overflows (1e200) or underflows (1e-170)
    gets the values of the state it scales, with no RuntimeWarning."""

    @staticmethod
    def cases(pauli, ks18, seed):
        rng = np.random.default_rng(seed)
        for p in [p for c in (pauli, ks18) for ctx in c.contexts for p in ctx.members]:
            states = [random_state(rng, p.ambient_dim) for _ in range(3)]
            for psi in states + [p.range().basis[:, 0], kernel(p).basis[:, 0]]:
                yield psi, p

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_scaled_states_keep_their_values(self, pauli, ks18, scale):
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for psi, p in self.cases(pauli, ks18, 113):
                value = pl.valuate(psi, p)
                assert pl.valuate(scale * psi, p) is value
                seen.add(value)
        assert seen == set(TruthValue)

    def test_ordinary_states_keep_the_unscaled_values(self, pauli, ks18):
        # The rule applied to the state as given, where no norm overflows.
        eps = pl.DEFAULT_TOLERANCES.eps_entry
        for psi, p in self.cases(pauli, ks18, 127):
            norm, image = np.linalg.norm(psi), p.matrix @ psi
            if np.linalg.norm(image - psi) <= eps * norm:
                want = TruthValue.ONE
            elif np.linalg.norm(image) <= eps * norm:
                want = TruthValue.ZERO
            else:
                want = TruthValue.UNDEFINED
            assert pl.valuate(psi, p) is want


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

    def test_each_member_is_valued_once(self, monkeypatch, ks18):
        # 36 members, 18 registry identities: each member valued once, and
        # each identity valued as its projector is valued alone.
        calls = []

        def spy(state, projector, tol=None):
            calls.append(projector)
            return pl.valuate(state, projector, tol)

        monkeypatch.setattr(valuation, "valuate", spy)
        rng = np.random.default_rng(1980)
        states = [np.array([1, 0, 0, 0], dtype=complex), np.array([1, 1, 0, 0]) / np.sqrt(2)]
        for state in states + [random_state(rng, 4) for _ in range(3)]:
            calls.clear()
            report = pl.bivalence_report(state, ks18)
            members = [p for ctx in ks18.contexts for p in ctx.members]
            assert [id(p) for p in calls] == [id(p) for p in members]
            assert report.values == tuple(
                pl.valuate(state, entry.projector) for entry in ks18.registry
            )
            assert len(report.values) == 18


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


def assert_one_hot(collection, assignment):
    """Every registry identity valued 0 or 1, a zero projector 0, and exactly
    one 1 per context."""
    assert sorted(assignment) == list(range(len(collection.registry)))
    assert set(assignment.values()) <= {0, 1}
    for entry in collection.registry:
        if entry.projector.rank == 0:
            assert assignment[entry.index] == 0, entry.projector.label
    for ci, ctx in enumerate(collection.contexts):
        ones = [assignment[collection.identity_of(ci, mi)] for mi in range(len(ctx.members))]
        assert sum(ones) == 1, ctx.name


def assert_agrees(collection, reference):
    """Same status as the oracle's result; a SAT assignment is one-hot."""
    result = pl.search_noncontextual_assignment(collection)
    assert result.status == reference.status
    if result.satisfiable:
        assert_one_hot(collection, result.assignment)
    else:
        assert result.assignment is None
    return result


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
            assert contains(meet, span(shared))
            assert not meet.is_trivial()
            result = pl.search_noncontextual_assignment(collection)
            assert result.satisfiable
            shared_id = collection.identity_of(0, 0)
            assert result.assignment[shared_id] == 1


def reference_search(collection):
    """Test oracle for SAT/UNSAT: a dict-based chronological search.

    Contexts in input order, the 1-position in ascending member index, one
    node per tried position; it recurses once per context, and shares no
    code with the exact-cover search. A member of rank 0 is the zero
    projector, which no state makes true, so it is never the 1-position.
    """
    context_ids = [
        [collection.identity_of(ci, mi) for mi in range(len(ctx.members))]
        for ci, ctx in enumerate(collection.contexts)
    ]
    zero = {
        collection.identity_of(ci, mi)
        for ci, ctx in enumerate(collection.contexts)
        for mi, member in enumerate(ctx.members)
        if member.rank == 0
    }
    assignment = {}
    nodes = 0

    def try_context(ids, one_position):
        if ids[one_position] in zero:
            return None
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
            result = assert_agrees(collection, reference_search(collection))
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
        result = assert_agrees(collection, reference_search(collection))
        # The shared identity is never an option, so c has one live option
        # and is covered first: one node for c, one for z.
        assert result.nodes_explored == 2
        assert result.assignment == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_ks18_node_count(self, ks18):
        result = assert_agrees(ks18, reference_search(ks18))
        assert result.nodes_explored == 44

    def test_ks18_tensor_c2_node_count(self):
        collection = ks18_tensor_c2_collection()
        assert len(collection.registry) == 36
        result = assert_agrees(collection, reference_search(collection))
        assert not result.satisfiable
        assert result.nodes_explored == 88


class TestZeroProjectors:
    """A member of rank 0 is never valued 1, even when it is its context's
    only member that no other context holds."""

    def test_zero_and_identity_beside_a_basis_of_c2(self):
        doc = {
            "dim": 2,
            "contexts": {
                "a": [pl.document.matrix_to_json(m) for m in (np.zeros((2, 2)), np.eye(2))],
                "z": [pl.document.matrix_to_json(np.diag(d)) for d in ([1, 0], [0, 1])],
            },
        }
        collection, _ = pl.parse_document(doc)
        result = assert_agrees(collection, reference_search(collection))
        # Identities a[0] (zero), a[1] (I), z[0], z[1]: I must be valued 1.
        assert result.assignment == {0: 0, 1: 1, 2: 1, 3: 0}

    def test_zero_member_in_the_eighteen_ray_set(self):
        collection, _ = pl.parse_document(zero_member_ks18_document())
        assert [p.rank for p in collection.context_named("c0").members] == [1, 1, 1, 1, 0]
        result = assert_agrees(collection, reference_search(collection))
        assert not result.satisfiable
        assert result.nodes_explored == 44


def ks18_family(rng, groups, factors=1, trailing_line=False):
    """Contexts from KS-18 bases, by index into ``KS18_GROUPS`` (repeats allowed).

    Members come in a shuffled order. With ``factors`` k > 1 each basis is
    tensored with C^k and turned by a seeded orthogonal matrix of C^4k (for
    k = 2 the matrix of ``ks18_tensor_c2_collection``). With
    ``trailing_line`` the space gains one coordinate and every context ends
    with the projector onto it. When the bases alone are UNSAT, that line
    must be valued 1 everywhere, so the search has to exhaust every choice
    that values it 0.
    """
    turn, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4 * factors, 4 * factors)))
    contexts = []
    for ci, group in enumerate(groups):
        rays = [np.array(ray, dtype=float) for ray in KS18_GROUPS[group]]
        if factors > 1:
            rays = [turn @ np.kron(ray, e) for e in np.eye(factors) for ray in rays]
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
    factors = 2 if rng.random() < 0.25 else 1
    groups = [int(g) for g in rng.permutation(len(KS18_GROUPS))]
    if seed % 3 == 1:
        groups = groups[: len(groups) - (seed // 3) % 3]
        groups += [int(g) for g in rng.choice(groups, size=int(rng.integers(0, 3)))]
        groups = [groups[k] for k in rng.permutation(len(groups))]
    return ks18_family(rng, groups, factors, trailing_line=seed % 3 == 2)


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


@functools.cache
def sorted_subfamily_oracle(groups):
    """The oracle's result on KS-18⊗C³ bases ``groups``, in this order.

    A collection's status depends neither on the order of its contexts nor
    on that of their members, so one oracle run decides every shuffle of a
    group multiset; the oracle takes about 1 s on all nine bases.
    """
    return reference_search(ks18_family(np.random.default_rng(0), list(groups), factors=3))


@functools.cache
def subfamily_corpus():
    """40 random sub-families of KS-18⊗C³, shuffled, with the oracle's results.

    A quarter hold all nine bases (UNSAT); the rest hold three to eight of
    them, one of which may be repeated.
    """
    corpus = []
    for seed in range(40):
        rng = np.random.default_rng([137, seed])
        groups = [int(g) for g in rng.permutation(len(KS18_GROUPS))]
        if seed % 4:
            groups = groups[: int(rng.integers(3, 9))]
            groups += [int(g) for g in rng.choice(groups, size=int(rng.integers(0, 2)))]
            groups = [groups[k] for k in rng.permutation(len(groups))]
        corpus.append(
            (ks18_family(rng, groups, factors=3), sorted_subfamily_oracle(tuple(sorted(groups))))
        )
    return corpus


def assert_matches_reference(corpus):
    for collection, reference in corpus:
        assert_agrees(collection, reference)


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

    def test_ks18_tensor_c3_subfamilies(self):
        corpus = subfamily_corpus()
        assert_matches_reference(corpus)
        statuses = [reference.status for _, reference in corpus]
        assert statuses.count("SAT") >= 20 and statuses.count("UNSAT") >= 10

    @pytest.mark.parametrize("limit", [0, 1])
    def test_bounded_table_stays_exact(self, monkeypatch, limit):
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", limit)
        assert_matches_reference(existing_corpus())
        assert_matches_reference(memo_corpus())

    def test_table_keeps_the_first_cover(self, monkeypatch):
        # A failed uncovered set fixes its subtree, so skipping it changes
        # neither the status nor the first cover, only the node count.
        corpora = existing_corpus() + memo_corpus() + subfamily_corpus()
        collections = [collection for collection, _ in corpora]
        remembered = [pl.search_noncontextual_assignment(c) for c in collections]
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", 0)
        walked = [pl.search_noncontextual_assignment(c) for c in collections]
        cut = 0
        for k, (memo, plain) in enumerate(zip(remembered, walked)):
            assert (memo.status, memo.assignment) == (plain.status, plain.assignment), k
            assert memo.nodes_explored <= plain.nodes_explored, k
            cut += memo.nodes_explored < plain.nodes_explored
        assert cut >= 20

    @pytest.mark.parametrize(
        "order, nodes",
        [(["c6", "c4", "c0", "c1", "c7", "c5", "c8", "c2"], 30), (["c0", "c4", "c2", "c6", "c1"], 43)],
    )
    def test_failed_subtree_key_needs_its_level(self, monkeypatch, order, nodes):
        # Groups of the 18-ray set in these orders reach one state at two
        # levels of the oracle's chronological walk, which takes ``nodes``
        # nodes on them. The uncovered set alone keys the table, so it must
        # change neither the status nor the first cover of either order.
        doc = ks18_document()
        doc["groups"] = {name: doc["groups"][name] for name in order}
        collection, _ = pl.parse_document(doc)
        reference = reference_search(collection)
        assert reference.satisfiable and reference.nodes_explored == nodes
        result = assert_agrees(collection, reference)
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", 0)
        plain = pl.search_noncontextual_assignment(collection)
        assert (result.status, result.assignment) == (plain.status, plain.assignment)
        assert result.nodes_explored <= plain.nodes_explored

    @pytest.mark.parametrize(
        "limit, nodes",
        [(0, (3, 49, 504)), (1, (3, 49, 504)), (valuation.FAILED_SUBTREE_LIMIT, (3, 44, 88))],
        ids=["0", "1", str(valuation.FAILED_SUBTREE_LIMIT)],
    )
    def test_pinned_node_counts(self, monkeypatch, pauli, ks18, limit, nodes):
        monkeypatch.setattr(valuation, "FAILED_SUBTREE_LIMIT", limit)
        collections = (pauli, ks18, ks18_tensor_c2_collection())
        assert tuple(pl.search_noncontextual_assignment(c).nodes_explored for c in collections) == nodes


def diagonal_context(name, blocks, dim=3):
    """Context of the coordinate projectors onto each block of coordinates."""
    members = [
        pl.validate_projector(np.diag(np.isin(np.arange(dim), block)), label=str(block))
        for block in blocks
    ]
    return pl.validate_context(members, name=name)


class TestDiagonalContexts:
    """Small collections of coordinate contexts, every order, against the oracle."""

    def test_first_choice_covers_two_contexts(self):
        # Identity (0,) lies in c0 and c2; choosing it leaves c1 one live
        # option, (0, 2), which completes the cover.
        contexts = [
            diagonal_context("c0", [(0,), (1, 2)]),
            diagonal_context("c1", [(1,), (0, 2)]),
            diagonal_context("c2", [(0,), (1,), (2,)]),
        ]
        collection = pl.ContextCollection(contexts)
        result = assert_agrees(collection, reference_search(collection))
        assert result.nodes_explored == 2
        ones = {collection.identity_of(0, 0), collection.identity_of(1, 1)}
        assert {i for i, v in result.assignment.items() if v} == ones

    def test_orders_of_diagonal_contexts(self):
        contexts = [
            diagonal_context("c0", [(0,), (1, 2)]),
            diagonal_context("c1", [(1,), (0, 2)]),
            diagonal_context("c2", [(0,), (1,), (2,)]),
            diagonal_context("c3", [(2,), (0, 1)]),
            diagonal_context("c4", [(0, 1, 2)]),
        ]
        for order in itertools.permutations(range(len(contexts))):
            collection = pl.ContextCollection([contexts[k] for k in order])
            assert_agrees(collection, reference_search(collection))

    def test_members_sharing_an_identity(self):
        # Two rank-0 members share one identity, which is then never an
        # option: valuing it 1 would put two 1s in its context.
        zero = pl.validate_projector(np.zeros((3, 3)), label="0")
        p0, p12 = diagonal_context("p", [(0,), (1, 2)]).members
        contexts = [
            diagonal_context("c0", [(0,), (1, 2)]),
            pl.validate_context([zero, p0, zero, p12], name="c1"),
            pl.validate_context([p12, zero, p0], name="c2"),
            diagonal_context("c3", [(1,), (0, 2)]),
        ]
        for order in itertools.permutations(range(len(contexts))):
            collection = pl.ContextCollection([contexts[k] for k in order])
            assert_agrees(collection, reference_search(collection))


def assert_parity_certificate(collection, certificate):
    """An odd number of named contexts holding every identity an even number of times."""
    assert len(certificate) % 2 == 1
    assert len(set(certificate)) == len(certificate)
    counts = [0] * len(collection.registry)
    for ci, ctx in enumerate(collection.contexts):
        if ctx.name in certificate:
            for mi in range(len(ctx.members)):
                counts[collection.identity_of(ci, mi)] += 1
    assert all(count % 2 == 0 for count in counts)


class TestParityCertificate:
    def test_ks18_sets_need_all_nine_contexts(self, ks18):
        for collection in (ks18, ks18_tensor_c2_collection()):
            certificate = pl.parity_certificate(collection)
            assert certificate == tuple(f"c{k}" for k in range(9))
            assert_parity_certificate(collection, certificate)

    def test_pauli_has_none(self, pauli):
        assert pl.parity_certificate(pauli) is None

    def test_corpora_against_the_search(self):
        corpora = existing_corpus() + memo_corpus() + subfamily_corpus()
        certified = 0
        for k, (collection, reference) in enumerate(corpora):
            certificate = pl.parity_certificate(collection)
            if certificate is None:
                continue
            assert not reference.satisfiable, k
            assert_parity_certificate(collection, certificate)
            certified += 1
        assert certified >= 20

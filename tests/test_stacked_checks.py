"""The stacked context checks and the screened registry against per-member oracles.

The oracles below are the plain reading of the axioms and of the registry
rule: they check one member at a time, and compare each member with every
earlier representative by one norm. A basis is checked through the rank-1
formula, one pair at a time, and every other context through the dense
products. On a seeded corpus of documents and hand-built collections the
package must give the same member bytes, ranks, sums, identities and
occurrences, and on every failure the same exception class and message. A
matrix context's pairwise residual is a bound read off its kept ranges, so
it must lie above the dense products less rounding; a pair whose bound
fails is measured from its dense products, so a pairwise failure reports
what the oracle reports.
"""
import numpy as np
import pytest

import projlat as pl
from conftest import (
    bound_slack,
    dense_products,
    dense_residuals,
    from_basis,
    ks18_document,
    max_abs,
    rank1_bound,
    rays_of,
)
from projlat import linalg
from projlat.document import _parse_matrix, _parse_tolerances, _parse_vector
from projlat.tolerance import resolve


def oracle_projector(matrix, tol, label, where=None):
    """The projector axioms; ``where`` locates an error, as a document load does."""
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != arr.shape[1]:
        raise pl.NotSquareError(arr.shape)
    herm = max_abs(arr - arr.conj().T)
    if not herm <= tol.eps_entry:
        raise pl.NotHermitianError(herm, tol.eps_entry, where)
    idem = max_abs(arr @ arr - arr)
    if not idem <= tol.eps_entry:
        raise pl.NotIdempotentError(idem, tol.eps_entry, where)
    return pl.Projector(matrix=arr, rank=linalg.numerical_rank(arr, tol), label=label)


def oracle_residuals(members):
    """Each pair's larger dense product, and the residuals they give."""
    matrices = [p.matrix for p in members]
    products = dense_products(matrices)
    pairwise = np.maximum(products, products.T)
    np.fill_diagonal(pairwise, 0.0)
    return pairwise, dense_residuals(matrices)


def oracle_rank1_products(vecs, gram):
    """``|G - I|[i, j] p_i p_j`` for every pair (i, j), ``p_i = max_a |v_i[a]|``:
    ``max|Pi Pj|`` off the diagonal and ``max|Pi Pi - Pi|`` on it, for
    ``Pi = v_i v_i^H`` and the Gram matrix ``G`` of the vectors."""
    peaks = [np.abs(v).max() for v in vecs]
    products = np.zeros((len(vecs), len(vecs)))
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            products[i, j] = np.abs(gram[i, j] - (i == j)) * peaks[i] * peaks[j]
    return products


def oracle_context(members, tol, name, products=None):
    """The context of ``members``; ``products`` replaces their dense products."""
    members = tuple(members)
    pairwise, residuals = oracle_residuals(members)
    if products is not None:
        pairwise = np.maximum(products, products.T)
        np.fill_diagonal(pairwise, 0.0)
        residuals["pairwise_product"] = float(pairwise.max())
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not pairwise[i, j] <= tol.eps_entry:
                raise pl.PairwiseProductNonzeroError(
                    name, i, j, float(pairwise[i, j]), tol.eps_entry
                )
    if not residuals["sum_minus_identity"] <= tol.eps_entry:
        raise pl.SumNotIdentityError(name, residuals["sum_minus_identity"], tol.eps_entry)
    return pl.MaximalContext(name, members), residuals


def oracle_from_basis(vectors, tol, name, labels):
    vecs = [linalg.as_state_vector(v) for v in vectors]
    stacked = np.column_stack(vecs)
    gram = stacked.conj().T @ stacked
    residual = max_abs(gram - np.eye(len(vecs)))
    where = f"context {name!r}"
    if not residual <= tol.eps_entry:
        raise pl.NotOrthonormalError(residual, tol.eps_entry, where)
    if len(vecs) != stacked.shape[0]:
        raise pl.NotCompleteError(len(vecs), stacked.shape[0], where)
    products = oracle_rank1_products(vecs, gram)
    members = []
    for i, v in enumerate(vecs):
        matrix = np.outer(v, v.conj())
        herm = max_abs(matrix - matrix.conj().T)
        if not herm <= tol.eps_entry:
            raise pl.NotHermitianError(herm, tol.eps_entry, f"{where} member {labels[i]}")
        if not products[i, i] <= tol.eps_entry:
            raise pl.NotIdempotentError(
                float(products[i, i]), tol.eps_entry, f"{where} member {labels[i]}"
            )
        rank = linalg.singular_rank([gram[i, i].real], tol)
        members.append(pl.Projector(matrix=matrix, rank=rank, label=labels[i]))
    return oracle_context(members, tol, name, products)


def oracle_registry(contexts, tol):
    """(identity of each (context, member), occurrences of each identity)."""
    reps, occurrences, identity = [], [], {}
    for ci, ctx in enumerate(contexts):
        for mi, proj in enumerate(ctx.members):
            found = None
            for index, rep in enumerate(reps):
                if np.linalg.norm(rep - proj.matrix) <= tol.eps_subspace:
                    found = index
                    break
            if found is None:
                found = len(reps)
                reps.append(np.asarray(proj.matrix, dtype=complex))
                occurrences.append([])
            occurrences[found].append((ci, mi))
            identity[(ci, mi)] = found
    return identity, [tuple(occ) for occ in occurrences]


def oracle_parse_document(doc):
    """The plain loading loop: each member parsed, then validated, in turn."""
    dim = doc["dim"]
    tol = _parse_tolerances(doc, None)
    contexts = []
    if "contexts" in doc:
        for name, matrices in doc["contexts"].items():
            members = [
                oracle_projector(
                    _parse_matrix(matrix, dim, f"contexts[{name}][{i}]"),
                    tol,
                    f"{name}[{i}]",
                    f"context {name!r} member {name}[{i}]",
                )
                for i, matrix in enumerate(matrices)
            ]
            contexts.append(oracle_context(members, tol, name))
    else:
        rays = {}
        for name, vector in doc["rays"].items():
            arr = _parse_vector(vector, dim, f"rays[{name}]")
            norm = float(np.linalg.norm(arr))
            if norm == 0.0:
                raise pl.ValidationError(f"ray {name!r} has zero norm")
            rays[name] = arr / norm
        for name, ray_names in doc["groups"].items():
            if not isinstance(ray_names, list) or not ray_names:
                raise pl.ParseError(f"group {name!r} must be a non-empty array of ray names")
            for pos, ray in enumerate(ray_names):
                if not isinstance(ray, str):
                    raise pl.ParseError(
                        f"group {name!r}[{pos}]: expected a ray name string, got {ray!r}"
                    )
                if ray not in rays:
                    raise pl.ParseError(f"group {name!r} references unknown ray {ray!r}")
            contexts.append(
                oracle_from_basis([rays[r] for r in ray_names], tol, name, list(ray_names))
            )
    return contexts, tol


def outcome(fn, *args):
    """``(result, None)``, or ``(None, (class, message))`` for what ``fn``
    raises; a pairwise failure reports the dense products it measured."""
    try:
        return fn(*args), None
    except (pl.ValidationError, pl.ParseError) as exc:
        return None, (type(exc), str(exc))


def assert_same_collection(collection, oracle_contexts, tol):
    assert len(collection.contexts) == len(oracle_contexts)
    for ctx, (want, residuals) in zip(collection.contexts, oracle_contexts):
        assert ctx.name == want.name and ctx.labels == want.labels
        for got, exp in zip(ctx.members, want.members):
            assert got.matrix.dtype == exp.matrix.dtype == np.complex128
            assert got.matrix.tobytes() == exp.matrix.tobytes()
            assert got.rank == exp.rank
            assert not got.matrix.flags.writeable
        got = pl.context_residuals(ctx)
        # A context built by hand is measured as a matrix context is.
        by_hand = pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members))
        dense = oracle_residuals(ctx.members)[1]
        assert got["sum_minus_identity"] == residuals["sum_minus_identity"]
        assert by_hand["sum_minus_identity"] == dense["sum_minus_identity"]
        assert dense["sum_minus_identity"] == residuals["sum_minus_identity"]
        if not from_basis(ctx):
            assert by_hand == got
            slack = bound_slack(ctx.members).max()
            assert got["pairwise_product"] >= dense["pairwise_product"] - slack
        else:
            assert got == residuals
            for other in (dense, by_hand):
                gap = abs(other["pairwise_product"] - residuals["pairwise_product"])
                assert gap <= rank1_bound(rays_of(ctx))
    assert_same_registry(collection, [c for c, _ in oracle_contexts], tol)


def assert_same_registry(collection, contexts, tol):
    identity, occurrences = oracle_registry(contexts, tol)
    for (ci, mi), index in identity.items():
        assert collection.identity_of(ci, mi) == index
    assert [entry.occurrences for entry in collection.registry] == occurrences
    for entry in collection.registry:
        ci, mi = entry.occurrences[0]
        assert entry.projector is collection.contexts[ci].members[mi]


def _unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0]


def _turn(basis, i, j, distance):
    """Rotate members i and j of an orthonormal basis (columns) in their
    plane so that ``v_i v_i^H`` moves by ``distance`` in Frobenius norm."""
    angle = np.arcsin(distance / np.sqrt(2))
    out = basis.copy()
    out[:, i] = np.cos(angle) * basis[:, i] + np.sin(angle) * basis[:, j]
    out[:, j] = -np.sin(angle) * basis[:, i] + np.cos(angle) * basis[:, j]
    return out


def _to_json(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


EPS = pl.DEFAULT_TOLERANCES.eps_subspace
BOUNDARY = (EPS * (1 - 1e-9), EPS * (1 + 1e-9), 0.5 * EPS, 1.5 * EPS, 0.0)


def matrix_document(rng):
    """Contexts of rank 0/1/2... members, some sharing or nearly sharing
    members across contexts, some broken on purpose."""
    dim = int(rng.integers(1, 7))
    unitary = _unitary(rng, dim)
    contexts = {}
    for c in range(int(rng.integers(1, 5))):
        if c and rng.random() < 0.6 and dim > 1:
            i, j = rng.choice(dim, size=2, replace=False)
            unitary = _turn(unitary, i, j, BOUNDARY[int(rng.integers(len(BOUNDARY)))])
        count = int(rng.integers(1, dim + 2))
        owner = rng.integers(count, size=dim)
        members = []
        for k in range(count):
            cols = unitary[:, owner == k]
            members.append(cols @ cols.conj().T)
        contexts[f"c{c}"] = [_to_json(m) for m in members]
    fault = rng.random()
    name = f"c{int(rng.integers(len(contexts)))}"
    matrices = contexts[name]
    k = int(rng.integers(len(matrices)))
    if fault < 0.1 and dim > 1:
        matrices[k][0][1][0] += 1e-6  # not Hermitian
    elif fault < 0.2:
        matrices[k] = _to_json(1.001 * np.eye(dim))  # not idempotent
    elif fault < 0.3:
        matrices[k] = "not a matrix"  # does not parse
    elif fault < 0.4 and len(matrices) > 1:
        matrices.pop(k)  # no longer sums to I
    elif fault < 0.5:
        matrices.append(_to_json(np.eye(dim)))  # I overlaps every other member
    return {"dim": dim, "contexts": contexts}


def ray_document(rng):
    """Bases sharing rays, some turned by about ``eps_subspace``."""
    dim = int(rng.integers(1, 7))
    unitary = _unitary(rng, dim)
    rays, groups = {}, {}
    for c in range(int(rng.integers(1, 5))):
        if c and dim > 1:
            i, j = rng.choice(dim, size=2, replace=False)
            unitary = _turn(unitary, i, j, BOUNDARY[int(rng.integers(len(BOUNDARY)))])
        names = []
        for k in range(dim):
            name = f"r{c}_{k}"
            rays[name] = [[float(z.real), float(z.imag)] for z in unitary[:, k]]
            names.append(name)
        groups[f"g{c}"] = names
    fault = rng.random()
    group = groups[f"g{int(rng.integers(len(groups)))}"]
    if fault < 0.1 and dim > 1:
        rays[group[0]][-1][0] += 1e-3  # not orthonormal
    elif fault < 0.2 and len(group) > 1:
        group.pop()  # incomplete
    return {"dim": dim, "rays": rays, "groups": groups}


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(60))
    def test_documents(self, seed):
        rng = np.random.default_rng(1800 + seed)
        for doc in (matrix_document(rng), ray_document(rng)):
            got, got_error = outcome(pl.parse_document, doc)
            want, want_error = outcome(oracle_parse_document, doc)
            assert got_error == want_error
            if got_error is None:
                assert_same_collection(got[0], want[0], got[1])

    def test_corpus_covers_every_case(self):
        errors, ranks, shared, singles = set(), set(), 0, 0
        for seed in range(60):
            rng = np.random.default_rng(1800 + seed)
            for doc in (matrix_document(rng), ray_document(rng)):
                got, error = outcome(pl.parse_document, doc)
                if error is not None:
                    errors.add(error[0])
                    continue
                collection = got[0]
                ranks |= {p.rank for ctx in collection.contexts for p in ctx.members}
                shared += sum(len(e.occurrences) > 1 for e in collection.registry)
                singles += sum(len(ctx) == 1 for ctx in collection.contexts)
        assert {0, 1, 2} <= ranks
        assert shared >= 20 and singles >= 3
        assert errors >= {
            pl.NotHermitianError,
            pl.NotIdempotentError,
            pl.ParseError,
            pl.SumNotIdentityError,
            pl.PairwiseProductNonzeroError,
            pl.NotOrthonormalError,
            pl.NotCompleteError,
        }

    def test_named_documents(self, pauli):
        for doc in (pl.collection_to_document(pauli), ks18_document()):
            collection, tol = pl.parse_document(doc)
            assert_same_collection(collection, oracle_parse_document(doc)[0], tol)


def _hand_built(rng, dim, offsets, direction):
    """Rank-1 contexts ``A + t E`` and ``I - A - t E`` for each offset t."""
    v = _unitary(rng, dim)[:, 0]
    a = np.outer(v, v.conj())
    contexts = []
    for c, t in enumerate(offsets):
        moved = a + t * direction
        contexts.append(
            pl.MaximalContext(
                f"h{c}",
                (
                    pl.Projector(matrix=moved, rank=1, label=f"h{c}a"),
                    pl.Projector(matrix=np.eye(dim) - moved, rank=1, label=f"h{c}b"),
                ),
            )
        )
    return contexts


RAY_FAULTS = (
    "unknown name",
    "non-string name",
    "short group",
    "long group",
    "repeated ray",
    "not orthonormal",
    "zero ray",
    "bad entry",
    "non-finite entry",
    "huge ray",
    "empty group",
)


def _ray_fault(rng, doc, fault):
    """Break a ray document in place; ``doc`` keeps every group of dim rays."""
    rays, groups, dim = doc["rays"], doc["groups"], doc["dim"]
    filled = [g for g in groups.values() if g]
    if not filled:
        return
    group = filled[int(rng.integers(len(filled)))]
    pos = int(rng.integers(len(group)))
    ray = list(rays)[int(rng.integers(len(rays)))]
    if fault == "unknown name":
        group[pos] = "missing"
    elif fault == "non-string name":
        group[pos] = [["a"], {"name": group[pos]}, 3, None][int(rng.integers(4))]
    elif fault == "short group":
        group.pop(pos)
    elif fault == "long group":
        group.insert(pos, ray)
    elif fault == "repeated ray":
        group[pos] = group[(pos + 1) % len(group)]
    elif fault == "not orthonormal":
        rays[group[pos]] = _random_ray(rng, dim)
    elif fault == "zero ray":
        rays[ray] = [[0.0, -0.0]] * dim
    elif fault == "bad entry":
        rays[ray] = [list(pair) for pair in rays[ray]]
        rays[ray][int(rng.integers(dim))] = ["1.0", None, [1.0], {"re": 1.0}][int(rng.integers(4))]
    elif fault == "non-finite entry":
        rays[ray] = [list(pair) for pair in rays[ray]]
        value = float(rng.choice([np.inf, -np.inf, np.nan]))
        rays[ray][int(rng.integers(dim))][int(rng.integers(2))] = value
    elif fault == "huge ray":
        # Not a fault: a ray is a direction, so a large scale is valid.
        rays[ray] = [[1e100 * float(re), 1e100 * float(im)] for re, im in rays[ray]]
    elif fault == "empty group":
        groups[list(groups)[int(rng.integers(len(groups)))]] = []


def _random_ray(rng, dim):
    return [[float(re), float(im)] for re, im in rng.normal(size=(dim, 2))]


def faulty_ray_document(rng, faults=()):
    """Bases sharing rays, some turned by about ``eps_subspace``, with the given faults.

    Entries mix plain floats with booleans and (large) integers, on the
    coordinate bases, and some rays belong to no group.
    """
    dim = int(rng.integers(1, 7))
    unitary = np.eye(dim) if rng.random() < 0.3 else _unitary(rng, dim)
    rays, groups = {}, {}
    for c in range(int(rng.integers(1, 7))):
        if c and dim > 1 and rng.random() < 0.7:
            i, j = rng.choice(dim, size=2, replace=False)
            unitary = _turn(unitary, i, j, BOUNDARY[int(rng.integers(len(BOUNDARY)))])
        names = []
        for k in rng.permutation(dim):
            name = f"r{c}_{k}"
            column = unitary[:, k]
            if np.array_equal(column, np.eye(dim)[k]):
                scale = [True, 1, 2**40, 2**63 + 1025][int(rng.integers(4))]
                rays[name] = [[scale if z else False, 0] for z in column]
            else:
                rays[name] = [[float(z.real), float(z.imag)] for z in column]
            names.append(name)
        groups[f"g{c}"] = names
    for k in range(int(rng.integers(0, 3))):
        rays[f"unused{k}"] = _random_ray(rng, dim)
    doc = {"dim": dim, "rays": rays, "groups": groups}
    for fault in faults:
        _ray_fault(rng, doc, fault)
    return doc


def ray_corpus():
    """Seeded documents with no fault, one fault, or two in either order."""
    docs = []
    for seed in range(150):
        rng = np.random.default_rng([2000, seed])
        count = seed % 3
        faults = list(rng.choice(RAY_FAULTS, size=count, replace=True))
        docs.append(faulty_ray_document(rng, faults))
    return docs


class TestBatchedRayLoader:
    """Every group of a ray document is checked in one stack; the per-context
    loop above is the oracle for member bytes, ranks, residuals, registry
    and errors."""

    def _check(self, docs):
        outcomes = []
        for k, doc in enumerate(docs):
            got, got_error = outcome(pl.parse_document, doc)
            want, want_error = outcome(oracle_parse_document, doc)
            assert got_error == want_error, k
            if got_error is None:
                assert_same_collection(got[0], want[0], got[1])
            outcomes.append(got_error[0] if got_error else None)
        return outcomes

    def test_documents(self):
        outcomes = self._check(ray_corpus())
        assert outcomes.count(None) >= 40
        assert set(outcomes) >= {
            None,
            pl.ParseError,
            pl.NotOrthonormalError,
            pl.NotCompleteError,
            pl.ValidationError,
        }

    def test_one_pair_per_block(self, monkeypatch):
        monkeypatch.setattr(pl.projectors, "_CHUNK_ENTRIES", 1)
        self._check(ray_corpus()[::3])

    @pytest.mark.parametrize("first, second", [(0, 2), (2, 0)])
    def test_two_failing_groups_raise_the_first(self, first, second):
        # Group g0 is not orthonormal, group g2 is one ray short; either can
        # come first in the document, and the first one raises.
        rng = np.random.default_rng(2100)
        doc = faulty_ray_document(rng)
        while len(doc["groups"]) < 3 or doc["dim"] < 2:
            doc = faulty_ray_document(rng)
        names = list(doc["groups"])
        doc["rays"][doc["groups"][names[first]][0]] = _random_ray(rng, doc["dim"])
        doc["groups"][names[second]] = doc["groups"][names[second]][1:]
        got = outcome(pl.parse_document, doc)[1]
        assert got == outcome(oracle_parse_document, doc)[1]
        expected = pl.NotOrthonormalError if first < second else pl.NotCompleteError
        assert got[0] is expected

    @pytest.mark.parametrize("short, malformed", [(1, 4), (4, 1)])
    def test_short_group_and_malformed_group_raise_the_first(self, short, malformed):
        # A group of another size sends every group to the one-by-one check.
        doc = ks18_document()
        names = list(doc["groups"])
        doc["groups"][names[short]] = doc["groups"][names[short]][1:]
        doc["groups"][names[malformed]][0] = "missing"
        got = outcome(pl.parse_document, doc)[1]
        assert got == outcome(oracle_parse_document, doc)[1]
        assert got[0] is (pl.NotCompleteError if short < malformed else pl.ParseError)

    @staticmethod
    def _sum_and_gram_document(order):
        # Under eps_entry 0.29, basis a passes its Gram check but not its
        # sum, and basis b fails its Gram check.
        rng = np.random.default_rng(2200)
        while True:
            v = np.linalg.qr(rng.normal(size=(3, 3)))[0] + 0.1 * rng.normal(size=(3, 3))
            v /= np.linalg.norm(v, axis=0)
            gram = np.abs(v.T @ v - np.eye(3)).max()
            if gram < 0.27 and np.abs(v @ v.T - np.eye(3)).max() > 0.31:
                break
        rays = {f"a{k}": [[float(x), 0.0] for x in v[:, k]] for k in range(3)}
        rays.update(b0=[[1, 0], [0, 0], [0, 0]], b1=[[0, 0], [1, 0], [0, 0]])
        rays["b2"] = [[1, 0], [1, 0], [0, 0]]
        groups = {name: [f"{name}{k}" for k in range(3)] for name in order}
        return {"dim": 3, "eps_entry": 0.29, "eps_subspace": 0.29, "rays": rays, "groups": groups}

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_sum_failure_and_gram_failure_in_either_order(self, order):
        # The Gram check of b comes before the sum check of a in the stack,
        # yet the first of the two in the document must raise.
        doc = self._sum_and_gram_document(order)
        got = outcome(pl.parse_document, doc)[1]
        assert got == outcome(oracle_parse_document, doc)[1]
        assert got[0] is (pl.SumNotIdentityError if order[0] == "a" else pl.NotOrthonormalError)

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_a_failing_stack_is_checked_once(self, monkeypatch, order):
        # The stack itself names the first failing group: one _basis_contexts
        # call, and no group is checked again through context_from_basis.
        calls = []
        stacked = pl.document._basis_contexts

        def spy(*args):
            calls.append(len(args[1]))
            return stacked(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("context_from_basis ran")

        monkeypatch.setattr(pl.document, "_basis_contexts", spy)
        monkeypatch.setattr(pl.document, "context_from_basis", forbidden)
        doc = self._sum_and_gram_document(order)
        got = outcome(pl.parse_document, doc)[1]
        assert calls == [2]
        monkeypatch.undo()
        assert got == outcome(oracle_parse_document, doc)[1]

    def test_groups_share_one_read_only_stack(self):
        # One member per ray: each of the 18 rays is one object in both of
        # its groups, a view of one read-only (18, 4, 4) stack, not 36.
        doc = ks18_document()
        collection, tol = pl.parse_document(doc)
        owner = collection.contexts[0].members[0].matrix.base
        assert owner.shape == (18, 4, 4) and not owner.flags.writeable
        members = {}
        for ctx in collection.contexts:
            for label, member in zip(ctx.labels, ctx.members):
                assert member.matrix.base is owner and member.label == label
                assert members.setdefault(label, member) is member
        assert len(members) == 18
        assert_same_registry(collection, collection.contexts, tol)
        assert all(len(entry.occurrences) == 2 for entry in collection.registry)

    def test_ray_of_three_groups_is_one_object(self):
        # The coordinate ray e0 lies in three bases of C^3; the other rays
        # are each named once, but "spare" by no group.
        rng = np.random.default_rng(2080)
        rays = {"e0": [[1, 0], [0, 0], [0, 0]], "spare": [[0, 0], [1, 0], [0, 0]]}
        groups = {}
        for g in range(3):
            turn = np.eye(3, dtype=complex)
            turn[1:, 1:] = _unitary(rng, 2)
            rays.update({f"g{g}r{k}": pl.document.matrix_to_json(turn[:, k]) for k in (1, 2)})
            groups[f"g{g}"] = [f"g{g}r1", "e0", f"g{g}r2"] if g == 1 else ["e0", f"g{g}r1", f"g{g}r2"]
        doc = {"dim": 3, "rays": rays, "groups": groups}
        collection, tol = pl.parse_document(doc)
        shared = [ctx.members[ctx.labels.index("e0")] for ctx in collection.contexts]
        assert shared[0] is shared[1] is shared[2] and shared[0].label == "e0"
        assert len({id(p) for ctx in collection.contexts for p in ctx.members}) == 7
        assert_same_collection(collection, oracle_parse_document(doc)[0], tol)
        assert collection.registry[0].occurrences == ((0, 0), (1, 1), (2, 0))
        assert collection._merged == set()

    def test_unnamed_rays_get_no_outer_product(self):
        # Rays that no group names, before, between and after the named
        # ones, change no member's bytes, rank, range or residual, and the
        # members share one stack of the 18 named rays' outer products.
        doc = ks18_document()
        rng = np.random.default_rng(2085)
        rays = {}
        for k, (name, ray) in enumerate(doc["rays"].items()):
            if k % 7 == 0:
                rays[f"spare{k}"] = _random_ray(rng, 4)
            rays[name] = ray
        rays["spare_last"] = _random_ray(rng, 4)
        plain, tol = pl.parse_document(doc)
        spared, _ = pl.parse_document({**doc, "rays": rays})
        assert len(rays) == 22
        for ctx, twin in zip(plain.contexts, spared.contexts):
            assert ctx.labels == twin.labels
            assert pl.context_residuals(ctx) == pl.context_residuals(twin)
            for p, q in zip(ctx.members, twin.members):
                assert p.matrix.tobytes() == q.matrix.tobytes() and p.rank == q.rank
                assert p._range.tobytes() == q._range.tobytes() and q._gap == 0.0
        owner = spared.contexts[0].members[0].matrix.base
        assert owner.shape == (18, 4, 4) and not owner.flags.writeable
        assert all(p.matrix.base is owner for ctx in spared.contexts for p in ctx.members)
        assert spared._identities == plain._identities
        assert_same_collection(spared, oracle_parse_document({**doc, "rays": rays})[0], tol)

    def test_equal_vectors_and_matrix_twin_match_the_oracle(self):
        # Two ray names with equal vectors are two objects, measured at
        # distance 0; the matrix-form twin has no shared object at all. Both
        # give the oracle's identities and occurrences, with nothing merged.
        doc = ks18_document()
        doc["rays"]["again"] = list(doc["rays"]["r00"])
        doc["groups"]["c1"] = ["again" if r == "r00" else r for r in doc["groups"]["c1"]]
        collection, tol = pl.parse_document(doc)
        first, again = collection.contexts[0].members[0], collection.contexts[1].members[0]
        assert first is not again and first.matrix.tobytes() == again.matrix.tobytes()
        twin, _ = pl.parse_document(pl.collection_to_document(collection, tol))
        for loaded in (collection, twin):
            assert_same_registry(loaded, loaded.contexts, tol)
            assert loaded._merged == set()
            assert [e.occurrences for e in loaded.registry] == [
                e.occurrences for e in collection.registry
            ]
        assert collection.identity_of(1, 0) == collection.identity_of(0, 0)
        assert len(collection.registry) == 18


MATRIX_FAULTS = (
    "not Hermitian",
    "not idempotent",
    "pairwise",
    "sum",
    "rank sum",
    "overlap",
    "parse",
)
# eps_subspace at eps_entry, so that C^4 can hold ranges that overlap past it
# while every product entry stays within eps_entry.
TIGHT = {"eps_rank": 1e-10, "eps_entry": 1e-9, "eps_subspace": 1e-9}


def _faulty_matrices(rng, fault=None):
    """The members of one context of C^4, as JSON, broken by ``fault``.

    A Haar frame cut into members of ranks 2, 1 and 1, except for the two
    faults that need their own members: ``rank sum`` takes diag(1, 5e-10,
    0, 0), which passes every entrywise check with rank 2, beside three
    members of rank 1, and ``overlap`` the Fourier basis of C^4 with f_1
    turned towards f_0 by 1.5e-9, past eps_subspace, although every
    product entry and the sum stay within eps_entry.
    """
    if fault == "rank sum":
        diagonals = ([1.0, 5e-10, 0, 0], [0, 1 - 5e-10, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
        return [_to_json(np.diag(d)) for d in diagonals]
    if fault == "overlap":
        f = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
        f[:, 1] += 1.5e-9 * f[:, 0]
        f[:, 1] /= np.linalg.norm(f[:, 1])
        return [_to_json(np.outer(v, v.conj())) for v in f.T]
    frame = _unitary(rng, 4)
    parts = [frame[:, :2], frame[:, 2:3], frame[:, 3:]]
    if fault == "pairwise":
        # Member 0 leans towards member 1, still a projector of rank 2.
        parts[0] = _turn(frame, 1, 2, 1e-6)[:, :2]
    members = [_to_json(part @ part.conj().T) for part in parts]
    if fault == "not Hermitian":
        members[1][0][1][0] += 1e-6
    elif fault == "not idempotent":
        members[1] = _to_json(1.001 * (parts[1] @ parts[1].conj().T))
    elif fault == "sum":
        members.pop()
    elif fault == "parse":
        members[1] = "not a matrix"
    return members


class TestOneStackLoader:
    """Every context of a matrix document is checked in one stack; errors
    come in document order, as from the per-context load."""

    @staticmethod
    def _alone(name, matrices):
        return outcome(pl.parse_document, {"dim": 4, **TIGHT, "contexts": {name: matrices}})[1]

    @pytest.mark.parametrize("fault", MATRIX_FAULTS)
    def test_each_fault_raises_as_on_its_own(self, fault):
        got = self._alone("b", _faulty_matrices(np.random.default_rng(2700), fault))
        expected = {
            "not Hermitian": pl.NotHermitianError,
            "not idempotent": pl.NotIdempotentError,
            "pairwise": pl.PairwiseProductNonzeroError,
            "sum": pl.SumNotIdentityError,
            "rank sum": pl.ValidationError,
            "overlap": pl.ValidationError,
            "parse": pl.ParseError,
        }[fault]
        assert got[0] is expected
        prefix = {
            "not Hermitian": "context 'b' member b[1]: matrix is not self-adjoint: ",
            "not idempotent": "context 'b' member b[1]: matrix is not idempotent: ",
            # Member 0 leans towards member 1.
            "pairwise": "context 'b': members 0 and 1 do not annihilate: ",
            "rank sum": "context 'b': member ranks [2, 1, 1, 1] sum to 5, ",
            "overlap": "context 'b': members 0 and 1 overlap: ",
            "parse": "contexts[b][1]: expected a 4x4 matrix as 4 rows",
        }.get(fault, "context 'b': members ")
        assert got[1].startswith(prefix)

    @pytest.mark.parametrize("order", [(0, 2), (2, 0)])
    @pytest.mark.parametrize("first", MATRIX_FAULTS)
    def test_two_failing_contexts_raise_the_first(self, first, order):
        # Two faulty contexts of three, on either side of a valid one; the
        # earlier one in the document raises what it raises on its own.
        for second in MATRIX_FAULTS:
            rng = np.random.default_rng([2710, MATRIX_FAULTS.index(second)])
            names = ["a", "b", "c"]
            faults = {names[order[0]]: first, names[1]: None, names[order[1]]: second}
            contexts = {name: _faulty_matrices(rng, faults[name]) for name in names}
            doc = {"dim": 4, **TIGHT, "contexts": contexts}
            raiser = names[min(order)]
            got = outcome(pl.parse_document, doc)[1]
            assert got == self._alone(raiser, contexts[raiser]), (first, second)
            if faults[raiser] not in ("rank sum", "overlap"):
                # The oracle takes neither the rank sum nor the overlap rule.
                assert got == outcome(oracle_parse_document, doc)[1]

    def test_valid_document_matches_the_per_context_load(self):
        # Contexts of 3, 3, 4 and 3 members: the runs of equal counts share
        # their product blocks, and every context equals its load alone.
        rng = np.random.default_rng(2720)
        faults = {"a": None, "b": None, "c": "overlap", "d": None}
        contexts = {name: _faulty_matrices(rng, fault) for name, fault in faults.items()}
        # At the default eps_subspace, 1e-8, the turned Fourier basis passes.
        doc = {"dim": 4, "contexts": contexts}
        collection, tol = pl.parse_document(doc)
        assert_same_collection(collection, oracle_parse_document(doc)[0], tol)
        for ctx in collection.contexts:
            alone = pl.parse_document({"dim": 4, "contexts": {ctx.name: contexts[ctx.name]}})
            (want,) = alone[0].contexts
            assert pl.context_residuals(ctx) == pl.context_residuals(want)
            for got, exp in zip(ctx.members, want.members):
                assert got.rank == exp.rank and got._gap == exp._gap
                assert got._range.tobytes() == exp._range.tobytes()


def _turned_members(turn, ranks):
    """The Fourier basis of C^4 with f_1 turned towards f_0 by ``turn``, as
    projectors: ``f_k f_k^H`` for ranks [1, 1, 1, 1], and ``f_0 f_0^H +
    f_2 f_2^H``, ``f_1 f_1^H``, ``f_3 f_3^H`` for ranks [2, 1, 1]."""
    f = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
    f[:, 1] += turn * f[:, 0]
    f[:, 1] /= np.linalg.norm(f[:, 1])
    columns = [[0], [1], [2], [3]] if ranks == [1, 1, 1, 1] else [[0, 2], [1], [3]]
    return [f[:, c] @ f[:, c].conj().T for c in columns]


class TestOverlapRule:
    """The load's overlap rule and ``intersect_lattices`` decide alike, and
    the error names the members whose ranges overlap."""

    @pytest.mark.parametrize("ranks", [[1, 1, 1, 1], [2, 1, 1]])
    @pytest.mark.parametrize("t", [0.5, 0.9, 1.1, 1.5])
    def test_load_rule_agrees_with_intersect_lattices(self, t, ranks):
        tol = pl.TolerancePolicy(**TIGHT)
        members = [
            pl.validate_projector(m, tol, label=f"f[{k}]")
            for k, m in enumerate(_turned_members(t * tol.eps_subspace, ranks))
        ]
        assert [p.rank for p in members] == ranks
        loaded = outcome(pl.validate_context, members, tol, "f")[1]
        lattice = pl.context_lattice(pl.MaximalContext("f", tuple(members)))
        try:
            pl.intersect_lattices([lattice], tol)
            intersected = None
        except ValueError as exc:
            intersected = str(exc)
        assert (loaded is not None) == (intersected is not None) == (t > 1)
        if t > 1:
            assert loaded[0] is pl.ValidationError
            assert loaded[1] == (
                f"context 'f': members 0 and 1 overlap: "
                f"|Qi^H Qj|_F = {t * 1e-9:.3e} > 1.000e-09"
            )
            assert intersected == "atoms of one family overlap above eps_subspace"

    @pytest.mark.parametrize(
        "at, pair", [(0, "1 and 2"), (1, "0 and 2"), (2, "0 and 1"), (4, "0 and 1")]
    )
    def test_error_names_members_around_a_rank_0_member(self, at, pair):
        # A zero member has rank 0, a zero row in the padded range stack.
        matrices = _turned_members(1.5e-9, [1, 1, 1, 1])
        matrices.insert(at, np.zeros((4, 4)))
        error = (
            pl.ValidationError,
            f"context 'f': members {pair} overlap: |Qi^H Qj|_F = 1.500e-09 > 1.000e-09",
        )
        doc = {"dim": 4, **TIGHT, "contexts": {"f": [_to_json(m) for m in matrices]}}
        assert outcome(pl.parse_document, doc)[1] == error
        tol = pl.TolerancePolicy(**TIGHT)
        members = [pl.validate_projector(m, tol) for m in matrices]
        assert [p.rank for p in members].count(0) == 1
        assert outcome(pl.validate_context, members, tol, "f")[1] == error


class TestScreenedRegistry:
    @pytest.mark.parametrize("seed", range(20))
    def test_pairs_at_the_tolerance(self, seed):
        rng = np.random.default_rng(1900 + seed)
        dim = int(rng.integers(2, 9))
        e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        e = (e + e.conj().T) / np.linalg.norm(e + e.conj().T)
        offsets = [0.0] + list(rng.choice(BOUNDARY, size=8)) + list(
            EPS * rng.uniform(0.9, 1.1, size=8)
        )
        rng.shuffle(offsets)
        contexts = _hand_built(rng, dim, offsets, e)
        collection = pl.ContextCollection(contexts)
        assert_same_registry(collection, contexts, resolve(None))

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_blocks_give_the_same_identities(self, monkeypatch, chunk):
        # Blocks of one Gram row (or one pair) at a time, and a few in between.
        monkeypatch.setattr(pl.projectors, "_CHUNK_ENTRIES", chunk)
        for seed in range(5):
            rng = np.random.default_rng(1900 + seed)
            e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            e = (e + e.conj().T) / np.linalg.norm(e + e.conj().T)
            contexts = _hand_built(rng, 3, list(rng.choice(BOUNDARY, size=12)), e)
            assert_same_registry(pl.ContextCollection(contexts), contexts, resolve(None))

    def test_boundary_pairs_fall_on_both_sides(self):
        tol = resolve(None)
        near = far = 0
        for seed in range(20):
            rng = np.random.default_rng(1950 + seed)
            dim = int(rng.integers(2, 9))
            e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            e = (e + e.conj().T) / np.linalg.norm(e + e.conj().T)
            contexts = _hand_built(rng, dim, [0.0, EPS * (1 - 1e-9), EPS * (1 + 1e-9)], e)
            identity, _ = oracle_registry(contexts, tol)
            near += sum(identity[(c, 0)] == identity[(0, 0)] for c in (1, 2))
            far += sum(identity[(c, 0)] != identity[(0, 0)] for c in (1, 2))
            assert_same_registry(pl.ContextCollection(contexts), contexts, tol)
        assert near and far

    def test_non_transitive_chain(self):
        # A ~ B and B ~ C but not A ~ C: C is compared with representatives
        # only, so it gets an identity of its own although it is close to B.
        rng = np.random.default_rng(1990)
        e = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
        for order in ([0.0, 0.6, 1.2], [0.6, 0.0, 1.2], [1.2, 0.6, 0.0], [0.0, 1.2, 0.6]):
            contexts = _hand_built(rng, 2, [t * EPS for t in order], e)
            collection = pl.ContextCollection(contexts)
            assert_same_registry(collection, contexts, resolve(None))
        chain = pl.ContextCollection(_hand_built(rng, 2, [0.0, 0.6 * EPS, 1.2 * EPS], e))
        assert [chain.identity_of(c, 0) for c in range(3)] == [0, 0, 2]

    def test_duplicates_inside_one_context(self):
        zero = pl.validate_projector(np.zeros((3, 3)), label="0")
        full = pl.validate_projector(np.eye(3), label="1")
        ctx = pl.validate_context([zero, full, zero, zero], name="dup")
        again = pl.validate_context([full, zero], name="again")
        collection = pl.ContextCollection([ctx, again])
        assert_same_registry(collection, [ctx, again], resolve(None))
        assert [e.occurrences for e in collection.registry] == [
            ((0, 0), (0, 2), (0, 3), (1, 1)),
            ((0, 1), (1, 0)),
        ]

    def test_real_and_non_finite_hand_built_matrices(self):
        big = np.array([[1e200, 0.0], [0.0, 0.0]])
        contexts = [
            pl.MaximalContext(
                name,
                (
                    pl.Projector(matrix=m, rank=1, label=f"{name}a"),
                    pl.Projector(matrix=np.eye(2) - m, rank=1, label=f"{name}b"),
                ),
            )
            for name, m in (("r", np.diag([1.0, 0.0])), ("b", big), ("b2", big.copy()))
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            collection = pl.ContextCollection(contexts)
            assert_same_registry(collection, contexts, resolve(None))
        # The screen's estimate overflows; the pair is measured all the same.
        assert collection.identity_of(2, 0) == collection.identity_of(1, 0)

    def test_overflowing_distance_warns_nothing(self):
        # Under the project's error::RuntimeWarning filter and no errstate:
        # the gap of a member past 1e154 is +inf, so its pair with the Pauli
        # z member is kept and measured, and the distance that overflows is
        # +inf, not close.
        contexts = [
            pl.MaximalContext(
                name,
                (
                    pl.Projector(matrix=m, rank=1, label=f"{name}a"),
                    pl.Projector(matrix=np.eye(2) - m, rank=1, label=f"{name}b"),
                ),
            )
            for name, m in (("z", np.diag([1.0, 0.0])), ("b", np.diag([1e200, 0.0])))
        ]
        collection = pl.ContextCollection(contexts)
        assert collection._identities == [[0, 1], [2, 3]]
        assert [e.occurrences for e in collection.registry] == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]


def _from_bases(bases):
    """One basis context per (n, n) array of columns."""
    return [pl.context_from_basis(list(basis.T), name=f"b{c}") for c, basis in enumerate(bases)]


def _turned_bases(rng, dim, offsets):
    """One Haar basis, and copies with vectors 0 and 1 turned by each offset."""
    basis = _unitary(rng, dim)
    return [_turn(basis, 0, 1, t) for t in offsets]


# The two screens the range screen replaced, kept verbatim as oracles: the
# Gram matrix of the flattened members, and that of the rays.
_CHUNK_ENTRIES = pl.projectors._CHUNK_ENTRIES
_dot_bound = pl.projectors._dot_bound


def _flat_screen(stack: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (later, earlier) of the (K, n, n) ``stack`` that may lie within ``eps_subspace``.

    ``|A|^2 + |B|^2 - 2 Re<A, B>``, from the Gram matrix of the flattened
    members, is their squared distance up to a rounding error of
    ``gamma * (|A| + |B|)^2``, with ``gamma`` the dot-product bound for
    ``2 n^2 + 8`` real terms. The screen keeps a pair within
    ``(eps_subspace * (1 + gamma))^2``, which covers the rounding of the
    norm, plus twice that error, which covers the rounding of ``|A|`` and
    ``|B|``. The Gram matrix is taken in blocks of rows, each against the
    earlier members only; pairs come ordered by the later member, then the
    earlier one.
    """
    # Re<A, B> as a real product over the interleaved real and imaginary parts.
    flat = stack.reshape(len(stack), -1).view(np.float64)
    squares = np.einsum("ij,ij->i", flat, flat)
    norms = np.sqrt(squares)
    gamma = _dot_bound(flat.shape[1] + 8)
    reach = (tol.eps_subspace * (1 + gamma)) ** 2
    later, earlier = [], []
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
    return np.concatenate(later), np.concatenate(earlier)


def _ray_screen(rays: np.ndarray, tol):
    """The pairs of ``_flat_screen`` for the members ``u u^H`` of the (K, n) ``rays``.

    Returns ``(later, earlier, first)``, with ``first[k]`` the first row
    whose bytes equal those of row k. A repeated row is in no pair: equal
    bytes give equal elementwise products, so its member has the bytes of
    its first occurrence's, at distance 0, and the first representative
    within ``eps_subspace`` of the one is the first of the other. The
    greedy rule therefore gives it the identity of its first occurrence.

    The distinct rows are screened with one Gram matrix of the rays, taken
    in blocks of rows, since ``|u u^H - v v^H|_F^2 = |u|^4 + |v|^4 -
    2 |<u, v>|^2``: O(K^2 n) instead of O(K^2 n^2). Rounding: with
    ``a = |u|^2`` and ``b = |v|^2``, the stored member rounds one complex
    product per entry, so it lies within ``sqrt(2) gamma_2 a`` of
    ``u u^H`` in Frobenius norm. The computed squared norms ``s`` and the
    real and imaginary parts of ``<u, v>`` are 2n-term real dot products,
    within ``gamma_2n a`` and ``sqrt(2) gamma_2n sqrt(a b)``; squaring and
    the three additions leave the estimate within ``gamma (a + b)^2`` of
    the exact squared distance, with ``gamma`` the dot-product bound for
    ``8 n + 16`` real terms (the error is below ``gamma_(6n + 6)`` to first
    order). A pair the norm accepts has ``|A - B|_F <= eps_subspace
    (1 + gamma_F)``, ``gamma_F`` as in ``_flat_screen``, so the exact
    distance of its rays' outer products is at most ``r = eps_subspace
    (1 + gamma_F) + gamma S`` for any ``S >= s_u + s_v``; the screen takes
    twice the largest ``s`` for every pair. It keeps a pair whose estimate
    is within ``r^2 + 2 gamma S^2``, where the factor 2 covers
    ``(a + b)^2 <= (s_u + s_v)^2 / (1 - gamma_2n)^2``, or is NaN. The few
    roundings of the limit itself fall within the slack of the ``+ 8`` in
    ``gamma_F`` and of that factor 2.
    """
    n = rays.shape[1]
    first, seen = [], {}
    for k, key in enumerate(rays.view((np.void, n * rays.itemsize)).ravel().tolist()):
        first.append(seen.setdefault(key, k))
    distinct = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    rows = rays[distinct]
    flat = rows.view(np.float64)
    squares = np.einsum("ij,ij->i", flat, flat)
    fourth = squares ** 2
    gamma = _dot_bound(8 * n + 16)
    total = 2 * squares.max()
    limit = (tol.eps_subspace * (1 + _dot_bound(2 * n * n + 8)) + gamma * total) ** 2
    limit += 2 * gamma * total ** 2
    later, earlier = [], []
    step = max(1, _CHUNK_ENTRIES // len(rows))
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        block = rows[start:stop].conj() @ rows[:stop].T
        inner = block.real ** 2
        inner += block.imag ** 2
        estimate = fourth[start:stop, None] + fourth[None, :stop]
        estimate -= 2 * inner
        # Not ``<=``: a pair whose estimate is NaN is measured too.
        k, j = np.nonzero(~(estimate > limit))
        k += start
        later.append(k[j < k])
        earlier.append(j[j < k])
    return distinct[np.concatenate(later)], distinct[np.concatenate(earlier)], first


def range_screen(contexts, tol):
    """``_range_screen`` on the members of ``contexts``, as the registry calls it.

    Returns ``(later, earlier, first)`` over all members, ``first[k]`` the
    first member that is the same object as member k; only first
    occurrences are screened.
    """
    members = [p for ctx in contexts for p in ctx.members]
    first = [next(j for j, q in enumerate(members) if q is p) for p in members]
    kept = np.array(sorted(set(first)), dtype=np.intp)
    bases, gaps = zip(*(members[k]._factors() for k in kept))
    ranges = pl.projectors._padded(bases)
    later, earlier = pl.projectors._range_screen(ranges, np.array(gaps, dtype=float), tol)
    return kept[later], kept[earlier], first


def pair_list(later, earlier):
    return list(zip(later.tolist(), earlier.tolist()))


class TestRayScreen:
    """Basis collections: the range screen keeps the pairs the ray screen kept."""

    @staticmethod
    def assert_ray_screen_pairs(contexts, tol):
        # The ray screen keys equal ray bytes as repeats, the range screen
        # only repeated objects: among rows of distinct bytes both keep the
        # same pairs, and each other byte repeat is paired with its first
        # occurrence, at distance 0.
        later, earlier, first = range_screen(contexts, tol)
        want_later, want_earlier, by_bytes = _ray_screen(
            np.concatenate([rays_of(ctx) for ctx in contexts]), tol
        )
        got, distinct = pair_list(later, earlier), set(by_bytes)
        assert [(k, j) for k, j in got if k in distinct and j in distinct] == pair_list(
            want_later, want_earlier
        )
        for k, j in enumerate(by_bytes):
            assert j == k or first[k] != k or (k, j) in got
        return got

    @pytest.mark.parametrize("seed", range(20))
    def test_pairs_at_the_tolerance(self, seed):
        rng = np.random.default_rng(2100 + seed)
        dim = int(rng.integers(2, 9))
        offsets = [0.0] + list(rng.choice(BOUNDARY, size=8)) + list(
            EPS * rng.uniform(0.9, 1.1, size=8)
        )
        contexts = _from_bases(_turned_bases(rng, dim, offsets))
        assert all(from_basis(ctx) for ctx in contexts)
        assert_same_registry(pl.ContextCollection(contexts), contexts, resolve(None))
        self.assert_ray_screen_pairs(contexts, resolve(None))

    def test_boundary_pairs_fall_on_both_sides(self):
        tol = resolve(None)
        near = far = 0
        for seed in range(20):
            rng = np.random.default_rng(2150 + seed)
            dim = int(rng.integers(2, 9))
            offsets = [0.0, EPS * (1 - 1e-9), EPS * (1 + 1e-9)]
            contexts = _from_bases(_turned_bases(rng, dim, offsets))
            identity, _ = oracle_registry(contexts, tol)
            near += sum(identity[(c, 0)] == identity[(0, 0)] for c in (1, 2))
            far += sum(identity[(c, 0)] != identity[(0, 0)] for c in (1, 2))
            assert_same_registry(pl.ContextCollection(contexts), contexts, tol)
            self.assert_ray_screen_pairs(contexts, tol)
        assert near and far

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_blocks_give_the_same_identities(self, monkeypatch, chunk):
        monkeypatch.setattr(pl.projectors, "_CHUNK_ENTRIES", chunk)
        for seed in range(5):
            rng = np.random.default_rng(2100 + seed)
            contexts = _from_bases(_turned_bases(rng, 3, list(rng.choice(BOUNDARY, size=12))))
            assert_same_registry(pl.ContextCollection(contexts), contexts, resolve(None))
            self.assert_ray_screen_pairs(contexts, resolve(None))

    def test_one_ray_under_two_names(self):
        basis = _unitary(np.random.default_rng(2170), 3)
        rays = {f"a{i}": pl.document.matrix_to_json(basis[:, i]) for i in range(3)}
        rays["again"] = rays["a0"]
        groups = {"x": ["a0", "a1", "a2"], "y": ["a1", "a2", "again"]}
        doc = {"dim": 3, "rays": rays, "groups": groups}
        collection, tol = pl.parse_document(doc)
        assert_same_registry(collection, collection.contexts, tol)
        assert collection.identity_of(1, 2) == collection.identity_of(0, 0)
        assert len(collection.registry) == 3
        # a1 and a2 are one object in both groups, so they are in no
        # screened pair; "again" is another ray with a0's bytes, paired with
        # a0 and measured at distance 0.
        later, earlier, first = range_screen(collection.contexts, tol)
        assert first == [0, 1, 2, 1, 2, 5]
        assert collection.contexts[1].members[:2] == collection.contexts[0].members[1:]
        assert self.assert_ray_screen_pairs(collection.contexts, tol) == [(5, 0)]
        assert collection._merged == set()

    def test_phase_turned_copy_is_measured(self):
        # e^{i phi} u has other bytes than u but the same outer product, up to rounding.
        basis = _unitary(np.random.default_rng(2180), 4)
        turned = basis * np.exp(1j * np.array([0.3, 1.1, 2.0, -2.5]))
        contexts = _from_bases([basis, turned])
        collection = pl.ContextCollection(contexts)
        assert_same_registry(collection, contexts, resolve(None))
        assert [collection.identity_of(1, i) for i in range(4)] == [0, 1, 2, 3]
        later, earlier, first = range_screen(contexts, resolve(None))
        assert first == list(range(8))
        assert sorted(pair_list(later, earlier)) == [(4 + i, i) for i in range(4)]
        self.assert_ray_screen_pairs(contexts, resolve(None))
        # Each turned copy lies a rounding error from its ray, not at 0.
        assert collection._merged == {(1, i) for i in range(4)}

    def test_non_transitive_chain(self):
        rng = np.random.default_rng(2190)
        for order in ([0.0, 0.6, 1.2], [0.6, 0.0, 1.2], [1.2, 0.6, 0.0], [0.0, 1.2, 0.6]):
            contexts = _from_bases(_turned_bases(rng, 2, [t * EPS for t in order]))
            assert_same_registry(pl.ContextCollection(contexts), contexts, resolve(None))
        bases = _turned_bases(rng, 2, [0.0, 0.6 * EPS, 1.2 * EPS])
        chain = pl.ContextCollection(_from_bases(bases))
        assert [chain.identity_of(c, 0) for c in range(3)] == [0, 0, 2]

    def test_ray_and_matrix_contexts_mixed(self, monkeypatch):
        rng = np.random.default_rng(2195)
        bases = _turned_bases(rng, 3, [0.0, 0.5 * EPS, 2 * EPS])
        rays = _from_bases(bases)
        members = [
            pl.validate_projector(np.outer(v, v.conj()), label=f"m{i}")
            for i, v in enumerate(bases[1].T)
        ]
        matrix = pl.validate_context(members, name="m")
        contexts = [rays[0], matrix, rays[2]]
        screens = []
        range_screen_ = pl.projectors._range_screen
        monkeypatch.setattr(
            pl.projectors, "_range_screen", lambda *a: screens.append(a[0].shape) or range_screen_(*a)
        )
        collection = pl.ContextCollection(contexts)
        # One screen over the range stack of all nine members.
        assert screens == [(9, 1, 3)]
        assert_same_registry(collection, contexts, resolve(None))
        assert collection.identity_of(1, 0) == collection.identity_of(0, 0)
        # The registry reads the matrix members' SVD factors and the basis
        # contexts' rays, each member's read-only kept range.
        assert all(p._range.shape == (3, 1) and not p._range.flags.writeable for p in members)
        assert rays_of(rays[0]).tobytes() == np.ascontiguousarray(bases[0].T).tobytes()

    def test_no_member_stack_and_no_flattened_gram(self, monkeypatch):
        # The members of a ray collection are read only for the pairs the
        # screen keeps, never all at once, and never flattened.
        rng = np.random.default_rng(2199)
        basis, turned = _turned_bases(rng, 4, [0.0, 0.5 * EPS])
        rays = {f"a{i}": pl.document.matrix_to_json(v) for i, v in enumerate(basis.T)}
        rays.update({f"b{i}": pl.document.matrix_to_json(turned[:, i]) for i in (0, 1)})
        groups = {"x": ["a0", "a1", "a2", "a3"], "y": ["b0", "b1", "a2", "a3"]}
        groups["z"] = groups["x"]
        contexts = pl.parse_document({"dim": 4, "rays": rays, "groups": groups})[0].contexts
        built = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def _record(self, make, *args, **kwargs):
                out = make(*args, **kwargs)
                built.append(out.shape)
                return out

            def array(self, *args, **kwargs):
                return self._record(np.array, *args, **kwargs)

            def stack(self, *args, **kwargs):
                return self._record(np.stack, *args, **kwargs)

            def concatenate(self, *args, **kwargs):
                return self._record(np.concatenate, *args, **kwargs)

        monkeypatch.setattr(pl.projectors, "np", Spy())
        collection = pl.ContextCollection(contexts)
        monkeypatch.undo()
        assert_same_registry(collection, contexts, resolve(None))
        members = [shape for shape in built if shape[-2:] == (4, 4)]
        # Context 1 turns two rays of context 0 within eps_subspace, so those
        # two pairs are measured; every other member of contexts 1 and 2 is
        # a ray of context 0, the same object.
        assert members == [(2, 4, 4)] * 2
        assert len(collection.registry) == 4


LOOSE = pl.TolerancePolicy(eps_rank=1e-10, eps_entry=1e-3, eps_subspace=1e-3)


def _groups(rng, dim):
    """Column groups of C^dim for members of ranks 0 to 3, with at least one column each."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(0 if sizes else 1, min(3, dim - sum(sizes)) + 1)))
    edges = np.cumsum([0] + sizes)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _matrix_context(members, tol, name, checked):
    """A matrix-form context, factored at load or built from validated members."""
    if checked:
        doc = {"dim": len(members[0]), "contexts": {name: [_to_json(m) for m in members]}}
        doc.update(eps_rank=tol.eps_rank, eps_entry=tol.eps_entry, eps_subspace=tol.eps_subspace)
        return pl.parse_document(doc)[0].contexts[0]
    projectors = [pl.validate_projector(m, tol, f"{name}[{i}]") for i, m in enumerate(members)]
    return pl.validate_context(projectors, tol, name)


def mixed_collection(rng, tol=None, scale=0.0):
    """Ray and matrix contexts of one turned unitary, members of ranks 0 to 3.

    Each context turns two columns of the last one's unitary by a boundary
    offset, then takes its columns as a basis or as column groups. In a
    matrix context the group holding column 0 is scaled by ``1 - scale``,
    which keeps it a member within ``eps_entry`` and gives it a gap; the
    turned member then moves by the offset exactly. Some matrix contexts
    have a zero member.
    """
    tol = resolve(tol)
    eps = tol.eps_subspace
    offsets = (eps * (1 - 1e-9), eps * (1 + 1e-9), 0.5 * eps, 1.5 * eps, 0.0)
    dim = int(rng.integers(2, 8))
    unitary = _unitary(rng, dim)
    contexts = []
    for c in range(int(rng.integers(2, 6))):
        if c:
            i, j = (0, 1) if rng.random() < 0.5 else rng.choice(dim, size=2, replace=False)
            unitary = _turn(unitary, i, j, offsets[int(rng.integers(len(offsets)))] / (1 - scale))
        if rng.random() < 0.35:
            contexts.append(pl.context_from_basis(list(unitary.T), tol, name=f"r{c}"))
            continue
        members = []
        for group in _groups(rng, dim):
            cols = unitary[:, group]
            members.append(cols @ cols.conj().T * (1 - scale if group.start == 0 else 1))
        if rng.random() < 0.3:
            members.insert(int(rng.integers(len(members) + 1)), np.zeros((dim, dim)))
        contexts.append(_matrix_context(members, tol, f"m{c}", rng.random() < 0.6))
    return contexts, tol


class TestRangeScreen:
    """One screen for every form: identities as the oracle's, from kept ranges and gaps."""

    @pytest.mark.parametrize("seed", range(30))
    def test_mixed_forms_and_ranks(self, seed):
        rng = np.random.default_rng(2300 + seed)
        contexts, tol = mixed_collection(rng)
        assert_same_registry(pl.ContextCollection(contexts, tol), contexts, tol)

    def test_mixed_corpus_covers_every_case(self):
        ranks, forms, shared = set(), 0, 0
        for seed in range(30):
            contexts, tol = mixed_collection(np.random.default_rng(2300 + seed))
            collection = pl.ContextCollection(contexts, tol)
            ranks |= {p.rank for ctx in contexts for p in ctx.members}
            kinds = {from_basis(ctx) for ctx in contexts}
            forms += kinds == {True, False}
            shared += sum(
                len({from_basis(contexts[ci]) for ci, _ in entry.occurrences}) == 2
                for entry in collection.registry
            )
        assert ranks == {0, 1, 2, 3} and forms >= 10 and shared >= 10

    @pytest.mark.parametrize("seed", range(30))
    def test_gapped_members_at_the_tolerance(self, seed):
        # Members scaled by 1 - 4e-4 lie within eps_entry of a projector, and
        # a turned one moves by eps_subspace (1 +- 1e-9) while its range
        # moves about 4e-4 eps_subspace more: only the gaps keep such pairs.
        rng = np.random.default_rng(2400 + seed)
        contexts, tol = mixed_collection(rng, LOOSE, scale=4e-4)
        assert_same_registry(pl.ContextCollection(contexts, tol), contexts, tol)

    def test_gapped_pairs_fall_on_both_sides(self):
        near = far = 0
        for seed in range(30):
            contexts, tol = mixed_collection(np.random.default_rng(2400 + seed), LOOSE, 4e-4)
            members = [p for ctx in contexts for p in ctx.members]
            for a, p in enumerate(members):
                for q in members[:a]:
                    if p._gap > 1e-4 and q._gap > 1e-4 and p.rank == q.rank:
                        distance = np.linalg.norm(p.matrix - q.matrix)
                        near += 0.999 * tol.eps_subspace < distance <= tol.eps_subspace
                        far += tol.eps_subspace < distance < 1.001 * tol.eps_subspace
        assert near and far

    def test_equal_ranges_with_other_matrices_are_measured(self):
        # diag(1, 1, 0) and 0.9991 diag(1, 1, 0) have the same range bytes,
        # but lie 9e-4 sqrt(2) > eps_subspace apart: not a repeat. That is
        # also the shrunk member's gap, past eps_entry, so b's pair is
        # measured from its dense products, which are 0.
        shrunk = 1 - 9e-4
        a = _matrix_context([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])], LOOSE, "a", True)
        b = _matrix_context([np.diag([shrunk, shrunk, 0.0]), np.diag([0.0, 0.0, 1.0])], LOOSE, "b", True)
        assert b.members[0]._gap > LOOSE.eps_entry
        assert pl.context_residuals(b)["pairwise_product"] == 0.0
        c = _matrix_context([np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0])], LOOSE, "c", False)
        contexts = [a, b, c]
        assert a.members[0]._range.tobytes() == b.members[0]._range.tobytes()
        collection = pl.ContextCollection(contexts, LOOSE)
        assert_same_registry(collection, contexts, LOOSE)
        assert [e.occurrences for e in collection.registry] == [
            ((0, 0), (2, 1)),
            ((0, 1), (1, 1), (2, 0)),
            ((1, 0),),
        ]
        # No member is another's object: the equal matrices are measured at
        # distance 0 beside the shrunk pairs (2, 0) and (5, 2), which only
        # the gaps keep.
        later, earlier, first = range_screen(contexts, LOOSE)
        assert first == list(range(6))
        assert pair_list(later, earlier) == [(2, 0), (3, 1), (4, 1), (4, 3), (5, 0), (5, 2)]
        assert collection._merged == set()

    def test_matrix_twin_of_ks18(self):
        # The twin's members are 36 objects: each later occurrence of a ray
        # is measured against its first, at distance 0, where the ray form
        # repeats the object and measures nothing.
        ray_form, tol = pl.parse_document(ks18_document())
        twin, _ = pl.parse_document(pl.collection_to_document(ray_form, tol))
        assert_same_registry(twin, twin.contexts, tol)
        later, earlier, first = range_screen(twin.contexts, tol)
        repeats = range_screen(ray_form.contexts, tol)[2]
        assert first == list(range(36)) and len(set(repeats)) == 18
        assert pair_list(later, earlier) == [(k, j) for k, j in enumerate(repeats) if j != k]
        assert twin._merged == ray_form._merged == set()
        assert [e.occurrences for e in twin.registry] == [
            e.occurrences for e in ray_form.registry
        ]

    def test_pairs_of_rank0_members(self):
        # Under eps_rank 1e-3, a and -a times a projector of norm a <= 9e-4
        # are rank-0 members; they lie 2 a sqrt(rank) apart.
        tol = pl.TolerancePolicy(eps_rank=1e-3, eps_entry=1e-3, eps_subspace=1e-3)
        rng = np.random.default_rng(2450)
        contexts = []
        for c, a in enumerate([9e-4, -9e-4, 0.0, 2e-4, -2e-4, 0.0, 9e-4]):
            u = _unitary(rng, 3)
            tiny = a * np.outer(u[:, 0], u[:, 0].conj())
            contexts.append(_matrix_context([tiny, np.eye(3)], tol, f"z{c}", c % 2 == 0))
        collection = pl.ContextCollection(contexts, tol)
        assert {p.rank for ctx in contexts for p in ctx.members} == {0, 3}
        assert_same_registry(collection, contexts, tol)
        zeros = {collection.identity_of(c, 0) for c in range(len(contexts))}
        assert 1 < len(zeros) < len(contexts)

    def test_non_finite_hand_built_members(self):
        # A NaN or inf matrix has no range: each first read of it raises.
        good = pl.context_from_basis([[1, 0], [0, 1]], name="z")
        rest = pl.Projector(matrix=np.diag([0.0, 1.0]), rank=1, label="rest")
        for value in (np.nan, np.inf):
            bad = pl.Projector(matrix=np.diag([value, 0.0]), rank=1, label="bad")
            ctx = pl.MaximalContext("bad", (bad, rest))
            for read in (
                lambda: pl.ContextCollection([good, ctx]),
                bad.range,
                lambda: pl.context_lattice(ctx),
            ):
                with pytest.raises(pl.ValidationError, match="^matrix entries must be finite$"):
                    read()

    def test_an_overflowed_gap_keeps_only_its_own_pairs(self):
        # A member of norm 1e200 has a unit range but a gap whose norm
        # overflows to +inf: that keeps every pair with it, and the limit of
        # every other pair stays finite, so only its own pairs are measured.
        rng = np.random.default_rng(2460)
        contexts = [pl.context_from_basis(list(_unitary(rng, 2).T), name=f"r{c}") for c in range(12)]
        z = np.diag([1.0, 0.0])
        big = (
            pl.Projector(matrix=1e200 * z, rank=1, label="big"),
            pl.Projector(matrix=np.eye(2) - z, rank=1, label="rest"),
        )
        contexts.insert(5, pl.MaximalContext("big", big))
        with np.errstate(over="ignore"):
            later, earlier, _ = range_screen(contexts, resolve(None))
            collection = pl.ContextCollection(contexts)
            assert_same_registry(collection, contexts, resolve(None))
        assert big[0]._gap == np.inf
        # Member 10 is the big one, among 26.
        want = {(10, j) for j in range(10)} | {(k, 10) for k in range(11, 26)}
        assert set(pair_list(later, earlier)) == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_repeats_of_hand_built_matrices_of_any_dtype(self, dtype):
        # Equal matrices of other objects are measured by value, whatever
        # their dtype, here 3 x 3 single-precision entries among them.
        z = np.diag([1, 0, 0]).astype(dtype)
        contexts = [
            pl.MaximalContext(
                name,
                (
                    pl.Projector(matrix=z, rank=1, label=f"{name}a"),
                    pl.Projector(matrix=(np.eye(3) - z).astype(dtype), rank=2, label=f"{name}b"),
                ),
            )
            for name in ("a", "b")
        ]
        collection = pl.ContextCollection(contexts)
        assert_same_registry(collection, contexts, resolve(None))
        later, earlier, first = range_screen(contexts, resolve(None))
        assert first == [0, 1, 2, 3] and pair_list(later, earlier) == [(2, 0), (3, 1)]
        assert collection._identities == [[0, 1], [0, 1]] and collection._merged == set()

    @pytest.mark.parametrize("seed", range(10))
    def test_every_accepted_pair_is_kept(self, seed):
        # Both the range screen and the flattened-screen oracle keep every
        # pair of distinct members that the norm accepts.
        rng = np.random.default_rng(2500 + seed)
        for tol, scale in ((None, 0.0), (LOOSE, 4e-4)):
            contexts, tol = mixed_collection(rng, tol, scale)
            members = [p for ctx in contexts for p in ctx.members]
            later, earlier, first = range_screen(contexts, tol)
            flat = _flat_screen(np.array([p.matrix for p in members]), tol)
            kept, flat_kept = set(pair_list(later, earlier)), set(pair_list(*flat))
            for k, p in enumerate(members):
                for j in range(k):
                    if np.linalg.norm(members[j].matrix - p.matrix) <= tol.eps_subspace:
                        assert (k, j) in flat_kept
                        assert (k, j) in kept or first[k] != k or first[j] != j


def padded_reference(bases):
    """(n, r) bases as a (K, w, n) stack, one column at a time, zero-padded."""
    stack = np.zeros((len(bases), max(b.shape[1] for b in bases), bases[0].shape[0]), dtype=complex)
    for k, basis in enumerate(bases):
        for i in range(basis.shape[1]):
            stack[k, i] = basis[:, i]
    return stack


class TestOneRangeStack:
    """Every range stack is ``_padded`` of the members' (n, r) kept ranges."""

    def test_mixed_widths_with_rank0_members(self):
        rng = np.random.default_rng(2600)
        seen = set()
        for _ in range(20):
            n = int(rng.integers(1, 6))
            widths = rng.integers(0, n + 1, size=int(rng.integers(2, 8))).tolist()
            widths[0] = max(widths[0], 1)
            bases = [_unitary(rng, n)[:, :w] for w in widths]
            got = pl.projectors._padded(bases)
            want = padded_reference(bases)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            seen.add((0 in widths, len(set(widths)) > 1))
        assert (True, True) in seen and (False, True) in seen

    def test_equal_widths_give_the_same_bytes(self):
        rng = np.random.default_rng(2610)
        for n, w in ((1, 1), (4, 1), (5, 2), (6, 6)):
            bases = [_unitary(rng, n)[:, :w] for _ in range(5)]
            got = pl.projectors._padded(bases)
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert got.shape == (5, w, n) and got.tobytes() == padded_reference(bases).tobytes()

    def test_the_registry_screens_the_distinct_members_ranges(self, monkeypatch):
        # Ray, matrix, mixed, hand-built and validate_context collections:
        # the one screen gets the distinct members' kept ranges, zero-padded,
        # in order of first occurrence, and their gaps.
        screened = []
        screen = pl.projectors._range_screen

        def spy(ranges, gaps, tol):
            screened.append((ranges.copy(), gaps.copy()))
            return screen(ranges, gaps, tol)

        monkeypatch.setattr(pl.projectors, "_range_screen", spy)
        rays, tol = pl.parse_document(ks18_document())
        matrices, _ = pl.parse_document(pl.collection_to_document(rays, tol))
        rng = np.random.default_rng(2620)
        validated = [
            _matrix_context([np.outer(v, v.conj()) for v in _unitary(rng, 3).T], None, f"v{c}", False)
            for c in range(2)
        ]
        z = np.diag([1.0, 0.0, 0.0])
        hand = [
            pl.MaximalContext(name, (
                pl.Projector(matrix=z, rank=1, label=f"{name}a"),
                pl.Projector(matrix=np.eye(3) - z, rank=2, label=f"{name}b"),
            ))
            for name in ("a", "b")
        ]
        cases = [rays.contexts, matrices.contexts, validated, hand + validated]
        cases += [mixed_collection(np.random.default_rng([2630, seed]))[0] for seed in range(10)]
        counts, ranks = [], set()
        for contexts in cases:
            screened.clear()
            pl.ContextCollection(contexts)
            distinct = list({id(p): p for ctx in contexts for p in ctx.members}.values())
            (ranges, gaps), = screened
            want = padded_reference([p._factors()[0] for p in distinct])
            assert ranges.shape == want.shape and ranges.tobytes() == want.tobytes()
            assert gaps.tolist() == [p._gap for p in distinct]
            counts.append(len(distinct))
            ranks |= {p.rank for p in distinct}
        # The 36 ray members are 18 objects; the matrix twin's are 36.
        assert counts[:4] == [18, 36, 6, 10] and ranks >= {0, 1, 2, 3}


class TestDocumentOrder:
    def _doc(self, first, second):
        good = [_to_json(np.diag([1.0, 0.0])), _to_json(np.diag([0.0, 1.0]))]
        members = [good[0], first, good[1], second]
        return {"dim": 2, "contexts": {"z": members}}

    def test_invalid_member_before_malformed_one(self):
        skew = _to_json([[0.0, 1.0], [0.0, 0.0]])
        doc = self._doc(skew, "not a matrix")
        with pytest.raises(pl.NotHermitianError) as info:
            pl.parse_document(doc)
        assert outcome(oracle_parse_document, doc)[1] == (type(info.value), str(info.value))

    def test_malformed_member_before_invalid_one(self):
        skew = _to_json([[0.0, 1.0], [0.0, 0.0]])
        doc = self._doc([[[1, 0], [0, 0]]], skew)
        with pytest.raises(pl.ParseError) as info:
            pl.parse_document(doc)
        assert outcome(oracle_parse_document, doc)[1] == (type(info.value), str(info.value))


class TestNanResiduals:
    def test_hermitian(self):
        stack = np.array([[[1.0, np.nan], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(pl.NotHermitianError):
            pl.projectors._checked_stack(stack, resolve(None), ["n"])

    def test_pairwise(self):
        # Hand-built members whose gaps overflow to +inf: their bound is not
        # finite, so the pair is measured, and its dense products overflow.
        big = 1e308
        members = [
            pl.Projector(matrix=np.full((2, 2), big, dtype=complex), rank=1, label="n"),
            pl.Projector(matrix=np.array([[big, -big], [-big, big]], dtype=complex), rank=1, label="m"),
        ]
        assert members[0]._factors()[1] == members[1]._factors()[1] == np.inf
        with pytest.raises(pl.PairwiseProductNonzeroError) as info:
            pl.validate_context(members)
        assert info.value.pair == (0, 1) and not np.isfinite(info.value.residual)
        # Beside a zero matrix the dense products are 0, and the sum fails.
        members[1] = pl.Projector(matrix=np.zeros((2, 2), dtype=complex), rank=0, label="0")
        with pytest.raises(pl.SumNotIdentityError):
            pl.validate_context(members)

    def test_sum(self):
        # A hand-built member that is not finite has no kept range: the
        # checks that read it raise before any residual is formed.
        member = pl.Projector(matrix=np.array([[np.nan]], dtype=complex), rank=1, label="n")
        for check in (pl.validate_context, pl.context_residuals):
            arg = [member] if check is pl.validate_context else pl.MaximalContext("n", (member,))
            with pytest.raises(pl.ValidationError, match="matrix entries must be finite"):
                check(arg)


class TestSumOrder:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_members_are_added_in_order(self, dim):
        # Any reassociation of the sum shows in the last bits of the residual.
        rng = np.random.default_rng(1997 + dim)
        for count in (2, 5, 9, 17, 33):
            matrices = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
            members = tuple(
                pl.Projector(matrix=m, rank=1, label=f"m{i}") for i, m in enumerate(matrices)
            )
            ctx = pl.MaximalContext("noise", members)
            got = pl.context_residuals(ctx)["sum_minus_identity"]
            assert got == oracle_residuals(members)[1]["sum_minus_identity"]


class TestRangeProducts:
    """A matrix context's pairwise residuals are bounds read off its members'
    kept ranges (``_products``), checked against the dense products."""

    @staticmethod
    def _pair(eps_entry):
        """A rank-2 and a rank-1 member of C^3 whose ranges meet at an angle
        of 1e-9, as a document at ``eps_entry`` and as validated members."""
        t = 1e-9
        q = np.array([np.sin(t), 0.0, np.cos(t)])
        matrices = [np.diag([1.0, 1.0, 0.0]), np.outer(q, q)]
        tol = pl.TolerancePolicy(eps_rank=1e-12, eps_entry=eps_entry, eps_subspace=1e-6)
        doc = {"dim": 3, "contexts": {"p": [_to_json(m) for m in matrices]}}
        doc.update(eps_rank=tol.eps_rank, eps_entry=tol.eps_entry, eps_subspace=tol.eps_subspace)
        members = [pl.validate_projector(m, tol, f"p[{i}]") for i, m in enumerate(matrices)]
        return doc, members, tol

    def test_borderline_pair_of_ranks_one_and_two(self):
        doc, members, tol = self._pair(1e-6)
        assert [p.rank for p in members] == [2, 1]
        bound = pl.context_residuals(pl.parse_document(doc)[0].contexts[0])["pairwise_product"]
        dense = dense_products([p.matrix for p in members])
        dense = max(dense[0, 1], dense[1, 0])
        # About sin(t) cos(t) plus the gaps.
        assert 1e-9 * (1 - 1e-6) < dense < bound < dense + 1e-14
        # From the bound up, the pair passes as the bound reads; between the
        # dense products and the bound, the pair is measured and passes with
        # the dense value; below, it fails with that value.
        cases = (
            (bound, bound),
            (np.nextafter(bound, 0.0), dense),
            (dense, dense),
            (np.nextafter(dense, 0.0), None),
        )
        for eps, reported in cases:
            doc, members, tol = self._pair(eps)
            checks = (
                lambda: pl.parse_document(doc)[0].contexts[0],
                lambda: pl.validate_context(members, tol, "p"),
            )
            for check in checks:
                if reported is None:
                    with pytest.raises(pl.PairwiseProductNonzeroError) as info:
                        check()
                    assert (info.value.context, info.value.pair) == ("p", (0, 1))
                    assert info.value.residual == dense
                else:
                    assert pl.context_residuals(check())["pairwise_product"] == reported

    @pytest.mark.parametrize("dim, turned", [(64, False), (128, True)])
    def test_orthogonal_members_of_high_rank(self, dim, turned):
        # Two members of rank dim / 2, their ranges orthogonal, at
        # eps_entry 1e-12: each gap carries a rounding allowance of about
        # 4 dim^2 u / 2, so the bound exceeds eps_entry. The pair is measured
        # and passes, as the dense products do. ``turned`` moves both members
        # by a Haar unitary, so their matrices and ranges are dense.
        half = np.diag(np.arange(dim) < dim // 2).astype(complex)
        matrices = [half, np.eye(dim) - half]
        if turned:
            unitary = _unitary(np.random.default_rng(2750), dim)
            matrices = [unitary @ m @ unitary.conj().T for m in matrices]
        tol = pl.TolerancePolicy(eps_rank=1e-12, eps_entry=1e-12, eps_subspace=1e-8)
        members = [pl.validate_projector(m, tol, f"h[{i}]") for i, m in enumerate(matrices)]
        bounds = pl.projectors._range_residuals(tuple(members))[0]
        assert bounds[0, 1] > tol.eps_entry
        dense = dense_products(matrices)
        expected = max(dense[0, 1], dense[1, 0])
        assert expected <= tol.eps_entry
        doc = {"dim": dim, "contexts": {"h": [_to_json(m) for m in matrices]}}
        doc.update(eps_rank=tol.eps_rank, eps_entry=tol.eps_entry, eps_subspace=tol.eps_subspace)
        for ctx in (pl.validate_context(members, tol, "h"), pl.parse_document(doc)[0].contexts[0]):
            assert [p.rank for p in ctx.members] == [dim // 2] * 2
            assert pl.context_residuals(ctx)["pairwise_product"] == expected

    @staticmethod
    def _corpus():
        """Matrix contexts of ranks 0 to 3: the documents of ``matrix_document``
        that load, the matrix contexts of ``mixed_collection``, plain and
        with gapped members, and column groups of a Haar unitary each moved
        by Hermitian noise of 1e-14 to 1e-11, whose products are that noise."""
        for seed in range(60):
            loaded = outcome(pl.parse_document, matrix_document(np.random.default_rng(1800 + seed)))[0]
            if loaded is not None:
                yield from loaded[0].contexts
        for seed in range(30):
            for tol, scale, base in ((None, 0.0, 2300), (LOOSE, 4e-4, 2400)):
                yield from mixed_collection(np.random.default_rng(base + seed), tol, scale)[0]
        rng = np.random.default_rng(2740)
        for _ in range(40):
            dim = int(rng.integers(2, 8))
            unitary = _unitary(rng, dim)
            members = []
            for group in _groups(rng, dim):
                noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                noise = 10 ** rng.uniform(-14, -11) * (noise + noise.conj().T)
                cols = unitary[:, group]
                members.append(pl.validate_projector(cols @ cols.conj().T + noise))
            yield pl.validate_context(members)

    def test_bounds_lie_above_the_dense_products(self):
        ranks, gapped = set(), 0
        for ctx in self._corpus():
            if from_basis(ctx):
                continue
            ranks |= {p.rank for p in ctx.members}
            matrices = [p.matrix for p in ctx.members]
            bounds = pl.projectors._range_residuals(ctx.members)[0]
            dense = dense_products(matrices)
            slack = bound_slack(ctx.members)
            gaps = np.array([p._gap for p in ctx.members])
            off = ~np.eye(len(ctx), dtype=bool)
            assert (bounds >= dense - slack)[off].all()
            if dense[off].max(initial=0.0) < 1e-13:
                # Orthogonal ranges: above the products by about the gaps.
                reach = np.add.outer(gaps, gaps) * (1 + gaps.max()) + 2 * slack
                assert (bounds <= dense + reach)[off].all()
            assert pl.context_residuals(ctx)["pairwise_product"] == bounds[off].max(initial=0.0)
            # Each member's own P P - P, bit for bit.
            idem = pl.projectors._member_residuals(np.array(matrices))[1]
            assert idem.tolist() == dense.diagonal().tolist()
            gapped += gaps.max() > 1e-6
        assert {0, 1, 2, 3} <= ranks and gapped >= 10

    def test_same_verdicts_as_the_dense_products(self):
        # Every document of the matrix corpus, and each fault of
        # ``_faulty_matrices``, against the dense oracle, which takes the
        # products pair by pair and has no rank-sum or overlap rule.
        for seed in range(60):
            doc = matrix_document(np.random.default_rng(1800 + seed))
            assert outcome(pl.parse_document, doc)[1] == outcome(oracle_parse_document, doc)[1]
        for fault in MATRIX_FAULTS:
            if fault in ("rank sum", "overlap"):
                continue
            matrices = _faulty_matrices(np.random.default_rng(2730), fault)
            doc = {"dim": 4, **TIGHT, "contexts": {"b": matrices}}
            assert outcome(pl.parse_document, doc)[1] == outcome(oracle_parse_document, doc)[1]

    def test_context_of_rank_0_members_fails_its_sum(self):
        # Every range is empty: the range stack is one zero row per member,
        # every bound is 0, and the sum fails as it did on dense products.
        zero = np.zeros((2, 2))
        doc = {"dim": 2, "contexts": {"z": [_to_json(zero)] * 2}}
        members = [pl.validate_projector(zero)] * 2
        error = "context 'z': members do not sum to the identity: max |sum - I| = 1.000e+00 > 1.000e-09"
        assert outcome(pl.parse_document, doc)[1] == (pl.SumNotIdentityError, error)
        assert outcome(pl.validate_context, members, None, "z")[1] == (pl.SumNotIdentityError, error)
        assert pl.context_residuals(pl.MaximalContext("z", tuple(members)))["pairwise_product"] == 0.0

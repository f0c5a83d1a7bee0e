"""The stacked context checks and the screened registry against per-member oracles.

The oracles below are the plain reading of the axioms and of the registry
rule: they check one member at a time, and compare each member with every
earlier representative by one norm. A basis is checked through the rank-1
formula, one pair at a time, and every other context through the dense
products. On a seeded corpus of documents and hand-built collections the
package must give the same member bytes, ranks, residual floats, identities
and occurrences, and on every failure the same exception class and message.
"""
import numpy as np
import pytest

import projlat as pl
from conftest import ks18_document, rank1_bound
from projlat import linalg
from projlat.document import _parse_matrix, _parse_tolerances, _parse_vector
from projlat.tolerance import resolve


def oracle_projector(matrix, tol, label):
    arr = linalg.as_complex_matrix(matrix)
    if arr.shape[0] != arr.shape[1]:
        raise pl.NotSquareError(arr.shape)
    herm = linalg.max_abs(arr - arr.conj().T)
    if not herm <= tol.eps_entry:
        raise pl.NotHermitianError(herm, tol.eps_entry)
    idem = linalg.max_abs(arr @ arr - arr)
    if not idem <= tol.eps_entry:
        raise pl.NotIdempotentError(idem, tol.eps_entry)
    return pl.Projector(matrix=arr, rank=linalg.numerical_rank(arr, tol), label=label)


def oracle_residuals(members):
    matrices = [p.matrix for p in members]
    pairwise = np.zeros((len(matrices), len(matrices)))
    for i, a in enumerate(matrices):
        for j in range(i + 1, len(matrices)):
            b = matrices[j]
            pairwise[i, j] = pairwise[j, i] = max(
                np.abs(a @ b).max(), np.abs(b @ a).max()
            )
    total = sum(matrices)
    return pairwise, {
        "pairwise_product": float(pairwise.max()),
        "sum_minus_identity": linalg.max_abs(total - np.eye(len(total))),
    }


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
    residual = linalg.max_abs(gram - np.eye(len(vecs)))
    if not residual <= tol.eps_entry:
        raise pl.NotOrthonormalError(residual, tol.eps_entry)
    if len(vecs) != stacked.shape[0]:
        raise pl.NotCompleteError(len(vecs), stacked.shape[0])
    products = oracle_rank1_products(vecs, gram)
    members = []
    for i, v in enumerate(vecs):
        matrix = np.outer(v, v.conj())
        herm = linalg.max_abs(matrix - matrix.conj().T)
        if not herm <= tol.eps_entry:
            raise pl.NotHermitianError(herm, tol.eps_entry)
        if not products[i, i] <= tol.eps_entry:
            raise pl.NotIdempotentError(float(products[i, i]), tol.eps_entry)
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
                    _parse_matrix(matrix, dim, f"contexts[{name}][{i}]"), tol, f"{name}[{i}]"
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
        assert pl.context_residuals(ctx) == residuals
        # A context built by hand keeps no rays: its products are the dense ones.
        dense = oracle_residuals(ctx.members)[1]
        assert pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members)) == dense
        if ctx._rays is None:
            assert dense == residuals
        else:
            gap = abs(dense["pairwise_product"] - residuals["pairwise_product"])
            assert gap <= rank1_bound(ctx._rays)
            assert dense["sum_minus_identity"] == residuals["sum_minus_identity"]
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

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_sum_failure_and_gram_failure_in_either_order(self, order):
        # Under eps_entry 0.29, basis a passes its Gram check but not its
        # sum, and basis b fails its Gram check: the stack sees b fail
        # first, yet the first of the two in the document must raise.
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
        doc = {"dim": 3, "eps_entry": 0.29, "eps_subspace": 0.29, "rays": rays, "groups": groups}
        got = outcome(pl.parse_document, doc)[1]
        assert got == outcome(oracle_parse_document, doc)[1]
        assert got[0] is (pl.SumNotIdentityError if order[0] == "a" else pl.NotOrthonormalError)

    def test_groups_share_one_read_only_stack(self):
        doc = ks18_document()
        collection, _ = pl.parse_document(doc)
        owner = collection.contexts[0].members[0].matrix.base
        assert owner.shape == (36, 4, 4) and not owner.flags.writeable
        for ctx in collection.contexts:
            for member in ctx.members:
                assert member.matrix.base is owner


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
        stack = np.array([[[[1.0, np.nan], [0.0, 0.0]]]], dtype=complex)
        with pytest.raises(pl.NotHermitianError):
            pl.projectors._checked_stack(stack, resolve(None), [["n"]])

    def test_pairwise(self):
        members = [
            pl.Projector(matrix=np.array([[np.nan]], dtype=complex), rank=1, label="n"),
            pl.Projector(matrix=np.array([[0.0]], dtype=complex), rank=0, label="0"),
        ]
        with pytest.raises(pl.PairwiseProductNonzeroError) as info:
            pl.validate_context(members)
        assert info.value.pair == (0, 1) and np.isnan(info.value.residual)

    def test_sum(self):
        member = pl.Projector(matrix=np.array([[np.nan]], dtype=complex), rank=1, label="n")
        with pytest.raises(pl.SumNotIdentityError) as info:
            pl.validate_context([member])
        assert np.isnan(info.value.residual)


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
            assert pl.context_residuals(ctx) == oracle_residuals(members)[1]


class TestMemoryBound:
    def test_products_are_taken_in_blocks(self, monkeypatch):
        # Matrix-form members, whose products are dense. At m = n = 8 one row
        # of products has 512 entries: a block of 100 entries still takes one
        # row, and the residuals do not change.
        basis = pl.context_from_basis(list(_unitary(np.random.default_rng(1995), 8).T))
        doc = pl.collection_to_document(pl.ContextCollection([basis]))
        whole = pl.context_residuals(pl.parse_document(doc)[0].contexts[0])
        monkeypatch.setattr(pl.projectors, "_CHUNK_ENTRIES", 100)
        ctx = pl.parse_document(doc)[0].contexts[0]
        assert ctx._rays is None
        assert pl.context_residuals(ctx) == whole
        assert pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members)) == whole

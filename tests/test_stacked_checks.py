"""The stacked context checks and the screened registry against per-member oracles.

The oracles below are the plain reading of the axioms and of the registry
rule: they check one member at a time, and compare each member with every
earlier representative by one norm. On a seeded corpus of documents and
hand-built collections the package must give the same member bytes, ranks,
residual floats, identities and occurrences, and on every failure the same
exception class and message.
"""
import numpy as np
import pytest

import projlat as pl
from conftest import ks18_document
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


def oracle_context(members, tol, name):
    members = tuple(members)
    pairwise, residuals = oracle_residuals(members)
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
    members = []
    for i, v in enumerate(vecs):
        checked = oracle_projector(np.outer(v, v.conj()), tol, labels[i])
        rank = linalg.singular_rank([gram[i, i].real], tol)
        members.append(pl.Projector(matrix=checked.matrix, rank=rank, label=labels[i]))
    return oracle_context(members, tol, name)


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
    """The parent's loading loop: each member parsed, then validated, in turn."""
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
            rays[name] = arr / float(np.linalg.norm(arr))
        for name, ray_names in doc["groups"].items():
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
        assert pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members)) == residuals
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
        stack = np.array([[[1.0, np.nan], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(pl.NotHermitianError):
            pl.projectors._checked_stack(stack, resolve(None), ["n"])

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
        # At m = n = 8 one row of products has 512 entries: a block of 100
        # entries still takes one row, and the residuals do not change.
        ctx = pl.context_from_basis(list(_unitary(np.random.default_rng(1995), 8).T))
        whole = pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members))
        monkeypatch.setattr(pl.projectors, "_CHUNK_ENTRIES", 100)
        assert pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members)) == whole
        assert whole == pl.context_residuals(ctx)

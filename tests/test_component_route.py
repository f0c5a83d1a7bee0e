"""The `irreducible` verdict decided over the connected components of the meet.

``collection_irreducibility`` splits the registry's algebra into one
summand per component of the graph that links overlapping atoms. These
tests check its verdicts against ``is_irreducible`` on the registry
projectors and against the commutant, its dimension against sum d_c^2 on
planted blocks, its witnesses against ``is_invariant``, and the cases that
fall back to ``is_irreducible`` on every generator.
"""
import json

import numpy as np
import pytest

import projlat as pl
from conftest import KS18_GROUPS, ks18_ray_names
from projlat.algebra import _member_components, collection_irreducibility
from projlat.cli import main
from projlat.document import matrix_to_json
from projlat.lattice import _bits, _components, _rows


def _haar(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _block_diagonal(rng, sizes):
    n = sum(sizes)
    out, start = np.zeros((n, n), dtype=complex), 0
    for size in sizes:
        out[start : start + size, start : start + size] = _haar(rng, size)
        start += size
    return out


def _ray_document(bases, **tolerances):
    """One group per (n, n) basis, its columns as rays ``<group><k>``."""
    rays, groups = {}, {}
    for g, basis in enumerate(bases):
        groups[f"g{g}"] = [f"g{g}r{k}" for k in range(basis.shape[1])]
        for k, column in enumerate(basis.T):
            rays[f"g{g}r{k}"] = [[z.real, z.imag] for z in column.tolist()]
    return {"dim": bases[0].shape[0], **tolerances, "rays": rays, "groups": groups}


def planted_rays(rng, sizes, contexts=2):
    """Rank-1 contexts block-diagonal over ``sizes``, turned by one Haar unitary."""
    turn = _haar(rng, sum(sizes))
    return _ray_document([turn @ _block_diagonal(rng, sizes) for _ in range(contexts)])


def ks18_tensored(rng, factors=2):
    """The 18-ray set tensored with the standard basis of C^factors, turned
    by one Haar unitary: group g lists its rays tensored with e_0, then e_1."""
    names = ks18_ray_names()
    turn = _haar(rng, 4 * factors)
    eye = np.eye(factors)
    rays = {
        f"{name}_{j}": matrix_to_json(turn @ np.kron(np.array(ray) / np.linalg.norm(ray), eye[j]))
        for ray, name in names.items()
        for j in range(factors)
    }
    groups = {
        f"c{g}": [f"{names[ray]}_{j}" for j in range(factors) for ray in group]
        for g, group in enumerate(KS18_GROUPS)
    }
    return {"dim": 4 * factors, "rays": rays, "groups": groups}


def planted_matrices(rng, sizes, rank=2, contexts=2):
    """Matrix-form contexts of rank-``rank`` members, each inside one block."""
    n = sum(sizes)
    turn = _haar(rng, n)
    doc = {"dim": n, "contexts": {}}
    for c in range(contexts):
        columns = turn @ _block_diagonal(rng, sizes)
        doc["contexts"][f"c{c}"] = [
            matrix_to_json(columns[:, k : k + rank] @ columns[:, k : k + rank].conj().T)
            for k in range(0, n, rank)
        ]
    return doc


def tensored(rng, n=3, copies=2):
    """V (P_i (x) I_copies) V^H for two Haar bases of C^n: rank-``copies``
    members, one component, and the algebra M_n (x) I_copies."""
    turn = _haar(rng, n * copies)
    doc = {"dim": n * copies, "contexts": {}}
    for c in range(2):
        basis = _haar(rng, n)
        doc["contexts"][f"c{c}"] = [
            matrix_to_json(
                turn @ np.kron(np.outer(basis[:, i], basis[:, i].conj()), np.eye(copies))
                @ turn.conj().T
            )
            for i in range(n)
        ]
    return doc


def coupled(rng, angle):
    """Two 3 + 3 rank-1 pieces; the second context turns one ray of each
    piece towards the other by ``angle``."""
    turn = _haar(rng, 6)
    bases = [_block_diagonal(rng, (3, 3)) for _ in range(2)]
    rotation = np.eye(6)
    rotation[np.ix_([2, 3], [2, 3])] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    bases[1] = rotation @ bases[1]
    return _ray_document([turn @ b for b in bases])


def _adjoint_square(g):
    """ad_G^2 on row-major vec(X), for Hermitian G: (G (x) I - I (x) G^T)^2."""
    eye = np.eye(len(g))
    square = g @ g
    return np.kron(square, eye) + np.kron(eye, square.T) - 2 * np.kron(g, g.T)


def commutant(mats):
    """An orthonormal basis of {X : GX = XG for every G}, for Hermitian G:
    the null space of sum_G ad_G^2, which is positive semidefinite."""
    n = len(mats[0])
    values, vectors = np.linalg.eigh(sum(_adjoint_square(g) for g in mats))
    kept = values <= 1e-9 * max(float(values[-1]), 1.0)
    return [v.reshape(n, n) for v in vectors[:, kept].T]


def commutant_oracle(mats):
    """(dim A', dim A) for the *-algebra A the Hermitian ``mats`` generate:
    A is the commutant of A' (von Neumann), and A' is spanned by the
    Hermitian parts of its basis."""
    outer = commutant(mats)
    hermitian = [h for x in outer for h in ((x + x.conj().T) / 2, (x - x.conj().T) / 2j)]
    return len(outer), len(commutant(hermitian))


def _report(tmp_path, capsys, doc, command="irreducible"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def _registry(doc):
    collection, tol = pl.parse_document(doc)
    return collection, tol, [e.projector.matrix for e in collection.registry]


def _meet(collection, tol):
    return pl.intersect_lattices([pl.context_lattice(c) for c in collection.contexts], tol)


def _witness(verdicts, n):
    basis = np.array([[complex(*z) for z in row] for row in verdicts["witness"]["basis"]])
    return pl.Subspace(n, basis.T)


def planted_corpus():
    rng = np.random.default_rng(2500)
    docs = [(f"rays{sizes}", planted_rays(rng, sizes)) for sizes in ((2, 3), (5, 5, 5, 5), (8, 8))]
    docs += [("rays(4,)", planted_rays(rng, (4,), contexts=3)), ("rays(1,2,3)", planted_rays(rng, (1, 2, 3)))]
    docs += [(f"matrices{sizes}", planted_matrices(rng, sizes)) for sizes in ((4, 2), (4, 4), (2, 2, 2), (6,))]
    docs += [("tensored", tensored(rng))]
    return docs


class TestAgreement:
    @pytest.mark.parametrize("name, doc", planted_corpus(), ids=[n for n, _ in planted_corpus()])
    def test_cli_agrees_with_is_irreducible_and_the_commutant(self, tmp_path, capsys, name, doc):
        code, report = _report(tmp_path, capsys, doc)
        assert code == 0
        verdicts = report["verdicts"]
        collection, tol, generators = _registry(doc)
        direct = pl.is_irreducible(generators, tol)
        assert verdicts["irreducible"] == direct.irreducible
        assert verdicts["algebra_dimension"] == direct.algebra_dimension
        outer, algebra = commutant_oracle(generators)
        assert verdicts["irreducible"] == (outer == 1)
        assert verdicts["algebra_dimension"] == algebra
        if not verdicts["irreducible"]:
            witness = _witness(verdicts, collection.ambient_dim)
            assert 0 < witness.dim < collection.ambient_dim
            assert all(pl.is_invariant(witness, g, tol) for g in generators)

    @pytest.mark.parametrize(
        "sizes", [(1, 1), (2, 3), (3, 1, 2), (5, 5, 5, 5), (8, 8), (12, 12), (1, 7, 4, 4)]
    )
    def test_dimension_is_the_sum_of_squares(self, tmp_path, capsys, sizes):
        doc = planted_rays(np.random.default_rng([2510, *sizes]), sizes)
        code, report = _report(tmp_path, capsys, doc)
        assert code == 0
        verdicts = report["verdicts"]
        assert verdicts["irreducible"] is False
        assert verdicts["algebra_dimension"] == sum(d * d for d in sizes)
        # Block 0 holds the first context's lowest atoms, so its component comes first.
        assert verdicts["witness"]["dim"] == sizes[0]
        assert verdicts["lattice_intersection_trivial"] is False and verdicts["routes_agree"]
        collection, tol, generators = _registry(doc)
        witness = _witness(verdicts, collection.ambient_dim)
        assert all(pl.is_invariant(witness, g, tol) for g in generators)

    def test_one_reducible_component_of_rank_two(self, tmp_path, capsys):
        # One component, so the lattice route sees nothing, while the
        # closure finds the algebra M_3 (x) I_2.
        doc = tensored(np.random.default_rng(2520))
        collection, tol, generators = _registry(doc)
        meet = _meet(collection, tol)
        assert len(meet._blocks) == 1
        code, report = _report(tmp_path, capsys, doc)
        verdicts = report["verdicts"]
        assert code == 0 and verdicts["irreducible"] is False
        assert verdicts["algebra_dimension"] == 9
        assert verdicts["lattice_intersection_trivial"] is True and not verdicts["routes_agree"]
        witness = _witness(verdicts, 6)
        assert 0 < witness.dim < 6
        assert all(pl.is_invariant(witness, g, tol) for g in generators)

    def test_rank_two_components_are_compressed(self):
        # Two rank-2 components, each decided by is_irreducible on its
        # compressions: three generic pairs of rank-2 projectors generate
        # M_4 on the piece of C^4, and the piece of C^2 holds one member
        # per context, so its algebra is C.
        rng = np.random.default_rng(2530)
        doc = planted_matrices(rng, (4, 2), contexts=3)
        collection, tol, generators = _registry(doc)
        where, dims, full = _member_components(collection, _meet(collection, tol))
        assert sorted(dims) == [2, 4] and full == [False, False]
        report = collection_irreducibility(collection, _meet(collection, tol), tol)
        assert not report.irreducible and report.algebra_dimension == 16 + 1
        assert report.algebra_dimension == pl.is_irreducible(generators, tol).algebra_dimension

    def test_coupling_sweep_switches_once(self, tmp_path, capsys):
        rng = np.random.default_rng(2540)
        verdicts = []
        for angle in np.logspace(-14, -2, 25):
            doc = coupled(rng, angle)
            code, report = _report(tmp_path, capsys, doc)
            assert code == 0
            got = report["verdicts"]
            verdicts.append(got["irreducible"])
            if got["irreducible"]:
                assert got["algebra_dimension"] == 36
            else:
                assert got["algebra_dimension"] == 18
                collection, tol, generators = _registry(doc)
                witness = _witness(got, 6)
                assert all(pl.is_invariant(witness, g, tol) for g in generators)
        switches = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
        assert switches == 1 and verdicts[0] is False and verdicts[-1] is True

    def test_dimension_one_document_exits_one(self, tmp_path, capsys):
        doc = {"dim": 1, "rays": {"a": [[1.0, 0.0]]}, "groups": {"z": ["a"]}}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert main(["irreducible", str(path)]) == 1
        assert "ambient dimension >= 2" in capsys.readouterr().err
        collection, tol = pl.parse_document(doc)
        with pytest.raises(pl.AmbientDimOneError):
            collection_irreducibility(collection, _meet(collection, tol), tol)


def _turned(n, angle):
    """The coordinate basis of C^n with e_0, e_1 turned by ``angle``."""
    basis = np.eye(n, dtype=complex)
    basis[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return basis


class TestMergedMembers:
    # The coordinate basis and the basis turned by +t and by -t. Each turned
    # ray lies sqrt(2) sin t <= eps_subspace from e_0 or e_1 and shares its
    # identity, so the generators are the coordinate projectors alone, yet
    # the turned rays b and c_perp overlap by sin 2t > eps_subspace and link
    # e_0 to e_1 in the meet.
    CASES = [(0.3, 0.2), (1e-8, np.arcsin(0.7e-8))]

    @pytest.mark.parametrize("eps, angle", CASES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_merged_rays_join_no_generators(self, tmp_path, capsys, eps, angle, n):
        doc = _ray_document([_turned(n, t) for t in (0.0, angle, -angle)], eps_subspace=eps)
        collection, tol, generators = _registry(doc)
        assert len(generators) == n
        where, dims, full = _member_components(collection, _meet(collection, tol))
        assert dims[0] == 2 and not full[0]
        direct = pl.is_irreducible(generators, tol)
        assert not direct.irreducible and direct.algebra_dimension == n
        code, report = _report(tmp_path, capsys, doc)
        verdicts = report["verdicts"]
        assert code == 0 and verdicts["irreducible"] is False
        assert verdicts["algebra_dimension"] == n
        witness = _witness(verdicts, n)
        assert 0 < witness.dim < n
        assert all(pl.is_invariant(witness, g, tol) for g in generators)

    def test_exact_repeats_keep_the_rank_one_theorem(self, tmp_path, capsys):
        # e_0 repeated in the second context: a component of d_c 1 beside the
        # component {e_1, e_2, (e_1 +- e_2) / sqrt(2)}, both read off the graph.
        second = np.eye(3, dtype=complex)
        second[1:, 1:] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        doc = _ray_document([np.eye(3, dtype=complex), second])
        collection, tol, generators = _registry(doc)
        assert len(generators) == 5
        where, dims, full = _member_components(collection, _meet(collection, tol))
        assert sorted(dims) == [1, 2] and full == [True, True]
        code, report = _report(tmp_path, capsys, doc)
        verdicts = report["verdicts"]
        assert verdicts["irreducible"] is False
        assert verdicts["algebra_dimension"] == 1 + 4
        assert verdicts["algebra_dimension"] == pl.is_irreducible(generators, tol).algebra_dimension


class TestFallback:
    def test_components_with_no_first_context_atom(self, tmp_path, capsys):
        # At eps_subspace 0.3 no ray of the Fourier basis of C^16 (overlaps
        # 1/4) is linked to a coordinate ray, so its components hold no atom
        # of the first context, and every generator goes to is_irreducible.
        n = 16
        fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        doc = _ray_document([np.eye(n, dtype=complex), fourier], eps_subspace=0.3)
        collection, tol, generators = _registry(doc)
        meet = _meet(collection, tol)
        assert _member_components(collection, meet) is None
        assert meet.size == 2**n
        code, report = _report(tmp_path, capsys, doc)
        direct = pl.is_irreducible(generators, tol)
        assert code == 0 and direct.irreducible
        assert report["verdicts"]["irreducible"] is True
        assert report["verdicts"]["algebra_dimension"] == direct.algebra_dimension == n * n

    def test_component_of_different_ranks(self, tmp_path, capsys):
        # At eps_subspace 0.3, with x the mean of e_1 .. e_8: the second
        # context's (e_0 +- x) / sqrt(2) are linked to e_0 alone, and each
        # vector of its Helmert basis of the rest of span{e_1 .. e_8} to
        # some of those rays. Every component holds a first-context atom,
        # yet {e_0, (e_0 +- x) / sqrt(2)} has d_c 1 in the first context and
        # 2 in the second.
        m = 8
        x = np.r_[0.0, np.ones(m) / np.sqrt(m)]
        e0 = np.eye(m + 1)[0]
        columns = [(e0 + x) / np.sqrt(2), (e0 - x) / np.sqrt(2)]
        for k in range(1, m):
            helmert = np.r_[0.0, np.ones(k), -k, np.zeros(m - k - 1)] / np.sqrt(k * (k + 1))
            columns.append(helmert)
        second = np.array(columns, dtype=complex).T
        doc = _ray_document([np.eye(m + 1, dtype=complex), second], eps_subspace=0.3)
        collection, tol, generators = _registry(doc)
        meet = _meet(collection, tol)
        assert meet._blocks[0] == 1 and -1 not in meet._parts[1]
        assert _member_components(collection, meet) is None
        code, report = _report(tmp_path, capsys, doc)
        direct = pl.is_irreducible(generators, tol)
        assert code == 0
        assert report["verdicts"]["irreducible"] == direct.irreducible
        assert report["verdicts"]["algebra_dimension"] == direct.algebra_dimension

    def test_witness_that_leaks_past_eps_subspace(self, tmp_path, capsys):
        # The second context turns e_0 towards the mean w of e_1 .. e_5 by
        # an angle of sine 0.6: its overlaps with those rays, 0.6 / sqrt(5),
        # stay below 0.3, so no link crosses, yet span{e_0} leaks 0.48 under
        # the turned ray, and the whole set goes to is_irreducible.
        n, sine = 6, 0.6
        w = np.r_[0.0, np.ones(n - 1) / np.sqrt(n - 1)]
        e0 = np.eye(n)[0]
        cosine = np.sqrt(1 - sine**2)
        turn = np.eye(n, dtype=complex) + (cosine - 1) * (np.outer(e0, e0) + np.outer(w, w))
        turn += sine * (np.outer(w, e0) - np.outer(e0, w))
        doc = _ray_document([np.eye(n, dtype=complex), turn], eps_subspace=0.3)
        collection, tol, generators = _registry(doc)
        meet = _meet(collection, tol)
        assert len(meet._blocks) > 1
        first = pl.Subspace(n, np.eye(n)[:, :1])
        assert not all(pl.is_invariant(first, g, tol) for g in generators)
        code, report = _report(tmp_path, capsys, doc)
        direct = pl.is_irreducible(generators, tol)
        assert code == 0 and direct.irreducible
        assert report["verdicts"]["irreducible"] is True
        assert report["verdicts"]["algebra_dimension"] == direct.algebra_dimension == n * n


    def test_every_undecided_split_answers_with_is_irreducible(self):
        # No first-context atom in a component, and one component that is
        # not full: collection_irreducibility answers with is_irreducible of
        # every generator, so it never returns None.
        n = 16
        fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        docs = [
            _ray_document([np.eye(n, dtype=complex), fourier], eps_subspace=0.3),
            tensored(np.random.default_rng(2520)),
        ]
        for doc in docs:
            collection, tol, generators = _registry(doc)
            report = collection_irreducibility(collection, _meet(collection, tol), tol)
            direct = pl.is_irreducible(generators, tol)
            assert report.irreducible == direct.irreducible
            assert report.algebra_dimension == direct.algebra_dimension
            assert (report.witness is None) == (direct.witness is None)


class TestComponentSearch:
    def test_matches_the_squared_reachability(self):
        # The components of the breadth-first search against the fixed point
        # of squaring the reachability matrix, on random symmetric graphs.
        rng = np.random.default_rng(2550)
        for _ in range(200):
            size = int(rng.integers(1, 70))
            linked = rng.random((size, size)) < rng.uniform(0.0, 0.1)
            linked = linked | linked.T | np.eye(size, dtype=bool)
            reach = linked.astype(float)
            while not np.array_equal(grown := np.minimum(reach @ reach, 1), reach):
                reach = grown
            want = sorted({sum(1 << int(j) for j in np.flatnonzero(row)) for row in reach})
            got = _components(_rows(linked))
            assert sorted(got) == want
            assert [min(_bits(c)) for c in got] == sorted(min(_bits(c)) for c in got)

    def test_meet_parts_name_each_atoms_component(self):
        rng = np.random.default_rng(2560)
        doc = planted_rays(rng, (2, 3, 1), contexts=3)
        collection, tol = pl.parse_document(doc)
        families = [pl.context_lattice(c) for c in collection.contexts]
        meet = pl.intersect_lattices(families, tol)
        assert [len(p) for p in meet._parts] == [6, 6, 6]
        for family, parts in zip(families, meet._parts):
            for atom, label in zip(family._atom_set.bases, parts):
                block = meet._blocks[label]
                span = np.hstack([meet._atom_set.bases[i] for i in _bits(block)])
                # The atom lies in its component's span.
                assert np.linalg.norm(atom - span @ (span.conj().T @ atom)) < 1e-12


def overlap_components(doc, eps):
    """The connected components of the atoms of a ray document, linked where
    ``|<u, v>| > eps``, counted by union-find over every pair of atoms."""
    rays = {name: np.array([complex(*z) for z in v]) for name, v in doc["rays"].items()}
    atoms = [rays[name] / np.linalg.norm(rays[name]) for group in doc["groups"].values() for name in group]
    parent = list(range(len(atoms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, u in enumerate(atoms):
        for j in range(i):
            if abs(np.vdot(atoms[j], u)) > eps:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(atoms))})


class TestBooleanMeet:
    """For rank-1 collections the meet is the Boolean lattice over the
    components of the ray-overlap graph, and the two routes agree."""

    @staticmethod
    def assert_boolean(tmp_path, capsys, doc, blocks):
        components = overlap_components(doc, pl.TolerancePolicy().eps_subspace)
        assert components == blocks
        code, report = _report(tmp_path, capsys, doc, "intersect")
        assert code == 0 and report["verdicts"]["intersection"]["size"] == 2**components
        code, report = _report(tmp_path, capsys, doc)
        assert code == 0 and report["verdicts"]["routes_agree"] is True
        assert report["verdicts"]["irreducible"] is (components == 1)

    @pytest.mark.parametrize("sizes", [(2, 3, 1), (4, 4), (1, 1, 1, 1)])
    @pytest.mark.parametrize("contexts", [2, 3])
    def test_planted_blocks(self, tmp_path, capsys, sizes, contexts):
        doc = planted_rays(np.random.default_rng([2570, contexts, *sizes]), sizes, contexts)
        self.assert_boolean(tmp_path, capsys, doc, len(sizes))

    def test_ks18_tensored(self, tmp_path, capsys):
        # Rays v (x) e_0 and w (x) e_1 are orthogonal, and each copy of the
        # 18-ray graph is connected: two components.
        self.assert_boolean(tmp_path, capsys, ks18_tensored(np.random.default_rng(2580)), 2)

    def test_lattice_of_ks18_tensored_with_c4_exits_three(self, tmp_path, capsys):
        # Nine contexts of 16 atoms in C^16: each family's 2^16 elements
        # hold 16^2 2^15 basis entries, past the listing cap, so `lattice`
        # exits 3 before it builds an element, where it used to list 9 * 2^16
        # of them; `intersect` lists the meet of 2^4 elements.
        doc = ks18_tensored(np.random.default_rng(2590), 4)
        code, report = _report(tmp_path, capsys, doc, "lattice")
        assert code == 3 and report["error"] == (
            "listing the lattice family's elements takes 8388608 basis entries; "
            f"listing is capped at {pl.lattice.DEFAULT_ENTRY_CAP}"
        )
        code, report = _report(tmp_path, capsys, doc, "intersect")
        assert code == 0 and report["verdicts"]["intersection"]["size"] == 2**4

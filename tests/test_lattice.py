import json

import numpy as np
import pytest

import projlat as pl
from conftest import random_rank1_context
from projlat import Subspace
from projlat.cli import main


@pytest.fixture(scope="module")
def pauli_lattices(pauli):
    return {ctx.name: pl.context_lattice(ctx) for ctx in pauli.contexts}


class TestProjectorLattice:
    def test_z_projector_has_four_elements(self, pauli):
        family = pl.projector_lattice(pauli.context_named("z").members[0])
        assert len(family) == 4
        expected = [
            Subspace.zero(2),
            Subspace.from_span([[1, 0]]),
            Subspace.from_span([[0, 1]]),
            Subspace.full(2),
        ]
        for want, got in zip(expected, family.elements):
            assert want.equals(got)

    def test_identity_collapses_to_two_elements(self):
        family = pl.projector_lattice(pl.validate_projector(np.eye(2), label="1"))
        assert len(family) == 2
        assert family.is_trivial()

    def test_y_projector_contains_both_eigenlines(self, pauli):
        family = pl.projector_lattice(pauli.context_named("y").members[0])
        assert len(family) == 4
        assert family.contains(Subspace.from_span([[1j, 1]]))
        assert family.contains(Subspace.from_span([[1, 1j]]))


class TestContextLattice:
    def test_x_context_lattice(self, pauli_lattices):
        family = pauli_lattices["x"]
        assert len(family) == 4
        assert family.contains(Subspace.from_span([[1, 1]]))
        assert family.contains(Subspace.from_span([[1, -1]]))
        assert family.contains(Subspace.zero(2))
        assert family.contains(Subspace.full(2))

    def test_identity_singleton_context(self):
        ctx = pl.validate_context([pl.validate_projector(np.eye(2), label="1")])
        family = pl.context_lattice(ctx)
        assert len(family) == 2
        assert family.is_trivial()

    def test_rank1_context_in_c3_gives_boolean_lattice(self):
        ctx = pl.context_from_basis(np.eye(3).tolist(), name="c")
        family = pl.context_lattice(ctx)
        assert len(family) == 8
        assert sorted(el.dim for el in family.elements) == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_member_cap(self, pauli, tmp_path, monkeypatch, capsys):
        # The cap counts a family's blocks and bounds only the listing.
        monkeypatch.setattr(pl.lattice, "DEFAULT_MEMBER_CAP", 1)
        families = [pl.context_lattice(ctx) for ctx in pauli.contexts]
        with pytest.raises(pl.SubsetLimitExceededError):
            families[0].elements
        with pytest.raises(pl.SubsetLimitExceededError):
            families[0].labels
        assert [len(f) for f in families] == [4, 4, 4]
        assert not families[0].is_trivial()
        meet = pl.intersect_lattices(families)
        assert meet.is_trivial() and len(meet.elements) == 2
        path = tmp_path / "pauli.json"
        pl.save_document(pauli, path)
        assert main(["lattice", str(path), "--format", "json"]) == 3
        assert json.loads(capsys.readouterr().out)["exit_code"] == 3

    def test_two_member_context_matches_single_projector_lattice(self, pauli):
        for ctx in pauli.contexts:
            family = pl.context_lattice(ctx)
            for member in ctx.members:
                single = pl.projector_lattice(member)
                assert len(single) == len(family)
                assert all(family.contains(el) for el in single.elements)

    def test_all_elements_invariant_under_all_members(self, pauli):
        rng = np.random.default_rng(67)
        contexts = list(pauli.contexts)
        contexts += [random_rank1_context(rng, dim) for dim in (2, 3, 4)]
        for ctx in contexts:
            family = pl.context_lattice(ctx)
            assert pl.all_elements_invariant(family, ctx)

    def test_random_rank1_contexts_have_two_to_the_m_elements(self):
        rng = np.random.default_rng(71)
        for dim in (2, 3, 4):
            for _ in range(3):
                ctx = random_rank1_context(rng, dim)
                assert len(pl.context_lattice(ctx)) == 2 ** dim

    def test_higher_rank_members_are_supported(self):
        plane = np.zeros((4, 4), dtype=complex)
        plane[0, 0] = plane[1, 1] = 1.0
        p = pl.validate_projector(plane, label="plane")
        q = pl.validate_projector(np.eye(4) - plane, label="rest")
        ctx = pl.validate_context([p, q], name="split")
        family = pl.context_lattice(ctx)
        assert len(family) == 4
        assert sorted(el.dim for el in family.elements) == [0, 2, 2, 4]
        assert pl.all_elements_invariant(family, ctx)
        result = pl.search_noncontextual_assignment(pl.ContextCollection([ctx]))
        assert result.satisfiable


class TestIntersectLattices:
    def test_pauli_intersection_is_trivial(self, pauli_lattices):
        meet = pl.intersect_lattices(pauli_lattices.values())
        assert len(meet) == 2
        assert meet.is_trivial()
        assert meet.contains(Subspace.zero(2))
        assert meet.contains(Subspace.full(2))

    def test_single_family_is_unchanged(self, pauli_lattices):
        family = pauli_lattices["z"]
        meet = pl.intersect_lattices([family])
        assert len(meet) == len(family)
        assert all(meet.contains(el) for el in family.elements)

    def test_identical_families_intersect_to_themselves(self, pauli):
        zctx = pauli.context_named("z")
        relabeled = pl.validate_context(
            [
                pl.validate_projector(p.matrix, label=f"again_{p.label}")
                for p in zctx.members
            ],
            name="z2",
        )
        meet = pl.intersect_lattices(
            [pl.context_lattice(zctx), pl.context_lattice(relabeled)]
        )
        assert len(meet) == 4

    def test_monotone_idempotent_commutative(self, pauli_lattices):
        fams = list(pauli_lattices.values())
        meet = pl.intersect_lattices(fams)
        again = pl.intersect_lattices([meet] + fams)
        assert len(again) == len(meet)
        reversed_meet = pl.intersect_lattices(list(reversed(fams)))
        assert len(reversed_meet) == len(meet)
        for fam in fams:
            assert all(fam.contains(el) for el in meet.elements)

    def test_ambient_mismatch_raises(self, pauli_lattices):
        other = pl.context_lattice(pl.context_from_basis(np.eye(3).tolist()))
        with pytest.raises(pl.DimensionMismatchError):
            pl.intersect_lattices([pauli_lattices["z"], other])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            pl.intersect_lattices([])


class TestTriviality:
    def test_trivial_family(self):
        family = pl.LatticeFamily(
            2, (Subspace.zero(2), Subspace.full(2)), ("ran(0)", "ran(1)")
        )
        assert family.is_trivial()

    def test_projector_lattice_is_not_trivial(self, pauli):
        family = pl.projector_lattice(pauli.context_named("z").members[0])
        assert not family.is_trivial()


class TestClosureVerification:
    def test_context_lattices_are_closed(self, pauli_lattices):
        for family in pauli_lattices.values():
            assert pl.is_closed_under_meet_join(family)

    def test_random_context_lattice_is_closed(self):
        rng = np.random.default_rng(73)
        ctx = random_rank1_context(rng, 3)
        assert pl.is_closed_under_meet_join(pl.context_lattice(ctx))

    def test_detects_a_family_that_is_not_closed(self):
        # join of the two distinct lines is the full space, which is missing
        broken = pl.LatticeFamily(
            2,
            (
                Subspace.zero(2),
                Subspace.from_span([[1, 0]]),
                Subspace.from_span([[1, 1]]),
            ),
            ("a", "b", "c"),
        )
        assert not pl.is_closed_under_meet_join(broken)


# Brute-force reference: ranges of all 2^m subset sums, deduplicated
# pairwise within eps_subspace, and intersection by membership tests.
def _oracle_dedup(pairs, n):
    elements, labels = [], []
    for sub, label in pairs:
        if not any(sub.equals(seen) for seen in elements):
            elements.append(sub)
            labels.append(label)
    return pl.LatticeFamily(n, tuple(elements), tuple(labels))


def oracle_projector_lattice(projector):
    n = projector.ambient_dim
    pairs = [
        (Subspace.zero(n), "ran(0)"),
        (Subspace.column_space(projector.matrix), f"ran({projector.label})"),
        (Subspace.column_space(np.eye(n) - projector.matrix), f"ker({projector.label})"),
        (Subspace.full(n), "ran(1)"),
    ]
    return _oracle_dedup(pairs, n)


def oracle_context_lattice(ctx):
    m, n = len(ctx.members), ctx.ambient_dim
    pairs = []
    for mask in range(1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        if not chosen:
            pairs.append((Subspace.zero(n), "ran(0)"))
            continue
        if len(chosen) == m:
            label = "ran(1)"
        else:
            label = "ran(" + "+".join(ctx.members[i].label for i in chosen) + ")"
        total = sum(ctx.members[i].matrix for i in chosen)
        pairs.append((Subspace.column_space(total), label))
    return _oracle_dedup(pairs, n)


def oracle_intersect(families):
    first, rest = families[0], families[1:]
    pairs = [
        (el, label)
        for el, label in zip(first.elements, first.labels)
        if all(fam.contains(el) for fam in rest)
    ]
    return _oracle_dedup(pairs, first.ambient_dim)


def assert_same_family(got, want):
    assert got.ambient_dim == want.ambient_dim
    assert got.labels == want.labels
    assert len(got) == len(want)
    for g, w in zip(got.elements, want.elements):
        assert g.dim == w.dim
        assert g.equals(w)


def _haar(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def _context(rng, columns, zeros, name):
    """Context of rank-1 and rank-2 members cut from orthonormal ``columns``,
    shuffled, with ``zeros`` rank-0 members inserted at random places."""
    n = columns.shape[0]
    pieces, start = [], 0
    while start < columns.shape[1]:
        rank = int(min(rng.integers(1, 3), columns.shape[1] - start))
        pieces.append(columns[:, start : start + rank])
        start += rank
    mats = [pieces[i] @ pieces[i].conj().T for i in rng.permutation(len(pieces))]
    for _ in range(zeros):
        mats.insert(int(rng.integers(0, len(mats) + 1)), np.zeros((n, n)))
    members = [pl.validate_projector(m, label=f"{name}{i}") for i, m in enumerate(mats)]
    return pl.validate_context(members, name=name)


def planted_case(seed):
    """1-3 contexts sharing a random block decomposition of C^n; one may be
    Haar-turned instead."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    blocks = np.split(np.arange(n), cuts)
    frame = _haar(rng, n)
    contexts = []
    for c in range(int(rng.integers(1, 4))):
        if c > 0 and rng.random() < 0.25:
            columns = _haar(rng, n)
        else:
            columns = np.hstack(
                [frame[:, b] @ _haar(rng, len(b)) for b in blocks]
            )
        contexts.append(_context(rng, columns, int(rng.integers(0, 3)), f"c{c}_"))
    return contexts


class TestAgainstBruteForceOracle:
    def test_projector_lattice_of_zero_identity_and_rank1(self, pauli):
        z0 = pauli.context_named("z").members[0]
        for projector in (
            pl.validate_projector(np.zeros((2, 2)), label="0"),
            pl.validate_projector(np.eye(3), label="1"),
            z0,
            pauli.context_named("y").members[1],
        ):
            assert_same_family(
                pl.projector_lattice(projector), oracle_projector_lattice(projector)
            )

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_cases_match_the_oracle(self, chunk):
        for seed in range(1000 + 30 * chunk, 1030 + 30 * chunk):
            contexts = planted_case(seed)
            families = [pl.context_lattice(ctx) for ctx in contexts]
            for ctx, fam in zip(contexts, families):
                assert_same_family(fam, oracle_context_lattice(ctx))
            meet = pl.intersect_lattices(families)
            assert_same_family(meet, oracle_intersect(families))
            assert_same_family(pl.intersect_lattices([meet] + families), meet)

    def test_eight_member_contexts_match_the_oracle(self):
        rng = np.random.default_rng(1400)
        frame = _haar(rng, 6)
        contexts = [
            _context(rng, np.hstack([frame[:, :3] @ _haar(rng, 3), frame[:, 3:]]), 2, "a"),
            _context(rng, frame @ np.kron(np.eye(2), _haar(rng, 3)), 2, "b"),
        ]
        families = [pl.context_lattice(ctx) for ctx in contexts]
        for ctx, fam in zip(contexts, families):
            assert len(ctx) <= 8
            assert_same_family(fam, oracle_context_lattice(ctx))
        assert_same_family(pl.intersect_lattices(families), oracle_intersect(families))

    @staticmethod
    def _z_and_turned_z(pauli, theta):
        c, s = np.cos(theta), np.sin(theta)
        turned = pl.context_from_basis([[c, s], [-s, c]], name="zt")
        return [pl.context_lattice(pauli.context_named("z")), pl.context_lattice(turned)]

    @pytest.mark.parametrize(
        "theta, size", [(1e-12, 4), (4e-9, 4), (2.5e-8, 2), (1e-6, 2)]
    )
    def test_tolerance_rule_on_a_turned_z_context(self, pauli, theta, size):
        families = self._z_and_turned_z(pauli, theta)
        meet = pl.intersect_lattices(families)
        assert len(meet) == size
        assert_same_family(meet, oracle_intersect(families))

    def test_rules_differ_only_inside_the_documented_band(self, pauli):
        # Atom overlaps are sin(theta) on p = 4 pairs and |S - T|_F is
        # sqrt(2) sin(theta): at 8.5e-9, inside (1e-8 / 2, 2e-8], the atoms
        # stay unlinked while the projector distance exceeds eps_subspace.
        families = self._z_and_turned_z(pauli, 8.5e-9)
        assert len(pl.intersect_lattices(families)) == 4
        assert len(oracle_intersect(families)) == 2


class TestIntersectionGuard:
    def test_non_boolean_family_is_rejected(self, pauli_lattices):
        broken = pl.LatticeFamily(
            2,
            (
                Subspace.zero(2),
                Subspace.from_span([[1, 0]]),
                Subspace.from_span([[1, 1]]),
            ),
            ("a", "b", "c"),
        )
        with pytest.raises(ValueError):
            pl.intersect_lattices([broken])
        with pytest.raises(ValueError):
            pl.intersect_lattices([pauli_lattices["z"], broken])

    def test_overlapping_atoms_are_rejected(self, pauli_lattices):
        skew = pl.LatticeFamily(
            2,
            (
                Subspace.zero(2),
                Subspace.from_span([[1, 0]]),
                Subspace.from_span([[1, 1]]),
                Subspace.full(2),
            ),
            ("0", "a", "b", "1"),
        )
        with pytest.raises(ValueError):
            pl.intersect_lattices([skew])
        with pytest.raises(ValueError):
            pl.intersect_lattices([pauli_lattices["z"], skew])


# The eager build every family used before families kept their atoms: all
# 2^k elements and labels at once, one QR of the stacked atom bases each.
def eager_boolean_family(n, parts, wrap):
    atoms = [(sub.basis, name) for sub, name in parts if not sub.is_zero()]
    elements, labels = [Subspace.zero(n)], ["ran(0)"]
    for mask in range(1, 1 << len(atoms)):
        chosen = [atoms[i] for i in range(len(atoms)) if mask >> i & 1]
        elements.append(Subspace(n, np.linalg.qr(np.hstack([b for b, _ in chosen]))[0]))
        full = len(chosen) == len(parts)
        labels.append("ran(1)" if full else wrap % "+".join(name for _, name in chosen))
    return pl.LatticeFamily(n, tuple(elements), tuple(labels))


def eager_context_lattice(ctx):
    parts = [(p.range(), p.label) for p in ctx.members]
    return eager_boolean_family(ctx.ambient_dim, parts, "ran(%s)")


def assert_identical_family(got, want):
    """Same labels, and element bases equal to the last bit."""
    assert got.labels == want.labels
    assert len(got) == len(want) == len(got.elements)
    for g, w in zip(got.elements, want.elements):
        assert g.basis.shape == w.basis.shape
        assert np.array_equal(g.basis, w.basis)


@pytest.fixture()
def built_elements(monkeypatch):
    """Counts the subspaces the lattice module builds."""
    count = {"n": 0}

    class Counted(Subspace):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            count["n"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pl.lattice, "Subspace", Counted)
    return count


def planted_blocks_document(seed):
    """Benchmark-shaped: three contexts of six rank-2 members in C^12, each
    refining the same three planted 4-dimensional blocks."""
    rng = np.random.default_rng(seed)
    frame = _haar(rng, 12)
    contexts = {}
    for c in range(3):
        columns = np.hstack([frame[:, 4 * b : 4 * b + 4] @ _haar(rng, 4) for b in range(3)])
        contexts[f"c{c}"] = [
            pl.document.matrix_to_json(columns[:, k : k + 2] @ columns[:, k : k + 2].conj().T)
            for k in range(0, 12, 2)
        ]
    return {"dim": 12, "contexts": contexts}


class TestFamiliesKeepAtoms:
    def test_size_triviality_and_meet_build_no_element(self, pauli, built_elements):
        families = [pl.context_lattice(ctx) for ctx in pauli.contexts]
        meet = pl.intersect_lattices(families)
        again = pl.intersect_lattices([meet] + families)
        assert [len(f) for f in families] == [4, 4, 4]
        assert meet.is_trivial() and again.is_trivial()
        assert not any(f.is_trivial() for f in families)
        assert built_elements["n"] == 0
        assert len(meet.elements) == 2
        assert built_elements["n"] == 2
        meet.elements  # built once
        assert built_elements["n"] == 2

    def test_intersect_builds_exactly_the_meet(self, tmp_path, capsys, built_elements):
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(planted_blocks_document(1800)))
        assert main(["intersect", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["verdicts"]
        assert report["per_context_sizes"] == {"c0": 64, "c1": 64, "c2": 64}
        assert report["intersection"]["size"] == 8
        assert built_elements["n"] == 8
        built_elements["n"] = 0
        assert main(["irreducible", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["irreducible"] is False
        assert built_elements["n"] == 0

    def test_sixty_four_atoms(self, built_elements):
        # 2^64 elements: sizes and block masks stay exact Python ints, which
        # a float or int64 mask product would not.
        rng = np.random.default_rng(2310)
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
        rays = [q[:, i] for i in range(64)]
        families = [
            pl.context_lattice(pl.context_from_basis(rays, name="a")),
            pl.context_lattice(pl.context_from_basis(rays[::-1], name="b")),
        ]
        meet = pl.intersect_lattices(families)
        assert [f.size for f in families] == [2**64, 2**64]
        assert meet.size == 2**64
        assert meet._blocks == tuple(1 << i for i in range(64))
        assert not meet.is_trivial()
        assert pl.intersect_lattices([families[1], meet]).size == 2**64
        with pytest.raises(pl.SubsetLimitExceededError):
            meet.elements
        with pytest.raises(pl.SubsetLimitExceededError):
            meet.labels
        assert built_elements["n"] == 0

    @pytest.mark.parametrize("chunk", range(4))
    def test_lazy_build_equals_the_eager_build(self, chunk):
        for seed in range(1000 + 30 * chunk, 1030 + 30 * chunk):
            contexts = planted_case(seed)
            families = [pl.context_lattice(ctx) for ctx in contexts]
            eager = [eager_context_lattice(ctx) for ctx in contexts]
            for fam, want in zip(families, eager):
                assert_identical_family(fam, want)
            meet = pl.intersect_lattices(families)
            index = {label: i for i, label in enumerate(eager[0].labels)}
            for element, label in zip(meet.elements, meet.labels):
                assert np.array_equal(element.basis, eager[0].elements[index[label]].basis)
            # The eager copies meet in the same elements.
            assert_identical_family(pl.intersect_lattices(eager), meet)

    def test_meet_of_a_meet(self):
        collection, _ = pl.parse_document(planted_blocks_document(1810))
        families = [pl.context_lattice(ctx) for ctx in collection.contexts]
        meet = pl.intersect_lattices(families)
        assert len(meet) == 8
        again = pl.intersect_lattices([meet] + families)
        assert_identical_family(again, meet)
        assert_identical_family(pl.intersect_lattices([meet]), meet)
        frozen = pl.LatticeFamily(meet.ambient_dim, meet.elements, meet.labels)
        assert_identical_family(pl.intersect_lattices([frozen] + families[1:]), meet)

    def test_projector_lattice_equals_the_eager_build(self, pauli):
        for projector in (
            pl.validate_projector(np.zeros((2, 2)), label="0"),
            pl.validate_projector(np.eye(3), label="1"),
            *pauli.context_named("y").members,
        ):
            parts = [
                (projector.range(), f"ran({projector.label})"),
                (projector.kernel(), f"ker({projector.label})"),
            ]
            want = eager_boolean_family(projector.ambient_dim, parts, "%s")
            assert_identical_family(pl.projector_lattice(projector), want)


def noisy_context(rng, dim, noise, tol):
    """A rank-1 context with every member moved by a Hermitian ``noise``:
    its small singular values count as rank under a tight ``eps_rank``."""
    members = []
    for i, p in enumerate(random_rank1_context(rng, dim).members):
        e = noise * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        members.append(pl.validate_projector(p.matrix + (e + e.conj().T) / 2, tol, f"m{i}"))
    return pl.validate_context(members, tol, name="noisy")


class TestBatchedRanges:
    """Atoms from one SVD of the member stack, or a basis context's own
    rays, against ``Projector.range``."""

    LOOSE = pl.TolerancePolicy(eps_rank=1e-4, eps_entry=1e-4, eps_subspace=1e-3)

    @staticmethod
    def assert_atoms_are_ranges(ctx, tol):
        atoms = pl.context_lattice(ctx, tol)._atom_set
        ranges = [(p.range(tol), p.label) for p in ctx.members]
        kept = [(i, sub, label) for i, (sub, label) in enumerate(ranges) if not sub.is_zero()]
        assert atoms.parts == len(ctx.members)
        assert atoms.names == tuple(label for _, _, label in kept)
        for basis, (i, sub, _) in zip(atoms.bases, kept):
            assert basis.dtype == np.complex128 and basis.shape == sub.basis.shape
            if ctx._rays is None:
                assert np.ascontiguousarray(basis).tobytes() == sub.basis.tobytes()
            else:
                # The unit ray itself, which may differ from the SVD's in phase.
                assert basis[:, 0].tobytes() == ctx._rays[i].tobytes()
                assert Subspace(ctx.ambient_dim, basis).equals(sub, tol)
            assert not basis.flags.writeable
        return [sub.dim for sub, _ in ranges]

    def test_planted_cases_with_rank0_members(self):
        zero_members = 0
        for seed in range(1000, 1060):
            for ctx in planted_case(seed):
                ranks = self.assert_atoms_are_ranges(ctx, None)
                assert self.assert_atoms_are_ranges(ctx, self.LOOSE) == ranks
                zero_members += ranks.count(0)
        assert zero_members > 0

    def test_documents(self, pauli, ks18):
        collection, _ = pl.parse_document(planted_blocks_document(1820))
        for ctx in (*pauli.contexts, *ks18.contexts, *collection.contexts):
            self.assert_atoms_are_ranges(ctx, None)
            self.assert_atoms_are_ranges(ctx, self.LOOSE)

    def test_loose_eps_rank_drops_the_noise(self):
        rng = np.random.default_rng(1830)
        for dim in (2, 3, 5):
            ctx = noisy_context(rng, dim, 1e-7, self.LOOSE)
            assert self.assert_atoms_are_ranges(ctx, self.LOOSE) == [1] * dim
            assert self.assert_atoms_are_ranges(ctx, None) == [dim] * dim

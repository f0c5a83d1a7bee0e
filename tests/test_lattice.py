import json
from dataclasses import dataclass

import numpy as np
import pytest

import projlat as pl
from conftest import from_basis, max_abs, random_rank1_context, rays_of
from projlat import Subspace, linalg
from projlat.cli import main


LOOSE = pl.TolerancePolicy(eps_rank=1e-4, eps_entry=1e-4, eps_subspace=1e-3)


@dataclass(frozen=True)
class Listed:
    """Subspaces and labels held as given, for the brute-force oracles and for
    families no function of the package builds."""

    ambient_dim: int
    elements: tuple
    labels: tuple

    def contains(self, subspace, tol=None):
        return any(el.equals(subspace, tol) for el in self.elements)


@pytest.fixture(scope="module")
def pauli_lattices(pauli):
    return {ctx.name: pl.context_lattice(ctx) for ctx in pauli.contexts}


def complement_context(projector):
    """The checked context {P, I - P} of one projector."""
    rest = np.eye(projector.ambient_dim) - projector.matrix
    return pl.validate_context([projector, pl.validate_projector(rest, label=f"1-{projector.label}")])


def projector_family(projector):
    """A projector's family: that of the context {P, I - P}."""
    return pl.context_lattice(complement_context(projector))


def closed_under_meet_join(family, tol=None):
    """Every pairwise meet and join of the elements is again an element."""
    return all(
        family.contains(u.meet(v, tol), tol) and family.contains(u.join(v, tol), tol)
        for i, u in enumerate(family.elements)
        for v in family.elements[i:]
    )


class TestProjectorLattice:
    def test_z_projector_has_four_elements(self, pauli):
        family = projector_family(pauli.context_named("z").members[0])
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
        family = projector_family(pl.validate_projector(np.eye(2), label="1"))
        assert len(family) == 2
        assert family.is_trivial()

    def test_y_projector_contains_both_eigenlines(self, pauli):
        family = projector_family(pauli.context_named("y").members[0])
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
        # The cap counts the basis entries a family lists, n^2 2^(blocks - 1),
        # and bounds only the listing: 8 for a Pauli context, 4 for their meet.
        monkeypatch.setattr(pl.lattice, "DEFAULT_ENTRY_CAP", 7)
        families = [pl.context_lattice(ctx) for ctx in pauli.contexts]
        with pytest.raises(pl.SubsetLimitExceededError) as info:
            families[0].elements
        assert (info.value.entries, info.value.cap) == (8, 7)
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
        # At the cap the family lists.
        monkeypatch.setattr(pl.lattice, "DEFAULT_ENTRY_CAP", 8)
        assert len(pl.context_lattice(pauli.contexts[0]).elements) == 4

    def test_one_block_family_lists_past_the_cap(self):
        # In C^1025 the trivial meet {0, C^n} lists 1025^2 > 2^20 basis
        # entries, one member's worth, and is not capped; a family of two
        # blocks lists twice that and is. The members are built by hand with
        # their ranges: the coordinate halves, and the halves of a dense
        # Householder reflection, which overlap each of them.
        n, half = 1025, 512
        w = np.random.default_rng(2760).normal(size=n)
        w /= np.linalg.norm(w)
        turned = np.eye(n) - 2 * np.outer(w, w)
        contexts = []
        for name, basis in (("e", np.eye(n)), ("h", turned)):
            parts = (basis[:, :half], basis[:, half:])
            members = tuple(
                pl.Projector(q @ q.T, q.shape[1], f"{name}{i}", _range=q.astype(complex), _gap=0.0)
                for i, q in enumerate(parts)
            )
            contexts.append(pl.MaximalContext(name, members))
        families = [pl.context_lattice(ctx) for ctx in contexts]
        meet = pl.intersect_lattices(families)
        assert meet.is_trivial() and n * n > pl.lattice.DEFAULT_ENTRY_CAP
        assert [el.dim for el in meet.elements] == [0, n]
        with pytest.raises(pl.SubsetLimitExceededError) as info:
            families[0].elements
        assert info.value.entries == 2 * n * n

    def test_two_member_context_matches_single_projector_lattice(self, pauli):
        for ctx in pauli.contexts:
            family = pl.context_lattice(ctx)
            for member in ctx.members:
                single = projector_family(member)
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

    def test_len_overflows_from_63_blocks_while_size_is_exact(self):
        # ``len`` must fit an index-sized integer; 2^63 no longer does.
        for n in (62, 63, 64):
            family = pl.context_lattice(pl.context_from_basis(np.eye(n)))
            assert family.size == 2**n
            if n < 63:
                assert len(family) == 2**n
            else:
                with pytest.raises(OverflowError):
                    len(family)


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
    def test_trivial_family(self, pauli_lattices):
        # {0, C^n} from one rank-n member, from a projector whose kernel is
        # zero, and from a meet.
        for family in (
            pl.context_lattice(pl.validate_context([pl.validate_projector(np.eye(3))])),
            projector_family(pl.validate_projector(np.eye(2), label="1")),
            pl.intersect_lattices(pauli_lattices.values()),
        ):
            assert family.is_trivial()
            assert [el.dim for el in family.elements] == [0, family.ambient_dim]

    def test_projector_lattice_is_not_trivial(self, pauli):
        family = projector_family(pauli.context_named("z").members[0])
        assert not family.is_trivial()

    def test_one_block_narrower_than_the_space_is_not_trivial(self):
        # No package function builds a family whose one block misses part of
        # C^n, so the width test is pinned on hand-built families.
        def one_block(basis):
            atoms = pl.lattice._Atoms((basis,), ("a",), 1)
            return pl.lattice.LatticeFamily(3, atoms, (1,))

        assert not one_block(np.eye(3, dtype=complex)[:, :2]).is_trivial()
        assert one_block(np.eye(3, dtype=complex)).is_trivial()


class TestClosureVerification:
    def test_context_lattices_are_closed(self, pauli_lattices):
        for family in pauli_lattices.values():
            assert closed_under_meet_join(family)

    def test_random_context_lattice_is_closed(self):
        rng = np.random.default_rng(73)
        ctx = random_rank1_context(rng, 3)
        assert closed_under_meet_join(pl.context_lattice(ctx))

    def test_detects_a_family_that_is_not_closed(self):
        # join of the two distinct lines is the full space, which is missing
        broken = Listed(
            2,
            (
                Subspace.zero(2),
                Subspace.from_span([[1, 0]]),
                Subspace.from_span([[1, 1]]),
            ),
            ("a", "b", "c"),
        )
        assert not closed_under_meet_join(broken)


# Brute-force reference: ranges of all 2^m subset sums, deduplicated
# pairwise within eps_subspace, and intersection by membership tests.
def _oracle_dedup(pairs, n):
    elements, labels = [], []
    for sub, label in pairs:
        if not any(sub.equals(seen) for seen in elements):
            elements.append(sub)
            labels.append(label)
    return Listed(n, tuple(elements), tuple(labels))


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
    assert len(got) == len(want.elements)
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
            ctx = complement_context(projector)
            assert_same_family(pl.context_lattice(ctx), oracle_context_lattice(ctx))

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
        assert len(oracle_intersect(families).elements) == 2


class TestIntersectionGuard:
    """Families validated under loose tolerances, met under the defaults."""

    def test_non_boolean_family_is_rejected(self, pauli_lattices):
        # A checked context has ranks summing to the dimension, so only
        # hand-built members reach the guard: the noisy members' rank 2
        # under the default eps_rank gives atom widths (2, 2) in C^2.
        ctx = noisy_context(np.random.default_rng(1830), 2, 1e-7, LOOSE)
        members = tuple(
            pl.Projector(p.matrix, rank=pl.numerical_rank(p.matrix), label=p.label)
            for p in ctx.members
        )
        broken = pl.context_lattice(pl.MaximalContext("broken", members))
        assert [u.shape[1] for u in broken._atom_set.bases] == [2, 2]
        with pytest.raises(ValueError, match="not Boolean over atoms spanning"):
            pl.intersect_lattices([broken])
        with pytest.raises(ValueError, match="not Boolean over atoms spanning"):
            pl.intersect_lattices([pauli_lattices["z"], broken])

    def test_overlapping_atoms_are_rejected(self, pauli_lattices):
        # Two rays 1e-5 apart from orthogonal, past the default eps_subspace.
        ctx = pl.context_from_basis([[1, 0], [1e-5, np.sqrt(1 - 1e-10)]], LOOSE)
        skew = pl.context_lattice(ctx)
        with pytest.raises(ValueError, match="atoms of one family overlap"):
            pl.intersect_lattices([skew])
        with pytest.raises(ValueError, match="atoms of one family overlap"):
            pl.intersect_lattices([pauli_lattices["z"], skew])


# The eager build every family used before families kept their atoms: all
# 2^k elements and labels at once, one QR of the stacked atom bases each.
def eager_boolean_family(n, parts):
    atoms = [(sub.basis, name) for sub, name in parts if not sub.is_zero()]
    elements, labels = [Subspace.zero(n)], ["ran(0)"]
    for mask in range(1, 1 << len(atoms)):
        chosen = [atoms[i] for i in range(len(atoms)) if mask >> i & 1]
        elements.append(Subspace(n, np.linalg.qr(np.hstack([b for b, _ in chosen]))[0]))
        full = len(chosen) == len(parts)
        labels.append("ran(1)" if full else "ran(" + "+".join(name for _, name in chosen) + ")")
    return Listed(n, tuple(elements), tuple(labels))


def eager_context_lattice(ctx):
    parts = [(p.range(), p.label) for p in ctx.members]
    return eager_boolean_family(ctx.ambient_dim, parts)


def assert_identical_family(got, want):
    """Same labels, and element bases equal to the last bit."""
    assert got.labels == want.labels
    assert len(got) == len(want.elements) == len(got.elements)
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
            # The eager copies meet, by membership, in the same elements.
            assert_identical_family(meet, oracle_intersect(eager))

    def test_meet_of_a_meet(self):
        collection, _ = pl.parse_document(planted_blocks_document(1810))
        families = [pl.context_lattice(ctx) for ctx in collection.contexts]
        meet = pl.intersect_lattices(families)
        assert len(meet) == 8
        again = pl.intersect_lattices([meet] + families)
        assert_identical_family(again, meet)
        assert_identical_family(pl.intersect_lattices([meet]), meet)

    def test_projector_lattice_equals_the_eager_build(self, pauli):
        for projector in (
            pl.validate_projector(np.zeros((2, 2)), label="0"),
            pl.validate_projector(np.eye(3), label="1"),
            *pauli.context_named("y").members,
        ):
            ctx = complement_context(projector)
            assert_identical_family(pl.context_lattice(ctx), eager_context_lattice(ctx))


def noisy_context(rng, dim, noise, tol):
    """A rank-1 context with every member moved by a Hermitian ``noise``:
    its small singular values count as rank under a tight ``eps_rank``."""
    members = []
    for i, p in enumerate(random_rank1_context(rng, dim).members):
        e = noise * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        members.append(pl.validate_projector(p.matrix + (e + e.conj().T) / 2, tol, f"m{i}"))
    return pl.validate_context(members, tol, name="noisy")


class TestBatchedRanges:
    """Atoms are the members' ``Projector.range`` bases: the columns of one
    SVD of the member stack, or a basis context's own rays."""

    @staticmethod
    def assert_atoms_are_ranges(ctx):
        atoms = pl.context_lattice(ctx)._atom_set
        ranges = [(p.range(), p.label) for p in ctx.members]
        kept = [(i, sub, label) for i, (sub, label) in enumerate(ranges) if not sub.is_zero()]
        assert atoms.parts == len(ctx.members)
        assert atoms.names == tuple(label for _, _, label in kept)
        for basis, (i, sub, _) in zip(atoms.bases, kept):
            assert basis.dtype == np.complex128 and basis.shape == sub.basis.shape
            assert np.ascontiguousarray(basis).tobytes() == sub.basis.tobytes()
            if from_basis(ctx):
                # The unit ray itself, which may differ from an SVD's in phase.
                assert basis[:, 0].tobytes() == rays_of(ctx)[i].tobytes()
                assert Subspace.column_space(ctx.members[i].matrix).equals(sub)
            assert not basis.flags.writeable
        ranks = [sub.dim for sub, _ in ranges]
        assert ranks == [p.rank for p in ctx.members]
        assert not any(p._range.flags.writeable for p in ctx.members)
        return ranks

    def test_planted_cases_with_rank0_members(self):
        zero_members = 0
        for seed in range(1000, 1060):
            for ctx in planted_case(seed):
                ranks = self.assert_atoms_are_ranges(ctx)
                assert ranks == [pl.numerical_rank(p.matrix) for p in ctx.members]
                zero_members += ranks.count(0)
        assert zero_members > 0

    def test_documents(self, pauli, ks18):
        collection, _ = pl.parse_document(planted_blocks_document(1820))
        for ctx in (*pauli.contexts, *ks18.contexts, *collection.contexts):
            self.assert_atoms_are_ranges(ctx)

    def test_loose_eps_rank_drops_the_noise(self):
        # Ranked under the loose eps_rank they were validated with; the
        # default eps_entry rejects the noisy members outright.
        rng = np.random.default_rng(1830)
        for dim in (2, 3, 5):
            ctx = noisy_context(rng, dim, 1e-7, LOOSE)
            assert self.assert_atoms_are_ranges(ctx) == [1] * dim
            with pytest.raises(pl.NotIdempotentError):
                pl.validate_projector(ctx.members[0].matrix)


def _mixed_rank_members(rng, n):
    """Projectors of ranks 0 to 4 cut from Haar-random columns of C^n, shuffled."""
    columns, mats, start = _haar(rng, n), [], 0
    while start < n:
        rank = int(min(rng.integers(0, 5), n - start))
        piece = columns[:, start : start + rank]
        mats.append(piece @ piece.conj().T)
        start += rank
    return [mats[i] for i in rng.permutation(len(mats))]


def oracle_factored_family(ctx):
    """The atoms and ranks from a fresh SVD of the member stack, the
    reference for the ranges members keep from load."""
    u, s, _ = np.linalg.svd(np.array([p.matrix for p in ctx.members], dtype=np.complex128))
    ranks = linalg.singular_rank(s).tolist()
    atoms = [(ui[:, :r], p.label) for ui, r, p in zip(u, ranks, ctx.members) if r]
    return atoms, ranks


class TestKeptFactors:
    """A member is ranked once, at load; its lattice atom is the range kept then."""

    @staticmethod
    def assert_same_as_a_fresh_svd(ctx):
        family = pl.context_lattice(ctx)
        atoms, ranks = oracle_factored_family(ctx)
        assert family._atom_set.parts == len(ctx.members)
        assert family._atom_set.names == tuple(label for _, label in atoms)
        assert len(family._atom_set.bases) == len(atoms)
        for got, (want, _) in zip(family._atom_set.bases, atoms):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert [p.rank for p in ctx.members] == ranks
        return family, ranks

    @staticmethod
    def document(mats, name):
        matrices = [pl.document.matrix_to_json(m) for m in mats]
        return {"dim": mats[0].shape[0], "contexts": {name: matrices}}

    def contexts(self, mats, name):
        """The same members through a document, ``validate_context``, by hand
        from checked members, and by hand from hand-built members."""
        parsed, _ = pl.parse_document(self.document(mats, name))
        members = [pl.validate_projector(m, label=f"{name}[{i}]") for i, m in enumerate(mats)]
        checked = pl.validate_context(members, name=name)
        hand_built = tuple(pl.Projector(p.matrix, p.rank, p.label) for p in members)
        return (
            parsed.contexts[0],
            checked,
            pl.MaximalContext(name, checked.members),
            pl.MaximalContext(name, hand_built),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_rank_contexts(self, seed):
        rng = np.random.default_rng(1900 + seed)
        n = int(rng.integers(1, 13))
        mats = _mixed_rank_members(rng, n)
        contexts = self.contexts(mats, "c")
        for ctx in contexts[:3]:
            for p in ctx.members:
                assert p._range.shape == (n, p.rank) and not p._range.flags.writeable
        assert all(p._range is None for p in contexts[3].members)
        families = [self.assert_same_as_a_fresh_svd(ctx)[0] for ctx in contexts]
        # A hand-built member takes its one SVD on first read, and keeps it.
        for p in contexts[3].members:
            assert p._range is not None and p._factors()[0] is p._range
        for family in families[1:]:
            assert family._atom_set.names == families[0]._atom_set.names
            for a, b in zip(family._atom_set.bases, families[0]._atom_set.bases):
                assert a.tobytes() == b.tobytes()
        if len(families[0]._blocks) <= 8:
            for a, b in zip(families[1].elements, families[0].elements):
                assert a.basis.tobytes() == b.basis.tobytes()

    def test_singular_value_straddling_the_rank_cutoff(self):
        # Member 0 gains c v v^H along a line of member 1's range, with c on
        # a grid around the cutoff eps_rank * max(1, s_0) = eps_rank: a fresh
        # SVD ranks it 2 or 3 by the last bits of one singular value. Below
        # the cutoff the context loads and each atom is as wide as its rank;
        # above it the ranks [3, 2, 2] do not sum to 6 and loading raises.
        rng = np.random.default_rng(1950)
        tol = pl.TolerancePolicy()
        mats, columns = [], _haar(rng, 6)
        for k in range(0, 6, 2):
            piece = columns[:, k : k + 2]
            mats.append(piece @ piece.conj().T)
        v = columns[:, 2:3]
        seen = set()
        for c in tol.eps_rank * (1 + np.linspace(-2e-6, 2e-6, 41)):
            straddled = [mats[0] + c * (v @ v.conj().T), *mats[1:]]
            stack = np.array(straddled, dtype=np.complex128)
            want = linalg.singular_rank(np.linalg.svd(stack, compute_uv=False), tol).tolist()
            seen.add(tuple(want))
            if want == [2, 2, 2]:
                for ctx in self.contexts(straddled, "s"):
                    family, _ = self.assert_same_as_a_fresh_svd(ctx)
                    assert [u.shape[1] for u in family._atom_set.bases] == want
                continue
            message = r"context 's': member ranks \[3, 2, 2\] sum to 7, not to the dimension 6"
            with pytest.raises(pl.ValidationError, match=message):
                pl.parse_document(self.document(straddled, "s"))
            members = [pl.validate_projector(m, label=f"s[{i}]") for i, m in enumerate(straddled)]
            assert [p.rank for p in members] == want
            with pytest.raises(pl.ValidationError, match=message):
                pl.validate_context(members, name="s")
        assert seen == {(2, 2, 2), (3, 2, 2)}

    def test_ray_factors_are_the_rays(self, ks18):
        # Each ray member's range is its ray, a read-only view of the rays
        # of its document; bases checked as one stack, with integer and with
        # Haar-random entries.
        rng = np.random.default_rng(1960)
        rays, groups = {}, {}
        for g in range(3):
            for k, column in enumerate(_haar(rng, 7).T):
                rays[f"{g}_{k}"] = pl.document.vector_to_json(column)
            groups[f"g{g}"] = [f"{g}_{k}" for k in range(7)]
        haar, _ = pl.parse_document({"dim": 7, "rays": rays, "groups": groups})
        for collection in (ks18, haar):
            owner = collection.contexts[0].members[0]._range.base
            assert owner.shape == (len(collection.registry), collection.ambient_dim)
            for ctx in collection.contexts:
                for ray, p in zip(rays_of(ctx), ctx.members):
                    assert p.rank == 1 and p._range.shape == (ctx.ambient_dim, 1)
                    assert p._range.base is owner
                    assert p._range[:, 0].tobytes() == ray.tobytes()
                    assert not p._range.flags.writeable


class TestRangeAndKernel:
    """``Projector.range`` is the kept basis and ``kernel`` its complement."""

    @staticmethod
    def projectors(rng):
        """Mixed-rank projectors of C^n, n <= 12, and the member straddling
        the rank cutoff above it, which ranks 3 on a plane's projector."""
        n = int(rng.integers(1, 13))
        mats = _mixed_rank_members(rng, n)
        columns = _haar(rng, 6)
        v = columns[:, 2:3]
        straddled = columns[:, :2] @ columns[:, :2].conj().T + 1.01e-10 * (v @ v.conj().T)
        return [pl.validate_projector(m, label=f"p{i}") for i, m in enumerate(mats + [straddled])]

    def test_range_kernel_and_atoms(self):
        rng = np.random.default_rng(1970)
        disagree, straddled = [], []
        for _ in range(40):
            members = self.projectors(rng)
            straddled.append(members[-1])
            assert members[-1].rank == 3
            for p in members:
                n = p.ambient_dim
                ran, ker = p.range(), p.kernel()
                assert ran.dim == p.rank and ker.dim == n - p.rank
                roundoff = 8 * n * np.finfo(float).eps
                assert max_abs(ran.basis.conj().T @ ker.basis) <= roundoff
                assert max_abs(ker.basis.conj().T @ ker.basis - np.eye(ker.dim)) <= roundoff
                old = Subspace.column_space(np.eye(n) - p.matrix)
                if old.dim == ker.dim:
                    assert ker.equals(old)
                else:
                    disagree.append(p)
            ctx = pl.validate_context(members[:-1])
            atoms = pl.context_lattice(ctx)._atom_set.bases
            ranges = [p.range().basis for p in ctx.members if p.rank]
            assert [a.tobytes() for a in atoms] == [r.tobytes() for r in ranges]
        # Only on the straddling member does the old kernel differ in rank:
        # I - P has rank 4 there, not 6 - 3.
        assert [id(p) for p in disagree] == [id(p) for p in straddled]



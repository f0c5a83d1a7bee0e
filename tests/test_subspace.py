"""Subspaces: built from a spanning set, compared with ``equals``, and the
kernel route ``validate_projector(I - P).range()``. The meet and join
tests pin the conftest oracles that the lattice and projector checks use."""
import numpy as np
import pytest

import projlat as pl
from conftest import join, kernel, max_abs, meet, random_projector, span
from projlat import Subspace

LINE_E1 = span([1, 0])
LINE_E2 = span([0, 1])
LINE_PLUS = span([1, 1])
LINE_MINUS = span([1, -1])
LINE_Y1 = span([1, 1j])
LINE_Y2 = span([1j, 1])
FULL2 = Subspace(2, np.eye(2))


def complement(sub):
    """The orthogonal complement of ``sub``, by the kernel route."""
    return kernel(pl.validate_projector(sub.projector))


def fixes(sub, vector):
    vector = np.asarray(vector, dtype=complex)
    residual = np.linalg.norm(sub.projector @ vector - vector)
    return residual <= pl.DEFAULT_TOLERANCES.eps_subspace * np.linalg.norm(vector)


def test_from_span_single_vector():
    line = Subspace.column_space([[1], [0]])
    assert line.dim == 1
    assert fixes(line, [3, 0])
    assert not fixes(line, [0, 1])


def test_from_span_empty_is_zero_subspace():
    sub = Subspace.column_space(np.zeros((2, 0)))
    assert sub.dim == 0
    assert np.array_equal(sub.projector, np.zeros((2, 2)))


def test_from_span_spanning_set_gives_full_space():
    assert Subspace.column_space([[1, 1], [1, -1]]).dim == 2


class TestEquals:
    def test_range_of_complement_equals_kernel(self):
        p = pl.pauli_contexts().contexts[0]  # z context
        assert p.members[1].range().equals(kernel(p.members[0]))

    def test_zero_equals_zero(self):
        assert Subspace.zero(2).equals(Subspace.zero(2))

    def test_distinct_lines_differ(self):
        assert not LINE_E1.equals(LINE_PLUS)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(pl.DimensionMismatchError):
            LINE_E1.equals(Subspace.zero(3))

    def test_equivalence_relation_on_golden_elements(self):
        elements = [
            Subspace.zero(2), LINE_E1, LINE_E2, LINE_PLUS, LINE_MINUS,
            LINE_Y1, LINE_Y2, FULL2,
        ]
        for u in elements:
            assert u.equals(u)
            for v in elements:
                assert u.equals(v) == v.equals(u)
                for w in elements:
                    if u.equals(v) and v.equals(w):
                        assert u.equals(w)

    def test_basis_choice_is_irrelevant(self):
        other = span([0, 2], [1j, 0])
        assert other.equals(FULL2)


class TestMeet:
    def test_orthogonal_lines_intersect_trivially(self):
        assert meet(LINE_E1, LINE_E2).dim == 0

    def test_full_space_is_absorbing(self):
        assert meet(LINE_PLUS, FULL2).equals(LINE_PLUS)

    def test_distinct_lines_intersect_trivially(self):
        assert meet(LINE_E1, LINE_PLUS).dim == 0

    def test_dimension_lower_bound(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 4):
            for _ in range(5):
                u = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                v = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                assert meet(u, v).dim >= u.dim + v.dim - dim


class TestJoin:
    def test_orthogonal_lines_span_everything(self):
        assert join(LINE_E1, LINE_E2).dim == 2

    def test_zero_is_neutral(self):
        assert join(LINE_PLUS, Subspace.zero(2)).equals(LINE_PLUS)

    def test_two_skew_lines_span_plane(self):
        assert join(LINE_PLUS, LINE_Y1).dim == 2


class TestOrthoComplement:
    """The complement of a subspace is the kernel of its projector."""

    def test_coordinate_line(self):
        assert complement(LINE_E1).equals(LINE_E2)

    def test_zero_subspace(self):
        assert complement(Subspace.zero(3)).dim == 3

    def test_diagonal_line(self):
        assert complement(LINE_PLUS).equals(LINE_MINUS)

    def test_projector_identity(self):
        comp = complement(LINE_Y1)
        assert np.allclose(comp.projector, np.eye(2) - LINE_Y1.projector)

    def test_involution(self):
        rng = np.random.default_rng(29)
        for dim in (2, 3, 4):
            sub = random_projector(rng, dim, rng.integers(1, dim)).range()
            assert complement(complement(sub)).equals(sub)


class TestDirectSum:
    """``u + v = C^n`` with ``u`` and ``v`` orthogonal: their meet is zero,
    their join is full and their projectors annihilate."""

    @staticmethod
    def orthogonal(u, v):
        return max_abs(u.projector @ v.projector) <= pl.DEFAULT_TOLERANCES.eps_entry

    @staticmethod
    def direct_sum(u, v):
        return meet(u, v).dim == 0 and join(u, v).dim == u.ambient_dim

    def test_range_and_kernel_decompose(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 4):
            p = random_projector(rng, dim, rng.integers(1, dim))
            ran, ker = p.range(), kernel(p)
            assert self.direct_sum(ran, ker)
            assert self.orthogonal(ran, ker)

    def test_full_and_zero(self):
        zero = Subspace.zero(2)
        assert self.direct_sum(FULL2, zero)
        assert self.orthogonal(FULL2, zero)

    def test_spanning_but_non_orthogonal_pair_fails(self):
        assert self.direct_sum(LINE_E1, LINE_PLUS)
        assert not self.orthogonal(LINE_E1, LINE_PLUS)


class TestLatticeLaws:
    def test_commutative_idempotent_absorption(self):
        rng = np.random.default_rng(37)
        for dim in (2, 3, 4):
            for _ in range(5):
                u = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                v = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                assert meet(u, v).equals(meet(v, u))
                assert join(u, v).equals(join(v, u))
                assert meet(u, u).equals(u)
                assert join(u, u).equals(u)
                assert join(u, meet(u, v)).equals(u)
                assert meet(u, join(u, v)).equals(u)


def test_complement_swaps_range_and_kernel():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4):
        p = random_projector(rng, dim, rng.integers(1, dim))
        q = pl.validate_projector(np.eye(dim) - p.matrix, label="1-P")
        assert p.range().equals(kernel(q))
        assert kernel(p).equals(q.range())

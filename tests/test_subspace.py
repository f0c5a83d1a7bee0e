import numpy as np
import pytest

import projlat as pl
from conftest import max_abs, random_projector
from projlat import Subspace

LINE_E1 = Subspace.from_span([[1, 0]])
LINE_E2 = Subspace.from_span([[0, 1]])
LINE_PLUS = Subspace.from_span([[1, 1]])
LINE_MINUS = Subspace.from_span([[1, -1]])
LINE_Y1 = Subspace.from_span([[1, 1j]])
LINE_Y2 = Subspace.from_span([[1j, 1]])


def test_from_span_single_vector():
    assert LINE_E1.dim == 1
    assert LINE_E1.contains([3, 0])
    assert not LINE_E1.contains([0, 1])


def test_from_span_empty_is_zero_subspace():
    sub = Subspace.from_span([], ambient_dim=2)
    assert sub.is_zero()
    assert np.array_equal(sub.projector, np.zeros((2, 2)))


def test_from_span_spanning_set_gives_full_space():
    assert Subspace.from_span([[1, 1], [1, -1]]).is_full()


def test_from_span_mixed_dimensions_raise():
    with pytest.raises(pl.DimensionMismatchError):
        Subspace.from_span([[1, 0], [1, 0, 0]])


def test_from_span_without_ambient_dim_raises():
    with pytest.raises(ValueError):
        Subspace.from_span([])


def test_from_span_coerces_each_vector_once(monkeypatch):
    calls = []
    coerce = pl.linalg.as_state_vector

    def spy(vector):
        calls.append(vector)
        return coerce(vector)

    monkeypatch.setattr(pl.linalg, "as_state_vector", spy)
    vectors = [[1, 0, 0], [1, 1, 0], [0, 1j, 2]]
    assert Subspace.from_span(vectors).is_full()
    assert calls == vectors


class TestEquals:
    def test_range_of_complement_equals_kernel(self):
        p = pl.pauli_contexts().contexts[0]  # z context
        assert p.members[1].range().equals(p.members[0].kernel())

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
            LINE_Y1, LINE_Y2, Subspace.full(2),
        ]
        for u in elements:
            assert u.equals(u)
            for v in elements:
                assert u.equals(v) == v.equals(u)
                for w in elements:
                    if u.equals(v) and v.equals(w):
                        assert u.equals(w)

    def test_basis_choice_is_irrelevant(self):
        other = Subspace.from_span([[0, 2], [1j, 0]])
        assert other.equals(Subspace.full(2))


class TestMeet:
    def test_orthogonal_lines_intersect_trivially(self):
        assert LINE_E1.meet(LINE_E2).is_zero()

    def test_full_space_is_absorbing(self):
        assert LINE_PLUS.meet(Subspace.full(2)).equals(LINE_PLUS)

    def test_distinct_lines_intersect_trivially(self):
        assert LINE_E1.meet(LINE_PLUS).is_zero()

    def test_dimension_lower_bound(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 4):
            for _ in range(5):
                u = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                v = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                assert u.meet(v).dim >= u.dim + v.dim - dim


class TestJoin:
    def test_orthogonal_lines_span_everything(self):
        assert LINE_E1.join(LINE_E2).is_full()

    def test_zero_is_neutral(self):
        assert LINE_PLUS.join(Subspace.zero(2)).equals(LINE_PLUS)

    def test_two_skew_lines_span_plane(self):
        assert LINE_PLUS.join(LINE_Y1).is_full()


class TestOrthoComplement:
    def test_coordinate_line(self):
        assert LINE_E1.ortho_complement().equals(LINE_E2)

    def test_zero_subspace(self):
        assert Subspace.zero(3).ortho_complement().is_full()

    def test_diagonal_line(self):
        assert LINE_PLUS.ortho_complement().equals(LINE_MINUS)

    def test_projector_identity(self):
        comp = LINE_Y1.ortho_complement()
        assert np.allclose(comp.projector, np.eye(2) - LINE_Y1.projector)

    def test_involution(self):
        rng = np.random.default_rng(29)
        for dim in (2, 3, 4):
            sub = random_projector(rng, dim, rng.integers(1, dim)).range()
            assert sub.ortho_complement().ortho_complement().equals(sub)


class TestDirectSum:
    """``u + v = C^n`` with ``u`` and ``v`` orthogonal: their meet is zero,
    their join is full and their projectors annihilate."""

    @staticmethod
    def orthogonal(u, v):
        return max_abs(u.projector @ v.projector) <= pl.DEFAULT_TOLERANCES.eps_entry

    def test_range_and_kernel_decompose(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 4):
            p = random_projector(rng, dim, rng.integers(1, dim))
            ran, ker = p.range(), p.kernel()
            assert ran.meet(ker).is_zero() and ran.join(ker).is_full()
            assert self.orthogonal(ran, ker)

    def test_full_and_zero(self):
        full, zero = Subspace.full(2), Subspace.zero(2)
        assert full.meet(zero).is_zero() and full.join(zero).is_full()
        assert self.orthogonal(full, zero)

    def test_spanning_but_non_orthogonal_pair_fails(self):
        assert LINE_E1.meet(LINE_PLUS).is_zero() and LINE_E1.join(LINE_PLUS).is_full()
        assert not self.orthogonal(LINE_E1, LINE_PLUS)


class TestLatticeLaws:
    def test_commutative_idempotent_absorption(self):
        rng = np.random.default_rng(37)
        for dim in (2, 3, 4):
            for _ in range(5):
                u = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                v = random_projector(rng, dim, rng.integers(1, dim + 1)).range()
                assert u.meet(v).equals(v.meet(u))
                assert u.join(v).equals(v.join(u))
                assert u.meet(u).equals(u)
                assert u.join(u).equals(u)
                assert u.join(u.meet(v)).equals(u)
                assert u.meet(u.join(v)).equals(u)


def test_complement_swaps_range_and_kernel():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4):
        p = random_projector(rng, dim, rng.integers(1, dim))
        q = pl.validate_projector(np.eye(dim) - p.matrix, label="1-P")
        assert p.range().equals(q.kernel())
        assert p.kernel().equals(q.range())

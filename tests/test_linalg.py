import numpy as np
import pytest

import projlat as pl
from conftest import max_abs
from projlat import linalg

I2 = np.eye(2)
P1Z = np.array([[1, 0], [0, 0]], dtype=complex)
P2Z = np.array([[0, 0], [0, 1]], dtype=complex)
P1X = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
P1Y = 0.5 * np.array([[1, -1j], [1j, 1]])


class TestOrthonormalize:
    def test_collinear_vectors_collapse(self):
        basis = pl.orthonormalize([[1, 0], [2, 0]])
        assert len(basis) == 1
        assert np.allclose(basis[0], [1, 0])

    def test_independent_vectors_become_orthonormal(self):
        basis = pl.orthonormalize([[1, 1], [1, -1]])
        assert len(basis) == 2
        stacked = np.column_stack(basis)
        gram = stacked.conj().T @ stacked
        assert max_abs(gram - np.eye(2)) <= pl.DEFAULT_TOLERANCES.eps_entry

    def test_empty_input(self):
        assert pl.orthonormalize([]) == []

    def test_all_zero_input(self):
        assert pl.orthonormalize([[0, 0], [0, 0]]) == []

    def test_mixed_dimensions_raise(self):
        with pytest.raises(pl.DimensionMismatchError):
            pl.orthonormalize([[1, 0], [1, 0, 0]])

    def test_output_size_equals_numerical_rank(self):
        rng = np.random.default_rng(23)
        for dim in range(1, 7):
            for count in (1, dim, dim + 2):
                vecs = [
                    rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    for _ in range(count)
                ]
                if count > dim:
                    vecs[-1] = vecs[0] + vecs[1]
                stacked = np.column_stack(vecs)
                assert len(pl.orthonormalize(vecs)) == pl.numerical_rank(stacked)

    def test_deterministic_for_fixed_order(self):
        vecs = [[1, 2, 0], [0, 1, 1], [1, 0, 0]]
        first = pl.orthonormalize(vecs)
        second = pl.orthonormalize(vecs)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestNullspace:
    def test_rank_one_projector(self):
        basis = linalg.kernel_basis(P1Z)
        assert len(basis) == 1
        assert np.allclose(np.abs(basis[0]), [0, 1])

    def test_identity_has_trivial_kernel(self):
        assert linalg.kernel_basis(I2) == []

    def test_zero_matrix_has_full_kernel(self):
        basis = linalg.kernel_basis(np.zeros((2, 2)))
        assert len(basis) == 2

    def test_rectangular_matrix_has_column_kernel(self):
        # The kernel lies in the column space's domain: C^3 for a 2 x 3 matrix.
        basis = linalg.kernel_basis(np.ones((2, 3)))
        assert len(basis) == 2 and all(v.shape == (3,) for v in basis)
        assert all(np.linalg.norm(np.ones((2, 3)) @ v) <= 1e-12 for v in basis)

    def test_rank_nullity(self):
        rng = np.random.default_rng(3)
        for dim in range(1, 7):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            if dim > 2:
                m[:, -1] = m[:, 0]  # force a rank deficiency
            assert pl.numerical_rank(m) + len(linalg.kernel_basis(m)) == dim

    def test_kernel_vectors_are_annihilated(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        m[:, 3] = m[:, 1] - m[:, 2]
        for v in linalg.kernel_basis(m):
            assert np.linalg.norm(m @ v) <= 1e-9


class TestNumericalRank:
    @pytest.mark.parametrize(
        "matrix,expected",
        [(P1X, 1), (I2, 2), (np.zeros((2, 2)), 0), (P1Y, 1)],
    )
    def test_golden_values(self, matrix, expected):
        assert pl.numerical_rank(matrix) == expected

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(pl.ValidationError):
            pl.numerical_rank([[np.nan, 0], [0, 1]])

    def test_stacked_singular_values_rank_each_row(self):
        rng = np.random.default_rng(17)
        stack = np.array(
            [P1X, I2, np.zeros((2, 2)), P1Y, 1e-12 * I2, 1e12 * P1Z + 1e-3 * P2Z]
        ) + 1e-14 * rng.normal(size=(6, 2, 2))
        s = np.linalg.svd(stack, compute_uv=False)
        ranks = linalg.singular_rank(s)
        assert ranks.tolist() == [linalg.singular_rank(row) for row in s] == [1, 2, 0, 1, 0, 1]

    @pytest.mark.parametrize(
        "values", [[], [0.0, 0.0], [np.nan, 1.0, 0.5], [np.nan]], ids=["empty", "zero", "nan", "nan1"]
    )
    def test_degenerate_rows_count_zero(self, values):
        # One rule for a row and a stack: a row gives an int, a stack an array.
        rank = linalg.singular_rank(values)
        assert type(rank) is int and rank == 0
        assert linalg.singular_rank([values, values]).tolist() == [0, 0]


def _basis(n):
    return pl.context_from_basis(np.eye(n))


# The six checks of one common dimension, each with the class and the exact
# message it raised before they shared ``linalg._common_dim``. The third
# operand matches the first, so each message names the first pair that differs.
DIMENSION_ERRORS = [
    (lambda: pl.ContextCollection([_basis(2), _basis(3), _basis(2)]),
     "mixed ambient dimensions: 2 and 3"),
    (lambda: pl.validate_context([_basis(2).members[0], _basis(3).members[0], _basis(2).members[1]]),
     "context 'context': mixed ambient dimensions 2 and 3"),
    (lambda: pl.context_from_basis([[1, 0], [0, 1, 0], [0, 1]]),
     "context 'context': mixed vector dimensions 2 and 3"),
    (lambda: pl.intersect_lattices([pl.context_lattice(_basis(n)) for n in (2, 3, 2)]),
     "mixed ambient dimensions: 2 and 3"),
    (lambda: pl.is_irreducible([np.eye(2), np.eye(3), np.eye(2)]),
     "mixed generator dimensions: 2 and 3"),
    (lambda: pl.orthonormalize([[1, 0], [1, 0, 0], [0, 1]]),
     "mixed vector dimensions: 2 and 3"),
]


@pytest.mark.parametrize(
    "call, message",
    DIMENSION_ERRORS,
    ids=["collection", "validate_context", "context_from_basis", "intersect", "generators",
         "orthonormalize"],
)
def test_dimension_errors_keep_class_and_message(call, message):
    with pytest.raises(pl.DimensionMismatchError) as info:
        call()
    assert type(info.value) is pl.DimensionMismatchError
    assert str(info.value) == message


class TestTolerancePolicy:
    def test_defaults_are_ordered(self):
        tol = pl.TolerancePolicy()
        assert 0 < tol.eps_rank <= tol.eps_entry <= tol.eps_subspace

    @pytest.mark.parametrize(
        "fields",
        [
            {"eps_rank": -1e-10},
            {"eps_rank": 0.0},
            {"eps_entry": 1e-12},          # below eps_rank
            {"eps_subspace": 1e-10},       # below eps_entry
            {"eps_subspace": float("inf")},
            {"eps_entry": float("inf"), "eps_subspace": float("inf")},
            {"eps_rank": float("inf"), "eps_entry": float("inf"), "eps_subspace": float("inf")},
            {"eps_subspace": float("nan")},
        ],
    )
    def test_invalid_policies_rejected(self, fields):
        with pytest.raises(ValueError):
            pl.TolerancePolicy(**fields)

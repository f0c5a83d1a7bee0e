import numpy as np
import pytest

import projlat as pl
from conftest import (
    bound_slack,
    dense_products,
    dense_residuals,
    from_basis,
    kernel,
    ks18_document,
    random_projector,
    random_rank1_context,
    meet,
    rank1_bound,
    rays_of,
    span,
)
from projlat import Subspace

I2 = np.eye(2)
P1Z = np.array([[1, 0], [0, 0]], dtype=complex)
P1X = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


class TestValidateProjector:
    def test_rank_one_projector(self):
        p = pl.validate_projector(P1X, label="P1_x")
        assert p.rank == 1
        assert p.label == "P1_x"
        assert np.array_equal(p.matrix, P1X)

    def test_identity_is_rank_two(self):
        assert pl.validate_projector(I2).rank == 2

    def test_half_identity_is_not_idempotent(self):
        with pytest.raises(pl.NotIdempotentError) as excinfo:
            pl.validate_projector(0.5 * I2)
        assert excinfo.value.residual == pytest.approx(0.25)

    def test_non_hermitian_rejected(self):
        with pytest.raises(pl.NotHermitianError):
            pl.validate_projector([[0, 1], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(pl.NotSquareError):
            pl.validate_projector(np.ones((2, 3)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_idempotency_residual_fails(self):
        # Hermitian, but M^2 overflows: inf - inf makes the residual NaN.
        big = 1e200
        matrix = [[big, big * (1 + 1j)], [big * (1 - 1j), big]]
        with pytest.raises(pl.NotIdempotentError) as info:
            pl.validate_projector(matrix)
        assert np.isnan(info.value.residual)

    def test_matrix_is_stored_as_given(self):
        noisy = P1X + 1e-11  # within tolerance, must not be cleaned up
        p = pl.validate_projector(noisy)
        assert np.array_equal(p.matrix, noisy)


class TestRangeAndKernel:
    def test_range_of_z_projector(self):
        p = pl.validate_projector(P1Z)
        assert p.range().equals(span([1, 0]))

    def test_range_of_identity_is_everything(self):
        assert pl.validate_projector(I2).range().dim == 2

    def test_range_of_y_projector(self):
        p = pl.validate_projector(0.5 * np.array([[1, -1j], [1j, 1]]))
        assert p.range().equals(span([-1j, 1]))

    def test_kernel_of_second_z_projector(self):
        p = pl.validate_projector([[0, 0], [0, 1]])
        assert kernel(p).equals(span([1, 0]))

    def test_kernel_of_zero_is_everything(self):
        assert kernel(pl.validate_projector(np.zeros((2, 2)))).dim == 2

    def test_kernel_of_second_x_projector(self):
        p = pl.validate_projector(0.5 * np.array([[1, -1], [-1, 1]]))
        assert kernel(p).equals(span([1, 1]))

    def test_range_vectors_are_fixed(self):
        rng = np.random.default_rng(43)
        tol = pl.DEFAULT_TOLERANCES
        for dim in (2, 3, 4):
            p = random_projector(rng, dim, rng.integers(1, dim + 1))
            for v in p.range().basis.T:
                assert np.linalg.norm(p.matrix @ v - v) <= tol.eps_entry


class TestIsInvariant:
    def test_range_and_kernel_are_invariant(self):
        rng = np.random.default_rng(47)
        for dim in (2, 3, 4):
            p = random_projector(rng, dim, rng.integers(1, dim + 1))
            assert pl.is_invariant(p.range(), p)
            assert pl.is_invariant(kernel(p), p)

    def test_full_space_is_trivially_invariant(self):
        p = pl.validate_projector(P1X)
        assert pl.is_invariant(Subspace(2, I2), p)

    def test_skew_line_is_not_invariant(self):
        line = span([1, 1])
        assert not pl.is_invariant(line, pl.validate_projector(P1Z))

    def test_ambient_mismatch_raises(self):
        with pytest.raises(pl.DimensionMismatchError):
            pl.is_invariant(Subspace(3, np.eye(3)), pl.validate_projector(P1Z))


class TestValidateContext:
    def test_z_pair_is_a_context(self):
        members = [
            pl.validate_projector(P1Z, label="P1"),
            pl.validate_projector([[0, 0], [0, 1]], label="P2"),
        ]
        ctx = pl.validate_context(members, name="z")
        assert len(ctx) == 2
        assert ctx.labels == ("P1", "P2")

    def test_identity_singleton_is_a_context(self):
        ctx = pl.validate_context([pl.validate_projector(I2)], name="one")
        assert len(ctx) == 1

    def test_non_annihilating_pair_rejected(self):
        members = [pl.validate_projector(P1Z), pl.validate_projector(P1X)]
        with pytest.raises(pl.PairwiseProductNonzeroError) as excinfo:
            pl.validate_context(members)
        assert excinfo.value.pair == (0, 1)
        assert excinfo.value.residual == pytest.approx(0.5)

    def test_first_offending_pair_in_row_major_order(self):
        # Pairs (0, 2) and (1, 2) both fail; (0, 2) comes first.
        members = [
            pl.Projector(matrix=np.diag([1.0, 0, 0]).astype(complex), rank=1, label="e0"),
            pl.Projector(matrix=np.diag([0, 1.0, 0]).astype(complex), rank=1, label="e1"),
            pl.Projector(matrix=np.diag([0.5, 0.25, 1]).astype(complex), rank=1, label="d"),
        ]
        with pytest.raises(pl.PairwiseProductNonzeroError) as excinfo:
            pl.validate_context(members, name="c")
        assert excinfo.value.pair == (0, 2)
        # The bound is about the gap of d, |d - e2 e2^H|_F = sqrt(5) / 4; the
        # error reports the dense max |Pi Pj| measured for the failing pair.
        assert excinfo.value.residual == 0.5

    def test_incomplete_sum_rejected(self):
        with pytest.raises(pl.SumNotIdentityError):
            pl.validate_context([pl.validate_projector(P1Z)])

    def test_empty_context_rejected(self):
        with pytest.raises(pl.ValidationError):
            pl.validate_context([])

    def test_mixed_ambient_dimensions_rejected(self):
        members = [pl.validate_projector(P1Z), pl.validate_projector(np.eye(3))]
        with pytest.raises(
            pl.DimensionMismatchError,
            match="^context 'context': mixed ambient dimensions 2 and 3$",
        ):
            pl.validate_context(members)

    def test_rank_sum_matches_ambient_dimension(self):
        rng = np.random.default_rng(53)
        for dim in (2, 3, 4):
            ctx = random_rank1_context(rng, dim)
            assert sum(p.rank for p in ctx.members) == dim


class TestContextFromBasis:
    def test_standard_basis_gives_z_context(self):
        ctx = pl.context_from_basis([[1, 0], [0, 1]], name="z")
        assert np.allclose(ctx.members[0].matrix, P1Z)
        assert np.allclose(ctx.members[1].matrix, [[0, 0], [0, 1]])

    def test_hadamard_basis_gives_x_context(self):
        s = 1 / np.sqrt(2)
        ctx = pl.context_from_basis([[s, s], [s, -s]], name="x")
        assert np.allclose(ctx.members[0].matrix, P1X)
        assert np.allclose(ctx.members[1].matrix, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_incomplete_basis_rejected(self):
        with pytest.raises(pl.NotCompleteError):
            pl.context_from_basis([[1, 0]])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(pl.NotOrthonormalError):
            pl.context_from_basis([[1, 0], [1, 1]])

    @pytest.mark.parametrize(
        "vectors, labels, error, message",
        [
            ([[1, 0], [0, 1, 0]], None, pl.DimensionMismatchError,
             "context 'context': mixed vector dimensions 2 and 3"),
            ([[1, 0], [0, np.nan]], None, pl.ValidationError, "vector entries must be finite"),
            ([[[1, 0]], [[0, 1]]], None, pl.ValidationError,
             "expected a 1-D vector, got 2 dimension(s)"),
            ([], None, pl.ValidationError, "context 'context' needs at least one basis vector"),
            ([[1, 0], [0, 1]], ["a"], pl.ValidationError, "context 'context': 1 labels for 2 vectors"),
        ],
    )
    def test_bad_vectors_are_named(self, vectors, labels, error, message):
        with pytest.raises(error) as info:
            pl.context_from_basis(vectors, labels=labels)
        assert str(info.value) == message


class TestPauliContexts:
    def test_three_contexts_of_two(self, pauli):
        assert len(pauli) == 3
        assert pauli.context_names == ("z", "x", "y")
        assert all(len(ctx) == 2 for ctx in pauli.contexts)

    def test_members_revalidate(self, pauli):
        for ctx in pauli.contexts:
            revalidated = pl.validate_context(
                [pl.validate_projector(p.matrix, label=p.label) for p in ctx.members],
                name=ctx.name,
            )
            assert revalidated.labels == ctx.labels

    def test_y_projector_entry(self, pauli):
        p1y = pauli.context_named("y").members[0]
        assert p1y.matrix[0, 1] == -0.5j

    def test_all_six_projectors_are_distinct_identities(self, pauli):
        assert len(pauli.registry) == 6

    def test_context_residuals_are_tiny(self, pauli):
        # The pairwise residual is a bound read off the kept ranges, set by
        # the members' gaps; the sum is measured.
        for ctx in pauli.contexts:
            res = pl.context_residuals(ctx)
            assert res["pairwise_product"] <= 3 * max(p._gap for p in ctx.members) <= 1e-14
            assert res["sum_minus_identity"] <= 1e-15


class TestContextCollection:
    def test_shared_projector_has_one_identity(self):
        rng = np.random.default_rng(59)
        shared = np.array([1, 0, 0], dtype=complex)
        contexts = []
        for k in range(3):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            completion = np.zeros((3, 2), dtype=complex)
            completion[1:, :] = q
            basis = [shared, completion[:, 0], completion[:, 1]]
            contexts.append(pl.context_from_basis(basis, name=f"c{k}"))
        collection = pl.ContextCollection(contexts)
        first = collection.identity_of(0, 0)
        assert all(collection.identity_of(ci, 0) == first for ci in range(3))
        assert len(collection.registry) == 1 + 2 * 3

    def test_member_takes_first_representative_within_tolerance(self):
        eps = pl.TolerancePolicy().eps_subspace
        a = np.diag([1.0, 0]).astype(complex)
        e = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)  # unit Frobenius norm
        contexts = [
            pl.MaximalContext(
                name,
                (
                    pl.Projector(matrix=a + t * eps * e, rank=1, label=f"{name}0"),
                    pl.Projector(matrix=np.eye(2) - a - t * eps * e, rank=1, label=f"{name}1"),
                ),
            )
            for name, t in (("A", 0.0), ("B", 1.5), ("M", 0.75))
        ]
        collection = pl.ContextCollection(contexts)
        assert len(collection.registry) == 4  # A and B stay apart
        assert collection.identity_of(2, 0) == collection.identity_of(0, 0)
        assert collection.identity_of(2, 1) == collection.identity_of(0, 1)
        assert collection.registry[0].occurrences == ((0, 0), (2, 0))

    def test_mixed_dimensions_rejected(self):
        ctx2 = pl.context_from_basis([[1, 0], [0, 1]])
        ctx3 = pl.context_from_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(pl.DimensionMismatchError):
            pl.ContextCollection([ctx2, ctx3])

    def test_empty_collection_rejected(self):
        with pytest.raises(pl.ValidationError, match="^a collection needs at least one context$"):
            pl.ContextCollection([])

    def test_unknown_context_name(self, pauli):
        with pytest.raises(KeyError):
            pauli.context_named("w")


class TestPairwiseSubspaceIdentities:
    def test_context_members_satisfy_intersection_laws(self):
        rng = np.random.default_rng(61)
        for dim in (2, 3, 4):
            ctx = random_rank1_context(rng, dim)
            ranges = [p.range() for p in ctx.members]
            kernels = [kernel(p) for p in ctx.members]
            for i in range(dim):
                for j in range(dim):
                    if i == j:
                        continue
                    assert meet(ranges[i], ranges[j]).dim == 0
                    assert meet(ranges[i], kernels[j]).equals(ranges[i])
                    assert meet(kernels[i], ranges[j]).equals(ranges[j])
                    rest = [k for k in range(dim) if k not in (i, j)]
                    if rest:
                        remainder = Subspace.column_space(
                            sum(ctx.members[k].matrix for k in rest)
                        )
                    else:
                        remainder = Subspace.zero(dim)
                    assert meet(kernels[i], kernels[j]).equals(remainder)


def _perturbed_basis(rng, dim, scale):
    """A Haar basis of C^dim whose Gram matrix is off by about ``scale``."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return [q[:, i] + scale * noise[:, i] / np.abs(noise).max() for i in range(dim)]


class TestBasisRanksWithoutSvd:
    def test_rank_equals_numerical_rank(self):
        eps = pl.TolerancePolicy().eps_entry
        rng = np.random.default_rng(1700)
        accepted = 0
        for dim in range(1, 9):
            for scale in (0.0, 1e-13, 0.2 * eps, 0.4 * eps, 0.49 * eps):
                basis = _perturbed_basis(rng, dim, scale)
                stacked = np.column_stack(basis)
                gram_residual = np.abs(stacked.conj().T @ stacked - np.eye(dim)).max()
                if gram_residual > eps:
                    continue
                accepted += 1
                ctx = pl.context_from_basis(basis, name="b")
                for member in ctx.members:
                    assert member.rank == pl.numerical_rank(member.matrix) == 1
        assert accepted >= 30

    def test_loose_tolerances_can_give_rank_zero(self):
        # |v|^2 = 0.3 passes a Gram check at eps_entry 0.9 but lies below the
        # rank cutoff 0.5: the SVD says rank 0, and so does the shortcut,
        # whose ranks then fail to sum to the dimension.
        tol = pl.TolerancePolicy(eps_rank=0.5, eps_entry=0.9, eps_subspace=0.9)
        basis = list(np.sqrt(0.3) * np.eye(2))
        for v in basis:
            assert pl.numerical_rank(np.outer(v, v.conj()), tol) == 0
        with pytest.raises(pl.ValidationError, match=r"'small': member ranks \[0, 0\] sum to 0"):
            pl.context_from_basis(basis, tol, name="small")

    def test_no_svd_is_taken(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("context_from_basis took an SVD")

        monkeypatch.setattr(pl.linalg, "numerical_rank", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        rng = np.random.default_rng(1710)
        ctx = random_rank1_context(rng, 5)
        assert [p.rank for p in ctx.members] == [1] * 5

    def test_axiom_checks_still_run(self):
        with pytest.raises(pl.NotOrthonormalError):
            pl.context_from_basis([[1, 0], [1e-6, 1]])
        # |v|^2 = 1.5: the Gram residual 0.5 passes, the idempotency
        # residual (|v|^2 - 1) |v|^2 = 0.75 does not.
        tol = pl.TolerancePolicy(eps_rank=1e-10, eps_entry=0.6, eps_subspace=0.6)
        with pytest.raises(pl.NotIdempotentError):
            pl.context_from_basis([[np.sqrt(1.5), 0], [0, 1]], tol)


def _loop_residuals(ctx):
    return dense_residuals([p.matrix for p in ctx.members])


def _rank1_loop_residuals(ctx):
    """The residuals of a basis context from the rank-1 formula, one pair at a
    time: ``max|Pi Pj| = |G[i, j]| p_i p_j`` with ``p_i = max_a |v_i[a]|``."""
    rays = rays_of(ctx)
    gram = rays.conj() @ rays.T
    peaks = [np.abs(v).max() for v in rays]
    pairwise = 0.0
    for i in range(len(rays)):
        for j in range(len(rays)):
            if i != j:
                pairwise = max(pairwise, float(np.abs(gram[i, j]) * peaks[i] * peaks[j]))
    return dict(_loop_residuals(ctx), pairwise_product=pairwise)


class TestKeptResiduals:
    def _contexts(self, pauli):
        rng = np.random.default_rng(1720)
        contexts = list(pauli.contexts) + list(pl.parse_document(ks18_document())[0].contexts)
        for dim in (2, 3, 5, 8):
            contexts.append(random_rank1_context(rng, dim))
            plane = random_projector(rng, dim, dim // 2)
            contexts.append(
                pl.validate_context(
                    [plane, pl.validate_projector(np.eye(dim) - plane.matrix)], name="two"
                )
            )
        return contexts

    def test_kept_residuals_equal_a_fresh_measurement(self, pauli):
        # A basis context keeps its rank-1 residuals. The same members in a
        # context built by hand are measured as a matrix context is, from
        # their kept ranges: the kept bits for a matrix context, the rank-1
        # ones within rounding for a basis. The bound never lies below the
        # dense products less rounding, and every sum is the dense one.
        kinds = set()
        for ctx in self._contexts(pauli):
            kept = pl.context_residuals(ctx)
            by_hand = pl.context_residuals(pl.MaximalContext(ctx.name, ctx.members))
            dense = _loop_residuals(ctx)
            kinds.add(from_basis(ctx))
            assert kept["sum_minus_identity"] == by_hand["sum_minus_identity"]
            assert by_hand["sum_minus_identity"] == dense["sum_minus_identity"]
            if not from_basis(ctx):
                assert by_hand == kept
            else:
                assert _rank1_loop_residuals(ctx) == kept
                moved = abs(by_hand["pairwise_product"] - kept["pairwise_product"])
                assert moved <= rank1_bound(rays_of(ctx))
            slack = bound_slack(ctx.members).max()
            assert by_hand["pairwise_product"] >= dense["pairwise_product"] - slack
        assert kinds == {True, False}

    def test_residuals_are_a_copy(self, pauli):
        ctx = pauli.contexts[0]
        pl.context_residuals(ctx)["pairwise_product"] = 1.0
        assert pl.context_residuals(ctx)["pairwise_product"] <= 1e-14

    def test_hand_built_context_measures_on_demand(self):
        half = np.diag([1.0, 0.0]).astype(complex)
        skew = pl.Projector(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]), rank=1, label="x")
        ctx = pl.MaximalContext("h", (pl.Projector(matrix=half, rank=1, label="z"), skew))
        res = pl.context_residuals(ctx)
        # The bound |<e0, u>| max|e0| max|u| = 0.5 for u = (1, 1) / sqrt(2),
        # the dense max |Pi Pj|, plus the gaps.
        assert 0.5 <= res["pairwise_product"] <= 0.5 + 1e-14
        assert res["sum_minus_identity"] == 0.5
        assert ctx == pl.MaximalContext("h", ctx.members)


def _first_member_error(basis, tol):
    """What validating each ``v v^H`` on its own raises first, as (type, message)."""
    for v in basis:
        try:
            pl.validate_projector(np.outer(v, np.conj(v)), tol)
        except pl.ValidationError as exc:
            return type(exc), str(exc)
    return None


class TestRank1Stack:
    def _bases(self):
        rng = np.random.default_rng(1730)
        bases = [_perturbed_basis(rng, dim, scale) for dim in range(1, 9) for scale in (0.0, 1e-12)]
        bases.append(list(np.eye(4)))
        bases.append([np.array(ray, dtype=float) / np.linalg.norm(ray) for ray in [(1, 1), (1, -1)]])
        return bases

    def test_members_equal_outer_products_byte_for_byte(self):
        for basis in self._bases():
            ctx = pl.context_from_basis(basis)
            for v, member in zip(basis, ctx.members):
                expected = np.outer(np.asarray(v, dtype=complex), np.conj(np.asarray(v, dtype=complex)))
                assert member.matrix.dtype == expected.dtype
                assert member.matrix.tobytes() == expected.tobytes()

    def test_members_are_read_only_views_of_one_stack(self):
        ctx = random_rank1_context(np.random.default_rng(1731), 5)
        stack = ctx.members[0].matrix.base
        assert stack.shape == (5, 5, 5) and not stack.flags.writeable
        for i, member in enumerate(ctx.members):
            assert member.matrix.base is stack
            assert member.matrix.flags.c_contiguous and not member.matrix.flags.writeable
            assert np.shares_memory(member.matrix, stack[i])
            with pytest.raises(ValueError):
                member.matrix[0, 0] = 0

    def test_ranks_equal_numerical_rank(self):
        loose = pl.TolerancePolicy(eps_rank=0.5, eps_entry=0.9, eps_subspace=0.9)
        for basis in self._bases():
            for member in pl.context_from_basis(basis).members:
                assert member.rank == pl.numerical_rank(member.matrix)
        for member in pl.context_from_basis(list(np.sqrt(0.7) * np.eye(3)), loose).members:
            assert member.rank == pl.numerical_rank(member.matrix, loose) == 1
        # Rank 0 for |v|^2 = 0.3, as the SVD says: the ranks do not sum to 3.
        assert pl.numerical_rank(0.3 * np.diag([1, 0, 0]), loose) == 0
        with pytest.raises(pl.ValidationError, match=r"member ranks \[0, 0, 0\] sum to 0"):
            pl.context_from_basis(list(np.sqrt(0.3) * np.eye(3)), loose)

    def test_residuals_equal_the_explicit_double_loop(self):
        for basis in self._bases():
            ctx = pl.context_from_basis(basis)
            assert pl.context_residuals(ctx) == _rank1_loop_residuals(ctx)

    def test_rank1_residuals_lie_within_the_bound_of_the_dense_ones(self):
        # |Gram residual - dense residual| <= 4 (n + 2) u max p_i^2, on Haar
        # bases up to C^32, some off by about 1e-12, and coordinate bases.
        rng = np.random.default_rng(1733)
        moved = 0
        for basis in self._bases() + [
            _perturbed_basis(rng, dim, scale) for dim in (16, 32) for scale in (0.0, 1e-12)
        ]:
            ctx = pl.context_from_basis(basis)
            rank1 = pl.context_residuals(ctx)
            dense = _loop_residuals(ctx)
            gap = abs(rank1["pairwise_product"] - dense["pairwise_product"])
            assert gap <= rank1_bound(rays_of(ctx))
            assert rank1["sum_minus_identity"] == dense["sum_minus_identity"]
            moved += gap > 0
            # Every product and idempotency residual, not only the largest.
            rays = rays_of(ctx)
            offsets = np.abs(rays.conj() @ rays.T - np.eye(len(rays)))
            products = pl.projectors._products(offsets, rays[:, None], np.zeros(len(rays)))
            measured = dense_products([p.matrix for p in ctx.members])
            assert np.abs(products - measured).max() <= rank1_bound(rays)
        assert moved

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_failing_member_raises_as_on_its_own(self):
        # |v|^2 = 1 + d passes a Gram check at eps_entry 0.6 for d <= 0.6;
        # for v near a coordinate axis the idempotency residual, about
        # d (1 + d), passes it at d = 0.4 and fails it at d = 0.5.
        loose = pl.TolerancePolicy(eps_rank=1e-10, eps_entry=0.6, eps_subspace=0.6)
        rng = np.random.default_rng(1732)
        cases = []
        for dim in range(3, 8):
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q = np.linalg.qr(np.eye(dim) + 0.02 * noise)[0]
            basis = [q[:, i] for i in range(dim)]
            for i, d in zip(rng.choice(dim, size=3, replace=False), (0.4, 0.5, 0.55)):
                basis[i] = np.sqrt(1 + d) * basis[i]
            cases.append((basis, loose))
        raised = set()
        for basis, tol in cases:
            expected = _first_member_error(basis, tol)
            assert expected is not None
            with pytest.raises(pl.ValidationError) as info:
                pl.context_from_basis(basis, tol)
            assert (type(info.value), str(info.value)) == expected
            raised.add(expected[0])
        assert raised == {pl.NotIdempotentError}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "basis", [[[1e200, 1e200], [1e200, 1e200j]], [[0, 1e154], [1e200, 1e200 + 1e200j]]]
    )
    def test_overflowing_gram_fails_orthonormality(self, basis):
        # The Gram matrix overflows to a NaN residual, which fails the check
        # before any member is built.
        with pytest.raises(pl.NotOrthonormalError) as info:
            pl.context_from_basis(basis)
        assert np.isnan(info.value.residual)
        assert "= nan >" in str(info.value)

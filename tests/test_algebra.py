import numpy as np
import pytest

import projlat as pl
from conftest import max_abs, random_rank1_context, span
from projlat import Subspace

I2 = np.eye(2, dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)


def pauli_projector_matrices(pauli):
    return [entry.projector.matrix for entry in pauli.registry]


def diagonal_pair(pauli):
    return [p.matrix for p in pauli.context_named("z").members]


class TestAlgebraClosure:
    def test_six_pauli_projectors_saturate(self, pauli):
        closure = pl.algebra_closure(pauli_projector_matrices(pauli))
        assert closure.dimension == 4
        assert closure.saturated

    def test_identity_alone_spans_one_dimension(self):
        closure = pl.algebra_closure([I2])
        assert closure.dimension == 1
        assert not closure.saturated

    def test_diagonal_pair_spans_two_dimensions(self, pauli):
        closure = pl.algebra_closure(diagonal_pair(pauli))
        assert closure.dimension == 2
        assert not closure.saturated

    def test_basis_is_trace_orthonormal(self, pauli):
        closure = pl.algebra_closure(pauli_projector_matrices(pauli))
        for i, a in enumerate(closure.basis):
            for j, b in enumerate(closure.basis):
                inner = np.trace(a.conj().T @ b)
                expected = 1.0 if i == j else 0.0
                assert abs(inner - expected) <= pl.DEFAULT_TOLERANCES.eps_entry

    def test_closure_is_idempotent(self, pauli):
        for generators in (pauli_projector_matrices(pauli), diagonal_pair(pauli)):
            closure = pl.algebra_closure(generators)
            again = pl.algebra_closure(list(closure.basis))
            assert again.dimension == closure.dimension

    def test_dimension_is_monotone_in_generators(self, pauli):
        mats = pauli_projector_matrices(pauli)
        dims = [pl.algebra_closure(mats[: k + 1]).dimension for k in range(len(mats))]
        assert dims == sorted(dims)

    def test_projector_inputs_are_accepted(self, pauli):
        closure = pl.algebra_closure([e.projector for e in pauli.registry])
        assert closure.dimension == 4

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(pl.DimensionMismatchError):
            pl.algebra_closure([I2, np.eye(3)])

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            pl.algebra_closure([])


class TestIsIrreducible:
    def test_pauli_projectors_are_irreducible(self, pauli):
        report = pl.is_irreducible(pauli_projector_matrices(pauli))
        assert report.irreducible
        assert report.algebra_dimension == 4
        assert report.witness is None

    def test_diagonal_pair_is_reducible_with_coordinate_witness(self, pauli):
        report = pl.is_irreducible(diagonal_pair(pauli))
        assert not report.irreducible
        assert report.algebra_dimension == 2
        assert report.witness is not None
        lines = [span([1, 0]), span([0, 1])]
        assert any(report.witness.equals(line) for line in lines)

    def test_identity_and_zero_yield_first_coordinate_line(self):
        report = pl.is_irreducible([I2, ZERO2])
        assert not report.irreducible
        assert report.witness.equals(span([1, 0]))

    @pytest.mark.parametrize(
        "generators",
        [[np.eye(1)], [np.array([[2.0 + 3.0j]])], [np.zeros((1, 1)), np.eye(1)]],
        ids=["hermitian", "not-hermitian", "zero-and-one"],
    )
    def test_dimension_one_is_irreducible(self, generators):
        # Burnside's theorem holds at n = 1: the unital algebra is C = M_1.
        report = pl.is_irreducible(generators)
        assert report.irreducible and report.algebra_dimension == 1
        assert report.witness is None
        closure = pl.algebra_closure(generators)
        assert closure.saturated and closure.dimension == 1
        assert pl.invariant_subspace_witness(generators) is None

    @pytest.mark.parametrize(
        "entry",
        [pl.is_irreducible, pl.algebra_closure, pl.invariant_subspace_witness],
        ids=lambda fn: fn.__name__,
    )
    @pytest.mark.parametrize(
        "generators", [[np.zeros((0, 0))], [np.zeros((0, 0)), np.eye(2)]], ids=["alone", "first"]
    )
    def test_empty_matrices_rejected(self, entry, generators):
        with pytest.raises(pl.DimensionMismatchError, match=r"at least 1 x 1"):
            entry(generators)

    def test_any_single_maximal_context_is_reducible(self):
        rng = np.random.default_rng(79)
        for dim in (2, 3, 4):
            ctx = random_rank1_context(rng, dim)
            report = pl.is_irreducible([p.matrix for p in ctx.members])
            assert not report.irreducible
            assert report.witness is not None


class TestWitnessSearch:
    def test_single_x_projector_returns_its_range(self, pauli):
        p1x = pauli.context_named("x").members[0]
        witness = pl.invariant_subspace_witness([p1x.matrix])
        assert witness is not None
        assert witness.equals(span([1, 1]))

    def test_saturated_generators_have_no_witness(self, pauli):
        assert pl.invariant_subspace_witness(pauli_projector_matrices(pauli)) is None

    def test_witness_is_invariant_under_every_generator(self, pauli):
        generators = diagonal_pair(pauli)
        witness = pl.invariant_subspace_witness(generators)
        for g in generators:
            assert pl.is_invariant(witness, g)

    def test_deterministic(self, pauli):
        first = pl.invariant_subspace_witness(diagonal_pair(pauli))
        second = pl.invariant_subspace_witness(diagonal_pair(pauli))
        assert np.array_equal(first.basis, second.basis)

    def test_is_the_witness_of_is_irreducible(self, pauli):
        sets = TestSpinCertificate().corpus(pauli) + TestNonSelfAdjoint().corpus()
        for scale in TestSpinCertificate.SCALES:
            sets += TestSpinCertificate.scaled_corpus(scale)
        witnesses = 0
        for generators in sets:
            want = pl.is_irreducible(generators).witness
            got = pl.invariant_subspace_witness(generators)
            assert (got is None) == (want is None)
            if want is not None:
                witnesses += 1
                assert got.basis.tobytes() == want.basis.tobytes()
        assert witnesses > 0


class TestRouteAgreement:
    def corpus(self, pauli):
        rng = np.random.default_rng(83)
        mats = pauli_projector_matrices(pauli)
        sets = [
            mats,
            diagonal_pair(pauli),
            [I2],
            [I2, ZERO2],
            [pauli.context_named("x").members[0].matrix],
            [pauli.context_named("y").members[0].matrix],
        ]
        for dim in (2, 3, 4):
            ctx = random_rank1_context(rng, dim)
            sets.append([p.matrix for p in ctx.members])
        for dim in (3, 4):
            a = random_rank1_context(rng, dim)
            b = random_rank1_context(rng, dim)
            sets.append([p.matrix for p in a.members + b.members])
        return sets

    def test_witness_found_iff_reducible(self, pauli):
        for generators in self.corpus(pauli):
            dim = generators[0].shape[0]
            closure = pl.algebra_closure(generators)
            assert closure.dimension == oracle_closure_dimension(generators)
            witness = pl.invariant_subspace_witness(generators)
            reducible = closure.dimension < dim * dim
            assert (witness is not None) == reducible
            assert (oracle_witness_search(generators) is not None) == reducible
            if witness is not None:
                assert 0 < witness.dim < dim
                assert all(pl.is_invariant(witness, g) for g in generators)


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def rank1_projectors(basis):
    return [np.outer(basis[:, i], basis[:, i].conj()) for i in range(basis.shape[1])]


def planted_blocks(rng, sizes):
    """Two rank-1 contexts, each block-diagonal over ``sizes``, turned by a
    random unitary: irreducible on each block, so reducible exactly when
    there are two or more blocks."""
    dim = sum(sizes)
    turn = haar_unitary(rng, dim)
    generators = []
    for _ in range(2):
        basis = np.zeros((dim, dim), dtype=complex)
        start = 0
        for size in sizes:
            basis[start : start + size, start : start + size] = haar_unitary(rng, size)
            start += size
        generators += rank1_projectors(turn @ basis)
    return generators


def assert_is_witness(witness, generators):
    dim = generators[0].shape[0]
    assert witness is not None
    assert 0 < witness.dim < dim
    assert all(pl.is_invariant(witness, g) for g in generators)


class TestCommutantRoute:
    """Self-adjoint sets the commutant route used to decide, against the
    pairwise closure and the eigenvector search (n <= 6)."""

    def corpus(self, pauli):
        rng = np.random.default_rng(89)
        sets = [pauli_projector_matrices(pauli), [I2, ZERO2], diagonal_pair(pauli)]
        for dim in range(2, 5):
            a = random_rank1_context(rng, dim)
            b = random_rank1_context(rng, dim)
            sets.append([p.matrix for p in a.members + b.members])
        for sizes in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 2, 2), (2, 2, 2)):
            sets.append(planted_blocks(rng, sizes))
        return sets

    def test_matches_closure_and_search(self, pauli):
        for generators in self.corpus(pauli):
            report = pl.is_irreducible(generators)
            closure = pl.algebra_closure(generators)
            assert report.irreducible == closure.saturated
            assert report.algebra_dimension == closure.dimension
            assert closure.dimension == oracle_closure_dimension(generators)
            searched = pl.invariant_subspace_witness(generators)
            if report.irreducible:
                assert report.witness is None and searched is None
            else:
                assert_is_witness(report.witness, generators)
                assert_is_witness(searched, generators)

    def test_repeated_block_gets_witness_from_both_routes(self):
        # W (G (x) I_2) W^H: the commutant is a copy of M_2 and every
        # eigenvalue of an element of the algebra is doubled, so no subset of
        # the eigenvectors eigh picks spans an invariant subspace, yet the
        # orbit of any one of them is a proper one
        rng = np.random.default_rng(97)
        turn = haar_unitary(rng, 4)
        generators = [
            turn @ np.kron(g, I2) @ turn.conj().T for g in planted_blocks(rng, (2,))
        ]
        report = pl.is_irreducible(generators)
        assert not report.irreducible
        assert report.algebra_dimension == pl.algebra_closure(generators).dimension == 4
        assert oracle_witness_search(generators) is None
        assert_is_witness(pl.invariant_subspace_witness(generators), generators)
        assert_is_witness(report.witness, generators)

    @pytest.mark.parametrize("sizes", [(4, 3), (2, 2, 3), (4, 4), (3, 3, 2)])
    def test_witness_beyond_search_cap(self, sizes):
        # Beyond n = 6, where the eigenvector-subset search used to stop.
        generators = planted_blocks(np.random.default_rng(101), sizes)
        report = pl.is_irreducible(generators)
        assert not report.irreducible
        assert report.algebra_dimension == sum(d * d for d in sizes)
        assert report.algebra_dimension == pl.algebra_closure(generators).dimension
        assert_is_witness(report.witness, generators)
        assert_is_witness(pl.invariant_subspace_witness(generators), generators)

    @pytest.mark.parametrize(
        "blocks", [((2, 2), (1, 3)), ((3, 1), (1, 2), (1, 3))], ids=["n7", "n8"]
    )
    def test_dimension_with_multiplicities(self, blocks):
        # generators (+)_i H_i (x) I_m for blocks (d, m): the algebra is
        # (+)_i M_d (x) I_m, of dimension sum d^2, whatever the multiplicities
        rng = np.random.default_rng(107)
        dim = sum(d * m for d, m in blocks)
        turn = haar_unitary(rng, dim)
        generators = []
        for _ in range(2):
            g = np.zeros((dim, dim), dtype=complex)
            start = 0
            for d, m in blocks:
                h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                block = slice(start, start + d * m)
                g[block, block] = np.kron(h + h.conj().T, np.eye(m))
                start += d * m
            g = turn @ g @ turn.conj().T
            generators.append((g + g.conj().T) / 2)
        report = pl.is_irreducible(generators)
        expected = sum(d * d for d, _ in blocks)
        assert report.algebra_dimension == pl.algebra_closure(generators).dimension == expected
        assert_is_witness(report.witness, generators)
        assert_is_witness(pl.invariant_subspace_witness(generators), generators)

    def test_irreducible_at_dimension_eight(self):
        rng = np.random.default_rng(103)
        a = random_rank1_context(rng, 8)
        b = random_rank1_context(rng, 8)
        generators = [p.matrix for p in a.members + b.members]
        report = pl.is_irreducible(generators)
        assert report.irreducible and report.algebra_dimension == 64
        assert report.witness is None

    def test_witness_rule_reaches_off_diagonal_units(self, pauli):
        # The algebra is span{x[0], x[1]}; the fixed matrix projects onto it
        # with the larger weight on x[0], whose range is the first orbit
        x_context = [p.matrix for p in pauli.context_named("x").members]
        report = pl.is_irreducible(x_context)
        assert report.witness.equals(span([1, 1]))

    def test_upper_triangular_pair_uses_closure(self):
        # {E11, E12} has a trivial commutant yet leaves the first coordinate
        # line invariant: the commutant test alone would call it irreducible
        e11 = np.array([[1, 0], [0, 0]], dtype=complex)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        report = pl.is_irreducible([e11, e12])
        assert not report.irreducible
        assert report.algebra_dimension == 3
        assert report.witness.equals(span([1, 0]))


def block_triangular(rng, sizes, count=3):
    """``count`` random complex matrices, block upper-triangular over
    ``sizes`` and turned by one Haar unitary: they generate every block
    upper-triangular matrix, of dimension sum_(i <= j) d_i d_j, and the
    leading blocks are their invariant subspaces."""
    dim = sum(sizes)
    turn = haar_unitary(rng, dim)
    generators = []
    for _ in range(count):
        g = np.zeros((dim, dim), dtype=complex)
        start = 0
        for size in sizes:
            rest = dim - start
            g[start : start + size, start:] = rng.normal(size=(size, rest)) + 1j * rng.normal(
                size=(size, rest)
            )
            start += size
        generators.append(turn @ g @ turn.conj().T)
    return generators


def triangular_dimension(sizes):
    return sum(d * e for i, d in enumerate(sizes) for e in sizes[i:])


class TestNonSelfAdjoint:
    """Generators that are not self-adjoint are decided by the closure."""

    SMALL = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (3, 3), (2, 2, 2), (1, 4)]

    def corpus(self):
        rng = np.random.default_rng(2011)
        sets = [block_triangular(rng, sizes) for sizes in self.SMALL]
        for dim in (2, 3, 5, 6):
            sets.append([rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))])
            sets.append(
                [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]
            )
        sets.append([np.diag(np.ones(3), 1)])  # one nilpotent Jordan block of C^4
        return sets

    def test_closure_matches_the_pairwise_oracle(self):
        for generators in self.corpus():
            assert pl.algebra_closure(generators).dimension == oracle_closure_dimension(
                generators
            )

    @pytest.mark.parametrize(
        "sizes", [(4, 4), (3, 5), (2, 2, 2, 2), (6, 6), (4, 4, 4), (5, 4, 3), (1, 11)]
    )
    def test_block_triangular_gets_witness_at_any_size(self, sizes):
        generators = block_triangular(np.random.default_rng([2027, *sizes]), sizes)
        report = pl.is_irreducible(generators)
        assert not report.irreducible
        assert report.algebra_dimension == triangular_dimension(sizes)
        assert_is_witness(report.witness, generators)
        witness = pl.invariant_subspace_witness(generators)
        assert_is_witness(witness, generators)
        assert witness.basis.tobytes() == report.witness.basis.tobytes()

    @pytest.mark.parametrize("dim", [8, 12])
    def test_random_pairs_are_irreducible(self, dim):
        rng = np.random.default_rng(2039 + dim)
        generators = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2)]
        report = pl.is_irreducible(generators)
        assert report.irreducible and report.algebra_dimension == dim * dim
        assert report.witness is None

    def test_every_reducible_set_gets_a_witness(self):
        for i, generators in enumerate(self.corpus()):
            dim = generators[0].shape[0]
            report = pl.is_irreducible(generators)
            if i < len(self.SMALL):
                assert report.algebra_dimension == triangular_dimension(self.SMALL[i])
            if report.algebra_dimension == dim * dim:
                assert report.irreducible and report.witness is None
            else:
                assert not report.irreducible
                assert_is_witness(report.witness, generators)

    def test_closure_chunks_give_the_same_dimension(self, monkeypatch):
        # One direction's images per chunk, and the spin still closes.
        generators = block_triangular(np.random.default_rng(2053), (2, 3))
        want = pl.algebra_closure(generators)
        monkeypatch.setattr(pl.algebra, "_CHUNK_ENTRIES", 1)
        got = pl.algebra_closure(generators)
        assert got.dimension == want.dimension == triangular_dimension((2, 3))


def test_real_generators_are_embedded_as_complex():
    generators = [np.array([[1, 0], [0, 0]]), 0.5 * np.array([[1, 1], [1, 1]])]
    closure = pl.algebra_closure(generators)
    assert all(m.dtype == np.complex128 for m in closure.basis)
    assert closure.dimension == 4 and closure.saturated


# The commutant route, which decided every self-adjoint set the spin
# certificate could not, kept as the oracle for n <= 10 (O(n^6) time, O(n^4)
# memory). By von Neumann's bicommutant theorem the algebra is the commutant
# of the commutant {X : GX = XG for all G}, the joint null space of the maps
# kron(G, I) - kron(I, G^T), taken from the R factor of their QR.


def oracle_commutator_maps(mats):
    eye = np.eye(mats[0].shape[0])
    return np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in mats])


def oracle_commutant(mats, tol):
    n = mats[0].shape[0]
    r = np.linalg.qr(oracle_commutator_maps(mats), mode="r")
    return np.array(pl.linalg.kernel_basis(r, tol)).reshape(-1, n, n)


def oracle_bicommutant_dimension(commutant, tol):
    # With X_k an orthonormal basis of the *-algebra B, Y -> sum_k X_k Y X_k^H
    # has range exactly B', and its nonzero eigenvalues lie between 1/n and n.
    n = commutant.shape[1]
    phi = np.tensordot(commutant, commutant.conj(), axes=(0, 0)).transpose(0, 2, 1, 3)
    return pl.linalg.numerical_rank(phi.reshape(n * n, n * n), tol)


def oracle_hermitian_units(n):
    """E_11, ..., E_nn, then E_jk + E_kj and i(E_jk - E_kj) for j < k."""
    for j in range(n):
        unit = np.zeros((n, n), dtype=complex)
        unit[j, j] = 1.0
        yield unit
    for j in range(n):
        for k in range(j + 1, n):
            for phase in (1.0, 1j):
                unit = np.zeros((n, n), dtype=complex)
                unit[j, k] = phase
                unit[k, j] = np.conj(phase)
                yield unit


def oracle_commutant_witness(commutant, mats, tol):
    # The eigenspace above the widest gap of the commutant projection of the
    # first Hermitian unit whose projection is not scalar and whose eigenspace
    # is invariant under every generator.
    n = commutant.shape[1]
    flat = commutant.reshape(len(commutant), n * n)
    for unit in oracle_hermitian_units(n):
        c = ((flat.conj() @ unit.reshape(-1)) @ flat).reshape(n, n)
        values, vectors = np.linalg.eigh((c + c.conj().T) / 2)
        gaps = np.diff(values)
        cut = int(np.argmax(gaps))
        if gaps[cut] <= tol.eps_subspace * max(1.0, float(np.max(np.abs(values)))):
            continue
        witness = Subspace(n, vectors[:, cut + 1 :])
        if all(pl.is_invariant(witness, m, tol) for m in mats):
            return witness
    return None


def oracle_commutant_report(generators, tol=None):
    tol = pl.tolerance.resolve(tol)
    mats = oracle_coerce(generators)
    n = mats[0].shape[0]
    commutant = oracle_commutant(mats, tol)
    if len(commutant) == 1:
        return pl.IrreducibilityReport(irreducible=True, algebra_dimension=n * n, witness=None)
    return pl.IrreducibilityReport(
        irreducible=False,
        algebra_dimension=oracle_bicommutant_dimension(commutant, tol),
        witness=oracle_commutant_witness(commutant, mats, tol),
    )


def assert_agrees_with_the_commutant(generators, got, want):
    assert got.irreducible == want.irreducible
    assert got.algebra_dimension == want.algebra_dimension
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        assert_is_witness(got.witness, generators)


# The closure and the witness search before the closure spun the identity:
# all pairwise products of the basis, orthonormalized until the dimension
# stops growing (O(n^8), so n <= 6), and sums of eigenvalue clusters, then
# subsets of eigenvectors, of 1*G_1 + 2*G_2 + ... tried in a fixed order.
def oracle_closure_dimension(generators, tol=None):
    mats = oracle_coerce(generators)
    n = mats[0].shape[0]
    basis = pl.orthonormalize([np.eye(n).reshape(-1)] + [m.reshape(-1) for m in mats], tol)
    while True:
        square = [v.reshape(n, n) for v in basis]
        products = [(a @ b).reshape(-1) for a in square for b in square]
        grown = pl.orthonormalize(basis + products, tol)
        if len(grown) == len(basis):
            return len(basis)
        basis = grown


def oracle_witness_search(generators, tol=None):
    tol = pl.tolerance.resolve(tol)
    mats = oracle_coerce(generators)
    n = mats[0].shape[0]
    combo = sum((k + 1) * m for k, m in enumerate(mats))
    if max_abs(combo - combo.conj().T) <= tol.eps_entry:
        values, vectors = np.linalg.eigh(combo)
        values = values.astype(complex)
    else:
        values, vectors = np.linalg.eig(combo)
    order = np.lexsort((-values.imag, -values.real))
    values, vectors = values[order], vectors[:, order]
    scale = max(1.0, float(np.max(np.abs(values))))
    clusters = []
    for idx, lam in enumerate(values):
        if clusters and abs(lam - values[clusters[-1][0]]) <= tol.eps_subspace * scale:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    candidates = [
        [i for c in range(len(clusters)) if mask >> c & 1 for i in clusters[c]]
        for mask in range(1, (1 << len(clusters)) - 1)
    ]
    if len(clusters) < n:
        candidates += [[i for i in range(n) if mask >> i & 1] for mask in range(1, (1 << n) - 1)]
    for indices in candidates:
        sub = span(*(vectors[:, i] for i in indices))
        if 0 < sub.dim < n and all(pl.is_invariant(sub, m, tol) for m in mats):
            return sub
    return None


def oracle_coerce(generators):
    mats = []
    for g in generators:
        arr = pl.linalg.as_complex_matrix(g.matrix if isinstance(g, pl.Projector) else g)
        if arr.shape[0] != arr.shape[1]:
            raise pl.DimensionMismatchError(f"generators must be square, got {arr.shape}")
        mats.append(arr)
    if not mats:
        raise ValueError("need at least one generator")
    for arr in mats[1:]:
        if arr.shape[0] != mats[0].shape[0]:
            raise pl.DimensionMismatchError(
                f"mixed generator dimensions: {mats[0].shape[0]} and {arr.shape[0]}"
            )
    return mats


def oracle_self_adjoint(mats, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        return not any(max_abs(m - m.conj().T) > tol.eps_entry for m in mats)


def oracle_skew_norm(stack):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(stack - stack.conj().transpose(0, 2, 1)))


def self_adjoint(stack, tol):
    largest, _ = pl.algebra._skew_residuals(stack)
    return not (largest > tol.eps_entry).any()


def signed_zero_stack(rng, k, n):
    """Complex entries drawn from 0.0, -0.0, +-1 and +-0.5 in both parts."""
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
    stack = np.empty((k, n, n), dtype=complex)
    stack.real = rng.choice(values, size=(k, n, n))
    stack.imag = rng.choice(values, size=(k, n, n))
    return stack


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


class TestBatchedCommutant:
    def test_coerced_stack_equals_the_per_generator_copies(self, pauli):
        rng = np.random.default_rng(1920)
        for generators in (
            [entry.projector for entry in pauli.registry],
            [np.array([[1, 0], [0, 0]]), [[0.5, 0.5], [0.5, 0.5]]],
            list(signed_zero_stack(rng, 4, 3)),
        ):
            got = pl.algebra._coerce_generators(generators)
            want = np.array(oracle_coerce(generators))
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "generators",
        [
            [],
            [np.eye(2), np.eye(3)],
            [np.eye(3), np.ones((2, 3))],
            [np.ones((2, 3))],
            [np.eye(2), [1.0, 0.0]],
            [np.eye(2), np.ones((2, 2, 2))],
            [np.eye(2), [[1.0, 0.0], [0.0]]],
            [np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]],
            [[[np.inf, 0.0], [0.0, 1.0]], np.eye(3)],
            [np.eye(2), [["a", "b"], ["c", "d"]]],
            [5.0],
        ],
    )
    def test_bad_generators_fail_as_before(self, generators):
        got = _outcome(pl.algebra._coerce_generators, generators)
        want = _outcome(oracle_coerce, generators)
        assert isinstance(got, tuple) and got == want

    def test_screen_routes_as_the_per_generator_max(self):
        rng = np.random.default_rng(1930)
        tol = pl.TolerancePolicy()
        eps = tol.eps_entry
        hermitian = [rank1_projectors(haar_unitary(rng, 3))[0] for _ in range(3)]
        cases = [hermitian, [np.eye(2)], [np.zeros((1, 1))]]
        for scale in (1 - 1e-9, 1.0, 1 + 1e-9, 1e3):
            for where in range(3):
                mats = [m.copy() for m in hermitian]
                mats[where][0, 2] += scale * eps
                cases.append(mats)
                skew = [m.copy() for m in hermitian]
                skew[where][1, 0] += 1j * scale * eps
                cases.append(skew)
        big = np.zeros((2, 2), dtype=complex)
        big[0, 1], big[1, 0] = 1e308, -1e308  # G - G^H overflows to inf
        wide = np.zeros((2, 2), dtype=complex)
        wide[0, 1] = complex(1.7e308, 1.7e308)  # finite difference, |.| overflows
        huge_hermitian = np.array([[1e308, 1.7e308], [1.7e308, -1e308]], dtype=complex)
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        cases += [
            [np.eye(2), big],
            [wide],
            [huge_hermitian, np.eye(2)],
            [nan],
            [nan, np.eye(2)],
            [nan, big],
            [np.eye(2), nan, wide],
        ]
        routes = []
        for mats in cases:
            stack = np.array(mats, dtype=complex)
            got = self_adjoint(stack, tol)
            assert got == oracle_self_adjoint(mats, tol)
            # The spin reads the norm of the same pass, bit for bit.
            norm = pl.algebra._skew_residuals(stack)[1]
            assert np.array([norm]).tobytes() == np.array([oracle_skew_norm(stack)]).tobytes()
            routes.append(got)
        assert True in routes and False in routes
        assert self_adjoint(np.array([big]), tol) is False
        assert self_adjoint(np.array([nan]), tol) is True


def haar_pair(rng, dim):
    """The rank-1 projectors of two Haar bases of C^dim."""
    return rank1_projectors(haar_unitary(rng, dim)) + rank1_projectors(haar_unitary(rng, dim))


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def turned(rng, blocks):
    """Block-diagonal generators, one block per entry of each tuple in
    ``blocks``, turned by one Haar unitary and made exactly Hermitian."""
    dim = sum(b.shape[0] for b in blocks[0])
    turn = haar_unitary(rng, dim)
    generators = []
    for parts in blocks:
        g = np.zeros((dim, dim), dtype=complex)
        start = 0
        for part in parts:
            g[start : start + len(part), start : start + len(part)] = part
            start += len(part)
        g = turn @ g @ turn.conj().T
        generators.append((g + g.conj().T) / 2)
    return generators


def clifford_contexts(count):
    """The contexts {(I + s)/2, (I - s)/2} of ``count`` anticommuting Hermitian
    involutions s of C^4: every element of their span, and of its closure under
    xy + yx, has two doubled eigenvalues; four or five of them are irreducible."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    gammas = [np.kron(sx, I2), np.kron(sy, I2), np.kron(sz, sx), np.kron(sz, sy), np.kron(sz, sz)]
    return [(np.eye(4) + sign * s) / 2 for s in gammas[:count] for sign in (1, -1)]


class TestSpinCertificate:
    """The spin certificate against the closure it short-cuts, and
    ``is_irreducible`` against the commutant oracle."""

    @staticmethod
    def fallback_route(monkeypatch, generators):
        with monkeypatch.context() as patch:
            patch.setattr(pl.algebra, "_spin_certifies", lambda stack, skew, tol: False)
            return pl.is_irreducible(generators)

    @staticmethod
    def certifies(generators):
        stack = pl.algebra._coerce_generators(generators)
        skew_norm = pl.algebra._skew_residuals(stack)[1]
        return pl.algebra._spin_certifies(stack, skew_norm, pl.TolerancePolicy())

    def corpus(self, pauli):
        rng = np.random.default_rng(1941)
        sets = TestRouteAgreement().corpus(pauli) + TestCommutantRoute().corpus(pauli)
        sets += [haar_pair(rng, dim) for dim in range(2, 13)]
        for sizes in ((5,), (4, 3), (2, 2, 3), (4, 4), (3, 3, 2), (1, 6)):
            sets.append(planted_blocks(rng, sizes))
        for copies in (2, 4):
            dim = 3 * copies
            turn = haar_unitary(rng, dim)
            sets.append(
                [turn @ np.kron(g, np.eye(copies)) @ turn.conj().T for g in haar_pair(rng, 3)]
            )
        return sets

    SCALES = [1e-6, 1e6, 1e9, 1e12]

    @staticmethod
    def scaled_corpus(scale):
        rng = np.random.default_rng([1991, int(np.log10(scale)) + 6])
        sets = [planted_blocks(rng, sizes) for sizes in ((5,), (4, 3), (2, 2, 3), (4, 4))]
        sets += [haar_pair(rng, 6)]
        for copies in (2, 4):
            turn = haar_unitary(rng, 3 * copies)
            sets.append(
                [turn @ np.kron(g, np.eye(copies)) @ turn.conj().T for g in haar_pair(rng, 3)]
            )
        return [[scale * (g + g.conj().T) / 2 for g in generators] for generators in sets]

    @staticmethod
    def just_inside_corpus(block_diagonal):
        # Pieces whose generators are 0.9 eps_entry from Hermitian. A
        # block-diagonal anti-Hermitian part keeps them reducible, with U^perp
        # no longer invariant; a full one couples the pieces.
        rng = np.random.default_rng([2003, int(block_diagonal)])
        tol = pl.TolerancePolicy()
        sets = []
        for sizes in ((4, 3), (2, 2, 3), (3, 3)):
            dim = sum(sizes)
            for _ in range(5):
                turn = haar_unitary(rng, dim)
                generators = []
                for _ in range(3):
                    g = np.zeros((dim, dim), dtype=complex)
                    mask = np.zeros((dim, dim), dtype=bool)
                    start = 0
                    for size in sizes:
                        g[start : start + size, start : start + size] = random_hermitian(rng, size)
                        mask[start : start + size, start : start + size] = True
                        start += size
                    skew = 1j * random_hermitian(rng, dim)
                    if block_diagonal:
                        skew[~mask] = 0
                    skew = turn @ skew @ turn.conj().T
                    g = turn @ g @ turn.conj().T
                    g = (g + g.conj().T) / 2
                    generators.append(g + 0.45 * tol.eps_entry * skew / np.abs(skew).max())
                sets.append(generators)
        return sets

    def assert_same_report(self, monkeypatch, generators):
        got = pl.is_irreducible(generators)
        want = self.fallback_route(monkeypatch, generators)
        assert got.irreducible == want.irreducible
        assert got.algebra_dimension == want.algebra_dimension
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness.basis.tobytes() == want.witness.basis.tobytes()
        return got

    def test_same_reports_as_the_commutant_route(self, pauli):
        # The verdict, the dimension and whether a witness exists, as the
        # commutant decided them; the scaled sets of 1e9 and 1e12 get a
        # witness from both, since is_invariant's tolerance follows max|A|.
        sets = self.corpus(pauli) + [clifford_contexts(count) for count in (3, 4, 5)]
        for scale in self.SCALES:
            sets += self.scaled_corpus(scale)
        sets += self.just_inside_corpus(True) + self.just_inside_corpus(False)
        for generators in sets:
            if pl.algebra._coerce_generators(generators).shape[1] <= 10:
                want = oracle_commutant_report(generators)
                assert_agrees_with_the_commutant(generators, pl.is_irreducible(generators), want)

    def test_closure_matches_the_commutant_route(self, pauli):
        for generators in self.corpus(pauli):
            n = pl.algebra._coerce_generators(generators).shape[1]
            if n <= 10:
                want = oracle_commutant_report(generators).algebra_dimension
                assert pl.algebra_closure(generators).dimension == want

    def test_certifies_exactly_the_irreducible_sets(self, monkeypatch, pauli):
        for generators in self.corpus(pauli):
            report = self.fallback_route(monkeypatch, generators)
            assert self.certifies(generators) == report.irreducible
        # Certified and fallen through: 3 and 8 in one corpus, 4 and 9 in the other.
        for corpus, certified in (
            (TestRouteAgreement().corpus(pauli), 3),
            (TestCommutantRoute().corpus(pauli), 4),
        ):
            assert sum(self.certifies(g) for g in corpus) == certified

    def test_spin_factors_fall_through(self, monkeypatch):
        # No element built from a spin factor has a simple eigenvalue, so the
        # closure decides: reducible with three involutions, not with four.
        for count, irreducible in ((3, False), (4, True), (5, True)):
            generators = clifford_contexts(count)
            assert not self.certifies(generators)
            report = self.assert_same_report(monkeypatch, generators)
            assert report.irreducible == irreducible

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0])
    @pytest.mark.parametrize("conjugate", [False, True], ids=["H", "conj(H)"])
    def test_never_certifies_near_equivalent_pieces(self, delta, conjugate):
        # diag(H, H + delta E), or diag(H, conj(H) + delta E): the second
        # piece is inequivalent to the first, yet the element's spectrum on it
        # is that of the first, so the picked eigenvalue is at most a split
        # of order delta away from its partner.
        rng = np.random.default_rng([1951, int(conjugate), int(delta * 1e12)])
        for _ in range(20):
            parts = []
            for _ in range(2):
                h = random_hermitian(rng, 3)
                second = h.conj() if conjugate else h
                parts.append((h, second + delta * random_hermitian(rng, 3)))
            assert not self.certifies(turned(rng, parts))

    def test_same_reports_at_the_tolerance_edge(self, monkeypatch):
        # Two pieces coupled by eps: irreducible, with the spin's and the
        # closure's smallest singular values near their rank cutoffs.
        rng = np.random.default_rng(1961)
        for eps in np.logspace(-12, -6, 25):
            for _ in range(4):
                pieces = [(random_hermitian(rng, 3), random_hermitian(rng, 3)) for _ in range(2)]
                generators = []
                for g in turned(rng, pieces):
                    coupling = random_hermitian(rng, 6)
                    coupling[:3, :3] = coupling[3:, 3:] = 0
                    generators.append(g + eps * coupling)
                report = self.assert_same_report(monkeypatch, generators)
                # Couplings this weak leave the spin singular values within
                # its margin above the cutoff, so the closure decides them.
                if eps <= 1e-8:
                    assert not self.certifies(generators)
                # From 5.6e-12 to 3.2e-10 the closure keeps singular values
                # the commutant dropped, so it may call irreducible what the
                # commutant called reducible; never the other way round.
                want = oracle_commutant_report(generators)
                band = 5e-12 < eps < 4e-10
                if not (band and report.irreducible and not want.irreducible):
                    assert_agrees_with_the_commutant(generators, report, want)

    def test_certified_sets_build_no_closure(self, monkeypatch, pauli, ks18):
        def forbidden(generators, tol=None):
            raise AssertionError("the closure ran on a certified set")

        monkeypatch.setattr(pl.algebra, "algebra_closure", forbidden)
        rng = np.random.default_rng(1971)
        sets = [haar_pair(rng, 5) for _ in range(8)] + [haar_pair(rng, 64)]
        sets += [pauli_projector_matrices(pauli), [e.projector for e in ks18.registry]]
        for generators in sets:
            n = pl.algebra._coerce_generators(generators).shape[1]
            report = pl.is_irreducible(generators)
            assert report.irreducible and report.algebra_dimension == n * n
            assert report.witness is None

    def test_element_is_the_documented_combination(self):
        # c, d and e are the fractional parts of j * golden ratio, j = 1 .. 3k.
        rng = np.random.default_rng(1981)
        generators = np.array(haar_pair(rng, 4) + [random_hermitian(rng, 4)])
        k = len(generators)
        golden = (1 + np.sqrt(5)) / 2
        c, d, e = (np.arange(1, 3 * k + 1) * golden % 1).reshape(3, k)
        x = sum(w * g for w, g in zip(d, generators))
        y = sum(w * g for w, g in zip(e, generators))
        want = sum(w * g for w, g in zip(c, generators)) + x @ y + y @ x
        got = pl.algebra._spin_element(generators)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("scale", SCALES)
    def test_same_reports_on_scaled_generators(self, monkeypatch, scale):
        # The rank cutoff follows the generators' norm, so the roundoff left
        # after projecting out the directions so far is never kept as one.
        for generators in self.scaled_corpus(scale):
            report = self.assert_same_report(monkeypatch, generators)
            assert report.irreducible or not self.certifies(generators)

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_scaled_reducible_sets_get_a_witness(self, scale):
        # is_invariant judges the leak against eps_subspace * max(max|A|, 1),
        # so a reducible set keeps its witness however far it is scaled.
        reducible = 0
        for generators in self.scaled_corpus(scale):
            report = pl.is_irreducible(generators)
            if not report.irreducible:
                reducible += 1
                assert_is_witness(report.witness, generators)
        assert reducible == 5

    @pytest.mark.parametrize("block_diagonal", [True, False], ids=["reducible", "coupled"])
    def test_same_reports_just_inside_self_adjoint(self, monkeypatch, block_diagonal):
        tol = pl.TolerancePolicy()
        for generators in self.just_inside_corpus(block_diagonal):
            assert self_adjoint(pl.algebra._coerce_generators(generators), tol)
            report = self.assert_same_report(monkeypatch, generators)
            if block_diagonal:
                assert not report.irreducible
            assert report.irreducible or not self.certifies(generators)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_generators_whose_squared_entries_overflow(scale):
    # Their Frobenius norms overflow when taken plainly. The spin's norm
    # overflows, so it certifies nothing and the closure decides the pair.
    rng = np.random.default_rng(2960)
    report = pl.is_irreducible([scale * random_hermitian(rng, 3) for _ in range(2)])
    assert report.irreducible and report.algebra_dimension == 9 and report.witness is None
    diagonal = [scale * np.diag([1.0, 0.0, 0.0]), scale * np.diag([0.0, 1.0, 1.0])]
    assert pl.algebra_closure(diagonal).dimension == 2

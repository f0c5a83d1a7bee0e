"""Generated operator algebras and the irreducibility decision.

Burnside's theorem: the unital algebra generated by a set of operators on
C^n is the full n^2-dimensional algebra of linear maps exactly when the
generators admit no nontrivial common invariant subspace (over the complex
field).

The algebra is built by span closure: it is the smallest subspace of M_n
that holds the identity and is closed under left multiplication by each
generator, so spinning the identity under the generators builds it in
O(k n^6) time at worst. Its dimension is the algebra dimension. When it is
proper, the orbit of a fixed eigenvector of an element of it is a common
invariant subspace, which gives a witness at every n.

For self-adjoint generators (every generator the CLI passes is a projector)
irreducibility is first certified by spinning one vector (Norton's test from
the MeatAxe): an eigenvector v of a simple eigenvalue of a fixed Hermitian
element of the algebra lies in every invariant subspace or is orthogonal to
it, so if closing span{v} under the generators gives all of C^n, no proper
invariant subspace exists. This costs O(k n^3) and builds nothing in M_n.
Every set the spin cannot certify (no well-separated eigenvalue, a proper
spin, a failed margin, or generators that are not self-adjoint) is decided
by the closure. Inputs are treated as complex: real matrices are embedded
into C^(n x n), since the criterion is specific to the complex field.

A collection of contexts is first split along the connected components of
its meet (``collection_irreducibility``): the algebra is the direct sum of
one algebra per component, and a component whose atoms are all generator
rays is all of L(S_c) with no matrix built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .lattice import LatticeFamily
from .projectors import _UNIT_ROUNDOFF, ContextCollection, Projector, _skew_residuals, is_invariant
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve

# Image entries, in complex128 (16 MB), that ``algebra_closure`` holds at
# once, or the images of one direction if they are more; the QR and SVD of a
# chunk copy it a few times, so the peak is a few times this.
_CHUNK_ENTRIES = 1 << 20
# The spin certificate's two margins: the leak it tolerates sits this far
# below eps_rank, and the singular values it keeps this far above the cutoff.
_SPIN_MARGIN = 1000.0
_GOLDEN_RATIO = (1 + 5**0.5) / 2


@dataclass(frozen=True)
class AlgebraClosure:
    """Orthonormal basis (trace inner product) of a generated unital algebra."""

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    dimension: int
    # Read by no command; bench/tracing.py counts it.
    generations: int
    saturated: bool


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    algebra_dimension: int
    witness: Subspace | None


def _coerce_generators(generators) -> np.ndarray:
    """The generators as one finite ``(k, n, n)`` complex128 stack, each
    coerced on its own, so that an error names the first bad one."""
    mats = []
    for g in generators:
        arr = linalg.as_complex_matrix(g.matrix if isinstance(g, Projector) else g)
        if arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"generators must be square, got {arr.shape}")
        if not arr.size:
            raise DimensionMismatchError("generators must be at least 1 x 1, got (0, 0)")
        mats.append(arr)
    if not mats:
        raise ValueError("need at least one generator")
    linalg._common_dim((arr.shape[0] for arr in mats), "mixed generator dimensions:")
    return np.array(mats)


def algebra_closure(
    generators, tol: TolerancePolicy | None = None
) -> AlgebraClosure:
    """Span closure of the unital algebra generated by ``generators``.

    The algebra is the smallest subspace of matrices that holds the identity
    and is closed under X -> G X for every generator G, so the identity is
    spun: each step multiplies the newest directions by every generator in
    one batched product, a chunk of at most ``_CHUNK_ENTRIES`` image entries
    at a time, orthogonalizes the images twice against the basis so far and
    keeps their right singular vectors above the rank cutoff
    ``eps_rank * max(g, 1)``, g the largest Frobenius norm of a generator,
    taken of the stack scaled by a power of two (``linalg.power_of_two_scaled``)
    so that it does not overflow. Images with more rows than n^2 are first
    reduced to the R factor of their QR, which has the same singular values
    and right singular vectors.
    The spin stops when a step adds nothing or the basis fills all n^2
    dimensions; ``generations`` counts its steps. The basis is orthonormal
    under the trace inner product and fixed by the input order.
    """
    tol = resolve(tol)
    mats = _coerce_generators(generators)
    k, n, _ = mats.shape
    full = n * n
    # A norm squares the entries, which overflows from about 1e154, so the
    # norms are taken of the stack scaled by a power of two, then scaled back.
    scaled, exponent = linalg.power_of_two_scaled(mats.reshape(1, -1).view(np.float64))
    norms = np.linalg.norm(scaled.view(np.complex128).reshape(mats.shape), axis=(1, 2))
    with np.errstate(over="ignore"):
        largest = float(np.ldexp(norms.max(), exponent.item()))
    cutoff = tol.eps_rank * max(largest, 1.0)
    per_chunk = max(1, _CHUNK_ENTRIES // (k * full))
    basis = frontier = np.eye(n, dtype=complex).reshape(1, full) / np.sqrt(n)
    generations = 0
    while len(frontier) and len(basis) < full:
        generations += 1
        grown = []
        for start in range(0, len(frontier), per_chunk):
            chunk = frontier[start : start + per_chunk].reshape(-1, n, n)
            images = (mats[:, None] @ chunk).reshape(-1, full)
            for _ in range(2):
                images -= (images @ basis.conj().T) @ basis
            if len(images) > full:
                images = np.linalg.qr(images, mode="r")
            _, s, vh = np.linalg.svd(images, full_matrices=False)
            rank = min(int(np.count_nonzero(s > cutoff)), full - len(basis))
            basis = np.vstack([basis, vh[:rank]])
            grown.append(vh[:rank])
        frontier = np.vstack(grown)
    matrices = basis.reshape(len(basis), n, n)
    matrices.setflags(write=False)
    return AlgebraClosure(
        ambient_dim=n,
        basis=tuple(matrices),
        dimension=len(matrices),
        generations=generations,
        saturated=len(matrices) == full,
    )


def _closure_witness(
    closure: AlgebraClosure, mats: np.ndarray, tol: TolerancePolicy
) -> Subspace | None:
    """A proper common invariant subspace of the algebra ``closure`` spans
    from the ``(k, n, n)`` stack ``mats``, or ``None`` when it is all of M_n.

    ``a`` is the trace-inner-product projection onto the algebra of the
    fixed matrix Z whose row-major entries have real parts the fractional
    parts of ``j * golden ratio`` for j = 1 .. n^2 and imaginary parts those
    for j = n^2 + 1 .. 2 n^2; the projection does not depend on the basis.
    The eigenvectors v of ``a`` are taken in descending (real, imaginary)
    order of their eigenvalues, and the witness is the orbit span{B_j v}
    (B_j the basis) of the first that is proper and passes ``is_invariant``
    for every generator: it is the smallest invariant subspace holding v.
    The orbit's rank counts its singular values above
    ``eps_subspace * max(s_1, 1)``, the relative level at which
    ``is_invariant`` judges a leak (there against ``max(max|A|, 1)``, A the
    generator), so a direction the generators reach only at that level
    is not kept. Any eigenvector of ``a`` inside a proper invariant
    subspace has a proper orbit. ``a`` has one in each such subspace;
    ``eig`` returns it when its eigenvalue is simple, and when the
    eigenvalue repeats because a block recurs, every vector of its
    eigenspace lies in a proper invariant subspace. ``None`` for a proper
    algebra would take eigenvalues that collide across inequivalent pieces,
    or roundoff that blurs every such eigenvector.
    """
    n = closure.ambient_dim
    if closure.saturated:
        return None
    basis = np.array(closure.basis)
    flat = basis.reshape(len(basis), n * n)
    parts = np.modf(np.arange(1, 2 * n * n + 1) * _GOLDEN_RATIO)[0].reshape(2, n * n)
    a = ((flat.conj() @ (parts[0] + 1j * parts[1])) @ flat).reshape(n, n)
    values, vectors = np.linalg.eig(a)
    for i in np.lexsort((-values.imag, -values.real)):
        u, s, _ = np.linalg.svd((basis @ vectors[:, i]).T, full_matrices=False)
        rank = int(np.count_nonzero(s > tol.eps_subspace * max(s[0], 1.0)))
        if rank < n:
            witness = Subspace(n, u[:, :rank])
            if all(is_invariant(witness, m, tol) for m in mats):
                return witness
    return None


# No command calls this; it stays for bench/tracing.py, which wraps it.
def invariant_subspace_witness(
    generators, tol: TolerancePolicy | None = None
) -> Subspace | None:
    """A nontrivial common invariant subspace of ``generators``, or ``None``:
    the witness of ``is_irreducible``."""
    return is_irreducible(generators, tol).witness


def _spin_element(stack: np.ndarray) -> np.ndarray:
    """The fixed element ``sum c_i G_i + xy + yx`` of the algebra a
    ``(k, n, n)`` stack generates.

    ``x = sum d_i G_i`` and ``y = sum e_i G_i``; the coefficients ``c``,
    ``d`` and ``e`` are the fractional parts of ``j * golden ratio`` for
    ``j = 1 .. 3k``, in that order, so they depend on the generator count
    alone and no two coincide. The element is Hermitian when the generators
    are.
    """
    k, n, _ = stack.shape
    coefficients = np.modf(np.arange(1, 3 * k + 1) * _GOLDEN_RATIO)[0].reshape(3, k)
    linear, x, y = (coefficients @ stack.reshape(k, n * n)).reshape(3, n, n)
    return linear + x @ y + y @ x


@np.errstate(over="ignore", invalid="ignore")
def _spin_certifies(stack: np.ndarray, skew_norm: float, tol: TolerancePolicy) -> bool:
    """True when spinning one eigenvector proves a self-adjoint ``(k, n, n)``
    stack irreducible; False means only that the spin cannot tell.

    ``v`` is the eigenvector of the Hermitian part of ``_spin_element``
    whose eigenvalue has the widest gap to its nearer neighbour. Were the
    generators reducible, with a proper invariant U, that element would be
    block-diagonal over U and U^perp up to an error ``delta``, so v would lie
    within ``delta / (gap - delta)`` of U or of U^perp; call that piece W. The
    spin closes span{v} under the generators a block at a time: the images of
    the newest directions, orthogonalized twice against the directions so
    far, keep their left singular vectors above the rank cutoff
    ``eps_rank * max(g, 1)``, where g is the Frobenius norm of the whole
    stack. The leak of the directions so far out of W is bounded as it goes:

    * it starts at ``delta / (gap - delta)``, where ``delta`` is ``u * |a|``
      (u the unit roundoff, |a| the largest eigenvalue magnitude) plus the
      Frobenius norm of the element's anti-Hermitian part;
    * each step adds ``((g + 2m)(leak + u) + 2s) / s_min``, where m is the
      Frobenius norm of the images before orthogonalization, s that of the
      generators' anti-Hermitian parts (half ``skew_norm``, the norm of the
      stack's ``G - G^H``), and s_min the smallest kept singular
      value. The g term covers the images of the leak, the m term the
      leak of the directions projected out and the roundoff, and the s term
      the images of U^perp, which the generators keep only up to it.

    A spin that fills C^n with a leak below 1 leaves no proper W, so no
    proper U. Two margins must hold. Every direction the spin feeds back
    into the generators (v and each block but the last) leaks at most
    ``eps_rank / _SPIN_MARGIN``, so what the leak alone maps to lies far
    below the cutoff, and the finished basis leaks at most
    ``1 / _SPIN_MARGIN``. Every kept singular value is at least
    ``_SPIN_MARGIN`` times the cutoff. A failed margin, or a spin that
    closes short of C^n, returns False; so does a norm that overflows.
    """
    n = stack.shape[1]
    a = _spin_element(stack)
    hermitian = (a + a.conj().T) / 2
    growth = float(np.linalg.norm(stack))
    skew = skew_norm / 2
    if not (np.isfinite(hermitian).all() and growth + skew < np.inf):
        return False
    values, vectors = np.linalg.eigh(hermitian)
    padded = np.concatenate(([np.inf], np.diff(values), [np.inf]))
    nearest = np.minimum(padded[:-1], padded[1:])
    pick = int(np.argmax(nearest))
    gap = float(nearest[pick])
    reach = tol.eps_rank / _SPIN_MARGIN
    delta = _UNIT_ROUNDOFF * max(-float(values[0]), float(values[-1]))
    delta += float(np.linalg.norm(a - a.conj().T)) / 2
    if not delta < reach * (gap - delta):
        return False
    leak = delta / (gap - delta)
    cutoff = tol.eps_rank * max(growth, 1.0)
    basis = frontier = vectors[:, pick : pick + 1]
    while basis.shape[1] < n:
        images = (stack @ frontier).transpose(1, 0, 2).reshape(n, -1)
        spread = growth + 2 * float(np.linalg.norm(images))
        for _ in range(2):
            images -= basis @ (basis.conj().T @ images)
        u, s, _ = np.linalg.svd(images, full_matrices=False)
        rank = int(np.count_nonzero(s > cutoff))
        if not 0 < rank <= n - basis.shape[1] or s[rank - 1] < _SPIN_MARGIN * cutoff:
            return False
        leak += (spread * (leak + _UNIT_ROUNDOFF) + 2 * skew) / s[rank - 1]
        frontier = u[:, :rank]
        basis = np.hstack([basis, frontier])
        if not leak <= (reach if basis.shape[1] < n else 1 / _SPIN_MARGIN):
            return False
    return True


def is_irreducible(
    generators, tol: TolerancePolicy | None = None
) -> IrreducibilityReport:
    """Decide irreducibility; attach a common invariant subspace if reducible.

    Irreducible means the generated unital algebra has dimension n^2. When
    every generator is self-adjoint within ``eps_entry``, a set that
    ``_spin_certifies`` is irreducible with ``algebra_dimension`` n^2 and no
    witness, and nothing in M_n is built. Every other set is decided by one
    ``algebra_closure``, which gives the dimension, and the witness is
    ``_closure_witness`` of that closure; its ``is_invariant`` test is
    relative to each generator's largest entry, so a scaled set keeps its
    witness. Every n >= 1 is decided the same way: on C^1 every set is
    irreducible, of dimension 1.
    """
    tol = resolve(tol)
    mats = _coerce_generators(generators)
    n = mats[0].shape[0]
    largest_skew, skew_norm = _skew_residuals(mats)
    if not (largest_skew > tol.eps_entry).any() and _spin_certifies(mats, skew_norm, tol):
        return IrreducibilityReport(irreducible=True, algebra_dimension=n * n, witness=None)
    closure = algebra_closure(mats, tol)
    return IrreducibilityReport(
        irreducible=closure.saturated,
        algebra_dimension=closure.dimension,
        witness=_closure_witness(closure, mats, tol),
    )


def _member_components(collection: ContextCollection, meet: LatticeFamily):
    """The meet's component of every context member, or None where the
    components do not split the collection.

    Returns the component of each member, one list per context (-1 for a
    rank-0 member, which is no atom); d_c, the summed rank of each
    component's members in any one context; and whether the rank-1 theorem
    gives each component its full algebra: all its members are rays, none
    of them merged into an identity at a nonzero distance (the registry's
    ``_merged``): such a member is no generator, yet its atom is in the
    meet's graph. None when two contexts give a component different ranks,
    as when a component holds no atom of the first context; both happen
    only at the tolerance edge.
    """
    merged = collection._merged
    # The last entry counts the members of components with no first-context
    # atom (label -1): none in the first context, so any elsewhere differs.
    count = len(meet._blocks) + 1
    dims, full, where = None, [True] * count, []
    for ci, (ctx, parts) in enumerate(zip(collection.contexts, meet._parts)):
        labels = iter(parts)
        row = [next(labels) if p.rank else -1 for p in ctx.members]
        ranks = [0] * count
        for mi, (p, c) in enumerate(zip(ctx.members, row)):
            if p.rank:
                ranks[c] += p.rank
                full[c] = full[c] and p.rank == 1 and (ci, mi) not in merged
        if dims is not None and ranks != dims:
            return None
        dims = ranks
        where.append(row)
    return where, dims[:-1], full[:-1]


def _component_basis(members, rank: int) -> np.ndarray:
    """An orthonormal ``(n, rank)`` basis of the range of the sum of
    ``members``: the eigenvectors of its ``rank`` largest eigenvalues."""
    return np.linalg.eigh(sum(p.matrix for p in members))[1][:, -rank:]


def collection_irreducibility(
    collection: ContextCollection, meet: LatticeFamily, tol: TolerancePolicy | None = None
) -> IrreducibilityReport:
    """``is_irreducible`` of the registry's projectors, decided one connected
    component of the meet at a time where the components decide it, and by
    ``is_irreducible`` of every generator where they do not.

    ``meet`` is ``intersect_lattices`` of the contexts' families in order.
    Its graph links the atoms (nonzero members' ranges Q) of different
    contexts when ``|Q_a^H Q_b|_F > eps_subspace``. Let c be a component,
    S_c the span of the first context's atoms in c, d_c its dimension and
    E_c the sum of those members, the projector onto S_c.

    Direct sum. Take unlinked atoms as orthogonal. The first context's
    atoms outside c span S_c^perp, so every atom of c, orthogonal to them,
    lies in S_c, and every atom outside c, orthogonal to the first context's
    atoms in c, lies in S_c^perp. The generators are the registry's
    identities, each a member (one that shares an identity lies within
    ``eps_subspace`` of it), and the first context's members are all
    identities. So every generator commutes with every E_c, and E_c, a sum
    of generators, lies in the algebra A. Each word in
    the generators is then block-diagonal over the S_c, with block c the
    word in their compressions to S_c. Hence A is the direct sum of the
    E_c A E_c, the unital algebra A_c generated on S_c by the compressions
    of c's generators, and ``algebra_dimension`` is the sum of dim A_c.
    Rank 1. For rays, ``P_i P_k P_j = <v_i, v_k> <v_k, v_j> v_i v_j^H``,
    so along a path of linked generator rays from i to j the product of
    their projectors is a nonzero multiple of ``v_i v_j^H``. The first
    context's rays in c form a basis of S_c, so a component whose atoms are
    all generator rays has A_c = L(S_c), of dimension d_c^2, with no matrix
    built; C^1 is one such component, of d_c = 1. A member equal to a
    generator has its atom and its links. A member the registry merged into
    an identity at a nonzero distance does not: it is no generator, yet its
    links join the graph, so its component is decided like one of higher
    rank.
    Any other component takes ``is_irreducible`` of its generators'
    compressions ``B^H P B`` (spin, then closure), B from
    ``_component_basis``, whatever d_c; a component that spans C^n needs no
    compression, its generators are all of them, and its witness is the
    answer's.

    The set is irreducible when it has one component whose algebra is
    full. With more, the witness is S_c of the first, from the first
    context's member matrices, whose bytes a ray document and its
    matrix-form twin share.
    Leak bound. Unlinked atoms overlap by at most ``eps_subspace``. For the
    witness E = E_c, the first context's atoms being orthonormal, and a
    generator ``P = Q_b Q_b^H``: if b lies in c, ``|(I - E) P E|_F <= |(I -
    E) Q_b|_F = (sum_a |Q_a^H Q_b|_F^2)^(1/2)`` over the first context's
    atoms a outside c, as those span the range of I - E; if b lies outside
    c, ``|(I - E) P E|_F <= |Q_b^H E|_F``, the same sum over its atoms a in
    c. So a generator leaks at most the root of the squared overlaps of
    its atom with the first context's atoms across the cut, each at most
    ``eps_subspace^2``. The witness must still pass ``is_invariant`` for
    every generator; when it does not (a leak summed from several overlaps
    near ``eps_subspace``) or when ``_member_components`` finds no split,
    the answer is ``is_irreducible`` of every generator.
    """
    tol = resolve(tol)
    n = collection.ambient_dim
    split = _member_components(collection, meet)
    generators = [entry.projector for entry in collection.registry]
    if split is None:
        return is_irreducible(generators, tol)
    where, dims, full = split
    first = collection.contexts[0].members

    def span(c: int) -> np.ndarray:
        return _component_basis([p for p, o in zip(first, where[0]) if o == c], dims[c])

    witness = None
    if len(dims) > 1:
        witness = Subspace(n, span(0))
        if not all(is_invariant(witness, p, tol) for p in generators):
            return is_irreducible(generators, tol)
    # A generator's component is that of its first occurrence.
    homes = [where[ci][mi] for ci, mi in (entry.occurrences[0] for entry in collection.registry)]
    dimension = 0
    for c, d in enumerate(dims):
        if full[c]:
            dimension += d * d
        elif d == n:
            report = is_irreducible(generators, tol)
            dimension, witness = report.algebra_dimension, report.witness
        else:
            b = witness.basis if c == 0 else span(c)
            pieces = [b.conj().T @ p.matrix @ b for p, home in zip(generators, homes) if home == c]
            dimension += is_irreducible(pieces, tol).algebra_dimension
    return IrreducibilityReport(
        irreducible=dimension == n * n, algebra_dimension=dimension, witness=witness
    )

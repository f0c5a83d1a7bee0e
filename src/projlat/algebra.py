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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbientDimOneError, DimensionMismatchError
from .projectors import Projector, is_invariant
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve

# Image entries, in complex128 (16 MB), that ``algebra_closure`` holds at
# once, or the images of one direction if they are more; the QR and SVD of a
# chunk copy it a few times, so the peak is a few times this.
_CHUNK_ENTRIES = 1 << 20
# The spin certificate's two margins: the leak it tolerates sits this far
# below eps_rank, and the singular values it keeps this far above the cutoff.
_SPIN_MARGIN = 1000.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_GOLDEN_RATIO = (1 + 5**0.5) / 2


@dataclass(frozen=True)
class AlgebraClosure:
    """Orthonormal basis (trace inner product) of a generated unital algebra."""

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    dimension: int
    generations: int
    saturated: bool


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    algebra_dimension: int
    witness: Subspace | None


def _coerce_generators(generators) -> np.ndarray:
    """The generators as one finite ``(k, n, n)`` complex128 stack.

    The stack is taken in one call; input it does not fit is coerced one
    generator at a time, which names the first bad one.
    """
    generators = [g.matrix if isinstance(g, Projector) else g for g in generators]
    try:
        stack = np.array(generators, dtype=np.complex128)
    except (TypeError, ValueError):
        stack = None
    if (
        stack is not None
        and stack.ndim == 3
        and stack.shape[1] == stack.shape[2]
        and np.isfinite(stack).all()
    ):
        return stack
    mats = []
    for g in generators:
        arr = linalg.as_complex_matrix(g)
        if arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"generators must be square, got {arr.shape}")
        mats.append(arr)
    if not mats:
        raise ValueError("need at least one generator")
    dim = mats[0].shape[0]
    for arr in mats[1:]:
        if arr.shape[0] != dim:
            raise DimensionMismatchError(
                f"mixed generator dimensions: {dim} and {arr.shape[0]}"
            )
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
    ``eps_rank * max(g, 1)``, g the largest Frobenius norm of a generator.
    Images with more rows than n^2 are first reduced to the R factor of
    their QR, which has the same singular values and right singular vectors.
    The spin stops when a step adds nothing or the basis fills all n^2
    dimensions; ``generations`` counts its steps. The basis is orthonormal
    under the trace inner product and fixed by the input order.
    """
    tol = resolve(tol)
    mats = _coerce_generators(generators)
    k, n, _ = mats.shape
    full = n * n
    cutoff = tol.eps_rank * max(float(np.linalg.norm(mats, axis=(1, 2)).max()), 1.0)
    per_chunk = max(1, _CHUNK_ENTRIES // max(k * full, 1))
    basis = frontier = np.eye(n, dtype=complex).reshape(min(n, 1), full) / np.sqrt(max(n, 1))
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
    ``eps_subspace * max(s_1, 1)``, the level at which ``is_invariant``
    judges a leak, so a direction the generators reach only at that level
    is not kept. Any eigenvector of ``a`` inside a proper invariant
    subspace has a proper orbit. ``a`` has one in each such subspace;
    ``eig`` returns it when its eigenvalue is simple, and when the
    eigenvalue repeats because a block recurs, every vector of its
    eigenspace lies in a proper invariant subspace. ``None`` for a proper
    algebra would take eigenvalues that collide across inequivalent pieces,
    roundoff that blurs every such eigenvector, or generators so large that
    the absolute ``is_invariant`` test fails on every orbit.
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


def invariant_subspace_witness(
    generators, tol: TolerancePolicy | None = None
) -> Subspace | None:
    """A nontrivial common invariant subspace of ``generators``, or ``None``:
    ``_closure_witness`` of ``algebra_closure``.

    ``None`` when they are irreducible, and also for a reducible set none of
    whose orbits passes the absolute ``is_invariant`` tolerance, such as
    generators scaled to 1e9.
    """
    tol = resolve(tol)
    mats = _coerce_generators(generators)
    return _closure_witness(algebra_closure(mats, tol), mats, tol)


def _skew_residuals(stack: np.ndarray) -> tuple[np.ndarray, float]:
    """Each generator's largest entry of ``|G - G^H|`` in a ``(k, n, n)``
    stack, and the Frobenius norm of the whole ``G - G^H`` stack.

    Both come from one pass over one stack-sized array. A generator's
    largest entry is NaN when any is, so NaN is not above any tolerance; a
    difference or a magnitude that overflows is infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.conjugate(stack.transpose(0, 2, 1), order="C")
        np.subtract(stack, skew, out=skew)
        norm = float(np.linalg.norm(skew))
        np.abs(skew, out=skew)
        return skew.real.max(axis=(1, 2), initial=0.0), norm


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
    ``_closure_witness`` of that closure. A reducible report can carry no
    witness: when no orbit passes the absolute ``is_invariant`` tolerance,
    as for generators scaled to 1e9, the witness is ``None``.
    """
    tol = resolve(tol)
    mats = _coerce_generators(generators)
    n = mats[0].shape[0]
    if n == 1:
        raise AmbientDimOneError()
    largest_skew, skew_norm = _skew_residuals(mats)
    if not (largest_skew > tol.eps_entry).any() and _spin_certifies(mats, skew_norm, tol):
        return IrreducibilityReport(irreducible=True, algebra_dimension=n * n, witness=None)
    closure = algebra_closure(mats, tol)
    return IrreducibilityReport(
        irreducible=closure.saturated,
        algebra_dimension=closure.dimension,
        witness=_closure_witness(closure, mats, tol),
    )

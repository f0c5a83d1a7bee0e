"""Dense complex linear algebra primitives.

The coercions that name bad input and the rank rule live here. They
follow one discipline: inputs are coerced to fresh ``complex128`` arrays,
rank decisions use a relative singular-value threshold, and results are
deterministic for a fixed input order. The batched work of projectors,
lattice and algebra calls numpy directly; projectors rank their members
with ``singular_rank``.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .tolerance import TolerancePolicy, resolve


def _coerced(value, ndim: int, what: str) -> np.ndarray:
    """``value`` as a fresh finite complex128 array of ``ndim`` dimensions;
    ``what`` names it in the error."""
    arr = np.array(value, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-D {what}, got {arr.ndim} dimension(s)")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{what} entries must be finite")
    return arr


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (always a fresh copy)."""
    return _coerced(matrix, 2, "matrix")


def as_state_vector(vector) -> np.ndarray:
    """Coerce to a finite 1-D complex128 array (always a fresh copy)."""
    return _coerced(vector, 1, "vector")


def power_of_two_scaled(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the real array ``parts`` scaled by the power of two that
    brings its largest magnitude into [1/2, 1), and the exponents ``e``,
    one per row as a (..., 1) array, with ``parts = ldexp(scaled, e)``.

    Rows run along the last axis; a float64 view of complex entries scales
    their real and imaginary parts alike. The scaling is exact unless it
    takes an entry into the subnormal range. The norm of a scaled row lies
    in [1/2, sqrt(size)), so it neither overflows nor underflows, except
    for a row of zeros, which stays zero with exponent 0.
    """
    exponents = np.frexp(np.abs(parts).max(axis=-1, keepdims=True, initial=0.0))[1]
    return np.ldexp(parts, -exponents), exponents


def _common_dim(dims, what: str) -> int:
    """The one value of the non-empty ``dims``; the first that differs from it
    raises ``DimensionMismatchError(f"{what} {first} and {other}")``."""
    first, *rest = dims
    for other in rest:
        if other != first:
            raise DimensionMismatchError(f"{what} {first} and {other}")
    return first


# No command calls this; it stays for bench/tracing.py, which wraps it.
def orthonormalize(
    vectors: Iterable, tol: TolerancePolicy | None = None
) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vectors``, deterministic in input order.

    Modified Gram-Schmidt with a second reorthogonalization pass. A vector
    whose residual norm after projection is at most ``eps_rank`` times the
    largest input norm is treated as dependent and dropped, so the output
    size equals the numerical rank of the span.
    """
    vecs = [as_state_vector(v) for v in vectors]
    if not vecs:
        return []
    _common_dim((v.shape[0] for v in vecs), "mixed vector dimensions:")
    scale = max(float(np.linalg.norm(v)) for v in vecs)
    if scale == 0.0:
        return []
    cutoff = resolve(tol).eps_rank * scale
    basis: list[np.ndarray] = []
    for w in vecs:
        for _ in range(2):
            for b in basis:
                w -= (b.conj() @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > cutoff:
            basis.append(w / norm)
    return basis


def singular_rank(singular_values, tol: TolerancePolicy | None = None) -> int:
    """Count of singular values above the rank threshold.

    The threshold is ``eps_rank`` times the largest singular value, floored
    at ``eps_rank`` itself so that a matrix consisting of pure roundoff noise
    counts as zero instead of as full rank. A stack of descending rows, as
    ``np.linalg.svd`` returns for a stack of matrices, gives an array of
    counts, one per row.
    """
    s = np.asarray(singular_values, dtype=float)
    counts = np.count_nonzero(s > resolve(tol).eps_rank * np.maximum(s[..., :1], 1.0), axis=-1)
    return int(counts) if s.ndim == 1 else counts


# No command calls this; it stays for bench/tracing.py, which wraps it.
def numerical_rank(matrix, tol: TolerancePolicy | None = None) -> int:
    """Numerical rank by singular-value thresholding; the zero matrix has rank 0."""
    return singular_rank(np.linalg.svd(as_complex_matrix(matrix), compute_uv=False), tol)


# No command calls this; it stays for bench/tracing.py, which wraps it.
def kernel_basis(matrix, tol: TolerancePolicy | None = None) -> list[np.ndarray]:
    """Orthonormal kernel basis of a (possibly rectangular) matrix via SVD.

    The basis spans exactly the vectors ``v`` with ``|M v|`` below the rank
    threshold relative to the largest singular value; its size is the
    column count minus the numerical rank.
    """
    arr = as_complex_matrix(matrix)
    _, s, vh = np.linalg.svd(arr)
    rank = singular_rank(s, tol)
    return [vh[i].conj() for i in range(rank, arr.shape[1])]


# No command calls this; it stays for bench/tracing.py, which wraps it.
def range_basis(matrix, tol: TolerancePolicy | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the column space via SVD."""
    arr = as_complex_matrix(matrix)
    u, s, _ = np.linalg.svd(arr)
    rank = singular_rank(s, tol)
    return [u[:, i] for i in range(rank)]

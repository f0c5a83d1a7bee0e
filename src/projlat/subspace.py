"""Linear subspaces of C^n in canonical form.

A subspace is held as an orthonormal column basis together with its ambient
dimension. All comparisons go through the associated orthogonal projector
``B B^H``, which is independent of the basis choice, so equality, meet and
join behave the same no matter how a subspace was constructed. The zero
subspace carries an explicit empty basis and the zero projector.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .tolerance import TolerancePolicy, resolve


class Subspace:
    """A subspace of C^n with an orthonormal ``(n, k)`` column basis."""

    __slots__ = ("ambient_dim", "basis", "_projector")

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        ambient_dim = int(ambient_dim)
        arr = np.array(basis, dtype=np.complex128).reshape(ambient_dim, -1)
        arr.setflags(write=False)
        self.ambient_dim = ambient_dim
        self.basis = arr
        self._projector = None

    @classmethod
    def from_span(
        cls,
        vectors,
        ambient_dim: int | None = None,
        tol: TolerancePolicy | None = None,
    ) -> "Subspace":
        """Canonical subspace spanned by ``vectors``.

        ``ambient_dim`` is only needed for an empty span (the zero subspace);
        otherwise it is inferred and checked against every vector.
        """
        vecs = [linalg.as_state_vector(v) for v in vectors]
        if vecs:
            inferred = linalg._common_dim((v.shape[0] for v in vecs), "mixed vector dimensions:")
            if ambient_dim is not None and ambient_dim != inferred:
                raise DimensionMismatchError(
                    f"vectors have dimension {inferred}, expected {ambient_dim}"
                )
            ambient_dim = inferred
        elif ambient_dim is None:
            raise ValueError("an empty span needs an explicit ambient_dim")
        basis = linalg._gram_schmidt(vecs, tol)
        return cls(ambient_dim, _stack(basis, ambient_dim))

    @classmethod
    def column_space(cls, matrix, tol: TolerancePolicy | None = None) -> "Subspace":
        """Canonical subspace spanned by the columns of ``matrix``."""
        arr = linalg.as_complex_matrix(matrix)
        basis = linalg.range_basis(arr, tol)
        return cls(arr.shape[0], _stack(basis, arr.shape[0]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (cached, read-only)."""
        if self._projector is None:
            proj = self.basis @ self.basis.conj().T
            proj.setflags(write=False)
            self._projector = proj
        return self._projector

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def equals(self, other: "Subspace", tol: TolerancePolicy | None = None) -> bool:
        """Equality as sets: Frobenius distance of projectors within ``eps_subspace``."""
        self._check_ambient(other)
        gap = float(np.linalg.norm(self.projector - other.projector))
        return gap <= resolve(tol).eps_subspace

    def meet(self, other: "Subspace", tol: TolerancePolicy | None = None) -> "Subspace":
        """Intersection: the joint kernel of the two complementary projectors."""
        self._check_ambient(other)
        eye = np.eye(self.ambient_dim)
        stacked = np.vstack([eye - self.projector, eye - other.projector])
        basis = linalg.kernel_basis(stacked, tol)
        return Subspace(self.ambient_dim, _stack(basis, self.ambient_dim))

    def join(self, other: "Subspace", tol: TolerancePolicy | None = None) -> "Subspace":
        """Smallest subspace containing both: span of the union of bases."""
        self._check_ambient(other)
        vectors = list(self.basis.T) + list(other.basis.T)
        return Subspace.from_span(vectors, ambient_dim=self.ambient_dim, tol=tol)

    def ortho_complement(self, tol: TolerancePolicy | None = None) -> "Subspace":
        """Orthogonal complement; its projector is ``I`` minus this one's."""
        basis = linalg.kernel_basis(self.projector, tol)
        return Subspace(self.ambient_dim, _stack(basis, self.ambient_dim))

    def contains(self, vector, tol: TolerancePolicy | None = None) -> bool:
        """Membership up to scale: relative projection residual within ``eps_subspace``."""
        v = linalg.as_state_vector(vector)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector dimension {v.shape[0]} != ambient {self.ambient_dim}"
            )
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return True
        residual = float(np.linalg.norm(v - self.projector @ v))
        return residual <= resolve(tol).eps_subspace * norm

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _stack(vectors: list[np.ndarray], ambient_dim: int) -> np.ndarray:
    if not vectors:
        return np.zeros((ambient_dim, 0))
    return np.column_stack(vectors)

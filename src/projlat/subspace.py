"""Linear subspaces of C^n in canonical form.

A subspace is held as an orthonormal column basis together with its ambient
dimension. It is what lattice elements, projector ranges and irreducibility
witnesses are reported as: its ``basis`` and ``dim``, and its orthogonal
projector ``B B^H``, which does not depend on the basis chosen, so
``equals`` and ``is_invariant`` read that. The zero subspace carries an
explicit empty basis and the zero projector.
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

    # No command calls this; it stays for bench/tracing.py, which counts its calls.
    @classmethod
    def column_space(cls, matrix, tol: TolerancePolicy | None = None) -> "Subspace":
        """Canonical subspace spanned by the columns of ``matrix``."""
        arr = linalg.as_complex_matrix(matrix)
        basis = linalg.range_basis(arr, tol)
        if not basis:
            return cls.zero(arr.shape[0])
        return cls(arr.shape[0], np.column_stack(basis))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

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

    # No command calls this; it stays for bench/tracing.py, which counts its calls.
    def equals(self, other: "Subspace", tol: TolerancePolicy | None = None) -> bool:
        """Equality as sets: Frobenius distance of projectors within ``eps_subspace``."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        gap = float(np.linalg.norm(self.projector - other.projector))
        return gap <= resolve(tol).eps_subspace

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

"""Exception types raised by the toolkit.

Validation errors name the violated axiom and carry the measured residual,
so callers (and the CLI) can report how far an input is from satisfying it.
The member-level errors take an optional ``where`` (``"context 'b' member
b[0]"``, say), which a document load gives them so that the message names
the failing context and member; the message is then ``"<where>: ..."``.
"""
from __future__ import annotations


def _located(where: str | None, message: str) -> str:
    return message if where is None else f"{where}: {message}"


class ProjlatError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(ProjlatError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class ValidationError(ProjlatError, ValueError):
    """An input object violates one of its defining axioms."""


class NotSquareError(ValidationError):
    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"expected a square matrix, got shape {self.shape}")


class NotHermitianError(ValidationError):
    def __init__(self, residual: float, limit: float, where: str | None = None):
        self.residual = residual
        self.limit = limit
        super().__init__(_located(
            where, f"matrix is not self-adjoint: max |M - M^H| = {residual:.3e} > {limit:.3e}"
        ))


class NotIdempotentError(ValidationError):
    def __init__(self, residual: float, limit: float, where: str | None = None):
        self.residual = residual
        self.limit = limit
        super().__init__(_located(
            where, f"matrix is not idempotent: max |M^2 - M| = {residual:.3e} > {limit:.3e}"
        ))


class PairwiseProductNonzeroError(ValidationError):
    def __init__(self, name: str, i: int, j: int, residual: float, limit: float):
        self.context = name
        self.pair = (i, j)
        self.residual = residual
        self.limit = limit
        super().__init__(
            f"context {name!r}: members {i} and {j} do not annihilate: "
            f"max |Pi Pj| = {residual:.3e} > {limit:.3e}"
        )


class SumNotIdentityError(ValidationError):
    def __init__(self, name: str, residual: float, limit: float):
        self.context = name
        self.residual = residual
        self.limit = limit
        super().__init__(
            f"context {name!r}: members do not sum to the identity: "
            f"max |sum - I| = {residual:.3e} > {limit:.3e}"
        )


class NotOrthonormalError(ValidationError):
    def __init__(self, residual: float, limit: float, where: str | None = None):
        self.residual = residual
        self.limit = limit
        super().__init__(_located(
            where, f"vectors are not orthonormal: max |V^H V - I| = {residual:.3e} > {limit:.3e}"
        ))


class NotCompleteError(ValidationError):
    def __init__(self, count: int, ambient_dim: int, where: str | None = None):
        self.count = count
        self.ambient_dim = ambient_dim
        super().__init__(_located(
            where, f"{count} orthonormal vectors do not span a space of dimension {ambient_dim}"
        ))


class ZeroStateError(ValidationError):
    def __init__(self):
        super().__init__("state vector has zero norm; only nonzero states admit a valuation")


class AmbientDimOneError(ValidationError):
    def __init__(self):
        super().__init__("irreducibility is only defined for ambient dimension >= 2")


class ParseError(ProjlatError, ValueError):
    """An operator-set document is malformed."""


class CapExceededError(ProjlatError):
    """A configured enumeration limit was exceeded."""


class SubsetLimitExceededError(CapExceededError):
    def __init__(self, atoms: int, cap: int):
        self.atoms = atoms
        self.cap = cap
        super().__init__(
            f"lattice family has {atoms} atoms; listing its elements is capped at {cap} "
            f"atoms (2^{cap} elements)"
        )

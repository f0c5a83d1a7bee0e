"""Exception types raised by the toolkit.

Validation errors name the violated axiom and carry the measured residual,
so callers (and the CLI) can report how far an input is from satisfying it.
The member-level errors take an optional ``where`` (``"context 'b' member
b[0]"``, say), which a document load and ``context_from_basis`` give them
so that the message names the failing context and member; the message is
then ``"<where>: ..."``.
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


class _ResidualError(ValidationError):
    """A measured residual above its limit; a subclass's ``_axiom`` (a class
    attribute, or one set per instance before this ``__init__``) names the
    violated axiom and the residual's formula."""

    def __init__(self, residual: float, limit: float, where: str | None = None):
        self.residual = residual
        self.limit = limit
        super().__init__(_located(where, f"{self._axiom} = {residual:.3e} > {limit:.3e}"))


class NotHermitianError(_ResidualError):
    _axiom = "matrix is not self-adjoint: max |M - M^H|"


class NotIdempotentError(_ResidualError):
    _axiom = "matrix is not idempotent: max |M^2 - M|"


class PairwiseProductNonzeroError(_ResidualError):
    def __init__(self, name: str, i: int, j: int, residual: float, limit: float):
        self.context = name
        self.pair = (i, j)
        self._axiom = f"members {i} and {j} do not annihilate: max |Pi Pj|"
        super().__init__(residual, limit, f"context {name!r}")


class SumNotIdentityError(_ResidualError):
    _axiom = "members do not sum to the identity: max |sum - I|"

    def __init__(self, name: str, residual: float, limit: float):
        self.context = name
        super().__init__(residual, limit, f"context {name!r}")


class NotOrthonormalError(_ResidualError):
    _axiom = "vectors are not orthonormal: max |V^H V - I|"


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


class ParseError(ProjlatError, ValueError):
    """An operator-set document is malformed."""


class CapExceededError(ProjlatError):
    """A configured enumeration limit was exceeded."""


class SubsetLimitExceededError(CapExceededError):
    def __init__(self, entries: int, cap: int):
        self.entries = entries
        self.cap = cap
        super().__init__(
            f"listing the lattice family's elements takes {entries} basis entries; "
            f"listing is capped at {cap}"
        )

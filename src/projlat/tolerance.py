"""The single tolerance policy shared by every numerical decision.

Three thresholds, ordered from tightest to loosest:

* ``eps_rank``     relative singular-value cutoff for rank and kernel decisions
* ``eps_entry``    entrywise residual allowed in operator identities
* ``eps_subspace`` Frobenius distance under which two subspaces are the same
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    eps_rank: float = 1e-10
    eps_entry: float = 1e-9
    eps_subspace: float = 1e-8

    def __post_init__(self):
        # An infinite eps_subspace would make every two projectors one.
        if not 0.0 < self.eps_rank <= self.eps_entry <= self.eps_subspace < math.inf:
            raise ValueError(
                "tolerances must satisfy 0 < eps_rank <= eps_entry <= eps_subspace "
                f"and be finite, got {self.eps_rank}, {self.eps_entry}, {self.eps_subspace}"
            )


DEFAULT_TOLERANCES = TolerancePolicy()


def resolve(tol: TolerancePolicy | None) -> TolerancePolicy:
    """Return the given policy, or the package default when ``None``."""
    return DEFAULT_TOLERANCES if tol is None else tol

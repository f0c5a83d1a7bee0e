"""Finite invariant-subspace families and their intersection.

A family is Boolean over its atoms, orthogonal nonzero subspaces that sum
to C^n (a projector's range and kernel, a context's nonzero members), and
lists the spans of atom subsets in ascending bitmask order: atom ``i`` sits
at position ``2^i``. Families meet in the sums of connected components of
the graph linking overlapping atoms; a meet of only {0, C^n} is trivial.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SubsetLimitExceededError
from .projectors import MaximalContext, Projector, is_invariant
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve

DEFAULT_MEMBER_CAP = 20


@dataclass(frozen=True)
class LatticeFamily:
    """A family of subspaces with reporting labels.

    Always contains the zero subspace and the full space; no two elements
    are equal within ``eps_subspace``. Built families are Boolean over atoms.
    """

    ambient_dim: int
    elements: tuple[Subspace, ...]
    labels: tuple[str, ...]

    def is_trivial(self) -> bool:
        """True when the family is exactly {zero subspace, full space}."""
        return sorted(s.dim for s in self.elements) == [0, self.ambient_dim]

    def contains(self, subspace: Subspace, tol: TolerancePolicy | None = None) -> bool:
        return any(el.equals(subspace, tol) for el in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _boolean_family(n: int, parts: list[tuple[Subspace, str]], wrap: str) -> LatticeFamily:
    """Spans of subsets of the nonzero orthogonal parts; ``ran(1)`` needs every part."""
    atoms = [(sub.basis, name) for sub, name in parts if not sub.is_zero()]
    elements, labels = [Subspace.zero(n)], ["ran(0)"]
    for mask in range(1, 1 << len(atoms)):
        chosen = [atoms[i] for i in range(len(atoms)) if mask >> i & 1]
        elements.append(Subspace(n, np.linalg.qr(np.hstack([b for b, _ in chosen]))[0]))
        full = len(chosen) == len(parts)
        labels.append("ran(1)" if full else wrap % "+".join(name for _, name in chosen))
    return LatticeFamily(n, tuple(elements), tuple(labels))


def projector_lattice(
    projector: Projector, tol: TolerancePolicy | None = None
) -> LatticeFamily:
    """The invariant family {zero, range, kernel, whole space} of one projector."""
    label = projector.label
    parts = [(projector.range(tol), f"ran({label})"), (projector.kernel(tol), f"ker({label})")]
    return _boolean_family(projector.ambient_dim, parts, "%s")


def context_lattice(
    ctx: MaximalContext,
    tol: TolerancePolicy | None = None,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> LatticeFamily:
    """Ranges of all subset sums of a context's members.

    Bit ``i`` selects the ``i``-th nonzero member, which fixes the element
    order. Distinct subsets of orthogonal atoms are distinct subspaces, so
    nothing is deduplicated. Contexts with more than ``member_cap`` members,
    rank-0 ones included, are rejected to bound the 2^m enumeration.
    """
    m = len(ctx.members)
    if m > member_cap:
        raise SubsetLimitExceededError(m, member_cap)
    parts = [(p.range(tol), p.label) for p in ctx.members]
    return _boolean_family(ctx.ambient_dim, parts, "ran(%s)")


def _atoms(fam: LatticeFamily) -> list[np.ndarray]:
    """Atom bases of a Boolean family: its elements at positions 2^i."""
    k = len(fam).bit_length() - 1
    atoms = [fam.elements[1 << i].basis for i in range(k)]
    if len(fam) != 1 << k or sum(u.shape[1] for u in atoms) != fam.ambient_dim:
        raise ValueError("family is not Boolean over atoms spanning the whole space")
    return atoms


def intersect_lattices(
    families, tol: TolerancePolicy | None = None
) -> LatticeFamily:
    """Elements present in every input family, found from the atoms alone.

    Atoms of different families are linked when ``|U_a^H U_b|_F`` exceeds
    ``eps_subspace``. The first family's elements that are sums of connected
    components survive, with its labels, Boolean over the components ordered
    by their highest first-family atom. A family that is not Boolean over
    atoms summing to the whole space, or whose atoms overlap above
    ``eps_subspace``, raises ``ValueError``. For ``S = sum_I A_i`` and
    ``T = sum_J B_j``, ``|S - T|_F^2`` is the sum of ``|A_i B_j|_F^2`` over
    pairs crossing the cut, so this rule and equality within
    ``eps_subspace`` can only disagree when some atom overlap lies in
    ``(eps_subspace/sqrt(p), 2 eps_subspace]``, ``p`` the number of atom pairs.
    """
    fams = list(families)
    if not fams:
        raise ValueError("need at least one lattice family to intersect")
    n = fams[0].ambient_dim
    for fam in fams[1:]:
        if fam.ambient_dim != n:
            raise DimensionMismatchError(
                f"mixed ambient dimensions: {n} and {fam.ambient_dim}"
            )
    atoms = [(f, u) for f, fam in enumerate(fams) for u in _atoms(fam)]
    family = np.array([f for f, _ in atoms])
    owner = np.repeat(np.eye(len(atoms)), [u.shape[1] for _, u in atoms], axis=0)
    stacked = np.hstack([u for _, u in atoms])
    gram = np.abs(stacked.conj().T @ stacked) ** 2
    linked = owner.T @ gram @ owner > resolve(tol).eps_subspace ** 2
    if (linked & (family[:, None] == family) & ~np.eye(len(atoms), dtype=bool)).any():
        raise ValueError("atoms of one family overlap above eps_subspace")
    reach = linked.astype(float)
    while not np.array_equal(grown := np.minimum(reach @ reach, 1), reach):
        reach = grown
    k = int(np.sum(family == 0))
    blocks = sorted({int(reach[i, :k] @ (1 << np.arange(k))) for i in range(k)})
    keep = [sum(b for j, b in enumerate(blocks) if c >> j & 1) for c in range(1 << len(blocks))]
    return LatticeFamily(
        n, tuple(fams[0].elements[i] for i in keep), tuple(fams[0].labels[i] for i in keep)
    )


def is_closed_under_meet_join(
    family: LatticeFamily, tol: TolerancePolicy | None = None
) -> bool:
    """Verification pass: every pairwise meet and join is again a member."""
    for i, u in enumerate(family.elements):
        for v in family.elements[i:]:
            if not family.contains(u.meet(v, tol), tol):
                return False
            if not family.contains(u.join(v, tol), tol):
                return False
    return True


def all_elements_invariant(
    family: LatticeFamily, ctx: MaximalContext, tol: TolerancePolicy | None = None
) -> bool:
    """Verification pass: every element is invariant under every member."""
    return all(
        is_invariant(el, member, tol)
        for el in family.elements
        for member in ctx.members
    )

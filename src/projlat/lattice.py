"""Finite invariant-subspace families and their intersection.

A family is Boolean over its atoms, orthogonal nonzero subspaces that sum
to C^n (a projector's range and kernel, a context's nonzero members), and
lists the spans of atom subsets in ascending bitmask order: atom ``i`` sits
at position ``2^i``. Families meet in the sums of connected components of
the graph linking overlapping atoms; a meet of only {0, C^n} is trivial.
A built family keeps only its atoms and its blocks, disjoint atom bitmasks
whose unions are its elements. An element, the QR of its atoms' stacked
bases, is taken when the elements are first read, for at most
``DEFAULT_MEMBER_CAP`` blocks, so a meet of 2^c elements costs 2^c QRs.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SubsetLimitExceededError
from .projectors import MaximalContext, Projector, is_invariant
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve

DEFAULT_MEMBER_CAP = 20


class _Atoms(NamedTuple):
    """Atom bases with the names, part count and label pattern of their family."""

    bases: tuple[np.ndarray, ...]
    names: tuple[str, ...]
    parts: int
    wrap: str


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _unions(blocks) -> list[int]:
    """The unions of subsets of disjoint ``blocks``: subset ``i`` at position ``i``."""
    unions = [0]
    for block in blocks:
        unions += [union | block for union in unions]
    return unions


class LatticeFamily:
    """A family of subspaces with reporting labels.

    Always contains the zero subspace and the full space; no two elements
    are equal within ``eps_subspace``. ``LatticeFamily(n, elements, labels)``
    holds the given tuples. Element ``i`` of a built family spans the atoms
    of its blocks at the set bits of ``i``. ``elements`` and ``labels`` are
    built on first access, past ``DEFAULT_MEMBER_CAP`` blocks they raise
    ``SubsetLimitExceededError``, and ``size``, ``len``, ``is_trivial`` and
    ``intersect_lattices`` never build them.
    """

    __slots__ = ("ambient_dim", "_elements", "_labels", "_atom_set", "_blocks")

    def __init__(self, ambient_dim: int, elements, labels):
        self.ambient_dim = ambient_dim
        self._elements = tuple(elements)
        self._labels = tuple(labels)
        self._atom_set = self._blocks = None

    @classmethod
    def _over_atoms(cls, n: int, atoms: _Atoms, blocks: tuple[int, ...]) -> "LatticeFamily":
        """Boolean over ``blocks``, disjoint bitmasks of ``atoms``; built when first read."""
        family = cls.__new__(cls)
        family.ambient_dim = n
        family._elements = family._labels = None
        family._atom_set, family._blocks = atoms, blocks
        return family

    @property
    def size(self) -> int:
        """The number of elements, 2^blocks for a built family, as a Python int."""
        return len(self._elements) if self._atom_set is None else 1 << len(self._blocks)

    def _masks(self) -> list[int]:
        """The atom bitmask of each element of a built family, in order."""
        if len(self._blocks) > DEFAULT_MEMBER_CAP:
            raise SubsetLimitExceededError(len(self._blocks), DEFAULT_MEMBER_CAP)
        return _unions(self._blocks)

    @property
    def elements(self) -> tuple[Subspace, ...]:
        if self._elements is None:
            n, bases = self.ambient_dim, self._atom_set.bases
            self._elements = tuple(
                Subspace(n, np.linalg.qr(np.hstack([bases[i] for i in _bits(mask)]))[0])
                if mask
                else Subspace.zero(n)
                for mask in self._masks()
            )
        return self._elements

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            names, parts, wrap = self._atom_set.names, self._atom_set.parts, self._atom_set.wrap
            self._labels = tuple(
                "ran(0)"
                if not mask
                else "ran(1)"
                if mask.bit_count() == parts
                else wrap % "+".join(names[i] for i in _bits(mask))
                for mask in self._masks()
            )
        return self._labels

    def is_trivial(self) -> bool:
        """True when the family is exactly {zero subspace, full space}."""
        n = self.ambient_dim
        if self._atom_set is None:
            return self.size == 2 and sorted(s.dim for s in self._elements) == [0, n]
        # One block, whose atoms span C^n.
        widths = [u.shape[1] for u in self._atom_set.bases]
        return len(self._blocks) == 1 and sum(widths[i] for i in _bits(self._blocks[0])) >= n

    def contains(self, subspace: Subspace, tol: TolerancePolicy | None = None) -> bool:
        return any(el.equals(subspace, tol) for el in self.elements)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"LatticeFamily(dim={self.ambient_dim}, elements={self.size})"


def _boolean_family(n: int, parts: list[tuple[np.ndarray, str]], wrap: str) -> LatticeFamily:
    """Spans of subsets of the orthogonal parts, each an orthonormal ``(n, r)``
    basis; parts with no columns are not atoms, and ``ran(1)`` needs every part."""
    atoms = [(basis, name) for basis, name in parts if basis.shape[1]]
    return LatticeFamily._over_atoms(
        n,
        _Atoms(tuple(b for b, _ in atoms), tuple(name for _, name in atoms), len(parts), wrap),
        tuple(1 << i for i in range(len(atoms))),
    )


def projector_lattice(
    projector: Projector, tol: TolerancePolicy | None = None
) -> LatticeFamily:
    """The invariant family {zero, range, kernel, whole space} of one projector."""
    label = projector.label
    parts = [
        (projector.range(tol).basis, f"ran({label})"),
        (projector.kernel(tol).basis, f"ker({label})"),
    ]
    return _boolean_family(projector.ambient_dim, parts, "%s")


def context_lattice(ctx: MaximalContext, tol: TolerancePolicy | None = None) -> LatticeFamily:
    """Ranges of all subset sums of a context's members.

    Bit ``i`` selects the ``i``-th nonzero member, which fixes the element
    order. Distinct subsets of orthogonal atoms are distinct subspaces, so
    nothing is deduplicated. Only the member ranges are computed here. A
    context built from a basis has its vectors as ranges: member ``v v^H``
    has the single singular value ``|v|^2`` and the atom ``v``, a unit
    column within ``eps_entry``, so no SVD is taken. Any other context takes
    one SVD of the member stack: a member's range is the first ``rank`` left
    singular vectors, as ``Projector.range`` takes them one member at a
    time. The 2^m elements are built when first read, for at most
    ``DEFAULT_MEMBER_CAP`` nonzero members.
    """
    if ctx._rays is not None:
        # (m, n, 1): each ray as a column, ranked by its singular value |v|^2.
        u = ctx._rays[:, :, None]
        s = np.linalg.norm(ctx._rays, axis=1)[:, None] ** 2
    else:
        u, s, _ = np.linalg.svd(np.array([p.matrix for p in ctx.members], dtype=np.complex128))
        u.setflags(write=False)
    ranks = linalg.singular_rank(s, tol)
    parts = [(ui[:, :r], p.label) for ui, r, p in zip(u, ranks.tolist(), ctx.members)]
    return _boolean_family(ctx.ambient_dim, parts, "ran(%s)")


def _atoms(fam: LatticeFamily) -> list[np.ndarray]:
    """Atom bases of a Boolean family: its elements at positions 2^i.

    A built family stacks the bases of each block's atoms instead of taking
    a QR; the two span the same subspace.
    """
    k = fam.size.bit_length() - 1
    if fam._atom_set is None:
        atoms = [fam.elements[1 << i].basis for i in range(k)]
    else:
        bases = fam._atom_set.bases
        atoms = [np.hstack([bases[j] for j in _bits(block)]) for block in fam._blocks]
    if fam.size != 1 << k or sum(u.shape[1] for u in atoms) != fam.ambient_dim:
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
    # Python int masks: a float or int64 product is inexact past 53 atoms.
    k = int(np.sum(family == 0))
    components = sorted(
        {sum(1 << int(j) for j in np.flatnonzero(reach[i, :k])) for i in range(k)}
    )
    first = fams[0]
    if first._atom_set is None:
        keep = _unions(components)
        return LatticeFamily(
            n, tuple(first.elements[i] for i in keep), tuple(first.labels[i] for i in keep)
        )
    blocks = tuple(sum(first._blocks[j] for j in _bits(c)) for c in components)
    return LatticeFamily._over_atoms(n, first._atom_set, blocks)


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

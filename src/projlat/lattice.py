"""Finite invariant-subspace families and their intersection.

Families come only from ``context_lattice`` and ``intersect_lattices``,
always as atoms plus blocks; a projector P's family is that of the context
{P, I - P}. The atoms are orthogonal nonzero subspaces that sum to C^n (a
context's nonzero members); the blocks are disjoint atom bitmasks,
and the family is Boolean over them: it lists the spans of block subsets in
ascending bitmask order, block ``i`` at position ``2^i``. Families meet in
the sums of connected components of the graph linking overlapping atoms; a
meet of only {0, C^n} is trivial. An element, the QR of its atoms' stacked
bases, is taken when the elements are first read, for a family of at most
one block or whose elements hold at most ``DEFAULT_ENTRY_CAP`` basis
entries, so a meet of 2^c elements costs 2^c QRs.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SubsetLimitExceededError
from .linalg import _common_dim
from .projectors import MaximalContext, _overlaps, _padded
from .subspace import Subspace
from .tolerance import TolerancePolicy, resolve

# Basis entries a family of two or more blocks may list. Each atom of a
# family of b blocks over C^n lies in half of its 2^b elements, so their
# (n, dim) bases hold n^2 2^(b - 1) entries: 16 MB of complex128 at the
# cap. A family of at most one block, {0, C^n} or {0}, lists one basis of
# n^2 entries, the size of one member of its context, and is not capped.
DEFAULT_ENTRY_CAP = 1 << 20


class _Atoms(NamedTuple):
    """Atom bases with their names and the member count of their context."""

    bases: tuple[np.ndarray, ...]
    names: tuple[str, ...]
    parts: int


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, one step per set bit."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _unions(blocks) -> list[int]:
    """The unions of subsets of disjoint ``blocks``: subset ``i`` at position ``i``."""
    unions = [0]
    for block in blocks:
        unions += [union | block for union in unions]
    return unions


class LatticeFamily:
    """A family of subspaces with reporting labels, Boolean over its blocks.

    ``LatticeFamily(n, atoms, blocks)`` takes the atom bases and ``blocks``,
    disjoint bitmasks of the atoms; ``context_lattice`` and
    ``intersect_lattices`` build every family. Element ``i`` spans the
    atoms of the blocks at the set bits of ``i``: element 0 is the zero
    subspace, the last one spans every atom, and distinct subsets of
    orthogonal atoms give distinct subspaces. ``elements`` and ``labels``
    are built on first access; past ``DEFAULT_ENTRY_CAP`` basis entries,
    with two or more blocks, they raise ``SubsetLimitExceededError``, and
    ``size``, ``len``, ``is_trivial`` and ``intersect_lattices`` never
    build them.
    """

    __slots__ = ("ambient_dim", "_elements", "_labels", "_atom_set", "_blocks", "_parts")

    def __init__(
        self, ambient_dim: int, atoms: _Atoms, blocks: tuple[int, ...], parts=None
    ):
        self.ambient_dim = ambient_dim
        self._elements = self._labels = None
        self._atom_set, self._blocks, self._parts = atoms, blocks, parts

    @property
    def size(self) -> int:
        """The number of elements, 2^blocks, as a Python int."""
        return 1 << len(self._blocks)

    def _masks(self) -> list[int]:
        """The atom bitmask of each element, in order."""
        entries = self.ambient_dim ** 2 << len(self._blocks) >> 1
        if len(self._blocks) > 1 and entries > DEFAULT_ENTRY_CAP:
            raise SubsetLimitExceededError(entries, DEFAULT_ENTRY_CAP)
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
            names, parts = self._atom_set.names, self._atom_set.parts
            self._labels = tuple(
                "ran(0)"
                if not mask
                else "ran(1)"
                if mask.bit_count() == parts
                else "ran(" + "+".join(names[i] for i in _bits(mask)) + ")"
                for mask in self._masks()
            )
        return self._labels

    def is_trivial(self) -> bool:
        """True when the family is exactly {zero subspace, full space}."""
        # One block, whose atoms span C^n.
        n = self.ambient_dim
        widths = [u.shape[1] for u in self._atom_set.bases]
        return len(self._blocks) == 1 and sum(widths[i] for i in _bits(self._blocks[0])) >= n

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"LatticeFamily(dim={self.ambient_dim}, elements={self.size})"


def context_lattice(ctx: MaximalContext) -> LatticeFamily:
    """Ranges of all subset sums of a context's members.

    Bit ``i`` selects the ``i``-th nonzero member, which fixes the element
    order. Distinct subsets of orthogonal atoms are distinct subspaces, so
    nothing is deduplicated. The atoms are the members' range bases, kept
    since the checks that ranked them: for a matrix member its first
    ``rank`` left singular vectors from the SVD taken at load, for a ray
    member the unit ray. No rank is decided here and no SVD is taken,
    except once for a hand-built member. Rank-0 members are not atoms, and
    ``ran(1)`` needs every member. The 2^m elements are built when first
    read, within ``DEFAULT_ENTRY_CAP``.
    """
    parts = [(p._factors()[0], p.label) for p in ctx.members]
    atoms = [(basis, name) for basis, name in parts if basis.shape[1]]
    return LatticeFamily(
        ctx.ambient_dim,
        _Atoms(tuple(b for b, _ in atoms), tuple(name for _, name in atoms), len(parts)),
        tuple(1 << i for i in range(len(atoms))),
    )


def _atoms(fam: LatticeFamily) -> list[np.ndarray]:
    """One basis per block: the stacked bases of its atoms, not their QR,
    which spans the same subspace; a block of one atom is that atom's basis."""
    bases = fam._atom_set.bases
    parts = [[bases[j] for j in _bits(block)] for block in fam._blocks]
    atoms = [part[0] if len(part) == 1 else np.hstack(part) for part in parts]
    if sum(u.shape[1] for u in atoms) != fam.ambient_dim:
        raise ValueError("family is not Boolean over atoms spanning the whole space")
    return atoms


def intersect_lattices(
    families, tol: TolerancePolicy | None = None
) -> LatticeFamily:
    """Elements present in every input family, found from the atoms alone.

    Atoms of different families are linked when ``|U_a^H U_b|_F`` (from
    ``_overlaps``, as in the registry screen) exceeds ``eps_subspace``, and
    one breadth-first search per component (``_components``) finds the
    connected components of that graph. The first family's elements that
    are sums of connected components survive, with its labels, Boolean over
    the components ordered by their highest first-family atom; the meet's
    ``_parts`` give the component of every input atom. A family that is not
    Boolean over atoms summing to the whole space, or whose atoms overlap
    above ``eps_subspace``, raises ``ValueError``. For ``S = sum_I A_i`` and
    ``T = sum_J B_j``, ``|S - T|_F^2`` is the sum of ``|A_i B_j|_F^2`` over
    pairs crossing the cut, so this rule and equality within
    ``eps_subspace`` can only disagree when some atom overlap lies in
    ``(eps_subspace/sqrt(p), 2 eps_subspace]``, ``p`` the number of atom pairs.
    """
    fams = list(families)
    if not fams:
        raise ValueError("need at least one lattice family to intersect")
    n = _common_dim((fam.ambient_dim for fam in fams), "mixed ambient dimensions:")
    ranges = _padded([u for fam in fams for u in _atoms(fam)])
    rows = _rows(_overlaps(ranges, ranges) > resolve(tol).eps_subspace ** 2)
    # Python int masks over the atoms, exact past 53 atoms.
    start = 0
    for fam in fams:
        own = ((1 << len(fam._blocks)) - 1) << start
        for i in range(start, start + len(fam._blocks)):
            if rows[i] & own & ~(1 << i):
                raise ValueError("atoms of one family overlap above eps_subspace")
        start += len(fam._blocks)
    first = fams[0]
    head = (1 << len(first._blocks)) - 1
    kept = sorted((c for c in _components(rows) if c & head), key=lambda c: c & head)
    found = [-1] * len(rows)
    for label, component in enumerate(kept):
        for i in _bits(component):
            found[i] = label
    parts, start = [], 0
    for fam in fams:
        parts.append(tuple(found[start : start + len(fam._blocks)]))
        start += len(fam._blocks)
    blocks = tuple(sum(first._blocks[j] for j in _bits(c & head)) for c in kept)
    return LatticeFamily(n, first._atom_set, blocks, tuple(parts))


def _rows(linked: np.ndarray) -> list[int]:
    """Each row of an (N, N) boolean matrix as a Python int, bit j for column j."""
    width = -(-len(linked) // 8)
    packed = np.packbits(linked, axis=1, bitorder="little").tobytes()
    return [
        int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)
    ]


def _components(rows: list[int]) -> list[int]:
    """The connected components of the symmetric graph whose node i links
    the nodes of ``rows[i]``, as node masks in order of their lowest node.

    One breadth-first search per component: each node's row is read once,
    so the search takes O(N^2 / 64) word operations for N nodes.
    """
    components, left = [], (1 << len(rows)) - 1
    while left:
        frontier = component = left & -left
        while frontier:
            reached = 0
            for i in _bits(frontier):
                reached |= rows[i]
            frontier = reached & ~component
            component |= frontier
        components.append(component)
        left &= ~component
    return components


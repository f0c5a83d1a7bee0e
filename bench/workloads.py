"""Seeded input documents for the benchmark workloads.

Every document of one workload has the same shape, so every verdict in a
run does the same amount of work; the seed changes only the random
unitaries that turn or fill the instance.
"""
from __future__ import annotations

import numpy as np

# The 18-ray, 9-context set of Cabello, Estebaranz & Garcia-Alcaine (1996):
# nine orthogonal bases of C^4, every ray in exactly two of them.
KS18_GROUPS = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)

KS_FACTORS = 2
IRREDUCIBLE_DIM = 5
INTERSECT_BLOCK_MEMBERS = (2, 2, 2)
INTERSECT_MEMBER_RANK = 2
INTERSECT_CONTEXTS = 3


def rng_for(seed: int, workload_tag: int) -> np.random.Generator:
    """Independent stream per (seed, workload), so workloads share no draws."""
    return np.random.default_rng([seed, workload_tag])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_json(v) -> list[list[float]]:
    return [_pair(z) for z in v]


def matrix_json(m) -> list[list[list[float]]]:
    return [[_pair(z) for z in row] for row in m]


def ks_document(rng: np.random.Generator, factors: int = KS_FACTORS) -> dict:
    """The 18-ray set tensored with the standard basis of C^factors.

    Ray ``r<i>_<j>`` is ray i of the 18 tensored with e_j, turned by one
    Haar-random unitary of C^(4 factors). Group ``c<g>`` lists the rays of
    base g tensored with e_0, then with e_1, and so on, so every group is an
    orthonormal basis and every ray lies in exactly two of the nine groups.
    """
    names: dict[tuple, str] = {}
    for group in KS18_GROUPS:
        for ray in group:
            names.setdefault(ray, f"r{len(names):02d}")
    dim = 4 * factors
    u = haar_unitary(rng, dim)
    eye = np.eye(factors)
    rays = {}
    for ray, name in names.items():
        v = np.array(ray, dtype=float)
        v /= np.linalg.norm(v)
        for j in range(factors):
            rays[f"{name}_{j}"] = vector_json(u @ np.kron(v, eye[j]))
    groups = {
        f"c{gi}": [f"{names[ray]}_{j}" for j in range(factors) for ray in group]
        for gi, group in enumerate(KS18_GROUPS)
    }
    return {"dim": dim, "rays": rays, "groups": groups}


def irreducible_document(rng: np.random.Generator, n: int = IRREDUCIBLE_DIM) -> dict:
    """Two Haar-random orthonormal bases of C^n as two rank-1 contexts."""
    rays: dict[str, list] = {}
    groups: dict[str, list[str]] = {}
    for name in ("a", "b"):
        u = haar_unitary(rng, n)
        groups[name] = []
        for i in range(n):
            rays[f"{name}{i}"] = vector_json(u[:, i])
            groups[name].append(f"{name}{i}")
    return {"dim": n, "rays": rays, "groups": groups}


def block_slices(block_members=INTERSECT_BLOCK_MEMBERS) -> list[slice]:
    """Coordinate ranges of the planted blocks; block b holds its members' ranks."""
    slices, start = [], 0
    for count in block_members:
        slices.append(slice(start, start + INTERSECT_MEMBER_RANK * count))
        start += INTERSECT_MEMBER_RANK * count
    return slices


def intersect_document(
    rng: np.random.Generator, block_members=INTERSECT_BLOCK_MEMBERS
) -> dict:
    """Matrix-form contexts with a planted split of C^n into coordinate blocks.

    In each of the ``INTERSECT_CONTEXTS`` contexts every block is cut into
    rank-``INTERSECT_MEMBER_RANK`` members along the columns of its own
    Haar-random unitary, so every member lies inside one block and the sums
    of whole blocks are the subspaces all contexts share.
    """
    rank = INTERSECT_MEMBER_RANK
    slices = block_slices(block_members)
    n = slices[-1].stop
    doc_contexts = {}
    for c in range(INTERSECT_CONTEXTS):
        members = []
        for block in slices:
            size = block.stop - block.start
            q = haar_unitary(rng, size)
            for k in range(0, size, rank):
                cols = np.zeros((n, rank), dtype=complex)
                cols[block] = q[:, k : k + rank]
                members.append(matrix_json(cols @ cols.conj().T))
        doc_contexts[f"c{c}"] = members
    return {"dim": n, "contexts": doc_contexts}

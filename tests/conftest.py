import numpy as np
import pytest

import projlat as pl

# The classic 18-ray, 9-context configuration in dimension 4: every group is
# an orthogonal basis and every ray appears in exactly two groups, which is
# what forces the assignment search to fail.
KS18_GROUPS = [
    [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)],
    [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)],
    [(1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)],
    [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)],
    [(1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)],
    [(1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)],
    [(1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)],
    [(1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)],
]


def ks18_ray_names() -> dict[tuple, str]:
    names = {}
    for group in KS18_GROUPS:
        for ray in group:
            if ray not in names:
                names[ray] = f"r{len(names):02d}"
    return names


def ks18_document() -> dict:
    names = ks18_ray_names()
    return {
        "dim": 4,
        "rays": {
            name: [[float(x), 0.0] for x in ray] for ray, name in names.items()
        },
        "groups": {
            f"c{gi}": [names[ray] for ray in group]
            for gi, group in enumerate(KS18_GROUPS)
        },
    }


def ks18_collection() -> pl.ContextCollection:
    collection, _ = pl.parse_document(ks18_document())
    return collection


def rank1_bound(rays) -> float:
    """How far products taken from the Gram matrix of (m, n) ``rays`` may lie
    from the dense products of their members: 4 (n + 2) u max p_i^2, with
    p_i = max_a |v_i[a]| and u = 2^-53."""
    rays = np.asarray(rays)
    return 4 * (rays.shape[1] + 2) * 2.0**-53 * float(np.abs(rays).max()) ** 2


def max_abs(matrix) -> float:
    """Largest entry magnitude; 0.0 for an empty array."""
    arr = np.asarray(matrix)
    return float(np.abs(arr).max(initial=0.0))


def from_basis(ctx) -> bool:
    """True for a context checked as a basis, whose members' gaps are all 0."""
    return all(p._gap == 0.0 for p in ctx.members)


def rays_of(ctx) -> np.ndarray:
    """The (m, n) unit rays of a basis context, from its members' kept ranges."""
    return np.array([p._range[:, 0] for p in ctx.members])


def random_rank1_context(rng, dim: int, name: str = "ctx") -> pl.MaximalContext:
    """Maximal context from a Haar-ish random orthonormal basis of C^dim."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return pl.context_from_basis([q[:, i] for i in range(dim)], name=name)


def random_projector(rng, dim: int, rank: int, label: str = "P") -> pl.Projector:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(z)
    return pl.validate_projector(q @ q.conj().T, label=label)


def random_state(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


@pytest.fixture(scope="session")
def pauli() -> pl.ContextCollection:
    return pl.pauli_contexts()


@pytest.fixture(scope="session")
def ks18() -> pl.ContextCollection:
    return ks18_collection()

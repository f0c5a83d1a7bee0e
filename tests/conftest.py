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


def zero_member_ks18_document() -> dict:
    """The 18-ray set in matrix form, with a zero matrix appended to context c0.

    Its ranks still sum to 4, so it validates; no state makes 0 true, so it
    is UNSAT like the 18-ray set itself, though no parity certificate shows it.
    """
    doc = ks18_document()
    rays = {name: np.array(ray) @ [1, 1j] for name, ray in doc["rays"].items()}
    contexts = {
        group: [
            pl.document.matrix_to_json(np.outer(v, v.conj()) / np.vdot(v, v).real)
            for v in (rays[name] for name in names)
        ]
        for group, names in doc["groups"].items()
    }
    contexts["c0"].append(pl.document.matrix_to_json(np.zeros((4, 4))))
    return {"dim": 4, "contexts": contexts}


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


def dense_products(matrices) -> np.ndarray:
    """The dense oracle of a context's products, one matrix product per entry:
    ``max|Pi Pj|`` at (i, j) for i != j, and ``max|Pi Pi - Pi|`` on the diagonal."""
    mats = [np.asarray(m) for m in matrices]
    products = np.empty((len(mats), len(mats)))
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            products[i, j] = max_abs(a @ b - a) if i == j else max_abs(a @ b)
    return products


def dense_residuals(matrices) -> dict[str, float]:
    """``context_residuals`` as the dense oracle reads them: the largest
    off-diagonal dense product, and ``max|S - I|`` for S the members added in order."""
    products = dense_products(matrices)
    np.fill_diagonal(products, 0.0)
    total = sum(np.asarray(m) for m in matrices)
    return {
        "pairwise_product": float(products.max(initial=0.0)),
        "sum_minus_identity": max_abs(total - np.eye(len(total))),
    }


def bound_slack(members) -> np.ndarray:
    """How far the pairwise bounds of ``members``, read off their kept ranges,
    may lie below the dense products: the bound's own rounding and that of
    ``fl(Pi Pj)``, ``gamma_(6n + w^2 + w + 24) (p_i + g_i) (p_j + g_j)
    sqrt(r_i r_j)``, with p_i the largest row norm of range Q_i, g_i its gap,
    r_i its rank (at least 1) and w the largest rank."""
    n = members[0].ambient_dim
    width = max(max(p.rank for p in members), 1)
    k = (6 * n + width * width + width + 24) * 2.0**-53
    scale = []
    for p in members:
        basis, gap = p._factors()
        peak = float(np.sqrt((np.abs(basis) ** 2).sum(axis=1).max(initial=0.0)))
        scale.append((peak + gap) * np.sqrt(max(p.rank, 1)))
    scale = np.array(scale)
    return k / (1 - k) * np.outer(scale, scale) * (1 + 1e-6)


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


def span(*vectors) -> pl.Subspace:
    """The subspace that independent ``vectors`` span, from a QR of their columns."""
    columns = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    return pl.Subspace(len(columns), np.linalg.qr(columns)[0])


def contains(family, sub, tol=None) -> bool:
    """True when some element of ``family`` equals ``sub``."""
    return any(el.equals(sub, tol) for el in family.elements)


def kernel(projector: pl.Projector) -> pl.Subspace:
    """A projector's kernel: the range of the checked I - P."""
    return pl.validate_projector(np.eye(projector.ambient_dim) - projector.matrix).range()


def meet(u: pl.Subspace, v: pl.Subspace, tol=None) -> pl.Subspace:
    """u ∩ v from their projectors: the SVD null space of [I - Pu; I - Pv]."""
    eye = np.eye(u.ambient_dim)
    _, s, vh = np.linalg.svd(np.vstack([eye - u.projector, eye - v.projector]))
    return pl.Subspace(u.ambient_dim, vh[pl.linalg.singular_rank(s, tol) :].conj().T)


def join(u: pl.Subspace, v: pl.Subspace, tol=None) -> pl.Subspace:
    """u + v from their projectors: the SVD range of [Pu Pv]."""
    left, s, _ = np.linalg.svd(np.hstack([u.projector, v.projector]))
    return pl.Subspace(u.ambient_dim, left[:, : pl.linalg.singular_rank(s, tol)])


@pytest.fixture(scope="session")
def pauli() -> pl.ContextCollection:
    return pl.pauli_contexts()


@pytest.fixture(scope="session")
def ks18() -> pl.ContextCollection:
    return ks18_collection()

"""Independent checks of the verdicts the benchmark collects.

Each ``expect_*`` function derives, once per document and with numpy alone,
what a correct verdict must say; each ``check_*`` function compares one
``projlat <command> --format json`` result against it and returns ``None``
when it agrees or a one-line reason when it does not. Nothing is compared
with a saved copy of earlier output.
"""
from __future__ import annotations

import numpy as np

EXIT_OK = 0
EXIT_UNSAT = 2
# Default eps_subspace of the document format; the benchmark's documents do
# not override it.
EPS_SUBSPACE = 1e-8
# Relative singular-value cutoff for the commutant rank, well above roundoff
# for the small dimensions the workloads use.
COMMUTANT_EPS = 1e-9


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _unit_rays(doc: dict) -> dict[str, np.ndarray]:
    rays = {}
    for name, pairs in doc["rays"].items():
        v = _complex_array(pairs)
        rays[name] = v / np.linalg.norm(v)
    return rays


def parity_certificate(doc: dict) -> bool:
    """True when a ray document cannot admit one 1 per group.

    An assignment with exactly one 1 in each group sums to the number of
    groups over all (group, ray) slots; if every distinct ray fills an even
    number of slots, that sum is even. An odd number of groups then rules
    every assignment out, with no search.
    """
    rays = _unit_rays(doc)
    directions: list[np.ndarray] = []
    identity: dict[str, int] = {}
    for name, v in rays.items():
        for k, rep in enumerate(directions):
            if abs(abs(np.vdot(rep, v)) - 1.0) <= EPS_SUBSPACE:
                identity[name] = k
                break
        else:
            identity[name] = len(directions)
            directions.append(v)
    slots = [0] * len(directions)
    for members in doc["groups"].values():
        ids = [identity[name] for name in members]
        if len(set(ids)) != len(ids):
            return False
        for k in ids:
            slots[k] += 1
    return len(doc["groups"]) % 2 == 1 and all(count % 2 == 0 for count in slots)


def check_ks_search(certified: bool, code: int, report: dict) -> str | None:
    if not certified:
        return "the document carries no parity certificate of UNSAT"
    if code != EXIT_UNSAT:
        return f"exit code {code}, expected {EXIT_UNSAT}"
    status = report["verdicts"]["status"]
    if status != "UNSAT":
        return f"status {status!r}, expected 'UNSAT'"
    if report["verdicts"]["assignment"] is not None:
        return "an UNSAT verdict carries an assignment"
    return None


def ray_projectors(doc: dict) -> list[np.ndarray]:
    return [np.outer(v, v.conj()) for v in _unit_rays(doc).values()]


def commutant_dimension(generators) -> int:
    """Dimension of {X : GX = XG for every generator G}.

    Row-major vectorization turns X -> GX - XG into kron(G, I) - kron(I, G^T);
    the commutant is the null space of those maps stacked.
    """
    n = generators[0].shape[0]
    eye = np.eye(n)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in generators])
    s = np.linalg.svd(stacked, compute_uv=False)
    return n * n - int(np.count_nonzero(s > COMMUTANT_EPS * s[0]))


def expect_irreducible(doc: dict) -> int:
    return commutant_dimension(ray_projectors(doc))


def check_irreducible(commutant_dim: int, n: int, code: int, report: dict) -> str | None:
    if commutant_dim != 1:
        return f"the commutant has dimension {commutant_dim}: the document is reducible"
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    v = report["verdicts"]
    if v["irreducible"] is not True:
        return "verdict reducible, but the commutant is the scalars"
    if v["algebra_dimension"] != n * n:
        return f"algebra dimension {v['algebra_dimension']}, expected {n * n}"
    if v["routes_agree"] is not True:
        return "the lattice route disagrees"
    if v["witness"] is not None:
        return "an irreducible verdict carries a witness"
    return None


def block_sums(slices: list[slice], n: int) -> list[np.ndarray]:
    """Projectors onto every union of the planted blocks, the empty one first."""
    blocks = []
    for block in slices:
        p = np.zeros((n, n))
        p[block, block] = np.eye(block.stop - block.start)
        blocks.append(p)
    sums = []
    for mask in range(1 << len(blocks)):
        total = np.zeros((n, n))
        for b, p in enumerate(blocks):
            if mask >> b & 1:
                total += p
        sums.append(total)
    return sums


def check_intersect(
    sums: list[np.ndarray], contexts: int, members_per_context: int, code: int, report: dict
) -> str | None:
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    v = report["verdicts"]
    sizes = v["per_context_sizes"]
    if len(sizes) != contexts:
        return f"the verdict covers {len(sizes)} contexts, expected {contexts}"
    expected_size = 1 << members_per_context
    for name, size in sizes.items():
        if size != expected_size:
            return f"context {name} has {size} lattice elements, expected {expected_size}"
    if v["trivial"] is not False:
        return "intersection reported trivial despite the planted blocks"
    elements = v["intersection"]["elements"]
    if len(elements) != len(sums):
        return f"intersection has {len(elements)} elements, expected {len(sums)}"
    n = sums[0].shape[0]
    matched = set()
    for el in elements:
        basis = np.array([_complex_array(vec) for vec in el["basis"]]).reshape(-1, n).T
        p = basis @ basis.conj().T
        hits = [k for k, s in enumerate(sums) if np.linalg.norm(p - s) <= EPS_SUBSPACE]
        if len(hits) != 1:
            return f"element {el['label']} is no sum of planted blocks"
        matched.add(hits[0])
    if len(matched) != len(sums):
        return "intersection repeats an element and misses another"
    return None

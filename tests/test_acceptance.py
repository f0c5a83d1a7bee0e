"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import json
import time

import numpy as np
import pytest

import projlat as pl
from conftest import contains, kernel, ks18_collection, meet, random_rank1_context, span
from projlat import Subspace, TruthValue
from projlat.cli import main


def _check(number: int, name: str, fn):
    started = time.perf_counter()
    try:
        budget = fn()
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        print(f"[criterion {number}] {name}: FAIL (took {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget")
    print(f"[criterion {number}] {name}: PASS ({elapsed * 1000:.0f} ms)")


EXPECTED_LINES = {
    "z": [span([1, 0]), span([0, 1])],
    "x": [span([1, 1]), span([1, -1])],
    "y": [span([1, 1j]), span([1j, 1])],
}


def _subspace_from_json(element: dict) -> Subspace:
    vectors = [
        [complex(re, im) for re, im in vector] for vector in element["basis"]
    ]
    # The report's basis is orthonormal; an empty one is the zero subspace.
    return Subspace(2, np.array(vectors, dtype=complex).T)


def _assert_family_matches(name: str, family_json: dict):
    assert family_json["size"] == 4, f"lattice {name} must have four elements"
    elements = [_subspace_from_json(el) for el in family_json["elements"]]
    dims = sorted(el.dim for el in elements)
    assert dims == [0, 1, 1, 2]
    lines = [el for el in elements if el.dim == 1]
    for expected in EXPECTED_LINES[name]:
        assert any(expected.equals(line) for line in lines), (
            f"lattice {name} is missing an expected eigenline"
        )


def test_criterion_1_golden_demo(capsys):
    def run():
        code = main(["demo", "pauli", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        verdicts = report["verdicts"]
        for name in ("z", "x", "y"):
            _assert_family_matches(name, verdicts["lattices"][name])
        intersection = verdicts["intersection"]
        assert verdicts["intersection_trivial"] is True
        assert intersection["size"] == 2
        assert sorted(el["dim"] for el in intersection["elements"]) == [0, 2]
        return 1.0

    _check(1, "golden demo lattices and trivial intersection", run)


def test_criterion_2_state_valuation(pauli):
    def run():
        state = [1, 0]
        zctx = pauli.context_named("z")
        assert pl.valuate(state, zctx.members[0]) is TruthValue.ONE
        assert pl.valuate(state, zctx.members[1]) is TruthValue.ZERO
        cv = pl.valuate_context(state, zctx)
        assert cv.total == 1
        for name in ("x", "y"):
            for member in pauli.context_named(name).members:
                assert pl.valuate(state, member) is TruthValue.UNDEFINED
        report = pl.bivalence_report(state, pauli)
        assert set(report.undefined_labels) == {"P1_x", "P2_x", "P1_y", "P2_y"}
        return None

    _check(2, "state (1,0) valuation", run)


def test_criterion_3_algebra_saturation(pauli):
    def run():
        six = [entry.projector for entry in pauli.registry]
        report = pl.is_irreducible(six)
        assert report.algebra_dimension == 4
        assert report.irreducible
        pair = list(pauli.context_named("z").members)
        cross = pl.is_irreducible(pair)
        assert cross.algebra_dimension == 2
        assert not cross.irreducible
        coordinate_lines = [span([1, 0]), span([0, 1])]
        assert any(cross.witness.equals(line) for line in coordinate_lines)
        return 1.0

    _check(3, "algebra saturation and diagonal cross-check", run)


def test_criterion_4_lattice_property_suite():
    def run():
        rng = np.random.default_rng(2026)
        dims = [2, 3, 4] * 34  # 102 contexts, >= 100
        for index, dim in enumerate(dims[:100]):
            ctx = random_rank1_context(rng, dim, name=f"c{index}")
            family = pl.context_lattice(ctx)
            assert len(family) == 2 ** dim
            assert all(
                pl.is_invariant(el, member) for el in family.elements for member in ctx.members
            )
            ranges = [p.range() for p in ctx.members]
            kernels = [kernel(p) for p in ctx.members]
            for i in range(dim):
                for j in range(dim):
                    if i == j:
                        continue
                    assert meet(ranges[i], ranges[j]).dim == 0
                    assert meet(ranges[i], kernels[j]).equals(ranges[i])
                    assert meet(kernels[i], ranges[j]).equals(ranges[j])
                    rest = [k for k in range(dim) if k not in (i, j)]
                    if rest:
                        remainder = Subspace.column_space(
                            sum(ctx.members[k].matrix for k in rest)
                        )
                    else:
                        remainder = Subspace.zero(dim)
                    assert meet(kernels[i], kernels[j]).equals(remainder)
        return 10.0

    _check(4, "lattice properties on 100 random rank-1 contexts", run)


def test_criterion_5_shared_projector_consistency():
    def run():
        rng = np.random.default_rng(404)
        for _ in range(20):
            shared = rng.normal(size=3) + 1j * rng.normal(size=3)
            shared /= np.linalg.norm(shared)
            contexts = []
            for k in range(3):
                z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                z[:, 0] = shared
                q, _ = np.linalg.qr(z)
                q[:, 0] = shared
                contexts.append(
                    pl.context_from_basis([q[:, i] for i in range(3)], name=f"c{k}")
                )
            collection = pl.ContextCollection(contexts)
            families = [pl.context_lattice(ctx) for ctx in collection.contexts]
            meet = pl.intersect_lattices(families)
            assert not meet.is_trivial()
            assert contains(meet, span(shared))
            result = pl.search_noncontextual_assignment(collection)
            assert result.satisfiable
            shared_id = collection.identity_of(0, 0)
            assert result.assignment[shared_id] == 1
        return 5.0

    _check(5, "shared rank-1 projector: nontrivial intersection and SAT", run)


def test_criterion_6_impossibility_at_desk_scale():
    def parity_oracle(collection) -> bool:
        """UNSAT certificate: a valid assignment puts exactly one 1 in each
        of the 9 contexts, for an odd total over all (context, member) slots;
        but every identity occupies exactly two slots, so any assignment
        yields an even total. Returns True when UNSAT is forced."""
        slots_per_identity = [len(e.occurrences) for e in collection.registry]
        if any(count != 2 for count in slots_per_identity):
            return False
        return len(collection.contexts) % 2 == 1

    def run():
        collection = ks18_collection()
        assert collection.ambient_dim == 4
        assert len(collection.contexts) == 9
        assert len(collection.registry) == 18
        result = pl.search_noncontextual_assignment(collection)
        assert parity_oracle(collection), "oracle must force UNSAT"
        assert not result.satisfiable
        assert result.assignment is None
        assert result.nodes_explored > 0
        return 5.0

    _check(6, "18-ray 9-context set is UNSAT with parity oracle", run)


def test_criterion_7_oracle_agreement(pauli):
    def run():
        rng = np.random.default_rng(77)
        corpus = [
            [entry.projector.matrix for entry in pauli.registry],
            [p.matrix for p in pauli.context_named("z").members],
            [np.eye(2, dtype=complex)],
            [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)],
            [pauli.context_named("x").members[0].matrix],
            [pauli.context_named("y").members[1].matrix],
        ]
        for dim in (2, 3, 4):
            ctx = random_rank1_context(rng, dim)
            corpus.append([p.matrix for p in ctx.members])
        for dim in (3, 4):
            a = random_rank1_context(rng, dim)
            b = random_rank1_context(rng, dim)
            corpus.append([p.matrix for p in a.members + b.members])
        for generators in corpus:
            dim = generators[0].shape[0]
            saturated = pl.algebra_closure(generators).saturated
            witness = pl.invariant_subspace_witness(generators)
            assert (witness is None) == saturated, (
                "algebra verdict and witness search disagree"
            )
            if witness is not None:
                assert 0 < witness.dim < dim
                assert all(pl.is_invariant(witness, g) for g in generators)
        return 10.0

    _check(7, "algebra-dimension verdict agrees with witness search", run)


def _perturbed_pauli(scale: float, seed: int = 515) -> list[list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    exact = pl.pauli_contexts()
    perturbed = []
    for ctx in exact.contexts:
        row = []
        for p in ctx.members:
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            row.append(p.matrix + scale * noise)
        perturbed.append(row)
    return perturbed


def test_criterion_8_numerical_robustness(tmp_path, capsys):
    def run():
        # below threshold: every verdict from criteria 1-3 must be unchanged
        matrices = _perturbed_pauli(1e-12)
        contexts = []
        for name, row in zip(("z", "x", "y"), matrices):
            members = [
                pl.validate_projector(m, label=f"P{i + 1}_{name}")
                for i, m in enumerate(row)
            ]
            contexts.append(pl.validate_context(members, name=name))
        collection = pl.ContextCollection(contexts)

        families = {ctx.name: pl.context_lattice(ctx) for ctx in collection.contexts}
        for name, family in families.items():
            assert len(family) == 4
            lines = [el for el in family.elements if el.dim == 1]
            for expected in EXPECTED_LINES[name]:
                assert any(expected.equals(line) for line in lines)
        meet = pl.intersect_lattices(families.values())
        assert meet.is_trivial()

        state = [1, 0]
        zctx = collection.context_named("z")
        assert pl.valuate(state, zctx.members[0]) is TruthValue.ONE
        assert pl.valuate(state, zctx.members[1]) is TruthValue.ZERO
        for name in ("x", "y"):
            for member in collection.context_named(name).members:
                assert pl.valuate(state, member) is TruthValue.UNDEFINED

        report = pl.is_irreducible([e.projector for e in collection.registry])
        assert report.algebra_dimension == 4 and report.irreducible
        cross = pl.is_irreducible(list(zctx.members))
        assert cross.algebra_dimension == 2 and not cross.irreducible

        # above threshold: validation must reject, in the library and the CLI
        noisy = _perturbed_pauli(1e-3)
        with pytest.raises(pl.ValidationError):
            for row in noisy:
                for m in row:
                    pl.validate_projector(m)
        doc = {
            "dim": 2,
            "contexts": {
                name: [pl.document.matrix_to_json(m) for m in row]
                for name, row in zip(("z", "x", "y"), noisy)
            },
        }
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        return None

    _check(8, "1e-12 noise is absorbed, 1e-3 noise is rejected", run)

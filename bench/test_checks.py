"""Each benchmark check accepts the program's verdict and rejects wrong ones.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import workloads as w  # noqa: E402
from projlat import cli  # noqa: E402


def verdict(tmp_path, command: str, doc: dict) -> tuple[int, dict]:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([command, str(path), "--format", "json"])
    return code, json.loads(buffer.getvalue())


@pytest.fixture(scope="module")
def rng():
    return w.rng_for(7, 0)


def test_ks_search_check(tmp_path, rng):
    doc = w.ks_document(rng)
    certified = checks.parity_certificate(doc)
    assert certified
    code, report = verdict(tmp_path, "ks-search", doc)
    assert checks.check_ks_search(certified, code, report) is None

    sat = copy.deepcopy(report)
    sat["verdicts"]["status"] = "SAT"
    assert checks.check_ks_search(certified, 0, sat) is not None
    assert checks.check_ks_search(certified, 2, sat) is not None
    assert checks.check_ks_search(certified, 0, report) is not None
    with_assignment = copy.deepcopy(report)
    with_assignment["verdicts"]["assignment"] = []
    assert checks.check_ks_search(certified, 2, with_assignment) is not None
    assert checks.check_ks_search(False, code, report) is not None


def test_parity_certificate_needs_odd_groups_and_even_slots(rng):
    doc = w.ks_document(rng)
    eight = copy.deepcopy(doc)
    del eight["groups"]["c8"]
    assert not checks.parity_certificate(eight)
    # A copy of one ray under a new name is the same direction: it still
    # counts once per group, so the certificate must see through the name.
    renamed = copy.deepcopy(doc)
    renamed["rays"]["twin"] = renamed["rays"]["r00_0"]
    renamed["groups"]["c0"] = ["twin" if r == "r00_0" else r for r in doc["groups"]["c0"]]
    assert checks.parity_certificate(renamed)


def test_irreducible_check(tmp_path, rng):
    n = w.IRREDUCIBLE_DIM
    doc = w.irreducible_document(rng)
    dim = checks.expect_irreducible(doc)
    assert dim == 1
    code, report = verdict(tmp_path, "irreducible", doc)
    assert checks.check_irreducible(dim, n, code, report) is None

    for key, value in (
        ("irreducible", False),
        ("algebra_dimension", n * n - 1),
        ("routes_agree", False),
        ("witness", {"label": "witness", "dim": 1, "basis": []}),
    ):
        wrong = copy.deepcopy(report)
        wrong["verdicts"][key] = value
        assert checks.check_irreducible(dim, n, code, wrong) is not None, key
    assert checks.check_irreducible(dim, n, 1, report) is not None


def test_commutant_dimension_detects_reducible_documents(rng):
    n = w.IRREDUCIBLE_DIM
    doc = w.irreducible_document(rng)
    # The same basis twice: the commutant is the diagonal algebra of that basis.
    doc["rays"].update({f"b{i}": doc["rays"][f"a{i}"] for i in range(n)})
    assert checks.expect_irreducible(doc) == n
    irreducible = {
        "verdicts": {
            "irreducible": True,
            "algebra_dimension": n * n,
            "routes_agree": True,
            "witness": None,
        }
    }
    assert checks.check_irreducible(n, n, 0, irreducible) is not None
    blocks = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]
    assert checks.commutant_dimension(blocks) == 8


def test_intersect_check(tmp_path, rng):
    doc = w.intersect_document(rng)
    slices = w.block_slices()
    sums = checks.block_sums(slices, doc["dim"])
    contexts = w.INTERSECT_CONTEXTS
    members = sum(w.INTERSECT_BLOCK_MEMBERS)
    code, report = verdict(tmp_path, "intersect", doc)
    assert checks.check_intersect(sums, contexts, members, code, report) is None

    elements = report["verdicts"]["intersection"]["elements"]
    wrong_size = copy.deepcopy(report)
    wrong_size["verdicts"]["per_context_sizes"]["c1"] = (1 << members) - 1
    trivial = copy.deepcopy(report)
    trivial["verdicts"]["trivial"] = True
    missing = copy.deepcopy(report)
    missing["verdicts"]["intersection"]["elements"] = elements[:-1]
    repeated = copy.deepcopy(report)
    repeated["verdicts"]["intersection"]["elements"] = elements[:-1] + [elements[0]]
    off_block = copy.deepcopy(report)
    v = np.zeros(doc["dim"], dtype=complex)
    v[0] = v[-1] = 2**-0.5
    off_block["verdicts"]["intersection"]["elements"][1] = {
        "label": "off",
        "dim": 1,
        "basis": [w.vector_json(v)],
    }
    dropped = copy.deepcopy(report)
    del dropped["verdicts"]["per_context_sizes"]["c2"]
    for wrong in (wrong_size, trivial, missing, repeated, off_block, dropped):
        assert checks.check_intersect(sums, contexts, members, code, wrong) is not None
    assert checks.check_intersect(sums, contexts, members, 3, report) is not None

import json

import numpy as np
import pytest

import projlat as pl
from conftest import ks18_document, random_rank1_context


def pauli_matrix_document(pauli):
    return pl.collection_to_document(pauli)


def test_matrix_form_parses(pauli):
    collection, tol = pl.parse_document(pauli_matrix_document(pauli))
    assert collection.ambient_dim == 2
    assert collection.context_names == ("z", "x", "y")
    assert tol == pl.DEFAULT_TOLERANCES


def test_ray_form_matches_matrix_form(pauli):
    s = 1 / np.sqrt(2)
    doc = {
        "dim": 2,
        "rays": {
            "up": [[1, 0], [0, 0]],
            "down": [[0, 0], [1, 0]],
            "plus": [[2, 0], [2, 0]],  # unnormalized on purpose
            "minus": [[s, 0], [-s, 0]],
        },
        "groups": {"z": ["up", "down"], "x": ["plus", "minus"]},
    }
    collection, _ = pl.parse_document(doc)
    expected = pl.pauli_contexts()
    for name in ("z", "x"):
        got = collection.context_named(name)
        want = expected.context_named(name)
        for gp, wp in zip(got.members, want.members):
            assert np.allclose(gp.matrix, wp.matrix)
    assert got.labels == ("plus", "minus")


def test_eighteen_ray_document_parses():
    collection, _ = pl.parse_document(ks18_document())
    assert collection.ambient_dim == 4
    assert len(collection) == 9
    assert len(collection.registry) == 18
    for entry in collection.registry:
        assert len(entry.occurrences) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("dim"),
        lambda d: d.update(dim=0),
        lambda d: d.update(dim=2.5),
        lambda d: d.pop("groups"),
        lambda d: d.update(contexts={}),
        lambda d: d["groups"].update(bad=["nope"]),
        lambda d: d["rays"].update(short=[[1, 0]]),
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = {
        "dim": 2,
        "rays": {"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {"z": ["a", "b"]},
    }
    mutate(doc)
    with pytest.raises(pl.ParseError):
        pl.parse_document(doc)


def test_wrong_ray_length_rejected():
    doc = {
        "dim": 2,
        "rays": {"a": [[1, 0], [0, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {"z": ["a", "b"]},
    }
    with pytest.raises(pl.ParseError):
        pl.parse_document(doc)


def test_zero_ray_rejected():
    doc = {
        "dim": 2,
        "rays": {"a": [[0, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {"z": ["a", "b"]},
    }
    with pytest.raises(pl.ValidationError):
        pl.parse_document(doc)


def test_axiom_failure_carries_context_name(pauli):
    z = pauli.context_named("z").members
    x = pauli.context_named("x").members
    doc = {
        "dim": 2,
        "contexts": {
            "bad": [
                pl.document.matrix_to_json(z[0].matrix),
                pl.document.matrix_to_json(x[0].matrix),
            ]
        },
    }
    with pytest.raises(pl.PairwiseProductNonzeroError) as excinfo:
        pl.parse_document(doc)
    assert excinfo.value.context == "bad"


def test_tolerance_fields_and_overrides():
    doc = {
        "dim": 2,
        "eps_entry": 1e-6,
        "eps_subspace": 1e-5,
        "contexts": {
            "z": [
                [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            ]
        },
    }
    _, tol = pl.parse_document(doc)
    assert tol.eps_entry == 1e-6
    _, tol = pl.parse_document(doc, {"eps_entry": 1e-5, "eps_subspace": None})
    assert tol.eps_entry == 1e-5
    assert tol.eps_subspace == 1e-5
    with pytest.raises(pl.ParseError):
        pl.parse_document({**doc, "eps_entry": 1.0})  # breaks the ordering


def test_round_trip_preserves_matrices_and_registry(pauli):
    rng = np.random.default_rng(113)
    collections = [pauli]
    for dim in (2, 3):
        contexts = [random_rank1_context(rng, dim, name=f"c{k}") for k in range(3)]
        collections.append(pl.ContextCollection(contexts))
    for original in collections:
        encoded = json.loads(json.dumps(pl.collection_to_document(original)))
        parsed, _ = pl.parse_document(encoded)
        assert parsed.context_names == original.context_names
        for a, b in zip(original.contexts, parsed.contexts):
            for pa, pb in zip(a.members, b.members):
                assert np.array_equal(pa.matrix, pb.matrix)
        assert [e.occurrences for e in parsed.registry] == [
            e.occurrences for e in original.registry
        ]


def test_save_and_load_file(pauli, tmp_path):
    path = tmp_path / "pauli.json"
    pl.save_document(pauli, path, tol=pl.DEFAULT_TOLERANCES)
    collection, tol = pl.load_document(path)
    assert collection.context_names == pauli.context_names
    assert tol == pl.DEFAULT_TOLERANCES


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(pl.ParseError):
        pl.load_document(path)


DUPLICATE_CONTEXTS = """{"dim": 2, "contexts": {
  "z": [[[[1,0],[0,0]],[[0,0],[0,0]]], [[[0,0],[0,0]],[[0,0],[1,0]]]],
  "z": [[[[0.5,0],[0.5,0]],[[0.5,0],[0.5,0]]], [[[0.5,0],[-0.5,0]],[[-0.5,0],[0.5,0]]]]
}}"""

DUPLICATE_RAYS = """{"dim": 2,
  "rays": {"a": [[1,0],[0,0]], "b": [[0,0],[1,0]], "a": [[1,0],[1,0]]},
  "groups": {"z": ["a", "b"]}
}"""


@pytest.mark.parametrize(
    "text, key", [(DUPLICATE_CONTEXTS, "'z'"), (DUPLICATE_RAYS, "'a'")], ids=["contexts", "rays"]
)
def test_duplicate_keys_rejected(tmp_path, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(pl.ParseError, match=f"duplicate key {key}"):
        pl.load_document(path)

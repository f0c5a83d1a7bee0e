import gc
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


def test_matrix_dim_is_not_trusted_before_member_zero_parses():
    # A stack of 10^8 x 10^8 matrices would not fit in the address space.
    doc = {"dim": 10**8, "contexts": {"z": [[[[1, 0]]]]}}
    with pytest.raises(pl.ParseError) as info:
        pl.parse_document(doc)
    assert str(info.value) == (
        "contexts[z][0]: expected a 100000000x100000000 matrix as 100000000 rows"
    )


def test_member_count_is_not_trusted_before_the_members_parse():
    # One 300 x 300 projector and 10^5 entries that are not matrices: a
    # stack for every entry would take 144 GB.
    first = np.zeros((300, 300))
    first[0, 0] = 1
    doc = {"dim": 300, "contexts": {"z": [pl.document.matrix_to_json(first)] + [0] * 10**5}}
    with pytest.raises(pl.ParseError) as info:
        pl.parse_document(doc)
    assert str(info.value) == "contexts[z][1]: expected a 300x300 matrix as 300 rows"


def test_ray_dim_is_not_trusted_before_a_ray_parses():
    # Ten rays of 10^13 entries would not fit in the address space.
    rays = {f"r{k}": [[1, 0]] for k in range(10)}
    doc = {"dim": 10**13, "rays": rays, "groups": {"g": list(rays)}}
    with pytest.raises(pl.ParseError) as info:
        pl.parse_document(doc)
    assert str(info.value) == "rays[r0]: expected a vector of 10000000000000 [re, im] pairs"


def test_ray_walk_keeps_document_order():
    # Ray b does not parse, so the rays are walked one by one: the zero ray
    # before it raises first, and a bad ray before a zero ray does.
    rays = {"a": [[0, 0], [0, 0]], "b": [[1, 0]]}
    with pytest.raises(pl.ValidationError, match="ray 'a' has zero norm"):
        pl.parse_document({"dim": 2, "rays": rays, "groups": {"z": ["a", "b"]}})
    rays = {"b": [[1, 0]], "a": [[0, 0], [0, 0]]}
    with pytest.raises(pl.ParseError, match=r"rays\[b\]: expected a vector of 2"):
        pl.parse_document({"dim": 2, "rays": rays, "groups": {"z": ["a", "b"]}})


@pytest.mark.parametrize("scale", [1e200, 1e308, 1e-200, 1e-320])
def test_ray_scale_does_not_matter(scale):
    # The plain norm of these rays overflows or underflows.
    def doc(s):
        rays = {"a": [[s, 0], [0, s]], "b": [[1, 0], [0, -1]]}
        return {"dim": 2, "rays": rays, "groups": {"z": ["a", "b"]}}

    got, _ = pl.parse_document(doc(scale))
    want, _ = pl.parse_document(doc(1.0))
    for g, w in zip(got.contexts[0].members, want.contexts[0].members):
        assert g.matrix.tobytes() == w.matrix.tobytes()


def oracle_unit_rays(rows):
    """Each ray divided by one ``np.linalg.norm``, rescaled first when that
    norm overflows or underflows."""
    out = []
    with np.errstate(over="ignore"):
        for row in rows:
            row = row.copy()
            norm = float(np.linalg.norm(row))
            if not 0.0 < norm < np.inf:
                parts = row.view(np.float64)
                parts /= np.abs(parts).max()
                norm = float(np.linalg.norm(row))
            out.append(row / norm)
    return np.array(out)


@pytest.mark.parametrize("seed", range(10))
def test_ray_norms_match_numpy_bit_for_bit(seed):
    # Plain rays, and rays whose plain norm overflows or underflows.
    rng = np.random.default_rng(1700 + seed)
    dim = int(rng.integers(1, 40))
    scales = (1.0, 1e-3, 1e3, 1e160, 1e200, 1e305, 1e-170, 1e-200, 1e-310)
    rows = np.array(
        [(rng.normal(size=dim) + 1j * rng.normal(size=dim)) * scale for scale in scales]
    )
    with np.errstate(over="ignore"):
        for row in rows:
            assert pl.document._norm(row) == np.linalg.norm(row)
    rays = {f"r{k}": pl.document.matrix_to_json(row) for k, row in enumerate(rows)}
    got = pl.document._unit_rays(rays, dim)
    assert got.tobytes() == oracle_unit_rays(rows).tobytes()


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("eps_subspace", float("inf"), "be finite"),
        ("eps_entry", float("inf"), "tolerances must satisfy"),
        ("eps_rank", True, "'eps_rank' must be a number"),
        ("eps_subspace", False, "'eps_subspace' must be a number"),
    ],
)
def test_non_finite_and_boolean_tolerance_fields_are_rejected(field, value, message):
    # Before, an infinite eps_subspace gave the Pauli z and x contexts one
    # registry identity, and "eps_rank": true read as 1.0.
    z = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
    doc = {"dim": 2, "contexts": {"z": z}, field: value}
    with pytest.raises(pl.ParseError, match=message):
        pl.parse_document(doc)


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


@pytest.mark.parametrize(
    "entry", [["a"], {"name": "a"}, 5, None, True], ids=["list", "object", "int", "null", "bool"]
)
def test_non_string_ray_name_rejected(entry):
    doc = {
        "dim": 2,
        "rays": {"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {"z": ["a", "b"], "w": ["b", entry]},
    }
    with pytest.raises(pl.ParseError) as info:
        pl.parse_document(doc)
    assert str(info.value) == f"group 'w'[1]: expected a ray name string, got {entry!r}"


class TestCollectorPause:
    """``load_document`` decodes with the cyclic collector off and restores it."""

    def _write(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return path

    def test_collector_is_off_while_decoding(self, pauli, tmp_path, monkeypatch):
        seen = []
        unique_keys = pl.document._unique_keys

        def recording(pairs):
            seen.append(gc.isenabled())
            return unique_keys(pairs)

        monkeypatch.setattr(pl.document, "_unique_keys", recording)
        path = self._write(tmp_path, json.dumps(pauli_matrix_document(pauli)))
        assert gc.isenabled()
        pl.load_document(path)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_state_kept_after_a_parse_error(self, tmp_path):
        for text in (DUPLICATE_RAYS, "{not json"):
            path = self._write(tmp_path, text)
            with pytest.raises(pl.ParseError):
                pl.load_document(path)
            assert gc.isenabled()

    def test_no_collection_during_or_after_a_load(self, tmp_path):
        # Three contexts of six rank-2 members of C^12 decode to about 2,800
        # lists, four times the first collection threshold. The collector
        # stays off through the checks, and the lists are dropped before it
        # resumes, so neither the load nor the allocations after it set off
        # a collection.
        rng = np.random.default_rng(2730)
        contexts = {}
        for name in "abc":
            frame = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))[0]
            contexts[name] = [
                pl.document.matrix_to_json(frame[:, k : k + 2] @ frame[:, k : k + 2].conj().T)
                for k in range(0, 12, 2)
            ]
        path = self._write(tmp_path, json.dumps({"dim": 12, "contexts": contexts}))
        collections = []

        def record(phase, info):
            collections.append(phase)

        gc.collect()
        gc.callbacks.append(record)
        try:
            pl.load_document(path)
            allocated = [[] for _ in range(100)]
        finally:
            gc.callbacks.remove(record)
        assert collections == [] and len(allocated) == 100
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, pauli, tmp_path):
        path = self._write(tmp_path, json.dumps(pauli_matrix_document(pauli)))
        gc.disable()
        try:
            pl.load_document(path)
            assert not gc.isenabled()
            with pytest.raises(pl.ParseError):
                pl.load_document(self._write(tmp_path, DUPLICATE_RAYS))
            assert not gc.isenabled()
        finally:
            gc.enable()


# The per-entry parser that decoded every payload before the one-call path;
# kept as the oracle for values and for error messages.
def oracle_parse_complex(entry, where):
    from numbers import Real

    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(part, Real) for part in entry)
    ):
        raise pl.ParseError(f"{where}: expected a [re, im] number pair, got {entry!r}")
    try:
        value = complex(entry[0], entry[1])
    except OverflowError:
        raise pl.ParseError(f"{where}: entries must lie within the float range") from None
    if not np.isfinite(value):
        raise pl.ParseError(f"{where}: entries must be finite")
    return value


def oracle_parse_vector(obj, dim, where):
    if not isinstance(obj, list) or len(obj) != dim:
        raise pl.ParseError(f"{where}: expected a vector of {dim} [re, im] pairs")
    return np.array(
        [oracle_parse_complex(entry, f"{where}[{i}]") for i, entry in enumerate(obj)]
    )


def oracle_parse_matrix(obj, dim, where):
    if not isinstance(obj, list) or len(obj) != dim:
        raise pl.ParseError(f"{where}: expected a {dim}x{dim} matrix as {dim} rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise pl.ParseError(f"{where}[{r}]: expected a row of {dim} [re, im] pairs")
        rows.append([oracle_parse_complex(e, f"{where}[{r}][{c}]") for c, e in enumerate(row)])
    return np.array(rows)


def _outcome(parse, obj, dim):
    """The parsed bytes, or the exception type and message."""
    try:
        arr = parse(obj, dim, "m")
    except Exception as exc:  # the oracle may raise more than ParseError
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


SPECIAL_VALUES = [
    0.0, -0.0, True, False, 0, -1, 2**53 + 1, -(2**62) - 3, 2**63 - 1,
    2**63, 2**63 + 1025, 2**64 - 1, 1e308, -1e308, 5e-324, -2.5e-310, 1e-300,
]


def _special_entries(rng, count):
    """[re, im] pairs mixing plain floats with the special values above."""
    entries = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            if rng.random() < 0.5:
                pair.append(SPECIAL_VALUES[int(rng.integers(len(SPECIAL_VALUES)))])
            else:
                pair.append(float(rng.normal()))
        entries.append(pair)
    return entries


class TestOneCallDecode:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_entry_parser(self, seed):
        rng = np.random.default_rng(1600 + seed)
        dim = int(rng.integers(1, 7))
        entries = _special_entries(rng, dim * dim + dim)
        matrix = [entries[r * dim : (r + 1) * dim] for r in range(dim)]
        vector = entries[dim * dim :]
        # Through JSON text too, as load_document sees a document.
        for m, v in ((matrix, vector), json.loads(json.dumps([matrix, vector]))):
            assert pl.document._decode(m, (dim, dim, 2)) is not None
            assert pl.document._decode(v, (dim, 2)) is not None
            got = _outcome(pl.document._parse_matrix, m, dim)
            assert got == _outcome(oracle_parse_matrix, m, dim)
            assert got[0] == np.complex128
            assert _outcome(pl.document._parse_vector, v, dim) == _outcome(
                oracle_parse_vector, v, dim
            )

    def test_signed_zeros_survive(self):
        parsed = pl.document._parse_vector([[-0.0, -0.0], [0.0, -0.0]], 2, "v")
        assert list(np.signbit(parsed.real)) == [True, False]
        assert list(np.signbit(parsed.imag)) == [True, True]

    def test_documents_parse_to_the_same_bytes(self, pauli):
        doc = pl.collection_to_document(pauli)
        doc["contexts"]["z"][0][1][0] = [-0.0, -0.0]
        doc["contexts"]["z"][1][0][1] = [0, -0.0]
        collection, _ = pl.parse_document(doc)
        for ctx, matrices in zip(collection.contexts, doc["contexts"].values()):
            for member, matrix in zip(ctx.members, matrices):
                want = oracle_parse_matrix(matrix, 2, "m")
                assert member.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            ["1.0", 0.0],
            [None, 0.0],
            [1.0, 0.0, 0.0],
            [1.0],
            [],
            [float("nan"), 0.0],
            [0.0, float("inf")],
            [-float("inf"), 0.0],
            {"re": 1.0, "im": 0.0},
            [[1.0, 0.0], 0.0],
            [{"x": 1}, 0.0],
            [2**64, 0.0],
            [0.0, 2**70 + 1],
            [10**400, 0.0],
            "ab",
            None,
            1.0,
        ],
        ids=lambda bad: repr(bad)[:24],
    )
    def test_bad_entries_fail_as_before(self, bad):
        rng = np.random.default_rng(1660)
        for dim in (1, 3):
            entries = [[float(x), float(y)] for x, y in rng.normal(size=(dim * dim, 2))]
            entries[-1] = bad
            matrix = [entries[r * dim : (r + 1) * dim] for r in range(dim)]
            vector = entries[-dim:]
            want = _outcome(oracle_parse_matrix, matrix, dim)
            assert _outcome(pl.document._parse_matrix, matrix, dim) == want
            want = _outcome(oracle_parse_vector, vector, dim)
            assert _outcome(pl.document._parse_vector, vector, dim) == want

    @pytest.mark.parametrize(
        "matrix",
        [
            [[[1, 0], [0, 0]], [[0, 0]]],  # ragged rows
            [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]],  # a 3-element pair
            [[[1, 0], [0, 0]]],  # too few rows
            [[[1, 0], [0, 0]], "ab"],
            [[[1, 0], [0, 0]], None],
            [[[1, 0], [0, 0]], {"a": 1, "b": 2}],
            [[[1, 0], [0, 0]], [[[0, 0]], [1, 0]]],  # a pair nested one level deeper
            [[[1, 0], [0, 0]], [[0, 0], [True, "x"]]],
            "not a matrix",
        ],
    )
    def test_malformed_matrices_fail_as_before(self, matrix):
        want = _outcome(oracle_parse_matrix, matrix, 2)
        assert want[0] is pl.ParseError
        assert _outcome(pl.document._parse_matrix, matrix, 2) == want


# The per-entry encoder the writers used before they encoded in one call.
def oracle_complex_to_json(value):
    return [float(value.real), float(value.imag)]


def oracle_matrix_to_json(matrix):
    return [[oracle_complex_to_json(e) for e in row] for row in np.asarray(matrix, dtype=complex)]


def oracle_vector_to_json(vector):
    return [oracle_complex_to_json(e) for e in np.asarray(vector, dtype=complex)]


ENCODED_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e308, -5e-324, 2.5e-310]


class TestOneCallEncode:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_per_entry_encoder(self, seed):
        rng = np.random.default_rng(1700 + seed)
        rows, cols = int(rng.integers(0, 6)), int(rng.integers(1, 6))
        parts = rng.normal(size=(2, rows, cols))
        special = rng.random(size=parts.shape) < 0.3
        parts[special] = rng.choice(ENCODED_SPECIALS, size=int(special.sum()))
        matrix = np.empty((rows, cols), dtype=complex)
        matrix.real, matrix.imag = parts
        integers = rng.integers(-3, 4, size=(rows, cols))
        for m in (matrix, matrix.T, parts[0], integers):
            assert json.dumps(pl.document.matrix_to_json(m)) == json.dumps(
                oracle_matrix_to_json(m)
            )
            for row in np.asarray(m):
                assert json.dumps(pl.document.matrix_to_json(row)) == json.dumps(
                    oracle_vector_to_json(row)
                )

    def test_signed_zeros_and_nan_survive(self):
        v = np.empty(3, dtype=complex)
        v.real, v.imag = [-0.0, 0.0, -np.inf], [-0.0, np.nan, 1.0]
        assert json.dumps(pl.document.matrix_to_json(v)) == "[[-0.0, -0.0], [0.0, NaN], [-Infinity, 1.0]]"

    def test_saved_documents_keep_their_bytes(self, pauli, tmp_path):
        doc = pl.collection_to_document(pauli)
        want = {
            ctx.name: [oracle_matrix_to_json(p.matrix) for p in ctx.members]
            for ctx in pauli.contexts
        }
        assert json.dumps(doc["contexts"]) == json.dumps(want)

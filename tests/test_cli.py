import json
import re
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import projlat as pl
from conftest import dense_residuals, ks18_document, zero_member_ks18_document
from projlat import cli
from projlat.cli import main


@pytest.fixture()
def pauli_file(pauli, tmp_path):
    path = tmp_path / "pauli.json"
    pl.save_document(pauli, path)
    return str(path)


@pytest.fixture()
def ks18_file(tmp_path):
    path = tmp_path / "ks18.json"
    path.write_text(json.dumps(ks18_document()))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(pauli_file, capsys):
    code, report = run_json(capsys, ["validate", pauli_file])
    assert code == 0
    assert report["command"] == "validate"
    assert report["verdicts"]["valid"] is True
    assert report["verdicts"]["registry_size"] == 6
    assert set(report["residuals"]) == {"z", "x", "y"}


def test_validate_text_output(pauli_file, capsys):
    assert main(["validate", pauli_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "context z" in out


def test_validate_rejects_non_context(tmp_path, capsys):
    doc = {
        "dim": 2,
        "contexts": {
            "bad": [
                [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
            ]
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "annihilate" in err


def test_parse_failure_exits_one(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 1


def test_non_string_ray_name_is_a_json_error_report(tmp_path, capsys):
    doc = {"dim": 1, "rays": {"a": [[1, 0]], "b": [[1, 0]]}, "groups": {"z": [["a"], "b"]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["ks-search", str(path)])
    assert code == 1
    assert report == {
        "command": "ks-search",
        "error": "group 'z'[0]: expected a ray name string, got ['a']",
        "exit_code": 1,
    }


def test_integer_past_the_float_range_is_a_json_error_report(tmp_path, capsys):
    rays = {"a": [[10**400, 0], [0, 0]], "b": [[0, 0], [1, 0]]}
    doc = {"dim": 2, "rays": rays, "groups": {"z": ["a", "b"]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert report == {
        "command": "validate",
        "error": "rays[a][0]: entries must lie within the float range",
        "exit_code": 1,
    }


def test_non_utf8_document_is_an_error_report(tmp_path, capsys):
    # A ray named "a\xff", whose bytes are not UTF-8.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "rays": {"a\xff": [[1, 0]]}, "groups": {"z": ["a\xff"]}}')
    assert main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: not UTF-8: ")
    assert main(["validate", str(path), "--format", "json"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["command"] == "validate" and report["exit_code"] == 1
    assert report["error"] == err[len("error: ") : -1]


def test_context_whose_ranks_miss_the_dimension_is_an_error_report(tmp_path, capsys):
    # Member a[0] = diag(1, 5e-10) passes the checks within eps_entry but has
    # rank 2 under eps_rank: ranks [2, 1] in C^2. Every command rejects the
    # document at load with one error line.
    doc = {
        "dim": 2,
        "contexts": {
            "a": [
                pl.document.matrix_to_json(np.diag([1, 5e-10])),
                pl.document.matrix_to_json(np.diag([0, 1 - 5e-10])),
            ],
            "x": [
                pl.document.matrix_to_json(np.full((2, 2), 0.5)),
                pl.document.matrix_to_json(np.array([[0.5, -0.5], [-0.5, 0.5]])),
            ],
        },
    }
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(doc))
    error = "context 'a': member ranks [2, 1] sum to 3, not to the dimension 2"
    for command in ("validate", "lattice", "intersect", "irreducible", "ks-search"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        code = main([command, str(path), "--format", "json"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        assert json.loads(lines[0]) == {"command": command, "error": error, "exit_code": 1}


def _overlapping_fourier_members(n=32):
    """The Fourier basis of C^n with f_1 turned towards f_0 by 1.1e-8, as projectors."""
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    f[:, 1] += 1.1e-8 * f[:, 0]
    f[:, 1] /= np.linalg.norm(f[:, 1])
    return [np.outer(f[:, k], f[:, k].conj()) for k in range(n)]


OVERLAP_ERROR = "context 'f': members 0 and 1 overlap: |Qi^H Qj|_F = 1.100e-08 > 1.000e-08"


def test_context_whose_atoms_overlap_is_an_error_report(tmp_path, capsys):
    # The Fourier basis of C^32 with f_1 turned towards f_0 by 1.1e-8: each
    # |Pi Pj| entry is about |<f_0, f_1>| / n, within eps_entry, but the
    # ranges overlap by 1.1e-8 > eps_subspace, which intersect_lattices
    # rejects. Every command rejects the document at load with one error line.
    n = 32
    members = _overlapping_fourier_members(n)
    residuals = dense_residuals(members)
    assert max(residuals.values()) < pl.TolerancePolicy().eps_entry
    doc = {
        "dim": n,
        "contexts": {
            "f": [pl.document.matrix_to_json(m) for m in members],
            "e": [pl.document.matrix_to_json(np.diag(np.eye(n)[k])) for k in range(n)],
        },
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    error = OVERLAP_ERROR
    for command in ("validate", "intersect", "irreducible", "ks-search"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        code = main([command, str(path), "--format", "json"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        assert json.loads(lines[0]) == {"command": command, "error": error, "exit_code": 1}


def test_validate_context_applies_the_overlap_rule():
    # The same members through the library path: validate_context raises
    # the document's error, so no collection of them reaches intersect_lattices.
    members = [pl.validate_projector(m, label=f"f[{k}]")
               for k, m in enumerate(_overlapping_fourier_members())]
    with pytest.raises(pl.ValidationError) as info:
        pl.validate_context(members, name="f")
    assert type(info.value) is pl.ValidationError and str(info.value) == OVERLAP_ERROR
    # The coordinate basis passes; each member keeps its read-only range.
    ctx = pl.validate_context([pl.validate_projector(np.diag(np.eye(32)[k])) for k in range(32)])
    assert all(p._range.shape == (32, 1) and not p._range.flags.writeable for p in ctx.members)


def test_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize(
    "text, error",
    [
        ("[]", "document root must be a JSON object"),
        ('{"dim": 2, "contexts": {}}', "'contexts' must be a non-empty object"),
        ('{"dim": 2, "contexts": {"z": []}}', "context 'z' must be a non-empty array of matrices"),
        ('{"dim": 2, "rays": {}, "groups": {"z": ["a"]}}', "'rays' must be a non-empty object"),
    ],
    ids=["root", "contexts", "context", "rays"],
)
def test_document_of_the_wrong_shape_is_a_json_error_report(tmp_path, capsys, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", str(path), "--format", "json"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"command": "validate", "error": error, "exit_code": 1}


def test_lattice_command(pauli_file, capsys):
    code, report = run_json(capsys, ["lattice", pauli_file])
    assert code == 0
    lattices = report["verdicts"]["lattices"]
    assert set(lattices) == {"z", "x", "y"}
    assert all(fam["size"] == 4 for fam in lattices.values())


def test_lattice_single_context(pauli_file, capsys):
    code, report = run_json(capsys, ["lattice", pauli_file, "--context", "x"])
    assert code == 0
    assert set(report["verdicts"]["lattices"]) == {"x"}


def test_kept_parser_leaks_no_argument_between_calls(pauli_file, capsys):
    code, report = run_json(capsys, ["lattice", pauli_file, "--context", "x"])
    assert code == 0 and set(report["verdicts"]["lattices"]) == {"x"}
    code, report = run_json(capsys, ["lattice", pauli_file])
    assert code == 0 and set(report["verdicts"]["lattices"]) == {"z", "x", "y"}
    assert main(["lattice", pauli_file, "--context", "y", "--eps-entry", "1e-8"]) == 0
    assert "lattice y:" in capsys.readouterr().out
    code, report = run_json(capsys, ["lattice", pauli_file])
    assert set(report["verdicts"]["lattices"]) == {"z", "x", "y"}
    assert cli._parser() is cli._parser()


def test_lattice_unknown_context(pauli_file, capsys):
    assert main(["lattice", pauli_file, "--context", "w"]) == 1


def test_lattice_cap_exits_three(tmp_path, capsys):
    dim = 21
    basis = np.eye(dim)
    doc = {
        "dim": dim,
        "rays": {f"r{i}": [[float(x), 0.0] for x in basis[i]] for i in range(dim)},
        "groups": {"big": [f"r{i}" for i in range(dim)]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["lattice", str(path)]) == 3


def test_intersect_command(pauli_file, capsys):
    code, report = run_json(capsys, ["intersect", pauli_file])
    assert code == 0
    assert report["verdicts"]["trivial"] is True
    assert report["verdicts"]["intersection"]["size"] == 2


def test_irreducible_command(pauli_file, capsys):
    code, report = run_json(capsys, ["irreducible", pauli_file])
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["algebra_dimension"] == 4
    assert verdicts["irreducible"] is True
    assert verdicts["lattice_intersection_trivial"] is True
    assert verdicts["routes_agree"] is True
    assert verdicts["witness"] is None


def test_irreducible_reducible_document(tmp_path, capsys):
    doc = {
        "dim": 2,
        "rays": {"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {"z": ["a", "b"]},
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["irreducible", str(path)])
    assert code == 0
    assert report["verdicts"]["irreducible"] is False
    assert report["verdicts"]["witness"]["dim"] == 1


def test_irreducible_survives_lattice_cap(pauli, tmp_path, capsys):
    # 21 members, but rank-0 members are not atoms: the cap counts 2 here,
    # and the lattice route reports beside the algebra
    doc = pl.collection_to_document(pauli)
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    big = doc["contexts"]["z"] + [zero] * 19
    doc["contexts"] = {"x": doc["contexts"]["x"], "big": big}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["irreducible", str(path)])
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["irreducible"] is True
    assert verdicts["algebra_dimension"] == 4
    assert verdicts["lattice_intersection_trivial"] is True
    assert verdicts["routes_agree"] is True
    assert main(["irreducible", str(path)]) == 0
    assert "lattice intersection trivial: yes" in capsys.readouterr().out


def haar_bases_document(rng, dim):
    """Two Haar-random orthonormal bases of C^dim as ray groups."""
    rays, groups = {}, {}
    for g in range(2):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        groups[f"b{g}"] = [f"b{g}r{k}" for k in range(dim)]
        for k in range(dim):
            rays[f"b{g}r{k}"] = [[float(x.real), float(x.imag)] for x in q[:, k]]
    return {"dim": dim, "rays": rays, "groups": groups}


def test_intersect_past_the_member_cap(tmp_path, capsys):
    # Two contexts of 21 atoms each: only the 2-element meet is listed.
    path = tmp_path / "haar21.json"
    path.write_text(json.dumps(haar_bases_document(np.random.default_rng(2300), 21)))
    code, report = run_json(capsys, ["intersect", str(path)])
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["per_context_sizes"] == {"b0": 2**21, "b1": 2**21}
    assert verdicts["intersection"]["size"] == 2
    assert [el["dim"] for el in verdicts["intersection"]["elements"]] == [0, 21]
    assert verdicts["trivial"] is True


def test_valuate_command(pauli_file, capsys):
    code, report = run_json(capsys, ["valuate", pauli_file, "--state", "1,0;0,0"])
    assert code == 0
    contexts = report["verdicts"]["contexts"]
    assert contexts["z"]["values"] == [1, 0]
    assert contexts["z"]["sum"] == 1
    assert contexts["x"]["values"] == [None, None]
    assert contexts["x"]["sum"] is None
    assert report["verdicts"]["bivalent"] is False
    # matrix-form documents carry no member labels, so ingest regenerates them
    assert set(report["verdicts"]["undefined"]) == {"x[0]", "x[1]", "y[0]", "y[1]"}


def test_valuate_bad_state_flag(pauli_file, capsys):
    assert main(["valuate", pauli_file, "--state", "1;0"]) == 1
    assert main(["valuate", pauli_file, "--state", "a,b;c,d"]) == 1


def test_valuate_zero_state(pauli_file, capsys):
    assert main(["valuate", pauli_file, "--state", "0,0;0,0"]) == 1


def test_ks_search_sat(pauli_file, capsys):
    code, report = run_json(capsys, ["ks-search", pauli_file])
    assert code == 0
    assert report["verdicts"]["status"] == "SAT"
    ones = [e["label"] for e in report["verdicts"]["assignment"] if e["value"] == 1]
    assert ones == ["z[0]", "x[0]", "y[0]"]
    assert report["verdicts"]["parity_certificate"] is None


def test_ks_search_unsat_exits_two(ks18_file, capsys):
    code, report = run_json(capsys, ["ks-search", ks18_file])
    assert code == 2
    assert report["verdicts"]["status"] == "UNSAT"
    assert report["verdicts"]["assignment"] is None
    assert report["verdicts"]["parity_certificate"] == [f"c{k}" for k in range(9)]


def test_ks_search_never_values_a_zero_member_one(tmp_path, capsys):
    path = tmp_path / "zero-member.json"
    path.write_text(json.dumps(zero_member_ks18_document()))
    code, report = run_json(capsys, ["ks-search", str(path)])
    assert code == 2
    assert report["verdicts"]["status"] == "UNSAT"
    assert report["verdicts"]["assignment"] is None
    assert report["verdicts"]["parity_certificate"] is None


def test_ks_search_reports_how_tolerances_are_used(ks18_file, capsys):
    _, report = run_json(capsys, ["ks-search", ks18_file])
    assert "validate the document" in report["verdicts"]["note"]
    assert main(["ks-search", ks18_file]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "assignment search: UNSAT (44 nodes explored)"
    assert lines[1] == "parity certificate: " + ", ".join(f"c{k}" for k in range(9))
    assert lines[2] == "note: " + report["verdicts"]["note"]


def test_ks_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    doc = {
        "dim": 2,
        "rays": {"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
        "groups": {f"g{k:04d}": ["a", "b"] for k in range(2000)},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["ks-search", str(path)])
    assert code == 0
    assert report["verdicts"]["status"] == "SAT"
    # Ray a lies in every group, so choosing it covers all 2,000 at once.
    assert report["verdicts"]["nodes_explored"] == 1


def test_ks_search_on_disjoint_bases_needs_a_deep_stack(tmp_path, capsys):
    # 2,000 random bases of C^2 that share no ray: the cover takes one
    # choice per basis, 2,000 frames deep. The search must find each next
    # basis without scanning every uncovered one, which took about 1 s.
    rng = np.random.default_rng(2000)
    rays, groups = {}, {}
    for k in range(2000):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        groups[f"g{k:04d}"] = [f"u{k}", f"v{k}"]
        for name, column in zip(groups[f"g{k:04d}"], q.T):
            rays[name] = [[z.real, z.imag] for z in column.tolist()]
    doc = {"dim": 2, "rays": rays, "groups": groups}
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["ks-search", str(path)])
    assert code == 0
    assert report["verdicts"]["status"] == "SAT"
    assert report["verdicts"]["nodes_explored"] == 2000
    collection, _ = pl.parse_document(doc)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        result = pl.search_noncontextual_assignment(collection)
        seconds.append(time.perf_counter() - start)
    assert result.nodes_explored == 2000
    assert min(seconds) < 0.1, seconds


def test_demo_pauli(capsys):
    code, report = run_json(capsys, ["demo", "pauli"])
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["intersection_trivial"] is True
    assert verdicts["algebra"]["algebra_dimension"] == 4
    assert verdicts["valuation"]["contexts"]["z"]["values"] == [1, 0]
    assert verdicts["assignment_search"]["status"] == "SAT"


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps-rank", "0.5"],
        ["--eps-entry", "1e-12"],
        ["--eps-subspace", "-1"],
        ["--eps-rank", "nan"],
    ],
)
def test_demo_rejects_bad_tolerances_as_file_commands_do(pauli_file, capsys, flags):
    code, report = run_json(capsys, ["demo", "pauli"] + flags)
    assert code == 1
    assert report["command"] == "demo"
    assert report["error"].startswith("tolerances must satisfy")
    _, file_report = run_json(capsys, ["validate", pauli_file] + flags)
    assert report == {**file_report, "command": "demo"}
    assert main(["demo", "pauli"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {report['error']}\n"


PAULI_ZX = {
    "dim": 2,
    "contexts": {
        "z": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "x": [
            [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
            [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
        ],
    },
}


@pytest.mark.parametrize("command", ["validate", "intersect", "irreducible", "ks-search"])
def test_infinite_eps_subspace_is_an_error_report(tmp_path, capsys, command):
    # Before, "eps_subspace": Infinity gave z and x one registry identity:
    # validate exited 0, ks-search said UNSAT and irreducible printed a
    # witness of dim 0.
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({**PAULI_ZX, "eps_subspace": float("inf")}))
    flag_path = tmp_path / "zx.json"
    flag_path.write_text(json.dumps(PAULI_ZX))
    for argv in ([command, str(path)], [command, str(flag_path), "--eps-subspace", "inf"]):
        code, report = run_json(capsys, argv)
        assert code == 1 and report["exit_code"] == 1
        assert "be finite" in report["error"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1


def test_boolean_tolerance_field_is_an_error_report(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({**PAULI_ZX, "eps_rank": True}))
    code, report = run_json(capsys, ["validate", str(path)])
    assert code == 1 and report["error"] == "'eps_rank' must be a number"


def test_demo_note_reads_the_verdicts(capsys):
    # Under eps_subspace 1.5 every Pauli member shares one identity with
    # another: the meet is no longer trivial and the search is UNSAT.
    code, report = run_json(capsys, ["demo", "pauli", "--eps-subspace", "1.5"])
    verdicts = report["verdicts"]
    assert code == 2 and verdicts["assignment_search"]["status"] == "UNSAT"
    assert verdicts["intersection_trivial"] is False
    assert verdicts["note"].startswith(
        "the lattice intersection is non-trivial and the state valuation is "
        f"{'bivalent' if verdicts['valuation']['bivalent'] else 'partial'}, while the "
        "identity-level one-hot search is unsatisfiable;"
    )
    assert main(["demo", "pauli", "--eps-subspace", "1.5"]) == 2
    assert verdicts["note"] in capsys.readouterr().out
    _, default = run_json(capsys, ["demo", "pauli"])
    assert default["verdicts"]["note"] == (
        "the lattice intersection is trivial and the state valuation is "
        "partial, while the identity-level one-hot search is satisfiable; "
        "the verdicts answer different questions and are shown side by side"
    )


def test_demo_text_mentions_both_verdicts(capsys):
    assert main(["demo", "pauli"]) == 0
    out = capsys.readouterr().out
    assert "intersection trivial: yes" in out
    assert "SAT" in out


def test_json_reports_are_schema_stable(capsys):
    _, first = run_json(capsys, ["demo", "pauli"])
    _, second = run_json(capsys, ["demo", "pauli"])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_eps_flag_overrides(tmp_path, capsys):
    # a slightly-off projector: valid under a loose entry tolerance only
    doc = {
        "dim": 2,
        "contexts": {
            "z": [
                [[[1.000001, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            ]
        },
    }
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["validate", str(path), "--eps-entry", "1e-4", "--eps-subspace", "1e-3"]) == 0


def test_module_entry_point(pauli_file):
    proc = subprocess.run(
        [sys.executable, "-m", "projlat", "ks-search", pauli_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "SAT" in proc.stdout


def test_json_reports_are_one_line(ks18_file, tmp_path, capsys):
    absent = str(tmp_path / "absent.json")
    for argv in (["demo", "pauli"], ["ks-search", ks18_file], ["validate", absent]):
        main(argv + ["--format", "json"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, argv
        assert isinstance(json.loads(lines[0]), dict)


def test_import_leaves_numpy_random_unloaded():
    # Nothing draws random numbers at import, which keeps the CLI's start-up lean.
    code = "import sys, projlat.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_text_is_rendered_from_the_json_report(pauli, tmp_path, capsys):
    ks18 = ks18_document()
    docs = {
        "pauli": pl.collection_to_document(pauli),
        "ks18": ks18,
        "ks18twin": pl.collection_to_document(*pl.parse_document(ks18)),
        "reducible": {
            "dim": 2,
            "rays": {"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]},
            "groups": {"z": ["a", "b"]},
        },
        # 21 atoms: `lattice` exits 3, every other command reports.
        "capped": haar_bases_document(np.random.default_rng(2310), 21),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    runs = [
        [command, path]
        for path in paths.values()
        for command in ("validate", "lattice", "intersect", "irreducible", "ks-search")
    ]
    runs += [
        ["valuate", paths["pauli"], "--state", "1,0;0,0"],
        ["valuate", paths["ks18"], "--state", "1,0;0,0;0,0;0,0"],
        ["valuate", paths["reducible"], "--state", "1,0;0,0"],
        ["lattice", paths["pauli"], "--context", "x"],
        ["lattice", paths["pauli"], "--context", "w"],
        ["validate", str(tmp_path / "absent.json")],
        ["demo", "pauli"],
        ["demo", "pauli", "--eps-rank", "0.5"],
    ]
    codes = Counter()
    for argv in runs:
        code = main(argv + ["--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert main(argv) == code == cli.exit_code(report)
        captured = capsys.readouterr()
        want = cli.render_text(report)
        if "error" in report:
            assert captured.out == "" and captured.err.splitlines() == want, argv
        else:
            lines = captured.out.splitlines()
            assert captured.err == "" and lines[:-1] == want[:-1], argv
            assert re.fullmatch(r"time: \d+\.\d ms", lines[-1]), argv
        codes[code] += 1
    assert set(codes) == {0, 1, 2, 3}


def test_demo_builds_each_lattice_and_the_meet_once(monkeypatch, capsys):
    calls = Counter()

    def counted(name):
        original = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in ("context_lattice", "intersect_lattices"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["demo", "pauli"]) == 0
    assert calls == {"context_lattice": 3, "intersect_lattices": 1}

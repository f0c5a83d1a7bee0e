import json
import subprocess
import sys

import numpy as np
import pytest

import projlat as pl
from conftest import ks18_document
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


def test_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


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
    # the algebra decides; the advisory lattice route hits its 20-member cap
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
    assert verdicts["lattice_intersection_trivial"] is None
    assert verdicts["routes_agree"] is None
    assert "capped at 20" in verdicts["note"]
    assert main(["irreducible", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lattice intersection trivial: not computed" in out
    assert "capped at 20" in out


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


def test_ks_search_unsat_exits_two(ks18_file, capsys):
    code, report = run_json(capsys, ["ks-search", ks18_file])
    assert code == 2
    assert report["verdicts"]["status"] == "UNSAT"
    assert report["verdicts"]["assignment"] is None


def test_ks_search_reports_how_tolerances_are_used(ks18_file, capsys):
    _, report = run_json(capsys, ["ks-search", ks18_file])
    assert "validate the document" in report["verdicts"]["note"]
    assert main(["ks-search", ks18_file]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "assignment search: UNSAT (852 nodes explored)"
    assert lines[1] == "note: " + report["verdicts"]["note"]


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
    assert report["verdicts"]["nodes_explored"] == 2000


def test_demo_pauli(capsys):
    code, report = run_json(capsys, ["demo", "pauli"])
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["intersection_trivial"] is True
    assert verdicts["algebra"]["algebra_dimension"] == 4
    assert verdicts["valuation"]["contexts"]["z"]["values"] == [1, 0]
    assert verdicts["assignment_search"]["status"] == "SAT"


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

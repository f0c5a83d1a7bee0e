"""Command-line interface: document ingestion, verdict reports, exit codes.

Every command is one pipeline: load the collection, build the JSON report
(its verdicts, every context's residuals and the time taken), then print
the report or the text its renderer reads off the report alone.

Exit codes: 0 success, 1 parse/validation failure, 2 unsatisfiable
assignment search, 3 element-listing cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

# ``is_irreducible`` is no longer called here; it stays importable from this
# module, where bench/tracing.py wraps it.
from .algebra import collection_irreducibility, is_irreducible  # noqa: F401
from .document import _parse_tolerances, load_document, matrix_to_json
from .errors import CapExceededError, DimensionMismatchError, ParseError, ValidationError
from .lattice import LatticeFamily, _bits, context_lattice, intersect_lattices
from .projectors import ContextCollection, context_residuals, pauli_contexts
from .tolerance import TolerancePolicy
from .valuation import bivalence_report, parity_certificate, search_noncontextual_assignment

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSAT = 2
EXIT_CAP = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--eps-rank", type=float, default=None, metavar="EPS")
    common.add_argument("--eps-entry", type=float, default=None, metavar="EPS")
    common.add_argument("--eps-subspace", type=float, default=None, metavar="EPS")

    parser = argparse.ArgumentParser(
        prog="projlat",
        description=(
            "Decide whether collections of projector contexts admit a 0/1 "
            "semantics: invariant-subspace lattices, algebra irreducibility, "
            "state valuations, and a global assignment search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (text, _, _) in _COMMANDS.items()
    }
    for name, command in commands.items():
        if name != "demo":
            command.add_argument("file")
    commands["lattice"].add_argument("--context", default=None, help="restrict to one context name")
    commands["valuate"].add_argument(
        "--state",
        required=True,
        help="semicolon-separated complex pairs, e.g. \"1,0;0,0\"",
    )
    commands["demo"].add_argument("example", choices=("pauli",))
    return parser


def parse_state_flag(text: str) -> np.ndarray:
    entries = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ParseError(f"state component {part!r} must be 're,im'")
        try:
            entries.append(complex(float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise ParseError(f"state component {part!r} must be 're,im'") from exc
    return np.array(entries)


def _family_json(family: LatticeFamily) -> dict:
    """The family's size and elements, read off its block bases: each block
    is encoded once, and an element's basis rows are its blocks' rows."""
    rows = [matrix_to_json(q.T) for q in family.block_bases]
    elements = []
    for i, label in enumerate(family.labels):
        basis = [row for b in _bits(i) for row in rows[b]]
        elements.append({"label": label, "dim": len(basis), "basis": basis})
    return {"size": family.size, "elements": elements}


def _intersection(collection: ContextCollection, tol: TolerancePolicy):
    """Each context's lattice family by context name, and their meet."""
    families = {ctx.name: context_lattice(ctx) for ctx in collection.contexts}
    return families, intersect_lattices(list(families.values()), tol)


# Verdict builders, ``(args, collection, tol) -> verdicts``.


def _validate_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    return {
        "valid": True,
        "ambient_dim": collection.ambient_dim,
        "contexts": [
            {"name": ctx.name, "members": len(ctx), "ranks": [p.rank for p in ctx.members]}
            for ctx in collection.contexts
        ],
        "registry_size": len(collection.registry),
    }


def _lattice_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    contexts = collection.contexts
    if args.context is not None:
        try:
            contexts = [collection.context_named(args.context)]
        except KeyError as exc:
            raise ParseError(exc.args[0]) from exc
    return {"lattices": {ctx.name: _family_json(context_lattice(ctx)) for ctx in contexts}}


def _intersect_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    families, meet = _intersection(collection, tol)
    return {
        "per_context_sizes": {name: fam.size for name, fam in families.items()},
        "intersection": _family_json(meet),
        "trivial": meet.is_trivial(),
    }


def _irreducible_verdicts(args, collection, tol, meet: LatticeFamily | None = None) -> dict:
    """The algebra verdict, ``collection_irreducibility`` over the lattice
    route's ``meet`` (built here unless the caller has built it)."""
    if meet is None:
        _, meet = _intersection(collection, tol)
    report = collection_irreducibility(collection, meet, tol)
    witness, lattice_trivial = report.witness, meet.is_trivial()
    return {
        "ambient_dim": collection.ambient_dim,
        "generators": len(collection.registry),
        "algebra_dimension": report.algebra_dimension,
        "irreducible": report.irreducible,
        "witness": None if witness is None else {
            "label": "witness", "dim": witness.dim, "basis": matrix_to_json(witness.basis.T)
        },
        "lattice_intersection_trivial": lattice_trivial,
        "routes_agree": report.irreducible == lattice_trivial,
        "note": (
            "irreducible means the unital algebra generated by the registry "
            "projectors is the full algebra on C^n; it is the direct sum of one "
            "algebra per connected component of the lattice route's meet, and "
            "the meet is reported alongside"
        ),
    }


def _valuation_verdicts(state, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    report = bivalence_report(state, collection, tol)
    return {
        "state": matrix_to_json(state),
        "contexts": {
            cv.context_name: {
                "labels": list(ctx.labels),
                "values": [v.value for v in cv.values],
                "sum": cv.total,
                "bivalent": cv.bivalent,
            }
            for ctx, cv in zip(collection.contexts, report.context_valuations)
        },
        "undefined": list(report.undefined_labels),
        "bivalent": report.bivalent,
    }


def _valuate_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    return _valuation_verdicts(parse_state_flag(args.state), collection, tol)


def _search_verdicts(collection: ContextCollection) -> dict:
    result = search_noncontextual_assignment(collection)
    assignment = None
    if result.assignment is not None:
        assignment = [
            {"index": index, "label": collection.registry[index].projector.label, "value": value}
            for index, value in result.assignment.items()
        ]
    return {
        "status": result.status,
        "nodes_explored": result.nodes_explored,
        "assignment": assignment,
        "parity_certificate": parity_certificate(collection),
    }


def _ks_search_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    return {
        **_search_verdicts(collection),
        "note": (
            "tolerances are used only to validate the document and to build the "
            "projector registry; the search itself is exact over registry identities"
        ),
    }


def _demo_verdicts(args, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    families, meet = _intersection(collection, tol)
    state = np.array([1.0, 0.0], dtype=complex)
    verdicts = {
        "ambient_dim": collection.ambient_dim,
        "contexts": list(collection.context_names),
        "lattices": {name: _family_json(fam) for name, fam in families.items()},
        "intersection": _family_json(meet),
        "intersection_trivial": meet.is_trivial(),
        "algebra": _irreducible_verdicts(args, collection, tol, meet),
        "valuation": _valuation_verdicts(state, collection, tol),
        "assignment_search": _search_verdicts(collection),
    }
    trivial = "trivial" if verdicts["intersection_trivial"] else "non-trivial"
    valuation = "bivalent" if verdicts["valuation"]["bivalent"] else "partial"
    search = "satisfiable" if verdicts["assignment_search"]["status"] == "SAT" else "unsatisfiable"
    verdicts["note"] = (
        f"the lattice intersection is {trivial} and the state valuation is "
        f"{valuation}, while the identity-level one-hot search is {search}; "
        "the verdicts answer different questions and are shown side by side"
    )
    return verdicts


# Text renderers, ``(verdicts, residuals) -> lines``, reading nothing else.


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _family_lines(name: str, family: dict) -> list[str]:
    lines = [f"lattice {name}: {family['size']} elements"]
    return lines + [f"  {el['label']}: dim {el['dim']}" for el in family["elements"]]


def _validate_lines(verdicts: dict, residuals: dict) -> list[str]:
    lines = [f"ambient dimension: {verdicts['ambient_dim']}"]
    for ctx in verdicts["contexts"]:
        res = residuals[ctx["name"]]
        lines.append(
            f"context {ctx['name']}: {ctx['members']} members, ranks "
            f"{ctx['ranks']}, pairwise residual "
            f"{res['pairwise_product']:.2e}, sum residual {res['sum_minus_identity']:.2e}"
        )
    lines.append(f"registry: {verdicts['registry_size']} distinct projector identities")
    return lines + ["verdict: valid"]


def _lattice_lines(verdicts: dict, residuals: dict) -> list[str]:
    lattices = verdicts["lattices"].items()
    return [line for name, family in lattices for line in _family_lines(name, family)]


def _intersect_lines(verdicts: dict, residuals: dict) -> list[str]:
    lines = [
        f"context {name}: {size} lattice elements"
        for name, size in verdicts["per_context_sizes"].items()
    ]
    lines.extend(_family_lines("intersection", verdicts["intersection"]))
    return lines + [f"trivial: {_yes_no(verdicts['trivial'])}"]


def _irreducible_lines(verdicts: dict, residuals: dict) -> list[str]:
    dim = verdicts["ambient_dim"]
    lines = [
        f"generators: {verdicts['generators']} registry projectors on C^{dim}",
        f"algebra dimension: {verdicts['algebra_dimension']} (full algebra: {dim ** 2})",
        f"irreducible: {_yes_no(verdicts['irreducible'])}",
        f"lattice intersection trivial: {_yes_no(verdicts['lattice_intersection_trivial'])}",
    ]
    if verdicts["witness"] is not None:
        lines.append(f"witness subspace: dim {verdicts['witness']['dim']}")
    return lines


def _valuate_lines(verdicts: dict, residuals: dict) -> list[str]:
    lines = []
    for name, ctx in verdicts["contexts"].items():
        values = ", ".join(
            f"{label}={'undefined' if v is None else v}"
            for label, v in zip(ctx["labels"], ctx["values"])
        )
        total = "absent" if ctx["sum"] is None else str(ctx["sum"])
        lines.append(f"context {name}: {values}; sum {total}")
        if ctx["sum"] is None:
            lines.append(f"context {name}: non-bivalent for this state")
    if verdicts["bivalent"]:
        return lines + ["verdict: bivalent at this state"]
    undefined = ", ".join(verdicts["undefined"])
    return lines + [f"verdict: bivalence fails at this state; undefined on {undefined}"]


def _search_lines(verdicts: dict) -> list[str]:
    lines = [
        f"assignment search: {verdicts['status']} "
        f"({verdicts['nodes_explored']} nodes explored)"
    ]
    if verdicts["assignment"] is not None:
        ones = [e["label"] for e in verdicts["assignment"] if e["value"] == 1]
        lines.append("value 1 on: " + ", ".join(ones))
    certificate = verdicts["parity_certificate"]
    return lines + ["parity certificate: " + (", ".join(certificate) if certificate else "none")]


def _ks_search_lines(verdicts: dict, residuals: dict) -> list[str]:
    return _search_lines(verdicts) + [f"note: {verdicts['note']}"]


def _demo_lines(verdicts: dict, residuals: dict) -> list[str]:
    names = ", ".join(verdicts["contexts"])
    lines = [f"three maximal contexts on C^{verdicts['ambient_dim']}: {names}"]
    lines += _lattice_lines(verdicts, residuals)
    lines += _family_lines("intersection", verdicts["intersection"])
    lines.append(f"intersection trivial: {_yes_no(verdicts['intersection_trivial'])}")
    lines += _irreducible_lines(verdicts["algebra"], residuals)
    lines.append("valuation of state [1, 0]:")
    lines += ["  " + line for line in _valuate_lines(verdicts["valuation"], residuals)]
    lines += _search_lines(verdicts["assignment_search"])
    return lines + [verdicts["note"]]


# Command -> (help, verdict builder, text renderer), in the order of ``--help``.
_COMMANDS = {
    "validate": ("check context axioms of a document", _validate_verdicts, _validate_lines),
    "lattice": ("invariant-subspace family per context", _lattice_verdicts, _lattice_lines),
    "intersect": ("intersect all context lattices", _intersect_verdicts, _intersect_lines),
    "irreducible": (
        "algebra irreducibility test with a witness",
        _irreducible_verdicts,
        _irreducible_lines,
    ),
    "valuate": ("truth values of a state", _valuate_verdicts, _valuate_lines),
    "ks-search": ("search a global 0/1 assignment", _ks_search_verdicts, _ks_search_lines),
    "demo": ("built-in worked example", _demo_verdicts, _demo_lines),
}


def _build_report(args) -> dict:
    """The JSON report of one parsed command line.

    It holds the verdicts, every context's residuals and ``timing_ms``; a
    failure gives ``{"command", "error", "exit_code"}`` instead.
    """
    overrides = {key: getattr(args, key) for key in ("eps_rank", "eps_entry", "eps_subspace")}
    started = time.perf_counter()
    try:
        if args.command == "demo":
            tol = _parse_tolerances({}, overrides)
            collection = pauli_contexts(tol)
        else:
            collection, tol = load_document(args.file, overrides)
        verdicts = _COMMANDS[args.command][1](args, collection, tol)
        residuals = {ctx.name: context_residuals(ctx) for ctx in collection.contexts}
    except CapExceededError as exc:
        return {"command": args.command, "error": str(exc), "exit_code": EXIT_CAP}
    except (ParseError, ValidationError, DimensionMismatchError, OSError) as exc:
        return {"command": args.command, "error": str(exc), "exit_code": EXIT_INVALID}
    return {
        "command": args.command,
        "verdicts": verdicts,
        "residuals": residuals,
        "timing_ms": (time.perf_counter() - started) * 1000.0,
    }


def render_text(report: dict) -> list[str]:
    """The text of a report: its lines, or for a failure the one stderr line."""
    if "error" in report:
        return [f"error: {report['error']}"]
    lines = _COMMANDS[report["command"]][2](report["verdicts"], report["residuals"])
    return lines + [f"time: {report['timing_ms']:.1f} ms"]


def exit_code(report: dict) -> int:
    """The failure's code, 2 for an unsatisfiable search (the verdicts of
    ``ks-search``, the ``assignment_search`` of ``demo``), else 0."""
    if "error" in report:
        return report["exit_code"]
    search = report["verdicts"].get("assignment_search", report["verdicts"])
    return EXIT_UNSAT if search.get("status") == "UNSAT" else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = _build_report(args)
    if args.format == "json":
        print(json.dumps(report))
    else:
        stream = sys.stderr if "error" in report else sys.stdout
        for line in render_text(report):
            print(line, file=stream)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())

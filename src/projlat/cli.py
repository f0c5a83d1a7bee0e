"""Command-line interface: document ingestion, verdict reports, exit codes.

Exit codes: 0 success, 1 parse/validation failure, 2 unsatisfiable
assignment search, 3 enumeration or search cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .algebra import is_irreducible
from .document import load_document, vector_to_json
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    ParseError,
    SubsetLimitExceededError,
    ValidationError,
)
from .lattice import LatticeFamily, context_lattice, intersect_lattices
from .projectors import ContextCollection, context_residuals, pauli_contexts
from .subspace import Subspace
from .tolerance import TolerancePolicy
from .valuation import bivalence_report, search_noncontextual_assignment

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

    p = sub.add_parser("validate", parents=[common], help="check context axioms of a document")
    p.add_argument("file")

    p = sub.add_parser("lattice", parents=[common], help="invariant-subspace family per context")
    p.add_argument("file")
    p.add_argument("--context", default=None, help="restrict to one context name")

    p = sub.add_parser("intersect", parents=[common], help="intersect all context lattices")
    p.add_argument("file")

    p = sub.add_parser(
        "irreducible", parents=[common], help="algebra irreducibility test with a witness"
    )
    p.add_argument("file")

    p = sub.add_parser("valuate", parents=[common], help="truth values of a state")
    p.add_argument("file")
    p.add_argument(
        "--state",
        required=True,
        help="semicolon-separated complex pairs, e.g. \"1,0;0,0\"",
    )

    p = sub.add_parser("ks-search", parents=[common], help="search a global 0/1 assignment")
    p.add_argument("file")

    p = sub.add_parser("demo", parents=[common], help="built-in worked example")
    p.add_argument("example", choices=("pauli",))
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


def _subspace_json(sub: Subspace, label: str) -> dict:
    return {"label": label, "dim": sub.dim, "basis": [vector_to_json(v) for v in sub.basis.T]}


def _family_json(family: LatticeFamily) -> dict:
    return {
        "size": len(family),
        "elements": [
            _subspace_json(el, label)
            for el, label in zip(family.elements, family.labels)
        ],
    }


def _family_lines(name: str, family: LatticeFamily) -> list[str]:
    lines = [f"lattice {name}: {len(family)} elements"]
    for el, label in zip(family.elements, family.labels):
        lines.append(f"  {label}: dim {el.dim}")
    return lines


def _collection_residuals(collection: ContextCollection) -> dict:
    return {ctx.name: context_residuals(ctx) for ctx in collection.contexts}


def _load(args, overrides) -> tuple[ContextCollection, TolerancePolicy]:
    return load_document(args.file, overrides)


def _cmd_validate(args, overrides):
    collection, _ = _load(args, overrides)
    verdicts = {
        "valid": True,
        "ambient_dim": collection.ambient_dim,
        "contexts": [
            {"name": ctx.name, "members": len(ctx), "ranks": [p.rank for p in ctx.members]}
            for ctx in collection.contexts
        ],
        "registry_size": len(collection.registry),
    }
    residuals = _collection_residuals(collection)
    lines = [f"ambient dimension: {collection.ambient_dim}"]
    for ctx in collection.contexts:
        res = residuals[ctx.name]
        lines.append(
            f"context {ctx.name}: {len(ctx)} members, ranks "
            f"{[p.rank for p in ctx.members]}, pairwise residual "
            f"{res['pairwise_product']:.2e}, sum residual {res['sum_minus_identity']:.2e}"
        )
    lines.append(f"registry: {len(collection.registry)} distinct projector identities")
    lines.append("verdict: valid")
    return verdicts, residuals, lines, EXIT_OK


def _cmd_lattice(args, overrides):
    collection, tol = _load(args, overrides)
    if args.context is not None:
        try:
            contexts = [collection.context_named(args.context)]
        except KeyError as exc:
            raise ParseError(str(exc)) from exc
    else:
        contexts = list(collection.contexts)
    lattices = {ctx.name: context_lattice(ctx, tol) for ctx in contexts}
    verdicts = {"lattices": {name: _family_json(fam) for name, fam in lattices.items()}}
    lines: list[str] = []
    for name, fam in lattices.items():
        lines.extend(_family_lines(name, fam))
    return verdicts, _collection_residuals(collection), lines, EXIT_OK


def _intersection(collection: ContextCollection, tol: TolerancePolicy):
    families = [context_lattice(ctx, tol) for ctx in collection.contexts]
    return families, intersect_lattices(families, tol)


def _cmd_intersect(args, overrides):
    collection, tol = _load(args, overrides)
    families, meet = _intersection(collection, tol)
    verdicts = {
        "per_context_sizes": {
            ctx.name: len(fam) for ctx, fam in zip(collection.contexts, families)
        },
        "intersection": _family_json(meet),
        "trivial": meet.is_trivial(),
    }
    lines = [
        f"context {ctx.name}: {len(fam)} lattice elements"
        for ctx, fam in zip(collection.contexts, families)
    ]
    lines.extend(_family_lines("intersection", meet))
    lines.append(f"trivial: {'yes' if meet.is_trivial() else 'no'}")
    return verdicts, _collection_residuals(collection), lines, EXIT_OK


def _irreducibility_verdicts(collection: ContextCollection, tol: TolerancePolicy) -> dict:
    generators = [entry.projector for entry in collection.registry]
    report = is_irreducible(generators, tol)
    note = (
        "irreducible means the unital algebra generated by the supplied "
        "projectors is the full algebra on C^n; the lattice route checks "
        "the finite subset-sum families and is reported alongside"
    )
    # The lattice route is advisory: hitting its cap must not withhold the
    # algebra verdict, which is already decided.
    try:
        _, meet = _intersection(collection, tol)
        lattice_trivial = meet.is_trivial()
        routes_agree = report.irreducible == lattice_trivial
    except SubsetLimitExceededError as exc:
        lattice_trivial = routes_agree = None
        note += f"; lattice route skipped: {exc}"
    return {
        "ambient_dim": collection.ambient_dim,
        "generators": len(generators),
        "algebra_dimension": report.algebra_dimension,
        "irreducible": report.irreducible,
        "witness": (
            None if report.witness is None else _subspace_json(report.witness, "witness")
        ),
        "lattice_intersection_trivial": lattice_trivial,
        "routes_agree": routes_agree,
        "note": note,
    }


def _irreducibility_lines(verdicts: dict) -> list[str]:
    trivial = verdicts["lattice_intersection_trivial"]
    lines = [
        f"generators: {verdicts['generators']} registry projectors on "
        f"C^{verdicts['ambient_dim']}",
        f"algebra dimension: {verdicts['algebra_dimension']} "
        f"(saturated at {verdicts['ambient_dim'] ** 2})",
        f"irreducible: {'yes' if verdicts['irreducible'] else 'no'}",
        "lattice intersection trivial: "
        + ("not computed" if trivial is None else "yes" if trivial else "no"),
    ]
    if verdicts["witness"] is not None:
        lines.append(f"witness subspace: dim {verdicts['witness']['dim']}")
    if trivial is None:
        lines.append(f"note: {verdicts['note']}")
    return lines


def _cmd_irreducible(args, overrides):
    collection, tol = _load(args, overrides)
    verdicts = _irreducibility_verdicts(collection, tol)
    return verdicts, _collection_residuals(collection), _irreducibility_lines(verdicts), EXIT_OK


def _valuation_verdicts(state, collection: ContextCollection, tol: TolerancePolicy) -> dict:
    report = bivalence_report(state, collection, tol)
    return {
        "state": vector_to_json(state),
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


def _valuation_lines(verdicts: dict) -> list[str]:
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
        lines.append("verdict: bivalent at this state")
    else:
        lines.append(
            "verdict: bivalence fails at this state; undefined on "
            + ", ".join(verdicts["undefined"])
        )
    return lines


def _cmd_valuate(args, overrides):
    collection, tol = _load(args, overrides)
    state = parse_state_flag(args.state)
    verdicts = _valuation_verdicts(state, collection, tol)
    return verdicts, _collection_residuals(collection), _valuation_lines(verdicts), EXIT_OK


def _search_verdicts(collection: ContextCollection) -> dict:
    result = search_noncontextual_assignment(collection)
    assignment = None
    if result.assignment is not None:
        assignment = [
            {
                "index": index,
                "label": collection.registry[index].projector.label,
                "value": value,
            }
            for index, value in result.assignment.items()
        ]
    return {
        "status": result.status,
        "nodes_explored": result.nodes_explored,
        "assignment": assignment,
    }


def _search_lines(verdicts: dict) -> list[str]:
    lines = [
        f"assignment search: {verdicts['status']} "
        f"({verdicts['nodes_explored']} nodes explored)"
    ]
    if verdicts["assignment"] is not None:
        ones = [e["label"] for e in verdicts["assignment"] if e["value"] == 1]
        lines.append("value 1 on: " + ", ".join(ones))
    return lines


def _cmd_ks_search(args, overrides):
    collection, _ = _load(args, overrides)
    verdicts = _search_verdicts(collection)
    verdicts["note"] = (
        "tolerances are used only to validate the document and to build the "
        "projector registry; the search itself is exact over registry identities"
    )
    code = EXIT_OK if verdicts["status"] == "SAT" else EXIT_UNSAT
    lines = _search_lines(verdicts) + [f"note: {verdicts['note']}"]
    return verdicts, _collection_residuals(collection), lines, code


def _cmd_demo(args, overrides):
    tol = TolerancePolicy(**{k: v for k, v in overrides.items() if v is not None})
    collection = pauli_contexts(tol)
    families, meet = _intersection(collection, tol)
    lattices = {
        ctx.name: fam for ctx, fam in zip(collection.contexts, families)
    }
    state = np.array([1.0, 0.0], dtype=complex)
    verdicts = {
        "ambient_dim": collection.ambient_dim,
        "contexts": list(collection.context_names),
        "lattices": {name: _family_json(fam) for name, fam in lattices.items()},
        "intersection": _family_json(meet),
        "intersection_trivial": meet.is_trivial(),
        "algebra": _irreducibility_verdicts(collection, tol),
        "valuation": _valuation_verdicts(state, collection, tol),
        "assignment_search": _search_verdicts(collection),
        "note": (
            "the lattice intersection is trivial and the state valuation is "
            "partial, while the identity-level one-hot search is satisfiable; "
            "the verdicts answer different questions and are shown side by side"
        ),
    }
    lines: list[str] = [f"three maximal contexts on C^2: {', '.join(collection.context_names)}"]
    for name, fam in lattices.items():
        lines.extend(_family_lines(name, fam))
    lines.extend(_family_lines("intersection", meet))
    lines.append(f"intersection trivial: {'yes' if meet.is_trivial() else 'no'}")
    lines.extend(_irreducibility_lines(verdicts["algebra"]))
    lines.append("valuation of state [1, 0]:")
    lines.extend("  " + line for line in _valuation_lines(verdicts["valuation"]))
    lines.extend(_search_lines(verdicts["assignment_search"]))
    lines.append(verdicts["note"])
    return verdicts, _collection_residuals(collection), lines, EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "lattice": _cmd_lattice,
    "intersect": _cmd_intersect,
    "irreducible": _cmd_irreducible,
    "valuate": _cmd_valuate,
    "ks-search": _cmd_ks_search,
    "demo": _cmd_demo,
}


def _emit_failure(fmt: str, command: str, message: str, code: int) -> int:
    if fmt == "json":
        print(json.dumps({"command": command, "error": message, "exit_code": code}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {
        "eps_rank": args.eps_rank,
        "eps_entry": args.eps_entry,
        "eps_subspace": args.eps_subspace,
    }
    started = time.perf_counter()
    try:
        verdicts, residuals, lines, code = _HANDLERS[args.command](args, overrides)
    except CapExceededError as exc:
        return _emit_failure(args.format, args.command, str(exc), EXIT_CAP)
    except (ParseError, ValidationError, DimensionMismatchError, OSError) as exc:
        return _emit_failure(args.format, args.command, str(exc), EXIT_INVALID)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "command": args.command,
        "verdicts": verdicts,
        "residuals": residuals,
        "timing_ms": elapsed_ms,
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
        print(f"time: {elapsed_ms:.1f} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())

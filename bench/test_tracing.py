"""The traced run's wrappers restore the program and attribute time correctly.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import projlat  # noqa: E402
import tracing  # noqa: E402


def _attributes():
    owners = {id(owner): owner for owner, *_ in tracing._SPANNED + tracing._COUNTED}
    return {
        (id(owner), attr): vars(owner)[attr]
        for owner in owners.values()
        for attr in vars(owner)
    }


def test_uninstall_restores_every_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    assert projlat.linalg.range_basis is not before[(id(projlat.linalg), "range_basis")]
    tracer.uninstall()
    assert _attributes() == before


def test_self_time_subtracts_children_and_counts_per_verdict():
    tracer = tracing.Tracer()
    tracer.verdict = 0
    tracer.spans = [
        ["cli.main", 0.0, 0.010, None, 0],
        ["document.load_document", 0.001, 0.005, 0, 0],
        ["projectors.validate", 0.002, 0.003, 1, 0],
        ["linalg.svd", 0.0025, 0.0027, 2, 0],
    ]
    tracer.counts[0]["subspace.equals_calls"] = 7
    metrics = tracer.layer_metrics({0: 1.0})
    assert abs(metrics["cli.self_ms"] - 6.0) < 1e-9
    assert abs(metrics["document.self_ms"] - 3.0) < 1e-9
    assert abs(metrics["projectors.validate_ms"] - 1.0) < 1e-9
    assert abs(metrics["linalg.svd_ms"] - 0.2) < 1e-9
    assert metrics["subspace.equals_calls"] == 7
    assert metrics["valuation.search_ms"] == 0
    assert abs(tracer.layer_metrics({0: 2.0})["cli.self_ms"] - 12.0) < 1e-9


def test_wrapped_call_records_nested_spans():
    tracer = tracing.Tracer()
    tracer.verdict = 3
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, lambda args, result: {"n": result})
    assert outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span[0], outer_span[3], outer_span[4]) == ("outer", None, 3)
    assert (inner_span[0], inner_span[3], inner_span[4]) == ("inner", 0, 3)
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]
    assert tracer.counts[3]["n"] == 4

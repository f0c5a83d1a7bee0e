"""Timing wrappers for the traced run, installed from outside the program.

Each wrapper replaces a public function at the place its caller looks it up
(``projlat.cli.context_lattice``, ``projlat.linalg.range_basis``, ...) and
records a span: name, start, end, parent span and verdict id. Hot small
calls such as ``Subspace.equals`` only bump a counter. Spans stay in memory
until the run ends; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import projlat.algebra
import projlat.cli
import projlat.document
import projlat.linalg
import projlat.subspace

# (owner, attribute, span name, counters(args, result) or None).
_SPANNED = (
    (projlat.cli, "load_document", "document.load_document", None),
    (projlat.document, "validate_projector", "projectors.validate", None),
    (projlat.document, "validate_context", "projectors.validate", None),
    (projlat.document, "context_from_basis", "projectors.validate", None),
    (projlat.document, "ContextCollection", "projectors.registry", None),
    (projlat.cli, "context_residuals", "projectors.residuals", None),
    (
        projlat.cli,
        "search_noncontextual_assignment",
        "valuation.search",
        lambda args, result: {"valuation.search_nodes": result.nodes_explored},
    ),
    (projlat.cli, "is_irreducible", "algebra.is_irreducible", None),
    (
        projlat.algebra,
        "algebra_closure",
        "algebra.closure",
        lambda args, result: {"algebra.closure_generations": result.generations},
    ),
    (projlat.algebra, "invariant_subspace_witness", "algebra.witness", None),
    (
        projlat.cli,
        "context_lattice",
        "lattice.context_lattice",
        lambda args, result: {"lattice.elements": len(result)},
    ),
    (
        projlat.cli,
        "intersect_lattices",
        "lattice.intersect",
        lambda args, result: {"lattice.elements": len(result)},
    ),
    (
        projlat.linalg,
        "orthonormalize",
        "linalg.orthonormalize",
        lambda args, result: {"linalg.orthonormalize_vectors": len(args[0])},
    ),
    # Each of these three does exactly one SVD.
    (projlat.linalg, "range_basis", "linalg.svd", lambda args, result: {"linalg.svd_calls": 1}),
    (projlat.linalg, "numerical_rank", "linalg.svd", lambda args, result: {"linalg.svd_calls": 1}),
    (projlat.linalg, "kernel_basis", "linalg.svd", lambda args, result: {"linalg.svd_calls": 1}),
)
_COUNTED = (
    (projlat.subspace.Subspace, "column_space", "subspace.column_space_calls"),
    (projlat.subspace.Subspace, "equals", "subspace.equals_calls"),
)

# Per-layer metric -> (span name, "total" or "self" time).
SPAN_TIMES = {
    "cli.self_ms": ("cli.main", "self"),
    "document.self_ms": ("document.load_document", "self"),
    "projectors.validate_ms": ("projectors.validate", "total"),
    "projectors.registry_ms": ("projectors.registry", "total"),
    "projectors.residuals_ms": ("projectors.residuals", "total"),
    "valuation.search_ms": ("valuation.search", "total"),
    "algebra.closure_ms": ("algebra.closure", "total"),
    "linalg.orthonormalize_ms": ("linalg.orthonormalize", "total"),
    "linalg.svd_ms": ("linalg.svd", "total"),
    "lattice.context_lattice_ms": ("lattice.context_lattice", "total"),
    "lattice.intersect_ms": ("lattice.intersect", "total"),
}
COUNTS = (
    "valuation.search_nodes",
    "algebra.closure_generations",
    "linalg.orthonormalize_vectors",
    "linalg.svd_calls",
    "lattice.elements",
    "subspace.column_space_calls",
    "subspace.equals_calls",
)


class Tracer:
    """Spans and counters of the traced verdicts of one run."""

    def __init__(self):
        # Each span is [name, start, end, parent index or None, verdict id].
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.verdict: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters=None):
        """``fn`` recording one span per call, plus ``counters(args, result)``."""
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, 0.0, 0.0, parent, tracer.verdict]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counters is not None:
                tracer.counts[tracer.verdict].update(counters(args, result))
            return result

        return traced

    def _counted(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[tracer.verdict][name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name, counters in _SPANNED:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counters))
        for owner, attr, name in _COUNTED:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._counted(name, original.__func__)))
            else:
                setattr(owner, attr, self._counted(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Every per-layer metric, averaged over the traced verdicts.

        Span times of verdict v are multiplied by ``scales[v]``.
        """
        verdicts = sorted({span[4] for span in self.spans})
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for index, (name, start, end, _, verdict) in enumerate(self.spans):
            totals[(name, "total")] += (end - start) * scales[verdict]
            totals[(name, "self")] += (end - start - child_time[index]) * scales[verdict]
        count = max(len(verdicts), 1)
        metrics = {
            metric: 1000.0 * totals[key] / count for metric, key in SPAN_TIMES.items()
        }
        for metric in COUNTS:
            metrics[metric] = sum(self.counts[v][metric] for v in verdicts) / count
        return metrics

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, verdict) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "verdict": verdict,
                        }
                    )
                    + "\n"
                )
            handle.write(
                json.dumps({"counts": {str(v): dict(c) for v, c in self.counts.items()}})
                + "\n"
            )

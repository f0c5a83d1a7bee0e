#!/usr/bin/env python3
"""One-off scaling sweep of the three benchmark verdicts.

    python3 bench/sweep.py

Varies the one size each workload is built around (n for irreducible,
members per context for intersect, tensor factors for ks-search), checks
every verdict as the benchmark does, and prints a Markdown table of the
median time of ``REPEATS`` verdicts per point on the documents of seed
``SEED``, scaled by the probe as in a benchmark run.
It is not part of a benchmark run.
"""
from __future__ import annotations

import json
import statistics

import run  # sets the BLAS thread count before numpy loads

import checks
import workloads as w

SEED = 0
REPEATS = 3
# Members per planted block for m = 4 ... 8 members per context.
INTERSECT_SPLITS = {4: (2, 1, 1), 5: (2, 2, 1), 6: (2, 2, 2), 7: (3, 2, 2), 8: (3, 3, 2)}


def points():
    """(command, size label, document, expected, check) per sweep point."""
    for k in (1, 2, 3):
        doc = w.ks_document(w.rng_for(SEED, 1), factors=k)
        yield "ks-search", f"k={k}", doc, checks.parity_certificate(doc), checks.check_ks_search
    for n in (4, 5, 6, 7):
        doc = w.irreducible_document(w.rng_for(SEED, 2), n=n)

        def check(dim, code, report, n=n):
            return checks.check_irreducible(dim, n, code, report)

        yield "irreducible", f"n={n}", doc, checks.expect_irreducible(doc), check
    for m, split in INTERSECT_SPLITS.items():
        doc = w.intersect_document(w.rng_for(SEED, 3), block_members=split)
        slices = w.block_slices(split)
        sums = checks.block_sums(slices, slices[-1].stop)

        def check(expected, code, report, m=m):
            return checks.check_intersect(expected, w.INTERSECT_CONTEXTS, m, code, report)

        yield "intersect", f"m={m}", doc, sums, check


def main() -> int:
    cli = run.import_program()
    out_dir = run.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    print("| workload | size | dim | scaled verdict ms (median) | checked |")
    print("|---|---|---|---|---|")
    for name, size, doc, expected, check in points():
        path = out_dir / "sweep-doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        verdicts = run.Verdicts(cli.main, name, check, [path], [expected])
        verdicts.call(0)
        times = []
        for _ in range(REPEATS):
            elapsed = verdicts.call(0)
            scale = run.probe.REFERENCE_MS / run.probe.probe()
            if elapsed is not None:
                times.append(elapsed * scale)
        ok = verdicts.failed == 0 and verdicts.wrong == 0
        median = statistics.median(times) if ok else float("nan")
        print(f"| {name} | {size} | {doc['dim']} | {median:.1f} | {'yes' if ok else 'NO'} |", flush=True)
        path.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Benchmark of the ks-search, irreducible and intersect verdicts.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ks-search --seed 1 --seconds 20 --trace 0

Runs one workload through the public entry point
``projlat.cli.main([command, file, "--format", "json"])`` in this process,
one verdict at a time (a closed loop with one client), checks every verdict
against an independent computation, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` half
the verdicts run under timing wrappers and the metrics are per layer. Times
are scaled by a reference computation timed after each verdict
(``bench/probe.py``). See ``bench/README.md``.
"""
from __future__ import annotations

import os

# One BLAS thread; this must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import probe
import workloads as w

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DOCS_PER_ROUND = 8
SETUP_IMPORTS = 9
SETUP_SCRIPT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import projlat.cli; print(time.perf_counter() - t)"
)


_SLICES = w.block_slices()
_BLOCK_SUMS = checks.block_sums(_SLICES, _SLICES[-1].stop)
_INTERSECT_MEMBERS = sum(w.INTERSECT_BLOCK_MEMBERS)

# Per workload, the CLI command is its name; ``make(rng)`` builds a document,
# ``expect(doc)`` derives what a correct verdict on it must show, and
# ``check(expected, exit_code, report)`` returns None or the reason the
# verdict is wrong. ``tag`` gives the workload a random stream of its own
# for every seed.
WORKLOADS = {
    "ks-search": {
        "tag": 1,
        "make": w.ks_document,
        "expect": checks.parity_certificate,
        "check": checks.check_ks_search,
    },
    "irreducible": {
        "tag": 2,
        "make": w.irreducible_document,
        "expect": checks.expect_irreducible,
        "check": lambda dim, code, report: checks.check_irreducible(
            dim, w.IRREDUCIBLE_DIM, code, report
        ),
    },
    "intersect": {
        "tag": 3,
        "make": w.intersect_document,
        "expect": lambda doc: _BLOCK_SUMS,
        "check": lambda sums, code, report: checks.check_intersect(
            sums, w.INTERSECT_CONTEXTS, _INTERSECT_MEMBERS, code, report
        ),
    },
}


def import_program():
    """Import projlat from this checkout's sources, never from elsewhere."""
    if not (SRC / "projlat" / "cli.py").is_file():
        sys.exit(f"bench: no projlat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import projlat.cli

    if Path(projlat.cli.__file__).resolve().parent != SRC / "projlat":
        sys.exit(f"bench: imported projlat from {projlat.cli.__file__}, not {SRC}")
    return projlat.cli


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import projlat.cli.

    Each time is scaled by the probe run just before it, as verdicts are.
    """
    times = []
    for _ in range(SETUP_IMPORTS):
        scale = probe.REFERENCE_MS / probe.probe()
        out = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_SCRIPT, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            cwd=ROOT,
        )
        times.append(scale * float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Verdicts:
    """Closed-loop caller of cli.main that checks each verdict it gets."""

    def __init__(self, main, command: str, check, paths, expected):
        self.main = main
        self.command = command
        self.check = check
        self.paths = paths
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def call(self, k: int, main=None) -> float | None:
        """Run the verdict on document k; its wall time in ms, None if it failed."""
        argv = [self.command, str(self.paths[k]), "--format", "json"]
        buffer = io.StringIO()
        self.attempted += 1
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = (main or self.main)(argv)
            elapsed_ms = 1000.0 * (time.perf_counter() - start)
            report = json.loads(buffer.getvalue())
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if "error" in report:
            print(f"bench: {argv}: {report['error']}", file=sys.stderr)
            self.failed += 1
            return None
        try:
            reason = self.check(self.expected[k], code, report)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"the report lacks the expected form: {exc!r}"
        if reason is not None:
            print(f"bench: wrong verdict on {argv}: {reason}", file=sys.stderr)
            self.wrong += 1
        return elapsed_ms


def rounds(seconds: int):
    """Round numbers up to the first round boundary after ``seconds``.

    A run always ends on a whole round, so every run holds the same mix of
    documents however fast the machine is.
    """
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        yield r
        r += 1
        if time.perf_counter() >= deadline:
            return


def run(args) -> dict:
    cli = import_program()
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup_s()

    rng = w.rng_for(args.seed, workload["tag"])
    docs = [workload["make"](rng) for _ in range(DOCS_PER_ROUND)]
    expected = [workload["expect"](doc) for doc in docs]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        paths = []
        for k, doc in enumerate(docs):
            path = Path(tmp) / f"{args.workload}-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(path)
        verdicts = Verdicts(cli.main, args.workload, workload["check"], paths, expected)
        # Warm-up round: lazy imports, LAPACK set-up and the page cache.
        for k in range(DOCS_PER_ROUND):
            verdicts.call(k)
            probe.probe()
        if args.trace:
            metrics = _traced_pass(verdicts, args)
        else:
            metrics = _timed_pass(verdicts, args, setup_s)

    return {
        "correct": verdicts.wrong == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }


def _timed_pass(verdicts: Verdicts, args, setup_s: float) -> dict:
    """Verdict times scaled to the probe's reference speed.

    The probe runs right after every verdict; a verdict's adjusted time is
    its wall time times ``probe.REFERENCE_MS`` over the probe's time, which
    cancels the machine's changes of speed between and within runs.
    """
    adjusted = []
    for _ in rounds(args.seconds):
        for k in range(DOCS_PER_ROUND):
            elapsed = verdicts.call(k)
            speed_ms = probe.probe()
            if elapsed is not None:
                adjusted.append(elapsed * probe.REFERENCE_MS / speed_ms)
    if not adjusted:
        sys.exit("bench: every verdict failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "verdicts_per_s": {"value": 1000.0 * len(adjusted) / sum(adjusted), "unit": "1/s"},
        "verdict_ms.p50": {"value": statistics.median(adjusted), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _traced_pass(verdicts: Verdicts, args) -> dict:
    """Alternate untraced and traced verdicts, so drift hits both alike.

    Times are scaled by the probe run after each verdict, as in the timed
    pass, except ``wall.verdict_ms.p50`` and ``probe_ms.p50``.
    """
    import tracing

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", verdicts.main)
    plain, traced, wall, speeds, scales = [], [], [], [], {}
    verdict_id = 0
    for r in rounds(args.seconds):
        for k in range(DOCS_PER_ROUND):
            is_traced = (r + k) % 2 == 1
            if is_traced:
                tracer.verdict = verdict_id
                tracer.install()
                try:
                    elapsed = verdicts.call(k, traced_main)
                finally:
                    tracer.uninstall()
            else:
                elapsed = verdicts.call(k)
            speed_ms = probe.probe()
            speeds.append(speed_ms)
            scale = probe.REFERENCE_MS / speed_ms
            if is_traced:
                scales[verdict_id] = scale
                verdict_id += 1
            if elapsed is None:
                continue
            if is_traced:
                traced.append(elapsed * scale)
            else:
                plain.append(elapsed * scale)
                wall.append(elapsed)
    if not traced or not plain:
        sys.exit("bench: every traced or every untraced verdict failed")
    tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    layers = tracer.layer_metrics(scales)
    layers["trace.verdict_ms.p50"] = statistics.median(traced)
    layers["trace.overhead_ms"] = statistics.median(traced) - statistics.median(plain)
    layers["wall.verdict_ms.p50"] = statistics.median(wall)
    layers["probe_ms.p50"] = statistics.median(speeds)
    return {
        name: {"value": value, "unit": "ms" if "_ms" in name else "count"}
        for name, value in layers.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

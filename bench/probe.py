"""A fixed reference computation that measures the machine's current speed.

The machine this benchmark was built on changes speed by up to 1.9x for
tens of seconds to minutes at a time, and whole runs can fall in a fast or
a slow stretch. The probe does the same kinds of work as a verdict (Python
loops over small complex numpy matrices, an SVD, JSON text) but none of it
in projlat, so a change to the program cannot change the probe. Timing it
next to every verdict tells how fast the machine was at that moment.
"""
from __future__ import annotations

import json
import time

import numpy as np

# Scale of the adjusted verdict times: the probe's time, in milliseconds, on
# a machine the adjusted figures are quoted for. On the machine the figures
# in README.md come from, the probe took between 2.6 and 5.2 ms.
REFERENCE_MS = 3.0

_RNG = np.random.default_rng(20180319)
_MATRICES = [
    _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12)) for _ in range(8)
]
_TEXT = json.dumps(
    [[[float(z.real), float(z.imag)] for z in row] for row in _MATRICES[0]]
)


def probe() -> float:
    """Run the reference computation once; its wall time in milliseconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        for a in _MATRICES:
            for b in _MATRICES:
                acc += float(np.linalg.norm(a @ b - b @ a))
        acc += float(np.linalg.svd(_MATRICES[0], compute_uv=False)[0])
        rows = json.loads(_TEXT)
        acc += sum(complex(re, im).real for row in rows for re, im in row)
    elapsed = 1000.0 * (time.perf_counter() - start)
    if not np.isfinite(acc):
        raise ArithmeticError("probe computation overflowed")
    return elapsed

"""Frozen reference kernel: a fixed unit of pure-Python work.

Job wall times are divided by the wall time of this kernel, run right
before and after each job, so that host speed changes (CPU frequency
modes, noisy neighbours) cancel out of the reported ratio.  The kernel
mimics the shape of decision-diagram work (tuple keys hash-consed into
a dict, complex multiply-adds, rounding into tolerance buckets) but
imports nothing from the program under test, so no change to the
program can change it.

Do not edit this file: every committed ``job_ref`` figure is expressed
in units of it.
"""

from __future__ import annotations

import gc
import time

ROUNDS = 16
WIDTH = 5000
#: Entries the unique table holds after one call; a mismatch means the
#: interpreter computes differently and the unit is no longer the same.
EXPECTED_TABLE_SIZE = 62430


def _work() -> int:
    table: dict[tuple, int] = {}
    weights = [complex((i % 97) / 97.0, (i % 89) / 89.0) for i in range(WIDTH)]
    acc = 0j
    for r in range(ROUNDS):
        scale = complex(0.5 + r / 16.0, 0.25 - r / 32.0)
        for i in range(WIDTH):
            w = weights[i] * scale + acc * 1e-9
            key = (r & 3, i % 613, round(w.real, 2), round(w.imag, 2))
            node = table.get(key)
            if node is None:
                node = len(table)
                table[key] = node
            acc += w
            weights[i] = w / (abs(w) + 1.0)
    return len(table)


def run_reference() -> float:
    """Run the kernel once with the cyclic GC paused; return its seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        size = _work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if size != EXPECTED_TABLE_SIZE:
        raise RuntimeError(
            f"reference kernel built {size} entries, expected "
            f"{EXPECTED_TABLE_SIZE}"
        )
    return elapsed

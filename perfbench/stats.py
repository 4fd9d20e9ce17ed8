"""Summary statistics used by the benchmark (no program imports)."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it, so a tail figure never rests on one or two jobs.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Missing samples (a refused or failed request) are passed as
    ``math.inf``: they count as missing every latency limit.

    Raises:
        ValueError: When fewer than :data:`MIN_BEYOND` samples lie
            beyond the requested rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def block_ratios(
    jobs: Sequence[float], refs: Sequence[float], block: int = 1
) -> list[float]:
    """Cost of a mean job in reference units, per block of jobs.

    ``refs`` holds one more timing than ``jobs``: reference ``k`` ran
    right before job ``k`` and reference ``k + 1`` right after it.  The
    jobs are cut into consecutive blocks of ``block`` (one round of the
    workload's job mix, so every block costs the same); each block's
    mean job time is divided by the mean of the references around and
    inside it.  A trailing partial block is dropped.
    """
    if len(refs) != len(jobs) + 1:
        raise ValueError(
            f"need len(jobs) + 1 references, got {len(refs)} for "
            f"{len(jobs)} jobs"
        )
    ratios = []
    for first in range(0, len(jobs) - block + 1, block):
        around = refs[first:first + block + 1]
        ratios.append(
            (sum(jobs[first:first + block]) / block)
            / (sum(around) / len(around))
        )
    return ratios


def ratio_of_sums(jobs: Sequence[float], refs: Sequence[float]) -> float:
    """Mean job time over mean reference time.

    Summing before dividing lets the long stretches of a run outweigh a
    single job that happened to straddle a host speed change.
    """
    if not jobs or not refs:
        raise ValueError("ratio_of_sums needs at least one job and one ref")
    return (sum(jobs) / len(jobs)) / (sum(refs) / len(refs))


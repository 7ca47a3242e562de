"""Pure helpers of the benchmark: percentiles, span arithmetic, schedules, stamps.

Nothing here imports the library under test, so the self-tests in
``test_harness.py`` run without it.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], target: float = 99.0, min_beyond: int = MIN_BEYOND
) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile <= ``target`` that
    leaves at least ``min_beyond`` samples above it (nearest-rank).

    When even the median leaves fewer than ``min_beyond`` samples above
    it, the median is returned: a "tail" below the median says nothing.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = min(math.ceil(target * n / 100.0), n - min_beyond)
    if rank < math.ceil(n / 2):
        return 50.0, float(statistics.median(ordered))
    return 100.0 * rank / n, float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of half-open ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length(clipped)


def poisson_schedule(seed: int, rate: float, start_s: float, end_s: float) -> np.ndarray:
    """Arrival times in ``[start_s, end_s)`` of a Poisson process, drawn from ``seed``.

    The process is conditioned on its count, ``round(rate * duration)``:
    given the count, Poisson arrival times are uniform order statistics.
    Fixing the count keeps the offered load of every run the same while
    the arrival pattern still changes with the seed.
    """
    rng = np.random.default_rng([seed, 3, int(start_s * 1000)])
    n = int(round(rate * (end_s - start_s)))
    return np.sort(rng.uniform(start_s, end_s, size=n))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def source_digest(src_root: str) -> str:
    """SHA-256 over the library's ``.py`` files: the code a result measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src_root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(repo_root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(repo_root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(repo_root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(repo_root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def host_stamp(repo_root: str, src_root: str) -> Dict[str, object]:
    """Host and code identity; runs with different stamps are not compared."""
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": git_commit(repo_root),
        "source_sha256": source_digest(src_root),
    }


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")

"""Helpers shared by the workloads: timing summaries, memory, failure tally."""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

ALPHA = 0.02
"""Resource ratio of every workload (the paper's default scale)."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def process_tree_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given live worker processes."""
    return peak_rss_mb(os.getpid()) + sum(peak_rss_mb(pid) for pid in worker_pids)


def cores() -> int:
    """Schedulable cores (what ``workers = nproc`` means here)."""
    return max(1, len(os.sched_getaffinity(0)))


CORES = sorted(os.sched_getaffinity(0))
"""The cores the benchmark may run on, taken before any pinning."""


def pin(turn: int) -> None:
    """Pin every thread of this process to the core whose turn it is.

    On a shared host the speed of one vCPU drifts on its own: a plain
    Python loop ran 30% slower on one vCPU than on the other for a whole
    12-second stretch.  A single-threaded run stays on one vCPU and takes
    on its speed, which split ten runs of ``churn`` into a fast and a slow
    cluster.  Workloads therefore take turns on every core, so that each
    run samples them all alike.
    """
    core = CORES[turn % len(CORES)]
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), {core})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


@dataclass
class Tally:
    """Operations attempted and failed; the first few failures are logged."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(message)
            print(f"perfbench: FAILED: {message}", file=sys.stderr)


@dataclass
class Outcome:
    """What one run reports: the tally plus either metric set."""

    tally: Tally
    end_to_end: Dict[str, float]
    per_layer: Optional[Dict[str, float]] = None
    #: the traced run's span recorder (written out when the run ends)
    recorder: Any = None


def ledger_metrics(rows: Dict[str, float]) -> Dict[str, float]:
    return {f"ledger.{layer}_us": value for layer, value in rows.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

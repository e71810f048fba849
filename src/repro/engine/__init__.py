"""Batched query engine: prepare once, answer query streams cheaply.

This package is the serving layer of the reproduction — the paper's
"queries arrive by the thousands" story (Fan, Wang & Wu, SIGMOD 2014,
Section 1).  It separates the two phases the paper keeps distinct:

* **prepare** (:mod:`repro.engine.prepared`) — CSR mirror, SCC
  condensation, hierarchical landmark index per α, neighbourhood summaries
  and label/degree statistics, all built once per graph;
* **answer** (:mod:`repro.engine.engine`) — batches of
  :class:`~repro.engine.queries.ReachQuery` /
  :class:`~repro.engine.queries.PatternQuery` objects flow through a
  pluggable executor (:mod:`repro.engine.executors`: serial or the warm
  daemon pool) behind an LRU answer cache
  (:mod:`repro.engine.cache`) keyed on ``(query fingerprint, α)``.

Parallel state ships through a zero-copy shared-memory tier
(:mod:`repro.graph.shm` + :class:`~repro.engine.prepared.SharedPreparedGraph`):
the CSR arrays are published once per state version and worker processes —
including the persistent daemons of :mod:`repro.engine.daemons` — attach
the same physical pages by segment name.

The parity contract — identical answers for every executor and worker
count — is property-tested in ``tests/test_engine.py`` and the ≥2×
batch-throughput claim is asserted by
``benchmarks/bench_engine_parallel.py``.

Graphs mutate under traffic: ``QueryEngine.update`` absorbs a
:class:`~repro.updates.GraphDelta` by patching the prepared state
incrementally (overlay substrate, condensation and index repair, surgical
cache invalidation), with answers bit-identical to a fresh engine on the
mutated graph — see :mod:`repro.updates` and ``tests/test_updates.py``.
"""

from repro.engine.cache import AnswerCache, CacheStats
from repro.engine.daemons import DaemonPool
from repro.engine.engine import BatchReport, QueryEngine, UpdateReport, default_workers
from repro.engine.invalidation import (
    InvalidationDecision,
    anchor_of,
    partition_entries,
    pattern_budget_changed,
)
from repro.engine.executors import (
    EXECUTORS,
    DaemonExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.prepared import PreparedGraph, SharedPreparedGraph, UpdateSummary, publish_state
from repro.engine.queries import PatternQuery, ReachQuery

__all__ = [
    "AnswerCache",
    "BatchReport",
    "CacheStats",
    "DaemonExecutor",
    "DaemonPool",
    "EXECUTORS",
    "InvalidationDecision",
    "PatternQuery",
    "PreparedGraph",
    "QueryEngine",
    "ReachQuery",
    "SerialExecutor",
    "SharedPreparedGraph",
    "UpdateReport",
    "UpdateSummary",
    "anchor_of",
    "default_workers",
    "make_executor",
    "partition_entries",
    "pattern_budget_changed",
    "publish_state",
]

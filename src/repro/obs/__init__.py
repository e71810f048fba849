"""repro.obs — dependency-free observability for the serving stack.

Four small pieces:

* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a process-local registry with a mergeable snapshot format (daemon
  workers drain theirs and ship the delta back over the task pipes);
  latency buckets carry **exemplars**: the last trace ID per bucket;
* :mod:`repro.obs.trace` — per-stage wall/CPU span contexts emitted as
  JSON lines, off by default;
* :mod:`repro.obs.context` — propagable trace/span identity
  (:class:`~repro.obs.context.TraceContext` rides pipe messages and chunk
  payloads so worker spans parent correctly across processes);
* :mod:`repro.obs.flight` — a bounded flight recorder of recently
  assembled per-query timelines plus a slow-query log.

``CATALOG`` below is the single source of truth for every metric the
stack may register: name → (kind, unit, emitting module).  The table in
``docs/OBSERVABILITY.md`` is generated from the same names, and
``tests/test_obs.py`` fails if either the docs or the live registry
drift from it.  ``SPANS`` plays the same role for trace span names.
"""

from __future__ import annotations

from repro.obs import context, trace
from repro.obs.context import TraceContext
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    enabled,
    format_snapshot,
    gauge,
    histogram,
    merge_snapshots,
    percentile_from_snapshot,
    set_enabled,
    snapshot,
    write_snapshot,
)
from repro.obs.trace import span
from repro.obs import flight  # noqa: E402  (needs metrics + trace initialised)

#: Every metric the stack may register: name -> (kind, unit, emitting module).
CATALOG = {
    # service façade (repro/service/service.py)
    "service.batches": ("counter", "batches", "repro.service.service"),
    "service.queries": ("counter", "queries", "repro.service.service"),
    "service.batch.seconds": ("histogram", "seconds", "repro.service.service"),
    "service.updates": ("counter", "updates", "repro.service.service"),
    "service.update.seconds": ("histogram", "seconds", "repro.service.service"),
    # async front-end + admission control (repro/service/aio.py)
    "service.submitted": ("counter", "requests", "repro.service.aio"),
    "service.streamed": ("counter", "requests", "repro.service.aio"),
    "service.admission.waits": ("counter", "waits", "repro.service.aio"),
    "service.admission.wait.seconds": ("histogram", "seconds", "repro.service.aio"),
    "service.inflight": ("gauge", "requests", "repro.service.aio"),
    # query engine (repro/engine/engine.py)
    "engine.batches": ("counter", "batches", "repro.engine.engine"),
    "engine.batch.size": ("histogram", "queries", "repro.engine.engine"),
    "engine.batch.seconds": ("histogram", "seconds", "repro.engine.engine"),
    "engine.cache.hits": ("counter", "queries", "repro.engine.engine"),
    "engine.cache.misses": ("counter", "queries", "repro.engine.engine"),
    "engine.cache.evictions": ("counter", "entries", "repro.engine.engine"),
    # shared invalidation oracle (repro/engine/cache.py + engine.py)
    "cache.invalidated": ("counter", "entries", "repro.engine.cache"),
    "cache.retained": ("counter", "entries", "repro.engine.engine"),
    "engine.executor.serial": ("counter", "batches", "repro.engine.engine"),
    "engine.executor.daemon": ("counter", "batches", "repro.engine.engine"),
    # daemon pool, parent side (repro/engine/daemons.py)
    "daemon.restarts": ("counter", "workers", "repro.engine.daemons"),
    "daemon.retries": ("counter", "chunks", "repro.engine.daemons"),
    "daemon.publishes": ("counter", "states", "repro.engine.daemons"),
    "daemon.ping.seconds": ("histogram", "seconds", "repro.engine.daemons"),
    # daemon workers (merged into the parent registry via drained snapshots)
    "daemon.worker.chunks": ("counter", "chunks", "repro.engine.daemons"),
    "daemon.worker.chunk.seconds": ("histogram", "seconds", "repro.engine.daemons"),
    # sharded scatter–gather (repro/shard/engine.py)
    "shard.batches": ("counter", "batches", "repro.shard.engine"),
    "shard.scatter.fanout": ("histogram", "shards", "repro.shard.engine"),
    "shard.reach.local": ("counter", "queries", "repro.shard.engine"),
    "shard.reach.cross": ("counter", "queries", "repro.shard.engine"),
    "shard.spillover": ("counter", "queries", "repro.shard.engine"),
    "shard.boundary.probes": ("counter", "probes", "repro.shard.engine"),
    # incremental updates (repro/engine/prepared.py)
    "update.noop": ("counter", "updates", "repro.engine.prepared"),
    "update.fresh": ("counter", "updates", "repro.engine.prepared"),
    "update.patched": ("counter", "updates", "repro.engine.prepared"),
    "update.rebuilt": ("counter", "updates", "repro.engine.prepared"),
    "update.dirty.landmarks": ("counter", "landmarks", "repro.engine.prepared"),
    # traversal kernel dispatch (repro/graph/kernels.py)
    "kernel.batch_size": ("histogram", "sources", "repro.graph.kernels"),
    "kernel.fallbacks": ("counter", "dispatches", "repro.graph.kernels"),
    # standing queries (repro/subscribe + repro/service)
    "sub.active": ("gauge", "subscriptions", "repro.service.service"),
    "sub.registered": ("counter", "subscriptions", "repro.service.service"),
    "sub.deregistered": ("counter", "subscriptions", "repro.service.service"),
    "sub.affected": ("counter", "subscriptions", "repro.service.service"),
    "sub.skipped": ("counter", "subscriptions", "repro.service.service"),
    "sub.deltas": ("counter", "deltas", "repro.subscribe.manager"),
    "sub.pushed": ("counter", "deltas", "repro.service.aio"),
    "sub.maintain.seconds": ("histogram", "seconds", "repro.service.service"),
}

#: Trace spans (name -> emitting module); see repro.obs.trace.
SPANS = {
    "service.query": "repro.service.service",
    "service.update": "repro.service.service",
    "planner": "repro.service.service",
    "subscription.maintain": "repro.service.service",
    "engine.batch": "repro.engine.engine",
    "executor.chunk": "repro.engine.engine",
    "daemon.worker": "repro.engine.daemons",
    "shard.batch": "repro.shard.engine",
    # derived segments: synthesised from cross-process timestamps, not spans
    "worker.queue.wait": "repro.engine.daemons",
    "worker.pipe.transit": "repro.engine.daemons",
}

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SPANS",
    "TraceContext",
    "context",
    "counter",
    "enabled",
    "flight",
    "format_snapshot",
    "gauge",
    "histogram",
    "merge_snapshots",
    "percentile_from_snapshot",
    "set_enabled",
    "snapshot",
    "span",
    "trace",
    "write_snapshot",
]

"""Batch executors: serial (the reference path) and the warm daemon pool.

Both run the *same* pure chunk function (:func:`answer_chunk`) over
order-preserving chunks of the batch.  The parity contract rests on that
purity: every query is answered independently by a deterministic matcher
against shared read-only prepared state, so neither the executor nor the
chunk boundaries (which *do* vary with the worker count) can influence an
answer.  Keep chunk handling stateless — any per-chunk state (memos,
budgets) would silently break the bit-identical guarantee the engine
promises and tests.  The executors only choose where chunks run:

* :class:`SerialExecutor` — in the calling thread (the reference path);
* :class:`DaemonExecutor` — routes chunks to a persistent, warm
  :class:`~repro.engine.daemons.DaemonPool` owned by the engine; workers keep
  the shared-memory state attached across batches.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from repro.exceptions import EngineError
from repro.engine.prepared import PreparedGraph
from repro.engine.queries import REACH, SIMULATION, SUBGRAPH
from repro.obs import trace

Task = Tuple[str, float, Sequence[Any]]
"""One unit of work: ``(kind, alpha, queries)``."""


def default_workers() -> int:
    """Worker count used when the caller does not pick one.

    Prefers the *schedulable* core count (cgroup/affinity aware) over the
    raw ``os.cpu_count()`` so containers get a sensible default.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def answer_chunk(prepared: PreparedGraph, task: Task) -> List[Any]:
    """Answer one chunk of same-kind queries against the prepared state.

    This is the single function every executor runs; it is deliberately free
    of executor-specific state so that the serial path *is* the parallel
    path run inline.
    """
    kind, alpha, queries = task
    with trace.span("executor.chunk", kind=kind, queries=len(queries)):
        if kind == REACH:
            # One batched kernel entry per chunk: the whole sub-batch crosses
            # the dispatch seam together instead of one query at a time.
            matcher = prepared.rbreach(alpha)
            return matcher.query_batch([(query.source, query.target) for query in queries])
        if kind == SIMULATION:
            matcher = prepared.rbsim(alpha)
            return [
                matcher.answer(query.pattern, query.personalized_match) for query in queries
            ]
        if kind == SUBGRAPH:
            matcher = prepared.rbsub(alpha)
            return [
                matcher.answer(query.pattern, query.personalized_match) for query in queries
            ]
    raise EngineError(f"unknown query kind {kind!r}")


# ----------------------------------------------------------------------- #
# Executors
# ----------------------------------------------------------------------- #
class SerialExecutor:
    """Reference executor: every chunk runs inline, in order."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None):
        self.workers = 1

    def run(self, state: Any, tasks: Sequence[Any], chunk_fn=answer_chunk) -> List[List[Any]]:
        """Chunk results, in task order."""
        return [chunk_fn(state, task) for task in tasks]


class DaemonExecutor:
    """Warm-pool executor backed by persistent worker daemons.

    Unlike the serial executor this one does not own its workers: the engine
    that constructed it calls :meth:`bind` with its long-lived
    :class:`~repro.engine.daemons.DaemonPool` and a state-version token
    before dispatching.  The pool keeps the shared-memory state attached in
    the workers across batches, so steady-state batches ship only
    ``(kind, alpha, queries)`` chunks — no pool startup, no state pickling.
    """

    name = "daemon"

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(1, workers or default_workers())
        self._pool: Optional[Any] = None
        self._version: Any = None

    def bind(self, pool: Any, version: Any = None) -> "DaemonExecutor":
        """Attach the engine's pool (and its current state version)."""
        self._pool = pool
        self.workers = pool.workers
        self._version = version
        return self

    def run(self, state: Any, tasks: Sequence[Any], chunk_fn=answer_chunk) -> List[List[Any]]:
        """Chunk results, in task order, computed by the bound pool."""
        if not tasks:  # fully-warm batches never touch (or require) the pool
            return []
        if self._pool is None:
            raise EngineError(
                "the daemon executor needs a bound DaemonPool; run it through "
                "QueryEngine/ShardedEngine (which own the pool) instead of make_executor()"
            )
        return self._pool.run(state, tasks, chunk_fn=chunk_fn, version=self._version)


EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    DaemonExecutor.name: DaemonExecutor,
}
"""Executor registry keyed by CLI/engine name."""


def make_executor(name: str, workers: Optional[int] = None):
    """Build an executor by name (``serial`` or ``daemon``)."""
    try:
        factory = EXECUTORS[name]
    except KeyError:
        raise EngineError(
            f"unknown executor {name!r}; available: {', '.join(sorted(EXECUTORS))}"
        ) from None
    return factory(workers)

"""The auto-planner: route each batch (and each delta) to the right backend.

The façade serves three execution paths that previous PRs exposed as
separate entry points:

* the **serial** single-graph path (the reference semantics);
* the **parallel** :class:`~repro.engine.QueryEngine` daemon pool (warm
  worker processes, bit-identical to serial by the PR 2 parity contract);
* the **sharded** :class:`~repro.shard.ShardedEngine` (PR 4), used under
  the containment rule that keeps bit-parity.

The planner is deliberately *pure*: :meth:`Planner.plan_batch` maps
``(batch size, graph size, core count, config)`` to a :class:`Plan` with no
hidden state, so routing is deterministic, unit-testable without building
engines, and every decision carries a human-readable ``reason``.

**Contract** (property-tested in ``tests/test_service.py``): whatever the
plan, answers are bit-identical to the serial engine.  Serial/parallel
inherit the PR 2 executor-parity contract; the sharded route is only taken
for shard-contained queries (the PR 4 parity rule) — spillover answers on
the single-graph engine instead of scatter–gather, unless the config
explicitly opts into :data:`~repro.service.config.SCATTER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.executors import default_workers
from repro.service.config import AUTO, SCATTER, ServiceConfig

SERIAL = "serial"
"""Routing decision: answer inline on the single-graph engine."""

PARALLEL = "parallel"
"""Routing decision: single-graph engine over a worker pool."""

SHARDED = "sharded"
"""Routing decision: shard-contained queries scatter to the shard engines."""

BACKENDS = (SERIAL, PARALLEL, SHARDED)

MIN_PARALLEL_CORES = 4
"""Auto mode only reaches for a worker pool with this many schedulable
cores: below it, worker IPC eats the win on 1–2 core runners, and the
planner's contract is to never be slower than the naive serial default."""

PATCH = "patch"
"""Update decision: repair the prepared state incrementally (PR 3 path)."""

REBUILD = "rebuild"
"""Update decision: apply to the substrate, rebuild derived state lazily."""


@dataclass(frozen=True)
class Plan:
    """One routing decision for one batch."""

    backend: str
    executor: str
    workers: Optional[int]
    reason: str

    @property
    def parallel(self) -> bool:
        """Whether a worker pool is involved at all."""
        return self.executor != SERIAL


@dataclass(frozen=True)
class UpdatePlan:
    """One patch-vs-rebuild decision for one delta."""

    action: str
    patch_threshold: float
    compact_threshold: float
    reason: str


class Planner:
    """Pure routing policy over a :class:`ServiceConfig`."""

    def __init__(self, config: ServiceConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #
    def choose_executor(
        self, num_queries: int, graph_size: int, cores: Optional[int] = None
    ) -> "tuple[str, Optional[int], str]":
        """``(executor, workers, reason)`` for one batch.

        A configured executor always wins.  Under ``auto`` the pool is worth
        its startup only when the batch is big enough to amortise it and the
        graph is big enough that per-query work dominates dispatch — both
        thresholds live on the config — and only when more than one core is
        schedulable.
        """
        config = self.config
        if config.executor != AUTO:
            return (
                config.executor,
                config.workers,
                f"executor {config.executor!r} forced by config",
            )
        cores = cores if cores is not None else default_workers()
        if cores < MIN_PARALLEL_CORES:
            return (
                SERIAL,
                None,
                f"auto: {cores} schedulable core(s) < {MIN_PARALLEL_CORES}, "
                "pool startup would not pay for itself",
            )
        if graph_size < config.small_graph_size:
            return (
                SERIAL,
                None,
                f"auto: graph size {graph_size} < small_graph_size "
                f"{config.small_graph_size}, per-query work too cheap to ship",
            )
        if num_queries < config.parallel_threshold:
            return (
                SERIAL,
                None,
                f"auto: batch of {num_queries} < parallel_threshold "
                f"{config.parallel_threshold}, pool startup would dominate",
            )
        workers = config.workers or cores
        return (
            "daemon",
            workers,
            f"auto: batch of {num_queries} on a size-{graph_size} graph, "
            f"{workers} daemon workers",
        )

    def plan_batch(
        self, num_queries: int, graph_size: int, cores: Optional[int] = None
    ) -> Plan:
        """Route one batch: serial, parallel, or sharded.

        The sharded backend is chosen whenever the service is configured
        with ``num_shards > 1`` — which queries actually scatter to shards
        is then the containment split (or everything, under the explicit
        ``scatter`` policy); the executor choice applies to whichever
        engines run.
        """
        executor, workers, reason = self.choose_executor(num_queries, graph_size, cores)
        # An explicit scatter policy asks for the sharded engine even at
        # k = 1 (where it is bit-identical to the single-graph engine).
        if self.config.num_shards > 1 or self.config.shard_policy == SCATTER:
            return Plan(
                backend=SHARDED,
                executor=executor,
                workers=workers,
                reason=f"k={self.config.num_shards} shards configured; {reason}",
            )
        backend = SERIAL if executor == SERIAL else PARALLEL
        return Plan(backend=backend, executor=executor, workers=workers, reason=reason)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def plan_update(
        self, delta_ops: int, graph_size: int, has_node_removals: bool
    ) -> UpdatePlan:
        """Patch-vs-rebuild for one delta (PR 3 / PR 4 incremental paths).

        Mirrors the prepared-state policy so the decision is visible *before*
        the update runs: node removals and oversized deltas rebuild (the
        incremental condensation/index repair cannot win there), everything
        else patches under the configured thresholds.
        """
        config = self.config
        if has_node_removals:
            return UpdatePlan(
                action=REBUILD,
                patch_threshold=0.0,
                compact_threshold=config.compact_threshold,
                reason="delta removes nodes; incremental repair does not apply",
            )
        budget = config.patch_threshold * max(1, graph_size)
        if delta_ops > budget:
            return UpdatePlan(
                action=REBUILD,
                patch_threshold=0.0,
                compact_threshold=config.compact_threshold,
                reason=f"delta of {delta_ops} ops exceeds patch budget "
                f"{config.patch_threshold:.0%} of |G|={graph_size}",
            )
        return UpdatePlan(
            action=PATCH,
            patch_threshold=config.patch_threshold,
            compact_threshold=config.compact_threshold,
            reason=f"delta of {delta_ops} ops within patch budget "
            f"{config.patch_threshold:.0%} of |G|={graph_size}",
        )


__all__ = [
    "BACKENDS",
    "PARALLEL",
    "PATCH",
    "Plan",
    "Planner",
    "REBUILD",
    "SERIAL",
    "SHARDED",
    "UpdatePlan",
]

"""``GraphService`` — the one façade over every serving path in the repo.

The paper's serving story grew over four PRs into four divergent entry
points (raw matchers, the batched :class:`~repro.engine.QueryEngine`, the
:class:`~repro.shard.ShardedEngine`, ``PreparedGraph.apply_delta``), each
with its own construction ritual.  ``GraphService`` owns the full lifecycle
behind one typed API::

    with GraphService.open("youtube-small", ServiceConfig(alpha=0.02)) as service:
        report = service.run_batch([ReachRequest(4, 17), ReachRequest(3, 99)])
        service.update(delta)          # planner decides patch vs rebuild
        answer = await service.submit(ReachRequest(5, 23))   # async front-end

Routing is the :class:`~repro.service.planner.Planner`'s job: each batch
goes to the serial path, the parallel engine, or the lazily-built sharded
engine, and every decision keeps the **parity contract** — answers
bit-identical to the serial engine (under the default ``contain`` shard
policy; the explicit ``scatter`` policy opts into PR 4's scatter–gather
semantics instead: never a false positive, parity only when contained).

Thread-safety: one internal lock serialises all engine work, so the sync
API and the async front-end (which funnels work through a single worker
thread) can be used against the same service without corrupting the
prepared state or the answer cache.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.engine import BatchReport, QueryEngine, UpdateReport
from repro.engine.queries import REACH
from repro.exceptions import ServiceError
from repro.graph.protocol import GraphLike
from repro.service.config import SCATTER, ServiceConfig
from repro.service.planner import Plan, Planner, SHARDED, UpdatePlan
from repro.service.requests import (
    PatternRequest,
    ReachRequest,
    ServiceAnswer,
    ServiceRequest,
    ServiceStats,
    as_request,
)
from repro.shard.engine import ShardBatchReport, ShardedEngine, ShardUpdateReport
from repro.subscribe import DeltaSink, MaintenanceReport, Subscription, SubscriptionManager
from repro.updates.delta import GraphDelta


@dataclass
class ServiceBatchReport:
    """Answers plus routing telemetry of one façade batch.

    ``answers`` are the raw engine-level answer objects in request order
    (bit-identical to ``QueryEngine.run_batch(...).answers`` under the
    parity contract); :meth:`detailed` wraps them into
    :class:`ServiceAnswer` envelopes when the caller wants provenance.
    """

    answers: List[Any]
    requests: List[ServiceRequest]
    #: the batch-level α; per-request overrides (when any) are in ``alphas``.
    alpha: float
    plan: Plan
    wall_seconds: float
    #: per-position α values — ``None`` when the whole batch ran at ``alpha``
    #: (the fast path skips building it; use :meth:`effective_alphas`).
    alphas: Optional[List[float]] = None
    cache_hits: int = 0
    cache_misses: int = 0
    chunks: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    #: queries routed to the shard engines vs the single-graph engine
    #: (contain policy) — under scatter policy everything routes to shards.
    shard_routed: int = 0
    shard_single: int = 0
    #: underlying sharded reports (one per α group that touched the shards).
    shard_reports: List[ShardBatchReport] = field(default_factory=list)
    #: trace ID of this batch when tracing was on (``None`` otherwise) —
    #: the key into the flight recorder and the REPRO_TRACE sink.
    trace_id: Optional[str] = None

    @property
    def throughput(self) -> float:
        """Queries answered per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds

    @property
    def per_shard(self) -> Dict[int, int]:
        """Merged per-shard routing counts over every sharded sub-batch."""
        merged: Dict[int, int] = {}
        for report in self.shard_reports:
            for shard, count in report.per_shard.items():
                merged[shard] = merged.get(shard, 0) + count
        return merged

    def _shard_total(self, name: str) -> int:
        return sum(getattr(report, name) for report in self.shard_reports)

    @property
    def cross_reach(self) -> int:
        """Cross-shard reachability pairs (scatter policy only)."""
        return self._shard_total("cross_reach")

    @property
    def miss_composed(self) -> int:
        """Local reach misses composed through the boundary graph."""
        return self._shard_total("miss_composed")

    @property
    def pattern_contained(self) -> int:
        """Pattern balls answered entirely inside their home shard."""
        return self._shard_total("pattern_contained")

    @property
    def pattern_spilled(self) -> int:
        """Pattern balls assembled from owner-shard fragments."""
        return self._shard_total("pattern_spilled")

    @property
    def spillover_fraction(self) -> float:
        """Share of the batch that needed more than one shard."""
        total = len(self.answers)
        if total == 0:
            return 0.0
        return (self.cross_reach + self.miss_composed + self.pattern_spilled) / total

    def effective_alphas(self) -> List[float]:
        """The α each answer was computed under, per position."""
        if self.alphas is not None:
            return self.alphas
        return [self.alpha] * len(self.answers)

    def detailed(self) -> List[ServiceAnswer]:
        """Per-request :class:`ServiceAnswer` envelopes, in request order."""
        return [
            ServiceAnswer(
                index=index,
                request=request,
                value=value,
                alpha=alpha,
                backend=self.plan.backend,
            )
            for index, (request, value, alpha) in enumerate(
                zip(self.requests, self.answers, self.effective_alphas())
            )
        ]


@dataclass
class ServiceUpdateReport:
    """Telemetry of one façade ``update`` call."""

    plan: UpdatePlan
    engine_report: UpdateReport
    shard_report: Optional[ShardUpdateReport]
    wall_seconds: float
    #: what the standing-query maintenance pass did (``None`` when the
    #: service holds no subscriptions).
    maintenance: Optional[MaintenanceReport] = None

    @property
    def mode(self) -> str:
        """What the single-graph engine did (``patched`` / ``rebuilt`` / ...)."""
        return self.engine_report.mode

    @property
    def ops_per_second(self) -> float:
        """Delta operations absorbed per second of façade wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.engine_report.summary.delta_ops / self.wall_seconds

    @property
    def cache_evicted(self) -> int:
        return self.engine_report.cache_evicted

    @property
    def cache_retained(self) -> int:
        return self.engine_report.cache_retained


class GraphService:
    """One session object owning prepare → query/stream → update → close.

    Parameters
    ----------
    graph:
        The data graph to serve (``DiGraph`` or ``CSRGraph``).
    config:
        A :class:`ServiceConfig`; keyword ``overrides`` are applied on top
        (``GraphService(graph, workers=4)`` works without building a config
        by hand).
    compressed:
        Optional precomputed SCC condensation forwarded to the engine
        (requires ``mirror="never"`` in the config, exactly like
        :class:`~repro.engine.QueryEngine`).
    """

    def __init__(
        self,
        graph: GraphLike,
        config: Optional[ServiceConfig] = None,
        compressed=None,
        **overrides,
    ):
        if graph is None:
            raise ServiceError("GraphService needs a graph; use GraphService.open(dataset)")
        config = config or ServiceConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self._config = config
        self._source = graph
        self._compressed = compressed
        self._planner = Planner(config)
        self._engine: Optional[QueryEngine] = None
        self._sharded: Optional[ShardedEngine] = None
        self._stats = ServiceStats()
        self._subscriptions = SubscriptionManager()
        self._lock = threading.RLock()
        self._frontend = None  # lazily-built async front-end (repro.service.aio)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        dataset: str,
        config: Optional[ServiceConfig] = None,
        **overrides,
    ) -> "GraphService":
        """Open a service over a named dataset surrogate.

        The config seed selects the surrogate instance, mirroring the CLI
        commands, so service numbers are comparable with experiment runs at
        the same seed.
        """
        from repro.workloads.datasets import load_dataset

        config = config or ServiceConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        graph = load_dataset(dataset, seed=config.seed)
        return cls(graph, config)

    def prepare(
        self,
        reach_alphas: Sequence[float] = (),
        pattern_alphas: Sequence[float] = (),
        subgraph_alphas: Sequence[float] = (),
    ) -> "GraphService":
        """Eagerly build prepared state (first-batch latency moves here).

        With no arguments, prepares the reachability index for the config's
        default α.  Builds the sharded engine too when ``num_shards > 1``.
        Optional — everything also prepares lazily on first use.
        """
        with self._lock:
            self._check_open()
            if not (reach_alphas or pattern_alphas or subgraph_alphas):
                reach_alphas = [self._config.alpha]
            self._ensure_engine().prepare(
                reach_alphas=reach_alphas,
                pattern_alphas=pattern_alphas,
                subgraph_alphas=subgraph_alphas,
            )
            if self._config.num_shards > 1:
                self._ensure_sharded().prepare(
                    reach_alphas=reach_alphas,
                    pattern_alphas=pattern_alphas,
                    subgraph_alphas=subgraph_alphas,
                )
        return self

    def close(self) -> None:
        """End the session: stop the async front-end, daemons, engine state.

        Idempotent; any call after ``close`` raises :class:`ServiceError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._frontend is not None:
                self._frontend.close()
                self._frontend = None
            if self._engine is not None:
                self._engine.close()  # warm daemons + their shared segments
            if self._sharded is not None:
                self._sharded.close()
            self._engine = None
            self._sharded = None

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("GraphService is closed")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def planner(self) -> Planner:
        return self._planner

    @property
    def graph(self) -> GraphLike:
        """The graph currently served (post-update substrate once built)."""
        if self._engine is not None:
            return self._engine.prepared.graph
        return self._source

    @property
    def engine(self) -> QueryEngine:
        """The underlying single-graph engine (built on first access).

        Exposed for call sites that need engine internals (index
        introspection, raw batch reports); answering through the service
        API keeps the planner and the stats in the loop.
        """
        with self._lock:
            self._check_open()
            return self._ensure_engine()

    @property
    def backend(self) -> str:
        """Serving substrate class name (``CSRGraph`` or ``DiGraph``)."""
        return self.engine.backend

    def stats(self) -> ServiceStats:
        """An immutable snapshot of the cumulative serving counters."""
        with self._lock:
            snapshot = self._stats.snapshot()
            if self._frontend is not None:
                snapshot.max_inflight = max(
                    snapshot.max_inflight, self._frontend.admission.max_seen
                )
                snapshot.admission_waits = self._frontend.admission.waits
            return snapshot

    # ------------------------------------------------------------------ #
    # Distributed tracing / flight recorder
    # ------------------------------------------------------------------ #
    def enable_tracing(
        self,
        capacity: int = obs.flight.DEFAULT_CAPACITY,
        slow_ms: Optional[float] = obs.flight.DEFAULT_SLOW_MS,
        slow_capacity: int = obs.flight.DEFAULT_SLOW_CAPACITY,
    ) -> "obs.flight.FlightRecorder":
        """Start recording per-batch timelines into a bounded flight recorder.

        Every subsequent batch gets a ``trace_id`` on its report; completed
        timelines (including worker-side spans shipped back over the daemon
        pool) are retrievable via :meth:`trace_timeline`,
        :meth:`recent_traces`, :meth:`slow_traces` and
        :meth:`trace_for_percentile` until evicted.
        """
        return obs.flight.enable(
            capacity=capacity, slow_ms=slow_ms, slow_capacity=slow_capacity
        )

    def disable_tracing(self) -> None:
        """Stop recording and drop the flight recorder."""
        obs.flight.disable()

    def trace_timeline(self, trace_id: Optional[str]) -> Optional["obs.flight.Timeline"]:
        """The assembled timeline for one batch's ``trace_id`` (or ``None``)."""
        recorder = obs.flight.recorder()
        return recorder.timeline(trace_id) if recorder is not None else None

    def recent_traces(self, limit: Optional[int] = None) -> List["obs.flight.Timeline"]:
        """Recently completed timelines, oldest first (empty when off)."""
        recorder = obs.flight.recorder()
        return recorder.recent(limit) if recorder is not None else []

    def slow_traces(self) -> List["obs.flight.Timeline"]:
        """The slow-query log: timelines at or above the recorder's threshold."""
        recorder = obs.flight.recorder()
        return recorder.slow() if recorder is not None else []

    def trace_for_percentile(
        self, name: str = "service.batch.seconds", q: float = 0.99
    ) -> Tuple[Optional[str], Optional["obs.flight.Timeline"]]:
        """Resolve a latency quantile to a concrete trace via its exemplar."""
        return obs.flight.trace_for_percentile(name, q)

    def shard_profile(self) -> Dict[str, Any]:
        """Partition/boundary statistics (builds the sharded engine)."""
        with self._lock:
            self._check_open()
            return self._ensure_sharded().describe()

    # ------------------------------------------------------------------ #
    # Engine construction (the only place engines are assembled)
    # ------------------------------------------------------------------ #
    def _ensure_engine(self) -> QueryEngine:
        if self._engine is None:
            self._engine = QueryEngine(
                self._source,
                cache_size=self._config.cache_size,
                mirror=self._config.mirror,
                compressed=self._compressed,
            )
        return self._engine

    def _ensure_sharded(self) -> ShardedEngine:
        if self._sharded is None:
            # Built from the *currently served* graph, so a service that
            # absorbed deltas before its first sharded batch partitions the
            # updated graph, not the stale construction-time source.
            self._sharded = ShardedEngine(
                self.graph,
                num_shards=self._config.num_shards,
                method=self._config.shard_method,
                seed=self._config.seed,
                halo_depth=self._config.halo_depth,
            )
        return self._sharded

    # ------------------------------------------------------------------ #
    # Synchronous answering
    # ------------------------------------------------------------------ #
    def query(self, request: Any, alpha: Optional[float] = None) -> ServiceAnswer:
        """Answer one request (a batch of one, through the same planner)."""
        return self.run_batch([request], alpha=alpha).detailed()[0]

    def run_batch(
        self, requests: Sequence[Any], alpha: Optional[float] = None
    ) -> ServiceBatchReport:
        """Answer a batch of requests and report routing telemetry.

        ``alpha`` overrides the config default for this batch; a request's
        own ``alpha`` field overrides both.  Mixed-α batches are grouped and
        answered per α (order of the returned answers is request order
        regardless).  Accepts :class:`ReachRequest`/:class:`PatternRequest`
        objects, engine-level queries, or bare ``(source, target)`` pairs.
        """
        with self._lock:
            self._check_open()
            with obs.span("service.query", requests=len(requests)):
                return self._run_batch_locked(requests, alpha)

    def _run_batch_locked(
        self, requests: Sequence[Any], alpha: Optional[float]
    ) -> ServiceBatchReport:
        items: List[ServiceRequest] = [
            item if isinstance(item, (ReachRequest, PatternRequest)) else as_request(item)
            for item in requests
        ]
        batch_alpha = alpha if alpha is not None else self._config.alpha
        batch_trace = obs.context.trace_id()
        with obs.span("planner", requests=len(items)):
            plan = self._planner.plan_batch(len(items), self.graph.size())

        started = time.perf_counter()
        if plan.backend != SHARDED and not any(item.alpha is not None for item in items):
            # Fast path (the overwhelmingly common shape: one α, no shards):
            # requests *are* engine queries, so the batch goes straight
            # through and the engine's report is adopted wholesale — the
            # façade adds no per-query work on top of the engine's own.
            engine_report = self._engine_batch(items, batch_alpha, plan)
            report = ServiceBatchReport(
                answers=engine_report.answers,
                requests=items,
                alpha=batch_alpha,
                plan=plan,
                wall_seconds=time.perf_counter() - started,
                cache_hits=engine_report.cache_hits,
                cache_misses=engine_report.cache_misses,
                chunks=engine_report.chunks,
                kinds=engine_report.kinds,
            )
        else:
            report = self._run_batch_grouped(items, batch_alpha, plan, started)

        self._stats.record_plan(plan.backend, len(items))
        for kind, count in report.kinds.items():
            self._stats.kinds[kind] = self._stats.kinds.get(kind, 0) + count
        self._stats.cache_hits += report.cache_hits
        self._stats.cache_misses += report.cache_misses
        self._stats.shard_contained += report.shard_routed
        self._stats.shard_spilled += report.shard_single
        obs.counter("service.batches").inc()
        obs.counter("service.queries").inc(len(items))
        obs.histogram("service.batch.seconds").observe(
            report.wall_seconds, exemplar=batch_trace
        )
        report.trace_id = batch_trace
        return report

    def _run_batch_grouped(
        self,
        items: List[ServiceRequest],
        batch_alpha: float,
        plan: Plan,
        started: float,
    ) -> ServiceBatchReport:
        """The general path: per-request α overrides and/or shard routing."""
        effective = [
            item.alpha if item.alpha is not None else batch_alpha for item in items
        ]
        answers: List[Any] = [None] * len(items)
        report = ServiceBatchReport(
            answers=answers,
            requests=items,
            alpha=batch_alpha,
            alphas=effective,
            plan=plan,
            wall_seconds=0.0,
        )
        groups: Dict[float, List[int]] = {}
        for position, value in enumerate(effective):
            groups.setdefault(value, []).append(position)
        for group_alpha in sorted(groups):
            positions = groups[group_alpha]
            queries = [items[position] for position in positions]
            for query in queries:
                report.kinds[query.kind] = report.kinds.get(query.kind, 0) + 1
            if plan.backend == SHARDED:
                self._route_sharded(queries, positions, group_alpha, plan, report)
            else:
                engine_report = self._engine_batch(queries, group_alpha, plan)
                for position, answer in zip(positions, engine_report.answers):
                    answers[position] = answer
                self._absorb_engine_report(engine_report, report)
        report.wall_seconds = time.perf_counter() - started
        return report

    def _engine_batch(self, queries, alpha: float, plan: Plan) -> BatchReport:
        # plan.executor is always concrete: the planner resolves AUTO.
        return self._ensure_engine().run_batch(
            queries, alpha, executor=plan.executor, workers=plan.workers
        )

    @staticmethod
    def _absorb_engine_report(engine_report: BatchReport, report: ServiceBatchReport) -> None:
        report.cache_hits += engine_report.cache_hits
        report.cache_misses += engine_report.cache_misses
        report.chunks += engine_report.chunks

    def _route_sharded(
        self,
        queries: List[Any],
        positions: List[int],
        alpha: float,
        plan: Plan,
        report: ServiceBatchReport,
    ) -> None:
        """Split one α group between the shard engines and the single engine.

        Under the default ``contain`` policy only queries PR 4 answers
        bit-identically go to the shards: pattern queries whose ``d_Q``-ball
        is contained in the home shard's core.  Reachability always answers
        on the single-graph engine there (per-shard budget shares change the
        answer telemetry, which would break bit-parity).  The ``scatter``
        policy routes everything through the sharded engine instead.
        """
        scatter = self._config.shard_policy == SCATTER
        if scatter:
            to_shard = list(range(len(queries)))
            to_single: List[int] = []
        else:
            needs_shard = any(query.kind != REACH for query in queries)
            if not needs_shard:
                to_shard, to_single = [], list(range(len(queries)))
            else:
                sharded = self._ensure_sharded()
                to_shard, to_single = [], []
                for index, query in enumerate(queries):
                    if query.kind == REACH:
                        to_single.append(index)
                        continue
                    home = sharded.partition.shard_of(query.personalized_match)
                    if home is not None and sharded.shards[home].ball_in_core(
                        query.personalized_match, query.pattern.diameter()
                    ):
                        to_shard.append(index)
                    else:
                        to_single.append(index)
        if to_shard:
            shard_report = self._ensure_sharded().run_batch(
                [queries[index] for index in to_shard],
                alpha,
                executor=plan.executor,
                workers=plan.workers,
            )
            report.shard_reports.append(shard_report)
            report.chunks += shard_report.chunks
            for index, answer in zip(to_shard, shard_report.answers):
                report.answers[positions[index]] = answer
            report.shard_routed += len(to_shard)
        if to_single:
            engine_report = self._engine_batch(
                [queries[index] for index in to_single], alpha, plan
            )
            for index, answer in zip(to_single, engine_report.answers):
                report.answers[positions[index]] = answer
            self._absorb_engine_report(engine_report, report)
            report.shard_single += len(to_single)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(self, delta: GraphDelta) -> ServiceUpdateReport:
        """Absorb a :class:`GraphDelta`, planner deciding patch vs rebuild.

        Routes through the PR 3 incremental path on the single-graph engine
        (condensation/index repair, surgical cache invalidation) and the
        PR 4 shard-routed path when a sharded engine is live; subsequent
        answers are bit-identical to a fresh service on the mutated graph.
        """
        with self._lock:
            self._check_open()
            if not isinstance(delta, GraphDelta):
                raise ServiceError(f"update needs a GraphDelta, got {type(delta).__name__}")
            plan = self._planner.plan_update(
                delta.size(), self.graph.size(), delta.has_node_removals()
            )
            started = time.perf_counter()
            with obs.span("service.update", ops=delta.size()):
                engine_report = self._ensure_engine().update(
                    delta,
                    patch_threshold=plan.patch_threshold,
                    compact_threshold=plan.compact_threshold,
                )
                # A live sharded engine absorbs the same delta through its
                # own routing (confined churn patches the owning shard, wider
                # churn rebuilds affected shards); an unbuilt one needs
                # nothing — it partitions the already-updated graph on first
                # use.
                shard_report = (
                    self._sharded.update(delta) if self._sharded is not None else None
                )
                maintenance = self._maintain_subscriptions(engine_report)
            wall = time.perf_counter() - started
            self._stats.updates += 1
            obs.counter("service.updates").inc()
            obs.histogram("service.update.seconds").observe(wall)
            self._stats.update_modes[engine_report.mode] = (
                self._stats.update_modes.get(engine_report.mode, 0) + 1
            )
            return ServiceUpdateReport(
                plan=plan,
                engine_report=engine_report,
                shard_report=shard_report,
                wall_seconds=wall,
                maintenance=maintenance,
            )

    # ------------------------------------------------------------------ #
    # Standing queries (repro.subscribe)
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        request: Any,
        alpha: Optional[float] = None,
        sink: Optional[DeltaSink] = None,
    ) -> Subscription:
        """Register a standing query; its answer stays current across updates.

        The answer is materialised immediately through the normal batch path
        (planner, cache, executors) and pushed as the epoch-0
        :class:`~repro.subscribe.AnswerDelta` through ``sink`` (when given).
        Every subsequent :meth:`update` runs a maintenance pass: the shared
        invalidation oracle decides which subscriptions the delta may have
        affected, only those re-evaluate, and answer changes are pushed as
        further deltas.  Accepts the same request shapes as :meth:`query`.
        """
        with self._lock:
            self._check_open()
            if len(self._subscriptions) >= self._config.max_subscriptions:
                raise ServiceError(
                    f"subscription limit reached ({self._config.max_subscriptions}); "
                    "unsubscribe or raise ServiceConfig.max_subscriptions"
                )
            resolved = as_request(request)
            sub_alpha = (
                resolved.alpha
                if resolved.alpha is not None
                else (alpha if alpha is not None else self._config.alpha)
            )
            value = self._run_batch_locked([resolved], sub_alpha).answers[0]
            subscription = self._subscriptions.register(
                resolved,
                sub_alpha,
                value,
                client=resolved.client,
                sink=sink,
                max_degree=self._ensure_engine().prepared.max_degree,
            )
            self._stats.subscribed += 1
            self._stats.answer_deltas += 1  # the epoch-0 snapshot
            obs.counter("sub.registered").inc()
            obs.gauge("sub.active").set(len(self._subscriptions))
            return subscription

    def unsubscribe(self, subscription: Any) -> Subscription:
        """Remove a standing query (accepts the object or its ID)."""
        with self._lock:
            self._check_open()
            sub_id = (
                subscription.id
                if isinstance(subscription, Subscription)
                else subscription
            )
            removed = self._subscriptions.deregister(sub_id)
            self._stats.unsubscribed += 1
            obs.counter("sub.deregistered").inc()
            obs.gauge("sub.active").set(len(self._subscriptions))
            return removed

    def subscriptions(self) -> List[Subscription]:
        """A snapshot of the standing-query table, registration order."""
        with self._lock:
            return self._subscriptions.subscriptions()

    def _maintain_subscriptions(self, engine_report: UpdateReport) -> Optional[MaintenanceReport]:
        """Re-evaluate exactly the standing queries the delta may have changed.

        Called under the service lock inside ``update``.  The partition comes
        from the same oracle the engine's cache invalidation just used, so a
        subscription skips work precisely when its cached answer would have
        survived; affected ones re-run through :meth:`_run_batch_locked` —
        planner, cache, daemons and shards included — in chunks of
        ``maintenance_batch_size`` per α.
        """
        manager = self._subscriptions
        total = len(manager)
        if total == 0:
            return None
        started = time.perf_counter()
        with obs.span("subscription.maintain", subscriptions=total):
            engine = self._ensure_engine()
            decision = manager.partition(
                engine_report.summary, self.graph, engine.prepared.max_degree
            )
            changed = 0
            if decision.stale:
                groups: Dict[float, List[Subscription]] = {}
                for sub_id in decision.stale:
                    sub = manager.get(sub_id)
                    groups.setdefault(sub.alpha, []).append(sub)
                chunk_size = self._config.maintenance_batch_size
                for group_alpha in sorted(groups):
                    group = groups[group_alpha]
                    for start in range(0, len(group), chunk_size):
                        chunk = group[start : start + chunk_size]
                        batch = self._run_batch_locked(
                            [sub.request for sub in chunk], group_alpha
                        )
                        for sub, value in zip(chunk, batch.answers):
                            if manager.commit(sub.id, value) is not None:
                                changed += 1
                manager.reseed_guard(engine.prepared.max_degree)
        wall = time.perf_counter() - started
        obs.counter("sub.affected").inc(len(decision.stale))
        obs.counter("sub.skipped").inc(len(decision.retained))
        obs.histogram("sub.maintain.seconds").observe(wall)
        self._stats.sub_affected += len(decision.stale)
        self._stats.sub_skipped += len(decision.retained)
        self._stats.answer_deltas += changed
        return MaintenanceReport(
            mode=engine_report.mode,
            subscriptions=total,
            affected=len(decision.stale),
            skipped=len(decision.retained),
            changed=changed,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------ #
    # Async front-end
    # ------------------------------------------------------------------ #
    def _ensure_frontend(self):
        with self._lock:
            self._check_open()
            if self._frontend is None:
                from repro.service.aio import AsyncFrontEnd

                self._frontend = AsyncFrontEnd(self)
            return self._frontend

    async def submit(self, request: Any, alpha: Optional[float] = None) -> ServiceAnswer:
        """Answer one request asynchronously, under admission control.

        Awaits until the request is admitted (total in-flight queries below
        ``max_inflight`` and the client's α-weighted in-flight cost within
        ``client_alpha_budget``), answers on the service's worker thread,
        and returns the :class:`ServiceAnswer`.
        """
        return await self._ensure_frontend().submit(request, alpha=alpha)

    def stream(self, requests: Sequence[Any], alpha: Optional[float] = None):
        """``async for`` interface: answers yielded as chunks complete.

        The batch is split into ``stream_chunk_size`` chunks, each admitted
        independently (backpressure past the configured depth) and answered
        on the worker thread; answers stream back as each chunk finishes,
        tagged with their request ``index`` so callers can reassemble batch
        order.  Closing the generator mid-stream cancels unfinished chunks
        and releases their admission — the service stays reusable.
        """
        return self._ensure_frontend().stream(requests, alpha=alpha)

    def subscription_stream(self, requests: Sequence[Any], alpha: Optional[float] = None):
        """``async for`` over the answer deltas of a set of standing queries.

        Registers every request as a subscription (under admission control —
        each standing query holds one admission charge for the stream's
        lifetime, so a client's standing and ad-hoc queries share one α
        budget) and yields :class:`~repro.subscribe.AnswerDelta` envelopes:
        first each subscription's epoch-0 snapshot, then every answer change
        maintenance pushes.  Closing the generator (or cancelling its
        consumer) deregisters the subscriptions and releases the admission —
        the service stays reusable.
        """
        return self._ensure_frontend().subscription_stream(requests, alpha=alpha)


__all__ = [
    "GraphService",
    "ServiceBatchReport",
    "ServiceUpdateReport",
]

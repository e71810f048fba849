"""``ShardedEngine`` — scatter–gather query serving over partitioned shards.

Routing follows the locality of the paper's semantics:

* a :class:`PatternQuery` goes to the *home shard* of its personalized match
  ``v_p``.  When the ``d_Q``-ball around ``v_p`` is contained in the home
  shard's core the query is answered entirely shard-locally — and, because
  the shard evaluates under the *global* budget parameters on an
  order-exact subgraph, the answer is bit-identical to single-graph
  evaluation.  When the ball escapes, the engine falls back to the
  neighbouring shards: it assembles the evaluation region from owner-shard
  fragments (never the full graph) and answers on that.
* a :class:`ReachQuery` with both endpoints in one shard is answered by the
  shard's local ``RBReach``; a positive local answer is final (shard paths
  are real paths).  A local miss — and every cross-shard pair — scatters
  budgeted *boundary probes* to the participating shards (which boundary
  components does the source reach / does the target get reached from?) and
  gathers them through the :class:`~repro.shard.boundary.BoundaryGraph`,
  whose landmark labels compose the shard-local answers.  The global
  ``α·|G|`` visit budget is split into thirds across the forward probe, the
  backward probe and the boundary composition.

**Contract** (property-tested in ``tests/test_shard.py``): answers are never
false positives, for any ``k``; and whenever a query is shard-contained —
always at ``k = 1`` — answers are bit-identical to the single-graph
:class:`~repro.engine.QueryEngine`, for every executor and worker count.

Shards evaluate in parallel through the same executor registry the engine
uses (serial / daemon); the per-shard prepared state is published to the
shard engine's daemon pool once per state version, exactly like the
single-graph path.

Updates route to the owning shards: a delta confined to one shard's core
(and invisible to every other shard's halo) flows through that shard's
incremental ``QueryEngine.update``; anything wider rebuilds just the
affected shards.  Either way the boundary graph is repaired from the
changed shards' contributions only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.rbsim import PatternAnswer, RBSim, RBSimConfig
from repro.core.rbsub import RBSub, RBSubConfig
from repro.engine.daemons import DaemonPool
from repro.engine.engine import EngineQuery, UpdateReport
from repro.engine.executors import make_executor
from repro.engine.prepared import PreparedGraph
from repro.engine.queries import REACH, SIMULATION
from repro.exceptions import EngineError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.protocol import GraphLike
from repro.reachability.rbreach import ReachabilityAnswer
from repro.shard.boundary import DEFAULT_BOUNDARY_ALPHA, BoundaryGraph
from repro.shard.partition import (
    GREEDY,
    Partition,
    hash_shard,
    partition_graph,
    refresh_partition_statistics,
)
from repro.shard.shards import (
    DEFAULT_HALO_DEPTH,
    GraphShard,
    assemble_region,
    build_shard,
    build_shards,
)
from repro.updates.delta import ADD_EDGE, ADD_NODE, REMOVE_EDGE, GraphDelta

PROBE = "probe"
"""Internal task kind: budgeted boundary-component probe on one shard."""

PATTERN_FALLBACK_MARGIN = 3
"""Extra hops assembled past the ``d_Q``-ball for spilled pattern queries —
the same read margin the halo depth guarantees (see ``repro.shard.shards``)."""

DEFAULT_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ShardState:
    """The per-shard state shipped to executor workers (read-only)."""

    prepared: PreparedGraph
    boundary_comps: FrozenSet[NodeId]
    #: first-hit boundary labels per local component (see repro.shard.boundary).
    forward_labels: Dict[NodeId, Any] = field(default_factory=dict)
    backward_labels: Dict[NodeId, Any] = field(default_factory=dict)


def boundary_probe(
    state: ShardState,
    node: NodeId,
    forward: bool,
) -> Tuple[FrozenSet[NodeId], int]:
    """Boundary components reachable from ``node`` (or reaching it).

    An O(1) lookup in the shard's precomputed first-hit boundary labels: a
    boundary component resolves to itself, anything else to its label set
    (capped offline — truncation only loses recall, never soundness).  The
    quotient's intra-shard edges recover every boundary component behind a
    first hit, so first-hit sets compose exactly like full reach sets.
    Returns ``(hit components, items charged)``.
    """
    compressed = state.prepared.compressed()
    if node not in compressed.original:
        return frozenset(), 0
    comp = compressed.component_of(node)
    if comp in state.boundary_comps:
        return frozenset((comp,)), 1
    table = state.forward_labels if forward else state.backward_labels
    hits = frozenset(table.get(comp, ()))
    return hits, 1 + len(hits)


def answer_shard_chunk(states: Dict[int, ShardState], task: Any) -> List[Tuple[int, Any]]:
    """The one chunk function every executor runs for the sharded engine.

    ``task`` is ``(kind, shard_id, alpha, items, budgets)``; results come
    back as ``(batch position, payload)`` pairs.  Like the single-graph
    chunk function it is pure per item against read-only state, which is
    what makes answers independent of the executor and the chunking.
    """
    kind, shard_id, alpha, items, _budgets = task
    state = states[shard_id]
    if kind == REACH:
        matcher = state.prepared.rbreach(alpha)
        # The whole chunk crosses the kernel seam as one batched entry;
        # boundary probing stays per unresolved item afterwards.
        answers = matcher.query_batch([(source, target) for _, source, target in items])
        results: List[Tuple[int, Any]] = []
        for (index, source, target), answer in zip(items, answers):
            if answer.reachable or not state.boundary_comps:
                results.append((index, (answer, None, None)))
            else:
                exits = boundary_probe(state, source, True)
                entries = boundary_probe(state, target, False)
                results.append((index, (answer, exits, entries)))
        return results
    if kind == PROBE:
        return [
            (index, (forward,) + boundary_probe(state, node, forward))
            for index, node, forward in items
        ]
    if kind == SIMULATION:
        matcher = state.prepared.rbsim(alpha)
    else:
        matcher = state.prepared.rbsub(alpha)
    return [
        (index, matcher.answer(query.pattern, query.personalized_match))
        for index, query in items
    ]


def _chunk(items: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [items[start : start + size] for start in range(0, len(items), size)]


@dataclass
class ShardBatchReport:
    """Answers plus scatter–gather telemetry of one sharded batch."""

    answers: List[Any]
    alpha: float
    executor: str
    workers: int
    wall_seconds: float
    chunks: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)
    #: queries routed per shard (home-shard tasks plus probe tasks).
    per_shard: Dict[int, int] = field(default_factory=dict)
    local_reach: int = 0
    cross_reach: int = 0
    miss_composed: int = 0
    pattern_contained: int = 0
    pattern_spilled: int = 0
    spill_shards_touched: int = 0

    @property
    def throughput(self) -> float:
        """Queries answered per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.answers) / self.wall_seconds

    @property
    def spillover_fraction(self) -> float:
        """Share of the batch that needed more than its home shard."""
        total = len(self.answers)
        if total == 0:
            return 0.0
        return (self.cross_reach + self.miss_composed + self.pattern_spilled) / total


@dataclass
class ShardUpdateReport:
    """Telemetry of one ``ShardedEngine.update`` call."""

    mode: str
    delta_ops: int = 0
    wall_seconds: float = 0.0
    shard_reports: Dict[int, UpdateReport] = field(default_factory=dict)
    rebuilt_shards: List[int] = field(default_factory=list)
    boundary_repaired: bool = False
    budgets_retargeted: bool = False

    @property
    def ops_per_second(self) -> float:
        """Delta operations absorbed per second of wall time."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.delta_ops / self.wall_seconds


class ShardedEngine:
    """Partitioned serving: per-shard engines behind scatter–gather routing.

    Parameters
    ----------
    graph:
        The data graph to partition and serve.
    num_shards / method / seed:
        Partitioning configuration (see :mod:`repro.shard.partition`);
        alternatively pass a prebuilt ``partition``.
    halo_depth:
        Ghost-region depth of each shard graph (≥ 1; the default of 3 is
        the pattern-parity margin, see :mod:`repro.shard.shards`).
    boundary_alpha:
        Resource ratio of the boundary landmark index.
    cache_size:
        Per-shard answer-cache capacity for the shard engines' own update
        machinery (batch answering routes around the caches; 0 disables).
    """

    def __init__(
        self,
        graph: GraphLike,
        num_shards: int = 4,
        method: str = GREEDY,
        seed: int = 0,
        halo_depth: int = DEFAULT_HALO_DEPTH,
        boundary_alpha: float = DEFAULT_BOUNDARY_ALPHA,
        cache_size: int = 0,
        partition: Optional[Partition] = None,
    ):
        self.partition = partition if partition is not None else partition_graph(
            graph, num_shards, method=method, seed=seed
        )
        self._source = graph
        self._halo_depth = halo_depth
        self._boundary_alpha = boundary_alpha
        self._cache_size = cache_size
        self._global_size = graph.size()
        self._visit_coefficient = float(max(1, graph.max_degree()))
        self.shards: Dict[int, GraphShard] = build_shards(
            graph, self.partition, halo_depth=halo_depth, cache_size=cache_size
        )
        self._boundary: Optional[BoundaryGraph] = None
        self._working: Optional[DiGraph] = None
        # Warm daemon pool (created on first ``executor="daemon"`` batch);
        # the epoch versions the shard states the daemons hold, alongside
        # each shard's prepared-state signature.
        self._daemon_pool: Optional[DaemonPool] = None
        self._states_epoch = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """``k``."""
        return self.partition.num_shards

    @property
    def boundary(self) -> BoundaryGraph:
        """The boundary graph, built on first use (empty at ``k = 1``)."""
        if self._boundary is None:
            self._boundary = BoundaryGraph.build(
                self.shards, self.partition, boundary_alpha=self._boundary_alpha
            )
        return self._boundary

    def daemon_pool(self, workers: Optional[int] = None) -> DaemonPool:
        """The engine's warm worker pool, created on first use.

        Daemons hold the full shard-state table attached (every shard's CSR
        arrays live in shared memory), so steady-state scatter batches ship
        only query chunks.  Pair with :meth:`close` — or use the engine as a
        context manager — to tear the daemons and their segments down.
        """
        if self._daemon_pool is None or self._daemon_pool.closed:
            self._daemon_pool = DaemonPool(workers)
        return self._daemon_pool

    def close(self) -> None:
        """Shut down the daemon pool (if any); idempotent, engine stays usable."""
        if self._daemon_pool is not None:
            self._daemon_pool.close()
            self._daemon_pool = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _states_version(self) -> Tuple[Any, ...]:
        """Version token for the daemon-held shard states.

        Changes exactly when the daemons' attached state must change: an
        absorbed update (epoch), the boundary graph coming into existence,
        or any shard lazily building new prepared state (signatures).
        """
        return (
            self._states_epoch,
            self._boundary is not None,
            tuple(
                (shard_id, self.shards[shard_id].prepared.state_signature())
                for shard_id in sorted(self.shards)
            ),
        )

    def describe(self) -> Dict[str, Any]:
        """Partition/boundary statistics for reporting."""
        sizes = self.partition.shard_sizes()
        return {
            "num_shards": self.num_shards,
            "method": self.partition.method,
            "seed": self.partition.seed,
            "shard_nodes": sizes,
            "shard_core_sizes": {sid: shard.core_size for sid, shard in self.shards.items()},
            "halo_nodes": {sid: len(shard.halo) for sid, shard in self.shards.items()},
            "cut_edges": self.partition.cut_edges,
            "cut_fraction": self.partition.cut_fraction(),
            "boundary_fraction": self.partition.boundary_fraction(),
            "boundary_supernodes": self.boundary.num_supernodes(),
            "boundary_edges": self.boundary.num_edges(),
            "cross_shard_routes": {
                f"{source}->{target}": count
                for (source, target), count in sorted(self.boundary.cross_counts.items())
            },
        }

    def prepare(
        self,
        reach_alphas: Sequence[float] = (),
        pattern_alphas: Sequence[float] = (),
        subgraph_alphas: Sequence[float] = (),
    ) -> "ShardedEngine":
        """Eagerly build every shard's state (and the boundary graph)."""
        for shard in self.shards.values():
            shard.engine.prepare(
                reach_alphas=reach_alphas,
                pattern_alphas=pattern_alphas,
                subgraph_alphas=subgraph_alphas,
            )
        if reach_alphas and self.num_shards > 1:
            self.boundary
        return self

    # ------------------------------------------------------------------ #
    # Batch answering
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> ShardBatchReport:
        """Scatter the batch across shards, gather and compose the answers.

        Answers come back in input order and with the same value types as
        :meth:`QueryEngine.run_batch`.  Never a false positive; bit-identical
        to the single-graph engine for shard-contained queries.
        """
        if not 0 < alpha <= 1:
            raise EngineError(f"alpha must be in (0, 1], got {alpha}")
        runner = make_executor(executor, workers)
        started = time.perf_counter()

        answers: List[Any] = [None] * len(queries)
        report = ShardBatchReport(
            answers=answers,
            alpha=alpha,
            executor=runner.name,
            workers=runner.workers if runner.name != "serial" else 1,
            wall_seconds=0.0,
        )
        # The α·|G| budget splits across the participants: each home shard's
        # local RBReach is bounded by its own α-share of the index, the
        # exit/entry labels are precomputed offline, and the boundary
        # composition spends at most half the global allowance.
        budget_total = max(1, math.floor(alpha * self._global_size))
        share = max(1, budget_total // 2)

        reach_items: Dict[int, List[Tuple[int, NodeId, NodeId]]] = {}
        probe_items: Dict[int, List[Tuple[int, NodeId, bool]]] = {}
        pattern_items: Dict[Tuple[int, str], List[Tuple[int, Any]]] = {}
        cross_pending: Dict[int, Dict[str, Any]] = {}
        fallbacks: List[Tuple[int, Any]] = []

        for position, query in enumerate(queries):
            report.kinds[query.kind] = report.kinds.get(query.kind, 0) + 1
            if query.kind == REACH:
                source_shard = self.partition.shard_of(query.source)
                target_shard = self.partition.shard_of(query.target)
                if source_shard is None or target_shard is None:
                    # Same answer the single-graph matcher gives for unknown
                    # endpoints, produced without touching any shard.
                    answers[position] = ReachabilityAnswer(reachable=False)
                    continue
                if source_shard == target_shard:
                    reach_items.setdefault(source_shard, []).append(
                        (position, query.source, query.target)
                    )
                    report.local_reach += 1
                else:
                    probe_items.setdefault(source_shard, []).append(
                        (position, query.source, True)
                    )
                    probe_items.setdefault(target_shard, []).append(
                        (position, query.target, False)
                    )
                    cross_pending[position] = {
                        "exit_shard": source_shard,
                        "entry_shard": target_shard,
                    }
                    report.cross_reach += 1
            else:
                match = query.personalized_match
                home = self.partition.shard_of(match)
                if home is None:
                    # Matchers answer empty for an absent personalized match.
                    answers[position] = PatternAnswer(answer=set(), subgraph=DiGraph())
                    continue
                if self.shards[home].ball_in_core(match, query.pattern.diameter()):
                    pattern_items.setdefault((home, query.kind), []).append((position, query))
                    report.pattern_contained += 1
                else:
                    fallbacks.append((position, query))
                    report.pattern_spilled += 1

        multi = self.num_shards > 1
        if multi and (reach_items or probe_items):
            self.boundary  # built before states are assembled and shipped
        eager = runner.name == "daemon"
        for shard_id in set(reach_items) | set(probe_items):
            self.shards[shard_id].prepared.prepare(REACH, alpha)
        for shard_id, kind in pattern_items:
            self.shards[shard_id].prepared.prepare(kind, alpha, eager=eager)

        states = {}
        for shard_id, shard in self.shards.items():
            # Read the boundary only when the guard above already built it:
            # pattern-only batches never consult boundary state and must not
            # pay the quotient construction.
            contribution = (
                self._boundary.contribution(shard_id)
                if multi and self._boundary is not None
                else None
            )
            states[shard_id] = ShardState(
                prepared=shard.prepared,
                boundary_comps=contribution.boundary_comps if contribution else frozenset(),
                forward_labels=contribution.forward_labels if contribution else {},
                backward_labels=contribution.backward_labels if contribution else {},
            )

        pending = (
            sum(len(items) for items in reach_items.values())
            + sum(len(items) for items in probe_items.values())
            + sum(len(items) for items in pattern_items.values())
        )
        chunk_size = max(
            1, -(-pending // (max(1, runner.workers) * DEFAULT_CHUNKS_PER_WORKER))
        )
        tasks: List[Any] = []
        for shard_id in sorted(reach_items):
            report.per_shard[shard_id] = report.per_shard.get(shard_id, 0) + len(
                reach_items[shard_id]
            )
            for chunk in _chunk(reach_items[shard_id], chunk_size):
                tasks.append((REACH, shard_id, alpha, chunk, None))
        for shard_id in sorted(probe_items):
            report.per_shard[shard_id] = report.per_shard.get(shard_id, 0) + len(
                probe_items[shard_id]
            )
            for chunk in _chunk(probe_items[shard_id], chunk_size):
                tasks.append((PROBE, shard_id, alpha, chunk, None))
        for shard_id, kind in sorted(pattern_items):
            items = pattern_items[(shard_id, kind)]
            report.per_shard[shard_id] = report.per_shard.get(shard_id, 0) + len(items)
            for chunk in _chunk(items, chunk_size):
                tasks.append((kind, shard_id, alpha, chunk, None))
        report.chunks = len(tasks)

        # Bind the daemon runner after shard preparation so the version token
        # reflects what this batch needs; the fresh per-batch ``states`` dict
        # is only republished when the token moves.
        if runner.name == "daemon" and tasks:
            runner.bind(self.daemon_pool(workers), version=self._states_version())

        with obs.span("shard.batch", executor=runner.name, chunks=len(tasks)):
            batch_trace = obs.context.trace_id()
            chunk_results = runner.run(states, tasks, chunk_fn=answer_shard_chunk)

        probe_results: Dict[int, Dict[bool, Tuple[FrozenSet[NodeId], int]]] = {}
        for task, results in zip(tasks, chunk_results):
            kind, shard_id = task[0], task[1]
            if kind == REACH:
                for position, (local, exits, entries) in results:
                    if exits is None:
                        answers[position] = local
                        continue
                    report.miss_composed += 1
                    answers[position] = self._compose_answer(
                        local, exits, entries, shard_id, shard_id, share
                    )
            elif kind == PROBE:
                for position, (forward, hits, charged) in results:
                    probe_results.setdefault(position, {})[forward] = (hits, charged)
            else:
                for position, answer in results:
                    answers[position] = answer

        for position, pending_record in cross_pending.items():
            exits = probe_results.get(position, {}).get(True, (frozenset(), 0))
            entries = probe_results.get(position, {}).get(False, (frozenset(), 0))
            answers[position] = self._compose_answer(
                None,
                exits,
                entries,
                pending_record["exit_shard"],
                pending_record["entry_shard"],
                share,
            )

        for position, query in fallbacks:
            answer, touched = self._answer_fallback(query, alpha)
            answers[position] = answer
            report.spill_shards_touched += touched

        report.wall_seconds = time.perf_counter() - started
        obs.counter("shard.batches").inc()
        obs.histogram("shard.scatter.fanout", scheme="count").observe(
            float(len(report.per_shard))
        )
        obs.counter("shard.reach.local").inc(report.local_reach)
        obs.counter("shard.reach.cross").inc(report.cross_reach)
        # Queries that escaped their home shard: cross-shard reach, local
        # probes that missed into boundary composition, spilled patterns.
        # The exemplar pins the spillover to this batch's trace, so the
        # known spillover soft spot is attributable to concrete queries.
        spilled = report.cross_reach + report.miss_composed + report.pattern_spilled
        obs.counter("shard.spillover").inc(
            spilled, exemplar=batch_trace if spilled else None
        )
        obs.counter("shard.boundary.probes").inc(
            sum(len(items) for items in probe_items.values())
        )
        return report

    def answer_batch(
        self,
        queries: Sequence[EngineQuery],
        alpha: float,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> List[Any]:
        """Like :meth:`run_batch` but returns just the answers."""
        return self.run_batch(queries, alpha, executor=executor, workers=workers).answers

    def _compose_answer(
        self,
        local: Optional[ReachabilityAnswer],
        exits: Tuple[FrozenSet[NodeId], int],
        entries: Tuple[FrozenSet[NodeId], int],
        exit_shard: int,
        entry_shard: int,
        share: int,
    ) -> ReachabilityAnswer:
        """Gather one reach query: local miss (or cross pair) + boundary."""
        exit_comps, exit_charged = exits
        entry_comps, entry_charged = entries
        reachable, composed_visited, met, exhausted = self.boundary.compose(
            exit_comps, entry_comps, exit_shard, entry_shard, share
        )
        visited = exit_charged + entry_charged + composed_visited
        if local is not None:
            visited += local.visited
            exhausted = exhausted or local.exhausted
        return ReachabilityAnswer(
            reachable=reachable,
            visited=visited,
            met_at=met,
            exhausted=exhausted,
        )

    def _answer_fallback(self, query, alpha: float) -> Tuple[PatternAnswer, int]:
        """A spilled pattern query: assemble the region, answer on it.

        The region (ball plus the matchers' read margin) is stitched from
        owner-shard fragments with both adjacency orders preserved, and the
        matcher runs under the global budget parameters — so even the
        fallback usually reproduces the single-graph answer; only the
        containment case is *contractually* bit-identical.
        """
        radius = query.pattern.diameter() + PATTERN_FALLBACK_MARGIN
        region, touched = assemble_region(
            self.shards, self.partition, query.personalized_match, radius
        )
        if query.kind == SIMULATION:
            matcher = RBSim(
                region,
                alpha,
                config=RBSimConfig(visit_coefficient=self._visit_coefficient),
                reference_size=self._global_size,
            )
        else:
            matcher = RBSub(
                region,
                alpha,
                config=RBSubConfig(visit_coefficient=self._visit_coefficient),
                reference_size=self._global_size,
            )
        return matcher.answer(query.pattern, query.personalized_match), touched

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(self, delta: GraphDelta) -> ShardUpdateReport:
        """Absorb a delta, routing ops to the owning shards.

        A delta confined to one shard's core — every named node owned by
        that shard and invisible to every other shard's halo — takes the
        incremental path: the shard's own ``QueryEngine.update`` patches its
        prepared state in place.  Anything wider (cross-shard edges, node
        removals, halo-visible nodes) rebuilds exactly the affected shards
        from the authoritative working graph.  Both paths finish with a
        boundary-graph repair restricted to the changed shards and a
        re-pinning of the global pattern-budget parameters.
        """
        started = time.perf_counter()
        report = ShardUpdateReport(mode="local", delta_ops=delta.size())
        working = self._ensure_working()
        placements = self._place_new_nodes(delta)
        fast_shard = self._fast_path_shard(delta, placements)
        # Any update (even a failed one, whose op prefix landed) must move
        # the epoch so warm daemons republish instead of serving stale state.
        self._states_epoch += 1

        try:
            delta.apply_to(working)
        except Exception:
            # The failing op's prefix is on the working graph; resync every
            # membership structure with it before propagating.
            self._resync_assignment(placements)
            self._rebuild_from_working(set(self.shards), report)
            raise

        self._global_size = working.size()
        new_coefficient = float(max(1, working.max_degree()))
        # Confined churn cannot create or remove cut edges (every endpoint
        # lives in one shard), so only the total needs tracking on the fast
        # path; the rebuild path recomputes the full statistics anyway.
        self.partition.total_edges = working.num_edges()

        if fast_shard is not None:
            shard = self.shards[fast_shard]
            for node, owner in placements.items():
                self.partition.assign(node, owner)
                shard.core.add(node)
                shard.core_list.append(node)
                shard.node_set.add(node)
            report.shard_reports[fast_shard] = shard.engine.update(delta)
            shard.graph = shard.prepared.graph  # substrate may now be an overlay
            shard.refresh_core_size()
            if self.num_shards > 1:
                shard.prepared.retarget_reach_budget(shard.core_size)
                if self._boundary is not None and self.partition.boundary.get(fast_shard):
                    self._boundary.repair(self.shards, self.partition, [fast_shard])
                    report.boundary_repaired = True
        else:
            report.mode = "rebuilt"
            affected = self._resync_assignment(placements, delta.touched_nodes())
            self._rebuild_from_working(affected, report, new_coefficient)

        if self.num_shards > 1:
            retargeted = False
            for shard in self.shards.values():
                if shard.prepared.retarget_pattern_budget(self._global_size, new_coefficient):
                    retargeted = True
                    shard.engine.clear_cache()
            report.budgets_retargeted = retargeted
        self._visit_coefficient = new_coefficient
        report.wall_seconds = time.perf_counter() - started
        return report

    def _ensure_working(self) -> DiGraph:
        """The authoritative mutable graph, materialised on first update.

        A ``DiGraph`` source is copied with both adjacency orders intact; an
        immutable source is thawed edge-by-edge (successor order exact,
        predecessor order source-major — rebuilt shards then agree with the
        working graph, which *is* the post-update reference).
        """
        if self._working is None:
            if isinstance(self._source, DiGraph):
                self._working = self._source.copy()
            else:
                working = DiGraph()
                for node in self._source.nodes():
                    working.add_node(node, self._source.label(node))
                for source, target in self._source.edges():
                    working.add_edge(source, target)
                self._working = working
        return self._working

    def _place_new_nodes(self, delta: GraphDelta) -> Dict[NodeId, int]:
        """Home shards for the delta's new nodes (attachment rule, then hash).

        A new node lands on the shard of the first existing (or
        already-placed) node it is connected to by an edge op in the same
        delta — churn that attaches inside one shard stays inside it — and
        falls back to the hash rule when nothing anchors it.
        """
        placements: Dict[NodeId, int] = {}
        new_nodes = [
            op.node
            for op in delta.ops
            if op.kind == ADD_NODE and self.partition.shard_of(op.node) is None
        ]
        for node in new_nodes:
            owner: Optional[int] = None
            for op in delta.ops:
                if op.kind not in (ADD_EDGE, REMOVE_EDGE):
                    continue
                if op.node == node:
                    other = op.target
                elif op.target == node:
                    other = op.node
                else:
                    continue
                owner = self.partition.shard_of(other)
                if owner is None:
                    owner = placements.get(other)
                if owner is not None:
                    break
            if owner is None:
                owner = hash_shard(node, self.partition.num_shards)
            placements[node] = owner
        return placements

    def _fast_path_shard(
        self, delta: GraphDelta, placements: Dict[NodeId, int]
    ) -> Optional[int]:
        """The single shard a delta is confined to, or ``None``.

        Confinement requires every named node to resolve to one home shard
        and to be invisible to every other shard (not even in a halo), and
        the delta to be free of node removals (the per-shard engines
        already route those to their rebuild path; here a removal also
        changes other shards' halos).
        """
        if self.num_shards == 1:
            return 0 if not delta.has_node_removals() else None
        if delta.has_node_removals():
            return None
        target: Optional[int] = None
        named: List[NodeId] = []
        for op in delta.ops:
            nodes = [op.node]
            if op.kind in (ADD_EDGE, REMOVE_EDGE):
                nodes.append(op.target)
            for node in nodes:
                owner = self.partition.shard_of(node)
                if owner is None:
                    owner = placements.get(node)
                if owner is None:
                    return None
                if target is None:
                    target = owner
                elif owner != target:
                    return None
                named.append(node)
        if target is None:
            return None
        for node in named:
            for shard_id, shard in self.shards.items():
                if shard_id != target and node in shard.node_set:
                    return None
        return target

    def _resync_assignment(
        self, placements: Dict[NodeId, int], touched: Optional[set] = None
    ) -> set:
        """Align the partition with the working graph; returns affected shards."""
        working = self._working
        affected = set()
        touched = set(touched or ())
        touched |= set(placements)
        for node in touched:
            for shard_id, shard in self.shards.items():
                if node in shard.node_set:
                    affected.add(shard_id)
        for node in touched:
            known = self.partition.shard_of(node)
            if node in working and known is None:
                owner = placements.get(node)
                owner = self.partition.assign(node, owner)
                affected.add(owner)
            elif node not in working and known is not None:
                self.partition.forget(node)
                affected.add(known)
        return affected

    def _rebuild_from_working(
        self,
        shard_ids: set,
        report: ShardUpdateReport,
        visit_coefficient: Optional[float] = None,
    ) -> None:
        """Rebuild the named shards from the working graph + repair boundary."""
        working = self._working
        refresh_partition_statistics(working, self.partition)
        coefficient = (
            visit_coefficient
            if visit_coefficient is not None
            else float(max(1, working.max_degree()))
        )
        for shard_id in sorted(shard_ids):
            self.shards[shard_id] = build_shard(
                working,
                self.partition,
                shard_id,
                halo_depth=self._halo_depth,
                cache_size=self._cache_size,
                global_size=self._global_size,
                visit_coefficient=coefficient,
            )
            report.rebuilt_shards.append(shard_id)
        if self.num_shards > 1 and self._boundary is not None and shard_ids:
            self._boundary.repair(self.shards, self.partition, shard_ids)
            report.boundary_repaired = True


__all__ = [
    "PATTERN_FALLBACK_MARGIN",
    "ShardBatchReport",
    "ShardState",
    "ShardUpdateReport",
    "ShardedEngine",
    "answer_shard_chunk",
    "boundary_probe",
]

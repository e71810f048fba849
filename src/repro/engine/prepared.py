"""Once-per-graph prepared state shared by every query in a batch.

The paper's premise is that queries "arrive by the thousands" while the
expensive work — freezing the graph into CSR, condensing SCCs, building the
hierarchical landmark index, summarising labels and degrees — happens *once*.
:class:`PreparedGraph` is that one-time product: an immutable-after-prepare
bundle the engine consults per query and ships to worker processes once per
worker (via the pool initializer), never per query.

Everything stored here is plain data (dicts, dataclasses, numpy arrays), so
the whole bundle pickles; under the ``fork`` start method it is inherited
copy-on-write and never serialised at all.
"""

from __future__ import annotations

import io
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Set

from repro import obs
from repro.core.rbsim import RBSim, RBSimConfig
from repro.core.rbsub import RBSub, RBSubConfig
from repro.exceptions import EngineError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.protocol import GraphLike
from repro.graph.statistics import summarize_for_report
from repro.reachability.compression import CompressedGraph, compress
from repro.reachability.hierarchy import HierarchicalLandmarkIndex, build_index
from repro.reachability.rbreach import RBReach
from repro.updates.delta import AppliedDelta, GraphDelta
from repro.updates.overlay import MutableOverlay

DEFAULT_PATCH_THRESHOLD = 0.05
"""Deltas above this fraction of ``|G|`` skip patching (rebuild wins)."""

DEFAULT_COMPACT_THRESHOLD = 0.25
"""Overlay churn fraction beyond which the overlay folds into a fresh CSR."""


@dataclass
class UpdateSummary:
    """What one ``apply_delta`` call did to the prepared state.

    ``mode`` is ``"noop"`` (delta had no effect), ``"fresh"`` (no derived
    state existed yet — substrate updated, nothing to patch), ``"patched"``
    (condensation and indexes repaired in place) or ``"rebuilt"`` (derived
    state dropped, lazily rebuilt from scratch).  The cache-invalidation
    fields say which cached answers provably survived: see
    ``QueryEngine.update``.
    """

    mode: str
    seconds: float = 0.0
    delta_ops: int = 0
    touched_nodes: Set[NodeId] = field(default_factory=set)
    compacted: bool = False
    size_changed: bool = False
    #: ``|G|`` before/after the delta — the inputs of the per-α resource
    #: budget ``⌊α·|G|⌋``, so invalidation can tell a size drift that moves
    #: a budget from one that does not (see ``repro.engine.invalidation``).
    size_before: int = 0
    size_after: int = 0
    #: Per prepared α: the repaired index (plus ranks) is answer-identical
    #: to the pre-update one, so untouched cached answers are still exact.
    reach_alphas_preserved: Dict[float, bool] = field(default_factory=dict)
    #: Original nodes whose condensed component changed (merges/splits).
    membership_dirty: Set[NodeId] = field(default_factory=set)
    #: Nodes whose neighbourhood summary was evicted.
    summaries_evicted: int = 0
    #: Degrees of the delta's touched nodes before/after the update — the
    #: only degrees that can move, so the engine's pattern-cache guard can
    #: detect max-degree changes without a full-graph scan.
    touched_degrees_before: Dict[NodeId, int] = field(default_factory=dict)
    touched_degrees_after: Dict[NodeId, int] = field(default_factory=dict)
    #: Landmarks re-swept across all repaired α indexes (``patched`` mode
    #: only) — the dominant cost of an in-place repair.
    dirty_landmarks: int = 0


def _freeze(graph: GraphLike, mirror: str) -> GraphLike:
    """Resolve the serving substrate according to the ``mirror`` policy."""
    if mirror not in ("auto", "always", "never"):
        raise EngineError(f"unknown mirror policy {mirror!r}; use auto, always or never")
    if mirror == "never" or not isinstance(graph, DiGraph):
        return graph
    try:
        from repro.graph.csr import CSRGraph
    except ImportError:
        if mirror == "always":
            raise EngineError("mirror='always' requires numpy for the CSR backend")
        return graph
    return CSRGraph.from_digraph(graph)


class PreparedGraph:
    """The engine's prepared, read-only view of one data graph.

    Parameters
    ----------
    graph:
        The data graph.  A mutable :class:`DiGraph` is frozen into a
        :class:`CSRGraph` mirror when numpy is available (``mirror="auto"``,
        the default) — ``CSRGraph.from_digraph`` preserves neighbour
        iteration order, so answers are identical on either substrate.
    mirror:
        ``"auto"`` (freeze when possible), ``"always"`` (error without
        numpy) or ``"never"`` (serve on the graph as given).
    compressed:
        Optional precomputed SCC condensation of ``graph`` — pass it when
        the caller already compressed the graph (as the experiment drivers
        do for their baselines) to avoid a second O(V+E) compress pass.
        Only accepted with ``mirror="never"``: the condensation must
        describe the exact substrate the engine serves on.
    reach_reference_size:
        Optional ``|G|`` used for the ``RBReach`` index budget instead of
        the serving graph's own size.  The sharded serving layer pins each
        shard's share of the global ``α·|G|`` budget here, so the per-shard
        indexes together stay within the paper's bound.
    pattern_reference_size / pattern_visit_coefficient:
        Optional overrides for the pattern matchers' resource budget
        (``α·|G|`` storage cap and visit coefficient ``c = d_G``).  A shard
        evaluates pattern queries on its subgraph but under the *global*
        graph's budget parameters, which is what makes shard-contained
        answers bit-identical to single-graph evaluation.
    """

    def __init__(
        self,
        graph: GraphLike,
        mirror: str = "auto",
        compressed: Optional[CompressedGraph] = None,
        reach_reference_size: Optional[int] = None,
        pattern_reference_size: Optional[int] = None,
        pattern_visit_coefficient: Optional[float] = None,
    ):
        self.original = graph
        self.graph = _freeze(graph, mirror)
        if compressed is not None and compressed.original is not self.graph:
            raise EngineError(
                "precomputed compression must condense the graph the engine serves on "
                "(pass mirror='never' when injecting a compression of the input graph)"
            )
        self._statistics: Optional[Mapping[str, object]] = None
        self._compressed: Optional[CompressedGraph] = compressed
        self._compress_seconds: float = 0.0
        self._indexes: Dict[float, HierarchicalLandmarkIndex] = {}
        self._index_build_seconds: Dict[float, float] = {}
        self._rbreach: Dict[float, RBReach] = {}
        self._neighborhood: Optional[NeighborhoodIndex] = None
        self._neighborhood_precomputed = False
        self._rbsim: Dict[float, RBSim] = {}
        self._rbsub: Dict[float, RBSub] = {}
        self._maintainer = None  # CondensationMaintainer, built on first patch
        self._max_degree_cache: Optional[int] = None
        self._reach_reference_size = reach_reference_size
        self._pattern_reference_size = pattern_reference_size
        self._pattern_visit_coefficient = pattern_visit_coefficient

    @property
    def backend(self) -> str:
        """Class name of the serving substrate (``CSRGraph`` or ``DiGraph``)."""
        return type(self.graph).__name__

    @property
    def statistics(self) -> Mapping[str, object]:
        """Label/degree statistics of the serving graph, computed on first use."""
        if self._statistics is None:
            self._statistics = summarize_for_report(self.graph, "prepared")
        return self._statistics

    def max_degree(self) -> int:
        """``d_G`` of the serving graph, scanned once and then maintained.

        ``apply_delta`` keeps the cached value current from the touched
        nodes' degree changes (the only degrees a delta can move), so
        repeated callers — the engine's pattern-cache guard — avoid paying
        a full-graph scan per update.
        """
        if self._max_degree_cache is None:
            self._max_degree_cache = self.graph.max_degree()
        return self._max_degree_cache

    # ------------------------------------------------------------------ #
    # Reachability state
    # ------------------------------------------------------------------ #
    def compressed(self) -> CompressedGraph:
        """The SCC condensation, built on first use (paper Section 5)."""
        if self._compressed is None:
            started = time.perf_counter()
            self._compressed = compress(self.graph)
            if self._compressed.dag_csr is None and isinstance(self.graph, MutableOverlay):
                # Serving on an overlay (post-update): give the DAG the same
                # vectorised mirror a CSR substrate would have.  The mirror
                # only feeds order-insensitive kernels, so answers are
                # unchanged; the paper-figure paths (mirror="never" on a
                # DiGraph) are left alone so their timings stay comparable.
                try:
                    from repro.graph.csr import CSRGraph

                    self._compressed.dag_csr = CSRGraph.from_graph_unordered(self._compressed.dag)
                except ImportError:  # pragma: no cover - numpy normally present
                    pass
            self._compress_seconds = time.perf_counter() - started
        return self._compressed

    def _reach_reference(self) -> int:
        """``|G|`` the α reachability budget is stated on (override-aware)."""
        if self._reach_reference_size is not None:
            return self._reach_reference_size
        return self.graph.size()

    def reachability_index(self, alpha: float) -> HierarchicalLandmarkIndex:
        """The hierarchical landmark index for ``alpha``, built on first use."""
        index = self._indexes.get(alpha)
        if index is None:
            compressed = self.compressed()
            started = time.perf_counter()
            index = build_index(compressed, alpha, reference_size=self._reach_reference())
            self._index_build_seconds[alpha] = time.perf_counter() - started
            self._indexes[alpha] = index
        return index

    def index_build_seconds(self, alpha: float) -> float:
        """Wall-clock cost of building the α index (0.0 if never built)."""
        return self._index_build_seconds.get(alpha, 0.0)

    def rbreach(self, alpha: float) -> RBReach:
        """A matcher over the α index (one per α, shared by all queries)."""
        matcher = self._rbreach.get(alpha)
        if matcher is None:
            matcher = RBReach(self.reachability_index(alpha))
            self._rbreach[alpha] = matcher
        return matcher

    # ------------------------------------------------------------------ #
    # Pattern state
    # ------------------------------------------------------------------ #
    def neighborhood_index(self) -> NeighborhoodIndex:
        """The shared ``Sl`` summary cache consulted by the dynamic reduction."""
        if self._neighborhood is None:
            self._neighborhood = NeighborhoodIndex(self.graph)
        return self._neighborhood

    def rbsim(self, alpha: float) -> RBSim:
        """The strong-simulation matcher for ``alpha`` (shared index)."""
        matcher = self._rbsim.get(alpha)
        if matcher is None:
            matcher = RBSim(
                self.graph,
                alpha,
                config=RBSimConfig(visit_coefficient=self._pattern_visit_coefficient),
                neighborhood_index=self.neighborhood_index(),
                reference_size=self._pattern_reference_size,
            )
            self._rbsim[alpha] = matcher
        return matcher

    def rbsub(self, alpha: float) -> RBSub:
        """The subgraph-isomorphism matcher for ``alpha`` (shared index)."""
        matcher = self._rbsub.get(alpha)
        if matcher is None:
            matcher = RBSub(
                self.graph,
                alpha,
                config=RBSubConfig(visit_coefficient=self._pattern_visit_coefficient),
                neighborhood_index=self.neighborhood_index(),
                reference_size=self._pattern_reference_size,
            )
            self._rbsub[alpha] = matcher
        return matcher

    # ------------------------------------------------------------------ #
    # Budget retargeting (sharded serving)
    # ------------------------------------------------------------------ #
    def retarget_reach_budget(self, reference_size: int) -> bool:
        """Re-pin the α reachability budget to a new reference ``|G|``.

        The sharded engine calls this after an update changed a shard's
        share of the global budget.  When the reference actually moved, the
        built α indexes (sized for the old reference) are dropped for lazy
        rebuild; returns whether anything changed.
        """
        if self._reach_reference_size == reference_size:
            return False
        self._reach_reference_size = reference_size
        self._indexes = {}
        self._index_build_seconds = {}
        self._rbreach = {}
        return True

    def retarget_pattern_budget(self, reference_size: int, visit_coefficient: float) -> bool:
        """Re-pin the pattern budget parameters (global ``|G|`` and ``d_G``).

        Cached matchers hold the old budget, so they are dropped for lazy
        rebuild when either parameter moved; returns whether anything
        changed.  The shared neighbourhood summaries are content-derived and
        survive untouched.
        """
        if (
            self._pattern_reference_size == reference_size
            and self._pattern_visit_coefficient == visit_coefficient
        ):
            return False
        self._pattern_reference_size = reference_size
        self._pattern_visit_coefficient = visit_coefficient
        self._rbsim = {}
        self._rbsub = {}
        return True

    # ------------------------------------------------------------------ #
    # Eager preparation
    # ------------------------------------------------------------------ #
    def prepare(self, kind: str, alpha: float, eager: bool = False) -> None:
        """Eagerly build the state one query kind needs at one α.

        The engine calls this *before* dispatching to a worker pool so every
        worker receives finished state instead of rebuilding it: the build
        happens once in the parent, not once per worker.

        ``eager=True`` (used before publishing to the daemon pool)
        additionally runs the paper's once-for-all offline pass for pattern
        kinds — ``NeighborhoodIndex.precompute()`` — because a lazily-filled
        summary cache shipped to the workers would make every worker
        re-summarise the nodes its chunks touch.  The serial executor shares
        the cache in-process, so it keeps the cheaper lazy fill.
        """
        from repro.engine.queries import KINDS, REACH, SIMULATION

        if kind not in KINDS:
            raise EngineError(f"unknown query kind {kind!r}; known kinds: {', '.join(KINDS)}")
        if kind == REACH:
            self.rbreach(alpha)
            return
        if kind == SIMULATION:
            self.rbsim(alpha)
        else:
            self.rbsub(alpha)
        if eager and not self._neighborhood_precomputed:
            self.neighborhood_index().precompute()
            self._neighborhood_precomputed = True

    def state_signature(self) -> tuple:
        """Hashable token of which derived structures currently exist.

        The daemon pool republishes shared state when this changes between
        batches (a new α index built, matchers dropped by an update or a
        budget retarget), so long-lived workers never serve stale state.
        """
        return (
            tuple(sorted(self._indexes)),
            tuple(sorted(self._rbsim)),
            tuple(sorted(self._rbsub)),
            self._neighborhood_precomputed,
            self._compressed is not None,
        )

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def apply_delta(
        self,
        delta: GraphDelta,
        patch_threshold: float = DEFAULT_PATCH_THRESHOLD,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ) -> UpdateSummary:
        """Absorb a :class:`GraphDelta` into the prepared state.

        The substrate always updates in O(|delta|) via a
        :class:`MutableOverlay`; the derived state (condensation, per-α
        landmark indexes, neighbourhood summaries, statistics) is *patched*
        when the delta is small and free of node removals, and otherwise
        dropped for lazy rebuild.  Either way the post-update answers are
        bit-identical to a :class:`PreparedGraph` freshly built on the
        updated substrate — the rebuild-equivalence contract.

        If an op in the delta is invalid (removing a missing edge, ...), the
        error propagates after the already-applied prefix is made consistent
        by dropping all derived state.
        """
        started = time.perf_counter()
        if not isinstance(self.graph, MutableOverlay):
            self._rebind_substrate(MutableOverlay(self.graph))
        overlay: MutableOverlay = self.graph
        pre_size = overlay.size()

        # The maintainer's edge multiplicities must be bootstrapped from the
        # *pre-delta* graph, so build it before mutating the substrate.
        may_patch = (
            self._compressed is not None
            and not delta.has_node_removals()
            and delta.size() <= patch_threshold * max(1, pre_size)
        )
        if may_patch and self._maintainer is None:
            from repro.updates.scc import CondensationMaintainer

            self._maintainer = CondensationMaintainer.from_fresh(
                overlay, self._compressed.condensation
            )

        delta_touched = delta.touched_nodes()
        degrees_before = {
            node: overlay.degree(node) for node in delta_touched if node in overlay
        }

        record = AppliedDelta()
        try:
            overlay.apply(delta, applied=record)
        except Exception:
            self._invalidate_derived()
            raise

        summary = UpdateSummary(
            mode="noop", delta_ops=delta.size(), size_before=pre_size, size_after=pre_size
        )
        if record.is_empty():
            summary.seconds = time.perf_counter() - started
            obs.counter("update.noop").inc()
            return summary
        summary.touched_nodes = record.touched_nodes()
        summary.size_after = overlay.size()
        summary.size_changed = summary.size_after != pre_size
        summary.touched_degrees_before = degrees_before
        summary.touched_degrees_after = {
            node: overlay.degree(node) for node in delta_touched if node in overlay
        }
        if self._max_degree_cache is not None:
            cached = self._max_degree_cache
            grown = max(summary.touched_degrees_after.values(), default=0)
            if any(
                degree == cached and summary.touched_degrees_after.get(node, 0) < cached
                for node, degree in degrees_before.items()
            ):
                # A node at the cached maximum shrank; it may have been the
                # unique holder, so the cache must be re-derived lazily.
                self._max_degree_cache = None
            elif grown > cached:
                self._max_degree_cache = grown

        if self._compressed is None:
            summary.mode = "fresh"
        else:
            patch = None
            if may_patch and self._maintainer is not None:
                patch = self._maintainer.apply(overlay, record)
            if patch is None:
                self._invalidate_derived()
                summary.mode = "rebuilt"
            else:
                summary.mode = "patched"
                self._patch_reachability(patch, summary)

        # Pattern-side state: matchers cache α·|G| budgets and max-degree
        # coefficients, so they are always rebuilt lazily; the expensive
        # shared summaries survive minus the touched neighbourhoods.
        self._rbsim = {}
        self._rbsub = {}
        self._statistics = None
        if self._neighborhood is not None:
            summary.summaries_evicted = self._neighborhood.invalidate(record.summary_dirty)
            if summary.summaries_evicted:
                self._neighborhood_precomputed = False

        if overlay.fraction() > compact_threshold:
            self._rebind_substrate(overlay.compact())
            summary.compacted = True

        summary.seconds = time.perf_counter() - started
        obs.counter("update." + summary.mode).inc()
        if summary.dirty_landmarks:
            obs.counter("update.dirty.landmarks").inc(summary.dirty_landmarks)
        return summary

    def _patch_reachability(self, patch, summary: UpdateSummary) -> None:
        """Swap in the patched condensation and repair every built α index."""
        from repro.updates.index_repair import index_equivalent, repair_index

        dag_csr = self._maintainer.dag_mirror() if self._maintainer is not None else None
        new_compressed = CompressedGraph(
            original=self.graph,
            condensation=patch.condensation,
            ranks=patch.rank_index,
            dag_csr=dag_csr,
        )
        self._compressed = new_compressed
        members = patch.condensation.members
        for component in patch.changed_components:
            summary.membership_dirty |= members[component]

        old_indexes = self._indexes
        self._indexes = {}
        self._rbreach = {}
        reference_size = self._reach_reference()
        dirty = patch.dirty_forward | patch.dirty_backward
        for alpha, old_index in old_indexes.items():
            summary.dirty_landmarks += sum(
                1 for landmark in old_index.landmarks if landmark in dirty
            )
            repaired = repair_index(old_index, new_compressed, patch, reference_size)
            self._indexes[alpha] = repaired
            summary.reach_alphas_preserved[alpha] = not patch.ranks_changed and index_equivalent(
                old_index, repaired
            )

    def _rebind_substrate(self, graph: GraphLike) -> None:
        """Swap the serving substrate, keeping content-derived state valid."""
        self.graph = graph
        if self._compressed is not None:
            self._compressed.original = graph
        if self._neighborhood is not None:
            self._neighborhood.rebind(graph)
        # Matchers hold direct substrate references; rebuild them lazily.
        self._rbsim = {}
        self._rbsub = {}
        self._rbreach = {}

    def _invalidate_derived(self) -> None:
        """Drop every derived structure; all of it rebuilds lazily."""
        self._compressed = None
        self._compress_seconds = 0.0
        self._indexes = {}
        self._index_build_seconds = {}
        self._rbreach = {}
        self._rbsim = {}
        self._rbsub = {}
        self._statistics = None
        self._maintainer = None
        self._max_degree_cache = None


# ----------------------------------------------------------------------- #
# Shared-memory publication (daemon pools)
# ----------------------------------------------------------------------- #
class _SubstitutingPickler(pickle.Pickler):
    """Pickler that swaps registered objects for persistent-id tokens.

    Used to publish prepared state without serialising the CSR substrate:
    every registered graph object (by identity) pickles as a token the
    unpickler resolves to the shared-memory attachment instead.
    """

    def __init__(self, file: io.BytesIO, substitutes: Dict[int, str]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._substitutes = substitutes

    def persistent_id(self, obj: Any) -> Optional[str]:
        return self._substitutes.get(id(obj))


class _ResolvingUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent-id tokens to attached shared graphs."""

    def __init__(self, file: io.BytesIO, resolved: Dict[str, Any]):
        super().__init__(file)
        self._resolved = resolved

    def persistent_load(self, key: Any) -> Any:
        try:
            return self._resolved[key]
        except KeyError:  # pragma: no cover - publish/attach always agree
            raise EngineError(f"shared state payload references unknown segment {key!r}") from None


def _prepared_components(state: Any) -> "Iterator[PreparedGraph]":
    """Every :class:`PreparedGraph` reachable inside a publishable state.

    The engine publishes a bare prepared graph; the sharded engine publishes
    a mapping of per-shard states each carrying a ``prepared`` attribute.
    """
    if isinstance(state, PreparedGraph):
        yield state
    elif isinstance(state, Mapping):
        for value in state.values():
            prepared = getattr(value, "prepared", None)
            if isinstance(prepared, PreparedGraph):
                yield prepared


class SharedPreparedGraph:
    """Pickle-light handle to prepared state whose CSR arrays are shared.

    :meth:`publish` exports every CSR substrate (and condensation DAG
    mirror) found in the state into shared-memory segments
    (:meth:`CSRGraph.to_shared`) and pickles the *rest* — indexes, matchers,
    summaries — once, with the big graphs replaced by attach-by-name
    tokens.  Workers call :meth:`attach` to rebuild the state: the derived
    structures unpickle, the graphs resolve to zero-copy views of the
    shared pages.  ``state`` may be a :class:`PreparedGraph` or the sharded
    engine's ``{shard_id: ShardState}`` table; states with no CSR substrate
    (``mirror="never"``) degrade gracefully to a plain pickled payload.

    The publishing process owns the segments: :meth:`close` unlinks them.
    Unpickled copies (in workers) only ever detach.
    """

    def __init__(self, payload: bytes, segments: Dict[str, Any]):
        self._payload = payload
        self._segments = segments
        self._closed = False

    @classmethod
    def publish(cls, state: Any) -> "SharedPreparedGraph":
        """Export ``state`` for cross-process attachment."""
        try:
            from repro.graph.csr import CSRGraph
        except ImportError:  # pragma: no cover - numpy normally present
            CSRGraph = None  # type: ignore[assignment]
        segments: Dict[str, Any] = {}
        substitutes: Dict[int, str] = {}

        def share(graph: Any) -> Optional[str]:
            if CSRGraph is None or not isinstance(graph, CSRGraph):
                return None
            token = substitutes.get(id(graph))
            if token is None:
                token = f"csr{len(segments)}"
                segments[token] = graph.to_shared()
                substitutes[id(graph)] = token
            return token

        for prepared in _prepared_components(state):
            substrate = prepared.graph
            token = share(substrate)
            if token is None and isinstance(substrate, MutableOverlay):
                # Post-update serving: the overlay deltas are small and
                # pickle; its frozen base is the big array payload.
                share(substrate.base)
            if token is not None and prepared.original is not substrate:
                # Workers never consult the pre-freeze graph; resolving it
                # to the shared substrate keeps the multi-hundred-MB source
                # DiGraph out of the payload (order-exact mirror, so
                # membership/label reads agree).
                substitutes.setdefault(id(prepared.original), token)
            compressed = prepared._compressed
            if compressed is not None:
                share(getattr(compressed, "dag_csr", None))

        buffer = io.BytesIO()
        _SubstitutingPickler(buffer, substitutes).dump(state)
        return cls(buffer.getvalue(), segments)

    def attach(self) -> Any:
        """Rebuild the state in this process (zero-copy graph arrays)."""
        if self._closed:
            raise EngineError("shared prepared state is closed")
        resolved = {token: handle.graph for token, handle in self._segments.items()}
        return _ResolvingUnpickler(io.BytesIO(self._payload), resolved).load()

    def segment_names(self) -> "list[str]":
        """Names of the shared segments backing this handle."""
        return sorted(handle.name for handle in self._segments.values())

    @property
    def payload_bytes(self) -> int:
        """Size of the pickled non-array payload (telemetry)."""
        return len(self._payload)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every segment (unlink when owning).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._segments.values():
            handle.close()

    def __enter__(self) -> "SharedPreparedGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_state(state: Any) -> SharedPreparedGraph:
    """Publish any executor state (engine or sharded) for worker attachment."""
    return SharedPreparedGraph.publish(state)

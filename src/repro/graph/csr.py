"""``CSRGraph`` — an immutable compressed-sparse-row graph backend.

The paper (Fan, Wang & Wu, *"Querying Big Graphs within Bounded Resources"*,
SIGMOD 2014) is about answering queries on *big* graphs under a resource
ratio ``alpha``; a dict-of-sets adjacency representation caps every
experiment at toy scale.  :class:`CSRGraph` stores the same node-labeled
directed graph as flat ``numpy`` arrays with offset indexing:

* ``succ_indptr``/``succ_indices`` — the out-neighbours of node ``i`` are
  ``succ_indices[succ_indptr[i]:succ_indptr[i + 1]]`` (and symmetrically for
  predecessors), the classic CSR layout;
* ``label_ids`` — one small integer per node indexing a shared label table.

This costs a handful of bytes per edge instead of a Python set entry, and —
more importantly — makes frontier expansion a vectorised gather, so the
BFS-heavy paths (traversal, the ``RBReach`` index build) run an order of
magnitude faster than the pointer-chasing equivalent.

Two properties keep the backend drop-in compatible with
:class:`~repro.graph.digraph.DiGraph`:

* the public API speaks *original node identifiers* (any hashable), not
  internal indices, and implements the full
  :class:`~repro.graph.protocol.GraphLike` protocol; and
* :meth:`CSRGraph.from_digraph` preserves the source graph's neighbour
  *iteration order*, so order-sensitive heuristics (``Pick``'s tie-breaking,
  greedy landmark exclusion, Tarjan's traversal) make byte-identical
  decisions on either backend.  The vectorised kernels are only used for
  order-insensitive results (sets, distance maps, booleans), which is what
  makes backend parity testable rather than approximate.

``CSRGraph`` is deliberately immutable: updates land either on ``DiGraph``
(freeze a snapshot with ``from_digraph`` when switching to query answering)
or, for a *serving* graph that must keep absorbing mutations, on a
:class:`repro.updates.overlay.MutableOverlay` layered over a frozen base.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Edge, Label, NodeId

_EMPTY = np.empty(0, dtype=np.int64)


def _union_degrees(n: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-node ``|N(v)|`` (successors ∪ predecessors) from an edge list.

    ``d(v) = out(v) + in(v) - #reciprocal edges at v``; the reciprocal count
    is found by set-matching each edge code against the reversed codes, all
    in C.
    """
    out_deg = np.bincount(sources, minlength=n)
    in_deg = np.bincount(targets, minlength=n)
    if sources.shape[0] == 0:
        return (out_deg + in_deg).astype(np.int64)
    codes = sources * np.int64(n) + targets
    reciprocal = np.isin(codes, targets * np.int64(n) + sources)
    duplicates = np.bincount(sources[reciprocal], minlength=n)
    return (out_deg + in_deg - duplicates).astype(np.int64)


class _NeighborView:
    """Sized, iterable, membership-testable view over one CSR adjacency slice.

    Iteration yields *original node identifiers* in stored order (which
    matches the source ``DiGraph``'s iteration order when the graph was built
    with :meth:`CSRGraph.from_digraph`).  Membership is a vectorised scan of
    the slice — O(deg) but in C, which is fast even at hub nodes.
    """

    __slots__ = ("_graph", "_arr")

    def __init__(self, graph: "CSRGraph", arr: np.ndarray) -> None:
        self._graph = graph
        self._arr = arr

    def __len__(self) -> int:
        return int(self._arr.shape[0])

    def __iter__(self) -> Iterator[NodeId]:
        indices = self._arr.tolist()
        if self._graph._identity:
            return iter(indices)
        ids = self._graph._ids
        return iter([ids[i] for i in indices])

    def __contains__(self, node: object) -> bool:
        idx = self._graph._index.get(node)
        if idx is None:
            return False
        return bool((self._arr == idx).any())

    def __or__(self, other) -> Set[NodeId]:
        return set(self) | set(other)

    __ror__ = __or__

    def __and__(self, other) -> Set[NodeId]:
        return set(self) & set(other)

    __rand__ = __and__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        if isinstance(other, _NeighborView):
            return set(self) == set(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - views are transient
        raise TypeError("_NeighborView is unhashable; wrap it in frozenset(...)")

    def __repr__(self) -> str:
        return f"NeighborView({sorted(map(repr, self))})"


class CSRGraph:
    """Immutable node-labeled directed graph in compressed-sparse-row form.

    Implements :class:`~repro.graph.protocol.GraphLike`; construct with
    :meth:`from_digraph` or :meth:`from_edges` and convert back with
    :meth:`to_digraph`.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_identity",
        "_label_table",
        "_label_ids",
        "_succ_indptr",
        "_succ_indices",
        "_pred_indptr",
        "_pred_indices",
        "_degrees",
    )

    def __init__(
        self,
        ids: List[NodeId],
        label_table: List[Label],
        label_ids: np.ndarray,
        succ_indptr: np.ndarray,
        succ_indices: np.ndarray,
        pred_indptr: np.ndarray,
        pred_indices: np.ndarray,
        degrees: np.ndarray,
    ) -> None:
        self._ids = ids
        self._index: Dict[NodeId, int] = {node: i for i, node in enumerate(ids)}
        self._identity = all(type(node) is int and node == i for i, node in enumerate(ids))
        self._label_table = label_table
        self._label_ids = label_ids
        self._succ_indptr = succ_indptr
        self._succ_indices = succ_indices
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices
        self._degrees = degrees

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_digraph(cls, graph: DiGraph, preserve_order: bool = True) -> "CSRGraph":
        """Freeze a :class:`DiGraph` into CSR form.

        Node indices follow the graph's node iteration order and each
        successor slice preserves the source's neighbour iteration order, so
        algorithms that iterate neighbours behave identically on both
        backends.  With ``preserve_order=True`` (the default) the predecessor
        slices do too, at the cost of a second Python pass over the edges;
        ``preserve_order=False`` derives them from the successor arrays with
        a vectorised stable sort instead (predecessors come out grouped by
        source) — use it for internal mirrors that only feed the
        order-insensitive kernels.
        """
        ids = list(graph.nodes())
        index = {node: i for i, node in enumerate(ids)}
        n = len(ids)

        label_table: List[Label] = []
        label_index: Dict[Label, int] = {}
        label_ids = np.empty(n, dtype=np.int64)
        for i, node in enumerate(ids):
            label = graph.label(node)
            lid = label_index.get(label)
            if lid is None:
                lid = len(label_table)
                label_index[label] = lid
                label_table.append(label)
            label_ids[i] = lid

        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(ids):
            succ_indptr[i + 1] = succ_indptr[i] + graph.out_degree(node)
        m = int(succ_indptr[-1])
        succ_indices = np.empty(m, dtype=np.int64)
        edge_sources = np.empty(m, dtype=np.int64)
        pos = 0
        for i, node in enumerate(ids):
            for target in graph.successors(node):
                succ_indices[pos] = index[target]
                edge_sources[pos] = i
                pos += 1

        if preserve_order:
            pred_indptr = np.zeros(n + 1, dtype=np.int64)
            for i, node in enumerate(ids):
                pred_indptr[i + 1] = pred_indptr[i] + graph.in_degree(node)
            pred_indices = np.empty(m, dtype=np.int64)
            fill = pred_indptr[:-1].copy()
            for i, node in enumerate(ids):
                for source in graph.predecessors(node):
                    j = index[source]
                    pred_indices[int(fill[i])] = j
                    fill[i] += 1
        else:
            order = np.argsort(succ_indices, kind="stable")
            pred_indices = edge_sources[order]
            pred_indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(succ_indices, minlength=n), out=pred_indptr[1:])

        degrees = _union_degrees(n, edge_sources, succ_indices)
        return cls(
            ids,
            label_table,
            label_ids,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            degrees,
        )

    @classmethod
    def from_graph_unordered(cls, graph) -> "CSRGraph":
        """Freeze any :class:`GraphLike` into CSR form, ignoring neighbour order.

        The per-node adjacency comes out sorted by internal index rather
        than in the source's iteration order, with the heavy lifting done by
        vectorised sorts — roughly an order of magnitude faster than
        :meth:`from_digraph`.  Use it only for mirrors that feed the
        order-insensitive kernels (reachability masks, cover statistics,
        label sweeps); anything order-sensitive needs :meth:`from_digraph`.
        """
        ids = list(graph.nodes())
        index = {node: i for i, node in enumerate(ids)}
        n = len(ids)

        label_table: List[Label] = []
        label_index: Dict[Label, int] = {}
        label_ids = np.empty(n, dtype=np.int64)
        for i, node in enumerate(ids):
            label = graph.label(node)
            lid = label_index.get(label)
            if lid is None:
                lid = len(label_table)
                label_index[label] = lid
                label_table.append(label)
            label_ids[i] = lid

        sources_list: List[int] = []
        targets_list: List[int] = []
        for source, target in graph.edges():
            sources_list.append(index[source])
            targets_list.append(index[target])
        m = len(sources_list)
        sources = np.asarray(sources_list, dtype=np.int64) if m else _EMPTY.copy()
        targets = np.asarray(targets_list, dtype=np.int64) if m else _EMPTY.copy()
        return cls.from_index_arrays(ids, label_table, label_ids, sources, targets)

    @classmethod
    def from_index_arrays(
        cls,
        ids: List[NodeId],
        label_table: List[Label],
        label_ids: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
    ) -> "CSRGraph":
        """Assemble a CSR graph from edge arrays in internal index space.

        ``sources[k] → targets[k]`` are the edges as node *indices* into
        ``ids``.  Adjacency comes out grouped/sorted per node (vectorised
        stable sorts), so the result is only suitable for order-insensitive
        kernels — the shared backend of :meth:`from_graph_unordered` and the
        incremental DAG mirror.
        """
        n = len(ids)
        succ_order = np.argsort(sources, kind="stable")
        succ_indices = targets[succ_order]
        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=succ_indptr[1:])
        pred_order = np.argsort(targets, kind="stable")
        pred_indices = sources[pred_order]
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=n), out=pred_indptr[1:])

        degrees = _union_degrees(n, sources, targets)
        return cls(
            ids,
            label_table,
            label_ids,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            degrees,
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        labels: Optional[Mapping[NodeId, Label]] = None,
        default_label: Label = "",
    ) -> "CSRGraph":
        """Build a CSR graph straight from an edge iterable (no ``DiGraph``).

        Mirrors :meth:`DiGraph.from_edges`: nodes are indexed in order of
        first appearance, parallel edges collapse, and nodes occurring only
        in ``labels`` are added as isolated nodes.  This is the loader path
        for big edge-list files, where materialising an intermediate
        dict-of-sets graph would double peak memory.
        """
        labels = dict(labels or {})
        index: Dict[NodeId, int] = {}
        ids: List[NodeId] = []
        succ_lists: List[List[int]] = []
        pred_lists: List[List[int]] = []
        edge_seen: Set[Tuple[int, int]] = set()

        def intern(node: NodeId) -> int:
            idx = index.get(node)
            if idx is None:
                idx = len(ids)
                index[node] = idx
                ids.append(node)
                succ_lists.append([])
                pred_lists.append([])
            return idx

        for source, target in edges:
            si = intern(source)
            ti = intern(target)
            key = (si, ti)
            if key in edge_seen:
                continue
            edge_seen.add(key)
            succ_lists[si].append(ti)
            pred_lists[ti].append(si)
        for node in labels:
            intern(node)

        n = len(ids)
        label_table: List[Label] = []
        label_index: Dict[Label, int] = {}
        label_ids = np.empty(n, dtype=np.int64)
        for i, node in enumerate(ids):
            label = labels.get(node, default_label)
            lid = label_index.get(label)
            if lid is None:
                lid = len(label_table)
                label_index[label] = lid
                label_table.append(label)
            label_ids[i] = lid

        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        pred_indptr = np.zeros(n + 1, dtype=np.int64)
        degrees = np.empty(n, dtype=np.int64)
        for i in range(n):
            succ_indptr[i + 1] = succ_indptr[i] + len(succ_lists[i])
            pred_indptr[i + 1] = pred_indptr[i] + len(pred_lists[i])
            degrees[i] = len(set(succ_lists[i]) | set(pred_lists[i]))
        succ_indices = (
            np.fromiter(
                (t for targets in succ_lists for t in targets), dtype=np.int64, count=len(edge_seen)
            )
            if edge_seen
            else _EMPTY.copy()
        )
        pred_indices = (
            np.fromiter(
                (s for sources in pred_lists for s in sources), dtype=np.int64, count=len(edge_seen)
            )
            if edge_seen
            else _EMPTY.copy()
        )
        return cls(
            ids,
            label_table,
            label_ids,
            succ_indptr,
            succ_indices,
            pred_indptr,
            pred_indices,
            degrees,
        )

    def to_digraph(self) -> DiGraph:
        """Thaw back into a mutable :class:`DiGraph` (same nodes/edges/labels)."""
        graph = DiGraph()
        for i, node in enumerate(self._ids):
            graph.add_node(node, self._label_table[int(self._label_ids[i])])
        indptr = self._succ_indptr
        indices = self._succ_indices
        for i, node in enumerate(self._ids):
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                graph.add_edge(node, self._ids[j])
        return graph

    # ------------------------------------------------------------------ #
    # Shared memory
    # ------------------------------------------------------------------ #
    def to_shared(self, name: Optional[str] = None):
        """Export this graph into a ``multiprocessing.shared_memory`` segment.

        Returns an *owning* :class:`~repro.graph.shm.SharedCSRGraph` handle:
        worker processes attach the same physical pages by name
        (:meth:`from_shared`) instead of receiving a pickled copy, and the
        handle's ``close()`` unlinks the segment.  See
        :mod:`repro.graph.shm` for the naming/cleanup contract.
        """
        from repro.graph.shm import SharedCSRGraph

        return SharedCSRGraph.create(self, name=name)

    @classmethod
    def from_shared(cls, name: str):
        """Attach a segment created by :meth:`to_shared`, by name.

        Returns a non-owning :class:`~repro.graph.shm.SharedCSRGraph`
        handle; its ``.graph`` is a :class:`CSRGraph` whose arrays are
        read-only zero-copy views of the shared pages.  Closing the handle
        detaches but never unlinks — only the creating handle does that.
        """
        from repro.graph.shm import SharedCSRGraph

        return SharedCSRGraph.attach(name)

    # ------------------------------------------------------------------ #
    # Index mapping
    # ------------------------------------------------------------------ #
    def index_of(self, node: NodeId) -> int:
        """Internal array index of ``node``; raises :class:`NodeNotFoundError`."""
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_at(self, index: int) -> NodeId:
        """Original identifier of the node stored at array ``index``."""
        return self._ids[index]

    def _ids_of(self, indices: np.ndarray) -> List[NodeId]:
        values = indices.tolist()
        if self._identity:
            return values
        ids = self._ids
        return [ids[i] for i in values]

    # ------------------------------------------------------------------ #
    # GraphLike: nodes, edges, labels
    # ------------------------------------------------------------------ #
    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(nodes={self.num_nodes()}, edges={self.num_edges()})"

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node identifiers (index order)."""
        return iter(self._ids)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        indptr = self._succ_indptr
        indices = self._succ_indices
        for i, node in enumerate(self._ids):
            for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                yield (node, self._ids[j])

    def num_nodes(self) -> int:
        """``|V|``."""
        return len(self._ids)

    def num_edges(self) -> int:
        """``|E|``."""
        return int(self._succ_indices.shape[0])

    def size(self) -> int:
        """The paper's ``|G| = |V| + |E|``."""
        return self.num_nodes() + self.num_edges()

    def label(self, node: NodeId) -> Label:
        """The label ``L(node)``."""
        return self._label_table[int(self._label_ids[self.index_of(node)])]

    def labels(self) -> Mapping[NodeId, Label]:
        """Node → label mapping (a fresh dict, like :meth:`DiGraph.labels`)."""
        table = self._label_table
        return {node: table[int(lid)] for node, lid in zip(self._ids, self._label_ids.tolist())}

    def distinct_labels(self) -> Set[Label]:
        """The set of labels used by at least one node."""
        return {self._label_table[int(lid)] for lid in np.unique(self._label_ids).tolist()}

    def nodes_with_label(self, label: Label) -> Set[NodeId]:
        """All nodes carrying ``label`` (vectorised scan of the label column)."""
        try:
            lid = self._label_table.index(label)
        except ValueError:
            return set()
        return set(self._ids_of(np.nonzero(self._label_ids == lid)[0]))

    # ------------------------------------------------------------------ #
    # GraphLike: adjacency and degrees
    # ------------------------------------------------------------------ #
    def _succ_slice(self, index: int) -> np.ndarray:
        return self._succ_indices[int(self._succ_indptr[index]) : int(self._succ_indptr[index + 1])]

    def _pred_slice(self, index: int) -> np.ndarray:
        return self._pred_indices[int(self._pred_indptr[index]) : int(self._pred_indptr[index + 1])]

    def successors(self, node: NodeId) -> _NeighborView:
        """Children of ``node`` as a flat-array view (sized, iterable, ``in``)."""
        return _NeighborView(self, self._succ_slice(self.index_of(node)))

    def predecessors(self, node: NodeId) -> _NeighborView:
        """Parents of ``node`` as a flat-array view (sized, iterable, ``in``)."""
        return _NeighborView(self, self._pred_slice(self.index_of(node)))

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """The 1-hop neighbourhood ``N(v)`` as a set of node identifiers."""
        index = self.index_of(node)
        both = np.concatenate((self._succ_slice(index), self._pred_slice(index)))
        return set(self._ids_of(np.unique(both)))

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed edge ``(source, target)`` exists."""
        si = self._index.get(source)
        ti = self._index.get(target)
        if si is None or ti is None:
            return False
        return bool((self._succ_slice(si) == ti).any())

    def out_degree(self, node: NodeId) -> int:
        """Number of out-edges of ``node``."""
        index = self.index_of(node)
        return int(self._succ_indptr[index + 1] - self._succ_indptr[index])

    def in_degree(self, node: NodeId) -> int:
        """Number of in-edges of ``node``."""
        index = self.index_of(node)
        return int(self._pred_indptr[index + 1] - self._pred_indptr[index])

    def degree(self, node: NodeId) -> int:
        """The paper's ``d(v)``: ``|N(v)|`` (union of parents and children)."""
        return int(self._degrees[self.index_of(node)])

    def max_degree(self) -> int:
        """Maximum ``d(v)`` over the whole graph (0 for empty graphs)."""
        if self._degrees.shape[0] == 0:
            return 0
        return int(self._degrees.max())

    def successor_adjacency(self) -> Dict[NodeId, List[NodeId]]:
        """Bulk node → successor-list export (stored order).

        One C-speed pass over the flat arrays; callers that walk the whole
        graph node-by-node (e.g. Tarjan's SCC) use this instead of paying a
        view construction per visited node.
        """
        indptr = self._succ_indptr.tolist()
        values = self._succ_indices.tolist()
        if self._identity:
            return {
                node: values[indptr[i] : indptr[i + 1]] for i, node in enumerate(self._ids)
            }
        ids = self._ids
        return {
            node: [ids[j] for j in values[indptr[i] : indptr[i + 1]]]
            for i, node in enumerate(self._ids)
        }

    def validate(self) -> None:
        """Check internal array consistency; raises :class:`GraphError`."""
        n = self.num_nodes()
        for name, indptr, indices in (
            ("succ", self._succ_indptr, self._succ_indices),
            ("pred", self._pred_indptr, self._pred_indices),
        ):
            if indptr.shape[0] != n + 1 or int(indptr[0]) != 0:
                raise GraphError(f"{name}_indptr has wrong shape or base offset")
            if np.any(np.diff(indptr) < 0):
                raise GraphError(f"{name}_indptr is not monotone")
            if int(indptr[-1]) != indices.shape[0]:
                raise GraphError(f"{name}_indices length disagrees with indptr")
            if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
                raise GraphError(f"{name}_indices references an unknown node index")
        if self._succ_indices.shape[0] != self._pred_indices.shape[0]:
            raise GraphError("successor and predecessor edge counts disagree")

    # ------------------------------------------------------------------ #
    # Vectorised kernels (index space)
    # ------------------------------------------------------------------ #
    def _expand(self, frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Gather the concatenated adjacency of every frontier node (with dups)."""
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY
        cum = np.cumsum(counts)
        positions = np.repeat(starts + counts - cum, counts) + np.arange(total, dtype=np.int64)
        return indices[positions]

    def _frontier_neighbors(self, frontier: np.ndarray, direction: str) -> np.ndarray:
        if direction == "forward":
            return self._expand(frontier, self._succ_indptr, self._succ_indices)
        if direction == "backward":
            return self._expand(frontier, self._pred_indptr, self._pred_indices)
        return np.concatenate(
            (
                self._expand(frontier, self._succ_indptr, self._succ_indices),
                self._expand(frontier, self._pred_indptr, self._pred_indices),
            )
        )

    def fast_bidirectional_reachable(self, source: NodeId, target: NodeId) -> bool:
        """Bidirectional BFS reachability, expanding the smaller frontier."""
        start = self.index_of(source)
        goal = self.index_of(target)
        if start == goal:
            return True
        n = self.num_nodes()
        forward_seen = np.zeros(n, dtype=bool)
        backward_seen = np.zeros(n, dtype=bool)
        forward_seen[start] = True
        backward_seen[goal] = True
        forward_list: List[int] = [start]
        backward_list: List[int] = [goal]
        # Hybrid phase: alternate scalar expansions while both frontiers are
        # small; most negative queries on sparse graphs never leave it.
        while (
            forward_list and backward_list and len(forward_list) + len(backward_list) < 32
        ):
            if len(forward_list) <= len(backward_list):
                indptr, indices, seen, other = (
                    self._succ_indptr,
                    self._succ_indices,
                    forward_seen,
                    backward_seen,
                )
                expanding_forward = True
            else:
                indptr, indices, seen, other = (
                    self._pred_indptr,
                    self._pred_indices,
                    backward_seen,
                    forward_seen,
                )
                expanding_forward = False
            frontier_list = forward_list if expanding_forward else backward_list
            next_list: List[int] = []
            for i in frontier_list:
                for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                    if other[j]:
                        return True
                    if not seen[j]:
                        seen[j] = True
                        next_list.append(j)
            if expanding_forward:
                forward_list = next_list
            else:
                backward_list = next_list
        forward_frontier = np.array(forward_list, dtype=np.int64)
        backward_frontier = np.array(backward_list, dtype=np.int64)
        while forward_frontier.size and backward_frontier.size:
            if forward_frontier.size <= backward_frontier.size:
                candidates = self._expand(forward_frontier, self._succ_indptr, self._succ_indices)
                candidates = candidates[~forward_seen[candidates]]
                forward_frontier = np.unique(candidates) if candidates.size else _EMPTY
                forward_seen[forward_frontier] = True
                if backward_seen[forward_frontier].any():
                    return True
            else:
                candidates = self._expand(backward_frontier, self._pred_indptr, self._pred_indices)
                candidates = candidates[~backward_seen[candidates]]
                backward_frontier = np.unique(candidates) if candidates.size else _EMPTY
                backward_seen[backward_frontier] = True
                if forward_seen[backward_frontier].any():
                    return True
        return False

    def fast_weak_components(self) -> List[Set[NodeId]]:
        """Weakly connected components via vectorised undirected BFS.

        One shared ``seen`` array doubles as the assignment table and members
        are collected during the sweep, so the total cost is O(|V| + |E|)
        regardless of how many components there are (a per-component full-size
        mask would make all-singleton graphs quadratic).
        """
        n = self.num_nodes()
        seen = np.zeros(n, dtype=bool)
        components: List[Set[NodeId]] = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            members: List[int] = [start]
            frontier_list: List[int] = [start]
            while frontier_list and len(frontier_list) < 32:
                next_list: List[int] = []
                for i in frontier_list:
                    for indptr, indices in (
                        (self._succ_indptr, self._succ_indices),
                        (self._pred_indptr, self._pred_indices),
                    ):
                        for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                            if not seen[j]:
                                seen[j] = True
                                next_list.append(j)
                members.extend(next_list)
                frontier_list = next_list
            frontier = np.array(frontier_list, dtype=np.int64)
            while frontier.size:
                candidates = self._frontier_neighbors(frontier, "both")
                candidates = candidates[~seen[candidates]]
                if candidates.size == 0:
                    break
                frontier = np.unique(candidates)
                seen[frontier] = True
                members.extend(frontier.tolist())
            if self._identity:
                components.append(set(members))
            else:
                ids = self._ids
                components.append({ids[i] for i in members})
        return components

    def reach_stats(
        self, start_index: int, forward: bool, probe_mask: np.ndarray
    ) -> Tuple[int, List[int]]:
        """Reachable-node count plus reached probe indices, in one sweep.

        Returns ``(count, probes)`` where ``count`` is the number of nodes
        reachable from ``start_index`` (itself excluded) and ``probes`` the
        indices among them with ``probe_mask`` set.  Equivalent to
        ``reach_mask`` plus post-processing, but tallies during the BFS so no
        O(n) scan is paid per call — this is the cover-statistics kernel.
        """
        indptr, indices = (
            (self._succ_indptr, self._succ_indices)
            if forward
            else (self._pred_indptr, self._pred_indices)
        )
        seen = np.zeros(self.num_nodes(), dtype=bool)
        seen[start_index] = True
        count = 0
        probes: List[int] = []
        frontier_list: List[int] = [start_index]
        while frontier_list and len(frontier_list) < 32:
            next_list: List[int] = []
            for i in frontier_list:
                for j in indices[int(indptr[i]) : int(indptr[i + 1])].tolist():
                    if not seen[j]:
                        seen[j] = True
                        count += 1
                        if probe_mask[j]:
                            probes.append(j)
                        next_list.append(j)
            frontier_list = next_list
        frontier = np.array(frontier_list, dtype=np.int64)
        while frontier.size:
            candidates = self._expand(frontier, indptr, indices)
            candidates = candidates[~seen[candidates]]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            seen[frontier] = True
            count += int(frontier.size)
            hits = frontier[probe_mask[frontier]]
            if hits.size:
                probes.extend(hits.tolist())
        return count, probes

    def fast_connected_component(self, source: NodeId) -> Set[NodeId]:
        """Weakly connected component containing ``source`` (itself included)."""
        mask = self.reach_mask_both(self.index_of(source))
        return set(self._ids_of(np.nonzero(mask)[0]))

    def reach_mask_both(self, start_index: int) -> np.ndarray:
        """Mask of the weakly connected region around ``start_index``."""
        seen = np.zeros(self.num_nodes(), dtype=bool)
        seen[start_index] = True
        frontier = np.array([start_index], dtype=np.int64)
        while frontier.size:
            candidates = self._frontier_neighbors(frontier, "both")
            candidates = candidates[~seen[candidates]]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            seen[frontier] = True
        return seen

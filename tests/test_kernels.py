"""Differential suite for the bitset traversal kernels and their dispatch.

The contract under test: every answer the vectorised kernel tier
(`repro.graph.kernels`) produces is **bit-identical** to the pure-python
oracle — the generic registry fallback running the same operation on a
plain :class:`~repro.graph.digraph.DiGraph`.  That parity is pinned

* across the graph families of ``repro.graph.generators``,
* across batch sizes that cross the 64-source word boundary and the
  tile boundary of the multi-source sweep,
* with and without absorbing (``stop``) frontiers, in both directions,
* across both executors (serial/daemon), and
* across sharded engines with k ∈ {1, 2, 4}.

Plus: the hybrid scalar/vector phases of ``csr_reach_mask`` are
property-tested against each other on absorbing frontiers (hypothesis),
dispatch bookkeeping (``kernel.batch_size`` / ``kernel.fallbacks``) is
asserted, and the traversal façade must stay free of deprecation warnings.
"""

from __future__ import annotations

import random
import warnings

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import GraphError
from repro.graph import CSRGraph, DiGraph, reach_batch, traverse
from repro.graph.generators import (
    community_graph,
    complete_bipartite_graph,
    cycle_graph,
    layered_dag,
    path_graph,
    preferential_attachment_graph,
    random_graph,
    star_graph,
)
from repro.graph.kernels import KERNELS, TILE_SOURCES, ReachBatch, csr_reach_mask

ALPHA = 0.05

FAMILIES = {
    "random": lambda: random_graph(220, 900, seed=3),
    "preferential": lambda: preferential_attachment_graph(200, 3, seed=5),
    "community": lambda: community_graph([60, 60, 60], seed=7),
    "layered-dag": lambda: layered_dag(8, 22, seed=9),
    "path": lambda: path_graph(120),
    "cycle": lambda: cycle_graph(90),
    "star": lambda: star_graph(150),
    "bipartite": lambda: complete_bipartite_graph(12, 18),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    digraph = FAMILIES[request.param]()
    return request.param, digraph, CSRGraph.from_digraph(digraph)


def _sample_sources(digraph, count, seed=11):
    rng = random.Random(seed)
    nodes = list(digraph.nodes())
    return [rng.choice(nodes) for _ in range(count)]


def _stop_set(digraph, fraction=0.12, seed=13):
    rng = random.Random(seed)
    nodes = list(digraph.nodes())
    return set(rng.sample(nodes, max(1, int(fraction * len(nodes)))))


class TestReachBatchParity:
    """Bitset sweep vs pure-python oracle, per family."""

    @pytest.mark.parametrize("forward", (True, False))
    @pytest.mark.parametrize("absorbing", (False, True))
    def test_bit_parity_with_oracle(self, family, forward, absorbing):
        name, digraph, csr = family
        sources = _sample_sources(digraph, 70)  # crosses the 64-source word
        stop = _stop_set(digraph) if absorbing else None
        vectorised = reach_batch(csr, sources, forward=forward, stop=stop)
        oracle = reach_batch(digraph, sources, forward=forward, stop=stop)
        assert isinstance(vectorised, ReachBatch)
        assert vectorised.num_sources == oracle.num_sources == len(sources)
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j), (name, j)
        assert vectorised.counts() == oracle.counts()
        assert vectorised.any_rows() == oracle.any_rows()
        assert vectorised.total_bits() == oracle.total_bits()

    @pytest.mark.parametrize("count", (1, 63, 64, 65, 130))
    def test_word_boundaries(self, count):
        digraph = FAMILIES["random"]()
        csr = CSRGraph.from_digraph(digraph)
        sources = _sample_sources(digraph, count, seed=count)
        vectorised = reach_batch(csr, sources)
        oracle = reach_batch(digraph, sources)
        for j in range(count):
            assert vectorised.reached(j) == oracle.reached(j), (count, j)

    def test_tile_boundary(self, monkeypatch):
        # Shrink the tile so a modest batch must span several sweeps; the
        # stitched word blocks must still agree with the oracle bit for bit.
        import repro.graph.kernels as kernels

        monkeypatch.setattr(kernels, "TILE_SOURCES", 64)
        digraph = FAMILIES["preferential"]()
        csr = CSRGraph.from_digraph(digraph)
        sources = _sample_sources(digraph, 150)
        stop = _stop_set(digraph)
        vectorised = reach_batch(csr, sources, stop=stop)
        oracle = reach_batch(digraph, sources, stop=stop)
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j), j

    def test_duplicate_sources_share_a_row(self):
        digraph = FAMILIES["random"]()
        csr = CSRGraph.from_digraph(digraph)
        node = next(iter(digraph.nodes()))
        sources = [node] * 3 + _sample_sources(digraph, 5)
        vectorised = reach_batch(csr, sources)
        oracle = reach_batch(digraph, sources)
        for j in range(len(sources)):
            assert vectorised.reached(j) == oracle.reached(j)
        assert vectorised.reached(0) == vectorised.reached(1) == vectorised.reached(2)

    def test_matches_per_source_reach_mask(self, family):
        """The batched sweep IS reach_mask, one column per source."""
        name, digraph, csr = family
        sources = _sample_sources(digraph, 40)
        stop = _stop_set(digraph)
        stop_mask = np.zeros(csr.num_nodes(), dtype=bool)
        for node in stop:
            stop_mask[csr.index_of(node)] = True
        for forward in (True, False):
            batch = reach_batch(csr, sources, forward=forward, stop=stop_mask)
            for j, source in enumerate(sources):
                mask = csr_reach_mask(
                    csr, csr.index_of(source), forward=forward, stop_mask=stop_mask
                )
                assert np.array_equal(batch.mask(j), mask), (name, forward, j)

    def test_sources_absorbed_by_their_own_stop_still_expand(self):
        # The landmark label sweep runs FROM landmarks with a stop mask that
        # covers all landmarks; level 0 must expand anyway.
        digraph = DiGraph()
        for node in "abcde":
            digraph.add_node(node)
        for edge in (("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")):
            digraph.add_edge(*edge)
        csr = CSRGraph.from_digraph(digraph)
        stop = {"a", "c"}
        vectorised = reach_batch(csr, ["a", "c"], stop=stop)
        oracle = reach_batch(digraph, ["a", "c"], stop=stop)
        assert vectorised.reached(0) == oracle.reached(0) == {"a", "b", "c", "e"}
        assert vectorised.reached(1) == oracle.reached(1) == {"c", "d"}

    def test_empty_batch(self, family):
        _, digraph, csr = family
        batch = reach_batch(csr, [])
        assert batch.num_sources == 0
        assert batch.counts() == []
        assert batch.any_rows() == []


class TestDispatch:
    """The capability registry: exact-or-fallback semantics + telemetry."""

    def test_traverse_ops_agree_across_backends(self, family):
        name, digraph, csr = family
        nodes = list(digraph.nodes())
        source, target = nodes[0], nodes[-1]
        for op, args, kwargs in (
            ("bfs_levels", (source,), {"max_hops": 3, "direction": "both"}),
            ("is_reachable", (source, target), {}),
            ("bidirectional_reachable", (source, target), {}),
            ("reachable_set", (source,), {"forward": True}),
            ("reachable_set", (source,), {"forward": False}),
            ("connected_component", (source,), {}),
            ("weak_components", (), {}),
        ):
            generic = traverse(digraph, op, *args, **kwargs)
            exact = traverse(csr, op, *args, **kwargs)
            if op == "weak_components":
                generic = sorted(map(sorted, generic))
                exact = sorted(map(sorted, exact))
            assert generic == exact, (name, op)

    def test_unknown_operation_raises(self):
        with pytest.raises(GraphError, match="no kernel registered"):
            traverse(DiGraph(), "no_such_op")

    def test_index_space_op_has_no_generic_fallback(self):
        digraph = DiGraph()
        digraph.add_node("a")
        with pytest.raises(GraphError, match="reach_mask"):
            traverse(digraph, "reach_mask", 0)

    def test_exact_kernel_registered_for_csr(self):
        for op in ("reach_batch", "bfs_levels", "is_reachable", "reachable_set"):
            assert KERNELS.has_exact(op, CSRGraph)
            assert not KERNELS.has_exact(op, DiGraph)

    def test_fallback_counter_and_batch_histogram(self):
        obs.set_enabled(True)
        obs.REGISTRY.reset()
        try:
            digraph = FAMILIES["path"]()
            csr = CSRGraph.from_digraph(digraph)
            sources = _sample_sources(digraph, 9)
            reach_batch(csr, sources)  # exact: no fallback
            assert obs.counter("kernel.fallbacks").value == 0
            reach_batch(digraph, sources)  # generic: one fallback
            assert obs.counter("kernel.fallbacks").value == 1
            histogram = obs.histogram("kernel.batch_size", scheme="count")
            assert histogram.count == 2
            assert histogram.sum == pytest.approx(18.0)
        finally:
            obs.REGISTRY.reset()

    def test_registry_mro_walk_prefers_nearest_class(self):
        class Specialised(DiGraph):
            pass

        registry_entry = KERNELS.resolve("reach_batch", Specialised)
        assert registry_entry[0] is not None and not registry_entry[1]  # generic

        marker = object()
        try:
            KERNELS.register("reach_batch", Specialised)(lambda graph: marker)
            assert KERNELS.has_exact("reach_batch", Specialised)
            assert traverse(Specialised(), "reach_batch") is marker
        finally:
            KERNELS._kernels.pop(("reach_batch", Specialised), None)
            KERNELS._cache.clear()


class TestHybridAbsorption:
    """Satellite: scalar-phase and vectorised-phase reach_mask must agree
    on absorbing frontiers — property-tested in both directions."""

    @staticmethod
    def _graph_from(edges, num_nodes):
        digraph = DiGraph()
        for node in range(num_nodes):
            digraph.add_node(node)
        for source, target in edges:
            digraph.add_edge(source, target)
        return digraph

    @given(
        num_nodes=st.integers(min_value=2, max_value=28),
        edge_seed=st.integers(min_value=0, max_value=10_000),
        density=st.floats(min_value=0.02, max_value=0.35),
        stop_seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=10_000),
        forward=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_and_vector_phases_agree(
        self, num_nodes, edge_seed, density, stop_seed, start, forward
    ):
        rng = random.Random(edge_seed)
        edges = [
            (i, j)
            for i in range(num_nodes)
            for j in range(num_nodes)
            if i != j and rng.random() < density
        ]
        digraph = self._graph_from(edges, num_nodes)
        csr = CSRGraph.from_digraph(digraph)
        stop_rng = random.Random(stop_seed)
        stop_mask = np.zeros(num_nodes, dtype=bool)
        for node in range(num_nodes):
            if stop_rng.random() < 0.3:
                stop_mask[node] = True
        start_index = csr.index_of(start % num_nodes)

        pure_vector = csr_reach_mask(
            csr, start_index, forward=forward, stop_mask=stop_mask, scalar_threshold=0
        )
        pure_scalar = csr_reach_mask(
            csr, start_index, forward=forward, stop_mask=stop_mask, scalar_threshold=10**9
        )
        hybrid = csr_reach_mask(csr, start_index, forward=forward, stop_mask=stop_mask)
        assert np.array_equal(pure_vector, pure_scalar)
        assert np.array_equal(pure_vector, hybrid)

        # ... and both phases agree with the bitset sweep and the oracle.
        batch = reach_batch(csr, [start % num_nodes], forward=forward, stop=stop_mask)
        assert np.array_equal(batch.mask(0), pure_vector)
        oracle = reach_batch(digraph, [start % num_nodes], forward=forward, stop=stop_mask)
        assert batch.reached(0) == oracle.reached(0)


class TestExecutorParity:
    """Answers must not depend on the executor carrying the batch."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.engine import QueryEngine
        from repro.engine.queries import ReachQuery

        digraph = random_graph(240, 1000, seed=21)
        rng = random.Random(23)
        nodes = list(digraph.nodes())
        queries = [
            ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(60)
        ]
        with QueryEngine(digraph, cache_size=0) as engine:
            baseline = engine.run_batch(queries, ALPHA)
        return digraph, queries, [answer.reachable for answer in baseline.answers]

    @pytest.mark.parametrize("executor", ("serial", "daemon"))
    def test_every_executor_matches_serial(self, workload, executor):
        from repro.engine import QueryEngine

        digraph, queries, expected = workload
        with QueryEngine(digraph, cache_size=0) as engine:
            report = engine.run_batch(queries, ALPHA, executor=executor, workers=2)
        assert [answer.reachable for answer in report.answers] == expected


class TestShardedParity:
    """k ∈ {1, 2, 4} sharded answers match the single-graph engine."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.engine import QueryEngine
        from repro.engine.queries import ReachQuery

        digraph = community_graph([70, 70, 60], seed=29)
        rng = random.Random(31)
        nodes = list(digraph.nodes())
        queries = [
            ReachQuery(rng.choice(nodes), rng.choice(nodes)) for _ in range(50)
        ]
        with QueryEngine(digraph.copy(), cache_size=0) as engine:
            baseline = engine.run_batch(queries, ALPHA)
        return digraph, queries, [answer.reachable for answer in baseline.answers]

    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    def test_sharded_matches_single_graph(self, workload, num_shards):
        from repro.shard import ShardedEngine

        digraph, queries, expected = workload
        with ShardedEngine(digraph.copy(), num_shards=num_shards, seed=7) as engine:
            report = engine.run_batch(queries, ALPHA)
        assert [answer.reachable for answer in report.answers] == expected


class TestDeprecatedWrappers:
    """The per-source ``CSRGraph`` wrappers are gone; the façade stays quiet."""

    @pytest.fixture(scope="class")
    def graphs(self):
        digraph = random_graph(150, 600, seed=37)
        return digraph, CSRGraph.from_digraph(digraph)

    def test_traversal_facade_is_warning_free(self, graphs):
        # The public traversal functions dispatch through the kernel
        # registry and must never emit a DeprecationWarning.
        from repro.graph import traversal as tr

        digraph, csr = graphs
        nodes = list(digraph.nodes())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tr.bfs_levels(csr, nodes[0], max_hops=3)
            tr.is_reachable(csr, nodes[0], nodes[-1])
            tr.descendants(csr, nodes[0])
            tr.ancestors(csr, nodes[0])
            tr.connected_component(csr, nodes[0])
            tr.weakly_connected_components(csr)

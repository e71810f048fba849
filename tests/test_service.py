"""Property tests for the ``GraphService`` façade (``repro.service``).

The contracts under test:

* **planner parity** — for every routing decision (serial / parallel /
  sharded, every executor, forced or auto), ``GraphService`` answers are
  bit-identical to the serial ``QueryEngine``, including across
  ``update(delta)`` calls;
* **pure planner** — routing decisions are a deterministic function of
  ``(batch size, graph size, cores, config)`` and carry a reason;
* **one config surface** — ``ServiceConfig`` validates every knob, the
  shared argparse parent produces uniform ``--alpha/--executor/--workers``
  flags, and the curated exports plus deprecation shims behave as
  documented.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.engine import QueryEngine, ReachQuery
from repro.exceptions import ServiceError
from repro.graph.digraph import DiGraph
from repro.service import (
    CONTAIN,
    GraphService,
    PARALLEL,
    PATCH,
    PatternRequest,
    Planner,
    REBUILD,
    ReachRequest,
    SCATTER,
    SERIAL,
    SHARDED,
    ServiceConfig,
    as_request,
    config_from_args,
    service_flag_parent,
)
from repro.service.reporting import answers_identical
from repro.updates.delta import GraphDelta
from repro.workloads.deltas import generate_delta_stream
from repro.workloads.queries import generate_pattern_workload, sample_mixed_pairs

ALPHA = 0.1
EXECUTORS = ("serial", "daemon")


def clustered_graph(clusters=3, size=50, chords=2, bridges=3, seed=1) -> DiGraph:
    """Ring-of-chords clusters joined by a few bridges (see tests/test_shard.py)."""
    rng = random.Random(seed)
    graph = DiGraph()
    for cluster in range(clusters):
        for i in range(size):
            graph.add_node(cluster * size + i, rng.choice("ABCDE"))
    for cluster in range(clusters):
        base = cluster * size
        for i in range(size):
            graph.add_edge(base + i, base + (i + 1) % size)
            graph.add_edge(base + (i + 1) % size, base + i)
        for _ in range(chords * size // 4):
            left, right = rng.randrange(size), rng.randrange(size)
            if left != right:
                graph.add_edge(base + left, base + right)
    for cluster in range(clusters):
        other = (cluster + 1) % clusters
        for _ in range(bridges):
            graph.add_edge(
                cluster * size + rng.randrange(size), other * size + rng.randrange(size)
            )
    return graph


def signature(answer):
    """Field-for-field identity of one answer, either query class."""
    if hasattr(answer, "reachable"):
        return ("reach", answer.reachable, answer.visited, answer.met_at, answer.exhausted)
    return (
        "pattern",
        frozenset(answer.answer),
        tuple(answer.subgraph.nodes()) if answer.subgraph is not None else (),
        answer.subgraph_size,
    )


@pytest.fixture(scope="module")
def graph():
    return clustered_graph()


@pytest.fixture(scope="module")
def mixed_requests(graph):
    reach = [ReachRequest(s, t) for s, t in sample_mixed_pairs(graph, 40, seed=3)]
    workload = generate_pattern_workload(graph, shape=(3, 4), count=6, seed=11)
    patterns = [PatternRequest(q.pattern, q.personalized_match) for q in workload]
    subgraphs = [
        PatternRequest(q.pattern, q.personalized_match, semantics="subgraph")
        for q in workload
    ]
    return reach + patterns + subgraphs


@pytest.fixture(scope="module")
def serial_reference(graph, mixed_requests):
    engine = QueryEngine(graph, cache_size=0)
    answers = engine.run_batch([r.to_query() for r in mixed_requests], ALPHA).answers
    return [signature(a) for a in answers]


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.executor == "auto"
        assert config.num_shards == 1
        assert config.shard_policy == CONTAIN

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"executor": "gpu"},
            {"workers": 0},
            {"num_shards": 0},
            {"shard_method": "metis"},
            {"halo_depth": 0},
            {"shard_policy": "broadcast"},
            {"cache_size": -1},
            {"patch_threshold": 2.0},
            {"max_inflight": 0},
            {"client_alpha_budget": 0.0},
            {"stream_chunk_size": 0},
            # The retired executors fail loudly instead of falling back.
            {"executor": "thread"},
            {"executor": "process"},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ServiceError):
            ServiceConfig(**overrides)

    def test_with_overrides_revalidates(self):
        config = ServiceConfig()
        assert config.with_overrides(alpha=0.5).alpha == 0.5
        with pytest.raises(ServiceError):
            config.with_overrides(alpha=-1)

    def test_flag_parent_uniform_defaults(self):
        import argparse

        parser = argparse.ArgumentParser(parents=[service_flag_parent()])
        args = parser.parse_args([])
        assert args.alpha is None  # "not given": ServiceConfig default applies
        assert args.executor == "auto"
        assert args.workers is None
        config = config_from_args(args)
        assert config.alpha == ServiceConfig.alpha
        assert config.executor == "auto"

    def test_flag_parent_validates(self, capsys):
        import argparse

        parser = argparse.ArgumentParser(parents=[service_flag_parent()])
        for bad in (["--alpha", "0"], ["--alpha", "nope"], ["--workers", "0"],
                    ["--executor", "gpu"], ["--executor", "thread"],
                    ["--executor", "process"]):
            with pytest.raises(SystemExit):
                parser.parse_args(bad)
        capsys.readouterr()

    def test_config_from_args_folds_flags(self):
        import argparse

        parser = argparse.ArgumentParser(parents=[service_flag_parent()])
        parser.add_argument("--seed", type=int, default=0)
        args = parser.parse_args(["--alpha", "0.3", "--executor", "daemon", "--workers", "2"])
        config = config_from_args(args, num_shards=2)
        assert (config.alpha, config.executor, config.workers) == (0.3, "daemon", 2)
        assert config.num_shards == 2


# --------------------------------------------------------------------------- #
# Planner (pure routing decisions across the size × cores × config matrix)
# --------------------------------------------------------------------------- #
class TestPlanner:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_forced_executor_always_wins(self, executor):
        planner = Planner(ServiceConfig(executor=executor, workers=3))
        for num_queries in (1, 10, 10_000):
            for cores in (1, 2, 16):
                plan = planner.plan_batch(num_queries, graph_size=10**6, cores=cores)
                assert plan.executor == executor
                assert "forced" in plan.reason
                expected = SERIAL if executor == "serial" else PARALLEL
                assert plan.backend == expected

    def test_auto_single_core_stays_serial(self):
        plan = Planner(ServiceConfig()).plan_batch(10_000, graph_size=10**6, cores=1)
        assert (plan.backend, plan.executor) == (SERIAL, "serial")

    def test_auto_small_graph_stays_serial(self):
        planner = Planner(ServiceConfig(small_graph_size=512))
        plan = planner.plan_batch(10_000, graph_size=511, cores=8)
        assert plan.backend == SERIAL
        assert "small_graph_size" in plan.reason

    def test_auto_small_batch_stays_serial(self):
        planner = Planner(ServiceConfig(parallel_threshold=256))
        plan = planner.plan_batch(255, graph_size=10**6, cores=8)
        assert plan.backend == SERIAL
        assert "parallel_threshold" in plan.reason

    def test_auto_large_batch_goes_parallel(self):
        planner = Planner(ServiceConfig())
        plan = planner.plan_batch(256, graph_size=10**6, cores=8)
        assert (plan.backend, plan.executor) == (PARALLEL, "daemon")
        assert plan.workers == 8
        assert plan.parallel

    def test_auto_respects_configured_worker_cap(self):
        planner = Planner(ServiceConfig(workers=2))
        plan = planner.plan_batch(10_000, graph_size=10**6, cores=8)
        assert plan.workers == 2

    def test_sharded_backend_when_shards_configured(self):
        planner = Planner(ServiceConfig(num_shards=4))
        for cores in (1, 8):
            plan = planner.plan_batch(10, graph_size=10**6, cores=cores)
            assert plan.backend == SHARDED

    def test_scatter_policy_forces_sharded_even_at_k1(self):
        planner = Planner(ServiceConfig(num_shards=1, shard_policy=SCATTER))
        assert planner.plan_batch(10, graph_size=10**6, cores=1).backend == SHARDED

    def test_decisions_are_deterministic(self):
        planner = Planner(ServiceConfig())
        matrix = [
            (queries, size, cores)
            for queries in (1, 255, 256, 5000)
            for size in (100, 511, 512, 10**6)
            for cores in (1, 2, 8)
        ]
        first = [planner.plan_batch(*cell) for cell in matrix]
        second = [planner.plan_batch(*cell) for cell in matrix]
        assert first == second

    def test_update_plan_patch_within_budget(self):
        planner = Planner(ServiceConfig(patch_threshold=0.05))
        plan = planner.plan_update(delta_ops=10, graph_size=1000, has_node_removals=False)
        assert plan.action == PATCH
        assert plan.patch_threshold == 0.05

    def test_update_plan_rebuild_on_removals(self):
        plan = Planner(ServiceConfig()).plan_update(1, 1000, has_node_removals=True)
        assert plan.action == REBUILD
        assert plan.patch_threshold == 0.0

    def test_update_plan_rebuild_on_oversized_delta(self):
        planner = Planner(ServiceConfig(patch_threshold=0.05))
        plan = planner.plan_update(delta_ops=51, graph_size=1000, has_node_removals=False)
        assert plan.action == REBUILD


# --------------------------------------------------------------------------- #
# The parity contract: every routing decision is bit-identical to serial
# --------------------------------------------------------------------------- #
class TestPlannerParityContract:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_forced_executors_bit_identical(
        self, graph, mixed_requests, serial_reference, executor
    ):
        with GraphService(
            graph, ServiceConfig(executor=executor, workers=2, cache_size=0)
        ) as service:
            report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert [signature(a) for a in report.answers] == serial_reference

    def test_auto_plan_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert [signature(a) for a in report.answers] == serial_reference

    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sharded_contain_policy_bit_identical(
        self, graph, mixed_requests, serial_reference, k, executor
    ):
        with GraphService(
            graph,
            ServiceConfig(executor=executor, workers=2, cache_size=0, num_shards=k),
        ) as service:
            report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.plan.backend == SHARDED
        assert [signature(a) for a in report.answers] == serial_reference

    def test_contain_policy_actually_routes_to_shards(self, graph, mixed_requests):
        # The parity test above would hold vacuously if nothing ever reached
        # the shard engines; the clustered fixture must exercise them.
        service = GraphService(graph, ServiceConfig(cache_size=0, num_shards=2))
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.shard_routed > 0
        assert report.shard_single > 0
        stats = service.stats()
        assert stats.shard_contained == report.shard_routed
        assert stats.shard_spilled == report.shard_single

    def test_cached_rerun_stays_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(graph, ServiceConfig(cache_size=4096))
        cold = service.run_batch(mixed_requests, alpha=ALPHA)
        warm = service.run_batch(mixed_requests, alpha=ALPHA)
        assert warm.cache_hits == len(mixed_requests)
        for report in (cold, warm):
            assert [signature(a) for a in report.answers] == serial_reference

    def test_mixed_alpha_batch_matches_per_alpha_serial_runs(self, graph):
        pairs = sample_mixed_pairs(graph, 20, seed=5)
        requests = [
            ReachRequest(s, t, alpha=(0.05 if i % 2 else 0.2))
            for i, (s, t) in enumerate(pairs)
        ]
        service = GraphService(graph, ServiceConfig(cache_size=0))
        answers = service.run_batch(requests).answers
        engine = QueryEngine(graph, cache_size=0)
        for request, answer in zip(requests, answers):
            expected = engine.run_batch([request.to_query()], request.alpha).answers[0]
            assert signature(answer) == signature(expected)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_parity_across_updates(self, executor):
        base = clustered_graph(clusters=2, size=40, seed=5)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 30, seed=7)]
        stream = generate_delta_stream(base, batches=3, ops_per_batch=12, seed=9)
        with GraphService(
            base.copy(), ServiceConfig(executor=executor, workers=2, cache_size=64)
        ) as service:
            for delta in stream:
                report = service.update(delta)
                assert report.plan.action in (PATCH, REBUILD)
                got = service.run_batch(requests, alpha=ALPHA).answers
                fresh = QueryEngine(service.graph, mirror="never", cache_size=0)
                expected = fresh.run_batch([r.to_query() for r in requests], ALPHA).answers
                assert answers_identical("reach", got, expected)

    def test_forced_rebuild_plan_stays_bit_identical(self):
        base = clustered_graph(clusters=2, size=30, seed=6)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 20, seed=8)]
        # patch_threshold=0 plans every delta as a rebuild.
        service = GraphService(base.copy(), ServiceConfig(patch_threshold=0.0))
        delta = next(iter(generate_delta_stream(base, batches=1, ops_per_batch=10, seed=3)))
        report = service.update(delta)
        assert report.plan.action == REBUILD
        assert report.mode in ("rebuilt", "fresh")
        got = service.run_batch(requests, alpha=ALPHA).answers
        fresh = QueryEngine(service.graph, mirror="never", cache_size=0)
        expected = fresh.run_batch([r.to_query() for r in requests], ALPHA).answers
        assert answers_identical("reach", got, expected)

    def test_update_before_lazy_shard_build_partitions_updated_graph(self):
        # A delta absorbed before the first sharded batch must not strand
        # the sharded engine on the stale construction-time source.
        base = clustered_graph(clusters=2, size=40, seed=5)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 20, seed=7)]
        workload = generate_pattern_workload(base, shape=(3, 4), count=4, seed=11)
        requests += [PatternRequest(q.pattern, q.personalized_match) for q in workload]
        service = GraphService(base.copy(), ServiceConfig(num_shards=2, cache_size=0))
        delta = next(iter(generate_delta_stream(base, batches=1, ops_per_batch=10, seed=4)))
        report = service.update(delta)
        assert report.shard_report is None  # nothing to route to yet
        got = service.run_batch(requests, alpha=ALPHA)  # builds shards now
        fresh = QueryEngine(service.graph, mirror="never", cache_size=0)
        expected = fresh.run_batch([r.to_query() for r in requests], ALPHA).answers
        assert [signature(a) for a in got.answers] == [signature(a) for a in expected]
        assert got.shard_routed > 0

    def test_sharded_service_updates_stay_bit_identical(self):
        base = clustered_graph(clusters=2, size=40, seed=5)
        workload = generate_pattern_workload(base, shape=(3, 4), count=4, seed=11)
        requests = [ReachRequest(s, t) for s, t in sample_mixed_pairs(base, 20, seed=7)]
        requests += [PatternRequest(q.pattern, q.personalized_match) for q in workload]
        service = GraphService(base.copy(), ServiceConfig(num_shards=2, cache_size=0))
        service.run_batch(requests, alpha=ALPHA)  # builds the sharded engine
        delta = next(iter(generate_delta_stream(base, batches=1, ops_per_batch=10, seed=4)))
        report = service.update(delta)
        assert report.shard_report is not None
        got = service.run_batch(requests, alpha=ALPHA).answers
        fresh = QueryEngine(service.graph, mirror="never", cache_size=0)
        expected = fresh.run_batch([r.to_query() for r in requests], ALPHA).answers
        assert [signature(a) for a in got] == [signature(a) for a in expected]


# --------------------------------------------------------------------------- #
# Scatter policy (the explicit opt-out: PR 4 semantics, not bit-parity)
# --------------------------------------------------------------------------- #
class TestScatterPolicy:
    def test_scatter_routes_everything_to_shards(self, graph, mixed_requests):
        service = GraphService(
            graph, ServiceConfig(num_shards=2, shard_policy=SCATTER, cache_size=0)
        )
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.shard_routed == len(mixed_requests)
        assert report.shard_single == 0
        assert sum(report.per_shard.values()) > 0

    def test_scatter_never_false_positive(self, graph):
        from repro.graph.traversal import is_reachable

        pairs = sample_mixed_pairs(graph, 40, seed=13)
        service = GraphService(
            graph, ServiceConfig(num_shards=3, shard_policy=SCATTER, cache_size=0)
        )
        answers = service.run_batch(
            [ReachRequest(s, t) for s, t in pairs], alpha=ALPHA
        ).answers
        for (source, target), answer in zip(pairs, answers):
            if answer.reachable:
                assert is_reachable(graph, source, target)

    def test_scatter_k1_bit_identical(self, graph, mixed_requests, serial_reference):
        service = GraphService(
            graph, ServiceConfig(num_shards=1, shard_policy=SCATTER, cache_size=0)
        )
        report = service.run_batch(mixed_requests, alpha=ALPHA)
        assert report.plan.backend == SHARDED
        assert [signature(a) for a in report.answers] == serial_reference


# --------------------------------------------------------------------------- #
# Lifecycle, stats, request coercion
# --------------------------------------------------------------------------- #
class TestServiceLifecycle:
    def test_open_prepare_query_close(self):
        with GraphService.open("youtube-small", ServiceConfig(alpha=0.05)) as service:
            service.prepare()
            answer = service.query((1, 2))
            assert answer.backend == SERIAL
            assert answer.alpha == 0.05
            assert answer.index == 0
        assert service.closed
        with pytest.raises(ServiceError):
            service.run_batch([ReachRequest(1, 2)])

    def test_close_is_idempotent(self, graph):
        service = GraphService(graph)
        service.close()
        service.close()

    def test_request_coercion(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch([(0, 1), ReachQuery(0, 2), ReachRequest(0, 3)], alpha=ALPHA)
        assert len(report.answers) == 3
        with pytest.raises(ServiceError):
            as_request("not a request")

    def test_detailed_envelopes_carry_provenance(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        report = service.run_batch([ReachRequest(0, 1), ReachRequest(0, 2)], alpha=ALPHA)
        detailed = report.detailed()
        assert [a.index for a in detailed] == [0, 1]
        assert all(a.backend == report.plan.backend for a in detailed)
        assert all(a.alpha == ALPHA for a in detailed)
        assert [a.value for a in detailed] == report.answers

    def test_stats_accumulate(self, graph):
        service = GraphService(graph, ServiceConfig(cache_size=0))
        service.run_batch([ReachRequest(0, 1)], alpha=ALPHA)
        service.run_batch([ReachRequest(0, 2)], alpha=ALPHA)
        stats = service.stats()
        assert stats.batches == 2
        assert stats.queries == 2
        assert stats.plans.get(SERIAL) == 2
        assert stats.kinds.get("reach") == 2
        # The snapshot is independent of later mutation.
        service.run_batch([ReachRequest(0, 3)], alpha=ALPHA)
        assert stats.batches == 2

    def test_update_requires_delta(self, graph):
        service = GraphService(graph)
        with pytest.raises(ServiceError):
            service.update("not a delta")

    def test_update_stats_and_modes(self):
        base = clustered_graph(clusters=2, size=30, seed=2)
        service = GraphService(base.copy())
        delta = GraphDelta()
        delta.add_edge(0, 2)
        service.prepare()
        service.update(delta)
        stats = service.stats()
        assert stats.updates == 1
        assert sum(stats.update_modes.values()) == 1

    def test_shard_profile(self, graph):
        service = GraphService(graph, ServiceConfig(num_shards=2))
        profile = service.shard_profile()
        assert profile["num_shards"] == 2
        assert sum(profile["shard_nodes"]) == graph.num_nodes()

    def test_engine_property_is_the_single_construction_site(self, graph):
        service = GraphService(graph)
        assert service.engine is service.engine
        assert service.backend in ("CSRGraph", "DiGraph")

    def test_graph_tracks_updates(self):
        base = clustered_graph(clusters=2, size=30, seed=2)
        nodes_before = base.num_nodes()
        service = GraphService(base.copy())
        service.prepare()
        delta = GraphDelta()
        delta.add_node("newcomer", "A")
        delta.add_edge(0, "newcomer")
        service.update(delta)
        assert service.graph.num_nodes() == nodes_before + 1


# --------------------------------------------------------------------------- #
# Deprecation shims
# --------------------------------------------------------------------------- #
class TestDeprecationShims:
    # The PR 5 lazy top-level aliases (ShardedEngine, Partition,
    # partition_graph) are gone after their one-release window; removal is
    # pinned in tests/test_public_api.py.  What stays pinned here: the
    # low-level imports they pointed at remain clean and warning-free.

    def test_low_level_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.shard import ShardedEngine  # noqa: F401
            from repro.engine import QueryEngine  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_name

"""Workload determinism regression tests (CI reproducibility).

All sampling in ``workloads/queries.py`` and ``patterns/generator.py`` is
routed through explicit ``random.Random(seed)`` instances — never the
module-level ``random`` state — so two same-seed workloads are identical
across runs, machines and worker processes.  These tests pin that down,
including the cross-process stability of query fingerprints under different
hash-randomisation seeds (which the engine's cache and daemon pool rely
on).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from repro.graph.generators import preferential_attachment_graph
from repro.patterns.generator import embedded_pattern, random_pattern
from repro.shard import Partition, greedy_partition, hash_partition
from repro.workloads.queries import (
    generate_pattern_workload,
    generate_reachability_workload,
    reachability_fingerprint,
    sample_mixed_pairs,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _graph():
    return preferential_attachment_graph(
        num_nodes=300, edges_per_node=2, seed=5, back_edge_probability=0.1
    )


class TestSameSeedWorkloadsIdentical:
    def test_reachability_workloads_identical(self):
        graph = _graph()
        first = generate_reachability_workload(graph, count=40, seed=17)
        second = generate_reachability_workload(graph, count=40, seed=17)
        assert first.pairs == second.pairs
        assert first.truth == second.truth

    def test_pattern_workloads_identical(self):
        graph = _graph()
        first = generate_pattern_workload(graph, shape=(4, 6), count=3, seed=17)
        second = generate_pattern_workload(graph, shape=(4, 6), count=3, seed=17)
        assert [q.personalized_match for q in first] == [
            q.personalized_match for q in second
        ]
        # GraphPattern equality covers labels, edges (in order), up and uo.
        assert [q.pattern for q in first] == [q.pattern for q in second]
        assert [q.fingerprint() for q in first] == [q.fingerprint() for q in second]

    def test_different_seeds_differ(self):
        graph = _graph()
        first = generate_reachability_workload(graph, count=40, seed=1)
        second = generate_reachability_workload(graph, count=40, seed=2)
        assert first.pairs != second.pairs

    def test_mixed_pair_sampler_deterministic(self):
        """The benchmark sampler shares the same contract as the workloads."""
        graph = _graph()
        first = sample_mixed_pairs(graph, count=50, seed=6)
        second = sample_mixed_pairs(graph, count=50, seed=6)
        assert first == second
        assert len(first) == 50
        assert all(source in graph and target in graph for source, target in first)


class TestGeneratorsIgnoreGlobalRandomState:
    """Sampling must not consume or depend on the module-level ``random``."""

    def test_embedded_pattern_unaffected_by_global_seed(self):
        graph = _graph()
        random.seed(0)
        first = embedded_pattern(graph, num_nodes=4, num_edges=5, seed=23)
        random.seed(99999)
        second = embedded_pattern(graph, num_nodes=4, num_edges=5, seed=23)
        assert first == second

    def test_random_pattern_unaffected_by_global_seed(self):
        random.seed(0)
        first = random_pattern(4, 6, alphabet=["A", "B", "C"], seed=23)
        random.seed(99999)
        second = random_pattern(4, 6, alphabet=["A", "B", "C"], seed=23)
        assert first == second

    def test_workload_does_not_disturb_global_stream(self):
        """Generating a workload must not advance the global random stream."""
        graph = _graph()
        random.seed(42)
        before = random.random()
        random.seed(42)
        generate_reachability_workload(graph, count=10, seed=3)
        generate_pattern_workload(graph, shape=(4, 5), count=1, seed=3)
        after = random.random()
        assert before == after


class TestCrossProcessFingerprints:
    """Fingerprints must agree across interpreters with different hash seeds."""

    def _fingerprint_in_subprocess(self, hash_seed: str) -> str:
        code = (
            "from repro.workloads.queries import reachability_fingerprint;"
            "print(reachability_fingerprint(('node', 3), 'target'))"
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()

    def test_fingerprint_survives_hash_randomisation(self):
        local = reachability_fingerprint(("node", 3), "target")
        assert self._fingerprint_in_subprocess("1") == local
        assert self._fingerprint_in_subprocess("2") == local


class TestPartitionerDeterminism:
    """Same seed ⇒ identical shard assignment, in- and across processes.

    The sharded engine ships per-shard prepared state to worker processes
    and serialises partitions to disk; both rely on the partitioners being
    pure functions of ``(graph, k, seed)`` with no dependence on Python's
    randomised ``hash``.
    """

    # One assignment digest per (method, hash seed) is computed in a child
    # interpreter over the same generated graph and compared to the parent's.
    _CODE = (
        "import hashlib;"
        "from repro.graph.generators import preferential_attachment_graph;"
        "from repro.shard import greedy_partition, hash_partition;"
        "g = preferential_attachment_graph(num_nodes=300, edges_per_node=2, seed=5,"
        " back_edge_probability=0.1);"
        "p = {method}(g, 4, seed=9);"
        "print(hashlib.sha1(repr(sorted((repr(n), s) for n, s in"
        " p.assignment.items())).encode()).hexdigest())"
    )

    def _digest_in_subprocess(self, method: str, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-c", self._CODE.format(method=method)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()

    @staticmethod
    def _digest(partition) -> str:
        import hashlib

        return hashlib.sha1(
            repr(sorted((repr(n), s) for n, s in partition.assignment.items())).encode()
        ).hexdigest()

    def test_same_seed_identical_in_process(self):
        graph = _graph()
        first = greedy_partition(graph, 4, seed=9)
        second = greedy_partition(graph, 4, seed=9)
        assert first.assignment == second.assignment
        assert first.boundary == second.boundary
        assert hash_partition(graph, 4).assignment == hash_partition(graph, 4).assignment

    def test_different_seeds_differ(self):
        graph = _graph()
        first = greedy_partition(graph, 4, seed=1)
        second = greedy_partition(graph, 4, seed=2)
        assert first.assignment != second.assignment

    def test_assignment_survives_hash_randomisation(self):
        graph = _graph()
        for method, build in (("greedy_partition", greedy_partition), ("hash_partition", hash_partition)):
            local = self._digest(build(graph, 4, seed=9))
            assert self._digest_in_subprocess(method, "1") == local
            assert self._digest_in_subprocess(method, "2") == local

    def test_partition_round_trips_through_serialisation(self):
        graph = _graph()
        partition = greedy_partition(graph, 4, seed=9)
        loaded = Partition.from_json(partition.to_json())
        assert loaded.assignment == partition.assignment
        assert loaded.boundary == partition.boundary
        assert loaded.num_shards == partition.num_shards
        assert loaded.method == partition.method
        assert loaded.seed == partition.seed
        assert loaded.cut_edges == partition.cut_edges
        assert loaded.total_edges == partition.total_edges
        # Serialisation is itself deterministic (sorted keys, ordered pairs).
        assert loaded.to_json() == partition.to_json()

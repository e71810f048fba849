"""Persistent worker daemons (``repro.engine.daemons``) under fire.

Crash-injection contract:

* a daemon SIGKILLed **mid-chunk** is detected, restarted, and its chunk
  retried on a healthy worker — the batch completes with bit-identical
  answers;
* a chunk that kills every worker it touches raises a typed
  :class:`~repro.exceptions.DaemonError` (an ``EngineError``) after a
  bounded number of restarts, and the pool stays fully usable;
* worker deaths **between** batches are absorbed transparently;
* the async service front-end releases admission on a daemon failure and
  remains reusable.

Plus the non-fork shipping path: under ``spawn`` the daemon pool must
publish state to shared memory instead of pickling it per worker, and
unlink every segment on close (``REPRO_MP_START_METHOD`` forces the start
method for the test).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.engine import QueryEngine
from repro.engine.daemons import MAX_TASK_RETRIES, DaemonPool, _process_context
from repro.engine.executors import DaemonExecutor, make_executor
from repro.engine.queries import ReachQuery
from repro.exceptions import DaemonError, EngineError
from repro.graph.generators import random_graph
from repro.service import GraphService, ReachRequest, ServiceConfig
from repro.updates.delta import GraphDelta

ALPHA = 0.1


# --------------------------------------------------------------------------- #
# Module-level chunk functions (pickled by reference into the daemons)
# --------------------------------------------------------------------------- #
def _echo_chunk(state, task):
    """The well-behaved baseline: scale each item by the shared factor."""
    return [state["factor"] * item for item in task]


def _suicide_chunk(state, task):
    """Every attempt dies mid-chunk: the pool must give up with DaemonError."""
    os.kill(os.getpid(), signal.SIGKILL)


def _flaky_chunk(state, task):
    """Dies mid-chunk on the first attempt only; retries must complete."""
    marker, items = task
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [state["factor"] * item for item in items]


def _error_chunk(state, task):
    raise ValueError("chunk exploded")


@pytest.fixture
def graph():
    return random_graph(num_nodes=250, num_edges=1000, seed=11)


@pytest.fixture
def queries(graph):
    nodes = list(graph.nodes())
    return [ReachQuery(nodes[i], nodes[-1 - i]) for i in range(24)]


class TestDaemonPool:
    def test_plain_state_round_trip(self):
        state = {"factor": 3}
        with DaemonPool(workers=2) as pool:
            results = pool.run(state, [[1, 2], [3], [4, 5, 6]], chunk_fn=_echo_chunk)
            assert results == [[3, 6], [9], [12, 15, 18]]
            assert len(pool.worker_pids()) == 2

    def test_empty_batch_never_starts_workers(self):
        with DaemonPool(workers=2) as pool:
            assert pool.run({"factor": 1}, [], chunk_fn=_echo_chunk) == []
            assert not pool.started

    def test_kill_between_batches_restarts_and_answers(self):
        from repro import obs

        state = {"factor": 2}
        restarts_before = obs.snapshot()["counters"].get("daemon.restarts", 0)
        with DaemonPool(workers=2) as pool:
            assert pool.run(state, [[1], [2]], chunk_fn=_echo_chunk) == [[2], [4]]
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert pool.run(state, [[5], [6]], chunk_fn=_echo_chunk) == [[10], [12]]
            assert pool.restarts >= 1
            assert victim not in pool.worker_pids()
        # The restart is also visible in the global metrics registry (the
        # service-level report a production snapshot would show).
        assert obs.snapshot()["counters"].get("daemon.restarts", 0) > restarts_before

    def test_sigkill_mid_chunk_retries_and_completes(self, tmp_path):
        """The first attempt dies mid-chunk; the retry finishes the batch."""
        state = {"factor": 10}
        marker = str(tmp_path / "first-attempt")
        with DaemonPool(workers=2) as pool:
            results = pool.run(
                state,
                [(marker, [1, 2]), (str(tmp_path / "other"), [3])],
                chunk_fn=_flaky_chunk,
            )
            assert results == [[10, 20], [30]]
            assert pool.restarts >= 1

    def test_poison_chunk_raises_typed_error_and_pool_survives(self):
        state = {"factor": 1}
        with DaemonPool(workers=2) as pool:
            with pytest.raises(DaemonError) as excinfo:
                pool.run(state, [[1]], chunk_fn=_suicide_chunk)
            assert isinstance(excinfo.value, EngineError)  # typed, catchable
            assert pool.restarts >= MAX_TASK_RETRIES + 1
            # The pool is immediately reusable for the next batch.
            assert pool.run(state, [[7]], chunk_fn=_echo_chunk) == [[7]]

    def test_worker_exception_raises_without_killing_pool(self):
        state = {"factor": 1}
        with DaemonPool(workers=2) as pool:
            pids = None
            pool.run(state, [[1]], chunk_fn=_echo_chunk)
            pids = pool.worker_pids()
            with pytest.raises(DaemonError, match="chunk exploded"):
                pool.run(state, [[1]], chunk_fn=_error_chunk)
            assert pool.worker_pids() == pids  # an exception is not a crash
            assert pool.run(state, [[2]], chunk_fn=_echo_chunk) == [[2]]

    def test_ping_detects_death_and_optionally_revives(self):
        with DaemonPool(workers=2) as pool:
            pool.run({"factor": 1}, [[1]], chunk_fn=_echo_chunk)
            assert pool.ping() == [True, True]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            assert pool.ping(timeout=2.0) == [False, True]
            assert pool.ping(timeout=2.0, restart=True) == [False, True]  # revived after
            assert pool.ping(timeout=2.0) == [True, True]

    def test_closed_pool_raises_typed_error(self):
        pool = DaemonPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(DaemonError):
            pool.run({"factor": 1}, [[1]], chunk_fn=_echo_chunk)

    def test_republish_on_new_version_only(self):
        state = {"factor": 2}
        with DaemonPool(workers=1) as pool:
            pool.run(state, [[1]], chunk_fn=_echo_chunk, version=1)
            seq = pool._state_seq
            pool.run(state, [[1]], chunk_fn=_echo_chunk, version=1)
            assert pool._state_seq == seq  # warm: same version, no republish
            pool.run({"factor": 5}, [[1]], chunk_fn=_echo_chunk, version=2)
            assert pool._state_seq == seq + 1


class TestDaemonExecutor:
    def test_registered_in_executor_registry(self):
        runner = make_executor("daemon", workers=2)
        assert isinstance(runner, DaemonExecutor)
        assert runner.name == "daemon"

    def test_unbound_executor_raises_engine_error(self):
        runner = make_executor("daemon")
        with pytest.raises(EngineError, match="bound DaemonPool"):
            runner.run({"factor": 1}, [[1]], chunk_fn=_echo_chunk)

    def test_unbound_executor_accepts_empty_batch(self):
        assert make_executor("daemon").run({"factor": 1}, []) == []

    def test_engine_kill_all_workers_mid_service(self, graph, queries):
        """Killing every daemon between batches never surfaces to callers."""
        with QueryEngine(graph, cache_size=0) as engine:
            serial = engine.answer_batch(queries, ALPHA)
            daemon = engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)
            assert [a.reachable for a in daemon] == [a.reachable for a in serial]
            for pid in engine.daemon_pool().worker_pids():
                os.kill(pid, signal.SIGKILL)
            again = engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)
            assert [a.reachable for a in again] == [a.reachable for a in serial]
            assert engine.daemon_pool().restarts >= 2


class TestServiceAdmission:
    def test_daemon_failure_releases_admission_and_service_reusable(
        self, graph, queries, monkeypatch
    ):
        """A DaemonError mid-submit must not leak admission slots."""
        requests = [ReachRequest(q.source, q.target) for q in queries[:6]]
        service = GraphService(
            graph, ServiceConfig(executor="daemon", workers=2, cache_size=0, max_inflight=4)
        )
        with service:
            baseline = asyncio.run(service.submit(requests[0], alpha=ALPHA))
            assert baseline.value is not None

            def poisoned_run(self, state, tasks, chunk_fn=None, version=None):
                raise DaemonError("injected daemon failure")

            monkeypatch.setattr(DaemonPool, "run", poisoned_run)
            with pytest.raises(EngineError):
                asyncio.run(service.submit(requests[1], alpha=ALPHA))
            assert service._frontend.admission.inflight == 0  # slot released
            monkeypatch.undo()

            answers = [
                asyncio.run(service.submit(request, alpha=ALPHA)) for request in requests
            ]
            assert all(answer.value is not None for answer in answers)
            assert service._frontend.admission.inflight == 0


class TestSpawnShipping:
    def test_env_override_selects_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert _process_context().get_start_method() == "spawn"
        monkeypatch.delenv("REPRO_MP_START_METHOD")
        assert _process_context().get_start_method() in ("fork", "spawn", "forkserver")

    def test_daemon_executor_parity_under_spawn(self, graph, queries, monkeypatch):
        """Spawned daemons attach shared state instead of unpickling a copy."""
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        with QueryEngine(graph, cache_size=0) as engine:
            serial = engine.answer_batch(queries, ALPHA)
            spawned = engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)
            pool = engine.daemon_pool()
            assert pool._context.get_start_method() == "spawn"
            assert pool.segment_names()  # the state crossed via shared memory
        assert [a.reachable for a in spawned] == [a.reachable for a in serial]

    def test_spawn_run_leaves_no_segments(self, graph, queries, monkeypatch):
        from repro.graph.shm import active_segments

        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        before = set(active_segments())
        with QueryEngine(graph, cache_size=0) as engine:
            engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)
        assert set(active_segments()) == before


@pytest.mark.slow_shm
class TestSoak:
    def test_daemon_soak_200_batches_no_leaks(self, graph):
        """Nightly: 200 daemon batches with periodic updates, zero leaks."""
        from repro.graph.shm import active_segments

        nodes = list(graph.nodes())
        before = set(active_segments())
        with QueryEngine(graph, cache_size=0) as engine:
            pool = None
            for batch in range(200):
                offset = batch % 40
                queries = [
                    ReachQuery(nodes[(offset + i) % len(nodes)], nodes[-1 - i])
                    for i in range(12)
                ]
                serial = engine.answer_batch(queries, ALPHA)
                daemon = engine.answer_batch(queries, ALPHA, executor="daemon", workers=2)
                assert [a.reachable for a in daemon] == [a.reachable for a in serial]
                if pool is None:
                    pool = engine.daemon_pool()
                if batch % 50 == 49:
                    delta = GraphDelta()
                    delta.add_edge(nodes[batch % len(nodes)], nodes[(batch * 7) % len(nodes)])
                    engine.update(delta)
            # Steady state: the warm pool held at most one publication's
            # segments at a time; crashes aside, the original workers served
            # every batch.
            assert pool is not None and pool.restarts == 0
        assert set(active_segments()) == before

"""``pattern`` workload: unique personalized pattern queries on the youtube surrogate.

Every query is unique (the answer cache never hits), in the paper shapes
(4,8), (5,10) and (6,12); two thirds use ``simulation`` (RBSim) and one
third ``subgraph`` (RBSub), shuffled.  One closed-loop caller sends
``GraphService.run_batch`` batches of 16 to a service whose executor is
pinned to the warm daemon pool with one worker per core; the caller builds
each batch before it starts the clock.

Answers are checked against a direct ``RBSim.answer`` / ``RBSub.answer``
on the service's prepared state.  The accuracy is the mean F-measure
against ``match_opt`` / ``vf2_opt`` on the full graph over the first
queries of the stream, computed in worker processes after the measurement.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from typing import Any, List, Optional, Tuple

from common import (
    ALPHA,
    Outcome,
    Tally,
    cores,
    ledger_metrics,
    median,
    percentile,
    process_tree_rss_mb,
    ratio,
)
from repro.core.accuracy import pattern_accuracy
from repro.engine.queries import SIMULATION, SUBGRAPH
from repro.exceptions import WorkloadError
from repro.patterns.generator import embedded_pattern
from repro.service import GraphService, PatternRequest, ServiceConfig
from repro.subscribe import answer_signature
from repro.workloads.datasets import load_dataset

DATASET = "youtube"
SHAPES = ((4, 8), (5, 10), (6, 12))
SEMANTICS = (SIMULATION, SIMULATION, SUBGRAPH)
BATCH = 16
SETUPS = 3
ACCURACY_QUERIES = 240
REPLAY_QUERIES = 192
ABSENT_NODE = "perfbench-absent-node"
CHECK_CHUNK = 16


class QueryStream:
    """The seeded stream of unique embedded pattern queries.

    Same sampling as ``generate_pattern_workload`` (a random node of degree
    >= 2 seeds ``embedded_pattern``; a node that cannot host the shape is
    skipped), with the candidate scan done once instead of per query.  Each
    block of nine queries holds every (shape, semantics slot) pair once.
    """

    def __init__(self, graph, seed: int):
        self._graph = graph
        self._rng = random.Random(f"pattern-queries-{seed}")
        self._candidates = [node for node in graph.nodes() if graph.degree(node) >= 2]
        self._seen = set()
        self._block: List[Tuple[Tuple[int, int], str]] = []
        self.made: List[PatternRequest] = []

    def _one(self, shape: Tuple[int, int], semantics: str) -> PatternRequest:
        while True:
            try:
                pattern, match = embedded_pattern(
                    self._graph,
                    num_nodes=shape[0],
                    num_edges=shape[1],
                    seed=self._rng.randrange(1 << 30),
                    personalized_node=self._rng.choice(self._candidates),
                )
            except WorkloadError:
                continue
            request = PatternRequest(pattern, match, semantics=semantics)
            if request.fingerprint() not in self._seen:
                self._seen.add(request.fingerprint())
                return request

    def take(self, count: int) -> List[PatternRequest]:
        batch = []
        for _ in range(count):
            if not self._block:
                self._block = [(shape, kind) for shape in SHAPES for kind in SEMANTICS]
                self._rng.shuffle(self._block)
            batch.append(self._one(*self._block.pop()))
        self.made.extend(batch)
        return batch


def setup(probe) -> Tuple[GraphService, float]:
    """Load, build and prepare the service, start its daemons and publish to them.

    ``GraphService`` starts and publishes to its daemon pool on the first
    daemon batch, so set-up ends with one batch per semantics whose
    personalized node is absent from the graph (answered without work).
    """
    started = time.perf_counter()
    service = GraphService.open(
        DATASET, ServiceConfig(alpha=ALPHA, executor="daemon", workers=cores())
    )
    service.prepare(pattern_alphas=[ALPHA], subgraph_alphas=[ALPHA])
    service.run_batch(
        [PatternRequest(probe, ABSENT_NODE, semantics=kind) for kind in (SIMULATION, SUBGRAPH)]
    )
    return service, time.perf_counter() - started


class Caller:
    """The closed-loop caller: build a batch, send it, wait for the answers."""

    def __init__(self, service: GraphService, queries: QueryStream, tally: Tally):
        self.service = service
        self.queries = queries
        self.tally = tally
        self.latencies: List[float] = []
        self.answers: List[Any] = []
        self.window = 0.0
        self.batches = 0

    def run(self, seconds: float = 0.0, batches: Optional[int] = None) -> None:
        before = self.service.stats()
        while self.window < seconds if batches is None else self.batches < batches:
            batch = self.queries.take(BATCH)
            self.tally.attempted += len(batch)
            began = time.perf_counter()
            try:
                report = self.service.run_batch(batch)
            except Exception as error:  # the run goes on; the failure is counted
                self.tally.fail(f"run_batch: {error!r}", count=len(batch))
                self.answers.extend([None] * len(batch))
                continue
            finally:
                elapsed = time.perf_counter() - began
                self.window += elapsed
                self.batches += 1
            self.latencies.append(elapsed)
            self.answers.extend(report.answers)
        after = self.service.stats()
        self.cache_hits = after.cache_hits - before.cache_hits
        self.cache_misses = after.cache_misses - before.cache_misses
        pool = self.service.engine.daemon_pool()
        self.rss_mb = process_tree_rss_mb(pool.worker_pids())
        self.restarts = pool.restarts


# --------------------------------------------------------------------------- #
# Direct answers on the service's prepared state, in forked worker processes.
# Fork (not spawn) is the point here: each worker holds a copy-on-write image
# of the very prepared state the service answered from.  The parent starts no
# thread in this workload, and its daemons are stopped before the fork.
# --------------------------------------------------------------------------- #
_CHECK_STATE: Any = None


def _signature(request: PatternRequest, answer: Any) -> tuple:
    return answer_signature(request.kind, answer)


def _direct_chunk(bounds: Tuple[int, int]) -> List[tuple]:
    matchers, requests = _CHECK_STATE
    return [
        _signature(request, matchers[request.semantics].answer(request.pattern, request.personalized_match))
        for request in requests[bounds[0] : bounds[1]]
    ]


def direct_signatures(service: GraphService, requests: List[PatternRequest]) -> List[tuple]:
    """Signatures of direct ``RBSim.answer`` / ``RBSub.answer`` calls, in request order."""
    global _CHECK_STATE
    prepared = service.engine.prepared
    _CHECK_STATE = ({SIMULATION: prepared.rbsim(ALPHA), SUBGRAPH: prepared.rbsub(ALPHA)}, requests)
    bounds = [(start, start + CHECK_CHUNK) for start in range(0, len(requests), CHECK_CHUNK)]
    try:
        with multiprocessing.get_context("fork").Pool(cores()) as pool:
            chunks = pool.map(_direct_chunk, bounds)
            pool.close()
            pool.join()
    finally:
        _CHECK_STATE = None
    return [signature for chunk in chunks for signature in chunk]


def check_answers(requests, answers, expected, tally: Tally) -> None:
    for request, value, wanted in zip(requests, answers, expected):
        if value is not None and _signature(request, value) != wanted:
            tally.fail(f"served {request.kind} answer at node {request.personalized_match} differs")


# --------------------------------------------------------------------------- #
# Exact answers (MatchOpt / VF2OPT on the full graph) in spawned workers.
# --------------------------------------------------------------------------- #
_TRUTH_GRAPH = None


def _truth_init() -> None:
    global _TRUTH_GRAPH
    _TRUTH_GRAPH = load_dataset(DATASET, seed=ServiceConfig().seed)


def _truth_one(item: Tuple[Any, Any, str]) -> frozenset:
    from repro.matching.strong_simulation import match_opt
    from repro.matching.vf2 import vf2_opt

    pattern, match, semantics = item
    exact = match_opt if semantics == SIMULATION else vf2_opt
    return frozenset(exact(pattern, _TRUTH_GRAPH, match).answer)


def exact_answers(requests: List[PatternRequest]) -> List[frozenset]:
    items = [(request.pattern, request.personalized_match, request.semantics) for request in requests]
    with multiprocessing.get_context("spawn").Pool(cores(), initializer=_truth_init) as pool:
        answers = pool.map(_truth_one, items, chunksize=4)
        pool.close()
        pool.join()
    return answers


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    graph = load_dataset(DATASET, seed=ServiceConfig().seed)
    probe = QueryStream(graph, seed).take(1)[0].pattern
    queries = QueryStream(graph, seed)

    setup_times = []
    for _ in range(SETUPS - 1):
        service, elapsed = setup(probe)
        setup_times.append(elapsed)
        service.close()
    service, elapsed = setup(probe)
    setup_times.append(elapsed)

    caller = Caller(service, queries, tally)
    caller.run(seconds=seconds)
    requests = queries.made
    service.engine.close()  # stop the daemons before forking the checkers
    expected = direct_signatures(service, requests)
    service.close()
    check_answers(requests, caller.answers, expected, tally)

    sample = requests[:ACCURACY_QUERIES]
    exact = exact_answers(sample)
    f_measure = [
        pattern_accuracy(truth, answer.answer).f_measure
        for truth, answer in zip(exact, caller.answers)
        if answer is not None
    ]
    outcome = Outcome(
        tally,
        {
            "setup_s": median(setup_times),
            "rss_mb": caller.rss_mb,
            "latency_p50_ms": median(caller.latencies) * 1e3,
            "latency_tail_ms": percentile(caller.latencies, 0.9) * 1e3,
            "qps": sum(answer is not None for answer in caller.answers) / caller.window,
            "accuracy": sum(f_measure) / len(f_measure),
        },
    )
    if trace:
        outcome.per_layer, outcome.recorder = traced(seed, graph, probe, caller, expected, tally)
    return outcome


def traced(seed, graph, probe, untraced: Caller, expected, tally: Tally):
    """Replay the same batches with spans recorded, then some queries serially.

    The algorithm layers run inside the daemons, out of reach of the
    parent's wrappers; a serial replay of the first queries on the same
    prepared state records their spans instead.
    """
    from tracing import Analysis, Recorder, instrument

    recorder = Recorder()
    with instrument(recorder):
        service, _ = setup(probe)
        recorder.phase = "measure"
        queries = QueryStream(graph, seed)
        caller = Caller(service, queries, tally)
        caller.run(batches=untraced.batches)
        recorder.phase = "replay"
        prepared = service.engine.prepared
        matchers = {SIMULATION: prepared.rbsim(ALPHA), SUBGRAPH: prepared.rbsub(ALPHA)}
        replayed = [
            matchers[request.semantics].answer(request.pattern, request.personalized_match)
            for request in queries.made[:REPLAY_QUERIES]
        ]
        recorder.phase = "done"
        service.close()
    requests = queries.made
    check_answers(requests, caller.answers, expected, tally)
    check_answers(requests, replayed, expected, tally)

    spans = Analysis(recorder.spans)
    ops = len(caller.answers)
    computed = [answer for answer in replayed if answer.budget is not None]

    def per_call(*names: str) -> float:
        calls = sum(spans.count(name, "replay") for name in names)
        return ratio(sum(spans.seconds(name, "replay") for name in names), calls)

    metrics = {
        "service.batch_self_us": spans.per_item("GraphService.run_batch", own=True) * 1e6,
        "engine.batch_self_us": spans.per_item("QueryEngine.run_batch", own=True) * 1e6,
        "engine.cache_hit_ratio": ratio(
            caller.cache_hits, caller.cache_hits + caller.cache_misses
        ),
        "engine.prepare_ms": ratio(spans.seconds("PreparedGraph.prepare"), ops) * 1e3,
        "daemons.run_us_per_query": spans.per_item("DaemonPool.run") * 1e6,
        "daemons.publish_ms": ratio(
            spans.seconds("DaemonPool._publish_locked", "setup"),
            spans.count("DaemonPool._publish_locked", "setup"),
        )
        * 1e3,
        "daemons.restarts": float(untraced.restarts + caller.restarts),
        "core.reduce_ms": per_call("RBSim.reduce", "RBSub.reduce") * 1e3,
        "core.gq_size_mean": ratio(
            sum(answer.subgraph_size for answer in replayed), len(replayed)
        ),
        "core.budget_used_frac": ratio(
            sum(answer.subgraph_size / answer.budget.size_limit for answer in computed),
            len(computed),
        ),
        "matching.match_ms": per_call("match_in_subgraph", "isomorphic_answer_in_subgraph")
        * 1e3,
        "bench.tracing_overhead_frac": caller.window / untraced.window - 1.0,
    }
    metrics.update(ledger_metrics(spans.ledger(caller.window, ops)))
    return metrics, recorder

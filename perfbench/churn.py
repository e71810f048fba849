"""``churn`` workload: small graph updates beside reads and standing queries.

The youtube surrogate receives a seeded ``growth``-mix delta stream of
small deltas (10 ops each) through ``GraphService.update``; the stream is
made of segments of five deltas, each with its own trending pool.  Before the
stream starts the service holds 128 reach subscriptions and two pattern
subscriptions (one per semantics, the same for every seed), so every
update also runs the subscription maintenance pass.  After each update
one ``run_batch`` of 128 reach reads runs.  Each update with its reads,
and each set-up, runs pinned to the next core in turn.

Checks: each read batch equals a direct ``RBReach.query_batch`` on the
state it was served from; after the stream, every subscription value and
the whole read pool equal a fresh ``GraphService`` built on
``DeltaStream.final_graph``; RBReach gives no false positive there.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Any, List, Optional, Tuple

from common import (
    ALPHA,
    Outcome,
    Tally,
    ledger_metrics,
    median,
    percentile,
    pin,
    process_tree_rss_mb,
    ratio,
)
from reach import distinct_pairs
from repro.engine.queries import SIMULATION, SUBGRAPH
from repro.exceptions import WorkloadError
from repro.patterns.generator import embedded_pattern
from repro.reachability.baselines import exact_answers
from repro.service import GraphService, PatternRequest, ReachRequest, ServiceConfig
from repro.subscribe import answer_signature
from repro.workloads.datasets import load_dataset
from repro.workloads.deltas import DeltaStream, generate_delta_stream

DATASET = "youtube"
REACH_SUBSCRIPTIONS = 128
PATTERN_SHAPE = (4, 8)
READ_POOL = 2_048
READS_PER_UPDATE = 128
OPS_PER_DELTA = 10
TREND_DELTAS = 5
# An even count, so that the median of set-ups taking turns on two cores
# is the mean of one from each.
SETUPS = 4
# The pattern subscriptions are standing configuration, the same for every
# seed: which two patterns a seed drew moved the update median by a third
# (a pattern whose ball reaches a hub costs far more to maintain), which
# would swamp the change a later PR makes.  The seed picks everything else.
PATTERN_SUBSCRIPTION_SEED = 0


def segment(graph, seed: int, index: int, deltas: int = TREND_DELTAS) -> DeltaStream:
    """Segment ``index`` of the stream, generated on the graph the previous one ended on.

    ``generate_delta_stream`` lands most new links on a trending pool of hubs
    drawn once per stream.  Whether that pool touches the hop-ball of the
    costlier pattern subscription decides whether nearly every update
    re-evaluates it (about 300 ms of a 900-ms update), so with one pool per
    run some seeds skipped it on half their updates and others on none.
    A fresh pool every ``TREND_DELTAS`` deltas (trends turn over) lets each
    run average over several.
    """
    return generate_delta_stream(
        graph, batches=deltas, ops_per_batch=OPS_PER_DELTA, mix="growth", seed=seed * 1000 + index
    )


class Deltas:
    """The seeded delta stream, generated a segment at a time as it is consumed.

    Generation runs between updates, outside every timed window.
    """

    def __init__(self, graph, seed: int):
        self.seed = seed
        self.deltas: List[Any] = []
        self._end = graph

    def __iter__(self):
        position = 0
        while True:
            if position == len(self.deltas):
                part = segment(self._end, self.seed, len(self.deltas) // TREND_DELTAS)
                self.deltas.extend(part.deltas)
                self._end = part.final_graph
            yield self.deltas[position]
            position += 1


def replay(graph, seed: int, deltas: int) -> DeltaStream:
    """The first ``deltas`` deltas regenerated from scratch, with the graph they end on."""
    stream = DeltaStream(mix="growth", final_graph=graph)
    index = 0
    while len(stream) < deltas:
        part = segment(stream.final_graph, seed, index, min(TREND_DELTAS, deltas - len(stream)))
        stream.deltas.extend(part.deltas)
        stream.final_graph = part.final_graph
        index += 1
    return stream


def pattern_requests(graph, seed: int) -> List[PatternRequest]:
    """One embedded (4,8) pattern query per semantics."""
    rng = random.Random(f"churn-patterns-{seed}")
    candidates = [node for node in graph.nodes() if graph.degree(node) >= 2]
    requests: List[PatternRequest] = []
    while len(requests) < 2:
        try:
            pattern, match = embedded_pattern(
                graph,
                num_nodes=PATTERN_SHAPE[0],
                num_edges=PATTERN_SHAPE[1],
                seed=rng.randrange(1 << 30),
                personalized_node=rng.choice(candidates),
            )
        except WorkloadError:
            continue
        semantics = SIMULATION if not requests else SUBGRAPH
        requests.append(PatternRequest(pattern, match, semantics=semantics))
    return requests


class Inputs:
    def __init__(self, seed: int):
        self.seed = seed
        self.graph = load_dataset(DATASET, seed=ServiceConfig().seed)
        self.stream = Deltas(self.graph, seed)
        pairs = distinct_pairs(self.graph, REACH_SUBSCRIPTIONS + READ_POOL, seed)
        self.subscriptions = [ReachRequest(*pair) for pair in pairs[:REACH_SUBSCRIPTIONS]]
        self.subscriptions += pattern_requests(self.graph, PATTERN_SUBSCRIPTION_SEED)
        self.reads = pairs[REACH_SUBSCRIPTIONS:]


def setup(inputs: Inputs) -> Tuple[GraphService, float]:
    """Load, build and prepare the service and register the subscriptions."""
    started = time.perf_counter()
    service = GraphService.open(DATASET, ServiceConfig(alpha=ALPHA))
    service.prepare()
    for request in inputs.subscriptions:
        service.subscribe(request)
    return service, time.perf_counter() - started


class Stream:
    """Updates, each followed by one read batch, against one service."""

    def __init__(self, service: GraphService, inputs: Inputs, tally: Tally, recorder=None):
        self.service = service
        self.recorder = recorder
        self.inputs = inputs
        self.tally = tally
        self.rng = random.Random(f"churn-reads-{inputs.seed}")
        self.update_latencies: List[float] = []
        self.read_latencies: List[float] = []
        #: time of each update together with the read batch after it
        self.cycles: List[float] = []
        self.reports: List[Any] = []
        self.read_reports: List[Any] = []
        self.read_answers: List[Any] = []
        self.window = 0.0
        self.applied = 0

    def run(self, seconds: float = 0.0, deltas: Optional[int] = None) -> None:
        for delta in self.inputs.stream:
            if (deltas is None and self.window >= seconds) or self.applied == deltas:
                break
            pin(self.applied)
            self.tally.attempted += 1
            cycle_began = self.window
            began = time.perf_counter()
            try:
                report = self.service.update(delta)
            except Exception as error:  # the run goes on; the failure is counted
                self.tally.fail(f"update {self.applied}: {error!r}")
                report = None
            finally:
                elapsed = time.perf_counter() - began
                self.window += elapsed
                self.applied += 1
            if report is not None:
                self.update_latencies.append(elapsed)
                self.reports.append(report)
            self._read()
            self.cycles.append(self.window - cycle_began)

    def _read(self) -> None:
        pairs = [self.rng.choice(self.inputs.reads) for _ in range(READS_PER_UPDATE)]
        requests = [ReachRequest(*pair) for pair in pairs]
        self.tally.attempted += len(requests)
        began = time.perf_counter()
        try:
            report = self.service.run_batch(requests)
        except Exception as error:
            self.tally.fail(f"read batch: {error!r}", count=len(requests))
            return
        finally:
            elapsed = time.perf_counter() - began
            self.window += elapsed
        self.read_latencies.append(elapsed)
        self.read_reports.append(report)
        self.read_answers.extend(report.answers)
        with self.recorder.phase_as("check") if self.recorder else contextlib.nullcontext():
            direct = self.service.engine.prepared.rbreach(ALPHA).query_batch(pairs)
        for pair, served, expected in zip(pairs, report.answers, direct):
            if answer_signature("reach", served) != answer_signature("reach", expected):
                self.tally.fail(f"read of {pair} differs from RBReach.query_batch")


def check_final(service: GraphService, inputs: Inputs, applied: int, tally: Tally) -> float:
    """Compare against a fresh service on ``final_graph``; return the reads' recall."""
    replayed = replay(inputs.graph, inputs.seed, applied)
    for position, (ours, theirs) in enumerate(zip(inputs.stream.deltas, replayed.deltas)):
        if ours.ops != theirs.ops:
            tally.fail(f"delta {position} of the replayed stream differs")
    final = replayed.final_graph
    fresh = GraphService(final, ServiceConfig(alpha=ALPHA))
    try:
        for subscription in service.subscriptions():
            value = fresh.run_batch([subscription.request]).answers[0]
            if subscription.signature() != answer_signature(subscription.kind, value):
                tally.fail(f"subscription {subscription.id} differs from a fresh service")
        requests = [ReachRequest(*pair) for pair in inputs.reads]
        ours = service.run_batch(requests).answers
        theirs = fresh.run_batch(requests).answers
    finally:
        fresh.close()
    for pair, mine, expected in zip(inputs.reads, ours, theirs):
        if answer_signature("reach", mine) != answer_signature("reach", expected):
            tally.fail(f"read of {pair} differs from a fresh service")
    truth = exact_answers(final, inputs.reads)
    found = 0
    for pair, answer in zip(inputs.reads, ours):
        if answer.reachable and not truth[pair]:
            tally.fail(f"RBReach false positive on {pair}")
        found += answer.reachable and truth[pair]
    return ratio(found, sum(truth.values()))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    inputs = Inputs(seed)
    setup_times = []
    for attempt in range(SETUPS):
        pin(attempt)
        service, elapsed = setup(inputs)
        setup_times.append(elapsed)
        if attempt < SETUPS - 1:
            service.close()
    index_build_s = service.engine.index_build_seconds(ALPHA)

    stream = Stream(service, inputs, tally)
    stream.run(seconds=seconds)
    rss_mb = process_tree_rss_mb()
    recall = check_final(service, inputs, stream.applied, tally)
    service.close()

    outcome = Outcome(
        tally,
        {
            "setup_s": median(setup_times),
            "rss_mb": rss_mb,
            "latency_p50_ms": median(stream.update_latencies) * 1e3,
            "latency_tail_ms": percentile(stream.update_latencies, 0.9) * 1e3,
            # Reads per second of the loop, from the median time of one
            # update with its read batch: read-batch latency alone swings by
            # a third between seeds (the deltas reshape the index
            # differently), and a mean over the ≈25 cycles of a run follows
            # its one or two slowest updates.
            "qps": READS_PER_UPDATE / median(stream.cycles),
            "accuracy": recall,
        },
    )
    if trace:
        outcome.per_layer, outcome.recorder = traced(inputs, stream, tally, index_build_s)
    return outcome


def traced(inputs: Inputs, untraced: Stream, tally: Tally, index_build_s: float):
    """Replay the same deltas and reads on a fresh service with spans recorded."""
    from tracing import Analysis, Recorder, instrument

    recorder = Recorder()
    with instrument(recorder):
        service, _ = setup(inputs)
        recorder.phase = "measure"
        stream = Stream(service, inputs, tally, recorder)
        stream.run(deltas=untraced.applied)
        recorder.phase = "done"
        subscriptions = service.subscriptions()
        service.close()

    spans = Analysis(recorder.spans)
    updates = max(1, len(stream.reports))
    maintenance = [report.maintenance for report in stream.reports if report.maintenance]
    maintenance_seconds = sum(report.wall_seconds for report in maintenance)
    affected = sum(report.affected for report in maintenance)
    hits = sum(report.cache_hits for report in stream.read_reports)
    misses = sum(report.cache_misses for report in stream.read_reports)
    reads = stream.read_answers
    patterns = [sub.value for sub in subscriptions if sub.kind != "reach" and sub.value.budget]
    reduce_calls = spans.count("RBSim.reduce") + spans.count("RBSub.reduce")
    match_calls = spans.count("match_in_subgraph") + spans.count("isomorphic_answer_in_subgraph")

    metrics = {
        "service.batch_self_us": spans.per_item("GraphService.run_batch", own=True) * 1e6,
        "service.update_self_ms": (
            spans.seconds("GraphService.update")
            - spans.seconds("QueryEngine.update")
            - maintenance_seconds
        )
        / updates
        * 1e3,
        "engine.batch_self_us": spans.per_item("QueryEngine.run_batch", own=True) * 1e6,
        "engine.cache_hit_ratio": ratio(hits, hits + misses),
        "engine.prepare_ms": spans.seconds("PreparedGraph.prepare") / updates * 1e3,
        "engine.update_self_ms": spans.self_seconds("QueryEngine.update") / updates * 1e3,
        "engine.cache_evicted_per_update": sum(r.cache_evicted for r in stream.reports) / updates,
        "reach.query_us": spans.per_item("RBReach.query_batch") * 1e6,
        "reach.visited_mean": ratio(sum(answer.visited for answer in reads), len(reads)),
        "reach.exhausted_frac": ratio(sum(answer.exhausted for answer in reads), len(reads)),
        "reach.index_build_s": index_build_s,
        "core.reduce_ms": ratio(
            spans.seconds("RBSim.reduce") + spans.seconds("RBSub.reduce"), reduce_calls
        )
        * 1e3,
        "core.gq_size_mean": ratio(sum(value.subgraph_size for value in patterns), len(patterns)),
        "core.budget_used_frac": ratio(
            sum(value.subgraph_size / value.budget.size_limit for value in patterns),
            len(patterns),
        ),
        "matching.match_ms": ratio(
            spans.seconds("match_in_subgraph") + spans.seconds("isomorphic_answer_in_subgraph"),
            match_calls,
        )
        * 1e3,
        "updates.apply_delta_ms": spans.seconds("PreparedGraph.apply_delta") / updates * 1e3,
        "updates.rebuilt_frac": sum(r.mode == "rebuilt" for r in stream.reports) / updates,
        "subscribe.partition_ms": spans.seconds("SubscriptionManager.partition") / updates * 1e3,
        "subscribe.reeval_ms": (
            maintenance_seconds - spans.seconds("SubscriptionManager.partition")
        )
        / updates
        * 1e3,
        "subscribe.affected_frac": ratio(
            affected, sum(report.subscriptions for report in maintenance)
        ),
        "subscribe.changed_per_affected": ratio(
            sum(report.changed for report in maintenance), affected
        ),
        "bench.tracing_overhead_frac": stream.window / untraced.window - 1.0,
    }
    metrics.update(ledger_metrics(spans.ledger(stream.window, updates)))
    return metrics, recorder

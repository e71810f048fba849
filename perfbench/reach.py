"""``reach`` workload: Zipf-skewed reachability traffic on the yahoo surrogate.

Requests are drawn with Zipf popularity from a pool of 20k distinct
``sample_mixed_pairs`` pairs, about 2.5 times the default answer cache, so
roughly half of the requests hit the cache.  After a warm-up that fills the
cache, the measured window alternates two closed-loop phases in slices of
a quarter of a second each, so that both phases sample the whole window:

* interactive — one asyncio caller awaits ``GraphService.submit`` before it
  sends the next request (latency metrics);
* bulk — one caller sends ``GraphService.run_batch`` batches of 256
  (throughput: the median over the bulk slices).

The run is pinned to one core at a time, taking turns on the cores from
one set-up, and one pair of slices, to the next.  Outputs are checked against a direct
``RBReach.query_batch`` on the service's prepared state and against exact
BFS (no false positive).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from typing import Any, Dict, List, Optional, Tuple

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
from repro.reachability.baselines import exact_answers
from repro.service import GraphService, ReachRequest, ServiceConfig
from repro.subscribe import answer_signature
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import sample_mixed_pairs

DATASET = "yahoo"
POOL_SIZE = 20_000
ZIPF_EXPONENT = 0.77
WARMUP_REQUESTS = 8_192
WARMUP_SUBMITS = 64
BULK_BATCH = 256
# An even count, so that the median of set-ups taking turns on two cores
# is the mean of one from each.
SETUPS = 4
SLICE_SECONDS = 0.25


def distinct_pairs(graph, count: int, seed: int) -> List[Tuple[Any, Any]]:
    """``count`` distinct pairs from ``sample_mixed_pairs`` (sampling more if needed)."""
    wanted = count
    while True:
        pairs = list(dict.fromkeys(sample_mixed_pairs(graph, wanted, seed=seed)))
        if len(pairs) >= count:
            return pairs[:count]
        wanted += count // 10


class Draws:
    """The seeded request sequence: pool indices under Zipf popularity."""

    def __init__(self, pool_size: int, seed: int):
        self._rng = random.Random(f"reach-draws-{seed}")
        self._order = list(range(pool_size))
        self._rng.shuffle(self._order)
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(pool_size))
        )

    def take(self, count: int) -> List[int]:
        return self._rng.choices(self._order, cum_weights=self._cumulative, k=count)


def setup() -> Tuple[GraphService, float]:
    """Load the dataset, build the service and prepare it; return it and the time taken."""
    started = time.perf_counter()
    service = GraphService.open(DATASET, ServiceConfig(alpha=ALPHA))
    service.prepare()
    return service, time.perf_counter() - started


class Phases:
    """Warm-up plus the two measured phases against one service.

    Each call of a phase is one slice.  Given a count, a slice sends exactly
    that many requests (batches) instead of running until its time is up;
    ``plan`` records the counts of a timed run's slices so the traced run
    can replay them.
    """

    def __init__(self, service: GraphService, pool, seed: int, tally: Tally):
        self.service = service
        self.pool = pool
        self.draws = Draws(len(pool), seed)
        self.tally = tally
        self.served: List[Tuple[int, Any]] = []
        self.latencies: List[float] = []
        self.bulk_answered = 0
        #: queries per second of each bulk slice
        self.bulk_rates: List[float] = []
        self.window = 0.0
        self.plan: Dict[str, List[int]] = {"interactive": [], "bulk": []}
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()

    def _requests(self, indices: List[int]) -> List[ReachRequest]:
        return [ReachRequest(*self.pool[index]) for index in indices]

    def warm_up(self) -> None:
        for _ in range(WARMUP_REQUESTS // BULK_BATCH):
            self.service.run_batch(self._requests(self.draws.take(BULK_BATCH)))

        async def submits() -> None:
            for request in self._requests(self.draws.take(WARMUP_SUBMITS)):
                await self.service.submit(request)

        self.loop.run_until_complete(submits())

    def interactive(self, seconds: float, count: Optional[int] = None) -> None:
        async def caller() -> None:
            started = time.perf_counter()
            done = 0
            while (count is None and time.perf_counter() - started < seconds) or (
                count is not None and done < count
            ):
                indices = self.draws.take(256 if count is None else min(256, count - done))
                for index in indices:
                    request = ReachRequest(*self.pool[index])
                    self.tally.attempted += 1
                    began = time.perf_counter()
                    try:
                        answer = await self.service.submit(request)
                    except Exception as error:  # the run goes on; the failure is counted
                        self.tally.fail(f"submit {request}: {error!r}")
                        continue
                    finally:
                        elapsed = time.perf_counter() - began
                        self.window += elapsed
                    self.latencies.append(elapsed)
                    self.served.append((index, answer.value))
                done += len(indices)
            self.plan["interactive"].append(done)

        self.loop.run_until_complete(caller())

    def bulk(self, seconds: float, batches: Optional[int] = None) -> None:
        started = time.perf_counter()
        done = 0
        answered = 0
        busy = 0.0
        while (batches is None and time.perf_counter() - started < seconds) or (
            batches is not None and done < batches
        ):
            indices = self.draws.take(BULK_BATCH)
            requests = self._requests(indices)
            self.tally.attempted += len(requests)
            began = time.perf_counter()
            try:
                report = self.service.run_batch(requests)
            except Exception as error:
                self.tally.fail(f"run_batch: {error!r}", count=len(requests))
                continue
            finally:
                elapsed = time.perf_counter() - began
                self.window += elapsed
                done += 1
            busy += elapsed
            answered += len(report.answers)
            self.served.extend(zip(indices, report.answers))
        self.plan["bulk"].append(done)
        self.bulk_answered += answered
        if busy:
            self.bulk_rates.append(answered / busy)

    def measure(self, seconds: float) -> None:
        """Alternate interactive and bulk slices until ``seconds`` have passed."""
        started = time.perf_counter()
        for position in itertools.count():
            if time.perf_counter() - started >= seconds:
                break
            pin(position)
            self.interactive(SLICE_SECONDS)
            self.bulk(SLICE_SECONDS)

    def replay(self, plan: Dict[str, List[int]]) -> None:
        """Send exactly the slices ``plan`` recorded."""
        for position, (requests, batches) in enumerate(zip(plan["interactive"], plan["bulk"])):
            pin(position)
            self.interactive(0, count=requests)
            self.bulk(0, batches=batches)

    @property
    def ops(self) -> int:
        return len(self.latencies) + self.bulk_answered


def check_served(phases: Phases, direct: List[Any], tally: Tally) -> None:
    """Every served answer equals the direct ``RBReach.query_batch`` answer."""
    for index, value in phases.served:
        if answer_signature("reach", value) != answer_signature("reach", direct[index]):
            tally.fail(f"served answer for {phases.pool[index]} differs from RBReach.query_batch")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tally = Tally()
    graph = load_dataset(DATASET, seed=ServiceConfig().seed)
    pool = distinct_pairs(graph, POOL_SIZE, seed)

    # One core at a time (the planner serves serially either way).  Each
    # submit hands the request to the front-end's worker thread and back;
    # across cores of a virtual machine that hand-off waits for the other
    # vCPU to wake, which moved p50 by ±25% and p99 twofold between
    # identical runs, while on one core it is a context switch (±5%).
    setup_times = []
    for attempt in range(SETUPS):
        pin(attempt)
        service, elapsed = setup()
        setup_times.append(elapsed)
        if attempt < SETUPS - 1:
            service.close()
    index_build_s = service.engine.index_build_seconds(ALPHA)

    phases = Phases(service, pool, seed, tally)
    phases.warm_up()
    before = service.stats()
    phases.measure(seconds)
    after = service.stats()
    rss_mb = process_tree_rss_mb()

    direct = service.engine.prepared.rbreach(ALPHA).query_batch(pool)
    check_served(phases, direct, tally)
    truth = exact_answers(graph, pool)
    for pair, answer in zip(pool, direct):
        if answer.reachable and not truth[pair]:
            tally.fail(f"RBReach false positive on {pair}")
    found = sum(1 for pair, answer in zip(pool, direct) if answer.reachable and truth[pair])
    phases.close()
    service.close()

    end_to_end = {
        "setup_s": median(setup_times),
        "rss_mb": rss_mb,
        "latency_p50_ms": median(phases.latencies) * 1e3,
        "latency_tail_ms": percentile(phases.latencies, 0.99) * 1e3,
        "qps": median(phases.bulk_rates),
        "accuracy": ratio(found, sum(truth.values())),
    }
    outcome = Outcome(tally, end_to_end)
    if trace:
        outcome.per_layer, outcome.recorder = traced(
            seed, pool, phases, direct, tally, before, after, index_build_s
        )
    return outcome


def traced(seed, pool, untraced: Phases, direct, tally, before, after, index_build_s):
    """Replay the same requests on a fresh service with spans recorded."""
    from tracing import Analysis, Recorder, instrument

    recorder = Recorder()
    with instrument(recorder):
        service, _ = setup()
        phases = Phases(service, pool, seed, tally)
        recorder.phase = "warmup"
        phases.warm_up()
        recorder.phase = "measure"
        phases.replay(untraced.plan)
        recorder.phase = "done"
        phases.close()
        service.close()
    check_served(phases, direct, tally)
    spans = Analysis(recorder.spans)
    served = [value for _, value in untraced.served]

    metrics = {
        "aio.submit_self_us": spans.per_item("GraphService.submit", own=True) * 1e6,
        "service.batch_self_us": spans.per_item("GraphService.run_batch", own=True) * 1e6,
        "engine.batch_self_us": spans.per_item("QueryEngine.run_batch", own=True) * 1e6,
        "engine.cache_hit_ratio": ratio(
            after.cache_hits - before.cache_hits,
            after.cache_hits - before.cache_hits + after.cache_misses - before.cache_misses,
        ),
        "engine.prepare_ms": ratio(spans.seconds("PreparedGraph.prepare"), phases.ops) * 1e3,
        "reach.query_us": spans.per_item("RBReach.query_batch") * 1e6,
        "reach.visited_mean": ratio(sum(value.visited for value in served), len(served)),
        "reach.exhausted_frac": ratio(sum(value.exhausted for value in served), len(served)),
        "reach.index_build_s": index_build_s,
        "bench.tracing_overhead_frac": phases.window / untraced.window - 1.0,
    }
    metrics.update(ledger_metrics(spans.ledger(phases.window, phases.ops)))
    return metrics, recorder

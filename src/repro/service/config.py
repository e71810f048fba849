"""``ServiceConfig`` — the one knob surface of the serving façade.

Every tunable the four previous layers exposed separately (engine executor
and worker count, shard count ``k``, cache capacity, the α resource ratio,
the update patch/compact thresholds, the async admission limits) lives in
this single frozen dataclass.  :class:`~repro.service.GraphService` takes
one of these at ``open`` time; the planner reads it when routing batches.

The module also owns the **shared argparse parent** (:func:`service_flag_parent`)
that gives every CLI command the same ``--alpha``/``--executor``/``--workers``
flags with the same defaults and validation, and :func:`config_from_args`
which folds parsed flags back into a :class:`ServiceConfig`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.engine.executors import EXECUTORS
from repro.engine.prepared import DEFAULT_COMPACT_THRESHOLD, DEFAULT_PATCH_THRESHOLD
from repro.exceptions import ServiceError
from repro.shard.partition import GREEDY, METHODS
from repro.shard.shards import DEFAULT_HALO_DEPTH

AUTO = "auto"
"""Executor sentinel: let the planner pick serial vs parallel per batch."""

EXECUTOR_CHOICES = (AUTO,) + tuple(sorted(EXECUTORS))
"""Legal ``ServiceConfig.executor`` values (``auto`` + the engine registry)."""

CONTAIN = "contain"
"""Shard policy: route only shard-contained queries to the shards (the
PR 4 bit-parity rule); everything else answers on the single-graph engine,
so the whole batch stays bit-identical to serial evaluation."""

SCATTER = "scatter"
"""Shard policy: route *every* query through the sharded scatter–gather
engine (the ``repro-bench shard`` semantics: never a false positive, and
bit-identical only for shard-contained queries)."""

SHARD_POLICIES = (CONTAIN, SCATTER)


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of a :class:`~repro.service.GraphService`, in one place.

    Attributes
    ----------
    alpha:
        Default resource ratio α ∈ (0, 1] for requests that do not carry
        their own override.
    executor / workers:
        ``auto`` lets the planner choose the executor per batch from the
        batch size and the schedulable core count; naming an executor
        (``serial`` / ``daemon``) forces it for every batch.
    num_shards / shard_method / halo_depth / shard_policy:
        ``num_shards > 1`` serves through a lazily-built
        :class:`~repro.shard.ShardedEngine` under ``shard_policy``
        (:data:`CONTAIN` keeps bit-parity, :data:`SCATTER` is the full
        scatter–gather routing of PR 4).
    cache_size / mirror / seed:
        Forwarded to the underlying engines (LRU answer-cache capacity,
        CSR mirroring policy, partitioner seed).
    small_graph_size / parallel_threshold:
        Planner thresholds: graphs below ``small_graph_size`` nodes and
        batches below ``parallel_threshold`` queries always answer on the
        serial path (pool startup would dominate).
    patch_threshold / compact_threshold:
        Update budget policy: deltas above ``patch_threshold·|G|`` ops (or
        with node removals) are planned as rebuilds; ``compact_threshold``
        is the overlay-churn fraction that triggers CSR compaction.
    max_inflight / client_alpha_budget / stream_chunk_size:
        Async admission control: at most ``max_inflight`` queries admitted
        at once (further ``submit``/``stream`` calls await — backpressure,
        not rejection); per client, the α-weighted cost of its in-flight
        queries stays within ``client_alpha_budget``; ``stream`` dispatches
        in chunks of ``stream_chunk_size`` so answers flow back as chunks
        complete.
    max_subscriptions / maintenance_batch_size:
        Standing queries (:mod:`repro.subscribe`): ``subscribe`` rejects
        registrations beyond ``max_subscriptions``; the per-update
        maintenance pass re-evaluates affected subscriptions in engine
        batches of at most ``maintenance_batch_size`` (the re-evaluation
        budget — it bounds how long one update call monopolises the engine
        per batch, not how many subscriptions get maintained).
    """

    alpha: float = 0.02
    executor: str = AUTO
    workers: Optional[int] = None
    num_shards: int = 1
    shard_method: str = GREEDY
    halo_depth: int = DEFAULT_HALO_DEPTH
    shard_policy: str = CONTAIN
    cache_size: int = 4096
    mirror: str = "auto"
    seed: int = 0
    small_graph_size: int = 512
    parallel_threshold: int = 256
    patch_threshold: float = DEFAULT_PATCH_THRESHOLD
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD
    max_inflight: int = 32
    client_alpha_budget: float = 1.0
    stream_chunk_size: int = 16
    max_subscriptions: int = 1024
    maintenance_batch_size: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ServiceError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.executor not in EXECUTOR_CHOICES:
            raise ServiceError(
                f"unknown executor {self.executor!r}; use one of {', '.join(EXECUTOR_CHOICES)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.num_shards < 1:
            raise ServiceError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_method not in METHODS:
            raise ServiceError(
                f"unknown shard method {self.shard_method!r}; use one of {', '.join(METHODS)}"
            )
        if self.halo_depth < 1:
            raise ServiceError(f"halo_depth must be >= 1, got {self.halo_depth}")
        if self.shard_policy not in SHARD_POLICIES:
            raise ServiceError(
                f"unknown shard policy {self.shard_policy!r}; use one of {', '.join(SHARD_POLICIES)}"
            )
        if self.cache_size < 0:
            raise ServiceError(f"cache_size must be >= 0, got {self.cache_size}")
        if not 0 <= self.patch_threshold <= 1:
            raise ServiceError(f"patch_threshold must be in [0, 1], got {self.patch_threshold}")
        if not 0 <= self.compact_threshold <= 1:
            raise ServiceError(f"compact_threshold must be in [0, 1], got {self.compact_threshold}")
        if self.max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.client_alpha_budget <= 0:
            raise ServiceError(
                f"client_alpha_budget must be > 0, got {self.client_alpha_budget}"
            )
        if self.stream_chunk_size < 1:
            raise ServiceError(f"stream_chunk_size must be >= 1, got {self.stream_chunk_size}")
        if self.max_subscriptions < 0:
            raise ServiceError(
                f"max_subscriptions must be >= 0, got {self.max_subscriptions}"
            )
        if self.maintenance_batch_size < 1:
            raise ServiceError(
                f"maintenance_batch_size must be >= 1, got {self.maintenance_batch_size}"
            )

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)


def _alpha_flag(text: str) -> float:
    """argparse type for ``--alpha``: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a number, got {text!r}") from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1], got {value}")
    return value


def _workers_flag(text: str) -> int:
    """argparse type for ``--workers``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {value}")
    return value


def service_flag_parent() -> argparse.ArgumentParser:
    """The shared ``--alpha``/``--executor``/``--workers`` argparse parent.

    Every CLI command that answers resource-bounded queries includes this
    parent, so the three flags have the same names, defaults and validation
    everywhere.  ``--alpha`` defaults to ``None`` so each command can
    distinguish "explicit α" from "use the :class:`ServiceConfig` default"
    (``run`` keeps its scale profile's sweep values unless overridden).
    """
    defaults = ServiceConfig()
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--alpha",
        type=_alpha_flag,
        default=None,
        help=f"resource ratio α in (0, 1] (default {defaults.alpha}; "
        "'run' defaults to the scale profile's sweep values)",
    )
    parent.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=defaults.executor,
        help="batch executor: 'auto' lets the planner pick per batch; "
        "naming one forces it (answers are identical either way)",
    )
    parent.add_argument(
        "--workers",
        type=_workers_flag,
        default=defaults.workers,
        help="worker count for parallel executors (default: all schedulable cores)",
    )
    parent.add_argument(
        "--metrics-json",
        dest="metrics_json",
        metavar="PATH",
        default=None,
        help="after the command finishes, dump the process metrics registry "
        "(repro.obs snapshot) to PATH as JSON; inspect with 'repro-bench stats'",
    )
    return parent


def config_from_args(args: argparse.Namespace, **overrides) -> ServiceConfig:
    """Fold parsed CLI flags into a :class:`ServiceConfig`.

    Picks up every attribute of ``args`` that names a config field (so
    commands adding e.g. ``--seed`` or ``--shards``-mapped fields get them
    for free), then applies ``overrides``.  A ``None`` α on the namespace
    means "not given" and keeps the config default.
    """
    values = {}
    for spec in fields(ServiceConfig):
        if not hasattr(args, spec.name):
            continue
        value = getattr(args, spec.name)
        if value is None:
            continue  # "not given": keep the config default
        values[spec.name] = value
    values.update(overrides)
    return ServiceConfig(**values)


__all__ = [
    "AUTO",
    "CONTAIN",
    "EXECUTOR_CHOICES",
    "SCATTER",
    "SHARD_POLICIES",
    "ServiceConfig",
    "config_from_args",
    "service_flag_parent",
]

"""Span recording around the public entry point of each layer, and the ledger.

The program is not instrumented itself: while a traced run is active,
:func:`instrument` replaces each layer's entry point (a class attribute or
a module-level function) with a wrapper that records a span, and restores
the originals afterwards.  Spans carry name, start, end, parent span and
request id; they are kept in memory and written out when the run ends.

Parents follow a ``contextvars`` variable.  The async front-end answers on
its own worker thread, so while tracing the front-end's thread pool is
swapped for one that runs each job inside a copy of the caller's context;
one request therefore keeps its id and its parent span across the hop.

A layer's self time is its spans' durations minus the time their child
spans cover.  The ledger sums self time per layer over the measured window;
the part of the window no span covers is reported as ``unattributed``, so
the layers plus the remainder add up to the traced end-to-end time.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, REQUEST, PHASE, SIZE = range(7)

_current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """In-memory span store; ``phase`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._requests = 0

    def open(self, name: str, size: int) -> Tuple[int, contextvars.Token]:
        parent = _current.get()
        with self._lock:
            if parent is None:
                self._requests += 1
                request = self._requests
            else:
                request = self.spans[parent][REQUEST]
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, request, self.phase, size])
        return index, _current.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = time.perf_counter()
        _current.reset(token)

    @contextlib.contextmanager
    def phase_as(self, phase: str):
        """Tag the spans opened inside the block with ``phase``, then restore."""
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        fields = ["name", "start", "end", "parent", "request", "phase", "size"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


class _ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose jobs run inside a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _queries_in_tasks(args: tuple) -> int:
    # DaemonPool.run / SerialExecutor.run (self, state, tasks, ...);
    # a task is (kind, alpha, queries).
    return sum(len(task[2]) for task in args[2])


def _length_of(position: int) -> Callable[[tuple], int]:
    return lambda args: len(args[position])


def _one(args: tuple) -> int:
    return 1


# (module, attribute path = span name, layer, size of one call in queries/pairs)
ENTRY_POINTS = [
    ("repro.service.service", "GraphService.submit", "aio", _one),
    ("repro.service.service", "GraphService.run_batch", "service", _length_of(1)),
    ("repro.service.service", "GraphService.update", "service", _one),
    ("repro.engine.engine", "QueryEngine.run_batch", "engine", _length_of(1)),
    ("repro.engine.engine", "QueryEngine.update", "engine", _one),
    ("repro.engine.prepared", "PreparedGraph.prepare", "prepare", _one),
    ("repro.engine.prepared", "PreparedGraph.apply_delta", "updates", _one),
    ("repro.engine.executors", "SerialExecutor.run", "executor", _queries_in_tasks),
    ("repro.engine.daemons", "DaemonPool.run", "daemons", _queries_in_tasks),
    # The body of DaemonPool.publish; run() republishes through it directly.
    ("repro.engine.daemons", "DaemonPool._publish_locked", "daemons", _one),
    ("repro.reachability.rbreach", "RBReach.query_batch", "reach", _length_of(1)),
    ("repro.core.rbsim", "RBSim.reduce", "core", _one),
    ("repro.core.rbsub", "RBSub.reduce", "core", _one),
    ("repro.core.rbsim", "match_in_subgraph", "matching", _one),
    ("repro.core.rbsub", "isomorphic_answer_in_subgraph", "matching", _one),
    ("repro.subscribe.manager", "SubscriptionManager.partition", "subscribe", _one),
    ("repro.subscribe.manager", "SubscriptionManager.commit", "subscribe", _one),
]

LAYER_OF = {path: layer for _, path, layer, _ in ENTRY_POINTS}

LEDGER_LAYERS = list(dict.fromkeys(LAYER_OF.values()))


def _wrap(recorder: Recorder, name: str, original: Callable, size: Callable) -> Callable:
    if asyncio.iscoroutinefunction(original):

        @functools.wraps(original)
        async def traced_async(*args, **kwargs):
            index, token = recorder.open(name, size(args))
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.close(index, token)

        return traced_async

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index, token = recorder.open(name, size(args))
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index, token)

    return traced


class instrument:
    """Context manager: record spans at every layer entry point into ``recorder``."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> Recorder:
        for module_name, path, _, size in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            self._patch(owner, parts[-1], _wrap(self.recorder, path, original, size))
        # Front-ends built from here on hop threads inside the caller's context.
        self._patch(importlib.import_module("repro.service.aio"), "ThreadPoolExecutor", _ContextThreadPool)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


class Analysis:
    """Self times of a finished recording, and sums over spans by name."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        self.own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] is not None:
                self.own[span[PARENT]] -= span[END] - span[START]

    def _select(self, name: str, phase: str):
        return [
            (span, own)
            for span, own in zip(self.spans, self.own)
            if span[NAME] == name and span[PHASE] == phase
        ]

    def count(self, name: str, phase: str = "measure") -> int:
        return len(self._select(name, phase))

    def seconds(self, name: str, phase: str = "measure") -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span[END] - span[START] for span, _ in self._select(name, phase))

    def self_seconds(self, name: str, phase: str = "measure") -> float:
        """Summed self time of the spans called ``name``."""
        return sum(own for _, own in self._select(name, phase))

    def size(self, name: str, phase: str = "measure") -> int:
        """Summed call size (queries or pairs) of the spans called ``name``."""
        return sum(span[SIZE] for span, _ in self._select(name, phase))

    def per_item(self, name: str, own: bool = False, phase: str = "measure") -> float:
        """Seconds (self seconds with ``own``) per query or pair handed to ``name``."""
        items = self.size(name, phase)
        seconds = self.self_seconds(name, phase) if own else self.seconds(name, phase)
        return seconds / items if items else 0.0

    def ledger(self, window_seconds: float, ops: int, phase: str = "measure") -> Dict[str, float]:
        """Self time per layer over one phase, in µs per operation.

        ``window_seconds`` is the traced end-to-end time of the phase (the
        sum of its timed sections); the part of it no root span covers is
        ``unattributed``, so the rows add up to ``total``.
        """
        per_layer = {layer: 0.0 for layer in LEDGER_LAYERS}
        covered = 0.0
        for span, own in zip(self.spans, self.own):
            if span[PHASE] != phase:
                continue
            per_layer[LAYER_OF[span[NAME]]] += own
            if span[PARENT] is None:
                covered += span[END] - span[START]
        scale = 1e6 / max(1, ops)
        rows = {layer: seconds * scale for layer, seconds in per_layer.items()}
        rows["unattributed"] = (window_seconds - covered) * scale
        rows["total"] = window_seconds * scale
        return rows

"""Flight recorder: a bounded ring of recently assembled query timelines.

The tracing layer (:mod:`repro.obs.trace`) emits one record per span; this
module reassembles them into per-trace :class:`Timeline` objects — the
parent's spans, the worker spans shipped back over the pipes, and the
derived queue-wait / pipe-transit segments, all under one trace ID — and
keeps the most recent ones in memory so a tail-latency spike can be
investigated *after the fact*:

* :class:`FlightRecorder` is a trace collector (install with
  :func:`enable`, or ``trace.add_collector`` directly).  Records buffer per
  trace until the **root** span (the one with no parent) exits — roots exit
  last, so that is the completion signal — then the assembled timeline
  enters a bounded ``recent`` ring and, when it exceeds the ``slow_ms``
  threshold, the slow-query log.
* Histogram **exemplars** bridge metrics to traces: latency histograms
  remember the trace ID of the last observation per bucket, so "what is
  that p99?" resolves to a concrete retrievable timeline via
  :func:`trace_for_percentile`.
* :func:`format_waterfall` renders a timeline as an indented waterfall with
  the critical path (the chain of children ending latest) marked;
  :func:`to_chrome_trace` / :func:`write_chrome_trace` export Chrome
  trace-event JSON loadable in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics, trace

DEFAULT_CAPACITY = 64
DEFAULT_SLOW_MS = 100.0
DEFAULT_SLOW_CAPACITY = 16
_PENDING_CAP = 256
"""Traces allowed mid-assembly before the oldest is dropped (leak guard)."""


class Timeline:
    """One assembled trace: every span record of one query batch."""

    __slots__ = ("trace_id", "records", "root")

    def __init__(self, trace_id: str, records: List[Dict[str, Any]]):
        self.trace_id = trace_id
        self.records = sorted(records, key=lambda record: record.get("ts", 0.0))
        self.root = next(
            record for record in self.records if record.get("parent_id") is None
        )

    @property
    def wall_ms(self) -> float:
        """End-to-end wall time: the root span's duration."""
        return float(self.root.get("wall_ms", 0.0))

    @property
    def start(self) -> float:
        """Earliest ``ts`` in the timeline (``perf_counter`` seconds)."""
        return min(record.get("ts", 0.0) for record in self.records)

    def span_names(self) -> List[str]:
        """Every span name present, in timestamp order."""
        return [record["span"] for record in self.records]

    def pids(self) -> List[int]:
        """Distinct process IDs that contributed records, sorted."""
        return sorted({record.get("pid", 0) for record in self.records})

    def children(self) -> Dict[Optional[str], List[Dict[str, Any]]]:
        """Records grouped by ``parent_id`` (the tree edges)."""
        tree: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for record in self.records:
            tree.setdefault(record.get("parent_id"), []).append(record)
        return tree

    def critical_path(self) -> List[Dict[str, Any]]:
        """Root-to-leaf chain where each step is the child ending latest."""
        tree = self.children()
        path = [self.root]
        while True:
            kids = tree.get(path[-1].get("id"))
            if not kids:
                return path
            path.append(
                max(
                    kids,
                    key=lambda r: r.get("ts", 0.0) + r.get("wall_ms", 0.0) / 1e3,
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Timeline({self.trace_id!r}, root={self.root['span']!r}, "
            f"spans={len(self.records)}, wall_ms={self.wall_ms:.2f})"
        )


class FlightRecorder:
    """Trace collector assembling records into bounded recent/slow rings.

    Callable — an instance *is* a ``trace`` collector.  Thread-safe: spans
    arrive from the service thread, the async front-end's worker thread
    and the daemon pool's reply loop concurrently.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_ms: Optional[float] = DEFAULT_SLOW_MS,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
    ):
        self.capacity = max(1, capacity)
        self.slow_ms = slow_ms
        self._pending: Dict[str, List[Dict[str, Any]]] = {}
        self._done: "OrderedDict[str, Timeline]" = OrderedDict()
        self._slow: "deque[Timeline]" = deque(maxlen=max(1, slow_capacity))
        self._dropped = 0
        self._lock = threading.Lock()

    def __call__(self, record: Dict[str, Any]) -> None:
        trace_id = record.get("trace")
        if trace_id is None:
            return
        with self._lock:
            if trace_id in self._done:
                self._dropped += 1  # straggler after the root exited
                return
            self._pending.setdefault(trace_id, []).append(record)
            if record.get("parent_id") is None:
                self._finalize_locked(trace_id)
            elif len(self._pending) > _PENDING_CAP:
                self._pending.pop(next(iter(self._pending)), None)
                self._dropped += 1

    def _finalize_locked(self, trace_id: str) -> None:
        timeline = Timeline(trace_id, self._pending.pop(trace_id))
        self._done[trace_id] = timeline
        while len(self._done) > self.capacity:
            self._done.popitem(last=False)
        if self.slow_ms is not None and timeline.wall_ms >= self.slow_ms:
            self._slow.append(timeline)

    # -- retrieval ------------------------------------------------------- #
    def timeline(self, trace_id: Optional[str]) -> Optional[Timeline]:
        """The assembled timeline for one trace ID (``None`` if evicted/unknown)."""
        if trace_id is None:
            return None
        with self._lock:
            return self._done.get(trace_id)

    def recent(self, limit: Optional[int] = None) -> List[Timeline]:
        """Completed timelines, most recent last (up to ``limit``)."""
        with self._lock:
            timelines = list(self._done.values())
        return timelines[-limit:] if limit else timelines

    def slow(self) -> List[Timeline]:
        """The slow-query log: timelines at or above ``slow_ms``, oldest first."""
        with self._lock:
            return list(self._slow)

    @property
    def dropped(self) -> int:
        """Records/traces discarded by the bounded buffers (telemetry)."""
        return self._dropped


# --------------------------------------------------------------------------- #
# Module-level recorder lifecycle
# --------------------------------------------------------------------------- #
_RECORDER: Optional[FlightRecorder] = None


def enable(
    capacity: int = DEFAULT_CAPACITY,
    slow_ms: Optional[float] = DEFAULT_SLOW_MS,
    slow_capacity: int = DEFAULT_SLOW_CAPACITY,
) -> FlightRecorder:
    """Install a fresh module-level flight recorder as a trace collector."""
    global _RECORDER
    if _RECORDER is not None:
        trace.remove_collector(_RECORDER)
    _RECORDER = FlightRecorder(capacity, slow_ms, slow_capacity)
    trace.add_collector(_RECORDER)
    return _RECORDER


def disable() -> None:
    """Uninstall (and drop) the module-level flight recorder."""
    global _RECORDER
    if _RECORDER is not None:
        trace.remove_collector(_RECORDER)
        _RECORDER = None


def recorder() -> Optional[FlightRecorder]:
    """The module-level recorder installed by :func:`enable` (or ``None``)."""
    return _RECORDER


def trace_for_percentile(
    name: str, q: float = 0.99
) -> Tuple[Optional[str], Optional[Timeline]]:
    """Resolve a latency quantile to a concrete trace via its bucket exemplar.

    ``name`` is a histogram in the global registry (e.g.
    ``service.batch.seconds``).  Returns ``(trace_id, timeline)``; the
    timeline is ``None`` when no recorder is installed or the exemplar's
    trace has been evicted — the ID alone still identifies the query in a
    ``REPRO_TRACE`` sink.
    """
    histogram = metrics.REGISTRY._histograms.get(name)
    if histogram is None:
        return None, None
    trace_id = histogram.exemplar_for(q)
    active = _RECORDER
    timeline = active.timeline(trace_id) if active is not None else None
    return trace_id, timeline


# --------------------------------------------------------------------------- #
# Rendering and export
# --------------------------------------------------------------------------- #
def format_waterfall(timeline: Timeline, width: int = 40) -> str:
    """ASCII waterfall: tree-indented spans, time-proportional bars.

    Spans on the critical path (each level's latest-ending child) are
    marked ``*`` — the chain a latency fix has to shorten.
    """
    t0 = timeline.start
    end = max(
        record.get("ts", 0.0) + record.get("wall_ms", 0.0) / 1e3
        for record in timeline.records
    )
    total = max(end - t0, 1e-9)
    tree = timeline.children()
    critical = {id(record) for record in timeline.critical_path()}
    lines = [
        f"trace {timeline.trace_id}  wall={timeline.wall_ms:.2f}ms  "
        f"spans={len(timeline.records)}  pids={timeline.pids()}"
    ]

    def render(record: Dict[str, Any], depth: int) -> None:
        offset = int((record.get("ts", 0.0) - t0) / total * width)
        length = max(1, round(record.get("wall_ms", 0.0) / 1e3 / total * width))
        bar = " " * min(offset, width - 1) + "#" * min(length, width - offset)
        marker = "*" if id(record) in critical else " "
        label = "  " * depth + record["span"]
        attrs = record.get("attrs") or {}
        suffix = " ".join(f"{key}={value}" for key, value in attrs.items())
        lines.append(
            f"{marker} {label:<32} |{bar:<{width}}| "
            f"{record.get('wall_ms', 0.0):9.3f}ms pid={record.get('pid', '?')}"
            + (f"  {suffix}" if suffix else "")
        )
        for child in tree.get(record.get("id"), ()):
            render(child, depth + 1)

    render(timeline.root, 0)
    return "\n".join(lines)


def to_chrome_trace(timeline: Timeline) -> Dict[str, Any]:
    """The timeline as Chrome trace-event JSON (complete ``"X"`` events).

    Timestamps are microseconds relative to the timeline start, durations
    microseconds; ``pid`` is the emitting process, so the parent and each
    worker land on separate tracks in ``chrome://tracing`` / Perfetto.
    """
    t0 = timeline.start
    events = []
    for record in timeline.records:
        args: Dict[str, Any] = dict(record.get("attrs") or {})
        args["trace"] = record.get("trace")
        args["id"] = record.get("id")
        if record.get("parent_id") is not None:
            args["parent_id"] = record["parent_id"]
        if record.get("cpu_ms"):
            args["cpu_ms"] = record["cpu_ms"]
        events.append(
            {
                "name": record["span"],
                "cat": "derived" if record.get("derived") else "span",
                "ph": "X",
                "ts": round((record.get("ts", t0) - t0) * 1e6, 3),
                "dur": round(record.get("wall_ms", 0.0) * 1e3, 3),
                "pid": record.get("pid", 0),
                "tid": record.get("pid", 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(timeline: Timeline, path: Any) -> None:
    """Dump :func:`to_chrome_trace` JSON to ``path``."""
    from pathlib import Path

    Path(path).write_text(
        json.dumps(to_chrome_trace(timeline), indent=2) + "\n", encoding="utf-8"
    )


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_SLOW_MS",
    "FlightRecorder",
    "Timeline",
    "disable",
    "enable",
    "format_waterfall",
    "recorder",
    "to_chrome_trace",
    "trace_for_percentile",
    "write_chrome_trace",
]

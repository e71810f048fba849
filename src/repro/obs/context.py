"""Propagable trace identity: trace/span IDs that survive process hops.

A *trace* is one end-to-end query batch; a *span* is one timed stage inside
it.  Both are named by IDs of the form ``<pid-hex>.<counter-hex>`` — cheap
to mint (no randomness, no clock) and unique across the process tree,
because every process stamps its own pid and forked children diverge at the
pid even though they inherit the counter.

:class:`TraceContext` is the propagable half: an immutable
``(trace_id, span_id)`` pair that pickles small and rides daemon pipe
messages and shard sub-batches.  A worker
:func:`activate`\\ s the received context, so spans it opens parent under
the dispatching span in another process — that is the whole cross-process
linkage mechanism.

Per-thread state lives in one ``threading.local``:

* ``frames`` — the stack of ``(name, span_id)`` for spans currently open in
  this thread (:mod:`repro.obs.trace` pushes/pops via :func:`enter_frame` /
  :func:`exit_frame`);
* ``base`` — a remote :class:`TraceContext` installed by :func:`activate`,
  used as the parent when the local stack is empty;
* ``trace_id`` — the trace the current frame stack belongs to.

:func:`reset` replaces the whole local — forked children call it (via
``trace.reset_for_child``) so they never extend the parent's open stack.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceContext:
    """The propagable identity of one in-flight trace position."""

    trace_id: str
    span_id: str


_COUNTER = itertools.count(1)
_state = threading.local()


def new_id() -> str:
    """A new ID, unique across the process tree: ``<pid-hex>.<counter-hex>``."""
    return f"{os.getpid():x}.{next(_COUNTER):x}"


def _frames() -> List[Tuple[str, str]]:
    frames = getattr(_state, "frames", None)
    if frames is None:
        frames = _state.frames = []
    return frames


def current() -> Optional[TraceContext]:
    """The innermost open span as a propagable context (``None`` untraced).

    Falls back to the :func:`activate`\\ d remote context when this thread
    has no open span of its own — a worker relaying a chunk onward would
    still parent correctly.
    """
    frames = getattr(_state, "frames", None)
    if frames:
        return TraceContext(_state.trace_id, frames[-1][1])
    return getattr(_state, "base", None)


def trace_id() -> Optional[str]:
    """The trace the calling thread is currently inside (``None`` if none)."""
    frames = getattr(_state, "frames", None)
    if frames:
        return _state.trace_id
    base = getattr(_state, "base", None)
    return base.trace_id if base is not None else None


def enter_frame(name: str) -> Tuple[str, str, Optional[str], Optional[str], int]:
    """Open a span frame; returns ``(trace, span, parent_id, parent_name, depth)``.

    The first frame of a thread roots a fresh trace — unless a remote
    context is active, in which case it parents under that context and
    joins its trace.
    """
    frames = _frames()
    if frames:
        parent_name, parent_id = frames[-1]
        tid = _state.trace_id
    else:
        base = getattr(_state, "base", None)
        parent_name = None
        if base is not None:
            parent_id = base.span_id
            tid = base.trace_id
        else:
            parent_id = None
            tid = new_id()
        _state.trace_id = tid
    span_id = new_id()
    depth = len(frames)
    frames.append((name, span_id))
    return tid, span_id, parent_id, parent_name, depth


def exit_frame() -> None:
    """Close the innermost span frame."""
    frames = _frames()
    if frames:  # defensive: a reset mid-span must not blow up the exit
        frames.pop()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Adopt a remote context as this thread's parent for the duration.

    Used on the receiving side of every boundary: daemon workers activate
    the dispatched context before running their chunk.
    """
    previous = getattr(_state, "base", None)
    _state.base = ctx
    try:
        yield
    finally:
        _state.base = previous


def reset() -> None:
    """Drop all per-thread state (forked children must not inherit stacks)."""
    global _state
    _state = threading.local()


__all__ = [
    "TraceContext",
    "activate",
    "current",
    "enter_frame",
    "exit_frame",
    "new_id",
    "reset",
    "trace_id",
]

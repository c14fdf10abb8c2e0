"""The tracing half of the telemetry spine.

A :class:`Span` is one timed unit of work -- name, wall-clock start and
duration, attributes, and a parent link -- grouped under a trace id.
:class:`Tracer` hands them out three ways:

* ``with tracer.span("campaign.dispatch")`` for plain nested code --
  parentage propagates through a contextvar, so spans opened anywhere
  below (including across ``await``) attach to the right parent.
* ``tracer.begin()`` / ``span.finish()`` for code that cannot hold a
  context manager open -- generators in particular: a ``with`` inside a
  generator would leak the contextvar into the *caller's* context
  between yields, so the campaign-level span is explicit.
* ``tracer.add(name, duration, parent=...)`` for synthetic spans built
  after the fact from a measured duration (per-scenario dispatch spans
  are stamped from ``result.elapsed_seconds``, uniformly across the
  serial/process/remote backends).

Spans cross process boundaries as plain lists of JSON/pickle-safe
scalars (:meth:`Span.to_wire` / :meth:`Span.from_wire` -- no custom
classes, so the restricted unpickler on the framed transports passes
them untouched).  A remote worker runs its own private tracer, ships
``drain_wire()`` with each result frame, and the dispatcher ``ingest``-s
the batch; :func:`span_tree` then reassembles everything into one
parent→children tree regardless of which process timed what.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

#: The ambient trace context: ``(trace_id, span_id)`` of the innermost
#: open span, or None at top level.  Contextvars are per-thread (and
#: per-task under asyncio): worker threads that should participate in a
#: dispatcher-side trace must attach explicitly via ``current_context``
#: / ``attach_context``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None)

_WIRE_VERSION = 1


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_time", "duration", "attributes", "_token")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], start_time: float,
                 duration: Optional[float] = None,
                 attributes: Optional[Dict[str, object]] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = start_time
        self.duration = duration
        self.attributes = dict(attributes or {})
        self._token = None

    def set_attribute(self, key: str, value):
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self.duration is not None

    # -------------------------------------------------------------- wire

    def to_wire(self) -> list:
        """Compact encoding: a plain list of scalars and one flat dict.

        Deliberately free of custom classes so it passes the restricted
        unpickler on the remote-campaign and shard frame transports.
        """
        return [_WIRE_VERSION, self.trace_id, self.span_id, self.parent_id,
                self.name, self.start_time, self.duration,
                dict(self.attributes)]

    @classmethod
    def from_wire(cls, wire: Sequence) -> "Span":
        version = wire[0]
        if version != _WIRE_VERSION:
            raise ValueError("unknown span wire version %r" % (version,))
        return cls(name=wire[4], trace_id=wire[1], span_id=wire[2],
                   parent_id=wire[3], start_time=wire[5], duration=wire[6],
                   attributes=wire[7])

    def __repr__(self):
        return ("Span(%r, trace=%s, id=%s, parent=%s, duration=%s)"
                % (self.name, self.trace_id, self.span_id, self.parent_id,
                   self.duration))


class Tracer:
    """Creates spans and retains the finished ones for export."""

    def __init__(self, limit: int = 100_000):
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self.limit = limit
        self.dropped = 0

    # ---------------------------------------------------------- creation

    def begin(self, name: str,
              parent: Optional[Tuple[str, str]] = None,
              attributes: Optional[Dict[str, object]] = None,
              activate: bool = True) -> Span:
        """Open a span; caller must ``finish()`` it.

        ``parent`` overrides the ambient context with an explicit
        ``(trace_id, span_id)`` pair (how a remote worker roots its
        spans under the dispatcher's campaign span).  ``activate=False``
        opens the span without touching the contextvar -- required
        inside generators, where mutated context leaks to the caller.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent
        span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, start_time=time.time(),
                    attributes=attributes)
        if activate:
            span._token = _CURRENT.set((span.trace_id, span.span_id))
        return span

    def finish(self, span: Span, end_time: Optional[float] = None):
        """Close a span and retain it for export."""
        if span.duration is None:
            end = time.time() if end_time is None else end_time
            span.duration = max(0.0, end - span.start_time)
        if span._token is not None:
            try:
                _CURRENT.reset(span._token)
            except ValueError:
                # Finished from a different context (e.g. another
                # thread); the ambient var there was never ours to reset.
                pass
            span._token = None
        self._retain(span)

    @contextlib.contextmanager
    def span(self, name: str,
             parent: Optional[Tuple[str, str]] = None,
             attributes: Optional[Dict[str, object]] = None):
        """``with tracer.span("name") as span:`` -- the common case.

        Do not use inside a generator body: the contextvar mutation
        would escape to the caller between yields.  Use
        ``begin(..., activate=False)`` / ``finish`` there instead.
        """
        opened = self.begin(name, parent=parent, attributes=attributes)
        try:
            yield opened
        finally:
            self.finish(opened)

    def add(self, name: str, duration: float,
            parent: Optional[Tuple[str, str]] = None,
            start_time: Optional[float] = None,
            attributes: Optional[Dict[str, object]] = None) -> Span:
        """Record a synthetic, already-measured span.

        The dispatcher-side per-scenario spans are built this way from
        ``result.elapsed_seconds`` so every campaign backend -- serial,
        thread, process, remote -- reports the same span shape without
        needing tracer plumbing inside the worker function.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent
        duration = max(0.0, float(duration))
        if start_time is None:
            start_time = time.time() - duration
        span = Span(name=name, trace_id=trace_id, span_id=_new_id(),
                    parent_id=parent_id, start_time=start_time,
                    duration=duration, attributes=attributes)
        self._retain(span)
        return span

    def _retain(self, span: Span):
        with self._lock:
            if len(self._finished) >= self.limit:
                self.dropped += 1
                return
            self._finished.append(span)

    # ------------------------------------------------------------- export

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Return the retained spans and clear the buffer."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def drain_wire(self) -> List[list]:
        """``drain()``, wire-encoded -- what a worker ships per frame."""
        return [span.to_wire() for span in self.drain()]

    def ingest(self, wire_spans: Sequence[Sequence]) -> List[Span]:
        """Decode and retain spans from another process's ``drain_wire``."""
        spans = [Span.from_wire(wire) for wire in wire_spans]
        for span in spans:
            self._retain(span)
        return spans

    def reset(self):
        with self._lock:
            self._finished = []
            self.dropped = 0


# --------------------------------------------------------------------------
# Ambient context helpers
# --------------------------------------------------------------------------

def current_context() -> Optional[Tuple[str, str]]:
    """The ambient ``(trace_id, span_id)``, for crossing a boundary."""
    return _CURRENT.get()


def attach_context(parent: Optional[Tuple[str, str]]):
    """Set the ambient trace context in *this* thread/task.

    Returns a token for :func:`detach_context`.  Worker threads (and
    remote worker processes) call this with the ``(trace_id, span_id)``
    pair shipped in their job frame so their spans root correctly.
    """
    return _CURRENT.set(tuple(parent) if parent is not None else None)


def detach_context(token):
    try:
        _CURRENT.reset(token)
    except ValueError:
        pass


# --------------------------------------------------------------------------
# Tree reassembly
# --------------------------------------------------------------------------

def span_tree(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """Group spans as ``parent_id -> [children sorted by start]``.

    Roots (no parent, or parent not in the batch -- a worker span whose
    campaign root lives dispatcher-side in a different export) appear
    under ``None``.
    """
    known = {span.span_id for span in spans}
    tree: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        tree.setdefault(parent, []).append(span)
    for children in tree.values():
        children.sort(key=lambda span: span.start_time)
    return tree


def render_tree(spans: Sequence[Span]) -> str:
    """A human-readable indented rendering of :func:`span_tree`."""
    tree = span_tree(spans)
    lines: List[str] = []

    def emit(span: Span, depth: int):
        duration = "?" if span.duration is None else (
            "%.6fs" % span.duration)
        lines.append("%s%s (%s)" % ("  " * depth, span.name, duration))
        for child in tree.get(span.span_id, []):
            emit(child, depth + 1)

    for root in tree.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The process default
# --------------------------------------------------------------------------

_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process default; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous

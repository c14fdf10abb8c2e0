"""In-memory spans around calls into the program's public entry points.

The benchmark wraps methods from here, never from inside the program:
:meth:`Tracer.wrap` swaps a class attribute for a timing wrapper and
:meth:`Tracer.restore` puts every original back.  A span records its
name, start, end, parent span and the trace it belongs to (one trace
per exchange, or per reproduction).  A call with no enclosing span
(the verifier service handles messages in tasks of its own) is parented
to the exchange currently open for the same device, so the spans of one
exchange share a trace id across the prover and the service.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.trace = parent.trace if parent is not None else span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._open_exchanges = {}
        self._originals = []

    # ------------------------------------------------------------ spans

    def _begin(self, name, device=None):
        parent = _CURRENT.get()
        if parent is None and device is not None:
            parent = self._open_exchanges.get(device)
        span = Span(next(self._ids), parent, name)
        return span, _CURRENT.set(span)

    def _end(self, span, token):
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    def _begin_exchange(self, name, device):
        span, token = self._begin(name)
        self._open_exchanges[device] = span
        return span, token

    def _end_exchange(self, span, token, device):
        self._open_exchanges.pop(device, None)
        self._end(span, token)

    @contextlib.contextmanager
    def exchange(self, name, device):
        """One exchange span, the root of its trace."""
        span, token = self._begin_exchange(name, device)
        try:
            yield span
        finally:
            self._end_exchange(span, token, device)

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attribute, name, device_of=None, exchange=False,
             on_result=None):
        """Time every call of ``owner.attribute`` as a span called *name*.

        ``device_of(*args, **kwargs)`` names the device a call serves,
        for parenting calls made outside any span.  With ``exchange``
        the call opens that device's exchange span itself.
        ``on_result(value)`` sees every return value.
        """
        original = owner.__dict__[attribute]
        self._originals.append((owner, attribute, original))
        if exchange:
            begin, end = self._begin_exchange, self._end_exchange
        else:
            begin = self._begin

            def end(span, token, _device):
                self._end(span, token)

        def device(args, kwargs):
            return device_of(*args, **kwargs) if device_of else None

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                who = device(args, kwargs)
                span, token = begin(name, who)
                try:
                    value = await original(*args, **kwargs)
                finally:
                    end(span, token, who)
                if on_result is not None:
                    on_result(value)
                return value
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                who = device(args, kwargs)
                span, token = begin(name, who)
                try:
                    value = original(*args, **kwargs)
                finally:
                    end(span, token, who)
                if on_result is not None:
                    on_result(value)
                return value
        setattr(owner, attribute, wrapper)

    def wrap_callable(self, mapping, key, name):
        """Time calls of ``mapping[key]`` (a plain function in a dict)."""
        original = mapping[key]
        self._originals.append((mapping, key, original))

        def wrapper(*args, **kwargs):
            span, token = self._begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._end(span, token)

        mapping[key] = wrapper

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------ reading

    def totals(self, names, top_level_only=False):
        """(seconds, calls) summed over spans called any of *names*.

        With ``top_level_only`` a span nested (at any depth) inside
        another span of *names* is skipped, so nested layers are not
        counted twice.
        """
        names = set(names)
        by_id = {span.id: span for span in self.spans}
        seconds = 0.0
        calls = 0
        for span in self.spans:
            if span.name not in names:
                continue
            if top_level_only and self._has_ancestor(span, names, by_id):
                continue
            seconds += span.duration
            calls += 1
        return seconds, calls

    @staticmethod
    def _has_ancestor(span, names, by_id):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = by_id.get(parent.parent)
        return False

    def write_jsonl(self, path, origin):
        """Write every span, one JSON object a line, times relative to
        *origin* (a ``perf_counter`` reading).  A span's self time is
        its duration minus its child spans'."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent,
                    "trace": span.trace, "name": span.name,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "self_s": span.duration - child_time[span.id],
                }) + "\n")

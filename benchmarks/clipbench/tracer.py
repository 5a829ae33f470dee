"""In-memory spans recorded around calls into the program from outside.

The program carries no tracing of its own, so the benchmark patches
the public functions of each layer (:meth:`Tracer.wrap`) and restores
them afterwards (:meth:`Tracer.unwrap`).  Each thread keeps its own
span stack: a span's parent is the span open on the same thread when
it began, so nesting -- and therefore self time -- is exact per thread,
and spans of different threads never nest.

Spans use ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), which is
shared by every process on the host, so spans a traced daemon writes
out line up with the load generator's own.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    """One timed call: name, start/end, parent, thread and attributes."""

    __slots__ = ("id", "parent", "name", "start", "end", "thread",
                 "child_s", "attrs")

    def __init__(self, id, parent, name, start, thread, attrs=None,
                 end=None, child_s=0.0):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        #: summed duration of the spans directly nested in this one
        self.child_s = child_s
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it the direct children cover."""
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "thread": self.thread,
            "child_s": self.child_s, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Span":
        return cls(
            raw["id"], raw["parent"], raw["name"], raw["start"],
            raw["thread"], raw["attrs"], raw["end"], raw["child_s"],
        )


class Tracer:
    """Collects spans and counters; patches functions to produce them."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        """Open a span on the calling thread's stack."""
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            name,
            self.clock(),
            threading.get_ident(),
            attrs,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close the innermost open span of the calling thread."""
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        self.spans.append(span)  # list.append is atomic under the GIL

    def add(self, name: str, value: float = 1) -> None:
        """Add to a counter (thread-safe)."""
        with self._lock:
            self.counts[name] += value

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = functools.wraps(fn)(make(fn))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, post=None) -> None:
        """Record a span named *name* around every call of
        ``owner.attr``; ``post(span, args, result)`` may add attributes
        after a call that returned."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.attrs["raised"] = True
                    tracer.add("raised")
                    raise
                finally:
                    tracer.finish(span)
                if post is not None:
                    post(span, args, result)
                return result
            return traced

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str, value=None) -> None:
        """Count calls of ``owner.attr`` in counter *name* without a
        span (for calls too frequent to keep); ``value(args, result)``
        is summed into counter ``name + ".sum"``."""
        tracer = self

        def make(fn):
            def counted(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.add("raised")
                    raise
                tracer.add(name)
                if value is not None:
                    tracer.add(name + ".sum", value(args, result))
                return result
            return counted

        self._patch(owner, attr, make)

    def unwrap(self) -> None:
        """Restore every patched function, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- persistence ---------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write counters and spans as JSON lines (counters first)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    @staticmethod
    def load(path: Path) -> tuple[list[Span], dict[str, float]]:
        """Read back what :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as fh:
            counts = json.loads(fh.readline())["counts"]
            spans = [Span.from_dict(json.loads(line)) for line in fh]
        return spans, counts

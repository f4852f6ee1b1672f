"""In-memory span tracer that times a layer's public calls from outside.

A span is ``(name, start, end, parent)``; ``name`` is ``"<layer>.<call>"``.
Spans are kept in a list while the benchmark runs and written out once at
the end.  :meth:`Tracer.patch` swaps a method on a class for a timing
wrapper and restores it on exit, so the untraced pass of the same process
runs the unmodified code.  Everything here is single-threaded (the
simulator loop, or the server's event loop between two awaits), so a
stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter


class Tracer:
    """Collects nested spans and derives per-span-name self times."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent -1 for a root span
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn):
        """Return *fn* wrapped so that every call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    @contextlib.contextmanager
    def patch(self, targets):
        """Wrap ``(owner, attribute, span_name)`` methods for the ``with`` body."""
        saved = []
        try:
            for owner, attr, name in targets:
                # an inherited method is shadowed on *owner*, then unshadowed
                own = owner.__dict__.get(attr)
                saved.append((owner, attr, own))
                setattr(owner, attr, self.timed(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, own in reversed(saved):
                if own is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def root_seconds(self) -> float:
        """Wall seconds covered by root spans (spans without a parent)."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


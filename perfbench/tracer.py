"""In-memory span tracing around the public calls of the program.

A wrapper replaces a name where its caller looks it up (a module global or a
class attribute) and records one span per call: name, start, end, parent span
and the item being worked on. Self time is a span's duration minus the part
covered by its child spans. Bookkeeping that a wrapper does before or after
the call (counting graph nodes, sizing files) is charged to no layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Patches:
    """Set attributes on modules or classes and put the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, item)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.item = 0
        self.origin = time.perf_counter()
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped to record a span; ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` run outside the span's timing."""
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            if before is not None:
                self._untimed(before, args, kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, self.item)
            if after is not None:
                self._untimed(after, result, args, kwargs)
            return result

        return wrapper

    def _untimed(self, fn, *args) -> None:
        start = time.perf_counter()
        fn(*args)
        spent = time.perf_counter() - start
        self.self_s["trace.bookkeeping"] += spent
        if self._stack:
            self._stack[-1][1] += spent

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:  # still open: the session stopped inside it
                    continue
                name, start, end, parent, item = span
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "parent": parent,
                            "item": item,
                        }
                    )
                )
                fh.write("\n")

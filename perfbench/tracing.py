"""In-memory spans recorded around calls into the library's layers.

A span is ``[name, start, end, parent index, op id]``.  Spans stay in a
list until the run ends, then :func:`write_spans` dumps them.  A layer's
self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one thread; not shared between threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        row = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[2] = perf_counter()
            self._stack.pop()


class LayerStats:
    """Calls, total and self seconds per span name."""

    def __init__(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[index]

    def mean_ms(self, *names: str) -> float:
        """Mean total duration per call of the named spans, in ms."""
        calls = sum(self.calls[n] for n in names)
        if not calls:
            return 0.0
        return 1000.0 * sum(self.total[n] for n in names) / calls

    def unattributed_share(self, root: str = "op") -> float:
        """Share of root-span time that no child span covers."""
        if not self.total[root]:
            return 0.0
        return self.self_time[root] / self.total[root]


def write_spans(path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans},
            handle,
        )

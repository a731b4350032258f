"""In-memory spans and counters recorded around the benchmark's calls into spas.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span (-1 at the root) and ``op`` the id of the operation it
belongs to.  Each op also carries a ``label`` (the input it ran on) and a
``group`` (one timed pass, or one set-up), so per-layer figures can be taken
per input and per pass.  Nothing is written until :meth:`Tracer.dump` is
called at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, group: str, label: str):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent, op]
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        op = self.ops[-1]["id"] if self.ops else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter_ns()

    @contextmanager
    def op(self, group: str, label: str) -> Iterator[None]:
        """Root span ``op`` of one operation; spans and counts inside join it."""
        self.ops.append({"id": len(self.ops), "group": group, "label": label,
                         "counts": {}})
        with self.span("op"):
            yield

    def count(self, name: str, n: int) -> None:
        counts = self.ops[-1]["counts"]
        counts[name] = counts.get(name, 0) + n

    # -- analysis ------------------------------------------------------------

    def seconds(self) -> list[float]:
        return [(end - start) / 1e9 for _, start, end, _, _ in self.spans]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = self.seconds()
        for span, own in zip(self.spans, self.seconds()):
            if span[3] >= 0:
                out[span[3]] -= own
        return out

    def per_op(self, name: str) -> dict[int, float]:
        """Seconds in spans called ``name``, summed per op id."""
        out: dict[int, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self.seconds()):
            if span[0] == name:
                out[span[4]] += seconds
        return out

    def glue_per_op(self) -> dict[int, float]:
        """Self time of each op's root span: benchmark code between calls."""
        return {span[4]: own for span, own in zip(self.spans, self.self_seconds())
                if span[0] == "op"}

    def counts_by_group(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for o in self.ops:
            for name, n in o["counts"].items():
                out[o["group"]][name] += n
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, busy seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, busy, own in zip(self.spans, self.seconds(), self.self_seconds()):
            row = out.setdefault(span[0], {"spans": 0, "busy_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["busy_s"] += busy
            row["self_s"] += own
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps({
            "ops": self.ops,
            "spans": [dict(zip(keys, s)) for s in self.spans],
        }))

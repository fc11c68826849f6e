"""In-memory span and count recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into an idemfree
layer: its name, start, end, parent span and process id. Counts are
recorded at the same boundaries. Nothing is written while the run is
measured; ``write`` dumps everything once the run has ended.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and counts of one traced run, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        # (span id, parent id, name, start, end, pid); ids index this list
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end, self.pid)

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, start)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def adopt(self, spans, counts) -> None:
        """Merge spans and counts recorded by a worker process under the
        currently open span. Worker span ids are renumbered."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for sid, sparent, name, start, end, pid in spans:
            self.spans.append(
                (base + sid, parent if sparent is None else base + sparent, name, start, end, pid)
            )
        self.counts.update(counts)

    def totals(self) -> dict[str, float]:
        """Per span name: the summed duration of its spans."""
        out: dict[str, float] = defaultdict(float)
        for _sid, _parent, name, start, end, _pid in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans of
        the same process. Spans from pool workers run in parallel with their
        parent, so they are not subtracted from it."""
        child = [0.0] * len(self.spans)
        for sid, parent, _name, start, end, pid in self.spans:
            if parent is not None and self.spans[parent][5] == pid:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end, _pid in self.spans:
            out[name] += end - start - child[sid]
        return dict(sorted(out.items()))

    def write(self, path: str) -> None:
        """Write spans and counts as gzipped JSON lines: a header, then one
        span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")
            for sid, parent, name, start, end, pid in self.spans:
                fh.write(json.dumps([self.run_id, sid, parent, name, start, end, pid]) + "\n")

"""In-memory spans recorded by the benchmark around its calls into each layer
of the program.  No timer lives inside the program: a span is two
``perf_counter`` reads in the benchmark's own code."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Spans are dicts ``{id, name, start, end, parent, op_id}``; ``parent`` is
    the id of the enclosing span (``None`` for the root span of an op) and
    every span of one op shares its ``op_id``.  Single-threaded by design:
    the traced run steps through the layers from one thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        if not self._stack:
            self._ops += 1
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": 0.0, "parent": parent, "op_id": self._ops}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_child(self, parent: dict, name: str, seconds: float) -> None:
        """A child of ``parent`` whose duration the program itself reported
        (``ExecutionProfile.operator_seconds``); such children are laid end
        to end from the parent's start, since only durations are known."""
        siblings = [s for s in self.spans[parent["id"] + 1:] if s["parent"] == parent["id"]]
        start = siblings[-1]["end"] if siblings else parent["start"]
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": start + seconds, "parent": parent["id"],
                           "op_id": parent["op_id"], "reported": True})

    def self_seconds(self, root: Optional[str] = None) -> Dict[str, float]:
        """Total self time per span name — a span's duration minus what its
        children cover — over ops whose root span is named ``root`` (all ops
        when ``None``).  The self times of one op sum to its root's
        duration, so the root's own self time is the unaccounted remainder."""
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        roots = {s["op_id"] for s in self.spans
                 if s["parent"] is None and (root is None or s["name"] == root)}
        out: Dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s["op_id"] in roots:
                out[s["name"]] += s["end"] - s["start"] - covered[i]
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

"""Spans recorded by the benchmark's own files, and self-time roll-ups.

A span is (request id, name, start, end, parent).  In the in-process
workload the benchmark records them by wrapping the public functions
of each layer for the traced part of a run (:func:`patched`); for the
daemon it adopts the span tree the daemon returns for ``"trace":
true`` requests.  Spans stay in memory and are written out, one JSON
line per span, when the run ends.

A span's *self time* is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    rid: object
    name: str
    start_ns: int
    end_ns: int = 0
    children: list = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    def self_ns(self) -> int:
        """Duration minus the union of the children's intervals."""
        intervals = sorted(
            (max(c.start_ns, self.start_ns), min(c.end_ns, self.end_ns))
            for c in self.children
        )
        covered, reach = 0, self.start_ns
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return max(0, self.duration_ns - covered)

    def walk(self, parent=None):
        """(span, parent name) for self and every descendant."""
        yield self, parent
        for child in self.children:
            yield from child.walk(self.name)


class Recorder:
    """Keeps request span trees in memory for one run."""

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def request(self, rid, name: str):
        root = Span(rid, name, time.perf_counter_ns())
        self._stack.append(root)
        try:
            yield root
        finally:
            root.end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.roots.append(root)

    @contextlib.contextmanager
    def span(self, name: str):
        """A child of the current span; no-op outside a request."""
        if not self._stack:
            yield None
            return
        parent = self._stack[-1]
        node = Span(parent.rid, name, time.perf_counter_ns())
        self._stack.append(node)
        try:
            yield node
        finally:
            node.end_ns = time.perf_counter_ns()
            self._stack.pop()
            parent.children.append(node)

    def adopt(self, rid, tree: dict) -> Span:
        """Take in a span tree in the daemon's wire form."""
        root = _from_wire(rid, tree)
        self.roots.append(root)
        return root

    def self_ms(self, roots=None) -> dict[str, list[float]]:
        """Span name -> self time (ms) of every occurrence."""
        totals: dict[str, list[float]] = {}
        for root in self.roots if roots is None else roots:
            for node, _ in root.walk():
                totals.setdefault(node.name, []).append(node.self_ns() / 1e6)
        return totals

    def write(self, path) -> None:
        """One JSON line per span; spans of a request share ``rid``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for root in self.roots:
                for node, parent in root.walk():
                    out.write(
                        json.dumps(
                            {
                                "rid": node.rid,
                                "name": node.name,
                                "parent": parent,
                                "start_ns": node.start_ns,
                                "end_ns": node.end_ns,
                                "self_ns": node.self_ns(),
                            }
                        )
                        + "\n"
                    )


def _from_wire(rid, tree: dict) -> Span:
    node = Span(rid, tree["name"], int(tree["start_ns"]), int(tree.get("end_ns") or 0))
    node.children = [_from_wire(rid, child) for child in tree.get("children", ())]
    return node


@contextlib.contextmanager
def patched(recorder: Recorder, targets):
    """Wrap ``(owner, attribute, span name)`` callables in spans.

    The wrappers live only inside the block; the originals are put back
    on exit, so untraced parts of a run call the program unchanged.
    """
    saved = []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _timed(recorder, original, name))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _timed(recorder: Recorder, function, name: str):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper

"""Call spans recorded from outside the program.

A Tracer replaces module and class attributes that the pipeline looks up
at call time with wrappers that record one span per call: name, start,
end and parent span. Spans live in flat typed arrays, because the
per-pair calls number in the millions. restore() puts every original
attribute back. Single-threaded use only: the parent is the innermost
open span.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        nid, stack = self._name(name), self._stack
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[sid] = perf_counter()
            self.start[sid] = t0
            stack.pop()

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span for every call of owner.attr until restore().

        on_return(args, kwargs, result) runs after a call returns, outside
        its span.
        """
        original = vars(owner)[attr]
        nid = self._name(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return nid, parent, dur

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        A span's self time is its duration minus the time its direct
        children cover; children of one parent never overlap here.
        """
        nid, parent, dur = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named `name` whose direct parent is named `parent_name`."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, parent, _ = self._arrays()
        mine = (nid == self._ids[name]) & (parent >= 0)
        return int(np.count_nonzero(nid[parent[mine]] == self._ids[parent_name]))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

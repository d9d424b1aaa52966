"""In-memory spans around the program's public functions.

A span is (name, start, end, parent). Functions are wrapped where their
caller looks them up (for example ``frontdescent.driver.insert_filter``), so
the program itself is not modified; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.tally: Counter = Counter()  # counts observed at span exits
        self._stack: list = []
        self._patches: list = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.starts[idx] = perf_counter()
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` by a spanned call. ``before(args)`` returns a
        token handed to ``after(tally, args, result, token)``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = self._open(name)
            self.starts[idx] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if after:
                after(self.tally, args, result, token)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """{name: {"calls", "self_s", "total_s"}} plus child-call counts
        under ("children", parent_name, child_name)."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        pairs: Counter = Counter()
        for i, name in enumerate(self.names):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += float(own[i])
            rec["total_s"] += float(dur[i])
            if parents[i] >= 0:
                pairs[(self.names[parents[i]], name)] += 1
        result = dict(out)
        result["children"] = pairs
        return result

    def write_csv(self, path: str, label: str, mode: str = "w") -> None:
        with open(path, mode) as fh:
            if mode == "w":
                fh.write("round,index,name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{label},{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n"
                )


class NullTracer:
    """Stands in for Tracer in untraced rounds."""

    def span(self, name: str):
        return contextlib.nullcontext()

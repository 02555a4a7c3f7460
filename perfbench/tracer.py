"""In-memory spans and counters for the traced benchmark run.

Spans (name, start, end, parent) are kept in flat arrays, so a few hundred
thousand per-call spans stay small, and are written out once when the run
ends.  Every span belongs to the repetition (``rep``) that was open when it
began; the span that caused it is its parent.  ``wrap`` installs a span
around a public function of the package by replacing the module attribute
its callers look up, so nothing under ``src/`` is edited.
"""

import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._rep = -1
        self.rep_counts = []
        self._replaced = []

    def start_rep(self):
        """Open the next repetition; counters restart at zero for it."""
        self._rep += 1
        self.rep_counts.append({})

    def count(self, name, n=1):
        counts = self.rep_counts[self._rep]
        counts[name] = counts.get(name, 0) + n

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.rep.append(self._rep)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def record(self, name, start, end, parent):
        """Add a finished span whose times were taken elsewhere."""
        sid = self.begin(name)
        self._stack.pop()
        self.parent[sid] = parent
        self.start[sid] = start
        self.end[sid] = end

    def replace(self, module, attr, fn):
        """Set ``module.attr`` to ``fn`` until ``restore``."""
        self._replaced.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def restore(self):
        while self._replaced:
            module, attr, fn = self._replaced.pop()
            setattr(module, attr, fn)

    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` by a spanned call; ``on_result(args, result)``
        may add counters."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        self.replace(module, attr, traced)

    def summary(self):
        """One pass over the spans.  Returns ``(calls, busy, child)``:
        ``calls[name]`` lists every span's duration in seconds,
        ``busy[name][rep]`` sums them per repetition and ``child[name][rep]``
        sums the durations of their direct children, so a layer's self time
        is ``busy - child``."""
        calls = {n: [] for n in self.names}
        busy = {n: {} for n in self.names}
        child = {n: {} for n in self.names}
        names, name, parent, rep = self.names, self.name, self.parent, self.rep
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            n = names[name[i]]
            r = rep[i]
            calls[n].append(d)
            busy[n][r] = busy[n].get(r, 0.0) + d
            p = parent[i]
            if p >= 0:
                pn = names[name[p]]
                child[pn][r] = child[pn].get(r, 0.0) + d
        return calls, busy, child

    def write(self, path):
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "rep": self.rep.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
            }, fh, separators=(",", ":"))

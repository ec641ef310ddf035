"""Spans around calls into tqdec, recorded from outside the program.

A ``Tracer`` replaces a function at the name its callers look it up
under (``tqdec.model.decoder_forward``, ``tqdec.tensor.matmul``, ...)
with a wrapper that records one span per call: name, parent span,
start and end. Spans stay in memory until ``write``. A wrapper may also
add ``units`` of work per call (samples scored, files read). The
originals are put back by ``uninstall``, so a run can alternate traced
and untraced rounds.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.units: dict = {}
        self._stack = [-1]
        self._patches: list = []       # (owner, attr, original, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.units[name] = 0
        return self._name_ids[name]

    def wrap(self, name: str, fn, units=None):
        """``fn`` with a span per call; ``units(*args, **kwargs)`` counts
        work done by the call."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if units is not None:
                self.units[name] += units(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """``targets``: (owner, attribute, span name, units or None)."""
        for owner, attr, name, units in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, units)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reinstall(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    @contextmanager
    def paused(self):
        """Run a block with every original function back in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.reinstall()

    def arrays(self) -> dict:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def spans_of(self, name: str) -> np.ndarray:
        """Indices of the spans recorded under ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.frombuffer(self.span_name, dtype=np.int32)
                              == nid)

    def summary(self) -> dict:
        """name -> (calls, self seconds, inclusive seconds, units)."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=n)
        incl_s = np.bincount(a["name"], weights=a["dur"], minlength=n)
        return {nm: (int(calls[i]), float(self_s[i]), float(incl_s[i]),
                     self.units[nm]) for i, nm in enumerate(self.names)}

    def write(self, path):
        """All spans as JSON columns: name index, parent span, start, end."""
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, f)

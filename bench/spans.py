"""Spans recorded around calls into the package, from outside it.

`Tracer.patch` rebinds a name through which one layer calls the next (for
example `vogrid.sim.run_match_cycle`) to a wrapper that records a span:
name, start, end and the span that was open when it began. Spans are kept
in memory, in flat arrays, and folded into per-layer totals when the run
ends. A span's self time is its duration minus the time its child spans
cover. Nothing is wrapped until `install` is called, and `uninstall` puts
every original back.

Every span is tagged with the phase it ran in (set-up, round, recovery, ...)
so that totals can be given per unit of that phase.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._phase = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._open: list[int] = []
        self._targets: list[tuple] = []
        self._installed: list[tuple] = []
        self.phase = "setup"
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        idx = len(self._start)
        self._name.append(self._id(name))
        self._phase.append(self._id(self.phase))
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0.0)
        self._open.append(idx)
        self._start.append(perf_counter())
        return idx

    def end(self, idx: int):
        self._end[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; `name` may be a callable of the arguments."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name, before=None, after=None):
        """Register a rebinding of owner.attr, applied by install()."""
        self._targets.append((owner, attr, name, before, after))

    def install(self):
        for owner, attr, name, before, after in self._targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, before, after))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[tuple[str, str], list[float]]:
        """(phase, name) -> [calls, seconds, self seconds]."""
        n = len(self._start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            dur = self._end[i] - self._start[i]
            row = out[(self._names[self._phase[i]], self._names[self._name[i]])]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def durations(self, name: str, phase: str) -> list[float]:
        nid, pid = self._name_ids.get(name), self._name_ids.get(phase)
        if nid is None or pid is None:
            return []
        return [self._end[i] - self._start[i] for i in range(len(self._start))
                if self._name[i] == nid and self._phase[i] == pid]

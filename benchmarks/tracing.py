"""Spans around the library's public functions, recorded from outside.

The tracer wraps a function where its caller looks it up (for example
`selfcal.harness.draw_gains`), so nothing under `src/` changes. Each span
records its name, start and end (`perf_counter_ns`), the span open when
it started (its parent), and the id of the unit of work it belongs to: a
trial, a tree or a solve. Self time is a span's duration minus the time
its direct children cover; it is accumulated per name as spans close.

Spans are kept in typed arrays in memory and written out once, at the
end of a traced run. The pipeline runs in one thread, so a span stack is
enough to find parents.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

#: Spans beyond this many are still timed but no longer stored.
MAX_STORED_SPANS = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("q")
        self.end = array("q")
        self.dropped = 0
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.unit_id = -1
        self.root_ns = 0
        self._stack: list[list[int]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns[name] = 0
        return nid

    def new_unit(self) -> None:
        """Start the next trial, tree or solve; later spans share its id."""
        self.unit_id += 1

    def open(self, name: str) -> list[int]:
        nid = self._id(name)
        stored = len(self.start)
        if stored < MAX_STORED_SPANS:
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.unit.append(self.unit_id)
            self.start.append(0)
            self.end.append(0)
        else:
            stored = -1
            self.dropped += 1
        # [stored index or -1, name id, child ns, start ns]
        frame = [stored, nid, 0, 0]
        self._stack.append(frame)
        frame[3] = perf_counter_ns()
        return frame

    def close(self, frame: list[int]) -> None:
        t = perf_counter_ns()
        idx, nid, child, t0 = frame
        self._stack.pop()
        if idx >= 0:
            self.start[idx] = t0
            self.end[idx] = t
        dur = t - t0
        self.self_ns[self.names[nid]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_ns += dur

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, new_unit: bool = False, on_call=None):
        """`fn` timed as span `name`; `on_call(args, kwargs, result, exc)`
        runs after every call, outside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_unit:
                self.new_unit()
            frame = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.close(frame)
                if on_call is not None:
                    on_call(args, kwargs, result, exc)
        return traced

    def wrap_generator(self, name: str, fn, new_unit: bool = False):
        """Time every step of the generator `fn` returns as span `name`."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if new_unit:
                    self.new_unit()
                frame = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                self.count(name)
                yield item
        return traced

    def install(self, module, attr: str, wrapper) -> None:
        """Replace `module.attr` by `wrapper(original)`, if it exists.

        A later library may drop a function the benchmark wraps today;
        its spans then read 0 instead of failing the run.
        """
        original = getattr(module, attr, None)
        if original is not None:
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper(original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), unit=np.asarray(self.unit),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
            dropped=np.array(self.dropped))

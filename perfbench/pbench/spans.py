"""Outside-in span recorder.

The benchmark never edits the program: :class:`Tracer` swaps the
public entry points of each layer for wrappers that open and close a
span around the original call, and puts the originals back on
:meth:`Tracer.uninstall`.  Spans live in flat in-memory lists (name,
start, end, parent) and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
covered by its children; summed over every span under a root it
equals the root's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """Single-threaded span store with parent links."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._open: List[int] = []
        #: counts recorded at the same boundaries as the spans
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        # an exception unwinding several wrappers closes them in order
        while self._open and self._open.pop() != index:
            pass

    def add(self, name: str, start: int, end: int) -> int:
        """Record an already-timed span under the open span (if any)."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(start)
        self.ends.append(end)
        return index

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def self_times(self) -> List[int]:
        """Per-span duration minus the union of its children's
        intervals (clipped to the parent), in clock units."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[i], self.ends[i]))
        out = []
        for i in range(len(self.names)):
            lo, hi = self.starts[i], self.ends[i]
            covered = 0
            cur_lo = cur_hi = None
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, lo), min(b, hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return out

    def roots(self) -> List[int]:
        return [i for i, p in enumerate(self.parents) if p < 0]

    def layer_totals(self, layer_of: Callable[[str], str]
                     ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(self_ns, calls)`` per layer.  A call is a span with no
        ancestor in the same layer, so a layer entry point that calls
        another one of its own layer counts once."""
        selfs = self.self_times()
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        layers = [layer_of(n) for n in self.names]
        for i, layer in enumerate(layers):
            self_ns[layer] += selfs[i]
            p = self.parents[i]
            while p >= 0 and layers[p] != layer:
                p = self.parents[p]
            if p < 0:
                calls[layer] += 1
        return dict(self_ns), dict(calls)

    def dump(self, path: Path) -> None:
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        payload = {
            "clock": "perf_counter_ns",
            "names": table,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[ids[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends,
                          self.parents)],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _SpanContext:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec, self.name = rec, name

    def __enter__(self) -> int:
        self.index = self.rec.begin(self.name)
        return self.index

    def __exit__(self, *exc) -> None:
        self.rec.end(self.index)


def _wrap(fn: Callable, name: str, rec: SpanRecorder,
          observe: Optional[Callable] = None) -> Callable:
    begin, end = rec.begin, rec.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if observe is not None:
            observe(rec, result)
        return result

    return traced


class Tracer:
    """Installs span wrappers on classes and module functions."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: List[Callable[[], None]] = []

    def method(self, cls: type, attr: str, name: str,
               observe: Optional[Callable] = None) -> None:
        own = attr in cls.__dict__
        raw = cls.__dict__[attr] if own else getattr(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, name, self.rec,
                                      observe))
        else:
            wrapped = _wrap(raw, name, self.rec, observe)
        setattr(cls, attr, wrapped)
        if own:
            self._undo.append(lambda: setattr(cls, attr, raw))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def function(self, fn: Callable, name: str,
                 observe: Optional[Callable] = None,
                 prefix: str = "repro") -> int:
        """Replace ``fn`` in every loaded ``prefix.*`` module that binds
        it, i.e. wherever callers look it up; returns the number of
        bindings patched."""
        wrapped = _wrap(fn, name, self.rec, observe)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or
                                      mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn))
                    hits += 1
        return hits

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

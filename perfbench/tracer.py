"""Per-layer tracing of `srlnc` from outside the package.

The tracer wraps every public function defined in each layer module, plus
the few methods named in `METHODS`, and re-binds each wrapped name in every
layer namespace that holds it.  A module that did `from .linalg import
rank_of_vectors` therefore calls a wrapper that knows the caller's layer,
so counts can be split by caller (`linalg.rank_of_vectors.from_subrate`).
Methods are attributed by the calling frame's module instead, since they
are looked up on the class.

Self time is a span's duration minus the durations of the spans directly
inside it; calls run on one thread, so children never overlap.  Stats are
aggregated as spans close.  The spans less than `SPAN_DEPTH` calls deep
(the CLI entry point, the command, the calls the command makes and the
calls those make) are also kept in memory, for the whole traced run, and
written out at the end.  Deeper spans, such as the rank and membership
tests inside the searches, are only aggregated: kept one by one they run to
hundreds of thousands per traced run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Dict, List, Tuple

LAYERS = ("netgraph", "multicast", "linalg", "subrate", "blockcode", "cli")
METHODS = (("linalg", "Subspace", "contains"), ("linalg", "Subspace", "vectors"),
           ("linalg", "Mat", "__matmul__"))
SPAN_DEPTH = 4


class Stat:
    __slots__ = ("calls", "returns", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.returns = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    """Install with `install()`, read with `snapshot()`, undo with `uninstall()`."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"srlnc.{name}") for name in LAYERS}
        self.stats: Dict[str, Stat] = {}
        self.from_calls: Dict[Tuple[str, str], int] = {}
        self.nested: Dict[Tuple[str, str], int] = {}   # (function, enclosing traced function)
        self.stack: List[list] = []       # [child seconds, span id, name] per open call
        self.spans: List[tuple] = []      # (id, parent id, op id, name, caller, t0, t1)
        self.next_span = 0
        self.op_id = -1
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, caller):
        """`caller` is a layer name, or None to read it from the calling frame."""
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack
        spans = self.spans
        from_calls = self.from_calls
        nested = self.nested
        tracer = self

        def traced(*args, **kwargs):
            who = caller
            if who is None:
                mod = sys._getframe(1).f_globals.get("__name__", "")
                who = mod.rsplit(".", 1)[-1]
            key = (name, who)
            from_calls[key] = from_calls.get(key, 0) + 1
            sid = tracer.next_span
            tracer.next_span = sid + 1
            keep = len(stack) < SPAN_DEPTH
            if stack:
                parent = stack[-1][1]
                inner = (name, stack[-1][2])
                nested[inner] = nested.get(inner, 0) + 1
            else:
                parent = -1
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((sid, parent, tracer.op_id, name, who, t0, t1))
            stat.returns += 1
            if isinstance(res, list):
                stat.items += len(res)
            return res

        return traced

    def install(self) -> None:
        originals: Dict[int, Tuple[object, str]] = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, hit[1], layer))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", None))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # ------------------------------------------------------------ reading

    def snapshot(self) -> dict:
        """Raw totals: per function calls/returns/total_ms/self_ms/items,
        per (function, caller layer) call counts, and per (function,
        enclosing traced function) call counts."""
        funcs = {}
        for name, st in sorted(self.stats.items()):
            if st.calls:
                funcs[name] = {"calls": st.calls, "returns": st.returns,
                               "total_ms": st.total * 1e3, "self_ms": st.self_time * 1e3,
                               "items": st.items}
        callers: Dict[str, Dict[str, int]] = {}
        for (name, who), n in sorted(self.from_calls.items()):
            callers.setdefault(name, {})[who] = n
        return {"functions": funcs, "callers": callers, "nested": dict(self.nested)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "caller", "t0", "t1"],
                       "max_depth": SPAN_DEPTH - 1,
                       "deeper_not_kept": self.next_span - len(self.spans),
                       "spans": self.spans}, fh)

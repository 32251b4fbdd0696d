"""Spans at the boundaries between wcikit's modules, recorded from outside.

Nothing under src/ is edited.  `install()` rewrites the globals of each wcikit
module so that every function it reaches in another wcikit module goes
through a timing wrapper:

- `from .x import f` aliases in the importer's globals are replaced by wrapped
  functions;
- `from . import x` module references are replaced by a copy of the module
  whose functions are wrapped, so that `x.f(...)` is timed too.

A function's layer is the module that defines it.  Calls inside one module
stay direct and are part of that layer's self time.  Methods of the package's
classes (`WciFamily.of`, `Pair.encode`, ...) are not wrapped: their own time
counts to the calling layer, while the cross-module calls they make are timed.

A generator function is timed on each resume, not at creation, so that the
consumer's work between two items is not charged to the generator's layer.

Spans (name, start, end, parent) are kept in flat arrays and written out by
`write()`; `summary()` derives per-layer calls and self time from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import time
import types
from array import array

LAYERS = ("arith", "pairs", "wci", "hilbert", "verify", "cli")
PACKAGE = "wcikit"


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer.function"
        self.calls: list[int] = []  # span name id -> calls (generators: creations)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn, layer: str):
        """A timed stand-in for fn, a function of the given layer."""
        nid = self._name_id(f"{layer}.{fn.__name__}")
        calls, stack = self.calls, self._stack
        span_name, span_parent = self.span_name.append, self.span_parent.append
        span_start, span_end = self.span_start.append, self.span_end
        clock = time.perf_counter

        def timed(step, *args, **kwargs):
            sid = len(span_end)
            span_name(nid)
            span_parent(stack[-1])
            span_end.append(0.0)
            stack.append(sid)
            span_start(clock())
            try:
                return step(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()

        if inspect.isgeneratorfunction(fn):

            class TimedIterator:
                __slots__ = ("_next",)

                def __init__(self, gen):
                    self._next = gen.__next__

                def __iter__(self):
                    return self

                def __next__(self):
                    return timed(self._next)

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return TimedIterator(fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return timed(fn, *args, **kwargs)

        return functools.update_wrapper(wrapper, fn, updated=())

    def summary(self) -> dict:
        """Per layer: calls into it and self time (span time minus child spans)."""
        n = len(self.span_end)
        dur = array("d", map(operator.sub, self.span_end, self.span_start))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        per_name_self = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            per_name_self[nid] += dur[i] - child[i]
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        functions = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layers[layer]["calls"] += self.calls[nid]
            layers[layer]["self_s"] += per_name_self[nid]
            if self.calls[nid]:
                functions[name] = {"calls": self.calls[nid], "self_s": per_name_self[nid]}
        return {"spans": n, "layers": layers, "functions": functions}

    def write(self, path) -> None:
        """Spans as a JSON header line (name table, count) followed by the
        four arrays in native binary form: name id, parent, start, end."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_end)}).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _layer_of(obj) -> str | None:
    """The wcikit layer that defines a function (plain, generator or lru_cache)."""
    if isinstance(obj, type) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def install(tracer: Tracer, modules: dict) -> dict:
    """Route every cross-module call among `modules` (layer -> module) through
    `tracer`; returns layer -> traced view of each module, for the root calls
    the benchmark itself makes."""
    wrapped: dict[int, object] = {}

    def traced(fn, layer):
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(fn, layer)
        return wrapped[key]

    def view(module, importer: str | None):
        copy = types.ModuleType(module.__name__)
        copy.__dict__.update(module.__dict__)
        for name, obj in module.__dict__.items():
            layer = _layer_of(obj)
            if layer is not None and layer != importer:
                setattr(copy, name, traced(obj, layer))
        return copy

    for importer, module in modules.items():
        for name, obj in list(module.__dict__.items()):
            layer = _layer_of(obj)
            if layer is not None and layer != importer:
                module.__dict__[name] = traced(obj, layer)
            elif isinstance(obj, types.ModuleType) and obj is not module and obj in modules.values():
                module.__dict__[name] = view(obj, importer)
    return {layer: view(module, None) for layer, module in modules.items()}

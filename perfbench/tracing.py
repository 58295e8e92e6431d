"""Spans around the library's public functions, recorded from outside it.

The tracer replaces each public function of rootfield's field, periodic,
frobpow, roots and cli modules by a wrapper, at every module that binds
the name (its import sites and its own module, for calls from inside
it), and the arithmetic methods of Field on the class.  Text helpers
(parse_elem, format_elem, ...) stay unwrapped, so their time counts to
the caller: argument parsing and formatting around the library calls is
the cli layer's own time.

Spans live in flat arrays (name, start, end, parent index, request id,
child time), so recording adds no object the garbage collector has to
walk.  Self time is the span's duration minus the time its children
cover; calls nest in one thread, so children never overlap and the self
times of a tree sum to its root's duration.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("field", "periodic", "frobpow", "roots", "cli")
FIELD_METHODS = ("mul", "sqr", "pow", "frobenius", "inv")
UNWRAPPED = {"format_elem", "parse_elem", "format_field", "parse_field"}


class Tracer:
    """Spans of one process; request is the id stamped on new spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests: list = []
        self.child = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.request = None

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span idx and any span inside it left open by an exception
        raised between a wrapper's bookkeeping steps."""
        end = perf_counter()
        stack = self._stack
        while stack:
            top = stack.pop()
            self.ends[top] = end
            parent = self.parents[top]
            if parent >= 0:
                self.child[parent] += end - self.starts[top]
            if top == idx:
                return

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, child = self.parents, self.requests, self.child
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            requests.append(tracer.request)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                if parent >= 0:
                    child[parent] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules at every module
        that binds it, and Field's arithmetic methods."""
        import rootfield
        from rootfield import field
        mods = {layer: importlib.import_module(f"rootfield.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in UNWRAPPED
                        or not inspect.isfunction(obj)):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in mods:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{home}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        for attr, obj in list(vars(rootfield).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                self._patch(rootfield, attr, wrappers[obj])
        for meth in FIELD_METHODS:
            fn = vars(field.Field)[meth]
            self._patch(field.Field, meth, self.wrap(f"field.{meth}", fn))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """One line per span, times in ns from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{round((self.starts[i] - t0) * 1e9)}\t"
                         f"{round((self.ends[i] - t0) * 1e9)}\t"
                         f"{self.parents[i]}\t{self.requests[i]}\n")

    def summarize(self, select=None) -> dict[str, list]:
        """Per span name: [calls, total duration, total self time], over the
        spans whose request id passes select."""
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            if select is not None and not select(self.requests[i]):
                continue
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - self.child[i]
        return out

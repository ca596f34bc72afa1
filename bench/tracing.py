"""Span tracing of clonebound's public functions, installed from outside.

The package itself carries no instrumentation. A traced run replaces every
public function of the layer modules, under every name it is bound to, and
every public class constructor, with a wrapper that records one span per
call. Spans live in flat in-memory arrays and are written out once, after
the run. ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("linalg", "states", "measure", "cloning", "search", "serialize", "cli")

_MARK = "_bench_traced"


def public_callables() -> dict[str, object]:
    """Map "layer.name" to each public function and class of the layers.

    Classes stand for their constructor. Exceptions are types only and are
    not traced.
    """
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"clonebound.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{layer}.{attr}"] = obj
            elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                  and "__init__" in vars(obj)):
                found[f"{layer}.{attr}"] = obj
    return found


def _bindings():
    """Every place a clonebound callable is reachable by name.

    Yields (container, key, object): module attributes, values of
    module-level dicts (such as the CLI's handler table) and class
    constructors.
    """
    for layer in LAYERS:
        importlib.import_module(f"clonebound.{layer}")
    for name, mod in list(sys.modules.items()):
        if name != "clonebound" and not name.startswith("clonebound."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                yield mod, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == name and "__init__" in vars(obj):
                yield obj, "__init__", vars(obj)["__init__"]
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in obj.items():
                    if inspect.isfunction(val):
                        yield obj, key, val


def snapshot() -> dict:
    """Identity of every bound clonebound callable, for patch detection."""
    return {(id(container), key): obj for container, key, obj in _bindings()}


def assert_unpatched(before: dict) -> None:
    """Raise if any binding differs from ``before`` or carries a wrapper."""
    now = snapshot()
    changed = [k for k in before.keys() | now.keys()
               if before.get(k) is not now.get(k)]
    wrapped = [k for k, obj in now.items() if getattr(obj, _MARK, False)]
    if changed or wrapped:
        raise RuntimeError(f"clonebound is patched: {len(changed)} bindings "
                           f"changed, {len(wrapped)} wrappers installed")


class Tracer:
    """Flat span store: one row per call, parent by row index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        nid = self._name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        """Wrap every public callable of the layers under all its bindings."""
        wrappers = {}
        for name, obj in public_callables().items():
            fn = vars(obj)["__init__"] if inspect.isclass(obj) else obj
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for container, key, obj in list(_bindings()):
            hit = wrappers.get(id(obj))
            if hit is None or hit[0] is not obj:
                continue
            self._patches.append((container, key, obj))
            _set(container, key, hit[1])

    def restore(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._patches:
            container, key, obj = self._patches.pop()
            _set(container, key, obj)

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write the spans as one .npz of parallel arrays plus the name table."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), op=np.array(self.op),
                 start=np.array(self.start), end=np.array(self.end))


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def self_times(names, name, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential in one thread, so children never overlap.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list] = {}
    for i in range(n):
        entry = out.setdefault(names[name[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += (end[i] - start[i]) - child[i]
    return {k: (c, s) for k, (c, s) in out.items()}

"""Per-layer spans recorded from outside the engine.

`install` replaces every public module-level function of the engine modules
in LAYERS, plus the methods named in METHODS, by a wrapper that records one
span per call.  A function imported by name into another module
(`from .cocycles import twisted_center` in `decision` and `cli`) is a second
binding of the same object, so every binding in every loaded `cocycle_lab`
module is replaced, not only the one in the function's home module.

Self time is computed from span nesting: a span's duration minus the
durations of the wrapped spans directly inside it.  Inclusive time counts
only the outermost span of a name, so a function that re-enters itself is
not counted twice.  The layer of a span is its module name; `timefreq` is
not on any verdict path and is not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "cocycle_lab"
LAYERS = ("exact", "zlinalg", "groups", "poly", "cocycles", "decision",
          "problem")
METHODS = {
    "exact": {"RationalityContext": ("classify", "split")},
    "poly": {"Poly": ("substitute", "compose_linear")},
}


class Tracer:
    """Accumulates calls, self time and inclusive time per span name."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self._children = []  # per open span: seconds covered by child spans
        self._open = Counter()

    def wrap(self, name, fn):
        leaves = name == "cocycles.twisted_center"  # returns the case leaves

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._children.append(0.0)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._children.pop()
                self._open[name] -= 1
                if self._children:
                    self._children[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if not self._open[name]:
                    self.incl_s[name] += dt
            if leaves:
                self.counts["cocycles.case_leaves"] += len(out)
            return out

        return span

    def snapshot(self):
        """Counts and times of everything recorded since the last reset."""
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "self_s": dict(self.self_s), "incl_s": dict(self.incl_s)}


def _targets():
    """(span name, owner, attribute, original) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, val))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out.append((f"{layer}.{meth}", cls, meth, cls.__dict__[meth]))
    for name, _, _, fn in out:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; a span would not cover it")
    return out


def install(tracer):
    """Wrap every binding of the engine's public functions; returns an undo.

    The engine modules must already be imported."""
    wrappers = {}
    undo = []
    for name, owner, attr, fn in _targets():
        wrappers[fn] = tracer.wrap(name, fn)
        if inspect.isclass(owner):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall


def originals():
    """Code object -> span name of every wrapped function (for cross-checks)."""
    return {fn.__code__: name for name, _, _, fn in _targets()}

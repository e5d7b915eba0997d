"""Spans and counters wrapped around blowlab from outside the package.

A span records (name, start, end, parent) around one call into a module's
public function. ``from x import f`` binds a copy of ``f`` in the importing
module, so a wrapper is installed under every name in every blowlab module
that is bound to the original object (``run`` in ``solver``, ``acceptance``
and ``cli``, for example). Counters are attributed to the innermost open
span, so a ratio such as FFTs per solver step is measured inside the span
that did the work.

Nothing here edits blowlab's files; ``Tracer.install`` patches module and
class attributes in memory and ``Tracer.uninstall`` restores them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

# numpy.fft transforms; points are the complex values each call computes
FFT_ENTRY_POINTS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
                    "hfft", "ihfft")
# modules whose own `quad` binding is counted separately
QUAD_MODULES = ("kernels", "nonlinearity", "stationary", "asymptotics")
# public methods that carry work the per-layer table names
SPAN_METHODS = (("kernels", "StableProfile", "__call__"),
                ("nonlinearity", "OsgoodTransform", "h_inverse"))
COUNT_METHODS = (("nonlinearity", "Nonlinearity", "__call__",
                  "nonlinearity.source_evals"),)
WARNING_CATEGORIES = ("RuntimeWarning", "IntegrationWarning")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = Counter()
        self.error = None


class Tracer:
    """Holds spans in memory; ``summary`` reduces them to per-name totals."""

    def __init__(self, package):
        self.modules = _package_modules(package)
        self.spans = []
        self.stack = []
        self.root_counts = Counter()
        self._undo = []

    # -- recording ------------------------------------------------------------

    def count(self, key, n=1):
        if self.stack:
            self.spans[self.stack[-1]].counts[key] += n
        else:
            self.root_counts[key] += n

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def span_wrapper(self, name, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            span = tracer.spans[idx]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if on_call is not None:
                span.counts.update(on_call(args, kwargs))
            if on_return is not None:
                span.counts.update(on_return(result))
            return result

        return wrapper

    def count_wrapper(self, key, fn, points_key=None):
        """Counts calls under `key` and, with `points_key`, the size of each
        result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(key)
            if points_key is not None:
                tracer.count(points_key, np.size(result))
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, hooks=None):
        """Wrap every public function of every blowlab module, the methods
        in SPAN_METHODS and COUNT_METHODS, each module's `quad`, and the
        numpy.fft transforms."""
        hooks = hooks or {}
        replace = {}
        for mod in self.modules:
            short = mod.__name__.rpartition(".")[2]
            for name in _public_names(mod):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = f"{short}.{name}"
                    on_call, on_return = hooks.get(full, (None, None))
                    replace[id(obj)] = (obj, self.span_wrapper(
                        full, obj, on_call, on_return))
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        by_short = {m.__name__.rpartition(".")[2]: m for m in self.modules}
        for modname, clsname, meth in SPAN_METHODS:
            cls = getattr(by_short[modname], clsname)
            full = f"{modname}.{clsname}.{meth}"
            on_call, on_return = hooks.get(full, (None, None))
            self._patch(cls, meth, self.span_wrapper(
                full, getattr(cls, meth), on_call, on_return))
        for modname, clsname, meth, key in COUNT_METHODS:
            cls = getattr(by_short[modname], clsname)
            self._patch(cls, meth, self.count_wrapper(key, getattr(cls, meth)))
        for modname in QUAD_MODULES:
            mod = by_short[modname]
            self._patch(mod, "quad", self.count_wrapper(
                f"{modname}.quad_calls", mod.quad))
        for name in FFT_ENTRY_POINTS:
            self._patch(np.fft, name, self.count_wrapper(
                "fft.calls", getattr(np.fft, name), "fft.points"))

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reduction ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self time, outermost inclusive time, and
        outermost inclusive counts (a recursive call is not counted twice).
        Also the totals of every counter over the whole trace."""
        n = len(self.spans)
        child_time = [0.0] * n
        incl = [Counter(s.counts) for s in self.spans]
        for i in range(n - 1, -1, -1):
            s = self.spans[i]
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
                incl[s.parent].update(incl[i])
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                          "incl_s": 0.0, "counts": Counter(),
                                          "errors": Counter()})
            row["calls"] += 1
            row["self_s"] += (s.end - s.start) - child_time[i]
            if s.error:
                row["errors"][s.error] += 1
            if not self._has_ancestor_named(i, s.name):
                row["incl_s"] += s.end - s.start
                row["counts"].update(incl[i])
        totals = Counter(self.root_counts)
        for s in self.spans:
            totals.update(s.counts)
        return out, totals

    def _has_ancestor_named(self, i, name):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


class WarningCounter:
    """Counts warnings that leave blowlab uncaught, by category, for the
    whole process; every occurrence is counted and none is printed."""

    def __init__(self):
        self.counts = Counter()
        self._ctx = None

    def __enter__(self):
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    def _record(self, message, category, *args, **kwargs):
        self.counts[category.__name__] += 1

    def by_category(self):
        out = {f"warnings.{c}": self.counts.get(c, 0) for c in WARNING_CATEGORIES}
        out["warnings.other"] = sum(v for c, v in self.counts.items()
                                    if c not in WARNING_CATEGORIES)
        return out


def _package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _public_names(mod):
    if Path(mod.__file__).name == "__init__.py":
        return []
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)

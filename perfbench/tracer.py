"""Spans recorded around calls into the package's layers, from outside it.

A :class:`Tracer` wraps functions so that each call records a span: a name,
a start, an end, the index of the span that was open when it began (its
parent) and an optional note computed from the call's arguments and result.
Spans stay in memory until the run ends.  :func:`install` puts a wrapper on
every binding a caller resolves: the defining module, every package module
that imported the function by name, or the class that owns a method.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, note]
        self._open = []

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)


def install(tracer: Tracer, targets, package: str) -> list:
    """Wrap each (module, qualified name, span name, note) target.

    Returns the (owner, attribute, original) patches for :func:`uninstall`.
    """
    patches = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for modname, qualname, span_name, note in targets:
        owner = importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr] if path else getattr(owner, attr)
        wrapper = tracer.wrap(original, span_name, note)
        if path:                 # a method: the class is the only binding
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        owners = [owner] + [m for m in modules if m is not owner]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(children.get(i, []), s[1], s[2])
            for i, s in enumerate(spans)]


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def aggregate(spans: list) -> dict:
    """name -> {"calls", "total_s", "self_s", "notes"} over all spans."""
    selfs = self_times(spans)
    out = {}
    for span, own in zip(spans, selfs):
        agg = out.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "notes": []})
        agg["calls"] += 1
        agg["total_s"] += span[2] - span[1]
        agg["self_s"] += own
        if span[4] is not None:
            agg["notes"].append((span[2] - span[1], span[4]))
    return out

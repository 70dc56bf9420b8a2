"""In-memory spans and counters for the traced benchmark run.

A span records (name, parent span id, start ns, end ns); the parent comes
from a contextvar, so nesting follows the call stack.  Span ids are
1-based positions in ``Tracer.spans``; id 0 is the root.  Counters sit at
the same boundaries.  Nothing is written while the run is going: the child
dumps ``spans`` and ``counts`` when it ends, and the driver reduces them to
self times with ``self_times``.

``install`` wraps program functions from outside the package: each target
is replaced at every ``satotate`` module binding that holds it, so callers
that imported the function by name see the wrapper too.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

_parent = contextvars.ContextVar("perfbench_parent", default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent_id, start_ns, end_ns]
        self.counts = {}

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns (result, span id)."""
        record = [name, _parent.get(), 0, 0]
        self.spans.append(record)
        sid = len(self.spans)
        token = _parent.set(sid)
        record[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), sid
        finally:
            record[3] = time.perf_counter_ns()
            _parent.reset(token)

    def current_name(self):
        sid = _parent.get()
        return self.spans[sid - 1][0] if sid else None


@dataclass(frozen=True)
class Hook:
    """One wrapped program function.

    ``target`` is ``module:qualname``.  ``span`` names the span, or is None
    for a hook that only counts.  Each entry of ``counts`` is called after
    the function returns as ``count(tracer, span_id, args, kwargs, result)``.
    With ``skip_under`` set, calls made directly inside a span of that name
    open no span of their own, so their time stays with that span.
    """

    target: str
    span: str | None
    counts: tuple[Callable, ...] = ()
    skip_under: str | None = None


def _wrap(tracer, hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.span is None or (hook.skip_under and tracer.current_name() == hook.skip_under):
            result, sid = fn(*args, **kwargs), None
        else:
            result, sid = tracer.call(hook.span, fn, *args, **kwargs)
        for count in hook.counts:
            count(tracer, sid, args, kwargs, result)
        return result

    return wrapper


def install(tracer, hooks):
    """Wrap every hook target; returns the targets that do not exist."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "satotate" or name.startswith("satotate."))
    ]
    missing = []
    for hook in hooks:
        modname, _, qualname = hook.target.partition(":")
        *path, attr = qualname.split(".")
        owner = sys.modules.get(modname)
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(hook.target)
            continue
        wrapped = _wrap(tracer, hook, original)
        if path:  # a method: callers find it on the class
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus the
    durations of its direct children."""
    covered = [0] * (len(spans) + 1)
    for _, parent, start, end in spans:
        covered[parent] += end - start
    totals = {}
    for sid, (name, _, start, end) in enumerate(spans, start=1):
        totals[name] = totals.get(name, 0) + (end - start - covered[sid])
    return {name: ns / 1e9 for name, ns in totals.items()}

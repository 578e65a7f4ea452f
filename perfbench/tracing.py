"""Spans and counters recorded around calls into bigbayes, from outside it.

Nothing in the library is edited. ``Tracer.wrap`` returns a wrapper for a
callable, and ``patched`` installs wrappers on module globals or class
attributes for the length of a block and then restores the originals.

A wrapper always counts its calls and the likelihood terms they evaluate.
It records a span (name, start, end, parent, terms) only while
``Tracer.enabled`` is set, and does nothing at all while ``Tracer.paused``
is set, which is how set-up work inside a driver (``init_firefly``) is kept
out of the per-step figures.
"""

import contextlib
from collections import defaultdict
from time import perf_counter_ns

__all__ = ["Tracer", "patched", "self_times", "summarize"]

NAME, START, END, PARENT, TERMS = range(5)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.paused = False
        self.spans = []
        self.calls = defaultdict(int)
        self.terms = defaultdict(int)
        self.excluded_ns = 0
        self._stack = []

    def reset(self):
        self.spans = []
        self._stack = []
        self.calls.clear()
        self.terms.clear()
        self.excluded_ns = 0

    def wrap(self, name, fn, terms=None):
        """Wrap ``fn``; ``terms(args)`` gives the likelihood terms a call reads."""
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            n = terms(args) if terms is not None else 0
            tracer.calls[name] += 1
            tracer.terms[name] += n
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1, n]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def excluded(self, fn):
        """Wrap ``fn`` so its wall time adds to ``excluded_ns`` and nothing
        inside it is counted or traced."""
        tracer = self

        def wrapped(*args, **kwargs):
            was = tracer.paused
            tracer.paused = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.excluded_ns += perf_counter_ns() - t0
                tracer.paused = was

        wrapped.__wrapped__ = fn
        return wrapped


@contextlib.contextmanager
def patched(replacements):
    """Install ``(owner, attr, wrapper_factory)`` replacements, then restore.

    ``wrapper_factory(original)`` returns the callable to install. Class
    attributes are read from the class ``__dict__`` so a plain function
    stays a plain function and binds as a method.
    """
    saved = []
    try:
        for owner, attr, factory in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children[i], s[START], s[END])
            for i, s in enumerate(spans)]


def summarize(spans):
    """Per-name totals of a span list, in microseconds and terms.

    ``incl_us`` sums only the outermost span of each name on a path, so a
    recursive call is not counted twice. ``within[(name, ancestor)]`` sums
    the terms and calls of ``name`` spans that run inside an ``ancestor``
    span.
    """
    selfs = self_times(spans)
    ancestors = []
    stats = defaultdict(lambda: {"calls": 0, "incl_us": 0.0, "self_us": 0.0, "terms": 0})
    within = defaultdict(lambda: {"calls": 0, "terms": 0})
    for i, s in enumerate(spans):
        parent = s[PARENT]
        anc = (ancestors[parent] | {spans[parent][NAME]}) if parent >= 0 else frozenset()
        ancestors.append(anc)
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_us"] += selfs[i] / 1e3
        st["terms"] += s[TERMS]
        if s[NAME] not in anc:
            st["incl_us"] += (s[END] - s[START]) / 1e3
        for a in anc:
            w = within[(s[NAME], a)]
            w["calls"] += 1
            w["terms"] += s[TERMS]
    return {"stats": dict(stats), "within": dict(within)}

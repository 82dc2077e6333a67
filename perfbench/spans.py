"""Spans and counters recorded from outside the program.

A hook rebinds a module or class attribute that a layer is called through
(for example ``meganet.model.mlp_forward``) to a wrapper that records a
span (name, start, end, parent) and adds to named counters. Nothing in
the program changes, and ``uninstall`` restores every original. A hook
whose target no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of (args, kwargs).

        ``after(tracer, args, kwargs, result)`` runs outside the span and
        returns the result handed back to the caller.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            return after(tracer, args, kwargs, result) if after else result

        return wrapper

    def install(self, target: str, name, after=None) -> bool:
        """Rebind ``"module:attr"`` or ``"module:Class.attr"``; False if absent."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if target not in self.absent:
                self.absent.append(target)
            return False
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, hooks):
        """Install ``(target, name, after)`` hooks for the duration of a block."""
        try:
            for target, name, after in hooks:
                self.install(target, name, after)
            yield self
        finally:
            self.uninstall()


def durations(spans) -> tuple[list[float], list[float]]:
    """Total and self duration of every span.

    A span's self time is its duration minus the durations of the spans
    whose parent it is. Spans nest properly in one thread, so the children
    of a span never overlap each other.
    """
    total = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += total[i]
    return total, [t - c for t, c in zip(total, child)]


def by_name(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Summed total and self seconds per span name."""
    total, self_time = durations(spans)
    tot: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, *_), t, s in zip(spans, total, self_time):
        tot[name] += t
        own[name] += s
    return dict(tot), dict(own)

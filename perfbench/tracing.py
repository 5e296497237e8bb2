"""Span recording around the program's public layer functions.

The benchmark times each layer from outside: :class:`LayerTracer` swaps a
function attribute (a class method, a module function or an instance
hook) for a wrapper that records one span per call — name, start, end,
parent span and the op it belongs to — and swaps the original back on
:meth:`LayerTracer.uninstall`, so the same process can alternate traced
and untraced ops. Spans stay in memory; :meth:`LayerTracer.dump` writes
them out once the run is over.

A span's self time is its duration minus the time its child spans
cover. A function's busy time counts only its outermost spans, so a
function that calls itself is not counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class LayerTracer:
    """Wraps layer functions and aggregates their spans."""

    def __init__(self):
        #: (owner, attribute, span name, layer, materialize, measure)
        self._targets = []
        self._originals = {}
        self.installed = False
        #: finished spans: (id, parent id, name, op, start, end, self
        #: seconds, measured value, raised)
        self.spans = []
        self._stack = []
        self._next_id = 1
        self.op = None

    # -- registration ---------------------------------------------------

    def wrap(self, owner, attr, name, layer, materialize=False, measure=None):
        """Record a span named ``name`` (in ``layer``) per ``owner.attr`` call.

        ``materialize`` is for generator functions: the wrapper drains the
        generator inside the span and hands the caller an iterator over the
        drained items, so the span covers the whole walk. ``measure`` maps
        a call's result to a number summed per span name (bytes read,
        crests seen); a call that raises counts as an error instead.
        """
        target = (owner, attr, name, layer, materialize, measure)
        self._targets.append(target)
        if self.installed:
            self._install_one(target)

    def _install_one(self, target):
        owner, attr, name, _layer, materialize, measure = target
        original = getattr(owner, attr)
        # restore the stored attribute itself (a classmethod stays one)
        stored = getattr(owner, "__dict__", {}).get(attr, original)
        self._originals[(id(owner), attr)] = (owner, stored)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter()
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            except BaseException:
                leave(name, error=True)
                raise
            leave(name, measure(result) if measure is not None else 0)
            return iter(result) if materialize else result

        setattr(owner, attr, wrapper)

    def install(self):
        """Swap every registered function for its wrapper."""
        if self.installed:
            return
        for target in self._targets:
            self._install_one(target)
        self.installed = True

    def uninstall(self):
        """Put every original function back."""
        for (_, attr), (owner, original) in self._originals.items():
            setattr(owner, attr, original)
        self._originals.clear()
        self.installed = False

    # -- recording ------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        # [id, start, time covered by children]
        self._stack.append([span_id, perf_counter(), 0.0])

    def _exit(self, name, measured=0, error=False):
        end = perf_counter()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        self.spans.append((span_id, parent, name, self.op, start, end,
                           duration - child, measured, error))

    # -- aggregation ----------------------------------------------------

    def layers(self):
        """Map of span name -> layer for every registered function."""
        return {target[2]: target[3] for target in self._targets}

    def summary(self, ops):
        """Per-function calls, busy seconds, measures and errors, and
        per-layer self seconds. Only spans whose op is in ``ops`` count.
        """
        names = {span[0]: span[2] for span in self.spans}
        layer_of = self.layers()
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        measured = defaultdict(float)
        errors = defaultdict(int)
        for _, parent, name, op, start, end, own, value, error in self.spans:
            if op not in ops:
                continue
            calls[name] += 1
            if names.get(parent) != name:
                busy[name] += end - start
            self_s[layer_of[name]] += own
            measured[name] += value
            errors[name] += error
        return calls, busy, self_s, measured, errors

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span_id, parent, name, op, start, end, *_ in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "op": op, "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

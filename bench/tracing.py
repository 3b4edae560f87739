"""Spans and counters around structcode's public functions.

The traced run replaces each function below by a wrapper, in every loaded
``structcode`` module that holds it (``cli`` imports ``marker_decode`` and
``check_interpretation`` by name, ``backforth`` looks ``fingerprint`` and
``bf_equiv`` up as module globals) and on the classes that own the methods.
Spans stay in memory; ``write`` saves them as JSON lines when the run ends.
Functions called thousands of times per operation get a counter instead of
a span, so the trace does not swamp the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, owning class or None, attribute, record len(result))
SPANS = {
    "core.eval": ("structcode.core", "Evaluator", "eval", False),
    "core.iso_check": ("structcode.core", None, "iso_check", False),
    "backforth.bf_equiv": ("structcode.backforth", None, "bf_equiv", False),
    "backforth.distinguishing_move": ("structcode.backforth", None,
                                      "distinguishing_move", False),
    "backforth.phi_tuple": ("structcode.backforth", None, "phi_tuple", False),
    "backforth.phi_pair": ("structcode.backforth", None, "phi_pair", False),
    "marker.decode": ("structcode.marker", None, "marker_decode", False),
    "marker.encode": ("structcode.marker", None, "marker_encode", False),
    "marker.feed": ("structcode.marker", "MarkerStreamDecoder", "feed", True),
    "interp.check": ("structcode.interp", None, "check_interpretation", False),
    "formats.parse": ("structcode.formats", None, "parse_struct_text", False),
    "cli.main": ("structcode.cli", None, "main", False),
}

# counter name -> (module, owning class or None, attribute)
COUNTERS = {
    "core.evaluators_built": ("structcode.core", "Evaluator", "__init__"),
    "core.matches_calls": ("structcode.core", "Structure", "matches"),
    "backforth.fingerprint_calls": ("structcode.backforth", None, "fingerprint"),
}


class Tracer:
    """Installs the wrappers and keeps what they record.

    A span is ``[name, parent span index or -1, operation id, start ns,
    end ns, len(result) or 0]``.  ``op`` is set by the caller before each
    operation, so the spans of one operation share it.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def install(self):
        """Wrap every target whose module is loaded."""
        for name, (mod, cls, attr, sized) in SPANS.items():
            self._replace(mod, cls, attr,
                          lambda fn, name=name, sized=sized:
                          self._span(name, fn, sized))
        for name, (mod, cls, attr) in COUNTERS.items():
            self._replace(mod, cls, attr,
                          lambda fn, name=name: self._counter(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, mod, cls, attr, make):
        module = sys.modules.get(mod)
        if module is None:
            return
        if cls is not None:
            owner = getattr(module, cls)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "structcode" or
                                      name.startswith("structcode.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def _span(self, name, fn, sized):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if sized:
                    rec[5] = len(out)
                return out
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, start, end, size in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "op": op,
                                     "start_ns": start, "end_ns": end,
                                     "out": size}) + "\n")


def _within(spans, i, name):
    """Is span i nested, at any depth, inside a span called ``name``?"""
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def outer_ms(spans, names):
    """Wall time inside the outermost spans with one of these names."""
    total = 0
    for i, (name, *_rest) in enumerate(spans):
        if name in names and not any(_within(spans, i, n) for n in names):
            total += spans[i][4] - spans[i][3]
    return total / 1e6


def self_ms(spans, name):
    """Time inside spans called ``name`` minus the time their children cover."""
    total = 0
    for rec in spans:
        if rec[0] == name:
            total += rec[4] - rec[3]
    for rec in spans:
        if rec[1] >= 0 and spans[rec[1]][0] == name:
            total -= rec[4] - rec[3]
    return total / 1e6


def op_metrics(spans, counts, ops):
    """Per-operation layer metrics of a traced timed phase."""
    def n_spans(name, inside=None):
        return sum(1 for i, rec in enumerate(spans) if rec[0] == name and
                   (inside is None or _within(spans, i, inside)))

    feed_evals = n_spans("core.eval", inside="marker.feed")
    emitted = sum(rec[5] for rec in spans if rec[0] == "marker.feed")
    per_op = {
        "core.eval_calls": n_spans("core.eval"),
        "core.eval_ms": outer_ms(spans, {"core.eval"}),
        "core.evaluators_built": counts["core.evaluators_built"],
        "core.matches_calls": counts["core.matches_calls"],
        "core.iso_check_ms": outer_ms(spans, {"core.iso_check"}),
        "backforth.bf_equiv_calls": n_spans("backforth.bf_equiv"),
        "backforth.bf_equiv_ms": outer_ms(spans, {"backforth.bf_equiv"}),
        "backforth.fingerprint_calls": counts["backforth.fingerprint_calls"],
        "backforth.distinguishing_move_ms":
            outer_ms(spans, {"backforth.distinguishing_move"}),
        "marker.decode_ms": outer_ms(spans, {"marker.decode"}),
        "marker.feed_ms": outer_ms(spans, {"marker.feed"}),
        "marker.feed_eval_calls": feed_evals,
        "interp.check_ms": outer_ms(spans, {"interp.check"}),
        "interp.check_eval_calls": n_spans("core.eval", inside="interp.check"),
        "formats.parse_ms": outer_ms(spans, {"formats.parse"}),
        "cli.self_ms": self_ms(spans, "cli.main"),
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["marker.feed_useful_ratio"] = emitted / feed_evals if feed_evals else 0.0
    return out


def setup_metrics(spans):
    """Layer metrics of one set-up."""
    return {
        "backforth.phi_build_ms":
            outer_ms(spans, {"backforth.phi_tuple", "backforth.phi_pair"}),
        "marker.encode_ms": outer_ms(spans, {"marker.encode"}),
    }

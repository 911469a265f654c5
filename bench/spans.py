"""Tracing from outside the program: wrap public functions, record spans.

A wrapper is installed by substituting a module attribute. Modules import
each other's functions by name (`cacheshare.cli.verify_all` is the same
object as `cacheshare.sim.verify_all`), so every `cacheshare` module
attribute bound to the original is replaced, and all are put back on exit.
Methods are wrapped on their class.

Two passes use this module. The span pass records (name, start, end, parent,
command) for each call of a layer function. The counting pass wraps the hot
bit-level and curve-evaluation methods with bare counters; it runs
separately so that their wrapper cost does not land in the span pass's self
times.
"""

from __future__ import annotations

import csv
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). Several functions may share a span name; a
# span nested directly in one of the same name is not counted again.
SPANNED = (
    ("cacheshare.model", "load_config", "model.load_config"),
    ("cacheshare.tradeoff", "build_by_kind", "tradeoff.build"),
    ("cacheshare.tradeoff", "build_scheme_tradeoff", "tradeoff.build"),
    ("cacheshare.tradeoff", "build_exact_two_by_two", "tradeoff.build"),
    ("cacheshare.tradeoff", "lower_convex_envelope", "tradeoff.envelope"),
    ("cacheshare.allocation", "greedy_allocate", "allocation.greedy"),
    ("cacheshare.allocation", "corner_structure_violations", "allocation.structure"),
    ("cacheshare.allocation", "brute_force_allocate", "allocation.oracle"),
    ("cacheshare.allocation", "lambda_sweep", "allocation.sweep"),
    ("cacheshare.converse", "conjecture_gap", "converse.gap"),
    ("cacheshare.converse", "converse_bound", "converse.bound"),
    ("cacheshare.converse", "concatenate", "converse.concatenate"),
    ("cacheshare.sim", "place", "sim.place"),
    ("cacheshare.sim", "deliver", "sim.deliver"),
    ("cacheshare.sim", "decode", "sim.decode"),
    ("cacheshare.sim", "verify_all", "sim.verify_all"),
    ("cacheshare.sim", "reduction_demo", "sim.reduction"),
)

# (module, attribute, counter) for the counting pass; methods are "Class.method".
COUNTED = (
    ("cacheshare.bits", "BitString.__post_init__", "bits.bitstring.created"),
    ("cacheshare.bits", "BitString.__xor__", "bits.xor.calls"),
    ("cacheshare.bits", "BitString.slice", "bits.slice.calls"),
    ("cacheshare.bits", "concat", "bits.concat.calls"),
    ("cacheshare.tradeoff", "PiecewiseLinearTradeoff.evaluate", "tradeoff.evaluate.calls"),
    ("cacheshare.allocation", "memory_sharing_rate", "allocation.rate.calls"),
)

COMMAND_SPAN = "cli.command"


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.commands = array("q")
        self.child_time = array("d")
        self.counts: Counter = Counter()
        self.labels: dict[int, str] = {}  # tradeoff.build span -> curve label
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.commands.append(self.command)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        end = perf_counter()
        self.ends[sid] = end
        self._stack.pop()
        parent = self.parents[sid]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[sid]

    @contextmanager
    def command_span(self):
        """Root span of one CLI command; spans opened inside carry its id."""
        self.command += 1
        sid = self._open(COMMAND_SPAN)
        try:
            yield
        finally:
            self._close(sid)

    def _after(self, name: str, sid: int, result) -> None:
        if name == "tradeoff.build":
            self.labels[sid] = result.label
        elif name == "allocation.greedy":
            self.counts["allocation.greedy.steps"] += len(result.steps)
        elif name == "allocation.sweep":
            self.counts["allocation.sweep.segments"] += len(result.segments)
        elif name == "sim.deliver":
            self.counts["sim.transcript_bits"] += result.total_bits

    def _span_wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self._after(name, sid, result)
            return result

        return traced

    def _yield_counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def _call_counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module_name: str, attribute: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attribute:
            cls_name, attribute = attribute.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
            return
        original = getattr(owner, attribute)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "cacheshare":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    @contextmanager
    def spans_installed(self):
        """Span every function in SPANNED and count demand vectors yielded."""
        try:
            for module, attribute, name in SPANNED:
                self._replace(module, attribute, lambda fn, n=name: self._span_wrapper(fn, n))
            self._replace(
                "cacheshare.model",
                "enumerate_demands",
                lambda fn: self._yield_counter(fn, "model.enumerate_demands.yielded"),
            )
            yield self
        finally:
            self.restore()

    @contextmanager
    def counters_installed(self):
        """Count every call listed in COUNTED, without spans."""
        try:
            for module, attribute, name in COUNTED:
                self._replace(module, attribute, lambda fn, n=name: self._call_counter(fn, n))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def totals(self) -> dict:
        """Per span name: calls and inclusive time of spans not nested directly in
        one of the same name, self time of all, and distinct curve labels per command."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        shapes: set[tuple[int, str]] = set()
        names, parents = self.names, self.parents
        for sid, name in enumerate(names):
            duration = self.ends[sid] - self.starts[sid]
            self_time[name] += duration - self.child_time[sid]
            parent = parents[sid]
            if parent >= 0 and names[parent] == name:
                continue
            calls[name] += 1
            inclusive[name] += duration
            if sid in self.labels:
                shapes.add((self.commands[sid], self.labels[sid]))
        return {"calls": calls, "inclusive": inclusive, "self": self_time, "shapes": len(shapes)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "command"])
            for sid, name in enumerate(self.names):
                writer.writerow(
                    [sid, name, repr(self.starts[sid]), repr(self.ends[sid]),
                     self.parents[sid], self.commands[sid]]
                )

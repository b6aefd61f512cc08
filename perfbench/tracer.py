"""Spans and counters around the toolkit's module boundaries.

The toolkit itself carries no instrumentation, so the tracer wraps, from
outside, the names one module imports from another (for example
``mppsoc.cli.parse_config`` or ``mppsoc.simulator.transfer``) while it is
installed, and restores the originals afterwards.  Each wrapped call
records a span: name, start, end, parent span and op id.  A few hot
helpers get a counting wrapper only (no clock reads).

A target that a later version of the toolkit no longer has is skipped
and listed in ``Tracer.unpatched``; the runner reports the layers that
end up without spans instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module path, attribute, span name).  A dotted attribute names a
# method on a class of that module.
SPAN_TARGETS = (
    ("mppsoc.cli", "parse_config", "config.parse"),
    ("mppsoc.cli", "validate", "rules.validate"),
    ("mppsoc.cli", "generate", "rewrite.generate"),
    ("mppsoc.cli", "reduce_sum", "simulator.reduce_sum"),
    ("mppsoc.cli", "run", "simulator.run"),
    ("mppsoc.simulator", "run", "simulator.run"),
    ("mppsoc.simulator", "load_program", "simulator.load"),
    ("mppsoc.simulator", "SimMachine.__init__", "simulator.machine_init"),
    ("mppsoc.simulator", "SimMachine.set_values", "simulator.load"),
    ("mppsoc.simulator", "build_topology", "topology.build"),
    ("mppsoc.simulator", "build_network", "mpnoc.build"),
    ("mppsoc.mpnoc", "build_network", "mpnoc.build"),
    ("mppsoc.simulator", "transfer", "mpnoc.transfer"),
    ("mppsoc.mpnoc", "route_permutation", "mpnoc.route"),
)

# (module path, attribute, counter name): call counts only.
COUNT_TARGETS = (
    ("mppsoc.rewrite", "rewrite_line", "rewrite.rewrite_line_calls"),
    ("mppsoc.mpnoc", "MpNocNetwork.path", "mpnoc.path_calls"),
    # Its second result is the number of deferred attempts; the hook
    # below charges them to the enclosing transfer.
    ("mppsoc.mpnoc", "_greedy_passes", "mpnoc.greedy_calls"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _record_results(tracer, span_name, args, kwargs, result):
    """Turn a wrapped call's return value into exact counts."""
    add = tracer.counts.update
    if span_name == "rewrite.generate":
        add({"rewrite.lines_rewritten": result.lines_rewritten})
    elif span_name == "simulator.reduce_sum":
        add({"simulator.sim_cycles": result.total_cycles})
    elif span_name == "simulator.run":
        add({"simulator.sim_cycles": result.cycles,
             "simulator.pe_instr": result.instructions * len(result.registers)})
    elif span_name == "mpnoc.transfer":
        add({"mpnoc.messages": len(_arg(args, kwargs, 2, "messages")),
             "mpnoc.passes": result.passes})
    elif span_name == "mpnoc.route":
        add({"mpnoc.messages": sum(len(p) for p in result.per_pass),
             "mpnoc.passes": result.passes,
             "mpnoc.conflicts": result.conflicts})


class Tracer:
    """Collects spans and counts while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.unpatched: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block (used by the benchmark itself for
        its calls into ``mppsoc.cli.main``)."""
        if not self._saved:
            yield
            return
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        self.counts[name + ".calls"] += 1

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            _record_results(tracer, name, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        if name != "mpnoc.greedy_calls":
            return wrapper
        tracer = self

        @functools.wraps(fn)
        def greedy_wrapper(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == "mpnoc.transfer":
                counts["mpnoc.conflicts"] += result[1]
            return result
        return greedy_wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module_path, attr, wrapper_factory, name):
        owner = importlib.import_module(module_path)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.unpatched.append(f"{module_path}.{attr}")
            return
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, wrapper_factory(name, original))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self.unpatched = []
        try:
            for module_path, attr, name in SPAN_TARGETS:
                self._patch(module_path, attr, self._span_wrapper, name)
            for module_path, attr, name in COUNT_TARGETS:
                self._patch(module_path, attr, self._count_wrapper, name)
            yield self
        finally:
            for owner, leaf, original in reversed(self._saved):
                setattr(owner, leaf, original)
            self._saved = []

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, _p, _o) in enumerate(self.spans)]

    def layers_seen(self) -> set[str]:
        return {record[0].split(".", 1)[0] for record in self.spans}

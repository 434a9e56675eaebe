"""Spans around the calls into each layer, recorded from outside the package.

The package imports several functions by name (`classify`, `fit_model`,
`detect_ipid_loop`, `interpolate`), so each wrapper is installed in the
namespace of the module that calls it, not only where it is defined.
A span's self time is its duration minus the time of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import math
import os
from time import perf_counter_ns

from stormctl import agents, growth, simulation, tracefile


class Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "amount", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.amount = 0        # work counted at the boundary (entries, bytes)
        self.durations: list[int] = []


def _ipid_entries(args, kwargs, result) -> int:
    return len(args[0])


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


# (owner, attribute, layer, keep per-call durations, amount counter)
TARGETS = (
    (simulation, "run", "simulation.run", False, None),
    (agents.AgentFleet, "observe", "agents.observe", True, None),
    (agents.AgentFleet, "is_suppressed", "agents.is_suppressed", False, None),
    (agents.AgentFleet, "byte_breach", "agents.byte_breach", False, None),
    (agents.AgentFleet, "calibrate", "agents.calibrate", False, None),
    (agents, "replay_elementwise", "agents.replay", False, None),
    (growth, "fit_model", "growth.fit", True, None),
    (agents, "fit_model", "growth.fit", True, None),
    (simulation, "classify", "metrics.classify", False, None),
    (agents, "detect_ipid_loop", "metrics.ipid_scan", False, _ipid_entries),
    (simulation, "interpolate", "datasets.interpolate", False, None),
    (agents, "interpolate", "datasets.interpolate", False, None),
    (tracefile, "write_channel_csv", "tracefile.export", False, _bytes_written),
    (tracefile, "write_tickets", "tracefile.export", False, _bytes_written),
    (tracefile, "write_summary", "tracefile.export", False, _bytes_written),
    (tracefile, "write_scenario", "tracefile.export", False, _bytes_written),
    (tracefile, "write_trace", "tracefile.export", False, _bytes_written),
    (tracefile, "read_trace", "tracefile.read", False, None),
)


class Tracer:
    """Installs the wrappers for one traced pass and collects their spans."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self._stack: list[list[int]] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, layer: Layer, keep: bool, count):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                layer.calls += 1
                layer.total_ns += elapsed
                layer.self_ns += elapsed - children[0]
                if keep:
                    layer.durations.append(elapsed)
            if count is not None:
                layer.amount += count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self.layers = {}
        for owner, attr, name, keep, count in TARGETS:
            layer = self.layers.setdefault(name, Layer())
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, keep, count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten calls beyond it; with
    fewer than forty calls there is no tail, only the median."""
    for pct in (99.9, 99.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10 - 1e-9:
            return pct
    return 50.0


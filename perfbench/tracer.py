"""Benchmark-side instrumentation: patched lookups, a latency probe and a span tracer.

Nothing under ``src/`` is edited. A function is instrumented by replacing it
at the module attribute its caller looks up at call time (``dynroute.simulate``
imports the planners by name, so those are patched there as well as in
``dynroute.planners``). Per-edge hot functions such as ``neighbors`` and
``time_heuristic`` are never wrapped; planner spans report the ``expanded``
count of their result instead.

* :class:`Probe` is what untraced runs use: it times the dyn_astar planning
  calls and epochs the end-to-end latency metrics are defined on, counts
  planner calls and en-route vehicle-epochs, and keeps the traces and cells
  that ``dynroute bench`` computes so they can be checked afterwards.
* :class:`Tracer` is the traced run: one span per call with its parent, kept
  in memory and written out at the end, from which per-layer time, self time
  and counts are aggregated.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from dynroute import cli, evaluate, graph, heuristics, planners, simulate

_EPS = 1e-9

PLANNER_SPANS = {
    "dijkstra_ucs": "planners.ucs",
    "greedy_best_first": "planners.greedy",
    "static_a_star": "planners.astar",
    "rrt_plan": "planners.rrt",
    "dyn_a_star": "planners.dyn_astar",
    "replan": "planners.replan",
}

# span name -> modules whose attribute of that name callers look up.
SPAN_SITES = {
    "graph.load_scenario": ("load_scenario", (graph, evaluate, cli)),
    "graph.apply_event": ("apply_event", (graph, simulate)),
    "graph.snapshot": ("snapshot", (graph, simulate, cli)),
    "heuristics.ingest_observations": ("ingest_observations", (heuristics, simulate)),
    "simulate.run_simulation": ("run_simulation", (simulate, evaluate, cli)),
    "simulate.TruthTimeline": ("TruthTimeline", (simulate, evaluate)),
    "evaluate.offline_optimal": ("offline_optimal", (evaluate,)),
    "evaluate.evaluate_scenario": ("evaluate_scenario", (evaluate,)),
    "cli.main": ("main", (cli,)),
}
for _fn, _span in PLANNER_SPANS.items():
    SPAN_SITES[_span] = (_fn, (planners, simulate, cli))


def _layer_units() -> dict[str, str]:
    units = {}
    for layer in ("graph.load_scenario", "graph.apply_event", "graph.snapshot",
                  "heuristics.ingest_observations", "simulate.run_simulation",
                  "simulate.TruthTimeline", "evaluate.offline_optimal"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.ms"] = "ms"
    units["heuristics.ingest_observations.observations"] = "count"
    for layer in PLANNER_SPANS.values():
        units.update({f"{layer}.calls": "count", f"{layer}.ms": "ms", f"{layer}.expanded": "count"})
    units["planners.replan.changed_frac"] = "frac"
    units.update({"simulate.step_epoch.calls": "count", "simulate.step_epoch.ms": "ms",
                  "simulate.step_epoch.self_ms": "ms", "simulate.vehicle_epochs": "count",
                  "evaluate.evaluate_scenario.calls": "count",
                  "evaluate.evaluate_scenario.self_ms": "ms",
                  "cli.main.ms": "ms", "cli.main.self_ms": "ms",
                  "trace_overhead_frac": "frac"})
    return units


# Per-layer metrics of the traced run, with their units.
LAYER_UNITS = _layer_units()
LAYER_METRICS = tuple(LAYER_UNITS)


def en_route_now(sim) -> int:
    """Vehicles the coming epoch simulates: en route and departed or departing."""
    horizon = sim.now + sim.config.epoch_s - _EPS
    return sum(
        1 for v in sim.vehicles
        if v.status == simulate.EN_ROUTE and (v.departed or v.depart_s < horizon)
    )


@contextmanager
def patched(patches):
    """Install ``(owner, attr, replacement)`` patches; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Probe:
    """Timing and capture for untraced runs, on coarse calls only."""

    def __init__(self):
        self.plan_s: list[float] = []   # one dyn_astar plan of a simulated vehicle
        self.epoch_s: list[float] = []  # one Simulation.step_epoch
        self.plans = 0                  # planner calls of any algorithm
        self.vehicle_epochs = 0
        self.traces: list = []          # SimulationTrace per bench cell
        self.cells: list[dict] = []     # evaluate_scenario results

    def _timed_plan(self, fn):
        clock, samples = time.perf_counter, self.plan_s

        def wrapper(*args, **kwargs):
            self.plans += 1
            t0 = clock()
            result = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return result
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.plans += 1
            return fn(*args, **kwargs)
        return wrapper

    def _captured(self, fn, sink):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return wrapper

    def patches(self):
        step = simulate.Simulation.step_epoch
        clock = time.perf_counter

        def step_epoch(sim):
            self.vehicle_epochs += en_route_now(sim)
            t0 = clock()
            step(sim)
            self.epoch_s.append(clock() - t0)

        out = [(simulate.Simulation, "step_epoch", step_epoch)]
        for name in PLANNER_SPANS:
            fn = getattr(simulate, name)
            wrap = self._timed_plan if name in ("dyn_a_star", "replan") else self._counted
            out.append((simulate, name, wrap(fn)))
        out.append((evaluate, "run_simulation", self._captured(evaluate.run_simulation, self.traces)))
        out.append((evaluate, "evaluate_scenario",
                    self._captured(evaluate.evaluate_scenario, self.cells)))
        return out


class Tracer:
    """In-memory spans ``[name, parent, start_s, end_s, child_s]`` plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if span[1] >= 0:
                    spans[span[1]][4] += span[3] - span[2]
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def _after_plan(self, span, args, result):
        span.append(result.expanded)

    def _after_replan(self, span, args, result):
        span.append(result.expanded)
        prior, current = args[0].path, args[2]
        suffix = prior[prior.index(current):] if current in prior else ()
        if result.path != suffix:
            self.add("planners.replan.changed")

    def _after_ingest(self, span, args, result):
        self.add("heuristics.ingest_observations.observations", len(args[2]))

    def patches(self):
        after = {"heuristics.ingest_observations": self._after_ingest,
                 "planners.replan": self._after_replan}
        for span in PLANNER_SPANS.values():
            after.setdefault(span, self._after_plan)
        out = []
        for span, (attr, owners) in SPAN_SITES.items():
            for owner in owners:
                if hasattr(owner, attr):
                    out.append((owner, attr, self.wrap(span, getattr(owner, attr), after.get(span))))
        step = self.wrap("simulate.step_epoch", simulate.Simulation.step_epoch)

        def step_epoch(sim):
            self.add("simulate.vehicle_epochs", en_route_now(sim))
            return step(sim)

        out.append((simulate.Simulation, "step_epoch", step_epoch))
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total ms, self ms and work counts per span name.

        ``planners.dyn_astar`` counts only searches a caller asked for
        directly; the searches ``replan`` and ``static_a_star`` run inside
        themselves are part of those spans.
        """
        out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
        out.update(self.counts)
        for name, parent, t0, t1, child, *extra in self.spans:
            if name == "planners.dyn_astar" and parent >= 0 \
                    and self.spans[parent][0].startswith("planners."):
                continue
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + (t1 - t0) * 1e3
            out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0.0) + (t1 - t0 - child) * 1e3
            if extra:
                out[f"{name}.expanded"] = out.get(f"{name}.expanded", 0) + extra[0]
        replans = out["planners.replan.calls"]
        out["planners.replan.changed_frac"] = (
            out.pop("planners.replan.changed", 0) / replans if replans else 0.0)
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, parent index, start and duration in ms."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as fh:
            for name, parent, t0, t1, _child, *extra in self.spans:
                fh.write(json.dumps([name, parent, round((t0 - origin) * 1e3, 6),
                                     round((t1 - t0) * 1e3, 6), *extra]) + "\n")

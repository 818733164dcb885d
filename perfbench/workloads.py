"""The four workloads: set-up, one measured pass, and the checks on its outputs.

A pass is a fixed piece of work. ``fleet_sim``, ``suite_bench`` and
``eval_grid20`` repeat the same input every pass, so every pass must produce
the same outputs and counts; ``grid_plan`` pass ``i`` plans a fresh set of
pairs with the same distance mix. Each workload records:

* ``attempted``/``failed`` operations, judged outside the timed region;
* ``work``: a deterministic count vector per pass (expansions, replans,
  epochs, cells ...), whose sha256 lets two runs show they did the same work;
* the deterministic quality figures ``trips``, ``arrived``, ``trip_costs``,
  ``dyn_ratios`` and ``dyn_trips`` (see DESIGN.md for each reference cost).
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from pathlib import Path

from dynroute import cli, graph, planners, simulate, suite
from dynroute.heuristics import HeuristicWeights

from . import gen
from .tracer import Probe, patched

RHO = 1.15
_EPS = 1e-9


class Workload:
    name = ""
    repeats_input = True  # every pass runs the same input

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.docs: dict[str, str] = {}   # name -> sha256 of the generated document
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.work: list[list] = []       # per-pass deterministic counts
        self.trips = 0
        self.arrived = 0
        self.trip_costs: list[float] = []
        self.dyn_ratios: list[float] = []
        self.dyn_trips = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, probe: Probe) -> tuple[float, int]:
        """Do pass ``index``; return (measured seconds, cells completed)."""
        raise NotImplementedError

    def check_pass(self, index: int, probe: Probe) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class GridPlan(Workload):
    """Single queries of all five planners on a 100x100 grid, one caller."""

    name = "grid_plan"
    repeats_input = False
    min_passes = 10  # 200 dyn_astar plans: ten beyond the 95th percentile

    def setup(self) -> None:
        text = gen.grid_plan_doc(self.seed)
        self.docs = {f"grid_plan_{self.seed}": gen.sha256(text)}
        scn = graph.load_scenario(text)
        for ev in scn.events:  # all at t=0: the state the queries plan against
            graph.apply_event(scn.graph, scn.initial_field, ev)
        self.snap = graph.snapshot(scn.graph, scn.initial_field, 0.0)
        self.params = planners.SearchParams(
            weights=HeuristicWeights(*gen.WEIGHTS_FULL), rng_seed=self.seed)

    def run_pass(self, index: int, probe: Probe) -> tuple[float, int]:
        snap, params, clock = self.snap, self.params, time.perf_counter
        busy = 0.0
        counts = []
        for start, goal in gen.grid_plan_pairs(self.seed, index):
            results = {}
            t_pair = 0.0
            for algo, call in (
                ("ucs", lambda: planners.dijkstra_ucs(snap, start, goal)),
                ("greedy", lambda: planners.greedy_best_first(snap, start, goal)),
                ("astar", lambda: planners.static_a_star(snap, start, goal)),
                ("rrt", lambda: planners.rrt_plan(snap, start, goal, params)),
                ("dyn_astar", lambda: planners.dyn_a_star(snap, start, goal, params)),
            ):
                t0 = clock()
                try:
                    results[algo] = call()
                except Exception as exc:  # a raising planner is a failed plan
                    results[algo] = exc
                dt = clock() - t0
                t_pair += dt
                if algo == "dyn_astar":
                    probe.plan_s.append(dt)
            busy += t_pair
            probe.epoch_s.append(t_pair)
            probe.plans += len(results)
            probe.vehicle_epochs += len(results)
            counts.append(self._check_pair(index, start, goal, results))
        self.work.append(counts)
        return busy, len(counts) * 5

    def _check_pair(self, index, start, goal, results) -> list:
        counts = []
        travel = {}
        # Quality covers the passes every run makes, so it is the same for
        # every run of a seed however many passes fit in its time.
        quality = index < self.min_passes
        for algo, r in results.items():
            self.attempted += 1
            self.trips += quality
            where = f"pass {index} {algo} {start}->{goal}"
            if isinstance(r, Exception):
                self.fail(f"{where}: raised {r!r}")
                counts.append([algo, -1])
                continue
            counts.append([algo, r.expanded, len(r.path)])
            if r.status != planners.FOUND:
                self.fail(f"{where}: reported unreachable on a connected grid")
            elif not planners.validate_path(self.snap, r.path):
                self.fail(f"{where}: invalid path")
            elif r.path[0] != start or r.path[-1] != goal:
                self.fail(f"{where}: wrong endpoints")
            else:
                travel[algo] = planners.path_travel_time(self.snap, r.path)
                if quality:
                    self.arrived += 1
                    self.trip_costs.append(r.g_cost)
        if "ucs" in travel and "astar" in travel:
            if abs(travel["astar"] - travel["ucs"]) > 1e-6 * travel["ucs"]:
                self.fail(f"pass {index} astar {start}->{goal}: travel time differs from ucs")
        if quality and "ucs" in travel and "dyn_astar" in travel:
            self.dyn_trips += 1
            self.dyn_ratios.append(results["dyn_astar"].g_cost / results["ucs"].g_cost)
        return counts

    def check_pass(self, index: int, probe: Probe) -> None:
        pass  # each pair is checked as soon as its plans are timed


class FleetSim(Workload):
    """200 dyn_astar vehicles on a 30x30 grid with 300 mixed events."""

    name = "fleet_sim"
    min_passes = 2

    def setup(self) -> None:
        text = gen.fleet_doc(self.seed)
        self.docs = {f"fleet_{self.seed}": gen.sha256(text)}
        self.scn = graph.load_scenario(text)
        self.config = simulate.SimConfig()

    def run_pass(self, index: int, probe: Probe) -> tuple[float, int]:
        clock = time.perf_counter
        t0 = clock()
        self.trace = simulate.run_simulation(self.scn, self.config, "dyn_astar")
        busy = clock() - t0
        vehicles = self.trace.vehicles
        self.work.append([len(self.trace.epochs), sum(v["replans"] for v in vehicles),
                          sum(v["expanded"] for v in vehicles)])
        return busy, 1

    def check_pass(self, index: int, probe: Probe) -> None:
        trace = self.trace
        self.attempted += len(trace.vehicles)
        if index:
            self.failed += self.first_failed
            for a, b in zip(trace.vehicles, self.first):
                if a != b:
                    self.fail(f"pass {index} vehicle {a['vehicle']}: differs from pass 0")
            return
        self.first = trace.vehicles
        failed_before = self.failed
        queries = {q.vehicle: q for q in self.scn.queries}
        # replay_realized_cost rebuilds the truth timeline per call; share one.
        timeline = simulate.TruthTimeline(self.scn, self.config.epoch_s)
        free_flow = graph.snapshot(self.scn.graph, self.scn.initial_field, 0.0)
        with patched([(simulate, "TruthTimeline", lambda *_: timeline)]):
            for v in trace.vehicles:
                q = queries[v["vehicle"]]
                self.trips += 1
                self.dyn_trips += 1
                where = f"vehicle {v['vehicle']}"
                if v["status"] != simulate.ARRIVED:
                    self.fail(f"{where}: {v['status']}")
                    continue
                try:
                    replay = simulate.replay_realized_cost(
                        self.scn, self.config, v["vehicle"], v["path"], q.depart_s)
                except ValueError as exc:
                    self.fail(f"{where}: path cannot be walked: {exc}")
                    continue
                cost = v["realized_cost_s"]
                if abs(replay - cost) > 1e-6 * max(1.0, cost):
                    self.fail(f"{where}: realized {cost} but replay gives {replay}")
                    continue
                if v["path"][0] != q.start or v["path"][-1] != q.goal:
                    self.fail(f"{where}: wrong endpoints")
                    continue
                self.arrived += 1
                self.trip_costs.append(cost)
                bound = planners.dijkstra_ucs(free_flow, q.start, q.goal).f_cost_at_goal
                self.dyn_ratios.append(cost / bound)
        self.first_failed = self.failed - failed_before


class Bench(Workload):
    """``dynroute bench`` through ``cli.main`` in-process, one job."""

    min_passes = 2

    def write_inputs(self) -> Path:
        raise NotImplementedError

    def setup(self) -> None:
        self.suite_dir = self.write_inputs()
        self.docs = {p.stem: gen.sha256(p.read_text()) for p in sorted(self.suite_dir.glob("*.scn"))}

    def run_pass(self, index: int, probe: Probe) -> tuple[float, int]:
        clock = time.perf_counter
        out = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bench", "--suite", str(self.suite_dir), "--jobs", "1"])
        busy = clock() - t0
        if code != 0:
            self.fail(f"pass {index}: dynroute bench exited {code}")
        self.report = out.getvalue()
        vehicles = [v for t in probe.traces for v in t.vehicles]
        self.work.append([len(probe.cells), len(probe.traces), len(vehicles),
                          sum(v["replans"] for v in vehicles),
                          sum(v["expanded"] for v in vehicles),
                          sum(len(t.epochs) for t in probe.traces)])
        return busy, sum(len(c) for c in probe.cells)

    def check_pass(self, index: int, probe: Probe) -> None:
        cells, traces = probe.cells, probe.traces
        self.attempted += sum(len(c) for c in cells)
        if index:
            self.failed += self.first_failed
            if cells != self.first or self.report != self.first_report:
                self.fail(f"pass {index}: outputs differ from pass 0")
        else:
            self.first, self.first_report = list(cells), self.report
            failed_before = self.failed
            for scenario_cells in cells:
                for algo, cell in scenario_cells.items():
                    if cell["error"]:
                        self.fail(f"{algo}: {cell['error']}")
                    elif any(r < 1.0 - _EPS for r in cell["ratios"]):
                        self.fail(f"{algo}: oracle cost above a realized cost "
                                  f"(ratio {min(cell['ratios'])})")
                dyn = scenario_cells.get("dyn_astar")
                if dyn is not None:
                    self.dyn_trips += len(dyn["expanded"])
                    self.dyn_ratios.extend(r for r in dyn["ratios"] if math.isfinite(r))
            for t in traces:
                for v in t.vehicles:
                    self.trips += 1
                    if v["status"] == simulate.ARRIVED:
                        self.arrived += 1
                        self.trip_costs.append(v["realized_cost_s"])
            self.first_failed = self.failed - failed_before
        cells.clear()
        traces.clear()


class SuiteBench(Bench):
    """The committed suite's 102 scenarios, regenerated with the run's seed."""

    name = "suite_bench"

    def write_inputs(self) -> Path:
        suite.write_suites(self.work_dir, self.seed)
        return self.work_dir / "suite"


class EvalGrid20(Bench):
    """Eight 20x20 scenarios at the oracle's node and event limits."""

    name = "eval_grid20"

    def write_inputs(self) -> Path:
        out = self.work_dir / "grid20"
        out.mkdir(parents=True, exist_ok=True)
        for k, text in enumerate(gen.eval_grid20_docs(self.seed)):
            graph.load_scenario(text)  # the suite generator validates its files too
            (out / f"grid20_{k}.scn").write_text(text)
        return out


WORKLOADS = {w.name: w for w in (GridPlan, FleetSim, SuiteBench, EvalGrid20)}

import concurrent.futures
import dataclasses
import json
import math
import random

import pytest

from dynroute import (
    ALGORITHMS,
    Event,
    HeuristicField,
    HeuristicWeights,
    Query,
    Scenario,
    SimConfig,
    Simulation,
    compare_algorithms,
    load_scenario,
    make_grid,
    offline_optimal,
    run_simulation,
    serialize_scenario,
)
from dynroute import evaluate, simulate
from dynroute.graph import EVENT_KINDS
from dynroute.evaluate import _aggregate, evaluate_scenario, report_csv, report_table
from dynroute.simulate import TruthTimeline

import reference_planners
from test_sim import FORK, LINE, scenario_doc

UNIT_W = {"wg": 1, "w1": 1, "w2": 0, "w3": 0}


def scn(doc):
    return load_scenario(doc)


def _busy_grid(seed: int) -> Scenario:
    """A seeded 30x30 grid with 20 events of each kind over 0..900 s (an
    unblock reopens an edge blocked earlier) and 20 trips."""
    rng = random.Random(seed)
    grid = make_grid(30, 30, 100.0, 10.0)
    nodes, edges = sorted(grid.nodes), sorted(grid.edges)
    events, blocked = [], []
    for i in range(100):
        t = 9.0 * i
        kind = ("set_congestion", "set_comfort", "set_node_comfort_h",
                "block_edge", "unblock_edge")[i % 5]
        if kind == "set_congestion":
            ev = Event(t, kind, rng.choice(edges), rng.uniform(1.0, 4.0))
        elif kind == "set_comfort":
            ev = Event(t, kind, rng.choice(edges), rng.uniform(0.0, 30.0))
        elif kind == "set_node_comfort_h":
            ev = Event(t, kind, rng.choice(nodes), rng.uniform(0.0, 40.0))
        elif kind == "block_edge":
            blocked.append(rng.choice(edges))
            ev = Event(t, kind, blocked[-1])
        else:
            ev = Event(t, kind, blocked.pop(rng.randrange(len(blocked))))
        events.append(dataclasses.replace(ev, sensed_only=rng.random() < 0.3))
    queries = []
    for k in range(20):
        start, goal = rng.sample(nodes, 2)
        queries.append(Query(f"v{k:02d}", start, goal, rng.uniform(0.0, 300.0),
                             HeuristicWeights()))
    s = Scenario(graph=grid, initial_field=HeuristicField(), events=tuple(events),
                 queries=tuple(queries), name="busy", seed=seed)
    return load_scenario(serialize_scenario(s))  # the loader's checks hold


def _parallel_edge_scenario() -> Scenario:
    """Parallel n1->n2 edges of 30 s and 29.9999999995 s, then n2->n3 of
    30 s, congested x2 from t=30: every algorithm pays 59.999999999500005,
    which a trace writes as 60.0."""
    return scn(scenario_doc(
        nodes=[("n1", 0.0, 0.0), ("n2", 100.0, 0.0), ("n3", 200.0, 0.0)],
        edges=[("e1", "n1", "n2", 100.0, 30.0), ("e2", "n1", "n2", 100.0, 29.9999999995),
               ("e3", "n2", "n3", 100.0, 30.0)],
        events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e3", "value": 2.0}],
        queries=[{"vehicle": "v1", "start": "n1", "goal": "n3", "depart_s": 0.0,
                  "weights": UNIT_W, "context": {}}],
    ))


class TestOracle:
    def test_static_line(self):
        s = scn(scenario_doc(**LINE))
        res = offline_optimal(s, s.queries[0])
        assert res.optimal_realized_cost == pytest.approx(150.0)
        assert res.optimal_path == ("a", "b", "c", "d")

    def test_foreknown_congestion_forces_detour(self):
        doc = scenario_doc(
            **FORK,
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        )
        s = scn(doc)
        res = offline_optimal(s, s.queries[0])
        assert res.optimal_realized_cost == pytest.approx(170.0)
        assert res.optimal_path == ("a", "b", "c", "d")

    def test_event_after_traversal_is_free(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 31.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        )
        s = scn(doc)
        assert offline_optimal(s, s.queries[0]).optimal_realized_cost == pytest.approx(150.0)

    def test_permanent_blockage_unreachable(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 0.0, "kind": "block_edge", "target": "e3"}],
        )
        s = scn(doc)
        res = offline_optimal(s, s.queries[0])
        assert math.isinf(res.optimal_realized_cost)
        assert res.optimal_path == ()

    def test_charges_node_penalties(self):
        doc = scenario_doc(**LINE, h2={"b": 2.0}, h3={"d": 1.0})
        s = scn(doc)
        assert offline_optimal(s, s.queries[0]).optimal_realized_cost == pytest.approx(153.0)

    def test_waiting_for_unblock_not_needed_when_detour_wins(self):
        # blocked main road reopens late; detour is cheaper than the truth
        # timeline ever makes the main road again
        doc = scenario_doc(
            **FORK,
            events=[
                {"t_s": 30.0, "kind": "block_edge", "target": "e2"},
                {"t_s": 600.0, "kind": "unblock_edge", "target": "e2"},
            ],
        )
        s = scn(doc)
        assert offline_optimal(s, s.queries[0]).optimal_realized_cost == pytest.approx(170.0)

    @pytest.mark.parametrize("rows, cols, goal, events", [
        (21, 21, "n20_20", 0),  # 441 nodes
        (2, 2, "n01_01", 65),
    ])
    def test_matches_reference_beyond_former_size_caps(self, rows, cols, goal, events):
        grid = make_grid(rows, cols, 100.0, 10.0)
        eid = sorted(grid.edges)[0]
        s = Scenario(
            graph=grid, initial_field=HeuristicField(),
            events=tuple(
                Event(float(i), "set_congestion", eid, 1.0 + i * 0.01) for i in range(events)
            ),
            queries=(Query("v1", "n00_00", goal, 0.0, HeuristicWeights()),),
            name="big", seed=0,
        )
        got = offline_optimal(s, s.queries[0])
        expected = reference_planners.offline_optimal(s, s.queries[0])
        assert got.optimal_realized_cost.hex() == expected.optimal_realized_cost.hex()
        assert got.optimal_path == expected.optimal_path

    def test_scores_a_fleet_on_a_30x30_grid(self):
        """900 nodes, 100 events of every kind, 20 trips: every cell is scored,
        the oracle bounds each dyn_astar trip and matches the reference."""
        s = _busy_grid(seed=7)
        assert len(s.graph.nodes) == 900
        assert {ev.kind for ev in s.events} == EVENT_KINDS
        cells = evaluate_scenario(s)
        assert all(cell["error"] is None for cell in cells.values())
        truth = TruthTimeline(s, 30.0)
        trace = run_simulation(s, SimConfig(), "dyn_astar", truth)
        oracles = {q.vehicle: offline_optimal(s, q, truth) for q in s.queries}
        arrived = [v for v in trace.vehicles if v["status"] == "arrived"]
        assert len(arrived) >= 15
        for v in arrived:
            assert oracles[v["vehicle"]].optimal_realized_cost <= v["realized_cost_s"] + 1e-9
        for q in s.queries[:5]:
            expected = reference_planners.offline_optimal(s, q)
            got = oracles[q.vehicle]
            assert got.optimal_realized_cost.hex() == expected.optimal_realized_cost.hex()
            assert got.optimal_path == expected.optimal_path

    @pytest.mark.parametrize("name", [
        "grid10_congestion.scn", "sharing_fixture.scn",
    ])
    def test_lower_bounds_every_simulated_run(self, name, scenario_dir):
        s = scn((scenario_dir / name).read_text())
        oracles = {q.vehicle: offline_optimal(s, q) for q in s.queries}
        for algo in ALGORITHMS:
            trace = run_simulation(s, SimConfig(), algo)
            for v in trace.vehicles:
                if v["status"] != "arrived":
                    continue
                opt = oracles[v["vehicle"]].optimal_realized_cost
                assert v["realized_cost_s"] >= opt - 1e-6

    def test_keeps_a_cheaper_label_a_hair_earlier_than_a_dearer_one(self):
        """Two parallel n1->n2 edges, 30 s and 5e-10 s less, and n2->n3
        congested x2 from t=30. Arriving at n2 5e-10 s before that boundary
        enters n2->n3 at its old price; a label at n2 only 5e-10 s later and
        dearer may not prune it."""
        s = _parallel_edge_scenario()
        truth = TruthTimeline(s, 30.0)
        res = offline_optimal(s, s.queries[0], truth)
        assert res.optimal_realized_cost == 29.9999999995 + 30.0
        assert res.optimal_path == ("n1", "n2", "n3")
        for algo in ALGORITHMS:
            sim = Simulation(s, SimConfig(), algo, truth)
            sim.run()
            (v,) = sim.vehicles
            assert v.status == "arrived"
            assert v.realized_cost == res.optimal_realized_cost

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "dominance pruning assumes FIFO costs: an earlier, cheaper label at m "
        "prunes the later one that meets m->g after its congestion drops"))
    def test_lower_bounds_a_trip_that_reaches_a_road_after_its_congestion_drops(self):
        """s-a-m reaches m at t=10 for 20 (a costs h2 10), s-w-m at t=40 for
        40; m->g costs 100 until t=30 and 10 after. dyn_astar, steered off a
        by its comfort weight, drives s-w-m-g for 50; the oracle pruned that
        label at m and reports 120 via a."""
        s = scn(scenario_doc(
            nodes=[("s", 0.0, 0.0), ("a", 50.0, 50.0), ("w", 50.0, -50.0),
                   ("m", 100.0, 0.0), ("g", 200.0, 0.0)],
            edges=[("e1", "s", "a", 100.0, 5.0), ("e2", "a", "m", 100.0, 5.0),
                   ("e3", "s", "w", 100.0, 20.0), ("e4", "w", "m", 100.0, 20.0),
                   ("e5", "m", "g", 100.0, 10.0)],
            h2={"a": 10.0},
            events=[{"t_s": 0.0, "kind": "set_congestion", "target": "e5", "value": 10.0},
                    {"t_s": 30.0, "kind": "set_congestion", "target": "e5", "value": 1.0}],
            queries=[{"vehicle": "v1", "start": "s", "goal": "g", "depart_s": 0.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 2, "w3": 0},
                      "context": {"prefers_comfort": True, "rough_road": True}}],
        ))
        (v,) = run_simulation(s, SimConfig(), "dyn_astar").vehicles
        if (v["path"], v["realized_cost_s"]) != (["s", "w", "m", "g"], 50.0):
            pytest.fail(f"dyn_astar drove {v['path']} for {v['realized_cost_s']}, not "
                        "s-w-m-g for 50: this case no longer shows the hole")
        assert offline_optimal(s, s.queries[0]).optimal_realized_cost <= 50.0


class TestScoring:
    def _congested_fork(self):
        return scn(scenario_doc(
            **FORK,
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        ))

    def test_evaluate_scenario_separates_dynamic_from_static(self):
        cells = evaluate_scenario(self._congested_fork(), rho=1.15)
        assert cells["dyn_astar"]["correct"] is True
        assert cells["astar"]["correct"] is False
        assert cells["ucs"]["correct"] is False

    def test_generous_rho_forgives_everyone_who_arrives(self):
        cells = evaluate_scenario(self._congested_fork(), rho=10.0)
        for algo in ("ucs", "astar", "dyn_astar"):
            assert cells[algo]["correct"] is True

    def test_stranding_counts_and_fails(self):
        blocked = scn(scenario_doc(
            **FORK,
            events=[{"t_s": 30.0, "kind": "block_edge", "target": "e2"}],
        ))
        cells = evaluate_scenario(blocked, rho=1.15)
        assert cells["astar"]["correct"] is False
        assert cells["astar"]["strandings"] == 1
        assert cells["dyn_astar"]["strandings"] == 0

    def test_score_suite_mixes_pass_and_fail(self):
        suite = [self._congested_fork(), scn(scenario_doc(**LINE))]
        cells = [evaluate_scenario(s, algorithms=("astar", "dyn_astar")) for s in suite]
        dyn = _aggregate("dyn_astar", [c["dyn_astar"] for c in cells])
        astar = _aggregate("astar", [c["astar"] for c in cells])
        assert (dyn.passes, dyn.total, dyn.score) == (2, 2, 1.0)
        assert (astar.passes, astar.total, astar.score) == (1, 2, 0.5)
        assert astar.mean_cost_ratio > dyn.mean_cost_ratio

    def test_a_trip_that_pays_the_oracle_cost_scores_exactly_one(self):
        # The trace rounds 59.999999999500005 to 60.0; the oracle cost is
        # rounded the same way before the division.
        cells = evaluate_scenario(_parallel_edge_scenario())
        for cell in cells.values():
            assert cell["error"] is None
            assert cell["ratios"] == [1.0]
            assert cell["correct"] is True

    @staticmethod
    def _cell(optimum: float, paid: float, rho: float = 1.15) -> dict:
        """The cell of one trip ``v1`` that arrived having paid ``paid``,
        against an oracle cost of ``optimum``."""
        oracles = {"v1": evaluate.OracleResult("v1", optimum, ("a", "b"))}
        vehicle = {"vehicle": "v1", "status": "arrived", "realized_cost_s": paid, "expanded": 0}
        trace = simulate.SimulationTrace("tiny", "ucs", 0, {}, (vehicle,), ())
        return evaluate._scored_cell(trace, oracles, rho)

    def test_an_optimum_that_rounds_to_zero_is_not_divided_by(self):
        # 4e-10 s rounds to 0.0: a trip is scored as it is against a zero optimum.
        for paid, ratio in ((0.0, 1.0), (1e-9, 1.0), (1e-6, math.inf)):
            assert self._cell(4e-10, paid)["ratios"] == [ratio]

    @pytest.mark.parametrize("paid, passes", [
        (115.0, True),  # exactly rho x the optimum
        (115.00000005, True),  # over it by less than the tolerance
        (115.001, False),
    ])
    def test_a_trip_passes_up_to_rho_times_the_optimum(self, paid, passes):
        assert self._cell(100.0, paid, rho=1.15)["correct"] is passes

    def test_multi_vehicle_scenario_requires_all_to_pass(self, scenario_dir):
        s = scn((scenario_dir / "sharing_fixture.scn").read_text())
        cells = evaluate_scenario(s, rho=1.15, algorithms=("dyn_astar",))
        assert len(cells["dyn_astar"]["ratios"]) == 2


class TestCompare:
    def test_report_shape_and_parallel_agreement(self, scenario_dir):
        paths = sorted((scenario_dir / "static_suite").glob("*.scn"))[:4]
        serial = compare_algorithms(paths, jobs=1)
        parallel = compare_algorithms(paths, jobs=2)
        assert serial == parallel
        assert serial.total_scenarios == 4
        assert tuple(r.algorithm for r in serial.rows) == ALGORITHMS
        by = {r.algorithm: r for r in serial.rows}
        assert by["dyn_astar"].score == 1.0
        assert by["ucs"].score == 1.0

    def test_jobs_are_capped_at_the_scenario_count(self, scenario_dir, monkeypatch):
        # A pool starts all its workers at its first task, so a pool wider
        # than the suite starts processes with nothing to do. The stand-in
        # records the width asked for and runs the tasks here: no process starts.
        widths = []

        class InProcessPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        paths = sorted((scenario_dir / "static_suite").glob("*.scn"))[:3]
        report = compare_algorithms(paths, jobs=5000, algorithms=("ucs",))
        compare_algorithms(paths[:1], jobs=5000, algorithms=("ucs",))
        assert widths == [3]
        assert report == compare_algorithms(paths, jobs=1, algorithms=("ucs",))

    def test_one_truth_timeline_per_scenario(self, scenario_dir, monkeypatch):
        built = []

        def counting(scenario, epoch_s):
            built.append(scenario.name)
            return TruthTimeline(scenario, epoch_s)

        monkeypatch.setattr(evaluate, "TruthTimeline", counting)
        monkeypatch.setattr(simulate, "TruthTimeline", counting)
        paths = [scenario_dir / "grid10_congestion.scn", scenario_dir / "sharing_fixture.scn"]
        compare_algorithms(paths)
        names = [scn(p.read_text()).name for p in sorted(paths)]
        assert built == names

    def test_table_lists_cells_that_raised(self, scenario_dir, tmp_path, monkeypatch):
        line = tmp_path / "line.scn"
        line.write_text(scenario_doc(**LINE))
        paths = [line, scenario_dir / "grid10_congestion.scn"]
        clean = report_table(compare_algorithms(paths, algorithms=("ucs", "astar")))
        assert "errors" not in clean
        ucs = simulate.PLANNERS["ucs"]

        def flaky(snap, start, goal, params):
            if "a" in snap.index.pos:  # the line scenario only
                raise RuntimeError("ucs exploded")
            return ucs(snap, start, goal, params)

        monkeypatch.setitem(simulate.PLANNERS, "ucs", flaky)
        report = compare_algorithms(paths, algorithms=("ucs", "astar"))
        assert report.rows[0].errors == ("t: ucs exploded",)
        assert report_table(report).endswith(
            "\nerrors (cells that raised, counted as failures):\n  ucs: t: ucs exploded\n")
        errors = {line.split(",")[0]: line.split(",")[-1]
                  for line in report_csv(report).splitlines()[1:]}
        assert errors == {"ucs": "1", "astar": "0"}

    def test_csv_and_table_rendering(self, scenario_dir):
        paths = sorted((scenario_dir / "static_suite").glob("*.scn"))[:2]
        report = compare_algorithms(paths, algorithms=("ucs", "dyn_astar"))
        csv = report_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "algorithm,score,mean_ratio,strandings,mean_expanded,errors"
        assert len(lines) == 3
        for line in lines[1:]:
            algo, score, ratio, strand, expanded, errors = line.split(",")
            assert algo in ("ucs", "dyn_astar")
            assert 0.0 <= float(score) <= 1.0
            float(ratio), int(strand), float(expanded)
            assert errors == "0"
        table = report_table(report)
        assert "ucs" in table and "dyn_astar" in table
        assert "2 scenarios" in table

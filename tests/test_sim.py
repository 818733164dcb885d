import dataclasses
import json
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_planners as ref
from reference_sim import PlanCall, reference_trace
from dynroute import (
    ALGORITHMS,
    ARRIVED,
    STRANDED,
    Event,
    HeuristicField,
    HeuristicWeights,
    Scenario,
    SearchParams,
    SimConfig,
    Simulation,
    apply_event,
    load_scenario,
    make_grid,
    offline_optimal,
    run_simulation,
    serialize_scenario,
    snapshot,
)
from dynroute import planners, simulate
from dynroute.planners import dyn_a_star
from dynroute.simulate import MAX_EPOCHS, TruthTimeline, replay_realized_cost

def scenario_doc(*, edges, nodes, events=(), queries=None, h2=None, h3=None, alpha=0.3):
    queries = queries or [
        {"vehicle": "v1", "start": "a", "goal": "d", "depart_s": 0.0,
         "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}
    ]
    return json.dumps({
        "meta": {"name": "t", "seed": 7, "alpha": alpha},
        "nodes": [{"id": i, "x": x, "y": y} for i, x, y in nodes],
        "edges": [
            {"id": e, "from": u, "to": v, "length_m": l, "base_time_s": b}
            for e, u, v, l, b in edges
        ],
        "heuristics": {"h2": h2 or {}, "h3": h3 or {}},
        "events": list(events),
        "queries": queries,
    })


LINE = dict(
    nodes=[("a", 0.0, 0.0), ("b", 500.0, 0.0), ("c", 1000.0, 0.0), ("d", 1500.0, 0.0)],
    edges=[
        ("e1", "a", "b", 500.0, 50.0),
        ("e2", "b", "c", 500.0, 50.0),
        ("e3", "c", "d", 500.0, 50.0),
    ],
)

# main road a-b-d (50s + 50s) with a slower service detour b-c-d (60s + 60s)
FORK = dict(
    nodes=[("a", 0.0, 0.0), ("b", 500.0, 0.0), ("c", 500.0, -300.0), ("d", 1000.0, 0.0)],
    edges=[
        ("e1", "a", "b", 500.0, 50.0),
        ("e2", "b", "d", 500.0, 50.0),
        ("e3", "b", "c", 600.0, 60.0),
        ("e4", "c", "d", 600.0, 60.0),
    ],
)


def run(doc, algorithm="dyn_astar", **cfg):
    return run_simulation(load_scenario(doc), SimConfig(**cfg), algorithm)


def _effective_time(snap, eid):
    """Edge ``eid``'s effective time in ``snap``'s arcs; None if it is blocked."""
    return next((eff for row in snap.arcs for e, _v, eff in row if e == eid), None)


class TestBasicRuns:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_line_trip_every_algorithm(self, algo):
        trace = run(scenario_doc(**LINE), algorithm=algo)
        (v,) = trace.vehicles
        assert v["status"] == ARRIVED
        assert v["path"] == ["a", "b", "c", "d"]
        assert v["realized_cost_s"] == pytest.approx(150.0)
        assert v["arrival_s"] == pytest.approx(150.0)

    def test_start_equals_goal(self):
        doc = scenario_doc(
            **LINE,
            queries=[{"vehicle": "v1", "start": "a", "goal": "a", "depart_s": 0.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        )
        (v,) = run(doc).vehicles
        assert v["status"] == ARRIVED
        assert v["realized_cost_s"] == 0.0
        assert v["path"] == ["a"]

    def test_delayed_departure(self):
        doc = scenario_doc(
            **LINE,
            queries=[{"vehicle": "v1", "start": "a", "goal": "d", "depart_s": 45.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        )
        (v,) = run(doc).vehicles
        assert v["status"] == ARRIVED
        assert v["arrival_s"] == pytest.approx(195.0)
        assert v["realized_cost_s"] == pytest.approx(150.0)

    def test_node_penalties_charged_along_path(self):
        doc = scenario_doc(**LINE, h2={"b": 2.0}, h3={"c": 1.5})
        (v,) = run(doc).vehicles
        assert v["realized_cost_s"] == pytest.approx(150.0 + 2.0 + 1.5)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Simulation(load_scenario(scenario_doc(**LINE)), SimConfig(), "bfs")

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(epoch_s=0)
        with pytest.raises(ValueError):
            SimConfig(noise_sigma=-1)
        # NaN passes every comparison-based bound: a NaN horizon strands every
        # vehicle after no epoch, and a NaN sigma silently turns noise off.
        with pytest.raises(ValueError, match="horizon_s must be finite"):
            SimConfig(horizon_s=float("nan"))
        with pytest.raises(ValueError, match="horizon_s must be finite"):
            SimConfig(horizon_s=float("inf"))
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            SimConfig(noise_sigma=float("nan"))

    def test_no_setting_weighs_a_held_route_against_a_new_one(self):
        # A dyn_astar vehicle takes each new search's route: no margin is set.
        with pytest.raises(TypeError):
            SimConfig(hysteresis=0.01)
        trace = run_simulation(load_scenario(scenario_doc(**LINE)), SimConfig())
        assert sorted(trace.config) == [
            "alpha", "epoch_s", "horizon_s", "noise_sigma", "share_observations"]

    def test_epoch_count_is_capped(self):
        # A 1e-300 s epoch would step 1e306 times and never end.
        with pytest.raises(ValueError, match="more than 10,000,000 epochs of 1e-300 s"):
            SimConfig(epoch_s=1e-300)
        with pytest.raises(ValueError, match="epochs"):
            SimConfig(horizon_s=MAX_EPOCHS * 30.0 * 2)
        assert SimConfig(horizon_s=MAX_EPOCHS * 30.0).horizon_s == 3e8


class TestEventTiming:
    def test_edge_cost_frozen_at_entry(self):
        # congestion lands at t=30 while the vehicle is halfway along e1;
        # the in-progress traversal keeps its entry cost
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 25.0, "kind": "set_congestion", "target": "e1", "value": 10.0}],
        )
        (v,) = run(doc).vehicles
        assert v["status"] == ARRIVED
        assert v["realized_cost_s"] == pytest.approx(150.0)

    def test_event_applies_at_next_boundary(self):
        # t_s=31 means nothing changes until the t=60 boundary; the vehicle
        # enters e2 at t=50 at the old price
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 31.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        )
        (v,) = run(doc).vehicles
        assert v["realized_cost_s"] == pytest.approx(150.0)
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        )
        (v,) = run(doc).vehicles
        assert v["realized_cost_s"] == pytest.approx(50.0 + 500.0 + 50.0)

    def test_epoch_log_records_applied_events(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 31.0, "kind": "set_congestion", "target": "e3", "value": 2.0}],
        )
        trace = run(doc)
        by_epoch = {ep["t_s"]: ep["events_applied"] for ep in trace.epochs}
        assert by_epoch[0.0] == ()
        assert by_epoch[30.0] == ()
        assert [e["target"] for e in by_epoch[60.0]] == ["e3"]


class TestReplanningAdvantage:
    CONGEST = [{"t_s": 30.0, "kind": "set_congestion", "target": "e2", "value": 10.0}]
    BLOCK = [{"t_s": 30.0, "kind": "block_edge", "target": "e2"}]

    def test_dyn_diverts_around_broadcast_congestion(self):
        (v,) = run(scenario_doc(**FORK, events=self.CONGEST)).vehicles
        assert v["path"] == ["a", "b", "c", "d"]
        assert v["realized_cost_s"] == pytest.approx(170.0)
        assert v["replans"] >= 2

    def test_static_astar_pays_the_congestion(self):
        (v,) = run(scenario_doc(**FORK, events=self.CONGEST), algorithm="astar").vehicles
        assert v["path"] == ["a", "b", "d"]
        assert v["realized_cost_s"] == pytest.approx(550.0)
        assert v["replans"] == 0

    def test_dyn_survives_blockage(self):
        (v,) = run(scenario_doc(**FORK, events=self.BLOCK)).vehicles
        assert v["status"] == ARRIVED
        assert v["path"] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("algo", ["ucs", "astar", "greedy"])
    def test_single_shot_planner_strands_on_blockage(self, algo):
        (v,) = run(scenario_doc(**FORK, events=self.BLOCK), algorithm=algo).vehicles
        assert v["status"] == STRANDED
        assert v["path"][-1] == "b"

    def test_horizon_strands_unfinished_vehicles(self):
        (v,) = run(scenario_doc(**LINE), horizon_s=60.0).vehicles
        assert v["status"] == STRANDED

    # The run steps the epochs that open before the horizon, by the
    # timeline's clock: a horizon a hair past a boundary opens one more.
    @pytest.mark.parametrize("horizon_s, epochs", [(59.9999999, 2), (60.0, 2), (60.0000001, 3)])
    def test_horizon_counts_epochs_by_the_clock(self, horizon_s, epochs):
        trace = run(scenario_doc(**LINE), horizon_s=horizon_s)
        (v,) = trace.vehicles
        assert v["status"] == STRANDED
        assert len(trace.epochs) == epochs

    # A vehicle that departs at or after the horizon never moves, so the run
    # ends with the last one that can: v1 arrives at d at 150 s, in epoch 4.
    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("depart_s", [3000.0, 1e308])
    def test_run_ends_when_no_vehicle_en_route_departs_before_the_horizon(self, algo, depart_s):
        queries = [{"vehicle": v, "start": "a", "goal": "d", "depart_s": t,
                    "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}
                   for v, t in (("v1", 0.0), ("v2", depart_s))]
        trace = run(scenario_doc(**LINE, queries=queries), algo, horizon_s=3000.0)
        v1, v2 = trace.vehicles
        assert (v1["status"], v1["arrival_s"]) == (ARRIVED, 150.0)
        assert (v2["status"], v2["path"]) == (STRANDED, [])
        assert [e["t_s"] for e in trace.epochs] == [0.0, 30.0, 60.0, 90.0, 120.0]


class TestObservationSharing:
    def _fixture(self, scenario_dir):
        return load_scenario((scenario_dir / "sharing_fixture.scn").read_text())

    def test_followers_benefit_from_shared_reports(self, scenario_dir):
        scn = self._fixture(scenario_dir)
        shared = run_simulation(scn, SimConfig(share_observations=True))
        alone = run_simulation(scn, SimConfig(share_observations=False))
        cost = lambda t: {v["vehicle"]: v["realized_cost_s"] for v in t.vehicles}
        assert all(v["status"] == ARRIVED for v in shared.vehicles)
        assert all(v["status"] == ARRIVED for v in alone.vehicles)
        assert cost(shared)["tail"] < cost(alone)["tail"]
        # leader cannot benefit from its own late discovery
        assert cost(shared)["lead"] == pytest.approx(cost(alone)["lead"])

    def test_sensed_only_event_hidden_without_sharing(self, scenario_dir):
        scn = self._fixture(scenario_dir)
        trace = run_simulation(scn, SimConfig(share_observations=False))
        follower = next(v for v in trace.vehicles if v["vehicle"] == "tail")
        # without shared reports the follower drives straight into the
        # hidden congestion
        assert "x" in follower["path"] and "y" in follower["path"]

    @staticmethod
    def _fork_doc(h2, events):
        """lead departs at 0 and tail at 60, both from s to g with w2 = 1,
        past m (50 s + 50 s) or n (75 s + 75 s); lead reaches m at t=50."""
        return scenario_doc(
            nodes=[("s", 0.0, 0.0), ("m", 500.0, 100.0), ("n", 500.0, -100.0),
                   ("g", 1000.0, 0.0)],
            edges=[("e1", "s", "m", 510.0, 50.0), ("e2", "m", "g", 510.0, 50.0),
                   ("e3", "s", "n", 510.0, 75.0), ("e4", "n", "g", 510.0, 75.0)],
            h2=h2, events=events,
            queries=[{"vehicle": v, "start": "s", "goal": "g", "depart_s": t,
                      "weights": {"wg": 1, "w1": 1, "w2": 1, "w3": 0}, "context": {}}
                     for v, t in (("lead", 0.0), ("tail", 60.0))])

    def test_sharing_reaches_a_hidden_node_penalty(self):
        # lead pays m's hidden h2 of 200 and reports it; at alpha 0.3 the
        # belief reads 60 there, which puts m behind the 150 s detour past n.
        scn = load_scenario(self._fork_doc({}, [
            {"t_s": 0.0, "kind": "set_node_comfort_h", "target": "m", "value": 200.0,
             "sensed_only": True}]))
        shared = {v["vehicle"]: v for v in run_simulation(scn, SimConfig()).vehicles}
        alone = {v["vehicle"]: v for v in
                 run_simulation(scn, SimConfig(share_observations=False)).vehicles}
        assert shared["lead"]["path"] == alone["lead"]["path"] == ["s", "m", "g"]
        assert alone["tail"]["path"] == ["s", "m", "g"]
        assert alone["tail"]["realized_cost_s"] == 300.0
        assert shared["tail"]["path"] == ["s", "n", "g"]
        assert shared["tail"]["realized_cost_s"] == 150.0

    @pytest.mark.parametrize("noise_sigma", [0.0, 2.0])
    def test_set_comfort_changes_no_vehicle_record(self, noise_sigma):
        # lead crosses e1 into m, whose h2 of 30 is what it pays and reports
        # either way; tail would take n if the belief of m rose past 50.
        cfg = SimConfig(noise_sigma=noise_sigma)
        comfort = [{"t_s": 0.0, "kind": "set_comfort", "target": "e1", "value": 100.0}]
        with_event = run_simulation(load_scenario(self._fork_doc({"m": 30.0}, comfort)), cfg)
        without = run_simulation(load_scenario(self._fork_doc({"m": 30.0}, [])), cfg)
        assert with_event.vehicles == without.vehicles
        assert len(with_event.epochs[0]["events_applied"]) == 1

    def test_ingestion_shows_up_in_epoch_log(self, scenario_dir):
        scn = self._fixture(scenario_dir)
        trace = run_simulation(scn, SimConfig(share_observations=True))
        assert sum(ep["observations_ingested"] for ep in trace.epochs) > 0
        off = run_simulation(scn, SimConfig(share_observations=False))
        assert sum(ep["observations_ingested"] for ep in off.epochs) == 0

    def test_smoothing_alpha_survives_a_save_and_reload(self, scenario_dir):
        scn = self._fixture(scenario_dir)
        fld = scn.initial_field.copy()
        fld.smoothing_alpha = 0.5
        scn = Scenario(scn.graph, fld, scn.events, scn.queries, scn.name, scn.seed)
        trace = run_simulation(scn).to_dict()
        assert trace["config"]["alpha"] == 0.5
        again = load_scenario(serialize_scenario(scn))
        assert again.initial_field.smoothing_alpha == 0.5
        assert run_simulation(again).to_dict() == trace


def _sub_second_line(seed):
    """One vehicle down ten 0.5 s edges, all of them crossed in epoch 0."""
    ids = [f"n{i}" for i in range(11)]
    doc = json.loads(scenario_doc(
        nodes=[(n, 5.0 * i, 0.0) for i, n in enumerate(ids)],
        edges=[(f"e{i}", u, v, 5.0, 0.5) for i, (u, v) in enumerate(zip(ids, ids[1:]))],
        queries=[{"vehicle": "v1", "start": "n0", "goal": "n10", "depart_s": 0.0,
                  "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}]))
    doc["meta"]["seed"] = seed
    return load_scenario(json.dumps(doc))


def _epoch_0_reports(scn, noise_sigma):
    """Epoch 0's reports as (edge, time, comfort), and the simulation once
    epoch 1 has ingested them."""
    sim = Simulation(scn, SimConfig(noise_sigma=noise_sigma))
    sim.step_epoch()
    reports = [(o.edge_id, o.observed_travel_time, o.observed_comfort) for o in sim.obs_queue]
    sim.step_epoch()
    return reports, sim


class TestReportNoise:
    def test_a_noisy_report_is_the_price_plus_the_draw_unclipped(self):
        reports, sim = _epoch_0_reports(_sub_second_line(7), 2.0)
        draws = random.Random(7)  # the scenario's seed
        assert reports == [(f"e{i}", 0.5 + draws.gauss(0, 2.0), 0.0 + draws.gauss(0, 2.0))
                           for i in range(10)]
        assert any(time < 0 for _, time, _ in reports)
        # the estimates a report moves are clipped, at free flow and at h2 0
        congestion = sim.belief_graph.congestion
        assert all(congestion[eid] == 1.0 for eid, time, _ in reports if time < 0)
        assert min(congestion.values()) == 1.0
        assert min(sim.belief_field.h2_by_node.values(), default=0.0) >= 0.0

    def test_report_noise_comes_from_the_scenario_seed(self):
        assert "seed" not in {f.name for f in dataclasses.fields(SimConfig)}
        seven, eight = (_epoch_0_reports(_sub_second_line(s), 2.0)[0] for s in (7, 8))
        assert seven != eight
        assert seven == _epoch_0_reports(_sub_second_line(7), 2.0)[0]
        trace = run_simulation(_sub_second_line(7), SimConfig(noise_sigma=2.0))
        assert trace.seed == 7 and "seed" not in trace.config

    def test_reports_draw_their_noise_in_vehicle_id_order(self):
        # b is on its 100 s road from t=0; a joins at t=90 and crosses its
        # three 0.5 s edges. Both report in epoch 3 (t=90 to 120), and the
        # four reports draw from the scenario seed's stream in vehicle id
        # order, a's first, though b joined first. Epoch 4 fuses them.
        doc = scenario_doc(
            nodes=[("a0", 0.0, 0.0), ("a1", 5.0, 0.0), ("a2", 10.0, 0.0), ("a3", 15.0, 0.0),
                   ("b0", 0.0, 100.0), ("b1", 1000.0, 100.0)],
            edges=[("ea0", "a0", "a1", 5.0, 0.5), ("ea1", "a1", "a2", 5.0, 0.5),
                   ("ea2", "a2", "a3", 5.0, 0.5), ("eb0", "b0", "b1", 1000.0, 100.0)],
            queries=[{"vehicle": v, "start": s, "goal": g, "depart_s": t,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}
                     for v, s, g, t in (("a", "a0", "a3", 90.0), ("b", "b0", "b1", 0.0))])
        sim = Simulation(load_scenario(doc), SimConfig(noise_sigma=2.0))
        for _ in range(5):
            sim.step_epoch()
        assert sim.epoch_log[4]["observations_ingested"] == 4
        draws, alpha = random.Random(7), 0.3  # the scenario's seed and alpha
        congestion, h2 = {}, {}
        for eid, head, price in (("ea0", "a1", 0.5), ("ea1", "a2", 0.5), ("ea2", "a3", 0.5),
                                 ("eb0", "b1", 100.0)):
            time, comfort = price + draws.gauss(0, 2.0), 0.0 + draws.gauss(0, 2.0)
            congestion[eid] = max(1.0, (1 - alpha) * 1.0 + alpha * (time / price))
            h2[head] = max(0.0, (1 - alpha) * 0.0 + alpha * comfort)
        assert sim.belief_graph.congestion == congestion
        assert {n: sim.belief_field.h2_by_node.get(n, 0.0) for n in h2} == h2
        assert congestion["eb0"] == pytest.approx(1.0066715)


class TestDeterminism:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_identical_traces_across_runs(self, algo, scenario_dir):
        scn = load_scenario((scenario_dir / "sharing_fixture.scn").read_text())
        a = run_simulation(scn, SimConfig(), algo).to_dict()
        b = run_simulation(scn, SimConfig(), algo).to_dict()
        assert a == b

    def test_noisy_observations_still_deterministic(self, scenario_dir):
        scn = load_scenario((scenario_dir / "sharing_fixture.scn").read_text())
        cfg = SimConfig(noise_sigma=2.0)
        a = run_simulation(scn, cfg).to_dict()
        b = run_simulation(scn, cfg).to_dict()
        assert a == b

    def test_changing_to_dict_leaves_the_trace_unchanged(self, scenario_dir):
        scn = load_scenario((scenario_dir / "sharing_fixture.scn").read_text())
        trace = run_simulation(scn, SimConfig())
        before = json.dumps(trace.to_dict(), sort_keys=True)
        d = trace.to_dict()
        for v in d["vehicles"]:
            del v["expanded"]
            v["path"].clear()
        d["config"]["alpha"] = 1.0
        d["epochs"][0]["events_applied"][0]["value"] = 0.0
        assert json.dumps(trace.to_dict(), sort_keys=True) == before

    def test_vehicle_output_sorted_by_id(self, scenario_dir):
        scn = load_scenario((scenario_dir / "sharing_fixture.scn").read_text())
        trace = run_simulation(scn, SimConfig())
        ids = [v["vehicle"] for v in trace.vehicles]
        assert ids == sorted(ids)


class TestTruthTimeline:
    def test_event_effective_epoch(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 31.0, "kind": "set_congestion", "target": "e2", "value": 3.0}],
        )
        tl = TruthTimeline(load_scenario(doc), 30.0)
        assert _effective_time(tl.at_time(59.9), "e2") == 50.0  # free flow
        assert _effective_time(tl.at_time(60.0), "e2") == 150.0  # 3x congested
        assert _effective_time(tl.at_time(500.0), "e2") == 150.0

    def test_boundary_event_is_immediate(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 30.0, "kind": "block_edge", "target": "e3"}],
        )
        tl = TruthTimeline(load_scenario(doc), 30.0)
        assert _effective_time(tl.at_time(29.0), "e3") == 50.0
        assert _effective_time(tl.at_time(30.0), "e3") is None  # blocked

    def test_states_share_unchanged_overlays(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 20.0, "kind": "set_congestion", "target": "e2", "value": 3.0},
                    {"t_s": 30.0, "kind": "set_congestion", "target": "e3", "value": 2.0},
                    {"t_s": 60.0, "kind": "block_edge", "target": "e1"}],
        )
        tl = TruthTimeline(load_scenario(doc), 30.0)
        free, congested, blocked = tl.at_epoch(0), tl.at_epoch(1), tl.at_epoch(2)
        a, b, c, d = range(4)  # LINE's nodes in index order; e1..e3 leave a..c
        assert [_effective_time(congested, e) for e in ("e1", "e2", "e3")] == [50.0, 150.0, 100.0]
        assert congested.arcs[b] is not free.arcs[b] and congested.arcs[c] is not free.arcs[c]
        assert congested.arcs[a] is free.arcs[a] and congested.arcs[d] is free.arcs[d]
        assert congested.h2_at is free.h2_at and congested.h3_at is free.h3_at
        assert _effective_time(blocked, "e1") is None and blocked.arcs[a] == ()
        assert blocked.arcs[1:] == congested.arcs[1:]
        assert all(x is y for x, y in zip(blocked.arcs[1:], congested.arcs[1:]))
        # Congestion and blocking events leave the penalties alone: one array each.
        assert blocked.h2_at is free.h2_at and blocked.h3_at is free.h3_at

    def test_a_comfort_state_shares_every_row_with_the_one_before(self):
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 0.0, "kind": "set_congestion", "target": "e1", "value": 2.0},
                    {"t_s": 30.0, "kind": "set_comfort", "target": "e2", "value": 25.0},
                    {"t_s": 30.0, "kind": "set_comfort", "target": "e3", "value": 0.0},
                    {"t_s": 60.0, "kind": "set_comfort", "target": "e2", "value": 25.0},
                    {"t_s": 90.0, "kind": "set_comfort", "target": "e2", "value": 0.0}],
        )
        tl = TruthTimeline(load_scenario(doc), 30.0)
        first, comfort, same, cleared = (tl.at_epoch(k) for k in range(4))
        # Nothing holds edge comfort: these states share every row and entry.
        for state in (comfort, same, cleared):
            assert all(x is y for x, y in zip(state.arcs, first.arcs))
            assert state.h2_at is first.h2_at and state.h3_at is first.h3_at

    def test_timeline_memory_is_what_its_events_changed(self):
        # 300 mixed events on a 30x30 grid (3,480 edges), in 139 states. Each
        # state holds only the rows its epoch's events changed: 1.1 MB here,
        # where states holding whole id-keyed congestion and comfort copies
        # took 13.5 MB.
        rng = random.Random(5)
        graph = make_grid(30, 30, 100.0, 10.0)
        edges, nodes = sorted(graph.edges), sorted(graph.nodes)
        events = []
        for _ in range(300):
            kind = rng.choice(("set_congestion", "set_congestion", "set_comfort",
                               "set_node_comfort_h", "block_edge", "unblock_edge"))
            target = rng.choice(nodes if kind == "set_node_comfort_h" else edges)
            value = {"set_congestion": rng.uniform(1.0, 4.0), "set_comfort": rng.uniform(0, 60),
                     "set_node_comfort_h": rng.uniform(0, 60)}.get(kind)
            events.append(Event(round(rng.uniform(0.0, 4800.0), 1), kind, target, value))
        events.sort(key=lambda ev: ev.at_time)
        scn = Scenario(graph, HeuristicField(), tuple(events), (), "memory", 0)
        tracemalloc.start()
        try:
            timeline = TruthTimeline(scn, 30.0)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(timeline._starts) > 100
        assert held < 3_500_000, f"timeline holds {held:,} bytes"

    def test_shared_timeline_gives_the_same_traces(self, scenario_dir):
        scn = load_scenario((scenario_dir / "grid10_congestion.scn").read_text())
        cfg = SimConfig()
        truth = TruthTimeline(scn, cfg.epoch_s)
        for algo in ALGORITHMS:
            assert run_simulation(scn, cfg, algo, truth) == run_simulation(scn, cfg, algo)

    def test_simulation_rejects_timeline_of_another_epoch(self):
        scn = load_scenario(scenario_doc(**LINE))
        with pytest.raises(ValueError, match="30.0 s epochs, config 15.0 s"):
            Simulation(scn, SimConfig(epoch_s=15.0), truth=TruthTimeline(scn, 30.0))
        with pytest.raises(ValueError, match="30.0 s epochs, config 15.0 s"):
            replay_realized_cost(scn, SimConfig(epoch_s=15.0), "v1", ["a", "b"], 0.0,
                                 TruthTimeline(scn, 30.0))

    def test_replay_rejects_a_path_it_cannot_walk(self):
        scn = load_scenario(scenario_doc(**LINE))
        for path, hop in ((["a", "b", "a"], "'b' -> 'a'"), (["a", "c"], "'a' -> 'c'")):
            with pytest.raises(ValueError, match=rf"^replay: no unblocked edge {hop} at t="):
                replay_realized_cost(scn, SimConfig(), "v1", path, 0.0)

    def test_replay_matches_simulated_cost(self, scenario_dir):
        for name in ("sharing_fixture.scn", "grid10_congestion.scn"):
            scn = load_scenario((scenario_dir / name).read_text())
            cfg = SimConfig()
            truth = TruthTimeline(scn, cfg.epoch_s)
            trace = run_simulation(scn, cfg, truth=truth)
            departs = {q.vehicle: q.depart_s for q in scn.queries}
            for v in trace.vehicles:
                assert v["status"] == ARRIVED
                replayed = replay_realized_cost(
                    scn, cfg, v["vehicle"], v["path"], departs[v["vehicle"]], truth
                )
                assert replayed == pytest.approx(v["realized_cost_s"])
                assert replayed == replay_realized_cost(
                    scn, cfg, v["vehicle"], v["path"], departs[v["vehicle"]])


# How far an edge time or a departure misses a multiple of the 30 s epoch:
# exactly, inside the timeline's 1e-12-epoch tolerance, and either side of 1e-9 s.
OFF_BOUNDARY = st.builds(lambda d, sign: d * sign, st.sampled_from((0.0, 1e-11, 5e-10, 2e-9)),
                         st.sampled_from((-1.0, 1.0)))


@st.composite
def boundary_aligned_docs(draw):
    """Small scenarios whose event times are multiples of the 30 s epoch and
    whose edge times and departures are too or miss one by a hair, so
    arrivals land on epoch boundaries or just either side of them."""
    n = draw(st.integers(3, 5))
    ids = [f"n{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]  # a forward chain keeps goals reachable
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=5,
    ))
    edges = [
        (f"e{k}", ids[i], ids[j], 300.0 * abs(i - j),
         draw(st.sampled_from((30.0, 60.0))) + draw(OFF_BOUNDARY))
        for k, (i, j) in enumerate(pairs)
    ]
    edge_ids = [e[0] for e in edges]
    events = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from((
            "set_congestion", "set_comfort", "set_node_comfort_h", "set_node_comfort_h",
            "block_edge", "unblock_edge",
        )))
        ev = {"t_s": 30.0 * draw(st.integers(0, 6)), "kind": kind,
              "target": draw(st.sampled_from(ids if kind == "set_node_comfort_h" else edge_ids)),
              "sensed_only": draw(st.booleans())}
        if kind == "set_congestion":
            ev["value"] = draw(st.sampled_from((1.0, 2.0, 3.0)))
        elif kind in ("set_comfort", "set_node_comfort_h"):
            ev["value"] = draw(st.sampled_from((0.0, 25.0, 100.0)))
        events.append(ev)
    events.sort(key=lambda ev: ev["t_s"])
    queries = []
    for k in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, n - 2))
        queries.append({
            "vehicle": f"v{k}", "start": ids[start], "goal": ids[draw(st.integers(start + 1, n - 1))],
            "depart_s": abs(30.0 * draw(st.integers(0, 2)) + draw(OFF_BOUNDARY)),
            "weights": {"wg": 1, "w1": 1, "w2": draw(st.sampled_from((0, 1))), "w3": 0},
            "context": {"prefers_comfort": draw(st.booleans())},
        })
    return scenario_doc(
        nodes=[(i, 300.0 * k, 0.0) for k, i in enumerate(ids)], edges=edges, events=events,
        queries=queries, h2=draw(st.dictionaries(st.sampled_from(ids), st.sampled_from((0.0, 10.0)))),
    )


class TestOneTruthModel:
    def test_boundary_arrival_pays_the_later_epochs_penalty(self):
        # each arrival lands on the boundary whose event raises that node's
        # penalty, so simulator, replay and oracle all charge both penalties
        doc = scenario_doc(
            nodes=[("a", 0.0, 0.0), ("b", 300.0, 0.0), ("c", 600.0, 0.0)],
            edges=[("e1", "a", "b", 300.0, 30.0), ("e2", "b", "c", 300.0, 30.0)],
            events=[
                {"t_s": 30.0, "kind": "set_node_comfort_h", "target": "b", "value": 100.0},
                {"t_s": 60.0, "kind": "set_node_comfort_h", "target": "c", "value": 100.0},
            ],
            queries=[{"vehicle": "v1", "start": "a", "goal": "c", "depart_s": 0.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        )
        scn, cfg = load_scenario(doc), SimConfig()
        truth = TruthTimeline(scn, cfg.epoch_s)
        (v,) = run_simulation(scn, cfg, truth=truth).vehicles
        assert v["realized_cost_s"] == pytest.approx(260.0)
        assert replay_realized_cost(scn, cfg, "v1", v["path"], 0.0, truth) == pytest.approx(260.0)
        assert offline_optimal(scn, scn.queries[0], truth).optimal_realized_cost \
            == pytest.approx(260.0)

    # 5e-10 s before a boundary lies inside a 1e-9 s tolerance but outside the
    # timeline's, so that instant belongs to the earlier epoch everywhere: the
    # arrival at b pays b's penalty before it drops, and the departure enters
    # e1 before its congestion starts. 1e-11 s before lies inside the
    # timeline's tolerance: that arrival enters e2 in the later epoch.
    @pytest.mark.parametrize("e1_s, depart_s, event, h2, cost", [
        (29.9999999995, 0.0, ("set_node_comfort_h", "b", 0.0), {"b": 100.0}, 139.9999999995),
        (10.0, 29.9999999995, ("set_congestion", "e1", 5.0), {}, 20.0),
        (29.99999999999, 0.0, ("set_congestion", "e2", 5.0), {}, 79.99999999999),
    ], ids=["arrival", "departure", "arrival-in-tolerance"])
    def test_an_instant_just_before_a_boundary_is_priced_in_its_own_epoch(
            self, e1_s, depart_s, event, h2, cost):
        kind, target, value = event
        doc = scenario_doc(
            nodes=[("a", 0.0, 0.0), ("b", 100.0, 0.0), ("c", 200.0, 0.0)],
            edges=[("e1", "a", "b", 100.0, e1_s), ("e2", "b", "c", 100.0, 10.0)],
            events=[{"t_s": 30.0, "kind": kind, "target": target, "value": value}], h2=h2,
            queries=[{"vehicle": "v1", "start": "a", "goal": "c", "depart_s": depart_s,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        )
        scn, cfg = load_scenario(doc), SimConfig()
        truth = TruthTimeline(scn, cfg.epoch_s)
        for algo in ALGORITHMS:
            (v,) = run_simulation(scn, cfg, algo, truth).vehicles
            assert v["status"] == ARRIVED
            assert v["realized_cost_s"] == pytest.approx(cost)
            assert replay_realized_cost(scn, cfg, "v1", v["path"], depart_s, truth) \
                == pytest.approx(cost)
            assert offline_optimal(scn, scn.queries[0], truth).optimal_realized_cost \
                <= cost + 1e-6

    def _line_walk(self, edge_times, horizon_s=1e6, events=(), h2=None):
        """Every algorithm's trace of one trip along a line of edges, each
        run checked to cost exactly what replay of its path costs."""
        ids = "abcdefg"[:len(edge_times) + 1]
        scn = load_scenario(scenario_doc(
            nodes=[(n, 100.0 * i, 0.0) for i, n in enumerate(ids)],
            edges=[(f"e{i}", ids[i], ids[i + 1], 100.0, t) for i, t in enumerate(edge_times)],
            events=events, h2=h2,
            queries=[{"vehicle": "v1", "start": "a", "goal": ids[-1], "depart_s": 0.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        ))
        cfg = SimConfig(horizon_s=horizon_s)
        truth = TruthTimeline(scn, cfg.epoch_s)
        traces = []
        for algo in ALGORITHMS:
            sim = Simulation(scn, cfg, algo, truth)
            (v,) = sim.run().vehicles
            assert sim.vehicles[0].realized_cost \
                == replay_realized_cost(scn, cfg, "v1", v["path"], 0.0, truth)
            if v["status"] == ARRIVED:
                assert offline_optimal(scn, scn.queries[0], truth).optimal_realized_cost \
                    <= v["realized_cost_s"] + 1e-6
            traces.append(v)
        return traces

    def test_an_edge_ending_just_past_a_boundary_is_paid_whole(self):
        # 9e-10 s past t=30 lies inside a 1e-9 s tolerance but outside the
        # timeline's, so the vehicle arrives in epoch 1 and pays all of it.
        for v in self._line_walk([30.0000000009]):
            assert v["status"] == ARRIVED
            assert v["realized_cost_s"] == v["arrival_s"] == 30.000000001

    def test_a_vehicle_stranded_mid_edge_has_paid_only_finished_edges(self):
        for v in self._line_walk([100.0], horizon_s=60.0):
            assert v["status"] == STRANDED
            assert v["path"] == ["a"]
            assert v["realized_cost_s"] == 0.0

    def test_a_vehicle_drives_on_from_its_arrival_instant(self):
        # Each edge is 1e-11 s short of 30 s, inside the timeline's tolerance,
        # so each arrival belongs to the next epoch. Driving on from each
        # arrival instant, as replay does, the vehicle reaches e 4e-11 s before
        # t=120, in epoch 3, and pays e's penalty before the t=120 event drops
        # it. Had it waited for each boundary it would reach e at t=120 and
        # pay 100 s less than the oracle's optimum.
        for v in self._line_walk(
                [30.0 - 1e-11] * 4, h2={"e": 100.0},
                events=[{"t_s": 120.0, "kind": "set_node_comfort_h", "target": "e", "value": 0.0}]):
            assert v["status"] == ARRIVED
            assert v["realized_cost_s"] == v["arrival_s"] + 100.0 == 220.0

    def test_costs_add_up_in_replays_order(self):
        # Price, then penalty, edge by edge: adding each penalty before its
        # price would give 0.6 here, where replay gives 0.6000000000000001.
        for v in self._line_walk([0.1, 0.1], h2={"b": 0.1, "c": 0.3}):
            assert v["status"] == ARRIVED


@st.composite
def grid_fleet_docs(draw):
    """Boundary-aligned scenarios on a small two-way grid: several vehicles,
    edges of one to three epochs and frequent changes, so a vehicle's reads
    often change just inside or just outside what its search expanded."""
    rows, cols = draw(st.integers(2, 3)), draw(st.integers(3, 4))
    ids = [f"n{r}{c}" for r in range(rows) for c in range(cols)]
    pairs = [(f"n{r}{c}", f"n{r + dr}{c + dc}") for r in range(rows) for c in range(cols)
             for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
             if 0 <= r + dr < rows and 0 <= c + dc < cols]
    edges = [(f"e{k:02d}", u, v, 300.0, draw(st.sampled_from((30.0, 60.0, 90.0))))
             for k, (u, v) in enumerate(pairs)]
    events = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from((
            "set_congestion", "set_congestion", "set_comfort", "set_node_comfort_h",
            "set_node_comfort_h", "block_edge", "unblock_edge",
        )))
        ev = {"t_s": 30.0 * draw(st.integers(0, 8)), "kind": kind,
              "target": draw(st.sampled_from(ids if kind == "set_node_comfort_h"
                                             else [e[0] for e in edges])),
              "sensed_only": draw(st.booleans())}
        if kind == "set_congestion":
            ev["value"] = draw(st.sampled_from((1.0, 1.5, 3.0)))
        elif kind in ("set_comfort", "set_node_comfort_h"):
            ev["value"] = draw(st.sampled_from((0.0, 10.0, 40.0)))
        events.append(ev)
    events.sort(key=lambda ev: ev["t_s"])
    queries = []
    for k in range(draw(st.integers(1, 5))):
        start, goal = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        queries.append({
            "vehicle": f"v{k}", "start": start, "goal": goal,
            "depart_s": 30.0 * draw(st.integers(0, 3)),
            "weights": {"wg": 1, "w1": 1, "w2": draw(st.sampled_from((0, 1, 2))), "w3": 0},
            "context": {"prefers_comfort": draw(st.booleans())},
        })
    return scenario_doc(
        nodes=[(i, 300.0 * int(i[2]), 300.0 * int(i[1])) for i in ids], edges=edges,
        events=events, queries=queries,
        h2=draw(st.dictionaries(st.sampled_from(ids), st.sampled_from((0.0, 10.0, 40.0)))),
    )


# A 2x4 grid on which a vehicle from n01 is handed n02-n03-n13 at n02, where
# a new search returns n02-n12-n13: both take 90 s and weigh 90, so with h2 in
# the priority a kept path need not be a new search's past its own origin.
DIVERGING_HAND_ON = scenario_doc(
    nodes=[(f"n{r}{c}", 300.0 * c, 300.0 * r) for r in range(2) for c in range(4)],
    edges=[(f"e{k:02d}", "n" + hop[:2], "n" + hop[3:5], 300.0, float(hop[6:]))
           for k, hop in enumerate((
               "00>01:30 00>10:30 01>02:30 01>11:30 01>00:30 02>03:60 02>12:30 02>01:30 "
               "03>13:30 03>02:30 10>11:30 10>00:30 11>12:90 11>10:30 11>01:30 12>13:60 "
               "12>11:30 12>02:30 13>12:30 13>03:30").split())],
    h2={"n02": 40.0},
    queries=[{"vehicle": "v0", "start": "n01", "goal": "n13", "depart_s": 0.0,
              "weights": {"wg": 1, "w1": 1, "w2": 2, "w3": 0}, "context": {}}],
)


def _assert_runs_match_the_reference(scn, cfg, truth):
    """Every algorithm's trace of ``scn`` under ``cfg`` equals the reference
    simulator's. Each vehicle has paid exactly what replay of its path on
    ``truth`` charges, and an arrived one no less than its oracle cost."""
    queries = {q.vehicle: q for q in scn.queries}
    oracle = {}
    for algo in ALGORITHMS:
        sim = Simulation(scn, cfg, algo, truth)
        assert sim.run().to_dict() == reference_trace(scn, cfg, algo)
        for v in sim.vehicles:
            q = queries[v.id]
            assert replay_realized_cost(scn, cfg, v.id, v.path_taken, q.depart_s, truth) \
                == v.realized_cost
            if v.status == ARRIVED:
                if v.id not in oracle:
                    oracle[v.id] = offline_optimal(scn, q, truth).optimal_realized_cost
                assert oracle[v.id] <= v.realized_cost + 1e-6


class TestReferenceSimulator:
    """The simulator's trace of every run equals that of the reference
    simulator in ``tests/reference_sim.py``, which checks each route a
    ``dyn_astar`` vehicle hands on against a new search."""

    def test_committed_scenarios(self, scenario_dir):
        for path in sorted(scenario_dir.glob("**/*.scn")):
            scn = load_scenario(path.read_bytes())
            truth = TruthTimeline(scn, SimConfig.epoch_s)
            for share in (True, False):
                _assert_runs_match_the_reference(scn, SimConfig(share_observations=share), truth)

    # Short horizons strand vehicles mid-edge; a stranded trace replays too.
    @settings(max_examples=300, deadline=None)
    @given(doc=st.one_of(boundary_aligned_docs(), grid_fleet_docs()), share=st.booleans(),
           noise=st.sampled_from((0.0, 0.0, 3.0)), epoch_s=st.sampled_from((15.0, 30.0, 45.0)),
           horizon_s=st.sampled_from((90.0, 150.0, 3000.0)))
    @example(doc=DIVERGING_HAND_ON, share=False, noise=0.0, epoch_s=30.0, horizon_s=3000.0)
    def test_generated_documents(self, doc, share, noise, epoch_s, horizon_s):
        scn = load_scenario(doc)
        truth = TruthTimeline(scn, epoch_s)
        _assert_only_varying_nodes_vary(scn, truth)
        _assert_runs_match_the_reference(scn, SimConfig(
            epoch_s=epoch_s, share_observations=share, horizon_s=horizon_s, noise_sigma=noise),
            truth)


def _plan_calls(scn, cfg=SimConfig()):
    """The vehicles of a ``dyn_astar`` run of ``scn``, checked to equal the
    reference simulator's, and the reference's log of every plan call."""
    plans: list[PlanCall] = []
    trace = reference_trace(scn, cfg, "dyn_astar", plans)
    assert run_simulation(scn, cfg).to_dict() == trace
    return trace["vehicles"], plans


def _origins(plans, searched=True):
    """Where the logged searches ran, or where routes were handed on."""
    return [p.origin for p in plans if p.searched == searched]


class TestSearchReuse:
    """A dyn_astar vehicle holds its route while nothing its last search read
    has changed, and drives on along it without searching."""

    # a-b is a 90 s edge, so the vehicle plans from b in the two epochs after
    # the one it departs in. The route runs a-b-c-d (80 s from b); the side
    # road b-w-d starts out dearer, so the search pushes w but never expands
    # it. At t=60 the side road becomes the cheaper one: the kept search is
    # then stale.
    SIDE_ROAD = dict(
        nodes=[("a", 0.0, 0.0), ("b", 300.0, 0.0), ("c", 450.0, 100.0),
               ("w", 450.0, 0.0), ("d", 600.0, 0.0)],
        edges=[("e1", "a", "b", 300.0, 90.0), ("e2", "b", "c", 300.0, 40.0),
               ("e3", "c", "d", 300.0, 40.0), ("e4", "b", "w", 150.0, 30.0),
               ("e5", "w", "d", 150.0, 30.0)],
    )

    @staticmethod
    def _query(vehicle, start, depart_s=0.0):
        return {"vehicle": vehicle, "start": start, "goal": "d", "depart_s": depart_s,
                "weights": {"wg": 1, "w1": 1, "w2": 1, "w3": 0}, "context": {}}

    @pytest.mark.parametrize("events, h2", [
        ([{"t_s": 0.0, "kind": "set_congestion", "target": "e4", "value": 3.0},
          {"t_s": 60.0, "kind": "set_congestion", "target": "e4", "value": 1.0}], {}),
        ([{"t_s": 60.0, "kind": "set_node_comfort_h", "target": "w", "value": 0.0}],
         {"w": 100.0}),
    ], ids=["side-edge-congestion", "unexpanded-node-h2"])
    def test_a_change_next_to_the_kept_search_makes_it_stale(self, events, h2):
        scn = load_scenario(scenario_doc(**self.SIDE_ROAD, events=events, h2=h2,
                                         queries=[self._query("v1", "a")]))
        (v,), _plans = _plan_calls(scn)
        assert v["path"] == ["a", "b", "w", "d"]

    def test_a_shared_report_makes_the_kept_search_stale(self):
        # The leader finds c-d ten times slower than the belief has it and
        # reports it at t=430. The follower, on a-b from t=390 to 480, kept
        # its t=390 search through b and c; after the t=450 ingest it must
        # search again and take the side road.
        scn = load_scenario(scenario_doc(
            **self.SIDE_ROAD,
            events=[{"t_s": 0.0, "kind": "set_congestion", "target": "e4", "value": 3.0},
                    {"t_s": 0.0, "kind": "set_congestion", "target": "e3", "value": 10.0,
                     "sensed_only": True}],
            queries=[self._query("follower", "a", 390.0), self._query("leader", "c", 30.0)],
        ))
        (follower, leader), _plans = _plan_calls(scn)
        assert leader["arrival_s"] == 430.0
        assert follower["path"] == ["a", "b", "w", "d"]

    def test_reuse_happens_on_the_sharing_fixture(self, scenario_dir):
        scn = load_scenario((scenario_dir / "sharing_fixture.scn").read_text())
        _vehicles, plans = _plan_calls(scn)
        assert len(_origins(plans, searched=False)) >= 40  # of its 43 replans

    def test_a_clean_multi_edge_trip_searches_once(self):
        (v,), plans = _plan_calls(load_scenario(scenario_doc(**LINE)))
        assert v["path"] == ["a", "b", "c", "d"] and v["replans"] == 5
        assert _origins(plans) == ["a"]

    @pytest.mark.parametrize("events, at_goal", [
        ([], [0] * 7),
        ([{"t_s": 90.0, "kind": "set_node_comfort_h", "target": "d", "value": 5.0}],
         [0, 1, 0, 0, 0, 0, 0]),
    ], ids=["clean", "goal-h2-changes"])
    def test_a_plan_on_the_last_edge_expands_only_when_a_read_changed(self, events, at_goal):
        # On b-d from t=50 to 250 the vehicle plans from its goal in seven
        # epochs. Each hands on the route held, expanding nothing, unless a
        # value it read changed: then the search from the goal expands it.
        doc = scenario_doc(nodes=[("a", 0.0, 0.0), ("b", 500.0, 0.0), ("d", 2500.0, 0.0)],
                           edges=[("e1", "a", "b", 500.0, 50.0), ("e2", "b", "d", 2000.0, 200.0)],
                           events=events)
        (v,), plans = _plan_calls(load_scenario(doc))
        assert [(p.origin, p.path, p.expanded) for p in plans] == (
            [("a", ("a", "b", "d"), 3), ("b", ("b", "d"), 0)] + [("d", ("d",), n) for n in at_goal])
        assert (v["status"], v["replans"], v["expanded"]) == (ARRIVED, 9, 3 + sum(at_goal))

    # Writes that leave every value the vehicle reads as it was: congestion on
    # a c-a edge blocked since t=0, and c-d slowed and restored in one batch.
    @pytest.mark.parametrize("edges, events", [
        ([("e4", "c", "a", 1000.0, 100.0)],
         [{"t_s": 0.0, "kind": "block_edge", "target": "e4"},
          {"t_s": 60.0, "kind": "set_congestion", "target": "e4", "value": 2.0}]),
        ([], [{"t_s": 60.0, "kind": "set_congestion", "target": "e3", "value": 2.0},
              {"t_s": 60.0, "kind": "set_congestion", "target": "e3", "value": 1.0}]),
    ], ids=["congestion-on-a-blocked-edge", "change-undone-in-its-batch"])
    def test_a_write_that_changes_no_read_value_forces_no_search(self, edges, events):
        doc = scenario_doc(nodes=LINE["nodes"], edges=[*LINE["edges"], *edges], events=events)
        (v,), plans = _plan_calls(load_scenario(doc))
        assert v["path"] == ["a", "b", "c", "d"] and v["expanded"] == 4
        assert _origins(plans) == ["a"]

    # Each event kind against the value it leaves the belief at. LINE gains
    # e4 c-a, whose row the first search reads when it expands c. Events at
    # t=0 come before that search; the last, at t=60, forces a search from c,
    # where the vehicle on b-c plans, only if it moves a value the search read.
    @pytest.mark.parametrize("events, searched", [
        ([("set_congestion", "e4", 2.0)], True),
        ([("set_congestion", "e4", 1.0)], False),  # already free flow
        ([("set_congestion", "e4", 2.0), ("set_congestion", "e4", 2.0)], False),
        ([("set_comfort", "e4", 5.0)], False),  # nothing holds edge comfort
        ([("set_node_comfort_h", "c", 4.0)], True),
        ([("set_node_comfort_h", "c", 0.0)], False),  # an absent h2 reads 0.0
        ([("set_node_comfort_h", "c", 4.0), ("set_node_comfort_h", "c", 4.0)], False),
        ([("block_edge", "e4")], True),
        ([("block_edge", "e4"), ("block_edge", "e4")], False),
        ([("unblock_edge", "e4")], False),
        ([("block_edge", "e4"), ("unblock_edge", "e4")], True),
    ])
    def test_searches_again_only_when_the_last_event_moves_a_read_value(self, events, searched):
        docs = [{"t_s": 0.0, "kind": kind, "target": target, **{"value": v for v in value}}
                for kind, target, *value in events]
        docs[-1]["t_s"] = 60.0
        doc = scenario_doc(nodes=LINE["nodes"], events=docs,
                           edges=[*LINE["edges"], ("e4", "c", "a", 1000.0, 100.0)])
        (v,), plans = _plan_calls(load_scenario(doc))
        assert v["path"] == ["a", "b", "c", "d"]
        assert _origins(plans) == (["a", "c"] if searched else ["a"])

    def test_a_change_ahead_of_a_moved_vehicle_forces_a_new_search(self):
        # The vehicle plans from b at t=30 and from c at t=60 on its first
        # search. c-d, whose tail c that search expanded, slows at t=90,
        # while the vehicle is still on b-c.
        (v,), plans = _plan_calls(load_scenario(scenario_doc(**LINE, events=[
            {"t_s": 90.0, "kind": "set_congestion", "target": "e3", "value": 2.0}])))
        assert v["path"] == ["a", "b", "c", "d"]
        assert _origins(plans) == ["a", "c"]

    # b-d, or b-x-d, is 50 s against the detour b-c-d's 60 s until the t=30
    # change makes it 60.25 s. The vehicle is on the 100 s edge a-b until t=100.
    NEAR_TIE = dict(nodes=[("a", 0.0, 0.0), ("b", 1000.0, 0.0), ("c", 1250.0, 100.0),
                       ("x", 1250.0, 0.0), ("d", 1500.0, 0.0)],
                edges=[("e1", "a", "b", 1000.0, 100.0), ("e3", "b", "c", 300.0, 30.0),
                       ("e4", "c", "d", 300.0, 30.0)])
    VIA_X = [("e5", "b", "x", 250.0, 25.0), ("e6", "x", "d", 250.0, 25.0)]

    @pytest.mark.parametrize("edges, target, value", [
        ([("e2", "b", "d", 500.0, 50.0)], "e2", 1.205),
        (VIA_X, "e6", 1.41),
    ], ids=["b-d", "b-x-d"])
    def test_the_new_search_route_is_taken_however_near_the_held_one(self, edges, target, value):
        # From b at t=30 the search finds b-c-d, 0.25 s quicker than the
        # route held, and the vehicle takes it. Nothing changes after t=30:
        # the plans from b at t=60 and t=90, from c and from d hand it on.
        doc = scenario_doc(
            nodes=self.NEAR_TIE["nodes"], edges=[*self.NEAR_TIE["edges"], *edges],
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": target, "value": value}])
        (v,), plans = _plan_calls(load_scenario(doc))
        assert v["path"] == ["a", "b", "c", "d"] and v["replans"] == 6
        assert _origins(plans) == ["a", "b"]
        assert _origins(plans, searched=False) == ["b", "b", "c", "d"]

    def test_a_change_on_a_node_the_search_never_expanded_is_not_read(self):
        # Congestion on b-x makes b-x-d 60.25 s. The search from b at t=30
        # pops d at 60 before x, whose priority is 60.25, so it never expands
        # x, and the vehicle takes b-c-d. At t=60 x-d slows: the vehicle read
        # nothing it changed, so it drives on along b-c-d without searching.
        doc = scenario_doc(
            nodes=self.NEAR_TIE["nodes"], edges=[*self.NEAR_TIE["edges"], *self.VIA_X],
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e5", "value": 1.41},
                    {"t_s": 60.0, "kind": "set_congestion", "target": "e6", "value": 3.0}])
        scn = load_scenario(doc)
        snap = TruthTimeline(scn, 30.0).at_epoch(1)
        search = dyn_a_star(snap, "b", "d", SearchParams(weights=HeuristicWeights(1.0, 1.0, 0.0, 0.0)))
        assert search.path == ("b", "c", "d") and "x" not in search.expansion_order
        (v,), plans = _plan_calls(scn)
        assert _origins(plans) == ["a", "b"]
        assert v["path"] == ["a", "b", "c", "d"]

    def test_a_later_node_drives_on_where_a_new_search_would_leave(self):
        # The documented inexactness. All nodes share one position, so the
        # priority is g plus h2. From a, m's h2 of 80 holds it back until x
        # is closed through the dearer a-x, so the search takes a-m-d; from
        # m, a search finds m-x-d 40 s quicker than m-d. The vehicle, on a-m
        # at t=30, drives on along a-m-d without searching.
        doc = scenario_doc(
            nodes=[(n, 0.0, 0.0) for n in "amxd"],
            edges=[("e1", "a", "m", 100.0, 40.0), ("e2", "a", "x", 100.0, 100.0),
                   ("e3", "m", "x", 100.0, 10.0), ("e4", "m", "d", 100.0, 100.0),
                   ("e5", "x", "d", 100.0, 50.0)],
            h2={"m": 80.0},
            queries=[{"vehicle": "v1", "start": "a", "goal": "d", "depart_s": 0.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 1, "w3": 0}, "context": {}}])
        scn = load_scenario(doc)
        (v,), plans = _plan_calls(scn)
        assert _origins(plans) == ["a"] and v["replans"] == 5
        assert v["path"] == ["a", "m", "d"] and v["realized_cost_s"] == 220.0
        params = SearchParams(weights=HeuristicWeights(1.0, 1.0, 1.0, 0.0))
        assert dyn_a_star(snapshot(scn.graph, scn.initial_field), "m", "d", params
                          ).path == ("m", "x", "d")


def _assert_only_varying_nodes_vary(scn, truth):
    """A node outside ``truth.varying_nodes`` pays one penalty in every state,
    and only a ``set_node_comfort_h`` event can put a node in that set."""
    states = [truth.at_epoch(k) for k in truth._starts]
    for nid, i in scn.graph.index.pos.items():
        if nid not in truth.varying_nodes:
            assert len({(state.h2_at[i], state.h3_at[i]) for state in states}) == 1
    assert truth.varying_nodes <= {ev.target for ev in scn.events
                                   if ev.kind == "set_node_comfort_h"}


class TestOneSchedule:
    """The truth timeline groups the events by epoch once; each simulation
    applies and logs its batches (as the reference simulator does, see
    ``TestReferenceSimulator``), and the oracle reads its varying nodes."""

    def test_batches_on_a_line(self):
        # one event at t=0, three opening epoch 2, one after the trip ends
        doc = scenario_doc(**LINE, events=[
            {"t_s": 0.0, "kind": "set_congestion", "target": "e1", "value": 2.0},
            {"t_s": 31.0, "kind": "set_comfort", "target": "e2", "value": 5.0},
            {"t_s": 45.0, "kind": "set_node_comfort_h", "target": "d", "value": 9.0},
            {"t_s": 60.0, "kind": "block_edge", "target": "e1"},
            {"t_s": 5000.0, "kind": "set_node_comfort_h", "target": "b", "value": 3.0},
        ])
        scn = load_scenario(doc)
        truth = TruthTimeline(scn, 30.0)
        assert truth.events_at(0) == scn.events[:1]
        assert truth.events_at(1) == ()
        assert truth.events_at(2) == scn.events[1:4]
        assert truth.events_at(167) == scn.events[4:]
        assert truth.varying_nodes == {"b", "d"}
        trace = run_simulation(scn, SimConfig(), truth=truth)
        assert [len(ep["events_applied"]) for ep in trace.epochs] == [1, 0, 3, 0, 0, 0, 0]
        assert [ev["target"] for ep in trace.epochs for ev in ep["events_applied"]] \
            == ["e1", "e2", "d", "e1"]
        _assert_only_varying_nodes_vary(scn, truth)

    def test_committed_scenarios(self, scenario_dir):
        for path in sorted(scenario_dir.glob("**/*.scn")):
            scn = load_scenario(path.read_bytes())
            _assert_only_varying_nodes_vary(scn, TruthTimeline(scn, SimConfig.epoch_s))


def _snapshot_epochs(sim):
    """The epochs of ``sim``'s snapshot calls, and a patch of
    ``simulate.snapshot`` that records them into that list."""
    epochs: list[int] = []
    real = simulate.snapshot

    def counted(*args, **kwargs):
        epochs.append(sim.epoch_index)
        return real(*args, **kwargs)
    return epochs, patch.object(simulate, "snapshot", counted)


class TestLazySnapshot:
    """The belief snapshot is patched from the last one, only in epochs where
    a vehicle plans and the belief has been written; that it holds the belief
    is checked by ``TestReferenceSimulator``, whose reference plans on a view
    of the belief built from scratch."""

    @settings(max_examples=200, deadline=None)
    @given(doc=st.one_of(boundary_aligned_docs(), grid_fleet_docs()),
           epoch_s=st.sampled_from((15.0, 30.0, 45.0)))
    def test_every_truth_state_equals_a_fresh_build(self, doc, epoch_s):
        scn = load_scenario(doc)
        timeline = TruthTimeline(scn, epoch_s)
        last = timeline.event_epoch(scn.events[-1].at_time) if scn.events else 0
        for k in range(last + 2):
            graph, fld = scn.graph.copy(), scn.initial_field.copy()
            for ev in scn.events:
                if timeline.event_epoch(ev.at_time) <= k:
                    apply_event(graph, fld, ev)
            state = timeline.at_epoch(k)
            assert state == snapshot(graph, fld)
            ref.assert_snapshot_of(state, ref.id_view(graph, fld))

    # The tail departs with the lead, in epoch 3 on a belief that no report has
    # changed yet, and in epoch 20, after the lead's report of the slow edge.
    @pytest.mark.parametrize("tail_depart_s, epochs", [(0.0, [0]), (95.0, [0]), (600.0, [0, 20])])
    def test_single_shot_planners_snapshot_only_when_a_vehicle_departs(
            self, scenario_dir, tail_depart_s, epochs):
        doc = json.loads((scenario_dir / "sharing_fixture.scn").read_text())
        for q in doc["queries"]:
            if q["vehicle"] == "tail":
                q["depart_s"] = tail_depart_s
        scn = load_scenario(json.dumps(doc))
        truth = TruthTimeline(scn, SimConfig().epoch_s)
        sim = Simulation(scn, SimConfig(), "ucs", truth)
        taken, counting = _snapshot_epochs(sim)
        with counting:
            trace = sim.run()
        assert all(v["status"] == ARRIVED for v in trace.vehicles)
        assert len(trace.epochs) > 5
        assert taken == epochs

    # The vehicle plans in every epoch of its trip; the belief changes at the
    # t=60 boundary only, and no observation is shared. A comfort change is no
    # change of the belief, since nothing holds edge comfort.
    @pytest.mark.parametrize("kind, value, replans", [
        ("set_congestion", 2.0, 7), ("set_comfort", 25.0, 5)])
    def test_dyn_astar_reuses_the_snapshot_while_the_belief_is_unchanged(
            self, kind, value, replans):
        doc = scenario_doc(**LINE, events=[
            {"t_s": 45.0, "kind": kind, "target": "e3", "value": value},
            {"t_s": 100.0, "kind": "set_congestion", "target": "e3", "value": 3.0,
             "sensed_only": True}])
        scn = load_scenario(doc)
        cfg = SimConfig(share_observations=False)
        sim = Simulation(scn, cfg, "dyn_astar", TruthTimeline(scn, cfg.epoch_s))
        taken, counting = _snapshot_epochs(sim)
        with counting:
            (v,) = sim.run().vehicles
        assert v["replans"] == replans
        assert taken == ([0] if kind == "set_comfort" else [0, 2])


class TestRecordsStayUnchanged:
    """``PlanResult`` and ``Observation`` are slotted, not frozen: nothing may
    assign to one once it is built."""

    @pytest.mark.parametrize("name", ["grid10_congestion.scn", "sharing_fixture.scn"])
    def test_a_run_leaves_every_plan_and_observation_as_built(self, scenario_dir, name):
        seen = []  # (record, its fields when first seen)
        kinds = {"plan": 0, "observation": 0}

        def keep(record, kind):
            seen.append((record, dataclasses.astuple(record)))
            kinds[kind] += 1

        real_search, real_ingest = planners.dyn_a_star, simulate.ingest_observations

        def search(*args):
            result = real_search(*args)
            keep(result, "plan")
            return result

        def ingest(graph, fld, batch):
            for obs in batch:
                keep(obs, "observation")
            return real_ingest(graph, fld, batch)

        scn = load_scenario((scenario_dir / name).read_text())
        with patch.object(planners, "dyn_a_star", search), \
                patch.object(simulate, "ingest_observations", ingest):
            run_simulation(scn, SimConfig())
        assert all(kinds.values()), kinds
        assert [dataclasses.astuple(r) for r, _ in seen] == [fields for _, fields in seen]

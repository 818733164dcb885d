"""A string-keyed reference simulator for differential tests of the simulator.

:func:`reference_trace` runs a scenario as :class:`dynroute.Simulation` does
and returns its trace in the form ``SimulationTrace.to_dict()`` gives, built
the plain way, from node and edge ids alone:

* its own belief, a copy of the scenario's graph and field, takes each
  epoch's broadcast events (``apply_event``) and, with sharing on, the
  reports filed in the epoch before (``ingest_observations``);
* every epoch it scans the whole fleet, in id order, for the vehicles that
  depart, plan and move;
* a vehicle that plans searches a fresh :func:`reference_planners.id_view` of
  the belief with the reference planners;
* vehicles move through the truth of :class:`reference_planners.IdTimeline`.

A ``dyn_astar`` vehicle plans in every epoch it is en route. It hands on the
route it holds while no node its last search expanded reads a target that a
write since the last epoch in which vehicles planned has changed: an edge is
read by its tail, a node's h2 by the node and by every node with an edge into
it. A write counts when ``apply_event`` or ``ingest_observations`` reports that
it changed a value, even one a later write restores or one on a blocked edge.
At every hand-on the route is checked against a new search (:func:`_check_hand_on`),
and after every plan the route must lie in the last search's expanded nodes.
Each plan call can be logged as a :class:`PlanCall`.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

import reference_planners as ref
from dynroute import (
    ARRIVED,
    EN_ROUTE,
    STRANDED,
    HeuristicWeights,
    Observation,
    PlanResult,
    SearchParams,
    SimConfig,
    apply_event,
    ingest_observations,
)
from dynroute.graph import Scenario
from dynroute.simulate import vehicle_params

ASTAR = SearchParams(HeuristicWeights(1.0, 1.0, 0.0, 0.0))
PLANNERS = {
    "ucs": lambda view, start, goal, params: ref.dijkstra_ucs(view, start, goal),
    "greedy": lambda view, start, goal, params: ref.greedy_best_first(view, start, goal),
    "astar": lambda view, start, goal, params: ref.dyn_a_star(view, start, goal, ASTAR),
    "rrt": ref.rrt_plan,
    "dyn_astar": ref.dyn_a_star,
}


@dataclass(frozen=True)
class PlanCall:
    """One plan call: by ``vehicle`` from ``origin``, a search (``searched``)
    or a hand-on, and the route it returned."""

    vehicle: str
    origin: str
    searched: bool
    path: tuple[str, ...]
    expanded: int


@dataclass
class _Vehicle:
    id: str
    goal: str
    depart_epoch: int
    params: SearchParams
    at_node: str
    t_s: float
    status: str = EN_ROUTE
    departed: bool = False
    # On an edge: its id, its head and its price; it reaches the head at t_s.
    edge: tuple[str, str, float] | None = None
    route: tuple[str, ...] = ()
    cost: float = 0.0
    replans: int = 0
    expanded: int = 0
    path: list[str] = field(default_factory=list)
    # dyn_astar only: the origin and the result of the last search
    search: tuple[str, PlanResult] | None = None


def reference_trace(scenario: Scenario, config: SimConfig, algorithm: str,
                    plans: list[PlanCall] | None = None) -> dict:
    """The trace of ``scenario`` run under ``algorithm``, as a dict; each plan
    call is appended to ``plans`` if given."""
    epoch_s = config.epoch_s
    truth = ref.IdTimeline(scenario, epoch_s)
    graph, fld = scenario.graph.copy(), scenario.initial_field.copy()
    edge_records = scenario.graph.edges
    noise = random.Random(scenario.seed)
    params = vehicle_params(scenario)
    fleet = [_Vehicle(q.vehicle, q.goal, truth.epoch_of(q.depart_s), params[q.vehicle],
                      q.start, q.depart_s)
             for q in sorted(scenario.queries, key=lambda q: q.vehicle)]
    changed_edges: set[str] = set()  # since the last epoch in which vehicles planned
    changed_nodes: set[str] = set()
    reports: list[Observation] = []
    epochs = []

    def plan(v: _Vehicle, view: ref.IdView, dirty: set[str]) -> None:
        origin = v.at_node if v.edge is None else v.edge[1]
        searched = algorithm != "dyn_astar" or v.search is None \
            or not dirty.isdisjoint(v.search[1].expansion_order)
        if searched:
            result = PLANNERS[algorithm](view, origin, v.goal, v.params)
            v.route = result.path
            v.expanded += result.expanded
            if algorithm == "dyn_astar":
                v.search = (origin, result)
        else:
            _check_hand_on(view, v, origin)
        if algorithm == "dyn_astar":
            v.replans += 1
            assert set(v.route) <= set(v.search[1].expansion_order)
        if plans is not None:
            plans.append(PlanCall(v.id, origin, searched, v.route,
                                  result.expanded if searched else 0))

    def advance(v: _Vehicle, k: int) -> None:
        reached = k  # the epoch of the instant the vehicle reached at_node
        while True:
            if v.edge is not None:
                eid, head, price = v.edge
                if truth.event_epoch(v.t_s) > k + 1:
                    return  # the next boundary comes first
                reached = truth.epoch_of(v.t_s)
                state = truth.at_epoch(reached)
                h2, h3 = state.h2.get(head, 0.0), state.h3.get(head, 0.0)
                observed_time, observed_h2 = price, h2
                if config.noise_sigma > 0:
                    observed_time += noise.gauss(0, config.noise_sigma)
                    observed_h2 += noise.gauss(0, config.noise_sigma)
                reports.append(Observation(eid, observed_time, observed_h2, v.id, v.t_s))
                v.cost += price
                v.cost += h2 + h3
                v.at_node, v.edge = head, None
                v.path.append(head)
            if v.at_node == v.goal:
                v.status = ARRIVED
                return
            if not v.route:
                v.status = STRANDED
                return
            if reached != k:
                return  # it drives on in the epoch its arrival belongs to
            edge = ref.cheapest_edge(truth.at_epoch(k), v.at_node, v.route[1])
            if edge is None:
                v.status = STRANDED
                return
            v.t_s += edge[1]
            v.edge = (edge[0], v.route[1], edge[1])
            v.route = v.route[1:]

    last = truth.event_epoch(config.horizon_s)  # the epochs that open before the horizon
    k = 0
    while k < last and any(v.status == EN_ROUTE and v.depart_epoch < last for v in fleet):
        applied = [ev for ev in scenario.events if truth.event_epoch(ev.at_time) == k]
        for ev in applied:
            if not ev.sensed_only and apply_event(graph, fld, ev):
                (changed_nodes if ev.kind == "set_node_comfort_h" else changed_edges).add(ev.target)
        ingested = 0
        if config.share_observations and reports:
            edges, nodes = ingest_observations(graph, fld, reports)
            changed_edges |= edges
            changed_nodes |= nodes
            ingested = len(reports)
        reports = []

        joined = [v for v in fleet if not v.departed and v.depart_epoch <= k]
        for v in joined:
            v.departed = True
            v.path.append(v.at_node)
        moving = [v for v in fleet if v.departed and v.status == EN_ROUTE]
        planning = moving if algorithm == "dyn_astar" else joined
        if planning:
            view = ref.id_view(graph, fld)
            dirty = {edge_records[eid].from_node for eid in changed_edges} | changed_nodes | {
                e.from_node for e in edge_records.values() if e.to_node in changed_nodes}
            changed_edges, changed_nodes = set(), set()
            for v in planning:
                plan(v, view, dirty)
        for v in moving:
            advance(v, k)
        epochs.append({"t_s": k * epoch_s, "events_applied": tuple(
            {"t_s": ev.at_time, "kind": ev.kind, "target": ev.target, "value": ev.value,
             "sensed_only": ev.sensed_only} for ev in applied),
            "observations_ingested": ingested})
        k += 1

    for v in fleet:
        if v.status == EN_ROUTE:
            v.status = STRANDED
    return {
        "scenario": scenario.name,
        "algorithm": algorithm,
        "seed": scenario.seed,
        "config": {**dataclasses.asdict(config), "alpha": scenario.initial_field.smoothing_alpha},
        "vehicles": tuple({
            "vehicle": v.id,
            "status": v.status,
            "realized_cost_s": round(v.cost, 9),
            "arrival_s": round(v.t_s, 9) if v.status == ARRIVED else None,
            "replans": v.replans,
            "expanded": v.expanded,
            "path": v.path,
        } for v in fleet),
        "epochs": tuple(epochs),
    }


def _check_hand_on(view: ref.IdView, v: _Vehicle, origin: str) -> None:
    """Assert what a route handed on at ``origin`` must be: the rest of the
    last search's route from ``origin``, drivable on ``view``. At that
    search's origin a new search must equal it in every field. Further on
    the two may differ, since with h2/h3 in the priority the heuristic is not
    consistent; where the vehicle's weights make it consistent (no h2 or h3
    weight, w1 <= w_g) both are fastest routes and must take equally long."""
    last_origin, last = v.search
    route = last.path
    assert v.route == (route[route.index(origin):] if route else ())
    assert all(ref.cheapest_edge(view, a, b) for a, b in zip(v.route, v.route[1:]))
    new = ref.dyn_a_star(view, origin, v.goal, v.params)
    if origin == last_origin:
        assert new == last
    w = v.params.weights
    if w.w2 == w.w3 == 0 and w.w1 <= w.w_g:
        assert ref.path_travel_time(view, v.route) == ref.path_travel_time(view, new.path)

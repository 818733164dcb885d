"""Epoch-synchronous multi-vehicle simulation with shared observations.

The world has one ground truth and one shared belief:

* the ground truth is the :class:`TruthTimeline`, the state in force at each
  epoch. It prices every edge a vehicle enters and every node penalty it
  pays. Trace replay and the offline oracle read the same timeline;
* the shared belief, from which planning snapshots are taken. Broadcast
  events reach it directly; ``sensed_only`` events reach it only through
  observations reported by vehicles that traversed the affected edges. An
  observation reports the edge's price and the head's h2 that the vehicle
  was charged, plus any noise, drawn from the scenario seed's stream.
  ``set_comfort`` events change neither truth nor belief.

With observation sharing disabled the belief sees broadcast events only,
which is the control condition for measuring the value of sharing.

The timeline is the one clock. An event takes effect at the first epoch
boundary at or after its time (:meth:`TruthTimeline.event_epoch`), in the
truth and the belief alike: the timeline groups the events so once, and the
simulation applies the timeline's batch for each epoch it steps
(:meth:`TruthTimeline.events_at`). A departure, an edge entry and an arrival
belong to the epoch :meth:`TruthTimeline.epoch_of` gives their instant, as in
replay and the oracle. Within an epoch every vehicle plans against one immutable
belief snapshot and advances through ground truth by replay's walk. An
edge's price is fixed by the truth at entry, and the vehicle reaches the
head that much later. On arrival it pays the price whole, then the head's
penalty from the truth at the arrival instant, and enters its next edge at
that instant. An arrival is handled in the epoch whose closing boundary
would apply an event at its instant, so a vehicle whose arrival belongs to
the next epoch enters its next edge there. A vehicle that the horizon
strands mid-edge has paid only the edges it finished, so every trace
replays from its path.

The belief snapshot is taken lazily. The simulation collects the edges
whose congestion or blocked flag, and the nodes whose h2, events wrote and
observations changed, and takes a snapshot only in an epoch where some
vehicle plans and the belief has been written since the last one; it is
then patched from that one, rebuilding only what the collected targets
touch. Otherwise vehicles plan on the last snapshot.

A ``dyn_astar`` vehicle holds its route and a read set: the nodes its last
search expanded, which hold that search's path. A node is dirty when a
value its expansion reads, its out-edge row, its h2 or the h2 of a node it
pushes, differs between the new snapshot and the last one, compared at the
collected targets only: a write that changes no value, on a blocked edge or
undone later in its batch, dirties nothing. While none it read is dirty,
:func:`replan` hands on its route, which a new search would return at the
last search's origin but not always further on: with h2/h3 in the priority
the heuristic is not consistent. Otherwise it searches and takes the
search's route. ``expanded`` counts the expansions of searches that ran, and
``replans`` counts plan calls, hand-ons included.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import attrgetter

from .graph import (
    Event,
    GraphSnapshot,
    RoadGraph,
    Scenario,
    apply_events,
    snapshot,
)
from .heuristics import (
    HeuristicField,
    HeuristicWeights,
    Observation,
    adapt_weights,
    ingest_observations,
)
from .planners import (
    PlanResult,
    SearchParams,
    cheapest_edge,
    dijkstra_ucs,
    dyn_a_star,
    greedy_best_first,
    replan,
    rrt_plan,
    static_a_star,
)

EN_ROUTE = "en_route"
ARRIVED = "arrived"
STRANDED = "stranded"

# One call per algorithm: (snapshot, start, goal, params) -> PlanResult. The
# lambdas look each planner up in this module's globals when called, so a
# planner wrapped or replaced here is the one every caller runs.
PLANNERS = {
    "ucs": lambda snap, start, goal, params: dijkstra_ucs(snap, start, goal),
    "greedy": lambda snap, start, goal, params: greedy_best_first(snap, start, goal),
    "astar": lambda snap, start, goal, params: static_a_star(snap, start, goal),
    "rrt": lambda snap, start, goal, params: rrt_plan(snap, start, goal, params),
    "dyn_astar": lambda snap, start, goal, params: dyn_a_star(snap, start, goal, params),
}
ALGORITHMS = tuple(PLANNERS)

# The most epochs a run's horizon may span. A run can step every epoch up to
# the horizon, so one far too short would make a run that never ends.
MAX_EPOCHS = 10**7
# The last epoch the clock tells apart, far past any horizon: every later
# instant, an infinite one too, belongs to it.
_LAST_EPOCH = 2.0**62


@dataclass(frozen=True)
class SimConfig:
    """A run's settings. ``noise_sigma``, the report noise, is set through
    the Python API only: the CLI has no flag or config key for it."""

    epoch_s: float = 30.0
    share_observations: bool = True
    horizon_s: float = 1e6
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name, bound in (("epoch_s", "> 0"), ("horizon_s", "> 0"), ("noise_sigma", ">= 0")):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 or bound == ">= 0" and value == 0)):
                raise ValueError(f"{name} must be finite and {bound}")
        if self.horizon_s > MAX_EPOCHS * self.epoch_s:
            raise ValueError(f"the {self.horizon_s:g} s horizon is more than {MAX_EPOCHS:,} "
                             f"epochs of {self.epoch_s:g} s")


def vehicle_params(scenario: Scenario,
                   weights: HeuristicWeights | None = None) -> dict[str, SearchParams]:
    """What each vehicle searches with, by vehicle id: its query's weights,
    or ``weights`` in their place, adapted to the query's context, and an RRT
    seed from the scenario's seed and the vehicle's rank in id order."""
    return {
        q.vehicle: SearchParams(
            weights=adapt_weights(q.weights if weights is None else weights,
                                  q.prefers_comfort, q.rough_road, q.heavy_traffic),
            rng_seed=scenario.seed * 1000 + rank,
        )
        for rank, q in enumerate(sorted(scenario.queries, key=lambda q: q.vehicle))
    }


@dataclass
class VehicleState:
    id: str
    goal: str
    depart_s: float
    depart_epoch: int
    params: SearchParams
    at_node: str  # the last node reached: the start before departure
    t_s: float  # the instant it reaches ``edge``'s head, or reached ``at_node``
    status: str = EN_ROUTE
    departed: bool = False
    # On an edge: (id, head, price, crosses, reached), the last two fixed at
    # entry: the epoch whose opening boundary would apply an event at the
    # arrival instant (the arrival is handled in the epoch before it), and
    # the epoch the arrival belongs to.
    edge: tuple[str, str, float, int, int] | None = None
    # The route from at_node, or from edge's head while on an edge, as the
    # planner returned it; a move drops its first node. Empty: no route.
    plan_nodes: tuple[str, ...] = ()
    realized_cost: float = 0.0
    replans: int = 0
    expanded: int = 0
    path_taken: list[str] = field(default_factory=list)
    # dyn_astar only: its last search's expanded nodes, its path among them
    reads: frozenset[str] | None = None


@dataclass(frozen=True)
class SimulationTrace:
    """A run's record under the keys it is written with; each epoch is a
    ``{"t_s", "events_applied", "observations_ingested"}`` dict."""
    scenario: str
    algorithm: str
    seed: int
    config: dict
    vehicles: tuple[dict, ...]
    epochs: tuple[dict, ...]

    def to_dict(self) -> dict:
        """A deep copy as plain containers: changing it leaves the trace as it was."""
        return asdict(self)


class Simulation:
    """One run of a scenario under one routing algorithm."""

    def __init__(self, scenario: Scenario, config: SimConfig, algorithm: str = "dyn_astar",
                 truth: TruthTimeline | None = None):
        """``truth`` is the scenario's ground truth, shared by every caller
        that reads it; ``None`` builds it."""
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        self.scenario = scenario
        self.config = config
        self.algorithm = algorithm
        self.truth = _truth(scenario, config, truth)
        self.belief_graph: RoadGraph = scenario.graph.copy()
        self.belief_field: HeuristicField = scenario.initial_field.copy()
        self.epoch_index = 0
        self.obs_queue: list[Observation] = []
        self.epoch_log: list[dict] = []
        self._noise_rng = random.Random(scenario.seed)
        # dyn_astar only: the nodes whose expansion reads a value that
        # differs between the last two snapshots.
        self._dirty: set[str] = set()
        # The belief snapshot last taken, and the edges and nodes whose
        # planner-read belief values were written since: the patch the next needs.
        self._snap: GraphSnapshot | None = None
        self._stale_edges: set[str] = set()
        self._stale_nodes: set[str] = set()
        params = vehicle_params(scenario)
        self.vehicles: list[VehicleState] = [
            VehicleState(id=q.vehicle, goal=q.goal, depart_s=q.depart_s,
                         depart_epoch=self.truth.epoch_of(q.depart_s), params=params[q.vehicle],
                         at_node=q.start, t_s=q.depart_s)
            for q in sorted(scenario.queries, key=lambda q: q.vehicle)
        ]
        # The vehicles yet to join ``_moving``, by (departure epoch, id), and
        # those en route that have departed or depart in this epoch, in id
        # order, as they plan and move.
        self._departures = deque(sorted(self.vehicles, key=lambda v: v.depart_epoch))
        self._moving: list[VehicleState] = []

    # -- epoch machinery ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.epoch_index * self.config.epoch_s

    def step_epoch(self) -> None:
        k = self.epoch_index
        applied = self.truth.events_at(k)
        if applied:
            broadcast = [ev for ev in applied if not ev.sensed_only]
            apply_events(self.belief_graph, self.belief_field, broadcast,
                         self._stale_edges, self._stale_nodes)

        ingested = 0
        if self.config.share_observations and self.obs_queue:
            edges, nodes = ingest_observations(self.belief_graph, self.belief_field, self.obs_queue)
            self._stale_edges |= edges
            self._stale_nodes |= nodes
            ingested = len(self.obs_queue)
        self.obs_queue.clear()

        # The vehicles en route that have departed or depart in this epoch, a
        # vehicle departing as it joins them, its start the first node of its
        # path: all of them replan under dyn_astar, the rest only to depart.
        moving, departures, joined = self._moving, self._departures, []
        while departures and departures[0].depart_epoch <= k:
            v = departures.popleft()
            v.departed = True
            v.path_taken.append(v.at_node)
            joined.append(v)
            bisect.insort(moving, v, key=attrgetter("id"))
        planning = moving if self.algorithm == "dyn_astar" else joined
        if planning:
            snap = self._belief_snapshot()
            for v in planning:
                self._plan_vehicle(v, snap)
        truth = self.truth.at_epoch(k)
        for v in moving:
            self._advance(v, k, truth)
        self._moving = [v for v in moving if v.status == EN_ROUTE]

        self.epoch_log.append({"t_s": self.now, "events_applied": tuple(
            {"t_s": ev.at_time, "kind": ev.kind, "target": ev.target, "value": ev.value,
             "sensed_only": ev.sensed_only} for ev in applied),
            "observations_ingested": ingested})
        self.epoch_index += 1

    def run(self) -> SimulationTrace:
        epochs = self.truth.event_epoch(self.config.horizon_s)  # opening before the horizon
        departures = self._departures
        while self.epoch_index < epochs and (  # and one en route departs in them
                self._moving or departures and departures[0].depart_epoch < epochs):
            self.step_epoch()
        for v in self.vehicles:
            if v.status == EN_ROUTE:
                v.status = STRANDED
        return self._trace()

    # -- planning -----------------------------------------------------------

    def _belief_snapshot(self) -> GraphSnapshot:
        """The belief as a snapshot: the last one taken, or a new one patched
        from it if the belief has been written since. ``_dirty`` becomes the
        nodes whose expansion reads a value that differs between the two."""
        edges, nodes = self._stale_edges, self._stale_nodes
        old, self._dirty = self._snap, set()
        if old is None or edges or nodes:
            new = self._snap = snapshot(self.belief_graph, self.belief_field, base=old,
                                        edges=edges, nodes=nodes)
            if self.algorithm == "dyn_astar" and old is not None:
                # A node reads its out-edge row and h2, and the h2 of each node it pushes.
                index, ids = new.index, new.index.ids
                tails = {index.pos[self.scenario.graph.edges[e].from_node] for e in edges}
                h2 = [i for i in map(index.pos.__getitem__, nodes) if new.h2_at[i] != old.h2_at[i]]
                self._dirty = {ids[i] for i in tails if new.arcs[i] != old.arcs[i]}.union(
                    (ids[i] for i in h2), (ids[u] for i in h2 for _e, u, _b in index.into[i]))
            edges.clear()
            nodes.clear()
        return self._snap

    def _plan_vehicle(self, v: VehicleState, snap: GraphSnapshot) -> None:
        origin = v.at_node if v.edge is None else v.edge[1]

        if self.algorithm == "dyn_astar":
            # The route held (empty before the first plan) is handed on in place
            # of a search while nothing its search read has changed.
            keep = v.reads is not None and v.reads.isdisjoint(self._dirty)
            prior = PlanResult(v.plan_nodes, 0.0, 0.0)
            result = replan(prior, snap, origin, v.goal, v.params, keep)
            v.replans += 1
            if not keep:  # a search ran in this call
                v.reads = frozenset(result.expansion_order)
        else:
            result = PLANNERS[self.algorithm](snap, origin, v.goal, v.params)

        v.expanded += result.expanded
        v.plan_nodes = result.path  # an unreachable result's path is empty

    # -- movement through ground truth ---------------------------------------

    def _advance(self, v: VehicleState, k: int, truth: GraphSnapshot) -> None:
        """Move ``v``, en route and departing by epoch ``k``, through that
        epoch, whose ground truth is ``truth``, by replay's walk: it enters an
        edge at the instant it reached the tail, at the edge's price in
        ``truth``, and pays that price whole, then the head's penalty, on
        arrival, and reports the price and the head's h2 it paid. At a node
        without a route it strands."""
        reached = k  # the epoch of the instant it reached at_node
        while True:
            if v.edge is not None:
                eid, head, price, crosses, reached = v.edge
                if crosses > k + 1:
                    return  # still on the edge when this epoch ends
                state = truth if reached == k else self.truth.at_epoch(reached)
                i = state.index.pos[head]
                # The report: what the truth charged plus noise from the scenario seed's
                # stream, unclipped; ingest_observations clips the estimates it moves.
                observed_time, observed_h2 = price, state.h2_at[i]
                if self.config.noise_sigma > 0:
                    observed_time += self._noise_rng.gauss(0, self.config.noise_sigma)
                    observed_h2 += self._noise_rng.gauss(0, self.config.noise_sigma)
                self.obs_queue.append(Observation(eid, observed_time, observed_h2, v.id, v.t_s))
                v.realized_cost += price
                v.realized_cost += state.h2_at[i] + state.h3_at[i]  # the head's penalty
                v.at_node, v.edge = head, None
                v.path_taken.append(head)
            if v.at_node == v.goal:
                v.status = ARRIVED
                return
            if not v.plan_nodes:
                v.status = STRANDED
                return
            if reached != k:
                return  # it enters its next edge in the epoch it reached this node
            nxt = v.plan_nodes[1]
            edge = cheapest_edge(truth, v.at_node, nxt)
            if edge is None:
                v.status = STRANDED
                return
            eid, price = edge
            v.t_s += price
            v.edge = (eid, nxt, price, self.truth.event_epoch(v.t_s), self.truth.epoch_of(v.t_s))
            v.plan_nodes = v.plan_nodes[1:]

    # -- output ---------------------------------------------------------------

    def _trace(self) -> SimulationTrace:
        vehicles = tuple(
            {
                "vehicle": v.id,
                "status": v.status,
                "realized_cost_s": round(v.realized_cost, 9),
                "arrival_s": round(v.t_s, 9) if v.status == ARRIVED else None,
                "replans": v.replans,
                "expanded": v.expanded,
                "path": list(v.path_taken),
            }
            for v in self.vehicles
        )
        return SimulationTrace(
            scenario=self.scenario.name,
            algorithm=self.algorithm,
            seed=self.scenario.seed,
            # SimConfig's fields are all scalars: a shallow copy is a deep one.
            config={**vars(self.config), "alpha": self.scenario.initial_field.smoothing_alpha},
            vehicles=vehicles,
            epochs=tuple(self.epoch_log),
        )


def run_simulation(
    scenario: Scenario, config: SimConfig | None = None, algorithm: str = "dyn_astar",
    truth: TruthTimeline | None = None,
) -> SimulationTrace:
    sim = Simulation(scenario, config or SimConfig(), algorithm, truth)
    return sim.run()


# ---------------------------------------------------------------------------
# Ground-truth timeline, shared with the offline oracle and trace replay
# ---------------------------------------------------------------------------


class TruthTimeline:
    """Piecewise-constant ground-truth state per simulation epoch.

    An event at time t takes effect at the first epoch boundary >= t
    (:meth:`event_epoch`). The timeline groups the scenario's events by that
    rule once: one state is kept per epoch that has events, with the batch of
    events that opened it (:meth:`events_at`; epoch 0's events open the first
    state), and the simulator applies the same batches to its shared belief.
    Each state is patched from the one before it with the targets whose
    congestion, blocked flag or h2 its batch wrote, so it shares every row
    those events left alone; a batch of ``set_comfort`` events writes none.
    ``varying_nodes`` holds every node whose h2 some event wrote, changed or
    not: every other node has the same penalty in every state.
    """

    def __init__(self, scenario: Scenario, epoch_s: float):
        self.epoch_s = epoch_s
        graph = scenario.graph.copy()
        fld = scenario.initial_field.copy()
        self._starts: list[int] = [0]
        self._snaps: list[GraphSnapshot] = [snapshot(graph, fld)]
        self._batches: dict[int, tuple[Event, ...]] = {}
        self.varying_nodes: set[str] = set()
        for k, group in groupby(scenario.events, lambda ev: self.event_epoch(ev.at_time)):
            batch = self._batches[k] = tuple(group)
            edges, nodes = set(), set()
            apply_events(graph, fld, batch, edges, nodes)
            self.varying_nodes |= nodes
            snap = snapshot(graph, fld, base=self._snaps[-1], edges=edges, nodes=nodes)
            if k == self._starts[-1]:
                self._snaps[-1] = snap
            else:
                self._starts.append(k)
                self._snaps.append(snap)

    def event_epoch(self, at_time: float) -> int:
        """Index of the epoch whose opening boundary applies an event at
        ``at_time``; events past ``_LAST_EPOCH`` epochs share it, in file order."""
        return max(0, math.ceil(min(at_time / self.epoch_s, _LAST_EPOCH) - 1e-12))

    def epoch_of(self, time: float) -> int:
        """Index of the epoch the instant ``time`` belongs to: the one clock
        of every departure, edge entry and arrival, up to ``_LAST_EPOCH``."""
        return max(0, math.floor(min(time / self.epoch_s, _LAST_EPOCH) + 1e-12))

    def events_at(self, k: int) -> tuple[Event, ...]:
        """The events epoch ``k``'s opening boundary applies, in file order."""
        return self._batches.get(k, ())

    def at_epoch(self, k: int) -> GraphSnapshot:
        i = bisect.bisect_right(self._starts, k) - 1
        return self._snaps[i]

    def at_time(self, time: float) -> GraphSnapshot:
        return self.at_epoch(self.epoch_of(time))


def _truth(scenario: Scenario, config: SimConfig, truth: TruthTimeline | None) -> TruthTimeline:
    """``truth`` checked against ``config``'s epoch length, or a new timeline if None."""
    if truth is None:
        return TruthTimeline(scenario, config.epoch_s)
    if truth.epoch_s != config.epoch_s:
        raise ValueError(
            f"truth timeline has {truth.epoch_s} s epochs, config {config.epoch_s} s"
        )
    return truth


def replay_realized_cost(
    scenario: Scenario, config: SimConfig, vehicle: str, path: list[str], depart_s: float,
    truth: TruthTimeline | None = None,
) -> float:
    """Recompute a vehicle's realized cost from its recorded path alone.

    Follows the path through the ground-truth timeline with the same
    frozen-at-entry cost rule; a trace is replayable iff this matches.
    ``truth`` is the scenario's timeline, as for :class:`Simulation`.
    """
    timeline = _truth(scenario, config, truth)
    now = depart_s
    cost = 0.0
    for u, v in zip(path, path[1:]):
        snap = timeline.at_time(now)
        edge = cheapest_edge(snap, u, v)
        if edge is None:
            raise ValueError(f"replay: no unblocked edge {u!r} -> {v!r} at t={now}")
        now += edge[1]
        cost += edge[1]
        arrival = timeline.at_time(now)
        i = arrival.index.pos[v]
        cost += arrival.h2_at[i] + arrival.h3_at[i]
    return cost

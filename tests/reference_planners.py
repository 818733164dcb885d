"""String-keyed reference planners and oracle for differential tests.

They read an :class:`IdView`, the id-keyed state a snapshot is taken from,
copied by :func:`id_view` from a ``RoadGraph`` and ``HeuristicField``, never a
snapshot's planning view. ``neighbors``, ``time_heuristic``,
``landmark_times`` with ``active_terms`` and ``landmark_bound``, and
``combined_f`` are the reference definitions of successors, the two parts of
h1 and the search priority; ``node_penalty``, ``cheapest_edge``,
``path_travel_time`` and ``path_penalty`` those of path costs. They speak in node ids, one call per
node or edge. :func:`assert_snapshot_of` checks a snapshot's planning view
against a view, id by id.

The planners here are the planners as first written: they expand nodes
through ``neighbors()`` and price them with ``time_heuristic``,
``landmark_bound`` and ``combined_f``. The planners in ``dynroute.planners``
inline those definitions in tight loops over node indices and must return
exactly the same results. ``offline_optimal`` is the oracle as first
written, keyed by node id and reading its own ground truth,
:class:`IdTimeline`, and ordered by ``landmark_bound`` like the reference
A*; the oracle in ``dynroute.evaluate`` searches on node indices and must
match it bit for bit.

``tests/reference_sim.py`` builds a reference simulator on these planners
and on :class:`IdTimeline`, and the simulator's traces must equal its traces.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass
from typing import Mapping

from dynroute import (
    GraphSnapshot,
    HeuristicField,
    HeuristicWeights,
    PlanResult,
    RoadGraph,
    SearchIndex,
    SearchParams,
    apply_event,
)
from dynroute import graph, planners
from dynroute.evaluate import OracleResult
from dynroute.graph import Query, Scenario

_INF = math.inf


@dataclass(frozen=True)
class IdView:
    """A graph's overlay and heuristic field at one instant, keyed by id."""

    index: SearchIndex
    congestion: Mapping[str, float]
    blocked: frozenset[str]
    h2: Mapping[str, float]
    h3: Mapping[str, float]


def id_view(graph: RoadGraph, field: HeuristicField) -> IdView:
    """A copy of the state a snapshot of ``graph`` and ``field`` is taken from."""
    return IdView(graph.index, dict(graph.congestion), frozenset(graph.blocked),
                  dict(field.h2_by_node), dict(field.h3_by_node))


def assert_snapshot_of(snap: GraphSnapshot, view: IdView) -> None:
    """Assert that ``snap`` holds ``view``'s state: each node's ``arcs`` row,
    ``h2_at`` and ``h3_at`` entry, read id by id."""
    ids, pos = view.index.ids, view.index.pos
    assert len(snap.arcs) == len(snap.h2_at) == len(snap.h3_at) == len(ids)
    for nid in ids:
        i = pos[nid]
        assert snap.arcs[i] == tuple((eid, pos[succ], eff)
                                     for succ, eid, eff in neighbors(view, nid))
        assert snap.h2_at[i] == view.h2.get(nid, 0.0)
        assert snap.h3_at[i] == view.h3.get(nid, 0.0)


class IdTimeline:
    """Ground truth as an id-keyed view per epoch, each rebuilt by applying
    every event that takes effect by then, at the first epoch boundary at or
    after its time, to a fresh copy of the scenario."""

    def __init__(self, scenario: Scenario, epoch_s: float):
        self.scenario = scenario
        self.epoch_s = epoch_s
        self._views: dict[int, IdView] = {}

    def event_epoch(self, time: float) -> int:
        """The epoch whose opening boundary applies an event at ``time``: the
        first boundary at or after it, within 1e-12 of an epoch."""
        return max(0, math.ceil(time / self.epoch_s - 1e-12))

    def epoch_of(self, time: float) -> int:
        """The epoch the instant ``time`` belongs to, within 1e-12 of an epoch."""
        return max(0, math.floor(time / self.epoch_s + 1e-12))

    def at_epoch(self, k: int) -> IdView:
        if k not in self._views:
            graph = self.scenario.graph.copy()
            field = self.scenario.initial_field.copy()
            for ev in self.scenario.events:
                if self.event_epoch(ev.at_time) <= k:
                    apply_event(graph, field, ev)
            self._views[k] = id_view(graph, field)
        return self._views[k]

    def at_time(self, time: float) -> IdView:
        return self.at_epoch(self.epoch_of(time))


def _check_node(view: IdView, node: str) -> int:
    i = view.index.pos.get(node)
    if i is None:
        raise KeyError(f"unknown node {node!r}")
    return i


def neighbors(view: IdView, node: str) -> list[tuple[str, str, float]]:
    """Unblocked successors of ``node`` as (successor, edge_id, effective_time).

    Ordered by ascending edge id, so traversal order is deterministic.
    """
    ids = view.index.ids
    return [
        (ids[v], eid, base * view.congestion[eid])
        for eid, v, base in view.index.out[_check_node(view, node)]
        if eid not in view.blocked
    ]


def time_heuristic(view: IdView, node: str, goal: str) -> float:
    """Lower bound on remaining travel time: straight line at top speed."""
    index = view.index
    n, g = _check_node(view, node), _check_node(view, goal)
    return math.hypot(index.xs[n] - index.xs[g], index.ys[n] - index.ys[g]) / index.v_max


def _times(edges: list[tuple[str, str, float]], ids, source: str) -> dict[str, float]:
    """Free-flow time from ``source`` to every node along ``edges`` (tail,
    head, base time), relaxed until nothing changes (Bellman-Ford), not by a
    priority queue; infinite where there is no route."""
    times = dict.fromkeys(ids, _INF)
    times[source] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, base in edges:
            if times[u] + base < times[v]:
                times[v] = times[u] + base
                changed = True
    return times


def landmark_times(view: IdView) -> dict[str, tuple[dict[str, float], dict[str, float]]]:
    """Each landmark's free-flow times, keyed by id: from every node to it,
    and from it to every node.

    The landmarks are picked by farthest selection: each next one is the node
    whose least time to the landmarks so far is greatest, a node with no
    route counting as infinitely far and ties going to the lowest id, up to
    ``graph.LANDMARKS`` of them. Times are on base times over every edge,
    blocked or not. The table reads only the view's index, so the views and
    truth states of one graph share one, built at the first call.
    """
    return _landmark_times(view.index)


@functools.lru_cache(maxsize=8)
def _landmark_times(index: SearchIndex) -> dict[str, tuple[dict[str, float], dict[str, float]]]:
    ids = index.ids
    edges = [(ids[u], ids[v], base) for u, arcs in enumerate(index.out)
             for _eid, v, base in arcs]
    reverse = [(v, u, base) for u, v, base in edges]
    far = dict.fromkeys(ids, _INF)
    times = {}
    for _ in range(min(graph.LANDMARKS, len(ids))):
        landmark = min(ids, key=lambda n: (-far[n], n))
        to = _times(reverse, ids, landmark)
        times[landmark] = (to, _times(edges, ids, landmark))
        far = {n: min(far[n], to[n]) for n in ids}
    return times


LandmarkTimes = dict[str, tuple[dict[str, float], dict[str, float]]]
# A triangle term: a landmark and "to" for d(node, L) - d(goal, L), or "from"
# for d(L, goal) - d(L, node).
Term = tuple[str, str]


def landmark_terms(times: LandmarkTimes) -> list[Term]:
    """Every triangle term, the "to" term of each landmark in the order they
    were picked, then the "from" term of each."""
    return [(landmark, "to") for landmark in times] + [(landmark, "from") for landmark in times]


def term_value(times: LandmarkTimes, term: Term, node: str, goal: str) -> float | None:
    """The lower bound ``term`` gives on the free-flow time from ``node`` to
    ``goal``, by the triangle inequality; None if its two times are both
    infinite, when it says nothing."""
    to, frm = times[term[0]]
    a, b = (to[node], to[goal]) if term[1] == "to" else (frm[goal], frm[node])
    return None if a == b == _INF else a - b


def active_terms(times: LandmarkTimes, start: str, goal: str) -> list[Term]:
    """The two terms that bound the time from ``start`` to ``goal`` best: the
    two largest values, a tie going to the term listed first by
    :func:`landmark_terms` and a term that says nothing ranking below every
    other. A search from ``start`` to ``goal`` reads these two alone."""
    terms = landmark_terms(times)

    def rank(i: int) -> tuple[bool, float, int]:
        value = term_value(times, terms[i], start, goal)
        return (value is not None, 0.0 if value is None else value, -i)

    return [terms[i] for i in sorted(range(len(terms)), key=rank, reverse=True)[:2]]


def landmark_bound(times: LandmarkTimes, node: str, goal: str,
                   terms: list[Term] | None = None) -> float:
    """Lower bound on free-flow time from ``node`` to ``goal``: the largest
    of 0 and the values of ``terms`` (by default every term) that say
    something."""
    values = [term_value(times, term, node, goal)
              for term in (landmark_terms(times) if terms is None else terms)]
    return max([0.0] + [v for v in values if v is not None])


def node_penalty(view: IdView, node: str) -> float:
    return view.h2.get(node, 0.0) + view.h3.get(node, 0.0)


def cheapest_edge(view: IdView, u: str, v: str) -> tuple[str, float] | None:
    """Cheapest unblocked edge u->v as (edge_id, effective_time); equal
    times go to the lowest edge id. None if there is none or a node is unknown."""
    if u not in view.index.pos or v not in view.index.pos:
        return None
    best = None
    for succ, eid, eff in neighbors(view, u):
        if succ == v and (best is None or eff < best[1]):
            best = (eid, eff)
    return best


def path_travel_time(view: IdView, path: tuple[str, ...]) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        edge = cheapest_edge(view, u, v)
        if edge is None:
            raise ValueError(f"no unblocked edge along {path!r}")
        total += edge[1]
    return total


def path_penalty(view: IdView, path: tuple[str, ...]) -> float:
    return sum(node_penalty(view, n) for n in path[1:])


def combined_f(g: float, h1: float, h2: float, h3: float, w: HeuristicWeights) -> float:
    """The search priority. h1 may be infinite, a landmark's proof that the
    node cannot reach the goal, but never NaN; the other terms are finite."""
    for name, v in (("g", g), ("h2", h2), ("h3", h3)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if not h1 >= 0.0:
        raise ValueError(f"h1 must be >= 0, got {h1}")
    return w.w_g * g + w.w1 * h1 + w.w2 * h2 + w.w3 * h3


def _reconstruct(parent: dict[str, str | None], goal: str) -> tuple[str, ...]:
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return tuple(path)


def dyn_a_star(
    view: IdView, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Best-first search with weighted time/comfort/safety heuristics.

    Priority of a node with accumulated travel time g is
    ``w_g*g + w1*h1 + w2*h2 + w3*h3``. Where w1 is not zero on a graph of
    at least ``planners.LANDMARK_MIN_NODES`` nodes (read when called, so a
    test that patches it changes both planners alike), h1 is the larger of
    the straight-line time and the landmark bound over the two
    :func:`active_terms` of ``start`` and ``goal``, both consistent; with
    weights (1,1,0,0) this is classical A* and returns optimal travel time.
    Otherwise h1 is the straight-line time, which w1 = 0 reads only as the
    tie-break. Other weightings trade optimality for preference.
    """
    _check_node(view, start)
    _check_node(view, goal)
    w = params.weights
    landmarks = w.w1 and len(view.index.ids) >= planners.LANDMARK_MIN_NODES
    times = landmark_times(view) if landmarks else {}
    terms = active_terms(times, start, goal) if landmarks else []

    def h1(n: str) -> float:
        return max(time_heuristic(view, n, goal), landmark_bound(times, n, goal, terms))

    def priority(g: float, n: str) -> float:
        return combined_f(g, h1(n), view.h2.get(n, 0.0), view.h3.get(n, 0.0), w)

    g_best: dict[str, float] = {start: 0.0}
    parent: dict[str, str | None] = {start: None}
    open_heap: list[tuple[float, float, str]] = [(priority(0.0, start), h1(start), start)]
    closed: set[str] = set()
    order: list[str] = []
    while open_heap:
        f, _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        order.append(node)
        if node == goal:
            path = _reconstruct(parent, goal)
            return PlanResult(
                path=path,
                g_cost=g_best[goal] + path_penalty(view, path),
                f_cost_at_goal=f,
                expansion_order=tuple(order),
            )
        g_node = g_best[node]
        for succ, _eid, eff in neighbors(view, node):
            if succ in closed:
                continue
            ng = g_node + eff
            if ng < g_best.get(succ, _INF):
                g_best[succ] = ng
                parent[succ] = node
                heapq.heappush(open_heap, (priority(ng, succ), h1(succ), succ))
    return PlanResult((), _INF, _INF, tuple(order))


def dijkstra_ucs(view: IdView, start: str, goal: str) -> PlanResult:
    """Uniform-cost search on effective travel time. Optimal by construction.

    Kept as a hand-rolled loop, independent of the weighted planner, so the
    two can be checked against each other.
    """
    _check_node(view, start)
    _check_node(view, goal)

    def h1(n: str) -> float:
        return time_heuristic(view, n, goal)

    dist: dict[str, float] = {start: 0.0}
    parent: dict[str, str | None] = {start: None}
    open_heap: list[tuple[float, float, str]] = [(0.0, h1(start), start)]
    closed: set[str] = set()
    order: list[str] = []
    while open_heap:
        g, _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        order.append(node)
        if node == goal:
            path = _reconstruct(parent, goal)
            return PlanResult(
                path=path,
                g_cost=g + path_penalty(view, path),
                f_cost_at_goal=g,
                expansion_order=tuple(order),
            )
        for succ, _eid, eff in neighbors(view, node):
            if succ in closed:
                continue
            ng = g + eff
            if ng < dist.get(succ, _INF):
                dist[succ] = ng
                parent[succ] = node
                heapq.heappush(open_heap, (ng, h1(succ), succ))
    return PlanResult((), _INF, _INF, tuple(order))


def greedy_best_first(view: IdView, start: str, goal: str) -> PlanResult:
    """Expands by the time heuristic alone; complete but not optimal."""
    _check_node(view, start)
    _check_node(view, goal)

    def h1(n: str) -> float:
        return time_heuristic(view, n, goal)

    parent: dict[str, str | None] = {start: None}
    open_heap: list[tuple[float, str]] = [(h1(start), start)]
    closed: set[str] = set()
    order: list[str] = []
    while open_heap:
        hv, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        order.append(node)
        if node == goal:
            path = _reconstruct(parent, goal)
            travel = path_travel_time(view, path)
            return PlanResult(
                path=path,
                g_cost=travel + path_penalty(view, path),
                f_cost_at_goal=hv,
                expansion_order=tuple(order),
            )
        for succ, _eid, _eff in neighbors(view, node):
            if succ in closed or succ in parent:
                continue
            parent[succ] = node
            heapq.heappush(open_heap, (h1(succ), succ))
    return PlanResult((), _INF, _INF, tuple(order))


def rrt_plan(
    view: IdView, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Graph-adapted rapidly-exploring random tree.

    Samples a node position (goal with probability ``planners.RRT_GOAL_BIAS``),
    finds the nearest tree node by straight-line distance, and extends the
    tree up to ``planners.RRT_STEP_EDGES`` hops toward the sample along
    locally greedy unblocked edges, for at most ``planners.RRT_MAX_ITERATIONS``
    samples. Reads the constants when called, so a test that patches them
    changes both planners alike. Deterministic for a fixed seed.
    """
    _check_node(view, start)
    _check_node(view, goal)
    rng = random.Random(params.rng_seed)

    def pos(n: str) -> tuple[float, float]:
        i = view.index.pos[n]
        return view.index.xs[i], view.index.ys[i]

    def dist2(n: str, xy: tuple[float, float]) -> float:
        x, y = pos(n)
        return (x - xy[0]) ** 2 + (y - xy[1]) ** 2

    def finish(tree: dict[str, str | None]) -> PlanResult:
        path = _reconstruct(tree, goal)
        travel = path_travel_time(view, path)
        return PlanResult(
            path=path,
            g_cost=travel + path_penalty(view, path),
            f_cost_at_goal=travel,
            expansion_order=tuple(tree),
        )

    tree: dict[str, str | None] = {start: None}
    if start == goal:
        return finish(tree)
    node_ids = sorted(view.index.ids)
    for _ in range(planners.RRT_MAX_ITERATIONS):
        if rng.random() < planners.RRT_GOAL_BIAS:
            sample = pos(goal)
        else:
            sample = pos(node_ids[rng.randrange(len(node_ids))])
        nearest = min(tree, key=lambda n: (dist2(n, sample), n))
        current = nearest
        for _hop in range(planners.RRT_STEP_EDGES):
            candidates = [
                succ
                for succ, _eid, _eff in neighbors(view, current)
                if succ not in tree
            ]
            if not candidates:
                break
            step = min(candidates, key=lambda n: (dist2(n, sample), n))
            tree[step] = current
            current = step
            if current == goal:
                return finish(tree)
    return PlanResult((), _INF, _INF, tuple(tree))


def offline_optimal(scenario: Scenario, query: Query, epoch_s: float = 30.0,
                    goal_directed: bool = True) -> OracleResult:
    """Minimum realized cost with full event foreknowledge.

    Label-setting A* over (node, time) states with dominance pruning: a label
    is dropped iff an existing label at the same node is no later and no more
    expensive. Labels pop in order of cost plus ``h``, then cost, then time.
    ``h`` is the :func:`landmark_bound` over the two :func:`active_terms` of
    the query's start and goal on a graph of at least
    ``planners.LANDMARK_MIN_NODES`` nodes (read when called), and 0 below
    that. ``goal_directed`` false makes ``h`` 0 on every graph: the plain
    cost order, whose costs the goal-directed order must keep.
    """
    timeline = IdTimeline(scenario, epoch_s)
    bounded = (goal_directed
               and len(scenario.graph.index.ids) >= planners.LANDMARK_MIN_NODES)
    times = landmark_times(timeline.at_epoch(0)) if bounded else {}
    terms = active_terms(times, query.start, query.goal) if bounded else []

    # labels[i] = (cost, time, node, parent_label_index)
    labels: list[tuple[float, float, str, int]] = [(0.0, query.depart_s, query.start, -1)]
    frontier: dict[str, list[tuple[float, float]]] = {query.start: [(query.depart_s, 0.0)]}
    heap: list[tuple[float, float, float, int]] = [(0.0, 0.0, query.depart_s, 0)]
    max_pops = 2_000_000

    def dominated(node: str, time: float, cost: float) -> bool:
        return any(
            t <= time and c <= cost
            for t, c in frontier.get(node, ())
        )

    pops = 0
    while heap:
        _key, cost, time, idx = heapq.heappop(heap)
        _, _, node, _ = labels[idx]
        pops += 1
        if pops > max_pops:
            raise RuntimeError("oracle search exceeded its pop budget")
        if node == query.goal:
            path = []
            while idx != -1:
                path.append(labels[idx][2])
                idx = labels[idx][3]
            path.reverse()
            return OracleResult(query.vehicle, cost, tuple(path))
        view = timeline.at_time(time)
        for succ, _eid, eff in neighbors(view, node):
            ntime = time + eff
            ncost = cost + eff + node_penalty(timeline.at_time(ntime), succ)
            if dominated(succ, ntime, ncost):
                continue
            bucket = frontier.setdefault(succ, [])
            bucket[:] = [
                (t, c) for t, c in bucket if not (ntime <= t and ncost <= c)
            ]
            bucket.append((ntime, ncost))
            labels.append((ncost, ntime, succ, idx))
            key = ncost + landmark_bound(times, succ, query.goal, terms)
            heapq.heappush(heap, (key, ncost, ntime, len(labels) - 1))
    return OracleResult(query.vehicle, math.inf, ())

"""String-keyed reference planners and oracle for differential tests.

``neighbors``, ``time_heuristic`` and ``combined_f`` are the reference
definitions of successors, h1 and the search priority; ``node_penalty``,
``cheapest_edge``, ``path_travel_time`` and ``path_penalty`` those of path
costs. They read the snapshot's search index and its id-keyed mappings, never
its planning view, and speak in node ids, one call per node or edge.
The planners here are the planners as first written: they expand nodes
through ``neighbors()`` and price them with ``time_heuristic`` and
``combined_f``. The planners in ``dynroute.planners`` inline those
definitions in tight loops over node indices and must return exactly the
same results. ``offline_optimal`` is the oracle as first written, keyed by
node id and building its own ground-truth timeline; the oracle in
``dynroute.evaluate`` searches on node indices and must match it bit for bit.
"""

from __future__ import annotations

import heapq
import math
import random

from dynroute import (
    FOUND,
    UNREACHABLE,
    GraphSnapshot,
    HeuristicWeights,
    PlanResult,
    SearchParams,
)
from dynroute.evaluate import OracleResult
from dynroute.graph import Query, Scenario
from dynroute.simulate import TruthTimeline

_INF = math.inf


def _check_node(snap: GraphSnapshot, node: str) -> int:
    i = snap.index.pos.get(node)
    if i is None:
        raise KeyError(f"unknown node {node!r}")
    return i


def neighbors(snap: GraphSnapshot, node: str) -> list[tuple[str, str, float]]:
    """Unblocked successors of ``node`` as (successor, edge_id, effective_time).

    Ordered by ascending edge id, so traversal order is deterministic.
    """
    ids = snap.index.ids
    return [
        (ids[v], eid, base * snap.congestion[eid])
        for eid, v, base in snap.index.out[_check_node(snap, node)]
        if eid not in snap.blocked
    ]


def time_heuristic(snap: GraphSnapshot, node: str, goal: str) -> float:
    """Lower bound on remaining travel time: straight line at top speed."""
    index = snap.index
    n, g = _check_node(snap, node), _check_node(snap, goal)
    return math.hypot(index.xs[n] - index.xs[g], index.ys[n] - index.ys[g]) / index.v_max


def node_penalty(snap: GraphSnapshot, node: str) -> float:
    return snap.h2.get(node, 0.0) + snap.h3.get(node, 0.0)


def cheapest_edge(snap: GraphSnapshot, u: str, v: str) -> tuple[str, float] | None:
    """Cheapest unblocked edge u->v as (edge_id, effective_time); equal
    times go to the lowest edge id. None if there is none or a node is unknown."""
    if u not in snap.index.pos or v not in snap.index.pos:
        return None
    best = None
    for succ, eid, eff in neighbors(snap, u):
        if succ == v and (best is None or eff < best[1]):
            best = (eid, eff)
    return best


def path_travel_time(snap: GraphSnapshot, path: tuple[str, ...]) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        edge = cheapest_edge(snap, u, v)
        if edge is None:
            raise ValueError(f"no unblocked edge along {path!r}")
        total += edge[1]
    return total


def path_penalty(snap: GraphSnapshot, path: tuple[str, ...]) -> float:
    return sum(node_penalty(snap, n) for n in path[1:])


def combined_f(g: float, h1: float, h2: float, h3: float, w: HeuristicWeights) -> float:
    for name, v in (("g", g), ("h1", h1), ("h2", h2), ("h3", h3)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return w.w_g * g + w.w1 * h1 + w.w2 * h2 + w.w3 * h3


def _reconstruct(parent: dict[str, str | None], goal: str) -> tuple[str, ...]:
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return tuple(path)


def dyn_a_star(
    snap: GraphSnapshot, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Best-first search with weighted time/comfort/safety heuristics.

    Priority of a node with accumulated travel time g is
    ``w_g*g + w1*h1 + w2*h2 + w3*h3``. With weights (1,1,0,0) and the
    consistent straight-line time heuristic this is classical A* and returns
    optimal travel time; other weightings trade optimality for preference.
    """
    _check_node(snap, start)
    _check_node(snap, goal)
    w = params.weights

    def h1(n: str) -> float:
        return time_heuristic(snap, n, goal)

    def priority(g: float, n: str) -> float:
        return combined_f(g, h1(n), snap.h2.get(n, 0.0), snap.h3.get(n, 0.0), w)

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
                g_cost=g_best[goal] + path_penalty(snap, path),
                f_cost_at_goal=f,
                expanded=len(closed),
                status=FOUND,
                expansion_order=tuple(order),
            )
        g_node = g_best[node]
        for succ, _eid, eff in neighbors(snap, node):
            if succ in closed:
                continue
            ng = g_node + eff
            if ng < g_best.get(succ, _INF):
                g_best[succ] = ng
                parent[succ] = node
                heapq.heappush(open_heap, (priority(ng, succ), h1(succ), succ))
    return PlanResult((), _INF, _INF, len(closed), UNREACHABLE, tuple(order))


def dijkstra_ucs(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Uniform-cost search on effective travel time. Optimal by construction.

    Kept as a hand-rolled loop, independent of the weighted planner, so the
    two can be checked against each other.
    """
    _check_node(snap, start)
    _check_node(snap, goal)

    def h1(n: str) -> float:
        return time_heuristic(snap, n, goal)

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
                g_cost=g + path_penalty(snap, path),
                f_cost_at_goal=g,
                expanded=len(closed),
                status=FOUND,
                expansion_order=tuple(order),
            )
        for succ, _eid, eff in neighbors(snap, node):
            if succ in closed:
                continue
            ng = g + eff
            if ng < dist.get(succ, _INF):
                dist[succ] = ng
                parent[succ] = node
                heapq.heappush(open_heap, (ng, h1(succ), succ))
    return PlanResult((), _INF, _INF, len(closed), UNREACHABLE, tuple(order))


def greedy_best_first(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Expands by the time heuristic alone; complete but not optimal."""
    _check_node(snap, start)
    _check_node(snap, goal)

    def h1(n: str) -> float:
        return time_heuristic(snap, n, goal)

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
            travel = path_travel_time(snap, path)
            return PlanResult(
                path=path,
                g_cost=travel + path_penalty(snap, path),
                f_cost_at_goal=hv,
                expanded=len(closed),
                status=FOUND,
                expansion_order=tuple(order),
            )
        for succ, _eid, _eff in neighbors(snap, node):
            if succ in closed or succ in parent:
                continue
            parent[succ] = node
            heapq.heappush(open_heap, (h1(succ), succ))
    return PlanResult((), _INF, _INF, len(closed), UNREACHABLE, tuple(order))


def rrt_plan(
    snap: GraphSnapshot, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Graph-adapted rapidly-exploring random tree.

    Samples a node position (goal with probability goal_bias), finds the
    nearest tree node by straight-line distance, and extends the tree up to
    step_edges hops toward the sample along locally greedy unblocked edges.
    Deterministic for a fixed seed.
    """
    _check_node(snap, start)
    _check_node(snap, goal)
    p = params.rrt
    rng = random.Random(params.rng_seed)

    def pos(n: str) -> tuple[float, float]:
        i = snap.index.pos[n]
        return snap.index.xs[i], snap.index.ys[i]

    def dist2(n: str, xy: tuple[float, float]) -> float:
        x, y = pos(n)
        return (x - xy[0]) ** 2 + (y - xy[1]) ** 2

    def finish(tree: dict[str, str | None]) -> PlanResult:
        path = _reconstruct(tree, goal)
        travel = path_travel_time(snap, path)
        return PlanResult(
            path=path,
            g_cost=travel + path_penalty(snap, path),
            f_cost_at_goal=travel,
            expanded=len(tree),
            status=FOUND,
        )

    tree: dict[str, str | None] = {start: None}
    if start == goal:
        return finish(tree)
    node_ids = sorted(snap.index.ids)
    for _ in range(p.max_iterations):
        if rng.random() < p.goal_bias:
            sample = pos(goal)
        else:
            sample = pos(node_ids[rng.randrange(len(node_ids))])
        nearest = min(tree, key=lambda n: (dist2(n, sample), n))
        current = nearest
        for _hop in range(p.step_edges):
            candidates = [
                succ
                for succ, _eid, _eff in neighbors(snap, current)
                if succ not in tree
            ]
            if not candidates:
                break
            step = min(candidates, key=lambda n: (dist2(n, sample), n))
            tree[step] = current
            current = step
            if current == goal:
                return finish(tree)
    return PlanResult((), _INF, _INF, len(tree), UNREACHABLE)


_EPS = 1e-9


def offline_optimal(scenario: Scenario, query: Query, epoch_s: float = 30.0) -> OracleResult:
    """Minimum realized cost with full event foreknowledge.

    Label-setting uniform-cost search over (node, time) states with dominance
    pruning: a label is dropped iff an existing label at the same node is no
    later and no more expensive.
    """
    timeline = TruthTimeline(scenario, epoch_s)

    # labels[i] = (cost, time, node, parent_label_index)
    labels: list[tuple[float, float, str, int]] = [(0.0, query.depart_s, query.start, -1)]
    frontier: dict[str, list[tuple[float, float]]] = {query.start: [(query.depart_s, 0.0)]}
    heap: list[tuple[float, float, int]] = [(0.0, query.depart_s, 0)]
    max_pops = 2_000_000

    def dominated(node: str, time: float, cost: float) -> bool:
        return any(
            t <= time + _EPS and c <= cost + _EPS
            for t, c in frontier.get(node, ())
        )

    pops = 0
    while heap:
        cost, time, idx = heapq.heappop(heap)
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
        snap = timeline.at_time(time)
        for succ, _eid, eff in neighbors(snap, node):
            ntime = time + eff
            ncost = cost + eff + node_penalty(timeline.at_time(ntime), succ)
            if dominated(succ, ntime, ncost):
                continue
            bucket = frontier.setdefault(succ, [])
            bucket[:] = [
                (t, c) for t, c in bucket if not (ntime <= t + _EPS and ncost <= c + _EPS)
            ]
            bucket.append((ntime, ncost))
            labels.append((ncost, ntime, succ, idx))
            heapq.heappush(heap, (ncost, ntime, len(labels) - 1))
    return OracleResult(query.vehicle, math.inf, ())

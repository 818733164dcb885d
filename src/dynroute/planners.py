"""Route planners over immutable graph snapshots.

All planners share one tie-break policy so runs are exactly reproducible:
priority orders by f, then by the time heuristic, then by node id. The
weighted dynamic planner treats comfort/safety as priority-shaping heuristic
terms only; reported costs additionally charge the per-node comfort/safety
penalties actually traversed, so routed comfort shows up in evaluation.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from .graph import GraphSnapshot, neighbors
from .heuristics import HeuristicWeights, combined_f, time_heuristic

FOUND = "found"
UNREACHABLE = "unreachable"

_INF = math.inf


@dataclass(frozen=True)
class RRTParams:
    max_iterations: int = 2000
    step_edges: int = 3
    goal_bias: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be > 0")
        if not (0.0 <= self.goal_bias <= 1.0):
            raise ValueError("goal_bias must be in [0, 1]")
        if self.step_edges < 1:
            raise ValueError("step_edges must be >= 1")


@dataclass(frozen=True)
class SearchParams:
    weights: HeuristicWeights = HeuristicWeights()
    rng_seed: int = 0
    rrt: RRTParams = field(default_factory=RRTParams)


@dataclass(frozen=True)
class PlanResult:
    path: tuple[str, ...]
    g_cost: float
    f_cost_at_goal: float
    expanded: int
    status: str
    expansion_order: tuple[str, ...] = ()


def _check_node(snap: GraphSnapshot, node: str) -> None:
    if node not in snap.nodes:
        raise KeyError(f"unknown node {node!r}")


def cheapest_edge(snap: GraphSnapshot, u: str, v: str) -> tuple[str, float] | None:
    """Cheapest unblocked edge u->v as (edge_id, effective_time), or None."""
    best = None
    edges, blocked, congestion = snap.edges, snap.blocked, snap.congestion
    for eid in snap.adjacency[u]:
        if eid in blocked:
            continue
        e = edges[eid]
        if e.to_node != v:
            continue
        eff = e.base_time_s * congestion[eid]
        if best is None or eff < best[1]:
            best = (eid, eff)
    return best


def path_travel_time(snap: GraphSnapshot, path: tuple[str, ...]) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        edge = cheapest_edge(snap, u, v)
        if edge is None:
            raise ValueError(f"no unblocked edge {u!r} -> {v!r}")
        total += edge[1]
    return total


def path_penalty(snap: GraphSnapshot, path: tuple[str, ...]) -> float:
    return sum(snap.node_penalty(n) for n in path[1:])


def validate_path(snap: GraphSnapshot, path: tuple[str, ...]) -> bool:
    """Independent check that consecutive nodes are joined by unblocked edges."""
    if not path:
        return False
    if any(n not in snap.nodes for n in path):
        return False
    return all(cheapest_edge(snap, u, v) is not None for u, v in zip(path, path[1:]))


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


def static_a_star(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Classical A* with f = g + h1; no comfort/safety terms, no weighting."""
    return dyn_a_star(
        snap, start, goal, SearchParams(weights=HeuristicWeights(1.0, 1.0, 0.0, 0.0))
    )


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
        rec = snap.nodes[n]
        return rec.x, rec.y

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
    node_ids = sorted(snap.nodes)
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


def weighted_path_cost(
    snap: GraphSnapshot, path: tuple[str, ...], w: HeuristicWeights
) -> float:
    """Route quality for plan comparison: weighted travel time plus weighted
    comfort/safety penalties of the nodes the route passes through."""
    total = w.w_g * path_travel_time(snap, path)
    for n in path[1:]:
        total += w.w2 * snap.h2.get(n, 0.0) + w.w3 * snap.h3.get(n, 0.0)
    return total


def replan(
    prior: PlanResult,
    snap: GraphSnapshot,
    current_node: str,
    goal: str,
    params: SearchParams,
    hysteresis: float = 0.01,
) -> PlanResult:
    """Re-search from the vehicle's position, keeping the old route unless
    the fresh plan beats the re-costed remainder by more than ``hysteresis``.
    """
    _check_node(snap, current_node)
    if current_node == goal:
        return PlanResult((goal,), 0.0, 0.0, 1, FOUND, (goal,))

    suffix: tuple[str, ...] = ()
    if prior.status == FOUND and current_node in prior.path:
        idx = prior.path.index(current_node)
        candidate = prior.path[idx:]
        if validate_path(snap, candidate):
            suffix = candidate

    fresh = dyn_a_star(snap, current_node, goal, params)
    if not suffix:
        return fresh
    if fresh.status != FOUND:
        return fresh

    w = params.weights
    suffix_value = weighted_path_cost(snap, suffix, w)
    fresh_value = weighted_path_cost(snap, fresh.path, w)
    if fresh_value < suffix_value * (1.0 - hysteresis):
        return fresh
    return PlanResult(
        path=suffix,
        g_cost=path_travel_time(snap, suffix) + path_penalty(snap, suffix),
        f_cost_at_goal=suffix_value,
        expanded=fresh.expanded,
        status=FOUND,
    )

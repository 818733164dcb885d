"""Route planners over immutable graph snapshots.

All planners, and the path costs here, read only the snapshot's planning
view: its ``arcs`` (each node's unblocked out-edges with their effective
times) and its ``h2_at``/``h3_at`` penalties, keyed by the node indices of
its :class:`~dynroute.graph.SearchIndex`. They share one tie-break policy so
runs are exactly reproducible: priority orders by f, then by the time
heuristic, then by node index, which is the order of node ids. The weighted
dynamic planner treats comfort/safety as priority-shaping heuristic terms
only; reported costs additionally charge the per-node comfort/safety
penalties actually traversed, so routed comfort shows up in evaluation.

The time heuristic h1 is a lower bound on the free-flow time to the goal:
the straight-line distance over the network's top speed. On a graph of at
least ``LANDMARK_MIN_NODES`` (150) nodes, about where the bound starts to
save more search time than its term choice costs, A* and the dynamic
planner (any weighted search with w1 > 0) take the largest of that and two
landmark terms read from the index's table
(:meth:`~dynroute.graph.SearchIndex.landmark_columns`), which the first such
search builds: the two that bound the start best ("active landmarks",
Goldberg & Harrelson, SODA 2005). Congestion is at least 1 and blocking
only removes arcs, so every term holds on every snapshot. UCS (w1 = 0)
reads only the straight-line time, as its tie-break, and greedy best-first
and RRT use the straight line alone.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .graph import GraphSnapshot
from .heuristics import HeuristicWeights

FOUND = "found"
UNREACHABLE = "unreachable"

_INF = math.inf

# The RRT baseline's fixed tuning: samples drawn, hops per extension, and the
# chance a sample is the goal.
RRT_MAX_ITERATIONS = 2000
RRT_STEP_EDGES = 3
RRT_GOAL_BIAS = 0.1

# The fewest nodes a graph needs for A* and the dynamic planner to read the
# landmark bound; on smaller graphs h1 is the straight-line time alone. Per
# search on random queries over congested n x n grids, time with the bound
# over without reads about 1.0 up to 11 x 11 (121 nodes), 0.93-0.98 at
# 12 x 12, 0.73-0.88 at 13 x 13 and 0.65-0.75 at 20 x 20: the bound repays
# its term choice from about 150 nodes on, and below that routes stay as
# they were.
LANDMARK_MIN_NODES = 150


@dataclass(frozen=True)
class SearchParams:
    weights: HeuristicWeights = HeuristicWeights()
    rng_seed: int = 0


# The fixed weightings (w_g, w1, w2, w3) that make the weighted search
# uniform-cost search and classical A*.
UCS_PARAMS = SearchParams(HeuristicWeights(1.0, 0.0, 0.0, 0.0))
ASTAR_PARAMS = SearchParams(HeuristicWeights(1.0, 1.0, 0.0, 0.0))


@dataclass(slots=True)
class PlanResult:
    """A route and the nodes its search expanded, in order. Slotted rather than
    frozen, since one is built per plan call and nothing assigns to one after."""

    path: tuple[str, ...]
    g_cost: float
    f_cost_at_goal: float
    expansion_order: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """FOUND if there is a route, UNREACHABLE if the path is empty."""
        return FOUND if self.path else UNREACHABLE

    @property
    def expanded(self) -> int:
        return len(self.expansion_order)


def _index_of(snap: GraphSnapshot, node: str) -> int:
    i = snap.index.pos.get(node)
    if i is None:
        raise KeyError(f"unknown node {node!r}")
    return i


def cheapest_edge(snap: GraphSnapshot, u: str, v: str) -> tuple[str, float] | None:
    """Cheapest unblocked edge u->v as (edge_id, effective_time), or None.

    Equal times go to the lowest edge id.
    """
    pos = snap.index.pos
    i, j = pos.get(u), pos.get(v)
    if i is None or j is None:
        return None
    best = None
    for eid, head, eff in snap.arcs[i]:
        if head == j and (best is None or eff < best[1]):
            best = (eid, eff)
    return best


def path_travel_time(snap: GraphSnapshot, path: tuple[str, ...]) -> float:
    """Travel time along ``path`` on cheapest unblocked edges; a ValueError
    at the first hop that has none."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        edge = cheapest_edge(snap, u, v)
        if edge is None:
            raise ValueError(f"no unblocked edge along {path!r}")
        total += edge[1]
    return total


def validate_path(snap: GraphSnapshot, path: tuple[str, ...]) -> bool:
    """Independent check that consecutive nodes are joined by unblocked edges."""
    return (bool(path) and all(n in snap.index.pos for n in path)
            and all(cheapest_edge(snap, u, v) for u, v in zip(path, path[1:])))


def _result(snap: GraphSnapshot, parent: dict[int, int] | list[int],
            order: list[int] | dict[int, int], goal: int = -1, f: float | None = None,
            travel: float | None = None) -> PlanResult:
    """Result of a search that expanded ``order`` (a dict's keys, in order) and
    reached ``goal`` along ``parent``, or found no route (``goal`` -1). The
    route's travel time is ``travel`` or else the cheapest arc of each hop; its
    g cost adds the h2 + h3 of every node after the first; ``f`` defaults to ``travel``."""
    ids = snap.index.ids
    expanded = tuple([ids[i] for i in order])
    if goal < 0:
        return PlanResult((), _INF, _INF, expanded)
    route = []
    while goal >= 0:
        route.append(goal)
        goal = parent[goal]
    route.reverse()
    if travel is None:
        travel = 0.0
        for u, v in zip(route, route[1:]):
            travel += min(eff for _eid, head, eff in snap.arcs[u] if head == v)
    h2_at, h3_at = snap.h2_at, snap.h3_at
    return PlanResult(tuple([ids[i] for i in route]),
                      travel + sum(h2_at[i] + h3_at[i] for i in route[1:]),
                      travel if f is None else f, expanded)


def dyn_a_star(
    snap: GraphSnapshot, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Best-first search with weighted time/comfort/safety heuristics.

    Priority of a node with accumulated travel time g is
    ``w_g*g + w1*h1 + w2*h2 + w3*h3``. h1 is the straight-line time or,
    where w1 is not zero on a graph of at least ``LANDMARK_MIN_NODES`` (150)
    nodes, the largest of that and two landmark terms ``c[v] - c[goal]``:
    the two columns of the index's table whose terms bound the start best
    (:func:`_active_columns`), chosen once per search. Each is consistent,
    so with weights (1,1,0,0) this is classical A*; with weights (1,0,0,0)
    it is uniform-cost search, and h1 only breaks ties. Both return optimal
    travel time; other weightings trade optimality for preference. An h1 of
    infinity, a landmark's proof that the node cannot reach the goal, puts
    the node last but still in the search.

    Its g and parent lists are a pair off the index's stack of free pairs,
    put back reset over the nodes it expanded or left queued, so its set-up
    costs nothing that grows with the graph once the index has a free pair.
    Concurrent searches on one index each hold their own pair.
    """
    s, t = _index_of(snap, start), _index_of(snap, goal)
    w = params.weights
    wg, w1, w2, w3 = w.w_g, w.w1, w.w2, w.w3
    index = snap.index
    ids, xs, ys = index.ids, index.xs, index.ys
    arcs, h2_at, h3_at = snap.arcs, snap.h2_at, snap.h3_at
    gx, gy, v_max = xs[t], ys[t], index.v_max
    hypot, push, pop = math.hypot, heapq.heappush, heapq.heappop
    n = len(ids)
    landmarks = w1 and n >= LANDMARK_MIN_NODES

    h = hypot(xs[s] - gx, ys[s] - gy) / v_max
    if landmarks:
        ca, cb = _active_columns(index.landmark_columns(), s, t)
        ka, kb = ca[t], cb[t]
        # max() skips a NaN after its first argument, as the > tests below do.
        h = max(h, ca[s] - ka, cb[s] - kb)
    f = wg * 0.0 + w1 * h + w2 * h2_at[s] + w3 * h3_at[s]
    free = index._free_states
    try:
        g_best, parent = free.pop()
    except IndexError:  # none free: this search builds its own
        g_best, parent = [_INF] * n, [-1] * n
    g_best[s] = 0.0
    parent[s] = -1
    open_heap: list[tuple[float, float, int]] = [(f, h, s)]
    order: list[int] = []
    while open_heap:
        f, _, u = pop(open_heap)
        g_u = g_best[u]
        if g_u < 0.0:  # closed: expanded already
            continue
        g_best[u] = -1.0  # below any g, so no arc reopens a closed node
        order.append(u)
        if u == t:
            result = _result(snap, parent, order, t, f, g_u)
            break
        for _eid, v, eff in arcs[u]:
            ng = g_u + eff
            if ng < g_best[v]:
                g_best[v] = ng
                parent[v] = u
                # h1 and the priority repeat the float operations, in order,
                # of the reference definitions the differential tests hold.
                # A NaN term (inf - inf) fails the > test and is skipped.
                h = hypot(xs[v] - gx, ys[v] - gy) / v_max
                if landmarks:
                    a = ca[v] - ka
                    if a > h:
                        h = a
                    a = cb[v] - kb
                    if a > h:
                        h = a
                push(open_heap, (wg * ng + w1 * h + w2 * h2_at[v] + w3 * h3_at[v], h, v))
    else:
        result = _result(snap, parent, order)
    # Every g this search wrote is at a node it expanded or left queued;
    # parents are read only along a route the search wrote itself.
    for u in order:
        g_best[u] = _INF
    for _f, _h, v in open_heap:
        g_best[v] = _INF
    free.append((g_best, parent))
    return result


def _active_columns(columns: tuple[tuple[float, ...], ...], s: int,
                    t: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The two landmark columns whose terms ``c[s] - c[t]`` bound the time
    from node ``s`` to node ``t`` best ("active landmarks"): the two largest
    terms, a tie going to the lower column and a NaN term ranking below
    every other. A table has at least two columns, one each way per landmark."""
    terms = [c[s] - c[t] for c in columns]
    rank = [(x == x, x if x == x else 0.0) for x in terms]
    # sorted() is stable with reverse=True too: equal ranks keep column order.
    first, second = sorted(range(len(columns)), key=rank.__getitem__, reverse=True)[:2]
    return columns[first], columns[second]


def dijkstra_ucs(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Uniform-cost search on effective travel time: the weighted search with
    every heuristic weight zero, so f = g. Optimal by construction."""
    return dyn_a_star(snap, start, goal, UCS_PARAMS)


def static_a_star(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Classical A* with f = g + h1; no comfort/safety terms, no weighting."""
    return dyn_a_star(snap, start, goal, ASTAR_PARAMS)


def greedy_best_first(snap: GraphSnapshot, start: str, goal: str) -> PlanResult:
    """Expands by the time heuristic alone; complete but not optimal.

    Each node enters the open list at most once, so every pop is an expansion.
    """
    s, t = _index_of(snap, start), _index_of(snap, goal)
    index, arcs = snap.index, snap.arcs
    xs, ys = index.xs, index.ys
    gx, gy, v_max = xs[t], ys[t], index.v_max
    hypot, push, pop = math.hypot, heapq.heappush, heapq.heappop

    parent: dict[int, int] = {s: -1}
    open_heap: list[tuple[float, int]] = [(hypot(xs[s] - gx, ys[s] - gy) / v_max, s)]
    order: list[int] = []
    while open_heap:
        hv, u = pop(open_heap)
        order.append(u)
        if u == t:
            return _result(snap, parent, order, t, hv)
        for _eid, v, _eff in arcs[u]:
            if v in parent:
                continue
            parent[v] = u
            push(open_heap, (hypot(xs[v] - gx, ys[v] - gy) / v_max, v))
    return _result(snap, parent, order)


def rrt_plan(
    snap: GraphSnapshot, start: str, goal: str, params: SearchParams
) -> PlanResult:
    """Graph-adapted rapidly-exploring random tree.

    Samples a node position (the goal with probability ``RRT_GOAL_BIAS``),
    finds the nearest tree node by straight-line distance, and extends the
    tree up to ``RRT_STEP_EDGES`` hops toward the sample along locally greedy
    unblocked edges, for at most ``RRT_MAX_ITERATIONS`` samples. Distance ties
    go to the lower node index, i.e. the lower node id. Deterministic for a
    fixed seed. Its expansion order is the tree's nodes in insertion order.
    """
    s, t = _index_of(snap, start), _index_of(snap, goal)
    rng = random.Random(params.rng_seed)
    index, arcs = snap.index, snap.arcs
    ids, xs, ys = index.ids, index.xs, index.ys

    tree: dict[int, int] = {s: -1}  # node -> parent, in insertion order
    if s == t:
        return _result(snap, tree, tree, t)
    for _ in range(RRT_MAX_ITERATIONS):
        sample = t if rng.random() < RRT_GOAL_BIAS else rng.randrange(len(ids))
        sx, sy = xs[sample], ys[sample]
        current, best_d = s, (xs[s] - sx) ** 2 + (ys[s] - sy) ** 2
        for i in tree:
            d = (xs[i] - sx) ** 2 + (ys[i] - sy) ** 2
            if d < best_d or (d == best_d and i < current):
                current, best_d = i, d
        for _hop in range(RRT_STEP_EDGES):
            step = -1
            for _eid, v, _eff in arcs[current]:
                if v in tree:
                    continue
                d = (xs[v] - sx) ** 2 + (ys[v] - sy) ** 2
                if step < 0 or d < step_d or (d == step_d and v < step):
                    step, step_d = v, d
            if step < 0:
                break
            tree[step] = current
            current = step
            if current == t:
                return _result(snap, tree, tree, t)
    return _result(snap, tree, tree)


def replan(
    prior: PlanResult,
    snap: GraphSnapshot,
    current_node: str,
    goal: str,
    params: SearchParams,
    keep: bool = False,
) -> PlanResult:
    """The plan of a vehicle at ``current_node``: ``prior``, the route it
    holds, when ``keep``, and otherwise a new :func:`dyn_a_star` search's
    result as it is.

    The simulator keeps the route while nothing its search read has changed,
    and gets ``prior`` back as it is, with no expansions, at the goal too.
    """
    return prior if keep else dyn_a_star(snap, current_node, goal, params)

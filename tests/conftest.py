import math
import random
from pathlib import Path

import pytest

from dynroute import (
    EdgeRecord,
    HeuristicField,
    NodeRecord,
    RoadGraph,
    snapshot,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def build_graph(nodes, edges) -> RoadGraph:
    """nodes: (id, x, y); edges: (id, u, v, length, base_time)."""
    return RoadGraph(
        [NodeRecord(*n) for n in nodes],
        [EdgeRecord(*e) for e in edges],
    )


def snap_of(graph, h2=None, h3=None):
    return snapshot(graph, HeuristicField(h2_by_node=h2 or {}, h3_by_node=h3 or {}))


def diamond_graph() -> RoadGraph:
    """a -> {b, c} -> d with travel times 1, 1, 1, 3. Best path a-b-d, cost 2.

    All nodes share a position so the time heuristic is identically zero and
    optimality claims do not depend on geometry.
    """
    nodes = [(n, 0.0, 0.0) for n in "abcd"]
    edges = [
        ("e1", "a", "b", 1.0, 1.0),
        ("e2", "b", "d", 1.0, 1.0),
        ("e3", "a", "c", 1.0, 1.0),
        ("e4", "c", "d", 1.0, 3.0),
    ]
    return build_graph(nodes, edges)


def enumerate_min_travel(graph, start, goal) -> float:
    """Independent oracle: exhaustive DFS over simple paths of ``graph``'s
    current overlay, minimum effective travel time. Only usable on small
    graphs."""
    best = math.inf
    pos = graph.index.pos
    goal_i = pos[goal]

    def dfs(node, cost, visited):
        nonlocal best
        if cost >= best:
            return
        if node == goal_i:
            best = cost
            return
        for eid, v, base in graph.index.out[node]:
            if eid in graph.blocked or v in visited:
                continue
            dfs(v, cost + base * graph.congestion[eid], visited | {v})

    dfs(pos[start], 0.0, {pos[start]})
    return best


def random_connected_graph(rng: random.Random, max_nodes: int = 10):
    """Random strongly-reachable graph (start n0, goal last node) with
    positions, admissible lengths and random congestion factors."""
    n = rng.randint(2, max_nodes)
    positions = {}
    while len(positions) < n:
        positions[f"n{len(positions)}"] = (
            rng.uniform(0, 1000.0),
            rng.uniform(0, 1000.0),
        )
    ids = sorted(positions)
    nodes = [(nid, *positions[nid]) for nid in ids]
    edges = []

    def add_edge(u, v):
        ux, uy = positions[u]
        vx, vy = positions[v]
        dist = math.hypot(ux - vx, uy - vy)
        length = max(1.0, dist) * rng.uniform(1.0, 1.5)
        base = length / rng.uniform(2.0, 10.0)
        edges.append((f"e{len(edges):03d}", u, v, length, base))

    order = ids[:]
    rng.shuffle(order)
    for i in range(1, n):  # random arborescence keeps everything reachable
        add_edge(order[rng.randrange(i)], order[i])
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(ids, 2)
        add_edge(u, v)

    graph = build_graph(nodes, edges)
    for eid in graph.edges:
        if rng.random() < 0.3:
            graph.congestion[eid] = rng.uniform(1.0, 4.0)
    return graph, order[0], order[-1]


def random_congested_grid(rng: random.Random):
    from dynroute import make_grid

    rows = rng.randint(2, 6)
    cols = rng.randint(2, 6)
    grid = make_grid(rows, cols, 100.0, 10.0)
    for eid in grid.edges:
        if rng.random() < 0.4:
            grid.congestion[eid] = rng.uniform(1.0, 5.0)
    node_ids = sorted(grid.nodes)
    start, goal = rng.sample(node_ids, 2)
    return grid, start, goal

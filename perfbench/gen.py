"""Seeded generators for the benchmark's scenario documents.

Every document is a pure function of its seed and is returned as canonical
JSON text (sorted keys, two-space indent), so equal seeds give byte-identical
documents and their sha256 identifies the input a run measured. Documents are
built here rather than through the package, so a change to the program cannot
change the inputs it is measured on.
"""

from __future__ import annotations

import hashlib
import json
import random

EDGE_M = 500.0
SPEED_MPS = 10.0
WEIGHTS_FULL = (1.0, 1.0, 1.0, 1.0)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def node_id(r: int, c: int) -> str:
    return f"n{r:02d}_{c:02d}"


def grid(rows: int, cols: int) -> tuple[list[dict], list[dict]]:
    """4-connected grid, 500 m edges at 10 m/s (50 s), both directions."""
    nodes = [
        {"id": node_id(r, c), "x": c * EDGE_M, "y": r * EDGE_M}
        for r in range(rows)
        for c in range(cols)
    ]
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append({
                        "id": f"e{len(edges):06d}", "from": node_id(r, c),
                        "to": node_id(rr, cc), "length_m": EDGE_M,
                        "base_time_s": EDGE_M / SPEED_MPS,
                    })
    return nodes, edges


def sparse_field(rng: random.Random, nodes: list[dict], share: float, hi: float) -> dict:
    """Penalties in [0, hi) s on a seeded ``share`` of the nodes."""
    k = int(len(nodes) * share)
    return {n["id"]: round(rng.uniform(0.0, hi), 3) for n in sorted(rng.sample(nodes, k), key=lambda n: n["id"])}


def query(vehicle: str, start: str, goal: str, depart: float) -> dict:
    wg, w1, w2, w3 = WEIGHTS_FULL
    return {
        "vehicle": vehicle, "start": start, "goal": goal, "depart_s": depart,
        "weights": {"wg": wg, "w1": w1, "w2": w2, "w3": w3},
        "context": {"prefers_comfort": False, "rough_road": False, "heavy_traffic": False},
    }


def doc(name: str, seed: int, nodes, edges, h2, h3, events, queries) -> dict:
    return {
        "meta": {"name": name, "seed": seed, "alpha": 0.3},
        "nodes": nodes, "edges": edges, "heuristics": {"h2": h2, "h3": h3},
        "events": sorted(events, key=lambda e: e["t_s"]), "queries": queries,
    }


def pair_at_distance(rng: random.Random, rows: int, cols: int, dist: int) -> tuple[str, str]:
    """Start and goal at Manhattan distance ``dist``, placed at random."""
    while True:
        dr = rng.randint(max(0, dist - (cols - 1)), min(dist, rows - 1))
        dc = dist - dr
        dr *= rng.choice((-1, 1))
        dc *= rng.choice((-1, 1))
        r0, c0 = rng.randrange(rows), rng.randrange(cols)
        if 0 <= r0 + dr < rows and 0 <= c0 + dc < cols:
            return node_id(r0, c0), node_id(r0 + dr, c0 + dc)


def mixed_events(rng: random.Random, nodes, edges, count: int, t_max: float) -> list[dict]:
    """Half congestion (40% of it sensed only); the rest split between edge
    comfort, node comfort and block/unblock pairs."""
    events = []
    n_cong = count // 2
    n_block = (count - n_cong) // 4
    n_other = count - n_cong - 2 * n_block
    for i in range(n_cong):
        ev = {"t_s": round(rng.uniform(0.0, t_max), 1), "kind": "set_congestion",
              "target": rng.choice(edges)["id"], "value": round(rng.uniform(1.5, 4.0), 2)}
        if i < n_cong * 2 // 5:
            ev["sensed_only"] = True
        events.append(ev)
    for i in range(n_other):
        t = round(rng.uniform(0.0, t_max), 1)
        if i % 2:
            events.append({"t_s": t, "kind": "set_comfort", "target": rng.choice(edges)["id"],
                           "value": round(rng.uniform(5.0, 60.0), 2)})
        else:
            events.append({"t_s": t, "kind": "set_node_comfort_h",
                           "target": rng.choice(nodes)["id"],
                           "value": round(rng.uniform(10.0, 120.0), 2)})
    for eid in rng.sample([e["id"] for e in edges], n_block):
        t = round(rng.uniform(0.0, t_max * 0.8), 1)
        events.append({"t_s": t, "kind": "block_edge", "target": eid})
        events.append({"t_s": round(t + rng.uniform(120.0, 900.0), 1),
                       "kind": "unblock_edge", "target": eid})
    return events


def spread_hops(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` trip lengths spread evenly over lo..hi hops, in seeded order,
    so every seed asks for the same mix of short and long trips."""
    hops = [lo + ((hi - lo) * i) // max(1, count - 1) for i in range(count)]
    rng.shuffle(hops)
    return hops


def trip_queries(rng: random.Random, size: int, count: int, hops: tuple[int, int],
                 depart_max: float) -> list[dict]:
    """``count`` vehicles on a size x size grid with trips of ``hops`` hops."""
    return [
        query(f"v{i:03d}", *pair_at_distance(rng, size, size, d),
              round(rng.uniform(0.0, depart_max), 1))
        for i, d in enumerate(spread_hops(rng, count, *hops))
    ]


# -- the workloads' documents ------------------------------------------------

GRID_PLAN_SIZE = 100
GRID_PLAN_CONGESTED = 400


def grid_plan_doc(seed: int) -> str:
    """100x100 grid, seeded congestion in force from t=0, sparse h2/h3."""
    rng = random.Random(seed)
    nodes, edges = grid(GRID_PLAN_SIZE, GRID_PLAN_SIZE)
    h2 = sparse_field(rng, nodes, 0.05, 60.0)
    h3 = sparse_field(rng, nodes, 0.05, 60.0)
    events = [
        {"t_s": 0.0, "kind": "set_congestion", "target": e["id"],
         "value": round(rng.uniform(1.5, 6.0), 2)}
        for e in rng.sample(edges, GRID_PLAN_CONGESTED)
    ]
    return dumps(doc(f"grid_plan_{seed}", seed, nodes, edges, h2, h3, events, []))


PAIRS_PER_PASS = 20


def grid_plan_pairs(seed: int, pass_index: int) -> list[tuple[str, str]]:
    """Pass ``pass_index``'s start/goal pairs, 10..120 hops apart. Passes
    differ in placement only, so a run's latency mix does not depend on how
    many passes it made."""
    rng = random.Random(f"{seed}/{pass_index}")
    return [pair_at_distance(rng, GRID_PLAN_SIZE, GRID_PLAN_SIZE, d)
            for d in spread_hops(rng, PAIRS_PER_PASS, 10, 120)]


def fleet_doc(seed: int) -> str:
    """30x30 grid, 200 vehicles departing over 0-4200 s, 300 mixed events."""
    rng = random.Random(seed)
    nodes, edges = grid(30, 30)
    h2 = sparse_field(rng, nodes, 0.05, 60.0)
    h3 = sparse_field(rng, nodes, 0.05, 60.0)
    events = mixed_events(rng, nodes, edges, 300, 4800.0)
    queries = trip_queries(rng, 30, 200, (6, 20), 4200.0)
    return dumps(doc(f"fleet_{seed}", seed, nodes, edges, h2, h3, events, queries))


EVAL_SCENARIOS = 8


def eval_grid20_docs(seed: int) -> list[str]:
    """20x20 grids at the oracle's limits: 400 nodes, 64 events, 20 queries."""
    out = []
    for k in range(EVAL_SCENARIOS):
        rng = random.Random(seed * 1000 + k)
        nodes, edges = grid(20, 20)
        h2 = sparse_field(rng, nodes, 0.05, 60.0)
        h3 = sparse_field(rng, nodes, 0.05, 60.0)
        events = mixed_events(rng, nodes, edges, 64, 1500.0)
        queries = trip_queries(rng, 20, 20, (4, 20), 600.0)
        out.append(dumps(doc(f"grid20_{seed}_{k}", seed * 1000 + k, nodes, edges,
                             h2, h3, events, queries)))
    return out

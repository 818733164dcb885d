"""Generator for the bundled benchmark scenario suites.

Five scenario families exercise the qualitative differences between the
planners:

* congestion -- a fast corridor degrades mid-journey; replanners detour.
* blockage   -- a corridor edge closes mid-journey; non-replanners strand.
* comfort    -- comfort penalties appear on upcoming nodes; only the
                comfort-aware replanner routes around them.
* deceptive  -- the geometrically direct route is several times slower;
                heuristic-greedy search commits to it.
* crowdsense -- congestion visible only through traversal; a leader reports
                it and a following vehicle benefits from shared observations.

All scenarios are built on a "ladder" road layout (a fast main road with a
slower parallel service road joined by short links) or purpose-built small
graphs, sized so the offline oracle solves them instantly. Generation is a
pure function of the seed; the committed files are reproduced byte-for-byte
by ``python -m dynroute.suite``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .graph import (
    BLOCK_EDGE,
    SET_COMFORT,
    SET_CONGESTION,
    SET_NODE_COMFORT_H,
    UNBLOCK_EDGE,
    EdgeRecord,
    Event,
    NodeRecord,
    Query,
    RoadGraph,
    Scenario,
    load_scenario,
    make_grid,
    serialize_scenario,
)
from .heuristics import HeuristicField, HeuristicWeights

EPOCH_S = 30.0  # suite scenarios are designed against the default epoch


def _doc(name: str, seed: int, graph: RoadGraph, queries, events=()) -> Scenario:
    """A scenario with no initial heuristics, at the schema's smoothing alpha."""
    return Scenario(graph, HeuristicField(), tuple(events), tuple(queries), name, seed)


def _query(vehicle, start, goal, weights, prefers_comfort=False) -> Query:
    return Query(vehicle, start, goal, 0.0, HeuristicWeights(*weights), prefers_comfort)


def _ladder(k: int) -> RoadGraph:
    """Main road a0..ak (50 s/edge) with a parallel service road (60 s/edge)
    reachable by short links from a1..a(k-1) and rejoining at ak."""
    nodes = [NodeRecord(f"a{i}", i * 500.0, 0.0) for i in range(k + 1)]
    nodes += [NodeRecord(f"b{i}", i * 500.0, -300.0) for i in range(1, k)]
    edges = [EdgeRecord(f"e_a{i:02d}", f"a{i}", f"a{i+1}", 500.0, 50.0) for i in range(k)]
    edges += [EdgeRecord(f"e_r{i:02d}", f"a{i}", f"b{i}", 300.0, 30.0) for i in range(1, k)]
    edges += [EdgeRecord(f"e_b{i:02d}", f"b{i}", f"b{i+1}", 500.0, 60.0) for i in range(1, k - 1)]
    exit_len = math.hypot(500.0, 300.0)
    edges.append(EdgeRecord(f"e_x{k-1:02d}", f"b{k-1}", f"a{k}", exit_len, 60.0))
    return RoadGraph(nodes, edges)


def _onset_boundary(j: int) -> float:
    """Latest epoch boundary at or before the vehicle reaches main-road node j."""
    return EPOCH_S * math.floor(50.0 * j / EPOCH_S)


def _ladder_family(family: str, offset: int, seed: int, combos, events, weights,
                   prefers_comfort: bool = False) -> list[Scenario]:
    """One scenario per ``(k, j, x, label)`` combo, named
    ``{family}_k{k}_j{j}_{label}``: a vehicle drives ``_ladder(k)`` from a0 to
    ak under ``events(t, k, j, x)``, where ``t`` is the onset boundary of j."""
    return [
        _doc(f"{family}_k{k}_j{j}_{label}", seed + offset + idx, _ladder(k),
             [_query("v1", "a0", f"a{k}", weights, prefers_comfort)],
             events(_onset_boundary(j), k, j, x))
        for idx, (k, j, x, label) in enumerate(combos)
    ]


def congestion_scenarios(seed: int):
    combos = [(k, j, f, f"f{int(f)}") for k in (6, 7, 8) for j in (2, 3, 4)
              for f in (4.0, 6.0, 10.0) if j <= k - 2]
    return _ladder_family(
        "congestion", 0, seed, combos,
        lambda t, k, j, f: [Event(t, SET_CONGESTION, f"e_a{i:02d}", f) for i in range(j, k)],
        weights=(1, 1, 1, 0))


def blockage_scenarios(seed: int):
    closed = ((0.0, BLOCK_EDGE),)
    reopen = closed + ((900.0, UNBLOCK_EDGE),)
    combos = [(k, j, schedule, label) for k in (6, 7, 8, 9) for j in (2, 3, 4)
              for schedule, label in ((closed, "closed"), (reopen, "reopen"))
              if j <= k - 2][:20]
    return _ladder_family(
        "blockage", 100, seed, combos,
        lambda t, k, j, schedule: [Event(t + dt, kind, f"e_a{j:02d}") for dt, kind in schedule],
        weights=(1, 1, 1, 0))


def comfort_scenarios(seed: int):
    # j <= k-3 keeps at least one penalized interior node ahead of the goal.
    combos = [(k, j, p, f"p{int(p)}") for k in (6, 7, 8) for j in (2, 3, 4)
              for p in (300.0, 500.0, 700.0) if j <= k - 3][:20]
    return _ladder_family(
        "comfort", 200, seed, combos,
        lambda t, k, j, p: [Event(t, SET_NODE_COMFORT_H, f"a{i}", p) for i in range(j + 1, k)],
        weights=(1, 1, 1, 1), prefers_comfort=True)


def deceptive_scenarios(seed: int):
    docs = []
    combos = ([(m, slow) for m in (4, 5, 6) for slow in (2.0, 2.5, 3.0)]
              + [(m, slow) for m in (7, 8, 9) for slow in (2.0, 2.5)])
    for idx, (m, slow) in enumerate(combos):
        span = 1000.0
        nodes = [NodeRecord("s", 0.0, 0.0), NodeRecord("t", span, 0.0),
                 NodeRecord("u", span / 2.0, 800.0)]
        step = span / m
        nodes += [NodeRecord(f"d{i}", i * step, 0.0) for i in range(1, m)]
        chain = ["s"] + [f"d{i}" for i in range(1, m)] + ["t"]
        edges = [EdgeRecord(f"e_d{i:02d}", a, b, step, step / slow)
                 for i, (a, b) in enumerate(zip(chain, chain[1:]))]
        leg = math.hypot(span / 2.0, 800.0)
        edges.append(EdgeRecord("e_u0", "s", "u", leg, 100.0))
        edges.append(EdgeRecord("e_u1", "u", "t", leg, 100.0))
        name = f"deceptive_m{m}_s{int(slow * 10)}"
        docs.append(
            _doc(name, seed + 300 + idx, RoadGraph(nodes, edges),
                 [_query("v1", "s", "t", weights=(1, 1, 1, 1))])
        )
    return docs


def _crowdsense_doc(name: str, seed: int, factor: float, prefix: int,
                    follower_extra: int = 0):
    """Leader is forced over a hidden congested edge and reports it; the
    follower reaches the junction after the report lands and can detour."""
    obs_t = 50.0 * prefix + 50.0 * factor
    ingest_b = math.ceil(obs_t / EPOCH_S) * EPOCH_S
    n = math.ceil((ingest_b + EPOCH_S) / 50.0) + follower_extra

    nodes = [NodeRecord("x", 0.0, 0.0), NodeRecord("y", 500.0, 0.0),
             NodeRecord("lg", 1000.0, 0.0), NodeRecord("z", 500.0, -400.0)]
    edges = [
        EdgeRecord("e_h", "x", "y", 500.0, 50.0),
        EdgeRecord("e_yg", "y", "lg", 500.0, 50.0),
        EdgeRecord("e_z0", "x", "z", math.hypot(500.0, 400.0), 60.0),
        EdgeRecord("e_z1", "z", "lg", math.hypot(500.0, 400.0), 60.0),
    ]
    for i in range(prefix):
        nodes.append(NodeRecord(f"l{i}", 0.0, 300.0 * (prefix - i)))
        dst = "x" if i == prefix - 1 else f"l{i+1}"
        edges.append(EdgeRecord(f"e_l{i:02d}", f"l{i}", dst, 300.0, 50.0))
    for i in range(n):
        nodes.append(NodeRecord(f"f{i}", -500.0 * (n - i), 0.0))
        dst = "x" if i == n - 1 else f"f{i+1}"
        edges.append(EdgeRecord(f"e_f{i:02d}", f"f{i}", dst, 500.0, 50.0))

    events = [Event(0.0, SET_CONGESTION, "e_h", factor, sensed_only=True)]
    queries = [
        _query("lead", "l0", "y", weights=(1, 1, 0, 0)),
        _query("tail", "f0", "lg", weights=(1, 1, 0, 0)),
    ]
    return _doc(name, seed, RoadGraph(nodes, edges), queries, events)


def crowdsense_scenarios(seed: int):
    docs = []
    combos = [
        (factor, prefix, extra)
        for factor in (8.0, 10.0, 12.0)
        for prefix in (1, 2, 3)
        for extra in (0, 1, 2)
    ][:20]
    for idx, (factor, prefix, extra) in enumerate(combos):
        name = f"crowdsense_f{int(factor)}_p{prefix}_e{extra}"
        docs.append(_crowdsense_doc(name, seed + 400 + idx, factor, prefix, extra))
    return docs


def static_scenarios(seed: int):
    """Zero-event sub-suite: optimal planners must score exactly 1."""
    docs = [replace(d, name="static_" + d.name) for d in deceptive_scenarios(seed + 500)]
    for idx, k in enumerate((5, 6, 7, 8, 9)):
        docs.append(
            _doc(f"static_ladder_k{k}", seed + 600 + idx, _ladder(k),
                 [_query("v1", "a0", f"a{k}", weights=(1, 1, 1, 1))])
        )
    return docs


def grid10_doc(seed: int):
    """10x10 grid fixture: 100 nodes, 12 timed events, one crossing query."""
    g = make_grid(10, 10, 500.0, 10.0)
    ids = g.index.ids  # node ids in sorted order
    eids = sorted(g.edges)
    events = [Event(60.0 + 60.0 * i, SET_CONGESTION, eids[13 + 29 * i], 3.0 + i)
              for i in range(6)]
    events += [Event(480.0 + 60.0 * i, SET_COMFORT, eids[7 + 31 * i], 2.0) for i in range(3)]
    events += [Event(720.0, BLOCK_EDGE, eids[101]), Event(900.0, UNBLOCK_EDGE, eids[101]),
               Event(960.0, SET_NODE_COMFORT_H, ids[44], 30.0)]
    return _doc("grid10_congestion", seed, g,
                [_query("v1", ids[0], ids[-1], weights=(1, 1, 1, 0))], events)


def sharing_fixture_doc(seed: int):
    """Two-vehicle observation-sharing fixture used by the acceptance suite."""
    return _crowdsense_doc("sharing_fixture", seed, factor=10.0, prefix=1)


def write_suites(root: Path, seed: int = 20240) -> dict[str, int]:
    """Write all bundled scenario files under ``root``. Returns file counts."""
    counts = {}
    suite_docs = (
        congestion_scenarios(seed)
        + blockage_scenarios(seed)
        + comfort_scenarios(seed)
        + deceptive_scenarios(seed)
        + crowdsense_scenarios(seed)
    )
    for sub, docs in (("suite", suite_docs), ("static_suite", static_scenarios(seed))):
        (root / sub).mkdir(parents=True, exist_ok=True)
        for doc in docs:
            _write_doc(root / sub / f"{doc.name}.scn", doc)
        counts[sub] = len(docs)
    _write_doc(root / "grid10_congestion.scn", grid10_doc(seed))
    _write_doc(root / "sharing_fixture.scn", sharing_fixture_doc(seed))
    counts["fixtures"] = 2
    return counts


def _write_doc(path: Path, scn: Scenario) -> None:
    text = serialize_scenario(scn)
    load_scenario(text)  # validate before committing
    path.write_text(text)


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description="regenerate the bundled scenario suites")
    parser.add_argument("--out", type=Path, default=Path("scenarios"))
    parser.add_argument("--seed", type=int, default=20240)
    args = parser.parse_args()
    counts = write_suites(args.out, args.seed)
    for k, v in sorted(counts.items()):
        print(f"{k}: {v} file(s)")


if __name__ == "__main__":
    main()

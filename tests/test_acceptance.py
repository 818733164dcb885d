"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain ``pytest -v -s tests/test_acceptance.py`` run.
"""

import json
import random
import time

import pytest

from dynroute import (
    Event,
    HeuristicField,
    HeuristicWeights,
    SearchParams,
    SimConfig,
    apply_event,
    compare_algorithms,
    dijkstra_ucs,
    dyn_a_star,
    load_scenario,
    make_grid,
    run_simulation,
    snapshot,
    static_a_star,
)
from dynroute.cli import main as cli_main
from dynroute.planners import path_travel_time

import reference_planners as ref
from conftest import (
    SCENARIO_DIR,
    enumerate_min_travel,
    random_congested_grid,
    random_connected_graph,
    snap_of,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_exact_optimality_on_random_graphs():
    t0 = time.monotonic()
    rng = random.Random(1)
    checked = 0
    ok = True
    for _ in range(200):
        g, start, goal = random_connected_graph(rng, max_nodes=10)
        snap = snap_of(g)
        want = enumerate_min_travel(g, start, goal)
        for plan in (
            dijkstra_ucs(snap, start, goal),
            static_a_star(snap, start, goal),
            dyn_a_star(snap, start, goal,
                       SearchParams(weights=HeuristicWeights(1, 1, 0, 0))),
        ):
            if abs(plan.g_cost - want) > 1e-6 * max(1.0, want):
                ok = False
        checked += 1
    elapsed = time.monotonic() - t0
    _report(1, "optimal planners match exhaustive enumeration on 200 random graphs",
            ok and elapsed < 30.0, f"{checked} graphs in {elapsed:.1f}s")


def test_02_weighted_search_bounded_suboptimality():
    t0 = time.monotonic()
    rng = random.Random(2)
    ok = True
    worst = 0.0
    for W in (1.5, 2.0, 5.0):
        params = SearchParams(weights=HeuristicWeights(1.0, W, 0.0, 0.0))
        for _ in range(60):
            g, start, goal = random_connected_graph(rng, max_nodes=10)
            snap = snap_of(g)
            best = enumerate_min_travel(g, start, goal)
            res = dyn_a_star(snap, start, goal, params)
            got = path_travel_time(snap, res.path)
            worst = max(worst, got / best if best > 0 else 1.0)
            if got > W * best + 1e-9:
                ok = False
    elapsed = time.monotonic() - t0
    _report(2, "inflated time weight W keeps cost within W x optimal",
            ok and elapsed < 60.0, f"worst observed ratio {worst:.3f}, {elapsed:.1f}s")


def test_03_zero_weight_reduction_to_uniform_cost():
    t0 = time.monotonic()
    rng = random.Random(3)
    params = SearchParams(weights=HeuristicWeights(1.0, 0.0, 0.0, 0.0))
    ok = True
    for _ in range(100):
        g, start, goal = random_congested_grid(rng)
        snap = snap_of(g)
        # The reference's own loop: dijkstra_ucs is dyn_a_star with these weights.
        ucs = ref.dijkstra_ucs(ref.id_view(g, HeuristicField()), start, goal)
        dyn = dyn_a_star(snap, start, goal, params)
        if dyn.g_cost != ucs.g_cost or dyn.expansion_order != ucs.expansion_order:
            ok = False
    elapsed = time.monotonic() - t0
    _report(3, "zero heuristic weights reproduce uniform-cost search exactly",
            ok and elapsed < 30.0, f"100 grids in {elapsed:.1f}s")


def test_04_benchmark_ordering_on_dynamic_suite():
    t0 = time.monotonic()
    paths = sorted((SCENARIO_DIR / "suite").glob("*.scn"))
    assert len(paths) >= 100, f"suite has only {len(paths)} scenarios"
    report = compare_algorithms(paths, rho=1.15, jobs=4)
    elapsed = time.monotonic() - t0
    by = {r.algorithm: r.score for r in report.rows}
    ok = (
        by["dyn_astar"] > by["astar"] > by["greedy"]
        and by["dyn_astar"] - by["astar"] >= 0.05
        and elapsed < 300.0
    )
    detail = (
        f"dyn={by['dyn_astar']:.2f} astar={by['astar']:.2f} "
        f"ucs={by['ucs']:.2f} rrt={by['rrt']:.2f} greedy={by['greedy']:.2f}, "
        f"{len(paths)} scenarios in {elapsed:.1f}s"
    )
    _report(4, "dynamic replanning outscores static planners on the dynamic suite",
            ok, detail)


def test_05_static_suite_parity():
    paths = sorted((SCENARIO_DIR / "static_suite").glob("*.scn"))
    report = compare_algorithms(
        paths, rho=1.15, algorithms=("ucs", "astar", "dyn_astar")
    )
    by = {r.algorithm: r.score for r in report.rows}
    ok = by["ucs"] == 1.0 and by["astar"] == 1.0 and by["dyn_astar"] == 1.0
    _report(5, "optimal planners all score 1.0 on the event-free suite", ok,
            f"ucs={by['ucs']:.2f} astar={by['astar']:.2f} dyn={by['dyn_astar']:.2f}")


def test_06_observation_sharing_benefit_matches_route_math():
    scn = load_scenario((SCENARIO_DIR / "sharing_fixture.scn").read_text())
    shared = run_simulation(scn, SimConfig(share_observations=True))
    alone = run_simulation(scn, SimConfig(share_observations=False))
    cost = lambda t: {v["vehicle"]: v["realized_cost_s"] for v in t.vehicles}
    delta = cost(alone)["tail"] - cost(shared)["tail"]

    # Independent route math: after all events, the hidden edge plus the
    # remainder to the goal versus the best route that avoids it.
    hidden = next(ev for ev in scn.events if ev.sensed_only)
    truth = scn.graph.copy()
    fld = scn.initial_field.copy()
    for ev in scn.events:
        apply_event(truth, fld, ev)
    edge = truth.edges[hidden.target]
    goal = next(q.goal for q in scn.queries if q.vehicle == "tail")
    through = (edge.base_time_s * truth.congestion[edge.id]
               + enumerate_min_travel(truth, edge.to_node, goal))
    detour_truth = truth.copy()
    detour_truth.blocked.add(hidden.target)
    around = enumerate_min_travel(detour_truth, edge.from_node, goal)
    expected = through - around

    statuses = {v["status"] for t in (shared, alone) for v in t.vehicles}
    ok = statuses == {"arrived"} and delta > 0 and delta == pytest.approx(expected)
    _report(6, "shared traversal reports save followers exactly the detour margin",
            ok, f"delta={delta:.1f}s expected={expected:.1f}s")


def test_07_cli_outputs_are_byte_reproducible(tmp_path, capsys):
    scenario = SCENARIO_DIR / "sharing_fixture.scn"
    outs = []
    for tag in ("a", "b"):
        prefix = str(tmp_path / f"sim_{tag}")
        assert cli_main(["simulate", "--scenario", str(scenario), "--out", prefix]) == 0
        outs.append(
            (tmp_path / f"sim_{tag}.trace.json").read_bytes()
            + (tmp_path / f"sim_{tag}.csv").read_bytes()
        )
    sim_ok = outs[0] == outs[1]

    bench_outs = []
    for tag in ("a", "b"):
        prefix = str(tmp_path / f"bench_{tag}")
        code = cli_main([
            "bench", "--suite", str(SCENARIO_DIR / "static_suite"), "--out", prefix,
        ])
        assert code == 0
        bench_outs.append(
            (tmp_path / f"bench_{tag}.csv").read_bytes()
            + (tmp_path / f"bench_{tag}.txt").read_bytes()
        )
    bench_ok = bench_outs[0] == bench_outs[1]
    capsys.readouterr()
    _report(7, "repeated CLI simulate/bench runs are byte-identical",
            sim_ok and bench_ok, f"simulate={sim_ok} bench={bench_ok}")


def test_08_safety_field_immutable_under_event_storms():
    rng = random.Random(8)
    grid = make_grid(3, 3, 100.0, 10.0)
    node_ids = sorted(grid.nodes)
    edge_ids = sorted(grid.edges)
    ok = True
    for _ in range(1000):
        fld = HeuristicField(
            h3_by_node={n: rng.uniform(0, 5) for n in rng.sample(node_ids, 4)}
        )
        before = dict(fld.h3_by_node)
        g = grid.copy()
        for _ in range(rng.randrange(1, 12)):
            kind = rng.choice([
                "set_congestion", "set_comfort", "set_node_comfort_h",
                "block_edge", "unblock_edge",
            ])
            target = (rng.choice(node_ids) if kind == "set_node_comfort_h"
                      else rng.choice(edge_ids))
            value = None if kind.endswith("block_edge") else rng.uniform(1.0, 9.0)
            apply_event(g, fld, Event(0.0, kind, target, value))
        if dict(fld.h3_by_node) != before:
            ok = False
    _report(8, "1000 random event sequences never alter the safety field", ok)


def test_09_single_plan_under_one_second_on_large_grid():
    grid = make_grid(100, 100, 100.0, 10.0)
    snap = snapshot(grid, HeuristicField())
    params = SearchParams(weights=HeuristicWeights(1, 1, 0, 0))
    t0 = time.monotonic()
    res = dyn_a_star(snap, "n00_00", "n99_99", params)
    elapsed = time.monotonic() - t0
    ok = res.status == "found" and res.g_cost == pytest.approx(1980.0) and elapsed < 1.0
    _report(9, "one plan across a 10,000-node grid completes in under a second",
            ok, f"{elapsed * 1000:.0f}ms, expanded {res.expanded}")

"""The landmark lower bound behind astar's and dyn_astar's h1.

``SearchIndex.landmark_rows`` picks the landmarks and times each node to and
from them exactly as the id-keyed reference does; the bound it gives is
admissible and consistent on every snapshot, congested and blocked edges
included; graphs that are not strongly connected give no NaN; and the table
is built by the first search that reads it, never by loading or
snapshotting, nor by a search on a graph below ``LANDMARK_MIN_NODES``. The
planner tests on small graphs lower that threshold to 0.
"""

import math
from operator import sub

import pytest
from hypothesis import given, settings

import reference_planners as ref
from conftest import build_graph, snap_of
from dynroute import (
    FOUND,
    UNREACHABLE,
    HeuristicField,
    HeuristicWeights,
    SearchParams,
    dijkstra_ucs,
    dyn_a_star,
    greedy_best_first,
    load_scenario,
    make_grid,
    rrt_plan,
    snapshot,
    static_a_star,
)
from dynroute import planners
from dynroute.graph import LANDMARKS
from dynroute.simulate import TruthTimeline
from test_search_index import topologies

WEIGHTED = SearchParams(HeuristicWeights(1.0, 1.0, 0.5, 0.5))


@pytest.fixture
def landmarks_everywhere(monkeypatch):
    """Let A* read the landmark bound on graphs of any size."""
    monkeypatch.setattr(planners, "LANDMARK_MIN_NODES", 0)


def bound(index, node: str, goal: str) -> float:
    """The landmark bound on the time from ``node`` to ``goal``, as the planner reads it."""
    rows = index.landmark_rows()
    return max(map(sub, rows[index.pos[node]], rows[index.pos[goal]]))


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to the rounding of the sums on either side."""
    return a <= b or math.isclose(a, b, rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_rows_match_the_reference_selection_and_times(graph):
    index = graph.index
    times = ref.landmark_times(ref.id_view(graph, HeuristicField()))
    rows = index.landmark_rows()
    assert len(times) == min(LANDMARKS, len(index.ids))
    k = len(times)
    assert all(len(row) == 1 + 2 * k and row[0] == 0.0 for row in rows)
    for j, (landmark, (to, frm)) in enumerate(times.items(), start=1):
        assert rows[index.pos[landmark]][j] == rows[index.pos[landmark]][k + j] == 0.0
        assert [row[j] for row in rows] == [to[nid] for nid in index.ids]
        assert [row[k + j] for row in rows] == [-frm[nid] for nid in index.ids]


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_bound_is_admissible_and_consistent_on_the_snapshot(graph):
    # topologies() congests edges by up to 2x and blocks some: the bound,
    # taken on free-flow base times with every edge, still holds.
    snap = snapshot(graph, HeuristicField())
    index = graph.index
    view = ref.id_view(graph, HeuristicField())
    times = ref.landmark_times(view)
    for goal in index.ids:
        assert bound(index, goal, goal) == 0.0
        for node in index.ids:
            b = bound(index, node, goal)
            assert b >= 0.0  # never NaN
            assert b == ref.landmark_bound(times, node, goal)
            assert at_most(b, dijkstra_ucs(snap, node, goal).f_cost_at_goal)
            for _eid, v, eff in snap.arcs[index.pos[node]]:
                assert at_most(b, eff + bound(index, index.ids[v], goal))


def chain(n: int):
    """A one-way chain c0 -> c1 -> ... of 10 s edges, 100 m apart."""
    return build_graph([(f"c{i}", 100.0 * i, 0.0) for i in range(n)],
                       [(f"e{i}", f"c{i}", f"c{i + 1}", 100.0, 10.0) for i in range(n - 1)])


def test_one_way_chain(landmarks_everywhere):
    graph = chain(10)
    index = graph.index
    # Only c0 reaches c0, so c1, then c2 and c3 are the nodes with no route
    # to the landmarks picked before them.
    inf = math.inf
    rows = index.landmark_rows()
    assert rows[index.pos["c5"]] == (0.0, inf, inf, inf, inf, -50.0, -40.0, -30.0, -20.0)
    assert rows[index.pos["c1"]] == (0.0, inf, 0.0, 10.0, 20.0, -10.0, -0.0, -inf, -inf)
    # Every time to a landmark is infinite from c9, so those terms are
    # skipped, and c0's time from c0 gives the bound exactly.
    assert bound(index, "c0", "c9") == 90.0
    assert bound(index, "c9", "c2") == inf  # c9 cannot reach c2, which reaches c3
    assert bound(index, "c0", "c2") == 20.0
    snap = snap_of(graph)
    for plan in (static_a_star(snap, "c0", "c9"), dyn_a_star(snap, "c0", "c9", WEIGHTED)):
        assert plan.path == tuple(f"c{i}" for i in range(10))
        assert plan.g_cost == 90.0
    for plan in (static_a_star(snap, "c9", "c0"), dyn_a_star(snap, "c9", "c0", WEIGHTED)):
        assert (plan.status, plan.expansion_order) == (UNREACHABLE, ("c9",))


def test_two_components(landmarks_everywhere):
    # a <-> b and c <-> d, with no edge between them.
    graph = build_graph([(n, 0.0, 0.0) for n in "abcd"],
                        [("e1", "a", "b", 1.0, 5.0), ("e2", "b", "a", 1.0, 7.0),
                         ("e3", "c", "d", 1.0, 3.0), ("e4", "d", "c", 1.0, 4.0)])
    index = graph.index
    # a, then c (no route to a), then b (7 s to a) and d (4 s to c).
    inf = math.inf
    assert index.landmark_rows() == ((0.0, 0.0, inf, 5.0, inf, -0.0, -inf, -7.0, -inf),
                                     (0.0, 7.0, inf, 0.0, inf, -5.0, -inf, -0.0, -inf),
                                     (0.0, inf, 0.0, inf, 3.0, -inf, -0.0, -inf, -4.0),
                                     (0.0, inf, 4.0, inf, 0.0, -inf, -3.0, -inf, -0.0))
    assert (bound(index, "a", "b"), bound(index, "b", "a")) == (5.0, 7.0)
    assert (bound(index, "c", "d"), bound(index, "d", "c")) == (3.0, 4.0)
    for node, goal in (("a", "c"), ("c", "b"), ("d", "a")):
        assert bound(index, node, goal) == math.inf
    snap = snap_of(graph)
    assert static_a_star(snap, "a", "b").path == ("a", "b")
    assert static_a_star(snap, "a", "c").status == UNREACHABLE


def test_single_node(landmarks_everywhere):
    graph = build_graph([("a", 0.0, 0.0)], [])
    assert graph.index.landmark_rows() == ((0.0, 0.0, -0.0),)
    plan = static_a_star(snap_of(graph), "a", "a")
    assert (plan.path, plan.g_cost, plan.expanded) == (("a",), 0.0, 1)


def test_fewer_nodes_than_landmarks_makes_every_node_one():
    graph = build_graph([(n, 0.0, 0.0) for n in "abc"],
                        [("e1", "a", "b", 1.0, 2.0), ("e2", "b", "c", 1.0, 3.0),
                         ("e3", "c", "a", 1.0, 4.0)])
    assert LANDMARKS > 3
    # a, then b (7 s to a), then c (4 s to a, 6 s to b).
    assert graph.index.landmark_rows() == ((0.0, 0.0, 2.0, 5.0, -0.0, -7.0, -4.0),
                                           (0.0, 7.0, 0.0, 3.0, -2.0, -0.0, -6.0),
                                           (0.0, 4.0, 6.0, 0.0, -5.0, -3.0, -0.0))
    assert bound(graph.index, "a", "c") == 5.0


def test_parallel_edges_count_the_cheaper(landmarks_everywhere):
    graph = build_graph([("a", 0.0, 0.0), ("b", 0.0, 0.0)],
                        [("e1", "a", "b", 1.0, 10.0), ("e2", "a", "b", 1.0, 4.0),
                         ("e3", "b", "a", 1.0, 7.0), ("e4", "b", "a", 1.0, 9.0)])
    assert graph.index.landmark_rows() == ((0.0, 0.0, 4.0, -0.0, -7.0),
                                           (0.0, 7.0, 0.0, -4.0, -0.0))
    assert (bound(graph.index, "a", "b"), bound(graph.index, "b", "a")) == (4.0, 7.0)
    # Blocking the cheaper edge keeps the bound a bound.
    graph.blocked.add("e2")
    assert static_a_star(snap_of(graph), "a", "b").g_cost == 10.0


def test_bound_is_exact_on_a_free_flow_grid():
    # Three of the landmarks are corners, each read both ways, so on a
    # uniform grid the bound is the free-flow time itself and A* expands
    # only the route it returns.
    graph = make_grid(23, 23, 100.0, 10.0)
    assert len(graph.index.ids) >= planners.LANDMARK_MIN_NODES
    snap = snap_of(graph)
    for start, goal in (("n00_00", "n22_22"), ("n03_19", "n20_02"), ("n22_00", "n05_05")):
        plan = static_a_star(snap, start, goal)
        assert plan.expanded == len(plan.path)
        assert plan.g_cost == dijkstra_ucs(snap, start, goal).g_cost


def test_table_is_built_by_the_first_search_that_reads_it(scenario_dir, monkeypatch):
    scn = load_scenario((scenario_dir / "grid10_congestion.scn").read_text())
    index = scn.graph.index
    snap = snapshot(scn.graph, scn.initial_field)
    truth = TruthTimeline(scn, 30.0)
    start, goal = index.ids[0], index.ids[-1]
    assert len(index.ids) < planners.LANDMARK_MIN_NODES
    static_a_star(snap, start, goal)
    dyn_a_star(snap, start, goal, WEIGHTED)
    monkeypatch.setattr(planners, "LANDMARK_MIN_NODES", len(index.ids))
    dijkstra_ucs(snap, start, goal)
    dyn_a_star(snap, start, goal, SearchParams(HeuristicWeights(1.0, 0.0, 1.0, 1.0)))
    greedy_best_first(snap, start, goal)
    rrt_plan(snap, start, goal, SearchParams())
    assert index._landmark_rows is None
    assert static_a_star(snap, start, goal).status == FOUND
    rows = index._landmark_rows  # built by that search
    assert rows is not None and index.landmark_rows() is rows
    assert scn.graph.copy().index.landmark_rows() is rows
    assert all(truth.at_epoch(k).index.landmark_rows() is rows for k in truth._starts)

"""The landmark lower bound behind astar's and dyn_astar's h1.

``SearchIndex.landmark_columns`` picks the landmarks and times each node to
and from them exactly as the id-keyed reference does; the bound it gives is
admissible and consistent on every snapshot, congested and blocked edges
included; graphs that are not strongly connected give no NaN; a search reads
the two terms the reference's ``active_terms`` picks for its start and goal,
which can bound a node less than the full table does; and the table is built
by the first search that reads it, never by loading or snapshotting, nor by
a search or an oracle query on a graph below ``LANDMARK_MIN_NODES``, and once
per graph across every algorithm of an evaluation and its oracle. The
planner tests on small graphs lower that threshold to 0; on congested grids
between the threshold and 500 nodes, both planners match the reference at
the default threshold.
"""

import math
import random

import pytest
from hypothesis import given, settings

import reference_planners as ref
from conftest import build_graph, snap_of
from dynroute import (
    ALGORITHMS,
    FOUND,
    UNREACHABLE,
    HeuristicField,
    HeuristicWeights,
    Query,
    RoadGraph,
    Scenario,
    SearchParams,
    dijkstra_ucs,
    dyn_a_star,
    greedy_best_first,
    load_scenario,
    make_grid,
    offline_optimal,
    rrt_plan,
    snapshot,
    static_a_star,
)
from dynroute import planners
from dynroute.evaluate import evaluate_scenario
from dynroute.graph import LANDMARKS, _landmark_columns
from dynroute.simulate import TruthTimeline
from perfbench import gen
from test_search_index import topologies

WEIGHTED = SearchParams(HeuristicWeights(1.0, 1.0, 0.5, 0.5))


@pytest.fixture
def landmarks_everywhere(monkeypatch):
    """Let A* read the landmark bound on graphs of any size."""
    monkeypatch.setattr(planners, "LANDMARK_MIN_NODES", 0)


def bound(index, node: str, goal: str, columns=None) -> float:
    """The landmark bound on the time from ``node`` to ``goal`` over
    ``columns`` (by default the whole table): the largest of 0.0 and their
    terms, a NaN term skipped, as the planner skips one."""
    v, t = index.pos[node], index.pos[goal]
    terms = [c[v] - c[t] for c in columns or index.landmark_columns()]
    return max([0.0] + [x for x in terms if x == x])


def active_bound(index, node: str, start: str, goal: str) -> float:
    """The bound a search from ``start`` to ``goal`` reads at ``node``."""
    columns = planners._active_columns(index.landmark_columns(), index.pos[start],
                                       index.pos[goal])
    return bound(index, node, goal, columns)


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to the rounding of the sums on either side."""
    return a <= b or math.isclose(a, b, rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_columns_match_the_reference_selection_and_times(graph):
    index = graph.index
    times = ref.landmark_times(ref.id_view(graph, HeuristicField()))
    columns = index.landmark_columns()
    assert len(times) == min(LANDMARKS, len(index.ids))
    k = len(times)
    assert len(columns) == 2 * k
    assert all(len(column) == len(index.ids) for column in columns)
    for j, (landmark, (to, frm)) in enumerate(times.items()):
        assert columns[j][index.pos[landmark]] == columns[k + j][index.pos[landmark]] == 0.0
        assert list(columns[j]) == [to[nid] for nid in index.ids]
        assert list(columns[k + j]) == [-frm[nid] for nid in index.ids]


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


@settings(max_examples=200, deadline=None)
@given(topologies())
def test_a_search_reads_the_reference_active_terms(graph):
    index = graph.index
    times = ref.landmark_times(ref.id_view(graph, HeuristicField()))
    columns = index.landmark_columns()
    column_of = {term: j for j, term in enumerate(ref.landmark_terms(times))}
    for start in index.ids:
        for goal in index.ids:
            chosen = planners._active_columns(columns, index.pos[start], index.pos[goal])
            terms = ref.active_terms(times, start, goal)
            assert len(chosen) == len(terms) == 2
            assert all(column is columns[column_of[term]]
                       for column, term in zip(chosen, terms))
            for node in index.ids:
                # A subset of the terms: a bound, and no more than the full one.
                b = active_bound(index, node, start, goal)
                assert b == ref.landmark_bound(times, node, goal, terms)
                assert b <= bound(index, node, goal)


def chain(n: int):
    """A one-way chain c0 -> c1 -> ... of 10 s edges, 100 m apart."""
    return build_graph([(f"c{i}", 100.0 * i, 0.0) for i in range(n)],
                       [(f"e{i}", f"c{i}", f"c{i + 1}", 100.0, 10.0) for i in range(n - 1)])


def test_one_way_chain(landmarks_everywhere):
    graph = chain(10)
    index = graph.index
    # Only c0 reaches c0, so c1, then c2 and c3 are the nodes with no route
    # to the landmarks picked before them: landmark j is cj, each reached
    # from the nodes before it and reaching the nodes after it.
    inf = math.inf
    columns = index.landmark_columns()
    assert len(columns) == 8
    for j in range(4):
        assert columns[j] == tuple(10.0 * (j - i) if i <= j else inf for i in range(10))
        assert columns[4 + j] == tuple(-10.0 * (i - j) if i >= j else -inf for i in range(10))
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
    # a, then c (no route to a), then b (7 s to a) and d (4 s to c). Each
    # column lists nodes a, b, c, d.
    inf = math.inf
    assert index.landmark_columns() == ((0.0, 7.0, inf, inf),  # to a
                                        (inf, inf, 0.0, 4.0),  # to c
                                        (5.0, 0.0, inf, inf),  # to b
                                        (inf, inf, 3.0, 0.0),  # to d
                                        (-0.0, -5.0, -inf, -inf),  # from a
                                        (-inf, -inf, -0.0, -3.0),  # from c
                                        (-7.0, -0.0, -inf, -inf),  # from b
                                        (-inf, -inf, -4.0, -0.0))  # from d
    assert (bound(index, "a", "b"), bound(index, "b", "a")) == (5.0, 7.0)
    assert (bound(index, "c", "d"), bound(index, "d", "c")) == (3.0, 4.0)
    for node, goal in (("a", "c"), ("c", "b"), ("d", "a")):
        assert bound(index, node, goal) == math.inf
    snap = snap_of(graph)
    assert static_a_star(snap, "a", "b").path == ("a", "b")
    assert static_a_star(snap, "a", "c").status == UNREACHABLE


def test_single_node(landmarks_everywhere):
    graph = build_graph([("a", 0.0, 0.0)], [])
    assert graph.index.landmark_columns() == ((0.0,), (-0.0,))
    plan = static_a_star(snap_of(graph), "a", "a")
    assert (plan.path, plan.g_cost, plan.expanded) == (("a",), 0.0, 1)


def test_fewer_nodes_than_landmarks_makes_every_node_one():
    graph = build_graph([(n, 0.0, 0.0) for n in "abc"],
                        [("e1", "a", "b", 1.0, 2.0), ("e2", "b", "c", 1.0, 3.0),
                         ("e3", "c", "a", 1.0, 4.0)])
    assert LANDMARKS > 3
    # a, then b (7 s to a), then c (4 s to a, 6 s to b). Each column lists
    # nodes a, b, c.
    assert graph.index.landmark_columns() == ((0.0, 7.0, 4.0), (2.0, 0.0, 6.0),
                                              (5.0, 3.0, 0.0), (-0.0, -2.0, -5.0),
                                              (-7.0, -0.0, -3.0), (-4.0, -6.0, -0.0))
    assert bound(graph.index, "a", "c") == 5.0


def test_parallel_edges_count_the_cheaper(landmarks_everywhere):
    graph = build_graph([("a", 0.0, 0.0), ("b", 0.0, 0.0)],
                        [("e1", "a", "b", 1.0, 10.0), ("e2", "a", "b", 1.0, 4.0),
                         ("e3", "b", "a", 1.0, 7.0), ("e4", "b", "a", 1.0, 9.0)])
    assert graph.index.landmark_columns() == ((0.0, 7.0), (4.0, 0.0),
                                              (-0.0, -4.0), (-7.0, -0.0))
    assert (bound(graph.index, "a", "b"), bound(graph.index, "b", "a")) == (4.0, 7.0)
    # Blocking the cheaper edge keeps the bound a bound.
    graph.blocked.add("e2")
    assert static_a_star(snap_of(graph), "a", "b").g_cost == 10.0


def test_bound_is_exact_on_a_free_flow_grid():
    # Three of the landmarks are corners. For a start and goal on a uniform
    # grid, the corner beyond the goal, read from the start (d(s, L) - d(t,
    # L)) or the one behind the start, read to the goal (d(L, t) - d(L, s)),
    # gives the free-flow time exactly, so it is among the two terms the
    # search reads; and it stays exact at every node of a monotone route, so
    # A* expands only the route it returns.
    graph = make_grid(23, 23, 100.0, 10.0)
    ids = graph.index.ids
    assert len(ids) >= planners.LANDMARK_MIN_NODES
    snap = snap_of(graph)
    rng = random.Random(23)
    pairs = [("n00_00", "n22_22"), ("n03_19", "n20_02"), ("n22_00", "n05_05")]
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(200)]
    for start, goal in pairs:
        plan = static_a_star(snap, start, goal)
        assert plan.expanded == len(plan.path)
        assert plan.g_cost == dijkstra_ucs(snap, start, goal).g_cost


def two_term_graph():
    """Five nodes at one point, so the straight-line time is 0 and h1 is the
    landmark bound alone: a -> b (5 s), b -> c (1 s), b -> e (1 s), e -> b
    (3 s), and d on no road. The landmarks are a, b, c and d: a first (node
    0), then b, c and d, each the lowest-id node with no route to those
    before it. Between nodes other than d, both of d's terms read inf - inf,
    and so does a's "to" term between nodes other than a."""
    return build_graph([(n, 0.0, 0.0) for n in "abcde"],
                       [("e1", "a", "b", 1.0, 5.0), ("e2", "b", "c", 1.0, 1.0),
                        ("e3", "b", "e", 1.0, 1.0), ("e4", "e", "b", 1.0, 3.0)])


def test_two_terms_can_bound_an_expanded_node_below_the_full_table(landmarks_everywhere):
    graph = two_term_graph()
    index, snap = graph.index, snap_of(graph)
    # From b to e, a's and b's "from" terms read 1, the best, and are the two
    # a search reads. At c, a dead end, both read 0, while c's own "from"
    # term, d(c, e) - d(c, c) = inf, proves c cannot reach e: read at c, the
    # full table would give inf, and A* would never expand c.
    assert (active_bound(index, "b", "b", "e"), bound(index, "b", "e")) == (1.0, 1.0)
    assert (active_bound(index, "c", "b", "e"), bound(index, "c", "e")) == (0.0, math.inf)
    plan = static_a_star(snap, "b", "e")
    assert (plan.path, plan.expansion_order) == (("b", "e"), ("b", "c", "e"))
    # Read at the goal, every term is 0 or NaN, and the first two columns
    # that are not NaN, the "to" terms of b and c, would be picked: b's
    # reads inf at c.
    assert active_bound(index, "c", "e", "e") == math.inf
    # From a to e, a's "from" term reads 6, then b's and c's "to" terms tie
    # at 2: the tie goes to b's, the lower column, which reads inf at c (c
    # cannot reach b). Had it gone to c's, which reads -4 at c, c's bound
    # would be a's 0 and A* would expand c before e.
    assert active_bound(index, "c", "a", "e") == math.inf
    plan = static_a_star(snap, "a", "e")
    assert (plan.path, plan.expansion_order) == (("a", "b", "e"), ("a", "b", "e"))
    # From b to a, a's "to" and b's "from" terms both prove b cannot reach a,
    # and they prove it at c and e too. The terms that read NaN from b, d's
    # and c's "from" term, rank below them: picked, they would prove it at c
    # alone, and A* would expand e before c.
    plan = static_a_star(snap, "b", "a")
    assert (plan.status, plan.expansion_order) == (UNREACHABLE, ("b", "c", "e"))
    view = ref.id_view(graph, HeuristicField())
    for start, goal in ("be", "ae", "ba"):
        assert static_a_star(snap, start, goal) == ref.dyn_a_star(
            view, start, goal, SearchParams(HeuristicWeights(1.0, 1.0, 0.0, 0.0)))


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
    assert index._landmark_columns is None
    assert static_a_star(snap, start, goal).status == FOUND
    columns = index._landmark_columns  # built by that search
    assert columns is not None and index.landmark_columns() is columns
    assert scn.graph.copy().index.landmark_columns() is columns
    assert all(truth.at_epoch(k).index.landmark_columns() is columns for k in truth._starts)


@pytest.mark.parametrize("cols", [planners.LANDMARK_MIN_NODES - 1, planners.LANDMARK_MIN_NODES])
def test_the_oracle_reads_the_table_from_the_planners_threshold_on(cols):
    # One row of nodes, just below and at the threshold. Below it the oracle
    # orders labels by cost alone and builds no table, so scoring the
    # committed suites, whose graphs are far smaller, builds none either.
    grid = make_grid(1, cols, 100.0, 10.0)
    ids = grid.index.ids
    query = Query("v1", ids[0], ids[-1], 0.0, HeuristicWeights())
    scn = Scenario(grid, HeuristicField(), (), (query,), "row", 0)
    assert offline_optimal(scn, query).optimal_path == ids
    assert (grid.index._landmark_columns is not None) == (cols >= planners.LANDMARK_MIN_NODES)


def congested_grid(rows: int, cols: int, seed: int, dead_end: bool):
    """A rows x cols grid of 50 s edges with a fifth of them congested 1.5-6x,
    five blocked, and h2 and h3 on 5% of the nodes each, up to 60 s. With
    ``dead_end``, no edge leaves the middle node: the landmarks include it,
    and its "from" terms read NaN between any two other nodes."""
    rng = random.Random(seed)
    grid = make_grid(rows, cols, 500.0, 10.0)
    ids = grid.index.ids
    sink = ids[len(ids) // 2] if dead_end else None
    graph = RoadGraph(grid.nodes.values(),
                      [e for e in grid.edges.values() if e.from_node != sink])
    edge_ids = sorted(graph.edges)
    for eid in rng.sample(edge_ids, len(edge_ids) // 5):
        graph.congestion[eid] = round(rng.uniform(1.5, 6.0), 2)
    graph.blocked.update(rng.sample(edge_ids, 5))
    field = HeuristicField(
        h2_by_node={n: round(rng.uniform(0.0, 60.0), 3) for n in rng.sample(ids, len(ids) // 20)},
        h3_by_node={n: round(rng.uniform(0.0, 60.0), 3) for n in rng.sample(ids, len(ids) // 20)})
    return graph, field


@pytest.mark.parametrize("rows, cols, seed, dead_end",
                         [(13, 12, 1, False), (15, 15, 2, True), (18, 21, 3, False),
                          (20, 20, 4, True)])
def test_mid_size_congested_grids_match_the_reference(rows, cols, seed, dead_end):
    # No threshold patched: graphs of these sizes read the landmark bound, and
    # a search's term choice decides which nodes it expands.
    graph, field = congested_grid(rows, cols, seed, dead_end)
    ids = graph.index.ids
    assert planners.LANDMARK_MIN_NODES <= len(ids) < 500
    snap, view = snapshot(graph, field), ref.id_view(graph, field)
    full = SearchParams(HeuristicWeights(1.0, 1.0, 1.0, 1.0))
    rng = random.Random(seed)
    for _ in range(20):
        start, goal = rng.sample(ids, 2)
        assert static_a_star(snap, start, goal) == ref.dyn_a_star(view, start, goal,
                                                                  planners.ASTAR_PARAMS)
        for params in (full, WEIGHTED):
            assert dyn_a_star(snap, start, goal, params) == ref.dyn_a_star(view, start, goal,
                                                                           params)


def test_an_evaluation_builds_one_table(monkeypatch):
    # The oracle's first query builds the table; every algorithm's
    # simulation, its belief copies and truth states share the scenario's
    # index and reuse it.
    builds = []

    def counted(index):
        builds.append(index is scn.graph.index)
        return _landmark_columns(index)

    monkeypatch.setattr("dynroute.graph._landmark_columns", counted)
    scn = load_scenario(gen.eval_grid20_docs(1)[0])
    assert len(scn.graph.index.ids) >= planners.LANDMARK_MIN_NODES
    cells = evaluate_scenario(scn)
    assert list(cells) == list(ALGORITHMS)
    assert not any(cell["error"] for cell in cells.values())
    assert builds == [True]

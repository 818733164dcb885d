"""The integer search index and the snapshot's planning view: the index is
built exactly from the graph's edge records, planners and the offline oracle
on fresh and patched snapshots match the string-keyed reference exactly, node
indices follow id order, and one index is shared by every copy, snapshot and
ground-truth state of a scenario's graph. The oracle's goal-directed order
pops fewer labels than plain cost order and finds the same costs, and labels
a landmark term proves cannot reach the goal are never popped before it. The
search state an index keeps for reuse carries nothing from one search to the
next, in sequence or from two threads, and a short search on a large graph
allocates nothing that grows with it."""

import heapq
import math
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_planners as ref
from dynroute import (
    EdgeRecord,
    Event,
    HeuristicField,
    HeuristicWeights,
    NodeRecord,
    Query,
    RoadGraph,
    SearchParams,
    Scenario,
    SimConfig,
    Simulation,
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
from dynroute.planners import ASTAR_PARAMS, UCS_PARAMS, cheapest_edge, validate_path
from dynroute.simulate import TruthTimeline
from perfbench import gen

UNIT = HeuristicWeights(1.0, 1.0, 0.0, 0.0)

# Few distinct positions, lengths and times, so h1 ties and f ties are common.
POINTS = [(0.0, 0.0), (0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]


@st.composite
def topologies(draw):
    """Unsorted node and edge ids, parallel edges, self-loops, isolated nodes,
    and a congestion factor and blocked flag per edge."""
    ids = draw(st.lists(st.text("abcnxz", min_size=1, max_size=3),
                        min_size=1, max_size=8, unique=True))
    nodes = [NodeRecord(nid, draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
             for nid in ids]
    edge_ids = draw(st.lists(st.text("ef0123", min_size=1, max_size=3),
                             max_size=20, unique=True))
    edges = [
        EdgeRecord(eid, draw(st.sampled_from(ids)), draw(st.sampled_from(ids)),
                   draw(st.floats(0.5, 1e3)), draw(st.sampled_from([10.0, 20.0, 0.3])))
        for eid in edge_ids
    ]
    graph = RoadGraph(nodes, edges)
    for eid in edge_ids:
        graph.congestion[eid] = draw(st.sampled_from([1.0, 1.0, 1.5, 2.0]))
        if draw(st.integers(0, 4)) == 0:
            graph.blocked.add(eid)
    return graph


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_index_is_built_from_the_edge_records(graph):
    index = graph.index
    assert index.ids == tuple(sorted(graph.nodes))
    assert all(index.pos[nid] == i for i, nid in enumerate(index.ids))
    assert [(x, y) for x, y in zip(index.xs, index.ys)] == [
        (graph.nodes[nid].x, graph.nodes[nid].y) for nid in index.ids]
    for u in graph.nodes:
        expected = [(e.id, index.pos[e.to_node], e.base_time_s)
                    for e in sorted(graph.edges.values(), key=lambda e: e.id)
                    if e.from_node == u]
        assert list(index.out[index.pos[u]]) == expected
    speeds = [e.length_m / e.base_time_s for e in graph.edges.values()]
    assert index.v_max == (max(speeds) if speeds else 1.0)

    # The cheapest unblocked u->v edge: least effective time, then least id.
    snap = snapshot(graph, HeuristicField())
    for u in graph.nodes:
        for v in graph.nodes:
            times = sorted((e.base_time_s * graph.congestion[e.id], e.id)
                           for e in graph.edges.values()
                           if (e.from_node, e.to_node) == (u, v) and e.id not in graph.blocked)
            assert cheapest_edge(snap, u, v) == ((times[0][1], times[0][0]) if times else None)
            assert validate_path(snap, (u, v)) == bool(times)
    assert cheapest_edge(snap, "unknown", index.ids[0]) is None
    assert cheapest_edge(snap, index.ids[0], "unknown") is None
    assert not validate_path(snap, ("unknown",))


@st.composite
def planning_cases(draw):
    """A snapshot patched after random changes, the id-keyed view of the state
    it was taken from, its start and goal, search parameters, and values for
    the RRT and landmark constants in ``planners``. Every graph has two parallel edges of
    equal cost, one of them blocked; the changes set congestion factors, block
    and unblock edges and set h2 values, and the snapshot is patched from one
    taken before them."""
    ids = draw(st.lists(st.text("abcnxz", min_size=1, max_size=3),
                        min_size=1, max_size=9, unique=True))
    # Insertion order is the drawn order, generally not sorted.
    nodes = [NodeRecord(nid, *draw(st.sampled_from(POINTS))) for nid in ids]
    edge_ids = draw(st.lists(st.text("ef0123", min_size=1, max_size=3),
                             max_size=24, unique=True))
    edges = [
        EdgeRecord(eid, draw(st.sampled_from(ids)), draw(st.sampled_from(ids)),
                   draw(st.sampled_from([100.0, 200.0])),
                   draw(st.sampled_from([10.0, 20.0])))
        for eid in edge_ids
    ]
    u, v = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    edges += [EdgeRecord(eid, u, v, 100.0, 10.0) for eid in ("p0", "p1")]
    edge_ids += ["p0", "p1"]
    graph = RoadGraph(nodes, edges)
    for eid in edge_ids:
        graph.congestion[eid] = draw(st.sampled_from([1.0, 1.0, 2.0, 2.5]))
    graph.congestion["p0"] = graph.congestion["p1"] = 1.0
    graph.blocked.add(draw(st.sampled_from(["p0", "p1"])))
    graph.blocked.update(draw(st.lists(st.sampled_from(edge_ids), max_size=4)))
    penalty = st.dictionaries(st.sampled_from(ids), st.sampled_from([0.0, 5.0, 12.5]),
                              max_size=3)
    field = HeuristicField(h2_by_node=draw(penalty), h3_by_node=draw(penalty))
    snap = snapshot(graph, field)
    changed_edges, changed_nodes = set(), set()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["congestion", "block", "unblock", "h2"]))
        if kind == "h2":
            nid = draw(st.sampled_from(ids))
            field.h2_by_node[nid] = draw(st.sampled_from([0.0, 5.0, 12.5]))
            changed_nodes.add(nid)
            continue
        eid = draw(st.sampled_from(edge_ids))
        if kind == "congestion":
            graph.congestion[eid] = draw(st.sampled_from([1.0, 2.0, 2.5]))
        elif kind == "block":
            graph.blocked.add(eid)
        else:
            graph.blocked.discard(eid)
        changed_edges.add(eid)
    patched = snapshot(graph, field, base=snap, edges=changed_edges, nodes=changed_nodes)
    assert patched == snapshot(graph, field)
    view = ref.id_view(graph, field)
    ref.assert_snapshot_of(patched, view)
    weight = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
    params = SearchParams(
        weights=HeuristicWeights(draw(st.sampled_from([0.5, 1.0, 2.0])),
                                 draw(weight), draw(weight), draw(weight)),
        rng_seed=draw(st.integers(0, 50)),
    )
    constants = {"RRT_MAX_ITERATIONS": draw(st.integers(1, 40)),
                 "RRT_STEP_EDGES": draw(st.integers(1, 3)),
                 "RRT_GOAL_BIAS": draw(st.sampled_from([0.0, 0.1, 0.5])),
                 # Mostly 0, so these small graphs read the landmark bound.
                 "LANDMARK_MIN_NODES": draw(st.sampled_from([0, 0, planners.LANDMARK_MIN_NODES]))}
    return patched, view, draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), params, constants


@settings(max_examples=400, deadline=None)
@given(planning_cases())
def test_planners_match_string_keyed_reference(case):
    snap, view, start, goal, params, constants = case
    with mock.patch.multiple(planners, **constants):  # the reference reads the same constants
        assert dyn_a_star(snap, start, goal, params) == ref.dyn_a_star(view, start, goal, params)
        assert static_a_star(snap, start, goal) == ref.dyn_a_star(
            view, start, goal, SearchParams(weights=UNIT))
        assert dijkstra_ucs(snap, start, goal) == ref.dijkstra_ucs(view, start, goal)
        assert greedy_best_first(snap, start, goal) == ref.greedy_best_first(view, start, goal)
        assert rrt_plan(snap, start, goal, params) == ref.rrt_plan(view, start, goal, params)
    for u in snap.index.ids:
        for v in snap.index.ids:
            assert cheapest_edge(snap, u, v) == ref.cheapest_edge(view, u, v)


@settings(max_examples=300, deadline=None)
@given(planning_cases())
def test_every_found_path_lies_in_its_expansion_order(case):
    # A path's nodes are each popped before the goal is, so a dyn_astar
    # vehicle's read set, its search's expansion order, holds its route.
    snap, _view, start, goal, params, constants = case
    with mock.patch.multiple(planners, **constants):
        for weights in (params.weights, UNIT, HeuristicWeights(1.0, 0.0, 0.0, 0.0)):
            result = dyn_a_star(snap, start, goal, SearchParams(weights=weights))
            assert set(result.path) <= set(result.expansion_order)


EVENT_KINDS = ("set_congestion", "set_comfort", "set_node_comfort_h",
               "block_edge", "unblock_edge")


@st.composite
def oracle_cases(draw):
    """A small scenario, one query and an epoch length. Node ids are drawn in
    unsorted order and chained in that order, so most queries have a route;
    extra edges add detours, parallel edges and self-loops. Edge times, event
    times and departures are multiples of 15 s, so arrivals and events often
    fall on epoch boundaries, where node penalties change."""
    ids = draw(st.lists(st.text("abcnxz", min_size=1, max_size=3),
                        min_size=2, max_size=7, unique=True))
    n = len(ids)
    node = st.integers(0, n - 1)
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += draw(st.lists(st.sampled_from(pairs) | st.tuples(node, node), max_size=12))
    edge_ids = draw(st.lists(st.text("ef0123", min_size=1, max_size=3),
                             min_size=len(pairs), max_size=len(pairs), unique=True))
    edges = [
        EdgeRecord(eid, ids[i], ids[j], 100.0,
                   draw(st.sampled_from([15.0, 15.0, 30.0, 60.0])))
        for eid, (i, j) in zip(edge_ids, pairs)
    ]
    events = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(EVENT_KINDS))
        target = draw(st.sampled_from(ids if kind == "set_node_comfort_h" else edge_ids))
        value = {"set_congestion": st.sampled_from([1.0, 1.5, 2.0, 4.0]),
                 "set_comfort": st.sampled_from([0.0, 25.0]),
                 "set_node_comfort_h": st.sampled_from([0.0, 10.0, 40.0])}.get(kind)
        events.append(Event(15.0 * draw(st.integers(0, 8)), kind, target,
                            None if value is None else draw(value), draw(st.booleans())))
    events.sort(key=lambda ev: ev.at_time)
    penalty = st.dictionaries(st.sampled_from(ids), st.sampled_from([0.0, 5.0, 12.5]),
                              max_size=3)
    start = draw(st.integers(0, n - 2))
    goal = draw(st.integers(start + 1, n - 1) | node)
    query = Query("v1", ids[start], ids[goal], 15.0 * draw(st.integers(0, 4)),
                  HeuristicWeights())
    scn = Scenario(RoadGraph([NodeRecord(nid, 0.0, 0.0) for nid in ids], edges),
                   HeuristicField(h2_by_node=draw(penalty), h3_by_node=draw(penalty)),
                   tuple(events), (query,), "oracle", 0)
    # Mostly 0, so these small graphs order labels by the landmark bound.
    min_nodes = draw(st.sampled_from([0, 0, planners.LANDMARK_MIN_NODES]))
    return scn, query, draw(st.sampled_from([15.0, 30.0, 45.0])), min_nodes


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_oracle_matches_string_keyed_reference(case):
    scn, query, epoch_s, min_nodes = case
    with mock.patch.object(planners, "LANDMARK_MIN_NODES", min_nodes):
        expected = ref.offline_optimal(scn, query, epoch_s)
        got = offline_optimal(scn, query, TruthTimeline(scn, epoch_s))
        assert got.optimal_realized_cost.hex() == expected.optimal_realized_cost.hex()
        assert got.optimal_path == expected.optimal_path
        assert got.vehicle == expected.vehicle
        if epoch_s == 30.0:
            assert offline_optimal(scn, query) == got


def _diamond_scenario(edges, events=(), h2=None):
    nodes = [NodeRecord(nid, 0.0, 0.0) for nid in ("z", "b", "s", "a", "m", "p", "q")]
    query = Query("v1", "s", "z", 0.0, HeuristicWeights())
    return Scenario(RoadGraph(nodes, [EdgeRecord(*e) for e in edges]),
                    HeuristicField(h2_by_node=h2 or {}), tuple(events), (query,), "d", 0)


def test_oracle_tie_break_follows_edge_id_order():
    # s reaches z through b or a at equal cost and time. The edge to b has
    # the lower edge id, so its label is made first and wins the tie.
    scn = _diamond_scenario([("e1", "s", "b", 100.0, 15.0), ("e2", "s", "a", 100.0, 15.0),
                             ("e3", "b", "z", 100.0, 15.0), ("e4", "a", "z", 100.0, 15.0)])
    (query,) = scn.queries
    result = offline_optimal(scn, query)
    assert result == ref.offline_optimal(scn, query)
    assert result.optimal_path == ("s", "b", "z")


def test_oracle_keeps_an_earlier_costlier_label():
    # Via q the vehicle reaches m at t=30 having paid q's 100 s penalty; via
    # p it reaches m at t=60 at cost 60, after m->z is congested tenfold.
    # Only the earlier, costlier label leads to the optimum.
    scn = _diamond_scenario(
        [("e1", "s", "p", 100.0, 30.0), ("e2", "p", "m", 100.0, 30.0),
         ("e3", "s", "q", 100.0, 15.0), ("e4", "q", "m", 100.0, 15.0),
         ("e5", "m", "z", 100.0, 30.0)],
        events=[Event(60.0, "set_congestion", "e5", 10.0)], h2={"q": 100.0},
    )
    (query,) = scn.queries
    result = offline_optimal(scn, query)
    assert result == ref.offline_optimal(scn, query)
    assert result.optimal_path == ("s", "q", "m", "z")
    assert result.optimal_realized_cost == 160.0


def _oracle_heap(oracle, scn, query):
    """``oracle``'s answer, every (key, cost, time, label index) entry it
    pushed and every one it popped; below ``LANDMARK_MIN_NODES`` nodes a key
    is the cost. A landmark table's build uses a heap too, so a caller that
    counts on a larger graph builds the table first."""
    pushed, popped = [], []
    push, pop = heapq.heappush, heapq.heappop

    def record_push(heap, entry):
        pushed.append(entry)
        push(heap, entry)

    def record_pop(heap):
        popped.append(pop(heap))
        return popped[-1]

    with mock.patch("heapq.heappush", record_push), mock.patch("heapq.heappop", record_pop):
        result = oracle(scn, query)
    return result, pushed, popped


def _assert_oracle_pushes(scn, expected):
    """The oracle answers, pushes and pops exactly as the reference does, and
    its pushes are ``expected``."""
    (query,) = scn.queries
    got = _oracle_heap(offline_optimal, scn, query)
    assert got == _oracle_heap(ref.offline_optimal, scn, query)
    assert got[1] == expected
    return got[0]


def test_oracle_drops_a_label_that_an_existing_one_dominates():
    # Three s->m edges: the first label at m, (15 s, 15), dominates the equal
    # one over e2 and the later, dearer one over e3; neither is pushed.
    scn = _diamond_scenario([("e1", "s", "m", 100.0, 15.0), ("e2", "s", "m", 100.0, 15.0),
                             ("e3", "s", "m", 100.0, 30.0), ("e4", "m", "z", 100.0, 15.0)])
    result = _assert_oracle_pushes(scn, [(15.0, 15.0, 15.0, 1), (30.0, 30.0, 30.0, 2)])
    assert result.optimal_path == ("s", "m", "z")


def test_oracle_keeps_labels_that_do_not_dominate_each_other_in_order():
    # m is reached at (30 s, 30) over e1, then at (6 s, 56) through p, whose
    # penalty is 50: earlier but dearer, so both are kept, and so are the two
    # labels at z they lead to.
    scn = _diamond_scenario([("e1", "s", "m", 100.0, 30.0), ("e2", "s", "p", 100.0, 1.0),
                             ("e3", "p", "m", 100.0, 5.0), ("e4", "m", "z", 100.0, 100.0)],
                            h2={"p": 50.0})
    result = _assert_oracle_pushes(scn, [(30.0, 30.0, 30.0, 1), (51.0, 51.0, 1.0, 2),
                                         (130.0, 130.0, 130.0, 3), (56.0, 56.0, 6.0, 4),
                                         (156.0, 156.0, 106.0, 5)])
    assert result.optimal_path == ("s", "m", "z")


def test_oracle_label_evicts_only_the_labels_it_dominates():
    # m's bucket holds (70 s, 70) over e2 and (46 s, 96) through p when
    # (60 s, 60) arrives through a. It evicts the first, keeps the second,
    # and that one still drops (50 s, 97), which arrives through q later.
    scn = _diamond_scenario([("e1", "s", "p", 100.0, 1.0), ("e2", "s", "m", 100.0, 70.0),
                             ("e3", "s", "a", 100.0, 55.0), ("e4", "s", "q", 100.0, 40.0),
                             ("e5", "p", "m", 100.0, 45.0), ("e6", "a", "m", 100.0, 5.0),
                             ("e7", "q", "m", 100.0, 10.0), ("e8", "m", "z", 100.0, 100.0)],
                            h2={"p": 50.0, "q": 47.0})
    result = _assert_oracle_pushes(scn, [(51.0, 51.0, 1.0, 1), (70.0, 70.0, 70.0, 2),
                                         (55.0, 55.0, 55.0, 3), (87.0, 87.0, 40.0, 4),
                                         (96.0, 96.0, 46.0, 5), (60.0, 60.0, 60.0, 6),
                                         (160.0, 160.0, 160.0, 7), (196.0, 196.0, 146.0, 8)])
    assert result.optimal_path == ("s", "a", "m", "z")


def test_oracle_matches_reference_on_eval_grid20():
    # 160 queries on 400-node grids with 64 events each, where frontier
    # buckets hold several labels: the evict branch runs 247 times. Both
    # order labels by the landmark bound, and the reference in plain cost
    # order finds the same costs, though not always the same tied path.
    for doc in gen.eval_grid20_docs(1):
        scn = load_scenario(doc)
        truth = TruthTimeline(scn, 30.0)
        for query in scn.queries:
            got = offline_optimal(scn, query, truth)
            expected = ref.offline_optimal(scn, query, 30.0)
            assert got.optimal_realized_cost.hex() == expected.optimal_realized_cost.hex()
            assert got.optimal_path == expected.optimal_path
            plain = ref.offline_optimal(scn, query, 30.0, goal_directed=False)
            assert got.optimal_realized_cost.hex() == plain.optimal_realized_cost.hex()


def test_goal_directed_oracle_pops_fewer_labels_than_plain_order():
    scn = load_scenario(gen.eval_grid20_docs(1)[0])
    assert len(scn.graph.index.ids) >= planners.LANDMARK_MIN_NODES
    scn.graph.index.landmark_columns()
    truth = TruthTimeline(scn, 30.0)
    directed = plain = 0
    for query in scn.queries:
        got, _, popped = _oracle_heap(lambda s, q: offline_optimal(s, q, truth), scn, query)
        expected, _, plain_popped = _oracle_heap(
            lambda s, q: ref.offline_optimal(s, q, 30.0, goal_directed=False), scn, query)
        assert got.optimal_realized_cost == expected.optimal_realized_cost
        directed += len(popped)
        plain += len(plain_popped)
    assert 0 < 2 * directed < plain


def test_oracle_skips_a_dead_end_spur_the_landmark_terms_rule_out():
    # A one-way chain c199 -> ... -> c000 with a dead-end spur c150 -> d0 ->
    # ... -> d9. The first landmark is c000, which the spur cannot reach: its
    # "to" term reads inf at every spur node. The second active term reads
    # -inf or NaN (inf - inf) everywhere, and says nothing.
    chain = [f"c{i:03d}" for i in range(200)]
    spur = [f"d{i}" for i in range(10)]
    nodes = [NodeRecord(nid, float(i), 0.0) for i, nid in enumerate(chain + spur)]
    edges = [EdgeRecord(f"e{i:03d}", chain[i + 1], chain[i], 100.0, 10.0) for i in range(199)]
    edges += [EdgeRecord(f"s{i}", tail, head, 100.0, 10.0)
              for i, (tail, head) in enumerate(zip(["c150", *spur], spur))]
    query = Query("v1", "c199", "c020", 0.0, HeuristicWeights())
    scn = Scenario(RoadGraph(nodes, edges), HeuristicField(), (), (query,), "chain", 0)
    index = scn.graph.index
    s, t = index.pos["c199"], index.pos["c020"]
    ca, cb = planners._active_columns(index.landmark_columns(), s, t)
    assert all(ca[index.pos[d]] - ca[t] == math.inf for d in spur)
    assert all(math.isnan(cb[index.pos[d]] - cb[t]) for d in spur[1:])
    result, pushed, popped = _oracle_heap(offline_optimal, scn, query)
    plain, _, plain_popped = _oracle_heap(
        lambda s, q: ref.offline_optimal(s, q, goal_directed=False), scn, query)
    assert result == plain == ref.offline_optimal(scn, query)
    assert result.optimal_path == tuple(chain[199:19:-1])
    # The spur's first label is pushed with an infinite key and never popped:
    # each pop is a label of the route. Plain cost order pops the spur's ten
    # labels too.
    assert sum(key == math.inf for key, _cost, _time, _label in pushed) == 1
    assert len(popped) == len(result.optimal_path) == 180
    assert all(math.isfinite(key) for key, _cost, _time, _label in popped)
    assert len(plain_popped) == 190


def test_tie_break_follows_id_order_not_insertion_order():
    # s reaches the goal z through a or b, which share a position and equal
    # edge costs. The edge to b has the lower edge id and b is inserted
    # first, but ties go to the lower id, a.
    nodes = [NodeRecord("z", 20.0, 0.0), NodeRecord("b", 10.0, 0.0),
             NodeRecord("s", 0.0, 0.0), NodeRecord("a", 10.0, 0.0)]
    edges = [EdgeRecord("e1", "s", "b", 10.0, 1.0), EdgeRecord("e2", "s", "a", 10.0, 1.0),
             EdgeRecord("e3", "b", "z", 10.0, 1.0), EdgeRecord("e4", "a", "z", 10.0, 1.0)]
    graph = RoadGraph(nodes, edges)
    assert graph.index.ids == ("a", "b", "s", "z")
    snap = snapshot(graph, HeuristicField())
    astar = static_a_star(snap, "s", "z")
    assert astar.path == ("s", "a", "z")
    assert astar.expansion_order == ("s", "a", "z")
    # Uniform-cost order expands b before z; z keeps its first parent, a.
    for ucs in (dijkstra_ucs(snap, "s", "z"),
                dyn_a_star(snap, "s", "z", SearchParams(HeuristicWeights(1.0, 0.0, 0.0, 0.0)))):
        assert ucs.path == ("s", "a", "z")
        assert ucs.expansion_order == ("s", "a", "b", "z")


def test_one_index_shared_by_copies_snapshots_and_truth(scenario_dir):
    scn = load_scenario((scenario_dir / "grid10_congestion.scn").read_text())
    assert scn.events
    index = scn.graph.index
    assert scn.graph.copy().index is index
    assert snapshot(scn.graph, scn.initial_field).index is index
    timeline = TruthTimeline(scn, 30.0)
    assert len(timeline._starts) > 1
    for k in timeline._starts:
        assert timeline.at_epoch(k).index is index
    sim = Simulation(scn, SimConfig())
    sim.step_epoch()
    assert sim.belief_graph.index is index


def _belief_and_truth():
    """Two snapshots of one new 13 x 13 grid (169 nodes, so A* and the dynamic
    planner read the landmark bound), sharing its index: a congested belief
    with h2 penalties, and a truth with other congestion and blocked edges.
    Node ``zz`` has one edge out into the grid and none in, so no grid node
    reaches it."""
    grid = make_grid(13, 13, 100.0, 10.0)
    graph = RoadGraph([*grid.nodes.values(), NodeRecord("zz", -100.0, 0.0)],
                      [*grid.edges.values(), EdgeRecord("ezz", "zz", "n00_00", 100.0, 10.0)])
    eids = sorted(grid.edges)
    for k, eid in enumerate(eids):
        graph.congestion[eid] = 1.0 + (k * 7 % 5) / 2
    belief = snapshot(graph, HeuristicField(
        h2_by_node={f"n{r:02d}_{c:02d}": 5.0 * (r % 3) for r in range(13) for c in range(13)}))
    truth_graph = graph.copy()
    for k, eid in enumerate(eids):
        truth_graph.congestion[eid] = 1.0 + (k * 3 % 4) / 2
    truth_graph.blocked.update(eids[::17])
    truth = snapshot(truth_graph, HeuristicField())
    assert belief.index is truth.index
    return belief, truth


DYN_PARAMS = SearchParams(HeuristicWeights(1.0, 1.0, 0.5, 0.5))

# (snapshot: 0 belief, 1 truth; start; goal; parameters): found routes that
# leave nodes queued, unreachable goals (all the start reaches expanded), and
# a start that is the goal, under each weighting on each snapshot.
SEARCHES = [
    (0, "n00_00", "n12_12", UCS_PARAMS),
    (1, "n03_04", "zz", ASTAR_PARAMS),
    (0, "n12_12", "n00_00", DYN_PARAMS),
    (1, "n06_06", "n06_06", UCS_PARAMS),
    (1, "n12_00", "n00_12", ASTAR_PARAMS),
    (0, "n05_05", "zz", DYN_PARAMS),
    (0, "zz", "n07_09", ASTAR_PARAMS),
    (1, "n02_10", "n11_01", DYN_PARAMS),
    (0, "n09_03", "n09_03", DYN_PARAMS),
    (1, "n12_12", "n00_00", UCS_PARAMS),
    (0, "n04_08", "n10_02", ASTAR_PARAMS),
    (1, "n00_12", "n12_00", DYN_PARAMS),
]


def _on_fresh_indexes(searches):
    """Each search's result on a newly built graph, index and snapshots."""
    return [dyn_a_star(_belief_and_truth()[k], s, t, p) for k, s, t, p in searches]


def test_no_search_state_leaks_between_searches_on_one_index():
    expected = _on_fresh_indexes(SEARCHES)
    assert any(r.path and r.path[0] != r.path[-1] for r in expected)
    assert any(not r.path for r in expected)
    assert any(len(r.path) == 1 for r in expected)
    snaps = _belief_and_truth()
    for _round in range(2):  # the second round starts on state the first left
        for (k, s, t, p), want in zip(SEARCHES, expected):
            assert dyn_a_star(snaps[k], s, t, p) == want
            with pytest.raises(KeyError):
                dyn_a_star(snaps[1 - k], s, "no-such-node", p)
    assert len(snaps[0].index._free_states) == 1


def test_threads_searching_one_snapshot_get_the_serial_results():
    # Four threads switching every microsecond overlap their searches on the
    # one index, so each must hold a pair no other search writes.
    searches = [(1, s, t, p) for k, s, t, p in SEARCHES if k == 1]
    expected = _on_fresh_indexes(searches)
    truth = _belief_and_truth()[1]
    got = [[] for _thread in range(4)]

    def search(results):
        for _round in range(15):
            results.append([dyn_a_star(truth, s, t, p) for _k, s, t, p in searches])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(results,)) for results in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[expected] * 15] * 4


def test_a_short_search_on_a_large_graph_allocates_nothing_that_grows_with_it():
    grid = make_grid(100, 100, 100.0, 10.0)
    snap = snapshot(grid, HeuristicField())
    n = len(snap.index.ids)
    dyn_a_star(snap, "n50_50", "n99_99", DYN_PARAMS)  # builds the landmark table and a state
    tracemalloc.start()
    try:
        result = dyn_a_star(snap, "n50_50", "n50_52", DYN_PARAMS)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.path == ("n50_50", "n50_51", "n50_52")
    # One list of n entries holds 8n bytes of pointers.
    assert peak < n, f"{peak} B allocated by a 2-hop search on {n} nodes"

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynroute import (
    FOUND,
    UNREACHABLE,
    Event,
    HeuristicField,
    HeuristicWeights,
    PlanResult,
    SearchParams,
    apply_event,
    dijkstra_ucs,
    dyn_a_star,
    greedy_best_first,
    make_grid,
    replan,
    rrt_plan,
    snapshot,
    static_a_star,
    validate_path,
)
from dynroute.planners import path_travel_time
import reference_planners as ref
from conftest import (
    build_graph,
    diamond_graph,
    enumerate_min_travel,
    random_congested_grid,
    random_connected_graph,
    snap_of,
)

UNIT = SearchParams(weights=HeuristicWeights(1.0, 1.0, 0.0, 0.0))


def _penalty(snap, path):
    """The h2 + h3 of every node of ``path`` after its start."""
    pos = snap.index.pos
    return sum(snap.h2_at[pos[n]] + snap.h3_at[pos[n]] for n in path[1:])


def all_planners(snap, start, goal, seed=0):
    params = SearchParams(weights=HeuristicWeights(1.0, 1.0, 0.0, 0.0), rng_seed=seed)
    return {
        "ucs": dijkstra_ucs(snap, start, goal),
        "greedy": greedy_best_first(snap, start, goal),
        "astar": static_a_star(snap, start, goal),
        "rrt": rrt_plan(snap, start, goal, params),
        "dyn_astar": dyn_a_star(snap, start, goal, params),
    }


class TestDiamond:
    def test_optimal_planners_pick_cheap_branch(self):
        snap = snap_of(diamond_graph())
        for name in ("ucs", "astar", "dyn_astar"):
            res = all_planners(snap, "a", "d")[name]
            assert res.status == FOUND
            assert res.path == ("a", "b", "d")
            assert res.g_cost == pytest.approx(2.0)

    def test_all_planners_return_valid_paths(self):
        snap = snap_of(diamond_graph())
        for res in all_planners(snap, "a", "d").values():
            assert res.status == FOUND
            assert validate_path(snap, res.path)
            assert res.path[0] == "a" and res.path[-1] == "d"

    def test_trivial_start_is_goal(self):
        snap = snap_of(diamond_graph())
        for res in all_planners(snap, "a", "a").values():
            assert res.path == ("a",)
            assert res.g_cost == 0.0

    def test_unreachable_reported(self):
        snap = snap_of(diamond_graph())
        for res in all_planners(snap, "d", "a").values():
            assert res.status == UNREACHABLE
            assert res.path == ()
            assert math.isinf(res.g_cost)

    def test_blocking_cheap_branch_reroutes(self):
        g = diamond_graph()
        fld = HeuristicField()
        apply_event(g, fld, Event(0, "block_edge", "e1"))
        snap = snapshot(g, fld)
        res = dijkstra_ucs(snap, "a", "d")
        assert res.path == ("a", "c", "d")
        assert res.g_cost == pytest.approx(4.0)


class TestOptimalityOracle:
    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(60):
            g, start, goal = random_connected_graph(rng)
            snap = snap_of(g)
            want = enumerate_min_travel(g, start, goal)
            for plan in (
                dijkstra_ucs(snap, start, goal),
                static_a_star(snap, start, goal),
                dyn_a_star(snap, start, goal, UNIT),
            ):
                assert plan.status == FOUND
                assert plan.g_cost == pytest.approx(want)
                assert path_travel_time(snap, plan.path) == pytest.approx(want)

    def test_matches_enumeration_on_congested_grids(self):
        rng = random.Random(202)
        for _ in range(25):
            g, start, goal = random_congested_grid(rng)
            snap = snap_of(g)
            want = enumerate_min_travel(g, start, goal)
            assert dijkstra_ucs(snap, start, goal).g_cost == pytest.approx(want)
            assert static_a_star(snap, start, goal).g_cost == pytest.approx(want)


class TestUcsReduction:
    def test_zero_heuristic_weights_reduce_to_ucs(self):
        rng = random.Random(303)
        params = SearchParams(weights=HeuristicWeights(1.0, 0.0, 0.0, 0.0))
        for _ in range(40):
            g, start, goal = random_congested_grid(rng)
            snap = snap_of(g)
            # The reference's own loop: dijkstra_ucs is dyn_a_star with these weights.
            ucs = ref.dijkstra_ucs(ref.id_view(g, HeuristicField()), start, goal)
            dyn = dyn_a_star(snap, start, goal, params)
            assert dyn.g_cost == pytest.approx(ucs.g_cost)
            assert dyn.expansion_order == ucs.expansion_order
            assert dyn.path == ucs.path


class TestWeightedSearch:
    @pytest.mark.parametrize("W", [1.5, 2.0, 5.0])
    def test_inflated_h1_bounded_suboptimality(self, W):
        rng = random.Random(404)
        params = SearchParams(weights=HeuristicWeights(1.0, W, 0.0, 0.0))
        for _ in range(30):
            g, start, goal = random_connected_graph(rng)
            snap = snap_of(g)
            best = enumerate_min_travel(g, start, goal)
            res = dyn_a_star(snap, start, goal, params)
            assert res.status == FOUND
            assert path_travel_time(snap, res.path) <= W * best + 1e-9

    def test_comfort_weight_diverts_from_penalized_node(self):
        # b carries a comfort penalty; c does not but is slower
        g = diamond_graph()
        snap = snap_of(g, h2={"b": 10.0})
        params = SearchParams(weights=HeuristicWeights(1.0, 1.0, 1.0, 0.0))
        res = dyn_a_star(snap, "a", "d", params)
        assert res.path == ("a", "c", "d")
        assert res.g_cost == pytest.approx(4.0)

    def test_g_cost_charges_traversed_penalties(self):
        snap = snap_of(diamond_graph(), h2={"b": 0.5}, h3={"d": 0.25})
        res = dyn_a_star(snap, "a", "d", UNIT)
        assert res.path == ("a", "b", "d")
        assert res.g_cost == pytest.approx(2.0 + 0.5 + 0.25)

    @pytest.mark.parametrize("name", ["ucs", "greedy", "astar", "rrt", "dyn_astar"])
    def test_g_cost_charges_every_node_after_the_start(self, name):
        # The start's own penalty is not paid: the vehicle is already there.
        snap = snap_of(diamond_graph(), h2={"a": 8.0, "b": 0.5}, h3={"a": 4.0, "d": 0.25})
        res = all_planners(snap, "a", "d")[name]
        assert res.path in (("a", "b", "d"), ("a", "c", "d"))
        assert res.g_cost == path_travel_time(snap, res.path) + _penalty(snap, res.path)

    def test_expanded_counts_are_positive_and_consistent(self):
        snap = snap_of(make_grid(4, 4, 100.0, 10.0))
        res = dyn_a_star(snap, "n00_00", "n03_03", UNIT)
        assert res.expanded == len(res.expansion_order)
        assert 0 < res.expanded <= 16


class TestGreedy:
    def test_greedy_is_complete_but_may_be_suboptimal(self):
        rng = random.Random(505)
        worse = 0
        for _ in range(30):
            g, start, goal = random_congested_grid(rng)
            snap = snap_of(g)
            res = greedy_best_first(snap, start, goal)
            assert res.status == FOUND
            assert validate_path(snap, res.path)
            best = enumerate_min_travel(g, start, goal)
            assert res.g_cost >= best - 1e-9
            if res.g_cost > best + 1e-9:
                worse += 1
        assert worse > 0  # congestion must actually fool it sometimes

    def test_greedy_expands_fewer_than_ucs_on_open_grid(self):
        snap = snap_of(make_grid(6, 6, 100.0, 10.0))
        greedy = greedy_best_first(snap, "n00_00", "n05_05")
        ucs = dijkstra_ucs(snap, "n00_00", "n05_05")
        assert greedy.expanded < ucs.expanded


class TestRrt:
    def test_deterministic_for_fixed_seed(self):
        snap = snap_of(make_grid(5, 5, 100.0, 10.0))
        p = SearchParams(rng_seed=42)
        a = rrt_plan(snap, "n00_00", "n04_04", p)
        b = rrt_plan(snap, "n00_00", "n04_04", p)
        assert a == b

    def test_seed_changes_exploration(self):
        snap = snap_of(make_grid(6, 6, 100.0, 10.0))
        results = {
            rrt_plan(snap, "n00_00", "n05_05", SearchParams(rng_seed=s)).path
            for s in range(8)
        }
        assert len(results) > 1

    def test_respects_blocked_edges(self):
        g = diamond_graph()
        fld = HeuristicField()
        apply_event(g, fld, Event(0, "block_edge", "e1"))
        snap = snapshot(g, fld)
        res = rrt_plan(snap, "a", "d", SearchParams(rng_seed=1))
        assert res.status == FOUND
        assert res.path == ("a", "c", "d")

    def test_unreachable_within_budget(self):
        snap = snap_of(diamond_graph())
        res = rrt_plan(snap, "d", "a", SearchParams(rng_seed=0))
        assert res.status == UNREACHABLE
        assert res.expansion_order == ("d",)

    def test_a_nearest_node_tie_goes_to_the_lower_index(self):
        # On a 2 x 3 grid, seed 0's first sample, n01_00, grows the tree from
        # n00_02 through n00_01 and n00_00 to n01_00. Its second, the goal
        # n01_01, is one edge from both n00_01 and n01_00; the tie goes to
        # n00_01, the lower index, which steps to the goal. The higher,
        # n01_00, would reach it too, as the goal's parent.
        snap = snap_of(make_grid(2, 3, 100.0, 10.0))
        res = rrt_plan(snap, "n00_02", "n01_01", SearchParams(rng_seed=0))
        assert res.path == ("n00_02", "n00_01", "n01_01")
        assert res.expansion_order == ("n00_02", "n00_01", "n00_00", "n01_00", "n01_01")

    @pytest.mark.parametrize("start, goal", [("n00_00", "n04_04"), ("n02_03", "n02_03")])
    def test_expansion_order_is_the_tree_in_insertion_order(self, start, goal):
        # Every node enters the tree after its parent, so the path's nodes
        # appear in the expansion order in path order.
        snap = snap_of(make_grid(5, 5, 100.0, 10.0))
        res = rrt_plan(snap, start, goal, SearchParams(rng_seed=42))
        order = res.expansion_order
        assert res.status == FOUND and order[0] == start
        assert res.expanded == len(order) == len(set(order))
        at = [order.index(n) for n in res.path]
        assert at == sorted(at)


class TestReplan:
    def _prior(self, snap):
        return dyn_a_star(snap, "a", "d", UNIT)

    def test_keeps_route_when_nothing_changed(self):
        snap = snap_of(diamond_graph())
        prior = self._prior(snap)
        kept = replan(prior, snap, "b", "d", UNIT)
        assert kept.path == ("b", "d")

    def test_switches_when_next_edge_blocked(self):
        g = diamond_graph()
        fld = HeuristicField()
        prior = self._prior(snapshot(g, fld))
        apply_event(g, fld, Event(0, "block_edge", "e1"))
        res = replan(prior, snapshot(g, fld), "a", "d", UNIT)
        assert res.path == ("a", "c", "d")

    def test_status_and_expanded_follow_from_path_and_order(self):
        unreachable = PlanResult((), math.inf, math.inf, ("a", "b"))
        found = PlanResult(("a",), 0.0, 0.0)
        assert (unreachable.status, unreachable.expanded) == (UNREACHABLE, 2)
        assert (found.status, found.expanded) == (FOUND, 0)
        assert [f.name for f in dataclasses.fields(PlanResult)] == [
            "path", "g_cost", "f_cost_at_goal", "expansion_order"]

    def test_at_goal_returns_empty_remaining_plan(self):
        snap = snap_of(diamond_graph())
        res = replan(self._prior(snap), snap, "d", "d", UNIT)
        assert (res.path, res.g_cost, res.expanded) == (("d",), 0.0, 1)

    def test_a_route_held_at_the_goal_is_handed_on_without_a_search(self):
        snap = snap_of(diamond_graph())
        held = PlanResult(("d",), 0.0, 0.0)
        res = replan(held, snap, "d", "d", UNIT, keep=True)
        assert res is held and res.expanded == 0

    def test_a_kept_route_is_returned_without_a_search(self, monkeypatch):
        # Whether the route is still good is the caller's question: kept, it
        # comes back as it is, even over a blocked edge.
        g = diamond_graph()
        fld = HeuristicField()
        prior = self._prior(snapshot(g, fld))
        apply_event(g, fld, Event(0, "block_edge", "e1"))
        snap = snapshot(g, fld)

        def no_search(*args):
            raise AssertionError("replan searched although it was told to keep the route")

        monkeypatch.setattr("dynroute.planners.dyn_a_star", no_search)
        assert replan(prior, snap, "a", "d", UNIT, keep=True) is prior

    def test_a_new_search_is_taken_as_it_is(self):
        # Not kept, the plan is the search's result in every field, from any
        # node of the held route, however near the held route's cost is.
        rng = random.Random(11)
        for _ in range(200):
            g, start, goal = random_connected_graph(rng)
            h2 = {n: rng.choice((0.0, 0.5, 3.0)) for n in g.nodes if rng.random() < 0.4}
            params = SearchParams(weights=HeuristicWeights(1.0, 1.0, rng.choice((0.0, 1.0)), 0.0))
            prior = dyn_a_star(snap_of(g, h2=h2), start, goal, params)
            for eid in rng.sample(sorted(g.edges), min(3, len(g.edges))):
                g.congestion[eid] *= rng.choice((1.0, 1.005, 1.5))
            snap = snap_of(g, h2=h2)
            current = rng.choice(prior.path)
            res = replan(prior, snap, current, goal, params)
            assert res == dyn_a_star(snap, current, goal, params)
            assert res.g_cost == path_travel_time(snap, res.path) + _penalty(snap, res.path)


class TestRejectedInput:
    @pytest.mark.parametrize("planner", [dijkstra_ucs, greedy_best_first, static_a_star])
    @pytest.mark.parametrize("start, goal", [("z", "d"), ("a", "z")])
    def test_an_unknown_node_is_a_key_error(self, planner, start, goal):
        with pytest.raises(KeyError, match="unknown node 'z'"):
            planner(snap_of(diamond_graph()), start, goal)

    def test_path_travel_time_rejects_a_hop_with_no_unblocked_edge(self):
        g = diamond_graph()
        fld = HeuristicField()
        apply_event(g, fld, Event(0, "block_edge", "e2"))  # b -> d
        snap = snapshot(g, fld)
        assert path_travel_time(snap, ("a", "c", "d")) == 4.0
        for path in (("a", "b", "d"), ("a", "d")):
            with pytest.raises(ValueError) as info:
                path_travel_time(snap, path)
            assert str(info.value) == f"no unblocked edge along {path!r}"


class TestValidatePath:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_validate_path_accepts_planner_output(self, seed):
        g, start, goal = random_connected_graph(random.Random(seed), max_nodes=8)
        snap = snap_of(g)
        res = dijkstra_ucs(snap, start, goal)
        assert res.status == FOUND
        assert validate_path(snap, res.path)

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynroute import (
    HeuristicField,
    HeuristicWeights,
    Observation,
    adapt_weights,
    ingest_observations,
    make_grid,
)
from conftest import build_graph, enumerate_min_travel
from reference_planners import combined_f, id_view, time_heuristic


class TestTimeHeuristic:
    def test_three_four_five_triangle(self):
        # two edges pin v_max to 10 m/s
        g = build_graph(
            [("a", 0.0, 0.0), ("b", 300.0, 400.0)],
            [("e1", "a", "b", 500.0, 50.0), ("e2", "b", "a", 500.0, 50.0)],
        )
        view = id_view(g, HeuristicField())
        assert time_heuristic(view, "a", "b") == pytest.approx(50.0)

    def test_zero_at_goal(self):
        g = make_grid(2, 2, 100.0, 10.0)
        view = id_view(g, HeuristicField())
        assert time_heuristic(view, "n00_00", "n00_00") == 0.0

    def test_corner_to_corner_bound_on_grid(self):
        g = make_grid(3, 3, 100.0, 10.0)
        view = id_view(g, HeuristicField())
        h = time_heuristic(view, "n00_00", "n02_02")
        assert h == pytest.approx(100.0 * math.sqrt(8) / 10.0)
        assert h <= enumerate_min_travel(g, "n00_00", "n02_02") == 40.0

    def test_unknown_node(self):
        view = id_view(make_grid(1, 2, 100.0, 10.0), HeuristicField())
        with pytest.raises(KeyError):
            time_heuristic(view, "zz", "n00_00")

    def test_admissible_on_congested_grids(self):
        rng = random.Random(7)
        for _ in range(10):
            g = make_grid(rng.randint(2, 4), rng.randint(2, 4), 100.0, 10.0)
            for eid in g.edges:
                if rng.random() < 0.5:
                    g.congestion[eid] = rng.uniform(1.0, 5.0)
            view = id_view(g, HeuristicField())
            ids = sorted(g.nodes)
            for start in ids:
                for goal in ids:
                    true = enumerate_min_travel(g, start, goal)
                    assert time_heuristic(view, start, goal) <= true + 1e-9

    def test_consistent_across_edges(self):
        g = make_grid(3, 3, 100.0, 10.0)
        view = id_view(g, HeuristicField())
        for goal in sorted(g.nodes):
            for e in g.edges.values():
                hu = time_heuristic(view, e.from_node, goal)
                hv = time_heuristic(view, e.to_node, goal)
                assert hu <= e.base_time_s + hv + 1e-9


class TestCombinedF:
    def test_unit_weights_sum(self):
        assert combined_f(5, 2, 1, 0.5, HeuristicWeights(1, 1, 1, 1)) == 8.5

    def test_pure_path_cost(self):
        assert combined_f(5, 2, 1, 0.5, HeuristicWeights(1, 0, 0, 0)) == 5.0

    def test_mixed_weights(self):
        assert combined_f(10, 4, 2, 1, HeuristicWeights(1, 2, 0.5, 3)) == 22.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            combined_f(math.inf, 0, 0, 0, HeuristicWeights())

    @settings(max_examples=100, deadline=None)
    @given(
        g=st.floats(0, 1e4), h1=st.floats(0, 1e4), h2=st.floats(0, 1e4),
        h3=st.floats(0, 1e4), scale=st.floats(0.01, 100.0),
    )
    def test_linear_in_weights(self, g, h1, h2, h3, scale):
        w = HeuristicWeights(1.0, 2.0, 0.5, 3.0)
        sw = HeuristicWeights(scale * w.w_g, scale * w.w1, scale * w.w2, scale * w.w3)
        assert combined_f(g, h1, h2, h3, sw) == pytest.approx(
            scale * combined_f(g, h1, h2, h3, w)
        )

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            HeuristicWeights(0.0, 1, 1, 1)
        with pytest.raises(ValueError):
            HeuristicWeights(1.0, -1, 1, 1)


def _line_graph(alpha=1.0):
    g = build_graph(
        [("a", 0.0, 0.0), ("b", 100.0, 0.0)],
        [("e1", "a", "b", 100.0, 10.0)],
    )
    return g, HeuristicField(smoothing_alpha=alpha)


def _obs(tt, comfort=0.0, reporter="v1", t=0.0):
    return Observation("e1", tt, comfort, reporter, t)


class TestIngestObservations:
    def test_full_replacement_at_alpha_one(self):
        g, fld = _line_graph(1.0)
        ingest_observations(g, fld, [_obs(15.0)])
        assert g.congestion["e1"] == pytest.approx(1.5)

    def test_half_alpha_moving_average(self):
        g, fld = _line_graph(0.5)
        ingest_observations(g, fld, [_obs(20.0)])
        assert g.congestion["e1"] == pytest.approx(1.5)

    def test_clamped_at_free_flow(self):
        g, fld = _line_graph(1.0)
        ingest_observations(g, fld, [_obs(5.0)])
        assert g.congestion["e1"] == 1.0

    def test_comfort_flows_to_head_node(self):
        g, fld = _line_graph(1.0)
        ingest_observations(g, fld, [_obs(10.0, comfort=3.0)])
        assert fld.h2_by_node["b"] == pytest.approx(3.0)

    def test_idempotent_at_alpha_one(self):
        g, fld = _line_graph(1.0)
        batch = [_obs(18.0, comfort=2.0)]
        ingest_observations(g, fld, batch)
        state = (dict(g.congestion), dict(fld.h2_by_node))
        assert ingest_observations(g, fld, batch) == (set(), set())
        assert (dict(g.congestion), dict(fld.h2_by_node)) == state

    @given(congestion=st.floats(1.0, 1e6), base=st.floats(1e-3, 1e4), h2=st.floats(0.0, 1e6),
           alpha=st.floats(0.0, 1.0, exclude_min=True))
    @example(congestion=1.54, base=50.0, h2=49.802, alpha=0.3)
    @example(congestion=3.2, base=94.9, h2=0.0, alpha=0.3)
    def test_report_equal_to_the_belief_changes_nothing(self, congestion, base, h2, alpha):
        # At alpha 0.3, 1.54 and a 77 s report on a 50 s edge average to
        # 1.5399999999999998, and 49.802 with itself to 49.80199999999999:
        # averaging a report equal to the belief would move it by an ulp and
        # dirty the edge or the node. A time is the price the belief charges
        # even where its ratio to the base time is not the congestion: 94.9 s
        # at 3.2 is priced 303.68 s, a ratio of 3.1999999999999997.
        time = congestion * base
        g = build_graph([("a", 0.0, 0.0), ("b", 100.0, 0.0)], [("e1", "a", "b", 100.0, base)])
        g.congestion["e1"] = congestion
        fld = HeuristicField(h2_by_node={"b": h2}, smoothing_alpha=alpha)
        assert ingest_observations(g, fld, [_obs(time, comfort=h2)]) == (set(), set())
        assert (g.congestion["e1"], fld.h2_by_node["b"]) == (congestion, h2)

    def test_negative_report_clips_the_estimate_at_zero(self):
        # A noisy report may be negative; the estimate it moves may not.
        g, fld = _line_graph(0.3)
        fld.h2_by_node["b"] = 1.0
        assert ingest_observations(g, fld, [_obs(10.0, comfort=-10.0)]) == (set(), {"b"})
        assert fld.h2_by_node["b"] == 0.0

    def test_order_independent_processing(self):
        batch = [_obs(20.0, t=5.0, reporter="b"), _obs(12.0, t=1.0, reporter="a")]
        g1, f1 = _line_graph(0.5)
        ingest_observations(g1, f1, batch)
        g2, f2 = _line_graph(0.5)
        ingest_observations(g2, f2, list(reversed(batch)))
        assert g1.congestion == g2.congestion

    def test_unknown_edge_rejected(self):
        g, fld = _line_graph()
        with pytest.raises(KeyError, match="e9"):
            ingest_observations(g, fld, [Observation("e9", 10.0, 0.0, "v", 0.0)])

    @pytest.mark.parametrize("tt, comfort", [(math.inf, 0.0), (math.nan, 0.0), (10.0, math.inf)])
    def test_non_finite_observation_rejected(self, tt, comfort):
        g, fld = _line_graph()
        with pytest.raises(ValueError, match="not finite"):
            ingest_observations(g, fld, [_obs(tt, comfort=comfort)])
        assert g.congestion["e1"] == 1.0

    def test_reports_only_changed_keys(self):
        g = build_graph(
            [("a", 0.0, 0.0), ("b", 100.0, 0.0), ("c", 200.0, 0.0)],
            [("e1", "a", "b", 100.0, 10.0), ("e2", "b", "c", 100.0, 10.0)],
        )
        fld = HeuristicField(h2_by_node={"c": 2.0}, smoothing_alpha=0.5)
        # e1 at free flow with no comfort leaves both values as they were;
        # e2 slower than free flow with its head's comfort unchanged.
        batch = [_obs(8.0), Observation("e2", 30.0, 2.0, "v2", 0.0)]
        assert ingest_observations(g, fld, batch) == ({"e2"}, set())
        assert ingest_observations(g, fld, [_obs(10.0, comfort=1.0)]) == (set(), {"b"})
        assert ingest_observations(g, fld, []) == (set(), set())

    def test_h3_untouched(self):
        g = build_graph(
            [("a", 0.0, 0.0), ("b", 100.0, 0.0)],
            [("e1", "a", "b", 100.0, 10.0)],
        )
        fld = HeuristicField(h3_by_node={"b": 9.0}, smoothing_alpha=1.0)
        ingest_observations(g, fld, [_obs(30.0, comfort=5.0)])
        assert fld.h3_by_node["b"] == 9.0


class TestAdaptWeights:
    def test_no_flags_identity(self):
        base = HeuristicWeights(1, 1, 1, 1)
        assert adapt_weights(base, False, False, False) is base

    def test_comfort_and_rough_compose(self):
        out = adapt_weights(
            HeuristicWeights(1, 1, 1, 1),
            prefers_comfort=True, rough_road=True, heavy_traffic=False,
        )
        assert out.w2 == pytest.approx(3.0)
        assert (out.w_g, out.w1, out.w3) == (1, 1, 1)

    def test_heavy_traffic_scales_time_weight(self):
        out = adapt_weights(
            HeuristicWeights(1, 1, 1, 1),
            prefers_comfort=False, rough_road=False, heavy_traffic=True,
        )
        assert (out.w_g, out.w1, out.w2, out.w3) == (1, 1.5, 1, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        wg=st.floats(0.1, 10), w1=st.floats(0, 10), w2=st.floats(0, 10),
        w3=st.floats(0, 10), flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_pure_and_preserves_wg_w3(self, wg, w1, w2, w3, flags):
        base = HeuristicWeights(wg, w1, w2, w3)
        out1 = adapt_weights(base, *flags)
        out2 = adapt_weights(base, *flags)
        assert out1 == out2
        assert out1.w_g == base.w_g
        assert out1.w3 == base.w3

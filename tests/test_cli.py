import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynroute import (
    ALGORITHMS, ARRIVED, STRANDED, HeuristicField, HeuristicWeights, Query, Scenario, SimConfig,
    Simulation, evaluate, load_scenario, make_grid, run_simulation, serialize_scenario,
)
from dynroute import cli
from dynroute.cli import CliError, _atomic_write, main
from dynroute.simulate import replay_realized_cost

from conftest import SCENARIO_DIR
from perfbench import gen
from test_sim import FORK, LINE, scenario_doc


@pytest.fixture()
def line_scn(tmp_path):
    p = tmp_path / "line.scn"
    p.write_text(scenario_doc(**LINE))
    return p


@pytest.fixture()
def blocked_fork(tmp_path):
    p = tmp_path / "fork.scn"
    p.write_text(scenario_doc(
        **FORK,
        events=[{"t_s": 30.0, "kind": "block_edge", "target": "e2"}],
    ))
    return p


class TestPlan:
    def test_prints_path_and_costs(self, line_scn, capsys):
        assert main(["plan", "--scenario", str(line_scn)]) == 0
        out = capsys.readouterr().out
        assert "path: a -> b -> c -> d" in out
        assert "g_cost: 150.000000" in out
        assert "expanded:" in out

    @pytest.mark.parametrize("algo", ["ucs", "greedy", "astar", "rrt", "dyn_astar"])
    def test_every_algorithm_runs(self, line_scn, algo, capsys):
        assert main(["plan", "--scenario", str(line_scn), "--algo", algo]) == 0
        assert "path: a ->" in capsys.readouterr().out

    def test_out_file_written(self, line_scn, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["plan", "--scenario", str(line_scn), "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["path"] == ["a", "b", "c", "d"]
        assert doc["status"] == "found"

    def test_unreachable_exit_code(self, tmp_path, capsys):
        # goal reachable at load time but walled off before departure
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 0.0, "kind": "block_edge", "target": "e3"}],
        )
        p = tmp_path / "walled.scn"
        p.write_text(doc)
        assert main(["plan", "--scenario", str(p)]) == 4
        assert "Unreachable" in capsys.readouterr().out

    def test_plans_on_truth_in_force_at_departure(self, tmp_path, capsys):
        # departing at t=45, the block at t=40 lands on the t=60 boundary, so
        # the plan made in the t=30 epoch still runs through e2
        doc = scenario_doc(
            **LINE,
            events=[{"t_s": 40.0, "kind": "block_edge", "target": "e2"}],
            queries=[{"vehicle": "v1", "start": "a", "goal": "d", "depart_s": 45.0,
                      "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
        )
        p = tmp_path / "late_block.scn"
        p.write_text(doc)
        assert main(["plan", "--scenario", str(p)]) == 0
        assert "path: a -> b -> c -> d" in capsys.readouterr().out
        sim = Simulation(load_scenario(doc), SimConfig())
        sim.step_epoch()
        sim.step_epoch()
        (v,) = sim.vehicles
        assert v.departed and v.plan_nodes
        # with 45 s epochs the block is already in force in the departure epoch
        assert main(["plan", "--scenario", str(p), "--epoch-s", "45"]) == 4
        assert "Unreachable" in capsys.readouterr().out

    # A* reads the landmark bound from planners.LANDMARK_MIN_NODES (150)
    # nodes on. On one-way chains of 200 and 600 nodes most nodes have no
    # route to any landmark: the downstream end is still planned, and the
    # upstream end is a scenario error that names its query.
    @pytest.mark.parametrize("n", [200, 600])
    def test_one_way_chain_past_the_landmark_threshold(self, n, tmp_path, capsys):
        ids = [f"c{i:03d}" for i in range(n)]

        def chain(start, goal):
            p = tmp_path / f"{start}_{goal}.scn"
            p.write_text(json.dumps({
                "meta": {"name": "long_chain", "seed": 1},
                "nodes": [{"id": nid, "x": 100.0 * i, "y": 0.0} for i, nid in enumerate(ids)],
                "edges": [{"id": f"e{i:03d}", "from": ids[i], "to": ids[i + 1],
                           "length_m": 100.0, "base_time_s": 10.0} for i in range(n - 1)],
                "queries": [{"vehicle": "v1", "start": start, "goal": goal}]}))
            return str(p)

        down = chain(ids[0], ids[-1])
        for algo in ("astar", "dyn_astar"):
            assert main(["plan", "--scenario", down, "--algo", algo]) == 0
            out = capsys.readouterr()
            assert f"path: {' -> '.join(ids)}\n" in out.out
            assert "Traceback" not in out.out + out.err
        assert main(["validate", chain(ids[-1], ids[0])]) == 3
        out = capsys.readouterr()
        assert f"queries[0]: goal '{ids[0]}' unreachable from '{ids[-1]}'" in out.out
        assert "Traceback" not in out.out + out.err

    def test_custom_weights_accepted(self, line_scn, capsys):
        assert main(["plan", "--scenario", str(line_scn), "--weights", "1,2,0,0"]) == 0
        capsys.readouterr()
        assert main(["plan", "--scenario", str(line_scn), "--weights", "1,2"]) == 2

    @pytest.mark.parametrize("weights, message", [
        ("1,x,0,0", "bad --weights: could not convert string to float: 'x'"),
        ("1,-1,0,0", "bad --weights: w1 must be finite and >= 0, got -1.0"),
        ("0,1,0,0", "bad --weights: w_g must be > 0 (path cost must count)"),
    ])
    def test_malformed_weights_are_a_usage_error(self, weights, message, line_scn, capsys):
        assert main(["plan", "--scenario", str(line_scn), "--weights", weights]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_query_index(self, line_scn, capsys):
        assert main(["plan", "--scenario", str(line_scn), "--query", "5"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["plan", "--scenario", str(tmp_path / "nope.scn")]) == 2

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("{}")
        assert main(["plan", "--scenario", str(bad)]) == 3


def _comfort_doc():
    """v1, which prefers comfort, from s to g past m (50 s + 50 s, h2 30) or n
    (75 s + 75 s). Its weights have w2 = 1, which would take m; its context
    doubles w2 to 2, which takes n."""
    return scenario_doc(
        nodes=[("s", 0.0, 0.0), ("m", 500.0, 100.0), ("n", 500.0, -100.0), ("g", 1000.0, 0.0)],
        edges=[("e1", "s", "m", 510.0, 50.0), ("e2", "m", "g", 510.0, 50.0),
               ("e3", "s", "n", 510.0, 75.0), ("e4", "n", "g", 510.0, 75.0)],
        h2={"m": 30.0},
        queries=[{"vehicle": "v1", "start": "s", "goal": "g", "depart_s": 0.0,
                  "weights": {"wg": 1, "w1": 1, "w2": 1, "w3": 0},
                  "context": {"prefers_comfort": True}}],
    )


def _two_trip_grid_doc():
    """Two vehicles across an event-free 6x6 grid, where RRT's route
    depends on its seed."""
    g = make_grid(6, 6, 100.0, 10.0)
    ids, w = g.index.ids, HeuristicWeights(1.0, 1.0, 0.0, 0.0)
    return serialize_scenario(Scenario(g, HeuristicField(), (), (
        Query("v1", ids[0], ids[-1], 0.0, w), Query("v2", ids[5], ids[30], 0.0, w)), "grid", 5))


class TestPlanAnswersTheVehiclesQuery:
    """``plan`` searches with what the query's vehicle searches with in a
    simulation: its weights adapted to its context, and its own RRT seed."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("make_doc", [_comfort_doc, _two_trip_grid_doc])
    def test_plan_is_the_simulated_route(self, make_doc, algo, tmp_path, capsys):
        doc = make_doc()
        p = tmp_path / "s.scn"
        p.write_text(doc)
        scn = load_scenario(doc)
        routes = {v["vehicle"]: v["path"] for v in run_simulation(scn, SimConfig(), algo).vehicles}
        for i, q in enumerate(scn.queries):
            out = tmp_path / f"plan{i}.json"
            assert main(["plan", "--scenario", str(p), "--algo", algo, "--query", str(i),
                         "--out", str(out)]) == 0
            assert json.loads(out.read_text())["path"] == routes[q.vehicle]

    def test_weights_flag_replaces_only_the_base_weights(self, tmp_path, capsys):
        p = tmp_path / "s.scn"
        p.write_text(_comfort_doc())
        for weights, path in (("1,1,1,0", "s -> n -> g"), ("1,1,0,0", "s -> m -> g")):
            assert main(["plan", "--scenario", str(p), "--weights", weights]) == 0
            assert f"path: {path}\n" in capsys.readouterr().out


class TestSimulate:
    def test_csv_on_stdout(self, line_scn, capsys):
        assert main(["simulate", "--scenario", str(line_scn)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "vehicle,status,realized_cost_s,arrival_s,replans,path"
        assert lines[1].startswith("v1,arrived,150.000000")

    def test_output_files(self, line_scn, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--scenario", str(line_scn), "--out", prefix]) == 0
        trace = json.loads((tmp_path / "run.trace.json").read_text())
        assert trace["vehicles"][0]["status"] == "arrived"
        assert (tmp_path / "run.csv").read_text().startswith("vehicle,")
        assert not (tmp_path / "run.csv.tmp").exists()

    def test_alpha_flag_reaches_the_trace(self, line_scn, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--scenario", str(line_scn), "--alpha", "0.5",
                     "--out", prefix]) == 0
        trace = json.loads((tmp_path / "run.trace.json").read_text())
        assert trace["config"]["alpha"] == 0.5

    def test_seed_flag_runs_the_document_with_that_seed(self, line_scn, tmp_path, capsys):
        # --seed is the run's one seed: the trace's config records no other
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--scenario", str(line_scn), "--seed", "5",
                     "--out", prefix]) == 0
        doc = json.loads(line_scn.read_text())
        doc["meta"]["seed"] = 5
        expected = run_simulation(load_scenario(json.dumps(doc)), SimConfig()).to_dict()
        assert json.loads((tmp_path / "run.trace.json").read_text()) == json.loads(
            json.dumps(expected))

    def test_stranded_exit_code(self, blocked_fork, capsys):
        assert main(["simulate", "--scenario", str(blocked_fork), "--algo", "astar"]) == 5
        assert "stranded" in capsys.readouterr().err
        assert main(["simulate", "--scenario", str(blocked_fork),
                     "--algo", "astar", "--allow-stranded"]) == 0

    def test_dyn_survives_same_scenario(self, blocked_fork, capsys):
        assert main(["simulate", "--scenario", str(blocked_fork)]) == 0

    def test_output_leaves_foreign_tmp_file_alone(self, line_scn, tmp_path, capsys):
        stale = tmp_path / "run.csv.tmp"
        stale.write_text("another writer's data")
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--scenario", str(line_scn), "--out", prefix]) == 0
        assert stale.read_text() == "another writer's data"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "line.scn", "run.csv", "run.csv.tmp", "run.trace.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("dynroute.cli.os.replace", refuse)
        with pytest.raises(CliError, match="disk full") as info:
            _atomic_write(tmp_path / "run.csv", "data\n")
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_epoch_flag_validated(self, line_scn, capsys):
        assert main(["simulate", "--scenario", str(line_scn), "--epoch-s", "0"]) == 2

    def test_epoch_too_short_for_the_horizon_is_usage_error(self, line_scn, capsys):
        # 1e-300 s epochs would split the 1e6 s horizon into 1e306 epochs.
        assert main(["simulate", "--scenario", str(line_scn), "--epoch-s", "1e-300"]) == 2
        assert "more than 10,000,000 epochs" in capsys.readouterr().err

    def test_byte_identical_reruns(self, line_scn, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--scenario", str(line_scn), "--out", a]) == 0
        assert main(["simulate", "--scenario", str(line_scn), "--out", b]) == 0
        assert (tmp_path / "a.trace.json").read_bytes() == (tmp_path / "b.trace.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, blocked_fork, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "astar", "allow_stranded": True}))
        assert main(["simulate", "--scenario", str(blocked_fork), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert ",stranded," in out

    def test_explicit_flag_beats_config(self, blocked_fork, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "astar", "allow_stranded": True}))
        assert main(["simulate", "--scenario", str(blocked_fork), "--config", str(cfg),
                     "--algo", "dyn_astar"]) == 0
        assert ",arrived," in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, line_scn, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"velocity": 3}))
        assert main(["simulate", "--scenario", str(line_scn), "--config", str(cfg)]) == 2

    def test_malformed_config_rejected(self, line_scn, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["simulate", "--scenario", str(line_scn), "--config", str(cfg)]) == 2


    @pytest.mark.parametrize("overrides, message", [
        ({"rho": [1]}, "'rho' must be a number, got [1]"),
        ({"rho": None}, "'rho' must be a number, got null"),
        ({"epoch_s": [1]}, "'epoch_s' must be a number, got [1]"),
        ({"jobs": 1.5}, "'jobs' must be an integer, got 1.5"),
        ({"jobs": True}, "'jobs' must be an integer, got true"),
        ({"no_share": "false"}, "'no_share' must be true or false, got \"false\""),
        ({"suite": 5}, "'suite' must be a string, got 5"),
    ])
    def test_mistyped_config_value_is_usage_error(self, overrides, message, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        assert main(["bench", "--suite", str(suite), "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_config_choice_checked(self, line_scn, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "bogus"}))
        assert main(["plan", "--scenario", str(line_scn), "--config", str(cfg)]) == 2
        assert "'algo' must be one of ucs, greedy" in capsys.readouterr().err

    def test_typed_config_values_accepted(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 2, "epoch_s": 15.0, "jobs": 1,
                                   "no_share": False, "out": None}))
        assert main(["bench", "--suite", str(suite), "--config", str(cfg)]) == 0
        assert "pass = arrived within 2 x" in capsys.readouterr().out


class TestBench:
    def test_small_suite(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        (suite / "s2.scn").write_text(scenario_doc(
            **FORK,
            events=[{"t_s": 30.0, "kind": "set_congestion", "target": "e2", "value": 10.0}],
        ))
        out = str(tmp_path / "bench")
        assert main(["bench", "--suite", str(suite), "--out", out]) == 0
        csv_lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        scores = {
            row.split(",")[0]: float(row.split(",")[1]) for row in csv_lines[1:]
        }
        assert scores["dyn_astar"] == 1.0
        assert scores["astar"] == 0.5
        table = (tmp_path / "bench.txt").read_text()
        assert "2 scenarios" in table
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize("suite, table_sha256, csv_sha256", [
        ("suite", "bccb1704235474222ac25960d819ef9b09705d1b9bd71c9fccb1e7ada7a17dbd",
         "34f2704d7764e1e2ae565390ebd414dc74ba46b93d834bbc425a498e4aa56415"),
        ("static_suite", "1f58ef4cf1b577b9fdb4382e8e56b6abccb5d5a68fbaa055909b3b7d89f89527",
         "34c15afab1c4317dd0701c720efc5cb6282f4c75872b88ae2ebf350abedb1ff4"),
    ], ids=["suite", "static_suite"])
    def test_committed_suite_renders_its_pinned_table_and_csv(
            self, suite, table_sha256, csv_sha256, tmp_path, capsys):
        # The scorer's output byte for byte: every cell, score, ratio and column.
        self._assert_bench_pins(SCENARIO_DIR / suite, table_sha256, csv_sha256, tmp_path, capsys)

    def test_eval_grid20_documents_render_their_pinned_table_and_csv(self, tmp_path, capsys):
        # The committed suites' graphs are too small for the oracle to read the
        # landmark bound. These 400-node grids read it, and their pins were
        # taken with the oracle in plain cost order.
        suite = tmp_path / "eval_grid20"
        suite.mkdir()
        for k, doc in enumerate(gen.eval_grid20_docs(1)):
            (suite / f"grid20_1_{k}.scn").write_text(doc)
        self._assert_bench_pins(
            suite, "b65c96f9c627d925c839d4a283ba0c720b4d2efb3ca2b5acf7dfa46295c0bece",
            "ae1ef75bc26bbf5e8a179604a6c9bd04455ca53dd7748b15c8e5de29530451e4", tmp_path, capsys)

    def test_fleet_document_scores_without_errors_within_its_bound(self, tmp_path, capsys):
        # perfbench's seed-1 fleet document: 900 nodes, 300 events, 200 trips.
        # No cell raises, and dyn_astar's mean ratio to the oracle stays at or
        # below the 1.0294 it read with a search in every epoch.
        suite = tmp_path / "fleet"
        suite.mkdir()
        (suite / "fleet_1.scn").write_text(gen.fleet_doc(1))
        assert main(["bench", "--suite", str(suite), "--out", str(tmp_path / "bench")]) == 0
        assert not any(line.startswith("errors") for line in capsys.readouterr().out.splitlines())
        header, *rows = (line.split(",") for line in
                         (tmp_path / "bench.csv").read_text().splitlines())
        rows = {row[0]: dict(zip(header, row)) for row in rows}
        assert [row["errors"] for row in rows.values()] == ["0"] * len(ALGORITHMS)
        assert float(rows["dyn_astar"]["mean_ratio"]) <= 1.0294

    @staticmethod
    def _assert_bench_pins(suite, table_sha256, csv_sha256, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == table_sha256
        assert hashlib.sha256((tmp_path / "bench.txt").read_bytes()).hexdigest() == table_sha256
        assert hashlib.sha256((tmp_path / "bench.csv").read_bytes()).hexdigest() == csv_sha256

    def test_empty_suite_is_usage_error(self, tmp_path, capsys):
        suite = tmp_path / "empty"
        suite.mkdir()
        assert main(["bench", "--suite", str(suite)]) == 2

    def test_rho_below_one_rejected(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        assert main(["bench", "--suite", str(suite), "--rho", "0.5"]) == 2

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        assert main(["bench", "--suite", str(suite), "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


    def test_oracle_pop_budget_fails_its_scenario_cells(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluate, "ORACLE_MAX_POPS", 2)

        def unscored(*args):
            raise AssertionError("a scenario without an oracle was simulated")

        monkeypatch.setattr(evaluate, "run_simulation", unscored)
        doc = json.loads(scenario_doc(**LINE))
        doc["meta"]["name"] = "lone"
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(json.dumps(doc))
        out = str(tmp_path / "bench")
        assert main(["bench", "--suite", str(suite), "--out", out]) == 0
        table = capsys.readouterr().out
        errors = table.split("errors (cells that raised, counted as failures):\n")[1]
        assert errors.splitlines() == [
            f"  {algo}: lone: oracle search for 'v1' exceeded 2 pops" for algo in ALGORITHMS]
        rows = (tmp_path / "bench.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0]: row.split(",")[-1] for row in rows} == dict.fromkeys(
            ALGORITHMS, "1")

    @staticmethod
    def _exit_code(argv, option, value, form, tmp_path):
        """``argv`` run with ``option`` set to ``value`` as a flag or a config key."""
        if form == "flag":  # argparse rejects it and exits
            flag = [f"--{option}"] + ([] if value is True else [str(value)])
            with pytest.raises(SystemExit) as info:
                main(argv + flag)
            return info.value.code
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        return main(argv + ["--config", str(cfg)])

    @pytest.mark.parametrize("option, value", [("seed", 5), ("alpha", 0.5)])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_scenario_overrides_are_not_bench_options(self, option, value, form, tmp_path,
                                                      capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        argv = ["bench", "--suite", str(suite)]
        assert self._exit_code(argv, option, value, form, tmp_path) == 2
        assert option in capsys.readouterr().err

    # plan answers one query on the truth: it neither simulates nor smooths.
    @pytest.mark.parametrize("option, value", [("no-share", True), ("alpha", 0.5)])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_simulation_settings_are_not_plan_options(self, option, value, form, line_scn,
                                                      tmp_path, capsys):
        argv = ["plan", "--scenario", str(line_scn)]
        assert self._exit_code(argv, option, value, form, tmp_path) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "nan"), ("--epoch-s", "nan"), ("--epoch-s", "inf"),
    ])
    def test_non_finite_or_negative_flag_is_usage_error(self, flag, value, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "s1.scn").write_text(scenario_doc(**LINE))
        assert main(["bench", "--suite", str(suite), flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # A dyn_astar vehicle takes each new search's route: no command has a
    # threshold for keeping the route it holds.
    @pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_hysteresis_is_no_option(self, command, form, line_scn, tmp_path, capsys):
        if command == "bench":
            suite = tmp_path / "suite"
            suite.mkdir()
            (suite / "s1.scn").write_text(scenario_doc(**LINE))
            argv = ["bench", "--suite", str(suite)]
        else:
            argv = [command, "--scenario", str(line_scn)]
        assert self._exit_code(argv, "hysteresis", 0.01, form, tmp_path) == 2
        assert "hysteresis" in capsys.readouterr().err


class TestNonFiniteScenario:
    """A non-finite number in a scenario is a bad scenario (exit 3) for every
    command, reported as a message rather than a crash."""

    @pytest.mark.parametrize("literal", ["1e400", "Infinity", "NaN"])
    @pytest.mark.parametrize("command", ["validate", "simulate", "plan"])
    def test_node_comfort_value(self, tmp_path, capsys, command, literal):
        text = scenario_doc(**LINE, events=[
            {"t_s": 30.0, "kind": "set_node_comfort_h", "target": "b", "value": 12345.0},
        ])
        p = tmp_path / "inf.scn"
        p.write_text(text.replace("12345.0", literal))
        argv = [command, str(p)] if command == "validate" else [command, "--scenario", str(p)]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert "must be finite" in out.out + out.err
        assert "Traceback" not in out.out + out.err


def _one_edge_doc(base_time_s, events=(), depart_s=0.0):
    """Vehicle v1 from a to b over the one edge e1."""
    return scenario_doc(
        nodes=[("a", 0.0, 0.0), ("b", 100.0, 0.0)], edges=[("e1", "a", "b", 100.0, base_time_s)],
        events=events,
        queries=[{"vehicle": "v1", "start": "a", "goal": "b", "depart_s": depart_s,
                  "weights": {"wg": 1, "w1": 1, "w2": 0, "w3": 0}, "context": {}}],
    )


class TestEpochBound:
    """An instant too many epochs out for an index, an infinite one too,
    belongs to one last epoch: a document that validates runs to an exit
    code of the contract, not to a traceback."""

    # case: (document, settings, v1's (status, cost, path), simulate's and plan's exit codes)
    CASES = {
        # An event 1e309 epochs out never takes effect.
        "far-event": (
            _one_edge_doc(20.0, [{"t_s": 1e308, "kind": "set_congestion", "target": "e1",
                                  "value": 2.0}]),
            SimConfig(epoch_s=0.1), (ARRIVED, 20.0, ["a", "b"]), 0, 0),
        # A hidden x2 congestion prices e1 at infinity in the truth: v1 never
        # reaches b, and plan, on that truth, finds no route.
        "infinite-price": (
            _one_edge_doc(1e308, [{"t_s": 0.0, "kind": "set_congestion", "target": "e1",
                                   "value": 2.0, "sensed_only": True}]),
            SimConfig(), (STRANDED, 0.0, ["a"]), 5, 4),
        # A departure 1e309 epochs out: v1 never leaves, and the run, with
        # no vehicle to depart before the horizon, steps no epoch.
        "far-departure": (
            _one_edge_doc(20.0, depart_s=1e308),
            SimConfig(epoch_s=0.1), (STRANDED, 0.0, []), 5, 0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_algorithm_runs_replays_and_scores(self, case, tmp_path):
        doc, cfg, outcome, _simulate, _plan = self.CASES[case]
        scn = load_scenario(doc)
        for algo in ALGORITHMS:
            (v,) = run_simulation(scn, cfg, algo).vehicles
            assert (v["status"], v["realized_cost_s"], v["path"]) == outcome
            assert replay_realized_cost(scn, cfg, "v1", v["path"], scn.queries[0].depart_s) \
                == v["realized_cost_s"]
        (tmp_path / "s.scn").write_text(doc)
        report = evaluate.compare_algorithms([tmp_path / "s.scn"], config=cfg)
        assert [row.errors for row in report.rows] == [()] * len(ALGORITHMS)

    @pytest.mark.parametrize("case", CASES)
    def test_exit_codes(self, case, tmp_path, capsys):
        doc, cfg, outcome, simulate, plan = self.CASES[case]
        p = tmp_path / "s.scn"
        p.write_text(doc)
        epoch = ["--epoch-s", repr(cfg.epoch_s)]
        assert main(["plan", "--scenario", str(p), *epoch]) == plan
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--scenario", str(p), *epoch, "--out", prefix]) == simulate
        (v,) = json.loads((tmp_path / "run.trace.json").read_text())["vehicles"]
        assert (v["status"], v["realized_cost_s"], v["path"]) == outcome


class TestFileErrors:
    @pytest.mark.parametrize("command", ["validate", "plan", "simulate", "bench"])
    def test_non_utf8_scenario_is_scenario_error(self, command, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        p = suite / "latin.scn"
        p.write_bytes(scenario_doc(**LINE).encode().replace(b'"name": "t"', b'"name": "\xff\xfe"'))
        argv = {"validate": ["validate", str(p)], "bench": ["bench", "--suite", str(suite)]}.get(
            command, [command, "--scenario", str(p)])
        assert main(argv) == 3
        out = capsys.readouterr()
        assert "can't decode byte 0xff" in out.out + out.err
        assert "Traceback" not in out.out + out.err

    @pytest.mark.parametrize("kind", ["directory", "dangling-link"])
    def test_unreadable_suite_entry_is_usage_error(self, kind, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.scn").write_text(scenario_doc(**LINE))
        bad = suite / "x.scn"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.symlink_to(tmp_path / "gone.scn")
        assert main(["bench", "--suite", str(suite)]) == 2
        out = capsys.readouterr()
        assert f"error: cannot read {bad}" in out.err
        assert "Traceback" not in out.out + out.err

    # The suite file is named whether it was loaded here or in a worker process.
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_suite_entry_is_named(self, jobs, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.scn").write_text(scenario_doc(**LINE))
        bad = suite / "y.scn"
        bad.write_text('{"meta": {}}')
        assert main(["bench", "--suite", str(suite), "--jobs", jobs]) == 3
        out = capsys.readouterr()
        assert f"error: {bad}: document: missing required key 'nodes'" in out.err
        assert "Traceback" not in out.out + out.err

    def test_non_utf8_config_is_usage_error(self, line_scn, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"algo": "\xff"}')
        assert main(["simulate", "--scenario", str(line_scn), "--config", str(cfg)]) == 2
        assert f"bad config file {cfg}" in capsys.readouterr().err

    # --out is checked before any work: no plan, simulation or scoring runs.
    @pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
    def test_out_into_missing_directory_is_usage_error(self, command, line_scn, tmp_path,
                                                       capsys, monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail(f"{command} did work before it checked --out")

        for work in ("TruthTimeline", "run_simulation", "compare_algorithms"):
            monkeypatch.setattr(cli, work, no_work)
        target = tmp_path / "missing" / "x"
        argv = (["bench", "--suite", str(line_scn.parent)] if command == "bench"
                else [command, "--scenario", str(line_scn)])
        assert main(argv + ["--out", str(target)]) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.parent.exists()


class TestValidate:
    def test_ok_and_error_mix(self, line_scn, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("{broken")
        assert main(["validate", str(line_scn)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["validate", *map(str, _COMMITTED)]) == 0  # every committed scenario
        capsys.readouterr()
        assert main(["validate", str(line_scn), str(bad)]) == 3
        out = capsys.readouterr().out
        assert "errors" in out and "bad.scn" in out

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(nodes=5), "'nodes' must be a list"),
        (lambda d: d["heuristics"].update(h2={"a": "abc"}), "'a' must be a number"),
        (lambda d: d["heuristics"].update(h2=[]), "'h2' must be an object"),
        (lambda d: d["queries"][0]["context"].update(prefers_comfort="false"),
         "'prefers_comfort' must be a boolean"),
        (lambda d: d["meta"].update(alpha="0.5"), "'alpha' must be a number"),
        (lambda d: d["queries"][0]["weights"].update(wg="2"), "'wg' must be a number"),
        (lambda d: d.update(events={}), "'events' must be a list"),
        (lambda d: d.update(events=[
            {"t_s": 0.0, "kind": "block_edge", "target": "e1", "value": None}]),
         "'value' must be a number"),
        (lambda d: d.update(events=[
            {"t_s": 0.0, "kind": "set_congestion", "target": "e1", "value": None}]),
         "'value' must be a number"),
        (lambda d: d.update(events=[
            {"t_s": 0.0, "kind": "block_edge", "target": "e1", "sensed_only": None}]),
         "'sensed_only' must be a boolean"),
        (lambda d: d["meta"].update(seed=True), "'seed' must be an integer"),
        (lambda d: d["meta"].update(seed=1.0), "'seed' must be an integer"),
        (lambda d: d["nodes"][1].pop("x"), "nodes[1]: missing required key 'x'"),
        (lambda d: d["queries"][0].pop("vehicle"),
         "queries[0]: missing required key 'vehicle'"),
        (lambda d: d["queries"][0]["weights"].update(w4=1.0),
         "unknown key(s) ['w4'] in queries[0].weights"),
        (lambda d: d["queries"][0]["context"].update(raining=True),
         "unknown key(s) ['raining'] in queries[0].context"),
        # Records the one-step read must hand to the per-key walk, which names the error.
        (lambda d: d["edges"][0].update(length=d["edges"][0].pop("length_m")),
         "unknown key(s) ['length'] in edges[0]"),
        (lambda d: d["nodes"][0].update(x=True), "nodes[0]: 'x' must be a number"),
        (lambda d: d["edges"][2].update(length_m="500"), "edges[2]: 'length_m' must be a number"),
        (lambda d: d["edges"][1].update(lanes=2), "unknown key(s) ['lanes'] in edges[1]"),
    ], ids=["nodes-int", "h2-text", "h2-list", "flag-text", "alpha-text", "wg-text",
            "events-object", "block-value-null", "congestion-value-null",
            "sensed-only-null", "seed-bool", "seed-float", "node-x-missing",
            "query-vehicle-missing", "weights-unknown-key", "context-unknown-key",
            "edge-key-renamed", "node-x-bool", "edge-length-text", "edge-extra-key"])
    def test_mistyped_value_is_a_scenario_error(self, mutate, message, tmp_path, capsys):
        doc = json.loads(scenario_doc(**LINE))
        mutate(doc)
        p = tmp_path / "typed.scn"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 3
        out = capsys.readouterr()
        assert message in out.out
        assert "Traceback" not in out.out + out.err


    def test_duplicate_vehicle_id_is_a_scenario_error(self, tmp_path, capsys):
        # Oracles are keyed by vehicle id, so a second "lead" trip would be
        # scored against the first one's oracle.
        doc = json.loads((SCENARIO_DIR / "sharing_fixture.scn").read_text())
        doc["queries"].append(dict(doc["queries"][1], vehicle="lead"))
        p = tmp_path / "twice.scn"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 3
        assert "queries[2]: vehicle 'lead' already has a query" in capsys.readouterr().out


class TestSmoothingAlpha:
    """One (0, 1] rule, the heuristic field's: out of range (NaN included) is
    a usage error from --alpha and a scenario error from meta.alpha."""

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
    def test_flag_out_of_range_is_usage_error(self, line_scn, alpha, capsys):
        assert main(["simulate", "--scenario", str(line_scn), "--alpha", alpha]) == 2
        assert "must be in (0, 1]" in capsys.readouterr().err

    def test_document_out_of_range_is_scenario_error(self, tmp_path, capsys):
        p = tmp_path / "alpha.scn"
        p.write_text(scenario_doc(**LINE, alpha=0))
        assert main(["validate", str(p)]) == 3
        assert "meta.alpha: smoothing_alpha must be in (0, 1]" in capsys.readouterr().out


_COMMITTED = sorted(SCENARIO_DIR.rglob("*.scn"))
# Values of every JSON type, numbers at and beyond a float's range, and
# strings that look like a number or a flag.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([10**400, -10**400, 1e308, 5e-324, "0.5", "true", [], {}]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=2),
)


def _locations(node):
    """Every (container, key) pair in a JSON document, at any depth."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield node, key
            yield from _locations(child)


@st.composite
def mutated_documents(draw):
    """A committed scenario with one key dropped, one unknown key added or one
    value replaced by another JSON value."""
    doc = json.loads(draw(st.sampled_from(_COMMITTED)).read_text())
    container, key = draw(st.sampled_from(list(_locations(doc))))
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "drop" and isinstance(container, dict):
        del container[key]
    elif op == "add" and isinstance(container, dict):
        container["unexpected"] = draw(_JSON_VALUES)
    else:
        container[key] = draw(_JSON_VALUES)
    return json.dumps(doc)


class TestScenarioFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_documents())
    def test_validate_exits_0_or_3_and_round_trips(self, text, tmp_path, capsys):
        p = tmp_path / "mutated.scn"
        p.write_text(text)
        code = main(["validate", str(p)])
        out = capsys.readouterr()
        assert code in (0, 3), out
        assert "Traceback" not in out.out + out.err
        if code == 0:
            first = serialize_scenario(load_scenario(text))
            assert serialize_scenario(load_scenario(first)) == first


class TestEntryPoints:
    def test_module_invocation(self, line_scn):
        proc = subprocess.run(
            [sys.executable, "-m", "dynroute.cli", "plan", "--scenario", str(line_scn)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "path: a -> b -> c -> d" in proc.stdout

    # The reader has closed the pipe before the command starts, so every write
    # to stdout fails: the command still ends with its own code and no traceback.
    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_closed_stdout_ends_quietly(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dynroute.cli", command,
                 "--scenario", str(SCENARIO_DIR / "grid10_congestion.scn")],
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")

    def test_console_script_installed(self, line_scn):
        proc = subprocess.run(
            ["dynroute", "validate", str(line_scn)], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout

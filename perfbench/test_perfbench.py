"""Tests of the benchmark itself: inputs, counts and the printed metric names."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from perfbench import run

run._import_program()

from dynroute import load_scenario  # noqa: E402
from perfbench import gen  # noqa: E402
from perfbench.tracer import LAYER_UNITS, Probe, Tracer, patched  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _documents(seed: int) -> list[str]:
    return [gen.grid_plan_doc(seed), gen.fleet_doc(seed), *gen.eval_grid20_docs(seed)]


def test_same_seed_gives_byte_identical_documents():
    first, again, other = _documents(3), _documents(3), _documents(4)
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert gen.grid_plan_pairs(3, 1) == gen.grid_plan_pairs(3, 1) != gen.grid_plan_pairs(3, 2)


def test_every_generated_document_loads():
    for text in _documents(5):
        scn = load_scenario(text)
        assert scn.graph.nodes
    fleet = load_scenario(gen.fleet_doc(5))
    assert len(fleet.queries) == 200 and len(fleet.events) == 300


def _traced_counts(name: str, work_dir: Path) -> dict:
    w = WORKLOADS[name](11, work_dir)
    tracer = Tracer()
    with patched(tracer.patches()):
        w.setup()
    probe = Probe()
    with patched(probe.patches()), patched(tracer.patches()):
        w.run_pass(0, probe)
    w.check_pass(0, probe)
    assert w.failed == 0, w.errors
    layers = tracer.layer_metrics()
    return {k: v for k, v in layers.items() if not k.endswith(("ms", "_frac"))}


@pytest.mark.parametrize("name", ["fleet_sim", "suite_bench"])
def test_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    assert first == _traced_counts(name, tmp_path / "b")
    assert first["planners.dyn_astar.calls"] + first["planners.replan.calls"] > 0


def _printed(monkeypatch, tmp_path, trace: int) -> dict:
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "suite_bench", "--seed", "2",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_printed_metrics_match_benchmark_json(monkeypatch, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _printed(monkeypatch, tmp_path, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == {
        name: better for name, (_, better) in run.END_TO_END.items()}
    assert set(LAYER_UNITS) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)

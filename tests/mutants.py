"""Committed mutants: small faults in ``src/dynroute`` and the tests that
must catch each one.

Run from the repository root, after the test suite:

    python3 tests/mutants.py           # every mutant
    python3 tests/mutants.py NAME ...  # only the named ones

For each mutant the runner copies ``src/`` to a temporary directory, replaces
the mutant's old text, which must occur exactly once in its file, with its
new text, and runs only the mutant's tests with ``PYTHONPATH`` set to the
copy. A mutant is caught when those tests fail (pytest exit status 1). The
runner exits 1 if any mutant survives, or if its old text is missing or not
unique, or its tests cannot be run. Code that moves under a mutant must take
the table's entry with it.

The file name keeps pytest from collecting it. See DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/dynroute/
    old: str
    new: str
    tests: tuple[str, ...]


def _rejection(name, file, check, test):
    """The mutant that deletes the rejection ``check``."""
    return Mutant(name, file, check, "", (test,))


_LOAD = "tests/test_graph.py::TestLoadScenario::test_rejection_names_its_fault"
_GRID_LANDMARKS = ("tests/test_landmarks.py::test_mid_size_congested_grids_match_the_reference",)

MUTANTS = (
    _rejection("duplicate-node", "graph.py", """\
            if n.id in self.nodes:
                raise ValidationError(f"duplicate node id {n.id!r}")
""", f"{_LOAD}[duplicate-node]"),
    _rejection("non-finite-coordinates", "graph.py", """\
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise ValidationError(f"node {n.id!r} has non-finite coordinates")
""", f"{_LOAD}[infinite-x]"),
    _rejection("duplicate-edge", "graph.py", """\
            if e.id in self.edges:
                raise ValidationError(f"duplicate edge id {e.id!r}")
""", f"{_LOAD}[duplicate-edge]"),
    _rejection("grid-length-speed", "graph.py", """\
    if edge_length <= 0 or speed <= 0:
        raise ValueError("edge_length and speed must be > 0")
""", "tests/test_graph.py::TestMakeGrid::test_nonpositive_length_or_speed_rejected"),
    _rejection("heuristic-unknown-node", "graph.py", """\
            if nid not in graph.nodes:
                raise ValidationError(f"heuristics.{label} names unknown node {nid!r}")
""", f"{_LOAD}[heuristic-unknown-node]"),
    _rejection("heuristic-value", "graph.py", """\
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"heuristics.{label}[{nid!r}] must be finite >= 0")
""", f"{_LOAD}[heuristic-negative]"),
    _rejection("unknown-event-kind", "graph.py", """\
        if kind not in EVENT_KINDS:
            raise ValidationError(f"events[{i}]: unknown kind {kind!r}")
""", f"{_LOAD}[unknown-event-kind]"),
    _rejection("negative-event-time", "graph.py", """\
        if t < 0:
            raise ValidationError(f"events[{i}]: negative time {t}")
""", f"{_LOAD}[negative-event-time]"),
    _rejection("query-unknown-node", "graph.py", """\
        for endpoint, label in ((start, "start"), (goal, "goal")):
            if endpoint not in graph.nodes:
                raise ValidationError(f"{where}: {label} names unknown node {endpoint!r}")
""", f"{_LOAD}[unknown-goal]"),
    Mutant("malformed-weights", "cli.py", """\
    try:
        wg, w1, w2, w3 = (float(p) for p in parts)
        return HeuristicWeights(wg, w1, w2, w3)
    except ValueError as exc:
        raise CliError(f"bad --weights: {exc}", EXIT_USAGE) from exc
""", """\
    wg, w1, w2, w3 = (float(p) for p in parts)
    return HeuristicWeights(wg, w1, w2, w3)
""", ("tests/test_cli.py::TestPlan::test_malformed_weights_are_a_usage_error",)),
    _rejection("planner-unknown-node", "planners.py", """\
    if i is None:
        raise KeyError(f"unknown node {node!r}")
""", "tests/test_planners.py::TestRejectedInput::test_an_unknown_node_is_a_key_error"),
    _rejection("travel-time-no-edge", "planners.py", """\
    if total is None:
        raise ValueError(f"no unblocked edge along {path!r}")
""", "tests/test_planners.py::TestRejectedInput::"
     "test_path_travel_time_rejects_a_hop_with_no_unblocked_edge"),
    _rejection("replay-no-edge", "simulate.py", """\
        if edge is None:
            raise ValueError(f"replay: no unblocked edge {u!r} -> {v!r} at t={now}")
""", "tests/test_sim.py::TestTruthTimeline::test_replay_rejects_a_path_it_cannot_walk"),
    # A route's g cost charging the start's own penalty.
    Mutant("penalty-counts-start", "planners.py",
           "sum(h2_at[i] + h3_at[i] for i in route[1:])",
           "sum(h2_at[i] + h3_at[i] for i in route)",
           ("tests/test_planners.py::TestWeightedSearch::"
            "test_g_cost_charges_every_node_after_the_start",)),
    # A changed h2 read only by its own node, not by the predecessors that push it.
    Mutant("h2-read-without-predecessors", "simulate.py",
           "nodes, (index.ids[u] for n in nodes for _e, u, _b in index.into[index.pos[n]]))",
           "nodes)",
           ("tests/test_sim.py::TestSearchReuse::"
            "test_a_change_next_to_the_kept_search_makes_it_stale",)),
    # Relaxing an arc that only ties the best g: parents, and so routes, move.
    Mutant("relax-on-equal-g", "planners.py", "            if ng < g_best[v]:",
           "            if ng <= g_best[v]:", _GRID_LANDMARKS),
    # RRT's step toward a sample breaking a distance tie to the higher node.
    Mutant("rrt-step-tie-to-higher-node", "planners.py", "(d == step_d and v < step)",
           "(d == step_d and v > step)", ("tests/test_golden.py",)),
    # The landmark table built with the index rather than by the first search
    # that reads it.
    Mutant("landmark-build-at-load", "graph.py",
           "self._landmark_columns: tuple[tuple[float, ...], ...] | None = None",
           "self._landmark_columns: tuple[tuple[float, ...], ...] | None = _landmark_columns(self)",
           ("tests/test_landmarks.py::test_table_is_built_by_the_first_search_that_reads_it",)),
    # The four landmark term-choice faults: every column's term at each pushed
    # node, the terms chosen at the goal rather than the start, a NaN term
    # ranked above every other, and ties going to the higher column.
    Mutant("landmark-full-bound", "planners.py", """\
                if landmarks:
                    a = ca[v] - ka
                    if a > h:
                        h = a
                    a = cb[v] - kb
                    if a > h:
                        h = a
""", """\
                if landmarks:
                    for c in index.landmark_columns():
                        a = c[v] - c[t]
                        if a > h:
                            h = a
""", _GRID_LANDMARKS),
    Mutant("landmark-terms-at-goal", "planners.py",
           "_active_columns(index.landmark_columns(), s, t)",
           "_active_columns(index.landmark_columns(), t, t)", _GRID_LANDMARKS),
    Mutant("landmark-nan-ranked-highest", "planners.py",
           "rank = [(x == x, x if x == x else 0.0) for x in terms]",
           "rank = [(x != x, x if x == x else 0.0) for x in terms]", _GRID_LANDMARKS),
    Mutant("landmark-ties-to-higher-column", "planners.py",
           "sorted(range(len(columns)), key=rank.__getitem__, reverse=True)",
           "sorted(reversed(range(len(columns))), key=rank.__getitem__, reverse=True)",
           _GRID_LANDMARKS),
)


class MutantError(Exception):
    """A mutant that cannot be applied or whose tests cannot be run."""


def apply(mutant: Mutant, src: Path) -> None:
    """Write ``mutant`` into the package under ``src``, in place."""
    path = src / "dynroute" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise MutantError(f"old text found {count} times in {mutant.file}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))


def caught(mutant: Mutant) -> bool:
    """Whether ``mutant``'s tests fail on a copy of ``src/`` that holds it."""
    with tempfile.TemporaryDirectory(prefix="dynroute-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              *mutant.tests], env=env, cwd=ROOT, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise MutantError(f"pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return run.returncode == 1


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        try:
            verdict = "caught" if caught(mutant) else "SURVIVED"
        except MutantError as exc:
            verdict = f"ERROR {exc}"
        bad += verdict != "caught"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(argv) or len(MUTANTS)} mutants, {bad} not caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

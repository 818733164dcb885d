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
unique, or its tests cannot be run or are still running after ``TIMEOUT_S``
seconds. Code that moves under a mutant must take the table's entry with it.

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

# The longest one mutant's tests may run before the mutant is an error: a
# fault can loop forever, as a route walk does on a cycle of parents.
TIMEOUT_S = 120


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
_COMPONENTS = "tests/test_graph.py::TestComponents::"
_LABELS = (f"{_COMPONENTS}test_pinned_graphs",
           f"{_COMPONENTS}test_labels_match_mutual_reachability")
_ONE_TRUTH = "tests/test_sim.py::TestOneTruthModel::"
_BEFORE_A_BOUNDARY = (f"{_ONE_TRUTH}"
                      "test_an_instant_just_before_a_boundary_is_priced_in_its_own_epoch")
_SCORING = "tests/test_evaluation.py::TestScoring::"
_NO_LEAK = "tests/test_search_index.py::test_no_search_state_leaks_between_searches_on_one_index"
_KEEPS_ROUTE = "tests/test_planners.py::TestReplan::test_keeps_route_when_nothing_changed"
_ORACLE_ORDER = "tests/test_search_index.py::"
_SPUR = f"{_ORACLE_ORDER}test_oracle_skips_a_dead_end_spur_the_landmark_terms_rule_out"
_FEWER_POPS = f"{_ORACLE_ORDER}test_goal_directed_oracle_pops_fewer_labels_than_plain_order"
_EQUAL_REPORT = ("tests/test_heuristics.py::TestIngestObservations::"
                 "test_report_equal_to_the_belief_changes_nothing",)
_REFERENCE = "tests/test_sim.py::TestReferenceSimulator::"
_TRACES = (f"{_REFERENCE}test_committed_scenarios", f"{_REFERENCE}test_generated_documents")
_REUSE = "tests/test_sim.py::TestSearchReuse::"

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
        if edge is None:
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
           "(ids[i] for i in h2), (ids[u] for i in h2 for _e, u, _b in index.into[i]))",
           "(ids[i] for i in h2))",
           (*_TRACES, f"{_REUSE}test_a_change_next_to_the_kept_search_makes_it_stale")),
    # Every written target dirty, whether or not its value differs.
    Mutant("dirty-without-comparing-values", "simulate.py", """\
                h2 = [i for i in map(index.pos.__getitem__, nodes) if new.h2_at[i] != old.h2_at[i]]
                self._dirty = {ids[i] for i in tails if new.arcs[i] != old.arcs[i]}.union(
""", """\
                h2 = list(map(index.pos.__getitem__, nodes))
                self._dirty = {ids[i] for i in tails}.union(
""", (f"{_REUSE}test_a_write_that_changes_no_read_value_forces_no_search",
       f"{_REUSE}test_searches_again_only_when_the_last_event_moves_a_read_value")),
    # Relaxing an arc that only ties the best g: parents, and so routes, move.
    Mutant("relax-on-equal-g", "planners.py", "            if ng < g_best[v]:",
           "            if ng <= g_best[v]:", _GRID_LANDMARKS),
    # RRT's step toward a sample breaking a distance tie to the higher node.
    Mutant("rrt-step-tie-to-higher-node", "planners.py", "(d == step_d and v < step)",
           "(d == step_d and v > step)", ("tests/test_golden.py",)),
    # RRT's nearest tree node to a sample breaking a distance tie to the higher node.
    Mutant("rrt-nearest-tie-to-higher-node", "planners.py", "(d == best_d and i < current)",
           "(d == best_d and i > current)",
           ("tests/test_planners.py::TestRrt::test_a_nearest_node_tie_goes_to_the_lower_index",)),
    # The search's tie-break on equal priority scaled by w1, which UCS sets to 0.
    Mutant("ucs-tie-break-zeroed", "planners.py", "w3 * h3_at[v], h, v))",
           "w3 * h3_at[v], w1 * h, v))",
           ("tests/test_golden.py",
            "tests/test_planners.py::TestUcsReduction::test_zero_heuristic_weights_reduce_to_ucs")),
    # Component labelling's second walk along out-edges, or from its roots in
    # finish order rather than reversed, and the loader refusing every goal
    # outside its start's component without the walk that may still reach it.
    Mutant("components-second-walk-along-out", "graph.py", "_finished(index.into, root, seen)",
           "_finished(index.out, root, seen)", _LABELS),
    Mutant("components-roots-in-finish-order", "graph.py", "for root in reversed(finish):",
           "for root in finish:", _LABELS),
    Mutant("load-without-cross-component-walk", "graph.py",
           " and g not in _finished(index.out, s, bytearray(len(labels)))", "",
           (f"{_COMPONENTS}test_pinned_graphs",
            f"{_COMPONENTS}test_load_agrees_with_a_search_per_query",
            f"{_COMPONENTS}test_long_one_way_chain_needs_no_recursion")),
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
    # A search putting its state back with the g of its queued or of its
    # expanded nodes left as written, or reading a route's start's parent
    # from the search before. The last sends most tests' route walks round
    # a cycle of parents for good, so it names one that fails without one.
    Mutant("state-reset-skips-queued", "planners.py", """\
    for _f, _h, v in open_heap:
        g_best[v] = _INF
""", "", (*_GRID_LANDMARKS, _NO_LEAK)),
    Mutant("state-reset-skips-expanded", "planners.py", """\
    for u in order:
        g_best[u] = _INF
""", "", (_KEEPS_ROUTE, *_GRID_LANDMARKS, _NO_LEAK)),
    Mutant("start-parent-not-reset", "planners.py", "    parent[s] = -1\n", "", (_KEEPS_ROUTE,)),
    # The one clock: an event at an epoch boundary applied an epoch late, and
    # an instant a rounding error short of a boundary belonging to the epoch
    # before it.
    Mutant("event-epoch-tolerance-flipped", "simulate.py", "_LAST_EPOCH) - 1e-12))",
           "_LAST_EPOCH) + 1e-12))",
           ("tests/test_sim.py::TestTruthTimeline::test_boundary_event_is_immediate",
            f"{_ONE_TRUTH}test_boundary_arrival_pays_the_later_epochs_penalty")),
    Mutant("epoch-of-tolerance-dropped", "simulate.py",
           "min(time / self.epoch_s, _LAST_EPOCH) + 1e-12))",
           "min(time / self.epoch_s, _LAST_EPOCH)))", (_BEFORE_A_BOUNDARY,)),
    # A vehicle entering its next edge in the epoch being stepped, not in the
    # later one its arrival belongs to.
    Mutant("entry-in-the-arrival-epoch", "simulate.py", """\
            if reached != k:
                return  # it enters its next edge in the epoch it reached this node
""", "", (_BEFORE_A_BOUNDARY, *_TRACES)),
    # A run stepping an epoch for a vehicle that departs at the horizon.
    Mutant("departure-at-the-horizon-steps", "simulate.py",
           "departures[0].depart_epoch < epochs)", "departures[0].depart_epoch <= epochs)",
           ("tests/test_sim.py::TestReplanningAdvantage::"
            "test_run_ends_when_no_vehicle_en_route_departs_before_the_horizon",)),
    # The simulator's bookkeeping, checked by comparing whole traces with the
    # reference simulator's (and, where no committed scenario shows a fault,
    # by a hand-written case too): the targets ingest changed left out of the
    # snapshot's patch, the snapshot never retaken, a route handed on
    # whatever changed, an edge change read by no node, a dyn_astar vehicle
    # planning only as it departs, a vehicle planning and moving after it
    # finished, sensed-only events reaching the belief, and the read set of
    # the first search kept for good. A patch never emptied changes no trace,
    # since rows rebuilt with the values they held differ nowhere; it only
    # retakes the snapshot in every epoch, which a count of snapshots shows.
    Mutant("ingest-edges-left-out-of-the-patch", "simulate.py",
           "            self._stale_edges |= edges\n", "", _TRACES),
    Mutant("ingest-nodes-left-out-of-the-patch", "simulate.py",
           "            self._stale_nodes |= nodes\n", "",
           (*_TRACES, "tests/test_sim.py::TestObservationSharing::"
            "test_sharing_reaches_a_hidden_node_penalty")),
    Mutant("patch-never-emptied", "simulate.py", """\
            edges.clear()
            nodes.clear()
""", "", ("tests/test_sim.py::TestLazySnapshot::"
          "test_dyn_astar_reuses_the_snapshot_while_the_belief_is_unchanged",)),
    Mutant("snapshot-never-retaken", "simulate.py", "if old is None or edges or nodes:",
           "if old is None:", _TRACES),
    Mutant("hand-on-ignores-dirty", "simulate.py",
           "keep = v.reads is not None and v.reads.isdisjoint(self._dirty)",
           "keep = v.reads is not None", _TRACES),
    Mutant("edge-change-read-by-no-node", "simulate.py",
           "{ids[i] for i in tails if new.arcs[i] != old.arcs[i]}.union(", "set().union(",
           _TRACES),
    Mutant("dyn-astar-plans-only-at-join", "simulate.py",
           'planning = moving if self.algorithm == "dyn_astar" else joined',
           "planning = joined", _TRACES),
    Mutant("finished-vehicles-keep-moving", "simulate.py",
           "self._moving = [v for v in moving if v.status == EN_ROUTE]",
           "self._moving = moving", _TRACES),
    Mutant("sensed-only-events-broadcast", "simulate.py",
           "broadcast = [ev for ev in applied if not ev.sensed_only]",
           "broadcast = list(applied)", _TRACES),
    Mutant("reads-of-the-first-search-kept", "simulate.py",
           "            if not keep:  # a search ran in this call\n",
           "            if v.reads is None:\n",
           (*_TRACES, f"{_REUSE}test_a_change_on_a_node_the_search_never_expanded_is_not_read")),
    # Vehicles moving, and so drawing their report noise, in the order they
    # joined rather than by id.
    Mutant("moving-in-join-order", "simulate.py",
           'bisect.insort(moving, v, key=attrgetter("id"))', "moving.append(v)",
           ("tests/test_sim.py::TestReportNoise::"
            "test_reports_draw_their_noise_in_vehicle_id_order",)),
    # A report equal to the belief fused anyway, where the average may drift
    # an ulp: in the fusing rule, and in the belief-price guard before it.
    Mutant("fused-without-the-equal-report-shortcut", "heuristics.py", """\
    if reported == old:
        return old
""", "", _EQUAL_REPORT),
    Mutant("ingest-fuses-the-belief-price", "heuristics.py",
           "        if obs.observed_travel_time != base * old:", "        if True:",
           _EQUAL_REPORT),
    # A snapshot whose arcs keep the blocked edges.
    Mutant("snapshot-keeps-blocked-arcs", "graph.py",
           "for eid, v, t in index.out[i] if eid not in blocked])",
           "for eid, v, t in index.out[i]])",
           ("tests/test_search_index.py::test_index_is_built_from_the_edge_records",)),
    # The oracle pricing every arrival's penalty from the first truth state.
    Mutant("oracle-penalties-from-the-first-state", "evaluate.py", "            if v in varying:",
           "            if False:",
           ("tests/test_golden.py::test_committed_scenarios_match_the_routes_digest",
            f"{_ONE_TRUTH}test_boundary_arrival_pays_the_later_epochs_penalty")),
    # The oracle's labels ordered by cost alone, with the landmark bound read
    # and then left out of every key; and the bound taken from one node above
    # the planners' threshold, not from it on.
    Mutant("oracle-bound-zeroed", "evaluate.py",
           "heapq.heappush(heap, (ncost + h, ncost, ntime,",
           "heapq.heappush(heap, (ncost + 0.0, ncost, ntime,", (_SPUR, _FEWER_POPS)),
    Mutant("oracle-threshold-exclusive", "evaluate.py",
           "bounded = len(ids) >= planners.LANDMARK_MIN_NODES",
           "bounded = len(ids) > planners.LANDMARK_MIN_NODES",
           ("tests/test_landmarks.py::"
            "test_the_oracle_reads_the_table_from_the_planners_threshold_on",)),
    # The scored cell: the oracle cost divided by unrounded, a vehicle that
    # did not arrive passing its scenario, and a trip over rho times the
    # optimum by less than the tolerance failing.
    Mutant("oracle-cost-unrounded", "evaluate.py",
           'round(oracles[v["vehicle"]].optimal_realized_cost, 9)',
           'oracles[v["vehicle"]].optimal_realized_cost',
           (f"{_SCORING}test_a_trip_that_pays_the_oracle_cost_scores_exactly_one",
            f"{_SCORING}test_an_optimum_that_rounds_to_zero_is_not_divided_by")),
    Mutant("unarrived-vehicle-ignored", "evaluate.py", """\
        if v["status"] != ARRIVED:
            correct = False
            continue
""", """\
        if v["status"] != ARRIVED:
            continue
""", (f"{_SCORING}test_stranding_counts_and_fails",)),
    Mutant("pass-bound-without-tolerance", "evaluate.py", "if ratio > rho + _EPS:",
           "if ratio > rho:", (f"{_SCORING}test_a_trip_passes_up_to_rho_times_the_optimum",)),
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
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *mutant.tests]
        try:
            run = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise MutantError(f"tests still running after {TIMEOUT_S} s: they hang "
                              "on this mutant") from exc
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

"""Offline-optimal oracle and suite-level algorithm comparison.

The oracle computes the cheapest achievable journey under full foreknowledge
of all scenario events, on a time-expanded view of the graph. It reads the
simulator's own :class:`~dynroute.simulate.TruthTimeline`: an edge costs what
the truth charges at entry, and a node's penalty is the truth's at the
arrival instant. That is exactly the cost model the simulator charges. It is
not yet a lower bound on every simulated realized cost: its dominance pruning
assumes that arriving earlier never costs more later, which fails when
congestion drops, because a vehicle cannot wait (``TestOracle`` pins a case).

The search is A* on the time-expanded graph (Hart, Nilsson & Raphael, IEEE
TSSC 1968), bounded by the planners' landmark terms (Goldberg & Harrelson,
SODA 2005). They are free-flow times with blocked edges included, truth
congestion is at least 1 and penalties at least 0, so they are admissible
and consistent for the oracle's cost, and wherever costs are FIFO the first
goal label popped is the cheapest. No straight-line term joins them: the
loader lets an edge be shorter than the distance between its endpoints, so
that term can overestimate.

:func:`evaluate_scenario` builds the timeline once per scenario and hands the
same object to every oracle query and every simulation of that scenario; its
states are immutable snapshots, so sharing is safe. The oracle searches on
the truth states' planning view, keyed by the graph's integer
:class:`~dynroute.graph.SearchIndex`: labels hold node indices and each
state's unblocked out-edges are walked in ascending edge-id order, so label
order, and with it every tie-break, is that of the id-keyed search it
replaced.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path

from . import planners
from .graph import Query, Scenario, ScenarioError, load_scenario
from .simulate import (
    ALGORITHMS,
    ARRIVED,
    STRANDED,
    SimConfig,
    TruthTimeline,
    run_simulation,
)

ORACLE_MAX_POPS = 2_000_000

RHO = 1.15  # default pass threshold: arrive within RHO x the oracle's cost

_EPS = 1e-9


class OracleBoundsError(Exception):
    """An oracle search popped more than ``ORACLE_MAX_POPS`` labels."""


@dataclass(frozen=True)
class OracleResult:
    vehicle: str
    optimal_realized_cost: float
    optimal_path: tuple[str, ...]


def offline_optimal(
    scenario: Scenario, query: Query, truth: TruthTimeline | None = None
) -> OracleResult:
    """Minimum realized cost with full event foreknowledge.

    Label-setting A* over (node, time) states with dominance pruning: a label
    is dropped iff an existing label at the same node is no later and no more
    expensive. Each new label makes one pass over its node's frontier bucket,
    which stops at the first label that dominates it; only if none does is
    the label kept, appended after the bucket's labels that it does not
    dominate (the bucket is rebuilt only if it dominates one).

    Labels pop by cost plus ``h(v)``, then cost, then time, so
    ``ORACLE_MAX_POPS`` counts goal-directed pops. On a graph of at least
    ``planners.LANDMARK_MIN_NODES`` nodes ``h(v)`` is the largest of 0 and
    the two landmark terms ``c[v] - c[goal]`` that ``dyn_a_star`` reads
    (``planners._active_columns``); below that it is 0 and no table is built.
    A NaN term is skipped; an infinite one, a proof that ``v`` cannot reach
    the goal, puts its labels after every finite key.
    ``truth`` is the scenario's ground truth; ``None`` builds it with
    ``SimConfig``'s default epochs.
    """
    if truth is None:
        truth = TruthTimeline(scenario, SimConfig.epoch_s)
    index = scenario.graph.index
    ids = index.ids
    start, goal = index.pos[query.start], index.pos[query.goal]
    # Only the timeline's varying nodes have an arrival penalty that differs
    # between its states; every other node's is priced once, from the first
    # state, not looked up per relaxed edge.
    first = truth.at_epoch(0)
    penalty = [h2 + h3 for h2, h3 in zip(first.h2_at, first.h3_at)]
    varying = {index.pos[nid] for nid in truth.varying_nodes}
    bounded = len(ids) >= planners.LANDMARK_MIN_NODES
    if bounded:
        ca, cb = planners._active_columns(index.landmark_columns(), start, goal)
        ka, kb = ca[goal], cb[goal]

    # labels[i] = (node index, parent label index); its cost and time are in its heap entry
    labels: list[tuple[int, int]] = [(start, -1)]
    # frontier[u]: the (time, cost) of every undominated label at node u
    frontier: list[list[tuple[float, float]]] = [[] for _ in ids]
    frontier[start].append((query.depart_s, 0.0))
    # (cost + h, cost, time, label index); the start's key is never compared
    heap: list[tuple[float, float, float, int]] = [(0.0, 0.0, query.depart_s, 0)]

    pops = 0
    while heap:
        _key, cost, time, idx = heapq.heappop(heap)
        u = labels[idx][0]
        pops += 1
        if pops > ORACLE_MAX_POPS:
            raise OracleBoundsError(
                f"oracle search for {query.vehicle!r} exceeded {ORACLE_MAX_POPS} pops"
            )
        if u == goal:
            path = []
            while idx != -1:
                u, idx = labels[idx]
                path.append(ids[u])
            path.reverse()
            return OracleResult(query.vehicle, cost, tuple(path))
        for _eid, v, eff in truth.at_time(time).arcs[u]:
            ntime = time + eff
            if v in varying:
                state = truth.at_time(ntime)
                pen = state.h2_at[v] + state.h3_at[v]
            else:
                pen = penalty[v]
            ncost = cost + eff + pen
            bucket = frontier[v]
            evicts = False
            for t, c in bucket:
                if t <= ntime and c <= ncost:
                    break
                if ntime <= t and ncost <= c:
                    evicts = True
            else:
                if evicts:
                    bucket[:] = [(t, c) for t, c in bucket if not (ntime <= t and ncost <= c)]
                bucket.append((ntime, ncost))
                labels.append((v, idx))
                h = 0.0
                if bounded:  # a NaN term fails the > test and is skipped
                    a = ca[v] - ka
                    if a > h:
                        h = a
                    a = cb[v] - kb
                    if a > h:
                        h = a
                heapq.heappush(heap, (ncost + h, ncost, ntime, len(labels) - 1))
    return OracleResult(query.vehicle, math.inf, ())


@dataclass(frozen=True)
class AlgorithmScore:
    algorithm: str
    score: float
    passes: int
    total: int
    mean_cost_ratio: float
    strandings: int
    mean_expanded: float
    errors: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoreReport:
    rho: float
    total_scenarios: int
    rows: tuple[AlgorithmScore, ...]


def _scored_cell(trace, oracles: dict[str, OracleResult], rho: float) -> dict:
    """One algorithm's result cell on one scenario, from its trace. The
    scenario counts correct iff every queried vehicle arrived within rho
    times its oracle cost; the cell also lists each arrival's cost ratio,
    the strandings and each vehicle's expansions.

    A ratio compares both costs at the trace's 9 decimals: the oracle cost is
    rounded as ``Simulation._trace`` rounds ``realized_cost_s``, so a trip
    that pays exactly the oracle cost reads 1.0, and an optimum that rounds
    to 0 is never divided by."""
    ratios = []
    strandings = 0
    correct = True
    for v in trace.vehicles:
        if v["status"] == STRANDED:
            strandings += 1
        if v["status"] != ARRIVED:
            correct = False
            continue
        opt = round(oracles[v["vehicle"]].optimal_realized_cost, 9)
        if not math.isfinite(opt) or opt <= 0:
            ratio = 1.0 if v["realized_cost_s"] <= _EPS else math.inf
        else:
            ratio = v["realized_cost_s"] / opt
        ratios.append(ratio)
        if ratio > rho + _EPS:
            correct = False
    return {"correct": correct, "ratios": ratios, "strandings": strandings,
            "expanded": [v["expanded"] for v in trace.vehicles], "error": None}


def _failed_cell(scenario: Scenario, exc: Exception) -> dict:
    error = f"{scenario.name}: {exc}"
    return {"correct": False, "ratios": [], "strandings": 0, "expanded": [], "error": error}


def evaluate_scenario(
    scenario: Scenario,
    rho: float = RHO,
    config: SimConfig | None = None,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> dict[str, dict]:
    """Run every algorithm on one scenario; one result cell per algorithm.

    A cell that raises is failed with the error. If the truth timeline or an
    oracle query raises, no cell can be scored: every cell fails with that
    error and no simulation runs.
    """
    config = config or SimConfig()
    try:
        truth = TruthTimeline(scenario, config.epoch_s)
        oracles = {q.vehicle: offline_optimal(scenario, q, truth) for q in scenario.queries}
    except Exception as exc:
        return {algo: _failed_cell(scenario, exc) for algo in algorithms}
    cells: dict[str, dict] = {}
    for algo in algorithms:
        try:
            cells[algo] = _scored_cell(run_simulation(scenario, config, algo, truth), oracles, rho)
        except Exception as exc:  # a cell that raises fails alone
            cells[algo] = _failed_cell(scenario, exc)
    return cells


def _evaluate_path(args: tuple[str, float, SimConfig, tuple[str, ...]]) -> dict[str, dict]:
    path, rho, config, algorithms = args
    try:
        scenario = load_scenario(Path(path).read_bytes())
    except ScenarioError as exc:  # name the file here: a worker's error reaches bench without it
        raise type(exc)(f"{path}: {exc}") from None
    return evaluate_scenario(scenario, rho, config, algorithms)


def _aggregate(algorithm: str, cells: list[dict]) -> AlgorithmScore:
    passes = sum(1 for c in cells if c["correct"])
    total = len(cells)
    ratios = [r for c in cells for r in c["ratios"] if math.isfinite(r)]
    expanded = [e for c in cells for e in c["expanded"]]
    errors = tuple(c["error"] for c in cells if c["error"])
    return AlgorithmScore(
        algorithm=algorithm,
        score=passes / total if total else 0.0,
        passes=passes,
        total=total,
        mean_cost_ratio=sum(ratios) / len(ratios) if ratios else math.inf,
        strandings=sum(c["strandings"] for c in cells),
        mean_expanded=sum(expanded) / len(expanded) if expanded else 0.0,
        errors=errors,
    )


def compare_algorithms(
    scenario_paths: list[Path],
    rho: float = RHO,
    config: SimConfig | None = None,
    jobs: int = 1,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> ScoreReport:
    """Run every scenario under every algorithm and assemble the score table."""
    config = config or SimConfig()
    paths = sorted(str(p) for p in scenario_paths)
    args = [(p, rho, config, algorithms) for p in paths]
    workers = min(jobs, len(paths))  # a pool may start every worker at its first task
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import takes ~2.5 MB of RSS
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_cells = list(pool.map(_evaluate_path, args))
    else:
        all_cells = [_evaluate_path(a) for a in args]
    rows = tuple(
        _aggregate(algo, [cells[algo] for cells in all_cells]) for algo in algorithms
    )
    return ScoreReport(rho=rho, total_scenarios=len(paths), rows=rows)


def report_csv(report: ScoreReport) -> str:
    lines = ["algorithm,score,mean_ratio,strandings,mean_expanded,errors"]
    for row in report.rows:
        lines.append(
            f"{row.algorithm},{row.score:.4f},{row.mean_cost_ratio:.4f},"
            f"{row.strandings},{row.mean_expanded:.1f},{len(row.errors)}"
        )
    return "\n".join(lines) + "\n"


def report_table(report: ScoreReport) -> str:
    header = (
        f"Algorithm comparison over {report.total_scenarios} scenarios "
        f"(pass = arrived within {report.rho:g} x offline optimum)\n"
    )
    columns = (("algorithm", 12), ("score (pass/total)", 18), ("mean ratio", 12),
               ("strandings", 12), ("mean expanded", 14))
    grid = [[title for title, _ in columns], ["-" * width for _, width in columns]]
    grid += [[row.algorithm, f"{row.score:.2f} ({row.passes}/{row.total})",
              f"{row.mean_cost_ratio:.3f}", str(row.strandings), f"{row.mean_expanded:.1f}"]
             for row in report.rows]
    lines = [header]
    for cells in grid:
        lines.append("  ".join(text.ljust(width) for text, (_, width) in zip(cells, columns)))
    errors = [f"  {row.algorithm}: {err}" for row in report.rows for err in row.errors]
    if errors:
        lines += ["", "errors (cells that raised, counted as failures):", *errors]
    return "\n".join(lines) + "\n"

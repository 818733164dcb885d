"""Offline-optimal oracle and suite-level algorithm comparison.

The oracle computes the cheapest achievable journey under full foreknowledge
of all scenario events, on a time-expanded view of the graph. It reads the
simulator's own :class:`~dynroute.simulate.TruthTimeline`: an edge costs what
the truth charges at entry, and a node's penalty is the truth's at the
arrival instant. That is exactly the cost model the simulator charges, so
every simulated realized cost is bounded below by the oracle.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .graph import Query, Scenario, load_scenario
from .simulate import (
    ALGORITHMS,
    ARRIVED,
    STRANDED,
    SimConfig,
    TruthTimeline,
    run_simulation,
)

ORACLE_MAX_NODES = 400
ORACLE_MAX_EVENTS = 64

_EPS = 1e-9


class OracleBoundsError(Exception):
    """Scenario exceeds the scale the oracle is willing to solve exactly."""


@dataclass(frozen=True)
class OracleResult:
    vehicle: str
    optimal_realized_cost: float
    optimal_path: tuple[str, ...]


def offline_optimal(scenario: Scenario, query: Query, epoch_s: float = 30.0) -> OracleResult:
    """Minimum realized cost with full event foreknowledge.

    Label-setting uniform-cost search over (node, time) states with dominance
    pruning: a label is dropped iff an existing label at the same node is no
    later and no more expensive.
    """
    if len(scenario.graph.nodes) > ORACLE_MAX_NODES:
        raise OracleBoundsError(
            f"{len(scenario.graph.nodes)} nodes exceeds oracle bound {ORACLE_MAX_NODES}"
        )
    if len(scenario.events) > ORACLE_MAX_EVENTS:
        raise OracleBoundsError(
            f"{len(scenario.events)} events exceeds oracle bound {ORACLE_MAX_EVENTS}"
        )
    timeline = TruthTimeline(scenario, epoch_s)

    # labels[i] = (cost, time, node, parent_label_index)
    labels: list[tuple[float, float, str, int]] = [(0.0, query.depart_s, query.start, -1)]
    frontier: dict[str, list[tuple[float, float]]] = {query.start: [(query.depart_s, 0.0)]}
    heap: list[tuple[float, float, int]] = [(0.0, query.depart_s, 0)]
    max_pops = 2_000_000

    def dominated(node: str, time: float, cost: float) -> bool:
        return any(
            t <= time + _EPS and c <= cost + _EPS
            for t, c in frontier.get(node, ())
        )

    pops = 0
    while heap:
        cost, time, idx = heapq.heappop(heap)
        _, _, node, _ = labels[idx]
        pops += 1
        if pops > max_pops:
            raise RuntimeError("oracle search exceeded its pop budget")
        if node == query.goal:
            path = []
            while idx != -1:
                path.append(labels[idx][2])
                idx = labels[idx][3]
            path.reverse()
            return OracleResult(query.vehicle, cost, tuple(path))
        snap = timeline.at_time(time)
        for eid in snap.adjacency[node]:
            if eid in snap.blocked:
                continue
            e = snap.edges[eid]
            eff = e.base_time_s * snap.congestion[eid]
            ntime = time + eff
            ncost = cost + eff + timeline.at_time(ntime).node_penalty(e.to_node)
            succ = e.to_node
            if dominated(succ, ntime, ncost):
                continue
            bucket = frontier.setdefault(succ, [])
            bucket[:] = [
                (t, c) for t, c in bucket if not (ntime <= t + _EPS and ncost <= c + _EPS)
            ]
            bucket.append((ntime, ncost))
            labels.append((ncost, ntime, succ, idx))
            heapq.heappush(heap, (ncost, ntime, len(labels) - 1))
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


def _scenario_correct(trace, oracles: dict[str, OracleResult], rho: float) -> tuple[bool, list[float], int]:
    """A scenario counts correct iff every queried vehicle arrived within
    rho times its oracle cost. Returns (correct, cost ratios, strandings)."""
    ratios = []
    strandings = 0
    correct = True
    for v in trace.vehicles:
        oracle = oracles[v["vehicle"]]
        if v["status"] == STRANDED:
            strandings += 1
        if v["status"] != ARRIVED:
            correct = False
            continue
        opt = oracle.optimal_realized_cost
        if not math.isfinite(opt) or opt <= 0:
            ratio = 1.0 if v["realized_cost_s"] <= _EPS else math.inf
        else:
            ratio = v["realized_cost_s"] / opt
        ratios.append(ratio)
        if ratio > rho + _EPS:
            correct = False
    return correct, ratios, strandings


def evaluate_scenario(
    scenario: Scenario,
    rho: float = 1.15,
    config: SimConfig | None = None,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> dict[str, dict]:
    """Run every algorithm on one scenario; one result cell per algorithm."""
    config = config or SimConfig()
    oracles = {
        q.vehicle: offline_optimal(scenario, q, config.epoch_s)
        for q in scenario.queries
    }
    cells: dict[str, dict] = {}
    for algo in algorithms:
        try:
            trace = run_simulation(scenario, config, algo)
            correct, ratios, strandings = _scenario_correct(trace, oracles, rho)
            cells[algo] = {
                "correct": correct,
                "ratios": ratios,
                "strandings": strandings,
                "expanded": [v["expanded"] for v in trace.vehicles],
                "error": None,
            }
        except Exception as exc:  # pragma: no cover - per-cell fault isolation
            cells[algo] = {
                "correct": False,
                "ratios": [],
                "strandings": 0,
                "expanded": [],
                "error": f"{scenario.name}: {exc}",
            }
    return cells


def _evaluate_path(args: tuple[str, float, SimConfig, tuple[str, ...]]) -> dict[str, dict]:
    path, rho, config, algorithms = args
    scenario = load_scenario(Path(path).read_text())
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
    rho: float = 1.15,
    config: SimConfig | None = None,
    jobs: int = 1,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> ScoreReport:
    """Run every scenario under every algorithm and assemble the score table."""
    config = config or SimConfig()
    paths = sorted(str(p) for p in scenario_paths)
    args = [(p, rho, config, algorithms) for p in paths]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_cells = list(pool.map(_evaluate_path, args))
    else:
        all_cells = [_evaluate_path(a) for a in args]
    rows = tuple(
        _aggregate(algo, [cells[algo] for cells in all_cells]) for algo in algorithms
    )
    return ScoreReport(rho=rho, total_scenarios=len(paths), rows=rows)


def report_csv(report: ScoreReport) -> str:
    lines = ["algorithm,score,mean_ratio,strandings,mean_expanded"]
    for row in report.rows:
        lines.append(
            f"{row.algorithm},{row.score:.4f},{row.mean_cost_ratio:.4f},"
            f"{row.strandings},{row.mean_expanded:.1f}"
        )
    return "\n".join(lines) + "\n"


def report_table(report: ScoreReport) -> str:
    header = (
        f"Algorithm comparison over {report.total_scenarios} scenarios "
        f"(pass = arrived within {report.rho:g} x offline optimum)\n"
    )
    widths = (12, 18, 12, 12, 14)
    cols = ("algorithm", "score (pass/total)", "mean ratio", "strandings", "mean expanded")
    sep = "  "
    lines = [header, sep.join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append(sep.join("-" * w for w in widths))
    for row in report.rows:
        lines.append(
            sep.join(
                (
                    row.algorithm.ljust(widths[0]),
                    f"{row.score:.2f} ({row.passes}/{row.total})".ljust(widths[1]),
                    f"{row.mean_cost_ratio:.3f}".ljust(widths[2]),
                    str(row.strandings).ljust(widths[3]),
                    f"{row.mean_expanded:.1f}".ljust(widths[4]),
                )
            )
        )
    return "\n".join(lines) + "\n"

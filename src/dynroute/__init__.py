"""Dynamic-heuristic route planning and fleet simulation on time-varying road graphs."""

from .graph import (
    EdgeRecord,
    Event,
    NodeRecord,
    Query,
    GraphSnapshot,
    ParseError,
    RoadGraph,
    Scenario,
    ScenarioError,
    SearchIndex,
    ValidationError,
    apply_event,
    load_scenario,
    make_grid,
    serialize_scenario,
    snapshot,
)
from .heuristics import (
    HeuristicField,
    HeuristicWeights,
    Observation,
    adapt_weights,
    ingest_observations,
)
from .planners import (
    FOUND,
    UNREACHABLE,
    PlanResult,
    SearchParams,
    dijkstra_ucs,
    dyn_a_star,
    greedy_best_first,
    replan,
    rrt_plan,
    static_a_star,
    validate_path,
)
from .simulate import (
    ALGORITHMS,
    ARRIVED,
    EN_ROUTE,
    STRANDED,
    SimConfig,
    Simulation,
    SimulationTrace,
    run_simulation,
)
from .evaluate import (
    OracleBoundsError,
    OracleResult,
    ScoreReport,
    compare_algorithms,
    offline_optimal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Per-node heuristic values, their weights, and observation fusion.

Three heuristic channels feed the search:

* h1 -- remaining travel time, straight-line distance over the network's
  free-flow top speed (admissible and consistent), raised on larger graphs
  to a landmark bound (see :mod:`dynroute.planners`);
* h2 -- comfort, a per-node seconds-equivalent penalty updated at runtime
  from events and from shared observations, each of which reports the h2 the
  truth charged the reporter at the edge's head;
* h3 -- safety, fixed at load time and never written afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping


@dataclass
class HeuristicField:
    """Mutable comfort values plus write-protected safety values."""

    h2_by_node: dict[str, float] = field(default_factory=dict)
    h3_by_node: Mapping[str, float] = field(default_factory=dict)
    smoothing_alpha: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 < self.smoothing_alpha <= 1.0):
            raise ValueError(f"smoothing_alpha must be in (0, 1], got {self.smoothing_alpha}")
        # Safety values are sealed behind a read-only view; nothing in this
        # codebase can assign through it.
        self.h3_by_node = MappingProxyType(dict(self.h3_by_node))

    def copy(self) -> "HeuristicField":
        return replace(self, h2_by_node=dict(self.h2_by_node))


@dataclass(frozen=True)
class HeuristicWeights:
    """Coefficients applied to g and each heuristic channel."""

    w_g: float = 1.0
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("w_g", "w1", "w2", "w3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.w_g <= 0:
            raise ValueError("w_g must be > 0 (path cost must count)")


@dataclass(slots=True)
class Observation:
    """One vehicle's experienced traversal of one edge: the travel time and,
    as ``observed_comfort``, the head's h2 that the truth charged it, each
    plus any report noise, unclipped. Slotted rather than frozen, since one is
    built per traversal and nothing assigns to one after."""

    edge_id: str
    observed_travel_time: float
    observed_comfort: float
    reporter: str
    at_time: float


def _fused(old: float, reported: float, least: float, alpha: float) -> float:
    """``old`` moved toward ``reported`` by ``alpha``, at least ``least``; a
    report equal to it changes nothing, where the average could drift an ulp."""
    if reported == old:
        return old
    new = (1 - alpha) * old + alpha * reported
    return new if new > least else least  # a comparison costs less than max()


def ingest_observations(
    graph, field: HeuristicField, batch: list[Observation]
) -> tuple[set[str], set[str]]:
    """Fuse shared traversal observations into edge congestion and the
    comfort heuristic (h2) of each edge's head node.

    Both follow one rule, :func:`_fused`: an exponential moving average with
    the field's alpha, clipped at free flow (congestion 1.0) and at h2 0; a
    time is fused as its ratio to the edge's base time, and a time equal to
    the base time times the belief's congestion changes nothing. Processing
    order is (at_time, edge_id, reporter), so the result is independent of
    queue arrival order. Only values that change are written, and returned as
    the ids of the edges and of the nodes (h2 read with a 0.0 default) whose
    value changed; most observations change neither.
    """
    alpha = field.smoothing_alpha
    changed_edges: set[str] = set()
    changed_nodes: set[str] = set()
    for obs in sorted(batch, key=lambda o: (o.at_time, o.edge_id, o.reporter)):
        edge = graph.edges.get(obs.edge_id)
        if edge is None:
            raise KeyError(f"observation for unknown edge {obs.edge_id!r}")
        if not (math.isfinite(obs.observed_travel_time) and math.isfinite(obs.observed_comfort)):
            raise ValueError(f"observation of edge {obs.edge_id!r} is not finite")
        old = graph.congestion[obs.edge_id]
        base = edge.base_time_s
        # The belief's own price is no news, though its ratio may be an ulp off.
        if obs.observed_travel_time != base * old:
            new = _fused(old, obs.observed_travel_time / base, 1.0, alpha)
            if new != old:
                graph.congestion[obs.edge_id] = new
                changed_edges.add(obs.edge_id)
        head = edge.to_node
        old = field.h2_by_node.get(head, 0.0)
        new = _fused(old, obs.observed_comfort, 0.0, alpha)
        if new != old:
            field.h2_by_node[head] = new
            changed_nodes.add(head)
    return changed_edges, changed_nodes


def adapt_weights(
    base: HeuristicWeights, prefers_comfort: bool, rough_road: bool, heavy_traffic: bool
) -> HeuristicWeights:
    """Scale heuristic coefficients from a query's context flags.

    Fixed multiplier table, composed multiplicatively so the result does not
    depend on flag order. w_g and the safety weight are never touched.
    """
    w1, w2 = base.w1, base.w2
    if prefers_comfort:
        w2 *= 2.0
    if rough_road:
        w2 *= 1.5
    if heavy_traffic:
        w1 *= 1.5
    if w1 == base.w1 and w2 == base.w2:
        return base
    return replace(base, w1=w1, w2=w2)

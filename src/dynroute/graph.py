"""Road network representation, dynamic-condition overlay, scenarios and snapshots.

The static topology never changes after a scenario is loaded. It is compiled
once, when a :class:`RoadGraph` is built, into a :class:`SearchIndex`, the
one adjacency structure: nodes numbered in sorted-id order, their
coordinates, each node's outgoing edges as (edge id, head index, base time)
and the network's top speed. Copies, snapshots and every ground-truth state
share that one object. The graph keeps its id-keyed node and edge records
for validation, serialization and the observation ratio.

Time-varying state lives in a per-edge overlay (congestion factor, comfort
penalty, blocked set) plus the per-node heuristic field. Planners never see
the mutable state directly: they search the index of an immutable
:class:`GraphSnapshot` taken at an epoch boundary, reading its string-keyed
overlay directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .heuristics import HeuristicField, HeuristicWeights


class ScenarioError(Exception):
    """Base class for scenario loading failures."""


class ParseError(ScenarioError):
    """Malformed scenario document (bad JSON, wrong types, unknown keys)."""


class ValidationError(ScenarioError):
    """Well-formed document that violates a scenario invariant."""


# Event kinds accepted in scenario documents.
SET_CONGESTION = "set_congestion"
SET_COMFORT = "set_comfort"
SET_NODE_COMFORT_H = "set_node_comfort_h"
BLOCK_EDGE = "block_edge"
UNBLOCK_EDGE = "unblock_edge"

EVENT_KINDS = frozenset(
    {SET_CONGESTION, SET_COMFORT, SET_NODE_COMFORT_H, BLOCK_EDGE, UNBLOCK_EDGE}
)

# Kinds whose value field must be present.
_VALUED_KINDS = frozenset({SET_CONGESTION, SET_COMFORT, SET_NODE_COMFORT_H})


@dataclass(frozen=True)
class NodeRecord:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class EdgeRecord:
    id: str
    from_node: str
    to_node: str
    length_m: float
    base_time_s: float


@dataclass(frozen=True)
class Event:
    """A timed change to the world: congestion, comfort, blocking.

    ``sensed_only`` events change the ground-truth state but are not
    broadcast to the shared planning state; other vehicles learn about them
    only through shared traversal observations.
    """

    at_time: float
    kind: str
    target: str
    value: float | None = None
    sensed_only: bool = False


@dataclass(frozen=True)
class Query:
    vehicle: str
    start: str
    goal: str
    depart_s: float
    weights: HeuristicWeights
    prefers_comfort: bool = False
    rough_road: bool = False
    heavy_traffic: bool = False


class SearchIndex:
    """The static topology on integers, for planners' inner loops.

    Node ``i`` is ``ids[i]``, with ids in sorted order, so comparing indices
    orders nodes exactly as comparing their ids does. ``out[i]`` lists the
    node's outgoing edges as (edge id, head index, base time) in ascending
    edge-id order, blocked edges included. ``v_max`` is the free-flow
    network top speed, the divisor of the time heuristic.
    """

    __slots__ = ("ids", "pos", "xs", "ys", "out", "v_max")

    def __init__(self, nodes: Mapping[str, NodeRecord], edges: Mapping[str, EdgeRecord]):
        self.ids: tuple[str, ...] = tuple(sorted(nodes))
        self.pos: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.xs: list[float] = [nodes[nid].x for nid in self.ids]
        self.ys: list[float] = [nodes[nid].y for nid in self.ids]
        out: list[list[tuple[str, int, float]]] = [[] for _ in self.ids]
        for eid in sorted(edges):
            e = edges[eid]
            out[self.pos[e.from_node]].append((eid, self.pos[e.to_node], e.base_time_s))
        self.out: tuple[tuple[tuple[str, int, float], ...], ...] = tuple(map(tuple, out))
        self.v_max: float = max(
            (e.length_m / e.base_time_s for e in edges.values()), default=1.0
        )


class RoadGraph:
    """Directed road network with a mutable dynamic-condition overlay."""

    def __init__(self, nodes: Iterable[NodeRecord], edges: Iterable[EdgeRecord]):
        self.nodes: dict[str, NodeRecord] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValidationError(f"duplicate node id {n.id!r}")
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise ValidationError(f"node {n.id!r} has non-finite coordinates")
            self.nodes[n.id] = n
        self.edges: dict[str, EdgeRecord] = {}
        for e in edges:
            if e.id in self.edges:
                raise ValidationError(f"duplicate edge id {e.id!r}")
            for endpoint in (e.from_node, e.to_node):
                if endpoint not in self.nodes:
                    raise ValidationError(
                        f"edge {e.id!r} references unknown node {endpoint!r}"
                    )
            if not (math.isfinite(e.length_m) and e.length_m > 0):
                raise ValidationError(f"edge {e.id!r} has non-positive length")
            if not (math.isfinite(e.base_time_s) and e.base_time_s > 0):
                raise ValidationError(f"edge {e.id!r} has non-positive base time")
            self.edges[e.id] = e
        self.index = SearchIndex(self.nodes, self.edges)
        # Dynamic overlay: defaults are free flow, no penalty, nothing blocked.
        self.congestion: dict[str, float] = {eid: 1.0 for eid in self.edges}
        self.comfort: dict[str, float] = {eid: 0.0 for eid in self.edges}
        self.blocked: set[str] = set()

    def copy(self) -> "RoadGraph":
        g = RoadGraph.__new__(RoadGraph)
        g.nodes = self.nodes
        g.edges = self.edges
        g.index = self.index
        g.congestion = dict(self.congestion)
        g.comfort = dict(self.comfort)
        g.blocked = set(self.blocked)
        return g


@dataclass(frozen=True)
class Scenario:
    graph: RoadGraph
    initial_field: HeuristicField
    events: tuple[Event, ...]
    queries: tuple[Query, ...]
    name: str
    seed: int


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable view of the overlay + heuristic field at one instant.

    All reads a planner performs during one search go through a single
    snapshot, so concurrent mutation of the live graph cannot affect it.
    """

    index: SearchIndex
    congestion: Mapping[str, float]
    comfort: Mapping[str, float]
    blocked: frozenset[str]
    h2: Mapping[str, float]
    h3: Mapping[str, float]
    time: float

    def node_penalty(self, node_id: str) -> float:
        return self.h2.get(node_id, 0.0) + self.h3.get(node_id, 0.0)


def apply_event(graph: RoadGraph, field: HeuristicField, ev: Event) -> bool:
    """Apply one event to the live overlay; at most one attribute changes.

    Returns whether a value a planner reads changed: an edge's congestion or
    blocked flag, or a node's h2 (read with a 0.0 default). Comfort is read by
    no planner, so ``set_comfort`` returns False, as does any no-op.
    """
    if ev.value is not None and not math.isfinite(ev.value):
        raise ValidationError(f"event value must be finite, got {ev.value}")
    if ev.kind == SET_NODE_COMFORT_H:
        if ev.target not in graph.nodes:
            raise ValidationError(f"event targets unknown node {ev.target!r}")
        if ev.value is None or ev.value < 0.0:
            raise ValidationError(f"comfort heuristic must be >= 0, got {ev.value}")
        old = field.h2_by_node.get(ev.target, 0.0)
        field.h2_by_node[ev.target] = float(ev.value)
        return ev.value != old
    if ev.kind not in EVENT_KINDS:
        raise ValidationError(f"unknown event kind {ev.kind!r}")
    if ev.target not in graph.edges:
        raise ValidationError(f"event targets unknown edge {ev.target!r}")
    if ev.kind == SET_CONGESTION:
        if ev.value is None or ev.value < 1.0:
            raise ValidationError(f"congestion factor must be >= 1, got {ev.value}")
        old = graph.congestion[ev.target]
        graph.congestion[ev.target] = float(ev.value)
        return ev.value != old
    if ev.kind == SET_COMFORT:
        if ev.value is None or ev.value < 0.0:
            raise ValidationError(f"comfort penalty must be >= 0, got {ev.value}")
        graph.comfort[ev.target] = float(ev.value)
        return False
    was_blocked = ev.target in graph.blocked
    if ev.kind == BLOCK_EDGE:
        graph.blocked.add(ev.target)
        return not was_blocked
    graph.blocked.discard(ev.target)
    return was_blocked


def snapshot(graph: RoadGraph, field: HeuristicField, time: float) -> GraphSnapshot:
    """Freeze the current overlay + field into an immutable snapshot."""
    return GraphSnapshot(
        index=graph.index,
        congestion=MappingProxyType(dict(graph.congestion)),
        comfort=MappingProxyType(dict(graph.comfort)),
        blocked=frozenset(graph.blocked),
        h2=MappingProxyType(dict(field.h2_by_node)),
        h3=field.h3_by_node,
        time=time,
    )


def make_grid(rows: int, cols: int, edge_length: float, speed: float) -> RoadGraph:
    """4-connected grid with directed edges both ways between lattice neighbors."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    if edge_length <= 0 or speed <= 0:
        raise ValueError("edge_length and speed must be > 0")
    width = max(len(str(rows - 1)), len(str(cols - 1)), 2)

    def nid(r: int, c: int) -> str:
        return f"n{r:0{width}d}_{c:0{width}d}"

    nodes = [
        NodeRecord(nid(r, c), c * edge_length, r * edge_length)
        for r in range(rows)
        for c in range(cols)
    ]
    base_time = edge_length / speed
    edges = []
    count = 0
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append(
                        EdgeRecord(
                            f"e{count:06d}", nid(r, c), nid(rr, cc),
                            edge_length, base_time,
                        )
                    )
                    count += 1
    return RoadGraph(nodes, edges)


def reachable(graph: RoadGraph, start: str, goal: str) -> bool:
    index = graph.index
    goal_i = index.pos[goal]
    stack = [index.pos[start]]
    seen = bytearray(len(index.ids))
    seen[stack[0]] = 1
    while stack:
        u = stack.pop()
        if u == goal_i:
            return True
        for _eid, v, _base in index.out[u]:
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return False


# ---------------------------------------------------------------------------
# Scenario document (de)serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"meta", "nodes", "edges", "heuristics", "events", "queries"}
_META_KEYS = {"name", "seed", "alpha"}
_NODE_KEYS = {"id", "x", "y"}
_EDGE_KEYS = {"id", "from", "to", "length_m", "base_time_s"}
_HEUR_KEYS = {"h2", "h3"}
_EVENT_KEYS = {"t_s", "kind", "target", "value", "sensed_only"}
_QUERY_KEYS = {"vehicle", "start", "goal", "depart_s", "weights", "context"}
_WEIGHT_KEYS = {"wg", "w1", "w2", "w3"}
_CONTEXT_KEYS = {"prefers_comfort", "rough_road", "heavy_traffic"}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")


def _num(obj: dict, key: str, where: str, default: float | None = None) -> float:
    if default is not None and key not in obj:
        return default
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ParseError(f"{where}: {key!r} must be a number")
    return float(v)


def _flag(obj: dict, key: str, where: str) -> bool:
    v = obj.get(key, False)
    if not isinstance(v, bool):
        raise ParseError(f"{where}: {key!r} must be a boolean")
    return v


def _typed(obj: dict, key: str, kind: type, where: str, default=None):
    """``obj[key]`` (or ``default`` if absent), which must be a list or a dict."""
    v = obj.get(key, default)
    if not isinstance(v, kind):
        raise ParseError(f"{where}: {key!r} must be {'an object' if kind is dict else 'a list'}")
    return v


def _text(obj: dict, key: str, where: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str):
        raise ParseError(f"{where}: {key!r} must be a string")
    return v


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ParseError` for malformed documents and
    :class:`ValidationError` for structurally sound documents that break a
    scenario invariant (dangling ids, unsorted events, unreachable goals).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "document")
    for key in ("meta", "nodes", "edges", "queries"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")

    meta = doc["meta"]
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    _check_keys(meta, _META_KEYS, "meta")
    name = _text(meta, "name", "meta")
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseError("meta: 'seed' must be an integer")
    alpha = _num(meta, "alpha", "meta", 0.3)
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"meta.alpha must be in (0, 1], got {alpha}")

    nodes = []
    for i, n in enumerate(_typed(doc, "nodes", list, "document")):
        if not isinstance(n, dict):
            raise ParseError(f"nodes[{i}] must be an object")
        _check_keys(n, _NODE_KEYS, f"nodes[{i}]")
        nodes.append(
            NodeRecord(_text(n, "id", "node"), _num(n, "x", "node"), _num(n, "y", "node"))
        )
    edges = []
    for i, e in enumerate(_typed(doc, "edges", list, "document")):
        if not isinstance(e, dict):
            raise ParseError(f"edges[{i}] must be an object")
        _check_keys(e, _EDGE_KEYS, f"edges[{i}]")
        edges.append(
            EdgeRecord(
                _text(e, "id", "edge"),
                _text(e, "from", "edge"),
                _text(e, "to", "edge"),
                _num(e, "length_m", "edge"),
                _num(e, "base_time_s", "edge"),
            )
        )
    graph = RoadGraph(nodes, edges)

    heur = _typed(doc, "heuristics", dict, "document", {})
    _check_keys(heur, _HEUR_KEYS, "heuristics")
    h2: dict[str, float] = {}
    h3: dict[str, float] = {}
    for label, mapping in (("h2", h2), ("h3", h3)):
        values = _typed(heur, label, dict, "heuristics", {})
        for nid in values:
            val = _num(values, nid, f"heuristics.{label}")
            if nid not in graph.nodes:
                raise ValidationError(f"heuristics.{label} names unknown node {nid!r}")
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"heuristics.{label}[{nid!r}] must be finite >= 0")
            mapping[nid] = val
    initial_field = HeuristicField(h2_by_node=h2, h3_by_node=h3, smoothing_alpha=alpha)

    events = []
    prev_t = -math.inf
    scratch = (graph.copy(), initial_field.copy())
    for i, ev in enumerate(_typed(doc, "events", list, "document", [])):
        if not isinstance(ev, dict):
            raise ParseError(f"events[{i}] must be an object")
        _check_keys(ev, _EVENT_KEYS, f"events[{i}]")
        t = _num(ev, "t_s", f"events[{i}]")
        kind = _text(ev, "kind", f"events[{i}]")
        target = _text(ev, "target", f"events[{i}]")
        if kind not in EVENT_KINDS:
            raise ValidationError(f"events[{i}]: unknown kind {kind!r}")
        if not math.isfinite(t):
            raise ValidationError(f"events[{i}]: t_s must be finite, got {t}")
        if t < 0:
            raise ValidationError(f"events[{i}]: negative time {t}")
        if t < prev_t:
            raise ValidationError(
                f"events[{i}] at t={t} is out of order (previous t={prev_t})"
            )
        prev_t = t
        value = None
        if kind in _VALUED_KINDS:
            value = _num(ev, "value", f"events[{i}]")
        elif "value" in ev:
            raise ParseError(f"events[{i}]: {kind!r} takes no value")
        event = Event(t, kind, target, value, _flag(ev, "sensed_only", f"events[{i}]"))
        # Validate targets and bounds by applying to a throwaway copy.
        apply_event(*scratch, event)
        events.append(event)

    queries = []
    for i, q in enumerate(_typed(doc, "queries", list, "document")):
        if not isinstance(q, dict):
            raise ParseError(f"queries[{i}] must be an object")
        _check_keys(q, _QUERY_KEYS, f"queries[{i}]")
        w = q.get("weights", {})
        if not isinstance(w, dict):
            raise ParseError(f"queries[{i}].weights must be an object")
        _check_keys(w, _WEIGHT_KEYS, f"queries[{i}].weights")
        where = f"queries[{i}].weights"
        try:
            weights = HeuristicWeights(*(_num(w, k, where, 1.0) for k in ("wg", "w1", "w2", "w3")))
        except ValueError as exc:
            raise ValidationError(f"queries[{i}].weights: {exc}") from None
        ctx = q.get("context", {})
        if not isinstance(ctx, dict):
            raise ParseError(f"queries[{i}].context must be an object")
        _check_keys(ctx, _CONTEXT_KEYS, f"queries[{i}].context")
        query = Query(
            vehicle=_text(q, "vehicle", f"queries[{i}]"),
            start=_text(q, "start", f"queries[{i}]"),
            goal=_text(q, "goal", f"queries[{i}]"),
            depart_s=_num(q, "depart_s", f"queries[{i}]", 0.0),
            weights=weights,
            prefers_comfort=_flag(ctx, "prefers_comfort", f"queries[{i}].context"),
            rough_road=_flag(ctx, "rough_road", f"queries[{i}].context"),
            heavy_traffic=_flag(ctx, "heavy_traffic", f"queries[{i}].context"),
        )
        for endpoint, label in ((query.start, "start"), (query.goal, "goal")):
            if endpoint not in graph.nodes:
                raise ValidationError(
                    f"queries[{i}]: {label} names unknown node {endpoint!r}"
                )
        if not (math.isfinite(query.depart_s) and query.depart_s >= 0):
            raise ValidationError(f"queries[{i}]: depart_s must be finite and >= 0")
        if not reachable(graph, query.start, query.goal):
            raise ValidationError(
                f"queries[{i}]: goal {query.goal!r} unreachable from {query.start!r}"
            )
        queries.append(query)

    return Scenario(
        graph=graph,
        initial_field=initial_field,
        events=tuple(events),
        queries=tuple(queries),
        name=name,
        seed=seed,
    )


def scenario_to_dict(scn: Scenario) -> dict:
    """Canonical dict form: ids and events sorted, suitable for stable JSON."""
    doc: dict = {
        "meta": {"name": scn.name, "seed": scn.seed,
                 "alpha": scn.initial_field.smoothing_alpha},
        "nodes": [
            {"id": n.id, "x": n.x, "y": n.y}
            for n in sorted(scn.graph.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            {
                "id": e.id,
                "from": e.from_node,
                "to": e.to_node,
                "length_m": e.length_m,
                "base_time_s": e.base_time_s,
            }
            for e in sorted(scn.graph.edges.values(), key=lambda e: e.id)
        ],
        "heuristics": {
            "h2": dict(sorted(scn.initial_field.h2_by_node.items())),
            "h3": dict(sorted(scn.initial_field.h3_by_node.items())),
        },
        "events": [],
        "queries": [],
    }
    for ev in scn.events:
        entry: dict = {"t_s": ev.at_time, "kind": ev.kind, "target": ev.target}
        if ev.value is not None:
            entry["value"] = ev.value
        if ev.sensed_only:
            entry["sensed_only"] = True
        doc["events"].append(entry)
    for q in scn.queries:
        doc["queries"].append(
            {
                "vehicle": q.vehicle,
                "start": q.start,
                "goal": q.goal,
                "depart_s": q.depart_s,
                "weights": {
                    "wg": q.weights.w_g,
                    "w1": q.weights.w1,
                    "w2": q.weights.w2,
                    "w3": q.weights.w3,
                },
                "context": {
                    "prefers_comfort": q.prefers_comfort,
                    "rough_road": q.rough_road,
                    "heavy_traffic": q.heavy_traffic,
                },
            }
        )
    return doc


def serialize_scenario(scn: Scenario) -> str:
    """Byte-stable canonical encoding: sorted keys, two-space indent."""
    return json.dumps(scenario_to_dict(scn), sort_keys=True, indent=2) + "\n"

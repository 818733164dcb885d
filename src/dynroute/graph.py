"""Road network representation, dynamic-condition overlay, scenarios and snapshots.

The static topology never changes after a scenario is loaded. It is compiled
once, when a :class:`RoadGraph` is built, into a :class:`SearchIndex`, the
one adjacency structure: nodes numbered in sorted-id order, their
coordinates, each node's outgoing edges as (edge id, head index, base time)
and the network's top speed; its landmark table, the free-flow times behind
A*'s landmark bound, is built by the first search that reads it. Copies,
snapshots and every ground-truth state share that one object. The graph
keeps its id-keyed node and edge records for validation, serialization and
the observation ratio.

Time-varying state lives in a per-edge overlay (congestion factor, blocked
set) plus the per-node heuristic field. Planners never see the mutable state
directly: they search an immutable :class:`GraphSnapshot` taken at an epoch
boundary, which holds only the planning view, arrays keyed by node index:
each node's unblocked out-edges with their effective times, and its h2 and
h3 penalties. A snapshot is patched from an earlier one of the same graph, or
from the free-flow view, rebuilding only the rows that changed and sharing
the rest.
Comfort is a node penalty, h2, alone: a ``set_comfort`` event names an edge
and is checked and logged, but nothing charges or reads edge comfort, so
applying one changes nothing.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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

# Each kind's least value, or None for a kind that takes no value.
_LEAST_VALUE = {SET_CONGESTION: 1.0, SET_COMFORT: 0.0, SET_NODE_COMFORT_H: 0.0,
                BLOCK_EDGE: None, UNBLOCK_EDGE: None}
EVENT_KINDS = frozenset(_LEAST_VALUE)


@dataclass(slots=True)
class NodeRecord:
    """A node's id and coordinates. Slotted rather than frozen, since one is
    built per node record a document holds and nothing assigns to one after."""

    id: str
    x: float
    y: float


@dataclass(slots=True)
class EdgeRecord:
    """A directed edge's id, tail, head, length and free-flow time. Slotted
    rather than frozen, since one is built per edge record a document holds
    and nothing assigns to one after."""

    id: str
    from_node: str
    to_node: str
    length_m: float
    base_time_s: float


@dataclass(frozen=True)
class Event:
    """A timed change to the world: congestion, node comfort, blocking.

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
    edge-id order, blocked edges included; ``into[i]`` lists its incoming
    edges as (edge id, tail index, base time), also by edge id. ``v_max`` is
    the free-flow network top speed, the divisor of the time heuristic.
    :meth:`landmark_columns` is the table behind the landmark lower bound,
    built at its first call.

    ``_free_states`` is the weighted search's stack of free states: (g,
    parent) list pairs of one entry per node, every g infinite. A search
    takes one off it, or builds one if none is free, and puts it back reset
    over the nodes it wrote, so only an index's first search pays set-up
    that grows with the graph. Popping and appending are atomic under the
    GIL, so threads searching one index each hold their own pair.
    """

    __slots__ = ("ids", "pos", "xs", "ys", "out", "into", "v_max", "_landmark_columns",
                 "_free_states")

    def __init__(self, nodes: Mapping[str, NodeRecord], edges: Mapping[str, EdgeRecord]):
        self.ids: tuple[str, ...] = tuple(sorted(nodes))
        self.pos: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.xs: list[float] = [nodes[nid].x for nid in self.ids]
        self.ys: list[float] = [nodes[nid].y for nid in self.ids]
        out: list[list[tuple[str, int, float]]] = [[] for _ in self.ids]
        into: list[list[tuple[str, int, float]]] = [[] for _ in self.ids]
        for eid in sorted(edges):
            e = edges[eid]
            u, v = self.pos[e.from_node], self.pos[e.to_node]
            out[u].append((eid, v, e.base_time_s))
            into[v].append((eid, u, e.base_time_s))
        self.out: tuple[tuple[tuple[str, int, float], ...], ...] = tuple(map(tuple, out))
        self.into: tuple[tuple[tuple[str, int, float], ...], ...] = tuple(map(tuple, into))
        self.v_max: float = max(
            (e.length_m / e.base_time_s for e in edges.values()), default=1.0
        )
        self._landmark_columns: tuple[tuple[float, ...], ...] | None = None
        self._free_states: list[tuple[list[float], list[int]]] = []

    def landmark_columns(self) -> tuple[tuple[float, ...], ...]:
        """The free-flow times to and from the landmarks, one column per
        triangle term, each indexed by node, built at the first call.

        With ``k`` landmarks ``L0, ..., Lk-1``, column ``j < k`` holds
        ``d(v, Lj)`` and column ``k + j`` holds ``-d(Lj, v)`` for every node
        ``v``: times on base times along ``out``, blocked edges included,
        infinite where there is no route (or the sum overflows). Up to
        :data:`LANDMARKS` landmarks are picked by farthest selection
        (Goldberg & Harrelson, SODA 2005): each is the node with the longest
        time to the landmarks picked before it, a node with no route counting
        as farthest and ties going to the lowest index, so the first is node 0.

        For any column ``c``, ``c[v] - c[t]`` is a triangle term, ``d(v, L) -
        d(t, L)`` or ``d(L, t) - d(L, v)`` (negation is exact), and a lower
        bound on the time from ``v`` to ``t``; the largest of any of them and
        0.0 is the landmark bound. A term that reads inf - inf is NaN and
        says nothing; one that reads inf - d proves ``v`` cannot reach ``t``.
        Each term is consistent, and it holds on every snapshot, since
        congestion is at least 1 and blocking only removes arcs (Delling &
        Wagner, WEA 2007).
        """
        if self._landmark_columns is None:
            self._landmark_columns = _landmark_columns(self)
        return self._landmark_columns


# Landmarks in :meth:`SearchIndex.landmark_columns`, or every node of a smaller graph.
LANDMARKS = 4


def _times(arcs, source: int) -> list[float]:
    """Dijkstra's free-flow times from ``source`` along ``arcs``' (edge id,
    node, base time) rows: ``SearchIndex.out`` or ``SearchIndex.into``."""
    dist = [math.inf] * len(arcs)
    dist[source] = 0.0
    heap = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:  # a stale entry: u was reached cheaper since
            continue
        for _eid, v, base in arcs[u]:
            nd = d + base
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


def _landmark_columns(index: SearchIndex) -> tuple[tuple[float, ...], ...]:
    """The columns of :meth:`SearchIndex.landmark_columns` for ``index``."""
    far = [math.inf] * len(index.ids)  # each node's time to the nearest landmark so far
    to_landmarks, from_landmarks = [], []
    for _ in range(min(LANDMARKS, len(index.ids))):
        landmark = far.index(max(far))
        to_landmarks.append(tuple(_times(index.into, landmark)))
        from_landmarks.append(tuple(map(neg, _times(index.out, landmark))))
        far = list(map(min, far, to_landmarks[-1]))
    return (*to_landmarks, *from_landmarks)


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
        # Dynamic overlay: defaults are free flow, nothing blocked.
        self.congestion: dict[str, float] = {eid: 1.0 for eid in self.edges}
        self.blocked: set[str] = set()

    def copy(self) -> "RoadGraph":
        g = RoadGraph.__new__(RoadGraph)
        g.nodes = self.nodes
        g.edges = self.edges
        g.index = self.index
        g.congestion = dict(self.congestion)
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
    Planners read only the planning view, keyed by node index:

    * ``arcs[i]``: node ``i``'s unblocked out-edges as (edge id, head index,
      effective time), in the ascending edge-id order of ``index.out``; the
      effective time is the base time times the congestion factor;
    * ``h2_at[i]`` and ``h3_at[i]``: the node's comfort and safety
      penalties, 0.0 where the field has none.
    """

    index: SearchIndex
    arcs: tuple[tuple[tuple[str, int, float], ...], ...]
    h2_at: tuple[float, ...]
    h3_at: tuple[float, ...]


def apply_event(graph: RoadGraph, field: HeuristicField, ev: Event) -> None:
    """Apply one event to the live overlay: set the value it names.

    ``ev`` must be an event of a scenario :func:`load_scenario` returned for
    this graph, which checked its kind, target and value once; nothing is
    checked or compared here. ``set_comfort`` writes nothing, since nothing
    holds edge comfort; the simulation compares snapshots to find changes.
    """
    if ev.kind == SET_NODE_COMFORT_H:
        field.h2_by_node[ev.target] = float(ev.value)
    elif ev.kind == SET_CONGESTION:
        graph.congestion[ev.target] = float(ev.value)
    elif ev.kind == BLOCK_EDGE:
        graph.blocked.add(ev.target)
    elif ev.kind == UNBLOCK_EDGE:
        graph.blocked.discard(ev.target)


def apply_events(graph: RoadGraph, field: HeuristicField, events: Iterable[Event],
                 edges: set[str], nodes: set[str]) -> None:
    """Apply ``events`` in order; add each target written to ``nodes`` (an h2) or ``edges``."""
    for ev in events:
        apply_event(graph, field, ev)
        if ev.kind != SET_COMFORT:
            (nodes if ev.kind == SET_NODE_COMFORT_H else edges).add(ev.target)


def snapshot(graph: RoadGraph, field: HeuristicField, _time: float = 0.0, /, *,
             base: GraphSnapshot | None = None, edges: Collection[str] = (),
             nodes: Collection[str] = ()) -> GraphSnapshot:
    """Freeze the current overlay + field into an immutable snapshot.

    ``base`` is an earlier snapshot of the same graph and field; ``edges``
    and ``nodes`` must then name every edge whose congestion or blocked flag,
    and every node whose h2, may have changed since it was taken. Only the
    ``arcs`` rows of those edges' tails and the ``h2_at`` entries of those
    nodes are rebuilt; every other row and entry is shared with ``base``.
    Without ``base``, the base is the free-flow view (the index's own rows, no
    h2, the field's h3), patched at every congested or blocked edge and every
    node with an h2. Either way the result equals a snapshot built with every
    row rebuilt. A snapshot records no instant: a third positional argument,
    once the time, is ignored.
    """
    index = graph.index
    h2 = field.h2_by_node
    if base is None:
        base = GraphSnapshot(index, index.out, (0.0,) * len(index.ids),
                             tuple([field.h3_by_node.get(nid, 0.0) for nid in index.ids]))
        edges = [eid for eid, c in graph.congestion.items() if c != 1.0] + [*graph.blocked]
        nodes = h2
    arcs, h2_at = base.arcs, base.h2_at
    if edges:
        congestion, blocked = graph.congestion, graph.blocked
        arcs = list(arcs)
        for i in {index.pos[graph.edges[eid].from_node] for eid in edges}:
            arcs[i] = tuple([(eid, v, t * congestion[eid])
                             for eid, v, t in index.out[i] if eid not in blocked])
        arcs = tuple(arcs)
    if nodes:
        values = list(h2_at)
        for nid in nodes:
            values[index.pos[nid]] = h2.get(nid, 0.0)
        h2_at = tuple(values)
    return GraphSnapshot(index, arcs, h2_at, base.h3_at)


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


def _finished(rows, root: int, seen: bytearray) -> Iterator[int]:
    """``root``, not yet ``seen``, and the nodes not yet seen that a
    depth-first search from it along ``rows`` (``SearchIndex.out`` or
    ``SearchIndex.into``) reaches, in the order their searches finish; each
    is marked seen as it is reached. The stack is explicit, so depth has no
    limit."""
    seen[root] = 1
    walk = [(root, iter(rows[root]))]
    while walk:
        u, arcs = walk[-1]
        for _eid, v, _base in arcs:
            if not seen[v]:
                seen[v] = 1
                walk.append((v, iter(rows[v])))
                break
        else:
            walk.pop()
            yield u


def components(index: SearchIndex) -> list[int]:
    """Each node index's strongly connected component label, from two walks
    (Kosaraju-Sharir; Sharir, Comput. Math. Appl. 1981): one along
    ``index.out`` for the order in which nodes finish, then one along
    ``index.into`` from each node not yet labelled, the last to finish
    first, whose nodes take that root as their label. Two nodes share a
    label exactly when each reaches the other; blocked edges count."""
    n = len(index.ids)
    seen = bytearray(n)
    finish = [u for root in range(n) if not seen[root] for u in _finished(index.out, root, seen)]
    label, seen = [-1] * n, bytearray(n)
    for root in reversed(finish):
        if not seen[root]:
            for u in _finished(index.into, root, seen):
                label[u] = root
    return label


# ---------------------------------------------------------------------------
# Scenario document (de)serialization
#
# The schema is one field table per record: key -> (JSON type, default), with
# _REQUIRED for a key that must be present, in the order of the record's
# constructor. ``_record`` reads a record through its table and
# ``scenario_to_dict`` writes one through the same table, so each document
# key is named once. Types are strict: a number is a JSON int or float but
# never a boolean, and nothing is converted from a string. What is checked by
# hand below is the semantics: finite values and ranges, event order, dangling
# and duplicate ids, which event kinds take a value, and reachability.
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Table(dict):
    """A record's field table, with its one-step read: ``getter`` fetches
    every key in table order (as a tuple, since a table has two keys or
    more) and ``kinds`` holds each key's exact type."""

    __slots__ = ("getter", "kinds")

    def __init__(self, fields: dict):
        super().__init__(fields)
        self.getter = itemgetter(*fields)
        self.kinds = tuple(kind for kind, _default in fields.values())


_DOCUMENT = _Table({"meta": (dict, _REQUIRED), "nodes": (list, _REQUIRED),
                    "edges": (list, _REQUIRED), "heuristics": (dict, {}), "events": (list, []),
                    "queries": (list, _REQUIRED)})
_META = _Table({"name": (str, _REQUIRED), "seed": (int, 0), "alpha": (float, 0.3)})
_NODE = _Table({"id": (str, _REQUIRED), "x": (float, _REQUIRED), "y": (float, _REQUIRED)})
_EDGE = _Table({"id": (str, _REQUIRED), "from": (str, _REQUIRED), "to": (str, _REQUIRED),
                "length_m": (float, _REQUIRED), "base_time_s": (float, _REQUIRED)})
_HEURISTICS = _Table({"h2": (dict, {}), "h3": (dict, {})})
_EVENT = _Table({"t_s": (float, _REQUIRED), "kind": (str, _REQUIRED),
                 "target": (str, _REQUIRED), "value": (float, None), "sensed_only": (bool, False)})
_QUERY = _Table({"vehicle": (str, _REQUIRED), "start": (str, _REQUIRED),
                 "goal": (str, _REQUIRED), "depart_s": (float, 0.0), "weights": (dict, {}),
                 "context": (dict, {})})
_WEIGHTS = _Table({"wg": (float, 1.0), "w1": (float, 1.0), "w2": (float, 1.0),
                   "w3": (float, 1.0)})
_CONTEXT = _Table({"prefers_comfort": (bool, False), "rough_road": (bool, False),
                   "heavy_traffic": (bool, False)})

_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer", bool: "a boolean",
               list: "a list", dict: "an object"}


def _value(v, kind: type, key: str, where: str):
    """``v`` as a value of JSON type ``kind``; a JSON int is also a number.

    An int too large for a float reads as infinity, as ``1e400`` does.
    """
    if type(v) is kind:
        return v
    if kind is float and type(v) is int:
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
    raise ParseError(f"{where}: {key!r} must be {_TYPE_NAMES[kind]}")


def _record(obj, table: _Table, where: str, index: int | None = None) -> Sequence:
    """The values of record ``obj`` in ``table`` order, with defaults filled in.

    Raises :class:`ParseError` if ``obj`` is not an object, has a key the
    table lacks, misses a required key or holds a value of the wrong type.
    A record holding exactly the table's keys, each of its exact type, is
    read in one step; every other goes through the per-key walk, the only
    code that fills a default, reads an int as a number or names an error.
    An error names the record ``where``, or ``where[index]`` given an
    ``index``, formatted only on the walk.
    """
    if type(obj) is dict and len(obj) == len(table):
        try:
            values = table.getter(obj)
        except KeyError:  # an unknown key in place of one of the table's
            pass
        else:
            if tuple(map(type, values)) == table.kinds:
                return values
    if index is not None:
        where = f"{where}[{index}]"
    if type(obj) is not dict:
        raise ParseError(f"{where} must be an object")
    if not obj.keys() <= table.keys():
        raise ParseError(f"unknown key(s) {sorted(obj.keys() - table.keys())} in {where}")
    values = []
    for key, (kind, default) in table.items():
        if key in obj:
            v = obj[key]
            values.append(v if type(v) is kind else _value(v, kind, key, where))
        elif default is _REQUIRED:
            raise ParseError(f"{where}: missing required key {key!r}")
        else:
            values.append(default)
    return values


def _fields(table: dict, values: Iterable, sparse: bool = False) -> dict:
    """The document form of a record: ``table``'s keys with ``values`` in
    table order, each as the loader holds it (an int in a number field as
    ``_value`` reads it), leaving out each value at its default if ``sparse``."""
    return {
        key: _value(v, kind, key, "") if kind is float and type(v) is int else v
        for (key, (kind, default)), v in zip(table.items(), values)
        if not (sparse and v == default)
    }


def load_scenario(text: str | bytes) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ParseError` for malformed documents and
    :class:`ValidationError` for structurally sound documents that break a
    scenario invariant (dangling or duplicate ids, unsorted events, an event
    value that is not finite or below its kind's least, an event on an
    unknown edge or node, unreachable goals). Each event is checked here
    once and applied nowhere: :func:`apply_event` relies on these checks.
    Reachability takes one component labelling (:func:`components`), made
    at the first query that needs it, plus a walk from the start only for a
    goal outside its start's component. Queries are checked in order, each
    fully before the next, so an error names the first query that fails any
    check.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nest
        raise ParseError(f"invalid JSON: {exc}") from exc
    meta, node_docs, edge_docs, heur, event_docs, query_docs = _record(doc, _DOCUMENT, "document")
    name, seed, alpha = _record(meta, _META, "meta")

    nodes = [NodeRecord(*_record(n, _NODE, "nodes", i)) for i, n in enumerate(node_docs)]
    edges = [EdgeRecord(*_record(e, _EDGE, "edges", i)) for i, e in enumerate(edge_docs)]
    graph = RoadGraph(nodes, edges)

    maps = []
    for label, values in zip(_HEURISTICS, _record(heur, _HEURISTICS, "heuristics")):
        mapping: dict[str, float] = {}
        for nid, val in values.items():
            val = _value(val, float, nid, f"heuristics.{label}")
            if nid not in graph.nodes:
                raise ValidationError(f"heuristics.{label} names unknown node {nid!r}")
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"heuristics.{label}[{nid!r}] must be finite >= 0")
            mapping[nid] = val
        maps.append(mapping)
    try:
        initial_field = HeuristicField(*maps, smoothing_alpha=alpha)
    except ValueError as exc:
        raise ValidationError(f"meta.alpha: {exc}") from None

    events = []
    prev_t = -math.inf
    for i, ev in enumerate(event_docs):
        event = Event(*_record(ev, _EVENT, "events", i))
        t, kind, target, value = event.at_time, event.kind, event.target, event.value
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
        least = _LEAST_VALUE[kind]
        if (least is None) != (value is None):
            raise ParseError(f"events[{i}]: {kind!r} takes {'no' if least is None else 'a'} value")
        if value is not None and not (math.isfinite(value) and value >= least):
            raise ValidationError(f"events[{i}]: {kind!r} value must be finite and >= {least:g}, "
                                  f"got {value}")
        on_node = kind == SET_NODE_COMFORT_H
        if target not in (graph.nodes if on_node else graph.edges):
            raise ValidationError(
                f"events[{i}] targets unknown {'node' if on_node else 'edge'} {target!r}")
        events.append(event)

    queries = []
    vehicles = set()
    index, labels = graph.index, None  # component labels, made at the first reachability check
    for i, q in enumerate(query_docs):
        where = f"queries[{i}]"
        vehicle, start, goal, depart_s, w, ctx = _record(q, _QUERY, where)
        try:
            weights = HeuristicWeights(*_record(w, _WEIGHTS, f"{where}.weights"))
        except ValueError as exc:
            raise ValidationError(f"{where}.weights: {exc}") from None
        query = Query(vehicle, start, goal, depart_s, weights,
                      *_record(ctx, _CONTEXT, f"{where}.context"))
        if vehicle in vehicles:
            raise ValidationError(f"{where}: vehicle {vehicle!r} already has a query")
        vehicles.add(vehicle)
        for endpoint, label in ((start, "start"), (goal, "goal")):
            if endpoint not in graph.nodes:
                raise ValidationError(f"{where}: {label} names unknown node {endpoint!r}")
        if not (math.isfinite(depart_s) and depart_s >= 0):
            raise ValidationError(f"{where}: depart_s must be finite and >= 0")
        if labels is None:
            labels = components(index)
        s, g = index.pos[start], index.pos[goal]
        if labels[s] != labels[g] and g not in _finished(index.out, s, bytearray(len(labels))):
            raise ValidationError(f"{where}: goal {goal!r} unreachable from {start!r}")
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
    """Canonical dict form: ids and events sorted, suitable for stable JSON.

    Events leave out a value at its default (no value, not ``sensed_only``);
    every other record writes all of its keys.
    """
    fld = scn.initial_field
    return _fields(_DOCUMENT, (
        _fields(_META, (scn.name, scn.seed, fld.smoothing_alpha)),
        [_fields(_NODE, (n.id, n.x, n.y)) for _nid, n in sorted(scn.graph.nodes.items())],
        [
            _fields(_EDGE, (e.id, e.from_node, e.to_node, e.length_m, e.base_time_s))
            for _eid, e in sorted(scn.graph.edges.items())
        ],
        _fields(_HEURISTICS, tuple(
            {nid: _value(v, float, nid, "") if type(v) is int else v
             for nid, v in sorted(values.items())}
            for values in (fld.h2_by_node, fld.h3_by_node))),
        [
            _fields(_EVENT, (ev.at_time, ev.kind, ev.target, ev.value, ev.sensed_only), True)
            for ev in scn.events
        ],
        [
            _fields(_QUERY, (
                q.vehicle, q.start, q.goal, q.depart_s,
                _fields(_WEIGHTS, (q.weights.w_g, q.weights.w1, q.weights.w2, q.weights.w3)),
                _fields(_CONTEXT, (q.prefers_comfort, q.rough_road, q.heavy_traffic)),
            ))
            for q in scn.queries
        ],
    ))


def serialize_scenario(scn: Scenario) -> str:
    """Byte-stable canonical encoding: sorted keys, two-space indent."""
    return json.dumps(scenario_to_dict(scn), sort_keys=True, indent=2) + "\n"

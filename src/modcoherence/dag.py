"""Directed acyclic graphs over named nodes with an exact d-separation oracle.

Separation queries may condition through declared functional dependencies:
the conditioning set is first closed under "is a function of" facts, which is
sound because deterministic functions of observed symbols carry no extra
information.  With no dependencies declared this is standard d-separation.
"""

from __future__ import annotations

import functools
from collections import deque
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from . import ModcoherenceError, Record
from .ci import (
    EMPTY,
    EmptySide,
    FunctionalDependency,
    OverlappingSets,
    Symbol,
    VarSet,
    determined_closure,
)

class DagError(ModcoherenceError):
    pass


class CycleDetected(DagError):
    pass


class UnknownEndpoint(DagError):
    pass


class DuplicateNode(DagError):
    pass


class UnknownSymbol(DagError):
    pass


def _reach(start: Iterable[Symbol], step) -> VarSet:
    """Every node reached from ``start`` by one or more ``step`` moves."""
    seen: set[Symbol] = set()
    frontier = deque(start)
    while frontier:
        for node in step(frontier.popleft()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return frozenset(seen)


def _neighbours(pairs: Iterable[tuple[Symbol, Symbol]]) -> dict[Symbol, VarSet]:
    out: dict[Symbol, set] = {}
    for u, v in pairs:
        out.setdefault(u, set()).add(v)
    return {u: frozenset(vs) for u, vs in out.items()}


class Dag(Record):
    nodes: tuple[Symbol, ...]
    edges: tuple[tuple[Symbol, Symbol], ...]
    dependencies: tuple[FunctionalDependency, ...] = ()

    @functools.cached_property
    def node_names(self) -> VarSet:
        return frozenset(self.nodes)

    @functools.cached_property
    def _parent_map(self) -> dict[Symbol, VarSet]:  # nodes without parents are absent
        return _neighbours((v, u) for u, v in self.edges)

    @functools.cached_property
    def _child_map(self) -> dict[Symbol, VarSet]:
        return _neighbours(self.edges)

    def parents(self, name: Symbol) -> VarSet:
        return self._parent_map.get(name, EMPTY)

    def children(self, name: Symbol) -> VarSet:
        return self._child_map.get(name, EMPTY)

    def ancestors(self, of: Iterable[Symbol]) -> VarSet:
        return _reach(of, self.parents)


def build_dag(
    nodes: Iterable[Symbol],
    edges: Iterable[tuple[Symbol, Symbol]],
    dependencies: Iterable[FunctionalDependency] = (),
) -> Dag:
    """Validate and freeze a DAG; raises on non-str names, duplicates, stray endpoints, cycles."""
    nodes, edges = tuple(nodes), tuple((u, v) for u, v in edges)
    for n in (*nodes, *(end for edge in edges for end in edge)):
        if not isinstance(n, str):
            raise DagError(f"node names must be strings, got {n!r}")
    dag = Dag(nodes, edges, tuple(dependencies))
    if len(dag.node_names) != len(nodes):
        dupes = sorted({n for n in nodes if nodes.count(n) > 1})
        raise DuplicateNode(f"duplicate node names: {dupes}")
    for u, v in edges:
        if u not in dag.node_names or v not in dag.node_names:
            raise UnknownEndpoint(f"edge {u}->{v} references an undeclared node")
        if u == v:
            raise CycleDetected(f"self-loop at {u}")
    try:
        tuple(TopologicalSorter(dag._parent_map).static_order())
    except CycleError as exc:
        raise CycleDetected(str(exc)) from exc
    for dep in dag.dependencies:
        stray = (dep.determined | dep.determiners) - dag.node_names
        if stray:
            raise UnknownSymbol(f"dependency mentions undeclared nodes: {sorted(stray)}")
    return dag


def _validate_query(dag: Dag, a: VarSet, b: VarSet, c: VarSet) -> None:
    stray = (a | b | c) - dag.node_names
    if stray:
        raise UnknownSymbol(f"query mentions undeclared nodes: {sorted(stray)}")
    if not a or not b:
        raise EmptySide("query sides a and b must be non-empty")
    if a & b or a & c or b & c:
        raise OverlappingSets("query sets must be pairwise disjoint")


def d_separated(
    dag: Dag,
    a: Iterable[Symbol],
    b: Iterable[Symbol],
    c: Iterable[Symbol] = (),
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Active-trail reachability over (node, direction) states; the conditioning
    set is enlarged to its functional-dependency closure first.
    """
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    _validate_query(dag, a, b, c)
    z = determined_closure(c, dag.dependencies) & dag.node_names
    an_z = z | dag.ancestors(z)
    # direction "up" means the trail arrived at the node from a child (or is
    # a query source); "down" means it arrived from a parent.
    frontier: deque = deque((node, "up") for node in sorted(a))
    visited = set(frontier)
    while frontier:
        node, direction = frontier.popleft()
        if node not in z and node in b:
            return False
        moves: list[tuple[Symbol, str]] = []
        if direction == "up" and node not in z:
            moves.extend((p, "up") for p in dag.parents(node))
            moves.extend((ch, "down") for ch in dag.children(node))
        elif direction == "down":
            if node not in z:
                moves.extend((ch, "down") for ch in dag.children(node))
            if node in an_z:  # collider (or its ancestor chain) activated
                moves.extend((p, "up") for p in dag.parents(node))
        for move in moves:
            if move not in visited:
                visited.add(move)
                frontier.append(move)
    return True


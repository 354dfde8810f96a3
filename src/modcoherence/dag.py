"""Directed acyclic graphs over named nodes with an exact d-separation oracle.

Separation queries may condition through declared functional dependencies:
the conditioning set is first closed under "is a function of" facts, which is
sound because deterministic functions of observed symbols carry no extra
information.  With no dependencies declared this is standard d-separation.
A query runs over int bitmasks, one bit per node in sorted-name order.
"""

from __future__ import annotations

import functools
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from . import ModcoherenceError, Record
from .ci import FunctionalDependency, Symbol, VarSet, _symbols, determined_closure, normalize

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


class Dag(Record):
    nodes: tuple[Symbol, ...]
    edges: tuple[tuple[Symbol, Symbol], ...]
    dependencies: tuple[FunctionalDependency, ...] = ()

    @functools.cached_property
    def node_names(self) -> VarSet:
        return frozenset(self.nodes)

    @functools.cached_property
    def _masks(self) -> tuple[dict[Symbol, int], tuple[int, ...], tuple[int, ...]]:
        """Each node's bit, in sorted-name order, and each node's parent and
        child masks by position."""
        pos = {n: k for k, n in enumerate(sorted(self.nodes))}
        parents, children = [0] * len(pos), [0] * len(pos)
        for u, v in self.edges:
            parents[pos[v]] |= 1 << pos[u]
            children[pos[u]] |= 1 << pos[v]
        return {n: 1 << k for n, k in pos.items()}, tuple(parents), tuple(children)


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
    parents: dict = {}
    for u, v in edges:
        parents.setdefault(v, []).append(u)
    try:
        tuple(TopologicalSorter(parents).static_order())
    except CycleError as exc:
        raise CycleDetected(f"nodes are in a cycle: {' -> '.join(exc.args[1])}") from exc
    for dep in dag.dependencies:
        stray = (dep.determined | dep.determiners) - dag.node_names
        if stray:
            raise UnknownSymbol(f"dependency mentions undeclared nodes: {sorted(stray)}")
    return dag


def _validate_query(dag: Dag, a: VarSet, b: VarSet, c: VarSet) -> None:
    stray = (a | b | c) - dag.node_names
    if stray:
        raise UnknownSymbol(f"query mentions undeclared nodes: {sorted(stray)}")
    normalize(a, b, c)  # refuses an empty side or overlapping sets, as for any statement


def _mask(bit: dict[Symbol, int], names: Iterable[Symbol]) -> int:
    return sum(map(bit.__getitem__, names))


def _spread(frontier: int, to: tuple[int, ...]) -> int:
    """The union of ``to``'s masks over the nodes in ``frontier``."""
    out = 0
    while frontier:
        k = frontier.bit_length() - 1
        out |= to[k]
        frontier ^= 1 << k
    return out


def d_separated(
    dag: Dag,
    a: Iterable[Symbol],
    b: Iterable[Symbol],
    c: Iterable[Symbol] = (),
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Active-trail reachability (Bayes-ball) over (node, direction) states,
    run as a layered search over int bitmasks, one bit per node in
    sorted-name order; the conditioning set is enlarged to its
    functional-dependency closure first.  Each side is a collection of
    symbols: a bare str is refused, not split into characters.
    """
    a, b, c = _symbols(a, "a"), _symbols(b, "b"), _symbols(c, "c")
    _validate_query(dag, a, b, c)
    bit, parents, children = dag._masks
    z = _mask(bit, determined_closure(c, dag.dependencies) & dag.node_names)
    an_z = frontier = z
    while frontier:
        frontier = _spread(frontier, parents) & ~an_z
        an_z |= frontier
    hit = _mask(bit, b) & ~z
    # "up" holds the nodes a trail arrived at from a child (or query
    # sources), "down" those it arrived at from a parent
    up, down = _mask(bit, a), 0
    seen_up, seen_down = up, 0
    while up | down:
        if (up | down) & hit:
            return False
        free = up & ~z
        next_up = _spread(free | down & an_z, parents)
        next_down = _spread(free | down & ~z, children)
        up, down = next_up & ~seen_up, next_down & ~seen_down
        seen_up |= up
        seen_down |= down
    return True

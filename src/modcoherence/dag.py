"""Directed acyclic graphs over named nodes with an exact d-separation oracle.

Separation queries may condition through declared functional dependencies:
the conditioning set is first closed under "is a function of" facts, which is
sound because deterministic functions of observed symbols carry no extra
information.  With no dependencies declared this is standard d-separation.
Every ``Dag`` is checked when it is made.  A query is Shachter's Bayes-ball
run over int bitmasks, one bit per node in sorted-name order, and reads
every mask that depends on the graph alone (parents, children and
dependencies) from a table its ``Dag`` builds once.
"""

from __future__ import annotations

import functools
from graphlib import CycleError, TopologicalSorter
from typing import Iterable

from . import ModcoherenceError, Record
from .ci import (
    FunctionalDependency,
    Symbol,
    VarSet,
    _determined_mask,
    _symbols,
    normalize,
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


class Dag(Record):
    nodes: tuple[Symbol, ...]
    edges: tuple[tuple[Symbol, Symbol], ...]
    dependencies: tuple[FunctionalDependency, ...] = ()

    def _validate(self) -> None:
        """Refuse, in this order, a name that is not a str, duplicate nodes,
        an edge with an undeclared endpoint or a self-loop, a cycle (named by
        its path) and a dependency on a symbol that is not a node."""
        nodes, edges = self.nodes, self.edges
        for n in (*nodes, *(end for edge in edges for end in edge)):
            if not isinstance(n, str):
                raise DagError(f"node names must be strings, got {n!r}")
        if len(self.node_names) != len(nodes):
            dupes = sorted({n for n in nodes if nodes.count(n) > 1})
            raise DuplicateNode(f"duplicate node names: {dupes}")
        for u, v in edges:
            if u not in self.node_names or v not in self.node_names:
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
        for dep in self.dependencies:
            stray = (dep.determined | dep.determiners) - self.node_names
            if stray:
                raise UnknownSymbol(f"dependency mentions undeclared nodes: {sorted(stray)}")

    @functools.cached_property
    def node_names(self) -> VarSet:
        return frozenset(self.nodes)

    @functools.cached_property
    def _masks(self) -> tuple:
        """Each node's bit, in sorted-name order; each node's parent and
        child masks by position; and each dependency as a
        ``(determiners, determined)`` pair of masks."""
        pos = {n: k for k, n in enumerate(sorted(self.nodes))}
        parents, children = [0] * len(pos), [0] * len(pos)
        for u, v in self.edges:
            ku, kv = pos[u], pos[v]
            parents[kv] |= 1 << ku
            children[ku] |= 1 << kv
        bit = {n: 1 << k for n, k in pos.items()}
        deps = tuple((_mask(bit, d.determiners), _mask(bit, d.determined))
                     for d in self.dependencies)
        return bit, tuple(parents), tuple(children), deps


def build_dag(
    nodes: Iterable[Symbol],
    edges: Iterable[tuple[Symbol, Symbol]],
    dependencies: Iterable[FunctionalDependency] = (),
) -> Dag:
    """A ``Dag`` of these nodes, edges (each a pair) and dependencies, each
    read into a tuple; the ``Dag`` checks itself, see :meth:`Dag._validate`."""
    return Dag(tuple(nodes), tuple((u, v) for u, v in edges), tuple(dependencies))


def _side_mask(bit: dict[Symbol, int], side: VarSet, field: str) -> int:
    """The mask of ``side``, a frozenset, checked in the same OR pass: a name
    that is not a str is refused as :func:`_symbols` refuses it, and a side
    naming a str that is not a node gets -1."""
    mask = 0  # an OR loop: half the time of sum(map(...)) on a one- or two-name side
    try:
        for name in side:
            if name.__class__ is not str:  # even one equal to a node's name; a str subclass passes
                _symbols(side, field)
            mask |= bit[name]
    except KeyError:
        _symbols(side, field)  # raises for a name that is not a str
        return -1
    return mask


def _refuse(dag: Dag, a: VarSet, b: VarSet, c: VarSet) -> None:
    """Raise the error of a query whose sides, each a set of str, name a
    symbol that is not a node, or are empty or overlap as :func:`normalize`
    refuses them."""
    stray = sorted((a | b | c) - dag.node_names)
    if stray:
        raise UnknownSymbol(f"query mentions undeclared nodes: {stray}")
    normalize(a, b, c)  # raises EmptySide or OverlappingSets


def _mask(bit: dict[Symbol, int], names: Iterable[Symbol]) -> int:
    mask = 0  # an OR loop: half the time of sum(map(...)) on a one- or two-name side
    for name in names:
        mask |= bit[name]
    return mask


def d_separated(
    dag: Dag,
    a: Iterable[Symbol],
    b: Iterable[Symbol],
    c: Iterable[Symbol] = (),
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Active-trail reachability (Shachter's Bayes-ball) over (node,
    direction) states, run as a layered search over int bitmasks, one bit
    per node in sorted-name order; the conditioning set is enlarged to its
    functional-dependency closure first.  A query reads the graph's parent,
    child and dependency masks from ``dag``'s own table, made on its first
    query, and the closure runs over the dependency masks.  A trail that
    reaches an observed node from a parent bounces back up to that node's
    parents, so a collider with an observed descendant is passed through
    along the directed path down to it and back.  Each side is a
    collection of symbols: a bare str is refused, not split into characters.
    A ``frozenset`` side is checked in the OR pass that makes its mask; any
    other side is read through :func:`ci._symbols` first.  A name that is
    not a str, a name that is not a node, an empty side and overlapping
    sides are refused in that order of precedence.
    """
    bit, parents, children, deps = dag._masks
    if a.__class__ is not frozenset:
        a = _symbols(a, "a")
    am = _side_mask(bit, a, "a")
    if b.__class__ is not frozenset:
        b = _symbols(b, "b")
    bm = _side_mask(bit, b, "b")
    if c.__class__ is not frozenset:
        c = _symbols(c, "c")
    cm = _side_mask(bit, c, "c")
    if am <= 0 or bm <= 0 or cm < 0 or am & bm or am & cm or bm & cm:
        _refuse(dag, a, b, c)
    z = _determined_mask(cm, deps)
    hit = bm & ~z
    # "up" holds the nodes a trail arrived at from a child (or query
    # sources), "down" those it arrived at from a parent; each layer ORs
    # the parents of the nodes it leaves upward and the children of those
    # it leaves downward
    up, down = am, 0
    seen_up, seen_down = up, 0
    while up | down:
        if (up | down) & hit:
            return False
        free = up & ~z
        to_parents, to_children = free | down & z, free | down & ~z
        up = down = 0
        while to_parents:
            k = to_parents.bit_length() - 1
            up |= parents[k]
            to_parents ^= 1 << k
        while to_children:
            k = to_children.bit_length() - 1
            down |= children[k]
            to_children ^= 1 << k
        up &= ~seen_up
        down &= ~seen_down
        seen_up |= up
        seen_down |= down
    return True

"""The bitmask d-separation search versus the per-state reference search.

``tests.oracles.d_separated_reference`` walks (node, direction) states
through sets and a deque; ``d_separated`` runs the same moves as a layered
search over int bitmasks.  They must agree on every query, with and without
declared functional dependencies, which ``test_dsep_networkx.py`` cannot
check.  Each query is asked with ``set`` sides and with ``frozenset``
sides, the type a verdict passes (see ``oracles.d_separated_both_ways``).
Needs numpy only; each test pins how many queries it checked and
how many of them were separated, so a sweep that shrinks shows.  The
reference takes the ancestors of the conditioning set, an(Z), where
``d_separated`` bounces at an observed node, so the two reach the same
answers by different algorithms; named tests pin the bounce, and every
collider of the random DAGs and the templates is checked to open given any
one of its descendants.  A ``Dag`` made directly is checked when it is
made, as ``build_dag`` checks it.  The reference refuses an empty side or
overlapping sides with :func:`normalize`'s own errors, as ``d_separated``
does.
"""

import itertools
import random
import re

import pytest

from modcoherence.ci import EmptySide, FunctionalDependency, OverlappingSets, normalize
from modcoherence.dag import CycleDetected, Dag, UnknownSymbol, build_dag, d_separated
from modcoherence.protocol import build_system, canonical_dag, confounded_dag

from .oracles import adjacency, d_separated_both_ways, d_separated_reference, descendants


def random_dag(rng: random.Random, n: int):
    """A random DAG over n nodes, names shuffled against the topological
    order, with 0-3 random functional dependencies between its nodes."""
    order = [f"v{k}" for k in range(n)]
    rng.shuffle(order)
    p = 2 * rng.uniform(0.5, 2.5) / (n - 1)
    edges = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if rng.random() < p]
    deps = []
    for _ in range(rng.randint(0, 3)):
        picked = rng.sample(order, rng.randint(2, 4))
        cut = rng.randint(1, len(picked) - 1)
        deps.append(FunctionalDependency(frozenset(picked[:cut]), frozenset(picked[cut:])))
    return build_dag(order, edges, deps)


def random_query(rng: random.Random, names: list):
    """Disjoint sides: a and b of 1-3 nodes, c of the rest of 2-12 picked."""
    picked = rng.sample(names, min(len(names), rng.randint(2, 12)))
    a_end = rng.randint(1, min(3, len(picked) - 1))
    b_end = rng.randint(a_end + 1, min(a_end + 3, len(picked)))
    return set(picked[:a_end]), set(picked[a_end:b_end]), set(picked[b_end:])


def agree(dag, queries) -> tuple[int, int]:
    checked = separated = 0
    for a, b, c in queries:
        ours = d_separated_both_ways(dag, a, b, c)
        assert ours == d_separated_reference(dag, a, b, c), (sorted(a), sorted(b), sorted(c))
        checked += 1
        separated += ours
    return checked, separated


def test_random_dags_with_dependencies():
    rng = random.Random(1998)
    checked = separated = 0
    for _ in range(200):
        dag = random_dag(rng, rng.randint(4, 90))
        got = agree(dag, [random_query(rng, list(dag.nodes)) for _ in range(50)])
        checked += got[0]
        separated += got[1]
    assert (checked, separated) == (10_000, 3217)


@pytest.mark.parametrize("template, m, pinned", [
    (canonical_dag, 2, (2088, 890)), (confounded_dag, 2, (3330, 1202)),
    (canonical_dag, 3, (19_320, 7730)), (confounded_dag, 3, (25_440, 8152)),
], ids=["canonical-2", "confounded-2", "canonical-3", "confounded-3"])
def test_every_singleton_query_on_the_templates(template, m, pinned):
    """Every ordered pair of nodes, given every context of at most two nodes."""
    dag = template(build_system(m))
    names = sorted(dag.nodes)
    queries = []
    for x, y in itertools.permutations(names, 2):
        rest = [n for n in names if n not in (x, y)]
        for size in range(3):
            queries.extend(({x}, {y}, set(c)) for c in itertools.combinations(rest, size))
    assert agree(dag, queries) == pinned


@pytest.mark.parametrize("template, m, pinned", [
    (canonical_dag, 8, (166, 43)), (confounded_dag, 8, (166, 18)),
    (canonical_dag, 32, (214, 68)), (confounded_dag, 32, (214, 7)),
], ids=["canonical-8", "confounded-8", "canonical-32", "confounded-32"])
def test_a_sample_past_64_nodes(template, m, pinned):
    """m = 8 has 75 system symbols and m = 32 has 1,059, so the masks pass
    64 bits; the sample mixes singleton queries with the goals' shapes."""
    system = build_system(m)
    dag = template(system)
    rng = random.Random(m)
    names = sorted(dag.nodes)
    queries = [random_query(rng, names) for _ in range(150)]
    for i in range(1, m + 1):
        queries.append(({system.theta(i)}, system.theta_rest(i), {system.full_pool}))
        queries.append(({system.theta(i)}, {system.full_pool},
                        {system.common, system.evidence(i, i)}))
    assert agree(dag, queries) == pinned


def collider_queries(dag) -> list:
    """For each node X, each pair p, q of its parents and each d that is X
    or a descendant of X: the query p _||_ q | d, which the path p -> X <- q
    makes d-connected when no dependency is declared."""
    parents, _ = adjacency(dag.edges)
    queries = []
    for x in sorted(dag.nodes):
        below = sorted(descendants(dag, x) | {x})
        for p, q in itertools.combinations(sorted(parents.get(x, ())), 2):
            queries.extend(({p}, {q}, {d}) for d in below)
    return queries


def test_every_collider_is_opened_by_its_descendants_on_random_dags():
    """On the random DAGs of ``test_random_dags_with_dependencies``, without
    their dependencies: a search that does not bounce at an observed
    descendant leaves some of these blocked."""
    rng = random.Random(1998)
    checked = 0
    for _ in range(200):
        dag = random_dag(rng, rng.randint(4, 90))
        got = agree(Dag(dag.nodes, dag.edges), collider_queries(dag))
        assert got[1] == 0
        checked += got[0]
    assert checked == 46_240


@pytest.mark.parametrize("template", [canonical_dag, confounded_dag])
@pytest.mark.parametrize("m, pinned", [(2, 14), (3, 43), (4, 115), (5, 266), (6, 544),
                                       (7, 1009), (8, 1733)])
def test_every_collider_is_opened_by_its_descendants_on_the_templates(template, m, pinned):
    """The templates' edges without the system's dependencies, which may pin
    a collider's parent and so block the query."""
    dag = template(build_system(m))
    assert agree(Dag(dag.nodes, dag.edges), collider_queries(dag)) == (pinned, 0)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_trail_bounces_at_an_observed_descendant_of_a_collider(depth):
    """A -> X <- B with X -> D1 -> ... -> Dk and only Dk observed: the trail
    from A runs down to Dk, bounces up its parents back to X and on to B.
    Unobserved, or given a node that is no descendant of X, the collider
    blocks."""
    chain = [f"D{k}" for k in range(1, depth + 1)]
    path = ["X", *chain]
    dag = build_dag(["A", "B", "C", "X", *chain],
                    [("A", "X"), ("B", "X"), ("C", "A"), *zip(path, path[1:])])
    queries = [({"A"}, {"B"}, {chain[-1]}), ({"A"}, {"B"}, set()), ({"A"}, {"B"}, {"C"}),
               ({"C"}, {"B"}, {chain[-1]}), ({"C"}, {"B"}, {"A", chain[-1]})]
    assert [d_separated(dag, *q) for q in queries] == [False, True, True, False, True]
    assert agree(dag, queries) == (5, 3)


def test_a_bounce_returns_through_a_second_parent():
    """The collider X reaches its observed descendant D only through W, the
    second of D's parents V and W, and B joins X only through its parent P:
    the bounce at D goes up to both parents, and only the trail up through W
    and X reaches B."""
    dag = build_dag(["A", "B", "D", "P", "V", "W", "X"],
                    [("A", "X"), ("P", "X"), ("B", "P"), ("X", "W"), ("W", "D"), ("V", "D")])
    queries = [({"A"}, {"B"}, {"D"}), ({"A"}, {"B"}, set()), ({"A"}, {"B"}, {"V"}),
               ({"A"}, {"V"}, {"D"}), ({"A"}, {"B"}, {"D", "W"}), ({"A"}, {"B"}, {"D", "P"})]
    assert [d_separated(dag, *q) for q in queries] == [False, True, True, False, False, True]
    assert agree(dag, queries) == (6, 3)


def test_a_dependency_through_a_symbol_that_is_not_a_node():
    """C pins T and T pins A, where T is no node: ``Dag`` refuses T when it
    is made, with ``build_dag``'s error, and no query reaches the table."""
    with pytest.raises(UnknownSymbol, match=r"^dependency mentions undeclared nodes: \['T'\]$"):
        Dag(("A", "B", "C", "D", "E"), (("A", "B"), ("A", "D"), ("B", "E"), ("D", "E")), (
            FunctionalDependency(frozenset({"T"}), frozenset({"C"})),
            FunctionalDependency(frozenset({"A"}), frozenset({"T"})),
        ))


def test_a_cycle_in_a_dag_made_directly_is_refused():
    """With the path that ``build_dag`` names."""
    with pytest.raises(CycleDetected, match="^nodes are in a cycle: B -> C -> B$"):
        Dag(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "B")))


@pytest.mark.parametrize("error, a, b, c", [
    (EmptySide, [], ["y"], []), (EmptySide, ["x"], [], ["z"]),
    (OverlappingSets, ["x"], ["x"], []), (OverlappingSets, ["x"], ["y"], ["x"]),
    (OverlappingSets, ["x"], ["y"], ["y"]), (OverlappingSets, ["x", "z"], ["y"], ["z"]),
])
def test_the_reference_refuses_a_query_as_normalize_does(error, a, b, c):
    dag = build_dag(["x", "y", "z"], [("x", "y")])
    with pytest.raises(error) as refused:
        normalize(a, b, c)
    with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
        d_separated_reference(dag, a, b, c)

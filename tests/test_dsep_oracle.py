"""Separation oracle and prover versus exact enumeration.

Every query the d-separation routine certifies as independent must hold as an
exact conditional independence in a full-enumeration joint built from random
conditional probability tables (entries in [0.05, 0.95]).  Covers fully
random DAGs, the canonical small structure classes, and graphs whose
aggregate nodes are the tuples of their parents, with the functional
dependencies that make them; each of these queries is asked with ``set``
and with ``frozenset`` sides, which must agree.  On the last kind, every
statement the prover derives from statements the graph certifies must hold
too.
"""

import numpy as np
import pytest

from modcoherence.ci import aggregate_dependencies
from modcoherence.dag import build_dag, d_separated
from modcoherence.protocol import (
    AxiomaticMode,
    base_statements,
    build_system,
    canonical_dag,
    confounded_dag,
    verify_coherence,
)

from .oracles import (
    aggregate_dag_joint,
    all_small_queries,
    ci_holds,
    d_separated_both_ways,
    local_markov_basis,
    random_dag_instance,
    structured_dag_instance,
)

TOL = 1e-10


def confirm_all_certificates(order, edges, joint, queries) -> tuple[int, int]:
    dag = build_dag(order, edges)
    index = {n: i for i, n in enumerate(order)}
    certified = confirmed = 0
    for a, b, c in queries:
        names = lambda idxs: {order[i] for i in idxs}
        if d_separated_both_ways(dag, names(a), names(b), names(c)):
            certified += 1
            if ci_holds(joint, a, b, c, tol=TOL):
                confirmed += 1
    return certified, confirmed


def test_random_dags_no_false_certificates():
    rng = np.random.default_rng(42)
    total_certified = 0
    for k in range(120):
        n = int(rng.integers(3, 7))
        order, edges, joint = random_dag_instance(rng, n)
        queries = all_small_queries(n, rng, count=12)
        certified, confirmed = confirm_all_certificates(order, edges, joint, queries)
        assert certified == confirmed, f"false certificate on instance {k}"
        total_certified += certified
    assert total_certified > 100  # the sweep actually exercised the oracle


@pytest.mark.parametrize("kind", ["chain", "fork", "collider", "diamond"])
def test_structure_classes_no_false_certificates(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    total_certified = 0
    for _ in range(100):
        order, edges, joint = structured_dag_instance(rng, kind)
        n = len(order)
        queries = all_small_queries(n, rng, count=10)
        certified, confirmed = confirm_all_certificates(order, edges, joint, queries)
        assert certified == confirmed
        total_certified += certified
    assert total_certified > 0


def test_dependent_queries_are_not_certified():
    """Sanity direction: on a chain with strong CPTs the unconditioned
    endpoints are dependent and must not be certified."""
    rng = np.random.default_rng(7)
    order, edges, joint = structured_dag_instance(rng, "chain")
    dag = build_dag(order, edges)
    assert not d_separated(dag, {"v0"}, {"v2"})
    # faithfulness is not assumed, so only check the certified direction holds
    assert d_separated(dag, {"v0"}, {"v2"}, {"v1"})
    assert ci_holds(joint, {0}, {2}, {1}, tol=TOL)


@pytest.mark.parametrize(
    "template, pinned",
    [(canonical_dag, (1923, 1243)), (confounded_dag, (1887, 1184))],
    ids=["canonical", "confounded"],
)
def test_templates_with_dependencies_no_false_certificates(template, pinned):
    """Graphical ``check`` closes Z under the aggregates' dependencies before
    it searches the graph.  With each aggregate the tuple of its parents the
    joint honours those dependencies, so every certificate must hold; the
    second pinned count is of those the graph alone does not give."""
    system = build_system(2)
    dag = template(system)
    bare = build_dag(dag.nodes, dag.edges)
    rng = np.random.default_rng(2018)
    joint = aggregate_dag_joint(rng, dag, {symbol for symbol, _ in system.aggregates})
    certified = through_dependencies = 0
    for query in all_small_queries(len(dag.nodes), rng, count=3000):
        a, b, c = ({dag.nodes[i] for i in side} for side in query)
        if d_separated_both_ways(dag, a, b, c):
            certified += 1
            through_dependencies += not d_separated_both_ways(bare, a, b, c)
            assert ci_holds(joint, *query, tol=TOL), (a, b, c)
    assert (certified, through_dependencies) == pinned


def test_random_dags_with_aggregates_no_false_certificates():
    """Random DAGs in which one or two nodes with parents are the tuple of
    their parents, declared through ``aggregate_dependencies``; the second
    pinned count is of the certificates the graph alone does not give."""
    rng = np.random.default_rng(1807)
    certified = through_dependencies = 0
    for k in range(150):
        n = int(rng.integers(4, 7))
        order, edges, _ = random_dag_instance(rng, n)
        parents = {node: sorted(u for u, v in edges if v == node) for node in order}
        candidates = [node for node in order if parents[node]]
        count = min(len(candidates), int(rng.integers(1, 3)))
        aggregates = {candidates[i] for i in rng.choice(len(candidates), size=count, replace=False)}
        deps = [d for node in sorted(aggregates) for d in aggregate_dependencies(node, parents[node])]
        dag = build_dag(order, edges, deps)
        bare = build_dag(order, edges)
        joint = aggregate_dag_joint(rng, dag, aggregates)
        for query in all_small_queries(n, rng, count=20):
            a, b, c = ({order[i] for i in side} for side in query)
            if d_separated_both_ways(dag, a, b, c):
                certified += 1
                through_dependencies += not d_separated_both_ways(bare, a, b, c)
                assert ci_holds(joint, *query, tol=TOL), (k, a, b, c)
    assert (certified, through_dependencies) == (1733, 615)


def test_prover_statements_hold_on_the_canonical_joint():
    """Every statement of every goal proof and condition witness that the
    prover finds at m = 2, from the canonical graph's local Markov basis and
    from the four conditions, holds in a joint that is Markov to the graph
    with each aggregate the tuple of its parents.  The conditions hold there,
    since the graph certifies them, and the rules are sound."""
    system = build_system(2)
    dag = canonical_dag(system)
    joint = aggregate_dag_joint(
        np.random.default_rng(2018), dag, {symbol for symbol, _ in system.aggregates}
    )
    index = {node: i for i, node in enumerate(dag.nodes)}
    checked = []
    for base in (tuple(local_markov_basis(dag)), base_statements(system)):
        verdict = verify_coherence(system, AxiomaticMode(base))
        assert verdict.sound_and_distributed
        proofs = [goal.proof for goal in verdict.goals]
        proofs += [proof for condition in verdict.conditions for proof in condition.witnesses]
        statements = {stmt for proof in proofs for stmt in proof.statements()}
        for stmt in statements:
            sides = ({index[s] for s in side} for side in (stmt.a, stmt.b, stmt.c))
            assert ci_holds(joint, *sides, tol=TOL), stmt.render()
        checked.append(len(statements))
    # distinct statements per base
    assert checked == [81, 30]

"""Separation oracle versus exact enumeration.

Every query the d-separation routine certifies as independent must hold as an
exact conditional independence in a full-enumeration joint built from random
conditional probability tables (entries in [0.05, 0.95]).  Covers both fully
random DAGs and the canonical small structure classes.
"""

import numpy as np
import pytest

from modcoherence.dag import build_dag, d_separated
from modcoherence.protocol import build_system, canonical_dag, confounded_dag

from .oracles import (
    aggregate_dag_joint,
    all_small_queries,
    ci_holds,
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
        if d_separated(dag, names(a), names(b), names(c)):
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
        if d_separated(dag, a, b, c):
            certified += 1
            through_dependencies += not d_separated(bare, a, b, c)
            assert ci_holds(joint, *query, tol=TOL), (a, b, c)
    assert (certified, through_dependencies) == pinned

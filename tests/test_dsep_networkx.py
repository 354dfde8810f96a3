"""d-separation versus networkx on random dependency-free DAGs.

The brute-force oracle in ``test_dsep_oracle.py`` enumerates joint tables and
stops at a handful of nodes; networkx's ``is_d_separator`` is an independent
implementation that reaches 50 and 200 nodes.  Without declared functional
dependencies ``d_separated`` is standard d-separation, so the two must agree
on every query, asked with ``set`` and with ``frozenset`` sides.
"""

import random

import pytest

from modcoherence.dag import build_dag

from .oracles import d_separated_both_ways

nx = pytest.importorskip("networkx")


def random_dag(rng: random.Random, n: int, mean_parents: float):
    order = [f"v{k}" for k in range(n)]
    rng.shuffle(order)
    p = 2 * mean_parents / (n - 1)
    edges = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if rng.random() < p]
    return order, edges


def random_query(rng: random.Random, names: list[str]):
    a_size, b_size, c_size = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 8)
    picked = rng.sample(names, a_size + b_size + c_size)
    return set(picked[:a_size]), set(picked[a_size:a_size + b_size]), set(picked[a_size + b_size:])


@pytest.mark.parametrize("n, seed", [(50, 0), (50, 1), (200, 2)])
def test_d_separated_agrees_with_networkx(n, seed):
    rng = random.Random(seed)
    order, edges = random_dag(rng, n, mean_parents=1.5)
    dag = build_dag(order, edges)
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(order)
    answers = []
    for _ in range(200):
        a, b, c = random_query(rng, order)
        ours = d_separated_both_ways(dag, a, b, c)
        assert ours == nx.is_d_separator(graph, a, b, c), (sorted(a), sorted(b), sorted(c))
        answers.append(ours)
    assert any(answers) and not all(answers)

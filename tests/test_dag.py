"""Unit tests for DAG construction, d-separation and the local Markov basis."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import modcoherence
from modcoherence.ci import CIError, EmptySide, FunctionalDependency, OverlappingSets, normalize
from modcoherence.dag import (
    CycleDetected,
    DagError,
    DuplicateNode,
    UnknownEndpoint,
    UnknownSymbol,
    build_dag,
    d_separated,
)
from modcoherence.protocol import build_system, canonical_dag

from .oracles import local_markov_basis


class TestBuildDag:
    def test_valid_chain(self):
        dag = build_dag(["A", "B", "C"], [("A", "C"), ("C", "B")])
        assert dag.nodes == ("A", "B", "C") and dag.edges == (("A", "C"), ("C", "B"))

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_dag(["A", "B"], [("A", "B"), ("B", "A")])
        with pytest.raises(CycleDetected):
            build_dag(["A"], [("A", "A")])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build_dag(["A"], [("A", "Z")])

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            build_dag(["A", "A"], [])

    def test_names_are_kept_as_given(self):
        # a name is a string, never coerced: {1} would not find a node '1'
        with pytest.raises(DagError, match="node names must be strings, got 1"):
            build_dag([1, 2, 3], [(1, 3), (3, 2)])
        dag = build_dag(["1", "2", "3"], [("1", "3"), ("3", "2")])
        assert dag.nodes == ("1", "2", "3")
        assert d_separated(dag, {"1"}, {"2"}, {"3"})

    def test_mixed_name_types_are_not_duplicates(self):
        with pytest.raises(DagError, match="node names must be strings, got 1") as info:
            build_dag(["1", 1], [])
        assert not isinstance(info.value, DuplicateNode)

    @pytest.mark.parametrize("edge, shown", [((["A"], "A"), "['A']"), (("A", 1), "1"),
                                             (("A", None), "None")])
    def test_edge_endpoints_must_be_strings(self, edge, shown):
        # an unhashable endpoint raised a bare TypeError from the node lookup
        with pytest.raises(DagError, match=f"node names must be strings, got {re.escape(shown)}$"):
            build_dag(["A"], [edge])

    def test_dependency_symbols_validated(self):
        with pytest.raises(UnknownSymbol):
            build_dag(["A"], [], [FunctionalDependency(frozenset({"A"}), frozenset({"Z"}))])

    def test_cycle_reported_before_dependency_symbols(self):
        with pytest.raises(CycleDetected):
            build_dag(["A", "B"], [("A", "B"), ("B", "A")],
                      [FunctionalDependency(frozenset({"A"}), frozenset({"Z"}))])

    def test_cycle_message_is_the_same_under_every_hash_seed(self):
        # the sorter reads predecessors in edge order, so the cycle it names
        # does not follow the iteration order of a set of names
        code = ("from modcoherence.dag import build_dag, CycleDetected\n"
                "try:\n"
                "    build_dag(['A', 'B', 'C'], [('C', 'A'), ('B', 'C'), ('B', 'A'), ('C', 'B')])\n"
                "except CycleDetected as exc:\n"
                "    print(exc)")
        src = str(Path(modcoherence.__file__).resolve().parent.parent)
        path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        for seed in range(4):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=60, check=True)
            assert proc.stdout == "nodes are in a cycle: C -> B -> C\n"


class TestDSeparation:
    def test_blocked_chain(self):
        dag = build_dag(["A", "B", "C"], [("A", "C"), ("C", "B")])
        assert d_separated(dag, {"A"}, {"B"}, {"C"})
        assert not d_separated(dag, {"A"}, {"B"})

    def test_fork(self):
        dag = build_dag(["A", "B", "C"], [("C", "A"), ("C", "B")])
        assert d_separated(dag, {"A"}, {"B"}, {"C"})
        assert not d_separated(dag, {"A"}, {"B"})

    def test_collider_activation(self):
        dag = build_dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        assert d_separated(dag, {"A"}, {"B"})
        assert not d_separated(dag, {"A"}, {"B"}, {"C"})

    def test_collider_descendant_activation(self):
        dag = build_dag(["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")])
        assert not d_separated(dag, {"A"}, {"B"}, {"D"})

    def test_latent_confounder_opens_path(self):
        # two root parameters driving their own observations are separated;
        # adding a shared latent parent breaks that
        dag = build_dag(
            ["theta_1", "theta_2", "x_1", "x_2"],
            [("theta_1", "x_1"), ("theta_2", "x_2")],
        )
        assert d_separated(dag, {"theta_1"}, {"theta_2"})
        confounded = build_dag(
            dag.nodes + ("H",),
            dag.edges + (("H", "theta_1"), ("H", "theta_2")),
        )
        assert not d_separated(confounded, {"theta_1"}, {"theta_2"})

    def test_dependency_closure_extends_conditioning(self):
        # S is a deterministic aggregate of A; conditioning on S blocks the
        # chain through A even though A itself is not observed
        dag = build_dag(
            ["A", "B", "S"],
            [("A", "B"), ("A", "S")],
            [FunctionalDependency(frozenset({"A"}), frozenset({"S"}))],
        )
        assert d_separated(dag, {"S"}, {"B"}, {"A"})
        # and symmetrically the closure pins A once S is given
        dag2 = build_dag(
            ["A", "B", "C", "S"],
            [("A", "B"), ("A", "C"), ("A", "S")],
            [FunctionalDependency(frozenset({"A"}), frozenset({"S"}))],
        )
        assert d_separated(dag2, {"B"}, {"C"}, {"S"})
        assert not d_separated(dag2, {"B"}, {"C"})

    def test_query_validation(self):
        dag = build_dag(["A", "B"], [])
        with pytest.raises(UnknownSymbol):
            d_separated(dag, {"A"}, {"Z"})
        with pytest.raises(Exception):
            d_separated(dag, {"A"}, {"A"})

    def test_str_side_is_refused_not_split(self):
        # "BD" read as {"B", "D"} conditioned on the collider B and answered
        dag = build_dag(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("D", "B")])
        with pytest.raises(CIError, match="^c must be a collection of symbols, got 'BD'$"):
            d_separated(dag, {"A"}, {"C"}, "BD")
        with pytest.raises(CIError, match="^a must be a collection of symbols, got 'A'$"):
            d_separated(dag, "A", {"C"}, {"B"})
        # a one-name side given as a str listed its characters as unknown nodes
        with pytest.raises(CIError, match="^a must be a collection of symbols, got 'theta_1'$"):
            d_separated(canonical_dag(build_system(2)), "theta_1", "theta_2", "I_+^0")

    @pytest.mark.parametrize("side", [[1], ["A", None], [("A",)], None, 3])
    def test_non_str_member_is_refused(self, side):
        dag = build_dag(["A", "B"], [("A", "B")])
        for sides in ((side, {"B"}, ()), ({"A"}, side, ()), ({"A"}, {"B"}, side)):
            with pytest.raises(CIError, match="must be a collection of symbols"):
                d_separated(dag, *sides)

    @pytest.mark.parametrize("a, b", [([], ["y"]), (["x"], [])])
    def test_empty_side_is_refused_as_normalize_refuses_it(self, a, b):
        dag = build_dag(["x", "y"], [("x", "y")])
        with pytest.raises(EmptySide) as refused:
            normalize(a, b)
        with pytest.raises(EmptySide, match=f"^{re.escape(str(refused.value))}$"):
            d_separated(dag, a, b)

    @pytest.mark.parametrize("a, b, c", [(["x"], ["x"], []), (["x"], ["y"], ["x"]),
                                         (["x"], ["y"], ["y"]), (["x", "z"], ["y"], ["z"])])
    def test_overlapping_sets_are_refused_as_normalize_refuses_them(self, a, b, c):
        dag = build_dag(["x", "y", "z"], [("x", "y")])
        with pytest.raises(OverlappingSets) as refused:
            normalize(a, b, c)
        with pytest.raises(OverlappingSets, match=f"^{re.escape(str(refused.value))}$"):
            d_separated(dag, a, b, c)


class TestLocalMarkovBasis:
    def test_chain(self):
        dag = build_dag(["A", "B", "C"], [("A", "C"), ("C", "B")])
        assert normalize({"B"}, {"A"}, {"C"}) in local_markov_basis(dag)

    def test_single_node_empty(self):
        assert local_markov_basis(build_dag(["A"], [])) == frozenset()

    def test_disconnected_pair(self):
        dag = build_dag(["A", "B"], [])
        assert local_markov_basis(dag) == frozenset({normalize({"A"}, {"B"})})

    def test_basis_statements_are_separated(self):
        dag = build_dag(
            ["A", "B", "C", "D"],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        )
        for stmt in local_markov_basis(dag):
            assert d_separated(dag, stmt.a, stmt.b, stmt.c)


@settings(deadline=None, max_examples=40)
@given(st.permutations(["A", "B", "C", "D"]), st.lists(st.booleans(), min_size=6, max_size=6))
def test_d_separated_invariant_under_relabeling(perm, mask):
    """Renaming nodes consistently leaves every separation answer unchanged."""
    base_names = ["A", "B", "C", "D"]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges = [(base_names[i], base_names[j]) for (i, j), keep in zip(pairs, mask) if keep]
    rename = dict(zip(base_names, perm))
    dag = build_dag(base_names, edges)
    relabeled = build_dag(
        [rename[n] for n in base_names],
        [(rename[u], rename[v]) for u, v in edges],
    )
    for a in base_names:
        for b in base_names:
            if a >= b:
                continue
            rest = [n for n in base_names if n not in (a, b)]
            for c in ([], rest[:1], rest):
                got = d_separated(dag, {a}, {b}, set(c))
                want = d_separated(relabeled, {rename[a]}, {rename[b]}, {rename[x] for x in c})
                assert got == want

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
    Dag,
    DagError,
    DuplicateNode,
    UnknownEndpoint,
    UnknownSymbol,
    build_dag,
    d_separated,
)
from modcoherence.protocol import build_system, canonical_dag

from .oracles import local_markov_basis

# the side types a query may take: a verdict passes frozensets, which
# d_separated checks in its mask pass, and reads any other through
# ci._symbols first
SIDE_TYPES = [frozenset, set, list, tuple]


def refused(error, nodes, edges, deps=(), match=None) -> Exception:
    """The error ``build_dag`` raises, after checking that a ``Dag`` made
    directly of the same tuples raises the same class and message."""
    with pytest.raises(error, match=match) as built:
        build_dag(nodes, edges, deps)
    with pytest.raises(error) as made:
        Dag(tuple(nodes), tuple(edges), tuple(deps))
    assert type(made.value) is type(built.value) and str(made.value) == str(built.value)
    return built.value


class TestBuildDag:
    def test_valid_chain(self):
        dag = build_dag(["A", "B", "C"], [("A", "C"), ("C", "B")])
        assert dag.nodes == ("A", "B", "C") and dag.edges == (("A", "C"), ("C", "B"))

    def test_cycle_detected(self):
        refused(CycleDetected, ["A", "B"], [("A", "B"), ("B", "A")],
                match="^nodes are in a cycle: B -> A -> B$")
        refused(CycleDetected, ["A"], [("A", "A")], match="^self-loop at A$")

    def test_unknown_endpoint(self):
        refused(UnknownEndpoint, ["A"], [("A", "Z")],
                match="^edge A->Z references an undeclared node$")

    def test_duplicate_node(self):
        refused(DuplicateNode, ["A", "A"], [], match=re.escape("duplicate node names: ['A']"))

    def test_names_are_kept_as_given(self):
        # a name is a string, never coerced: {1} would not find a node '1'
        refused(DagError, [1, 2, 3], [(1, 3), (3, 2)], match="node names must be strings, got 1")
        dag = build_dag(["1", "2", "3"], [("1", "3"), ("3", "2")])
        assert dag.nodes == ("1", "2", "3")
        assert d_separated(dag, {"1"}, {"2"}, {"3"})

    def test_mixed_name_types_are_not_duplicates(self):
        error = refused(DagError, ["1", 1], [], match="node names must be strings, got 1")
        assert not isinstance(error, DuplicateNode)

    @pytest.mark.parametrize("edge, shown", [((["A"], "A"), "['A']"), (("A", 1), "1"),
                                             (("A", None), "None")])
    def test_edge_endpoints_must_be_strings(self, edge, shown):
        # an unhashable endpoint raised a bare TypeError from the node lookup
        refused(DagError, ["A"], [edge], match=f"node names must be strings, got {re.escape(shown)}$")

    def test_dependency_symbols_validated(self):
        refused(UnknownSymbol, ["A"], [], [FunctionalDependency(frozenset({"A"}), frozenset({"Z"}))],
                match=re.escape("dependency mentions undeclared nodes: ['Z']"))

    def test_cycle_reported_before_dependency_symbols(self):
        refused(CycleDetected, ["A", "B"], [("A", "B"), ("B", "A")],
                [FunctionalDependency(frozenset({"A"}), frozenset({"Z"}))])

    def test_cycle_message_is_the_same_under_every_hash_seed(self):
        # the sorter reads predecessors in edge order, so the cycle it names
        # does not follow the iteration order of a set of names
        code = ("from modcoherence.dag import build_dag, CycleDetected, Dag\n"
                "nodes, edges = ('A', 'B', 'C'), (('C', 'A'), ('B', 'C'), ('B', 'A'), ('C', 'B'))\n"
                "for make in (build_dag, Dag):\n"
                "    try:\n"
                "        make(nodes, edges)\n"
                "    except CycleDetected as exc:\n"
                "        print(exc)")
        src = str(Path(modcoherence.__file__).resolve().parent.parent)
        path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        for seed in range(4):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=60, check=True)
            assert proc.stdout == "nodes are in a cycle: C -> B -> C\n" * 2


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

    @pytest.mark.parametrize("kind", SIDE_TYPES)
    def test_query_validation(self, kind):
        dag = build_dag(["A", "B"], [])
        with pytest.raises(UnknownSymbol, match=r"^query mentions undeclared nodes: \['Z'\]$"):
            d_separated(dag, kind({"A"}), kind({"Z"}))
        with pytest.raises(OverlappingSets, match=r"^sides must be pairwise disjoint: "
                                                  r"\(\['A'\], \['A'\], \[\]\)$"):
            d_separated(dag, kind({"A"}), kind({"A"}))

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

    @pytest.mark.parametrize("kind", SIDE_TYPES)
    @pytest.mark.parametrize("side", [[1], ["A", None], [("A",)], None, 3])
    def test_non_str_member_is_refused(self, kind, side):
        dag = build_dag(["A", "B"], [("A", "B")])
        side = side if side is None or side == 3 else kind(side)
        for sides in ((side, {"B"}, ()), ({"A"}, side, ()), ({"A"}, {"B"}, side)):
            sides = [s if s is side else kind(s) for s in sides]
            with pytest.raises(CIError, match="must be a collection of symbols"):
                d_separated(dag, *sides)

    @pytest.mark.parametrize("kind", SIDE_TYPES)
    @pytest.mark.parametrize("a, b", [([], ["y"]), (["x"], [])])
    def test_empty_side_is_refused_as_normalize_refuses_it(self, kind, a, b):
        dag = build_dag(["x", "y"], [("x", "y")])
        with pytest.raises(EmptySide) as refused:
            normalize(a, b)
        with pytest.raises(EmptySide, match=f"^{re.escape(str(refused.value))}$"):
            d_separated(dag, kind(a), kind(b))

    @pytest.mark.parametrize("kind", SIDE_TYPES)
    @pytest.mark.parametrize("a, b, c", [(["x"], ["x"], []), (["x"], ["y"], ["x"]),
                                         (["x"], ["y"], ["y"]), (["x", "z"], ["y"], ["z"])])
    def test_overlapping_sets_are_refused_as_normalize_refuses_them(self, kind, a, b, c):
        dag = build_dag(["x", "y", "z"], [("x", "y")])
        with pytest.raises(OverlappingSets) as refused:
            normalize(a, b, c)
        with pytest.raises(OverlappingSets, match=f"^{re.escape(str(refused.value))}$"):
            d_separated(dag, kind(a), kind(b), kind(c))

    @pytest.mark.parametrize("a, b, c, error, message", [
        (frozenset({"A"}), frozenset({"C"}), None, CIError,
         r"c must be a collection of symbols, got None"),
        (frozenset({"A"}), frozenset({"C"}), 3, CIError,
         r"c must be a collection of symbols, got 3"),
        (frozenset({"A"}), frozenset({"C"}), frozenset({1}), CIError,
         r"c must be a collection of symbols, got frozenset\(\{1\}\)"),
        (frozenset({1}), frozenset({"C"}), frozenset({"B"}), CIError,
         r"a must be a collection of symbols, got frozenset\(\{1\}\)"),
        (frozenset({"A"}), frozenset({"C"}), (n for n in [1]), CIError,
         r"c must be a collection of symbols, got <generator object .*>"),
        # a generator side is read once: its unknown node, its overlap
        (frozenset({"A"}), frozenset({"C"}), (n for n in ["Z"]), UnknownSymbol,
         r"query mentions undeclared nodes: \['Z'\]"),
        ((n for n in ["A"]), frozenset({"C"}), frozenset({"A"}), OverlappingSets,
         r"sides must be pairwise disjoint: \(\['A'\], \['C'\], \['A'\]\)"),
        # a name that is not a str outranks a name that is not a node, on
        # any side and within one side
        (frozenset({"Z"}), frozenset({"C"}), frozenset({1}), CIError,
         r"c must be a collection of symbols, got frozenset\(\{1\}\)"),
        (frozenset({"A"}), [None], frozenset({"Z"}), CIError,
         r"b must be a collection of symbols, got \[None\]"),
        (frozenset({"A"}), frozenset({"C"}), ["Z", 1], CIError,
         r"c must be a collection of symbols, got \['Z', 1\]"),
        # a name that is not a node outranks an empty side
        (frozenset(), frozenset({"C"}), frozenset({"Z"}), UnknownSymbol,
         r"query mentions undeclared nodes: \['Z'\]"),
    ], ids=["c-None", "c-3", "c-int-member", "a-int-member", "c-generator-int",
            "c-generator-unknown", "a-generator-overlap", "unknown-then-non-str",
            "non-str-list-then-unknown", "unknown-and-non-str-in-one-side",
            "unknown-then-empty"])
    def test_odd_sides_next_to_frozenset_sides(self, a, b, c, error, message):
        """Each refusal a ``frozenset`` side's mask pass makes, or that the
        pass hands back to the checks of any other side, keeps the class and
        message of a query read through ``ci._symbols`` side by side."""
        dag = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        with pytest.raises(error, match=f"^{message}$"):
            d_separated(dag, a, b, c)

    def test_a_generator_side_is_answered(self):
        dag = build_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert d_separated(dag, frozenset({"A"}), frozenset({"C"}), (n for n in ["B"]))
        assert not d_separated(dag, (n for n in ["A"]), frozenset({"C"}), frozenset())


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

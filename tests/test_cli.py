"""End-to-end tests of the spec-file parser and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcoherence
from modcoherence import cli
from modcoherence.protocol import ALL_CONDITIONS
from modcoherence.report import Report
from modcoherence.specfile import (
    MAX_BUDGET,
    MAX_GRID_CELLS,
    MAX_PANELS,
    ParseError,
    SpecError,
    UnknownVersion,
    UnresolvedSymbol,
    parse_spec,
    parse_spec_dict,
)

from .cli_runner import invoke

SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(modcoherence.__file__).resolve().parent.parent


def run(*args):
    return invoke(args)


def write_spec(tmp_path, payload, name="run.spec") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseSpec:
    def test_minimal_protocol_spec(self):
        spec = parse_spec_dict({"version": 1, "protocol": {"panels": 2}})
        assert spec.system.m == 2
        assert spec.run.grid == 101

    def test_unknown_version(self):
        with pytest.raises(UnknownVersion):
            parse_spec_dict({"version": "99"})

    def test_unresolved_symbol(self):
        with pytest.raises(UnresolvedSymbol):
            parse_spec_dict(
                {
                    "version": 1,
                    "protocol": {"panels": 2},
                    "goal": {"a": ["theta_9"], "b": ["theta_1"]},
                }
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError):
            parse_spec_dict({"version": 1, "panels": 2})

    def test_unknown_nested_key(self):
        with pytest.raises(ParseError):
            parse_spec_dict({"version": 1, "run": {"grid": 7, "gridd": 7}})

    def test_missing_version(self):
        with pytest.raises(ParseError):
            parse_spec_dict({"protocol": {"panels": 2}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.spec"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_spec(path)

    def test_graph_template_requires_protocol(self):
        with pytest.raises(SpecError):
            parse_spec_dict({"version": 1, "graph": {"template": "canonical"}})

    def test_explicit_graph(self):
        spec = parse_spec_dict(
            {
                "version": 1,
                "graph": {
                    "nodes": ["A", "B"],
                    "edges": [["A", "B"]],
                },
                "query": {"a": ["A"], "b": ["B"]},
            }
        )
        assert spec.dag.node_names == frozenset({"A", "B"})

    def test_each_statement_is_normalised_once(self, monkeypatch):
        """Two statements, a goal and a query make one ``normalize`` call
        each, and the query keeps its sides as written."""
        from modcoherence import ci

        calls = []
        normalize = ci.normalize
        monkeypatch.setattr(ci, "normalize", lambda *sides: calls.append(sides) or normalize(*sides))
        spec = parse_spec_dict(
            {
                "version": 1,
                "graph": {"nodes": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]]},
                "statements": [{"a": ["A"], "b": ["C"], "c": ["B"]}, {"a": ["C"], "b": ["A"]}],
                "goal": {"a": ["C"], "b": ["A"], "c": ["B"]},
                "query": {"a": ["C"], "b": ["A"], "c": ["B"]},
            }
        )
        assert len(calls) == 4
        assert spec.goal == normalize({"A"}, {"C"}, {"B"})
        assert spec.query == (frozenset({"C"}), frozenset({"A"}), frozenset({"B"}))

    def test_bundled_specs_all_parse(self):
        for path in sorted(SPECS.glob("*.spec")):
            parse_spec(path)


# (command, bundled spec, path to the replaced field, new value or _DROP,
#  text the error must contain); each of these was a traceback or a
#  silent misreading before the spec was type-checked at parse
_DROP = object()
_BAD_FIELDS = [
    ("simulate", "separable_pair", ["data", "panel_counts"], 5, "data.panel_counts"),
    ("check", "coherence_m2", ["statements"], 5, "statements"),
    ("check", "coherence_m2", ["protocol", "conditions"], 5, "protocol.conditions"),
    ("separability", "separable_pair", ["models", "interaction"], {"strength": "abc"},
     "models.interaction.strength"),
    ("separability", "separable_pair", ["run", "tolerance"], "x",
     "unknown key 'tolerance' in run"),
    ("simulate", "separable_pair", ["run", "grid"], "abc", "run.grid"),
    ("check", "coherence_m2", ["run", "budget"], "x", "run.budget"),
    ("check", "coherence_m2", ["run", "budget"], 0, "run.budget must be positive"),
    ("derive", "coherence_m2", ["run", "budget"], -1, "run.budget must be positive"),
    # the graph section alone decides how check decides
    ("check", "coherence_m2", ["run", "mode"], "axiomatic", "unknown key 'mode' in run"),
    ("check", "canonical_graph", ["run"], {"mode": "graphical"}, "unknown key 'mode' in run"),
    # a repeated condition would be ablated twice
    ("ablate", "coherence_m2", ["protocol", "conditions"], ["cutting", "delegable", "cutting"],
     "protocol.conditions lists 'cutting' twice"),
    # removed keys: the numeric check is exact, its bound derived from the
    # likelihood, nothing is random, and the confounder is always H
    ("separability", "separable_pair", ["run", "separability_samples"], 0,
     "unknown key 'separability_samples' in run"),
    ("separability", "separable_pair", ["models", "factors", 0, "panels"], _DROP,
     "models.factors[0].panels"),
    ("separability", "separable_pair", ["models", "factors", 0, "panels"], ["a"],
     "models.factors[0].panels"),
    ("separability", "separable_pair", ["models", "factors", 0, "panels"], [7],
     "models.factors[0].panels"),
    ("dsep", "chain_dsep", ["graph", "edges", 0], ["A"], "graph.edges[0]"),
    # a node is its name, so a node object is refused
    ("dsep", "chain_dsep", ["graph", "nodes", 0], {"kind": "parameter"},
     "graph.nodes must be a list of symbol names"),
    ("dsep", "chain_dsep", ["graph", "nodes", 0], {"name": "A", "kind": "parameter"},
     "graph.nodes must be a list of symbol names"),
    ("dsep", "chain_dsep", ["graph", "dependencies"], [{"determined": "A", "determiners": ["A"]}],
     "graph: 'A' cannot determine itself"),
    ("dsep", "chain_dsep", ["graph", "dependencies"], [{"determiners": ["A"]}],
     "graph dependency is missing 'determined'"),
    ("simulate", "separable_pair", ["models", "panels"], [{}] * 6, "run.grid"),
    ("check", "coherence_m2", ["protocol", "panels"], 2.5, "protocol.panels"),
    ("check", "coherence_m2", ["protocol", "panels"], 100000,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 100000"),
    # with one panel the conditions and goals about "the other panels" are
    # empty, so a composite has at least two
    ("check", "coherence_m2", ["protocol", "panels"], 1,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 1"),
    ("check", "coherence_m2", ["protocol", "panels"], 0,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 0"),
    ("derive", "coherence_m2", ["protocol", "panels"], 1,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 1"),
    ("ablate", "coherence_m2", ["protocol", "panels"], 1,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 1"),
    ("ablate", "coherence_m2", ["protocol", "panels"], 0,
     f"protocol.panels must be in 2..{MAX_PANELS}, got 0"),
    ("simulate", "separable_pair", ["models", "panels"], [{}],
     "models.panels must list at least two panels, got 1"),
    ("derive", "coherence_m2", ["statements"], [{"a": "theta_1", "b": ["theta_2"]}],
     "statements[0].a"),
    ("dsep", "chain_dsep", ["query", "a"], "AC", "query.a"),
    ("check", "coherence_m2", ["protocol"], _DROP, "check requires a protocol section"),
    ("derive", "coherence_m2", ["goal"], _DROP, "derive requires a goal section"),
    ("derive", "chain_dsep", ["goal"], {"a": ["A"], "b": ["B"], "c": ["C"]},
     "derive requires base statements (statements or protocol.conditions)"),
    ("derive", "coherence_m2", ["protocol", "conditions"], [],
     "derive requires base statements (statements or protocol.conditions)"),
    ("ablate", "coherence_m2", ["protocol"], _DROP, "ablate requires a protocol section"),
    ("simulate", "separable_pair", ["data"], _DROP, "requires models and data sections"),
    ("simulate", "food_example", ["data", "product_cell_counts"], _DROP,
     "models.product_cell and data.product_cell_counts must be given together"),
    ("simulate", "food_example", ["models", "product_cell"], _DROP,
     "models.product_cell and data.product_cell_counts must be given together"),
    ("simulate", "separable_pair", ["data", "panel_counts"], [[1, 2]],
     "models.panels and data.panel_counts must align"),
    ("check", "coherence_m2", ["run"], 5, "run must be an object"),
    ("derive", "coherence_m2", ["statements"], [{"a": ["theta_1"]}],
     "statements[0] is missing side 'b'"),
    ("derive", "coherence_m2", ["statements"], [{"a": ["theta_1"], "b": ["theta_1"]}],
     "statements[0]: sides must be pairwise disjoint"),
    ("simulate", "separable_pair", ["data", "panel_counts", 0], [1], "data.panel_counts[0]"),
    ("check", "coherence_m2", ["protocol", "panels"], _DROP, "protocol is missing the panel count"),
    ("check", "coherence_m2", ["protocol", "conditions"], ["bogus"], "unknown condition 'bogus'"),
    ("dsep", "chain_dsep", ["graph", "edges"], _DROP, "graph is missing 'edges'"),
    ("simulate", "food_example", ["run", "seed"], -1, "unknown key 'seed' in run"),
    # an interaction needs a second panel, as every composite does
    ("separability", "interaction_pair", ["models", "panels"], [{"prior": {"alpha": 2, "beta": 3}}],
     "models.panels must list at least two panels, got 1"),
    ("simulate", "interaction_pair", ["models", "panels"], [],
     "models.panels must list at least two panels, got 0"),
    # removed keys: labels that no computation read
    ("check", "coherence_m2", ["protocol", "epoch"], 0, "unknown key 'epoch' in protocol"),
    ("simulate", "separable_pair", ["models", "panels", 0, "likelihood"], "bernoulli",
     "unknown key 'likelihood' in models.panels[0]"),
    ("simulate", "separable_pair", ["models", "panels", 0, "prior", "family"], "beta",
     "unknown key 'family' in models.panels[0].prior"),
    # Beta parameters outside [2**-53, 2**53]: alpha + beta overflowed to a
    # mean of 0.0, and a vanishing cell mean divided by zero
    ("simulate", "separable_pair", ["models", "panels", 0, "prior", "alpha"], 2.0**-54,
     "models.panels[0].prior.alpha must be a number in [2**-53, 2**53]"),
    ("simulate", "separable_pair", ["models", "panels", 0, "prior", "beta"], 2**53 + 1,
     "models.panels[0].prior.beta must be a number in [2**-53, 2**53]"),
    ("simulate", "separable_pair", ["models", "panels", 0, "prior"],
     {"alpha": 1e308, "beta": 1e308}, "models.panels[0].prior.alpha"),
    ("simulate", "food_example", ["models", "product_cell", "prior", "alpha"], 5e-324,
     "models.product_cell.prior.alpha must be a number in [2**-53, 2**53]"),
    ("dsep", "chain_dsep", ["query"], {"a": [], "b": ["B"], "c": []},
     "query: independence sides must be non-empty"),
    ("separability", "separable_pair", ["run", "tolerance"], -1.0,
     "unknown key 'tolerance' in run"),
    ("simulate", "separable_pair", ["run", "grid"], 2, "run.grid must be at least 3"),
    # a template and an explicit graph are exclusive
    ("check", "canonical_graph", ["graph", "latent"], "Z", "unknown key 'latent' in graph"),
    ("check", "canonical_graph", ["graph", "nodes"], ["Y"],
     "graph: 'nodes' cannot be given with a template"),
    ("check", "canonical_graph", ["graph", "edges"], [["theta_1", "Y"]],
     "graph: 'edges' cannot be given with a template"),
    ("check", "confounded", ["graph", "dependencies"], [{"determined": "Y", "determiners": ["W"]}],
     "graph: 'dependencies' cannot be given with a template"),
    ("dsep", "chain_dsep", ["graph", "latent"], "H", "unknown key 'latent' in graph"),
]


class TestExitCodes:
    def test_parse_error_exits_2(self, tmp_path):
        path = write_spec(tmp_path, {"version": "99"})
        result = run("check", "--spec", path)
        assert result.exit_code == 2
        assert "UnknownVersion" in result.output

    def test_unresolved_symbol_exits_2(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"version": 1, "protocol": {"panels": 2},
             "goal": {"a": ["theta_9"], "b": ["theta_1"]}},
        )
        result = run("derive", "--spec", path)
        assert result.exit_code == 2
        assert "UnresolvedSymbol" in result.output

    def test_missing_file_exits_2(self):
        result = run("check", "--spec", "/nonexistent/missing.spec")
        assert result.exit_code == 2

    def test_missing_section_exits_2(self, tmp_path):
        path = write_spec(tmp_path, {"version": 1, "protocol": {"panels": 2}})
        result = run("dsep", "--spec", path)
        assert result.exit_code == 2

    @staticmethod
    def _separable_pair():
        return json.loads((SPECS / "separable_pair.spec").read_text())

    def test_misaligned_models_and_data_beside_a_protocol_exit_2(self, tmp_path):
        spec = self._separable_pair()
        spec["protocol"] = {"panels": 2}
        spec["data"]["panel_counts"] = [[1, 2]]
        result = run("check", "--spec", write_spec(tmp_path, spec))
        assert result.exit_code == 2
        assert result.exception is None
        assert "ParseError: models.panels and data.panel_counts must align" in result.output

    def test_zero_prior_parameter_exits_2(self, tmp_path):
        spec = self._separable_pair()
        spec["models"]["panels"][0]["prior"]["alpha"] = 0
        for command in ("simulate", "separability"):
            result = run(command, "--spec", write_spec(tmp_path, spec))
            assert result.exit_code == 2
            assert "ParseError" in result.output and "prior.alpha" in result.output

    def test_fractional_counts_exit_2(self, tmp_path):
        spec = self._separable_pair()
        spec["data"]["panel_counts"] = [[1.5, 2], [0, 0]]
        for command in ("simulate", "separability"):
            result = run(command, "--spec", write_spec(tmp_path, spec))
            assert result.exit_code == 2
            assert "ParseError" in result.output and "integers" in result.output
        spec["data"]["panel_counts"] = [[1, 2], [0, 0]]
        spec["data"]["product_cell_counts"] = [True, 2]
        with pytest.raises(ParseError, match="product_cell_counts"):
            parse_spec_dict(spec)

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path):
        # json.loads refuses it with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "digits.spec"
        path.write_text('{"version": 1, "protocol": {"panels": ' + "9" * 5000 + "}}")
        result = run("check", "--spec", str(path))
        assert result.exit_code == 2
        assert result.exception is None
        assert "ParseError" in result.output and "invalid JSON" in result.output

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"version": 1, "statements": [{"a": ' + "[" * 995 + "]" * 995 + ', "b": ["x"]}]}',
    ], ids=["bare_lists", "statement_side"])
    def test_deeply_nested_json_exits_2(self, tmp_path, text):
        # json.loads recurses once per level and raises RecursionError
        path = tmp_path / "deep.spec"
        path.write_text(text)
        result = run("check", "--spec", str(path))
        assert result.exit_code == 2
        assert result.exception is None
        assert "ParseError" in result.output
        if len(text) > 100_000:
            assert "JSON nested too deeply" in result.output

    def test_prior_bounds_are_inclusive(self, tmp_path):
        spec = json.loads((SPECS / "food_example.spec").read_text())
        spec["models"]["panels"][0]["prior"] = {"alpha": 2**53, "beta": 2**53}
        spec["models"]["product_cell"]["prior"] = {"alpha": 2.0**-53, "beta": 2**53}
        assert parse_spec_dict(spec).models.product_cell.alpha == 2.0**-53
        result = run("simulate", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 0, result.output
        results = json.loads(result.output)["results"]
        assert results["panel_posteriors"][0]["mean"] == 0.5
        assert 0 < results["distributed_over_product_cell_ratio"] < math.inf

    def test_counts_too_large_for_a_float_exit_2(self, tmp_path):
        spec = self._separable_pair()
        spec["data"]["panel_counts"] = [[10**400, 10**400], [0, 0]]
        for command in ("simulate", "separability"):
            result = run(command, "--spec", write_spec(tmp_path, spec))
            assert result.exit_code == 2
            assert result.exception is None
            assert "ParseError" in result.output and "at most 2**53" in result.output
        spec["data"]["panel_counts"] = [[0, 2**53 + 1], [0, 0]]
        with pytest.raises(ParseError, match="at most 2\\*\\*53"):
            parse_spec_dict(spec)
        spec["data"]["panel_counts"] = [[0, 2**53], [0, 0]]
        assert parse_spec_dict(spec).data.panel_counts[0] == (0, 2**53)

    @pytest.mark.parametrize("command, bundled, member, key", [
        ("check", "coherence_m2", '"version": 1,', "version"),
        ("dsep", "chain_dsep", '"c": ["C"]', "c"),
        ("simulate", "separable_pair", '"alpha": 2,', "alpha"),
    ], ids=["top_level", "nested", "in_a_list"])
    def test_a_key_given_twice_exits_2(self, tmp_path, command, bundled, member, key):
        # json keeps only a repeated key's last value; the spec refuses it,
        # even with the same value twice
        text = (SPECS / f"{bundled}.spec").read_text()
        assert text.count(member) == 1
        assert run(command, "--spec", str(SPECS / f"{bundled}.spec")).exit_code == 0
        path = tmp_path / "twice.spec"
        path.write_text(text.replace(member, f"{member.rstrip(',')}, {member}"))
        result = run(command, "--spec", str(path))
        assert result.exit_code == 2
        assert result.exception is None
        assert result.output.count("ParseError") == 1
        assert f"ParseError: key {key!r} is given twice in one object" in result.output

    def test_overlapping_dsep_query_exits_2(self, tmp_path):
        spec = json.loads((SPECS / "chain_dsep.spec").read_text())
        spec["query"] = {"a": ["A"], "b": ["A"]}
        result = run("dsep", "--spec", write_spec(tmp_path, spec))
        assert result.exit_code == 2
        assert "ParseError" in result.output and "disjoint" in result.output

    def test_cyclic_graph_names_the_cycle(self, tmp_path):
        spec = json.loads((SPECS / "chain_dsep.spec").read_text())
        spec["graph"]["edges"] = [["A", "B"], ["B", "A"]]
        result = run("dsep", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 2
        assert result.exception is None
        error = json.loads(result.output)["results"]["error"]
        assert error == "ParseError: graph: nodes are in a cycle: B -> A -> B"

    def test_derive_goal_outside_statements_exits_2(self, tmp_path):
        path = write_spec(tmp_path, {
            "version": 1,
            "statements": [{"a": ["x"], "b": ["y"]}],
            "goal": {"a": ["x"], "b": ["z"]},
        })
        result = run("derive", "--spec", path)
        assert result.exit_code == 2
        assert "UniverseError" in result.output

    @pytest.mark.parametrize("command, section", [("check", "statements"), ("derive", "goal")])
    def test_graph_node_outside_the_protocol_universe_exits_2(self, tmp_path, command, section):
        # with a protocol, statements and the goal range over its symbols,
        # not over the graph's nodes as well
        stmt = {"a": ["X"], "b": ["theta_1"]}
        path = write_spec(tmp_path, {
            "version": 1,
            "protocol": {"panels": 2},
            "graph": {"nodes": ["X", "Y"], "edges": []},
            section: [stmt] if section == "statements" else stmt,
        })
        result = run(command, "--spec", path)
        assert result.exit_code == 2
        assert "UnresolvedSymbol" in result.output and "['X']" in result.output

    def test_protocol_symbol_outside_the_graph_in_a_query_exits_2(self, tmp_path):
        # a separation query ranges over the graph's nodes alone
        path = write_spec(tmp_path, {
            "version": 1,
            "protocol": {"panels": 2},
            "graph": {"nodes": ["X", "Y"], "edges": []},
            "query": {"a": ["X"], "b": ["theta_1"]},
        })
        result = run("dsep", "--spec", path)
        assert result.exit_code == 2
        assert "UnresolvedSymbol" in result.output and "['theta_1']" in result.output

    def test_graph_lacking_system_symbols_exits_2(self, tmp_path):
        path = write_spec(tmp_path, {
            "version": 1,
            "protocol": {"panels": 2},
            "graph": {"nodes": ["theta_1"], "edges": []},
        })
        result = run("check", "--spec", path)
        assert result.exit_code == 2
        assert "UniverseMismatch" in result.output


    @pytest.mark.parametrize(
        "command, bundled, path, value, names",
        _BAD_FIELDS,
        ids=[f"{c}-{'.'.join(map(str, p))}=" + ("missing" if v is _DROP else repr(v))
             for c, _, p, v, _ in _BAD_FIELDS],
    )
    def test_bad_field_exits_2(self, tmp_path, command, bundled, path, value, names):
        spec = (self._separable_pair() if bundled == "separable_pair"
                else json.loads((SPECS / f"{bundled}.spec").read_text()))
        *parents, last = path
        node = spec
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        result = run(command, "--spec", write_spec(tmp_path, spec))
        assert result.exit_code == 2, result.output
        assert result.exception is None
        assert names in result.output

    def test_missing_prior_is_beta_1_1(self, tmp_path):
        explicit = run("simulate", "--spec", str(SPECS / "food_example.spec"))
        assert explicit.exit_code == 0
        spec = json.loads((SPECS / "food_example.spec").read_text())
        del spec["models"]["panels"][0]["prior"]
        spec["models"]["product_cell"] = {}
        implicit = run("simulate", "--spec", write_spec(tmp_path, spec))
        assert implicit.exit_code == 0
        assert implicit.output == explicit.output

    def test_product_grid_cap(self):
        spec = self._separable_pair()
        spec["models"]["panels"] = [{}] * 3
        spec["data"]["panel_counts"] = [[0, 0]] * 3
        spec["run"]["grid"] = 256
        assert parse_spec_dict(spec).run.grid ** 3 == MAX_GRID_CELLS
        spec["run"]["grid"] = 257
        with pytest.raises(ParseError, match="cap"):
            parse_spec_dict(spec)

    @pytest.mark.parametrize(
        "command, name, key, cap",
        [
            ("check", "coherence_m2", "budget", MAX_BUDGET),
        ],
    )
    def test_run_caps(self, tmp_path, command, name, key, cap):
        spec = json.loads((SPECS / f"{name}.spec").read_text())
        spec.setdefault("run", {})[key] = cap
        assert getattr(parse_spec_dict(spec).run, key) == cap
        for value in (cap + 1, 1_000_000_000):
            spec["run"][key] = value
            result = run(command, "--spec", write_spec(tmp_path, spec))
            assert result.exit_code == 2
            assert "ParseError" in result.output and f"run.{key} must be at most {cap}" in result.output

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "missing_dir" / "r.json"
        result = run("dsep", "--spec", str(SPECS / "chain_dsep.spec"), "--out", str(out))
        assert result.exit_code == 2
        assert "FileNotFoundError" in result.output
        assert not out.exists()


class TestCheckCommand:
    def test_canonical_m2_passes(self):
        result = run("check", "--spec", str(SPECS / "coherence_m2.spec"), "--format", "machine")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["status"] == "pass"
        assert report["results"]["sound_and_distributed"] is True
        # proofs ride along by default
        assert any("proof" in g for g in report["results"]["goals"])

    def test_axiomatic_m7_proves_every_goal(self, tmp_path):
        spec = write_spec(tmp_path, {
            "version": 1,
            "protocol": {"panels": 7},
            "run": {"budget": 500_000},
        })
        result = run("check", "--spec", spec, "--format", "machine", "--quiet")
        assert result.exit_code == 0
        goals = json.loads(result.output)["results"]["goals"]
        assert [g["status"] for g in goals] == ["proved"] * 14

    def test_confounded_graphical_fails(self):
        result = run("check", "--spec", str(SPECS / "confounded.spec"), "--format", "machine")
        assert result.exit_code == 1
        report = json.loads(result.output)
        broken = [c for c in report["results"]["conditions"] if c["status"] != "holds"]
        assert [c["condition"] for c in broken] == ["commonly_separated"]

    def test_graphical_mode_refuses_restricted_conditions(self, tmp_path):
        # the graph is tested against all four conditions, so a restricted
        # list would pass in graphical mode while axiomatic mode fails
        spec = json.loads((SPECS / "canonical_graph.spec").read_text())
        spec["protocol"]["conditions"] = ["delegable"]
        path = write_spec(tmp_path, spec)
        axiomatic = {k: v for k, v in spec.items() if k != "graph"}
        assert run("check", "--spec", write_spec(tmp_path, axiomatic, "ax.spec")).exit_code == 1
        result = run("check", "--spec", path, "--format", "machine")
        assert result.exit_code == 2
        report = json.loads(result.output)
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("SpecError: ")
        assert "protocol.conditions" in report["results"]["error"]

    def test_graphical_mode_refuses_statements(self, tmp_path):
        # the graph alone decides every condition, so an extra statement
        # would play no part in graphical mode while axiomatic mode uses it
        spec = json.loads((SPECS / "canonical_graph.spec").read_text())
        spec["statements"] = [{"a": ["theta_1"], "b": ["I_+^0"]}]
        path = write_spec(tmp_path, spec)
        axiomatic = {k: v for k, v in spec.items() if k != "graph"}
        assert run("check", "--spec", write_spec(tmp_path, axiomatic, "ax.spec")).exit_code == 0
        result = run("check", "--spec", path, "--format", "machine")
        assert result.exit_code == 2
        report = json.loads(result.output)
        assert report["status"] == "error"
        assert report["results"]["error"].startswith("SpecError: ")
        assert "statements" in report["results"]["error"]


class TestDeriveCommand:
    def test_goal_derivation_with_trace(self):
        result = run("derive", "--spec", str(SPECS / "coherence_m2.spec"), "--format", "machine")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["results"]["status"] == "proved"
        assert report["results"]["proof"]["steps"]

    def test_counters_are_pinned(self):
        # these move whenever the saturation order moves
        result = run("derive", "--spec", str(SPECS / "coherence_m2.spec"), "--format", "machine")
        report = json.loads(result.output)
        assert report["results"]["statements_generated"] == 571
        assert len(report["results"]["proof"]["steps"]) == 10

    def test_underivable_goal_fails(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "version": 1,
                "protocol": {"panels": 2, "conditions": ["commonly_separated"]},
                "goal": {"a": ["theta_1"], "b": ["theta_2"]},
            },
        )
        result = run("derive", "--spec", path, "--format", "machine")
        assert result.exit_code == 1
        assert json.loads(result.output)["results"]["status"] == "not_derivable"

    @pytest.mark.parametrize("template", ["canonical", "confounded"])
    def test_a_protocol_with_a_graph_section_is_refused(self, tmp_path, template):
        # check tests such a spec on the graph, not on the premises derive uses
        spec = {
            "version": 1,
            "protocol": {"panels": 2},
            "graph": {"template": template},
            "goal": {"a": ["theta_1"], "b": ["theta_2"], "c": ["I_+^0"]},
        }
        result = run("derive", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 2, result.output
        assert result.exception is None
        assert json.loads(result.output)["results"]["error"] == (
            "SpecError: check tests a spec with a graph section on the graph, not on the "
            "protocol's premises: remove the graph section to derive from them"
        )
        del spec["graph"]
        result = run("derive", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 0, result.output

    def test_graph_nodes_are_the_universe(self, tmp_path):
        # C is a declared node, so a goal mentioning it is a query to decide,
        # not a goal that leaves the universe
        spec = {
            "version": 1,
            "graph": {
                "nodes": list("ABCD"),
                "edges": [["A", "C"], ["A", "B"], ["B", "D"]],
            },
            "statements": [{"a": ["B"], "b": ["D"], "c": ["A"]}],
            "goal": {"a": ["B"], "b": ["C", "D"], "c": ["A"]},
        }
        result = run("derive", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["results"]["status"] == "not_derivable"
        # the graph's dependencies license moving C in beside D
        spec["graph"]["dependencies"] = [{"determined": "C", "determiners": ["A"]}]
        result = run("derive", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 0, result.output
        proof = json.loads(result.output)["results"]["proof"]
        assert [step["rule"] for step in proof["steps"]] == ["determinism_augment"] * 2


class TestDsepCommand:
    def test_chain_query_true(self):
        result = run("dsep", "--spec", str(SPECS / "chain_dsep.spec"), "--format", "machine")
        assert result.exit_code == 0
        assert json.loads(result.output)["results"]["d_separated"] is True


# theta_1 _||_ theta_2 | I_0^0
_COMMONLY_SEPARATED_M2 = {"a": ["theta_1"], "b": ["theta_2"], "c": ["I_0^0"]}


class TestAblateCommand:
    def test_four_rows_all_failing_plus_control(self):
        result = run("ablate", "--spec", str(SPECS / "coherence_m2.spec"), "--format", "machine")
        assert result.exit_code == 0
        report = json.loads(result.output)
        rows = report["results"]["rows"]
        assert len(rows) == 5
        control, dropped = rows[0], rows[1:]
        assert control["dropped"] is None and control["sound_and_distributed"]
        for row in dropped:
            assert not row["sound_and_distributed"]
            assert row["unreachable_goals"]
            assert row["certificate"] == "rule-system-relative non-derivability"
            assert "inconclusive_goals" not in row

    def test_small_budget_rows_are_inconclusive_and_fail(self, tmp_path):
        spec = json.loads((SPECS / "coherence_m2.spec").read_text())
        spec["run"]["budget"] = 500
        result = run("ablate", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["status"] == "fail"
        rows = {row["dropped"]: row for row in report["results"]["rows"]}
        for name in ("separately_informed", "commonly_separated"):
            assert rows[name]["certificate"] is None
            assert rows[name]["unreachable_goals"] == []
            assert rows[name]["inconclusive_goals"] == [
                f"panel {i}: {goal}"
                for i in (1, 2)
                for goal in ("panel_independence", "autonomous_updating")
            ]
        for name in ("delegable", "cutting"):
            assert rows[name]["certificate"] == "rule-system-relative non-derivability"
            assert "inconclusive_goals" not in rows[name]

    def test_restricted_conditions_are_honoured(self, tmp_path):
        # the control row runs on check's premises, so it fails as check does
        spec = {
            "version": 1,
            "protocol": {"panels": 2, "conditions": ["delegable"]},
            "run": {"budget": 2000},
        }
        path = write_spec(tmp_path, spec)
        assert run("check", "--spec", path, "--format", "machine").exit_code == 1
        result = run("ablate", "--spec", path, "--format", "machine")
        assert result.exit_code == 1, result.output
        rows = json.loads(result.output)["results"]["rows"]
        assert [row["dropped"] for row in rows] == [None, "delegable"]
        assert rows[0]["sound_and_distributed"] is False

    def test_a_statement_can_stand_in_for_a_condition(self, tmp_path):
        # at m = 2 this statement is the whole commonly_separated condition,
        # so dropping the condition breaks nothing and the table fails
        spec = json.loads((SPECS / "coherence_m2.spec").read_text())
        spec["statements"] = [_COMMONLY_SEPARATED_M2]
        result = run("ablate", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 1, result.output
        rows = {row["dropped"]: row for row in json.loads(result.output)["results"]["rows"]}
        assert rows["commonly_separated"]["sound_and_distributed"] is True
        assert rows["commonly_separated"]["certificate"] is None
        assert rows[None]["sound_and_distributed"] is True

    @pytest.mark.parametrize("bundled", ["canonical_graph", "confounded"])
    def test_a_graph_section_is_refused(self, tmp_path, bundled):
        # check tests a graph spec on the graph, which has no premises to drop
        result = run("ablate", "--spec", str(SPECS / f"{bundled}.spec"), "--format", "machine")
        assert result.exit_code == 2, result.output
        assert result.exception is None
        assert json.loads(result.output)["results"]["error"] == (
            "SpecError: check tests a spec with a graph section on the graph, which has no "
            "premises to drop: remove the graph section to ablate the prover's premises"
        )
        spec = json.loads((SPECS / f"{bundled}.spec").read_text())
        del spec["graph"]
        result = run("ablate", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "statements, conditions",
        [
            ([], None),
            ([_COMMONLY_SEPARATED_M2], None),
            ([], ["cutting", "delegable", "commonly_separated"]),
        ],
        ids=["bundled", "statements", "restricted"],
    )
    def test_each_row_is_check_without_its_condition(self, tmp_path, statements, conditions):
        spec = json.loads((SPECS / "coherence_m2.spec").read_text())
        spec["statements"] = statements
        listed = conditions or [kind.value for kind in ALL_CONDITIONS]
        spec["protocol"]["conditions"] = listed
        result = run("ablate", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        rows = json.loads(result.output)["results"]["rows"]
        assert [row["dropped"] for row in rows] == [None, *listed]
        for row in rows:
            spec["protocol"]["conditions"] = [c for c in listed if c != row["dropped"]]
            checked = run("check", "--spec", write_spec(tmp_path, spec), "--format", "machine")
            verdict = json.loads(checked.output)["results"]

            def goals(status):
                return [f"panel {g['panel']}: {g['goal']}"
                        for g in verdict["goals"] if g["status"] == status]

            assert row["sound_and_distributed"] is verdict["sound_and_distributed"]
            assert row["unreachable_goals"] == goals("not_derivable")
            assert row.get("inconclusive_goals", []) == goals("budget_exhausted")


class TestSimulateCommand:
    def test_food_example_numbers(self):
        result = run("simulate", "--spec", str(SPECS / "food_example.spec"), "--format", "machine")
        assert result.exit_code == 0
        report = json.loads(result.output)
        res = report["results"]
        assert res["distributed_product_mean_closed_form"] == pytest.approx(0.25, abs=1e-15)
        assert res["distributed_product_mean_grid"] == pytest.approx(0.25, abs=1e-4)
        assert res["product_cell_posterior_mean"] == pytest.approx(6 / 102, abs=1e-12)
        assert 4.25 <= res["distributed_over_product_cell_ratio"] <= 5.0

    def test_likelihood_peak_where_the_prior_has_no_mass(self, tmp_path):
        # panel 1's Beta(2, 3) prior is 0 at theta = 1, where 100000 successes
        # in 100000 trials peak; its grid posterior sits on theta = 0.99
        spec = json.loads((SPECS / "separable_pair.spec").read_text())
        spec["data"]["panel_counts"] = [[100000, 100000], [0, 0]]
        path = write_spec(tmp_path, spec)
        result = run("simulate", "--spec", path, "--format", "machine")
        assert result.exit_code == 0, result.output
        mean = json.loads(result.output)["results"]["distributed_product_mean_grid"]
        assert mean == pytest.approx(0.99 * 0.5, rel=1e-6)
        result = run("separability", "--spec", path, "--format", "machine")
        assert result.exit_code == 0, result.output


class TestSeparabilityCommand:
    def test_separable_pair_passes(self):
        result = run(
            "separability", "--spec", str(SPECS / "separable_pair.spec"), "--format", "machine"
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["results"]["symbolic"]["separable"] is True
        assert report["results"]["numeric"]["separable"] is True
        assert report["results"]["divergence"]["total_variation"] <= 1e-10

    def test_interaction_pair_fails_with_witness(self):
        result = run(
            "separability", "--spec", str(SPECS / "interaction_pair.spec"), "--format", "machine"
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["results"]["numeric"]["separable"] is False
        assert report["results"]["numeric"]["max_residual"] > 1e-3
        assert report["results"]["numeric"]["witnesses"]
        assert report["results"]["divergence"]["total_variation"] > 1e-6

    def test_quiet_keeps_the_witness(self):
        # a witness is the evidence behind a fail, not a proof trace
        args = ("separability", "--spec", str(SPECS / "interaction_pair.spec"))
        quiet = run(*args, "--quiet")
        assert quiet.exit_code == 1
        assert quiet.output == run(*args).output
        assert "  witnesses: [1]\n" in quiet.output and "elided" not in quiet.output

    def test_large_counts_read_separable(self, tmp_path):
        # |ll| near 6e7 puts the rounding in R near 6e-8, above the absolute
        # 1e-9 that this check once used
        spec = json.loads((SPECS / "separable_pair.spec").read_text())
        spec["data"]["panel_counts"] = [[33333333, 100000000], [20000000, 100000000]]
        result = run("separability", "--spec", write_spec(tmp_path, spec), "--format", "machine")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["results"]["numeric"]["separable"] is True
        assert report["results"]["numeric"]["witnesses"] == []
        assert report["options"] == {}

    def test_no_data_divergence_is_exactly_zero(self, tmp_path):
        spec = write_spec(tmp_path, {
            "version": 1,
            "models": {"panels": [
                {"prior": {"alpha": 2, "beta": 3}},
                {"prior": {"alpha": 1, "beta": 1}},
            ]},
            "data": {"panel_counts": [[0, 0], [0, 0]]},
            "run": {"grid": 51},
        })
        result = run("separability", "--spec", spec, "--format", "machine")
        assert result.exit_code == 0
        div = json.loads(result.output)["results"]["divergence"]
        assert div["max_abs"] == 0.0 and div["total_variation"] == 0.0

    @pytest.mark.parametrize("bundled", ["food_example", "interaction_pair", "separable_pair"])
    def test_simulate_reports_the_same_divergence_bit_for_bit(self, bundled):
        divergences = []
        for command in ("simulate", "separability"):
            result = run(command, "--spec", str(SPECS / f"{bundled}.spec"), "--format", "machine")
            assert result.exception is None
            div = json.loads(result.output)["results"]["divergence"]
            divergences.append({k: float.hex(v) for k, v in div.items()})
        assert divergences[0] == divergences[1]


class TestStdoutFailures:
    """A report that cannot be written to stdout exits 2 with one ``error:``
    line on stderr and no traceback, in a real process, whose interpreter
    flushes stdout again on the way out."""

    SPEC = str(SPECS / "chain_dsep.spec")

    @staticmethod
    def cli(argv, stdout):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120, check=False)

    @staticmethod
    def assert_one_error_line(proc, name):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {name}: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_a_closed_pipe_exits_2(self):
        read, write = os.pipe()
        os.close(read)  # no reader, so the first write fails with EPIPE
        try:
            proc = self.cli([sys.executable, "-m", "modcoherence.cli", "dsep", "--spec", self.SPEC],
                            write)
        finally:
            os.close(write)
        self.assert_one_error_line(proc, "BrokenPipeError")

    def test_a_closed_stdout_exits_2(self):
        argv = ["sh", "-c", 'exec "$0" -m modcoherence.cli "$@" >&-', sys.executable,
                "check", "--spec", str(SPECS / "coherence_m2.spec")]
        self.assert_one_error_line(self.cli(argv, None), "AttributeError")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_a_full_device_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = self.cli([sys.executable, "-m", "modcoherence.cli", "dsep", "--spec", self.SPEC],
                            full)
        self.assert_one_error_line(proc, "OSError")

    HELP = [("--help",), ("dsep", "--help")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("args", HELP, ids=["main", "command"])
    def test_help_to_a_full_device_exits_2(self, args):
        with open("/dev/full", "w") as full:
            proc = self.cli([sys.executable, "-m", "modcoherence.cli", *args], full)
        self.assert_one_error_line(proc, "OSError")

    @pytest.mark.parametrize("args", HELP, ids=["main", "command"])
    def test_help_into_a_closed_pipe_exits_2(self, args):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.cli([sys.executable, "-m", "modcoherence.cli", *args], write)
        finally:
            os.close(write)
        self.assert_one_error_line(proc, "BrokenPipeError")

    @pytest.mark.parametrize("args", HELP, ids=["main", "command"])
    def test_help_to_a_working_stdout_exits_0(self, args):
        proc = self.cli([sys.executable, "-m", "modcoherence.cli", *args], subprocess.PIPE)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run(*args).output


class TestReportContract:
    def test_machine_report_round_trips(self):
        result = run("check", "--spec", str(SPECS / "coherence_m2.spec"), "--format", "machine")
        raw = json.loads(result.output)
        report = Report(raw["command"], raw["status"], raw["results"], raw["options"])
        assert report.to_json() == result.output

    @pytest.mark.parametrize(
        "command, spec",
        [
            ("check", "coherence_m2.spec"),
            ("simulate", "food_example.spec"),
            ("separability", "interaction_pair.spec"),
        ],
    )
    def test_byte_identical_reports_for_same_spec_and_seed(self, command, spec):
        first = run(command, "--spec", str(SPECS / spec), "--format", "machine")
        second = run(command, "--spec", str(SPECS / spec), "--format", "machine")
        assert first.output == second.output

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = run(
            "dsep", "--spec", str(SPECS / "chain_dsep.spec"),
            "--format", "machine", "--out", str(out),
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["command"] == "dsep"

    def test_quiet_elides_proof_steps(self):
        full = run("check", "--spec", str(SPECS / "coherence_m2.spec"))
        quiet = run("check", "--spec", str(SPECS / "coherence_m2.spec"), "--quiet")
        assert full.exit_code == 0 and quiet.exit_code == 0
        assert "elided" in quiet.output
        assert len(quiet.output) < len(full.output)


class TestUsage:
    """Usage errors exit 2 with nothing on stdout; help exits 0."""

    SPEC = str(SPECS / "chain_dsep.spec")

    @pytest.mark.parametrize(
        "args",
        [
            (),
            ("bogus",),
            ("check",),
            ("check", "--spec"),
            ("dsep", "--spec", SPEC, "--out"),
            ("check", "--spec", SPEC, "--format", "xml"),
            ("check", "--spec", SPEC, "extra"),
            ("check", "--sp", SPEC),
            ("--spec", SPEC, "check"),
        ],
        ids=["no-command", "unknown-command", "no-spec", "valueless-spec", "valueless-out",
             "bad-format", "extra-positional", "abbreviated-option", "option-before-command"],
    )
    def test_usage_error_exits_2_with_empty_stdout(self, args):
        result = run(*args)
        assert result.exit_code == 2, result.output
        assert result.output == ""
        assert result.stderr
        assert result.exception is None

    def test_help_exits_0(self):
        result = run("--help")
        assert result.exit_code == 0
        assert all(name in result.output for name in
                   ("check", "derive", "dsep", "ablate", "simulate", "separability"))
        result = run("check", "--help")
        assert result.exit_code == 0
        assert all(flag in result.output for flag in ("--spec", "--out", "--format", "--quiet"))

    def test_interrupt_exits_1_without_a_traceback(self, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_spec", interrupted)
        try:
            result = run("dsep", "--spec", self.SPEC)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert result.exit_code == 1
        assert result.output == ""
        assert "Aborted!" in result.stderr and "Traceback" not in result.stderr
        assert result.exception is None

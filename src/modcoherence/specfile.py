"""Strict parser for the versioned run-specification files the CLI consumes.

A spec file is a JSON document with a ``version`` tag and optional sections
(``protocol``, ``statements``, ``goal``, ``graph``, ``query``, ``models``,
``data``, ``run``).  Every field is type-checked here, once, and each section
becomes a typed value; unknown versions, unknown keys, mistyped fields and
dangling symbol references are all hard errors; nothing is silently ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import ModcoherenceError
from .ci import CIError, CIStatement, DEFAULT_BUDGET, FunctionalDependency, normalize
from .dag import Dag, DagError, build_dag
from .protocol import (
    ALL_CONDITIONS,
    ConditionKind,
    PanelSystem,
    ProtocolError,
    build_system,
    canonical_dag,
    confounded_dag,
)
from .values import BetaParams, Factor

SUPPORTED_VERSION = 1

# build_system makes m*m + m + 3 symbols; TestVerifyTheorem builds m = 32
MAX_PANELS = 32
# simulate and separability hold run.grid ** len(models.panels) float64 cells
# several times over; 2**24 cells peak near 540 MB.  The pair grids that
# separability checks, run.grid ** 2 cells each, lie within the same cap
MAX_GRID_CELLS = 2**24
# one saturation holds up to run.budget statements, at about 0.8 kB each at
# m = 3 and 1.4 kB at m = 32 (peak RSS of derivations that exhaust a budget
# of 50k-200k), so the cap peaks near 0.7 GB; the bundled m = 3 spec asks
# for all of it
MAX_BUDGET = 500_000
# the grid engine and the conjugate update take counts as float64, which
# holds every integer up to 2**53 exactly and overflows near 10**308
MAX_TRIALS = 2**53


class SpecError(ModcoherenceError):
    pass


class ParseError(SpecError):
    pass


class UnknownVersion(SpecError):
    pass


class UnresolvedSymbol(SpecError):
    pass


class MissingSection(SpecError):
    pass


_TOP_KEYS = {"version", "protocol", "statements", "goal", "graph", "query", "models", "data", "run"}
_PROTOCOL_KEYS = {"panels", "epoch", "conditions"}
_GRAPH_KEYS = {"template", "nodes", "edges", "dependencies"}
_MODELS_KEYS = {"panels", "interaction", "product_cell", "factors"}
_PANEL_MODEL_KEYS = {"prior", "likelihood"}
_PRIOR_KEYS = {"family", "alpha", "beta"}
_DATA_KEYS = {"panel_counts", "product_cell_counts"}
_RUN_KEYS = {"mode", "grid", "budget"}
_STMT_KEYS = {"a", "b", "c"}
_TEMPLATES = {"canonical": canonical_dag, "confounded": confounded_dag}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, got {value!r}")
    return value


def _integer(section: dict, key: str, default: int, where: str) -> int:
    """A JSON integer (bools are not)."""
    value = section.get(key, default)
    if type(value) is not int:
        raise ParseError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _number(section: dict, key: str, default: float, where: str) -> float:
    """A finite JSON number (bools are not), as a float."""
    value = section.get(key, default)
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ParseError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _string(section: dict, key: str, where: str, default: Optional[str] = None) -> str:
    if key not in section and default is None:
        raise ParseError(f"{where} is missing {key!r}")
    value = section.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _symbols(value, where: str) -> frozenset:
    """A list of symbol names; a bare string is not read as its characters."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{where} must be a list of symbol names, got {value!r}")
    return frozenset(value)


def _statement_sets(raw: dict, where: str) -> tuple[frozenset, frozenset, frozenset]:
    _require_keys(raw, _STMT_KEYS, where)
    for side in ("a", "b"):
        if side not in raw:
            raise ParseError(f"{where} is missing side {side!r}")
    a, b, c = (_symbols(raw.get(side, []), f"{where}.{side}") for side in ("a", "b", "c"))
    return a, b, c


def _beta_prior(entry: dict, where: str) -> BetaParams:
    """``entry["prior"]``; a missing prior, alpha or beta defaults to 1."""
    prior = entry.get("prior", {})
    _require_keys(prior, _PRIOR_KEYS, f"{where}.prior")
    params = []
    for key in ("alpha", "beta"):
        value = prior.get(key, 1)
        if type(value) not in (int, float) or not 0 < value < math.inf:
            raise ParseError(f"{where}.prior.{key} must be a positive number, got {value!r}")
        params.append(float(value))
    if prior.get("family", "beta") != "beta":
        raise ParseError(f"{where}: unsupported prior family {prior.get('family')!r}")
    return BetaParams(*params)


def _counts(pair, where: str) -> tuple[int, int]:
    """``[successes, trials]``: two JSON integers with 0 <= successes <= trials
    <= ``MAX_TRIALS``."""
    shaped = isinstance(pair, list) and len(pair) == 2
    if shaped and not all(type(x) is int for x in pair):
        raise ParseError(f"{where}: counts must be integers, got {pair}")
    if not (shaped and 0 <= pair[0] <= pair[1]):
        raise ParseError(f"{where}: need [successes, trials], got {pair}")
    if pair[1] > MAX_TRIALS:
        raise ParseError(f"{where}: trials must be at most 2**53, got {pair[1]}")
    return pair[0], pair[1]


@dataclass(frozen=True)
class Models:
    """The ``models`` section: one Beta prior per panel, each with a
    Bernoulli likelihood."""

    priors: tuple[BetaParams, ...] = ()
    interaction_strength: float = 0.0
    product_cell: Optional[BetaParams] = None
    factors: Optional[tuple[Factor, ...]] = None


@dataclass(frozen=True)
class Data:
    """The ``data`` section: ``(successes, trials)`` per panel."""

    panel_counts: tuple[tuple[int, int], ...] = ()
    product_cell_counts: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class RunOptions:
    mode: str = "axiomatic"
    grid: int = 101
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class SpecFile:
    system: Optional[PanelSystem] = None
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS
    statements: tuple[CIStatement, ...] = ()
    goal: Optional[CIStatement] = None
    dag: Optional[Dag] = None
    query: Optional[tuple[frozenset, frozenset, frozenset]] = None  # (a, b, c)
    models: Optional[Models] = None
    data: Optional[Data] = None
    run: RunOptions = field(default_factory=RunOptions)

    def panel_inputs(self) -> tuple[Models, Data]:
        """The sections the numeric commands need, with one count pair per
        panel model."""
        if self.models is None or self.data is None:
            raise MissingSection("this command requires models and data sections")
        if not self.models.priors or len(self.models.priors) != len(self.data.panel_counts):
            raise MissingSection("models.panels and data.panel_counts must align")
        return self.models, self.data


def parse_spec(path: str | Path) -> SpecFile:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal past the int-conversion digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_spec_dict(raw)


def _protocol(section: dict) -> tuple[PanelSystem, tuple[ConditionKind, ...]]:
    _require_keys(section, _PROTOCOL_KEYS, "protocol")
    if "panels" not in section:
        raise ParseError("protocol is missing the panel count")
    m = _integer(section, "panels", 0, "protocol")
    if m > MAX_PANELS:
        raise ParseError(f"protocol.panels must be at most {MAX_PANELS}, got {m}")
    try:
        system = build_system(m, _integer(section, "epoch", 0, "protocol"))
    except ProtocolError as exc:
        raise ParseError(f"protocol: {exc}") from exc
    if "conditions" not in section:
        return system, ALL_CONDITIONS
    kinds = []
    for name in _list(section["conditions"], "protocol.conditions"):
        try:
            kinds.append(ConditionKind(name))
        except ValueError:
            raise ParseError(f"protocol: unknown condition {name!r}") from None
    return system, tuple(kinds)


def _graph(section: dict, system: Optional[PanelSystem]) -> Dag:
    _require_keys(section, _GRAPH_KEYS, "graph")
    template = section.get("template")
    for key in ("nodes", "edges", "dependencies"):
        if template is not None and key in section:
            raise ParseError(f"graph: {key!r} cannot be given with a template")
    if template is not None and system is None:
        raise MissingSection("graph templates require a protocol section")
    try:
        if template is not None:
            if not isinstance(template, str) or template not in _TEMPLATES:
                raise ParseError(f"graph: unknown template {template!r}")
            return _TEMPLATES[template](system)
        for key in ("nodes", "edges"):
            if key not in section:
                raise ParseError(f"graph is missing {key!r}")
        nodes = []
        for node in _list(section["nodes"], "graph.nodes"):
            _require_keys(node, {"name", "kind"}, "graph node")
            nodes.append((_string(node, "name", "graph node"),
                          _string(node, "kind", "graph node", default="evidence")))
        edges = []
        for k, edge in enumerate(_list(section["edges"], "graph.edges")):
            if not (isinstance(edge, list) and len(edge) == 2
                    and all(isinstance(s, str) for s in edge)):
                raise ParseError(f"graph.edges[{k}] must be [parent, child], got {edge!r}")
            edges.append(tuple(edge))
        deps = []
        for dep in _list(section.get("dependencies", []), "graph.dependencies"):
            _require_keys(dep, {"determined", "determiners"}, "graph dependency")
            deps.append(FunctionalDependency(
                _string(dep, "determined", "graph dependency"),
                _symbols(dep.get("determiners"), "graph dependency.determiners"),
            ))
        return build_dag(nodes, edges, deps)
    except (DagError, CIError) as exc:
        raise ParseError(f"graph: {exc}") from exc


def _models(section: dict) -> Models:
    _require_keys(section, _MODELS_KEYS, "models")
    priors = []
    for k, panel in enumerate(_list(section.get("panels", []), "models.panels")):
        where = f"models.panels[{k}]"
        _require_keys(panel, _PANEL_MODEL_KEYS, where)
        priors.append(_beta_prior(panel, where))
        if panel.get("likelihood", "bernoulli") != "bernoulli":
            raise ParseError(f"{where}: unsupported likelihood {panel.get('likelihood')!r}")
    strength = 0.0
    if "interaction" in section:
        _require_keys(section["interaction"], {"strength"}, "models.interaction")
        strength = _number(section["interaction"], "strength", 0.0, "models.interaction")
    product_cell = None
    if "product_cell" in section:
        _require_keys(section["product_cell"], {"prior"}, "models.product_cell")
        product_cell = _beta_prior(section["product_cell"], "models.product_cell")
    factors = None
    if "factors" in section:
        # without panel models the numeric commands report those as missing
        top = len(priors) or math.inf
        scoped = []
        for k, factor in enumerate(_list(section["factors"], "models.factors")):
            where = f"models.factors[{k}]"
            _require_keys(factor, {"name", "panels"}, where)
            scope = factor.get("panels")
            if not (isinstance(scope, list) and all(type(i) is int and 1 <= i <= top for i in scope)):
                raise ParseError(
                    f"{where}.panels must list panel numbers in 1..{len(priors)}, got {scope!r}"
                )
            scoped.append(Factor(_string(factor, "name", where, default=str(k)), frozenset(scope)))
        factors = tuple(scoped)
    return Models(tuple(priors), strength, product_cell, factors)


def _data(section: dict) -> Data:
    _require_keys(section, _DATA_KEYS, "data")
    counts = tuple(
        _counts(pair, f"data.panel_counts[{k}]")
        for k, pair in enumerate(_list(section.get("panel_counts", []), "data.panel_counts"))
    )
    cell = None
    if "product_cell_counts" in section:
        cell = _counts(section["product_cell_counts"], "data.product_cell_counts")
    return Data(counts, cell)


def _run(section: dict) -> RunOptions:
    _require_keys(section, _RUN_KEYS, "run")
    mode = section.get("mode", "axiomatic")
    if mode not in ("axiomatic", "graphical"):
        raise ParseError(f"run.mode must be axiomatic or graphical, got {mode!r}")
    default = RunOptions()
    run = RunOptions(
        mode=mode,
        grid=_integer(section, "grid", default.grid, "run"),
        budget=_integer(section, "budget", default.budget, "run"),
    )
    if run.grid < 3:
        raise ParseError("run.grid must be at least 3")
    if run.budget <= 0:
        raise ParseError("run.budget must be positive")
    if run.budget > MAX_BUDGET:
        raise ParseError(f"run.budget must be at most {MAX_BUDGET}, got {run.budget}")
    return run


def parse_spec_dict(raw: dict) -> SpecFile:
    _require_keys(raw, _TOP_KEYS, "spec")
    if "version" not in raw:
        raise ParseError("spec is missing the version tag")
    if type(raw["version"]) is not int or raw["version"] != SUPPORTED_VERSION:
        raise UnknownVersion(f"unsupported spec version {raw['version']!r}")

    system = None
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS
    if "protocol" in raw:
        system, conditions = _protocol(raw["protocol"])

    dag = _graph(raw["graph"], system) if "graph" in raw else None

    # statements and the goal range over the protocol's symbols, or without a
    # protocol the graph's nodes, as the commands do; a query over the nodes
    nodes = dag.node_names if dag is not None else None
    universe = system.universe if system is not None else nodes

    def statement(raw_stmt, where: str, known: Optional[frozenset]) -> tuple[frozenset, ...]:
        """The sides as written, held to ``normalize``'s rules."""
        sets = _statement_sets(raw_stmt, where)
        if known is not None:
            stray = frozenset().union(*sets) - known
            if stray:
                raise UnresolvedSymbol(f"{where} references undeclared symbols: {sorted(stray)}")
        try:
            normalize(*sets)
        except CIError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        return sets

    statements = tuple(
        normalize(*statement(stmt, f"statements[{k}]", universe))
        for k, stmt in enumerate(_list(raw.get("statements", []), "statements"))
    )
    goal = normalize(*statement(raw["goal"], "goal", universe)) if "goal" in raw else None
    query = statement(raw["query"], "query", nodes) if "query" in raw else None

    models = _models(raw["models"]) if "models" in raw else None
    data = _data(raw["data"]) if "data" in raw else None
    run = _run(raw["run"]) if "run" in raw else RunOptions()

    has_cell_prior = models is not None and models.product_cell is not None
    has_cell_counts = data is not None and data.product_cell_counts is not None
    if has_cell_prior != has_cell_counts:
        raise ParseError("models.product_cell and data.product_cell_counts must be given together")

    if models is not None:
        cells = 1
        for _ in models.priors:
            cells *= run.grid
            if cells > MAX_GRID_CELLS:
                raise ParseError(
                    f"{len(models.priors)} models.panels at run.grid {run.grid} exceed "
                    f"the cap of {MAX_GRID_CELLS} product-grid cells"
                )

    return SpecFile(
        system=system,
        conditions=conditions,
        statements=statements,
        goal=goal,
        dag=dag,
        query=query,
        models=models,
        data=data,
        run=run,
    )

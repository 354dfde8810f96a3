"""Strict parser for the versioned run-specification files the CLI consumes.

A spec file is a JSON document with a ``version`` tag and optional sections
(``protocol``, ``statements``, ``goal``, ``graph``, ``query``, ``models``,
``data``, ``run``).  Every field is type-checked here, once, and each section
becomes a typed value; unknown versions, unknown keys, mistyped fields and
dangling symbol references are all hard errors; nothing is silently ignored.
A section imports the engine its value comes from only when it is parsed:
``protocol`` the protocol, ``graph`` d-separation, and ``statements``,
``goal`` and ``query`` the statement algebra; so a spec of models and data
loads none of them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import ModcoherenceError, Record
from .values import ALL_CONDITIONS, DEFAULT_BUDGET, BetaParams, ConditionKind, Factor

if TYPE_CHECKING:
    from .ci import CIStatement, FunctionalDependency, VarSet
    from .dag import Dag
    from .protocol import PanelSystem

SUPPORTED_VERSION = 1

# build_system makes m*m + m + 3 symbols; TestVerifyTheorem builds m = 32
MAX_PANELS = 32
# simulate and separability hold run.grid ** len(models.panels) float64 cells
# several times over; 2**24 cells peak near 415 MB.  The pair grids that
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
# Beta parameters lie in [1 / MAX_PRIOR, MAX_PRIOR] for the same float
# reason: alpha + beta of a posterior stays finite, and every posterior mean
# is at least about 2**-107, so the product-cell ratio stays finite
MAX_PRIOR = 2**53


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
_PROTOCOL_KEYS = {"panels", "conditions"}
_GRAPH_KEYS = {"template", "nodes", "edges", "dependencies"}
_MODELS_KEYS = {"panels", "product_cell", "factors"}
_PRIOR_KEYS = {"alpha", "beta"}
_DATA_KEYS = {"panel_counts", "product_cell_counts"}
_RUN_KEYS = {"grid", "budget"}
_STMT_KEYS = {"a", "b", "c"}


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


def _names(value, where: str) -> list:
    """A list of symbol names, none holding a ``CIStatement.RESERVED``
    character; a bare string is not read as its characters."""
    from .ci import CIStatement

    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{where} must be a list of symbol names, got {value!r}")
    for name in value:
        if any(char in name for char in CIStatement.RESERVED):
            raise ParseError(f"{where}: symbol name {name!r} must not contain ',' or '|'")
    return value


def _statement_sets(raw: dict, where: str) -> tuple[frozenset, frozenset, frozenset]:
    _require_keys(raw, _STMT_KEYS, where)
    for side in ("a", "b"):
        if side not in raw:
            raise ParseError(f"{where} is missing side {side!r}")
    a, b, c = (frozenset(_names(raw.get(side, []), f"{where}.{side}")) for side in ("a", "b", "c"))
    return a, b, c


def _beta_prior(entry: dict, where: str) -> BetaParams:
    """``{"prior": {"alpha", "beta"}}``; a missing prior, alpha or beta
    defaults to 1."""
    _require_keys(entry, {"prior"}, where)
    prior = entry.get("prior", {})
    _require_keys(prior, _PRIOR_KEYS, f"{where}.prior")
    params = []
    for key in ("alpha", "beta"):
        value = prior.get(key, 1)
        if type(value) not in (int, float) or not 1 / MAX_PRIOR <= value <= MAX_PRIOR:
            raise ParseError(f"{where}.prior.{key} must be a number in [2**-53, 2**53], got {value!r}")
        params.append(float(value))
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


class Models(Record):
    """The ``models`` section: one Beta prior per panel, for at least two
    panels, each with a Bernoulli likelihood, and the factors coupling them."""

    priors: tuple[BetaParams, ...] = ()
    product_cell: Optional[BetaParams] = None
    factors: tuple[Factor, ...] = ()


class Data(Record):
    """The ``data`` section: ``(successes, trials)`` per panel."""

    panel_counts: tuple[tuple[int, int], ...] = ()
    product_cell_counts: Optional[tuple[int, int]] = None


class RunOptions(Record):
    grid: int = 101
    budget: int = DEFAULT_BUDGET


def _scope(system: Optional[PanelSystem], dag: Optional[Dag]) -> tuple:
    """``(universe, dependencies)``: the protocol's or, without a protocol,
    the graph's nodes and dependencies; with neither, ``(None, ())``."""
    if system is not None:
        return system.universe, system.dependencies
    return (dag.node_names, dag.dependencies) if dag is not None else (None, ())


class SpecFile(Record):
    system: Optional[PanelSystem] = None
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS
    statements: tuple[CIStatement, ...] = ()
    goal: Optional[CIStatement] = None
    dag: Optional[Dag] = None
    query: Optional[tuple[frozenset, frozenset, frozenset]] = None  # (a, b, c)
    models: Optional[Models] = None
    data: Optional[Data] = None
    run: RunOptions = RunOptions()  # frozen, so one default serves every spec

    @property
    def scope(self) -> tuple[Optional[VarSet], tuple[FunctionalDependency, ...]]:
        """The symbols the statements and the goal range over, and the
        dependencies that license the determinism rules (``_scope``)."""
        return _scope(self.system, self.dag)

    def panel_inputs(self) -> tuple[Models, Data]:
        """The sections the numeric commands need, which the parser has
        aligned, one count pair per panel model."""
        if self.models is None or self.data is None:
            raise MissingSection("this command requires models and data sections")
        return self.models, self.data


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, refusing a key given twice,
    which ``json`` would keep only the last value of."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def parse_spec(path: str | Path) -> SpecFile:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal past the int-conversion digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    return parse_spec_dict(raw)


def _protocol(section: dict) -> tuple[PanelSystem, tuple[ConditionKind, ...]]:
    from .protocol import build_system

    _require_keys(section, _PROTOCOL_KEYS, "protocol")
    if "panels" not in section:
        raise ParseError("protocol is missing the panel count")
    m = _integer(section, "panels", 0, "protocol")
    if not 2 <= m <= MAX_PANELS:
        raise ParseError(f"protocol.panels must be in 2..{MAX_PANELS}, got {m}")
    system = build_system(m)
    if "conditions" not in section:
        return system, ALL_CONDITIONS
    kinds = []
    for name in _list(section["conditions"], "protocol.conditions"):
        try:
            kinds.append(ConditionKind(name))
        except ValueError:
            raise ParseError(f"protocol: unknown condition {name!r}") from None
        if kinds.count(kinds[-1]) > 1:
            raise ParseError(f"protocol.conditions lists {name!r} twice")
    return system, tuple(kinds)


def _graph(section: dict, system: Optional[PanelSystem]) -> Dag:
    from .ci import CIError, FunctionalDependency
    from .dag import DagError, build_dag

    _require_keys(section, _GRAPH_KEYS, "graph")
    template = section.get("template")
    for key in ("nodes", "edges", "dependencies"):
        if template is not None and key in section:
            raise ParseError(f"graph: {key!r} cannot be given with a template")
    if template is not None and system is None:
        raise MissingSection("graph templates require a protocol section")
    try:
        if template is not None:
            from .protocol import canonical_dag, confounded_dag

            templates = {"canonical": canonical_dag, "confounded": confounded_dag}
            if not isinstance(template, str) or template not in templates:
                raise ParseError(f"graph: unknown template {template!r}")
            return templates[template](system)
        for key in ("nodes", "edges"):
            if key not in section:
                raise ParseError(f"graph is missing {key!r}")
        nodes = _names(section["nodes"], "graph.nodes")
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
                frozenset(_names([_string(dep, "determined", "graph dependency")],
                                 "graph dependency.determined")),
                _names(dep.get("determiners"), "graph dependency.determiners"),
            ))
        return build_dag(nodes, edges, deps)
    except (DagError, CIError) as exc:
        raise ParseError(f"graph: {exc}") from exc


def _models(section: dict) -> Models:
    _require_keys(section, _MODELS_KEYS, "models")
    priors = []
    for k, panel in enumerate(_list(section.get("panels", []), "models.panels")):
        priors.append(_beta_prior(panel, f"models.panels[{k}]"))
    if len(priors) < 2:
        raise ParseError(f"models.panels must list at least two panels, got {len(priors)}")
    product_cell = None
    if "product_cell" in section:
        product_cell = _beta_prior(section["product_cell"], "models.product_cell")
    m, factors = len(priors), []
    for k, entry in enumerate(_list(section.get("factors", []), "models.factors")):
        where = f"models.factors[{k}]"
        _require_keys(entry, {"name", "panels", "strength"}, where)
        scope = entry.get("panels")
        # each entry is checked to be an int before the list is read as a set
        if not (isinstance(scope, list) and all(type(i) is int and 1 <= i <= m for i in scope)
                and len(set(scope)) == len(scope) >= 2):
            raise ParseError(f"{where}.panels must list two or more distinct panel numbers "
                             f"in 1..{m}, got {scope!r}")
        strength = _number(entry, "strength", 0.0, where)
        if not strength:  # missing or 0, a term that would change no result
            raise ParseError(f"{where}.strength must be a finite nonzero number, "
                             f"got {entry.get('strength')!r}")
        factor = Factor(_string(entry, "name", where, default=str(k)), scope, strength)
        # a shared name makes a report's offending factors ambiguous, and two
        # terms over one scope would add into one
        for earlier in factors:
            if factor.name == earlier.name:
                raise ParseError(f"{where}.name {factor.name!r} is given to an earlier factor")
            if factor.scope == earlier.scope:
                raise ParseError(f"{where}.panels repeats the scope of factor {earlier.name!r}")
        factors.append(factor)
    return Models(tuple(priors), product_cell, tuple(factors))


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
    run = RunOptions(
        grid=_integer(section, "grid", RunOptions.grid, "run"),
        budget=_integer(section, "budget", RunOptions.budget, "run"),
    )
    if run.grid < 3:
        raise ParseError("run.grid must be at least 3")
    if run.budget <= 0:
        raise ParseError("run.budget must be positive")
    if run.budget > MAX_BUDGET:
        raise ParseError(f"run.budget must be at most {MAX_BUDGET}, got {run.budget}")
    return run


def _statements(raw: dict, system: Optional[PanelSystem], dag: Optional[Dag]) -> tuple:
    """``(statements, goal, query)``.  Statements and the goal range over
    the spec's scope, as the commands do; a query over the graph's nodes."""
    from .ci import CIError, normalize

    universe, _ = _scope(system, dag)
    nodes = dag.node_names if dag is not None else None

    def statement(raw_stmt, where: str, known: Optional[frozenset]) -> tuple:
        """``(statement, sides)``: the statement normalised once, and its
        sides as written."""
        sets = _statement_sets(raw_stmt, where)
        if known is not None:
            stray = frozenset().union(*sets) - known
            if stray:
                raise UnresolvedSymbol(f"{where} references undeclared symbols: {sorted(stray)}")
        try:
            return normalize(*sets), sets
        except CIError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    statements = tuple(
        statement(stmt, f"statements[{k}]", universe)[0]
        for k, stmt in enumerate(_list(raw.get("statements", []), "statements"))
    )
    goal = statement(raw["goal"], "goal", universe)[0] if "goal" in raw else None
    # dsep reports a query's sides as written
    query = statement(raw["query"], "query", nodes)[1] if "query" in raw else None
    return statements, goal, query


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
    statements, goal, query = (), None, None
    if raw.keys() & {"statements", "goal", "query"}:
        statements, goal, query = _statements(raw, system, dag)

    models = _models(raw["models"]) if "models" in raw else None
    data = _data(raw["data"]) if "data" in raw else None
    run = _run(raw["run"]) if "run" in raw else SpecFile.run

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
        if data is not None and len(models.priors) != len(data.panel_counts):
            raise ParseError("models.panels and data.panel_counts must align")

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

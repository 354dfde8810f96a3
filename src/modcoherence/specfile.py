"""Strict parser for the versioned run-specification files the CLI consumes.

A spec file is a JSON document with a ``version`` tag and optional sections
(``protocol``, ``statements``, ``goal``, ``graph``, ``query``, ``models``,
``data``, ``run``).  Unknown versions, unknown keys and dangling symbol
references are all hard errors; nothing is silently ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .ci import CIStatement, EmptySide, FunctionalDependency, OverlappingSets, normalize
from .dag import CIQuery, Dag, DagError, build_dag
from .protocol import (
    ALL_CONDITIONS,
    ConditionKind,
    PanelSystem,
    build_system,
    canonical_dag,
    confounded_dag,
)

SUPPORTED_VERSION = 1


class SpecError(Exception):
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
_GRAPH_KEYS = {"template", "latent", "nodes", "edges", "dependencies"}
_MODELS_KEYS = {"panels", "interaction", "product_cell", "factors"}
_PANEL_MODEL_KEYS = {"prior", "likelihood"}
_PRIOR_KEYS = {"family", "alpha", "beta"}
_DATA_KEYS = {"panel_counts", "product_cell_counts"}
_RUN_KEYS = {"mode", "grid", "seed", "tolerance", "budget", "separability_samples"}
_STMT_KEYS = {"a", "b", "c"}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _statement_sets(raw: dict, where: str) -> tuple[frozenset, frozenset, frozenset]:
    _require_keys(raw, _STMT_KEYS, where)
    for side in ("a", "b"):
        if side not in raw:
            raise ParseError(f"{where} is missing side {side!r}")
    a = frozenset(str(s) for s in raw["a"])
    b = frozenset(str(s) for s in raw["b"])
    c = frozenset(str(s) for s in raw.get("c", ()))
    return a, b, c


def _check_prior(prior, where: str) -> None:
    _require_keys(prior, _PRIOR_KEYS, where)
    for key in ("alpha", "beta"):
        value = prior.get(key, 1)
        if type(value) not in (int, float) or not 0 < value < math.inf:
            raise ParseError(f"{where}.{key} must be a positive number, got {value!r}")


def _check_counts(pair, where: str) -> None:
    """``[successes, trials]``: two JSON integers with 0 <= successes <= trials."""
    shaped = isinstance(pair, list) and len(pair) == 2
    if shaped and not all(type(x) is int for x in pair):
        raise ParseError(f"{where}: counts must be integers, got {pair}")
    if not (shaped and 0 <= pair[0] <= pair[1]):
        raise ParseError(f"{where}: need [successes, trials], got {pair}")


@dataclass(frozen=True)
class RunOptions:
    mode: str = "axiomatic"
    grid: int = 101
    seed: int = 0
    tolerance: float = 1e-9
    budget: int = 200_000
    separability_samples: int = 256


@dataclass(frozen=True)
class SpecFile:
    version: int
    path: Optional[str] = None
    system: Optional[PanelSystem] = None
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS
    statements: tuple[CIStatement, ...] = ()
    goal: Optional[CIStatement] = None
    dag: Optional[Dag] = None
    query: Optional[CIQuery] = None
    models: Optional[dict] = None
    data: Optional[dict] = None
    run: RunOptions = field(default_factory=RunOptions)


def parse_spec(path: str | Path) -> SpecFile:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    spec = parse_spec_dict(raw)
    return SpecFile(**{**spec.__dict__, "path": str(path)})


def parse_spec_dict(raw: dict) -> SpecFile:
    _require_keys(raw, _TOP_KEYS, "spec")
    if "version" not in raw:
        raise ParseError("spec is missing the version tag")
    if raw["version"] != SUPPORTED_VERSION:
        raise UnknownVersion(f"unsupported spec version {raw['version']!r}")

    system = None
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS
    if "protocol" in raw:
        section = raw["protocol"]
        _require_keys(section, _PROTOCOL_KEYS, "protocol")
        if "panels" not in section:
            raise ParseError("protocol is missing the panel count")
        try:
            system = build_system(int(section["panels"]), int(section.get("epoch", 0)))
        except Exception as exc:
            raise ParseError(f"protocol: {exc}") from exc
        if "conditions" in section:
            kinds = []
            for name in section["conditions"]:
                try:
                    kinds.append(ConditionKind(name))
                except ValueError:
                    raise ParseError(f"protocol: unknown condition {name!r}") from None
            conditions = tuple(kinds)

    dag = None
    if "graph" in raw:
        section = raw["graph"]
        _require_keys(section, _GRAPH_KEYS, "graph")
        template = section.get("template")
        if template is not None:
            if system is None:
                raise MissingSection("graph templates require a protocol section")
            if template == "canonical":
                dag = canonical_dag(system)
            elif template == "confounded":
                dag = confounded_dag(system, str(section.get("latent", "H")))
            else:
                raise ParseError(f"graph: unknown template {template!r}")
        else:
            for key in ("nodes", "edges"):
                if key not in section:
                    raise ParseError(f"graph is missing {key!r}")
            nodes = []
            for node in section["nodes"]:
                _require_keys(node, {"name", "kind"}, "graph node")
                nodes.append((str(node["name"]), str(node.get("kind", "evidence"))))
            edges = [(str(u), str(v)) for u, v in section["edges"]]
            deps = []
            for dep in section.get("dependencies", ()):
                _require_keys(dep, {"determined", "determiners"}, "graph dependency")
                deps.append(
                    FunctionalDependency(
                        str(dep["determined"]), frozenset(str(s) for s in dep["determiners"])
                    )
                )
            try:
                dag = build_dag(nodes, edges, deps)
            except DagError as exc:
                raise ParseError(f"graph: {exc}") from exc

    known_symbols: Optional[frozenset] = None
    if system is not None or dag is not None:
        known_symbols = frozenset()
        if system is not None:
            known_symbols |= system.universe
        if dag is not None:
            known_symbols |= dag.node_names

    def resolve(sets: tuple[frozenset, ...], where: str) -> None:
        if known_symbols is None:
            return
        stray = frozenset().union(*sets) - known_symbols
        if stray:
            raise UnresolvedSymbol(f"{where} references undeclared symbols: {sorted(stray)}")

    statements = []
    for k, stmt_raw in enumerate(raw.get("statements", ())):
        sets = _statement_sets(stmt_raw, f"statements[{k}]")
        resolve(sets, f"statements[{k}]")
        try:
            statements.append(normalize(*sets))
        except (OverlappingSets, EmptySide) as exc:
            raise ParseError(f"statements[{k}]: {exc}") from exc

    goal = None
    if "goal" in raw:
        sets = _statement_sets(raw["goal"], "goal")
        resolve(sets, "goal")
        try:
            goal = normalize(*sets)
        except (OverlappingSets, EmptySide) as exc:
            raise ParseError(f"goal: {exc}") from exc

    query = None
    if "query" in raw:
        sets = _statement_sets(raw["query"], "query")
        resolve(sets, "query")
        a, b, c = sets
        if a & b or a & c or b & c:
            raise ParseError(
                f"query: sides must be pairwise disjoint: ({sorted(a)}, {sorted(b)}, {sorted(c)})"
            )
        query = CIQuery(*sets)

    models = None
    if "models" in raw:
        models = raw["models"]
        _require_keys(models, _MODELS_KEYS, "models")
        for k, panel in enumerate(models.get("panels", ())):
            _require_keys(panel, _PANEL_MODEL_KEYS, f"models.panels[{k}]")
            prior = panel.get("prior", {})
            _check_prior(prior, f"models.panels[{k}].prior")
            if prior.get("family", "beta") != "beta":
                raise ParseError(
                    f"models.panels[{k}]: unsupported prior family {prior.get('family')!r}"
                )
            if panel.get("likelihood", "bernoulli") != "bernoulli":
                raise ParseError(
                    f"models.panels[{k}]: unsupported likelihood {panel.get('likelihood')!r}"
                )
        if "interaction" in models:
            _require_keys(models["interaction"], {"strength"}, "models.interaction")
        if "product_cell" in models:
            _require_keys(models["product_cell"], {"prior"}, "models.product_cell")
            _check_prior(models["product_cell"].get("prior", {}), "models.product_cell.prior")
        for k, factor in enumerate(models.get("factors", ())):
            _require_keys(factor, {"name", "panels"}, f"models.factors[{k}]")

    data = None
    if "data" in raw:
        data = raw["data"]
        _require_keys(data, _DATA_KEYS, "data")
        for k, pair in enumerate(data.get("panel_counts", ())):
            _check_counts(pair, f"data.panel_counts[{k}]")
        if "product_cell_counts" in data:
            _check_counts(data["product_cell_counts"], "data.product_cell_counts")

    run = RunOptions()
    if "run" in raw:
        section = raw["run"]
        _require_keys(section, _RUN_KEYS, "run")
        mode = str(section.get("mode", "axiomatic"))
        if mode not in ("axiomatic", "graphical"):
            raise ParseError(f"run.mode must be axiomatic or graphical, got {mode!r}")
        run = RunOptions(
            mode=mode,
            grid=int(section.get("grid", 101)),
            seed=int(section.get("seed", 0)),
            tolerance=float(section.get("tolerance", 1e-9)),
            budget=int(section.get("budget", 200_000)),
            separability_samples=int(section.get("separability_samples", 256)),
        )
        if run.grid < 3:
            raise ParseError("run.grid must be at least 3")
        if run.budget <= 0:
            raise ParseError("run.budget must be positive")

    return SpecFile(
        version=SUPPORTED_VERSION,
        system=system,
        conditions=conditions,
        statements=tuple(statements),
        goal=goal,
        dag=dag,
        query=query,
        models=models,
        data=data,
        run=run,
    )

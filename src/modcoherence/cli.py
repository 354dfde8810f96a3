"""Command-line front end.

Subcommands: ``check``, ``derive``, ``dsep``, ``ablate`` (protocol
verification) and ``simulate``, ``separability`` (numeric experiments).
Exit codes are stable: 0 all requested checks hold, 1 a check failed,
2 input error.
"""

from __future__ import annotations

import sys
from typing import Optional

import click
import numpy as np

from . import panels as pn
from .ci import DEFAULT_BUDGET, UniverseError, derive as ci_derive
from .dag import d_separated
from .protocol import (
    ALL_CONDITIONS,
    AxiomaticMode,
    GraphicalMode,
    UniverseMismatch,
    Verdict,
    base_statements,
    verify_coherence,
    ablate as run_ablate,
)
from .report import (
    EXIT_INPUT_ERROR,
    Report,
    proof_to_dict,
    render_human,
)
from .specfile import MissingSection, SpecError, SpecFile, parse_spec


def _emit(report: Report, out: Optional[str], fmt: str, quiet: bool) -> None:
    text = report.to_json() if fmt == "machine" else render_human(report, quiet=quiet)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    sys.exit(report.exit_code)


def _error_report(command: str, exc: Exception, out, fmt, quiet) -> None:
    report = Report(command, "error", {"error": f"{type(exc).__name__}: {exc}"})
    _emit(report, out, fmt, quiet)


common_options = [
    click.option("--spec", "spec_path", required=True, type=click.Path(), help="Run spec file."),
    click.option("--out", default=None, type=click.Path(), help="Write the report here."),
    click.option(
        "--format", "fmt", default="human", type=click.Choice(["human", "machine"]),
        help="Report format.",
    ),
    click.option("--quiet", is_flag=True, help="Truncate proof traces to verdicts."),
]


def with_common(fn):
    for option in reversed(common_options):
        fn = option(fn)
    return fn


@click.group()
def main() -> None:
    """Coherence checks and simulations for modular multi-panel inference."""


def _load(command: str, spec_path: str, out, fmt, quiet) -> SpecFile:
    try:
        return parse_spec(spec_path)
    except SpecError as exc:
        _error_report(command, exc, out, fmt, quiet)


def _verdict_results(verdict: Verdict, quiet_proofs: bool = False) -> dict:
    conditions = [
        {
            "condition": status.kind.value,
            "status": status.status,
            "statements": [s.render() for s in status.statements],
        }
        for status in verdict.conditions
    ]
    goals = []
    for goal in verdict.goals:
        entry = {
            "panel": goal.panel,
            "goal": goal.name,
            "statement": goal.goal.render() if goal.goal else None,
            "status": goal.status,
        }
        if goal.proof is not None and not quiet_proofs:
            entry["proof"] = proof_to_dict(goal.proof)
        goals.append(entry)
    return {
        "conditions": conditions,
        "goals": goals,
        "sound_and_distributed": verdict.sound_and_distributed,
    }


def _mode_for(spec: SpecFile, mode_flag: Optional[str]):
    mode_name = mode_flag or spec.run.mode
    if mode_name == "graphical":
        if spec.dag is None:
            raise MissingSection("graphical mode requires a graph section")
        return GraphicalMode(spec.dag)
    base = base_statements(spec.system, spec.conditions) + spec.statements
    return AxiomaticMode(tuple(sorted(set(base), key=lambda s: s.sort_key())), spec.run.budget)


@main.command()
@with_common
@click.option("--mode", default=None, type=click.Choice(["axiomatic", "graphical"]))
def check(spec_path, out, fmt, quiet, mode):
    """Verify the four protocol conditions and the coherence conclusion."""
    spec = _load("check", spec_path, out, fmt, quiet)
    try:
        if spec.system is None:
            raise MissingSection("check requires a protocol section")
        verdict = verify_coherence(spec.system, _mode_for(spec, mode))
    except (SpecError, UniverseMismatch) as exc:
        _error_report("check", exc, out, fmt, quiet)
    results = _verdict_results(verdict)
    status = "pass" if verdict.sound_and_distributed else "fail"
    _emit(Report("check", status, results, {"mode": mode or spec.run.mode}), out, fmt, quiet)


@main.command()
@with_common
def derive(spec_path, out, fmt, quiet):
    """Derive the spec's goal statement from its base statements."""
    spec = _load("derive", spec_path, out, fmt, quiet)
    if spec.goal is None:
        _error_report("derive", MissingSection("derive requires a goal section"), out, fmt, quiet)
    base = list(spec.statements)
    deps: tuple = ()
    universe = None
    if spec.system is not None:
        base.extend(base_statements(spec.system, spec.conditions))
        deps = spec.system.dependencies
        universe = spec.system.universe
    elif spec.dag is not None:
        deps = spec.dag.dependencies
    if not base:
        _error_report(
            "derive", MissingSection("derive requires statements or a protocol"), out, fmt, quiet
        )
    try:
        result = ci_derive(base, deps, spec.goal, spec.run.budget, universe=universe)
    except UniverseError as exc:
        _error_report("derive", exc, out, fmt, quiet)
    results = {
        "goal": spec.goal.render(),
        "status": result.status,
        "statements_generated": result.generated,
    }
    if result.proof is not None:
        results["proof"] = proof_to_dict(result.proof)
    status = "pass" if result.proved else "fail"
    _emit(Report("derive", status, results), out, fmt, quiet)


@main.command()
@with_common
def dsep(spec_path, out, fmt, quiet):
    """Answer the spec's separation query on its graph."""
    spec = _load("dsep", spec_path, out, fmt, quiet)
    if spec.dag is None or spec.query is None:
        _error_report(
            "dsep", MissingSection("dsep requires graph and query sections"), out, fmt, quiet
        )
    separated = d_separated(spec.dag, spec.query.a, spec.query.b, spec.query.c)
    results = {
        "query": {
            "a": sorted(spec.query.a),
            "b": sorted(spec.query.b),
            "c": sorted(spec.query.c),
        },
        "d_separated": separated,
    }
    _emit(Report("dsep", "pass" if separated else "fail", results), out, fmt, quiet)


@main.command()
@with_common
def ablate(spec_path, out, fmt, quiet):
    """Drop each protocol condition in turn and report what breaks.

    A failing row certifies non-derivability within this rule system
    (saturation completed without reaching the goal), not semantic falsity.
    """
    spec = _load("ablate", spec_path, out, fmt, quiet)
    if spec.system is None:
        _error_report("ablate", MissingSection("ablate requires a protocol section"), out, fmt, quiet)
    rows = run_ablate(spec.system, spec.run.budget)
    table = []
    ok = True
    for dropped, verdict in rows:
        failing = [
            f"panel {g.panel}: {g.name}" for g in verdict.goals if not g.established
        ]
        table.append(
            {
                "dropped": dropped.value if dropped else None,
                "sound_and_distributed": verdict.sound_and_distributed,
                "unreachable_goals": failing,
                "certificate": "rule-system-relative non-derivability" if failing else None,
            }
        )
        if dropped is None:
            ok = ok and verdict.sound_and_distributed
        else:
            ok = ok and not verdict.sound_and_distributed
    _emit(Report("ablate", "pass" if ok else "fail", {"rows": table}), out, fmt, quiet)


def _panel_setup(spec: SpecFile):
    if spec.models is None or spec.data is None:
        raise MissingSection("this command requires models and data sections")
    panel_models = spec.models.get("panels", [])
    counts = spec.data.get("panel_counts", [])
    if not panel_models or len(panel_models) != len(counts):
        raise MissingSection("models.panels and data.panel_counts must align")
    priors = [
        pn.BetaParams(float(p["prior"].get("alpha", 1)), float(p["prior"].get("beta", 1)))
        for p in panel_models
    ]
    return priors, [tuple(pair) for pair in counts]


def _interior_grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 2)[1:-1]


def _joint_loglik(logliks, strength: float):
    """Sum of the per-panel log-likelihoods, plus ``strength`` times the
    product of the blocks when the spec declares an interaction."""

    def joint_ll(*blocks):
        total = sum(ll(b) for ll, b in zip(logliks, blocks))
        if strength:
            total = total + strength * np.prod(np.broadcast_arrays(*blocks), axis=0)
        return total

    return joint_ll


@main.command()
@with_common
def simulate(spec_path, out, fmt, quiet):
    """Distributed updating versus the full-joint oracle on the spec's model."""
    spec = _load("simulate", spec_path, out, fmt, quiet)
    try:
        priors, counts = _panel_setup(spec)
    except SpecError as exc:
        _error_report("simulate", exc, out, fmt, quiet)
    n = spec.run.grid
    posteriors = [pn.panel_update_conjugate(p, c) for p, c in zip(priors, counts)]
    grids = [pn.beta_grid(post, n) for post in posteriors]
    distributed = pn.compose_product(grids)
    product_mean_closed = float(np.prod([p.mean for p in posteriors]))
    product_mean_grid = pn.functional_expectation(
        distributed, lambda *blocks: np.prod(np.broadcast_arrays(*blocks), axis=0)
    )
    results: dict = {
        "panel_posteriors": [
            {"panel": i + 1, "alpha": p.alpha, "beta": p.beta, "mean": p.mean}
            for i, p in enumerate(posteriors)
        ],
        "distributed_product_mean_closed_form": product_mean_closed,
        "distributed_product_mean_grid": product_mean_grid,
    }

    strength = float(spec.models.get("interaction", {}).get("strength", 0.0))
    logliks = [pn.bernoulli_loglik(s, t) for s, t in counts]
    prior_grids = [pn.beta_grid(p, n) for p in priors]
    oracle = pn.joint_oracle(prior_grids, _joint_loglik(logliks, strength))
    div = pn.divergence(distributed, oracle)
    results["joint_oracle_product_mean"] = pn.functional_expectation(
        oracle, lambda *blocks: np.prod(np.broadcast_arrays(*blocks), axis=0)
    )
    results["divergence"] = {"max_abs": div.max_abs, "total_variation": div.total_variation}
    results["interaction_strength"] = strength

    if "product_cell" in (spec.models or {}) and spec.data.get("product_cell_counts"):
        prior_raw = spec.models["product_cell"]["prior"]
        cell_prior = pn.BetaParams(float(prior_raw.get("alpha", 1)), float(prior_raw.get("beta", 1)))
        s, t = spec.data["product_cell_counts"]
        cell_post = pn.panel_update_conjugate(cell_prior, (int(s), int(t)))
        results["product_cell_posterior_mean"] = cell_post.mean
        results["distributed_over_product_cell_ratio"] = product_mean_closed / cell_post.mean

    _emit(Report("simulate", "pass", results, {"grid": n, "seed": spec.run.seed}), out, fmt, quiet)


@main.command()
@with_common
def separability(spec_path, out, fmt, quiet):
    """Symbolic and numeric likelihood-separability checks."""
    spec = _load("separability", spec_path, out, fmt, quiet)
    try:
        priors, counts = _panel_setup(spec)
    except SpecError as exc:
        _error_report("separability", exc, out, fmt, quiet)
    results: dict = {}

    factors_raw = (spec.models or {}).get("factors")
    if factors_raw is not None:
        fspec = pn.FactorSpec(
            tuple(pn.Factor(str(f.get("name", k)), frozenset(f["panels"]))
                  for k, f in enumerate(factors_raw))
        )
        symbolic = pn.separability_check_symbolic(fspec, len(priors))
        results["symbolic"] = {
            "separable": symbolic.separable,
            "offending_factors": [f.name for f in symbolic.offending],
        }

    strength = float(spec.models.get("interaction", {}).get("strength", 0.0))
    logliks = [pn.bernoulli_loglik(s, t) for s, t in counts]
    joint_ll = _joint_loglik(logliks, strength)

    grid = _interior_grid(spec.run.grid)
    verdict = pn.separability_check_numeric(
        joint_ll,
        [grid] * len(priors),
        tolerance=spec.run.tolerance,
        samples=spec.run.separability_samples,
        seed=spec.run.seed,
    )
    results["numeric"] = {
        "separable": verdict.separable,
        "max_residual": verdict.max_residual,
        "witnesses": [
            {
                "blocks": [w[0], w[1]],
                "points": [list(w[2]), list(w[3]), list(w[4]), list(w[5])],
                "residual": w[6],
            }
            for w in verdict.offending
        ],
    }

    prior_grids = [pn.beta_grid(p, spec.run.grid) for p in priors]
    distributed = pn.compose_product(
        [pn.panel_update_grid(g, ll) for g, ll in zip(prior_grids, logliks)]
    )
    oracle = pn.joint_oracle(prior_grids, joint_ll)
    div = pn.divergence(distributed, oracle)
    results["divergence"] = {"max_abs": div.max_abs, "total_variation": div.total_variation}

    status = "pass" if verdict.separable else "fail"
    _emit(
        Report(
            "separability",
            status,
            results,
            {"seed": spec.run.seed, "tolerance": spec.run.tolerance},
        ),
        out,
        fmt,
        quiet,
    )


if __name__ == "__main__":  # pragma: no cover
    main()

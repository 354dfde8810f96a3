"""Command-line front end, on stdlib ``argparse``.

Subcommands: ``check``, ``derive``, ``dsep``, ``ablate`` (protocol
verification) and ``simulate``, ``separability`` (numeric experiments), each
a function ``spec -> Report`` that takes the same four options.  Exit codes
are stable: 0 all requested checks hold, 1 a check failed, 2 input or usage
error; an interrupt prints ``Aborted!`` to stderr and exits 1.  Only
``simulate`` and ``separability`` import ``panels`` (and with it numpy),
inside the command, so the symbolic commands start without numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import ModcoherenceError
from .ci import derive as ci_derive
from .dag import d_separated
from .protocol import (
    ALL_CONDITIONS,
    AxiomaticMode,
    GraphicalMode,
    Verdict,
    base_statements,
    verify_coherence,
    ablate as run_ablate,
)
from .report import Report, proof_to_dict, render_human
from .specfile import MissingSection, SpecError, SpecFile, parse_spec

OPTIONS = (
    ("--spec", {"required": True, "help": "Run spec file."}),
    ("--out", {"help": "Write the report here."}),
    ("--format", {"dest": "fmt", "choices": ("human", "machine"), "default": "human",
                  "help": "Report format."}),
    ("--quiet", {"action": "store_true", "help": "Truncate proof traces to verdicts."}),
)


def run(command, spec: str, out: str | None, fmt: str, quiet: bool) -> int:
    """The CLI's one input boundary: parse the spec, let ``command(spec)``
    build the report, turn any package error into an exit-2 error report, then
    write the report in the requested format and return its exit code.  A
    ``--out`` file that cannot be written is an exit-2 error report on
    stdout."""

    def error(exc: Exception) -> Report:
        return Report(command.__name__, "error", {"error": f"{type(exc).__name__}: {exc}"})

    def render(report: Report) -> str:
        return report.to_json() if fmt == "machine" else render_human(report, quiet=quiet)

    try:
        report = command(parse_spec(spec))
    except ModcoherenceError as exc:
        report = error(exc)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(render(report))
        except OSError as exc:
            report = error(exc)
            sys.stdout.write(render(report))
    else:
        sys.stdout.write(render(report))
    return report.exit_code


def main(args=None, prog_name=None) -> None:
    """Coherence checks and simulations for modular multi-panel inference."""
    parser = argparse.ArgumentParser(
        prog=prog_name or "modcoherence", description=main.__doc__, allow_abbrev=False
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for fn in (check, derive, dsep, ablate, simulate, separability):
        doc = fn.__doc__ or ""  # None under python -OO
        sub = commands.add_parser(
            fn.__name__, help=doc.split("\n")[0], description=doc, allow_abbrev=False
        )
        sub.set_defaults(command=fn)
        for flag, options in OPTIONS:
            sub.add_argument(flag, **options)
    try:
        code = run(**vars(parser.parse_args(args)))
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    sys.exit(code)


def _verdict_results(verdict: Verdict) -> dict:
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
        if goal.proof is not None:
            entry["proof"] = proof_to_dict(goal.proof)
        goals.append(entry)
    return {
        "conditions": conditions,
        "goals": goals,
        "sound_and_distributed": verdict.sound_and_distributed,
    }


def _require_all_conditions(spec: SpecFile, reason: str) -> None:
    if set(spec.conditions) != set(ALL_CONDITIONS):
        kept = [kind.value for kind in spec.conditions]
        raise SpecError(f"{reason}, so protocol.conditions must list all four, got {kept}")


def _axiomatic_base(spec: SpecFile) -> tuple:
    """The spec's statements, plus its protocol's condition statements."""
    system = spec.system
    return spec.statements + (base_statements(system, spec.conditions) if system else ())


def _mode_for(spec: SpecFile):
    if spec.run.mode == "graphical":
        if spec.dag is None:
            raise MissingSection("graphical mode requires a graph section")
        _require_all_conditions(spec, "graphical mode tests all four conditions on the graph")
        if spec.statements:
            raise SpecError("graphical mode tests the graph alone, so statements must be empty")
        return GraphicalMode(spec.dag)
    return AxiomaticMode(_axiomatic_base(spec), spec.run.budget)


def check(spec: SpecFile) -> Report:
    """Verify the four protocol conditions and the coherence conclusion."""
    if spec.system is None:
        raise MissingSection("check requires a protocol section")
    verdict = verify_coherence(spec.system, _mode_for(spec))
    status = "pass" if verdict.sound_and_distributed else "fail"
    return Report("check", status, _verdict_results(verdict), {"mode": spec.run.mode})


def derive(spec: SpecFile) -> Report:
    """Derive the spec's goal statement from its base statements."""
    if spec.goal is None:
        raise MissingSection("derive requires a goal section")
    base = _axiomatic_base(spec)
    deps: tuple = ()
    universe = None
    if spec.system is not None:
        deps = spec.system.dependencies
        universe = spec.system.universe
    elif spec.dag is not None:
        deps = spec.dag.dependencies
        universe = spec.dag.node_names
    if not base:
        raise MissingSection("derive requires base statements (statements or protocol.conditions)")
    result = ci_derive(base, deps, spec.goal, spec.run.budget, universe=universe)
    results = {
        "goal": spec.goal.render(),
        "status": result.status,
        "statements_generated": result.generated,
    }
    if result.proof is not None:
        results["proof"] = proof_to_dict(result.proof)
    return Report("derive", "pass" if result.proved else "fail", results)


def dsep(spec: SpecFile) -> Report:
    """Answer the spec's separation query on its graph."""
    if spec.dag is None or spec.query is None:
        raise MissingSection("dsep requires graph and query sections")
    a, b, c = spec.query
    separated = d_separated(spec.dag, a, b, c)
    results = {
        "query": {"a": sorted(a), "b": sorted(b), "c": sorted(c)},
        "d_separated": separated,
    }
    return Report("dsep", "pass" if separated else "fail", results)


def ablate(spec: SpecFile) -> Report:
    """Drop each protocol condition in turn and report what breaks.

    A failing row certifies non-derivability within this rule system
    (saturation completed without reaching the goal), not semantic falsity.
    A row with a goal that ran out of budget is inconclusive: it carries no
    certificate, and the command fails.  Every row starts from all four
    conditions, so a spec that restricts ``protocol.conditions`` is refused.
    """
    if spec.system is None:
        raise MissingSection("ablate requires a protocol section")
    _require_all_conditions(spec, "ablate drops each of the four conditions in turn")

    def goals(verdict: Verdict, status: str) -> list[str]:
        return [f"panel {g.panel}: {g.name}" for g in verdict.goals if g.status == status]

    table = []
    ok = True
    for dropped, verdict in run_ablate(spec.system, spec.run.budget):
        unreachable = goals(verdict, "not_derivable")
        certified = unreachable and not verdict.inconclusive
        row = {
            "dropped": dropped.value if dropped else None,
            "sound_and_distributed": verdict.sound_and_distributed,
            "unreachable_goals": unreachable,
            "certificate": "rule-system-relative non-derivability" if certified else None,
        }
        if verdict.inconclusive:
            row["inconclusive_goals"] = goals(verdict, "budget_exhausted")
        table.append(row)
        ok = ok and verdict.sound_and_distributed == (dropped is None) and not verdict.inconclusive
    return Report("ablate", "pass" if ok else "fail", {"rows": table})


def simulate(spec: SpecFile) -> Report:
    """Distributed updating versus the full-joint oracle on the spec's model."""
    from . import panels as pn

    models, data = spec.panel_inputs()
    n = spec.run.grid
    posteriors = [pn.panel_update_conjugate(p, c) for p, c in zip(models.priors, data.panel_counts)]
    grids = [pn.beta_grid(post, n) for post in posteriors]
    distributed = pn.compose_product(grids)
    product_mean_closed = pn.product_mean(posteriors)
    product_mean_grid = pn.functional_expectation(distributed, pn.block_product)
    results: dict = {
        "panel_posteriors": [
            {"panel": i + 1, "alpha": p.alpha, "beta": p.beta, "mean": p.mean}
            for i, p in enumerate(posteriors)
        ],
        "distributed_product_mean_closed_form": product_mean_closed,
        "distributed_product_mean_grid": product_mean_grid,
    }

    strength = models.interaction_strength
    logliks = [pn.bernoulli_loglik(s, t) for s, t in data.panel_counts]
    prior_grids = [pn.beta_grid(p, n) for p in models.priors]
    oracle = pn.joint_oracle(prior_grids, pn.panel_joint_loglik(logliks, strength))
    div = pn.divergence(distributed, oracle)
    results["joint_oracle_product_mean"] = pn.functional_expectation(oracle, pn.block_product)
    results["divergence"] = {"max_abs": div.max_abs, "total_variation": div.total_variation}
    results["interaction_strength"] = strength

    if models.product_cell is not None:
        cell_post = pn.panel_update_conjugate(models.product_cell, data.product_cell_counts)
        results["product_cell_posterior_mean"] = cell_post.mean
        results["distributed_over_product_cell_ratio"] = product_mean_closed / cell_post.mean

    return Report("simulate", "pass", results, {"grid": n})


def separability(spec: SpecFile) -> Report:
    """Symbolic and numeric likelihood-separability checks."""
    from . import panels as pn

    models, data = spec.panel_inputs()
    results: dict = {}

    if models.factors is not None:
        symbolic = pn.separability_check_symbolic(models.factors, len(models.priors))
        results["symbolic"] = {
            "separable": symbolic.separable,
            "offending_factors": [f.name for f in symbolic.offending],
        }

    logliks = [pn.bernoulli_loglik(s, t) for s, t in data.panel_counts]
    joint_ll = pn.panel_joint_loglik(logliks, models.interaction_strength)

    grid = pn.interior_grid(spec.run.grid)
    verdict = pn.separability_check_numeric(joint_ll, [grid] * len(models.priors))
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

    prior_grids = [pn.beta_grid(p, spec.run.grid) for p in models.priors]
    distributed = pn.compose_product(
        [pn.panel_update_grid(g, ll) for g, ll in zip(prior_grids, logliks)]
    )
    oracle = pn.joint_oracle(prior_grids, joint_ll)
    div = pn.divergence(distributed, oracle)
    results["divergence"] = {"max_abs": div.max_abs, "total_variation": div.total_variation}

    status = "pass" if verdict.separable else "fail"
    return Report("separability", status, results)


if __name__ == "__main__":  # pragma: no cover
    main()

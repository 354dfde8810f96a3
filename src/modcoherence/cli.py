"""Command-line front end, on stdlib ``argparse``.

Subcommands: ``check``, ``derive``, ``dsep``, ``ablate`` (protocol
verification) and ``simulate``, ``separability`` (numeric experiments), each
a function ``spec -> Report`` that takes the same four options.  Exit codes
are stable: 0 all requested checks hold, 1 a check failed, 2 input, usage
or output error; an interrupt prints ``Aborted!`` to stderr and exits 1.

Each command loads only the engines it runs.  Only ``simulate`` and
``separability`` import ``panels`` (and with it numpy), inside the command
and its grid helper; neither loads ``ci``, ``dag`` or ``protocol``.
``dsep`` loads ``ci`` and ``dag`` but not ``protocol``, and ``check``,
``derive`` and ``ablate`` load all three but not ``panels``.  The spec
parser imports the engine of each section it parses, and the engine
functions the commands call (``verify_coherence``, ``base_statements``,
``run_ablate``, ``ci_derive``, ``d_separated``) are this module's attributes
bound on first access: ``__getattr__`` imports the engine and stores its
function here.  The commands call them as attributes of this module, so a
function set on one of these names is the one that runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import TYPE_CHECKING

from . import ModcoherenceError
from .report import Report, proof_to_dict, render_human
from .specfile import MissingSection, SpecError, SpecFile, parse_spec
from .values import ALL_CONDITIONS

if TYPE_CHECKING:
    from .protocol import Verdict

# attribute -> (engine module, its function), bound by ``__getattr__``
_ENGINE_FUNCTIONS = {
    "verify_coherence": ("protocol", "verify_coherence"),
    "base_statements": ("protocol", "base_statements"),
    "run_ablate": ("protocol", "ablate"),
    "ci_derive": ("ci", "derive"),
    "d_separated": ("dag", "d_separated"),
}


def __getattr__(name: str):
    """Bind an engine function on its first access (PEP 562): import its
    engine, store the engine's own function in this module and return it."""
    if name not in _ENGINE_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    engine, function = _ENGINE_FUNCTIONS[name]
    value = globals()[name] = getattr(importlib.import_module(f".{engine}", __package__), function)
    return value


_engines = sys.modules[__name__]  # this module, through which commands call the engines

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
    stdout, and a report that cannot be written to stdout is exit 2 with one
    ``error:`` line on stderr."""

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
            return report.exit_code
        except OSError as exc:
            report = error(exc)
    return report.exit_code if _write_stdout(render(report)) else 2


def _write_stdout(text: str) -> bool:
    """Write and flush ``text`` to stdout, or, when that fails (a closed
    pipe, a closed or full stdout), report the failure in one stderr line,
    point fd 1 at the null device so the interpreter's final flush stays
    silent, and return False."""
    try:
        sys.stdout.write(text)  # AttributeError: stdout is None, fd 1 was closed
        sys.stdout.flush()
        return True
    except (AttributeError, OSError) as exc:
        try:
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
            sys.stderr.flush()
        except (AttributeError, OSError):
            pass
        null = os.open(os.devnull, os.O_WRONLY)
        if null != 1:
            os.dup2(null, 1)
            os.close(null)
        return False


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help goes through :func:`_write_stdout`, so
    help that cannot be written exits 2, as a report does; argparse's own
    writer drops the error and exits 0."""

    def print_help(self, file=None) -> None:
        if file is not None:
            super().print_help(file)
        elif not _write_stdout(self.format_help()):
            self.exit(2)


def main(args=None, prog_name=None) -> None:
    """Coherence checks and simulations for modular multi-panel inference."""
    parser = _Parser(
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
            "statement": goal.goal.render(),
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


def _axiomatic_base(spec: SpecFile) -> tuple:
    """The spec's statements, plus its protocol's condition statements."""
    system = spec.system
    if system is None:
        return spec.statements
    return _engines.base_statements(system, spec.conditions, spec.statements)


def check(spec: SpecFile) -> Report:
    """Verify the four protocol conditions and the coherence conclusion.

    With a graph section by d-separation on the graph, else by the prover."""
    if spec.system is None:
        raise MissingSection("check requires a protocol section")
    from .protocol import AxiomaticMode, GraphicalMode

    if spec.dag is None:
        mode = AxiomaticMode(_axiomatic_base(spec), spec.run.budget)
    elif set(spec.conditions) != set(ALL_CONDITIONS):
        kept = [kind.value for kind in spec.conditions]
        raise SpecError("graphical mode tests all four conditions on the graph, "
                        f"so protocol.conditions must list all four, got {kept}")
    elif spec.statements:
        raise SpecError("graphical mode tests the graph alone, so statements must be empty")
    else:
        mode = GraphicalMode(spec.dag)
    verdict = _engines.verify_coherence(spec.system, mode)
    status = "pass" if verdict.sound_and_distributed else "fail"
    options = {"mode": "axiomatic" if spec.dag is None else "graphical"}
    return Report("check", status, _verdict_results(verdict), options)


def derive(spec: SpecFile) -> Report:
    """Derive the spec's goal statement from check's axiomatic premises.

    A protocol spec with a graph section is refused: check tests it on the graph."""
    if spec.goal is None:
        raise MissingSection("derive requires a goal section")
    if spec.system is not None and spec.dag is not None:
        raise SpecError("check tests a spec with a graph section on the graph, not on the "
                        "protocol's premises: remove the graph section to derive from them")
    base = _axiomatic_base(spec)
    if not base:
        raise MissingSection("derive requires base statements (statements or protocol.conditions)")
    universe, deps = spec.scope
    result = _engines.ci_derive(base, deps, spec.goal, spec.run.budget, universe=universe)
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
    separated = _engines.d_separated(spec.dag, a, b, c)
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
    certificate, and the command fails.  The control row is ``check``'s
    axiomatic premises, and each other row drops one condition listed in
    ``protocol.conditions`` from them.  With a graph section ``check`` tests
    the graph, which has no premises to drop, so the spec is refused.
    """
    if spec.system is None:
        raise MissingSection("ablate requires a protocol section")
    if spec.dag is not None:
        raise SpecError("check tests a spec with a graph section on the graph, which has no "
                        "premises to drop: remove the graph section to ablate the prover's premises")

    def goals(verdict: Verdict, status: str) -> list[str]:
        return [f"panel {g.panel}: {g.name}" for g in verdict.goals if g.status == status]

    table = []
    rows = _engines.run_ablate(spec.system, spec.run.budget, spec.conditions, spec.statements)
    for dropped, verdict in rows:
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
    ok = all(v.sound_and_distributed == (d is None) and not v.inconclusive for d, v in rows)
    return Report("ablate", "pass" if ok else "fail", {"rows": table})


def _grid_comparison(models, data, n: int):
    """``panels.grid_comparison`` on the spec's Beta prior grids and panel
    data, with its divergence as the report's dict."""
    from . import panels as pn

    priors = [pn.beta_grid(p, n) for p in models.priors]
    logliks = [pn.bernoulli_loglik(s, t) for s, t in data.panel_counts]
    out = pn.grid_comparison(priors, logliks, models.interaction_strength)
    div = out.divergence
    return out, {"max_abs": div.max_abs, "total_variation": div.total_variation}


def simulate(spec: SpecFile) -> Report:
    """Distributed updating versus the full-joint oracle on the spec's model."""
    from . import panels as pn

    models, data = spec.panel_inputs()
    grids, comparison = _grid_comparison(models, data, spec.run.grid)
    posteriors = [pn.panel_update_conjugate(p, c) for p, c in zip(models.priors, data.panel_counts)]
    product_mean_closed = pn.product_mean(posteriors)
    results: dict = {
        "panel_posteriors": [
            {"panel": i + 1, "alpha": p.alpha, "beta": p.beta, "mean": p.mean}
            for i, p in enumerate(posteriors)
        ],
        "distributed_product_mean_closed_form": product_mean_closed,
        "distributed_product_mean_grid": pn.functional_expectation(grids.distributed, pn.block_product),
        "joint_oracle_product_mean": pn.functional_expectation(grids.oracle, pn.block_product),
        "divergence": comparison,
        "interaction_strength": models.interaction_strength,
    }
    if models.product_cell is not None:
        cell_post = pn.panel_update_conjugate(models.product_cell, data.product_cell_counts)
        results["product_cell_posterior_mean"] = cell_post.mean
        results["distributed_over_product_cell_ratio"] = product_mean_closed / cell_post.mean

    return Report("simulate", "pass", results, {"grid": spec.run.grid})


def separability(spec: SpecFile) -> Report:
    """Symbolic and numeric likelihood-separability checks."""
    from . import panels as pn

    models, data = spec.panel_inputs()
    grids, comparison = _grid_comparison(models, data, spec.run.grid)
    results: dict = {}

    if models.factors is not None:
        offending = pn.separability_check_symbolic(models.factors, len(models.priors))
        results["symbolic"] = {
            "separable": not offending,
            "offending_factors": [f.name for f in offending],
        }

    grid = pn.interior_grid(spec.run.grid)
    verdict = pn.separability_check_numeric(grids.joint_ll, [grid] * len(models.priors))
    results["numeric"] = {
        "separable": verdict.separable,
        "max_residual": verdict.max_residual,
        "witnesses": [
            {"blocks": [w[0], w[1]], "points": [list(p) for p in w[2:6]], "residual": w[6]}
            for w in verdict.offending
        ],
    }
    results["divergence"] = comparison

    status = "pass" if verdict.separable else "fail"
    return Report("separability", status, results)


if __name__ == "__main__":  # pragma: no cover
    main()

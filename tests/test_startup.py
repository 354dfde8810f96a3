"""Start-up cost of the CLI: the symbolic commands import neither numpy nor
scipy, the numeric commands import numpy, and no command needs click or
any of the test extra (scipy, hypothesis, networkx): the probe blocks all
four, and every command still exits with its README code.

Each command, run alone in a fresh interpreter, loads only the engines it
runs: ``simulate`` and ``separability`` load no ``ci``, ``dag`` or
``protocol``, ``dsep`` on a graph-only spec loads no ``protocol``, and no
symbolic command loads ``panels``.  Importing ``modcoherence.cli`` loads no
engine; its five engine functions bind on first access to the engine's own
functions, and a function set on one of those names is the one a command
calls.

``beta_grid`` builds the Beta grid from a numpy log kernel; the sweep below
checks it against ``scipy.stats.beta.pdf`` as an oracle (scipy is a test-only
dependency).  The two evaluate the density differently, so they agree to
``rtol=1e-12``, not bit for bit: the sweep's largest relative deviation on
masses above 1e-300 is 2.4e-13.  Masses below 1e-300, where one side may
underflow to 0 while the other is subnormal, are held to ``atol=1e-300``.
The sweep skips where scipy is not installed, so the start-up pins run
without the test extra.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modcoherence
from modcoherence.panels import BetaParams, beta_grid

SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(modcoherence.__file__).resolve().parent.parent

PROBE = """
import os
import sys
BLOCKED = ["click", "hypothesis", "networkx", "scipy"]
for name in BLOCKED:
    sys.modules[name] = None  # any import of it now raises ImportError
import modcoherence.cli

def loaded():
    blocked = sorted(name for name in sys.modules if name.split(".")[0] in BLOCKED)
    assert blocked == BLOCKED, blocked
    assert all(sys.modules[name] is None for name in BLOCKED)
    return [name for name in ("numpy",) if name in sys.modules]

seen = [loaded()]
for command, spec, code in (("check", "coherence_m2", 0), ("derive", "coherence_m2", 0),
                            ("dsep", "chain_dsep", 0), ("ablate", "coherence_m2", 0),
                            ("simulate", "food_example", 0),
                            ("separability", "separable_pair", 0),
                            ("separability", "interaction_pair", 1)):
    try:
        modcoherence.cli.main(
            args=[command, "--spec", f"{sys.argv[1]}/{spec}.spec", "--out", os.devnull]
        )
    except SystemExit as exc:
        assert exc.code == code, (command, spec, exc.code)
    seen.append(loaded())
print(seen)
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, check=False
    )


def test_cli_commands_do_not_import_scipy_stats():
    proc = _python("-c", PROBE, str(SPECS))
    assert proc.returncode == 0, proc.stderr
    # after the import, then after check, derive, dsep and ablate, then after
    # simulate and the two separability runs
    assert proc.stdout.strip() == str([[]] * 5 + [["numpy"]] * 3)


RECORD_PROBE = """
import os
import sys
import modcoherence.cli

def loaded():
    return [name for name in ("dataclasses", "inspect") if name in sys.modules]

seen = [loaded()]
for command, spec in (("check", "coherence_m2"), ("derive", "coherence_m2"),
                      ("dsep", "chain_dsep"), ("ablate", "coherence_m2"),
                      ("simulate", "food_example"), ("separability", "separable_pair")):
    try:
        modcoherence.cli.main(
            args=[command, "--spec", f"{sys.argv[1]}/{spec}.spec", "--out", os.devnull]
        )
    except SystemExit as exc:
        assert exc.code == 0, (command, spec, exc.code)
    seen.append(loaded())
print(seen)
"""


def test_cli_commands_do_not_import_dataclasses_or_inspect():
    # the records generate no code, so nothing loads dataclasses, nor the
    # inspect it imports; numpy itself loads inspect for the numeric commands
    proc = _python("-c", RECORD_PROBE, str(SPECS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([[]] * 5 + [["inspect"]] * 2)


def test_cli_runs_without_docstrings():
    # python -OO strips the docstrings the subcommands' help is built from
    proc = _python("-OO", "-m", "modcoherence.cli", "dsep", "--spec", str(SPECS / "chain_dsep.spec"))
    assert proc.returncode == 0, proc.stderr
    assert _python("-OO", "-m", "modcoherence.cli", "--help").returncode == 0


COMMAND_PROBE = """
import os
import sys
import modcoherence.cli

command, spec = sys.argv[1:]
try:
    modcoherence.cli.main(args=[command, "--spec", spec, "--out", os.devnull])
except SystemExit as exc:
    code = exc.code
print([code, sorted(name for name in sys.modules if name.startswith("modcoherence."))])
"""

FRONT_END = "cli report specfile values"


@pytest.mark.parametrize("command, spec, code, engines", [
    ("simulate", "food_example", 0, "panels"),
    ("separability", "separable_pair", 0, "panels"),
    ("separability", "interaction_pair", 1, "panels"),
    ("dsep", "chain_dsep", 0, "ci dag"),
    ("check", "coherence_m2", 0, "ci dag protocol"),
    ("derive", "coherence_m2", 0, "ci dag protocol"),
    ("ablate", "coherence_m2", 0, "ci dag protocol"),
])
def test_each_command_loads_only_the_engines_it_runs(command, spec, code, engines):
    proc = _python("-c", COMMAND_PROBE, command, str(SPECS / f"{spec}.spec"))
    assert proc.returncode == 0, proc.stderr
    modules = sorted(f"modcoherence.{name}" for name in f"{FRONT_END} {engines}".split())
    assert proc.stdout.strip() == str([code, modules])


BINDING_PROBE = """
import os
import sys
import modcoherence.cli as cli

def engines():
    return sorted(name for name in ("ci", "dag", "panels", "protocol")
                  if f"modcoherence.{name}" in sys.modules)

assert engines() == [], engines()
d_separated = cli.d_separated
assert engines() == ["ci", "dag"], engines()
ci_derive = cli.ci_derive
assert engines() == ["ci", "dag"], engines()
bound = (cli.verify_coherence, cli.base_statements, cli.run_ablate)
assert engines() == ["ci", "dag", "protocol"], engines()

from modcoherence import ci, dag, protocol
assert d_separated is dag.d_separated and cli.d_separated is d_separated
assert ci_derive is ci.derive and cli.ci_derive is ci_derive
assert bound == (protocol.verify_coherence, protocol.base_statements, protocol.ablate)
try:
    cli.no_such_binding
except AttributeError as exc:
    assert str(exc) == "module 'modcoherence.cli' has no attribute 'no_such_binding'", exc
else:
    raise AssertionError("an unknown attribute resolved")

calls = []

def counting(fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper

cli.d_separated = counting(cli.d_separated)
cli.verify_coherence = counting(cli.verify_coherence)
# check on a graph asks protocol.d_separated, not the CLI's binding
for command, spec in (("dsep", "chain_dsep"), ("check", "coherence_m2"),
                      ("check", "canonical_graph")):
    try:
        cli.main(args=[command, "--spec", f"{sys.argv[1]}/{spec}.spec", "--out", os.devnull])
    except SystemExit as exc:
        assert exc.code == 0, (command, spec, exc.code)
print(calls)
"""


def test_engine_functions_bind_on_first_access_and_calls_go_through_the_binding():
    proc = _python("-c", BINDING_PROBE, str(SPECS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["d_separated", "verify_coherence", "verify_coherence"])


def _reference_weights(stats, alpha, beta, n):
    points = np.linspace(0.0, 1.0, n)
    dens = stats.beta.pdf(points, alpha, beta)
    dens = np.where(np.isfinite(dens), dens, 0.0)
    return dens / dens.sum()


def test_beta_grid_matches_scipy_stats_beta_pdf():
    stats = pytest.importorskip("scipy.stats")
    # alpha or beta below 1 puts an infinite density on an endpoint
    shapes = (0.05, 0.5, 1, 1.0, 2, 2.5, 7.0, 31.0, 200.0)
    for n in (3, 51, 101, 401, 1001):
        for alpha in shapes:
            for beta in shapes:
                got = beta_grid(BetaParams(alpha, beta), n).weights
                want = _reference_weights(stats, alpha, beta, n)
                np.testing.assert_allclose(
                    got, want, rtol=1e-12, atol=1e-300, err_msg=str((alpha, beta, n))
                )

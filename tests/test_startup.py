"""Start-up cost of the CLI: the symbolic commands import neither numpy nor
``scipy.stats``, and the numeric commands import numpy but not ``scipy.stats``.

``beta_grid`` evaluates the Beta density with the private ``scipy.special``
kernel that ``scipy.stats.beta.pdf`` itself calls; the equality sweep below
pins that kernel against the public function, so a scipy upgrade that changes
either one fails here instead of silently changing reports.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import modcoherence
from modcoherence.panels import BetaParams, beta_grid

SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(modcoherence.__file__).resolve().parent.parent

PROBE = """
import os
import sys
import modcoherence.cli

def loaded():
    return [name for name in ("numpy", "scipy.stats") if name in sys.modules]

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


def test_cli_commands_do_not_import_scipy_stats():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SPECS)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    # after the import, then after check, derive, dsep and ablate, then after
    # simulate and the two separability runs
    assert proc.stdout.strip() == str([[]] * 5 + [["numpy"]] * 3)


def _reference_weights(alpha, beta, n):
    points = np.linspace(0.0, 1.0, n)
    dens = stats.beta.pdf(points, alpha, beta)
    dens = np.where(np.isfinite(dens), dens, 0.0)
    return dens / dens.sum()


def test_beta_grid_equals_scipy_stats_beta_pdf():
    # alpha or beta below 1 puts an infinite density on an endpoint
    shapes = (0.05, 0.5, 1, 1.0, 2, 2.5, 7.0, 31.0, 200.0)
    for n in (3, 51, 101, 401, 1001):
        for alpha in shapes:
            for beta in shapes:
                got = beta_grid(BetaParams(alpha, beta), n).weights
                want = _reference_weights(alpha, beta, n)
                assert np.array_equal(got, want), (alpha, beta, n)

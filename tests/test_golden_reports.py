"""The symbolic commands' reports on the bundled specs, byte for byte.

``golden/symbolic_reports.txt`` holds the ``check``, ``derive``, ``dsep`` and
``ablate`` lines that ``scripts/report_digest.py`` prints; ``simulate`` and
``separability`` are left out, as their floats depend on the numpy and scipy
builds.  A change that moves a report on purpose regenerates the file with

    python3 scripts/report_digest.py | grep -E '^(check|derive|dsep|ablate) ' \\
        > tests/golden/symbolic_reports.txt

and says which lines moved and why.
"""

import importlib.util
from pathlib import Path

from click.testing import CliRunner

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "symbolic_reports.txt"
SYMBOLIC = ("check", "derive", "dsep", "ablate")


def _report_digest():
    """``scripts/report_digest.py`` as a module, for its run list."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_symbolic_reports_match_the_golden_file():
    digest = _report_digest()
    runner = CliRunner()
    lines = [
        digest.digest_line(runner, command, spec, fmt)
        for command, spec in digest.runs()
        if command in SYMBOLIC
        for fmt in digest.FORMATS
    ]
    assert lines == GOLDEN.read_text().splitlines()

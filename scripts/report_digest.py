#!/usr/bin/env python3
"""Fingerprint every CLI report this checkout produces on the bundled specs.

Runs ``check``, ``derive``, ``dsep``, ``simulate`` and ``separability`` on
every spec in ``specs/``, and ``ablate`` on the three two-panel specs, each
as ``--format machine``, ``--format human`` and ``--format human --quiet``,
in this process through ``tests/cli_runner.py``.  Prints one line per run:
command, spec, format, exit code and the sha256 of the stdout (plus the
exception class if a run ended in one other than ``SystemExit``).  The
package is imported from this checkout's ``src/``, so two
checkouts are compared byte for byte by diffing their outputs:

    python3 scripts/report_digest.py > after.txt
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.cli_runner import invoke  # noqa: E402

COMMANDS = ("check", "derive", "dsep", "simulate", "separability")
ABLATE_SPECS = ("canonical_graph", "coherence_m2", "confounded")
FORMATS = {
    "machine": ("--format", "machine"),
    "human": ("--format", "human"),
    "quiet": ("--format", "human", "--quiet"),
}


def runs():
    for spec in sorted((ROOT / "specs").glob("*.spec")):
        for command in COMMANDS:
            yield command, spec
    for name in ABLATE_SPECS:
        yield "ablate", ROOT / "specs" / f"{name}.spec"


def digest_line(command: str, spec: Path, fmt: str) -> str:
    result = invoke([command, "--spec", str(spec), *FORMATS[fmt]])
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    line = f"{command} {spec.stem} {fmt} exit={result.exit_code} sha256={digest}"
    if result.exception is not None:
        line += f" exception={type(result.exception).__name__}"
    return line


def main() -> None:
    for command, spec in runs():
        for fmt in FORMATS:
            print(digest_line(command, spec, fmt), flush=True)


if __name__ == "__main__":
    main()

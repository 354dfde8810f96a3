"""The CLI's reports on the bundled specs, pinned against golden files.

``golden/symbolic_reports.txt`` holds the ``check``, ``derive``, ``dsep`` and
``ablate`` lines that ``scripts/report_digest.py`` prints, byte for byte.  A
change that moves one of them on purpose regenerates the file with

    python3 scripts/report_digest.py | grep -E '^(check|derive|dsep|ablate) ' \\
        > tests/golden/symbolic_reports.txt

``golden/numeric_reports.json`` holds the ``simulate`` and ``separability``
machine reports and exit codes on the three specs with ``models`` and
``data``.  Their floats depend on the numpy build only, so they are
compared field by field: strings, bools, ints and exit codes exactly, floats
within ``rel=1e-9, abs=1e-12``.  A change that moves one of them on purpose
regenerates the file with

    PYTHONPATH=src python3 -m tests.test_golden_reports

Either way, the change says which lines or fields moved and why.

Every report is also the same under any hash seed and with assert
statements stripped: the script prints the same lines under
``PYTHONHASHSEED`` 0 and 1 and under ``python -O``.  And each machine
report is the same in a fresh ``python -m modcoherence.cli`` process, which
is the first to reach every import a command makes, as in this process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .cli_runner import invoke

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "symbolic_reports.txt"
GOLDEN_NUMERIC = Path(__file__).resolve().parent / "golden" / "numeric_reports.json"
SYMBOLIC = ("check", "derive", "dsep", "ablate")
NUMERIC = ("simulate", "separability")
NUMERIC_SPECS = ("food_example", "interaction_pair", "separable_pair")


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
    lines = [
        digest.digest_line(command, spec, fmt)
        for command, spec in digest.runs()
        if command in SYMBOLIC
        for fmt in digest.FORMATS
    ]
    assert lines == GOLDEN.read_text().splitlines()


def test_reports_do_not_depend_on_the_hash_seed():
    """The digest is the same under hash seeds 0 and 1, and under ``python -O``
    (which strips assert statements) at seed 0."""
    outputs = []
    for seed, flags in (("0", []), ("1", []), ("0", ["-O"])):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, *flags, str(ROOT / "scripts" / "report_digest.py")],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    digest = _report_digest()
    assert len(outputs[0].splitlines()) == len(list(digest.runs())) * len(digest.FORMATS)


def test_fresh_processes_print_the_in_process_reports():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    runs = list(_report_digest().runs())
    moved = []
    for command, spec in runs:
        args = [command, "--spec", str(spec), "--format", "machine"]
        proc = subprocess.run([sys.executable, "-m", "modcoherence.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        result = invoke(args)
        if (proc.returncode, proc.stdout) != (result.exit_code, result.output):
            moved.append(f"{command} {spec.name}")
    assert len(runs) == 43 and moved == []


def numeric_reports() -> dict:
    """``"<command> <spec>"`` -> the run's exit code and parsed machine report."""
    out = {}
    for command in NUMERIC:
        for name in NUMERIC_SPECS:
            spec = ROOT / "specs" / f"{name}.spec"
            result = invoke([command, "--spec", str(spec), "--format", "machine"])
            out[f"{command} {name}"] = {
                "exit_code": result.exit_code,
                "report": json.loads(result.output),
            }
    return out


def assert_matches(got, expected, where: str = "") -> None:
    """Field-by-field comparison: floats within tolerance, all else exact."""
    assert type(got) is type(expected), f"{where}: {got!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_matches(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), f"{where}: lengths differ"
        for k, (g, e) in enumerate(zip(got, expected)):
            assert_matches(g, e, f"{where}[{k}]")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), where
    else:
        assert got == expected, where


def test_numeric_reports_match_the_golden_file():
    assert_matches(numeric_reports(), json.loads(GOLDEN_NUMERIC.read_text()))


def test_only_floats_are_compared_within_tolerance():
    report = {"r": 1.0, "n": 1, "s": "a", "b": True, "l": [0.5]}
    assert_matches(dict(report, r=1.0 + 1e-12), report)
    for moved in (dict(report, r=1.0 + 1e-6), dict(report, r=1), dict(report, n=2),
                  dict(report, s="b"), dict(report, b=False), dict(report, l=[0.5, 0.5])):
        with pytest.raises(AssertionError):
            assert_matches(moved, report)


if __name__ == "__main__":
    GOLDEN_NUMERIC.write_text(json.dumps(numeric_reports(), sort_keys=True, indent=1) + "\n")

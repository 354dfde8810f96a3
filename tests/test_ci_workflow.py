"""The CI workflow names only tests that exist: a job that selects a test
class by name, or lists test files, would otherwise run fewer tests without
failing when one is renamed or removed.  Every job also starts at the oldest
Python the package claims.  Numpy-free, so the job without the test extra
runs it too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _job(name: str) -> str:
    """The text of one job of the workflow, up to the next job."""
    match = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", WORKFLOW.read_text(), re.M | re.S)
    assert match, f"the workflow has no job {name}"
    return match.group(1)


def _assert_selects_classes(job: str, path: str) -> None:
    """Every ``-k`` selection of ``path`` in ``job`` names classes of that file alone."""
    runs = re.findall(rf'pytest -q {re.escape(path)} -k "([^"]+)"', _job(job))
    assert runs, f"the {job} job runs no -k selection of {path}"
    tree = ast.parse((ROOT / path).read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for run in runs:
        names = set(re.findall(r"\w+", run)) - {"and", "or", "not"}
        assert names and not names - classes, f"not classes of {path}: {sorted(names - classes)}"


def test_the_numpy_floor_job_selects_classes_of_the_panels_tests():
    _assert_selects_classes("numpy-floor", "tests/test_panels.py")


def test_the_tier1_job_selects_classes_of_the_protocol_tests():
    _assert_selects_classes("tier1", "tests/test_protocol.py")


def test_the_tier1_job_runs_the_dsep_reference_tests_under_two_seeds():
    for seed in (0, 1):
        run = f"PYTHONHASHSEED={seed} python -m pytest -q tests/test_dsep_reference.py\n"
        assert run in _job("tier1"), f"the tier1 job does not run: {run.strip()}"
    assert (ROOT / "tests" / "test_dsep_reference.py").is_file()


def test_the_job_without_the_test_extra_lists_existing_files():
    run = re.search(r"python -m pytest -q ((?:tests/\S+ ?)+)$", _job("without-test-extra"), re.M)
    assert run, "the without-test-extra job runs no list of test files"
    files = run.group(1).split()
    assert [f for f in files if not (ROOT / f).is_file()] == []
    assert f"tests/{Path(__file__).name}" in files


def test_every_job_starts_at_the_python_floor():
    """Each job's lowest Python is the floor of ``requires-python``, so the
    oldest Python the package claims is the one every job tests."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    assert floor, "pyproject.toml states no requires-python floor"
    jobs = re.findall(r"^  ([\w-]+):$", WORKFLOW.read_text().split("\njobs:\n", 1)[1], re.M)
    assert jobs
    for job in jobs:
        named = " ".join(re.findall(r"python-version: (.+)", _job(job)))
        versions = re.findall(r'"(\d+\.\d+)"', named)
        assert versions, f"the {job} job names no Python version"
        lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
        assert lowest == floor.group(1), f"the {job} job starts at Python {lowest}"

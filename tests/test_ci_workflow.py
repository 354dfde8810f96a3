"""The CI workflow names only tests that exist: a job that selects a test
class by name, or lists test files, would otherwise run fewer tests without
failing when one is renamed or removed.  Numpy-free, so the job without the
test extra runs it too."""

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


def test_the_numpy_floor_job_selects_classes_of_the_panels_tests():
    run = re.search(r'pytest -q tests/test_panels\.py -k "([^"]+)"', _job("numpy-floor"))
    assert run, "the numpy-floor job runs no -k selection of tests/test_panels.py"
    names = set(re.findall(r"\w+", run.group(1))) - {"and", "or", "not"}
    tree = ast.parse((ROOT / "tests" / "test_panels.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert names and not names - classes, f"not classes of test_panels.py: {sorted(names - classes)}"


def test_the_job_without_the_test_extra_lists_existing_files():
    run = re.search(r"python -m pytest -q ((?:tests/\S+ ?)+)$", _job("without-test-extra"), re.M)
    assert run, "the without-test-extra job runs no list of test files"
    files = run.group(1).split()
    assert [f for f in files if not (ROOT / f).is_file()] == []
    assert f"tests/{Path(__file__).name}" in files

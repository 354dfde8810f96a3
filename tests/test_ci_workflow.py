"""The CI workflow runs whole test files: tier-1 runs whole under two fixed
hash seeds, and no job picks tests by ``-k`` or lists test files, bar the
numpy-floor job's one file, so no test can drop out of a job unseen.  Every
job also starts at the oldest Python the package claims.  Numpy-free, so the
job without the test extra runs it too."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _jobs() -> list[str]:
    """The names of the workflow's jobs, in file order."""
    return re.findall(r"^  ([\w-]+):$", WORKFLOW.read_text().split("\njobs:\n", 1)[1], re.M)


def _job(name: str) -> str:
    """The text of one job of the workflow, up to the next job."""
    match = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", WORKFLOW.read_text(), re.M | re.S)
    assert match, f"the workflow has no job {name}"
    return match.group(1)


def test_tier1_runs_whole_under_each_hash_seed_and_no_job_picks_tests():
    tier1 = _job("tier1")
    assert re.search(r'^ +hashseed: \["0", "1"\]$', tier1, re.M), "tier1 has no hashseed axis"
    assert re.search(r"^ +PYTHONHASHSEED: \$\{\{ matrix\.hashseed \}\}$", tier1, re.M)
    named = {}
    for job in _jobs():
        runs = re.findall(r"^ *(?:run: )?(?:python3? -m )?pytest\b.*$", _job(job), re.M)
        assert runs, f"the {job} job runs no pytest command"
        for run in runs:
            assert not re.search(r"\s-k\b", run), f"the {job} job selects by name: {run.strip()}"
            if files := re.findall(r"\btests/\S+", run):
                named[job] = files
    assert named == {"numpy-floor": ["tests/test_panels.py"]}


def test_every_job_starts_at_the_python_floor():
    """Each job's lowest Python is the floor of ``requires-python``, so the
    oldest Python the package claims is the one every job tests."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M)
    assert floor, "pyproject.toml states no requires-python floor"
    jobs = _jobs()
    assert jobs
    for job in jobs:
        named = " ".join(re.findall(r"python-version: (.+)", _job(job)))
        versions = re.findall(r'"(\d+\.\d+)"', named)
        assert versions, f"the {job} job names no Python version"
        lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
        assert lowest == floor.group(1), f"the {job} job starts at Python {lowest}"

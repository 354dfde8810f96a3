"""``scripts/bench_record.py`` times each layer case by wall and CPU time.

Host contention moves a case's wall time but not its CPU time
(``time.process_time`` plus the time of the child processes the case
waited for), so the record keeps both.  Its counting child counts the
memos built and tells the searches a query ran from those made only to
check a base.  The script is
stdlib-only and is loaded here by path, without running it.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_layer_case_records_wall_and_cpu_time():
    bench = _bench_record()
    run = bench.run_layer(bench.ROOT, "out = sum(range(100_000))")
    assert run["result"] == 4_999_950_000
    assert isinstance(run["seconds"], float) and run["seconds"] > 0
    assert isinstance(run["cpu_seconds"], float) and run["cpu_seconds"] > 0


def test_a_layer_cases_cpu_time_counts_its_children():
    """A case that waits for a child interpreter counts the child's CPU
    time, which the child reports as it ends, in its own."""
    bench = _bench_record()
    code = ("import subprocess, sys\n"
            "child = 'import time; sum(range(3_000_000)); print(time.process_time())'\n"
            "proc = subprocess.run([sys.executable, '-c', child], capture_output=True,\n"
            "                      text=True, check=True)\n"
            "out = float(proc.stdout)")
    run = bench.run_layer(bench.ROOT, code)
    assert run["result"] > 0
    assert run["cpu_seconds"] >= run["result"]


def test_searches_run_counts_each_search_once_when_it_first_runs():
    """A premise goal runs its base's search, which knows the goal before
    it expands anything; a search run by several queries counts once."""
    bench = _bench_record()
    code = ("s = p.build_system(2)\n"
            "deps, universe, base = s.dependencies, s.universe, p.base_statements(s)\n"
            "memo = ci.Memo(deps, universe)\n"
            "ci.derive(base, deps, base[0], universe=universe, memo=memo)\n"
            "ci.derive(base[1:], deps, base[1], universe=universe, memo=memo)\n"
            "absent = ci.normalize({'theta_1'}, {'theta_2'})\n"
            "for goal in (s.goal_chains[1, 'panel_independence'][-1], absent):\n"
            "    ci.derive(base, deps, goal, universe=universe, memo=memo)\n"
            "out = len(memo.searches)")
    counts = bench.run_layer(bench.ROOT, code, bench.COUNT_CHILD)
    assert (counts["memos"], counts["searches"], counts["searches_run"]) == (1, 2, 2)
    assert counts["statements_generated"] > 0  # held by the search that ran


def test_a_prove_pass_runs_no_search():
    """Every query of the benchmark's prove jobs is a premise, which the
    verdict answers itself, or reads a stored proof: no verdict builds a
    memo or makes a search."""
    bench = _bench_record()
    (code,) = (code for name, _, code in bench.LAYER_CASES if name == "prove_pass_seed1")
    counts = bench.run_layer(bench.ROOT, code, bench.COUNT_CHILD)
    got = counts["searches"], counts["searches_run"], counts["statements_generated"]
    assert got == (0, 0, 0)
    assert counts["memos"] == 0

"""modcoherence benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,prove,certify,numeric} \\
        --seed N --seconds S --trace {0,1}

A pass is a set of jobs drawn from the seed and the pass index; a run has
as many passes as take ``--seconds`` on the reference host
(``workloads.pass_count``), whatever the speed of this host or program.
Each worker process gets a hash seed drawn from the seed, its mode and its
pass, so a seed fixes set iteration order too.
``--trace 0`` prints the end-to-end metrics, measured with no tracing: each
pass runs in a fresh worker process, followed by a fresh worker that only
sets up.  Every time is scaled to the reference host speed (see
``at_reference``); set-up is the median over all workers.
``--trace 1`` prints the per-layer metrics: one worker runs every pass
untraced and traced, in alternating order (the difference is the tracing
overhead), and a second worker replays the first pass traced, so the
deterministic counters of two processes can be compared.

Every job's output is checked (see workloads.py).  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, named and unitised as in ``BENCHMARK.json``'s ``end_to_end``
(``--trace 0``) or ``per_layer`` (``--trace 1``) list; the lines before it
are a readable summary.  The full record, spans included, is written to
``.perfbench_out/``.  Exits 2 without a result when the checkout lacks the
program.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import PYTHON_SPAWN_S, ROOT, WORKLOADS, child_env, pass_count  # noqa: E402

# workers still running this long after the start are killed; a run must
# end in 180 s
RUN_LIMIT_S = 165.0
TAIL_BEYOND = 10


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# counters summed over the first pass, which is the same for a given seed
FIRST_PASS_COUNTERS = (
    "report.bytes",
    "ci.calls",
    "ci.statements_generated",
    "ci.not_derivable",
    "ci.budget_exhausted",
    "ci.proof_steps",
    "dag.queries",
    "panels.cells",
    "panels.computed_bytes",
)


class WorkerFailed(RuntimeError):
    pass


def spawn_worker(args, mode: str, deadline: float, index: int = 0) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to READY, its result).
    The worker is killed if it is still running at ``deadline``."""
    passes = pass_count(WORKLOADS[args.workload], args.seconds)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--index", str(index), "--passes", str(passes), "--trace", str(args.trace),
    ]
    env = child_env()
    env["PYTHONHASHSEED"] = str(zlib.crc32(f"{args.seed}/{mode}/{index}".encode()))
    start = time.perf_counter()
    # its own process group, so a kill also reaches the cli workload's children
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - start, 0.0), kill_group)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        lines = [line for line in proc.stdout if line.strip()]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerFailed(f"{mode} worker exited {code} before reporting")
    if not lines:
        raise WorkerFailed(f"{mode} worker printed no result")
    return ready, json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, or the
    largest time when there are too few jobs: (value, pct, jobs beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def at_reference(seconds: float, calibration: float, reference: float) -> float:
    """A time measured while the workload's calibration took ``calibration``
    s, scaled to the reference host, on which it takes ``reference`` s."""
    return seconds * reference / calibration


def end_to_end(setups: list[float], results: list[dict], units: dict,
               reference: float) -> tuple[dict, list[str]]:
    jobs = [j for r in results for j in r["phases"][0]["jobs"]]
    times = [at_reference(j["time"], j["calibration"], reference) for j in jobs]
    raw = [j["time"] for j in jobs]
    failed = sum(1 for j in jobs if j["failed"])
    tail_s, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    details = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": f"{len(jobs)} jobs in {len(results)} passes; closed loop, 1 client; "
        f"as run: {len(raw) / sum(raw):.4f} jobs/s",
        "job_p50_s": f"as run: {statistics.median(raw):.4f} s",
        "job_tail_s": f"p{pct:.1f} of {len(jobs)} jobs, {beyond} beyond it",
        "peak_rss_mb": f"largest of {len(results)} pass workers",
    }
    notes = [
        f"{name:16s} {values[name]:.4f} {unit}" + (f"  ({details[name]})" if name in details else "")
        for name, unit in units.items()
    ]
    notes.append(f"{'failed_ratio':16s} {failed / len(jobs):.4f}  ({failed}/{len(jobs)})")
    return values, notes


def differing_outputs(jobs: list[dict]) -> list[str]:
    """Jobs whose output differs from an earlier job with the same input."""
    first: dict[str, dict] = {}
    return sorted({
        f"job {j['id']}: output differs from an earlier run of the same input"
        for j in jobs
        if first.setdefault(j["id"], j.get("digest")) != j.get("digest")
    })


def _traced_summary(job: dict) -> dict:
    return job["trace"]["summary"]


def first_pass_counters(jobs: list[dict]) -> dict:
    totals = {name: 0 for name in FIRST_PASS_COUNTERS}
    totals.update({"ci.saturations": 0, "protocol.verdicts": 0})
    for job in jobs:
        if job["pass"] != 0 or job["trace"] is None:
            continue
        for key, value in _traced_summary(job)["count"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def per_layer(result: dict, check: dict, units: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced jobs; returns (values, notes, problems)."""
    plain, traced = result["phases"]
    jobs = [j for j in traced["jobs"] if j["trace"] is not None]
    problems: list[str] = []
    n = max(len(jobs), 1)

    def mean(get) -> float:
        return sum(get(j) for j in jobs) / n

    def layer_self(layer: str) -> float:
        return mean(lambda j: _traced_summary(j)["self"].get(layer, 0.0))

    def total(key: str) -> float:
        return sum(_traced_summary(j)["count"].get(key, 0) for j in jobs)

    def rate(count_key: str, layer: str) -> float:
        busy = sum(_traced_summary(j)["self"].get(layer, 0.0) for j in jobs)
        return total(count_key) / busy if busy > 0 else 0.0

    counts = first_pass_counters(traced["jobs"])
    values: dict[str, float] = {}
    child = [j for j in jobs if "import_s" in j["trace"]]
    values["cli.import_s"] = mean(lambda j: j["trace"].get("import_s", 0.0))
    values["cli.process_overhead_s"] = (
        sum(j["time"] - j["trace"]["import_s"] - j["trace"]["main_s"] for j in child) / n
    )
    values["cli.self_s"] = layer_self("cli")
    values["specfile.parse_s"] = layer_self("specfile")
    values["report.render_s"] = layer_self("report")
    values["protocol.self_s"] = layer_self("protocol")
    values["ci.self_s"] = layer_self("ci")
    values["dag.self_s"] = layer_self("dag")
    values["panels.self_s"] = layer_self("panels")
    for metric in spans.FUNCTION_METRICS.values():
        values[metric] = mean(lambda j: _traced_summary(j)["fn"].get(metric, 0.0))
    for key in FIRST_PASS_COUNTERS:
        values[key] = counts[key]
    values["protocol.saturations_per_verdict"] = (
        counts["ci.saturations"] / counts["protocol.verdicts"] if counts["protocol.verdicts"] else 0.0
    )
    generated = counts["ci.statements_generated"]
    values["ci.useful_ratio"] = counts["ci.proof_steps"] / generated if generated else 0.0
    values["ci.statements_per_s"] = rate("ci.statements_generated", "ci")
    values["dag.queries_per_s"] = rate("dag.queries", "dag")
    values["panels.cells_per_s"] = rate("panels.cells", "panels")

    matched = list(zip(plain["jobs"], traced["jobs"]))
    for a, b in matched:
        if a["id"] != b["id"] or a.get("digest") != b.get("digest"):
            problems.append(f"job {a['id']}: traced output differs from untraced output")
    # each time divided by the calibration around it, as in end_to_end
    base = sum(a["time"] / a["calibration"] for a, _ in matched)
    tracing = sum(b["time"] / b["calibration"] for _, b in matched)
    values["trace.overhead_ratio"] = tracing / base - 1 if base else 0.0

    replay = check["phases"][0]["jobs"]
    if first_pass_counters(replay) != counts:
        problems.append("first-pass counters differ between two processes with the same seed")
    firsts = [j for j in traced["jobs"] if j["pass"] == 0]
    if [j.get("digest") for j in replay] != [j.get("digest") for j in firsts]:
        problems.append("first-pass outputs differ between two processes with the same seed")

    notes = [f"{name:34s} {values[name]:.6g} {unit}" for name, unit in units.items()]
    notes.append(
        f"(times are means over {len(jobs)} traced jobs; counters are totals over the "
        f"first pass of {len(firsts)} jobs; overhead over {len(matched)} matched jobs)"
    )
    return values, notes, problems


def record_environment(args) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modcoherence" / "__init__.py").is_file():
        print(f"perfbench: no modcoherence sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = record_environment(args)
    problems: list[str] = []
    setups: list[float] = []
    deadline = time.perf_counter() + RUN_LIMIT_S
    reference = WORKLOADS[args.workload].REFERENCE_S
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if args.trace:
            _, result = spawn_worker(args, "run", deadline)
            _, check = spawn_worker(args, "check", deadline)
            metrics, notes, problems = per_layer(result, check, units)
            workers, passes = [result, check], [result]
        else:
            workers, passes = [], []
            for index in range(pass_count(WORKLOADS[args.workload], args.seconds)):
                # each pass worker, and one more fresh set-up per pass for
                # more set-up samples
                for mode in ("pass", "setup"):
                    ready, result = spawn_worker(args, mode, deadline, index=index)
                    setups.append(at_reference(ready, result["ready_calibration"], PYTHON_SPAWN_S))
                    workers.append(result)
                    if mode == "pass":
                        passes.append(result)
            metrics, notes = end_to_end(setups, passes, units, reference)
            problems = differing_outputs([j for r in passes for j in r["phases"][0]["jobs"]])
        warm = [w["warmup"] for w in workers]
        if any(w != warm[0] for w in warm):
            problems.append("warm-up outputs differ between fresh processes")
    except (WorkerFailed, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    jobs = [j for r in passes for phase in r["phases"] for j in phase["jobs"]]
    failures = [f"{j['id']}: {j['failed']}" for j in jobs if j["failed"]]
    failures += [f"warm-up: {w['warmup']['failed']}" for w in workers if w["warmup"]["failed"]]
    attempted, failed = len(jobs), sum(1 for j in jobs if j["failed"])
    correct = not failures and not problems

    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record_dir = ROOT / ".perfbench_out"
    record_dir.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "result": out,
        "failures": failures,
        "problems": problems,
        "setup_samples_s": setups,
        "jobs": jobs,
        "spans": [span for r in passes for span in r["spans"]],
    }
    path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in notes:
        print(line)
    for line in (failures + problems)[:20]:
        print(f"FAILED {line}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, warm up, then run passes of jobs.

Usage: python3 perfbench/worker.py --workload W --seed N
       --mode {setup,pass,run,check} [--index I] [--passes K] [--trace {0,1}]

Pass ``i`` draws its jobs, and their order, from the seed and ``i``.  Prints
``READY`` once imports and the untimed warm-up job are done (the parent
times set-up up to that line), then one JSON line with the job records.
``setup`` stops after the warm-up; ``pass`` runs pass ``--index`` once,
untraced; ``run`` runs passes 0 to K-1, each untraced and traced
(``--trace 1``); ``check`` runs pass 0 traced, so the parent can compare
its counters with another process's.

Before each job and after the last, the worker times the workload's
``calibrate``: fixed work that uses no modcoherence code.  Right after
``READY`` it times ``python_spawn``, for set-up.  The host's speed swings by up to 1.8x over tens of seconds; the
parent divides each time by the calibration taken around it, so that swing
cancels out.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import ROOT, WORKLOADS, python_spawn


def calibrate(work) -> float:
    """Seconds ``work()`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def _check_program_source() -> None:
    """Refuse to measure a modcoherence that is not this checkout's."""
    import modcoherence

    src = (ROOT / "src").resolve()
    if src not in Path(modcoherence.__file__).resolve().parents:
        raise RuntimeError(f"modcoherence imported from {modcoherence.__file__}, not {src}")


class Runner:
    def __init__(self, workload, seed: int) -> None:
        self.wl = workload
        self.seed = seed
        self.tracer = None
        self.outcomes: list = []  # (job, outcome, record), gated after the phase
        self.trace_spans: list = []

    def run_job(self, job, traced: bool) -> dict:
        wl = self.wl
        record = {"id": wl.job_id(job), "failed": None, "trace": None}
        first = None
        start = time.perf_counter()
        try:
            if traced and wl.in_process:
                with self.tracer.job(record["id"]) as first:
                    start = time.perf_counter()
                    outcome = wl.run(job, traced)
            else:
                outcome = wl.run(job, traced)
            record["time"] = time.perf_counter() - start
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            record["time"] = time.perf_counter() - start
            record["failed"] = f"{type(exc).__name__}: {exc}"
            return record
        record["digest"] = wl.digest(job, outcome)
        if traced and wl.in_process:
            job_spans = self.tracer.job_spans(first)
            self.trace_spans.extend(job_spans)
            record["trace"] = {"summary": spans.summarize(job_spans)}
        elif traced:  # the launcher traced the child process
            child = wl.trace_of(outcome)
            if child is None:
                record["failed"] = "traced child printed no trace"
            else:
                for span in child.pop("spans"):
                    span[5] = record["id"]
                    self.trace_spans.append(span)
                record["trace"] = child
        self.outcomes.append((job, outcome, record))
        return record

    def _set_tracing(self, traced: bool) -> None:
        if self.tracer is None:  # the cli workload traces inside its children
            return
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def phase(self, indices: range, modes: tuple) -> list[dict]:
        """The passes ``indices``; each pass runs once per entry of ``modes``
        (traced or not), in reversed order on odd passes so drift in machine
        speed hits both alike.  Returns one record list per mode."""
        out = {traced: {"traced": traced, "jobs": []} for traced in modes}
        for index in indices:
            rng = random.Random(f"{self.seed}/{index}")
            jobs = self.wl.make_pass(rng)  # input generation is not timed
            rng.shuffle(jobs)
            for traced in modes if index % 2 == 0 else modes[::-1]:
                self._set_tracing(traced)
                before = calibrate(self.wl.calibrate)
                for job in jobs:
                    rec = self.run_job(job, traced)
                    after = calibrate(self.wl.calibrate)
                    rec.update({"pass": index, "calibration": (before + after) / 2})
                    out[traced]["jobs"].append(rec)
                    before = after
                self._set_tracing(False)
        return [out[traced] for traced in modes]

    def gate_all(self) -> None:
        for job, outcome, record in self.outcomes:
            if record["failed"] is None:
                try:
                    record["failed"] = self.wl.gate(job, outcome)
                except Exception as exc:
                    record["failed"] = f"gate raised {type(exc).__name__}: {exc}"
        self.outcomes.clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "run", "check"), required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    wl.setup()
    if wl.in_process:
        _check_program_source()
    runner = Runner(wl, args.seed)
    warm = wl.warmup_job()
    warm_record = runner.run_job(warm, traced=False)
    runner.gate_all()
    print("READY", flush=True)

    result: dict = {
        "warmup": {k: warm_record.get(k) for k in ("failed", "digest")},
        "ready_calibration": calibrate(python_spawn),
        "phases": [],
    }
    if wl.in_process and (args.mode == "check" or args.trace):
        runner.tracer = spans.Tracer()
    if args.mode == "pass":
        result["phases"] = runner.phase(range(args.index, args.index + 1), (False,))
    elif args.mode == "check":
        result["phases"] = runner.phase(range(1), (True,))
    elif args.mode == "run":
        modes = (False, True) if args.trace else (False,)
        result["phases"] = runner.phase(range(args.passes), modes)
    runner.gate_all()
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    result["spans"] = runner.trace_spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

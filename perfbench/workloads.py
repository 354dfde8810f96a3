"""The four seeded workloads: inputs, the timed call, digests and gates.

Each workload turns a ``random.Random`` into one pass of jobs.  A job's
``job_id`` names its input exactly, so two jobs with one id must give one
output.  ``run`` is the timed call into the program; ``digest`` reads
deterministic counters from its return value (outside the timing); ``gate``
checks a job's output after the timed phase and returns the reason it
failed, or None.  ``calibrate`` is fixed work that uses no modcoherence code,
of the same kind as the workload's jobs; its time tracks the host's speed
(see worker.py).

Why each workload exists, what its seed draws and what each metric should
move are written down in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _product(*blocks):
    return reduce(operator.mul, blocks)


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# python_loop's time on the host the benchmark was defined on (2 vCPUs,
# Python 3.11.7), about its median over benchmark runs
PYTHON_LOOP_S = 0.018


def python_loop() -> None:
    """Fixed pure-Python work: dict updates on int keys.  It creates no
    objects the garbage collector tracks, so the program's state cannot
    change its time; only the host's speed does."""
    table: dict[int, int] = {}
    for i in range(100_000):
        key = (i * 7919) % 5003
        table[key] = table.get(key, 0) + i


# python_spawn's time on the same host, about its median over benchmark runs
PYTHON_SPAWN_S = 0.075


def python_spawn() -> None:
    """A fresh, isolated interpreter that imports a fixed set of
    standard-library modules: the same kind of work as a set-up or a CLI
    command (process start and imports), without modcoherence.  The
    pure-Python loop does not track it: when the host slows, start-up
    and imports slow less than bytecode does."""
    subprocess.run(
        [sys.executable, "-I", "-c", "import argparse, decimal, fractions, json, unittest"],
        check=True, stdin=subprocess.DEVNULL,
    )


def pass_count(workload, seconds: float) -> int:
    """Passes in a run of ``seconds``: as many as take that long on the
    reference host, and at least ``min_passes``.  It does not depend on the
    speed of the host or of the program, so every run of a seed times the
    same jobs."""
    return max(workload.min_passes, round(seconds / workload.PASS_S))


class _PythonCalibrated:
    """Workloads whose jobs run Python bytecode, with numpy arrays no
    larger than L2: the prover."""

    REFERENCE_S = PYTHON_LOOP_S

    def calibrate(self) -> None:
        python_loop()


class CliWorkload:
    """Nine ``modcoherence ... --format machine`` commands per pass, one
    subprocess at a time."""

    REFERENCE_S = PYTHON_SPAWN_S
    calibrate = staticmethod(python_spawn)

    name = "cli"
    in_process = False
    # reference-host seconds per pass; two passes in 20 s put the tail
    # percentile at p44, and more than two would not fit in a run
    PASS_S = 10.5
    min_passes = 1
    # (command, spec, exit code the README promises)
    COMMANDS = (
        ("check", "coherence_m2", 0),
        ("check", "coherence_m3", 0),
        ("check", "canonical_graph", 0),
        ("check", "confounded", 1),
        ("derive", "coherence_m2", 0),
        ("dsep", "chain_dsep", 0),
        ("simulate", "food_example", 0),
        ("separability", "interaction_pair", 1),
        ("separability", "separable_pair", 0),
    )
    TIMEOUT_S = 120

    def setup(self) -> None:
        missing = [s for _, s, _ in self.COMMANDS if not (ROOT / "specs" / f"{s}.spec").is_file()]
        if missing:
            raise FileNotFoundError(f"missing bundled specs: {missing}")

    def warmup_job(self):
        return self.COMMANDS[5]

    def make_pass(self, rng) -> list:
        return list(self.COMMANDS)

    @staticmethod
    def job_id(job) -> str:
        return f"{job[0]}:{job[1]}"

    def run(self, job, traced: bool):
        command, spec, _ = job
        prefix = [str(HERE / "cli_launcher.py")] if traced else ["-m", "modcoherence.cli"]
        argv = [sys.executable, *prefix, command, "--spec", f"specs/{spec}.spec", "--format", "machine"]
        return subprocess.run(
            argv, cwd=ROOT, capture_output=True, timeout=self.TIMEOUT_S, check=False
        )

    def digest(self, job, proc) -> dict:
        return {
            "exit": proc.returncode,
            "report.bytes": len(proc.stdout),
            "sha256": hashlib.sha256(proc.stdout).hexdigest()[:16],
        }

    def trace_of(self, proc):
        """The launcher's trace record, from the last marked stderr line."""
        from cli_launcher import MARKER

        lines = [l for l in proc.stderr.decode().splitlines() if l.startswith(MARKER)]
        return json.loads(lines[-1][len(MARKER):]) if lines else None

    def gate(self, job, proc):
        command, spec, expected = job
        if proc.returncode != expected:
            return f"exit code {proc.returncode}, README promises {expected}"
        try:
            report = json.loads(proc.stdout)
        except ValueError as exc:
            return f"machine report does not parse: {exc}"
        if report.get("command") != command or "results" not in report:
            return "machine report lacks its command or results"
        return None


class _ProtocolWorkload(_PythonCalibrated):
    """Shared by ``prove`` and ``certify``: jobs are verify_coherence calls."""

    in_process = True

    def setup(self) -> None:
        from modcoherence import protocol

        self.protocol = protocol

    @staticmethod
    def _verdicts(outcome):
        return outcome if isinstance(outcome, tuple) else (outcome,)

    def digest(self, job, outcome) -> dict:
        proofs = 0
        goals, conditions = [], []
        for verdict in self._verdicts(outcome):
            goals.append([g.status for g in verdict.goals])
            conditions.append([c.status for c in verdict.conditions])
            proofs += sum(len(g.proof.steps) for g in verdict.goals if g.proof is not None)
            proofs += sum(
                len(w.steps) for c in verdict.conditions for w in c.witnesses if hasattr(w, "steps")
            )
        return {"goals": goals, "conditions": conditions, "verdict.proof_steps": proofs}


class ProveWorkload(_ProtocolWorkload):
    """m=3 systems: the four conditions plus k extra d-separated statements.

    A job runs axiomatic verify_coherence, then graphical verify_coherence on
    the canonical and the confounded graph.  A pass is 14 jobs, one per
    stratum below; the seed draws the statements.  A stratum
    fixes k and how many extras condition on the full pool I_+, the property
    that sets search cost (about +0.22 s each at the seed commit).  The
    strata match the share of pool-conditioned extras in unstratified draws
    (about 1 in 5), so every run has the same mix of cheap and costly jobs.
    """

    name = "prove"
    # (k extras, of which conditioned on the full pool)
    STRATA = (
        (0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
        (3, 1), (4, 0), (4, 1), (5, 0), (5, 2), (6, 0), (6, 3),
    )
    # the two costliest strata appear once a pass.  Five passes (the
    # reference-host 20 s) put ten of them in a run, so the tail percentile,
    # the eleventh-slowest job, is the slowest of the others: mostly the
    # one-pooled-extra jobs, 20 of a run.  At six passes it would sit at
    # the edge of the two costliest strata and swing with the seed.
    PASS_S = 3.8
    min_passes = 5

    def setup(self) -> None:
        super().setup()
        from modcoherence.ci import normalize
        from modcoherence.dag import d_separated

        # the benchmark's own bindings: input draws and gates stay untraced
        self.normalize, self.d_separated = normalize, d_separated
        p = self.protocol
        self.system = p.build_system(3)
        self.canonical = p.canonical_dag(self.system)
        self.confounded = p.confounded_dag(self.system)
        self.conditions = p.base_statements(self.system)
        self.symbols = sorted(self.system.universe)
        self._dsep_cache: dict = {}

    def _separated(self, stmt) -> bool:
        got = self._dsep_cache.get(stmt)
        if got is None:
            got = self.d_separated(self.canonical, stmt.a, stmt.b, stmt.c)
            self._dsep_cache[stmt] = got
        return got

    def _draw_extra(self, rng, pooled: bool, taken: set):
        pool = self.system.full_pool
        while True:
            a, b = rng.sample(self.symbols, 2)
            rest = [s for s in self.symbols if s not in (a, b)]
            c = rng.sample(rest, rng.randint(0, 2))
            stmt = self.normalize({a}, {b}, c)
            if (pool in stmt.c) != pooled or stmt in taken:
                continue
            if self._separated(stmt):
                return stmt

    def _job(self, rng, k: int, pooled: int):
        taken = set(self.conditions)
        for index in range(k):
            taken.add(self._draw_extra(rng, index < pooled, taken))
        return (f"k{k}p{pooled}", tuple(sorted(taken, key=lambda s: s.sort_key())))

    def warmup_job(self):
        return ("k0p0", self.conditions)

    def make_pass(self, rng) -> list:
        return [self._job(rng, k, pooled) for k, pooled in self.STRATA]

    @staticmethod
    def job_id(job) -> str:
        return f"{job[0]}:{_short_hash(' '.join(s.render() for s in job[1]))}"

    def run(self, job, traced: bool):
        p = self.protocol
        axiomatic = p.verify_coherence(self.system, p.AxiomaticMode(job[1]))
        canonical = p.verify_coherence(self.system, p.GraphicalMode(self.canonical))
        confounded = p.verify_coherence(self.system, p.GraphicalMode(self.confounded))
        return axiomatic, canonical, confounded

    def gate(self, job, outcome):
        axiomatic, canonical, confounded = outcome
        statuses = [g.status for g in axiomatic.goals]
        if statuses != ["proved"] * 6:
            return f"goals not all proved: {statuses}"
        if not all(c.holds for c in axiomatic.conditions):
            return "a protocol condition is not derivable from its own statements"
        proofs = [g.proof for g in axiomatic.goals]
        proofs += [w for c in axiomatic.conditions for w in c.witnesses]
        for proof in proofs:
            if not proof.replay(self.system.dependencies):
                return f"proof of {proof.goal.render()} fails replay"
            for stmt in proof.statements():
                if not self._separated(stmt):
                    return f"proof statement {stmt.render()} is not d-separated"
        if not canonical.sound_and_distributed:
            return "canonical graph does not verify"
        if confounded.sound_and_distributed:
            return "confounded graph verifies"
        return None


class CertifyWorkload(_ProtocolWorkload):
    """The five rows of ablate(build_system(2)), each one verify_coherence
    call."""

    name = "certify"
    PASS_S = 4.3
    # two of the five rows take nearly all the time; seven passes put 14 of
    # them in a run, so the tail percentile is drawn from the slow rows
    min_passes = 7

    def setup(self) -> None:
        super().setup()
        p = self.protocol
        self.system = p.build_system(2)
        self.rows = [("control", p.AxiomaticMode(p.base_statements(self.system)))]
        for dropped in p.ALL_CONDITIONS:
            kept = tuple(k for k in p.ALL_CONDITIONS if k is not dropped)
            self.rows.append((dropped.value, p.AxiomaticMode(p.base_statements(self.system, kept))))

    def warmup_job(self):
        return self.rows[0]

    def make_pass(self, rng) -> list:
        return list(self.rows)

    @staticmethod
    def job_id(job) -> str:
        return job[0]

    def run(self, job, traced: bool):
        return self.protocol.verify_coherence(self.system, job[1])

    def gate(self, job, verdict):
        name = job[0]
        if name == "control":
            if not verdict.sound_and_distributed:
                return "control row is not coherent"
        else:
            if verdict.sound_and_distributed:
                return f"dropping {name} leaves the system coherent"
            open_goals = [g.status for g in verdict.goals if not g.established]
            if any(s != "not_derivable" for s in open_goals):
                return f"unestablished goals are not all not_derivable: {open_goals}"
        return None


class NumericWorkload:
    """m=3 panels on a 151-point grid: 151**3 = 3.44 M product cells.  A
    pass is PAIRS separable jobs and PAIRS interaction jobs."""

    name = "numeric"
    in_process = True
    GRID = 151
    # short passes, so a run has six fresh pass workers: their peak RSS
    # takes one of two levels 25 MB apart at random, and their set-up
    # varies more than the other workloads'
    PAIRS = 10
    PASS_S = 3.3
    min_passes = 1
    SEPARABLE_TV = 1e-12
    # calibrate's time on the reference host, about its median over
    # benchmark runs
    REFERENCE_S = 0.012

    def setup(self) -> None:
        import numpy as np
        from modcoherence import panels

        self.np = np
        self.panels = panels
        self.interior = np.linspace(0.0, 1.0, self.GRID + 2)[1:-1]
        # 8 MiB each: past L2, like the jobs' 27.5 MB grids
        self._cal_in = np.full(2**20, 1.5)
        self._cal_out = np.empty_like(self._cal_in)

    def calibrate(self) -> None:
        """Fixed numpy work on arrays larger than L2: the jobs are bound by
        elementwise passes over grids, which a pure-Python loop does not
        track."""
        np = self.np
        for _ in range(3):
            np.multiply(self._cal_in, 1.0001, out=self._cal_out)
            np.exp(self._cal_out, out=self._cal_out)
            np.add(self._cal_out, self._cal_in, out=self._cal_out)
            float(self._cal_out.sum())

    def _draw(self, rng, strength: float):
        priors = tuple((rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)) for _ in range(3))
        counts = []
        for _ in range(3):
            trials = rng.randint(10, 100)
            counts.append((rng.randint(0, trials), trials))
        kind = "interaction" if strength else "separable"
        return (kind, priors, tuple(counts), strength, rng.randrange(2**16))

    def warmup_job(self):
        return ("separable", ((2.0, 2.0),) * 3, ((5, 10),) * 3, 0.0, 0)

    def make_pass(self, rng) -> list:
        jobs = []
        for _ in range(self.PAIRS):
            jobs += [self._draw(rng, 0.0), self._draw(rng, rng.uniform(2.0, 15.0))]
        return jobs

    @staticmethod
    def job_id(job) -> str:
        return f"{job[0]}:{_short_hash(repr(job[1:]))}"

    def run(self, job, traced: bool):
        pn = self.panels
        _, priors, counts, strength, seed = job
        logliks = [pn.bernoulli_loglik(s, t) for s, t in counts]

        def joint_loglik(*blocks):
            total = reduce(operator.add, (ll(b) for ll, b in zip(logliks, blocks)))
            return total + strength * _product(*blocks) if strength else total

        prior_grids = [pn.beta_grid(pn.BetaParams(a, b), self.GRID) for a, b in priors]
        updated = [pn.panel_update_grid(g, ll) for g, ll in zip(prior_grids, logliks)]
        distributed = pn.compose_product(updated)
        oracle = pn.joint_oracle(prior_grids, joint_loglik)
        div = pn.divergence(distributed, oracle)
        mean = pn.functional_expectation(oracle, _product)
        verdict = pn.separability_check_numeric(
            joint_loglik, [self.interior] * 3, tolerance=1e-9, samples=256, seed=seed
        )
        return {
            "cells": int(distributed.weights.size + oracle.weights.size),
            "tv": div.total_variation,
            "mean": mean,
            "separable": verdict.separable,
            "witnesses": len(verdict.offending),
        }

    def digest(self, job, outcome) -> dict:
        return dict(outcome)

    def gate(self, job, outcome):
        if not self.np.isfinite(outcome["mean"]):
            return "oracle product mean is not finite"
        if job[3] == 0.0:
            if outcome["tv"] > self.SEPARABLE_TV:
                return f"separable job has TV {outcome['tv']!r} > {self.SEPARABLE_TV}"
            if not outcome["separable"]:
                return "separable likelihood judged non-separable"
        elif outcome["separable"] or not outcome["witnesses"]:
            return "interaction likelihood judged separable, or no witness"
        return None


WORKLOADS = {
    w.name: w for w in (CliWorkload, ProveWorkload, CertifyWorkload, NumericWorkload)
}


def child_env() -> dict:
    """Threading settings every benchmark process gets."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

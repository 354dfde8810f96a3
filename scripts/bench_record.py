#!/usr/bin/env python3
"""Record paired benchmark runs of a parent checkout against this one.

For each workload, runs ``perfbench/run.py --trace 0`` on both checkouts for
seeds 1..N (or N seeds from ``--first-seed``), alternating which side goes
first, and writes one JSON record: every run's end-to-end metrics, the
order of each pair, the per-side median and quartiles of each metric, how
many pairs each side won, the environment and the net line count of
``src/``.  ``--traced`` adds one ``--trace 1`` run
per side of the named workloads, for the per-layer metrics; every run keeps
its ``correct`` flag and the problems it printed.  Then each layer
case below runs in a fresh interpreter on both checkouts, alternating which
side goes first, and its wall time, CPU time (``time.process_time`` plus
the user and system time of the child processes it waited for, so a move
from host contention shows as wall time moving while CPU time stays put),
peak RSS and a summary of its result are recorded under ``layers``;
one more, untimed interpreter per side runs the
case with counting wrappers installed and records its work counts under
``counts`` (see ``COUNT_CHILD``).  Run everything one at a time on an
otherwise idle host:

    python3 scripts/bench_record.py --parent ../parent --label 3b8dff0 \\
        --workload prove:10 --workload cli:4 --workload numeric:4 \\
        --traced prove --out BENCH_3b8dff0.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20

# (name, runs per side, code that leaves a JSON-able summary in ``out``); the
# m=6 and m=7 verifications take about 0.02 s each, so they show a prover
# that slows down, not a few percent, and run three times; the m=32
# verification, the largest protocol a spec allows, runs 4 lumped
# derivations (panels 3..32 reuse panel 2's, renamed) and still expands and
# checks 64 goal proofs, one rule application per step and no replay, so it
# is the case where proof handling and determinism closures weigh most, and
# with the m=16 one it runs ten times, since three runs per side of
# unchanged code moved by more than 25 %; the
# m=3 ablation, about 45 s a run, runs three times, since one run per side
# moved by 15 % on noise alone; separability_m2 imports panels inside the
# timed code, so its import cost shows; joint_oracle_m3_256 runs the grid
# engine at specfile.MAX_GRID_CELLS, so its peak RSS is that of the largest
# spec allowed; cli_import starts 15 interpreters that import the CLI from
# source, as the benchmark's CLI children do, so the import's share of a
# command shows apart from the host noise in cli.import_s; it and
# closure_m2 run ten times, since three runs per side moved by 10-18 % on
# noise alone; joint_oracle_short_last_block runs the grid engine on 13
# blocks of 3 points, where a leaf holds about 11,000 rows of the streamed
# prior, with its ll evaluated beforehand: a case restarts the clocks and
# the counts (``restart()``) after its set-up, so its seconds are ten oracle
# calls alone;
# verify_coherence_m3_sequence makes seven verdicts on one m=3 system, the
# bare one and then one per extra statement, as the benchmark's prove
# workload does (no CLI command makes more than one verdict on a system
# with the same conditions), so it shows what the system's goal proofs
# (made, expanded and checked once) and each panel's lumping (lumped
# universe, expand and the lumped waypoints of its goal chains), made once
# per system, save from one verdict to the next; at about 0.03 s a run it
# runs ten times; verify_coherence_m3_fresh_extras makes the same seven
# verdicts, each on a fresh m=3 system, as each CLI command does, so its
# counts read the four lumped derivations and six expansions of each
# system's goal proofs and none for a verdict's extras; it runs ten times;
# verify_coherence_m32_repeat makes one bare verdict on an m=32 system
# before ``restart()`` and times three more, so it shows a verdict after
# a system's first at the largest panel count, which reads all 64 stored
# goal proofs, builds no memo, slices nothing and applies no rule; at about 0.05 s a run
# it runs ten times; graphical_verdicts_m16 builds a
# fresh m=16 system and its canonical and confounded graphs inside the
# timed code and makes one graphical verdict on each, so it shows the cost
# of d-separation with no state shared from an earlier verdict, and at
# about 0.05 s a run it runs ten times; graphical_verdicts_m3_repeat
# builds one m=3 system and its two graphs and makes one graphical verdict
# on each before ``restart()``, then times 100 more pairs, the shape of the
# graphical work in a prove job, so it shows the cost of a query on a graph
# whose own masks are already made; at about 0.03 s a run it runs ten
# times; prove_pass_seed1 runs the first
# pass of the benchmark's prove workload at seed 1 (14 jobs, after its
# set-up and warm-up job) from the checkout's own perfbench/workloads.py,
# so its counts divided by 14 are the work of one prove job; the
# verify_coherence_m* cases and the _sequence one build a fresh system, so
# their counts include the four lumped derivations and 2m expansions of its
# goal proofs and its panels' lumpings, all but _m32_repeat, which counts
# after its first verdict
LAYER_CASES = (
    ("cli_import", 10,
     "import os, subprocess, sys\n"
     "env = {**os.environ, 'PYTHONDONTWRITEBYTECODE': '1'}\n"
     "cmd = [sys.executable, '-c', 'import modcoherence.cli']\n"
     "out = [subprocess.run(cmd, env=env, check=False).returncode for _ in range(15)]"),
    ("separability_m2", 3,
     "from modcoherence import panels as pn\n"
     "lls = [pn.bernoulli_loglik(30, 80), pn.bernoulli_loglik(10, 40)]\n"
     "ll = pn.panel_joint_loglik(lls, 12.0)\n"
     "v = pn.separability_check_numeric(ll, [pn.interior_grid(101)] * 2)\n"
     "out = {'separable': v.separable, 'witnesses': len(v.offending)}"),
    ("joint_oracle_m3_256", 3,
     "from modcoherence import panels as pn\n"
     "priors = [pn.beta_grid(pn.BetaParams(a, b), 256) for a, b in [(2, 3), (3, 2), (1, 1)]]\n"
     "lls = [pn.bernoulli_loglik(30, 80), pn.bernoulli_loglik(10, 40), pn.bernoulli_loglik(5, 20)]\n"
     "dist = pn.compose_product([pn.panel_update_grid(g, ll) for g, ll in zip(priors, lls)])\n"
     "oracle = pn.joint_oracle(priors, pn.panel_joint_loglik(lls, 12.0))\n"
     "out = {'tv': pn.divergence(dist, oracle).total_variation,\n"
     "       'mean': pn.functional_expectation(oracle, pn.block_product)}"),
    ("joint_oracle_short_last_block", 10,
     "import numpy as np\n"
     "from modcoherence import panels as pn\n"
     "rng = np.random.default_rng(0)\n"
     "masses = rng.uniform(0.5, 1.5, size=(13, 3))\n"
     "priors = [pn.GridDensity((pn.interior_grid(3),), w / w.sum()) for w in masses]\n"
     "ll = rng.normal(size=(3,) * 13)\n"
     "restart()\n"
     "for _ in range(10):\n"
     "    oracle = pn.joint_oracle(priors, lambda *blocks: ll)\n"
     "out = {'cells': oracle.weights.size, 'max': float(oracle.weights.max())}"),
    ("closure_m2", 10,
     "s = p.build_system(2)\n"
     "r = ci.closure(p.base_statements(s), s.dependencies, s.universe)\n"
     "out = {'statements': r.generated, 'complete': r.complete}"),
    ("verify_coherence_m3_sequence", 10,
     "s = p.build_system(3)\n"
     "extras = [({'I_12^0'}, {'theta_1'}, {'I_0^0'}), ({'I_11^0'}, {'I_22^0'}, {'I_0^0'}),\n"
     "          ({'theta_2'}, {'I_13^0'}, ()), ({'I_21^0'}, {'I_33^0'}, {'I_0^0'}),\n"
     "          ({'theta_1'}, {'theta_3'}, ()), ({'I_31^0'}, {'theta_3'}, {'I_+^0'})]\n"
     "base = p.base_statements(s)\n"
     "bases = [base] + [base + (ci.normalize(*e),) for e in extras]\n"
     "out = [[g.status for g in p.verify_coherence(s, p.AxiomaticMode(b)).goals] for b in bases]"),
    ("verify_coherence_m3_fresh_extras", 10,
     "extras = [({'I_12^0'}, {'theta_1'}, {'I_0^0'}), ({'I_11^0'}, {'I_22^0'}, {'I_0^0'}),\n"
     "          ({'theta_2'}, {'I_13^0'}, ()), ({'I_21^0'}, {'I_33^0'}, {'I_0^0'}),\n"
     "          ({'theta_1'}, {'theta_3'}, ()), ({'I_31^0'}, {'theta_3'}, {'I_+^0'})]\n"
     "out = []\n"
     "for extra in [None, *extras]:\n"
     "    s = p.build_system(3)\n"
     "    base = p.base_statements(s) + ((ci.normalize(*extra),) if extra else ())\n"
     "    out.append([g.status for g in p.verify_coherence(s, p.AxiomaticMode(base)).goals])"),
    ("verify_coherence_m6", 3,
     "s = p.build_system(6)\n"
     "v = p.verify_coherence(s, p.AxiomaticMode(p.base_statements(s)))\n"
     "out = [g.status for g in v.goals]"),
    ("verify_coherence_m7", 3,
     "s = p.build_system(7)\n"
     "v = p.verify_coherence(s, p.AxiomaticMode(p.base_statements(s), 500_000))\n"
     "out = [g.status for g in v.goals]"),
    ("verify_coherence_m16", 10,
     "s = p.build_system(16)\n"
     "v = p.verify_coherence(s, p.AxiomaticMode(p.base_statements(s)))\n"
     "out = [g.status for g in v.goals]"),
    ("verify_coherence_m32", 10,
     "s = p.build_system(32)\n"
     "v = p.verify_coherence(s, p.AxiomaticMode(p.base_statements(s)))\n"
     "out = [g.status for g in v.goals]"),
    ("verify_coherence_m32_repeat", 10,
     "s = p.build_system(32)\n"
     "mode = p.AxiomaticMode(p.base_statements(s))\n"
     "p.verify_coherence(s, mode)\n"
     "restart()\n"
     "out = [[g.status for g in p.verify_coherence(s, mode).goals] for _ in range(3)]"),
    ("graphical_verdicts_m16", 10,
     "s = p.build_system(16)\n"
     "vs = [p.verify_coherence(s, p.GraphicalMode(dag(s))) for dag in (p.canonical_dag, p.confounded_dag)]\n"
     "out = [[[c.status for c in v.conditions], [g.status for g in v.goals]] for v in vs]"),
    ("graphical_verdicts_m3_repeat", 10,
     "s = p.build_system(3)\n"
     "dags = [p.canonical_dag(s), p.confounded_dag(s)]\n"
     "vs = [p.verify_coherence(s, p.GraphicalMode(d)) for d in dags]\n"
     "restart()\n"
     "for _ in range(100):\n"
     "    vs = [p.verify_coherence(s, p.GraphicalMode(d)) for d in dags]\n"
     "out = [[[c.status for c in v.conditions], [g.status for g in v.goals]] for v in vs]"),
    ("prove_pass_seed1", 3,
     "import random, sys\n"
     "sys.path.insert(0, 'perfbench')\n"
     "from workloads import ProveWorkload\n"
     "wl = ProveWorkload()\n"
     "wl.setup()\n"
     "wl.run(wl.warmup_job(), False)\n"
     "rng = random.Random('1/0')\n"
     "jobs = wl.make_pass(rng)\n"
     "rng.shuffle(jobs)\n"
     "restart()\n"
     "out = [[g.status for g in wl.run(job, False)[0].goals] for job in jobs]"),
    ("ablate_m2", 3,
     "rows = p.ablate(p.build_system(2))\n"
     "out = [[d and d.value, [g.status for g in v.goals]] for d, v in rows]"),
    ("ablate_m3_budget_500000", 3,
     "rows = p.ablate(p.build_system(3), 500_000)\n"
     "out = [[d and d.value, [g.status for g in v.goals]] for d, v in rows]"),
)
LAYER_CHILD = """\
import json, resource, time
from modcoherence import ci, protocol as p


def cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def restart():
    global start, cpu_start
    start, cpu_start = time.perf_counter(), cpu()


restart()
{code}
seconds, cpu_seconds = time.perf_counter() - start, cpu() - cpu_start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{"seconds": seconds, "cpu_seconds": cpu_seconds, "peak_rss_mb": rss_mb,
                  "result": out}}))
"""
# A layer case again, untimed, with every binding of the counted functions
# in the package's modules replaced by a counting wrapper, and every
# replaced attribute restored (and checked) before the counts are printed:
# memos (``ci.Memo``s built), searches (``ci._Saturation``s created),
# searches run (those a query ran, each counted once, when its first run
# starts) and the statements they hold when each last stops (where ``ci``
# files a base at a search's first run, a search no query ran holds
# none), calls of ``ci.normalize``, ``ci.apply_axiom``,
# ``ci.derive_through``, ``Proof.replay`` and ``dag.d_separated``, and the
# leaves and cells that ``panels._pairwise`` sweeps.  ``restart()`` drops
# what the case's set-up counted.
COUNT_CHILD = """\
import collections, json, sys, time, types, weakref
from modcoherence import ci, dag, panels, protocol as p

counts, sizes, serial = collections.Counter(), [], weakref.WeakKeyDictionary()
started = set()  # the serials of the searches a query ran
replaced = []


def replace(owner, name, wrap):
    original = getattr(owner, name)
    replaced.append((owner, name, original))
    setattr(owner, name, wrap(original))


def calls(key):
    def wrap(original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted
    return wrap


def created(original):
    def counted(search, *args, **kwargs):
        original(search, *args, **kwargs)
        counts["searches"] += 1
        serial[search] = len(sizes)
        sizes.append(len(search.known))
    return counted


def ran(original):
    def counted(search, *args, **kwargs):
        if serial[search] not in started:
            started.add(serial[search])
            counts["searches_run"] += 1
        try:
            return original(search, *args, **kwargs)
        finally:
            sizes[serial[search]] = len(search.known)
    return counted


def swept(original):
    def counted(n, piece, lo=0):
        if n <= panels.LEAF:
            counts["pairwise_leaves"] += 1
            counts["pairwise_cells"] += n
        return original(n, piece, lo)
    return counted


functions = {{ci.normalize: "normalize", ci.apply_axiom: "apply_axiom",
             ci.derive_through: "derive_through", dag.d_separated: "d_separated"}}
for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "modcoherence"]:
    for name, value in list(vars(module).items()):
        if isinstance(value, types.FunctionType) and value in functions:
            replace(module, name, calls(functions[value]))
replace(ci.Proof, "replay", calls("replay"))
replace(ci.Memo, "__init__", calls("memos"))
replace(ci._Saturation, "__init__", created)
replace(ci._Saturation, "run", ran)
replace(panels, "_pairwise", swept)
baseline = 0


def restart():
    global baseline
    counts.clear()
    baseline = sum(sizes)


restart()
{code}
counts["statements_generated"] = sum(sizes) - baseline
for owner, name, original in reversed(replaced):
    setattr(owner, name, original)
assert all(getattr(owner, name) is original for owner, name, original in replaced)
keys = [*functions.values(), "replay", "memos", "searches", "searches_run",
        "statements_generated", "pairwise_leaves", "pairwise_cells"]
print(json.dumps({{key: counts[key] for key in sorted(keys)}}))
"""


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    out = json.loads(lines[-1])
    result = {
        "correct": out["correct"],
        "problems": [line[len("FAILED "):] for line in lines if line.startswith("FAILED ")],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }
    if not trace:
        result["failed_ratio"] = out["failed"] / out["attempted"] if out["attempted"] else 0.0
        result["environment"] = {k: env[k] for k in ("nproc", "python", "numpy")}
    return result


def run_layer(checkout: Path, code: str, child: str = LAYER_CHILD) -> dict:
    cmd = [sys.executable, "-c", child.format(code=code)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"layer case in {checkout} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def layers(parent: Path) -> dict:
    record = {}
    for name, runs, code in LAYER_CASES:
        sides: dict = {"parent": [], "change": []}
        for run in range(runs):
            order = ["parent", "change"] if run % 2 == 0 else ["change", "parent"]
            for side in order:
                sides[side].append(run_layer(parent if side == "parent" else ROOT, code))
                print(f"layer {name} {side}: {sides[side][-1]['seconds']:.2f} s", file=sys.stderr)
        record[name] = {
            side: {
                "seconds": [r["seconds"] for r in results],
                "median_s": statistics.median(r["seconds"] for r in results),
                "cpu_seconds": [r["cpu_seconds"] for r in results],
                "median_cpu_s": statistics.median(r["cpu_seconds"] for r in results),
                "counts": run_layer(parent if side == "parent" else ROOT, code, COUNT_CHILD),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                "result": results[0]["result"],
            }
            for side, results in sides.items()
        }
        record[name]["same_result"] = all(
            r["result"] == sides["parent"][0]["result"] for r in sides["parent"] + sides["change"]
        )
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def paired(parent: Path, workload: str, pairs: int, better: dict, first_seed: int) -> dict:
    runs = []
    for seed in range(first_seed, first_seed + pairs):
        order = ["parent", "change"] if (seed - first_seed) % 2 == 0 else ["change", "parent"]
        sides = {}
        for side in order:
            sides[side] = run_bench(parent if side == "parent" else ROOT, workload, seed, 0)
            print(f"{workload} seed {seed} {side}: {sides[side]['metrics']}", file=sys.stderr)
        runs.append({"seed": seed, "order": order, **sides})
    summary = {}
    for name, direction in better.items():
        values = {side: [r[side]["metrics"][name] for r in runs] for side in ("parent", "change")}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        summary[name] = {side: quartiles(v) for side, v in values.items()}
        summary[name]["change_wins"] = wins
    return {
        "environment": runs[0]["change"]["environment"],
        "pairs": pairs,
        "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
        "problems": sorted({p for r in runs for s in ("parent", "change")
                            for p in r[s]["problems"]}),
        "max_failed_ratio": max(r[s]["failed_ratio"] for r in runs for s in ("parent", "change")),
        "summary": summary,
        "runs": [
            {"seed": r["seed"], "order": r["order"],
             **{s: r[s]["metrics"] for s in ("parent", "change")}}
            for r in runs
        ],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="Checkout of the parent commit.")
    ap.add_argument("--label", required=True, help="Short sha of the parent commit.")
    ap.add_argument("--workload", action="append", required=True, help="NAME:PAIRS")
    ap.add_argument("--traced", action="append", default=[], help="Workload for --trace 1.")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="Seed of the first pair; pair k runs seed FIRST_SEED + k.")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    parent = args.parent.resolve()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record: dict = {
        "parent": args.label,
        "change": f"working tree on top of {args.label}",
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
        "first_seed": args.first_seed,
        "src_lines": {"parent": src_lines(parent), "change": src_lines(ROOT)},
        "workloads": {},
        "traced": {},
    }
    record["src_lines"]["net"] = record["src_lines"]["change"] - record["src_lines"]["parent"]
    for item in args.workload:
        name, pairs = item.split(":")
        result = paired(parent, name, int(pairs), better, args.first_seed)
        record["environment"] = result.pop("environment")
        record["workloads"][name] = result
    for name in args.traced:
        record["traced"][name] = {
            side: run_bench(checkout, name, 1, 1)
            for side, checkout in (("parent", parent), ("change", ROOT))
        }
    record["layers"] = layers(parent)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

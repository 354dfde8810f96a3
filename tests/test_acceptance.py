"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line with the measured quantity and its tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline.
"""

import time

import numpy as np

from modcoherence.ci import normalize
from modcoherence.dag import build_dag, d_separated
from modcoherence.panels import (
    BetaParams,
    GridDensity,
    bernoulli_loglik,
    beta_grid,
    compose_product,
    divergence,
    functional_expectation,
    joint_oracle,
    panel_update_conjugate,
    panel_update_grid,
    separability_check_numeric,
)
from modcoherence.protocol import (
    AxiomaticMode,
    ablate,
    base_statements,
    build_system,
    canonical_dag,
    verify_coherence,
)

from .oracles import all_small_queries, ci_holds, random_dag_instance
from .test_axiom_soundness import (
    DET_DEPS,
    check,
    joint_a_indep_bd_given_c,
    joint_contraction_premises,
    joint_with_deterministic_x,
)

_VERDICTS: dict = {}


def verdict_for(m: int):
    if m not in _VERDICTS:
        sys_ = build_system(m)
        _VERDICTS[m] = verify_coherence(sys_, AxiomaticMode(base_statements(sys_)))
    return _VERDICTS[m]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def milestone_statements(sys_, i: int, goal_name: str):
    """The published derivation chain's intermediate statements per goal."""
    rest = sys_.theta_rest(i)
    common, own_i = sys_.common, sys_.evidence(i, i)
    pool, own = sys_.full_pool, sys_.own_evidence_pool
    cut_in = normalize({sys_.theta(i)}, {own} | rest, {common, own_i})
    if goal_name == "panel_independence":
        pooled = normalize({sys_.theta(i)}, rest, {common, own})
        return (cut_in, pooled)
    shielded = normalize({sys_.theta(i)}, {pool}, {common, own_i, own})
    own_only = normalize({sys_.theta(i)}, {own}, {common, own_i})
    return (cut_in, shielded, own_only)


def test_criterion_1_mechanized_theorem():
    """Both coherence goals derived for every panel at m=2 and m=3, with the
    published intermediate statements appearing in each trace; < 10 s."""
    start = time.perf_counter()
    ok = True
    missing = []
    for m in (2, 3):
        sys_ = build_system(m)
        verdict = verdict_for(m)
        ok = ok and verdict.sound_and_distributed
        for goal in verdict.goals:
            ok = ok and goal.status == "proved" and goal.proof.replay(sys_.dependencies)
            trace = set(goal.proof.statements())
            for stmt in milestone_statements(sys_, goal.panel, goal.name):
                if stmt not in trace:
                    ok = False
                    missing.append((m, goal.panel, goal.name, stmt.render()))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, ok, f"theorem mechanized for m=2,3 with milestone statements "
                  f"in every trace (missing={missing}), {elapsed:.2f}s < 10s")


def test_criterion_2_necessity_ablation():
    """Dropping any one condition leaves a goal underivable after full
    saturation (four failing rows plus a passing control); < 60 s."""
    start = time.perf_counter()
    rows = ablate(build_system(2))
    elapsed = time.perf_counter() - start
    ok = rows[0][0] is None and rows[0][1].sound_and_distributed
    for kind, verdict in rows[1:]:
        failed = [g for g in verdict.goals if not g.established]
        ok = ok and not verdict.sound_and_distributed and failed
        ok = ok and all(g.status == "not_derivable" for g in failed)
    ok = bool(ok) and len(rows) == 5 and elapsed < 60.0
    report(2, ok, f"control sound, all 4 single-condition drops certified "
                  f"not-derivable, {elapsed:.2f}s < 60s")


def test_criterion_3_two_panel_contrast():
    """Distributed product estimate 0.25 (exact closed form, 1e-4 on the
    grid) versus full-table estimate 6/102; ratio in [4.25, 5]; < 1 s."""
    start = time.perf_counter()
    posts = [panel_update_conjugate(BetaParams(1, 1), (50, 100)) for _ in range(2)]
    closed = posts[0].mean * posts[1].mean
    joint = compose_product([beta_grid(p, 101) for p in posts])
    grid_est = functional_expectation(joint, lambda a, b: a * b)
    cell = panel_update_conjugate(BetaParams(1, 1), (5, 100))
    ratio = closed / cell.mean
    elapsed = time.perf_counter() - start
    ok = (
        closed == 0.25
        and abs(grid_est - 0.25) <= 1e-4
        and abs(cell.mean - 6 / 102) <= 1e-12
        and 4.25 <= ratio <= 5.0
        and elapsed < 1.0
    )
    report(3, ok, f"distributed 0.25 exact / {grid_est:.6f} grid, full-table "
                  f"{cell.mean:.4f} (=6/102), ratio {ratio:.2f} in [4.25, 5], "
                  f"{elapsed:.3f}s < 1s")


def test_criterion_4_distributed_equals_oracle_when_separable():
    """>= 50 randomized separable instances (Bernoulli m=2/3):
    max_abs divergence <= 1e-10 at matched grids; < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0

    def run_bernoulli(m: int) -> float:
        priors = [beta_grid(BetaParams(rng.uniform(1, 6), rng.uniform(1, 6)), 101)
                  for _ in range(m)]
        counts = [(int(rng.integers(0, 51)), 80) for _ in range(m)]
        logliks = [bernoulli_loglik(s, n) for s, n in counts]
        distributed = compose_product(
            [panel_update_grid(p, ll) for p, ll in zip(priors, logliks)]
        )
        oracle = joint_oracle(priors, lambda *b: sum(ll(x) for ll, x in zip(logliks, b)))
        return divergence(distributed, oracle).max_abs

    for _ in range(42):
        worst = max(worst, run_bernoulli(2)); count += 1
    for _ in range(10):
        worst = max(worst, run_bernoulli(3)); count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 50 and worst <= 1e-10 and elapsed < 30.0
    report(4, ok, f"{count} separable instances, worst max_abs divergence "
                  f"{worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_5_interaction_breaks_distributivity():
    """>= 20 randomized instances with an injected cross-block interaction:
    the numeric check flags it (residual > 1e-3) and the distributed
    posterior drifts from the oracle (TV > 1e-6) every time."""
    rng = np.random.default_rng(777)
    grid = np.linspace(0.0, 1.0, 103)[1:-1]  # interior so log-likelihoods stay finite
    flagged = drifted = 0
    n_instances = 24
    for _ in range(n_instances):
        strength = float(rng.uniform(3.0, 15.0))
        counts = [(int(rng.integers(5, 40)), 60) for _ in range(2)]
        logliks = [bernoulli_loglik(s, n) for s, n in counts]

        def joint_ll(a, b):
            return logliks[0](a) + logliks[1](b) + strength * a * b

        verdict = separability_check_numeric(joint_ll, [grid, grid])
        if not verdict.separable and verdict.max_residual > 1e-3:
            flagged += 1
        priors = [GridDensity((grid,), np.full(grid.size, 1.0 / grid.size)) for _ in range(2)]
        distributed = compose_product(
            [panel_update_grid(p, ll) for p, ll in zip(priors, logliks)]
        )
        oracle = joint_oracle(priors, joint_ll)
        if divergence(distributed, oracle).total_variation > 1e-6:
            drifted += 1
    ok = flagged == n_instances and drifted == n_instances
    report(5, ok, f"{flagged}/{n_instances} instances flagged non-separable "
                  f"(residual > 1e-3) and {drifted}/{n_instances} with TV > 1e-6")


def test_criterion_6_dsep_oracle_equivalence():
    """>= 100 random DAGs (<= 6 binary nodes): every d-separation certificate
    is confirmed as exact CI by full enumeration within 1e-10."""
    rng = np.random.default_rng(9090)
    certified = confirmed = 0
    for _ in range(110):
        n = int(rng.integers(3, 7))
        order, edges, joint = random_dag_instance(rng, n)
        dag = build_dag(order, edges)
        for a, b, c in all_small_queries(n, rng, count=12):
            names = lambda idxs: {order[i] for i in idxs}
            if d_separated(dag, names(a), names(b), names(c)):
                certified += 1
                if ci_holds(joint, a, b, c, tol=1e-10):
                    confirmed += 1
    ok = certified == confirmed and certified > 100
    report(6, ok, f"{confirmed}/{certified} certificates confirmed exactly "
                  f"(<= 1e-10) over 110 random DAGs; zero false certificates")


def test_criterion_7_axiom_soundness():
    """200 randomized premise-satisfying joints per rule; conclusions hold
    exactly (1e-12) in every instance."""
    from modcoherence.ci import apply_axiom

    violations = 0
    total = 0
    rng = np.random.default_rng(31)
    premise_bd = normalize({"A"}, {"B", "D"}, {"c0", "c1"})
    for _ in range(200):
        joint = joint_a_indep_bd_given_c(rng)
        for concl in (
            apply_axiom("symmetry", [premise_bd]),
            apply_axiom("decomposition", [premise_bd], selection={"B"}),
            apply_axiom("weak_union", [premise_bd], selection={"B"}),
        ):
            total += 1
            violations += not check(joint, concl)
    p1 = normalize({"A"}, {"B"}, {"c0", "c1"})
    p2 = normalize({"A"}, {"D"}, {"B", "c0", "c1"})
    contraction = apply_axiom("contraction", [p1, p2])
    for _ in range(200):
        joint = joint_contraction_premises(rng)
        total += 1
        violations += not check(joint, contraction)
    aug_add = apply_axiom("determinism_augment", [p1], {"X"}, DET_DEPS)
    drop_prem = normalize({"A"}, {"B"}, {"X", "c0", "c1"})
    drop = apply_axiom("determinism_drop", [drop_prem], {"X"}, DET_DEPS)
    for _ in range(200):
        joint = joint_with_deterministic_x(rng)
        for concl in (aug_add, drop):
            total += 1
            violations += not check(joint, concl)
    ok = violations == 0 and total >= 1200
    report(7, ok, f"{total} rule instances checked at 1e-12, {violations} violations")


def test_criterion_8_proof_graph_cross_validation():
    """Every statement in the m=2 proof traces is d-separated on the
    canonical 9-node reference graph."""
    sys_ = build_system(2)
    dag = canonical_dag(sys_)
    assert len(dag.nodes) == 9
    verdict = verdict_for(2)
    checked = failures = 0
    for goal in verdict.goals:
        for stmt in goal.proof.statements():
            checked += 1
            if not d_separated(dag, stmt.a, stmt.b, stmt.c):
                failures += 1
    ok = failures == 0 and checked > 0
    report(8, ok, f"{checked} trace statements all d-separated on the "
                  f"canonical 9-node graph ({failures} failures)")

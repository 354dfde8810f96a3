"""Probabilistic soundness of every inference rule.

For each rule we build random small joint distributions that satisfy the
rule's premises by construction, run the rule through ``apply_axiom``, and
confirm the conclusion holds exactly (tolerance 1e-12) in the enumerated
joint.  200 randomized instances per rule.
"""

import itertools

import numpy as np
import pytest

from modcoherence.ci import FunctionalDependency, apply_axiom, normalize

from .oracles import ci_holds, random_deterministic_map

N_INSTANCES = 200

# fixed axis layout for the five binary variables used below
AXIS = {"A": 0, "B": 1, "D": 2, "X": 2, "c0": 3, "c1": 4}


def axes(symbols) -> set:
    return {AXIS[s] for s in symbols}


def joint_a_indep_bd_given_c(rng: np.random.Generator) -> np.ndarray:
    """p(C) p(A|C) p(B,D|C): A is independent of {B, D} jointly given C,
    while B and D stay dependent on each other."""
    pc = rng.dirichlet(np.ones(4))
    pa = rng.uniform(0.05, 0.95, size=4)
    pbd = rng.dirichlet(np.ones(4), size=4)  # per C config, joint over (B, D)
    joint = np.zeros((2, 2, 2, 2, 2))
    for a, b, d, c0, c1 in itertools.product((0, 1), repeat=5):
        cfg = 2 * c0 + c1
        prob = pc[cfg] * (pa[cfg] if a else 1.0 - pa[cfg]) * pbd[cfg, 2 * b + d]
        joint[a, b, d, c0, c1] = prob
    return joint


def joint_contraction_premises(rng: np.random.Generator) -> np.ndarray:
    """p(C) p(A|C) p(B|C) p(D|B,C): satisfies A _||_ B | C and A _||_ D | B,C."""
    pc = rng.dirichlet(np.ones(4))
    pa = rng.uniform(0.05, 0.95, size=4)
    pb = rng.uniform(0.05, 0.95, size=4)
    pd = rng.uniform(0.05, 0.95, size=(2, 4))  # indexed by (B, C config)
    joint = np.zeros((2, 2, 2, 2, 2))
    for a, b, d, c0, c1 in itertools.product((0, 1), repeat=5):
        cfg = 2 * c0 + c1
        prob = pc[cfg]
        prob *= pa[cfg] if a else 1.0 - pa[cfg]
        prob *= pb[cfg] if b else 1.0 - pb[cfg]
        prob *= pd[b, cfg] if d else 1.0 - pd[b, cfg]
        joint[a, b, d, c0, c1] = prob
    return joint


def joint_with_deterministic_x(rng: np.random.Generator) -> np.ndarray:
    """p(C) p(A|C) p(B|C) with X = f(C): satisfies A _||_ B | C plus every
    premise shape the determinism rules accept."""
    pc = rng.dirichlet(np.ones(4))
    pa = rng.uniform(0.05, 0.95, size=4)
    pb = rng.uniform(0.05, 0.95, size=4)
    f = random_deterministic_map(rng, 4)
    joint = np.zeros((2, 2, 2, 2, 2))
    for a, b, x, c0, c1 in itertools.product((0, 1), repeat=5):
        cfg = 2 * c0 + c1
        if x != f[cfg]:
            continue
        prob = pc[cfg]
        prob *= pa[cfg] if a else 1.0 - pa[cfg]
        prob *= pb[cfg] if b else 1.0 - pb[cfg]
        joint[a, b, x, c0, c1] = prob
    return joint


DET_DEPS = (FunctionalDependency(frozenset({"X"}), frozenset({"c0", "c1"})),)


def check(joint: np.ndarray, stmt) -> bool:
    return ci_holds(joint, axes(stmt.a), axes(stmt.b), axes(stmt.c), tol=1e-12)


def test_symmetry_sound():
    rng = np.random.default_rng(11)
    premise = normalize({"A"}, {"B", "D"}, {"c0", "c1"})
    for _ in range(N_INSTANCES):
        joint = joint_a_indep_bd_given_c(rng)
        assert check(joint, premise)
        assert check(joint, apply_axiom("symmetry", [premise]))


def test_decomposition_sound():
    rng = np.random.default_rng(12)
    premise = normalize({"A"}, {"B", "D"}, {"c0", "c1"})
    for _ in range(N_INSTANCES):
        joint = joint_a_indep_bd_given_c(rng)
        assert check(joint, premise)
        for kept in ({"B"}, {"D"}):
            assert check(joint, apply_axiom("decomposition", [premise], selection=kept))


def test_weak_union_sound():
    rng = np.random.default_rng(13)
    premise = normalize({"A"}, {"B", "D"}, {"c0", "c1"})
    for _ in range(N_INSTANCES):
        joint = joint_a_indep_bd_given_c(rng)
        assert check(joint, premise)
        for moved in ({"B"}, {"D"}):
            assert check(joint, apply_axiom("weak_union", [premise], selection=moved))


def test_contraction_sound():
    rng = np.random.default_rng(14)
    p1 = normalize({"A"}, {"B"}, {"c0", "c1"})
    p2 = normalize({"A"}, {"D"}, {"B", "c0", "c1"})
    conclusion = apply_axiom("contraction", [p1, p2])
    assert conclusion == normalize({"A"}, {"B", "D"}, {"c0", "c1"})
    for _ in range(N_INSTANCES):
        joint = joint_contraction_premises(rng)
        assert check(joint, p1) and check(joint, p2)
        assert check(joint, conclusion)


@pytest.mark.parametrize(
    "premise, selection",
    [
        (normalize({"A"}, {"B"}, {"c0", "c1"}), {"X"}),  # add determined symbol
        (normalize({"A"}, {"B", "X"}, {"c0", "c1"}), {"X"}),  # side -> context
        (normalize({"A"}, {"B"}, {"X", "c0", "c1"}), {"X"}),  # context -> side
    ],
    ids=["add", "side_to_context", "context_to_side"],
)
def test_determinism_augment_sound(premise, selection):
    rng = np.random.default_rng(15)
    conclusion = apply_axiom("determinism_augment", [premise], selection, DET_DEPS)
    for _ in range(N_INSTANCES):
        joint = joint_with_deterministic_x(rng)
        assert check(joint, premise)
        assert check(joint, conclusion)


def test_determinism_drop_sound():
    rng = np.random.default_rng(16)
    premise = normalize({"A"}, {"B"}, {"X", "c0", "c1"})
    conclusion = apply_axiom("determinism_drop", [premise], {"X"}, DET_DEPS)
    assert conclusion == normalize({"A"}, {"B"}, {"c0", "c1"})
    for _ in range(N_INSTANCES):
        joint = joint_with_deterministic_x(rng)
        assert check(joint, premise)
        assert check(joint, conclusion)

"""Every proof a machine report prints, checked from the report alone.

``tests/oracles.proof_fault`` reads the rendered statements and checks each
step by its own reading of the rules and of the pools' dependencies, without
``ci``: a fault that the prover and ``ci.apply_axiom`` share would pass
``Proof.replay`` but not this.  The dependencies are stated here from the
README's definitions of the pools, not taken from ``protocol``.  Besides
the reports, it checks the goal proofs of verdicts on bases with extra
statements that enter a panel's slice, where the system's own proofs are
read, and those proofs themselves.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from modcoherence.ci import normalize
from modcoherence.protocol import AxiomaticMode, base_statements, build_system, verify_coherence
from modcoherence.report import proof_to_dict

from .cli_runner import invoke
from .oracles import panel_lump_reference, proof_fault

SPECS = Path(__file__).resolve().parent.parent / "specs"


def evidence(m: int, i: int, j: int) -> str:
    return f"I_{i}_{j}^0" if m >= 10 else f"I_{i}{j}^0"


def pool_dependencies(m: int) -> list:
    """I_*^0 collects the own evidence I_ii^0, and I_+^0 every I_ij^0 and
    I_0^0; each pool and its components determine each other."""
    own = frozenset(evidence(m, i, i) for i in range(1, m + 1))
    full = frozenset(evidence(m, i, j) for i in range(1, m + 1) for j in range(1, m + 1))
    full |= {"I_0^0"}
    out = []
    for pool, parts in (("I_*^0", own), ("I_+^0", full)):
        out += [(parts, frozenset({pool})), (frozenset({pool}), parts)]
    return out


def machine(command: str, spec) -> dict:
    result = invoke([command, "--spec", str(spec), "--format", "machine"])
    assert result.exception is None
    return json.loads(result.output)


def proofs(value):
    """Every proof in a report, at any depth."""
    if isinstance(value, dict):
        if "premises" in value and "steps" in value:
            yield value
        for v in value.values():
            yield from proofs(v)
    elif isinstance(value, list):
        for v in value:
            yield from proofs(v)


def conditions(report: dict) -> set:
    return {s for c in report["results"].get("conditions", ()) for s in c["statements"]}


def test_every_bundled_report_proof_checks():
    """``check``'s premises are its report's condition statements, and
    ``derive``'s, on a protocol spec without statements, are ``check``'s.
    ``ablate`` reports print no proofs."""
    counted = {"check": 0, "derive": 0, "ablate": 0}
    for spec in sorted(SPECS.glob("*.spec")):
        text = json.loads(spec.read_text())
        if "protocol" not in text:
            continue
        assert "statements" not in text
        m = text["protocol"]["panels"]
        check = machine("check", spec)
        reports = {"check": check, "derive": machine("derive", spec)}
        if m == 2:
            reports["ablate"] = machine("ablate", spec)
        for command, report in reports.items():
            for proof in proofs(report):
                assert proof_fault(proof, pool_dependencies(m), conditions(check)) is None
                counted[command] += 1
    assert counted == {"check": 10, "derive": 1, "ablate": 0}


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 32])
def test_every_check_proof_checks(tmp_path, m):
    spec = tmp_path / "check.spec"
    spec.write_text(json.dumps({"version": 1, "protocol": {"panels": m}}))
    report = machine("check", spec)
    goals = report["results"]["goals"]
    assert len(goals) == 2 * m
    for goal in goals:
        assert goal["proof"]["goal"] == goal["statement"]
        assert proof_fault(goal["proof"], pool_dependencies(m), conditions(report)) is None


OTHER_RULE = {
    "symmetry": "decomposition", "decomposition": "weak_union", "weak_union": "decomposition",
    "contraction": "symmetry", "determinism_augment": "determinism_drop",
    "determinism_drop": "determinism_augment",
}

# four per step and one per premise: 36 steps and 16 premises at m = 2,
# 54 and 24 at m = 3
TAMPERED = {2: 160, 3: 240}


@pytest.mark.parametrize("m", [2, 3])
def test_each_tampering_is_rejected(m):
    """At every step of every goal proof: another statement's text as the
    output, a name added to the selection, the step's own number as an
    input, another rule's name; each premise replaced by the goal; and the
    whole proof without the pools' dependencies, which license its
    determinism steps."""
    report = machine("check", SPECS / f"coherence_m{m}.spec")
    deps, given = pool_dependencies(m), conditions(report)
    tampered = 0
    for goal in report["results"]["goals"]:
        proof = goal["proof"]
        texts = proof["premises"] + [step["output"] for step in proof["steps"]]
        assert proof_fault(proof, deps, given) is None
        first = next(k for k, step in enumerate(proof["steps"])
                     if step["rule"].startswith("determinism_"))
        assert proof_fault(proof, [], given).startswith(f"step {first}: ")
        for k, step in enumerate(proof["steps"]):
            own = len(proof["premises"]) + k
            changes = [("selection", step["selection"] + ["not_a_symbol"]),
                       ("inputs", [own] + step["inputs"][1:]),
                       ("rule", OTHER_RULE[step["rule"]])]
            if texts[own - 1] != step["output"]:
                changes.append(("output", texts[own - 1]))
            for field, value in changes:
                bad = copy.deepcopy(proof)
                bad["steps"][k][field] = value
                assert proof_fault(bad, deps, given) is not None, (field, k)
                tampered += 1
        for j in range(len(proof["premises"])):
            bad = copy.deepcopy(proof)
            bad["premises"][j] = proof["goal"]
            assert proof_fault(bad, deps, given) is not None
            tampered += 1
    assert tampered == TAMPERED[m]


def extras_in_a_slice(m: int, draws: int) -> list:
    """``I_mm^0 _||_ I_*^0 | I_0^0``, which enters panel m's slice alone,
    then ``draws`` seeded statements over one panel's theta, own evidence,
    ``I_0^0`` and the two pools, each of which enters that panel's slice."""
    own = normalize({evidence(m, m, m)}, {"I_*^0"}, {"I_0^0"})
    extras = [own]
    for seed in range(draws):
        rng = random.Random(seed)
        i = rng.randint(1, m)
        names = sorted({f"theta_{i}", evidence(m, i, i), "I_0^0", "I_*^0", "I_+^0"})
        a, b, *c = rng.sample(names, rng.randint(2, 4))
        extras.append(normalize({a}, {b}, c))
    return extras


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_goal_proof_checks_where_extras_enter_a_slice(m):
    """Extras that enter a panel's slice leave the premises of the system's
    own lumped proofs in it, so its goals show those proofs, expanded;
    each goal proof of each verdict, the I_33^0 base at m = 3 among them,
    must check against that verdict's base."""
    system = build_system(m)
    deps = pool_dependencies(m)
    for extra in extras_in_a_slice(m, 8):
        assert any(panel_lump_reference(system, i)(extra) for i in range(1, m + 1))
        base = base_statements(system) + (extra,)
        verdict = verify_coherence(system, AxiomaticMode(base))
        given = [s.render() for s in base]
        assert all(goal.status == "proved" for goal in verdict.goals)
        for goal in verdict.goals:
            assert proof_fault(proof_to_dict(goal.proof), deps, given) is None


@pytest.mark.parametrize("m", [2, 3, 4, 10, 32])
def test_every_stored_goal_proof_checks_against_the_conditions(m):
    """Each of the system's 2m stored goal proofs, checked once when it was
    made, checks against the conditions' statements, ending at its route's
    goal."""
    system = build_system(m)
    deps = pool_dependencies(m)
    given = [s.render() for s in base_statements(system)]
    assert len(system.goal_proofs) == 2 * m
    for route, result in system.goal_proofs.items():
        assert result.proof.goal == system.goal_chains[route][-1]
        assert proof_fault(proof_to_dict(result.proof), deps, given) is None

"""Semantic soundness of the whole prover on random GF(2)-linear models.

Each model draws k <= 3 uniform bits x and gives each of five symbols one or
two linear forms <v, x>; an aggregate of symbols is the tuple of their forms.
The entropy of a set X of symbols, in bits, is the rank r(X) of its forms,
so X _||_ Y | Z holds exactly when r(XZ) + r(YZ) = r(XYZ) + r(Z), and the
dependency X -> Y when r(XY) = r(X).  Both are exact integer identities
that owe nothing to ``ci``.

Each instance takes a base of 6 statements and 2 dependencies that hold in
its model.  Every statement of ``ci.closure`` on them must hold in the model,
and so must every statement of the proofs that several ``derive`` queries on
one ``Memo``, asked in a seeded random order, return.  ``apply_axiom`` checks
each step's shape only, so this is the check that a bug in the bit encoding,
the resumed searches or the determinism cache cannot pass.

The lumped-route probe draws such models over a panel system's symbols at
m = 2, 3 and 4, panels 3..m held at 0, and requires every statement of
every goal proof of an axiomatic verdict to hold: most of those proofs are
lumped derivations, made in panel 1's or panel 2's names, expanded back
into the full system.  The probes need nothing beyond the standard library
and the package.
"""

import random

from modcoherence import protocol
from modcoherence.ci import FunctionalDependency, Memo, closure, derive, normalize
from modcoherence.protocol import (
    AxiomaticMode,
    base_statements,
    build_system,
    verify_coherence,
)

# names whose string order differs from their number order
NAMES = ("theta_1", "theta_10", "theta_2", "I_0^0", "I_+^0")
N_INSTANCES = 300
N_BASE, N_DEPS, N_QUERIES = 6, 2, 8
# pinned: the statements the probe checks, from closures and from proofs
CLOSURE_STATEMENTS = 24118
PROOF_STATEMENTS = 6594
# the lumped-route probe: models per panel count, the verdicts' budget, and
# pinned, the goals proved, their proofs' statements, the proofs that came
# from the lumped route, those of them that were the system's own, and the
# (model, own proof) pairs where the model holds the proof's premises: each
# such proof is read by the model's verdict, so the last two are equal
N_SYSTEM_MODELS, SYSTEM_BUDGET = 60, 3_000
PROVED_GOALS, GOAL_PROOF_STATEMENTS, LUMPED_GOAL_PROOFS = 669, 8254, 619
READ_GOAL_PROOFS, HELD_GOAL_PROOFS = 464, 464


def _rank(forms) -> int:
    """Rank over GF(2) of the forms, each an int bit vector."""
    pivots = {}  # leading bit -> reduced form
    for v in forms:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


class LinearModel:
    def __init__(self, forms: dict) -> None:
        self.forms = forms  # name -> list of forms

    @classmethod
    def draw(cls, rng: random.Random) -> "LinearModel":
        k = rng.randint(1, 3)
        return cls(
            {name: [rng.randrange(1 << k) for _ in range(rng.randint(1, 2))] for name in NAMES}
        )

    def r(self, *sides) -> int:
        return _rank([v for side in sides for name in side for v in self.forms[name]])

    def holds(self, s) -> bool:
        return self.r(s.a, s.c) + self.r(s.b, s.c) == self.r(s.a, s.b, s.c) + self.r(s.c)

    def determines(self, dep: FunctionalDependency) -> bool:
        return self.r(dep.determiners, dep.determined) == self.r(dep.determiners)


def _random_statement(rng: random.Random):
    picked = rng.sample(NAMES, rng.randint(2, len(NAMES)))
    n_a = rng.randint(1, len(picked) - 1)
    n_b = rng.randint(1, len(picked) - n_a)
    return normalize(picked[:n_a], picked[n_a : n_a + n_b], picked[n_a + n_b :])


def _random_dependency(rng: random.Random) -> FunctionalDependency:
    picked = rng.sample(NAMES, rng.randint(2, 3))
    return FunctionalDependency(frozenset(picked[:1]), frozenset(picked[1:]))


def _instance(rng: random.Random):
    """A model with a base and dependencies that hold in it."""
    while True:
        model = LinearModel.draw(rng)
        base, deps = set(), set()
        for _ in range(200):
            if len(base) < N_BASE:
                s = _random_statement(rng)
                if model.holds(s):
                    base.add(s)
            if len(deps) < N_DEPS:
                dep = _random_dependency(rng)
                if model.determines(dep):
                    deps.add(dep)
            if len(base) == N_BASE and len(deps) == N_DEPS:
                return model, sorted(base, key=lambda s: s.sort_key()), tuple(
                    sorted(deps, key=lambda d: (sorted(d.determined), sorted(d.determiners)))
                )


def _instances():
    """The probe's models with their bases, dependencies and closures."""
    rng = random.Random(2000)
    for _ in range(N_INSTANCES):
        model, base, deps = _instance(rng)
        result = closure(base, deps, NAMES)
        assert result.complete
        yield model, base, deps, result.statements


def test_closure_statements_hold_in_linear_models():
    unsound, checked = [], 0
    for n, (model, _, _, statements) in enumerate(_instances()):
        checked += len(statements)
        unsound += [(n, s.render()) for s in statements if not model.holds(s)]
    assert unsound == []
    assert checked == CLOSURE_STATEMENTS


def test_memo_proof_statements_hold_in_linear_models():
    unsound, checked = [], 0
    for n, (model, base, deps, closed) in enumerate(_instances()):
        # queries in and out of the closure, on one memo, in a random order
        rng = random.Random(n)
        queries = rng.sample(sorted(closed, key=lambda s: s.sort_key()), N_QUERIES // 2)
        queries += [_random_statement(rng) for _ in range(N_QUERIES - len(queries))]
        rng.shuffle(queries)
        memo = Memo(deps, NAMES)
        for goal in queries:
            got = derive(base, deps, goal, universe=NAMES, memo=memo)
            assert got.proved == (goal in closed), (n, goal.render(), got.status)
            if got.proved:
                statements = got.proof.statements()
                checked += len(statements)
                unsound += [(n, s.render()) for s in statements if not model.holds(s)]
    assert unsound == []
    assert checked == PROOF_STATEMENTS


def _system_model(system, rng: random.Random) -> LinearModel:
    """Each of panels 1 and 2's thetas and evidence and the common symbol
    gets one form over k = 3 bits, every other base symbol, so all of
    panels 3..m, is 0, and each pool is the tuple of its components."""
    drawn = [system.theta(1), system.theta(2), system.common]
    drawn += [system.evidence(i, j) for i in (1, 2) for j in (1, 2)]
    forms = {name: [] for name in system.universe}
    forms.update((name, [rng.randrange(8)]) for name in drawn)
    for symbol, components in system.aggregates:
        forms[symbol] = [v for name in sorted(components) for v in forms[name]]
    return LinearModel(forms)


def test_lumped_route_goal_proofs_hold_in_linear_models(monkeypatch):
    """Each model's base is every condition statement and every waypoint
    short of a goal that holds in it, so a goal is proved only by a
    derivation; at m >= 3 panels 3..m reuse panel 2's lumped derivations,
    made in panel 2's names, and every expanded proof must hold.  The
    system's own goal proofs are made before the recording starts, so each
    is also checked on its own in every model that holds its premises, and
    a goal that shows one counts among the lumped route's proofs."""
    systems = [build_system(m) for m in (2, 3, 4)]
    stored = {system.m: system.goal_proofs for system in systems}
    lumped = []
    derive_lumped = protocol._derive_lumped

    def recorded(*args):
        lumped.append(derive_lumped(*args))
        return lumped[-1]

    monkeypatch.setattr(protocol, "_derive_lumped", recorded)
    unsound, proved, checked, read, held = [], 0, 0, 0, 0
    for system in systems:
        waypoints = [w for chain in system.goal_chains.values() for w in chain[:-1]]
        candidates = dict.fromkeys([*base_statements(system), *waypoints])
        for n in range(N_SYSTEM_MODELS):
            model = _system_model(system, random.Random(f"{system.m}-{n}"))
            for result in stored[system.m].values():
                if all(model.holds(s) for s in result.proof.premises):
                    held += 1
                    unsound += [(system.m, n, s.render()) for s in result.proof.statements()
                                if not model.holds(s)]
            base = tuple(s for s in candidates if model.holds(s))
            verdict = verify_coherence(system, AxiomaticMode(base, SYSTEM_BUDGET))
            for route, goal in zip(system.goal_chains, verdict.goals):
                if goal.established:
                    proved += 1
                    read += goal.proof is stored[system.m][route].proof
                    statements = goal.proof.statements()
                    checked += len(statements)
                    unsound += [(system.m, n, s.render()) for s in statements if not model.holds(s)]
    assert unsound == []
    assert (proved, checked) == (PROVED_GOALS, GOAL_PROOF_STATEMENTS)
    assert sum(result.proved for result in lumped) + read == LUMPED_GOAL_PROOFS
    assert (read, held) == (READ_GOAL_PROOFS, HELD_GOAL_PROOFS)

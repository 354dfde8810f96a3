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
the resumed searches or the determinism cache cannot pass.  The probe needs
nothing beyond the standard library.
"""

import random

from modcoherence.ci import FunctionalDependency, Memo, closure, derive, normalize

# names whose string order differs from their number order
NAMES = ("theta_1", "theta_10", "theta_2", "I_0^0", "I_+^0")
N_INSTANCES = 300
N_BASE, N_DEPS, N_QUERIES = 6, 2, 8
# pinned: the statements the probe checks, from closures and from proofs
CLOSURE_STATEMENTS = 24118
PROOF_STATEMENTS = 6594


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
    def __init__(self, rng: random.Random) -> None:
        k = rng.randint(1, 3)
        self.forms = {
            name: [rng.randrange(1 << k) for _ in range(rng.randint(1, 2))] for name in NAMES
        }

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
        model = LinearModel(rng)
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

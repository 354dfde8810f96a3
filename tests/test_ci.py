"""Unit and property tests for the statement algebra and saturation prover."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoherence.ci import (
    EMPTY,
    CIError,
    CIStatement,
    DeriveResult,
    EmptySide,
    FunctionalDependency,
    Memo,
    OverlappingSets,
    Proof,
    ProofStep,
    ShapeMismatch,
    UnknownRule,
    UnlicensedDeterminism,
    UniverseError,
    _mask,
    _orient,
    aggregate_dependencies,
    apply_axiom,
    derive,
    derive_through,
    determined_closure,
    normalize,
)
from modcoherence.protocol import (
    ALL_CONDITIONS,
    ConditionKind,
    _panel_lumping,
    base_statements,
    build_system,
)

from .oracles import closure, reference_closure, single_symbol_expansion

T1, T2, I0, ISTAR, IPLUS, I11 = "theta_1", "theta_2", "I_0", "I_*", "I_+", "I_11"


class TestNormalize:
    def test_symmetry_canonicalization(self):
        assert normalize({T2}, {T1}, {I0}) == normalize({T1}, {T2}, {I0})
        s = normalize({T2}, {T1}, {I0})
        assert s.a == frozenset({T1}) and s.b == frozenset({T2})

    def test_identity_on_canonical_input(self):
        s = normalize({T1}, {T2})
        assert (s.a, s.b, s.c) == (frozenset({T1}), frozenset({T2}), frozenset())

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSets):
            normalize({T1}, {T1}, {I0})
        with pytest.raises(OverlappingSets):
            normalize({T1}, {T2}, {T1})

    def test_empty_side_rejected(self):
        with pytest.raises(EmptySide):
            normalize(set(), {T1})
        with pytest.raises(EmptySide):
            normalize({T1}, set())

    def test_str_side_rejected(self):
        # frozenset would split a bare str into its characters: "AB" read
        # as A,B, and "theta_1" overlapping "I_0^0" on single letters
        with pytest.raises(CIError, match="^a must be a collection of symbols, got 'AB'$"):
            normalize("AB", {"C"}, "D")
        with pytest.raises(CIError, match="^a must be a collection of symbols, got 'theta_1'$"):
            normalize("theta_1", {"theta_2"}, "I_0^0")
        with pytest.raises(CIError, match="^c must be a collection of symbols, got 'I_0'$"):
            normalize({T1}, [T2], I0)

    def test_str_subclass_side_rejected(self):
        class Name(str):
            pass

        with pytest.raises(CIError, match="^b must be a collection of symbols, got 'AB'$"):
            normalize({"C"}, Name("AB"))
        import numpy as np

        with pytest.raises(CIError, match="^a must be a collection of symbols, got "):
            normalize(np.str_("AB"), {"C"})

    def test_render(self):
        assert normalize({T2}, {T1}, {I0}).render() == "theta_1 _||_ theta_2 | I_0"
        assert normalize({T1}, {T2}).render() == "theta_1 _||_ theta_2"


class TestApplyAxiom:
    def test_symmetry_maps_to_canonical_form(self):
        s = normalize({T1}, {I11, T2}, {I0})
        assert apply_axiom("symmetry", [s]) == s

    def test_decomposition_keeps_selection(self):
        # theta_1 _||_ {I_*, theta_2} | I_0, I_11 selecting {I_*}
        s = normalize({T1}, {ISTAR, T2}, {I0, I11})
        out = apply_axiom("decomposition", [s], selection={ISTAR})
        assert out == normalize({T1}, {ISTAR}, {I0, I11})

    def test_weak_union_moves_selection(self):
        s = normalize({T1}, {ISTAR, T2}, {I0})
        out = apply_axiom("weak_union", [s], selection={ISTAR})
        assert out == normalize({T1}, {T2}, {I0, ISTAR})

    def test_contraction(self):
        s1 = normalize({T1}, {T2}, {I0})
        s2 = normalize({T1}, {ISTAR}, {I0, T2})
        out = apply_axiom("contraction", [s1, s2])
        assert out == normalize({T1}, {T2, ISTAR}, {I0})

    def test_contraction_shape_mismatch(self):
        s1 = normalize({T1}, {T2}, {I0})
        s2 = normalize({T1}, {ISTAR}, {I0})  # context is not {I_0, theta_2}
        with pytest.raises(ShapeMismatch):
            apply_axiom("contraction", [s1, s2])

    def test_determinism_drop(self):
        # {I_+} determines I_* and I_0, so both can leave the context
        deps = (
            FunctionalDependency(frozenset({ISTAR}), frozenset({IPLUS})),
            FunctionalDependency(frozenset({I0}), frozenset({IPLUS})),
        )
        s = normalize({T1}, {T2}, {I0, ISTAR, IPLUS})
        out = apply_axiom("determinism_drop", [s], selection={ISTAR}, deps=deps)
        out = apply_axiom("determinism_drop", [out], selection={I0}, deps=deps)
        assert out == normalize({T1}, {T2}, {IPLUS})

    def test_determinism_drop_unlicensed(self):
        s = normalize({T1}, {T2}, {I0, ISTAR})
        with pytest.raises(UnlicensedDeterminism):
            apply_axiom("determinism_drop", [s], selection={ISTAR})

    def test_determinism_augment_adds_determined_symbol(self):
        deps = (FunctionalDependency(frozenset({ISTAR}), frozenset({I11})),)
        s = normalize({T1}, {T2}, {I11})
        out = apply_axiom("determinism_augment", [s], selection={ISTAR}, deps=deps)
        assert out == normalize({T1}, {T2}, {I11, ISTAR})

    def test_determinism_augment_moves_between_side_and_context(self):
        deps = (FunctionalDependency(frozenset({ISTAR}), frozenset({I11})),)
        side = normalize({T1}, {T2, ISTAR}, {I11})
        ctx = normalize({T1}, {T2}, {I11, ISTAR})
        assert apply_axiom("determinism_augment", [side], selection={ISTAR}, deps=deps) == ctx
        assert apply_axiom("determinism_augment", [ctx], selection={ISTAR}, deps=deps) == side

    def test_unknown_rule(self):
        with pytest.raises(UnknownRule, match="unknown rule 'intersection'") as caught:
            apply_axiom("intersection", [normalize({T1}, {T2})])
        assert isinstance(caught.value, CIError) and isinstance(caught.value, ValueError)

    @pytest.mark.parametrize(
        "rule, n_inputs, selection, message",
        [
            ("symmetry", 2, (), "symmetry takes exactly one input statement, got 2"),
            ("weak_union", 0, {ISTAR}, "weak_union takes exactly one input statement, got 0"),
            ("contraction", 1, (), "contraction takes two input statements, got 1"),
            # the whole side, and a symbol on neither side, are not proper subsets
            ("decomposition", 1, {ISTAR, T2}, "is not a proper non-empty subset"),
            ("decomposition", 1, {I0}, "is not a proper non-empty subset"),
            ("decomposition", 1, (), "is not a proper non-empty subset"),
            ("determinism_augment", 1, {ISTAR, I11}, "selects exactly one symbol"),
            ("determinism_drop", 1, {I0, IPLUS}, "selects exactly one symbol"),
        ],
    )
    def test_shape_mismatch(self, rule, n_inputs, selection, message):
        s = normalize({T1}, {ISTAR, T2}, {I0, IPLUS})
        with pytest.raises(ShapeMismatch, match=message):
            apply_axiom(rule, [s] * n_inputs, selection)


class TestDependencies:
    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError):
            FunctionalDependency(frozenset({T1}), frozenset({T1, T2}))

    def test_a_string_of_determiners_is_refused(self):
        # frozenset("theta_1") is its characters: the dependency would never fire
        with pytest.raises(CIError, match="collection of symbols"):
            FunctionalDependency(frozenset({"I_+"}), "theta_1")

    def test_a_string_of_components_is_refused(self):
        with pytest.raises(CIError, match="collection of symbols"):
            aggregate_dependencies(ISTAR, "ab")

    @pytest.mark.parametrize("determined, determiners, field", [
        ("a", {"b"}, "determined"),  # a str would split into characters
        ([["a"]], {"b"}, "determined"),  # a list among the determined is not hashable
        ({"a"}, [["b"]], "determiners"),  # nor is a list among the determiners
        ({"a"}, None, "determiners"),  # not iterable
    ])
    def test_a_malformed_dependency_is_a_ci_error(self, determined, determiners, field):
        with pytest.raises(CIError, match=f"^{field} must be"):
            FunctionalDependency(determined, determiners)

    @pytest.mark.parametrize("symbol, components, field", [
        (["a"], {"b"}, "symbol"),
        ("a", [["b"]], "components"),
        ("a", None, "components"),
    ])
    def test_a_malformed_aggregate_is_a_ci_error(self, symbol, components, field):
        with pytest.raises(CIError, match=f"^{field} must be"):
            aggregate_dependencies(symbol, components)

    def test_aggregate_is_bidirectional(self):
        facts = aggregate_dependencies(ISTAR, {I11, "I_22"})
        assert facts == (
            FunctionalDependency(frozenset({ISTAR}), frozenset({I11, "I_22"})),
            FunctionalDependency(frozenset({I11, "I_22"}), frozenset({ISTAR})),
        )

    def test_determined_closure_chains(self):
        deps = (
            FunctionalDependency(frozenset({ISTAR}), frozenset({IPLUS})),
            FunctionalDependency(frozenset({I11}), frozenset({ISTAR})),
        )
        assert determined_closure({IPLUS}, deps) == frozenset({IPLUS, ISTAR, I11})


class TestClosure:
    def test_symmetry_only_fixed_point(self):
        # a single statement over atomic sides admits no further consequences
        base = [normalize({"A"}, {"B"}, {"C"})]
        result = closure(base)
        assert result.complete
        assert result.statements == frozenset(base)

    def test_decomposition_and_weak_union_reachable(self):
        base = [normalize({"A"}, {"B", "D"}, {"C"})]
        result = closure(base)
        assert result.complete
        assert normalize({"A"}, {"B"}, {"C"}) in result
        assert normalize({"A"}, {"D"}, {"C"}) in result
        assert normalize({"A"}, {"B"}, {"C", "D"}) in result

    def test_budget_exhaustion_flagged(self):
        base = [normalize({"A"}, {"B", "D", "E"}, {"C"})]
        result = closure(base, budget=2)
        assert not result.complete

    def test_universe_enforced(self):
        with pytest.raises(UniverseError):
            closure([normalize({"A"}, {"B"})], universe={"A"})


class TestDerive:
    def test_not_derivable_certificate(self):
        # no rule can drop a conditioning symbol without a licensing dependency
        base = [normalize({T1}, {T2}, {I0})]
        result = derive(base, goal=normalize({T1}, {T2}))
        assert result.status == "not_derivable"
        assert result.proof is None

    def test_contraction_chain_proof_replays(self):
        deps = (
            FunctionalDependency(frozenset({ISTAR}), frozenset({IPLUS})),
            FunctionalDependency(frozenset({I0}), frozenset({IPLUS})),
        )
        base = [
            normalize({T1}, {T2}, {I0}),
            normalize({T1}, {ISTAR}, {I0, T2}),
        ]
        goal = normalize({T1}, {T2}, {I0, ISTAR})
        result = derive(base, deps, goal)
        assert result.proved
        assert result.proof.goal == goal
        assert result.proof.replay(deps)

    def test_goal_in_base_is_proved(self):
        base = [normalize({T1}, {T2}, {I0})]
        result = derive(base, goal=base[0])
        assert result.proved
        assert result.proof.replay()

    def test_a_premise_is_its_own_proof(self):
        # the zero-step proof and the base's size that extracting the
        # premise from a fresh search gives, also from a memo whose search
        # has saturated, and with the base given twice over
        system = build_system(2)
        deps, universe = system.dependencies, system.universe
        base = base_statements(system)
        memo = Memo(deps, universe)
        absent = normalize({"theta_1"}, {"theta_2"})
        saturated = derive(base * 2, deps, absent, universe=universe, memo=memo)
        assert saturated.status == "not_derivable"
        for goal in base:
            expected = DeriveResult("proved", Proof((goal,), (), goal), len(base))
            assert derive(base, deps, goal, universe=universe) == expected
            assert derive(base * 2, deps, goal, universe=universe, memo=memo) == expected
            assert expected.proof.replay(deps)

    def test_a_premise_goal_still_checks_the_budget_and_the_universe(self):
        # the budget first, then the base in sorted order: the Z statement,
        # listed last, is the first out of the universe
        base = [normalize({T1}, {T2}, {I0}), normalize({"Z"}, {T2})]
        with pytest.raises(ValueError, match=r"^budget must be positive$"):
            derive(base, goal=base[0], budget=0, universe={T1, T2})
        with pytest.raises(UniverseError,
                           match=r"^base statement Z _\|\|_ theta_2 leaves the universe$"):
            derive(base, goal=base[0], universe={T1, T2})

    def test_a_search_files_its_base_when_it_is_made(self):
        # a premise goal makes the memo's search of its base, which runs
        # no step but files the base at once, in the sorted order that
        # base_statements lists it in; a later query runs that search and
        # answers as a fresh search
        system = build_system(2)
        deps, universe = system.dependencies, system.universe
        base = base_statements(system)
        memo = Memo(deps, universe)
        assert derive(base, deps, base[0], universe=universe, memo=memo).proved
        (search,) = memo.searches.values()
        filed = list(map(memo.encode, base))
        assert list(search.known.items()) == [(t, None) for t in filed]
        assert list(search.agenda) == filed and search.status is None
        assert sum(map(len, search.by_ctx.values())) == 2 * len(base)
        # the memo holds the search, so a search holding the memo would make a cycle
        assert not any(value is memo for value in vars(search).values())
        goal =system.goal_chains[1, "panel_independence"][-1]
        fresh = derive(base, deps, goal, universe=universe)
        assert derive(base, deps, goal, universe=universe, memo=memo) == fresh
        assert list(search.known)[:len(base)] == filed

    def test_the_first_stray_in_sort_key_order_is_named(self):
        # two statements leave the universe, listed in reverse sort_key
        # order; a search checks each statement as it files the base in
        # sort_key order, so it names the first stray in that order, under
        # any hash seed
        base = [normalize({T1}, {T2}, {I0}), normalize({"Y"}, {T2}), normalize({"X"}, {T2})]
        assert sorted(base, key=CIStatement.sort_key) == [base[2], base[1], base[0]]
        with pytest.raises(UniverseError,
                           match=r"^base statement X _\|\|_ theta_2 leaves the universe$"):
            derive(base, goal=base[0], universe={T1, T2, I0})

    def test_a_search_files_its_base_in_sort_key_order(self):
        # the base listed in reverse: the search files it sorted, as
        # the search's counts and proofs depend on
        system = build_system(2)
        deps, universe = system.dependencies, system.universe
        base = sorted(base_statements(system), key=CIStatement.sort_key, reverse=True)
        memo = Memo(deps, universe)
        goal = system.goal_chains[1, "panel_independence"][-1]
        assert derive(base, deps, goal, universe=universe, memo=memo).proved
        (search,) = memo.searches.values()
        assert list(search.known)[:len(base)] == [memo.encode(s) for s in reversed(base)]

    def test_derive_requires_goal(self):
        with pytest.raises(ValueError):
            derive([normalize({T1}, {T2})])

    @pytest.mark.parametrize("budget", [0, -1])
    def test_derive_requires_a_positive_budget(self, budget):
        s = normalize({T1}, {T2})
        with pytest.raises(ValueError, match="budget must be positive"):
            derive([s], goal=s, budget=budget)

    def test_replay_rejects_tampered_trace(self):
        base = [normalize({"A"}, {"B", "D"}, {"C"})]
        goal = normalize({"A"}, {"B"}, {"C"})
        proof = derive(base, goal=goal).proof
        bad = proof.__class__(proof.premises, proof.steps, normalize({"A"}, {"D"}, {"C"}))
        assert not bad.replay()

    def test_replay_rejects_each_tampering_of_a_real_proof(self):
        system = build_system(2)
        deps = system.dependencies
        autonomy = {i: system.goal_chains[i, "autonomous_updating"][-1] for i in (1, 2)}
        result = derive(base_statements(system), deps, autonomy[1], universe=system.universe)
        proof = result.proof
        assert proof.replay(deps)
        steps = list(proof.steps)
        # a step whose output is not what its rule gives
        k = len(steps) // 2
        s = steps[k]
        wrong = ProofStep(s.rule, s.inputs, s.selection, steps[k - 1].output)
        tampered = steps[:k] + [wrong] + steps[k + 1:]
        assert steps[k].output != steps[k - 1].output
        assert not Proof(proof.premises, tuple(tampered), proof.goal).replay(deps)
        # a selection the rule refuses
        k = next(i for i, s in enumerate(steps) if s.rule in ("decomposition", "weak_union"))
        outside = frozenset({"not_a_symbol"})
        s = steps[k]
        tampered = steps[:k] + [ProofStep(s.rule, s.inputs, outside, s.output)] + steps[k + 1:]
        assert not Proof(proof.premises, tuple(tampered), proof.goal).replay(deps)
        # a goal the last step does not reach
        assert not Proof(proof.premises, proof.steps, autonomy[2]).replay(deps)

    def test_replay_rejects_a_step_with_an_unknown_rule(self):
        premise = normalize({"A"}, {"B"})
        step = ProofStep("bogus", (premise,), EMPTY, premise)
        assert not Proof((premise,), (step,), premise).replay()

    def test_replay_rejects_a_step_naming_an_unavailable_statement(self):
        # each step is a valid rule application; only its inputs are not yet
        # available: a stray statement, the step's own output, a later output
        premise = normalize({"A"}, {"B", "D"}, {"C"})
        wider = normalize({"A"}, {"B"}, {"C", "D"})
        stray = normalize({"A"}, {"B", "E"}, {"C", "D"})
        from_premise = ProofStep("weak_union", (premise,), frozenset({"D"}), wider)
        assert Proof((premise,), (from_premise,), wider).replay()
        malformed = [
            (ProofStep("decomposition", (stray,), frozenset({"B"}), wider),),
            (ProofStep("symmetry", (wider,), EMPTY, wider),),
            (ProofStep("symmetry", (wider,), EMPTY, wider), from_premise),
        ]
        for steps in malformed:
            assert Proof((premise,), steps, wider).replay() is False

    def test_memo_answers_as_a_fresh_search(self):
        # dropping separately_informed at m=2 leaves goals outside a
        # 1,282-statement closure
        system = build_system(2)
        deps, universe = system.dependencies, system.universe
        kept = base_statements(
            system, [k for k in ALL_CONDITIONS if k is not ConditionKind.SEPARATELY_INFORMED]
        )
        absent = normalize({"theta_1"}, {"theta_2"}, {"I_+^0"})
        dropped = system.condition_statements[ConditionKind.SEPARATELY_INFORMED][0]
        present = normalize({"theta_1"}, {"theta_2"}, {"I_0^0"})
        memo = Memo(deps, universe)
        # a smaller budget is not answered from the complete closure; the
        # second absent goal at 500 is answered from the exhausted search
        queries = [(absent, 200_000), (absent, 500), (dropped, 500), (present, 200_000)] * 2
        for goal, budget in queries:
            fresh = derive(kept, deps, goal, budget, universe)
            assert derive(kept, deps, goal, budget, universe, memo=memo) == fresh
        assert [derive(kept, deps, g, b, universe).status for g, b in queries[:4]] == [
            "not_derivable", "budget_exhausted", "budget_exhausted", "proved",
        ]
        # a goal the search for a later one has already passed
        memo = Memo(deps, universe)
        proved = normalize({"I_*^0"}, {"I_11^0", "I_22^0"}, {"I_+^0", "theta_1"})
        late = derive(kept, deps, proved, universe=universe, memo=memo)
        early = late.proof.steps[len(late.proof.steps) // 2].output
        fresh = derive(kept, deps, early, universe=universe)
        assert fresh.generated < late.generated
        assert derive(kept, deps, early, universe=universe, memo=memo) == fresh
        # a smaller universe on the same memo
        lumped = _panel_lumping(system, 1).universe
        inside = [s for s in kept if s.symbols() <= lumped]
        for goal in (system.goal_chains[1, "autonomous_updating"][-1], absent):
            fresh = derive(inside, deps, goal, universe=lumped)
            assert derive(inside, deps, goal, universe=lumped, memo=memo) == fresh
        with pytest.raises(ValueError):
            derive(kept, (), absent, universe=universe, memo=memo)
        with pytest.raises(ValueError):
            derive(kept, deps, absent, universe=universe | {"extra"}, memo=memo)


class TestDeriveThrough:
    def test_waypoints_appear_in_order(self):
        base = [normalize({"A"}, {"B", "D"}, {"C"})]
        waypoints = (
            normalize({"A"}, {"B"}, {"C", "D"}),
            normalize({"A"}, {"B", "D"}, {"C"}),  # back to a premise: restated
        )
        result = derive_through(base, waypoints=waypoints)
        assert result.proved
        outputs = [step.output for step in result.proof.steps]
        first = outputs.index(waypoints[0])
        assert waypoints[1] in outputs[first + 1 :]
        assert result.proof.goal == waypoints[1]
        assert result.proof.replay()

    def test_requires_a_waypoint(self):
        with pytest.raises(ValueError, match="at least one waypoint"):
            derive_through([normalize({"A"}, {"B"})])

    def test_unreachable_waypoint_fails(self):
        base = [normalize({"A"}, {"B"}, {"C"})]
        result = derive_through(base, waypoints=(normalize({"A"}, {"B"}),))
        assert result.status == "not_derivable"


# -- property-based checks ----------------------------------------------

SYMS = ["s0", "s1", "s2", "s3", "s4"]


@st.composite
def statements(draw):
    pool = list(SYMS)
    n_a = draw(st.integers(1, 2))
    n_b = draw(st.integers(1, 2))
    n_c = draw(st.integers(0, len(pool) - n_a - n_b))
    picked = draw(st.permutations(pool))
    a = picked[:n_a]
    b = picked[n_a : n_a + n_b]
    c = picked[n_a + n_b : n_a + n_b + n_c]
    return normalize(a, b, c)


@given(statements())
def test_normalize_idempotent(s):
    assert normalize(s.a, s.b, s.c) == s


@given(statements())
def test_symmetry_involution(s):
    assert apply_axiom("symmetry", [apply_axiom("symmetry", [s])]) == s


@settings(deadline=None, max_examples=30)
@given(st.lists(statements(), min_size=1, max_size=3, unique=True))
def test_closure_contains_base_and_is_idempotent(base):
    first = closure(base, universe=SYMS)
    assert first.complete
    assert set(base) <= first.statements
    again = closure(first.statements, universe=SYMS)
    assert again.statements == first.statements


@settings(deadline=None, max_examples=20)
@given(st.lists(statements(), min_size=2, max_size=3, unique=True), st.randoms())
def test_closure_order_independent(base, rnd):
    shuffled = list(base)
    rnd.shuffle(shuffled)
    assert closure(base, universe=SYMS).statements == closure(shuffled, universe=SYMS).statements


# names whose string order differs from their number order
ORDERED = ["theta_1", "theta_10", "theta_2", "I_1_10^0", "I_0^0", "I_+^0"]
SWAPPED = 177  # of the 400 draws, those whose sides normalize swaps


def test_normalize_orients_as_the_memo_and_decode_inverts_encode():
    rng = random.Random(11)
    swapped = 0
    for _ in range(400):
        # dependency symbols outside the universe shift the memo's encoding
        extra = rng.sample(["A", "theta_3", "I_0_1^0"], rng.randint(0, 3))
        deps = [FunctionalDependency(frozenset({name}), frozenset({ORDERED[0]})) for name in extra]
        memo = Memo(deps, ORDERED)
        picked = rng.sample(ORDERED, rng.randint(2, len(ORDERED)))
        n_a = rng.randint(1, len(picked) - 1)
        n_b = rng.randint(1, len(picked) - n_a)
        a, b, c = picked[:n_a], picked[n_a : n_a + n_b], picked[n_a + n_b :]
        s = normalize(a, b, c)
        assert memo.encode(s) == _orient(*(_mask(memo._bit, side) for side in (a, b, c)))
        assert memo.decode(memo.encode(s)) == s
        swapped += s.a != frozenset(a)
    assert swapped == SWAPPED


# -- reference closure and pinned counters --------------------------------

# names whose sorted order differs from the order they are drawn in; "X" is
# never in the universe, so dependencies may chain through it
NAMES = ["theta_2", "I_0", "theta_1", "I_+", "A", "I_11"]


def _random_instance(rng):
    universe = rng.sample(NAMES, rng.randint(3, 5))
    base = set()
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample(universe, len(universe))
        n_a = rng.randint(1, len(picked) - 1)
        n_b = rng.randint(1, len(picked) - n_a)
        n_c = rng.randint(0, len(picked) - n_a - n_b)
        base.add(normalize(picked[:n_a], picked[n_a : n_a + n_b], picked[n_a + n_b : n_a + n_b + n_c]))
    deps = []
    for _ in range(rng.randint(0, 2)):
        picked = rng.sample(universe + ["X"], rng.randint(2, 4))
        n_determined = rng.randint(1, min(2, len(picked) - 1))
        deps.append(FunctionalDependency(frozenset(picked[:n_determined]), frozenset(picked[n_determined:])))
    return sorted(base, key=CIStatement.sort_key), deps, universe


def test_closure_matches_reference_on_random_instances():
    mismatched = []
    for seed in range(200):
        base, deps, universe = _random_instance(random.Random(seed))
        got = closure(base, deps, universe)
        if not got.complete or got.statements != reference_closure(base, deps, universe):
            mismatched.append(seed)
    assert mismatched == []


def test_set_valued_closures_match_their_single_symbol_expansion():
    rng = random.Random(3)
    names = NAMES + ["X"]
    for _ in range(300):
        deps = []
        for _ in range(rng.randint(1, 4)):
            picked = rng.sample(names, rng.randint(1, len(names)))
            k = rng.randint(1, len(picked))  # k == len(picked): constants
            deps.append(FunctionalDependency(frozenset(picked[:k]), frozenset(picked[k:])))
        expanded = single_symbol_expansion(deps)
        context = rng.sample(names, rng.randint(0, 3))
        want = determined_closure(context, expanded)
        assert determined_closure(context, deps) == want
        for facts in (deps, expanded):
            memo = Memo(facts, names)
            assert memo.names_of(memo.det(_mask(memo._bit, context))) == want


def test_dependency_chain_through_symbol_outside_universe():
    # C determines X and X determines D, so D may join the context although
    # X is not in the universe
    deps = (FunctionalDependency(frozenset({"X"}), frozenset({"C"})), FunctionalDependency(frozenset({"D"}), frozenset({"X"})))
    goal = normalize({"A"}, {"B"}, {"C", "D"})
    result = derive([normalize({"A"}, {"B"}, {"C"})], deps, goal, universe={"A", "B", "C", "D"})
    assert result.status == "proved"
    assert result.generated == 2
    assert result.proof.replay(deps)


def test_full_m2_closure_size_is_pinned():
    system = build_system(2)
    result = closure(base_statements(system), system.dependencies, system.universe)
    assert result.complete
    assert result.generated == len(result.statements) == 29_880

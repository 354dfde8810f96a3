"""Tests for panel-system construction, condition generation and the
mechanized coherence theorem (both proof modes, plus ablation)."""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from modcoherence import ci, protocol
from modcoherence.ci import derive, normalize
from modcoherence.dag import d_separated
from modcoherence.protocol import (
    ALL_CONDITIONS,
    AxiomaticMode,
    ConditionKind,
    ConditionStatus,
    GoalResult,
    GraphicalMode,
    IndexOutOfRange,
    InvalidPanelCount,
    UniverseMismatch,
    _panel_lumping,
    ablate,
    base_statements,
    build_system,
    canonical_dag,
    confounded_dag,
    verify_coherence,
)
from modcoherence.specfile import parse_spec

from .oracles import (
    full_path_goal_statuses,
    local_markov_basis,
    lumped_in_own_names,
    panel_lump_reference,
)


class TestBuildSystem:
    def test_m2_universe(self):
        sys = build_system(2)
        assert sys.universe == frozenset(
            {
                "theta_1",
                "theta_2",
                "I_0^0",
                "I_11^0",
                "I_12^0",
                "I_21^0",
                "I_22^0",
                "I_*^0",
                "I_+^0",
            }
        )
        assert len(sys.aggregates) == 2

    def test_evidence_names_unchanged_up_to_m9(self):
        assert build_system(9).evidence(9, 1) == "I_91^0"
        assert build_system(10).evidence(1, 10) == "I_1_10^0"

    def test_m11_axiomatic_symbols_do_not_collide(self):
        sys = build_system(11)
        assert len(sys.universe) == 11 * 11 + 11 + 3
        (_, own), (_, full) = sys.aggregates
        assert len(own) == 11 and len(full) == 11 * 11 + 1
        base = base_statements(sys)
        assert all(s.symbols() <= sys.universe for s in base)
        verdict = verify_coherence(sys, AxiomaticMode(base, budget=50))
        assert all(c.holds for c in verdict.conditions)

    def test_m11_canonical_dag(self):
        sys = build_system(11)
        dag = canonical_dag(sys)
        assert dag.node_names == sys.universe
        assert verify_coherence(sys, GraphicalMode(dag)).sound_and_distributed

    def test_invalid_panel_count(self):
        for m in (0, 1):
            with pytest.raises(InvalidPanelCount, match=">= 2"):
                build_system(m)

    @pytest.mark.parametrize("make", [build_system, protocol.PanelSystem],
                             ids=["build_system", "PanelSystem"])
    def test_a_system_is_checked_when_it_is_made(self, make):
        """A bad panel count is refused where the system is made, by either
        maker, not later by a verdict; a count that is not an int too."""
        with pytest.raises(InvalidPanelCount, match=r"^panel count must be >= 2, got 1$"):
            make(1)
        for m in (2.0, True, "3", None):
            with pytest.raises(InvalidPanelCount,
                               match=rf"^panel count must be an integer, got {m!r}$"):
                make(m)
        assert make(2) == build_system(2)

    def test_index_bounds(self):
        sys = build_system(2)
        with pytest.raises(IndexOutOfRange):
            sys.theta(3)

    def test_aggregate_dependency_facts(self):
        sys = build_system(2)
        deps = {(d.determined, d.determiners) for d in sys.dependencies}
        own = frozenset({"I_11^0", "I_22^0"})
        full = own | {"I_12^0", "I_21^0", "I_0^0"}
        assert deps == {
            (frozenset({"I_*^0"}), own),
            (own, frozenset({"I_*^0"})),
            (frozenset({"I_+^0"}), full),
            (full, frozenset({"I_+^0"})),
        }


    def test_two_facts_per_pool_at_every_panel_count(self):
        for m in range(2, 33):
            assert len(build_system(m).dependencies) == 4


class TestConditionStatements:
    def test_delegable_m2(self):
        sys = build_system(2)
        assert sys.condition_statements[ConditionKind.DELEGABLE] == (
            normalize({"I_+^0"}, {"theta_1", "theta_2"}, {"I_0^0", "I_*^0"}),
        )

    def test_cutting_m2_panel1(self):
        sys = build_system(2)
        assert sys.condition_statements[ConditionKind.CUTTING][0] == normalize(
            {"I_*^0"}, {"theta_1"}, {"I_0^0", "I_11^0", "theta_2"}
        )

    def test_separately_informed_m2_panel1(self):
        sys = build_system(2)
        assert sys.condition_statements[ConditionKind.SEPARATELY_INFORMED][0] == normalize(
            {"I_11^0"}, {"theta_2"}, {"I_0^0", "theta_1"}
        )

    def test_commonly_separated_m2(self):
        sys = build_system(2)
        stmts = sys.condition_statements[ConditionKind.COMMONLY_SEPARATED]
        assert stmts == (normalize({"theta_1"}, {"theta_2"}, {"I_0^0"}),)

    def test_every_condition_m2(self):
        """Each condition's statements, written out by hand, in canonical
        order and keyed in ``ALL_CONDITIONS`` order; the two panels' commonly
        separated statements are one statement."""
        sys = build_system(2)
        assert sys.condition_statements == {
            ConditionKind.DELEGABLE: (
                normalize({"I_+^0"}, {"theta_1", "theta_2"}, {"I_0^0", "I_*^0"}),
            ),
            ConditionKind.SEPARATELY_INFORMED: (
                normalize({"I_11^0"}, {"theta_2"}, {"I_0^0", "theta_1"}),
                normalize({"I_22^0"}, {"theta_1"}, {"I_0^0", "theta_2"}),
            ),
            ConditionKind.CUTTING: (
                normalize({"I_*^0"}, {"theta_1"}, {"I_0^0", "I_11^0", "theta_2"}),
                normalize({"I_*^0"}, {"theta_2"}, {"I_0^0", "I_22^0", "theta_1"}),
            ),
            ConditionKind.COMMONLY_SEPARATED: (
                normalize({"theta_1"}, {"theta_2"}, {"I_0^0"}),
            ),
        }
        assert list(sys.condition_statements) == list(ALL_CONDITIONS)

    def test_per_panel_conditions_m3(self):
        sys = build_system(3)
        stmts = sys.condition_statements
        assert len(stmts[ConditionKind.DELEGABLE]) == 1
        for kind in ALL_CONDITIONS[1:]:
            assert len(stmts[kind]) == 3
        assert normalize({"theta_3"}, {"theta_1", "theta_2"}, {"I_0^0"}) in stmts[
            ConditionKind.COMMONLY_SEPARATED
        ]


class TestGoalChains:
    def test_both_panels_chains_m2(self):
        """Every chain at m = 2 as literal statements: cut in, pool, goal for
        independence; cut in, shield, own evidence only, goal for autonomy."""
        sys = build_system(2)
        cut_in_1 = normalize({"theta_1"}, {"I_*^0", "theta_2"}, {"I_0^0", "I_11^0"})
        cut_in_2 = normalize({"theta_2"}, {"I_*^0", "theta_1"}, {"I_0^0", "I_22^0"})
        assert sys.goal_chains == {
            (1, "panel_independence"): (
                cut_in_1,
                normalize({"theta_1"}, {"theta_2"}, {"I_0^0", "I_*^0"}),
                normalize({"theta_1"}, {"theta_2"}, {"I_+^0"}),
            ),
            (1, "autonomous_updating"): (
                cut_in_1,
                normalize({"theta_1"}, {"I_+^0"}, {"I_0^0", "I_11^0", "I_*^0"}),
                normalize({"theta_1"}, {"I_*^0"}, {"I_0^0", "I_11^0"}),
                normalize({"theta_1"}, {"I_+^0"}, {"I_0^0", "I_11^0"}),
            ),
            (2, "panel_independence"): (
                cut_in_2,
                normalize({"theta_2"}, {"theta_1"}, {"I_0^0", "I_*^0"}),
                normalize({"theta_2"}, {"theta_1"}, {"I_+^0"}),
            ),
            (2, "autonomous_updating"): (
                cut_in_2,
                normalize({"theta_2"}, {"I_+^0"}, {"I_0^0", "I_22^0", "I_*^0"}),
                normalize({"theta_2"}, {"I_*^0"}, {"I_0^0", "I_22^0"}),
                normalize({"theta_2"}, {"I_+^0"}, {"I_0^0", "I_22^0"}),
            ),
        }
        # verdict order: panel by panel, independence before autonomy
        assert list(sys.goal_chains) == [
            (1, "panel_independence"), (1, "autonomous_updating"),
            (2, "panel_independence"), (2, "autonomous_updating"),
        ]

    def test_panel3_chains_m3(self):
        sys = build_system(3)
        theta_3, rest = {"theta_3"}, {"theta_1", "theta_2"}
        cut_in = normalize(theta_3, {"I_*^0", "theta_1", "theta_2"}, {"I_0^0", "I_33^0"})
        assert sys.goal_chains[3, "panel_independence"] == (
            cut_in,
            normalize(theta_3, rest, {"I_0^0", "I_*^0"}),
            normalize(theta_3, rest, {"I_+^0"}),
        )
        assert sys.goal_chains[3, "autonomous_updating"] == (
            cut_in,
            normalize(theta_3, {"I_+^0"}, {"I_0^0", "I_33^0", "I_*^0"}),
            normalize(theta_3, {"I_*^0"}, {"I_0^0", "I_33^0"}),
            normalize(theta_3, {"I_+^0"}, {"I_0^0", "I_33^0"}),
        )
        assert len(sys.goal_chains) == 6

    def test_each_goal_is_its_verdicts_goal(self):
        sys = build_system(3)
        verdict = verify_coherence(sys, GraphicalMode(canonical_dag(sys)))
        assert [(g.panel, g.name, g.goal) for g in verdict.goals] == [
            (*route, chain[-1]) for route, chain in sys.goal_chains.items()
        ]


class TestCheckConditions:
    def test_axiomatic_direct_membership(self):
        sys = build_system(2)
        statuses = verify_coherence(sys, AxiomaticMode(base_statements(sys))).conditions
        assert all(s.holds for s in statuses)
        assert {s.kind for s in statuses} == set(ALL_CONDITIONS)

    def test_graphical_canonical_dag_all_hold(self):
        sys = build_system(2)
        statuses = verify_coherence(sys, GraphicalMode(canonical_dag(sys))).conditions
        assert all(s.holds for s in statuses)

    def test_graphical_confounder_breaks_common_separation(self):
        sys = build_system(2)
        statuses = verify_coherence(sys, GraphicalMode(confounded_dag(sys))).conditions
        by_kind = {s.kind: s for s in statuses}
        assert not by_kind[ConditionKind.COMMONLY_SEPARATED].holds
        assert by_kind[ConditionKind.DELEGABLE].holds
        assert by_kind[ConditionKind.SEPARATELY_INFORMED].holds
        assert by_kind[ConditionKind.CUTTING].holds

    def test_universe_mismatch(self):
        sys = build_system(2)
        with pytest.raises(UniverseMismatch):
            verify_coherence(sys, AxiomaticMode((normalize({"theta_9"}, {"theta_1"}),)))

    def test_a_mode_of_neither_kind_is_refused(self):
        with pytest.raises(TypeError, match=r"^unsupported mode: 'graphical'$"):
            verify_coherence(build_system(2), "graphical")


class TestVerifyTheorem:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_axiomatic_all_conditions(self, m):
        sys = build_system(m)
        base = base_statements(sys)
        verdict = verify_coherence(sys, AxiomaticMode(base))
        assert verdict.sound_and_distributed
        assert len(verdict.goals) == 2 * m
        for goal in verdict.goals:
            assert goal.status == "proved"
            assert goal.proof.replay(sys.dependencies)
            assert set(goal.proof.premises) <= set(base)
            trace = goal.proof.statements()
            assert all(w in trace for w in sys.goal_chains[goal.panel, goal.name])

    def test_goal_statements(self):
        sys = build_system(2)
        assert sys.goal_chains[1, "panel_independence"][-1] == normalize(
            {"theta_1"}, {"theta_2"}, {"I_+^0"}
        )
        assert sys.goal_chains[1, "autonomous_updating"][-1] == normalize(
            {"theta_1"}, {"I_+^0"}, {"I_0^0", "I_11^0"}
        )

    def test_graphical_mode_canonical(self):
        sys = build_system(2)
        verdict = verify_coherence(sys, GraphicalMode(canonical_dag(sys)))
        assert verdict.sound_and_distributed
        assert all(g.status == "separated" for g in verdict.goals)

    def test_graphical_mode_confounded_fails(self):
        sys = build_system(2)
        verdict = verify_coherence(sys, GraphicalMode(confounded_dag(sys)))
        assert not verdict.sound_and_distributed

    def test_graphical_mode_m32(self):
        sys = build_system(32)
        assert verify_coherence(sys, GraphicalMode(canonical_dag(sys))).sound_and_distributed
        assert not verify_coherence(sys, GraphicalMode(confounded_dag(sys))).sound_and_distributed

    def test_missing_condition_blocks_goal(self):
        sys = build_system(2)
        kept = tuple(k for k in ALL_CONDITIONS if k is not ConditionKind.SEPARATELY_INFORMED)
        verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys, kept)))
        assert not verdict.sound_and_distributed
        failed = [g for g in verdict.goals if not g.established]
        assert failed and all(g.status == "not_derivable" for g in failed)

    def test_verdict_deterministic(self):
        sys = build_system(2)
        v1 = verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        v2 = verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        assert v1 == v2


class TestAblation:
    def test_each_drop_breaks_a_goal(self):
        rows = ablate(build_system(2))
        assert rows[0][0] is None and rows[0][1].sound_and_distributed
        dropped = [kind for kind, _ in rows[1:]]
        assert dropped == list(ALL_CONDITIONS)
        for kind, verdict in rows[1:]:
            assert not verdict.sound_and_distributed, f"dropping {kind} should break a goal"
            failed = [g for g in verdict.goals if not g.established]
            assert all(g.status == "not_derivable" for g in failed)
            assert not verdict.inconclusive

    def test_budget_exhausted_rows_are_inconclusive(self):
        rows = dict(ablate(build_system(2), budget=500))
        inconclusive = {kind for kind, verdict in rows.items() if verdict.inconclusive}
        assert inconclusive == {
            ConditionKind.SEPARATELY_INFORMED,
            ConditionKind.COMMONLY_SEPARATED,
        }
        for kind in inconclusive:
            assert {g.status for g in rows[kind].goals} == {"budget_exhausted"}


class TestModeAgreement:
    def test_markov_seed_supports_axiomatic_derivation(self):
        """When the graph certifies all conditions, its local Markov
        statements plus the determinism facts also prove both goals."""
        sys = build_system(2)
        dag = canonical_dag(sys)
        statuses = verify_coherence(sys, GraphicalMode(dag)).conditions
        assert all(s.holds for s in statuses)
        seed = tuple(local_markov_basis(dag))
        verdict = verify_coherence(sys, AxiomaticMode(seed))
        assert verdict.sound_and_distributed
        # the lumped route proves none of these goals, so their proofs come
        # from the full-system search
        for goal in verdict.goals:
            assert goal.proof.replay(sys.dependencies)
            assert set(goal.proof.premises) <= set(seed)
            for stmt in goal.proof.statements():
                assert d_separated(dag, stmt.a, stmt.b, stmt.c), stmt.render()

    def test_proof_statements_hold_on_canonical_dag(self):
        for m in (2, 3, 4):
            sys = build_system(m)
            dag = canonical_dag(sys)
            verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys)))
            for goal in verdict.goals:
                for stmt in goal.proof.statements():
                    assert d_separated(dag, stmt.a, stmt.b, stmt.c), stmt.render()


# -- the per-verdict memo -------------------------------------------------


def _reference_verdict(sys, mode, reuse=True):
    """verify_coherence's conditions and goals from memo-less derivations:
    a goal's lumped derivation in its panel's own names, the bare
    conditions' one where it holds unless ``reuse`` is false (see
    ``tests/oracles.lumped_in_own_names``), then the unconstrained full
    search."""
    deps, universe = sys.dependencies, sys.universe
    conditions = []
    for kind in ALL_CONDITIONS:
        stmts = sys.condition_statements[kind]
        witnesses, status = [], "holds"
        for stmt in stmts:
            result = derive(mode.base, deps, stmt, mode.budget, universe=universe)
            if not result.proved:
                exhausted = result.status == "budget_exhausted"
                status = "inconclusive" if exhausted else "not_established"
                break
            witnesses.append(result.proof)
        conditions.append(ConditionStatus(kind, stmts, status, tuple(witnesses)))
    goals = []
    for (i, name), chain in sys.goal_chains.items():
        result = lumped_in_own_names(sys, mode.base, i, name, mode.budget, reuse)
        if not result.proved:
            result = derive(mode.base, deps, chain[-1], mode.budget, universe=universe)
        goals.append(GoalResult(i, name, chain[-1], result.status, result.proof))
    return tuple(conditions), tuple(goals)


def _random_mode(rng, sys, budget):
    """Some of the conditions plus up to three random extra statements over
    the whole universe, then up to one over a random panel's lumped names
    (its theta and own evidence, ``I_0^0`` and the two pools), which enters
    that panel's slice alone, so that the slices of panels 2..m differ."""
    kept = [kind for kind in ALL_CONDITIONS if rng.random() < 0.75]
    symbols = sorted(sys.universe)
    base = set(base_statements(sys, kept))
    for _ in range(rng.randint(0, 3)):
        a, b, *c = rng.sample(symbols, rng.randint(2, 4))
        base.add(normalize({a}, {b}, c))
    for _ in range(rng.randint(0, 1)):
        i = rng.randint(1, sys.m)
        names = sorted({sys.theta(i), sys.evidence(i, i), sys.common,
                        sys.own_evidence_pool, sys.full_pool})
        a, b, *c = rng.sample(names, rng.randint(2, 4))
        base.add(normalize({a}, {b}, c))
    return AxiomaticMode(tuple(sorted(base, key=lambda s: s.sort_key())), budget)


def _panel_slice(sys, base, i):
    """``base`` sliced for panel i: each statement panel i's ``lump`` keeps,
    lumped."""
    lump = _panel_lumping(sys, i).lump
    return frozenset(t for s in base if (t := lump(s)) is not None)


def _swapping(sys, i, j):
    """A statement with panels i and j swapped in every name: a map of the
    system, dependencies included, onto itself."""
    panel = {i: j, j: i}
    names = {sys.theta(k): sys.theta(panel.get(k, k)) for k in range(1, sys.m + 1)}
    names.update({sys.evidence(k, n): sys.evidence(panel.get(k, k), panel.get(n, n))
                  for k in range(1, sys.m + 1) for n in range(1, sys.m + 1)})

    def swap(s):
        return normalize(*([names.get(name, name) for name in side] for side in (s.a, s.b, s.c)))

    return swap


@functools.cache
def _bare_lumped(sys):
    """Each route's reference ``lump`` (``tests/oracles.panel_lump_reference``),
    lumped waypoints and lumped derivation of the bare conditions' slice,
    memo-less, at the default budget: the derivation the system's scripted
    proof of the route equals, expanded."""
    out = {}
    for (i, name), chain in sys.goal_chains.items():
        lump = panel_lump_reference(sys, i)
        waypoints = tuple(map(lump, chain))
        sliced = frozenset(t for s in base_statements(sys) if (t := lump(s)) is not None)
        own = ci.derive_through(sliced, sys.dependencies, waypoints, ci.DEFAULT_BUDGET,
                                _panel_lumping(sys, i).universe)
        out[i, name] = lump, waypoints, own
    return out


def _lumped_rule(sys, base, budget):
    """Route -> (``base``'s slice, lumped waypoints, whether the route reads
    its scripted proof), by the rule written on lumped statements: a
    route reads it where its lumped derivation (see ``_bare_lumped``) is
    proved, made at most ``budget`` statements and has every lumped
    premise in ``base``'s slice."""
    out = {}
    for route, (lump, waypoints, own) in _bare_lumped(sys).items():
        sliced = frozenset(t for s in base if (t := lump(s)) is not None)
        reads = own.proved and own.generated <= budget and sliced.issuperset(own.proof.premises)
        out[route] = sliced, waypoints, reads
    return out


def _assert_matches_reference(sys, mode, verdict):
    conditions, goals = _reference_verdict(sys, mode)
    assert verdict.conditions == conditions
    assert verdict.goals == goals


class TestMemo:
    @pytest.mark.parametrize(
        "m, budget, instances, extras, lumped",
        [(2, 3_000, 12, 16, 10), (3, 2_000, 6, 10, 4), (4, 300, 8, 10, 4), (5, 300, 6, 9, 3),
         (8, 300, 12, 16, 5)],
    )
    def test_random_bases_match_memo_less_derivations(self, m, budget, instances, extras,
                                                       lumped):
        """The reference derives every panel's goals on their own, memo-less,
        in their own names, where an extra enters one panel's slice alone as
        where it enters none; at budget 300 some full-system searches run
        out.  Two fixed bases, whatever the draws,
        end the goals' searches without a proof: the commonly separated
        statements alone saturate (at m = 8 they outgrow 300 statements),
        and with one statement that makes I_12^0 independent of every other
        symbol but the pools they outgrow every budget here."""
        sys = build_system(m)
        conditions = set(base_statements(sys))
        statuses, drawn, sliced = set(), 0, 0
        for seed in range(instances):
            mode = _random_mode(random.Random(seed), sys, budget)
            verdict = verify_coherence(sys, mode)
            _assert_matches_reference(sys, mode, verdict)
            statuses.update(g.status for g in verdict.goals)
            added = [s for s in mode.base if s not in conditions]
            drawn += len(added)
            sliced += sum(any(_panel_slice(sys, (s,), i) for i in range(1, m + 1))
                          for s in added)
        # extras that lump into some panel's six names
        assert (drawn, sliced) == (extras, lumped)
        wide = normalize({"I_12^0"}, sys.universe - {"I_12^0", sys.own_evidence_pool,
                                                     sys.full_pool})
        separated = [ConditionKind.COMMONLY_SEPARATED]
        saturating = "not_derivable" if m < 8 else "budget_exhausted"
        for extra, end in (((), saturating), ((wide,), "budget_exhausted")):
            mode = AxiomaticMode(base_statements(sys, separated, extra), budget)
            verdict = verify_coherence(sys, mode)
            _assert_matches_reference(sys, mode, verdict)
            statuses.update(g.status for g in verdict.goals)
            assert {g.status for g in verdict.goals} == {end}
        # the instances reach every way a search ends, but at m = 8 no
        # full-system search of 75 symbols saturates within 300 statements
        ends = {"proved", "budget_exhausted"} | ({"not_derivable"} if m < 8 else set())
        assert ends <= statuses

    def test_ablation_rows_match_memo_less_derivations(self):
        sys = build_system(2)
        for dropped, verdict in ablate(sys):
            kept = tuple(k for k in ALL_CONDITIONS if k is not dropped)
            _assert_matches_reference(sys, AxiomaticMode(base_statements(sys, kept)), verdict)

    @staticmethod
    def _record_full_system(monkeypatch, sys):
        """Lists that fill with the results of the full-system ``derive``
        queries and with each full-system search as it is created.  The
        lumped derivations search smaller universes and are not recorded."""
        results, searches = [], []
        original_derive, original_init = ci.derive, ci._Saturation.__init__

        def recorded_derive(base, deps, goal, budget, universe, **kwargs):
            result = original_derive(base, deps, goal, budget, universe, **kwargs)
            if universe == sys.universe:
                results.append(result)
            return result

        def recorded_init(search, base, memo, universe, budget):
            original_init(search, base, memo, universe, budget)
            if universe == sys.universe:
                searches.append(search)

        # the bindings protocol and derive_through look derive up through
        monkeypatch.setattr(ci, "derive", recorded_derive)
        monkeypatch.setattr(protocol, "derive", recorded_derive)
        monkeypatch.setattr(ci._Saturation, "__init__", recorded_init)
        return results, searches

    @pytest.mark.parametrize(
        "dropped, generated",
        [(ConditionKind.SEPARATELY_INFORMED, 1_282), (ConditionKind.COMMONLY_SEPARATED, 1_283)],
    )
    def test_not_derivable_counters_are_pinned(self, monkeypatch, dropped, generated):
        """Each of the row's five not_derivable queries in the full system
        (the dropped condition's first statement and the four goals) reports
        the size of its base's closure, and one search saturates it."""
        sys = build_system(2)
        results, searches = self._record_full_system(monkeypatch, sys)
        kept = tuple(k for k in ALL_CONDITIONS if k is not dropped)
        verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys, kept)))
        assert not verdict.sound_and_distributed
        missed = [r.generated for r in results if r.status == "not_derivable"]
        assert missed == [generated] * 5
        assert [s.status for s in searches] == ["not_derivable"]

    @pytest.mark.parametrize(
        "dropped", [ConditionKind.SEPARATELY_INFORMED, ConditionKind.COMMONLY_SEPARATED]
    )
    def test_budget_exhausted_counters_are_pinned(self, monkeypatch, dropped):
        """At budget 500 each of the row's budget_exhausted queries in the
        full system reports 500 statements, all answered by one search."""
        sys = build_system(2)
        results, searches = self._record_full_system(monkeypatch, sys)
        kept = tuple(k for k in ALL_CONDITIONS if k is not dropped)
        verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys, kept), 500))
        assert verdict.inconclusive
        exhausted = [r.generated for r in results if r.status == "budget_exhausted"]
        assert exhausted == [500] * 5
        assert [s.status for s in searches] == ["budget_exhausted"]

    def test_markov_seed_verdict_searches_the_full_system_once(self, monkeypatch):
        """The m = 2 Markov seed's condition statements and goals are all
        proved by the full system, each query resuming the one search."""
        sys = build_system(2)
        mode = AxiomaticMode(tuple(local_markov_basis(canonical_dag(sys))))
        _, searches = self._record_full_system(monkeypatch, sys)
        verdict = verify_coherence(sys, mode)
        assert len(searches) == 1
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, verdict)
        assert verdict.sound_and_distributed


class TestVerdictPremises:
    """An axiomatic verdict answers a statement of its base itself, as
    ``ci.derive`` answers a premise, and builds its memo only for a query
    that derives."""

    @staticmethod
    def _record_memos(monkeypatch):
        """A list that fills with each memo ``protocol`` builds."""
        memos, memo = [], protocol.Memo
        monkeypatch.setattr(protocol, "Memo", lambda *args: memos.append(memo(*args)) or memos[-1])
        return memos

    @staticmethod
    def _record_answers(monkeypatch):
        """A dict that fills with each ``(statement, route)`` a verdict
        decides and the ``(status, proof)`` it gives."""
        answers, decider = {}, protocol._decider

        def recording(sys, mode):
            decide = decider(sys, mode)

            def recorded(stmt, route=None):
                answers[stmt, route] = decide(stmt, route)
                return answers[stmt, route]
            return recorded

        monkeypatch.setattr(protocol, "_decider", recording)
        return answers

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a_verdict_whose_base_holds_every_condition_builds_no_memo(self, monkeypatch, m):
        """The bare conditions, and the conditions with extras that only add
        to the base, are all premises and every goal reads the system's own
        proof: no memo is built, and each condition statement is its own
        zero-step proof."""
        sys = build_system(m)
        assert len(sys.goal_proofs) == 2 * m  # made once per system, with its own memo
        conditions = base_statements(sys)
        extras = (normalize({"I_12^0"}, {"theta_1"}, {"I_0^0"}),
                  normalize({"theta_1"}, {"theta_2"}))
        memos = self._record_memos(monkeypatch)
        for base in (conditions, extras + conditions):
            verdict = verify_coherence(sys, AxiomaticMode(base))
            assert memos == []
            assert verdict.sound_and_distributed
            for status in verdict.conditions:
                assert status.witnesses == tuple(ci.Proof((s,), (), s) for s in status.statements)

    def test_a_base_without_a_condition_statement_builds_one_memo(self, monkeypatch):
        """Without one condition's first statement a verdict builds one
        memo, shared by that statement's search and any goal's lumped
        derivation or search, and the statement's status and proof are
        ``ci.derive``'s.  At budget 2,000 the eight bases at m = 2 and 3
        end that statement's search in each way a search ends."""
        memos = self._record_memos(monkeypatch)
        answers = self._record_answers(monkeypatch)
        statuses = set()
        for m in (2, 3):
            sys = build_system(m)
            assert len(sys.goal_proofs) == 2 * m  # made once per system, with its own memo
            for kind in ALL_CONDITIONS:
                dropped = sys.condition_statements[kind][0]
                base = tuple(s for s in base_statements(sys) if s != dropped)
                memos.clear()
                verify_coherence(sys, AxiomaticMode(base, 2_000))
                assert len(memos) == 1
                expected = derive(base, sys.dependencies, dropped, 2_000, sys.universe)
                assert answers[dropped, None] == (expected.status, expected.proof)
                statuses.add(expected.status)
        assert statuses == {"proved", "not_derivable", "budget_exhausted"}

    @pytest.mark.parametrize("m, budget, instances", [(2, 3_000, 12), (3, 2_000, 6), (4, 300, 8)])
    def test_verdicts_match_a_decider_that_derives_every_condition(self, monkeypatch, m,
                                                                    budget, instances):
        """On ``TestMemo``'s seeded bases, a verdict equals the one a decider
        gives that sends every condition statement through ``ci.derive``,
        memo-less, and every goal through the verdict's own decider."""
        sys = build_system(m)
        decider = protocol._decider

        def reference(sys, mode):
            decide = decider(sys, mode)

            def decided(stmt, route=None):
                if route is not None:
                    return decide(stmt, route)
                result = derive(mode.base, sys.dependencies, stmt, mode.budget, sys.universe)
                return result.status, result.proof
            return decided

        for seed in range(instances):
            mode = _random_mode(random.Random(seed), sys, budget)
            verdict = verify_coherence(sys, mode)
            monkeypatch.setattr(protocol, "_decider", reference)
            assert verify_coherence(sys, mode) == verdict
            monkeypatch.undo()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_budget_below_one_is_refused_before_any_statement(self, budget):
        """The budget is refused when the decider is made, before any
        statement is decided; a statement outside the universe is refused
        first."""
        sys = build_system(2)
        stray = normalize({"theta_9"}, {"theta_1"})
        for make in (protocol._decider, verify_coherence):
            with pytest.raises(ValueError, match=r"^budget must be positive$"):
                make(sys, AxiomaticMode(base_statements(sys), budget))
            with pytest.raises(UniverseMismatch, match=r"^base statement theta_1 _\|\|_ "
                                                       r"theta_9 leaves the system universe$"):
                make(sys, AxiomaticMode(base_statements(sys, statements=(stray,)), budget))


class TestLumpedRoute:
    @staticmethod
    def _record_lumped(monkeypatch):
        """A list that fills with the result of each lumped derivation,
        recorded at ``protocol.derive_through``, the binding it is made
        through."""
        results = []
        original = protocol.derive_through

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(protocol, "derive_through", recorded)
        return results

    @staticmethod
    def _record_lumped_calls(monkeypatch):
        """A list that fills with the slice, lumped waypoints and budget of
        each lumped derivation made at ``protocol.derive_through``."""
        calls = []
        original = protocol.derive_through

        def recorded(sliced, deps, waypoints, budget, *args, **kwargs):
            calls.append((sliced, waypoints, budget))
            return original(sliced, deps, waypoints, budget, *args, **kwargs)

        monkeypatch.setattr(protocol, "derive_through", recorded)
        return calls

    @staticmethod
    def _verdict_derivations(sys, base, budget):
        """The slice, lumped waypoints and budget of each derivation a
        verdict on ``base`` at ``budget`` makes, in route order: one for
        each goal that does not read its scripted proof (see
        ``_lumped_rule``)."""
        return [(sliced, waypoints, budget)
                for sliced, waypoints, reads in _lumped_rule(sys, base, budget).values()
                if not reads]

    @staticmethod
    def _record_sliced(monkeypatch):
        """A list that fills with the panel of each lumping made at
        ``protocol._panel_lumping``, which a verdict makes for each goal it
        derives."""
        panels = []
        original = protocol._panel_lumping
        monkeypatch.setattr(protocol, "_panel_lumping",
                            lambda s, i: panels.append(i) or original(s, i))
        return panels

    @staticmethod
    def _record_replayed(monkeypatch):
        """A list that fills with each proof ``ci.Proof.replay`` checks,
        the one checker a scripted or expanded proof passes."""
        replayed = []
        original = ci.Proof.replay

        def recorded(proof, deps=()):
            replayed.append(proof)
            return original(proof, deps)

        monkeypatch.setattr(ci.Proof, "replay", recorded)
        return replayed

    @pytest.mark.parametrize("m, steps", [(3, 54), (32, 576)])
    def test_a_fresh_bare_verdict_replays_each_goal_proof_once(self, monkeypatch, m, steps):
        """A bare verdict on a fresh system, its build included, replays
        each of its 2m scripted goal proofs once in the full system."""
        sys = build_system(m)
        replayed = self._record_replayed(monkeypatch)
        verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        proofs = [goal.proof for goal in verdict.goals]
        assert [sum(p is q for p in replayed) for q in proofs] == [1] * (2 * m)
        assert sum(len(proof.steps) for proof in proofs) == steps

    @pytest.mark.parametrize("m", range(2, 9))
    def test_a_bare_verdict_makes_no_lumped_derivation(self, monkeypatch, m):
        """Every goal of a bare verdict on a fresh system reads its scripted
        proof, so the verdict derives nothing."""
        sys = build_system(m)
        mode = AxiomaticMode(base_statements(sys))
        results = self._record_lumped(monkeypatch)
        verdict = verify_coherence(sys, mode)
        assert results == []
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, verdict)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a_verdict_lumps_the_base_for_each_goal_it_derives(self, monkeypatch, m):
        """A verdict whose base holds the premises of every scripted proof,
        the system's first included, makes no lumping and slices nothing.
        Without the delegable statement, a premise of each, every goal
        derives from a lumping and slice of the base in its panel's names,
        made by the verdict and kept by nothing after it: a second verdict
        makes them again, and the system gains no attribute."""
        sys = build_system(m)
        bare = AxiomaticMode(base_statements(sys))
        panels = self._record_sliced(monkeypatch)
        verify_coherence(sys, bare)
        kept = dict(vars(sys))
        verify_coherence(sys, bare)
        assert panels == []
        mode = AxiomaticMode(base_statements(sys, ALL_CONDITIONS[1:]), 300)
        for _ in range(2):
            verdict = verify_coherence(sys, mode)
        assert panels == [i for i, _ in sys.goal_chains] * 2
        assert vars(sys).keys() == kept.keys()
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, verdict)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a_verdict_holding_the_stored_premises_builds_no_lumping(self, monkeypatch, m):
        """A verdict whose base holds the premises of every scripted goal
        proof, at a budget at or above each proof's count, reads them all
        and builds no lumping, whatever else its base holds.  Storing the
        proofs builds none either."""
        sys = build_system(m)
        built = self._record_sliced(monkeypatch)
        stored = sys.goal_proofs
        assert built == []
        conditions = set(base_statements(sys))
        least = max(result.generated for result in stored.values())
        for seed, budget in enumerate((least, least, ci.DEFAULT_BUDGET)):
            base = conditions.union(_random_mode(random.Random(seed), sys, budget).base)
            mode = AxiomaticMode(tuple(sorted(base, key=ci.CIStatement.sort_key)), budget)
            verdict = verify_coherence(sys, mode)
            assert [g.proof for g in verdict.goals] == [r.proof for r in stored.values()]
        assert built == []

    @pytest.mark.parametrize(
        "m, budget, instances",
        [(2, 3_000, 12), (3, 2_000, 6), (4, 300, 8), (5, 300, 6), (8, 300, 12)],
    )
    def test_lump_matches_the_reference_lump(self, m, budget, instances):
        """``lump``, which refuses a statement out of panel i's reach with a
        subset test per side, gives what ``tests/oracles.panel_lump_reference``
        gives, both in panel i's own names, on every statement of
        ``TestMemo``'s random bases and every goal waypoint, for every
        panel: some lumped, some refused."""
        sys = build_system(m)
        statements = {w for chain in sys.goal_chains.values() for w in chain}
        for seed in range(instances):
            statements.update(_random_mode(random.Random(seed), sys, budget).base)
        statements = sorted(statements, key=ci.CIStatement.sort_key)
        outcomes = set()
        for i in range(1, m + 1):
            lump, reference = _panel_lumping(sys, i).lump, panel_lump_reference(sys, i)
            lumped = [lump(s) for s in statements]
            assert lumped == [reference(s) for s in statements]
            outcomes.update(t is None for t in lumped)
        assert outcomes == {True, False}

    def test_an_extra_in_one_panels_slice_reads_the_scripted_proofs(self, monkeypatch):
        """An extra over panel 3's lumped universe alone enlarges its slice,
        which still holds the premises of its scripted proofs: a fresh
        system's verdict makes no lumped derivation, and every goal shows
        its scripted proof, without the extra."""
        sys = build_system(3)
        extra = normalize({"I_33^0"}, {"I_*^0"}, {"I_0^0"})
        assert _panel_slice(sys, (extra,), 3) and not _panel_slice(sys, (extra,), 2)
        mode = AxiomaticMode(base_statements(sys) + (extra,))
        results = self._record_lumped(monkeypatch)
        verdict = verify_coherence(sys, mode)
        assert results == []
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, verdict)
        assert [g.proof for g in verdict.goals] == [r.proof for r in sys.goal_proofs.values()]
        assert not any(extra in g.proof.premises for g in verdict.goals)

    @pytest.mark.parametrize("extra, searched_steps", [
        (({"I_33^0"}, {"I_*^0"}, {"I_0^0"}), 8),
        (({"I_+^0"}, {"theta_1"}, {"I_0^0", "I_11^0", "I_*^0"}), 7),
    ])
    def test_extras_in_a_slice_show_the_conditions_proofs(self, extra, searched_steps):
        """Extras that enter a slice only add premises, so every goal shows
        its proof from the conditions: panel 1's autonomy proof keeps its 8
        steps, where a search of the slice with the second extra finds one
        of 7."""
        sys = build_system(3)
        bare = verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        base = base_statements(sys) + (normalize(*extra),)
        assert any(_panel_slice(sys, base[-1:], i) for i in range(1, 4))
        verdict = verify_coherence(sys, AxiomaticMode(base))
        assert verdict.goals == bare.goals
        assert [len(g.proof.steps) for g in verdict.goals] == [10, 8] * 3
        searched = lumped_in_own_names(sys, base, 1, "autonomous_updating", ci.DEFAULT_BUDGET,
                                       reuse=False)
        assert len(searched.proof.steps) == searched_steps

    @pytest.mark.parametrize("m, budget", [(2, ci.DEFAULT_BUDGET), (3, 300)])
    def test_a_row_without_a_condition_an_own_proof_uses_derives(self, monkeypatch, m, budget):
        """Each ablation row drops a condition that some scripted proof
        uses, so those goals derive their slice at the row's budget; the
        control row derives nothing, and every row's statuses are pinned."""
        sys = build_system(m)
        calls = self._record_lumped_calls(monkeypatch)
        wanted = []
        for kept in [ALL_CONDITIONS] + [[k for k in ALL_CONDITIONS if k is not dropped]
                                        for dropped in ALL_CONDITIONS]:
            derivations = self._verdict_derivations(sys, base_statements(sys, kept), budget)
            assert bool(derivations) == (len(kept) < len(ALL_CONDITIONS))
            wanted += derivations
        rows = ablate(sys, budget)
        assert calls == wanted
        end = "not_derivable" if m == 2 else "budget_exhausted"
        assert [[g.status for g in verdict.goals] for _, verdict in rows] == (
            [["proved"] * 2 * m] + [[end] * 2 * m] * 4)

    def test_below_an_own_proofs_count_a_goal_derives_at_the_budget(self, monkeypatch):
        """On the I_33^0 base, at budgets 1 to 130, which cross the count of
        every scripted proof, a goal reads its scripted proof where the
        count is within the budget and, where it exceeds it, derives its
        slice at the budget; the verdicts equal the reference's."""
        sys = build_system(3)
        extra = normalize({"I_33^0"}, {"I_*^0"}, {"I_0^0"})
        base = base_statements(sys) + (extra,)
        counts = [sys.goal_proofs[route].generated for route in sys.goal_chains if route[0] <= 2]
        assert counts == [101, 70, 102, 67]
        calls = self._record_lumped_calls(monkeypatch)
        made = []
        for budget in range(1, 131):
            mode = AxiomaticMode(base, budget)
            del calls[:]
            verdict = verify_coherence(sys, mode)
            assert calls == self._verdict_derivations(sys, base, budget)
            made.append(len(calls))
            # the reference derives through ci's binding, which is not recorded
            _assert_matches_reference(sys, mode, verdict)
        # each route that does not read its scripted proof derives on its own
        assert made == [6] * 66 + [4] * 3 + [3] * 31 + [2] + [0] * 29

    @pytest.mark.parametrize(
        "m, budget, instances",
        [(2, 3_000, 12), (3, 2_000, 6), (4, 300, 8), (5, 300, 6), (8, 300, 12)],
    )
    def test_statuses_move_only_from_budget_exhausted_to_proved(self, m, budget, instances):
        """On ``TestMemo``'s seeded bases a goal's status equals the one a
        search of its slice gives (the reference without reuse), or is
        ``proved`` where that one is ``budget_exhausted``: a scripted proof
        read in an enlarged slice can only stand in for a search that ran out."""
        sys = build_system(m)
        for seed in range(instances):
            mode = _random_mode(random.Random(seed), sys, budget)
            verdict = verify_coherence(sys, mode)
            _, searched = _reference_verdict(sys, mode, reuse=False)
            for goal, old in zip(verdict.goals, searched, strict=True):
                assert goal.status == old.status or (
                    (old.status, goal.status) == ("budget_exhausted", "proved"))

    @pytest.mark.parametrize(
        "m, budget, instances",
        [(2, 3_000, 12), (2, 300, 12), (3, 2_000, 8), (3, 300, 8), (4, 2_000, 4), (4, 300, 4)],
    )
    def test_statuses_against_the_full_path(self, m, budget, instances):
        """Trying the lumped derivation first can only turn an exhausted
        budget into a proof."""
        sys = build_system(m)
        for seed in range(instances):
            mode = _random_mode(random.Random(seed), sys, budget)
            verdict = verify_coherence(sys, mode)
            full = full_path_goal_statuses(sys, mode)
            for goal, old in zip(verdict.goals, full, strict=True):
                assert goal.status == old or (old, goal.status) == ("budget_exhausted", "proved")

    def test_statements_splitting_the_other_blocks_are_not_premises(self):
        """An extra statement that mentions part of theta_rest(i) cannot be
        lumped, so it stays out of every goal proof, which still succeeds."""
        sys = build_system(3)
        split = normalize({"theta_1"}, {"theta_2"}, {"I_0^0"})
        verdict = verify_coherence(sys, AxiomaticMode(base_statements(sys) + (split,)))
        for goal in verdict.goals:
            assert goal.status == "proved"
            assert goal.proof.replay(sys.dependencies)
            assert split not in goal.proof.premises

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a_second_bare_verdict_makes_no_lumped_derivation(self, monkeypatch, m):
        """The system keeps its goal proofs, so a second verdict on it reads
        all of them and equals the first: neither makes a lumped
        derivation, the second replays no proof and takes no slice, and
        since every condition statement is a premise, it makes no search
        and files no statement in any index."""
        sys = build_system(m)
        mode = AxiomaticMode(base_statements(sys))
        results = self._record_lumped(monkeypatch)
        first = verify_coherence(sys, mode)
        assert results == []
        replayed = self._record_replayed(monkeypatch)
        panels = self._record_sliced(monkeypatch)
        indexed = []
        index = ci._index
        monkeypatch.setattr(ci, "_index", lambda *args: indexed.append(args[-1]) or index(*args))
        second = verify_coherence(sys, mode)
        assert (results, replayed, panels, indexed) == ([], [], [], [])
        assert second == first
        assert [g.proof for g in second.goals] == [r.proof for r in sys.goal_proofs.values()]

    def test_a_stored_proof_with_a_premise_outside_the_base_is_not_read(self, monkeypatch):
        """Panel 1's stored independence proof, with a premise swapped for
        a statement outside the base, is not read: that goal alone derives
        its slice, every other goal reads its stored proof, and the verdict
        equals the reference's, which shows the proof as it was stored."""
        sys = build_system(3)
        route = (1, "panel_independence")
        stored = sys.goal_proofs[route]
        extra = normalize({"I_11^0"}, {"I_0^0"})
        swapped = ci.Proof((extra, *stored.proof.premises[1:]), stored.proof.steps,
                           stored.proof.goal)
        sys.goal_proofs[route] = ci.DeriveResult(stored.status, swapped, stored.generated)
        routes = []
        derive_lumped = protocol._derive_lumped
        monkeypatch.setattr(protocol, "_derive_lumped",
                            lambda s, base, r, *args: routes.append(r) or derive_lumped(
                                s, base, r, *args))
        mode = AxiomaticMode(base_statements(sys))
        verdict = verify_coherence(sys, mode)
        assert routes == [route]
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, verdict)
        assert verdict.goals[0].proof == stored.proof

    @pytest.mark.parametrize("m, budget", [(2, 300), (3, 80), (4, 300)])
    def test_the_routes_that_read_a_stored_proof_follow_the_lumped_rule(self, m, budget):
        """On every row of ``ablate``, over all conditions and over
        restricted ones, a goal shows its stored proof exactly where the
        rule written on lumped statements (``_lumped_rule``) reads it; at
        m = 3 the budget lies between the stored counts (see
        ``test_below_an_own_proofs_count_a_goal_derives_at_the_budget``)."""
        sys = build_system(m)
        stored = sys.goal_proofs
        kinds = ConditionKind
        restricted = [ALL_CONDITIONS, ALL_CONDITIONS[1:], (kinds.CUTTING, kinds.DELEGABLE),
                      (kinds.COMMONLY_SEPARATED, kinds.SEPARATELY_INFORMED, kinds.CUTTING)]
        outcomes = set()
        for conditions in restricted:
            for dropped, verdict in ablate(sys, budget, conditions):
                base = base_statements(sys, [k for k in conditions if k is not dropped])
                reads = [route for route, (_, _, read) in _lumped_rule(sys, base, budget).items()
                         if read]
                shown = [route for route, goal in zip(sys.goal_chains, verdict.goals)
                         if goal.proof is stored[route].proof]
                assert shown == reads
                outcomes.update(route in reads for route in sys.goal_chains)
        assert outcomes == {True, False}

    def test_another_budget_or_system_makes_its_own_derivations(self, monkeypatch):
        """A bare verdict on any system derives nothing.  Another budget
        reads the scripted proofs while it is at or above their counts, and
        below one derives that route, in each verdict that needs it."""
        results = self._record_lumped(monkeypatch)

        def made(sys, budget=ci.DEFAULT_BUDGET) -> int:
            before = len(results)
            verify_coherence(sys, AxiomaticMode(base_statements(sys), budget))
            return len(results) - before

        sys = build_system(3)
        assert made(sys) == 0
        counts = sorted(r.generated for r in sys.goal_proofs.values())
        assert [made(sys, budget) for budget in (counts[-1], 5_000)] == [0, 0]
        # below the largest count panels 2 and 3's independence goals derive,
        # one each; below the smallest all six goals do
        assert [made(sys, counts[-1] - 1), made(sys, counts[0] - 1), made(sys, counts[0] - 1)] == [
            2, 6, 6,
        ]
        assert made(build_system(3)) == 0

    def test_the_system_keeps_only_its_own_conditions_derivations(self, monkeypatch):
        """A base without panel 3's cutting statement leaves out a premise
        of panel 3's scripted proofs, so that panel derives both its goals;
        the two derivations stay with their verdict, so the same verdict
        again makes them again, and only those."""
        sys = build_system(3)
        cut = normalize({sys.own_evidence_pool}, {sys.theta(3)},
                        {sys.common, sys.evidence(3, 3)} | sys.theta_rest(3))
        assert cut in sys.condition_statements[ConditionKind.CUTTING]
        mode = AxiomaticMode(tuple(s for s in base_statements(sys) if s != cut), 300)
        results = self._record_lumped(monkeypatch)
        first = verify_coherence(sys, mode)
        assert len(results) == 2 and len(sys.goal_proofs) == 6
        second = verify_coherence(sys, mode)
        assert len(results) == 4 and len(sys.goal_proofs) == 6
        assert second == first
        monkeypatch.undo()
        _assert_matches_reference(sys, mode, second)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_the_system_holds_four_own_proofs(self, m):
        """Panel 1's two goals and panel 2's, all proved, which panels
        3..m's proofs are with panels 2 and i swapped in every name: the 2m
        stored proofs are four.  No later verdict, at any budget or base,
        changes them or adds an attribute to the system."""
        sys = build_system(m)
        stored = sys.goal_proofs
        assert [result.status for result in stored.values()] == ["proved"] * 2 * m
        swapped = {tuple(map(_swapping(sys, min(i, 2), i), result.proof.statements()))
                   for (i, _), result in stored.items()}
        assert len(swapped) == 4
        copied, kept = dict(stored), set(vars(sys))
        for seed, budget in enumerate((1, 66, 101, 300)):
            verify_coherence(sys, AxiomaticMode(base_statements(sys), budget))
            verify_coherence(sys, _random_mode(random.Random(seed), sys, budget))
        verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        assert sys.goal_proofs is stored and stored == copied
        assert vars(sys).keys() == kept

    @pytest.mark.parametrize("m", [2, 3, 32])
    def test_stored_proofs_are_built_from_the_bases_and_chains_statements(self, m):
        """After a fresh bare verdict, each stored goal proof's premises are
        statements of ``base_statements(sys)`` themselves, and each
        statement of its goal chain, the goal and last step output among
        them, is the chain's own: only the other step outputs are bound
        from the script."""
        sys = build_system(m)
        base = base_statements(sys)
        verdict = verify_coherence(sys, AxiomaticMode(base))
        own = {id(s) for s in base}
        for goal, (route, result) in zip(verdict.goals, sys.goal_proofs.items()):
            proof, chain = result.proof, sys.goal_chains[route]
            assert goal.proof is proof
            assert proof.premises and all(id(s) in own for s in proof.premises)
            assert proof.goal is chain[-1] and proof.steps[-1].output is chain[-1]
            assert {id(w) for w in chain} <= {id(step.output) for step in proof.steps}

    @pytest.mark.parametrize("m", [2, 3])
    def test_reused_proofs_match_fresh_derivations_at_every_budget(self, m):
        """A system that has made a default-budget verdict reuses its
        scripted proofs only where the budget is at or above their counts:
        its bare verdicts at budgets 1 to 130, which cross every count, and
        at 1,351, equal a fresh system's and the
        reference's, whose lumped derivations are made at that budget."""
        sys = build_system(m)
        verify_coherence(sys, AxiomaticMode(base_statements(sys)))
        for budget in (*range(1, 131), 1_351):
            mode = AxiomaticMode(base_statements(sys), budget)
            verdict = verify_coherence(sys, mode)
            assert verdict == verify_coherence(build_system(m), mode)
            _assert_matches_reference(sys, mode, verdict)

    @pytest.mark.parametrize("m, budget, instances", [(2, 3_000, 12), (3, 2_000, 8)])
    def test_a_verdicts_derivations_do_not_depend_on_earlier_verdicts(
        self, monkeypatch, m, budget, instances
    ):
        """Once a bare verdict has run, a verdict makes as many lumped
        derivations after any other verdicts as it does right after the
        bare one."""
        modes = [_random_mode(random.Random(seed), build_system(m), budget)
                 for seed in range(instances)]
        bare = AxiomaticMode(base_statements(build_system(m)), budget)
        results = self._record_lumped(monkeypatch)

        def made(sys, mode) -> int:
            before = len(results)
            verify_coherence(sys, mode)
            return len(results) - before

        alone = []
        for mode in modes:
            sys = build_system(m)
            verify_coherence(sys, bare)
            alone.append(made(sys, mode))
        sys = build_system(m)
        verify_coherence(sys, bare)
        for order in (modes, modes[::-1]):
            assert [made(sys, mode) for mode in order] == (alone if order is modes else alone[::-1])
        assert any(alone)

    @pytest.mark.parametrize(
        "m, budget, instances", [(2, 3_000, 12), (3, 2_000, 6), (4, 300, 8)]
    )
    def test_verdicts_on_one_system_match_fresh_systems(self, m, budget, instances):
        """Statuses, proofs and witnesses of verdicts made one after another
        on one system, in several orders, are those of each verdict made on
        a fresh system."""
        sys = build_system(m)
        modes = [_random_mode(random.Random(seed), sys, budget) for seed in range(instances)]
        fresh = [verify_coherence(build_system(m), mode) for mode in modes]
        forward = list(range(instances))
        for order in (forward, forward[::-1], random.Random(m).sample(forward, instances)):
            shared = build_system(m)
            for k in order:
                assert verify_coherence(shared, modes[k]) == fresh[k]
            assert shared.goal_proofs == sys.goal_proofs

    def test_lumped_proofs_keep_each_statements_orientation(self):
        """determinism_augment moves a context symbol to a statement's second
        side, so an expanded proof replays only if lumping keeps which side
        comes first.  Panel 2's autonomy proof here moves I_* next to
        theta_1 out of a statement with theta_1 and theta_2 on its sides."""
        sys = build_system(2)
        kept = [k for k in ALL_CONDITIONS if k is not ConditionKind.DELEGABLE]
        extra = normalize({"I_+^0", "I_0^0"}, {"I_22^0", "theta_1", "theta_2"})
        mode = AxiomaticMode(base_statements(sys, kept) + (extra,))
        verdict = verify_coherence(sys, mode)
        assert [g.status for g in verdict.goals] == ["proved"] * 4
        assert all(g.proof.replay(sys.dependencies) for g in verdict.goals)
        autonomy = verdict.goals[3].proof
        assert extra in autonomy.premises
        assert any(step.rule == "determinism_augment" for step in autonomy.steps)


class TestScript:
    """``protocol.CONDITIONS`` and ``protocol.GOALS``, bound to each
    panel's names, are the system's condition statements, goal chains and
    goal proofs."""

    @pytest.mark.parametrize("m", [2, 3, 8, 32])
    def test_building_the_goal_proofs_searches_nothing_and_replays_each_proof_once(
            self, monkeypatch, m):
        """Storing the system's goal proofs binds the script: it makes no
        memo, search, lumping or lumped derivation, and replays each of the
        2m proofs once in the full system.  They are keyed by route, and
        each is the memo-less derivation of its panel's slice of the
        conditions in the panel's own names, expanded."""
        sys = build_system(m)
        made = []
        for cls in (ci.Memo, ci._Saturation):
            monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__: (
                made.append(obj) or init(obj, *args)))
        panels = TestLumpedRoute._record_sliced(monkeypatch)
        results = TestLumpedRoute._record_lumped(monkeypatch)
        replayed = TestLumpedRoute._record_replayed(monkeypatch)
        stored = sys.goal_proofs
        assert (made, panels, results) == ([], [], [])
        proofs = [result.proof for result in stored.values()]
        assert len(replayed) == 2 * m
        assert [sum(p is q for p in replayed) for q in proofs] == [1] * (2 * m)
        monkeypatch.undo()
        assert list(stored) == list(sys.goal_chains)
        base = base_statements(sys)
        for (i, name), result in stored.items():
            assert result == lumped_in_own_names(sys, base, i, name, ci.DEFAULT_BUDGET)

    @pytest.mark.parametrize("m", [2, 3, 10, 11])
    def test_each_scripted_proof_is_the_lumped_derivation_of_the_conditions(self, m):
        """Every route derived through a verdict's lumped path, on the bare
        conditions at the default budget with one memo, gives the system's
        scripted proof exactly, and its count: 101 and 70 statements for
        panel 1, 102 and 67 for every other panel.  From m = 10 on panel 1's
        theta_1 sorts before theta_10, as before theta_2."""
        sys = build_system(m)
        base, memo = frozenset(base_statements(sys)), ci.Memo(sys.dependencies, sys.universe)
        for route, scripted in sys.goal_proofs.items():
            assert protocol._derive_lumped(sys, base, route, ci.DEFAULT_BUDGET, memo) == scripted
        assert [r.generated for r in sys.goal_proofs.values()] == [101, 70] + [102, 67] * (m - 1)

    @pytest.mark.parametrize("m", [3, 32])
    def test_a_graphical_verdict_builds_no_proof(self, monkeypatch, m):
        """A graphical verdict reads the goal chains, which are bound from
        the script without its proofs: it replays no proof and leaves the
        system's goal proofs unbuilt."""
        sys = build_system(m)
        replayed = TestLumpedRoute._record_replayed(monkeypatch)
        verdict = verify_coherence(sys, GraphicalMode(canonical_dag(sys)))
        assert verdict.sound_and_distributed
        assert "goal_proofs" not in vars(sys) and replayed == []


REPLAY_FAILS = """
from modcoherence import ci, protocol as p
replay = ci.Proof.replay
{patch}
try:
    {call}
except AssertionError as exc:
    print(f"AssertionError: {{exc}}")
else:
    print("no error")
"""


class TestSearchTraffic:
    def test_every_search_made_is_run(self, monkeypatch):
        """A search files its base when it is made, work that only a query
        running the search uses.  In each call pattern a command makes,
        fresh bare verdicts at m = 2 and 3, which read the scripted proofs
        and make no search, ``ablate`` at m = 2 and ``derive`` on
        ``specs/coherence_m2.spec``'s premises and goal, every search made
        is run."""
        made, ran = [], set()
        init, run = ci._Saturation.__init__, ci._Saturation.run

        def making(search, *args):
            init(search, *args)
            made.append(search)

        def running(search, *args):
            ran.add(id(search))  # made holds the search, so its id is its own
            return run(search, *args)

        def bare(m):
            sys = build_system(m)
            verify_coherence(sys, AxiomaticMode(base_statements(sys)))

        def derive_goal(spec):
            universe, deps = spec.scope
            base = base_statements(spec.system, spec.conditions, spec.statements)
            derive(base, deps, spec.goal, spec.run.budget, universe=universe)

        spec = parse_spec(Path(__file__).resolve().parent.parent / "specs" / "coherence_m2.spec")
        patterns = {"bare_m2": lambda: bare(2), "bare_m3": lambda: bare(3),
                    "ablate_m2": lambda: ablate(build_system(2)),
                    "derive_coherence_m2": lambda: derive_goal(spec)}
        monkeypatch.setattr(ci._Saturation, "__init__", making)
        monkeypatch.setattr(ci._Saturation, "run", running)
        traffic = {}
        for name, call in patterns.items():
            made.clear()
            ran.clear()
            call()
            traffic[name] = (len(made), sum(id(search) in ran for search in made))
        assert traffic == {"bare_m2": (0, 0), "bare_m3": (0, 0), "ablate_m2": (16, 16),
                           "derive_coherence_m2": (1, 1)}


class TestChecksUnderOptimize:
    """The internal checks raise ``AssertionError`` explicitly, so
    ``python -O``, which strips ``assert`` statements, keeps them."""

    # a verdict at budget 100, below the count of each independence proof,
    # so those goals derive their lumped slices
    BELOW = "p.verify_coherence(s, p.AxiomaticMode(p.base_statements(s), 100))"
    # (id, message, code that patches, call that should raise)
    CASES = [
        ("extracted", "internal error: extracted proof failed replay",
         "ci.Proof.replay = lambda proof, deps=(): False",
         "s = p.build_system(2); ci.derive(p.base_statements(s), s.dependencies, "
         "s.goal_chains[1, 'panel_independence'][0])"),
        # the autonomy proof's last step selects I_*^0 where the paper's
        # derivation selects I_+^0, so it gives another statement than the goal
        ("scripted", "internal error: scripted proof failed replay",
         "chain, rows, counts = p.GOALS['autonomous_updating']\n"
         "rule, inputs, _, output = rows[-1]\n"
         "p.GOALS['autonomous_updating'] = (chain, rows[:-1] + ((rule, inputs, '*', output),),\n"
         "                                  counts)",
         "p.build_system(2).goal_proofs"),
        # each lumped proof's first step gives a wrong statement: the lumped
        # derivations, made through ci's derive_through, replay, but the
        # first expanded step misses its rule's output
        ("expanded", "internal error: expanded proof failed replay",
         "derive_through = p.derive_through\n"
         "def wrong_output(*args, **kw):\n"
         "    r = derive_through(*args, **kw)\n"
         "    first = r.proof.steps[0]\n"
         "    wrong = ci.ProofStep(first.rule, first.inputs, first.selection,\n"
         "                         ci.normalize({'I_0^0'}, {'theta_1'}))\n"
         "    proof = ci.Proof(r.proof.premises, (wrong,) + r.proof.steps[1:], r.proof.goal)\n"
         "    return ci.DeriveResult(r.status, proof, r.generated)\n"
         "p.derive_through = wrong_output",
         "s = p.build_system(3); " + BELOW),
        # each lumped proof's first step, a contraction of two statements,
        # renamed symmetry, which takes one: a rule that does not apply is
        # an internal error, never the CIError the command line reports as
        # bad input
        ("unlicensed", "internal error: expanded proof failed replay",
         "derive_through = p.derive_through\n"
         "def unlicensed(*args, **kw):\n"
         "    r = derive_through(*args, **kw)\n"
         "    first = r.proof.steps[0]\n"
         "    wrong = ci.ProofStep('symmetry', first.inputs, first.selection, first.output)\n"
         "    proof = ci.Proof(r.proof.premises, (wrong,) + r.proof.steps[1:], r.proof.goal)\n"
         "    return ci.DeriveResult(r.status, proof, r.generated)\n"
         "p.derive_through = unlicensed",
         "s = p.build_system(3); " + BELOW),
        # panel 3's independence proof with its lumped theta_1 left for
        # theta_1, theta_2 by a leaky expand, patched into the seam that
        # builds each panel's lumping: the premises are the base's own and
        # the waypoints the chain's, but the other step outputs miss
        # theta_2, so the rules applied to the base's premises do not give
        # them
        ("premise", "internal error: expanded proof failed replay",
         "panel_lumping = p._panel_lumping\n"
         "def leaky(s, i):\n"
         "    l = panel_lumping(s, i)\n"
         "    return p.Lumping(l.universe, l.lump, lambda side: side)\n"
         "p._panel_lumping = leaky",
         "s = p.build_system(3); base = frozenset(p.base_statements(s)); "
         "p._derive_lumped(s, base, (3, 'panel_independence'), 10**4, "
         "ci.Memo(s.dependencies, s.universe))"),
        # a leaky expand that writes I_0^0 into every side, so the sides of
        # each expanded statement overlap: an internal error, never the
        # OverlappingSets (a CIError) that normalize would raise
        ("overlap", "internal error: expanded proof failed replay",
         "panel_lumping = p._panel_lumping\n"
         "def leaky(s, i):\n"
         "    l = panel_lumping(s, i)\n"
         "    expand = lambda side: l.expand(side) | {'I_0^0'}\n"
         "    return p.Lumping(l.universe, l.lump, expand)\n"
         "p._panel_lumping = leaky",
         "s = p.build_system(2); " + BELOW),
        # each lumped proof stops one waypoint short of its goal
        ("goal", "internal error: expanded proof failed replay",
         "derive_through = p.derive_through\n"
         "p.derive_through = lambda base, deps, ways, *args, **kw: derive_through(\n"
         "    base, deps, ways[:-1], *args, **kw)",
         "s = p.build_system(2); " + BELOW),
        # each lumped proof's steps in reverse: the first uses later outputs
        ("available", "internal error: expanded proof failed replay",
         "derive_through = p.derive_through\n"
         "def reversed_steps(*args, **kw):\n"
         "    r = derive_through(*args, **kw)\n"
         "    proof = ci.Proof(r.proof.premises, r.proof.steps[::-1], r.proof.goal)\n"
         "    return ci.DeriveResult(r.status, proof, r.generated)\n"
         "p.derive_through = reversed_steps",
         "s = p.build_system(2); " + BELOW),
        # a lumped proof with no step, on a base that holds the goal, whose
        # premises all expand into the base: it replays, as its goal is a
        # premise, but an expanded goal proof must have a step
        ("no_steps", "internal error: expanded proof failed replay",
         "p.derive_through = lambda base, deps, ways, *args, **kw: ci.DeriveResult(\n"
         "    'proved', ci.Proof(tuple(base), (), ways[-1]), 0)",
         "s = p.build_system(2); r = (1, 'panel_independence'); "
         "base = frozenset(p.base_statements(s, statements=s.goal_chains[r][-1:])); "
         "p._derive_lumped(s, base, r, 10, ci.Memo(s.dependencies, s.universe))"),
        # only the spliced proof lists the unused premise
        ("spliced", "internal error: spliced proof failed replay",
         "base = [ci.normalize({'a'}, {'b'}, {'c'}), ci.normalize({'d'}, {'e'})]\n"
         "ci.Proof.replay = lambda proof, deps=(): len(proof.premises) < 2 and replay(proof, deps)",
         "ci.derive_through(base, (), [ci.normalize({'b'}, {'a'}, {'c'})])"),
        ("collide", "panel symbols collide",
         "p.PanelSystem.evidence = lambda system, i, j: 'I_11^0'",
         "p.build_system(2)"),
    ]

    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
    @pytest.mark.parametrize("message, patch, call", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_failed_check_raises(self, flags, message, patch, call):
        src = Path(protocol.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        code = REPLAY_FAILS.format(patch=patch, call=call)
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"AssertionError: {message}"

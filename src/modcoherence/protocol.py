"""Multi-panel composite systems and their admissibility-protocol checks.

A system of m >= 2 autonomous panels shares a pool of admissible evidence: one
common-knowledge symbol, one evidence symbol per ordered panel pair, the
collection of own-domain evidence, and the full pool, each named with the
fixed superscript ``^0`` (names are labels: renaming changes no verdict).
Four independence conditions over these symbols (delegable, separately
informed, cutting, commonly separated) and each panel's two goals - its
parameter block is independent of the others given the full pool, and is
updated only through its own evidence - are stated once, with the paper's
derivation of the goals from the conditions, in the roles of one panel
(``CONDITIONS`` and ``GOALS``).  The coherence claim, that every goal holds,
is verified either by the axiomatic prover (the scripted derivation where a
base holds its premises, else a lumped derivation, then one search of the
full system) or by d-separation on a user-supplied graph.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Union

from . import ModcoherenceError, Record
from .ci import (
    CIStatement,
    DEFAULT_BUDGET,
    DeriveResult,
    FunctionalDependency,
    Memo,
    Proof,
    ProofStep,
    Symbol,
    VarSet,
    aggregate_dependencies,
    derive,
    derive_through,
    normalize,
)
from .dag import Dag, build_dag, d_separated
from .values import ALL_CONDITIONS, ConditionKind


class ProtocolError(ModcoherenceError):
    pass


class InvalidPanelCount(ProtocolError):
    pass


class IndexOutOfRange(ProtocolError):
    pass


class UniverseMismatch(ProtocolError):
    pass


# The paper's four conditions and its derivation of each panel's two goals
# from them, in the roles of panel i.  "a|b|c" is the statement a _||_ b | c,
# one letter per role: t = theta_i, r = theta_rest(i), e = I_ii^0,
# 0 = I_0^0, * = I_*^0 and + = I_+^0, and x, y = t, r in sorted order (x = t
# for panel 1 alone).
CONDITIONS = {
    ConditionKind.DELEGABLE: "+|tr|0*",
    ConditionKind.SEPARATELY_INFORMED: "e|r|0t",
    ConditionKind.CUTTING: "*|t|0er",
    ConditionKind.COMMONLY_SEPARATED: "t|r|0",
}
# a step: rule, inputs (a condition or an earlier step's output), selection, output
_CUT_IN = (
    ("contraction", ("t|r|0", "e|r|0t"), "", "et|r|0"),
    ("weak_union", ("et|r|0",), "e", "t|r|0e"),
    ("contraction", ("t|r|0e", "*|t|0er"), "", "t|*r|0e"),
)
# goal: (its chain, the step outputs it passes, the goal last; its proof's
# steps; the statements the lumped search of the conditions that found the
# proof made, for panel 1 and for every other panel, which a verdict's
# budget must reach before it reads the proof)
GOALS = {
    "panel_independence": (("t|*r|0e", "t|r|0*", "t|r|+"), _CUT_IN + (
        ("weak_union", ("t|*r|0e",), "*", "t|r|0e*"),
        ("determinism_drop", ("t|r|0e*",), "e", "t|r|0*"),
        ("weak_union", ("+|tr|0*",), "y", "+|x|0*y"),
        ("contraction", ("t|r|0*", "+|x|0*y"), "", "+y|x|0*"),
        ("weak_union", ("+y|x|0*",), "+", "t|r|0*+"),
        ("determinism_drop", ("t|r|0*+",), "*", "t|r|0+"),
        ("determinism_drop", ("t|r|0+",), "0", "t|r|+"),
    ), (101, 102)),
    "autonomous_updating": (("t|*r|0e", "+|t|0*e", "*|t|0e", "+|t|0e"), _CUT_IN + (
        ("decomposition", ("+|tr|0*",), "t", "+|t|0*"),
        ("determinism_augment", ("+|t|0*",), "e", "+|t|0*e"),
        ("decomposition", ("t|*r|0e",), "*", "*|t|0e"),
        ("contraction", ("*|t|0e", "+|t|0*e"), "", "*+|t|0e"),
        ("decomposition", ("*+|t|0e",), "+", "+|t|0e"),
    ), (70, 67)),
}


def _named(roles: dict[str, VarSet], letters: str) -> VarSet:
    return frozenset().union(*(roles[letter] for letter in letters))


def _bind(roles: dict[str, VarSet], text: str) -> CIStatement:
    """Script statement ``text`` in the names ``roles`` gives its letters."""
    return normalize(*(_named(roles, side) for side in text.split("|")))


class PanelSystem(Record):
    """Symbol universe and determinism facts for an m-panel composite, m >= 2:
    with one panel the conditions and the goal that speak of "the other
    panels" would assert nothing.  A system is checked when it is made,
    by ``build_system`` or directly, so it makes its universe then.

    Besides m, a system holds only values derived from m, each made once,
    on first use, and of a size fixed by m: its universe, dependencies,
    condition statements and goal chains, and its goals' proofs from its
    own conditions (``goal_proofs``), the script bound to its names and
    replayed once, and read wherever a verdict's base holds their premises.
    No verdict's base, lumping, slice or memo is kept: a verdict makes its
    memo only for a query that derives, and a panel's lumping only for a
    goal of that panel it derives (see :func:`_decider`)."""

    m: int
    common = "I_0^0"
    own_evidence_pool = "I_*^0"  # every panel's own-domain evidence
    full_pool = "I_+^0"  # all admissible evidence

    def theta(self, i: int) -> Symbol:
        self._check_index(i)
        return f"theta_{i}"

    def theta_rest(self, i: int) -> VarSet:
        self._check_index(i)
        return frozenset(f"theta_{j}" for j in range(1, self.m + 1) if j != i)

    def thetas(self) -> VarSet:
        return frozenset(f"theta_{j}" for j in range(1, self.m + 1))

    def evidence(self, i: int, j: int) -> Symbol:
        """``I_ij^0`` for m <= 9; from m = 10 on the indices are separated,
        ``I_i_j^0``, since (1, 11) and (11, 1) would both read ``I_111^0``."""
        self._check_index(i)
        self._check_index(j)
        sep = "_" if self.m >= 10 else ""
        return f"I_{i}{sep}{j}^0"

    @functools.cached_property
    def universe(self) -> VarSet:
        syms = set(self.thetas()) | {self.common, self.own_evidence_pool, self.full_pool}
        syms.update(
            self.evidence(i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.m + 1)
        )
        return frozenset(syms)

    @property
    def aggregates(self) -> tuple[tuple[Symbol, VarSet], ...]:
        """The two collection symbols with their defining components."""
        own = frozenset(self.evidence(i, i) for i in range(1, self.m + 1))
        full = frozenset(
            self.evidence(i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.m + 1)
        ) | {self.common}
        return ((self.own_evidence_pool, own), (self.full_pool, full))

    @functools.cached_property
    def dependencies(self) -> tuple[FunctionalDependency, ...]:
        facts: list[FunctionalDependency] = []
        for symbol, components in self.aggregates:
            facts.extend(aggregate_dependencies(symbol, components))
        return tuple(facts)

    def _roles(self, i: int) -> dict[str, VarSet]:
        """Panel i's names for the role letters of ``CONDITIONS`` and ``GOALS``."""
        t, r = frozenset({self.theta(i)}), self.theta_rest(i)
        x, y = sorted((t, r), key=min)
        return {"t": t, "r": r, "x": x, "y": y, "e": {self.evidence(i, i)},
                "0": {self.common}, "*": {self.own_evidence_pool}, "+": {self.full_pool}}

    @functools.cached_property
    def condition_statements(self) -> dict[ConditionKind, tuple[CIStatement, ...]]:
        """``CONDITIONS`` in every panel's names, deduplicated, in canonical
        order: one statement for delegable, one per panel for the others."""
        stmts: dict = {kind: set() for kind in CONDITIONS}
        for i in range(1, self.m + 1):
            roles = self._roles(i)
            for kind, text in CONDITIONS.items():
                stmts[kind].add(_bind(roles, text))
        return {kind: tuple(sorted(s, key=CIStatement.sort_key)) for kind, s in stmts.items()}

    @functools.cached_property
    def goal_chains(self) -> dict[tuple[int, str], tuple[CIStatement, ...]]:
        """Each panel's two goals, keyed by route ``(panel, name)`` in verdict
        order, as the chains of ``GOALS`` in the panel's names, ending at the
        goal: panel i's block is independent of all other blocks given the
        full pool, and depends on the pool only through common and own
        evidence.  A panel's two chains share their first statement."""
        chains = {}
        for i in range(1, self.m + 1):
            roles = self._roles(i)
            bound = {text: _bind(roles, text) for chain, _, _ in GOALS.values() for text in chain}
            for name, (chain, _, _) in GOALS.items():
                chains[i, name] = tuple(map(bound.get, chain))
        return chains

    @functools.cached_property
    def goal_proofs(self) -> dict[tuple[int, str], DeriveResult]:
        """Each route's proof, the steps of ``GOALS`` in its panel's names,
        with the count of the lumped search it was read from.  Its premises
        are the system's own condition statements and its chain outputs the
        route's own chain statements; every other output is built.  Each
        proof is replayed in the full system once, here, and read by every
        verdict whose base holds its premises (see :func:`_decider`); no
        memo, lumping or search is made."""
        own = {s: s for stmts in self.condition_statements.values() for s in stmts}
        proofs = {}
        for (i, name), chain in self.goal_chains.items():
            roles, (texts, rows, counts) = self._roles(i), GOALS[name]
            premises = {text: own[_bind(roles, text)] for text in CONDITIONS.values()}
            bound = {**{row[-1]: _bind(roles, row[-1]) for row in rows}, **premises,
                     **dict(zip(texts, chain))}
            steps = tuple(ProofStep(rule, tuple(map(bound.get, inputs)), _named(roles, selection),
                                    bound[output]) for rule, inputs, selection, output in rows)
            proof = Proof(tuple(sorted(premises.values(), key=CIStatement.sort_key)), steps,
                          chain[-1])
            if not proof.replay(self.dependencies):
                raise AssertionError("internal error: scripted proof failed replay")
            proofs[i, name] = DeriveResult("proved", proof, counts[0] if i == 1 else counts[1])
        return proofs

    def _validate(self) -> None:
        if type(self.m) is not int:
            raise InvalidPanelCount(f"panel count must be an integer, got {self.m!r}")
        if self.m < 2:
            raise InvalidPanelCount(f"panel count must be >= 2, got {self.m}")
        if len(self.universe) != self.m * self.m + self.m + 3:
            raise AssertionError("panel symbols collide")

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise IndexOutOfRange(f"panel index {i} not in 1..{self.m}")


def build_system(m: int) -> PanelSystem:
    return PanelSystem(m)


def base_statements(
    sys: PanelSystem,
    conditions: Iterable[ConditionKind] = ALL_CONDITIONS,
    statements: Iterable[CIStatement] = (),
) -> tuple[CIStatement, ...]:
    """``statements``, then the listed conditions' statements in canonical order."""
    out = {s for kind in conditions for s in sys.condition_statements[kind]}
    return tuple(statements) + tuple(sorted(out, key=CIStatement.sort_key))


class AxiomaticMode(Record):
    base: tuple[CIStatement, ...]
    budget: int = DEFAULT_BUDGET


class GraphicalMode(Record):
    dag: Dag


Mode = Union[AxiomaticMode, GraphicalMode]
# (statement, route=None) -> (status, proof); a goal's route is its (panel, name)
Decide = Callable[..., tuple[str, Optional[Proof]]]
ESTABLISHED = ("proved", "separated")  # statuses that establish a statement


class ConditionStatus(Record):
    kind: ConditionKind
    statements: tuple[CIStatement, ...]
    status: str  # "holds" | "not_established" | "inconclusive"
    # statements are decided in order up to the first one not established:
    # the proofs of those before it (axiomatic), or empty (graphical)
    witnesses: tuple[Proof, ...]

    @property
    def holds(self) -> bool:
        return self.status == "holds"


class GoalResult(Record):
    panel: int
    name: str  # "panel_independence" | "autonomous_updating"
    goal: CIStatement
    status: str  # "proved" | "not_derivable" | "budget_exhausted" | "separated" | "not_separated"
    proof: Optional[Proof] = None

    @property
    def established(self) -> bool:
        return self.status in ESTABLISHED


class Verdict(Record):
    conditions: tuple[ConditionStatus, ...]
    goals: tuple[GoalResult, ...]
    sound_and_distributed: bool

    @property
    def inconclusive(self) -> bool:
        """Some goal's search ran out of budget, so a failure certifies nothing."""
        return any(g.status == "budget_exhausted" for g in self.goals)


class Lumping(Record):
    """One panel's lumping (see :func:`_panel_lumping`)."""

    universe: VarSet  # the six lumped names
    lump: Callable[[CIStatement], Optional[CIStatement]]
    expand: Callable[[VarSet], VarSet]


def _panel_lumping(sys: PanelSystem, i: int) -> Lumping:
    """Panel i's lumped universe, ``lump`` and ``expand``, in panel i's own
    names; all of it depends on m alone.

    The lumped universe is the six symbols of panel i's lumped derivations:
    its theta and own evidence, the common and pool symbols, and the first
    name of theta_rest(i), which stands for all of it.  ``lump`` writes a
    statement with theta_rest(i) lumped into that name, or gives None for
    one that splits theta_rest(i) or leaves the lumped names and
    theta_rest(i): a statement out of reach is refused by one subset test
    per side, before any set is built.  ``expand`` writes a side of a
    lumped statement back, the lumped name as theta_rest(i)."""
    rest = sys.theta_rest(i)
    lumped = min(rest)
    names = frozenset({sys.theta(i), sys.evidence(i, i), sys.common, sys.own_evidence_pool,
                       sys.full_pool, lumped})
    reach = rest | names

    def lump(s: CIStatement) -> Optional[CIStatement]:
        if not (s.a <= reach and s.b <= reach and s.c <= reach):
            return None
        sides = []
        for side in (s.a, s.b, s.c):
            if not rest.isdisjoint(side):
                if not rest <= side:
                    return None
                side = side - rest | {lumped}
            sides.append(side)
        return normalize(*sides)

    def expand(side: VarSet) -> VarSet:
        return side | rest if lumped in side else side

    return Lumping(names, lump, expand)


def _derive_lumped(sys: PanelSystem, base: frozenset, route: tuple[int, str], budget: int,
                   memo: Memo) -> DeriveResult:
    """Goal ``route = (i, name)`` derived through its goal chain with
    theta_rest(i) lumped into one symbol, over panel i's six lumped names
    (see :func:`_panel_lumping`), at ``budget`` with ``memo`` (for
    ``sys.dependencies`` and a universe holding the lumped one).

    Every waypoint of panel i holds theta_rest(i) whole, and no dependency
    mentions a theta, so the determinism rules never select the lumped
    symbol.  It is the first name of theta_rest(i), so every statement keeps
    its orientation (see :func:`~modcoherence.ci.normalize`) and
    ``determinism_augment``, which moves a context symbol to the second
    side, stays the same rule instance.  The derivation runs on the
    statements of ``base`` that ``lump`` keeps.  A proof is expanded back,
    symbol for set: a premise is the statement of ``base`` it was lumped
    from, a waypoint the route's own chain statement, and every other output
    and selection is written through ``expand``.  The expanded proof must
    have a step and pass :meth:`~modcoherence.ci.Proof.replay` in the full
    system.  Outputs are built as ``CIStatement`` directly, not by
    :func:`~modcoherence.ci.normalize`, so a faulty expansion fails replay,
    an internal error (``AssertionError``), instead of raising the
    ``CIError`` the command line reports as bad input.  Any other status
    than ``proved`` certifies nothing about the full system.
    """
    lumping = _panel_lumping(sys, route[0])
    origin = {t: s for s in base if (t := lumping.lump(s)) is not None}
    chain = sys.goal_chains[route]
    waypoints = tuple(map(lumping.lump, chain))
    result = derive_through(frozenset(origin), sys.dependencies, waypoints, budget,
                            lumping.universe, memo=memo)
    if not result.proved:
        return result

    expand, lumped = lumping.expand, result.proof
    full, steps = {**origin, **dict(zip(waypoints, chain))}, []
    for step in lumped.steps:
        if (s := step.output) not in full:
            full[s] = CIStatement(expand(s.a), expand(s.b), expand(s.c))
        steps.append(ProofStep(step.rule, tuple(map(full.get, step.inputs)),
                               expand(step.selection), full[s]))
    proof = Proof(tuple(map(origin.get, lumped.premises)), tuple(steps), chain[-1])
    if not (steps and proof.replay(sys.dependencies)):
        raise AssertionError("internal error: expanded proof failed replay")
    return DeriveResult("proved", proof, result.generated)


def _decider(sys: PanelSystem, mode: Mode) -> Decide:
    """The mode's ``(status, proof)`` for a statement.  Axiomatic mode answers
    a statement of the base, such as a condition's, with no memo or search,
    by the zero-step proof :func:`~modcoherence.ci.derive` gives for a
    premise.  A goal reads its scripted proof (``sys.goal_proofs``) where
    the script's count is at most ``mode.budget`` and the base holds its
    premises, as a derivation holds in any base that holds its premises;
    else :func:`_derive_lumped` derives it.  Any other statement, and a
    goal with no lumped proof, goes to one unconstrained search of the full
    system, so every status but ``proved`` comes from the full system.  The
    base is checked against the universe, and the budget checked, before
    any statement is decided.  The verdict's one memo is made by the first
    query that derives, if any.  Graphical mode asks d-separation."""
    if isinstance(mode, AxiomaticMode):
        universe = sys.universe
        for stmt in mode.base:
            if not stmt.within(universe):
                raise UniverseMismatch(f"base statement {stmt.render()} leaves the system universe")
        if mode.budget <= 0:
            raise ValueError("budget must be positive")
        base = frozenset(mode.base)

        @functools.cache
        def memo() -> Memo:
            return Memo(sys.dependencies, universe)

        def derived(stmt: CIStatement, route: Optional[tuple[int, str]] = None):
            if route is not None:
                result = sys.goal_proofs[route]
                if not (result.generated <= mode.budget
                        and base.issuperset(result.proof.premises)):
                    result = _derive_lumped(sys, base, route, mode.budget, memo())
                if result.proved:
                    return result.status, result.proof
            if stmt in base:
                return "proved", Proof((stmt,), (), stmt)
            result = derive(base, sys.dependencies, stmt, mode.budget, universe, memo=memo())
            return result.status, result.proof

        return derived
    if isinstance(mode, GraphicalMode):
        if not sys.universe <= mode.dag.node_names:
            missing = sorted(sys.universe - mode.dag.node_names)
            raise UniverseMismatch(f"graph is missing system symbols: {missing}")

        def separated(stmt: CIStatement, route: Optional[tuple[int, str]] = None):
            sep = d_separated(mode.dag, stmt.a, stmt.b, stmt.c)
            return ("separated" if sep else "not_separated"), None

        return separated
    raise TypeError(f"unsupported mode: {mode!r}")


def _conditions(sys: PanelSystem, decide: Decide) -> tuple[ConditionStatus, ...]:
    out: list[ConditionStatus] = []
    for kind, stmts in sys.condition_statements.items():
        witnesses: list[Proof] = []
        status = "holds"
        for stmt in stmts:
            answer, proof = decide(stmt)
            if answer not in ESTABLISHED:
                status = "inconclusive" if answer == "budget_exhausted" else "not_established"
                break
            if proof is not None:
                witnesses.append(proof)
        out.append(ConditionStatus(kind, stmts, status, tuple(witnesses)))
    return tuple(out)


def verify_coherence(sys: PanelSystem, mode: Mode) -> Verdict:
    """Check the coherence conclusion: panel-independent beliefs plus
    own-evidence-only updating for every panel.

    In axiomatic mode a statement of the base, such as a condition's, is
    its own zero-step proof, a goal whose base holds the script's premises
    reads the system's scripted proof, replayed once per system, and the
    verdict's derivations, if any, share one memo, made by the first query
    that needs it and dropped when the verdict is made (see
    :func:`_decider`).  A lumped proof is expanded into its panel's names
    and replayed in the full system (see :func:`_derive_lumped`).
    """
    decide = _decider(sys, mode)
    conditions = _conditions(sys, decide)
    goals: list[GoalResult] = []
    for route, chain in sys.goal_chains.items():
        status, proof = decide(chain[-1], route)
        goals.append(GoalResult(*route, chain[-1], status, proof))
    ok = all(g.established for g in goals)
    return Verdict(conditions, tuple(goals), ok)


def ablate(
    sys: PanelSystem,
    budget: int = DEFAULT_BUDGET,
    conditions: tuple[ConditionKind, ...] = ALL_CONDITIONS,
    statements: tuple[CIStatement, ...] = (),
) -> tuple[tuple[Optional[ConditionKind], Verdict], ...]:
    """A control row on ``base_statements(sys, conditions, statements)``,
    then one row per listed condition, dropped from those premises.

    Axiomatic only: a "fails" row is a saturation certificate that the goal
    is not derivable in this rule system from the remaining premises,
    unless the row's verdict is ``inconclusive``.
    """

    def row(dropped: Optional[ConditionKind]) -> tuple[Optional[ConditionKind], Verdict]:
        premises = base_statements(sys, [k for k in conditions if k is not dropped], statements)
        return dropped, verify_coherence(sys, AxiomaticMode(premises, budget))

    return tuple(map(row, (None, *conditions)))


def canonical_dag(sys: PanelSystem) -> Dag:
    """The reference graph for a well-run protocol: parameters are roots,
    each panel's own evidence is driven by its block plus common knowledge,
    cross-panel evidence carries only common knowledge, and the two pool
    nodes deterministically aggregate their components."""
    nodes = sorted(sys.thetas())
    nodes.append(sys.common)
    edges = []
    for i in range(1, sys.m + 1):
        for j in range(1, sys.m + 1):
            name = sys.evidence(i, j)
            nodes.append(name)
            edges.append((sys.common, name))
            if i == j:
                edges.append((sys.theta(i), name))
    nodes.append(sys.own_evidence_pool)
    nodes.append(sys.full_pool)
    for i in range(1, sys.m + 1):
        edges.append((sys.evidence(i, i), sys.own_evidence_pool))
        for j in range(1, sys.m + 1):
            if i != j:
                edges.append((sys.evidence(i, j), sys.full_pool))
    edges.append((sys.common, sys.full_pool))
    edges.append((sys.own_evidence_pool, sys.full_pool))
    return build_dag(nodes, edges, sys.dependencies)


def confounded_dag(sys: PanelSystem) -> Dag:
    """Canonical graph plus a hidden confounder ``H`` across all parameter blocks."""
    base = canonical_dag(sys)
    nodes = base.nodes + ("H",)
    edges = base.edges + tuple(("H", t) for t in sorted(sys.thetas()))
    return build_dag(nodes, edges, sys.dependencies)

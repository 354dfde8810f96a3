"""Multi-panel composite systems and their admissibility-protocol checks.

A system of m >= 2 autonomous panels shares a pool of admissible evidence: one
common-knowledge symbol, one evidence symbol per ordered panel pair, the
collection of own-domain evidence, and the full pool, each named with the
fixed superscript ``^0`` (names are labels: renaming changes no verdict).
Four independence conditions over these symbols (delegable, separately
informed, cutting, commonly separated) and each panel's two goals - its
parameter block is independent of the others given the full pool, and is
updated only through its own evidence - are stated once per system.  The
coherence claim, that every goal holds, is verified either by the axiomatic
prover (a lumped derivation, then one search of the full system) or by
d-separation on a user-supplied graph.
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
    premise_proof,
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


class PanelSystem(Record):
    """Symbol universe and determinism facts for an m-panel composite, m >= 2:
    with one panel the conditions and the goal that speak of "the other
    panels" would assert nothing.

    Besides m, a system holds only values derived from m, each made once,
    on first use, and of a size fixed by m: its universe, dependencies,
    condition statements and goal chains; each panel's lumping
    (``lumpings``: lumped universe, ``lump``, ``expand`` and the lumped
    waypoints of its two goal chains); and its goals' proofs from its own
    conditions (``goal_proofs``), each expanded into the full system and
    replayed there once, and read wherever a verdict's base holds their
    premises.  No verdict's base, slice, memo or table is kept, and
    a verdict makes its memo only for a query that derives (see
    :func:`_decider`): only each ``expand``'s cache tells which of the at
    most 64 lumped sides verdicts have expanded."""

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

    @functools.cached_property
    def condition_statements(self) -> dict[ConditionKind, tuple[CIStatement, ...]]:
        """The statements each condition asserts, deduplicated, in canonical
        order: one for delegable, one per panel for the others."""
        common, own, pool = self.common, self.own_evidence_pool, self.full_pool
        stmts: dict = {kind: set() for kind in ALL_CONDITIONS}
        stmts[ConditionKind.DELEGABLE].add(normalize({pool}, self.thetas(), {common, own}))
        for i in range(1, self.m + 1):
            theta, rest, own_i = {self.theta(i)}, self.theta_rest(i), self.evidence(i, i)
            stmts[ConditionKind.SEPARATELY_INFORMED].add(normalize({own_i}, rest, {common} | theta))
            stmts[ConditionKind.CUTTING].add(normalize({own}, theta, {common, own_i} | rest))
            stmts[ConditionKind.COMMONLY_SEPARATED].add(normalize(theta, rest, {common}))
        return {kind: tuple(sorted(s, key=CIStatement.sort_key)) for kind, s in stmts.items()}

    @functools.cached_property
    def goal_chains(self) -> dict[tuple[int, str], tuple[CIStatement, ...]]:
        """Each panel's two goals, keyed by route ``(panel, name)`` in verdict
        order, as the milestones of the published derivation chain ending at
        the goal: panel i's block is independent of all other blocks given
        the full pool, and depends on the pool only through common and own
        evidence."""
        common, own, pool = self.common, self.own_evidence_pool, self.full_pool
        chains = {}
        for i in range(1, self.m + 1):
            theta, rest, own_i = {self.theta(i)}, self.theta_rest(i), self.evidence(i, i)
            cut_in = normalize(theta, {own} | rest, {common, own_i})
            chains[i, "panel_independence"] = (
                cut_in,
                normalize(theta, rest, {common, own}),
                normalize(theta, rest, {pool}),
            )
            chains[i, "autonomous_updating"] = (
                cut_in,
                normalize(theta, {pool}, {common, own_i, own}),
                normalize(theta, {own}, {common, own_i}),
                normalize(theta, {pool}, {common, own_i}),
            )
        return chains

    @functools.cached_property
    def lumpings(self) -> dict[int, Lumping]:
        """Each panel's lumping (see :func:`_panel_lumping`), keyed by
        panel: made once per system and read by every verdict, which keeps
        only its slices of the base."""
        return {i: _panel_lumping(self, i) for i in range(1, self.m + 1)}

    @functools.cached_property
    def goal_proofs(self) -> dict[tuple[int, str], DeriveResult]:
        """Each route's :func:`_derive_lumped` over ``base_statements(self)``
        at ``DEFAULT_BUDGET``, which no lumped search reaches: six symbols
        allow at most (4**6 - 2 * 3**6 + 2**6) / 2 = 1,351 statements.  One
        memo, table and slice per panel serve all routes, so the searches
        are four: panels 3..m's slices are panel 2's.  Each proof is
        expanded and replayed in the full system once, here, and read by
        every verdict whose base holds its premises (see :func:`_decider`)."""
        base = frozenset(base_statements(self))
        memo, table, slices = Memo(self.dependencies, self.universe), {}, {}
        return {route: _derive_lumped(self, base, route, DEFAULT_BUDGET, memo, table, slices)
                for route in self.goal_chains}

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise IndexOutOfRange(f"panel index {i} not in 1..{self.m}")


def build_system(m: int) -> PanelSystem:
    if m < 2:
        raise InvalidPanelCount(f"panel count must be >= 2, got {m}")
    system = PanelSystem(m=m)
    if len(system.universe) != m * m + m + 3:
        raise AssertionError("panel symbols collide")
    return system


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
    """One panel's lumping, written in the names of its order type (see
    :func:`_panel_lumping`)."""

    universe: VarSet  # the six lumped names
    lump: Callable[[CIStatement], Optional[CIStatement]]
    expand: Callable[[VarSet], VarSet]
    waypoints: dict  # route -> its goal chain, lumped


def _panel_lumping(sys: PanelSystem, i: int) -> Lumping:
    """Panel i's lumped universe, ``lump``, ``expand`` and the lumped
    waypoints of its two goal chains, all written in the names of panel
    i's order type: panel 1's own, and panel 2's for panels 2..m (see
    :func:`_derive_lumped`).  All of it depends on m alone.

    The lumped universe is the six symbols of panel i's lumped derivations:
    its theta and own evidence, the common and pool symbols, and the first
    name of theta_rest(i), which stands for all of it.  ``lump`` writes a
    statement with theta_rest(i) lumped into that name and panel i's theta
    and own evidence renamed to its type's, or gives None for one that
    splits theta_rest(i) or leaves panel i's reach, its own lumped names
    and theta_rest(i): a statement out of reach is refused by one subset
    test per side, before any set is built.  ``expand`` writes a side of a
    lumped statement back in panel i's names, the lumped name as
    theta_rest(i); every side it is given is a subset of the six lumped
    names, so its cache holds at most 2**6 of them.  The first name of
    theta_rest(i) is theta_1 for every panel but panel 1, so the rename
    leaves it alone."""
    rest = sys.theta_rest(i)
    lumped = min(rest)
    own = (sys.theta(i), sys.evidence(i, i))
    names = own if i == 1 else (sys.theta(2), sys.evidence(2, 2))
    rename, back = dict(zip(own, names)), dict(zip(names, own))
    shared = {sys.common, sys.own_evidence_pool, sys.full_pool, lumped}
    reach = rest.union(own, shared)

    def lump(s: CIStatement) -> Optional[CIStatement]:
        if not (s.a <= reach and s.b <= reach and s.c <= reach):
            return None
        sides = []
        for side in (s.a, s.b, s.c):
            if not rest.isdisjoint(side):
                if not rest <= side:
                    return None
                side = side - rest | {lumped}
            sides.append([rename.get(n, n) for n in side])
        return normalize(*sides)

    @functools.cache  # at most 2**6 sides, each a subset of the six lumped names
    def expand(side: VarSet) -> VarSet:
        side = frozenset([back.get(n, n) for n in side])
        return side | rest if lumped in side else side

    waypoints = {route: tuple(map(lump, chain))
                 for route, chain in sys.goal_chains.items() if route[0] == i}
    return Lumping(frozenset(names).union(shared), lump, expand, waypoints)


def _panel_slice(sys: PanelSystem, base: Iterable[CIStatement], i: int) -> frozenset:
    """``base`` sliced for panel i: each statement its lumping's ``lump``
    keeps, lumped.  The one piece of a panel's lumping that depends on the
    base, so a verdict makes it and keeps it as long as itself."""
    lump = sys.lumpings[i].lump
    return frozenset(t for s in base if (t := lump(s)) is not None)


def _derive_lumped(
    sys: PanelSystem,
    base: frozenset,
    route: tuple[int, str],
    budget: int,
    memo: Memo,
    table: dict,
    slices: dict,
) -> DeriveResult:
    """Goal ``route = (i, name)`` derived with theta_rest(i) lumped into one
    symbol, over the six lumped names of panel i's order type (see
    :func:`_panel_lumping`).

    Every waypoint of panel i holds theta_rest(i) whole, and no dependency
    mentions a theta, so the determinism rules never select the lumped
    symbol.  It is the first name of theta_rest(i): a statement's
    orientation (see :func:`~modcoherence.ci.normalize`) follows the first
    name of each side, so every statement keeps it, and
    ``determinism_augment``, which moves a context symbol to the second
    side, stays the same rule instance.  The derivation runs on the base
    statements that hold theta_rest(i) whole on one side or not at all and
    otherwise stay in the lumped names.  A proof is expanded back, symbol
    for set, into a proof in the full system: each statement of it, premise
    or step output, is written in full names through ``expand``, each
    step's inputs are mapped through the same table, its selection is
    expanded, and the route's goal is the proof's goal.  A selection of the
    lumped symbol becomes a multi-symbol decomposition or weak union.  The
    expanded proof is then checked once: its premises must be statements of
    ``base``, it must have a step, and it must pass
    :meth:`~modcoherence.ci.Proof.replay`, which applies each rule in the
    full system to inputs already available and compares its output with
    the expanded one, up to the goal.  Each expanded statement is built as
    a ``CIStatement`` directly, not by :func:`~modcoherence.ci.normalize`:
    each is compared with a canonical statement, a premise with the
    base's, an output with the rule's, so one a faulty expansion leaves
    unoriented, empty or overlapping fails the check instead of raising a
    ``CIError``, which the command line would report as bad input.  A
    failed check is an internal error, an ``AssertionError``.  Any other
    status than ``proved`` certifies nothing about the full system.

    Panels 2..m are derived in panel 2's names.  Swapping panels 2 and i
    maps the dependencies onto themselves, and the rename keeps the sorted
    order of the six names (the two pools, I_0^0, the own evidence,
    theta_1, the own theta), so each panel's search, proof and counts are
    those in its own names.  ``table`` maps a slice and the waypoints to
    their derivation; one missing is made at ``budget`` with ``memo`` (for
    ``sys.dependencies`` and a universe holding the lumped one, such as
    the system's, which keeps names in sorted order too).  ``slices``
    keeps each panel's :func:`_panel_slice` of ``base``, so both goals of
    a panel read one slice.  The lumped universe, the route's lumped
    waypoints and ``expand`` are the system's own (``sys.lumpings``), made
    once per system, so each side is expanded at most once per system.
    """
    i = route[0]
    if i not in slices:
        slices[i] = _panel_slice(sys, base, i)
    sliced, lumping = slices[i], sys.lumpings[i]
    waypoints = lumping.waypoints[route]
    if (sliced, waypoints) not in table:
        table[sliced, waypoints] = derive_through(
            sliced, sys.dependencies, waypoints, budget, lumping.universe, memo=memo
        )
    result = table[sliced, waypoints]
    if not result.proved:
        return result

    expand = lumping.expand
    full = {s: CIStatement(expand(s.a), expand(s.b), expand(s.c))
            for s in result.proof.statements()}
    steps = tuple(ProofStep(step.rule, tuple(map(full.get, step.inputs)),
                            expand(step.selection), full[step.output])
                  for step in result.proof.steps)
    proof = Proof(tuple(map(full.get, result.proof.premises)), steps, sys.goal_chains[route][-1])
    if not (steps and base.issuperset(proof.premises) and proof.replay(sys.dependencies)):
        raise AssertionError("internal error: expanded proof failed replay")
    return DeriveResult("proved", proof, result.generated)


def _decider(sys: PanelSystem, mode: Mode) -> Decide:
    """The mode's ``(status, proof)`` for a statement.  Axiomatic mode answers
    a statement of the base, such as a condition's, with no search, by
    :func:`~modcoherence.ci.premise_proof`, the record
    :func:`~modcoherence.ci.derive` gives for a premise.  A goal's lumped
    derivation comes first: the system's own (``sys.goal_proofs``) where
    that is ``proved``, made at most ``mode.budget`` statements and the
    base holds its premises, as a derivation holds in any base that holds
    its premises; else :func:`_derive_lumped` makes it.  Any other
    statement, and a goal with no lumped proof, goes to one unconstrained
    search of the full system, so every status but ``proved`` comes from
    the full system.  The base is checked against the universe (by
    :meth:`~modcoherence.ci.CIStatement.within`, as a search checks its
    base), and the budget checked, before any statement is decided; it is
    frozen once per verdict.  The verdict's
    one memo, its table of lumped derivations and its slice of the base
    per panel are made by the first query that derives, if any, and live
    as long as the decider, one verdict.  Graphical mode asks
    d-separation."""
    if isinstance(mode, AxiomaticMode):
        universe = sys.universe
        for stmt in mode.base:
            if not stmt.within(universe):
                raise UniverseMismatch(f"base statement {stmt.render()} leaves the system universe")
        if mode.budget <= 0:
            raise ValueError("budget must be positive")
        base = frozenset(mode.base)

        @functools.cache
        def shared() -> tuple[Memo, dict, dict]:  # memo, lumped table, slices
            return Memo(sys.dependencies, universe), {}, {}

        def derived(stmt: CIStatement, route: Optional[tuple[int, str]] = None):
            if route is not None:
                result = sys.goal_proofs[route]
                if not (result.proved and result.generated <= mode.budget
                        and base.issuperset(result.proof.premises)):
                    result = _derive_lumped(sys, base, route, mode.budget, *shared())
                if result.proved:
                    return result.status, result.proof
            if stmt in base:
                return "proved", premise_proof(stmt)
            memo = shared()[0]
            result = derive(base, memo.deps, stmt, mode.budget, universe, memo=memo)
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
    its own zero-step proof, and the verdict's derivations, if any, share
    one memo, one table of lumped derivations and one slice of the base
    per panel, made by the first query that derives and dropped when the
    verdict is made (see :func:`_decider`); only the system's goal proofs
    and each panel's lumping, made once per system, outlive it.
    Every lumped proof is expanded into panel i's names, then checked
    against the base and replayed in the full system by
    :meth:`~modcoherence.ci.Proof.replay` (see :func:`_derive_lumped`):
    the system's own once, when it is made, and a verdict's when the
    verdict derives it.
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

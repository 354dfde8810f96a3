"""Multi-panel composite systems and their admissibility-protocol checks.

A system of m autonomous panels shares a pool of admissible evidence: one
common-knowledge symbol, one evidence symbol per ordered panel pair, the
collection of own-domain evidence, and the full pool.  Four independence
conditions over these symbols (delegable, separately informed, cutting,
commonly separated) are generated here, and the coherence claim - that every
panel's parameter block is independent of the others given the full pool,
and is updated only through its own evidence - is verified either by the
axiomatic prover (a lumped derivation, then one search of the full system)
or by d-separation on a user-supplied graph.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from . import ModcoherenceError
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


class ProtocolError(ModcoherenceError):
    pass


class InvalidPanelCount(ProtocolError):
    pass


class IndexOutOfRange(ProtocolError):
    pass


class UniverseMismatch(ProtocolError):
    pass


class ConditionKind(enum.Enum):
    DELEGABLE = "delegable"
    SEPARATELY_INFORMED = "separately_informed"
    CUTTING = "cutting"
    COMMONLY_SEPARATED = "commonly_separated"


ALL_CONDITIONS = tuple(ConditionKind)


@dataclass(frozen=True)
class PanelSystem:
    """Symbol universe and determinism facts for an m-panel composite."""

    m: int
    epoch: int

    def theta(self, i: int) -> Symbol:
        self._check_index(i)
        return f"theta_{i}"

    def theta_rest(self, i: int) -> VarSet:
        self._check_index(i)
        return frozenset(f"theta_{j}" for j in range(1, self.m + 1) if j != i)

    def thetas(self) -> VarSet:
        return frozenset(f"theta_{j}" for j in range(1, self.m + 1))

    @property
    def common(self) -> Symbol:
        return f"I_0^{self.epoch}"

    def evidence(self, i: int, j: int) -> Symbol:
        """``I_ij^e`` for m <= 9; from m = 10 on the indices are separated,
        ``I_i_j^e``, since (1, 11) and (11, 1) would both read ``I_111^e``."""
        self._check_index(i)
        self._check_index(j)
        sep = "_" if self.m >= 10 else ""
        return f"I_{i}{sep}{j}^{self.epoch}"

    @property
    def own_evidence_pool(self) -> Symbol:
        """Collection of every panel's own-domain evidence."""
        return f"I_*^{self.epoch}"

    @property
    def full_pool(self) -> Symbol:
        """All admissible evidence at this epoch."""
        return f"I_+^{self.epoch}"

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

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise IndexOutOfRange(f"panel index {i} not in 1..{self.m}")


def build_system(m: int, epoch: int = 0) -> PanelSystem:
    if m < 1:
        raise InvalidPanelCount(f"panel count must be >= 1, got {m}")
    if epoch < 0:
        raise ProtocolError(f"epoch must be non-negative, got {epoch}")
    system = PanelSystem(m=m, epoch=epoch)
    assert len(system.universe) == m * m + m + 3, "panel symbols collide"
    return system


def condition_statement(
    sys: PanelSystem, kind: ConditionKind, i: Optional[int] = None
) -> Optional[CIStatement]:
    """The independence assertion a condition makes, or None when degenerate.

    Per-panel conditions need ``i``; with a single panel the conditions that
    quantify over "the other panels" have nothing to assert.
    """
    if kind is ConditionKind.DELEGABLE:
        return normalize(
            {sys.full_pool}, sys.thetas(), {sys.common, sys.own_evidence_pool}
        )
    if i is None:
        raise IndexOutOfRange(f"{kind.value} is a per-panel condition; panel index required")
    sys._check_index(i)
    rest = sys.theta_rest(i)
    if kind is ConditionKind.SEPARATELY_INFORMED:
        if not rest:
            return None
        return normalize({sys.evidence(i, i)}, rest, {sys.common, sys.theta(i)})
    if kind is ConditionKind.CUTTING:
        return normalize(
            {sys.own_evidence_pool},
            {sys.theta(i)},
            {sys.common, sys.evidence(i, i)} | rest,
        )
    if kind is ConditionKind.COMMONLY_SEPARATED:
        if not rest:
            return None
        return normalize({sys.theta(i)}, rest, {sys.common})
    raise ValueError(kind)


def condition_statements(sys: PanelSystem, kind: ConditionKind) -> tuple[CIStatement, ...]:
    """All statements a condition expands to, deduplicated, in canonical order."""
    if kind is ConditionKind.DELEGABLE:
        stmts = {condition_statement(sys, kind)}
    else:
        stmts = {
            s
            for i in range(1, sys.m + 1)
            if (s := condition_statement(sys, kind, i)) is not None
        }
    return tuple(sorted(stmts, key=CIStatement.sort_key))


def base_statements(
    sys: PanelSystem, conditions: Iterable[ConditionKind] = ALL_CONDITIONS
) -> tuple[CIStatement, ...]:
    out: list[CIStatement] = []
    for kind in conditions:
        out.extend(condition_statements(sys, kind))
    return tuple(sorted(set(out), key=CIStatement.sort_key))


@dataclass(frozen=True)
class AxiomaticMode:
    base: tuple[CIStatement, ...]
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class GraphicalMode:
    dag: Dag


Mode = Union[AxiomaticMode, GraphicalMode]
# (statement, route=None) -> (status, proof); a goal's route is its (panel, name)
Decide = Callable[..., tuple[str, Optional[Proof]]]
ESTABLISHED = ("proved", "trivial", "separated")  # statuses that establish a statement


@dataclass(frozen=True)
class ConditionStatus:
    kind: ConditionKind
    statements: tuple[CIStatement, ...]
    status: str  # "holds" | "not_established" | "inconclusive"
    # statements are decided in order up to the first one not established:
    # the proofs of those before it (axiomatic), or empty (graphical)
    witnesses: tuple[Proof, ...]

    @property
    def holds(self) -> bool:
        return self.status == "holds"


@dataclass(frozen=True)
class GoalResult:
    panel: int
    name: str  # "panel_independence" | "autonomous_updating"
    goal: Optional[CIStatement]
    status: str  # "proved" | "not_derivable" | "budget_exhausted" | "trivial" | "separated" | "not_separated"
    proof: Optional[Proof] = None

    @property
    def established(self) -> bool:
        return self.status in ESTABLISHED


@dataclass(frozen=True)
class Verdict:
    conditions: tuple[ConditionStatus, ...]
    goals: tuple[GoalResult, ...]
    sound_and_distributed: bool

    @property
    def inconclusive(self) -> bool:
        """Some goal's search ran out of budget, so a failure certifies nothing."""
        return any(g.status == "budget_exhausted" for g in self.goals)


def independence_goal(sys: PanelSystem, i: int) -> Optional[CIStatement]:
    """Panel i's block is independent of all other blocks given the full pool."""
    rest = sys.theta_rest(i)
    if not rest:
        return None
    return normalize({sys.theta(i)}, rest, {sys.full_pool})


def autonomy_goal(sys: PanelSystem, i: int) -> CIStatement:
    """Panel i's block depends on the pool only through common and own evidence."""
    return normalize({sys.theta(i)}, {sys.full_pool}, {sys.common, sys.evidence(i, i)})


def _goal_waypoints(sys: PanelSystem, i: int, name: str) -> tuple[CIStatement, ...]:
    """Milestones mirroring the published derivation chain for each goal."""
    rest = sys.theta_rest(i)
    common, own_i = sys.common, sys.evidence(i, i)
    pool, own = sys.full_pool, sys.own_evidence_pool
    cut_in = normalize({sys.theta(i)}, {own} | rest, {common, own_i}) if rest else None
    if name == "panel_independence":
        pooled = normalize({sys.theta(i)}, rest, {common, own})
        return tuple(w for w in (cut_in, pooled, independence_goal(sys, i)) if w is not None)
    shielded = normalize({sys.theta(i)}, {pool}, {common, own_i, own})
    own_only = normalize({sys.theta(i)}, {own}, {common, own_i})
    waypoints = [cut_in, shielded, own_only, autonomy_goal(sys, i)]
    return tuple(w for w in waypoints if w is not None)


def _lumped_universe(sys: PanelSystem, i: int) -> VarSet:
    """The six symbols of panel i's lumped derivations; the first name of
    theta_rest(i) stands for all of it (see :func:`_derive_lumped`)."""
    first = sorted(sys.theta_rest(i))[:1]
    own = {sys.theta(i), sys.common, sys.evidence(i, i), sys.own_evidence_pool, sys.full_pool}
    return frozenset(own).union(first)


def _derive_lumped(
    sys: PanelSystem,
    base: Iterable[CIStatement],
    route: tuple[int, str],
    budget: int,
    memo: Optional[Memo] = None,
) -> DeriveResult:
    """Goal ``route = (i, name)`` derived with theta_rest(i) lumped into one
    symbol, over :func:`_lumped_universe`.

    Every waypoint of panel i holds theta_rest(i) whole, and no dependency
    mentions a theta, so the determinism rules never select the lumped
    symbol.  It is the first name of theta_rest(i): a statement's
    orientation (see :func:`~modcoherence.ci.normalize`) follows the first
    name of each side, so every statement keeps it, and
    ``determinism_augment``, which moves a context symbol to the second
    side, stays the same rule instance.  The derivation runs on the base
    statements that hold theta_rest(i) whole on one side or not at all and
    otherwise stay in the lumped universe.  A proof is expanded back, symbol
    for set, into a proof in the full system, whose premises are those base
    statements; a selection of the lumped symbol becomes a multi-symbol
    decomposition or weak union.  Any other status certifies nothing about
    the full system.  ``memo`` is one for ``sys.dependencies`` and a
    universe holding the lumped one, such as the system's: the encoding
    keeps names in sorted order, so every orientation and rule order, and
    with them the proof, are the same as in a memo of the lumped universe.
    """
    i, name = route
    rest = sys.theta_rest(i)
    universe = _lumped_universe(sys, i)
    lumped = min(universe & rest, default=None)

    def lump(s: CIStatement) -> Optional[CIStatement]:
        sides = []
        for side in (s.a, s.b, s.c):
            if side & rest:
                if not rest <= side:
                    return None
                side = side - rest | {lumped}
            sides.append(side)
        return normalize(*sides)

    def expand(side: VarSet) -> VarSet:
        return side | rest if lumped in side else side

    def expanded(s: CIStatement) -> CIStatement:
        return normalize(expand(s.a), expand(s.b), expand(s.c))

    deps = sys.dependencies
    sliced = [t for s in base if (t := lump(s)) is not None and t.symbols() <= universe]
    waypoints = tuple(lump(w) for w in _goal_waypoints(sys, i, name))
    result = derive_through(sliced, deps, waypoints, budget, universe, memo=memo)
    if not result.proved:
        return result
    steps = tuple(
        ProofStep(step.rule, step.inputs, expand(step.selection), expanded(step.output))
        for step in result.proof.steps
    )
    proof = Proof(tuple(map(expanded, result.proof.premises)), steps, expanded(result.proof.goal))
    assert proof.replay(deps), "internal error: expanded proof failed replay"
    return DeriveResult("proved", proof, result.generated)


def _decider(sys: PanelSystem, mode: Mode) -> Decide:
    """The mode's ``(status, proof)`` for a statement.  Axiomatic mode tries a
    goal's lumped derivation first (:func:`_derive_lumped`), then one
    unconstrained search of the full system, so every status but ``proved``
    comes from the full system; all of them share one memo.  Graphical mode
    asks d-separation."""
    if isinstance(mode, AxiomaticMode):
        for stmt in mode.base:
            if not stmt.symbols() <= sys.universe:
                raise UniverseMismatch(f"base statement {stmt.render()} leaves the system universe")
        memo = Memo(sys.dependencies, sys.universe)

        def derived(stmt: CIStatement, route: Optional[tuple[int, str]] = None):
            if route is not None:
                result = _derive_lumped(sys, mode.base, route, mode.budget, memo)
                if result.proved:
                    return result.status, result.proof
            result = derive(mode.base, memo.deps, stmt, mode.budget, memo.universe, memo=memo)
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
    for kind in ALL_CONDITIONS:
        stmts = condition_statements(sys, kind)
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

    In axiomatic mode the verdict's derivations, lumped and full-system,
    share one :class:`~modcoherence.ci.Memo`, so each base is searched once,
    and it is dropped when the verdict is made.
    """
    decide = _decider(sys, mode)
    conditions = _conditions(sys, decide)
    goals: list[GoalResult] = []
    for i in range(1, sys.m + 1):
        for name, goal in (
            ("panel_independence", independence_goal(sys, i)),
            ("autonomous_updating", autonomy_goal(sys, i)),
        ):
            if goal is None:
                goals.append(GoalResult(i, name, None, "trivial"))
                continue
            status, proof = decide(goal, (i, name))
            goals.append(GoalResult(i, name, goal, status, proof))
    ok = all(g.established for g in goals)
    return Verdict(conditions, tuple(goals), ok)


def ablate(
    sys: PanelSystem, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[Optional[ConditionKind], Verdict], ...]:
    """Verdicts with each condition dropped in turn, plus a control row.

    Axiomatic only: a "fails" row is a saturation certificate that the goal
    is not derivable in this rule system from the remaining conditions,
    unless the row's verdict is ``inconclusive``.
    """
    rows: list[tuple[Optional[ConditionKind], Verdict]] = []
    rows.append((None, verify_coherence(sys, AxiomaticMode(base_statements(sys), budget))))
    for dropped in ALL_CONDITIONS:
        kept = tuple(k for k in ALL_CONDITIONS if k is not dropped)
        mode = AxiomaticMode(base_statements(sys, kept), budget)
        rows.append((dropped, verify_coherence(sys, mode)))
    return tuple(rows)


def canonical_dag(sys: PanelSystem) -> Dag:
    """The reference graph for a well-run protocol: parameters are roots,
    each panel's own evidence is driven by its block plus common knowledge,
    cross-panel evidence carries only common knowledge, and the two pool
    nodes deterministically aggregate their components."""
    nodes = [(t, "parameter") for t in sorted(sys.thetas())]
    nodes.append((sys.common, "common-knowledge"))
    edges = []
    for i in range(1, sys.m + 1):
        for j in range(1, sys.m + 1):
            name = sys.evidence(i, j)
            nodes.append((name, "evidence"))
            edges.append((sys.common, name))
            if i == j:
                edges.append((sys.theta(i), name))
    nodes.append((sys.own_evidence_pool, "evidence"))
    nodes.append((sys.full_pool, "evidence"))
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
    nodes = base.nodes + (("H", "parameter"),)
    edges = base.edges + tuple(("H", t) for t in sorted(sys.thetas()))
    return build_dag(nodes, edges, sys.dependencies)

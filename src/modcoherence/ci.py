"""Conditional-independence statement algebra with a saturation prover.

Statements are ternary assertions ``A _||_ B | C`` over a finite universe of
atomic symbols.  The prover forward-chains the semi-graphoid rules (symmetry,
decomposition, weak union, contraction) extended with determinism rules
licensed by declared functional dependencies, and records proof traces that
can be replayed step by step through :func:`apply_axiom`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import ModcoherenceError

Symbol = str
VarSet = frozenset

EMPTY: VarSet = frozenset()

DEFAULT_BUDGET = 200_000

RULES = (
    "symmetry",
    "decomposition",
    "weak_union",
    "contraction",
    "determinism_augment",
    "determinism_drop",
)


class CIError(ModcoherenceError):
    """Base class for statement-algebra errors."""


class OverlappingSets(CIError):
    """The three sides of a statement must be pairwise disjoint."""


class EmptySide(CIError):
    """The independent sides of a statement must be non-empty."""


class ShapeMismatch(CIError):
    """Rule inputs do not fit the rule pattern."""


class UnlicensedDeterminism(CIError):
    """No functional dependency licenses the requested rewrite."""


class SelfDependency(CIError, ValueError):
    """A functional dependency lists its determined symbol among its determiners."""


class UniverseError(CIError):
    """Inputs mention symbols outside the declared universe."""


def _skey(s: VarSet) -> tuple:
    return tuple(sorted(s))


@dataclass(frozen=True)
class CIStatement:
    """Canonical ternary independence assertion ``a _||_ b | c``.

    Construct through :func:`normalize`; the canonical representative has
    ``a`` lexicographically before ``b``, so both symmetric readings share
    one representation.
    """

    a: VarSet
    b: VarSet
    c: VarSet

    def sort_key(self) -> tuple:
        return (_skey(self.a), _skey(self.b), _skey(self.c))

    def symbols(self) -> VarSet:
        return self.a | self.b | self.c

    def render(self) -> str:
        left = ",".join(sorted(self.a))
        right = ",".join(sorted(self.b))
        given = ",".join(sorted(self.c))
        text = f"{left} _||_ {right}"
        return f"{text} | {given}" if given else text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.render()}>"


def normalize(a: Iterable[Symbol], b: Iterable[Symbol], c: Iterable[Symbol] = ()) -> CIStatement:
    """Return the canonical symmetric representative of ``(a, b, c)``.

    Inputs must already be pairwise disjoint; idempotent on its own output.
    """
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    if not a or not b:
        raise EmptySide(f"independence sides must be non-empty: ({sorted(a)}, {sorted(b)})")
    if a & b or a & c or b & c:
        raise OverlappingSets(
            f"sides must be pairwise disjoint: ({sorted(a)}, {sorted(b)}, {sorted(c)})"
        )
    if _skey(b) < _skey(a):
        a, b = b, a
    return CIStatement(a, b, c)


@dataclass(frozen=True)
class FunctionalDependency:
    """``determined`` is a function of the symbols in ``determiners``."""

    determined: Symbol
    determiners: VarSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "determiners", frozenset(self.determiners))
        if self.determined in self.determiners:
            raise SelfDependency(f"{self.determined!r} cannot determine itself")


def aggregate_dependencies(symbol: Symbol, components: Iterable[Symbol]) -> tuple[FunctionalDependency, ...]:
    """Dependencies for a symbol defined as the collection of ``components``.

    The aggregate is a function of its components and, being a plain
    collection, each component is recoverable from it.
    """
    components = frozenset(components)
    facts = [FunctionalDependency(symbol, components)]
    facts.extend(FunctionalDependency(comp, frozenset({symbol})) for comp in sorted(components))
    return tuple(facts)


def determined_closure(context: Iterable[Symbol], deps: Iterable[FunctionalDependency]) -> VarSet:
    """All symbols functionally pinned down once ``context`` is known."""
    out = set(context)
    pending = list(deps)
    changed = True
    while changed and pending:
        changed = False
        rest = []
        for dep in pending:
            if dep.determined in out:
                continue
            if dep.determiners <= out:
                out.add(dep.determined)
                changed = True
            else:
                rest.append(dep)
        pending = rest
    return frozenset(out)


def _one(inputs: Sequence[CIStatement], rule: str) -> CIStatement:
    if len(inputs) != 1:
        raise ShapeMismatch(f"{rule} takes exactly one input statement, got {len(inputs)}")
    return inputs[0]


def apply_axiom(
    rule: str,
    inputs: Sequence[CIStatement],
    selection: Iterable[Symbol] = (),
    deps: Iterable[FunctionalDependency] = (),
) -> CIStatement:
    """Apply a single inference rule and return the canonical conclusion.

    ``selection`` picks the sub-set a rule splits or moves: for
    ``decomposition`` it is the retained part of one independence side, for
    ``weak_union`` the part moved into the conditioning set, and for the
    determinism rules the single symbol being added, moved or dropped.
    Determinism rewrites are licensed by ``deps``: the moved symbol must be
    functionally determined by the (remaining) conditioning set.
    """
    inputs = list(inputs)
    selection = frozenset(selection)
    deps = tuple(deps)

    if rule == "symmetry":
        s = _one(inputs, rule)
        return normalize(s.b, s.a, s.c)

    if rule == "decomposition":
        s = _one(inputs, rule)
        for keep_side, split_side in ((s.a, s.b), (s.b, s.a)):
            if selection and selection < split_side:
                return normalize(keep_side, selection, s.c)
        raise ShapeMismatch(
            f"decomposition selection {sorted(selection)} is not a proper non-empty "
            f"subset of either side of {s.render()}"
        )

    if rule == "weak_union":
        s = _one(inputs, rule)
        for keep_side, split_side in ((s.a, s.b), (s.b, s.a)):
            if selection and selection < split_side:
                return normalize(keep_side, split_side - selection, s.c | selection)
        raise ShapeMismatch(
            f"weak_union selection {sorted(selection)} is not a proper non-empty "
            f"subset of either side of {s.render()}"
        )

    if rule == "contraction":
        if len(inputs) != 2:
            raise ShapeMismatch(f"contraction takes two input statements, got {len(inputs)}")
        s1, s2 = inputs
        for x1, y1 in ((s1.a, s1.b), (s1.b, s1.a)):
            for x2, y2 in ((s2.a, s2.b), (s2.b, s2.a)):
                if x1 == x2 and s2.c == (y1 | s1.c):
                    return normalize(x1, y1 | y2, s1.c)
        raise ShapeMismatch(
            f"contraction pattern does not match: {s1.render()} with {s2.render()}"
        )

    if rule == "determinism_augment":
        s = _one(inputs, rule)
        if len(selection) != 1:
            raise ShapeMismatch("determinism_augment selects exactly one symbol")
        (x,) = selection
        if x in s.c:
            if x not in determined_closure(s.c - {x}, deps):
                raise UnlicensedDeterminism(f"{x!r} is not determined by {sorted(s.c - {x})}")
            return normalize(s.a, s.b | {x}, s.c - {x})
        if x not in determined_closure(s.c, deps):
            raise UnlicensedDeterminism(f"{x!r} is not determined by {sorted(s.c)}")
        if x in s.b:
            if s.b == {x}:
                raise ShapeMismatch("cannot empty a side by moving its only symbol")
            return normalize(s.a, s.b - {x}, s.c | {x})
        if x in s.a:
            if s.a == {x}:
                raise ShapeMismatch("cannot empty a side by moving its only symbol")
            return normalize(s.a - {x}, s.b, s.c | {x})
        return normalize(s.a, s.b, s.c | {x})

    if rule == "determinism_drop":
        s = _one(inputs, rule)
        if len(selection) != 1:
            raise ShapeMismatch("determinism_drop selects exactly one symbol")
        (x,) = selection
        if x not in s.c:
            raise ShapeMismatch(f"{x!r} is not in the conditioning set of {s.render()}")
        if x not in determined_closure(s.c - {x}, deps):
            raise UnlicensedDeterminism(f"{x!r} is not determined by {sorted(s.c - {x})}")
        return normalize(s.a, s.b, s.c - {x})

    raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")


@dataclass(frozen=True)
class ProofStep:
    rule: str
    inputs: tuple[int, ...]  # indices into premises followed by earlier step outputs
    selection: VarSet
    output: CIStatement


@dataclass(frozen=True)
class Proof:
    """Ordered trace of rule applications from premises to a goal."""

    premises: tuple[CIStatement, ...]
    steps: tuple[ProofStep, ...]
    goal: CIStatement

    def statements(self) -> tuple[CIStatement, ...]:
        return self.premises + tuple(step.output for step in self.steps)

    def replay(self, deps: Iterable[FunctionalDependency] = ()) -> bool:
        """Re-run every step through apply_axiom and confirm it lands on the goal."""
        deps = tuple(deps)
        avail: list[CIStatement] = list(self.premises)
        for step in self.steps:
            try:
                out = apply_axiom(step.rule, [avail[i] for i in step.inputs], step.selection, deps)
            except CIError:
                return False
            if out != step.output:
                return False
            avail.append(out)
        final = avail[-1] if self.steps else None
        if self.steps:
            return final == self.goal
        return self.goal in self.premises


@dataclass(frozen=True)
class ClosureResult:
    statements: frozenset
    complete: bool
    generated: int

    def __contains__(self, stmt: CIStatement) -> bool:
        return stmt in self.statements


@dataclass(frozen=True)
class DeriveResult:
    status: str  # "proved" | "not_derivable" | "budget_exhausted"
    proof: Optional[Proof]
    generated: int

    @property
    def proved(self) -> bool:
        return self.status == "proved"


_Prov = Optional[tuple]  # (rule, premises, selection) or None for base statements


class _Saturation:
    """Deterministic worklist saturation over a fixed finite universe.

    Decomposition and weak union are generated one symbol at a time; any
    multi-symbol split is reachable as a chain of single-symbol moves, so the
    fixed point is unchanged while per-statement fanout stays linear.
    """

    def __init__(
        self,
        base: Iterable[CIStatement],
        deps: Iterable[FunctionalDependency],
        universe: Optional[Iterable[Symbol]],
        budget: int,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        base = sorted(set(base), key=CIStatement.sort_key)
        self.deps = tuple(deps)
        if universe is None:
            syms = set()
            for s in base:
                syms |= s.symbols()
            for d in self.deps:
                syms.add(d.determined)
                syms |= d.determiners
            universe = syms
        self.universe = frozenset(universe)
        for s in base:
            if not s.symbols() <= self.universe:
                raise UniverseError(f"base statement {s.render()} leaves the universe")
        self.budget = budget
        self.known: dict[CIStatement, _Prov] = {s: None for s in base}
        self.complete = False
        # contraction indexes: orientation (x, y, c) of every known statement
        self._by_x_and_ctx: dict[tuple, list] = {}  # (x, c) -> [(stmt, y)]
        self._by_x: dict[VarSet, list] = {}  # x -> [(stmt, y, c)]
        self._det_cache: dict[VarSet, VarSet] = {}

    def _det(self, ctx: VarSet) -> VarSet:
        got = self._det_cache.get(ctx)
        if got is None:
            got = determined_closure(ctx, self.deps)
            self._det_cache[ctx] = got
        return got

    def _index(self, s: CIStatement) -> None:
        for x, y in ((s.a, s.b), (s.b, s.a)):
            self._by_x_and_ctx.setdefault((x, s.c), []).append((s, y))
            self._by_x.setdefault(x, []).append((s, y, s.c))

    def _consequences(self, s: CIStatement):
        # single-symbol decomposition and weak union, both orientations
        for x, y in ((s.a, s.b), (s.b, s.a)):
            if len(y) > 1:
                for sym in sorted(y):
                    keep = y - {sym}
                    yield CIStatement(*_orient(x, keep, s.c)), ("decomposition", (s,), keep)
                    yield CIStatement(*_orient(x, keep, s.c | {sym})), (
                        "weak_union",
                        (s,),
                        frozenset({sym}),
                    )
        # contraction, s as either premise
        for x, y in ((s.a, s.b), (s.b, s.a)):
            for other, y2 in self._by_x_and_ctx.get((x, y | s.c), ()):
                if y2 & y:
                    continue
                concl = apply_axiom("contraction", (s, other), deps=self.deps)
                yield concl, ("contraction", (s, other), EMPTY)
            for other, y1, c1 in self._by_x.get(x, ()):
                if c1 <= s.c and y1 == s.c - c1 and not (y1 & y):
                    concl = apply_axiom("contraction", (other, s), deps=self.deps)
                    yield concl, ("contraction", (other, s), EMPTY)
        # determinism rewrites
        det_c = self._det(s.c)
        for sym in sorted(self.universe - s.c):
            if sym not in det_c:
                continue
            sel = frozenset({sym})
            if sym in s.b:
                if len(s.b) > 1:
                    yield CIStatement(*_orient(s.a, s.b - {sym}, s.c | {sym})), (
                        "determinism_augment",
                        (s,),
                        sel,
                    )
            elif sym in s.a:
                if len(s.a) > 1:
                    yield CIStatement(*_orient(s.a - {sym}, s.b, s.c | {sym})), (
                        "determinism_augment",
                        (s,),
                        sel,
                    )
            else:
                yield CIStatement(*_orient(s.a, s.b, s.c | {sym})), (
                    "determinism_augment",
                    (s,),
                    sel,
                )
        for sym in sorted(s.c):
            if sym not in self._det(s.c - {sym}):
                continue
            sel = frozenset({sym})
            yield CIStatement(*_orient(s.a, s.b, s.c - {sym})), ("determinism_drop", (s,), sel)
            yield CIStatement(*_orient(s.a, s.b | {sym}, s.c - {sym})), (
                "determinism_augment",
                (s,),
                sel,
            )

    def run(self, goal: Optional[CIStatement] = None) -> Optional[CIStatement]:
        if goal is not None and goal in self.known:
            self.complete = True
            return goal
        agenda = deque(self.known)
        for s in self.known:
            self._index(s)
        while agenda:
            s = agenda.popleft()
            for concl, prov in self._consequences(s):
                if concl in self.known:
                    continue
                if len(self.known) >= self.budget:
                    self.complete = False
                    return None
                self.known[concl] = prov
                self._index(concl)
                agenda.append(concl)
                if goal is not None and concl == goal:
                    return goal
        self.complete = True
        return goal if goal is not None and goal in self.known else None

    def extract_proof(self, goal: CIStatement) -> Proof:
        order: list[CIStatement] = []
        seen: set[CIStatement] = set()
        stack = [(goal, False)]
        while stack:
            stmt, expanded = stack.pop()
            if expanded:
                order.append(stmt)
                continue
            if stmt in seen:
                continue
            seen.add(stmt)
            prov = self.known[stmt]
            if prov is None:
                continue
            stack.append((stmt, True))
            for parent in reversed(prov[1]):
                stack.append((parent, False))
        premises = sorted(
            (s for s in seen if self.known[s] is None), key=CIStatement.sort_key
        )
        index: dict[CIStatement, int] = {s: i for i, s in enumerate(premises)}
        steps: list[ProofStep] = []
        for stmt in order:
            rule, parents, selection = self.known[stmt]
            steps.append(ProofStep(rule, tuple(index[p] for p in parents), selection, stmt))
            index[stmt] = len(premises) + len(steps) - 1
        return Proof(tuple(premises), tuple(steps), goal)


def _orient(a: VarSet, b: VarSet, c: VarSet) -> tuple[VarSet, VarSet, VarSet]:
    if _skey(b) < _skey(a):
        a, b = b, a
    return a, b, c


def closure(
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency] = (),
    universe: Optional[Iterable[Symbol]] = None,
    budget: int = DEFAULT_BUDGET,
) -> ClosureResult:
    """Fixed point of rule application over the universe, or a partial set.

    Deterministic given identical inputs; the resulting set is invariant
    under permutation of the base statements whenever the run completes.
    """
    engine = _Saturation(base, deps, universe, budget)
    engine.run()
    return ClosureResult(frozenset(engine.known), engine.complete, len(engine.known))


def derive(
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency] = (),
    goal: CIStatement = None,
    budget: int = DEFAULT_BUDGET,
    universe: Optional[Iterable[Symbol]] = None,
) -> DeriveResult:
    """Search for a proof of ``goal`` from ``base`` under ``deps``.

    ``not_derivable`` certifies that the goal is absent from the saturated
    closure of this rule system; ``budget_exhausted`` is inconclusive.
    """
    if goal is None:
        raise ValueError("derive requires a goal statement")
    engine = _Saturation(base, deps, universe, budget)
    if not goal.symbols() <= engine.universe:
        raise UniverseError(f"goal {goal.render()} leaves the universe")
    found = engine.run(goal)
    if found is not None:
        proof = engine.extract_proof(goal)
        assert proof.replay(engine.deps), "internal error: extracted proof failed replay"
        return DeriveResult("proved", proof, len(engine.known))
    if engine.complete:
        return DeriveResult("not_derivable", None, len(engine.known))
    return DeriveResult("budget_exhausted", None, len(engine.known))


def derive_through(
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency] = (),
    waypoints: Sequence[CIStatement] = (),
    budget: int = DEFAULT_BUDGET,
    universe: Optional[Iterable[Symbol]] = None,
) -> DeriveResult:
    """Derive the last waypoint with a trace that passes through all of them.

    Each waypoint is derived from the base plus the waypoints already proved,
    and the sub-proofs are spliced into one trace over the original premises.
    The final waypoint is the goal of the returned proof.
    """
    if not waypoints:
        raise ValueError("derive_through requires at least one waypoint")
    deps = tuple(deps)
    base = sorted(set(base), key=CIStatement.sort_key)
    premises = tuple(base)
    index: dict[CIStatement, int] = {s: i for i, s in enumerate(premises)}
    steps: list[ProofStep] = []
    current: list[CIStatement] = list(base)
    total_generated = 0
    for waypoint in waypoints:
        sub = derive(current, deps, waypoint, budget, universe)
        total_generated += sub.generated
        if not sub.proved:
            return DeriveResult(sub.status, None, total_generated)
        # map sub-proof statement positions (premises, then steps) onto the
        # spliced trace's positions
        remap: list[int] = [index[prem] for prem in sub.proof.premises]
        for step in sub.proof.steps:
            inputs = tuple(remap[i] for i in step.inputs)
            steps.append(ProofStep(step.rule, inputs, step.selection, step.output))
            spliced_at = len(premises) + len(steps) - 1
            remap.append(spliced_at)
            if step.output not in index:
                index[step.output] = spliced_at
        if not sub.proof.steps:
            # waypoint was already available; restate it so the trace shows it
            steps.append(ProofStep("symmetry", (index[waypoint],), EMPTY, waypoint))
            index[waypoint] = len(premises) + len(steps) - 1
        current.append(waypoint)
    goal = waypoints[-1]
    if steps[-1].output != goal:
        steps.append(ProofStep("symmetry", (index[goal],), EMPTY, goal))
    proof = Proof(premises, tuple(steps), goal)
    assert proof.replay(deps), "internal error: spliced proof failed replay"
    return DeriveResult("proved", proof, total_generated)

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


_Prov = Optional[tuple]  # (rule, parent triples, selection mask) or None for base statements
_Triple = tuple  # (a, b, c) int bitmasks with disjoint sides


def _orient(x: int, y: int, c: int) -> _Triple:
    """The canonical triple: the side with the lower lowest set bit first."""
    return (x, y, c) if x & -x < y & -y else (y, x, c)


class _Saturation:
    """Deterministic worklist saturation over a fixed finite universe.

    A statement is an ``(a, b, c)`` triple of int bitmasks.  Bit i stands for
    the i-th name, in sorted order, among the universe and every symbol a
    dependency mentions; rewrites only add or move universe symbols, while
    the determinism closure may chain through the others.  Names and bits
    sort alike and sides are disjoint, so putting the side with the lower
    lowest set bit first is :func:`normalize`'s orientation, and walking a
    mask from its lowest bit visits its symbols in sorted order.  Triples are
    decoded to :class:`CIStatement` only for the goal, proofs and closures.

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
        dep_symbols = set()
        for d in self.deps:
            dep_symbols.add(d.determined)
            dep_symbols |= d.determiners
        if universe is None:
            universe = set(dep_symbols)
            for s in base:
                universe |= s.symbols()
        self.universe = frozenset(universe)
        for s in base:
            if not s.symbols() <= self.universe:
                raise UniverseError(f"base statement {s.render()} leaves the universe")
        self._names = sorted(self.universe | dep_symbols)
        self._bit = {name: 1 << i for i, name in enumerate(self._names)}
        self._universe_mask = self._mask(self.universe)
        self._dep_masks = tuple(
            (self._bit[d.determined], self._mask(d.determiners)) for d in self.deps
        )
        self.budget = budget
        self.known: dict[_Triple, _Prov] = {self.encode(s): None for s in base}
        self.complete = False
        # contraction indexes over both orientations (x, y, c) of every known
        # statement: s as first premise looks up (x, y|c) in the first, as
        # second premise (x, c) in the second
        self._by_x_and_ctx: dict[tuple, list] = {}  # (x, c) -> [(stmt, y)]
        self._by_x_and_span: dict[tuple, list] = {}  # (x, y|c) -> [(stmt, y, c)]
        self._det_cache: dict[int, int] = {}

    def _mask(self, names: Iterable[Symbol]) -> int:
        mask = 0
        for name in names:
            mask |= self._bit[name]
        return mask

    def _names_of(self, mask: int) -> VarSet:
        out = []
        while mask:
            low = mask & -mask
            out.append(self._names[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def encode(self, s: CIStatement) -> _Triple:
        return (self._mask(s.a), self._mask(s.b), self._mask(s.c))

    def decode(self, t: _Triple) -> CIStatement:
        return CIStatement(*(self._names_of(m) for m in t))

    def _det(self, ctx: int) -> int:
        """Mask of :func:`determined_closure` of ``ctx``."""
        got = self._det_cache.get(ctx)
        if got is None:
            got = ctx
            changed = True
            while changed:
                changed = False
                for det, determiners in self._dep_masks:
                    if not got & det and not determiners & ~got:
                        got |= det
                        changed = True
            self._det_cache[ctx] = got
        return got

    def _index(self, s: _Triple) -> None:
        a, b, c = s
        for x, y in ((a, b), (b, a)):
            self._by_x_and_ctx.setdefault((x, c), []).append((s, y))
            self._by_x_and_span.setdefault((x, y | c), []).append((s, y, c))

    def _consequences(self, s: _Triple):
        a, b, c = s
        # single-symbol decomposition and weak union, both orientations
        for x, y in ((a, b), (b, a)):
            if y & (y - 1):
                rest = y
                while rest:
                    sym = rest & -rest
                    rest ^= sym
                    keep = y ^ sym
                    yield _orient(x, keep, c), ("decomposition", (s,), keep)
                    yield _orient(x, keep, c | sym), ("weak_union", (s,), sym)
        # contraction, s as either premise; the lists are live, so statements
        # indexed while s is expanded are matched too
        for x, y in ((a, b), (b, a)):
            for other, y2 in self._by_x_and_ctx.get((x, y | c), ()):
                yield _orient(x, y | y2, c), ("contraction", (s, other), 0)
            for other, y1, c1 in self._by_x_and_span.get((x, c), ()):
                yield _orient(x, y1 | y, c1), ("contraction", (other, s), 0)
        # determinism rewrites
        free = self._det(c) & self._universe_mask & ~c
        while free:
            sym = free & -free
            free ^= sym
            if sym & b:
                if b != sym:
                    yield _orient(a, b ^ sym, c | sym), ("determinism_augment", (s,), sym)
            elif sym & a:
                if a != sym:
                    yield _orient(a ^ sym, b, c | sym), ("determinism_augment", (s,), sym)
            else:
                yield (a, b, c | sym), ("determinism_augment", (s,), sym)
        rest = c
        while rest:
            sym = rest & -rest
            rest ^= sym
            if not sym & self._det(c ^ sym):
                continue
            yield (a, b, c ^ sym), ("determinism_drop", (s,), sym)
            yield _orient(a, b | sym, c ^ sym), ("determinism_augment", (s,), sym)

    def run(self, goal: Optional[CIStatement] = None) -> bool:
        """Saturate until ``goal`` appears (True) or the closure or the budget
        is exhausted (False)."""
        target = self.encode(goal) if goal is not None else None
        if target in self.known:
            self.complete = True
            return True
        known = self.known
        agenda = deque(known)
        for s in known:
            self._index(s)
        while agenda:
            s = agenda.popleft()
            for concl, prov in self._consequences(s):
                if concl in known:
                    continue
                if len(known) >= self.budget:
                    self.complete = False
                    return False
                known[concl] = prov
                self._index(concl)
                agenda.append(concl)
                if concl == target:
                    return True
        self.complete = True
        return False

    def extract_proof(self, goal: CIStatement) -> Proof:
        order: list[_Triple] = []
        seen: set[_Triple] = set()
        stack = [(self.encode(goal), False)]
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
        decoded = {t: self.decode(t) for t in seen}
        premises = sorted(
            (decoded[t] for t in seen if self.known[t] is None), key=CIStatement.sort_key
        )
        index: dict[CIStatement, int] = {s: i for i, s in enumerate(premises)}
        steps: list[ProofStep] = []
        for t in order:
            rule, parents, selection = self.known[t]
            stmt = decoded[t]
            inputs = tuple(index[decoded[p]] for p in parents)
            steps.append(ProofStep(rule, inputs, self._names_of(selection), stmt))
            index[stmt] = len(premises) + len(steps) - 1
        return Proof(tuple(premises), tuple(steps), goal)


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
    statements = frozenset(engine.decode(t) for t in engine.known)
    return ClosureResult(statements, engine.complete, len(engine.known))


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
    if engine.run(goal):
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

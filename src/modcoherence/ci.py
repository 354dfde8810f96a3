"""Conditional-independence statement algebra with a saturation prover.

Statements are ternary assertions ``A _||_ B | C`` over a finite universe of
atomic symbols.  The prover forward-chains the semi-graphoid rules (symmetry,
decomposition, weak union, contraction) extended with determinism rules
licensed by declared functional dependencies, and records proof traces that
can be replayed step by step through :func:`apply_axiom`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from . import ModcoherenceError, Record
from .values import DEFAULT_BUDGET

Symbol = str
VarSet = frozenset

EMPTY: VarSet = frozenset()

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


class UnknownRule(CIError, ValueError):
    """A proof step names a rule outside ``RULES``."""


class SelfDependency(CIError, ValueError):
    """A functional dependency lists a determined symbol among its determiners."""


class UniverseError(CIError):
    """Inputs mention symbols outside the declared universe."""


def _skey(s: VarSet) -> tuple:
    return tuple(sorted(s))


class CIStatement(Record):
    """Canonical ternary independence assertion ``a _||_ b | c``.

    Construct through :func:`normalize`; the canonical representative puts
    the side holding the least name in ``a``, so both symmetric readings
    share one representation.
    """

    __slots__ = ("a", "b", "c")
    a: VarSet
    b: VarSet
    c: VarSet

    def __init__(self, a: VarSet, b: VarSet, c: VarSet) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) == (other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def sort_key(self) -> tuple:
        return (_skey(self.a), _skey(self.b), _skey(self.c))

    def symbols(self) -> VarSet:
        return self.a | self.b | self.c

    def within(self, universe: VarSet) -> bool:
        """Whether every symbol lies in ``universe``, building no set."""
        return universe.issuperset(self.a) and universe.issuperset(self.b) and universe.issuperset(self.c)

    # a rendered statement reads one way while no symbol name holds one of these
    RESERVED = (",", "|")

    def render(self) -> str:
        left = ",".join(sorted(self.a))
        right = ",".join(sorted(self.b))
        given = ",".join(sorted(self.c))
        text = f"{left} _||_ {right}"
        return f"{text} | {given}" if given else text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.render()}>"


# the slots' own setters, which skip Record.__setattr__'s refusal without
# the attribute lookup of object.__setattr__
_set_a, _set_b, _set_c = (CIStatement.__dict__[name].__set__ for name in "abc")


def normalize(a: Iterable[Symbol], b: Iterable[Symbol], c: Iterable[Symbol] = ()) -> CIStatement:
    """Return the canonical symmetric representative of ``(a, b, c)``.

    Inputs must already be pairwise disjoint; idempotent on its own output.
    A str side, of any str subclass, is refused, not split into characters.
    """
    if isinstance(a, str) or isinstance(b, str) or isinstance(c, str):
        field, value = next((f, v) for f, v in zip("abc", (a, b, c)) if isinstance(v, str))
        raise CIError(f"{field} must be a collection of symbols, got {value!r}")
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    if not a or not b:
        raise EmptySide(f"independence sides must be non-empty: ({sorted(a)}, {sorted(b)})")
    if not (a.isdisjoint(b) and a.isdisjoint(c) and b.isdisjoint(c)):  # builds no set
        raise OverlappingSets(
            f"sides must be pairwise disjoint: ({sorted(a)}, {sorted(b)}, {sorted(c)})"
        )
    if min(b) < min(a):
        a, b = b, a
    return CIStatement(a, b, c)


class FunctionalDependency(Record):
    """Each symbol in ``determined`` is a function of the symbols in
    ``determiners``: the set-valued X -> Y form of Armstrong's axioms."""

    determined: VarSet
    determiners: VarSet

    def _validate(self) -> None:
        object.__setattr__(self, "determined", _symbols(self.determined, "determined"))
        object.__setattr__(self, "determiners", _symbols(self.determiners, "determiners"))
        overlap = self.determined & self.determiners
        if overlap:
            raise SelfDependency(f"{min(overlap)!r} cannot determine itself")


def _symbol(value, field: str) -> None:
    if not isinstance(value, str):
        raise CIError(f"{field} must be a symbol, got {value!r}")


def _symbols(value, field: str) -> VarSet:
    """``value`` as a set of symbols; a str is refused, since frozenset
    would split it into characters."""
    try:
        names = None if isinstance(value, str) else frozenset(value)
    except TypeError:  # not iterable, or a member that is not hashable
        names = None
    if names is None or not all(isinstance(name, str) for name in names):
        raise CIError(f"{field} must be a collection of symbols, got {value!r}")
    return names


def aggregate_dependencies(symbol: Symbol, components: Iterable[Symbol]) -> tuple[FunctionalDependency, ...]:
    """The two dependencies of a symbol defined as the collection of
    ``components``: the aggregate is a function of its components and, being
    a plain collection, the components are a function of it.
    """
    _symbol(symbol, "symbol")
    whole = FunctionalDependency(frozenset({symbol}), _symbols(components, "components"))
    return (whole, FunctionalDependency(whole.determiners, whole.determined))


def determined_closure(context: Iterable[Symbol], deps: Iterable[FunctionalDependency]) -> VarSet:
    """All symbols functionally pinned down once ``context`` is known."""
    out = set(context)
    pending = list(deps)
    changed = True
    while changed and pending:
        changed = False
        rest = []
        for dep in pending:
            if dep.determined <= out:
                continue
            if dep.determiners <= out:
                out |= dep.determined
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

    raise UnknownRule(f"unknown rule {rule!r}; expected one of {RULES}")


class ProofStep(Record):
    rule: str
    inputs: tuple[CIStatement, ...]  # premises or earlier step outputs, in the rule's order
    selection: VarSet
    output: CIStatement


class Proof(Record):
    """Ordered trace of rule applications from premises to a goal."""

    premises: tuple[CIStatement, ...]
    steps: tuple[ProofStep, ...]
    goal: CIStatement

    def statements(self) -> tuple[CIStatement, ...]:
        return self.premises + tuple(step.output for step in self.steps)

    def replay(self, deps: Iterable[FunctionalDependency] = ()) -> bool:
        """Re-run every step on statements already available and confirm it lands on the goal."""
        deps = tuple(deps)
        avail = set(self.premises)
        for step in self.steps:
            if not avail.issuperset(step.inputs):
                return False
            try:
                out = apply_axiom(step.rule, step.inputs, step.selection, deps)
            except CIError:
                return False
            if out != step.output:
                return False
            avail.add(out)
        if self.steps:
            return self.steps[-1].output == self.goal
        return self.goal in avail


class DeriveResult(Record):
    status: str  # "proved" | "not_derivable" | "budget_exhausted"
    proof: Optional[Proof]
    generated: int

    @property
    def proved(self) -> bool:
        return self.status == "proved"


_Prov = Optional[tuple]  # (rule, parent triples, selection mask, position) or None for a premise
_Triple = tuple  # (a, b, c) int bitmasks with disjoint sides


def _orient(x: int, y: int, c: int) -> _Triple:
    """The canonical triple: the side with the lower lowest set bit first."""
    return (x, y, c) if x & -x < y & -y else (y, x, c)


class Memo:
    """What the derivations over one set of dependencies share, in the
    universe it was built for or any universe inside it.

    It holds the bit encoding (bit i stands for the i-th name, in sorted
    order, among the universe and every symbol a dependency mentions), one
    determinism-closure cache and one search per ``(universe, base,
    budget)``; :meth:`decode` builds a fresh statement each call.  The
    search order does not depend on the goal, so every query on a base is
    answered from that search: a goal it already knows is proved from the
    stored provenance, any other goal resumes it, and once it has ended its
    status, ``not_derivable`` or ``budget_exhausted``, and size answer every
    goal it does not know, as a fresh search would.

    Pass one memo to every :func:`derive` and :func:`derive_through` call
    over the same dependencies; a call without one makes its own.  A memo
    keeps its searches alive, so keep it no longer than the queries that
    share it.
    """

    def __init__(self, deps: Iterable[FunctionalDependency], universe: Iterable[Symbol]) -> None:
        self.deps = tuple(deps)
        self.universe = frozenset(universe)
        self._names = sorted(self.universe | _dependency_symbols(self.deps))
        self._bit = {name: 1 << i for i, name in enumerate(self._names)}
        self.width = len(self._names)
        self._dep_masks = tuple(
            (_mask(self._bit, d.determiners), _mask(self._bit, d.determined)) for d in self.deps
        )
        self.det_cache: dict[int, int] = {}
        self.searches: dict[tuple, _Saturation] = {}  # (universe, base, budget) -> search

    def names_of(self, mask: int) -> VarSet:
        out = []
        while mask:
            low = mask & -mask
            out.append(self._names[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def encode(self, s: CIStatement) -> _Triple:
        bit = self._bit
        return (_mask(bit, s.a), _mask(bit, s.b), _mask(bit, s.c))

    def decode(self, t: _Triple) -> CIStatement:
        return CIStatement(self.names_of(t[0]), self.names_of(t[1]), self.names_of(t[2]))

    def det(self, ctx: int) -> int:
        """Mask of :func:`determined_closure` of ``ctx``."""
        got = self.det_cache.get(ctx)
        if got is None:
            got = self.det_cache[ctx] = _determined_mask(ctx, self._dep_masks)
        return got


def _mask(bit: dict[Symbol, int], names: Iterable[Symbol]) -> int:
    """The OR of each name's bit in ``bit``."""
    mask = 0  # an OR loop: half the time of sum(map(...)) on a one- or two-name side
    for name in names:
        mask |= bit[name]
    return mask


def _determined_mask(ctx: int, dep_masks: Iterable[tuple[int, int]]) -> int:
    """:func:`determined_closure` over bitmasks: ``ctx`` closed under each
    ``(determiners, determined)`` pair of masks."""
    changed = True
    while changed:
        changed = False
        for determiners, determined in dep_masks:
            if determined & ~ctx and not determiners & ~ctx:
                ctx |= determined
                changed = True
    return ctx


def _dependency_symbols(deps: Iterable[FunctionalDependency]) -> set:
    out = set()
    for d in deps:
        out |= d.determined | d.determiners
    return out


def _memo_for(
    memo: Optional[Memo],
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency],
    universe: Optional[Iterable[Symbol]],
) -> tuple[Memo, VarSet]:
    """The universe, and ``memo`` after checking it was built for ``deps`` and
    a universe holding this one, or a new memo.  Without a universe, it is
    every symbol of the base and the dependencies."""
    deps = tuple(deps)
    if universe is None:
        universe = _dependency_symbols(deps)
        for s in base:
            universe |= s.symbols()
    universe = frozenset(universe)
    if memo is None:
        return Memo(deps, universe), universe
    if memo.deps != deps or not universe <= memo.universe:
        raise ValueError("the memo was built for other dependencies or a smaller universe")
    return memo, universe


def _index(by_ctx: dict, by_span: dict, width: int, t: _Triple) -> None:
    """File ``t`` in the contraction indexes of :meth:`_Saturation.run`."""
    a, b, c = t
    # .get on plain dicts: faster than defaultdicts when most keys are new
    for x, y in ((a, b), (b, a)):
        key = x << width | c
        got = by_ctx.get(key)
        if got is None:
            by_ctx[key] = [t]
        else:
            got.append(t)
        key |= y
        got = by_span.get(key)
        if got is None:
            by_span[key] = [t]
        else:
            got.append(t)


class _Saturation:
    """Deterministic worklist saturation of one base over a fixed finite
    universe, resumed by each query that needs more of it.

    A statement is an ``(a, b, c)`` triple of int bitmasks in the encoding of
    the :class:`Memo`; rewrites only add or move symbols of the search's own
    universe, while the determinism closure may chain through every
    dependency symbol.  Names and bits sort alike and sides are disjoint, so
    putting the side with the lower lowest set bit first (:func:`_orient`)
    is :func:`normalize`'s least-name-first orientation, and walking a mask
    from its lowest bit visits its symbols in sorted order, in any memo's
    encoding.  The search files its base when it is made, in ``sort_key``
    order, each statement checked against the universe, so the first one
    outside it is named.  Triples are decoded to :class:`CIStatement` only
    for the goal and proofs, by the memo that :meth:`run` and
    :meth:`extract_proof` take; the search keeps no reference to it.

    Decomposition and weak union are generated one symbol at a time; any
    multi-symbol split is reachable as a chain of single-symbol moves, so the
    fixed point is unchanged while per-statement fanout stays linear.
    """

    def __init__(self, base: frozenset, memo: Memo, universe: VarSet, budget: int) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.universe = _mask(memo._bit, universe)
        self.budget = budget
        self.known: dict[_Triple, _Prov] = {}
        self.status: Optional[str] = None  # "not_derivable" | "budget_exhausted" once ended
        # the statements still to expand and the contraction indexes: by_ctx
        # and by_span hold both orientations (x, y, c) of every known
        # statement, keyed by x << width | ctx and holding the triple, whose
        # other side is (a | b) ^ x: by_ctx under ctx = c, by_span under
        # ctx = y | c.  s as first premise looks up x and y | c in by_ctx, as
        # second premise x and c in by_span
        self.agenda = deque()
        self.by_ctx, self.by_span = {}, {}
        # filed in the order the counts and proofs depend on
        for s in sorted(base, key=CIStatement.sort_key):
            if not s.within(universe):
                raise UniverseError(f"base statement {s.render()} leaves the universe")
            t = memo.encode(s)
            self.known[t] = None
            self.agenda.append(t)
            _index(self.by_ctx, self.by_span, memo.width, t)

    def run(self, memo: Memo, goal: Optional[CIStatement] = None) -> bool:
        """Continue the search until ``goal`` is known (True) or the closure
        is complete or the budget spent (False).  Statements are expanded in
        full, so the next run resumes where this one stopped."""
        known = self.known
        target = memo.encode(goal) if goal is not None else None
        if self.status is not None:
            return target in known
        budget, width, universe = self.budget, memo.width, self.universe
        det_cache, det = memo.det_cache, memo.det
        agenda, by_ctx, by_span = self.agenda, self.by_ctx, self.by_span

        def add(concl: _Triple, rule: str, parents: tuple, selection: int) -> bool:
            """Record a new statement; True when the budget is spent, which
            ends the search without adding it."""
            if len(known) >= budget:
                self.status = "budget_exhausted"
                return True
            known[concl] = (rule, parents, selection, len(known))
            _index(by_ctx, by_span, width, concl)
            agenda.append(concl)
            return False

        # each candidate is tested against known before its provenance is
        # built; the order is decomposition and weak union, contraction, then
        # the determinism rewrites, as the proofs and counts depend on it
        while agenda and target not in known:
            s = agenda.popleft()
            a, b, c = s
            # single-symbol decomposition and weak union, both orientations
            for x, y in ((a, b), (b, a)):
                if y & (y - 1):
                    low = x & -x
                    rest = y
                    while rest:
                        sym = rest & -rest
                        rest ^= sym
                        keep = y ^ sym
                        first = low < keep & -keep
                        concl = (x, keep, c) if first else (keep, x, c)
                        if concl not in known and add(concl, "decomposition", (s,), keep):
                            return target in known
                        wider = c | sym
                        concl = (x, keep, wider) if first else (keep, x, wider)
                        if concl not in known and add(concl, "weak_union", (s,), sym):
                            return target in known
            # contraction, s as either premise; the lists are live, so
            # statements indexed while s is expanded are matched too
            for x, y in ((a, b), (b, a)):
                high = x << width
                low = x & -x
                for other in by_ctx.get(high | y | c, ()):
                    joined = y | (other[0] | other[1]) ^ x
                    concl = (x, joined, c) if low < joined & -joined else (joined, x, c)
                    if concl not in known and add(concl, "contraction", (s, other), 0):
                        return target in known
                for other in by_span.get(high | c, ()):
                    joined = y | (other[0] | other[1]) ^ x
                    c1 = other[2]
                    concl = (x, joined, c1) if low < joined & -joined else (joined, x, c1)
                    if concl not in known and add(concl, "contraction", (other, s), 0):
                        return target in known
            # determinism rewrites
            closed = det_cache.get(c)
            if closed is None:
                closed = det(c)
            free = closed & universe & ~c
            while free:
                sym = free & -free
                free ^= sym
                wider = c | sym
                if sym & b:
                    if b == sym:
                        continue
                    concl = _orient(a, b ^ sym, wider)
                elif sym & a:
                    if a == sym:
                        continue
                    concl = _orient(a ^ sym, b, wider)
                else:
                    concl = (a, b, wider)
                if concl not in known and add(concl, "determinism_augment", (s,), sym):
                    return target in known
            rest = c
            while rest:
                sym = rest & -rest
                rest ^= sym
                narrower = c ^ sym
                closed = det_cache.get(narrower)
                if closed is None:
                    closed = det(narrower)
                if not sym & closed:
                    continue
                concl = (a, b, narrower)
                if concl not in known and add(concl, "determinism_drop", (s,), sym):
                    return target in known
                concl = _orient(a, b | sym, narrower)
                if concl not in known and add(concl, "determinism_augment", (s,), sym):
                    return target in known
        if not agenda:
            self.status = "not_derivable"
        return target in known

    def extract_proof(self, memo: Memo, goal: CIStatement) -> Proof:
        order: list[_Triple] = []
        seen: set[_Triple] = set()
        stack = [(memo.encode(goal), False)]
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
        decoded = {t: memo.decode(t) for t in seen}
        premises = sorted(
            (decoded[t] for t in seen if self.known[t] is None), key=CIStatement.sort_key
        )
        steps = []
        for t in order:
            rule, parents, selection, _ = self.known[t]
            inputs = tuple(decoded[p] for p in parents)
            steps.append(ProofStep(rule, inputs, memo.names_of(selection), decoded[t]))
        return Proof(tuple(premises), tuple(steps), goal)


def derive(
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency] = (),
    goal: CIStatement = None,
    budget: int = DEFAULT_BUDGET,
    universe: Optional[Iterable[Symbol]] = None,
    memo: Optional[Memo] = None,
) -> DeriveResult:
    """Search for a proof of ``goal`` from ``base`` under ``deps``.

    ``not_derivable`` certifies that the goal is absent from the saturated
    closure of this rule system; ``budget_exhausted`` is inconclusive.
    With a ``memo`` (see :class:`Memo`) the query is answered from the
    memo's search of this universe, base and budget, as a fresh search would.
    A goal in the base is known before the search expands anything, so it
    is its own zero-step proof, with the base's size as its count.
    """
    if goal is None:
        raise ValueError("derive requires a goal statement")
    base = frozenset(base)
    memo, universe = _memo_for(memo, base, deps, universe)
    search = memo.searches.get((universe, base, budget))
    if search is None:  # checks the budget and the base
        search = memo.searches[universe, base, budget] = _Saturation(base, memo, universe, budget)
    if not goal.within(universe):
        raise UniverseError(f"goal {goal.render()} leaves the universe")
    if not search.run(memo, goal):
        return DeriveResult(search.status, None, len(search.known))
    proof = search.extract_proof(memo, goal)
    if not proof.replay(memo.deps):
        raise AssertionError("internal error: extracted proof failed replay")
    # a fresh search stops at the goal, at once for a premise
    prov = search.known[memo.encode(goal)]
    return DeriveResult("proved", proof, len(base) if prov is None else prov[3] + 1)


def derive_through(
    base: Iterable[CIStatement],
    deps: Iterable[FunctionalDependency] = (),
    waypoints: Sequence[CIStatement] = (),
    budget: int = DEFAULT_BUDGET,
    universe: Optional[Iterable[Symbol]] = None,
    memo: Optional[Memo] = None,
) -> DeriveResult:
    """Derive the last waypoint with a trace that passes through all of them.

    Each waypoint is derived from the base plus the waypoints already proved,
    and the sub-proofs' steps make one trace over the original premises.
    The final waypoint is the goal of the returned proof.  Every sub-query
    goes through :func:`derive` with one shared ``memo``.
    """
    if not waypoints:
        raise ValueError("derive_through requires at least one waypoint")
    deps = tuple(deps)
    base = sorted(set(base), key=CIStatement.sort_key)
    memo, universe = _memo_for(memo, base, deps, universe)
    steps: list[ProofStep] = []
    current: list[CIStatement] = list(base)
    total_generated = 0
    for waypoint in waypoints:
        sub = derive(current, deps, waypoint, budget, universe, memo=memo)
        total_generated += sub.generated
        if not sub.proved:
            return DeriveResult(sub.status, None, total_generated)
        steps.extend(sub.proof.steps)
        if not sub.proof.steps:
            # waypoint was already available; restate it so the trace shows it
            steps.append(ProofStep("symmetry", (waypoint,), EMPTY, waypoint))
        current.append(waypoint)
    proof = Proof(tuple(base), tuple(steps), waypoints[-1])
    if not proof.replay(deps):
        raise AssertionError("internal error: spliced proof failed replay")
    return DeriveResult("proved", proof, total_generated)

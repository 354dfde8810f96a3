"""Independent brute-force oracles used to validate the symbolic machinery.

Everything here works by full enumeration, over small discrete joints or over
every instance of the inference rules, and is deliberately separate from the
code paths it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from graphlib import TopologicalSorter

import numpy as np

from modcoherence.ci import (
    DEFAULT_BUDGET,
    CIError,
    DeriveResult,
    FunctionalDependency,
    Proof,
    ProofStep,
    apply_axiom,
    derive,
    derive_through,
    determined_closure,
    normalize,
)
from modcoherence.dag import UnknownSymbol, d_separated
from modcoherence.panels import DegenerateLikelihood, Divergence, NonFiniteLogLikelihood
from modcoherence.protocol import base_statements


def marg_keep(p: np.ndarray, keep: set) -> np.ndarray:
    axes = tuple(i for i in range(p.ndim) if i not in keep)
    return p.sum(axis=axes, keepdims=True)


def ci_holds(p: np.ndarray, a: set, b: set, c: set, tol: float = 1e-12) -> bool:
    """Exact conditional independence via the cross-multiplied identity
    p(abc) p(c) = p(ac) p(bc), which needs no division and is exact on
    zero-probability contexts."""
    pabc = marg_keep(p, a | b | c)
    pac = marg_keep(p, a | c)
    pbc = marg_keep(p, b | c)
    pc = marg_keep(p, c)
    return float(np.max(np.abs(pabc * pc - pac * pbc))) <= tol


def random_cpt(rng: np.random.Generator, n_parent_configs: int) -> np.ndarray:
    """P(node=1 | parent config), entries kept away from 0 and 1."""
    return rng.uniform(0.05, 0.95, size=n_parent_configs)


def joint_from_cpts(order: list, parents: dict, cpts: dict) -> np.ndarray:
    """Exact joint over binary nodes by enumerating every assignment."""
    n = len(order)
    index = {node: i for i, node in enumerate(order)}
    p = np.zeros((2,) * n)
    for assignment in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for node in order:
            ps = parents[node]
            config = 0
            for parent in ps:
                config = 2 * config + assignment[index[parent]]
            p1 = cpts[node][config]
            prob *= p1 if assignment[index[node]] == 1 else 1.0 - p1
        p[assignment] = prob
    return p


def random_dag_instance(rng: np.random.Generator, n: int, edge_prob: float = 0.45):
    """Random DAG over n binary nodes plus an exact joint with random CPTs."""
    order = [f"v{i}" for i in range(n)]
    parents = {node: [] for node in order}
    edges = []
    for j in range(n):
        for i in range(j):
            if rng.random() < edge_prob:
                parents[order[j]].append(order[i])
                edges.append((order[i], order[j]))
    cpts = {node: random_cpt(rng, 2 ** len(parents[node])) for node in order}
    joint = joint_from_cpts(order, parents, cpts)
    return order, edges, joint


def structured_dag_instance(rng: np.random.Generator, kind: str):
    """Chain, fork, collider or diamond with random CPTs."""
    if kind == "chain":
        order, edges = ["v0", "v1", "v2"], [("v0", "v1"), ("v1", "v2")]
    elif kind == "fork":
        order, edges = ["v0", "v1", "v2"], [("v0", "v1"), ("v0", "v2")]
    elif kind == "collider":
        order, edges = ["v0", "v1", "v2"], [("v0", "v2"), ("v1", "v2")]
    elif kind == "diamond":
        order = ["v0", "v1", "v2", "v3"]
        edges = [("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v2", "v3")]
    else:
        raise ValueError(kind)
    parents = {node: [u for u, v in edges if v == node] for node in order}
    cpts = {node: random_cpt(rng, 2 ** len(parents[node])) for node in order}
    return order, edges, joint_from_cpts(order, parents, cpts)


def aggregate_dag_joint(rng: np.random.Generator, dag, aggregates) -> np.ndarray:
    """Exact joint over ``dag.nodes``, axis k for node k: each node named in
    ``aggregates`` is the tuple of its parents' values, so it determines each
    parent and is determined by them; every other node is binary with a random
    CPT.  A tuple node's axis has one value per parent configuration."""
    parents, _ = adjacency(dag.edges)
    order = list(TopologicalSorter({n: parents.get(n, ()) for n in dag.nodes}).static_order())
    configs: dict = {}
    size: dict = {}
    for node in order:
        configs[node] = math.prod(size[p] for p in parents.get(node, ()))
        size[node] = configs[node] if node in aggregates else 2
    free = [n for n in dag.nodes if n not in aggregates]
    cpts = {node: random_cpt(rng, configs[node]) for node in free}
    joint = np.zeros([size[n] for n in dag.nodes])
    for bits in itertools.product((0, 1), repeat=len(free)):
        value, prob = dict(zip(free, bits)), 1.0
        for node in order:
            config = 0
            for parent in sorted(parents.get(node, ())):
                config = size[parent] * config + value[parent]
            if node in aggregates:
                value[node] = config
            else:
                p1 = cpts[node][config]
                prob *= p1 if value[node] == 1 else 1.0 - p1
        joint[tuple(value[n] for n in dag.nodes)] = prob
    return joint


def all_small_queries(n: int, rng: np.random.Generator, count: int):
    """Random disjoint (a, b, c) index triples with singleton a and b."""
    out = []
    for _ in range(count):
        a, b = rng.choice(n, size=2, replace=False)
        rest = [i for i in range(n) if i not in (a, b)]
        c = [i for i in rest if rng.random() < 0.5]
        out.append(({int(a)}, {int(b)}, set(c)))
    return out


@functools.lru_cache(maxsize=64)
def adjacency(edges) -> tuple[dict, dict]:
    """Each node's parents and each node's children, as frozensets, from a
    graph's edges; a node with none is absent.  Made once per graph."""
    parents: dict = {}
    children: dict = {}
    for u, v in edges:
        parents.setdefault(v, set()).add(u)
        children.setdefault(u, set()).add(v)
    return ({n: frozenset(ps) for n, ps in parents.items()},
            {n: frozenset(cs) for n, cs in children.items()})


def descendants(dag, of) -> frozenset:
    """Every node reached from ``of`` along one or more edges."""
    _, children = adjacency(dag.edges)
    seen: set = set()
    frontier = [of]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return frozenset(seen)


def ancestors(dag, of) -> frozenset:
    """Every node reached from ``of`` against one or more edges."""
    parents, _ = adjacency(dag.edges)
    seen: set = set()
    frontier = list(of)
    while frontier:
        for parent in parents.get(frontier.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return frozenset(seen)


def d_separated_reference(dag, a, b, c=()) -> bool:
    """d-separation as a breadth-first search over (node, direction) states
    held in sets, kept to check the bitmask search against.  It is the an(Z)
    search of Koller & Friedman (2009, Alg. 3.1): a trail arriving from a
    parent at an ancestor of the conditioning set Z, or at Z itself, turns
    up to its parents.  ``dag.d_separated`` instead bounces only at Z
    (Bayes-ball), so this reference is now a different algorithm that must
    reach the same answers."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    stray = sorted((a | b | c) - dag.node_names)
    if stray:
        raise UnknownSymbol(f"query mentions undeclared nodes: {stray}")
    normalize(a, b, c)  # refuses an empty side or overlapping sides
    z = determined_closure(c, dag.dependencies) & dag.node_names
    an_z = z | ancestors(dag, z)
    parents, children = adjacency(dag.edges)
    # direction "up" means the trail arrived at the node from a child (or is
    # a query source); "down" means it arrived from a parent.
    frontier: deque = deque((node, "up") for node in sorted(a))
    visited = set(frontier)
    while frontier:
        node, direction = frontier.popleft()
        if node not in z and node in b:
            return False
        moves: list[tuple[str, str]] = []
        if direction == "up" and node not in z:
            moves.extend((p, "up") for p in parents.get(node, ()))
            moves.extend((ch, "down") for ch in children.get(node, ()))
        elif direction == "down":
            if node not in z:
                moves.extend((ch, "down") for ch in children.get(node, ()))
            if node in an_z:  # collider (or its ancestor chain) activated
                moves.extend((p, "up") for p in parents.get(node, ()))
        for move in moves:
            if move not in visited:
                visited.add(move)
                frontier.append(move)
    return True


def d_separated_both_ways(dag, a: set, b: set, c: set = frozenset()) -> bool:
    """``d_separated`` asked with ``set`` sides, which it reads through
    ``ci._symbols``, and with ``frozenset`` sides, the type a verdict
    passes, which it checks in its mask pass; the two answers must agree."""
    got = d_separated(dag, set(a), set(b), set(c))
    assert d_separated(dag, frozenset(a), frozenset(b), frozenset(c)) is got, (a, b, c)
    return got


def local_markov_basis(dag) -> frozenset:
    """One statement per node: node _||_ nondescendants-minus-parents | parents."""
    out = set()
    names = dag.node_names
    parent_map, _ = adjacency(dag.edges)
    for node in sorted(names):
        parents = parent_map.get(node, frozenset())
        nondesc = names - descendants(dag, node) - parents - {node}
        if nondesc:
            out.add(normalize({node}, nondesc, parents))
    return frozenset(out)


def random_deterministic_map(rng: np.random.Generator, n_configs: int) -> np.ndarray:
    """A surjective-ish random binary function of the conditioning block."""
    f = rng.integers(0, 2, size=n_configs)
    if f.min() == f.max():  # keep the function non-constant when possible
        f[0] = 1 - f[0]
    return f


def premise_joint_independent_given(
    rng: np.random.Generator, blocks: int = 3, c_vars: int = 1
) -> np.ndarray:
    """Joint where the first `blocks` single variables are mutually independent
    given a conditioning block of `c_vars` binary variables.

    Axis layout: block variables first, conditioning variables last.
    """
    n_c = 2 ** c_vars
    pc = rng.dirichlet(np.ones(n_c))
    parts = []
    for _ in range(blocks):
        p1 = rng.uniform(0.05, 0.95, size=n_c)
        parts.append(np.stack([1.0 - p1, p1], axis=0))  # (2, n_c)
    shape = (2,) * blocks + (2,) * c_vars
    joint = np.zeros(shape)
    for assignment in itertools.product((0, 1), repeat=blocks + c_vars):
        cfg = 0
        for bit in assignment[blocks:]:
            cfg = 2 * cfg + bit
        prob = pc[cfg]
        for k in range(blocks):
            prob *= parts[k][assignment[k], cfg]
        joint[assignment] = prob
    return joint


def reference_closure(base, deps, universe):
    """Naive fixed point of ``ci.apply_axiom`` over every rule instance.

    Each round applies every rule to every known statement (contraction to
    every ordered pair with at least one statement new in the last round),
    with every proper non-empty selection for decomposition and weak union
    and every universe symbol for the determinism rules; instances that
    ``apply_axiom`` rejects are skipped.  Independent of the prover's
    worklist, indexes and single-symbol moves.
    """
    deps = tuple(deps)
    universe = sorted(universe)

    def consequences(s, known):
        yield apply_axiom("symmetry", [s])
        for side in (s.a, s.b):
            members = sorted(side)
            for r in range(1, len(members)):
                for selection in itertools.combinations(members, r):
                    yield apply_axiom("decomposition", [s], selection)
                    yield apply_axiom("weak_union", [s], selection)
        for sym in universe:
            for rule in ("determinism_augment", "determinism_drop"):
                try:
                    yield apply_axiom(rule, [s], {sym}, deps)
                except CIError:
                    pass
        for other in known:
            if not {s.a, s.b} & {other.a, other.b}:
                continue  # contraction needs a side the premises share
            for pair in ((s, other), (other, s)):
                try:
                    yield apply_axiom("contraction", pair)
                except CIError:
                    pass

    known = set(base)
    fresh = set(base)
    while fresh:
        found = set()
        for s in fresh:
            found.update(consequences(s, known))
        fresh = found - known
        known |= fresh
    return frozenset(known)


def single_symbol_expansion(deps) -> tuple:
    """Each dependency X -> Y as the facts X -> {y}, one per y in Y: the
    same closure by Armstrong's decomposition and union rules."""
    return tuple(
        FunctionalDependency(frozenset({y}), d.determiners) for d in deps for y in sorted(d.determined)
    )


def full_path_goal_statuses(sys, mode) -> tuple:
    """The goal statuses of an axiomatic verdict decided in the full system
    only, without memos: each goal derived through its waypoints, then by an
    unconstrained search.  In the order of ``Verdict.goals``."""
    out = []
    args = (mode.base, sys.dependencies)
    for chain in sys.goal_chains.values():
        result = derive_through(*args, chain, mode.budget, sys.universe)
        if not result.proved:
            result = derive(*args, chain[-1], mode.budget, sys.universe)
        out.append(result.status)
    return tuple(out)


def panel_lump_reference(sys, i):
    """Panel i's ``lump``, written side by side with no reach test: each
    side that meets theta_rest(i) must hold all of it and has it replaced
    by its first name, and must then lie in panel i's six lumped names;
    panel i's theta and own evidence are renamed to panel 2's for i >= 2.
    None for a statement that splits theta_rest(i) or leaves those names."""
    rest = sys.theta_rest(i)
    lumped = min(rest)
    own = (sys.theta(i), sys.evidence(i, i))
    names = own if i == 1 else (sys.theta(2), sys.evidence(2, 2))
    rename = dict(zip(own, names))
    own_universe = frozenset(own) | {sys.common, sys.own_evidence_pool, sys.full_pool, lumped}

    def lump(s):
        sides = []
        for side in (s.a, s.b, s.c):
            if side & rest:
                if not rest <= side:
                    return None
                side = side - rest | {lumped}
            if not side <= own_universe:
                return None
            sides.append([rename.get(n, n) for n in side])
        return normalize(*sides)

    return lump


def lumped_in_own_names(sys, base, i, name, budget, reuse=True) -> DeriveResult:
    """Goal ``(i, name)``'s lumped derivation made in panel i's own names,
    with a fresh memo: ``base`` sliced to the statements that hold
    theta_rest(i) whole on one side or not at all and otherwise stay in
    panel i's six lumped names, with theta_rest(i) written as its first
    name; then a proof expanded back, that name as theta_rest(i), and
    replayed in the full system.  No panel borrows another's derivation or
    names, so this checks the renaming that shares them.

    With ``reuse``, the derivation of the bare conditions' slice
    (``base_statements(sys)``, searched at the default budget) stands in
    for a search of ``base``'s slice when it is proved, its search made at
    most ``budget`` statements and its lumped premises all lie in
    ``base``'s slice: a derivation holds in any base that holds its
    premises.  Without it ``base``'s slice is always searched."""
    rest = sys.theta_rest(i)
    lumped = min(rest)
    universe = {sys.theta(i), sys.evidence(i, i), sys.common, sys.own_evidence_pool,
                sys.full_pool, lumped}

    def lump(s):
        sides = []
        for side in (s.a, s.b, s.c):
            if side & rest:
                if not rest <= side:
                    return None
                side = side - rest | {lumped}
            sides.append(side)
        return normalize(*sides) if set().union(*sides) <= universe else None

    def expand(side):
        return side | rest if lumped in side else side

    def expanded(s):
        return normalize(expand(s.a), expand(s.b), expand(s.c))

    def slice_of(statements):
        return [t for s in statements if (t := lump(s)) is not None]

    sliced = slice_of(base)
    waypoints = [lump(w) for w in sys.goal_chains[i, name]]
    result = None
    if reuse:
        bare = slice_of(base_statements(sys))
        own = derive_through(bare, sys.dependencies, waypoints, DEFAULT_BUDGET, universe)
        if own.proved and own.generated <= budget and set(own.proof.premises) <= set(sliced):
            result = own
    if result is None:
        result = derive_through(sliced, sys.dependencies, waypoints, budget, universe)
    if not result.proved:
        return result
    lumped_proof = result.proof
    steps = tuple(
        ProofStep(step.rule, tuple(map(expanded, step.inputs)), expand(step.selection),
                  expanded(step.output))
        for step in lumped_proof.steps
    )
    proof = Proof(tuple(map(expanded, lumped_proof.premises)), steps, expanded(lumped_proof.goal))
    assert proof.replay(sys.dependencies)
    return DeriveResult("proved", proof, result.generated)


def pair_tables(loglik, grids) -> dict:
    """``loglik`` on each block pair's grid, as a table indexed (u, v).

    ``loglik`` is called once per point with scalar arguments; blocks outside
    the pair sit at their mid-grid reference point, as in the numeric check.
    Keys are 1-based block pairs.
    """
    ref = [float(g[len(g) // 2]) for g in grids]
    tables = {}
    for i, j in itertools.combinations(range(len(grids)), 2):
        table = np.empty((len(grids[i]), len(grids[j])))
        for (a, u), (b, v) in itertools.product(enumerate(grids[i]), enumerate(grids[j])):
            point = list(ref)
            point[i], point[j] = float(u), float(v)
            table[a, b] = float(loglik(*point))
        tables[(i + 1, j + 1)] = table
    return tables


def four_point_residuals(loglik, grids) -> dict:
    """Largest four-point interaction residual of each block pair, over every
    quadruple (u, u', v, v') of the pair's 1-D grids (see ``pair_tables``)."""
    worst = {}
    for pair, table in pair_tables(loglik, grids).items():
        # axes (u, u', v, v'): ll(u,v) + ll(u',v') - ll(u,v') - ll(u',v)
        residual = (table[:, None, :, None] + table[None, :, None, :]
                    - table[:, None, None, :] - table[None, :, :, None])
        worst[pair] = float(np.abs(residual).max())
    return worst


def reweight_reference(weights: np.ndarray, ll: np.ndarray) -> np.ndarray:
    """The grid Bayes step written out step by step, with a separate array
    for each check and each stage: ``weights * exp(min(ll - top, 0))``
    renormalized, with ``top`` the largest ``ll`` on a cell the prior gives
    mass, and the prior itself (copied) for a flat finite ``ll``.  The
    posterior is laid out, and so summed, in C order whatever the layout of
    ``ll``.  ``panels._reweight`` must match it bit for bit, error for error."""
    if np.any(np.isnan(ll)) or np.any(ll == np.inf):
        raise NonFiniteLogLikelihood("log-likelihood must be finite or -inf")
    finite = ll[np.isfinite(ll)]
    if finite.size == 0:
        raise DegenerateLikelihood("likelihood vanished on the whole grid")
    if finite.size == ll.size and finite.min() == finite.max():
        return weights.copy()
    weighted = ll[(weights > 0) & np.isfinite(ll)]
    if weighted.size == 0:
        raise DegenerateLikelihood("likelihood vanished where the prior has mass")
    top = weighted.max()
    posterior = np.asarray(weights * np.exp(np.minimum(ll - top, 0.0)), order="C")
    return posterior / posterior.sum()


def divergence_reference(p, q) -> Divergence:
    """The two densities' largest |p - q| and total variation, from one
    whole-grid difference array and its ``np.sum``; ``panels.divergence``
    must match it bit for bit."""
    diff = np.abs(p.weights - q.weights)
    return Divergence(float(diff.max()), float(0.5 * diff.sum()))


def functional_expectation_reference(post, g) -> float:
    """``np.sum`` of g times the masses over the whole grid, with g evaluated
    on the sparse mesh of the blocks and broadcast to the grid;
    ``panels.functional_expectation`` must match it bit for bit."""
    mesh = np.meshgrid(*post.blocks, indexing="ij", sparse=True)
    values = np.broadcast_to(np.asarray(g(*mesh), dtype=float), post.weights.shape)
    return float(np.sum(values * post.weights))


def block_product_reference(*blocks) -> np.ndarray:
    """The product of the blocks, reduced over a stack of their broadcast copies."""
    return np.prod(np.broadcast_arrays(*blocks), axis=0)


# -- a proof checker for machine reports, apart from ``ci`` ----------------
#
# It reads each rendered statement as name sets and checks every step by its
# own reading of the rules: it neither imports nor calls ``ci``, so a fault
# that the prover and ``ci.apply_axiom`` share cannot pass it.


def read_statement(text: str) -> tuple:
    """``"a,b _||_ c | d"`` as (its two sides as a set, its context)."""
    head, _, given = text.partition(" | ")
    left, right = (frozenset(side.split(",")) for side in head.split(" _||_ "))
    return frozenset({left, right}), frozenset(given.split(",")) if given else frozenset()


def determined(context, deps) -> frozenset:
    """Every name pinned down by ``context`` under ``deps``, pairs of
    (determiners, determined) name sets."""
    out, changed = set(context), True
    while changed:
        changed = False
        for determiners, names in deps:
            if determiners <= out and not names <= out:
                out |= names
                changed = True
    return frozenset(out)


# each rule's number of inputs and of selected names (None: any)
RULE_SHAPES = {"symmetry": (1, 0), "contraction": (2, 0), "decomposition": (1, None),
               "weak_union": (1, None), "determinism_augment": (1, 1), "determinism_drop": (1, 1)}


def licensed(rule: str, inputs: list, selection: frozenset, deps) -> set:
    """The statements ``rule`` licenses from ``inputs`` with ``selection``."""
    count, picked = RULE_SHAPES.get(rule, (None, None))
    if len(inputs) != count or picked is not None and len(selection) != picked:
        return set()
    sides, c = inputs[0]
    pairs = [(x, y) for x in sides for y in sides if x != y]
    if rule == "symmetry":
        return {inputs[0]}
    if rule == "contraction":
        sides2, c2 = inputs[1]
        return {(frozenset({x, y | w}), c)
                for x, y in pairs if x in sides2 and c2 == y | c for w in sides2 - {x}}
    if rule == "decomposition":
        return {(frozenset({x, selection}), c) for x, y in pairs if selection and selection < y}
    if rule == "weak_union":
        return {(frozenset({x, y - selection}), c | selection)
                for x, y in pairs if selection and selection < y}
    (v,) = selection
    if v in c and v in determined(c - {v}, deps):
        if rule == "determinism_drop":
            return {(sides, c - {v})}
        return {(frozenset({x, y | {v}}), c - {v}) for x, y in pairs}
    if rule == "determinism_drop" or v in c or v not in determined(c, deps):
        return set()
    if not any(v in side for side in sides):
        return {(sides, c | {v})}
    return {(frozenset({x, y - {v}}), c | {v}) for x, y in pairs if v in y and y != {v}}


def proof_fault(proof: dict, deps, given) -> str | None:
    """The first fault of a proof as ``report.proof_to_dict`` writes it, or
    None: a premise not among the rendered statements ``given``, an input
    number that is not the first place of an available statement, a step
    its rule does not license, or a last output other than the goal."""
    texts = list(proof["premises"])
    if not set(texts) <= set(given):
        return f"premises not given: {sorted(set(texts) - set(given))}"
    for k, step in enumerate(proof["steps"]):
        if not all(0 <= n < len(texts) and texts.index(texts[n]) == n for n in step["inputs"]):
            return f"step {k}: input numbers {step['inputs']}"
        inputs = [read_statement(texts[n]) for n in step["inputs"]]
        if read_statement(step["output"]) not in licensed(step["rule"], inputs,
                                                          frozenset(step["selection"]), deps):
            return f"step {k}: {step['rule']} does not give {step['output']}"
        texts.append(step["output"])
    end = texts[-1] if proof["steps"] else proof["goal"] if proof["goal"] in texts else None
    return None if end == proof["goal"] else f"the proof does not end at {proof['goal']}"

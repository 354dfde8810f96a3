"""Independent brute-force oracles used to validate the symbolic machinery.

Everything here works by full enumeration, over small discrete joints or over
every instance of the inference rules, and is deliberately separate from the
code paths it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from modcoherence.ci import CIError, apply_axiom, derive, derive_through
from modcoherence.panels import DegenerateLikelihood, NonFiniteLogLikelihood
from modcoherence.protocol import _goal_waypoints, autonomy_goal, independence_goal


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


def all_small_queries(n: int, rng: np.random.Generator, count: int):
    """Random disjoint (a, b, c) index triples with singleton a and b."""
    out = []
    for _ in range(count):
        a, b = rng.choice(n, size=2, replace=False)
        rest = [i for i in range(n) if i not in (a, b)]
        c = [i for i in rest if rng.random() < 0.5]
        out.append(({int(a)}, {int(b)}, set(c)))
    return out


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


def full_path_goal_statuses(sys, mode) -> tuple:
    """The goal statuses of an axiomatic verdict decided in the full system
    only, without memos: each goal derived through its waypoints, then by an
    unconstrained search.  In the order of ``Verdict.goals``."""
    out = []
    for i in range(1, sys.m + 1):
        for name, goal in (
            ("panel_independence", independence_goal(sys, i)),
            ("autonomous_updating", autonomy_goal(sys, i)),
        ):
            if goal is None:
                out.append("trivial")
                continue
            args = (mode.base, sys.dependencies)
            result = derive_through(*args, _goal_waypoints(sys, i, name), mode.budget, sys.universe)
            if not result.proved:
                result = derive(*args, goal, mode.budget, sys.universe)
            out.append(result.status)
    return tuple(out)


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
    mass, and the prior itself (copied) for a flat finite ``ll``.
    ``panels._reweight`` must match it bit for bit, error for error."""
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
    posterior = weights * np.exp(np.minimum(ll - top, 0.0))
    return posterior / posterior.sum()


def block_product_reference(*blocks) -> np.ndarray:
    """The product of the blocks, reduced over a stack of their broadcast copies."""
    return np.prod(np.broadcast_arrays(*blocks), axis=0)

"""Numeric engine for distributed panel updating versus full-joint inference.

Each panel's parameter block is a scalar.  Per-panel posteriors live either
in a conjugate family or on a normalized grid of support points; one type,
``GridDensity``, holds a panel's grid posterior and a product-grid one.  Distributed
inference composes autonomous per-panel updates into a product posterior; the
joint oracle runs exact grid Bayes on the full likelihood over the product
grid.  Likelihood separability - the condition under which the two pipelines
agree - is checked both symbolically (factor scopes) and numerically (exact
interaction residuals over each pair grid).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the numpy-free value types live in .values; panels re-exports them
from .values import BetaParams, Factor, PanelsError  # noqa: F401

NORM_TOL = 1e-12
# the rounding in a sum of four values of ll is a multiple of eps * max|ll|: at most
# 225 on 100,000 random separable polynomials, so 4096 eps leaves a margin of 18
RESIDUAL_RTOL = 2.0**-40


class InvalidCounts(PanelsError):
    pass


class DegenerateLikelihood(PanelsError):
    pass


class ShapeMismatch(PanelsError):
    pass


class NonFiniteLogLikelihood(PanelsError):
    pass


def _as_points(arr) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != 1:
        raise ShapeMismatch(f"points must be 1-D, got shape {pts.shape}")
    return pts


@dataclass
class GridDensity:
    """Probability masses over the product of scalar support-point blocks.

    ``blocks`` holds one 1-D array of support points per block; ``weights``
    has shape (n_1, ..., n_m), is non-negative and sums to one.  A single
    panel's density is the one-block case ``((points,), weights)``.
    """

    blocks: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.blocks = tuple(_as_points(b) for b in self.blocks)
        self.weights = np.asarray(self.weights, dtype=float)
        expected = tuple(len(b) for b in self.blocks)
        if self.weights.shape != expected:
            raise ShapeMismatch(
                f"weight array shape {self.weights.shape} != product grid shape {expected}"
            )
        # a reduction, not a full-grid bool array; initial=0 sends [] on to the sum check
        if self.weights.min(initial=0.0) < 0:
            raise PanelsError("grid weights must be non-negative")
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= NORM_TOL:  # false for a nan total too
            raise PanelsError(f"grid weights must sum to 1 within {NORM_TOL}, got {total!r}")


def uniform_grid(n: int = 101) -> GridDensity:
    return GridDensity((np.linspace(0.0, 1.0, n),), np.full(n, 1.0 / n))


def interior_grid(n: int) -> np.ndarray:
    """n equispaced points strictly inside (0, 1)."""
    return np.linspace(0.0, 1.0, n + 2)[1:-1]


def _log_kernel(theta: np.ndarray, a: float, b: float) -> np.ndarray:
    """a·log θ + b·log(1-θ), the log of θ^a (1-θ)^b; a zero coefficient's
    term is skipped, so 0·log 0 contributes 0, not nan."""
    out = np.zeros_like(theta)
    with np.errstate(divide="ignore"):
        if a:
            out = out + a * np.log(theta)
        if b:
            out = out + b * np.log1p(-theta)
    return out


def beta_grid(params: BetaParams, n: int = 101) -> GridDensity:
    """A Beta density on n equispaced support points: the uniform grid updated
    by the log kernel (alpha-1)·log θ + (beta-1)·log(1-θ), so the Beta function
    cancels.  An endpoint of infinite density (alpha or beta below 1) gets no mass."""
    def ll(theta: np.ndarray) -> np.ndarray:
        out = _log_kernel(theta, params.alpha - 1, params.beta - 1)
        return np.where(out == np.inf, -np.inf, out)

    return panel_update_grid(uniform_grid(n), ll)


def panel_update_conjugate(prior: BetaParams, stat: tuple[int, int]) -> BetaParams:
    """Beta-Bernoulli update with (successes, trials)."""
    successes, trials = stat
    if not (0 <= successes <= trials):
        raise InvalidCounts(f"need 0 <= successes <= trials, got {stat}")
    return BetaParams(prior.alpha + successes, prior.beta + (trials - successes))


def product_mean(posteriors: Sequence[BetaParams]) -> float:
    """Closed-form mean of the product of independent Beta blocks."""
    return float(np.prod([p.mean for p in posteriors]))


def _reweight(weights: np.ndarray, ll: np.ndarray) -> np.ndarray:
    """Grid Bayes step: ``weights * exp(ll)`` renormalized.

    ``ll`` is shifted by its maximum over the cells the prior gives mass, so
    the top cell keeps its own mass and the total is positive.
    A flat ``ll`` (one finite value on every cell) is the identity: a copy of
    the already-normalized prior is returned, not divided by its rounded sum.
    """
    peak = ll.argmax()  # the first nan if there is one, else the first +inf
    top = ll.flat[peak]
    if np.isnan(top) or top == np.inf:
        raise NonFiniteLogLikelihood("log-likelihood must be finite or -inf")
    if top == -np.inf:
        raise DegenerateLikelihood("likelihood vanished on the whole grid")
    if ll.min() == top:
        return weights.copy()
    massless_peak = weights.flat[peak] == 0
    if massless_peak:
        top = np.max(ll, where=weights > 0, initial=-np.inf)
        if top == -np.inf:
            raise DegenerateLikelihood("likelihood vanished where the prior has mass")
    # one buffer: exp(ll - top) * weights / total, computed in place
    posterior = np.subtract(ll, top)
    if massless_peak:  # massless cells above top would overflow to inf, and inf * 0 is nan
        np.minimum(posterior, 0.0, out=posterior)
    np.exp(posterior, out=posterior)
    posterior *= weights
    posterior /= posterior.sum()
    return posterior


def panel_update_grid(
    prior: GridDensity, loglik: Callable[[np.ndarray], np.ndarray]
) -> GridDensity:
    """Pointwise prior x likelihood on the product grid, renormalized; a
    flat likelihood (e.g. no data) returns the prior masses exactly."""
    ll = _on_product_grid(loglik, prior.blocks)
    return GridDensity(prior.blocks, _reweight(prior.weights, ll))


def _outer_product(densities: Sequence[GridDensity]) -> tuple[tuple, np.ndarray]:
    """The densities' blocks, concatenated, and the outer product of their masses."""
    if not densities:
        raise ShapeMismatch("need at least one panel posterior")
    weights = densities[0].weights
    for density in densities[1:]:
        weights = np.multiply.outer(weights, density.weights)
    return tuple(b for density in densities for b in density.blocks), weights


def compose_product(posteriors: Sequence[GridDensity]) -> GridDensity:
    """Outer product of per-block masses; marginals reproduce the inputs."""
    return GridDensity(*_outer_product(posteriors))


def _on_product_grid(f: Callable[..., np.ndarray], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """``f`` evaluated on the product grid of ``blocks``, as floats of shape
    (n_1, ..., n_m); ``f`` receives block i as an array of shape (1,..,n_i,..,1)."""
    mesh = np.meshgrid(*blocks, indexing="ij", sparse=True)
    return np.broadcast_to(np.asarray(f(*mesh), dtype=float), tuple(len(b) for b in blocks))


def joint_oracle(
    priors: Sequence[GridDensity],
    joint_loglik: Callable[..., np.ndarray],
) -> GridDensity:
    """Exact grid Bayes: product of priors times the full likelihood.

    ``joint_loglik`` receives one broadcast-ready array per block (see
    ``_on_product_grid``) and must return log-likelihoods over the product
    grid.  The result equals ``panel_update_grid(compose_product(priors),
    joint_loglik)`` bit for bit, without validating the composed prior; a
    flat likelihood (e.g. no data) returns the composed prior masses exactly.
    """
    blocks, weights = _outer_product(priors)
    ll = _on_product_grid(joint_loglik, blocks)
    return GridDensity(blocks, _reweight(weights, ll))


@dataclass(frozen=True)
class Divergence:
    max_abs: float
    total_variation: float


def divergence(p: GridDensity, q: GridDensity) -> Divergence:
    if p.weights.shape != q.weights.shape:
        raise ShapeMismatch(f"grids differ: {p.weights.shape} vs {q.weights.shape}")
    if not all(map(np.array_equal, p.blocks, q.blocks)):
        raise ShapeMismatch("support points differ between the two posteriors")
    diff = np.subtract(p.weights, q.weights)
    np.abs(diff, out=diff)
    return Divergence(float(diff.max()), float(0.5 * diff.sum()))


def functional_expectation(
    post: GridDensity, g: Callable[..., np.ndarray]
) -> float:
    """Expectation of g over the joint grid; g sees broadcast block arrays."""
    return float(np.sum(_on_product_grid(g, post.blocks) * post.weights))


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    offending: tuple = ()  # factors (symbolic) or witness quadruples (numeric)
    max_residual: float = 0.0


def separability_check_symbolic(factors: Sequence[Factor], m: int) -> SeparabilityVerdict:
    """Separable iff every declared factor touches at most one panel."""
    for factor in factors:
        if not factor.scope <= set(range(1, m + 1)):
            raise PanelsError(f"factor {factor.name!r} scope {sorted(factor.scope)} not in 1..{m}")
    offending = tuple(f for f in factors if len(f.scope) > 1)
    return SeparabilityVerdict(not offending, offending)


def separability_check_numeric(
    loglik: Callable[..., np.ndarray],
    grids: Sequence[np.ndarray],
    # unused: the check is exact; kept only because the benchmark still passes them
    tolerance: float = 1e-9,
    samples: int = 256,
    seed: int = 0,
) -> SeparabilityVerdict:
    """Detect cross-block terms exactly, over every point of each pair grid.

    For each block pair (i, j), ``loglik`` is evaluated once on the product of
    the two grids, the remaining blocks held at their mid-grid reference
    points.  With (u0, v0) the pair's own reference points, the anchored
    interaction ``R(u, v) = ll(u,v) - ll(u,v0) - ll(u0,v) + ll(u0,v0)``
    vanishes everywhere iff ``ll`` is a sum of a function of u and one of v on
    the pair grid.  The pair offends when its largest |R| exceeds its rounding
    bound, ``RESIDUAL_RTOL`` times its largest |ll|, so scaling ll never
    changes the verdict; the witness is the quadruple (u, u0, v, v0) at the
    largest |R|, whose four-point residual is R itself.  ``max_residual`` is
    the largest |R| over all pairs; every four-point residual on the pair
    grid is at most four times it.

    With three or more blocks a term that vanishes whenever some block sits
    at its mid-grid point g₅₀ passes: ``5·(a-g₅₀)(b-g₅₀)(c-g₅₀)`` on three
    ``interior_grid(101)`` blocks reads separable with ``max_residual`` 0.
    """
    grids = [_as_points(g) for g in grids]
    mid = [g.shape[0] // 2 for g in grids]
    worst = 0.0
    witnesses: list[tuple] = []
    for i, j in itertools.combinations(range(len(grids)), 2):
        blocks = [g[[k]] for g, k in zip(grids, mid)]
        blocks[i], blocks[j] = grids[i], grids[j]
        ll = _on_product_grid(loglik, blocks).reshape(len(grids[i]), len(grids[j]))
        if not np.all(np.isfinite(ll)):
            raise NonFiniteLogLikelihood("log-likelihood not finite on a pair grid")
        u0, v0 = mid[i], mid[j]
        residual = ll - ll[:, [v0]] - ll[[u0], :] + ll[u0, v0]
        u, v = np.unravel_index(int(np.abs(residual).argmax()), residual.shape)
        top = abs(float(residual[u, v]))
        worst = max(worst, top)
        if top > RESIDUAL_RTOL * float(np.abs(ll).max()):
            witnesses.append(
                (i + 1, j + 1, tuple(grids[i][[u]]), tuple(grids[i][[u0]]),
                 tuple(grids[j][[v]]), tuple(grids[j][[v0]]), float(residual[u, v]))
            )
    return SeparabilityVerdict(not witnesses, tuple(witnesses), worst)


def bernoulli_loglik(successes: int, trials: int) -> Callable[[np.ndarray], np.ndarray]:
    """Log-likelihood of (successes, trials) Bernoulli data on a [0,1] grid."""
    if not (0 <= successes <= trials):
        raise InvalidCounts(f"need 0 <= successes <= trials, got ({successes}, {trials})")

    return lambda theta: _log_kernel(np.asarray(theta, dtype=float), successes, trials - successes)


def block_product(*blocks) -> np.ndarray:
    """The product of the blocks, broadcast against each other, taken as the
    running product ((b1 * b2) * b3) ... so no stack of full-grid copies is built."""
    return functools.reduce(operator.mul, blocks)


def panel_joint_loglik(
    logliks: Sequence[Callable[[np.ndarray], np.ndarray]], strength: float
) -> Callable[..., np.ndarray]:
    """Sum of the per-panel log-likelihoods, plus ``strength`` times the
    product of the blocks when the spec declares an interaction."""

    def joint_ll(*blocks):
        total = sum(ll(b) for ll, b in zip(logliks, blocks))
        if strength:
            total = total + strength * block_product(*blocks)
        return total

    return joint_ll


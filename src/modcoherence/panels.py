"""Numeric engine for distributed panel updating versus full-joint inference.

Each panel's parameter block is a scalar.  Per-panel posteriors live either
in a conjugate family or on a normalized grid of support points; one type,
``GridDensity``, holds a panel's grid posterior and a product-grid one.  Distributed
inference composes autonomous per-panel updates into a product posterior; the
joint oracle runs exact grid Bayes on the full likelihood over the product
grid, streaming the composed prior leaf by leaf from the outer product of all
priors but the last and the last prior's masses, so that prior is never held
as a full grid.  Likelihood separability - the condition under which the two
pipelines agree - is checked both symbolically (factor scopes) and numerically
(exact interaction residuals over each pair grid).

Full-grid passes - the Bayes step, density validation, divergence and
expectations - are swept in leaves of at most ``LEAF`` cells, so each leaf's
arrays stay in cache.  Each pass reads a grid through its C-order flatten, so
a C-contiguous grid - what every bundled model returns - is read in place and
no full-grid temporary is built; a grid in any other layout is read through
one full-grid copy.  The sums follow numpy's own pairwise-summation tree
(``_pairwise``), so each equals ``np.sum`` of the whole grid bit for bit.
Every full-grid outer product of masses - the composed product and the
streamed prior - is written leaf by leaf by one helper, ``_outer_cells``;
their head, 1/T of the grid when the last density has T cells, is one
``np.multiply.outer`` per density but the last.  A density the engine
produces is written in its own validation sweep: each leaf is filled, then
checked, while it is in cache.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Sequence

import numpy as np

from . import Record

# the numpy-free value types live in .values; panels re-exports them
from .values import BetaParams, Factor, PanelsError  # noqa: F401

NORM_TOL = 1e-12
# the rounding in a sum of four values of ll is a multiple of eps * max|ll|: at most
# 225 on 100,000 random separable polynomials, so 4096 eps leaves a margin of 18
RESIDUAL_RTOL = 2.0**-40
# cells per leaf of a full-grid pass: 256 KiB of floats, so the two or three
# leaf arrays a pass touches stay in a 2 MiB L2 cache
LEAF = 2**15
# writes cells lo..hi-1 (hi - lo <= LEAF) of a flattened grid into the given leaf array
Fill = Callable[[int, int, np.ndarray], object]


class InvalidCounts(PanelsError):
    pass


class DegenerateLikelihood(PanelsError):
    pass


class ShapeMismatch(PanelsError):
    pass


class NonFiniteLogLikelihood(PanelsError):
    pass


def _pairwise(n: int, piece: Callable[[int, int], float], lo: int = 0) -> float:
    """The leaf results ``piece(lo, hi)`` over ``[lo, lo + n)``, added along
    numpy's pairwise-summation tree.

    ``np.sum`` of a contiguous float array splits a range of more than 128
    cells at its half rounded down to a multiple of 8 and adds the sums of
    the two parts.  This walk makes the same splits down to leaves of at
    most ``LEAF`` cells and calls ``piece`` on each, in order.  So when
    ``piece`` returns ``np.sum`` of a contiguous array's cells lo..hi-1, the
    result is ``np.sum`` of the whole array, bit for bit.
    """
    if n <= LEAF:
        return piece(lo, lo + n)
    half = n // 2 // 8 * 8
    return _pairwise(half, piece, lo) + _pairwise(n - half, piece, lo + half)


def _as_points(arr) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != 1:
        raise ShapeMismatch(f"points must be 1-D, got shape {pts.shape}")
    return pts


class GridDensity:
    """Probability masses over the product of scalar support-point blocks.

    ``blocks`` holds one 1-D array of support points per block; ``weights``
    has shape (n_1, ..., n_m), is non-negative and sums to one.  The
    density keeps its own C-contiguous copy of the masses, so writing to
    the array it was given leaves it valid.  A single panel's density is
    the one-block case ``((points,), weights)``.

    Every density, given or produced, passes one validation sweep: ``min``
    and ``sum`` of each leaf of its flattened masses.  The engine's own
    densities (``_written``) have each leaf written in that sweep, just
    before it is checked, so no separate pass reads the grid again.
    """

    blocks: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __init__(self, blocks: Sequence[np.ndarray], weights: np.ndarray) -> None:
        self._validate(blocks, np.array(weights, dtype=float, order="C"), None)

    @classmethod
    def _written(
        cls, blocks: Sequence[np.ndarray], weights: np.ndarray, fill: Fill
    ) -> GridDensity:
        """The density whose C-contiguous masses ``weights``, taken without
        a copy, are completed leaf by leaf by ``fill(lo, hi, part)``, in the
        validation sweep."""
        density = cls.__new__(cls)
        density._validate(blocks, weights, fill)
        return density

    def _validate(
        self, blocks: Sequence[np.ndarray], weights: np.ndarray, fill: Fill | None
    ) -> None:
        self.blocks = tuple(_as_points(b) for b in blocks)
        self.weights = weights
        expected = tuple(len(b) for b in self.blocks)
        if weights.shape != expected:
            raise ShapeMismatch(
                f"weight array shape {weights.shape} != product grid shape {expected}"
            )
        flat = weights.reshape(-1)
        low = 0.0  # a nan anywhere keeps it nan, as in weights.min()

        def leaf(lo: int, hi: int) -> float:
            nonlocal low
            part = flat[lo:hi]
            if fill is not None:
                fill(lo, hi, part)
            low = np.minimum(low, part.min(initial=0.0))
            return part.sum()

        total = float(_pairwise(flat.size, leaf))
        if low < 0:
            raise PanelsError("grid weights must be non-negative")
        if not abs(total - 1.0) <= NORM_TOL:  # false for a nan total too
            raise PanelsError(f"grid weights must sum to 1 within {NORM_TOL}, got {total!r}")


def uniform_grid(n: int) -> GridDensity:
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


def beta_grid(params: BetaParams, n: int) -> GridDensity:
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


def _outer_cells(head: np.ndarray, tail: np.ndarray) -> Fill:
    """The flattened outer product of two flat mass arrays, leaf by leaf.

    ``cells(lo, hi, out)`` writes cells lo..hi-1 into ``out`` and returns
    it.  Cell c is ``head[c // T] * tail[c % T]``, T = ``tail.size``: the
    product ``np.multiply.outer(head, tail)`` forms, bit for bit.  The cells
    left in the leaf's first row are one product; the rows after it are
    filled with their ``head`` masses, whole rows as one broadcast copy, and
    then multiplied in place by ``tail`` tiled across the leaf: one long
    multiply, not one numpy call per row.
    """
    width = tail.size
    size = min(LEAF, head.size * width)
    tiled = np.tile(tail[:size], -(-size // width))  # tail repeated over at least one leaf

    def cells(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        row, a = divmod(lo, width)
        k = min(width - a, hi - lo)  # the cells in the first row
        np.multiply(head[row], tail[a : a + k], out=out[:k])
        if k < hi - lo:
            rest = out[k:]
            full, b = divmod(rest.size, width)
            rest[: full * width].reshape(full, width)[...] = head[row + 1 : row + 1 + full, None]
            if b:  # the leaf ends mid-row
                rest[full * width :] = head[row + 1 + full]
            rest *= tiled[: rest.size]
        return out

    return cells


def _reweight(head: np.ndarray, tail: np.ndarray, ll: np.ndarray) -> tuple[np.ndarray, Fill]:
    """Grid Bayes step: the prior times ``exp(ll)``, renormalized, for a
    prior given as two flat factors and never held as a full grid.

    Returns the posterior's array and the fill that completes it leaf by
    leaf in its density's validation sweep (``GridDensity._written``): the
    array holds the unnormalized posterior and the fill divides each leaf by
    the total.  The prior's cells are those of ``_outer_cells(head, tail)``;
    each leaf computes only its own, into one leaf buffer.  ``head`` is
    ``[1.0]`` for a prior of one density.  ``ll`` is read through its
    C-order flatten: in place when it is C-contiguous, as every bundled
    model's is, and through one full-grid copy in any other layout.  It is
    shifted by its maximum over the cells the prior gives mass, so the top
    cell keeps its own mass and the total is positive.  A flat ``ll`` (one
    finite value on every cell) is the identity: the fill writes the prior's
    masses exactly, not divided by their rounded sum.
    """
    flat = ll.reshape(-1)
    n = flat.size
    posterior = np.empty(ll.shape)  # before the leaf buffers, so it can reuse freed pages
    out = posterior.reshape(-1)
    prior = _outer_cells(head, tail)
    buf = np.empty(min(n, LEAF))

    # one scan: the largest ll, and the first leaf holding it
    top, first = -np.inf, 0
    for lo in range(0, n, LEAF):
        high = flat[lo : lo + LEAF].max()
        if not high < np.inf:  # a nan or a +inf in this leaf
            raise NonFiniteLogLikelihood("log-likelihood must be finite or -inf")
        if high > top:
            top, first = high, lo
    if top == -np.inf:
        raise DegenerateLikelihood("likelihood vanished on the whole grid")
    # a flat ll holds top on every cell, so only one whose first cell holds it is read again
    if flat[0] == top and all(flat[lo : lo + LEAF].min() == top for lo in range(0, n, LEAF)):
        return posterior, prior
    # the first cell holding top; argmax would copy a read-only ll's leaf, a comparison does not
    peak = first + int((flat[first : first + LEAF] == top).argmax())
    massless_peak = prior(peak, peak + 1, buf)[0] == 0
    if massless_peak:
        top = -np.inf
        for lo in range(0, n, LEAF):
            hi = min(lo + LEAF, n)
            mass = prior(lo, hi, buf[: hi - lo]) > 0
            top = max(top, np.max(flat[lo:hi], where=mass, initial=-np.inf))
        if top == -np.inf:
            raise DegenerateLikelihood("likelihood vanished where the prior has mass")

    def leaf(lo: int, hi: int) -> float:
        part = np.subtract(flat[lo:hi], top, out=out[lo:hi])  # exp(ll - top) * prior, in place
        if massless_peak:  # massless cells above top would overflow to inf, and inf * 0 is nan
            np.minimum(part, 0.0, out=part)
        np.exp(part, out=part)
        part *= prior(lo, hi, buf[: hi - lo])
        return part.sum()

    total = _pairwise(n, leaf)
    return posterior, lambda lo, hi, part: np.divide(part, total, out=part)


def _blocks(densities: Sequence[GridDensity]) -> tuple[np.ndarray, ...]:
    """The densities' blocks, concatenated."""
    if not densities:
        raise ShapeMismatch("need at least one panel posterior")
    return tuple(b for density in densities for b in density.blocks)


def _head(densities: Sequence[GridDensity]) -> np.ndarray:
    """The outer product of the masses of every density but the last,
    flattened, nested as ((w_1 · w_2) · w_3) ...: ``[1.0]`` for one density."""
    head = np.ones(1)
    for density in densities[:-1]:
        head = np.multiply.outer(head, density.weights).reshape(-1)
    return head


def _grid_bayes(
    densities: Sequence[GridDensity], loglik: Callable[..., np.ndarray]
) -> GridDensity:
    """Exact grid Bayes on the product of the densities' grids, the prior
    streamed from ``_head`` and the last density's masses; the posterior is
    normalized leaf by leaf in its validation sweep."""
    blocks = _blocks(densities)
    ll = _on_product_grid(loglik, blocks)
    tail = densities[-1].weights.reshape(-1)
    return GridDensity._written(blocks, *_reweight(_head(densities), tail, ll))


def panel_update_grid(
    prior: GridDensity, loglik: Callable[[np.ndarray], np.ndarray]
) -> GridDensity:
    """Pointwise prior x likelihood on the product grid, renormalized; a
    flat likelihood (e.g. no data) returns the prior masses exactly."""
    return _grid_bayes([prior], loglik)


def compose_product(posteriors: Sequence[GridDensity]) -> GridDensity:
    """Outer product of per-block masses; marginals reproduce the inputs.

    Each leaf's cells are written by ``_outer_cells`` in the density's
    validation sweep, so the grid is written and checked in one pass."""
    blocks = _blocks(posteriors)
    cells = _outer_cells(_head(posteriors), posteriors[-1].weights.reshape(-1))
    return GridDensity._written(blocks, np.empty([len(b) for b in blocks]), cells)


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
    grid.  The composed prior is never held as a full grid: each leaf of the
    Bayes step streams its own prior cells from the outer product of all
    priors but the last and the last prior's masses.  The result equals
    ``panel_update_grid(compose_product(priors), joint_loglik)`` bit for bit,
    without validating the composed prior; a flat likelihood (e.g. no data)
    returns the composed prior masses exactly.
    """
    return _grid_bayes(priors, joint_loglik)


class Divergence(Record):
    max_abs: float
    total_variation: float


def divergence(p: GridDensity, q: GridDensity) -> Divergence:
    if p.weights.shape != q.weights.shape:
        raise ShapeMismatch(f"grids differ: {p.weights.shape} vs {q.weights.shape}")
    if not all(map(np.array_equal, p.blocks, q.blocks)):
        raise ShapeMismatch("support points differ between the two posteriors")
    a, b = p.weights.reshape(-1), q.weights.reshape(-1)
    buf = np.empty(min(a.size, LEAF))
    largest = 0.0  # |p - q| >= 0; a nan keeps it nan, as in diff.max()

    def leaf(lo: int, hi: int) -> float:
        nonlocal largest
        diff = np.subtract(a[lo:hi], b[lo:hi], out=buf[: hi - lo])
        np.abs(diff, out=diff)
        largest = np.maximum(largest, diff.max())
        return diff.sum()

    total = _pairwise(a.size, leaf)
    return Divergence(float(largest), float(0.5 * total))


def functional_expectation(
    post: GridDensity, g: Callable[..., np.ndarray]
) -> float:
    """Expectation of g over the joint grid; g sees broadcast block arrays.

    The values of g are read through their C-order flatten, like ``ll`` in
    ``_reweight``: in place when g returns a C-contiguous full grid, else
    through one full-grid copy."""
    values = _on_product_grid(g, post.blocks).reshape(-1)
    w = post.weights.reshape(-1)
    buf = np.empty(min(w.size, LEAF))

    def leaf(lo: int, hi: int) -> float:
        return np.multiply(values[lo:hi], w[lo:hi], out=buf[: hi - lo]).sum()

    return float(_pairwise(w.size, leaf))


class SeparabilityVerdict(Record):
    separable: bool
    offending: tuple  # witnesses (i, j, u, u0, v, v0, residual) of the numeric check
    max_residual: float


def separability_check_symbolic(factors: Sequence[Factor]) -> tuple[Factor, ...]:
    """The factors whose term couples panels: a scope of two or more and a
    nonzero strength.  The likelihood ``panel_joint_loglik`` builds from the
    factors separates by panel iff there are none."""
    return tuple(f for f in factors if len(f.scope) > 1 and f.strength)


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
    logliks: Sequence[Callable[[np.ndarray], np.ndarray]], factors: Sequence[Factor]
) -> Callable[..., np.ndarray]:
    """Sum of the per-panel log-likelihoods plus each factor's term, its
    scope's blocks read in sorted order; a scope empty or not in 1..m is refused."""
    m = len(logliks)
    for factor in factors:
        if not factor.scope or not factor.scope <= set(range(1, m + 1)):
            raise PanelsError(f"factor {factor.name!r} scope {sorted(factor.scope)} not in 1..{m}")

    def joint_ll(*blocks):
        total = sum(ll(b) for ll, b in zip(logliks, blocks))
        for f in factors:
            total = total + f.strength * block_product(*(blocks[i - 1] for i in sorted(f.scope)))
        return total

    return joint_ll


class GridComparison(Record):
    joint_ll: Callable[..., np.ndarray]
    distributed: GridDensity
    oracle: GridDensity
    divergence: Divergence


def grid_comparison(
    priors: Sequence[GridDensity],
    logliks: Sequence[Callable[[np.ndarray], np.ndarray]],
    factors: Sequence[Factor],
) -> GridComparison:
    """Distributed updating against one analyst's on the same prior grids:
    the joint log-likelihood ``panel_joint_loglik(logliks, factors)``, the
    distributed posterior (each panel's prior grid updated by its own
    log-likelihood, then composed), the joint oracle and their divergence."""
    joint_ll = panel_joint_loglik(logliks, factors)
    distributed = compose_product([panel_update_grid(g, ll) for g, ll in zip(priors, logliks)])
    oracle = joint_oracle(priors, joint_ll)
    return GridComparison(joint_ll, distributed, oracle, divergence(distributed, oracle))

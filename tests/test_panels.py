"""Numeric tests: conjugate updates, grid posteriors, product composition,
the joint oracle, divergence metrics and separability checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoherence.panels import (
    BetaParams,
    DegenerateLikelihood,
    Divergence,
    Factor,
    GridDensity,
    InvalidCounts,
    NonFiniteLogLikelihood,
    _reweight,
    PanelsError,
    RESIDUAL_RTOL,
    SeparabilityVerdict,
    ShapeMismatch,
    bernoulli_loglik,
    beta_grid,
    block_product,
    compose_product,
    divergence,
    functional_expectation,
    interior_grid,
    joint_oracle,
    panel_joint_loglik,
    panel_update_conjugate,
    panel_update_grid,
    separability_check_numeric,
    separability_check_symbolic,
    uniform_grid,
)

from .oracles import (
    block_product_reference,
    four_point_residuals,
    marg_keep,
    pair_tables,
    reweight_reference,
)


class TestConjugate:
    def test_symmetric_prior_symmetric_data(self):
        post = panel_update_conjugate(BetaParams(1, 1), (50, 100))
        assert post == BetaParams(51, 51)
        assert post.mean == 0.5

    def test_rare_event_posterior(self):
        post = panel_update_conjugate(BetaParams(1, 1), (5, 100))
        assert post == BetaParams(6, 96)
        assert post.mean == pytest.approx(6 / 102, abs=1e-15)

    def test_no_data_identity(self):
        assert panel_update_conjugate(BetaParams(2, 3), (0, 0)) == BetaParams(2, 3)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            panel_update_conjugate(BetaParams(1, 1), (5, 3))
        with pytest.raises(InvalidCounts):
            panel_update_conjugate(BetaParams(1, 1), (-1, 3))

    def test_invalid_prior(self):
        with pytest.raises(PanelsError):
            BetaParams(0, 1)


class TestGridUpdate:
    def test_agrees_with_conjugate_at_high_resolution(self):
        prior = uniform_grid(1001)
        post = panel_update_grid(prior, bernoulli_loglik(50, 100))
        exact = panel_update_conjugate(BetaParams(1, 1), (50, 100))
        joint = compose_product([post])
        mean = functional_expectation(joint, lambda t: t)
        var = functional_expectation(joint, lambda t: t * t) - mean * mean
        assert mean == pytest.approx(exact.mean, abs=1e-6)
        assert var == pytest.approx(exact.variance, abs=1e-6)

    def test_zero_loglik_returns_prior(self):
        prior = beta_grid(BetaParams(2, 5), 101)
        post = panel_update_grid(prior, lambda t: np.zeros_like(t))
        assert np.array_equal(post.weights, prior.weights)

    def test_beta_grid_when_the_density_underflows_everywhere(self):
        # the Beta density is 0 in floating point at every grid point; the
        # grid-normalized kernel puts all the mass on 0.99, the last point
        # before 1 (at 1 itself the density is exactly 0)
        weights = beta_grid(BetaParams(1e6, 3), 101).weights
        assert weights.sum() == 1.0
        assert np.flatnonzero(weights).tolist() == [99]

    def test_degenerate_likelihood(self):
        with pytest.raises(DegenerateLikelihood):
            panel_update_grid(uniform_grid(11), lambda t: np.full_like(t, -np.inf))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteLogLikelihood):
            panel_update_grid(uniform_grid(11), lambda t: np.full_like(t, np.nan))

    def test_grid_density_validation(self):
        with pytest.raises(ShapeMismatch):
            GridDensity((np.zeros(3),), np.array([0.5, 0.5]))
        with pytest.raises(PanelsError):
            GridDensity((np.zeros(2),), np.array([0.7, 0.7]))
        with pytest.raises(PanelsError):
            GridDensity((np.zeros(2),), np.array([1.5, -0.5]))
        with pytest.raises(PanelsError):
            GridDensity((np.zeros(0),), np.zeros(0))

    def test_two_block_density_validation(self):
        g = np.array([0.25, 0.75])
        # sums to one, but with a negative mass
        with pytest.raises(PanelsError, match="non-negative"):
            GridDensity((g, g), np.array([[1.5, 0.0], [0.0, -0.5]]))
        # off by 1e-11: NORM_TOL is absolute, with no relative slack on top
        with pytest.raises(PanelsError, match="sum to 1"):
            GridDensity((g, g), np.array([[0.5, 0.0], [0.0, 0.5 + 1e-11]]))
        with pytest.raises(ShapeMismatch):
            GridDensity((g, g), np.full(4, 0.25))

    def test_grid_density_rejects_column_points(self):
        # blocks are scalar: an (n, 1) column is not a 1-D point array
        with pytest.raises(ShapeMismatch):
            GridDensity((np.zeros((2, 1)),), np.array([0.5, 0.5]))


class TestComposeAndOracle:
    def test_two_uniform_grids_compose_to_uniform(self):
        joint = compose_product([uniform_grid(5), uniform_grid(7)])
        assert joint.weights.shape == (5, 7)
        assert np.allclose(joint.weights, 1.0 / 35.0, atol=1e-15)

    def test_marginal_preservation_exact(self):
        p1 = panel_update_grid(uniform_grid(101), bernoulli_loglik(50, 100))
        p2 = panel_update_grid(uniform_grid(101), bernoulli_loglik(20, 60))
        joint = compose_product([p1, p2])
        assert np.max(np.abs(marg_keep(joint.weights, {0}).ravel() - p1.weights)) <= 1e-12
        assert np.max(np.abs(marg_keep(joint.weights, {1}).ravel() - p2.weights)) <= 1e-12

    def test_single_panel_identity(self):
        p = beta_grid(BetaParams(3, 2), 41)
        joint = compose_product([p])
        assert np.allclose(joint.weights, p.weights, atol=1e-15)

    def test_prior_only_identity(self):
        """With no data the distributed and joint pipelines coincide exactly."""
        priors = [beta_grid(BetaParams(2, 2), 51), beta_grid(BetaParams(1, 3), 51)]
        distributed = compose_product(priors)
        oracle = joint_oracle(priors, lambda t1, t2: np.zeros((1, 1)))
        d = divergence(distributed, oracle)
        assert d.max_abs == 0.0 and d.total_variation == 0.0

    def test_oracle_nan_rejected(self):
        priors = [uniform_grid(5), uniform_grid(7)]
        with pytest.raises(NonFiniteLogLikelihood):
            joint_oracle(priors, lambda t1, t2: np.full((5, 7), np.nan))

    def test_oracle_degenerate_likelihood(self):
        priors = [uniform_grid(5), uniform_grid(7)]
        with pytest.raises(DegenerateLikelihood):
            joint_oracle(priors, lambda t1, t2: np.full((5, 7), -np.inf))

    def test_oracle_matches_distributed_on_separable_likelihood(self):
        priors = [uniform_grid(101), uniform_grid(101)]
        ll1, ll2 = bernoulli_loglik(50, 100), bernoulli_loglik(20, 60)
        distributed = compose_product(
            [panel_update_grid(priors[0], ll1), panel_update_grid(priors[1], ll2)]
        )
        oracle = joint_oracle(priors, lambda t1, t2: ll1(t1) + ll2(t2))
        assert divergence(distributed, oracle).max_abs <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", [2, 3])
    def test_oracle_is_the_grid_update_of_the_composed_prior(self, seed, m):
        rng = np.random.default_rng(seed)
        priors = [beta_grid(BetaParams(*rng.uniform(1, 6, size=2)), int(n))
                  for n in rng.integers(5, 30, size=m)]
        logliks = [bernoulli_loglik(int(s), 20) for s in rng.integers(0, 21, size=m)]
        joint_ll = panel_joint_loglik(logliks, float(rng.uniform(0, 15)))
        oracle = joint_oracle(priors, joint_ll)
        reference = panel_update_grid(compose_product(priors), joint_ll)
        assert np.array_equal(oracle.weights, reference.weights)
        assert all(map(np.array_equal, oracle.blocks, reference.blocks))

    def test_divergence_trivial_cases(self):
        p = compose_product([uniform_grid(3), uniform_grid(3)])
        assert divergence(p, p) == Divergence(0.0, 0.0)
        w1 = np.zeros((3, 3)); w1[0, 0] = 1.0
        w2 = np.zeros((3, 3)); w2[1, 1] = 1.0
        a = GridDensity(p.blocks, w1)
        b = GridDensity(p.blocks, w2)
        assert divergence(a, b).total_variation == pytest.approx(1.0, abs=1e-15)

    def test_divergence_shape_mismatch(self):
        p = compose_product([uniform_grid(3), uniform_grid(3)])
        q = compose_product([uniform_grid(3), uniform_grid(4)])
        with pytest.raises(ShapeMismatch):
            divergence(p, q)

    def test_functional_expectation(self):
        joint = compose_product([uniform_grid(21), uniform_grid(21)])
        assert functional_expectation(joint, lambda a, b: np.ones((1, 1))) == pytest.approx(1.0)
        # E[t1] on a uniform product grid is the grid mean of block 1
        got = functional_expectation(joint, lambda t1, t2: t1 * np.ones_like(t2))
        assert got == pytest.approx(0.5, abs=1e-12)


def _random_reweight_case(seed: int, shape: tuple, view: bool):
    """Random prior weights and log-likelihood on ``shape``, about a tenth of
    the cells at -inf; with ``view``, ``ll`` is a read-only ``broadcast_to``
    view, as ``_on_product_grid`` returns, whose first axis repeats when it
    is not the only one."""
    rng = np.random.default_rng(seed)
    weights = rng.random(shape)
    weights[rng.random(shape) < 0.05] = 0.0
    weights /= weights.sum()
    base = (1,) + shape[1:] if view and len(shape) > 1 else shape
    ll = rng.normal(scale=40.0, size=base)
    ll[rng.random(base) < 0.1] = -np.inf
    return weights, (np.broadcast_to(ll, shape) if view else ll)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


class TestReweightContract:
    """``_reweight`` against ``oracles.reweight_reference``, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(257,), (13, 17, 19)])
    @pytest.mark.parametrize("view", [False, True])
    def test_bit_identical_to_the_reference(self, seed, shape, view):
        weights, ll = _random_reweight_case(seed, shape, view)
        assert _bits(_reweight(weights, ll)) == _bits(reweight_reference(weights, ll))

    @pytest.mark.parametrize("cells, cls, message", [
        ([0.0, np.nan, 1.0], NonFiniteLogLikelihood, "log-likelihood must be finite or -inf"),
        ([np.nan, np.inf, 0.0], NonFiniteLogLikelihood, "log-likelihood must be finite or -inf"),
        ([np.inf, -np.inf, 0.0], NonFiniteLogLikelihood, "log-likelihood must be finite or -inf"),
        ([-np.inf, -np.inf, -np.inf], DegenerateLikelihood,
         "likelihood vanished on the whole grid"),
    ])
    def test_errors(self, cells, cls, message):
        for reweight in (_reweight, reweight_reference):
            with pytest.raises(cls) as info:
                reweight(np.full(3, 1 / 3), np.array(cells))
            assert str(info.value) == message

    def test_underflow_to_zero_mass(self):
        # the likelihood peaks where the prior has no mass; shifting by that
        # peak alone would underflow every weighted cell to zero mass
        weights, ll = np.array([0.0, 1.0]), np.array([0.0, -1e4])
        assert _bits(_reweight(weights, ll)) == _bits(np.array([0.0, 1.0]))
        assert _bits(reweight_reference(weights, ll)) == _bits(np.array([0.0, 1.0]))

    def test_massless_cells_above_the_shift_get_no_mass(self):
        # cells 0 and 2 lie far above the weighted cells' maximum; exp of
        # their shifted ll would overflow to inf, and inf * 0 is nan
        weights = np.array([0.0, 0.25, 0.0, 0.75])
        ll = np.array([1e4, -2.0, 800.0, -3.0])
        got = _reweight(weights, ll)
        assert np.all(np.isfinite(got)) and got[0] == got[2] == 0.0
        assert got[1:4:2] == pytest.approx([0.25 * math.e / (0.25 * math.e + 0.75),
                                            0.75 / (0.25 * math.e + 0.75)], rel=1e-15)
        assert _bits(got) == _bits(reweight_reference(weights, ll))

    def test_likelihood_finite_only_on_massless_cells(self):
        for reweight in (_reweight, reweight_reference):
            with pytest.raises(DegenerateLikelihood) as info:
                reweight(np.array([0.0, 0.5, 0.5]), np.array([2.0, -np.inf, -np.inf]))
            assert str(info.value) == "likelihood vanished where the prior has mass"

    def test_flat_with_one_minus_inf_cell_is_not_the_identity(self):
        weights = np.full(5, 0.2)
        ll = np.full(5, 2.5)
        ll[2] = -np.inf
        got = _reweight(weights, ll)
        assert got[2] == 0.0 and not np.array_equal(got, weights)
        assert _bits(got) == _bits(reweight_reference(weights, ll))

    @pytest.mark.parametrize("view", [False, True])
    def test_flat_finite_returns_an_equal_copy(self, view):
        weights = beta_grid(BetaParams(2, 5), 11).weights
        ll = np.broadcast_to(np.array([3.5]), (11,)) if view else np.full(11, 3.5)
        got = _reweight(weights, ll)
        assert _bits(got) == _bits(weights)
        assert not np.shares_memory(got, weights)

    def test_inputs_and_posteriors_are_left_unchanged(self):
        rng = np.random.default_rng(7)
        priors = [beta_grid(BetaParams(2, 3), 9), beta_grid(BetaParams(3, 2), 11)]
        prior_weights = [p.weights.copy() for p in priors]
        ll1 = rng.normal(size=9)
        ll2 = rng.normal(size=(9, 11))
        owned = [ll1.copy(), ll2.copy()]
        assert ll1.flags.writeable and ll2.flags.writeable
        post = panel_update_grid(priors[0], lambda t: ll1)
        distributed = compose_product([post, priors[1]])
        oracle = joint_oracle(priors, lambda t1, t2: ll2)
        posteriors = [distributed.weights.copy(), oracle.weights.copy()]
        divergence(distributed, oracle)
        for prior, before in zip(priors, prior_weights):
            assert _bits(prior.weights) == _bits(before)
        assert _bits(ll1) == _bits(owned[0]) and _bits(ll2) == _bits(owned[1])
        assert _bits(distributed.weights) == _bits(posteriors[0])
        assert _bits(oracle.weights) == _bits(posteriors[1])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_block_product_bit_identical_to_the_stacked_product(seed, m):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=int(n)) for n in rng.integers(2, 9, size=m)]
    mesh = np.meshgrid(*blocks, indexing="ij", sparse=True)
    assert _bits(block_product(*mesh)) == _bits(block_product_reference(*mesh))


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates and traces, its result included
    (numpy reports its array buffers to ``tracemalloc``)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFullGridTemporaries:
    """Peak memory of the grid steps in full-grid float arrays, so that a
    reintroduced full-grid temporary fails."""

    N = 101
    FULL = 8 * N**3

    @pytest.fixture(scope="class")
    def case(self):
        priors = [beta_grid(BetaParams(a, b), self.N) for a, b in [(2, 3), (3, 2), (1, 1)]]
        logliks = [bernoulli_loglik(3, 10), bernoulli_loglik(5, 8), bernoulli_loglik(1, 4)]
        joint_ll = panel_joint_loglik(logliks, 12.0)
        mesh = np.meshgrid(*[b for p in priors for b in p.blocks], indexing="ij", sparse=True)
        ll = np.asarray(joint_ll(*mesh))
        oracle = joint_oracle(priors, joint_ll)
        return priors, mesh, ll, compose_product(priors), oracle

    def test_joint_oracle(self, case):
        # the likelihood is evaluated beforehand, so only the engine's own
        # arrays count: the composed prior and the posterior
        priors, _, ll, _, _ = case
        peak = _traced_peak(lambda: joint_oracle(priors, lambda *blocks: ll))
        assert peak / self.FULL <= 2.05

    def test_divergence(self, case):
        _, _, _, distributed, oracle = case
        assert _traced_peak(lambda: divergence(distributed, oracle)) / self.FULL <= 1.05

    def test_functional_expectation_of_the_block_product(self, case):
        oracle = case[4]
        peak = _traced_peak(lambda: functional_expectation(oracle, block_product))
        assert peak / self.FULL <= 2.05

    def test_block_product_on_the_sparse_mesh(self, case):
        mesh = case[1]
        assert _traced_peak(lambda: block_product(*mesh)) / self.FULL <= 1.05


class TestSeparability:
    def test_symbolic_single_panel_scopes(self):
        factors = (Factor("f1", frozenset({1})), Factor("f2", frozenset({2})),
                   Factor("f3", frozenset({1})))
        assert separability_check_symbolic(factors, 2).separable

    def test_symbolic_cross_scope_offends(self):
        factors = (Factor("f1", frozenset({1})), Factor("g", frozenset({1, 2})))
        verdict = separability_check_symbolic(factors, 2)
        assert not verdict.separable
        assert verdict.offending[0].name == "g"

    def test_symbolic_empty_factor_list(self):
        assert separability_check_symbolic((), 3).separable

    def test_symbolic_scope_out_of_range(self):
        with pytest.raises(PanelsError):
            separability_check_symbolic((Factor("f", frozenset({5})),), 2)

    def test_numeric_separable(self):
        grid = np.linspace(0.05, 0.95, 64)
        ll = lambda t1, t2: (50 * np.log(t1) + 50 * np.log1p(-t1)
                             + 50 * np.log(t2) + 50 * np.log1p(-t2))
        verdict = separability_check_numeric(ll, [grid, grid])
        assert verdict.separable
        assert verdict.max_residual <= 1e-9

    def test_numeric_constant_is_separable(self):
        grid = np.linspace(0.1, 0.9, 16)
        verdict = separability_check_numeric(lambda a, b: np.zeros_like(a), [grid, grid])
        assert verdict.separable

    def test_numeric_interaction_detected_with_witness(self):
        grid = np.linspace(0.05, 0.95, 64)
        verdict = separability_check_numeric(lambda a, b: 12.0 * a * b, [grid, grid])
        assert not verdict.separable
        assert verdict.max_residual > 1e-3
        i, j, u, up, v, vp, res = verdict.offending[0]
        assert (i, j) == (1, 2)
        # the four-point identity recomputes the reported residual
        f = lambda a, b: 12.0 * a * b
        assert res == pytest.approx(f(u[0], v[0]) + f(up[0], vp[0])
                                    - f(u[0], vp[0]) - f(up[0], v[0]), abs=1e-12)

    def test_numeric_three_blocks_hold_the_third_at_its_reference(self):
        # blocks 1 and 3 interact; each pair's residual holds the remaining
        # block at one reference point, so only the pair (1, 3) offends
        grids = [np.linspace(0.05, 0.95, n) for n in (64, 33, 48)]
        f = lambda a, b, c: 12.0 * a * c + 5.0 * b * b + 3.0 * a - c
        verdict = separability_check_numeric(f, grids)
        assert not verdict.separable
        assert [(w[0], w[1]) for w in verdict.offending] == [(1, 3)]
        _, _, u, up, v, vp, res = verdict.offending[0]
        g = lambda a, c: f(a, 0.5, c)
        assert res == pytest.approx(g(u[0], v[0]) + g(up[0], vp[0])
                                    - g(u[0], vp[0]) - g(up[0], v[0]), abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="pairs are checked only through the other "
                       "blocks' mid-grid points; see separability_check_numeric")
    def test_numeric_three_way_term_vanishing_at_the_references(self):
        # the term is 0 wherever one block sits at its mid-grid point, so
        # every pair slice the check evaluates is separable
        g = interior_grid(101)
        verdict = separability_check_numeric(
            lambda a, b, c: 5.0 * (a - g[50]) * (b - g[50]) * (c - g[50]), [g] * 3
        )
        assert not verdict.separable

    def test_numeric_one_block_has_no_pair_to_test(self):
        verdict = separability_check_numeric(lambda a: 12.0 * a * a, [np.linspace(0, 1, 9)])
        assert verdict == SeparabilityVerdict(True, (), 0.0)

    def test_numeric_deterministic(self):
        grid = np.linspace(0.05, 0.95, 32)
        ll = lambda a, b: 3.0 * a * b
        v1 = separability_check_numeric(ll, [grid, grid])
        v2 = separability_check_numeric(ll, [grid, grid])
        assert v1 == v2

    def test_numeric_finds_a_one_cell_interaction(self):
        # a sampled check sees this cell only if it happens to draw it
        g = interior_grid(101)
        f = lambda a, b: 40.0 * np.log(a) + 3.0 * ((a == g[17]) & (b == g[83]))
        verdict = separability_check_numeric(f, [g, g])
        assert not verdict.separable
        assert verdict.max_residual == pytest.approx(3.0)
        [(i, j, u, up, v, vp, res)] = verdict.offending
        assert (i, j, u, v) == (1, 2, (g[17],), (g[83],))
        assert res == pytest.approx(f(u[0], v[0]) + f(up[0], vp[0])
                                    - f(u[0], vp[0]) - f(up[0], v[0]), abs=1e-12)

    def test_numeric_agrees_with_the_four_point_oracle(self):
        # random polynomials; cross terms, when present, span many orders of
        # magnitude so that some fall on each side of each pair's bound
        rng = np.random.default_rng(2024)
        sides = set()
        for _ in range(60):
            m = int(rng.integers(2, 4))
            grids = [np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 13)))) for _ in range(m)]
            powers = rng.integers(0, 4, size=(6, m))
            coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-13, 1, size=6)
            separable = rng.random() < 0.3
            if separable:  # each term in one block only
                powers *= np.arange(m) == (np.arange(6) % m)[:, None]

            def f(*blocks):
                return sum(c * math.prod(b ** int(k) for b, k in zip(blocks, row))
                           for c, row in zip(coeffs, powers))

            verdict = separability_check_numeric(f, grids)
            brute = four_point_residuals(f, grids)
            bounds = {pair: RESIDUAL_RTOL * np.abs(table).max()
                      for pair, table in pair_tables(f, grids).items()}
            anchored = verdict.max_residual
            assert anchored - 1e-12 <= max(brute.values()) <= 4 * anchored + 1e-12
            offending = {(w[0], w[1]) for w in verdict.offending}
            assert verdict.separable == (not offending)
            assert not (separable and offending)
            for pair, worst in brute.items():
                if pair in offending:  # its largest |R| is above the bound
                    assert worst > bounds[pair] - 1e-12
                else:  # its largest |R| is at most the bound
                    assert worst <= 4 * bounds[pair] + 1e-12
            sides.add(verdict.separable)
            ref = [g[len(g) // 2] for g in grids]
            for i, j, u, up, v, vp, res in verdict.offending:
                def at(x, y):
                    point = list(ref)
                    point[i - 1], point[j - 1] = x[0], y[0]
                    return f(*point)

                assert abs(res) > bounds[(i, j)]
                assert res == pytest.approx(at(u, v) + at(up, vp) - at(u, vp) - at(up, v),
                                            rel=1e-9, abs=1e-12)
        assert sides == {True, False}

    def test_numeric_bernoulli_joints_up_to_2_53_trials_are_separable(self):
        # the rounding in R grows with |ll|; an absolute tolerance of 1e-9
        # flagged 10**8 trials as non-separable
        rng = np.random.default_rng(11)
        for trials in (10**2, 10**8, 10**12, 2**53):
            for n, m in ((21, 3), (101, 2), (101, 3)):
                counts = [(int(rng.integers(0, trials + 1)), trials) for _ in range(m)]
                joint = panel_joint_loglik([bernoulli_loglik(*c) for c in counts], 0.0)
                verdict = separability_check_numeric(joint, [interior_grid(n)] * m)
                assert verdict.separable, (trials, n, m, verdict.max_residual)

    def test_numeric_cross_term_just_above_the_bound_is_caught(self):
        g = interior_grid(101)
        base = panel_joint_loglik([bernoulli_loglik(3 * 10**7, 10**8)] * 2, 0.0)
        top = np.abs(base(g[:, None], g[None, :])).max()
        # the cross term's largest |R| is c * (g[-1] - g[50]) * (g[0] - g[50])
        span = (g[-1] - g[50]) * (g[50] - g[0])
        for ratio, caught in ((1.5, True), (0.5, False)):
            c = ratio * RESIDUAL_RTOL * top / span
            f = lambda a, b: base(a, b) + c * a * b
            verdict = separability_check_numeric(f, [g, g])
            assert verdict.max_residual == pytest.approx(ratio * RESIDUAL_RTOL * top, rel=1e-3)
            assert verdict.separable is not caught

    def test_numeric_verdict_is_invariant_to_scaling(self):
        # a power-of-two scale is exact, so R and max|ll| scale together
        g = interior_grid(31)
        for f, separable in ((lambda a, b: np.log(a) + 7.0 * np.log1p(-b), True),
                             (lambda a, b: np.log(a) + 1e-6 * a * b, False)):
            verdicts = [separability_check_numeric(lambda a, b: 2.0**k * f(a, b), [g, g])
                        for k in (-60, 0, 60)]
            assert [v.separable for v in verdicts] == [separable] * 3
            assert [v.max_residual for v in verdicts] == [
                2.0**k * verdicts[1].max_residual for k in (-60, 0, 60)]

    def test_numeric_nonfinite_rejected(self):
        grid = np.linspace(0.0, 1.0, 8)
        with pytest.raises(NonFiniteLogLikelihood), np.errstate(divide="ignore"):
            separability_check_numeric(lambda a, b: np.log(a * 0.0), [grid, grid])


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 40),
    st.integers(0, 40),
    st.floats(1.0, 8.0),  # keep the prior density bounded on [0, 1]
    st.floats(1.0, 8.0),
)
def test_grid_mean_tracks_conjugate_mean(s1, n_extra, alpha, beta):
    """Conjugate and 1001-point grid posterior means agree for any counts."""
    trials = s1 + n_extra
    exact = panel_update_conjugate(BetaParams(alpha, beta), (s1, trials))
    grid = panel_update_grid(beta_grid(BetaParams(alpha, beta), 1001),
                             bernoulli_loglik(s1, trials))
    # plain Riemann discretization of a skewed prior has O(1/n) endpoint error
    mean = functional_expectation(compose_product([grid]), lambda t: t)
    assert mean == pytest.approx(exact.mean, abs=5e-3)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_compose_marginals_preserved_for_random_weights(raw):
    weights = np.asarray(raw)
    weights = weights / weights.sum()
    # renormalize defensively so the GridDensity invariant is met bit-exactly
    weights = weights / weights.sum()
    p = GridDensity((np.linspace(0, 1, len(raw)),), weights)
    q = uniform_grid(4)
    joint = compose_product([p, q])
    assert np.max(np.abs(marg_keep(joint.weights, {0}).ravel() - p.weights)) <= 1e-12
    assert np.max(np.abs(marg_keep(joint.weights, {1}).ravel() - q.weights)) <= 1e-12

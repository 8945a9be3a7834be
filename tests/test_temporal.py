"""Tests for the coefficient Gaussian processes.

A kernel is read through a law (``HamiltonianLaw``): its tag, regularity and
temporal_max are three of the law's parameters, and a one-wavenumber basis
keeps the laws small."""

import math

import numpy as np
import pytest

from hamflow import temporal
from hamflow.errors import OutOfRange
from hamflow.field import make_law
from hamflow.rng import derive
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP
from reference import coefficient_paths, kernel_value


def kernel(tag, r=3.95, temporal_max=10):
    """The law whose kernel is ``tag`` at regularity r."""
    return make_law(r, spatial_max=1, temporal_max=temporal_max, kernel=tag)


def sample(kind, rng):
    """One coefficient path's Gaussians: a 1-row draw array."""
    return rng.standard_normal((1, kind.gaussians_per_sample))


def evaluate(kind, gaussians, t):
    """The single path of a 1-row draw at time(s) t."""
    out = coefficient_paths(kind, gaussians, t)[:, 0]
    return out[0] if np.ndim(t) == 0 else out


class TestKernelValue:
    def test_sqexp_diagonal(self):
        k = kernel(SQEXP, 12)
        assert kernel_value(k, 0.4, 0.4) == pytest.approx(1.0)

    def test_sqexp_offdiagonal(self):
        # exp(-r' tau^2), r' the regularity per eigenvalue
        k = kernel(SQEXP, 12)
        want = math.exp(-k.eigenvalue_regularity * 0.25)
        assert kernel_value(k, 0.1, 0.6) == pytest.approx(want)

    def test_periodic_truncated_diagonal(self):
        # the first cosine's squared factor exp(-4 pi^2 r') is exp(-r)
        k = kernel(PERIODIC, 3.95, 1)
        assert kernel_value(k, 0.5, 0.5) == pytest.approx(1 + 2 * math.exp(-3.95))

    def test_constant_unit(self):
        k = kernel(CONSTANT, 80)
        assert kernel_value(k, 0.0, 0.9) == pytest.approx(1.0)

    @pytest.mark.parametrize("tag", [SQEXP, PERIODIC, CONSTANT])
    def test_column_factors_cached_per_kernel(self, tag):
        k = kernel(tag, 12)
        factors = k.column_factors
        assert k.column_factors is factors and not factors.flags.writeable
        assert k.kernel_time_basis is k.kernel_time_basis
        assert len(factors) == k.gaussians_per_sample
        fresh = kernel(tag, 12)
        assert fresh == k and np.array_equal(fresh.column_factors, factors)
        basis = temporal.time_basis(tag, k.eigenvalue_regularity, 10)
        assert basis == k.kernel_time_basis
        assert np.array_equal(temporal.column_factors(tag, k.eigenvalue_regularity, basis),
                              factors)

    @pytest.mark.parametrize("r", [0.01, 0.025, 0.1, 1.0, 10.0, 100.0])
    def test_sqexp_series_is_the_kernel(self, r):
        """The series sum_j f_j^2 Phi_j(t1) Phi_j(t2), summed term by term,
        against exp(-r (t1 - t2)^2) for t1 - t2 over [-1, 1], r per
        eigenvalue, as the temporal module takes it."""
        basis = temporal.time_basis(SQEXP, r, 10)
        t = np.linspace(0.0, 1.0, 201)
        terms = basis(t) * temporal.column_factors(SQEXP, r, basis)
        series = np.zeros((len(t), len(t)))
        for j in range(terms.shape[1]):
            series += np.multiply.outer(terms[:, j], terms[:, j])
        exact = np.exp(-r * np.subtract.outer(t, t) ** 2)
        assert np.abs(series - exact).max() <= 1e-14

    def test_time_domain_enforced(self):
        k = kernel(SQEXP, 40)
        with pytest.raises(OutOfRange):
            kernel_value(k, -0.2, 0.5)

    @pytest.mark.parametrize("tag", [PERIODIC, CONSTANT, SQEXP])
    def test_variance_is_the_kernel_diagonal(self, tag):
        k = kernel(tag, 12)
        assert k.variance == kernel_value(k, 0.0, 0.0)
        for t in (0.1, 0.25, 0.5, 0.77, 1.0):
            assert abs(k.variance - kernel_value(k, t, t)) <= 1e-15 * k.variance


class TestSampling:
    def test_constant_deterministic_under_seed(self):
        k = kernel(CONSTANT)
        s1 = sample(k, derive(123))
        s2 = sample(k, derive(123))
        assert evaluate(k, s1, 0.0) == evaluate(k, s2, 0.0)

    def test_constant_paths_exactly_constant(self):
        k = kernel(CONSTANT)
        s = sample(k, derive(5))
        ts = np.linspace(0, 1, 17)
        assert np.all(evaluate(k, s, ts) == s[0, 0])

    def test_periodic_sample_is_periodic(self):
        k = kernel(PERIODIC, 5.5, 10)
        s = sample(k, derive(8))
        assert evaluate(k, s, 0.0) == pytest.approx(evaluate(k, s, 1.0), abs=1e-12)

    def test_periodic_draw_count(self):
        k = kernel(PERIODIC, 3.95, 4)
        assert k.gaussians_per_sample == 9

    def test_sqexp_extrapolation_rejected(self):
        k = kernel(SQEXP)
        s = sample(k, derive(1))
        with pytest.raises(OutOfRange):
            evaluate(k, s, 1.5)

    def test_periodic_variance_matches_kernel(self):
        k = kernel(PERIODIC, 3.95, 5)
        rng = derive(99)
        vals = np.array([evaluate(k, sample(k, rng), 0.3) for _ in range(10_000)])
        target = kernel_value(k, 0.3, 0.3)
        se = target * math.sqrt(2 / (len(vals) - 1))
        assert abs(vals.var(ddof=1) - target) < 3 * se


class TestEvaluation:
    def test_periodic_degenerate_series(self):
        k = kernel(PERIODIC, 3.95, 3)
        s = np.zeros((1, 7))
        s[0, 0] = 1.0
        ts = np.linspace(0, 1, 9)
        assert np.allclose(evaluate(k, s, ts), 1.0)

    def test_periodic_single_cosine(self):
        # the first cosine's factor exp(-2 pi^2 r') is exp(-r / 2)
        k = kernel(PERIODIC, 3.95, 3)
        s = np.zeros((1, 7))
        s[0, 1] = 1.0
        expected0 = math.sqrt(2) * math.exp(-3.95 / 2)
        assert evaluate(k, s, 0.0) == pytest.approx(expected0)
        ts = np.linspace(0, 1, 25)
        assert np.allclose(evaluate(k, s, ts),
                           expected0 * np.cos(2 * math.pi * ts), atol=1e-12)


class TestStatisticalProperties:
    N = 10_000

    @pytest.mark.parametrize("tag", [SQEXP, PERIODIC, CONSTANT])
    def test_mean_zero(self, tag):
        k = kernel(tag)
        rng = derive(17)
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        sums = np.zeros(len(times))
        for _ in range(self.N):
            s = sample(k, rng)
            sums += evaluate(k, s, np.array(times))
        assert np.all(np.abs(sums / self.N) < 4 / math.sqrt(self.N))

    @pytest.mark.parametrize("tag", [SQEXP, PERIODIC, CONSTANT])
    def test_covariance_matches_kernel(self, tag):
        k = kernel(tag)
        rng = derive(23)
        pair_rng = np.random.default_rng(5)
        pairs = pair_rng.uniform(0, 1, (10, 2))
        draws = np.empty((self.N, 10, 2))
        for i in range(self.N):
            s = sample(k, rng)
            draws[i] = np.stack([evaluate(k, s, pairs[:, 0]),
                                 evaluate(k, s, pairs[:, 1])], axis=-1)
        for j, (t1, t2) in enumerate(pairs):
            a, b = draws[:, j, 0], draws[:, j, 1]
            emp = np.mean(a * b) - a.mean() * b.mean()
            target = kernel_value(k, t1, t2)
            se = math.sqrt(np.var(a * b, ddof=1) / self.N)
            assert abs(emp - target) < 3 * se + 1e-12

    @pytest.mark.parametrize("tag", [PERIODIC, CONSTANT])
    def test_time_reversal_symmetry(self, tag):
        stats = pytest.importorskip("scipy.stats")
        k = kernel(tag)
        n = 5000
        t = 0.2
        fwd = np.empty(n)
        rev = np.empty(n)
        rng_a, rng_b = derive(31, 0), derive(31, 1)
        for i in range(n):
            fwd[i] = evaluate(k, sample(k, rng_a), t)
            rev[i] = evaluate(k, sample(k, rng_b), 1.0 - t)
        assert stats.ks_2samp(fwd, rev).pvalue > 0.01

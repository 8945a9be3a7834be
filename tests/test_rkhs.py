"""Tests for the coefficient expansion and RKHS norm."""

import math

import numpy as np
import pytest

from hamflow.errors import Unsupported
from hamflow.field import RandomHamiltonian, make_law, sample_hamiltonian
from hamflow.rkhs import rkhs_norm, weighted_coefficient_sum
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP
from reference import expansion, full_draw, reconstruct_value, value


def periodic_draw(seed=3, r=0.1, smax=2, tm=3):
    law = make_law(r, spatial_max=smax, temporal_max=tm, kernel=PERIODIC, seed=seed)
    return full_draw(law, seed)


def zeros(law):
    """A law's whole (N, m) normals, all zero."""
    return np.zeros((len(law.basis()), law.kernel.gaussians_per_sample()))


def single_mode_draw(r=0.1, smax=1, tm=2, x0=1.0):
    """Periodic draw with only mode 1's constant coefficient set to x0."""
    law = make_law(r, spatial_max=smax, temporal_max=tm, kernel=PERIODIC, seed=0)
    samples = zeros(law)
    samples[0, 0] = x0
    return RandomHamiltonian(law, samples)


def norm(draw, regularity):
    return rkhs_norm(draw.law, draw.gaussians, regularity)


def weighted_sum(draw, eps):
    return weighted_coefficient_sum(draw.law, draw.gaussians, eps)


class TestCoefficientExpansion:
    def test_zero_draw_empty_table(self):
        draw = single_mode_draw(x0=0.0)
        assert expansion(draw) == {}
        assert norm(draw, 0.1) == 0.0
        assert weighted_sum(draw, 0.1) == 0.0

    def test_single_mode_entry_is_weight(self):
        draw = single_mode_draw(x0=1.0)
        table = expansion(draw)
        assert set(table) == {(0, 1, "cos")}
        assert table[(0, 1, "cos")] == pytest.approx(draw.weights[0])

    def test_round_trip_against_field_evaluation(self):
        draw = periodic_draw()
        table = expansion(draw)
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = rng.uniform()
            x, y = rng.uniform(), rng.uniform()
            assert reconstruct_value(draw, table, t, x, y) == pytest.approx(
                value(draw, t, (x, y)), abs=1e-12)

    def test_constant_kernel_maps_to_zero_frequency(self):
        law = make_law(0.2, spatial_max=1, kernel=CONSTANT, seed=7)
        draw = sample_hamiltonian(law, 7)
        table = expansion(draw)
        assert all(k == 0 and parity == "cos" for (k, _, parity) in table)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t, x, y = rng.uniform(size=3)
            assert reconstruct_value(draw, table, t, x, y) == pytest.approx(
                value(draw, t, (x, y)), abs=1e-12)

    def test_grid_kernel_unsupported(self):
        law = make_law(0.3, spatial_max=1, kernel=SQEXP, seed=9)
        gaussians = full_draw(law, 9).gaussians
        with pytest.raises(Unsupported):
            rkhs_norm(law, gaussians, 0.3)
        with pytest.raises(Unsupported):
            weighted_coefficient_sum(law, gaussians, 0.1)

    def test_takes_a_draws_whole_normals(self):
        # a sampled draw's head is not a draw's whole normals
        law = make_law(3.0 / (4 * math.pi**2), spatial_max=12, temporal_max=4, kernel=PERIODIC)
        head = sample_hamiltonian(law, 9).gaussians
        assert len(head) == law.head_rows() < len(law.basis())
        with pytest.raises(ValueError, match="shape"):
            rkhs_norm(law, head, law.regularity)
        with pytest.raises(ValueError, match="shape"):
            weighted_coefficient_sum(law, head, 0.1)


class TestRkhsNorm:
    def test_empty_table_zero(self):
        law = make_law(0.3, spatial_max=2, kernel=CONSTANT)
        assert rkhs_norm(law, zeros(law), 0.3) == 0.0

    def test_cancellation_identity_single_mode(self):
        r = 0.17
        draw = single_mode_draw(r=r, x0=1.0)
        assert norm(draw, r) == pytest.approx(1.0, abs=1e-12)

    def test_cancellation_identity_all_modes(self):
        # all x0 = c_n, no oscillating terms: norm = sqrt(sum c_n^2) exactly
        r = 0.12
        law = make_law(r, spatial_max=2, temporal_max=2, kernel=PERIODIC, seed=11)
        rng = np.random.default_rng(6)
        x0s = rng.normal(size=len(law.basis()))
        samples = zeros(law)
        samples[:, 0] = x0s
        assert rkhs_norm(law, samples, r) == pytest.approx(math.sqrt(np.sum(x0s**2)), abs=1e-12)

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT])
    @pytest.mark.parametrize("r", [3.0, 4.5])
    def test_cancellation_identity_where_coefficients_underflow(self, kernel, r):
        # r in frequency units at spatial_max 25: the high modes' coefficients
        # w_n d_k g lie below the normal range, and some round to zero
        scale = 1.7
        law = make_law(r / (4 * math.pi**2), spatial_max=25, temporal_max=10, kernel=kernel)
        gaussians = full_draw(law, 0, 0, 1).gaussians
        assert np.min(law.weights()) * scale < np.finfo(float).tiny
        expected = scale * math.sqrt(np.sum(gaussians**2))
        assert rkhs_norm(law, scale * gaussians, law.regularity) == pytest.approx(expected,
                                                                                  rel=1e-12)

    def test_homogeneity(self):
        draw = periodic_draw(seed=13)
        doubled = rkhs_norm(draw.law, 2.0 * draw.gaussians, 0.1)
        assert doubled == pytest.approx(2 * norm(draw, 0.1), abs=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1])
    def test_matches_direct_weighting_at_small_regularity(self, r):
        draw = periodic_draw(seed=23, r=r, smax=4)
        direct = math.sqrt(sum(
            math.exp(r * (4.0 * math.pi**2 * k**2 + draw.basis.eigenvalues[n - 1])) * c**2
            for (k, n, _), c in expansion(draw).items()))
        assert norm(draw, r) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_regularity(self):
        draw = periodic_draw(seed=17)
        norms = [norm(draw, r) for r in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(norms, norms[1:]))


class TestWeightedCoefficientSum:
    def test_empty_table(self):
        assert weighted_sum(single_mode_draw(x0=0.0), 0.1) == 0.0

    def test_single_entry(self):
        draw = single_mode_draw(x0=0.7)
        lam = 8 * math.pi**2
        eps = 0.03
        assert weighted_sum(draw, eps) == pytest.approx(
            0.7 * draw.weights[0] * math.exp(eps * lam))

    def test_small_eps_limit(self):
        draw = periodic_draw(seed=19)
        plain = sum(c for (k, n, parity), c in expansion(draw).items()
                    if k == 0 and parity == "cos")
        assert weighted_sum(draw, 1e-12) == pytest.approx(plain, abs=1e-9)

    @pytest.mark.parametrize("eps", [1e-3, 0.01, 0.05])
    def test_matches_direct_weighting(self, eps):
        draw = periodic_draw(seed=29, r=0.05, smax=4)
        direct = sum(math.exp(eps * draw.basis.eigenvalues[n - 1]) * c
                     for (k, n, parity), c in expansion(draw).items()
                     if k == 0 and parity == "cos")
        assert weighted_sum(draw, eps) == pytest.approx(direct, rel=1e-12)

    def test_ignores_oscillating_entries(self):
        law = make_law(0.1, spatial_max=1, temporal_max=2, kernel=PERIODIC)
        samples = zeros(law)
        samples[0, 0] = 1.0
        constant_only = weighted_coefficient_sum(law, samples.copy(), 1e-9)
        samples[0, 2] = 5.0
        samples[0, 3] = 3.0
        assert weighted_coefficient_sum(law, samples, 1e-9) == constant_only

"""Tests for the coefficient expansion and RKHS norm."""

import math

import numpy as np
import pytest

from hamflow.basis import TorusPoint
from hamflow.errors import Unsupported
from hamflow.field import RandomHamiltonian, make_law, sample_hamiltonian
from hamflow.rkhs import (COS, SIN, CoefficientTable, coefficient_expansion,
                          reconstruct_value, rkhs_norm, weighted_coefficient_sum)
from hamflow.rng import derive
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP


def periodic_draw(seed=3, r=0.1, smax=2, tm=3):
    law = make_law(r, spatial_max=smax, temporal_max=tm, kernel=PERIODIC, seed=seed)
    return sample_hamiltonian(law, derive(seed))


def single_mode_draw(r=0.1, smax=1, tm=2, x0=1.0):
    """Periodic draw with only mode 1's constant coefficient set to x0."""
    law = make_law(r, spatial_max=smax, temporal_max=tm, kernel=PERIODIC, seed=0)
    base = sample_hamiltonian(law, derive(0))
    samples = np.zeros_like(base.gaussians)
    samples[0, 0] = x0
    return RandomHamiltonian(law, samples)


class TestCoefficientExpansion:
    def test_zero_draw_empty_table(self):
        draw = single_mode_draw(x0=0.0)
        table = coefficient_expansion(draw)
        assert table.entries == {}

    def test_single_mode_entry_is_weight(self):
        draw = single_mode_draw(x0=1.0)
        table = coefficient_expansion(draw)
        assert set(table.entries) == {(0, 1, COS)}
        assert table.entries[(0, 1, COS)] == pytest.approx(draw.weights[0])

    def test_round_trip_against_field_evaluation(self):
        draw = periodic_draw()
        table = coefficient_expansion(draw)
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = rng.uniform()
            p = TorusPoint(rng.uniform(), rng.uniform())
            assert reconstruct_value(table, t, p) == pytest.approx(draw.value(t, p), abs=1e-12)

    def test_constant_kernel_maps_to_zero_frequency(self):
        law = make_law(0.2, spatial_max=1, kernel=CONSTANT, seed=7)
        draw = sample_hamiltonian(law, derive(7))
        table = coefficient_expansion(draw)
        assert all(k == 0 and parity == COS for (k, _, parity) in table.entries)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t, x, y = rng.uniform(size=3)
            assert reconstruct_value(table, t, TorusPoint(x, y)) == pytest.approx(
                draw.value(t, TorusPoint(x, y)), abs=1e-12)

    def test_grid_kernel_unsupported(self):
        law = make_law(0.3, spatial_max=1, kernel=SQEXP, seed=9)
        draw = sample_hamiltonian(law, derive(9))
        with pytest.raises(Unsupported):
            coefficient_expansion(draw)

    def test_sine_at_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            CoefficientTable({(0, 1, SIN): 1.0}, {1: 8 * math.pi**2})


class TestRkhsNorm:
    def test_empty_table_zero(self):
        assert rkhs_norm(CoefficientTable({}, {}), 0.3) == 0.0

    def test_cancellation_identity_single_mode(self):
        r = 0.17
        draw = single_mode_draw(r=r, x0=1.0)
        table = coefficient_expansion(draw)
        assert rkhs_norm(table, r) == pytest.approx(1.0, abs=1e-12)

    def test_cancellation_identity_all_modes(self):
        # all x0 = c_n, no oscillating terms: norm = sqrt(sum c_n^2) exactly
        r = 0.12
        law = make_law(r, spatial_max=2, temporal_max=2, kernel=PERIODIC, seed=11)
        base = sample_hamiltonian(law, derive(11))
        rng = np.random.default_rng(6)
        x0s = rng.normal(size=len(base.basis))
        samples = np.zeros_like(base.gaussians)
        samples[:, 0] = x0s
        draw = RandomHamiltonian(law, samples)
        table = coefficient_expansion(draw)
        assert rkhs_norm(table, r) == pytest.approx(math.sqrt(np.sum(x0s**2)), abs=1e-12)

    def test_homogeneity(self):
        draw = periodic_draw(seed=13)
        table = coefficient_expansion(draw)
        assert rkhs_norm(table.scaled(2.0), 0.1) == pytest.approx(2 * rkhs_norm(table, 0.1),
                                                                  abs=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1])
    def test_matches_direct_weighting_at_small_regularity(self, r):
        table = coefficient_expansion(periodic_draw(seed=23, r=r, smax=4))
        direct = math.sqrt(sum(
            math.exp(r * (4.0 * math.pi**2 * k**2 + table.eigenvalues[n])) * c**2
            for (k, n, _), c in table.entries.items()))
        assert rkhs_norm(table, r) == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_regularity(self):
        draw = periodic_draw(seed=17)
        table = coefficient_expansion(draw)
        norms = [rkhs_norm(table, r) for r in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(norms, norms[1:]))


class TestWeightedCoefficientSum:
    def test_empty_table(self):
        assert weighted_coefficient_sum(CoefficientTable({}, {}), 0.1) == 0.0

    def test_single_entry(self):
        lam = 8 * math.pi**2
        table = CoefficientTable({(0, 1, COS): 0.7}, {1: lam})
        eps = 0.03
        assert weighted_coefficient_sum(table, eps) == pytest.approx(0.7 * math.exp(eps * lam))

    def test_small_eps_limit(self):
        draw = periodic_draw(seed=19)
        table = coefficient_expansion(draw)
        plain = sum(c for (k, n, parity), c in table.entries.items()
                    if k == 0 and parity == COS)
        assert weighted_coefficient_sum(table, 1e-12) == pytest.approx(plain, abs=1e-9)

    def test_absolute_variant(self):
        table = CoefficientTable({(0, 1, COS): -0.5, (0, 2, COS): 0.25},
                                 {1: 1.0, 2: 1.0})
        signed = weighted_coefficient_sum(table, 1e-9)
        absolute = weighted_coefficient_sum(table, 1e-9, absolute=True)
        assert signed == pytest.approx(-0.25, abs=1e-8)
        assert absolute == pytest.approx(0.75, abs=1e-8)

    def test_ignores_oscillating_entries(self):
        table = CoefficientTable({(0, 1, COS): 1.0, (2, 1, COS): 5.0, (1, 1, SIN): 3.0},
                                 {1: 1.0})
        assert weighted_coefficient_sum(table, 1e-9) == pytest.approx(1.0, abs=1e-8)

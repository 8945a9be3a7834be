"""Tests for the torus eigenbasis: enumeration, values, quadrature."""

import math

import numpy as np
import pytest

from hamflow.basis import Mode, TorusPoint, Truncation, build_basis, torus_distance


def quad_grid(n):
    """Uniform periodic quadrature nodes (rectangle rule, exact below Nyquist)."""
    return np.arange(n) / n


class TestTorusPoint:
    def test_reduction_mod_one(self):
        p = TorusPoint(1.25, -0.25)
        assert p.x == pytest.approx(0.25)
        assert p.y == pytest.approx(0.75)

    def test_distance_wraps(self):
        assert TorusPoint(0.05, 0.5).distance(TorusPoint(0.95, 0.5)) == pytest.approx(0.1)
        assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(math.hypot(0.5, 0.5))


class TestModeEnumeration:
    def test_default_truncation_mode_count(self):
        # 25*25 wavenumber pairs x 4 trig types, counted by enumeration
        basis = build_basis(Truncation(spatial_max=25))
        expected = sum(4 for kx in range(1, 26) for ky in range(1, 26))
        assert len(basis) == expected == 2500

    def test_smallest_truncation(self):
        basis = build_basis(Truncation(spatial_max=1))
        assert len(basis) == 4
        assert all(m.eigenvalue == pytest.approx(8 * math.pi**2) for m in basis.modes)

    def test_axis_modes_enumeration(self):
        basis = build_basis(Truncation(spatial_max=1, include_axis_modes=True))
        # 4 from (1,1), 2 each from (1,0) and (0,1)
        assert len(basis) == 8
        axis = [m for m in basis.modes if m.kx == 0 or m.ky == 0]
        assert len(axis) == 4
        assert all(m.amplitude == pytest.approx(math.sqrt(2)) for m in axis)

    def test_sorted_by_eigenvalue(self):
        basis = build_basis(Truncation(spatial_max=5, include_axis_modes=True))
        eigs = [m.eigenvalue for m in basis.modes]
        assert eigs == sorted(eigs)

    def test_no_duplicates(self):
        basis = build_basis(Truncation(spatial_max=6))
        triples = {(m.kx, m.ky, m.trig) for m in basis.modes}
        assert len(triples) == len(basis)

    def test_constant_mode_rejected(self):
        with pytest.raises(ValueError):
            Mode(0, 0, "cc")

    def test_sine_of_zero_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            Mode(0, 3, "sc")
        with pytest.raises(ValueError):
            Mode(3, 0, "cs")


class TestEigenvalue:
    def test_axis_value(self):
        assert Mode(1, 0, "cc").eigenvalue == pytest.approx(4 * math.pi**2)

    def test_diagonal_value(self):
        assert Mode(1, 1, "cc").eigenvalue == pytest.approx(8 * math.pi**2)

    def test_three_four(self):
        assert Mode(3, 4, "ss").eigenvalue == pytest.approx(100 * math.pi**2)


class TestEvaluate:
    def test_coscos_at_origin(self):
        assert Mode(1, 1, "cc").evaluate(TorusPoint(0, 0)) == pytest.approx(2.0)

    def test_sinsin_at_quarter(self):
        assert Mode(1, 1, "ss").evaluate(TorusPoint(0.25, 0.25)) == pytest.approx(2.0)

    def test_coscos_zero_line(self):
        m = Mode(1, 1, "cc")
        for y in (0.0, 0.123, 0.77):
            assert m.evaluate(TorusPoint(0.25, y)) == pytest.approx(0.0, abs=1e-12)

    def test_axis_amplitude(self):
        m = Mode(1, 0, "sc")
        # sqrt(2) sin(2 pi x) at x = 0.25
        assert m.evaluate(TorusPoint(0.25, 0.9)) == pytest.approx(math.sqrt(2))


class TestBasisAnalysis:
    def test_orthonormality_by_quadrature(self):
        trunc = Truncation(spatial_max=3, include_axis_modes=True)
        basis = build_basis(trunc)
        n = 4 * trunc.spatial_max + 1
        xs = quad_grid(n)
        vals = np.empty((len(basis), n, n))
        for i, m in enumerate(basis.modes):
            vals[i] = [[m.evaluate(TorusPoint(x, y)) for y in xs] for x in xs]
        gram = np.einsum("iab,jab->ij", vals, vals) / n**2
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10

    def test_modes_integrate_to_zero(self):
        trunc = Truncation(spatial_max=4, include_axis_modes=True)
        basis = build_basis(trunc)
        n = 4 * trunc.spatial_max + 1
        xs = quad_grid(n)
        for m in basis.modes:
            total = sum(m.evaluate(TorusPoint(x, y)) for x in xs for y in xs) / n**2
            assert abs(total) < 1e-12

    def test_laplace_eigenrelation(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for mode in [Mode(1, 2, "cs"), Mode(3, 1, "ss"), Mode(2, 2, "cc")]:
            for _ in range(20):
                x, y = rng.uniform(0, 1, 2)
                f = mode.evaluate(TorusPoint(x, y))
                if abs(f) < 0.1:
                    continue
                lap = (mode.evaluate(TorusPoint(x + h, y)) + mode.evaluate(TorusPoint(x - h, y))
                       + mode.evaluate(TorusPoint(x, y + h)) + mode.evaluate(TorusPoint(x, y - h))
                       - 4 * f) / h**2
                assert abs(lap + mode.eigenvalue * f) / abs(mode.eigenvalue * f) < 1e-3

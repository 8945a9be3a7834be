"""Tests for the torus eigenbasis: enumeration, values, quadrature."""

import math

import numpy as np
import pytest

from hamflow.basis import SpectralBasis
from reference import Mode, mode_index, mode_of, mode_values, reference_modes, torus_distance


def quad_grid(n):
    """Uniform periodic quadrature nodes (rectangle rule, exact below Nyquist)."""
    return np.arange(n) / n


AXIS_BASIS = SpectralBasis(spatial_max=4, include_axis_modes=True)


def evaluate(mode, x, y):
    """Mode ``mode`` of the array basis at (x, y), checked against the
    reference evaluation."""
    value = mode_values(AXIS_BASIS, [[x, y]])[0, mode_index(AXIS_BASIS, mode)]
    assert value == pytest.approx(mode.evaluate(x, y), abs=1e-14)
    return value


class TestTorusPoint:
    def test_distance_wraps(self):
        assert torus_distance([0.05, 0.5], [0.95, 0.5]) == pytest.approx(0.1)
        assert torus_distance([0.0, 0.0], [0.5, 0.5]) == pytest.approx(math.hypot(0.5, 0.5))


class TestModeEnumeration:
    def test_default_truncation_mode_count(self):
        # 25*25 wavenumber pairs x 4 trig types, counted by enumeration
        basis = SpectralBasis(spatial_max=25)
        expected = sum(4 for kx in range(1, 26) for ky in range(1, 26))
        assert len(basis) == expected == 2500

    def test_smallest_truncation(self):
        basis = SpectralBasis(spatial_max=1)
        assert len(basis) == 4
        assert np.all(basis.eigenvalues == pytest.approx(8 * math.pi**2))

    def test_axis_modes_enumeration(self):
        basis = SpectralBasis(spatial_max=1, include_axis_modes=True)
        # 4 from (1,1), 2 each from (1,0) and (0,1)
        assert len(basis) == 8
        axis = (basis.kx == 0) | (basis.ky == 0)
        assert axis.sum() == 4
        assert np.all(basis.amplitudes[axis] == pytest.approx(math.sqrt(2)))
        # no sine factor of a zero wavenumber, and no constant mode
        assert not np.any((basis.kx == 0) & (basis.tx == 1))
        assert not np.any((basis.ky == 0) & (basis.ty == 1))
        assert np.all(basis.kx + basis.ky >= 1)

    def test_sorted_by_eigenvalue(self):
        basis = SpectralBasis(spatial_max=5, include_axis_modes=True)
        assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_no_duplicates(self):
        basis = SpectralBasis(spatial_max=6)
        triples = set(zip(basis.kx, basis.ky, basis.tx, basis.ty))
        assert len(triples) == len(basis)

    @pytest.mark.parametrize("axis_modes", [False, True])
    @pytest.mark.parametrize("spatial_max", [1, 3, 25, 40])
    def test_arrays_match_reference_enumeration(self, spatial_max, axis_modes):
        basis = SpectralBasis(spatial_max, include_axis_modes=axis_modes)
        modes = reference_modes(spatial_max, axis_modes)
        assert [mode_of(basis, n) for n in range(len(basis))] == modes
        expected = {"kx": [m.kx for m in modes], "ky": [m.ky for m in modes],
                    "tx": [int(m.trig[0] == "s") for m in modes],
                    "ty": [int(m.trig[1] == "s") for m in modes],
                    "amplitudes": [m.amplitude for m in modes],
                    "eigenvalues": [m.eigenvalue for m in modes]}
        for name, values in expected.items():
            array = getattr(basis, name)
            assert array.dtype == (np.float64 if name in ("amplitudes", "eigenvalues") else np.intp)
            assert array.tolist() == values, name
            assert not array.flags.writeable

    def test_bases_compare_by_truncation(self):
        """Bases compare and hash by spatial_max and include_axis_modes alone."""
        assert SpectralBasis(3) == SpectralBasis(3, False)
        assert hash(SpectralBasis(3)) == hash(SpectralBasis(3, False))
        assert SpectralBasis(3) != SpectralBasis(4)
        assert SpectralBasis(3) != SpectralBasis(3, include_axis_modes=True)


class TestEigenvalue:
    def eigenvalue(self, mode):
        return AXIS_BASIS.eigenvalues[mode_index(AXIS_BASIS, mode)]

    def test_axis_value(self):
        assert self.eigenvalue(Mode(1, 0, "cc")) == pytest.approx(4 * math.pi**2)

    def test_diagonal_value(self):
        assert self.eigenvalue(Mode(1, 1, "cc")) == pytest.approx(8 * math.pi**2)

    def test_three_four(self):
        assert self.eigenvalue(Mode(3, 4, "ss")) == pytest.approx(100 * math.pi**2)


class TestEvaluate:
    def test_coscos_at_origin(self):
        assert evaluate(Mode(1, 1, "cc"), 0, 0) == pytest.approx(2.0)

    def test_sinsin_at_quarter(self):
        assert evaluate(Mode(1, 1, "ss"), 0.25, 0.25) == pytest.approx(2.0)

    def test_coscos_zero_line(self):
        m = Mode(1, 1, "cc")
        for y in (0.0, 0.123, 0.77):
            assert evaluate(m, 0.25, y) == pytest.approx(0.0, abs=1e-12)

    def test_axis_amplitude(self):
        # sqrt(2) sin(2 pi x) at x = 0.25
        assert evaluate(Mode(1, 0, "sc"), 0.25, 0.9) == pytest.approx(math.sqrt(2))


class TestBasisAnalysis:
    def test_orthonormality_by_quadrature(self):
        basis = SpectralBasis(spatial_max=3, include_axis_modes=True)
        n = 4 * basis.spatial_max + 1
        xs = quad_grid(n)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = mode_values(basis, pts)
        gram = vals.T @ vals / n**2
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10

    def test_modes_integrate_to_zero(self):
        basis = SpectralBasis(spatial_max=4, include_axis_modes=True)
        n = 4 * basis.spatial_max + 1
        xs = quad_grid(n)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.all(np.abs(mode_values(basis, pts).mean(axis=0)) < 1e-12)

    def test_laplace_eigenrelation(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for mode in [Mode(1, 2, "cs"), Mode(3, 1, "ss"), Mode(2, 2, "cc")]:
            n = mode_index(AXIS_BASIS, mode)
            lam = AXIS_BASIS.eigenvalues[n]
            for _ in range(20):
                x, y = rng.uniform(0, 1, 2)
                f, east, west, north, south = mode_values(
                    AXIS_BASIS, [[x, y], [x + h, y], [x - h, y], [x, y + h], [x, y - h]])[:, n]
                if abs(f) < 0.1:
                    continue
                lap = (east + west + north + south - 4 * f) / h**2
                assert abs(lap + lam * f) / abs(lam * f) < 1e-3


def bracket_projections(spatial_max, n=32):
    """The Poisson brackets {F, G} = F_x G_y - F_y G_x of every pair of
    default (non-axis) modes, projected on cos and sin of 2 pi k x and of
    2 pi k y for k = 1..2 spatial_max: one row per pair, columns by k and
    then by those four functions.  A bracket's wavenumbers are at most
    2 spatial_max, so the n-point rectangle rule is exact for n > 4 spatial_max."""
    basis = SpectralBasis(spatial_max)
    x, y = np.meshgrid(quad_grid(n), quad_grid(n), indexing="ij")

    def factor(k, t, s):
        # cos(2 pi k s - t pi / 2), the cosine (t = 0) or sine (t = 1), and its s-derivative
        k, t = k[:, None, None], t[:, None, None]
        angle = 2 * math.pi * k * s - t * math.pi / 2
        return np.cos(angle), -2 * math.pi * k * np.sin(angle)

    (fx, dfx), (fy, dfy) = factor(basis.kx, basis.tx, x), factor(basis.ky, basis.ty, y)
    amplitudes = basis.amplitudes[:, None, None]
    hx, hy = amplitudes * dfx * fy, amplitudes * fx * dfy
    i, j = np.triu_indices(len(basis), 1)
    brackets = hx[i] * hy[j] - hy[i] * hx[j]
    k = np.arange(1, 2 * spatial_max + 1)[:, None, None, None]
    axis = np.stack([np.cos(2 * math.pi * k * x), np.sin(2 * math.pi * k * x),
                     np.cos(2 * math.pi * k * y), np.sin(2 * math.pi * k * y)], axis=1)
    return 2.0 / n**2 * np.einsum("pxy,axy->pa", brackets, axis.reshape(-1, n, n))


def rank(p):
    return np.linalg.matrix_rank(p, tol=1e-9 * np.abs(p).max())


class TestPoissonBrackets:
    """The default law has no axis modes, but the brackets of its modes
    reach them (``basis.SpectralBasis``)."""

    @pytest.mark.parametrize("spatial_max", [2, 3])
    def test_brackets_span_every_axis_mode_up_to_twice_the_band(self, spatial_max):
        p = bracket_projections(spatial_max)
        assert p.shape[1] == 8 * spatial_max
        assert rank(p) == 8 * spatial_max
        # the lattice resolves every bracket: a finer one projects the same
        np.testing.assert_allclose(bracket_projections(spatial_max, 64), p, rtol=0,
                                   atol=1e-9 * np.abs(p).max())

    def test_brackets_at_spatial_max_1_reach_wavenumber_2_alone(self):
        # the products of wavenumbers 1 and 1 hold wavenumbers 0 and 2 only
        p = bracket_projections(1)
        assert np.abs(p[:, :4]).max() < 1e-9 * np.abs(p).max()
        assert rank(p) == rank(p[:, 4:]) == 4

"""The engine's vector-field kernel against an exact mode-by-mode reference."""

import math

import numpy as np
import pytest

from hamflow.engine import SpectralEngine
from hamflow.field import OSC_LATTICE, PackedBatch, make_law, sample_hamiltonian
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP
from reference import full_draw, gradient, mode_coefficients

TWO_PI = 2 * math.pi
RTOL = 1e-12
# Lifted coordinates on a 2^-30 lattice: k * c and its reduction mod 1 are
# then exact, so the reference carries no argument-reduction error.
LATTICE = 2.0 ** -30
EDGES = [-20.0, -19.0, -3.0, -1.0, -LATTICE, -0.0, 0.0, 1.0, 4.0, 20.0 - LATTICE, 20.0]


def lifted_points(shape, seed):
    """Points (..., 2) in [-20, 20]^2, the edge and integer coordinates first."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    coords = rng.integers(-20 * 2**30, 20 * 2**30 + 1, size=(n, 2)) * LATTICE
    edges = np.array(EDGES)
    coords[:len(edges), 0] = edges
    coords[:len(edges), 1] = edges[::-1]
    return coords.reshape(tuple(shape) + (2,))


def reference_gradient(engine, coeffs, pts):
    """(dH/dx, dH/dy) at pts (P, 2) for raw coefficients c_n, summed mode by
    mode from the basis: e_n = a_n f(2 pi kx x) g(2 pi ky y), f and g cos or
    sin, with their analytic derivatives, over the engine's band."""
    b = engine.basis
    band = (b.kx <= engine.band) & (b.ky <= engine.band)
    kx, ky, tx, ty = b.kx[band], b.ky[band], b.tx[band], b.ty[band]
    weights = coeffs[band] * b.amplitudes[band]

    def factor(c, k, t):
        angle = TWO_PI * np.mod(np.multiply.outer(c, k.astype(float)), 1.0)
        cos, sin = np.cos(angle), np.sin(angle)
        return np.where(t == 0, cos, sin), TWO_PI * k * np.where(t == 0, -sin, cos)

    fx, dfx = factor(pts[:, 0], kx, tx)
    fy, dfy = factor(pts[:, 1], ky, ty)
    return np.stack([(dfx * fy) @ weights, (fx * dfy) @ weights], axis=-1)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def rotated(gradient):
    """The Hamiltonian vector field (-dH/dy, dH/dx) of a gradient."""
    return np.stack([-gradient[..., 1], gradient[..., 0]], axis=-1)


def check_engine(engine, coeffs, pts):
    """Check the engine's vector field at S point sets (S, P, 2) under the raw
    coefficients (S, N) of the whole basis, packed from the engine's band
    modes; return the reference gradient."""
    want = np.stack([reference_gradient(engine, c, p) for c, p in zip(coeffs, pts)])
    grids = engine.grids(coeffs[:, engine.modes])
    assert_close(engine.vector_field(engine.field_grids(grids), pts), rotated(want))
    return want


# (regularity in frequency units, spatial_max, the law's band, axis modes):
# a banded engine, checked with the full-band engine beside it, and a
# full-band one; without axis modes, and with them, whose tables alone keep
# wavenumber 0; the ids keep the band 7 that the eps^2 share rule gave at
# r = 3, before the band was set by rounding, so that test names stay put
LAWS = [pytest.param(3.0, 10, 5, False, id="3.0-10-7"),
        pytest.param(0.1, 25, 25, False, id="0.1-25-25"),
        pytest.param(3.0, 10, 5, True, id="3.0-10-7-axis"),
        pytest.param(0.1, 25, 25, True, id="0.1-25-25-axis")]


@pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
@pytest.mark.parametrize("r,spatial_max,band,axis_modes", LAWS)
@pytest.mark.parametrize("draws", [1, 3])
def test_kernel_matches_mode_by_mode_reference(kernel, r, spatial_max, band, axis_modes, draws):
    law = make_law(r, spatial_max=spatial_max, temporal_max=4,
                   kernel=kernel, seed=3, include_axis_modes=axis_modes)
    hs = [full_draw(law, 3, i) for i in range(draws)]
    t = 0.37
    coeffs = np.stack([mode_coefficients(h, t) for h in hs])
    pts = lifted_points((draws, 40), seed=draws)
    engine = law.engine()
    assert engine.band == band
    want = check_engine(engine, coeffs, pts)
    if engine.band < spatial_max:
        check_engine(SpectralEngine(law.basis(), spatial_max), coeffs, pts)
    # the field grids the flow's steps take, and one draw's own
    fields = PackedBatch(hs).field_grids(hs[0].time_basis(t))[0]
    assert_close(engine.vector_field(fields, pts), rotated(want))
    for h, p, w in zip(hs, pts, want):
        assert_close(gradient(h, t, p), w)


@pytest.mark.parametrize("band,axis_modes",
                         [pytest.param(band, axis, id=f"{band}-axis" if axis else str(band))
                          for axis in (False, True) for band in (1, 5, 25)])
def test_tables_are_interleaved_cos_sin_rows(band, axis_modes):
    # the tables start at wavenumber 0 with axis modes and at 1 without
    engine = SpectralEngine(make_law(3.95, spatial_max=25, include_axis_modes=axis_modes).basis(),
                            band)
    rng = np.random.default_rng(band)
    coords = np.concatenate([rng.uniform(-20, 20, 500), EDGES, [-1e-20, 1e-20, -0.5, 0.5]])
    rows = engine._tables(coords)
    wavenumbers = np.arange(0 if axis_modes else 1, band + 1)
    assert rows.shape == coords.shape + (2 * len(wavenumbers),)
    assert engine.grid_shape == (2, len(wavenumbers), 2 * len(wavenumbers))
    assert engine.field_shape == (2, len(wavenumbers), 4 * len(wavenumbers))
    angle = TWO_PI * np.multiply.outer(coords, wavenumbers)
    assert np.abs(rows[:, 0::2] - np.cos(angle)).max() <= RTOL
    assert np.abs(rows[:, 1::2] - np.sin(angle)).max() <= RTOL
    # any leading shape: (S, P, 2) points give (S, P, 2, 2K) rows
    assert np.array_equal(engine._tables(coords[:504].reshape(6, 42, 2)),
                          rows[:504].reshape(6, 42, 2, -1))


def test_batch_field_grids_are_per_row_products():
    law = make_law(3.0, spatial_max=10, temporal_max=4)
    hs = [sample_hamiltonian(law, 5, i) for i in range(3)]
    times = np.linspace(0, 1, 5)
    engine, phi = law.engine(), hs[0].time_basis(times)
    batch = PackedBatch(hs)
    want = batch.field_grids(phi)
    assert want.shape == (5, 3, 2, 5, 20)
    # the batched product equals one product per row
    for s, h in enumerate(hs):
        row = engine.field_grids(engine.grids(h.coefficients))
        assert np.array_equal(want[:, s], (phi @ row.reshape(len(row), -1)).reshape(want[:, s].shape))
    assert np.array_equal(batch.rows([2, 0]).field_grids(phi), want[:, [2, 0]])


def test_buffered_calls_equal_allocating_calls():
    law = make_law(3.0, spatial_max=10, temporal_max=4)
    hs = [sample_hamiltonian(law, 4, i) for i in range(3)]
    engine = law.engine()
    fields = PackedBatch(hs).field_grids(hs[0].time_basis(0.6))[0]
    pts = lifted_points((3, 50), seed=4)
    want = engine.vector_field(fields, pts)
    buffers, out = engine.buffers(pts.shape), np.empty(pts.shape)
    for _ in range(2):
        got = engine.vector_field(fields, pts, out, buffers)
        assert got is out and np.array_equal(got, want)
    grids = hs[0].coefficient_grids(np.linspace(0, 1, 5))
    rows = engine.lattice_rows(np.arange(24) / 24)
    want = engine.value_grid(grids, rows, rows)
    out, half = np.empty((5, 24, 24)), np.empty((5, 24, 2 * engine.band))
    got = engine.value_grid(grids, rows, rows, out=out, half=half)
    assert got is out and np.array_equal(got, want)


@pytest.mark.parametrize("axis_modes", [False, True], ids=["", "axis"])
def test_value_grid_takes_rows_per_grid(axis_modes):
    # each grid on its own rows gives those rows of its whole lattice, bit
    # for bit, down to two rows a grid
    law = make_law(0.5, spatial_max=25, include_axis_modes=axis_modes)
    engine = law.engine()
    grids = sample_hamiltonian(law, 5).coefficient_grids(np.linspace(0, 1, 6))
    rows = engine.lattice_rows(np.arange(40) / 40)
    whole = engine.value_grid(grids, rows, rows)
    picks = np.argsort(np.random.default_rng(5).uniform(size=(6, 40)), axis=1)
    for count in (2, 9, 40):
        pick = picks[:, :count]
        got = engine.value_grid(grids, rows[pick], rows)
        assert np.array_equal(got, np.take_along_axis(whole, pick[..., None], axis=1))


@pytest.mark.parametrize("axis_modes", [False, True], ids=["", "axis"])
def test_row_bounds_hold_every_row_of_the_lattice(axis_modes):
    law = make_law(3, spatial_max=25, include_axis_modes=axis_modes)
    engine = law.engine()
    grids = sample_hamiltonian(law, 6).coefficient_grids(np.linspace(0, 1, 5))
    rows = engine.lattice_rows(np.arange(64) / 64)
    half, value_half = np.empty((2, 5, 64, rows.shape[1]))
    bounds = engine.row_bounds(grids, rows, half=half)
    values = engine.value_grid(grids, rows, rows, half=value_half)
    assert bounds.shape == (5, 64)
    assert np.array_equal(half, value_half)
    assert np.all(np.abs(values).max(axis=2) <= bounds * (1 + 1e-12))
    # the bound is the sum of the moduli of the (cos, sin) pairs
    pairs = half.reshape(5, 64, -1, 2)
    assert np.allclose(bounds, np.hypot(pairs[..., 0], pairs[..., 1]).sum(axis=2), rtol=1e-14)


@pytest.mark.parametrize("width", range(2, 53, 2))
def test_blas_rounds_each_row_alike_at_the_oscillation_lattice(width):
    # the BLAS condition of hamflow.engine, on which the gathered products of
    # field.SpectralHamiltonian.oscillation rest: at the lattice every command
    # takes, a product of 2 to 69 rows, or 100, 200 or 299, of a table of any
    # width 2K up to 52 (band 26) with the contiguous (2K, n) y rows gives the
    # same rows as one 300-row product, at the first, second and last offsets
    rng = np.random.default_rng(width)
    left = rng.standard_normal((300, width))
    columns = rng.standard_normal((width, OSC_LATTICE[0]))
    whole = left @ columns
    for count in [*range(2, 70), 100, 200, 299]:
        for start in (0, 1, 300 - count):
            assert np.array_equal(left[start:start + count] @ columns,
                                  whole[start:start + count]), (count, start)

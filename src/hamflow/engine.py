"""Vectorized evaluation of truncated eigenfunction sums, up to a band.

A field H(t, x, y) = sum_n c_n(t) e_n(x, y) over a tensor-product trig basis
is evaluated through per-axis cosine/sine tables and small matrix products.
An engine evaluates the modes with kx, ky <= ``band`` only.  Coefficients
are packed into "grids" of shape (2, K1, 2*K1), K1 = band + 1: for each
x-factor (cos/sin) a matrix whose row kx multiplies the x-factor of
wavenumber kx, whose left block multiplies cos(2 pi j y) and whose right
block multiplies sin(2 pi j y).  Row/column 0 carries axis modes when
present.

Viewed as one (2*K1, 2*K1) matrix G, a grid is [g_cos; g_sin], so with
per-axis rows r(c) = [cos(2 pi k c) | sin(2 pi k c)], k = 0..band:

* H at (x, y) is r(x) @ G @ r(y);
* dH/dx and dH/dy come from the same product with rows
  [-k sin | k cos] (times 2 pi) on one side.

Evaluating P points then costs one (2P, 2*K1) @ (2*K1, 2*K1) product and
two row-wise dot products, which keeps the O(modes x points) inner loop in
BLAS.  Pointwise evaluation carries a leading draw axis: S grids
(S, 2, K1, 2*K1) are evaluated at S point sets (S, P, 2), set s under grid
s, so the RK4 stages of many draws cost one call.  A single draw is S = 1.
Lattice evaluation (``value_grid``) takes any number of leading grid axes,
so the lattices of several times cost one call.

The band comes from the law (``HamiltonianLaw.band``).  The law weights
mode n by w_n = exp(-r lambda_n / 2), so with mode scale s_n the mode
contributes at most b_n = w_n s_n (1 + 2 pi max(kx, ky)) to H and its
first derivatives, up to the size of its Gaussian.  The band is the largest
max(kx, ky) over modes with b_n >= eps^2 max b (eps the float64 machine
epsilon).  Every dropped mode, and at the shipped regularities their sum,
lies below eps^2 of the largest term, far below the last bit of the
evaluated field.  At spatial_max 25 (regularity in frequency units):

    r     band   modes evaluated   dropped sum b / max b
    0.1   25     2,500             0
    0.5   17     1,156             1.7e-33
    2     8      256               1.2e-33
    3     7      196               5.2e-40
    4.5   5      100               2.7e-33

A full-band engine (band = spatial_max) evaluates every mode; tests use it
as the reference.

Packing flushes entries below ``np.finfo(float).tiny`` to zero.  The band
bounds each mode against the largest, not against the normal range, so a
band can still hold weights that underflow into the subnormal range (a
small amplitude scales every mode down), and arithmetic on subnormals is
slow on x86-64 CPUs.  Before the band, at regularity 3 in frequency units
and spatial_max 25 (80 subnormal weights, 5% of the nonzero grid entries),
single-threaded OpenBLAS on a 2-core x86-64 machine took 1852 us for
``vector_field`` at 192 points on the unflushed grid and 251 us on the
flushed one, and 856 us and 178 us for ``value_grid`` on a 128 x 128
lattice.  A subnormal term lies below half an ulp of any sum larger than
2**52 * tiny (about 1e-292), so wherever the field is that large the
evaluated values stay bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SpectralBasis

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny


class SpectralEngine:
    """Evaluation kernels for the modes of one basis with kx, ky <= band.

    ``band = basis.truncation.spatial_max`` evaluates every mode.
    """

    def __init__(self, basis: SpectralBasis, band: int):
        if not 1 <= band <= basis.truncation.spatial_max:
            raise ValueError("band must lie in [1, spatial_max]")
        self.basis = basis
        self.band = int(band)
        k1 = self.band + 1
        self._k1 = k1
        self._modes = np.flatnonzero((basis.kx <= band) & (basis.ky <= band))
        self._amplitudes = basis.amplitudes[self._modes]
        # Placement of mode n: block basis.tx[n], row kx, column ty*K1+ky,
        # as an offset into one flattened (2, K1, 2*K1) grid.
        self._slots = ((basis.tx * k1 + basis.kx) * 2 * k1
                       + basis.ty * k1 + basis.ky)[self._modes]
        kvec = _TWO_PI * np.arange(k1)
        self._kk = np.concatenate([kvec, kvec])

    # -- coefficient packing -------------------------------------------------

    def grids(self, coeffs: np.ndarray) -> np.ndarray:
        """Pack per-mode coefficients (..., N) into grids (..., 2, K1, 2*K1).

        ``coeffs`` holds the raw c_n(t) of every mode of the basis; modes
        outside the band are dropped and amplitudes applied here.  Subnormal
        results are flushed to zero (module docstring).
        """
        values = np.asarray(coeffs, dtype=float)[..., self._modes] * self._amplitudes
        values[np.abs(values) < _TINY] = 0.0
        k1 = self._k1
        out = np.zeros(values.shape[:-1] + (2 * k1 * 2 * k1,))
        out[..., self._slots] = values
        return out.reshape(values.shape[:-1] + (2, k1, 2 * k1))

    # -- per-axis tables -----------------------------------------------------

    def _tables(self, coords: np.ndarray) -> np.ndarray:
        """Rows [cos(2 pi k c) | sin(2 pi k c)], k = 0..band; shape coords.shape + (2*K1,).

        Built by a complex power recurrence, one step per wavenumber for all
        coordinates at once.
        """
        z = np.exp(1j * _TWO_PI * (coords % 1.0))
        zk = np.empty(coords.shape + (self._k1,), dtype=complex)
        zk[..., 0] = 1.0
        for k in range(1, self._k1):
            np.multiply(zk[..., k - 1], z, out=zk[..., k])
        return np.concatenate([zk.real, zk.imag], axis=-1)

    def _square(self, grids: np.ndarray) -> np.ndarray:
        """Grids (..., 2, K1, 2*K1) viewed as (..., 2*K1, 2*K1) matrices [g_cos; g_sin]."""
        return grids.reshape(grids.shape[:-3] + (2 * self._k1, 2 * self._k1))

    def _rotated(self, rows: np.ndarray) -> np.ndarray:
        """d/dc of rows [cos | sin]: [-2 pi k sin | 2 pi k cos]."""
        k1 = self._k1
        return np.concatenate([-rows[..., k1:], rows[..., :k1]], axis=-1) * self._kk

    # -- evaluation ----------------------------------------------------------

    def value(self, grids: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """H at points (S, P, 2) under grids (S, 2, K1, 2*K1); shape (S, P)."""
        rows = self._tables(pts)
        w = rows[..., 0, :] @ self._square(grids)
        return np.einsum("spk,spk->sp", w, rows[..., 1, :])

    def gradient(self, grids: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """(dH/dx, dH/dy) at points (S, P, 2); shape (S, P, 2)."""
        dx, dy = self._deriv_pair(grids, pts)
        return np.stack([dx, dy], axis=-1)

    def vector_field(self, grids: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Hamiltonian vector field (-dH/dy, dH/dx) for the area form dx^dy.

        Points (S, P, 2) under grids (S, 2, K1, 2*K1); shape (S, P, 2).
        """
        dx, dy = self._deriv_pair(grids, pts)
        return np.stack([-dy, dx], axis=-1)

    def _deriv_pair(self, grids, pts):
        rows = self._tables(pts)
        rx, ry = rows[..., 0, :], rows[..., 1, :]
        p = pts.shape[-2]
        # one product gives w = rx @ G and wx = d(rx)/dx @ G
        both = np.concatenate([rx, self._rotated(rx)], axis=-2) @ self._square(grids)
        ddx = np.einsum("spk,spk->sp", both[:, p:], ry)
        ddy = np.einsum("spk,spk->sp", both[:, :p], self._rotated(ry))
        return ddx, ddy

    def value_grid(self, grid: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """H on the tensor lattice xs x ys under grids (..., 2, K1, 2*K1).

        Shape (..., len(xs), len(ys)): one lattice per leading grid index.
        """
        xs = np.asarray(xs, dtype=float)
        rows = self._tables(np.concatenate([xs, np.asarray(ys, dtype=float)]))
        return (rows[:len(xs)] @ self._square(grid)) @ rows[len(xs):].T

    def mode_values(self, pts: np.ndarray) -> np.ndarray:
        """e_n at each point for every mode of the basis: shape (P, N).

        Used by diagnostics, not flows.
        """
        b = self.basis
        ax = _TWO_PI * np.multiply.outer(pts[:, 0], b.kx.astype(float))
        ay = _TWO_PI * np.multiply.outer(pts[:, 1], b.ky.astype(float))
        fx = np.where(b.tx == 0, np.cos(ax), np.sin(ax))
        fy = np.where(b.ty == 0, np.cos(ay), np.sin(ay))
        return b.amplitudes * fx * fy

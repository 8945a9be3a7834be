"""Vectorized evaluation of truncated eigenfunction sums.

A field H(t, x, y) = sum_n c_n(t) e_n(x, y) over a tensor-product trig basis
is evaluated through per-axis cosine/sine tables and small matrix products.
Coefficients are packed into "grids": for each x-factor (cos/sin) a matrix of
shape (kmax+1, 2*(kmax+1)) whose left block multiplies cos(2 pi j y) and
right block sin(2 pi j y).  Row/column 0 carries axis modes when present.

Evaluating P points then costs a handful of (P, K) @ (K, 2K) products per
quantity, which keeps the O(modes x points) inner loop in BLAS.

Pointwise evaluation carries a leading draw axis: S grids (S, 2, K1, 2*K1)
are evaluated at S point sets (S, P, 2), set s under grid s, so the RK4
stages of many draws cost one call.  A single draw is S = 1.

Packing flushes entries below ``np.finfo(float).tiny`` to zero.  Strongly
regular draws carry spectral weights that underflow into the subnormal
range (at regularity 3 in frequency units and spatial_max 25: 80 weights,
5% of the nonzero grid entries), and arithmetic on subnormals is slow on
x86-64 CPUs.  For such a draw, single-threaded OpenBLAS on a 2-core
x86-64 machine, ``vector_field`` at 192 points took 1852 us on the
unflushed grid and 251 us on the flushed one, and ``value_grid`` on a
128 x 128 lattice 856 us and 178 us.  A subnormal term cannot change a sum
of normal-range terms, so the evaluated fields stay bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SpectralBasis

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny


class SpectralEngine:
    """Evaluation kernels bound to one basis."""

    def __init__(self, basis: SpectralBasis):
        self.basis = basis
        self.kmax = int(basis.truncation.spatial_max)
        k1 = self.kmax + 1
        self._k1 = k1
        # Placement of mode n: block basis.tx[n], row kx, column ty*(kmax+1)+ky,
        # as an offset into one flattened (2, K1, 2*K1) grid.
        self._slots = (basis.tx * k1 + basis.kx) * 2 * k1 + basis.ty * k1 + basis.ky
        self._kvec = _TWO_PI * np.arange(k1)

    # -- coefficient packing -------------------------------------------------

    def grids(self, coeffs: np.ndarray) -> np.ndarray:
        """Pack per-mode coefficients (..., N) into grids (..., 2, K1, 2*K1).

        Amplitudes are applied here, so ``coeffs`` are the raw c_n(t).
        Subnormal results are flushed to zero (module docstring).
        """
        values = np.asarray(coeffs, dtype=float) * self.basis.amplitudes
        values[np.abs(values) < _TINY] = 0.0
        k1 = self._k1
        out = np.zeros(values.shape[:-1] + (2 * k1 * 2 * k1,))
        out[..., self._slots] = values
        return out.reshape(values.shape[:-1] + (2, k1, 2 * k1))

    # -- per-axis tables -----------------------------------------------------

    def _tables(self, coords: np.ndarray):
        """cos/sin of 2 pi k c for k = 0..kmax, via complex power recurrence."""
        z = np.exp(1j * _TWO_PI * (coords % 1.0))
        zk = np.empty(coords.shape + (self._k1,), dtype=complex)
        zk[..., 0] = 1.0
        for k in range(1, self._k1):
            np.multiply(zk[..., k - 1], z, out=zk[..., k])
        return np.ascontiguousarray(zk.real), np.ascontiguousarray(zk.imag)

    # -- evaluation ----------------------------------------------------------

    def value(self, grids: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """H at points (S, P, 2) under grids (S, 2, K1, 2*K1); shape (S, P)."""
        cx, sx = self._tables(pts[..., 0])
        cy, sy = self._tables(pts[..., 1])
        w = cx @ grids[:, 0] + sx @ grids[:, 1]
        k1 = self._k1
        return (np.einsum("spk,spk->sp", w[..., :k1], cy)
                + np.einsum("spk,spk->sp", w[..., k1:], sy))

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
        cx, sx = self._tables(pts[..., 0])
        cy, sy = self._tables(pts[..., 1])
        kv = self._kvec
        g0, g1 = grids[:, 0], grids[:, 1]
        w = cx @ g0 + sx @ g1
        wx = (cx * kv) @ g1 - (sx * kv) @ g0
        k1 = self._k1
        ddx = (np.einsum("spk,spk->sp", wx[..., :k1], cy)
               + np.einsum("spk,spk->sp", wx[..., k1:], sy))
        ddy = (np.einsum("spk,spk->sp", w[..., k1:], cy * kv)
               - np.einsum("spk,spk->sp", w[..., :k1], sy * kv))
        return ddx, ddy

    def value_grid(self, grid: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """H on the tensor lattice xs x ys, shape (len(xs), len(ys))."""
        cx, sx = self._tables(np.asarray(xs, dtype=float))
        cy, sy = self._tables(np.asarray(ys, dtype=float))
        w = cx @ grid[0] + sx @ grid[1]
        k1 = self._k1
        return w[:, :k1] @ cy.T + w[:, k1:] @ sy.T

    def mode_values(self, pts: np.ndarray) -> np.ndarray:
        """e_n at each point: shape (P, N).  Used by diagnostics, not flows."""
        b = self.basis
        ax = _TWO_PI * np.multiply.outer(pts[:, 0], b.kx.astype(float))
        ay = _TWO_PI * np.multiply.outer(pts[:, 1], b.ky.astype(float))
        fx = np.where(b.tx == 0, np.cos(ax), np.sin(ax))
        fy = np.where(b.ty == 0, np.cos(ay), np.sin(ay))
        return b.amplitudes * fx * fy

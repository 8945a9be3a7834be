"""Vectorized evaluation of truncated eigenfunction sums, up to a band.

A field H(t, x, y) = sum_n c_n(t) e_n(x, y) over a tensor-product trig basis
is evaluated through per-axis cosine/sine tables and small matrix products.
An engine evaluates the modes with kx, ky <= ``band`` only.  With K1 =
band + 1, the per-axis row of a coordinate c is interleaved,

    r(c) = [cos 0, sin 0, cos(2 pi c), sin(2 pi c), ..., sin(2 pi band c)],

so slot 2k + t holds the cos (t = 0) or sin (t = 1) factor of wavenumber k.
Coefficients are packed into a (2*K1, 2*K1) matrix G whose entry
(2kx + tx, 2ky + ty) multiplies mode (kx, ky, tx, ty); H at (x, y) is
r(x) @ G @ r(y).  Row/column 0 carries axis modes when present.  A grid is
stored as G flattened and split to shape (2, K1, 2*K1), so its shape still
names K1.

The derivative of a row is a fixed matrix, r'(c) = r(c) @ D, with D
2 pi k [[0, 1], [-1, 0]] on the diagonal block of wavenumber k.  So
dH/dx = r(x) D G r(y) and dH/dy = r(x) G D^T r(y), and the Hamiltonian
vector field (-dH/dy, dH/dx) for the area form dx^dy comes from one field
grid

    F = [-G D^T | D G],   shape (2*K1, 4*K1), stored as (2, K1, 4*K1):

``vector_field`` takes w = r(x) @ F, splits it into two rows of 2*K1 and
dots each with r(y).  A call at P points then costs one table build, one
(P, 2*K1) @ (2*K1, 4*K1) product and one contraction.  F is built by
``field_grids``, outside the call.  F is linear in G, so a flow's batch
(``field.PackedBatch``) packs each draw straight to field grids as it is
appended and keeps no plain grids; its RK4 stage grids, 2*K1 x 4*K1
entries per stage time and draw (twice the size of plain grids), are one
product of the time basis with each draw's packed field grids.  Plain
grids serve values, gradients and lattices
(``field.SpectralHamiltonian.coefficient_grids``).
Pointwise evaluation carries a leading draw axis: S grids (S, 2, K1, 2*K1),
or S field grids (S, 2, K1, 4*K1), are evaluated at S point sets (S, P, 2),
set s under grid s, so the RK4 stages of many draws cost one call.  A
single draw is S = 1.  Lattice evaluation (``value_grid``) takes any number
of leading grid axes, so the lattices of several times cost one call, and
takes a lattice's rows (``lattice_rows``) in place of its coordinates, so
calls on one lattice build its rows once.

Buffers.  ``vector_field`` writes its tables, its product and its result
into arrays the caller owns: ``FieldBuffers`` (from ``buffers``) and
``out``.  A flow allocates them once and reuses them at every stage
(``flow._rk4_grids``), and ``value_grid`` takes ``out`` and ``half`` for the
lattice and the half product r(x) @ G in the same way
(``field.SpectralHamiltonian.oscillation``).  The engine itself holds no
per-call state, so one engine, shared by every law with its truncation and
band, stays reentrant.  The buffers change no value: every call performs the
same elementwise operations and products, in the same order and on arrays
of the same layout, as one that allocates.  They remove the page faults of
arrays above glibc's mmap threshold (128 KiB by default), which are mapped
and unmapped on every call when nothing raises the threshold.

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

Coefficients are packed for the band modes only: ``grids`` takes c_n for
the engine's ``modes`` (the basis indices of the modes with kx, ky <= band,
ascending), never for the whole basis.

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
evaluated values stay bit-identical.  A field grid scales each entry of
its grid by 2 pi k, so the field grids of a flushed grid hold none either.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import SpectralBasis

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny


class FieldBuffers:
    """Work arrays of the tables of coordinates of one shape (..., 2), and of
    ``SpectralEngine.vector_field`` at points of that shape: the coordinate
    and trig scratch, the complex powers whose real view is the tables, and
    the product r(x) @ F.  The caller owns them; one set serves every call at
    that shape.
    """

    __slots__ = ("theta", "trig", "powers", "product")

    def __init__(self, shape: tuple, k1: int):
        self.theta = np.empty(shape)
        self.trig = np.empty(shape)
        self.powers = np.empty(shape + (k1,), dtype=complex)
        self.powers[..., 0] = 1.0  # z^0, never overwritten
        self.product = np.empty(shape[:-1] + (4 * k1,))


class SpectralEngine:
    """Evaluation kernels for the modes of one basis with kx, ky <= band.

    ``band = basis.truncation.spatial_max`` evaluates every mode.  ``modes``
    holds the basis indices of the evaluated modes, ascending.
    """

    def __init__(self, basis: SpectralBasis, band: int):
        if not 1 <= band <= basis.truncation.spatial_max:
            raise ValueError("band must lie in [1, spatial_max]")
        self.basis = basis
        self.band = int(band)
        k1 = self.band + 1
        self._k1 = k1
        self.modes = np.flatnonzero((basis.kx <= band) & (basis.ky <= band))
        self.modes.setflags(write=False)
        self._amplitudes = basis.amplitudes[self.modes]
        # Placement of mode n: entry (2kx + tx, 2ky + ty) of G, as an offset
        # into the flattened grid.
        self._slots = ((2 * basis.kx + basis.tx) * 2 * k1 + 2 * basis.ky + basis.ty)[self.modes]
        # r' = r @ D: D maps slot 2k + 1 to 2k with factor -2 pi k and slot 2k
        # to 2k + 1 with 2 pi k, so (r @ D)[j] = r[swap[j]] * d[j]
        self._swap = np.arange(2 * k1) ^ 1
        self._d = _TWO_PI * np.repeat(np.arange(k1), 2) * np.tile([-1.0, 1.0], k1)

    # -- coefficient packing -------------------------------------------------

    def grids(self, coeffs: np.ndarray) -> np.ndarray:
        """Pack band coefficients (..., len(modes)) into grids (..., 2, K1, 2*K1).

        ``coeffs[..., j]`` is the raw c_n(t) of mode ``modes[j]``; amplitudes
        are applied here.  Subnormal results are flushed to zero (module
        docstring).
        """
        values = np.asarray(coeffs, dtype=float) * self._amplitudes
        values[np.abs(values) < _TINY] = 0.0
        k1 = self._k1
        out = np.zeros(values.shape[:-1] + (2 * k1 * 2 * k1,))
        out[..., self._slots] = values
        return out.reshape(values.shape[:-1] + (2, k1, 2 * k1))

    def field_grids(self, grids: np.ndarray) -> np.ndarray:
        """Field grids F = [-G D^T | D G] of grids (..., 2, K1, 2*K1); shape
        (..., 2, K1, 4*K1) (module docstring).  Each entry is one entry of G
        times -2 pi k or 2 pi k: (-G D^T)[:, j] = G[:, swap[j]] d[j] and
        (D G)[i] = -d[i] G[swap[i]], so F of a flushed grid holds no subnormals.
        """
        g = self._square(grids)
        f = [g[..., self._swap] * self._d, g[..., self._swap, :] * -self._d[:, None]]
        return np.concatenate(f, axis=-1).reshape(grids.shape[:-3] + (2, self._k1, 4 * self._k1))

    def buffers(self, shape) -> FieldBuffers:
        """Work arrays for coordinates, or points, of the given shape."""
        return FieldBuffers(tuple(shape), self._k1)

    # -- per-axis tables -----------------------------------------------------

    def _tables(self, coords: np.ndarray, buffers: FieldBuffers | None = None) -> np.ndarray:
        """Interleaved rows [cos 0, sin 0, ..., cos(2 pi band c), sin(2 pi band c)];
        shape coords.shape + (2*K1,).

        The rows are the real view of the powers z^k, z = exp(2 pi i c),
        built by a complex power recurrence, one step per wavenumber for all
        coordinates at once.  The rows are a view of ``buffers.powers``
        (``buffers(coords.shape)``), valid until the buffers' next use.
        """
        if buffers is None:
            buffers = self.buffers(coords.shape)
        theta, trig, zk = buffers.theta, buffers.trig, buffers.powers
        np.floor(coords, out=theta)
        np.subtract(coords, theta, out=theta)
        np.multiply(theta, _TWO_PI, out=theta)
        zk[..., 1].real = np.cos(theta, out=trig)
        zk[..., 1].imag = np.sin(theta, out=trig)
        for k in range(2, self._k1):
            np.multiply(zk[..., k - 1], zk[..., 1], out=zk[..., k])
        return zk.view(float)

    def _square(self, grids: np.ndarray) -> np.ndarray:
        """Grids (..., 2, K1, 2*K1) viewed as (..., 2*K1, 2*K1) matrices G."""
        return grids.reshape(grids.shape[:-3] + (2 * self._k1, 2 * self._k1))

    # -- evaluation ----------------------------------------------------------

    def value(self, grids: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """H at points (S, P, 2) under grids (S, 2, K1, 2*K1); shape (S, P)."""
        rows = self._tables(pts)
        w = rows[..., 0, :] @ self._square(grids)
        return np.einsum("spk,spk->sp", w, rows[..., 1, :])

    def vector_field(self, fields: np.ndarray, pts: np.ndarray, out: np.ndarray | None = None,
                     buffers: FieldBuffers | None = None) -> np.ndarray:
        """Hamiltonian vector field (-dH/dy, dH/dx) for the area form dx^dy.

        Points (S, P, 2) under field grids (S, 2, K1, 4*K1) (``field_grids``);
        shape (S, P, 2).  The result is written to ``out`` if given, and the
        tables and the product to ``buffers`` (``buffers(pts.shape)``) if
        given; both belong to the caller (module docstring).
        """
        if buffers is None:
            buffers = self.buffers(pts.shape)
        rows = self._tables(pts, buffers)
        w = np.matmul(rows[..., 0, :], fields.reshape(fields.shape[:-3] + (2 * self._k1, -1)),
                      out=buffers.product)
        return np.einsum("spik,spk->spi", w.reshape(w.shape[:-1] + (2, -1)), rows[..., 1, :],
                         out=out)

    def lattice_rows(self, coords) -> np.ndarray:
        """The per-axis rows (len(coords), 2*K1) of lattice coordinates, which
        ``value_grid`` takes in place of the coordinates, so that many calls
        on one lattice build its rows once."""
        return self._tables(np.asarray(coords, dtype=float))

    def value_grid(self, grid: np.ndarray, xs, ys, out: np.ndarray | None = None,
                   half: np.ndarray | None = None) -> np.ndarray:
        """H on the tensor lattice xs x ys under grids (..., 2, K1, 2*K1).

        ``xs`` and ``ys`` are coordinates (1-D) or their ``lattice_rows``
        (2-D).  Shape (..., len(xs), len(ys)): one lattice per leading grid
        index.  The lattices are written to ``out`` and the half product
        r(x) @ G, shape (..., len(xs), 2*K1), to ``half`` if given.
        """
        rx, ry = (c if np.ndim(c) == 2 else self.lattice_rows(c) for c in (xs, ys))
        return np.matmul(np.matmul(rx, self._square(grid), out=half), ry.T, out=out)

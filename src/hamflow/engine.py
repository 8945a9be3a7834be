"""Vectorized evaluation of truncated eigenfunction sums, up to a band.

A field H(t, x, y) = sum_n c_n(t) e_n(x, y) over a tensor-product trig basis
is evaluated through per-axis cosine/sine tables and small matrix products.
An engine evaluates the modes with kx, ky <= ``band`` only.  Its tables
start at the lowest wavenumber k0 of those modes: k0 = 0 when the basis has
axis modes (one wavenumber zero) and k0 = 1 when it has none, the default.
With K = band + 1 - k0 wavenumbers, the per-axis row of a coordinate c is
interleaved,

    r(c) = [cos(2 pi k0 c), sin(2 pi k0 c), ..., sin(2 pi band c)],

so slot 2(k - k0) + t holds the cos (t = 0) or sin (t = 1) factor of
wavenumber k.  Coefficients are packed into a (2K, 2K) matrix G whose entry
(2(kx - k0) + tx, 2(ky - k0) + ty) multiplies mode (kx, ky, tx, ty); H at
(x, y) is r(x) @ G @ r(y).  Without axis modes the cos 0 = 1 and sin 0 = 0
slots would only ever meet zero rows and columns of G, so they are left
out: at band 5 a table is 10 wide, not 12.  With axis modes, slot 0 holds
cos 0 = 1, and row and column 0 of G carry the axis modes.  A grid is
stored as G flattened and split to shape (2, K, 2K) (``grid_shape``), so
its shape still names K.

The derivative of a row is a fixed matrix, r'(c) = r(c) @ D, with D
2 pi k [[0, 1], [-1, 0]] on the diagonal block of wavenumber k.  So
dH/dx = r(x) D G r(y) and dH/dy = r(x) G D^T r(y), and the Hamiltonian
vector field (-dH/dy, dH/dx) for the area form dx^dy comes from one field
grid

    F = [-G D^T | D G],   shape (2K, 4K), stored as (2, K, 4K) (``field_shape``):

``vector_field`` takes w = r(x) @ F, splits it into two rows of 2K and
dots each with r(y).  A call at P points then costs one table build, one
(P, 2K) @ (2K, 4K) product and one contraction.  F is built by
``field_grids``, outside the call.  F is linear in G, so a flow's batch
(``field.PackedBatch``) packs each draw straight to field grids as it
reads it and keeps no plain grids; its stage grids, 2K x 4K entries
per stage time and draw (twice the size of plain grids), are one batched
product of the time basis with the draws' packed field grids.  Plain
grids serve lattices (``field.SpectralHamiltonian.coefficient_grids``).
The one pointwise kernel, ``vector_field``, carries a leading draw axis:
S field grids (S, 2, K, 4K) are evaluated at S point sets (S, P, 2), set s
under grid s, so a stage of many draws costs one call.  A single draw is
S = 1.  Lattice evaluation (``value_grid``) takes any number of leading
grid axes, so the lattices of several times cost one call, and takes a
lattice's rows (``lattice_rows``) in place of its coordinates, so calls on
one lattice build its rows once.  It also takes x rows per grid, so that
each time is evaluated on its own rows.  An oscillation evaluates two
rows per time so, and then the rows whose bound (``row_bounds``) says they
can hold the lattice's max or min, in one product of their half products
(the bounds' own) with the y rows: at 128 x 101 and r = 3, a median of
about 720 rows of the 101 times' 12,928, one product per pass
(``field.SpectralHamiltonian.oscillation``).

The BLAS condition.  Every bit-for-bit claim of the package (a draw's
flow, whatever the other draws and points of its batch; a lattice row,
whatever the other rows evaluated) rests on one property of the BLAS, not
a numpy guarantee, which the tests check on the BLAS numpy is built with:
a matrix product rounds each row of its left operand alike at any row
count of two or more.  One row takes numpy's matrix-vector path, which
rounds differently, so a point or lattice row that is also evaluated among
others is never evaluated alone.  OpenBLAS 0.3 has the property for a
contiguous right operand, so both products of ``value_grid`` (a lattice
value is one 2K-term dot product of the half product r(x) @ G with r(y))
take theirs contiguous.  With the transposed view of the y rows as right
operand it fails: for 2K >= 32 and up to about 1,200 entries per lattice,
OpenBLAS takes a small-matrix kernel that sums in another order.  At
128 x 128 the two operands give the same lattices on every law tested; on
small lattices of rough laws (17 x 17 at r <= 0.5 and 2 x 2 at r = 2,
frequency units) they differ in the last bit.  The contiguous operand
has the property at some column counts n only.  With random operands
(OpenBLAS 0.3.31, AVX-512), products of 2 to 69 rows and of several
larger counts matched a product of many rows, row for row, at n = 37, 64
and 128 for every 2K up to 52, and at every n up to 69 for 2K = 10 and
12; for 2K >= 20 they did not at several n of 1, 2 or 3 mod 8 (2, 3, 17
and 33 among them); at n = 100 and 33 about 700 and 940 of the 1,846
(2K, row count) cases failed.  So every oscillation takes one lattice,
n = 128 (``field.OSC_LATTICE``), whose condition the tests check on the
BLAS they run on, at every 2K up to 52 (``tests/test_engine.py``,
``test_blas_rounds_each_row_alike_at_the_oscillation_lattice``), and on
which the oscillation tests compare its extremes with the whole lattices'.

Buffers.  ``vector_field`` writes its tables, its product and its result
into arrays the caller owns: ``FieldBuffers`` (from ``buffers``) and
``out``.  A flow allocates them once and reuses them at every stage
(``flow._flow_grids``).  ``value_grid`` takes ``out`` and ``half`` for the
lattice and the half product r(x) @ G in the same way, and ``row_bounds``
``half``, ``moduli`` and ``out``; an oscillation takes them all from one
buffer that a chunk of draws owns (``field.OscillationBuffers``).  The
engine itself holds no per-call state, so one engine, shared by every law
with its basis and band, stays reentrant.  The buffers change no value:
every call performs the same elementwise operations and products, in the
same order and on arrays of the same layout, as one that allocates.  They
remove the page faults of arrays above glibc's mmap threshold (128 KiB by
default), which are mapped and unmapped on every call when nothing raises
the threshold.

The band comes from the law (``HamiltonianLaw.band`` gives the rule):
the dropped modes, each normal taken at 9 (a standard normal exceeds that
with probability about 2e-19), sum to at most half an ulp of the largest
term, so they cannot move a double of a field of that size.

A full-band engine (band = spatial_max) evaluates every mode; tests use it
as the reference.

Coefficients are packed for the band modes only: ``grids`` takes c_n for
the engine's ``modes`` (the basis indices of the modes with kx, ky <= band,
ascending), never for the whole basis.

Packing flushes entries below ``np.finfo(float).tiny`` to zero.  The band
bounds each mode against the largest, not against the normal range, so a
band can still hold coefficients in the subnormal range, and arithmetic on
subnormals is slow on x86-64 CPUs.  From regularity 28 up (frequency
units, spatial_max 25) the band is 1, and a draw's banded B (the (1, 1)
modes at the temporal band's rows) holds a subnormal only where their
weight exp(-r) nears the floor of the normal range: over the integer
regularities up to 1,000 at temporal_max 10 and 40, 4 draws per law
(streams (0, i)), the first came at 684 for sqexp, 706 for periodic and
704 for constant.  From 709 up that weight lies below the normal range,
and the whole field is below about 1e-304.  A subnormal term lies below
half an ulp of any sum larger than 2**52 * tiny (about 1e-292), so
wherever the field is that large the evaluated values stay
bit-identical.  A field grid scales each entry of its grid by 2 pi k, so
the field grids of a flushed grid hold none either.
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
    scratch, the complex powers z^k0 .. z^band whose real view is the
    tables, and the product r(x) @ F.  The caller owns them; one set
    serves every call at that shape.
    """

    __slots__ = ("theta", "powers", "product")

    def __init__(self, shape: tuple, k0: int, k: int):
        self.theta = np.empty(shape)
        self.powers = np.empty(shape + (k,), dtype=complex)
        if k0 == 0:
            self.powers[..., 0] = 1.0  # z^0, never overwritten
        self.product = np.empty(shape[:-1] + (4 * k,))


class SpectralEngine:
    """Evaluation kernels for the modes of one basis with kx, ky <= band.

    ``band = basis.spatial_max`` evaluates every mode.  ``modes``
    holds the basis indices of the evaluated modes, ascending.  Grids have
    shape ``grid_shape`` = (2, K, 2K) and field grids ``field_shape`` =
    (2, K, 4K), K the wavenumbers of the tables (module docstring).
    """

    def __init__(self, basis: SpectralBasis, band: int):
        if not 1 <= band <= basis.spatial_max:
            raise ValueError("band must lie in [1, spatial_max]")
        self.basis = basis
        self.band = int(band)
        self.modes = np.flatnonzero((basis.kx <= band) & (basis.ky <= band))
        self.modes.setflags(write=False)
        kx, ky = basis.kx[self.modes], basis.ky[self.modes]
        # the tables hold wavenumbers k0..band: k0 = 0 only with axis modes
        k0 = int(min(kx.min(), ky.min()))
        k = self.band + 1 - k0
        self._k0, self._k = k0, k
        self.grid_shape, self.field_shape = (2, k, 2 * k), (2, k, 4 * k)
        self._amplitudes = basis.amplitudes[self.modes]
        # Placement of mode n: entry (2(kx - k0) + tx, 2(ky - k0) + ty) of G,
        # as an offset into the flattened grid.
        self._slots = ((2 * (kx - k0) + basis.tx[self.modes]) * 2 * k
                       + 2 * (ky - k0) + basis.ty[self.modes])
        # r' = r @ D: D maps the sin slot of wavenumber w to its cos slot with
        # factor -2 pi w and the cos slot to the sin slot with 2 pi w, so
        # (r @ D)[j] = r[swap[j]] * d[j]
        self._swap = np.arange(2 * k) ^ 1
        self._d = _TWO_PI * np.repeat(np.arange(k0, self.band + 1), 2) * np.tile([-1.0, 1.0], k)

    # -- coefficient packing -------------------------------------------------

    def grids(self, coeffs: np.ndarray) -> np.ndarray:
        """Pack band coefficients (..., len(modes)) into grids (..., 2, K, 2K).

        ``coeffs[..., j]`` is the raw c_n(t) of mode ``modes[j]``; amplitudes
        are applied here.  Subnormal results are flushed to zero (module
        docstring).
        """
        values = np.asarray(coeffs, dtype=float) * self._amplitudes
        values[np.abs(values) < _TINY] = 0.0
        out = np.zeros(values.shape[:-1] + (4 * self._k * self._k,))
        out[..., self._slots] = values
        return out.reshape(values.shape[:-1] + self.grid_shape)

    def field_grids(self, grids: np.ndarray) -> np.ndarray:
        """Field grids F = [-G D^T | D G] of grids (..., 2, K, 2K); shape
        (..., 2, K, 4K) (module docstring).  Each entry is one entry of G
        times -2 pi k or 2 pi k: (-G D^T)[:, j] = G[:, swap[j]] d[j] and
        (D G)[i] = -d[i] G[swap[i]], so F of a flushed grid holds no subnormals.
        """
        g = self._square(grids)
        f = [g[..., self._swap] * self._d, g[..., self._swap, :] * -self._d[:, None]]
        return np.concatenate(f, axis=-1).reshape(grids.shape[:-3] + self.field_shape)

    def buffers(self, shape) -> FieldBuffers:
        """Work arrays for coordinates, or points, of the given shape."""
        return FieldBuffers(tuple(shape), self._k0, self._k)

    # -- per-axis tables -----------------------------------------------------

    def _tables(self, coords: np.ndarray, buffers: FieldBuffers | None = None) -> np.ndarray:
        """Interleaved rows [cos(2 pi k0 c), sin(2 pi k0 c), ..., sin(2 pi band c)];
        shape coords.shape + (2K,).

        The rows are the real view of the powers z^k, z = exp(2 pi i c),
        built by a complex power recurrence, one step per wavenumber for all
        coordinates at once.  The rows are a view of ``buffers.powers``
        (``buffers(coords.shape)``), valid until the buffers' next use.
        """
        if buffers is None:
            buffers = self.buffers(coords.shape)
        theta, zk = buffers.theta, buffers.powers
        np.floor(coords, out=theta)
        np.subtract(coords, theta, out=theta)
        np.multiply(theta, _TWO_PI, out=theta)
        z = zk[..., 1 - self._k0]
        np.cos(theta, out=z.real)
        np.sin(theta, out=z.imag)
        for j in range(2 - self._k0, self._k):
            np.multiply(zk[..., j - 1], z, out=zk[..., j])
        return zk.view(float)

    def _square(self, grids: np.ndarray) -> np.ndarray:
        """Grids (..., 2, K, 2K) viewed as (..., 2K, 2K) matrices G."""
        return grids.reshape(grids.shape[:-3] + (2 * self._k, 2 * self._k))

    # -- evaluation ----------------------------------------------------------

    def vector_field(self, fields: np.ndarray, pts: np.ndarray, out: np.ndarray | None = None,
                     buffers: FieldBuffers | None = None) -> np.ndarray:
        """Hamiltonian vector field (-dH/dy, dH/dx) for the area form dx^dy.

        Points (S, P, 2) under field grids (S, 2, K, 4K) (``field_grids``);
        shape (S, P, 2).  The result is written to ``out`` if given, and the
        tables and the product to ``buffers`` (``buffers(pts.shape)``) if
        given; both belong to the caller (module docstring).
        """
        if buffers is None:
            buffers = self.buffers(pts.shape)
        rows = self._tables(pts, buffers)
        w = np.matmul(rows[..., 0, :], fields.reshape(fields.shape[:-3] + (2 * self._k, -1)),
                      out=buffers.product)
        return np.einsum("spik,spk->spi", w.reshape(w.shape[:-1] + (2, -1)), rows[..., 1, :],
                         out=out)

    def lattice_rows(self, coords) -> np.ndarray:
        """The per-axis rows (len(coords), 2K) of lattice coordinates, which
        ``value_grid`` and ``row_bounds`` take in place of the coordinates, so
        that many calls on one lattice build its rows once."""
        return self._tables(np.asarray(coords, dtype=float))

    def value_grid(self, grid: np.ndarray, xs, ys, out: np.ndarray | None = None,
                   half: np.ndarray | None = None) -> np.ndarray:
        """H on the tensor lattice xs x ys under grids (..., 2, K, 2K).

        ``xs`` and ``ys`` are coordinates (1-D) or their ``lattice_rows``
        (2-D).  ``xs`` may also hold rows per grid, (..., n, 2K) with the
        grids' leading shape: grid i is then evaluated on its own n rows
        only.  Shape (..., n, len(ys)): one lattice per leading grid index.
        The lattices are written to ``out`` and the half product r(x) @ G,
        shape (..., n, 2K), to ``half`` if given.

        The second product takes the rows of ``ys`` transposed into one
        contiguous (2K, len(ys)) array, copied unless ``ys`` is already the
        transpose of one (the BLAS condition, module docstring).
        """
        rx, ry = (c if np.ndim(c) >= 2 else self.lattice_rows(c) for c in (xs, ys))
        return np.matmul(np.matmul(rx, self._square(grid), out=half), np.ascontiguousarray(ry.T),
                         out=out)

    def row_bounds(self, grid: np.ndarray, rows: np.ndarray, half: np.ndarray | None = None,
                   moduli: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Bounds on |H| along each lattice row x = const under grids
        (..., 2, K, 2K); shape (..., len(rows)), ``rows`` the ``lattice_rows``
        of the x coordinates.

        In the half product h = r(x) @ G, written to ``half`` if given, slots
        2j and 2j + 1 hold the factors (a, b) of cos and sin of wavenumber
        k0 + j in y, and |a cos + b sin| <= |(a, b)|.  So every value of the
        row, H(x, y) = h @ r(y), lies within B = sum_j |(a_j, b_j)| of zero.
        The moduli, shape (..., len(rows), K), are written to ``moduli`` if
        given.  They are those of h viewed as complex numbers, which numpy
        takes with ``hypot`` and so without underflow: pairs near 1e-217
        (regularity 500 in frequency units) keep their moduli, where plain
        squares would flush to zero.  The bounds are written to ``out`` if
        given.

        The rounding of the evaluated values stays within a relative 2K eps
        or so of B: the (cos, sin) pairs of r(y) have modulus 1 to within
        about k eps, and a 2K-term dot product errs by at most 2K eps times
        the sum of the terms' moduli, itself at most B (Cauchy-Schwarz per
        pair).  The caller adds that slack
        (``field.SpectralHamiltonian.oscillation``).  h is the same
        product, row by row, that ``value_grid`` makes on these rows, in
        one layout (the BLAS condition, module docstring).
        """
        h = np.matmul(rows, self._square(grid), out=half)
        return np.matmul(np.abs(h.view(complex), out=moduli), np.ones(self._k), out=out)

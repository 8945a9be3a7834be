"""Random Hamiltonian fields H(t, x) = sum_n w_n Z_n(t) e_n(x).

A :class:`HamiltonianLaw` fixes the probability law, as one record of its
five parameters; :func:`sample_hamiltonian` draws one
:class:`RandomHamiltonian` from it at a seed and stream indices.  Draws are
immutable and their methods reentrant.
:class:`SpectralHamiltonian` is the one spectral-path type: draws are its
one subclass, and time reversals are plain instances.  It evaluates no
point; flows take it packed (:class:`PackedBatch`).  Coefficients are
computed and packed for the engine's band modes only (``SpectralEngine.modes``).

Streams.  A draw owns its stream: ``sample_hamiltonian(law, seed, *indices)``
creates the generator ``derive(seed, *indices)`` and no caller shares it.
A draw's normals are the rows of one (N, m) array in row order, the first
N * m normals of that stream.  The basis is sorted by eigenvalue, so the
band modes' indices run from 0 up to ``HamiltonianLaw.head_rows()`` - 1,
and ``sample_hamiltonian`` draws only that head.  At spatial_max 25,
temporal_max 10, periodic kernel (N = 2,500, m = 21; regularity in
frequency units):

    r      band   band modes   head rows   temporal band (B rows)
    0.1    25     2,500        2,500       10 (21)
    0.5    17     1,156        1,712       10 (21)
    2      8      256          360         8 (17)
    3      7      196          268         6 (13)
    3.95   6      144          192         6 (13)
    4.5    5      100          128         5 (11)

A draw holds the rows it is built from: its head, or more rows of the same
array, up to all N.  Its B reads the head only, so both give the same draw.

Temporal band.  A draw is a series in the law's ``time_basis``: the
kernel's time basis cut to the frequencies whose column factors reach
eps^2 of the largest (``HamiltonianLaw.temporal_band``), so B holds
1 + 2 temporal_band rows (last column above).  The normals keep all m
columns: streams, ``gaussians_per_sample()`` and ``head_rows()`` do not
depend on the band.  A dropped row scales each normal by less than eps^2
of the constant term's factor; the tests find the banded draws' flows and
oscillations bit for bit those of the whole time basis (periodic and
sqexp, r = 3 and 4.5).  A flow's packed rows shrink with the band: 13 of
21 per draw at r = 3.  The sqexp series already stops at factors near
exp(-18.5), so its band keeps every frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import temporal
from .basis import TWO_PI, SpectralBasis
from .engine import SpectralEngine
from .rng import derive
from .temporal import TimeBasis, computed_once


def spectral_weight(eigenvalue: float, regularity: float):
    """Spectral decay weight exp(-eigenvalue * regularity / 2)."""
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    return np.exp(-0.5 * np.asarray(eigenvalue) * regularity)


# Unbounded, so that every draw of a law holds the one engine and basis
# (``PackedBatch`` batches draws of one engine only); there is one key per
# spatial truncation and band.
@lru_cache(maxsize=None)
def _basis_for(spatial_max: int, include_axis_modes: bool) -> SpectralBasis:
    return SpectralBasis(spatial_max, include_axis_modes)


@lru_cache(maxsize=None)
def _engine_for(spatial_max: int, include_axis_modes: bool, band: int) -> SpectralEngine:
    return SpectralEngine(_basis_for(spatial_max, include_axis_modes), band)


# A mode is evaluated when its bound b_n reaches this share of the largest
# (see HamiltonianLaw.band and the engine module docstring).
_BAND_TOLERANCE = np.finfo(float).eps ** 2
# ``oscillation`` bounds the lattice rows of _OSC_BLOCK times at once.  It
# evaluates at most half of a time's n rows (all 16 times' in one call)
# before it turns to whole lattices, so one work buffer of the size that the
# lattices and half products of 8 times take holds a block's evaluated rows,
# or 8 whole lattices per call; all 101 times at once would hold about 13 MB
# of lattices at 128 x 128.
_OSC_BLOCK = 16
# Rows per time that ``oscillation`` evaluates first, by falling bound, to
# find the extremes that the other rows' bounds are held against; two at
# least, so that no product falls to numpy's matrix-vector path.
_OSC_FIRST = 4
# Relative slack on a row bound, far above the rounding of the bound and of
# the evaluated values (``SpectralEngine.row_bounds``).
_OSC_SLACK = 1e-12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class HamiltonianLaw:
    """Everything that fixes the law of a random Hamiltonian draw: its five
    parameters, each held once.

    The complex structure is the standard one on the flat torus (metric =
    Euclidean, area form dx^dy); only these vary:

    * ``regularity`` r, in eigenvalue units: the weights exp(-r lambda / 2)
      and the kernel's decay;
    * ``spatial_max`` and ``include_axis_modes``: the basis
      (:class:`~hamflow.basis.SpectralBasis`);
    * ``temporal_max``: the periodic kernel's Fourier order;
    * ``kernel``: the coefficient kernel's tag (:mod:`hamflow.temporal`).

    A law with one parameter moved is ``dataclasses.replace(law, spatial_max=K)``.
    ``band``, ``temporal_band``, ``kernel_time_basis``, ``column_factors``,
    ``time_basis``, ``head_rows``, ``weights`` and ``lipschitz_bound`` are
    computed once per law and shared by its draws; they are no fields, so
    laws of equal parameters are equal and hash alike whatever either has
    computed.
    """

    regularity: float
    spatial_max: int
    temporal_max: int
    kernel: str
    include_axis_modes: bool

    def __post_init__(self):
        if self.kernel not in temporal.KERNEL_TAGS:
            raise ValueError(f"unknown kernel tag {self.kernel!r}")
        if self.regularity <= 0:
            raise ValueError("regularity must be positive")
        if self.spatial_max < 1:
            raise ValueError("spatial_max must be >= 1")
        if self.temporal_max < 1:
            raise ValueError("temporal_max must be >= 1")

    def basis(self) -> SpectralBasis:
        return _basis_for(self.spatial_max, self.include_axis_modes)

    @computed_once
    def band(self) -> int:
        """Largest wavenumber whose modes the law's weights can resolve.

        Each mode n contributes at most b_n = w_n (1 + 2 pi max(kx, ky)) to
        H and its first derivatives, per unit of its Gaussian.  The band is
        the largest max(kx, ky) over modes with b_n >= eps^2 max b; it is
        computed from log b_n, so underflowing weights do not move it.
        """
        b = self.basis()
        kmax = np.maximum(b.kx, b.ky)
        log_bound = -0.5 * self.regularity * b.eigenvalues + np.log1p(TWO_PI * kmax)
        return int(kmax[log_bound >= log_bound.max() + np.log(_BAND_TOLERANCE)].max())

    @computed_once
    def kernel_time_basis(self) -> TimeBasis:
        """The kernel's whole time basis (``temporal.time_basis``), before
        the temporal band cuts it."""
        return temporal.time_basis(self.kernel, self.regularity, self.temporal_max)

    @computed_once
    def column_factors(self) -> np.ndarray:
        """The kernel's (m,) column factors over ``kernel_time_basis``
        (``temporal.column_factors``)."""
        return temporal.column_factors(self.kernel, self.regularity, self.kernel_time_basis())

    def gaussians_per_sample(self) -> int:
        """m, the standard normals per mode of a draw: one per column of the
        kernel's whole time basis."""
        return len(self.column_factors())

    def variance(self) -> float:
        """Var Z(t) at every t: c_0 + 2 sum_k c_k, c the squared column
        factors of the constant and the cosines (``hamflow.temporal``)."""
        c = self.column_factors()[:self.kernel_time_basis().frequencies + 1] ** 2
        return float(c[0] + 2.0 * np.sum(c[1:]))

    @computed_once
    def temporal_band(self) -> int:
        """Largest frequency of the kernel's time basis whose column factor
        reaches eps^2 of the largest (module docstring).  The factors fall
        with the frequency for every kernel, so the band keeps exactly the
        frequencies that reach that share."""
        factors = self.column_factors()[:self.kernel_time_basis().frequencies + 1]
        return int(np.flatnonzero(factors >= _BAND_TOLERANCE * factors.max()).max())

    @computed_once
    def time_basis(self) -> TimeBasis:
        """The kernel's time basis cut to the temporal band (``temporal_band``):
        the Phi of every draw of the law."""
        return replace(self.kernel_time_basis(), frequencies=self.temporal_band())

    @computed_once
    def time_columns(self) -> np.ndarray:
        """Columns of a draw's (N, m) normals that drive ``time_basis``: the
        constant, the cosines and the sines of frequencies 1..temporal_band."""
        n, band = self.kernel_time_basis().frequencies, self.temporal_band()
        return np.concatenate([np.arange(band + 1), np.arange(n + 1, n + 1 + band)])

    def engine(self) -> SpectralEngine:
        """The engine of the law's band (``band``), shared by every law with
        this basis and band.  It evaluates and packs the modes with
        kx, ky <= band (``SpectralEngine.modes``)."""
        return _engine_for(self.spatial_max, self.include_axis_modes, self.band())

    @computed_once
    def head_rows(self) -> int:
        """Rows of a draw's (N, m) normals that ``sample_hamiltonian`` draws
        and B reads: rows 0 up to the largest basis index among the engine's
        band modes (module docstring)."""
        return int(self.engine().modes[-1]) + 1

    @computed_once
    def weights(self) -> np.ndarray:
        return spectral_weight(self.basis().eigenvalues, self.regularity)

    @computed_once
    def lipschitz_bound(self) -> float:
        """Expected spectral bound on sup |DX|, the vector field's Lipschitz
        constant, at any time:

            sum_n w_n a_n sigma sqrt(2/pi) (2 pi max(kx, ky))^2,

        with a_n the basis amplitude and sigma^2 the kernel's pointwise
        variance (``variance``).  It is the mean of
        sum_n |c_n(t)| a_n (2 pi max(kx, ky))^2, which bounds every second
        derivative of H (E|c_n(t)| = w_n sigma sqrt(2/pi)).  Flows take their step count from it
        (``hamflow.experiments.flow_steps``).
        """
        b = self.basis()
        sigma = math.sqrt(self.variance())
        k = TWO_PI * np.maximum(b.kx, b.ky)
        return float(np.sum(self.weights() * b.amplitudes
                            * (sigma * math.sqrt(2.0 / math.pi)) * k**2))


def make_law(regularity: float, spatial_max: int = 25, temporal_max: int = 10,
             kernel: str = temporal.PERIODIC, seed: int = 0,
             include_axis_modes: bool = False, grid_nodes: int = 64) -> HamiltonianLaw:
    """The law of these parameters, with the defaults of the commands.

    ``seed`` and ``grid_nodes`` are accepted and unused: a law holds no seed
    (draws take theirs, ``sample_hamiltonian``), and no kernel samples on a
    grid.  The benchmark's ``perfbench/child.py`` is the one program passing
    them; once it stops, both parameters can go.
    """
    return HamiltonianLaw(regularity, spatial_max, temporal_max, kernel, include_axis_modes)


class SpectralHamiltonian:
    """A Hamiltonian sum_n c_n(t) e_n(x) over one basis, evaluated by its engine.

    The coefficient path of the evaluated modes is linear: c(t) = Phi(t) @ B,
    with ``time_basis`` the callable Phi (times -> (T, m), compared by value)
    and ``coefficients`` a read-only copy of B, the (m, M) matrix of the
    engine's M band modes (``engine.modes``).
    """

    def __init__(self, engine: SpectralEngine, time_basis, coefficients):
        self.engine = engine
        self.time_basis = time_basis
        self.coefficients = np.array(coefficients, dtype=float)
        self.coefficients.setflags(write=False)

    def coefficient_grids(self, times) -> np.ndarray:
        """Packed evaluation grids at the given times (see SpectralEngine):
        B is packed once, by ``engine.grids``, and the grids at T times are
        the one product Phi(times) @ packed."""
        packed = self.engine.grids(self.coefficients)
        grids = self.time_basis(times) @ packed.reshape(len(packed), -1)
        grids = grids.reshape(grids.shape[:1] + packed.shape[1:])
        return grids[0] if np.ndim(times) == 0 else grids

    def oscillation(self, spatial_grid: int = 128, time_grid: int = 101) -> float:
        """Trapezoid-in-time integral of (lattice max - lattice min) of H_t.

        The n x n lattice's max and min are exact, but most of its rows are
        never evaluated.  Per block of _OSC_BLOCK times, ``engine.row_bounds``
        bounds |H_t| along every row.  The _OSC_FIRST rows of largest bound
        are evaluated first; a row whose bound B, with a relative slack
        _OSC_SLACK and an absolute one of the smallest normal number (for
        the rounding of subnormal values), stays within both extremes found,

            B (1 + slack) + tiny <= min(max H_t, -min H_t),

        can hold neither the lattice max nor the lattice min, and every row
        of larger bound is evaluated in one more ``value_grid`` call.  Each
        evaluated value is the 2K-term dot product a whole lattice makes
        (``SpectralEngine.value_grid``, under the BLAS condition of
        ``hamflow.engine``), so the result is bit for bit that of the
        whole lattices (``tests/reference.py``, ``lattice_oscillation``).  A
        block that would evaluate more than half its rows, and every block
        after it, evaluates whole lattices instead: at spatial_max 25 about a
        fifth of the rows are evaluated at r = 3 (frequency units), a
        twentieth at r = 4.5, and all at r = 0.1.  One buffer, allocated
        once per call, holds the products (``SpectralEngine`` module
        docstring).
        """
        if spatial_grid < 2 or time_grid < 2:
            raise ValueError("grids must be >= 2")
        n, engine = spatial_grid, self.engine
        # the lattice's rows are built once and serve both axes of every
        # block, the y axis transposed once into value_grid's layout
        rows = engine.lattice_rows(np.arange(n) / n)
        ys = np.ascontiguousarray(rows.T).T
        width = rows.shape[1]
        times = np.linspace(0.0, 1.0, time_grid)
        grids = self.coefficient_grids(times)
        block = min(_OSC_BLOCK, time_grid)
        first = min(_OSC_FIRST, n)
        most = max(first, n // 2)
        # a block's half products and their moduli, or the half products and
        # lattices of the rows evaluated: ``most`` rows of each time of a
        # block, or whole lattices (8 per call at n = 128)
        work = np.empty(max(max(block * most, n) * (width + n), 3 * block * n * width // 2))
        spread = np.empty(time_grid)
        whole = False
        for start in range(0, time_grid, block):
            g = grids[start:start + block]
            if not whole:
                split = len(g) * n * width
                bound = engine.row_bounds(g, rows, half=work[:split].reshape(-1, n, width),
                                          moduli=work[split:split + split // 2]
                                          .reshape(-1, n, width // 2))
                order = np.argsort(bound, axis=1)[:, ::-1]  # rows by falling bound
                hi, lo = _lattice_extremes(engine, g, rows[order[:, :first]], ys, work)
                cut = (np.minimum(hi, -lo) - _TINY) / (1.0 + _OSC_SLACK)
                keep = int(np.max(np.sum(bound > cut[:, None], axis=1)))
                whole = keep > most
                if first < keep <= most:
                    more = rows[order[:, min(first, keep - 2):keep]]
                    more_hi, more_lo = _lattice_extremes(engine, g, more, ys, work)
                    hi, lo = np.maximum(hi, more_hi), np.minimum(lo, more_lo)
            if whole:
                hi, lo = _lattice_extremes(engine, g, rows, ys, work)
            spread[start:start + len(g)] = hi - lo
        return float(np.trapezoid(spread, times))


def _lattice_extremes(engine: SpectralEngine, grids: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      work: np.ndarray) -> tuple:
    """Max and min of each grid's lattice on the x rows ``xs``: (m, 2K) rows
    of every grid, or (len(grids), m, 2K) rows per grid.  The half products
    and lattices of as many grids per ``value_grid`` call as fit go to the
    buffer ``work``."""
    m, width, n = xs.shape[-2], xs.shape[-1], len(ys)
    count = len(grids) if xs.ndim == 3 else len(work) // (m * (width + n))
    hi, lo = np.empty(len(grids)), np.empty(len(grids))
    for a in range(0, len(grids), count):
        g = grids[a:a + count]
        split = len(g) * m * width
        v = engine.value_grid(g, xs[a:a + count] if xs.ndim == 3 else xs, ys,
                              out=work[split:split + len(g) * m * n].reshape(-1, m, n),
                              half=work[:split].reshape(-1, m, width))
        hi[a:a + count], lo[a:a + count] = v.max(axis=(1, 2)), v.min(axis=(1, 2))
    return hi, lo


class RandomHamiltonian(SpectralHamiltonian):
    """One draw of the random field; immutable after construction.

    ``gaussians`` is the draw's read-only (rows, m) array of standard
    normals, the first rows of the (N, m) layout documented in
    :mod:`hamflow.temporal`, with ``law.head_rows()`` <= rows <= N (module
    docstring, "Streams"); c_n(t) = w_n Z_n(t), so B holds
    w_n (f_c g_nc), f the law's column factors, at the band modes n and at
    the columns c of the law's temporal band (``HamiltonianLaw.time_columns``),
    in the law's ``time_basis``.  The draw computes B once, at those
    entries only: each is a product of its own normal, weight and column
    factor, so B equals the whole basis's B at those entries bit for bit.
    """

    def __init__(self, law: HamiltonianLaw, gaussians):
        self.law = law
        self.basis = law.basis()
        head, n, m = law.head_rows(), len(self.basis), law.gaussians_per_sample()
        normals = np.array(gaussians, dtype=float)
        if normals.ndim != 2 or normals.shape[1] != m or not head <= len(normals) <= n:
            raise ValueError(f"gaussians must have shape (rows, {m}) with {head} <= rows <= {n}")
        normals.setflags(write=False)
        self.gaussians = normals
        self.weights = law.weights()
        engine, columns = law.engine(), law.time_columns()
        b = self.weights[engine.modes] * (law.column_factors()[columns, None]
                                          * normals[np.ix_(engine.modes, columns)].T)
        super().__init__(engine, law.time_basis(), b)


class PackedBatch:
    """S spectral Hamiltonians sharing one engine and one time basis, packed once.

    The constructor packs each Hamiltonian of ``hamiltonians``, in order and
    as it reads it, straight to field grids: ``engine.grids``, which flushes
    subnormals, then ``engine.field_grids``, into one (m, 2, K, 4K) row of a
    contiguous stack of ``size`` rows (``len(hamiltonians)`` if omitted),
    allocated at the first.  The batch keeps that row only, not the
    Hamiltonian or its plain grids, so a generator of draws lets each go
    once it is packed.  More or fewer Hamiltonians than ``size`` raise
    ``ValueError``; a batch never changes after that.  Field grids are
    linear in the coefficients, so the field grids of all S at T times are
    one batched product Phi(times) @ stack, written into one preallocated
    block.  ``rows`` takes a sub-batch over a copy of the given rows,
    without packing again.
    """

    def __init__(self, hamiltonians=(), size: int | None = None):
        size = len(hamiltonians) if size is None else size
        self.engine = None
        self.time_basis = None
        self._stack = np.empty(0)
        count = 0
        for h in hamiltonians:
            if count == size:
                raise ValueError(f"more than the batch's {size} Hamiltonians were given")
            if not count:
                self.engine, self.time_basis = h.engine, h.time_basis
                self._stack = np.empty((size, len(h.coefficients)) + h.engine.field_shape)
            elif h.engine is not self.engine or h.time_basis != self.time_basis:
                raise ValueError("a batch needs one engine and one time basis")
            self._stack[count] = self.engine.field_grids(self.engine.grids(h.coefficients))
            count += 1
        if count < size:
            raise ValueError(f"{count} of the batch's {size} Hamiltonians were given")

    def __len__(self) -> int:
        return len(self._stack)

    def rows(self, indices) -> PackedBatch:
        """The batch of the given rows, in the given order; the batch itself
        if that is all of its rows in order."""
        indices = list(indices)
        if indices == list(range(len(self))):
            return self
        sub = PackedBatch()
        sub.engine, sub.time_basis = self.engine, self.time_basis
        sub._stack = self._stack[indices]
        return sub

    def field_grids(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Field grids (T, S, 2, K, 4K) at the T times of the rows ``phi``
        = ``time_basis(times)`` (``SpectralEngine.field_grids``), written to
        ``out`` if given.

        One batched product Phi(times) @ stack writes them through an
        (S, T, ...) view of the time-major block; each row is the product a
        loop over rows would make, into the same layout.
        """
        if out is None:
            out = np.empty((len(phi), len(self)) + self.engine.field_shape)
        np.matmul(phi, self._stack.reshape(self._stack.shape[:2] + (-1,)),
                  out=out.reshape(len(phi), len(self), -1).transpose(1, 0, 2))
        return out


def sample_hamiltonian(law: HamiltonianLaw, seed: int, *indices: int) -> RandomHamiltonian:
    """Draw one random Hamiltonian from the stream ``derive(seed, *indices)``.

    Draws the head of the normals only (module docstring, "Streams").
    """
    shape = (law.head_rows(), law.gaussians_per_sample())
    return RandomHamiltonian(law, derive(seed, *indices).standard_normal(shape))

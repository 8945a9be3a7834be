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
The indices each experiment's draws take are laid out in one place,
``experiments.draws`` (:mod:`hamflow.experiments`, "Streams and chunks").
A draw's normals are the rows of one (N, m) array in row order, the first
N * m normals of that stream.  The band (``HamiltonianLaw.band``) keeps
the modes that can move a double of the field.  The basis is sorted by
eigenvalue, so the band modes' indices run from 0 up to
``HamiltonianLaw.head_rows`` - 1, and ``sample_hamiltonian`` draws only
that head.  At spatial_max 25, temporal_max 10, periodic kernel
(N = 2,500, m = 21; regularity in frequency units):

    r      band   band modes   head rows   temporal band (B rows)
    0.1    25     2,500        2,500       10 (21)
    0.5    13     676          992         10 (21)
    2      6      144          192         6 (13)
    3      5      100          128         5 (11)
    3.95   4      64           80          4 (9)
    4.5    4      64           80          4 (9)

A draw holds the rows it is built from: its head, or more rows of the same
array, up to all N.  Its B reads the head only, so both give the same draw.

Temporal band.  A draw is a series in the law's ``time_basis``: the
kernel's time basis cut to the frequencies that can move a double, by
the spatial band's rule (``HamiltonianLaw.temporal_band``), so B holds
1 + 2 temporal_band rows (last column above).  The normals keep all m
columns: streams, ``gaussians_per_sample`` and ``head_rows`` do not
depend on the band.  The dropped rows, each normal taken at 9, sum to at
most half an ulp of the largest term.  The tests find the banded draws'
flows and oscillations bit for bit those of the whole time basis
(periodic and sqexp, r = 3 and 4.5) and of both bands + 2 (every kernel,
r from 0.5 to 4.5), and the periodic flows one spatial band lower moved
(r >= 2), so the bands are the least that keep every bit.  A flow's
packed rows shrink with the band: 11 of 21 per draw at r = 3.  The sqexp
series already stops at factors near exp(-18.5), so its band keeps every
frequency.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from . import temporal
from .basis import TWO_PI, SpectralBasis
from .engine import SpectralEngine
from .errors import ValidationError
from .rng import derive
from .temporal import TimeBasis


def spectral_weight(eigenvalue: float, regularity: float):
    """Spectral decay weight exp(-eigenvalue * regularity / 2), ``regularity``
    per Laplace-Beltrami eigenvalue (``HamiltonianLaw.eigenvalue_regularity``)."""
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    return np.exp(-0.5 * np.asarray(eigenvalue) * regularity)


# Unbounded, so that every draw of a law holds the one engine and basis
# (``PackedBatch`` batches draws of one engine only); there is one key per
# spatial truncation and band.
@cache
def _basis_for(spatial_max: int, include_axis_modes: bool) -> SpectralBasis:
    return SpectralBasis(spatial_max, include_axis_modes)


@cache
def _engine_for(spatial_max: int, include_axis_modes: bool, band: int) -> SpectralEngine:
    return SpectralEngine(_basis_for(spatial_max, include_axis_modes), band)


# The bands take a standard normal to stay within this bound in absolute
# value, which it leaves with probability about 2e-19 (HamiltonianLaw.band).
_GAUSSIAN_MAX = 9.0
_HALF_ULP = 0.5 * np.finfo(float).eps
# The work buffer of ``oscillation`` (``OscillationBuffers``) in units of
# n (n + 2K) doubles, a lattice with its half products: 0.85 MB at n = 128
# and band 5, where a pass bounds the rows of up to 51 times.  Eight units
# raised the peak RSS of sample-field by 0.4 MiB and gained no time.
_OSC_LATTICE_SIZES = 6
# Every oscillation's n x n lattice at T times (``hamflow.engine``, "The BLAS condition")
OSC_LATTICE = (128, 101)
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

    * ``regularity`` r, per squared frequency k^2 + j^2, the unit of every
      config and table: the weights exp(-r' lambda / 2) and the kernel's
      decay, through r' = r / (4 pi^2) per Laplace-Beltrami eigenvalue
      lambda = 4 pi^2 (k^2 + j^2) (``eigenvalue_regularity``, the one place
      the unit is converted);
    * ``spatial_max`` and ``include_axis_modes``: the basis
      (:class:`~hamflow.basis.SpectralBasis`);
    * ``temporal_max``: the periodic kernel's Fourier order;
    * ``kernel``: the coefficient kernel's tag (:mod:`hamflow.temporal`).

    A law is checked when built, in that order: r a real number, finite and
    positive, integer truncations of at least 1 (a bool is neither number
    here), a known kernel tag and a boolean ``include_axis_modes``; a bad
    value raises ``ValidationError`` naming its field, the message a
    config's refusal prints (``hamflow.config``).  A law with one parameter
    moved is ``dataclasses.replace(law, spatial_max=K)``.

    What a law derives from its parameters is a cached attribute
    (``functools.cached_property``), read as ``law.band``:
    ``eigenvalue_regularity``, ``band``, ``temporal_band``, ``mode_shares``,
    ``kernel_time_basis``, ``column_factors``, ``gaussians_per_sample``,
    ``variance``, ``time_basis``, ``time_columns``, ``head_rows``,
    ``weights`` and ``lipschitz_bound``.  Each is computed once per law and
    shared by its draws, so its arrays are read-only; none is a field, so
    laws of equal parameters are equal and hash alike whatever either has
    computed.  The basis and the engine, which laws share with each other,
    are methods, ``basis()`` and ``engine()``.
    """

    regularity: float
    spatial_max: int
    temporal_max: int
    kernel: str
    include_axis_modes: bool

    def __post_init__(self):
        if not isinstance(self.regularity, numbers.Real) or isinstance(self.regularity, bool):
            raise ValidationError("regularity", "must be a real number")
        if not math.isfinite(self.regularity):
            raise ValidationError("regularity", "must be finite")
        if self.regularity <= 0:
            raise ValidationError("regularity", "must be positive")
        for name in ("spatial_max", "temporal_max"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValidationError(name, "must be an integer")
            if value < 1:
                raise ValidationError(name, "must be >= 1")
        if self.kernel not in temporal.KERNEL_TAGS:
            raise ValidationError("kernel", f"must be one of {temporal.KERNEL_TAGS}")
        if not isinstance(self.include_axis_modes, (bool, np.bool_)):
            raise ValidationError("include_axis_modes", "must be a boolean")

    def basis(self) -> SpectralBasis:
        return _basis_for(self.spatial_max, self.include_axis_modes)

    @cached_property
    def eigenvalue_regularity(self) -> float:
        """r' = r / (4 pi^2), the regularity per Laplace-Beltrami eigenvalue,
        which the weights, the bands and the kernel read."""
        return self.regularity / (4.0 * math.pi**2)

    @cached_property
    def band(self) -> int:
        """Largest wavenumber whose modes can move a double of the field.

        Mode n sits at level k = max(kx, ky) and contributes at most
        b_n = w_n (1 + 2 pi k) to H and its first derivatives, per unit of
        its Gaussian.  A standard normal leaves [-G, G], G = 9, with
        probability about 2e-19, so the modes above level K add at most
        G sum_{level > K} b_n to any value.  The largest term is of the size
        max b; a sum within half its ulp, (eps / 2) max b, cannot move the
        rounded double.  The band is therefore the smallest K with

            G sum_{level > K} b_n <= (eps / 2) max b

        (``_rounding_band``: one ``np.bincount`` of the bounds by level and
        a reversed cumulative sum).  It is computed from log b_n relative to
        the largest, so underflowing weights still give a band of 1.
        """
        b = self.basis()
        kmax = np.maximum(b.kx, b.ky)
        log_bound = -0.5 * self.eigenvalue_regularity * b.eigenvalues + np.log1p(TWO_PI * kmax)
        return _rounding_band(kmax, np.exp(log_bound - log_bound.max()))

    @cached_property
    def mode_shares(self) -> tuple:
        """(lowest shell's share of Var H, its share of Var grad H,
        participation ratio) of the law's modes.

        The basis is L2-normalized and the field stationary, so mode n adds
        v_n = w_n^2 to Var H and v_n lambda_n to Var grad H at every point,
        per unit of Var Z.  The lowest shell is the modes of the least
        eigenvalue, and the participation ratio (sum v)^2 / sum v^2 counts
        the modes that would carry Var H at equal shares.  v is taken
        relative to the lowest shell's, so underflowing weights do not move
        the three.
        """
        lam = self.basis().eigenvalues
        v = np.exp(-self.eigenvalue_regularity * (lam - lam[0]))
        lowest = lam == lam[0]
        return (float(v[lowest].sum() / v.sum()),
                float((v * lam)[lowest].sum() / (v * lam).sum()),
                float(v.sum() ** 2 / np.sum(v**2)))

    @cached_property
    def kernel_time_basis(self) -> TimeBasis:
        """The kernel's whole time basis (``temporal.time_basis``), before
        the temporal band cuts it."""
        return temporal.time_basis(self.kernel, self.eigenvalue_regularity, self.temporal_max)

    @cached_property
    def column_factors(self) -> np.ndarray:
        """The kernel's (m,) column factors over ``kernel_time_basis``
        (``temporal.column_factors``)."""
        return _read_only(temporal.column_factors(self.kernel, self.eigenvalue_regularity,
                                                  self.kernel_time_basis))

    @cached_property
    def gaussians_per_sample(self) -> int:
        """m, the standard normals per mode of a draw: one per column of the
        kernel's whole time basis."""
        return len(self.column_factors)

    @cached_property
    def variance(self) -> float:
        """Var Z(t) at every t: c_0 + 2 sum_k c_k, c the squared column
        factors of the constant and the cosines (``hamflow.temporal``)."""
        c = self.column_factors[:self.kernel_time_basis.frequencies + 1] ** 2
        return float(c[0] + 2.0 * np.sum(c[1:]))

    @cached_property
    def temporal_band(self) -> int:
        """Largest frequency of the kernel's time basis that can move a
        double of the field: the rule of ``band`` with frequency k as the
        level, and as bound f_0, the constant's column factor, at k = 0 and
        2 f_k, one cosine and one sine column, at k >= 1.  The band is the
        smallest K with G sum_{k > K} 2 f_k <= (eps / 2) max bound."""
        factors = self.column_factors[:self.kernel_time_basis.frequencies + 1]
        k = np.arange(len(factors))
        return _rounding_band(k, np.where(k == 0, 1.0, 2.0) * factors)

    @cached_property
    def time_basis(self) -> TimeBasis:
        """The kernel's time basis cut to the temporal band (``temporal_band``):
        the Phi of every draw of the law."""
        return replace(self.kernel_time_basis, frequencies=self.temporal_band)

    @cached_property
    def time_columns(self) -> np.ndarray:
        """Columns of a draw's (N, m) normals that drive ``time_basis``: the
        constant, the cosines and the sines of frequencies 1..temporal_band."""
        n, band = self.kernel_time_basis.frequencies, self.temporal_band
        return _read_only(np.concatenate([np.arange(band + 1), np.arange(n + 1, n + 1 + band)]))

    def engine(self) -> SpectralEngine:
        """The engine of the law's band (``band``), shared by every law with
        this basis and band.  It evaluates and packs the modes with
        kx, ky <= band (``SpectralEngine.modes``)."""
        return _engine_for(self.spatial_max, self.include_axis_modes, self.band)

    @cached_property
    def head_rows(self) -> int:
        """Rows of a draw's (N, m) normals that ``sample_hamiltonian`` draws
        and B reads: rows 0 up to the largest basis index among the engine's
        band modes (module docstring)."""
        return int(self.engine().modes[-1]) + 1

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(spectral_weight(self.basis().eigenvalues, self.eigenvalue_regularity))

    @cached_property
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
        sigma = math.sqrt(self.variance)
        k = TWO_PI * np.maximum(b.kx, b.ky)
        return float(np.sum(self.weights * b.amplitudes
                            * (sigma * math.sqrt(2.0 / math.pi)) * k**2))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _rounding_band(levels: np.ndarray, bounds: np.ndarray) -> int:
    """The smallest level K with G sum_{level > K} bound <= (eps / 2) max bound,
    G = _GAUSSIAN_MAX (``HamiltonianLaw.band``): ``levels`` holds each
    term's nonnegative integer level and ``bounds`` its bound, in any unit."""
    per_level = np.bincount(levels, weights=bounds / bounds.max())
    above = np.append(np.cumsum(per_level[::-1])[::-1][1:], 0.0)
    return int(np.argmax(_GAUSSIAN_MAX * above <= _HALF_ULP))


def make_law(regularity: float, spatial_max: int = 25, temporal_max: int = 10,
             kernel: str = temporal.PERIODIC, seed: int = 0,
             include_axis_modes: bool = False, grid_nodes: int = 64) -> HamiltonianLaw:
    """The law of these parameters, with the defaults of the commands:
    ``regularity`` per squared frequency, as a config states it (the value
    per eigenvalue is the law's ``eigenvalue_regularity``).

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

    def oscillation(self, buffers: OscillationBuffers | None = None) -> float:
        """Trapezoid-in-time integral of (lattice max - lattice min) of H_t
        on the lattice ``OSC_LATTICE``.

        The lattice's max and min are exact, but most of its rows are
        never evaluated.  The times are taken in passes
        (``OscillationBuffers.passes``).  A pass bounds |H_t| along every
        row of each of its times (``engine.row_bounds``) and evaluates two
        rows per time: the row of largest bound and the row n/2 away, half
        a period, which holds the opposite extreme where the (1, 1) modes
        dominate, since they give H(x + 1/2, y) = -H(x, y).  A row whose
        bound B, with a relative slack _OSC_SLACK and an absolute one of the
        smallest normal number (for the rounding of subnormal values), stays
        within both extremes found,

            B (1 + slack) + tiny <= min(max H_t, -min H_t),

        can hold neither the lattice max nor the lattice min.  The other
        (time, row) pairs, the row of largest bound always among them, are
        gathered from the bounds' half products and evaluated in one product
        with the lattice's y rows (more where the buffer holds fewer rows),
        and each time's max and min are folded from their values
        (``_pruned_extremes``).  Each value is the 2K-term dot product a
        whole lattice makes (``SpectralEngine.value_grid``, under the BLAS
        condition of ``hamflow.engine``), so the result is bit for bit that
        of the whole lattices (``tests/reference.py``,
        ``lattice_oscillation``).  At spatial_max 25, the gathered rows are
        a median 5.5% of the lattice's at r = 3 (frequency units; 2.8-13%
        over draws 0-31 of seed 9), 2.2% at r = 4.5, and 80% (63-88%) at
        r = 0.1, where the bounds cost more than the rows they prune.

        ``buffers`` holds the times, the lattice rows and the work buffer
        (``OscillationBuffers``); the call builds its own if none is given.
        A caller that oscillates many draws builds one set and passes it to
        each (``experiments._osc_chunk``).
        """
        if buffers is None:
            buffers = OscillationBuffers(self.engine)
        elif buffers.engine is not self.engine:
            raise ValueError("the buffers were built for another engine")
        grids = self.coefficient_grids(buffers.times)
        spread = np.empty(len(buffers.times))
        for start, stop in zip(buffers.passes, buffers.passes[1:]):
            hi, lo = _pruned_extremes(grids[start:stop], buffers)
            spread[start:stop] = hi - lo
        return float(np.trapezoid(spread, buffers.times))


class OscillationBuffers:
    """Work arrays of ``SpectralHamiltonian.oscillation`` on one engine's
    n x n lattice at T times, ``OSC_LATTICE``: the times, the lattice's rows
    (n, 2K) and their contiguous transpose ``columns``, and one work buffer.

    The caller owns them, and one set serves every draw of the engine.  A
    chunk of draws then maps the buffer once, not once per draw
    (``hamflow.engine``, "Buffers").  The buffer holds _OSC_LATTICE_SIZES
    times n (n + 2K) doubles.  Per time, a pass takes its half products,
    the larger of their moduli and its two first rows' values and half
    products, and its bounds (``_pruned_extremes``).  ``passes`` holds the
    first time of each pass, and T: every pass but the first takes as many
    times as the buffer holds, and the first takes the rest, two at least,
    so that no gathered product has one row.  At band 5 the passes take
    50 and 51 times.
    """

    __slots__ = ("engine", "times", "rows", "columns", "passes", "work")

    def __init__(self, engine: SpectralEngine):
        n, time_grid = OSC_LATTICE
        self.engine = engine
        self.times = np.linspace(0.0, 1.0, time_grid)
        # the rows serve both axes, the y axis transposed once into
        # value_grid's layout
        self.rows = engine.lattice_rows(np.arange(n) / n)
        self.columns = np.ascontiguousarray(self.rows.T)
        width = self.rows.shape[1]
        size = _OSC_LATTICE_SIZES * n * (n + width)
        per_pass = size // (n * width + max(n * width // 2, 2 * (n + width)) + n)
        first = max(2, time_grid - (-(-time_grid // per_pass) - 1) * per_pass)
        self.passes = [0, *range(first, time_grid, per_pass), time_grid]
        self.work = np.empty(size)


def _pruned_extremes(grids: np.ndarray, buffers: OscillationBuffers) -> tuple:
    """Max and min of each grid's lattice from the rows whose bounds reach
    the extremes found (``SpectralHamiltonian.oscillation``).

    The bounds' half products stay at the head of the buffer and the bounds
    at its tail, where the kept (time, row) pairs are then gathered, in time
    order.  Where most rows are kept (r = 0.1), the gathered rows reach into
    the half products they are read from, and ``np.take`` copies those
    first (up to 0.7 MB a pass at r = 0.1, band 25).
    """
    engine, rows, columns, work = buffers.engine, buffers.rows, buffers.columns, buffers.work
    count, (n, width) = len(grids), rows.shape
    split = count * n * width
    half = work[:split].reshape(count, n, width)
    bound = engine.row_bounds(grids, rows, half=half,
                              moduli=work[split:split + split // 2].reshape(count, n, width // 2),
                              out=work[len(work) - count * n:].reshape(count, n))
    # two rows per grid, so that no product falls to numpy's matrix-vector path
    top = np.argmax(bound, axis=1)
    end = split + 2 * count * n
    first = engine.value_grid(grids, rows[(top[:, None] + (0, n // 2)) % n], columns.T,
                              out=work[split:end].reshape(count, 2, n),
                              half=work[end:end + 2 * count * width].reshape(count, 2, width))
    cut = (np.minimum(first.max(axis=(1, 2)), -first.min(axis=(1, 2))) - _TINY) / (1.0 + _OSC_SLACK)
    # the row of largest bound is always kept, its bound reaching the extremes
    # of its own values, so every time has a pair, and a pass at least two
    keep = np.flatnonzero(bound > cut[:, None])
    tail = len(work) - len(keep) * width
    gathered = np.take(half.reshape(-1, width), keep, axis=0, mode="clip",
                       out=work[tail:].reshape(-1, width))
    return _row_extremes(gathered, columns, np.searchsorted(keep, np.arange(count) * n),
                         work[:tail])


def _row_extremes(half: np.ndarray, columns: np.ndarray, starts: np.ndarray,
                  work: np.ndarray) -> tuple:
    """Max and min of each group of lattice rows whose half products are
    rows of ``half``, group i the rows from ``starts[i]`` to the next group.

    The values are the products half @ columns, of equal size and as many
    rows as the buffer ``work`` holds, two at least each.  Each product is
    folded over the contiguous values of every group it holds a part of,
    and the parts of a group are then folded together.
    """
    count, n = len(half), columns.shape[1]
    products = -(-count // (len(work) // n))
    ends = np.arange(products + 1) * count // products
    # where a group or a product starts; a product that starts a group puts
    # that start in twice, which gives the group one more part of one value
    parts = np.sort(np.append(starts, ends[1:-1]))
    hi, lo = np.empty(len(parts)), np.empty(len(parts))
    for a, b in zip(ends, ends[1:]):
        v = np.matmul(half[a:b], columns, out=work[:(b - a) * n].reshape(-1, n)).reshape(-1)
        held = slice(*np.searchsorted(parts, (a, b)))
        np.maximum.reduceat(v, (parts[held] - a) * n, out=hi[held])
        np.minimum.reduceat(v, (parts[held] - a) * n, out=lo[held])
    first = np.searchsorted(parts, starts)
    return np.maximum.reduceat(hi, first), np.minimum.reduceat(lo, first)


class RandomHamiltonian(SpectralHamiltonian):
    """One draw of the random field; immutable after construction.

    ``gaussians`` is the draw's read-only (rows, m) array of standard
    normals, the first rows of the (N, m) layout documented in
    :mod:`hamflow.temporal`, with ``law.head_rows`` <= rows <= N (module
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
        head, n, m = law.head_rows, len(self.basis), law.gaussians_per_sample
        normals = np.array(gaussians, dtype=float)
        if normals.ndim != 2 or normals.shape[1] != m or not head <= len(normals) <= n:
            raise ValueError(f"gaussians must have shape (rows, {m}) with {head} <= rows <= {n}")
        normals.setflags(write=False)
        self.gaussians = normals
        self.weights = law.weights
        engine, columns = law.engine(), law.time_columns
        b = self.weights[engine.modes] * (law.column_factors[columns, None]
                                          * normals[np.ix_(engine.modes, columns)].T)
        super().__init__(engine, law.time_basis, b)


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
    shape = (law.head_rows, law.gaussians_per_sample)
    return RandomHamiltonian(law, derive(seed, *indices).standard_normal(shape))

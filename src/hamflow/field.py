"""Random Hamiltonian fields H(t, x) = sum_n w_n Z_n(t) e_n(x).

A :class:`HamiltonianLaw` fixes the probability law (regularity, basis
truncation, coefficient kernel, master seed); :func:`sample_hamiltonian`
draws one :class:`RandomHamiltonian` from it.  Draws are immutable and all
evaluation methods are reentrant.  :class:`SpectralHamiltonian` is the one
type whose fields the integrator evaluates through packed coefficient grids:
draws are its one subclass, and time reversals and concatenations are plain
instances.  Coefficients are computed and packed for the engine's band
modes only (``SpectralEngine.modes``).

Streams.  A draw owns its stream: ``sample_hamiltonian(law, seed, *indices)``
creates the generator ``derive(seed, *indices)`` and no caller shares it.
The draw's normals are one (N, m) array in row order, the first N * m
normals of that stream.  The basis is sorted by eigenvalue, so the band
modes' indices run from 0 up to ``HamiltonianLaw.head_rows()`` - 1, and
``sample_hamiltonian`` draws only that head.  At spatial_max 25,
temporal_max 10, periodic kernel (N = 2,500, m = 21; regularity in
frequency units):

    r      band   band modes   head rows
    0.1    25     2,500        2,500
    0.5    17     1,156        1,712
    2      8      256          360
    3      7      196          268
    3.95   6      144          192
    4.5    5      100          128

sqexp laws draw every row (``HamiltonianLaw.head_rows``).  The draw keeps
its key (seed, *indices): the first read of ``gaussians`` derives the
stream again and draws the whole array, which is a full draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, wraps

import numpy as np

from . import temporal
from .basis import TWO_PI, SpectralBasis, Truncation
from .engine import SpectralEngine
from .errors import Unsupported
from .rng import derive
from .temporal import KernelKind


def spectral_weight(eigenvalue: float, regularity: float):
    """Spectral decay weight exp(-eigenvalue * regularity / 2)."""
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    return np.exp(-0.5 * np.asarray(eigenvalue) * regularity)


@lru_cache(maxsize=16)
def _basis_for(truncation: Truncation) -> SpectralBasis:
    return SpectralBasis(truncation)


@lru_cache(maxsize=16)
def _engine_for(truncation: Truncation, band: int) -> SpectralEngine:
    return SpectralEngine(_basis_for(truncation), band)


# A mode is evaluated when its bound b_n reaches this share of the largest
# (see HamiltonianLaw.band and the engine module docstring).
_BAND_TOLERANCE = np.finfo(float).eps ** 2
# Times whose lattices one value_grid call evaluates in ``oscillation``; all
# 101 at once would hold about 13 MB of lattices at 128 x 128.
_OSC_BLOCK = 8


def _per_law(method):
    """Compute a law's quantity once: the law is immutable, so the value is
    kept in the instance dict on first use (arrays read-only, since every
    draw of the law shares them).  Equality and hashing see fields only."""
    key = "_cached_" + method.__name__

    @wraps(method)
    def cached(self):
        value = self.__dict__.get(key)
        if value is None:
            value = method(self)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self.__dict__[key] = value
        return value

    return cached


@dataclass(frozen=True)
class HamiltonianLaw:
    """Everything that fixes the law of a random Hamiltonian draw.

    The complex structure is the standard one on the flat torus (metric =
    Euclidean, area form dx^dy); only the data listed here vary.
    ``mode_scales`` optionally rescales each coefficient process (index =
    position in the eigenvalue-sorted basis), which expresses weakly
    frequency-unbiased laws.  ``band``, ``head_rows``, ``weights``, ``scales``
    and ``lipschitz_bound`` are computed once per law and shared by its
    draws.
    """

    regularity: float
    truncation: Truncation
    kernel: KernelKind
    seed: int = 0
    mode_scales: tuple | None = None

    def __post_init__(self):
        if self.regularity <= 0:
            raise ValueError("regularity must be positive")
        if self.mode_scales is not None:
            scales = tuple(float(s) for s in self.mode_scales)
            if any(s <= 0 for s in scales):
                raise ValueError("mode_scales must be positive")
            if len(scales) != len(self.basis()):
                raise ValueError("mode_scales length must equal the mode count")
            object.__setattr__(self, "mode_scales", scales)

    def basis(self) -> SpectralBasis:
        return _basis_for(self.truncation)

    @_per_law
    def band(self) -> int:
        """Largest wavenumber whose modes the law's weights can resolve.

        Each mode n contributes at most b_n = w_n s_n (1 + 2 pi max(kx, ky)) to
        H and its first derivatives, per unit of its Gaussian, with s_n the
        mode's scale plus |kernel mean|.  The band is the largest
        max(kx, ky) over modes with b_n >= eps^2 max b; it is computed from
        log b_n, so underflowing weights do not move it.
        """
        b = self.basis()
        kmax = np.maximum(b.kx, b.ky)
        log_bound = (-0.5 * self.regularity * b.eigenvalues
                     + np.log(self.scales() + abs(self.kernel.mean))
                     + np.log1p(TWO_PI * kmax))
        return int(kmax[log_bound >= log_bound.max() + np.log(_BAND_TOLERANCE)].max())

    def engine(self) -> SpectralEngine:
        """The engine of the law's band (``band``), shared by every law with
        this truncation and band.  It evaluates and packs the modes with
        kx, ky <= band (``SpectralEngine.modes``)."""
        return _engine_for(self.truncation, self.band())

    @_per_law
    def head_rows(self) -> int:
        """Rows of a draw's (N, m) normals that ``sample_hamiltonian`` draws
        up front: rows 0 up to the largest basis index among the engine's
        band modes (module docstring).  Every row for sqexp laws, whose
        Cholesky product is a matrix product over all N rows: its last bits
        depend on the row count, so its rows are kept at N."""
        if self.kernel.tag == temporal.SQEXP:
            return len(self.basis())
        return int(self.engine().modes[-1]) + 1

    @_per_law
    def weights(self) -> np.ndarray:
        return spectral_weight(self.basis().eigenvalues, self.regularity)

    @_per_law
    def scales(self) -> np.ndarray:
        if self.mode_scales is None:
            return np.full(len(self.basis()), self.kernel.per_mode_scale)
        return np.asarray(self.mode_scales)

    @_per_law
    def lipschitz_bound(self) -> float:
        """Expected spectral bound on sup |DX|, the vector field's Lipschitz
        constant, at any time:

            sum_n w_n a_n (s_n sigma sqrt(2/pi) + |mu|) (2 pi max(kx, ky))^2,

        with a_n the basis amplitude, s_n the mode scale, sigma^2 the unit
        kernel's pointwise variance and mu the kernel mean.  It is the mean
        of sum_n |c_n(t)| a_n (2 pi max(kx, ky))^2, which bounds every second
        derivative of H (E|c_n(t)| = w_n s_n sigma sqrt(2/pi) for mean 0;
        with a mean, w_n |mu| bounds the mean's share).  Flows of smooth laws
        take their RK4 step count from it (``hamflow.experiments.flow_steps``).
        """
        b = self.basis()
        unit = replace(self.kernel, per_mode_scale=1.0, mean=0.0)
        sigma = math.sqrt(temporal.kernel_value(unit, 0.0, 0.0))
        k = TWO_PI * np.maximum(b.kx, b.ky)
        return float(np.sum(self.weights() * b.amplitudes
                            * (self.scales() * sigma * math.sqrt(2.0 / math.pi)
                               + abs(self.kernel.mean)) * k**2))


def make_law(regularity: float, spatial_max: int = 25, temporal_max: int = 10,
             kernel: str = temporal.PERIODIC, seed: int = 0,
             include_axis_modes: bool = False, grid_nodes: int = 64,
             kernel_mean: float = 0.0, mode_scales=None,
             temporal_regularity: float | None = None,
             amplitude: float = 1.0) -> HamiltonianLaw:
    """Convenience constructor wiring the kernel to the law's regularity.

    ``temporal_regularity`` decouples the coefficient-process decay from the
    spectral weight decay when a different time scale is wanted (defaults to
    ``regularity``).  ``amplitude`` scales every coefficient process.
    """
    trunc = Truncation(spatial_max=spatial_max, include_axis_modes=include_axis_modes,
                       temporal_max=temporal_max)
    kind = KernelKind(tag=kernel,
                      regularity=temporal_regularity if temporal_regularity is not None else regularity,
                      temporal_max=temporal_max, grid_nodes=grid_nodes,
                      mean=kernel_mean, per_mode_scale=amplitude)
    return HamiltonianLaw(regularity=regularity, truncation=trunc, kernel=kind,
                          seed=seed, mode_scales=mode_scales)


def gaussian_dimension(law: HamiltonianLaw) -> int:
    """Number of independent standard normals one draw consumes."""
    if law.kernel.tag == temporal.SQEXP:
        raise Unsupported("gaussian dimension of grid-sampled kernels depends on the grid")
    return len(law.basis()) * law.kernel.gaussians_per_sample()


def _as_points(p):
    """Normalize a pair / (P, 2) array to ((P, 2), scalar_flag)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


class SpectralHamiltonian:
    """A Hamiltonian sum_n c_n(t) e_n(x) over one basis, evaluated by its engine.

    The coefficient path of the evaluated modes is linear: c(t) = Phi(t) @ B,
    with ``time_basis`` the callable Phi (times -> (T, m), compared by value)
    and ``coefficients`` a read-only copy of B, the (m, M) matrix of the
    engine's M band modes (``engine.modes``).  A draw passes no B: it
    computes B from its normals on every read.
    """

    autonomous = False

    def __init__(self, engine: SpectralEngine, time_basis, coefficients=None):
        self.engine = engine
        self.time_basis = time_basis
        if coefficients is not None:
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

    # -- pointwise evaluation --------------------------------------------------

    def value(self, t: float, p):
        pts, scalar = _as_points(p)
        v = self.engine.value(self.coefficient_grids(float(t))[None], pts[None])[0]
        return float(v[0]) if scalar else v

    def vector_field(self, t: float, p):
        """(-dH/dy, dH/dx), the engine's vector-field kernel."""
        pts, scalar = _as_points(p)
        fields = self.engine.field_grids(self.coefficient_grids(float(t))[None])
        v = self.engine.vector_field(fields, pts[None])[0]
        return v[0] if scalar else v

    def gradient(self, t: float, p):
        """(dH/dx, dH/dy): the vector field, rotated back exactly."""
        v = self.vector_field(t, p)
        return np.stack([v[..., 1], -v[..., 0]], axis=-1)

    def value_grid(self, t: float, xs, ys) -> np.ndarray:
        return self.engine.value_grid(self.coefficient_grids(float(t)), xs, ys)

    # -- diagnostics -----------------------------------------------------------

    def oscillation(self, spatial_grid: int = 128, time_grid: int = 101) -> float:
        """Trapezoid-in-time integral of (lattice max - lattice min) of H_t.

        The lattices of _OSC_BLOCK times are one ``value_grid`` call, written
        into buffers allocated once per call (``SpectralEngine`` module
        docstring).
        """
        if spatial_grid < 2 or time_grid < 2:
            raise ValueError("grids must be >= 2")
        # the lattice's rows are built once and serve both axes of every block
        rows = self.engine.lattice_rows(np.arange(spatial_grid) / spatial_grid)
        times = np.linspace(0.0, 1.0, time_grid)
        grids = self.coefficient_grids(times)
        block = min(_OSC_BLOCK, time_grid)
        half = np.empty((block, spatial_grid, rows.shape[1]))
        lattice = np.empty((block, spatial_grid, spatial_grid))
        spread = np.empty(time_grid)
        for start in range(0, time_grid, _OSC_BLOCK):
            g = grids[start:start + _OSC_BLOCK]
            h = self.engine.value_grid(g, rows, rows, out=lattice[:len(g)], half=half[:len(g)])
            spread[start:start + len(g)] = h.max(axis=(1, 2)) - h.min(axis=(1, 2))
        return float(np.trapezoid(spread, times))


class RandomHamiltonian(SpectralHamiltonian):
    """One draw of the random field; immutable after construction.

    ``gaussians`` is the draw's read-only (N, m) array of standard normals,
    laid out as documented in :mod:`hamflow.temporal`; c_n(t) = w_n Z_n(t),
    so B is the kernel's coefficient matrix scaled by the weights w_n, taken
    at the band modes.  B is recomputed from the normals on each use rather
    than stored.

    A draw built from an (N, m) array holds that array.  A draw built with
    a stream ``key`` (seed, *indices) holds its head, rows 0 ..
    ``law.head_rows()`` - 1, and reading ``gaussians`` draws the whole
    array from ``derive(*key)`` the first time (module docstring, "Streams").
    """

    def __init__(self, law: HamiltonianLaw, gaussians, key: tuple | None = None):
        super().__init__(law.engine(), law.kernel.time_basis())
        self.law = law
        self.basis = law.basis()
        shape = (len(self.basis) if key is None else law.head_rows(),
                 law.kernel.gaussians_per_sample())
        normals = np.array(gaussians, dtype=float)
        if normals.shape != shape:
            raise ValueError(f"gaussians must have shape {shape}")
        normals.setflags(write=False)
        self._normals = normals
        self._key = key
        self.weights = law.weights()
        self.autonomous = law.kernel.tag == temporal.CONSTANT

    @property
    def gaussians(self) -> np.ndarray:
        """The (N, m) normals; a head-only draw draws them whole on first read."""
        if self._key is not None:
            normals = derive(*self._key).standard_normal((len(self.basis), self._normals.shape[1]))
            normals.setflags(write=False)
            self._normals, self._key = normals, None
        return self._normals

    @property
    def coefficients(self) -> np.ndarray:
        return self.coefficients_of(self.engine.modes)

    def coefficients_of(self, modes) -> np.ndarray:
        """Columns ``modes`` (basis indices, ascending) of the draw's B over
        the whole basis; shape (m, len(modes)).

        B is computed from the head rows only, unless a mode lies past them,
        and then from every row (``gaussians``).  For periodic and
        constant kernels each entry is a product of its own normal, weight,
        scale and decay, so the columns equal those of the whole B bit for
        bit; sqexp laws keep every row (``HamiltonianLaw.head_rows``).
        """
        head = self.law.head_rows()
        normals = self._normals[:head] if modes[-1] < head else self.gaussians
        rows = len(normals)
        b = self.weights[:rows] * temporal.coefficient_matrix(self.law.kernel, normals,
                                                              self.law.scales()[:rows])
        return b[:, modes]


class PackedBatch:
    """S spectral Hamiltonians sharing one engine and one time basis, packed once.

    ``append`` packs a Hamiltonian's coefficient matrix straight to field
    grids: ``engine.grids``, which flushes subnormals, then
    ``engine.field_grids``, into one (m, 2, K1, 4*K1) row.  The batch keeps
    that row only, not the Hamiltonian or its plain grids, so a caller can
    pack draws as it samples them and let each go.  Field grids are linear
    in the coefficients, so the field grids of all S at T times are one
    product Phi(times) @ row per row, written into one preallocated block.
    ``rows`` takes a sub-batch of the same row arrays without packing again.
    """

    def __init__(self, hamiltonians=()):
        self.engine = None
        self.time_basis = None
        self._rows = []
        for h in hamiltonians:
            self.append(h)

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, h: SpectralHamiltonian) -> None:
        """Pack one more Hamiltonian as the last row."""
        if self.engine is None:
            self.engine, self.time_basis = h.engine, h.time_basis
        elif h.engine is not self.engine or h.time_basis != self.time_basis:
            raise ValueError("a batch needs one engine and one time basis")
        self._rows.append(self.engine.field_grids(self.engine.grids(h.coefficients)))

    def rows(self, indices) -> PackedBatch:
        """The batch of the given rows, in the given order; the batch itself
        if that is all of its rows in order."""
        indices = list(indices)
        if indices == list(range(len(self))):
            return self
        sub = PackedBatch()
        sub.engine, sub.time_basis = self.engine, self.time_basis
        sub._rows = [self._rows[i] for i in indices]
        return sub

    def field_grids(self, times, out: np.ndarray | None = None) -> np.ndarray:
        """Field grids (T, S, 2, K1, 4*K1) at a scalar or (T,) array of times
        (``SpectralEngine.field_grids``), written to ``out`` if given."""
        phi = self.time_basis(times)
        k1 = self.engine.band + 1
        if out is None:
            out = np.empty((len(phi), len(self), 2, k1, 4 * k1))
        flat = out.reshape(len(phi), len(self), -1)
        for s, row in enumerate(self._rows):
            np.matmul(phi, row.reshape(len(row), -1), out=flat[:, s])
        return out


def sample_hamiltonian(law: HamiltonianLaw, seed: int, *indices: int) -> RandomHamiltonian:
    """Draw one random Hamiltonian from the stream ``derive(seed, *indices)``.

    Draws the head of the normals only (module docstring, "Streams").
    """
    key = (seed, *indices)
    head = law.head_rows()
    normals = derive(*key).standard_normal((head, law.kernel.gaussians_per_sample()))
    return RandomHamiltonian(law, normals, key=key if head < len(law.basis()) else None)

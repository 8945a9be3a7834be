"""Scalar references the tests pin the array code against.

* ``Mode`` and ``reference_modes``: the per-mode enumeration and sort order
  that ``SpectralBasis`` reproduces as arrays, evaluated one point at a time
  with ``math``.
* ``mode_values``: every basis function at a set of points, from the basis
  arrays.
* ``analytic_variance`` and ``spatial_mean``: the moments of a draw that the
  statistical tests compare samples with.
* ``expansion`` and ``reconstruct_value``: the coefficients of a periodic- or
  constant-kernel draw over the product basis of ``hamflow.rkhs``, one
  Python float per entry, and the field they sum to.
* ``full_coefficients``, ``reversal_coefficients``,
  ``concatenation_coefficients``, ``mode_coefficients`` and ``full_packing``:
  the coefficient matrix B over the whole basis and its packing into an
  engine's grids, as they were computed before draws drew their head only
  and grids were packed from the band modes alone.
* ``apply_walk``: a walk's map as the sequential application of its step
  flows, which the batched walks and the walk's concatenation are checked
  against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from hamflow import temporal
from hamflow.basis import TRIG_PAIRS
from hamflow.flow import DEFAULT_SETTINGS, flow_points

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Mode:
    """One eigenfunction: amplitude * f(2 pi kx x) * g(2 pi ky y), with f and
    g the cosine ('c') or sine ('s') named by ``trig``."""

    kx: int
    ky: int
    trig: str

    @property
    def eigenvalue(self) -> float:
        return 4.0 * math.pi**2 * (self.kx**2 + self.ky**2)

    @property
    def amplitude(self) -> float:
        return 2.0 if (self.kx >= 1 and self.ky >= 1) else math.sqrt(2.0)

    def sort_key(self):
        return (self.eigenvalue, self.kx, self.ky, TRIG_PAIRS.index(self.trig))

    def evaluate(self, x: float, y: float) -> float:
        fx = math.cos if self.trig[0] == "c" else math.sin
        fy = math.cos if self.trig[1] == "c" else math.sin
        return self.amplitude * fx(TWO_PI * self.kx * x) * fy(TWO_PI * self.ky * y)


def reference_modes(truncation) -> list:
    """The admissible modes of ``truncation``, sorted by ``Mode.sort_key``."""
    smax = truncation.spatial_max
    modes = [Mode(kx, ky, trig) for kx in range(1, smax + 1) for ky in range(1, smax + 1)
             for trig in TRIG_PAIRS]
    if truncation.include_axis_modes:
        for k in range(1, smax + 1):
            modes += [Mode(k, 0, "cc"), Mode(k, 0, "sc"), Mode(0, k, "cc"), Mode(0, k, "cs")]
    return sorted(modes, key=Mode.sort_key)


def mode_of(basis, n: int) -> Mode:
    """Mode n of an array basis."""
    return Mode(int(basis.kx[n]), int(basis.ky[n]), TRIG_PAIRS[2 * basis.tx[n] + basis.ty[n]])


def mode_index(basis, mode: Mode) -> int:
    """The index of ``mode`` in an array basis."""
    return next(n for n in range(len(basis)) if mode_of(basis, n) == mode)


def mode_values(basis, pts) -> np.ndarray:
    """e_n at each point (P, 2) for every mode of the basis: shape (P, N)."""
    pts = np.asarray(pts, dtype=float)
    ax = TWO_PI * np.multiply.outer(pts[:, 0], basis.kx.astype(float))
    ay = TWO_PI * np.multiply.outer(pts[:, 1], basis.ky.astype(float))
    fx = np.where(basis.tx == 0, np.cos(ax), np.sin(ax))
    fy = np.where(basis.ty == 0, np.cos(ay), np.sin(ay))
    return basis.amplitudes * fx * fy


def analytic_variance(draw, t: float, p) -> float:
    """Var[H(t, p)] over the draws of ``draw``'s law:
    sum_n w_n^2 s_n^2 kappa(t, t) e_n(p)^2, kappa the unit kernel."""
    law = draw.law
    base_kind = replace(law.kernel, per_mode_scale=1.0, mean=0.0)
    kappa = temporal.kernel_value(base_kind, float(t), float(t))
    evals = mode_values(draw.basis, [p])[0]
    return float(np.sum(draw.weights**2 * law.scales()**2 * kappa * evals**2))


def spatial_mean(h, t: float, grid: int | None = None) -> float:
    """Lattice quadrature of H(t, .).

    The default lattice of 4 * band + 1 points per axis is exact for the
    evaluated series, whose wavenumbers are at most the engine's band.
    """
    if grid is None:
        grid = 4 * h.engine.band + 1
    xs = np.arange(grid) / grid
    return float(h.value_grid(t, xs, xs).mean())


def expansion(draw) -> dict:
    """Nonzero coefficients {(k, n, 'cos' or 'sin'): value} of a centered
    periodic- or constant-kernel draw, n the 1-based mode index."""
    kind = draw.law.kernel
    w = draw.weights * draw.law.scales()
    entries = {}
    for idx in range(len(draw.basis)):
        values = [(0, "cos", w[idx] * draw.gaussians[idx, 0])]
        if kind.tag == temporal.PERIODIC:
            tm = kind.temporal_max
            decay = kind.fourier_decay()
            values += [(k, parity, w[idx] * decay[k - 1] * draw.gaussians[idx, k + offset])
                       for k in range(1, tm + 1) for parity, offset in (("cos", 0), ("sin", tm))]
        entries.update({(k, idx + 1, parity): float(c) for k, parity, c in values if c != 0.0})
    return entries


def reconstruct_value(draw, entries: dict, t: float, x: float, y: float) -> float:
    """The sum of ``entries`` over the product basis at (t, (x, y))."""
    total = 0.0
    for (k, n, parity), coeff in entries.items():
        e_val = mode_of(draw.basis, n - 1).evaluate(x, y)
        if k == 0:
            total += coeff * e_val
        elif parity == "cos":
            total += coeff * math.sqrt(2.0) * math.cos(2.0 * math.pi * k * t) * e_val
        else:
            total += coeff * math.sqrt(2.0) * math.sin(2.0 * math.pi * k * t) * e_val
    return total


def full_coefficients(h) -> np.ndarray:
    """B of a draw over the whole basis: shape (m, N), from the draw's full
    normals."""
    law = h.law
    return h.weights * temporal.coefficient_matrix(law.kernel, h.gaussians, law.scales())


def reversal_coefficients(h) -> np.ndarray:
    """B of ``time_reversed_hamiltonian(h)`` over the whole basis: -R @ B."""
    return -h.time_basis.reflect(full_coefficients(h))


def concatenation_coefficients(parts) -> np.ndarray:
    """B of ``concatenate_autonomous(parts, bump)`` over the whole basis:
    row i is part i's constant coefficients, Phi(0) @ B of the part."""
    return np.stack([(p.time_basis(0.0) @ full_coefficients(p))[0] for p in parts])


def mode_coefficients(h, times) -> np.ndarray:
    """c_n(t) of every mode of the basis; shape (N,) at a scalar time, (T, N)
    at a vector of times."""
    out = h.time_basis(times) @ full_coefficients(h)
    return out[0] if np.ndim(times) == 0 else out


def full_packing(engine, coeffs) -> np.ndarray:
    """Grids (..., 2, K1, 2*K1) of coefficients (..., N) over the whole
    basis: the engine's band modes taken, amplitudes applied, subnormals
    flushed to zero, and mode (kx, ky, tx, ty) placed at entry
    (2kx + tx, 2ky + ty) of G."""
    b = engine.basis
    band = (b.kx <= engine.band) & (b.ky <= engine.band)
    values = np.asarray(coeffs, dtype=float)[..., band] * b.amplitudes[band]
    values[np.abs(values) < np.finfo(float).tiny] = 0.0
    k1 = engine.band + 1
    out = np.zeros(values.shape[:-1] + (2 * k1, 2 * k1))
    out[..., 2 * b.kx[band] + b.tx[band], 2 * b.ky[band] + b.ty[band]] = values
    return out.reshape(values.shape[:-1] + (2, k1, 2 * k1))


def apply_walk(walk, pts, settings=DEFAULT_SETTINGS) -> np.ndarray:
    """The walk map at lifts pts (P, 2): each step's time-1 flow in turn."""
    state = np.asarray(pts, dtype=float)
    for h in walk:
        state = flow_points(h, state, 0.0, 1.0, settings)
    return state

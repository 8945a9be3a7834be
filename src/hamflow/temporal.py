"""Gaussian coefficient processes on [0,1].

Three process families drive the random field's per-mode coefficients:

* ``sqexp``     -- stationary squared-exponential kernel exp(-r (s-t)^2),
                   sampled on a uniform time grid by Cholesky factorization
                   and interpolated linearly between nodes;
* ``periodic``  -- a finite random Fourier series with exponentially decaying
                   coefficients, periodic with period 1 and evaluated in
                   closed form;
* ``constant``  -- a single standard normal, constant in time (the autonomous
                   case).

All processes have unit pointwise variance scale before ``per_mode_scale``
is applied.  ``mean`` shifts the whole path by a constant; it exists so that
deliberately non-centered laws can be constructed in tests.

A draw of N coefficient processes is one read-only (N, m) array of
independent standard normals, m = ``KernelKind.gaussians_per_sample()``;
row n drives process n.  Every kernel's paths are linear in the draw: the
N paths at times t are one product Z(t) = Phi(t) @ B, with a time basis
Phi(t) of shape (T, m) fixed by the kernel (:class:`TimeBasis`) and a
coefficient matrix B of shape (m, N) made from the draw
(:func:`coefficient_matrix`).  Per kernel, the draw's columns and the pair
(Phi, B) are:

* ``periodic`` -- m = 1 + 2 * temporal_max: column 0 is the constant term
  x0, columns 1..temporal_max the cosine coefficients of frequencies
  1..temporal_max, and the last temporal_max columns the matching sines.
  Phi(t) = [1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t)] for
  k = 1..temporal_max, and B holds x0 and the decay-scaled cosine and sine
  normals, row for row;
* ``constant`` -- m = 1: the single normal.  Phi(t) = [1] and B is the
  normal;
* ``sqexp``    -- m = grid_nodes: node normals, mapped through the Cholesky
  factor of the unit covariance on linspace(0, 1, grid_nodes) to the path's
  node values.  Phi(t) holds the hat-function weights of linear
  interpolation between the nodes (at most two nonzero per row), and B the
  node values.

Each time basis reflects exactly: Phi(1 - t) = Phi(t) @ R for a signed
permutation R = R^-1 (:meth:`TimeBasis.reflect`), so t -> Z(1 - t) is
Phi(t) @ (R @ B), a path in the same time basis.

``scale`` and ``mean`` enter B: B is scale times the unit coefficients, and
the mean is added to the rows whose basis functions sum to one (row 0 for
``periodic`` and ``constant``; every row for ``sqexp``, whose hat weights
form a partition of unity).  :func:`coefficient_paths` is the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FactorizationFailure, OutOfRange

SQEXP = "sqexp"
PERIODIC = "periodic"
CONSTANT = "constant"
KERNEL_TAGS = (SQEXP, PERIODIC, CONSTANT)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class KernelKind:
    """Description of one coefficient process family.

    temporal_max is the Fourier truncation order (periodic kernel only);
    grid_nodes is the uniform sampling grid size (sqexp kernel only).
    """

    tag: str
    regularity: float
    temporal_max: int = 10
    per_mode_scale: float = 1.0
    grid_nodes: int = 64
    mean: float = 0.0

    def __post_init__(self):
        if self.tag not in KERNEL_TAGS:
            raise ValueError(f"unknown kernel tag {self.tag!r}")
        if self.regularity <= 0:
            raise ValueError("regularity must be positive")
        if self.per_mode_scale <= 0:
            raise ValueError("per_mode_scale must be positive")
        if self.temporal_max < 1:
            raise ValueError("temporal_max must be >= 1")
        if self.grid_nodes < 2:
            raise ValueError("grid_nodes must be >= 2")

    def fourier_decay(self) -> np.ndarray:
        """Decay factors exp(-2 r pi^2 k^2) for k = 1..temporal_max."""
        k = np.arange(1, self.temporal_max + 1)
        return np.exp(-2.0 * self.regularity * math.pi**2 * k**2)

    def gaussians_per_sample(self) -> int:
        """Number of independent standard normals one draw consumes."""
        if self.tag == PERIODIC:
            return 1 + 2 * self.temporal_max
        if self.tag == CONSTANT:
            return 1
        return self.grid_nodes

    def time_basis(self) -> "TimeBasis":
        """The kernel's Phi(t); kernels with equal bases share it by value."""
        return TimeBasis(self.tag, self.gaussians_per_sample())


@dataclass(frozen=True)
class TimeBasis:
    """Phi(t) of one kernel family with m basis functions (module docstring).

    Calling it on a scalar or (T,) array of times in [0, 1] returns the
    (T, m) matrix Phi(times).  Equal instances are the same function of
    time, which is what lets draws of one law share their stage products.
    ``stiffness`` is the factor by which a flow multiplies its RK4 steps per
    unit time: 1 for every kernel (``hamflow.flow.BumpTimeBasis`` differs).
    """

    tag: str
    size: int
    stiffness = 1

    def __call__(self, times) -> np.ndarray:
        t = _check_times(np.atleast_1d(times))
        if self.tag == CONSTANT:
            return np.ones((len(t), 1))
        if self.tag == PERIODIC:
            ang = _TWO_PI * np.multiply.outer(t, np.arange(1, (self.size - 1) // 2 + 1))
            return np.hstack([np.ones((len(t), 1)),
                              math.sqrt(2.0) * np.cos(ang), math.sqrt(2.0) * np.sin(ang)])
        pos = np.clip(t, 0.0, 1.0) * (self.size - 1)
        i0 = np.minimum(pos.astype(int), self.size - 2)
        frac = pos - i0
        rows = np.arange(len(t))
        out = np.zeros((len(t), self.size))
        out[rows, i0] = 1.0 - frac
        out[rows, i0 + 1] = frac
        return out

    def reflect(self, b: np.ndarray) -> np.ndarray:
        """R @ b for Phi(1 - t) = Phi(t) @ R: the periodic sine rows negated
        (sin 2 pi k (1 - t) = -sin 2 pi k t), the constant row kept, and the
        sqexp hats, on nodes symmetric about 1/2, reversed.  Rows are only
        moved and negated, so R @ (R @ b) is b bit for bit."""
        if self.tag == PERIODIC:
            sines = 1 + (self.size - 1) // 2
            return np.concatenate([b[:sines], -b[sines:]])
        return b if self.tag == CONSTANT else b[::-1]


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise OutOfRange(f"time {t} outside [0, 1]")
    return t


def kernel_value(kind: KernelKind, t1: float, t2: float) -> float:
    """Covariance Cov[Z(t1), Z(t2)] of the process described by ``kind``."""
    _check_times(t1)
    _check_times(t2)
    s2 = kind.per_mode_scale**2
    if kind.tag == SQEXP:
        return s2 * math.exp(-kind.regularity * (t1 - t2) ** 2)
    if kind.tag == PERIODIC:
        decay = kind.fourier_decay()
        k = np.arange(1, kind.temporal_max + 1)
        series = 2.0 * np.sum(decay**2 * np.cos(_TWO_PI * k * (t1 - t2)))
        return s2 * (1.0 + float(series))
    return s2  # constant in time


@lru_cache(maxsize=16)
def _sqexp_cholesky(regularity: float, nodes: int) -> np.ndarray:
    """Lower Cholesky factor of the unit sqexp covariance on the node grid."""
    times = np.linspace(0.0, 1.0, nodes)
    diff = times[:, None] - times[None, :]
    cov = np.exp(-regularity * diff**2)
    cov[np.diag_indices_from(cov)] += 1e-10
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure("jittered squared-exponential covariance "
                                   "is not positive definite") from exc
    chol.setflags(write=False)
    return chol


def coefficient_matrix(kind: KernelKind, gaussians: np.ndarray, scales) -> np.ndarray:
    """B of shape (m, N) with paths Z(t) = Phi(t) @ B (module docstring).

    ``gaussians`` is the draw's (N, m) array and ``scales`` the per-mode
    scale (scalar or (N,)); the kernel's mean is folded in.
    """
    if kind.tag == PERIODIC:
        decay = kind.fourier_decay()
        unit = np.concatenate([[1.0], decay, decay])[:, None] * gaussians.T
    elif kind.tag == CONSTANT:
        unit = gaussians.T
    else:
        unit = _sqexp_cholesky(kind.regularity, kind.grid_nodes) @ gaussians.T
    out = scales * unit
    if kind.tag == SQEXP:
        out += kind.mean
    else:
        out[0] += kind.mean
    return out


def coefficient_paths(kind: KernelKind, gaussians: np.ndarray, scales, times) -> np.ndarray:
    """Paths Z_n(t) = scale_n * unit_n(t) + mean of one draw; shape (T, N).

    ``times`` is a scalar or (T,) array in [0, 1]; the other arguments are
    those of :func:`coefficient_matrix`.
    """
    return kind.time_basis()(times) @ coefficient_matrix(kind, gaussians, scales)

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
row n drives process n.  The columns are:

* ``periodic`` -- m = 1 + 2 * temporal_max: column 0 is the constant term
  x0, columns 1..temporal_max the cosine coefficients of frequencies
  1..temporal_max, and the last temporal_max columns the matching sines;
* ``constant`` -- m = 1: the single normal;
* ``sqexp``    -- m = grid_nodes: node normals, mapped through the Cholesky
  factor of the unit covariance on linspace(0, 1, grid_nodes) to the path's
  node values.

:func:`coefficient_paths` maps such an array to the paths at given times.
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


def coefficient_paths(kind: KernelKind, gaussians: np.ndarray, scales, times) -> np.ndarray:
    """Paths Z_n(t) = scale_n * unit_n(t) + mean of one draw; shape (T, N).

    ``gaussians`` is the draw's (N, m) array in the column layout of the
    module docstring, ``scales`` the per-mode scale (scalar or (N,)) and
    ``times`` a scalar or (T,) array in [0, 1].
    """
    t = _check_times(np.atleast_1d(times))
    if kind.tag == CONSTANT:
        return np.broadcast_to(scales * gaussians[:, 0] + kind.mean, (len(t), len(gaussians)))
    if kind.tag == PERIODIC:
        tm = kind.temporal_max
        decay = kind.fourier_decay()
        ang = _TWO_PI * np.multiply.outer(t, np.arange(1, tm + 1))
        series = (np.cos(ang) @ (decay * gaussians[:, 1:tm + 1]).T
                  + np.sin(ang) @ (decay * gaussians[:, tm + 1:]).T)
        unit = gaussians[:, 0] + math.sqrt(2.0) * series
    else:
        nodes = gaussians @ _sqexp_cholesky(kind.regularity, kind.grid_nodes).T
        pos = np.clip(t, 0.0, 1.0) * (kind.grid_nodes - 1)
        i0 = np.minimum(pos.astype(int), kind.grid_nodes - 2)
        frac = pos - i0
        unit = (nodes[:, i0] * (1.0 - frac) + nodes[:, i0 + 1] * frac).T
    return scales * unit + kind.mean

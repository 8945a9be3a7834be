"""Gaussian coefficient processes on [0,1].

Every coefficient process is one truncated random Fourier series

    Z(t) = Phi(t) @ B,   Phi(t) = [1, sqrt(2) cos(2 pi k (t - s) / L),
                                   sqrt(2) sin(2 pi k (t - s) / L)],  k = 1..n,

with period L, center s and n frequencies fixed by the kernel
(:class:`TimeBasis`, from :func:`time_basis`).  A draw of N processes is one
read-only (rows, m) array of independent standard normals, rows <= N and
m = 1 + 2n; row n drives process n, column 0 the constant term, columns
1..n the cosines and the last n columns the matching sines.  B, of shape
(m, N), is the draw's normals times per-column factors
(:func:`column_factors`), so the series has covariance
c_0 + 2 sum_k c_k cos(2 pi k (t1 - t2) / L), c the squared column factors.
A kernel is a tag, and the three differ only in the numbers that these two
functions compute from the tag, the regularity r per Laplace-Beltrami
eigenvalue and temporal_max (the law's ``eigenvalue_regularity`` and
``temporal_max``, ``hamflow.field.HamiltonianLaw``):

* ``constant`` -- n = 0: a single standard normal, constant in time (the
  autonomous case);
* ``periodic`` -- n = temporal_max, L = 1, s = 0, column factors
  [1, d_k, d_k] with the Fourier decay d_k = exp(-2 r pi^2 k^2);
* ``sqexp``    -- the period-L periodization of exp(-r tau^2),
  sum_j exp(-r (tau + j L)^2) = c_0 + 2 sum_k c_k cos(2 pi k tau / L) with
  c_k = sqrt(pi / r) exp(-pi^2 k^2 / (r L^2)) / L.  L = 1 + sqrt(37 / r)
  puts every image but tau's own below e^-37 for |tau| <= 1, and
  n = ceil(sqrt(37 r) L / pi) + 1 drops only terms below e^-37, so the
  series holds exp(-r (t1 - t2)^2) to rounding on [0, 1]; s = 1/2 and the
  column factors are sqrt(c_k).

Each time basis reflects exactly: s = 0 with L = 1, or s = 1/2, makes
Phi(1 - t) = Phi(t) @ R, R the signed permutation that negates the sine
rows (:meth:`TimeBasis.reflect`), so t -> Z(1 - t) is Phi(t) @ (R @ B), a
path in the same time basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

SQEXP = "sqexp"
PERIODIC = "periodic"
CONSTANT = "constant"
KERNEL_TAGS = (SQEXP, PERIODIC, CONSTANT)

_TWO_PI = 2.0 * math.pi
# The sqexp series drops its images and its tail below exp(-_SQEXP_EXPONENT).
_SQEXP_EXPONENT = 37.0


def time_basis(kernel: str, regularity: float, temporal_max: int) -> TimeBasis:
    """The whole Phi(t) of the kernel tagged ``kernel``, ``regularity`` per
    eigenvalue (module docstring)."""
    if kernel == SQEXP:
        period = 1.0 + math.sqrt(_SQEXP_EXPONENT / regularity)
        n = math.ceil(math.sqrt(_SQEXP_EXPONENT * regularity) * period / math.pi) + 1
        return TimeBasis(n, period, 0.5)
    return TimeBasis(temporal_max if kernel == PERIODIC else 0)


def column_factors(kernel: str, regularity: float, basis: TimeBasis) -> np.ndarray:
    """The (m,) factors by which B scales each column of the normals, for
    the kernel tagged ``kernel`` over its whole ``time_basis``,
    ``regularity`` per eigenvalue (module docstring)."""
    k = np.arange(basis.frequencies + 1)
    if kernel == SQEXP:
        root = np.sqrt(math.sqrt(math.pi / regularity) / basis.period
                       * np.exp(-(math.pi * k / basis.period) ** 2 / regularity))
        return np.concatenate([root, root[1:]])
    decay = np.exp(-2.0 * regularity * math.pi**2 * k[1:] ** 2)
    return np.concatenate([[1.0], decay, decay])


@dataclass(frozen=True)
class TimeBasis:
    """Phi(t) of n frequencies, period L and center s (module docstring).

    Calling it on a scalar or (T,) array of times in [0, 1] returns the
    (T, 1 + 2n) matrix Phi(times).  Equal instances are the same function of
    time, which is what lets draws of one law share their stage products.
    This call, ``reflect`` and equality are all the integrator asks of a
    time basis.
    """

    frequencies: int
    period: float = 1.0
    center: float = 0.0

    def __call__(self, times) -> np.ndarray:
        t = check_times(np.atleast_1d(times))
        ang = (_TWO_PI / self.period) * np.multiply.outer(t - self.center,
                                                          np.arange(1, self.frequencies + 1))
        return np.hstack([np.ones((len(t), 1)),
                          math.sqrt(2.0) * np.cos(ang), math.sqrt(2.0) * np.sin(ang)])

    def reflect(self, b: np.ndarray) -> np.ndarray:
        """R @ b for Phi(1 - t) = Phi(t) @ R: the sine rows negated, since
        1 - t - s = -(t - s) modulo L.  Rows are only negated, so
        R @ (R @ b) is b bit for bit."""
        cosines = 1 + self.frequencies
        return np.concatenate([b[:cosines], -b[cosines:]])


def check_times(t) -> np.ndarray:
    """``t`` as floats; ``OutOfRange`` if a time leaves [0, 1] by over 1e-12."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise OutOfRange(f"time {t} outside [0, 1]")
    return t


"""Reproducing-kernel Hilbert space norms for periodic- and constant-kernel draws.

These are functions of a law and a draw's whole (N, m) normals; they build
no draw.  A draw H(t,x) = sum_n w_n Z_n(t) e_n(x) with the periodic kernel
expands over the product basis {e_n(x)} x {1, sqrt(2)cos(2 pi k t),
sqrt(2)sin(...)} with one coefficient w_n d_k g per Gaussian g of the draw
(layout in :mod:`hamflow.temporal`): weight w_n = exp(-r lambda_n / 2) and Fourier
decay d_k = exp(-2 r pi^2 k^2), d_0 = 1; a constant-kernel draw has k = 0
only.  The RKHS norm weights each squared coefficient by
exp(r (4 pi^2 k^2 + lambda_n)), which exactly cancels the sampling decay.
Both sums are taken in log space, straight from the Gaussians, so no
coefficient underflows before its weight is applied.
"""

from __future__ import annotations

import math

import numpy as np

from . import temporal
from .errors import Unsupported


def check_period_one(kernel: str) -> None:
    """Raise ``Unsupported`` for the sqexp tag: the weight exp(4 pi^2 r k^2)
    and the time-average column hold for period-1 series only."""
    if kernel == temporal.SQEXP:
        raise Unsupported("the sqexp series has period L > 1: no period-1 expansion")


def _log_gaussians(law, gaussians):
    """(log |g| (N, m), temporal index k of each column (m,)) of a draw's
    whole (N, m) normals ``gaussians``."""
    kind = law.kernel
    check_period_one(kind.tag)
    shape = (len(law.basis()), kind.gaussians_per_sample())
    if np.shape(gaussians) != shape:
        raise ValueError(f"gaussians must have shape {shape}")
    k = np.arange(1, kind.time_basis().frequencies + 1)
    with np.errstate(divide="ignore"):
        log_g = np.log(np.abs(gaussians))
    return log_g, np.concatenate([[0], k, k])


def rkhs_norm(law, gaussians, regularity: float) -> float:
    """Square root of sum exp(r (4 pi^2 k^2 + lambda_n)) c^2 over the
    coefficients c of the draw of ``law`` with normals ``gaussians``.  A
    term is exp(2 log |g| + (r - r_law) (lambda_n + 4 pi^2 k^2)), so at the
    law's regularity a draw has norm sqrt(sum g^2) to rounding."""
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    log_g, k = _log_gaussians(law, gaussians)
    exponent = (2.0 * log_g + ((regularity - law.regularity) * law.basis().eigenvalues)[:, None]
                + 4.0 * math.pi**2 * (regularity - law.regularity) * k**2)
    return math.sqrt(float(np.sum(np.exp(exponent))))


def weighted_coefficient_sum(law, gaussians, eps: float) -> float:
    """Smoothness diagnostic: sum over modes of exp(eps lambda_n) times the
    time-averaged pairing (the k = 0 cosine coefficient w_n g_{n,0})."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    log_g, _ = _log_gaussians(law, gaussians)
    log_weighted = (eps - 0.5 * law.regularity) * law.basis().eigenvalues + log_g[:, 0]
    return float(np.sum(np.sign(gaussians[:, 0]) * np.exp(log_weighted)))

"""Reproducing-kernel Hilbert space norms for periodic- and constant-kernel draws.

A draw H(t,x) = sum_n w_n Z_n(t) e_n(x) with the periodic kernel expands
over the product basis {e_n(x)} x {1, sqrt(2)cos(2 pi k t), sqrt(2)sin(...)}
with one coefficient w_n s_n d_k g per Gaussian g of the draw (layout in
:mod:`hamflow.temporal`): weight w_n = exp(-r lambda_n / 2), mode scale s_n
and Fourier decay d_k = exp(-2 r_T pi^2 k^2), d_0 = 1; a constant-kernel
draw has k = 0 only.  The RKHS norm weights each squared coefficient by
exp(r (4 pi^2 k^2 + lambda_n)), which exactly cancels the sampling decay.
Both sums are taken in log space, straight from the Gaussians, so no
coefficient underflows before its weight is applied.
"""

from __future__ import annotations

import math

import numpy as np

from . import temporal
from .errors import Unsupported
from .field import RandomHamiltonian


def _log_scaled_gaussians(draw: RandomHamiltonian):
    """(log(s_n |g|) (N, m), temporal index k of each column (m,))."""
    kind = draw.law.kernel
    if kind.tag == temporal.SQEXP:
        raise Unsupported("grid-sampled kernels have no closed coefficient expansion")
    if kind.mean != 0.0:
        raise Unsupported("coefficient expansion requires a centered kernel")
    k = np.arange(1, kind.temporal_max + 1) if kind.tag == temporal.PERIODIC else np.array([], int)
    with np.errstate(divide="ignore"):
        log_sg = np.log(draw.law.scales())[:, None] + np.log(np.abs(draw.gaussians))
    return log_sg, np.concatenate([[0], k, k])


def rkhs_norm(draw: RandomHamiltonian, regularity: float) -> float:
    """Square root of sum exp(r (4 pi^2 k^2 + lambda_n)) c^2 over the
    coefficients c of a draw.  A term is exp(2 log(s_n |g|) + (r - r_law)
    lambda_n + 4 pi^2 k^2 (r - r_T)), so at the law's and the kernel's
    regularity a unit-scale draw has norm sqrt(sum g^2) to rounding."""
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    log_sg, k = _log_scaled_gaussians(draw)
    law = draw.law
    exponent = (2.0 * log_sg + ((regularity - law.regularity) * draw.basis.eigenvalues)[:, None]
                + 4.0 * math.pi**2 * (regularity - law.kernel.regularity) * k**2)
    return math.sqrt(float(np.sum(np.exp(exponent))))


def weighted_coefficient_sum(draw: RandomHamiltonian, eps: float) -> float:
    """Smoothness diagnostic: sum over modes of exp(eps lambda_n) times the
    time-averaged pairing (the k = 0 cosine coefficient w_n s_n g_{n,0})."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    log_sg, _ = _log_scaled_gaussians(draw)
    log_weighted = (eps - 0.5 * draw.law.regularity) * draw.basis.eigenvalues + log_sg[:, 0]
    return float(np.sum(np.sign(draw.gaussians[:, 0]) * np.exp(log_weighted)))

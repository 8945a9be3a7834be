"""Reproducing-kernel Hilbert space norms for periodic-kernel draws.

A draw H(t,x) = sum_n w_n Z_n(t) e_n(x) with the periodic kernel expands
over the product basis {e_n(x)} x {1, sqrt(2)cos(2 pi k t), sqrt(2)sin(...)}
with coefficients a_{k,n}, b_{k,n}.  The RKHS norm weights each squared
coefficient by exp(r (4 pi^2 k^2 + lambda_n)), which exactly cancels the
sampling decay: a single k=0 coefficient equal to w_n has norm one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import temporal
from .basis import TorusPoint
from .errors import Unsupported
from .field import RandomHamiltonian

COS, SIN = "cos", "sin"


@dataclass(frozen=True)
class CoefficientTable:
    """Sparse expansion coefficients keyed by (temporal k, mode index n, parity).

    Mode indices are 1-based positions in the eigenvalue-sorted basis.
    ``eigenvalues`` maps each used mode index to its Laplace eigenvalue.
    """

    entries: dict
    eigenvalues: dict
    basis: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for (k, n, parity) in self.entries:
            if parity not in (COS, SIN):
                raise ValueError(f"parity must be '{COS}' or '{SIN}'")
            if k < 0 or n < 1:
                raise ValueError("need temporal index k >= 0 and mode index n >= 1")
            if k == 0 and parity == SIN:
                raise ValueError("no sine entry at temporal index 0")
            if n not in self.eigenvalues:
                raise ValueError(f"missing eigenvalue for mode {n}")

    def scaled(self, factor: float) -> "CoefficientTable":
        return CoefficientTable({k: factor * v for k, v in self.entries.items()},
                                dict(self.eigenvalues), self.basis)


def coefficient_expansion(draw: RandomHamiltonian) -> CoefficientTable:
    """Expansion coefficients of one draw over the product eigenbasis.

    Periodic draws fill temporal indices 0..temporal_max; constant-in-time
    draws map to k = 0 entries only.  Grid-sampled kernels have no closed
    expansion and are unsupported, as are non-centered kernels.
    """
    kind = draw.law.kernel
    if kind.tag == temporal.SQEXP:
        raise Unsupported("grid-sampled kernels have no closed coefficient expansion")
    if kind.mean != 0.0:
        raise Unsupported("coefficient expansion requires a centered kernel")
    entries: dict = {}
    eigenvalues: dict = {}
    if kind.tag == temporal.CONSTANT:
        for idx, coeff in enumerate(draw.mode_coefficients(0.0)):
            if coeff != 0.0:
                entries[(0, idx + 1, COS)] = float(coeff)
                eigenvalues[idx + 1] = float(draw.basis.eigenvalues[idx])
        return CoefficientTable(entries, eigenvalues, draw.basis)
    tm = kind.temporal_max
    w = draw.weights * draw.law.scales()
    base = w * draw.gaussians[:, 0]
    damped = w[:, None] * kind.fourier_decay()
    cos = damped * draw.gaussians[:, 1:tm + 1]
    sin = damped * draw.gaussians[:, tm + 1:]
    for idx in range(len(draw.basis)):
        n = idx + 1
        used = False
        if base[idx] != 0.0:
            entries[(0, n, COS)] = float(base[idx])
            used = True
        for k in range(1, tm + 1):
            a = cos[idx, k - 1]
            b = sin[idx, k - 1]
            if a != 0.0:
                entries[(k, n, COS)] = float(a)
                used = True
            if b != 0.0:
                entries[(k, n, SIN)] = float(b)
                used = True
        if used:
            eigenvalues[n] = float(draw.basis.eigenvalues[idx])
    return CoefficientTable(entries, eigenvalues, draw.basis)


def reconstruct_value(table: CoefficientTable, t: float, p: TorusPoint) -> float:
    """Evaluate the expansion at (t, p); inverse of coefficient_expansion."""
    if table.basis is None:
        raise Unsupported("table carries no basis handle")
    total = 0.0
    for (k, n, parity), coeff in table.entries.items():
        e_val = table.basis.modes[n - 1].evaluate(p)
        if k == 0:
            total += coeff * e_val
        elif parity == COS:
            total += coeff * math.sqrt(2.0) * math.cos(2.0 * math.pi * k * t) * e_val
        else:
            total += coeff * math.sqrt(2.0) * math.sin(2.0 * math.pi * k * t) * e_val
    return total


def rkhs_norm(table: CoefficientTable, regularity: float) -> float:
    """Square root of sum exp(r (4 pi^2 k^2 + lambda_n)) (a^2 + b^2).

    Each term is summed as exp(2 log|coeff| + r (4 pi^2 k^2 + lambda_n)):
    at high modes the weight overflows while coeff**2 underflows, but the
    two cancel (module docstring).  Zero coefficients contribute nothing.
    """
    if regularity <= 0:
        raise ValueError("regularity must be positive")
    total = 0.0
    for (k, n, _), coeff in table.entries.items():
        if coeff != 0.0:
            total += math.exp(2.0 * math.log(abs(coeff))
                              + regularity * (4.0 * math.pi**2 * k**2 + table.eigenvalues[n]))
    return math.sqrt(total)


def weighted_coefficient_sum(table: CoefficientTable, eps: float,
                             absolute: bool = False) -> float:
    """Smoothness diagnostic: sum over modes of exp(eps lambda_n) times the
    time-averaged pairing (the k = 0 cosine coefficient).

    The signed sum is the literal statement; ``absolute`` sums magnitudes
    instead, for use when sign cancellations obscure divergence.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    total = 0.0
    for (k, n, parity), coeff in table.entries.items():
        if k == 0 and parity == COS:
            term = abs(coeff) if absolute else coeff
            total += math.exp(eps * table.eigenvalues[n]) * term
    return total

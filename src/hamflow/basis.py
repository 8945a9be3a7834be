"""Truncated eigenbasis of the Laplace-Beltrami operator on the flat 2-torus.

The torus is [0,1)^2 with both coordinates identified mod 1.  Basis functions
are products of cosines/sines of 2*pi*k*x and 2*pi*j*y, L2-normalized, with
the constant mode excluded.  Everything here is immutable after construction
and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: The four factor combinations (x, y; 'c' cosine), in tie-break order 2 tx + ty.
TRIG_PAIRS = ("cc", "cs", "sc", "ss")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralBasis:
    """Ordered truncated eigenbasis, as read-only arrays indexed by mode.

    Basis function n is amplitudes[n] * f(2 pi kx[n] x) * g(2 pi ky[n] y), f the cosine
    (tx[n] = 0) or sine (tx[n] = 1) and g likewise by ty[n], with Laplace
    eigenvalue 4 pi^2 (kx^2 + ky^2).  Pairs kx, ky >= 1 carry all four trig
    codes at amplitude 2; axis modes carry cc and sc on (k, 0) and cc and cs
    on (0, k) at amplitude sqrt(2).  Modes are sorted by (eigenvalue, kx, ky,
    trig code 2 tx + ty).  The arrays are not fields: bases compare, hash
    and print by ``spatial_max`` and ``include_axis_modes``.

    spatial_max caps each wavenumber (kx, ky <= spatial_max).  Axis modes
    (one wavenumber zero) are left out unless ``include_axis_modes``, so
    that the default basis has spatial_max^2 wavenumber pairs.  A draw
    without them has mean zero on every horizontal and vertical circle, so
    one autonomous draw (a random-walk step) lacks the axis shears, such as
    cos 2 pi y's.  The other modes' Poisson brackets reach every axis mode
    up to 2 spatial_max (``tests/test_basis.py``), also through the
    integrator: the flows' commutator approaches the bracket's flow
    (``tests/test_flow.py``).
    """

    spatial_max: int
    include_axis_modes: bool = False

    def __post_init__(self):
        k = np.arange(1, self.spatial_max + 1, dtype=np.intp)
        kx, ky, trig = (a.ravel() for a in np.meshgrid(k, k, np.arange(4, dtype=np.intp),
                                                        indexing="ij"))
        if self.include_axis_modes:
            zero = np.zeros_like(k)
            kx, ky = np.concatenate([kx, k, k, zero, zero]), np.concatenate([ky, zero, zero, k, k])
            trig = np.concatenate([trig] + [np.full_like(k, TRIG_PAIRS.index(c))
                                            for c in ("cc", "sc", "cc", "cs")])
        order = np.lexsort((trig, ky, kx, kx**2 + ky**2))
        kx, ky, trig = kx[order], ky[order], trig[order]
        for name, values in (("kx", kx), ("ky", ky), ("tx", trig >> 1), ("ty", trig & 1),
                             ("amplitudes", np.where((kx >= 1) & (ky >= 1), 2.0, math.sqrt(2.0))),
                             ("eigenvalues", 4.0 * math.pi**2 * (kx**2 + ky**2))):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.kx)

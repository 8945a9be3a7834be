"""Truncated eigenbasis of the Laplace-Beltrami operator on the flat 2-torus.

The torus is [0,1)^2 with both coordinates identified mod 1.  Basis functions
are products of cosines/sines of 2*pi*k*x and 2*pi*j*y, L2-normalized, with
the constant mode excluded.  Everything here is immutable after construction
and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COS, SIN = "c", "s"
#: The four factor combinations, in tie-break order.
TRIG_PAIRS = ("cc", "cs", "sc", "ss")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusPoint:
    """A point on the torus; coordinates are reduced mod 1 on construction."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x) % 1.0)
        object.__setattr__(self, "y", float(self.y) % 1.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def distance(self, other: "TorusPoint") -> float:
        """Flat torus distance (shortest representative)."""
        return torus_distance(self.as_array(), other.as_array())


def torus_distance(p, q) -> float:
    """Euclidean distance between nearest periodic representatives."""
    d = (np.asarray(p, dtype=float) - np.asarray(q, dtype=float) + 0.5) % 1.0 - 0.5
    return float(np.hypot(d[..., 0], d[..., 1])) if d.ndim else float(np.abs(d))


@dataclass(frozen=True)
class Truncation:
    """Series truncation parameters.

    spatial_max caps each wavenumber (k, j <= spatial_max); temporal_max caps
    the temporal Fourier order of periodic coefficient processes.  Axis modes
    (one wavenumber zero) are excluded by default so that the default basis
    has spatial_max^2 wavenumber pairs.
    """

    spatial_max: int = 25
    include_axis_modes: bool = False
    temporal_max: int = 10

    def __post_init__(self):
        if self.spatial_max < 1:
            raise ValueError("spatial_max must be >= 1")
        if self.temporal_max < 1:
            raise ValueError("temporal_max must be >= 1")


@dataclass(frozen=True)
class Mode:
    """One eigenfunction: amplitude * f(2 pi kx x) * g(2 pi ky y).

    ``trig`` is a two-character code from TRIG_PAIRS giving the x- and
    y-factor ('c' for cosine, 's' for sine).  A sine factor on a zero
    wavenumber is forbidden (the function would vanish identically), and the
    constant mode (kx = ky = 0) is excluded.
    """

    kx: int
    ky: int
    trig: str

    def __post_init__(self):
        if self.trig not in TRIG_PAIRS:
            raise ValueError(f"unknown trig code {self.trig!r}")
        if self.kx < 0 or self.ky < 0:
            raise ValueError("wavenumbers must be nonnegative")
        if self.kx + self.ky < 1:
            raise ValueError("the constant mode is excluded")
        if (self.kx == 0 and self.trig[0] == SIN) or (self.ky == 0 and self.trig[1] == SIN):
            raise ValueError("sine factor of a zero wavenumber vanishes identically")

    @property
    def eigenvalue(self) -> float:
        """Laplace-Beltrami eigenvalue 4*pi^2*(kx^2 + ky^2)."""
        return 4.0 * math.pi**2 * (self.kx**2 + self.ky**2)

    @property
    def amplitude(self) -> float:
        """L2-normalizing constant: 2 for full modes, sqrt(2) for axis modes."""
        return 2.0 if (self.kx >= 1 and self.ky >= 1) else math.sqrt(2.0)

    def evaluate(self, p: TorusPoint) -> float:
        fx = math.cos if self.trig[0] == COS else math.sin
        fy = math.cos if self.trig[1] == COS else math.sin
        return self.amplitude * fx(TWO_PI * self.kx * p.x) * fy(TWO_PI * self.ky * p.y)


def _sort_key(mode: Mode):
    return (mode.eigenvalue, mode.kx, mode.ky, TRIG_PAIRS.index(mode.trig))


@dataclass(frozen=True)
class SpectralBasis:
    """Ordered truncated eigenbasis (nondecreasing eigenvalue)."""

    modes: tuple
    truncation: Truncation
    # Structure-of-arrays view used by the vectorized evaluation engine.
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    tx: np.ndarray = field(init=False, repr=False, compare=False)
    ty: np.ndarray = field(init=False, repr=False, compare=False)
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = [_sort_key(m) for m in self.modes]
        if keys != sorted(keys):
            raise ValueError("modes must be sorted by (eigenvalue, kx, ky, trig)")
        triples = {(m.kx, m.ky, m.trig) for m in self.modes}
        if len(triples) != len(self.modes):
            raise ValueError("duplicate (kx, ky, trig) triple")
        object.__setattr__(self, "kx", np.array([m.kx for m in self.modes], dtype=np.intp))
        object.__setattr__(self, "ky", np.array([m.ky for m in self.modes], dtype=np.intp))
        object.__setattr__(self, "tx", np.array([0 if m.trig[0] == COS else 1 for m in self.modes], dtype=np.intp))
        object.__setattr__(self, "ty", np.array([0 if m.trig[1] == COS else 1 for m in self.modes], dtype=np.intp))
        object.__setattr__(self, "amplitudes", np.array([m.amplitude for m in self.modes]))
        object.__setattr__(self, "eigenvalues", np.array([m.eigenvalue for m in self.modes]))

    def __len__(self) -> int:
        return len(self.modes)


def build_basis(truncation: Truncation) -> SpectralBasis:
    """Enumerate all admissible modes under ``truncation``, sorted."""
    modes = []
    smax = truncation.spatial_max
    for kx in range(1, smax + 1):
        for ky in range(1, smax + 1):
            for trig in TRIG_PAIRS:
                modes.append(Mode(kx, ky, trig))
    if truncation.include_axis_modes:
        for k in range(1, smax + 1):
            modes.append(Mode(k, 0, "cc"))
            modes.append(Mode(k, 0, "sc"))
            modes.append(Mode(0, k, "cc"))
            modes.append(Mode(0, k, "cs"))
    modes.sort(key=_sort_key)
    return SpectralBasis(modes=tuple(modes), truncation=truncation)

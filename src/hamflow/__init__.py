"""Random Hamiltonian diffeomorphisms of the flat 2-torus.

Sampling of Gaussian random Hamiltonians, symplectic flow integration,
the time reversal of generating Hamiltonians, and the Monte Carlo
experiment harness (diffusion, Lagrangian intersections, random walks,
oscillation and invariance statistics).
"""

from .basis import SpectralBasis
from .config import ExperimentConfig, parse_config, serialize_config
from .errors import (DegenerateOverlap, FailureBudgetExceeded, HamflowError, NonFinite,
                     OutOfRange, ParseError, RefinementOverflow, ValidationError)
from .field import (HamiltonianLaw, PackedBatch, RandomHamiltonian, SpectralHamiltonian,
                    make_law, sample_hamiltonian, spectral_weight)
from .flow import (LagrangianCurve, advect_curve, advect_curves, flow_points,
                   flow_points_through, horizontal_circle, time_reversed_hamiltonian)
from .rng import derive
from .temporal import CONSTANT, PERIODIC, SQEXP

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

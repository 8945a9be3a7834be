"""Random Hamiltonian diffeomorphisms of the flat 2-torus.

Sampling of Gaussian random Hamiltonians, symplectic flow integration,
group operations on generating Hamiltonians, random walks, RKHS norms, and
the Monte Carlo experiment harness (diffusion, Lagrangian intersections,
tail and invariance statistics).
"""

from .basis import SpectralBasis, Truncation
from .config import ExperimentConfig, parse_config, serialize_config
from .errors import (DegenerateOverlap, FailureBudgetExceeded, HamflowError, NonFinite,
                     NotAutonomous, OutOfRange, ParseError, RefinementOverflow, Unsupported,
                     ValidationError)
from .field import (HamiltonianLaw, RandomHamiltonian, SpectralHamiltonian, make_law,
                    sample_hamiltonian, spectral_weight)
from .flow import (FlowSettings, LagrangianCurve, advect_curve, advect_curves, flow_points,
                   flow_points_through, horizontal_circle, time_reversed_hamiltonian)
from .rkhs import rkhs_norm, weighted_coefficient_sum
from .rng import derive
from .temporal import CONSTANT, KernelKind, PERIODIC, SQEXP
from .walk import induced_point_walks, sample_walk

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

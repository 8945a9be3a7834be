"""Random walks on the Hamiltonian diffeomorphism group.

A walk of n steps is the tuple of its n independent autonomous draws; the
walk map is the composition of their time-1 flows, applied last step
outermost, each step flowed at its own law's count.  Walks keep draws
only - flow maps are reconstructed on demand, so the group operations stay
exact and memory stays small.
"""

from __future__ import annotations

import numpy as np

from . import temporal
from .errors import NotAutonomous
from .field import HamiltonianLaw, PackedBatch, sample_hamiltonian
from .flow import DEFAULT_SETTINGS, FlowSettings, flow_points


def check_autonomous(kernel: str) -> None:
    """Raise ``NotAutonomous`` unless ``kernel`` is the constant-in-time tag."""
    if kernel != temporal.CONSTANT:
        raise NotAutonomous("random walks require the constant-in-time kernel")


def sample_walk(law: HamiltonianLaw, seed: int, n_steps: int, walk_index: int = 0) -> tuple:
    """Draw a walk of n independent autonomous steps, in application order.

    Step i is ``sample_hamiltonian(law, seed, walk_index, i)``, drawn from
    its own stream, so ensembles of walks parallelize deterministically.
    """
    check_autonomous(law.kernel.tag)
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    return tuple(sample_hamiltonian(law, seed, walk_index, i) for i in range(n_steps))


def induced_point_walks(walks, p, settings: FlowSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Trajectories [p, step1(p), step2(step1(p)), ...] of the pair p under
    W walks of n steps, reduced mod 1: shape (W, n + 1, 2).  The flows start
    from p mod 1 and carry unreduced lifts.  The walks must have equal
    lengths and draw their steps from one law; step j of every walk is one
    batched flow."""
    walks = list(walks)
    if not walks:
        raise ValueError("need at least one walk")
    n = len(walks[0])
    if any(len(w) != n for w in walks):
        raise ValueError("batched walks need equal lengths")
    traj = np.empty((len(walks), n + 1, 2))
    traj[:, 0] = np.asarray(p, dtype=float) % 1.0
    state = traj[:, :1]
    for j, steps in enumerate(zip(*walks)):
        state = flow_points(PackedBatch(steps), state, 0.0, 1.0, settings)
        traj[:, j + 1] = state[:, 0] % 1.0
    return traj

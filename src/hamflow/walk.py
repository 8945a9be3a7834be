"""Random walks on the Hamiltonian diffeomorphism group.

A walk of n steps stores n independent autonomous draws; the walk map is the
composition of their time-1 flows, applied last step outermost.  Walks keep
generating Hamiltonians only - flow maps are reconstructed on demand, so the
group operations stay exact and memory stays small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import temporal
from .errors import NotAutonomous
from .field import HamiltonianLaw, sample_hamiltonian
from .flow import (BumpFunction, DEFAULT_SETTINGS, FlowSettings, concatenate_autonomous,
                   flow_points)


@dataclass(frozen=True)
class WalkState:
    """n independent autonomous step Hamiltonians, in application order."""

    steps: tuple
    settings: FlowSettings = DEFAULT_SETTINGS

    def __post_init__(self):
        for h in self.steps:
            if not h.autonomous:
                raise NotAutonomous("walk steps must be autonomous Hamiltonians")

    @property
    def steps_taken(self) -> int:
        return len(self.steps)


def sample_walk(law: HamiltonianLaw, n_steps: int, walk_index: int = 0,
                settings: FlowSettings = DEFAULT_SETTINGS) -> WalkState:
    """Draw a walk of n independent autonomous steps.

    Step i is ``sample_hamiltonian(law, law.seed, walk_index, i)``, drawn
    from its own stream, so ensembles of walks parallelize deterministically.
    """
    if law.kernel.tag != temporal.CONSTANT:
        raise NotAutonomous("random walks require the constant-in-time kernel")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    draws = tuple(sample_hamiltonian(law, law.seed, walk_index, i) for i in range(n_steps))
    return WalkState(steps=draws, settings=settings)


def apply_walk_points(walk: WalkState, pts: np.ndarray) -> np.ndarray:
    """Sequential application of all step flows to a batch of lifts."""
    state = np.asarray(pts, dtype=float)
    for h in walk.steps:
        state = flow_points(h, state, 0.0, 1.0, walk.settings)
    return state


def induced_point_walks(walks, p) -> np.ndarray:
    """Trajectories [p, step1(p), step2(step1(p)), ...] of the pair p under
    W walks of n steps, reduced mod 1: shape (W, n + 1, 2).  The flows start
    from p mod 1 and carry unreduced lifts.  The walks must have equal
    lengths and settings and draw their steps from one law; step j of every
    walk is one batched flow."""
    walks = list(walks)
    if not walks:
        raise ValueError("need at least one walk")
    first = walks[0]
    if any(w.steps_taken != first.steps_taken or w.settings != first.settings for w in walks):
        raise ValueError("batched walks need equal lengths and settings")
    traj = np.empty((len(walks), first.steps_taken + 1, 2))
    traj[:, 0] = np.asarray(p, dtype=float) % 1.0
    state = traj[:, :1]
    for j in range(first.steps_taken):
        state = flow_points([w.steps[j] for w in walks], state, 0.0, 1.0, first.settings)
        traj[:, j + 1] = state[:, 0] % 1.0
    return traj


def walk_generating_hamiltonian(walk: WalkState, bump: BumpFunction):
    """One time-dependent Hamiltonian whose time-1 flow equals the walk map.

    Each step's constant coefficients are replaced by the bump combination
    that runs the steps in order within unit time; integrating the result
    needs steps scaled by the walk length, which the evaluator advertises
    via its stiffness.
    """
    if walk.steps_taken < 1:
        raise ValueError("need at least one step")
    return concatenate_autonomous(walk.steps, bump)

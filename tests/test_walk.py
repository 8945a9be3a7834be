"""Tests for random walks of autonomous diffeomorphisms."""

import numpy as np
import pytest

from hamflow.errors import NotAutonomous
from hamflow.field import make_law, sample_hamiltonian
from hamflow.flow import FlowSettings, flow_points
from hamflow.temporal import CONSTANT, PERIODIC
from hamflow.walk import induced_point_walks, sample_walk
from reference import (BumpFunction, apply_walk, concatenate_autonomous, flow_concatenation,
                       torus_distance)


def walk_law(r=0.1, smax=3):
    return make_law(r, spatial_max=smax, kernel=CONSTANT)


def displacements(a, b):
    """Row-wise flat torus distances between point arrays (n, 2)."""
    d = (a - b + 0.5) % 1.0 - 0.5
    return np.hypot(d[:, 0], d[:, 1])


class TestSampling:
    def test_requires_autonomous_kernel(self):
        law = make_law(0.1, spatial_max=2, kernel=PERIODIC)
        with pytest.raises(NotAutonomous):
            sample_walk(law, 0, 3)

    def test_zero_step_walk_is_identity(self):
        walk = sample_walk(walk_law(), 0, 0)
        p = np.array([[0.2, 0.9]])
        assert walk == ()
        assert np.array_equal(apply_walk(walk, p), p)
        assert np.array_equal(induced_point_walks([walk], p[0]), p[None])

    def test_equal_seeds_identical_steps(self):
        w1 = sample_walk(walk_law(), 5, 4)
        w2 = sample_walk(walk_law(), 5, 4)
        assert type(w1) is tuple and len(w1) == 4
        for a, b in zip(w1, w2):
            assert np.array_equal(a.gaussians, b.gaussians)

    def test_walk_indices_decorrelate(self):
        w1 = sample_walk(walk_law(), 5, 2, walk_index=0)
        w2 = sample_walk(walk_law(), 5, 2, walk_index=1)
        assert w1[0].gaussians[0, 0] != w2[0].gaussians[0, 0]

    def test_single_step_law_matches_single_draw(self):
        # one-step walks displace like single autonomous draws
        stats = pytest.importorskip("scipy.stats")
        law = walk_law(r=0.15)
        p = np.array([0.31, 0.62])
        settings = FlowSettings(steps=100)
        n = 2000
        steps = [sample_hamiltonian(law, 9, i, 0) for i in range(n)]
        draws = [sample_hamiltonian(law, 1234, i) for i in range(n)]
        pts = np.broadcast_to(p, (n, 1, 2))
        walk_disp = displacements(flow_points(steps, pts, 0.0, 1.0, settings)[:, 0], p)
        draw_disp = displacements(flow_points(draws, pts, 0.0, 1.0, settings)[:, 0], p)
        assert stats.ks_2samp(walk_disp, draw_disp).pvalue > 0.01


class TestApplication:
    def test_trajectory_prefix_property(self):
        walk = sample_walk(walk_law(), 13, 4)
        p = (0.7, 0.1)
        (traj,) = induced_point_walks([walk], p)
        assert traj.shape == (5, 2)
        assert np.all((traj >= 0.0) & (traj < 1.0))
        assert torus_distance(traj[-1], apply_walk(walk, np.array([p]))[0]) < 1e-12

    def test_batched_trajectories_match_per_walk_loop(self):
        law = walk_law(r=0.3, smax=4)
        settings = FlowSettings(steps=12)
        walks = [sample_walk(law, 31, 3, walk_index=w) for w in range(5)]
        p = (0.45, 0.2)
        batched = induced_point_walks(walks, p, settings)
        assert batched.shape == (5, 4, 2)
        for walk, traj in zip(walks, batched):
            state = np.array([p])
            expected = [state[0]]
            for h in walk:
                state = flow_points(h, state, 0.0, 1.0, settings)
                expected.append(state[0] % 1.0)
            assert max(torus_distance(a, b) for a, b in zip(traj, expected)) <= 1e-12

    def test_batched_walks_need_equal_lengths(self):
        law = walk_law()
        with pytest.raises(ValueError):
            induced_point_walks([sample_walk(law, 37, 2), sample_walk(law, 37, 3)], (0.0, 0.0))
        with pytest.raises(ValueError):
            induced_point_walks([], (0.0, 0.0))

    def test_increment_displacements_identically_distributed(self):
        # step j of every walk flows in one batch
        stats = pytest.importorskip("scipy.stats")
        law = walk_law(r=0.2, smax=2)
        settings = FlowSettings(steps=100)
        n = 2000
        walks = [sample_walk(law, 19, 3, walk_index=w) for w in range(n)]
        traj = [np.full((n, 1, 2), 0.5)]
        for j in range(3):
            traj.append(flow_points([walk[j] for walk in walks], traj[-1],
                                    0.0, 1.0, settings))
        first = displacements(traj[1][:, 0], traj[0][:, 0])
        last = displacements(traj[3][:, 0], traj[2][:, 0])
        assert stats.ks_2samp(first, last).pvalue > 0.01


class TestGeneratingHamiltonian:
    def test_needs_at_least_one_step(self):
        with pytest.raises(ValueError):
            concatenate_autonomous(sample_walk(walk_law(), 0, 0), BumpFunction())

    @pytest.mark.parametrize("n_steps,tol", [(1, 1e-5), (3, 1e-4)])
    def test_time_one_flow_matches_walk(self, n_steps, tol):
        settings = FlowSettings(steps=200)
        walk = sample_walk(walk_law(r=0.12), 23, n_steps)
        combined = concatenate_autonomous(walk, BumpFunction())
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        lhs = flow_concatenation(combined, pts, 0.0, 1.0, settings)
        rhs = apply_walk(walk, pts, settings)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < tol

    def test_coefficient_path_time_symmetric_in_law(self):
        # combined coefficient paths at t and 1-t are equal in law for iid steps
        stats = pytest.importorskip("scipy.stats")
        law = walk_law(r=0.3, smax=1)
        bump = BumpFunction()
        n = 2000
        at_02 = np.empty(n)
        at_08 = np.empty(n)
        for w in range(n):
            walk = sample_walk(law, 29, 3, walk_index=w)
            combined = concatenate_autonomous(walk, bump)
            coeffs = combined.time_basis(np.array([0.2, 0.8])) @ combined.coefficients
            at_02[w] = coeffs[0, 0]
            at_08[w] = coeffs[1, 0]
        assert stats.ks_2samp(at_02, at_08).pvalue > 0.01

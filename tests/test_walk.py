"""Tests for random walks of autonomous diffeomorphisms: the walk chunk
(``experiments._walk_chunk``) against oracle walks built from the same
draws, walk w's step j from stream (seed, w, j)."""

import math

import numpy as np
import pytest

from hamflow.config import ExperimentConfig
from hamflow.experiments import _walk_chunk, flow_steps, law_for, walk_samples
from hamflow.field import PackedBatch, RandomHamiltonian, sample_hamiltonian
from hamflow.flow import flow_points
from reference import (BumpFunction, apply_walk, concatenate_autonomous, flow_concatenation,
                       flow_one, torus_distance)


def walk_run(r=0.1, smax=3, **kwargs):
    """A random-walk config at eigenvalue regularity r (4 pi^2 r in the
    config's frequency units) and its law."""
    cfg = ExperimentConfig(command="random-walk", regularity=4 * math.pi**2 * r,
                           spatial_max=smax, kernel="constant", workers=1, **kwargs)
    return cfg, law_for(cfg)


def walk(law, seed, n, w=0):
    """Walk w's n steps, in application order."""
    return tuple(sample_hamiltonian(law, seed, w, j) for j in range(n))


def trajectories(cfg, law, walks):
    """The chunk's trajectories of ``walks``, shape (W, walk_steps + 1, 2)."""
    records = _walk_chunk(cfg, law, walks)
    assert [record["walk"] for record in records] == list(walks)
    return np.array([record["trajectory"] for record in records])


def displacements(a, b):
    """Row-wise flat torus distances between point arrays (n, 2)."""
    d = (a - b + 0.5) % 1.0 - 0.5
    return np.hypot(d[:, 0], d[:, 1])


class TestSampling:
    def test_zero_step_walk_is_identity(self):
        cfg, law = walk_run(walk_steps=0, probe=(1.2, -0.1))
        p = np.array([cfg.probe])
        assert walk(law, 0, 0) == ()
        assert np.array_equal(apply_walk((), p, 200), p)
        assert np.array_equal(trajectories(cfg, law, range(2)), np.broadcast_to(p % 1.0, (2, 1, 2)))

    def test_equal_seeds_identical_steps(self):
        cfg, law = walk_run(seed=5, walk_steps=4)
        for a, b in zip(walk(law, 5, 4), walk(law, 5, 4)):
            assert np.array_equal(a.gaussians, b.gaussians)
        assert np.array_equal(trajectories(cfg, law, range(3)), trajectories(cfg, law, range(3)))

    def test_walk_indices_decorrelate(self):
        cfg, law = walk_run(seed=5, walk_steps=2)
        assert walk(law, 5, 2, w=0)[0].gaussians[0, 0] != walk(law, 5, 2, w=1)[0].gaussians[0, 0]
        first, second = trajectories(cfg, law, range(2))
        assert np.array_equal(first[0], second[0]) and not np.array_equal(first[1], second[1])

    def test_single_step_law_matches_single_draw(self):
        # one-step walks displace like single autonomous draws
        stats = pytest.importorskip("scipy.stats")
        p = np.array([0.31, 0.62])
        cfg, law = walk_run(r=0.15, seed=9, walk_steps=1, probe=tuple(p), steps=100)
        n = 2000
        walk_disp = displacements(trajectories(cfg, law, range(n))[:, 1], p)
        draws = PackedBatch((sample_hamiltonian(law, 1234, i) for i in range(n)), n)
        pts = np.broadcast_to(p, (n, 1, 2))
        images = flow_points(draws, pts, 0.0, 1.0, flow_steps(law, cfg.steps))
        draw_disp = displacements(images[:, 0], p)
        assert stats.ks_2samp(walk_disp, draw_disp).pvalue > 0.01


class TestApplication:
    def test_trajectory_prefix_property(self):
        # row k of a trajectory is the walk's first k steps applied to the probe
        cfg, law = walk_run(seed=13, walk_steps=4, probe=(0.7, 0.1))
        (traj,) = trajectories(cfg, law, range(1))
        assert traj.shape == (5, 2)
        assert np.all((traj >= 0.0) & (traj < 1.0))
        steps = walk(law, 13, 4)
        p = np.array([cfg.probe])
        count = flow_steps(law, cfg.steps)
        for k in range(5):
            assert torus_distance(traj[k], apply_walk(steps[:k], p, count)[0]) < 1e-12

    def test_batched_trajectories_match_per_walk_loop(self):
        # the chunk flows step j of every walk in one batch
        cfg, law = walk_run(r=0.3, smax=4, seed=31, walk_steps=3, probe=(0.45, 0.2), steps=12)
        steps = flow_steps(law, cfg.steps)
        batched = trajectories(cfg, law, range(5))
        assert batched.shape == (5, 4, 2)
        for w, traj in enumerate(batched):
            state = np.array([cfg.probe])
            expected = [state[0]]
            for h in walk(law, 31, 3, w):
                state = flow_one(h, state, 0.0, 1.0, steps)
                expected.append(state[0] % 1.0)
            assert max(torus_distance(a, b) for a, b in zip(traj, expected)) <= 1e-12

    def test_increment_displacements_identically_distributed(self):
        # step j of every walk flows in one batch
        stats = pytest.importorskip("scipy.stats")
        cfg, law = walk_run(r=0.2, smax=2, seed=19, walk_steps=3, probe=(0.5, 0.5), steps=100)
        traj = trajectories(cfg, law, range(2000))
        first = displacements(traj[:, 1], traj[:, 0])
        last = displacements(traj[:, 3], traj[:, 2])
        assert stats.ks_2samp(first, last).pvalue > 0.01


class TestGeneratingHamiltonian:
    def test_needs_at_least_one_step(self):
        _, law = walk_run()
        with pytest.raises(ValueError):
            concatenate_autonomous(walk(law, 0, 0), BumpFunction())

    @pytest.mark.parametrize("n_steps,tol", [(1, 1e-5), (3, 1e-4)])
    def test_time_one_flow_matches_walk(self, n_steps, tol):
        # the concatenation has no law: it flows at steps x parts, the walk
        # at the law's count
        cfg, law = walk_run(r=0.12, seed=23, walk_steps=n_steps)
        combined = PackedBatch([concatenate_autonomous(walk(law, 23, n_steps), BumpFunction())])
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        lhs = flow_concatenation(combined, pts[None], 0.0, 1.0, cfg.steps)[0]
        rhs = apply_walk(walk(law, 23, n_steps), pts, flow_steps(law, cfg.steps))
        assert displacements(lhs, rhs).max() < tol
        probe = flow_concatenation(combined, np.array([[cfg.probe]]), 0.0, 1.0, cfg.steps)[0, 0]
        assert torus_distance(probe, trajectories(cfg, law, range(1))[0, -1]) < tol

    def test_coefficient_path_time_symmetric_in_law(self):
        # combined coefficient paths at t and 1-t are equal in law for iid steps
        stats = pytest.importorskip("scipy.stats")
        _, law = walk_run(r=0.3, smax=1)
        bump = BumpFunction()
        n = 2000
        at_02 = np.empty(n)
        at_08 = np.empty(n)
        for w in range(n):
            combined = concatenate_autonomous(walk(law, 29, 3, w), bump)
            coeffs = combined.time_basis(np.array([0.2, 0.8])) @ combined.coefficients
            at_02[w] = coeffs[0, 0]
            at_08[w] = coeffs[1, 0]
        assert stats.ks_2samp(at_02, at_08).pvalue > 0.01


class TestIncrements:
    """ROADMAP item 27(a): at the walk defaults (r = 3.95, constant kernel,
    spatial_max 25), a walk's increments are i.i.d., and one small step
    moves the origin with the covariance that the law's weights give.  The
    law is invariant under translations and step j is drawn afresh from
    stream (seed, w, j), so each increment is independent of the walk's
    past, whatever point it starts from.  Seed 27 was fixed before any
    result was seen; every bound is in standard errors of the sample."""

    WALKS, STEPS, DRAWS, SEED = 2000, 6, 4000, 27

    def test_increments_are_independent_and_identically_distributed(self):
        cfg = ExperimentConfig(command="random-walk", kernel="constant", samples=self.WALKS,
                               walk_steps=self.STEPS, seed=self.SEED, workers=1)
        traj = np.array([record["trajectory"] for record in walk_samples(cfg)])
        # each step's increment lifted to its nearest image: (walks, steps, axis)
        d = (np.diff(traj, axis=1) + 0.5) % 1.0 - 0.5
        d -= d.mean(axis=0)
        n = len(d)
        # equal per-step variances: each step's against the mean of all six
        variance = np.mean(d**2, axis=0)
        se = np.std(d**2, axis=0) / math.sqrt(n)
        assert np.all(np.abs(variance - variance.mean(axis=0)) <= 4 * se)
        # no lag-1 correlation, per axis and pair of consecutive steps
        lag1 = np.mean(d[:, 1:] * d[:, :-1], axis=0) / np.sqrt(variance[1:] * variance[:-1])
        assert np.all(np.abs(lag1) <= 4 / math.sqrt(n))
        # the variance of the lifted sum of k increments is k times one step's
        squares = np.cumsum(d, axis=1) ** 2
        k = np.arange(1, self.STEPS + 1)[:, None]
        assert np.all(np.abs(squares.mean(axis=0) - k * variance.mean(axis=0))
                      <= 4 * squares.std(axis=0) / math.sqrt(n))

    @pytest.mark.parametrize("eps", [0.25, 0.125])
    def test_small_step_covariance_is_the_closed_form(self, eps):
        # phi_{eps H}(0) = eps X(0) + O(eps^2), X = (-dH/dy, dH/dx): each
        # axis of X(0) sums the w_n^2 a_n^2 (2 pi k)^2 of the quarter of the
        # modes (cs for x, sc for y) whose derivative is nonzero there
        cfg = ExperimentConfig(command="random-walk", kernel="constant", seed=self.SEED)
        law = law_for(cfg)
        basis = law.basis()
        sigma2 = 0.25 * np.sum(law.weights()**2 * basis.amplitudes**2
                               * (2 * math.pi * basis.ky)**2)
        assert sigma2 == pytest.approx(0.05855, abs=5e-6)
        draws = PackedBatch((RandomHamiltonian(law, eps * sample_hamiltonian(law, self.SEED, i)
                                               .gaussians) for i in range(self.DRAWS)),
                            self.DRAWS)
        steps = max(20, flow_steps(law, cfg.steps))
        x = flow_points(draws, np.zeros((self.DRAWS, 1, 2)), 0.0, 1.0, steps)[:, 0] / eps
        x -= x.mean(axis=0)
        products = np.stack([x[:, 0]**2, x[:, 1]**2, x[:, 0] * x[:, 1]])
        want = np.array([sigma2, sigma2, 0.0])
        se = products.std(axis=1) / math.sqrt(self.DRAWS)
        assert np.all(np.abs(products.mean(axis=1) - want) <= 3 * se)

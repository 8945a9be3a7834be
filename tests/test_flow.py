"""Tests for flow integration, group operations, curves, and refinement."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hamflow import flow
from hamflow.engine import SpectralEngine
from hamflow.errors import OutOfRange, RefinementOverflow
from hamflow.field import (OscillationBuffers, PackedBatch, RandomHamiltonian,
                           SpectralHamiltonian, make_law, sample_hamiltonian)
from hamflow.flow import (LagrangianCurve, _step, _step_work, advect_curve,
                          advect_curves, flow_points, flow_points_through, horizontal_circle,
                          time_reversed_hamiltonian)
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP, TimeBasis, time_basis
from reference import (BumpFunction, BumpTimeBasis, Mode, circle_curve,
                       concatenate_autonomous, concatenation_coefficients,
                       flow_concatenation, flow_jacobian_determinant, flow_one, full_coefficients,
                       full_draw, mode_index, reversal_coefficients, sloped_circle, symmetry_map,
                       torus_distance, translated, translation_map, value, vector_field)

# The analytic references: draws over the smallest basis with axis modes,
# each of one mode or none, autonomous or with a periodic coefficient path.
ONE_MODE_LAW = make_law(0.1, spatial_max=1, kernel=CONSTANT, include_axis_modes=True)
ONE_MODE_PATH_LAW = make_law(0.1, spatial_max=1, kernel=PERIODIC, temporal_max=2,
                             include_axis_modes=True)


def one_mode_draw(mode=None, c=1 / (2 * np.pi), law=ONE_MODE_LAW, path=(1.0,)):
    """The draw c * e(x) / amplitude of ``mode``, its normals ``path`` (one per
    time-basis column of ``law``); the zero field without a mode."""
    basis = law.basis()
    gaussians = np.zeros((len(basis), len(path)))
    if mode is not None:
        n = mode_index(basis, mode)
        gaussians[n] = c * np.asarray(path) / (mode.amplitude * law.weights()[n])
    return RandomHamiltonian(law, gaussians)


def zero_field():
    return one_mode_draw()


def shear_y(c=1 / (2 * np.pi)):
    """H = c sin(2 pi y) with flow (x, y) -> (x - 2 pi c t cos(2 pi y), y)."""
    return one_mode_draw(Mode(0, 1, "cs"), c)


def shear_x():
    """H = sin(2 pi x) / 2 pi with flow (x, y) -> (x, y + t cos(2 pi x))."""
    return one_mode_draw(Mode(1, 0, "sc"))


def image(h, p, t0=0.0, t1=1.0):
    """The lift of the point p, a pair, under the flow of h from t0 to t1, at
    200 steps per unit time."""
    return flow_one(h, [p], t0, t1, 200)[0]


def small_draw(seed, kernel=PERIODIC, r=0.15, smax=3, tm=3):
    law = make_law(r, spatial_max=smax, temporal_max=tm, kernel=kernel, seed=seed)
    return sample_hamiltonian(law, seed)


class TestPointIntegration:
    def test_zero_field_is_identity(self):
        x, y = image(zero_field(), (0.3, 0.4)) % 1.0
        assert x == pytest.approx(0.3) and y == pytest.approx(0.4)

    def test_shear_closed_form(self):
        x, y = image(shear_y(), (0.3, 1 / 6)) % 1.0
        assert x == pytest.approx(0.8, abs=1e-10)
        assert y == pytest.approx(1 / 6, abs=1e-12)

    def test_forward_backward_round_trip(self):
        h = small_draw(41)
        pts = np.random.default_rng(0).uniform(0, 1, (10, 2))
        steps = 200
        fwd = flow_one(h, pts, 0.0, 1.0, steps)
        back = flow_one(h, fwd, 1.0, 0.0, steps)
        assert np.abs(back - pts).max() < 1e-8

    def test_backward_shear(self):
        x, _ = image(shear_y(), (0.8, 1 / 6), 1.0, 0.0) % 1.0
        assert x == pytest.approx(0.3, abs=1e-10)

    def test_inverse_round_trip(self):
        h = small_draw(43)
        p = (0.25, 0.65)
        back = image(h, p, 1.0, 0.0) % 1.0
        again = image(h, back)
        assert torus_distance(again, p) < 1e-8

    def test_convergence_is_sixth_order(self):
        # H = c(t) sin(2 pi x) sin(2 pi y) keeps sin(2 pi x) sin(2 pi y) along
        # its flow, whatever c(t): a closed form for the error of each count,
        # autonomous and with a periodic path
        pts = np.random.default_rng(5).uniform(0, 1, (32, 2))

        def invariant(p):
            return np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])

        for law, path in ((ONE_MODE_LAW, (1.0,)),
                          (ONE_MODE_PATH_LAW, (1.0, 0.8, -0.5, 0.6, 0.3))):
            h = one_mode_draw(Mode(1, 1, "ss"), law=law, path=path)
            err = {steps: np.abs(invariant(flow_one(h, pts, 0.0, 1.0, steps))
                                 - invariant(pts)).max()
                   for steps in (16, 32, 64)}
            assert err[64] > 1e-12  # above rounding, so the ratios measure the order
            assert err[16] / err[32] >= 2**5.5 and err[32] / err[64] >= 2**5.5, err

    def test_times_outside_the_unit_interval_are_rejected(self):
        h = small_draw(47)
        pts = np.random.default_rng(2).uniform(0, 1, (4, 2))
        for t0, t1 in ((0.0, 2.0), (-0.5, 0.0), (1.0, 1.0 + 1e-9), (1.5, 1.5)):
            with pytest.raises(OutOfRange):
                flow_one(h, pts, t0, t1, 200)
            with pytest.raises(OutOfRange):
                flow_points(PackedBatch([h, h]), np.stack([pts, pts]), t0, t1, 200)
        with pytest.raises(OutOfRange):
            flow_points_through(PackedBatch([h]), pts[None], (0.5, 1.5), 200)
        # 1 -> 0 is a reversed flow, and a time within 1e-12 of [0, 1] is
        # its end, rounded
        back = flow_one(h, flow_one(h, pts, 0.0, 1.0 + 1e-13, 200), 1.0, -1e-13, 200)
        assert np.abs(back - pts).max() < 1e-8

    def test_lift_returned_unreduced(self):
        lift = image(shear_y(3.0 / (2 * np.pi)), (0.3, 0.0))
        assert lift[0] == pytest.approx(0.3 - 3.0, abs=1e-9)
        assert lift[0] % 1.0 == pytest.approx(0.3, abs=1e-9)


class TestEnergyAndArea:
    def test_energy_conservation_autonomous(self):
        h = small_draw(53, kernel=CONSTANT, r=0.05, smax=4)
        pts = np.random.default_rng(1).uniform(0, 1, (100, 2))
        steps = 1000
        base = value(h, 0.0, pts)
        for t in (0.25, 0.5, 1.0):
            out = flow_one(h, pts, 0.0, t, steps)
            assert np.abs(value(h, 0.0, out) - base).max() < 1e-6

    def test_jacobian_zero_field(self):
        assert flow_jacobian_determinant(zero_field(), (0.4, 0.3), 1.0, 200) == 1.0

    def test_jacobian_shear_exact(self):
        det = flow_jacobian_determinant(shear_y(), (0.3, 0.22), 1.0, 400, fd_step=1e-5)
        assert det == pytest.approx(1.0, abs=1e-9)

    def test_jacobian_random_draw(self):
        h = small_draw(59, r=0.1, smax=5)
        det = flow_jacobian_determinant(h, (0.37, 0.72), 1.0, 1000, fd_step=1e-5)
        assert det == pytest.approx(1.0, abs=1e-5)


class TestTimeReversal:
    def test_zero_field(self):
        hat = time_reversed_hamiltonian(zero_field())
        assert np.abs(value(hat, 0.3, np.array([[0.1, 0.2]]))).max() == 0.0

    def test_involution_pointwise(self):
        h = small_draw(89)
        double = time_reversed_hamiltonian(time_reversed_hamiltonian(h))
        pts = np.random.default_rng(8).uniform(0, 1, (10, 2))
        for t in (0.0, 0.37, 1.0):
            assert np.abs(value(double, t, pts) - value(h, t, pts)).max() < 1e-15

    def test_flow_inverts_time_one_map(self):
        h = small_draw(97)
        hat = time_reversed_hamiltonian(h)
        steps = 200
        pts = np.random.default_rng(9).uniform(0, 1, (20, 2))
        lhs = flow_one(hat, pts, 0.0, 1.0, steps)
        rhs = flow_one(h, pts, 1.0, 0.0, steps)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < 1e-6

    def test_keeps_spectral_fast_path(self):
        h = small_draw(101)
        hat = time_reversed_hamiltonian(h)
        assert isinstance(hat, SpectralHamiltonian)

    @pytest.mark.parametrize("basis", [TimeBasis(10), TimeBasis(0),
                                       time_basis(SQEXP, 0.1, 10),
                                       BumpTimeBasis(BumpFunction(), 1),
                                       BumpTimeBasis(BumpFunction(), 3)],
                             ids=["periodic", "constant", "sqexp", "bump-1", "bump-3"])
    def test_time_basis_reflection(self, basis):
        """Phi(1 - t) = Phi(t) @ R on 101 times, to 1e-15 per unit of Phi's
        largest slope: evaluating Phi at the rounded 1 - t alone errs by that
        much (1.5e-14 for the periodic basis of 10 frequencies).  The sqexp
        basis (r = 0.1: 14 frequencies, period 20.2, center 1/2) reflects
        like the periodic one."""
        t = np.linspace(0.0, 1.0, 101)
        fine = np.linspace(0.0, 1.0, 20001)
        slope = np.abs(np.diff(basis(fine), axis=0)).max() / fine[1]
        reflected = basis.reflect(basis(t).T).T
        assert np.abs(basis(1.0 - t) - reflected).max() <= 1e-15 * (1.0 + slope)

    @pytest.mark.parametrize("kind", [PERIODIC, CONSTANT, SQEXP, "concatenation"])
    def test_double_reversal_returns_coefficients_bit_for_bit(self, kind):
        h = TestBatchedFlow.hamiltonians(kind, 1)[0]
        double = time_reversed_hamiltonian(time_reversed_hamiltonian(h))
        assert type(double) is SpectralHamiltonian
        assert not double.coefficients.flags.writeable
        assert double.time_basis == h.time_basis
        assert double.coefficients.tobytes() == h.coefficients.tobytes()

    @pytest.mark.parametrize("kind", [PERIODIC, CONSTANT, SQEXP, "concatenation"])
    def test_reversal_keeps_the_time_basis(self, kind):
        h = TestBatchedFlow.hamiltonians(kind, 1)[0]
        hat = time_reversed_hamiltonian(h)
        assert hat.time_basis == h.time_basis
        pts = np.random.default_rng(15).uniform(0, 1, (8, 2))
        for t in (0.0, 0.13, 0.5, 0.77, 1.0):
            want = -value(h, 1.0 - t, pts)
            assert np.abs(value(hat, t, pts) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestTranslation:
    """The group's action by a translation tau: the law's weights depend on
    |k|^2 alone and each mode's (cos, sin) products carry equal weights, so
    H o tau^-1 is again a draw of the law, from orthogonally mapped normals,
    and its flow is tau o phi_H o tau^-1."""

    SHIFT = np.array([0.3141, 0.7183])

    @staticmethod
    def draw(kernel, axis):
        # regularity 3 in frequency units
        law = make_law(3.0 / (4 * math.pi**2), spatial_max=8, kernel=kernel,
                       include_axis_modes=axis)
        return full_draw(law, 12, 0, 0)

    @pytest.mark.parametrize("axis", [False, True])
    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_normals_map_is_orthogonal(self, kernel, axis):
        h = self.draw(kernel, axis)
        basis = h.law.basis()
        t = translation_map(basis, np.arange(len(basis)), self.SHIFT)
        assert np.abs(t @ t.T - np.eye(len(basis))).max() <= 1e-14
        # translating the draw is drawing from the normals T^T Z, which are
        # again independent standard normals
        redrawn = RandomHamiltonian(h.law, t.T @ h.gaussians)
        moved = translated(h, self.SHIFT)
        assert (np.abs(redrawn.coefficients - moved.coefficients).max()
                <= 1e-14 * np.abs(h.coefficients).max())

    @pytest.mark.parametrize("axis", [False, True])
    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_flow_is_conjugated(self, kernel, axis):
        h = self.draw(kernel, axis)
        moved = translated(h, self.SHIFT)
        pts = np.random.default_rng(3).uniform(0, 1, (16, 2))
        for t in (0.0, 0.4, 1.0):
            want = value(h, t, pts - self.SHIFT)
            assert np.abs(value(moved, t, pts) - want).max() <= 1e-13 * np.abs(want).max()
        steps = 58
        image = flow_one(moved, pts, 0.0, 1.0, steps)
        assert np.abs(image - pts).max() > 0.01
        want = flow_one(h, pts - self.SHIFT, 0.0, 1.0, steps) + self.SHIFT
        assert np.abs(image - want).max() <= 1e-12


class TestQuarterTurnAndReflection:
    """The quarter turn rho(x, y) = (y, -x) and the reflection
    sigma(x, y) = (x, -y): the law's weights depend on |k|^2 alone and a
    mode's amplitude on which wavenumbers are zero, so H o rho and -H o sigma
    are again draws of the law, from signed permutations of its normals.  rho
    keeps the symplectic form and sigma negates it, so the flow of H o rho is
    rho^-1 o phi_H o rho and that of -H o sigma is sigma o phi_H o sigma."""

    # (the point map, its inverse) of each
    MAPS = {True: (lambda p: np.stack([p[:, 1], -p[:, 0]], axis=-1),
                   lambda p: np.stack([-p[:, 1], p[:, 0]], axis=-1)),
            False: (lambda p: p * [1.0, -1.0], lambda p: p * [1.0, -1.0])}

    @staticmethod
    def mapped(h, turn):
        index, sign = symmetry_map(h.basis, np.arange(len(h.basis)), turn)
        return RandomHamiltonian(h.law, sign[:, None] * h.gaussians[index])

    @pytest.mark.parametrize("turn", [True, False], ids=["quarter-turn", "reflection"])
    @pytest.mark.parametrize("axis", [False, True])
    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_coefficients_are_mapped_bit_for_bit(self, kernel, axis, turn):
        h = TestTranslation.draw(kernel, axis)
        index, sign = symmetry_map(h.basis, h.engine.modes, turn)
        want = h.coefficients[:, index] * sign
        assert self.mapped(h, turn).coefficients.tobytes() == want.tobytes()

    @pytest.mark.parametrize("turn", [True, False], ids=["quarter-turn", "reflection"])
    @pytest.mark.parametrize("axis", [False, True])
    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_flow_is_conjugated(self, kernel, axis, turn):
        h = TestTranslation.draw(kernel, axis)
        moved = self.mapped(h, turn)
        forward, inverse = self.MAPS[turn]
        pts = np.random.default_rng(4).uniform(0, 1, (64, 2))
        for t in (0.0, 0.4, 1.0):
            want = (1.0 if turn else -1.0) * value(h, t, forward(pts))
            assert np.abs(value(moved, t, pts) - want).max() <= 1e-13 * np.abs(want).max()
        steps = 58
        image = flow_one(moved, pts, 0.0, 1.0, steps)
        assert np.abs(image - pts).max() > 0.01
        want = inverse(flow_one(h, forward(pts), 0.0, 1.0, steps))
        assert np.abs((image - want + 0.5) % 1.0 - 0.5).max() <= 1e-11


class TestBumpFunction:
    def test_support(self):
        bump = BumpFunction(delta=0.05)
        assert bump(0.05) == 0.0 and bump(0.95) == 0.0 and bump(0.0) == 0.0
        assert bump(0.5) > 0.0

    def test_symmetry_about_half(self):
        bump = BumpFunction()
        for s in np.linspace(0, 0.49, 23):
            assert bump(0.5 + s) == pytest.approx(bump(0.5 - s), abs=1e-12)

    def test_unit_mass_independent_quadrature(self):
        bump = BumpFunction()
        ts = np.linspace(0.0, 1.0, 100_001)
        assert np.trapezoid(bump(ts), ts) == pytest.approx(1.0, abs=1e-10)


class TestConcatenation:
    steps = 200

    def test_rejects_time_dependent(self):
        with pytest.raises(ValueError, match="must be autonomous"):
            concatenate_autonomous([small_draw(103)], BumpFunction())

    def test_single_part_reparametrizes(self):
        h = small_draw(107, kernel=CONSTANT)
        concat = concatenate_autonomous([h], BumpFunction())
        pts = np.random.default_rng(10).uniform(0, 1, (10, 2))
        lhs = flow_concatenation(PackedBatch([concat]), pts[None], 0.0, 1.0, self.steps)[0]
        rhs = flow_one(h, pts, 0.0, 1.0, self.steps)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < 1e-6

    def test_two_shears_sequential(self):
        concat = concatenate_autonomous([shear_x(), shear_y()], BumpFunction())
        assert isinstance(concat, SpectralHamiltonian)
        pts = np.random.default_rng(11).uniform(0, 1, (20, 2))
        lhs = flow_concatenation(PackedBatch([concat]), pts[None], 0.0, 1.0, self.steps)[0]
        rhs = flow_one(shear_y(), flow_one(shear_x(), pts, 0.0, 1.0, self.steps),
                       0.0, 1.0, self.steps)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < 1e-5

    def test_all_zero_parts_identity(self):
        concat = concatenate_autonomous([zero_field(), zero_field()], BumpFunction())
        pts = np.random.default_rng(12).uniform(0, 1, (5, 2))
        out = flow_concatenation(PackedBatch([concat]), pts[None], 0.0, 1.0, self.steps)[0]
        assert np.abs(out - pts).max() < 1e-12

    def test_rejects_parts_over_two_truncations(self):
        parts = [small_draw(113, kernel=CONSTANT, smax=2), small_draw(113, kernel=CONSTANT, smax=3)]
        with pytest.raises(ValueError, match="over one basis"):
            concatenate_autonomous(parts, BumpFunction())

    def test_spectral_parts_use_fast_path(self):
        parts = [small_draw(109 + i, kernel=CONSTANT, smax=2) for i in range(3)]
        concat = concatenate_autonomous(parts, BumpFunction())
        assert type(concat) is SpectralHamiltonian
        assert not concat.coefficients.flags.writeable
        pts = np.random.default_rng(13).uniform(0, 1, (20, 2))
        lhs = flow_concatenation(PackedBatch([concat]), pts[None], 0.0, 1.0, self.steps)[0]
        rhs = pts
        for part in parts:
            rhs = flow_one(part, rhs, 0.0, 1.0, self.steps)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < 1e-5


class TestBatchedFlow:
    steps = 12

    @staticmethod
    def hamiltonians(kind, count):
        if kind in (PERIODIC, CONSTANT, SQEXP):
            law = make_law(0.15, spatial_max=3, temporal_max=3, kernel=kind, seed=151)
            return [sample_hamiltonian(law, 151, i) for i in range(count)]
        if kind == "reversal":
            return [time_reversed_hamiltonian(h)
                    for h in TestBatchedFlow.hamiltonians(PERIODIC, count)]
        if kind == "draws and reversals":
            # one batch of draws of one law and reversals of other draws of it
            return [time_reversed_hamiltonian(h) if i % 2 else h
                    for i, h in enumerate(TestBatchedFlow.hamiltonians(PERIODIC, count))]
        parts = TestBatchedFlow.hamiltonians(CONSTANT, 2 * count)
        return [concatenate_autonomous(parts[2 * i:2 * i + 2], BumpFunction())
                for i in range(count)]

    @pytest.mark.parametrize("count", [1, 3, 17])
    @pytest.mark.parametrize("kind", [PERIODIC, CONSTANT, SQEXP, "reversal", "concatenation",
                                      "draws and reversals"])
    def test_matches_per_draw_flows(self, kind, count):
        hs = self.hamiltonians(kind, count)
        flow = flow_concatenation if kind == "concatenation" else flow_points
        pts = np.random.default_rng(count).uniform(0, 1, (count, 4, 2))
        for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
            batch = flow(PackedBatch(hs), pts, t0, t1, self.steps)
            single = np.stack([flow(PackedBatch([h]), p[None], t0, t1, self.steps)[0]
                               for h, p in zip(hs, pts)])
            assert batch.shape == pts.shape
            assert np.abs(batch - single).max() <= 1e-12

    def test_a_point_flows_alike_in_any_set_of_two_or_more(self):
        # each row of a product of two or more rows rounds alike; one point
        # takes numpy's matrix-vector path instead (hamflow.flow docstring)
        h = sample_hamiltonian(TestBuffers.LAW, 6)
        pts = np.random.default_rng(6).uniform(0, 1, (64, 2))
        steps = 12
        whole = flow_one(h, pts, 0.0, 1.0, steps)
        for count in range(2, 65):
            assert np.array_equal(flow_one(h, pts[:count], 0.0, 1.0, steps), whole[:count])

    def test_rejects_mixed_time_bases(self):
        # and draws of one time basis over two engines: periodic draws at
        # r = 3.5 and 3.95 (frequency units) share their temporal band, 4, but
        # not their spatial band, 5 against 4
        laws = [make_law(r / (4 * math.pi**2)) for r in (3.5, 3.95)]
        assert laws[0].time_basis() == laws[1].time_basis()
        assert laws[0].engine() is not laws[1].engine()
        for hs in (self.hamiltonians(PERIODIC, 1) + self.hamiltonians(CONSTANT, 1),
                   [sample_hamiltonian(law, 3) for law in laws]):
            with pytest.raises(ValueError, match="one engine and one time basis"):
                PackedBatch(hs)

    def test_flows_take_a_packed_batch_only(self):
        hs = self.hamiltonians(PERIODIC, 2)
        pts = np.zeros((2, 3, 2))
        for fieldlike, points in ((hs[0], pts[0]), (hs, pts), (tuple(hs), pts)):
            with pytest.raises(TypeError, match="PackedBatch"):
                flow_points(fieldlike, points, 0.0, 1.0, 12)
            with pytest.raises(TypeError, match="PackedBatch"):
                flow_points_through(fieldlike, points, (0.5, 1.0), 12)
            with pytest.raises(TypeError, match="PackedBatch"):
                advect_curves(fieldlike, horizontal_circle(), 1.0, 12, 0.01)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError, match="need at least one Hamiltonian"):
            flow_points(PackedBatch(), np.empty((0, 1, 2)), 0.0, 1.0, 12)

    def test_advection_rejects_an_empty_batch(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need at least one Hamiltonian"):
                advect_curves(PackedBatch(), horizontal_circle(), 1.0, 12, 0.01)

    def test_rejects_points_without_draw_axis(self):
        with pytest.raises(ValueError):
            flow_points(PackedBatch(self.hamiltonians(PERIODIC, 3)), np.zeros((4, 2)), 0.0, 1.0,
                        12)

    def test_rejects_a_step_count_below_one(self):
        # without the check, ceil(0 * 1) - 1e-9 rounds up to one step
        batch = PackedBatch(self.hamiltonians(PERIODIC, 2))
        with pytest.raises(ValueError, match="steps must be >= 1"):
            flow_points(batch, np.zeros((2, 3, 2)), 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            flow_points_through(batch, np.zeros((2, 3, 2)), (0.5, 1.0), 0)

    @pytest.mark.parametrize("threshold", [0.0, 0.6])
    def test_advection_rejects_a_threshold_outside_its_range(self, threshold):
        hs = self.hamiltonians(PERIODIC, 2)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 0.5\]"):
            advect_curves(PackedBatch(hs), horizontal_circle(), 1.0, 12, threshold)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 0.5\]"):
            advect_curve(hs[0], horizontal_circle(), 1.0, 12, threshold)


class TestBand:
    """Banded engines against the full-band reference, through every spectral type."""

    steps = 20

    @staticmethod
    def draws(kernel, r, count=2, seed=181):
        law = make_law(r / (4 * math.pi**2), spatial_max=12, temporal_max=4,
                       kernel=kernel, seed=seed)
        return [full_draw(law, seed, i) for i in range(count)]

    @classmethod
    def hamiltonian(cls, kind):
        """(h, Phi, B of h over the whole basis in the time basis Phi): a
        draw's or a reversal's B is over the kernel's whole time basis."""
        if kind in (PERIODIC, CONSTANT, SQEXP):
            h = cls.draws(kind, 3)[0]
            return h, h.law.kernel_time_basis(), full_coefficients(h)
        if kind == "reversal":
            h = cls.draws(PERIODIC, 3)[0]
            return (time_reversed_hamiltonian(h), h.law.kernel_time_basis(),
                    reversal_coefficients(h))
        if kind == "concatenation":
            parts = cls.draws(CONSTANT, 3)
        else:  # parts of two regularities (bands 7 and 5) on one truncation
            parts = cls.draws(CONSTANT, 3, 1) + cls.draws(CONSTANT, 4.5, 1, 182)
        h = concatenate_autonomous(parts, BumpFunction())
        return h, h.time_basis, concatenation_coefficients(parts)

    @staticmethod
    def close(got, want, rel=1e-13):
        return np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("kind", [PERIODIC, CONSTANT, SQEXP, "reversal", "concatenation",
                                      "mixed concatenation"])
    def test_matches_full_band(self, kind):
        # the same path evaluated by the full-band engine (reference), from
        # its B over the whole basis
        h, phi, coefficients = self.hamiltonian(kind)
        basis = h.engine.basis
        ref = SpectralHamiltonian(SpectralEngine(basis, basis.spatial_max),
                                  phi, coefficients)
        assert h.engine.band < ref.engine.band
        flow = flow_concatenation if kind.endswith("concatenation") else flow_points
        pts = np.random.default_rng(5).uniform(0, 1, (16, 2))
        xs = np.arange(20) / 20
        for t in (0.0, 0.3, 0.5, 1.0):
            assert self.close(value(h, t, pts), value(ref, t, pts))
            assert self.close(vector_field(h, t, pts), vector_field(ref, t, pts))
            assert self.close(h.engine.value_grid(h.coefficient_grids(t), xs, xs),
                              ref.engine.value_grid(ref.coefficient_grids(t), xs, xs))
        for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
            assert self.close(flow(PackedBatch([h]), pts[None], t0, t1, self.steps),
                              flow(PackedBatch([ref]), pts[None], t0, t1, self.steps))

    def test_mixed_regularity_concatenation_stays_spectral(self):
        parts = self.draws(CONSTANT, 3, 1) + self.draws(CONSTANT, 4.5, 1, 182)
        assert parts[0].engine is not parts[1].engine
        concat = concatenate_autonomous(parts, BumpFunction())
        assert isinstance(concat, SpectralHamiltonian)
        assert concat.engine is parts[0].engine
        pts = np.random.default_rng(14).uniform(0, 1, (10, 2))
        steps = 200
        lhs = flow_concatenation(PackedBatch([concat]), pts[None], 0.0, 1.0, steps)[0]
        rhs = pts
        for part in parts:
            rhs = flow_one(part, rhs, 0.0, 1.0, steps)
        dist = np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1)
        assert dist.max() < 1e-5


class TestBracketFlow:
    """Bracket generation through the integrator (ROADMAP item 26(b)).

    F = cos 2 pi x cos 2 pi y and G = cos 2 pi x sin 2 pi y are default
    (non-axis) modes, and {F, G} = F_x G_y - F_y G_x = -2 pi^2 sin 4 pi x is
    an axis mode.  For a flow map, f o phi^s = exp(s X) f, so the commutator
    psi = phi_F^s o phi_G^s o phi_F^-s o phi_G^-s gives

        f o psi = exp(-s X_G) exp(-s X_F) exp(s X_G) exp(s X_F) f
                = f + s^2 [X_G, X_F] f + O(s^3)

    by Baker-Campbell-Hausdorff.  ``flow``'s field X_H = (-H_y, H_x) acts as
    X_H f = -{f, H}, and the Jacobi identity gives [X_G, X_F] = X_K with
    K = -{F, G} = 2 pi^2 sin 4 pi x, whose time-s^2 flow is the vertical
    shear y += 8 pi^3 s^2 cos 4 pi x.  Each Hamiltonian flows as a one-row
    batch of the constant kernel.
    """

    LAW = make_law(0.1, spatial_max=2, kernel=CONSTANT, include_axis_modes=True)

    def test_commutator_of_flows_approaches_the_bracket_flow(self):
        f, g = (PackedBatch([one_mode_draw(Mode(1, 1, trig), 1.0, self.LAW)])
                for trig in ("cc", "cs"))
        k = PackedBatch([one_mode_draw(Mode(2, 0, "sc"), 2 * math.pi**2, self.LAW)])
        p = np.random.default_rng(26).uniform(0, 1, (1, 64, 2))
        errors = []
        for s in (0.02, 0.01, 0.005):
            q = p
            # phi^-s is the flow from s back to 0; the right-most map goes first
            for batch, t0, t1 in ((g, s, 0.0), (f, s, 0.0), (g, 0.0, s), (f, 0.0, s)):
                q = flow_points(batch, q, t0, t1, 2000)
            lead = 8 * math.pi**3 * s**2
            bracket = flow_points(k, p, 0.0, s**2, 2000)
            shear = np.stack([p[..., 0], p[..., 1] + lead * np.cos(4 * math.pi * p[..., 0])], -1)
            np.testing.assert_allclose(bracket, shear, rtol=0, atol=1e-12)
            errors.append(np.abs(q - bracket).max())
        # the O(s^3) remainder: about 8 times smaller per halving of s, and
        # at s = 0.005 below half the s^2 term (the flow of -K is off by
        # twice that term, and shrinks about 4.6 times per halving)
        assert errors[0] > 6 * errors[1] > 36 * errors[2], errors
        assert errors[2] < 0.5 * lead, (errors, lead)


class TestCurves:
    def test_closure_invariant_enforced(self):
        verts = np.array([[0.0, 0.5], [0.5, 0.5], [0.9, 0.5]])
        with pytest.raises(ValueError):
            LagrangianCurve(verts, winding=(1, 0))

    def test_aliasing_guard(self):
        verts = np.array([[0.0, 0.0], [0.8, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            LagrangianCurve(verts, winding=(1, 0))

    def test_vertices_are_a_read_only_copy(self):
        verts = np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]])
        curve = LagrangianCurve(verts, winding=(1, 0))
        with pytest.raises(ValueError, match="read-only"):
            curve.vertices[-1] = [0.9, 0.5]
        verts[-1] = [0.9, 0.5]
        assert np.array_equal(curve.vertices, [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]])

    def test_factories(self):
        k = horizontal_circle(0.5, 64)
        assert k.winding == (1, 0) and len(k) == 65
        s = sloped_circle(1, 3)
        assert s.winding == (1, 3)
        c = circle_curve((0.5, 0.5), 0.1, 64)
        assert c.winding == (0, 0)

    def test_advect_zero_field_identity(self):
        # source spacing already below the refinement threshold: unchanged
        k = horizontal_circle(0.5, 128)
        out = advect_curve(zero_field(), k, 1.0, 200, 0.01)
        assert np.allclose(out.vertices, k.vertices)
        assert out.winding == (1, 0)

    def test_advect_shear_translates(self):
        # K sits at y = 0.5 where cos(2 pi y) = -1: uniform translation x -> x + t
        k = horizontal_circle(0.5, 128)
        out = advect_curve(shear_y(), k, 1.0, 200, 0.01)
        assert out.winding == (1, 0)
        assert np.allclose(out.vertices[:, 0], k.vertices[:, 0] + 1.0, atol=1e-9)
        assert np.allclose(out.vertices[:, 1], 0.5, atol=1e-12)

    def test_advected_gaps_below_threshold(self):
        h = small_draw(127, r=0.08, smax=4)
        out = advect_curve(h, horizontal_circle(0.5, 128), 1.0, 200, 0.01)
        gaps = np.linalg.norm(np.diff(out.vertices, axis=0), axis=1)
        assert gaps.max() <= 0.01 + 1e-12

    def test_area_preserved_for_small_circle(self):
        h = small_draw(131, r=0.2, smax=3)
        src = circle_curve((0.4, 0.6), 0.08, 256)
        out = advect_curve(h, src, 1.0, 400, 0.005)

        def shoelace(v):
            x, y = v[:, 0], v[:, 1]
            return 0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])

        assert shoelace(out.vertices) == pytest.approx(shoelace(src.vertices), rel=1e-4)

    def test_refinement_overflow_raised(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", 5)
        h = small_draw(137, r=0.05, smax=4)
        with pytest.raises(RefinementOverflow, match="past 5 vertices"):
            advect_curve(h, horizontal_circle(0.5, 4), 1.0, 200, 1e-4)


# Butcher's order-6 tableau: stage times c, stage rows A, weights b.
TABLEAU_C = (0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1)
TABLEAU_A = ((), (1 / 3,), (0, 2 / 3), (1 / 12, 1 / 3, -1 / 12), (-1 / 16, 9 / 8, -3 / 16, -3 / 8),
             (0, 9 / 8, -3 / 8, -3 / 4, 1 / 2), (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0, -16 / 11))
TABLEAU_B = (11 / 120, 0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120)


class TestBuffers:
    """A flow allocates its work arrays once; a step allocates no array."""

    # 4 draws x 512 points at the law's band (5), tables of wavenumbers
    # 1..band: one table or one product is 64 KiB per wavenumber, above
    # glibc's default mmap threshold of 128 KiB
    LAW = make_law(3.0 / (4 * math.pi**2), spatial_max=12, temporal_max=4)
    LIMIT = 16 * 1024
    OFFSETS = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])

    @classmethod
    def batch(cls):
        return PackedBatch([sample_hamiltonian(cls.LAW, 2, i) for i in range(4)])

    def test_step_allocates_no_arrays(self):
        batch = self.batch()
        engine = batch.engine
        p = np.random.default_rng(0).uniform(0, 1, (4, 512, 2))
        assert engine.buffers(p.shape).powers.nbytes == engine.band * 64 * 1024 > 128 * 1024
        work = _step_work(engine, p.shape, 0.1)
        grids = batch.field_grids(batch.time_basis(0.1 * self.OFFSETS))
        _step(engine, grids, p, work)
        tracemalloc.start()
        try:
            for _ in range(3):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                _step(engine, grids, p, work)
                assert tracemalloc.get_traced_memory()[1] - before < self.LIMIT
        finally:
            tracemalloc.stop()

    def test_oscillation_with_a_chunks_buffers_maps_no_array(self):
        # the benchmark's sample-field law (r = 3, spatial_max 25): with the
        # buffers of a chunk (experiments._osc_chunk), a second draw's
        # oscillation holds, at any moment, its grids (80 KB) and less than
        # glibc's 128 KiB mmap threshold besides, so no array of it is mapped
        # and unmapped, with its page faults, once per draw
        law = make_law(3.0 / (4 * math.pi**2))
        buffers = OscillationBuffers(law.engine(), 128, 101)
        first, second = (sample_hamiltonian(law, 4, i) for i in range(2))
        first.oscillation(128, 101, buffers)
        grids = second.coefficient_grids(buffers.times).nbytes
        assert grids < 128 * 1024
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            second.oscillation(128, 101, buffers)
            held = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held - grids < 128 * 1024

    def test_step_equals_allocating_arithmetic(self):
        batch = self.batch()
        engine = batch.engine
        p = np.random.default_rng(1).uniform(0, 1, (4, 64, 2))
        t, h = 0.2, 0.1
        grids = batch.field_grids(batch.time_basis(t + h * self.OFFSETS))
        slopes = []
        for c, a in zip(TABLEAU_C, TABLEAU_A):
            q = p + np.sum([(h * coef) * k for coef, k in zip(a, slopes)], axis=0) if a else p
            slopes.append(engine.vector_field(grids[list(self.OFFSETS).index(c)], q))
        want = p + np.sum([(h * coef) * k for coef, k in zip(TABLEAU_B, slopes)], axis=0)
        _step(engine, grids, p, _step_work(engine, p.shape, h))
        assert np.array_equal(p, want)

    def test_one_set_of_buffers_per_flow(self, monkeypatch):
        calls = []
        buffers = SpectralEngine.buffers
        monkeypatch.setattr(SpectralEngine, "buffers",
                            lambda self, shape: calls.append(shape) or buffers(self, shape))
        pts = np.random.default_rng(2).uniform(0, 1, (4, 8, 2))
        flow_points(self.batch(), pts, 0.0, 1.0, 12)
        assert calls == [(4, 8, 2)]

    def test_one_time_basis_call_per_flow(self, monkeypatch):
        batch = self.batch()
        pts = np.random.default_rng(3).uniform(0, 1, (4, 8, 2))
        want = flow_points(batch, pts, 0.0, 1.0, 58)
        calls = []
        call = TimeBasis.__call__
        monkeypatch.setattr(TimeBasis, "__call__",
                            lambda self, times: calls.append(np.size(times)) or call(self, times))
        assert np.array_equal(flow_points(batch, pts, 0.0, 1.0, 58), want)
        assert calls == [5 * 58]

    def test_oscillation_block_allocates_no_lattice(self, monkeypatch):
        h = sample_hamiltonian(self.LAW, 3)
        value_grid = SpectralEngine.value_grid
        allocated, lattices, buffers = [], [], []

        def measured(self, *args, **kwargs):
            # the call's lattices, and the buffer that they are a view of
            out = kwargs["out"]
            lattices.append(out.nbytes)
            buffers.append(out.nbytes if out.base is None else out.base.nbytes)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = value_grid(self, *args, **kwargs)
            allocated.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        expected = h.oscillation(128, 101)
        monkeypatch.setattr(SpectralEngine, "value_grid", measured)
        tracemalloc.start()
        try:
            assert h.oscillation(128, 101) == expected
        finally:
            tracemalloc.stop()
        # no call allocates its lattices, no call's lattices exceed 8 x 128 x
        # 128 doubles (1 MiB), and one buffer holds those and the half
        # products of every call: 8 x 128 x (128 + 2K) doubles, as the
        # lattices and half products of 8 whole lattices take
        assert allocated and max(allocated) < self.LIMIT
        assert max(lattices) <= 8 * 128 * 128 * 8
        assert max(buffers) <= 8 * 128 * (128 + 2 * h.engine.band) * 8

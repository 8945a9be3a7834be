"""Tests for random Hamiltonian assembly and evaluation."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from hamflow import field
from hamflow.config import parse_config
from hamflow.engine import SpectralEngine
from hamflow.errors import ValidationError
from hamflow.field import (OSC_LATTICE, HamiltonianLaw, OscillationBuffers, PackedBatch,
                           RandomHamiltonian, SpectralHamiltonian, make_law, sample_hamiltonian,
                           spectral_weight)
from hamflow.flow import flow_points, time_reversed_hamiltonian
from hamflow.rng import derive
from hamflow.temporal import CONSTANT, PERIODIC, SQEXP, TimeBasis
from reference import (BumpFunction, analytic_variance, coefficient_paths,
                       concatenate_autonomous, concatenation_coefficients, expansion,
                       full_coefficients, full_draw, full_packing, gaussian_dimension, gradient,
                       grid_slots, lattice_oscillation, mode_coefficients, mode_of,
                       reconstruct_value, reversal_coefficients, spatial_mean, value,
                       vector_field)


class TestSpectralWeight:
    def test_zero_eigenvalue(self):
        assert spectral_weight(0.0, 3.7) == pytest.approx(1.0)

    def test_reference_value(self):
        assert spectral_weight(4 * math.pi**2, 0.1) == pytest.approx(math.exp(-0.2 * math.pi**2))
        assert spectral_weight(4 * math.pi**2, 0.1) == pytest.approx(0.138911, abs=1e-6)

    def test_decay_in_regularity(self):
        rs = [0.1, 0.5, 1.0, 5.0, 50.0]
        w = [spectral_weight(8 * math.pi**2, r) for r in rs]
        assert all(a > b for a, b in zip(w, w[1:]))
        assert w[-1] < 1e-100

    def test_rejects_nonpositive_regularity(self):
        with pytest.raises(ValueError):
            spectral_weight(1.0, 0.0)


class TestGaussianDimension:
    def test_paper_configuration(self):
        law = make_law(0.1, spatial_max=25, temporal_max=10, kernel=PERIODIC)
        assert gaussian_dimension(law) == 52_500

    def test_small_autonomous(self):
        law = make_law(0.1, spatial_max=1, kernel=CONSTANT)
        assert gaussian_dimension(law) == 4

    def test_enumerated_case(self):
        law = make_law(0.1, spatial_max=2, temporal_max=3, kernel=PERIODIC)
        assert gaussian_dimension(law) == 16 * 7 == 112

    def test_sqexp_counts_its_series_columns(self):
        # r = 0.1: 14 frequencies, so 29 columns per mode
        law = make_law(0.1, spatial_max=2, kernel=SQEXP)
        assert gaussian_dimension(law) == 16 * 29


class TestSampling:
    def test_determinism_under_equal_seeds(self):
        law = make_law(0.2, spatial_max=3, temporal_max=4)
        h1 = sample_hamiltonian(law, 77)
        h2 = sample_hamiltonian(law, 77)
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = rng.uniform()
            p = (rng.uniform(), rng.uniform())
            assert value(h1, t, p) == pytest.approx(value(h2, t, p), abs=1e-15)

    def test_draw_is_one_read_only_block_of_normals(self):
        law = make_law(0.2, spatial_max=3, temporal_max=4)
        h = sample_hamiltonian(law, 77)
        assert np.array_equal(h.gaussians, derive(77).standard_normal((len(h.basis), 9)))
        assert not h.gaussians.flags.writeable

    def test_autonomous_draws_time_independent(self):
        law = make_law(0.15, spatial_max=3, kernel=CONSTANT)
        h = sample_hamiltonian(law, 3)
        p = (0.21, 0.68)
        assert value(h, 0.1, p) == pytest.approx(value(h, 0.9, p), abs=1e-14)

    def test_weights_decreasing_in_bounds(self):
        law = make_law(0.05, spatial_max=6)
        h = sample_hamiltonian(law, 1)
        assert np.all(h.weights > 0) and np.all(h.weights < 1)
        assert np.all(np.diff(h.weights) <= 1e-15)

    def test_engine_matches_naive_mode_sum(self):
        # the lattice kernel and the value oracle, each against the sum of
        # every mode, one point at a time with math
        law = make_law(0.08, spatial_max=4, temporal_max=5)
        h = sample_hamiltonian(law, 5)
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = rng.uniform()
            xs, ys = rng.uniform(size=3), rng.uniform(size=2)
            paths = coefficient_paths(law, h.gaussians, t)[0]
            naive = np.array([[sum(h.weights[i] * paths[i] * mode_of(h.basis, i).evaluate(x, y)
                                   for i in range(len(h.basis))) for y in ys] for x in xs])
            lattice = h.engine.value_grid(h.coefficient_grids(t), xs, ys)
            assert np.abs(lattice - naive).max() <= 1e-12
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
            assert np.abs(value(h, t, pts) - naive).max() <= 1e-12

    def test_variance_matches_analytic(self):
        law = make_law(0.06, spatial_max=3, temporal_max=5)
        n = 2000
        p = (0.3, 0.7)
        t = 0.5
        vals = np.array([value(sample_hamiltonian(law, 9, i), t, p) for i in range(n)])
        draw = sample_hamiltonian(law, 9, 0)
        target = analytic_variance(draw, t, p)
        se = target * math.sqrt(2.0 / (n - 1))
        assert abs(vals.var(ddof=1) - target) < 3 * se


class TestEvaluation:
    def test_zero_coefficients_give_zero_field(self):
        law = make_law(0.1, spatial_max=2, kernel=CONSTANT)
        base = sample_hamiltonian(law, 0)
        zero = RandomHamiltonian(law, np.zeros_like(base.gaussians))
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        assert np.all(zero.engine.value_grid(zero.coefficient_grids(0.3), *pts.T) == 0)
        assert np.all(vector_field(zero, 0.3, pts) == 0)

    def test_single_active_mode(self):
        # one cos*cos (1,1) mode with constant coefficient chosen so w*Z = 0.5
        law = make_law(0.1, spatial_max=1, kernel=CONSTANT)
        base = sample_hamiltonian(law, 4)
        samples = np.zeros_like(base.gaussians)
        for i in range(len(base.basis)):
            samples[i, 0] = 0.5 / base.weights[i] if mode_of(base.basis, i).trig == "cc" else 0.0
        h = RandomHamiltonian(law, samples)
        x, y = 0.13, 0.81
        expected = 0.5 * 2 * math.cos(2 * math.pi * x) * math.cos(2 * math.pi * y)
        for t in (0.0, 0.7):
            lattice = h.engine.value_grid(h.coefficient_grids(t), [0.0, x], [0.0, y])
            assert np.diag(lattice) == pytest.approx([1.0, expected])
        assert value(h, 0.7, (x, y)) == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        law = make_law(0.05, spatial_max=5, temporal_max=4)
        h = sample_hamiltonian(law, 12)
        rng = np.random.default_rng(3)
        step = 1e-6
        for _ in range(50):
            t = rng.uniform()
            x, y = rng.uniform(0, 1, 2)
            g = gradient(h, t, (x, y))
            fx = (value(h, t, (x + step, y)) - value(h, t, (x - step, y))) / (2 * step)
            fy = (value(h, t, (x, y + step)) - value(h, t, (x, y - step))) / (2 * step)
            scale = max(1.0, np.abs(g).max())
            assert abs(g[0] - fx) / scale < 1e-5
            assert abs(g[1] - fy) / scale < 1e-5

    def test_vector_field_is_rotated_gradient(self):
        law = make_law(0.07, spatial_max=4)
        h = sample_hamiltonian(law, 6)
        pts = np.random.default_rng(4).uniform(0, 1, (30, 2))
        g = gradient(h, 0.4, pts)
        v = vector_field(h, 0.4, pts)
        assert np.allclose(v[:, 0], -g[:, 1])
        assert np.allclose(v[:, 1], g[:, 0])

    def test_vector_field_divergence_free(self):
        law = make_law(0.05, spatial_max=4, temporal_max=3)
        h = sample_hamiltonian(law, 8)
        rng = np.random.default_rng(5)
        step = 1e-5
        for _ in range(50):
            t = rng.uniform()
            x, y = rng.uniform(0, 1, 2)
            vxp = vector_field(h, t, (x + step, y))[0]
            vxm = vector_field(h, t, (x - step, y))[0]
            vyp = vector_field(h, t, (x, y + step))[1]
            vym = vector_field(h, t, (x, y - step))[1]
            div = (vxp - vxm) / (2 * step) + (vyp - vym) / (2 * step)
            assert abs(div) < 1e-5 * max(1.0, abs(vxp), abs(vyp))


class TestCoefficientExpansion:
    """A draw's (N, m) normals, read in their layout over the product basis
    {e_n(x)} x {1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t)}
    (``reference.expansion``), sum to the draw's field values."""

    def test_round_trip_against_field_evaluation(self):
        law = make_law(0.1, spatial_max=2, temporal_max=3, kernel=PERIODIC)
        draw = full_draw(law, 3)
        table = expansion(draw)
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = rng.uniform()
            x, y = rng.uniform(), rng.uniform()
            assert reconstruct_value(draw, table, t, x, y) == pytest.approx(
                value(draw, t, (x, y)), abs=1e-12)

    def test_constant_kernel_maps_to_zero_frequency(self):
        law = make_law(0.2, spatial_max=1, kernel=CONSTANT)
        draw = sample_hamiltonian(law, 7)
        table = expansion(draw)
        assert all(k == 0 and parity == "cos" for (k, _, parity) in table)
        rng = np.random.default_rng(5)
        for _ in range(10):
            t, x, y = rng.uniform(size=3)
            assert reconstruct_value(draw, table, t, x, y) == pytest.approx(
                value(draw, t, (x, y)), abs=1e-12)


class TestNormalization:
    def test_spatial_mean_vanishes(self):
        law = make_law(0.04, spatial_max=8, temporal_max=6)
        h = sample_hamiltonian(law, 21)
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert abs(spatial_mean(h, rng.uniform())) < 1e-9

    def test_pointwise_gaussianity(self):
        stats = pytest.importorskip("scipy.stats")
        law = make_law(0.06, spatial_max=4, temporal_max=5)
        n = 5000
        p = (0.37, 0.61)
        vals = np.array([value(sample_hamiltonian(law, 31, i), 0.25, p)
                         for i in range(n)])
        sd = math.sqrt(analytic_variance(sample_hamiltonian(law, 31, 0), 0.25, p))
        assert stats.kstest(vals / sd, "norm").pvalue > 0.01


class TestOscillation:
    def test_zero_field(self):
        law = make_law(0.1, spatial_max=2, kernel=CONSTANT)
        base = sample_hamiltonian(law, 0)
        zero = RandomHamiltonian(law, np.zeros_like(base.gaussians))
        assert zero.oscillation() == 0.0

    def test_single_mode_closed_form(self):
        # cos*cos mode with w*Z = a has range [-2a, 2a]: oscillation 4a
        law = make_law(0.1, spatial_max=1, kernel=CONSTANT)
        base = sample_hamiltonian(law, 4)
        a = 0.3
        samples = [[a / base.weights[i] if mode_of(base.basis, i).trig == "cc" else 0.0]
                   for i in range(len(base.basis))]
        h = RandomHamiltonian(law, samples)
        assert h.oscillation() == pytest.approx(4 * a, rel=0.01)

    def test_invariant_under_time_constant_offset(self):
        law = make_law(0.08, spatial_max=3, temporal_max=4)
        h = sample_hamiltonian(law, 14)
        base = h.oscillation()
        # an additive function of t alone shifts max and min equally: the
        # draw's lattice values at each time plus 3.7 sin t keep its osc
        spread = []
        n, time_grid = OSC_LATTICE
        xs = np.arange(n) / n
        times = np.linspace(0, 1, time_grid)
        grids = h.coefficient_grids(times)
        for i, t in enumerate(times):
            vals = h.engine.value_grid(grids[i], xs, xs) + 3.7 * math.sin(t)
            spread.append(vals.max() - vals.min())
        shifted = np.trapezoid(spread, times)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_builds_the_lattice_rows_once(self, monkeypatch):
        h = sample_hamiltonian(make_law(0.08, spatial_max=3, temporal_max=4), 14)
        n, time_grid = OSC_LATTICE
        xs = np.arange(n) / n
        times = np.linspace(0, 1, time_grid)
        grids = h.coefficient_grids(times)
        spread = [h.engine.value_grid(grids[start:start + 8], xs, xs)
                  for start in range(0, time_grid, 8)]
        spread = np.concatenate([v.max(axis=(1, 2)) - v.min(axis=(1, 2)) for v in spread])
        calls = []
        tables = SpectralEngine._tables
        monkeypatch.setattr(SpectralEngine, "_tables",
                            lambda self, coords: calls.append(coords.shape) or tables(self, coords))
        osc = h.oscillation()
        assert osc == float(np.trapezoid(spread, times))
        assert calls == [(n,)]

    def test_weight_monotonicity_in_regularity(self):
        means = []
        for r in (0.04, 0.08, 0.14, 0.5, 1.0):
            law = make_law(r, spatial_max=3, temporal_max=3)
            buffers = OscillationBuffers(law.engine())
            osc = [sample_hamiltonian(law, 55, i).oscillation(buffers) for i in range(200)]
            means.append(np.mean(osc))
        assert all(a > b for a, b in zip(means, means[1:]))


class TestGaussianSandwich:
    """The ball {osc(H) < eps} of the lattice osc, a seminorm of the draw's
    normals, is symmetric and convex, so for a centre G whose normals h are
    shifted by |h| = s (ROADMAP item 12):

        exp(-s^2 / 2) P(osc(H) < eps) <= P(osc(H - G) < eps) <= P(osc(H) < eps),

    Cameron-Martin with Anderson on the left and Anderson on the right.  The
    theorems hold on any lattice, so the one lattice serves (``OSC_LATTICE``).
    The default law (r = 3.95), 1,000 draws from streams (12, 0, i),
    eps the median osc of 1,000 draws from streams (12, 1, i), both seeds
    fixed before any result was seen."""

    N = 1000

    def test_shifted_ball_lies_between_the_bounds(self):
        law = make_law(3.95 / (4 * math.pi**2))
        buffers = OscillationBuffers(law.engine())
        eps = np.median([sample_hamiltonian(law, 12, 1, i).oscillation(buffers)
                         for i in range(self.N)])
        hs = [sample_hamiltonian(law, 12, 0, i) for i in range(self.N)]
        plain = np.mean([h.oscillation(buffers) < eps for h in hs])
        for s in (1.0, 2.0):
            # s on the constant column of the first band mode, a normal B reads
            normals = np.zeros((law.head_rows, law.gaussians_per_sample))
            normals[law.engine().modes[0], 0] = s
            g = RandomHamiltonian(law, normals)
            ball = np.mean([SpectralHamiltonian(law.engine(), law.time_basis,
                                                h.coefficients - g.coefficients)
                            .oscillation(buffers) < eps for h in hs])
            # binomial standard errors of both estimates, in quadrature
            se = math.sqrt((ball * (1 - ball) + plain * (1 - plain)) / self.N)
            assert ball <= plain + 4 * se, (s, ball, plain)
            assert ball >= math.exp(-s * s / 2) * plain - 4 * se, (s, ball, plain)


class TestFieldMaximum:
    """The lattice maximum of H_0 against the expected Euler characteristic
    of its excursion sets (ROADMAP item 28(a)).

    For a stationary field on T^2 of variance sigma^2 and Var dH/dx =
    Var dH/dy = lambda_2, the excursion set {H >= u} has

        E chi = lambda_2 u exp(-u^2 / 2 sigma^2) / ((2 pi)^(3/2) sigma^3),

    since T^2 has Euler characteristic 0 and no boundary; at high levels
    chi counts the excursion's components, each near a local maximum.  Here
    sigma^2 = 1/4 sum_n w_n^2 a_n^2 and lambda_2 = 1/4 sum_n w_n^2 a_n^2
    (2 pi k_x)^2: at every point, the squares of a wavenumber pair's four
    modes sum to a_n^2, and those of their x-derivatives to
    a_n^2 (2 pi k_x)^2; and Var Z = 1 under the constant kernel.  The (1, 1)
    modes are invariant under the shift (1/2, 1/2), so where they hold
    nearly all of Var H each component has a twin, and
    P(max H > u) ~ E chi / 2.  The walk's default law (constant kernel,
    r = 3.95, frequency units), 10,000 draws from streams (28, i), seed fixed
    before any result was seen, each draw's max over a 64 x 64 lattice at
    t = 0.  Normals scaled by 1.1 (in ``sample_hamiltonian``) read z = +24.0,
    +23.0, +21.0 and +15.5.
    """

    N = 10_000

    def test_exceedances_match_half_the_euler_characteristic(self):
        law = parse_config("", command="random-walk").law
        assert law.kernel == CONSTANT and law.variance == 1.0
        basis, engine = law.basis(), law.engine()
        power = 0.25 * law.weights**2 * basis.amplitudes**2
        sigma2, lambda2 = power.sum(), np.sum(power * (2 * math.pi * basis.kx)**2)
        # the precondition of the twin components: the (1, 1) modes' share
        # of Var H, the rest moving H(x + (1/2, 1/2)) - H(x) by 0.008 sigma
        assert power[(basis.kx == 1) & (basis.ky == 1)].sum() / sigma2 > 0.99998
        grids = np.stack([sample_hamiltonian(law, 28, i).coefficient_grids(0.0)
                          for i in range(self.N)])
        rows = engine.lattice_rows(np.arange(64) / 64)
        top = np.concatenate([engine.value_grid(grids[a:a + 500], rows, rows).max(axis=(1, 2))
                              for a in range(0, self.N, 500)])
        sigma = math.sqrt(sigma2)
        for level in (2.0, 2.5, 3.0, 3.5):
            u = level * sigma
            p = lambda2 * u * math.exp(-level**2 / 2) / (2 * (2 * math.pi)**1.5 * sigma**3)
            z = (np.mean(top > u) - p) / math.sqrt(p * (1 - p) / self.N)
            assert abs(z) <= 3, (level, z)


class TestControlVariateMean:
    """The (1, 1) block's integrated spread has a closed-form mean (ROADMAP
    item 33(a)).

    Without axis modes, the (1, 1) part of H_t is r_1(x)^T M_t r_1(y), M_t
    the top-left 2 x 2 block of the square grid G_t, and its continuum osc
    is 2 sigma_1(M_t).  With M_t = [[a, b], [c, d]],

        sigma_1 = (|(a + d) + i (c - b)| + |(a - d) + i (b + c)|) / 2,

    and under the periodic and constant kernels each entry is N(0, s^2) at
    every t, s = w a sqrt(Var Z): the (1, 1) modes' weight and basis
    amplitude and the kernel's variance.  The two moduli are then Rayleigh
    of scale sqrt(2) s, so E 2 sigma_1 = 2 sqrt(pi) s, and so is the mean of
    C, the trapezoid of 2 sigma_1(M_t) over the oscillation's times, whose
    weights sum to 1.  600 draws per law from streams (41, 0, i), seed and
    bound fixed before any result was seen.  Draw weights scaled by 1.1 (in
    ``RandomHamiltonian``) fail every law.
    """

    N = 600

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT])
    @pytest.mark.parametrize("r", [3.95, 3])
    def test_integrated_top_singular_value_matches_its_mean(self, kernel, r):
        law = frequency_law(r, kernel=kernel)
        times = OscillationBuffers(law.engine()).times
        k = law.engine().grid_shape[1]
        c = np.empty(self.N)
        for i in range(self.N):
            grids = sample_hamiltonian(law, 41, 0, i).coefficient_grids(times)
            (a, b), (cc, d) = np.moveaxis(grids.reshape(len(times), 2 * k, 2 * k)[:, :2, :2],
                                          0, -1)
            sigma = 0.5 * (np.hypot(a + d, cc - b) + np.hypot(a - d, b + cc))
            c[i] = np.trapezoid(2.0 * sigma, times)
        s = law.weights[0] * law.basis().amplitudes[0] * math.sqrt(law.variance)
        z = (c.mean() - 2.0 * math.sqrt(math.pi) * s) / (c.std(ddof=1) / math.sqrt(self.N))
        assert abs(z) <= 4, z


# periodic laws from nearly every row evaluated (r = 0.1) to a twentieth of
# them, the other kernels, and axis modes, whose y-only modes give every row
# the same part of its bound
PRUNING_LAWS = {**{f"r={r:g}": (r, {}) for r in (0.1, 0.5, 2, 3, 3.95, 4.5)},
                "sqexp": (3, {"kernel": SQEXP}), "constant": (3.95, {"kernel": CONSTANT}),
                "axis modes": (3.95, {"include_axis_modes": True})}


class TestPrunedOscillation:
    """``oscillation`` evaluates only the rows whose bounds reach the
    extremes found, and its result is bit for bit that of every row."""

    # on the one lattice, in two passes at r = 3 and up to eight at r = 0.1
    @pytest.mark.parametrize("law", sorted(PRUNING_LAWS))
    @pytest.mark.parametrize("draw", range(5), ids=lambda i: f"draw{i}")
    def test_equals_the_whole_lattices(self, law, draw):
        r, kwargs = PRUNING_LAWS[law]
        h = sample_hamiltonian(frequency_law(r, **kwargs), 9, draw)
        assert h.oscillation() == lattice_oscillation(h, *OSC_LATTICE)

    @pytest.mark.parametrize("r", [500, 700])
    def test_row_bounds_do_not_underflow(self, r):
        # the half products near 1e-217 at r = 500: their plain squares would
        # flush to zero, and the bounds would prune the rows of the extremes
        for i in range(3):
            h = sample_hamiltonian(frequency_law(r), 9, i)
            osc = h.oscillation()
            assert osc > 0.0 and osc == lattice_oscillation(h, *OSC_LATTICE)

    def test_one_set_of_buffers_serves_many_draws(self):
        law = frequency_law(3)
        buffers = OscillationBuffers(law.engine())
        draws = [sample_hamiltonian(law, 9, i) for i in range(3)]
        assert [h.oscillation(buffers) for h in draws] == [h.oscillation() for h in draws]
        with pytest.raises(ValueError, match="another engine"):
            sample_hamiltonian(frequency_law(4.5), 9, 0).oscillation(buffers)

    @pytest.mark.parametrize("room", [4, 5, 7, 40])
    def test_row_extremes_fold_groups_across_products(self, room):
        # groups of 1 to 8 rows, folded from products of `room` rows at most:
        # at 4 rows a product of the 8 rows of groups of 2 ends where a group
        # starts, and at 40 one product holds them all
        rng = np.random.default_rng(room)
        columns = rng.standard_normal((6, 16))
        for sizes in ([2, 2, 2, 2], [1, 3, 8, 1, 5, 2], list(rng.integers(1, 9, 12))):
            half = rng.standard_normal((sum(sizes), 6))
            starts = np.cumsum([0] + sizes[:-1])
            hi, lo = field._row_extremes(half, columns, starts, np.empty(room * 16))
            values = np.split(half @ columns, starts[1:])
            assert np.array_equal(hi, [v.max() for v in values])
            assert np.array_equal(lo, [v.min() for v in values])

    @staticmethod
    def evaluated_rows(h, monkeypatch) -> int:
        """Lattice rows evaluated by ``h.oscillation()``, of 101 x 128: the
        rows of every ``value_grid`` call and the gathered (time, row) pairs."""
        rows = []
        value_grid, row_extremes = SpectralEngine.value_grid, field._row_extremes

        def counted(self, grid, xs, ys, **kwargs):
            rows.append(len(grid) * np.shape(xs)[-2])
            return value_grid(self, grid, xs, ys, **kwargs)

        def gathered(half, *args):
            rows.append(len(half))
            return row_extremes(half, *args)

        monkeypatch.setattr(SpectralEngine, "value_grid", counted)
        monkeypatch.setattr(field, "_row_extremes", gathered)
        h.oscillation()
        monkeypatch.undo()
        return sum(rows)

    def test_smooth_laws_evaluate_few_rows(self, monkeypatch):
        # draw 0 of seed 9 evaluates 1,985, 1,349 and 628 rows at r = 2, 3 and
        # 4.5; each bound is that share of the 12,928 rows plus about a tenth.
        # Blocks of 16 times padded to their neediest time's rows evaluated
        # 2,469 and 1,825 at r = 2 and 3, and fail; at r = 4.5 they evaluated
        # 606, so the bound there holds only the count
        for r, most in ((2, 0.17), (3, 0.115), (4.5, 0.054)):
            h = sample_hamiltonian(frequency_law(r), 9, 0)
            assert self.evaluated_rows(h, monkeypatch) < most * 101 * 128

    @pytest.mark.parametrize("law", ["r=0.1", "r=0.5", "axis modes"])
    def test_every_pass_evaluates_two_first_rows_per_time(self, law, monkeypatch):
        # the laws with passes that keep more than half their rows (at seed 9,
        # every draw at r = 0.1, draws 1 and 2 at r = 0.5, draw 2 with axis
        # modes) too: every value_grid call evaluates two rows of each of its
        # grids, 202 in all, and the other rows evaluated are gathered.  Draw
        # 0 at r = 0.1 evaluates 10,856 of the 12,928 rows (202 first rows,
        # 10,654 gathered)
        r, kwargs = PRUNING_LAWS[law]
        grids = []
        value_grid = SpectralEngine.value_grid

        def counted(self, grid, xs, ys, **kwargs):
            assert np.shape(xs)[:-1] == (len(grid), 2)
            grids.append(len(grid))
            return value_grid(self, grid, xs, ys, **kwargs)

        monkeypatch.setattr(SpectralEngine, "value_grid", counted)
        for i in range(3):
            grids.clear()
            sample_hamiltonian(frequency_law(r, **kwargs), 9, i).oscillation()
            assert sum(grids) == OSC_LATTICE[1]


class TestSubnormalFlush:
    """Packing flushes subnormal grid entries; evaluation does not change."""

    # at r = 0.5 the band is 2; scaling B by 1e-280 puts its (2, 2) modes in
    # the subnormal range while its (1, 1) and (1, 2) modes stay normal
    SCALE = 1e-280

    @staticmethod
    def unscaled(kernel):
        return full_draw(make_law(0.5, spatial_max=6, temporal_max=3, kernel=kernel), 6)

    @classmethod
    def draw(cls, kernel):
        h = cls.unscaled(kernel)
        return SpectralHamiltonian(h.engine, h.time_basis, cls.SCALE * h.coefficients)

    @staticmethod
    def unflushed_grid(engine, coeffs):
        # the interleaved layout: mode (kx, ky, tx, ty) at entry
        # (2(kx - 1) + tx, 2(ky - 1) + ty), the basis having no axis modes
        band, rows, cols = grid_slots(engine)
        k = engine.band
        out = np.zeros((2 * k, 2 * k))
        out[rows, cols] = coeffs[band] * engine.basis.amplitudes[band]
        return out.reshape(2, k, 2 * k)

    @staticmethod
    def subnormal(a):
        return (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)

    @pytest.mark.parametrize("kernel", [CONSTANT, PERIODIC])
    def test_packed_grids_hold_no_subnormals(self, kernel):
        h = self.draw(kernel)
        assert self.subnormal(h.coefficients).any()
        assert not self.subnormal(h.engine.grids(h.coefficients)).any()
        assert not self.subnormal(h.coefficient_grids(np.linspace(0, 1, 9))).any()
        # the field grids of the flow's stages
        phi = h.time_basis(np.linspace(0, 1, 21))
        assert not self.subnormal(PackedBatch([h]).field_grids(phi)).any()

    def test_evaluation_bit_identical_to_unflushed_grid(self):
        h = self.unscaled(CONSTANT)
        coeffs = self.SCALE * mode_coefficients(h, 0.0)
        raw = self.unflushed_grid(h.engine, coeffs)
        flushed = h.engine.grids(coeffs[h.engine.modes])
        assert self.subnormal(raw).any()
        assert np.array_equal(flushed, np.where(self.subnormal(raw), 0.0, raw))
        pts = np.random.default_rng(7).uniform(0, 1, (1, 64, 2))
        assert np.array_equal(h.engine.vector_field(h.engine.field_grids(raw[None]), pts),
                              h.engine.vector_field(h.engine.field_grids(flushed[None]), pts))
        xs = np.arange(32) / 32
        assert np.array_equal(h.engine.value_grid(raw, xs, xs),
                              h.engine.value_grid(flushed, xs, xs))


def frequency_law(r, spatial_max=25, **kwargs):
    """A law at regularity r in frequency units (eigenvalue units / 4 pi^2)."""
    return make_law(r / (4 * math.pi**2), spatial_max=spatial_max, **kwargs)


class TestBand:
    """The engine evaluates only the modes that can move a double of the field."""

    # (regularity in frequency units, band, band modes) at spatial_max 25;
    # each row's test id keeps the band and modes that the eps^2 share rule
    # gave before the band was set by rounding, so that test names stay put
    TABLE = [(0.1, 25, 2500), (0.5, 13, 676), (2, 6, 144), (3, 5, 100), (4.5, 4, 64)]
    IDS = ["0.1-25-2500", "0.5-17-1156", "2-8-256", "3-7-196", "4.5-5-100"]

    @staticmethod
    def bounds(law):
        """b_n = w_n (1 + 2 pi max(kx, ky)) and max(kx, ky) per mode."""
        b = law.basis()
        kmax = np.maximum(b.kx, b.ky)
        return law.weights * (1 + 2 * math.pi * kmax), kmax

    @staticmethod
    def rounds_away(bound, level, band):
        """The band's rule: 9 times the bounds above level ``band`` sum to at
        most half an ulp of the largest bound."""
        return 9 * bound[level > band].sum() <= 0.5 * np.finfo(float).eps * bound.max()

    @pytest.mark.parametrize("r,band,modes", TABLE, ids=IDS)
    def test_band_table(self, r, band, modes):
        law = frequency_law(r)
        engine = law.engine()
        b = law.basis()
        assert law.band == engine.band == band
        assert np.sum((b.kx <= band) & (b.ky <= band)) == len(engine.modes) == modes
        assert engine.grids(np.zeros(modes)).shape == (2, band, 2 * band)

    @pytest.mark.parametrize("r", [row[0] for row in TABLE])
    def test_dropped_modes_below_tolerance(self, r):
        # the band meets the rule and one band less does not
        law = frequency_law(r)
        bound, kmax = self.bounds(law)
        assert self.rounds_away(bound, kmax, law.band)
        assert not self.rounds_away(bound, kmax, law.band - 1)

    @staticmethod
    def packed_at(law, seed, band, frequencies):
        """Four draws of ``law`` from streams (seed, i) and their time
        reversals, over the spatial band ``band`` and the first
        ``frequencies`` frequencies of the kernel's time basis, each from its
        whole normals (``full_draw``)."""
        engine, basis = SpectralEngine(law.basis(), band), law.kernel_time_basis
        n = basis.frequencies
        columns = np.concatenate([np.arange(frequencies + 1), n + 1 + np.arange(frequencies)])
        hs = [SpectralHamiltonian(engine, dataclasses.replace(basis, frequencies=frequencies),
                                  full_coefficients(full_draw(law, seed, i))[
                                      np.ix_(columns, engine.modes)])
              for i in range(4)]
        return hs + [time_reversed_hamiltonian(h) for h in hs]

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    @pytest.mark.parametrize("r", [0.5, 2, 3, 3.95, 4.5])
    def test_band_keeps_every_bit(self, kernel, r):
        # draws and reversals at the law's bands flow and oscillate bit for
        # bit as at both bands + 2; the periodic flows one spatial band
        # lower differ, so the band is the least that keeps every bit
        law = frequency_law(r, kernel=kernel)
        band, frequencies = law.band, law.temporal_band
        draws = [sample_hamiltonian(law, 11, i) for i in range(4)]
        draws += [time_reversed_hamiltonian(h) for h in draws]
        wider = self.packed_at(law, 11, band + 2,
                               min(frequencies + 2, law.kernel_time_basis.frequencies))
        pts = np.random.default_rng(11).uniform(0, 1, (8, 5, 2))
        flows = flow_points(PackedBatch(draws), pts, 0.0, 1.0, 60)
        assert np.array_equal(flows, flow_points(PackedBatch(wider), pts, 0.0, 1.0, 60))
        assert [h.oscillation() for h in draws] == [h.oscillation() for h in wider]
        if kernel == PERIODIC and r >= 2:
            narrower = self.packed_at(law, 11, band - 1, frequencies)
            assert not np.array_equal(flows, flow_points(PackedBatch(narrower), pts, 0.0, 1.0,
                                                         60))

    def test_engine_shared_per_band(self):
        # r = 2.8 and 3 share band 5; the seed does not enter the band
        a = sample_hamiltonian(frequency_law(3, seed=1), 1)
        b = sample_hamiltonian(frequency_law(2.8, seed=2), 2)
        c = sample_hamiltonian(frequency_law(4.5, seed=1), 1)
        assert a.engine is b.engine
        assert c.engine is not a.engine and c.engine.basis is a.engine.basis

    def test_laws_differing_in_temporal_max_share_basis_and_engine(self):
        # the temporal order is the kernel's alone
        a, b = frequency_law(3, temporal_max=4), frequency_law(3, temporal_max=10)
        assert a != b and a.spatial_max == b.spatial_max
        assert a.basis() is b.basis() and a.engine() is b.engine()

    def test_draws_of_one_law_batch_after_other_engines_are_built(self):
        # engines of 18 other truncations between two draws of one law: the
        # second draw keeps the first one's engine, so the two batch
        law = frequency_law(3)
        first = sample_hamiltonian(law, 0, 1)
        for spatial_max in range(2, 20):
            frequency_law(3, spatial_max=spatial_max).engine()
        second = sample_hamiltonian(law, 0, 2)
        assert second.engine is first.engine and second.basis is first.basis
        assert len(PackedBatch([first, second])) == 2

    def test_draw_keeps_every_mode(self):
        law = frequency_law(3, temporal_max=4)
        h = full_draw(law, 4)
        assert h.gaussians.shape == (2500, 9)
        assert full_coefficients(h).shape == (9, 2500)
        # B is computed and packed for the band modes only
        assert h.coefficients.shape == (9, 100)

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_banded_evaluation_matches_full_band(self, kernel):
        law = frequency_law(3, spatial_max=12, temporal_max=4, kernel=kernel, seed=8)
        h = full_draw(law, 8)
        full = SpectralEngine(law.basis(), 12)
        assert h.engine.band == 5
        pts = np.random.default_rng(9).uniform(0, 1, (40, 2))
        xs = np.arange(24) / 24
        for t in (0.0, 0.37, 1.0):
            grid = h.coefficient_grids(t)
            ref = full.grids(mode_coefficients(h, t))
            got = h.engine.vector_field(h.engine.field_grids(grid)[None], pts[None])
            want = full.vector_field(full.field_grids(ref)[None], pts[None])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            want = full.value_grid(ref, xs, xs)
            assert np.abs(h.engine.value_grid(grid, xs, xs) - want).max() <= \
                1e-13 * np.abs(want).max()

    def test_batched_value_grid_equals_per_time_calls(self):
        h = sample_hamiltonian(frequency_law(3, spatial_max=10, temporal_max=4), 3)
        grids = h.coefficient_grids(np.linspace(0, 1, 7))
        xs, ys = np.arange(20) / 20, np.arange(13) / 13
        batched = h.engine.value_grid(grids, xs, ys)
        assert batched.shape == (7, 20, 13)
        assert np.array_equal(batched, np.stack([h.engine.value_grid(g, xs, ys)
                                                 for g in grids]))
        nested = h.engine.value_grid(grids.reshape((7, 1) + grids.shape[1:]), xs, ys)
        assert np.array_equal(nested[:, 0], batched)

    def test_lattice_rows_stand_in_for_coordinates(self):
        h = sample_hamiltonian(frequency_law(3, spatial_max=10, temporal_max=4), 3)
        grids = h.coefficient_grids(np.linspace(0, 1, 7))
        xs, ys = np.arange(20) / 20, np.arange(13) / 13
        rx, ry = h.engine.lattice_rows(xs), h.engine.lattice_rows(ys)
        assert rx.shape == (20, 2 * h.engine.band)
        expected = h.engine.value_grid(grids, xs, ys)
        assert np.array_equal(h.engine.value_grid(grids, rx, ry), expected)
        assert np.array_equal(h.engine.value_grid(grids, xs, ry), expected)

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT])
    def test_law_with_underflowing_weights_evaluates(self, kernel):
        law = make_law(1e4, spatial_max=6, temporal_max=3, kernel=kernel)
        assert np.all(law.weights == 0.0)
        h = sample_hamiltonian(law, 0)
        assert h.engine.band == 1
        pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
        assert np.all(value(h, 0.4, pts) == 0.0)
        assert np.all(vector_field(h, 0.4, pts) == 0.0)
        assert h.oscillation() == 0.0
        assert spatial_mean(h, 0.4) == 0.0

    def test_rejects_band_outside_truncation(self):
        basis = make_law(1.0, spatial_max=4).basis()
        for band in (0, 5):
            with pytest.raises(ValueError):
                SpectralEngine(basis, band)


class TestTemporalBand:
    """A law's draws are series in its temporal band: the time-basis
    frequencies that can move a double, by the rule of the spatial band."""

    # (kernel, regularity in frequency units, temporal band, kernel
    # frequencies) at temporal_max 10; the sqexp series already stops at
    # factors of about exp(-18.5), so its band keeps every frequency; the
    # test ids keep the bands of the eps^2 share rule (``TestBand.IDS``)
    TABLE = [(PERIODIC, 0.1, 10, 10), (PERIODIC, 0.5, 10, 10), (PERIODIC, 2, 6, 10),
             (PERIODIC, 3, 5, 10), (PERIODIC, 3.95, 4, 10), (PERIODIC, 4.5, 4, 10),
             (CONSTANT, 3, 0, 0), (SQEXP, 0.1, 13, 13), (SQEXP, 3, 14, 14),
             (SQEXP, 4.5, 14, 14)]
    IDS = ["periodic-0.1-10-10", "periodic-0.5-10-10", "periodic-2-8-10", "periodic-3-6-10",
           "periodic-3.95-6-10", "periodic-4.5-5-10", "constant-3-0-0", "sqexp-0.1-13-13",
           "sqexp-3-14-14", "sqexp-4.5-14-14"]

    @pytest.mark.parametrize("kernel,r,band,frequencies", TABLE, ids=IDS)
    def test_band_table(self, kernel, r, band, frequencies):
        law = frequency_law(r, kernel=kernel)
        basis = law.kernel_time_basis
        assert (law.temporal_band, basis.frequencies) == (band, frequencies)
        assert law.time_basis == TimeBasis(band, basis.period, basis.center)
        assert law.gaussians_per_sample == 1 + 2 * frequencies
        # bound f_0 on the constant and 2 f_k on frequency k's two columns:
        # the band meets the rule of the spatial band and one less does not
        k = np.arange(frequencies + 1)
        bound = np.where(k == 0, 1, 2) * law.column_factors[:frequencies + 1]
        assert TestBand.rounds_away(bound, k, band)
        assert band == 0 or not TestBand.rounds_away(bound, k, band - 1)
        columns = np.concatenate([np.arange(band + 1), frequencies + 1 + np.arange(band)])
        assert np.array_equal(law.time_columns, columns)

    @pytest.mark.parametrize("kernel", [PERIODIC, SQEXP])
    @pytest.mark.parametrize("r", [3, 4.5])
    def test_banded_draws_equal_the_full_time_basis(self, kernel, r):
        # the same draws in the kernel's whole time basis, from B over every
        # column: flows (draws and reversals in one batch) and oscillations
        # agree bit for bit
        law = frequency_law(r, kernel=kernel, seed=8)
        n, m, head = len(law.basis()), law.gaussians_per_sample, law.head_rows
        assert (m, head) == ({PERIODIC: 21, SQEXP: 29}[kernel], {3: 128, 4.5: 80}[r])
        draws = [sample_hamiltonian(law, 8, i) for i in range(3)]
        full = [SpectralHamiltonian(h.engine, law.kernel_time_basis,
                                    full_coefficients(full_draw(law, 8, i))[:, h.engine.modes])
                for i, h in enumerate(draws)]
        for i, (h, f) in enumerate(zip(draws, full)):
            assert np.array_equal(h.gaussians, derive(8, i).standard_normal((n, m))[:head])
            assert h.oscillation() == f.oscillation()
        pts = np.random.default_rng(8).uniform(0, 1, (6, 5, 2))
        assert np.array_equal(
            flow_points(PackedBatch(draws + [time_reversed_hamiltonian(h) for h in draws]), pts,
                        0.0, 1.0, 40),
            flow_points(PackedBatch(full + [time_reversed_hamiltonian(f) for f in full]), pts,
                        0.0, 1.0, 40))


class TestLawValidation:
    """A law is one record of its five parameters, checked when built."""

    def test_kernel_tied_to_regularity_by_default(self):
        # the one regularity sets the weights and the kernel's decay alike
        law = make_law(0.17, spatial_max=2)
        assert law.regularity == 0.17
        assert law.weights[0] == math.exp(-0.17 * 8 * math.pi**2 / 2)
        assert law.column_factors[1] == pytest.approx(math.exp(-2 * 0.17 * math.pi**2))

    def test_fields_are_the_five_parameters(self):
        names = [f.name for f in dataclasses.fields(HamiltonianLaw)]
        assert names == ["regularity", "spatial_max", "temporal_max", "kernel",
                         "include_axis_modes"]
        assert make_law(0.3, 4, 6, SQEXP, include_axis_modes=True) == \
            HamiltonianLaw(0.3, 4, 6, SQEXP, True)

    def test_make_law_ignores_seed_and_grid_nodes(self):
        # the benchmark's child passes both; a law holds neither
        assert make_law(0.3, 4, seed=9, grid_nodes=16) == make_law(0.3, 4)

    @pytest.mark.parametrize("spatial_max", [3, 12, 40])
    def test_moved_truncation_is_the_law_built_with_it(self, spatial_max):
        # a law computed under one truncation, then moved to another: equal
        # to, hashing like and sharing the engine of the law built there
        law = make_law(0.1)
        law.engine()
        moved = dataclasses.replace(law, spatial_max=spatial_max)
        built = make_law(0.1, spatial_max=spatial_max)
        assert moved == built and hash(moved) == hash(built)
        assert moved.engine() is built.engine() and moved.basis() is built.basis()
        assert np.array_equal(sample_hamiltonian(moved, 3).coefficients,
                              sample_hamiltonian(built, 3).coefficients)

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_moved_kernel_is_the_law_built_with_it(self, kernel):
        moved = dataclasses.replace(make_law(0.1, temporal_max=4), kernel=kernel)
        built = make_law(0.1, temporal_max=4, kernel=kernel)
        assert moved == built and hash(moved) == hash(built)
        assert moved.kernel_time_basis == built.kernel_time_basis
        assert np.array_equal(moved.column_factors, built.column_factors)

    @pytest.mark.parametrize("change", [
        {"kernel": "gaussian"}, {"kernel": "Periodic"}, {"regularity": 0.0},
        {"regularity": -0.1}, {"spatial_max": 0}, {"spatial_max": -3}, {"temporal_max": 0},
        {"spatial_max": 2.5}, {"temporal_max": 2.5}, {"regularity": float("nan")},
        {"regularity": float("inf")}, {"regularity": float("-inf")},
        {"include_axis_modes": "false"}, {"spatial_max": True}, {"regularity": True},
        {"regularity": "3"}, {"regularity": None}])
    def test_bad_parameter_raises(self, change):
        # a ValidationError, which is a ValueError, naming the field
        (name,) = change
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(make_law(0.1), **change)
        assert info.value.field == name and isinstance(info.value, ValueError)
        with pytest.raises(ValidationError) as info:
            make_law(**{"regularity": 0.1, **change})
        assert info.value.field == name

    def test_integer_truncations_of_any_integral_type_are_accepted(self):
        assert make_law(0.1, spatial_max=np.int64(3), temporal_max=np.int32(2)) == \
            make_law(0.1, spatial_max=3, temporal_max=2)

    @pytest.mark.parametrize("kernel", [CONSTANT, SQEXP])
    def test_temporal_max_is_checked_under_every_kernel(self, kernel):
        # the periodic kernel alone reads it, but every kernel refuses a bad one
        with pytest.raises(ValueError):
            make_law(0.1, temporal_max=0, kernel=kernel)

    def test_law_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_law(0.1).spatial_max = 4


class TestPerLawQuantities:
    """Every value a law derives is computed once per law."""

    def test_derived_values_are_cached_attributes(self):
        # the basis and the engine, shared between laws, stay methods
        law = frequency_law(3, spatial_max=6, temporal_max=3)
        for name in ("band", "mode_shares", "kernel_time_basis", "column_factors",
                     "gaussians_per_sample", "variance", "temporal_band", "time_basis",
                     "time_columns", "head_rows", "weights", "lipschitz_bound"):
            assert isinstance(vars(HamiltonianLaw)[name], functools.cached_property)
            assert getattr(law, name) is getattr(law, name)
        for name in ("weights", "column_factors", "time_columns"):
            assert not getattr(law, name).flags.writeable
        moved = dataclasses.replace(law, temporal_max=4)
        assert law.basis() is moved.basis() and law.engine() is moved.engine()

    def test_weights_cached_once_and_shared_by_draws(self, monkeypatch):
        import hamflow.field as field_module
        calls = []
        weight = field_module.spectral_weight
        monkeypatch.setattr(field_module, "spectral_weight",
                            lambda *args: calls.append(1) or weight(*args))
        law = frequency_law(3, spatial_max=6, temporal_max=3)
        hs = [sample_hamiltonian(law, 0, i) for i in range(3)]
        assert len(calls) == 1
        assert all(h.weights is law.weights for h in hs)
        assert law.band == hs[0].engine.band
        assert not law.weights.flags.writeable

    def test_draws_equal_those_of_a_fresh_law(self):
        law = frequency_law(3, spatial_max=6, temporal_max=3)
        law.lipschitz_bound
        for i in range(3):
            fresh = frequency_law(3, spatial_max=6, temporal_max=3)
            a = sample_hamiltonian(law, 5, i)
            b = sample_hamiltonian(fresh, 5, i)
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.engine is b.engine

    def test_cache_leaves_equality_and_hash(self):
        law = frequency_law(3, spatial_max=6)
        law.band, law.weights, law.lipschitz_bound
        fresh = frequency_law(3, spatial_max=6)
        assert law == fresh and hash(law) == hash(fresh)
        assert law != frequency_law(3.5, spatial_max=6)

    def test_mode_shares_are_the_weights_sums(self):
        # the lowest shell's shares of Var H and Var grad H and the
        # participation ratio, from the weights; (1, 1, 4) where every
        # weight underflows
        law = frequency_law(2, spatial_max=6)
        lam, v = law.basis().eigenvalues, law.weights ** 2
        shell = lam == lam.min()
        want = (v[shell].sum() / v.sum(), (v * lam)[shell].sum() / (v * lam).sum(),
                v.sum() ** 2 / np.sum(v**2))
        assert law.mode_shares == pytest.approx(want, rel=1e-12)
        assert make_law(1e4, spatial_max=6).mode_shares == (1.0, 1.0, 4.0)

    @staticmethod
    def spectral_bounds(law, count, t):
        """sum_n |c_n(t)| a_n (2 pi max(kx, ky))^2 of ``count`` draws."""
        b = law.basis()
        factor = b.amplitudes * (2 * math.pi * np.maximum(b.kx, b.ky)) ** 2
        return np.array([np.abs(mode_coefficients(sample_hamiltonian(law, 8, i), t))
                         @ factor for i in range(count)])

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT])
    def test_lipschitz_bound_is_the_mean_spectral_bound(self, kernel):
        law = frequency_law(2, spatial_max=4, temporal_max=3, kernel=kernel)
        bounds = self.spectral_bounds(law, 2000, 0.3)
        se = bounds.std(ddof=1) / math.sqrt(len(bounds))
        assert abs(bounds.mean() - law.lipschitz_bound) < 4 * se


class TestHeadOnlyDraws:
    """A sampled draw holds the rows its engine reads, the head of its stream."""

    # (regularity in frequency units, band, band modes, head rows) at
    # spatial_max 25; the test ids keep the values of the eps^2 share rule
    # (``TestBand.IDS``)
    HEADS = [(0.1, 25, 2500, 2500), (0.5, 13, 676, 992), (2, 6, 144, 192),
             (3, 5, 100, 128), (4.5, 4, 64, 80)]
    IDS = ["0.1-25-2500-2500", "0.5-17-1156-1712", "2-8-256-360", "3-7-196-268",
           "4.5-5-100-128"]

    @pytest.mark.parametrize("r,band,modes,head", HEADS, ids=IDS)
    def test_head_rows_table(self, r, band, modes, head):
        law = frequency_law(r)
        assert (law.band, len(law.engine().modes), law.head_rows) == (band, modes, head)
        assert law.head_rows == law.engine().modes.max() + 1

    @pytest.mark.parametrize("kernel", [PERIODIC, CONSTANT, SQEXP])
    def test_gaussians_equal_a_full_draw(self, kernel):
        # the first head_rows rows of the stream's whole (N, m) array
        law = frequency_law(3, spatial_max=12, temporal_max=4, kernel=kernel)
        n, m, head = len(law.basis()), law.gaussians_per_sample, law.head_rows
        assert head == 128 < n
        for i in range(3):
            h = sample_hamiltonian(law, 5, i)
            assert np.array_equal(h.gaussians, derive(5, i).standard_normal((n, m))[:head])
            assert not h.gaussians.flags.writeable

    @staticmethod
    def packings(kind):
        """(h, engine, B of h over the whole basis) for one spectral type: h
        from sampled draws, B from the same streams' whole normals.  A
        concatenation's parts hold every row, since the narrower band's part
        is packed at the wider band's modes."""
        kernel = {"reversal": PERIODIC, "concatenation": CONSTANT,
                  "mixed concatenation": CONSTANT}.get(kind, kind)
        laws = [frequency_law(r, spatial_max=12, temporal_max=4, kernel=kernel, seed=3)
                for r in ((3, 4.5) if kind == "mixed concatenation" else (3, 3))]
        fulls = [full_draw(law, 3, i) for i, law in enumerate(laws)]
        if kind.endswith("concatenation"):
            h = concatenate_autonomous(fulls, BumpFunction())
            return h, h.engine, concatenation_coefficients(fulls)
        draw = sample_hamiltonian(laws[0], 3, 0)
        if kind == "reversal":
            h = time_reversed_hamiltonian(draw)
            return h, h.engine, reversal_coefficients(fulls[0])
        return draw, draw.engine, full_coefficients(fulls[0])

    @pytest.mark.parametrize("kind", [PERIODIC, CONSTANT, SQEXP, "reversal", "concatenation",
                                      "mixed concatenation"])
    def test_head_packing_equals_full_basis_packing(self, kind):
        h, engine, full = self.packings(kind)
        assert engine.band == 5 < 12
        want = full_packing(engine, full)
        assert np.array_equal(engine.grids(h.coefficients), want)
        times = np.linspace(0.0, 1.0, 7)
        phi = h.time_basis(times)
        paths = (phi @ want.reshape(len(want), -1)).reshape((len(times),) + want.shape[1:])
        assert np.array_equal(h.coefficient_grids(times), paths)
        fields = engine.field_grids(want)
        stage = (phi @ fields.reshape(len(fields), -1)).reshape((len(times), 1) + fields.shape[1:])
        assert np.array_equal(PackedBatch([h]).field_grids(phi), stage)

    def test_packing_leaves_the_tail_undrawn(self, monkeypatch):
        # once sampled, a draw reads no stream: packing, grids, oscillation
        # and its normals all come from the head it holds
        law = frequency_law(3, spatial_max=12, temporal_max=4)
        h = sample_hamiltonian(law, 9)
        keys = []
        monkeypatch.setattr(field, "derive", lambda *key: keys.append(key) or derive(*key))
        PackedBatch([h])
        h.coefficient_grids(0.5)
        h.oscillation()
        assert h.gaussians.shape == (law.head_rows, 9)
        assert keys == []
        sample_hamiltonian(law, 9)
        assert keys == [(9,)]


class TestStreams:
    """A draw built from an array holds it, and packs as the sampled draw does."""

    LAW = frequency_law(3, spatial_max=12, temporal_max=4)
    SHAPE = (576, 9)

    def test_draws_from_an_array_hold_it_whole(self):
        full = derive(13).standard_normal(self.SHAPE)
        head = self.LAW.head_rows
        draws = [RandomHamiltonian(self.LAW, full[:rows]) for rows in (head, len(full))]
        for h, rows in zip(draws, (head, len(full))):
            assert np.array_equal(h.gaussians, full[:rows])
            assert not h.gaussians.flags.writeable
        assert draws[0].coefficients.tobytes() == draws[1].coefficients.tobytes()
        assert np.array_equal(draws[0].coefficients, sample_hamiltonian(self.LAW, 13).coefficients)
        for bad in (full[:head - 1], np.vstack([full, full[:1]]), full[:, :-1], full[:, 0]):
            with pytest.raises(ValueError, match=f"{head} <= rows <= {len(full)}"):
                RandomHamiltonian(self.LAW, bad)

"""Tests for the experiment runner, batched curve advection, crossing counts
and the inversion KS test (against scipy, which the tests alone use; the
tests that compare with it skip where scipy is not installed)."""

import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hamflow.config import ExperimentConfig
from hamflow.errors import (DegenerateOverlap, HamflowError, NonFinite, RefinementOverflow,
                           ValidationError)
from hamflow.engine import SpectralEngine
from hamflow import cli, experiments, field, flow
from hamflow.experiments import (CHUNK, LAGRANGIANS, _ball_points, _bin_counts, _crossings,
                                 _curve, _diffusion_chunk, _displacement_chunk, _image_chunk,
                                 _ks_two_sample, _osc_chunk, _run_chunks, _walk_chunk,
                                 count_crossings, flow_steps, inversion_test, mean_table,
                                 oscillation_samples, oscillation_table, run_intersections,
                                 run_inversion_test, standard_error, worker_count)
from hamflow.field import PackedBatch, RandomHamiltonian, make_law, sample_hamiltonian
from hamflow.flow import (_STAGE_OFFSETS, LagrangianCurve, advect_curve, advect_curves,
                          flow_points, flow_points_through, horizontal_circle,
                          time_reversed_hamiltonian)
from hamflow.rng import derive
from reference import (BumpFunction, apply_walk, circle_curve, concatenate_autonomous,
                       crossings, flow_concatenation, flow_one, full_draw, reference_advect,
                       reference_images, sloped_circle, vertical_circle)

# At this law and threshold, under an image budget of BUDGET vertices, some
# draws finish after one or two refinement passes and others overflow.  The
# batched and one-draw paths must agree at any step count, so the flows
# take the law's own 21.  Its regularity is 4 pi^2 / 10 to the last bit,
# 0.1 per eigenvalue, where the counts and bits named below were measured
# (at 3.95 the lone midpoint of the weak draw flows alike padded or not).
LAW = make_law(3.947841760435743, spatial_max=4, temporal_max=3)
STEPS, THRESHOLD = 21, 0.02
BUDGET = 160


@pytest.fixture
def budget(monkeypatch):
    """Images of at most BUDGET vertices (``flow.MAX_IMAGE_VERTICES``)."""
    monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", BUDGET)


def draws(count, seed=9, law=LAW):
    return [sample_hamiltonian(law, seed, 0, i) for i in range(count)]


def assert_matches_reference(hamiltonians, images, curve, t, steps, threshold):
    assert len(images) == len(hamiltonians)
    for h, image in zip(hamiltonians, images):
        expected = reference_advect(h, curve, t, steps, threshold)
        if expected is RefinementOverflow:
            assert isinstance(image, RefinementOverflow)
        elif isinstance(expected, NonFinite):
            assert isinstance(image, NonFinite) and str(image) == str(expected)
        else:
            assert isinstance(image, LagrangianCurve)
            assert np.array_equal(image.vertices, expected)
            assert image.winding == curve.winding


def flowed_shapes(monkeypatch) -> list:
    """The point shapes of every ``flow.flow_points`` call from here on."""
    shapes = []

    def spy(batch, pts, *args):
        shapes.append(pts.shape)
        return flow_points(batch, pts, *args)

    monkeypatch.setattr(flow, "flow_points", spy)
    return shapes


@pytest.mark.usefixtures("budget")
class TestAdvectCurves:
    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_closed_curve_matches_one_draw_loop(self, count):
        hs = draws(count)
        curve = horizontal_circle(0.5, 64)
        images = advect_curves(PackedBatch(hs), curve, 1.0, STEPS, THRESHOLD)
        assert_matches_reference(hs, images, curve, 1.0, STEPS, THRESHOLD)
        for h, image in zip(hs, images):
            if isinstance(image, HamflowError):
                with pytest.raises(RefinementOverflow):
                    advect_curve(h, curve, 1.0, STEPS, THRESHOLD)
            else:
                assert np.array_equal(advect_curve(h, curve, 1.0, STEPS, THRESHOLD).vertices,
                                      image.vertices)

    def test_both_outcomes_occur(self):
        images = advect_curves(PackedBatch(draws(17)), horizontal_circle(0.5, 64), 1.0, STEPS,
                               THRESHOLD)
        kinds = {type(image) for image in images}
        assert kinds == {LagrangianCurve, RefinementOverflow}

    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_open_curve_matches_one_draw_loop(self, count, monkeypatch):
        # the open segment (0.2, 0.3)-(0.7, 0.6), traced out and back as a
        # closed loop of winding (0, 0), so each of its points is advected;
        # the loop holds the segment twice, so its images get twice the budget
        monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", 2 * BUDGET)
        hs = draws(count, seed=4)
        alpha = np.linspace(0.0, 1.0, 21)[:, None]
        segment = (1 - alpha) * [0.2, 0.3] + alpha * [0.7, 0.6]
        curve = LagrangianCurve(np.concatenate([segment, segment[-2::-1]]))
        images = advect_curves(PackedBatch(hs), curve, 0.7, STEPS, THRESHOLD)
        assert_matches_reference(hs, images, curve, 0.7, STEPS, THRESHOLD)
        assert any(isinstance(image, LagrangianCurve) for image in images)

    def test_generator_fed_batch_equals_list_fed_batch(self):
        hs = draws(5)
        curve = circle_curve((0.4, 0.6), 0.1, 48)
        batch = PackedBatch((h for h in hs), 5)
        phi = batch.time_basis(np.linspace(0.0, 1.0, 5))
        assert np.array_equal(batch.field_grids(phi), PackedBatch(hs).field_grids(phi))
        a = advect_curves(batch, curve, 1.0, STEPS, THRESHOLD)
        b = advect_curves(PackedBatch(hs), curve, 1.0, STEPS, THRESHOLD)
        for x, y in zip(a, b):
            assert type(x) is type(y)
            if isinstance(x, LagrangianCurve):
                assert np.array_equal(x.vertices, y.vertices)

    def test_mixes_unrefined_and_multi_pass_draws(self, monkeypatch):
        zero = RandomHamiltonian(LAW, np.zeros_like(draws(1)[0].gaussians))
        curve = horizontal_circle(0.5, 64)
        # draws 0 and 3 of this stream take two passes each, to 132 and 95
        # vertices; within 94 neither finishes
        monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", 94)
        multi = [h for i, h in enumerate(draws(4)) if i in (0, 3)]
        for h in multi:
            assert isinstance(advect_curves(PackedBatch([h]), curve, 1.0, STEPS, THRESHOLD)[0],
                              RefinementOverflow)
        monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", BUDGET)
        hs = [multi[0], zero, multi[1]]
        images = advect_curves(PackedBatch(hs), curve, 1.0, STEPS, THRESHOLD)
        assert_matches_reference(hs, images, curve, 1.0, STEPS, THRESHOLD)
        assert np.array_equal(images[1].vertices, curve.vertices)
        assert len(images[0]) > len(curve) and len(images[2]) > len(curve)
        assert len(images[0]) != len(images[2])

    def test_lone_midpoint_flows_alike_alone_and_beside_a_wider_draw(self):
        # a closed loop at y = 1/2 with gaps of 0.01 but one of 0.03: under a
        # weak draw one pass bisects that segment alone, a set of one point,
        # which flows in a padded row of two points or more whether or not a
        # draw beside it flows several midpoints in the same pass (flowed
        # alone, unpadded, the midpoint's image differs in its last bits at
        # this draw)
        curve, strong, weak = self.lone_midpoint_draws()
        (alone,) = advect_curves(PackedBatch([weak]), curve, 1.0, STEPS, THRESHOLD)
        beside = advect_curves(PackedBatch([weak, strong]), curve, 1.0, STEPS, THRESHOLD)
        assert len(alone) == len(curve) + 1
        assert len(beside[1]) > len(curve) + 2
        assert np.array_equal(alone.vertices, beside[0].vertices)

    @staticmethod
    def lone_midpoint_draws():
        """The curve of ``test_lone_midpoint_flows_alike_alone_and_beside_a_wider_draw``
        and its strong and weak draws."""
        xs = np.append(0.01 * np.arange(98), 1.0)
        curve = LagrangianCurve(np.stack([xs, np.full_like(xs, 0.5)], axis=-1), winding=(1, 0))
        strong = draws(1)[0]
        return curve, strong, RandomHamiltonian(LAW, 0.01 * strong.gaussians)

    def test_refinement_pass_mixes_row_counts_and_a_non_finite_draw(self, monkeypatch):
        # one pass of three draws, at the width 15 of their 44 points: the
        # strong draw's 40 midpoints fill three rows, the weak draw's lone
        # midpoint one padded row, and the third draw's state leaves the
        # finite range; the pass flows once, and the other four rows of the
        # flow that raised are the other draws' images
        curve, strong, weak = self.lone_midpoint_draws()
        gaussians = np.array(strong.gaussians)
        gaussians[0, 0] = np.inf
        hs = [strong, weak, RandomHamiltonian(LAW, gaussians)]
        mids = curve.vertices[:-1] + [0.005, 0.0]
        points = [mids[:40], mids[7:8], mids[:3]]
        shapes = flowed_shapes(monkeypatch)
        out = [None] * 3
        with np.errstate(all="ignore"):
            images = flow._flow_rows(PackedBatch(hs), [0, 1, 2], points, 1.0, STEPS, out)
            with pytest.raises(NonFinite) as alone:
                reference_images(hs[2], points[2], 1.0, STEPS)
        assert shapes == [(5, 15, 2)]
        assert sorted(images) == [0, 1] and out[:2] == [None, None]
        for s in (0, 1):
            assert np.array_equal(images[s], reference_images(hs[s], points[s], 1.0, STEPS))
        assert isinstance(out[2], NonFinite) and str(out[2]) == str(alone.value)
        # the whole loop: the weak draw's pass of one midpoint beside the
        # strong draw's several, after the third draw failed at pass 0
        monkeypatch.setattr(flow, "flow_points", flow_points)
        with np.errstate(all="ignore"):
            images = advect_curves(PackedBatch(hs), curve, 1.0, STEPS, THRESHOLD)
            assert_matches_reference(hs, images, curve, 1.0, STEPS, THRESHOLD)

    def test_refinement_pass_of_near_equal_sets_flows_one_row_per_draw(self, monkeypatch):
        # sets of 40, 39 and 38 points: rows of the mean width, 39, would
        # flow 156 points in four rows, rows of the widest 120 in three
        hs = draws(3)
        mids = horizontal_circle(0.5, 64).vertices[:40] + [0.0, 0.005]
        points = [mids, mids[:39], mids[:38]]
        shapes = flowed_shapes(monkeypatch)
        images = flow._flow_rows(PackedBatch(hs), range(3), points, 1.0, STEPS, [None] * 3)
        assert shapes == [(3, 40, 2)]
        for s in range(3):
            assert np.array_equal(images[s], reference_images(hs[s], points[s], 1.0, STEPS))

    def test_non_finite_draw_fails_alone(self):
        hs = draws(3)
        gaussians = np.array(hs[1].gaussians)
        gaussians[0, 0] = np.inf
        hs[1] = RandomHamiltonian(LAW, gaussians)
        curve = horizontal_circle(0.5, 64)
        with np.errstate(all="ignore"):
            images = advect_curves(PackedBatch(hs), curve, 1.0, STEPS, THRESHOLD)
            with pytest.raises(NonFinite, match="finite range"):
                advect_curve(hs[1], curve, 1.0, STEPS, THRESHOLD)
        assert isinstance(images[1], NonFinite)
        others = [hs[0], hs[2]]
        assert_matches_reference(others, [images[0], images[2]], curve, 1.0, STEPS, THRESHOLD)

    def test_flow_points_names_the_non_finite_draws(self):
        hs = draws(4)
        for bad in (1, 3):
            gaussians = np.array(hs[bad].gaussians)
            gaussians[0, 0] = np.inf
            hs[bad] = RandomHamiltonian(LAW, gaussians)
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            flow_points(PackedBatch(hs), np.full((4, 2, 2), 0.5), 0.0, 1.0, STEPS)
        assert info.value.draws == (1, 3)

    def test_non_finite_state_holds_the_finite_draws_images(self):
        hs = draws(4)
        gaussians = np.array(hs[2].gaussians)
        gaussians[0, 0] = np.inf
        hs[2] = RandomHamiltonian(LAW, gaussians)
        pts = np.random.default_rng(5).uniform(size=(4, 3, 2))
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            flow_points(PackedBatch(hs), pts, 0.0, 1.0, STEPS)
        assert info.value.draws == (2,) and info.value.state.shape == pts.shape
        finite = [0, 1, 3]
        assert np.array_equal(info.value.state[finite],
                              flow_points(PackedBatch([hs[s] for s in finite]), pts[finite],
                                          0.0, 1.0, STEPS))

    def test_rows_select_a_sub_batch(self):
        hs = draws(6)
        batch = PackedBatch(hs)
        sub = batch.rows([3, 1])
        assert len(sub) == 2
        phi = batch.time_basis(np.linspace(0.0, 1.0, 5))
        want = batch.field_grids(phi)
        # runs of consecutive rows, lone rows, reversals, and a sub-batch's
        # rows: each equals those rows packed alone
        for sub, rows in ((sub, [3, 1]), (batch.rows([1, 2, 3, 5, 0]), [1, 2, 3, 5, 0]),
                          (batch.rows([0, 2, 3, 4]).rows([3, 1, 2]), [4, 2, 3])):
            assert len(sub) == len(rows)
            assert np.array_equal(sub.field_grids(phi), want[:, rows])
            assert np.array_equal(sub.field_grids(phi),
                                  PackedBatch([hs[r] for r in rows]).field_grids(phi))

    @pytest.mark.parametrize("given", [2, 4])
    def test_count_other_than_size_raises(self, given):
        hs = draws(4)
        with pytest.raises(ValueError, match="batch's 3 Hamiltonians"):
            PackedBatch((h for h in hs[:given]), 3)
        with pytest.raises(ValueError, match="batch's 3 Hamiltonians"):
            PackedBatch(hs[:given], 3)
        assert len(PackedBatch(hs[:3], 3)) == len(PackedBatch(hs[:3])) == 3

    def test_all_rows_in_order_are_the_batch_itself(self):
        batch = PackedBatch(draws(3))
        assert batch.rows(range(3)) is batch
        assert batch.rows([0, 2, 1]) is not batch


def loop_at_x(ys, winding) -> LagrangianCurve:
    """The closed loop through the vertices (0.25, y)."""
    return LagrangianCurve(np.array([(0.25, y) for y in ys]), winding=winding)


def loop_about_centre(levels, radius) -> LagrangianCurve:
    """The closed loop whose evenly spaced vertices about (0.5, 0.5) lie at
    distances ``radius`` + ``levels``."""
    angle = 2.0 * math.pi * np.arange(len(levels)) / len(levels)
    verts = 0.5 + (radius + np.array(levels))[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
    return LagrangianCurve(np.vstack([verts, verts[:1]]), winding=(0, 0))


class TestCountCrossings:
    # Under the zero flow a straight loop of winding (a, b) meets a closed line
    # of winding (p, q) |a q - b p| times; a loop at y = 0.45 crosses each circle
    # of the catalog twice, and a loop at x = 0.25 misses both.  The sloped
    # loop {(a + 1/4, 2 a)} runs beside L4 (2 x - y = 0), not along it, and
    # through the centre of both circles.
    HORIZONTAL = {"L1": 1, "L2": 1, "L3": 1, "L4": 2, "L5": 3, "L6": 4, "L7": 0, "L8": 0,
                  "L9": 0, "L10": 1, "L11": 1, "L12": 1, "L13": 2, "L14": 2}
    VERTICAL = {"L1": 0, "L2": 0, "L3": 0, "L4": 1, "L5": 1, "L6": 1, "L7": 1, "L8": 1,
                "L9": 1, "L10": 2, "L11": 3, "L12": 4, "L13": 0, "L14": 0}
    SLOPED = {"L1": 1, "L2": 1, "L3": 1, "L4": 0, "L5": 1, "L6": 2, "L7": 2, "L8": 2,
              "L9": 2, "L10": 3, "L11": 5, "L12": 7, "L13": 2, "L14": 2}

    @pytest.mark.parametrize(
        "curve,expected",
        [(horizontal_circle(0.45, 128), HORIZONTAL), (vertical_circle(0.25, 128), VERTICAL),
         (LagrangianCurve(sloped_circle(1, 2, 300).vertices + [0.25, 0.0], (1, 2)), SLOPED)],
        ids=["horizontal", "vertical", "sloped"])
    def test_straight_loops_under_zero_flow(self, curve, expected):
        zero = RandomHamiltonian(LAW, np.zeros_like(draws(1)[0].gaussians))
        (image,) = advect_curves(PackedBatch([zero]), curve, 1.0, 20, 0.01)
        assert np.array_equal(image.vertices, curve.vertices)
        assert dict(zip(LAGRANGIANS, count_crossings(image))) == expected

    @pytest.mark.parametrize("curve,label", [(vertical_circle(0.5, 64), "L2"),
                                             (horizontal_circle(0.3, 64), "L7"),
                                             (vertical_circle(0.3, 64), "L1")])
    def test_loop_on_the_level_set_is_degenerate(self, curve, label):
        # the loop lies along ``label``'s Lagrangian, so counting the table raises
        with pytest.raises(DegenerateOverlap):
            crossings(curve, label)
        with pytest.raises(DegenerateOverlap):
            count_crossings(curve)

    @pytest.mark.usefixtures("budget")
    def test_one_pass_equals_each_lagrangian_alone(self):
        images = [image for image in advect_curves(PackedBatch(draws(17)),
                                                   horizontal_circle(0.5, 64), 1.0, STEPS,
                                                   THRESHOLD)
                  if isinstance(image, LagrangianCurve)]
        assert len(images) >= 5
        counts = set()
        for image in images:
            want = [crossings(image, label) for label in LAGRANGIANS]
            assert count_crossings(image) == want
            counts.update(want)
        assert len(counts) > 3

    # (0.25, 0.5) lies exactly on L8 (y = 0.5) and on L4 (2 x - y = 0); the
    # loops are closed, the first running once round x = 0.25.  The last
    # loop's vertices alternate between L13 level values of +-0.05 and, in
    # between, +-0.5e-12 (on the level set: above) and +-2e-12: 8 crossings.
    @pytest.mark.parametrize("curve,label,expected",
                             [(loop_at_x((0.4, 0.5, 0.6, 1.0, 1.4), (0, 1)), "L8", 1),
                              (loop_at_x((0.4, 0.5, 0.4), (0, 0)), "L8", 2),
                              (loop_at_x((0.6, 0.5, 0.6), (0, 0)), "L8", 0),
                              (loop_about_centre((5e-2, -5e-13, 5e-2, -2e-12, 5e-2,
                                                  -5e-2, 5e-13, -5e-2, 2e-12, -5e-2), 0.1),
                               "L13", 8)],
                             ids=["through", "touch-below", "touch-above", "circle"])
    def test_vertex_on_a_level_set_counts_as_above(self, curve, label, expected):
        counts = count_crossings(curve)
        assert counts[list(LAGRANGIANS).index(label)] == expected == crossings(curve, label)
        assert counts == [crossings(curve, label) for label in LAGRANGIANS]


def intersections_config(**changes):
    values = dict(command="intersections", regularity=LAW.regularity, spatial_max=4,
                  temporal_max=3, steps=50, refinement_threshold=0.02,
                  curve_vertices=64, samples=6, seed=9, workers=1)
    values.update(changes)
    return ExperimentConfig(**values)


def intersection_chunk(cfg, start, stop):
    """The records of the intersection task for samples start..stop-1."""
    return _image_chunk(_crossings, cfg, range(start, stop))


def per_draw_outcomes(cfg):
    """The records of the one-sample-at-a-time loop: counts or error text."""
    law = cfg.law
    steps = flow_steps(law, cfg.steps)
    outcomes = []
    for i in range(cfg.samples):
        draw = sample_hamiltonian(law, cfg.seed, 0, i)
        try:
            image = advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices), 1.0, steps,
                                 cfg.refinement_threshold)
            outcomes.append({"sample": i, **{label: crossings(image, label)
                                             for label in LAGRANGIANS}})
        except HamflowError as exc:
            outcomes.append({"sample": i, "error": f"{type(exc).__name__}: {exc}"})
    return outcomes


class TestIntersectionChunks:
    """Within BUDGET vertices draws 1, 2 and 4 of ``intersections_config``
    overflow; within the module's budget none does."""

    @pytest.mark.usefixtures("budget")
    def test_overflowing_draw_fails_alone(self):
        cfg = intersections_config()
        outcomes = intersection_chunk(cfg, 0, cfg.samples)
        assert outcomes == per_draw_outcomes(cfg)
        failed = [o["error"] for o in outcomes if "error" in o]
        assert failed and len(failed) < cfg.samples
        assert all(msg.startswith("RefinementOverflow: ") for msg in failed)

    @pytest.mark.usefixtures("budget")
    def test_budget_message_matches_per_draw_loop(self, tmp_path):
        cfg = intersections_config(out=str(tmp_path))
        errors = [(o["sample"], o["error"]) for o in per_draw_outcomes(cfg) if "error" in o]
        expected = (f"regularity {cfg.regularity}: {len(errors)} of {cfg.samples} samples "
                    f"failed (budget 1%): {errors[:3]}")
        with pytest.raises(HamflowError) as info:
            cli.run(cfg)
        assert str(info.value) == expected

    def test_table_matches_per_draw_loop(self):
        cfg = intersections_config()
        outcomes = per_draw_outcomes(cfg)
        assert all("error" not in o for o in outcomes)
        records = run_intersections(cfg)
        assert records == [{**o, "regularity": cfg.regularity} for o in outcomes]
        outputs = mean_table(cfg, records)
        assert outputs["records"] == records
        rows = {row[0]: row for row in outputs["table"]}
        assert list(rows) == list(LAGRANGIANS)
        for label in LAGRANGIANS:
            values = np.array([o[label] for o in outcomes], dtype=float)
            assert rows[label] == (label, cfg.regularity, float(values.mean()),
                                   standard_error(values), cfg.samples)

    def test_smooth_law_advects_at_its_step_count(self):
        # regularity 6 takes 3 of at most 50 steps
        cfg = intersections_config(regularity=6.0, samples=4)
        law = cfg.law
        assert flow_steps(law, cfg.steps) == 3
        records = _image_chunk(_curve, cfg, range(cfg.samples))
        assert [record["sample"] for record in records] == list(range(cfg.samples))
        for i, record in enumerate(records):
            draw = sample_hamiltonian(law, cfg.seed, 0, i)
            expected = advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices), 1.0, 3,
                                    cfg.refinement_threshold)
            assert np.array_equal(record["vertices"], expected.vertices)


def check_diffusion_chunk(regularity, steps, spatial_max=5):
    cfg = ExperimentConfig(command="diffusion", regularity=regularity,
                           spatial_max=spatial_max, steps=40, points=12, samples=5, seed=2)
    law = cfg.law
    assert flow_steps(law, cfg.steps) == steps
    records = _diffusion_chunk(cfg, range(1, 5))
    assert [record["sample"] for record in records] == [1, 2, 3, 4]
    for record, i in zip(records, range(1, 5)):
        counts, chi = record["counts"], record["chi_square"]
        # sample i's draw, and its ball points from a stream of their own
        draw = sample_hamiltonian(law, cfg.seed, 0, i)
        pts = _ball_points(derive(cfg.seed, 0, i, 1), cfg.ball_center, cfg.ball_radius,
                           cfg.points)
        states = [s[0] for s in flow_points_through(PackedBatch([draw]), pts[None], cfg.times,
                                                    steps)]
        assert np.array_equal(counts, np.stack([_bin_counts(s, cfg.grid) for s in states]))
        assert chi.shape == (len(cfg.times),)


def check_displacement_chunk(regularity, steps):
    cfg = ExperimentConfig(command="inversion", regularity=regularity, spatial_max=5,
                           steps=40, samples=4, seed=2)
    law = cfg.law
    assert flow_steps(law, cfg.steps) == steps
    probe = np.asarray(cfg.probe)

    def displacement(h, t0, t1):
        d = (flow_one(h, probe[None], t0, t1, steps)[0] - probe + 0.5) % 1.0 - 0.5
        return np.hypot(d[0], d[1])

    records = _displacement_chunk(cfg, range(1, 4))
    assert [record["sample"] for record in records] == [1, 2, 3]
    for i, record in zip(range(1, 4), records):
        forward, inverse = record["forward"], record["inverse"]
        assert forward == displacement(sample_hamiltonian(law, cfg.seed, 0, i), 0.0, 1.0)
        # the inverse draw's time reversal, flowed forward in the same batch
        draw = sample_hamiltonian(law, cfg.seed, 1, i)
        assert inverse == displacement(time_reversed_hamiltonian(draw), 0.0, 1.0)
        assert abs(inverse - displacement(draw, 1.0, 0.0)) <= 1e-12


def test_full_band_draw_is_refused_at_pass_0(monkeypatch):
    # draw 0 of seed 0 at regularity 0.1 (frequency units, the other keys
    # at their defaults): its first image is already too long to finish
    # within the image budget at the 0.01 threshold, so it fails with no
    # refinement pass, where the budget test alone took 8 passes
    cfg = ExperimentConfig(command="flow", regularity=0.1, samples=1)
    law = cfg.law
    shapes = flowed_shapes(monkeypatch)
    (record,) = _image_chunk(_curve, cfg, range(1))
    assert shapes == [(1, 128, 2)]
    assert record["sample"] == 0
    assert record["error"].startswith(f"RefinementOverflow: curve refinement would take an "
                                      f"image past {flow.MAX_IMAGE_VERTICES} vertices: it needs ")


def test_draw_stuck_below_double_precision_is_refused(monkeypatch):
    # draw 73 of seed 0 at regularity 2 (frequency units, intersections
    # defaults): after 46 passes a source segment one ulp long still has an
    # image gap above the threshold, and its midpoint rounds onto an
    # endpoint, so no pass can split it; it is refused before the pass that
    # would flow the duplicate, where the budget test alone took 1,800 passes
    cfg = ExperimentConfig(command="intersections", regularity=2.0)
    law = cfg.law
    shapes = flowed_shapes(monkeypatch)
    (record,) = _image_chunk(_curve, cfg, range(73, 74))
    assert record["sample"] == 73
    assert record["error"].startswith("RefinementOverflow: curve refinement cannot split a "
                                      "source segment of length ")
    assert record["error"].endswith(f" exceeds {cfg.refinement_threshold:g}")
    assert len(shapes) == 47


class TestZeroFlux:
    """A Hamiltonian diffeomorphism has zero flux, so the image of K = {y = 1/2}
    bounds zero signed area against K and meets it: every image crosses L8
    (y = 1/2) at least twice."""

    # 16 draws per law at the CLI's defaults, seed fixed before the counts
    # were seen
    @pytest.mark.parametrize("r", [4.5, 3.95])
    def test_every_image_crosses_l8_at_least_twice(self, r):
        cfg = ExperimentConfig(command="intersections", regularity=r, samples=16, seed=11,
                               workers=1)
        records = run_intersections(cfg)
        assert len(records) == 16
        assert [record for record in records if "error" in record or record["L8"] < 2] == []

    def test_regularity_3_draws_past_12_passes_resolve(self):
        # draws 35, 40 and 62 of seed 0 at regularity 3 (frequency units,
        # other keys at their defaults) each take 13 refinement passes, to
        # 1,357, 1,305 and 1,531 vertices, where a 12-pass cap failed them
        cfg = ExperimentConfig(command="intersections", regularity=3.0)
        law = cfg.law
        hs = [sample_hamiltonian(law, cfg.seed, 0, i) for i in (35, 40, 62)]
        images = advect_curves(PackedBatch(hs), horizontal_circle(0.5, 128), 1.0,
                               flow_steps(law, cfg.steps), cfg.refinement_threshold)
        assert all(isinstance(image, LagrangianCurve) for image in images)
        assert all(1024 < len(image) < 2048 for image in images)
        assert all(dict(zip(LAGRANGIANS, count_crossings(image)))["L8"] >= 2
                   for image in images)


def test_intersection_counts_share_the_means_the_law_symmetries_give():
    # The law of the time-1 map is invariant under conjugation by
    # x-translations, which fix K = {y = 1/2} and carry each line {x = c} to
    # another, so L1, L2 and L3 count with one law; it is also invariant
    # under (x, y) -> (x, 1 - y) with H -> -H o sigma, which fixes K and swaps
    # L7 and L9.  So each per-image difference has mean 0.  400 draws at the
    # intersections defaults, seed fixed before the counts were seen.
    cfg = ExperimentConfig(command="intersections", samples=400, seed=20, workers=1)
    records = run_intersections(cfg)
    assert [record for record in records if "error" in record] == []
    counts = {label: np.array([record[label] for record in records], dtype=float)
              for label in ("L1", "L2", "L3", "L7", "L9")}
    for a, b in (("L1", "L2"), ("L1", "L3"), ("L2", "L3"), ("L7", "L9")):
        difference = counts[a] - counts[b]
        assert abs(difference.mean()) <= 4.0 * standard_error(difference), (a, b)
    # Each image has homology class (1, 0), and a line's level function
    # a x + b y - c changes by exactly a around it, so the image crosses the
    # line at least |a| times, with the parity of a: a = 1 for L1-L3 and
    # L10-L12, 2, 3 and 4 for L4-L6, 0 for L7-L9.  A circle bounds a disk,
    # so its count is even.
    least = {**dict.fromkeys(("L1", "L2", "L3", "L10", "L11", "L12"), 1), "L4": 2, "L5": 3,
             "L6": 4, **dict.fromkeys(("L7", "L8", "L9", "L13", "L14"), 0)}
    assert sorted(least) == sorted(LAGRANGIANS)
    for record in records:
        for label, a in least.items():
            assert record[label] >= a and (record[label] - a) % 2 == 0, (record["sample"], label)


class TestBatchedChunks:
    """Regularity 3 keeps the cap of 40 steps; regularity 5 takes 7."""

    def test_diffusion_chunk_matches_per_draw_flows(self):
        check_diffusion_chunk(3.0, 40)

    def test_displacement_chunk_matches_per_draw_flows(self):
        check_displacement_chunk(3.0, 40)

    def test_smooth_diffusion_chunk_flows_at_its_step_count(self):
        check_diffusion_chunk(5.0, 7)

    def test_smooth_displacement_chunk_flows_at_its_step_count(self):
        check_displacement_chunk(5.0, 7)

    def test_diffusion_chunk_draws_head_rows_and_points_from_their_own_stream(self,
                                                                              monkeypatch):
        # at spatial_max 12 a draw's head is 128 of its 576 rows (at
        # spatial_max 5, 80 of 100); which streams the chunk derives is
        # test_chunk_task_derives_its_streams_in_order[diffusion]'s check
        cfg = ExperimentConfig(command="diffusion", regularity=3.0, spatial_max=12, steps=40,
                               points=12, samples=5, seed=2)
        law = cfg.law
        assert (law.head_rows, len(law.basis())) == (128, 576)
        clouds = []
        monkeypatch.setattr(experiments, "flow_points_through", lambda batch, pts, *args:
                            clouds.append(pts.copy()) or flow_points_through(batch, pts, *args))
        _diffusion_chunk(cfg, range(1, 5))
        (pts,) = clouds
        for row, i in enumerate(range(1, 5)):
            assert np.array_equal(pts[row], _ball_points(derive(2, 0, i, 1), cfg.ball_center,
                                                         cfg.ball_radius, cfg.points))
        monkeypatch.undo()
        check_diffusion_chunk(3.0, 40, spatial_max=12)
        check_diffusion_chunk(5.0, 7, spatial_max=12)


# Each chunk task, by the command it serves, and the stream keys it derives
# for samples 1-3 at seed 2, in order: ``field`` derives each draw's stream
# (module docstring of ``experiments``, "Streams and chunks") and
# ``experiments`` diffusion's ball points'.
STREAM_SAMPLES = range(1, 4)
CHUNK_STREAMS = {
    "image": ("flow", partial(_image_chunk, _curve),
              {"field": [(2, 0, i) for i in STREAM_SAMPLES], "experiments": []}),
    "osc": ("sample-field", _osc_chunk,
            {"field": [(2, 0, i) for i in STREAM_SAMPLES], "experiments": []}),
    "displacement": ("inversion", _displacement_chunk,
                     {"field": [(2, b, i) for b in (0, 1) for i in STREAM_SAMPLES],
                      "experiments": []}),
    "walk": ("random-walk", _walk_chunk,
             {"field": [(2, w, j) for j in range(2) for w in STREAM_SAMPLES], "experiments": []}),
    "diffusion": ("diffusion", _diffusion_chunk,
                  {"field": [(2, 0, i) for i in STREAM_SAMPLES],
                   "experiments": [(2, 0, i, 1) for i in STREAM_SAMPLES]}),
}


@pytest.mark.parametrize("name", CHUNK_STREAMS)
def test_chunk_task_derives_its_streams_in_order(name, monkeypatch):
    # one derivation of each draw's stream, for its head (reading a draw's
    # whole (N, m) normals would derive it again): the forward draws, then
    # the inverse ones, and the walks step by step
    command, task, expected = CHUNK_STREAMS[name]
    cfg = ExperimentConfig(command=command, regularity=5.0, spatial_max=5, temporal_max=3,
                           kernel="constant" if command == "random-walk" else "periodic",
                           curve_vertices=32, points=8, walk_steps=2, samples=4, seed=2,
                           workers=1)
    keys = {"field": [], "experiments": []}
    for module_name, module in (("field", field), ("experiments", experiments)):
        monkeypatch.setattr(module, "derive", lambda *key, module_name=module_name:
                            keys[module_name].append(key) or derive(*key))
    records = task(cfg, STREAM_SAMPLES)
    assert len(records) == 3 and not any("error" in record for record in records)
    assert keys == expected


def test_inversion_chunk_peak_memory():
    """The tracemalloc peak of one CHUNK-index inversion chunk (spatial_max
    25, regularity 3, band 5, temporal band 5, 58 steps) stays within
    1.25 x the bytes of its 2 * CHUNK packed field grids
    plus one block of stage grids: the batch holds field grids only, one row
    per time-basis column of the temporal band, and one stage block at a
    time."""
    cfg = ExperimentConfig(command="inversion", regularity=3.0, spatial_max=25,
                           samples=CHUNK, workers=1)
    law = cfg.law
    _displacement_chunk(cfg, range(1))  # the basis and engine are built once per process
    grid_bytes = np.prod(law.engine().field_shape) * 8
    rows = 2 * CHUNK
    held = (1 + 2 * law.temporal_band + len(_STAGE_OFFSETS)) * rows * grid_bytes
    tracemalloc.start()
    try:
        _displacement_chunk(cfg, range(CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held, (peak, held)


class TestWalkChunks:
    """random-walk flows each step at its law's count: 7 steps at regularity 5
    (constant kernel, frequency units)."""

    cfg = ExperimentConfig(command="random-walk", regularity=5.0, spatial_max=5,
                           kernel="constant", samples=4, walk_steps=3, seed=6, workers=1)

    def test_chunk_equals_per_walk_flows_at_the_law_count(self):
        cfg = self.cfg
        law = cfg.law
        assert flow_steps(law, cfg.steps) == 7
        records = _walk_chunk(cfg, range(1, 4))
        assert [record["walk"] for record in records] == [1, 2, 3]
        for w, traj in zip(range(1, 4), (record["trajectory"] for record in records)):
            state = np.array([cfg.probe]) % 1.0
            expected = [state[0]]
            for j in range(cfg.walk_steps):
                step = sample_hamiltonian(law, cfg.seed, w, j)
                state = flow_one(step, state, 0.0, 1.0, 7)
                expected.append(state[0] % 1.0)
            assert np.array_equal(traj, np.array(expected))

    def test_walk_agrees_with_its_generating_hamiltonian(self):
        # the concatenation has no law: it flows at steps x parts; row 0 is
        # the probe.  Its parts hold their whole normals (``full_draw``), as
        # ``concatenate_autonomous`` needs: at spatial_max 5 a head is 80 of
        # 100 rows
        cfg = self.cfg
        law = cfg.law
        assert (law.head_rows, len(law.basis())) == (80, 100)
        walk = tuple(full_draw(law, cfg.seed, 0, j) for j in range(cfg.walk_steps))
        combined = concatenate_autonomous(walk, BumpFunction())
        pts = np.concatenate([[cfg.probe], np.random.default_rng(1).uniform(0, 1, (20, 2))])
        lhs = flow_concatenation(PackedBatch([combined]), pts[None], 0.0, 1.0, cfg.steps)[0]
        rhs = apply_walk(walk, pts, 7)
        (record,) = _walk_chunk(cfg, range(1))
        rhs[0] = record["trajectory"][-1]
        assert np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1).max() < 1e-4


# ---------------------------------------------------------------------------
# Step counts from the law (flow_steps)
# ---------------------------------------------------------------------------

# (kernel, regularity in frequency units, spatial_max, temporal_max, axis modes)
RULE_LAWS = ([(kernel, r, 25, 10, False) for kernel in ("periodic", "constant", "sqexp")
              for r in (3, 3.5, 4, 4.5, 5, 6, 8)]
             + [("periodic", r, 25, 20, False) for r in (6, 8)]
             + [("periodic", 5, 10, 10, True), ("periodic", 8, 25, 10, True)])


@pytest.mark.parametrize("kernel,r,spatial_max,temporal_max,axis_modes", RULE_LAWS)
def test_step_count_error_within_the_200_step_error(kernel, r, spatial_max, temporal_max,
                                                    axis_modes):
    """The law's count errs by at most max(1.5e-6, the 200-step error), both
    against a 1,600-step flow, over 8 draws x 16 points."""
    law = make_law(r, spatial_max=spatial_max, temporal_max=temporal_max, kernel=kernel,
                   include_axis_modes=axis_modes)
    batch = PackedBatch(draws(8, seed=17, law=law))
    pts = np.broadcast_to(derive(17, 1, 0).uniform(0.0, 1.0, (16, 2)), (8, 16, 2))

    def error(steps):
        return np.abs(flow_points(batch, pts, 0.0, 1.0, steps) - reference).max()

    reference = flow_points(batch, pts, 0.0, 1.0, 1600)
    err = error(flow_steps(law, 200))
    assert err <= 1.5e-6 or err <= error(200), err


def test_periodic_law_at_regularity_three_takes_58_steps():
    law = make_law(3.0, spatial_max=25, temporal_max=10)
    assert flow_steps(law, 200) == 58
    assert flow_steps(law, 50) == 50


def test_config_laws_step_counts():
    """Counts of the config's laws (frequency units, CLI defaults otherwise);
    the command defaults, regularity 0.1 and diffusion's 0.08, stay at the cap."""
    counts = {r: flow_steps(ExperimentConfig(regularity=r).law, 200)
              for r in (0.08, 0.1, 2.0, 3.0, 3.16, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0)}
    assert counts == {0.08: 200, 0.1: 200, 2.0: 200, 3.0: 58, 3.16: 48, 3.5: 33,
                      4.0: 20, 4.5: 12, 5.0: 7, 6.0: 3, 8.0: 2}


def test_flow_points_takes_exactly_the_requested_steps(monkeypatch):
    calls = []
    original = SpectralEngine.vector_field

    def counted(self, fields, pts, *buffers):
        calls.append(1)
        return original(self, fields, pts, *buffers)

    monkeypatch.setattr(SpectralEngine, "vector_field", counted)
    law = make_law(8.0, spatial_max=4, temporal_max=3)
    assert flow_steps(law, 200) < 200
    for steps in (3, 200):
        calls.clear()
        flow_points(PackedBatch(draws(2, law=law)), np.full((2, 5, 2), 0.4), 0.0, 1.0, steps)
        assert len(calls) == 7 * steps


def _bounds(cfg, samples):
    return [(samples.start, samples.stop, i) for i in samples]


def chunk_lengths(samples, workers):
    """The chunk lengths of ``_run_chunks`` at the given counts, checked to
    cover the indices in order, each chunk one consecutive run."""
    cfg = ExperimentConfig(samples=samples, workers=workers, spatial_max=4)
    results = _run_chunks(_bounds, cfg)
    assert [i for *_, i in results] == list(range(samples))
    assert all(start <= i < stop for start, stop, i in results)
    bounds = sorted({(start, stop) for start, stop, _ in results})
    assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
    return [stop - start for start, stop in bounds]


@pytest.mark.parametrize("samples", [1, 5, 16, 35, 65])
@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_hold_chunk_indices_or_one_share_per_worker(samples, workers):
    # the fewest chunks of at most CHUNK indices whose count is a multiple of
    # the workers, or one per index below that many samples
    lengths = chunk_lengths(samples, workers)
    assert max(lengths) <= CHUNK and max(lengths) - min(lengths) <= 1
    assert len(lengths) == min(samples, workers * math.ceil(samples / (CHUNK * workers)))


@pytest.mark.parametrize("samples,workers,expected", [
    (100, 2, [25] * 4), (64, 2, [32] * 2), (8, 1, [8]), (5, 4, [2, 1, 1, 1]),
    (1000, 3, [31] * 10 + [30] * 23)])
def test_chunks_are_balanced(samples, workers, expected):
    lengths = chunk_lengths(samples, workers)
    assert lengths == expected
    assert max(lengths) <= CHUNK and max(lengths) - min(lengths) <= 1
    assert len(lengths) % workers == 0 or len(lengths) == samples


@pytest.fixture
def eight_cpus(monkeypatch):
    """A process that may run on eight CPUs, so that a run forks one child per
    worker and chunk whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.mark.usefixtures("eight_cpus")
@pytest.mark.parametrize("samples,workers", [(2, 4), (3, 8)])
def test_run_forks_no_more_processes_than_chunks(samples, workers, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    # fewer samples than workers: one chunk per sample, and one child each
    assert len(chunk_lengths(samples, workers)) == samples
    assert len(forks) == min(workers, samples)


def test_run_forks_no_more_children_than_cpus(monkeypatch):
    # 64 samples at workers 64 are 64 one-sample chunks: on two CPUs they run
    # in two children, with the records of workers 1; on one, in this process
    processes = []

    def in_process(chunks, count):
        processes.append(count)
        return [experiments._run_chunk(chunk) for chunk in chunks]

    monkeypatch.setattr(experiments, "_forked", in_process)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(samples=64, workers=64, spatial_max=2)
    assert len(chunk_lengths(64, 64)) == 64
    records = experiments.oscillation_samples(cfg)
    assert processes == [2, 2]
    assert records == experiments.oscillation_samples(replace(cfg, workers=1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments.oscillation_samples(cfg) == records
    assert processes == [2, 2]


def test_run_stays_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    cfg = ExperimentConfig(samples=4, workers=2, spatial_max=2)
    assert _run_chunks(lambda cfg, samples: [os.getpid() for _ in samples],
                       cfg) == [os.getpid()] * 4


def _fail_from_sample_one(cfg, samples):
    if 1 in samples:
        raise ValidationError("samples", f"refused in chunk {samples.start}")
    return [{"sample": i, "osc": 1.0} for i in samples]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("eight_cpus")
def test_forked_task_error_reaches_the_parent(tmp_path, capsys, monkeypatch):
    # three samples on three workers are three chunks, each in its own
    # child; the one holding sample 1 raises, the others finish
    cfg = ExperimentConfig(samples=3, workers=3, spatial_max=2)
    with pytest.raises(ValidationError, match=r"^samples: refused in chunk 1$"):
        _run_chunks(_fail_from_sample_one, cfg)
    assert_no_child_left()
    monkeypatch.setattr(experiments, "_osc_chunk", _fail_from_sample_one)
    (tmp_path / "two.txt").write_text("samples = 4\nworkers = 2\nspatial_max = 2\n")
    argv = ["sample-field", "--config", str(tmp_path / "two.txt"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: ValidationError: samples: refused in chunk 0\n"
    assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_child_that_sends_nothing_raises():
    cfg = ExperimentConfig(samples=2, workers=2, spatial_max=2)
    with pytest.raises(ChildProcessError, match=r"sent no records \(exit status 3\)"):
        _run_chunks(lambda cfg, samples: os._exit(3), cfg)
    assert_no_child_left()


@pytest.mark.usefixtures("eight_cpus")
def test_dead_chunk_child_exits_with_one_error_line(tmp_path, capsys, monkeypatch):
    # 64 samples on two workers are two chunks, each in its own child; the
    # second child dies before it sends its records
    def die_in_second_chunk(cfg, samples):
        if samples.start:
            os._exit(3)
        return [{"sample": i, "osc": 1.0} for i in samples]

    monkeypatch.setattr(experiments, "_osc_chunk", die_in_second_chunk)
    (tmp_path / "two.txt").write_text("samples = 64\nworkers = 2\nspatial_max = 2\n")
    argv = ["sample-field", "--config", str(tmp_path / "two.txt"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: ChildProcessError: chunk child \d+ sent no records "
                        r"\(exit status 3\)\n", err), err
    assert_no_child_left()


def test_task_receives_the_law_of_its_regularity():
    cfg = ExperimentConfig(regularity=4.5, spatial_max=4, samples=3, workers=1)
    laws = _run_chunks(lambda cfg, samples: [cfg.law for _ in samples], cfg)
    assert len(laws) == 3 and all(law is cfg.law for law in laws)
    assert laws[0].regularity == 4.5


@pytest.mark.usefixtures("eight_cpus")
def test_config_holds_its_law():
    # a bad law key is refused when the config is built, by the law's check
    with pytest.raises(ValidationError) as info:
        ExperimentConfig(temporal_max=0)
    assert str(info.value) == "temporal_max: must be >= 1"
    # equal configs hold equal laws, which share one engine; the law is no key
    cfg = ExperimentConfig(regularity=3.0, spatial_max=6, temporal_max=3, samples=4, seed=1)
    again = replace(cfg)
    assert again == cfg and again.law is not cfg.law
    assert again.law == cfg.law == make_law(3.0, 6, 3)
    assert again.law.engine() is cfg.law.engine()
    assert "law" not in {f.name for f in fields(cfg)}
    # every chunk gets cfg.law itself: in this process at workers 1, and in
    # two forked children at workers 2 (a child shares the parent's addresses)
    for workers, children in ((1, 0), (2, 2)):
        run = replace(cfg, workers=workers)
        got = _run_chunks(lambda cfg, samples: [(os.getpid(), id(cfg.law)) for _ in samples],
                          run)
        assert [law for _, law in got] == [id(run.law)] * run.samples
        pids = {pid for pid, _ in got} - {os.getpid()}
        assert len(pids) == children
    assert_no_child_left()


@pytest.mark.parametrize("command,task", [("random-walk", _walk_chunk),
                                          ("inversion", _displacement_chunk)],
                         ids=["random-walk", "inversion"])
def test_one_point_flows_do_not_depend_on_chunk_length(command, task):
    # each draw flows one point, whose image must not depend on how many
    # draws its batch holds: the same records at chunk lengths 1 to 64
    cfg = ExperimentConfig(command=command, regularity=3.0, spatial_max=6, temporal_max=3,
                           kernel="constant" if command == "random-walk" else "periodic",
                           samples=64, walk_steps=2, seed=3, workers=1)
    law = cfg.law
    runs = [[record for start in range(0, 64, length)
             for record in task(cfg, range(start, min(start + length, 64)))]
            for length in (1, 7, 32, 64)]
    for records in runs[:-1]:
        assert len(records) == 64
        for got, want in zip(records, runs[-1]):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in got)


def test_benchmark_reference_displacements_stay_within_1e_7():
    """The benchmark's ``inversion`` reference invocation, recomputed in
    process: the config ``perfbench/workloads.py`` writes at seed 0 for its 8
    reference samples.  Every displacement lies within 1e-7 of the value
    ``perfbench/reference.json`` stores, a tenth of the benchmark's 1e-6
    tolerance, so a step rule that drifts toward that tolerance fails here
    before it fails the benchmark."""
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())["inversion"]
    cfg = ExperimentConfig(command="inversion", regularity=3.0, spatial_max=25,
                           temporal_max=10, kernel="periodic", steps=200, seed=0, samples=8,
                           workers=1)
    records = run_inversion_test(cfg)
    for branch in ("forward", "inverse"):
        got = np.array([record[branch] for record in records])
        want = np.array(reference[branch])
        assert len(got) == len(want) == cfg.samples
        assert np.abs(got - want).max() <= 1e-7


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count(ExperimentConfig(workers=0)) == 3
    assert worker_count(ExperimentConfig(workers=2)) == 2
    # platforms without sched_getaffinity count every CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(ExperimentConfig(workers=0)) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(ExperimentConfig(workers=0)) == 1


def test_chunk_results_do_not_depend_on_chunk_boundaries():
    cfg = intersections_config(samples=5)
    whole = intersection_chunk(cfg, 0, 5)
    split = intersection_chunk(cfg, 0, 3) + intersection_chunk(cfg, 3, 5)
    assert whole == split


def test_oscillation_table_adds_the_survival_of_the_sorted_osc():
    # the mean table of the osc, and one survival row per sample: the osc in
    # ascending order less their mean, the i-th of n surviving 1 - (i - 1/2) / n
    cfg = ExperimentConfig(samples=9, spatial_max=3, temporal_max=2, seed=4, workers=1)
    records = oscillation_samples(cfg)
    outputs = oscillation_table(cfg, records)
    assert outputs == {**mean_table(cfg, records), "survival": outputs["survival"]}
    mean = float(np.mean([record["osc"] for record in records]))
    osc = sorted(record["osc"] for record in records)
    assert outputs["survival"] == [{"u": x - mean, "survival": 1.0 - (i - 0.5) / 9}
                                   for i, x in enumerate(osc, start=1)]


# ---------------------------------------------------------------------------
# Standard errors
# ---------------------------------------------------------------------------

def test_standard_error_is_the_plain_formula_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (2, 3, 17, 1000):
        for scale in (1e-100, 1e-3, 1.0, 7.0, 1e100):
            values = scale * rng.standard_normal(n)
            assert standard_error(values) == values.std(ddof=1) / math.sqrt(n)
    assert standard_error([3.0]) == 0.0
    assert standard_error([]) == 0.0
    assert standard_error([0.0, 0.0, 0.0]) == 0.0


def test_standard_error_stays_finite_near_1e187():
    # values whose plain squares overflow a double: standard_error scales them first
    values = np.array([7.1e186, -2.3e186, 9.8e186, 4.4e186])
    with np.errstate(over="ignore"):
        assert not math.isfinite(values.std(ddof=1))
    expected = 1e186 * (values / 1e186).std(ddof=1) / 2.0
    assert standard_error(values) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# The inversion KS test against scipy.stats.ks_2samp
# ---------------------------------------------------------------------------

def ks_cases():
    """(name, a, b): shifted normals, tied values, identical samples (h = 0)
    and samples whose top h values are moved away (h = 1, 2; near p = 1,
    where scipy's exact sum can round above 1)."""
    rng = np.random.default_rng(20251003)
    for n in [*range(1, 301), 1000, 10000]:
        x = rng.standard_normal(n)
        yield f"shift-{n}", x, rng.standard_normal(n) + 0.5
        yield f"ties-{n}", rng.integers(0, 5, n).astype(float), rng.integers(0, 5, n).astype(float)
        yield f"same-{n}", x, x[::-1].copy()
        for h in range(1, min(n, 2) + 1):
            a = np.arange(n, dtype=float)
            b = a.copy()
            b[n - h:] += n
            yield f"top{h}-{n}", a, b


def scipy_ks(a, b, **kwargs):
    """scipy's (statistic, p-value) and whether it left the exact method;
    skips the calling test where scipy is not installed."""
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = stats.ks_2samp(a, b, **kwargs)
    fell_back = any("Switching to method=asymp" in str(w.message) for w in caught)
    return (float(ref.statistic), float(ref.pvalue)), fell_back


def test_ks_matches_scipy_bit_for_bit():
    for name, a, b in ks_cases():
        got = _ks_two_sample(a, b)
        expected, fell_back = scipy_ks(a, b)
        if got == expected:
            continue
        # scipy's exact sum rounded above 1 and it switched to kstwo.sf; the
        # statistic still agrees, and the clipped exact value reads 1
        assert fell_back, (name, got, expected)
        assert got[0] == expected[0] and got[1] == 1.0, name
        assert abs(got[1] - expected[1]) < 1e-4, name


def test_ks_stays_exact_above_scipy_auto_limit():
    rng = np.random.default_rng(12000)
    a, b = rng.standard_normal(12000), rng.standard_normal(12000) + 0.02
    expected, fell_back = scipy_ks(a, b, method="exact")
    assert not fell_back
    assert _ks_two_sample(a, b) == expected


def test_inversion_test_equals_scipy_on_its_own_samples():
    cfg = ExperimentConfig(command="inversion", regularity=8.0, spatial_max=2,
                           temporal_max=3, steps=50, samples=12, seed=3, workers=1)
    records = run_inversion_test(cfg)
    test, = inversion_test(cfg, records)["test"]
    expected, _ = scipy_ks(*(np.array([record[branch] for record in records])
                             for branch in ("forward", "inverse")))
    assert (test["statistic"], test["p_value"]) == expected

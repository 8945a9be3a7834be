"""Tests for the experiment runner, batched curve advection, crossing counts
and the inversion KS test (against scipy, which the tests alone use; the
tests that compare with it skip where scipy is not installed)."""

import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hamflow.config import LAGRANGIANS, ExperimentConfig
from hamflow.errors import DegenerateOverlap, HamflowError, NonFinite, RefinementOverflow
from hamflow.engine import SpectralEngine
from hamflow import cli, flow
from hamflow.experiments import (CHUNK, _advected_chunk, _ball_points,
                                 _bin_counts, _diffusion_chunk, _displacement_chunk,
                                 _intersection_chunk, _ks_two_sample, _run_chunks, _settings_for,
                                 _walk_chunk,
                                 count_crossings, flow_steps, inversion_test, law_for,
                                 mean_table, run_intersections,
                                 run_inversion_test, standard_error, worker_count)
from hamflow.field import PackedBatch, RandomHamiltonian, make_law, sample_hamiltonian
from hamflow.flow import (_STAGE_OFFSETS, FlowSettings, LagrangianCurve, advect_curve,
                          advect_curves, flow_points, flow_points_through, horizontal_circle,
                          time_reversed_hamiltonian)
from hamflow.rng import derive
from hamflow.walk import sample_walk
from reference import (BumpFunction, apply_walk, circle_curve, concatenate_autonomous,
                       crossings, flow_concatenation, reference_advect, reference_images,
                       sloped_circle, vertical_circle)

# At this law and threshold, under an image budget of BUDGET vertices, some
# draws finish after one or two refinement passes and others overflow.  The
# batched and one-draw paths must agree at any step count, so the flows
# take the law's own 21.
LAW = make_law(0.1, spatial_max=4, temporal_max=3)
SETTINGS = FlowSettings(steps=21, refinement_threshold=0.02)
BUDGET = 160


@pytest.fixture
def budget(monkeypatch):
    """Images of at most BUDGET vertices (``flow.MAX_IMAGE_VERTICES``)."""
    monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", BUDGET)


def draws(count, seed=9, law=LAW):
    return [sample_hamiltonian(law, seed, 0, i) for i in range(count)]


def assert_matches_reference(hamiltonians, images, curve, t, settings):
    assert len(images) == len(hamiltonians)
    for h, image in zip(hamiltonians, images):
        expected = reference_advect(h, curve, t, settings)
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
        images = advect_curves(hs, curve, 1.0, SETTINGS)
        assert_matches_reference(hs, images, curve, 1.0, SETTINGS)
        for h, image in zip(hs, images):
            if isinstance(image, HamflowError):
                with pytest.raises(RefinementOverflow):
                    advect_curve(h, curve, 1.0, SETTINGS)
            else:
                assert np.array_equal(advect_curve(h, curve, 1.0, SETTINGS).vertices,
                                      image.vertices)

    def test_both_outcomes_occur(self):
        images = advect_curves(draws(17), horizontal_circle(0.5, 64), 1.0, SETTINGS)
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
        images = advect_curves(hs, curve, 0.7, SETTINGS)
        assert_matches_reference(hs, images, curve, 0.7, SETTINGS)
        assert any(isinstance(image, LagrangianCurve) for image in images)

    def test_packed_batch_input_equals_list_input(self):
        hs = draws(5)
        curve = circle_curve((0.4, 0.6), 0.1, 48)
        batch = PackedBatch(capacity=5)
        for h in hs:
            batch.append(h)
        a = advect_curves(batch, curve, 1.0, SETTINGS)
        b = advect_curves(hs, curve, 1.0, SETTINGS)
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
            assert isinstance(advect_curves([h], curve, 1.0, SETTINGS)[0], RefinementOverflow)
        monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", BUDGET)
        hs = [multi[0], zero, multi[1]]
        images = advect_curves(hs, curve, 1.0, SETTINGS)
        assert_matches_reference(hs, images, curve, 1.0, SETTINGS)
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
        (alone,) = advect_curves([weak], curve, 1.0, SETTINGS)
        beside = advect_curves([weak, strong], curve, 1.0, SETTINGS)
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
        # finite range, so its row drops and the other four flow again
        curve, strong, weak = self.lone_midpoint_draws()
        gaussians = np.array(strong.gaussians)
        gaussians[0, 0] = np.inf
        hs = [strong, weak, RandomHamiltonian(LAW, gaussians)]
        mids = curve.vertices[:-1] + [0.005, 0.0]
        points = [mids[:40], mids[7:8], mids[:3]]
        shapes = flowed_shapes(monkeypatch)
        out = [None] * 3
        with np.errstate(all="ignore"):
            images = flow._flow_rows(PackedBatch(hs), [0, 1, 2], points, 1.0, SETTINGS, out)
            with pytest.raises(NonFinite) as alone:
                reference_images(hs[2], points[2], 1.0, SETTINGS)
        assert shapes == [(5, 15, 2), (4, 15, 2)]
        assert sorted(images) == [0, 1] and out[:2] == [None, None]
        for s in (0, 1):
            assert np.array_equal(images[s], reference_images(hs[s], points[s], 1.0, SETTINGS))
        assert isinstance(out[2], NonFinite) and str(out[2]) == str(alone.value)
        # the whole loop: the weak draw's pass of one midpoint beside the
        # strong draw's several, after the third draw failed at pass 0
        monkeypatch.setattr(flow, "flow_points", flow_points)
        with np.errstate(all="ignore"):
            assert_matches_reference(hs, advect_curves(hs, curve, 1.0, SETTINGS), curve, 1.0,
                                     SETTINGS)

    def test_refinement_pass_of_near_equal_sets_flows_one_row_per_draw(self, monkeypatch):
        # sets of 40, 39 and 38 points: rows of the mean width, 39, would
        # flow 156 points in four rows, rows of the widest 120 in three
        hs = draws(3)
        mids = horizontal_circle(0.5, 64).vertices[:40] + [0.0, 0.005]
        points = [mids, mids[:39], mids[:38]]
        shapes = flowed_shapes(monkeypatch)
        images = flow._flow_rows(PackedBatch(hs), range(3), points, 1.0, SETTINGS, [None] * 3)
        assert shapes == [(3, 40, 2)]
        for s in range(3):
            assert np.array_equal(images[s], reference_images(hs[s], points[s], 1.0, SETTINGS))

    def test_non_finite_draw_fails_alone(self):
        hs = draws(3)
        gaussians = np.array(hs[1].gaussians)
        gaussians[0, 0] = np.inf
        hs[1] = RandomHamiltonian(LAW, gaussians)
        curve = horizontal_circle(0.5, 64)
        with np.errstate(all="ignore"):
            images = advect_curves(hs, curve, 1.0, SETTINGS)
            with pytest.raises(NonFinite, match="finite range"):
                advect_curve(hs[1], curve, 1.0, SETTINGS)
        assert isinstance(images[1], NonFinite)
        others = [hs[0], hs[2]]
        assert_matches_reference(others, [images[0], images[2]], curve, 1.0, SETTINGS)

    def test_flow_points_names_the_non_finite_draws(self):
        hs = draws(4)
        for bad in (1, 3):
            gaussians = np.array(hs[bad].gaussians)
            gaussians[0, 0] = np.inf
            hs[bad] = RandomHamiltonian(LAW, gaussians)
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            flow_points(hs, np.full((4, 2, 2), 0.5), 0.0, 1.0, SETTINGS)
        assert info.value.draws == (1, 3)

    def test_rows_select_a_sub_batch(self):
        hs = draws(6)
        batch = PackedBatch(hs)
        sub = batch.rows([3, 1])
        assert len(sub) == 2
        phi = batch.time_basis(np.linspace(0.0, 1.0, 5))
        assert np.array_equal(sub.field_grids(phi), PackedBatch([hs[3], hs[1]]).field_grids(phi))
        want = batch.field_grids(phi)
        # runs of consecutive rows, lone rows, reversals, and a sub-batch's rows
        for sub, rows in ((sub, [3, 1]), (batch.rows([1, 2, 3, 5, 0]), [1, 2, 3, 5, 0]),
                          (batch.rows([0, 2, 3, 4]).rows([3, 1, 2]), [4, 2, 3])):
            assert np.array_equal(sub.field_grids(phi), want[:, rows])

    def test_append_past_capacity_raises(self):
        hs = draws(3)
        for batch in (PackedBatch(capacity=2), PackedBatch(hs[:2]), PackedBatch(hs).rows([2, 0])):
            while len(batch) < 2:
                batch.append(hs[len(batch)])
            with pytest.raises(ValueError, match="capacity of 2"):
                batch.append(hs[2])
            assert len(batch) == 2

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
    # of the catalog twice, and a loop at x = 0.25 misses both.
    HORIZONTAL = {"L1": 1, "L2": 1, "L3": 1, "L4": 2, "L5": 3, "L6": 4, "L7": 0, "L8": 0,
                  "L9": 0, "L10": 1, "L11": 1, "L12": 1, "L13": 2, "L14": 2}
    VERTICAL = {"L1": 0, "L2": 0, "L3": 0, "L4": 1, "L5": 1, "L6": 1, "L7": 1, "L8": 1,
                "L9": 1, "L10": 2, "L11": 3, "L12": 4, "L13": 0, "L14": 0}
    SLOPED = {"L1": 1, "L2": 1, "L3": 1, "L7": 2, "L8": 2, "L9": 2}

    @pytest.mark.parametrize("curve,expected", [(horizontal_circle(0.45, 128), HORIZONTAL),
                                                (vertical_circle(0.25, 128), VERTICAL),
                                                (sloped_circle(1, 2, 300), SLOPED)],
                             ids=["horizontal", "vertical", "sloped"])
    def test_straight_loops_under_zero_flow(self, curve, expected):
        zero = RandomHamiltonian(LAW, np.zeros_like(draws(1)[0].gaussians))
        (image,) = advect_curves([zero], curve, 1.0, FlowSettings(steps=20))
        assert np.array_equal(image.vertices, curve.vertices)
        assert {label: count_crossings(image, [label])[0] for label in expected} == expected

    @pytest.mark.parametrize("curve,label", [(vertical_circle(0.5, 64), "L2"),
                                             (horizontal_circle(0.3, 64), "L7")])
    def test_loop_on_the_level_set_is_degenerate(self, curve, label):
        with pytest.raises(DegenerateOverlap):
            count_crossings(curve, [label])

    @pytest.mark.usefixtures("budget")
    def test_one_pass_equals_each_lagrangian_alone(self):
        images = [image for image in advect_curves(draws(17), horizontal_circle(0.5, 64), 1.0,
                                                   SETTINGS)
                  if isinstance(image, LagrangianCurve)]
        assert len(images) >= 5
        labels = list(LAGRANGIANS)
        shuffled = [labels[i] for i in np.random.default_rng(0).permutation(14)]
        counts = set()
        for image in images:
            for order in (labels, shuffled):
                want = [crossings(image, label) for label in order]
                assert count_crossings(image, order) == want
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
        assert count_crossings(curve, [label]) == [expected] == [crossings(curve, label)]
        labels = list(LAGRANGIANS)
        assert count_crossings(curve, labels) == [crossings(curve, label) for label in labels]

    @pytest.mark.parametrize("labels", [["L1"], ["L1", "L7", "L13"], ["L13", "L7", "L1"],
                                        [f"L{i}" for i in range(14, 0, -1)]])
    def test_curve_along_a_line_is_degenerate_in_any_order(self, labels):
        with pytest.raises(DegenerateOverlap):
            count_crossings(vertical_circle(0.3, 64), labels)


def intersections_config(**changes):
    values = dict(command="intersections", regularity=(0.1 * 4 * math.pi**2,), spatial_max=4,
                  temporal_max=3, steps=50, refinement_threshold=0.02,
                  curve_vertices=64, samples=6, seed=9, workers=1,
                  lagrangians=("L1", "L5", "L7", "L13"))
    values.update(changes)
    return ExperimentConfig(**values)


def law_settings(cfg, law):
    """The flow settings of ``cfg`` at the law's step count."""
    return FlowSettings(steps=flow_steps(law, cfg.steps),
                        refinement_threshold=cfg.refinement_threshold)


def per_draw_outcomes(cfg, r_index=0):
    """The records of the one-sample-at-a-time loop: counts or error text."""
    law = law_for(cfg, cfg.regularity[r_index])
    settings = law_settings(cfg, law)
    outcomes = []
    for i in range(cfg.samples):
        draw = sample_hamiltonian(law, cfg.seed, r_index, i)
        try:
            image = advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices), 1.0, settings)
            outcomes.append({"sample": i, **{label: count_crossings(image, [label])[0]
                                             for label in cfg.lagrangians}})
        except HamflowError as exc:
            outcomes.append({"sample": i, "error": f"{type(exc).__name__}: {exc}"})
    return outcomes


class TestIntersectionChunks:
    """Within BUDGET vertices draws 1, 2 and 4 of ``intersections_config``
    overflow; within the module's budget none does."""

    @pytest.mark.usefixtures("budget")
    def test_overflowing_draw_fails_alone(self):
        cfg = intersections_config()
        outcomes = _intersection_chunk((cfg, 0, 0, cfg.samples))
        assert outcomes == per_draw_outcomes(cfg)
        failed = [o["error"] for o in outcomes if "error" in o]
        assert failed and len(failed) < cfg.samples
        assert all(msg.startswith("RefinementOverflow: ") for msg in failed)

    @pytest.mark.usefixtures("budget")
    def test_budget_message_matches_per_draw_loop(self, tmp_path):
        cfg = intersections_config(out=str(tmp_path))
        errors = [(cfg.regularity[0], o["sample"], o["error"]) for o in per_draw_outcomes(cfg)
                  if "error" in o]
        expected = (f"regularity {cfg.regularity[0]}: {len(errors)} of {cfg.samples} samples "
                    f"failed (budget 1%): {errors[:3]}")
        with pytest.raises(HamflowError) as info:
            cli.run(cfg)
        assert str(info.value) == expected

    def test_table_matches_per_draw_loop(self):
        cfg = intersections_config()
        outcomes = per_draw_outcomes(cfg)
        assert all("error" not in o for o in outcomes)
        records = run_intersections(cfg)
        assert records == outcomes
        outputs = mean_table(cfg, [records])
        assert outputs["records"] == records
        rows = {row[0]: row for row in outputs["table"]}
        assert list(rows) == list(cfg.lagrangians)
        for label in cfg.lagrangians:
            values = np.array([o[label] for o in outcomes], dtype=float)
            assert rows[label] == (label, cfg.regularity[0], float(values.mean()),
                                   standard_error(values), cfg.samples)

    def test_smooth_law_advects_at_its_step_count(self):
        # regularity 6 takes 3 of at most 50 steps
        cfg = intersections_config(regularity=(6.0,), samples=4)
        law = law_for(cfg, 6.0)
        assert flow_steps(law, cfg.steps) == 3
        settings = law_settings(cfg, law)
        for i, image in enumerate(_advected_chunk((cfg, 0, 0, cfg.samples))):
            draw = sample_hamiltonian(law, cfg.seed, 0, i)
            expected = advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices), 1.0,
                                    settings)
            assert np.array_equal(image.vertices, expected.vertices)


def check_diffusion_chunk(regularity, steps, spatial_max=5):
    cfg = ExperimentConfig(command="diffusion", regularity=(regularity,),
                           spatial_max=spatial_max, steps=40, points=12, samples=5, seed=2)
    law = law_for(cfg, regularity)
    assert flow_steps(law, cfg.steps) == steps
    settings = FlowSettings(steps=steps)
    records = _diffusion_chunk((cfg, 0, 1, 5))
    assert [record["sample"] for record in records] == [1, 2, 3, 4]
    for record, i in zip(records, range(1, 5)):
        counts, chi = record["counts"], record["chi_square"]
        # sample i's draw; its ball points follow its full (N, m) normals in its stream
        draw = sample_hamiltonian(law, cfg.seed, 0, i)
        rng = derive(cfg.seed, 0, i)
        rng.standard_normal(draw.gaussians.shape)
        pts = _ball_points(rng, cfg.ball_center, cfg.ball_radius, cfg.points)
        states = flow_points_through(draw, pts, cfg.times, settings)
        assert np.array_equal(counts, np.stack([_bin_counts(s, cfg.grid) for s in states]))
        assert chi.shape == (len(cfg.times),)


def check_displacement_chunk(regularity, steps):
    cfg = ExperimentConfig(command="inversion", regularity=(regularity,), spatial_max=5,
                           steps=40, samples=4, seed=2)
    law = law_for(cfg, regularity)
    assert flow_steps(law, cfg.steps) == steps
    settings = FlowSettings(steps=steps)
    probe = np.asarray(cfg.probe)

    def displacement(h, t0, t1):
        d = (flow_points(h, probe[None], t0, t1, settings)[0] - probe + 0.5) % 1.0 - 0.5
        return np.hypot(d[0], d[1])

    records = _displacement_chunk((cfg, 0, 1, 4))
    assert [record["sample"] for record in records] == [1, 2, 3]
    for i, record in zip(range(1, 4), records):
        forward, inverse = record["forward"], record["inverse"]
        assert forward == displacement(sample_hamiltonian(law, cfg.seed, 0, i), 0.0, 1.0)
        # the inverse draw's time reversal, flowed forward in the same batch
        draw = sample_hamiltonian(law, cfg.seed, 1, i)
        assert inverse == displacement(time_reversed_hamiltonian(draw), 0.0, 1.0)
        assert abs(inverse - displacement(draw, 1.0, 0.0)) <= 1e-12


class TestZeroFlux:
    """A Hamiltonian diffeomorphism has zero flux, so the image of K = {y = 1/2}
    bounds zero signed area against K and meets it: every image crosses L8
    (y = 1/2) at least twice."""

    # 16 draws per law at the CLI's defaults, seed fixed before the counts
    # were seen
    @pytest.mark.parametrize("r", [4.5, 3.95])
    def test_every_image_crosses_l8_at_least_twice(self, r):
        cfg = ExperimentConfig(command="intersections", regularity=(r,), samples=16, seed=11,
                               workers=1, lagrangians=("L8",))
        records = run_intersections(cfg)
        assert len(records) == 16
        assert [record for record in records if "error" in record or record["L8"] < 2] == []

    def test_regularity_3_draws_past_12_passes_resolve(self):
        # draws 35, 40 and 62 of seed 0 at regularity 3 (frequency units,
        # other keys at their defaults) each take 13 refinement passes, to
        # 1,357, 1,305 and 1,531 vertices, where a 12-pass cap failed them
        cfg = ExperimentConfig(command="intersections", regularity=(3.0,))
        law = law_for(cfg, 3.0)
        hs = [sample_hamiltonian(law, cfg.seed, 0, i) for i in (35, 40, 62)]
        images = advect_curves(hs, horizontal_circle(0.5, 128), 1.0, _settings_for(cfg, law))
        assert all(isinstance(image, LagrangianCurve) for image in images)
        assert all(1024 < len(image) < 2048 for image in images)
        assert all(count_crossings(image, ["L8"])[0] >= 2 for image in images)


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

    def test_diffusion_chunk_draws_its_points_after_the_full_normals(self):
        # at spatial_max 12 the draws hold 268 of 576 rows until the points
        # are drawn (at spatial_max 5 the head is every row)
        assert law_for(ExperimentConfig(regularity=(3.0,), spatial_max=12), 3.0).head_rows() == 268
        check_diffusion_chunk(3.0, 40, spatial_max=12)
        check_diffusion_chunk(5.0, 7, spatial_max=12)


def test_law_built_once_per_process(monkeypatch):
    import hamflow.experiments as experiments
    calls = []
    monkeypatch.setattr(experiments, "make_law",
                        lambda *args, **kwargs: calls.append(1) or make_law(*args, **kwargs))
    law_for.cache_clear()
    try:
        # one-sample chunks: 5 tasks, one law
        cfg = ExperimentConfig(command="sample-field", regularity=(3.0,), spatial_max=6,
                               temporal_max=3, samples=5, workers=1, osc_spatial_grid=8,
                               osc_time_grid=5, seed=1)
        experiments.oscillation_samples(cfg)
        assert len(calls) == 1
        assert law_for(cfg, 3.0) is law_for(ExperimentConfig(**vars(cfg)), 3.0)
    finally:
        law_for.cache_clear()


def test_inversion_chunk_peak_memory():
    """The tracemalloc peak of one CHUNK-index inversion chunk (spatial_max
    25, regularity 3, band 7, temporal band 6, 58 steps) stays within
    1.25 x the bytes of its 2 * CHUNK packed field grids
    plus one block of stage grids: the batch holds field grids only, one row
    per time-basis column of the temporal band, and one stage block at a
    time."""
    cfg = ExperimentConfig(command="inversion", regularity=(3.0,), spatial_max=25,
                           samples=CHUNK, workers=1)
    law = law_for(cfg, 3.0)
    _displacement_chunk((cfg, 0, 0, 1))  # the basis and engine are built once per process
    grid_bytes = np.prod(law.engine().field_shape) * 8
    rows = 2 * CHUNK
    held = (1 + 2 * law.temporal_band() + len(_STAGE_OFFSETS)) * rows * grid_bytes
    tracemalloc.start()
    try:
        _displacement_chunk((cfg, 0, 0, CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held, (peak, held)


class TestWalkChunks:
    """random-walk flows each step at its law's count: 7 steps at regularity 5
    (constant kernel, frequency units)."""

    cfg = ExperimentConfig(command="random-walk", regularity=(5.0,), spatial_max=5,
                           kernel="constant", samples=4, walk_steps=3, seed=6, workers=1)

    def test_chunk_equals_per_walk_flows_at_the_law_count(self):
        cfg = self.cfg
        law = law_for(cfg, 5.0)
        assert flow_steps(law, cfg.steps) == 7
        settings = FlowSettings(steps=7)
        records = _walk_chunk((cfg, 0, 1, 4))
        assert [record["walk"] for record in records] == [1, 2, 3]
        for w, traj in zip(range(1, 4), (record["trajectory"] for record in records)):
            state = np.array([cfg.probe]) % 1.0
            expected = [state[0]]
            for j in range(cfg.walk_steps):
                step = sample_hamiltonian(law, cfg.seed, w, j)
                state = flow_points(step, state, 0.0, 1.0, settings)
                expected.append(state[0] % 1.0)
            assert np.array_equal(traj, np.array(expected))

    def test_walk_agrees_with_its_generating_hamiltonian(self):
        # the concatenation has no law: it flows at steps x parts
        law = law_for(self.cfg, 5.0)
        walk = sample_walk(law, self.cfg.seed, self.cfg.walk_steps)
        combined = concatenate_autonomous(walk, BumpFunction())
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        lhs = flow_concatenation(combined, pts, 0.0, 1.0, FlowSettings(steps=self.cfg.steps))
        rhs = apply_walk(walk, pts, FlowSettings(steps=7))
        assert np.linalg.norm((lhs - rhs + 0.5) % 1.0 - 0.5, axis=1).max() < 1e-4


# ---------------------------------------------------------------------------
# Step counts from the law (flow_steps)
# ---------------------------------------------------------------------------

def frequency_law(r, **kwargs):
    return make_law(r / (4 * math.pi**2), **kwargs)


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
    law = frequency_law(r, spatial_max=spatial_max, temporal_max=temporal_max, kernel=kernel,
                        include_axis_modes=axis_modes)
    batch = PackedBatch(draws(8, seed=17, law=law))
    pts = np.broadcast_to(derive(17, 1, 0).uniform(0.0, 1.0, (16, 2)), (8, 16, 2))

    def error(steps):
        return np.abs(flow_points(batch, pts, 0.0, 1.0, FlowSettings(steps=steps))
                      - reference).max()

    reference = flow_points(batch, pts, 0.0, 1.0, FlowSettings(steps=1600))
    err = error(flow_steps(law, 200))
    assert err <= 1.5e-6 or err <= error(200), err


def test_periodic_law_at_regularity_three_takes_58_steps():
    law = frequency_law(3.0, spatial_max=25, temporal_max=10)
    assert flow_steps(law, 200) == 58
    assert flow_steps(law, 50) == 50


def test_config_laws_step_counts():
    """Counts of the config's laws (frequency units, CLI defaults otherwise);
    the command defaults, regularity 0.1 and diffusion's 0.08, stay at the cap."""
    counts = {r: flow_steps(law_for(ExperimentConfig(regularity=(r,)), r), 200)
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
    law = frequency_law(8.0, spatial_max=4, temporal_max=3)
    assert flow_steps(law, 200) < 200
    for steps in (3, 200):
        calls.clear()
        flow_points(draws(2, law=law), np.full((2, 5, 2), 0.4), 0.0, 1.0,
                    FlowSettings(steps=steps))
        assert len(calls) == 7 * steps


def _bounds(args):
    _, r_index, start, stop = args
    return [(r_index, start, stop, i) for i in range(start, stop)]


def chunk_lengths(samples, workers):
    """The chunk lengths of ``_run_chunks`` at the given counts, checked to
    cover the indices in order, each chunk one consecutive run."""
    results = _run_chunks(_bounds, ExperimentConfig(samples=samples, workers=workers), 1)
    assert [i for *_, i in results] == list(range(samples))
    assert all(r_index == 1 and start <= i < stop for r_index, start, stop, i in results)
    bounds = sorted({(start, stop) for _, start, stop, _ in results})
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


@pytest.mark.parametrize("command,task", [("random-walk", _walk_chunk),
                                          ("inversion", _displacement_chunk)],
                         ids=["random-walk", "inversion"])
def test_one_point_flows_do_not_depend_on_chunk_length(command, task):
    # each draw flows one point, whose image must not depend on how many
    # draws its batch holds: the same records at chunk lengths 1 to 64
    cfg = ExperimentConfig(command=command, regularity=(3.0,), spatial_max=6, temporal_max=3,
                           kernel="constant" if command == "random-walk" else "periodic",
                           samples=64, walk_steps=2, seed=3, workers=1)
    runs = [[record for start in range(0, 64, length)
             for record in task((cfg, 0, start, min(start + length, 64)))]
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
    cfg = ExperimentConfig(command="inversion", regularity=(3.0,), spatial_max=25,
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
    whole = _intersection_chunk((cfg, 0, 0, 5))
    split = _intersection_chunk((cfg, 0, 0, 3)) + _intersection_chunk((cfg, 0, 3, 5))
    assert whole == split


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
    # the weighted sums of rkhs-norm at its defaults; their plain squares overflow
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
    cfg = ExperimentConfig(command="inversion", regularity=(8.0,), spatial_max=2,
                           temporal_max=3, steps=50, samples=12, seed=3, workers=1)
    records = run_inversion_test(cfg)
    test, = inversion_test(cfg, [records])["test"]
    expected, _ = scipy_ks(*(np.array([record[branch] for record in records])
                             for branch in ("forward", "inverse")))
    assert (test["statistic"], test["p_value"]) == expected

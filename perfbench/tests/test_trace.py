"""Traced runs: counts repeat exactly, every exercised layer is seen, seeds matter."""

import pytest

import checks
import run
from tracer import EXACT_COUNTS, PER_LAYER
from workloads import WORKLOADS, invocation_seed

SMALL = {"inversion": 3, "intersections": 1, "sample-field": 2}

# Layers each workload exercises (README.md, per-layer table): nonzero on it.
EXERCISED = {
    "inversion": ("field.draws", "field.sample_ms", "field.coefficients_ms",
                  "engine.grids_packed", "engine.grids_ms", "engine.vf_calls",
                  "engine.vf_us.p1", "flow.points", "flow.point_steps_per_s",
                  "experiments.self_share", "io.bytes"),
    "intersections": ("field.draws", "field.sample_ms", "engine.grids_packed",
                      "engine.vf_calls", "engine.vf_us.p128", "engine.vf_us.p1024",
                      "engine.vf_gflops", "flow.points",
                      "flow.advect_ms", "flow.vertices", "flow.refine_rounds",
                      "flow.refine_share", "experiments.crossings_ms", "io.bytes"),
    "sample-field": ("field.draws", "field.sample_ms", "field.coefficients_ms",
                     "field.oscillation_ms", "engine.grids_packed",
                     "engine.value_grid_calls", "engine.value_grid_ms",
                     "engine.value_grid_gflops", "io.bytes"),
}


def _traced(name, directory, seed=1):
    invocations, metrics = run.trace(run.Runner(WORKLOADS[name], directory), seed, SMALL[name])
    assert all(i.ok for i in invocations), [i.errors for i in invocations]
    return metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_cover_the_layers(tmp_path, name):
    first = _traced(name, tmp_path / "a")
    second = _traced(name, tmp_path / "b")
    assert set(first) == set(PER_LAYER)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert [k for k in EXERCISED[name] if not first[k]] == []
    per = WORKLOADS[name].draws_per_sample
    assert first["field.draws"] == SMALL[name] * per
    assert first["setup.import_s"] > 0
    # a ratio only where both runs use the same workers
    assert (first["trace.overhead"] > 0) == (WORKLOADS[name].workers == 1)


def test_seed_changes_the_inputs(tmp_path):
    w = WORKLOADS["sample-field"]
    a, b = invocation_seed(1, 0), invocation_seed(2, 0)
    assert w.config_text(a, 2, 1) != w.config_text(b, 2, 1)
    runner = run.Runner(w, tmp_path)
    runs = [runner.launch(label, seed=seed, samples=2)
            for label, seed in (("a", a), ("a2", a), ("b", b))]
    assert all(i.ok for i in runs), [i.errors for i in runs]
    osc = [checks.oscillations(i.out) for i in runs]
    assert osc[0] == osc[1]
    assert osc[0] != osc[2]

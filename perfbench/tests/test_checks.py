"""The output checks accept the program's answers and reject wrong ones."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracer import PER_LAYER
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """One real reference invocation per workload."""
    runs = {}
    for name, w in WORKLOADS.items():
        runs[name] = run.Runner(w, tmp_path_factory.mktemp(name)).reference()
    return runs


def _copy(inv, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(inv.out, out)
    return out


def _reference(name):
    return json.loads(run.REFERENCE.read_text())[name]


def _edit_jsonl(path, index, key, change):
    recs = checks.read_jsonl(path)
    recs[index][key] = change(recs[index][key])
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_invocation_passes(reference_runs, name):
    assert reference_runs[name].ok, reference_runs[name].errors


@pytest.mark.parametrize("shift, fails", [(1e-3, True), (-1e-3, True), (1e-8, False)])
def test_displacement_shift(reference_runs, tmp_path, shift, fails):
    out = _copy(reference_runs["inversion"], tmp_path)
    _edit_jsonl(out / "inversion_samples.jsonl", 3, "displacement", lambda d: d + shift)
    assert bool(checks.check_reference("inversion", out, _reference("inversion"))) == fails


@pytest.mark.parametrize("extra, fails", [(1, True), (0, False)])
def test_crossing_count_plus_one(reference_runs, tmp_path, extra, fails):
    out = _copy(reference_runs["intersections"], tmp_path)
    path = out / "intersections.csv"
    lines = path.read_text().splitlines()
    label, reg, est, err, n = lines[1].split(",")
    total = round(float(est) * int(n)) + extra
    lines[1] = ",".join([label, reg, format(total / int(n), ".6g"), err, n])
    path.write_text("\n".join(lines) + "\n")
    assert bool(checks.check_reference("intersections", out, _reference("intersections"))) == fails


@pytest.mark.parametrize("scale, fails", [(1.01, True), (0.99, True), (1.0 + 1e-12, False)])
def test_osc_scaled(reference_runs, tmp_path, scale, fails):
    out = _copy(reference_runs["sample-field"], tmp_path)
    _edit_jsonl(out / "field_samples.jsonl", 2, "osc", lambda v: v * scale)
    assert bool(checks.check_reference("sample-field", out, _reference("sample-field"))) == fails


def test_failed_check_fails_every_draw_of_the_run(tmp_path, monkeypatch):
    want = _reference("sample-field")
    want["osc"][0] *= 1.01
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps({"sample-field": want}))
    monkeypatch.setattr(run, "REFERENCE", wrong)
    inv = run.Runner(WORKLOADS["sample-field"], tmp_path / "run").reference()
    assert inv.errors
    tally = run.tally([inv])
    assert tally["correct"] is False
    assert tally["failed"] == tally["attempted"] == inv.draws > 0  # failed_frac = 1


def test_property_checks_catch_broken_identities(reference_runs, tmp_path):
    out = _copy(reference_runs["inversion"], tmp_path / "inv")
    _edit_jsonl(out / "inversion.jsonl", 0, "statistic", lambda s: s + 0.125)
    assert checks.check_outputs("inversion", out, 8)
    out = _copy(reference_runs["sample-field"], tmp_path / "sf")
    assert checks.check_outputs("sample-field", out, 9)


def test_ks_statistic_matches_definition():
    assert checks.ks_statistic([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0
    assert checks.ks_statistic([0.1, 0.2], [0.3, 0.4]) == 1.0
    assert checks.ks_statistic([0.1, 0.3, 0.5, 0.7], [0.2, 0.4]) == 0.5


def test_metric_names_and_benchmark_definition():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert max(m["bound"] for m in bench["end_to_end"]) == \
        next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "inversion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _InstantRunner(run.Runner):
    """A Runner whose invocations take ``cli_s`` seconds and start no process."""

    def __init__(self, workload, cli_s):
        super().__init__(workload, None)
        self.cli_s = cli_s
        self.launched = []

    def launch(self, label, mode="run", seed=0, samples=1, workers=1):
        self.launched.append((label, mode, seed, samples, workers))
        inv = run.Invocation(label, seed, samples, workers,
                             0 if mode == "setup" else self.workload.draws(samples), None)
        inv.setup_s = 1.0
        inv.report = {"cli_s": self.cli_s, "rss_mb": 100.0}
        return inv

    def reference(self):
        return self.launch("reference", samples=self.workload.reference_samples)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_draws_do_not_depend_on_speed(name):
    fast, slow = (_InstantRunner(WORKLOADS[name], cli_s) for cli_s in (0.5, 50.0))
    _, fast_metrics = run.measure(fast, 7, 25)
    _, slow_metrics = run.measure(slow, 7, 25)
    assert fast.launched == slow.launched
    assert fast_metrics["draws_per_s"] == 100 * slow_metrics["draws_per_s"]

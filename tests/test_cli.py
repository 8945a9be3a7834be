"""Smoke tests: every CLI command runs at a tiny config and writes its files.

This module must not import scipy: it also runs where only numpy and pytest
are installed, which shows that the CLI works without scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamflow import cli
from hamflow.config import parse_config
from hamflow.experiments import CHUNK

TINY = """\
spatial_max = 2
temporal_max = 3
regularity = 8.0
steps = 50
samples = 4
workers = 1
seed = 3
osc_spatial_grid = 8
osc_time_grid = 5
curve_vertices = 16
points = 10
walk_steps = 2
lagrangians = L1, L7, L13
"""

OUTPUTS = {
    "sample-field": ("field_osc.csv", "field_samples.jsonl"),
    "flow": ("curves.jsonl",),
    "diffusion": ("diffusion.jsonl", "diffusion_samples.jsonl"),
    "intersections": ("intersections.csv",),
    "random-walk": ("walks.jsonl",),
    "rkhs-norm": ("rkhs.csv", "rkhs_samples.jsonl"),
    "tails": ("tail_survival.jsonl", "tail_fit.jsonl"),
    "concentration": ("concentration.csv",),
    "inversion": ("inversion.jsonl", "inversion_samples.jsonl"),
}


def run(tmp_path, command, text, name=None):
    config = tmp_path / f"{name or command}.txt"
    config.write_text(text)
    out = tmp_path / (name or command)
    rc = cli.main([command, "--config", str(config), "--out", str(out)])
    return rc, out


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_command_writes_outputs(tmp_path, command):
    # tails runs at its 1000-sample default; random-walk at its constant kernel
    text = TINY.replace("samples = 4\n", "") if command == "tails" else TINY
    rc, out = run(tmp_path, command, text)
    assert rc == 0
    for name in OUTPUTS[command] + ("config.txt",):
        assert (out / name).stat().st_size > 0, name


@pytest.mark.parametrize("command", ["flow", "intersections", "diffusion", "inversion"])
def test_config_echo_names_the_step_counts(tmp_path, command):
    # regularity 8 takes 2 of at most 50 steps, and 4.5 takes 40
    rc, out = run(tmp_path, command, TINY.replace("regularity = 8.0", "regularity = 8, 4.5"))
    assert rc == 0
    text = (out / "config.txt").read_text()
    lines = [line for line in text.splitlines() if line.startswith("# flow steps")]
    expected = ["# flow steps at regularity 8: 2 of at most 50"]
    if command == "intersections":  # the only one of these that flows every regularity
        expected.append("# flow steps at regularity 4.5: 40 of at most 50")
    assert lines == expected
    cfg = parse_config(text, command=command)
    assert cfg.regularity == (8.0, 4.5) and cfg.steps == 50


def test_random_walk_echoes_its_step_count(tmp_path):
    # random-walk's constant kernel at regularity 5 takes 24 of at most 50 steps
    rc, out = run(tmp_path, "random-walk", TINY.replace("regularity = 8.0", "regularity = 5"))
    assert rc == 0
    text = (out / "config.txt").read_text()
    lines = [line for line in text.splitlines() if line.startswith("# flow steps")]
    assert lines == ["# flow steps at regularity 5: 24 of at most 50"]
    assert parse_config(text, command="random-walk").regularity == (5.0,)


def test_commands_without_flows_echo_no_step_counts(tmp_path):
    rc, out = run(tmp_path, "sample-field", TINY)
    assert rc == 0
    assert "# flow steps" not in (out / "config.txt").read_text()


def test_random_walk_rejects_explicit_periodic_kernel(tmp_path, capsys):
    rc, _ = run(tmp_path, "random-walk", TINY + "kernel = periodic\n")
    assert rc == 1
    err = capsys.readouterr().err
    assert "constant-in-time kernel" in err
    assert "NotAutonomous" in err


@pytest.mark.parametrize("argv,message", [
    (["--regularity", "abc"], "regularity: could not convert"),
    (["--regularity", "3,inf"], "regularity: expected a finite number"),
    (["--config", "missing.txt"], "cannot read config"),
    (["--config", "nan.txt"], "line 2: regularity: expected a finite number"),
])
def test_malformed_input_exits_with_a_typed_error(tmp_path, capsys, argv, message):
    (tmp_path / "nan.txt").write_text("samples = 4\nregularity = nan\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    assert cli.main(["sample-field", "--out", str(tmp_path / "out")] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and message in err
    assert not (tmp_path / "out").exists()


def test_rkhs_norm_finite_at_high_regularity(tmp_path):
    # weights exp(r lambda_n) overflow a double here, while coefficients underflow
    rc, out = run(tmp_path, "rkhs-norm",
                  "regularity = 1\nspatial_max = 25\nsamples = 2\nworkers = 1\n")
    assert rc == 0
    records = [json.loads(line) for line in (out / "rkhs_samples.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert all(math.isfinite(r["rkhs_norm"]) and r["rkhs_norm"] > 0 for r in records)


def test_rkhs_norm_table_finite_where_weighted_sums_are_huge(tmp_path):
    # at regularity 0.1 and spatial_max 25 the weighted sums reach about 1e187
    rc, out = run(tmp_path, "rkhs-norm", "regularity = 0.1\nsamples = 4\nworkers = 1\n")
    assert rc == 0
    rows = (out / "rkhs.csv").read_text().splitlines()[1:]
    sums = [row.split(",") for row in rows if row.startswith("weighted_sum,")]
    assert len(sums) == 1 and abs(float(sums[0][2])) > 1e150
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


# 2 * CHUNK + 3 samples leave a partial last chunk; 5 samples are one chunk
# on one worker and chunks of 3 and 2 on two
PARTIAL = 2 * CHUNK + 3


@pytest.mark.parametrize("command,samples", [("inversion", 4),
                                             ("inversion", PARTIAL),
                                             ("sample-field", 4),
                                             ("intersections", PARTIAL),
                                             ("flow", PARTIAL),
                                             ("diffusion", PARTIAL),
                                             ("random-walk", PARTIAL),
                                             ("intersections", 5),
                                             ("diffusion", 5)],
                         ids=["inversion", "inversion-partial-chunk", "sample-field",
                              "intersections-partial-chunk", "flow-partial-chunk",
                              "diffusion-partial-chunk", "random-walk-partial-chunk",
                              "intersections-split-chunk", "diffusion-split-chunk"])
def test_outputs_independent_of_worker_count(tmp_path, command, samples):
    outs = []
    for workers in (1, 2):
        text = TINY.replace("workers = 1", f"workers = {workers}").replace(
            "samples = 4", f"samples = {samples}")
        rc, out = run(tmp_path, command, text, f"{command}-w{workers}")
        assert rc == 0
        outs.append(out)
    for name in OUTPUTS[command]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_rerun_replaces_stale_failure_log(tmp_path):
    out = tmp_path / "intersections"
    out.mkdir()
    (out / "failures.jsonl").write_text('{"error": "from an older run", "sample": 0}\n')
    rc, _ = run(tmp_path, "intersections", TINY)
    assert rc == 0
    assert not (out / "failures.jsonl").exists()


def test_failure_budget_writes_failures_before_exiting(tmp_path, capsys):
    # 16 vertices lie 1/16 apart, above the 0.01 threshold, so at depth 0
    # every sample overflows; a table of an older run must not survive
    out = tmp_path / "intersections"
    out.mkdir()
    (out / "intersections.csv").write_text("label,regularity,estimate,stderr,samples\n")
    rc, _ = run(tmp_path, "intersections", TINY + "max_refinement_depth = 0\n")
    assert rc == 1
    assert "FailureBudgetExceeded" in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert [(r["regularity"], r["sample"]) for r in records] == [(8.0, i) for i in range(4)]
    assert all(r["error"].startswith("RefinementOverflow") for r in records)
    assert not (out / "intersections.csv").exists()
    assert (out / "config.txt").exists()


def fresh_python(code, tmp_path):
    """Run ``code`` in a fresh interpreter that imports hamflow from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    done = fresh_python("import sys, hamflow, hamflow.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                  tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_benchmark_tracer_installs(tmp_path):
    # the benchmark's tracer wraps hamflow functions and methods by name, so
    # a renamed or deleted one breaks only its traced runs
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = fresh_python("import sys, hamflow.cli\n"
                        f"sys.path.insert(0, {str(perfbench)!r})\n"
                        "import tracer\n"
                        "tracer.Tracer().install()",
                        tmp_path)
    assert done.returncode == 0, done.stderr


def test_inversion_runs_with_scipy_unimportable(tmp_path):
    rc, expected = run(tmp_path, "inversion", TINY)
    assert rc == 0
    out = tmp_path / "no-scipy"
    done = fresh_python("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from hamflow import cli\n"
                  f"argv = ['inversion', '--config', {str(tmp_path / 'inversion.txt')!r},"
                  f" '--out', {str(out)!r}]\n"
                  "sys.exit(cli.main(argv))",
                  tmp_path)
    assert done.returncode == 0, done.stderr
    for name in OUTPUTS["inversion"]:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name

"""Smoke tests: every CLI command runs at a tiny config and writes its files.

This module must not import scipy: it also runs where only numpy and pytest
are installed, which shows that the CLI works without scipy.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamflow import cli, experiments, flow, io
from hamflow.config import COMMANDS, LAW_KEYS, RUN_KEYS, parse_config
from hamflow.experiments import CHUNK

TINY = """\
spatial_max = 2
temporal_max = 3
regularity = 8.0
steps = 50
samples = 4
workers = 1
seed = 3
curve_vertices = 16
points = 10
walk_steps = 2
"""

# Each command's files: the (label, regularity) columns of a CSV's rows, or
# the keys of every line of a JSONL file, at TINY
OUTPUTS = {
    "sample-field": {"field_osc.csv": ["osc,8"],
                     "field_samples.jsonl": {"osc", "regularity", "sample"},
                     "field_survival.jsonl": {"survival", "u"}},
    "flow": {"curves.jsonl": {"sample", "vertices", "winding"}},
    "diffusion": {"diffusion.jsonl": {"chi_square", "counts", "time"},
                  "diffusion_samples.jsonl": {"chi_square", "sample"}},
    "intersections": {"intersections.csv": sorted(f"L{i},8" for i in range(1, 15))},
    "random-walk": {"walks.jsonl": {"trajectory", "walk"}},
    "inversion": {"inversion.jsonl": {"level", "p_value", "passed", "statistic"},
                  "inversion_samples.jsonl": {"branch", "displacement", "sample"}},
}

def run(tmp_path, command, text, name=None):
    config = tmp_path / f"{name or command}.txt"
    config.write_text(text)
    out = tmp_path / (name or command)
    rc = cli.main([command, "--config", str(config), "--out", str(out)])
    return rc, out


def check_records(records, keys, samples):
    """There are lines, each has ``keys``, and the sample (or walk) indices of
    each branch, forward then inverse, run 0..samples-1 in order."""
    assert records and all(set(record) == keys for record in records)
    for index in {"sample", "walk"} & keys:
        branches = {}
        for record in records:
            branches.setdefault(record.get("branch"), []).append(record[index])
        assert list(branches) in ([None], ["forward", "inverse"])
        assert all(indices == list(range(samples)) for indices in branches.values())


@pytest.mark.parametrize("command,extra", [*((command, "") for command in sorted(OUTPUTS)),
                                           ("inversion", "kernel = sqexp\n")],
                         ids=[*sorted(OUTPUTS), "inversion-sqexp"])
def test_command_writes_outputs(tmp_path, command, extra):
    # random-walk runs at its constant kernel
    text = TINY + extra
    rc, out = run(tmp_path, command, text)
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*OUTPUTS[command], "config.txt"])
    for name, expected in OUTPUTS[command].items():
        lines = (out / name).read_text().splitlines()
        if name.endswith(".csv"):
            assert lines[0] == "label,regularity,estimate,stderr,samples"
            assert [line.rsplit(",", 3)[0] for line in lines[1:]] == expected
            assert all(line.endswith(",4") for line in lines[1:])
        else:
            check_records([json.loads(line) for line in lines], expected, 4)
    # config.txt echoes the keys the run reads, sorted (temporal_max only
    # under the periodic kernel), and they parse back to their effective values
    echo = (out / "config.txt").read_text()
    effective = parse_config(text, command=command, overrides={"out": str(out)})
    read = [key for key in sorted(LAW_KEYS + RUN_KEYS + COMMANDS[command].keys)
            if effective.kernel == "periodic" or key != "temporal_max"]
    assert [line.split(" = ")[0] for line in echo.splitlines()
            if not line.startswith("#")] == read
    echoed = parse_config(echo, command=command)
    assert all(getattr(echoed, key) == getattr(effective, key) for key in read)
    # sample-field's osc is taken on the one lattice field.OSC_LATTICE, which
    # its echo names; no other command oscillates
    lattice = "# oscillation lattice: 128 x 128 points at 101 times"
    assert (lattice in echo.splitlines()) == (command == "sample-field")


@pytest.mark.parametrize("command", ["sample-field", "inversion"])
def test_run_calls_the_sampler_and_reducer_its_row_names(tmp_path, monkeypatch, command):
    # run looks both names up in hamflow.experiments when it runs, so that a
    # function wrapped after import (the benchmark's tracer) is the one that
    # runs; the row's files are the files written
    row, calls = COMMANDS[command], []
    for name in (row.sampler, row.reducer):
        monkeypatch.setattr(experiments, name, lambda *args, name=name, f=getattr(
            experiments, name): calls.append(name) or f(*args))
    rc, out = run(tmp_path, command, TINY)
    assert rc == 0
    assert calls == [row.sampler, row.reducer]
    assert sorted(p.name for p in out.iterdir()) == sorted([*row.files.values(), "config.txt"])


@pytest.mark.parametrize("command", ["flow", "intersections", "diffusion", "inversion"])
def test_config_echo_names_the_step_counts(tmp_path, command):
    # regularity 8 takes 2 of at most 50 steps, and 4.5 takes 12
    for r, steps in [(8, 2), (4.5, 12)]:
        text = TINY.replace("regularity = 8.0", f"regularity = {r}")
        rc, out = run(tmp_path, command, text, f"{command}-{r}")
        assert rc == 0
        text = (out / "config.txt").read_text()
        lines = [line for line in text.splitlines() if line.startswith("# flow steps")]
        assert lines == [f"# flow steps at regularity {r:g}: {steps} of at most 50"]
        cfg = parse_config(text, command=command)
        assert cfg.regularity == r and cfg.steps == 50


def test_random_walk_echoes_its_step_count(tmp_path):
    # random-walk's constant kernel at regularity 5 takes 7 of at most 50 steps
    rc, out = run(tmp_path, "random-walk", TINY.replace("regularity = 8.0", "regularity = 5"))
    assert rc == 0
    text = (out / "config.txt").read_text()
    lines = [line for line in text.splitlines() if line.startswith("# flow steps")]
    assert lines == ["# flow steps at regularity 5: 7 of at most 50"]
    assert parse_config(text, command="random-walk").regularity == 5.0


def test_commands_without_flows_echo_no_step_counts(tmp_path):
    # sample-field reads none of these keys: its files are those of its
    # defaults, and its config.txt names none of them and no step count
    unread = "steps = 1\ncurve_vertices = 3\nwalk_steps = 1000\nball_radius = 0.4\n"
    rc, plain = run(tmp_path, "sample-field", "")
    assert rc == 0
    rc, out = run(tmp_path, "sample-field", unread, "unread")
    assert rc == 0
    for name in OUTPUTS["sample-field"]:
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name
    echo = (out / "config.txt").read_text()
    assert echo.replace(str(out), str(plain)) == (plain / "config.txt").read_text()
    assert "# flow steps" not in echo
    assert not {line.split(" = ")[0] for line in echo.splitlines()} & {
        "steps", "curve_vertices", "walk_steps", "ball_radius"}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_config_echo_names_the_bands(tmp_path, command):
    # spatial_max 6, temporal_max 10: regularity 8 keeps spatial and temporal
    # bands 3, and 4.5 keeps 4; random-walk's constant kernel has no frequencies
    for r, band in [(8, 3), (4.5, 4)]:
        text = TINY.replace("regularity = 8.0", f"regularity = {r}").replace(
            "spatial_max = 2", "spatial_max = 6").replace("temporal_max = 3", "temporal_max = 10")
        rc, out = run(tmp_path, command, text, f"{command}-{r}")
        assert rc == 0
        lines = [line for line in (out / "config.txt").read_text().splitlines()
                 if line.startswith("# bands")]
        temporal = "0 of 0" if command == "random-walk" else f"{band} of 10"
        assert lines == [f"# bands at regularity {r:g}: spatial {band} of 6, temporal {temporal}"]


def test_config_echo_names_the_mode_shares(tmp_path):
    # at the default regularity 3.95 and spatial_max 25, the (1, 1) shell
    # carries all but about 1e-5 of Var H and 4e-5 of Var grad H
    text = TINY.replace("regularity = 8.0", "regularity = 3.95").replace(
        "spatial_max = 2", "spatial_max = 25")
    rc, out = run(tmp_path, "sample-field", text)
    assert rc == 0
    lines = [line for line in (out / "config.txt").read_text().splitlines()
             if line.startswith("# mode shares")]
    assert lines == ["# mode shares: lowest shell 0.99999 of Var H, 0.99996 of Var grad H; "
                     "participation ratio 4.0001"]


def test_random_walk_rejects_explicit_periodic_kernel(tmp_path, capsys):
    rc, out = run(tmp_path, "random-walk", TINY + "kernel = periodic\n")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValidationError: kernel: random walks require the constant-in-time kernel\n")
    assert not out.exists()


@pytest.mark.parametrize("command,refused,error", [
    ("random-walk", f"kernel = {kernel}\n",
     "error: ValidationError: kernel: random walks require the constant-in-time kernel")
    for kernel in ("periodic", "sqexp")], ids=["random-walk", "random-walk-sqexp"])
def test_refused_rerun_leaves_the_earlier_run_as_it_was(tmp_path, capsys, command, refused,
                                                        error):
    # the kernel is refused at parse, before config.txt is rewritten or any
    # output removed
    rc, out = run(tmp_path, command, TINY)
    assert rc == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) == {"config.txt", *OUTPUTS[command]}
    capsys.readouterr()
    rc, _ = run(tmp_path, command, TINY + refused)
    assert rc == 1
    assert capsys.readouterr().err == error + "\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_every_command_parses_with_the_five_options():
    parser = cli._build_parser()
    for command in COMMANDS:
        args = parser.parse_args([command, "--config", "c.txt", "--seed", "3", "--samples", "4",
                                  "--regularity", "4.5", "--out", "o"])
        assert vars(args) == {"command": command, "config": Path("c.txt"), "seed": 3,
                              "samples": 4, "regularity": "4.5", "out": "o"}
        assert vars(parser.parse_args([command])) == {
            "command": command, "config": None, "seed": None, "samples": None,
            "regularity": None, "out": None}


def test_config_naming_regularity_units_is_refused(tmp_path, capsys):
    # regularity is stated in frequency units alone
    config = tmp_path / "units.txt"
    config.write_text(TINY + "regularity_units = frequency\n")
    argv = ["sample-field", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: ValidationError: regularity_units: unknown key\n"
    assert not (tmp_path / "out").exists()


def test_config_naming_lagrangians_is_refused(tmp_path, capsys):
    # intersections counts every test Lagrangian, so no key selects them
    config = tmp_path / "lagrangians.txt"
    config.write_text(TINY + "lagrangians = L1\n")
    argv = ["intersections", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: ValidationError: lagrangians: unknown key\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["plot = true", "field_time = 0.5", "arrow_grid = 20"])
def test_config_naming_a_plot_key_is_refused(tmp_path, capsys, line):
    # the program writes no plots, so their keys are unknown
    config = tmp_path / "plot.txt"
    config.write_text(TINY + line + "\n")
    argv = ["sample-field", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    key = line.split()[0]
    assert capsys.readouterr().err == f"error: ValidationError: {key}: unknown key\n"
    assert not (tmp_path / "out").exists()


def test_plot_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "--out", str(tmp_path / "out"), "--plot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --plot" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_command_exits_2_and_help_exits_0(tmp_path, capsys):
    # concentration and tails ran sample-field's sampler, and are gone
    for command in ("no-such-command", "concentration", "tails"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all(command in usage for command in COMMANDS)


@pytest.mark.parametrize("argv,message", [
    (["--regularity", "abc"], "regularity: could not convert"),
    (["--regularity", "inf"], "regularity: expected a finite number"),
    (["--config", "missing.txt"], "cannot read config"),
    (["--config", "nan.txt"], "line 2: regularity: expected a finite number"),
    (["--regularity", "3,4"], "regularity: could not convert"),
    (["--config", "list.txt"], "line 2: regularity: could not convert"),
])
def test_malformed_input_exits_with_a_typed_error(tmp_path, capsys, argv, message):
    # a regularity list is malformed: a config names one law
    (tmp_path / "nan.txt").write_text("samples = 4\nregularity = nan\n")
    (tmp_path / "list.txt").write_text("samples = 4\nregularity = 3, 4\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    assert cli.main(["sample-field", "--out", str(tmp_path / "out")] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sample-field", "inversion"])
def test_negative_seed_exits_with_a_typed_error(tmp_path, capsys, command):
    config = tmp_path / "tiny.txt"
    config.write_text(TINY.replace("workers = 1", "workers = 2"))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "-1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ValidationError: seed")
    assert not (tmp_path / "out").exists()


# (--out, the path the error names): a file, a path under a file, and an
# output file that is a directory, which the run cannot clear
@pytest.mark.parametrize("out,named", [("taken.txt", "taken.txt"),
                                       ("taken.txt/out", "taken.txt/out"),
                                       ("out", "out/field_osc.csv"),
                                       ("out", "out/field_samples.jsonl")],
                         ids=["file", "under-a-file", "csv-is-a-directory",
                              "jsonl-is-a-directory"])
def test_unusable_out_exits_with_a_typed_error(tmp_path, capsys, out, named):
    config = tmp_path / "tiny.txt"
    config.write_text(TINY)
    (tmp_path / "taken.txt").write_text("kept\n")
    if named != out:
        (tmp_path / named).mkdir(parents=True)
    argv = ["sample-field", "--config", str(config), "--out", str(tmp_path / out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValidationError: out: cannot write {tmp_path / named}: ")
    assert err.count("\n") == 1
    assert (tmp_path / "taken.txt").read_text() == "kept\n"
    assert named == out or (tmp_path / named).is_dir()


def test_failed_output_write_exits_with_a_typed_error(tmp_path, capsys, monkeypatch):
    def full(rows, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(io, "write_table", full)
    rc, out = run(tmp_path, "sample-field", TINY)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: ValidationError: out: cannot write "
                                       f"{out / 'field_osc.csv'}: {os.strerror(errno.ENOSPC)}\n")


def test_memory_error_exits_with_one_error_line(tmp_path, capsys, monkeypatch):
    # a diffusion grid too large to count raises numpy's private subclass of
    # MemoryError; the sampler raises one here, so nothing large is allocated
    class _ArrayMemoryError(MemoryError):
        pass

    def sampler(cfg):
        raise _ArrayMemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(experiments, "diffusion_samples", sampler)
    rc, _ = run(tmp_path, "diffusion", TINY + "grid = 100000\n")
    assert rc == 1
    assert capsys.readouterr().err == ("error: MemoryError: "
                                       "Unable to allocate 74.5 GiB for an array\n")


def test_empty_out_leaves_the_working_directory_as_it_was(tmp_path, capsys, monkeypatch):
    # an empty --out would write, and clear older outputs, in the working
    # directory; --out . names it on purpose
    config = tmp_path / "tiny.txt"
    config.write_text(TINY)
    (tmp_path / "field_osc.csv").write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample-field", "--config", str(config), "--out", ""]) == 1
    assert capsys.readouterr().err == "error: ValidationError: out: must name a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["field_osc.csv", "tiny.txt"]
    assert (tmp_path / "field_osc.csv").read_text() == "kept\n"
    assert cli.main(["sample-field", "--config", str(config), "--out", "."]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "config.txt", "field_osc.csv", "field_samples.jsonl", "field_survival.jsonl", "tiny.txt"]


@pytest.mark.parametrize("out", [" padded", "padded "])
def test_padded_out_is_refused(tmp_path, capsys, monkeypatch, out):
    # config.txt would echo out without its padding, which names another
    # directory
    config = tmp_path / "tiny.txt"
    config.write_text(TINY)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample-field", "--config", str(config), "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: ValidationError: out: must not begin or end with whitespace\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["tiny.txt"]


# 2 * CHUNK + 3 samples are three chunks on one worker and four on two, so
# no chunk boundary of the one run is one of the other's; 5 samples are one
# chunk on one worker and chunks of 3 and 2 on two
PARTIAL = 2 * CHUNK + 3


@pytest.mark.parametrize("command,samples,extra", [("inversion", 4, ""),
                                                   ("inversion", PARTIAL, ""),
                                                   ("inversion", PARTIAL, "kernel = sqexp\n"),
                                                   ("sample-field", 4, ""),
                                                   ("sample-field", PARTIAL, ""),
                                                   ("intersections", PARTIAL, ""),
                                                   ("flow", PARTIAL, ""),
                                                   ("diffusion", PARTIAL, ""),
                                                   ("random-walk", PARTIAL, ""),
                                                   ("intersections", 5, ""),
                                                   ("diffusion", 5, "")],
                         ids=["inversion", "inversion-partial-chunk",
                              "inversion-sqexp-partial-chunk", "sample-field",
                              "sample-field-partial-chunk",
                              "intersections-partial-chunk", "flow-partial-chunk",
                              "diffusion-partial-chunk", "random-walk-partial-chunk",
                              "intersections-split-chunk", "diffusion-split-chunk"])
def test_outputs_independent_of_worker_count(tmp_path, command, samples, extra):
    outs = []
    for workers in (1, 2):
        text = TINY.replace("workers = 1", f"workers = {workers}").replace(
            "samples = 4", f"samples = {samples}") + extra
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


def test_failure_budget_writes_failures_before_exiting(tmp_path, capsys, monkeypatch):
    # 16 vertices lie 1/16 apart, above the 0.01 threshold, so within an
    # image budget of 17 vertices every sample overflows; a table of an
    # older run must not survive
    monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", 17)
    out = tmp_path / "intersections"
    out.mkdir()
    (out / "intersections.csv").write_text("label,regularity,estimate,stderr,samples\n")
    rc, _ = run(tmp_path, "intersections", TINY)
    assert rc == 1
    assert "FailureBudgetExceeded" in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert [(r["regularity"], r["sample"]) for r in records] == [(8.0, i) for i in range(4)]
    assert all(r["error"].startswith("RefinementOverflow") for r in records)
    assert not (out / "intersections.csv").exists()
    assert (out / "config.txt").exists()


# At regularity 5, TINY's 100 flow images finish at 129 to 208 vertices:
# sample 95's at 208, 63's at 205 and 65's at 196, the others at fewer
ROUGHER = TINY.replace("samples = 4", "samples = 100").replace("regularity = 8.0",
                                                               "regularity = 5.0")


@pytest.mark.parametrize("budget,failed", [(205, [95]), (195, [63, 65, 95])],
                         ids=["under-budget", "over-budget"])
def test_flow_writes_its_failed_samples_to_failures(tmp_path, monkeypatch, budget, failed):
    rc, full = run(tmp_path, "flow", ROUGHER)
    assert rc == 0 and not (full / "failures.jsonl").exists()
    monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", budget)
    rc, out = run(tmp_path, "flow", ROUGHER, "flow-budget")
    records = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert [r["sample"] for r in records] == failed
    assert all(r["error"].startswith("RefinementOverflow: ") for r in records)
    if len(failed) == 1:
        # within 1% of 100 samples: curves.jsonl holds the other samples'
        # lines of the run without a failure
        assert rc == 0
        lines = (full / "curves.jsonl").read_text().splitlines(keepends=True)
        assert (out / "curves.jsonl").read_text() == "".join(
            line for i, line in enumerate(lines) if i not in failed)
    else:
        assert rc == 1
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "failures.jsonl"]


def test_rerun_that_fails_leaves_no_older_output(tmp_path, monkeypatch):
    rc, out = run(tmp_path, "flow", TINY)
    assert rc == 0 and (out / "curves.jsonl").exists()
    # TINY's 16 vertices lie 1/16 apart, so within 17 every sample fails
    monkeypatch.setattr(flow, "MAX_IMAGE_VERTICES", 17)
    rc, _ = run(tmp_path, "flow", TINY)
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["config.txt", "failures.jsonl"]


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


def test_runs_load_no_pool_modules(tmp_path):
    # a run in one process and a run that forks its chunks both leave
    # concurrent.futures and multiprocessing unloaded
    (tmp_path / "one.txt").write_text("samples = 2\nworkers = 1\n")
    (tmp_path / "two.txt").write_text("samples = 4\nworkers = 2\n")
    done = fresh_python("import sys\n"
                        "from hamflow import cli\n"
                        "rc = [cli.main(['sample-field', '--config', 'one.txt', '--out', 'one']),\n"
                        "      cli.main(['inversion', '--config', 'two.txt', '--out', 'two'])]\n"
                        "print(rc, sorted(m for m in sys.modules"
                        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))",
                        tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


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


def test_benchmark_setup_runs_on_every_workload(tmp_path):
    # the benchmark's timed set-up calls make_law with config keys by name,
    # so a renamed keyword or key breaks only benchmark runs
    pytest.importorskip("scipy")  # the set-up report names the scipy version
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(root / "perfbench"))
    for name, workload in WORKLOADS.items():
        config = tmp_path / f"{name}.txt"
        config.write_text(workload.config_text(seed=0, samples=workload.samples,
                                               workers=workload.workers))
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"mode": "setup", "command": workload.command,
                                    "config": str(config), "out": str(tmp_path / name),
                                    "report": str(tmp_path / f"{name}-report.json")}))
        done = fresh_python("import runpy, sys\n"
                            f"sys.argv = ['child.py', {str(spec)!r}]\n"
                            f"runpy.run_path({str(root / 'perfbench' / 'child.py')!r},"
                            " run_name='__main__')",
                            tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        assert "basis_ms" in json.loads((tmp_path / f"{name}-report.json").read_text())


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

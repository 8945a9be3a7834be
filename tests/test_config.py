"""Tests for the key = value experiment configuration."""

import math
from dataclasses import fields, replace

import pytest

from hamflow.config import (COMMANDS, LAW_KEYS, RUN_KEYS, ExperimentConfig, parse_config,
                            parse_value, serialize_config)
from hamflow.errors import ParseError, ValidationError
from hamflow.experiments import flow_steps, law_for

# A non-default value of every key; tails needs 1000 draws at least, and
# random-walk the constant kernel, its own default
NON_DEFAULT = {
    "regularity": "1.25", "spatial_max": "7", "include_axis_modes": "yes",
    "temporal_max": "4", "kernel": "constant", "samples": "1500", "seed": "9",
    "out": "somewhere/else", "workers": "3", "osc_spatial_grid": "16", "osc_time_grid": "7",
    "steps": "30", "curve_vertices": "12", "refinement_threshold": "0.02", "points": "11",
    "ball_center": "0.25, 0.75", "ball_radius": "0.2", "times": "0.0, 0.125, 1.0",
    "grid": "4", "walk_steps": "3", "probe": "0.125, 0.5",
}


def document(keys):
    return "# a comment line\n" + "".join(f"{key} = {NON_DEFAULT[key]}\n" for key in keys)


class TestRoundTrip:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_parse_serialize_parse(self, command):
        # every key the command reads, set off its default, is echoed in
        # sorted order and parses back to the same config; the constant
        # kernel reads no temporal_max, so it is not echoed and parses back
        # to its default
        read = LAW_KEYS + RUN_KEYS + COMMANDS[command].keys
        cfg = parse_config(document(read), command=command)
        assert all(getattr(cfg, key) != getattr(ExperimentConfig, key) for key in read)
        text = serialize_config(cfg)
        assert [line.split(" = ")[0] for line in text.splitlines()[1:]] == sorted(
            set(read) - {"temporal_max"})
        again = parse_config(text, command=command)
        assert again == replace(cfg, temporal_max=ExperimentConfig.temporal_max)
        assert serialize_config(again) == text
        # a key the command does not read is accepted, and not echoed
        assert serialize_config(parse_config(document(NON_DEFAULT), command=command)) == text

    @pytest.mark.parametrize("kernel", ["periodic", "sqexp"])
    def test_temporal_max_is_echoed_under_the_periodic_kernel_alone(self, kernel):
        # only the periodic kernel's time basis has temporal_max frequencies;
        # the sqexp kernel accepts the key and echoes no line of it
        cfg = parse_config(f"kernel = {kernel}\ntemporal_max = 4\n", command="flow")
        text = serialize_config(cfg)
        assert ("temporal_max = 4" in text.splitlines()) == (kernel == "periodic")
        again = parse_config(text, command="flow")
        assert again.kernel == kernel
        assert again.temporal_max == (4 if kernel == "periodic" else 10)
        assert serialize_config(again) == text

    def test_every_key_is_read_by_a_command(self):
        keys = {f.name for f in fields(ExperimentConfig)} - {"command"}
        assert set(NON_DEFAULT) == keys
        assert set(LAW_KEYS + RUN_KEYS).union(*(c.keys for c in COMMANDS.values())) == keys

    def test_false_booleans_round_trip(self):
        for word in ("no", "0"):
            cfg = parse_config(f"include_axis_modes = {word}\n")
            assert cfg.include_axis_modes is False
            assert parse_config(serialize_config(cfg)) == cfg


class TestErrors:
    def test_duplicate_key_carries_line(self):
        with pytest.raises(ParseError) as info:
            parse_config("seed = 1\n\nsamples = 4\nseed = 2\n")
        assert info.value.line == 4

    def test_line_without_equals_carries_line(self):
        with pytest.raises(ParseError) as info:
            parse_config("# header\nseed 1\n")
        assert info.value.line == 2

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as info:
            parse_config("no_such_key = 3\n")
        assert info.value.field == "no_such_key"

    def test_refinement_depth_is_an_unknown_key(self):
        # refinement has no depth cap, only the image budget of hamflow.flow
        with pytest.raises(ValidationError) as info:
            parse_config("max_refinement_depth = 12\n", command="intersections")
        assert info.value.field == "max_refinement_depth"

    def test_grid_nodes_is_an_unknown_key(self):
        # no kernel samples on a grid; the config echo names no such key
        with pytest.raises(ValidationError) as info:
            parse_config("grid_nodes = 64\n", command="flow")
        assert info.value.field == "grid_nodes" and "unknown key" in str(info.value)
        assert "grid_nodes" not in serialize_config(parse_config(""))

    def test_regularity_units_is_an_unknown_key(self):
        # regularity is stated in frequency units alone; the config echo
        # names no units key
        with pytest.raises(ValidationError) as info:
            parse_config("regularity_units = frequency\n", command="flow")
        assert str(info.value) == "regularity_units: unknown key"
        assert "regularity_units" not in serialize_config(parse_config(""))

    def test_smoothing_eps_is_an_unknown_key(self):
        # no command weights coefficient sums; the config echo names no such key
        with pytest.raises(ValidationError) as info:
            parse_config("smoothing_eps = 0.01\n", command="sample-field")
        assert info.value.field == "smoothing_eps" and "unknown key" in str(info.value)
        with pytest.raises(ValidationError) as info:
            parse_config("", overrides={"smoothing_eps": 0.01})
        assert info.value.field == "smoothing_eps" and "unknown key" in str(info.value)
        assert "smoothing_eps" not in serialize_config(parse_config(""))

    def test_lagrangians_is_an_unknown_key(self):
        # intersections counts every test Lagrangian; no key selects them,
        # and the config echo names none
        with pytest.raises(ValidationError) as info:
            parse_config("lagrangians = L1\n", command="intersections")
        assert str(info.value) == "lagrangians: unknown key"
        with pytest.raises(ValidationError) as info:
            parse_config("", command="intersections", overrides={"lagrangians": ("L1",)})
        assert str(info.value) == "lagrangians: unknown key"
        assert "lagrangians" not in serialize_config(parse_config("", command="intersections"))

    def test_empty_out_is_refused(self):
        # an empty out would write into the working directory
        with pytest.raises(ValidationError) as info:
            parse_config("out =\n")
        assert str(info.value) == "out: must name a directory"
        assert parse_config("out = .\n").out == "."

    def test_empty_times_are_refused(self):
        # no time to report: its own message, not the ascending one
        with pytest.raises(ValidationError) as info:
            parse_config("times =\n")
        assert str(info.value) == "times: must hold at least one time"
        with pytest.raises(ValidationError, match="^times: must be ascending$"):
            parse_config("times = 0.5, 0.25\n")

    def test_unknown_command_names_the_commands(self):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(command="concentration")
        assert str(info.value) == f"command: must be one of {tuple(COMMANDS)}"
        assert "concentration" not in COMMANDS

    def test_unknown_override(self):
        with pytest.raises(ValidationError):
            parse_config("", overrides={"no_such_key": 3})

    @pytest.mark.parametrize("key,value", [
        ("regularity", math.nan), ("regularity", math.inf),
        ("ball_radius", math.inf), ("probe", (math.nan, 0.2)), ("times", (0.0, math.nan)),
        ("ball_center", (-math.inf, 0.5)), ("ball_radius", math.nan),
        ("refinement_threshold", math.nan), ("osc_spatial_grid", 1), ("osc_time_grid", 1),
        ("seed", -1), ("out", ""), ("out", " "), ("regularity", 0.0), ("regularity", -3.0),
        ("out", " padded"), ("out", "padded\n")])
    def test_bad_values_from_python_name_their_field(self, key, value):
        # the document parser refuses non-finite numbers itself; overrides
        # and direct construction reach the validation alone
        with pytest.raises(ValidationError) as info:
            parse_config("", overrides={key: value})
        assert info.value.field == key
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(**{key: value})
        assert info.value.field == key

    # a config names one law, so a regularity list is not a number
    @pytest.mark.parametrize("line", ["regularity = nan", "regularity = 3, inf",
                                      "regularity = 3, 4", "ball_radius = nan", "times = 0, nan",
                                      "probe = 0.3, nan", "ball_center = -inf, 0.5",
                                      "regularity = abc"])
    def test_non_numbers_carry_key_and_line(self, line):
        with pytest.raises(ParseError) as info:
            parse_config("seed = 1\n" + line + "\n")
        assert info.value.line == 2
        assert line.split()[0] in str(info.value)

    def test_parse_value_converts_like_the_document(self):
        assert parse_value("regularity", " 4.5 ") == 4.5
        assert parse_value("times", " 0, 0.5 ,") == (0.0, 0.5)
        for raw in ("nan", "3,4", "3, 4.5"):
            with pytest.raises(ParseError, match="^regularity: "):
                parse_value("regularity", raw)


class TestCommandDefaults:
    def test_diffusion_regularity(self):
        assert parse_config("", command="diffusion").regularity == 3.16

    def test_field_regularity(self):
        assert parse_config("", command="flow").regularity == 3.95

    @pytest.mark.parametrize("command,regularity,steps",
                             [("flow", 3.95, 21), ("intersections", 3.95, 21),
                              ("inversion", 3.95, 21), ("diffusion", 3.16, 48)])
    def test_default_laws_flow_resolved(self, command, regularity, steps):
        # the defaults are smooth in frequency units: they flow below the cap
        cfg = parse_config("", command=command)
        assert cfg.regularity == regularity and cfg.steps == 200
        assert flow_steps(law_for(cfg), cfg.steps) == steps

    def test_random_walk_kernel(self):
        assert parse_config("", command="random-walk").kernel == "constant"

    def test_tails_samples(self):
        assert parse_config("", command="tails").samples == 1000

    def test_other_commands_keep_field_defaults(self):
        cfg = parse_config("", command="sample-field")
        assert cfg == ExperimentConfig(command="sample-field")

    def test_document_value_wins(self):
        assert parse_config("regularity = 0.3\n", command="diffusion").regularity == 0.3
        assert parse_config("samples = 1500\n", command="tails").samples == 1500
        with pytest.raises(ValidationError):
            parse_config("kernel = periodic\n", command="random-walk")

    @pytest.mark.parametrize("kernel", ["periodic", "sqexp"])
    def test_random_walk_refuses_a_time_dependent_kernel(self, kernel):
        for text, overrides in [(f"kernel = {kernel}\n", None), ("", {"kernel": kernel})]:
            with pytest.raises(ValidationError) as info:
                parse_config(text, command="random-walk", overrides=overrides)
            assert str(info.value) == "kernel: random walks require the constant-in-time kernel"
            assert info.value.field == "kernel"

    def test_tails_refuses_fewer_than_1000_samples(self):
        with pytest.raises(ValidationError) as info:
            parse_config("samples = 999\n", command="tails")
        assert str(info.value) == "samples: tail statistics need >= 1000 draws"
        assert parse_config("samples = 1000\n", command="tails").samples == 1000

    def test_override_wins(self):
        cfg = parse_config("", command="tails", overrides={"samples": 1200, "seed": None})
        assert cfg.samples == 1200
        cfg = parse_config("", command="diffusion", overrides={"regularity": 0.2})
        assert cfg.regularity == 0.2


def test_law_regularity_in_eigenvalue_units():
    # the config states regularity per squared frequency, the law per
    # Laplace-Beltrami eigenvalue
    cfg = ExperimentConfig(regularity=3.0)
    want = 3.0 / (4.0 * math.pi**2)
    assert cfg.eigenvalue_regularity() == want
    assert law_for(cfg).regularity == want
    assert cfg.eigenvalue_regularities() == (want,)

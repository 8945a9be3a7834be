"""Tests for the key = value experiment configuration."""

import math

import pytest

from hamflow.config import ExperimentConfig, parse_config, parse_value, serialize_config
from hamflow.errors import ParseError, ValidationError
from hamflow.experiments import flow_steps, law_for

NON_DEFAULT = """\
# a comment line
regularity = 0.5, 1.25, 3
spatial_max = 7
include_axis_modes = yes
kernel = constant
plot = true
times = 0.0, 0.125, 1.0
ball_center = 0.25, 0.75
lagrangians = L2, L13, L14
refinement_threshold = 0.02
out = somewhere/else
"""


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        cfg = parse_config(NON_DEFAULT, command="flow")
        assert cfg.regularity == (0.5, 1.25, 3.0)
        assert cfg.include_axis_modes is True and cfg.plot is True
        assert cfg.lagrangians == ("L2", "L13", "L14")
        assert cfg.ball_center == (0.25, 0.75)
        text = serialize_config(cfg)
        again = parse_config(text, command="flow")
        assert again == cfg
        assert serialize_config(again) == text

    def test_false_booleans_round_trip(self):
        cfg = parse_config("plot = no\ninclude_axis_modes = 0\n")
        assert cfg.plot is False and cfg.include_axis_modes is False
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

    def test_empty_lagrangians_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse_config("lagrangians =\n", command="intersections")
        assert info.value.field == "lagrangians"
        with pytest.raises(ValidationError):
            ExperimentConfig(lagrangians=())

    @pytest.mark.parametrize("key,raw", [("lagrangians", "L1, L1, L13"), ("regularity", "3, 3")])
    def test_duplicate_values_rejected(self, key, raw):
        # duplicates would collapse in a record's labels or repeat a table row
        with pytest.raises(ValidationError) as info:
            parse_config(f"{key} = {raw}\n", command="intersections")
        assert info.value.field == key

    def test_unknown_override(self):
        with pytest.raises(ValidationError):
            parse_config("", overrides={"no_such_key": 3})

    @pytest.mark.parametrize("key,value", [
        ("regularity", (math.nan,)), ("regularity", (3.0, math.inf)),
        ("smoothing_eps", math.inf), ("probe", (math.nan, 0.2)), ("times", (0.0, math.nan)),
        ("ball_center", (-math.inf, 0.5)), ("field_time", math.nan),
        ("refinement_threshold", math.nan), ("osc_spatial_grid", 1), ("osc_time_grid", 1),
        ("seed", -1)])
    def test_bad_values_from_python_name_their_field(self, key, value):
        # the document parser refuses non-finite numbers itself; overrides
        # and direct construction reach the validation alone
        with pytest.raises(ValidationError) as info:
            parse_config("", overrides={key: value})
        assert info.value.field == key
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(**{key: value})
        assert info.value.field == key

    @pytest.mark.parametrize("line", ["regularity = nan", "regularity = 3, inf",
                                      "smoothing_eps = nan", "times = 0, nan",
                                      "probe = 0.3, nan", "ball_center = -inf, 0.5",
                                      "regularity = abc"])
    def test_non_numbers_carry_key_and_line(self, line):
        with pytest.raises(ParseError) as info:
            parse_config("seed = 1\n" + line + "\n")
        assert info.value.line == 2
        assert line.split()[0] in str(info.value)

    def test_parse_value_converts_like_the_document(self):
        assert parse_value("regularity", " 3, 4.5 ,") == (3.0, 4.5)
        with pytest.raises(ParseError):
            parse_value("regularity", "nan")


class TestCommandDefaults:
    def test_diffusion_regularity(self):
        assert parse_config("", command="diffusion").regularity == (3.16,)

    def test_field_regularity(self):
        assert parse_config("", command="flow").regularity == (3.95,)

    @pytest.mark.parametrize("command,regularity,steps",
                             [("flow", 3.95, 21), ("intersections", 3.95, 21),
                              ("inversion", 3.95, 21), ("diffusion", 3.16, 48)])
    def test_default_laws_flow_resolved(self, command, regularity, steps):
        # the defaults are smooth in frequency units: they flow below the cap
        cfg = parse_config("", command=command)
        assert cfg.regularity == (regularity,) and cfg.steps == 200
        assert flow_steps(law_for(cfg, regularity), cfg.steps) == steps

    def test_random_walk_kernel(self):
        assert parse_config("", command="random-walk").kernel == "constant"

    def test_tails_samples(self):
        assert parse_config("", command="tails").samples == 1000

    def test_other_commands_keep_field_defaults(self):
        cfg = parse_config("", command="sample-field")
        assert cfg == ExperimentConfig(command="sample-field")

    def test_document_value_wins(self):
        assert parse_config("regularity = 0.3\n", command="diffusion").regularity == (0.3,)
        assert parse_config("kernel = periodic\n", command="random-walk").kernel == "periodic"
        assert parse_config("samples = 5\n", command="tails").samples == 5

    def test_override_wins(self):
        cfg = parse_config("", command="tails", overrides={"samples": 1200, "seed": None})
        assert cfg.samples == 1200
        cfg = parse_config("", command="diffusion", overrides={"regularity": (0.2,)})
        assert cfg.regularity == (0.2,)


@pytest.mark.parametrize("units, want", [("eigenvalue", 3.0),
                                         ("frequency", 3.0 / (4.0 * math.pi**2))],
                         ids=["eigenvalue", "frequency"])
def test_law_regularity_in_eigenvalue_units(units, want):
    cfg = ExperimentConfig(regularity=(3.0,), regularity_units=units)
    assert law_for(cfg, 3.0).regularity == want
    assert cfg.eigenvalue_regularities() == (want,)

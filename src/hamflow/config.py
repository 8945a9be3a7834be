"""Declarative experiment configuration.

One flat key-value document drives every command; the command itself is
selected by CLI subcommand.  All fields carry documented defaults, numeric
fields are range-checked, and unknown keys are rejected.  A value given
from Python (a field or an override) must have its key's type, the one
``parse_value`` converts a document to: an integer that is not a bool, a
real number, a tuple of real numbers or a string (the law checks its own
keys), so that every config echoes a document that parses back to it.

``COMMANDS`` holds one ``Command`` row per command.  ``serialize_config``
echoes the keys a config reads: its law's (``temporal_max`` only under the
periodic kernel, whose time basis it sizes), its run's and its command's.
A key the command does not read is accepted but not echoed: the benchmark's
``sample-field`` workload sets ``steps``, so refusing it at parse waits for
ROADMAP item 7(a)(iv).

A config holds its one law, ``cfg.law``: the ``HamiltonianLaw`` of its law
keys, built and checked when the config is (the law's checks are the only
ones on those keys).  Like ``grid_nodes`` it is no field, so not a key.
``regularity`` is the one decay parameter of the law, per squared
frequency (k^2 + j^2), the units of the reference Monte Carlo tables; the
law takes it per Laplace-Beltrami eigenvalue 4 pi^2 (k^2 + j^2).  The law
checks the config's own value before it is converted.

``sample-field`` reads no key of its own: every oscillation takes the one
lattice ``hamflow.field.OSC_LATTICE``, 128 x 128 points at 101 times.

``steps`` is the most integrator steps per unit time (order 6, see
:mod:`hamflow.flow`); smooth laws use fewer (see :mod:`hamflow.experiments`).
Curve refinement runs until no image gap exceeds ``refinement_threshold``;
no key caps it (``hamflow.flow.MAX_IMAGE_VERTICES`` bounds an image).

``grid_nodes`` is a class constant, not a key: no kernel samples on a grid.
Only ``perfbench/child.py`` reads it, passes ``make_law``'s ``seed=`` or
calls ``eigenvalue_regularities``; once it stops, all three can go.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from . import temporal
from .errors import ParseError, ValidationError
from .field import HamiltonianLaw

# a law's keys are its parameters (``ExperimentConfig.law``)
LAW_KEYS = tuple(f.name for f in fields(HamiltonianLaw))
RUN_KEYS = ("samples", "seed", "out", "workers")


@dataclass(frozen=True)
class Command:
    """One command: the keys it reads beyond ``LAW_KEYS`` and ``RUN_KEYS``,
    the defaults it sets, the names in :mod:`hamflow.experiments` of its
    sampler and of its reducer ``(cfg, records)`` (``hamflow.cli.run`` looks
    them up when it runs, so that wrappers installed after import run), and
    the file of each output (``failures``: the records that carry an error).
    """

    keys: tuple
    sampler: str
    reducer: str
    files: dict
    defaults: dict = field(default_factory=dict)


# Random walks need autonomous steps, a rule that ``_validate`` enforces;
# diffusion's regularity, like the field default, flows resolved: 48 steps at
# 3.16 and 21 at 3.95 (``experiments.flow_steps``).
COMMANDS = {
    "sample-field": Command((), "oscillation_samples", "oscillation_table",
                            {"table": "field_osc.csv", "records": "field_samples.jsonl",
                             "survival": "field_survival.jsonl"}),
    "flow": Command(("steps", "curve_vertices", "refinement_threshold"), "advected_samples",
                    "as_sampled", {"records": "curves.jsonl", "failures": "failures.jsonl"}),
    "diffusion": Command(("steps", "points", "ball_center", "ball_radius", "times", "grid"),
                         "diffusion_samples", "diffusion_totals",
                         {"totals": "diffusion.jsonl", "records": "diffusion_samples.jsonl"},
                         {"regularity": 3.16}),
    "intersections": Command(("steps", "curve_vertices", "refinement_threshold"),
                             "run_intersections", "mean_table",
                             {"table": "intersections.csv", "failures": "failures.jsonl"}),
    "random-walk": Command(("steps", "walk_steps", "probe"), "walk_samples", "as_sampled",
                           {"records": "walks.jsonl"}, {"kernel": temporal.CONSTANT}),
    "inversion": Command(("steps", "probe"), "run_inversion_test", "inversion_test",
                         {"test": "inversion.jsonl", "records": "inversion_samples.jsonl"}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "sample-field"
    regularity: float = 3.95
    spatial_max: int = 25
    include_axis_modes: bool = False
    temporal_max: int = 10
    kernel: str = temporal.PERIODIC
    samples: int = 100
    steps: int = 200
    refinement_threshold: float = 0.01
    seed: int = 0
    out: str = "results"
    workers: int = 0
    curve_vertices: int = 128
    points: int = 100
    ball_center: tuple = (0.5, 0.5)
    ball_radius: float = 0.1
    times: tuple = (0.0, 0.05, 0.1, 0.25)
    grid: int = 10
    walk_steps: int = 5
    probe: tuple = (0.3, 0.7)
    # not a field (no annotation), so not a key, nor is ``law``, which
    # ``__post_init__`` sets (module docstring)
    grid_nodes = 64

    def __post_init__(self):
        _validate(self)

    def eigenvalue_regularities(self) -> tuple:
        """``(law.regularity,)``, as ``perfbench/child.py`` reads it."""
        return (self.law.regularity,)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# What a value outside the law must be, by the type of its key's default
# (module docstring)
_TYPES = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a real number", _real),
    tuple: ("a tuple of real numbers", lambda v: isinstance(v, tuple) and all(map(_real, v))),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _validate(cfg: ExperimentConfig) -> None:
    def bad(key, msg):
        raise ValidationError(key, msg)

    for f in fields(cfg):
        if f.name in LAW_KEYS:
            continue
        value = getattr(cfg, f.name)
        kind, holds = _TYPES[type(f.default)]
        if not holds(value):
            bad(f.name, f"must be {kind}")
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            bad(f.name, "values must be finite")
    if cfg.command not in COMMANDS:
        bad("command", f"must be one of {tuple(COMMANDS)}")
    # the law checks its own keys, the config's values, and is the config's
    # law in eigenvalue units (module docstring)
    law = HamiltonianLaw(cfg.regularity, cfg.spatial_max, cfg.temporal_max, cfg.kernel,
                         cfg.include_axis_modes)
    object.__setattr__(cfg, "law", replace(law, regularity=cfg.regularity / (4.0 * math.pi**2)))
    if cfg.samples < 1:
        bad("samples", "must be >= 1")
    if cfg.steps < 1:
        bad("steps", "must be >= 1")
    if not 0.0 < cfg.refinement_threshold <= 0.5:
        bad("refinement_threshold", "must lie in (0, 0.5]")
    if cfg.seed < 0:
        bad("seed", "must be >= 0")
    if not cfg.out.strip():
        bad("out", "must name a directory")
    if cfg.out != cfg.out.strip():
        bad("out", "must not begin or end with whitespace")
    if cfg.workers < 0:
        bad("workers", "must be >= 0")
    if cfg.curve_vertices < 2:
        bad("curve_vertices", "must be >= 2")
    if cfg.points < 1:
        bad("points", "must be >= 1")
    if len(cfg.ball_center) != 2:
        bad("ball_center", "must be a pair")
    if not 0.0 < cfg.ball_radius < 0.5:
        bad("ball_radius", "must lie in (0, 0.5)")
    if not cfg.times:
        bad("times", "must hold at least one time")
    if any(b < a for a, b in zip(cfg.times, cfg.times[1:])):
        bad("times", "must be ascending")
    if any(t < 0.0 or t > 1.0 for t in cfg.times):
        bad("times", "must lie in [0, 1]")
    if cfg.grid < 2:
        bad("grid", "must be >= 2")
    if cfg.walk_steps < 0:
        bad("walk_steps", "must be >= 0")
    if len(cfg.probe) != 2:
        bad("probe", "must be a pair")
    if cfg.command == "random-walk" and cfg.kernel != temporal.CONSTANT:
        bad("kernel", "random walks require the constant-in-time kernel")


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _convert(raw: str, template):
    if isinstance(template, bool):
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return _float(raw)
    if isinstance(template, tuple):
        # a trailing comma ends the tuple, as in Python; an empty value is the
        # empty tuple, which reaches its key's own check
        parts = raw.removesuffix(",").split(",") if raw else []
        if not all(map(str.strip, parts)):
            raise ValueError(f"empty element in {raw!r}")
        return tuple(map(_float, parts))
    return raw.strip()


def parse_value(key: str, raw: str, line: int | None = None):
    """``raw`` converted to the type of ``key``'s default; a ParseError if it
    does not convert (non-finite numbers do not, nor do tuples with an empty
    element)."""
    try:
        return _convert(raw.strip(), getattr(ExperimentConfig, key))
    except ValueError as exc:
        raise ParseError(f"{key}: {exc}", line=line) from exc


def parse_config(text: str, command: str = "sample-field",
                 overrides: dict | None = None) -> ExperimentConfig:
    """Parse a key = value document into a validated config.

    ``overrides`` (typically CLI flags) take precedence over document keys,
    and both over the command's ``defaults``.
    """
    known = {f.name for f in fields(ExperimentConfig)} - {"command"}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ValidationError(key, "unknown key")
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        values[key] = parse_value(key, raw, line=lineno)
    for key, val in (overrides or {}).items():
        if val is not None:
            if key not in known:
                raise ValidationError(key, "unknown key")
            values[key] = val
    defaults = COMMANDS[command].defaults if command in COMMANDS else {}
    return ExperimentConfig(command=command, **{**defaults, **values})


def serialize_config(cfg: ExperimentConfig) -> str:
    """Echo the effective values of the keys ``cfg`` reads (module
    docstring), sorted, in the same parseable format."""
    lines = [f"# effective configuration for command '{cfg.command}'"]
    for name in sorted(LAW_KEYS + RUN_KEYS + COMMANDS[cfg.command].keys):
        if name == "temporal_max" and cfg.kernel != temporal.PERIODIC:
            continue
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ", ".join(map(str, value))
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"

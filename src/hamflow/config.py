"""Declarative experiment configuration.

One flat key-value document drives every command; the command itself is
selected by CLI subcommand.  All fields carry documented defaults, numeric
fields are range-checked, and unknown keys are rejected.

``regularity_units`` selects how the regularity values are interpreted:

* ``frequency``  -- per squared frequency (k^2 + j^2), the units in which
  the reference Monte Carlo tables are stated (default);
* ``eigenvalue`` -- per Laplace-Beltrami eigenvalue 4 pi^2 (k^2 + j^2).

The two differ by the constant factor 4 pi^2.

``steps`` is the most integrator steps per unit time (order 6, see
:mod:`hamflow.flow`); smooth laws use fewer (see :mod:`hamflow.experiments`).
Curve refinement runs until no image gap exceeds ``refinement_threshold``;
no key caps it (``hamflow.flow.MAX_IMAGE_VERTICES`` bounds an image).

``grid_nodes`` is accepted, checked and echoed; no kernel samples on a grid.
Only ``perfbench/child.py`` reads it, passes ``make_law``'s ``seed=`` or
calls ``eigenvalue_regularities``; once it stops, all three can go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import temporal
from .errors import ParseError, ValidationError

COMMANDS = ("sample-field", "flow", "diffusion", "intersections", "random-walk",
            "rkhs-norm", "tails", "concentration", "inversion")

# Defaults that differ by command, so that every command runs from its
# defaults: random walks need autonomous steps and the tail fit needs at
# least 1000 draws.  Diffusion's regularity, like the field default, is
# smooth enough to flow resolved: 48 steps at 3.16 and 21 at 3.95
# (``hamflow.experiments.flow_steps``).
COMMAND_DEFAULTS = {
    "diffusion": {"regularity": (3.16,)},
    "random-walk": {"kernel": temporal.CONSTANT},
    "tails": {"samples": 1000},
}


def _line(a, b, c):
    """Level function (a x + b y) - c of a closed line: integer on the line."""
    return lambda v: (a * v[:, 0] + b * v[:, 1]) - c


def _circle(center, radius):
    """Level function (torus distance to ``center``) - radius: zero on the circle."""
    def level(v):
        d = (v - center + 0.5) % 1.0 - 0.5
        return np.hypot(d[:, 0], d[:, 1]) - radius
    return level


# The fourteen test Lagrangians of the intersection experiment, by label:
# each one's level function of (V, 2) vertices.  L1-L3 are x = c, L7-L9
# y = c, L4-L6 and L10-L12 the closed lines through the origin of winding
# (1, q) and (p, 1), and L13 and L14 circles about the torus centre.
LAGRANGIANS = {
    **{f"L{i}": _line(1, 0, c) for i, c in enumerate((0.3, 0.5, 0.7), start=1)},
    **{f"L{i}": _line(q, -1, 0) for i, q in enumerate((2, 3, 4), start=4)},
    **{f"L{i}": _line(0, 1, c) for i, c in enumerate((0.3, 0.5, 0.7), start=7)},
    **{f"L{i}": _line(1, -p, 0) for i, p in enumerate((2, 3, 4), start=10)},
    "L13": _circle((0.5, 0.5), 0.1),
    "L14": _circle((0.5, 0.5), 0.2),
}

FREQUENCY_UNITS = "frequency"
EIGENVALUE_UNITS = "eigenvalue"


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "sample-field"
    regularity: tuple = (3.95,)
    regularity_units: str = FREQUENCY_UNITS
    spatial_max: int = 25
    include_axis_modes: bool = False
    temporal_max: int = 10
    kernel: str = temporal.PERIODIC
    grid_nodes: int = 64
    samples: int = 100
    steps: int = 200
    refinement_threshold: float = 0.01
    seed: int = 0
    out: str = "results"
    plot: bool = False
    workers: int = 0
    curve_vertices: int = 128
    points: int = 100
    ball_center: tuple = (0.5, 0.5)
    ball_radius: float = 0.1
    times: tuple = (0.0, 0.05, 0.1, 0.25)
    grid: int = 10
    walk_steps: int = 5
    probe: tuple = (0.3, 0.7)
    lagrangians: tuple = tuple(LAGRANGIANS)
    osc_spatial_grid: int = 128
    osc_time_grid: int = 101
    smoothing_eps: float = 0.01
    field_time: float = 0.0
    arrow_grid: int = 20

    def __post_init__(self):
        _validate(self)

    def eigenvalue_regularities(self) -> tuple:
        """Regularity values converted to eigenvalue units."""
        return tuple(self.eigenvalue_regularity(r) for r in self.regularity)

    def eigenvalue_regularity(self, regularity: float) -> float:
        """One regularity value, stated in ``regularity_units``, in eigenvalue
        units: the one place the units are converted."""
        if self.regularity_units == EIGENVALUE_UNITS:
            return float(regularity)
        return regularity / (4.0 * math.pi**2)


def _validate(cfg: ExperimentConfig) -> None:
    def bad(field, msg):
        raise ValidationError(field, msg)

    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            bad(f.name, "values must be finite")
    if cfg.command not in COMMANDS:
        bad("command", f"must be one of {COMMANDS}")
    if not cfg.regularity or any(r <= 0 for r in cfg.regularity):
        bad("regularity", "values must be positive")
    if len(set(cfg.regularity)) < len(cfg.regularity):
        bad("regularity", "values must be distinct")
    if cfg.regularity_units not in (FREQUENCY_UNITS, EIGENVALUE_UNITS):
        bad("regularity_units", "must be 'frequency' or 'eigenvalue'")
    if cfg.spatial_max < 1:
        bad("spatial_max", "must be >= 1")
    if cfg.temporal_max < 1:
        bad("temporal_max", "must be >= 1")
    if cfg.kernel not in temporal.KERNEL_TAGS:
        bad("kernel", f"must be one of {temporal.KERNEL_TAGS}")
    if cfg.grid_nodes < 2:
        bad("grid_nodes", "must be >= 2")
    if cfg.samples < 1:
        bad("samples", "must be >= 1")
    if cfg.steps < 1:
        bad("steps", "must be >= 1")
    if not 0.0 < cfg.refinement_threshold <= 0.5:
        bad("refinement_threshold", "must lie in (0, 0.5]")
    if cfg.seed < 0:
        bad("seed", "must be >= 0")
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
    if len(cfg.times) < 1 or any(b < a for a, b in zip(cfg.times, cfg.times[1:])):
        bad("times", "must be ascending")
    if any(t < 0.0 or t > 1.0 for t in cfg.times):
        bad("times", "must lie in [0, 1]")
    if cfg.grid < 2:
        bad("grid", "must be >= 2")
    if cfg.walk_steps < 0:
        bad("walk_steps", "must be >= 0")
    if len(cfg.probe) != 2:
        bad("probe", "must be a pair")
    if not cfg.lagrangians:
        bad("lagrangians", "must name at least one label")
    unknown = [lab for lab in cfg.lagrangians if lab not in LAGRANGIANS]
    if unknown:
        bad("lagrangians", f"unknown labels {unknown}")
    if len(set(cfg.lagrangians)) < len(cfg.lagrangians):
        bad("lagrangians", "labels must be distinct")
    if cfg.osc_spatial_grid < 2:
        bad("osc_spatial_grid", "must be >= 2")
    if cfg.osc_time_grid < 2:
        bad("osc_time_grid", "must be >= 2")
    if cfg.smoothing_eps <= 0:
        bad("smoothing_eps", "must be positive")
    if not 0.0 <= cfg.field_time <= 1.0:
        bad("field_time", "must lie in [0, 1]")
    if cfg.arrow_grid < 2:
        bad("arrow_grid", "must be >= 2")


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
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if template and isinstance(template[0], str):
            return tuple(parts)
        return tuple(_float(p) for p in parts)
    return raw.strip()


def parse_value(key: str, raw: str, line: int | None = None):
    """``raw`` converted to the type of ``key``'s default; a ParseError if it
    does not convert (non-finite numbers do not)."""
    try:
        return _convert(raw.strip(), getattr(ExperimentConfig, key))
    except ValueError as exc:
        raise ParseError(f"{key}: {exc}", line=line) from exc


def parse_config(text: str, command: str = "sample-field",
                 overrides: dict | None = None) -> ExperimentConfig:
    """Parse a key = value document into a validated config.

    ``overrides`` (typically CLI flags) take precedence over document keys,
    and both over the command's entry in ``COMMAND_DEFAULTS``.
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
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in known:
                raise ValidationError(key, "unknown key")
            values[key] = val
    for key, val in COMMAND_DEFAULTS.get(command, {}).items():
        values.setdefault(key, val)
    return ExperimentConfig(command=command, **values)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Echo the full effective config in the same parseable format."""
    lines = [f"# effective configuration for command '{cfg.command}'"]
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        if f.name == "command":
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ", ".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"

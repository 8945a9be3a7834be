"""Monte Carlo experiments: Lagrangian intersections, diffusion, tails,
inversion invariance, and concentration.

Every sample owns a random stream derived from (seed, regularity index,
sample index); aggregation is an ordered reduction by sample index, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from .basis import TorusPoint
from .config import EIGENVALUE_UNITS, ExperimentConfig
from .errors import DegenerateOverlap, HamflowError, ValidationError
from .field import make_law, sample_hamiltonian
from .flow import FlowSettings, LagrangianCurve, advect_curve, flow_points, flow_points_through, horizontal_circle
from .rng import derive

_LEVEL_TIE = 1e-12
_OVERLAP_TOL = 1e-9
# Draws per batched flow in the inversion test.
INVERSION_CHUNK = 16


# ---------------------------------------------------------------------------
# Test Lagrangians and crossing counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestLagrangian:
    """A reference curve to intersect against.

    kinds: 'vertical' (x = c), 'horizontal' (y = c), 'sloped' (the closed
    line {(p a, q a) mod 1}), 'circle' (center/radius).
    """

    kind: str
    label: str = ""
    c: float = 0.0
    p: int = 0
    q: int = 0
    center: tuple = (0.5, 0.5)
    radius: float = 0.1

    def __post_init__(self):
        if self.kind in ("vertical", "horizontal"):
            if not 0.0 <= self.c < 1.0:
                raise ValueError("line position must lie in [0, 1)")
        elif self.kind == "sloped":
            if self.p == 0 and self.q == 0:
                raise ValueError("slope integers must not both be zero")
        elif self.kind == "circle":
            if not 0.0 < self.radius < 0.5:
                raise ValueError("radius must lie in (0, 0.5)")
        else:
            raise ValueError(f"unknown Lagrangian kind {self.kind!r}")


def paper_lagrangians() -> dict:
    """The fourteen test Lagrangians of the reference experiment, by label."""
    cat = {}
    for i, c in enumerate((0.3, 0.5, 0.7), start=1):
        cat[f"L{i}"] = TestLagrangian("vertical", label=f"L{i}", c=c)
    for i, q in enumerate((2, 3, 4), start=4):
        cat[f"L{i}"] = TestLagrangian("sloped", label=f"L{i}", p=1, q=q)
    for i, c in enumerate((0.3, 0.5, 0.7), start=7):
        cat[f"L{i}"] = TestLagrangian("horizontal", label=f"L{i}", c=c)
    for i, p in enumerate((2, 3, 4), start=10):
        cat[f"L{i}"] = TestLagrangian("sloped", label=f"L{i}", p=p, q=1)
    cat["L13"] = TestLagrangian("circle", label="L13", center=(0.5, 0.5), radius=0.1)
    cat["L14"] = TestLagrangian("circle", label="L14", center=(0.5, 0.5), radius=0.2)
    return cat


def _dedupe(verts: np.ndarray) -> np.ndarray:
    if len(verts) < 2:
        return verts
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(verts, axis=0), axis=1) > 1e-12
    return verts[keep]


def count_crossings(curve: LagrangianCurve, lagrangian: TestLagrangian) -> int:
    """Transverse crossings of the curve with the test Lagrangian.

    Level-function values within 1e-12 of the level set are treated as
    positive, so tangencies resolve deterministically.
    """
    verts = _dedupe(curve.vertices)
    if lagrangian.kind == "circle":
        delta = (verts - np.asarray(lagrangian.center) + 0.5) % 1.0 - 0.5
        f = np.hypot(delta[:, 0], delta[:, 1]) - lagrangian.radius
        dist = np.abs(f)
        _check_overlap(dist)
        signs = np.where(f >= -_LEVEL_TIE, 1.0, -1.0)
        return int(np.sum(signs[1:] != signs[:-1]))

    if lagrangian.kind == "vertical":
        f = verts[:, 0] - lagrangian.c
    elif lagrangian.kind == "horizontal":
        f = verts[:, 1] - lagrangian.c
    else:
        f = lagrangian.q * verts[:, 0] - lagrangian.p * verts[:, 1]
    nearest = np.round(f)
    dist = np.abs(f - nearest)
    _check_overlap(dist)
    f = np.where(dist < _LEVEL_TIE, nearest + _LEVEL_TIE, f)
    floors = np.floor(f)
    return int(np.sum(np.abs(np.diff(floors))))


def _check_overlap(dist: np.ndarray) -> None:
    on_level = dist < _OVERLAP_TOL
    seg_on = on_level[1:] & on_level[:-1]
    if len(seg_on) and np.mean(seg_on) > 0.5:
        raise DegenerateOverlap("curve lies along the level set")


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    label: str
    regularity: float
    estimate: float
    standard_error: float
    samples: int


@dataclass(frozen=True)
class ResultTable:
    rows: tuple
    failures: tuple = ()

    def row(self, label: str, regularity: float) -> ResultRow:
        for r in self.rows:
            if r.label == label and abs(r.regularity - regularity) < 1e-12:
                return r
        raise KeyError((label, regularity))


@dataclass(frozen=True)
class DiffusionResult:
    times: tuple
    grid_counts: np.ndarray            # (T, m, m) aggregated over samples
    chi_square: np.ndarray             # (T,) for the aggregated counts
    per_sample_chi_square: np.ndarray  # (samples, T)


@dataclass(frozen=True)
class TailStats:
    regularity: float
    mean: float                        # R: empirical mean of the fit half
    tail_scale: float                  # C: least-squares fit of the survival decay
    thresholds: np.ndarray
    survival: np.ndarray
    heldout_u: float
    heldout_exceedance: float
    heldout_bound: float

    @property
    def bound_holds(self) -> bool:
        return self.heldout_exceedance <= self.heldout_bound


@dataclass(frozen=True)
class InversionResult:
    statistic: float
    p_value: float
    level: float
    forward: np.ndarray
    inverse: np.ndarray

    @property
    def passed(self) -> bool:
        return self.p_value > self.level


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

def _law_for(cfg: ExperimentConfig, regularity: float, kernel: str | None = None):
    scale = 1.0 if cfg.regularity_units == EIGENVALUE_UNITS else 4.0 * math.pi**2
    return make_law(regularity / scale,
                    spatial_max=cfg.spatial_max,
                    temporal_max=cfg.temporal_max,
                    kernel=kernel or cfg.kernel,
                    seed=cfg.seed,
                    include_axis_modes=cfg.include_axis_modes,
                    grid_nodes=cfg.grid_nodes)


def _settings_for(cfg: ExperimentConfig) -> FlowSettings:
    return FlowSettings(steps=cfg.steps,
                        refinement_threshold=cfg.refinement_threshold,
                        max_refinement_depth=cfg.max_refinement_depth)


def worker_count(cfg: ExperimentConfig) -> int:
    if cfg.workers > 0:
        return cfg.workers
    env = os.environ.get("HAMFLOW_WORKERS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return os.cpu_count() or 1

def _run_indexed(task, args_list, workers: int):
    """Map ``task`` over ``args_list`` preserving order."""
    if workers <= 1 or len(args_list) <= 1:
        return [task(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, args_list, chunksize=max(1, len(args_list) // (8 * workers))))


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def _intersection_sample(args):
    cfg, r_index, sample_index = args
    regularity = cfg.regularity[r_index]
    law = _law_for(cfg, regularity)
    settings = _settings_for(cfg)
    rng = derive(cfg.seed, r_index, sample_index)
    catalog = paper_lagrangians()
    try:
        draw = sample_hamiltonian(law, rng)
        image = advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices),
                             1.0, settings)
        return {label: count_crossings(image, catalog[label])
                for label in cfg.lagrangians}
    except HamflowError as exc:
        return (sample_index, f"{type(exc).__name__}: {exc}")


def run_intersections(cfg: ExperimentConfig) -> ResultTable:
    """Estimate expected crossing counts of advected K with each Lagrangian."""
    workers = worker_count(cfg)
    rows = []
    failures = []
    for r_index, regularity in enumerate(cfg.regularity):
        args = [(cfg, r_index, i) for i in range(cfg.samples)]
        outcomes = _run_indexed(_intersection_sample, args, workers)
        errors = [(regularity,) + o for o in outcomes if isinstance(o, tuple)]
        counts = [o for o in outcomes if isinstance(o, dict)]
        failures.extend(errors)
        if len(errors) > 0.01 * cfg.samples:
            raise HamflowError(
                f"regularity {regularity}: {len(errors)} of {cfg.samples} samples "
                f"failed (budget 1%): {errors[:3]}")
        for label in cfg.lagrangians:
            values = np.array([c[label] for c in counts], dtype=float)
            se = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
            rows.append(ResultRow(label=label, regularity=regularity,
                                  estimate=float(values.mean()),
                                  standard_error=float(se),
                                  samples=len(values)))
    return ResultTable(rows=tuple(rows), failures=tuple(failures))


def advected_samples(cfg: ExperimentConfig, r_index: int = 0, count: int | None = None):
    """Advected images of K for the first ``count`` sample indices (plot aid)."""
    regularity = cfg.regularity[r_index]
    law = _law_for(cfg, regularity)
    settings = _settings_for(cfg)
    curves = []
    for i in range(count if count is not None else cfg.samples):
        draw = sample_hamiltonian(law, derive(cfg.seed, r_index, i))
        curves.append(advect_curve(draw, horizontal_circle(0.5, cfg.curve_vertices),
                                   1.0, settings))
    return curves


# ---------------------------------------------------------------------------
# Diffusion
# ---------------------------------------------------------------------------

def _ball_points(rng, center, radius, n) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return np.stack([center[0] + rad * np.cos(angle),
                     center[1] + rad * np.sin(angle)], axis=-1)


def _bin_counts(pts: np.ndarray, m: int) -> np.ndarray:
    cells = np.floor((pts % 1.0) * m).astype(int)
    cells = np.clip(cells, 0, m - 1)
    flat = cells[:, 0] * m + cells[:, 1]
    return np.bincount(flat, minlength=m * m).reshape(m, m)


def _chi_square(counts: np.ndarray) -> float:
    expected = counts.sum() / counts.size
    return float(np.sum((counts - expected) ** 2 / expected))


def _diffusion_sample(args):
    cfg, sample_index = args
    law = _law_for(cfg, cfg.regularity[0])
    settings = _settings_for(cfg)
    rng = derive(cfg.seed, 0, sample_index)
    draw = sample_hamiltonian(law, rng)
    pts = _ball_points(rng, cfg.ball_center, cfg.ball_radius, cfg.points)
    states = flow_points_through(draw, pts, cfg.times, settings)
    m = cfg.grid
    counts = np.stack([_bin_counts(s, m) for s in states])
    chi = np.array([_chi_square(c) for c in counts])
    return counts, chi


def run_diffusion(cfg: ExperimentConfig) -> DiffusionResult:
    """Advect point clouds, bin them, and track uniformity chi-square."""
    workers = worker_count(cfg)
    outcomes = _run_indexed(_diffusion_sample, [(cfg, i) for i in range(cfg.samples)], workers)
    total = np.sum([c for c, _ in outcomes], axis=0)
    per_sample = np.stack([chi for _, chi in outcomes])
    agg_chi = np.array([_chi_square(grid) for grid in total])
    return DiffusionResult(times=tuple(cfg.times), grid_counts=total,
                           chi_square=agg_chi, per_sample_chi_square=per_sample)


# ---------------------------------------------------------------------------
# Oscillation-based statistics
# ---------------------------------------------------------------------------

def _osc_sample(args):
    cfg, r_index, sample_index = args
    law = _law_for(cfg, cfg.regularity[r_index])
    draw = sample_hamiltonian(law, derive(cfg.seed, r_index, sample_index))
    return draw.oscillation(cfg.osc_spatial_grid, cfg.osc_time_grid)


def oscillation_samples(cfg: ExperimentConfig, r_index: int = 0) -> np.ndarray:
    workers = worker_count(cfg)
    args = [(cfg, r_index, i) for i in range(cfg.samples)]
    return np.array(_run_indexed(_osc_sample, args, workers))


def run_tail_stats(cfg: ExperimentConfig) -> TailStats:
    """Empirical survival of the oscillation norm with a sub-Gaussian fit.

    The first half of the draws fits (R, C); the second half supplies the
    held-out exceedance check at two standard deviations.
    """
    if cfg.samples < 1000:
        raise ValidationError("samples", "tail statistics need >= 1000 draws")
    osc = oscillation_samples(cfg)
    half = len(osc) // 2
    fit, held = osc[:half], osc[half:]
    center = float(fit.mean())
    exceed = np.sort(fit[fit > center] - center)
    if len(exceed) < 8:
        raise HamflowError("degenerate oscillation sample: no tail to fit")
    survival = 1.0 - (np.arange(1, len(exceed) + 1) - 0.5) / len(exceed)
    top = exceed >= np.quantile(exceed, 0.75)
    u2 = exceed[top] ** 2
    logs = np.log(survival[top])
    slope = float(np.sum(u2 * (logs - np.log(2.0))) / np.sum(u2**2))
    tail_scale = -1.0 / slope if slope < 0 else float("inf")
    u_check = 2.0 * float(fit.std(ddof=1))
    frac = float(np.mean(held > center + u_check))
    bound = 2.0 * math.exp(-u_check**2 / tail_scale) if math.isfinite(tail_scale) else 1.0
    return TailStats(regularity=cfg.regularity[0], mean=center, tail_scale=tail_scale,
                     thresholds=exceed, survival=survival,
                     heldout_u=u_check, heldout_exceedance=frac, heldout_bound=bound)


def run_concentration(cfg: ExperimentConfig) -> ResultTable:
    """Mean oscillation norm per regularity value."""
    rows = []
    for r_index, regularity in enumerate(cfg.regularity):
        osc = oscillation_samples(cfg, r_index)
        se = osc.std(ddof=1) / math.sqrt(len(osc)) if len(osc) > 1 else 0.0
        rows.append(ResultRow(label="osc", regularity=regularity,
                              estimate=float(osc.mean()), standard_error=float(se),
                              samples=len(osc)))
    return ResultTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Inversion invariance
# ---------------------------------------------------------------------------

def _displacement_chunk(args):
    """Displacements of the probe under draws start..stop-1 of one branch.

    Branch 0 flows forward over [0, 1], branch 1 backward; the chunk's
    draws run through one batched RK4 loop.
    """
    cfg, branch, start, stop = args
    law = _law_for(cfg, cfg.regularity[0])
    settings = _settings_for(cfg)
    draws = [sample_hamiltonian(law, derive(cfg.seed, branch, i)) for i in range(start, stop)]
    probe = np.asarray(cfg.probe, dtype=float)
    pts = np.broadcast_to(probe, (len(draws), 1, 2))
    t0, t1 = (0.0, 1.0) if branch == 0 else (1.0, 0.0)
    image = flow_points(draws, pts, t0, t1, settings)[:, 0]
    d = (image - probe + 0.5) % 1.0 - 0.5
    return np.hypot(d[:, 0], d[:, 1])


def run_inversion_test(cfg: ExperimentConfig, level: float = 0.01) -> InversionResult:
    """Two-sample KS test between displacement laws of the flow and its inverse.

    Samples are flowed in chunks of INVERSION_CHUNK consecutive indices per
    branch; chunk boundaries depend on the sample index only, so results do
    not depend on the worker count.
    """
    if cfg.kernel == "sqexp":
        raise ValidationError("kernel", "inversion test requires a time-symmetric kernel")
    workers = worker_count(cfg)
    starts = range(0, cfg.samples, INVERSION_CHUNK)
    chunks = [(cfg, branch, start, min(start + INVERSION_CHUNK, cfg.samples))
              for branch in (0, 1) for start in starts]
    disp = _run_indexed(_displacement_chunk, chunks, workers)
    fwd = np.concatenate(disp[:len(starts)])
    inv = np.concatenate(disp[len(starts):])
    ks = scipy_stats.ks_2samp(fwd, inv)
    return InversionResult(statistic=float(ks.statistic), p_value=float(ks.pvalue),
                           level=level, forward=fwd, inverse=inv)

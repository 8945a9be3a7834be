"""Monte Carlo experiments: Lagrangian intersections, diffusion, tails,
inversion invariance, concentration and random walks.

Every sample owns a random stream derived from (seed, regularity index,
sample index); the inversion test's inverse branch uses stream index 1 and
walk w draws step j from (seed, w, j).  One runner (``_run_chunks``) hands
each task a chunk of consecutive sample indices: CHUNK of them, fewer when
there are fewer than CHUNK per worker, and one for the oscillation commands,
which do not batch draws.  Each process builds a law once (``law_for``),
and a task draws sample i from its own stream exactly as a one-sample task
would and flows the chunk's draws as one batch.  Aggregation is an ordered
reduction by sample index.

With at least CHUNK samples per worker the chunk boundaries depend on the
index only, so results do not depend on the worker count.  Below that,
boundaries move with the worker count, and results stay bit-identical
because a draw's flow does not depend on the other draws of its batch.
That holds when the BLAS matrix product gives each row the same result at
any row count: a property of the BLAS, not a numpy guarantee, which
``tests/test_experiments.py`` and ``tests/test_cli.py`` check.

RK4 step counts.  The config's ``steps`` is the most RK4 steps per unit
time.  ``flow``, ``intersections``, ``diffusion``, ``inversion`` and
``random-walk`` flow the draws of a law with periodic or constant kernel at

    n = min(steps, max(1, ceil(Lambda / THETA)))

steps per unit time (``flow_steps``), with Lambda the law's expected
spectral bound on sup |DX| (``HamiltonianLaw.lipschitz_bound``) and THETA =
0.0716.  THETA puts the periodic law at regularity 3 (frequency units,
spatial_max 25, temporal_max 10; Lambda = 14.33) at 201, so it keeps 200
steps.  Smoother laws take fewer: 167, 115, 67, 40, 24, 9 and 2 steps at
regularity 3.16, 3.5, 4, 4.5, 5, 6 and 8.  Against a 3,200-step flow the
count's error stayed at or below max(1.5e-6, the error at 200 steps) on
every law tested (``tests/test_experiments.py``).  The count depends on
the law alone, never on a chunk's draws, so outputs stay independent of
the worker count.  ``sqexp`` laws keep ``steps``: their paths are
piecewise linear in time, so Lambda does not govern the RK4 error.
A walk's steps are draws of a constant law and flow at its count.  The
walk is also the time-1 flow of their concatenation
(``flow.concatenate_autonomous``), which has no law and integrates at
``steps`` times its part count; the tests check that the two agree.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import temporal
from .config import ExperimentConfig
from .errors import DegenerateOverlap, FailureBudgetExceeded, HamflowError, ValidationError
from .field import HamiltonianLaw, PackedBatch, RandomHamiltonian, make_law, sample_hamiltonian
from .flow import (FlowSettings, LagrangianCurve, advect_curves, flow_points, flow_points_through,
                   horizontal_circle, time_reversed_hamiltonian)
from .rng import derive
from .walk import induced_point_walks, sample_walk

_LEVEL_TIE = 1e-12
_OVERLAP_TOL = 1e-9
# Consecutive sample indices per task: the draws of a chunk flow as one
# batch (2 * CHUNK rows in an inversion chunk).
# The tracemalloc peak of an inversion chunk at spatial_max 25 is 4.7 MB at
# regularity 3 and 44.8 MB at the full band (regularity 0.1).
CHUNK = 16
# Lipschitz bound per RK4 step of the step-count rule (module docstring).
THETA = 0.0716


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

def standard_error(values) -> float:
    """std(ddof=1) / sqrt(n) of ``values`` (0.0 below two), taken of the values
    scaled by an exact power of two so that it stays finite (plain squares
    overflow from about 1e154): bit for bit the plain formula wherever that
    formula's squares stay in the normal range."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    _, e = np.frexp(np.max(np.abs(values)))
    return float(np.ldexp(np.ldexp(values, -e).std(ddof=1), e) / math.sqrt(len(values)))


@lru_cache(maxsize=16)
def law_for(cfg: ExperimentConfig, regularity: float):
    """The law of ``cfg`` at one regularity, built once per process: every
    chunk of a run shares it, and with it the band, weights, scales, head
    rows and step count the law computes once."""
    return make_law(cfg.eigenvalue_regularity(regularity),
                    spatial_max=cfg.spatial_max,
                    temporal_max=cfg.temporal_max,
                    kernel=cfg.kernel,
                    seed=cfg.seed,
                    include_axis_modes=cfg.include_axis_modes,
                    grid_nodes=cfg.grid_nodes)


def flow_steps(law: HamiltonianLaw, cap: int) -> int:
    """RK4 steps per unit time for the draws of ``law``, at most ``cap``: the
    rule of the module docstring for periodic and constant kernels, ``cap``
    for sqexp."""
    if law.kernel.tag == temporal.SQEXP:
        return cap
    return min(cap, max(1, math.ceil(law.lipschitz_bound() / THETA)))


def _settings_for(cfg: ExperimentConfig, law: HamiltonianLaw | None = None) -> FlowSettings:
    """The flow settings of ``cfg``, at ``law``'s step count if a law is given
    and at ``cfg.steps`` if not."""
    return FlowSettings(steps=cfg.steps if law is None else flow_steps(law, cfg.steps),
                        refinement_threshold=cfg.refinement_threshold,
                        max_refinement_depth=cfg.max_refinement_depth)


def worker_count(cfg: ExperimentConfig) -> int:
    if cfg.workers > 0:
        return cfg.workers
    env = os.environ.get("HAMFLOW_WORKERS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunks(task, cfg: ExperimentConfig, r_index: int = 0, length: int = CHUNK) -> list:
    """Per-sample results of ``task`` for sample indices 0..samples-1, in order.

    ``task((cfg, r_index, start, stop))`` returns the results of the
    consecutive indices start..stop-1 as a list.  Chunks hold ``length``
    indices, or ceil(samples / workers) if that is fewer, so that every one
    of the ``worker_count(cfg)`` processes gets a chunk; the last chunk may
    hold fewer.
    """
    workers = worker_count(cfg)
    length = max(1, min(length, -(-cfg.samples // workers)))
    chunks = [(cfg, r_index, start, min(start + length, cfg.samples))
              for start in range(0, cfg.samples, length)]
    if workers <= 1 or len(chunks) <= 1:
        results = [task(chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, chunks,
                                    chunksize=max(1, len(chunks) // (8 * workers))))
    return [result for chunk in results for result in chunk]


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def _advected_chunk(args) -> list:
    """Images of K under samples start..stop-1 of regularity r_index.

    Each draw is packed as it is sampled and then let go; the chunk's curves
    advect together (``advect_curves``).  Entry i is the image curve or the
    ``HamflowError`` that sample i raised.
    """
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    batch, rows, out = PackedBatch(), [], {}
    for i in range(start, stop):
        try:
            batch.append(sample_hamiltonian(law, cfg.seed, r_index, i))
        except HamflowError as exc:
            out[i] = exc
        else:
            rows.append(i)
    images = advect_curves(batch, horizontal_circle(0.5, cfg.curve_vertices), 1.0,
                           _settings_for(cfg, law))
    out.update(zip(rows, images))
    return [out[i] for i in range(start, stop)]


def _intersection_chunk(args) -> list:
    """Per sample: {label: crossings}, or (sample index, error text)."""
    cfg, _, start, _ = args
    catalog = paper_lagrangians()
    results = []
    for i, image in enumerate(_advected_chunk(args), start=start):
        if not isinstance(image, HamflowError):
            try:
                results.append({label: count_crossings(image, catalog[label])
                                for label in cfg.lagrangians})
                continue
            except HamflowError as exc:
                image = exc
        results.append((i, f"{type(image).__name__}: {image}"))
    return results


def run_intersections(cfg: ExperimentConfig) -> ResultTable:
    """Estimate expected crossing counts of advected K with each Lagrangian.

    Raises ``FailureBudgetExceeded``, carrying every failure so far, when
    more than 1% of one regularity's samples fail.
    """
    rows = []
    failures = []
    for r_index, regularity in enumerate(cfg.regularity):
        outcomes = _run_chunks(_intersection_chunk, cfg, r_index)
        errors = [(regularity,) + o for o in outcomes if isinstance(o, tuple)]
        counts = [o for o in outcomes if isinstance(o, dict)]
        failures.extend(errors)
        if len(errors) > 0.01 * cfg.samples:
            raise FailureBudgetExceeded(
                f"regularity {regularity}: {len(errors)} of {cfg.samples} samples "
                f"failed (budget 1%): {errors[:3]}", failures)
        for label in cfg.lagrangians:
            values = np.array([c[label] for c in counts], dtype=float)
            rows.append(ResultRow(label=label, regularity=regularity,
                                  estimate=float(values.mean()),
                                  standard_error=standard_error(values),
                                  samples=len(values)))
    return ResultTable(rows=tuple(rows), failures=tuple(failures))


def advected_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    """Advected images of K for every sample index (plot aid).

    Raises the error of the first sample that failed.
    """
    images = _run_chunks(_advected_chunk, cfg, r_index)
    for image in images:
        if isinstance(image, HamflowError):
            raise image
    return images


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


def _diffusion_chunk(args) -> list:
    """(bin counts, chi-square) per time for samples start..stop-1.

    Sample i draws its Hamiltonian's full (N, m) normals and then its ball
    points from one stream, so the draw is built from that array rather
    than by ``sample_hamiltonian``.  The chunk's clouds flow as one batch.
    """
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    batch = PackedBatch()
    shape = (len(law.basis()), law.kernel.gaussians_per_sample())
    pts = np.empty((stop - start, cfg.points, 2))
    for row, i in enumerate(range(start, stop)):
        rng = derive(cfg.seed, r_index, i)
        batch.append(RandomHamiltonian(law, rng.standard_normal(shape)))
        pts[row] = _ball_points(rng, cfg.ball_center, cfg.ball_radius, cfg.points)
    states = flow_points_through(batch, pts, cfg.times, _settings_for(cfg, law))
    results = []
    for row in range(stop - start):
        counts = np.stack([_bin_counts(s[row], cfg.grid) for s in states])
        results.append((counts, np.array([_chi_square(c) for c in counts])))
    return results


def run_diffusion(cfg: ExperimentConfig) -> DiffusionResult:
    """Advect point clouds, bin them, and track uniformity chi-square."""
    outcomes = _run_chunks(_diffusion_chunk, cfg)
    total = np.sum([c for c, _ in outcomes], axis=0)
    per_sample = np.stack([chi for _, chi in outcomes])
    agg_chi = np.array([_chi_square(grid) for grid in total])
    return DiffusionResult(times=tuple(cfg.times), grid_counts=total,
                           chi_square=agg_chi, per_sample_chi_square=per_sample)


# ---------------------------------------------------------------------------
# Oscillation-based statistics
# ---------------------------------------------------------------------------

def _osc_chunk(args) -> list:
    """Oscillation norms of samples start..stop-1."""
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    return [sample_hamiltonian(law, cfg.seed, r_index, i)
            .oscillation(cfg.osc_spatial_grid, cfg.osc_time_grid)
            for i in range(start, stop)]


def oscillation_samples(cfg: ExperimentConfig, r_index: int = 0) -> np.ndarray:
    # one draw per task: oscillation does not batch draws
    return np.array(_run_chunks(_osc_chunk, cfg, r_index, length=1))


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
        rows.append(ResultRow(label="osc", regularity=regularity,
                              estimate=float(osc.mean()), standard_error=standard_error(osc),
                              samples=len(osc)))
    return ResultTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Inversion invariance
# ---------------------------------------------------------------------------

def _displacement_chunk(args) -> list:
    """(forward, inverse) displacements of the probe for samples start..stop-1.

    Sample i draws its forward Hamiltonian from stream (seed, 0, i) and its
    inverse one from (seed, 1, i).  The inverse branch flows the inverse
    draw back from 1 to 0, which is the forward flow of its time reversal
    (``time_reversed_hamiltonian``).  The reversal keeps the draw's time
    basis, so the chunk packs its n forward draws and the n reversals into
    one batch of 2n rows and flows them from 0 to 1 in one RK4 loop.
    """
    cfg, _, start, stop = args
    law = law_for(cfg, cfg.regularity[0])
    batch = PackedBatch()
    for branch in (0, 1):
        for i in range(start, stop):
            draw = sample_hamiltonian(law, cfg.seed, branch, i)
            batch.append(time_reversed_hamiltonian(draw) if branch else draw)
    probe = np.asarray(cfg.probe, dtype=float)
    images = flow_points(batch, np.broadcast_to(probe, (len(batch), 1, 2)), 0.0, 1.0,
                         _settings_for(cfg, law))
    d = (images[:, 0] - probe + 0.5) % 1.0 - 0.5
    dist = np.hypot(d[:, 0], d[:, 1])
    return list(zip(dist[:stop - start], dist[stop - start:]))


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple:
    """(statistic, p-value) of the two-sided two-sample KS test, equal sizes.

    The statistic is h/n, h = round(d n), with d the largest gap between the
    right-continuous empirical CDFs over the pooled values.  The p-value is
    the exact P(D >= h/n) = 2 Σ_k (-1)^k C(2n, n - (k+1)h) / C(2n, n) in
    Hodges' nested form, evaluated in scipy's order so that it matches
    ``scipy.stats.ks_2samp(method="exact")`` bit for bit; it is clipped to
    [0, 1].
    """
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    pooled = np.concatenate([a, b])
    gaps = (np.searchsorted(a, pooled, side="right") / n
            - np.searchsorted(b, pooled, side="right") / n)
    h = int(np.round(max(gaps.max(), -gaps.min()) * n))
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    return h / n, min(max(2 * p, 0.0), 1.0)


def run_inversion_test(cfg: ExperimentConfig, level: float = 0.01) -> InversionResult:
    """Two-sample KS test between displacement laws of the flow and its inverse.

    The test is two-sided and exact: Hodges' formula for equal sample sizes,
    evaluated in scipy's order (``_ks_two_sample``), so statistic and p-value
    equal ``scipy.stats.ks_2samp`` bit for bit up to n = 10,000.  It departs
    from scipy's default in two places: above n = 10,000 scipy switches to
    the asymptotic ``kstwo.sf`` while this stays exact (equal to
    ``method="exact"``), and where the exact sum leaves [0, 1] by rounding
    scipy falls back to ``kstwo.sf`` while this clips.
    """
    if cfg.kernel == "sqexp":
        raise ValidationError("kernel", "inversion test requires a time-symmetric kernel")
    fwd, inv = (np.array(branch) for branch in zip(*_run_chunks(_displacement_chunk, cfg)))
    statistic, p_value = _ks_two_sample(fwd, inv)
    return InversionResult(statistic=statistic, p_value=p_value,
                           level=level, forward=fwd, inverse=inv)


# ---------------------------------------------------------------------------
# Random walks
# ---------------------------------------------------------------------------

def _walk_chunk(args) -> list:
    """Probe trajectories of walks start..stop-1; step j of every walk in the
    chunk is one batched flow (``induced_point_walks``)."""
    cfg, _, start, stop = args
    law = law_for(cfg, cfg.regularity[0])
    walks = [sample_walk(law, cfg.walk_steps, w) for w in range(start, stop)]
    return list(induced_point_walks(walks, cfg.probe, _settings_for(cfg, law)))


def run_random_walks(cfg: ExperimentConfig) -> list:
    """The probe's trajectory under each of ``samples`` walks of ``walk_steps``
    steps; walk w draws step j from stream (seed, w, j)."""
    return _run_chunks(_walk_chunk, cfg)

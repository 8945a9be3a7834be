"""Monte Carlo experiments: Lagrangian intersections, diffusion, tails,
inversion invariance, concentration, RKHS norms and random walks.

Crossings.  The fourteen test Lagrangians are one table,
``config.LAGRANGIANS``: each label's level function, (a x + b y) - c for
the twelve closed lines and the torus distance to a centre minus a radius
for the two circles.  ``count_crossings`` evaluates them at a curve's
vertices as one array and counts every Lagrangian by one rule, the changes
of floor f.

Records.  Each sampler ``(cfg, r_index)`` (``oscillation_samples``,
``run_intersections``, ...) runs a per-sample task through ``_run_chunks``
and returns one record per sample, in sample order: a dict of the sample's
index (``sample``, or ``walk``) and its values, which may be numpy arrays
and scalars, or of its index and its error text (``error``).  A reducer
``(cfg, runs)`` (``mean_table``, ``tail_fit``, ...) takes the records of
each regularity drawn and returns named lists of records or table rows;
``hamflow.cli`` pairs each command with its sampler, reducer and files.

Streams and chunks.  Every sample owns a random stream derived from (seed,
regularity index, sample index); the inversion test's inverse branch uses
stream index 1 and walk w draws step j from (seed, w, j).  ``_run_chunks``
cuts a run into balanced chunks of consecutive sample indices: the fewest
chunks of at most CHUNK samples whose count is a multiple of the worker
count (as far as the samples allow), their lengths differing by one at
most.  Each process builds a law once (``law_for``), and a task draws
sample i from its own stream exactly as a one-sample task would.  The
flowing commands flow a chunk's draws as one batch; the oscillation and
RKHS commands take each draw alone.

Chunk boundaries move with the sample and worker counts, and results stay
bit-identical because a draw's flow does not depend on the other draws of
its batch, nor a point's image on the other points of its row.  That holds
when the BLAS matrix product gives each row the same result at any row
count of two or more: a property of the BLAS, not a numpy guarantee, which
``tests/test_experiments.py``, ``tests/test_flow.py`` and
``tests/test_cli.py`` check.  One point takes numpy's matrix-vector path,
which rounds differently: ``inversion`` and ``random-walk`` always flow one
point per draw, and a curve's refinement pass flows rows of two points at
least (``hamflow.flow``).

Step counts.  The config's ``steps`` is the most order-6 steps
(``hamflow.flow``) per unit time.  ``flow``, ``intersections``,
``diffusion``, ``inversion`` and ``random-walk`` flow the draws of a law,
whatever its kernel, at

    n = min(steps, max(MIN_STEPS, ceil(Lambda / THETA)))

steps per unit time (``flow_steps``), with Lambda the law's expected
spectral bound on sup |DX| (``HamiltonianLaw.lipschitz_bound``), THETA =
0.25 and MIN_STEPS = 2.  The periodic law at regularity 3 (frequency
units, spatial_max 25, temporal_max 10; Lambda = 14.33) takes 58 steps.
Smoother laws take fewer: 48, 33, 20, 12, 7, 3 and 2 steps at regularity
3.16, 3.5, 4, 4.5, 5, 6 and 8.  Rougher laws, 2 and below at the
defaults, take the cap.  Against a 1,600-step flow the count's error stays
at or below max(1.5e-6, the error at 200 steps) on every law tested
(``tests/test_experiments.py``).  The count depends on the law
alone, never on a chunk's draws, so outputs stay independent of the
worker count.  A walk's steps are draws of a constant law and flow at its
count, one step's time-1 flow after another (``hamflow.walk``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from .config import LAGRANGIANS, ExperimentConfig
from .errors import DegenerateOverlap, HamflowError, ValidationError
from .field import HamiltonianLaw, PackedBatch, RandomHamiltonian, make_law, sample_hamiltonian
from .flow import (FlowSettings, LagrangianCurve, advect_curves, flow_points, flow_points_through,
                   horizontal_circle, time_reversed_hamiltonian)
from .rkhs import rkhs_norm, weighted_coefficient_sum
from .rng import derive
from .walk import induced_point_walks, sample_walk

_LEVEL_TIE = 1e-12
_OVERLAP_TOL = 1e-9
# The most consecutive sample indices per task: the draws of a chunk flow
# as one batch.  At spatial_max 25 the tracemalloc peak of one inversion
# chunk (2 * CHUNK rows of draws and reversals) is 3.7 MB at regularity 3
# and 67.1 MB at the full band (regularity 0.1); a curve chunk's is 8.9 MB
# at regularity 3 and about 32 MB a draw at the full band.
CHUNK = 32
# Level of the inversion test's KS test.
KS_LEVEL = 0.01
# Lipschitz bound per step and least steps of the step-count rule (module
# docstring).
THETA = 0.25
MIN_STEPS = 2


# ---------------------------------------------------------------------------
# Test Lagrangians and crossing counts
# ---------------------------------------------------------------------------

def _dedupe(verts: np.ndarray) -> np.ndarray:
    if len(verts) < 2:
        return verts
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(verts, axis=0), axis=1) > 1e-12
    return verts[keep]


def count_crossings(curve: LagrangianCurve, labels) -> list:
    """Transverse crossings of the curve with each test Lagrangian of
    ``labels``, in order.

    One (L, V) array holds each label's level function f
    (``config.LAGRANGIANS``) at the curve's vertices; the curve crosses a
    Lagrangian where floor f changes, |change| times.  A value within 1e-12
    of an integer moves 1e-12 above it, so that a vertex on the level set
    counts as above and tangencies resolve deterministically.  The circles'
    f lies in [-0.2, 0.61], so their floor changes are their sign changes.
    Raises ``DegenerateOverlap`` if the curve lies along any of the level
    sets.
    """
    verts = _dedupe(curve.vertices)
    f = np.array([LAGRANGIANS[label](verts) for label in labels])
    nearest = np.round(f)
    dist = np.abs(f - nearest)
    _check_overlap(dist)
    f = np.where(dist < _LEVEL_TIE, nearest + _LEVEL_TIE, f)
    return [int(n) for n in np.abs(np.diff(np.floor(f), axis=1)).sum(axis=1)]


def _check_overlap(dist: np.ndarray) -> None:
    """Raise if more than half the segments lie on some row's level set."""
    on_level = dist < _OVERLAP_TOL
    seg_on = on_level[:, 1:] & on_level[:, :-1]
    if (2 * np.count_nonzero(seg_on, axis=1) > seg_on.shape[1]).any():
        raise DegenerateOverlap("curve lies along the level set")


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
    chunk of a run shares it, and with it the band, weights, head rows and
    step count the law computes once."""
    return make_law(cfg.eigenvalue_regularity(regularity), spatial_max=cfg.spatial_max,
                    temporal_max=cfg.temporal_max, kernel=cfg.kernel,
                    include_axis_modes=cfg.include_axis_modes)


def flow_steps(law: HamiltonianLaw, cap: int) -> int:
    """Steps per unit time for the draws of ``law``, at most ``cap``: the
    rule of the module docstring."""
    return min(cap, max(MIN_STEPS, math.ceil(law.lipschitz_bound() / THETA)))


def _settings_for(cfg: ExperimentConfig, law: HamiltonianLaw) -> FlowSettings:
    """The flow settings of ``cfg`` at ``law``'s step count."""
    return FlowSettings(steps=flow_steps(law, cfg.steps),
                        refinement_threshold=cfg.refinement_threshold)


def worker_count(cfg: ExperimentConfig) -> int:
    """``cfg.workers``, or at 0 the number of CPUs the process may run on."""
    if cfg.workers > 0:
        return cfg.workers
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_chunks(task, cfg: ExperimentConfig, r_index: int = 0) -> list:
    """The records of ``task`` for sample indices 0..samples-1, in order.

    ``task((cfg, r_index, start, stop))`` returns the records of the
    consecutive indices start..stop-1 as a list.  The chunks are the fewest
    of at most CHUNK indices whose count is a multiple of the
    ``worker_count(cfg)`` processes, or one per index below that many
    samples; the first are one index longer where the samples do not
    divide evenly.
    """
    workers = worker_count(cfg)
    count = min(cfg.samples, workers * -(-cfg.samples // (CHUNK * workers)))
    size, longer = divmod(cfg.samples, count)
    bounds = [k * size + min(k, longer) for k in range(count + 1)]
    chunks = [(cfg, r_index, start, stop) for start, stop in zip(bounds, bounds[1:])]
    if workers <= 1 or count <= 1:
        results = [task(chunk) for chunk in chunks]
    else:
        # numpy imports numpy.random on first use (about 17 ms and 5 MiB on a
        # 2-core x86-64); imported here, the forked workers inherit it
        # instead of each importing it again
        import numpy.random  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, chunks))
    return [record for chunk in results for record in chunk]


def as_sampled(cfg: ExperimentConfig, runs: list) -> dict:
    """``records``: every record of every run, in order."""
    return {"records": [record for records in runs for record in records]}


def mean_table(cfg: ExperimentConfig, runs: list) -> dict:
    """The mean and standard error of each value of the records, per
    regularity, over the samples that did not fail (at least one per
    regularity, under the CLI's failure budget).

    ``runs`` holds the records of each of ``cfg.regularity`` in turn.
    ``table`` has the rows (label, regularity, estimate, standard error,
    samples), one per value key and regularity; ``records`` has every record
    that did not fail, in order.
    """
    rows = []
    for regularity, records in zip(cfg.regularity, runs):
        done = [record for record in records if "error" not in record]
        for label in [key for key in done[0] if key not in ("sample", "regularity")]:
            values = np.array([record[label] for record in done], dtype=float)
            rows.append((label, regularity, float(values.mean()), standard_error(values),
                         len(values)))
    return {"table": rows,
            "records": [r for r in as_sampled(cfg, runs)["records"] if "error" not in r]}


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def _advected_chunk(args) -> list:
    """Images of K under samples start..stop-1 of regularity r_index.

    Each draw is packed as it is sampled and then let go; the chunk's curves
    advect together (``advect_curves``).  Entry i is the image curve or the
    ``HamflowError`` its advection raised.
    """
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    batch = PackedBatch(capacity=stop - start)
    for i in range(start, stop):
        batch.append(sample_hamiltonian(law, cfg.seed, r_index, i))
    return advect_curves(batch, horizontal_circle(0.5, cfg.curve_vertices), 1.0,
                         _settings_for(cfg, law))


def _intersection_chunk(args) -> list:
    """Per sample: its crossing count with each of ``cfg.lagrangians``, by
    label, or its error text."""
    cfg, _, start, _ = args
    records = []
    for i, image in enumerate(_advected_chunk(args), start=start):
        if not isinstance(image, HamflowError):
            try:
                counts = count_crossings(image, cfg.lagrangians)
                records.append({"sample": i, **dict(zip(cfg.lagrangians, counts))})
                continue
            except HamflowError as exc:
                image = exc
        records.append({"sample": i, "error": f"{type(image).__name__}: {image}"})
    return records


def run_intersections(cfg: ExperimentConfig, r_index: int = 0) -> list:
    return _run_chunks(_intersection_chunk, cfg, r_index)


def _curve_chunk(args) -> list:
    """Per sample: its image of K's vertices and winding.  Raises the first
    error."""
    _, _, start, _ = args
    records = []
    for i, image in enumerate(_advected_chunk(args), start=start):
        if isinstance(image, HamflowError):
            raise image
        records.append({"sample": i, "vertices": image.vertices, "winding": image.winding})
    return records


def advected_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    """Raises the error of the first sample that failed."""
    return _run_chunks(_curve_chunk, cfg, r_index)


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
    """Per sample: its bin counts and their chi-square, per time.

    Sample i draws its Hamiltonian's full (N, m) normals and then its ball
    points from one stream, so the draw is built from that array rather
    than by ``sample_hamiltonian``.  The chunk's clouds flow as one batch.
    """
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    batch = PackedBatch(capacity=stop - start)
    shape = (len(law.basis()), law.kernel.gaussians_per_sample())
    pts = np.empty((stop - start, cfg.points, 2))
    for row, i in enumerate(range(start, stop)):
        rng = derive(cfg.seed, r_index, i)
        batch.append(RandomHamiltonian(law, rng.standard_normal(shape)))
        pts[row] = _ball_points(rng, cfg.ball_center, cfg.ball_radius, cfg.points)
    states = flow_points_through(batch, pts, cfg.times, _settings_for(cfg, law))
    records = []
    for row, i in enumerate(range(start, stop)):
        counts = np.stack([_bin_counts(s[row], cfg.grid) for s in states])
        records.append({"sample": i, "counts": counts,
                        "chi_square": np.array([_chi_square(c) for c in counts])})
    return records


def diffusion_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    return _run_chunks(_diffusion_chunk, cfg, r_index)


def diffusion_totals(cfg: ExperimentConfig, runs: list) -> dict:
    """``totals``: per time, the bin counts summed over the samples and their
    uniformity chi-square.  ``records``: each sample's chi-square per time,
    since a sample's counts enter the totals only."""
    records, = runs
    total = sum(record.pop("counts") for record in records)
    return {"totals": [{"time": t, "chi_square": _chi_square(counts), "counts": counts}
                       for t, counts in zip(cfg.times, total)],
            "records": records}


# ---------------------------------------------------------------------------
# Oscillation-based statistics
# ---------------------------------------------------------------------------

def _osc_chunk(args) -> list:
    """Oscillation norms of samples start..stop-1."""
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    return [{"sample": i, "osc": sample_hamiltonian(law, cfg.seed, r_index, i)
             .oscillation(cfg.osc_spatial_grid, cfg.osc_time_grid)}
            for i in range(start, stop)]


def oscillation_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    return _run_chunks(_osc_chunk, cfg, r_index)


def check_tail_samples(cfg: ExperimentConfig) -> None:
    """Refuse a ``tails`` config below the 1000 draws of ``tail_fit``."""
    if cfg.samples < 1000:
        raise ValidationError("samples", "tail statistics need >= 1000 draws")


def tail_fit(cfg: ExperimentConfig, runs: list) -> dict:
    """Empirical survival of the oscillation norm with a sub-Gaussian fit.

    The first half of the draws fits the mean R and the scale C of
    P(osc - R > u) ~ 2 exp(-u^2 / C) (``survival``: each exceedance u over
    R and its survival); the second half supplies the held-out exceedance
    check at two standard deviations (``fit``).
    """
    osc = np.array([record["osc"] for record in runs[0]])
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
    return {"survival": [{"u": u, "survival": s} for u, s in zip(exceed, survival)],
            "fit": [{"regularity": cfg.regularity[0], "mean": center, "tail_scale": tail_scale,
                     "heldout_u": u_check, "heldout_exceedance": frac,
                     "heldout_bound": bound, "bound_holds": frac <= bound}]}


def _rkhs_chunk(args) -> list:
    """RKHS norms and weighted coefficient sums of samples start..stop-1."""
    cfg, r_index, start, stop = args
    law = law_for(cfg, cfg.regularity[r_index])
    records = []
    for i in range(start, stop):
        draw = sample_hamiltonian(law, cfg.seed, r_index, i)
        records.append({"sample": i, "rkhs_norm": rkhs_norm(draw, law.regularity),
                        "weighted_sum": weighted_coefficient_sum(draw, cfg.smoothing_eps)})
    return records


def rkhs_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    return _run_chunks(_rkhs_chunk, cfg, r_index)


# ---------------------------------------------------------------------------
# Inversion invariance
# ---------------------------------------------------------------------------

def _displacement_chunk(args) -> list:
    """Per sample: the probe's forward and inverse displacements.

    Sample i draws its forward Hamiltonian from stream (seed, 0, i) and its
    inverse one from (seed, 1, i).  The inverse branch flows the inverse
    draw back from 1 to 0, which is the forward flow of its time reversal
    (``time_reversed_hamiltonian``).  The reversal keeps the draw's time
    basis, so the chunk packs its n forward draws and the n reversals into
    one batch of 2n rows and flows them from 0 to 1 in one loop of steps.
    """
    cfg, _, start, stop = args
    law = law_for(cfg, cfg.regularity[0])
    batch = PackedBatch(capacity=2 * (stop - start))
    for branch in (0, 1):
        for i in range(start, stop):
            draw = sample_hamiltonian(law, cfg.seed, branch, i)
            batch.append(time_reversed_hamiltonian(draw) if branch else draw)
    probe = np.asarray(cfg.probe, dtype=float)
    images = flow_points(batch, np.broadcast_to(probe, (len(batch), 1, 2)), 0.0, 1.0,
                         _settings_for(cfg, law))
    d = (images[:, 0] - probe + 0.5) % 1.0 - 0.5
    dist = np.hypot(d[:, 0], d[:, 1])
    n = stop - start
    return [{"sample": i, "forward": dist[row], "inverse": dist[n + row]}
            for row, i in enumerate(range(start, stop))]


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


def run_inversion_test(cfg: ExperimentConfig, r_index: int = 0) -> list:
    """The displacements that ``inversion_test`` tests."""
    return _run_chunks(_displacement_chunk, cfg, r_index)


def inversion_test(cfg: ExperimentConfig, runs: list) -> dict:
    """Two-sample KS test between displacement laws of the flow and its
    inverse, at level ``KS_LEVEL`` (``test``), and the displacements by
    branch, forward then inverse (``records``).

    The test is two-sided and exact: Hodges' formula for equal sample sizes,
    evaluated in scipy's order (``_ks_two_sample``), so statistic and p-value
    equal ``scipy.stats.ks_2samp`` bit for bit up to n = 10,000.  It departs
    from scipy's default in two places: above n = 10,000 scipy switches to
    the asymptotic ``kstwo.sf`` while this stays exact (equal to
    ``method="exact"``), and where the exact sum leaves [0, 1] by rounding
    scipy falls back to ``kstwo.sf`` while this clips.
    """
    records, = runs
    branches = ("forward", "inverse")
    statistic, p_value = _ks_two_sample(
        *(np.array([record[branch] for record in records]) for branch in branches))
    return {"test": [{"statistic": statistic, "p_value": p_value, "level": KS_LEVEL,
                      "passed": p_value > KS_LEVEL}],
            "records": [{"branch": branch, "sample": record["sample"],
                         "displacement": record[branch]}
                        for branch in branches for record in records]}


# ---------------------------------------------------------------------------
# Random walks
# ---------------------------------------------------------------------------

def _walk_chunk(args) -> list:
    """Probe trajectories of walks start..stop-1; step j of every walk in the
    chunk is one batched flow (``induced_point_walks``)."""
    cfg, _, start, stop = args
    law = law_for(cfg, cfg.regularity[0])
    walks = [sample_walk(law, cfg.seed, cfg.walk_steps, w) for w in range(start, stop)]
    trajectories = induced_point_walks(walks, cfg.probe, _settings_for(cfg, law))
    return [{"walk": w, "trajectory": t} for w, t in zip(range(start, stop), trajectories)]


def walk_samples(cfg: ExperimentConfig, r_index: int = 0) -> list:
    """The probe's trajectory under each of ``samples`` walks of ``walk_steps`` steps."""
    return _run_chunks(_walk_chunk, cfg, r_index)

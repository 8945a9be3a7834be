"""Monte Carlo experiments: Lagrangian intersections, diffusion, tails,
inversion invariance and random walks.

Crossings.  The fourteen test Lagrangians are one table, ``LAGRANGIANS``:
each label's level function, (a x + b y) - c for the twelve closed lines
and the torus distance to a centre minus a radius for the two circles.
``count_crossings`` evaluates the whole table at a curve's vertices as one
array and counts every Lagrangian by one rule, the changes of floor f; an
``intersections`` record holds all fourteen counts, in table order.

Records.  Each sampler ``(cfg)`` (``oscillation_samples``,
``run_intersections``, ...) runs a per-sample task through ``_run_chunks``
on the config's one law, ``cfg.law``, and returns one record per sample,
in sample order: a dict of the sample's index (``sample``, or ``walk``) and
its values, which may be numpy arrays and scalars, or of its index and its
error text (``error``).  The records of ``oscillation_samples`` and
``run_intersections`` also carry the ``regularity`` they were drawn at.  A
reducer ``(cfg, records)`` (``mean_table``, ``tail_fit``, ...) takes a
sampler's records and returns named lists of records or table rows;
``config.COMMANDS`` names each command's sampler, reducer and files.

Failures.  A curve task (``flow``, ``intersections``) records the
``HamflowError`` a sample's advection or crossing count raised as its error
text; the other tasks' errors end the run.  The reducers keep the resolved
records only (``hamflow.cli`` writes the others to ``failures.jsonl``).

Streams and chunks.  Sample i draws its Hamiltonian from stream
(seed, 0, i) (``sample_hamiltonian``) and diffusion's ball points from
(seed, 0, i, 1).  The inversion test's inverse branch draws from
(seed, 1, i) and walk w draws step j from (seed, w, j).  ``_run_chunks``
cuts a run into balanced chunks of consecutive sample indices: the fewest
chunks of at most CHUNK samples whose count is a multiple of the worker
count (as far as the samples allow), their lengths differing by one at
most.  Every task draws from the config's law, ``cfg.law``, built with
the config: the band, weights and head rows the law computes once serve
every chunk of a process, and a forked child inherits those computed before
it forked.  A task draws sample i from its own stream exactly as a
one-sample task would.  The flowing commands flow a chunk's draws as one
batch; the oscillation commands take each sample alone.  A run of several
chunks on several workers forks at most one child per worker, chunk and
CPU the process may run on (``_forked``); a run at one worker, of one
chunk or on one CPU never forks.

Chunk boundaries move with the sample and worker counts, and results stay
bit-identical because a draw's flow does not depend on the other draws of
its batch, nor a point's image on the other points of its row, under the
BLAS condition (``hamflow.engine``), which ``tests/test_experiments.py``,
``tests/test_flow.py`` and ``tests/test_cli.py`` check.  One point takes
numpy's matrix-vector path, which rounds differently: ``inversion`` and
``random-walk`` always flow one point per draw, and a curve's refinement
pass flows rows of two points at least (``hamflow.flow``).

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
(``tests/test_experiments.py``).  Each task hands its flows this count,
and the curve tasks also ``refinement_threshold``.  The count depends on
the law alone, never on a chunk's draws, so outputs stay independent of
the worker count.  A walk's steps are draws of a constant law and flow at
its count, one step's time-1 flow after another (``_walk_chunk``).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from functools import partial
from itertools import chain

import numpy as np

from .config import ExperimentConfig
from .errors import DegenerateOverlap, HamflowError
from .field import HamiltonianLaw, OscillationBuffers, PackedBatch, sample_hamiltonian
from .flow import (LagrangianCurve, advect_curves, flow_points, flow_points_through,
                   horizontal_circle, time_reversed_hamiltonian)
from .rng import derive

_LEVEL_TIE = 1e-12
_OVERLAP_TOL = 1e-9
# The most consecutive sample indices per task: the draws of a chunk flow
# as one batch.  At spatial_max 25 the tracemalloc peak of one inversion
# chunk (2 * CHUNK rows of draws and reversals) is 1.7 MB at regularity 3
# (band 5) and 67.1 MB at the full band (regularity 0.1); a curve chunk's
# is 5.8 MB at regularity 3 and about 32 MB a draw at the full band.
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


def _dedupe(verts: np.ndarray) -> np.ndarray:
    if len(verts) < 2:
        return verts
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(verts, axis=0), axis=1) > 1e-12
    return verts[keep]


def count_crossings(curve: LagrangianCurve) -> list:
    """Transverse crossings of the curve with each test Lagrangian, in the
    order of ``LAGRANGIANS``.

    One (14, V) array holds each Lagrangian's level function f at the
    curve's vertices; the curve crosses a Lagrangian where floor f changes,
    |change| times.  A value within 1e-12 of an integer moves 1e-12 above
    it, so that a vertex on the level set counts as above and tangencies
    resolve deterministically.  The circles' f lies in [-0.2, 0.61], so
    their floor changes are their sign changes.  Raises
    ``DegenerateOverlap`` if the curve lies along any of the level sets.
    """
    verts = _dedupe(curve.vertices)
    f = np.array([level(verts) for level in LAGRANGIANS.values()])
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


def flow_steps(law: HamiltonianLaw, cap: int) -> int:
    """Steps per unit time for the draws of ``law``, at most ``cap``: the
    rule of the module docstring."""
    return min(cap, max(MIN_STEPS, math.ceil(law.lipschitz_bound() / THETA)))


def _cpus() -> int:
    """The number of CPUs the process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(cfg: ExperimentConfig) -> int:
    """``cfg.workers``, or at 0 the number of CPUs the process may run on."""
    return cfg.workers if cfg.workers > 0 else _cpus()


def _run_chunk(chunk) -> list:
    """The records of one chunk ``(task, cfg, samples)``."""
    task, cfg, samples = chunk
    return task(cfg, samples)


def _run_chunks(task, cfg: ExperimentConfig) -> list:
    """The records of ``task`` for sample indices 0..samples-1, in order.

    ``task(cfg, samples)`` returns the records of the range ``samples`` of
    consecutive indices as a list, drawn from ``cfg.law``.  The chunks are
    the fewest of at most CHUNK indices whose count is a multiple of the
    ``worker_count(cfg)`` processes, or one per index below that many
    samples; the first are one index longer where the samples do not divide
    evenly.  More than one chunk on more than one worker and CPU run in one
    forked child per worker, chunk and CPU, the fewest of the three
    (``_forked``); otherwise, or where the platform has no ``os.fork``, they
    run in this process.  The chunks depend on the workers alone, so the
    records do not depend on the CPU count.
    """
    workers = worker_count(cfg)
    count = min(cfg.samples, workers * -(-cfg.samples // (CHUNK * workers)))
    size, longer = divmod(cfg.samples, count)
    bounds = [k * size + min(k, longer) for k in range(count + 1)]
    chunks = [(task, cfg, range(start, stop)) for start, stop in zip(bounds, bounds[1:])]
    processes = min(workers, count, _cpus())
    if processes <= 1 or not hasattr(os, "fork"):
        results = [_run_chunk(chunk) for chunk in chunks]
    else:
        results = _forked(chunks, processes)
    return [record for chunk in results for record in chunk]


def _forked(chunks: list, processes: int) -> list:
    """``[_run_chunk(chunk) for chunk in chunks]`` in ``processes`` forked
    children: child j runs chunks j, j + processes, ... and pickles
    ``(True, records)`` or ``(False, exception)`` to its own pipe.  The
    parent reads every pipe to its end and reaps every child, then re-raises
    the first child's exception, or raises ``ChildProcessError`` for a child
    that sent nothing.  A child inherits this process's modules, laws and
    BLAS settings, so tasks need not pickle and results stay bit-identical;
    an executor would add its modules' import and, from Python 3.14, start
    its workers by forkserver.
    """
    # numpy loads numpy.random on first use (about 17 ms and 5 MiB on a 2-core
    # x86-64): loaded before the fork, it is not loaded again in each child
    import numpy.random  # noqa: F401
    children, replies = [], []
    try:
        for j in range(processes):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        reply = (True, [_run_chunk(chunk) for chunk in chunks[j::processes]])
                    except Exception as exc:
                        reply = (False, exc)
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(pickle.dumps(reply))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        for pid, pipe in children:
            with pipe:
                data = pipe.read()
            replies.append((pid, os.waitpid(pid, 0)[1], data))
    finally:
        # only where this process itself failed: no child outlives the call
        for pid, pipe in children[len(replies):]:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(chunks)
    for j, (pid, status, data) in enumerate(replies):
        if not data:
            raise ChildProcessError(f"chunk child {pid} sent no records (exit status "
                                    f"{os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[j::processes] = value
    return results


def as_sampled(cfg: ExperimentConfig, records: list) -> dict:
    """``records``: every resolved record, in order."""
    return {"records": [record for record in records if "error" not in record]}


def mean_table(cfg: ExperimentConfig, records: list) -> dict:
    """The mean and standard error of each value of the records over the
    samples that did not fail (at least one, under the CLI's failure
    budget).

    ``table`` has the rows (label, regularity, estimate, standard error,
    samples), one per value key; ``records`` has every record that did not
    fail, in order.
    """
    done = as_sampled(cfg, records)["records"]
    rows = []
    for label in [key for key in done[0] if key not in ("sample", "regularity")]:
        values = np.array([record[label] for record in done], dtype=float)
        rows.append((label, cfg.regularity, float(values.mean()), standard_error(values),
                     len(values)))
    return {"table": rows, "records": done}


def _tagged(cfg: ExperimentConfig, records: list) -> list:
    """``records``, each tagged with the ``regularity`` it was drawn at."""
    for record in records:
        record["regularity"] = cfg.regularity
    return records


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def _image_chunk(values, cfg, samples) -> list:
    """Per sample: ``values(cfg, image)`` of its image of K, or the text of
    the ``HamflowError`` its advection or ``values`` raised.

    Each draw is packed as it is sampled and then let go (``PackedBatch``);
    the chunk's curves advect together (``advect_curves``).
    """
    law = cfg.law
    batch = PackedBatch((sample_hamiltonian(law, cfg.seed, 0, i) for i in samples), len(samples))
    images = advect_curves(batch, horizontal_circle(0.5, cfg.curve_vertices), 1.0,
                           flow_steps(law, cfg.steps), cfg.refinement_threshold)
    records = []
    for i, image in zip(samples, images):
        try:
            if isinstance(image, HamflowError):
                raise image
            records.append({"sample": i, **values(cfg, image)})
        except HamflowError as exc:
            records.append({"sample": i, "error": f"{type(exc).__name__}: {exc}"})
    return records


def _crossings(cfg: ExperimentConfig, image: LagrangianCurve) -> dict:
    """The image's crossing count with each test Lagrangian, by label."""
    return dict(zip(LAGRANGIANS, count_crossings(image)))


def run_intersections(cfg: ExperimentConfig) -> list:
    return _tagged(cfg, _run_chunks(partial(_image_chunk, _crossings), cfg))


def _curve(cfg: ExperimentConfig, image: LagrangianCurve) -> dict:
    """The image's vertices and winding."""
    return {"vertices": image.vertices, "winding": image.winding}


def advected_samples(cfg: ExperimentConfig) -> list:
    return _run_chunks(partial(_image_chunk, _curve), cfg)


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


def _diffusion_chunk(cfg, samples) -> list:
    """Per sample: its bin counts and their chi-square, per time.

    Sample i draws its Hamiltonian from stream (seed, 0, i)
    (``sample_hamiltonian``, the head rows only) and its ball points from
    stream (seed, 0, i, 1).  The chunk's clouds flow as one batch.
    """
    law = cfg.law
    batch = PackedBatch((sample_hamiltonian(law, cfg.seed, 0, i) for i in samples), len(samples))
    pts = np.stack([_ball_points(derive(cfg.seed, 0, i, 1), cfg.ball_center, cfg.ball_radius,
                                 cfg.points) for i in samples])
    states = flow_points_through(batch, pts, cfg.times, flow_steps(law, cfg.steps))
    records = []
    for row, i in enumerate(samples):
        counts = np.stack([_bin_counts(s[row], cfg.grid) for s in states])
        records.append({"sample": i, "counts": counts,
                        "chi_square": np.array([_chi_square(c) for c in counts])})
    return records


def diffusion_samples(cfg: ExperimentConfig) -> list:
    return _run_chunks(_diffusion_chunk, cfg)


def diffusion_totals(cfg: ExperimentConfig, records: list) -> dict:
    """``totals``: per time, the bin counts summed over the samples and their
    uniformity chi-square.  ``records``: each sample's chi-square per time,
    since a sample's counts enter the totals only."""
    total = sum(record.pop("counts") for record in records)
    return {"totals": [{"time": t, "chi_square": _chi_square(counts), "counts": counts}
                       for t, counts in zip(cfg.times, total)],
            "records": records}


# ---------------------------------------------------------------------------
# Oscillation-based statistics
# ---------------------------------------------------------------------------

def _osc_chunk(cfg, samples) -> list:
    """Oscillation norms of ``samples``, drawn one at a time, from one set
    of work arrays for the chunk (``field.OscillationBuffers``)."""
    grid = (cfg.osc_spatial_grid, cfg.osc_time_grid)
    buffers = OscillationBuffers(cfg.law.engine(), *grid)
    return [{"sample": i, "osc": sample_hamiltonian(cfg.law, cfg.seed, 0, i)
             .oscillation(*grid, buffers)}
            for i in samples]


def oscillation_samples(cfg: ExperimentConfig) -> list:
    return _tagged(cfg, _run_chunks(_osc_chunk, cfg))


def tail_fit(cfg: ExperimentConfig, records: list) -> dict:
    """Empirical survival of the oscillation norm with a sub-Gaussian fit.

    The first half of the draws fits the mean R and the scale C of
    P(osc - R > u) ~ 2 exp(-u^2 / C) (``survival``: each exceedance u over
    R and its survival); the second half supplies the held-out exceedance
    check at two standard deviations (``fit``).
    """
    osc = np.array([record["osc"] for record in records])
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
            "fit": [{"regularity": cfg.regularity, "mean": center, "tail_scale": tail_scale,
                     "heldout_u": u_check, "heldout_exceedance": frac,
                     "heldout_bound": bound, "bound_holds": frac <= bound}]}


# ---------------------------------------------------------------------------
# Inversion invariance
# ---------------------------------------------------------------------------

def _displacement_chunk(cfg, samples) -> list:
    """Per sample: the probe's forward and inverse displacements.

    Sample i draws its forward Hamiltonian from stream (seed, 0, i) and its
    inverse one from (seed, 1, i).  The inverse branch flows the inverse
    draw back from 1 to 0, which is the forward flow of its time reversal
    (``time_reversed_hamiltonian``).  The reversal keeps the draw's time
    basis, so the chunk packs its n forward draws and then the n reversals
    into one batch of 2n rows and flows them from 0 to 1 in one loop of steps.
    """
    law = cfg.law
    forward = (sample_hamiltonian(law, cfg.seed, 0, i) for i in samples)
    inverse = (time_reversed_hamiltonian(sample_hamiltonian(law, cfg.seed, 1, i)) for i in samples)
    batch = PackedBatch(chain(forward, inverse), 2 * len(samples))
    probe = np.asarray(cfg.probe, dtype=float)
    images = flow_points(batch, np.broadcast_to(probe, (len(batch), 1, 2)), 0.0, 1.0,
                         flow_steps(law, cfg.steps))
    d = (images[:, 0] - probe + 0.5) % 1.0 - 0.5
    dist = np.hypot(d[:, 0], d[:, 1])
    n = len(samples)
    return [{"sample": i, "forward": dist[row], "inverse": dist[n + row]}
            for row, i in enumerate(samples)]


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


def run_inversion_test(cfg: ExperimentConfig) -> list:
    """The displacements that ``inversion_test`` tests."""
    return _run_chunks(_displacement_chunk, cfg)


def inversion_test(cfg: ExperimentConfig, records: list) -> dict:
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

def _walk_chunk(cfg, samples) -> list:
    """Probe trajectories of the walks ``samples``: each (walk_steps + 1, 2),
    reduced mod 1, starting at the probe mod 1.

    Walk w draws step j from stream (seed, w, j).  The loop is step-major:
    step j of every walk in the chunk is packed as one batch, each draw as
    it is sampled, and flows the unreduced lifts so far from 0 to 1 at the
    law's count, so the chunk holds one step's packed rows at a time.
    """
    steps = flow_steps(cfg.law, cfg.steps)
    traj = np.empty((len(samples), cfg.walk_steps + 1, 2))
    traj[:, 0] = np.mod(cfg.probe, 1.0)
    state = traj[:, :1]
    for j in range(cfg.walk_steps):
        batch = PackedBatch((sample_hamiltonian(cfg.law, cfg.seed, w, j) for w in samples),
                            len(samples))
        state = flow_points(batch, state, 0.0, 1.0, steps)
        traj[:, j + 1] = state[:, 0] % 1.0
    return [{"walk": w, "trajectory": t} for w, t in zip(samples, traj)]


def walk_samples(cfg: ExperimentConfig) -> list:
    """The probe's trajectory under each of ``samples`` walks of ``walk_steps`` steps.

    A step is an autonomous draw's time-1 map.  A default draw has mean zero
    on every horizontal and vertical circle, so one step lacks the axis
    shears, such as cos 2 pi y's; the default modes' brackets reach them
    (``basis.SpectralBasis``), also through the integrator (``TestBracketFlow``).
    """
    return _run_chunks(_walk_chunk, cfg)

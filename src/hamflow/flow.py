"""Hamiltonian flow integration and the group operations on generators.

The time-t flow map of a spectral Hamiltonian H (``SpectralHamiltonian``) is
integrated with Butcher's fixed-step 7-stage order-6 Runge-Kutta method on
its exact analytic vector field (adaptive stepping is deliberately avoided
so Monte Carlo tables are reproducible).  The fields are trigonometric
polynomials, smooth in space and time, so the high order pays: against
classical RK4 it reaches equal error at about half the vector-field calls
or fewer (``hamflow.experiments``).  One loop serves one Hamiltonian and a
batch of them (``PackedBatch``) alike.

Curves are advected in batches (``advect_curves``).  The draws of a batch
refine in lockstep: each refinement pass is one batched flow of the new
source midpoints of the draws still refining, cut into rows of one width
of two points at least (``_flow_rows``).  The engine
evaluates each row's points under its own grids, so a draw that fails
(``NonFinite``, ``RefinementOverflow``) fails alone, and its images equal
the one-draw loop's bit for bit when the BLAS matrix product gives each row
the same result at any row count of two or more; that is a property of the
BLAS, not a numpy guarantee, and the tests check it on the BLAS numpy is
built with.  A set of one point would take numpy's matrix-vector path,
which on OpenBLAS rounds about half of all points differently in the last
bits; every row holds two points or more.

Buffers.  Each flow (``_flow_grids``) allocates its stage-grid block, the
engine's ``FieldBuffers`` and its stage slopes once, and every step writes
into them (``_step``), so a step allocates no array.  The
buffers belong to the flow, not to the engine, which draws of many laws and
flows share, so concurrent flows on one engine do not meet.

The group operation on generators is time reversal,
``time_reversed_hamiltonian(f)``: c(t) -> -c(1 - t), a plain
``SpectralHamiltonian`` whose time-1 flow inverts f's.  It is a signed
permutation R in f's own time basis (B -> -R @ B), so reversals batch with
forward draws of one law.  Composition needs no generator: a walk applies
its steps' time-1 flows in turn (``hamflow.walk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HamflowError, NonFinite, RefinementOverflow
from .field import PackedBatch, SpectralHamiltonian
from .temporal import check_times

# Butcher's 7-stage order-6 method (J. Austral. Math. Soc. 4, 1964): stage
# j runs at time t + c_j h with c = (0, 1/3, 2/3, 1/3, 1/2, 1/2, 1), so a
# step takes field grids at the five offsets below, stage j those of
# _STAGE_GRID[j].  _A[j] holds stage j's coefficients a_j0..a_j(j-1).
_STAGE_OFFSETS = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])
_STAGE_GRID = (0, 1, 3, 1, 2, 2, 4)
_A = [np.array(row) for row in (
    (), (1 / 3,), (0, 2 / 3), (1 / 12, 1 / 3, -1 / 12), (-1 / 16, 9 / 8, -3 / 16, -3 / 8),
    (0, 9 / 8, -3 / 8, -3 / 4, 1 / 2), (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0, -16 / 11))]
_B = np.array([11 / 120, 0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120])
# Steps whose stage times one time-basis call evaluates: a flow of at most
# this many steps takes its Phi rows from one call, a longer one (a config's
# ``steps`` cap may run to thousands) from one call per slice of this many,
# so the rows stay 5 x 200 x m doubles at most.
_PHI_STEPS = 200
# A draw whose next refinement pass would take its image past this many
# vertices raises RefinementOverflow.  Passes need no cap: an image gap is at
# most the map's Lipschitz constant times its source length, which halves
# each pass, so what a runaway draw uses up is vertices (memory, flow time).
MAX_IMAGE_VERTICES = 1 << 16


@dataclass(frozen=True)
class FlowSettings:
    """Fixed-step integration and curve refinement parameters.

    ``steps`` is per unit time: a flow over a span s takes ceil(steps * s)
    steps.  The CLI experiments choose it per law (``experiments.flow_steps``).
    ``advect_curves`` refines an image to gaps of at most ``refinement_threshold``.
    """

    steps: int = 200
    refinement_threshold: float = 0.01

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.refinement_threshold <= 0.5:
            raise ValueError("refinement_threshold must lie in (0, 0.5]")


DEFAULT_SETTINGS = FlowSettings()


# ---------------------------------------------------------------------------
# Integrator core
# ---------------------------------------------------------------------------

def _n_steps(settings: FlowSettings, span: float) -> int:
    if span == 0.0:
        return 0
    return max(1, math.ceil(settings.steps * span - 1e-9))


def _step_work(engine, shape, h):
    """The work arrays of ``_step`` for points of shape (S, P, 2) and step h:
    the seven stage slopes, the stage points, one scaled slope, the engine's
    ``FieldBuffers`` and the tableau scaled by h."""
    return (np.empty((7,) + tuple(shape)), np.empty(shape), np.empty(shape),
            engine.buffers(shape), [h * a for a in _A], h * _B)


def _step(engine, grids, p, work):
    """Advance p (S, P, 2) one order-6 step, in place, under the field grids
    (5, S, 2, K, 4K) of the step's ``_STAGE_OFFSETS``.

    Every intermediate goes to ``work`` (``_step_work``), so a step allocates
    no array.  Stage point j is p + sum_l (h a_jl) k_l and the new p is
    p + sum_l (h b_l) k_l (``_combine``).
    """
    slopes, q, term, buffers, ha, hb = work
    engine.vector_field(grids[0], p, slopes[0], buffers)
    for j in range(1, 7):
        _combine(p, ha[j], slopes, term, q, q)
        engine.vector_field(grids[_STAGE_GRID[j]], q, slopes[j], buffers)
    _combine(p, hb, slopes, term, q, p)


def _combine(p, coefficients, slopes, term, q, out):
    """out = p + sum_l coefficients[l] * slopes[l]: the terms summed into q
    in order, each scaled into ``term`` by its scalar, then p added.

    Every operation is elementwise, so each coordinate's result does not
    depend on how many points or draws the flow holds.  A BLAS product of
    the row with the stack rounds differently with the stack's length, and
    a broadcast product allocates the ufunc's buffers below 8,192 entries.
    """
    np.multiply(slopes[0], coefficients[0], out=q)
    for l in range(1, len(coefficients)):
        np.add(q, np.multiply(slopes[l], coefficients[l], out=term), out=q)
    np.add(q, p, out=out)


def _flow_grids(batch: PackedBatch, pts, t0, h, n_steps):
    """Order-6 steps for the S Hamiltonians of ``batch`` at once; pts (S, P, 2).

    The time basis is evaluated at the stage times of all steps in one call
    (one per ``_PHI_STEPS`` steps).  Each step builds its five stage grids
    from those rows into one block buffer, so one step's grids are held at a
    time whatever the step count.  They are field
    grids (``PackedBatch.field_grids``), 2K x 4K per stage time and draw,
    so each vector-field call is one table build, one product and one
    contraction.  The block, the tables, the products and the stage slopes
    are allocated once per flow and belong to it, so flows on one shared
    engine stay reentrant.
    """
    engine = batch.engine
    p = np.array(pts, dtype=float)
    work = _step_work(engine, p.shape, h)
    block = np.empty((len(_STAGE_OFFSETS), len(batch)) + engine.field_shape)
    for first in range(0, n_steps, _PHI_STEPS):
        steps = np.arange(first, min(first + _PHI_STEPS, n_steps))[:, None]
        times = np.clip(t0 + h * (steps + _STAGE_OFFSETS), 0.0, 1.0)
        for phi in batch.time_basis(times.ravel()).reshape(times.shape + (-1,)):
            _step(engine, batch.field_grids(phi, out=block), p, work)
    return p


def _integrate(fieldlike, pts, t0, t1, settings):
    """Flow pts from t0 to t1 under one spectral Hamiltonian (pts (P, 2)), or
    under a ``PackedBatch`` or a list or tuple of spectral Hamiltonians
    (pts (S, P, 2)).

    Raises ``OutOfRange`` for an endpoint outside [0, 1] (``_flow_grids``
    clips only the rounding of stage times), and ``NonFinite`` naming the
    draws whose state left the finite range (row 0 for one Hamiltonian).
    """
    if isinstance(fieldlike, SpectralHamiltonian):
        return _integrate([fieldlike], np.asarray(pts)[None], t0, t1, settings)[0]
    batch = fieldlike if isinstance(fieldlike, PackedBatch) else PackedBatch(fieldlike)
    if not len(batch):
        raise ValueError("need at least one Hamiltonian")
    check_times((t0, t1))
    n = _n_steps(settings, abs(t1 - t0))
    if n == 0:
        return np.array(pts, dtype=float)
    out = _flow_grids(batch, pts, t0, (t1 - t0) / n, n)
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not finite.all():
        raise NonFinite("flow state left the finite range", draws=np.flatnonzero(~finite))
    return out


def flow_points(fieldlike, pts, t0: float = 0.0, t1: float = 1.0,
                settings: FlowSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Integrate planar lifts from t0 to t1, both in [0, 1] (t1 < t0 allowed).

    ``fieldlike`` is one spectral Hamiltonian with ``pts`` of shape (P, 2), or S
    spectral Hamiltonians sharing one engine and one time basis (draws of
    one law and time reversals of such draws, in any mix), as a list, a
    tuple or a ``PackedBatch``, with ``pts`` of shape (S, P, 2): set s flows
    under Hamiltonian s, and all S run through one loop of steps.  The
    result has the shape of ``pts``.
    """
    pts = np.asarray(pts, dtype=float)
    if isinstance(fieldlike, (list, tuple, PackedBatch)) and pts.shape[:1] != (len(fieldlike),):
        raise ValueError("batched points need shape (S, P, 2) for S Hamiltonians")
    return _integrate(fieldlike, pts, t0, t1, settings)


def flow_points_through(fieldlike, pts, times,
                        settings: FlowSettings = DEFAULT_SETTINGS) -> list[np.ndarray]:
    """States at each requested time (ascending, starting from t=0)."""
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    out = []
    state = np.asarray(pts, dtype=float)
    current = 0.0
    for t in times:
        state = _integrate(fieldlike, state, current, t, settings)
        current = t
        out.append(state.copy())
    return out


def time_reversed_hamiltonian(f: SpectralHamiltonian) -> SpectralHamiltonian:
    """Time reversal c(t) -> -c(1 - t).  Phi(1 - t) = Phi(t) @ R
    (``TimeBasis.reflect``), so the reversal keeps f's time basis and its B
    is -R @ B."""
    return SpectralHamiltonian(f.engine, f.time_basis, -f.time_basis.reflect(f.coefficients))


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianCurve:
    """Closed polyline stored as planar lifts.

    The final vertex equals the first plus the integer winding vector, and
    adjacent lifts stay within 0.5 per coordinate so the polyline never
    aliases across the fundamental domain.
    """

    vertices: np.ndarray
    winding: tuple = (0, 0)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 2:
            raise ValueError("vertices must be an (V, 2) array with V >= 2")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "winding", (int(self.winding[0]), int(self.winding[1])))
        # compare via the construction expression: first + winding is the
        # closing vertex bit-for-bit, whereas differencing loses an ulp
        if not np.array_equal(verts[-1], verts[0] + np.array(self.winding, dtype=float)):
            raise ValueError("closed curve must end at first vertex + winding")
        step = np.abs(np.diff(verts, axis=0))
        if step.size and step.max() > 0.5 + 1e-9:
            raise ValueError("adjacent lift vertices must stay within 0.5 per coordinate")

    def __len__(self):
        return len(self.vertices)


def horizontal_circle(y: float = 0.5, n_vertices: int = 128) -> LagrangianCurve:
    """The closed horizontal loop {(a, y)}, winding (1, 0)."""
    alpha = np.linspace(0.0, 1.0, n_vertices + 1)
    verts = np.stack([alpha, np.full_like(alpha, y)], axis=-1)
    return LagrangianCurve(verts, winding=(1, 0))


def advect_curve(fieldlike, curve: LagrangianCurve, t: float = 1.0,
                 settings: FlowSettings = DEFAULT_SETTINGS) -> LagrangianCurve:
    """Image of a curve under the time-t flow, refined until adjacent image
    vertices are within the refinement threshold.

    Midpoints are inserted on the *source* curve and advected, so refined
    vertices are exact flow images, never interpolations.  This is the
    one-Hamiltonian case of ``advect_curves``; it raises that case's error.
    """
    (image,) = advect_curves([fieldlike], curve, t, settings)
    if isinstance(image, HamflowError):
        raise image
    return image


def advect_curves(hamiltonians, curve: LagrangianCurve, t: float = 1.0,
                  settings: FlowSettings = DEFAULT_SETTINGS) -> list:
    """Images of one curve under the time-t flows of S Hamiltonians.

    ``hamiltonians`` is a ``PackedBatch``, or a list or tuple of spectral
    Hamiltonians that form one.  Entry s of the result is the image under
    Hamiltonian s, refined as ``advect_curve`` describes, or the
    ``HamflowError`` its advection raised (``NonFinite``, or
    ``RefinementOverflow`` when its next pass would take its image past
    ``MAX_IMAGE_VERTICES``).

    The draws refine in lockstep.  Pass 0 flows the S copies of the source
    vertices as one batch.  Each later pass bisects, per draw, every source
    segment whose image gap exceeds the threshold, and flows the midpoints
    of the draws still refining as one batch of rows of one width
    (``_flow_rows``), each over a copy of its draw's packed row
    (``PackedBatch.rows``), so no draw is packed twice.  Draws do not mix in
    the engine, which evaluates each row's points under its own grids, so
    each image equals the one-draw result bit for bit as long as the BLAS
    matrix product gives a row the same result at any row count of two or
    more (see the module docstring).
    """
    batch = hamiltonians if isinstance(hamiltonians, PackedBatch) else PackedBatch(hamiltonians)
    if not len(batch):
        raise ValueError("need at least one Hamiltonian")
    winding = np.array(curve.winding, dtype=float)
    source = curve.vertices[:-1]
    out = [None] * len(batch)
    flowed = _flow_rows(batch, range(len(batch)), [source] * len(batch), t, settings, out)
    active = [(s, source, image) for s, image in flowed.items()]
    while active:
        pending = []
        for s, src, img in active:
            img_full = np.vstack([img, img[0] + winding])
            bad = np.flatnonzero(np.linalg.norm(np.diff(img_full, axis=0), axis=1)
                                 > settings.refinement_threshold)
            if bad.size == 0:
                out[s] = LagrangianCurve(img_full, winding=curve.winding)
            elif len(img_full) + bad.size > MAX_IMAGE_VERTICES:
                out[s] = RefinementOverflow(f"curve refinement would take an image past "
                                            f"{MAX_IMAGE_VERTICES} vertices")
            else:
                src_full = np.vstack([src, src[0] + winding])
                pending.append((s, src, img, bad, 0.5 * (src_full[bad] + src_full[bad + 1])))
        if not pending:
            break
        flowed = _flow_rows(batch, [s for s, *_ in pending], [mids for *_, mids in pending],
                            t, settings, out)
        active = [(s, np.insert(src, bad + 1, mids, axis=0),
                   np.insert(img, bad + 1, flowed[s], axis=0))
                  for s, src, img, bad, mids in pending if s in flowed]
    return out


def _flow_rows(batch, draws, points, t, settings, out) -> dict:
    """``points``, one (P_j, 2) set per draw of ``draws`` (rows of ``batch``),
    mapped by the time-t flows of those draws: a dict from each draw to its
    image, less the draws whose state leaves the finite range.

    The sets are cut into rows of one width, which flow as one batch: a
    draw's ceil(P_j / width) rows each flow over a copy of its packed row
    (``PackedBatch.rows``), and only its last row is padded, with copies of
    its last point.  The width is the mean set size, or the largest set's
    where that flows fewer points (sets of near-equal sizes), and two at
    least, so a pass flows fewer than its points plus one row per draw,
    and never more than one row per draw of the largest set's size.  A
    dropped draw's ``NonFinite`` goes to ``out`` and the other draws flow
    again, which leaves their images unchanged.
    """
    sizes = {s: len(p) for s, p in zip(draws, points)}
    counts = np.array(list(sizes.values()))
    width = min(max(2, -(-counts.sum() // len(counts))), max(2, counts.max()),
                key=lambda w: w * (-(-counts // w)).sum())
    owner = np.repeat(list(sizes), -(-counts // width))
    pts = np.concatenate([np.concatenate([p, np.repeat(p[-1:], -len(p) % width, axis=0)])
                          .reshape(-1, width, 2) for p in points])
    while len(owner):
        try:
            images = flow_points(batch.rows(owner), pts, 0.0, t, settings)
        except NonFinite as exc:
            if not exc.draws:
                raise
            for s in set(owner[list(exc.draws)].tolist()):
                out[s] = NonFinite(str(exc))
                del sizes[s]
            keep = np.isin(owner, list(sizes))
            owner, pts = owner[keep], pts[keep]
            continue
        return {s: images[owner == s].reshape(-1, 2)[:n] for s, n in sizes.items()}
    return {}

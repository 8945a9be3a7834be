"""Hamiltonian flow integration and the group operations on generators.

The time-t flow map of a spectral Hamiltonian H (``SpectralHamiltonian``) is
integrated with Butcher's fixed-step 7-stage order-6 Runge-Kutta method on
its exact analytic vector field (adaptive stepping is deliberately avoided
so Monte Carlo tables are reproducible).  The fields are trigonometric
polynomials, smooth in space and time, so the high order pays: against
classical RK4 it reaches equal error at about half the vector-field calls
or fewer (CHANGES.md, the order-6 entry).  Flows take one type, a
``PackedBatch`` of S Hamiltonians, each row with its own point set, and a
step count per unit time, ``steps``, which the experiments choose per law
(``experiments.flow_steps``).

Curves are advected in batches (``advect_curves``), refined until no image
gap exceeds a ``threshold`` in (0, 0.5].  The draws of a batch refine in
lockstep: each refinement pass is one batched flow of the new source
midpoints of the draws still refining, cut into rows of one width of two
points at least (``_flow_rows``).  The engine evaluates each row's points
under its own grids, so a draw that fails (``NonFinite``,
``RefinementOverflow``) fails alone, and its images equal the one-draw
loop's bit for bit under the BLAS condition (``hamflow.engine``).  A set
of one point would take numpy's matrix-vector path, which on OpenBLAS
rounds about half of all points differently in the last bits; every row
holds two points or more.

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
its steps' time-1 flows in turn (``experiments._walk_chunk``).
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
# each pass until double precision cannot split it (``advect_curves`` then
# refuses the draw), so what a runaway draw uses up is vertices (memory, flow
# time).
MAX_IMAGE_VERTICES = 1 << 16


# ---------------------------------------------------------------------------
# Integrator core
# ---------------------------------------------------------------------------

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


def _check_batch(batch) -> None:
    if not isinstance(batch, PackedBatch):
        raise TypeError(f"flows take a PackedBatch, not {type(batch).__name__}")


def flow_points(batch: PackedBatch, pts, t0: float, t1: float, steps: int) -> np.ndarray:
    """Integrate planar lifts from t0 to t1, both in [0, 1] (t1 < t0 allowed),
    at ``steps`` steps per unit time: ceil(steps |t1 - t0|) steps.

    ``batch`` packs S spectral Hamiltonians of one engine and one time basis
    (draws of one law and their reversals, in any mix); set s of ``pts``
    (S, P, 2) flows under row s, into a new array.  Raises ``TypeError`` for
    anything but a ``PackedBatch``, ``ValueError`` for ``steps`` below 1,
    ``OutOfRange`` for an endpoint outside [0, 1] (``_flow_grids`` clips only
    the rounding of stage times), and ``NonFinite`` for rows whose state left
    the finite range.
    """
    _check_batch(batch)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pts = np.asarray(pts, dtype=float)
    if pts.shape[:1] != (len(batch),):
        raise ValueError("batched points need shape (S, P, 2) for S Hamiltonians")
    if not len(batch):
        raise ValueError("need at least one Hamiltonian")
    check_times((t0, t1))
    if t1 == t0:
        return pts.copy()
    n = max(1, math.ceil(steps * abs(t1 - t0) - 1e-9))
    out = _flow_grids(batch, pts, t0, (t1 - t0) / n, n)
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not finite.all():
        raise NonFinite("flow state left the finite range", draws=np.flatnonzero(~finite),
                        state=out)
    return out


def flow_points_through(batch: PackedBatch, pts, times, steps: int) -> list[np.ndarray]:
    """States (S, P, 2) at each requested time (ascending, starting from
    t=0): ``flow_points`` over each interval in turn."""
    _check_batch(batch)
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending")
    states = [pts]
    for t0, t1 in zip([0.0] + times, times):
        states.append(flow_points(batch, states[-1], t0, t1, steps))
    return states[1:]


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


def advect_curve(h: SpectralHamiltonian, curve: LagrangianCurve, t: float, steps: int,
                 threshold: float) -> LagrangianCurve:
    """Image of a curve under the time-t flow of one spectral Hamiltonian at
    ``steps`` steps per unit time, refined until adjacent image vertices are
    within ``threshold``.

    Midpoints are inserted on the *source* curve and advected, so refined
    vertices are exact flow images, never interpolations.  This is
    ``advect_curves`` of the one-row batch ``PackedBatch([h])``; it raises
    that row's error.
    """
    (image,) = advect_curves(PackedBatch([h]), curve, t, steps, threshold)
    if isinstance(image, HamflowError):
        raise image
    return image


def advect_curves(batch: PackedBatch, curve: LagrangianCurve, t: float, steps: int,
                  threshold: float) -> list:
    """Images of one curve under the time-t flows of the S rows of ``batch``
    at ``steps`` steps per unit time (anything but a ``PackedBatch`` raises
    ``TypeError``, a ``threshold`` outside (0, 0.5] ``ValueError``).

    Entry s of the result is the image under row s, refined as
    ``advect_curve`` describes, or the ``HamflowError`` its advection raised
    (``NonFinite``, or ``RefinementOverflow`` below).

    The draws refine in lockstep.  Pass 0 flows the S copies of the source
    vertices as one batch.  Each later pass bisects, per draw, every source
    segment whose image gap exceeds the threshold, and flows the midpoints
    of the draws still refining as one batch of rows of one width
    (``_flow_rows``), each over a copy of its draw's packed row
    (``PackedBatch.rows``), so no draw is packed twice.  An insertion never
    moves either end of a draw's closed source or image.  Each image equals
    the one-draw result bit for bit (module docstring).

    A draw fails with ``RefinementOverflow`` once a lower bound on its final
    vertex count exceeds ``MAX_IMAGE_VERTICES``: its next pass's count, or
    ceil(L (1 - 1e-12) / threshold) + 1 for an image of length L, since
    bisection never shortens an image of exact flow images.  It also fails
    with ``RefinementOverflow`` once the midpoint of a source segment whose
    image gap exceeds the threshold rounds onto an endpoint in both
    coordinates: that segment and its gap never change again, so the draw
    could only re-insert the duplicate until the budget.  No draw that
    finishes trips any of these tests.
    """
    _check_batch(batch)
    if not len(batch):
        raise ValueError("need at least one Hamiltonian")
    if not 0.0 < threshold <= 0.5:
        raise ValueError("threshold must lie in (0, 0.5]")
    winding = np.array(curve.winding, dtype=float)
    out = [None] * len(batch)
    flowed = _flow_rows(batch, range(len(batch)), [curve.vertices[:-1]] * len(batch), t,
                        steps, out)
    active = [(s, curve.vertices, np.vstack([image, image[0] + winding]))
              for s, image in flowed.items()]
    while active:
        pending = []
        for s, src, img in active:
            gaps = np.linalg.norm(np.diff(img, axis=0), axis=1)
            bad = np.flatnonzero(gaps > threshold)
            length = gaps.sum()
            least = max(len(img) + bad.size, math.ceil(length * (1.0 - 1e-12) / threshold) + 1)
            if bad.size == 0:
                out[s] = LagrangianCurve(img, winding=curve.winding)
            elif least > MAX_IMAGE_VERTICES:
                out[s] = RefinementOverflow(
                    f"curve refinement would take an image past {MAX_IMAGE_VERTICES} vertices: "
                    f"it needs {least} at least (length {length:.6g}, gaps of {threshold:g})")
            else:
                mids = 0.5 * (src[bad] + src[bad + 1])
                stuck = np.flatnonzero((mids == src[bad]).all(axis=1)
                                       | (mids == src[bad + 1]).all(axis=1))
                if stuck.size:
                    j = bad[stuck[0]]
                    out[s] = RefinementOverflow(
                        f"curve refinement cannot split a source segment of length "
                        f"{np.linalg.norm(src[j + 1] - src[j]):.6g}: its midpoint rounds onto "
                        f"an endpoint, and its image gap {gaps[j]:.6g} exceeds {threshold:g}")
                else:
                    pending.append((s, src, img, bad, mids))
        if not pending:
            break
        flowed = _flow_rows(batch, [s for s, *_ in pending], [mids for *_, mids in pending],
                            t, steps, out)
        active = [(s, np.insert(src, bad + 1, mids, axis=0),
                   np.insert(img, bad + 1, flowed[s], axis=0))
                  for s, src, img, bad, mids in pending if s in flowed]
    return out


def _flow_rows(batch, draws, points, t, steps, out) -> dict:
    """``points``, one (P_j, 2) set per draw of ``draws`` (rows of ``batch``),
    mapped by the time-t flows of those draws: a dict from each draw to its
    image, less the draws whose state leaves the finite range, whose
    ``NonFinite`` goes to ``out``.

    The sets are cut into rows of one width, which flow as one batch: a
    draw's ceil(P_j / width) rows each flow over a copy of its packed row
    (``PackedBatch.rows``), and only its last row is padded, with copies of
    its last point.  The width is the mean set size, or the largest set's
    where that flows fewer points (sets of near-equal sizes), and two at
    least, so a pass flows fewer than its points plus one row per draw,
    and never more than one row per draw of the largest set's size.  The
    pass flows once: where that raises ``NonFinite``, the finite rows of its
    state are the other draws' images, as the engine evaluates each row
    under its own grids.
    """
    sizes = {s: len(p) for s, p in zip(draws, points)}
    counts = np.array(list(sizes.values()))
    width = min(max(2, -(-counts.sum() // len(counts))), max(2, counts.max()),
                key=lambda w: w * (-(-counts // w)).sum())
    owner = np.repeat(list(sizes), -(-counts // width))
    pts = np.concatenate([np.concatenate([p, np.repeat(p[-1:], -len(p) % width, axis=0)])
                          .reshape(-1, width, 2) for p in points])
    try:
        images = flow_points(batch.rows(owner), pts, 0.0, t, steps)
    except NonFinite as exc:
        images = exc.state
        for s in set(owner[list(exc.draws)].tolist()):
            out[s] = NonFinite(str(exc))
            del sizes[s]
    return {s: images[owner == s].reshape(-1, 2)[:n] for s, n in sizes.items()}

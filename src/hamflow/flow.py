"""Hamiltonian flow integration and the group operations on generators.

The time-t flow map of a spectral Hamiltonian H (``SpectralHamiltonian``) is
integrated with a fixed-step classical 4th-order scheme on its exact analytic
vector field (adaptive stepping is deliberately avoided so Monte Carlo tables
are reproducible).  One RK4 loop serves one Hamiltonian and a batch of them
(``PackedBatch``) alike.

Curves are advected in batches (``advect_curves``).  The draws of a batch
refine in lockstep: each refinement pass is one batched RK4 loop over the
new source midpoints of the draws still refining, each draw padded to the
widest with copies of its own last midpoint.  The engine evaluates each
draw's points under its own grids, so a draw that fails (``NonFinite``,
``RefinementOverflow``) fails alone, and its images equal the one-draw
loop's up to rounding.  They are equal bit for bit when the BLAS matrix
product gives each row the same result at any row count; that is a property
of the BLAS, not a numpy guarantee, and the tests check it on the BLAS numpy
is built with.

Buffers.  Each flow (``_rk4_grids``) allocates its stage-grid block, the
engine's ``FieldBuffers`` and its stage slopes once, and every RK4 step
writes into them (``_rk4_step``), so a step allocates no array.  The
buffers belong to the flow, not to the engine, which draws of many laws and
flows share, so concurrent flows on one engine do not meet.

Group operations return plain ``SpectralHamiltonian`` values:

* ``time_reversed_hamiltonian(f)``   -- c(t) -> -c(1 - t); its time-1 flow
  inverts f's.  Time reversal is a signed permutation R in f's own time
  basis (B -> -R @ B), so reversals batch with forward draws of one law;
* ``concatenate_autonomous(parts, bump)`` -- one time-dependent Hamiltonian
  running each autonomous draw in order within [0, 1]; its time basis
  (``BumpTimeBasis``) has stiffness k, the part count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import HamflowError, NonFinite, NotAutonomous, RefinementOverflow, Unsupported
from .field import PackedBatch, RandomHamiltonian, SpectralHamiltonian

# RK4 steps whose stage grids one block holds.
_BLOCK_STEPS = 5


@dataclass(frozen=True)
class FlowSettings:
    """Fixed-step integration and curve refinement parameters.

    ``steps`` is per unit time, taken exactly, times the time basis's
    ``stiffness`` (a concatenation's part count).  The CLI experiments
    choose it per law (``experiments.flow_steps``).
    """

    steps: int = 200
    refinement_threshold: float = 0.01
    max_refinement_depth: int = 12

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.refinement_threshold <= 0.5:
            raise ValueError("refinement_threshold must lie in (0, 0.5]")
        if self.max_refinement_depth < 0:
            raise ValueError("max_refinement_depth must be >= 0")


DEFAULT_SETTINGS = FlowSettings()


# ---------------------------------------------------------------------------
# Integrator core
# ---------------------------------------------------------------------------

def _n_steps(settings: FlowSettings, stiffness: int, span: float) -> int:
    if span == 0.0:
        return 0
    return max(1, math.ceil(settings.steps * stiffness * span - 1e-9))


def _rk4_work(engine, shape):
    """The work arrays of ``_rk4_step`` for points of shape (S, P, 2): the four
    stage slopes, the stage points and the engine's ``FieldBuffers``."""
    return np.empty((4,) + tuple(shape)), np.empty(shape), engine.buffers(shape)


def _rk4_step(engine, g0, g1, g2, p, h, work):
    """Advance p (S, P, 2) one RK4 step of size h, in place, under the field
    grids g0, g1, g2 of the step's start, midpoint and end.

    Every intermediate goes to ``work`` (``_rk4_work``), so a step allocates
    no array; the arithmetic is p += (h/6) (k1 + 2 k2 + 2 k3 + k4), with
    stage points p + (h/2) k1, p + (h/2) k2 and p + h k3, in that order.
    """
    (k1, k2, k3, k4), q, buffers = work
    engine.vector_field(g0, p, k1, buffers)
    np.add(p, np.multiply(k1, 0.5 * h, out=q), out=q)
    engine.vector_field(g1, q, k2, buffers)
    np.add(p, np.multiply(k2, 0.5 * h, out=q), out=q)
    engine.vector_field(g1, q, k3, buffers)
    np.add(p, np.multiply(k3, h, out=q), out=q)
    engine.vector_field(g2, q, k4, buffers)
    np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
    np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
    np.add(k1, k4, out=k1)
    np.add(p, np.multiply(k1, h / 6.0, out=k1), out=p)


def _rk4_grids(batch: PackedBatch, pts, t0, h, n_steps):
    """RK4 for the S Hamiltonians of ``batch`` at once; pts (S, P, 2).

    Stage grids are built _BLOCK_STEPS steps at a time, 2 * _BLOCK_STEPS + 1
    stage times per block, into one block buffer, so one block is held at a
    time whatever the step count.  They are field grids
    (``PackedBatch.field_grids``), 2*K1 x 4*K1 per stage time and draw, so
    each vector-field call is one table build, one product and one
    contraction.  The block, the tables, the products and the stage slopes
    are allocated once per flow and belong to it, so flows on one shared
    engine stay reentrant.
    """
    engine = batch.engine
    p = np.array(pts, dtype=float)
    work = _rk4_work(engine, p.shape)
    k1 = engine.band + 1
    block = np.empty((2 * min(_BLOCK_STEPS, n_steps) + 1, len(batch), 2, k1, 4 * k1))
    for start in range(0, n_steps, _BLOCK_STEPS):
        count = min(_BLOCK_STEPS, n_steps - start)
        stage_times = t0 + 0.5 * h * np.arange(2 * start, 2 * (start + count) + 1)
        grids = batch.field_grids(np.clip(stage_times, 0.0, 1.0), out=block[:2 * count + 1])
        for i in range(count):
            _rk4_step(engine, grids[2 * i], grids[2 * i + 1], grids[2 * i + 2], p, h, work)
    return p


def _integrate(fieldlike, pts, t0, t1, settings):
    """Flow pts from t0 to t1 under one spectral Hamiltonian (pts (P, 2)), or
    under a ``PackedBatch`` or a list or tuple of spectral Hamiltonians
    (pts (S, P, 2)).

    Raises ``NonFinite`` naming the draws whose state left the finite range
    (row 0 for one Hamiltonian).
    """
    if isinstance(fieldlike, SpectralHamiltonian):
        return _integrate([fieldlike], np.asarray(pts)[None], t0, t1, settings)[0]
    batch = fieldlike if isinstance(fieldlike, PackedBatch) else PackedBatch(fieldlike)
    n = _n_steps(settings, batch.time_basis.stiffness, abs(t1 - t0))
    if n == 0:
        return np.array(pts, dtype=float)
    out = _rk4_grids(batch, pts, t0, (t1 - t0) / n, n)
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not finite.all():
        raise NonFinite("flow state left the finite range", draws=np.flatnonzero(~finite))
    return out


def flow_points(fieldlike, pts, t0: float = 0.0, t1: float = 1.0,
                settings: FlowSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Integrate planar lifts from t0 to t1 (t1 < t0 allowed).

    ``fieldlike`` is one spectral Hamiltonian with ``pts`` of shape (P, 2), or S
    spectral Hamiltonians sharing one engine and one time basis (draws of
    one law and time reversals of such draws, in any mix, or concatenations
    with one bump and part count), as a list, a tuple or a ``PackedBatch``,
    with ``pts`` of shape (S, P, 2): set s flows under Hamiltonian s, and all
    S run through one RK4 loop.  The result has the shape of ``pts``.
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
# Bump function and autonomous concatenation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFunction:
    """Smooth bump supported in (delta, 1-delta), symmetric about 1/2, unit mass."""

    delta: float = 0.05
    quadrature_nodes: int = 10001
    normalization: float = dataclass_field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        ts = np.linspace(0.0, 1.0, self.quadrature_nodes)
        raw = self._raw(ts)
        object.__setattr__(self, "normalization", 1.0 / float(np.trapezoid(raw, ts)))

    def _raw(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = (t > self.delta) & (t < 1.0 - self.delta)
        u = (t[inside] - self.delta) * (1.0 - self.delta - t[inside])
        out[inside] = np.exp(-1.0 / u)
        return out

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        value = self.normalization * self._raw(t)
        return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class BumpTimeBasis:
    """Phi_i(t) = k * bump(k*t - i + 1) for i = 1..k: part i's bump weight.
    Each part runs in 1/k of unit time, so the stiffness is k."""

    bump: BumpFunction
    parts: int

    @property
    def stiffness(self) -> int:
        return self.parts

    def __call__(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        k = self.parts
        return k * self.bump(k * t[:, None] - np.arange(1, k + 1)[None, :] + 1.0)

    def reflect(self, b: np.ndarray) -> np.ndarray:
        """R @ b for Phi(1 - t) = Phi(t) @ R: the bump is symmetric about 1/2,
        so Phi_i(1 - t) = Phi_(k+1-i)(t) and R reverses the parts."""
        return b[::-1]


def concatenate_autonomous(parts, bump: BumpFunction) -> SpectralHamiltonian:
    """Single Hamiltonian whose time-1 flow composes the parts in order.

    The combined coefficient path is c_n(t) = sum_i k * bump(k*t - i + 1) * c_n^(i):
    Phi is the bump basis of the k parts and row i of B part i's constant
    coefficients.  The parts must be autonomous draws over one basis; parts
    over two truncations raise ``Unsupported``.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one Hamiltonian")
    for part in parts:
        if not part.autonomous:
            raise NotAutonomous("all concatenated Hamiltonians must be autonomous")
    if not all(isinstance(p, RandomHamiltonian) and p.basis is parts[0].basis for p in parts):
        raise Unsupported("concatenated Hamiltonians must be draws over one basis "
                          "(one truncation)")
    # the widest band packs every part: one basis, one engine per band;
    # a narrower part's modes past its head draw its tail
    engine = max((p.engine for p in parts), key=lambda e: e.band)
    b = np.stack([(p.time_basis(0.0) @ p.coefficients_of(engine.modes))[0] for p in parts])
    return SpectralHamiltonian(engine, BumpTimeBasis(bump, len(parts)), b)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianCurve:
    """Closed (or open) polyline stored as planar lifts.

    For closed curves the final vertex equals the first plus the integer
    winding vector, and adjacent lifts stay within 0.5 per coordinate so the
    polyline never aliases across the fundamental domain.
    """

    vertices: np.ndarray
    closed: bool = True
    winding: tuple = (0, 0)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 2:
            raise ValueError("vertices must be an (V, 2) array with V >= 2")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "winding", (int(self.winding[0]), int(self.winding[1])))
        if self.closed:
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
    return LagrangianCurve(verts, closed=True, winding=(1, 0))


def vertical_circle(x: float = 0.5, n_vertices: int = 128) -> LagrangianCurve:
    alpha = np.linspace(0.0, 1.0, n_vertices + 1)
    verts = np.stack([np.full_like(alpha, x), alpha], axis=-1)
    return LagrangianCurve(verts, closed=True, winding=(0, 1))


def sloped_circle(p: int, q: int, n_vertices: int | None = None) -> LagrangianCurve:
    """The closed loop {(p a, q a) mod 1}, winding (p, q)."""
    if p == 0 and q == 0:
        raise ValueError("slope integers must not both be zero")
    if n_vertices is None:
        n_vertices = 64 * max(abs(p), abs(q), 1)
    alpha = np.linspace(0.0, 1.0, n_vertices + 1)
    verts = np.stack([p * alpha, q * alpha], axis=-1)
    return LagrangianCurve(verts, closed=True, winding=(p, q))


def circle_curve(center, radius: float, n_vertices: int = 128) -> LagrangianCurve:
    """Round circle of given center and radius, winding (0, 0)."""
    if not 0.0 < radius < 0.5:
        raise ValueError("radius must lie in (0, 0.5)")
    theta = np.linspace(0.0, 2.0 * math.pi, n_vertices + 1)
    verts = np.stack([center[0] + radius * np.cos(theta),
                      center[1] + radius * np.sin(theta)], axis=-1)
    verts[-1] = verts[0]
    return LagrangianCurve(verts, closed=True, winding=(0, 0))


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
    Hamiltonians that form one.  Entry s of the result is the image under Hamiltonian s, refined
    as ``advect_curve`` describes, or the ``HamflowError`` its advection
    raised (``NonFinite`` or ``RefinementOverflow``).

    The draws refine in lockstep.  Pass 0 flows the S copies of the source
    vertices as one (S, V, 2) batch.  Each later pass bisects, per draw,
    every source segment whose image gap exceeds the threshold, and flows
    the midpoints of the draws still refining as one batch of rows of the
    packed Hamiltonians.  A draw with fewer midpoints than the widest is
    padded with copies of its own last midpoint, whose images are discarded.
    A draw is refined at most ``max_refinement_depth`` times.  Draws do not
    mix in the engine, which evaluates each draw's points under its own
    grids, so each image equals the one-draw result bit for bit as long as
    the BLAS matrix product gives a row the same result at any row count
    (see the module docstring).
    """
    flow, count = _row_flow(hamiltonians, t, settings)
    depth_limit = settings.max_refinement_depth
    winding = np.array(curve.winding, dtype=float)
    source = curve.vertices[:-1] if curve.closed else curve.vertices
    out = [None] * count
    rows, images = _flow_rows(flow, list(range(count)),
                              np.broadcast_to(source, (count,) + source.shape), out)
    active = [(s, source, image) for s, image in zip(rows, images)]
    for depth in range(depth_limit + 1):
        pending = []
        for s, src, img in active:
            if curve.closed:
                img_full = np.vstack([img, img[0] + winding])
                src_full = np.vstack([src, src[0] + winding])
            else:
                img_full, src_full = img, src
            gaps = np.linalg.norm(np.diff(img_full, axis=0), axis=1)
            bad = np.flatnonzero(gaps > settings.refinement_threshold)
            if bad.size == 0:
                out[s] = LagrangianCurve(img_full, closed=curve.closed, winding=curve.winding)
            elif depth == depth_limit:
                out[s] = RefinementOverflow(f"curve refinement exceeded depth {depth_limit}")
            else:
                pending.append((s, src, img, bad, 0.5 * (src_full[bad] + src_full[bad + 1])))
        if not pending:
            break
        width = max(len(mids) for *_, mids in pending)
        padded = np.stack([np.concatenate([mids, np.repeat(mids[-1:], width - len(mids), axis=0)])
                           for *_, mids in pending])
        rows, images = _flow_rows(flow, [entry[0] for entry in pending], padded, out)
        flowed = dict(zip(rows, images))
        active = [(s, np.insert(src, bad + 1, mids, axis=0),
                   np.insert(img, bad + 1, flowed[s][:len(mids)], axis=0))
                  for s, src, img, bad, mids in pending if s in flowed]
    return out


def _row_flow(hamiltonians, t, settings):
    """(flow, S): flow(rows, pts) maps pts (len(rows), P, 2) by the time-t
    flows of those rows of ``hamiltonians`` (see ``advect_curves``)."""
    batch = hamiltonians if isinstance(hamiltonians, PackedBatch) else PackedBatch(hamiltonians)
    return (lambda rows, pts: flow_points(batch.rows(rows), pts, 0.0, t, settings)), len(batch)


def _flow_rows(flow, rows, pts, out):
    """flow(rows, pts), less the rows whose state leaves the finite range.

    Each such row's ``NonFinite`` goes to ``out`` and the other rows flow
    again, which leaves their images unchanged.  Returns the rows kept and
    their images.
    """
    while rows:
        try:
            return rows, flow(rows, pts)
        except NonFinite as exc:
            if not exc.draws:
                raise
            for j in exc.draws:
                out[rows[j]] = NonFinite(str(exc))
            keep = [j for j in range(len(rows)) if j not in exc.draws]
            rows, pts = [rows[j] for j in keep], pts[keep]
    return rows, pts


def flow_jacobian_determinant(fieldlike, p, t: float = 1.0,
                              settings: FlowSettings = DEFAULT_SETTINGS,
                              fd_step: float = 1e-5) -> float:
    """Central-difference determinant of the time-t flow differential at the
    point p, a pair (x, y), under one spectral Hamiltonian."""
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    x, y = (float(c) for c in p)
    probes = np.array([[x + fd_step, y], [x - fd_step, y],
                       [x, y + fd_step], [x, y - fd_step]])
    # difference displacements, not positions: exact for the identity flow
    disp = _integrate(fieldlike, probes, 0.0, t, settings) - probes
    col_x = (disp[0] - disp[1]) / (2.0 * fd_step) + np.array([1.0, 0.0])
    col_y = (disp[2] - disp[3]) / (2.0 * fd_step) + np.array([0.0, 1.0])
    return float(col_x[0] * col_y[1] - col_x[1] * col_y[0])

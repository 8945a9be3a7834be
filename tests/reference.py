"""Scalar references the tests pin the array code against.

* ``Mode`` and ``reference_modes``: the per-mode enumeration and sort order
  that ``SpectralBasis`` reproduces as arrays, evaluated one point at a time
  with ``math``.
* ``mode_values``: every basis function at a set of points, from the basis
  arrays.
* ``kernel_value``: a kernel's covariance at two times, from its series.
* ``analytic_variance`` and ``spatial_mean``: the moments of a draw that the
  statistical tests compare samples with.
* ``lattice_oscillation``: ``oscillation`` from every value of the whole
  n x n lattice at every time, as it was computed before rows were pruned
  by their bounds.
* ``expansion`` and ``reconstruct_value``: the coefficients of a periodic- or
  constant-kernel draw over the product basis of ``hamflow.rkhs``, one
  Python float per entry, and the field they sum to.
* ``full_coefficients``, ``reversal_coefficients``,
  ``concatenation_coefficients``, ``mode_coefficients`` and ``full_packing``:
  the coefficient matrix B over the whole basis, in the kernel's whole time
  basis, and its packing into an engine's grids, as they were computed
  before draws drew their head only, kept the rows of their temporal band
  only and grids were packed from the band modes alone.
* ``BumpFunction``, ``BumpTimeBasis``, ``concatenate_autonomous`` and
  ``flow_concatenation``: one time-dependent Hamiltonian whose time-1 flow
  composes autonomous draws in order, and its flow at the step count its
  parts need.
* ``apply_walk``: a walk's map as the sequential application of its step
  flows, which the batched walks and the walk's concatenation are checked
  against.
* ``reference_images`` and ``reference_advect``: one draw's images of a
  point set, and its image of a curve by the one-draw refinement loop,
  which the batched refinement passes of ``advect_curves`` are checked
  against bit for bit.
* ``crossings``: one curve's crossings with one test Lagrangian, from that
  Lagrangian's own level function, as they were counted before one pass
  counted every Lagrangian of an image.
* ``gaussian_dimension``, ``coefficient_paths``, ``gradient``,
  ``torus_distance``, ``vertical_circle``, ``sloped_circle``,
  ``circle_curve`` and ``flow_jacobian_determinant``: helpers that only the
  tests use.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from hamflow import flow, temporal
from hamflow.errors import (DegenerateOverlap, NonFinite, NotAutonomous, RefinementOverflow,
                            Unsupported)
from hamflow.basis import TRIG_PAIRS
from hamflow.field import SpectralHamiltonian
from hamflow.flow import DEFAULT_SETTINGS, LagrangianCurve, flow_points

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Mode:
    """One eigenfunction: amplitude * f(2 pi kx x) * g(2 pi ky y), with f and
    g the cosine ('c') or sine ('s') named by ``trig``."""

    kx: int
    ky: int
    trig: str

    @property
    def eigenvalue(self) -> float:
        return 4.0 * math.pi**2 * (self.kx**2 + self.ky**2)

    @property
    def amplitude(self) -> float:
        return 2.0 if (self.kx >= 1 and self.ky >= 1) else math.sqrt(2.0)

    def sort_key(self):
        return (self.eigenvalue, self.kx, self.ky, TRIG_PAIRS.index(self.trig))

    def evaluate(self, x: float, y: float) -> float:
        fx = math.cos if self.trig[0] == "c" else math.sin
        fy = math.cos if self.trig[1] == "c" else math.sin
        return self.amplitude * fx(TWO_PI * self.kx * x) * fy(TWO_PI * self.ky * y)


def reference_modes(truncation) -> list:
    """The admissible modes of ``truncation``, sorted by ``Mode.sort_key``."""
    smax = truncation.spatial_max
    modes = [Mode(kx, ky, trig) for kx in range(1, smax + 1) for ky in range(1, smax + 1)
             for trig in TRIG_PAIRS]
    if truncation.include_axis_modes:
        for k in range(1, smax + 1):
            modes += [Mode(k, 0, "cc"), Mode(k, 0, "sc"), Mode(0, k, "cc"), Mode(0, k, "cs")]
    return sorted(modes, key=Mode.sort_key)


def mode_of(basis, n: int) -> Mode:
    """Mode n of an array basis."""
    return Mode(int(basis.kx[n]), int(basis.ky[n]), TRIG_PAIRS[2 * basis.tx[n] + basis.ty[n]])


def mode_index(basis, mode: Mode) -> int:
    """The index of ``mode`` in an array basis."""
    return next(n for n in range(len(basis)) if mode_of(basis, n) == mode)


def mode_values(basis, pts) -> np.ndarray:
    """e_n at each point (P, 2) for every mode of the basis: shape (P, N)."""
    pts = np.asarray(pts, dtype=float)
    ax = TWO_PI * np.multiply.outer(pts[:, 0], basis.kx.astype(float))
    ay = TWO_PI * np.multiply.outer(pts[:, 1], basis.ky.astype(float))
    fx = np.where(basis.tx == 0, np.cos(ax), np.sin(ax))
    fy = np.where(basis.ty == 0, np.cos(ay), np.sin(ay))
    return basis.amplitudes * fx * fy


def kernel_value(kind, t1: float, t2: float) -> float:
    """Covariance Cov[Z(t1), Z(t2)] of the process described by ``kind``:
    c_0 + 2 sum_k c_k cos(2 pi k (t1 - t2) / L) (``hamflow.temporal``)."""
    temporal.check_times(t1)
    temporal.check_times(t2)
    basis = kind.time_basis()
    c = kind.column_factors()[:basis.frequencies + 1] ** 2
    k = np.arange(1, basis.frequencies + 1)
    series = 2.0 * np.sum(c[1:] * np.cos(TWO_PI / basis.period * k * (t1 - t2)))
    return float(c[0] + series)


def analytic_variance(draw, t: float, p) -> float:
    """Var[H(t, p)] over the draws of ``draw``'s law:
    sum_n w_n^2 kappa(t, t) e_n(p)^2, kappa the kernel."""
    kappa = kernel_value(draw.law.kernel, float(t), float(t))
    evals = mode_values(draw.basis, [p])[0]
    return float(np.sum(draw.weights**2 * kappa * evals**2))


def spatial_mean(h, t: float, grid: int | None = None) -> float:
    """Lattice quadrature of H(t, .).

    The default lattice of 4 * band + 1 points per axis is exact for the
    evaluated series, whose wavenumbers are at most the engine's band.
    """
    if grid is None:
        grid = 4 * h.engine.band + 1
    xs = np.arange(grid) / grid
    return float(h.value_grid(t, xs, xs).mean())


def lattice_oscillation(h, spatial_grid: int = 128, time_grid: int = 101) -> float:
    """Trapezoid-in-time integral of (max - min) of H_t over the whole
    lattice, one ``value_grid`` call per time."""
    xs = np.arange(spatial_grid) / spatial_grid
    times = np.linspace(0.0, 1.0, time_grid)
    spread = [np.ptp(h.engine.value_grid(g, xs, xs)) for g in h.coefficient_grids(times)]
    return float(np.trapezoid(spread, times))


def expansion(draw) -> dict:
    """Nonzero coefficients {(k, n, 'cos' or 'sin'): value} of a centered
    periodic- or constant-kernel draw, n the 1-based mode index."""
    kind = draw.law.kernel
    w = draw.weights
    entries = {}
    for idx in range(len(draw.basis)):
        values = [(0, "cos", w[idx] * draw.gaussians[idx, 0])]
        if kind.tag == temporal.PERIODIC:
            tm = kind.temporal_max
            decay = kind.fourier_decay()
            values += [(k, parity, w[idx] * decay[k - 1] * draw.gaussians[idx, k + offset])
                       for k in range(1, tm + 1) for parity, offset in (("cos", 0), ("sin", tm))]
        entries.update({(k, idx + 1, parity): float(c) for k, parity, c in values if c != 0.0})
    return entries


def reconstruct_value(draw, entries: dict, t: float, x: float, y: float) -> float:
    """The sum of ``entries`` over the product basis at (t, (x, y))."""
    total = 0.0
    for (k, n, parity), coeff in entries.items():
        e_val = mode_of(draw.basis, n - 1).evaluate(x, y)
        if k == 0:
            total += coeff * e_val
        elif parity == "cos":
            total += coeff * math.sqrt(2.0) * math.cos(2.0 * math.pi * k * t) * e_val
        else:
            total += coeff * math.sqrt(2.0) * math.sin(2.0 * math.pi * k * t) * e_val
    return total


def full_coefficients(h) -> np.ndarray:
    """B of a draw over the whole basis and the kernel's whole time basis
    (``law.kernel.time_basis()``): shape (m, N), from the draw's full
    normals."""
    return h.weights * temporal.coefficient_matrix(h.law.kernel, h.gaussians)


def reversal_coefficients(h) -> np.ndarray:
    """B of ``time_reversed_hamiltonian(h)`` over the whole basis and the
    kernel's whole time basis: -R @ B."""
    return -h.law.kernel.time_basis().reflect(full_coefficients(h))


def concatenation_coefficients(parts) -> np.ndarray:
    """B of ``concatenate_autonomous(parts, bump)`` over the whole basis:
    row i is part i's constant coefficients, Phi(0) @ B of the part."""
    return np.stack([(p.law.kernel.time_basis()(0.0) @ full_coefficients(p))[0] for p in parts])


def mode_coefficients(h, times) -> np.ndarray:
    """c_n(t) of every mode of the basis, summed over the kernel's whole time
    basis; shape (N,) at a scalar time, (T, N) at a vector of times."""
    out = h.law.kernel.time_basis()(times) @ full_coefficients(h)
    return out[0] if np.ndim(times) == 0 else out


def grid_slots(engine):
    """(band mask, row slots, column slots): mode (kx, ky, tx, ty) of the
    engine's band sits at entry (2(kx - k0) + tx, 2(ky - k0) + ty) of G,
    with k0 = 0 for a basis with axis modes and 1 without; G is (2K, 2K),
    K = band + 1 - k0."""
    b = engine.basis
    band = (b.kx <= engine.band) & (b.ky <= engine.band)
    k0 = 0 if b.truncation.include_axis_modes else 1
    return band, 2 * (b.kx[band] - k0) + b.tx[band], 2 * (b.ky[band] - k0) + b.ty[band]


def full_packing(engine, coeffs) -> np.ndarray:
    """Grids (..., 2, K, 2K) of coefficients (..., N) over the whole basis:
    the engine's band modes taken, amplitudes applied, subnormals flushed to
    zero, and each mode placed at its entry of G (``grid_slots``)."""
    band, rows, cols = grid_slots(engine)
    values = np.asarray(coeffs, dtype=float)[..., band] * engine.basis.amplitudes[band]
    values[np.abs(values) < np.finfo(float).tiny] = 0.0
    k = engine.band + (1 if engine.basis.truncation.include_axis_modes else 0)
    out = np.zeros(values.shape[:-1] + (2 * k, 2 * k))
    out[..., rows, cols] = values
    return out.reshape(values.shape[:-1] + (2, k, 2 * k))


# Trapezoid nodes on [0, 1] of a bump's normalizing integral.
_BUMP_TRAPEZOID_NODES = 10001


@dataclass(frozen=True)
class BumpFunction:
    """Smooth bump supported in (delta, 1-delta), symmetric about 1/2, unit mass."""

    delta: float = 0.05
    normalization: float = dataclass_field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        ts = np.linspace(0.0, 1.0, _BUMP_TRAPEZOID_NODES)
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
    Each part runs in 1/k of unit time (``flow_concatenation``)."""

    bump: BumpFunction
    parts: int

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
    coefficients.  The parts must be draws of constant-kernel laws
    (``NotAutonomous``) over one basis; parts over two truncations raise
    ``Unsupported``.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one Hamiltonian")
    if any(p.law.kernel.tag != temporal.CONSTANT for p in parts):
        raise NotAutonomous("all concatenated Hamiltonians must be autonomous")
    if any(p.basis is not parts[0].basis for p in parts):
        raise Unsupported("concatenated Hamiltonians must be draws over one basis "
                          "(one truncation)")
    # the widest band packs every part: one basis, one engine per band;
    # each part's B there comes from its whole normals
    engine = max((p.engine for p in parts), key=lambda e: e.band)
    b = np.stack([(p.time_basis(0.0)
                   @ full_coefficients(p)[np.ix_(p.law.time_columns(), engine.modes)])[0]
                  for p in parts])
    return SpectralHamiltonian(engine, BumpTimeBasis(bump, len(parts)), b)


def flow_concatenation(fieldlike, pts, t0=0.0, t1=1.0, settings=DEFAULT_SETTINGS):
    """``flow_points`` of one concatenation of k parts, or of a batch of them
    over one ``BumpTimeBasis``, at k x ``settings.steps`` steps per unit
    time: each part runs in 1/k of unit time, so each gets the steps a unit
    flow would."""
    first = fieldlike[0] if isinstance(fieldlike, (list, tuple)) else fieldlike
    steps = first.time_basis.parts * settings.steps
    return flow_points(fieldlike, pts, t0, t1, replace(settings, steps=steps))


def apply_walk(walk, pts, settings=DEFAULT_SETTINGS) -> np.ndarray:
    """The walk map at lifts pts (P, 2): each step's time-1 flow in turn."""
    state = np.asarray(pts, dtype=float)
    for h in walk:
        state = flow_points(h, state, 0.0, 1.0, settings)
    return state


def reference_images(h, pts, t, settings):
    """The time-t images of one draw's points pts (P, 2), flowed alone; a
    lone point flows with a copy of itself, since one point would take
    numpy's matrix-vector path."""
    padded = np.concatenate([pts, pts[-1:]]) if len(pts) == 1 else pts
    return flow_points(h, padded, 0.0, t, settings)[:len(pts)]


def reference_advect(h, curve, t, settings):
    """The one-draw refinement loop: bisect every source segment whose image
    gap exceeds the threshold and flow the midpoints, a lone one with a copy
    of itself, until a pass would take the image past
    ``flow.MAX_IMAGE_VERTICES``.  Returns the image's vertices, the class
    ``RefinementOverflow``, or the ``NonFinite`` a flow raised."""
    winding = np.array(curve.winding, dtype=float)
    src = curve.vertices[:-1].copy()
    try:
        img = reference_images(h, src, t, settings)
        while True:
            img_full = np.vstack([img, img[0] + winding])
            src_full = np.vstack([src, src[0] + winding])
            bad = np.flatnonzero(np.linalg.norm(np.diff(img_full, axis=0), axis=1)
                                 > settings.refinement_threshold)
            if bad.size == 0:
                return img_full
            if len(img_full) + bad.size > flow.MAX_IMAGE_VERTICES:
                return RefinementOverflow
            mids = 0.5 * (src_full[bad] + src_full[bad + 1])
            src = np.insert(src, bad + 1, mids, axis=0)
            img = np.insert(img, bad + 1, reference_images(h, mids, t, settings), axis=0)
    except NonFinite as exc:
        return exc


# Each test Lagrangian's geometry: (kind, c) for the lines x = c and y = c,
# ("sloped", p, q) for the closed line {(p a, q a) mod 1}, and ("circle",
# center, radius).
LAGRANGIAN_GEOMETRY = {
    **{f"L{i}": ("vertical", c) for i, c in enumerate((0.3, 0.5, 0.7), start=1)},
    **{f"L{i}": ("sloped", 1, q) for i, q in enumerate((2, 3, 4), start=4)},
    **{f"L{i}": ("horizontal", c) for i, c in enumerate((0.3, 0.5, 0.7), start=7)},
    **{f"L{i}": ("sloped", p, 1) for i, p in enumerate((2, 3, 4), start=10)},
    "L13": ("circle", (0.5, 0.5), 0.1),
    "L14": ("circle", (0.5, 0.5), 0.2),
}


def crossings(curve: LagrangianCurve, label: str) -> int:
    """Transverse crossings of the curve with one test Lagrangian, by label;
    level values less than 1e-12 from the level set count as positive."""
    verts = curve.vertices
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(verts, axis=0), axis=1) > 1e-12
    verts = verts[keep]
    kind, *shape = LAGRANGIAN_GEOMETRY[label]
    if kind == "circle":
        center, radius = shape
        delta = (verts - np.asarray(center) + 0.5) % 1.0 - 0.5
        f = np.hypot(delta[:, 0], delta[:, 1]) - radius
        _check_overlap(np.abs(f))
        signs = np.where(f > -1e-12, 1.0, -1.0)
        return int(np.sum(signs[1:] != signs[:-1]))
    if kind == "vertical":
        f = verts[:, 0] - shape[0]
    elif kind == "horizontal":
        f = verts[:, 1] - shape[0]
    else:
        p, q = shape
        f = q * verts[:, 0] - p * verts[:, 1]
    nearest = np.round(f)
    dist = np.abs(f - nearest)
    _check_overlap(dist)
    f = np.where(dist < 1e-12, nearest + 1e-12, f)
    return int(np.sum(np.abs(np.diff(np.floor(f)))))


def _check_overlap(dist: np.ndarray) -> None:
    on_level = dist < 1e-9
    seg_on = on_level[1:] & on_level[:-1]
    if len(seg_on) and np.mean(seg_on) > 0.5:
        raise DegenerateOverlap("curve lies along the level set")


def gaussian_dimension(law) -> int:
    """Number of independent standard normals one draw consumes."""
    return len(law.basis()) * law.kernel.gaussians_per_sample()


def coefficient_paths(kind, gaussians: np.ndarray, times) -> np.ndarray:
    """Paths Z_n(t) of one draw's (N, m) ``gaussians``; shape (T, N), with
    ``times`` a scalar or (T,) array in [0, 1]."""
    return kind.time_basis()(times) @ temporal.coefficient_matrix(kind, gaussians)


def gradient(h, t: float, p):
    """(dH/dx, dH/dy) of a spectral Hamiltonian: its vector field, rotated
    back exactly."""
    v = h.vector_field(t, p)
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def torus_distance(p, q) -> float:
    """Euclidean distance between nearest periodic representatives."""
    d = (np.asarray(p, dtype=float) - np.asarray(q, dtype=float) + 0.5) % 1.0 - 0.5
    return float(np.hypot(d[..., 0], d[..., 1])) if d.ndim else float(np.abs(d))


def vertical_circle(x: float = 0.5, n_vertices: int = 128) -> LagrangianCurve:
    """The closed vertical loop {(x, a)}, winding (0, 1)."""
    alpha = np.linspace(0.0, 1.0, n_vertices + 1)
    verts = np.stack([np.full_like(alpha, x), alpha], axis=-1)
    return LagrangianCurve(verts, winding=(0, 1))


def sloped_circle(p: int, q: int, n_vertices: int | None = None) -> LagrangianCurve:
    """The closed loop {(p a, q a) mod 1}, winding (p, q)."""
    if p == 0 and q == 0:
        raise ValueError("slope integers must not both be zero")
    if n_vertices is None:
        n_vertices = 64 * max(abs(p), abs(q), 1)
    alpha = np.linspace(0.0, 1.0, n_vertices + 1)
    verts = np.stack([p * alpha, q * alpha], axis=-1)
    return LagrangianCurve(verts, winding=(p, q))


def circle_curve(center, radius: float, n_vertices: int = 128) -> LagrangianCurve:
    """Round circle of given center and radius, winding (0, 0)."""
    if not 0.0 < radius < 0.5:
        raise ValueError("radius must lie in (0, 0.5)")
    theta = np.linspace(0.0, 2.0 * math.pi, n_vertices + 1)
    verts = np.stack([center[0] + radius * np.cos(theta),
                      center[1] + radius * np.sin(theta)], axis=-1)
    verts[-1] = verts[0]
    return LagrangianCurve(verts, winding=(0, 0))


def flow_jacobian_determinant(h, p, t: float = 1.0, settings=DEFAULT_SETTINGS,
                              fd_step: float = 1e-5) -> float:
    """Central-difference determinant of the time-t flow differential at the
    point p, a pair (x, y), under one spectral Hamiltonian."""
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    x, y = (float(c) for c in p)
    probes = np.array([[x + fd_step, y], [x - fd_step, y],
                       [x, y + fd_step], [x, y - fd_step]])
    # difference displacements, not positions: exact for the identity flow
    disp = flow_points(h, probes, 0.0, t, settings) - probes
    col_x = (disp[0] - disp[1]) / (2.0 * fd_step) + np.array([1.0, 0.0])
    col_y = (disp[2] - disp[3]) / (2.0 * fd_step) + np.array([0.0, 1.0])
    return float(col_x[0] * col_y[1] - col_x[1] * col_y[0])

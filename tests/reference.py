"""Scalar references the tests pin the array code against.

* ``Mode`` and ``reference_modes``: the per-mode enumeration and sort order
  that ``SpectralBasis`` reproduces as arrays, evaluated one point at a time
  with ``math``.
* ``mode_values``: every basis function at a set of points, from the basis
  arrays.
* ``value``: a spectral Hamiltonian's H at points, the naive sum of its band
  modes with no engine kernel; ``vector_field``: its field at points, from
  the engine's vector-field kernel, the one pointwise kernel that flows run.
* ``flow_one``: ``flow_points`` of one Hamiltonian, as a batch of one row.
* ``kernel_value``: a kernel's covariance at two times, from its series.
* ``analytic_variance`` and ``spatial_mean``: the moments of a draw that the
  statistical tests compare samples with.
* ``lattice_oscillation``: ``oscillation`` from every value of the whole
  n x n lattice at every time, as it was computed before rows were pruned
  by their bounds.
* ``expansion`` and ``reconstruct_value``: the coefficients of a periodic- or
  constant-kernel draw over the product basis {e_n(x)} x {1,
  sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t)}, one Python float per
  entry, as the draw's (N, m) normals lay them out, and the field they sum
  to.
* ``full_draw``: the draw of a stream built from the stream's whole (N, m)
  normals, not its head only, for the references below that read every
  mode.
* ``full_coefficients``, ``reversal_coefficients``,
  ``concatenation_coefficients``, ``mode_coefficients`` and ``full_packing``:
  the coefficient matrix B over the whole basis, in the kernel's whole time
  basis, and its packing into an engine's grids, as they were computed
  before draws drew their head only, kept the rows of their temporal band
  only and grids were packed from the band modes alone.
* ``translation_map`` and ``translated``: a draw conjugated by a
  translation, H o tau^-1, as the rotation of each wavenumber's (cos, sin)
  block of B.
* ``symmetry_map``: a draw composed with the quarter turn, H o rho, or with
  the reflection, -H o sigma, as a signed permutation of its modes.
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
* ``gaussian_dimension``, ``coefficient_matrix``, ``coefficient_paths``,
  ``gradient``, ``torus_distance``, ``vertical_circle``, ``sloped_circle``,
  ``circle_curve`` and ``flow_jacobian_determinant``: helpers that only the
  tests use.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from hamflow import flow, temporal
from hamflow.errors import DegenerateOverlap, NonFinite, RefinementOverflow
from hamflow.basis import TRIG_PAIRS
from hamflow.field import PackedBatch, RandomHamiltonian, SpectralHamiltonian
from hamflow.flow import LagrangianCurve, flow_points
from hamflow.rng import derive

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


def reference_modes(spatial_max: int, include_axis_modes: bool = False) -> list:
    """The admissible modes of a basis, sorted by ``Mode.sort_key``."""
    k = range(1, spatial_max + 1)
    modes = [Mode(kx, ky, trig) for kx in k for ky in k for trig in TRIG_PAIRS]
    if include_axis_modes:
        for k in range(1, spatial_max + 1):
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


def kernel_value(law, t1: float, t2: float) -> float:
    """Covariance Cov[Z(t1), Z(t2)] of the coefficient process of ``law``'s
    kernel: c_0 + 2 sum_k c_k cos(2 pi k (t1 - t2) / L) (``hamflow.temporal``)."""
    temporal.check_times(t1)
    temporal.check_times(t2)
    basis = law.kernel_time_basis
    c = law.column_factors[:basis.frequencies + 1] ** 2
    k = np.arange(1, basis.frequencies + 1)
    series = 2.0 * np.sum(c[1:] * np.cos(TWO_PI / basis.period * k * (t1 - t2)))
    return float(c[0] + series)


def analytic_variance(draw, t: float, p) -> float:
    """Var[H(t, p)] over the draws of ``draw``'s law:
    sum_n w_n^2 kappa(t, t) e_n(p)^2, kappa the kernel."""
    kappa = kernel_value(draw.law, float(t), float(t))
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
    return float(h.engine.value_grid(h.coefficient_grids(t), xs, xs).mean())


def lattice_oscillation(h, spatial_grid: int, time_grid: int) -> float:
    """Trapezoid-in-time integral of (max - min) of H_t over the whole
    lattice, one ``value_grid`` call per time."""
    xs = np.arange(spatial_grid) / spatial_grid
    times = np.linspace(0.0, 1.0, time_grid)
    spread = [np.ptp(h.engine.value_grid(g, xs, xs)) for g in h.coefficient_grids(times)]
    return float(np.trapezoid(spread, times))


def expansion(draw) -> dict:
    """Nonzero coefficients {(k, n, 'cos' or 'sin'): value} of a centered
    periodic- or constant-kernel draw, n the 1-based mode index."""
    law = draw.law
    w = draw.weights
    entries = {}
    for idx in range(len(draw.basis)):
        values = [(0, "cos", w[idx] * draw.gaussians[idx, 0])]
        if law.kernel == temporal.PERIODIC:
            tm = law.temporal_max
            decay = np.exp(-2.0 * law.regularity * math.pi**2 * np.arange(1, tm + 1) ** 2)
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


def full_draw(law, seed: int, *indices: int) -> RandomHamiltonian:
    """``sample_hamiltonian(law, seed, *indices)`` built from its stream's
    whole (N, m) normals: the same B, with ``gaussians`` over every mode."""
    shape = (len(law.basis()), law.gaussians_per_sample)
    return RandomHamiltonian(law, derive(seed, *indices).standard_normal(shape))


def coefficient_matrix(law, gaussians: np.ndarray) -> np.ndarray:
    """B of shape (m, rows) of unit weights, Z(t) = Phi(t) @ B in the
    kernel's whole time basis (``law.kernel_time_basis``), from a draw's
    (rows, m) ``gaussians``: the column factors times the normals."""
    return law.column_factors[:, None] * gaussians.T


def full_coefficients(h) -> np.ndarray:
    """B of a draw over the whole basis and the kernel's whole time basis
    (``law.kernel_time_basis``): shape (m, N), from the draw's full
    normals (``full_draw``)."""
    return h.weights * coefficient_matrix(h.law, h.gaussians)


def reversal_coefficients(h) -> np.ndarray:
    """B of ``time_reversed_hamiltonian(h)`` over the whole basis and the
    kernel's whole time basis: -R @ B."""
    return -h.law.kernel_time_basis.reflect(full_coefficients(h))


def translation_map(basis, modes, shift) -> np.ndarray:
    """The map T with c @ T the coefficients of H o tau^-1, for c those of H
    over the basis indices ``modes`` and tau the translation by ``shift``.

    e_n(x - a) rotates each factor's (cos, sin) pair by the angle
    2 pi k a of its wavenumber, cos(u - th) = cos th cos u + sin th sin u and
    sin(u - th) = cos th sin u - sin th cos u, so T is one product of two
    rotations on the (cos, sin) codes of each (kx, ky) group and zero across
    groups.  Its modes share their amplitude, so T is orthogonal when
    ``modes`` holds whole groups.
    """
    kx, ky = basis.kx[modes], basis.ky[modes]
    same = (kx[:, None] == kx) & (ky[:, None] == ky)

    def rotation(k, shift, code):
        th = TWO_PI * k[:, None] * shift
        return np.where(code[:, None] == code, np.cos(th),
                        np.where(code[:, None] < code, np.sin(th), -np.sin(th)))

    return (same * rotation(kx, shift[0], basis.tx[modes])
            * rotation(ky, shift[1], basis.ty[modes]))


def translated(h, shift) -> SpectralHamiltonian:
    """H o tau^-1 for the translation tau by ``shift``: H's B times its band
    modes' ``translation_map``, over H's engine and time basis."""
    return SpectralHamiltonian(h.engine, h.time_basis,
                               h.coefficients @ translation_map(h.engine.basis,
                                                                h.engine.modes, shift))


def symmetry_map(basis, modes, turn: bool) -> tuple:
    """(index, sign) with c[..., index] * sign the coefficients of H o rho
    (``turn``) or of -H o sigma (not ``turn``), for c those of H over the
    basis indices ``modes``; rho(x, y) = (y, -x) is the quarter turn and
    sigma(x, y) = (x, -y) the reflection.

    e_n o rho is the mode (ky, kx, ty, tx) of n = (kx, ky, tx, ty), negated
    where ty = 1, since sin(-u) = -sin u; so the coefficient of m comes from
    the mode with its wavenumbers and codes swapped, negated where tx = 1 at
    m.  -e_n o sigma is e_n negated where ty = 0.  ``modes`` must hold each
    mode's swapped mode when ``turn``.
    """
    kx, ky = basis.kx[modes], basis.ky[modes]
    tx, ty = basis.tx[modes], basis.ty[modes]
    if not turn:
        return np.arange(len(modes)), np.where(ty == 0, -1.0, 1.0)
    position = {key: i for i, key in enumerate(zip(kx, ky, tx, ty))}
    index = np.array([position[key] for key in zip(ky, kx, ty, tx)])
    return index, np.where(tx == 1, -1.0, 1.0)


def concatenation_coefficients(parts) -> np.ndarray:
    """B of ``concatenate_autonomous(parts, bump)`` over the whole basis:
    row i is part i's constant coefficients, Phi(0) @ B of the part."""
    return np.stack([(p.law.kernel_time_basis(0.0) @ full_coefficients(p))[0] for p in parts])


def mode_coefficients(h, times) -> np.ndarray:
    """c_n(t) of every mode of the basis, summed over the kernel's whole time
    basis; shape (N,) at a scalar time, (T, N) at a vector of times."""
    out = h.law.kernel_time_basis(times) @ full_coefficients(h)
    return out[0] if np.ndim(times) == 0 else out


def grid_slots(engine):
    """(band mask, row slots, column slots): mode (kx, ky, tx, ty) of the
    engine's band sits at entry (2(kx - k0) + tx, 2(ky - k0) + ty) of G,
    with k0 = 0 for a basis with axis modes and 1 without; G is (2K, 2K),
    K = band + 1 - k0."""
    b = engine.basis
    band = (b.kx <= engine.band) & (b.ky <= engine.band)
    k0 = 0 if b.include_axis_modes else 1
    return band, 2 * (b.kx[band] - k0) + b.tx[band], 2 * (b.ky[band] - k0) + b.ty[band]


def full_packing(engine, coeffs) -> np.ndarray:
    """Grids (..., 2, K, 2K) of coefficients (..., N) over the whole basis:
    the engine's band modes taken, amplitudes applied, subnormals flushed to
    zero, and each mode placed at its entry of G (``grid_slots``)."""
    band, rows, cols = grid_slots(engine)
    values = np.asarray(coeffs, dtype=float)[..., band] * engine.basis.amplitudes[band]
    values[np.abs(values) < np.finfo(float).tiny] = 0.0
    k = engine.band + (1 if engine.basis.include_axis_modes else 0)
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
    coefficients.  The parts must be draws of constant-kernel laws over one
    basis (one truncation); other parts raise ``ValueError``.  A part whose
    band is narrower than the widest must hold the rows of the widest band's
    modes (``full_draw``).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one Hamiltonian")
    if any(p.law.kernel != temporal.CONSTANT for p in parts):
        raise ValueError("all concatenated Hamiltonians must be autonomous")
    if any(p.basis is not parts[0].basis for p in parts):
        raise ValueError("concatenated Hamiltonians must be draws over one basis "
                         "(one truncation)")
    # the widest band packs every part: one basis, one engine per band;
    # each part's B there comes from its whole normals
    engine = max((p.engine for p in parts), key=lambda e: e.band)
    b = np.stack([(p.time_basis(0.0)
                   @ full_coefficients(p)[np.ix_(p.law.time_columns, engine.modes)])[0]
                  for p in parts])
    return SpectralHamiltonian(engine, BumpTimeBasis(bump, len(parts)), b)


def flow_concatenation(batch, pts, t0, t1, steps):
    """``flow_points`` of a ``PackedBatch`` of concatenations of k parts over
    one ``BumpTimeBasis``, at k x ``steps`` steps per unit time: each part
    runs in 1/k of unit time, so each gets the steps a unit flow would."""
    return flow_points(batch, pts, t0, t1, batch.time_basis.parts * steps)


def flow_one(h, pts, t0, t1, steps) -> np.ndarray:
    """``flow_points`` of one spectral Hamiltonian at pts (P, 2), packed as
    the one row of a ``PackedBatch``."""
    return flow_points(PackedBatch([h]), np.asarray(pts, dtype=float)[None], t0, t1, steps)[0]


def apply_walk(walk, pts, steps) -> np.ndarray:
    """The walk map at lifts pts (P, 2): each step's time-1 flow in turn, at
    ``steps`` steps per unit time."""
    state = np.asarray(pts, dtype=float)
    for h in walk:
        state = flow_one(h, state, 0.0, 1.0, steps)
    return state


def reference_images(h, pts, t, steps):
    """The time-t images of one draw's points pts (P, 2), flowed alone; a
    lone point flows with a copy of itself, since one point would take
    numpy's matrix-vector path."""
    padded = np.concatenate([pts, pts[-1:]]) if len(pts) == 1 else pts
    return flow_one(h, padded, 0.0, t, steps)[:len(pts)]


def reference_advect(h, curve, t, steps, threshold):
    """The one-draw refinement loop: bisect every source segment whose image
    gap exceeds ``threshold`` and flow the midpoints, a lone one with a copy
    of itself, until a pass would take the image past
    ``flow.MAX_IMAGE_VERTICES``.  Returns the image's vertices, the class
    ``RefinementOverflow``, or the ``NonFinite`` a flow raised."""
    winding = np.array(curve.winding, dtype=float)
    src = curve.vertices[:-1].copy()
    try:
        img = reference_images(h, src, t, steps)
        while True:
            img_full = np.vstack([img, img[0] + winding])
            src_full = np.vstack([src, src[0] + winding])
            bad = np.flatnonzero(np.linalg.norm(np.diff(img_full, axis=0), axis=1)
                                 > threshold)
            if bad.size == 0:
                return img_full
            if len(img_full) + bad.size > flow.MAX_IMAGE_VERTICES:
                return RefinementOverflow
            mids = 0.5 * (src_full[bad] + src_full[bad + 1])
            src = np.insert(src, bad + 1, mids, axis=0)
            img = np.insert(img, bad + 1, reference_images(h, mids, t, steps), axis=0)
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
    return len(law.basis()) * law.gaussians_per_sample


def coefficient_paths(law, gaussians: np.ndarray, times) -> np.ndarray:
    """Paths Z_n(t) of the kernel of ``law`` from one draw's (N, m)
    ``gaussians``; shape (T, N), with ``times`` a scalar or (T,) array in
    [0, 1]."""
    return law.kernel_time_basis(times) @ coefficient_matrix(law, gaussians)


def value(h, t: float, pts) -> np.ndarray:
    """H(t, .) of a spectral Hamiltonian at points (..., 2): the naive sum of
    its band modes, sum_n c_n(t) e_n, through no engine kernel."""
    pts = np.asarray(pts, dtype=float)
    c = (h.time_basis(t) @ h.coefficients)[0]
    return (mode_values(h.engine.basis, pts.reshape(-1, 2))[:, h.engine.modes] @ c
            ).reshape(pts.shape[:-1])


def vector_field(h, t: float, pts) -> np.ndarray:
    """(-dH/dy, dH/dx) of a spectral Hamiltonian at points (..., 2): the
    engine's vector-field kernel on the field grids of H at t."""
    pts = np.asarray(pts, dtype=float)
    fields = h.engine.field_grids(h.coefficient_grids(t)[None])
    return h.engine.vector_field(fields, pts.reshape(1, -1, 2))[0].reshape(pts.shape)


def gradient(h, t: float, p):
    """(dH/dx, dH/dy) of a spectral Hamiltonian: its vector field, rotated
    back exactly."""
    v = vector_field(h, t, p)
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


def flow_jacobian_determinant(h, p, t: float, steps: int, fd_step: float = 1e-5) -> float:
    """Central-difference determinant of the time-t flow differential at the
    point p, a pair (x, y), under one spectral Hamiltonian at ``steps`` steps
    per unit time."""
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    x, y = (float(c) for c in p)
    probes = np.array([[x + fd_step, y], [x - fd_step, y],
                       [x, y + fd_step], [x, y - fd_step]])
    # difference displacements, not positions: exact for the identity flow
    disp = flow_one(h, probes, 0.0, t, steps) - probes
    col_x = (disp[0] - disp[1]) / (2.0 * fd_step) + np.array([1.0, 0.0])
    col_y = (disp[2] - disp[3]) / (2.0 * fd_step) + np.array([0.0, 1.0])
    return float(col_x[0] * col_y[1] - col_x[1] * col_y[0])

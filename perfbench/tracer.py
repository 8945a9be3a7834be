"""Per-layer spans for a traced hamflow run, recorded from outside the package.

``Tracer.install()`` wraps the public functions and methods of each layer.
A function imported by name (``from .flow import advect_curve``) is replaced
in every hamflow module that holds it, so no call escapes its span; methods
are replaced on their class.  Spans stay in memory as
``[name, start, end, parent, info]`` and ``metrics()`` reduces them to the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# name -> unit, in the order BENCHMARK.json lists them.  ``setup.*`` and
# ``trace.overhead`` are filled in by run.py from the setup phase and the
# untraced twin of the traced invocation.
PER_LAYER = {
    "field.draws": "count",
    "field.sample_ms": "ms/draw",
    "field.coefficients_ms": "ms/draw",
    "field.oscillation_ms": "ms/draw",
    "engine.grids_packed": "count",
    "engine.grids_ms": "ms/draw",
    "engine.grids_mb": "MiB",
    "engine.vf_calls": "count",
    "engine.vf_points": "count",
    "engine.vf_us.p1": "us/call",
    "engine.vf_us.p128": "us/call",
    "engine.vf_us.p1024": "us/call",
    "engine.vf_us.p4096": "us/call",
    "engine.vf_gflops": "GFLOP/s",
    "engine.value_grid_calls": "count",
    "engine.value_grid_ms": "ms/draw",
    "engine.value_grid_gflops": "GFLOP/s",
    "flow.points": "count",
    "flow.point_steps_per_s": "point-steps/s",
    "flow.advect_ms": "ms/curve",
    "flow.vertices": "count",
    "flow.refine_rounds": "count/curve",
    "flow.refine_share": "ratio",
    "experiments.crossings_ms": "ms/draw",
    "experiments.self_share": "ratio",
    "io.write_ms": "ms/run",
    "io.bytes": "bytes",
    "setup.import_s": "s",
    "setup.basis_ms": "ms",
    "trace.overhead": "ratio",
}

# Counts fixed by the seed: two traced runs of one invocation report them equal.
EXACT_COUNTS = ("field.draws", "engine.grids_packed", "engine.vf_calls", "engine.vf_points",
                "engine.value_grid_calls", "flow.refine_rounds", "flow.vertices")

_FLOWS = ("flow.flow_points", "flow.flow_points_through", "flow.advect_curve")
_EXPERIMENTS = ("experiments.run_intersections", "experiments.run_inversion_test",
                "experiments.oscillation_samples")
_RK4_STAGES = 4  # vector-field evaluations per point per step


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _points(array) -> int:
    shape = getattr(array, "shape", None)
    if shape is None:
        return len(array)
    count = 1
    for n in shape[:-1]:
        count *= n
    return count


def _grids_info(args, kwargs, grids):
    # grids (..., 2, K1, 2*K1): one grid per leading index
    return (grids.size // (2 * grids.shape[-2] * grids.shape[-1]), grids.shape[-2])


def _vf_info(args, kwargs, result):
    return (_points(_arg(args, kwargs, 2, "pts")), _arg(args, kwargs, 1, "grid").shape[-2])


def _value_grid_info(args, kwargs, result):
    return (len(_arg(args, kwargs, 2, "xs")), len(_arg(args, kwargs, 3, "ys")),
            _arg(args, kwargs, 1, "grid").shape[-2])


def _flow_info(args, kwargs, result):
    return (_points(_arg(args, kwargs, 1, "pts")), 0)


def _advect_info(args, kwargs, curve):
    # (points integrated, final vertices): every integrated source point becomes
    # a vertex, and a closed curve repeats its first vertex at the end
    closed = getattr(_arg(args, kwargs, 1, "curve"), "closed", True)
    return (len(curve.vertices) - (1 if closed else 0), len(curve.vertices))


def _bytes_info(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced layer of an imported hamflow package."""
        from hamflow import engine, experiments, field, flow, io

        for cls, attr, name, info in (
                (engine.SpectralEngine, "grids", "engine.grids", _grids_info),
                (engine.SpectralEngine, "vector_field", "engine.vector_field", _vf_info),
                (engine.SpectralEngine, "value_grid", "engine.value_grid", _value_grid_info),
                (field.RandomHamiltonian, "coefficient_grids", "field.coefficient_grids", None),
                (field.RandomHamiltonian, "oscillation", "field.oscillation", None)):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), info))

        for module, attr, info in (
                (field, "sample_hamiltonian", None),
                (flow, "flow_points", _flow_info),
                (flow, "flow_points_through", _flow_info),
                (flow, "advect_curve", _advect_info),
                (experiments, "count_crossings", None),
                (experiments, "run_intersections", None),
                (experiments, "run_inversion_test", None),
                (experiments, "oscillation_samples", None),
                (io, "write_records", _bytes_info),
                (io, "write_table", _bytes_info)):
            original = getattr(module, attr)
            wrapped = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original, info)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "hamflow":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans (all but setup.* and trace.overhead)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        advect = [-1] * len(spans)   # nearest enclosing advect_curve span
        in_flow = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                advect[i] = advect[parent]
                in_flow[i] = in_flow[parent]
            if name == "flow.advect_curve":
                advect[i] = i
            if name in _FLOWS:
                in_flow[i] = True

        def total(name):
            return sum(s[2] - s[1] for s in spans if s[0] == name)

        def of(name):
            return [s for s in spans if s[0] == name]

        draws = len(of("field.sample_hamiltonian"))
        per_draw = 1000.0 / max(draws, 1)

        grids = of("engine.grids")
        packed = sum(s[4][0] for s in grids)
        grid_bytes = sum(s[4][0] * 2 * s[4][1] * 2 * s[4][1] * 8 for s in grids)

        vf = of("engine.vector_field")
        buckets = {"p1": [], "p128": [], "p1024": [], "p4096": []}
        vf_flop = 0
        flow_point_steps = 0
        for i, s in enumerate(spans):
            if s[0] != "engine.vector_field":
                continue
            p, k1 = s[4]
            key = "p1" if p <= 1 else "p128" if p <= 128 else "p1024" if p <= 1024 else "p4096"
            buckets[key].append(s[2] - s[1])
            vf_flop += 16 * k1 * k1 * p
            if in_flow[i]:
                flow_point_steps += p
        vf_time = sum(s[2] - s[1] for s in vf)

        value_grids = of("engine.value_grid")
        vg_flop = sum(8 * nx * k1 * k1 + 4 * nx * ny * k1 for nx, ny, k1 in (s[4] for s in value_grids))
        vg_time = total("engine.value_grid")

        flows = [s for s in spans if s[0] in _FLOWS]
        flow_points = sum(s[4][0] for s in flows)
        flow_time = sum(s[2] - s[1] for s in flows)

        curves = [i for i, s in enumerate(spans) if s[0] == "flow.advect_curve"]
        grid_starts = {i: [] for i in curves}
        for i, s in enumerate(spans):
            if s[0] == "engine.grids" and advect[i] >= 0:
                grid_starts[advect[i]].append(s[1])
        rounds = sum(max(len(grid_starts[i]) - 1, 0) for i in curves)
        advect_time = sum(spans[i][2] - spans[i][1] for i in curves)
        refine_time = sum(spans[i][2] - grid_starts[i][1] for i in curves if len(grid_starts[i]) > 1)

        coeff_self = sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                         if s[0] == "field.coefficient_grids")
        exp = [(i, s) for i, s in enumerate(spans) if s[0] in _EXPERIMENTS]
        exp_time = sum(s[2] - s[1] for _, s in exp)
        exp_self = sum(s[2] - s[1] - child_time[i] for i, s in exp)

        io_spans = of("io.write_records") + of("io.write_table")

        return {
            "field.draws": draws,
            "field.sample_ms": total("field.sample_hamiltonian") * per_draw,
            "field.coefficients_ms": coeff_self * per_draw,
            "field.oscillation_ms": total("field.oscillation") * per_draw,
            "engine.grids_packed": packed,
            "engine.grids_ms": total("engine.grids") * per_draw,
            "engine.grids_mb": grid_bytes / 2**20,
            "engine.vf_calls": len(vf),
            "engine.vf_points": sum(s[4][0] for s in vf),
            **{f"engine.vf_us.{k}": statistics.median(v) * 1e6 if v else 0.0
               for k, v in buckets.items()},
            "engine.vf_gflops": vf_flop / vf_time / 1e9 if vf_time else 0.0,
            "engine.value_grid_calls": len(value_grids),
            "engine.value_grid_ms": vg_time * per_draw,
            "engine.value_grid_gflops": vg_flop / vg_time / 1e9 if vg_time else 0.0,
            "flow.points": flow_points,
            "flow.point_steps_per_s": flow_point_steps / _RK4_STAGES / flow_time if flow_time else 0.0,
            "flow.advect_ms": advect_time * 1000.0 / max(len(curves), 1),
            "flow.vertices": sum(spans[i][4][1] for i in curves),
            "flow.refine_rounds": rounds / max(len(curves), 1),
            "flow.refine_share": refine_time / advect_time if advect_time else 0.0,
            "experiments.crossings_ms": total("experiments.count_crossings") * per_draw,
            "experiments.self_share": exp_self / exp_time if exp_time else 0.0,
            "io.write_ms": sum(s[2] - s[1] for s in io_spans) * 1000.0,
            "io.bytes": sum(s[4] for s in io_spans),
        }

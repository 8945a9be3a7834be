"""One hamflow CLI invocation in a fresh interpreter, timed (run.py starts it).

    python3 perfbench/child.py SPEC.json

SPEC.json gives ``mode`` (setup, run or trace), ``command``, ``config`` (a
key = value file), ``out`` (the CLI's output directory) and ``report`` (where
this script writes its measurements as JSON).  Set-up covers importing
``hamflow.cli``, parsing the config and building the basis and engine; mode
``setup`` stops there.  Modes ``run`` and ``trace`` then time
``hamflow.cli.main``; ``trace`` first wraps every layer with tracer.Tracer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    from hamflow import cli
    from hamflow.config import parse_config
    from hamflow.field import make_law
    imported = time.perf_counter()
    cfg = parse_config(Path(spec["config"]).read_text(), command=spec["command"])
    parsed = time.perf_counter()
    make_law(cfg.eigenvalue_regularities()[0], spatial_max=cfg.spatial_max,
             temporal_max=cfg.temporal_max, kernel=cfg.kernel, seed=cfg.seed,
             include_axis_modes=cfg.include_axis_modes, grid_nodes=cfg.grid_nodes).engine()
    report = {"ready": time.monotonic(),  # run.py subtracts its spawn time
              "import_s": imported - start,
              "basis_ms": (time.perf_counter() - parsed) * 1000.0}

    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        argv = [spec["command"], "--config", spec["config"], "--out", spec["out"]]
        begin, cpu = time.perf_counter(), os.times()
        report["rc"] = cli.main(argv)
        report["cli_s"] = time.perf_counter() - begin
        # user + system time of this process and its reaped pool workers; near
        # cli_s (times workers) unless the machine was contended
        end_cpu = os.times()
        report["cli_cpu_s"] = sum(end_cpu[:4]) - sum(cpu[:4])
        # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped pool workers
        report["rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        if tracer is not None:
            report["per_layer"] = tracer.metrics()
    report["environment"] = environment()
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""hamflow benchmark: CLI workloads timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload inversion --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each CLI invocation (``hamflow.cli.main``) runs in a fresh interpreter with
BLAS pinned to one thread.  ``--trace 0`` checks one reference invocation,
then times a number of invocations fixed by ``--seconds`` (about that much
work on a 2-core machine), at seeds derived from ``--seed``, and reports the
end-to-end metrics.  ``--trace 1`` runs one invocation twice, untraced and
traced (workers 1), requires identical output files from both, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  A record of the run (versions, BLAS,
configs, every invocation) is written to
``.perfbench_out/<workload>-seed<n>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload, invocation_seed  # noqa: E402

END_TO_END = {"draws_per_s": "draws/s", "setup_s": "s", "peak_rss_mb": "MiB"}
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 5       # setup_s is the median of at least this many fresh interpreters
RUN_BUDGET_S = 170   # a whole run ends within 180 s
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"


@dataclass
class Invocation:
    """One CLI invocation in a fresh interpreter, and what was found in it."""

    label: str
    seed: int
    samples: int
    workers: int
    draws: int
    directory: Path
    report: dict | None = None
    setup_s: float | None = None
    errors: list = field(default_factory=list)

    @property
    def out(self) -> Path:
        return self.directory / "out"

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.errors

    def summary(self) -> dict:
        rep = self.report or {}
        return {"label": self.label, "seed": self.seed, "samples": self.samples,
                "workers": self.workers, "draws": self.draws, "setup_s": self.setup_s,
                "cli_s": rep.get("cli_s"), "cli_cpu_s": rep.get("cli_cpu_s"),
                "rss_mb": rep.get("rss_mb"), "errors": self.errors}


class Runner:
    """Starts child interpreters for one benchmark run and keeps its deadline."""

    def __init__(self, workload: Workload, directory: Path):
        self.workload = workload
        self.directory = directory
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def launch(self, label: str, mode: str = "run", seed: int = REFERENCE_SEED,
               samples: int = 1, workers: int = 1) -> Invocation:
        w = self.workload
        inv = Invocation(label, seed, samples, workers,
                         0 if mode == "setup" else w.draws(samples), self.directory / label)
        inv.directory.mkdir(parents=True)
        config = inv.directory / "input.cfg"
        config.write_text(w.config_text(seed, samples, workers))
        report = inv.directory / "report.json"
        spec = inv.directory / "spec.json"
        spec.write_text(json.dumps({"mode": mode, "command": w.command, "config": str(config),
                                    "out": str(inv.out), "report": str(report)}))
        env = {k: v for k, v in os.environ.items() if k != "HAMFLOW_WORKERS"}
        env.update(BLAS_THREADS)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        spawned = time.monotonic()
        with open(inv.directory / "child.log", "w") as log:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec)],
                                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(self.left(), 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # the session holds the pool workers too
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code is None:
            inv.errors.append("timed out")
        elif code != 0 or not report.exists():
            inv.errors.append(f"child exited with code {code} (see child.log)")
        else:
            inv.report = json.loads(report.read_text())
            inv.setup_s = inv.report["ready"] - spawned
            if mode != "setup":
                if inv.report["rc"] != 0:
                    inv.errors.append(f"hamflow exited with code {inv.report['rc']}")
                else:
                    inv.errors += checks.check_outputs(w.name, inv.out, samples)
        return inv

    def reference(self) -> Invocation:
        w = self.workload
        inv = self.launch("reference", samples=w.reference_samples, workers=w.workers)
        if inv.ok:
            want = json.loads(REFERENCE.read_text())[w.name]
            inv.errors += checks.check_reference(w.name, inv.out, want)
        return inv

    def setups(self, invocations: list) -> list:
        """Set-up times of ``invocations``, topped up with set-up-only interpreters."""
        times = [i.setup_s for i in invocations if i.setup_s is not None]
        while len(times) < MIN_SETUPS and self.left() > 10.0:
            inv = self.launch(f"setup{len(times)}", mode="setup")
            if inv.setup_s is None:
                break
            times.append(inv.setup_s)
        return times


def measure(runner: Runner, seed: int, seconds: float) -> tuple:
    """End-to-end run: reference check, then the invocations ``seconds`` asks for.

    An invocation still running at the run's deadline is killed and fails.
    """
    w = runner.workload
    invocations = [runner.reference()]
    for index in range(w.invocations(seconds)):
        invocations.append(runner.launch(f"run{index}", seed=invocation_seed(seed, index),
                                         samples=w.samples, workers=w.workers))
    timed = [i for i in invocations[1:] if i.ok]
    cli_s = sum(i.report["cli_s"] for i in timed)
    setups = runner.setups(invocations)
    metrics = {
        "draws_per_s": sum(i.draws for i in timed) / cli_s if cli_s else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((i.report["rss_mb"] for i in timed), default=0.0),
    }
    return invocations, metrics


def trace(runner: Runner, seed: int, samples: int | None = None) -> tuple:
    """Per-layer run: the first invocation of ``seed``, untraced then traced."""
    w = runner.workload
    samples = samples or w.samples
    invocations = [runner.reference()]
    seed0 = invocation_seed(seed, 0)
    plain = runner.launch("untraced", seed=seed0, samples=samples, workers=w.workers)
    traced = runner.launch("traced", mode="trace", seed=seed0, samples=samples, workers=1)
    invocations += [plain, traced]
    if plain.ok and traced.ok:
        for name in w.outputs:
            if (plain.out / name).read_bytes() != (traced.out / name).read_bytes():
                traced.errors.append(f"{name} differs between the untraced run "
                                     f"(workers {w.workers}) and the traced run (workers 1)")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if traced.report and "per_layer" in traced.report:
        metrics.update(traced.report["per_layer"])
    reports = [i.report for i in invocations if i.report]
    if reports:
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in reports)
        metrics["setup.basis_ms"] = statistics.median(r["basis_ms"] for r in reports)
    # only a like-for-like pair measures tracing; inversion's pair also differs in workers
    if plain.ok and traced.ok and w.workers == 1:
        metrics["trace.overhead"] = traced.report["cli_s"] / plain.report["cli_s"]
    return invocations, metrics


def tally(invocations: list) -> dict:
    """Draws attempted and failed; every draw of a failed invocation fails."""
    return {"correct": all(i.ok for i in invocations),
            "attempted": sum(i.draws for i in invocations),
            "failed": sum(i.draws for i in invocations if not i.ok)}


def source_digest() -> str:
    """SHA-256 over src/, so a result names its code even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[name]
    directory = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    runner = Runner(w, directory)
    invocations, values = trace(runner, seed) if traced else measure(runner, seed, seconds)
    units = PER_LAYER if traced else END_TO_END
    result = {**tally(invocations),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    env = next((i.report["environment"] for i in invocations if i.report), None)
    configs = {}
    for inv in invocations:
        echoed = inv.out / "config.txt"
        if echoed.exists():
            configs[inv.label] = echoed.read_text()
    record = {
        "workload": name, "command": w.command, "seed": seed, "seconds": seconds,
        "trace": int(traced), "commit": git_commit(), "source_sha256": source_digest(),
        "environment": env, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "workers": w.workers, "effective_configs": configs,
        "invocations": [i.summary() for i in invocations],
        "result": result,
    }
    (directory / "record.json").write_text(json.dumps(record, indent=1))
    return result


def print_result(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:26s} {entry['value']:14.6g} {entry['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name:14s} {'failed_frac':26s} {frac:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} draws; correct={result['correct']})")


def write_reference() -> None:
    """Regenerate reference.json from the program at the reference seed."""
    reference = {}
    for name, w in WORKLOADS.items():
        directory = OUT / f"{name}-reference"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        inv = Runner(w, directory).launch("reference", samples=w.reference_samples,
                                          workers=w.workers)
        if not inv.ok:
            sys.exit(f"{name}: reference invocation failed: {inv.errors}")
        reference[name] = checks.reference_values(name, inv.out)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hamflow" / "cli.py").is_file():
        print(f"error: no hamflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

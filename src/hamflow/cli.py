"""Command-line entry point.

Each command reads one flat key = value config document (--config),
applies flag overrides, echoes the full effective configuration next to its
outputs, and writes deterministic CSV / JSONL / SVG artifacts.  The worker
count is the config's ``workers``; at ``workers = 0`` (the default) it is the
HAMFLOW_WORKERS environment variable if that holds a positive integer, else the
number of CPUs the process may run on.

Every command is one row of ``COMMAND_TABLE`` (``Command``): the sampler of
``hamflow.experiments`` that runs its per-sample task through
``_run_chunks`` and returns one record per sample, the reducer over those
ordered records, and the files the reducer's outputs go to.  ``run`` draws
the records of the first regularity, or of every regularity for the
commands whose records carry theirs, reduces them, and hands each output to
``io.write_table`` (``.csv``) or ``io.write_records`` (``.jsonl``).  A
sample's values reach the writers in the record its task made.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import experiments, io
from .config import COMMANDS, ExperimentConfig, parse_config, parse_value, serialize_config
from .errors import FailureBudgetExceeded, HamflowError, ParseError
from .field import sample_hamiltonian


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamflow",
                                     description="Random Hamiltonian flows on the 2-torus")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration document")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--regularity", type=str, default=None, help="comma-separated list")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--plot", action="store_true", default=None)
    return parser


def _load_config(args) -> ExperimentConfig:
    try:
        text = args.config.read_text() if args.config else ""
    except OSError as exc:
        raise ParseError(f"cannot read config {args.config}: {exc.strerror}") from exc
    overrides = {key: getattr(args, key) for key in ("seed", "samples", "out", "plot")}
    if args.regularity is not None:
        overrides["regularity"] = parse_value("regularity", args.regularity)
    return parse_config(text, command=args.command, overrides=overrides)


def _outdir(cfg: ExperimentConfig, regularities: tuple, flows: bool = False) -> Path:
    """The output directory, with the effective config echoed to config.txt.

    ``regularities`` names the laws the command draws from.  Each gets a
    comment line with its spatial band (``HamiltonianLaw.band``) of
    spatial_max and its temporal band (``HamiltonianLaw.temporal_band``) of
    the kernel's frequencies, and, if the command flows its draws, one
    before it with its step count (``experiments.flow_steps``).
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for r in regularities:
        law = experiments.law_for(cfg, r)
        if flows:
            lines.append(f"# flow steps at regularity {r:g}: "
                         f"{experiments.flow_steps(law, cfg.steps)} of at most {cfg.steps}\n")
        lines.append(f"# bands at regularity {r:g}: spatial {law.band()} of {cfg.spatial_max}, "
                     f"temporal {law.temporal_band()} of {law.kernel.time_basis().frequencies}\n")
    (out / "config.txt").write_text(serialize_config(cfg) + "".join(lines))
    return out


def _field_svg(cfg: ExperimentConfig, outputs: dict, path: Path) -> None:
    draw = sample_hamiltonian(experiments.law_for(cfg, cfg.regularity[0]), cfg.seed, 0, 0)
    io.render_field_svg(draw, cfg.field_time, path, cfg.arrow_grid)


def _curves_svg(cfg: ExperimentConfig, outputs: dict, path: Path) -> None:
    io.render_curves_svg([record["vertices"] for record in outputs["records"]], path)


def _tails_svg(cfg: ExperimentConfig, outputs: dict, path: Path) -> None:
    io.render_histogram_svg([record["u"] for record in outputs["survival"]], path,
                            title="oscillation exceedances")


@dataclass(frozen=True)
class Command:
    """One command: where its records come from and where they go.

    ``samples`` names the sampler in ``hamflow.experiments``; it is looked up
    when the command runs, so that a sampler wrapped after import (the
    benchmark's tracer) is the one that runs.  ``reduce(cfg, runs)`` returns
    the outputs that ``files`` maps to file names.  ``every_regularity``
    draws from every regularity and tags each record with its own, else the
    command draws from the first; ``flows`` echoes the step counts; ``plot``
    is the (file name, renderer) that ``plot = true`` adds.  A command whose
    records can carry errors names a file for its ``failures``.  ``check(cfg)``
    raises for a config the command refuses, before any output is written.
    """

    samples: str
    reduce: Callable
    files: dict
    every_regularity: bool = False
    flows: bool = False
    plot: tuple = ()
    check: Callable | None = None


COMMAND_TABLE = {
    "sample-field": Command("oscillation_samples", experiments.mean_table,
                            {"table": "field_osc.csv", "records": "field_samples.jsonl"},
                            every_regularity=True, plot=("field.svg", _field_svg)),
    "flow": Command("advected_samples", experiments.as_sampled, {"records": "curves.jsonl"},
                    flows=True, plot=("curves.svg", _curves_svg)),
    "diffusion": Command("diffusion_samples", experiments.diffusion_totals,
                         {"totals": "diffusion.jsonl", "records": "diffusion_samples.jsonl"},
                         flows=True),
    "intersections": Command("run_intersections", experiments.mean_table,
                             {"table": "intersections.csv", "failures": "failures.jsonl"},
                             every_regularity=True, flows=True),
    "random-walk": Command("walk_samples", experiments.as_sampled, {"records": "walks.jsonl"},
                           flows=True),
    "rkhs-norm": Command("rkhs_samples", experiments.mean_table,
                         {"table": "rkhs.csv", "records": "rkhs_samples.jsonl"},
                         every_regularity=True),
    "tails": Command("oscillation_samples", experiments.tail_fit,
                     {"survival": "tail_survival.jsonl", "fit": "tail_fit.jsonl"},
                     plot=("tails.svg", _tails_svg), check=experiments.check_tail_samples),
    "concentration": Command("oscillation_samples", experiments.mean_table,
                             {"table": "concentration.csv"}, every_regularity=True),
    "inversion": Command("run_inversion_test", experiments.inversion_test,
                         {"test": "inversion.jsonl", "records": "inversion_samples.jsonl"},
                         flows=True),
}


def _write(rows: list, path: Path) -> None:
    """``rows`` to ``path`` by its suffix.  No rows remove the file, so that
    failures.jsonl exists exactly when a sample failed: a rerun into the same
    directory must not leave an older run's failures behind."""
    if not rows:
        path.unlink(missing_ok=True)
    elif path.suffix == ".csv":
        io.write_table(rows, path)
    else:
        io.write_records(rows, path)


def run(cfg: ExperimentConfig) -> None:
    """Run ``cfg.command`` and write its files.

    The records that carry an error are the ``failures`` output.  Raises
    ``FailureBudgetExceeded`` when more than 1% of one regularity's samples
    fail, after writing the failures so far.
    """
    command = COMMAND_TABLE[cfg.command]
    if command.check is not None:
        command.check(cfg)
    regularities = cfg.regularity if command.every_regularity else cfg.regularity[:1]
    out = _outdir(cfg, regularities, command.flows)
    paths = {name: out / file for name, file in command.files.items()}
    sample = getattr(experiments, command.samples)
    runs, failures = [], []
    for r_index, regularity in enumerate(regularities):
        records = sample(cfg, r_index)
        if command.every_regularity:
            for record in records:
                record["regularity"] = regularity
        runs.append(records)
        failed = [record for record in records if "error" in record]
        failures += failed
        if len(failed) > 0.01 * cfg.samples:
            # the failures reach disk before the run exits non-zero, and no
            # output of an older run stays next to them
            for path in paths.values():
                path.unlink(missing_ok=True)
            _write(failures, paths["failures"])
            raise FailureBudgetExceeded(
                f"regularity {regularity}: {len(failed)} of {cfg.samples} samples failed "
                f"(budget 1%): {[(regularity, r['sample'], r['error']) for r in failed[:3]]}")
    outputs = {"failures": failures, **command.reduce(cfg, runs)}
    for name, path in paths.items():
        _write(outputs[name], path)
    written = [path for name, path in paths.items() if outputs[name]]
    if cfg.plot and command.plot:
        file, render = command.plot
        render(cfg, outputs, out / file)
        written.append(out / file)
    print(f"wrote {', '.join(map(str, written))}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run(_load_config(args))
    except HamflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Each command reads one flat key = value config document (--config),
applies flag overrides, echoes the effective values of the keys it reads
(``config.serialize_config``) next to its outputs, and writes deterministic
CSV and JSONL files.  The worker count is the config's ``workers``; at ``workers = 0``
(the default) it is the number of CPUs the process may run on.

Every command is one row of ``config.COMMANDS`` (``config.Command``): the
sampler of ``hamflow.experiments`` that runs its per-sample task through
``_run_chunks`` and returns one record per sample, the reducer over those
ordered records, and the files the reducer's outputs go to.  ``run`` draws
the records of the config's one law, reduces them, and hands each output to
``io.write_table`` (``.csv``) or ``io.write_records`` (``.jsonl``).  A
sample's values reach the writers in the record its task made.

A run writes ``config.txt``, removes what an older run of the command left
there, and only then samples.  A failed sample is a record with an error
(``hamflow.experiments``), written to ``failures.jsonl``, which exists
exactly when a sample failed (``run`` gives the failure budget).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments, io
from .config import COMMANDS, ExperimentConfig, parse_config, parse_value, serialize_config
from .errors import FailureBudgetExceeded, HamflowError, ParseError, ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamflow",
                                     description="Random Hamiltonian flows on the 2-torus")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value configuration document")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--regularity", type=str, default=None,
                        help="the law's decay parameter, in frequency units")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def _load_config(args) -> ExperimentConfig:
    try:
        text = args.config.read_text() if args.config else ""
    except OSError as exc:
        raise ParseError(f"cannot read config {args.config}: {exc.strerror}") from exc
    overrides = {key: getattr(args, key) for key in ("seed", "samples", "out")}
    if args.regularity is not None:
        overrides["regularity"] = parse_value("regularity", args.regularity)
    return parse_config(text, command=args.command, overrides=overrides)


def _outdir(cfg: ExperimentConfig) -> Path:
    """The output directory, with the effective config echoed to config.txt.

    A comment line names the law's spatial band (``HamiltonianLaw.band``) of
    spatial_max and its temporal band (``HamiltonianLaw.temporal_band``) of
    the kernel's frequencies and, if the command reads ``steps``, one before
    it names its step count (``experiments.flow_steps``).  An ``OSError``
    writing either is a ``ValidationError`` of ``out``.
    """
    out = Path(cfg.out)
    law, r = experiments.law_for(cfg), cfg.regularity
    lines = [f"# bands at regularity {r:g}: spatial {law.band()} of {cfg.spatial_max}, "
             f"temporal {law.temporal_band()} of {law.kernel_time_basis().frequencies}\n"]
    if "steps" in COMMANDS[cfg.command].keys:
        lines.insert(0, f"# flow steps at regularity {r:g}: "
                        f"{experiments.flow_steps(law, cfg.steps)} of at most {cfg.steps}\n")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(serialize_config(cfg) + "".join(lines))
    except OSError as exc:
        raise ValidationError("out", f"cannot write {out}: {exc.strerror}") from exc
    return out


def run(cfg: ExperimentConfig) -> None:
    """Run ``cfg.command`` and write its files, each output that holds rows.

    The records that carry an error are the ``failures`` output.  Raises
    ``FailureBudgetExceeded`` when more than 1% of the samples fail, after
    writing the failures.
    """
    command = COMMANDS[cfg.command]
    out = _outdir(cfg)
    paths = {name: out / file for name, file in command.files.items()}
    for path in paths.values():
        _write(path)
    records = getattr(experiments, command.sampler)(cfg)
    failures = [record for record in records if "error" in record]
    if len(failures) > 0.01 * cfg.samples:
        _write(paths["failures"], failures)
        raise FailureBudgetExceeded(
            f"regularity {cfg.regularity}: {len(failures)} of {cfg.samples} samples failed "
            f"(budget 1%): {[(record['sample'], record['error']) for record in failures[:3]]}")
    outputs = {"failures": failures, **getattr(experiments, command.reducer)(cfg, records)}
    written = []
    for name, path in paths.items():
        if outputs[name]:
            _write(path, outputs[name])
            written.append(path)
    print(f"wrote {', '.join(map(str, written))}")


def _write(path: Path, rows=None) -> None:
    """Write ``rows`` to ``path``, or remove it when ``rows`` is None; an
    ``OSError`` is a ``ValidationError`` of ``out``, as in ``_outdir``."""
    try:
        if rows is None:
            path.unlink(missing_ok=True)
        else:
            (io.write_table if path.suffix == ".csv" else io.write_records)(rows, path)
    except OSError as exc:
        raise ValidationError("out", f"cannot write {path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run(_load_config(args))
    except (HamflowError, ChildProcessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Each subcommand reads one flat key = value config document (--config),
applies flag overrides, echoes the full effective configuration next to its
outputs, and writes deterministic CSV / JSONL / SVG artifacts.  The worker
count is the config's ``workers``; at ``workers = 0`` (the default) it is the
HAMFLOW_WORKERS environment variable if that holds a positive integer, else the
number of CPUs the process may run on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments, io, rkhs
from .config import COMMANDS, ExperimentConfig, parse_config, parse_value, serialize_config
from .errors import FailureBudgetExceeded, HamflowError, ParseError
from .experiments import ResultRow, ResultTable, standard_error
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
    overrides = {
        "seed": args.seed,
        "samples": args.samples,
        "out": args.out,
        "plot": args.plot,
    }
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


def _cmd_sample_field(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity)
    rows = []
    records = []
    for r_index, regularity in enumerate(cfg.regularity):
        osc = experiments.oscillation_samples(cfg, r_index)
        rows.append(ResultRow("osc", regularity, float(osc.mean()), standard_error(osc), len(osc)))
        records.extend({"regularity": regularity, "sample": i, "osc": float(v)}
                       for i, v in enumerate(osc))
    io.write_table(ResultTable(rows=tuple(rows)), out / "field_osc.csv")
    io.write_records(records, out / "field_samples.jsonl")
    if cfg.plot:
        draw = sample_hamiltonian(experiments.law_for(cfg, cfg.regularity[0]), cfg.seed, 0, 0)
        io.render_field_svg(draw, cfg.field_time, out / "field.svg", cfg.arrow_grid)
    print(f"wrote {out / 'field_osc.csv'}")


def _cmd_flow(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity[:1], flows=True)
    curves = experiments.advected_samples(cfg)
    records = [{"sample": i, "vertices": c.vertices.tolist(), "winding": list(c.winding)}
               for i, c in enumerate(curves)]
    io.write_records(records, out / "curves.jsonl")
    if cfg.plot:
        io.render_curves_svg(curves, out / "curves.svg")
    print(f"wrote {out / 'curves.jsonl'} ({len(curves)} curves)")


def _write_failures(records, path: Path) -> None:
    """failures.jsonl exists exactly when a sample failed: a rerun into the
    same directory must not leave an older run's failures behind."""
    if records:
        io.write_records([{"regularity": r, "sample": i, "error": msg}
                          for (r, i, msg) in records], path)
    else:
        path.unlink(missing_ok=True)


def _cmd_intersections(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity, flows=True)
    try:
        table = experiments.run_intersections(cfg)
    except FailureBudgetExceeded as exc:
        # the failures reach disk before the run exits non-zero, and no
        # table of an older run stays next to them
        (out / "intersections.csv").unlink(missing_ok=True)
        _write_failures(exc.failures, out / "failures.jsonl")
        raise
    io.write_table(table, out / "intersections.csv")
    _write_failures(table.failures, out / "failures.jsonl")
    print(f"wrote {out / 'intersections.csv'} ({len(table.rows)} rows)")


def _cmd_diffusion(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity[:1], flows=True)
    result = experiments.run_diffusion(cfg)
    io.write_records(
        [{"time": t, "chi_square": float(chi), "counts": counts.tolist()}
         for t, chi, counts in zip(result.times, result.chi_square, result.grid_counts)],
        out / "diffusion.jsonl")
    io.write_records(
        [{"sample": i, "chi_square": row.tolist()}
         for i, row in enumerate(result.per_sample_chi_square)],
        out / "diffusion_samples.jsonl")
    print(f"wrote {out / 'diffusion.jsonl'}")


def _cmd_random_walk(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity[:1], flows=True)
    records = [{"walk": w, "trajectory": traj.tolist()}
               for w, traj in enumerate(experiments.run_random_walks(cfg))]
    io.write_records(records, out / "walks.jsonl")
    print(f"wrote {out / 'walks.jsonl'} ({cfg.samples} walks x {cfg.walk_steps} steps)")


def _cmd_rkhs_norm(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity)
    rows = []
    records = []
    for r_index, regularity in enumerate(cfg.regularity):
        law = experiments.law_for(cfg, regularity)
        norms = []
        sums = []
        for i in range(cfg.samples):
            draw = sample_hamiltonian(law, cfg.seed, r_index, i)
            norms.append(rkhs.rkhs_norm(draw, law.regularity))
            sums.append(rkhs.weighted_coefficient_sum(draw, cfg.smoothing_eps))
            records.append({"regularity": regularity, "sample": i,
                            "rkhs_norm": norms[-1], "weighted_sum": sums[-1]})
        for label, vals in (("rkhs_norm", norms), ("weighted_sum", sums)):
            arr = np.asarray(vals)
            rows.append(ResultRow(label, regularity, float(arr.mean()), standard_error(arr),
                                  len(arr)))
    io.write_table(ResultTable(rows=tuple(rows)), out / "rkhs.csv")
    io.write_records(records, out / "rkhs_samples.jsonl")
    print(f"wrote {out / 'rkhs.csv'}")


def _cmd_tails(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity[:1])
    stats = experiments.run_tail_stats(cfg)
    io.write_records(
        [{"u": float(u), "survival": float(s)}
         for u, s in zip(stats.thresholds, stats.survival)],
        out / "tail_survival.jsonl")
    io.write_records([{
        "regularity": stats.regularity, "mean": stats.mean,
        "tail_scale": stats.tail_scale, "heldout_u": stats.heldout_u,
        "heldout_exceedance": stats.heldout_exceedance,
        "heldout_bound": stats.heldout_bound, "bound_holds": stats.bound_holds,
    }], out / "tail_fit.jsonl")
    if cfg.plot:
        io.render_histogram_svg(stats.thresholds, out / "tails.svg",
                                title="oscillation exceedances")
    print(f"wrote {out / 'tail_fit.jsonl'} (bound_holds={stats.bound_holds})")


def _cmd_concentration(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity)
    table = experiments.run_concentration(cfg)
    io.write_table(table, out / "concentration.csv")
    print(f"wrote {out / 'concentration.csv'}")


def _cmd_inversion(cfg: ExperimentConfig) -> None:
    out = _outdir(cfg, cfg.regularity[:1], flows=True)
    result = experiments.run_inversion_test(cfg)
    io.write_records([{
        "statistic": result.statistic, "p_value": result.p_value,
        "level": result.level, "passed": result.passed,
    }], out / "inversion.jsonl")
    io.write_records([{"branch": "forward", "sample": i, "displacement": float(d)}
                      for i, d in enumerate(result.forward)]
                     + [{"branch": "inverse", "sample": i, "displacement": float(d)}
                        for i, d in enumerate(result.inverse)],
                     out / "inversion_samples.jsonl")
    print(f"wrote {out / 'inversion.jsonl'} (passed={result.passed})")


_HANDLERS = {
    "sample-field": _cmd_sample_field,
    "flow": _cmd_flow,
    "diffusion": _cmd_diffusion,
    "intersections": _cmd_intersections,
    "random-walk": _cmd_random_walk,
    "rkhs-norm": _cmd_rkhs_norm,
    "tails": _cmd_tails,
    "concentration": _cmd_concentration,
    "inversion": _cmd_inversion,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        _HANDLERS[args.command](cfg)
    except HamflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

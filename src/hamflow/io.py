"""Tabular persistence.

All outputs are deterministic bytes given (config, seed): CSV for tables of
means, line-delimited JSON for records.  A record is a dict
whose values are JSON values or numpy arrays and scalars (the records of
``hamflow.experiments``); a table row is a tuple (label, regularity,
estimate, standard error, samples).
"""

from __future__ import annotations

import json
from pathlib import Path

_TABLE_HEADER = "label,regularity,estimate,stderr,samples"


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def write_table(rows, path) -> None:
    """CSV with six significant digits, rows ordered by (label, regularity)."""
    lines = [_TABLE_HEADER]
    for label, regularity, estimate, stderr, samples in sorted(rows, key=lambda r: r[:2]):
        lines.append(f"{label},{_fmt(regularity)},{_fmt(estimate)},{_fmt(stderr)},{samples}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_records(records, path) -> None:
    """Line-delimited JSON records, keys sorted; a numpy array or scalar is
    written as its ``tolist()``."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=lambda v: v.tolist()) + "\n")


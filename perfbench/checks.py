"""Output checks for the benchmark's CLI invocations (standard library only).

Two kinds of check:

* ``check_outputs`` -- properties every invocation must satisfy at any seed:
  file shapes, finiteness, ranges, and identities the numbers must obey
  (the KS statistic recomputed from the displacements, crossing-count
  parities fixed by homology, the oscillation mean).
* ``check_reference`` -- agreement with reference.json, the outputs of the
  reference seed.  The tolerances pass a change of summation order or of a
  converged step count (doubling the steps moves a displacement by ~1e-8)
  and fail a wrong answer (a displacement off by 1e-3, one crossing more, an
  oscillation off by 1%).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DISPLACEMENT_ATOL = 1e-6
OSC_RTOL = 1e-6
_KS_ATOL = 1e-9
_MAX_DISPLACEMENT = math.sqrt(0.5)  # farthest a point can be from itself on the unit torus

# Algebraic intersection number of the advected horizontal loop (homology
# class (1, 0)) with each test Lagrangian of experiments.paper_lagrangians().
# A transverse crossing count has the parity of that number and is at least
# its absolute value.
_INTERSECTION_NUMBER = {"L1": 1, "L2": 1, "L3": 1, "L4": 2, "L5": 3, "L6": 4,
                        "L7": 0, "L8": 0, "L9": 0, "L10": 1, "L11": 1, "L12": 1,
                        "L13": 0, "L14": 0}


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_table(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Values compared against the reference
# ---------------------------------------------------------------------------

def displacements(out: Path) -> dict:
    """Per-sample displacements of ``hamflow inversion``, by branch."""
    found = {"forward": {}, "inverse": {}}
    for rec in read_jsonl(out / "inversion_samples.jsonl"):
        found[rec["branch"]][rec["sample"]] = rec["displacement"]
    return {branch: [by_index[i] for i in sorted(by_index)] for branch, by_index in found.items()}


def crossing_totals(out: Path) -> dict:
    """Crossing count summed over samples, per test Lagrangian."""
    return {row["label"]: round(float(row["estimate"]) * int(row["samples"]))
            for row in read_table(out / "intersections.csv")}


def oscillations(out: Path) -> list:
    """Per-sample oscillation of ``hamflow sample-field``, in sample order."""
    recs = sorted(read_jsonl(out / "field_samples.jsonl"), key=lambda r: r["sample"])
    return [r["osc"] for r in recs]


def reference_values(workload: str, out: Path) -> dict:
    """The values reference.json stores for one workload's reference invocation."""
    if workload == "inversion":
        return displacements(out)
    if workload == "intersections":
        return {"crossings": crossing_totals(out)}
    return {"osc": oscillations(out)}


def check_reference(workload: str, out: Path, reference: dict) -> list:
    """Errors where the outputs in ``out`` disagree with ``reference``."""
    try:
        got = reference_values(workload, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    errors = []
    if workload == "inversion":
        for branch in ("forward", "inverse"):
            errors += _compare(f"{branch} displacement", got[branch], reference[branch],
                               lambda a, b: abs(a - b) <= DISPLACEMENT_ATOL)
    elif workload == "intersections":
        want = reference["crossings"]
        if got["crossings"] != want:
            diff = {k: (got["crossings"].get(k), want[k]) for k in want
                    if got["crossings"].get(k) != want[k]}
            errors.append(f"crossing totals differ (got, want): {diff or got['crossings']}")
    else:
        errors += _compare("osc", got["osc"], reference["osc"],
                           lambda a, b: abs(a - b) <= OSC_RTOL * abs(b))
    return errors


def _compare(what, got, want, close) -> list:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    return [f"{what} {i}: {a!r} vs reference {b!r}"
            for i, (a, b) in enumerate(zip(got, want)) if not close(a, b)]


# ---------------------------------------------------------------------------
# Properties every invocation satisfies
# ---------------------------------------------------------------------------

def check_outputs(workload: str, out: Path, samples: int) -> list:
    """Errors in the outputs of one invocation with ``samples`` samples."""
    check = {"inversion": _check_inversion, "intersections": _check_intersections,
             "sample-field": _check_sample_field}[workload]
    try:
        return check(out, samples)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]


def _check_inversion(out: Path, samples: int) -> list:
    disp = displacements(out)
    errors = []
    for branch, values in disp.items():
        if len(values) != samples:
            errors.append(f"{branch}: {len(values)} displacements, expected {samples}")
        if not all(0.0 <= v <= _MAX_DISPLACEMENT for v in values):
            errors.append(f"{branch}: displacement outside [0, sqrt(1/2)]")
    (summary,) = read_jsonl(out / "inversion.jsonl")
    if not 0.0 <= summary["p_value"] <= 1.0:
        errors.append(f"p_value {summary['p_value']} outside [0, 1]")
    if summary["passed"] != (summary["p_value"] > summary["level"]):
        errors.append("passed flag disagrees with p_value and level")
    ks = ks_statistic(disp["forward"], disp["inverse"])
    if abs(ks - summary["statistic"]) > _KS_ATOL:
        errors.append(f"KS statistic {summary['statistic']} but the displacements give {ks}")
    return errors


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    best = 0.0
    while i < len(a) and j < len(b):
        x = min(a[i], b[j])
        while i < len(a) and a[i] == x:
            i += 1
        while j < len(b) and b[j] == x:
            j += 1
        best = max(best, abs(i / len(a) - j / len(b)))
    return best


def _check_intersections(out: Path, samples: int) -> list:
    errors = []
    if (out / "failures.jsonl").exists():
        errors.append(f"failures.jsonl lists {len(read_jsonl(out / 'failures.jsonl'))} failed samples")
    rows = read_table(out / "intersections.csv")
    labels = [row["label"] for row in rows]
    if sorted(labels) != sorted(_INTERSECTION_NUMBER):
        errors.append(f"table rows {labels}, expected {sorted(_INTERSECTION_NUMBER)}")
    for row in rows:
        n = int(row["samples"])
        if n != samples:
            errors.append(f"{row['label']}: {n} samples, expected {samples}")
        total = float(row["estimate"]) * n
        # the table keeps 6 significant digits of the mean
        if abs(total - round(total)) > 1e-5 * max(1.0, total):
            errors.append(f"{row['label']}: mean {row['estimate']} is not a whole count over {n}")
            continue
        number = abs(_INTERSECTION_NUMBER.get(row["label"], 0))
        total = round(total)
        if total < n * number or (total - n * number) % 2:
            errors.append(f"{row['label']}: {total} crossings over {n} samples contradict "
                          f"intersection number {number}")
    return errors


def _check_sample_field(out: Path, samples: int) -> list:
    osc = oscillations(out)
    errors = []
    if len(osc) != samples:
        errors.append(f"{len(osc)} oscillation samples, expected {samples}")
    if not all(math.isfinite(v) and v > 0.0 for v in osc):
        errors.append("oscillation not finite and positive")
    (row,) = read_table(out / "field_osc.csv")
    mean = math.fsum(osc) / max(len(osc), 1)
    if int(row["samples"]) != samples or abs(float(row["estimate"]) - mean) > 1e-5 * abs(mean):
        errors.append(f"field_osc.csv ({row['estimate']}, n={row['samples']}) "
                      f"disagrees with the samples ({mean:.6g}, n={len(osc)})")
    return errors

"""The benchmark's workloads: which CLI command each runs, with what config.

Every workload shares one law (regularity in frequency units, spatial_max 25,
temporal_max 10, periodic kernel, 200 steps); all other keys keep their CLI
defaults.  README.md explains why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose outputs are committed in reference.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    regularity: float
    workers: int
    samples: int            # samples per CLI invocation
    invocation_s: float     # wall time of one invocation, 2-core x86-64, BLAS pinned
    draws_per_sample: int   # inversion draws a forward and an inverse flow
    reference_samples: int  # samples of the reference invocation
    outputs: tuple          # CLI output files that must not depend on tracing or workers
    curve_vertices: int | None = None  # None keeps the CLI default

    def draws(self, samples: int) -> int:
        return samples * self.draws_per_sample

    def invocations(self, seconds: float) -> int:
        """Timed invocations of a ``--seconds`` run.

        Fixed by ``seconds`` alone, never by how fast the program is, so every
        version of the program times the same draws at a given seed.
        """
        return max(1, round(seconds / self.invocation_s))

    def config_text(self, seed: int, samples: int, workers: int) -> str:
        """The key = value document passed to ``hamflow <command> --config``."""
        return (f"regularity = {self.regularity:g}\n"
                "spatial_max = 25\n"
                "temporal_max = 10\n"
                "kernel = periodic\n"
                "steps = 200\n"
                f"seed = {seed}\n"
                f"samples = {samples}\n"
                f"workers = {workers}\n"
                + (f"curve_vertices = {self.curve_vertices}\n" if self.curve_vertices else ""))


WORKLOADS = {w.name: w for w in (
    Workload("inversion", "inversion", regularity=3, workers=2, samples=64, invocation_s=9.3,
             draws_per_sample=2, reference_samples=8,
             outputs=("inversion.jsonl", "inversion_samples.jsonl")),
    # r = 4.5 and 192 vertices, not r = 3 and 128: README.md gives the reasons.
    Workload("intersections", "intersections", regularity=4.5, workers=1, samples=8,
             invocation_s=13.3, draws_per_sample=1, reference_samples=2,
             outputs=("intersections.csv",), curve_vertices=192),
    Workload("sample-field", "sample-field", regularity=3, workers=1, samples=64, invocation_s=7.4,
             draws_per_sample=1, reference_samples=8,
             outputs=("field_osc.csv", "field_samples.jsonl")),
)}


def invocation_seed(seed: int, index: int) -> int:
    """Config seed of the index-th CLI invocation of a benchmark run at ``seed``.

    Distinct (seed, index) pairs give distinct config seeds, so every
    invocation of a run draws fresh Hamiltonians.
    """
    return 1000 * seed + index

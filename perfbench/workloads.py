"""The benchmark's workloads: the nlflow command line each one runs, the
input it generates, and how its report splits into checked operations.

The benchmark's --seed picks one of N_CASES cases (seed mod N_CASES); a case
fixes the nlflow seeds and the generated input, so its report is recorded
once in expected.json and every run of that case is checked against it.

BENCHMARK.json gates diagnose-1d and denoise-2d.  run-2d-rough is not gated:
its 13.75 MB offset table makes every step stream from memory, so on a shared
host its wall time follows the neighbours' memory traffic (its interquartile
spread over ten runs reached 31% of the median).  It stays runnable by hand
with run.py and gives baseline.py its 2-d rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

N_CASES = 10
DENOISE_SIDE = 128


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sets: tuple[str, ...]
    seeds_per_case: int          # 0: the command takes no seeds
    steps_in_report: bool        # run records carry n_steps

    def seeds(self, case: int) -> list[int]:
        k = self.seeds_per_case
        return [k * case + i for i in range(1, k + 1)]

    def argv(self, case: int, out_dir: str) -> list[str]:
        args = [self.command]
        for item in self.sets:
            args += ["--set", item]
        if self.seeds_per_case:
            args += ["--seed", ",".join(map(str, self.seeds(case)))]
        return args + ["--out", out_dir]

    def config_args(self, case: int) -> list[str]:
        """parse_config(seeds, overrides) arguments for the set-up probe."""
        seeds = ",".join(map(str, self.seeds(case))) or "1"
        return [seeds, *self.sets]

    def prepare(self, work_dir: str, case: int) -> None:
        if self.name == "denoise-2d":
            write_noisy_pgm(os.path.join(work_dir, "noisy.pgm"), case)

    def op_count(self) -> int:
        return self.seeds_per_case or 1

    def node_steps(self, report: dict) -> int | None:
        """Grid nodes x flow steps, when the report records them."""
        if not self.steps_in_report:
            return None
        if self.command == "run":
            cfg = report["config"]["values"]
            nodes = cfg["grid.M"] ** cfg["grid.N"]
            return sum(nodes * r["n_steps"] for r in report["runs"])
        return DENOISE_SIDE ** 2 * report["flow"]["n_steps"]


WORKLOADS = {w.name: w for w in (
    Workload("diagnose-1d", "diagnose", (), 2, False),
    Workload("run-2d-rough", "run",
             ("grid.N=2", "grid.M=64", "kernel.family=rough-static"), 4, True),
    Workload("denoise-2d", "denoise", ("denoise.input=noisy.pgm",), 0, True),
)}


def noisy_image(case: int) -> np.ndarray:
    """Smooth image plus Gaussian noise, clipped to [0, 1], as 8-bit pixels."""
    rng = np.random.default_rng(1000 + case)
    m = DENOISE_SIDE
    x = np.arange(m) / m
    X, Y = np.meshgrid(x, x, indexing="ij")
    img = np.full((m, m), 0.5)
    for _ in range(3):
        kx, ky = rng.integers(1, 4, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img += 0.12 * np.sin(2.0 * np.pi * (kx * X + ky * Y) + phase)
    img += rng.normal(0.0, 0.1, size=img.shape)
    return np.round(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)


def write_noisy_pgm(path: str, case: int) -> None:
    px = noisy_image(case)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % px.shape)
        fh.write(px.tobytes())

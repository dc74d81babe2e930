"""Isolated per-layer calls on one workload's own grid and kernel.

    python3 perfbench/layers.py WORKLOAD CASE WORK_DIR

Prints one JSON object: median milliseconds of one right-hand-side evaluation
as the workload's banded steps make it (``flow._offset_rhs``, with the
workload's phi' for denoise, whose flow is nonlinear), of one linear and one
nonlinear energy evaluation, and the kernel sizes with flops and bytes
computed from them.  Bytes are computed from array
sizes as compulsory traffic (each array read or written once, cache misses
not counted), so they are labelled ``_computed``.  A function that no longer
exists is listed under ``missing`` and its time reads 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 0.4          # timing budget per measured call type


def _median_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    reps = int(min(200, max(3, BUDGET_S / max(first, 1e-6))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def operator_for(workload: str, case: int, work_dir: str):
    """The banded operator the workload's flows step with, its grid, and the
    phi' its steps apply (None for a linear flow)."""
    from nlflow.config import parse_config
    from nlflow.grid import DiscreteOperator
    wl = WORKLOADS[workload]
    seed = (wl.seeds(case) or [0])[0]
    d1 = None
    if workload == "diagnose-1d":
        from nlflow.ensembles import default_grid, rough_kernel
        grid, kernel = default_grid(), rough_kernel(seed)
    elif workload == "run-2d-rough":
        cfg = parse_config(overrides=list(wl.sets))
        grid, kernel = cfg.make_grid(), cfg.make_kernel(seed=seed)
    else:
        from nlflow.fieldio import load_field
        from nlflow.kernels import make_kernel
        cfg = parse_config(overrides=list(wl.sets))
        grid = load_field(os.path.join(work_dir, "noisy.pgm")).grid
        kernel = make_kernel(dataclasses.replace(
            cfg.kernel_spec(), dimension=grid.dimension))
        d1 = cfg.make_potential().d1
    return DiscreteOperator(grid, kernel, "banded"), grid, d1


def measure(workload: str, case: int, work_dir: str) -> dict:
    from nlflow import flow
    from nlflow.potentials import PotentialSpec, make_potential
    op, grid, d1 = operator_for(workload, case, work_dir)
    table = op.offset_values(0.0)
    n, k = grid.n_nodes, int(op.deltas.shape[0])
    table_bytes = 8 * table.size
    w = np.random.default_rng(case).standard_normal(n) * 0.5
    potential = make_potential(PotentialSpec(family="smoothed-huber"))
    calls = {
        "flow.rhs_ms": lambda: flow._offset_rhs(op, w.reshape(grid.shape),
                                                0.0, d1=d1),
        "flow.linear_energy_ms": lambda: flow.linear_energy(op, w, 0.0),
        "flow.nonlinear_energy_ms":
            lambda: flow.nonlinear_energy(op, potential, w, 0.0),
    }
    present = {"flow.rhs_ms": hasattr(flow, "_offset_rhs"),
               "flow.linear_energy_ms": hasattr(flow, "linear_energy"),
               "flow.nonlinear_energy_ms": hasattr(flow, "nonlinear_energy")}
    out: dict = {"missing": [name for name, ok in present.items() if not ok]}
    for name, fn in calls.items():
        out[name] = _median_ms(fn) if present[name] else 0.0
    # one RHS: a difference, a weight and an accumulate per (offset, node),
    # phi' not counted; reads the field and the kernel table, writes the
    # result
    rhs_flops, rhs_bytes = 3 * k * n, 8 * 2 * n + table_bytes
    # one energy: difference, square, weight, accumulate; reads field, table
    energy_flops, energy_bytes = 4 * k * n, 8 * n + table_bytes
    out.update({
        "grid.nodes": n,
        "grid.offsets": k,
        "grid.offset_table_bytes_computed": table_bytes,
        "flow.rhs_flops_computed": rhs_flops,
        "flow.rhs_bytes_computed": rhs_bytes,
        "flow.rhs_flops_per_byte_computed": rhs_flops / rhs_bytes,
        "flow.energy_flops_computed": energy_flops,
        "flow.energy_bytes_computed": energy_bytes,
        "flow.energy_flops_per_byte_computed": energy_flops / energy_bytes,
    })
    return out


if __name__ == "__main__":
    name, case_text, work = sys.argv[1:4]
    print(json.dumps(measure(name, int(case_text), work)))

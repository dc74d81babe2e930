"""Reproduce the ROADMAP baseline table once; ungated reference rows.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Measures the tier-1 suite's wall time,
``nlflow diagnose --seed 1..4`` with NLFLOW_THREADS=1 and 2 (per-seed time
from the first), the 1-d and 2-d step, RHS and energy costs and the 2-d
offset-table build.  Prints the rows and writes them, with the machine
record, to .perfbench/baseline.json.  Each row is a single measurement, not
a median, so it is a reference and no gate.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import (BENCH_DIR, child_env, invoke_nlflow,  # noqa: E402
                 machine_record)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    root = os.getcwd()
    env = child_env(os.path.join(root, "src"))
    work = os.path.join(root, ".perfbench", "baseline")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + 3600.0
    rows = []

    def row(what, value, unit, note=""):
        rows.append({"what": what, "value": value, "unit": unit,
                     "note": note})
        print(f"{what:<44} {value:12.4f} {unit:<6} {note}", flush=True)

    def nlflow(argv, extra_env=None, traced=False):
        """One invocation; argv ends with --out TAG."""
        wall, code, _, trace = invoke_nlflow(
            argv, work, dict(env, **(extra_env or {})), deadline, argv[-1],
            traced)
        if code != 0 or (traced and trace is None):
            raise SystemExit(f"nlflow {' '.join(argv)} exited {code}")
        return wall, trace["summary"] if traced else None

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    passed = re.search(r"(\d+) passed", tail)
    row("tier-1 suite", time.perf_counter() - t0, "s",
        f"{passed.group(1) if passed else 0} passed, exit "
        f"{proc.returncode}: {tail}")

    diagnose = ["diagnose", "--seed", "1..4", "--out"]
    one, _ = nlflow(diagnose + ["t1"], {"NLFLOW_THREADS": "1"})
    two, _ = nlflow(diagnose + ["t2"], {"NLFLOW_THREADS": "2"})
    row("diagnose per seed (seeds 1..4, 1 thread)", one / 4, "s")
    row("diagnose --seed 1..4, NLFLOW_THREADS=1", one, "s")
    row("diagnose --seed 1..4, NLFLOW_THREADS=2", two, "s")

    _, diag = nlflow(["diagnose", "--seed", "1", "--out", "d"], traced=True)
    _, r2d = nlflow(WORKLOADS["run-2d-rough"].argv(0, "r"), traced=True)
    for label, name, summary in (("1-d", "diagnose-1d", diag),
                                 ("2-d", "run-2d-rough", r2d)):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "layers.py"), name, "0",
             work], cwd=work, env=env, capture_output=True, text=True,
            check=True)
        layers = json.loads(out.stdout)
        note = f"{layers['grid.offsets']} offsets, {layers['grid.nodes']} nodes"
        row(f"{label} banded rough step", summary["flow.step_ms"], "ms",
            note + ", traced run, includes the energy record")
        row(f"{label} RHS (flow._offset_rhs)", layers["flow.rhs_ms"], "ms",
            note)
        row(f"{label} linear_energy", layers["flow.linear_energy_ms"], "ms",
            note)
    builds = r2d["grid.offset_table_builds"]
    row("2-d offset-table build", r2d["grid.offset_table_s"] / max(builds, 1),
        "s", f"mean of {builds} builds, traced run")

    shutil.rmtree(work, ignore_errors=True)
    result = {"reference_rows": rows, "machine": machine_record(root, env)}
    with open(os.path.join(root, ".perfbench", "baseline.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the report of every workload case into perfbench/expected.json.

    python3 perfbench/record.py

Run from the root of a checkout.  Each case runs once, under the tracer so
that its grid-node x flow-step count is recorded too (diagnose reports none);
a case whose command exits non-zero stops the recording.  Re-record only when
a change is meant to alter the reports, and say so where the change is
described.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from run import child_env, invoke_nlflow  # noqa: E402
from workloads import N_CASES, WORKLOADS  # noqa: E402


def record_case(root: str, name: str, case: int) -> dict:
    wl = WORKLOADS[name]
    work = os.path.join(root, ".perfbench", "record", f"{name}-{case}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl.prepare(work, case)
        wall, code, _, trace = invoke_nlflow(
            wl.argv(case, "out"), work, child_env(os.path.join(root, "src")),
            time.monotonic() + 600.0, "record", traced=True)
        if trace is None:
            raise SystemExit(f"{name} case {case} exited {code}")
        with open(os.path.join(work, "out", "report.json"), "rb") as fh:
            raw = fh.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{name} case {case}: {wall:.2f} s", file=sys.stderr)
    return {"report": json.loads(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "node_steps": trace["summary"]["flow.node_steps"]}


def main() -> int:
    root = os.getcwd()
    expected = {name: {str(case): record_case(root, name, case)
                       for case in range(N_CASES)}
                for name in WORKLOADS}
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

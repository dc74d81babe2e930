"""Summarize a set of benchmark runs, or compare two sets.

    python3 perfbench/summarize.py RESULTS_DIR [SECOND_RESULTS_DIR]

Reads the files run.py writes to .perfbench/results/.  For each workload and
end-to-end metric it prints the median over runs, the spread (distance
between the first and third quartile, as a share of the median) against a
third of the metric's bound, and the highest percentile of the pooled wall
samples that has ten samples above it.  Runs of the same case must have
written byte-identical reports.  With a second directory it also prints how
far the second set's median moved from the first, against the bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import high_percentile  # noqa: E402

BOUNDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCHMARK.json")


def load_set(directory: str) -> dict:
    """workload -> list of (result, detail) of the untraced runs."""
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            data = json.load(fh)
        runs.setdefault(data["detail"]["workload"], []).append(data)
    return runs


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv: list[str]) -> int:
    with open(BOUNDS_PATH) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [load_set(d) for d in argv]
    ok = True
    for workload in sorted(sets[0]):
        runs = sets[0][workload]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        walls = [w for r in runs for w in r["detail"]["wall_samples_s"]]
        hashes: dict[int, set] = {}
        for r in runs:
            for inv in r["detail"]["invocations"]:
                hashes.setdefault(r["detail"]["case"], set()).add(
                    inv["report_sha256"])
        same = all(len(h) == 1 for h in hashes.values())
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}, "
              f"correct {correct}, reports identical per case {same}, "
              f"wall samples {len(walls)}, high percentile "
              f"{high_percentile(walls)}")
        ok &= correct and same and failed == 0
        for name, m in spec.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {name:<18} median {med:<12.6g}"
            if len(values) >= 2:
                sp = spread(values)
                steady = sp < m["bound"] / 3
                ok &= steady
                line += (f" spread {sp:7.2%} (third of bound "
                         f"{m['bound'] / 3:.2%}) {'ok' if steady else 'WIDE'}")
            if len(sets) > 1 and workload in sets[1]:
                other = statistics.median(
                    r["result"]["metrics"][name]["value"]
                    for r in sets[1][workload])
                worse = (other - med) / med if m["better"] == "lower" \
                    else (med - other) / med
                held = worse <= m["bound"]
                ok &= held
                line += (f" | second {other:<10.6g} worse by {worse:7.2%} "
                         f"{'ok' if held else 'REGRESSED'}")
            print(line)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

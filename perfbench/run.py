"""nlflow benchmark: one workload, timed as fresh single-threaded processes.

    python3 perfbench/run.py --workload diagnose-1d --seed 3 --seconds 50 --trace 0

Run it from the root of a checkout; nlflow is imported from the checkout's
``src/`` and nothing is installed.  Each invocation is a fresh
``python3 -m nlflow.cli`` process with NLFLOW_THREADS unset and the BLAS and
OpenMP thread counts at 1, run one at a time in ``.perfbench/work``.

--trace 0 repeats the workload's invocation for --seconds, ending on the
round nearest to it, and at least MIN_SAMPLES times, so a run of a long
invocation can last longer; set-up probes precede each invocation.  It reports the end-to-end metrics as medians.
--trace 1 runs the invocation once untraced, once under perfbench/tracer.py,
then perfbench/layers.py, and reports the per-layer metrics.  Every
invocation's report.json is checked against perfbench/expected.json and
against the other invocations of the run, which must be byte-identical; the
failures are the result's ``failed`` count.  A failed set-up probe, traced
invocation or layers.py call makes the result incorrect; metrics it could not
measure read 0 and are listed under ``unmeasured``.

The last stdout line is the result object; the line before it carries the
samples, the checks and the machine record (read from /proc/cpuinfo and
/sys), which are also written to ``.perfbench/results/``.  Exit code 0 means
the run completed, whatever the checks found; without ``src/nlflow`` it exits
2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import DENOISE_SIDE, N_CASES, WORKLOADS  # noqa: E402

SETUP_PROBES = 15
PROBES_PER_INVOCATION = 3
MIN_SAMPLES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# A fresh process importing the CLI, parsing the workload's configuration and
# loading the shipped calibration: the set-up every invocation pays.
SETUP_CODE = ("import sys\n"
              "import nlflow.cli\n"
              "from nlflow.calibrate import default_calibration\n"
              "from nlflow.config import parse_config\n"
              "parse_config(overrides=sys.argv[2:], seeds=sys.argv[1])\n"
              "default_calibration()\n")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("NLFLOW_THREADS", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv: list[str], cwd: str, env: dict, deadline: float,
          log_path: str) -> tuple[float, int, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def invoke_nlflow(argv: list[str], work: str, env: dict, deadline: float,
                  tag: str, traced: bool = False):
    """One nlflow invocation in `work`, logged to TAG.log: (wall s, exit code,
    peak RSS MB, trace).  With `traced` it runs under tracer.py, and `trace`
    holds the span summary, the missing patches and the traced package, or
    is None when the invocation failed or wrote no spans."""
    spans_path = os.path.join(work, f"{tag}.spans.json")
    head = ([sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans_path,
             "--"] if traced else [sys.executable, "-m", "nlflow.cli"])
    wall, code, rss = spawn(head + argv, work, env, deadline,
                            os.path.join(work, f"{tag}.log"))
    trace = None
    if traced and code == 0:
        try:
            with open(spans_path) as fh:
                raw = json.load(fh)
            trace = {"summary": tracer.summarize(raw["spans"], raw["wall_s"]),
                     "missing": raw["missing"], "package": raw["package"]}
        except (OSError, ValueError, KeyError):
            trace = None
    return wall, code, rss, trace


def high_percentile(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 1),
            "value": sorted(samples)[k - 1], "samples": n}


def source_loc(src: str) -> dict:
    pkg = os.path.join(src, "nlflow")
    loc = {}
    for layer in tracer.LAYERS:
        path = os.path.join(pkg, f"{layer}.py")
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                loc[f"{layer}.loc"] = fh.read().count(b"\n")
    total = 0
    for path in glob.glob(os.path.join(pkg, "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    loc["package.loc"] = total
    return loc


def machine_record(root: str, env: dict) -> dict:
    import numpy
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        entry = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(idx, key)) as fh:
                    entry[key] = fh.read().strip()
            except OSError:
                pass
        caches.append(entry)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    names = THREAD_VARS + ("NLFLOW_THREADS",)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "thread_env_inherited": {v: os.environ.get(v) for v in names},
        "thread_env_child": {v: env.get(v) for v in names},
    }


class Run:
    """One benchmark run of one workload case in its own work directory."""

    def __init__(self, root: str, workload: str, seed: int, trace: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.wl = WORKLOADS[workload]
        self.case = seed % N_CASES
        expected = checks.load_expected()
        self.selftest_failures = (checks.self_test(expected)
                                  + tracer.self_test())
        self.want = expected[workload][str(self.case)]
        self.work = os.path.join(root, ".perfbench", "work",
                                 f"{workload}-s{seed}-t{trace}-{os.getpid()}")
        self.env = child_env(self.src)
        self.deadline = time.monotonic() + DEADLINE_S
        self.invocations: list[dict] = []
        self.probe_failures = 0

    def setup_probe(self) -> float:
        argv = [sys.executable, "-c", SETUP_CODE,
                *self.wl.config_args(self.case)]
        wall, code, _ = spawn(argv, self.work, self.env, self.deadline,
                              os.path.join(self.work, "setup.log"))
        self.probe_failures += code != 0
        return wall

    def invoke(self, traced: bool = False) -> dict:
        """One nlflow invocation, checked; returns its record."""
        i = len(self.invocations)
        out = f"out{i}"
        wall, code, rss, trace = invoke_nlflow(
            self.wl.argv(self.case, out), self.work, self.env, self.deadline,
            f"inv{i}", traced)
        report_bytes, report = b"", None
        try:
            with open(os.path.join(self.work, out, "report.json"), "rb") as fh:
                report_bytes = fh.read()
            report = json.loads(report_bytes)
        except (OSError, ValueError):
            pass
        n_ops = self.wl.op_count()
        failed = checks.failed_ops(report if code == 0 else None,
                                   self.want["report"], n_ops)
        if report is not None and self.wl.command == "denoise":
            image = os.path.join(self.work, out, str(report.get("output")))
            if not (os.path.isfile(image)
                    and os.path.getsize(image) > DENOISE_SIDE ** 2):
                failed = [True] * n_ops
        rec = {"traced": traced, "wall_s": wall, "exit_code": code,
               "peak_rss_mb": rss, "failed": failed,
               "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
               "node_steps": (self.wl.node_steps(report)
                              if report is not None and code == 0 else None)}
        if trace is not None:
            rec.update(trace)
        if code != 0:
            with open(os.path.join(self.work, f"inv{i}.log"), "rb") as fh:
                sys.stderr.write(fh.read()[-2000:].decode("utf-8", "replace"))
        shutil.rmtree(os.path.join(self.work, out), ignore_errors=True)
        self.invocations.append(rec)
        return rec

    def timed_loop(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Untraced invocations, each after set-up probes, until the run is
        as close to `seconds` as whole rounds bring it and at least
        MIN_SAMPLES have run: (records, set-ups)."""
        recs: list[dict] = []
        setups: list[float] = []
        t0 = time.monotonic()
        while True:
            setups += [self.setup_probe()
                       for _ in range(PROBES_PER_INVOCATION)]
            recs.append(self.invoke())
            elapsed = time.monotonic() - t0
            per_round = elapsed / len(recs)
            if time.monotonic() + per_round > self.deadline - 5.0:
                break
            if len(recs) >= MIN_SAMPLES and elapsed + per_round / 2 >= seconds:
                break
        return recs, setups

    def checked_counts(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, notes) over every invocation of the run."""
        notes = []
        ref = self.invocations[0]["report_sha256"]
        attempted = failed = 0
        for rec in self.invocations:
            flags = rec["failed"]
            if rec["report_sha256"] != ref:
                notes.append("report.json differs between invocations")
                flags = [True] * len(flags)
            attempted += len(flags)
            failed += sum(flags)
        if ref != self.want["sha256"] and not failed:
            notes.append("report.json is not byte-identical to the "
                         "recording (floats within tolerance)")
        return attempted, failed, notes


def measure(run: Run, seconds: float, trace: int) -> tuple[dict, dict]:
    """(metrics, detail) of one run."""
    detail: dict = {"notes": []}
    if trace == 0:
        loop, setups = run.timed_loop(seconds)
        while len(setups) < SETUP_PROBES:
            setups.append(run.setup_probe())
        node_steps = loop[0]["node_steps"]
        if node_steps is None:
            # diagnose reports no step counts; the recording's traced run
            # counted them, and trace runs check that count still holds
            node_steps = run.want["node_steps"]
        walls = [r["wall_s"] for r in loop]
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "node_steps_per_s": (node_steps or 0) / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in loop),
        }
        if run.probe_failures:
            detail["notes"].append(f"{run.probe_failures} set-up probes "
                                   "failed")
        detail.update({"wall_samples_s": walls, "setup_samples_s": setups,
                       "wall_high_percentile": high_percentile(walls),
                       "node_steps": node_steps,
                       "complete": run.probe_failures == 0})
        return {name: (values[name], unit)
                for name, unit in END_TO_END.items()}, detail

    # one untraced invocation is the reference for the tracing overhead
    untraced = run.invoke()
    traced = run.invoke(traced=True)
    values: dict = {}
    notes = detail.setdefault("notes", [])
    summary = traced.get("summary")
    if summary is None:
        notes.append("the traced invocation failed")
    else:
        values.update(summary)
    layers = run_layers(run)
    if layers is None:
        notes.append("perfbench/layers.py failed")
    else:
        values.update({k: v for k, v in layers.items() if k != "missing"})
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values.update(source_loc(run.src))
    unmeasured = [name for name in PER_LAYER if name not in values]
    if unmeasured:
        notes.append("metrics that could not be measured read 0")
    bookkeeping = summary is not None and tracer.bookkeeping_ok(summary)
    if summary is not None and not bookkeeping:
        notes.append("layer self times do not account for the wall")
    steps_held = (summary is not None
                  and summary["flow.node_steps"] == run.want["node_steps"])
    if summary is not None and not steps_held:
        notes.append("the traced run's step count differs from the "
                     "recording")
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in PER_LAYER.items()}
    detail.update({"untraced_wall_s": untraced["wall_s"],
                   "traced_wall_s": traced["wall_s"],
                   "complete": (layers is not None and bookkeeping
                                and steps_held),
                   "unmeasured": unmeasured,
                   "bookkeeping_ok": bookkeeping,
                   "node_steps_as_recorded": steps_held,
                   "missing_patches": traced.get("missing"),
                   "missing_isolated_calls": (layers or {}).get("missing"),
                   "traced_package": traced.get("package")})
    return metrics, detail


def run_layers(run: Run) -> dict | None:
    """perfbench/layers.py on the run's case, or None if it fails."""
    with open(os.path.join(run.work, "layers.log"), "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "layers.py"),
                 run.wl.name, str(run.case), run.work], cwd=run.work,
                env=run.env, stdout=subprocess.PIPE, stderr=log,
                timeout=max(1.0, run.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def load_metrics() -> tuple[dict, dict]:
    """Metric name -> unit, from BENCHMARK.json, which is their one source."""
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END, PER_LAYER = load_metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nlflow", "cli.py")):
        print("perfbench: run from a checkout holding src/nlflow",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.trace)
    os.makedirs(run.work)
    try:
        run.wl.prepare(run.work, run.case)
        metrics, detail = measure(run, args.seconds, args.trace)
        attempted, failed, notes = run.checked_counts()
        correct = (failed == 0 and not run.selftest_failures
                   and detail["complete"])
        detail.update({
            "workload": args.workload, "seed": args.seed, "case": run.case,
            "trace": args.trace, "seconds": args.seconds,
            "invocations": [{k: v for k, v in r.items() if k != "summary"}
                            for r in run.invocations],
            "selftest_failures": run.selftest_failures,
            "notes": detail["notes"] + notes,
            "checks": {"rel_tol": checks.REL_TOL, "abs_tol": checks.ABS_TOL},
            "machine": machine_record(root, run.env),
        })
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

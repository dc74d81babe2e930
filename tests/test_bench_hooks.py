"""The benchmark's hooks into the package still resolve.

`perfbench/tracer.py` wraps package names where their callers look them up,
and `perfbench/layers.py` builds each workload's operator from package calls.
A renamed hook would only make a traced benchmark run incomplete; these tests
make it fail here instead, and check that the right-hand side the probe times
is the one the flow steps with, and that every banded step goes through the
patched name.  Each gated workload's case 0 also runs through `cli.main`, and
its report must pass `perfbench/checks.py` against `perfbench/expected.json`,
so a report that drifts fails here before it fails the benchmark.  The
traced checks `perfbench/run.py --trace 1` makes run on case 0 too: the
layer probe's isolated calls, and a traced invocation whose spans must
account for its wall time and its recorded node steps.  Nothing is installed
in this process (the traced run is a subprocess); three tests patch with
monkeypatch.
"""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nlflow import ensembles, flow
from nlflow.cli import main
from nlflow.fields import make_initial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    GATED = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr) for module_name, attr, _, _ in tracer.PATCHES],
    ids=[f"{m}.{a}" for m, a, _, _ in tracer.PATCHES])
def test_traced_name_resolves(module_name, attr):
    # the lookup `tracer.install` makes, without the setattr
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}.{attr} no longer exists"


@pytest.mark.parametrize("workload", GATED)
def test_layer_probe_builds_the_operator(workload, tmp_path):
    if workload == "denoise-2d":
        workloads.write_noisy_pgm(str(tmp_path / "noisy.pgm"), 0)
    op, grid, d1 = layers.operator_for(workload, 0, str(tmp_path))
    assert op.grid == grid
    assert op.offset_values(0.0).shape[0] == op.deltas.shape[0]
    assert (d1 is None) == (workload == "diagnose-1d")


@pytest.mark.parametrize("workload", GATED)
def test_benchmarked_rhs_is_the_flow_rhs(workload, tmp_path):
    # the RHS the layer probe times is the one the flow steps with, bit for
    # bit, though the flow's pass also sums the energy
    if workload == "denoise-2d":
        workloads.write_noisy_pgm(str(tmp_path / "noisy.pgm"), 0)
    op, grid, d1 = layers.operator_for(workload, 0, str(tmp_path))
    potential = None if d1 is None else d1.__self__
    v = np.random.default_rng(1).uniform(0.0, 1.0, grid.n_nodes)
    rhs = flow._offset_rhs(op, v.reshape(grid.shape), 0.0, d1=d1).ravel()
    assert np.array_equal(rhs, flow._rhs_and_energy(op, potential, v, 0.0)[0])


def test_every_banded_rhs_goes_through_the_hook(monkeypatch):
    # `tracer.install` wraps `flow._offset_rhs` in the flow module; a banded
    # Euler run must call it once a state, look it up at call time, and step
    # with what it returns, so a traced `flow.rhs_calls` counts every RHS
    grid = ensembles.default_grid()
    problem = flow.FlowProblem(
        kind="linear", grid=grid, kernel=ensembles.rough_kernel(3),
        initial=make_initial(grid, "random", seed=3),
        t_end=0.3, dt_max=0.01)
    plain = flow.run_flow(problem)
    rhs, outputs = flow._offset_rhs, []

    def counting(*args, **kwargs):
        outputs.append(rhs(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(flow, "_offset_rhs", counting)
    traced = flow.run_flow(problem)
    assert len(outputs) == traced.meta["n_steps"] + 1
    for name in ("fields", "l2", "energy", "vmin", "vmax", "mass"):
        assert np.array_equal(getattr(traced, name), getattr(plain, name))
    # sample_every=1 samples every state
    for i, dt in enumerate(np.diff(traced.step_times)):
        assert np.array_equal(traced.fields[i + 1],
                              traced.fields[i] + dt * outputs[i].ravel())


@pytest.mark.parametrize("workload", GATED)
def test_case_0_report_passes_the_benchmark_check(workload, tmp_path,
                                                  monkeypatch):
    # the benchmark's invocation: its argv and input, from the work directory
    wl = workloads.WORKLOADS[workload]
    wl.prepare(str(tmp_path), 0)
    monkeypatch.chdir(tmp_path)
    assert main(wl.argv(0, "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    want = checks.load_expected()[workload]["0"]["report"]
    assert checks.failed_ops(report, want, wl.op_count()) == \
        [False] * wl.op_count()


@pytest.mark.parametrize("workload", GATED)
def test_layer_probe_measures_every_call(workload, tmp_path, monkeypatch):
    # the isolated calls of a traced benchmark run, on a short budget: the
    # energy probes take the workload's own table, per node for diagnose-1d
    workloads.WORKLOADS[workload].prepare(str(tmp_path), 0)
    monkeypatch.setattr(layers, "BUDGET_S", 0.01)
    out = layers.measure(workload, 0, str(tmp_path))
    assert out["missing"] == []
    for name in ("flow.rhs_ms", "flow.linear_energy_ms",
                 "flow.nonlinear_energy_ms"):
        assert out[name] > 0.0, name


@pytest.mark.parametrize("workload", GATED)
def test_traced_case_0_accounts_for_its_wall_and_steps(workload, tmp_path):
    # `tracer.install` rebinds package names, so the traced invocation runs
    # in its own process, as the benchmark runs it
    wl = workloads.WORKLOADS[workload]
    wl.prepare(str(tmp_path), 0)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
         str(spans), "--", *wl.argv(0, "out")], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    raw = json.loads(spans.read_text())
    assert raw["missing"] == []
    summary = tracer.summarize(raw["spans"], raw["wall_s"])
    assert tracer.bookkeeping_ok(summary)
    assert summary["flow.node_steps"] == \
        checks.load_expected()[workload]["0"]["node_steps"]

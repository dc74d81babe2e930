"""The benchmark's hooks into the package still resolve.

`perfbench/tracer.py` wraps package names where their callers look them up,
and `perfbench/layers.py` builds each workload's operator from package calls.
A renamed hook would only make a traced benchmark run incomplete; these tests
make it fail here instead, and check that the right-hand side the probe times
is the one the flow steps with, and that every banded step goes through the
patched name.  Each gated workload's case 0 also runs through `cli.main`, and
its report must pass `perfbench/checks.py` against `perfbench/expected.json`,
so a report that drifts fails here before it fails the benchmark.  Nothing is
installed; two tests patch with monkeypatch.
"""

import importlib
import json
import os
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
    assert op.strategy == "banded"
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

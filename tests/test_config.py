"""Config parsing: defaults, overrides, collected errors, builders."""

import math
import pathlib
import re

import numpy as np
import pytest

import nlflow
from nlflow import flow
from nlflow.cli import main
from nlflow.config import SCHEMA, parse_config, parse_seed_list
from nlflow.degiorgi import truncated_energies
from nlflow.errors import ConfigError, NlflowError, raise_first
from nlflow.fields import make_initial
from nlflow.flow import FlowProblem, Trajectory, run_flow
from nlflow.grid import RUN_MAX_STEPS, DiscreteOperator, Grid
from nlflow.kernels import KERNEL_FAMILIES, KernelSpec, make_kernel
from nlflow.oscillation import oscillation_decay
from nlflow.potentials import PotentialSpec, make_potential


def test_everything_defaults_to_the_schema():
    cfg = parse_config()
    assert cfg.get("kernel.s") == 1.0
    assert cfg.get("kernel.family") == "power-law"
    assert cfg.get("grid.M") == 256
    assert cfg.get("flow.dt_max") is None
    assert cfg.get("ensemble.seeds") == tuple(range(1, 21))
    assert set(cfg.defaulted) == set(SCHEMA)


# keys every report echoes but nothing reads; removing one changes the
# report bytes the benchmark records, so they wait for its re-record
ECHO_ONLY = {"report.verbosity", "flow.store_states", "flow.stepper",
             "flow.strategy", "initial.seed"}


def test_every_schema_key_is_read():
    package = pathlib.Path(nlflow.__file__).parent
    source = "".join(p.read_text() for p in sorted(package.glob("*.py")))
    unread = {key for key in SCHEMA if not re.search(
        rf'\.get\("{re.escape(key)}"[,)]', source)}
    assert unread == ECHO_ONLY


def test_echo_reports_defaulted_keys():
    cfg = parse_config(overrides=["kernel.s=0.5"])
    echo = cfg.echo()
    assert echo["values"]["kernel.s"] == 0.5
    assert "kernel.s" not in echo["defaulted_keys"]
    assert "grid.M" in echo["defaulted_keys"]
    # tuples render as lists so the echo is json-ready
    assert echo["values"]["ensemble.seeds"] == list(range(1, 21))


def test_infinite_radius_is_allowed_and_rendered():
    cfg = parse_config(overrides=["kernel.radius=inf"])
    assert cfg.get("kernel.radius") == float("inf")
    # an untruncated kernel has no torus-width constraint to violate
    assert cfg.echo()["values"]["kernel.radius"] == "inf"


def test_file_then_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment settings\n"
        "kernel.s = 0.5\n"
        "grid.M = 64   # coarse\n"
        "\n"
        "flow.end = 0.25\n")
    cfg = parse_config(path=str(path), overrides=["grid.M=128"])
    assert cfg.get("kernel.s") == 0.5
    assert cfg.get("grid.M") == 128          # --set wins over the file
    assert cfg.get("flow.end") == 0.25
    assert cfg.sources["kernel.s"] == f"{path}:2"
    assert cfg.sources["grid.M"] == "--set"
    assert cfg.sources["flow.start"] == "default"


def test_unknown_key_suggests_the_nearest():
    with pytest.raises(ConfigError, match="nearest valid key: kernel.s"):
        parse_config(overrides=["kernal.s=1.0"])


def test_all_violations_are_collected():
    with pytest.raises(ConfigError) as err:
        parse_config(overrides=["kernel.s=2.5", "grid.M=4",
                                "flow.stepper=rk4"])
    message = str(err.value)
    assert message.startswith("invalid configuration:")
    assert "kernel.s: order out of (0,2) (got 2.5)" in message
    assert "grid.M: need an integer of at least 8 points per axis (got 4)" \
        in message
    assert "flow.stepper: must be euler (got 'rk4')" in message
    assert len(err.value.errors) == 3


def test_torus_width_must_cover_the_kernel():
    # a rule of the torus a flow runs on: parsing alone builds none
    cfg = parse_config(overrides=["grid.L=5.0"])
    with pytest.raises(ConfigError, match="kernel.radius: torus width 5 must "
                       "exceed twice the truncation radius 3"):
        cfg.check_flow("linear", cfg.make_grid(), 0.0, 0.5)
    # shrinking the radius with the box is fine
    cfg = parse_config(overrides=["grid.L=5.0", "kernel.radius=2.0"])
    assert cfg.check_flow("linear", cfg.make_grid(), 0.0, 0.5) > 0


@pytest.mark.parametrize("radius, key", [("3", "grid.M"),
                                         ("inf", "kernel.radius")])
def test_the_work_rule_plans_no_fewer_updates_than_a_seed_makes(
        radius, key, monkeypatch):
    # check_flow plans steps x kept offsets x nodes at the band's top, which
    # no seed's steps pass; a budget one below the plan refuses the run under
    # the resolution, or the radius of an untruncated kernel
    cfg = parse_config(overrides=["grid.N=2", "grid.M=32", "flow.end=0.1",
                                  "kernel.family=rough-static",
                                  f"kernel.radius={radius}"], seeds="1..3")
    grid = cfg.make_grid()
    monkeypatch.setattr(flow, "RUN_MAX_PAIR_UPDATES", 0)
    with pytest.raises(ConfigError, match=f"{key}: ") as refused:
        cfg.check_flow("linear", grid, 0.0, 0.1)
    steps, kept, nodes, pairs = re.search(
        r"(\d+) steps x (\d+) kept offsets x (\d+) nodes make (\S+) "
        r"pair-updates", str(refused.value)).groups()
    kept_offsets = DiscreteOperator(grid, cfg.make_kernel(seed=1)).deltas
    assert (int(kept), int(nodes)) == (kept_offsets.shape[0], grid.n_nodes)
    assert all(run_flow(cfg.flow_problem(seed)).meta["n_steps"] <= int(steps)
               for seed in (1, 2, 3))
    plan = int(steps) * int(kept) * int(nodes)
    assert float(pairs) == pytest.approx(plan, rel=1e-2)
    monkeypatch.setattr(flow, "RUN_MAX_PAIR_UPDATES", plan)
    assert cfg.check_flow("linear", grid, 0.0, 0.1) > 0
    monkeypatch.setattr(flow, "RUN_MAX_PAIR_UPDATES", plan - 1)
    with pytest.raises(ConfigError, match=f"{key}: {steps} steps"):
        cfg.check_flow("linear", grid, 0.0, 0.1)


def test_the_work_rule_caps_the_steps_of_a_small_grid():
    # an 11-node 1-d flow to t = 1e7 makes 1.3e8 pair-updates, within their
    # budget, yet took 107 s: its 2.4e6 steps are refused under flow.end,
    # and a span that flow.dt_max cuts into too many steps under it
    base = ["grid.M=11", "grid.L=21.7", "kernel.radius=inf",
            "kernel.s=1.18", "kernel.lambda=5.83"]
    cfg = parse_config(overrides=base + ["flow.end=1e7"])
    with pytest.raises(ConfigError, match=r"flow\.end: \d+ steps, above "
                       f"the {RUN_MAX_STEPS} a run may take"):
        cfg.check_flow("linear", cfg.make_grid(), 0.0, 1e7)
    cfg = parse_config(overrides=base + ["flow.end=0.2", "flow.dt_max=1e-6"])
    with pytest.raises(ConfigError, match="flow.dt_max: 200001 steps"):
        cfg.check_flow("linear", cfg.make_grid(), 0.0, 0.2)
    cfg = parse_config(overrides=base + ["flow.end=0.2", "flow.dt_max=1e-5"])
    assert cfg.check_flow("linear", cfg.make_grid(), 0.0, 0.2) == 20000


def test_seed_lists():
    assert parse_seed_list("1..5,9") == (1, 2, 3, 4, 5, 9)
    assert parse_seed_list(" 3 , 5 ") == (3, 5)
    assert parse_seed_list("7") == (7,)
    with pytest.raises(ValueError, match="empty seed range"):
        parse_seed_list("5..3")
    with pytest.raises(ValueError, match="empty seed list"):
        parse_seed_list(",")
    cfg = parse_config(seeds="2..4")
    assert cfg.get("ensemble.seeds") == (2, 3, 4)
    assert cfg.sources["ensemble.seeds"] == "--seed"
    with pytest.raises(ConfigError, match="--seed"):
        parse_config(seeds="five")
    # each seed once, counted after the ranges expand: a repeated seed ran
    # twice and weighed twice in diagnose and calibrate
    for text, seed in (("1,1", 1), ("1..3,2", 2), ("5,2..4,1..2", 2)):
        with pytest.raises(ValueError,
                           match=f"seed {seed} is named more than once"):
            parse_seed_list(text)
    with pytest.raises(ConfigError, match="seed 3 is named more than once"):
        parse_config(overrides=["ensemble.seeds=3..4,3"])
    assert parse_seed_list("4..6,1..3") == (4, 5, 6, 1, 2, 3)


def test_value_kinds():
    assert parse_config(overrides=["flow.dt_max=none"]).get("flow.dt_max") \
        is None
    assert parse_config(overrides=["flow.dt_max=0.01"]).get("flow.dt_max") \
        == 0.01
    assert parse_config(overrides=["flow.store_states=yes"]) \
        .get("flow.store_states") is True
    assert parse_config(overrides=["flow.store_states=off"]) \
        .get("flow.store_states") is False
    with pytest.raises(ConfigError, match="not a boolean"):
        parse_config(overrides=["flow.store_states=maybe"])
    with pytest.raises(ConfigError, match="nan"):
        parse_config(overrides=["kernel.s=nan"])


def test_int_values_are_the_64_bit_integers():
    # every int that fits reaches its owners' rules, grid.M = 2^63 - 1 the
    # run-size rule; past the range the parser refuses before any arithmetic
    cfg = parse_config(overrides=[f"grid.M={2 ** 63 - 1}",
                                  f"initial.seed={-2 ** 63}"])
    assert cfg.get("initial.seed") == -2 ** 63
    with pytest.raises(ConfigError, match=f"on {2 ** 63 - 1} nodes hold"):
        cfg.check_flow("linear", cfg.make_grid(), 0.0, 0.5)
    for value in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(ConfigError, match="grid.M: integer outside the "
                           r"64-bit range \[-2\^63, 2\^63\)"):
            parse_config(overrides=[f"grid.M={value}"])


def test_malformed_lines_are_reported_with_positions(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kernel.s = 0.5\nthis is wrong\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: expected key=value"):
        parse_config(path=str(path))
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(overrides=["noequalsign"])


def test_a_line_that_is_not_utf8_is_a_positioned_error(tmp_path, capsys):
    # the file is read as bytes and each line decoded as UTF-8, whatever the
    # locale: a Latin-1 byte, even inside a comment, joins the other errors
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"grid.M = 64\n# caf\xe9\nkernal.s = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path=str(path))
    assert err.value.errors == [
        f"{path}:2: not UTF-8 text",
        f"{path}:3: unknown key 'kernal.s'; nearest valid key: kernel.s"]
    out = tmp_path / "v"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: not UTF-8 text" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(path="/nonexistent/exp.cfg")


def test_builders_reflect_the_values():
    cfg = parse_config(overrides=["grid.M=64", "kernel.s=0.5",
                                  "potential.lambda=3.0"])
    g = cfg.make_grid()
    assert (g.dimension, g.points_per_axis, g.side_length) == (1, 64, 16.0)
    k = cfg.make_kernel()
    assert k.spec.order == 0.5
    assert k.spec.truncation_radius == 3.0
    pot = cfg.make_potential()
    assert pot.spec.family == "smoothed-huber"
    assert pot.spec.ellipticity == 3.0


def test_flow_problem_runs_end_to_end():
    cfg = parse_config(overrides=["grid.M=32", "flow.end=0.05"])
    problem = cfg.flow_problem(seed=1)
    assert problem.kind == "linear"
    assert problem.potential is None
    traj = run_flow(problem)
    assert traj.times[-1] == 0.05


def test_nonlinear_problem_gets_the_potential():
    cfg = parse_config(overrides=["flow.kind=nonlinear"])
    problem = cfg.flow_problem(seed=1)
    assert problem.potential is not None
    assert problem.potential.spec.family == "smoothed-huber"


def test_seed_threads_through_kernel_and_initial():
    cfg = parse_config(overrides=["kernel.family=rough-static",
                                  "initial.kind=random", "grid.M=32"])
    p3 = cfg.flow_problem(seed=3)
    p4 = cfg.flow_problem(seed=4)
    assert p3.kernel.spec.seed == 3
    assert p4.kernel.spec.seed == 4
    assert not np.array_equal(p3.initial.values, p4.initial.values)
    again = cfg.flow_problem(seed=3)
    assert np.array_equal(p3.initial.values, again.initial.values)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("dimension, points", [(1, 64), (2, 16)])
def test_the_config_counts_the_steps_run_flow_takes(family, dimension,
                                                    points, monkeypatch):
    # the config sizes a run from the kernel's band, with no offset table:
    # run_flow's count for power-law and time-dependent kernels, whose step
    # the band fixes, and at most it for rough-static ones, so that the
    # config refuses no run that run_flow takes
    cases = [[], ["flow.dt_max=0.002"], ["flow.sample_every=3"]]
    if family == "power-law":
        cases += [["flow.kind=nonlinear"]]
    base = [f"kernel.family={family}", f"grid.N={dimension}",
            f"grid.M={points}", "flow.start=-0.05", "flow.end=0.1",
            "kernel.lambda=6", "kernel.epoch=0.05"]
    for extra in cases:
        cfg = parse_config(overrides=base + extra)
        count = cfg.check_flow(cfg.get("flow.kind"), cfg.make_grid(), -0.05,
                               0.1)
        n_steps = run_flow(cfg.flow_problem(seed=3), sample_every=cfg.get(
            "flow.sample_every")).meta["n_steps"]
        assert count <= n_steps, extra
        if family != "rough-static" or extra == ["flow.dt_max=0.002"]:
            assert count == n_steps, extra
    if family == "rough-static":
        # with the cap at what run_flow's run of seed 3 holds, the counts at
        # the band's edges 1/Lambda and Lambda straddle it, and the config
        # counts the seed's own steps from its row sums
        cfg = parse_config(overrides=base + ["ensemble.seeds=3"])
        n_steps = run_flow(cfg.flow_problem(seed=3)).meta["n_steps"]
        n = cfg.make_grid().n_nodes
        monkeypatch.setattr(flow, "RUN_MAX_BYTES",
                            8 * (n * (n_steps + 3) + 7 * (n_steps + 2)))
        assert cfg.check_flow("linear", cfg.make_grid(), -0.05, 0.1) == \
            n_steps
        assert run_flow(cfg.flow_problem(seed=3)).meta["n_steps"] == n_steps


def _problem(**changes):
    g = Grid(1, 16.0, 64)
    args = dict(kind="linear", grid=g, kernel=make_kernel(KernelSpec()),
                initial=make_initial(g, "constant"),
                potential=make_potential(PotentialSpec("smoothed-huber")))
    return FlowProblem(**{**args, **changes})


def _reach(**changes):
    """Raise the first rule a kernel breaks over the default torus and span."""
    raise_first(make_kernel(KernelSpec(**changes)).reach_errors(16.0, 0.5))


def _samples():
    """Zero samples every 1/16 on [-2, 0] of a 1-d grid."""
    g = Grid(1, 16.0, 64)
    return Trajectory.from_fields(g, np.linspace(-2.0, 0.0, 33),
                                  np.zeros((33, g.n_nodes)))


def _operator(strategy, grid=None, **changes):
    grid = grid or Grid(1, 16.0, 64)
    return DiscreteOperator(grid, make_kernel(KernelSpec(
        dimension=grid.dimension, **changes)), strategy)


# one broken value a rule: the overrides, the key and value the config
# reports, and the library call whose constructor or guard owns the rule, or
# the words of a rule the config owns: flow.strategy is an echo that refuses
# any strategy but the banded one every flow steps on
PARITY = {
    "order": (["kernel.s=2.5"], "kernel.s", 2.5,
              lambda: make_kernel(KernelSpec(order=2.5))),
    "kernel-lambda": (["kernel.lambda=inf"], "kernel.lambda", math.inf,
                      lambda: make_kernel(KernelSpec(ellipticity=math.inf))),
    "truncation": (["kernel.radius=0"], "kernel.radius", 0.0,
                   lambda: make_kernel(KernelSpec(truncation_radius=0.0))),
    "kernel-family": (["kernel.family=smooth"], "kernel.family", "smooth",
                      lambda: make_kernel(KernelSpec(family="smooth"))),
    "multiplier": (["kernel.family=rough-static", "kernel.multiplier=0"],
                   "kernel.multiplier", 0.0,
                   lambda: make_kernel(KernelSpec(multiplier=0.0))),
    "power-law-band": (["kernel.multiplier=4.0"], "kernel.multiplier", 4.0,
                       lambda: make_kernel(KernelSpec(multiplier=4.0))),
    "cell": (["kernel.cell=0"], "kernel.cell", 0.0,
             lambda: make_kernel(KernelSpec(cell_size=0.0))),
    "epoch": (["kernel.epoch=-1"], "kernel.epoch", -1.0,
              lambda: make_kernel(KernelSpec(epoch_length=-1.0))),
    "potential-family": (["potential.family=tv"], "potential.family", "tv",
                         lambda: make_potential(PotentialSpec("tv"))),
    "potential-lambda": (["potential.lambda=1"], "potential.lambda", 1.0,
                         lambda: make_potential(PotentialSpec(
                             "quadratic", 1.0))),
    "dimension": (["grid.N=3"], "grid.N", 3, lambda: Grid(3, 16.0, 64)),
    "points": (["grid.M=4"], "grid.M", 4, lambda: Grid(1, 16.0, 4)),
    "side": (["grid.L=inf", "kernel.radius=inf"], "grid.L", math.inf,
             lambda: Grid(1, math.inf, 64)),
    "strategy": (["flow.strategy=fft"], "flow.strategy", "fft",
                 "must be banded"),
    "torus": (["grid.L=5"], "kernel.radius", 3.0,
              lambda: _operator("banded", Grid(1, 5.0, 256))),
    "initial-kind": (["initial.kind=wave"], "initial.kind", "wave",
                     lambda: make_initial(Grid(), "wave")),
    "sigma": (["initial.sigma=0"], "initial.sigma", 0.0,
              lambda: make_initial(Grid(), "bump", sigma=0.0)),
    "radius": (["initial.radius=-1"], "initial.radius", -1.0,
               lambda: make_initial(Grid(), "step", radius=-1.0)),
    "flow-kind": (["flow.kind=parabolic"], "flow.kind", "parabolic",
                  lambda: _problem(kind="parabolic")),
    "start": (["flow.start=-inf"], "flow.start", -math.inf,
              lambda: _problem(t_start=-math.inf)),
    "end": (["flow.end=inf"], "flow.end", math.inf,
            lambda: _problem(t_end=math.inf)),
    "span": (["flow.end=-1"], "flow.end", -1.0,
             lambda: _problem(t_start=0.0, t_end=-1.0)),
    "denoise-time": (["denoise.time=0"], "denoise.time", 0.0,
                     lambda: _problem(t_start=0.0, t_end=0.0)),
    "dt-max": (["flow.dt_max=-0.1"], "flow.dt_max", -0.1,
               lambda: run_flow(_problem(dt_max=-0.1))),
    "span-overflow": (["flow.start=-1e308", "flow.end=1e308"], "flow.end",
                      1e308, lambda: _problem(t_start=-1e308, t_end=1e308)),
    "step-times": (["grid.M=64", "flow.start=1e15",
                    "flow.end=1000000000000000.5"], "flow.start", 1e15,
                   lambda: run_flow(_problem(t_start=1e15, t_end=1e15 + 0.5))),
    # where a kernel is evaluated: validate's samples, the torus and the span
    "sampled-values": (["kernel.radius=1e-200"], "kernel.radius", 1e-200,
                       lambda: _reach(truncation_radius=1e-200)),
    "sampled-peak": (["kernel.family=rough-static", "kernel.lambda=1e307"],
                     "kernel.lambda", 1e307, lambda: _reach(
                         family="rough-static", ellipticity=1e307)),
    "cell-index": (["kernel.family=rough-static", "kernel.cell=1e-300"],
                   "kernel.cell", 1e-300, lambda: _reach(
                       family="rough-static", cell_size=1e-300)),
    "epoch-index": (["kernel.family=rough-time-dependent",
                     "kernel.epoch=1e-300"], "kernel.epoch", 1e-300,
                    lambda: _reach(family="rough-time-dependent",
                                   epoch_length=1e-300)),
    "sample-every": (["flow.sample_every=0"], "flow.sample_every", 0,
                     lambda: run_flow(_problem(), sample_every=0)),
    "k-max": (["diagnose.k_max=0"], "diagnose.k_max", 0,
              lambda: truncated_energies(_samples(), k_max=0)),
    "levels": (["diagnose.levels=2"], "diagnose.levels", 2,
               lambda: oscillation_decay(None, scale=0.65, levels=2)),
    "scale": (["diagnose.scale=1.5"], "diagnose.scale", 1.5,
              lambda: oscillation_decay(None, scale=1.5, levels=4)),
    # the rules `check_flow` asks of a flow the config accepts
    "neighbor": (["grid.M=8", "kernel.radius=1"], "kernel.radius", 1.0,
                 lambda: _operator("banded", Grid(1, 16.0, 8),
                                   truncation_radius=1.0)),
    "envelope-underflow": (["grid.L=1e300", "grid.M=16", "kernel.radius=inf"],
                           "grid.L", 1e300, lambda: _operator(
                               "banded", Grid(1, 1e300, 16),
                               truncation_radius=math.inf)),
    "envelope-overflow": (["grid.L=1e-300", "grid.M=16", "kernel.radius=inf"],
                          "grid.L", 1e-300, lambda: _operator(
                              "banded", Grid(1, 1e-300, 16),
                              truncation_radius=math.inf)),
    "run-size": (["grid.M=64", "flow.end=1", "flow.dt_max=1e-300"],
                 "flow.dt_max", 1e-300,
                 lambda: run_flow(_problem(dt_max=1e-300))),
    "run-steps": (["flow.end=1e6"], "flow.end", 1e6,
                  lambda: run_flow(FlowProblem(
                      "linear", Grid(), make_kernel(KernelSpec()),
                      make_initial(Grid(), "constant"), t_end=1e6))),
    "nonlinear-strategy": (["flow.kind=nonlinear", "flow.strategy=dense"],
                           "flow.strategy", "dense", "must be banded"),
    "nonlinear-family": (["flow.kind=nonlinear",
                          "kernel.family=rough-static"], "kernel.family",
                         "rough-static", lambda: _problem(
                             kind="nonlinear", kernel=make_kernel(
                                 KernelSpec(family="rough-static")))),
}


@pytest.mark.parametrize("sets, key, value, build", PARITY.values(),
                         ids=PARITY.keys())
def test_the_config_reports_each_rule_in_its_owners_words(sets, key, value,
                                                          build):
    # the config states no rule itself but flow.strategy's: its line for the
    # key is the owning module's message, under the key, with the value it
    # read
    if isinstance(build, str):
        words = build
    else:
        with pytest.raises(NlflowError) as owner:
            build()
        words = owner.value
    lines = []
    try:
        cfg = parse_config(overrides=sets)
        cfg.check_flow(cfg.get("flow.kind"), cfg.make_grid(),
                       cfg.get("flow.start"), cfg.get("flow.end"))
    except ConfigError as exc:
        lines = exc.errors
    assert f"{key}: {words} (got {value!r})" in lines

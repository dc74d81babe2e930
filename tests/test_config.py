"""Config parsing: defaults, overrides, collected errors, builders."""

import pathlib

import numpy as np
import pytest

import nlflow
from nlflow.config import SCHEMA, parse_config, parse_seed_list
from nlflow.errors import ConfigError
from nlflow.flow import run_flow


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
ECHO_ONLY = {"report.verbosity", "flow.store_states"}


def test_every_schema_key_is_read():
    package = pathlib.Path(nlflow.__file__).parent
    source = "".join(p.read_text() for p in sorted(package.glob("*.py")))
    unread = {key for key in SCHEMA if f'.get("{key}")' not in source}
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
    assert "grid.M: need at least 8 points per axis (got 4)" in message
    assert "flow.stepper: expected euler or heun (got 'rk4')" in message
    assert len(err.value.errors) == 3


def test_torus_width_must_cover_the_kernel():
    with pytest.raises(ConfigError, match="twice the kernel radius 3.0"):
        parse_config(overrides=["grid.L=5.0"])
    # shrinking the radius with the box is fine
    cfg = parse_config(overrides=["grid.L=5.0", "kernel.radius=2.0"])
    assert cfg.get("grid.L") == 5.0


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


def test_malformed_lines_are_reported_with_positions(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("kernel.s = 0.5\nthis is wrong\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: expected key=value"):
        parse_config(path=str(path))
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(overrides=["noequalsign"])


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
    problem = cfg.flow_problem()
    assert problem.kind == "linear"
    assert problem.potential is None
    traj = run_flow(problem)
    assert traj.times[-1] == 0.05


def test_nonlinear_problem_gets_the_potential():
    cfg = parse_config(overrides=["flow.kind=nonlinear"])
    problem = cfg.flow_problem()
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

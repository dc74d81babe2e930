"""End-to-end CLI checks: exit codes, report files, deterministic reruns."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nlflow
from conftest import DISSIPATION_SEEDS, cached_calibration_runs, \
    cached_dissipation_run, cached_oscillation_run, cached_recurrence_run, \
    constant_trajectory, dissipation_sets
from nlflow import flow
from nlflow.calibrate import CAP, CALIBRATION_SEEDS, _largest_budget, \
    calibrate_constants, default_calibration, load_calibration, \
    save_calibration
from nlflow.cli import _dissipation_record, main
from nlflow.config import MAX_SEEDS, SCHEMA, parse_config
from nlflow.degiorgi import truncated_energies, verify_corollary2, \
    verify_lemma1, verify_lemma2
from nlflow.ensembles import MAX_K
from nlflow.errors import ConfigError, NlflowError
from nlflow.fieldio import load_field, save_field
from nlflow.fields import INITIAL_KINDS
from nlflow.flow import run_flow
from nlflow.grid import COUNTERS, Field, Grid
from nlflow.kernels import KERNEL_FAMILIES, kernel_epoch
from nlflow.oscillation import oscillation_decay, verify_lemma3
from nlflow.potentials import POTENTIAL_FAMILIES


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def noisy_image(path, m=32, seed=5):
    """A smooth blob plus uniform noise, quantized to 8-bit levels."""
    g = Grid(dimension=2, side_length=16.0, points_per_axis=m)
    x = g.node_coords()
    r2 = (x[:, 0] - 8.0) ** 2 + (x[:, 1] - 8.0) ** 2
    base = 0.25 + 0.5 * np.exp(-r2 / 8.0)
    rng = np.random.default_rng(seed)
    vals = np.clip(base + rng.uniform(-0.1, 0.1, g.n_nodes), 0.0, 1.0)
    field = Field(g, np.round(vals * 255.0) / 255.0)
    save_field(field, str(path))
    return field


# ---------------------------------------------------------------------------
# validate

def test_validate_writes_a_report(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["validate", "--out", str(out), "--set", "grid.M=64"])
    assert rc == 0
    report = read_report(out)
    assert report["command"] == "validate"
    assert report["version"] == nlflow.__version__
    assert report["passed"] is True
    assert all(report["checks"].values())
    assert "grid.M" not in report["config"]["defaulted_keys"]
    assert "kernel.s" in report["config"]["defaulted_keys"]
    timings = json.loads((out / "timings.json").read_text())
    assert timings["wall_clock_seconds"] >= 0.0
    assert "validate: pass" in capsys.readouterr().out


@pytest.mark.parametrize("multiplier", ["0.5", "2.0"])
def test_validate_accepts_the_multiplier_band_edges(tmp_path, multiplier):
    # a power-law multiplier on an edge of [Lambda^-1/2, Lambda^1/2] passes
    # the measured envelope check; one past it is refused at config time
    out = tmp_path / "v"
    assert main(["validate", "--out", str(out),
                 "--set", f"kernel.multiplier={multiplier}"]) == 0
    assert read_report(out)["checks"]["kernel_envelope"] is True


@pytest.mark.parametrize("lam", [30.0, 100.0])
def test_validate_resolves_a_large_potential_lambda(tmp_path, capsys, lam):
    # the difference check's truncation error grows with Lambda; its step
    # shrinks with it, and the tolerance stays 1e-6
    out = tmp_path / "v"
    assert main(["validate", "--out", str(out),
                 "--set", f"potential.lambda={lam}"]) == 0
    potential = read_report(out)["potential"]
    assert potential["max_fd_defect"] <= 1e-6
    assert potential["fd_step"] < 1e-3


@pytest.mark.parametrize("family, radius", [
    (family, radius) for family in KERNEL_FAMILIES
    for radius in ("5e-4", "1e-150", "inf")] + [("power-law", "1e30")])
def test_validate_grades_any_radius_it_takes(tmp_path, family, radius):
    # the separations run from a thousandth of min(r, 1) up to r, from points
    # within 32 of 0: a radius below 1e-3 crashed, and 1e30 failed the band
    # (a rough kernel's cells at 1e30 leave int64, and are refused); a finite
    # radius gets a torus wider than twice it, and inf the default torus,
    # as validate builds none and checks no pair beyond the radius
    out = tmp_path / "v"
    torus = [] if radius == "inf" else [
        "--set", f"grid.L={max(16.0, 4.0 * float(radius))}"]
    assert main(["validate", "--out", str(out), *torus,
                 "--set", f"kernel.radius={radius}",
                 "--set", f"kernel.family={family}"]) == 0
    assert read_report(out)["passed"] is True


def test_bad_config_exits_2(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["validate", "--out", str(out), "--set", "kernel.s=2.5"])
    assert rc == 2
    assert "order out of (0,2)" in capsys.readouterr().err
    assert not out.exists()          # nothing written on a usage error


# input files every refusal case finds in its tmp_path, named as {tmp}/NAME
BAD_INPUTS = {"cut.json": "{", "list.json": "[]", "taken": "",
              "tiny.pgm": "P5\n8 8\n255\n" + "\0" * 64,
              "narrow.csv": "# nlflow field N=1 M=8 L=4.0\n" + "0.5\n" * 8}


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--set", "grid.N=2"],
     "grid.N: not read by this command (got 2)"),
    (["calibrate", "--set", "kernel.s=1.5", "--seed", "1"],
     "kernel.s: not read by this command (got 1.5)"),
    (["diagnose", "--set", "grid.N=2", "--seed", "1"],
     "grid.N: not read by this command (got 2)"),
    (["diagnose", "--set", "kernel.s=1.5", "--seed", "1"],
     "kernel.s: not read by this command (got 1.5)"),
    (["diagnose", "--seed", "1", "--set", "kernel.lambda=9"],
     "kernel.lambda: not read by this command (got 9.0)"),
    (["calibrate", "--set", "grid.M=128"],
     "grid.M: not read by this command (got 128)"),
    (["diagnose", "--seed", "1", "--set", "flow.store_states=true"],
     "flow.store_states: not read by this command (got True)"),
    (["diagnose", "--seed", "1", "--set", {"order": 1.5}],
     "calibration.file order must be 1"),
    (["diagnose", "--seed", "1", "--set", {"dimension": 2}],
     "calibration.file dimension must be 1"),
    (["run", "--set", "flow.kind=nonlinear",
      "--set", "kernel.family=rough-static"], "power-law kernel family"),
    (["run", "--set", "flow.strategy=spectral"],
     "flow.strategy: must be banded (got 'spectral')"),
    (["diagnose", "--seed", "1", "--set", "calibration.file={tmp}/no.json"],
     "cannot read calibration file"),
    (["diagnose", "--seed", "1", "--set", "calibration.file={tmp}/cut.json"],
     "cannot read calibration file"),
    (["diagnose", "--seed", "1", "--set", "calibration.file={tmp}/list.json"],
     "holds no JSON object"),
    (["denoise", "--set", "denoise.input={tmp}"], "is not a file"),
    (["diagnose", "--seed", "1", "--out", "{tmp}/taken"],
     "cannot create output directory"),
    (["diagnose", "--seed", "1", "--set", "diagnose.k_max=7"],
     "at most 6 rungs"),
    (["diagnose", "--seed", "1", "--set", "diagnose.levels=5"],
     "innermost cylinder"),
    (["diagnose", "--seed", "1", "--set", "diagnose.scale=0.3"],
     "innermost cylinder"),
    (["run", "--seed", "1", "--set", "grid.M=8", "--set", "kernel.radius=1.0"],
     "no lattice neighbor"),
    (["denoise", "--set", "denoise.input={tmp}/tiny.pgm",
      "--set", "kernel.radius=1.0"], "no lattice neighbor"),
    (["denoise", "--set", "denoise.input={tmp}/narrow.csv"],
     "kernel.radius: torus width 4 must exceed twice the truncation radius"),
    (["denoise", "--set", "denoise.input={tmp}/tiny.pgm",
      "--set", "flow.strategy=dense"],
     "flow.strategy: must be banded (got 'dense')"),
    (["run", "--seed", "1", "--set", "flow.kind=nonlinear",
      "--set", "flow.strategy=dense"],
     "flow.strategy: must be banded (got 'dense')"),
    (["run", "--seed", "1", "--set", "flow.strategy=dense", "--set",
      "grid.N=2", "--set", "grid.M=65"],
     "flow.strategy: must be banded (got 'dense')"),
    (["validate", "--set", "kernel.multiplier=4.0"], "[0.5, 2]"),
    (["validate", "--set", "kernel.multiplier=0.25"], "[0.5, 2]"),
    (["validate", "--set", "kernel.multiplier=100.0"], "kernel.multiplier"),
    (["run", "--seed", "1", "--set", "kernel.multiplier=4.0"], "[0.5, 2]"),
    (["denoise", "--set", "denoise.input={tmp}/tiny.pgm",
      "--set", "kernel.multiplier=0.25"], "[0.5, 2]"),
    (["run", "--seed", "1", "--set", "initial.amplitude=1e200"],
     "initial.amplitude"),
    (["validate", "--set", "initial.amplitude=-6e99",
      "--set", "initial.shift=5e99"], "at most 1e100"),
    (["run", "--seed", "1", "--set", "flow.end=inf"],
     "flow.end: end time must be finite"),
    (["run", "--seed", "1", "--set", "flow.start=-inf"],
     "flow.start: start time must be finite"),
    (["denoise", "--set", "denoise.input={tmp}/tiny.pgm",
      "--set", "denoise.time=inf"], "denoise.time: end time must be finite"),
    (["run", "--seed", "1", "--set", "flow.kind=nonlinear",
      "--set", "potential.lambda=inf"],
     "potential.lambda: ellipticity must be finite"),
    (["validate", "--set", "potential.lambda=inf"],
     "potential.lambda: ellipticity must be finite"),
    (["run", "--seed", "1", "--set", "kernel.family=rough-static",
      "--set", "kernel.lambda=inf", "--set", "grid.M=32"],
     "kernel.lambda: ellipticity must be finite"),
    (["run", "--seed", "1", "--set", "kernel.lambda=inf"],
     "kernel.lambda: ellipticity must be finite"),
    (["run", "--seed", "1", "--set", "kernel.radius=inf",
      "--set", "grid.L=inf", "--set", "grid.M=16"],
     "grid.L: side length must be finite"),
    (["diagnose", "--seed", "1", "--set", {"eps0": 0.0}],
     "calibration.file eps0 must be positive (got 0.0)"),
    (["diagnose", "--seed", "1", "--set", {"delta": -1.0}],
     "calibration.file delta must be positive"),
    (["diagnose", "--seed", "1", "--set", {"mu": 0.0}],
     "calibration.file mu must be positive"),
    (["diagnose", "--seed", "1", "--set", {"gamma": 0.0}],
     "calibration.file gamma must be positive"),
    (["diagnose", "--seed", "1", "--set", {"eps": 0.0}],
     "calibration.file eps must be positive"),
    (["diagnose", "--seed", "1", "--set", {"lam": 0.5}],
     "calibration.file lam must lie in (0, 1/3) (got 0.5)"),
    (["diagnose", "--seed", "1", "--set", {"lam_star": 1.5}],
     "calibration.file lam_star must lie in (0, 1)"),
    (["diagnose", "--seed", "1", "--set", {"eps0": None}],
     "calibration.file eps0 must be positive (got None)"),
    # each field holds its declared type: these ran to exit 0 and reached
    # report.json
    (["diagnose", "--seed", "1", "--set", {"k0": "x"}],
     "calibration.file k0 must be of type int (got 'x')"),
    (["diagnose", "--seed", "1", "--set", {"cbar": "x"}],
     "calibration.file cbar must be of type float (got 'x')"),
    (["diagnose", "--seed", "1", "--set", {"k_sc": None}],
     "calibration.file k_sc must be of type float (got None)"),
    (["diagnose", "--seed", "1", "--set", {"eps0_capped": 3}],
     "calibration.file eps0_capped must be of type bool (got 3)"),
    (["run", "--seed", "1", "--set", "grid.L=1e300",
      "--set", "kernel.radius=inf", "--set", "grid.M=16"],
     "grid.L: the kernel envelope"),
    (["run", "--seed", "1", "--set", "grid.L=1e-300",
      "--set", "kernel.radius=inf", "--set", "grid.M=16"],
     "grid.L: the kernel envelope"),
    (["run", "--seed", "1", "--set", "flow.dt_max=1e-300"],
     "flow.dt_max: 5e+299 steps on 256 nodes"),
    (["run", "--seed", "1", "--set", "flow.start=-1e308",
      "--set", "flow.end=1e308"], "by a finite span"),
    (["validate", "--set", "grid.M=1" + "0" * 400],
     "grid.M: integer outside the 64-bit range"),
    (["run", "--seed", "1", "--set", "grid.M=1" + "0" * 400],
     "grid.M: integer outside the 64-bit range"),
    (["run", "--seed", "1", "--set", "flow.sample_every=" + str(10 ** 20)],
     "flow.sample_every: integer outside the 64-bit range"),
    (["diagnose", "--seed", "1", "--set", "diagnose.levels=1" + "0" * 400],
     "diagnose.levels: integer outside the 64-bit range"),
    (["run", "--seed", "1", "--set", "grid.M=200000",
      "--set", "kernel.family=rough-static"],
     "grid.M: the rough-static kernel's per-node offset table takes up to "
     "55.9 GiB on 200000 nodes"),
    (["run", "--seed", "1", "--set", "grid.L=5e-324",
      "--set", "kernel.radius=inf", "--set", "grid.M=16"],
     "grid.L: the spacing L/M must be a normal float"),
    (["denoise", "--set", "denoise.input={tmp}/tiny.pgm",
      "--set", "denoise.time=1e12"], "denoise.time: 3.01e+12 steps on 64 "
     "nodes"),
    # the band's edges straddle the cap: the seed's own row sums count it
    (["run", "--seed", "1", "--set", "kernel.family=rough-static",
      "--set", "flow.end=50000"], "flow.end: 5.22e+06 steps on 256 nodes"),
    # the counts of the band, 36,096 and 577,535 steps, straddle it: one
    # offset table a seed (~1.2 ms) came before the refusal, two minutes of
    # tables for these seeds; seed 1's count breaks the rule
    (["run", "--seed", "1..100000", "--set", "kernel.family=rough-static",
      "--set", "flow.end=5000"], "flow.end: 5.22e+05 steps on 256 nodes"),
    # a seed range is counted before it is expanded: validate reads no seed,
    # yet 1..10^10 ran out of memory, and past 2^63 seeds expanding overflowed
    (["validate", "--seed", f"1..{10 ** 28}"],
     f"--seed '1..{10 ** 28}': {10 ** 28} seeds, more than the {MAX_SEEDS}"),
    (["validate", "--seed", f"0..{MAX_SEEDS}"],
     f"{MAX_SEEDS + 1} seeds, more than the {MAX_SEEDS} a list may name"),
    # a repeated seed ran twice and counted twice in every verdict tally
    (["diagnose", "--seed", "1,1"],
     "--seed '1,1': seed 1 is named more than once"),
    (["run", "--seed", "1", "--set", "flow.stepper=heun"],
     "flow.stepper: must be euler"),
    # validate samples separations down to a thousandth of the radius: below
    # 1e-3 it crashed, and past the floats its kernel values overflow
    (["validate", "--set", "kernel.radius=1e-200"], "kernel.radius: the "
     "kernel values at separations down to 1e-203 must be normal floats"),
    (["validate", "--set", "kernel.family=rough-static",
      "--set", "kernel.lambda=1e307"], "kernel.lambda: the kernel values"),
    # the rough kernels' int64 cell and epoch indices overflowed to -2^63;
    # validate samples coordinates up to 21 and times up to 1, and a run
    # reaches its torus and span too: epochs of 1e-18 leave int64 by t = 100
    (["run", "--seed", "1", "--set", "kernel.family=rough-static",
      "--set", "kernel.cell=1e-300"], "kernel.cell: the cell indices of "
     "coordinates up to 21 must lie in int64"),
    (["run", "--seed", "1", "--set", "kernel.family=rough-time-dependent",
      "--set", "kernel.epoch=1e-18", "--set", "flow.end=100"],
     "kernel.epoch: the epoch indices of times up to 100 must lie in int64"),
    (["validate", "--set", "kernel.family=rough-static",
      "--set", "kernel.cell=1e-300"], "kernel.cell: the cell indices"),
    (["validate", "--set", "kernel.family=rough-time-dependent",
      "--set", "kernel.epoch=1e-300"], "kernel.epoch: the epoch indices of "
     "times up to 1 must lie in int64"),
    # steps below the float spacing at t gave repeated step times (exit 3)
    (["run", "--seed", "1", "--set", "flow.start=1e15",
      "--set", "flow.end=1000000000000000.5"],
     "flow.start: steps of 0.0333 must exceed 4 float spacings at t, 0.5 "
     "(got 1000000000000000.0)"),
    # a 2-d run at the default M = 256 updates 9.45e9 pairs (~25 s), and
    # every offset of the torus at radius inf 8.59e10 (minutes)
    (["run", "--seed", "1", "--set", "grid.N=2"],
     "grid.M: 40 steps x 3606 kept offsets x 65536 nodes make 9.45e+09 "
     "pair-updates, above the 1.07e+09 a run may take (got 256)"),
    (["run", "--seed", "1", "--set", "grid.N=2", "--set", "kernel.radius=inf"],
     "kernel.radius: 40 steps x 32769 kept offsets x 65536 nodes make "
     "8.59e+10 pair-updates, above the 1.07e+09 a run may take (got inf)"),
], ids=["calibrate-2d", "calibrate-order", "diagnose-2d", "diagnose-order",
        "diagnose-kernel-lambda", "calibrate-grid-m", "diagnose-store-states",
        "diagnose-calibration-order", "diagnose-calibration-2d",
        "nonlinear-rough", "spectral-truncated",
        "calibration-missing", "calibration-truncated", "calibration-list",
        "denoise-directory", "out-is-a-file", "diagnose-k-max",
        "diagnose-levels", "diagnose-scale", "run-radius-below-spacing",
        "denoise-radius-below-spacing", "denoise-torus-narrower-than-radius",
        "denoise-dense", "nonlinear-dense", "dense-over-cap",
        "validate-multiplier-4", "validate-multiplier-0.25",
        "validate-multiplier-100", "run-multiplier-4",
        "denoise-multiplier-0.25", "amplitude-1e200",
        "amplitude-plus-shift", "run-end-inf", "run-start-minus-inf",
        "denoise-time-inf", "nonlinear-potential-lambda-inf",
        "validate-potential-lambda-inf", "rough-kernel-lambda-inf",
        "power-law-kernel-lambda-inf", "untruncated-side-length-inf",
        "calibration-eps0", "calibration-delta", "calibration-mu",
        "calibration-gamma", "calibration-eps", "calibration-lam",
        "calibration-lam-star", "calibration-eps0-null", "calibration-k0-str",
        "calibration-cbar-str", "calibration-k-sc-null",
        "calibration-flag-int", "envelope-underflow",
        "envelope-overflow", "run-dt-max-tiny", "run-span-overflow",
        "validate-int-over-64-bit", "run-int-over-64-bit",
        "sample-every-over-64-bit", "diagnose-levels-over-64-bit",
        "rough-offset-table-over-cap", "spacing-underflow",
        "denoise-too-long", "rough-static-too-long",
        "rough-static-too-long-over-many-seeds", "seeds-past-any-memory",
        "seeds-one-past-the-bound", "seeds-named-twice", "stepper-heun",
        "validate-radius-tiny",
        "validate-lambda-past-the-floats", "run-cell-past-int64",
        "run-epoch-past-int64", "validate-cell-past-int64",
        "validate-epoch-past-int64", "run-start-far-from-0",
        "2d-work-over-the-budget", "2d-untruncated-work-over-the-budget"])
def test_unsupported_config_exits_2(tmp_path, capsys, argv, message):
    # refused before any work, not aborted later with exit 1 or 3: at most
    # the offset table of the one seed whose step count breaks a rule (main
    # zeroes the counters); a dict in argv stands for a calibration file with
    # those entries changed, and {tmp} for the directory holding BAD_INPUTS
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [item.format(tmp=tmp_path) if isinstance(item, str) else item
            for item in argv]
    for i, item in enumerate(argv):
        if isinstance(item, dict):
            path = tmp_path / "calibration.json"
            save_calibration(dataclasses.replace(default_calibration(),
                                                 **item), str(path))
            argv[i] = f"calibration.file={path}"
    out = tmp_path / "x"
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert COUNTERS["offset_table_builds"] <= 1


@pytest.mark.parametrize("setting", [
    ["--set", "flow.kind=nonlinear", "--set", "kernel.family=rough-static"],
    ["--set", "grid.L=5"],
    ["--set", "grid.L=1e31", "--set", "kernel.radius=5e-4",
     "--set", "kernel.family=rough-static"],
    ["--set", "kernel.family=rough-time-dependent",
     "--set", "kernel.epoch=1e-18", "--set", "flow.end=100"],
], ids=["nonlinear-rough", "torus-narrower-than-radius",
        "torus-cells-past-int64", "span-epochs-past-int64"])
def test_flow_refusals_leave_validate_alone(tmp_path, capsys, setting):
    # validate builds no flow, torus or span, so the rules of those pass
    # through it: a torus narrower than twice the radius, cells over a 1e31
    # torus and epochs over a span to 100 leave int64 only in a run
    assert main(["validate", "--out", str(tmp_path / "v")] + setting) == 0


# a value other than the default of every schema key, valid but for
# flow.stepper and flow.strategy, which have none
OTHER_VALUES = {
    "kernel.family": "rough-static", "kernel.s": 0.5, "kernel.lambda": 9.0,
    "kernel.radius": 2.0, "kernel.seed": 5, "kernel.multiplier": 1.5,
    "kernel.cell": 0.5, "kernel.epoch": 0.05, "potential.family": "quadratic",
    "potential.lambda": 8.0, "grid.N": 2, "grid.M": 12, "grid.L": 12.0,
    "initial.kind": "step", "initial.amplitude": 0.5, "initial.sigma": 1.0,
    "initial.radius": 2.0, "initial.mode": 2, "initial.shift": 0.25,
    "initial.seed": 5, "flow.kind": "nonlinear", "flow.start": -0.02,
    "flow.end": 0.03, "flow.stepper": "heun", "flow.strategy": "dense",
    "flow.dt_max": 0.01, "flow.sample_every": 2, "flow.store_states": True,
    "ensemble.seeds": "2", "diagnose.k_max": 5, "diagnose.levels": 3,
    "diagnose.scale": 0.8, "denoise.input": "other.pgm",
    "denoise.time": 0.05, "output.dir": "elsewhere",
    "calibration.file": "other.json", "report.verbosity": 2,
}


def test_a_key_named_unread_leaves_the_report_alone(tmp_path, capsys):
    # each key a command names as unread at another value leaves every
    # report entry but the config echo as the default's, byte for byte
    assert set(OTHER_VALUES) == set(SCHEMA)
    noisy_image(tmp_path / "noisy.pgm", m=16)
    commands = {
        "validate": ["validate", "--set", "grid.M=16"],
        "run": ["run", "--seed", "1", "--set", "grid.M=16",
                "--set", "flow.end=0.05"],
        "denoise": ["denoise", "--set",
                    f"denoise.input={tmp_path / 'noisy.pgm'}"]}
    named = {}
    for command, argv in commands.items():
        reports = {}
        for key in [None, *SCHEMA]:
            out = tmp_path / f"{command}-{key}"
            sets = [] if key is None else [
                "--set", f"{key}={OTHER_VALUES[key]}"]
            rc = main(argv + sets + ["--out", str(out)])
            if key is None or f"note: {key}: not read" in \
                    capsys.readouterr().err:
                assert rc == 0, (command, key)
                report = read_report(out)
                del report["config"]
                reports[key] = json.dumps(report)
        named[command] = set(reports) - {None}
        for key in named[command]:
            assert reports[key] == reports[None], (command, key)
    assert {"kernel.seed", "initial.seed"} <= named["run"]
    assert {"grid.N", "grid.M", "grid.L", "flow.kind"} <= named["denoise"]
    assert {"flow.kind", "initial.kind"} <= named["validate"]


# keys that one kernel family or initial kind reads and the others ignore
FAMILY_KEYS = ("kernel.lambda", "kernel.multiplier", "kernel.seed",
               "kernel.cell", "kernel.epoch", "initial.seed", "initial.sigma",
               "initial.radius", "initial.mode")


@pytest.mark.parametrize("command, family, kind, read", [
    ("run", "power-law", "bump", {"kernel.multiplier", "initial.sigma"}),
    ("run", "rough-static", "step",
     {"kernel.lambda", "kernel.cell", "initial.radius"}),
    ("run", "rough-time-dependent", "cosine",
     {"kernel.lambda", "kernel.cell", "kernel.epoch", "initial.mode"}),
    ("run", "power-law", "random", {"kernel.multiplier"}),
    ("denoise", "power-law", "bump", {"kernel.multiplier"}),
], ids=["run-power-law-bump", "run-rough-static-step",
        "run-time-dependent-cosine", "run-power-law-random", "denoise"])
def test_a_key_is_named_unread_exactly_when_its_problem_ignores_it(
        tmp_path, capsys, command, family, kind, read):
    # every one of the keys is set away from its default: the ignored ones
    # are named and change no report entry, and each read one changes some;
    # run takes its seeds from --seed, denoise its data from the file
    noisy_image(tmp_path / "noisy.pgm", m=16)
    argv = {"run": ["run", "--seed", "1", "--set", "grid.M=32", "--set",
                    "flow.end=0.15"],
            "denoise": ["denoise", "--set",
                        f"denoise.input={tmp_path / 'noisy.pgm'}"]}[command]
    argv += ["--set", f"kernel.family={family}", "--set",
             f"initial.kind={kind}"]

    def report(*keys):
        out = tmp_path / f"out-{len(os.listdir(tmp_path))}"
        sets = [a for key in keys
                for a in ("--set", f"{key}={OTHER_VALUES[key]}")]
        assert main(argv + sets + ["--out", str(out)]) == 0
        err = capsys.readouterr().err
        named = {key for key in FAMILY_KEYS if f"note: {key}: not read" in err}
        body = read_report(out)
        del body["config"]
        return named, body

    named, every = report(*FAMILY_KEYS)
    assert named == set(FAMILY_KEYS) - read
    assert every == report(*read)[1]
    base = report()[1]
    for key in read:
        assert report(key)[1] != base, key


def test_runtime_abort_exits_3(tmp_path, capsys):
    # a P5 file whose pixel data stops short passes config checks and fails
    # when it is read; an abort writes no report, so the output directory
    # it made goes again
    src = tmp_path / "short.pgm"
    src.write_bytes(b"P5\n8 8\n255\n\x01\x02\x03")
    rc = main(["denoise", "--out", str(tmp_path / "n"),
               "--set", f"denoise.input={src}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "aborted" in err
    assert "expected 64 pixel bytes, found 3" in err
    assert not (tmp_path / "n").exists()


def test_a_run_too_long_to_hold_aborts_before_it_allocates(tmp_path,
                                                           capsys):
    # the stable step, not flow.dt_max, sets this run's 2.9e7 steps: the
    # config counts them from the kernel's band and refuses them before any
    # output, where numpy was once asked for 55 GiB; a rough kernel's count
    # is a lower bound, which still refuses
    for family, steps in (("power-law", "2.89e+07"),
                          ("rough-static", "7.22e+06")):
        out = tmp_path / family
        rc = main(["run", "--seed", "1", "--set", "flow.end=1e6", "--set",
                   f"kernel.family={family}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"flow.end: {steps} steps on 256 nodes" in err
        assert "above the 1 GiB a run may take" in err
        assert "flow.dt_max" not in err and "Traceback" not in err
        assert not out.exists()
    # no more nodes than one step fits: refused under grid.M at once
    assert main(["run", "--seed", "1", "--set", "grid.M=4611686018427387904",
                 "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "grid.M: 1 steps on 4611686018427387904 nodes" in err
    assert "flow.dt_max" not in err and "0 steps" not in err
    assert not (tmp_path / "m").exists()


# a broken value of each calibrated constant, and a detector that reads it
CONSTANT_OWNERS = {
    "eps0": (0.0, lambda traj, v: verify_lemma1(traj, eps0=v)),
    "delta": (-1.0, lambda traj, v: verify_corollary2(traj, delta=v)),
    "mu": (0.0, lambda traj, v: verify_lemma2(
        traj, mu=v, delta=0.5, gamma=0.5, lam=0.25)),
    "gamma": (0.0, lambda traj, v: verify_lemma2(
        traj, mu=0.5, delta=0.5, gamma=v, lam=0.25)),
    "lam": (0.5, lambda traj, v: verify_lemma2(
        traj, mu=0.5, delta=0.5, gamma=0.5, lam=v)),
    "eps": (0.0, lambda traj, v: verify_lemma3(
        traj, eps=v, lam=0.25, lam_star=0.5)),
    "lam_star": (1.5, lambda traj, v: verify_lemma3(
        traj, eps=0.1, lam=0.25, lam_star=v)),
}


@pytest.mark.parametrize("name", CONSTANT_OWNERS)
def test_diagnose_refuses_a_constant_in_its_detectors_words(tmp_path, capsys,
                                                           grid1, name):
    # load_calibration asks the rule the detectors raise, before any run
    value, detect = CONSTANT_OWNERS[name]
    with pytest.raises(NlflowError, match=f"^{name} must") as owner:
        detect(constant_trajectory(grid1, 0.0), value)
    path = tmp_path / "calibration.json"
    save_calibration(dataclasses.replace(default_calibration(),
                                         **{name: value}), str(path))
    out = tmp_path / "d"
    assert main(["diagnose", "--seed", "1", "--out", str(out),
                 "--set", f"calibration.file={path}"]) == 2
    assert f"calibration.file {owner.value} (got {value!r})" in \
        capsys.readouterr().err
    assert not out.exists()


def _refused(key: str, sets: list[str]) -> bool:
    """Whether diagnose's config refuses `sets` with a line on `key`."""
    try:
        parse_config(overrides=sets).check_recipes()
    except ConfigError as exc:
        return any(line.startswith(key) for line in exc.errors)
    return False


def test_diagnose_refuses_what_seed_1s_runs_do_not_resolve():
    # the config asks the detectors' resolution rules of the recipe grid and
    # sample gaps; seed 1's recurrence and oscillation runs raise on exactly
    # the settings it refuses, and MAX_K is the most rungs it accepts
    for k_max in range(1, 9):
        try:
            truncated_energies(cached_recurrence_run(1), k_max=k_max)
            raised = False
        except NlflowError as exc:
            assert "rungs" in str(exc), exc
            raised = True
        assert _refused("diagnose.k_max", [f"diagnose.k_max={k_max}"]) \
            == raised == (k_max > MAX_K), k_max
    decisions = set()
    for scale in (0.45, 0.5, 0.65, 0.8, 0.95):
        for levels in range(3, 7):
            try:
                oscillation_decay(cached_oscillation_run(1), scale, levels)
                raised = False
            except NlflowError as exc:
                assert str(exc).startswith("cylinder "), exc
                raised = True
            refused = _refused("diagnose.scale", [
                f"diagnose.scale={scale}", f"diagnose.levels={levels}"])
            assert refused == raised, (scale, levels)
            decisions.add(refused)
    assert decisions == {True, False}


# ---------------------------------------------------------------------------
# run

RUN_ARGS = ["--set", "grid.M=64", "--set", "flow.end=0.1",
            "--set", "flow.sample_every=4",
            "--set", "kernel.family=rough-static",
            "--set", "initial.kind=random"]


def test_run_records_dissipation(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["run", "--out", str(out), "--seed", "1..2"] + RUN_ARGS)
    assert rc == 0
    report = read_report(out)
    assert [r["seed"] for r in report["runs"]] == [1, 2]
    for rec in report["runs"]:
        assert rec["dissipative"] is True
        assert rec["l2_last"] <= rec["l2_first"]
        assert rec["mass_conserved"] is True
    lines = (out / "curves" / "run-seed1.csv").read_text().splitlines()
    assert lines[0] == "# nlflow curve seed=1"
    assert lines[1] == "t,l2,energy,vmin,vmax,mass"
    # seeded runs differ, and the final fields land as 1-d CSVs
    a = load_field(str(out / "fields" / "final-seed1.csv"))
    b = load_field(str(out / "fields" / "final-seed2.csv"))
    assert not np.array_equal(a.values, b.values)
    assert "run seed 2: dissipative" in capsys.readouterr().out
    # timings.json: disjoint phase spans in order, and the work counters
    timings = json.loads((out / "timings.json").read_text())
    spans = timings["phases"]
    assert [s["phase"] for s in spans] == ["setup"] + [
        "integrate", "detect", "write"] * 2
    for span, after in zip(spans, spans[1:]):
        assert span["seconds"] >= 0.0
        assert after["start_s"] == pytest.approx(
            span["start_s"] + span["seconds"], abs=1e-9)
    # and their seconds summed per phase, which add up to the wall time
    assert timings["phase_seconds"] == {
        name: sum(s["seconds"] for s in spans if s["phase"] == name)
        for name in ("setup", "integrate", "detect", "write")}
    assert sum(timings["phase_seconds"].values()) == pytest.approx(
        timings["wall_clock_seconds"], abs=1e-9)
    steps = sum(r["n_steps"] for r in report["runs"])
    # one flux pass per state, and one for each rough table's row sums
    assert timings["counters"] == {
        "steps": steps, "flux_passes": steps + 2 * 2,
        "offset_table_builds": 2}


@pytest.mark.parametrize("sets, calls", [
    ([], 1), (["--set", "kernel.family=rough-static"], 3)],
    ids=["power-law-bump", "rough"])
def test_run_integrates_once_unless_seeds_reach_the_problem(
        tmp_path, monkeypatch, sets, calls):
    # a power-law kernel and bump data ignore the seed: one run serves all
    counter = []

    def counting_run_flow(*args, **kwargs):
        counter.append(1)
        return run_flow(*args, **kwargs)

    monkeypatch.setattr("nlflow.cli.run_flow", counting_run_flow)
    out = tmp_path / "r"
    assert main(["run", "--out", str(out), "--seed", "1..3"] + sets) == 0
    assert len(counter) == calls
    assert [r["seed"] for r in read_report(out)["runs"]] == [1, 2, 3]
    assert (out / "curves" / "run-seed3.csv").exists()


def test_run_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main(["run", "--out", str(out), "--seed", "3"] + RUN_ARGS) == 0
    for rel in ("report.json", "curves/run-seed3.csv",
                "fields/final-seed3.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_time_dependent_run_grades_energy_within_epochs(tmp_path):
    # the kernel is resampled every 0.1: the energy jumps at epoch
    # boundaries and decreases inside each epoch
    out = tmp_path / "t"
    rc = main(["run", "--out", str(out), "--seed", "1",
               "--set", "kernel.family=rough-time-dependent",
               "--set", "flow.end=0.5"])
    assert rc == 0
    assert read_report(out)["runs"][0]["dissipative"] is True
    curve = np.loadtxt(out / "curves" / "run-seed1.csv", delimiter=",",
                       skiprows=2)
    assert np.max(np.diff(curve[:, 2])) > 1e-10


def test_energy_rise_inside_an_epoch_is_not_dissipative():
    cfg = parse_config(overrides=["kernel.family=rough-time-dependent",
                                  "grid.M=64", "flow.end=0.25"])
    traj = run_flow(cfg.flow_problem(seed=1))
    assert _dissipation_record(traj)["dissipative"] is True
    assert kernel_epoch(traj.kernel, traj.step_times[1]) == 0
    traj.energy[1] = traj.energy[0] + 1e-3
    rec = _dissipation_record(traj)
    assert rec["energy_nonincreasing"] is False
    assert rec["dissipative"] is False


def test_zero_mean_data_of_large_amplitude_conserves_mass(tmp_path):
    # rounding drifts the mass of this cosine by 2.3e-11, a few ulps of its
    # L1 mass h^N sum |w0| and far above 1e-12 max(1, |mass0|)
    out = tmp_path / "c"
    assert main(["run", "--out", str(out), "--seed", "1",
                 "--set", "grid.N=2", "--set", "grid.M=18",
                 "--set", "initial.kind=cosine",
                 "--set", "initial.amplitude=1000.0"]) == 0
    assert read_report(out)["runs"][0]["mass_conserved"] is True


def test_a_mass_leak_is_not_conserved(tmp_path, monkeypatch):
    offset_rhs = flow._offset_rhs

    def leaking(*args, **kwargs):
        acc = offset_rhs(*args, **kwargs)
        acc.flat[0] += 1e-9
        return acc

    monkeypatch.setattr(flow, "_offset_rhs", leaking)
    out = tmp_path / "l"
    assert main(["run", "--out", str(out), "--seed", "1"]) == 1
    assert read_report(out)["runs"][0]["mass_conserved"] is False


def test_mass_bound_is_the_relative_one_on_the_suites_runs():
    # the L1 rounding term stays below 1e-12 max(1, |mass0|) on these runs,
    # so a drift just past that bound still breaks mass conservation
    runs = [cached_dissipation_run(kind, seed)
            for kind, seeds in DISSIPATION_SEEDS.items() for seed in seeds]
    for sets in ([], ["grid.N=2", "grid.M=64", "initial.kind=random",
                      "kernel.family=rough-static", "flow.end=0.01"]):
        runs.append(run_flow(parse_config(overrides=sets).flow_problem(1)))
    for traj in runs:
        assert _dissipation_record(traj)["mass_conserved"] is True
        mass = traj.mass.copy()
        mass[-1] += 1.01e-12 * max(1.0, abs(float(mass[0])))
        leaked = dataclasses.replace(traj, mass=mass)
        assert _dissipation_record(leaked)["mass_conserved"] is False


@pytest.mark.parametrize("kind, seeds", [("linear", (1, 2)),
                                         ("nonlinear", (1,))])
def test_the_dissipation_gate_grades_what_run_reports(tmp_path, kind, seeds):
    # the suite's cached gate runs are the runs `nlflow run` integrates, and
    # the gate's grades are the records it reports (a nonlinear run's
    # multiplier is drawn from its seed, so one seed per call)
    sets = [arg for item in dissipation_sets(kind, seeds[0])
            for arg in ("--set", item)]
    out = tmp_path / kind
    assert main(["run", "--out", str(out),
                 "--seed", f"{seeds[0]}..{seeds[-1]}"] + sets) == 0
    assert read_report(out)["runs"] == [
        {"seed": seed,
         **_dissipation_record(cached_dissipation_run(kind, seed))}
        for seed in seeds]


def test_random_data_of_negative_amplitude(tmp_path):
    # uniform on [-|a|, |a|], the draws of amplitude |a|
    fields = []
    for amplitude in ("-1.0", "1.0"):
        out = tmp_path / amplitude
        assert main(["run", "--out", str(out), "--seed", "1",
                     "--set", "grid.M=64", "--set", "initial.kind=random",
                     "--set", f"initial.amplitude={amplitude}"]) == 0
        fields.append((out / "fields" / "final-seed1.csv").read_bytes())
    assert fields[0] == fields[1]


def test_random_data_read_any_integer_seed_mod_2_64(tmp_path):
    # -1 crashed the random draw; read mod 2^64, as the rough kernel reads
    # it, -1 and 2^64 - 1 make one run
    runs = []
    for seed in (-1, 2 ** 64 - 1):
        out = tmp_path / str(seed)
        assert main(["run", f"--seed={seed}", "--out", str(out)]
                    + RUN_ARGS) == 0
        (run,) = read_report(out)["runs"]
        assert run.pop("seed") == seed
        runs.append(run)
    assert runs[0] == runs[1]



# ---------------------------------------------------------------------------
# diagnose

def test_diagnose_single_seed(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["diagnose", "--out", str(out), "--seed", "1"])
    assert rc == 0
    report = read_report(out)
    assert report["summary"]["all_pass"] is True
    assert report["summary"]["failures"] == 0
    entry = report["runs"][0]
    for name in ("lemma1", "corollary1", "corollary2", "lemma2", "lemma3"):
        assert entry[name]["verdict"] == "pass"
    assert entry["recurrence"]["monotone"] is True
    assert entry["recurrence"]["chebyshev_ok"] is True
    assert entry["oscillation"]["alpha"] > 0.0
    cal = report["calibration"]
    assert 0.0 < cal["lam_star"] < 1.0
    assert (out / "curves" / "recurrence-seed1.csv").exists()
    assert (out / "curves" / "oscillation-seed1.csv").exists()
    assert "diagnose: pass over 1 seeds" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# denoise

def test_denoise_pgm(tmp_path, capsys):
    src = tmp_path / "noisy.pgm"
    noisy = noisy_image(src)
    out = tmp_path / "n"
    rc = main(["denoise", "--out", str(out),
               "--set", f"denoise.input={src}",
               "--set", "denoise.time=0.1"])
    assert rc == 0
    report = read_report(out)
    assert report["passed"] is True
    assert report["range_contained"] is True
    assert report["flow"]["energy_nonincreasing"] is True
    cleaned = load_field(str(out / "fields" / "denoised.pgm"))
    assert cleaned.values.min() >= noisy.values.min() - 1e-12
    assert cleaned.values.max() <= noisy.values.max() + 1e-12
    assert (out / "curves" / "denoise-energy.csv").exists()
    assert "denoise: pass" in capsys.readouterr().out


def test_denoise_rerun_is_byte_identical(tmp_path):
    src = tmp_path / "noisy.pgm"
    noisy_image(src)
    outs = (tmp_path / "one", tmp_path / "two")
    for out in outs:
        rc = main(["denoise", "--out", str(out),
                   "--set", f"denoise.input={src}",
                   "--set", "denoise.time=0.1"])
        assert rc == 0
    for rel in ("report.json", "fields/denoised.pgm",
                "curves/denoise-energy.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_denoise_csv_signal(tmp_path):
    g = Grid(dimension=1, side_length=16.0, points_per_axis=64)
    rng = np.random.default_rng(11)
    x = g.node_coords()[:, 0]
    vals = np.exp(-((x - 8.0) ** 2) / 4.0) + rng.uniform(-0.2, 0.2, g.n_nodes)
    src = tmp_path / "noisy.csv"
    save_field(Field(g, vals), str(src))
    out = tmp_path / "n"
    rc = main(["denoise", "--out", str(out),
               "--set", f"denoise.input={src}",
               "--set", "denoise.time=0.05"])
    assert rc == 0
    cleaned = load_field(str(out / "fields" / "denoised.csv"))
    assert cleaned.values.min() >= vals.min() - 1e-12
    assert cleaned.values.max() <= vals.max() + 1e-12


@pytest.mark.parametrize("value", ["inf", "nan", "1e300"])
def test_denoise_refuses_values_its_records_cannot_square(tmp_path, capsys,
                                                          value):
    # a field file holds any float, but the flow's energy and L2 records
    # square it: 1e300 overflowed them into a failed verdict (exit 1)
    src, out = tmp_path / "noisy.csv", tmp_path / "n"
    save_field(Field(Grid(1, 16.0, 8), np.full(8, 0.5)), str(src))
    src.write_text(src.read_text().replace("0.5", value, 1))
    assert main(["denoise", "--out", str(out),
                 "--set", f"denoise.input={src}"]) == 3
    assert capsys.readouterr().err == (
        f"nlflow denoise: aborted: {src}: values must be finite and at most "
        f"1e100 in magnitude\n")
    assert not out.exists()


def tagged_2d_csv(path, value=None):
    """An 8 x 8 field in [0, 1] as a CSV tagged N=2, which save_field does
    not write, its last value replaced by `value` if given."""
    values = np.random.default_rng(3).uniform(0.0, 1.0, 64)
    values[-1] = values[-1] if value is None else value
    path.write_text("# nlflow field N=2 M=8 L=16.0\n"
                    + "".join(f"{float(v)!r}\n" for v in values))
    return values


def test_denoise_writes_the_format_of_the_input_grid(tmp_path):
    # the output follows the loaded grid, not the input's name: a PGM read
    # by its magic and a CSV tagged 2-d ran the flow, then aborted (exit 3)
    # saving a CSV
    noisy_image(tmp_path / "noisy.pgm")
    os.rename(tmp_path / "noisy.pgm", tmp_path / "img.dat")
    tagged_2d_csv(tmp_path / "img.csv")
    for name in ("img.dat", "img.csv"):
        out = tmp_path / name.replace(".", "-")
        assert main(["denoise", "--out", str(out),
                     "--set", f"denoise.input={tmp_path / name}"]) == 0
        assert read_report(out)["output"] == "fields/denoised.pgm"
        assert load_field(str(out / "fields" / "denoised.pgm")).grid.shape \
            == load_field(str(tmp_path / name)).grid.shape


def test_denoise_refuses_a_2d_field_pgm_cannot_hold(tmp_path, capsys,
                                                    monkeypatch):
    # refused before the flow runs, not after it at save_field
    calls = []
    monkeypatch.setattr("nlflow.cli.run_flow", lambda *a, **k: calls.append(a))
    src, out = tmp_path / "img.csv", tmp_path / "n"
    lo = tagged_2d_csv(src, 1.5).min()
    assert main(["denoise", "--out", str(out),
                 "--set", f"denoise.input={src}"]) == 2
    assert capsys.readouterr().err == (
        f"nlflow denoise: denoise.input: a 2-d field is saved as PGM, which "
        f"holds [0, 1] (got [{lo:g}, 1.5] in {src})\n")
    assert calls == []
    assert not out.exists()


def test_denoise_guards(tmp_path, capsys):
    assert main(["denoise", "--out", str(tmp_path / "a")]) == 2
    assert "denoise.input" in capsys.readouterr().err
    assert main(["denoise", "--out", str(tmp_path / "b"),
                 "--set", "denoise.input=/nonexistent.pgm"]) == 2
    src = tmp_path / "noisy.pgm"
    noisy_image(src)
    rc = main(["denoise", "--out", str(tmp_path / "c"),
               "--set", f"denoise.input={src}",
               "--set", "kernel.family=rough-static"])
    assert rc == 2
    assert "power-law" in capsys.readouterr().err
    rc = main(["denoise", "--out", str(tmp_path / "d"),
               "--set", f"denoise.input={src}",
               "--set", "flow.strategy=spectral"])
    assert rc == 2
    assert "flow.strategy: must be banded (got 'spectral')" in \
        capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_small_ensemble(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["calibrate", "--out", str(out), "--seed", "1..2"])
    assert rc == 0
    report = read_report(out)
    assert report["passed"] is True
    constants = load_calibration(str(out / "calibration.json"))
    for value in (constants.eps0, constants.delta, constants.lam_star):
        assert 0.0 < value < 1.0
    assert constants.lam_star == report["calibration"]["lam_star"]
    assert "calibrate: pass" in capsys.readouterr().out
    # the CLI's lazy runs and the session's cached runs give the same bytes
    in_process = tmp_path / "in-process.json"
    save_calibration(calibrate_constants(**cached_calibration_runs(
        dict.fromkeys(CALIBRATION_SEEDS, [1, 2]))), str(in_process))
    assert in_process.read_bytes() == \
        (out / "calibration.json").read_bytes()


def test_calibrate_reads_the_seeds_from_any_source(tmp_path):
    # set by --set or in a file as by --seed, the seeds run every recipe
    config = tmp_path / "seeds.cfg"
    config.write_text("ensemble.seeds = 1..2\n")
    for source in (["--set", "ensemble.seeds=1..2"],
                   ["--config", str(config)]):
        out = tmp_path / source[0].strip("-")
        assert main(["calibrate", "--out", str(out)] + source) == 0
        assert read_report(out)["calibration"]["seeds"] == dict.fromkeys(
            CALIBRATION_SEEDS, [1, 2])


@pytest.mark.parametrize("pairs, expected", [
    ([(1e-14, True), (3e-13, False), (0.2, True), (0.5, False)],
     (float(np.nextafter(3e-13, 0.0)), False)),
    ([(0.0, True), (0.4, False)], (float(np.nextafter(0.4, 0.0)), False)),
    ([(0.5, True), (CAP, True), (1.5, False)], (CAP, True)),
], ids=["tiny-failure", "failure", "capped"])
def test_largest_budget_stops_just_below_the_first_failure(pairs, expected):
    # exact at every magnitude: the budget admits every passing run below
    # the smallest failing value and not that value itself
    assert _largest_budget(pairs) == expected


# ---------------------------------------------------------------------------
# config sweep

def sweep_inputs(directory) -> dict:
    """The field files the sweep's denoise draws read: a 16 x 16 PGM and a
    1-d CSV of 24 nodes on a torus of width 6, so that a kernel radius of 3
    or more is refused on it."""
    rng = np.random.default_rng(7)
    files = {"pgm": Field(Grid(2, 16.0, 16), rng.uniform(0.0, 1.0, 256)),
             "csv": Field(Grid(1, 6.0, 24), rng.uniform(-1.0, 1.0, 24))}
    paths = {}
    for ext, field in files.items():
        paths[ext] = str(directory / f"sweep.{ext}")
        save_field(field, paths[ext])
    return paths


def sweep_argv(rng, inputs) -> list[str]:
    """One seeded `validate`, `run`, `denoise` or `diagnose` command line
    over every kernel family, initial kind and flow kind, the banded
    strategy or, one time in 8, the refused dense or spectral, and the euler
    stepper or, one time in 8, the refused heun, on at most 20 points an
    axis, with each float key +-inf one time in 40.
    kernel.lambda stays at most 16 and flow.end at most 0.2 because step
    counts grow with both: a rough run at Lambda = 1e6 took 40 s, slow but
    not wrong; one time in 40 flow.end is 1e7 all the same, a run too long
    to hold, and one time in 40 grid.L is 5e-324 with kernel.radius inf, a
    spacing L/M that underflows to 0.  Half the amplitudes reach 1e300, so
    that the refusals above |amplitude| + |shift| = 1e100 leave room for
    runs.  The diagnose.* keys are drawn for diagnose and one other draw in
    four; three diagnose draws in four set the diagnose.* keys alone, as
    diagnose refuses any other key it does not read, so that its rules on
    them and its runs are reached, and three denoise draws in four keep the
    power-law family that its nonlinear flow needs and the banded strategy.
    One time in 8 each, kernel.radius is below 1e-3, down to 1e-200;
    kernel.cell and kernel.epoch are 1e-25 to 1e-15, where the rough
    kernels' int64 cell and epoch indices end; and one time in 4 flow.start
    is 1e14 to 1e16 in magnitude, with flow.end up to 0.2 past it, where the
    float spacing at the times nears the steps.  The seed list is 1, 1..2,
    or a seed outside [1, 2^64): -1, 0 or 2^64.
    `inputs` maps pgm and csv to the files of `sweep_inputs`."""
    def pick(options):
        return options[rng.integers(len(options))]

    def signed_power(lo, hi):
        return pick((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)

    command = pick(("validate", "run", "run", "run", "denoise", "denoise",
                    "diagnose", "diagnose"))
    lam = 16.0 ** rng.uniform(0.01, 1.0)
    sets = {
        "kernel.family": pick(KERNEL_FAMILIES),
        "kernel.s": rng.uniform(0.1, 1.9),
        "kernel.lambda": lam,
        "kernel.radius": pick((math.inf, rng.uniform(0.3, 4.0))),
        "kernel.seed": rng.integers(1000),
        # outside a power-law kernel's band [lam^-1/2, lam^1/2] a sixth of
        # the time
        "kernel.multiplier": lam ** rng.uniform(-0.6, 0.6),
        "kernel.cell": 10.0 ** rng.uniform(-1.3, 0.3),
        "kernel.epoch": 10.0 ** rng.uniform(-2.0, -0.7),
        "potential.family": pick(POTENTIAL_FAMILIES),
        "potential.lambda": 1000.0 ** rng.uniform(0.01, 1.0),
        "grid.N": rng.integers(1, 3),
        "grid.M": rng.integers(8, 21),
        "grid.L": rng.uniform(2.0, 24.0),
        "initial.kind": pick(INITIAL_KINDS),
        "initial.amplitude": signed_power(-3.0, pick((12.0, 12.0, 300.0))),
        "initial.shift": pick((0.0, 0.0, 0.0, signed_power(-3.0, 100.0))),
        "initial.sigma": rng.uniform(0.2, 4.0),
        "initial.radius": rng.uniform(0.2, 4.0),
        "initial.mode": rng.integers(1, 4),
        "flow.kind": pick(("linear", "nonlinear")),
        "flow.stepper": "heun" if rng.integers(8) == 0 else "euler",
        "flow.strategy": pick(("dense", "spectral"))
        if rng.integers(8) == 0 else "banded",
        "flow.start": pick((0.0, 0.0, 0.0, -rng.uniform(0.0, 0.2))),
        "flow.end": rng.uniform(0.01, 0.2),
        "flow.dt_max": pick((None, None, None, rng.uniform(0.001, 0.1))),
        "flow.sample_every": rng.integers(1, 4),
        "denoise.input": inputs[pick(("pgm", "csv"))],
        "denoise.time": rng.uniform(0.01, 0.2),
    }
    if command == "diagnose" or rng.integers(4) == 0:
        sets.update({"diagnose.k_max": pick((0, 1, 3, 6, 6, 6, 6, 7)),
                     "diagnose.levels": pick((2, 3, 3, 4, 4, 5)),
                     "diagnose.scale": rng.uniform(0.45, 1.05)})
    for key, value in sets.items():
        if isinstance(value, float) and rng.integers(40) == 0:
            sets[key] = pick((-math.inf, math.inf))
    if rng.integers(40) == 0:
        sets["flow.end"] = 1e7
    if rng.integers(40) == 0:
        sets.update({"grid.L": 5e-324, "kernel.radius": math.inf})
    if rng.integers(8) == 0:
        sets["kernel.radius"] = 10.0 ** rng.uniform(-200.0, -3.0)
    if rng.integers(8) == 0:
        sets.update({key: 10.0 ** rng.uniform(-25.0, -15.0)
                     for key in ("kernel.cell", "kernel.epoch")})
    if rng.integers(4) == 0:
        sets["flow.start"] = signed_power(14.0, 16.0)
        sets["flow.end"] = sets["flow.start"] + rng.uniform(0.01, 0.2)
    if command == "diagnose" and rng.integers(4):
        sets = {key: value for key, value in sets.items()
                if key.startswith("diagnose.")}
    if command == "denoise" and rng.integers(4):
        sets.update({"kernel.family": "power-law", "flow.strategy": "banded"})
    argv = [command, "--seed", pick(("1", "1..2", "-1", "0", str(2 ** 64)))]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def test_config_sweep_exits_0_or_2(tmp_path, capsys):
    # every configuration either works end to end or is refused before any
    # work: no verdict false by construction (exit 1), no abort, no traceback
    rng = np.random.default_rng(1003)
    inputs = sweep_inputs(tmp_path)
    broken, ran = [], 0
    for i in range(300):
        argv = sweep_argv(rng, inputs) + ["--out", str(tmp_path / f"d{i}")]
        try:
            rc = main(argv)
        except Exception as exc:     # reported below with its draw
            rc = repr(exc)
        err = capsys.readouterr().err
        ran += rc == 0
        out_left = (tmp_path / f"d{i}").exists()
        if rc not in (0, 2) or "Traceback" in err or (rc == 2 and out_left):
            broken.append((rc, err[-200:], argv))
        if out_left:
            shutil.rmtree(tmp_path / f"d{i}")
    assert not broken, f"{len(broken)} broken draws, first: {broken[0]}"
    # the draws reach runs, not only refusals: 67 of the 300 exit 0
    assert ran >= 67, f"only {ran} of 300 draws reached a run"


# ---------------------------------------------------------------------------
# input-file sweep

SWEEP_TOKENS = (b"#", b"\n", b" ", b"-", b"=", b".", b"1e", b"x1", b"\x88",
                b"\xe9", b"nan", b"1" + b"0" * 400, b"P2", b"P5", b'"', b"{",
                b"]", b",")


def mutant(rng, data: bytes) -> bytes:
    """`data` with one seeded byte flip, token insert, deletion of up to 8
    bytes or truncation, half the time within its first 48 bytes, where the
    headers are."""
    at = int(rng.integers(len(data) if rng.integers(2) else 48))
    kind = rng.integers(4)
    if kind == 0:
        return data[:at] + bytes([rng.integers(256)]) + data[at + 1:]
    if kind == 1:
        token = SWEEP_TOKENS[rng.integers(len(SWEEP_TOKENS))]
        return data[:at] + token + data[at:]
    if kind == 2:
        return data[:at] + data[at + int(rng.integers(1, 9)):]
    return data[:at]


def test_input_file_sweep_never_crashes(tmp_path, capsys):
    # every file the CLI reads is read or refused: a mutated field file
    # exits 0, 3 or, where its grid does not fit the kernel, 2 through
    # denoise, a config 0 or 2 through validate, and a calibration file that
    # load_calibration refuses 2 through diagnose; no exception escapes, no
    # traceback, no --out left by a refusal
    rng = np.random.default_rng(26)
    g = Grid(2, 16.0, 8)
    pixels = rng.integers(0, 256, g.n_nodes)
    save_field(Field(g, pixels / 255.0), str(tmp_path / "v.pgm"))
    save_field(Field(Grid(1, 16.0, 8), rng.uniform(-1.0, 1.0, 8)),
               str(tmp_path / "v.csv"))
    inputs = {name: (tmp_path / name).read_bytes()
              for name in ("v.csv", "v.pgm")}
    inputs["p2.pgm"] = (b"P2\n# nlflow field N=2 M=8 L=16.0\n8 8\n255\n"
                        + " ".join(map(str, pixels)).encode() + b"\n")
    inputs["v.cfg"] = (b"# torus\ngrid.M = 64\ngrid.L = 16.0  # width\n"
                       b"kernel.s = 1.0\n")
    calibration = json.dumps(dataclasses.asdict(default_calibration()))
    broken = []

    def run(argv, codes, data):
        out = tmp_path / "out"
        try:
            rc = main(argv + ["--out", str(out)])
        except Exception as exc:     # reported below with its input
            rc = repr(exc)
        err = capsys.readouterr().err
        if rc not in codes or "Traceback" in err or (
                rc in (2, 3) and out.exists()):
            broken.append((rc, err[-200:], data))
        shutil.rmtree(out, ignore_errors=True)

    for name, valid in inputs.items():
        path = tmp_path / ("mutant-" + name)
        for _ in range(100):
            path.write_bytes(data := mutant(rng, valid))
            if name.endswith(".cfg"):
                run(["validate", "--config", str(path)], (0, 2), data)
            else:
                run(["denoise", "--set", f"denoise.input={path}"],
                    (0, 2, 3), data)
    path = tmp_path / "mutant.json"
    for _ in range(200):
        path.write_bytes(data := mutant(rng, calibration.encode()))
        try:
            load_calibration(str(path))
        except ConfigError:
            run(["diagnose", "--seed", "1", "--set",
                 f"calibration.file={path}"], (2,), data)
        except Exception as exc:
            broken.append((repr(exc), "", data))
    assert not broken, f"{len(broken)} broken mutants, first: {broken[0]}"


# ---------------------------------------------------------------------------
# plumbing

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == nlflow.__version__


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


def test_a_run_leaves_numpy_ma_unimported(tmp_path):
    # importing numpy.ma costs every flow process 14-21 ms and 0.5 MB
    package_root = os.path.dirname(os.path.dirname(nlflow.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys\nfrom nlflow.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--seed", "1", "--set",
         "grid.M=16", "--set", "flow.sample_every=3", "--out",
         str(tmp_path / "r")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_module_entry_point():
    # the child finds the package where this process imported it from
    package_root = os.path.dirname(os.path.dirname(nlflow.__file__))
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nlflow.cli", "--version"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout

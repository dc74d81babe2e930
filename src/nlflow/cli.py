"""Command-line front end: validate | run | diagnose | denoise | calibrate.

Outputs land under --out (default: config output.dir): a deterministic
report.json (byte-identical across reruns with the same config and seeds),
CSV curves, optional field dumps, and a separate timings.json holding the
wall-clock numbers that must not perturb report bytes: the wall time, the
phase spans (setup, then integrate / detect / write, each running until the
next begins), their seconds summed per phase, and the work counters of
`grid.COUNTERS`.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage/config error,
3 runtime abort (2 and 3 write no report and remove the --out they made).
Keys a command never reads (`ExperimentConfig.unread`) are named on stderr,
and refused by diagnose and calibrate, whose recipes fix the problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .calibrate import CALIBRATION_SEEDS, calibrate_constants, \
    default_calibration, load_calibration, save_calibration
from .config import ExperimentConfig, parse_config
from .degiorgi import check_recurrence, chebyshev_chain, truncated_energies, \
    verify_corollary1, verify_corollary2, verify_lemma1, verify_lemma2
from .ensembles import lemma_ensemble_run, level_ensemble_run, \
    oscillation_run, recurrence_run
from .errors import ConfigError, NlflowError
from .fieldio import load_field, save_field, write_json
from .flow import FlowProblem, Trajectory, run_flow
from .grid import COUNTERS
from .kernels import kernel_epoch, make_kernel, validate_kernel
from .oscillation import oscillation_decay, verify_lemma3
from .potentials import validate_potential

__all__ = ["main"]

_MARKS: list = [("setup", 0.0)]     # (phase, start time), one at a time


def _phase(name: str) -> None:
    """End the running phase and start `name`, unless `name` is running."""
    if _MARKS[-1][0] != name:
        _MARKS.append((name, time.perf_counter()))


def _integrate(run, *args, **kwargs):
    """run(*args, **kwargs) as the integrate phase; detect follows."""
    _phase("integrate")
    traj = run(*args, **kwargs)
    _phase("detect")
    return traj


def _make_out_dir(out_dir: str) -> str | None:
    """Create `out_dir`; return the outermost directory made, or None."""
    top, path = None, os.path.abspath(out_dir)
    while not os.path.lexists(path):
        top, path = path, os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}")
    return top


def _ensure_dirs(out_dir: str, *sub: str) -> None:
    for name in sub:
        os.makedirs(os.path.join(out_dir, name), exist_ok=True)


def _write_curve(path: str, header: str, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    lines = [f"# nlflow curve {header}", ",".join(names)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dissipation_record(traj: Trajectory) -> dict:
    """Per-step monotonicity facts for one trajectory (measured).

    Energy is graded only on steps that stay inside one kernel epoch: a
    time-dependent kernel is resampled at each epoch boundary, where
    B_t[w, w] may jump, while L2, the bracket and the mass stay monotone.
    """
    l2, energy = traj.l2, traj.energy
    vmin, vmax, mass = traj.vmin, traj.vmax, traj.mass
    l2_scale = max(1.0, float(l2[0]))
    # rounding moves the mass by a few ulps of the L1 mass h^N sum |w0|,
    # far more than |mass0| for data of zero mean
    h_n = traj.grid.spacing ** traj.grid.dimension
    mass_tol = max(1e-12 * max(1.0, abs(float(mass[0]))), 16.0
                   * np.finfo(float).eps * h_n * np.abs(traj.fields[0]).sum())
    epochs = kernel_epoch(traj.kernel, traj.step_times)
    same_epoch = epochs[1:] == epochs[:-1]
    rec = {
        "n_steps": int(len(traj.step_times) - 1),
        "dt_max": float(np.max(np.diff(traj.step_times))),
        "l2_first": float(l2[0]), "l2_last": float(l2[-1]),
        "energy_first": float(energy[0]), "energy_last": float(energy[-1]),
        "l2_nonincreasing": bool(
            np.all(np.diff(l2) <= 1e-12 * l2_scale)),
        "energy_nonincreasing": bool(
            np.all(np.diff(energy)[same_epoch] <= 1e-10)),
        "bracket_preserved": bool(
            np.all(vmin >= vmin[0] - 1e-12) and
            np.all(vmax <= vmax[0] + 1e-12)),
        "mass_conserved": bool(
            np.max(np.abs(mass - mass[0])) <= mass_tol),
        "final_min": float(vmin[-1]), "final_max": float(vmax[-1]),
    }
    rec["dissipative"] = bool(
        rec["l2_nonincreasing"] and rec["energy_nonincreasing"] and
        rec["bracket_preserved"] and rec["mass_conserved"])
    return rec


# --------------------------------------------------------------------------
# subcommands: each returns its report body and whether every verdict passed

def _cmd_validate(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    grid = cfg.make_grid()
    # validate_kernel seeds its samples with the kernel's seed and grades
    # the band at Lambda, any family
    cfg.get("kernel.lambda")
    kernel = cfg.make_kernel(seed=cfg.get("kernel.seed"))
    potential = cfg.make_potential()
    _phase("detect")
    k_rep = validate_kernel(kernel)
    p_rep = validate_potential(potential)
    checks = {
        "kernel_symmetric": k_rep.symmetric,
        "kernel_envelope": k_rep.envelope_ok,
        "kernel_truncation": k_rep.truncated_ok,
        "potential_bounds": p_rep.bounds_ok,
        "potential_even": p_rep.even_ok,
        "potential_zero": p_rep.zero_ok,
        "potential_curvature": p_rep.fd_ok,
    }
    passed = all(checks.values())
    body = {
        "grid": {"dimension": grid.dimension, "points": grid.points_per_axis,
                 "side_length": grid.side_length, "spacing": grid.spacing},
        "kernel": dataclasses.asdict(k_rep),
        "potential": dataclasses.asdict(p_rep),
        "checks": checks,
        "passed": passed,
        "provenance": {"checks": "measured"},
    }
    for name, ok in checks.items():
        print(f"validate {name}: {'ok' if ok else 'FAIL'}")
    print(f"validate: {'pass' if passed else 'FAIL'}")
    return body, passed


def _cmd_run(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    cfg.check_flow(cfg.get("flow.kind"), cfg.make_grid(),
                   cfg.get("flow.start"), cfg.get("flow.end"))
    _ensure_dirs(out_dir, "curves", "fields")
    records, notes = [], []
    traj = None
    # each seed's outputs are written as its run finishes; seeds that do not
    # reach the problem share its one run
    for seed in cfg.get("ensemble.seeds"):
        if traj is None or cfg.seeds_reach_problem():
            traj = _integrate(run_flow, cfg.flow_problem(seed=seed),
                              sample_every=cfg.get("flow.sample_every"))
        _phase("detect")
        rec = {"seed": seed}
        rec.update(_dissipation_record(traj))
        records.append(rec)
        _phase("write")
        _write_curve(
            os.path.join(out_dir, "curves", f"run-seed{seed}.csv"),
            f"seed={seed}",
            {"t": traj.step_times, "l2": traj.l2, "energy": traj.energy,
             "vmin": traj.vmin, "vmax": traj.vmax, "mass": traj.mass})
        final = traj.field(traj.n_samples - 1)
        if traj.grid.dimension == 1:
            save_field(final, os.path.join(out_dir, "fields",
                                           f"final-seed{seed}.csv"))
        elif 0.0 <= rec["final_min"] and rec["final_max"] <= 1.0:
            save_field(final, os.path.join(out_dir, "fields",
                                           f"final-seed{seed}.pgm"))
        else:
            notes.append(f"seed {seed}: final range outside [0,1], "
                         "no PGM dump")
        print(f"run seed {seed}: "
              f"{'dissipative' if rec['dissipative'] else 'VERDICT FAIL'} "
              f"(l2 {rec['l2_first']:.6g} -> {rec['l2_last']:.6g})")
    all_ok = all(r["dissipative"] for r in records)
    return {"runs": records, "notes": notes, "passed": all_ok,
            "provenance": {"runs": "measured"}}, all_ok


def _cmd_diagnose(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    path = cfg.get("calibration.file")
    cal = load_calibration(path) if path else default_calibration()
    cfg.check_recipes()
    seeds = list(cfg.get("ensemble.seeds"))
    k_max = cfg.get("diagnose.k_max")
    levels = cfg.get("diagnose.levels")
    scale = cfg.get("diagnose.scale")
    cfg.refuse_unread()         # the recipes fix every other key

    def diagnose_seed(seed: int) -> dict:
        entry: dict = {"seed": seed}
        traj = _integrate(lemma_ensemble_run, seed)
        entry["lemma1"] = dataclasses.asdict(
            verify_lemma1(traj, eps0=cal.eps0))
        entry["corollary1"] = dataclasses.asdict(
            verify_corollary1(traj, t0=0.5, eps0=cal.eps0))
        entry["corollary2"] = dataclasses.asdict(
            verify_corollary2(traj, delta=cal.delta))

        traj = _integrate(level_ensemble_run, seed)
        entry["lemma2"] = dataclasses.asdict(verify_lemma2(
            traj, mu=cal.mu, delta=cal.delta, gamma=cal.gamma, lam=cal.lam))
        entry["lemma3"] = dataclasses.asdict(verify_lemma3(
            traj, eps=cal.eps, lam=cal.lam, lam_star=cal.lam_star))

        traj = _integrate(recurrence_run, seed)
        u = truncated_energies(traj, k_max=k_max)
        rec = check_recurrence(u, traj.order, traj.grid.dimension)
        cheb = chebyshev_chain(traj, k_max=k_max)
        entry["recurrence"] = {
            "u_levels": u, "monotone": bool(np.all(np.diff(u) <= 0.0)),
            "constant": rec.constant, "decayed": rec.decayed,
            "vacuous": rec.vacuous,
            "chebyshev_min_slack": float(np.min(cheb.slack)),
            "chebyshev_ok": cheb.all_nonnegative,
        }

        traj = _integrate(oscillation_run, seed)
        osc = oscillation_decay(traj, scale=scale, levels=levels)
        entry["oscillation"] = {
            "alpha": osc.alpha, "r_squared": osc.r_squared,
            "osc": osc.osc, "radii": osc.radii, "degenerate": osc.degenerate,
        }
        return entry

    _ensure_dirs(out_dir, "curves")
    entries = [diagnose_seed(seed) for seed in seeds]
    _phase("write")
    for seed, entry in zip(seeds, entries):
        _write_curve(
            os.path.join(out_dir, "curves", f"recurrence-seed{seed}.csv"),
            f"seed={seed}",
            {"k": np.arange(len(entry["recurrence"]["u_levels"])),
             "u": entry["recurrence"]["u_levels"]})
        _write_curve(
            os.path.join(out_dir, "curves", f"oscillation-seed{seed}.csv"),
            f"seed={seed}",
            {"radius": entry["oscillation"]["radii"],
             "osc": entry["oscillation"]["osc"]})

    lemma_names = ("lemma1", "corollary1", "corollary2", "lemma2", "lemma3")
    counts = {name: {"pass": 0, "fail": 0, "hypothesis-violated": 0}
              for name in lemma_names}
    failures = 0
    for entry in entries:
        for name in lemma_names:
            counts[name][entry[name]["verdict"]] += 1
        if not entry["recurrence"]["monotone"]:
            failures += 1
        if not entry["recurrence"]["chebyshev_ok"]:
            failures += 1
    failures += sum(counts[name]["fail"] for name in lemma_names)
    all_pass = failures == 0
    for name in lemma_names:
        c = counts[name]
        print(f"diagnose {name}: pass={c['pass']} fail={c['fail']} "
              f"hypothesis-violated={c['hypothesis-violated']}")
    print(f"diagnose: {'pass' if all_pass else 'FAIL'} over {len(seeds)} seeds")
    return {
        "calibration": dataclasses.asdict(cal),
        "runs": entries,
        "summary": {"verdict_counts": counts, "failures": failures,
                    "all_pass": all_pass},
        "provenance": {"runs": "measured", "calibration": "calibrated",
                       "thresholds": cal.provenance},
    }, all_pass


def _cmd_denoise(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    src = cfg.get("denoise.input")
    if not src:
        raise ConfigError("denoise needs denoise.input=<field file>")
    if not os.path.isfile(src):
        raise ConfigError(f"denoise input is not a file: {src}")
    noisy = load_field(src)
    lo, hi = noisy.values.min(), noisy.values.max()
    # the energy and L2 records square the data (as for initial.amplitude)
    if not -1e100 <= lo <= hi <= 1e100:
        raise NlflowError(f"{src}: values must be finite and at most 1e100 "
                          "in magnitude")
    if noisy.grid.dimension == 2 and not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError(
            f"denoise.input: a 2-d field is saved as PGM, which holds [0, 1] "
            f"(got [{lo:g}, {hi:g}] in {src})")
    cfg.check_flow("nonlinear", noisy.grid, 0.0, cfg.get("denoise.time"),
                   t_end="denoise.time", points_per_axis="denoise.input")
    # the file's own grid wins: no grid.* key is read
    problem = FlowProblem(
        kind="nonlinear",
        grid=noisy.grid,
        kernel=make_kernel(cfg.kernel_spec(dimension=noisy.grid.dimension)),
        initial=noisy,
        t_end=cfg.get("denoise.time"),
        potential=cfg.make_potential(),
        strategy=cfg.get("flow.strategy"),
        dt_max=cfg.get("flow.dt_max"))
    traj = _integrate(run_flow, problem,
                      sample_every=cfg.get("flow.sample_every"))
    rec = _dissipation_record(traj)
    out_field = traj.field(traj.n_samples - 1)
    _ensure_dirs(out_dir, "curves", "fields")
    rel_out = f"fields/denoised.{('csv', 'pgm')[noisy.grid.dimension - 1]}"
    _phase("write")
    save_field(out_field, os.path.join(out_dir, rel_out))
    _write_curve(os.path.join(out_dir, "curves", "denoise-energy.csv"),
                 "denoise",
                 {"t": traj.step_times, "energy": traj.energy,
                  "l2": traj.l2})
    range_in = (float(lo), float(hi))
    range_out = (float(out_field.values.min()), float(out_field.values.max()))
    contained = (range_out[0] >= range_in[0] - 1e-12 and
                 range_out[1] <= range_in[1] + 1e-12)
    energy_decreased = rec["energy_last"] < rec["energy_first"] - 1e-14 or \
        rec["energy_first"] == rec["energy_last"] == 0.0
    passed = contained and rec["energy_nonincreasing"]
    print(f"denoise: range {range_in} -> {range_out}, "
          f"energy {rec['energy_first']:.6g} -> {rec['energy_last']:.6g}")
    print(f"denoise: {'pass' if passed else 'FAIL'}")
    return {
        "input": src,
        "output": rel_out,
        "range_in": range_in,
        "range_out": range_out,
        "range_contained": contained,
        "energy_strictly_decreased": bool(energy_decreased),
        "flow": rec,
        "passed": passed,
        "provenance": {"flow": "measured"},
    }, passed


def _cmd_calibrate(cfg: ExperimentConfig, out_dir: str) -> tuple[dict, bool]:
    seeds = CALIBRATION_SEEDS
    if cfg.sources["ensemble.seeds"] != "default":
        seeds = dict.fromkeys(seeds, list(cfg.get("ensemble.seeds")))
    cfg.refuse_unread()         # the recipes fix every other key
    recipes = {"lemma": lemma_ensemble_run, "level": level_ensemble_run,
               "recurrence": recurrence_run, "oscillation": oscillation_run}
    # lazy pairs: each run is integrated when the reduction reaches it
    constants = calibrate_constants(**{
        name: zip(seeds[name], map(functools.partial(_integrate, recipe),
                                   seeds[name]))
        for name, recipe in recipes.items()})
    _phase("write")
    save_calibration(constants, os.path.join(out_dir, "calibration.json"))
    passed = constants.in_unit_interval()
    print(f"calibrate: eps0={constants.eps0:.6g} delta={constants.delta:.6g} "
          f"mu={constants.mu:.6g} gamma={constants.gamma:.6g} "
          f"lam_star={constants.lam_star:.6g}")
    print(f"calibrate: {'pass' if passed else 'FAIL'}")
    return {
        "calibration": dataclasses.asdict(constants),
        "calibration_file": "calibration.json",
        "passed": passed,
        "provenance": constants.provenance,
    }, passed


_COMMANDS = {"validate": _cmd_validate, "run": _cmd_run,
             "diagnose": _cmd_diagnose, "denoise": _cmd_denoise,
             "calibrate": _cmd_calibrate}


# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlflow",
        description="Nonlocal-flow experiments: validation, dissipation "
                    "runs, regularity diagnostics, denoising, calibration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("validate", "check kernel/potential invariants"),
            ("run", "seeded flow ensemble with dissipation records"),
            ("diagnose", "lemma detectors, energy ladder, oscillation fits"),
            ("denoise", "nonlinear flow as a denoiser on a field file"),
            ("calibrate", "pin detector constants from the ensembles")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", default=None, metavar="LIST",
                       help="seed list like 1..20 or 3,5,9")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config output.dir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    made = None
    _MARKS[:] = [("setup", t0)]
    COUNTERS.update(dict.fromkeys(COUNTERS, 0))
    try:
        cfg = parse_config(path=args.config, overrides=args.set,
                           seeds=args.seed)
        out_dir = cfg.get("output.dir")       # --out reads it too
        if args.out is not None:
            out_dir = args.out
        made = _make_out_dir(out_dir)
        body, passed = _COMMANDS[args.command](cfg, out_dir)
        _phase("write")
    except NlflowError as exc:      # no report: remove what was made
        if made is not None:
            shutil.rmtree(made)
        refused = isinstance(exc, ConfigError)
        print(f"nlflow {args.command}: {'' if refused else 'aborted: '}{exc}",
              file=sys.stderr)
        return 2 if refused else 3
    for line in cfg.unread():
        print(f"nlflow {args.command}: note: {line}", file=sys.stderr)
    write_json({"command": args.command, "version": __version__,
                "config": cfg.echo(), **body},
               os.path.join(out_dir, "report.json"))
    _phase("end")
    phases = [{"phase": name, "start_s": start - t0, "seconds": stop - start}
              for (name, start), (_, stop) in zip(_MARKS, _MARKS[1:])]
    totals: dict = {}
    for span in phases:
        totals[span["phase"]] = totals.get(span["phase"], 0.0) + \
            span["seconds"]
    write_json({"command": args.command,
                "wall_clock_seconds": _MARKS[-1][1] - t0,
                "phases": phases, "phase_seconds": totals,
                "counters": dict(COUNTERS)},
               os.path.join(out_dir, "timings.json"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

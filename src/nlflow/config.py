"""Plain-text key=value experiment configuration.

Files hold one ``section.key = value`` pair per line (``#`` comments allowed);
``--set`` flags override file entries.  Parsing collects *every* violation
before failing, and the resulting ExperimentConfig remembers which keys were
defaulted so reports can echo them, and which keys a command has read, so
that a value it never read can be named (`ExperimentConfig.unread`).
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field

from .degiorgi import ladder_errors
from .ensembles import LEVELS, MAX_K, OSCILLATION_GAP, ORDER, \
    RECURRENCE_GAP, SCALE, default_grid
from .errors import ConfigError, violations
from .fields import initial_errors, make_initial
from .flow import FlowProblem, kind_errors, problem_errors, run_steps, \
    stable_dt, stepping_errors
from .grid import RUN_MAX_BYTES, DiscreteOperator, Field, Grid, \
    grid_errors, operator_errors
from .kernels import TRANSLATION_INVARIANT_FAMILIES, KernelSpec, \
    kernel_errors, make_kernel
from .oscillation import cylinder_errors, decay_errors
from .potentials import Potential, PotentialSpec, make_potential, \
    potential_errors

__all__ = ["ExperimentConfig", "parse_config", "parse_seed_list", "SCHEMA"]

# key -> (type tag, default).  Type tags: int, float, float?, str, bool,
# seeds (int list like "1..20" or "3,5,9").
SCHEMA: dict[str, tuple[str, object]] = {
    "kernel.family": ("str", "power-law"),
    "kernel.s": ("float", 1.0),
    "kernel.lambda": ("float", 4.0),
    "kernel.radius": ("float", 3.0),
    "kernel.seed": ("int", 0),
    "kernel.multiplier": ("float", 1.0),
    "kernel.cell": ("float", 0.25),
    "kernel.epoch": ("float", 0.1),
    "potential.family": ("str", "smoothed-huber"),
    "potential.lambda": ("float", 4.0),
    "grid.N": ("int", 1),
    "grid.M": ("int", 256),
    "grid.L": ("float", 16.0),
    "initial.kind": ("str", "bump"),
    "initial.amplitude": ("float", 1.0),
    "initial.sigma": ("float", 1.5),
    "initial.radius": ("float", 1.0),
    "initial.mode": ("int", 1),
    "initial.shift": ("float", 0.0),
    "initial.seed": ("int", 0),
    "flow.kind": ("str", "linear"),
    "flow.start": ("float", 0.0),
    "flow.end": ("float", 0.5),
    "flow.stepper": ("str", "euler"),
    "flow.strategy": ("str", "banded"),
    "flow.dt_max": ("float?", None),
    "flow.sample_every": ("int", 1),
    "flow.store_states": ("bool", False),
    "ensemble.seeds": ("seeds", tuple(range(1, 21))),
    "diagnose.k_max": ("int", MAX_K),
    "diagnose.levels": ("int", LEVELS),
    "diagnose.scale": ("float", SCALE),
    "denoise.input": ("str", ""),
    "denoise.time": ("float", 0.1),
    "output.dir": ("str", "out"),
    "calibration.file": ("str", ""),
    "report.verbosity": ("int", 1),
}

# The config key of each field the modules' rules name: the kernel's, the
# grid's, the flow's and the detectors', then those of the potential, the
# initial data and denoise, whose names the first map gives other keys
_KEYS = {"dimension": "grid.N", "order": "kernel.s",
         "ellipticity": "kernel.lambda", "truncation_radius": "kernel.radius",
         "family": "kernel.family", "multiplier": "kernel.multiplier",
         "cell_size": "kernel.cell", "epoch_length": "kernel.epoch",
         "points_per_axis": "grid.M", "side_length": "grid.L",
         "strategy": "flow.strategy", "kind": "flow.kind",
         "t_start": "flow.start", "t_end": "flow.end", "dt_max": "flow.dt_max",
         "sample_every": "flow.sample_every", "k_max": "diagnose.k_max",
         "levels": "diagnose.levels", "scale": "diagnose.scale"}
_OTHER_KEYS = {"family": "potential.family", "ellipticity": "potential.lambda",
               "kind": "initial.kind", "sigma": "initial.sigma",
               "radius": "initial.radius", "t_end": "denoise.time"}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


# Most seeds one list may name: each seed a command runs writes more than
# 1 KiB (a `run` seed's record, curve and final field take ~7 KB), so a
# longer list would write more than the RUN_MAX_BYTES a run may hold
MAX_SEEDS = RUN_MAX_BYTES >> 10


def parse_seed_list(text: str) -> tuple[int, ...]:
    """Seed lists: comma-separated integers and inclusive a..b ranges, of at
    most MAX_SEEDS seeds, counted before any range is expanded."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = map(int, part.split("..", 1)) if ".." in part else \
            (int(part),) * 2
        if hi < lo:
            raise ValueError(f"empty seed range {part!r}")
        ranges.append((lo, hi))
    count = sum(hi + 1 - lo for lo, hi in ranges)
    if not count:
        raise ValueError("empty seed list")
    if count > MAX_SEEDS:
        raise ValueError(f"{count} seeds, more than the {MAX_SEEDS} a list "
                         "may name")
    return tuple(seed for lo, hi in ranges for seed in range(lo, hi + 1))


def _parse_value(kind: str, text: str):
    text = text.strip()
    if kind == "int":
        v = int(text)
        if not -2 ** 63 <= v < 2 ** 63:
            raise ValueError("integer outside the 64-bit range [-2^63, 2^63)")
        return v
    if kind == "float":
        v = float(text)           # accepts inf
        if math.isnan(v):
            raise ValueError("nan is not a valid value")
        return v
    if kind == "float?":
        if text.lower() in ("none", ""):
            return None
        return _parse_value("float", text)
    if kind == "bool":
        low = text.lower()
        if low not in _BOOL_WORDS:
            raise ValueError(f"not a boolean: {text!r}")
        return _BOOL_WORDS[low]
    if kind == "seeds":
        return parse_seed_list(text)
    return text                   # str


@dataclass
class ExperimentConfig:
    """Validated key/value store plus builders for the domain objects."""

    values: dict[str, object]
    sources: dict[str, str]       # key -> where its value came from
    read: set = field(default_factory=set, compare=False)  # keys `get` gave

    def get(self, key: str, used: bool = True):
        """The value of `key`, counted as read if the problem `used` it: the
        builders pass the values it ignores on to the rules unread."""
        if used:
            self.read.add(key)
        return self.values[key]

    def unread(self) -> list[str]:
        """`key: message (got value)` lines of the keys that hold a value
        other than their default and that no `get` asked for since parsing."""
        return [f"{key}: not read by this command (got {value!r})"
                for key, value in self.values.items()
                if key not in self.read and value != SCHEMA[key][1]]

    def refuse_unread(self) -> None:
        """Raise ConfigError naming every `unread` key."""
        _refuse(self.unread())

    @property
    def defaulted(self) -> tuple[str, ...]:
        return tuple(k for k, src in self.sources.items() if src == "default")

    def echo(self) -> dict:
        """Full key -> value map with defaulted keys listed separately."""
        rendered = {}
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, tuple):
                v = list(v)
            elif isinstance(v, float) and math.isinf(v):
                v = "inf" if v > 0 else "-inf"
            rendered[key] = v
        return {"values": rendered,
                "defaulted_keys": sorted(self.defaulted)}

    # ---- builders -------------------------------------------------------
    def make_grid(self) -> Grid:
        return Grid(dimension=self.get("grid.N"),
                    side_length=self.get("grid.L"),
                    points_per_axis=self.get("grid.M"))

    def kernel_spec(self, seed: int | None = None,
                    dimension: int | None = None) -> KernelSpec:
        family = self.get("kernel.family")
        rough = family not in TRANSLATION_INVARIANT_FAMILIES
        return KernelSpec(
            dimension=self.get("grid.N") if dimension is None else dimension,
            order=self.get("kernel.s"),
            ellipticity=self.get("kernel.lambda", rough),
            truncation_radius=self.get("kernel.radius"),
            family=family,
            seed=self.get("kernel.seed", rough) if seed is None else seed,
            multiplier=self.get("kernel.multiplier", not rough),
            cell_size=self.get("kernel.cell", rough),
            epoch_length=self.get("kernel.epoch",
                                  family == "rough-time-dependent"))

    def make_kernel(self, seed: int | None = None):
        return make_kernel(self.kernel_spec(seed=seed))

    def potential_spec(self) -> PotentialSpec:
        return PotentialSpec(family=self.get("potential.family"),
                             ellipticity=self.get("potential.lambda"))

    def make_potential(self) -> Potential:
        return make_potential(self.potential_spec())

    def make_initial(self, grid: Grid, seed: int | None = None) -> Field:
        kind = self.get("initial.kind")
        return make_initial(
            grid,
            kind=kind,
            amplitude=self.get("initial.amplitude"),
            seed=self.get("initial.seed", kind == "random") if seed is None
            else seed,
            sigma=self.get("initial.sigma", kind == "bump"),
            radius=self.get("initial.radius", kind == "step"),
            mode=self.get("initial.mode", kind == "cosine"),
            shift=self.get("initial.shift"))

    def check_flow(self, kind: str, grid: Grid, start: float, end: float,
                   **keys: str) -> int:
        """The step count of a `kind` flow from `start` to `end` on this
        config and `grid`, at `stable_dt` of the kernel's band (`run_steps`);
        raise ConfigError on the rules it, the operator (`operator_errors`),
        the kernel over the torus and span (`Kernel.reach_errors`) or the
        kind (`kind_errors`) breaks, keyed by `keys` or `_KEYS`.
        A rough-static step lies between those at the band's edges 1/Lambda
        and Lambda (a time-dependent one steps at Lambda); where their counts
        straddle the cap, each seed's row sums count it, as in `run_flow`."""
        # the band's step does not depend on the kernel's seed
        spec = self.kernel_spec(seed=0, dimension=grid.dimension)
        strategy, kernel = self.get("flow.strategy"), make_kernel(spec)
        size = (self.get("flow.sample_every"), grid.n_nodes)
        n_steps, found = 0, operator_errors(grid, spec, strategy) + \
            kernel.reach_errors(grid.side_length, max(abs(start), abs(end))) \
            + kind_errors(kind, strategy, spec.family)
        if not found:     # one step first: an operator takes node arrays
            n_steps, found = run_steps(start, end, math.inf, None, *size)
        potential = self.make_potential() if kind == "nonlinear" else None

        def count(op, multiplier):
            dt = stable_dt(op, potential, multiplier=multiplier)
            return run_steps(start, end, dt, self.get("flow.dt_max"), *size)
        hi = kernel.upper_multiplier
        lo = hi if kernel.time_dependent else kernel.lower_multiplier
        if not found:
            op = DiscreteOperator(grid, kernel)
            n_steps, found = count(op, lo)
        if not found and lo < hi and count(op, hi)[1]:
            n_steps, found = max((count(DiscreteOperator(grid, make_kernel(
                self.kernel_spec(seed, grid.dimension))), None) for seed in
                self.get("ensemble.seeds")), key=lambda c: c[0])
        _refuse(_keyed(self.values, found, {**_KEYS, **keys}))
        return n_steps

    def check_recipes(self) -> None:
        """Raise ConfigError unless the recipes' runs resolve the diagnose.*
        ladder and innermost cylinder, as the detectors ask."""
        scale, levels = self.get("diagnose.scale"), self.get("diagnose.levels")
        radius = scale ** (levels - 1)
        depth = radius ** ORDER
        # the oscillation runs sample every OSCILLATION_GAP back from 0
        _refuse(_keyed(self.values, ladder_errors(
            self.get("diagnose.k_max"), RECURRENCE_GAP), _KEYS) + [
            f"diagnose.scale, diagnose.levels: the innermost {error}"
            for _, error in cylinder_errors(
                radius, depth, int(default_grid().ball(radius).sum()),
                math.floor(depth / OSCILLATION_GAP) + 1)])

    def seeds_reach_problem(self) -> bool:
        """Whether `flow_problem(seed)` differs between seeds: the seed only
        reaches rough kernel families and random initial data."""
        return self.get("kernel.family") != "power-law" or \
            self.get("initial.kind") == "random"

    def flow_problem(self, seed: int | None = None) -> FlowProblem:
        """Full problem; `seed` reseeds both the kernel and the initial data
        (see `seeds_reach_problem`)."""
        grid = self.make_grid()
        kind = self.get("flow.kind")
        potential = self.make_potential() if kind == "nonlinear" else None
        return FlowProblem(
            kind=kind,
            grid=grid,
            kernel=self.make_kernel(seed=seed),
            initial=self.make_initial(grid, seed=seed),
            t_start=self.get("flow.start"),
            t_end=self.get("flow.end"),
            potential=potential,
            strategy=self.get("flow.strategy"),
            dt_max=self.get("flow.dt_max"))


def _refuse(errors: list[str]) -> None:
    """Raise one ConfigError listing every violation, if there are any."""
    if errors:
        errors = list(dict.fromkeys(errors))
        exc = ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
        exc.errors = errors
        raise exc


def _keyed(values: dict, violations: list, keys: dict) -> list[str]:
    """`key: message (got value)` lines of (field, error) pairs, each under
    its field's config key in `keys`, or the field itself if it is one."""
    return [f"{keys.get(f, f)}: {error} (got {values[keys.get(f, f)]!r})"
            for f, error in violations]


def _semantic_errors(cfg: ExperimentConfig) -> list[str]:
    """Every rule the values break: each module's own rules under the config
    keys, then the three that no library object owns."""
    values, spec = cfg.values, cfg.kernel_spec()
    # the torus and span rules wait for `check_flow`, which builds them
    found = kernel_errors(spec) or make_kernel(spec).reach_errors(0.0, 0.0)
    found += grid_errors(values["grid.N"], values["grid.L"], values["grid.M"],
                         strategy=values["flow.strategy"])
    found += problem_errors(values["flow.kind"], values["flow.start"],
                            values["flow.end"])
    found += stepping_errors(values["flow.dt_max"],
                             values["flow.sample_every"])
    found += ladder_errors(values["diagnose.k_max"])
    found += decay_errors(values["diagnose.scale"], values["diagnose.levels"])
    found += violations(
        # the L2 and energy records square the data: 1e200 overflowed them
        ("initial.amplitude", abs(values["initial.amplitude"])
         + abs(values["initial.shift"]) <= 1e100,
         "|amplitude| + |initial.shift| must be at most 1e100"),
        ("report.verbosity", values["report.verbosity"] >= 0,
         "must be a nonnegative integer"),
        ("flow.stepper", values["flow.stepper"] == "euler", "must be euler"))
    other = potential_errors(cfg.potential_spec()) + initial_errors(
        values["initial.kind"], values["initial.sigma"],
        values["initial.radius"])
    # denoise runs from 0 to denoise.time
    other += problem_errors("nonlinear", 0.0, values["denoise.time"])
    return _keyed(values, found, _KEYS) + _keyed(values, other, _OTHER_KEYS)


def _split_pair(line: str):
    if "=" not in line:
        return None
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def parse_config(path: str | None = None,
                 overrides: list[str] | None = None,
                 seeds: str | None = None) -> ExperimentConfig:
    """Parse a config file plus --set overrides; raise ConfigError listing
    every violation (parse, unknown key, type, range) at once."""
    errors: list[str] = []
    values: dict[str, object] = {k: v for k, (_, v) in SCHEMA.items()}
    sources = {k: "default" for k in SCHEMA}

    def apply(key: str, text: str, where: str):
        if key not in SCHEMA:
            near = difflib.get_close_matches(key, SCHEMA.keys(), n=1)
            hint = f"; nearest valid key: {near[0]}" if near else ""
            errors.append(f"{where}: unknown key {key!r}{hint}")
            return
        kind = SCHEMA[key][0]
        try:
            values[key] = _parse_value(kind, text)
            sources[key] = where
        except ValueError as exc:
            errors.append(f"{where}: {key}: {exc}")

    if path is not None:
        try:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                errors.append(f"{path}:{lineno}: not UTF-8 text")
                continue
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            pair = _split_pair(line)
            if pair is None:
                errors.append(f"{path}:{lineno}: expected key=value, "
                              f"got {raw.strip()!r}")
                continue
            apply(pair[0], pair[1], f"{path}:{lineno}")

    for item in overrides or []:
        pair = _split_pair(item)
        if pair is None:
            errors.append(f"--set {item!r}: expected key=value")
            continue
        apply(pair[0], pair[1], "--set")

    if seeds is not None:
        try:
            values["ensemble.seeds"] = parse_seed_list(seeds)
            sources["ensemble.seeds"] = "--seed"
        except ValueError as exc:
            errors.append(f"--seed {seeds!r}: {exc}")

    # Range checks run on whatever parsed (failed keys keep their defaults).
    cfg = ExperimentConfig(values=values, sources=sources)
    _refuse(errors + _semantic_errors(cfg))
    cfg.read.clear()              # the commands' reads count, not the rules'
    return cfg

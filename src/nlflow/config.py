"""Plain-text key=value experiment configuration.

Files hold one ``section.key = value`` pair per line (``#`` comments allowed);
``--set`` flags override file entries.  Parsing collects *every* violation
before failing, and the resulting ExperimentConfig remembers which keys were
defaulted so reports can echo them.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass

from .ensembles import DIMENSION, LEVELS, MAX_K, MIN_DEPTH, MIN_RADIUS, \
    ORDER, SCALE
from .errors import ConfigError
from .fields import INITIAL_KINDS, make_initial
from .flow import FlowProblem
from .grid import DENSE_MAX_NODES, STRATEGIES, Field, Grid
from .kernels import KERNEL_FAMILIES, TRANSLATION_INVARIANT_FAMILIES, \
    KernelSpec, make_kernel
from .potentials import POTENTIAL_FAMILIES, Potential, PotentialSpec, \
    make_potential

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

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def parse_seed_list(text: str) -> tuple[int, ...]:
    """Seed lists: comma-separated integers and inclusive a..b ranges."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("empty seed list")
    return tuple(seeds)


def _parse_value(kind: str, text: str):
    text = text.strip()
    if kind == "int":
        return int(text)
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

    def get(self, key: str):
        return self.values[key]

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

    def kernel_spec(self, seed: int | None = None) -> KernelSpec:
        return KernelSpec(
            dimension=self.get("grid.N"),
            order=self.get("kernel.s"),
            ellipticity=self.get("kernel.lambda"),
            truncation_radius=self.get("kernel.radius"),
            family=self.get("kernel.family"),
            seed=self.get("kernel.seed") if seed is None else seed,
            multiplier=self.get("kernel.multiplier"),
            cell_size=self.get("kernel.cell"),
            epoch_length=self.get("kernel.epoch"))

    def make_kernel(self, seed: int | None = None):
        return make_kernel(self.kernel_spec(seed=seed))

    def make_potential(self) -> Potential:
        return make_potential(PotentialSpec(
            family=self.get("potential.family"),
            ellipticity=self.get("potential.lambda")))

    def make_initial(self, grid: Grid, seed: int | None = None) -> Field:
        return make_initial(
            grid,
            kind=self.get("initial.kind"),
            amplitude=self.get("initial.amplitude"),
            seed=self.get("initial.seed") if seed is None else seed,
            sigma=self.get("initial.sigma"),
            radius=self.get("initial.radius"),
            mode=self.get("initial.mode"),
            shift=self.get("initial.shift"))

    def check_flow(self, kind: str, grid: Grid) -> None:
        """Raise ConfigError unless a `kind` flow can run on this config and
        `grid`: the nonlinear flow steps with the banded strategy, it and the
        spectral strategy need a translation-invariant kernel, the spectral
        symbol an untruncated one, the dense matrix at most DENSE_MAX_NODES
        nodes, and the kernel a lattice neighbor inside its radius and a
        torus wider than twice that radius."""
        family = self.get("kernel.family")
        radius = self.get("kernel.radius")
        strategy = self.get("flow.strategy")
        spectral = strategy == "spectral"
        errors = []
        if kind == "nonlinear" and strategy != "banded":
            errors.append(f"flow.strategy: the nonlinear flow steps with the "
                          f"banded strategy (got {strategy!r})")
        if (kind == "nonlinear" or spectral) and \
                family not in TRANSLATION_INVARIANT_FAMILIES:
            errors.append(
                f"kernel.family: the {kind} flow with flow.strategy="
                f"{strategy} needs the translation-invariant "
                f"{' or '.join(TRANSLATION_INVARIANT_FAMILIES)} kernel family "
                f"(got {family!r})")
        if strategy == "dense" and grid.n_nodes > DENSE_MAX_NODES:
            errors.append(f"flow.strategy: the dense operator takes at most "
                          f"{DENSE_MAX_NODES} nodes (got {grid.n_nodes})")
        if spectral and math.isfinite(radius):
            errors.append(f"kernel.radius: flow.strategy=spectral needs "
                          f"kernel.radius=inf (got {radius!r})")
        if radius < grid.spacing:
            errors.append(f"kernel.radius: no lattice neighbor within it at "
                          f"grid spacing {grid.spacing:g} (got {radius!r})")
        if math.isfinite(radius) and not (grid.side_length > 2.0 * radius):
            errors.append(f"kernel.radius: the torus width "
                          f"{grid.side_length:g} must exceed twice it "
                          f"(got {radius!r})")
        _refuse(errors)

    def check_ensembles(self, calibration=None) -> None:
        """Raise ConfigError unless grid.N, kernel.s and `calibration`'s
        dimension and order match the ensembles diagnose and calibrate run;
        with the calibration diagnose passes, its runs must also resolve the
        diagnose.* keys."""
        found = [("grid.N", self.get("grid.N"), DIMENSION),
                 ("kernel.s", self.get("kernel.s"), ORDER)]
        errors = []
        if calibration is not None:
            found += [("calibration.file dimension", calibration.dimension,
                       DIMENSION),
                      ("calibration.file order", calibration.order, ORDER)]
            if self.get("diagnose.k_max") > MAX_K:
                errors.append(f"diagnose.k_max: the recurrence runs resolve "
                              f"at most {MAX_K} rungs")
            inner = self.get("diagnose.scale") ** (
                self.get("diagnose.levels") - 1)
            if not (inner > MIN_RADIUS and inner ** ORDER > MIN_DEPTH):
                errors.append(
                    f"diagnose.scale, diagnose.levels: the oscillation runs "
                    f"resolve an innermost cylinder of radius above "
                    f"{MIN_RADIUS:g} and depth above {MIN_DEPTH:g}, not "
                    f"scale^(levels-1) = {inner:g}")
        _refuse([f"{what} must be {want:g}, as in the {DIMENSION}-d "
                 f"order-{ORDER:g} ensembles (got {got!r})"
                 for what, got, want in found if got != want] + errors)

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
            stepper=self.get("flow.stepper"),
            strategy=self.get("flow.strategy"),
            dt_max=self.get("flow.dt_max"))


def _refuse(errors: list[str]) -> None:
    """Raise one ConfigError listing every violation, if there are any."""
    if errors:
        exc = ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
        exc.errors = errors
        raise exc


def _semantic_errors(values: dict[str, object]) -> list[str]:
    """Range/choice checks mirroring the module invariants, all collected."""
    errors: list[str] = []

    def check(cond: bool, key: str, message: str):
        if not cond:
            errors.append(f"{key}: {message} (got {values[key]!r})")

    s = values["kernel.s"]
    check(0.0 < s < 2.0, "kernel.s", "order out of (0,2)")
    check(values["kernel.lambda"] > 1.0, "kernel.lambda",
          "ellipticity must exceed 1")
    check(values["kernel.radius"] > 0.0, "kernel.radius",
          "truncation radius must be positive")
    fam = values["kernel.family"]
    check(fam in KERNEL_FAMILIES, "kernel.family",
          f"expected one of {', '.join(KERNEL_FAMILIES)}")
    lam = values["kernel.lambda"]
    if fam in TRANSLATION_INVARIANT_FAMILIES and lam > 1.0:
        # the tight band `validate_kernel` grades a convolution kernel in
        lo, hi = lam ** -0.5, lam ** 0.5
        check(lo <= values["kernel.multiplier"] <= hi, "kernel.multiplier",
              f"{fam} multiplier must lie in [Lambda^-1/2, Lambda^1/2] = "
              f"[{lo:g}, {hi:g}]")
    else:
        check(values["kernel.multiplier"] > 0.0, "kernel.multiplier",
              "multiplier must be positive")
    check(values["kernel.cell"] > 0.0, "kernel.cell",
          "cell size must be positive")
    check(values["kernel.epoch"] > 0.0, "kernel.epoch",
          "epoch length must be positive")
    check(values["potential.family"] in POTENTIAL_FAMILIES,
          "potential.family",
          f"expected one of {', '.join(POTENTIAL_FAMILIES)}")
    check(values["potential.lambda"] > 1.0, "potential.lambda",
          "ellipticity must exceed 1")
    check(values["grid.N"] in (1, 2), "grid.N", "dimension must be 1 or 2")
    check(values["grid.M"] >= 8, "grid.M", "need at least 8 points per axis")
    check(values["grid.L"] > 0.0, "grid.L", "side length must be positive")
    radius = values["kernel.radius"]
    if math.isfinite(radius) and values["grid.L"] > 0:
        check(values["grid.L"] > 2.0 * radius, "grid.L",
              f"torus width must exceed twice the kernel radius {radius}")
    check(values["initial.kind"] in INITIAL_KINDS, "initial.kind",
          f"expected one of {', '.join(INITIAL_KINDS)}")
    check(values["initial.sigma"] > 0.0, "initial.sigma",
          "sigma must be positive")
    check(values["initial.radius"] > 0.0, "initial.radius",
          "radius must be positive")
    # the L2 and energy records square the data: 1e200 overflowed them
    check(abs(values["initial.amplitude"]) + abs(values["initial.shift"])
          <= 1e100, "initial.amplitude",
          "|amplitude| + |initial.shift| must be at most 1e100")
    check(values["flow.kind"] in ("linear", "nonlinear"), "flow.kind",
          "expected linear or nonlinear")
    check(values["flow.stepper"] in ("euler", "heun"), "flow.stepper",
          "expected euler or heun")
    check(values["flow.strategy"] in STRATEGIES, "flow.strategy",
          f"expected one of {', '.join(STRATEGIES)}")
    check(values["flow.end"] > values["flow.start"], "flow.end",
          f"must exceed flow.start={values['flow.start']}")
    dt_max = values["flow.dt_max"]
    if dt_max is not None:
        check(dt_max > 0.0, "flow.dt_max", "must be positive when set")
    check(values["flow.sample_every"] >= 1, "flow.sample_every",
          "must be a positive integer")
    check(values["diagnose.k_max"] >= 1, "diagnose.k_max",
          "must be a positive integer")
    check(values["diagnose.levels"] >= 3, "diagnose.levels",
          "need at least 3 levels")
    check(0.0 < values["diagnose.scale"] < 1.0, "diagnose.scale",
          "scale must lie in (0,1)")
    check(values["denoise.time"] > 0.0, "denoise.time",
          "time must be positive")
    check(values["report.verbosity"] >= 0, "report.verbosity",
          "must be a nonnegative integer")
    return errors


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
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        for lineno, raw in enumerate(lines, start=1):
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
    errors.extend(_semantic_errors(values))

    _refuse(errors)

    return ExperimentConfig(values=values, sources=sources)

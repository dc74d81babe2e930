"""Span tracer for the nlflow benchmark, kept outside the package.

Run as a program, it executes one ``nlflow`` command with every traced entry
point wrapped and writes the spans as JSON:

    python3 perfbench/tracer.py SPANS.json -- diagnose --seed 1,2 --out out

The wrappers are installed from here, so the package source is untouched.
``from .x import y`` binds names when a module is imported, so each wrapper
replaces the name where its caller looks it up (``nlflow.cli.run_flow`` and
``nlflow.ensembles.run_flow`` are two patches of one function); methods are
replaced on their class.  Every banded step evaluates its right-hand side
through ``nlflow.flow._offset_rhs``, which the step functions look up in
their module, so that private name is patched as the RHS span.  A patch whose target no longer exists is skipped
and listed under ``missing``.

A span is ``[name, parent, start, end, count]``: ``parent`` indexes the span
that was open when this one began (-1 at top level) and ``count`` is a
per-call counter, or null.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time


class Tracer:
    """Records nested spans in memory; single-threaded callers only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0,
                          None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if counter is not None:
                spans[idx][4] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _flow_counter(args, traj):
    return [int(traj.meta["n_steps"]), int(traj.grid.n_nodes)]


def _saved_bytes(args, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute where the caller looks it up, span name, counter)
PATCHES = [
    ("nlflow.cli", "parse_config", "config.parse_config", None),
    ("nlflow.cli", "default_calibration", "calibrate.load", None),
    ("nlflow.cli", "load_calibration", "calibrate.load", None),
    ("nlflow.cli", "lemma_ensemble_run", "ensembles.lemma_ensemble_run", None),
    ("nlflow.cli", "level_ensemble_run", "ensembles.level_ensemble_run", None),
    ("nlflow.cli", "recurrence_run", "ensembles.recurrence_run", None),
    ("nlflow.cli", "oscillation_run", "ensembles.oscillation_run", None),
    ("nlflow.cli", "run_flow", "flow.run_flow", _flow_counter),
    ("nlflow.ensembles", "run_flow", "flow.run_flow", _flow_counter),
    ("nlflow.flow", "_offset_rhs", "flow.rhs", None),
    ("nlflow.flow", "linear_energy", "flow.linear_energy", None),
    ("nlflow.flow", "nonlinear_energy", "flow.nonlinear_energy", None),
    ("nlflow.grid", "DiscreteOperator.offset_values", "grid.offset_values",
     None),
    ("nlflow.kernels", "Kernel.evaluate", "kernels.evaluate", None),
    ("nlflow.potentials", "Potential.d1", "potentials.d1", None),
    ("nlflow.potentials", "Potential.value", "potentials.value", None),
    ("nlflow.cli", "truncated_energies", "degiorgi.truncated_energies", None),
    ("nlflow.cli", "check_recurrence", "degiorgi.check_recurrence", None),
    ("nlflow.cli", "chebyshev_chain", "degiorgi.chebyshev_chain", None),
    ("nlflow.cli", "verify_lemma1", "degiorgi.verify_lemma1", None),
    ("nlflow.cli", "verify_corollary1", "degiorgi.verify_corollary1", None),
    ("nlflow.cli", "verify_corollary2", "degiorgi.verify_corollary2", None),
    ("nlflow.cli", "verify_lemma2", "degiorgi.verify_lemma2", None),
    ("nlflow.cli", "oscillation_decay", "oscillation.oscillation_decay", None),
    ("nlflow.cli", "verify_lemma3", "oscillation.verify_lemma3", None),
    ("nlflow.cli", "load_field", "fieldio.load_field", _loaded_bytes),
    ("nlflow.cli", "save_field", "fieldio.save_field", _saved_bytes),
]

LAYERS = ("cli", "config", "calibrate", "ensembles", "flow", "grid",
          "kernels", "potentials", "degiorgi", "oscillation", "fieldio")

RECIPES = ("lemma_ensemble_run", "level_ensemble_run", "recurrence_run",
           "oscillation_run")


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in PATCHES; return the targets that do not exist."""
    missing = []
    for module_name, attr, span, counter in PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(span, original, counter))
    return missing


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, _, start, end, _) in enumerate(spans)]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def summarize(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced invocation.

    `wall_s` is the traced process's own wall time from before the package
    import to the return of ``cli.main``.
    """
    own = self_times(spans)
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    steps = node_steps = file_bytes = 0
    for (name, _, start, end, count), s in zip(spans, own):
        incl[name] = incl.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name != "cli.import":
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        if name == "flow.run_flow" and count is not None:
            steps += count[0]
            node_steps += count[0] * count[1]
        elif name.startswith("fieldio.") and count is not None:
            file_bytes += count

    # An offset-table build is an offset_values call that reached
    # Kernel.evaluate; calls answered from the operator cache do not.
    builds = sorted({spans[i][1] for i, span in enumerate(spans)
                     if span[0] == "kernels.evaluate" and span[1] >= 0
                     and spans[span[1]][0] == "grid.offset_values"})
    build_s = sum((spans[i][3] - spans[i][2] for i in builds), 0.0)
    build_in_flow_s = sum((spans[i][3] - spans[i][2] for i in builds
                           if _has_ancestor(spans, i, "flow.run_flow")), 0.0)
    build_in_rhs_s = sum((spans[i][3] - spans[i][2] for i in builds
                          if _has_ancestor(spans, i, "flow.rhs")), 0.0)
    attributed = sum(own)
    recipes_s = sum(incl.get(f"ensembles.{r}", 0.0) for r in RECIPES)

    m = {f"{layer}.self_s": v for layer, v in layer_self.items()}
    m.update({
        "cli.import_s": incl.get("cli.import", 0.0),
        "config.parse_s": incl.get("config.parse_config", 0.0),
        "calibrate.load_s": incl.get("calibrate.load", 0.0),
        "ensembles.share_of_wall": recipes_s / wall_s if wall_s > 0 else 0.0,
        "flow.run_flow_self_s": sum(
            s for span, s in zip(spans, own) if span[0] == "flow.run_flow"),
        "flow.steps": steps,
        "flow.node_steps": node_steps,
        "flow.step_ms": (1e3 * (incl.get("flow.run_flow", 0.0)
                                - build_in_flow_s) / steps) if steps else 0.0,
        "flow.rhs_s": incl.get("flow.rhs", 0.0) - build_in_rhs_s,
        "flow.rhs_calls": calls.get("flow.rhs", 0),
        "grid.offset_values_calls": calls.get("grid.offset_values", 0),
        "grid.offset_table_builds": len(builds),
        "grid.offset_table_s": build_s,
        "kernels.evaluate_self_s": layer_self["kernels"],
        "kernels.evaluate_calls": calls.get("kernels.evaluate", 0),
        "potentials.calls": calls.get("potentials.d1", 0)
        + calls.get("potentials.value", 0),
        "degiorgi.truncated_energies_s": incl.get(
            "degiorgi.truncated_energies", 0.0),
        "degiorgi.chebyshev_chain_s": incl.get("degiorgi.chebyshev_chain", 0.0),
        "degiorgi.detectors_s": sum(
            (v for k, v in incl.items() if k.startswith("degiorgi.verify_")),
            0.0),
        "oscillation.decay_s": incl.get("oscillation.oscillation_decay", 0.0),
        "oscillation.lemma3_s": incl.get("oscillation.verify_lemma3", 0.0),
        "fieldio.save_s": incl.get("fieldio.save_field", 0.0),
        "fieldio.load_s": incl.get("fieldio.load_field", 0.0),
        "fieldio.bytes": file_bytes,
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - attributed,
    })
    for r in RECIPES:
        m[f"ensembles.{r}_s"] = incl.get(f"ensembles.{r}", 0.0)
    return m


def bookkeeping_ok(m: dict) -> bool:
    """Layer self times plus the import span account for the traced wall:
    what is left is the tracer's own start-up, which stays small."""
    total = m["cli.import_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
    rest = m["trace.wall_s"] - total
    return -1e-9 <= rest <= 0.02 * m["trace.wall_s"] + 0.01


def self_test() -> list[str]:
    """Span and self-time arithmetic on synthetic nested spans."""
    # clock readings in call order: cli.main [0, 12] holds run_flow [1, 8]
    # (holding rhs [2, 7], holding offset_values [3, 6], holding evaluate
    # [4, 5]) and linear_energy [9, 10]; save_field [12.5, 13] is a second
    # top span.
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
                  12.0, 12.5, 13.0])
    tr = Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    def rhs():
        tr.wrap("grid.offset_values",
                tr.wrap("kernels.evaluate", leaf))()

    def top():
        tr.wrap("flow.run_flow", tr.wrap("flow.rhs", rhs))()
        tr.wrap("flow.linear_energy", leaf)()

    tr.wrap("cli.main", top)()
    tr.wrap("fieldio.save_field", leaf)()
    expect = {"cli.main": 12.0 - 7.0 - 1.0, "flow.run_flow": 7.0 - 5.0,
              "flow.rhs": 5.0 - 3.0, "grid.offset_values": 3.0 - 1.0,
              "kernels.evaluate": 1.0, "flow.linear_energy": 1.0,
              "fieldio.save_field": 0.5}
    got = dict(zip((s[0] for s in tr.spans), self_times(tr.spans)))
    failures = [f"self time of {k}: {got.get(k)} != {v}"
                for k, v in expect.items() if got.get(k) != v]
    if [s[1] for s in tr.spans] != [-1, 0, 1, 2, 3, 0, -1]:
        failures.append("span parents are wrong")
    m = summarize(tr.spans, wall_s=13.0)
    if m["grid.offset_table_builds"] != 1 or m["grid.offset_table_s"] != 3.0:
        failures.append("offset-table build not attributed")
    if m["flow.rhs_s"] != 2.0 or m["flow.rhs_calls"] != 1:
        failures.append("offset-table build not taken out of the rhs")
    if abs(m["trace.unattributed_s"] - 0.5) > 1e-12:
        failures.append(f"unattributed {m['trace.unattributed_s']} != 0.5")
    if not bookkeeping_ok(dict(m, **{"trace.wall_s": 12.5})):
        failures.append("bookkeeping rejects a complete trace")
    if bookkeeping_ok(dict(m, **{"trace.wall_s": 20.0})):
        failures.append("bookkeeping accepts a trace missing half its wall")
    return failures


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <nlflow arguments>")
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("nlflow.cli")
    missing = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    wall = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump({"exit_code": code, "wall_s": wall, "missing": missing,
                   "package": os.path.dirname(cli.__file__),
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

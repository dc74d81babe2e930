"""Output checks: a report must match the one recorded for its case.

Verdicts, counts, strings and flags must be equal; floats must agree to
REL_TOL relative (ABS_TOL absolute near zero).  Summing the lattice offsets in
reverse order moved the recorded floats by at most 3.5e-15 relative, which
REL_TOL admits; scaling the L2 record by 1 + 1e-8 or phi' by 1 + 1e-7 failed
every operation.  An operation is one nlflow
seed (diagnose, run) or one invocation (denoise); a difference inside one
seed's record fails that seed, a difference anywhere else fails them all.
"""

from __future__ import annotations

import copy
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-12

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def differences(got, want, path=()) -> list[tuple]:
    """Paths at which `got` differs from `want` beyond the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path]
        out = []
        for key in want:
            out += differences(got[key], want[key], path + (key,))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += differences(g, w, path + (i,))
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if ok else [path]
    same = type(got) is type(want) and got == want
    return [] if same else [path]


def failed_ops(report: dict | None, want: dict, n_ops: int) -> list[bool]:
    """Per-operation failure flags of one report against its recording."""
    if report is None:
        return [True] * n_ops
    diffs = differences(report, want)
    if report.get("command") in ("diagnose", "run"):
        failed = [False] * n_ops
        for path in diffs:
            if len(path) >= 2 and path[0] == "runs" and path[1] < n_ops:
                failed[path[1]] = True
            else:
                return [True] * n_ops
        return failed
    return [bool(diffs)] * n_ops


def self_test(expected: dict) -> list[str]:
    """Tampered reports must count as failed; an untouched one must not."""
    failures = []
    for name, cases in expected.items():
        want = cases["0"]["report"]
        n_ops = len(want.get("runs", [None]))
        if any(failed_ops(copy.deepcopy(want), want, n_ops)):
            failures.append(f"{name}: the recorded report fails its check")
        for label, tamper in _TAMPERS:
            bad = copy.deepcopy(want)
            tamper(bad)
            if not any(failed_ops(bad, want, n_ops)):
                failures.append(f"{name}: tampered ({label}) report passed")
        nudged = copy.deepcopy(want)
        _scale_first_float(nudged, 1.0 + 1e-13)
        if any(failed_ops(nudged, want, n_ops)):
            failures.append(f"{name}: a 1e-13 relative change failed")
    if failed_ops(None, {}, 3) != [True] * 3:
        failures.append("a missing report did not fail every operation")
    return failures


def _first_float(node, path=()):
    if isinstance(node, float) and node != 0.0:
        return path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found = _first_float(child, path + (key,))
        if found is not None:
            return found
    return None


def _scale_first_float(report: dict, factor: float) -> None:
    node = report.get("runs", report.get("flow"))
    path = _first_float(node)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor


def _flip_verdict(report: dict) -> None:
    if "runs" in report and "lemma1" in report["runs"][0]:
        report["runs"][0]["lemma1"]["verdict"] = "fail"
    elif "runs" in report:
        report["runs"][0]["dissipative"] = False
    else:
        report["passed"] = False


def _drop_record(report: dict) -> None:
    if "runs" in report:
        report["runs"].pop()
    else:
        del report["flow"]


_TAMPERS = (
    ("verdict flipped", _flip_verdict),
    ("float off by 1e-6", lambda r: _scale_first_float(r, 1.0 + 1e-6)),
    ("record dropped", _drop_record),
)
